use serde::json::{Error, Value};
use serde::{Deserialize, Serialize};

/// The dimensions of a [`Tensor`](crate::Tensor), outermost first.
///
/// A `Shape` is an ordered list of at most [`Shape::MAX_RANK`] dimension sizes,
/// stored inline: building, cloning and comparing one touches no heap, so a
/// training step can make tensors without allocating. Tensors are stored
/// row-major, so the last dimension is contiguous in memory. An empty shape
/// denotes a scalar with one element. It serializes as the plain list of its
/// dimensions.
///
/// ```
/// use socflow_tensor::Shape;
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.rank(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    /// The first `rank` entries are the dimensions; the rest stay zero, so
    /// the derived comparisons see one representation per shape.
    dims: [usize; Shape::MAX_RANK],
    rank: u8,
}

impl Shape {
    /// The highest rank a shape holds: NCHW image batches. Nothing in the
    /// workspace builds a tensor of more dimensions, and [`Shape::new`] says
    /// so if something starts to.
    pub const MAX_RANK: usize = 4;

    /// Creates a shape from dimension sizes, outermost first.
    ///
    /// # Panics
    /// Panics if there are more than [`Shape::MAX_RANK`] dimensions.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape::from(dims.as_slice())
    }

    /// Shape of a scalar (rank 0, one element).
    pub fn scalar() -> Self {
        Shape {
            dims: [0; Shape::MAX_RANK],
            rank: 0,
        }
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// Total number of elements (product of dimensions; 1 for a scalar).
    pub fn len(&self) -> usize {
        self.dims().iter().product()
    }

    /// `true` if the shape holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of dimension `i`.
    ///
    /// # Panics
    /// Panics if `i >= rank()`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims()[i]
    }

    /// Interprets this shape as a 2-D `(rows, cols)` matrix.
    ///
    /// # Panics
    /// Panics if the rank is not 2.
    pub fn as_matrix(&self) -> (usize, usize) {
        assert_eq!(self.rank(), 2, "expected rank-2 shape, got {self}");
        (self.dims[0], self.dims[1])
    }

    /// Interprets this shape as NCHW image batch `(n, c, h, w)`.
    ///
    /// # Panics
    /// Panics if the rank is not 4.
    pub fn as_nchw(&self) -> (usize, usize, usize, usize) {
        assert_eq!(self.rank(), 4, "expected rank-4 (NCHW) shape, got {self}");
        (self.dims[0], self.dims[1], self.dims[2], self.dims[3])
    }

    /// Row-major strides for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Shape").field(&self.dims()).finish()
    }
}

impl Serialize for Shape {
    fn to_json(&self) -> Value {
        self.dims().to_vec().to_json()
    }
}

impl Deserialize for Shape {
    fn from_json(v: &Value) -> Result<Self, Error> {
        let dims = Vec::<usize>::from_json(v)?;
        if dims.len() > Shape::MAX_RANK {
            return Err(Error::msg(format!(
                "shape of rank {} (at most {})",
                dims.len(),
                Shape::MAX_RANK
            )));
        }
        Ok(Shape::new(dims))
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= Shape::MAX_RANK,
            "shape of rank {} (at most {})",
            dims.len(),
            Shape::MAX_RANK
        );
        let mut shape = Shape::scalar();
        shape.dims[..dims.len()].copy_from_slice(dims);
        shape.rank = dims.len() as u8;
        shape
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::from(&dims[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_has_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn len_is_product() {
        assert_eq!(Shape::from([2, 3, 4]).len(), 24);
        assert_eq!(Shape::from([5]).len(), 5);
        assert_eq!(Shape::from([0, 10]).len(), 0);
        assert!(Shape::from([0, 10]).is_empty());
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::from([2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::from([7]).strides(), vec![1]);
        assert!(Shape::scalar().strides().is_empty());
    }

    #[test]
    fn as_matrix_and_nchw() {
        assert_eq!(Shape::from([3, 5]).as_matrix(), (3, 5));
        assert_eq!(Shape::from([2, 3, 8, 8]).as_nchw(), (2, 3, 8, 8));
    }

    #[test]
    #[should_panic(expected = "rank-2")]
    fn as_matrix_wrong_rank_panics() {
        Shape::from([3]).as_matrix();
    }

    #[test]
    #[should_panic(expected = "rank 5")]
    fn rank_five_is_refused() {
        let _ = Shape::from([1, 2, 3, 4, 5]);
    }

    /// The inline form serializes as the list `Shape(Vec<usize>)` did, so
    /// `Parameter` JSON and checkpoints do not move; a list too long for it
    /// is an error, not a panic.
    #[test]
    fn serializes_as_the_plain_list() {
        let s = Shape::from([2, 3, 8, 8]);
        assert_eq!(s.to_json(), vec![2usize, 3, 8, 8].to_json());
        assert_eq!(Shape::from_json(&s.to_json()).unwrap(), s);
        assert_eq!(
            Shape::from_json(&Vec::<usize>::new().to_json()).unwrap(),
            Shape::scalar()
        );
        assert!(Shape::from_json(&vec![1usize; 5].to_json()).is_err());
        assert_eq!(format!("{s:?}"), "Shape([2, 3, 8, 8])");
    }

    #[test]
    fn display_formats_dims() {
        assert_eq!(Shape::from([2, 3]).to_string(), "[2x3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }
}
