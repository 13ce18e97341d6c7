use crate::isa::{isa_kernel, Isa};
use crate::{Shape, TensorError};
use serde::{Deserialize, Serialize};

isa_kernel! {
    /// Largest non-NaN `|x|` of the slice, `0.0` if there is none.
    fn abs_max_slice(d: &[f32]) -> f32 = abs_max_body;
}

/// Independent running maxima so the sweep vectorizes — four AVX2 vectors
/// of them, which is what hides the latency of `max` and its NaN select;
/// `max` over non-negative, non-NaN values is exact, so regrouping cannot
/// change it.
#[inline(always)]
fn abs_max_body(d: &[f32]) -> f32 {
    const LANES: usize = 32;
    let mut acc = [0.0f32; LANES];
    let mut chunks = d.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (m, &a) in acc.iter_mut().zip(chunk) {
            *m = m.max(a.abs());
        }
    }
    let tail = chunks
        .remainder()
        .iter()
        .fold(0.0f32, |m, &a| m.max(a.abs()));
    acc.iter().fold(tail, |m, &a| m.max(a))
}

/// A dense, row-major `f32` tensor.
///
/// `Tensor` owns its storage as a contiguous `Vec<f32>`. All arithmetic is
/// eager and allocates the output unless an `_inplace`/`_into` variant is
/// used. Shapes must match exactly for binary elementwise operations — there
/// is no general broadcasting; the few broadcast patterns CNN training needs
/// (per-row bias, per-channel scale) have dedicated methods.
///
/// ```
/// use socflow_tensor::{Tensor, Shape};
/// let t = Tensor::zeros(Shape::from([2, 2]));
/// assert_eq!(t.len(), 4);
/// assert_eq!(t.sum(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor { data, shape }
    }

    /// Fallible version of [`Tensor::from_vec`].
    ///
    /// # Errors
    /// Returns [`TensorError::LengthMismatch`] if the data length does not
    /// equal the number of elements implied by the shape.
    pub fn try_from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Result<Self, TensorError> {
        let shape = shape.into();
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.len(),
                actual: data.len(),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// A tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![0.0; shape.len()],
            shape,
        }
    }

    /// A tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![value; shape.len()],
            shape,
        }
    }

    /// A rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            data: vec![value],
            shape: Shape::scalar(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying storage (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying storage (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a tensor with the same data but a new shape.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            self.data.len(),
            shape.len(),
            "cannot reshape {} elements into {shape}",
            self.data.len()
        );
        self.shape = shape;
        self
    }

    /// Reshapes `self` to `shape`, growing or shrinking the storage in place.
    ///
    /// Unlike [`Tensor::reshape`], the element counts need not match: this is
    /// the primitive behind every `_into` kernel variant and [`crate::pool`],
    /// letting a scratch tensor be retargeted without reallocating (beyond
    /// what `Vec` growth requires). Element values after a resize are
    /// unspecified — callers are expected to overwrite the tensor.
    pub fn resize(&mut self, shape: impl Into<Shape>) {
        let shape = shape.into();
        self.data.resize(shape.len(), 0.0);
        self.shape = shape;
    }

    /// Overwrites `self` with a copy of `other`, reusing `self`'s storage.
    ///
    /// Equivalent to `*self = other.clone()` without the fresh allocation.
    pub fn copy_from(&mut self, other: &Tensor) {
        self.data.clear();
        self.data.extend_from_slice(&other.data);
        self.shape = other.shape.clone();
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.flat_index(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let i = self.flat_index(index);
        self.data[i] = value;
    }

    fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.rank(), "index rank mismatch");
        let strides = self.shape.strides();
        let mut flat = 0;
        for (i, (&ix, &stride)) in index.iter().zip(strides.iter()).enumerate() {
            assert!(
                ix < self.shape.dim(i),
                "index {ix} out of bounds in dim {i}"
            );
            flat += ix * stride;
        }
        flat
    }

    // ----- elementwise -----

    fn zip_check(&self, other: &Tensor, op: &'static str) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch in `{op}`: {} vs {}",
            self.shape, other.shape
        );
    }

    /// Elementwise sum. Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_check(other, "add");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Tensor::from_vec(data, self.shape.clone())
    }

    /// In-place elementwise sum. Panics on shape mismatch.
    pub fn add_inplace(&mut self, other: &Tensor) {
        self.zip_check(other, "add_inplace");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += scale * other` (axpy). Panics on shape mismatch.
    pub fn add_scaled_inplace(&mut self, other: &Tensor, scale: f32) {
        self.zip_check(other, "add_scaled_inplace");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Elementwise difference. Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_check(other, "sub");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Tensor::from_vec(data, self.shape.clone())
    }

    /// In-place elementwise difference. Panics on shape mismatch.
    pub fn sub_inplace(&mut self, other: &Tensor) {
        self.zip_check(other, "sub_inplace");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
    }

    /// Elementwise (Hadamard) product. Panics on shape mismatch.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_check(other, "mul");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Tensor::from_vec(data, self.shape.clone())
    }

    /// In-place elementwise (Hadamard) product. Panics on shape mismatch.
    pub fn mul_inplace(&mut self, other: &Tensor) {
        self.zip_check(other, "mul_inplace");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        let data = self.data.iter().map(|a| a * s).collect();
        Tensor::from_vec(data, self.shape.clone())
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Tensor::from_vec(data, self.shape.clone())
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Overwrites every element with zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|a| *a = 0.0);
    }

    // ----- reductions -----

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; 0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum absolute value; 0 for an empty tensor. NaN elements are
    /// skipped (`f32::max` returns its non-NaN operand), so the result is
    /// the largest non-NaN magnitude — the same under any lane order.
    pub fn abs_max(&self) -> f32 {
        abs_max_slice(Isa::active(), &self.data)
    }

    /// Euclidean (L2) norm.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
    }

    /// Dot product of the flattened tensors. Panics on shape mismatch.
    pub fn dot(&self, other: &Tensor) -> f32 {
        self.zip_check(other, "dot");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Cosine similarity of the flattened tensors; 0 if either is all-zero.
    ///
    /// This is the α-metric primitive of SoCFlow's mixed-precision
    /// controller (paper Eq. 4).
    pub fn cosine_similarity(&self, other: &Tensor) -> f32 {
        let denom = self.l2_norm() * other.l2_norm();
        if denom == 0.0 {
            0.0
        } else {
            self.dot(other) / denom
        }
    }

    // ----- matrix/row helpers (used by NN layers) -----

    /// Adds a bias vector to every row of a `(rows, cols)` matrix.
    ///
    /// # Panics
    /// Panics if `self` is not rank-2 or `bias.len() != cols`.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        let (rows, cols) = self.shape.as_matrix();
        assert_eq!(bias.len(), cols, "bias length must equal column count");
        let mut out = self.clone();
        for r in 0..rows {
            for c in 0..cols {
                out.data[r * cols + c] += bias.data[c];
            }
        }
        out
    }

    /// Adds a bias vector to every row of a `(rows, cols)` matrix in place.
    ///
    /// # Panics
    /// Panics if `self` is not rank-2 or `bias.len() != cols`.
    pub fn add_row_broadcast_inplace(&mut self, bias: &Tensor) {
        let (rows, cols) = self.shape.as_matrix();
        assert_eq!(bias.len(), cols, "bias length must equal column count");
        for r in 0..rows {
            let row = &mut self.data[r * cols..(r + 1) * cols];
            for (o, b) in row.iter_mut().zip(&bias.data) {
                *o += b;
            }
        }
    }

    /// Sums a `(rows, cols)` matrix down to a length-`cols` vector.
    ///
    /// # Panics
    /// Panics if `self` is not rank-2.
    pub fn sum_rows(&self) -> Tensor {
        let mut out = Tensor::default();
        self.sum_rows_into(&mut out);
        out
    }

    /// [`Tensor::sum_rows`] writing into `out`, reusing its storage.
    ///
    /// # Panics
    /// Panics if `self` is not rank-2.
    pub fn sum_rows_into(&self, out: &mut Tensor) {
        let (rows, cols) = self.shape.as_matrix();
        out.resize([cols]);
        let od = out.data_mut();
        od.fill(0.0);
        for r in 0..rows {
            for (c, o) in od.iter_mut().enumerate() {
                *o += self.data[r * cols + c];
            }
        }
    }

    /// Concatenates tensors along axis 0 (all other dimensions must match).
    ///
    /// # Panics
    /// Panics if `parts` is empty or trailing dimensions disagree.
    pub fn concat0(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat of nothing");
        let first = parts[0].shape().dims();
        assert!(!first.is_empty(), "concat needs rank >= 1");
        let tail = &first[1..];
        let mut dim0 = 0;
        for p in parts {
            let d = p.shape().dims();
            assert_eq!(&d[1..], tail, "trailing dims must match");
            dim0 += d[0];
        }
        let mut data = Vec::with_capacity(dim0 * tail.iter().product::<usize>());
        for p in parts {
            data.extend_from_slice(p.data());
        }
        let mut dims = vec![dim0];
        dims.extend_from_slice(tail);
        Tensor::from_vec(data, Shape::new(dims))
    }

    /// A copy of rows `[from, to)` along axis 0.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or reversed.
    pub fn slice0(&self, from: usize, to: usize) -> Tensor {
        let dims = self.shape.dims();
        assert!(!dims.is_empty(), "slice needs rank >= 1");
        assert!(from <= to && to <= dims[0], "invalid slice {from}..{to}");
        let per: usize = dims[1..].iter().product();
        let mut out_dims = dims.to_vec();
        out_dims[0] = to - from;
        Tensor::from_vec(
            self.data[from * per..to * per].to_vec(),
            Shape::new(out_dims),
        )
    }

    /// Index of the maximum element in each row of a `(rows, cols)` matrix.
    ///
    /// # Panics
    /// Panics if `self` is not rank-2 or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        let (rows, cols) = self.shape.as_matrix();
        assert!(cols > 0, "argmax over zero columns");
        (0..rows)
            .map(|r| {
                let row = &self.data[r * cols..(r + 1) * cols];
                let mut best = 0;
                for (i, &v) in row.iter().enumerate().skip(1) {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Tensor{} {:?}",
            self.shape,
            &self.data[..self.data.len().min(8)]
        )?;
        if self.data.len() > 8 {
            write!(f, "…")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.at(&[0, 2]), 3.0);
        assert_eq!(t.at(&[1, 0]), 4.0);
        let mut t = t;
        t.set(&[1, 2], 9.0);
        assert_eq!(t.at(&[1, 2]), 9.0);
    }

    #[test]
    fn try_from_vec_rejects_bad_length() {
        let err = Tensor::try_from_vec(vec![1.0; 5], [2, 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 6,
                actual: 5
            }
        );
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_panics_on_bad_length() {
        Tensor::from_vec(vec![1.0; 5], [2, 3]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], [2]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
        let mut c = a.clone();
        c.add_scaled_inplace(&b, 0.5);
        assert_eq!(c.data(), &[2.5, 4.5]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let a = Tensor::zeros([2]);
        let b = Tensor::zeros([3]);
        let _ = a.add(&b);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![3.0, -4.0], [2]);
        assert_eq!(t.sum(), -1.0);
        assert_eq!(t.mean(), -0.5);
        assert_eq!(t.abs_max(), 4.0);
        assert!((t.l2_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_similarity_basic() {
        let a = Tensor::from_vec(vec![1.0, 0.0], [2]);
        let b = Tensor::from_vec(vec![0.0, 1.0], [2]);
        assert_eq!(a.cosine_similarity(&b), 0.0);
        assert!((a.cosine_similarity(&a) - 1.0).abs() < 1e-6);
        let neg = a.scale(-3.0);
        assert!((a.cosine_similarity(&neg) + 1.0).abs() < 1e-6);
        // zero vector -> defined as 0
        assert_eq!(a.cosine_similarity(&Tensor::zeros([2])), 0.0);
    }

    #[test]
    fn row_broadcast_and_sum_rows() {
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let bias = Tensor::from_vec(vec![10.0, 20.0], [2]);
        assert_eq!(m.add_row_broadcast(&bias).data(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(m.sum_rows().data(), &[4.0, 6.0]);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let m = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.5], [2, 2]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn concat0_and_slice0_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0], [1, 2]);
        let c = Tensor::concat0(&[&a, &b]);
        assert_eq!(c.shape().dims(), &[3, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(c.slice0(0, 2), a);
        assert_eq!(c.slice0(2, 3), b);
        // empty slice is legal
        assert_eq!(c.slice0(1, 1).shape().dims(), &[0, 2]);
    }

    #[test]
    #[should_panic(expected = "trailing dims")]
    fn concat0_checks_trailing_dims() {
        let a = Tensor::zeros([2, 2]);
        let b = Tensor::zeros([2, 3]);
        let _ = Tensor::concat0(&[&a, &b]);
    }

    #[test]
    #[should_panic(expected = "invalid slice")]
    fn slice0_checks_bounds() {
        Tensor::zeros([2, 2]).slice0(1, 3);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4]).reshape([2, 2]);
        assert_eq!(t.shape().dims(), &[2, 2]);
        assert_eq!(t.at(&[1, 1]), 4.0);
    }

    /// `abs_max` is the largest non-NaN magnitude on both instantiations:
    /// NaNs are skipped wherever they sit, an all-NaN or empty tensor gives
    /// 0, and lengths around the 32-lane block agree with the plain fold.
    #[test]
    fn abs_max_agrees_across_instantiations_and_skips_nan() {
        let fold = |d: &[f32]| d.iter().fold(0.0f32, |m, &a| m.max(a.abs()));
        let isas = [Some(Isa::PORTABLE), crate::isa::avx2_or_skip("abs_max")];
        for isa in isas.into_iter().flatten() {
            for len in [0usize, 1, 15, 31, 32, 33, 65, 1003] {
                let mut d: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
                assert_eq!(
                    abs_max_slice(isa, &d).to_bits(),
                    fold(&d).to_bits(),
                    "{len}"
                );
                for at in [0, len / 2, len.saturating_sub(1)] {
                    if let Some(v) = d.get_mut(at) {
                        *v = f32::NAN;
                    }
                }
                assert_eq!(
                    abs_max_slice(isa, &d).to_bits(),
                    fold(&d).to_bits(),
                    "{len}"
                );
                assert!(!abs_max_slice(isa, &d).is_nan());
            }
            assert_eq!(abs_max_slice(isa, &[f32::NAN; 40]), 0.0);
            assert_eq!(abs_max_slice(isa, &[-0.0; 40]).to_bits(), 0.0f32.to_bits());
            assert_eq!(
                abs_max_slice(isa, &[1.0, f32::NEG_INFINITY, f32::NAN]),
                f32::INFINITY
            );
        }
    }
}
