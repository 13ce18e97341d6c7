use crate::layer::{Layer, Mode};
use socflow_tensor::{pool, Shape, Tensor};

/// Flattens `(n, …)` into `(n, prod(…))` for the transition from
/// convolutional features to a classifier head.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_shape: Option<Shape>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { cached_shape: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let dims = input.shape().dims();
        assert!(!dims.is_empty(), "Flatten needs rank >= 1");
        let n = dims[0];
        let rest: usize = dims[1..].iter().product();
        if mode.train {
            self.cached_shape = Some(input.shape().clone());
        }
        pool::copy_of(input).reshape([n, rest])
    }

    fn backward(&mut self, grad_out: &Tensor, _mode: Mode, want_gx: bool) -> Option<Tensor> {
        let shape = self
            .cached_shape
            .as_ref()
            .expect("Flatten::backward without forward");
        want_gx.then(|| pool::copy_of(grad_out).reshape(shape.clone()))
    }

    fn describe(&self) -> String {
        "flatten".to_string()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Precision;

    #[test]
    fn roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::ones([2, 3, 4, 4]);
        let y = f.forward(&x, Mode::train(Precision::Fp32));
        assert_eq!(y.shape().dims(), &[2, 48]);
        let gx = f.backward(&y, Mode::train(Precision::Fp32), true).unwrap();
        assert_eq!(gx.shape().dims(), &[2, 3, 4, 4]);
    }
}
