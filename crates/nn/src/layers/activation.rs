use crate::layer::{Layer, Mode};
use crate::layers::{mapped, product};
use socflow_tensor::{pool, Tensor};

/// Rectified linear unit, `y = max(0, x)`.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if mode.train {
            self.release();
            self.mask = Some(mapped(input, |v| if v > 0.0 { 1.0 } else { 0.0 }));
        }
        mapped(input, |v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor, _mode: Mode, want_gx: bool) -> Option<Tensor> {
        let mask = self.mask.take().expect("Relu::backward without forward");
        let gx = want_gx.then(|| product(grad_out, &mask));
        pool::recycle(mask);
        gx
    }

    fn release(&mut self) {
        pool::recycle_all(self.mask.take());
    }

    fn describe(&self) -> String {
        "relu".to_string()
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
    fn forward_clamps_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], [3]);
        let y = r.forward(&x, Mode::eval(Precision::Fp32));
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0], [2]);
        r.forward(&x, Mode::train(Precision::Fp32));
        let g = Tensor::from_vec(vec![5.0, 7.0], [2]);
        let gx = r.backward(&g, Mode::train(Precision::Fp32), true).unwrap();
        assert_eq!(gx.data(), &[0.0, 7.0]);
    }
}
