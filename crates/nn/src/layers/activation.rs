use crate::layer::{Layer, Mode};
use socflow_tensor::Tensor;

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
            self.mask = Some(input.map(|v| if v > 0.0 { 1.0 } else { 0.0 }));
        }
        input.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor, _mode: Mode) -> Tensor {
        let mask = self.mask.as_ref().expect("Relu::backward without forward");
        grad_out.mul(mask)
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
        let gx = r.backward(
            &Tensor::from_vec(vec![5.0, 7.0], [2]),
            Mode::train(Precision::Fp32),
        );
        assert_eq!(gx.data(), &[0.0, 7.0]);
    }
}
