use crate::layer::{Layer, Mode};
use crate::layers::product;
use socflow_tensor::{pool, Tensor};

/// Inverted dropout: during training each activation is zeroed with
/// probability `p` and survivors are scaled by `1/(1−p)`; evaluation is the
/// identity.
///
/// The mask is deterministic in `(seed, forward counter)` so distributed
/// replicas are reproducible, like every other stochastic component here.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    seed: u64,
    /// Forward counter seeding the mask. Kept as f32 so it rides
    /// [`Layer::state_buffers`] into checkpoints (exact up to 2^24 calls).
    calls: f32,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0,1)");
        Dropout {
            p,
            seed,
            calls: 0.0,
            mask: None,
        }
    }

    fn hash_unit(&self, i: usize) -> f32 {
        let mut h = self.seed ^ (self.calls as u64).wrapping_mul(0xA24BAED4963EE407);
        h ^= (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51AFD7ED558CCD);
        h ^= h >> 33;
        (h >> 11) as f32 / (1u64 << 53) as f32
    }
}

impl Layer for Dropout {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if !mode.train || self.p == 0.0 {
            return pool::copy_of(input);
        }
        self.calls += 1.0;
        let keep = 1.0 - self.p;
        let mut mask = pool::tensor(input.shape().clone());
        for (i, m) in mask.data_mut().iter_mut().enumerate() {
            *m = if self.hash_unit(i) < self.p {
                0.0
            } else {
                1.0 / keep
            };
        }
        let out = product(input, &mask);
        self.release();
        self.mask = Some(mask);
        out
    }

    fn backward(&mut self, grad_out: &Tensor, _mode: Mode, want_gx: bool) -> Option<Tensor> {
        let mask = self.mask.take().expect("Dropout::backward without forward");
        let gx = want_gx.then(|| product(grad_out, &mask));
        pool::recycle(mask);
        gx
    }

    fn release(&mut self) {
        pool::recycle_all(self.mask.take());
    }

    fn state_buffers(&self) -> Vec<&[f32]> {
        vec![std::slice::from_ref(&self.calls)]
    }

    fn state_buffers_mut(&mut self) -> Vec<&mut [f32]> {
        vec![std::slice::from_mut(&mut self.calls)]
    }

    fn describe(&self) -> String {
        format!("dropout(p={})", self.p)
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
    fn eval_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::ones([4, 8]);
        assert_eq!(d.forward(&x, Mode::eval(Precision::Fp32)), x);
    }

    #[test]
    fn train_zeroes_about_p_and_rescales() {
        let mut d = Dropout::new(0.5, 2);
        let x = Tensor::ones([1, 10_000]);
        let y = d.forward(&x, Mode::train(Precision::Fp32));
        let zeros = y.data().iter().filter(|v| **v == 0.0).count();
        let frac = zeros as f32 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.03, "zero fraction {frac}");
        // survivors are scaled: expectation preserved
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.3, 3);
        let x = Tensor::ones([2, 50]);
        let y = d.forward(&x, Mode::train(Precision::Fp32));
        let g = d
            .backward(&Tensor::ones([2, 50]), Mode::train(Precision::Fp32), true)
            .unwrap();
        for (yv, gv) in y.data().iter().zip(g.data()) {
            assert_eq!(yv, gv, "gradient must pass exactly where activations did");
        }
    }

    #[test]
    fn masks_differ_across_calls() {
        let mut d = Dropout::new(0.5, 4);
        let x = Tensor::ones([1, 100]);
        let a = d.forward(&x, Mode::train(Precision::Fp32));
        let b = d.forward(&x, Mode::train(Precision::Fp32));
        assert_ne!(a, b);
    }
}
