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

    /// The passes as plain loops: `(y, mask)` and `gx`.
    mod reference {
        pub fn forward(x: &[f32]) -> (Vec<f32>, Vec<f32>) {
            let y = x.iter().map(|v| v.max(0.0)).collect();
            let mask = x.iter().map(|&v| if v > 0.0 { 1.0 } else { 0.0 });
            (y, mask.collect())
        }

        pub fn backward(gy: &[f32], mask: &[f32]) -> Vec<f32> {
            gy.iter().zip(mask).map(|(g, m)| g * m).collect()
        }
    }

    /// Above the per-element pool threshold the passes run in chunks on the
    /// worker pool: bit for bit the plain loops — `±0`, `±∞` and NaN
    /// payloads in the input and in the gradient included — at pool sizes
    /// 1, 2 and 4, with a last chunk that is short.
    #[test]
    fn chunked_passes_match_the_reference_bitwise() {
        let len = crate::layers::staging::PAR_MIN_ELEMS + 4099;
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7fc5_e471),
            f32::from_bits(0xffc0_0001),
            f32::MIN_POSITIVE / 4.0,
        ];
        let values = |salt: usize| -> Tensor {
            let data = (0..len).map(|i| match (i * 7 + salt) % 11 {
                0 => specials[(i / 11 + salt) % specials.len()],
                _ => ((i * 31 + salt * 17) % 97) as f32 * 0.25 - 12.0,
            });
            Tensor::from_vec(data.collect(), [len])
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let (x, gy) = (values(1), values(5));
        let (want_y, want_mask) = reference::forward(x.data());
        let want_gx = reference::backward(gy.data(), &want_mask);
        let train = Mode::train(Precision::Fp32);
        for threads in [1, 2, 4] {
            socflow_tensor::runtime::set_threads(threads);
            let mut r = Relu::new();
            let y = r.forward(&x, train);
            assert_eq!(bits(y.data()), bits(&want_y), "y at {threads} threads");
            let mask = r.mask.as_ref().unwrap();
            assert_eq!(bits(mask.data()), bits(&want_mask), "mask at {threads}");
            let gx = r.backward(&gy, train, true).unwrap();
            assert_eq!(bits(gx.data()), bits(&want_gx), "gx at {threads} threads");
            pool::recycle(y);
            pool::recycle(gx);
        }
    }
}
