use crate::layer::{Layer, Mode, Parameter};
use socflow_tensor::Tensor;

/// Batch normalization over NCHW activations (per-channel statistics).
///
/// Training mode normalizes with batch statistics and updates running
/// estimates (momentum 0.1); eval mode uses the running estimates. The
/// backward pass implements the full batch-norm gradient, including the
/// statistic terms.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Parameter,
    beta: Parameter,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    channels: usize,
    eps: f32,
    momentum: f32,
    cached: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    xhat: Tensor,
    inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps
    /// (γ = 1, β = 0, running stats = standard normal).
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Parameter::new(Tensor::ones([channels])),
            beta: Parameter::new(Tensor::zeros([channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            channels,
            eps: 1e-5,
            momentum: 0.1,
            cached: None,
        }
    }

    /// The running per-channel mean (for tests/inspection).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// The running per-channel variance (for tests/inspection).
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let (n, c, h, w) = input.shape().as_nchw();
        assert_eq!(c, self.channels, "BatchNorm2d channel mismatch");
        let per = n * h * w;
        let data = input.data();
        let mut out = vec![0.0f32; data.len()];
        let mut xhat = vec![0.0f32; data.len()];
        let mut inv_stds = vec![0.0f32; c];

        for (ci, inv_std_slot) in inv_stds.iter_mut().enumerate() {
            let (mean, var) = if mode.train {
                let mut sum = 0.0f64;
                let mut sum_sq = 0.0f64;
                for ni in 0..n {
                    let base = (ni * c + ci) * h * w;
                    for &v in &data[base..base + h * w] {
                        sum += v as f64;
                        sum_sq += (v as f64) * (v as f64);
                    }
                }
                let mean = (sum / per as f64) as f32;
                let var = ((sum_sq / per as f64) - (mean as f64) * (mean as f64)).max(0.0) as f32;
                self.running_mean[ci] =
                    (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean;
                self.running_var[ci] =
                    (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var;
                (mean, var)
            } else {
                (self.running_mean[ci], self.running_var[ci])
            };
            let inv_std = 1.0 / (var + self.eps).sqrt();
            *inv_std_slot = inv_std;
            let g = self.gamma.value.data()[ci];
            let b = self.beta.value.data()[ci];
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                for i in base..base + h * w {
                    let xh = (data[i] - mean) * inv_std;
                    xhat[i] = xh;
                    out[i] = g * xh + b;
                }
            }
        }
        if mode.train {
            self.cached = Some(Cache {
                xhat: Tensor::from_vec(xhat, input.shape().clone()),
                inv_std: inv_stds,
            });
        }
        Tensor::from_vec(out, input.shape().clone())
    }

    fn backward(&mut self, grad_out: &Tensor, _mode: Mode) -> Tensor {
        let cache = self
            .cached
            .as_ref()
            .expect("BatchNorm2d::backward without training forward");
        let (n, c, h, w) = grad_out.shape().as_nchw();
        let per = (n * h * w) as f32;
        let gy = grad_out.data();
        let xh = cache.xhat.data();
        let mut gx = vec![0.0f32; gy.len()];

        for ci in 0..c {
            // channel-wise sums
            let mut sum_gy = 0.0f32;
            let mut sum_gy_xh = 0.0f32;
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                for i in base..base + h * w {
                    sum_gy += gy[i];
                    sum_gy_xh += gy[i] * xh[i];
                }
            }
            self.gamma.grad.data_mut()[ci] += sum_gy_xh;
            self.beta.grad.data_mut()[ci] += sum_gy;

            let g = self.gamma.value.data()[ci];
            let inv_std = cache.inv_std[ci];
            let k = g * inv_std / per;
            for ni in 0..n {
                let base = (ni * c + ci) * h * w;
                for i in base..base + h * w {
                    gx[i] = k * (per * gy[i] - sum_gy - xh[i] * sum_gy_xh);
                }
            }
        }
        Tensor::from_vec(gx, grad_out.shape().clone())
    }

    fn visit_parameters<'a>(&'a self, visit: &mut dyn FnMut(&'a Parameter)) {
        visit(&self.gamma);
        visit(&self.beta);
    }

    fn visit_parameters_mut<'a>(&'a mut self, visit: &mut dyn FnMut(&'a mut Parameter)) {
        visit(&mut self.gamma);
        visit(&mut self.beta);
    }

    fn state_buffers(&self) -> Vec<&[f32]> {
        vec![self.running_mean.as_slice(), self.running_var.as_slice()]
    }

    fn state_buffers_mut(&mut self) -> Vec<&mut [f32]> {
        vec![
            self.running_mean.as_mut_slice(),
            self.running_var.as_mut_slice(),
        ]
    }

    fn describe(&self) -> String {
        format!("batchnorm2d({})", self.channels)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Precision;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use socflow_tensor::init;

    #[test]
    fn normalizes_batch_statistics() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = StdRng::seed_from_u64(0);
        let x = init::normal([4, 2, 3, 3], 3.0, &mut rng).map(|v| v + 5.0);
        let y = bn.forward(&x, Mode::train(Precision::Fp32));
        // per-channel output should be ~zero-mean unit-var
        let (n, c, h, w) = y.shape().as_nchw();
        for ci in 0..c {
            let mut vals = Vec::new();
            for ni in 0..n {
                for i in 0..h * w {
                    vals.push(y.data()[(ni * c + ci) * h * w + i]);
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn running_stats_move_towards_batch() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::full([2, 1, 2, 2], 10.0);
        bn.forward(&x, Mode::train(Precision::Fp32));
        assert!(bn.running_mean()[0] > 0.9); // moved 10% towards 10.0
        assert!(bn.running_var()[0] < 1.0); // moved towards 0 variance
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::full([1, 1, 2, 2], 3.0);
        // with default running stats (mean 0, var 1), eval output ≈ input
        let y = bn.forward(&x, Mode::eval(Precision::Fp32));
        assert!((y.data()[0] - 3.0).abs() < 1e-3);
    }

    #[test]
    fn gradcheck() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = StdRng::seed_from_u64(1);
        let x = init::normal([2, 2, 2, 2], 1.0, &mut rng);
        let mode = Mode::train(Precision::Fp32);
        let y = bn.forward(&x, mode);
        let gy = y.scale(2.0);
        let gx = bn.backward(&gy, mode);

        let eps = 1e-3;
        let loss = |bn: &mut BatchNorm2d, x: &Tensor| -> f32 {
            bn.forward(x, Mode::train(Precision::Fp32))
                .data()
                .iter()
                .map(|v| v * v)
                .sum()
        };
        for idx in [0usize, 5, 13] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            // fresh BN copies so running stats don't drift the check
            let num = (loss(&mut bn.clone(), &xp) - loss(&mut bn.clone(), &xm)) / (2.0 * eps);
            assert!(
                (num - gx.data()[idx]).abs() < 5e-2,
                "dx[{idx}]: {num} vs {}",
                gx.data()[idx]
            );
        }
    }
}
