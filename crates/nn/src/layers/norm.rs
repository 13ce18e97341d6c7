use crate::layer::{Layer, Mode, Parameter};
use socflow_tensor::norm::{self, Affine, GradSums, Planes};
use socflow_tensor::{pool, Tensor};

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

/// `acc + s`, keeping `acc`'s NaN when both are NaN — what an add with the
/// accumulator as its first operand gives on x86. Spelt out because codegen
/// may commute a plain `acc + s` (to fold a load), and then `s`'s NaN would
/// win; the running statistics and the parameter gradients add this way.
#[inline]
fn accumulated(acc: f32, s: f32) -> f32 {
    if acc.is_nan() {
        acc + acc
    } else {
        acc + s
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let p = Planes::of(input.shape());
        assert_eq!(p.c, self.channels, "BatchNorm2d channel mismatch");
        let mut out = pool::tensor(input.shape().clone());
        // the variance, then 1/√(var + ε) in place
        let mut inv_std = pool::take::<f32>(p.c);
        let batch_mean = if mode.train {
            let mut mean = pool::take::<f32>(p.c);
            norm::moments(input.data(), p, &mut mean, &mut inv_std);
            let m = self.momentum;
            let running = self.running_mean.iter_mut().zip(&mut self.running_var);
            for ((rm, rv), (&mean, &var)) in running.zip(mean.iter().zip(&inv_std)) {
                *rm = accumulated((1.0 - m) * *rm, m * mean);
                *rv = accumulated((1.0 - m) * *rv, m * var);
            }
            Some(mean)
        } else {
            inv_std.copy_from_slice(&self.running_var);
            None
        };
        for v in &mut inv_std {
            *v = 1.0 / (*v + self.eps).sqrt();
        }
        let affine = Affine {
            mean: batch_mean.as_deref().unwrap_or(&self.running_mean),
            inv_std: &inv_std,
            gamma: self.gamma.value.data(),
            beta: self.beta.value.data(),
        };
        // eval mode normalizes and keeps nothing
        let mut xhat = mode.train.then(|| pool::tensor(input.shape().clone()));
        let keep = xhat.as_mut().map(|t| t.data_mut());
        norm::normalize(input.data(), p, affine, keep, out.data_mut());
        if let Some(mean) = batch_mean {
            pool::give(mean);
        }
        match xhat {
            Some(xhat) => {
                self.release();
                self.cached = Some(Cache { xhat, inv_std });
            }
            None => pool::give(inv_std),
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor, _mode: Mode, want_gx: bool) -> Option<Tensor> {
        let cache = self
            .cached
            .take()
            .expect("BatchNorm2d::backward without training forward");
        let p = Planes::of(grad_out.shape());
        let (gy, xh) = (grad_out.data(), cache.xhat.data());
        let mut sums = pool::take::<f32>(2 * p.c);
        let (sum_gy, sum_gy_xh) = sums.split_at_mut(p.c);
        norm::grad_sums(gy, xh, p, sum_gy, sum_gy_xh);
        // the gradients this step accumulates into: zeroed scratch if none
        // has arrived yet, so each add below is the one it always was
        for (param, sums) in [(&mut self.gamma, &*sum_gy_xh), (&mut self.beta, &*sum_gy)] {
            let grad = param.grad.get_or_insert_with(|| pool::zeroed([p.c]));
            for (g, &s) in grad.data_mut().iter_mut().zip(sums) {
                *g = accumulated(*g, s);
            }
        }
        let gx = want_gx.then(|| {
            let mut gx = pool::tensor(grad_out.shape().clone());
            let s = GradSums {
                gamma: self.gamma.value.data(),
                inv_std: &cache.inv_std,
                sum_gy,
                sum_gy_xh,
            };
            norm::input_grad(gy, xh, p, s, gx.data_mut());
            gx
        });
        pool::give(sums);
        pool::recycle(cache.xhat);
        pool::give(cache.inv_std);
        gx
    }

    fn release(&mut self) {
        if let Some(cache) = self.cached.take() {
            pool::recycle(cache.xhat);
            pool::give(cache.inv_std);
        }
    }

    fn visit_parameters<'a>(&'a self, visit: &mut dyn FnMut(&'a Parameter)) {
        visit(&self.gamma);
        visit(&self.beta);
    }

    fn visit_parameters_mut<'a>(&'a mut self, visit: &mut dyn FnMut(&'a mut Parameter)) {
        visit(&mut self.gamma);
        visit(&mut self.beta);
    }

    fn visit_state(&self, visit: &mut dyn FnMut(&[f32])) {
        visit(&self.running_mean);
        visit(&self.running_var);
    }

    fn visit_state_mut(&mut self, visit: &mut dyn FnMut(&mut [f32])) {
        visit(&mut self.running_mean);
        visit(&mut self.running_var);
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
        let gx = bn.backward(&gy, mode, true).unwrap();

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
    /// The passes as they stood before the step scratch — three zero-filled
    /// vectors a forward, `xhat` built in eval mode too, every element
    /// indexed — kept as the oracle: returns `(out, xhat, inv_std)` and
    /// `gx`, updating the layer's statistics and gradients as it did.
    mod old {
        use super::super::*;

        pub fn forward(
            bn: &mut BatchNorm2d,
            input: &Tensor,
            mode: Mode,
        ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
            let (n, c, h, w) = input.shape().as_nchw();
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
                    let var =
                        ((sum_sq / per as f64) - (mean as f64) * (mean as f64)).max(0.0) as f32;
                    bn.running_mean[ci] =
                        (1.0 - bn.momentum) * bn.running_mean[ci] + bn.momentum * mean;
                    bn.running_var[ci] =
                        (1.0 - bn.momentum) * bn.running_var[ci] + bn.momentum * var;
                    (mean, var)
                } else {
                    (bn.running_mean[ci], bn.running_var[ci])
                };
                let inv_std = 1.0 / (var + bn.eps).sqrt();
                *inv_std_slot = inv_std;
                let g = bn.gamma.value.data()[ci];
                let b = bn.beta.value.data()[ci];
                for ni in 0..n {
                    let base = (ni * c + ci) * h * w;
                    for i in base..base + h * w {
                        let xh = (data[i] - mean) * inv_std;
                        xhat[i] = xh;
                        out[i] = g * xh + b;
                    }
                }
            }
            (out, xhat, inv_stds)
        }

        #[allow(clippy::needless_range_loop)] // the loop as it stood
        pub fn backward(
            bn: &mut BatchNorm2d,
            grad_out: &Tensor,
            xh: &[f32],
            inv_stds: &[f32],
        ) -> Vec<f32> {
            let (n, c, h, w) = grad_out.shape().as_nchw();
            let per = (n * h * w) as f32;
            let gy = grad_out.data();
            let mut gx = vec![0.0f32; gy.len()];
            for ci in 0..c {
                let mut sum_gy = 0.0f32;
                let mut sum_gy_xh = 0.0f32;
                for ni in 0..n {
                    let base = (ni * c + ci) * h * w;
                    for i in base..base + h * w {
                        sum_gy += gy[i];
                        sum_gy_xh += gy[i] * xh[i];
                    }
                }
                // the gradients as they stood: resident, zeroed, added to
                for (p, sum) in [(&mut bn.gamma, sum_gy_xh), (&mut bn.beta, sum_gy)] {
                    let shape = p.value.shape().clone();
                    p.grad
                        .get_or_insert_with(|| Tensor::zeros(shape))
                        .data_mut()[ci] += sum;
                }
                let g = bn.gamma.value.data()[ci];
                let k = g * inv_stds[ci] / per;
                for ni in 0..n {
                    let base = (ni * c + ci) * h * w;
                    for i in base..base + h * w {
                        gx[i] = k * (per * gy[i] - sum_gy - xh[i] * sum_gy_xh);
                    }
                }
            }
            gx
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Values in `[-2, 2)` with `±0.0`, `±∞`, NaNs of two payloads and a
    /// subnormal sprinkled in.
    fn sprinkled(shape: [usize; 4], rng: &mut StdRng) -> Tensor {
        use rand::Rng;
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7fc5_e471),
            f32::MIN_POSITIVE / 4.0,
        ];
        let data = (0..shape.iter().product::<usize>())
            .map(|_| match rng.gen_range(0..12u32) {
                0 => specials[rng.gen_range(0..specials.len())],
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect();
        Tensor::from_vec(data, shape)
    }

    /// Forward (train and eval) and backward (with and without the input
    /// gradient) against the old bodies, bit for bit — outputs, the cache,
    /// running statistics and parameter gradients — over clean inputs and
    /// over ones holding `±0`, `±∞` and NaN payloads, on the step scratch
    /// with its parked buffers poisoned. Beside four small shapes, the
    /// workloads' geometries: channel counts around and between the
    /// sweeps' channel blocks, maps of 1 to 64 positions (both sides of the
    /// flat-run threshold) and 1 to 64 samples.
    #[test]
    fn passes_match_the_old_bodies_bitwise() {
        let mut rng = StdRng::seed_from_u64(21);
        let train = Mode::train(Precision::Fp32);
        let small = [[3, 4, 2, 2], [1, 3, 1, 1], [5, 2, 3, 1], [2, 1, 4, 4]];
        let workloads = [1, 5, 64].into_iter().flat_map(|n| {
            [12, 23, 46, 92, 113]
                .into_iter()
                .flat_map(move |c| [1, 2, 4, 8].into_iter().map(move |side| [n, c, side, side]))
        });
        for (case, shape) in small.into_iter().chain(workloads).enumerate() {
            for special in [false, true] {
                let what = format!("case {case}, special values {special}");
                let (mut new, mut old) = (BatchNorm2d::new(shape[1]), BatchNorm2d::new(shape[1]));
                for bn in [&mut new, &mut old] {
                    bn.gamma.value = init::normal([shape[1]], 1.0, &mut StdRng::seed_from_u64(5));
                    bn.beta.value = init::normal([shape[1]], 1.0, &mut StdRng::seed_from_u64(6));
                }
                for step in 0..3 {
                    let draw = |rng: &mut StdRng| match special {
                        true => sprinkled(shape, rng),
                        false => init::normal(shape, 1.5, rng),
                    };
                    let (x, gy) = (draw(&mut rng), draw(&mut rng));
                    let y = new.forward(&x, train);
                    let (oy, oxh, oinv) = old::forward(&mut old, &x, train);
                    assert_eq!(bits(y.data()), bits(&oy), "{what}, step {step}: y");
                    let cache = new.cached.as_ref().unwrap();
                    assert_eq!(bits(cache.xhat.data()), bits(&oxh), "{what}: xhat");
                    assert_eq!(bits(&cache.inv_std), bits(&oinv), "{what}: inv_std");
                    // an eval forward in between keeps nothing and clobbers nothing
                    let ye = new.forward(&gy, Mode::eval(Precision::Fp32));
                    let (oye, _, _) = old::forward(&mut old, &gy, Mode::eval(Precision::Fp32));
                    assert_eq!(bits(ye.data()), bits(&oye), "{what}, step {step}: eval y");
                    let want = step != 1;
                    let gx = new.backward(&gy, train, want);
                    let ogx = old::backward(&mut old, &gy, &oxh, &oinv);
                    assert_eq!(gx.is_some(), want);
                    if let Some(gx) = &gx {
                        assert_eq!(bits(gx.data()), bits(&ogx), "{what}, step {step}: gx");
                    }
                    assert!(
                        new.cached.is_none(),
                        "the cache goes back with the backward"
                    );
                    for (a, b) in new.parameters().iter().zip(old.parameters()) {
                        let (a, b) = (a.grad.as_ref().unwrap(), b.grad.as_ref().unwrap());
                        assert_eq!(bits(a.data()), bits(b.data()), "{what}: grads");
                    }
                    assert_eq!(bits(&new.running_mean), bits(&old.running_mean), "{what}");
                    assert_eq!(bits(&new.running_var), bits(&old.running_var), "{what}");
                    for t in [Some(y), Some(ye), gx].into_iter().flatten() {
                        pool::recycle(t);
                    }
                }
            }
        }
    }
}
