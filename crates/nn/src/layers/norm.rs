use crate::layer::{Layer, Mode, Parameter};
use crate::layers::for_chunks;
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

/// The `hw`-float planes of channel `ci`, sample by sample, in a
/// `(n, c, h, w)` buffer.
fn planes(data: &[f32], c: usize, hw: usize, ci: usize) -> impl Iterator<Item = &[f32]> {
    data.chunks_exact(hw.max(1)).skip(ci).step_by(c)
}

/// A running estimate after one step of `momentum` towards the batch's.
///
/// Out of line on purpose. When the estimate and the batch statistic are
/// both NaN, the payload the sum keeps is the one in the first operand of
/// one `addss`, and which term the compiler puts there depends on the loop
/// this is inlined into — nothing a finite run can see, but
/// `passes_match_the_old_bodies_bitwise` compares those payloads. Compiled
/// once, the running term comes first at every call.
#[inline(never)]
fn step_towards(running: f32, batch: f32, momentum: f32) -> f32 {
    (1.0 - momentum) * running + momentum * batch
}

/// [`planes`], mutably.
fn planes_mut(
    data: &mut [f32],
    c: usize,
    hw: usize,
    ci: usize,
) -> impl Iterator<Item = &mut [f32]> {
    data.chunks_exact_mut(hw.max(1)).skip(ci).step_by(c)
}

// Both passes run in two steps, each cut into shape-fixed chunks that go to
// the worker pool when the activation is large enough (`for_chunks`): the
// per-channel sums, one channel after another with every sum in the order
// it always had (samples ascending, a plane front to back), then the
// per-element arithmetic over runs of whole samples, channel by channel
// inside a run.
impl Layer for BatchNorm2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let (n, c, h, w) = input.shape().as_nchw();
        assert_eq!(c, self.channels, "BatchNorm2d channel mismatch");
        let (hw, per) = (h * w, n * h * w);
        let x = input.data();
        let mut out = pool::tensor(input.shape().clone());
        let (mut mean, mut inv_std) = (pool::take::<f32>(c), pool::take::<f32>(c));

        if mode.train {
            // the batch's mean and variance, and the running estimates' step
            // towards them
            let momentum = self.momentum;
            let (running_mean, running_var) = (&mut self.running_mean, &mut self.running_var);
            for_chunks(
                [&mut mean, &mut inv_std, running_mean, running_var],
                1,
                per,
                &|c0, [mean, var, running_mean, running_var]| {
                    for i in 0..mean.len() {
                        let mut sum = 0.0f64;
                        let mut sum_sq = 0.0f64;
                        for plane in planes(x, c, hw, c0 + i) {
                            for &v in plane {
                                sum += v as f64;
                                sum_sq += (v as f64) * (v as f64);
                            }
                        }
                        mean[i] = (sum / per as f64) as f32;
                        let m = mean[i] as f64;
                        var[i] = ((sum_sq / per as f64) - m * m).max(0.0) as f32;
                        running_mean[i] = step_towards(running_mean[i], mean[i], momentum);
                        running_var[i] = step_towards(running_var[i], var[i], momentum);
                    }
                },
            );
        } else {
            mean.copy_from_slice(&self.running_mean);
            inv_std.copy_from_slice(&self.running_var);
        }
        for var in &mut inv_std {
            *var = 1.0 / (*var + self.eps).sqrt();
        }

        let (gamma, beta) = (self.gamma.value.data(), self.beta.value.data());
        let sample = c * hw;
        // eval mode normalizes and keeps nothing
        let xhat = if mode.train {
            let mut xhat = pool::tensor(input.shape().clone());
            let outs = [out.data_mut(), xhat.data_mut()];
            for_chunks(outs, sample, sample, &|s0, [out, xhat]| {
                let x = &x[s0 * sample..][..out.len()];
                for ci in 0..c {
                    let (mean, inv_std, g, b) = (mean[ci], inv_std[ci], gamma[ci], beta[ci]);
                    let rows = planes_mut(out, c, hw, ci).zip(planes(x, c, hw, ci));
                    for ((out, x), xhat) in rows.zip(planes_mut(xhat, c, hw, ci)) {
                        for ((o, &x), xh) in out.iter_mut().zip(x).zip(xhat) {
                            *xh = (x - mean) * inv_std;
                            *o = g * *xh + b;
                        }
                    }
                }
            });
            Some(xhat)
        } else {
            for_chunks([out.data_mut()], sample, sample, &|s0, [out]| {
                let x = &x[s0 * sample..][..out.len()];
                for ci in 0..c {
                    let (mean, inv_std, g, b) = (mean[ci], inv_std[ci], gamma[ci], beta[ci]);
                    for (out, x) in planes_mut(out, c, hw, ci).zip(planes(x, c, hw, ci)) {
                        for (o, &x) in out.iter_mut().zip(x) {
                            let xh = (x - mean) * inv_std;
                            *o = g * xh + b;
                        }
                    }
                }
            });
            None
        };
        pool::give(mean);
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
        let (n, c, h, w) = grad_out.shape().as_nchw();
        let hw = h * w;
        let per = n * hw;
        let gy = grad_out.data();
        let xh = cache.xhat.data();

        // channel-wise sums, added to the parameter gradients as they finish
        let (mut sum_gy, mut sum_gy_xh) = (pool::take::<f32>(c), pool::take::<f32>(c));
        let (g_gamma, g_beta) = (self.gamma.grad.data_mut(), self.beta.grad.data_mut());
        for_chunks(
            [g_gamma, g_beta, &mut sum_gy, &mut sum_gy_xh],
            1,
            per,
            &|c0, [g_gamma, g_beta, sum_gy, sum_gy_xh]| {
                let grads = g_gamma.iter_mut().zip(g_beta);
                let sums = sum_gy.iter_mut().zip(sum_gy_xh);
                for (ci, (grads, sums)) in (c0..).zip(grads.zip(sums)) {
                    let (mut sum_gy, mut sum_gy_xh) = (0.0f32, 0.0f32);
                    for (gy, xh) in planes(gy, c, hw, ci).zip(planes(xh, c, hw, ci)) {
                        for (&gy, &xh) in gy.iter().zip(xh) {
                            sum_gy += gy;
                            sum_gy_xh += gy * xh;
                        }
                    }
                    *grads.0 += sum_gy_xh;
                    *grads.1 += sum_gy;
                    (*sums.0, *sums.1) = (sum_gy, sum_gy_xh);
                }
            },
        );

        let gx = want_gx.then(|| {
            let mut gx = pool::tensor(grad_out.shape().clone());
            let (gamma, per, sample) = (self.gamma.value.data(), per as f32, c * hw);
            for_chunks([gx.data_mut()], sample, sample, &|s0, [gx]| {
                let (gy, xh) = (&gy[s0 * sample..][..gx.len()], &xh[s0 * sample..]);
                for ci in 0..c {
                    let (sum_gy, sum_gy_xh) = (sum_gy[ci], sum_gy_xh[ci]);
                    let k = gamma[ci] * cache.inv_std[ci] / per;
                    let operands = planes(gy, c, hw, ci).zip(planes(xh, c, hw, ci));
                    for (gx, (gy, xh)) in planes_mut(gx, c, hw, ci).zip(operands) {
                        for ((o, &gy), &xh) in gx.iter_mut().zip(gy).zip(xh) {
                            *o = k * (per * gy - sum_gy - xh * sum_gy_xh);
                        }
                    }
                }
            });
            gx
        });
        pool::give(sum_gy);
        pool::give(sum_gy_xh);
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
                bn.gamma.grad.data_mut()[ci] += sum_gy_xh;
                bn.beta.grad.data_mut()[ci] += sum_gy;
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
    /// with its parked buffers poisoned.
    #[test]
    fn passes_match_the_old_bodies_bitwise() {
        passes_match_the_old_bodies(
            [[3, 4, 2, 2], [1, 3, 1, 1], [5, 2, 3, 1], [2, 1, 4, 4]],
            bits,
        );
    }

    /// [`bits`] with every NaN mapped to one: where two NaNs meet in an add
    /// or a multiply, which payload survives is the operand order the
    /// compiler gave that instruction, and the old bodies are other loops.
    fn bits_any_nan(values: &[f32]) -> Vec<u32> {
        let one_nan = |v: &f32| if v.is_nan() { f32::NAN } else { *v }.to_bits();
        values.iter().map(one_nan).collect()
    }

    /// The same at sizes whose passes go to the worker pool in chunks —
    /// channel chunks for the sums, runs of samples for the arithmetic, the
    /// last run short: equal to the old bodies (`±0`, `±∞` and where the
    /// NaNs are, bit for bit), and to themselves at pool sizes 1, 2 and 4
    /// down to the NaN payloads.
    #[test]
    fn chunked_passes_match_the_old_bodies_bitwise() {
        let shapes = [[70, 8, 16, 16], [33, 65, 8, 8]];
        for shape in shapes {
            assert!(shape.iter().product::<usize>() >= crate::layers::staging::PAR_MIN_ELEMS);
        }
        let runs = [1, 2, 4].map(|threads| {
            socflow_tensor::runtime::set_threads(threads);
            passes_match_the_old_bodies(shapes, bits_any_nan)
        });
        assert!(runs[0] == runs[1], "pool sizes 1 and 2 differ");
        assert!(runs[0] == runs[2], "pool sizes 1 and 4 differ");
    }

    /// Runs both implementations side by side, comparing by `bits`; returns
    /// every float the new one produced, exactly.
    fn passes_match_the_old_bodies<const N: usize>(
        shapes: [[usize; 4]; N],
        bits: fn(&[f32]) -> Vec<u32>,
    ) -> Vec<u32> {
        let mut produced = Vec::new();
        let mut keep = |values: &[f32]| produced.extend(values.iter().map(|v| v.to_bits()));
        let mut rng = StdRng::seed_from_u64(21);
        let train = Mode::train(Precision::Fp32);
        for (case, shape) in shapes.into_iter().enumerate() {
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
                    keep(cache.xhat.data());
                    keep(&cache.inv_std);
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
                        assert_eq!(bits(a.grad.data()), bits(b.grad.data()), "{what}: grads");
                        keep(a.grad.data());
                    }
                    assert_eq!(bits(&new.running_mean), bits(&old.running_mean), "{what}");
                    assert_eq!(bits(&new.running_var), bits(&old.running_var), "{what}");
                    keep(&new.running_mean);
                    keep(&new.running_var);
                    for t in [Some(y), Some(ye), gx].into_iter().flatten() {
                        keep(t.data());
                        pool::recycle(t);
                    }
                }
            }
        }
        produced
    }
}
