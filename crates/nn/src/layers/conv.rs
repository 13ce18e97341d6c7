use crate::layer::{Layer, Mode, Parameter, Precision};
use rand::Rng;
use socflow_tensor::conv::{conv2d, conv2d_backward, conv2d_int8, ConvCache, ConvParams};
use socflow_tensor::{init, Shape, Tensor};

/// 2-D convolution layer (no bias — models here always follow a conv with
/// batch-norm or include bias via the linear head, matching the reference
/// architectures).
///
/// A training forward keeps what its backward reads
/// ([`socflow_tensor::conv::ConvCache`]) — the im2col patch matrix, one
/// column per channel and *live* kernel tap, or on a narrow layer that runs
/// direct the input inside its zero border — until its backward; the
/// weight and its gradient keep their full `(oc, ic, k, k)` shape. Which
/// path runs is `socflow_tensor::conv`'s choice.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Parameter,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    params: ConvParams,
    cached: Option<(ConvCache, Shape)>, // (forward's cache, input shape)
    /// Quantized-backward counter seeding the gradient noise. Kept as f32
    /// so it rides [`Layer::state_buffers`] into checkpoints (exact up to
    /// 2^24 steps — far past any realistic run).
    step: f32,
}

impl Conv2d {
    /// Creates a `kernel×kernel` convolution with Kaiming-uniform weights.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let weight =
            init::kaiming_uniform([out_channels, in_channels, kernel, kernel], fan_in, rng);
        Conv2d {
            weight: Parameter::new(weight),
            in_channels,
            out_channels,
            kernel,
            params: ConvParams::new(stride, padding),
            cached: None,
            step: 0.0,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        // INT8 runs the integer kernel ([`conv2d_int8`]), which caches the
        // dequantized input it consumed, so the cache and the backward
        // below are shared with FP32.
        let (y, cache) = if mode.precision == Precision::Int8 {
            let (y, cache, _, _) = conv2d_int8(input, &self.weight.value, self.params);
            (y, cache)
        } else {
            conv2d(input, &self.weight.value, self.params)
        };
        if mode.train {
            self.release();
            self.cached = Some((cache, input.shape().clone()));
        } else {
            cache.recycle();
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor, mode: Mode, want_gx: bool) -> Option<Tensor> {
        let (cache, input_shape) = self
            .cached
            .take()
            .expect("Conv2d::backward without training forward");
        let (gx, gw) = conv2d_backward(
            grad_out,
            &cache,
            &self.weight.value,
            &input_shape,
            self.params,
            want_gx,
        );
        cache.recycle();
        if mode.precision == Precision::Int8 {
            self.step += 1.0;
        }
        let seed = (self.step as u64).wrapping_mul(0xC2B2);
        self.weight.accumulate_grad(gw, mode.precision, seed);
        gx
    }

    fn release(&mut self) {
        if let Some((cache, _)) = self.cached.take() {
            cache.recycle();
        }
    }

    fn visit_parameters<'a>(&'a self, visit: &mut dyn FnMut(&'a Parameter)) {
        visit(&self.weight);
    }

    fn visit_parameters_mut<'a>(&'a mut self, visit: &mut dyn FnMut(&'a mut Parameter)) {
        visit(&mut self.weight);
    }

    fn state_buffers(&self) -> Vec<&[f32]> {
        vec![std::slice::from_ref(&self.step)]
    }

    fn state_buffers_mut(&mut self) -> Vec<&mut [f32]> {
        vec![std::slice::from_mut(&mut self.step)]
    }

    fn describe(&self) -> String {
        format!(
            "conv2d({}→{}, k{}, s{}, p{})",
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.params.stride,
            self.params.padding
        )
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_geometry() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
        let x = Tensor::ones([2, 3, 8, 8]);
        let y = c.forward(&x, Mode::eval(Precision::Fp32));
        assert_eq!(y.shape().dims(), &[2, 8, 8, 8]);
        let mut c2 = Conv2d::new(3, 4, 3, 2, 1, &mut rng);
        let y2 = c2.forward(&x, Mode::eval(Precision::Fp32));
        assert_eq!(y2.shape().dims(), &[2, 4, 4, 4]);
    }

    #[test]
    fn gradcheck_weight() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = init::normal([1, 2, 4, 4], 1.0, &mut rng);
        let mode = Mode::train(Precision::Fp32);
        let y = c.forward(&x, mode);
        let gy = y.scale(2.0);
        let gx = c.backward(&gy, mode, true).unwrap();
        assert_eq!(gx.shape(), x.shape());

        let eps = 1e-3;
        let loss = |c: &mut Conv2d| -> f32 {
            c.forward(&x, Mode::eval(Precision::Fp32))
                .data()
                .iter()
                .map(|v| v * v)
                .sum()
        };
        for idx in [0usize, 10, 33] {
            let orig = c.weight.value.data()[idx];
            c.weight.value.data_mut()[idx] = orig + eps;
            let lp = loss(&mut c);
            c.weight.value.data_mut()[idx] = orig - eps;
            let lm = loss(&mut c);
            c.weight.value.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - c.weight.grad.as_ref().unwrap().data()[idx]).abs() < 3e-2,
                "dW[{idx}]: {num} vs {}",
                c.weight.grad.as_ref().unwrap().data()[idx]
            );
        }
    }

    #[test]
    fn int8_is_lossy_but_correlated() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut c = Conv2d::new(3, 4, 3, 1, 1, &mut rng);
        let x = init::normal([1, 3, 6, 6], 1.0, &mut rng);
        let y32 = c.forward(&x, Mode::eval(Precision::Fp32));
        let y8 = c.forward(&x, Mode::eval(Precision::Int8));
        assert_ne!(y32, y8);
        assert!(y32.cosine_similarity(&y8) > 0.98);
    }

    /// The layer's INT8 forward must route to the integer conv kernel and
    /// cache what it produced — the dequantized input, on the direct path
    /// this narrow layer takes — and its FP32 forward the raw input.
    #[test]
    fn int8_forward_routes_to_integer_kernel() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = init::normal([2, 2, 5, 5], 1.0, &mut rng);
        let y = c.forward(&x, Mode::train(Precision::Int8));

        let (expect, cache, _, _) = conv2d_int8(&x, &c.weight.value, c.params);
        assert_eq!(y, expect);
        let (cached, shape) = c.cached.as_ref().unwrap();
        assert_eq!(cached, &cache);
        assert_eq!(shape, x.shape());
        let ConvCache::Direct { padded } = cached else {
            panic!("a 2 -> 3 layer runs direct, cached {cached:?}");
        };
        assert_ne!(&padded.data()[8..13], &x.data()[..5], "quantized");

        c.forward(&x, Mode::train(Precision::Fp32));
        let ConvCache::Direct { padded } = &c.cached.as_ref().unwrap().0 else {
            panic!("the path does not depend on the precision");
        };
        assert_eq!(
            &padded.data()[8..13],
            &x.data()[..5],
            "row 0 inside its border"
        );
    }

    /// The centre taps of a `(oc, ic, 3, 3)` tensor as the `(oc, ic, 1, 1)`
    /// kernel that computes the same function on a 1×1 map.
    fn centre_taps(t: &Tensor) -> Tensor {
        let (oc, ic, _, _) = t.shape().as_nchw();
        let centre = t.data().iter().skip(4).step_by(9);
        Tensor::from_vec(centre.copied().collect(), [oc, ic, 1, 1])
    }

    /// On a 1×1 map only the centre tap of a 3×3 / pad-1 kernel is live, so
    /// the layer must equal — bit for bit, through a training forward, an
    /// eval forward of another batch in between, and the backward — the 1×1
    /// convolution over its centre taps, which has no tap to drop; the dead
    /// taps' gradient is `+0.0`.
    #[test]
    fn one_by_one_map_equals_the_centre_tap_convolution() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut c3 = Conv2d::new(5, 7, 3, 1, 1, &mut rng);
        let mut c1 = Conv2d::new(5, 7, 1, 1, 0, &mut rng);
        c1.weight.value = centre_taps(&c3.weight.value);
        let x = init::normal([6, 5, 1, 1], 1.0, &mut rng);
        let other = init::normal([3, 5, 1, 1], 1.0, &mut rng);
        let gy = init::normal([6, 7, 1, 1], 1.0, &mut rng);
        let (train, eval) = (Mode::train(Precision::Fp32), Mode::eval(Precision::Fp32));
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        for step in 0..2 {
            let (y3, y1) = (c3.forward(&x, train), c1.forward(&x, train));
            assert_eq!(bits(&y3), bits(&y1), "step {step}: y");
            let ConvCache::Lowered { patches, view } = &c3.cached.as_ref().unwrap().0 else {
                panic!("a 1x1 map has dead taps: the lowering");
            };
            assert_eq!(patches.shape().dims(), &[6, 5], "live-tap patch matrix");
            assert_eq!(view.as_ref().unwrap().shape().dims(), &[7, 5], "live view");
            assert_eq!(
                bits(&c3.forward(&other, eval)),
                bits(&c1.forward(&other, eval)),
                "step {step}: eval forward in between"
            );
            c3.weight.grad = None;
            c1.weight.grad = None;
            let gx3 = c3.backward(&gy, train, true).unwrap();
            let gx1 = c1.backward(&gy, train, true).unwrap();
            assert_eq!(bits(&gx3), bits(&gx1), "step {step}: dX");
            assert_eq!(
                bits(&centre_taps(c3.weight.grad.as_ref().unwrap())),
                bits(c1.weight.grad.as_ref().unwrap()),
                "step {step}: dW"
            );
            let dead = c3
                .weight
                .grad
                .as_ref()
                .unwrap()
                .data()
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 9 != 4);
            assert!(
                dead.clone().all(|(_, g)| g.to_bits() == 0),
                "step {step}: dead dW"
            );
            // an optimizer step: the next forward must see the new weights
            for w in c3.weight.value.data_mut() {
                *w *= 0.9;
            }
            c1.weight.value = centre_taps(&c3.weight.value);
        }
    }

    /// The INT8 arm's gradient noise is drawn per element of the *full*
    /// `(oc, ic, k, k)` gradient, so on a 1×1 map the dead taps — exact
    /// zeros before the noise — receive it like every other tap.
    #[test]
    fn int8_gradient_noise_covers_the_dead_taps() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut c = Conv2d::new(3, 4, 3, 1, 1, &mut rng);
        let x = init::normal([2, 3, 1, 1], 1.0, &mut rng);
        let mode = Mode::train(Precision::Int8);
        let y = c.forward(&x, mode);
        c.backward(&y.scale(2.0), mode, true);
        let dead = c
            .weight
            .grad
            .as_ref()
            .unwrap()
            .data()
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 9 != 4);
        assert!(dead.clone().all(|(_, g)| g.is_finite()));
        assert!(
            dead.filter(|(_, g)| **g != 0.0).count() > 90,
            "noise on 96 dead taps"
        );
    }
}
