use crate::layer::{Layer, Mode, Parameter};
use crate::layers::staged;
use rand::Rng;
use socflow_tensor::conv::ConvParams;
use socflow_tensor::{init, pool, Tensor};

/// Depthwise 2-D convolution: each input channel is convolved with its own
/// `k×k` filter (groups = channels) — the signature operation of
/// MobileNet-style architectures. Weight shape: `(c, k, k)`.
#[derive(Debug, Clone)]
pub struct DepthwiseConv2d {
    weight: Parameter,
    channels: usize,
    kernel: usize,
    params: ConvParams,
    cached: Option<Tensor>, // quantized/raw input used in forward
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution with Kaiming-uniform filters.
    pub fn new(
        channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = kernel * kernel;
        let weight = init::kaiming_uniform([channels, kernel, kernel], fan_in, rng);
        DepthwiseConv2d {
            weight: Parameter::new(weight),
            channels,
            kernel,
            params: ConvParams::new(stride, padding),
            cached: None,
        }
    }

    fn geometry(&self, input: &Tensor) -> (usize, usize, usize, usize, usize, usize) {
        let (n, c, h, w) = input.shape().as_nchw();
        assert_eq!(c, self.channels, "DepthwiseConv2d channel mismatch");
        let oh = self.params.out_size(h, self.kernel);
        let ow = self.params.out_size(w, self.kernel);
        (n, c, h, w, oh, ow)
    }
}

impl Layer for DepthwiseConv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let [xq, wq] = staged(mode.precision, [input, &self.weight.value]);
        let x = xq.as_ref().unwrap_or(input);
        let wt = wq.as_ref().unwrap_or(&self.weight.value);
        let (n, c, h, w, oh, ow) = self.geometry(input);
        let k = self.kernel;
        let pad = self.params.padding as isize;
        let stride = self.params.stride;
        let mut y = pool::tensor([n, c, oh, ow]);
        let out = y.data_mut();
        let xd = x.data();
        let wd = wt.data();
        for ni in 0..n {
            for ci in 0..c {
                let chan = (ni * c + ci) * h * w;
                let filt = &wd[ci * k * k..(ci + 1) * k * k];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                acc += filt[ky * k + kx] * xd[chan + iy as usize * w + ix as usize];
                            }
                        }
                        out[((ni * c + ci) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        if mode.train {
            let cache = pool::copy_of(x);
            self.release();
            self.cached = Some(cache);
        }
        pool::recycle_all([xq, wq].into_iter().flatten());
        y
    }

    fn backward(&mut self, grad_out: &Tensor, mode: Mode, want_gx: bool) -> Option<Tensor> {
        let x = self
            .cached
            .take()
            .expect("DepthwiseConv2d::backward without training forward");
        let (n, c, h, w) = x.shape().as_nchw();
        let (_, _, oh, ow) = grad_out.shape().as_nchw();
        let k = self.kernel;
        let pad = self.params.padding as isize;
        let stride = self.params.stride;
        let xd = x.data();
        let gd = grad_out.data();
        let wd = self.weight.value.data();
        let mut gw_t = pool::zeroed(self.weight.value.shape().clone());
        let gw = gw_t.data_mut();
        let mut gx_t = want_gx.then(|| pool::zeroed(x.shape().clone()));
        let mut gx = gx_t.as_mut().map(Tensor::data_mut);
        for ni in 0..n {
            for ci in 0..c {
                let chan = (ni * c + ci) * h * w;
                let filt = &wd[ci * k * k..(ci + 1) * k * k];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = gd[((ni * c + ci) * oh + oy) * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = chan + iy as usize * w + ix as usize;
                                gw[ci * k * k + ky * k + kx] += g * xd[xi];
                                if let Some(gx) = gx.as_deref_mut() {
                                    gx[xi] += g * filt[ky * k + kx];
                                }
                            }
                        }
                    }
                }
            }
        }
        pool::recycle(x);
        self.weight.accumulate_grad(gw_t, mode.precision, 0xD3AD);
        gx_t
    }

    fn release(&mut self) {
        pool::recycle_all(self.cached.take());
    }

    fn visit_parameters<'a>(&'a self, visit: &mut dyn FnMut(&'a Parameter)) {
        visit(&self.weight);
    }

    fn visit_parameters_mut<'a>(&'a mut self, visit: &mut dyn FnMut(&'a mut Parameter)) {
        visit(&mut self.weight);
    }

    fn describe(&self) -> String {
        format!(
            "dwconv2d({}ch, k{}, s{})",
            self.channels, self.kernel, self.params.stride
        )
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Precision;
    use crate::layers::Conv2d;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn geometry_matches_standard_conv() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut dw = DepthwiseConv2d::new(3, 3, 2, 1, &mut rng);
        let x = Tensor::ones([2, 3, 8, 8]);
        let y = dw.forward(&x, Mode::eval(Precision::Fp32));
        assert_eq!(y.shape().dims(), &[2, 3, 4, 4]);
    }

    #[test]
    fn equals_grouped_standard_conv() {
        // A depthwise conv equals a standard conv whose weight is diagonal
        // across channels.
        let mut rng = StdRng::seed_from_u64(1);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, &mut rng);
        let mut full = Conv2d::new(2, 2, 3, 1, 1, &mut rng);
        // copy the depthwise filters onto the full conv's diagonal, zero off-diagonal
        for p in full.parameters_mut() {
            p.value.fill_zero();
        }
        let dwf = dw.parameters()[0].value.clone();
        {
            let params = full.parameters_mut();
            let w = &mut params.into_iter().next().unwrap().value;
            for c in 0..2 {
                for i in 0..9 {
                    // weight layout (oc, ic, kh, kw): element (c, c, i)
                    let idx = ((c * 2) + c) * 9 + i;
                    w.data_mut()[idx] = dwf.data()[c * 9 + i];
                }
            }
        }
        let x = init::normal([1, 2, 5, 5], 1.0, &mut StdRng::seed_from_u64(2));
        let yd = dw.forward(&x, Mode::eval(Precision::Fp32));
        let yf = full.forward(&x, Mode::eval(Precision::Fp32));
        for (a, b) in yd.data().iter().zip(yf.data()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn gradcheck() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, &mut rng);
        let x = init::normal([1, 2, 4, 4], 1.0, &mut rng);
        let mode = Mode::train(Precision::Fp32);
        let y = dw.forward(&x, mode);
        let gy = y.scale(2.0);
        let gx = dw.backward(&gy, mode, true).unwrap();

        let eps = 1e-3;
        let loss = |dw: &mut DepthwiseConv2d, x: &Tensor| -> f32 {
            dw.forward(x, Mode::eval(Precision::Fp32))
                .data()
                .iter()
                .map(|v| v * v)
                .sum()
        };
        for idx in [0usize, 7, 20] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&mut dw, &xp) - loss(&mut dw, &xm)) / (2.0 * eps);
            assert!(
                (num - gx.data()[idx]).abs() < 3e-2,
                "dx[{idx}]: {num} vs {}",
                gx.data()[idx]
            );
        }
        for idx in [0usize, 9, 17] {
            let orig = dw.weight.value.data()[idx];
            dw.weight.value.data_mut()[idx] = orig + eps;
            let lp = loss(&mut dw, &x);
            dw.weight.value.data_mut()[idx] = orig - eps;
            let lm = loss(&mut dw, &x);
            dw.weight.value.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - dw.weight.grad.as_ref().unwrap().data()[idx]).abs() < 3e-2,
                "dW[{idx}]: {num} vs {}",
                dw.weight.grad.as_ref().unwrap().data()[idx]
            );
        }
    }
}
