use crate::layer::{Layer, Mode, Parameter, Precision};
use rand::Rng;
use socflow_tensor::quant::{self, QuantParams};
use socflow_tensor::{init, linalg, pool, Tensor};

/// Fully connected layer: `y = x·W + b` with `x: (n, in)`, `W: (in, out)`.
///
/// A training forward keeps a copy of the activations it multiplied
/// (dequantized in an INT8 pass) until its backward.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Parameter,
    bias: Parameter,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
    /// Quantized-backward counter seeding the gradient noise. Kept as f32
    /// so it rides [`Layer::visit_state`] into checkpoints (exact up to
    /// 2^24 steps — far past any realistic run).
    step: f32,
}

impl Linear {
    /// Creates a layer with Kaiming-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let weight = init::kaiming_uniform([in_features, out_features], in_features, rng);
        Linear {
            weight: Parameter::new(weight),
            bias: Parameter::new(Tensor::zeros([out_features])),
            in_features,
            out_features,
            cached_input: None,
            step: 0.0,
        }
    }

    /// Integer forward: quantize the activations and the weight to
    /// symmetric INT8, run the `i8×i8→i32` GEMM against the weight in its
    /// own `(in, out)` layout and apply both scales and the f32 bias at the
    /// i32→f32 epilogue. In train mode the cached input is the
    /// *dequantized* activations — bitwise-identical to the fake-quant
    /// cache, written by the same sweep that quantizes them — so
    /// [`Layer::backward`] is shared unchanged.
    fn forward_int8(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let (m, k) = input.shape().as_matrix();
        assert_eq!(k, self.in_features, "Linear input width mismatch");
        let n = self.out_features;
        let px = QuantParams::from_tensor(input);
        let pw = QuantParams::from_tensor(&self.weight.value);
        let mut qx = pool::take::<i8>(m * k);
        let cache = if mode.train {
            let mut cache = pool::tensor(input.shape().clone());
            quant::quantize_dequantize_into(input, px, &mut qx, &mut cache);
            Some(cache)
        } else {
            quant::quantize_into(input, px, &mut qx);
            None
        };
        let mut qw = pool::take::<i8>(k * n);
        quant::quantize_into(&self.weight.value, pw, &mut qw);
        let mut iacc = pool::take::<i32>(m * n);
        linalg::matmul_i8_slices(&qx, &qw, &mut iacc, m, k, n);
        pool::give(qw);
        pool::give(qx);
        let mut y = pool::tensor([m, n]);
        quant::scale_i32_bias_into(&iacc, px.scale * pw.scale, &self.bias.value, &mut y);
        pool::give(iacc);
        if let Some(cache) = cache {
            self.release();
            self.cached_input = Some(cache);
        }
        y
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if mode.precision == Precision::Int8 {
            return self.forward_int8(input, mode);
        }
        let mut y = pool::tensor([input.shape().dim(0), self.out_features]);
        linalg::matmul_into(input, &self.weight.value, &mut y);
        y.add_row_broadcast_inplace(&self.bias.value);
        if mode.train {
            let cache = pool::copy_of(input);
            self.release();
            self.cached_input = Some(cache);
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor, mode: Mode, want_gx: bool) -> Option<Tensor> {
        let x = self
            .cached_input
            .take()
            .expect("Linear::backward without training forward");
        // dW = xᵀ·gy ; db = Σrows gy ; dx = gy·Wᵀ
        let mut gw = pool::tensor(self.weight.value.shape().clone());
        linalg::matmul_at_b_into(&x, grad_out, &mut gw);
        pool::recycle(x);
        let mut gb = pool::tensor([self.out_features]);
        grad_out.sum_rows_into(&mut gb);
        if mode.precision == Precision::Int8 {
            self.step += 1.0;
        }
        let step = self.step as u64;
        self.weight
            .accumulate_grad(gw, mode.precision, step.wrapping_mul(0x9E37));
        self.bias
            .accumulate_grad(gb, mode.precision, step.wrapping_mul(0x79B9));
        want_gx.then(|| {
            let mut gx = pool::tensor([grad_out.shape().dim(0), self.in_features]);
            linalg::matmul_a_bt_into(grad_out, &self.weight.value, &mut gx);
            gx
        })
    }

    fn release(&mut self) {
        pool::recycle_all(self.cached_input.take());
    }

    fn visit_parameters<'a>(&'a self, visit: &mut dyn FnMut(&'a Parameter)) {
        visit(&self.weight);
        visit(&self.bias);
    }

    fn visit_parameters_mut<'a>(&'a mut self, visit: &mut dyn FnMut(&'a mut Parameter)) {
        visit(&mut self.weight);
        visit(&mut self.bias);
    }

    fn visit_state(&self, visit: &mut dyn FnMut(&[f32])) {
        visit(std::slice::from_ref(&self.step));
    }

    fn visit_state_mut(&mut self, visit: &mut dyn FnMut(&mut [f32])) {
        visit(std::slice::from_mut(&mut self.step));
    }

    fn describe(&self) -> String {
        format!("linear({}→{})", self.in_features, self.out_features)
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
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(3, 2, &mut rng);
        // zero the weights; output should be exactly the bias
        l.weight.value.fill_zero();
        l.bias.value = Tensor::from_vec(vec![1.0, -1.0], [2]);
        let y = l.forward(&Tensor::ones([4, 3]), Mode::eval(Precision::Fp32));
        assert_eq!(y.shape().dims(), &[4, 2]);
        assert_eq!(&y.data()[0..2], &[1.0, -1.0]);
    }

    #[test]
    fn gradcheck_fp32() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(4, 3, &mut rng);
        let x = init::normal([2, 4], 1.0, &mut rng);
        let mode = Mode::train(Precision::Fp32);

        let y = l.forward(&x, mode);
        let gy = y.scale(2.0); // loss = sum(y^2)
        let gx = l.backward(&gy, mode, true).unwrap();

        let eps = 1e-3;
        let loss = |l: &mut Linear, x: &Tensor| -> f32 {
            l.forward(x, Mode::eval(Precision::Fp32))
                .data()
                .iter()
                .map(|v| v * v)
                .sum()
        };
        // check dx
        for idx in [0usize, 3, 7] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&mut l, &xp) - loss(&mut l, &xm)) / (2.0 * eps);
            assert!((num - gx.data()[idx]).abs() < 1e-2, "dx[{idx}]");
        }
        // check dW
        for idx in [0usize, 5, 11] {
            let orig = l.weight.value.data()[idx];
            l.weight.value.data_mut()[idx] = orig + eps;
            let lp = loss(&mut l, &x);
            l.weight.value.data_mut()[idx] = orig - eps;
            let lm = loss(&mut l, &x);
            l.weight.value.data_mut()[idx] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - l.weight.grad.as_ref().unwrap().data()[idx]).abs() < 1e-2,
                "dW[{idx}]"
            );
        }
    }

    #[test]
    fn int8_forward_differs_but_close() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Linear::new(16, 8, &mut rng);
        let x = init::normal([4, 16], 1.0, &mut rng);
        let y32 = l.forward(&x, Mode::eval(Precision::Fp32));
        let y8 = l.forward(&x, Mode::eval(Precision::Int8));
        assert_ne!(y32, y8, "INT8 must be lossy");
        let cos = y32.cosine_similarity(&y8);
        assert!(cos > 0.99, "INT8 output should stay close (cos={cos})");
    }

    /// The INT8 forward must be the integer kernel, not fake-quant f32: a
    /// widened-i32 reference with one scale at the end reproduces the
    /// output bit for bit, and the train cache equals the dequantized
    /// activations (= fake-quant of the input, bitwise).
    #[test]
    fn int8_forward_matches_widened_reference_exactly() {
        let mut rng = StdRng::seed_from_u64(4);
        let (nin, nout, batch) = (9usize, 5, 3);
        let mut l = Linear::new(nin, nout, &mut rng);
        l.bias.value = init::normal([nout], 0.5, &mut rng);
        let x = init::normal([batch, nin], 1.0, &mut rng);
        let y = l.forward(&x, Mode::train(Precision::Int8));

        let px = quant::QuantParams::from_tensor(&x);
        let pw = quant::QuantParams::from_tensor(&l.weight.value);
        let (mut qx, mut qw) = (Vec::new(), Vec::new());
        quant::quantize_into(&x, px, &mut qx);
        quant::quantize_into(&l.weight.value, pw, &mut qw); // (in, out) row-major
        let s = px.scale * pw.scale;
        for i in 0..batch {
            for j in 0..nout {
                let mut acc = 0i32;
                for p in 0..nin {
                    acc += qx[i * nin + p] as i32 * qw[p * nout + j] as i32;
                }
                let expect = acc as f32 * s + l.bias.value.data()[j];
                assert_eq!(y.data()[i * nout + j], expect, "y[{i},{j}]");
            }
        }

        let cache = l.cached_input.as_ref().unwrap();
        let fq = quant::fake_quant(&x, px);
        assert_eq!(cache.data(), fq.data(), "cache must equal fake-quant(x)");
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Linear::new(2, 2, &mut rng);
        let x = Tensor::ones([1, 2]);
        let mode = Mode::train(Precision::Fp32);
        let y = l.forward(&x, mode);
        let g = Tensor::ones(y.shape().clone());
        l.backward(&g, mode, true);
        let g1 = l.weight.grad.clone().unwrap();
        l.forward(&x, mode);
        l.backward(&g, mode, true);
        assert_eq!(l.weight.grad, Some(g1.scale(2.0)));
    }
}
