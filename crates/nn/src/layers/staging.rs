//! What the layers share of a pass's staging: quantized operand copies,
//! masked gradients, gradient accumulation — all on the step scratch.

use crate::layer::{Parameter, Precision};
use socflow_tensor::quant::{self, QuantFormat};
use socflow_tensor::{pool, Tensor};

/// The operands of a pass at `precision`: `None` for the ones it reads as
/// they are (FP32), otherwise a step-scratch copy of each, fake-quantized
/// to the NPU format (the fused quantize→dequantize pass, with a scale
/// derived from the operand's own max-|x|). The caller hands the copies
/// back ([`pool::recycle_all`]).
pub(crate) fn staged<const N: usize>(
    precision: Precision,
    operands: [&Tensor; N],
) -> [Option<Tensor>; N] {
    operands.map(|t| match precision {
        Precision::Fp32 => None,
        Precision::Quant(format) => {
            let mut out = pool::tensor(t.shape().clone());
            format.fake_quant_into(t, &mut out);
            Some(out)
        }
    })
}

/// `f` of every element of `src`, in a step-scratch tensor.
pub(crate) fn mapped(src: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let mut out = pool::tensor(src.shape().clone());
    for (o, &v) in out.data_mut().iter_mut().zip(src.data()) {
        *o = f(v);
    }
    out
}

/// The elementwise product `a ⊙ b` in a step-scratch tensor: a gradient
/// through a mask.
///
/// # Panics
/// Panics on a shape mismatch.
pub(crate) fn product(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "shape mismatch in `product`");
    let mut out = pool::tensor(a.shape().clone());
    let operands = a.data().iter().zip(b.data());
    for (o, (x, y)) in out.data_mut().iter_mut().zip(operands) {
        *o = x * y;
    }
    out
}

/// `param.grad += g` — through [`quant_grad_into`] with `seed` when the pass
/// is quantized, modelling low-precision gradient storage on the NPU — and
/// hands `g` back to the step scratch.
pub(crate) fn accumulate_grad(param: &mut Parameter, g: Tensor, precision: Precision, seed: u64) {
    if let Precision::Quant(f) = precision {
        let mut noisy = pool::tensor(g.shape().clone());
        quant_grad_into(&g, seed, f, &mut noisy);
        param.grad.add_inplace(&noisy);
        pool::recycle(noisy);
    } else {
        param.grad.add_inplace(&g);
    }
    pool::recycle(g);
}

/// Applies gradient quantization noise with a deterministic per-step seed,
/// writing into `out`. Noise amplitude scales with the format's grid
/// coarseness relative to INT8 (FP16's 10-bit mantissa is ~8x finer than
/// INT8's grid).
pub(crate) fn quant_grad_into(grad: &Tensor, seed: u64, format: QuantFormat, out: &mut Tensor) {
    let rel = match format {
        QuantFormat::Fp16 => 0.125,
        _ => 127.0 / format.grid_max(),
    };
    quant::gradient_quant_noise_into(grad, seed, out);
    if (rel - 1.0).abs() < 1e-9 {
        return;
    }
    // Re-scale the injected noise component: out = g + rel·(noisy − g),
    // with the same subtract-multiply-add order as the allocating original.
    for (o, &g) in out.data_mut().iter_mut().zip(grad.data()) {
        *o = g + rel * (*o - g);
    }
}
