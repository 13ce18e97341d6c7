//! What the layers share of a pass's staging: quantized operand copies,
//! masked gradients, gradient accumulation — all on the step scratch.

use crate::layer::{Parameter, Precision};
use socflow_tensor::quant::{self, QuantFormat};
use socflow_tensor::runtime;
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

/// Fewest elements a per-element pass (batch-norm, ReLU, a mask) touches
/// before it goes to the worker pool: twice the lowering's
/// [`runtime::PAR_MIN_ELEMS`], because such a pass does so little per
/// element that fetching what the other lane wrote shows. Two threads
/// against one, second lane polling, `(64, c, h, w)` activations, batch-norm
/// forward / backward, ReLU forward / backward: 2¹⁵·⁶ elements ×0.85 /
/// ×1.4 / ×2.4 / ×1.6, 2¹⁶·⁶ ×0.74 / ×1.4 / ×1.3 / ×0.9, 2¹⁷·⁶ ×0.53 /
/// ×0.78 / ×0.77 / ×0.52, 2¹⁸·⁶ ×0.60 / ×0.82 / ×0.70 / ×0.64.
pub(crate) const PAR_MIN_ELEMS: usize = 1 << 17;

/// Elements' worth of work in one pool chunk of a per-element pass: a few
/// microseconds, so that claiming a chunk costs little beside running it.
const CHUNK_WORK: usize = 1 << 12;

/// Runs `body(first_unit, chunks)` over `outs` (equal lengths, `unit`
/// elements to a unit) cut into runs of whole units — on the worker pool
/// when the pass is [`PAR_MIN_ELEMS`] elements of work or more (`unit_work` elements
/// read or written per unit), as one chunk on this thread otherwise. The
/// cut depends on the shapes alone, and a body writes its own chunks only,
/// so the bytes are the same at any pool size.
pub(crate) fn for_chunks<const N: usize>(
    outs: [&mut [f32]; N],
    unit: usize,
    unit_work: usize,
    body: &(dyn Fn(usize, [&mut [f32]; N]) + Sync),
) {
    let (unit, unit_work) = (unit.max(1), unit_work.max(1));
    let units = outs[0].len() / unit;
    let per_chunk = if units * unit_work >= PAR_MIN_ELEMS {
        CHUNK_WORK.div_ceil(unit_work)
    } else {
        units.max(1)
    };
    runtime::parallel_for_zip_chunks(outs, per_chunk * unit, &|c, chunks| {
        body(c * per_chunk, chunks)
    });
}

/// `f` of every element of `src`, in a step-scratch tensor.
pub(crate) fn mapped(src: &Tensor, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
    let mut out = pool::tensor(src.shape().clone());
    let src = src.data();
    for_chunks([out.data_mut()], 1, 1, &|lo, [out]| {
        for (o, &v) in out.iter_mut().zip(&src[lo..]) {
            *o = f(v);
        }
    });
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
    let (a, b) = (a.data(), b.data());
    for_chunks([out.data_mut()], 1, 1, &|lo, [out]| {
        for (o, (x, y)) in out.iter_mut().zip(a[lo..].iter().zip(&b[lo..])) {
            *o = x * y;
        }
    });
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
