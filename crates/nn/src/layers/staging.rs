//! What the layers share of a pass's staging: quantized operand copies and
//! masked gradients, all on the step scratch.

use crate::layer::Precision;
use socflow_tensor::quant;
use socflow_tensor::{pool, Tensor};

/// The operands of a pass at `precision`: `None` for the ones it reads as
/// they are (FP32), otherwise a step-scratch copy of each, fake-quantized
/// to INT8 (the fused quantize→dequantize pass, with a scale derived from
/// the operand's own max-|x|). The caller hands the copies back
/// ([`pool::recycle_all`]).
pub(crate) fn staged<const N: usize>(
    precision: Precision,
    operands: [&Tensor; N],
) -> [Option<Tensor>; N] {
    operands.map(|t| match precision {
        Precision::Fp32 => None,
        Precision::Int8 => {
            let mut out = pool::tensor(t.shape().clone());
            quant::fake_quant_into(t, &mut out);
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
