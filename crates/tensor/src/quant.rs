//! Symmetric per-tensor INT8 quantization.
//!
//! This module provides the numeric substrate for SoCFlow's NPU training
//! path. Mobile NPUs (Hexagon DSP and friends) execute INT8 multiply-
//! accumulate with i32 accumulators; training on them requires quantizing
//! weights, activations and gradients. We implement:
//!
//! - [`QuantParams`]: a symmetric scale chosen from the tensor's max-|x|;
//! - [`quantize`] / [`dequantize`] round-trips;
//! - [`fake_quant`]: quantize-dequantize in f32, the standard
//!   quantization-aware-training forward transform whose backward is the
//!   straight-through estimator (identity inside the clip range);
//! - [`quantized_matmul`]: an actual INT8×INT8→i32 GEMM (backed by the
//!   register-blocked integer kernel in [`crate::linalg`]) — the execution
//!   path of the mixed-precision INT8 replica arm, with per-tensor scales
//!   applied once at the i32→f32 epilogue.
//!
//! The NiTi-style integer optimizer in `socflow-nn` builds on these
//! primitives.
//!
//! The elementwise sweeps are slice loops instantiated twice (portable and
//! AVX2, see [`crate::isa`]); every element is computed independently with
//! the same scalar operations — `round` is half-away-from-zero on both —
//! so the two agree bit for bit.

use crate::isa::{isa_kernel, Isa};
use crate::profile::{KernelOp, Timer};
use crate::{Shape, Tensor};
use serde::{Deserialize, Serialize};

/// Quantization range of signed INT8 (symmetric; -128 is unused so the range
/// is symmetric around zero, as in most NPU kernels).
pub const INT8_MAX: f32 = 127.0;

/// A low-precision number format supported by mobile NPUs.
///
/// The SoCFlow paper's §5 notes that newer NPUs (Snapdragon 8gen1/8gen2)
/// support INT4/INT8/INT16/FP16 concurrently; this enum parameterizes the
/// fake-quantization transform so training can run in any of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QuantFormat {
    /// 4-bit signed integer, symmetric (±7).
    Int4,
    /// 8-bit signed integer, symmetric (±127).
    Int8,
    /// 16-bit signed integer, symmetric (±32767).
    Int16,
    /// IEEE 754 half precision (10-bit mantissa).
    Fp16,
}

impl QuantFormat {
    /// Maximum representable integer magnitude of the symmetric grid
    /// (unused for [`QuantFormat::Fp16`]).
    pub fn grid_max(self) -> f32 {
        match self {
            QuantFormat::Int4 => 7.0,
            QuantFormat::Int8 => 127.0,
            QuantFormat::Int16 => 32767.0,
            QuantFormat::Fp16 => f32::NAN, // not a fixed grid
        }
    }

    /// Bytes per value on the wire.
    pub fn wire_bytes(self) -> f64 {
        match self {
            QuantFormat::Int4 => 0.5,
            QuantFormat::Int8 => 1.0,
            QuantFormat::Int16 | QuantFormat::Fp16 => 2.0,
        }
    }

    /// Fake-quantizes a tensor to this format: integer formats quantize to
    /// the symmetric grid scaled by max-|x|; FP16 rounds the mantissa to
    /// 10 bits (flushing below-half-min-normal values to zero).
    pub fn fake_quant(self, t: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.fake_quant_into(t, &mut out);
        out
    }

    /// [`QuantFormat::fake_quant`] writing into `out`, reusing its storage.
    ///
    /// The quantize→dequantize round-trip is fused into a single output pass
    /// (one read of `t` for the scale, one read-transform-write), so the INT8
    /// side of mixed precision produces no intermediate tensor.
    pub fn fake_quant_into(self, t: &Tensor, out: &mut Tensor) {
        let _timer = Timer::start(KernelOp::Quant);
        out.resize(t.shape().clone());
        let od = out.data_mut();
        match self {
            QuantFormat::Fp16 => {
                for (o, &v) in od.iter_mut().zip(t.data()) {
                    *o = fp16_round(v);
                }
            }
            _ => {
                let m = t.abs_max();
                let gm = self.grid_max();
                let scale = if m == 0.0 { 1.0 } else { m / gm };
                fake_quant_slices(Isa::active(), t.data(), od, scale, gm);
            }
        }
    }
}

impl std::fmt::Display for QuantFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            QuantFormat::Int4 => "INT4",
            QuantFormat::Int8 => "INT8",
            QuantFormat::Int16 => "INT16",
            QuantFormat::Fp16 => "FP16",
        };
        f.write_str(s)
    }
}

/// Rounds an f32 to the nearest representable IEEE half-precision value
/// (returned as f32).
pub fn fp16_round(v: f32) -> f32 {
    if !v.is_finite() {
        return v;
    }
    // clamp to f16 range
    const F16_MAX: f32 = 65504.0;
    if v > F16_MAX {
        return F16_MAX;
    }
    if v < -F16_MAX {
        return -F16_MAX;
    }
    if v.abs() < 6.1e-5 {
        // subnormal range: quantize to multiples of the smallest subnormal
        const SUB: f32 = 5.960_464_5e-8;
        return (v / SUB).round() * SUB;
    }
    // keep 10 mantissa bits: round in the scaled-integer domain
    let bits = v.to_bits();
    let shift = 13u32; // 23 - 10 mantissa bits
    let mask = (1u32 << shift) - 1;
    let rounded = bits.wrapping_add(1 << (shift - 1)) & !mask;
    f32::from_bits(rounded)
}

/// Symmetric per-tensor quantization parameters: `real = scale * int`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Real-value magnitude represented by one integer step.
    pub scale: f32,
}

impl QuantParams {
    /// Chooses a scale so that the tensor's maximum magnitude maps to ±127.
    ///
    /// An all-zero tensor gets a scale of 1.0 (any scale round-trips zeros).
    pub fn from_tensor(t: &Tensor) -> Self {
        let m = t.abs_max();
        QuantParams {
            scale: if m == 0.0 { 1.0 } else { m / INT8_MAX },
        }
    }

    /// Quantizes one value to the clipped INT8 grid.
    pub fn quantize_value(&self, v: f32) -> i8 {
        let q = (v / self.scale).round();
        q.clamp(-INT8_MAX, INT8_MAX) as i8
    }

    /// Recovers the real value of one quantized step.
    pub fn dequantize_value(&self, q: i8) -> f32 {
        q as f32 * self.scale
    }
}

isa_kernel! {
    /// `dst[i] = round(clamp(src[i] / scale)) * scale` on the `±gm` grid.
    fn fake_quant_slices(src: &[f32], dst: &mut [f32], scale: f32, gm: f32) = fake_quant_body;
}

#[inline(always)]
fn fake_quant_body(src: &[f32], dst: &mut [f32], scale: f32, gm: f32) {
    for (o, &v) in dst.iter_mut().zip(src) {
        *o = (v / scale).round().clamp(-gm, gm) * scale;
    }
}

isa_kernel! {
    /// [`fake_quant_slices`] over one buffer.
    fn fake_quant_slice_inplace(d: &mut [f32], scale: f32, gm: f32) = fake_quant_inplace_body;
}

#[inline(always)]
fn fake_quant_inplace_body(d: &mut [f32], scale: f32, gm: f32) {
    for v in d.iter_mut() {
        *v = (*v / scale).round().clamp(-gm, gm) * scale;
    }
}

/// [`QuantParams::quantize_value`] for the slice kernels, without the
/// float→int `as` that LLVM converts one lane at a time. The clamped value
/// `q` is an integer in `±127` or NaN; `q + 1.5·2²³` is then exact and its
/// bit pattern is `0x4B40_0000 + q`, so the low byte *is* `q as i8`. NaN
/// (any payload) maps to 0, as `as i8` does.
#[inline(always)]
fn to_i8_grid(v: f32, scale: f32) -> i8 {
    const ROUND_TO_LOW_BITS: f32 = 12_582_912.0; // 1.5 · 2²³, low byte 0x00
    let q = (v / scale).round().clamp(-INT8_MAX, INT8_MAX);
    let bits = if q.is_nan() {
        0
    } else {
        (q + ROUND_TO_LOW_BITS).to_bits()
    };
    bits as u8 as i8
}

isa_kernel! {
    /// `dst[i] = quantize_value(src[i])`.
    fn quantize_slices(src: &[f32], dst: &mut [i8], scale: f32) = quantize_body;
}

#[inline(always)]
fn quantize_body(src: &[f32], dst: &mut [i8], scale: f32) {
    for (o, &v) in dst.iter_mut().zip(src) {
        *o = to_i8_grid(v, scale);
    }
}

isa_kernel! {
    /// `dst: (c, r)` = quantized transpose of `src: (r, c)`.
    fn quantize_transposed_slices(src: &[f32], dst: &mut [i8], r: usize, c: usize, scale: f32)
        = quantize_transposed_body;
}

/// Blocked like [`crate::linalg::transpose_slices`]: a plain row sweep
/// writes every element `r` bytes from the last one.
#[inline(always)]
fn quantize_transposed_body(src: &[f32], dst: &mut [i8], r: usize, c: usize, scale: f32) {
    use crate::linalg::TR;
    for ib in (0..r).step_by(TR) {
        let i_end = (ib + TR).min(r);
        for jb in (0..c).step_by(TR) {
            let j_end = (jb + TR).min(c);
            for j in jb..j_end {
                for i in ib..i_end {
                    dst[j * r + i] = to_i8_grid(src[i * c + j], scale);
                }
            }
        }
    }
}

isa_kernel! {
    /// `dst[i] = src[i] as f32 * scale`.
    fn dequantize_slices(src: &[i8], dst: &mut [f32], scale: f32) = dequantize_body;
}

#[inline(always)]
fn dequantize_body(src: &[i8], dst: &mut [f32], scale: f32) {
    for (o, &q) in dst.iter_mut().zip(src) {
        *o = q as f32 * scale;
    }
}

isa_kernel! {
    /// `dst[i] = src[i] as f32 * scale` over `i32` accumulators.
    fn scale_i32_slices(src: &[i32], dst: &mut [f32], scale: f32) = scale_i32_body;
}

#[inline(always)]
fn scale_i32_body(src: &[i32], dst: &mut [f32], scale: f32) {
    for (o, &v) in dst.iter_mut().zip(src) {
        *o = v as f32 * scale;
    }
}

/// Quantizes an f32 tensor to INT8 with the given parameters.
pub fn quantize(t: &Tensor, p: QuantParams) -> Vec<i8> {
    let mut out = vec![0; t.len()];
    quantize_slices(Isa::active(), t.data(), &mut out, p.scale);
    out
}

/// [`quantize`] writing into a caller-owned buffer (cleared and refilled),
/// so steady-state integer forwards allocate nothing.
pub fn quantize_into(t: &Tensor, p: QuantParams, out: &mut Vec<i8>) {
    let _timer = Timer::start(KernelOp::Quant);
    out.resize(t.len(), 0);
    quantize_slices(Isa::active(), t.data(), out, p.scale);
}

/// Quantizes a rank-2 tensor's *transpose* into `out`: `t: (r, c)` yields a
/// row-major `(c, r)` i8 buffer. This feeds the `(n, k)` operand of
/// [`crate::linalg::matmul_i8_a_bt_slices`] without materializing an f32
/// transpose first.
///
/// # Panics
/// Panics if `t` is not rank-2.
pub fn quantize_transposed_into(t: &Tensor, p: QuantParams, out: &mut Vec<i8>) {
    let _timer = Timer::start(KernelOp::Quant);
    let (r, c) = t.shape().as_matrix();
    out.resize(r * c, 0);
    quantize_transposed_slices(Isa::active(), t.data(), out, r, c, p.scale);
}

/// Dequantizes an INT8 buffer back to an f32 tensor of the given shape.
///
/// # Panics
/// Panics if `q.len() != shape.len()`.
pub fn dequantize(q: &[i8], shape: impl Into<Shape>, p: QuantParams) -> Tensor {
    let mut out = Tensor::zeros(shape);
    assert_eq!(q.len(), out.len(), "dequantize: length mismatch");
    dequantize_slices(Isa::active(), q, out.data_mut(), p.scale);
    out
}

/// [`dequantize`] writing into `out`, reusing its storage.
///
/// `dequantize_into(quantize(x), ..)` is bitwise-identical to
/// [`fake_quant`]`(x)` for finite inputs (both compute
/// `round(clamp(v/s)) * s` with the same operand order; only a `-0.0`
/// result comes back as `+0.0`, an `i8` having one zero), so integer-path
/// layers can cache the dequantized activations and leave every backward
/// pass untouched.
pub fn dequantize_into(q: &[i8], shape: impl Into<Shape>, p: QuantParams, out: &mut Tensor) {
    let _timer = Timer::start(KernelOp::Quant);
    out.resize(shape.into());
    let od = out.data_mut();
    assert_eq!(q.len(), od.len(), "dequantize_into: length mismatch");
    dequantize_slices(Isa::active(), q, od, p.scale);
}

/// The integer GEMM's epilogue: `out[i] = acc[i] as f32 * scale`, with
/// `scale` the product of both operands' quantization scales.
///
/// # Panics
/// Panics if the lengths differ.
pub fn scale_i32_into(acc: &[i32], scale: f32, out: &mut [f32]) {
    assert_eq!(acc.len(), out.len(), "scale_i32_into: length mismatch");
    scale_i32_slices(Isa::active(), acc, out, scale);
}

/// Quantize-dequantize in f32 (the QAT "fake quantization" transform).
///
/// Forward: `round(clamp(x/s)) * s`. The corresponding backward pass is the
/// straight-through estimator: gradients flow unchanged for values inside the
/// representable range and are zeroed outside; [`ste_mask`] computes that
/// mask.
pub fn fake_quant(t: &Tensor, p: QuantParams) -> Tensor {
    let _timer = Timer::start(KernelOp::Quant);
    let mut out = Tensor::zeros(t.shape().clone());
    fake_quant_slices(Isa::active(), t.data(), out.data_mut(), p.scale, INT8_MAX);
    out
}

/// [`fake_quant`] applied in place: fuses quantize→dequantize into one
/// read-modify-write sweep over the tensor's storage.
pub fn fake_quant_inplace(t: &mut Tensor, p: QuantParams) {
    let _timer = Timer::start(KernelOp::Quant);
    fake_quant_slice_inplace(Isa::active(), t.data_mut(), p.scale, INT8_MAX);
}

/// Straight-through-estimator mask: 1.0 where the value is inside the
/// representable range `±127·scale`, else 0.0.
pub fn ste_mask(t: &Tensor, p: QuantParams) -> Tensor {
    let lim = INT8_MAX * p.scale;
    t.map(|v| if v.abs() <= lim { 1.0 } else { 0.0 })
}

/// Worst-case absolute rounding error of [`fake_quant`] for in-range values:
/// half a quantization step.
pub fn max_rounding_error(p: QuantParams) -> f32 {
    p.scale * 0.5
}

/// INT8×INT8→i32 matrix multiply, dequantized to f32 at the end.
///
/// `a: (m, k)` with params `pa`; `b: (k, n)` with params `pb`. The result
/// equals `dequant(int_gemm(quant(a), quant(b)))`, exactly what an NPU kernel
/// would produce.
///
/// # Panics
/// Panics if the inner dimensions disagree or buffer lengths are wrong.
pub fn quantized_matmul(
    a: &[i8],
    pa: QuantParams,
    b: &[i8],
    pb: QuantParams,
    m: usize,
    k: usize,
    n: usize,
) -> Tensor {
    assert_eq!(a.len(), m * k, "lhs buffer length");
    assert_eq!(b.len(), k * n, "rhs buffer length");
    // Pack Bᵀ so both operands of every dot product are contiguous, then run
    // the register-blocked integer kernel. i32 accumulation is exact, so the
    // packing changes nothing numerically.
    let mut bt = vec![0i8; n * k];
    for (p, brow) in b.chunks_exact(n).enumerate() {
        for (j, &bv) in brow.iter().enumerate() {
            bt[j * k + p] = bv;
        }
    }
    let mut acc = vec![0i32; m * n];
    crate::linalg::matmul_i8_a_bt_slices(a, &bt, &mut acc, m, k, n);
    let mut out = Tensor::zeros([m, n]);
    scale_i32_into(&acc, pa.scale * pb.scale, out.data_mut());
    out
}

/// Adds simulated quantization noise to a gradient tensor, as integer
/// training does when gradients themselves are kept in INT8.
///
/// The noise is deterministic (hash of the index and `seed`), uniform in
/// ±half a quantization step of the gradient's own scale — the worst-case
/// rounding error model used in integer-training analyses.
pub fn gradient_quant_noise(grad: &Tensor, seed: u64) -> Tensor {
    let mut out = Tensor::default();
    gradient_quant_noise_into(grad, seed, &mut out);
    out
}

/// [`gradient_quant_noise`] writing into `out`, reusing its storage.
pub fn gradient_quant_noise_into(grad: &Tensor, seed: u64, out: &mut Tensor) {
    let _timer = Timer::start(KernelOp::Quant);
    let p = QuantParams::from_tensor(grad);
    let half = max_rounding_error(p);
    out.resize(grad.shape().clone());
    quant_noise_slices(Isa::active(), grad.data(), out.data_mut(), seed, half);
}

isa_kernel! {
    /// `dst[i] = src[i] + noise(i, seed)`, uniform in `±half`.
    fn quant_noise_slices(src: &[f32], dst: &mut [f32], seed: u64, half: f32) = quant_noise_body;
}

#[inline(always)]
fn quant_noise_body(src: &[f32], dst: &mut [f32], seed: u64, half: f32) {
    for (i, (o, &g)) in dst.iter_mut().zip(src).enumerate() {
        let mut h = seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51AFD7ED558CCD);
        h ^= h >> 33;
        let u = (h >> 11) as f32 / (1u64 << 53) as f32; // [0,1)
        *o = g + (2.0 * u - 1.0) * half;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_roundtrip_within_half_step() {
        let t = Tensor::from_vec(vec![-1.0, -0.33, 0.0, 0.5, 0.99, 1.27], [6]);
        let p = QuantParams::from_tensor(&t);
        let q = quantize(&t, p);
        let back = dequantize(&q, [6], p);
        for (orig, rec) in t.data().iter().zip(back.data()) {
            assert!((orig - rec).abs() <= max_rounding_error(p) + 1e-6);
        }
    }

    #[test]
    fn extremes_map_to_127() {
        let t = Tensor::from_vec(vec![-2.0, 2.0], [2]);
        let p = QuantParams::from_tensor(&t);
        let q = quantize(&t, p);
        assert_eq!(q, vec![-127, 127]);
    }

    #[test]
    fn zero_tensor_roundtrips() {
        let t = Tensor::zeros([4]);
        let p = QuantParams::from_tensor(&t);
        assert_eq!(p.scale, 1.0);
        let q = quantize(&t, p);
        assert_eq!(dequantize(&q, [4], p), t);
    }

    #[test]
    fn fake_quant_equals_quant_dequant() {
        let t = Tensor::from_vec((0..64).map(|i| (i as f32 * 0.37).sin()).collect(), [64]);
        let p = QuantParams::from_tensor(&t);
        let fq = fake_quant(&t, p);
        let qd = dequantize(&quantize(&t, p), [64], p);
        for (a, b) in fq.data().iter().zip(qd.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn fused_variants_match_allocating() {
        let t = Tensor::from_vec((0..96).map(|i| (i as f32 * 0.37).sin()).collect(), [96]);
        let p = QuantParams::from_tensor(&t);
        let mut inplace = t.clone();
        fake_quant_inplace(&mut inplace, p);
        assert_eq!(inplace, fake_quant(&t, p));

        for f in [
            QuantFormat::Int4,
            QuantFormat::Int8,
            QuantFormat::Int16,
            QuantFormat::Fp16,
        ] {
            // recycled buffer of the wrong shape must be resized + overwritten
            let mut out = Tensor::full([3], 9.0);
            f.fake_quant_into(&t, &mut out);
            assert_eq!(out, f.fake_quant(&t));
        }

        let mut noisy = Tensor::default();
        gradient_quant_noise_into(&t, 42, &mut noisy);
        assert_eq!(noisy, gradient_quant_noise(&t, 42));
    }

    #[test]
    fn ste_mask_zeroes_out_of_range() {
        let p = QuantParams { scale: 0.01 }; // range ±1.27
        let t = Tensor::from_vec(vec![0.5, -1.2, 2.0, -3.0], [4]);
        assert_eq!(ste_mask(&t, p).data(), &[1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn quantized_matmul_close_to_f32() {
        let m = 4;
        let k = 6;
        let n = 5;
        let a = Tensor::from_vec(
            (0..m * k).map(|i| (i as f32 * 0.13).sin()).collect(),
            [m, k],
        );
        let b = Tensor::from_vec(
            (0..k * n).map(|i| (i as f32 * 0.29).cos()).collect(),
            [k, n],
        );
        let pa = QuantParams::from_tensor(&a);
        let pb = QuantParams::from_tensor(&b);
        let qa = quantize(&a, pa);
        let qb = quantize(&b, pb);
        let qres = quantized_matmul(&qa, pa, &qb, pb, m, k, n);
        let fres = crate::linalg::matmul(&a, &b);
        // Error per output element is bounded by k * (sa*|b| + sb*|a| + sa*sb) / 2-ish;
        // for unit-magnitude inputs a loose bound of k * 2.5 * max_step suffices.
        let tol = k as f32 * 1.5 * (pa.scale + pb.scale);
        for (qv, fv) in qres.data().iter().zip(fres.data()) {
            assert!((qv - fv).abs() <= tol, "{qv} vs {fv} (tol {tol})");
        }
    }

    #[test]
    fn quantized_matmul_matches_widened_reference_exactly() {
        // The integer path is exact: i32 accumulation with one f32 scale at
        // the end must reproduce the naive widened product bit for bit.
        let (m, k, n) = (7, 19, 11);
        let mut state = 0x5EEDu64;
        let mut next_i8 = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as i8
        };
        let a: Vec<i8> = (0..m * k).map(|_| next_i8()).collect();
        let b: Vec<i8> = (0..k * n).map(|_| next_i8()).collect();
        let pa = QuantParams { scale: 0.031 };
        let pb = QuantParams { scale: 0.27 };
        let got = quantized_matmul(&a, pa, &b, pb, m, k, n);
        let s = pa.scale * pb.scale;
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0i32;
                for p in 0..k {
                    acc += a[i * k + p] as i32 * b[p * n + j] as i32;
                }
                assert_eq!(got.data()[i * n + j], acc as f32 * s);
            }
        }
    }

    #[test]
    fn into_variants_match_allocating_quantize() {
        let t = Tensor::from_vec(
            (0..24).map(|i| ((i as f32) * 0.7).sin() * 2.0).collect(),
            [4, 6],
        );
        let p = QuantParams::from_tensor(&t);

        let mut q = vec![5i8; 3]; // wrong size: must be cleared and refilled
        quantize_into(&t, p, &mut q);
        assert_eq!(q, quantize(&t, p));

        let mut back = Tensor::full([2], 9.0);
        dequantize_into(&q, [4, 6], p, &mut back);
        assert_eq!(back, dequantize(&q, [4, 6], p));

        // dequantize(quantize(x)) must be bitwise-identical to fake_quant(x):
        // integer-path layers rely on this to cache activations for backward.
        let fq = fake_quant(&t, p);
        assert_eq!(
            back.data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u32>>(),
            fq.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        );

        // transposed quantization == quantize(transpose)
        let mut qt = Vec::new();
        quantize_transposed_into(&t, p, &mut qt);
        let tt = crate::linalg::transpose(&t);
        assert_eq!(qt, quantize(&tt, p));
    }

    #[test]
    fn formats_rank_by_fidelity() {
        // finer formats must reconstruct with smaller error
        let t = Tensor::from_vec(
            (0..256).map(|i| ((i as f32) * 0.41).sin() * 3.0).collect(),
            [256],
        );
        let err = |f: QuantFormat| f.fake_quant(&t).sub(&t).l2_norm();
        let (e4, e8, e16) = (
            err(QuantFormat::Int4),
            err(QuantFormat::Int8),
            err(QuantFormat::Int16),
        );
        let ef16 = err(QuantFormat::Fp16);
        assert!(e4 > e8, "INT4 {e4} must be coarser than INT8 {e8}");
        assert!(e8 > e16, "INT8 {e8} must be coarser than INT16 {e16}");
        assert!(ef16 < e8, "FP16 {ef16} should beat INT8 {e8} on this range");
    }

    #[test]
    fn format_fake_quant_matches_int8_path() {
        let t = Tensor::from_vec((0..64).map(|i| (i as f32 * 0.37).sin()).collect(), [64]);
        let via_format = QuantFormat::Int8.fake_quant(&t);
        let via_params = fake_quant(&t, QuantParams::from_tensor(&t));
        for (a, b) in via_format.data().iter().zip(via_params.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn fp16_round_properties() {
        // exactly representable values survive
        for v in [0.0f32, 1.0, -2.5, 0.125, 65504.0] {
            assert_eq!(fp16_round(v), v, "{v}");
        }
        // overflow clamps
        assert_eq!(fp16_round(1e6), 65504.0);
        assert_eq!(fp16_round(-1e6), -65504.0);
        // relative error below 2^-10 for normal values
        for v in [std::f32::consts::PI, 1234.567, -0.003_456_7] {
            let r = fp16_round(v);
            assert!(((r - v) / v).abs() < 1.0 / 1024.0, "{v} → {r}");
        }
        // idempotent
        let r = fp16_round(std::f32::consts::E);
        assert_eq!(fp16_round(r), r);
    }

    #[test]
    fn wire_bytes_per_format() {
        assert_eq!(QuantFormat::Int4.wire_bytes(), 0.5);
        assert_eq!(QuantFormat::Int8.wire_bytes(), 1.0);
        assert_eq!(QuantFormat::Fp16.wire_bytes(), 2.0);
    }

    #[test]
    fn gradient_noise_bounded_and_deterministic() {
        let g = Tensor::from_vec((0..32).map(|i| (i as f32 - 16.0) * 0.1).collect(), [32]);
        let p = QuantParams::from_tensor(&g);
        let n1 = gradient_quant_noise(&g, 42);
        let n2 = gradient_quant_noise(&g, 42);
        assert_eq!(n1, n2, "same seed must give identical noise");
        let n3 = gradient_quant_noise(&g, 43);
        assert_ne!(n1, n3, "different seeds should differ");
        let half = max_rounding_error(p);
        for (orig, noisy) in g.data().iter().zip(n1.data()) {
            assert!((orig - noisy).abs() <= half + 1e-6);
        }
    }

    /// Inputs every sweep must agree on across instantiations: exact ties
    /// of both signs (`x.5 · scale` for a power-of-two scale), ±0, ±∞, NaN
    /// with and without payload, values far beyond `±127 · scale`,
    /// subnormals and a smooth ramp — 1003 values, not a multiple of 8.
    fn edge_values(scale: f32) -> Vec<f32> {
        let mut v = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7FC0_1234),
            f32::from_bits(0xFFC0_00AB),
            1e30,
            -1e30,
            200.0 * scale,
            -200.0 * scale,
            127.49 * scale,
            -127.51 * scale,
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 4.0,
        ];
        for x in 0..130 {
            v.push((x as f32 + 0.5) * scale);
            v.push(-(x as f32 + 0.5) * scale);
        }
        let ramp = 1003 - v.len();
        v.extend((0..ramp).map(|i| (i as f32 * 0.731).sin() * 140.0 * scale));
        v
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every slice sweep on `isa`, over `src` at `scale`, as comparable bits.
    fn all_sweeps(isa: Isa, src: &[f32], scale: f32) -> Vec<Vec<u32>> {
        let n = src.len();
        let mut out = Vec::new();
        for gm in [7.0, INT8_MAX, 32767.0] {
            let mut fq = vec![f32::NAN; n];
            fake_quant_slices(isa, src, &mut fq, scale, gm);
            let mut inplace = src.to_vec();
            fake_quant_slice_inplace(isa, &mut inplace, scale, gm);
            assert_eq!(bits(&fq), bits(&inplace), "in place vs out of place, ±{gm}");
            out.push(bits(&fq));
        }
        let mut q = vec![55i8; n];
        quantize_slices(isa, src, &mut q, scale);
        out.push(q.iter().map(|&b| b as u32).collect());
        let (r, c) = (17, n / 17); // 17 × 59: both off the 32-tile grid
        let mut qt = vec![55i8; r * c];
        quantize_transposed_slices(isa, &src[..r * c], &mut qt, r, c, scale);
        out.push(qt.iter().map(|&b| b as u32).collect());
        let mut dq = vec![f32::NAN; n];
        dequantize_slices(isa, &q, &mut dq, scale);
        out.push(bits(&dq));
        let acc: Vec<i32> = (0..n as i32).map(|i| (i - 500) * 16_411).collect();
        let mut scaled = vec![f32::NAN; n];
        scale_i32_slices(isa, &acc, &mut scaled, scale);
        out.push(bits(&scaled));
        let mut noisy = vec![f32::NAN; n];
        quant_noise_slices(isa, src, &mut noisy, 0xC0FFEE, scale * 0.5);
        out.push(bits(&noisy));
        out
    }

    /// Portable and AVX2 instantiations of every quant sweep are bitwise
    /// equal on ties, signed zeros, infinities, NaNs, out-of-range values, an
    /// all-zero tensor and a length that is not a multiple of 8.
    #[test]
    fn sweeps_agree_across_instantiations_bitwise() {
        let Some(avx2) = crate::isa::avx2_or_skip("sweeps_agree_across_instantiations_bitwise")
        else {
            return;
        };
        for scale in [0.25, 0.0371, 1.0] {
            for src in [edge_values(scale), vec![0.0; 1003], vec![-0.0; 13]] {
                let portable = all_sweeps(Isa::PORTABLE, &src, scale);
                let wide = all_sweeps(avx2, &src, scale);
                for (i, (p, w)) in portable.iter().zip(&wide).enumerate() {
                    assert_eq!(p, w, "sweep {i} at scale {scale}");
                }
            }
        }
    }

    /// The slice kernels compute exactly the documented scalar formulas —
    /// `round` is half away from zero (not `cvtps`'s half-even), the clamp
    /// saturates, NaN quantizes to 0 — whichever instantiation runs.
    #[test]
    fn sweeps_match_the_scalar_definitions() {
        let avx2 = crate::isa::avx2_or_skip("sweeps_match_the_scalar_definitions");
        let isas = [Some(Isa::PORTABLE), avx2];
        for isa in isas.into_iter().flatten() {
            for scale in [0.25, 0.0371] {
                let p = QuantParams { scale };
                let src = edge_values(scale);
                let mut q = vec![0i8; src.len()];
                quantize_slices(isa, &src, &mut q, scale);
                let mut fq = vec![0.0; src.len()];
                fake_quant_slices(isa, &src, &mut fq, scale, INT8_MAX);
                for ((&v, &qi), &f) in src.iter().zip(&q).zip(&fq) {
                    assert_eq!(qi, p.quantize_value(v), "quantize({v}) on {}", isa.name());
                    let want = (v / scale).round().clamp(-INT8_MAX, INT8_MAX) * scale;
                    assert_eq!(f.to_bits(), want.to_bits(), "fake_quant({v})");
                    if !v.is_nan() {
                        // the integer path caches this in place of fake_quant
                        // (an `i8` has no -0, so that one sign is lost)
                        let cached = p.dequantize_value(qi);
                        assert_eq!(cached, f, "{v}");
                        assert!(
                            cached.to_bits() == f.to_bits() || f.to_bits() == (-0.0f32).to_bits()
                        );
                    }
                }
            }
            // exact ties: 2.5 → 3, -2.5 → -3, 0.5 → 1 (half-even would give 2, -2, 0)
            let mut q = [0i8; 4];
            quantize_slices(isa, &[0.625, -0.625, 0.125, 31.875], &mut q, 0.25);
            assert_eq!(q, [3, -3, 1, 127]);
        }
    }

    /// The public entry points run the same sweeps, so they equal the
    /// portable slice kernels bit for bit on this host's dispatched path.
    #[test]
    fn public_entry_points_match_the_portable_sweeps() {
        let scale = 0.0371;
        let p = QuantParams { scale };
        let src = edge_values(scale);
        let n = src.len();
        let t = Tensor::from_vec(src.clone(), [n]);
        let want = all_sweeps(Isa::PORTABLE, &src, scale);

        assert_eq!(bits(fake_quant(&t, p).data()), want[1]);
        let mut inplace = t.clone();
        fake_quant_inplace(&mut inplace, p);
        assert_eq!(bits(inplace.data()), want[1]);

        let mut q = vec![1i8; 3];
        quantize_into(&t, p, &mut q);
        assert_eq!(q.iter().map(|&b| b as u32).collect::<Vec<_>>(), want[3]);
        assert_eq!(q, quantize(&t, p));
        let (r, c) = (17, n / 17);
        let mut qt = Vec::new();
        let t2 = Tensor::from_vec(src[..r * c].to_vec(), [r, c]);
        quantize_transposed_into(&t2, p, &mut qt);
        assert_eq!(qt.iter().map(|&b| b as u32).collect::<Vec<_>>(), want[4]);
        let mut dq = Tensor::default();
        dequantize_into(&q, [n], p, &mut dq);
        assert_eq!(bits(dq.data()), want[5]);
        assert_eq!(bits(dequantize(&q, [n], p).data()), want[5]);

        // Format-level fake quant picks its own scale from max-|x|; finite
        // input only (an infinite max makes every quotient NaN or 0).
        let finite: Vec<f32> = src.iter().copied().filter(|v| v.is_finite()).collect();
        let tf = Tensor::from_vec(finite.clone(), [finite.len()]);
        for f in [QuantFormat::Int4, QuantFormat::Int8, QuantFormat::Int16] {
            let s = tf.abs_max() / f.grid_max();
            let mut want = vec![0.0; finite.len()];
            fake_quant_slices(Isa::PORTABLE, &finite, &mut want, s, f.grid_max());
            assert_eq!(bits(f.fake_quant(&tf).data()), bits(&want), "{f}");
        }
    }
}
