//! Symmetric per-tensor INT8 quantization.
//!
//! This module provides the numeric substrate for SoCFlow's NPU training
//! path. Mobile NPUs (Hexagon DSP and friends) execute INT8 multiply-
//! accumulate with i32 accumulators; training on them requires quantizing
//! weights, activations and gradients. We implement:
//!
//! - [`QuantParams`]: a symmetric scale chosen from the tensor's max-|x|;
//! - [`quantize_into`] / [`dequantize_into`] round-trips, and
//!   [`quantize_dequantize_into`], both in one sweep — what an INT8 layer
//!   feeds its integer kernel and caches for its backward;
//! - [`fake_quant`]: quantize-dequantize in f32, the standard
//!   quantization-aware-training forward transform whose backward is the
//!   straight-through estimator (identity inside the clip range);
//! - [`scale_i32_bias_into`]: the i32→f32 epilogue of the INT8×INT8→i32
//!   GEMMs (the integer kernels in [`crate::linalg`], the execution path of
//!   the mixed-precision INT8 replica arm), applying both per-tensor scales
//!   once and a layer's bias;
//! - [`add_gradient_quant_noise`]: the INT8 arm's gradient noise.
//!
//! The NiTi-style integer optimizer in `socflow-nn` builds on these
//! primitives.
//!
//! The elementwise sweeps are slice loops instantiated three times
//! (portable, AVX2 and AVX-512, see [`crate::isa`]); every element is
//! computed independently with the same scalar operations — `round` is
//! half-away-from-zero on all three — so they agree bit for bit.
//!
//! **The noise sweep blocks lanes.** Its hash of element `i` starts from
//! `seed ^ i·G` and runs a 64-bit finalizer (`xor-shift`, a multiply,
//! `xor-shift`); the top 53 bits become `u` in `[0, 1)`. Written one
//! element at a time that vectorizes at no level: `i·G` is a second 64-bit
//! multiply and `u64 → f32` has no lane instruction below AVX-512. So the
//! sweep runs blocks of 16 lanes, each lane keeping its own `i·G` and
//! adding `16·G` per block — the same product mod 2⁶⁴ — and converts the
//! 53-bit value exactly: `x < 2⁵³` is below `2⁶³`, so `x as i64 as f32`
//! (one AVX-512 DQ instruction) rounds exactly as `x as f32`, and below
//! AVX-512 the low 52 bits become an `f64` through the exponent of `2⁵²`
//! (exact), bit 52 adds `2⁵²` (exact), and the one rounding is the `f64 →
//! f32` conversion of that exact value. A test holds every instantiation
//! to the scalar loop it replaced, bit for bit.

use crate::isa::{isa_kernel, Isa};
use crate::profile::{KernelOp, Timer};
use crate::{Shape, Tensor};

/// Quantization range of signed INT8 (symmetric; -128 is unused so the range
/// is symmetric around zero, as in most NPU kernels).
pub const INT8_MAX: f32 = 127.0;

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
        QuantParams::from_abs_max(t.abs_max())
    }

    /// The scale that maps the largest magnitude `m` to ±127; `1.0` when
    /// `m` is zero.
    pub(crate) fn from_abs_max(m: f32) -> Self {
        QuantParams {
            scale: if m == 0.0 { 1.0 } else { m / INT8_MAX },
        }
    }
}

isa_kernel! {
    /// `dst[i] = round(clamp(src[i] / scale)) * scale` on the `±127` grid.
    fn fake_quant_slices(src: &[f32], dst: &mut [f32], scale: f32) = fake_quant_body;
}

#[inline(always)]
fn fake_quant_body(src: &[f32], dst: &mut [f32], scale: f32) {
    for (o, &v) in dst.iter_mut().zip(src) {
        *o = (v / scale).round().clamp(-INT8_MAX, INT8_MAX) * scale;
    }
}

/// `round(clamp(v / scale))` on the INT8 grid, for the slice kernels,
/// without the float→int `as` that LLVM converts one lane at a time. The
/// clamped value `q` is an integer in `±127` or NaN; `q + 1.5·2²³` is then
/// exact and its bit pattern is `0x4B40_0000 + q`, so the low byte *is*
/// `q as i8`. NaN (any payload) maps to 0, as `as i8` does.
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
    /// `dst[i] = to_i8_grid(src[i])`.
    pub(crate) fn quantize_slices(src: &[f32], dst: &mut [i8], scale: f32) = quantize_body;
}

#[inline(always)]
fn quantize_body(src: &[f32], dst: &mut [i8], scale: f32) {
    for (o, &v) in dst.iter_mut().zip(src) {
        *o = to_i8_grid(v, scale);
    }
}

isa_kernel! {
    /// `q[i] = to_i8_grid(v[i])`, then `v[i] = q[i] as f32 * scale`, one
    /// sweep: [`quantize_slices`] and [`dequantize_slices`] back into `v`,
    /// fused.
    pub(crate) fn quantize_dequantize_slices(v: &mut [f32], q: &mut [i8], scale: f32)
        = quantize_dequantize_body;
}

#[inline(always)]
fn quantize_dequantize_body(v: &mut [f32], q: &mut [i8], scale: f32) {
    for (x, o) in v.iter_mut().zip(q.iter_mut()) {
        *o = to_i8_grid(*x, scale);
        *x = *o as f32 * scale;
    }
}

isa_kernel! {
    /// `dst[i] = grid_value(src[i])`.
    pub(crate) fn grid_slices(src: &[f32], dst: &mut [f32], scale: f32) = grid_body;
}

#[inline(always)]
fn grid_body(src: &[f32], dst: &mut [f32], scale: f32) {
    for (o, &v) in dst.iter_mut().zip(src) {
        *o = grid_value(v, scale);
    }
}

/// `to_i8_grid(v) as f32`: the INT8 value of `v` as an `f32` integer, the
/// operand of a product that is exact in `f32` ([`crate::conv`]'s direct
/// INT8 forward). The clamped `q` is that integer already, or NaN, or
/// `−0.0`; NaN becomes `0.0` and `+ 0.0` turns `−0.0` into `+0.0`, as the
/// `i8`, which has one zero, does.
#[inline(always)]
pub(crate) fn grid_value(v: f32, scale: f32) -> f32 {
    let q = (v / scale).round().clamp(-INT8_MAX, INT8_MAX);
    if q.is_nan() {
        0.0
    } else {
        q + 0.0
    }
}

isa_kernel! {
    /// `v[i] *= scale`, in place: [`grid_value`]s dequantized, `q as f32 *
    /// scale` as [`dequantize_slices`] computes it.
    pub(crate) fn scale_slices(v: &mut [f32], scale: f32) = scale_body;
}

#[inline(always)]
fn scale_body(v: &mut [f32], scale: f32) {
    for x in v.iter_mut() {
        *x *= scale;
    }
}

isa_kernel! {
    /// `dst[i] = src[i] as f32 * scale`.
    pub(crate) fn dequantize_slices(src: &[i8], dst: &mut [f32], scale: f32) = dequantize_body;
}

#[inline(always)]
fn dequantize_body(src: &[i8], dst: &mut [f32], scale: f32) {
    for (o, &q) in dst.iter_mut().zip(src) {
        *o = q as f32 * scale;
    }
}

isa_kernel! {
    /// `dst[i] = src[i] as f32 * scale` over `i32` accumulators.
    pub(crate) fn scale_i32_slices(src: &[i32], dst: &mut [f32], scale: f32) = scale_i32_body;
}

#[inline(always)]
fn scale_i32_body(src: &[i32], dst: &mut [f32], scale: f32) {
    for (o, &v) in dst.iter_mut().zip(src) {
        *o = v as f32 * scale;
    }
}

isa_kernel! {
    /// `dst[r][c] = src[r][c] as f32 * scale + bias[c]`, rows of
    /// `bias.len()`: the epilogue and a layer's bias in one sweep.
    fn scale_i32_bias_slices(src: &[i32], bias: &[f32], dst: &mut [f32], scale: f32)
        = scale_i32_bias_body;
}

#[inline(always)]
fn scale_i32_bias_body(src: &[i32], bias: &[f32], dst: &mut [f32], scale: f32) {
    let cols = bias.len().max(1);
    for (orow, arow) in dst.chunks_exact_mut(cols).zip(src.chunks_exact(cols)) {
        for ((o, &v), &b) in orow.iter_mut().zip(arow).zip(bias) {
            *o = v as f32 * scale + b;
        }
    }
}

/// Quantizes an f32 tensor to INT8 with the given parameters, into a
/// caller-owned buffer (cleared and refilled), so steady-state integer
/// forwards allocate nothing.
pub fn quantize_into(t: &Tensor, p: QuantParams, out: &mut Vec<i8>) {
    let _timer = Timer::start(KernelOp::Quant);
    out.resize(t.len(), 0);
    quantize_slices(Isa::active(), t.data(), out, p.scale);
}

/// Dequantizes an INT8 buffer into `out` at the given shape, reusing its
/// storage.
///
/// `dequantize_into(quantize_into(x), ..)` is bitwise-identical to
/// [`fake_quant`]`(x)` for finite inputs (both compute
/// `round(clamp(v/s)) * s` with the same operand order; only a `-0.0`
/// result comes back as `+0.0`, an `i8` having one zero), so integer-path
/// layers can cache the dequantized activations and leave every backward
/// pass untouched.
///
/// # Panics
/// Panics if `q.len() != shape.len()`.
pub fn dequantize_into(q: &[i8], shape: impl Into<Shape>, p: QuantParams, out: &mut Tensor) {
    let _timer = Timer::start(KernelOp::Quant);
    out.resize(shape.into());
    let od = out.data_mut();
    assert_eq!(q.len(), od.len(), "dequantize_into: length mismatch");
    dequantize_slices(Isa::active(), q, od, p.scale);
}

/// [`quantize_into`] that also leaves the dequantized values — what the
/// integer kernel consumes, as `f32` — in `dequantized`, at `t`'s shape: a
/// copy of `t` quantized and dequantized in place in one sweep, bit for bit
/// [`dequantize_into`] of the quantized values.
pub fn quantize_dequantize_into(
    t: &Tensor,
    p: QuantParams,
    out: &mut Vec<i8>,
    dequantized: &mut Tensor,
) {
    let _timer = Timer::start(KernelOp::Quant);
    out.resize(t.len(), 0);
    dequantized.resize(t.shape().clone());
    dequantized.data_mut().copy_from_slice(t.data());
    quantize_dequantize_slices(Isa::active(), dequantized.data_mut(), out, p.scale);
}

/// The integer GEMM's epilogue with a layer's bias: `out[r][c] = acc[r][c]
/// as f32 * scale + bias[c]`, with `scale` the product of both operands'
/// quantization scales — the epilogue and a row-broadcast add of `bias`,
/// in one sweep and the same two roundings.
///
/// # Panics
/// Panics if `out` is not `acc.len()` elements in rows of `bias.len()`.
pub fn scale_i32_bias_into(acc: &[i32], scale: f32, bias: &Tensor, out: &mut Tensor) {
    let (_, cols) = out.shape().as_matrix();
    assert_eq!(
        (acc.len(), cols),
        (out.len(), bias.len()),
        "scale_i32_bias_into: shapes"
    );
    scale_i32_bias_slices(Isa::active(), acc, bias.data(), out.data_mut(), scale);
}

/// Quantize-dequantize in f32 (the QAT "fake quantization" transform).
///
/// Forward: `round(clamp(x/s)) * s`. The corresponding backward pass is the
/// straight-through estimator: gradients flow unchanged for values inside
/// the representable range.
pub fn fake_quant(t: &Tensor, p: QuantParams) -> Tensor {
    let _timer = Timer::start(KernelOp::Quant);
    let mut out = Tensor::zeros(t.shape().clone());
    fake_quant_slices(Isa::active(), t.data(), out.data_mut(), p.scale);
    out
}

/// Worst-case absolute rounding error of [`fake_quant`] for in-range values:
/// half a quantization step.
pub fn max_rounding_error(p: QuantParams) -> f32 {
    p.scale * 0.5
}

/// Adds simulated quantization noise to a gradient tensor in place, as
/// integer training does when gradients themselves are kept in INT8.
///
/// The noise is deterministic (hash of the index and `seed`), uniform in
/// ±half a quantization step of the gradient's own scale — the worst-case
/// rounding error model used in integer-training analyses. With `settle`
/// every noisy value is also added to `+0.0`, in the same pass: the bits a
/// step's first gradient takes when it is added to a zeroed accumulator
/// (`−0.0` becomes `+0.0`).
pub fn add_gradient_quant_noise(grad: &mut Tensor, seed: u64, settle: bool) {
    let _timer = Timer::start(KernelOp::Quant);
    let half = max_rounding_error(QuantParams::from_tensor(grad));
    quant_noise_slices(Isa::active(), grad.data_mut(), seed, half, settle);
}

isa_kernel! {
    /// `g[i] += noise(i, seed)`, uniform in `±half`, then `+ 0.0` when
    /// `settle`. The AVX-512 level converts the hash with its own `i64`
    /// lanes ([`u53_to_f32`]).
    fn quant_noise_slices(g: &mut [f32], seed: u64, half: f32, settle: bool)
        = quant_noise_body::<false>, avx512: quant_noise_body::<true>;
}

#[inline(always)]
fn quant_noise_body<const I64: bool>(g: &mut [f32], seed: u64, half: f32, settle: bool) {
    match settle {
        true => quant_noise_run::<I64>(g, seed, half, |v| v + 0.0),
        false => quant_noise_run::<I64>(g, seed, half, |v| v),
    }
}

/// Lanes of one block of the noise sweep: sixteen `u64` hashes, two
/// AVX-512 registers or four AVX2 ones.
const NOISE_LANES: usize = 16;

/// The index multiplier of the noise hash (the golden ratio in 64 bits).
const NOISE_INDEX_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// `g[i] = then(g[i] + noise)`, [`NOISE_LANES`] elements a block: each
/// lane keeps its `i · NOISE_INDEX_MUL` and adds `NOISE_LANES ·
/// NOISE_INDEX_MUL` per block, the same product mod 2⁶⁴ without a second
/// 64-bit multiply; the tail's lanes hold their products when the blocks
/// run out.
#[inline(always)]
fn quant_noise_run<const I64: bool>(
    g: &mut [f32],
    seed: u64,
    half: f32,
    then: impl Fn(f32) -> f32,
) {
    let mut index: [u64; NOISE_LANES] =
        std::array::from_fn(|l| (l as u64).wrapping_mul(NOISE_INDEX_MUL));
    let advance = (NOISE_LANES as u64).wrapping_mul(NOISE_INDEX_MUL);
    let mut blocks = g.chunks_exact_mut(NOISE_LANES);
    for block in &mut blocks {
        let block: &mut [f32; NOISE_LANES] = block.try_into().unwrap();
        for (v, i) in block.iter_mut().zip(&mut index) {
            *v = then(*v + noise::<I64>(seed ^ *i, half));
            *i = i.wrapping_add(advance);
        }
    }
    for (v, &i) in blocks.into_remainder().iter_mut().zip(&index) {
        *v = then(*v + noise::<I64>(seed ^ i, half));
    }
}

/// The noise of hash input `h` (the seed xor the index product): a 64-bit
/// finalizer, its top 53 bits as a uniform `u` in `[0, 1)`, and `(2u − 1)
/// · half`.
#[inline(always)]
fn noise<const I64: bool>(mut h: u64, half: f32) -> f32 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    let u = u53_to_f32::<I64>(h >> 11) / (1u64 << 53) as f32; // [0,1)
    (2.0 * u - 1.0) * half
}

/// `x as f32` for `x < 2⁵³`, rounded to nearest even as `u64 as f32` is.
/// With `I64` it is `x as i64 as f32` — the same value, `x` being below
/// `2⁶³` — one instruction at AVX-512 (DQ), lane by lane below it.
/// Without, it is built from lane operations every level has: the low 52
/// bits become an `f64` through the exponent of `2⁵²` (`2⁵² + m` has
/// mantissa `m`, so the subtraction is exact), bit 52 adds `2⁵²` exactly,
/// and the one rounding is the `f64 → f32` conversion of that exact value.
#[inline(always)]
fn u53_to_f32<const I64: bool>(x: u64) -> f32 {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    if I64 {
        return x as i64 as f32;
    }
    let low = f64::from_bits(TWO_52.to_bits() | (x & ((1 << 52) - 1))) - TWO_52;
    let top = if x >> 52 != 0 { TWO_52 } else { 0.0 };
    (low + top) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`quantize_into`] into a fresh buffer.
    fn quantize(t: &Tensor, p: QuantParams) -> Vec<i8> {
        let mut out = Vec::new();
        quantize_into(t, p, &mut out);
        out
    }

    /// [`dequantize_into`] into a fresh tensor.
    fn dequantize(q: &[i8], shape: impl Into<Shape>, p: QuantParams) -> Tensor {
        let mut out = Tensor::default();
        dequantize_into(q, shape, p, &mut out);
        out
    }

    /// [`add_gradient_quant_noise`] on a copy of `grad`, not settled.
    fn gradient_quant_noise(grad: &Tensor, seed: u64) -> Tensor {
        let mut out = grad.clone();
        add_gradient_quant_noise(&mut out, seed, false);
        out
    }

    /// INT8×INT8→i32 matrix multiply of `a: (m, k)` and `b: (k, n)`,
    /// dequantized at the end: the integer kernel plus its epilogue, as the
    /// INT8 layers run them.
    fn quantized_matmul(
        a: &[i8],
        pa: QuantParams,
        b: &[i8],
        pb: QuantParams,
        (m, k, n): (usize, usize, usize),
    ) -> Tensor {
        let mut bt = vec![0i8; n * k];
        for (p, brow) in b.chunks_exact(n).enumerate() {
            for (j, &bv) in brow.iter().enumerate() {
                bt[j * k + p] = bv;
            }
        }
        let mut acc = vec![0i32; m * n];
        crate::linalg::matmul_i8_a_bt_slices(a, &bt, &mut acc, m, k, n);
        let mut out = Tensor::zeros([m, n]);
        scale_i32_slices(Isa::active(), &acc, out.data_mut(), pa.scale * pb.scale);
        out
    }

    /// The scalar definition the quantizing sweeps are pinned to.
    fn quantize_value(v: f32, scale: f32) -> i8 {
        (v / scale).round().clamp(-INT8_MAX, INT8_MAX) as i8
    }

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

    /// The settled noise is the noisy gradient plus `+0.0`, one pass
    /// instead of two, bit for bit. A gradient whose largest magnitude is
    /// the smallest subnormal has a zero noise step, so its `−0.0`s stay
    /// `−0.0` unsettled — the one case the `+0.0` changes.
    #[test]
    fn fused_variants_match_allocating() {
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let smooth = (0..96).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut tiny = vec![-0.0f32; 96];
        tiny[95] = f32::from_bits(1);
        for values in [smooth, tiny] {
            let t = Tensor::from_vec(values, [96]);
            let mut settled = t.clone();
            add_gradient_quant_noise(&mut settled, 42, true);
            let mut twice = gradient_quant_noise(&t, 42);
            let negative_zeros = twice
                .data()
                .iter()
                .filter(|x| x.to_bits() == 1 << 31)
                .count();
            twice.data_mut().iter_mut().for_each(|x| *x += 0.0);
            assert_eq!(bits(&settled), bits(&twice));
            assert!(settled.data().iter().all(|x| x.to_bits() != 1 << 31));
            if t.data()[0].to_bits() == 1 << 31 {
                assert!(negative_zeros > 0, "unsettled noise keeps some −0.0");
            }
        }
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
        let qres = quantized_matmul(&qa, pa, &qb, pb, (m, k, n));
        let mut fres = Tensor::default();
        crate::linalg::matmul_into(&a, &b, &mut fres);
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
        let got = quantized_matmul(&a, pa, &b, pb, (m, k, n));
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

        // the fused sweep leaves both, into wrongly sized buffers
        let (mut q2, mut back2) = (vec![5i8; 3], Tensor::full([2], 9.0));
        quantize_dequantize_into(&t, p, &mut q2, &mut back2);
        assert_eq!(q2, q);
        assert_eq!(bits(back2.data()), bits(back.data()));
        assert_eq!(back2.shape(), t.shape());
    }

    /// An operand fake-quantized at its own scale is, bit for bit, what
    /// the integer path computes with: its INT8 values dequantized.
    #[test]
    fn format_fake_quant_matches_int8_path() {
        let t = Tensor::from_vec((0..64).map(|i| (i as f32 * 0.37).sin()).collect(), [64]);
        let p = QuantParams::from_tensor(&t);
        let fq = fake_quant(&t, p);
        let int8 = dequantize(&quantize(&t, p), [64], p);
        assert_eq!(bits(fq.data()), bits(int8.data()));
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

    /// Every slice sweep on `isa`, over `src` at `scale`, as comparable bits:
    /// fake quant, quantize, the grid values, dequantize, the i32 epilogue,
    /// gradient noise, unsettled and settled, the in-place scale, the fused
    /// quantize and dequantize, and the epilogue with a bias, in that order.
    fn all_sweeps(isa: Isa, src: &[f32], scale: f32) -> Vec<Vec<u32>> {
        let n = src.len();
        let mut out = Vec::new();
        let mut fq = vec![f32::NAN; n];
        fake_quant_slices(isa, src, &mut fq, scale);
        out.push(bits(&fq));
        let mut q = vec![55i8; n];
        quantize_slices(isa, src, &mut q, scale);
        out.push(q.iter().map(|&b| b as u32).collect());
        let mut grid = vec![f32::NAN; n];
        grid_slices(isa, src, &mut grid, scale);
        out.push(bits(&grid));
        let mut dq = vec![f32::NAN; n];
        dequantize_slices(isa, &q, &mut dq, scale);
        out.push(bits(&dq));
        let (acc, _) = epilogue_operands(n);
        let mut scaled = vec![f32::NAN; n];
        scale_i32_slices(isa, &acc, &mut scaled, scale);
        out.push(bits(&scaled));
        for settle in [false, true] {
            let mut noisy = src.to_vec();
            quant_noise_slices(isa, &mut noisy, 0xC0FFEE, scale * 0.5, settle);
            out.push(bits(&noisy));
        }
        let mut scaled = src.to_vec();
        scale_slices(isa, &mut scaled, scale);
        out.push(bits(&scaled));
        let (mut q, mut dq) = (vec![55i8; n], src.to_vec());
        quantize_dequantize_slices(isa, &mut dq, &mut q, scale);
        out.push(q.iter().map(|&b| b as u32).chain(bits(&dq)).collect());
        let (acc, bias) = epilogue_operands(n);
        let rows = n / 17 * 17;
        let mut biased = vec![f32::NAN; rows];
        scale_i32_bias_slices(isa, &acc[..rows], &bias, &mut biased, scale);
        out.push(bits(&biased));
        out
    }

    /// `i32` sums across the epilogue's range for `n` outputs, and a bias
    /// for rows of 17 — off every lane grid — with a NaN, ±∞ and ±0.
    fn epilogue_operands(n: usize) -> (Vec<i32>, Vec<f32>) {
        let acc = (0..n as i32).map(|i| (i - 500) * 16_411).collect();
        let mut bias: Vec<f32> = (0..17).map(|i| (i as f32 * 0.77).sin()).collect();
        bias[..5].copy_from_slice(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0]);
        (acc, bias)
    }

    /// The portable, AVX2 and AVX-512 instantiations of every quant sweep
    /// are bitwise equal on ties, signed zeros, infinities, NaNs,
    /// out-of-range values, an all-zero tensor and lengths that are not a
    /// multiple of 8 or of 16.
    #[test]
    fn sweeps_agree_across_instantiations_bitwise() {
        for isa in crate::isa::wide_or_skip("sweeps_agree_across_instantiations_bitwise") {
            for scale in [0.25, 0.0371, 1.0] {
                for src in [edge_values(scale), vec![0.0; 1003], vec![-0.0; 13]] {
                    let portable = all_sweeps(Isa::PORTABLE, &src, scale);
                    let wide = all_sweeps(isa, &src, scale);
                    for (i, (p, w)) in portable.iter().zip(&wide).enumerate() {
                        assert_eq!(p, w, "sweep {i} at scale {scale}, {}", isa.name());
                    }
                }
            }
        }
    }

    /// The scalar noise loop the lane-blocked sweep replaced, verbatim: the
    /// oracle it is held to.
    fn scalar_quant_noise_run(g: &mut [f32], seed: u64, half: f32, then: impl Fn(f32) -> f32) {
        for (i, g) in g.iter_mut().enumerate() {
            let mut h = seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
            h ^= h >> 33;
            h = h.wrapping_mul(0xFF51AFD7ED558CCD);
            h ^= h >> 33;
            let u = (h >> 11) as f32 / (1u64 << 53) as f32; // [0,1)
            *g = then(*g + (2.0 * u - 1.0) * half);
        }
    }

    /// Every instantiation of the noise sweep equals the scalar loop bit
    /// for bit: every length up to 97 and 1003, settled and not, three
    /// seeds, over NaN, ±∞, ±0, ties and a ramp, at three steps.
    #[test]
    fn noise_sweep_matches_the_scalar_loop_bitwise() {
        let wide = crate::isa::wide_or_skip("noise_sweep_matches_the_scalar_loop_bitwise");
        let lengths = (0..=97).chain([1003]);
        for (isa, len) in [Isa::PORTABLE]
            .into_iter()
            .chain(wide)
            .flat_map(|isa| lengths.clone().map(move |len| (isa, len)))
        {
            for half in [0.125, 0.0371 * 0.5, 3.0e-39] {
                let src = &edge_values(half * 2.0)[..len];
                for seed in [0, 0xC0FFEE, u64::MAX] {
                    for settle in [false, true] {
                        let mut want = src.to_vec();
                        match settle {
                            true => scalar_quant_noise_run(&mut want, seed, half, |v| v + 0.0),
                            false => scalar_quant_noise_run(&mut want, seed, half, |v| v),
                        }
                        let mut got = src.to_vec();
                        quant_noise_slices(isa, &mut got, seed, half, settle);
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "len {len}, seed {seed:#x}, settle {settle}, {}",
                            isa.name()
                        );
                    }
                }
            }
        }
    }

    /// Both conversions the noise sweep rounds with are `u64 as f32` on
    /// every 53-bit value: around each power of two, at ties to even and odd, and
    /// at the ends of the range.
    #[test]
    fn u53_conversion_rounds_as_the_cast() {
        let mut xs = vec![0, 1, (1 << 53) - 1, (1 << 52) - 1, 1 << 52, (1 << 52) + 1];
        for e in 20..53 {
            let p = 1u64 << e;
            xs.extend([
                p - 1,
                p,
                p + 1,
                p + (p >> 24),
                p + (p >> 24) * 3,
                p - (p >> 25),
            ]);
        }
        let mut state = 0x5EEDu64;
        xs.extend((0..10_000).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 11
        }));
        for x in xs {
            let want = (x as f32).to_bits();
            assert_eq!(u53_to_f32::<false>(x).to_bits(), want, "{x}");
            assert_eq!(u53_to_f32::<true>(x).to_bits(), want, "{x}");
        }
    }

    /// The slice kernels compute exactly the documented scalar formulas —
    /// `round` is half away from zero (not `cvtps`'s half-even), the clamp
    /// saturates, NaN quantizes to 0 — whichever instantiation runs.
    #[test]
    fn sweeps_match_the_scalar_definitions() {
        let wide = crate::isa::wide_or_skip("sweeps_match_the_scalar_definitions");
        for isa in [Isa::PORTABLE].into_iter().chain(wide) {
            for scale in [0.25, 0.0371] {
                let src = edge_values(scale);
                let mut q = vec![0i8; src.len()];
                quantize_slices(isa, &src, &mut q, scale);
                let mut fq = vec![0.0; src.len()];
                fake_quant_slices(isa, &src, &mut fq, scale);
                let mut grid = vec![0.0; src.len()];
                grid_slices(isa, &src, &mut grid, scale);
                let mut dq = grid.clone();
                scale_slices(isa, &mut dq, scale);
                for (i, ((&v, &qi), &f)) in src.iter().zip(&q).zip(&fq).enumerate() {
                    // the direct path multiplies these, and caches them scaled
                    assert_eq!(grid[i].to_bits(), (qi as f32).to_bits(), "grid({v})");
                    assert_eq!(dq[i].to_bits(), (qi as f32 * scale).to_bits(), "{v}");
                    assert_eq!(
                        qi,
                        quantize_value(v, scale),
                        "quantize({v}) on {}",
                        isa.name()
                    );
                    let want = (v / scale).round().clamp(-INT8_MAX, INT8_MAX) * scale;
                    assert_eq!(f.to_bits(), want.to_bits(), "fake_quant({v})");
                    if !v.is_nan() {
                        // the integer path caches this in place of fake_quant
                        // (an `i8` has no -0, so that one sign is lost)
                        let cached = qi as f32 * scale;
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

        assert_eq!(bits(fake_quant(&t, p).data()), want[0]);

        let mut q = vec![1i8; 3];
        quantize_into(&t, p, &mut q);
        assert_eq!(q.iter().map(|&b| b as u32).collect::<Vec<_>>(), want[1]);
        let mut dq = Tensor::default();
        dequantize_into(&q, [n], p, &mut dq);
        assert_eq!(bits(dq.data()), want[3]);
        let (mut q2, mut dq2) = (Vec::new(), Tensor::default());
        quantize_dequantize_into(&t, p, &mut q2, &mut dq2);
        let fused = q2.iter().map(|&b| b as u32).chain(bits(dq2.data()));
        assert_eq!(fused.collect::<Vec<_>>(), want[8]);
        let (acc, bias) = epilogue_operands(n);
        let mut out = Tensor::zeros([n / 17, 17]);
        scale_i32_bias_into(
            &acc[..out.len()],
            scale,
            &Tensor::from_vec(bias, [17]),
            &mut out,
        );
        assert_eq!(bits(out.data()), want[9]);

        // A tensor's own scale comes from its max-|x|; finite input only
        // (an infinite max makes every quotient NaN or 0).
        let finite: Vec<f32> = src.iter().copied().filter(|v| v.is_finite()).collect();
        let tf = Tensor::from_vec(finite.clone(), [finite.len()]);
        let s = tf.abs_max() / INT8_MAX;
        let mut want = vec![0.0; finite.len()];
        fake_quant_slices(Isa::PORTABLE, &finite, &mut want, s);
        let got = fake_quant(&tf, QuantParams::from_tensor(&tf));
        assert_eq!(bits(got.data()), bits(&want));
    }
}
