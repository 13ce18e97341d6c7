//! The direct convolution: a narrow layer's forward, INT8 forward and `dW`
//! computed straight from the input inside its zero border, with no patch
//! matrix (the rule, the pass that stages each sample and why the bits
//! agree are in [`super`]'s docs; `dX` never reads the patch matrix, so
//! both paths share the lowering's).
//!
//! Every body here is an `isa_kernel!` instantiation, and every output
//! element is the lowering's, operation for operation:
//!
//! - **forward** — the lanes hold a *strip* of [`LANES`] output positions,
//!   whole output rows: a 4 × 4 plane at width 4, two rows at width 8. For
//!   each tap `(ci, ky, kx)` the strip's inputs — the same rows of the halo,
//!   shifted by the tap — are loaded once and multiplied into the
//!   accumulators of a block of output channels, a broadcast weight each:
//!   one strip and eight channels at width 4, four strips and three
//!   channels at width 8 on AVX-512. A lane is one output element, so each element still starts at `+0.0`
//!   and adds `x · w` over the taps in ascending `(ci, ky, kx)` order, the
//!   halo's zeros included, as the patch row times the weight row of
//!   [`crate::linalg::matmul_a_bt_slices`] did, and is multiplied by the
//!   forward's scale as it is stored (`1.0`, which changes no bit). Which
//!   elements share a register changes, no element's operations do: the
//!   last strip of a plane whose height the strip does not divide starts
//!   lower and computes some rows twice, and a block's channels past the
//!   layer's repeat its last one; both write nothing twice that differs.
//!   The portable and AVX2 bodies, other widths and planes lower than a
//!   strip run one output row at a time;
//! - **INT8 forward** — the same body over the INT8 values of the halo and
//!   the weights, held as `f32` integers, with the epilogue's scale. The
//!   INT8 product is the one free of order: each term is at most `127²` and
//!   every partial sum at most `127² ·` [`MAX_COLS`] `< 2²⁴` in magnitude,
//!   so every sum of them, in any order and any grouping, is an exact
//!   integer in `f32` — the `i32` sum the lowering's integer GEMM forms —
//!   and `sum · scale` is its epilogue's bits. So the INT8 forward costs
//!   what the f32 one does;
//! - **`dW`** — lanes run across a row of output cells `(oc, tap)`, each
//!   cell one chain over the batch's positions in ascending `(n, oy, ox)`
//!   adding `g · x`, as [`crate::linalg::matmul_at_b_slices`] did over the
//!   patch rows. Each position's window is built in registers from the
//!   halo, a run of `kw` floats per `(ci, ky)`: on AVX-512 one masked load
//!   per run and register, the geometry constant for 3×3 kernels on one
//!   and three channels; a block holds eight output channels' sums (16
//!   registers of 32 lanes at most), and a call's last one to three
//!   channels a block of three (LeNet-5's 1 → 3 layer, a parallel `dW`'s
//!   [`BLOCK_ROWS`]); the sums stay in registers through the whole batch.
//!   The portable and AVX2 bodies gather each sample's windows once,
//!   [`CHUNK`] positions at a time, into an array of rows, and run
//!   [`BLOCK_ROWS`] channels' sums through them in registers, carried from
//!   chunk to chunk in `dW` itself. A lane is still one cell's chain, and a
//!   stored and reloaded `f32` keeps its bits, so the bits agree.

use super::Lowering;
use crate::isa::isa_kernel;

/// Most patch columns (`ic·kh·kw`) the direct path takes: the wider of the
/// two register rows [`weight_grad_body`] instantiates. Every 3×3 layer of
/// the model zoo the rule admits has at most 27.
pub(super) const MAX_COLS: usize = 32;

/// Output channels one portable or AVX2 `dW` register block holds, and the
/// unit a parallel `dW` is cut in. Measured on the AVX-512 host at 40
/// samples: blocks of four rows spill and run ×4–×7 slower than three.
pub(super) const BLOCK_ROWS: usize = 3;

/// Output positions whose windows the portable and AVX2 `dW` gathers at a
/// time: one sample of LeNet-5's 8 × 8 maps.
const CHUNK: usize = 64;

/// `f32` lanes of an AVX-512 register: the output positions of a forward
/// strip, the cells of a `dW` register.
const LANES: usize = 16;

/// The register row a `dW` block gives `cols` patch columns: 16 or
/// [`MAX_COLS`] lanes.
fn lanes(cols: usize) -> usize {
    cols.next_power_of_two().max(16)
}

isa_kernel! {
    /// A panel's forward: `x` is its samples' padded `(ic, hp, wp)`
    /// planes, `w` the `(oc, ic·kh·kw)` weights, `out` their `(oc, oh, ow)`
    /// outputs, each sum multiplied by `scale` as it is stored — `1.0` on
    /// the f32 arm, the INT8 arm's epilogue scale on its grid values.
    pub(super) fn forward(x: &[f32], w: &[f32], out: &mut [f32], g: &Lowering, scale: f32)
        = forward_body, avx512: forward_avx512;
}

isa_kernel! {
    /// The `dW` sums of output channels `o0..` over a whole batch: `x` is
    /// its padded samples, `gy` its `(n, oc, oh, ow)` output gradient and
    /// `dw` the channels' `(rows, ic·kh·kw)` sums, overwritten.
    pub(super) fn weight_grad(x: &[f32], gy: &[f32], dw: &mut [f32], o0: usize, g: &Lowering)
        = weight_grad_body, avx512: weight_grad_avx512;
}

/// What every body's reads of the padded planes `x` rest on: it holds
/// whole samples, and the furthest window ends inside a plane. Returns the
/// number of samples.
fn check(g: &Lowering, x: &[f32]) -> usize {
    let (hp, wp) = g.padded();
    assert!(g.oh + g.live.kh - 1 <= hp && g.ow + g.live.kw - 1 <= wp);
    assert!(x.len().is_multiple_of(g.sample_padded()));
    x.len() / g.sample_padded()
}

/// [`check`] for a forward, and the weights and outputs it writes.
fn check_forward(x: &[f32], w: &[f32], out: &[f32], g: &Lowering) {
    let n = check(g, x);
    assert_eq!((w.len(), out.len()), (g.oc * g.cols(), n * g.sample_out()));
}

/// Calls `$body(args…, kh, kw)` with both constants for the 3×3 kernels
/// every conv layer of the model zoo has, so that tap loops unroll. A
/// macro, not a closure: a closure would be compiled outside the
/// `#[target_feature]` entry point it is called from.
macro_rules! with_const_kernel {
    ($g:expr, $body:path, ($($arg:expr),*)) => {
        match ($g.live.kh, $g.live.kw) {
            (3, 3) => $body($($arg,)* 3, 3),
            (kh, kw) => $body($($arg,)* kh, kw),
        }
    };
}

/// Largest magnitude an INT8 product can reach: `127²` a tap, over at
/// most [`MAX_COLS`] taps. Below `2²⁴`, so every partial sum of grid
/// values is an integer an `f32` holds exactly.
const _: () = assert!(127 * 127 * MAX_COLS < 1 << 24);

/// The portable and AVX2 forward.
#[inline(always)]
fn forward_body(x: &[f32], w: &[f32], out: &mut [f32], g: &Lowering, scale: f32) {
    check_forward(x, w, out, g);
    forward_samples(x, w, out, g, scale);
}

/// [`forward_kernel`] on each sample of a panel.
#[inline(always)]
fn forward_samples(x: &[f32], w: &[f32], out: &mut [f32], g: &Lowering, scale: f32) {
    let samples = x.chunks_exact(g.sample_padded());
    for (x, out) in samples.zip(out.chunks_exact_mut(g.sample_out())) {
        with_const_kernel!(g, forward_kernel, (x, w, out, g, scale))
    }
}

/// One sample's forward at a kernel size, instantiated at the output widths
/// the model zoo meets so that an accumulator row is a constant number of
/// lanes.
#[inline(always)]
fn forward_kernel(
    x: &[f32],
    w: &[f32],
    out: &mut [f32],
    g: &Lowering,
    scale: f32,
    kh: usize,
    kw: usize,
) {
    match g.ow {
        4 => forward_rows::<4>(x, w, out, g, scale, kh, kw),
        8 => forward_rows::<8>(x, w, out, g, scale, kh, kw),
        _ => forward_any(x, w, out, g, scale, kh, kw),
    }
}

/// [`forward_kernel`] at a constant width `OW`: one register row of
/// accumulators per output row, fed one tap at a time by an `OW`-wide load
/// from the halo.
#[inline(always)]
fn forward_rows<const OW: usize>(
    x: &[f32],
    w: &[f32],
    out: &mut [f32],
    g: &Lowering,
    scale: f32,
    kh: usize,
    kw: usize,
) {
    let (cols, (hp, wp)) = (g.c * kh * kw, g.padded());
    for (wo, plane) in w.chunks_exact(cols).zip(out.chunks_exact_mut(g.oh * OW)) {
        for (y, row) in plane.chunks_exact_mut(OW).enumerate() {
            let mut acc = [0.0f32; OW];
            for ci in 0..g.c {
                for ky in 0..kh {
                    let base = (ci * hp + y + ky) * wp;
                    for kx in 0..kw {
                        debug_assert!(base + kx + OW <= x.len());
                        // SAFETY: by `check`, `y + ky < hp` and `kx + OW ≤
                        // wp`, so the run ends inside plane `ci` of `x`, and
                        // the tap index is below `cols = wo.len()`.
                        let (src, wv) = unsafe {
                            (
                                &*x.as_ptr().add(base + kx).cast::<[f32; OW]>(),
                                *wo.get_unchecked((ci * kh + ky) * kw + kx),
                            )
                        };
                        for (a, &v) in acc.iter_mut().zip(src) {
                            *a += v * wv;
                        }
                    }
                }
            }
            for (o, &a) in row.iter_mut().zip(&acc) {
                *o = a * scale;
            }
        }
    }
}

/// [`forward_rows`] at any width, accumulating in the output row itself.
#[inline(always)]
fn forward_any(
    x: &[f32],
    w: &[f32],
    out: &mut [f32],
    g: &Lowering,
    scale: f32,
    kh: usize,
    kw: usize,
) {
    let ow = g.ow;
    let (cols, (hp, wp)) = (g.c * kh * kw, g.padded());
    for (wo, plane) in w
        .chunks_exact(cols)
        .zip(out.chunks_exact_mut((g.oh * ow).max(1)))
    {
        for (y, row) in plane.chunks_exact_mut(ow.max(1)).enumerate() {
            row.fill(0.0);
            let mut taps = wo.iter();
            for ci in 0..g.c {
                for ky in 0..kh {
                    let src = &x[(ci * hp + y + ky) * wp..][..wp];
                    for (kx, &wv) in (0..kw).zip(&mut taps) {
                        for (a, &v) in row.iter_mut().zip(&src[kx..kx + ow]) {
                            *a += v * wv;
                        }
                    }
                }
            }
            for a in row.iter_mut() {
                *a *= scale;
            }
        }
    }
}

/// The AVX-512 forward: strips at output widths 4 and 8, the rows of
/// [`forward_samples`] at 512 bits on every other geometry.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
fn forward_avx512(x: &[f32], w: &[f32], out: &mut [f32], g: &Lowering, scale: f32) {
    check_forward(x, w, out, g);
    // SAFETY: this entry point runs with AVX-512F enabled.
    match g.ow {
        4 if g.oh >= LANES / 4 => unsafe {
            with_const_kernel!(g, forward_strips::<4, 1, 8>, (x, w, out, g, scale))
        },
        8 if g.oh >= LANES / 8 => unsafe {
            with_const_kernel!(g, forward_strips::<8, 4, 3>, (x, w, out, g, scale))
        },
        _ => forward_samples(x, w, out, g, scale),
    }
}

/// The AVX-512 forward at output width `OW`, whose strip is `LANES / OW`
/// whole rows: a register tile of `S` strips of a plane × `B` output
/// channels. Each tap's strips are built once for the block, a masked load
/// per row, and multiplied into the block's accumulators by a broadcast
/// weight each. The last strip of a plane ends on its last row, and a
/// block's channels past `oc` repeat the last one; neither is stored twice.
///
/// # Safety
/// The host runs AVX-512F: [`forward_avx512`], which inlines it, is its
/// one caller.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn forward_strips<const OW: usize, const S: usize, const B: usize>(
    x: &[f32],
    w: &[f32],
    out: &mut [f32],
    g: &Lowering,
    scale: f32,
    kh: usize,
    kw: usize,
) {
    use std::arch::x86_64::*;
    let rows = LANES / OW;
    let (cols, (hp, wp), plane) = (g.c * kh * kw, g.padded(), g.oh * OW);
    debug_assert!(g.ow == OW && g.oh >= rows && OW * rows == LANES);
    let strips = g.oh.div_ceil(rows);
    let top = |s: usize| (s.min(strips - 1) * rows).min(g.oh - rows);
    let scale = _mm512_set1_ps(scale);
    let samples = x.chunks_exact(g.sample_padded());
    for (x, out) in samples.zip(out.chunks_exact_mut(g.sample_out())) {
        for o0 in (0..g.oc).step_by(B) {
            let wrow: [usize; B] = std::array::from_fn(|b| (o0 + b).min(g.oc - 1) * cols);
            for s0 in (0..strips).step_by(S) {
                let y0: [usize; S] = std::array::from_fn(|s| top(s0 + s));
                let mut acc = [[_mm512_setzero_ps(); S]; B];
                for ci in 0..g.c {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let t = (ci * kh + ky) * kw + kx;
                            let mut strip = [_mm512_setzero_ps(); S];
                            for (v, &y) in strip.iter_mut().zip(&y0) {
                                let at = (ci * hp + y + ky) * wp + kx;
                                for r in 0..rows {
                                    let mask = (((1u32 << OW) - 1) << (r * OW)) as u16;
                                    debug_assert!(at + r * wp + OW <= x.len());
                                    // SAFETY: row `y + r + ky ≤ oh − 1 + kh − 1 <
                                    // hp` and columns `kx + OW ≤ wp` (`check`), so
                                    // the enabled lanes read inside plane `ci`;
                                    // lane 0's address `at + r·(wp − OW) ≥ at` is
                                    // inside `x` too.
                                    *v = unsafe {
                                        _mm512_mask_loadu_ps(
                                            *v,
                                            mask,
                                            x.as_ptr().add(at + r * wp - r * OW),
                                        )
                                    };
                                }
                            }
                            for (acc, &r) in acc.iter_mut().zip(&wrow) {
                                // SAFETY: `r ≤ (oc − 1)·cols` and `t < cols`, and
                                // `w.len() = oc·cols`.
                                let wv = _mm512_set1_ps(unsafe { *w.get_unchecked(r + t) });
                                for (a, &v) in acc.iter_mut().zip(&strip) {
                                    *a = _mm512_add_ps(*a, _mm512_mul_ps(v, wv));
                                }
                            }
                        }
                    }
                }
                for (b, acc) in acc.iter().enumerate().take(g.oc - o0) {
                    for (&y, &a) in y0.iter().zip(acc).take(strips - s0) {
                        let dst = &mut out[(o0 + b) * plane + y * OW..][..LANES];
                        // SAFETY: `dst` is `LANES` floats.
                        unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), _mm512_mul_ps(a, scale)) };
                    }
                }
            }
        }
    }
}

/// What both `dW` bodies rest on: `x` holds `n` padded samples, `gy` their
/// output gradient, and `dw` whole rows of channels `o0..oc`. Returns `n`.
fn weight_grad_check(x: &[f32], gy: &[f32], dw: &[f32], o0: usize, g: &Lowering) -> usize {
    let (cols, n) = (g.cols(), check(g, x));
    assert!(cols <= MAX_COLS && dw.len().is_multiple_of(cols));
    assert!(o0 + dw.len() / cols <= g.oc);
    assert_eq!(
        (x.len(), gy.len()),
        (n * g.sample_padded(), n * g.sample_out())
    );
    n
}

/// The portable and AVX2 `dW`: [`weight_grad_gathered`] at [`lanes`].
#[inline(always)]
fn weight_grad_body(x: &[f32], gy: &[f32], dw: &mut [f32], o0: usize, g: &Lowering) {
    let n = weight_grad_check(x, gy, dw, o0, g);
    match lanes(g.cols()) {
        16 => with_const_kernel!(g, weight_grad_gathered::<16>, (x, gy, dw, o0, g, n)),
        _ => with_const_kernel!(g, weight_grad_gathered::<MAX_COLS>, (x, gy, dw, o0, g, n)),
    }
}

/// The sums of `dw`'s channels, `C ≥ cols` lanes a row, a sample and
/// [`CHUNK`] of its positions at a time: the chunk's windows are gathered
/// once into rows whose lanes past `cols` stay `0.0`, and each block of
/// [`BLOCK_ROWS`] channels runs its sums through all of them in registers,
/// reloaded from `dw` before and stored back after. The rows past a block's
/// last channel add `0 · x` into sums nobody stores.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn weight_grad_gathered<const C: usize>(
    x: &[f32],
    gy: &[f32],
    dw: &mut [f32],
    o0: usize,
    g: &Lowering,
    n: usize,
    kh: usize,
    kw: usize,
) {
    let (cols, hw, (hp, wp)) = (g.cols(), g.oh * g.ow, g.padded());
    let (padded, sample_out) = (g.sample_padded(), g.sample_out());
    let mut windows = [[0.0f32; C]; CHUNK];
    dw.fill(0.0);
    for ni in 0..n {
        let xs = &x[ni * padded..][..padded];
        let gs = &gy[ni * sample_out + o0 * hw..][..dw.len() / cols * hw];
        for p0 in (0..hw).step_by(CHUNK) {
            let chunk = &mut windows[..CHUNK.min(hw - p0)];
            let (mut oy, mut ox) = (p0 / g.ow, p0 % g.ow);
            for window in chunk.iter_mut() {
                for ci in 0..g.c {
                    for ky in 0..kh {
                        let (at, t) = ((ci * hp + oy + ky) * wp + ox, (ci * kh + ky) * kw);
                        debug_assert!(at + kw <= xs.len() && t + kw <= C);
                        // SAFETY: by `check`, the window of output `(oy,
                        // ox)` ends inside plane `ci` of `xs`, and `t + kw
                        // ≤ cols ≤ C`.
                        unsafe {
                            std::ptr::copy_nonoverlapping(
                                xs.as_ptr().add(at),
                                window.as_mut_ptr().add(t),
                                kw,
                            );
                        }
                    }
                }
                ox += 1;
                if ox == g.ow {
                    (oy, ox) = (oy + 1, 0);
                }
            }
            for (b, block) in dw.chunks_mut(BLOCK_ROWS * cols).enumerate() {
                let live = block.len() / cols;
                let gs = &gs[b * BLOCK_ROWS * hw..][..live * hw];
                let mut acc = [[0.0f32; C]; BLOCK_ROWS];
                for (row, sums) in acc.iter_mut().zip(block.chunks_exact(cols)) {
                    for (a, &s) in row.iter_mut().zip(sums) {
                        *a = s;
                    }
                }
                for (pos, window) in (p0..).zip(chunk.iter()) {
                    let mut gv = [0.0f32; BLOCK_ROWS];
                    for (r, v) in gv.iter_mut().enumerate().take(live) {
                        *v = gs[r * hw + pos];
                    }
                    for (row, &v) in acc.iter_mut().zip(&gv) {
                        for (a, &p) in row.iter_mut().zip(window) {
                            *a += v * p;
                        }
                    }
                }
                for (sums, row) in block.chunks_exact_mut(cols).zip(&acc) {
                    for (s, &a) in sums.iter_mut().zip(row) {
                        *s = a;
                    }
                }
            }
        }
    }
}

/// The AVX-512 `dW`: one or two 16-lane registers a row of cells, at
/// constant geometry for the 3×3 kernels on one and three channels.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
fn weight_grad_avx512(x: &[f32], gy: &[f32], dw: &mut [f32], o0: usize, g: &Lowering) {
    let n = weight_grad_check(x, gy, dw, o0, g);
    // SAFETY: this entry point runs with AVX-512F enabled.
    unsafe {
        match (g.c, g.live.kh, g.live.kw) {
            (1, 3, 3) => weight_grad_avx512_rows::<1>(x, gy, dw, o0, g, n, 1, 3, 3),
            (3, 3, 3) => weight_grad_avx512_rows::<2>(x, gy, dw, o0, g, n, 3, 3, 3),
            (c, kh, kw) if g.cols() <= LANES => {
                weight_grad_avx512_rows::<1>(x, gy, dw, o0, g, n, c, kh, kw)
            }
            (c, kh, kw) => weight_grad_avx512_rows::<2>(x, gy, dw, o0, g, n, c, kh, kw),
        }
    }
}

/// Output channels a full AVX-512 `dW` block holds: `8 · J ≤ 16` registers
/// of sums, beside the `J` of the window.
#[cfg(target_arch = "x86_64")]
const AVX512_ROWS: usize = 8;

/// [`weight_grad_avx512_blocks`] over blocks of [`AVX512_ROWS`] channels,
/// the last one to three of them in a block of three.
///
/// # Safety
/// As [`weight_grad_avx512_blocks`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn weight_grad_avx512_rows<const J: usize>(
    x: &[f32],
    gy: &[f32],
    dw: &mut [f32],
    o0: usize,
    g: &Lowering,
    n: usize,
    c: usize,
    kh: usize,
    kw: usize,
) {
    let (cols, shape) = (c * kh * kw, (c, kh, kw));
    let full = dw.len() / cols / AVX512_ROWS * AVX512_ROWS;
    let (head, tail) = dw.split_at_mut(full * cols);
    // SAFETY: the caller's.
    unsafe {
        weight_grad_avx512_blocks::<J, AVX512_ROWS>(x, gy, head, o0, g, n, shape);
        match tail.len() / cols {
            0 => {}
            1..=3 => weight_grad_avx512_blocks::<J, 3>(x, gy, tail, o0 + full, g, n, shape),
            _ => weight_grad_avx512_blocks::<J, AVX512_ROWS>(x, gy, tail, o0 + full, g, n, shape),
        }
    }
}

/// The AVX-512 `dW` with `J` registers a row and `R` rows a block: each
/// position's window is built by one masked load per run of `kw` floats
/// and register it touches — lane `(ci·kh + ky)·kw + kx` of the row reads
/// `x` at `(ci, oy + ky, ox + kx)` — and multiplied into the sums of `R`
/// channels at a time, through every sample in order. A block's channels
/// past `dw`'s rows read the last row's gradient and are not stored.
///
/// # Safety
/// The host runs AVX-512F: [`weight_grad_avx512`], which inlines it, is
/// its one caller.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn weight_grad_avx512_blocks<const J: usize, const R: usize>(
    x: &[f32],
    gy: &[f32],
    dw: &mut [f32],
    o0: usize,
    g: &Lowering,
    n: usize,
    (c, kh, kw): (usize, usize, usize),
) {
    use std::arch::x86_64::*;
    let (cols, hw, (hp, wp)) = (c * kh * kw, g.oh * g.ow, g.padded());
    let (padded, sample_out) = (g.sample_padded(), g.sample_out());
    for (b, block) in dw.chunks_mut(R * cols).enumerate() {
        let (first, live) = (o0 + b * R, block.len() / cols);
        let grow: [usize; R] = std::array::from_fn(|r| r.min(live - 1) * hw);
        let mut acc = [[_mm512_setzero_ps(); J]; R];
        for ni in 0..n {
            let xs = &x[ni * padded..][..padded];
            let gs = &gy[ni * sample_out + first * hw..][..live * hw];
            for oy in 0..g.oh {
                for ox in 0..g.ow {
                    let mut window = [_mm512_setzero_ps(); J];
                    for ci in 0..c {
                        for ky in 0..kh {
                            let (at, lane) = ((ci * hp + oy + ky) * wp + ox, (ci * kh + ky) * kw);
                            for (j, v) in window.iter_mut().enumerate() {
                                let mask = ((((1u64 << kw) - 1) << lane) >> (LANES * j)) as u16;
                                if mask != 0 {
                                    // SAFETY: the lanes `mask` enables read
                                    // the run `x[(ci, oy + ky, ox..ox + kw)]`,
                                    // inside plane `ci` of `xs` by `check`; a
                                    // masked load reads no other lane, so lane
                                    // 0's address may lie outside `xs`.
                                    let src = xs.as_ptr().wrapping_add(at + LANES * j);
                                    *v = unsafe {
                                        _mm512_mask_loadu_ps(*v, mask, src.wrapping_sub(lane))
                                    };
                                }
                            }
                        }
                    }
                    let pos = oy * g.ow + ox;
                    for (acc, &r) in acc.iter_mut().zip(&grow) {
                        // SAFETY: `r + pos < live·hw = gs.len()`.
                        let gv = _mm512_set1_ps(unsafe { *gs.get_unchecked(r + pos) });
                        for (a, &p) in acc.iter_mut().zip(&window) {
                            *a = _mm512_add_ps(*a, _mm512_mul_ps(gv, p));
                        }
                    }
                }
            }
        }
        for (dst, row) in block.chunks_exact_mut(cols).zip(&acc) {
            let mut sums = [0.0f32; MAX_COLS];
            for (j, &v) in row.iter().enumerate() {
                // SAFETY: `sums` holds `LANES · J ≤ MAX_COLS` floats.
                unsafe { _mm512_storeu_ps(sums.as_mut_ptr().add(LANES * j), v) };
            }
            dst.copy_from_slice(&sums[..cols]);
        }
    }
}
