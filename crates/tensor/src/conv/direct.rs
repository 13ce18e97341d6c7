//! The direct convolution: a narrow layer's forward, INT8 forward and `dW`
//! computed straight from the input inside its zero border, with no patch
//! matrix (the rule, the pass that stages each sample and why the bits
//! agree are in [`super`]'s docs; `dX` never reads the patch matrix, so
//! both paths share the lowering's).
//!
//! Every body here is an `isa_kernel!` instantiation, and every output
//! element is the lowering's, operation for operation:
//!
//! - **forward** — lanes run across an output row; each element starts at
//!   `+0.0` and adds `x · w` over the taps in ascending `(ci, ky, kx)`
//!   order, the halo's zeros included, as the patch row times the weight
//!   row of [`crate::linalg::matmul_a_bt_slices`] did, and is multiplied by
//!   the forward's scale as it is stored (`1.0`, which changes no bit);
//! - **INT8 forward** — the same body over the INT8 values of the halo and
//!   the weights, held as `f32` integers, with the epilogue's scale. The
//!   INT8 product is the one free of order: each term is at most `127²` and
//!   every partial sum at most `127² ·` [`MAX_COLS`] `< 2²⁴` in magnitude,
//!   so every sum of them, in any order and any grouping, is an exact
//!   integer in `f32` — the `i32` sum the lowering's integer GEMM forms —
//!   and `sum · scale` is its epilogue's bits. So the INT8 forward costs
//!   what the f32 one does;
//! - **`dW`** — lanes run across a block of output cells `(oc, tap)`, each
//!   cell one chain over the batch's positions in ascending `(n, oy, ox)`
//!   adding `g · x`, as [`crate::linalg::matmul_at_b_slices`] did over the
//!   patch rows. One sample's windows at a time are copied into
//!   thread-local scratch, a register row each; the sums wait in scratch
//!   between samples.

use super::Lowering;
use crate::isa::isa_kernel;

/// Most patch columns (`ic·kh·kw`) the direct path takes: the wider of the
/// two register rows [`weight_grad_body`] instantiates. Every 3×3 layer of
/// the model zoo the rule admits has at most 27.
pub(super) const MAX_COLS: usize = 32;

/// Output channels one `dW` register block holds, the unit a parallel `dW`
/// is cut in. Measured on the AVX-512 host at 40 samples: blocks of four
/// rows spill and run ×4–×7 slower than three.
pub(super) const BLOCK_ROWS: usize = 3;

/// The register row a `dW` block gives `cols` patch columns: 16 or
/// [`MAX_COLS`] lanes.
pub(super) fn lanes(cols: usize) -> usize {
    cols.next_power_of_two().max(16)
}

isa_kernel! {
    /// One sample's forward: `x` is its padded `(ic, hp, wp)` planes, `w`
    /// the `(oc, ic·kh·kw)` weights, `out` its `(oc, oh, ow)` output, each
    /// sum multiplied by `scale` as it is stored — `1.0` on the f32 arm,
    /// the INT8 arm's epilogue scale on its grid values.
    pub(super) fn forward(x: &[f32], w: &[f32], out: &mut [f32], g: &Lowering, scale: f32)
        = forward_body;
}

isa_kernel! {
    /// Adds one sample's terms to the running `dW` sums of output channels
    /// `o0..`: `windows` holds the sample's `oh·ow` windows, [`lanes`]
    /// floats apart ([`gather_windows`]), `gy` its `(oc, oh, ow)` output
    /// gradient, `cells` the sums, [`lanes`] a row.
    pub(super) fn weight_grad(windows: &[f32], gy: &[f32], cells: &mut [f32], o0: usize, g: &Lowering)
        = weight_grad_body;
}

/// What every body's reads of one sample's padded planes `x` rest on: it
/// holds them all, and the furthest window ends inside a plane.
fn check(g: &Lowering, x: &[impl Copy]) {
    let (hp, wp) = g.padded();
    assert!(g.oh + g.live.kh - 1 <= hp && g.ow + g.live.kw - 1 <= wp);
    assert_eq!(x.len(), g.sample_padded());
}

/// Calls `$body(args…, kh, kw)` with both constants for the 3×3 kernels
/// every conv layer of the model zoo has, so that tap loops unroll. A
/// macro, not a closure: a closure would be compiled outside the
/// `#[target_feature]` entry point it is called from.
macro_rules! with_const_kernel {
    ($g:expr, $body:ident($($arg:expr),*)) => {
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

#[inline(always)]
fn forward_body(x: &[f32], w: &[f32], out: &mut [f32], g: &Lowering, scale: f32) {
    check(g, x);
    assert_eq!((w.len(), out.len()), (g.oc * g.cols(), g.sample_out()));
    with_const_kernel!(g, forward_kernel(x, w, out, g, scale))
}

/// [`forward_body`] at a kernel size, instantiated at the output widths
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

/// [`forward_body`] at a constant width `OW`: one register row of
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

/// Copies the window of every output position of one sample — `x` its
/// padded planes — into `windows`, one [`lanes`]-float row each in
/// `(ci, ky, kx)` order; the lanes past `ic·kh·kw` are left as they were.
pub(super) fn gather_windows(x: &[f32], windows: &mut [f32], g: &Lowering) {
    check(g, x);
    assert_eq!(windows.len(), g.oh * g.ow * lanes(g.cols()));
    with_const_kernel!(g, gather_kernel(x, windows, g))
}

/// [`gather_windows`] at a kernel size.
#[inline(always)]
fn gather_kernel(x: &[f32], windows: &mut [f32], g: &Lowering, kh: usize, kw: usize) {
    let (mut rows, (hp, wp)) = (windows.chunks_exact_mut(lanes(g.cols())), g.padded());
    let positions = (0..g.oh).flat_map(|oy| (0..g.ow).map(move |ox| (oy, ox)));
    for ((oy, ox), window) in positions.zip(&mut rows) {
        for ci in 0..g.c {
            for ky in 0..kh {
                let (at, t) = ((ci * hp + oy + ky) * wp + ox, (ci * kh + ky) * kw);
                debug_assert!(at + kw <= x.len() && t + kw <= window.len());
                for kx in 0..kw {
                    // SAFETY: by `check`, the window of output `(oy, ox)`
                    // ends inside plane `ci` of `x`, and `t + kw ≤ cols`,
                    // at most the row's `lanes` floats.
                    unsafe { *window.get_unchecked_mut(t + kx) = *x.get_unchecked(at + kx) };
                }
            }
        }
    }
}

/// Instantiates [`weight_grad_blocks`] at [`lanes`].
#[inline(always)]
fn weight_grad_body(windows: &[f32], gy: &[f32], cells: &mut [f32], o0: usize, g: &Lowering) {
    let (cols, hw, c) = (g.cols(), g.oh * g.ow, lanes(g.cols()));
    assert!(cols <= MAX_COLS && cells.len().is_multiple_of(c));
    assert!(o0 + cells.len() / c <= g.oc && gy.len() == g.sample_out());
    assert_eq!(windows.len(), hw * c);
    match c {
        16 => weight_grad_blocks::<16>(windows, gy, cells, o0, g),
        _ => weight_grad_blocks::<MAX_COLS>(windows, gy, cells, o0, g),
    }
}

/// The sums of [`BLOCK_ROWS`] output channels at a time in registers, `C ≥
/// cols` lanes a row, through the sample's positions in order; the lanes
/// past `cols` read whatever the windows' padding holds and are never
/// copied out.
#[inline(always)]
fn weight_grad_blocks<const C: usize>(
    windows: &[f32],
    gy: &[f32],
    cells: &mut [f32],
    o0: usize,
    g: &Lowering,
) {
    let hw = g.oh * g.ow;
    for (b, block) in cells.chunks_mut(BLOCK_ROWS * C).enumerate() {
        let live = block.len() / C;
        let gs = &gy[(o0 + b * BLOCK_ROWS) * hw..][..live * hw];
        let mut acc = [[0.0f32; C]; BLOCK_ROWS];
        for (row, sums) in acc.iter_mut().zip(block.chunks_exact(C)) {
            row.copy_from_slice(sums);
        }
        for pos in 0..hw {
            let window: &[f32; C] = windows[pos * C..(pos + 1) * C].try_into().unwrap();
            // the rows past `live` add `0 · x` into sums nobody stores
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
        for (sums, row) in block.chunks_exact_mut(C).zip(&acc) {
            sums.copy_from_slice(row);
        }
    }
}
