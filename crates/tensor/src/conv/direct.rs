//! The direct convolution: a narrow layer's forward, INT8 forward and `dW`
//! computed straight from the input inside its zero border, with no patch
//! matrix (the rule and why the bits agree are in [`super`]'s docs; `dX`
//! never reads the patch matrix, so both paths share the lowering's).
//!
//! Every body here is an `isa_kernel!` instantiation, and every output
//! element is the lowering's, operation for operation:
//!
//! - **forward** — lanes run across an output row; each element starts at
//!   `+0.0` and adds `x · w` over the taps in ascending `(ci, ky, kx)`
//!   order, the halo's zeros included, as the patch row times the weight
//!   row of [`crate::linalg::matmul_a_bt_slices`] did;
//! - **INT8 forward** — the same walk over the quantized halo, exact in
//!   `i32`;
//! - **`dW`** — lanes run across a block of output cells `(oc, tap)`, each
//!   cell one chain over the batch's positions in ascending `(n, oy, ox)`
//!   adding `g · x`, as [`crate::linalg::matmul_at_b_slices`] did over the
//!   patch rows. One sample's windows at a time are copied into
//!   thread-local scratch, a register row each; the sums wait in scratch
//!   between samples.

use super::Direct;
use crate::isa::isa_kernel;
use std::cell::RefCell;

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

/// Copies every sample of `input` into `padded` inside a zero border
/// `g.pad` cells wide.
pub(super) fn pad_into(input: &[f32], padded: &mut [f32], g: &Direct) {
    let (image, plane) = (g.ic * g.h * g.w, g.ic * g.hp * g.wp);
    assert_eq!((input.len(), padded.len()), (g.n * image, g.n * plane));
    if g.pad == 0 {
        return padded.copy_from_slice(input);
    }
    padded.fill(0.0);
    if g.w == 0 {
        return;
    }
    let rows = padded
        .chunks_exact_mut(g.hp * g.wp)
        .flat_map(|p| p[g.pad * g.wp..].chunks_exact_mut(g.wp).take(g.h));
    for (row, src) in rows.zip(input.chunks_exact(g.w)) {
        row[g.pad..g.pad + g.w].copy_from_slice(src);
    }
}

isa_kernel! {
    /// One sample's f32 forward: `x` is its padded `(ic, hp, wp)` planes,
    /// `w` the `(oc, ic·kh·kw)` weights, `out` its `(oc, oh, ow)` output.
    pub(super) fn forward(x: &[f32], w: &[f32], out: &mut [f32], g: &Direct) = forward_body;
}

isa_kernel! {
    /// [`forward`] over the quantized halo and weights, into `i32`.
    pub(super) fn forward_i8(x: &[i8], w: &[i8], out: &mut [i32], g: &Direct) = forward_i8_body;
}

isa_kernel! {
    /// Adds one sample's terms to the running `dW` sums of output channels
    /// `o0..`: `windows` holds the sample's `oh·ow` windows, [`lanes`]
    /// floats apart ([`gather_windows`]), `gy` its `(oc, oh, ow)` output
    /// gradient, `cells` the sums, [`lanes`] a row.
    pub(super) fn weight_grad(windows: &[f32], gy: &[f32], cells: &mut [f32], o0: usize, g: &Direct)
        = weight_grad_body;
}

/// What every body's reads of one sample's padded planes `x` rest on: it
/// holds them all, and the furthest window ends inside a plane.
fn check(g: &Direct, x: &[impl Copy]) {
    assert!(g.oh + g.kh - 1 <= g.hp && g.ow + g.kw - 1 <= g.wp);
    assert_eq!(x.len(), g.sample_padded());
}

/// The element type of a forward: `f32` summed in `f32`, or `i8` summed
/// exactly in `i32`.
trait Operand: Copy {
    type Acc: Copy + Default;
    fn mul_add(acc: Self::Acc, x: Self, w: Self) -> Self::Acc;
}

impl Operand for f32 {
    type Acc = f32;
    #[inline(always)]
    fn mul_add(acc: f32, x: f32, w: f32) -> f32 {
        acc + x * w
    }
}

impl Operand for i8 {
    type Acc = i32;
    #[inline(always)]
    fn mul_add(acc: i32, x: i8, w: i8) -> i32 {
        // `|x·w| ≤ 128²` fits an `i16` lane: widen once, after the multiply
        acc + i32::from(i16::from(x) * i16::from(w))
    }
}

#[inline(always)]
fn forward_body(x: &[f32], w: &[f32], out: &mut [f32], g: &Direct) {
    forward_widths(x, w, out, g);
}

#[inline(always)]
fn forward_i8_body(x: &[i8], w: &[i8], out: &mut [i32], g: &Direct) {
    forward_widths(x, w, out, g);
}

/// Calls `$body(args…, kh, kw)` with both constants for the 3×3 kernels
/// every conv layer of the model zoo has, so that tap loops unroll. A
/// macro, not a closure: a closure would be compiled outside the
/// `#[target_feature]` entry point it is called from.
macro_rules! with_const_kernel {
    ($g:expr, $body:ident($($arg:expr),*)) => {
        match ($g.kh, $g.kw) {
            (3, 3) => $body($($arg,)* 3, 3),
            (kh, kw) => $body($($arg,)* kh, kw),
        }
    };
}

/// Instantiates [`forward_rows`] at the output widths the model zoo meets,
/// so an accumulator row is a constant number of lanes.
#[inline(always)]
fn forward_widths<T: Operand>(x: &[T], w: &[T], out: &mut [T::Acc], g: &Direct) {
    check(g, x);
    assert_eq!((w.len(), out.len()), (g.oc * g.cols(), g.sample_out()));
    with_const_kernel!(g, forward_kernel(x, w, out, g))
}

/// [`forward_widths`] at a kernel size.
#[inline(always)]
fn forward_kernel<T: Operand>(
    x: &[T],
    w: &[T],
    out: &mut [T::Acc],
    g: &Direct,
    kh: usize,
    kw: usize,
) {
    match g.ow {
        4 => forward_rows::<T, 4>(x, w, out, g, kh, kw),
        8 => forward_rows::<T, 8>(x, w, out, g, kh, kw),
        ow => forward_any(x, w, out, g, kh, kw, ow),
    }
}

/// [`forward_widths`]' body at a constant width `OW`: one register row of
/// accumulators per output row, fed one tap at a time by an `OW`-wide load
/// from the halo.
#[inline(always)]
fn forward_rows<T: Operand, const OW: usize>(
    x: &[T],
    w: &[T],
    out: &mut [T::Acc],
    g: &Direct,
    kh: usize,
    kw: usize,
) {
    let cols = g.ic * kh * kw;
    for (wo, plane) in w.chunks_exact(cols).zip(out.chunks_exact_mut(g.oh * OW)) {
        for (y, row) in plane.chunks_exact_mut(OW).enumerate() {
            let mut acc = [T::Acc::default(); OW];
            for ci in 0..g.ic {
                for ky in 0..kh {
                    let base = (ci * g.hp + y + ky) * g.wp;
                    for kx in 0..kw {
                        debug_assert!(base + kx + OW <= x.len());
                        // SAFETY: by `check`, `y + ky < hp` and `kx + OW ≤
                        // wp`, so the run ends inside plane `ci` of `x`, and
                        // the tap index is below `cols = wo.len()`.
                        let (src, wv) = unsafe {
                            (
                                &*x.as_ptr().add(base + kx).cast::<[T; OW]>(),
                                *wo.get_unchecked((ci * kh + ky) * kw + kx),
                            )
                        };
                        for (a, &v) in acc.iter_mut().zip(src) {
                            *a = T::mul_add(*a, v, wv);
                        }
                    }
                }
            }
            row.copy_from_slice(&acc);
        }
    }
}

/// [`forward_rows`] at any width, accumulating in the output row itself.
#[inline(always)]
fn forward_any<T: Operand>(
    x: &[T],
    w: &[T],
    out: &mut [T::Acc],
    g: &Direct,
    kh: usize,
    kw: usize,
    ow: usize,
) {
    let cols = g.ic * kh * kw;
    for (wo, plane) in w
        .chunks_exact(cols)
        .zip(out.chunks_exact_mut((g.oh * ow).max(1)))
    {
        for (y, row) in plane.chunks_exact_mut(ow.max(1)).enumerate() {
            row.fill(T::Acc::default());
            let mut taps = wo.iter();
            for ci in 0..g.ic {
                for ky in 0..kh {
                    let src = &x[(ci * g.hp + y + ky) * g.wp..][..g.wp];
                    for (kx, &wv) in (0..kw).zip(&mut taps) {
                        for (a, &v) in row.iter_mut().zip(&src[kx..kx + ow]) {
                            *a = T::mul_add(*a, v, wv);
                        }
                    }
                }
            }
        }
    }
}

/// Copies the window of every output position of one sample — `x` its
/// padded planes — into `windows`, one [`lanes`]-float row each in
/// `(ci, ky, kx)` order; the lanes past `ic·kh·kw` are left as they were.
pub(super) fn gather_windows(x: &[f32], windows: &mut [f32], g: &Direct) {
    check(g, x);
    assert_eq!(windows.len(), g.oh * g.ow * lanes(g.cols()));
    with_const_kernel!(g, gather_kernel(x, windows, g))
}

/// [`gather_windows`] at a kernel size.
#[inline(always)]
fn gather_kernel(x: &[f32], windows: &mut [f32], g: &Direct, kh: usize, kw: usize) {
    let mut rows = windows.chunks_exact_mut(lanes(g.cols()));
    let positions = (0..g.oh).flat_map(|oy| (0..g.ow).map(move |ox| (oy, ox)));
    for ((oy, ox), window) in positions.zip(&mut rows) {
        for ci in 0..g.ic {
            for ky in 0..kh {
                let (at, t) = ((ci * g.hp + oy + ky) * g.wp + ox, (ci * kh + ky) * kw);
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
fn weight_grad_body(windows: &[f32], gy: &[f32], cells: &mut [f32], o0: usize, g: &Direct) {
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
    g: &Direct,
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

thread_local! {
    /// `dW`'s per-sample scratch, grown to the largest layer's once;
    /// thread-local because pool workers run blocks of output channels.
    static SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on this thread's scratch cut into `dW`'s windows and sums, of
/// `windows` and `cells` floats, contents unspecified. The bodies never
/// call into the pool, so the borrow is not re-entered.
pub(super) fn with_scratch<R>(
    (windows, cells): (usize, usize),
    f: impl FnOnce(&mut [f32], &mut [f32]) -> R,
) -> R {
    SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        let len = windows + cells;
        if s.len() < len {
            let grow = len - s.len();
            s.reserve_exact(grow);
            s.resize(len, 0.0);
        }
        let (w, c) = s[..len].split_at_mut(windows);
        f(w, c)
    })
}
