//! 2-D convolution and pooling kernels with hand-written backward passes.
//!
//! Convolution is implemented with the classic im2col lowering: each input
//! window becomes a row of a patch matrix, the convolution becomes one
//! [`matmul`](crate::linalg::matmul), and the backward pass reuses the same
//! patch matrix (`dW = dYᵀ·patches`) plus a `col2im` scatter (`dX`).
//!
//! **Live taps.** The lowering walks only the kernel taps that can ever
//! overlap the input ([`LiveTaps`]: a window `lh × lw` of the `kh × kw`
//! kernel, a function of the geometry alone), so the patch matrix is
//! `(n·oh·ow, c·lh·lw)`. A tap outside the window reads padding at every
//! output position: its patch column is `0.0` in every row, and dropping it
//! removes from each GEMM accumulator — started at `+0.0`, summed in
//! ascending `p`, multiply and add separate ([`crate::linalg`]'s numerics
//! contract) — only terms `acc + (±0.0)`, which cannot change `acc`. The
//! surviving taps keep their `(ci, ky, kx)` order, the weight gradient at a
//! dropped tap is written `+0.0` (what a sum of `g·0.0` gives), and `col2im`
//! never scattered such a column, so every output is bit-identical to the
//! lowering over all `kh·kw` taps — **provided weights and output gradients
//! are finite**: `0.0·∞` on a padding tap used to turn a diverged run's
//! outputs to NaN, and a tap that is never read cannot. When the window is
//! the whole kernel (any map larger than the kernel's reach) the patch
//! matrix is the classic `(n·oh·ow, c·kh·kw)` one and the weight tensor is
//! consumed as a raw `(oc, ic·kh·kw)` view of its storage — no
//! clone/reshape; otherwise its live `(oc, ic·lh·lw)` view is gathered into
//! a step-scratch buffer on every call.
//!
//! **The halo.** Neither lowering loop tests a bound. `im2col` copies each
//! sample into a zero border `padding` cells wide (thread-local scratch, as
//! the GEMM's packed panels are) and then reads every live window whole,
//! the zeros with it, one fixed-width move per kernel row; `col2im` adds
//! every live tap of every window into a zeroed halo, in the `(oy, ox, ci,
//! ky, kx)` order the bounds-tested loop had, and copies the interior out.
//! A cell of the interior receives exactly the adds it always did, in the
//! same order, so its bits are the same whatever the operands — NaN and ∞
//! included; the adds that land in the border are the ones the bounds test
//! used to skip, and the border is dropped. The 4-float move of a 3-float
//! run writes one float too many, always onto the head of the run written
//! next, never past the sample's region (the last output position moves at
//! exact width). The bounds-tested bodies live on in this module's tests as
//! the oracle.
//!
//! **Whose memory.** The convolutions ([`conv2d`], [`conv2d_int8`],
//! [`conv2d_backward`]) and the pooling passes take what they return, and
//! every staging matrix in between, from the calling thread's step scratch
//! ([`crate::pool`]): a caller that hands the results back when it is done
//! with them runs without allocating, one that drops them pays what it
//! always did. The lowering itself comes as allocating wrappers ([`im2col`],
//! [`col2im`]) and `_into` variants that write into a caller's tensor.
//!
//! All image tensors are NCHW.

use crate::profile::{KernelOp, Timer};
use crate::quant::{self, QuantParams};
use crate::runtime::{self, SendPtr};
use crate::{linalg, pool, Shape, Tensor};
use std::cell::RefCell;

/// Fewest patch-matrix elements an `im2col`/`col2im` call (one chunk per
/// batch sample) moves before it is dispatched on the worker pool. Serial and
/// parallel paths produce the same bytes, so the threshold affects
/// wall-clock only. Measured with the second lane polling
/// ([`crate::runtime`]), 3×3 lowering of 64 samples, `im2col` / `col2im` on
/// two threads against one: 2¹⁴·⁸ elements ×1.4 / ×1.4, 2¹⁵·⁸ ×1.1–1.2 /
/// ×1.1–1.2 (slower), 2¹⁶·⁷⁻¹⁶·⁸ ×0.7–0.9 / ×0.8–1.0, 2¹⁷·⁷ ×0.73 / ×0.72,
/// 2¹⁸·⁸ ×0.65 / ×0.6.
const PAR_MIN_ELEMS: usize = 1 << 16;

/// Stride and zero-padding of a convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvParams {
    /// Window step in both spatial dimensions.
    pub stride: usize,
    /// Zero padding applied on every spatial border.
    pub padding: usize,
}

impl ConvParams {
    /// Convenience constructor.
    ///
    /// # Panics
    /// Panics if `stride == 0`.
    pub fn new(stride: usize, padding: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        ConvParams { stride, padding }
    }

    /// Output spatial size for an input extent `in_size` and window `k`.
    ///
    /// # Panics
    /// Panics if the window does not fit the padded input.
    pub fn out_size(&self, in_size: usize, k: usize) -> usize {
        let padded = in_size + 2 * self.padding;
        assert!(padded >= k, "window {k} larger than padded input {padded}");
        (padded - k) / self.stride + 1
    }
}

impl Default for ConvParams {
    fn default() -> Self {
        ConvParams {
            stride: 1,
            padding: 0,
        }
    }
}

/// The kernel taps of a convolution that can ever overlap its input.
///
/// Tap `(ky, kx)` is *live* iff some output position maps it inside the
/// `h × w` input; every other tap only ever reads padding. The value is the
/// smallest window `[ky0, ky1) × [kx0, kx1)` holding every live tap — a
/// function of `(h, w, kh, kw, stride, padding)` alone, one axis at a time.
/// A 3×3 / pad-1 kernel keeps its centre tap on a 1×1 map, the 2×2 window
/// from `(1, 1)` at stride 2 on a 2×2 map, and all nine taps on any map of
/// 2×2 or more at stride 1; a 1×1 or an unpadded kernel always keeps the
/// whole kernel. (At a stride above 1 a tap *inside* the window can be
/// dead; it is lowered like a live one and reads the zeros it always did. A
/// geometry with no live tap at all keeps the whole kernel.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveTaps {
    kh: usize,
    kw: usize,
    ky0: usize,
    ky1: usize,
    kx0: usize,
    kx1: usize,
}

impl LiveTaps {
    /// The live window of a `kh × kw` kernel over an `h × w` input.
    ///
    /// # Panics
    /// Panics if the window does not fit the padded input.
    pub fn of(h: usize, w: usize, kh: usize, kw: usize, p: ConvParams) -> Self {
        let axis = |in_size: usize, k: usize| {
            let out = p.out_size(in_size, k);
            // `o`: the first output position whose window puts tap `t` at or
            // past the input's first element. Later ones only move it
            // further right, so `t` is live iff this one lands inside.
            let live = |t: &usize| {
                let o = p.padding.saturating_sub(*t).div_ceil(p.stride);
                o < out && o * p.stride + t < p.padding + in_size
            };
            match ((0..k).find(live), (0..k).rfind(live)) {
                (Some(first), Some(last)) => (first, last + 1),
                _ => (0, k),
            }
        };
        let (ky0, ky1) = axis(h, kh);
        let (kx0, kx1) = axis(w, kw);
        LiveTaps {
            kh,
            kw,
            ky0,
            ky1,
            kx0,
            kx1,
        }
    }

    /// Live kernel rows `[ky0, ky1)`.
    pub fn rows(&self) -> std::ops::Range<usize> {
        self.ky0..self.ky1
    }

    /// Live kernel columns `[kx0, kx1)`.
    pub fn cols(&self) -> std::ops::Range<usize> {
        self.kx0..self.kx1
    }

    /// Taps in the window, `lh · lw`: the patch matrix has this many
    /// columns per input channel.
    pub fn taps(&self) -> usize {
        self.rows().len() * self.cols().len()
    }

    /// `true` when the window is the whole kernel, i.e. the lowering is the
    /// classic one and weights are read in place.
    pub fn is_full(&self) -> bool {
        self.taps() == self.kh * self.kw
    }

    /// Offsets of the window's taps inside one `kh × kw` kernel, in the
    /// `(ky, kx)` order the live view keeps them in.
    fn offsets(&self) -> impl Iterator<Item = usize> + '_ {
        self.rows()
            .flat_map(move |ky| self.cols().map(move |kx| ky * self.kw + kx))
    }

    /// Gathers the live taps of `full` — consecutive `kh × kw` kernels —
    /// into `live`, `lh·lw` per kernel. One strided pass per tap: for the
    /// common one-tap window that is a single walk with nothing but a load
    /// and a store in it, and reading the kernels (cold, after an optimizer
    /// step) is what the pass costs.
    fn gather(&self, full: &[f32], live: &mut [f32]) {
        let (taps, kernel) = (self.taps(), self.kh * self.kw);
        for (j, at) in self.offsets().enumerate() {
            let column = live[j..].iter_mut().step_by(taps);
            for (dst, src) in column.zip(full[at..].iter().step_by(kernel)) {
                *dst = *src;
            }
        }
    }

    /// Inverse of [`Self::gather`]: writes `live` back to its taps of `full`
    /// and `+0.0` to every other tap.
    fn scatter(&self, live: &[f32], full: &mut [f32]) {
        let (taps, kernel) = (self.taps(), self.kh * self.kw);
        full.fill(0.0);
        for (j, at) in self.offsets().enumerate() {
            let column = live[j..].iter().step_by(taps);
            for (dst, src) in full[at..].iter_mut().step_by(kernel).zip(column) {
                *dst = *src;
            }
        }
    }

    /// The live `(oc, ic·lh·lw)` view of `weight: (oc, ic, kh, kw)`,
    /// gathered into a step-scratch tensor — afresh on every call, the
    /// weights having moved since the last one. `None` when every tap is
    /// live: the tensor's own storage is that matrix already.
    fn live_view(&self, weight: &Tensor) -> Option<Tensor> {
        if self.is_full() {
            return None;
        }
        let (oc, ic, _, _) = weight.shape().as_nchw();
        let mut view = pool::tensor([oc, ic * self.taps()]);
        self.gather(weight.data(), view.data_mut());
        Some(view)
    }
}

/// The geometry of one lowering call — what [`im2col_into`] and
/// [`col2im_into`] work out once and every sample of the batch reads.
#[derive(Debug, Clone, Copy)]
struct Lowering {
    c: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    live: LiveTaps,
    p: ConvParams,
}

impl Lowering {
    fn new(c: usize, h: usize, w: usize, kh: usize, kw: usize, p: ConvParams) -> Self {
        Lowering {
            c,
            h,
            w,
            oh: p.out_size(h, kh),
            ow: p.out_size(w, kw),
            live: LiveTaps::of(h, w, kh, kw, p),
            p,
        }
    }

    /// Columns of the patch matrix: one per channel and live tap.
    fn cols(&self) -> usize {
        self.c * self.live.taps()
    }

    /// Floats of one sample's patch rows, `oh·ow × cols`.
    fn sample_patches(&self) -> usize {
        self.oh * self.ow * self.cols()
    }

    /// Floats of one sample's image, `c·h·w`.
    fn sample_image(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Extent of one zero-bordered plane of the halo, `(h + 2p, w + 2p)`.
    fn padded(&self) -> (usize, usize) {
        (self.h + 2 * self.p.padding, self.w + 2 * self.p.padding)
    }

    /// `true` when a sample's patch rows *are* its image, float for float:
    /// one output position whose live window is the whole map (a padded 3×3
    /// kernel on a 1×1 map, or at stride 2 on a 2×2 one).
    fn is_identity(&self) -> bool {
        let pad = self.p.padding;
        self.oh * self.ow == 1
            && (self.live.rows(), self.live.cols()) == (pad..pad + self.h, pad..pad + self.w)
    }
}

thread_local! {
    /// One sample's image inside a zero border `padding` cells wide —
    /// `(c, h + 2p, w + 2p)` floats and [`SPILL`] more — so that neither
    /// lowering loop tests a bound: [`im2col_sample`] reads its windows out
    /// of it, [`col2im_sample`] accumulates its windows into it and copies
    /// the interior out. Thread-local because pool workers run the
    /// per-sample bodies (same ownership rules as the GEMM's packed
    /// panels in [`crate::linalg`]); grown to the largest layer's once.
    static HALO: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Floats past the halo's last plane that a wide move may read.
const SPILL: usize = 1;

/// Runs `f` on this thread's halo, cut to `g`'s planes plus [`SPILL`].
/// The per-sample bodies never call into the pool, so the borrow is not
/// re-entered.
fn with_halo<R>(g: &Lowering, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let (hp, wp) = g.padded();
    let len = g.c * hp * wp + SPILL;
    HALO.with(|halo| {
        let mut halo = halo.borrow_mut();
        if halo.len() < len {
            // exactly: the largest layer's planes, not twice the last one's
            let grow = len - halo.len();
            halo.reserve_exact(grow);
            halo.resize(len, 0.0);
        }
        f(&mut halo[..len])
    })
}

/// The `w`-float rows of the halo's interior, plane by plane, top to bottom
/// — each beside the image row it mirrors when zipped with the image's
/// `chunks_exact(w)`. `w` is [`Lowering::w`], handed in by
/// [`with_const_width`].
#[inline(always)]
fn interior<'a>(
    halo: &'a mut [f32],
    g: &Lowering,
    w: usize,
) -> impl Iterator<Item = &'a mut [f32]> {
    let (hp, wp) = g.padded();
    let (h, pad) = (g.h, g.p.padding);
    halo.chunks_exact_mut(hp * wp).flat_map(move |plane| {
        let rows = plane[pad * wp..].chunks_exact_mut(wp).take(h);
        rows.map(move |row| &mut row[pad..pad + w])
    })
}

/// Calls `f(w)` with `w` a constant at the map widths an 8×8 input meets, so
/// that the row copies between an image and its halo inline as fixed-width
/// moves, not as one `memcpy` call per two floats.
#[inline(always)]
fn with_const_width(w: usize, f: impl FnOnce(usize)) {
    match w {
        1 => f(1),
        2 => f(2),
        4 => f(4),
        8 => f(8),
        w => f(w),
    }
}

/// Lowers NCHW `input` into a patch matrix of shape
/// `(n·oh·ow, c·lh·lw)`, one column per channel and *live* tap
/// ([`LiveTaps`]; `lh·lw = kh·kw` unless the map is smaller than the
/// kernel's reach); returns `(patches, oh, ow)`.
///
/// # Panics
/// Panics if `input` is not rank-4 or the window does not fit.
pub fn im2col(input: &Tensor, kh: usize, kw: usize, p: ConvParams) -> (Tensor, usize, usize) {
    let mut patches = Tensor::default();
    let (oh, ow) = im2col_into(input, kh, kw, p, &mut patches);
    (patches, oh, ow)
}

/// [`im2col`] writing into `patches`, reusing its storage; returns `(oh, ow)`.
///
/// # Panics
/// Panics if `input` is not rank-4 or the window does not fit.
pub fn im2col_into(
    input: &Tensor,
    kh: usize,
    kw: usize,
    p: ConvParams,
    patches: &mut Tensor,
) -> (usize, usize) {
    let (n, c, h, w) = input.shape().as_nchw();
    let g = Lowering::new(c, h, w, kh, kw, p);
    let rows = n * g.oh * g.ow;
    let _t = Timer::start(KernelOp::Im2col);
    patches.resize([rows, g.cols()]);
    let out = patches.data_mut();
    let image = |ni: usize| &input.data()[ni * g.sample_image()..][..g.sample_image()];
    let sample_rows = g.sample_patches();
    if n > 1 && rows * g.cols() >= PAR_MIN_ELEMS && runtime::threads() > 1 {
        // One chunk per batch sample: sample `ni` owns exactly the patch
        // rows `[ni·oh·ow, (ni+1)·oh·ow)` — disjoint output regions, and
        // the per-sample body below is the same code the serial path runs,
        // so the bytes are identical at any thread count.
        let out_ptr = SendPtr::new(out);
        runtime::parallel_for_chunks(n, &|ni| {
            // Safety: per-sample regions are disjoint and in-bounds.
            let sample = unsafe { out_ptr.slice(ni * sample_rows, sample_rows) };
            im2col_sample(image(ni), sample, &g);
        });
    } else {
        for ni in 0..n {
            let sample = &mut out[ni * sample_rows..(ni + 1) * sample_rows];
            im2col_sample(image(ni), sample, &g);
        }
    }
    (g.oh, g.ow)
}

/// Extracts the patch rows of one batch sample — `image`, its `c·h·w`
/// floats — into `out` (that sample's `oh·ow × c·lh·lw` region of the patch
/// matrix). Pure movement: the image is embedded in the zero-bordered halo
/// and every window is then read whole, padding included, so no tap tests a
/// bound.
fn im2col_sample(image: &[f32], out: &mut [f32], g: &Lowering) {
    if g.is_identity() {
        out.copy_from_slice(image);
    } else if g.p.padding == 0 {
        gather_windows(image, out, g, false);
    } else {
        with_halo(g, |halo| {
            halo.fill(0.0);
            with_const_width(g.w, |w| {
                for (row, src) in interior(halo, g, w).zip(image.chunks_exact(w.max(1))) {
                    row.copy_from_slice(src);
                }
            });
            gather_windows(halo, out, g, true);
        });
    }
}

/// Instantiates [`gather_body`] for the run lengths the model zoo meets.
/// With `spill` — `src` is the halo — a 3-float run moves as 4 floats.
fn gather_windows(src: &[f32], out: &mut [f32], g: &Lowering, spill: bool) {
    match (g.live.cols().len(), spill) {
        (1, _) => gather_body(src, out, g, 1, 1),
        (2, _) => gather_body(src, out, g, 2, 2),
        (3, true) => gather_body(src, out, g, 3, 4),
        (3, false) => gather_body(src, out, g, 3, 3),
        (lw, _) => gather_body(src, out, g, lw, lw),
    }
}

/// Copies every live window of `src` — `c` planes of [`Lowering::padded`]
/// extent, windows at their padded coordinates — into the patch rows `out`,
/// one `lw`-float run per channel and live kernel row, in ascending address
/// order. A run is moved as `wide ≥ lw` floats (constants after inlining, so
/// each move is a fixed-width load and store): the `wide − lw` floats
/// written past it are the head of the next run, which overwrites them, and
/// the last output position — whose last run ends the sample's region, the
/// next float being another pool chunk's — is moved at exactly `lw`.
#[inline(always)]
fn gather_body(src: &[f32], out: &mut [f32], g: &Lowering, lw: usize, wide: usize) {
    let (hp, wp) = g.padded();
    let (lh, stride) = (g.live.rows().len(), g.p.stride);
    let cols = g.c * lh * lw;
    // What the unchecked moves in `gather_row` rest on: the run length is
    // the live window's, the furthest window ends inside a plane, `src`
    // holds every plane plus what a wide move reads past the last one, and
    // `out` is exactly the sample's rows.
    assert_eq!(lw, g.live.cols().len());
    assert!((g.oh - 1) * stride + g.live.ky1 <= hp && (g.ow - 1) * stride + g.live.kx1 <= wp);
    assert!(src.len() >= g.c * hp * wp + (wide - lw));
    assert_eq!(out.len(), g.oh * g.ow * cols);
    let last = out.len() - cols;
    for oy in 0..g.oh {
        for ox in 0..g.ow {
            let row = (oy * g.ow + ox) * cols;
            let corner = (oy * stride + g.live.ky0) * wp + ox * stride + g.live.kx0;
            if row == last {
                gather_row(src, out, corner, row, g.c, lh, hp * wp, wp, lw, lw);
            } else {
                gather_row(src, out, corner, row, g.c, lh, hp * wp, wp, lw, wide);
            }
        }
    }
}

/// One output position of [`gather_body`]: `c·lh` runs from `src[corner..]`
/// (plane stride `plane`, row stride `wp`) to `out[row..]`, each moved as
/// `run` floats and `lw` apart in `out`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gather_row(
    src: &[f32],
    out: &mut [f32],
    corner: usize,
    row: usize,
    c: usize,
    lh: usize,
    plane: usize,
    wp: usize,
    lw: usize,
    run: usize,
) {
    for ci in 0..c {
        for r in 0..lh {
            let (s, d) = (corner + ci * plane + r * wp, row + (ci * lh + r) * lw);
            debug_assert!(s + run <= src.len() && d + run <= out.len());
            // SAFETY: by `gather_body`'s asserts the window row `r` of
            // channel `ci` lies inside plane `ci`, so `s + lw ≤ c·plane`,
            // and `src` is `wide − lw` floats longer than that; `d + lw ≤
            // row + c·lh·lw`, the end of this patch row, and a run wider
            // than `lw` is only asked for before the last row, where at
            // least one more row follows in `out`. `src` and `out` are
            // distinct borrows, so the ranges cannot overlap.
            unsafe {
                std::ptr::copy_nonoverlapping(src.as_ptr().add(s), out.as_mut_ptr().add(d), run);
            }
        }
    }
}

/// Inverse of [`im2col`]: scatters (accumulates) a `(n·oh·ow, c·lh·lw)`
/// patch-matrix gradient — live taps only, as [`im2col`] lays them out — back
/// into an NCHW gradient of shape `(n, c, h, w)`.
///
/// # Panics
/// Panics if the patch matrix shape is inconsistent with the arguments.
#[allow(clippy::too_many_arguments)]
pub fn col2im(
    patches: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    p: ConvParams,
) -> Tensor {
    let mut out = Tensor::default();
    col2im_into(patches, n, c, h, w, kh, kw, p, &mut out);
    out
}

/// [`col2im`] writing into `grad`, reusing its storage.
///
/// # Panics
/// Panics if the patch matrix shape is inconsistent with the arguments.
#[allow(clippy::too_many_arguments)]
pub fn col2im_into(
    patches: &Tensor,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    p: ConvParams,
    grad: &mut Tensor,
) {
    let g = Lowering::new(c, h, w, kh, kw, p);
    assert_eq!(
        patches.shape().dims(),
        &[n * g.oh * g.ow, g.cols()],
        "patch matrix shape mismatch (rows n·oh·ow, one column per channel and live tap)"
    );
    let _t = Timer::start(KernelOp::Col2im);
    grad.resize([n, c, h, w]);
    let out = grad.data_mut();
    let rows = |ni: usize| &patches.data()[ni * g.sample_patches()..][..g.sample_patches()];
    let sample_len = g.sample_image();
    if n > 1 && patches.len() >= PAR_MIN_ELEMS && runtime::threads() > 1 {
        // One chunk per batch sample: sample `ni`'s patch rows scatter only
        // into its own `c·h·w` gradient region, and within a sample the
        // accumulation order is the serial one — bit-identical at any
        // thread count.
        let out_ptr = SendPtr::new(out);
        runtime::parallel_for_chunks(n, &|ni| {
            // Safety: per-sample regions are disjoint and in-bounds.
            let sample = unsafe { out_ptr.slice(ni * sample_len, sample_len) };
            col2im_sample(rows(ni), sample, &g);
        });
    } else {
        for ni in 0..n {
            let sample = &mut out[ni * sample_len..(ni + 1) * sample_len];
            col2im_sample(rows(ni), sample, &g);
        }
    }
}

/// Scatters one batch sample's patch-row gradients `rows` into `out` (that
/// sample's `c·h·w` region of the NCHW gradient): every live tap of every
/// window is added into the zeroed halo, unconditionally and in `(oy, ox,
/// ci, ky, kx)` order, and the interior is copied out. An add that lands on
/// a real cell is the add the bounds-tested loop made, in the same order; one
/// that lands in the border is one it skipped, and the border is dropped.
fn col2im_sample(rows: &[f32], out: &mut [f32], g: &Lowering) {
    if g.is_identity() {
        // the one add each cell receives, onto its fresh `+0.0`
        for (cell, v) in out.iter_mut().zip(rows) {
            *cell = 0.0 + v;
        }
    } else if g.p.padding == 0 {
        out.fill(0.0);
        scatter_windows(rows, out, g);
    } else {
        with_halo(g, |halo| {
            halo.fill(0.0);
            scatter_windows(rows, halo, g);
            with_const_width(g.w, |w| {
                for (src, row) in interior(halo, g, w).zip(out.chunks_exact_mut(w.max(1))) {
                    row.copy_from_slice(src);
                }
            });
        });
    }
}

/// Instantiates [`scatter_body`] for the run lengths the model zoo meets.
fn scatter_windows(rows: &[f32], dst: &mut [f32], g: &Lowering) {
    match g.live.cols().len() {
        1 => scatter_body(rows, dst, g, 1),
        2 => scatter_body(rows, dst, g, 2),
        3 => scatter_body(rows, dst, g, 3),
        lw => scatter_body(rows, dst, g, lw),
    }
}

/// Adds the patch rows `rows` into `dst` — `c` planes of
/// [`Lowering::padded`] extent, zeroed by the caller — one `lw`-float run per
/// output position, channel and live kernel row, in that order (`lw` is a
/// constant after inlining).
#[inline(always)]
fn scatter_body(rows: &[f32], dst: &mut [f32], g: &Lowering, lw: usize) {
    let (hp, wp) = g.padded();
    let (lh, stride, plane) = (g.live.rows().len(), g.p.stride, hp * wp);
    let cols = g.c * lh * lw;
    // What the unchecked adds below rest on; see `gather_body`.
    assert_eq!(lw, g.live.cols().len());
    assert!((g.oh - 1) * stride + g.live.ky1 <= hp && (g.ow - 1) * stride + g.live.kx1 <= wp);
    assert!(dst.len() >= g.c * plane);
    assert_eq!(rows.len(), g.oh * g.ow * cols);
    for oy in 0..g.oh {
        for ox in 0..g.ow {
            let row = (oy * g.ow + ox) * cols;
            let corner = (oy * stride + g.live.ky0) * wp + ox * stride + g.live.kx0;
            for ci in 0..g.c {
                for r in 0..lh {
                    let (s, d) = (row + (ci * lh + r) * lw, corner + ci * plane + r * wp);
                    debug_assert!(s + lw <= rows.len() && d + lw <= dst.len());
                    for j in 0..lw {
                        // SAFETY: `s + lw ≤ row + c·lh·lw`, the end of this
                        // patch row of `rows`; by the asserts above window
                        // row `r` of channel `ci` lies inside plane `ci` of
                        // `dst`, so `d + lw ≤ c·plane ≤ dst.len()`.
                        unsafe {
                            *dst.get_unchecked_mut(d + j) += *rows.get_unchecked(s + j);
                        }
                    }
                }
            }
        }
    }
}

/// Shapes one convolution call works out once: `(n, oc, oh, ow)`, the live
/// window, and the patch matrix's `(rows, cols)`.
struct ConvDims {
    n: usize,
    oc: usize,
    oh: usize,
    ow: usize,
    live: LiveTaps,
    rows: usize,
    cols: usize,
}

impl ConvDims {
    fn of(input_shape: &Shape, weight: &Tensor, p: ConvParams) -> Self {
        let (n, ic, h, w) = input_shape.as_nchw();
        let (oc, ic2, kh, kw) = weight.shape().as_nchw();
        assert_eq!(ic, ic2, "conv2d channel mismatch: input {ic}, weight {ic2}");
        let (oh, ow) = (p.out_size(h, kh), p.out_size(w, kw));
        let live = LiveTaps::of(h, w, kh, kw, p);
        ConvDims {
            n,
            oc,
            oh,
            ow,
            live,
            rows: n * oh * ow,
            cols: ic * live.taps(),
        }
    }
}

/// Forward 2-D convolution.
///
/// `input: (n, ic, h, w)`, `weight: (oc, ic, kh, kw)` → `(n, oc, oh, ow)`.
/// Also returns the `(n·oh·ow, ic·lh·lw)` im2col patch matrix, which the
/// backward pass reuses. Both come from the step scratch ([`crate::pool`]).
///
/// # Panics
/// Panics if channel counts disagree or the window does not fit.
pub fn conv2d(input: &Tensor, weight: &Tensor, p: ConvParams) -> (Tensor, Tensor) {
    let d = ConvDims::of(input.shape(), weight, p);
    let (_, _, kh, kw) = weight.shape().as_nchw();
    let mut patches = pool::tensor([d.rows, d.cols]);
    im2col_into(input, kh, kw, p, &mut patches);
    // (n·oh·ow, cols) × (oc, cols)ᵀ = (n·oh·ow, oc); with every tap live the
    // weight storage is already the row-major (oc, cols) matrix — no
    // clone/reshape needed.
    let view = d.live.live_view(weight);
    let mut mat = pool::tensor([d.rows, d.oc]);
    linalg::matmul_a_bt_slices(
        patches.data(),
        view.as_ref().unwrap_or(weight).data(),
        mat.data_mut(),
        d.rows,
        d.cols,
        d.oc,
    );
    let mut out = pool::tensor([d.n, d.oc, d.oh, d.ow]);
    nhwc_rows_to_nchw_into(&mat, d.n, d.oc, d.oh, d.ow, &mut out);
    pool::recycle(mat);
    pool::recycle_all(view);
    (out, patches)
}

/// Integer-path forward convolution: the INT8 replica arm's conv kernel.
///
/// Lowers the raw input with im2col, quantizes the patch matrix and the
/// live `(oc, ic·lh·lw)` weight view to symmetric per-tensor INT8, runs the
/// `i8×i8→i32` GEMM ([`linalg::matmul_i8_a_bt_slices`]) and applies both
/// scales once at the i32→f32 epilogue — no f32 fake-quant matmul anywhere
/// on this path. The patch scale is taken from the patch matrix itself
/// (padding zeros cannot raise max-|x|, so it equals the in-window input
/// scale, whichever taps are lowered). The weight scale is taken from the
/// **whole** weight tensor: a tap that only ever reads padding still
/// carries weight decay, momentum and gradient noise, so it is not zero
/// and may well hold the maximum.
///
/// Returns `(out, patches, patch params, weight params)`, tensors from the
/// step scratch as [`conv2d`]'s. `patches` is the **dequantized** patch
/// matrix — the exact values the integer kernel consumed — so the standard
/// [`conv2d_backward`] differentiates the function the integer kernel
/// actually computed, unchanged.
///
/// # Panics
/// Panics if channel counts disagree or the window does not fit.
pub fn conv2d_int8(
    input: &Tensor,
    weight: &Tensor,
    p: ConvParams,
) -> (Tensor, Tensor, QuantParams, QuantParams) {
    let d = ConvDims::of(input.shape(), weight, p);
    let (_, _, kh, kw) = weight.shape().as_nchw();
    let mut patches = pool::tensor([d.rows, d.cols]);
    im2col_into(input, kh, kw, p, &mut patches);
    let pp = QuantParams::from_tensor(&patches);
    let pw = QuantParams::from_tensor(weight);
    let mut qpatches = pool::take::<i8>(d.rows * d.cols);
    quant::quantize_into(&patches, pp, &mut qpatches);
    let view = d.live.live_view(weight);
    let mut qweight = pool::take::<i8>(d.oc * d.cols);
    quant::quantize_into(view.as_ref().unwrap_or(weight), pw, &mut qweight);
    pool::recycle_all(view);
    let mut imat = pool::take::<i32>(d.rows * d.oc);
    linalg::matmul_i8_a_bt_slices(&qpatches, &qweight, &mut imat, d.rows, d.cols, d.oc);
    pool::give(qweight);
    let mut mat = pool::tensor([d.rows, d.oc]);
    quant::scale_i32_into(&imat, pp.scale * pw.scale, mat.data_mut());
    pool::give(imat);
    let mut out = pool::tensor([d.n, d.oc, d.oh, d.ow]);
    nhwc_rows_to_nchw_into(&mat, d.n, d.oc, d.oh, d.ow, &mut out);
    pool::recycle(mat);
    // Replace the raw patches with their dequantized INT8 values for backward.
    quant::dequantize_into(&qpatches, [d.rows, d.cols], pp, &mut patches);
    pool::give(qpatches);
    (out, patches, pp, pw)
}

/// Backward 2-D convolution.
///
/// Given `grad_out: (n, oc, oh, ow)`, the `(n·oh·ow, ic·lh·lw)` `patches`
/// matrix of the matching forward pass, the `weight: (oc, ic, kh, kw)` and
/// the input geometry, returns `(grad_input, grad_weight)`, both from the
/// step scratch. The weight gradient is always the full `(oc, ic, kh, kw)`
/// one; a tap outside the live window gets `+0.0`. The input gradient — one
/// GEMM for the patch gradients and their `col2im` — is computed only when
/// `want_gx`: the first layer of a network has nobody to hand it to.
///
/// # Panics
/// Panics on any geometry inconsistency.
pub fn conv2d_backward(
    grad_out: &Tensor,
    patches: &Tensor,
    weight: &Tensor,
    input_shape: &Shape,
    p: ConvParams,
    want_gx: bool,
) -> (Option<Tensor>, Tensor) {
    let d = ConvDims::of(input_shape, weight, p);
    let (n, ic, h, w) = input_shape.as_nchw();
    let (_, _, kh, kw) = weight.shape().as_nchw();
    let (gn, goc, oh, ow) = grad_out.shape().as_nchw();
    assert_eq!((gn, goc), (n, d.oc), "grad_out batch/channel mismatch");
    assert_eq!((oh, ow), (d.oh, d.ow), "grad_out spatial mismatch");
    let (rows, cols, live) = (d.rows, d.cols, d.live);
    assert_eq!(
        patches.shape().dims(),
        &[rows, cols],
        "conv2d_backward: `patches` must be the forward pass's (n·oh·ow, ic·lh·lw) = \
         ({rows}, {cols}) patch matrix ({} of the {kh}x{kw} taps are live on a {h}x{w} input)",
        live.taps()
    );
    // (n·oh·ow, oc)
    let mut mat = pool::tensor([rows, d.oc]);
    nchw_to_nhwc_rows_into(grad_out, &mut mat);
    // dW = gmatᵀ × patches  →  (oc, ic·lh·lw)
    let mut gw = pool::tensor([d.oc, ic, kh, kw]);
    let mut gwlive = (!live.is_full()).then(|| pool::tensor([d.oc, cols]));
    linalg::matmul_at_b_slices(
        mat.data(),
        patches.data(),
        gwlive.as_mut().unwrap_or(&mut gw).data_mut(),
        d.oc,
        rows,
        cols,
    );
    if let Some(gwlive) = gwlive {
        // a dead tap's gradient is a sum of `g · 0.0`: exactly `+0.0`
        live.scatter(gwlive.data(), gw.data_mut());
        pool::recycle(gwlive);
    }
    let gx = want_gx.then(|| {
        // dPatches = gmat × Wmat  →  (n·oh·ow, ic·lh·lw)
        let view = live.live_view(weight);
        let mut gpatches = pool::tensor([rows, cols]);
        linalg::matmul_slices(
            mat.data(),
            view.as_ref().unwrap_or(weight).data(),
            gpatches.data_mut(),
            rows,
            d.oc,
            cols,
        );
        pool::recycle_all(view);
        let mut gx = pool::tensor([n, ic, h, w]);
        col2im_into(&gpatches, n, ic, h, w, kh, kw, p, &mut gx);
        pool::recycle(gpatches);
        gx
    });
    pool::recycle(mat);
    (gx, gw)
}

/// Reorders a `(n·oh·ow, c)` matrix (rows in NHWC order) into NCHW: one
/// `(oh·ow, c) → (c, oh·ow)` transpose per sample, and a plain copy on a 1×1
/// map, where the two orders are the same.
///
/// # Panics
/// Panics if `mat` does not hold `n·oh·ow·c` elements.
pub fn nhwc_rows_to_nchw_into(
    mat: &Tensor,
    n: usize,
    c: usize,
    oh: usize,
    ow: usize,
    t: &mut Tensor,
) {
    assert_eq!(mat.len(), n * oh * ow * c, "nhwc_rows_to_nchw_into: size");
    t.resize([n, c, oh, ow]);
    transpose_samples(mat.data(), t.data_mut(), oh * ow, c);
}

/// Reorders an NCHW tensor into a `(n·h·w, c)` matrix (rows in NHWC order),
/// the inverse of [`nhwc_rows_to_nchw_into`].
fn nchw_to_nhwc_rows_into(t: &Tensor, mat: &mut Tensor) {
    let (n, c, h, w) = t.shape().as_nchw();
    mat.resize([n * h * w, c]);
    transpose_samples(t.data(), mat.data_mut(), c, h * w);
}

/// Transposes every `(m, k)` sample of `src` into the `(k, m)` sample of
/// `dst` beside it. A sample is a few KB and stays in L1, so nothing is
/// blocked: each destination row is one strided pass over its sample,
/// written contiguously, with no index tested inside it.
fn transpose_samples(src: &[f32], dst: &mut [f32], m: usize, k: usize) {
    assert_eq!(src.len(), dst.len());
    if m == 1 || k == 1 {
        return dst.copy_from_slice(src);
    }
    let sample = (m * k).max(1);
    for (src, dst) in src.chunks_exact(sample).zip(dst.chunks_exact_mut(sample)) {
        for (j, row) in dst.chunks_exact_mut(m).enumerate() {
            for (i, cell) in row.iter_mut().enumerate() {
                debug_assert!(i * k + j < src.len());
                // SAFETY: `dst` splits into `k` rows of `m`, so `j < k` and
                // `i < m`: `i·k + j < m·k = src.len()`.
                *cell = unsafe { *src.get_unchecked(i * k + j) };
            }
        }
    }
}

/// Forward max pooling. Returns the pooled output and the flat argmax index
/// of each output element (for the backward scatter), both from the step
/// scratch ([`crate::pool`]).
///
/// # Panics
/// Panics if `input` is not rank-4, the window does not fit or
/// `p.padding >= k`.
pub fn max_pool2d(input: &Tensor, k: usize, p: ConvParams) -> (Tensor, Vec<usize>) {
    let (n, c, h, w) = input.shape().as_nchw();
    let mut out = pool::tensor([n, c, p.out_size(h, k), p.out_size(w, k)]);
    let mut argmax = pool::take(out.len());
    max_pool2d_into(input, k, p, &mut out, &mut argmax);
    (out, argmax)
}

/// [`max_pool2d`] writing into `out` and `argmax`, reusing their storage.
///
/// The first maximum of a window in `(ky, kx)` order wins (strict `>`). A
/// window with nothing above `-∞` in it — every element NaN or `-∞` —
/// yields `-∞` and the index of its first in-bounds element, so the
/// backward pass routes its gradient into that window.
///
/// # Panics
/// Panics if `input` is not rank-4, the window does not fit or
/// `p.padding >= k` (some window would hold no input element at all).
pub fn max_pool2d_into(
    input: &Tensor,
    k: usize,
    p: ConvParams,
    out: &mut Tensor,
    argmax: &mut Vec<usize>,
) {
    let (n, c, h, w) = input.shape().as_nchw();
    assert!(
        p.padding < k,
        "max_pool2d: padding {} leaves a {k}x{k} window without an input element",
        p.padding
    );
    let oh = p.out_size(h, k);
    let ow = p.out_size(w, k);
    out.resize([n, c, oh, ow]);
    argmax.resize(n * c * oh * ow, 0);
    let dims = (n * c, h, w, oh, ow);
    match (k, p.stride, p.padding) {
        (2, 2, 0) => max_pool_body(input.data(), out.data_mut(), argmax, dims, 2, 2, 0),
        (k, stride, pad) => {
            max_pool_body(input.data(), out.data_mut(), argmax, dims, k, stride, pad)
        }
    }
}

/// The pooling loop over `planes` maps of `h × w`; `k`, `stride` and `pad`
/// are constants in the 2×2 instantiation. Each window is clamped to the map
/// once per output position, so the compare loop tests no bound.
#[inline(always)]
fn max_pool_body(
    data: &[f32],
    out: &mut [f32],
    argmax: &mut [usize],
    (planes, h, w, oh, ow): (usize, usize, usize, usize, usize),
    k: usize,
    stride: usize,
    pad: usize,
) {
    // What the unchecked reads rest on: every plane is in `data`, an
    // unpadded window fits its plane, and a padded one is clamped to it
    // (below).
    assert_eq!(data.len(), planes * h * w);
    assert!((oh - 1) * stride + k <= h + 2 * pad && (ow - 1) * stride + k <= w + 2 * pad);
    // `[first, end)` of output position `o`'s window along an axis. Without
    // padding the clamp never binds (`out_size` fits the last window); said
    // outright, the 2×2 instantiation sees constant trip counts.
    let span = |o: usize, extent: usize| {
        if pad == 0 {
            (o * stride, o * stride + k)
        } else {
            (
                (o * stride).saturating_sub(pad),
                (o * stride + k - pad).min(extent),
            )
        }
    };
    let planes = out
        .chunks_exact_mut((oh * ow).max(1))
        .zip(argmax.chunks_exact_mut((oh * ow).max(1)));
    for (plane, (out, argmax)) in planes.enumerate() {
        let base = plane * h * w;
        let rows = out.chunks_exact_mut(ow).zip(argmax.chunks_exact_mut(ow));
        for (oy, (out, argmax)) in rows.enumerate() {
            let (y0, y1) = span(oy, h);
            for (ox, (cell, arg)) in out.iter_mut().zip(argmax).enumerate() {
                let (x0, x1) = span(ox, w);
                debug_assert!(y0 < y1 && y1 <= h && x0 < x1 && x1 <= w);
                let (mut best, mut at) = (f32::NEG_INFINITY, base + y0 * w + x0);
                for y in y0..y1 {
                    for idx in base + y * w + x0..base + y * w + x1 {
                        // SAFETY: `y < y1 ≤ h` and `x1 ≤ w`, so `idx < base +
                        // h·w`, at most `planes·h·w = data.len()`.
                        let v = unsafe { *data.get_unchecked(idx) };
                        // two selects, not a branch: which element of a
                        // window wins is a coin toss
                        let wins = v > best;
                        best = if wins { v } else { best };
                        at = if wins { idx } else { at };
                    }
                }
                (*cell, *arg) = (best, at);
            }
        }
    }
}

/// Backward max pooling: routes each output gradient to its argmax input.
/// The gradient comes from the step scratch ([`crate::pool`]).
///
/// # Panics
/// Panics if an index of `argmax` is outside `input_shape`.
pub fn max_pool2d_backward(grad_out: &Tensor, argmax: &[usize], input_shape: &Shape) -> Tensor {
    let mut gx = pool::zeroed(input_shape.clone());
    let cells = gx.data_mut();
    for (g, &idx) in grad_out.data().iter().zip(argmax.iter()) {
        cells[idx] += g;
    }
    gx
}

/// Global average pooling over the spatial dimensions: `(n,c,h,w) → (n,c)`,
/// into a step-scratch tensor ([`crate::pool`]).
///
/// # Panics
/// Panics if `input` is not rank-4.
pub fn global_avg_pool(input: &Tensor) -> Tensor {
    let (n, c, h, w) = input.shape().as_nchw();
    let hw = (h * w) as f32;
    let mut out = pool::tensor([n, c]);
    let data = input.data();
    for (i, o) in out.data_mut().iter_mut().enumerate() {
        *o = data[i * h * w..(i + 1) * h * w].iter().sum::<f32>() / hw;
    }
    out
}

/// Backward of [`global_avg_pool`]: spreads each `(n,c)` gradient uniformly
/// over the `(h, w)` window, into a step-scratch tensor.
pub fn global_avg_pool_backward(grad_out: &Tensor, input_shape: &Shape) -> Tensor {
    let (_, _, h, w) = input_shape.as_nchw();
    let hw = (h * w) as f32;
    let mut gx = pool::tensor(input_shape.clone());
    let cells = gx.data_mut();
    for (i, g) in grad_out.data().iter().enumerate() {
        cells[i * h * w..(i + 1) * h * w].fill(g / hw);
    }
    gx
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn seq_tensor(shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        let data = (0..shape.len()).map(|i| i as f32).collect();
        Tensor::from_vec(data, shape)
    }

    #[test]
    fn out_size_formula() {
        let p = ConvParams::new(1, 0);
        assert_eq!(p.out_size(5, 3), 3);
        let p = ConvParams::new(2, 1);
        assert_eq!(p.out_size(4, 3), 2);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: patches == input reordered (n*h*w, c)
        let x = seq_tensor([1, 2, 2, 2]);
        let (p, oh, ow) = im2col(&x, 1, 1, ConvParams::default());
        assert_eq!((oh, ow), (2, 2));
        assert_eq!(p.shape().dims(), &[4, 2]);
        // row (y=0,x=0) should be [x[0,0,0,0], x[0,1,0,0]] = [0, 4]
        assert_eq!(&p.data()[0..2], &[0.0, 4.0]);
    }

    #[test]
    fn conv2d_known_values() {
        // 3x3 input, 2x2 kernel of ones => each output = window sum
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            [1, 1, 3, 3],
        );
        let w = Tensor::ones([1, 1, 2, 2]);
        let (y, _) = conv2d(&x, &w, ConvParams::default());
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv2d_padding_keeps_size() {
        let x = Tensor::ones([2, 3, 4, 4]);
        let w = Tensor::ones([5, 3, 3, 3]);
        let (y, _) = conv2d(&x, &w, ConvParams::new(1, 1));
        assert_eq!(y.shape().dims(), &[2, 5, 4, 4]);
        // center outputs see all 27 ones
        assert_eq!(y.at(&[0, 0, 1, 1]), 27.0);
        // corner outputs see 2x2x3 = 12 ones
        assert_eq!(y.at(&[0, 0, 0, 0]), 12.0);
    }

    /// Finite-difference gradient check for conv2d.
    #[test]
    fn conv2d_gradcheck() {
        let p = ConvParams::new(1, 1);
        let x = Tensor::from_vec(
            (0..2 * 2 * 3 * 3).map(|i| (i as f32 * 0.7).sin()).collect(),
            [2, 2, 3, 3],
        );
        let w = Tensor::from_vec(
            (0..3 * 2 * 3 * 3)
                .map(|i| (i as f32 * 0.3).cos() * 0.5)
                .collect(),
            [3, 2, 3, 3],
        );
        let loss =
            |x: &Tensor, w: &Tensor| conv2d(x, w, p).0.data().iter().map(|v| v * v).sum::<f32>();
        let (y, patches) = conv2d(&x, &w, p);
        let grad_y = y.scale(2.0); // d(sum y^2)/dy
        let (gx, gw) = conv2d_backward(&grad_y, &patches, &w, x.shape(), p, true);
        let gx = gx.unwrap();

        let eps = 1e-3;
        for idx in [0usize, 5, 17, 30] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!(
                (num - gx.data()[idx]).abs() < 2e-2,
                "dx[{idx}]: numeric {num} vs analytic {}",
                gx.data()[idx]
            );
        }
        for idx in [0usize, 9, 25, 53] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!(
                (num - gw.data()[idx]).abs() < 2e-2,
                "dw[{idx}]: numeric {num} vs analytic {}",
                gw.data()[idx]
            );
        }
    }

    /// A run whose every buffer comes out of the step scratch with stale
    /// contents equals a run on fresh allocations, forward and backward,
    /// with and without the input gradient.
    #[test]
    fn scratch_variants_match_allocating() {
        let p = ConvParams::new(1, 1);
        let x = Tensor::from_vec(
            (0..2 * 2 * 5 * 5).map(|i| (i as f32 * 0.7).sin()).collect(),
            [2, 2, 5, 5],
        );
        let w = Tensor::from_vec(
            (0..3 * 2 * 3 * 3)
                .map(|i| (i as f32 * 0.3).cos() * 0.5)
                .collect(),
            [3, 2, 3, 3],
        );
        let run = || {
            let (y, patches) = conv2d(&x, &w, p);
            let gy = y.scale(2.0);
            let (gx, gw) = conv2d_backward(&gy, &patches, &w, x.shape(), p, true);
            let (none, gw_only) = conv2d_backward(&gy, &patches, &w, x.shape(), p, false);
            assert!(none.is_none());
            assert_eq!(bits(&gw_only), bits(&gw), "dW without dX");
            (y, patches, gx.unwrap(), gw)
        };
        let fresh = pool::transient(run);
        // Prime the scratch by running a *different* shape first, then hand
        // the first run's buffers over: the second run finds every size it
        // asks for parked, poisoned.
        let (y0, p0) = conv2d(&Tensor::ones([1, 2, 4, 4]), &w, p);
        pool::recycle(y0);
        pool::recycle(p0);
        let (y, patches, gx, gw) = run();
        let ptr = patches.data().as_ptr(); // the one 50 x 18 buffer of a run
        for t in [y, patches, gx, gw] {
            pool::recycle(t);
        }
        let again = run();
        assert_eq!(again.1.data().as_ptr(), ptr, "the parked patch matrix");
        assert_eq!(again, fresh);
    }

    /// The integer conv forward must reproduce the widened-i32 reference
    /// bit for bit, leave dequantized patches behind for backward, and stay
    /// close to the f32 convolution.
    #[test]
    fn int8_conv_matches_widened_reference_exactly() {
        let p = ConvParams::new(1, 1);
        let (n, ic, h, w_, oc, kh, kw) = (2usize, 2, 5, 5, 3, 3, 3);
        let x = Tensor::from_vec(
            (0..n * ic * h * w_)
                .map(|i| (i as f32 * 0.7).sin())
                .collect(),
            [n, ic, h, w_],
        );
        let w = Tensor::from_vec(
            (0..oc * ic * kh * kw)
                .map(|i| (i as f32 * 0.3).cos() * 0.5)
                .collect(),
            [oc, ic, kh, kw],
        );
        let (y8, deq, pp, pw) = conv2d_int8(&x, &w, p);

        // Reference: quantize the raw patches and weight, accumulate in i32.
        let (patches, oh, ow) = im2col(&x, kh, kw, p);
        assert_eq!(pp.scale, QuantParams::from_tensor(&patches).scale);
        let cols = ic * kh * kw;
        let qp = quant::quantize(&patches, pp);
        let qw = quant::quantize(&w, pw);
        let scale = pp.scale * pw.scale;
        let mut expect = Tensor::zeros([n, oc, oh, ow]);
        for ni in 0..n {
            for j in 0..oc {
                for y in 0..oh {
                    for xx in 0..ow {
                        let row = ((ni * oh + y) * ow + xx) * cols;
                        let mut acc = 0i32;
                        for ci in 0..cols {
                            acc += qp[row + ci] as i32 * qw[j * cols + ci] as i32;
                        }
                        expect.data_mut()[((ni * oc + j) * oh + y) * ow + xx] = acc as f32 * scale;
                    }
                }
            }
        }
        assert_eq!(y8, expect);

        // Patches left behind are the dequantized values the kernel saw.
        assert_eq!(deq, quant::dequantize(&qp, patches.shape().clone(), pp));

        // And the whole thing stays close to the f32 convolution.
        let (y32, _) = conv2d(&x, &w, p);
        let dot: f32 = y8.data().iter().zip(y32.data()).map(|(a, b)| a * b).sum();
        let cos = dot / (y8.l2_norm() * y32.l2_norm());
        assert!(cos > 0.98, "cos {cos}");
    }

    #[test]
    fn col2im_adjoint_of_im2col() {
        // <im2col(x), p> == <x, col2im(p)> for all x, p (adjoint property).
        let p = ConvParams::new(2, 1);
        let x = seq_tensor([1, 2, 4, 4]);
        let (patches, _, _) = im2col(&x, 3, 3, p);
        let probe = Tensor::from_vec(
            (0..patches.len())
                .map(|i| ((i * 7 % 13) as f32) - 6.0)
                .collect(),
            patches.shape().clone(),
        );
        let lhs = patches.dot(&probe);
        let back = col2im(&probe, 1, 2, 4, 4, 3, 3, p);
        let rhs = x.dot(&back);
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    /// The oracle: the bounds-tested per-sample bodies over a tap window,
    /// the index-arithmetic reorders and the bounds-tested pool exactly as
    /// production ran them before the halo, and — over the window that is
    /// the whole kernel — the three convolutions as they stood before the
    /// live-tap window (batch loops serial, which the pool path equalled
    /// byte for byte). The halo bodies must equal the former and the
    /// live-tap lowering the latter, bit for bit.
    mod reference {
        use super::super::*;

        /// The buffers a convolution layer kept for itself before the step
        /// scratch: the oracle still runs on them.
        #[derive(Debug, Default)]
        pub struct ConvScratch {
            pub patches: Tensor,
            mat: Tensor,
            gpatches: Tensor,
            qpatches: Vec<i8>,
            qweight: Vec<i8>,
            imat: Vec<i32>,
        }

        /// All `kh × kw` taps as a window.
        fn all_taps(kh: usize, kw: usize) -> LiveTaps {
            LiveTaps {
                kh,
                kw,
                ky0: 0,
                ky1: kh,
                kx0: 0,
                kx1: kw,
            }
        }

        pub fn im2col_into(
            input: &Tensor,
            kh: usize,
            kw: usize,
            p: ConvParams,
            patches: &mut Tensor,
        ) -> (usize, usize) {
            let (n, c, h, w) = input.shape().as_nchw();
            let oh = p.out_size(h, kh);
            let ow = p.out_size(w, kw);
            let cols = c * kh * kw;
            patches.resize([n * oh * ow, cols]);
            let sample_rows = oh * ow * cols;
            let live = all_taps(kh, kw);
            for (ni, sample) in patches
                .data_mut()
                .chunks_mut(sample_rows.max(1))
                .enumerate()
            {
                im2col_sample(input.data(), sample, ni, c, h, w, live, oh, ow, p);
            }
            (oh, ow)
        }

        /// Extracts the patch rows of batch sample `ni` of `data` into
        /// `out`, testing every tap against the map's bounds.
        #[allow(clippy::too_many_arguments)]
        pub fn im2col_sample(
            data: &[f32],
            out: &mut [f32],
            ni: usize,
            c: usize,
            h: usize,
            w: usize,
            live: LiveTaps,
            oh: usize,
            ow: usize,
            p: ConvParams,
        ) {
            let (lh, lw) = (live.rows().len(), live.cols().len());
            let cols = c * lh * lw;
            // Zero first: padding positions are skipped by the scatter below and must
            // read as zero even when the buffer is recycled.
            out.fill(0.0);
            let pad = p.padding as isize;
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = (oy * ow + ox) * cols;
                    for ci in 0..c {
                        let chan = (ni * c + ci) * h * w;
                        for ky in live.rows() {
                            let iy = (oy * p.stride + ky) as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let src_row = chan + iy as usize * w;
                            let dst = row + (ci * lh + ky - live.ky0) * lw;
                            for kx in live.cols() {
                                let ix = (ox * p.stride + kx) as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                out[dst + kx - live.kx0] = data[src_row + ix as usize];
                            }
                        }
                    }
                }
            }
        }

        #[allow(clippy::too_many_arguments)]
        pub fn col2im_into(
            patches: &Tensor,
            n: usize,
            c: usize,
            h: usize,
            w: usize,
            kh: usize,
            kw: usize,
            p: ConvParams,
            grad: &mut Tensor,
        ) {
            let oh = p.out_size(h, kh);
            let ow = p.out_size(w, kw);
            assert_eq!(patches.shape().dims(), &[n * oh * ow, c * kh * kw]);
            grad.resize([n, c, h, w]);
            let live = all_taps(kh, kw);
            for (ni, sample) in grad.data_mut().chunks_mut((c * h * w).max(1)).enumerate() {
                col2im_sample(patches.data(), sample, ni, c, h, w, live, oh, ow, p);
            }
        }

        /// Scatters batch sample `ni`'s rows of the patch matrix `data`
        /// into `out`, testing every tap against the map's bounds.
        #[allow(clippy::too_many_arguments)]
        pub fn col2im_sample(
            data: &[f32],
            out: &mut [f32],
            ni: usize,
            c: usize,
            h: usize,
            w: usize,
            live: LiveTaps,
            oh: usize,
            ow: usize,
            p: ConvParams,
        ) {
            let (lh, lw) = (live.rows().len(), live.cols().len());
            let cols = c * lh * lw;
            out.fill(0.0);
            let pad = p.padding as isize;
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((ni * oh + oy) * ow + ox) * cols;
                    for ci in 0..c {
                        let chan = ci * h * w;
                        for ky in live.rows() {
                            let iy = (oy * p.stride + ky) as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let dst_row = chan + iy as usize * w;
                            let src = row + (ci * lh + ky - live.ky0) * lw;
                            for kx in live.cols() {
                                let ix = (ox * p.stride + kx) as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                out[dst_row + ix as usize] += data[src + kx - live.kx0];
                            }
                        }
                    }
                }
            }
        }

        pub fn nhwc_rows_to_nchw_into(
            mat: &Tensor,
            n: usize,
            c: usize,
            oh: usize,
            ow: usize,
            t: &mut Tensor,
        ) {
            t.resize([n, c, oh, ow]);
            let out = t.data_mut();
            let data = mat.data();
            for ni in 0..n {
                for y in 0..oh {
                    for x in 0..ow {
                        let row = ((ni * oh + y) * ow + x) * c;
                        for ci in 0..c {
                            out[((ni * c + ci) * oh + y) * ow + x] = data[row + ci];
                        }
                    }
                }
            }
        }

        pub fn nchw_to_nhwc_rows_into(t: &Tensor, mat: &mut Tensor) {
            let (n, c, h, w) = t.shape().as_nchw();
            mat.resize([n * h * w, c]);
            let out = mat.data_mut();
            let data = t.data();
            for ni in 0..n {
                for ci in 0..c {
                    for y in 0..h {
                        for x in 0..w {
                            out[((ni * h + y) * w + x) * c + ci] =
                                data[((ni * c + ci) * h + y) * w + x];
                        }
                    }
                }
            }
        }

        /// The pool as it stood, but for the argmax of a window nothing in
        /// which beats `-∞`: its first in-bounds element, not element 0 of
        /// the tensor.
        pub fn max_pool2d(input: &Tensor, k: usize, p: ConvParams) -> (Tensor, Vec<usize>) {
            let (n, c, h, w) = input.shape().as_nchw();
            let oh = p.out_size(h, k);
            let ow = p.out_size(w, k);
            let mut out = vec![f32::NEG_INFINITY; n * c * oh * ow];
            let mut arg = vec![usize::MAX; n * c * oh * ow];
            let data = input.data();
            let pad = p.padding as isize;
            for ni in 0..n {
                for ci in 0..c {
                    let chan = (ni * c + ci) * h * w;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let o = ((ni * c + ci) * oh + oy) * ow + ox;
                            for ky in 0..k {
                                let iy = (oy * p.stride + ky) as isize - pad;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ix = (ox * p.stride + kx) as isize - pad;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let idx = chan + iy as usize * w + ix as usize;
                                    if data[idx] > out[o] {
                                        out[o] = data[idx];
                                        arg[o] = idx;
                                    } else if arg[o] == usize::MAX {
                                        arg[o] = idx;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            (Tensor::from_vec(out, Shape::from([n, c, oh, ow])), arg)
        }

        pub fn conv2d_scratch(
            input: &Tensor,
            weight: &Tensor,
            p: ConvParams,
            scratch: &mut ConvScratch,
            out: &mut Tensor,
        ) {
            let (n, ic, _h, _w) = input.shape().as_nchw();
            let (oc, ic2, kh, kw) = weight.shape().as_nchw();
            assert_eq!(ic, ic2, "conv2d channel mismatch: input {ic}, weight {ic2}");
            let (oh, ow) = im2col_into(input, kh, kw, p, &mut scratch.patches);
            let rows = n * oh * ow;
            let cols = ic * kh * kw;
            // (n·oh·ow, cols) × (oc, cols)ᵀ = (n·oh·ow, oc); the weight storage is
            // already the row-major (oc, cols) matrix — no clone/reshape needed.
            scratch.mat.resize([rows, oc]);
            linalg::matmul_a_bt_slices(
                scratch.patches.data(),
                weight.data(),
                scratch.mat.data_mut(),
                rows,
                cols,
                oc,
            );
            nhwc_rows_to_nchw_into(&scratch.mat, n, oc, oh, ow, out);
        }

        pub fn conv2d_int8_scratch(
            input: &Tensor,
            weight: &Tensor,
            p: ConvParams,
            scratch: &mut ConvScratch,
            out: &mut Tensor,
        ) -> (QuantParams, QuantParams) {
            let (n, ic, _h, _w) = input.shape().as_nchw();
            let (oc, ic2, kh, kw) = weight.shape().as_nchw();
            assert_eq!(ic, ic2, "conv2d channel mismatch: input {ic}, weight {ic2}");
            let (oh, ow) = im2col_into(input, kh, kw, p, &mut scratch.patches);
            let rows = n * oh * ow;
            let cols = ic * kh * kw;
            let pp = QuantParams::from_tensor(&scratch.patches);
            let pw = QuantParams::from_tensor(weight);
            quant::quantize_into(&scratch.patches, pp, &mut scratch.qpatches);
            quant::quantize_into(weight, pw, &mut scratch.qweight);
            scratch.imat.clear();
            scratch.imat.resize(rows * oc, 0);
            linalg::matmul_i8_a_bt_slices(
                &scratch.qpatches,
                &scratch.qweight,
                &mut scratch.imat,
                rows,
                cols,
                oc,
            );
            scratch.mat.resize([rows, oc]);
            quant::scale_i32_into(&scratch.imat, pp.scale * pw.scale, scratch.mat.data_mut());
            nhwc_rows_to_nchw_into(&scratch.mat, n, oc, oh, ow, out);
            // Replace the raw patches with their dequantized INT8 values for backward.
            let shape = scratch.patches.shape().clone();
            quant::dequantize_into(&scratch.qpatches, shape, pp, &mut scratch.patches);
            (pp, pw)
        }

        #[allow(clippy::too_many_arguments)]
        pub fn conv2d_backward_scratch(
            grad_out: &Tensor,
            patches: &Tensor,
            weight: &Tensor,
            input_shape: &Shape,
            p: ConvParams,
            scratch: &mut ConvScratch,
            gx: &mut Tensor,
            gw: &mut Tensor,
        ) {
            let (n, ic, h, w) = input_shape.as_nchw();
            let (oc, _ic, kh, kw) = weight.shape().as_nchw();
            let (gn, goc, oh, ow) = grad_out.shape().as_nchw();
            assert_eq!((gn, goc), (n, oc), "grad_out batch/channel mismatch");
            let rows = n * oh * ow;
            let cols = ic * kh * kw;
            // (n·oh·ow, oc)
            nchw_to_nhwc_rows_into(grad_out, &mut scratch.mat);
            // dW = gmatᵀ × patches  →  (oc, ic·kh·kw)
            gw.resize([oc, ic, kh, kw]);
            linalg::matmul_at_b_slices(
                scratch.mat.data(),
                patches.data(),
                gw.data_mut(),
                oc,
                rows,
                cols,
            );
            // dPatches = gmat × Wmat  →  (n·oh·ow, ic·kh·kw)
            scratch.gpatches.resize([rows, cols]);
            linalg::matmul_slices(
                scratch.mat.data(),
                weight.data(),
                scratch.gpatches.data_mut(),
                rows,
                oc,
                cols,
            );
            col2im_into(&scratch.gpatches, n, ic, h, w, kh, kw, p, gx);
        }
    }

    /// Bit patterns, so `-0.0` against `+0.0` and NaN payloads count.
    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Values in `[-1, 1)` with exact `+0.0` and `-0.0` sprinkled in.
    fn signed_zero_values(shape: impl Into<Shape>, rng: &mut StdRng) -> Tensor {
        let shape = shape.into();
        let data = (0..shape.len())
            .map(|_| match rng.gen_range(0..8u32) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-1.0f32..1.0),
            })
            .collect();
        Tensor::from_vec(data, shape)
    }

    /// Finite non-zero weights: a dead tap must not be able to hide behind
    /// a zero weight.
    fn weights(shape: impl Into<Shape>, rng: &mut StdRng) -> Tensor {
        let shape = shape.into();
        let data = (0..shape.len())
            .map(|_| rng.gen_range(0.05f32..1.0) * if rng.gen() { 1.0 } else { -1.0 })
            .collect();
        Tensor::from_vec(data, shape)
    }

    /// A gradient buffer as the reference's caller hands it over: right
    /// size, stale contents.
    fn stale(shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        Tensor::from_vec(vec![f32::NAN; shape.len()], shape)
    }

    /// One convolution through the live-tap lowering and through the
    /// reference, forward (f32 or INT8) and backward, the lowering on the
    /// step scratch (whose parked buffers are poisoned in this build) and
    /// the reference recycling its own; asserts `y`, the scales, `dX` and
    /// `dW` equal bit for bit. `what` names the case in a failure.
    fn assert_matches_reference(
        x: &Tensor,
        w: &Tensor,
        gy_of: &dyn Fn(&Tensor) -> Tensor,
        p: ConvParams,
        int8: bool,
        r: &mut reference::ConvScratch,
        what: &str,
    ) {
        let mut ry = Tensor::default();
        let (y, patches) = if int8 {
            let (y, patches, pp, pw) = conv2d_int8(x, w, p);
            let rscales = reference::conv2d_int8_scratch(x, w, p, r, &mut ry);
            assert_eq!((pp, pw), rscales, "{what}: quantization scales");
            (y, patches)
        } else {
            reference::conv2d_scratch(x, w, p, r, &mut ry);
            conv2d(x, w, p)
        };
        assert_eq!(y.shape(), ry.shape(), "{what}: output shape");
        assert_eq!(bits(&y), bits(&ry), "{what}: y");

        let gy = gy_of(&y);
        let (oc, ic, kh, kw) = w.shape().as_nchw();
        let (gx, gw) = conv2d_backward(&gy, &patches, w, x.shape(), p, true);
        let (mut rgx, mut rgw) = (stale(x.shape().clone()), stale([oc, ic, kh, kw]));
        let rpatches = std::mem::take(&mut r.patches);
        reference::conv2d_backward_scratch(&gy, &rpatches, w, x.shape(), p, r, &mut rgx, &mut rgw);
        r.patches = rpatches;
        let gx = gx.expect("asked for");
        assert_eq!(bits(&gx), bits(&rgx), "{what}: dX");
        assert_eq!(gw.shape(), rgw.shape(), "{what}: dW shape");
        assert_eq!(bits(&gw), bits(&rgw), "{what}: dW");
        // without the input gradient the weight gradient is the same one
        let (none, gw_only) = conv2d_backward(&gy, &patches, w, x.shape(), p, false);
        assert!(none.is_none(), "{what}: dX nobody asked for");
        assert_eq!(bits(&gw_only), bits(&rgw), "{what}: dW without dX");
        for t in [y, patches, gx, gw, gw_only] {
            pool::recycle(t);
        }
    }

    /// The window rule on the geometries the model zoo meets at 8×8 inputs
    /// (and the ones that must keep the whole kernel).
    #[test]
    fn live_window_rule() {
        let window = |h, w, k, stride, pad| {
            let live = LiveTaps::of(h, w, k, k, ConvParams::new(stride, pad));
            (live.rows(), live.cols(), live.is_full())
        };
        // 1×1 map, 3×3 / pad 1: the centre tap alone
        assert_eq!(window(1, 1, 3, 1, 1), (1..2, 1..2, false));
        // 2×2 → 1×1 at stride 2: the one window starts at (-1, -1)
        assert_eq!(window(2, 2, 3, 2, 1), (1..3, 1..3, false));
        // 2×2 at stride 1: four windows, every tap lands inside once
        assert_eq!(window(2, 2, 3, 1, 1), (0..3, 0..3, true));
        // 1×1 kernels and unpadded kernels have no padding to read
        assert_eq!(window(1, 1, 1, 1, 0), (0..1, 0..1, true));
        assert_eq!(window(4, 4, 1, 2, 0), (0..1, 0..1, true));
        assert_eq!(window(3, 3, 3, 1, 0), (0..3, 0..3, true));
        assert_eq!(window(5, 6, 5, 2, 0), (0..5, 0..5, true));
        // one axis at a time
        let live = LiveTaps::of(1, 4, 3, 3, ConvParams::new(1, 1));
        assert_eq!((live.rows(), live.cols(), live.taps()), (1..2, 0..3, 3));
        // 5×5 / pad 2 on 1×1 and on 2×2
        assert_eq!(window(1, 1, 5, 1, 2), (2..3, 2..3, false));
        assert_eq!(window(2, 2, 5, 1, 2), (1..4, 1..4, false));
        // stride 2 over a 1-wide map, pad 2: outputs 0 and 1 see taps 2 and
        // 0, tap 1 is dead *inside* the window — lowered as before
        assert_eq!(window(1, 1, 3, 2, 2), (0..3, 0..3, true));
        // no live tap at all (k1, pad 1, stride 2 on 1×1): whole kernel
        assert_eq!(window(1, 1, 1, 2, 1), (0..1, 0..1, true));
    }

    /// The window is exactly the hull of the live taps, by brute force over
    /// every output position.
    #[test]
    fn live_window_is_the_hull_of_the_taps_that_meet_the_input() {
        for (k, stride, pad, size) in geometries() {
            let p = ConvParams::new(stride, pad);
            let out = p.out_size(size, k);
            let meets = |t: usize| (0..out).any(|o| (pad..pad + size).contains(&(o * stride + t)));
            let hull = match ((0..k).find(|&t| meets(t)), (0..k).rfind(|&t| meets(t))) {
                (Some(first), Some(last)) => first..last + 1,
                _ => 0..k,
            };
            let live = LiveTaps::of(size, 1, k, 1, p);
            assert_eq!(live.rows(), hull, "k{k} s{stride} p{pad} on {size}");
            let live = LiveTaps::of(1, size, 1, k, p);
            assert_eq!(live.cols(), hull, "k{k} s{stride} p{pad} on {size}");
        }
    }

    /// Every `(k, stride, padding, extent)` of the differential property
    /// whose window fits.
    fn geometries() -> impl Iterator<Item = (usize, usize, usize, usize)> {
        [1usize, 3, 5].into_iter().flat_map(|k| {
            (1..=2).flat_map(move |stride| {
                (0..=2).flat_map(move |pad| {
                    (1..=6)
                        .filter(move |size| size + 2 * pad >= k)
                        .map(move |size| (k, stride, pad, size))
                })
            })
        })
    }

    /// The differential property: over every kernel ∈ {1, 3, 5}, stride ∈
    /// {1, 2}, padding 0…2 and rectangular input 1…6 × 1…6 that fits — batch
    /// 1…5 and odd channel counts drawn per case, inputs and gradients
    /// holding `-0.0` — the f32 and the INT8 forward, the returned scales,
    /// `dX` and `dW` equal the all-taps reference bit for bit, with one
    /// scratch recycled across every case.
    #[test]
    fn live_tap_lowering_matches_the_all_taps_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(18);
        let mut scratch = Default::default();
        let (mut cases, mut trimmed) = (0, 0);
        for (k, stride, pad, h) in geometries() {
            for w in (1..=6).filter(|w| w + 2 * pad >= k) {
                let p = ConvParams::new(stride, pad);
                let n = rng.gen_range(1..=5usize);
                let ic = 2 * rng.gen_range(0..3usize) + 1;
                let oc = 2 * rng.gen_range(0..3usize) + 1;
                let x = signed_zero_values([n, ic, h, w], &mut rng);
                let wt = weights([oc, ic, k, k], &mut rng);
                let gy = |y: &Tensor| {
                    signed_zero_values(y.shape().clone(), &mut StdRng::seed_from_u64(cases))
                };
                for int8 in [false, true] {
                    let what = format!(
                        "k{k} s{stride} p{pad} on {n}x{ic}x{h}x{w} -> {oc}, {}",
                        if int8 { "INT8" } else { "f32" }
                    );
                    assert_matches_reference(&x, &wt, &gy, p, int8, &mut scratch, &what);
                }
                cases += 1;
                trimmed += usize::from(!LiveTaps::of(h, w, k, k, p).is_full());
            }
        }
        println!("{trimmed} of {cases} geometries had a dead tap to drop");
        assert!(trimmed >= 50, "only {trimmed} of {cases} were trimmed");
    }

    /// The live weight view is gathered on every call: the same scratch must
    /// follow the weights through an optimizer step, forward and backward.
    #[test]
    fn live_weight_view_follows_the_weights() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = ConvParams::new(1, 1);
        let x = signed_zero_values([3, 5, 1, 1], &mut rng);
        let gy = |y: &Tensor| y.scale(2.0);
        let mut scratch = Default::default();
        for step in 0..3 {
            let wt = weights([7, 5, 3, 3], &mut rng);
            for int8 in [false, true] {
                let what = format!("step {step}, int8 {int8}");
                assert_matches_reference(&x, &wt, &gy, p, int8, &mut scratch, &what);
            }
        }
    }

    /// The INT8 weight scale comes from the whole tensor: a dead tap that
    /// holds the largest weight still sets it.
    #[test]
    fn int8_weight_scale_sees_the_dead_taps() {
        let mut rng = StdRng::seed_from_u64(9);
        let p = ConvParams::new(1, 1);
        let x = signed_zero_values([2, 3, 1, 1], &mut rng);
        let mut wt = weights([3, 3, 3, 3], &mut rng);
        wt.data_mut()[0] = 40.0; // tap (0, 0): dead on a 1×1 map
        let (_, _, _, pw) = conv2d_int8(&x, &wt, p);
        assert_eq!(pw.scale, 40.0 / 127.0);
        let gy = |y: &Tensor| y.scale(0.5);
        assert_matches_reference(&x, &wt, &gy, p, true, &mut Default::default(), "dead max");
    }

    /// The stated precondition, pinned: a non-finite weight on a dead tap
    /// does not reach the output (the all-taps lowering multiplied it by a
    /// padding zero and got NaN), on a live tap it still does; likewise a
    /// non-finite output gradient leaves the dead taps of `dW` at `+0.0`.
    #[test]
    fn non_finite_operands_reach_the_output_through_live_taps_only() {
        let p = ConvParams::new(1, 1);
        let x = Tensor::from_vec(vec![0.5, -0.25], [1, 2, 1, 1]);
        let clean = Tensor::from_vec(
            (0..18).map(|i| i as f32 * 0.1 - 0.9).collect(),
            [1, 2, 3, 3],
        );
        let (y_clean, _) = conv2d(&x, &clean, p);

        let mut dead = clean.clone();
        dead.data_mut()[0] = f32::INFINITY; // (ci 0, tap (0, 0))
        let (y, patches) = conv2d(&x, &dead, p);
        assert_eq!(bits(&y), bits(&y_clean));
        let mut r = reference::ConvScratch::default();
        let mut ry = Tensor::default();
        reference::conv2d_scratch(&x, &dead, p, &mut r, &mut ry);
        assert!(ry.data()[0].is_nan(), "the all-taps lowering did read it");

        let mut live = clean.clone();
        live.data_mut()[4] = f32::INFINITY; // (ci 0, centre tap)
        assert_eq!(conv2d(&x, &live, p).0.data(), &[f32::INFINITY]);

        let gy = Tensor::from_vec(vec![f32::INFINITY], [1, 1, 1, 1]);
        let (gx, gw) = conv2d_backward(&gy, &patches, &clean, x.shape(), p, true);
        assert!(gx.unwrap().data().iter().all(|v| v.is_infinite()));
        for (i, g) in gw.data().iter().enumerate() {
            if i % 9 == 4 {
                assert!(g.is_infinite(), "live tap {i}: {g}");
            } else {
                assert_eq!(g.to_bits(), 0.0f32.to_bits(), "dead tap {i}: {g}");
            }
        }
    }

    /// A wrong-width patch matrix is refused by name, not deep inside a
    /// GEMM's length check.
    #[test]
    #[should_panic(expected = "(n·oh·ow, ic·lh·lw) = (2, 3) patch matrix (1 of the 3x3 taps")]
    fn backward_names_the_patch_matrix_it_expects() {
        let p = ConvParams::new(1, 1);
        let x = Tensor::ones([2, 3, 1, 1]);
        let w = Tensor::ones([4, 3, 3, 3]);
        let all_taps = Tensor::zeros([2, 27]);
        let gy = Tensor::ones([2, 4, 1, 1]);
        conv2d_backward(&gy, &all_taps, &w, x.shape(), p, true);
    }

    /// One trimmed shape (2×2 → 1×1 at stride 2: a 2×2 window) that crosses
    /// `PAR_MIN_ELEMS` and both GEMM pool thresholds, at pool sizes 1, 2 and
    /// 8: the pool paths of the lowering, the scatter and all four products
    /// equal the serial all-taps reference bit for bit.
    #[test]
    fn trimmed_lowering_matches_the_reference_on_the_pool() {
        let (n, ic, oc) = (176usize, 96, 128);
        let p = ConvParams::new(2, 1);
        let live = LiveTaps::of(2, 2, 3, 3, p);
        assert_eq!(live.taps(), 4);
        let (rows, cols) = (n, ic * live.taps());
        assert!(rows * cols >= PAR_MIN_ELEMS);
        assert!(rows * cols * oc >= linalg::PAR_MIN_WORK_F32.max(linalg::PAR_MIN_WORK_I8));
        let mut rng = StdRng::seed_from_u64(3);
        let x = signed_zero_values([n, ic, 2, 2], &mut rng);
        let wt = weights([oc, ic, 3, 3], &mut rng);
        let gy = |y: &Tensor| y.scale(0.25);
        for threads in [1, 2, 8] {
            crate::runtime::set_threads(threads);
            for int8 in [false, true] {
                let what = format!("{threads} threads, int8 {int8}");
                assert_matches_reference(&x, &wt, &gy, p, int8, &mut Default::default(), &what);
            }
        }
    }

    /// A value no kernel under test produces: a NaN with its own payload.
    const SENTINEL: u32 = 0x7fc5_e471;

    /// Values in `[-1, 1)` with `±0.0` and, per `specials`, other bit
    /// patterns sprinkled in.
    fn sprinkled(len: usize, specials: &[f32], rng: &mut StdRng) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.gen_range(0..6u32) {
                0 => [0.0f32, -0.0][rng.gen_range(0..2usize)],
                1 if !specials.is_empty() => specials[rng.gen_range(0..specials.len())],
                _ => rng.gen_range(-1.0f32..1.0),
            })
            .collect()
    }

    /// Runs `body` on the middle `len` floats of a sentinel-filled buffer
    /// and hands them back — after checking that not one float on either
    /// side of them changed (the spill lane of a wide move would).
    fn guarded(len: usize, what: &str, body: impl FnOnce(&mut [f32])) -> Vec<u32> {
        const MARGIN: usize = 8;
        let mut buf = vec![f32::from_bits(SENTINEL); len + 2 * MARGIN];
        body(&mut buf[MARGIN..MARGIN + len]);
        let outside = buf[..MARGIN].iter().chain(&buf[MARGIN + len..]);
        assert!(
            outside.into_iter().all(|v| v.to_bits() == SENTINEL),
            "{what}: wrote outside its region"
        );
        buf[MARGIN..MARGIN + len]
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    /// One geometry through both per-sample bodies, the halo one against the
    /// bounds-tested one: sample 1 of a 3-sample batch, each side writing
    /// into a guarded region, compared by bit pattern. The image carries
    /// NaNs of several payloads and both infinities (`im2col` only moves
    /// them); the patch gradient carries `+∞` and the one canonical NaN, so
    /// that which operand's payload an add of two NaNs keeps cannot matter.
    fn assert_sample_bodies_match(
        c: usize,
        h: usize,
        w: usize,
        k: usize,
        p: ConvParams,
        seed: u64,
    ) {
        let what = format!("k{k} s{} p{} on {c}x{h}x{w}", p.stride, p.padding);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Lowering::new(c, h, w, k, k, p);
        let (n, ni) = (3, 1);
        let odd_nans = [0x7fa0_0001, 0xffc1_2345, 0x7fc0_0000].map(f32::from_bits);
        let specials = [&odd_nans[..], &[f32::INFINITY, f32::NEG_INFINITY]].concat();
        let images = sprinkled(n * g.sample_image(), &specials, &mut rng);
        let image = &images[ni * g.sample_image()..][..g.sample_image()];
        let got = guarded(g.sample_patches(), &what, |out| {
            im2col_sample(image, out, &g)
        });
        let want = guarded(g.sample_patches(), &what, |out| {
            reference::im2col_sample(&images, out, ni, c, h, w, g.live, g.oh, g.ow, p)
        });
        assert_eq!(got, want, "{what}: im2col");

        let grads = sprinkled(n * g.sample_patches(), &[f32::INFINITY, f32::NAN], &mut rng);
        let rows = &grads[ni * g.sample_patches()..][..g.sample_patches()];
        let got = guarded(g.sample_image(), &what, |out| col2im_sample(rows, out, &g));
        let want = guarded(g.sample_image(), &what, |out| {
            reference::col2im_sample(&grads, out, ni, c, h, w, g.live, g.oh, g.ow, p)
        });
        assert_eq!(got, want, "{what}: col2im");
    }

    /// The halo bodies against the bounds-tested ones, bit for bit and
    /// without a float written outside the sample's region: the geometries
    /// of the live-tap property — kernels 1, 3 and 5, strides 1 and 2,
    /// padding 0…2, maps 1…6 × 1…6, which brings every run length from 1 to 5,
    /// the identity lowering and the unpadded path — and the 8×8 and
    /// non-square maps of the training workloads, at odd channel counts.
    #[test]
    fn halo_bodies_match_the_bounds_tested_ones_and_stay_in_their_region() {
        let mut rng = StdRng::seed_from_u64(20);
        let (mut cases, mut runs) = (0u64, [0usize; 6]);
        for (k, stride, pad, h) in geometries() {
            for w in (1..=6).filter(|w| w + 2 * pad >= k) {
                let c = 2 * rng.gen_range(0..3usize) + 1;
                let p = ConvParams::new(stride, pad);
                assert_sample_bodies_match(c, h, w, k, p, cases);
                runs[LiveTaps::of(h, w, k, k, p).cols().len()] += 1;
                cases += 1;
            }
        }
        assert_eq!(cases, 504);
        assert!(runs[1..].iter().all(|&n| n > 0), "{runs:?}");
        for (c, h, w, k, stride, pad) in [
            (1, 8, 8, 3, 1, 1),
            (12, 8, 8, 3, 1, 1),
            (12, 8, 8, 3, 2, 1),
            (12, 8, 8, 1, 2, 0),
            (5, 7, 9, 5, 1, 2),
            (5, 9, 7, 5, 2, 2),
            (3, 1, 8, 3, 1, 1),
            (3, 8, 1, 3, 1, 1),
            (7, 2, 2, 3, 2, 1),
            // an empty map: every window is padding
            (2, 0, 3, 1, 1, 1),
            (2, 3, 0, 1, 2, 1),
        ] {
            assert_sample_bodies_match(c, h, w, k, ConvParams::new(stride, pad), cases);
            cases += 1;
        }
    }

    /// The batch-parallel im2col/col2im paths must be bitwise-identical to
    /// composing the bounds-tested per-sample body serially — the shape is
    /// chosen to cross `PAR_MIN_ELEMS` so the pool path actually runs, on
    /// worker threads whose halo starts empty.
    #[test]
    fn parallel_im2col_and_col2im_match_serial_bitwise() {
        crate::runtime::set_threads(8);
        let (n, c, h, w, kh, kw) = (4usize, 8, 16, 16, 3, 3);
        let p = ConvParams::new(1, 1);
        let x = Tensor::from_vec(
            (0..n * c * h * w)
                .map(|i| ((i * 31 % 97) as f32) * 0.37 - 5.0)
                .collect(),
            [n, c, h, w],
        );
        let mut patches = Tensor::default();
        let (oh, ow) = im2col_into(&x, kh, kw, p, &mut patches);
        let live = LiveTaps::of(h, w, kh, kw, p);
        let cols = c * kh * kw;
        assert!(
            n * oh * ow * cols >= PAR_MIN_ELEMS,
            "shape must cross the parallel threshold"
        );
        let sample_rows = oh * ow * cols;
        let mut expect = vec![f32::NAN; n * sample_rows];
        for (ni, sample) in expect.chunks_mut(sample_rows).enumerate() {
            reference::im2col_sample(x.data(), sample, ni, c, h, w, live, oh, ow, p);
        }
        assert_eq!(patches.data(), &expect[..]);

        let probe = Tensor::from_vec(
            (0..patches.len())
                .map(|i| ((i * 7 % 13) as f32) - 6.0)
                .collect(),
            patches.shape().clone(),
        );
        let mut grad = Tensor::default();
        col2im_into(&probe, n, c, h, w, kh, kw, p, &mut grad);
        let mut gexpect = vec![f32::NAN; n * c * h * w];
        for (ni, sample) in gexpect.chunks_mut(c * h * w).enumerate() {
            reference::col2im_sample(probe.data(), sample, ni, c, h, w, live, oh, ow, p);
        }
        assert_eq!(grad.data(), &gexpect[..]);
    }

    /// Both reorders against their index-arithmetic references, bit for
    /// bit, on 1×1 maps (a plain copy), one-channel matrices and ragged
    /// shapes, into recycled buffers.
    #[test]
    fn reorders_match_the_index_arithmetic_ones_bitwise() {
        let mut rng = StdRng::seed_from_u64(21);
        let (mut t, mut rt) = (stale([7]), stale([3]));
        for (n, c, oh, ow) in [
            (1, 1, 1, 1),
            (5, 7, 1, 1),
            (3, 1, 4, 2),
            (4, 3, 8, 8),
            (2, 13, 3, 5),
            (3, 56, 2, 2),
        ] {
            let specials = [f32::from_bits(0x7fa0_0001), f32::NEG_INFINITY];
            let rows = sprinkled(n * oh * ow * c, &specials, &mut rng);
            let mat = Tensor::from_vec(rows, [n * oh * ow, c]);
            nhwc_rows_to_nchw_into(&mat, n, c, oh, ow, &mut t);
            reference::nhwc_rows_to_nchw_into(&mat, n, c, oh, ow, &mut rt);
            assert_eq!(t.shape(), rt.shape());
            assert_eq!(bits(&t), bits(&rt), "{n}x{c}x{oh}x{ow} to NCHW");
            let (mut back, mut rback) = (stale([5]), stale([9]));
            nchw_to_nhwc_rows_into(&t, &mut back);
            reference::nchw_to_nhwc_rows_into(&t, &mut rback);
            assert_eq!(back.shape(), mat.shape());
            assert_eq!(bits(&back), bits(&rback), "{n}x{c}x{oh}x{ow} to rows");
            assert_eq!(bits(&back), bits(&mat), "{n}x{c}x{oh}x{ow} round trip");
        }
    }

    #[test]
    fn max_pool_forward_and_backward() {
        let x = Tensor::from_vec(
            vec![
                1.0, 3.0, 2.0, 4.0, 5.0, 6.0, 8.0, 7.0, 9.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0,
            ],
            [1, 1, 4, 4],
        );
        let (y, arg) = max_pool2d(&x, 2, ConvParams::new(2, 0));
        assert_eq!(y.data(), &[6.0, 8.0, 9.0, 6.0]);
        let g = Tensor::ones([1, 1, 2, 2]);
        let gx = max_pool2d_backward(&g, &arg, x.shape());
        assert_eq!(gx.sum(), 4.0);
        assert_eq!(gx.data()[5], 1.0); // the 6.0 in the top-left window
    }

    /// What the argmax is when the compare cannot say: the first maximum in
    /// `(ky, kx)` order on a tie, and the window's own first in-bounds
    /// element — not element 0 of the tensor — when nothing in the window
    /// beats `-∞`; a padded window counts its in-bounds elements only.
    #[test]
    fn max_pool_argmax_ties_dead_windows_and_padding() {
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        // plane 0: a tie between (0, 1) and (1, 0); plane 1: all NaN;
        // plane 2: all -inf
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 2.0, 0.5, nan, nan, nan, nan, ninf, ninf, ninf, ninf,
            ],
            [1, 3, 2, 2],
        );
        let (y, arg) = max_pool2d(&x, 2, ConvParams::new(2, 0));
        assert_eq!(bits(&y), [2.0, ninf, ninf].map(f32::to_bits));
        assert_eq!(arg, [1, 4, 8]);
        let gy = Tensor::from_vec(vec![1.0, 10.0, 100.0], [1, 3, 1, 1]);
        let gx = max_pool2d_backward(&gy, &arg, x.shape());
        let mut want = [0.0; 12];
        (want[1], want[4], want[8]) = (1.0, 10.0, 100.0);
        assert_eq!(gx.data(), &want);

        // 3×3 windows at stride 2, padding 1, on a 3×3 map: the four
        // windows hold its four 2×2 corners.
        let x = Tensor::from_vec(
            vec![nan, 7.0, 1.0, 7.0, nan, 2.0, 3.0, 4.0, nan],
            [1, 1, 3, 3],
        );
        let (y, arg) = max_pool2d(&x, 3, ConvParams::new(2, 1));
        assert_eq!(y.data(), &[7.0, 7.0, 7.0, 4.0]);
        assert_eq!(arg, [1, 1, 3, 7]);
    }

    /// The pool against the bounds-tested one, values by bit pattern and
    /// argmax by index: windows 1…3, strides 1…3, every padding below the
    /// window, ragged maps, NaNs and `-∞` among the inputs — and both
    /// instantiations of the body (2×2 at stride 2 is its own).
    #[test]
    fn max_pool_matches_the_bounds_tested_one() {
        let mut rng = StdRng::seed_from_u64(22);
        let (mut out, mut arg) = (stale([3]), vec![77usize; 5]);
        let mut cases = 0;
        for k in 1..=3usize {
            for stride in 1..=3 {
                for pad in 0..k {
                    for (h, w) in [(1, 1), (2, 2), (4, 4), (8, 8), (5, 7), (3, 6)] {
                        if h + 2 * pad < k || w + 2 * pad < k {
                            continue;
                        }
                        let p = ConvParams::new(stride, pad);
                        let (n, c) = (rng.gen_range(1..4usize), rng.gen_range(1..4usize));
                        let specials = [f32::NAN, f32::NEG_INFINITY, f32::INFINITY];
                        let x = sprinkled(n * c * h * w, &specials, &mut rng);
                        let x = Tensor::from_vec(x, [n, c, h, w]);
                        max_pool2d_into(&x, k, p, &mut out, &mut arg);
                        let (rout, rarg) = reference::max_pool2d(&x, k, p);
                        let what = format!("k{k} s{stride} p{pad} on {n}x{c}x{h}x{w}");
                        assert_eq!(out.shape(), rout.shape(), "{what}");
                        assert_eq!(bits(&out), bits(&rout), "{what}: values");
                        assert_eq!(arg, rarg, "{what}: argmax");
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases > 90, "{cases}");
    }

    #[test]
    #[should_panic(expected = "padding 2 leaves a 2x2 window without an input element")]
    fn max_pool_refuses_a_window_of_padding_only() {
        max_pool2d(&Tensor::ones([1, 1, 4, 4]), 2, ConvParams::new(2, 2));
    }

    #[test]
    fn global_avg_pool_roundtrip() {
        let x = seq_tensor([2, 3, 2, 2]);
        let y = global_avg_pool(&x);
        assert_eq!(y.shape().dims(), &[2, 3]);
        assert_eq!(y.at(&[0, 0]), 1.5); // mean(0,1,2,3)
        let g = Tensor::ones([2, 3]);
        let gx = global_avg_pool_backward(&g, x.shape());
        assert!((gx.sum() - 6.0).abs() < 1e-6);
        assert!((gx.data()[0] - 0.25).abs() < 1e-6);
    }
}
