//! 2-D convolution and pooling kernels with hand-written backward passes.
//!
//! A convolution runs one of two ways ([`ConvPath`]), and both give every
//! output element the same bits:
//!
//! - **The lowering** (every wide layer): each input window becomes a row
//!   of a patch matrix, and the convolution becomes a GEMM against the
//!   weights. The forward, f32 and INT8 alike, and `dX` each run as one
//!   pass of whole-sample row panels (below); the backward's
//!   `dW = dYᵀ·patches` reads the patch matrix the training forward cached.
//! - **The direct path** (narrow layers): the forward, f32 and INT8 alike,
//!   and `dW` run straight over the input inside the zero border the
//!   lowering builds anyway (the halo below), with no patch matrix. The
//!   forward is the same pass of sample panels as the lowering's, on the
//!   same geometry (`Lowering`); a training forward caches the padded
//!   input, `(n, ic, h + 2p, w + 2p)` — a ninth of a 3×3 layer's patch
//!   matrix. Its bodies are in `direct.rs`. `dX` reads only the output
//!   gradient and the weights, never the patch matrix, so both paths run
//!   the lowering's `dY·W` and `col2im`.
//!
//! **The rule** ([`ConvPath::of`]) reads the geometry and the channel
//! counts, nothing else — no thread count, flag or configuration: a layer
//! runs direct iff it has stride 1, every tap live ([`LiveTaps`]), a kernel
//! larger than 1×1, at most 32 patch columns `ic·kh·kw` and at most 256
//! output cells `oc · ic·kh·kw`. A narrow layer's patch matrix is a few
//! columns wide, so im2col copies a map nine times to feed GEMMs that pad
//! 3 or 8 columns to a 16-lane tile; a 1×1 layer's patch matrix is its
//! input, so it has nothing to save (it ran ×1.5–×10 slower direct).
//!
//! The bound sits below the break-even on the smallest map the zoo meets.
//! Measured per call on the 2-vCPU AVX-512 reference host, 40 samples,
//! best of three runs of 200 calls, at one and at two threads, as the
//! share of a training step that differs between the paths (f32 forward +
//! INT8 forward + two `dW`; `dX` is the same code on both), direct against
//! lowering: on LeNet-5's 4×4 map, 3 → 8 (216 cells) ×0.88–0.90, 3 → 11
//! (297) ×0.83–0.87, 3 → 12 (324) ×0.99–1.02, 3 → 16 ×1.11–1.20, 3 → 32
//! ×1.34; on 8×8 maps the direct path wins at every width measured, 1 → 3
//! ×0.29, 3 → 8 ×0.62–0.63, 3 → 14 ×0.69–0.71, 3 → 96 ×0.84–0.87. The rule
//! reads no map size, so it stays below the 4×4 break-even. At the CLI's
//! widths that sends LeNet-5's two layers direct and the stems of
//! ResNet-50 and MobileNetV1 (162 and 189 cells, ×0.43–0.55 per call; no
//! benchmark workload runs those models, so that choice rests on the
//! per-call numbers alone). The stems of ResNet-18 and VGG-11 (324 and 378
//! cells) would gain per call on their 8×8 maps, but with them direct,
//! `train_ring_fp32` and `train_mixed` moved ×1.00 and ×0.97 in `wall_s`
//! (6 of 10 paired runs each, inside the spread), so no map-aware rule
//! was added for them. With LeNet-5's 3 → 8 layer direct against lowered,
//! `train_resilient` moved ×0.98 / ×0.97 in `wall_s` on seeds 11 / 12 (8
//! and 7 of 10 pairs, inside the spread) and ×0.97 in `peak_rss_mb` (10 of
//! 10: the padded input is a ninth of the patch matrix).
//!
//! Re-measured after the full-width direct bodies and the explicit
//! AVX-512 GEMM tile, same host and step share, best of three runs of 200
//! calls at one / two threads: the direct path now wins at every width
//! measured on the 4×4 map too — 3 → 8 ×0.45–0.46 / ×0.39–0.43, 3 → 11
//! ×0.54–0.56 / ×0.53–0.54, 3 → 12 (324 cells) ×0.68–0.69 / ×0.63–0.71,
//! 3 → 16 ×0.61–0.62 / ×0.72–0.75, 3 → 32 (864) ×0.79 / ×0.82–0.87 — and
//! on 8×8 maps 1 → 3 ×0.18, 3 → 8 ×0.46 / ×0.68–0.77, 3 → 14 ×0.58–0.60 /
//! ×0.73–0.75. The bound of 256 cells is therefore no longer the 4×4
//! break-even but a conservative choice. It stays until paired training
//! runs with the ResNet-18 and VGG-11 stems direct show a gain.
//!
//! **Why the bits agree.** The direct path computes every element from the
//! operands the lowering fed its GEMM, in the GEMM's order: the same halo
//! zeros are operands, taps run in ascending `(ci, ky, kx)`, each term is
//! one multiply and then one add onto an accumulator started at `+0.0`
//! ([`crate::linalg`]'s numerics contract), and `dW` sums over the batch's
//! positions in ascending `(n, oy, ox)` as `Aᵀ × B` summed over patch rows;
//! `dX` is the same code on both paths. The INT8 forward is exact, where
//! no order matters — in `i32` on the lowering, in `f32` integers on the
//! direct path (`direct.rs`) — and applies the same scale epilogue at the
//! same input scale (below).
//!
//! **The INT8 input scale.** An INT8 forward quantizes its input a panel at
//! a time — the lowering its patch rows, the direct path its padded samples
//! — so its input scale, the whole patch matrix's largest magnitude, is
//! worked out before the pass, from the input (`Lowering::input_scale`), on
//! both paths. The patch matrix holds border zeros and exactly the input
//! elements that some live window reads, and those form a product set: a
//! row of a plane is read iff some output row's live taps reach it, a
//! column likewise, whatever the other coordinate. At stride 1 with every
//! tap live — every direct layer — that is every element, one sweep of the
//! input; on ResNet's 1×1 stride-2 shortcut it is every other row and
//! column. `abs_max` folds `|x|` with `max` from `0.0` and skips NaN, so it
//! gives the largest non-NaN magnitude of the set, whatever the order and
//! however often an element repeats, and zeros cannot raise it: the
//! pre-pass gives the whole matrix's scale, and the whole padded input's,
//! to the bit.
//!
//! **Live taps.** The lowering walks only the kernel taps that can ever
//! overlap the input ([`LiveTaps`]: a window `lh × lw` of the `kh × kw`
//! kernel, a function of the geometry alone), so the patch matrix is
//! `(n·oh·ow, c·lh·lw)`. A tap outside the window reads padding at every
//! output position: its patch column is `0.0` in every row, and dropping it
//! removes from each GEMM accumulator — started at `+0.0`, summed in
//! ascending `p`, multiply and add separate — only terms `acc + (±0.0)`,
//! which cannot change `acc`. The surviving taps keep their `(ci, ky, kx)`
//! order, the weight gradient at a dropped tap is written `+0.0` (what a
//! sum of `g·0.0` gives), and `col2im` never scattered such a column, so
//! every output is bit-identical to the lowering over all `kh·kw` taps —
//! **provided weights and output gradients are finite**: `0.0·∞` on a
//! padding tap used to turn a diverged run's outputs to NaN, and a tap that
//! is never read cannot. When the window is the whole kernel (any map
//! larger than the kernel's reach) the patch matrix is the classic
//! `(n·oh·ow, c·kh·kw)` one and the weight tensor is consumed as a raw
//! `(oc, ic·kh·kw)` view of its storage — no clone/reshape; otherwise the
//! forward gathers its live `(oc, ic·lh·lw)` view into a step-scratch
//! buffer and leaves it in the [`ConvCache`] for the backward, the weights
//! not moving in between. The direct path takes only layers whose every tap
//! is live.
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
//! **Sample panels.** Every forward — either path, f32 or INT8, training
//! or evaluation — and every `dX` is one pool region whose chunks are
//! panels of whole samples, at least `PANEL_ROWS` output positions each
//! (`Panels`), run by one driver (`forward`). A lowering panel runs
//! `im2col` of its samples, their GEMM rows and the reorder of those rows to
//! NCHW; the f32 GEMM is against `Wᵀ`, packed once per call, with its padded
//! tail, before the region. A direct panel embeds all its samples in the
//! zero border at once, with the row routine `im2col` fills the halo with,
//! and convolves them straight into their NCHW output in one call of the
//! direct body. The INT8
//! arm of the lowering quantizes the patch rows at the pass's input scale
//! (above) — a training forward dequantizing them in place in the same
//! sweep, the values the product consumed, for its backward — runs the
//! integer product against the weights quantized once before the region and
//! applies the scale epilogue. The direct INT8 forward embeds each sample
//! on the INT8 grid of the input scale (`embed_grid`), runs the direct body
//! on them against the weights' INT8 values, scaling each sum as it is
//! stored, and a training forward dequantizes the kept padded batch in one
//! sweep after the region. A `dX` panel
//! runs its samples' rows of the patch gradient `dY·W` and then `col2im` of
//! exactly those samples. So the patch gradient never exists whole, and
//! neither does an evaluation's lowered input: a training forward writes its
//! panels into the patch matrix or padded input its backward reads, an
//! evaluation forward ([`conv2d_eval`], [`conv2d_int8_eval`]) into the
//! lane's panel scratch or halo, and an INT8 evaluation makes no
//! input-sized buffer of any element type. Each f32 element is still the
//! ascending-`p` sum, each `i32` sum is exact, and each `col2im` cell
//! receives its adds in `(oy, ox, ci, ky, kx)` order, so every output is
//! bit-identical to the whole-matrix lowering, which lives on as the tests'
//! oracle.
//!
//! **Whose memory.** The convolutions ([`conv2d`], [`conv2d_eval`],
//! [`conv2d_int8`], [`conv2d_int8_eval`], [`conv2d_backward`]) and the
//! pooling passes take what they return, and every staging matrix in
//! between, from the calling thread's step scratch ([`crate::pool`]): a
//! caller that hands the results back when it is done with them
//! ([`ConvCache::recycle`] for a forward's cache) runs without allocating,
//! one that drops them pays what it always did. The halos (a direct
//! evaluation's padded panel among them) and the lanes' panels — f32, and
//! the lowering's INT8 and `i32` — are thread-local, each grown once to the
//! largest layer's; the direct `dW` builds its windows in registers.
//!
//! All image tensors are NCHW.

mod direct;

use crate::isa::{isa_kernel, Isa};
use crate::profile::{KernelOp, Timer};
use crate::quant::{self, QuantParams};
use crate::runtime::{self, SendPtr};
use crate::{linalg, pool, Shape, Tensor};
use std::cell::RefCell;
use std::ops::Range;
use std::thread::LocalKey;

/// Fewest patch-matrix elements a pass ([`Panels`]) moves through `im2col`
/// or `col2im` — or, on the direct path, stands for — before it is
/// dispatched on the worker pool; it goes there at this size or at its
/// product's threshold, whichever its shape reaches. Serial and parallel paths produce the same bytes, so the
/// threshold affects wall-clock only. Measured when `im2col` and `col2im`
/// were passes of their own (one chunk per sample), with the second lane
/// polling ([`crate::runtime`]), 3×3 lowering of 64 samples, `im2col` /
/// `col2im` on two threads against one: 2¹⁴·⁸ elements ×1.4 / ×1.4, 2¹⁵·⁸
/// ×1.1–1.2 / ×1.1–1.2 (slower), 2¹⁶·⁷⁻¹⁶·⁸ ×0.7–0.9 / ×0.8–1.0, 2¹⁷·⁷
/// ×0.73 / ×0.72, 2¹⁸·⁸ ×0.65 / ×0.6.
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
    /// gathered into a step-scratch tensor — by every forward, the weights
    /// having moved since the last one; its backward reads the same one
    /// from the [`ConvCache`]. `None` when every tap is live: the tensor's
    /// own storage is that matrix already.
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

/// The geometry of one convolution — what a pass works out once and every
/// sample of the batch reads, on either path.
#[derive(Debug, Clone, Copy)]
struct Lowering {
    c: usize,
    h: usize,
    w: usize,
    oc: usize,
    oh: usize,
    ow: usize,
    live: LiveTaps,
    p: ConvParams,
}

impl Lowering {
    /// The geometry of a convolution with weights `weight_shape: (oc, ic,
    /// kh, kw)` over an input of `input_shape`.
    ///
    /// # Panics
    /// Panics if the channel counts disagree or the window does not fit.
    fn of(input_shape: &Shape, weight_shape: &Shape, p: ConvParams) -> Self {
        let (_, ic, h, w) = input_shape.as_nchw();
        let (oc, ic2, kh, kw) = weight_shape.as_nchw();
        assert_eq!(ic, ic2, "conv2d channel mismatch: input {ic}, weight {ic2}");
        Lowering::new(ic, h, w, oc, kh, kw, p)
    }

    fn new(c: usize, h: usize, w: usize, oc: usize, kh: usize, kw: usize, p: ConvParams) -> Self {
        Lowering {
            c,
            h,
            w,
            oc,
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

    /// Floats of one sample's zero-bordered planes, `c × padded()`.
    fn sample_padded(&self) -> usize {
        let (hp, wp) = self.padded();
        self.c * hp * wp
    }

    /// Floats of one sample's output, `oc·oh·ow`.
    fn sample_out(&self) -> usize {
        self.oc * self.oh * self.ow
    }

    /// Whether the direct path computes this geometry: stride 1, every tap
    /// live, and a patch no wider than its widest register block.
    fn admits_direct(&self) -> bool {
        self.p.stride == 1 && self.live.is_full() && self.cols() <= direct::MAX_COLS
    }

    /// # Panics
    /// Panics unless the direct path computes this geometry.
    fn assert_direct(&self) {
        assert!(
            self.admits_direct(),
            "the direct convolution takes stride 1, every tap live and at most {} patch \
             columns: {}x{} at stride {} on {}x{}x{}",
            direct::MAX_COLS,
            self.live.kh,
            self.live.kw,
            self.p.stride,
            self.c,
            self.h,
            self.w
        );
    }

    /// `true` when a sample's patch rows *are* its image, float for float:
    /// one output position whose live window is the whole map (a padded 3×3
    /// kernel on a 1×1 map, or at stride 2 on a 2×2 one).
    fn is_identity(&self) -> bool {
        let pad = self.p.padding;
        self.oh * self.ow == 1
            && (self.live.rows(), self.live.cols()) == (pad..pad + self.h, pad..pad + self.w)
    }

    /// Whether some live window reads input position `i` of an axis with
    /// `out` output positions and live taps `taps`: `o·stride + t = i + p`
    /// for some `o < out` and `t` in `taps`.
    fn reads(&self, i: usize, out: usize, taps: Range<usize>) -> bool {
        let (stride, at) = (self.p.stride, i + self.p.padding);
        taps.into_iter()
            .any(|t| at >= t && (at - t) % stride == 0 && (at - t) / stride < out)
    }

    /// The INT8 scale of the patch matrix of `input` — its largest
    /// magnitude — from the input elements some live window reads, before
    /// any patch row exists (see the module docs). Every element at stride
    /// 1, so one sweep of the input; otherwise the rows and columns read.
    fn input_scale(&self, input: &Tensor) -> QuantParams {
        let row = |y: usize| self.reads(y, self.oh, self.live.rows());
        let col = |x: usize| self.reads(x, self.ow, self.live.cols());
        let max = if (0..self.h).all(row) && (0..self.w).all(col) {
            input.abs_max()
        } else {
            let rows = input.data().chunks_exact(self.w.max(1)).enumerate();
            let read = rows.filter(|(r, _)| row(r % self.h));
            read.flat_map(|(_, cells)| cells.iter().enumerate())
                .filter(|&(x, _)| col(x))
                .fold(0.0f32, |m, (_, v)| m.max(v.abs()))
        };
        QuantParams::from_abs_max(max)
    }
}

thread_local! {
    /// One sample's image inside a zero border `padding` cells wide —
    /// `(c, h + 2p, w + 2p)` floats and [`SPILL`] more — so that neither
    /// lowering loop tests a bound: [`im2col_sample`] reads its windows out
    /// of it, [`col2im_sample`] accumulates its windows into it and copies
    /// the interior out, and an evaluation's [`direct_panel`] convolves a
    /// panel of such samples in it.
    /// Thread-local because pool workers run the per-sample bodies (same
    /// ownership rules as the GEMM's packed panels in [`crate::linalg`]);
    /// grown to the largest layer's once.
    static HALO: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Floats past the halo's last plane that a wide move may read.
const SPILL: usize = 1;

/// Runs `f` on this thread's halo, cut to `samples` of `g`'s planes plus
/// [`SPILL`]. The bodies that use it never call into the pool, so the
/// borrow is not re-entered.
fn with_halo<R>(g: &Lowering, samples: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    with_scratch(&HALO, samples * g.sample_padded() + SPILL, f)
}

/// Runs `f` on the first `len` elements of the thread-local `scratch`,
/// grown to exactly `len` when shorter: the largest caller's, not twice the
/// last one's.
fn with_scratch<T: Copy + Default, R>(
    scratch: &'static LocalKey<RefCell<Vec<T>>>,
    len: usize,
    f: impl FnOnce(&mut [T]) -> R,
) -> R {
    scratch.with(|buf| {
        let mut buf = buf.borrow_mut();
        if buf.len() < len {
            let grow = len - buf.len();
            buf.reserve_exact(grow);
            buf.resize(len, T::default());
        }
        f(&mut buf[..len])
    })
}

thread_local! {
    /// One panel of a lowered pass ([`Panels`]) on this lane: the patch rows
    /// of an evaluation forward and the GEMM rows of every forward, or the
    /// patch-gradient rows of `dX`. Same ownership rules as [`HALO`]; grown
    /// to the largest panel's once.
    static PANEL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// An INT8 lowering panel's quantized patch rows, beside [`PANEL`].
    static PANEL_I8: RefCell<Vec<i8>> = const { RefCell::new(Vec::new()) };
    /// Their `i32` GEMM rows, beside [`PANEL_I8`].
    static PANEL_I32: RefCell<Vec<i32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on the first `len` floats of this lane's panel scratch, their
/// contents unspecified. A panel body calls no other panel body, so the
/// borrow is not re-entered.
fn with_panel<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    with_scratch(&PANEL, len, f)
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
        with_halo(g, 1, |halo| {
            embed(image, halo, g);
            gather_windows(halo, out, g, true);
        });
    }
}

/// Embeds each sample of `images` in a zero border: `padded` is their `c`
/// planes of [`Lowering::padded`] extent a sample, and any floats past them
/// are zeroed too.
fn embed(images: &[f32], padded: &mut [f32], g: &Lowering) {
    embed_body::<false>(images, padded, g, 1.0);
}

isa_kernel! {
    /// [`embed`] with every image value put on the INT8 grid of `scale` on
    /// the way in ([`quant::grid_value`]); the border stays `+0.0`, what a
    /// zero quantizes to. The dispatch is inlined into its one caller, so
    /// the default build does here what a `codegen-units = 1` one does.
    #[inline(always)]
    fn embed_grid(images: &[f32], padded: &mut [f32], g: &Lowering, scale: f32)
        = embed_body::<true>;
}

/// [`embed`], or with `GRID` [`embed_grid`], at the map widths an 8×8
/// input meets, so that a row is a constant number of lanes.
#[inline(always)]
fn embed_body<const GRID: bool>(images: &[f32], padded: &mut [f32], g: &Lowering, scale: f32) {
    match g.w {
        1 => embed_rows::<1, GRID>(images, padded, g, scale),
        2 => embed_rows::<2, GRID>(images, padded, g, scale),
        4 => embed_rows::<4, GRID>(images, padded, g, scale),
        8 => embed_rows::<8, GRID>(images, padded, g, scale),
        _ => embed_rows::<0, GRID>(images, padded, g, scale),
    }
}

/// [`embed_body`] at width `W`, or at `g.w` when `W` is 0: a row at a
/// constant width is one fixed-size array, a register or two, each value
/// mapped on its way — kept as it is, or with `GRID` put on the grid.
#[inline(always)]
fn embed_rows<const W: usize, const GRID: bool>(
    images: &[f32],
    padded: &mut [f32],
    g: &Lowering,
    scale: f32,
) {
    padded.fill(0.0);
    let ((hp, wp), pad, w) = (g.padded(), g.p.padding, g.w);
    let planes = padded.chunks_exact_mut(hp * wp);
    for (plane, src) in planes.zip(images.chunks_exact((g.h * w).max(1))) {
        let rows = plane[pad * wp..].chunks_exact_mut(wp);
        for (row, src) in rows.zip(src.chunks_exact(w.max(1))) {
            let row = &mut row[pad..pad + w];
            if W == 0 {
                for (o, &v) in row.iter_mut().zip(src) {
                    *o = embedded::<GRID>(v, scale);
                }
            } else {
                let (row, src): (&mut [f32; W], &[f32; W]) =
                    (row.try_into().unwrap(), src.try_into().unwrap());
                for (o, &v) in row.iter_mut().zip(src) {
                    *o = embedded::<GRID>(v, scale);
                }
            }
        }
    }
}

/// The value [`embed_rows`] stores for an image value `v`.
#[inline(always)]
fn embedded<const GRID: bool>(v: f32, scale: f32) -> f32 {
    if GRID {
        quant::grid_value(v, scale)
    } else {
        v
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
        with_halo(g, 1, |halo| {
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

/// Fewest output positions (patch rows) in a panel of a pass ([`Panels`]):
/// whole samples are added until a panel holds this many, so that a 1×1
/// map's one row per sample still fills the GEMM's register tiles. The row
/// grain of the GEMM's own pool split.
const PANEL_ROWS: usize = 32;

/// How a pass of either path cuts its batch: panels of whole samples, each
/// of at least [`PANEL_ROWS`] output positions (patch rows) but the last,
/// run as one region on the worker pool (inline at a one-thread budget) when
/// either half of the pass — the `im2col`/`col2im` moves ([`PAR_MIN_ELEMS`]
/// patch elements) or the product (the GEMM's threshold,
/// [`linalg::PAR_MIN_WORK_F32`] or [`linalg::PAR_MIN_WORK_I8`], which the
/// direct walk's equal count of multiply-adds takes too) — is large enough to
/// have gone parallel on its own, serially otherwise. Cut from the shape
/// alone, never the thread count, and each panel writes only its own
/// samples' regions in the serial order, so the bytes are the same at any
/// pool size.
#[derive(Debug, Clone, Copy)]
struct Panels {
    n: usize,
    per: usize,
    parallel: bool,
}

impl Panels {
    /// The panels of `n` samples of `hw` patch rows each, the rows `cols`
    /// wide and the GEMM's other side `oc`; the GEMM goes parallel on its
    /// own at `min_work` multiply-adds.
    fn of(n: usize, hw: usize, cols: usize, oc: usize, min_work: usize) -> Panels {
        let per = PANEL_ROWS.div_ceil(hw.max(1)).min(n.max(1));
        let elems = n * hw * cols;
        let big = elems >= PAR_MIN_ELEMS || elems * oc >= min_work;
        Panels {
            n,
            per,
            parallel: big && n > per,
        }
    }

    /// Runs `body(samples)` for every panel.
    fn run(&self, body: &(dyn Fn(Range<usize>) + Sync)) {
        let panel = |i: usize| body(i * self.per..((i + 1) * self.per).min(self.n));
        let count = self.n.div_ceil(self.per);
        if self.parallel {
            runtime::parallel_for_chunks(count, &panel);
        } else {
            (0..count).for_each(panel);
        }
    }
}

/// Most output cells, `oc · ic·kh·kw`, a layer may have and still run
/// direct: below the break-even on a 4×4 map, which was about 300 cells
/// and is now above 864 (see the module docs for the measurements).
const DIRECT_MAX_CELLS: usize = 256;

/// The two ways a convolution runs (see the module docs). [`ConvPath::of`]
/// is the rule; [`conv2d`], [`conv2d_eval`], [`conv2d_int8`] and
/// [`conv2d_int8_eval`] follow it, and the `_via` entry points take a path
/// for the benchmarks and tests that compare the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvPath {
    /// `im2col`, a GEMM per product and `col2im` for `dX`; both forwards
    /// and `dX` in whole-sample panels.
    Lowered,
    /// Straight over the input inside its zero border: no patch matrix.
    Direct,
}

impl ConvPath {
    /// The path a layer with this geometry takes: [`ConvPath::Direct`] iff
    /// it runs at stride 1 with every tap live, its kernel is larger than
    /// 1×1, its patch has at most 32 columns `ic·kh·kw` and it has at most
    /// `DIRECT_MAX_CELLS` output cells `oc · ic·kh·kw` in its weight
    /// gradient — the narrow layers whose patch matrix is a few columns
    /// wide. Reads the shapes and `p` alone.
    pub fn of(input_shape: &Shape, weight_shape: &Shape, p: ConvParams) -> ConvPath {
        let (_, _, h, w) = input_shape.as_nchw();
        let (oc, ic, kh, kw) = weight_shape.as_nchw();
        let narrow = kh * kw > 1 && oc * ic * kh * kw <= DIRECT_MAX_CELLS;
        if narrow && Lowering::new(ic, h, w, oc, kh, kw, p).admits_direct() {
            ConvPath::Direct
        } else {
            ConvPath::Lowered
        }
    }
}

/// What a training forward leaves for its backward; the variant says which
/// path ran. Its tensors come from the step scratch:
/// [`ConvCache::recycle`] hands them back. An evaluation forward
/// ([`conv2d_eval`], [`conv2d_int8_eval`]) leaves none, and on the lowering
/// makes no patch matrix at all.
#[derive(Debug, Clone, PartialEq)]
pub enum ConvCache {
    /// The lowering's `(n·oh·ow, ic·lh·lw)` patch matrix — dequantized
    /// after the INT8 forward — and, on a layer with a dead tap, the live
    /// `(oc, ic·lh·lw)` weight view the forward gathered: the weights do
    /// not move between a forward and its backward, so the backward reads
    /// this one instead of gathering its own.
    Lowered {
        /// The patch matrix.
        patches: Tensor,
        /// The gathered live weight view; `None` when every tap is live.
        view: Option<Tensor>,
    },
    /// The direct path's input inside its zero border, `(n, ic, h + 2p,
    /// w + 2p)` — dequantized after the INT8 forward.
    Direct {
        /// The padded input.
        padded: Tensor,
    },
}

impl ConvCache {
    /// Hands every tensor back to the step scratch.
    pub fn recycle(self) {
        match self {
            ConvCache::Lowered { patches, view } => {
                pool::recycle(patches);
                pool::recycle_all(view);
            }
            ConvCache::Direct { padded } => pool::recycle(padded),
        }
    }
}

/// Training forward 2-D convolution.
///
/// `input: (n, ic, h, w)`, `weight: (oc, ic, kh, kw)` → `(n, oc, oh, ow)`,
/// on the path [`ConvPath::of`] picks. Also returns what the backward pass
/// reuses. Both come from the step scratch ([`crate::pool`]). An
/// evaluation, which has no backward, runs [`conv2d_eval`].
///
/// # Panics
/// Panics if channel counts disagree or the window does not fit.
pub fn conv2d(input: &Tensor, weight: &Tensor, p: ConvParams) -> (Tensor, ConvCache) {
    conv2d_via(
        ConvPath::of(input.shape(), weight.shape(), p),
        input,
        weight,
        p,
    )
}

/// [`conv2d`] on the given path; both give the same bits.
///
/// # Panics
/// As [`conv2d`], and if `path` is [`ConvPath::Direct`] on a geometry it
/// does not admit (a stride above 1 or a dead tap).
pub fn conv2d_via(
    path: ConvPath,
    input: &Tensor,
    weight: &Tensor,
    p: ConvParams,
) -> (Tensor, ConvCache) {
    let (y, cache, _) = forward(Isa::active(), path, input, weight, p, true, false);
    (y, cache.expect("a kept cache"))
}

/// Evaluation forward 2-D convolution: [`conv2d`]'s output, bit for bit,
/// with nothing kept for a backward: no patch matrix and no padded input
/// exists, each panel's staging living in the lane's scratch only.
///
/// # Panics
/// As [`conv2d`].
pub fn conv2d_eval(input: &Tensor, weight: &Tensor, p: ConvParams) -> Tensor {
    let path = ConvPath::of(input.shape(), weight.shape(), p);
    forward(Isa::active(), path, input, weight, p, false, false).0
}

/// Every convolution forward, on `path` and instantiation `isa`, f32 or
/// (`int8`) INT8, as one [`forward_pass`]. The f32 lowering packs `Wᵀ` and
/// its padded tail once, before the pass; the direct path reads the weights
/// in place. The INT8 arm works out both scales first — the input's by
/// [`Lowering::input_scale`], the weights' from the **whole** tensor —
/// and quantizes the live weights once; the lowering runs [`int8_arm`] on
/// every panel's patch rows, the direct path the f32 body on samples
/// embedded on the grid (see the module docs). With `keep` — a training
/// forward — the
/// cache holds the patch matrix or the padded input; without, neither
/// exists. Returns the output, the cache when `keep`, and the INT8 arm's
/// `(input, weight)` scales.
fn forward(
    isa: Isa,
    path: ConvPath,
    input: &Tensor,
    weight: &Tensor,
    p: ConvParams,
    keep: bool,
    int8: bool,
) -> (
    Tensor,
    Option<ConvCache>,
    Option<(QuantParams, QuantParams)>,
) {
    let g = Lowering::of(input.shape(), weight.shape(), p);
    let direct = path == ConvPath::Direct;
    if direct {
        g.assert_direct();
    }
    let (cols, oc) = (g.cols(), g.oc);
    // with every tap live the weight storage is already the row-major
    // (oc, cols) matrix — no clone/reshape needed
    let view = g.live.live_view(weight);
    let wmat = view.as_ref().unwrap_or(weight);
    let scales = int8.then(|| (g.input_scale(input), QuantParams::from_tensor(weight)));
    let (out, kept) = match scales {
        Some((pp, pw)) if direct => {
            let mut qw = pool::take::<f32>(oc * cols);
            {
                let _t = Timer::start(KernelOp::Quant);
                quant::grid_slices(isa, wmat.data(), &mut qw, pw.scale);
            }
            let arm = |padded: &mut [f32], out: &mut [f32], first: bool| {
                let _t = Timer::panel(KernelOp::ConvDirect, first);
                direct::forward(isa, padded, &qw, out, &g, pp.scale * pw.scale);
            };
            let grid = Some((isa, pp.scale));
            let (out, mut kept) =
                forward_pass(path, input, &g, keep, linalg::PAR_MIN_WORK_F32, grid, &arm);
            pool::give(qw);
            if let Some(padded) = kept.as_mut() {
                let _t = Timer::start(KernelOp::Quant);
                quant::scale_slices(isa, padded.data_mut(), pp.scale);
            }
            (out, kept)
        }
        Some((pp, pw)) => {
            let mut qw = pool::take::<i8>(oc * cols);
            quant::quantize_into(wmat, pw, &mut qw);
            let arm = |rows: &mut [f32], mat: &mut [f32], first: bool| {
                int8_arm(isa, rows, mat, (pp, pw), keep, first, |q, acc| {
                    let _t = Timer::panel(KernelOp::MatmulI8, first);
                    linalg::matmul_i8_a_bt_rows(isa, q, &qw, acc, cols, oc);
                });
            };
            let pass = forward_pass(path, input, &g, keep, linalg::PAR_MIN_WORK_I8, None, &arm);
            pool::give(qw);
            pass
        }
        None if direct => {
            let arm = |padded: &mut [f32], out: &mut [f32], _: bool| {
                let _t = Timer::panel(KernelOp::ConvDirect, false);
                direct::forward(isa, padded, wmat.data(), out, &g, 1.0);
            };
            forward_pass(path, input, &g, keep, linalg::PAR_MIN_WORK_F32, None, &arm)
        }
        None => linalg::with_rhs_t(wmat.data(), oc, cols, |rhs| {
            let arm = |rows: &mut [f32], mat: &mut [f32], first: bool| {
                let _t = Timer::panel(KernelOp::MatmulABt, first);
                rhs.rows(isa, rows, mat);
            };
            forward_pass(path, input, &g, keep, linalg::PAR_MIN_WORK_F32, None, &arm)
        }),
    };
    let cache = match kept {
        Some(padded) if direct => Some(ConvCache::Direct { padded }),
        Some(patches) => Some(ConvCache::Lowered { patches, view }),
        None => {
            pool::recycle_all(view);
            None
        }
    };
    (out, cache, scales)
}

/// The product of a forward panel, `(lowered input, output, first)`: the
/// lowering's patch rows into their `(rows, oc)` GEMM rows, or a direct
/// panel's padded samples into their NCHW outputs. `first` is set on the
/// pass's first panel, which counts the call.
type Arm<'a> = dyn Fn(&mut [f32], &mut [f32], bool) + Sync + 'a;

/// One pass of [`Panels`] over `input` on `path`: each panel stages its
/// samples — their patch rows on the lowering ([`lowered_panel`]), their
/// images in the zero border on the direct path ([`direct_panel`]) — and
/// runs `arm` on them into its samples' region of the output. With `keep`
/// the lowered input is written into the patch matrix or padded input
/// returned beside the output, and `arm` may rewrite it; without, into the
/// lane's scratch. The product goes parallel on its own at `min_work`.
/// `grid` is the direct INT8 forward's instantiation and input scale: its
/// samples are embedded on the INT8 grid ([`embed_grid`]).
fn forward_pass(
    path: ConvPath,
    input: &Tensor,
    g: &Lowering,
    keep: bool,
    min_work: usize,
    grid: Option<(Isa, f32)>,
    arm: &Arm,
) -> (Tensor, Option<Tensor>) {
    let (n, hw, (hp, wp)) = (input.shape().dims()[0], g.oh * g.ow, g.padded());
    let (stage, kept_shape) = match path {
        ConvPath::Lowered => (g.sample_patches(), Shape::from([n * hw, g.cols()])),
        ConvPath::Direct => (g.sample_padded(), Shape::from([n, g.c, hp, wp])),
    };
    let mut kept = keep.then(|| pool::tensor(kept_shape));
    let mut out = pool::tensor([n, g.oc, g.oh, g.ow]);
    let kept_ptr = kept.as_mut().map(|t| SendPtr::new(t.data_mut()));
    let out_ptr = SendPtr::new(out.data_mut());
    let (image, sample_out) = (g.sample_image(), g.sample_out());
    Panels::of(n, hw, g.cols(), g.oc, min_work).run(&|samples| {
        let (at, len) = (samples.start, samples.len());
        let x = &input.data()[at * image..][..len * image];
        // Safety: panels hold disjoint samples, so disjoint regions of the
        // output and of the kept input.
        let y = unsafe { out_ptr.slice(at * sample_out, len * sample_out) };
        let kept = kept_ptr
            .as_ref()
            .map(|k| unsafe { k.slice(at * stage, len * stage) });
        match path {
            ConvPath::Lowered => lowered_panel(x, kept, y, len, g, at == 0, arm),
            ConvPath::Direct => direct_panel(x, kept, y, len, g, at == 0, grid, arm),
        }
    });
    (out, kept)
}

/// A lowering panel of `len` samples `x`: `im2col` into `kept`, their rows
/// of the patch matrix, or into the lane's panel scratch; `arm` of those
/// rows into the `(rows, oc)` GEMM rows beside them; and the reorder of
/// those rows to the NCHW output `y`.
fn lowered_panel(
    x: &[f32],
    kept: Option<&mut [f32]>,
    y: &mut [f32],
    len: usize,
    g: &Lowering,
    first: bool,
    arm: &Arm,
) {
    let (hw, image, sample) = (g.oh * g.ow, g.sample_image(), g.sample_patches());
    let rows = len * hw;
    let own = if kept.is_some() { 0 } else { len * sample };
    with_panel(rows * g.oc + own, |panel| {
        let (mat, own) = panel.split_at_mut(rows * g.oc);
        let patch_rows = kept.unwrap_or(own);
        {
            let _t = Timer::panel(KernelOp::Im2col, first);
            for i in 0..len {
                im2col_sample(
                    &x[i * image..][..image],
                    &mut patch_rows[i * sample..][..sample],
                    g,
                );
            }
        }
        arm(patch_rows, mat, first);
        transpose_samples(mat, y, hw, g.oc);
    });
}

/// A direct panel of `len` samples `x`: the samples embedded in the zero
/// border — in their region of `kept`, the padded input, or in the lane's
/// halo — and `arm` of those planes into their NCHW output. The f32
/// staging counts the pass's `conv_direct` call; with `grid` (the INT8
/// forward) the samples are embedded on the grid and count its `quant`
/// call, and the arm the `conv_direct` one.
#[allow(clippy::too_many_arguments)]
fn direct_panel(
    x: &[f32],
    kept: Option<&mut [f32]>,
    y: &mut [f32],
    len: usize,
    g: &Lowering,
    first: bool,
    grid: Option<(Isa, f32)>,
    arm: &Arm,
) {
    let mut run = |lowered: &mut [f32]| {
        match grid {
            Some((isa, scale)) => {
                let _t = Timer::panel(KernelOp::Quant, first);
                embed_grid(isa, x, lowered, g, scale);
            }
            None => {
                let _t = Timer::panel(KernelOp::ConvDirect, first);
                embed(x, lowered, g);
            }
        }
        arm(lowered, y, first);
    };
    match kept {
        Some(kept) => run(kept),
        None => with_halo(g, len, |halo| run(&mut halo[..len * g.sample_padded()])),
    }
}

/// The INT8 arm of a lowering panel: quantizes its patch `rows` at the
/// input scale into the lane's [`PANEL_I8`] — with `keep` leaving them
/// dequantized in the same sweep: the values the product consumed, which
/// the backward differentiates — runs `product` of those values into
/// `mat.len()` sums in [`PANEL_I32`] and applies the scale epilogue into the
/// panel's GEMM rows `mat`. `first` counts the quantize call.
fn int8_arm(
    isa: Isa,
    rows: &mut [f32],
    mat: &mut [f32],
    (pp, pw): (QuantParams, QuantParams),
    keep: bool,
    first: bool,
    product: impl FnOnce(&[i8], &mut [i32]),
) {
    with_scratch(&PANEL_I8, rows.len(), |q| {
        {
            let _t = Timer::panel(KernelOp::Quant, first);
            if keep {
                quant::quantize_dequantize_slices(isa, rows, q, pp.scale);
            } else {
                quant::quantize_slices(isa, rows, q, pp.scale);
            }
        }
        with_scratch(&PANEL_I32, mat.len(), |acc| {
            product(q, acc);
            quant::scale_i32_slices(isa, acc, mat, pp.scale * pw.scale);
        });
    });
}

/// Integer-path training forward convolution: the INT8 replica arm's conv
/// kernel.
///
/// Quantizes the input — the lowering's patch rows or the direct path's
/// padded samples, a panel at a time — and the weights to symmetric
/// per-tensor INT8, accumulates `i8×i8` products exactly (in `i32` in the
/// lowering's integer GEMM, in `f32` integers in the direct path's walk)
/// and applies both scales once at the epilogue — no f32 fake-quant matmul
/// anywhere.
/// The input scale is that of the patch matrix, which holds the same
/// non-zero values as the padded input (padding zeros cannot raise max-|x|,
/// so it equals the in-window input scale, whichever taps are lowered);
/// both paths work it out from the input before their pass. The weight
/// scale is taken from the **whole** weight tensor: a tap that only ever
/// reads padding still carries weight decay, momentum and gradient noise,
/// so it is not zero and may well hold the maximum.
///
/// Returns `(out, cache, input params, weight params)`, tensors from the
/// step scratch as [`conv2d`]'s. The cache holds the **dequantized** input
/// — the exact values the integer kernel consumed — so the standard
/// [`conv2d_backward`] differentiates the function the integer kernel
/// actually computed, unchanged.
///
/// # Panics
/// Panics if channel counts disagree or the window does not fit.
pub fn conv2d_int8(
    input: &Tensor,
    weight: &Tensor,
    p: ConvParams,
) -> (Tensor, ConvCache, QuantParams, QuantParams) {
    conv2d_int8_via(
        ConvPath::of(input.shape(), weight.shape(), p),
        input,
        weight,
        p,
    )
}

/// [`conv2d_int8`] on the given path; both give the same bits.
///
/// # Panics
/// As [`conv2d_via`].
pub fn conv2d_int8_via(
    path: ConvPath,
    input: &Tensor,
    weight: &Tensor,
    p: ConvParams,
) -> (Tensor, ConvCache, QuantParams, QuantParams) {
    let (y, cache, scales) = forward(Isa::active(), path, input, weight, p, true, true);
    let (pp, pw) = scales.expect("the INT8 arm's scales");
    (y, cache.expect("a kept cache"), pp, pw)
}

/// Evaluation INT8 forward convolution: [`conv2d_int8`]'s output, bit for
/// bit, with nothing kept for a backward. No input-sized buffer exists:
/// each panel's patch rows, their INT8 values and their `i32` sums, or
/// each direct sample's padded grid values, live in the lane's scratch
/// only, and none is dequantized.
///
/// # Panics
/// As [`conv2d_int8`].
pub fn conv2d_int8_eval(input: &Tensor, weight: &Tensor, p: ConvParams) -> Tensor {
    let path = ConvPath::of(input.shape(), weight.shape(), p);
    forward(Isa::active(), path, input, weight, p, false, true).0
}

/// Backward 2-D convolution.
///
/// Given `grad_out: (n, oc, oh, ow)`, the `cache` of the matching forward
/// pass (on the path it took), the `weight: (oc, ic, kh, kw)` that forward
/// read and the input geometry, returns `(grad_input, grad_weight)`, both
/// from the step scratch. The weight gradient is always the full `(oc, ic,
/// kh, kw)` one; a tap outside the live window gets `+0.0`. The input
/// gradient is computed only when `want_gx`: the first layer of a network
/// has nobody to hand it to.
///
/// # Panics
/// Panics on any geometry inconsistency.
pub fn conv2d_backward(
    grad_out: &Tensor,
    cache: &ConvCache,
    weight: &Tensor,
    input_shape: &Shape,
    p: ConvParams,
    want_gx: bool,
) -> (Option<Tensor>, Tensor) {
    match cache {
        ConvCache::Lowered { patches, view } => lowered_backward(
            Isa::active(),
            grad_out,
            patches,
            view.as_ref(),
            weight,
            input_shape,
            p,
            want_gx,
        ),
        ConvCache::Direct { padded } => direct_backward(
            Isa::active(),
            grad_out,
            padded,
            weight,
            input_shape,
            p,
            want_gx,
        ),
    }
}

/// The lowering's backward on instantiation `isa` (`dX`'s GEMM; `dW` runs
/// on the active one): `dW = gmatᵀ × patches`, and [`input_grad`].
#[allow(clippy::too_many_arguments)]
fn lowered_backward(
    isa: Isa,
    grad_out: &Tensor,
    patches: &Tensor,
    view: Option<&Tensor>,
    weight: &Tensor,
    input_shape: &Shape,
    p: ConvParams,
    want_gx: bool,
) -> (Option<Tensor>, Tensor) {
    let g = Lowering::of(input_shape, weight.shape(), p);
    let (n, ic, h, w) = input_shape.as_nchw();
    let (oc, _, kh, kw) = weight.shape().as_nchw();
    let (gn, goc, oh, ow) = grad_out.shape().as_nchw();
    assert_eq!((gn, goc), (n, oc), "grad_out batch/channel mismatch");
    assert_eq!((oh, ow), (g.oh, g.ow), "grad_out spatial mismatch");
    let (rows, cols, live) = (n * oh * ow, g.cols(), g.live);
    assert_eq!(
        patches.shape().dims(),
        &[rows, cols],
        "conv2d_backward: `patches` must be the forward pass's (n·oh·ow, ic·lh·lw) = \
         ({rows}, {cols}) patch matrix ({} of the {kh}x{kw} taps are live on a {h}x{w} input)",
        live.taps()
    );
    assert!(
        view.map(|v| v.shape().dims()) == (!live.is_full()).then_some(&[oc, cols][..]),
        "conv2d_backward: the forward's live weight view"
    );
    // (n·oh·ow, oc)
    let mut mat = pool::tensor([rows, oc]);
    nchw_to_nhwc_rows_into(grad_out, &mut mat);
    // dW = gmatᵀ × patches  →  (oc, ic·lh·lw)
    let mut gw = pool::tensor([oc, ic, kh, kw]);
    let mut gwlive = (!live.is_full()).then(|| pool::tensor([oc, cols]));
    linalg::matmul_at_b_slices(
        mat.data(),
        patches.data(),
        gwlive.as_mut().unwrap_or(&mut gw).data_mut(),
        oc,
        rows,
        cols,
    );
    if let Some(gwlive) = gwlive {
        // a dead tap's gradient is a sum of `g · 0.0`: exactly `+0.0`
        live.scatter(gwlive.data(), gw.data_mut());
        pool::recycle(gwlive);
    }
    let wmat = view.unwrap_or(weight);
    let gx = want_gx.then(|| input_grad(isa, &mat, wmat, &g, n));
    pool::recycle(mat);
    (gx, gw)
}

/// `dX` of `n` samples on either path, one pass of [`Panels`]: each panel
/// is its samples' rows of the patch gradient `gmat × W`, in the lane's
/// panel scratch, then `col2im` of exactly those samples — no
/// patch-gradient matrix exists. `gmat` is the output gradient as
/// `(n·oh·ow, oc)` NHWC rows, `wmat` the `(oc, ic·lh·lw)` weights the
/// forward read, the GEMM runs on `isa`. Neither step reads the patch
/// matrix, so the direct path runs this one too.
fn input_grad(isa: Isa, gmat: &Tensor, wmat: &Tensor, g: &Lowering, n: usize) -> Tensor {
    let (hw, cols, oc) = (g.oh * g.ow, g.cols(), g.oc);
    assert_eq!(gmat.shape().dims(), &[n * hw, oc], "dX: gmat shape");
    let (image, sample) = (g.sample_image(), g.sample_patches());
    let mut gx = pool::tensor([n, g.c, g.h, g.w]);
    let gx_ptr = SendPtr::new(gx.data_mut());
    linalg::with_rhs(wmat.data(), oc, cols, |rhs| {
        Panels::of(n, hw, cols, oc, linalg::PAR_MIN_WORK_F32).run(&|samples| {
            let rows = samples.len() * hw;
            with_panel(rows * cols, |gpatches| {
                {
                    let _t = Timer::panel(KernelOp::Matmul, samples.start == 0);
                    let gy = &gmat.data()[samples.start * hw * oc..][..rows * oc];
                    rhs.rows(isa, gy, gpatches);
                }
                let _t = Timer::panel(KernelOp::Col2im, samples.start == 0);
                // Safety: panels hold disjoint samples of `gx`.
                let grads = unsafe { gx_ptr.slice(samples.start * image, samples.len() * image) };
                for i in 0..samples.len() {
                    let rows = &gpatches[i * sample..][..sample];
                    col2im_sample(rows, &mut grads[i * image..][..image], g);
                }
            });
        });
    });
    gx
}

/// The direct backward on instantiation `isa`: `dW` over the cached padded
/// input, cut only by output channels (on the worker pool at the size where
/// the lowering's `Aᵀ × B` goes parallel), and the lowering's `dX`, which
/// reads only the output gradient and the weights.
#[allow(clippy::too_many_arguments)]
fn direct_backward(
    isa: Isa,
    grad_out: &Tensor,
    padded: &Tensor,
    weight: &Tensor,
    input_shape: &Shape,
    p: ConvParams,
    want_gx: bool,
) -> (Option<Tensor>, Tensor) {
    let g = Lowering::of(input_shape, weight.shape(), p);
    g.assert_direct();
    let (n, (hp, wp)) = (input_shape.dims()[0], g.padded());
    assert_eq!(
        grad_out.shape().dims(),
        &[n, g.oc, g.oh, g.ow],
        "grad_out shape mismatch"
    );
    assert_eq!(
        padded.shape().dims(),
        &[n, g.c, hp, wp],
        "conv2d_backward: the forward pass's padded input"
    );
    let (x, gy, cols) = (padded.data(), grad_out.data(), g.cols());
    let mut gw = pool::tensor([g.oc, g.c, g.live.kh, g.live.kw]);
    let hw = g.oh * g.ow;
    {
        let _t = Timer::start(KernelOp::ConvDirect);
        let block = direct::BLOCK_ROWS;
        let work = g.oc * n * hw * cols;
        if g.oc > block && work >= linalg::PAR_MIN_WORK_F32 && runtime::threads() > 1 {
            let gw_ptr = SendPtr::new(gw.data_mut());
            runtime::parallel_for_chunks(g.oc.div_ceil(block), &|b| {
                let (o0, rows) = (b * block, block.min(g.oc - b * block));
                // Safety: blocks of output channels are disjoint rows of `gw`.
                let dw = unsafe { gw_ptr.slice(o0 * cols, rows * cols) };
                direct::weight_grad(isa, x, gy, dw, o0, &g);
            });
        } else {
            direct::weight_grad(isa, x, gy, gw.data_mut(), 0, &g);
        }
    }
    let gx = want_gx.then(|| {
        let mut mat = pool::tensor([n * hw, g.oc]);
        nchw_to_nhwc_rows_into(grad_out, &mut mat);
        // every tap is live: the weight storage is the `(oc, cols)` matrix
        let gx = input_grad(isa, &mat, weight, &g, n);
        pool::recycle(mat);
        gx
    });
    (gx, gw)
}

/// Reorders an NCHW tensor into a `(n·h·w, c)` matrix (rows in NHWC order),
/// the inverse of the forward's reorder (one [`transpose_samples`] each).
fn nchw_to_nhwc_rows_into(t: &Tensor, mat: &mut Tensor) {
    let (n, c, h, w) = t.shape().as_nchw();
    mat.resize([n * h * w, c]);
    transpose_samples(t.data(), mat.data_mut(), c, h * w);
}

/// Transposes every `(m, k)` sample of `src` into the `(k, m)` sample of
/// `dst` beside it: a forward's `(oh·ow, oc)` GEMM rows into NCHW (a plain
/// copy on a 1×1 map, where the two orders are the same), and back. A sample is a few KB and stays in L1, so nothing is
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
    use crate::isa::wide_or_skip;
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
        // 1x1 kernel, stride 1: a sample's patch rows are its input
        // reordered (h*w, c)
        let x = seq_tensor([1, 2, 2, 2]);
        let g = Lowering::new(2, 2, 2, 1, 1, 1, ConvParams::default());
        assert_eq!((g.oh, g.ow, g.cols()), (2, 2, 2));
        let mut rows = vec![f32::NAN; g.sample_patches()];
        im2col_sample(x.data(), &mut rows, &g);
        // row (y=0,x=0) should be [x[0,0,0,0], x[0,1,0,0]] = [0, 4]
        assert_eq!(rows, [0.0, 4.0, 1.0, 5.0, 2.0, 6.0, 3.0, 7.0]);
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
        let (y, cache) = conv2d(&x, &w, p);
        let grad_y = y.scale(2.0); // d(sum y^2)/dy
        let (gx, gw) = conv2d_backward(&grad_y, &cache, &w, x.shape(), p, true);
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
    /// with and without the input gradient, on both paths.
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
        for path in [ConvPath::Lowered, ConvPath::Direct] {
            let run = || {
                let (y, cache) = conv2d_via(path, &x, &w, p);
                let gy = y.scale(2.0);
                let (gx, gw) = conv2d_backward(&gy, &cache, &w, x.shape(), p, true);
                let (none, gw_only) = conv2d_backward(&gy, &cache, &w, x.shape(), p, false);
                assert!(none.is_none());
                assert_eq!(bits(&gw_only), bits(&gw), "dW without dX");
                (y, cache, gx.unwrap(), gw)
            };
            let fresh = pool::transient(run);
            // Prime the scratch by running a *different* shape first, then
            // hand the first run's buffers over: the second run finds every
            // size it asks for parked, poisoned.
            let (y0, c0) = conv2d_via(path, &Tensor::ones([1, 2, 4, 4]), &w, p);
            pool::recycle(y0);
            c0.recycle();
            let (y, cache, gx, gw) = run();
            // the patch matrix (50 x 18) or the padded input (2 x 2 x 7 x 7)
            let cached = |c: &ConvCache| match c {
                ConvCache::Lowered { patches, .. } => patches.data().as_ptr(),
                ConvCache::Direct { padded } => padded.data().as_ptr(),
            };
            let ptr = cached(&cache);
            for t in [y, gx, gw] {
                pool::recycle(t);
            }
            cache.recycle();
            let again = run();
            assert_eq!(cached(&again.1), ptr, "{path:?}: the parked cache");
            assert_eq!(again, fresh, "{path:?}");
        }
    }

    /// The widened-`i32` INT8 convolution: the raw patch matrix and the
    /// weights quantized at their own scales, each output one exact `i32`
    /// sum scaled once. Returns the output, the dequantized patches the
    /// kernel consumed, and the scales.
    fn widened_int8_reference(
        x: &Tensor,
        w: &Tensor,
        p: ConvParams,
    ) -> (Tensor, Tensor, QuantParams, QuantParams) {
        let (n, _, _, _) = x.shape().as_nchw();
        let (oc, ic, kh, kw) = w.shape().as_nchw();
        let mut patches = Tensor::default();
        let (oh, ow) = reference::im2col_into(x, kh, kw, p, &mut patches);
        let pp = QuantParams::from_tensor(&patches);
        let pw = QuantParams::from_tensor(w);
        let cols = ic * kh * kw;
        let (mut qp, mut qw) = (Vec::new(), Vec::new());
        quant::quantize_into(&patches, pp, &mut qp);
        quant::quantize_into(w, pw, &mut qw);
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
        let mut consumed = Tensor::default();
        quant::dequantize_into(&qp, patches.shape().clone(), pp, &mut consumed);
        (expect, consumed, pp, pw)
    }

    /// The INT8 forward on both paths reproduces the widened-`i32`
    /// reference bit for bit, training and evaluation, and leaves the
    /// dequantized values it consumed behind for backward — the patch
    /// matrix, or the padded input the direct path lowers it from — on
    /// LeNet-5's two layers (1 → 3 on 8×8, 3 → 8 on 4×4), a width off the
    /// direct path's constant rows (6) and 60 random geometries the direct
    /// path admits, with signed zeros, a NaN and an infinity among the
    /// inputs, at every instantiation this host has. And the whole thing
    /// stays close to the f32 convolution.
    #[test]
    fn int8_conv_matches_widened_reference_exactly() {
        let mut rng = StdRng::seed_from_u64(0x1278);
        // (n, ic, h, w, oc, k, padding)
        let mut cases = vec![
            (4, 1, 8, 8, 3, 3, 1),
            (4, 3, 4, 4, 8, 3, 1),
            (3, 3, 6, 6, 5, 3, 1),
            (2, 2, 5, 5, 3, 3, 1),
        ];
        while cases.len() < 64 {
            let (ic, k, pad) = (
                rng.gen_range(1..=3),
                rng.gen_range(2..=3),
                rng.gen_range(0..=1),
            );
            let (h, w) = (rng.gen_range(k..=9), rng.gen_range(k..=9));
            let case = (rng.gen_range(1..=4), ic, h, w, rng.gen_range(1..=9), k, pad);
            if Lowering::new(ic, h, w, case.4, k, k, ConvParams::new(1, pad)).admits_direct() {
                cases.push(case);
            }
        }
        let isas = [Isa::PORTABLE]
            .into_iter()
            .chain(wide_or_skip("INT8 direct conv"));
        let isas: Vec<Isa> = isas.collect();
        for (i, &(n, ic, h, w, oc, k, pad)) in cases.iter().enumerate() {
            let p = ConvParams::new(1, pad);
            let mut x = signed_zero_values([n, ic, h, w], &mut rng);
            if i % 3 == 1 {
                x.data_mut()[0] = f32::NAN;
            }
            if i % 7 == 2 {
                let last = x.len() - 1;
                x.data_mut()[last] = f32::INFINITY;
            }
            let wt = weights([oc, ic, k, k], &mut rng);
            let (expect, consumed, pp, pw) = widened_int8_reference(&x, &wt, p);
            let what = format!("{n}x{ic}x{h}x{w} -> {oc}, {k}x{k} pad {pad}");
            let lowered = [(ConvPath::Lowered, Isa::active())];
            let direct = isas.iter().map(|&isa| (ConvPath::Direct, isa));
            for (path, isa) in lowered.into_iter().chain(direct) {
                let what = format!("{what}, {path:?} on {}", isa.name());
                let (y8, cache, scales) = forward_on(path, isa, &x, &wt, p, true);
                assert_eq!(scales, Some((pp, pw)), "{what}: scales");
                assert_eq!(bits(&y8), bits(&expect), "{what}: y");
                let ye = eval_on(path, isa, &x, &wt, p, true);
                assert_eq!(bits(&ye), bits(&expect), "{what}: eval y");
                let cached = match &cache {
                    ConvCache::Lowered { patches, .. } => patches.clone(),
                    ConvCache::Direct { padded } => {
                        let mut lowered = Tensor::default();
                        reference::im2col_into(padded, k, k, ConvParams::new(1, 0), &mut lowered);
                        lowered
                    }
                };
                assert_eq!(bits(&cached), bits(&consumed), "{what}: cache");
                if x.data().iter().all(|v| v.is_finite()) {
                    let (y32, _) = conv2d_via(path, &x, &wt, p);
                    let dot: f32 = y8.data().iter().zip(y32.data()).map(|(a, b)| a * b).sum();
                    let cos = dot / (y8.l2_norm() * y32.l2_norm());
                    assert!(cos > 0.98 || y32.l2_norm() < 1e-3, "{what}: cos {cos}");
                }
                cache.recycle();
            }
        }
    }

    #[test]
    fn col2im_adjoint_of_im2col() {
        // <im2col(x), p> == <x, col2im(p)> for all x, p (adjoint property),
        // on one sample's bodies as a panel runs them
        let g = Lowering::new(2, 4, 4, 1, 3, 3, ConvParams::new(2, 1));
        let x = seq_tensor([1, 2, 4, 4]);
        let mut patches = vec![f32::NAN; g.sample_patches()];
        im2col_sample(x.data(), &mut patches, &g);
        let probe: Vec<f32> = (0..patches.len())
            .map(|i| ((i * 7 % 13) as f32) - 6.0)
            .collect();
        let lhs: f32 = patches.iter().zip(&probe).map(|(a, b)| a * b).sum();
        let mut back = vec![f32::NAN; g.sample_image()];
        col2im_sample(&probe, &mut back, &g);
        let rhs: f32 = x.data().iter().zip(&back).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    /// The oracle: the bounds-tested per-sample bodies over a tap window,
    /// the index-arithmetic reorders and the bounds-tested pool, and the
    /// convolution over all `kh·kw` taps built from them (batch loops
    /// serial). The halo bodies must equal the former, and both paths of
    /// every convolution the latter, bit for bit.
    mod reference {
        use super::super::*;

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

        /// The convolution over all `kh·kw` taps: the bounds-tested
        /// lowering, one GEMM per product, batch loops serial. Returns `y`
        /// and the patch matrix.
        pub fn conv2d(input: &Tensor, weight: &Tensor, p: ConvParams) -> (Tensor, Tensor) {
            let (n, ic, _, _) = input.shape().as_nchw();
            let (oc, ic2, kh, kw) = weight.shape().as_nchw();
            assert_eq!(ic, ic2);
            let mut patches = Tensor::default();
            let (oh, ow) = im2col_into(input, kh, kw, p, &mut patches);
            let (rows, cols) = (n * oh * ow, ic * kh * kw);
            let mut mat = Tensor::zeros([rows, oc]);
            let (a, b) = (patches.data(), weight.data());
            linalg::matmul_a_bt_slices(a, b, mat.data_mut(), rows, cols, oc);
            let mut y = Tensor::default();
            nhwc_rows_to_nchw_into(&mat, n, oc, oh, ow, &mut y);
            (y, patches)
        }

        /// The INT8 forward over all taps: both operands quantized whole,
        /// accumulated in `i32`, scaled once. Returns `y`, the dequantized
        /// patch matrix and both scales.
        pub fn conv2d_int8(
            input: &Tensor,
            weight: &Tensor,
            p: ConvParams,
        ) -> (Tensor, Tensor, QuantParams, QuantParams) {
            let (n, ic, _, _) = input.shape().as_nchw();
            let (oc, _, kh, kw) = weight.shape().as_nchw();
            let mut patches = Tensor::default();
            let (oh, ow) = im2col_into(input, kh, kw, p, &mut patches);
            let (rows, cols) = (n * oh * ow, ic * kh * kw);
            let pp = QuantParams::from_tensor(&patches);
            let pw = QuantParams::from_tensor(weight);
            let (mut qp, mut qw) = (Vec::new(), Vec::new());
            quant::quantize_into(&patches, pp, &mut qp);
            quant::quantize_into(weight, pw, &mut qw);
            let mut imat = vec![0i32; rows * oc];
            linalg::matmul_i8_a_bt_slices(&qp, &qw, &mut imat, rows, cols, oc);
            let mut mat = Tensor::zeros([rows, oc]);
            quant::scale_i32_slices(Isa::PORTABLE, &imat, mat.data_mut(), pp.scale * pw.scale);
            let mut y = Tensor::default();
            nhwc_rows_to_nchw_into(&mat, n, oc, oh, ow, &mut y);
            quant::dequantize_into(&qp, [rows, cols], pp, &mut patches);
            (y, patches, pp, pw)
        }

        /// The backward over all taps: `dW = gmatᵀ × patches` and `dX` the
        /// bounds-tested `col2im` of `gmat × W`.
        pub fn conv2d_backward(
            grad_out: &Tensor,
            patches: &Tensor,
            weight: &Tensor,
            input_shape: &Shape,
            p: ConvParams,
        ) -> (Tensor, Tensor) {
            let (n, ic, h, w) = input_shape.as_nchw();
            let (oc, _, kh, kw) = weight.shape().as_nchw();
            let (_, _, oh, ow) = grad_out.shape().as_nchw();
            let (rows, cols) = (n * oh * ow, ic * kh * kw);
            let mut mat = Tensor::default();
            nchw_to_nhwc_rows_into(grad_out, &mut mat);
            let mut gw = Tensor::zeros([oc, ic, kh, kw]);
            let (g, x) = (mat.data(), patches.data());
            linalg::matmul_at_b_slices(g, x, gw.data_mut(), oc, rows, cols);
            let mut gpatches = Tensor::zeros([rows, cols]);
            linalg::matmul_slices(g, weight.data(), gpatches.data_mut(), rows, oc, cols);
            let mut gx = Tensor::default();
            col2im_into(&gpatches, n, ic, h, w, kh, kw, p, &mut gx);
            (gx, gw)
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

    /// A convolution's training forward on `path` and instantiation `isa`,
    /// in f32 or INT8: `(y, cache, scales)`.
    fn forward_on(
        path: ConvPath,
        isa: Isa,
        x: &Tensor,
        w: &Tensor,
        p: ConvParams,
        int8: bool,
    ) -> (Tensor, ConvCache, Option<(QuantParams, QuantParams)>) {
        let (y, cache, scales) = forward(isa, path, x, w, p, true, int8);
        assert_eq!(scales.is_some(), int8, "the INT8 arm's scales");
        (y, cache.expect("kept"), scales)
    }

    /// [`conv2d_eval`] or [`conv2d_int8_eval`] on `path` and instantiation
    /// `isa`.
    fn eval_on(
        path: ConvPath,
        isa: Isa,
        x: &Tensor,
        w: &Tensor,
        p: ConvParams,
        int8: bool,
    ) -> Tensor {
        let (y, cache, _) = forward(isa, path, x, w, p, false, int8);
        assert!(cache.is_none(), "an eval forward keeps nothing");
        y
    }

    /// [`conv2d_backward`] on instantiation `isa` (`dX` on either path, the
    /// direct path's `dW`).
    fn backward_on(
        isa: Isa,
        gy: &Tensor,
        cache: &ConvCache,
        w: &Tensor,
        x_shape: &Shape,
        p: ConvParams,
        want_gx: bool,
    ) -> (Option<Tensor>, Tensor) {
        match cache {
            ConvCache::Direct { padded } => {
                direct_backward(isa, gy, padded, w, x_shape, p, want_gx)
            }
            ConvCache::Lowered { patches, view } => {
                lowered_backward(isa, gy, patches, view.as_ref(), w, x_shape, p, want_gx)
            }
        }
    }

    /// One convolution on `path` and instantiation `isa` and through the
    /// all-taps oracle, forward (f32 or INT8, training and evaluation) and
    /// backward, the path on the step scratch (whose parked buffers are
    /// poisoned in this build); asserts `y` of both forwards, the scales,
    /// the lowering's cached patch matrix (the oracle's live-tap columns),
    /// `dX` and `dW` — with and without `dX` — equal bit for bit. `what`
    /// names the case.
    #[allow(clippy::too_many_arguments)]
    fn assert_matches_reference(
        x: &Tensor,
        w: &Tensor,
        gy_of: &dyn Fn(&Tensor) -> Tensor,
        p: ConvParams,
        int8: bool,
        path: ConvPath,
        isa: Isa,
        what: &str,
    ) {
        let what = format!("{what}, {path:?} on {}", isa.name());
        let (y, cache, scales) = forward_on(path, isa, x, w, p, int8);
        let direct = matches!(cache, ConvCache::Direct { .. });
        assert_eq!(
            direct,
            path == ConvPath::Direct,
            "{what}: the cache says which path ran"
        );
        let (ry, rpatches) = if int8 {
            let (ry, rpatches, pp, pw) = reference::conv2d_int8(x, w, p);
            assert_eq!(scales, Some((pp, pw)), "{what}: quantization scales");
            (ry, rpatches)
        } else {
            reference::conv2d(x, w, p)
        };
        assert_eq!(y.shape(), ry.shape(), "{what}: output shape");
        assert_eq!(bits(&y), bits(&ry), "{what}: y");
        let ye = eval_on(path, isa, x, w, p, int8);
        assert_eq!(bits(&ye), bits(&ry), "{what}: eval y");
        pool::recycle(ye);
        if let ConvCache::Lowered { patches, .. } = &cache {
            let (_, _, h, wd) = x.shape().as_nchw();
            let (_, _, kh, kw) = w.shape().as_nchw();
            let mut live = stale(patches.shape().clone());
            LiveTaps::of(h, wd, kh, kw, p).gather(rpatches.data(), live.data_mut());
            assert_eq!(bits(patches), bits(&live), "{what}: cached patches");
        }

        let gy = gy_of(&y);
        let (rgx, rgw) = reference::conv2d_backward(&gy, &rpatches, w, x.shape(), p);
        let (gx, gw) = backward_on(isa, &gy, &cache, w, x.shape(), p, true);
        let gx = gx.expect("asked for");
        assert_eq!(bits(&gx), bits(&rgx), "{what}: dX");
        assert_eq!(gw.shape(), rgw.shape(), "{what}: dW shape");
        assert_eq!(bits(&gw), bits(&rgw), "{what}: dW");
        // without the input gradient the weight gradient is the same one
        let (none, gw_only) = backward_on(isa, &gy, &cache, w, x.shape(), p, false);
        assert!(none.is_none(), "{what}: dX nobody asked for");
        assert_eq!(bits(&gw_only), bits(&rgw), "{what}: dW without dX");
        for t in [y, gx, gw, gw_only] {
            pool::recycle(t);
        }
        cache.recycle();
    }

    /// The paths a geometry can run on, each at every instantiation this
    /// host has: the lowering (on the active one: its GEMMs pick their
    /// own), and — where it admits the geometry — the direct path on the
    /// portable body and on every wider one.
    fn paths(h: usize, w: usize, ic: usize, k: usize, p: ConvParams) -> Vec<(ConvPath, Isa)> {
        let mut paths = vec![(ConvPath::Lowered, Isa::active())];
        if Lowering::new(ic, h, w, 1, k, k, p).admits_direct() {
            let isas = [Isa::PORTABLE]
                .into_iter()
                .chain(wide_or_skip("direct conv"));
            paths.extend(isas.map(|isa| (ConvPath::Direct, isa)));
        }
        paths
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

    /// The path rule on every conv layer of the model zoo at the CLI's
    /// widths and 8×8 inputs: LeNet-5's two layers and the 3-channel stems
    /// of ResNet-50 and MobileNetV1 run direct; the stems of VGG-11 and
    /// ResNet-18, every wider layer, every 1×1 and every strided layer keep
    /// the lowering.
    #[test]
    fn the_path_is_chosen_from_the_geometry() {
        let path = |ic, h, oc, k, stride, pad| {
            ConvPath::of(
                &Shape::from([40, ic, h, h]),
                &Shape::from([oc, ic, k, k]),
                ConvParams::new(stride, pad),
            )
        };
        use ConvPath::{Direct, Lowered};
        // LeNet-5 on one channel and on three, and its conv2 on the pooled map
        assert_eq!(path(1, 8, 3, 3, 1, 1), Direct);
        assert_eq!(path(3, 8, 3, 3, 1, 1), Direct);
        assert_eq!(path(3, 4, 8, 3, 1, 1), Direct);
        // ResNet-50's and MobileNetV1's stems
        assert_eq!(path(3, 8, 6, 3, 1, 1), Direct);
        assert_eq!(path(3, 8, 7, 3, 1, 1), Direct);
        // VGG-11's and ResNet-18's stems, ResNet-50's 6 → 6, and a 4×4 layer
        // past the break-even
        assert_eq!(path(3, 8, 14, 3, 1, 1), Lowered);
        assert_eq!(path(3, 8, 12, 3, 1, 1), Lowered);
        assert_eq!(path(6, 8, 6, 3, 1, 1), Lowered);
        assert_eq!(path(3, 4, 12, 3, 1, 1), Lowered);
        // few cells but more than 32 patch columns
        assert_eq!(path(4, 8, 2, 3, 1, 1), Lowered);
        // a 1×1 has no window to lower; stride 2 and dead taps are refused
        assert_eq!(path(7, 8, 14, 1, 1, 0), Lowered);
        assert_eq!(path(1, 8, 3, 3, 2, 1), Lowered);
        assert_eq!(path(1, 1, 3, 3, 1, 1), Lowered);
        // the batch does not enter the rule
        let one = ConvPath::of(
            &Shape::from([1, 1, 8, 8]),
            &Shape::from([3, 1, 3, 3]),
            ConvParams::new(1, 1),
        );
        assert_eq!(one, Direct);
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
    /// `dX` and `dW` of the live-tap lowering and, on every geometry it
    /// admits, of the direct path at every instantiation equal the all-taps
    /// oracle bit for bit, with one step scratch recycled across every
    /// case, at pool sizes 1 and 4.
    #[test]
    fn live_tap_lowering_matches_the_all_taps_reference_bitwise() {
        for threads in [1, 4] {
            crate::runtime::with_threads(threads, || {
                let mut rng = StdRng::seed_from_u64(18);
                let (mut cases, mut trimmed, mut direct) = (0, 0, 0);
                for (k, stride, pad, h) in geometries() {
                    for w in (1..=6).filter(|w| w + 2 * pad >= k) {
                        let p = ConvParams::new(stride, pad);
                        let n = rng.gen_range(1..=5usize);
                        let ic = 2 * rng.gen_range(0..3usize) + 1;
                        let oc = rng.gen_range(1..=9usize);
                        let x = signed_zero_values([n, ic, h, w], &mut rng);
                        let wt = weights([oc, ic, k, k], &mut rng);
                        let gy = |y: &Tensor| {
                            signed_zero_values(y.shape().clone(), &mut StdRng::seed_from_u64(cases))
                        };
                        for (path, isa) in paths(h, w, ic, k, p) {
                            for int8 in [false, true] {
                                let what = format!(
                                "k{k} s{stride} p{pad} on {n}x{ic}x{h}x{w} -> {oc}, {}, {threads} threads",
                                if int8 { "INT8" } else { "f32" }
                            );
                                assert_matches_reference(&x, &wt, &gy, p, int8, path, isa, &what);
                            }
                        }
                        cases += 1;
                        trimmed += usize::from(!LiveTaps::of(h, w, k, k, p).is_full());
                        direct += usize::from(Lowering::new(ic, h, w, oc, k, k, p).admits_direct());
                    }
                }
                // the direct bodies' strips and channel blocks: maps up to 9
                // (`ow = 8`, heights no strip divides) and 1..=9 channels out
                let wide = [
                    (1, 9, 8),
                    (1, 8, 8),
                    (1, 3, 8),
                    (1, 7, 9),
                    (0, 9, 10),
                    (0, 8, 9),
                ];
                for (pad, h, w) in wide {
                    let p = ConvParams::new(1, pad);
                    let (n, ic) = (rng.gen_range(1..=3usize), 2 * rng.gen_range(0..2usize) + 1);
                    let oc = rng.gen_range(1..=9usize);
                    let x = signed_zero_values([n, ic, h, w], &mut rng);
                    let wt = weights([oc, ic, 3, 3], &mut rng);
                    let gy = |y: &Tensor| {
                        signed_zero_values(y.shape().clone(), &mut StdRng::seed_from_u64(cases))
                    };
                    for (path, isa) in paths(h, w, ic, 3, p) {
                        for int8 in [false, true] {
                            let what = format!("p{pad} on {n}x{ic}x{h}x{w} -> {oc}, int8 {int8}");
                            assert_matches_reference(&x, &wt, &gy, p, int8, path, isa, &what);
                        }
                    }
                    cases += 1;
                    direct += usize::from(Lowering::new(ic, h, w, oc, 3, 3, p).admits_direct());
                }
                println!(
                    "{trimmed} of {cases} geometries had a dead tap to drop, {direct} ran direct"
                );
                assert!(trimmed >= 50, "only {trimmed} of {cases} were trimmed");
                assert!(direct >= 100, "only {direct} of {cases} ran direct");
            });
        }
    }

    /// A non-finite weight on a geometry the direct path admits (every tap
    /// live): NaN and ∞ reach the outputs of both paths through the same
    /// operations, so the two still agree with the oracle bit for bit.
    #[test]
    fn a_non_finite_weight_gives_both_paths_the_same_bits() {
        let mut rng = StdRng::seed_from_u64(23);
        let p = ConvParams::new(1, 1);
        let x = signed_zero_values([3, 2, 5, 4], &mut rng);
        let mut wt = weights([3, 2, 3, 3], &mut rng);
        wt.data_mut()[4] = f32::INFINITY;
        wt.data_mut()[13] = f32::NEG_INFINITY;
        let gy = |y: &Tensor| y.scale(0.5);
        for (path, isa) in paths(5, 4, 2, 3, p) {
            for int8 in [false, true] {
                let what = format!("inf weights, int8 {int8}");
                assert_matches_reference(&x, &wt, &gy, p, int8, path, isa, &what);
            }
        }
    }

    /// The live weight view is gathered by every forward and read by its
    /// backward: the layer must follow the weights through an optimizer
    /// step, forward and backward.
    #[test]
    fn live_weight_view_follows_the_weights() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = ConvParams::new(1, 1);
        let x = signed_zero_values([3, 5, 1, 1], &mut rng);
        let gy = |y: &Tensor| y.scale(2.0);
        for step in 0..3 {
            let wt = weights([7, 5, 3, 3], &mut rng);
            for int8 in [false, true] {
                let what = format!("step {step}, int8 {int8}");
                let (path, isa) = (ConvPath::Lowered, Isa::active());
                assert_matches_reference(&x, &wt, &gy, p, int8, path, isa, &what);
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
        let (_, cache, _, pw) = conv2d_int8(&x, &wt, p);
        cache.recycle();
        assert_eq!(pw.scale, 40.0 / 127.0);
        let gy = |y: &Tensor| y.scale(0.5);
        let (path, isa) = (ConvPath::Lowered, Isa::active());
        assert_matches_reference(&x, &wt, &gy, p, true, path, isa, "dead max");
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
        let (y, cache) = conv2d(&x, &dead, p);
        assert_eq!(bits(&y), bits(&y_clean));
        let (ry, _) = reference::conv2d(&x, &dead, p);
        assert!(ry.data()[0].is_nan(), "the all-taps lowering did read it");

        let mut live = clean.clone();
        live.data_mut()[4] = f32::INFINITY; // (ci 0, centre tap)
        assert_eq!(conv2d(&x, &live, p).0.data(), &[f32::INFINITY]);

        let gy = Tensor::from_vec(vec![f32::INFINITY], [1, 1, 1, 1]);
        let (gx, gw) = conv2d_backward(&gy, &cache, &clean, x.shape(), p, true);
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
        let all_taps = ConvCache::Lowered {
            patches: Tensor::zeros([2, 27]),
            view: Some(Tensor::zeros([4, 3])),
        };
        let gy = Tensor::ones([2, 4, 1, 1]);
        conv2d_backward(&gy, &all_taps, &w, x.shape(), p, true);
    }

    /// One trimmed shape (2×2 → 1×1 at stride 2: a 2×2 window) that crosses
    /// `PAR_MIN_ELEMS` and both GEMM pool thresholds, and one shape the
    /// direct path admits that crosses them and cuts `dW` into several
    /// blocks, at pool sizes 1, 2 and 8: the pool paths of the lowering,
    /// the scatter, all four products and the direct bodies equal the
    /// serial all-taps oracle bit for bit.
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

        let (dn, dic, dhw, doc) = (64usize, 3, 8, 8);
        let dp = ConvParams::new(1, 1);
        let dcols = dic * 9;
        assert!(dn * dhw * dhw * dcols >= PAR_MIN_ELEMS);
        assert!(doc * dn * dhw * dhw * dcols >= linalg::PAR_MIN_WORK_F32);
        assert!(doc > direct::BLOCK_ROWS);
        let dx = signed_zero_values([dn, dic, dhw, dhw], &mut rng);
        let dwt = weights([doc, dic, 3, 3], &mut rng);
        for threads in [1, 2, 8] {
            crate::runtime::with_threads(threads, || {
                for int8 in [false, true] {
                    let what = format!("{threads} threads, int8 {int8}");
                    let lowered = (ConvPath::Lowered, Isa::active());
                    assert_matches_reference(&x, &wt, &gy, p, int8, lowered.0, lowered.1, &what);
                    for (path, isa) in paths(dhw, dhw, dic, 3, dp) {
                        assert_matches_reference(&dx, &dwt, &gy, dp, int8, path, isa, &what);
                    }
                }
            });
        }
    }

    /// The panel passes against the whole-matrix oracle: the training and
    /// the eval forward, f32 and INT8 (output, cached patches and both
    /// scales), `dX` and `dW` of both paths, on every instantiation this host
    /// has, at pool sizes 1, 2 and 4 — kernels 1×1 and 3×3, strides 1 and 2
    /// (the 1×1 stride-2 shortcut among them), padding 0 and 1, square maps
    /// 1, 2, 3, 4 and 8 wide (dead taps on the 1×1 and 2×2 ones), batches
    /// 1…5 and odd channel counts drawn — plus three batches of five large
    /// enough for the pool, 8×8 (a sample a panel; the wider one for the
    /// INT8 GEMM's threshold too) and 4×4 (two a panel, the last one short),
    /// and LeNet-5's two layers on both paths: 64 and 3 samples on 8×8 (the
    /// pool at both precisions, and serial) and 77 on 4×4 (the pool at f32,
    /// the last panel short). The INT8 arm's inputs also hold a NaN and, in
    /// every third case, an infinity, so that the pre-pass scale meets both,
    /// on rows and columns a window reads, at stride 2 on ones none reads,
    /// and on direct geometries.
    #[test]
    fn panel_passes_match_the_whole_matrix_oracle_bitwise() {
        let isas: Vec<Isa> = [Isa::PORTABLE]
            .into_iter()
            .chain(wide_or_skip("panel passes"))
            .collect();
        for threads in [1, 2, 4] {
            crate::runtime::with_threads(threads, || {
                let mut rng = StdRng::seed_from_u64(47);
                let mut cases = Vec::new();
                for (k, stride, pad, hw) in [1, 3].into_iter().flat_map(|k| {
                    let maps = [1, 2, 3, 4, 8].into_iter();
                    let geometry =
                        move |(stride, pad)| maps.clone().map(move |hw| (k, stride, pad, hw));
                    [(1, 0), (1, 1), (2, 0), (2, 1)]
                        .into_iter()
                        .flat_map(geometry)
                }) {
                    if hw + 2 * pad < k {
                        continue;
                    }
                    let n = rng.gen_range(1..=5usize);
                    let ic = 2 * rng.gen_range(0..3usize) + 1;
                    let oc = 2 * rng.gen_range(0..3usize) + 1;
                    cases.push((n, ic, hw, oc, k, ConvParams::new(stride, pad)));
                }
                cases.push((5, 16, 8, 8, 3, ConvParams::new(1, 1)));
                cases.push((5, 32, 8, 8, 3, ConvParams::new(1, 1)));
                cases.push((5, 32, 4, 16, 3, ConvParams::new(1, 1)));
                // LeNet-5's two layers, which the direct path admits: the first
                // on a batch the pool takes at both precisions and on one it
                // does not, the second with f32 on the pool and the last of its
                // two-sample panels short
                cases.push((64, 3, 8, 8, 3, ConvParams::new(1, 1)));
                cases.push((3, 3, 8, 8, 3, ConvParams::new(1, 1)));
                cases.push((77, 3, 4, 8, 3, ConvParams::new(1, 1)));
                // by path, lowering then direct: short last panels, passes on
                // the pool (f32, INT8) and INT8 inputs holding an infinity
                let (mut short, mut pooled, mut infinite) = ([0; 2], [[0; 2]; 2], [0; 2]);
                let mut dead = 0;
                for (case, &(n, ic, hw, oc, k, p)) in cases.iter().enumerate() {
                    let g = Lowering::new(ic, hw, hw, oc, k, k, p);
                    let direct = g.admits_direct();
                    let x = signed_zero_values([n, ic, hw, hw], &mut rng);
                    let mut x8 = x.clone();
                    let mut spike = |v: f32| {
                        let at = rng.gen_range(0..x8.len());
                        x8.data_mut()[at] = v;
                    };
                    spike(f32::NAN);
                    if case % 3 == 0 {
                        spike([f32::INFINITY, f32::NEG_INFINITY][case % 2]);
                    }
                    let wt = weights([oc, ic, k, k], &mut rng);
                    let gy = |y: &Tensor| {
                        signed_zero_values(
                            y.shape().clone(),
                            &mut StdRng::seed_from_u64(case as u64),
                        )
                    };
                    // both paths cut the batch alike
                    let work = [linalg::PAR_MIN_WORK_F32, linalg::PAR_MIN_WORK_I8];
                    let panels =
                        work.map(|min_work| Panels::of(n, g.oh * g.ow, g.cols(), oc, min_work));
                    for path in [false, true].into_iter().filter(|&d| !d || direct) {
                        let path = usize::from(path);
                        short[path] += usize::from(n > panels[0].per && n % panels[0].per != 0);
                        for (pooled, panels) in pooled[path].iter_mut().zip(&panels) {
                            *pooled += usize::from(panels.parallel);
                        }
                        infinite[path] += usize::from(case % 3 == 0);
                    }
                    dead += usize::from(!g.live.is_full());
                    for &isa in &isas {
                        for path in [ConvPath::Lowered, ConvPath::Direct] {
                            if path == ConvPath::Direct && !direct {
                                continue;
                            }
                            for (int8, x) in [(false, &x), (true, &x8)] {
                                let what = format!(
                                "k{k} s{} p{} on {n}x{ic}x{hw}x{hw} -> {oc}, {}, {threads} threads",
                                p.stride,
                                p.padding,
                                if int8 { "INT8" } else { "f32" }
                            );
                                assert_matches_reference(x, &wt, &gy, p, int8, path, isa, &what);
                            }
                        }
                    }
                }
                assert!(
                    short[0] >= 2 && short[1] >= 1,
                    "{short:?} batches ended short"
                );
                assert!(
                    infinite[1] >= 2,
                    "{infinite:?} INT8 inputs held an infinity"
                );
                assert_eq!(dead, 3, "geometries with a dead tap");
                assert_eq!(
                    pooled,
                    [[5, 2], [2, 1]],
                    "lowering and direct, f32 and INT8 passes for the pool"
                );
            });
        }
    }

    /// The lowering's INT8 input scale, worked out before its pass from the
    /// rows and columns some live window reads, equals the scale of the
    /// whole all-taps patch matrix bit for bit: kernels 1…5, strides 1…3,
    /// padding 0…2, rectangular maps 1…6 × 1…6, batches and channels drawn,
    /// the inputs holding `±0.0`, a spike of 50 at a drawn position — read
    /// or not — and in some cases a NaN or an infinity.
    #[test]
    fn input_scale_equals_the_patch_matrix_scale() {
        let mut rng = StdRng::seed_from_u64(48);
        let (mut cases, mut sparse) = (0, 0);
        for k in 1..=5usize {
            for stride in 1..=3 {
                for pad in 0..=2 {
                    for (h, w) in (1..=6).flat_map(|h| (1..=6).map(move |w| (h, w))) {
                        if h + 2 * pad < k || w + 2 * pad < k {
                            continue;
                        }
                        let p = ConvParams::new(stride, pad);
                        let (n, c) = (rng.gen_range(1..=3usize), rng.gen_range(1..=3usize));
                        let mut x = signed_zero_values([n, c, h, w], &mut rng);
                        let len = x.len();
                        x.data_mut()[rng.gen_range(0..len)] = 50.0;
                        match rng.gen_range(0..4u32) {
                            0 => x.data_mut()[rng.gen_range(0..len)] = f32::NAN,
                            1 => x.data_mut()[rng.gen_range(0..len)] = f32::NEG_INFINITY,
                            _ => {}
                        }
                        let mut patches = Tensor::default();
                        reference::im2col_into(&x, k, k, p, &mut patches);
                        let want = QuantParams::from_tensor(&patches);
                        let g = Lowering::new(c, h, w, 1, k, k, p);
                        let got = g.input_scale(&x);
                        let what = format!("k{k} s{stride} p{pad} on {n}x{c}x{h}x{w}");
                        assert_eq!(got.scale.to_bits(), want.scale.to_bits(), "{what}");
                        let all = (0..h).all(|y| g.reads(y, g.oh, g.live.rows()))
                            && (0..w).all(|x| g.reads(x, g.ow, g.live.cols()));
                        sparse += usize::from(!all);
                        cases += 1;
                    }
                }
            }
        }
        println!("{sparse} of {cases} geometries leave an input row or column unread");
        assert!(sparse >= 100, "only {sparse} of {cases} were sparse");
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
        let g = Lowering::new(c, h, w, 1, k, k, p);
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

    /// The panel passes' `im2col` (into the training forward's patch
    /// matrix) and `col2im` (of `dX`'s patch-gradient panels) on the pool
    /// must be bitwise-identical to composing the bounds-tested per-sample
    /// bodies serially — the shape is chosen to cross `PAR_MIN_ELEMS` so the
    /// pool path actually runs, on worker threads whose halo starts empty.
    #[test]
    fn parallel_im2col_and_col2im_match_serial_bitwise() {
        crate::runtime::with_threads(8, || {
            let (n, c, h, w, k, oc) = (4usize, 8, 16, 16, 3, 8);
            let p = ConvParams::new(1, 1);
            let x = Tensor::from_vec(
                (0..n * c * h * w)
                    .map(|i| ((i * 31 % 97) as f32) * 0.37 - 5.0)
                    .collect(),
                [n, c, h, w],
            );
            let wt = Tensor::from_vec(
                (0..oc * c * k * k)
                    .map(|i| ((i * 7 % 13) as f32) * 0.25 - 1.5)
                    .collect(),
                [oc, c, k, k],
            );
            let g = Lowering::new(c, h, w, 1, k, k, p);
            let panels = Panels::of(n, g.oh * g.ow, g.cols(), oc, linalg::PAR_MIN_WORK_F32);
            assert!(
                n * g.sample_patches() >= PAR_MIN_ELEMS && panels.parallel,
                "shape must cross the parallel threshold"
            );
            let (y, cache) = conv2d_via(ConvPath::Lowered, &x, &wt, p);
            let ConvCache::Lowered { patches, .. } = &cache else {
                panic!("the lowering")
            };
            let mut expect = Tensor::default();
            reference::im2col_into(&x, k, k, p, &mut expect);
            assert_eq!(bits(patches), bits(&expect));

            let gy = y.scale(0.5);
            let (gx, _) = conv2d_backward(&gy, &cache, &wt, x.shape(), p, true);
            let (rgx, _) = reference::conv2d_backward(&gy, &expect, &wt, x.shape(), p);
            assert_eq!(bits(&gx.expect("asked for")), bits(&rgx));
        });
    }

    /// Both reorders — a forward panel's GEMM rows to NCHW and the output
    /// gradient back to rows — against their index-arithmetic references,
    /// bit for bit, on 1×1 maps (a plain copy), one-channel matrices and
    /// ragged shapes, into buffers with stale contents.
    #[test]
    fn reorders_match_the_index_arithmetic_ones_bitwise() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut rt = stale([3]);
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
            let mut t = stale([n, c, oh, ow]);
            transpose_samples(mat.data(), t.data_mut(), oh * ow, c);
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
