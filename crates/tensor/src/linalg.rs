//! Dense linear algebra: tiled, register-blocked matrix multiply and
//! transposes.
//!
//! These routines are the compute kernels behind [`socflow_nn`]'s linear and
//! (via im2col) convolution layers. Each product is computed by a
//! register-tile micro-kernel that keeps a fixed-size accumulator tile in
//! registers and streams contiguously over the operands: on the portable
//! and AVX2 levels rustc autovectorizes its inner loops, on AVX-512 the
//! tile is written in `std::arch` intrinsics. The last `n % NR` columns
//! run through a 16-column tile over a zero-padded copy of `B`'s tail
//! columns. Either way the accumulation order is the same.
//!
//! **Numerics contract:** every kernel accumulates each output element
//! strictly sequentially over the shared dimension `p` in ascending order —
//! the same order as a naive triple loop — with a separate multiply and add
//! (never a fused one). Tiling and lane width change *which* elements are
//! computed together, never the floating-point summation order, so results
//! are bit-identical to the pre-tiled kernels and deterministic across runs.
//!
//! **Three instantiations, two bodies:** `isa_kernel!` compiles the f32
//! panel three times and [`Isa::active`] picks one per call (see
//! [`crate::isa`]). The portable and AVX2 levels inline one
//! autovectorized `#[inline(always)]` body; the AVX-512 level runs an
//! explicit register tile, with every bound of `A`, `B` and the padded
//! tail checked once per panel instead of once per step of `p`:
//!
//! | instantiation | full tile | columns left over | rows |
//! |---|---|---|---|
//! | portable, AVX2 | 4 × 16, eight `ymm` accumulators on AVX2 | padded to one 4 × 16 tile | last `m % 4` one at a time |
//! | AVX-512 | up to 8 × 32 (16 `zmm` accumulators); 12 × 32 (24) for `Aᵀ × B` | one 16-lane panel from `B` if 16 or more are left, then the padded one, both on tiles up to 12 × 16 (12 `zmm`) | split into the fewest tiles of near-equal height |
//!
//! so no tail pads more than 15 lanes at any width. Serially on one
//! thread of the AVX-512 reference host the explicit tile reads ×0.71–0.84
//! of the autovectorized 4 × 32 tile's time on the convolution lowering's
//! `A × Bᵀ` rows (64×108×12 6.24 → 4.85 µs), ×0.72–0.83 on `A × B`
//! (256×12×108 14.5 → 11.6 µs) and ×0.52–0.79 on the weight gradients'
//! `Aᵀ × B` (12×4096×108 258 → 169 µs), and it no longer depends on how
//! the crate is partitioned into codegen units (DESIGN.md, "Runtime ISA
//! dispatch"). The lanes run across the *output* dimension, so every
//! instantiation satisfies the contract above and they agree bit for
//! bit. All three products share the kernel: `Aᵀ × B` is a
//! stride choice on the left operand and `A × Bᵀ` transposes `B` once per
//! call. A pass that cuts its own rows — the convolution lowering's sample
//! panels — packs `B` once the same way and has each of its chunks run the
//! serial kernel over its rows (`Rhs::rows`). The two i8 GEMMs — `A × Bᵀ`
//! for the convolution lowering, `A × B` for a fully connected layer's
//! `(in, out)` weight — have hand-written AVX2 intrinsics (the AVX-512
//! level runs them too); they are exact in `i32`, where no order can
//! matter.
//!
//! **Parallelism:** large products are cut into panels of the output and
//! dispatched on the [`crate::runtime`] worker pool: `ROWS_PER_CHUNK` rows
//! each when there is more than one such panel, otherwise (`m ≤ 32`: every
//! convolution's weight gradient `Aᵀ × B`) groups of column panels as wide
//! as the instantiation's full panel — 16 or 32 columns, and 16 on AVX-512 too
//! when one 32-column tile would cover the whole product. The cut depends
//! only on the shape and the tile — never on the thread count — and each
//! panel is computed by the same sequential micro-kernel writing its own
//! cells, every element still the ascending-`p` sum, so the parallel kernels
//! are bit-identical to the single-threaded ones at any `SOCFLOW_THREADS`
//! setting, on any instantiation.
//!
//! Every product has an `_into` entry point that writes into a caller-owned
//! [`Tensor`] (resizing its storage as needed) and a `_slices` variant that
//! operates on raw row-major buffers; nothing here allocates its result.
//!
//! [`socflow_nn`]: https://docs.rs/socflow-nn

use crate::isa::{isa_kernel, Isa};
use crate::profile::{KernelOp, Timer};
use crate::runtime::SendPtr;
use crate::Tensor;
use std::cell::RefCell;
use std::ops::Range;

/// Rows of the portable and AVX2 register tile.
const MR: usize = 4;
/// Columns of the portable and AVX2 register tile (two 8-lane vectors on
/// AVX2), of the AVX-512 tile for the last `n % NR_WIDE` columns, and of
/// the zero-padded tail panel on every level.
const NR: usize = 16;
/// Columns of the AVX-512 tile over a full column panel: two 16-lane
/// vectors a row.
const NR_WIDE: usize = 32;

/// Columns of `isa`'s full register tile: what [`gemm_panel`] compiles for
/// it, and the grain of a column cut ([`Split`]). Only the speed depends on
/// the two agreeing: either body computes any panel on the `NR` grid.
fn tile_cols(isa: Isa) -> usize {
    if isa.has_avx512() {
        NR_WIDE
    } else {
        NR
    }
}

thread_local! {
    /// `Bᵀ` of the running `A × Bᵀ` product (`k × n`, [`with_rhs_t`]),
    /// transposed once on the calling thread and read by every row panel.
    /// Thread-local so replica jobs never contend; reused across calls so
    /// steady-state matmuls allocate nothing.
    static PACKED_BT: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// The last `n % NR` columns of the running product's `B`, zero-padded
    /// to a `k × NR` panel (see [`pad_tail_columns`]); same ownership rules.
    static PADDED_TAIL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Rows of output per parallel panel. A multiple of `MR`, so interior panels
/// tile exactly like the single-threaded sweep; chosen from the problem
/// shape only (never the thread count) to keep the partition deterministic.
const ROWS_PER_CHUNK: usize = 32;

/// Minimum multiply-add count before an f32 product takes the parallel
/// path; below this the pool round-trip costs more than the kernel itself.
/// The serial and parallel paths produce identical bytes, so this threshold
/// affects wall-clock only. Measured on the 2-thread reference host with
/// the second lane polling ([`crate::runtime`]), two threads against one:
/// 64×64×32 (2¹⁷) ×1.05, 64³ (2¹⁸) ×0.92, 256×32×32 (2¹⁸) ×0.72–0.81,
/// 128×64×64 (2¹⁹) ×0.83, 128³ (2²¹) ×0.55–0.74 (86 → 47–64 µs; with
/// workers that parked at once, two threads took 83 µs); column-split
/// `Aᵀ × B` 12×64×108 (2¹⁶·³) ×1.8, 12×256×108 (2¹⁸·³) ×0.81, 12×1024×108
/// ×0.64. A product whose row panels are a few thousand multiply-adds each
/// (4096×8×8) still loses above the threshold, ×1.1–1.3; no layer of the
/// model zoo has one. Re-measured on the AVX-512 panel (Sapphire Rapids
/// reference host, two threads against one, three runs of fifteen
/// interleaved rounds): 12×64×108 (2¹⁶·³) ×1.01–1.19, 64×64×32 (2¹⁷)
/// ×0.84–0.87, 64³ ×0.70–0.80, 256×32×32 ×0.65–0.96, 12×256×108 ×0.76–0.84,
/// 128×64×64 ×0.62–0.68, 128³ ×0.56–0.73: the break-even did not move far
/// enough from 2¹⁷ to be told apart from the host's noise, so the constant
/// stays. Re-measured on the explicit AVX-512 tiles (same host, the
/// threshold at 1 in a scratch build, medians of nine interleaved rounds,
/// three runs): row splits 64×64×32 ×0.84–0.97, 64³ ×0.66–0.76,
/// 256×32×32 ×0.73–0.80, 128×64×64 ×0.64–0.73, 128³ ×0.54–0.74 — still
/// below 2¹⁸, so the constant stays. The column split of a 12-row
/// `Aᵀ × B`, whose serial time the 12 × 32 tile cut by a third, now
/// breaks even only near 2²⁰: 12×64×108 ×2.0–2.2, 12×256×108 (2¹⁸·³)
/// ×1.48–1.62, 12×1024×108 (2²⁰·³) ×0.93–1.06; the weight gradients of
/// the benchmark workloads that take it are 2²⁰·⁴ and up.
pub(crate) const PAR_MIN_WORK_F32: usize = 1 << 18;

/// The same threshold for the i8 GEMM. The pool round-trip costs what it
/// costs whatever the element type, and the widening-dot tile retires a
/// multiply-add about twice as fast as the f32 panel does (128³: 38 µs
/// against 67 µs), so the i8 break-even sits at a larger product. Same
/// host, same protocol: 64³ (2¹⁸) ×1.04, 1024×27×12 (2¹⁸·³) ×0.89,
/// 128×64×64 (2¹⁹) ×0.80, 128³ (2²¹) ×0.83, 256×128×128 (2²²) ×0.66.
pub(crate) const PAR_MIN_WORK_I8: usize = 1 << 20;

/// Splits `m` output rows into shape-fixed panels and runs
/// `panel(i0, i1, out_rows)` for each on the worker pool. `out_rows` is the
/// `(i1 - i0) × n` sub-slice of `out` starting at row `i0`.
fn par_row_panels(
    out: &mut [i32],
    m: usize,
    n: usize,
    panel: &(dyn Fn(usize, usize, &mut [i32]) + Sync),
) {
    let chunks = m.div_ceil(ROWS_PER_CHUNK);
    let out_ptr = SendPtr::new(out);
    crate::runtime::parallel_for_chunks(chunks, &|c| {
        let i0 = c * ROWS_PER_CHUNK;
        let i1 = (i0 + ROWS_PER_CHUNK).min(m);
        // Safety: panels [i0, i1) are pairwise disjoint and in-bounds.
        let out_rows = unsafe { out_ptr.slice(i0 * n, (i1 - i0) * n) };
        panel(i0, i1, out_rows);
    });
}

/// Whether a product of this shape is worth dispatching on the pool, given
/// its kernel's `min_work` ([`PAR_MIN_WORK_F32`] / [`PAR_MIN_WORK_I8`]).
fn worth_parallel(m: usize, k: usize, n: usize, min_work: usize) -> bool {
    m * k * n >= min_work && crate::runtime::threads() > 1
}

/// How an f32 product's output is cut into chunks for the pool — from the
/// shape and the register tile's width, never the thread count, like every
/// partition here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Split {
    /// One panel, on the calling thread.
    Serial,
    /// Panels of [`ROWS_PER_CHUNK`] rows, all columns each.
    Rows,
    /// All rows, this many columns a chunk: a product with no second row
    /// panel — every weight gradient `Aᵀ × B` of a convolution has as many
    /// rows as the layer has filters — still has independent column
    /// panels. The width is a multiple of the widest tile that cuts the
    /// product in two at least: the full tile, or `NR` for a product no
    /// wider than one 32-column tile (the 27 columns of a 3-channel
    /// convolution's gradient).
    Columns(usize),
}

impl Split {
    /// The cut for an `m × k × n` product whose full column panels are
    /// `tile` wide ([`tile_cols`]).
    fn of(m: usize, k: usize, n: usize, tile: usize) -> Split {
        let grain = if n > tile { tile } else { NR };
        if !worth_parallel(m, k, n, PAR_MIN_WORK_F32) {
            Split::Serial
        } else if m > ROWS_PER_CHUNK {
            Split::Rows
        } else if n > grain {
            Split::Columns(n.div_ceil(grain).div_ceil(MAX_COLUMN_CHUNKS) * grain)
        } else {
            Split::Serial
        }
    }
}

/// Most chunks a column split makes: enough that two to four lanes claiming
/// them one at a time end within an eighth of each other, few enough that
/// the claims (one shared counter) stay small beside a chunk's work. A wide
/// product with a short `k` is where one `NR` panel per chunk loses. `Aᵀ × B`
/// on two threads, µs at a cap of 2 / 4 / 8 / none (medians over nine
/// interleaved rounds of each round's lower quartile): 32×64×1024 (64
/// panels) 55 / 56 / 65 / 95, 10×64×512 (32 panels) 11.2 / 11.5 / 12.0 /
/// 15.0; with a long `k` the cut makes no difference one can measure —
/// 12×1024×300 (19 panels) 110 / 106 / 109 / 111, 23×1024×207 166 / 186 /
/// 166 / 168, 12×4096×108 (7 panels, the cap not reached past 4) 228 / 212 /
/// 231 / 246. Re-measured on the AVX-512 panel's 32-column chunks, best of
/// two runs at a cap of 4 / 8 / 16 / 64: 32×64×1024 75 / 71 / 81 / 83,
/// 10×64×512 15.4 / 11.1 / 18.0 / 17.1, 12×1024×300 146 / 129 / 137 / 126,
/// 23×1024×207 202 / 165 / 240 / 206, 28×640×126 100 / 90 / 85 / 91 — 8
/// still.
const MAX_COLUMN_CHUNKS: usize = 8;

/// The micro-kernels' accumulate step: `acc[c] += av * brow[c]` over the
/// tile's `T` lanes — one multiply and one add per lane, in that order.
#[inline(always)]
fn axpy<const T: usize>(acc: &mut [f32; T], av: f32, brow: &[f32]) {
    for (c, &bv) in acc.iter_mut().zip(brow.iter()) {
        *c += av * bv;
    }
}

/// The left operand of a product as the panel kernel reads it: element
/// `(i, p)` is `data[i * row_stride + p * p_stride]`. `A` itself is
/// `(k, 1)`; the `Aᵀ` of [`matmul_at_b_slices`] is `(1, m)` over the
/// untransposed storage, so one kernel serves both.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f32],
    row_stride: usize,
    p_stride: usize,
}

#[cfg(target_arch = "x86_64")]
impl Lhs<'_> {
    /// Whether `data` holds every element `(i, p)` with `i < rows`, `p < k`.
    fn covers(&self, rows: usize, k: usize) -> bool {
        let last = |i: usize, p: usize| {
            let at = i.checked_mul(self.row_stride)?;
            at.checked_add(p.checked_mul(self.p_stride)?)
        };
        rows == 0 || k == 0 || last(rows - 1, k - 1).is_some_and(|at| at < self.data.len())
    }
}

/// The cells `rows × cols` of a product's row-major `m × n` output: what
/// one panel of the product computes, and the only cells it can write.
struct Panel<'a> {
    out: &'a SendPtr<f32>,
    n: usize,
    rows: Range<usize>,
    cols: Range<usize>,
}

impl<'a> Panel<'a> {
    /// # Safety
    /// No other live panel of the matrix behind `out` may share a cell with
    /// this one.
    unsafe fn new(
        out: &'a SendPtr<f32>,
        n: usize,
        rows: Range<usize>,
        cols: Range<usize>,
    ) -> Panel<'a> {
        // whole `NR` panels, short only at the matrix's right edge: that is
        // where `pad_tail_columns` took the tail panel from
        assert!(
            cols.start.is_multiple_of(NR)
                && (cols.end.is_multiple_of(NR) || cols.end == n)
                && cols.end <= n,
            "panel columns {cols:?} of {n}"
        );
        Panel { out, n, rows, cols }
    }

    /// Cells `j..j + w` of row `i`.
    #[inline(always)]
    fn lanes(&mut self, i: usize, j: usize, w: usize) -> &mut [f32] {
        assert!(self.rows.contains(&i) && self.cols.start <= j && j + w <= self.cols.end);
        // SAFETY: inside this panel's rows and columns (just checked), so in
        // nobody else's cells (`Panel::new`), and the `&mut self` keeps this
        // panel from handing the same cells out twice. `slice` checks that
        // they are inside the matrix.
        unsafe { self.out.slice(i * self.n + j, w) }
    }
}

/// The right operand `B: (k, n)` of a product, row-major, with its
/// [`pad_tail_columns`] panel: built once per call, on the calling thread,
/// and read by every panel of the product — also by the panels of a pass
/// that computes its rows a few at a time ([`with_rhs`], [`with_rhs_t`]).
pub(crate) struct Rhs<'a> {
    b: &'a [f32],
    tail: &'a [f32],
    k: usize,
    n: usize,
}

impl Rhs<'_> {
    /// `C = lhs × B` into the `m × n` `out`, by panels — on the pool when
    /// [`Split::of`] the shape says so.
    fn product(&self, isa: Isa, lhs: Lhs, out: &mut [f32], m: usize) {
        let (k, n) = (self.k, self.n);
        let out = SendPtr::new(out);
        let panel = |rows: Range<usize>, cols: Range<usize>| {
            // SAFETY: `out` is the whole `m × n` output, and each arm below
            // cuts `0..m × 0..n` into panels that share no cell.
            let cells = unsafe { Panel::new(&out, n, rows, cols) };
            gemm_panel(isa, lhs, self.b, self.tail, cells, k);
        };
        match Split::of(m, k, n, tile_cols(isa)) {
            Split::Serial => panel(0..m, 0..n),
            Split::Rows => {
                crate::runtime::parallel_for_chunks(m.div_ceil(ROWS_PER_CHUNK), &|c| {
                    let i0 = c * ROWS_PER_CHUNK;
                    panel(i0..(i0 + ROWS_PER_CHUNK).min(m), 0..n);
                });
            }
            Split::Columns(width) => {
                crate::runtime::parallel_for_chunks(n.div_ceil(width), &|c| {
                    let j0 = c * width;
                    panel(0..m, j0..(j0 + width).min(n));
                });
            }
        }
    }

    /// `out = a × B` for the `m` rows `a: (m, k)`, `out: (m, n)`, serially on
    /// the calling lane: one row panel of a pass that cuts its rows itself.
    /// Each element is the ascending-`p` sum it is in the whole product.
    ///
    /// # Panics
    /// Panics if the slice lengths do not match `B`'s dimensions.
    pub(crate) fn rows(&self, isa: Isa, a: &[f32], out: &mut [f32]) {
        let m = out.len() / self.n.max(1);
        assert_eq!(out.len(), m * self.n, "Rhs::rows: out length");
        assert_eq!(a.len(), m * self.k, "Rhs::rows: a length");
        let out = SendPtr::new(out);
        // SAFETY: the one panel of the whole `m × n` output.
        let cells = unsafe { Panel::new(&out, self.n, 0..m, 0..self.n) };
        gemm_panel(isa, row_major(a, self.k), self.b, self.tail, cells, self.k);
    }
}

/// Runs `f` with `b: (k, n)`, row-major, as a product's right operand; its
/// tail columns are padded into this thread's scratch for the duration.
/// `f` and the chunks it dispatches must not start another product on this
/// thread, whose scratch is borrowed; a submitter waiting on the pool runs
/// only its own task's chunks, so that holds for the panels of `f`.
pub(crate) fn with_rhs<R>(b: &[f32], k: usize, n: usize, f: impl FnOnce(&Rhs) -> R) -> R {
    assert_eq!(b.len(), k * n, "with_rhs: b length");
    PADDED_TAIL.with(|tail| {
        let mut tail = tail.borrow_mut();
        pad_tail_columns(b, &mut tail, k, n);
        f(&Rhs {
            b,
            tail: &tail,
            k,
            n,
        })
    })
}

/// [`with_rhs`] for the `B` of `A × Bᵀ`, `b: (n, k)`: transposed once into
/// this thread's scratch, so no panel packs anything.
pub(crate) fn with_rhs_t<R>(b: &[f32], n: usize, k: usize, f: impl FnOnce(&Rhs) -> R) -> R {
    assert_eq!(b.len(), n * k, "with_rhs_t: b length");
    PACKED_BT.with(|bt| {
        let mut bt = bt.borrow_mut();
        bt.resize(k * n, 0.0);
        transpose_blocks(b, &mut bt, n, k);
        with_rhs(&bt, k, n, f)
    })
}

/// Copies the last `n % NR` columns of `b: (k, n)` into `tail` as a
/// `k × NR` panel, the missing lanes zero. The tail columns then run
/// through the same register tile as every full column panel — each of
/// their elements still the sum over ascending `p` — and the padded lanes'
/// results are dropped. Empty when `n` is a multiple of `NR`.
fn pad_tail_columns(b: &[f32], tail: &mut Vec<f32>, k: usize, n: usize) {
    let w = n % NR;
    tail.resize(if w == 0 { 0 } else { k * NR }, 0.0);
    for (trow, brow) in tail.chunks_exact_mut(NR).zip(b.chunks_exact(n.max(1))) {
        trow[..w].copy_from_slice(&brow[n - w..]);
        trow[w..].fill(0.0);
    }
}

isa_kernel! {
    /// Sequential kernel over the rows and columns of `cells` (columns from
    /// a multiple of `NR` on): the single-threaded sweep, reused verbatim by
    /// every parallel panel. `tail` is `b`'s [`pad_tail_columns`] panel. The
    /// portable and AVX2 levels autovectorize [`gemm_panel_body`]'s `MR × NR`
    /// tile; AVX-512 runs the explicit tiles of [`gemm_panel_avx512`], whose
    /// full column panel is `NR_WIDE` wide ([`tile_cols`]).
    fn gemm_panel(lhs: Lhs, b: &[f32], tail: &[f32], cells: Panel, k: usize)
        = gemm_panel_body, avx512: gemm_panel_avx512;
}

/// Full `NR`-column panels, then the padded tail of fewer than `NR`
/// columns on the same tile.
#[inline(always)]
fn gemm_panel_body(lhs: Lhs, b: &[f32], tail: &[f32], mut cells: Panel, k: usize) {
    let (n, end) = (cells.n, cells.cols.end);
    let mut j = cells.cols.start;
    while j + NR <= end {
        column_panel(lhs, b, n, j, &mut cells, k, j, NR);
        j += NR;
    }
    if j < end {
        column_panel(lhs, tail, NR, 0, &mut cells, k, j, end - j);
    }
}

/// Output columns `j..j + w` (`w ≤ NR`) for the rows of `cells`: `MR × NR`
/// register tiles, then single rows. The tile reads row `p` of the `B`
/// panel at `b[p * b_stride + b_off..][..NR]` and keeps its first `w` lanes.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn column_panel(
    lhs: Lhs,
    b: &[f32],
    b_stride: usize,
    b_off: usize,
    cells: &mut Panel,
    k: usize,
    j: usize,
    w: usize,
) {
    let a = lhs.data;
    let (mut i, m) = (cells.rows.start, cells.rows.end);
    while i + MR <= m {
        let mut acc = [[0.0f32; NR]; MR];
        for p in 0..k {
            let brow = &b[p * b_stride + b_off..p * b_stride + b_off + NR];
            for (mi, accrow) in acc.iter_mut().enumerate() {
                let av = a[(i + mi) * lhs.row_stride + p * lhs.p_stride];
                axpy(accrow, av, brow);
            }
        }
        for (mi, accrow) in acc.iter().enumerate() {
            store_lanes(cells.lanes(i + mi, j, w), *accrow);
        }
        i += MR;
    }
    // Row tail: fewer than MR rows left.
    while i < m {
        let mut acc = [0.0f32; NR];
        for p in 0..k {
            let brow = &b[p * b_stride + b_off..p * b_stride + b_off + NR];
            axpy(&mut acc, a[i * lhs.row_stride + p * lhs.p_stride], brow);
        }
        store_lanes(cells.lanes(i, j, w), acc);
        i += 1;
    }
}

/// Writes the first `out.len()` lanes of a finished accumulator row. The
/// row comes by value: a `copy_from_slice` of run-time length straight out
/// of the accumulator takes its address, and a tile whose address is taken
/// lives in memory for the whole `p` loop instead of in registers — which
/// is what the last `n % NR` columns cost while they did that (`A × B`
/// 4096×108×12 ran 466 µs against 299 µs for ×16; 320 µs this way), and no
/// convolution of the width-scaled nets has a multiple of 16 filters.
#[inline(always)]
fn store_lanes(out: &mut [f32], lanes: [f32; NR]) {
    out.copy_from_slice(&lanes[..out.len()]);
}

/// Most rows of the AVX-512 tile over a full `NR_WIDE`-column panel of
/// `A × B` and `A × Bᵀ`: two vectors a row, so 16 accumulators, and one
/// `A` row pointer a row beside them.
const MR_WIDE: usize = 8;
/// The same for `Aᵀ × B`, whose left operand has row stride 1: a tile's
/// `A` elements at one `p` are adjacent, read through one pointer, so 24
/// accumulators fit. Its rows are the layer's filters (12, 23, 46, 92 on
/// ResNet-18's stages), one or a few tiles each.
const MR_WIDE_AT: usize = 12;
/// Most rows of the AVX-512 tile over an `NR`-column panel — the one read
/// from `B` and the padded tail: one vector a row, so it stands taller
/// than [`MR_WIDE`] for as many accumulators.
const MR_NARROW: usize = 12;

/// The AVX-512 panel: full `NR_WIDE`-column panels, then at most one `NR`
/// panel read straight from `b`, then the padded tail of fewer than `NR`
/// columns, so no tail pads more than 15 lanes. Each column panel runs
/// [`column_panel_avx512`]'s tiles down its rows. Every bound of `A`, `b`
/// and `tail` is checked here, once per panel.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
fn gemm_panel_avx512(lhs: Lhs, b: &[f32], tail: &[f32], mut cells: Panel, k: usize) {
    let rows = cells.rows.end;
    assert!(
        lhs.covers(rows, k),
        "gemm: A lacks rows ..{rows} over k = {k}"
    );
    // `Panel::new` holds the columns to `..n`, so every row `p < k` of
    // every column panel lies inside `b`, and of the padded one in `tail`
    assert!(
        b.len() / cells.n.max(1) >= k,
        "gemm: b lacks {k} rows of {}",
        cells.n
    );
    let padded = !cells.cols.len().is_multiple_of(NR);
    assert!(
        !padded || tail.len() / NR >= k,
        "gemm: tail lacks {k} rows of {NR}"
    );
    // SAFETY: the entry point enables AVX-512F, and the operands hold
    // every element the tiles read (checked above).
    unsafe {
        if lhs.row_stride == 1 {
            column_panels_avx512::<true, MR_WIDE_AT>(lhs, b, tail, &mut cells, k)
        } else {
            column_panels_avx512::<false, MR_WIDE>(lhs, b, tail, &mut cells, k)
        }
    }
}

/// # Safety
/// As [`column_panel_avx512`], for every panel of `cells`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn column_panels_avx512<const UNIT: bool, const RW: usize>(
    lhs: Lhs,
    b: &[f32],
    tail: &[f32],
    cells: &mut Panel,
    k: usize,
) {
    let (n, end) = (cells.n, cells.cols.end);
    let mut j = cells.cols.start;
    while j + NR_WIDE <= end {
        column_panel_avx512::<2, RW, UNIT>(lhs, b.as_ptr().add(j), n, cells, k, j, NR_WIDE);
        j += NR_WIDE;
    }
    if j + NR <= end {
        column_panel_avx512::<1, MR_NARROW, UNIT>(lhs, b.as_ptr().add(j), n, cells, k, j, NR);
        j += NR;
    }
    if j < end {
        column_panel_avx512::<1, MR_NARROW, UNIT>(lhs, tail.as_ptr(), NR, cells, k, j, end - j);
    }
}

/// Output columns `j..j + w` (`w ≤ 16·V`) of `cells`' rows from the `B`
/// panel at `b`, row `p` at `b + p · bs`: the fewest tiles of at most `R`
/// rows, their heights as equal as they come (14 rows on 8-row tiles are
/// 7 + 7, not 8 + 6), so no tile is left with too few accumulators to hide
/// an add's latency.
///
/// # Safety
/// The host runs AVX-512F, `lhs` covers `cells`' rows over `k`, and `b`
/// holds `k` rows of `16·V` lanes `bs` apart.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn column_panel_avx512<const V: usize, const R: usize, const UNIT: bool>(
    lhs: Lhs,
    b: *const f32,
    bs: usize,
    cells: &mut Panel,
    k: usize,
    j: usize,
    w: usize,
) {
    /// `tile_avx512::<h, V>` for a run-time `h` in the listed heights.
    macro_rules! by_height {
        ($h:expr, $i:expr; $($r:literal)*) => {
            match $h {
                $($r => tile_avx512::<$r, V, UNIT>(lhs, b, bs, cells, k, $i, j, w),)*
                _ => unreachable!(),
            }
        };
    }
    let (mut i, m) = (cells.rows.start, cells.rows.end);
    for left in (1..=cells.rows.len().div_ceil(R)).rev() {
        // at most `R` (so the arms past it fold away), and within one row
        // of every other tile of the panel
        let h = (m - i).div_ceil(left).min(R);
        by_height!(h, i; 1 2 3 4 5 6 7 8 9 10 11 12);
        i += h;
    }
}

/// One `H × 16·V` register tile at row `i`, column `j` of `cells`, of which
/// the first `w` lanes are stored: `H · V` accumulators, each lane the
/// ascending-`p` sum of `A[i][p] · B[p][j]` by a multiply, then an add.
/// Row `p` of `B` is `V` loads at `b + p · bs`; each `A` element is one
/// broadcast, read at `(i + r) · row_stride + p · p_stride`.
///
/// # Safety
/// As [`column_panel_avx512`], for rows `i..i + H` of `cells`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_avx512<const H: usize, const V: usize, const UNIT: bool>(
    lhs: Lhs,
    b: *const f32,
    bs: usize,
    cells: &mut Panel,
    k: usize,
    i: usize,
    j: usize,
    w: usize,
) {
    use std::arch::x86_64::*;
    let rs = if UNIT { 1 } else { lhs.row_stride };
    let a: [*const f32; H] = std::array::from_fn(|r| lhs.data.as_ptr().wrapping_add((i + r) * rs));
    let mut acc = [[_mm512_setzero_ps(); V]; H];
    for p in 0..k {
        // SAFETY: row `p < k` of the `B` panel and element `(i + r, p)` of
        // `A`, both inside their operand (the caller's contract).
        let bv: [__m512; V] =
            std::array::from_fn(|v| unsafe { _mm512_loadu_ps(b.add(p * bs + 16 * v)) });
        for (acc, &a) in acc.iter_mut().zip(&a) {
            let av = _mm512_set1_ps(unsafe { *a.add(p * lhs.p_stride) });
            for (acc, &bv) in acc.iter_mut().zip(&bv) {
                *acc = _mm512_add_ps(*acc, _mm512_mul_ps(av, bv));
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        let out = cells.lanes(i + r, j, w);
        for (v, &acc) in acc.iter().enumerate() {
            let lanes = w.saturating_sub(16 * v).min(16);
            // SAFETY: the store writes only the first `lanes` of the 16
            // floats from `16·v`, all inside `out`'s `w`.
            unsafe {
                _mm512_mask_storeu_ps(
                    out.as_mut_ptr().wrapping_add(16 * v),
                    ((1u32 << lanes) - 1) as u16,
                    acc,
                )
            };
        }
    }
}

// ---------------------------------------------------------------------------
// C = A × B
// ---------------------------------------------------------------------------

/// `C = A × B` for row-major matrices `A: (m, k)`, `B: (k, n)`, written
/// into `out`, reusing its storage (resized as needed).
///
/// # Panics
/// Panics if the operands are not rank-2 or the inner dimensions disagree.
///
/// ```
/// use socflow_tensor::{Tensor, linalg};
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
/// let mut c = Tensor::default();
/// linalg::matmul_into(&a, &i, &mut c);
/// assert_eq!(c, a);
/// ```
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, k) = a.shape().as_matrix();
    let (k2, n) = b.shape().as_matrix();
    assert_eq!(k, k2, "matmul inner dims: ({m},{k}) x ({k2},{n})");
    out.resize([m, n]);
    matmul_slices(a.data(), b.data(), out.data_mut(), m, k, n);
}

/// `C = A × B` on raw row-major slices: `a: (m, k)`, `b: (k, n)`,
/// `out: (m, n)`. `out` is fully overwritten.
///
/// # Panics
/// Panics (in debug builds via slice indexing) if the slice lengths do not
/// match the given dimensions.
pub fn matmul_slices(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_slices: a length");
    assert_eq!(b.len(), k * n, "matmul_slices: b length");
    assert_eq!(out.len(), m * n, "matmul_slices: out length");
    let _t = Timer::start(KernelOp::Matmul);
    with_rhs(b, k, n, |rhs| {
        rhs.product(Isa::active(), row_major(a, k), out, m)
    });
}

/// `a: (m, k)` row-major as a left operand.
fn row_major(a: &[f32], k: usize) -> Lhs<'_> {
    Lhs {
        data: a,
        row_stride: k,
        p_stride: 1,
    }
}

// ---------------------------------------------------------------------------
// C = Aᵀ × B
// ---------------------------------------------------------------------------

/// `C = Aᵀ × B` for `A: (k, m)`, `B: (k, n)` without materializing `Aᵀ`,
/// written into `out`, reusing its storage.
///
/// # Panics
/// Panics if the operands are not rank-2 or the shared dimension disagrees.
pub fn matmul_at_b_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (k, m) = a.shape().as_matrix();
    let (k2, n) = b.shape().as_matrix();
    assert_eq!(k, k2, "matmul_at_b shared dims: ({k},{m})ᵀ x ({k2},{n})");
    out.resize([m, n]);
    matmul_at_b_slices(a.data(), b.data(), out.data_mut(), m, k, n);
}

/// `C = Aᵀ × B` on raw row-major slices: `a: (k, m)`, `b: (k, n)`,
/// `out: (m, n)`. `out` is fully overwritten.
///
/// Row `i` of `Aᵀ` is the stride-`m` column `i` of `A`, and the `MR` values
/// a tile needs per `p` are contiguous in `A`'s row `p`; nothing is
/// transposed.
///
/// # Panics
/// Panics if the slice lengths do not match the given dimensions.
pub fn matmul_at_b_slices(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "matmul_at_b_slices: a length");
    assert_eq!(b.len(), k * n, "matmul_at_b_slices: b length");
    assert_eq!(out.len(), m * n, "matmul_at_b_slices: out length");
    let _t = Timer::start(KernelOp::MatmulAtB);
    let at = Lhs {
        data: a,
        row_stride: 1,
        p_stride: m,
    };
    with_rhs(b, k, n, |rhs| rhs.product(Isa::active(), at, out, m));
}

// ---------------------------------------------------------------------------
// C = A × Bᵀ
// ---------------------------------------------------------------------------

/// `C = A × Bᵀ` for `A: (m, k)`, `B: (n, k)`, written into `out`,
/// reusing its storage; `Bᵀ` only ever exists in reused scratch (see
/// [`matmul_a_bt_slices`]).
///
/// # Panics
/// Panics if the operands are not rank-2 or the shared dimension disagrees.
pub fn matmul_a_bt_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, k) = a.shape().as_matrix();
    let (n, k2) = b.shape().as_matrix();
    assert_eq!(k, k2, "matmul_a_bt shared dims: ({m},{k}) x ({n},{k2})ᵀ");
    out.resize([m, n]);
    matmul_a_bt_slices(a.data(), b.data(), out.data_mut(), m, k, n);
}

/// `C = A × Bᵀ` on raw row-major slices: `a: (m, k)`, `b: (n, k)`,
/// `out: (m, n)`. `out` is fully overwritten.
///
/// Transposes `B` once per call into thread-local scratch (`k·n` floats on
/// the calling thread) and runs the [`matmul_slices`] panels over the
/// shared result, so no panel packs anything. Each element is still the
/// sequential sum over ascending `p` of `a[i][p] * b[j][p]`, bit-identical
/// to a scalar dot product.
///
/// # Panics
/// Panics if the slice lengths do not match the given dimensions.
pub fn matmul_a_bt_slices(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_a_bt_slices: a length");
    assert_eq!(b.len(), n * k, "matmul_a_bt_slices: b length");
    assert_eq!(out.len(), m * n, "matmul_a_bt_slices: out length");
    let _t = Timer::start(KernelOp::MatmulABt);
    with_rhs_t(b, n, k, |rhs| {
        rhs.product(Isa::active(), row_major(a, k), out, m)
    });
}

// ---------------------------------------------------------------------------
// Integer GEMM: C(i32) = A(i8) × B(i8)ᵀ
// ---------------------------------------------------------------------------

/// Largest shared dimension of the integer GEMM: `k · 128² < 2³¹`, so no
/// sum of `k` products of `i8` pairs — in any order, over any subset, the
/// `-128` the quantizer never emits included — leaves `i32`.
const I8_GEMM_MAX_K: usize = (1 << 17) - 1;

/// `C = A × Bᵀ` over `i8` operands with exact `i32` accumulation:
/// `a: (m, k)` and `b: (n, k)` row-major — every output element is one
/// contiguous length-`k` dot product — writing `out: (m, n)`, fully
/// overwritten.
///
/// This is the NPU arm's compute kernel: integer accumulation is exact (no
/// rounding at any summation order), so the portable, AVX2 and row-parallel
/// paths are bitwise-identical by construction. Per-tensor scales are *not*
/// applied here; callers apply `sa·sb` once at the i32→f32 epilogue
/// ([`crate::quant::scale_i32_bias_into`]).
///
/// # Panics
/// Panics if the slice lengths do not match the given dimensions, or if
/// `k ≥ 2¹⁷` (the accumulator bound; far above any layer in the model zoo).
pub fn matmul_i8_a_bt_slices(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    assert_i8_operands(a, b, out, m, k, n);
    let _t = Timer::start(KernelOp::MatmulI8);
    let isa = Isa::active();
    if m > ROWS_PER_CHUNK && worth_parallel(m, k, n, PAR_MIN_WORK_I8) {
        par_row_panels(out, m, n, &|i0, i1, out_rows| {
            matmul_i8_panel(isa, &a[i0 * k..i1 * k], b, out_rows, i1 - i0, k, n);
        });
    } else {
        matmul_i8_panel(isa, a, b, out, m, k, n);
    }
}

/// [`matmul_i8_a_bt_slices`] for the `out.len() / n` rows of `a`, serially
/// on the calling lane and untimed: one row panel of a pass that cuts its
/// rows, and times them, itself.
///
/// # Panics
/// As [`matmul_i8_a_bt_slices`].
pub(crate) fn matmul_i8_a_bt_rows(
    isa: Isa,
    a: &[i8],
    b: &[i8],
    out: &mut [i32],
    k: usize,
    n: usize,
) {
    let m = out.len() / n.max(1);
    assert_i8_operands(a, b, out, m, k, n);
    matmul_i8_panel(isa, a, b, out, m, k, n);
}

/// The operand checks of the i8 GEMM: lengths, and the accumulator bound.
fn assert_i8_operands(a: &[i8], b: &[i8], out: &[i32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_i8: a length");
    assert_eq!(b.len(), n * k, "matmul_i8: b length");
    assert_eq!(out.len(), m * n, "matmul_i8: out length");
    assert!(
        k <= I8_GEMM_MAX_K,
        "matmul_i8: k = {k} of ({m},{k}) x ({k},{n}) can overflow the i32 accumulator (k must \
         stay below 2^17)"
    );
}

/// Sequential i8 kernel over an `m`-row slice of `A`/`out`. Written twice
/// rather than instantiated twice, as the `A × B` kernel is: autovectorizing
/// the widening dot product stops well short of the f32 kernel's AVX2 time.
fn matmul_i8_panel(isa: Isa, a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if isa.has_avx2() {
        // SAFETY: an `Isa` reports AVX2 only after
        // `is_x86_feature_detected!("avx2")` held on this host.
        return unsafe { matmul_i8_panel_avx2(a, b, out, m, k, n) };
    }
    let _ = isa;
    matmul_i8_panel_portable(a, b, out, m, k, n);
}

/// The widened-`i32` reference: one contiguous dot product per element.
/// Columns are walked in blocks of four so each `A` row stays register/L1
/// resident across several `B` rows.
fn matmul_i8_panel_portable(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    fn dot(a: &[i8], b: &[i8]) -> i32 {
        let mut acc = 0i32;
        for (&x, &y) in a.iter().zip(b.iter()) {
            acc += x as i32 * y as i32;
        }
        acc
    }
    const JB: usize = 4;
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        let mut j = 0;
        while j + JB <= n {
            for jj in j..j + JB {
                orow[jj] = dot(arow, &b[jj * k..(jj + 1) * k]);
            }
            j += JB;
        }
        while j < n {
            orow[j] = dot(arow, &b[j * k..(j + 1) * k]);
            j += 1;
        }
    }
}

/// Register-blocked widening-dot micro-kernel: tiles of 2 `A` rows × 4 `B`
/// rows (eight `i32×8` accumulators); an odd last row and the last `n % 4`
/// columns run the narrower instantiations of the same tile. A `k` below
/// one vector has nothing to block and runs [`i8_short_k_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn matmul_i8_panel_avx2(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    if k < 16 {
        return i8_short_k_avx2(a, b, out, m, k, n);
    }
    let mut i = 0;
    while i + 2 <= m {
        i8_row_block_avx2::<2>(a, b, out, i, k, n);
        i += 2;
    }
    if i < m {
        i8_row_block_avx2::<1>(a, b, out, i, k, n);
    }
}

/// The i8 panel for `k < 16` — a one-channel 3 × 3 convolution's `k = 9` —
/// with eight rows of `A` in the lanes instead of `k`. Each block of eight
/// rows is transposed once into `i16` lane pairs, lanes `2r` and `2r + 1`
/// of vector `q` holding `A[i + r][2q]` and `A[i + r][2q + 1]` (zero past
/// `k` and past `m`); then every column `j` is `⌈k / 2⌉` `madd_epi16`s
/// against the broadcast pair `B[j][2q], B[j][2q + 1]`, eight finished
/// sums with no horizontal reduction. Exact for the reason
/// [`dot_tile_avx2`] is.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn i8_short_k_avx2(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    use std::arch::x86_64::*;
    const ROWS: usize = 8;
    /// One vector per pair of `p`: `⌈15 / 2⌉` for the longest `k` here.
    const PAIRS: usize = 8;
    assert!(k < 16);
    let pairs = k.div_ceil(2);
    for i in (0..m).step_by(ROWS) {
        let rows = (m - i).min(ROWS);
        let mut block = [[0i16; 2 * ROWS]; PAIRS];
        for r in 0..rows {
            for (p, &v) in a[(i + r) * k..(i + r + 1) * k].iter().enumerate() {
                block[p / 2][2 * r + p % 2] = v as i16;
            }
        }
        // SAFETY: each row of `block` is sixteen `i16`s, one vector.
        let av = block.map(|v| unsafe { _mm256_loadu_si256(v.as_ptr().cast()) });
        for j in 0..n {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = _mm256_setzero_si256();
            for (q, &aq) in av[..pairs].iter().enumerate() {
                let lo = brow[2 * q] as i16 as u16 as u32;
                let hi = brow.get(2 * q + 1).map_or(0, |&v| v as i16 as u16 as u32);
                let bq = _mm256_set1_epi32((lo | hi << 16) as i32);
                acc = _mm256_add_epi32(acc, _mm256_madd_epi16(aq, bq));
            }
            let mut sums = [0i32; ROWS];
            // SAFETY: `sums` is eight contiguous `i32`s, one vector.
            unsafe { _mm256_storeu_si256(sums.as_mut_ptr().cast(), acc) };
            for (r, &sum) in sums[..rows].iter().enumerate() {
                out[(i + r) * n + j] = sum;
            }
        }
    }
}

/// Output rows `i..i + R` of the i8 panel: four columns per tile, then
/// single columns. Requires `k >= 16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn i8_row_block_avx2<const R: usize>(
    a: &[i8],
    b: &[i8],
    out: &mut [i32],
    i: usize,
    k: usize,
    n: usize,
) {
    let ar: [*const i8; R] = std::array::from_fn(|r| a[(i + r) * k..(i + r + 1) * k].as_ptr());
    let brow = |j: usize| b[j * k..(j + 1) * k].as_ptr();
    // SAFETY (both `dot_tile_avx2` calls): each pointer is the start of a
    // `k`-byte row slice taken just above, and the caller checked `k >= 16`.
    let mut j = 0;
    while j + 4 <= n {
        let br = [brow(j), brow(j + 1), brow(j + 2), brow(j + 3)];
        let t = unsafe { dot_tile_avx2(ar, br, k) };
        for (r, sums) in t.iter().enumerate() {
            out[(i + r) * n + j..(i + r) * n + j + 4].copy_from_slice(sums);
        }
        j += 4;
    }
    while j < n {
        let t = unsafe { dot_tile_avx2(ar, [brow(j)], k) };
        for (r, sums) in t.iter().enumerate() {
            out[(i + r) * n + j] = sums[0];
        }
        j += 1;
    }
}

/// `R × C` dot products of `k`-byte `i8` rows, exact in `i32`. Each step
/// sign-extends 16 bytes of every row to `i16` lanes; `madd_epi16`
/// multiplies lane pairs and adds each pair into an `i32` lane. It
/// saturates only on `2 · (-32768)²`, and sign-extended `i8` lanes give at
/// most `2 · 128² = 2¹⁵` per pair, so it is exact here. The last
/// `k % 16` bytes are taken by one more step over the *final* 16 bytes of
/// the rows, with the bytes already counted zeroed on the `A` side.
///
/// # Safety
/// Every pointer must be valid for reads of `k` bytes, and `k >= 16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn dot_tile_avx2<const R: usize, const C: usize>(
    a: [*const i8; R],
    b: [*const i8; C],
    k: usize,
) -> [[i32; C]; R] {
    use std::arch::x86_64::*;
    /// `TAIL_MASK[rem..rem + 16]` keeps the last `rem` of 16 bytes.
    static TAIL_MASK: [u8; 32] = {
        let mut t = [0u8; 32];
        let mut i = 16;
        while i < 32 {
            t[i] = 0xFF;
            i += 1;
        }
        t
    };
    let mut acc = [[_mm256_setzero_si256(); C]; R];
    let mut step = |p: usize, keep: __m128i| {
        // SAFETY: callers pass `p + 16 <= k`, inside every row.
        let av = a.map(|row| unsafe {
            _mm256_cvtepi8_epi16(_mm_and_si128(_mm_loadu_si128(row.add(p).cast()), keep))
        });
        for c in 0..C {
            let bv = unsafe { _mm256_cvtepi8_epi16(_mm_loadu_si128(b[c].add(p).cast())) };
            for r in 0..R {
                acc[r][c] = _mm256_add_epi32(acc[r][c], _mm256_madd_epi16(av[r], bv));
            }
        }
    };
    let all = _mm_set1_epi8(-1);
    let mut p = 0;
    while p + 16 <= k {
        step(p, all);
        p += 16;
    }
    let rem = k - p;
    if rem > 0 {
        // SAFETY: `rem < 16`, so the 16 bytes read end inside the table.
        let keep = unsafe { _mm_loadu_si128(TAIL_MASK.as_ptr().add(rem).cast()) };
        step(k - 16, keep);
    }
    let mut sums = [[0i32; C]; R];
    for (row, sums) in acc.iter().zip(sums.iter_mut()) {
        if C == 4 {
            // [Σ0 Σ1 Σ2 Σ3] of the four accumulators, per 128-bit half
            let v = _mm256_hadd_epi32(
                _mm256_hadd_epi32(row[0], row[1]),
                _mm256_hadd_epi32(row[2], row[3]),
            );
            let v = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
            // SAFETY: `sums` is `C == 4` contiguous `i32`s.
            unsafe { _mm_storeu_si128(sums.as_mut_ptr().cast(), v) };
        } else {
            for (&v, sum) in row.iter().zip(sums.iter_mut()) {
                let v = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
                let v = _mm_add_epi32(v, _mm_shuffle_epi32::<0b00_00_11_10>(v));
                let v = _mm_add_epi32(v, _mm_shuffle_epi32::<0b00_00_00_01>(v));
                *sum = _mm_cvtsi128_si32(v);
            }
        }
    }
    sums
}

// ---------------------------------------------------------------------------
// Integer GEMM: C(i32) = A(i8) × B(i8), B in a layer's (in, out) layout
// ---------------------------------------------------------------------------

thread_local! {
    /// The rows of `A` one block of the AVX2 [`matmul_i8_slices`] runs,
    /// sign-extended to `i16`, each an even number of lanes, so that a pair
    /// of them is one 32-bit broadcast; then `B`'s last `n % 16` columns,
    /// zero-padded to a `k × 16` panel. Same ownership rules as
    /// [`PACKED_BT`].
    static AB_SCRATCH: RefCell<(Vec<i16>, Vec<i8>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Rows of `A` one block of the AVX2 `A × B` kernel holds: eight `i32×8`
/// accumulators over 16 columns.
const AB_ROWS: usize = 4;

/// Columns of the AVX2 `A × B` kernel's block: two vectors of eight `i32`.
const AB_COLS: usize = 16;

/// `C = A × B` over `i8` operands with exact `i32` accumulation: `a: (m, k)`
/// and `b: (k, n)` row-major — `B` in the `(in, out)` layout a fully
/// connected layer keeps its weights in, so nothing is transposed — writing
/// `out: (m, n)`, fully overwritten. Exact in `i32` like
/// [`matmul_i8_a_bt_slices`] (the same bound on `k`), so the portable, AVX2
/// and row-parallel paths agree by construction.
///
/// # Panics
/// As [`matmul_i8_a_bt_slices`], with `b` of `k × n` elements.
pub fn matmul_i8_slices(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    assert_i8_operands(a, b, out, m, k, n);
    let _t = Timer::start(KernelOp::MatmulI8);
    let isa = Isa::active();
    if m > ROWS_PER_CHUNK && worth_parallel(m, k, n, PAR_MIN_WORK_I8) {
        par_row_panels(out, m, n, &|i0, i1, out_rows| {
            matmul_i8_ab_panel(isa, &a[i0 * k..i1 * k], b, out_rows, i1 - i0, k, n);
        });
    } else {
        matmul_i8_ab_panel(isa, a, b, out, m, k, n);
    }
}

/// Sequential `A × B` kernel over an `m`-row slice of `A`/`out`.
fn matmul_i8_ab_panel(isa: Isa, a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if isa.has_avx2() {
        return AB_SCRATCH.with(|scratch| {
            let (a16, tail) = &mut *scratch.borrow_mut();
            a16.resize(AB_ROWS * k.div_ceil(2) * 2, 0);
            tail.resize(k * AB_COLS, 0);
            // SAFETY: an `Isa` reports AVX2 only after
            // `is_x86_feature_detected!("avx2")` held on this host.
            unsafe { matmul_i8_ab_panel_avx2(a, b, out, (m, k, n), a16, tail) }
        });
    }
    let _ = isa;
    matmul_i8_ab_panel_portable(a, b, out, m, k, n);
}

/// The widened-`i32` reference: each output row accumulated over `p`, a
/// row of `B` at a time.
fn matmul_i8_ab_panel_portable(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    for (i, orow) in out.chunks_exact_mut(n.max(1)).enumerate().take(m) {
        orow.fill(0);
        for (&x, brow) in a[i * k..(i + 1) * k].iter().zip(b.chunks_exact(n.max(1))) {
            for (o, &y) in orow.iter_mut().zip(brow) {
                *o += i32::from(x) * i32::from(y);
            }
        }
    }
}

/// [`AB_ROWS`] rows of `A` at a time, each sign-extended once into `a16`
/// (its `i16` lane pairs; an odd `k`'s last pair has a stale lane, which
/// [`i8_ab_block_avx2`] multiplies by zero), and [`i8_ab_block_avx2`] over every 16 columns of `B` for them; the last
/// `n % 16` columns run the same block over their zero-padded copy in
/// `tail`, of which only the live columns are stored.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn matmul_i8_ab_panel_avx2(
    a: &[i8],
    b: &[i8],
    out: &mut [i32],
    (m, k, n): (usize, usize, usize),
    a16: &mut [i16],
    tail: &mut [i8],
) {
    let (kp, n16) = (k.div_ceil(2) * 2, n - n % AB_COLS);
    if n16 < n {
        for (pad, row) in tail.chunks_exact_mut(AB_COLS).zip(b.chunks_exact(n)) {
            pad.fill(0);
            pad[..n - n16].copy_from_slice(&row[n16..]);
        }
    }
    for i in (0..m).step_by(AB_ROWS) {
        let rows = (m - i).min(AB_ROWS);
        for (r, wide) in a16.chunks_exact_mut(kp.max(1)).take(rows).enumerate() {
            for (w, &v) in wide.iter_mut().zip(&a[(i + r) * k..(i + r + 1) * k]) {
                *w = i16::from(v);
            }
        }
        let out = &mut out[i * n..(i + rows) * n];
        for j in (0..n16).step_by(AB_COLS) {
            // SAFETY: `a16` holds `rows` rows of `kp` lanes; columns `j..j
            // + 16` of `B`'s `k` rows and of `out`'s `rows` rows exist.
            let block = unsafe { i8_ab_block_avx2(a16, kp, b.as_ptr().wrapping_add(j), n, k) };
            for (r, sums) in block.iter().take(rows).enumerate() {
                out[r * n + j..r * n + j + AB_COLS].copy_from_slice(sums);
            }
        }
        if n16 < n {
            // SAFETY: as above, on the `k × 16` padded copy.
            let block = unsafe { i8_ab_block_avx2(a16, kp, tail.as_ptr(), AB_COLS, k) };
            for (r, sums) in block.iter().take(rows).enumerate() {
                out[r * n + n16..(r + 1) * n].copy_from_slice(&sums[..n - n16]);
            }
        }
    }
}

/// [`AB_ROWS`] × 16 sums of `A × B` from the rows' `i16` pairs `a16` (`kp`
/// lanes a row; rows past the live ones hold stale pairs and yield sums
/// nobody stores) and 16 columns of `B` at `b`, rows `ldb` bytes apart. For
/// each pair of rows `p, p + 1` of `B` their 16 bytes are interleaved and
/// sign-extended into two vectors of `i16` lane pairs `(B[p][j], B[p +
/// 1][j])`; `madd_epi16` against the broadcast pair `(A[i][p], A[i][p +
/// 1])` adds both products into column `j`'s `i32` lane, so no sum needs a
/// horizontal reduction. An odd `k`'s last row of `B` pairs with a row of
/// zeros, so the lane past `k` in `a16` adds nothing. Exact for the reason
/// [`dot_tile_avx2`] is.
///
/// # Safety
/// `a16` must hold [`AB_ROWS`] rows of `kp = k` rounded up to even lanes,
/// and `b` must be valid for 16-byte reads at `p · ldb` for every `p < k`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn i8_ab_block_avx2(
    a16: &[i16],
    kp: usize,
    b: *const i8,
    ldb: usize,
    k: usize,
) -> [[i32; AB_COLS]; AB_ROWS] {
    use std::arch::x86_64::*;
    assert!(a16.len() >= AB_ROWS * kp && kp >= k);
    let mut acc = [[_mm256_setzero_si256(); 2]; AB_ROWS];
    for p in (0..k).step_by(2) {
        let b0 = _mm_loadu_si128(b.add(p * ldb).cast());
        let b1 = if p + 1 < k {
            _mm_loadu_si128(b.add((p + 1) * ldb).cast())
        } else {
            _mm_setzero_si128()
        };
        let lo = _mm256_cvtepi8_epi16(_mm_unpacklo_epi8(b0, b1));
        let hi = _mm256_cvtepi8_epi16(_mm_unpackhi_epi8(b0, b1));
        for (r, acc) in acc.iter_mut().enumerate() {
            // the pair `(A[r][p], A[r][p + 1])` in every 32-bit lane
            let pair = a16.as_ptr().add(r * kp + p).cast::<i32>().read_unaligned();
            let av = _mm256_set1_epi32(pair);
            acc[0] = _mm256_add_epi32(acc[0], _mm256_madd_epi16(lo, av));
            acc[1] = _mm256_add_epi32(acc[1], _mm256_madd_epi16(hi, av));
        }
    }
    let mut sums = [[0i32; AB_COLS]; AB_ROWS];
    for (sums, acc) in sums.iter_mut().zip(&acc) {
        _mm256_storeu_si256(sums.as_mut_ptr().cast(), acc[0]);
        _mm256_storeu_si256(sums.as_mut_ptr().add(8).cast(), acc[1]);
    }
    sums
}

// ---------------------------------------------------------------------------
// Transpose
// ---------------------------------------------------------------------------

/// Tile edge for the blocked transpose; 32 × 32 f32 = 4 KiB, well inside L1.
pub(crate) const TR: usize = 32;

/// Transpose of a rank-2 tensor.
///
/// # Panics
/// Panics if the operand is not rank-2.
pub fn transpose(a: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    transpose_into(a, &mut out);
    out
}

/// [`transpose`] writing into `out`, reusing its storage.
///
/// # Panics
/// Panics if the operand is not rank-2 or `out` aliases `a` (they are
/// distinct tensors by construction, so this cannot happen through safe code).
pub fn transpose_into(a: &Tensor, out: &mut Tensor) {
    let (m, n) = a.shape().as_matrix();
    out.resize([n, m]);
    transpose_slices(a.data(), out.data_mut(), m, n);
}

/// Blocked transpose on raw row-major slices: `a: (m, n)` → `out: (n, m)`.
///
/// # Panics
/// Panics if the slice lengths do not match the given dimensions.
pub fn transpose_slices(a: &[f32], out: &mut [f32], m: usize, n: usize) {
    assert_eq!(a.len(), m * n, "transpose_slices: a length");
    assert_eq!(out.len(), m * n, "transpose_slices: out length");
    let _t = Timer::start(KernelOp::Transpose);
    transpose_blocks(a, out, m, n);
}

/// The transpose itself, untimed ([`matmul_a_bt_slices`] runs it under its
/// own timer). `TR × TR` blocks keep both the source rows and destination
/// rows resident in L1 while the block is swapped; inside a block, `TQ × TQ`
/// sub-blocks are read and written as whole `TQ`-float rows, so only the
/// shuffle in between moves single elements.
fn transpose_blocks(a: &[f32], out: &mut [f32], m: usize, n: usize) {
    const TQ: usize = 8;
    for ib in (0..m).step_by(TR) {
        let i_end = (ib + TR).min(m);
        for jb in (0..n).step_by(TR) {
            let j_end = (jb + TR).min(n);
            let mut i = ib;
            while i + TQ <= i_end {
                let mut j = jb;
                while j + TQ <= j_end {
                    let mut blk = [[0.0f32; TQ]; TQ];
                    for (r, row) in blk.iter_mut().enumerate() {
                        row.copy_from_slice(&a[(i + r) * n + j..(i + r) * n + j + TQ]);
                    }
                    for c in 0..TQ {
                        let col: [f32; TQ] = std::array::from_fn(|r| blk[r][c]);
                        out[(j + c) * m + i..(j + c) * m + i + TQ].copy_from_slice(&col);
                    }
                    j += TQ;
                }
                for r in i..i + TQ {
                    for c in j..j_end {
                        out[c * m + r] = a[r * n + c];
                    }
                }
                i += TQ;
            }
            for r in i..i_end {
                for c in jb..j_end {
                    out[c * m + r] = a[r * n + c];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{avx2_or_skip, wide_or_skip};
    use crate::Shape;

    /// `A × B` through [`matmul_into`] into a fresh destination.
    fn mm(a: &Tensor, b: &Tensor) -> Tensor {
        let mut c = Tensor::default();
        matmul_into(a, b, &mut c);
        c
    }

    /// `Aᵀ × B` through [`matmul_at_b_into`] into a fresh destination.
    fn mm_at_b(a: &Tensor, b: &Tensor) -> Tensor {
        let mut c = Tensor::default();
        matmul_at_b_into(a, b, &mut c);
        c
    }

    /// `A × Bᵀ` through [`matmul_a_bt_into`] into a fresh destination.
    fn mm_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
        let mut c = Tensor::default();
        matmul_a_bt_into(a, b, &mut c);
        c
    }

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = a.shape().as_matrix();
        let (_, n) = b.shape().as_matrix();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    out[i * n + j] += a.data()[i * k + p] * b.data()[p * n + j];
                }
            }
        }
        Tensor::from_vec(out, Shape::from([m, n]))
    }

    fn rand_matrix(m: usize, n: usize, seed: u64) -> Tensor {
        // Simple LCG so this test has no RNG dependency.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let data = (0..m * n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect();
        Tensor::from_vec(data, Shape::from([m, n]))
    }

    fn assert_close(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive() {
        let a = rand_matrix(7, 5, 1);
        let b = rand_matrix(5, 9, 2);
        assert_close(&mm(&a, &b), &naive_matmul(&a, &b));
    }

    #[test]
    fn matmul_matches_naive_awkward_shapes() {
        // Tile-edge torture: 1×N, N×1, primes, exact multiples, tails
        // smaller than MR/NR on both axes.
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 7, 23),
            (23, 7, 1),
            (4, 4, 16),
            (8, 3, 32),
            (5, 13, 17),
            (17, 1, 19),
            (16, 16, 16),
            (19, 29, 31),
            (3, 40, 15),
            (40, 2, 48),
        ] {
            let a = rand_matrix(m, k, (m * 100 + k) as u64);
            let b = rand_matrix(k, n, (k * 100 + n) as u64);
            assert_close(&mm(&a, &b), &naive_matmul(&a, &b));
            assert_close(&mm_at_b(&transpose(&a), &b), &naive_matmul(&a, &b));
            assert_close(&mm_a_bt(&a, &transpose(&b)), &naive_matmul(&a, &b));
        }
    }

    #[test]
    fn into_variants_match_allocating() {
        let a = rand_matrix(9, 21, 11);
        let b = rand_matrix(21, 18, 12);
        let mut out = Tensor::from_vec(vec![7.0; 4], [2, 2]); // wrong shape: must resize
        matmul_into(&a, &b, &mut out);
        assert_eq!(out, mm(&a, &b));

        let at = transpose(&a);
        matmul_at_b_into(&at, &b, &mut out);
        assert_eq!(out, mm_at_b(&at, &b));

        let bt = transpose(&b);
        matmul_a_bt_into(&a, &bt, &mut out);
        assert_eq!(out, mm_a_bt(&a, &bt));

        transpose_into(&a, &mut out);
        assert_eq!(out, transpose(&a));
    }

    #[test]
    fn matmul_identity() {
        let a = rand_matrix(4, 4, 3);
        let mut id = Tensor::zeros([4, 4]);
        for i in 0..4 {
            id.set(&[i, i], 1.0);
        }
        assert_close(&mm(&a, &id), &a);
        assert_close(&mm(&id, &a), &a);
    }

    #[test]
    fn at_b_equals_explicit_transpose() {
        let a = rand_matrix(6, 3, 4);
        let b = rand_matrix(6, 5, 5);
        assert_close(&mm_at_b(&a, &b), &mm(&transpose(&a), &b));
    }

    #[test]
    fn a_bt_equals_explicit_transpose() {
        let a = rand_matrix(3, 6, 6);
        let b = rand_matrix(5, 6, 7);
        assert_close(&mm_a_bt(&a, &b), &mm(&a, &transpose(&b)));
    }

    #[test]
    fn transpose_involution() {
        let a = rand_matrix(4, 7, 8);
        assert_eq!(transpose(&transpose(&a)), a);
        // Also across the TR tile edge.
        let big = rand_matrix(37, 65, 9);
        assert_eq!(transpose(&transpose(&big)), big);
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        let _ = mm(&a, &b);
    }

    #[test]
    fn one_by_one() {
        let a = Tensor::from_vec(vec![3.0], [1, 1]);
        let b = Tensor::from_vec(vec![4.0], [1, 1]);
        assert_eq!(mm(&a, &b).data(), &[12.0]);
    }

    /// Deterministic pseudo-random i8 buffer covering the full [-128, 127]
    /// range (including the -128 the quantizer never emits — the kernel must
    /// not care).
    fn rand_i8(len: usize, seed: u64) -> Vec<i8> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(99);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as i8
            })
            .collect()
    }

    /// The i8 GEMM equals a naive widened-i32 triple loop exactly on
    /// awkward shapes (same tile-edge torture list as the f32 kernels).
    #[test]
    fn i8_gemm_matches_widened_reference() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 7, 23),
            (23, 7, 1),
            (4, 4, 16),
            (8, 3, 32),
            (5, 13, 17),
            (17, 1, 19),
            (16, 16, 16),
            (19, 29, 31),
            (3, 40, 15),
            (40, 2, 48),
        ] {
            let a = rand_i8(m * k, (m * 100 + k) as u64);
            let b = rand_i8(n * k, (k * 100 + n) as u64);
            let mut out = vec![0i32; m * n];
            matmul_i8_a_bt_slices(&a, &b, &mut out, m, k, n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0i32;
                    for p in 0..k {
                        acc += a[i * k + p] as i32 * b[j * k + p] as i32;
                    }
                    assert_eq!(out[i * n + j], acc, "({i},{j}) of {m}x{k}x{n}");
                }
            }
        }
    }

    /// Row-parallel i8 GEMM is identical to the serial panel at 8 workers:
    /// two shapes above `PAR_MIN_WORK_I8` with rows off the panel grid, and
    /// the smaller ones that now stay serial.
    #[test]
    fn parallel_i8_matches_serial() {
        crate::runtime::with_threads(8, || {
            let shapes = [
                (161, 200, 136),
                (97, 512, 96),
                (97, 64, 48),
                (130, 70, 33),
                (256, 64, 17),
            ];
            assert!(shapes[..2]
                .iter()
                .all(|(m, k, n)| m * k * n >= PAR_MIN_WORK_I8));
            for &(m, k, n) in &shapes {
                let a = rand_i8(m * k, (m + k) as u64);
                let b = rand_i8(n * k, (k + n + 7) as u64);
                let mut serial = vec![0i32; m * n];
                matmul_i8_panel(Isa::active(), &a, &b, &mut serial, m, k, n);
                let mut par = vec![0i32; m * n];
                matmul_i8_a_bt_slices(&a, &b, &mut par, m, k, n);
                assert_eq!(par, serial, "matmul_i8 {m}x{k}x{n}");
            }
        });
    }

    /// The per-panel `A × Bᵀ` kernel that pack-once replaced, kept verbatim
    /// as the reference: it packs each `NR`-row tile of `B` into a `k × NR`
    /// panel and runs the same micro-kernel over it.
    fn matmul_a_bt_per_panel(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        let mut panel = vec![0.0f32; k * NR];
        let mut j = 0;
        while j + NR <= n {
            // Pack rows j..j+NR of B, transposed: panel[p * NR + nj] = B[j+nj][p].
            for nj in 0..NR {
                let brow = &b[(j + nj) * k..(j + nj + 1) * k];
                for (p, &bv) in brow.iter().enumerate() {
                    panel[p * NR + nj] = bv;
                }
            }
            let mut i = 0;
            while i + MR <= m {
                let mut acc = [[0.0f32; NR]; MR];
                for p in 0..k {
                    let brow = &panel[p * NR..(p + 1) * NR];
                    for (mi, accrow) in acc.iter_mut().enumerate() {
                        let av = a[(i + mi) * k + p];
                        axpy(accrow, av, brow);
                    }
                }
                for (mi, accrow) in acc.iter().enumerate() {
                    let orow = i + mi;
                    out[orow * n + j..orow * n + j + NR].copy_from_slice(accrow);
                }
                i += MR;
            }
            while i < m {
                let mut acc = [0.0f32; NR];
                for p in 0..k {
                    let av = a[i * k + p];
                    let brow = &panel[p * NR..(p + 1) * NR];
                    axpy(&mut acc, av, brow);
                }
                out[i * n + j..i * n + j + NR].copy_from_slice(&acc);
                i += 1;
            }
            j += NR;
        }
        // Column tail: plain sequential dot products (same order as packed path).
        if j < n {
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                for jj in j..n {
                    let brow = &b[jj * k..(jj + 1) * k];
                    let mut acc = 0.0f32;
                    for (&av, &bv) in arow.iter().zip(brow.iter()) {
                        acc += av * bv;
                    }
                    out[i * n + jj] = acc;
                }
            }
        }
    }

    /// `C = A × B` as one serial panel on `isa`, off the pool.
    fn serial_matmul(isa: Isa, a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        serial_gemm(isa, row_major(a, k), b, m, k, n)
    }

    /// `C = Aᵀ × B` for `at: (k, m)` as one serial panel on `isa`.
    fn serial_at_b(isa: Isa, at: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let lhs = Lhs {
            data: at,
            row_stride: 1,
            p_stride: m,
        };
        serial_gemm(isa, lhs, b, m, k, n)
    }

    fn serial_gemm(isa: Isa, lhs: Lhs, b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut tail = Vec::new();
        pad_tail_columns(b, &mut tail, k, n);
        let mut c = vec![f32::NAN; m * n];
        let out = SendPtr::new(&mut c);
        // SAFETY: the one panel of `c`, all of it.
        let cells = unsafe { Panel::new(&out, n, 0..m, 0..n) };
        gemm_panel(isa, lhs, b, &tail, cells, k);
        c
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Output widths around both tiles' grids — each tail width of the
    /// 16- and 32-lane tiles, on and off one full panel — that include the
    /// model zoo's channel counts (14, 28 at the CLI's widths).
    const TILE_EDGE_N: [usize; 10] = [1, 12, 14, 16, 17, 23, 28, 31, 32, 33];

    /// Every row count from one row to two full tiles and one row of the
    /// tallest AVX-512 tile, so each residue of `m` modulo every tile
    /// height occurs, on and off a second tile.
    fn tile_rows() -> std::ops::RangeInclusive<usize> {
        1..=2 * MR_NARROW.max(MR_WIDE_AT) + 1
    }

    /// The shared dimensions each row count runs with: none, one, and one
    /// long enough to span many vectors.
    const TILE_K: [usize; 3] = [0, 1, 37];

    /// Tile-edge torture list shared by the instantiation tests: `m`, `n`
    /// off the 4/16/32 grids, `k` around one vector and at the conv shapes.
    fn awkward_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = vec![
            (1, 1, 1),
            (4, 4, 16),
            (5, 13, 17),
            (19, 29, 31),
            (40, 2, 48),
            (6, 11, 63),
            (9, 8, 65),
        ];
        for &k in &[0usize, 1, 15, 16, 17, 27, 31] {
            shapes.extend([(7, k, 33), (6, k, 16), (2, k, 5), (33, k, 50)]);
        }
        for n in TILE_EDGE_N {
            shapes.extend([(5, 9, n), (10, 27, n)]);
        }
        shapes
    }

    /// Every instantiation of all three f32 panel kernels — portable, AVX2
    /// and AVX-512, each with a printed skip where the host lacks it — is
    /// `to_bits()`-equal to the others, and to the naive ascending-`p`
    /// triple loop.
    #[test]
    fn f32_panels_agree_across_instantiations_bitwise() {
        let wide = wide_or_skip("f32_panels_agree_across_instantiations_bitwise");
        let mut shapes = awkward_shapes();
        // every tile height down the rows of a padded tail alone (12) and
        // of a wide, a 16-lane and a padded panel side by side (53)
        for m in tile_rows() {
            for k in TILE_K {
                shapes.extend([(m, k, 12), (m, k, 53)]);
            }
        }
        for (m, k, n) in shapes {
            let a = rand_matrix(m, k, (m * 131 + k) as u64);
            let b = rand_matrix(k, n, (k * 137 + n) as u64);
            let naive = naive_matmul(&a, &b);
            let at = transpose(&a);
            let run = |isa: Isa| {
                (
                    bits(&serial_matmul(isa, a.data(), b.data(), m, k, n)),
                    bits(&serial_at_b(isa, at.data(), b.data(), m, k, n)),
                )
            };
            let (p, p_at) = run(Isa::PORTABLE);
            assert_eq!(p, bits(naive.data()), "matmul vs naive {m}x{k}x{n}");
            assert_eq!(p, p_at, "matmul_at_b vs matmul {m}x{k}x{n}");
            for &isa in &wide {
                let (v, v_at) = run(isa);
                assert_eq!(p, v, "matmul {m}x{k}x{n} {}", isa.name());
                assert_eq!(p_at, v_at, "matmul_at_b {m}x{k}x{n} {}", isa.name());
            }
        }
    }

    /// The dispatched public GEMMs — row panels on the pool included — equal
    /// the portable serial panels at pool sizes 1 and 4, and pack-once
    /// `A × Bᵀ` equals the per-panel kernel it replaced.
    #[test]
    fn dispatched_gemms_match_portable_at_1_and_4_threads() {
        let mut shapes = awkward_shapes();
        // above PAR_MIN_WORK_F32, rows off the panel grid, columns off both
        // tile grids
        shapes.extend([(97, 64, 48), (130, 70, 33), (256, 64, 17), (64, 64, 64)]);
        shapes.extend(TILE_EDGE_N.map(|n| (300, 40, n)));
        for threads in [1, 4] {
            crate::runtime::with_threads(threads, || {
                for &(m, k, n) in &shapes {
                    let a = rand_matrix(m, k, (m * 31 + k) as u64);
                    let b = rand_matrix(k, n, (k * 37 + n) as u64);
                    let (at, bt) = (transpose(&a), transpose(&b));
                    let want = serial_matmul(Isa::PORTABLE, a.data(), b.data(), m, k, n);
                    let mut want_bt = vec![f32::NAN; m * n];
                    matmul_a_bt_per_panel(a.data(), bt.data(), &mut want_bt, m, k, n);
                    assert_eq!(bits(&want_bt), bits(&want), "per-panel a_bt {m}x{k}x{n}");

                    let tag = format!("{m}x{k}x{n} at {threads} threads");
                    assert_eq!(bits(mm(&a, &b).data()), bits(&want), "matmul {tag}");
                    assert_eq!(bits(mm_at_b(&at, &b).data()), bits(&want), "at_b {tag}");
                    assert_eq!(bits(mm_a_bt(&a, &bt).data()), bits(&want), "a_bt {tag}");
                }
            });
        }
    }

    /// Every width left after the full panels of either tile — `n %
    /// NR_WIDE` from 1 to 31, so the 16-lane panel and every padded tail
    /// behind it, alone and behind a full panel — with every row tail of
    /// each tile height ([`tile_rows`]), in all three orientations and on
    /// every instantiation the host runs: bit for bit the naive
    /// ascending-`p` triple loop. (`A × Bᵀ` runs the `A × B` panel on the
    /// transposed `B`, so the serial `A × B` stands for it per level.)
    #[test]
    fn tail_panels_match_the_triple_loop_bitwise() {
        let wide = wide_or_skip("tail_panels_match_the_triple_loop_bitwise");
        let mut rows = vec![(1, 5), (3, 1), (4, 17), (7, 9), (9, 33)];
        rows.extend(tile_rows().flat_map(|m| TILE_K.map(|k| (m, k))));
        for w in 1..NR_WIDE {
            for n in [w, NR_WIDE + w] {
                for &(m, k) in &rows {
                    let a = rand_matrix(m, k, (m * 53 + k + w) as u64);
                    let b = rand_matrix(k, n, (k * 59 + n) as u64);
                    let (at, bt) = (transpose(&a), transpose(&b));
                    let want = bits(naive_matmul(&a, &b).data());
                    let tag = format!("{m}x{k}x{n}");
                    assert_eq!(bits(mm(&a, &b).data()), want, "matmul {tag}");
                    assert_eq!(bits(mm_at_b(&at, &b).data()), want, "at_b {tag}");
                    assert_eq!(bits(mm_a_bt(&a, &bt).data()), want, "a_bt {tag}");
                    for isa in [Isa::PORTABLE].into_iter().chain(wide.iter().copied()) {
                        let got = serial_matmul(isa, a.data(), b.data(), m, k, n);
                        assert_eq!(bits(&got), want, "{} {tag}", isa.name());
                        let got = serial_at_b(isa, at.data(), b.data(), m, k, n);
                        assert_eq!(bits(&got), want, "{} at_b {tag}", isa.name());
                    }
                }
            }
        }
    }

    /// Products with a single row panel — up to `ROWS_PER_CHUNK` rows, the
    /// weight gradients' shape, every row count of [`tile_rows`] among them
    /// — above the pool threshold are cut by columns once they are wider
    /// than one tile: equal to the serial panel bit for bit, in all three
    /// orientations, for `n` on and off both tile grids, at pool sizes 1,
    /// 2 and 4. With `k` 0 and 1 the same shapes run serially.
    #[test]
    fn column_split_matches_serial_bitwise() {
        let tile = tile_cols(Isa::active());
        for threads in [1, 2, 4] {
            crate::runtime::with_threads(threads, || {
                for m in tile_rows().chain([32]) {
                    for n in TILE_EDGE_N.into_iter().chain([108, 130, 144]) {
                        let long = PAR_MIN_WORK_F32.div_ceil(m * n) + 3;
                        for k in [0, 1, long] {
                            if threads > 1 && k == long {
                                let split = Split::of(m, k, n, tile);
                                assert_eq!(matches!(split, Split::Columns(_)), n > NR, "{split:?}");
                            }
                            let a = rand_matrix(m, k, (m * 41 + n) as u64);
                            let b = rand_matrix(k, n, (k * 43 + n) as u64);
                            let (at, bt) = (transpose(&a), transpose(&b));
                            let want =
                                bits(&serial_matmul(Isa::PORTABLE, a.data(), b.data(), m, k, n));
                            let tag = format!("{m}x{k}x{n} at {threads} threads");
                            assert_eq!(bits(mm(&a, &b).data()), want, "matmul {tag}");
                            assert_eq!(bits(mm_at_b(&at, &b).data()), want, "at_b {tag}");
                            assert_eq!(bits(mm_a_bt(&a, &bt).data()), want, "a_bt {tag}");
                        }
                    }
                }
            });
        }
    }

    /// The column cut is a function of the shape and the tile's width:
    /// whole tile panels — `NR` ones when one wide tile would cover the
    /// product — at most `MAX_COLUMN_CHUNKS` chunks, nothing for a product
    /// too small or one `NR` panel wide, rows first when there is more than
    /// one row panel — for the 16-column tile and the 32-column one.
    #[test]
    fn the_split_is_chosen_from_the_shape() {
        crate::runtime::with_threads(2, || {
            let big = PAR_MIN_WORK_F32;
            let cases = [
                ((12, big, 108, NR), Split::Columns(16)), // 7 panels, one each
                ((12, big, 300, NR), Split::Columns(48)), // 19 panels, 3 a chunk
                ((32, big, 17, NR), Split::Columns(16)),
                ((32, big, 16, NR), Split::Serial), // one panel wide
                ((33, big, 17, NR), Split::Rows),
                ((12, 4, 108, NR), Split::Serial), // below the threshold
                ((12, big, 108, NR_WIDE), Split::Columns(32)), // 4 panels, one each
                ((12, big, 300, NR_WIDE), Split::Columns(64)), // 10 panels, 2 a chunk
                ((32, big, 33, NR_WIDE), Split::Columns(32)),
                ((32, big, 32, NR_WIDE), Split::Columns(16)), // one wide tile: cut at NR
                ((14, big, 27, NR_WIDE), Split::Columns(16)),
                ((32, big, 16, NR_WIDE), Split::Serial), // one panel wide
                ((33, big, 17, NR_WIDE), Split::Rows),
                ((12, 4, 108, NR_WIDE), Split::Serial), // below the threshold
            ];
            for ((m, k, n, tile), want) in cases {
                let got = Split::of(m, k, n, tile);
                assert_eq!(got, want, "{m}x{k}x{n} on {tile} columns");
            }
        });
    }

    /// Both i8 panels equal the widened-`i32` triple loop exactly: random
    /// operands, all `-128` (the largest products), `k` below one vector
    /// with every row tail of its eight-row block, every row/column tail of
    /// the 2×4 tile.
    #[test]
    fn i8_panels_match_widened_reference() {
        let avx2 = avx2_or_skip("i8_panels_match_widened_reference");
        let mut shapes = awkward_shapes();
        shapes.extend([(3, 144, 9), (5, 288, 6), (2, 300, 4)]);
        // the short-`k` path's eight-row blocks: on and off the grid
        shapes.extend([(17, 9, 3), (8, 15, 1), (24, 9, 14), (9, 2, 5), (40, 14, 12)]);
        for (m, k, n) in shapes {
            for fill in [None, Some(-128i8), Some(127)] {
                let a =
                    fill.map_or_else(|| rand_i8(m * k, (m * 100 + k) as u64), |v| vec![v; m * k]);
                let b =
                    fill.map_or_else(|| rand_i8(n * k, (k * 100 + n) as u64), |v| vec![v; n * k]);
                let mut want = vec![0i32; m * n];
                for i in 0..m {
                    for j in 0..n {
                        for p in 0..k {
                            want[i * n + j] += a[i * k + p] as i32 * b[j * k + p] as i32;
                        }
                    }
                }
                for isa in [Some(Isa::PORTABLE), avx2].into_iter().flatten() {
                    let mut got = vec![i32::MIN; m * n];
                    matmul_i8_panel(isa, &a, &b, &mut got, m, k, n);
                    assert_eq!(got, want, "{} {m}x{k}x{n} fill {fill:?}", isa.name());
                }
            }
        }
    }

    /// Both `A × B` panels equal the widened-`i32` triple loop exactly:
    /// random operands, all `-128` and all `127`, odd and even `k` down to
    /// one, every row tail of the four-row block and every column tail of
    /// the 16- and 8-column steps — LeNet-5's classifier among them — and
    /// the row-parallel entry point at 8 workers.
    #[test]
    fn i8_ab_panels_match_widened_reference() {
        let avx2 = avx2_or_skip("i8_ab_panels_match_widened_reference");
        let mut shapes = awkward_shapes();
        shapes.extend([(40, 32, 60), (40, 60, 42), (40, 42, 10), (64, 113, 10)]);
        shapes.extend([
            (5, 1, 17),
            (3, 2, 8),
            (6, 7, 24),
            (1, 33, 31),
            (4, 16, 16),
            (7, 5, 7),
        ]);
        shapes.push((130, 300, 40)); // above the pool threshold, rows off the panel grid
        for (m, k, n) in shapes {
            for fill in [None, Some(-128i8), Some(127)] {
                let a =
                    fill.map_or_else(|| rand_i8(m * k, (m * 100 + k) as u64), |v| vec![v; m * k]);
                let b =
                    fill.map_or_else(|| rand_i8(k * n, (k * 100 + n) as u64), |v| vec![v; k * n]);
                let mut want = vec![0i32; m * n];
                for i in 0..m {
                    for j in 0..n {
                        for p in 0..k {
                            want[i * n + j] += a[i * k + p] as i32 * b[p * n + j] as i32;
                        }
                    }
                }
                for isa in [Some(Isa::PORTABLE), avx2].into_iter().flatten() {
                    let mut got = vec![i32::MIN; m * n];
                    matmul_i8_ab_panel(isa, &a, &b, &mut got, m, k, n);
                    assert_eq!(got, want, "{} {m}x{k}x{n} fill {fill:?}", isa.name());
                }
                let mut got = vec![i32::MIN; m * n];
                crate::runtime::with_threads(8, || matmul_i8_slices(&a, &b, &mut got, m, k, n));
                assert_eq!(got, want, "parallel {m}x{k}x{n} fill {fill:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "can overflow the i32 accumulator")]
    fn i8_gemm_rejects_k_that_can_overflow() {
        let k = 1 << 17;
        let (a, b) = (vec![-128i8; k], vec![-128i8; k]);
        matmul_i8_a_bt_slices(&a, &b, &mut [0i32], 1, k, 1);
    }

    /// The largest `k` the kernel accepts cannot wrap, on either path.
    #[test]
    fn i8_gemm_is_exact_at_the_k_bound() {
        let k = I8_GEMM_MAX_K;
        let (a, b) = (vec![-128i8; k], vec![-128i8; k]);
        let mut out = [0i32];
        matmul_i8_a_bt_slices(&a, &b, &mut out, 1, k, 1);
        assert_eq!(out[0] as i64, k as i64 * 128 * 128);
        matmul_i8_panel(Isa::PORTABLE, &a, &b, &mut out, 1, k, 1);
        assert_eq!(out[0] as i64, k as i64 * 128 * 128);
        for isa in [Isa::PORTABLE, Isa::active()] {
            matmul_i8_ab_panel(isa, &a, &b, &mut out, 1, k, 1);
            assert_eq!(out[0] as i64, k as i64 * 128 * 128, "{}", isa.name());
        }
    }
}
