//! Dense linear algebra: tiled, register-blocked matrix multiply and
//! transposes.
//!
//! These routines are the compute kernels behind [`socflow_nn`]'s linear and
//! (via im2col) convolution layers. Each product is computed by an
//! `MR × NR` micro-kernel that keeps a fixed-size accumulator tile in
//! registers and streams contiguously over the operands, so rustc
//! autovectorizes the inner loops without any nightly SIMD or external
//! dependencies. The last `n % NR` columns run through the same tile over a
//! zero-padded copy of `B`'s tail columns; the last `m % MR` rows run one
//! row at a time. Either way the accumulation order is the same.
//!
//! **Numerics contract:** every kernel accumulates each output element
//! strictly sequentially over the shared dimension `p` in ascending order —
//! the same order as a naive triple loop — with a separate multiply and add
//! (never a fused one). Tiling and lane width change *which* elements are
//! computed together, never the floating-point summation order, so results
//! are bit-identical to the pre-tiled kernels and deterministic across runs.
//!
//! **Two instantiations:** the f32 panel kernel is one `#[inline(always)]`
//! body compiled twice by `isa_kernel!` — for the crate's baseline target
//! and under `#[target_feature(enable = "avx2")]` — and [`Isa::active`] picks
//! one per call (see [`crate::isa`]). The lanes run across the *output*
//! dimension, so both satisfy the contract above and agree bit for bit. All
//! three products share it: `Aᵀ × B` is a stride choice on the left operand
//! and `A × Bᵀ` transposes `B` once per call. The i8 GEMM is the one kernel
//! with hand-written intrinsics; it is exact in `i32`, where no order can
//! matter.
//!
//! **Parallelism:** large products are cut into panels of the output and
//! dispatched on the [`crate::runtime`] worker pool: `ROWS_PER_CHUNK` rows
//! each when there is more than one such panel, otherwise (`m ≤ 32`: every
//! convolution's weight gradient `Aᵀ × B`) groups of `NR`-column panels. The
//! cut depends only on the shape — never on the thread count — and each
//! panel is computed by the same sequential micro-kernel writing its own
//! cells, every element still the ascending-`p` sum, so the parallel kernels
//! are bit-identical to the single-threaded ones at any `SOCFLOW_THREADS`
//! setting.
//!
//! Every entry point has an `_into` variant that writes into a caller-owned
//! [`Tensor`] (resizing its storage as needed) and a `_slices` variant that
//! operates on raw row-major buffers; the allocating wrappers remain for API
//! compatibility.
//!
//! [`socflow_nn`]: https://docs.rs/socflow-nn

use crate::isa::{isa_kernel, Isa};
use crate::profile::{KernelOp, Timer};
use crate::runtime::SendPtr;
use crate::Tensor;
use std::cell::RefCell;
use std::ops::Range;

/// Rows of the register accumulator tile.
const MR: usize = 4;
/// Columns of the register accumulator tile (two 8-lane vectors on AVX2).
const NR: usize = 16;

thread_local! {
    /// `Bᵀ` of the running [`matmul_a_bt_slices`] call (`k × n`), transposed
    /// once on the calling thread and read by every row panel. Thread-local
    /// so replica jobs never contend; reused across calls so steady-state
    /// matmuls allocate nothing.
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
/// model zoo has one.
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
/// shape alone, like every partition here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Split {
    /// One panel, on the calling thread.
    Serial,
    /// Panels of [`ROWS_PER_CHUNK`] rows, all columns each.
    Rows,
    /// All rows, this many columns a chunk (a multiple of `NR`): a product
    /// with no second row panel — every weight gradient `Aᵀ × B` of a
    /// convolution has as many rows as the layer has filters — still has
    /// `n / NR` independent column panels.
    Columns(usize),
}

impl Split {
    fn of(m: usize, k: usize, n: usize) -> Split {
        if !worth_parallel(m, k, n, PAR_MIN_WORK_F32) {
            Split::Serial
        } else if m > ROWS_PER_CHUNK {
            Split::Rows
        } else if n > NR {
            Split::Columns(n.div_ceil(NR).div_ceil(MAX_COLUMN_CHUNKS) * NR)
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
/// 231 / 246.
const MAX_COLUMN_CHUNKS: usize = 8;

/// The micro-kernels' accumulate step: `acc[c] += av * brow[c]` over the
/// `NR` lanes — one multiply and one add per lane, in that order.
#[inline(always)]
fn axpy_nr(acc: &mut [f32; NR], av: f32, brow: &[f32]) {
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

/// `C = lhs × B` for `B: (k, n)` row-major, by panels — on the pool when
/// [`Split::of`] the shape says so. The `n % NR` tail columns of `B` are
/// padded once, here, and shared by every panel.
fn gemm_panels(isa: Isa, lhs: Lhs, b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    PADDED_TAIL.with(|tail| {
        // the submitting thread only ever runs its own panels while it
        // waits, so the borrow cannot be re-entered
        let mut tail = tail.borrow_mut();
        pad_tail_columns(b, &mut tail, k, n);
        let tail = &tail[..];
        let out = SendPtr::new(out);
        let panel = |rows: Range<usize>, cols: Range<usize>| {
            // SAFETY: `out` is the whole `m × n` output, and each arm below
            // cuts `0..m × 0..n` into panels that share no cell.
            let cells = unsafe { Panel::new(&out, n, rows, cols) };
            gemm_panel(isa, lhs, b, tail, cells, k);
        };
        match Split::of(m, k, n) {
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
    });
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
    /// Sequential `MR × NR` kernel over the rows and columns of `cells`
    /// (columns from a multiple of `NR` on): the single-threaded sweep,
    /// reused verbatim by every parallel panel. `tail` is `b`'s
    /// [`pad_tail_columns`] panel.
    fn gemm_panel(lhs: Lhs, b: &[f32], tail: &[f32], cells: Panel, k: usize) = gemm_panel_body;
}

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
                axpy_nr(accrow, av, brow);
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
            axpy_nr(&mut acc, a[i * lhs.row_stride + p * lhs.p_stride], brow);
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

// ---------------------------------------------------------------------------
// C = A × B
// ---------------------------------------------------------------------------

/// `C = A × B` for row-major matrices `A: (m, k)`, `B: (k, n)`.
///
/// # Panics
/// Panics if the operands are not rank-2 or the inner dimensions disagree.
///
/// ```
/// use socflow_tensor::{Tensor, linalg};
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
/// assert_eq!(linalg::matmul(&a, &i), a);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    matmul_into(a, b, &mut out);
    out
}

/// [`matmul`] writing into `out`, reusing its storage (resized as needed).
///
/// # Panics
/// Panics if the operands are not rank-2 or the inner dimensions disagree.
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
    gemm_panels(Isa::active(), row_major(a, k), b, out, m, k, n);
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

/// `C = Aᵀ × B` for `A: (k, m)`, `B: (k, n)` without materializing `Aᵀ`.
///
/// # Panics
/// Panics if the operands are not rank-2 or the shared dimension disagrees.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    matmul_at_b_into(a, b, &mut out);
    out
}

/// [`matmul_at_b`] writing into `out`, reusing its storage.
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
    gemm_panels(Isa::active(), at, b, out, m, k, n);
}

// ---------------------------------------------------------------------------
// C = A × Bᵀ
// ---------------------------------------------------------------------------

/// `C = A × Bᵀ` for `A: (m, k)`, `B: (n, k)`; `Bᵀ` only ever exists in
/// reused scratch (see [`matmul_a_bt_slices`]).
///
/// # Panics
/// Panics if the operands are not rank-2 or the shared dimension disagrees.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    matmul_a_bt_into(a, b, &mut out);
    out
}

/// [`matmul_a_bt`] writing into `out`, reusing its storage.
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
    PACKED_BT.with(|bt| {
        // not re-entered, for the reason given in `gemm_panels`
        let mut bt = bt.borrow_mut();
        bt.resize(k * n, 0.0);
        transpose_blocks(b, &mut bt, n, k);
        gemm_panels(Isa::active(), row_major(a, k), &bt, out, m, k, n);
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
/// ([`crate::quant::scale_i32_into`]).
///
/// # Panics
/// Panics if the slice lengths do not match the given dimensions, or if
/// `k ≥ 2¹⁷` (the accumulator bound; far above any layer in the model zoo).
pub fn matmul_i8_a_bt_slices(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_i8_a_bt_slices: a length");
    assert_eq!(b.len(), n * k, "matmul_i8_a_bt_slices: b length");
    assert_eq!(out.len(), m * n, "matmul_i8_a_bt_slices: out length");
    assert!(
        k <= I8_GEMM_MAX_K,
        "matmul_i8_a_bt_slices: k = {k} of ({m},{k}) x ({n},{k})ᵀ can overflow the i32 \
         accumulator (k must stay below 2^17)"
    );
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

/// Sequential i8 kernel over an `m`-row slice of `A`/`out`. The one kernel
/// that is written twice rather than instantiated twice: autovectorizing
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
/// one vector has nothing to block and takes the portable loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn matmul_i8_panel_avx2(a: &[i8], b: &[i8], out: &mut [i32], m: usize, k: usize, n: usize) {
    if k < 16 {
        return matmul_i8_panel_portable(a, b, out, m, k, n);
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
    use crate::isa::avx2_or_skip;
    use crate::Shape;

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
        assert_close(&matmul(&a, &b), &naive_matmul(&a, &b));
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
            assert_close(&matmul(&a, &b), &naive_matmul(&a, &b));
            assert_close(&matmul_at_b(&transpose(&a), &b), &naive_matmul(&a, &b));
            assert_close(&matmul_a_bt(&a, &transpose(&b)), &naive_matmul(&a, &b));
        }
    }

    #[test]
    fn into_variants_match_allocating() {
        let a = rand_matrix(9, 21, 11);
        let b = rand_matrix(21, 18, 12);
        let mut out = Tensor::from_vec(vec![7.0; 4], [2, 2]); // wrong shape: must resize
        matmul_into(&a, &b, &mut out);
        assert_eq!(out, matmul(&a, &b));

        let at = transpose(&a);
        matmul_at_b_into(&at, &b, &mut out);
        assert_eq!(out, matmul_at_b(&at, &b));

        let bt = transpose(&b);
        matmul_a_bt_into(&a, &bt, &mut out);
        assert_eq!(out, matmul_a_bt(&a, &bt));

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
        assert_close(&matmul(&a, &id), &a);
        assert_close(&matmul(&id, &a), &a);
    }

    #[test]
    fn at_b_equals_explicit_transpose() {
        let a = rand_matrix(6, 3, 4);
        let b = rand_matrix(6, 5, 5);
        assert_close(&matmul_at_b(&a, &b), &matmul(&transpose(&a), &b));
    }

    #[test]
    fn a_bt_equals_explicit_transpose() {
        let a = rand_matrix(3, 6, 6);
        let b = rand_matrix(5, 6, 7);
        assert_close(&matmul_a_bt(&a, &b), &matmul(&a, &transpose(&b)));
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
        let _ = matmul(&a, &b);
    }

    #[test]
    fn one_by_one() {
        let a = Tensor::from_vec(vec![3.0], [1, 1]);
        let b = Tensor::from_vec(vec![4.0], [1, 1]);
        assert_eq!(matmul(&a, &b).data(), &[12.0]);
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
        crate::runtime::set_threads(8);
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
                        axpy_nr(accrow, av, brow);
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
                    axpy_nr(&mut acc, av, brow);
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

    /// Tile-edge torture list shared by the instantiation tests: `m`, `n`
    /// off the 4/16 grid, `k` around one vector and at the conv shapes.
    fn awkward_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = vec![
            (1, 1, 1),
            (4, 4, 16),
            (5, 13, 17),
            (19, 29, 31),
            (40, 2, 48),
        ];
        for &k in &[0usize, 1, 15, 16, 17, 27, 31] {
            shapes.extend([(7, k, 33), (6, k, 16), (2, k, 5), (33, k, 50)]);
        }
        shapes
    }

    /// Portable and AVX2 instantiations of all three f32 panel kernels are
    /// `to_bits()`-equal, and equal to the naive ascending-`p` triple loop.
    #[test]
    fn f32_panels_agree_across_instantiations_bitwise() {
        let Some(avx2) = avx2_or_skip("f32_panels_agree_across_instantiations_bitwise") else {
            return;
        };
        for (m, k, n) in awkward_shapes() {
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
            let (v, v_at) = run(avx2);
            assert_eq!(p, bits(naive.data()), "matmul vs naive {m}x{k}x{n}");
            assert_eq!(p, v, "matmul {m}x{k}x{n}");
            assert_eq!(p_at, v_at, "matmul_at_b {m}x{k}x{n}");
            assert_eq!(p, p_at, "matmul_at_b vs matmul {m}x{k}x{n}");
        }
    }

    /// The dispatched public GEMMs — row panels on the pool included — equal
    /// the portable serial panels at pool sizes 1 and 4, and pack-once
    /// `A × Bᵀ` equals the per-panel kernel it replaced.
    #[test]
    fn dispatched_gemms_match_portable_at_1_and_4_threads() {
        let mut shapes = awkward_shapes();
        // above PAR_MIN_WORK_F32, rows off the panel grid
        shapes.extend([(97, 64, 48), (130, 70, 33), (256, 64, 17), (64, 64, 64)]);
        for threads in [1, 4] {
            crate::runtime::set_threads(threads);
            for &(m, k, n) in &shapes {
                let a = rand_matrix(m, k, (m * 31 + k) as u64);
                let b = rand_matrix(k, n, (k * 37 + n) as u64);
                let (at, bt) = (transpose(&a), transpose(&b));
                let want = serial_matmul(Isa::PORTABLE, a.data(), b.data(), m, k, n);
                let mut want_bt = vec![f32::NAN; m * n];
                matmul_a_bt_per_panel(a.data(), bt.data(), &mut want_bt, m, k, n);
                assert_eq!(bits(&want_bt), bits(&want), "per-panel a_bt {m}x{k}x{n}");

                let tag = format!("{m}x{k}x{n} at {threads} threads");
                assert_eq!(bits(matmul(&a, &b).data()), bits(&want), "matmul {tag}");
                assert_eq!(bits(matmul_at_b(&at, &b).data()), bits(&want), "at_b {tag}");
                assert_eq!(bits(matmul_a_bt(&a, &bt).data()), bits(&want), "a_bt {tag}");
            }
        }
    }

    /// Every width of the tail panel — `n % NR` from 1 to 15, alone and
    /// behind a full panel — with the row tails of the `MR` tile, in all
    /// three orientations: bit for bit the naive ascending-`p` triple loop.
    #[test]
    fn tail_panels_match_the_triple_loop_bitwise() {
        for w in 1..NR {
            for n in [w, NR + w] {
                for (m, k) in [(1, 5), (3, 1), (4, 17), (7, 9), (9, 33)] {
                    let a = rand_matrix(m, k, (m * 53 + k + w) as u64);
                    let b = rand_matrix(k, n, (k * 59 + n) as u64);
                    let (at, bt) = (transpose(&a), transpose(&b));
                    let want = bits(naive_matmul(&a, &b).data());
                    let tag = format!("{m}x{k}x{n}");
                    assert_eq!(bits(matmul(&a, &b).data()), want, "matmul {tag}");
                    assert_eq!(bits(matmul_at_b(&at, &b).data()), want, "at_b {tag}");
                    assert_eq!(bits(matmul_a_bt(&a, &bt).data()), want, "a_bt {tag}");
                }
            }
        }
    }

    /// Products with a single row panel — up to `ROWS_PER_CHUNK` rows, the
    /// weight gradients' shape — above the pool threshold are cut by
    /// columns: equal to the serial panel bit for bit, in all three
    /// orientations, for `n` on and off the `NR` grid, at pool sizes 1, 2
    /// and 4.
    #[test]
    fn column_split_matches_serial_bitwise() {
        for threads in [1, 2, 4] {
            crate::runtime::set_threads(threads);
            for m in [1usize, 4, 12, 23, 32] {
                for n in [17usize, 108, 130, 144] {
                    let k = PAR_MIN_WORK_F32.div_ceil(m * n) + 3;
                    // another test may have resized the pool meanwhile; the
                    // bytes below must hold either way
                    if crate::runtime::threads() > 1 {
                        assert!(matches!(Split::of(m, k, n), Split::Columns(_)));
                    }
                    let a = rand_matrix(m, k, (m * 41 + n) as u64);
                    let b = rand_matrix(k, n, (k * 43 + n) as u64);
                    let (at, bt) = (transpose(&a), transpose(&b));
                    let want = bits(&serial_matmul(Isa::PORTABLE, a.data(), b.data(), m, k, n));
                    let tag = format!("{m}x{k}x{n} at {threads} threads");
                    assert_eq!(bits(matmul(&a, &b).data()), want, "matmul {tag}");
                    assert_eq!(bits(matmul_at_b(&at, &b).data()), want, "at_b {tag}");
                    assert_eq!(bits(matmul_a_bt(&a, &bt).data()), want, "a_bt {tag}");
                }
            }
        }
    }

    /// The column cut is a function of the shape: whole `NR` panels, at
    /// most `MAX_COLUMN_CHUNKS` chunks, nothing for a product too small or
    /// one panel wide, rows first when there is more than one row panel.
    #[test]
    fn the_split_is_chosen_from_the_shape() {
        crate::runtime::set_threads(2);
        let big = PAR_MIN_WORK_F32;
        let cases = [
            ((12, big, 108), Split::Columns(16)), // 7 panels, one each
            ((12, big, 300), Split::Columns(48)), // 19 panels, 3 a chunk
            ((32, big, 17), Split::Columns(16)),
            ((32, big, 16), Split::Serial), // one panel wide
            ((33, big, 17), Split::Rows),
            ((12, 4, 108), Split::Serial), // below the threshold
        ];
        for ((m, k, n), want) in cases {
            if crate::runtime::threads() > 1 {
                assert_eq!(Split::of(m, k, n), want, "{m}x{k}x{n}");
            }
        }
    }

    /// Both i8 panels equal the widened-`i32` triple loop exactly: random
    /// operands, all `-128` (the largest products), `k` below one vector,
    /// every row/column tail of the 2×4 tile.
    #[test]
    fn i8_panels_match_widened_reference() {
        let avx2 = avx2_or_skip("i8_panels_match_widened_reference");
        let mut shapes = awkward_shapes();
        shapes.extend([(3, 144, 9), (5, 288, 6), (2, 300, 4)]);
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
    }
}
