//! Parameter sweeps: the elementwise passes a training step and a delayed
//! aggregation make over a model's parameters, each one in-place pass over
//! the caller's own slices.
//!
//! - [`sgd_momentum`] / [`sgd_momentum_zero_grad`]: the SGD-with-momentum
//!   update over one parameter's `(w, g, v)`, the second zeroing `g` in the
//!   same pass;
//! - [`lerp`]: the CPU/NPU weight merge of the paper's Eq. 5;
//! - [`replica_mean`]: the delayed aggregation's mean over one tensor of
//!   every replica, written back into all of them.
//!
//! Like the [`crate::quant`] sweeps they are slice loops instantiated twice
//! (portable and AVX2, see [`crate::isa`]); every element is computed
//! independently by the same scalar operations in the same order, so the
//! two agree bit for bit. None of them is timed by [`crate::profile`]: they
//! are not kernels of the layer stack.

use crate::isa::{isa_kernel, Isa};
use crate::runtime::{parallel_for_chunks, SendPtr};

/// The hyper-parameters of one [`sgd_momentum`] sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdStep {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient μ.
    pub momentum: f32,
    /// L2 weight decay λ.
    pub weight_decay: f32,
}

/// One element of the update: `v ← μ·v + (g + λ·w)`, `w ← w − lr·v`.
#[inline(always)]
fn sgd_element(w: &mut f32, g: f32, v: &mut f32, h: SgdStep) {
    let vel = h.momentum * *v + (g + h.weight_decay * *w);
    *v = vel;
    *w -= h.lr * vel;
}

isa_kernel! {
    fn sgd_momentum_slices(w: &mut [f32], g: &[f32], v: &mut [f32], h: SgdStep)
        = sgd_momentum_body;
}

#[inline(always)]
fn sgd_momentum_body(w: &mut [f32], g: &[f32], v: &mut [f32], h: SgdStep) {
    for ((w, &g), v) in w.iter_mut().zip(g).zip(v) {
        sgd_element(w, g, v, h);
    }
}

isa_kernel! {
    fn sgd_momentum_zero_grad_slices(w: &mut [f32], g: &mut [f32], v: &mut [f32], h: SgdStep)
        = sgd_momentum_zero_grad_body;
}

#[inline(always)]
fn sgd_momentum_zero_grad_body(w: &mut [f32], g: &mut [f32], v: &mut [f32], h: SgdStep) {
    for ((w, g), v) in w.iter_mut().zip(g).zip(v) {
        sgd_element(w, *g, v, h);
        *g = 0.0;
    }
}

/// SGD with classical momentum and L2 weight decay over one parameter:
/// `v ← μ·v + (g + λ·w)`, then `w ← w − lr·v`, element by element.
///
/// # Panics
/// Panics if the three slices differ in length.
pub fn sgd_momentum(w: &mut [f32], g: &[f32], v: &mut [f32], h: SgdStep) {
    assert!(
        w.len() == g.len() && w.len() == v.len(),
        "sgd_momentum: value, gradient and velocity lengths differ"
    );
    sgd_momentum_slices(Isa::active(), w, g, v, h);
}

/// [`sgd_momentum`] that also leaves `g` all `+0.0`, in the same pass — the
/// step and the `zero_grad` after it touch the gradient once instead of
/// twice.
///
/// # Panics
/// Panics if the three slices differ in length.
pub fn sgd_momentum_zero_grad(w: &mut [f32], g: &mut [f32], v: &mut [f32], h: SgdStep) {
    assert!(
        w.len() == g.len() && w.len() == v.len(),
        "sgd_momentum_zero_grad: value, gradient and velocity lengths differ"
    );
    sgd_momentum_zero_grad_slices(Isa::active(), w, g, v, h);
}

isa_kernel! {
    fn lerp_slices(a: &mut [f32], b: &[f32], k: f32) = lerp_body;
}

#[inline(always)]
fn lerp_body(a: &mut [f32], b: &[f32], k: f32) {
    let rest = 1.0 - k;
    for (a, &b) in a.iter_mut().zip(b) {
        *a = k * *a + rest * b;
    }
}

/// `a ← k·a + (1 − k)·b`, element by element: the weight merge of the
/// paper's Eq. 5 with `k = e^{-α}`, `a` the FP32 arm's weights and `b` the
/// INT8 arm's.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn lerp(a: &mut [f32], b: &[f32], k: f32) {
    assert_eq!(a.len(), b.len(), "lerp: weight length mismatch");
    lerp_slices(Isa::active(), a, b, k);
}

/// Elements per pool chunk of [`replica_mean`]; fixed, so the partition
/// follows from the tensor's length alone.
const MEAN_CHUNK: usize = 16 * 1024;

isa_kernel! {
    fn replica_mean_slices(rows: &mut [&mut [f32]], inv_n: f32) = replica_mean_body;
}

/// A block of columns at a time, so the running sums stay in L1 while every
/// row streams through once to be read and once to be overwritten.
#[inline(always)]
fn replica_mean_body(rows: &mut [&mut [f32]], inv_n: f32) {
    const BLOCK: usize = 1024;
    let len = rows.first().map_or(0, |r| r.len());
    let mut sums = [0.0f32; BLOCK];
    for lo in (0..len).step_by(BLOCK) {
        let hi = (lo + BLOCK).min(len);
        let sums = &mut sums[..hi - lo];
        sums.fill(0.0);
        for row in rows.iter() {
            for (s, &v) in sums.iter_mut().zip(&row[lo..hi]) {
                *s += v;
            }
        }
        for s in sums.iter_mut() {
            *s *= inv_n;
        }
        for row in rows.iter_mut() {
            row[lo..hi].copy_from_slice(sums);
        }
    }
}

/// Replaces every row by the element-wise mean of all rows — one tensor of
/// each replica, averaged where it lives.
///
/// Each element starts from `+0.0`, adds the rows in ascending order, and
/// is scaled once by a precomputed `1/n` (so a column of `-0.0` averages to
/// `+0.0`). The columns are split into fixed 16 Ki-element chunks that run
/// on the worker pool; a chunk boundary never falls inside a sum, so the
/// result is byte-identical at any thread count.
///
/// # Panics
/// Panics if the rows differ in length.
pub fn replica_mean(rows: &mut [&mut [f32]]) {
    let len = rows.first().map_or(0, |r| r.len());
    assert!(
        rows.iter().all(|r| r.len() == len),
        "replica_mean: rows differ in length: {:?}",
        rows.iter().map(|r| r.len()).collect::<Vec<_>>()
    );
    let isa = Isa::active();
    let inv_n = 1.0 / rows.len() as f32;
    let bases: Vec<SendPtr<f32>> = rows.iter_mut().map(|r| SendPtr::new(r)).collect();
    parallel_for_chunks(len.div_ceil(MEAN_CHUNK), &|c| {
        let lo = c * MEAN_CHUNK;
        let n = MEAN_CHUNK.min(len - lo);
        // SAFETY: `[lo, lo + n)` is in bounds of every row (all are `len`
        // long), the rows are distinct `&mut` slices, and chunk `c` is the
        // only one that derives this column range from them.
        let mut part: Vec<&mut [f32]> = bases.iter().map(|b| unsafe { b.slice(lo, n) }).collect();
        replica_mean_slices(isa, &mut part, inv_n);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The optimizer loop these sweeps replaced, verbatim but for the
    /// tensors becoming slices: the scalar definition of [`sgd_momentum`].
    fn sgd_reference(w: &mut [f32], g: &[f32], v: &mut [f32], h: SgdStep) {
        for i in 0..w.len() {
            let grad = g[i] + h.weight_decay * w[i];
            let vel = h.momentum * v[i] + grad;
            v[i] = vel;
            w[i] -= h.lr * vel;
        }
    }

    /// `MixedPrecisionController::merge_weights_inplace` as it was.
    fn merge_reference(w_fp32: &mut [f32], w_int8: &[f32], k: f32) {
        for (a, &b) in w_fp32.iter_mut().zip(w_int8) {
            *a = k * *a + (1.0 - k) * b;
        }
    }

    /// The mean the engine used to materialise (its `mean_of`, kept
    /// verbatim beside the engine's aggregation tests), as one chunk:
    /// start from `+0.0`, add the rows in order, scale once by `1/n`.
    fn mean_of(rows: &[Vec<f32>]) -> Vec<f32> {
        let inv_n = 1.0 / rows.len() as f32;
        let mut out = vec![0.0f32; rows[0].len()];
        for row in rows {
            for (m, &v) in out.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in out.iter_mut() {
            *m *= inv_n;
        }
        out
    }

    const LENGTHS: [usize; 7] = [0, 1, 7, 8, 9, 31, 1027];

    /// `len` values over a smooth ramp, by `lane` (0–3): every eighth one a
    /// signed zero, an infinity, a subnormal or a huge value — a different
    /// one in each lane, so `∞` meets `-∞` and `-0.0` meets `+0.0` — and
    /// after it, in one lane at a time, a NaN with or without payload. Two
    /// lanes never hold NaN at the same index: the payload of NaN + NaN
    /// depends on operand order, which is not part of the contract.
    fn edge_values(len: usize, lane: usize) -> Vec<f32> {
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 4.0,
            -1e30,
            1e30,
        ];
        let nans = [f32::NAN, f32::from_bits(0x7FC0_1234)];
        (0..len)
            .map(|i| match i % 8 {
                0 => specials[(i / 8 + lane) % specials.len()],
                1 if (i / 8) % 4 == lane => nans[(i / 32) % 2],
                _ => ((i * 7 + lane * 13) as f32 * 0.731).sin() * 3.0,
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    const STEP: SgdStep = SgdStep {
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 5e-4,
    };

    /// Every sweep on `isa` over edge-valued inputs of `len` elements, as
    /// comparable bits: SGD `(w, v)`, fused SGD `(w, g, v)`, lerp, and the
    /// mean over 1, 3 and 4 rows.
    fn all_sweeps(isa: Isa, len: usize) -> Vec<Vec<u32>> {
        let (w0, g0, v0) = (
            edge_values(len, 0),
            edge_values(len, 1),
            edge_values(len, 2),
        );
        let mut out = Vec::new();
        let (mut w, mut v) = (w0.clone(), v0.clone());
        sgd_momentum_slices(isa, &mut w, &g0, &mut v, STEP);
        out.extend([bits(&w), bits(&v)]);
        let (mut w, mut g, mut v) = (w0.clone(), g0.clone(), v0.clone());
        sgd_momentum_zero_grad_slices(isa, &mut w, &mut g, &mut v, STEP);
        out.extend([bits(&w), bits(&g), bits(&v)]);
        let mut a = w0.clone();
        lerp_slices(isa, &mut a, &g0, 0.3679);
        out.push(bits(&a));
        for n in [1, 3, 4] {
            let mut rows: Vec<Vec<f32>> = (0..n).map(|r| edge_values(len, r)).collect();
            let mut views: Vec<&mut [f32]> = rows.iter_mut().map(|r| &mut r[..]).collect();
            replica_mean_slices(isa, &mut views, 1.0 / n as f32);
            out.extend(rows.iter().map(|r| bits(r)));
        }
        out
    }

    /// Portable and AVX2 instantiations of every parameter sweep are
    /// bitwise equal, on lengths around the lane widths and with signed
    /// zeros, infinities and NaNs in every operand.
    #[test]
    fn sweeps_agree_across_instantiations_bitwise() {
        let Some(avx2) = crate::isa::avx2_or_skip("sweeps_agree_across_instantiations_bitwise")
        else {
            return;
        };
        for len in LENGTHS {
            let portable = all_sweeps(Isa::PORTABLE, len);
            let wide = all_sweeps(avx2, len);
            for (i, (p, w)) in portable.iter().zip(&wide).enumerate() {
                assert_eq!(p, w, "sweep output {i} at length {len}");
            }
        }
    }

    /// Each sweep computes exactly the loop it replaced — the indexed
    /// optimizer step, the Eq. 5 merge, the engine's `mean_of` — whichever
    /// instantiation runs.
    #[test]
    fn sweeps_match_the_scalar_definitions() {
        let avx2 = crate::isa::avx2_or_skip("sweeps_match_the_scalar_definitions");
        for isa in [Some(Isa::PORTABLE), avx2].into_iter().flatten() {
            for len in LENGTHS {
                let got = all_sweeps(isa, len);
                let (w0, g0, v0) = (
                    edge_values(len, 0),
                    edge_values(len, 1),
                    edge_values(len, 2),
                );
                let (mut w, mut v) = (w0.clone(), v0.clone());
                sgd_reference(&mut w, &g0, &mut v, STEP);
                let what = |sweep: &str| format!("{sweep}, length {len}, {}", isa.name());
                assert_eq!(got[0], bits(&w), "{}", what("sgd w"));
                assert_eq!(got[1], bits(&v), "{}", what("sgd v"));
                assert_eq!(got[2], bits(&w), "{}", what("fused sgd w"));
                assert_eq!(got[3], bits(&vec![0.0; len]), "{}", what("fused sgd g"));
                assert_eq!(got[4], bits(&v), "{}", what("fused sgd v"));
                let mut a = w0.clone();
                merge_reference(&mut a, &g0, 0.3679);
                assert_eq!(got[5], bits(&a), "{}", what("lerp"));
                let mut next = 6;
                for n in [1, 3, 4] {
                    let rows: Vec<Vec<f32>> = (0..n).map(|r| edge_values(len, r)).collect();
                    let mean = bits(&mean_of(&rows));
                    for row in &got[next..next + n] {
                        assert_eq!(row, &mean, "{}", what("mean"));
                    }
                    next += n;
                }
            }
        }
    }

    /// The sums start from `+0.0`: a column that is `-0.0` in every replica
    /// averages to `+0.0`, as the materialised mean always gave.
    #[test]
    fn a_column_of_negative_zeros_averages_to_positive_zero() {
        let mut rows = vec![vec![-0.0f32; 9]; 3];
        let mut views: Vec<&mut [f32]> = rows.iter_mut().map(|r| &mut r[..]).collect();
        replica_mean(&mut views);
        for row in &rows {
            assert_eq!(bits(row), bits(&[0.0; 9]));
        }
    }

    /// The public entry points run the same sweeps — and the chunked,
    /// pooled mean equals the one-chunk reference at every pool size,
    /// across a chunk boundary and a ragged tail.
    #[test]
    fn public_entry_points_match_the_references() {
        let len = 2 * MEAN_CHUNK + 1027;
        let want = all_sweeps(Isa::PORTABLE, len);
        let (w0, g0, v0) = (
            edge_values(len, 0),
            edge_values(len, 1),
            edge_values(len, 2),
        );
        let (mut w, mut v) = (w0.clone(), v0.clone());
        sgd_momentum(&mut w, &g0, &mut v, STEP);
        assert_eq!((bits(&w), bits(&v)), (want[0].clone(), want[1].clone()));
        let (mut w, mut g, mut v) = (w0.clone(), g0.clone(), v0);
        sgd_momentum_zero_grad(&mut w, &mut g, &mut v, STEP);
        assert_eq!(
            [bits(&w), bits(&g), bits(&v)],
            [want[2].clone(), want[3].clone(), want[4].clone()]
        );
        let mut a = w0;
        lerp(&mut a, &g0, 0.3679);
        assert_eq!(bits(&a), want[5]);

        let rows: Vec<Vec<f32>> = (0..4).map(|r| edge_values(len, r)).collect();
        let mean = bits(&mean_of(&rows));
        for threads in [1, 2, 4] {
            crate::runtime::set_threads(threads);
            let mut rows = rows.clone();
            let mut views: Vec<&mut [f32]> = rows.iter_mut().map(|r| &mut r[..]).collect();
            replica_mean(&mut views);
            for row in &rows {
                assert_eq!(bits(row), mean, "{threads} threads");
            }
        }
        replica_mean(&mut []);
    }

    #[test]
    #[should_panic(expected = "rows differ in length: [3, 2]")]
    fn replica_mean_refuses_rows_of_unequal_length() {
        let (mut a, mut b) = (vec![1.0f32; 3], vec![1.0f32; 2]);
        replica_mean(&mut [&mut a[..], &mut b[..]]);
    }
}
