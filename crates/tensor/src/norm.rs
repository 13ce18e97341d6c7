//! Batch normalisation's arithmetic: the four sweeps a batch-norm layer
//! makes over an NCHW batch of `n` samples, `c` channels and `hw`
//! positions per plane ([`Planes`]).
//!
//! - [`moments`]: each channel's mean and (biased) variance, from `f64`
//!   sums of `x` and `x²`;
//! - [`normalize`]: `x̂ = (x − mean)·inv_std` and `y = γ·x̂ + β`, keeping
//!   `x̂` for a training pass;
//! - [`grad_sums`]: each channel's `f32` `Σ ∂y` and `Σ ∂y·x̂`;
//! - [`input_grad`]: `∂x = k·(per·∂y − Σ∂y − x̂·Σ∂y·x̂)` with
//!   `k = γ·inv_std / per` and `per = n·hw`.
//!
//! **Sums in their one order.** Every channel's sum adds its elements in
//! ascending `(sample, position)` order, one chain from `+0.0`, as a plain
//! loop over the channel's planes would. The sweeps walk the batch
//! sample-outer and run many channels' chains at once, so they hide each
//! other's add latency: on maps of 1, 2, 4 or 8 positions a run of up to
//! 256 channels' sums sits on the stack and each sample adds into it in one
//! loop with lanes across channels; on other maps blocks of 8 channels keep
//! their chains in registers. A NaN sum is summed again with its operand
//! order spelt out (`add_first`): only a NaN's payload can tell the order
//! codegen chose.
//!
//! **Flat runs on small maps.** The elementwise sweeps take a channel's
//! constants as scalars over a plane of 32 or more positions. A smaller
//! plane is one or two vectors, too short to pay for its loop, so the
//! constants of a block of channels are laid over one sample's run of the
//! block once per call, on the stack, and every sample's run is one flat
//! vectorised loop.
//!
//! Like the [`crate::sweep`]s they are instantiated three times (portable,
//! AVX2, AVX-512, see [`crate::isa`]) from one source, and every element and
//! every sum sees the same scalar operations in the same order on all
//! three. They do not go to the worker pool: a 64×113×1×1 batch is 7,232
//! elements, a 64×12×8×8 one 49,152, below the pool's 2¹⁷-element floor,
//! and on a 2-vCPU AVX-512 host a 4-way channel split of the forward
//! measured ×0.955 of the serial sweep's `train_ring_fp32` wall time and
//! lost 2 of 6 pairs. Each call
//! counts one `batch_norm` call in [`crate::profile`].

use crate::isa::{isa_kernel, Isa};
use crate::profile::{KernelOp, Timer};
use crate::Shape;

/// Channels whose two sums' chains [`channel_sums`] keeps live at once.
const STAT_BLOCK: usize = 8;

/// Maps with fewer positions run the elementwise sweeps flat.
const FLAT_BELOW: usize = 32;

/// Elements of one flat run: what the constants laid over a block of
/// channels cover, on the stack.
const RUN: usize = 256;

/// The geometry of a batch-norm sweep: `n` samples of `c` channels of `hw`
/// positions, stored NCHW.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planes {
    /// Samples.
    pub n: usize,
    /// Channels.
    pub c: usize,
    /// Positions per plane, `h·w`.
    pub hw: usize,
}

impl Planes {
    /// The planes of a rank-4 `(n, c, h, w)` shape.
    ///
    /// # Panics
    /// Panics if `shape` is not rank-4.
    pub fn of(shape: &Shape) -> Planes {
        let (n, c, h, w) = shape.as_nchw();
        Planes { n, c, hw: h * w }
    }

    /// Elements of the batch.
    fn len(self) -> usize {
        self.n * self.c * self.hw
    }

    /// `n·hw`, the elements behind each channel's statistics.
    fn per(self) -> usize {
        self.n * self.hw
    }

    /// Asserts the batch-sized and channel-sized slices of a sweep.
    fn check(self, sweep: &str, batch: &[usize], channels: &[usize]) {
        assert!(
            batch.iter().all(|&len| len == self.len()),
            "{sweep}: batch slices of {batch:?} elements for {self:?}"
        );
        assert!(
            channels.iter().all(|&len| len == self.c),
            "{sweep}: channel slices of {channels:?} elements for {} channels",
            self.c
        );
    }
}

/// The per-channel constants of a [`normalize`] pass.
#[derive(Debug, Clone, Copy)]
pub struct Affine<'a> {
    /// The mean subtracted: the batch's in training, the running one in
    /// evaluation.
    pub mean: &'a [f32],
    /// `1 / √(var + ε)`.
    pub inv_std: &'a [f32],
    /// The scale γ.
    pub gamma: &'a [f32],
    /// The shift β.
    pub beta: &'a [f32],
}

/// A channel's constant over a run: one scalar over a plane, or a slice of
/// the constants laid over a flat run.
trait PerElement: Copy {
    fn at(self, i: usize) -> f32;
}

impl PerElement for f32 {
    #[inline(always)]
    fn at(self, _: usize) -> f32 {
        self
    }
}

impl PerElement for &[f32] {
    #[inline(always)]
    fn at(self, i: usize) -> f32 {
        self[i]
    }
}

/// `a + b` where both may be NaN: `a`'s NaN, quieted, whenever `a` is one —
/// what x86 gives with `a` as the first operand, whichever order codegen
/// puts the operands in (it commutes an add or a multiply freely, to fold a
/// load or spare a copy, and only the NaN payload can tell).
#[inline(always)]
fn add_first<T: Float>(a: T, b: T) -> T {
    if a.is_nan() {
        a + a
    } else {
        a + b
    }
}

/// `a · b` with `a`'s NaN first, as [`add_first`].
#[inline(always)]
fn mul_first(a: f32, b: f32) -> f32 {
    if a.is_nan() {
        a + a
    } else {
        a * b
    }
}

/// The two widths a chain of [`add_first`] runs in.
trait Float: Copy + std::ops::Add<Output = Self> {
    const ZERO: Self;
    fn is_nan(self) -> bool;
}

impl Float for f32 {
    const ZERO: f32 = 0.0;
    #[inline(always)]
    fn is_nan(self) -> bool {
        f32::is_nan(self)
    }
}

impl Float for f64 {
    const ZERO: f64 = 0.0;
    #[inline(always)]
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }
}

/// An elementwise sweep over runs of elements whose channel constants
/// `[f32; K]` come as one [`PerElement`] each.
trait Elementwise<const K: usize> {
    /// The run of `len` elements at `at`.
    fn run<E: PerElement>(&mut self, at: usize, len: usize, consts: [E; K]);
}

/// Runs `sweep` over the batch, each channel's constants `consts(ci)`: a
/// plane at a time with scalar constants on maps of [`FLAT_BELOW`] or more
/// positions; on smaller ones a block of channels' constants is laid over
/// one sample's run of the block ([`RUN`] elements at most, on the stack)
/// and every sample's run of that block is one flat sweep.
#[inline(always)]
fn for_each_run<const K: usize>(
    p: Planes,
    consts: impl Fn(usize) -> [f32; K],
    sweep: &mut impl Elementwise<K>,
) {
    if p.hw >= FLAT_BELOW {
        for s in 0..p.n {
            for ci in 0..p.c {
                sweep.run((s * p.c + ci) * p.hw, p.hw, consts(ci));
            }
        }
        return;
    }
    let chans = RUN / p.hw.max(1);
    let mut lanes = [[0.0f32; RUN]; K];
    for c0 in (0..p.c).step_by(chans) {
        let cb = chans.min(p.c - c0);
        let len = cb * p.hw;
        for j in 0..cb {
            for (lane, v) in lanes.iter_mut().zip(consts(c0 + j)) {
                lane[j * p.hw..(j + 1) * p.hw].fill(v);
            }
        }
        let runs: [&[f32]; K] = std::array::from_fn(|k| &lanes[k][..len]);
        for s in 0..p.n {
            sweep.run((s * p.c + c0) * p.hw, len, runs);
        }
    }
}

/// Two running sums per channel over the `K` inputs, each channel's in
/// ascending `(sample, position)` order from `+0.0`: `step(acc, v)` folds
/// in one element `v[k]` of every input, and `finish(ci, acc)` takes
/// channel `ci`'s sums. Maps of 1, 2, 4 or 8 positions run flat
/// ([`flat_sums`]); on the others blocks of [`STAT_BLOCK`] channels keep
/// their chains in registers ([`block_sums`]).
///
/// `step` is plain arithmetic, and codegen may put an add's or a multiply's
/// operands in either order: only a NaN result can tell (its payload), so a
/// channel whose sum comes out NaN is summed again by [`exact_sums`].
#[inline(always)]
fn channel_sums<T: Float, const K: usize>(
    p: Planes,
    inputs: [&[f32]; K],
    step: impl Fn([T; 2], [f32; K]) -> [T; 2],
    finish: &mut impl FnMut(usize, [T; 2]),
) {
    match p.hw {
        1 => return flat_sums::<T, K, 1>(p, inputs, &step, finish),
        2 => return flat_sums::<T, K, 2>(p, inputs, &step, finish),
        4 => return flat_sums::<T, K, 4>(p, inputs, &step, finish),
        8 => return flat_sums::<T, K, 8>(p, inputs, &step, finish),
        _ => {}
    }
    // blocks of STAT_BLOCK channels, then at most one each of 4, 2 and 1
    let mut c0 = 0;
    while c0 < p.c {
        let b = match p.c - c0 {
            left if left >= STAT_BLOCK => STAT_BLOCK,
            left if left >= 4 => 4,
            left if left >= 2 => 2,
            _ => 1,
        };
        match b {
            STAT_BLOCK => block_sums::<T, K, STAT_BLOCK>(p, c0, inputs, &step, finish),
            4 => block_sums::<T, K, 4>(p, c0, inputs, &step, finish),
            2 => block_sums::<T, K, 2>(p, c0, inputs, &step, finish),
            _ => block_sums::<T, K, 1>(p, c0, inputs, &step, finish),
        }
        c0 += b;
    }
}

/// [`channel_sums`] on a map of `HW` positions, a run of up to [`RUN`]
/// channels at a time: the run's sums live on the stack, and each sample
/// adds its run of `HW`-float planes into them in one loop over channels.
#[inline(always)]
fn flat_sums<T: Float, const K: usize, const HW: usize>(
    p: Planes,
    inputs: [&[f32]; K],
    step: &impl Fn([T; 2], [f32; K]) -> [T; 2],
    finish: &mut impl FnMut(usize, [T; 2]),
) {
    let mut acc = [[T::ZERO; RUN]; 2];
    for c0 in (0..p.c).step_by(RUN) {
        let cb = RUN.min(p.c - c0);
        let [a0, a1] = &mut acc;
        let (a0, a1) = (&mut a0[..cb], &mut a1[..cb]);
        a0.fill(T::ZERO);
        a1.fill(T::ZERO);
        for s in 0..p.n {
            let runs = inputs.map(|x| &x[(s * p.c + c0) * HW..][..cb * HW]);
            for j in 0..cb {
                let mut acc = [a0[j], a1[j]];
                for q in 0..HW {
                    acc = step(acc, runs.map(|r| r[j * HW + q]));
                }
                [a0[j], a1[j]] = acc;
            }
        }
        for j in 0..cb {
            finish(c0 + j, [a0[j], a1[j]]);
        }
    }
}

/// [`channel_sums`] over the `B` channels from `c0` on a map of more than
/// one position.
#[inline(always)]
fn block_sums<T: Float, const K: usize, const B: usize>(
    p: Planes,
    c0: usize,
    inputs: [&[f32]; K],
    step: &impl Fn([T; 2], [f32; K]) -> [T; 2],
    finish: &mut impl FnMut(usize, [T; 2]),
) {
    let hw = p.hw;
    let (mut a0, mut a1) = ([T::ZERO; B], [T::ZERO; B]);
    for s in 0..p.n {
        let base = (s * p.c + c0) * hw;
        let blocks = inputs.map(|x| &x[base..base + B * hw]);
        for q in 0..hw {
            for j in 0..B {
                // SAFETY: `j < B` and `q < hw`, so `j·hw + q < B·hw`, the
                // length of every block
                let v = blocks.map(|b| unsafe { *b.get_unchecked(j * hw + q) });
                [a0[j], a1[j]] = step([a0[j], a1[j]], v);
            }
        }
    }
    for j in 0..B {
        finish(c0 + j, [a0[j], a1[j]]);
    }
}

/// Channel `ci`'s two sums with `step(acc, i)` folding in element `i` of
/// the batch, one element at a time: the slow path of [`channel_sums`],
/// whose `step` spells out which NaN wins ([`add_first`]).
fn exact_sums<T: Float>(p: Planes, ci: usize, step: impl Fn([T; 2], usize) -> [T; 2]) -> [T; 2] {
    let mut acc = [T::ZERO; 2];
    for s in 0..p.n {
        let base = (s * p.c + ci) * p.hw;
        for i in base..base + p.hw {
            acc = step(acc, i);
        }
    }
    acc
}

isa_kernel! {
    fn moments_slices(x: &[f32], p: Planes, mean: &mut [f32], var: &mut [f32]) = moments_body;
}

#[inline(always)]
fn moments_body(x: &[f32], p: Planes, mean: &mut [f32], var: &mut [f32]) {
    let per = p.per() as f64;
    let mut finish = |ci: usize, [sum, sum_sq]: [f64; 2]| {
        let [sum, sum_sq] = match sum.is_nan() || sum_sq.is_nan() {
            true => exact_sums(p, ci, |[s, s2], i| {
                let v = x[i] as f64;
                [add_first(s, v), add_first(s2, v * v)]
            }),
            false => [sum, sum_sq],
        };
        let m = (sum / per) as f32;
        mean[ci] = m;
        var[ci] = ((sum_sq / per) - (m as f64) * (m as f64)).max(0.0) as f32;
    };
    let add = |[s, s2]: [f64; 2], [v]: [f32; 1]| {
        let v = v as f64;
        [s + v, s2 + v * v]
    };
    channel_sums(p, [x], add, &mut finish);
}
/// Each channel's batch mean and biased variance: `mean = (Σx / per) as
/// f32` and `var = max(Σx² / per − mean², 0) as f32` with the sums in
/// `f64` and `per = n·hw` (a NaN variance reads `0`).
///
/// # Panics
/// Panics unless `x` holds the batch and `mean`, `var` one value per
/// channel.
pub fn moments(x: &[f32], p: Planes, mean: &mut [f32], var: &mut [f32]) {
    p.check("moments", &[x.len()], &[mean.len(), var.len()]);
    let _timer = Timer::start(KernelOp::BatchNorm);
    moments_slices(Isa::active(), x, p, mean, var);
}

isa_kernel! {
    fn normalize_slices(x: &[f32], p: Planes, a: Affine<'_>, xhat: Option<&mut [f32]>, y: &mut [f32])
        = normalize_body;
}

#[inline(always)]
fn normalize_body(x: &[f32], p: Planes, a: Affine<'_>, xhat: Option<&mut [f32]>, y: &mut [f32]) {
    let consts = |ci: usize| [a.mean[ci], a.inv_std[ci], a.gamma[ci], a.beta[ci]];
    for_each_run(p, consts, &mut Normalize { x, xhat, y });
}

/// The operands of a [`normalize`] pass; `x̂` is kept when `Some`.
struct Normalize<'a> {
    x: &'a [f32],
    xhat: Option<&'a mut [f32]>,
    y: &'a mut [f32],
}

impl Elementwise<4> for Normalize<'_> {
    #[inline(always)]
    fn run<E: PerElement>(&mut self, at: usize, len: usize, [mean, inv_std, gamma, beta]: [E; 4]) {
        let (x, y) = (&self.x[at..at + len], &mut self.y[at..at + len]);
        match self.xhat.as_deref_mut() {
            Some(xhat) => {
                let xhat = &mut xhat[at..at + len];
                for i in 0..len {
                    let xh = (x[i] - mean.at(i)) * inv_std.at(i);
                    xhat[i] = xh;
                    y[i] = gamma.at(i) * xh + beta.at(i);
                }
            }
            None => {
                for i in 0..len {
                    let xh = (x[i] - mean.at(i)) * inv_std.at(i);
                    y[i] = gamma.at(i) * xh + beta.at(i);
                }
            }
        }
    }
}

/// `x̂ = (x − mean)·inv_std` and `y = γ·x̂ + β`, element by element with
/// each element's channel constants; `x̂` is written only when `xhat` is
/// `Some`.
///
/// # Panics
/// Panics unless `x`, `y` (and `xhat`) hold the batch and every slice of
/// `a` one value per channel.
pub fn normalize(x: &[f32], p: Planes, a: Affine<'_>, xhat: Option<&mut [f32]>, y: &mut [f32]) {
    let xhat_len = xhat.as_ref().map_or(p.len(), |t| t.len());
    let channels = [a.mean, a.inv_std, a.gamma, a.beta].map(<[f32]>::len);
    p.check("normalize", &[x.len(), y.len(), xhat_len], &channels);
    let _timer = Timer::start(KernelOp::BatchNorm);
    normalize_slices(Isa::active(), x, p, a, xhat, y);
}

isa_kernel! {
    fn grad_sums_slices(gy: &[f32], xhat: &[f32], p: Planes, sum_gy: &mut [f32], sum_gy_xh: &mut [f32])
        = grad_sums_body;
}

#[inline(always)]
fn grad_sums_body(gy: &[f32], xhat: &[f32], p: Planes, sum_gy: &mut [f32], sum_gy_xh: &mut [f32]) {
    let mut finish = |ci: usize, [s, sx]: [f32; 2]| {
        let [s, sx] = match s.is_nan() || sx.is_nan() {
            true => exact_sums(p, ci, |[s, sx], i| {
                [
                    add_first(s, gy[i]),
                    add_first(sx, mul_first(gy[i], xhat[i])),
                ]
            }),
            false => [s, sx],
        };
        sum_gy[ci] = s;
        sum_gy_xh[ci] = sx;
    };
    let add = |[s, sx]: [f32; 2], [g, h]: [f32; 2]| [s + g, sx + g * h];
    channel_sums(p, [gy, xhat], add, &mut finish);
}

/// Each channel's `Σ ∂y` and `Σ ∂y·x̂` in `f32`, in ascending `(sample,
/// position)` order from `+0.0`.
///
/// # Panics
/// Panics unless `gy` and `xhat` hold the batch and `sum_gy`, `sum_gy_xh`
/// one value per channel.
pub fn grad_sums(gy: &[f32], xhat: &[f32], p: Planes, sum_gy: &mut [f32], sum_gy_xh: &mut [f32]) {
    p.check(
        "grad_sums",
        &[gy.len(), xhat.len()],
        &[sum_gy.len(), sum_gy_xh.len()],
    );
    let _timer = Timer::start(KernelOp::BatchNorm);
    grad_sums_slices(Isa::active(), gy, xhat, p, sum_gy, sum_gy_xh);
}

/// The sums and constants of an [`input_grad`] pass, one value per channel.
#[derive(Debug, Clone, Copy)]
pub struct GradSums<'a> {
    /// The scale γ.
    pub gamma: &'a [f32],
    /// The forward's `1 / √(var + ε)`.
    pub inv_std: &'a [f32],
    /// [`grad_sums`]' `Σ ∂y`.
    pub sum_gy: &'a [f32],
    /// [`grad_sums`]' `Σ ∂y·x̂`.
    pub sum_gy_xh: &'a [f32],
}

isa_kernel! {
    fn input_grad_slices(gy: &[f32], xhat: &[f32], p: Planes, s: GradSums<'_>, gx: &mut [f32])
        = input_grad_body;
}

#[inline(always)]
fn input_grad_body(gy: &[f32], xhat: &[f32], p: Planes, s: GradSums<'_>, gx: &mut [f32]) {
    let per = p.per() as f32;
    let consts = |ci: usize| {
        let k = s.gamma[ci] * s.inv_std[ci] / per;
        [k, s.sum_gy[ci], s.sum_gy_xh[ci]]
    };
    for_each_run(p, consts, &mut InputGrad { gy, xhat, per, gx });
}

/// The operands of an [`input_grad`] pass.
struct InputGrad<'a> {
    gy: &'a [f32],
    xhat: &'a [f32],
    per: f32,
    gx: &'a mut [f32],
}

impl Elementwise<3> for InputGrad<'_> {
    #[inline(always)]
    fn run<E: PerElement>(&mut self, at: usize, len: usize, [k, sum_gy, sum_gy_xh]: [E; 3]) {
        let (gy, xhat) = (&self.gy[at..at + len], &self.xhat[at..at + len]);
        let gx = &mut self.gx[at..at + len];
        for i in 0..len {
            let d = self.per * gy[i] - sum_gy.at(i) - mul_first(xhat[i], sum_gy_xh.at(i));
            gx[i] = k.at(i) * d;
        }
    }
}

/// `∂x = k·(per·∂y − Σ∂y − x̂·Σ∂y·x̂)`, element by element with each
/// element's channel's `k = γ·inv_std / per` (`per = n·hw`) and sums.
///
/// # Panics
/// Panics unless `gy`, `xhat` and `gx` hold the batch and every slice of
/// `s` one value per channel.
pub fn input_grad(gy: &[f32], xhat: &[f32], p: Planes, s: GradSums<'_>, gx: &mut [f32]) {
    let channels = [s.gamma, s.inv_std, s.sum_gy, s.sum_gy_xh].map(<[f32]>::len);
    p.check("input_grad", &[gy.len(), xhat.len(), gx.len()], &channels);
    let _timer = Timer::start(KernelOp::BatchNorm);
    input_grad_slices(Isa::active(), gy, xhat, p, s, gx);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `len` values in `[-2, 2)` from a fixed generator, with — when
    /// `special` — one in eleven a signed zero, an infinity, a subnormal or
    /// a NaN of one of two payloads, so NaNs meet NaNs in every sum.
    fn values(len: usize, seed: u64, special: bool) -> Vec<f32> {
        let specials = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(0x7fc5_e471),
            f32::MIN_POSITIVE / 4.0,
        ];
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let u = (state >> 40) as f32 / (1u64 << 24) as f32;
                match state % 11 {
                    0 if special => specials[(state >> 8) as usize % specials.len()],
                    _ => 4.0 * u - 2.0,
                }
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every sweep on `isa` over one batch, as comparable bits: mean and
    /// variance, a training normalise (`x̂`, `y`), an evaluation one, the
    /// gradient sums and the input gradient.
    fn all_sweeps(isa: Isa, p: Planes, special: bool) -> Vec<Vec<u32>> {
        let len = p.n * p.c * p.hw;
        let (x, gy) = (values(len, 1, special), values(len, 2, special));
        let (gamma, beta) = (values(p.c, 3, false), values(p.c, 4, false));
        let (mut mean, mut var) = (vec![0.0; p.c], vec![0.0; p.c]);
        moments_slices(isa, &x, p, &mut mean, &mut var);
        let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + 1e-5).sqrt()).collect();
        let a = Affine {
            mean: &mean,
            inv_std: &inv_std,
            gamma: &gamma,
            beta: &beta,
        };
        let (mut xhat, mut y, mut ye) = (vec![0.0; len], vec![0.0; len], vec![0.0; len]);
        normalize_slices(isa, &x, p, a, Some(&mut xhat), &mut y);
        normalize_slices(isa, &gy, p, a, None, &mut ye);
        let (mut sum_gy, mut sum_gy_xh) = (vec![0.0; p.c], vec![0.0; p.c]);
        grad_sums_slices(isa, &gy, &xhat, p, &mut sum_gy, &mut sum_gy_xh);
        let mut gx = vec![0.0; len];
        let s = GradSums {
            gamma: &gamma,
            inv_std: &inv_std,
            sum_gy: &sum_gy,
            sum_gy_xh: &sum_gy_xh,
        };
        input_grad_slices(isa, &gy, &xhat, p, s, &mut gx);
        [&mean, &var, &xhat, &y, &ye, &sum_gy, &sum_gy_xh, &gx]
            .map(|v| bits(v))
            .to_vec()
    }

    /// The workloads' geometries — channel counts on and off the channel
    /// blocks, 1 to 64 positions, 1 to 64 samples — and maps of 2, 6, 8, 9,
    /// 25 and 36 positions, which take the sums' other paths.
    fn geometries() -> impl Iterator<Item = Planes> {
        let workloads = [1, 5, 64].into_iter().flat_map(|n| {
            [12, 23, 46, 92, 113]
                .into_iter()
                .flat_map(move |c| [1, 4, 16, 64].map(|hw| Planes { n, c, hw }))
        });
        let odd = [2, 6, 8, 9, 25, 36].map(|hw| Planes { n: 3, c: 13, hw });
        workloads.chain(odd)
    }

    /// The portable, AVX2 and AVX-512 instantiations of the four sweeps are
    /// bitwise equal — NaN payloads included, where NaNs meet in a sum or a
    /// product.
    #[test]
    fn sweeps_agree_across_instantiations_bitwise() {
        for isa in crate::isa::wide_or_skip("norm::sweeps_agree_across_instantiations_bitwise") {
            for p in geometries() {
                for special in [false, true] {
                    let portable = all_sweeps(Isa::PORTABLE, p, special);
                    for (i, (a, b)) in portable.iter().zip(all_sweeps(isa, p, special)).enumerate()
                    {
                        assert_eq!(
                            a,
                            &b,
                            "output {i}, {p:?}, special {special}, {}",
                            isa.name()
                        );
                    }
                }
            }
        }
    }

    /// The sums are the plain per-channel loops' — ascending `(sample,
    /// position)` from `+0.0`, the accumulator's NaN first — and the
    /// elementwise passes the plain per-element formulas, at every level.
    #[test]
    #[allow(clippy::needless_range_loop)] // a channel indexes four outputs
    fn sweeps_match_the_plain_loops() {
        let wide = crate::isa::wide_or_skip("norm::sweeps_match_the_plain_loops");
        for isa in [Isa::PORTABLE].into_iter().chain(wide) {
            for p in geometries().step_by(7) {
                for special in [false, true] {
                    let got = all_sweeps(isa, p, special);
                    let len = p.n * p.c * p.hw;
                    let (x, gy) = (values(len, 1, special), values(len, 2, special));
                    let at = |ci: usize| {
                        (0..p.n).flat_map(move |s| {
                            let base = (s * p.c + ci) * p.hw;
                            base..base + p.hw
                        })
                    };
                    let xhat: Vec<f32> = got[2].iter().map(|&b| f32::from_bits(b)).collect();
                    for ci in 0..p.c {
                        let (mut s, mut s2) = (0.0f64, 0.0f64);
                        let (mut g, mut gh) = (0.0f32, 0.0f32);
                        for i in at(ci) {
                            let v = x[i] as f64;
                            (s, s2) = (add_first(s, v), add_first(s2, v * v));
                            g = add_first(g, gy[i]);
                            gh = add_first(gh, mul_first(gy[i], xhat[i]));
                        }
                        let per = (p.n * p.hw) as f64;
                        let m = (s / per) as f32;
                        let var = ((s2 / per) - (m as f64) * (m as f64)).max(0.0) as f32;
                        let what =
                            format!("channel {ci}, {p:?}, special {special}, {}", isa.name());
                        assert_eq!(
                            [got[0][ci], got[1][ci]],
                            [m, var].map(f32::to_bits),
                            "{what}"
                        );
                        assert_eq!(
                            [got[5][ci], got[6][ci]],
                            [g, gh].map(f32::to_bits),
                            "{what}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "normalize: batch slices")]
    fn a_short_output_is_refused() {
        let p = Planes { n: 2, c: 3, hw: 4 };
        let (x, c) = (vec![0.0; 24], vec![1.0; 3]);
        let a = Affine {
            mean: &c,
            inv_std: &c,
            gamma: &c,
            beta: &c,
        };
        normalize(&x, p, a, None, &mut [0.0; 23]);
    }
}
