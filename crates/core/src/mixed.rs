//! The data-parallel mixed-precision controller (paper §3.2).
//!
//! Each SoC trains two model instances in parallel — FP32 on the CPU and
//! INT8 on the NPU — on disjoint portions of every batch, then merges their
//! weights on-chip before cross-SoC synchronization. Two metrics steer the
//! split:
//!
//! - **α (confidence, Eq. 4)**: cosine similarity between FP32 and INT8
//!   logits on a probe set, refreshed every epoch. Cosine decays slowly as INT8
//!   error accumulates, so the controller uses `e^{-α}` as the CPU share —
//!   countering the exponential error accumulation with an exponential
//!   response.
//! - **β (compute-power ratio, Eq. 6)**: the NPU's share of the chip's
//!   combined throughput, profiled once before training. Feeding the NPU a
//!   β share equalizes both sides' finish times.
//!
//! The CPU receives `max(e^{-α}, 1−β)` of each batch (Eq. accompanying §3.2)
//! and weights merge as `w = e^{-α}·w_FP32 + (1−e^{-α})·w_INT8` (Eq. 5).

use serde::{Deserialize, Serialize};
use socflow_tensor::Tensor;

/// Steers the CPU/NPU batch split and the weight merge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixedPrecisionController {
    alpha: f32,
    beta: f32,
}

impl MixedPrecisionController {
    /// Creates a controller.
    ///
    /// `beta` is the NPU's compute-power share in `(0, 1)`
    /// ([`socflow_cluster::ComputeModel::beta`] profiles it). α starts at
    /// 1.0 — a fresh INT8 model tracks FP32 closely, so most data goes to
    /// the NPU at first.
    ///
    /// # Panics
    /// Panics if `beta` is outside `(0, 1)`.
    pub fn new(beta: f32) -> Self {
        assert!(beta > 0.0 && beta < 1.0, "beta must be in (0,1)");
        MixedPrecisionController { alpha: 1.0, beta }
    }

    /// Current α confidence.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// The profiled β compute-power ratio.
    pub fn beta(&self) -> f32 {
        self.beta
    }

    /// Refreshes α from probe-set logits of the two models (Eq. 4),
    /// clamping to `[0, 1]` (anti-correlated logits mean the INT8 model is
    /// useless: zero confidence).
    pub fn update_alpha(&mut self, logits_fp32: &Tensor, logits_int8: &Tensor) {
        self.alpha = logits_fp32.cosine_similarity(logits_int8).clamp(0.0, 1.0);
    }

    /// Overrides α directly (tests, "Ours-Half" ablation).
    pub fn set_alpha(&mut self, alpha: f32) {
        self.alpha = alpha.clamp(0.0, 1.0);
    }

    /// Fraction of each batch the CPU (FP32) model must receive:
    /// `max(e^{-α}, 1−β)`.
    pub fn cpu_fraction(&self) -> f32 {
        (-self.alpha).exp().max(1.0 - self.beta)
    }

    /// Fraction of each batch the NPU (INT8) model receives.
    pub fn npu_fraction(&self) -> f32 {
        1.0 - self.cpu_fraction()
    }

    /// Splits a batch of `n` samples into `(cpu_n, npu_n)`.
    ///
    /// Invariants:
    ///
    /// - `cpu + npu == n`;
    /// - the CPU side is non-empty for `n > 0` (the FP32 stream anchors
    ///   convergence);
    /// - the NPU side is non-empty whenever `n >= 2` and
    ///   [`Self::npu_fraction`] is positive: rounding toward the CPU must
    ///   not starve the NPU stream, or on tiny per-SoC batches the INT8
    ///   model would never train and α would silently pin the split at
    ///   whatever the stale confidence says. `npu_fraction() == 0` only
    ///   when α = 0 exactly (`cpu_fraction` saturates at 1), and there the
    ///   all-CPU split is intended.
    pub fn split_batch(&self, n: usize) -> (usize, usize) {
        if n == 0 {
            return (0, 0);
        }
        let mut cpu = ((self.cpu_fraction() * n as f32).round() as usize).clamp(1, n);
        if n >= 2 && self.npu_fraction() > 0.0 && cpu == n {
            cpu = n - 1;
        }
        (cpu, n - cpu)
    }

    /// Merges per-parameter weights (Eq. 5):
    /// `w = e^{-α}·w_FP32 + (1−e^{-α})·w_INT8`.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn merge_weights(&self, w_fp32: &[f32], w_int8: &[f32]) -> Vec<f32> {
        let mut out = w_fp32.to_vec();
        self.merge_weights_inplace(&mut out, w_int8);
        out
    }

    /// [`MixedPrecisionController::merge_weights`] merging into the FP32
    /// slice in place — the per-batch merge runs it over each parameter's
    /// own storage.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn merge_weights_inplace(&self, w_fp32: &mut [f32], w_int8: &[f32]) {
        socflow_tensor::sweep::lerp(w_fp32, w_int8, (-self.alpha).exp());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_controller_favours_npu() {
        let c = MixedPrecisionController::new(0.75); // NPU 3x CPU power
                                                     // α = 1 → e^{-1} ≈ 0.368 > 1-β = 0.25 → CPU gets ~37%
        assert!((c.cpu_fraction() - (-1.0f32).exp()).abs() < 1e-6);
        assert!(c.npu_fraction() > 0.6);
    }

    #[test]
    fn low_confidence_shifts_to_cpu() {
        let mut c = MixedPrecisionController::new(0.75);
        c.set_alpha(0.0);
        assert!((c.cpu_fraction() - 1.0).abs() < 1e-6, "α=0 → all CPU");
        assert_eq!(c.split_batch(64), (64, 0));
    }

    #[test]
    fn compute_bound_floor_applies() {
        // weak NPU (β = 0.2): even at α = 1 the CPU must take 1-β = 0.8
        let c = MixedPrecisionController::new(0.2);
        assert!((c.cpu_fraction() - 0.8).abs() < 1e-6);
    }

    #[test]
    fn update_alpha_from_logits() {
        let mut c = MixedPrecisionController::new(0.7);
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]);
        c.update_alpha(&a, &a);
        assert!((c.alpha() - 1.0).abs() < 1e-6);
        c.update_alpha(&a, &a.scale(-1.0));
        assert_eq!(c.alpha(), 0.0);
    }

    #[test]
    fn split_batch_keeps_cpu_nonempty() {
        let c = MixedPrecisionController::new(0.9); // NPU dominant
        let (cpu, npu) = c.split_batch(64);
        assert!(cpu >= 1);
        assert_eq!(cpu + npu, 64);
        assert_eq!(c.split_batch(0), (0, 0));
        // single sample goes to CPU
        assert_eq!(c.split_batch(1), (1, 0));
    }

    #[test]
    fn split_batch_never_starves_the_npu() {
        // weak NPU (β = 0.1): cpu_fraction = 0.9, and round(0.9·n) == n for
        // tiny n — without the guard the NPU stream would get zero samples
        let c = MixedPrecisionController::new(0.1);
        assert!(c.npu_fraction() > 0.0);
        assert_eq!(c.split_batch(1), (1, 0)); // n = 1: CPU anchor wins
        assert_eq!(c.split_batch(2), (1, 1));
        assert_eq!(c.split_batch(3), (2, 1));
        // α = 0 saturates cpu_fraction at 1.0: all-CPU is intended there
        let mut c0 = MixedPrecisionController::new(0.1);
        c0.set_alpha(0.0);
        assert_eq!(c0.split_batch(3), (3, 0));
    }

    #[test]
    fn merge_weights_eq5() {
        let mut c = MixedPrecisionController::new(0.5);
        c.set_alpha(0.0); // k = 1 → pure FP32
        assert_eq!(c.merge_weights(&[2.0], &[10.0]), vec![2.0]);
        c.set_alpha(1.0); // k = e^{-1}
        let k = (-1.0f32).exp();
        let m = c.merge_weights(&[2.0], &[10.0]);
        assert!((m[0] - (k * 2.0 + (1.0 - k) * 10.0)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "beta must be")]
    fn rejects_invalid_beta() {
        MixedPrecisionController::new(1.0);
    }
}
