//! Training-memory estimation.
//!
//! Each Snapdragon 865 SoC carries 12 GB of LPDDR5 shared with the OS and
//! any co-located user workloads, so the global scheduler must check that a
//! training job *fits* before dispatching it (the paper cites Melon, its
//! ref. 95, for on-device memory pressure). The estimate covers the classic
//! training-footprint terms: weights, gradients, optimizer state and
//! activations retained for the backward pass.

use crate::Network;

/// Bytes of one SoC's memory budget available to training (12 GB chip,
/// ~4 GB reserved for Android + the hosted service).
pub const SOC_TRAIN_BUDGET_BYTES: u64 = 8 * 1024 * 1024 * 1024;

/// A breakdown of estimated training memory, bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryEstimate {
    /// Model weights (FP32).
    pub weights: u64,
    /// Gradient buffers (FP32, same shape as weights).
    pub gradients: u64,
    /// Optimizer state (momentum: 1×; Adam: 2×).
    pub optimizer: u64,
    /// Activations retained for backward, for one batch.
    pub activations: u64,
}

impl MemoryEstimate {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.weights + self.gradients + self.optimizer + self.activations
    }

    /// `true` if the job fits one SoC's training budget.
    pub fn fits_soc(&self) -> bool {
        self.total() <= SOC_TRAIN_BUDGET_BYTES
    }
}

/// Estimates the training footprint of `net` at `batch` samples of
/// `input_elems` scalars each.
///
/// Activation memory is approximated as `activation_factor` × the input
/// size per layer — CNN stacks retain roughly one input-sized tensor per
/// parameterized layer (im2col patches dominate and are proportional to
/// the input); 2.0 is a conservative default.
pub fn estimate(
    net: &Network,
    batch: usize,
    input_elems: usize,
    optimizer_slots: u64,
    activation_factor: f64,
) -> MemoryEstimate {
    estimate_counts(
        net.param_count(),
        net.num_layers(),
        batch,
        input_elems,
        optimizer_slots,
        activation_factor,
    )
}

/// [`estimate`] from the two counts it reads of a network, for callers
/// that know them without holding the network.
pub fn estimate_counts(
    params: usize,
    layers: usize,
    batch: usize,
    input_elems: usize,
    optimizer_slots: u64,
    activation_factor: f64,
) -> MemoryEstimate {
    let params = params as u64;
    let weights = params * 4;
    let gradients = params * 4;
    let optimizer = params * 4 * optimizer_slots;
    let per_layer = (batch * input_elems * 4) as f64 * activation_factor;
    let activations = (per_layer * layers as f64) as u64;
    MemoryEstimate {
        weights,
        gradients,
        optimizer,
        activations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{self, ModelConfig, ModelKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scaled_models_fit_comfortably() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = ModelKind::Vgg11.build(ModelConfig::new(3, 8, 10, 0.22), &mut rng);
        let est = estimate(&net, 64, 3 * 8 * 8, 1, 2.0);
        assert!(est.fits_soc());
        assert!(est.total() > 0);
        assert_eq!(est.weights, est.gradients);
    }

    #[test]
    fn adam_doubles_optimizer_state() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = models::mlp(&[64, 128, 10], &mut rng);
        let sgd = estimate(&net, 32, 64, 1, 2.0);
        let adam = estimate(&net, 32, 64, 2, 2.0);
        assert_eq!(adam.optimizer, sgd.optimizer * 2);
        assert_eq!(adam.weights, sgd.weights);
    }

    #[test]
    fn activations_scale_with_batch() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = models::mlp(&[64, 64, 10], &mut rng);
        let small = estimate(&net, 16, 64, 1, 2.0);
        let big = estimate(&net, 64, 64, 1, 2.0);
        assert_eq!(big.activations, small.activations * 4);
    }

    #[test]
    fn absurd_batch_blows_the_budget() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = ModelKind::Vgg11.build(ModelConfig::new(3, 8, 10, 0.25), &mut rng);
        // 100M samples of 3·32·32 won't fit 8 GB
        let est = estimate(&net, 100_000_000, 3 * 32 * 32, 1, 2.0);
        assert!(!est.fits_soc());
    }
}
