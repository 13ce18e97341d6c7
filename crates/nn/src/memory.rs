//! Training-memory estimation.
//!
//! Each Snapdragon 865 SoC carries 12 GB of LPDDR5 shared with the OS and
//! any co-located user workloads, so the global scheduler must check that a
//! training job *fits* before dispatching it (the paper cites Melon, its
//! ref. 95, for on-device memory pressure). The estimate covers the classic
//! training-footprint terms: weights, gradients, optimizer state and
//! activations retained for the backward pass.

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
    /// Optimizer state (SGD momentum: one slot per parameter).
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

/// Activation memory per layer, in multiples of the batch's input size:
/// CNN stacks retain roughly one input-sized tensor per parameterized
/// layer (im2col patches dominate and are proportional to the input), and
/// twice that is conservative.
const ACTIVATION_FACTOR: f64 = 2.0;

/// Estimates the training footprint of a network with `params` learnable
/// scalars in `layers` layers, at `batch` samples of `input_elems` scalars
/// each, trained by SGD with momentum (one optimizer slot per parameter).
/// Activations take twice the batch's input size per layer.
pub fn estimate(params: usize, layers: usize, batch: usize, input_elems: usize) -> MemoryEstimate {
    let params = params as u64;
    let weights = params * 4;
    let gradients = params * 4;
    let optimizer = params * 4;
    let per_layer = (batch * input_elems * 4) as f64 * ACTIVATION_FACTOR;
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
    use crate::models::{LayerSpec, ModelConfig, ModelKind};

    /// The estimate for `kind` at `cfg`, counted off its layer table.
    fn of(kind: ModelKind, cfg: ModelConfig, batch: usize, input_elems: usize) -> MemoryEstimate {
        let table = kind.layers(cfg);
        let params = table.iter().map(LayerSpec::params).sum();
        estimate(params, table.len(), batch, input_elems)
    }

    #[test]
    fn scaled_models_fit_comfortably() {
        let est = of(
            ModelKind::Vgg11,
            ModelConfig::new(3, 8, 10, 0.22),
            64,
            3 * 8 * 8,
        );
        assert!(est.fits_soc());
        assert!(est.total() > 0);
        assert_eq!(est.weights, est.gradients);
        assert_eq!(est.optimizer, est.weights);
    }

    #[test]
    fn activations_scale_with_batch() {
        let cfg = ModelConfig::new(1, 8, 10, 0.5);
        let small = of(ModelKind::LeNet5, cfg, 16, 64);
        let big = of(ModelKind::LeNet5, cfg, 64, 64);
        assert_eq!(big.activations, small.activations * 4);
    }

    #[test]
    fn absurd_batch_blows_the_budget() {
        let cfg = ModelConfig::new(3, 8, 10, 0.25);
        // 100M samples of 3·32·32 won't fit 8 GB
        let est = of(ModelKind::Vgg11, cfg, 100_000_000, 3 * 32 * 32);
        assert!(!est.fits_soc());
    }
}
