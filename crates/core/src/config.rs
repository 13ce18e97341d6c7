//! Job specifications: which workload, which method, which knobs.

use serde::{Deserialize, Serialize};
use socflow_data::stream::RateProfile;
use socflow_data::DatasetPreset;
use socflow_nn::models::ModelKind;

/// Configuration of the SoCFlow method proper. Integrity-greedy mapping
/// and communication-group planning are not settings: every SoCFlow run
/// uses both (paper §3.1); Fig. 13's ablation arms price their absence
/// directly (`bench paper`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SocFlowConfig {
    /// Number of logical groups; `None` lets the scheduler choose via the
    /// first-epoch heuristic (paper §3.1 "determining group size").
    pub groups: Option<usize>,
    /// Enable data-parallel mixed-precision training (CPU FP32 + NPU INT8).
    pub mixed_precision: bool,
    /// Number of independent SGD streams the *accuracy* simulation runs
    /// (`None` = one per logical group). Scaled datasets compress the
    /// steps-per-aggregation ratio (DESIGN.md §6): capping the stream
    /// count restores the paper's optimization regime while the time
    /// model keeps the full group topology — the same decoupling as
    /// `MAX_FL_REPLICAS` for the federated baselines.
    pub accuracy_streams: Option<usize>,
}

impl SocFlowConfig {
    /// Full SoCFlow: all techniques on, group count auto-selected.
    pub fn full() -> Self {
        SocFlowConfig {
            groups: None,
            mixed_precision: true,
            accuracy_streams: None,
        }
    }

    /// Full SoCFlow with a fixed group count (the paper's default runs use
    /// 8 logical groups on 32 SoCs).
    pub fn with_groups(groups: usize) -> Self {
        SocFlowConfig {
            groups: Some(groups),
            ..Self::full()
        }
    }
}

/// Streaming-ingestion configuration (the `train --streaming` mode):
/// per-SoC live data streams replace the static pre-partitioned corpus.
///
/// Sample identity stays deterministic (a stateless position-indexed
/// stream over the synthetic corpus); rates, buffers and stalls are
/// priced on the simulated clock. The base rate self-calibrates from the
/// first priced epoch to ≈1.05× the rate at which a uniform cluster
/// exactly fills each epoch's data need — the regime where stream
/// heterogeneity, not raw supply, is the story — and each group's
/// two-batch ingest buffer backpressures the stream when full. See
/// `socflow_data::stream`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamingConfig {
    /// Per-SoC stream-rate heterogeneity profile.
    pub profile: RateProfile,
    /// Re-run grouping by observed stream rate (with rate-proportional
    /// data shares) when the per-SoC rate spread exceeds
    /// [`REGROUP_SPREAD`]. Off = topology-only grouping.
    pub rate_aware: bool,
}

/// Max/min per-SoC rate ratio above which rate-aware regrouping triggers.
pub const REGROUP_SPREAD: f64 = 1.25;

impl StreamingConfig {
    /// Streaming with rate-aware regrouping for a profile.
    pub fn new(profile: RateProfile) -> Self {
        StreamingConfig {
            profile,
            rate_aware: true,
        }
    }
}

impl Default for StreamingConfig {
    fn default() -> Self {
        Self::new(RateProfile::Uniform)
    }
}

/// SoCs per pipeline group of [`MethodSpec::TwoDParallel`].
pub const PIPELINE_GROUP: usize = 4;

/// The training method: SoCFlow or one of the paper's six baselines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MethodSpec {
    /// Single-SoC FP32 training — the accuracy reference ("Local" column of
    /// Table 3) and the single-SoC time of Fig. 4(a).
    Local,
    /// Centralized FP32 parameter server.
    ParameterServer,
    /// Horovod-style FP32 Ring-AllReduce over all SoCs.
    Ring,
    /// HiPress: Ring-AllReduce with DGC top-k gradient compression.
    HiPress,
    /// 2D parallelism: intra-group pipeline over [`PIPELINE_GROUP`] SoCs,
    /// inter-group Ring-AllReduce.
    TwoDParallel,
    /// FedAvg: per-epoch central weight averaging, fixed local shards.
    FedAvg,
    /// Tree-aggregation hierarchical FedAvg, over a binary tree
    /// ([`crate::timemodel::Collective::Tree`]).
    TFedAvg,
    /// SoCFlow (this paper).
    SocFlow(SocFlowConfig),
    /// SoCFlow variant training only on NPUs in INT8 (the "Ours-INT8"
    /// ablation arm of Fig. 14, and Fig. 4(c)'s NPU bar).
    SocFlowInt8(SocFlowConfig),
    /// SoCFlow variant with a fixed 50/50 CPU/NPU split ("Ours-Half").
    SocFlowHalf(SocFlowConfig),
}

impl MethodSpec {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            MethodSpec::Local => "Local",
            MethodSpec::ParameterServer => "PS",
            MethodSpec::Ring => "RING",
            MethodSpec::HiPress => "HiPress",
            MethodSpec::TwoDParallel => "2D-Paral",
            MethodSpec::FedAvg => "FedAvg",
            MethodSpec::TFedAvg => "T-FedAvg",
            MethodSpec::SocFlow(_) => "Ours",
            MethodSpec::SocFlowInt8(_) => "Ours-INT8",
            MethodSpec::SocFlowHalf(_) => "Ours-Half",
        }
    }

    /// The SoCFlow configuration of the three SoCFlow variants; `None`
    /// for the baselines.
    pub fn socflow(&self) -> Option<SocFlowConfig> {
        match *self {
            MethodSpec::SocFlow(c) | MethodSpec::SocFlowInt8(c) | MethodSpec::SocFlowHalf(c) => {
                Some(c)
            }
            _ => None,
        }
    }

    /// The same method with its logical-group count pinned to `groups`
    /// (baselines have none and come back unchanged).
    pub fn pin_groups(self, groups: usize) -> Self {
        let pin = |c: SocFlowConfig| SocFlowConfig {
            groups: Some(groups),
            ..c
        };
        match self {
            MethodSpec::SocFlow(c) => MethodSpec::SocFlow(pin(c)),
            MethodSpec::SocFlowInt8(c) => MethodSpec::SocFlowInt8(pin(c)),
            MethodSpec::SocFlowHalf(c) => MethodSpec::SocFlowHalf(pin(c)),
            other => other,
        }
    }

    /// `true` for the methods that synchronize every batch across all SoCs
    /// (their converged accuracy equals Local's: synchronous SGD).
    pub fn is_fully_synchronous(&self) -> bool {
        matches!(
            self,
            MethodSpec::ParameterServer
                | MethodSpec::Ring
                | MethodSpec::HiPress
                | MethodSpec::TwoDParallel
        )
    }
}

/// A complete training-job specification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainJobSpec {
    /// Architecture to train.
    pub model: ModelKind,
    /// Workload dataset (names the reference statistics).
    pub preset: DatasetPreset,
    /// Number of participating SoCs.
    pub socs: usize,
    /// Per-replica (per-group) global batch size — the paper's `BS_g`.
    pub global_batch: usize,
    /// Number of training epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Master seed (model init, shuffling, data generation).
    pub seed: u64,
    /// Method under test.
    pub method: MethodSpec,
}

impl TrainJobSpec {
    /// A reasonable default job: 32 SoCs, batch 64, SoCFlow with 8 groups.
    pub fn new(model: ModelKind, preset: DatasetPreset, method: MethodSpec) -> Self {
        TrainJobSpec {
            model,
            preset,
            socs: 32,
            global_batch: 64,
            epochs: 10,
            lr: 0.05,
            seed: 42,
            method,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(MethodSpec::Ring.name(), "RING");
        assert_eq!(MethodSpec::SocFlow(SocFlowConfig::full()).name(), "Ours");
        assert_eq!(MethodSpec::TFedAvg.name(), "T-FedAvg");
    }

    #[test]
    fn sync_classification() {
        assert!(MethodSpec::Ring.is_fully_synchronous());
        assert!(MethodSpec::HiPress.is_fully_synchronous());
        assert!(!MethodSpec::FedAvg.is_fully_synchronous());
        assert!(!MethodSpec::SocFlow(SocFlowConfig::full()).is_fully_synchronous());
        assert!(!MethodSpec::Local.is_fully_synchronous());
    }

    #[test]
    fn config_roundtrips_serde() {
        let spec = TrainJobSpec::new(
            ModelKind::Vgg11,
            DatasetPreset::Cifar10,
            MethodSpec::SocFlow(SocFlowConfig::with_groups(8)),
        );
        let json = serde_json::to_string(&spec).unwrap();
        let back: TrainJobSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }
}
