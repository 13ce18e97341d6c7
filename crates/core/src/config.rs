//! Job specifications: which workload, which method, which knobs.

use serde::{Deserialize, Serialize};
use socflow_data::stream::{OnFull, RateProfile};
use socflow_data::DatasetPreset;
use socflow_nn::models::ModelKind;

/// How logical groups are mapped onto PCB boards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MappingMode {
    /// Naive sequential packing (the "+Group" ablation arm).
    Sequential,
    /// The paper's integrity-greedy mapping (Theorems 1 & 2).
    IntegrityGreedy,
}

/// Configuration of the SoCFlow method proper. The four booleans/knobs map
/// one-to-one onto the ablation arms of paper Fig. 13.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SocFlowConfig {
    /// Number of logical groups; `None` lets the scheduler choose via the
    /// first-epoch heuristic (paper §3.1 "determining group size").
    pub groups: Option<usize>,
    /// Logical→physical mapping algorithm.
    pub mapping: MappingMode,
    /// Enable communication-group planning (overlap sync with compute).
    pub planning: bool,
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
            mapping: MappingMode::IntegrityGreedy,
            planning: true,
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
/// priced on the simulated clock. See `socflow_data::stream`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamingConfig {
    /// Per-SoC stream-rate heterogeneity profile.
    pub profile: RateProfile,
    /// Base stream rate in *reference-scale* samples/sec per SoC. `None`
    /// self-calibrates from the first priced epoch to ≈1.05× the rate at
    /// which a uniform cluster exactly fills each epoch's data need — the
    /// regime where stream heterogeneity, not raw supply, is the story.
    pub base_rate: Option<f64>,
    /// Per-group ingest-buffer capacity, in multiples of the global batch.
    pub buffer_batches: usize,
    /// What a full ingest buffer does with fresh arrivals.
    pub on_full: OnFull,
    /// Re-run grouping by observed stream rate (with rate-proportional
    /// data shares) when the per-SoC rate spread exceeds
    /// [`StreamingConfig::regroup_spread`]. Off = topology-only grouping.
    pub rate_aware: bool,
    /// Max/min per-SoC rate ratio above which rate-aware regrouping
    /// triggers.
    pub regroup_spread: f64,
}

impl StreamingConfig {
    /// Streaming defaults for a profile: self-calibrated base rate, a
    /// two-batch buffer, backpressure on overflow, rate-aware regrouping
    /// at a 1.25× spread threshold.
    pub fn new(profile: RateProfile) -> Self {
        StreamingConfig {
            profile,
            base_rate: None,
            buffer_batches: 2,
            on_full: OnFull::Block,
            rate_aware: true,
            regroup_spread: 1.25,
        }
    }
}

impl Default for StreamingConfig {
    fn default() -> Self {
        Self::new(RateProfile::Uniform)
    }
}

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
    /// 2D parallelism: intra-group pipeline, inter-group Ring-AllReduce.
    TwoDParallel {
        /// SoCs per pipeline group.
        group_size: usize,
    },
    /// FedAvg: per-epoch central weight averaging, fixed local shards.
    FedAvg,
    /// Tree-aggregation hierarchical FedAvg.
    TFedAvg {
        /// Aggregation-tree fanout.
        fanout: usize,
    },
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
            MethodSpec::TwoDParallel { .. } => "2D-Paral",
            MethodSpec::FedAvg => "FedAvg",
            MethodSpec::TFedAvg { .. } => "T-FedAvg",
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
                | MethodSpec::TwoDParallel { .. }
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
    /// SGD momentum.
    pub momentum: f32,
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
            momentum: 0.9,
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
        assert_eq!(MethodSpec::TFedAvg { fanout: 2 }.name(), "T-FedAvg");
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
