//! # socflow
//!
//! The paper's primary contribution: a distributed DNN-training framework
//! for SoC-Cluster edge servers that scales with the number of SoCs despite
//! the scarce, shared cross-SoC network.
//!
//! The crate implements the two techniques of the paper end to end:
//!
//! 1. **Group-wise parallelism with delayed aggregation** (§3.1)
//!    - [`grouping`]: the per-epoch time model (Eq. 1) and the first-epoch
//!      accuracy heuristic that picks the logical-group count;
//!    - [`mapping`]: the *integrity-greedy* logical→physical mapping with
//!      its optimality (Theorem 1) and ≤2-contender (Theorem 2) guarantees;
//!    - [`planning`]: communication-group division by bipartite 2-coloring
//!      (DFS) and the compute/communication interleaving schedule (Fig. 7).
//! 2. **Data-parallel mixed-precision training** (§3.2)
//!    - [`mixed`]: the α (logits cosine confidence, Eq. 4) / β (compute-
//!      power ratio, Eq. 6) controller that splits each batch between the
//!      CPU-FP32 and NPU-INT8 models and merges their weights (Eq. 5).
//!
//! [`engine`] is the distributed training engine: it *really trains* the
//! (width-scaled) models — one weight replica per logical group, mixed
//! precision inside each replica, per-batch intra-group synchronization and
//! per-epoch delayed inter-group aggregation with cross-group data
//! shuffling — while a calibrated [`socflow_cluster`] simulation charges
//! wall-clock time and energy at paper scale. All six baselines of the
//! paper run through the same engine (see `socflow-baselines`), so the
//! comparisons are apples-to-apples.
//!
//! [`scheduler`] is the global scheduler that sits on the control board:
//! it profiles, picks the topology, runs training, and handles preemption
//! by user workloads (checkpoints + group termination).
//!
//! ## Example: plan a topology without training
//!
//! ```
//! use socflow::mapping::integrity_greedy;
//! use socflow::planning::divide_communication_groups;
//! use socflow_cluster::ClusterSpec;
//!
//! // the paper's default: 32 SoCs, 8 logical groups on boards of 5
//! let cluster = ClusterSpec::for_socs(32);
//! let mapping = integrity_greedy(&cluster, 32, 8);
//! assert!(mapping.conflict_count() <= 2); // Theorem 1 keeps C minimal
//! let cgs = divide_communication_groups(&mapping).unwrap();
//! assert!(cgs.len() <= 2); // Theorem 2 ⇒ two communication groups suffice
//! ```

#![deny(missing_docs)]

pub mod autotune;
pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod fleet;
pub mod grouping;
pub mod mapping;
pub mod mixed;
pub mod options;
pub mod planning;
pub mod report;
pub mod scheduler;
pub mod sim;
pub mod timemodel;

pub use config::{MethodSpec, SocFlowConfig, TrainJobSpec};
pub use engine::{Engine, Workload};
pub use mapping::{GroupId, Mapping};
pub use report::{Breakdown, RunResult};

/// One-stop imports for typical SoCFlow usage.
///
/// ```
/// use socflow::prelude::*;
/// let spec = TrainJobSpec::new(
///     ModelKind::LeNet5,
///     DatasetPreset::FashionMnist,
///     MethodSpec::SocFlow(SocFlowConfig::full()),
/// );
/// assert_eq!(spec.method.name(), "Ours");
/// ```
pub mod prelude {
    pub use crate::config::{MappingMode, MethodSpec, SocFlowConfig, TrainJobSpec};
    pub use crate::engine::{Engine, Workload};
    pub use crate::options::{Plan, Pricing, RunOptions};
    pub use crate::report::RunResult;
    pub use crate::scheduler::GlobalScheduler;
    pub use socflow_data::DatasetPreset;
    pub use socflow_nn::models::ModelKind;
}
