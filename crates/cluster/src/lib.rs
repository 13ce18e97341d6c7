//! # socflow-cluster
//!
//! A discrete-event simulator of the commercial SoC-Cluster server the
//! SoCFlow paper evaluates on (60× Snapdragon 865 on 12 PCBs, 5 SoCs per
//! PCB, 1 Gb/s SAS link per SoC, 1 Gb/s shared NIC per PCB, 20 Gb/s switch).
//!
//! The simulator substitutes for the physical hardware (see DESIGN.md):
//!
//! - [`topology`]: the cluster's physical structure ([`ClusterSpec`],
//!   [`SocId`], [`BoardId`]);
//! - [`net`]: a flow-level network model with **max-min fair bandwidth
//!   sharing** over the SoC links, shared board NICs and the switch
//!   backplane — the mechanism that produces the cross-SoC network
//!   bottleneck of paper §2.3 (Observation #2);
//! - [`compute`]: per-sample training-time model for mobile CPU (FP32),
//!   mobile NPU (INT8) and datacenter GPUs, anchored to the paper's
//!   measurements (Fig. 4(a));
//! - [`energy`]: power-state integration for SoCs and GPUs;
//! - [`tidal`]: the diurnal utilization traces of paper Fig. 3, plus idle-
//!   window extraction and preemption events;
//! - [`timeline`]: a discrete-event fluid timeline that lets compute spans
//!   and collective transfers from *different* tasks contend and overlap
//!   on a shared simulated clock (the substrate every SoCFlow epoch is
//!   priced on);
//! - [`calibration`]: every constant, with its derivation, in one place.
//!
//! Simulated time is plain `f64` seconds ([`Seconds`]).
//!
//! ## Example: how long does one gradient exchange take?
//!
//! ```
//! use socflow_cluster::{ClusterNet, ClusterSpec, Flow, SocId};
//!
//! let net = ClusterNet::new(ClusterSpec::paper_server());
//! // two SoCs on the same PCB exchange 36.9 MB of VGG-11 gradients
//! let stats = net.transfer(&[Flow::new(SocId(0), SocId(1), 36.9e6)]);
//! assert!(stats.makespan > 0.25 && stats.makespan < 0.35); // ~0.3 s at 1 Gb/s
//! assert!(!stats.crossed_boards);
//! ```

#![deny(missing_docs)]

pub mod calibration;
pub mod compute;
pub mod energy;
pub mod faults;
pub mod net;
pub mod tidal;
pub mod timeline;
pub mod topology;

pub use compute::{ComputeModel, Processor};
pub use energy::{EnergyMeter, PowerState};
pub use net::{ClusterNet, ClusterTooLarge, Flow, TransferStats};
pub use timeline::{
    reset_scratch_stats, scratch_stats, timeline_stats, Completion, FluidTimeline, LinkClassUtil,
    Route, ScratchStats, TaskId, TimelineStats,
};
pub use topology::{BoardId, ClusterSpec, SocId};

/// Simulated time in seconds.
pub type Seconds = f64;
