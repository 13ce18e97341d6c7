//! # socflow-collectives
//!
//! Collective-communication patterns for distributed training on the
//! SoC-Cluster, with two faces:
//!
//! - **functional**: [`allreduce_mean`] / [`ring_allreduce_sum`] actually
//!   combine per-worker gradient buffers (the chunked ring implementation is
//!   the real reduce-scatter + all-gather algorithm, validated against the
//!   direct sum);
//! - **temporal**: every [`Collective`] computes the wall-clock cost of its
//!   step sequence on the [`socflow_cluster`] flow network, so contention on
//!   the shared PCB NICs shapes the numbers exactly as in paper §2.3.
//!
//! Patterns provided: [`RingAllReduce`] (Horovod-style, bandwidth-optimal),
//! [`ParameterServer`] (centralized incast), [`TreeAggregate`]
//! (hierarchical FL-style reduction) and [`HierarchicalAllReduce`]
//! (board-local rings + delegate ring). The tests hold the ring and the
//! parameter server to their closed forms on one uncontended board.
//!
//! ## Example
//!
//! ```
//! use socflow_cluster::{ClusterNet, ClusterSpec, SocId};
//! use socflow_collectives::{Collective, ParameterServer, RingAllReduce};
//!
//! let net = ClusterNet::new(ClusterSpec::paper_server());
//! let members: Vec<SocId> = (0..32).map(SocId).collect();
//! let ring = RingAllReduce.time(&net, &members, 36.9e6);
//! let ps = ParameterServer::default().time(&net, &members, 36.9e6);
//! assert!(ring < ps, "at 32 SoCs the ring beats the incast-bound PS");
//! ```

#![deny(missing_docs)]

#[cfg(test)]
mod analytic;
mod functional;
mod patterns;

pub use functional::{allreduce_mean, allreduce_sum, ring_allreduce_sum};
pub use patterns::{
    broadcast_time, Collective, HierarchicalAllReduce, ParameterServer, RingAllReduce,
    TreeAggregate,
};
