//! Umbrella crate for the SoCFlow reproduction workspace.
//!
//! Re-exports the member crates so integration tests can use a single
//! dependency. Library users should depend on the individual crates
//! ([`socflow`], [`socflow_cluster`], ...) directly.
pub use socflow;
pub use socflow_cluster;
pub use socflow_collectives;
pub use socflow_data;
pub use socflow_nn;
pub use socflow_tensor;
