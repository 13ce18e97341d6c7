//! # socflow-collectives
//!
//! The functional all-reduce: [`allreduce_sum`] / [`allreduce_mean`]
//! combine per-worker gradient buffers, giving every worker the direct
//! elementwise sum (or mean). What a collective costs on the SoC-Cluster's
//! network is priced by `socflow::timemodel::Collective`.
//!
//! ## Example
//!
//! ```
//! use socflow_collectives::allreduce_mean;
//!
//! // two workers' gradients; afterwards each holds their mean
//! let mut grads = vec![vec![1.0, 2.0], vec![3.0, 6.0]];
//! allreduce_mean(&mut grads);
//! assert_eq!(grads, [[2.0, 4.0], [2.0, 4.0]]);
//! ```

#![deny(missing_docs)]

mod functional;

pub use functional::{allreduce_mean, allreduce_sum};
