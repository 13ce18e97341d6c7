//! Run results: accuracy curves, simulated time breakdowns, energy.
//!
//! [`RunResult`] and [`Breakdown`] live in `socflow-telemetry`, the lowest
//! crate that sees [`socflow_telemetry::Event`]: a run's result is the fold
//! of its own events ([`RunResult::absorb`]).

pub use socflow_telemetry::{Breakdown, RunResult};

/// Epoch-count projection from the *scaled* accuracy runs to paper scale.
///
/// The scaled synthetic workloads converge in roughly 5 epochs where the
/// reference tasks (CIFAR-10-class problems, 200-epoch schedules) need
/// ~200, so projecting an *absolute* wall-clock claim — "fits in the 4 h
/// idle window" — multiplies the scaled time-to-accuracy by this factor.
/// Relative method comparisons never use it (both sides would scale
/// identically).
pub const REFERENCE_CONVERGENCE_SCALE: f64 = 40.0;
