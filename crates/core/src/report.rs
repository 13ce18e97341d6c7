//! Run results: accuracy curves, simulated time breakdowns, energy.

use crate::timemodel::EpochCost;
use serde::{Deserialize, Serialize};
use socflow_cluster::Seconds;

/// Visible-time breakdown of training (paper Fig. 12): gradient computing,
/// gradient/weight synchronization, and parameter updates.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Breakdown {
    /// Gradient-computing time, seconds.
    pub compute: Seconds,
    /// Visible (non-hidden) synchronization time, seconds.
    pub sync: Seconds,
    /// Parameter-update time, seconds.
    pub update: Seconds,
}

impl Breakdown {
    /// Sum of the components.
    pub fn total(&self) -> Seconds {
        self.compute + self.sync + self.update
    }

    /// Accumulates another breakdown.
    pub fn add(&mut self, other: &Breakdown) {
        self.compute += other.compute;
        self.sync += other.sync;
        self.update += other.update;
    }

    /// Scales all components (e.g. per-iteration → per-epoch).
    pub fn scaled(&self, k: f64) -> Breakdown {
        Breakdown {
            compute: self.compute * k,
            sync: self.sync * k,
            update: self.update * k,
        }
    }
}

/// Epoch-count projection from the *scaled* accuracy runs to paper scale.
///
/// The scaled synthetic workloads converge in roughly 5 epochs where the
/// reference tasks (CIFAR-10-class problems, 200-epoch schedules) need
/// ~200, so projecting an *absolute* wall-clock claim — "fits in the 4 h
/// idle window" — multiplies the scaled time-to-accuracy by this factor.
/// Relative method comparisons never use it (both sides would scale
/// identically).
pub const REFERENCE_CONVERGENCE_SCALE: f64 = 40.0;

/// The complete result of one simulated training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Method display name.
    pub method: String,
    /// Test accuracy after each epoch (from real training of the scaled
    /// model).
    pub epoch_accuracy: Vec<f32>,
    /// Simulated wall-clock duration of each epoch at paper scale, seconds.
    pub epoch_time: Vec<Seconds>,
    /// Cumulative visible-time breakdown.
    pub breakdown: Breakdown,
    /// Simulated energy at paper scale, joules.
    pub energy_joules: f64,
    /// α trajectory (mixed-precision runs only), one entry per epoch.
    pub alpha_trace: Vec<f32>,
    /// Simulated wall-clock lost to crash-restore stalls, seconds. Graceful
    /// reclaims checkpoint before leaving and charge nothing here.
    pub recovery_time: Seconds,
}

impl RunResult {
    /// The run of `method` before its first epoch.
    pub fn empty(method: &str) -> Self {
        RunResult {
            method: method.to_string(),
            epoch_accuracy: Vec::new(),
            epoch_time: Vec::new(),
            breakdown: Breakdown::default(),
            energy_joules: 0.0,
            alpha_trace: Vec::new(),
            recovery_time: 0.0,
        }
    }

    /// Appends one epoch: the accuracy it reached, what it cost on the
    /// simulated clock and the α it trained at (NaN for methods without
    /// one). The one place a run accumulates time, breakdown and energy,
    /// so a result priced after the fact adds up exactly as a trained one.
    pub fn push_epoch(&mut self, accuracy: f32, cost: &EpochCost, alpha: f32) {
        self.epoch_accuracy.push(accuracy);
        self.epoch_time.push(cost.time);
        self.breakdown.add(&cost.breakdown);
        self.energy_joules += cost.energy;
        self.alpha_trace.push(alpha);
    }

    /// Best (maximum) test accuracy reached.
    pub fn best_accuracy(&self) -> f32 {
        self.epoch_accuracy.iter().copied().fold(0.0, f32::max)
    }

    /// Total simulated training time, seconds (epoch time plus any
    /// crash-restore stalls).
    pub fn total_time(&self) -> Seconds {
        self.epoch_time.iter().sum::<Seconds>() + self.recovery_time
    }

    /// Simulated time until the accuracy first reaches `target`
    /// (`None` if never reached). The paper's scalability study uses
    /// 99 % of the converged accuracy as the target.
    pub fn time_to_accuracy(&self, target: f32) -> Option<Seconds> {
        let mut elapsed = 0.0;
        for (acc, t) in self.epoch_accuracy.iter().zip(&self.epoch_time) {
            elapsed += t;
            if *acc >= target {
                return Some(elapsed);
            }
        }
        None
    }

    /// Simulated energy until the accuracy first reaches `target`, assuming
    /// energy accrues proportionally to time (`None` if never reached).
    pub fn energy_to_accuracy(&self, target: f32) -> Option<f64> {
        let t = self.time_to_accuracy(target)?;
        let total = self.total_time();
        if total == 0.0 {
            return Some(0.0);
        }
        Some(self.energy_joules * t / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> RunResult {
        RunResult {
            method: "test".into(),
            epoch_accuracy: vec![0.3, 0.5, 0.7, 0.69],
            epoch_time: vec![10.0, 10.0, 10.0, 10.0],
            breakdown: Breakdown {
                compute: 30.0,
                sync: 8.0,
                update: 2.0,
            },
            energy_joules: 400.0,
            alpha_trace: vec![],
            recovery_time: 0.0,
        }
    }

    #[test]
    fn accuracy_accessors() {
        let r = result();
        assert_eq!(r.best_accuracy(), 0.7);
    }

    #[test]
    fn time_to_accuracy_finds_first_crossing() {
        let r = result();
        assert_eq!(r.time_to_accuracy(0.5), Some(20.0));
        assert_eq!(r.time_to_accuracy(0.7), Some(30.0));
        assert_eq!(r.time_to_accuracy(0.9), None);
    }

    #[test]
    fn energy_prorated_by_time() {
        let r = result();
        assert_eq!(r.energy_to_accuracy(0.5), Some(200.0));
        assert_eq!(r.energy_to_accuracy(0.99), None);
    }

    #[test]
    fn recovery_time_counts_toward_total() {
        let mut r = result();
        assert_eq!(r.total_time(), 40.0);
        r.recovery_time = 5.0;
        assert_eq!(r.total_time(), 45.0);
    }

    #[test]
    fn breakdown_arithmetic() {
        let mut b = Breakdown::default();
        b.add(&Breakdown {
            compute: 1.0,
            sync: 2.0,
            update: 3.0,
        });
        assert_eq!(b.total(), 6.0);
        let s = b.scaled(2.0);
        assert_eq!(s.sync, 4.0);
    }
}
