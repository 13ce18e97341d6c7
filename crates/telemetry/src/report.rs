//! Run results: accuracy curves, simulated time breakdowns, energy — the
//! fold of a run's own events.

use crate::Event;
use serde::{Deserialize, Serialize};

/// Visible-time breakdown of training (paper Fig. 12): gradient computing,
/// gradient/weight synchronization, and parameter updates.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Breakdown {
    /// Gradient-computing time, seconds.
    pub compute: f64,
    /// Visible (non-hidden) synchronization time, seconds.
    pub sync: f64,
    /// Parameter-update time, seconds.
    pub update: f64,
}

impl Breakdown {
    /// Sum of the components.
    pub fn total(&self) -> f64 {
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

/// The complete result of one simulated training run: the fold
/// ([`RunResult::absorb`]) of the run's events, whether the engine folds
/// them as it emits them or [`Summary`](crate::Summary) folds a recorded
/// trace.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunResult {
    /// Method display name.
    pub method: String,
    /// Test accuracy after each epoch (from real training of the scaled
    /// model).
    pub epoch_accuracy: Vec<f32>,
    /// Simulated wall-clock duration of each epoch at paper scale, seconds.
    pub epoch_time: Vec<f64>,
    /// Cumulative visible-time breakdown.
    pub breakdown: Breakdown,
    /// Simulated energy at paper scale, joules.
    pub energy_joules: f64,
    /// α trajectory (NaN for methods without a controller), one entry per
    /// epoch.
    pub alpha_trace: Vec<f32>,
    /// Simulated wall-clock lost to recovery stalls, seconds: a restore
    /// per crash, and a gang-scheduled baseline's checkpoint-restore
    /// round trip per fault window that reclaims any of its SoCs. A
    /// SoCFlow reclaim checkpoints before the SoC leaves and charges
    /// nothing here.
    pub recovery_time: f64,
}

impl RunResult {
    /// Folds one event into the result. [`Event::RunStarted`] names the
    /// method; [`Event::EpochCompleted`] appends the epoch's accuracy, time
    /// and α and adds its breakdown and energy;
    /// [`Event::RecoveryCompleted`] charges its stall to `recovery_time`.
    /// Every other event leaves the result as it is.
    pub fn absorb(&mut self, event: &Event) {
        match event {
            Event::RunStarted { method, .. } => self.method.clone_from(method),
            Event::EpochCompleted {
                accuracy,
                time,
                compute,
                sync,
                update,
                alpha,
                energy,
                ..
            } => {
                self.epoch_accuracy.push(*accuracy);
                self.epoch_time.push(*time);
                self.breakdown.add(&Breakdown {
                    compute: *compute,
                    sync: *sync,
                    update: *update,
                });
                self.energy_joules += energy;
                self.alpha_trace.push(*alpha);
            }
            Event::RecoveryCompleted { stall, .. } => self.recovery_time += stall,
            _ => {}
        }
    }

    /// Best (maximum) test accuracy reached.
    pub fn best_accuracy(&self) -> f32 {
        self.epoch_accuracy.iter().copied().fold(0.0, f32::max)
    }

    /// Total simulated training time, seconds (epoch time plus any
    /// stalls).
    pub fn total_time(&self) -> f64 {
        self.epoch_time.iter().sum::<f64>() + self.recovery_time
    }

    /// Simulated time until the accuracy first reaches `target`
    /// (`None` if never reached). The paper's scalability study uses
    /// 99 % of the converged accuracy as the target.
    pub fn time_to_accuracy(&self, target: f32) -> Option<f64> {
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

    /// Recovery stalls — a baseline's checkpoint-restore round trip and a
    /// SoCFlow crash's restore alike — land in `recovery_time`, never in
    /// the epoch series; events that are not accounting leave the result
    /// alone.
    #[test]
    fn stalls_are_recovery_time_not_epochs() {
        let mut r = RunResult::default();
        for event in [
            Event::RunStarted {
                method: "RING".into(),
                socs: 8,
                epochs: 1,
                seed: 0,
            },
            Event::RecoveryCompleted {
                epoch: 1,
                stall: 2.5,
                socs_left: 8,
                groups_left: 1,
            },
            Event::RecoveryCompleted {
                epoch: 1,
                stall: 1.5,
                socs_left: 7,
                groups_left: 2,
            },
            Event::CheckpointTaken {
                epoch: 1,
                groups: 2,
            },
        ] {
            r.absorb(&event);
        }
        assert_eq!(r.method, "RING");
        assert!(r.epoch_time.is_empty() && r.epoch_accuracy.is_empty());
        assert_eq!(r.recovery_time, 4.0);
        assert_eq!(r.total_time(), 4.0);
    }
}
