//! Fault injection: SoC failures and user-workload reclaims.
//!
//! Harvested SoCs are not dedicated trainers — they can be reclaimed by a
//! user session at any moment (the paper's preemption scenario) or, more
//! rarely, fail outright (thermal shutdown, watchdog reboot). This module
//! generates deterministic fault timelines that the engine's preemption
//! machinery consumes.

use crate::topology::SocId;
use crate::Seconds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// What happened to a SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A user session reclaimed the SoC (graceful: checkpoint possible).
    Reclaimed,
    /// The SoC failed (crash: in-flight batch lost).
    Crashed,
}

/// One fault event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault occurs, seconds from job start.
    pub at: Seconds,
    /// Which SoC.
    pub soc: SocId,
    /// What kind.
    pub kind: FaultKind,
}

/// A deterministic fault timeline over a training-job horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Samples a fault plan: each SoC is reclaimed with exponential
    /// inter-arrival of mean `mean_reclaim_s` and crashes with mean
    /// `mean_crash_s` (only the first event per SoC inside `horizon_s` is
    /// kept — a harvested SoC that left does not come back this job).
    ///
    /// # Panics
    /// Panics if a mean is not positive.
    pub fn sample(
        socs: usize,
        horizon_s: Seconds,
        mean_reclaim_s: Seconds,
        mean_crash_s: Seconds,
        seed: u64,
    ) -> Self {
        assert!(
            mean_reclaim_s > 0.0 && mean_crash_s > 0.0,
            "means must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        for s in 0..socs {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let reclaim_at = -mean_reclaim_s * u1.ln();
            let u2: f64 = rng.gen_range(f64::EPSILON..1.0);
            let crash_at = -mean_crash_s * u2.ln();
            let (at, kind) = if reclaim_at <= crash_at {
                (reclaim_at, FaultKind::Reclaimed)
            } else {
                (crash_at, FaultKind::Crashed)
            };
            if at < horizon_s {
                events.push(FaultEvent {
                    at,
                    soc: SocId(s),
                    kind,
                });
            }
        }
        Self::from_events(events)
    }

    /// Builds a plan from explicit events (crafted timelines in tests and
    /// experiments). Events are time-sorted; a NaN time sorts last instead
    /// of panicking (`total_cmp`), so adversarial inputs cannot crash the
    /// scheduler.
    ///
    /// # Examples
    ///
    /// ```
    /// use socflow_cluster::faults::{FaultEvent, FaultKind, FaultPlan};
    /// use socflow_cluster::SocId;
    ///
    /// // a crash at t=120 s and an earlier graceful reclaim at t=30 s
    /// let plan = FaultPlan::from_events(vec![
    ///     FaultEvent { at: 120.0, soc: SocId(7), kind: FaultKind::Crashed },
    ///     FaultEvent { at: 30.0, soc: SocId(3), kind: FaultKind::Reclaimed },
    /// ]);
    /// // events come back time-ordered regardless of input order
    /// assert_eq!(plan.events()[0].soc, SocId(3));
    /// // and window queries are half-open: [from, to)
    /// assert_eq!(plan.between(0.0, 120.0).len(), 1);
    /// assert_eq!(plan.between(0.0, 121.0).len(), 2);
    /// ```
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by(|a, b| a.at.total_cmp(&b.at));
        FaultPlan { events }
    }

    /// All events, time-ordered.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Events that occur within `[from, to)`.
    pub fn between(&self, from: Seconds, to: Seconds) -> Vec<FaultEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.at >= from && e.at < to)
            .collect()
    }

    /// SoCs still alive (un-faulted) at time `t`.
    pub fn survivors(&self, socs: usize, t: Seconds) -> Vec<SocId> {
        // events are time-sorted, so the dead prefix is a single scan and
        // set lookups keep the whole call O(n log n) instead of O(n²)
        let dead: std::collections::HashSet<SocId> = self
            .events
            .iter()
            .take_while(|e| e.at <= t)
            .map(|e| e.soc)
            .collect();
        (0..socs).map(SocId).filter(|s| !dead.contains(s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let a = FaultPlan::sample(20, 3600.0, 7200.0, 86400.0, 5);
        let b = FaultPlan::sample(20, 3600.0, 7200.0, 86400.0, 5);
        assert_eq!(a, b);
        let c = FaultPlan::sample(20, 3600.0, 7200.0, 86400.0, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn events_sorted_and_within_horizon() {
        let p = FaultPlan::sample(50, 1800.0, 1000.0, 5000.0, 1);
        let mut last = 0.0;
        for e in p.events() {
            assert!(e.at >= last && e.at < 1800.0);
            last = e.at;
        }
    }

    #[test]
    fn reclaims_dominate_crashes_with_these_means() {
        let p = FaultPlan::sample(500, 3600.0, 3600.0, 360_000.0, 2);
        let reclaims = p
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::Reclaimed)
            .count();
        let crashes = p.events().len() - reclaims;
        assert!(reclaims > crashes * 10, "{reclaims} vs {crashes}");
    }

    #[test]
    fn survivors_shrink_over_time() {
        let p = FaultPlan::sample(40, 7200.0, 3600.0, 36_000.0, 3);
        let early = p.survivors(40, 60.0).len();
        let late = p.survivors(40, 7200.0).len();
        assert!(early >= late);
        assert_eq!(p.survivors(40, 0.0).len() + p.between(0.0, 0.0).len(), 40);
    }

    /// The closed-form fraction of SoCs that survive `horizon_s`, given the
    /// combined hazard of reclaim and crash.
    fn expected_survival(
        horizon_s: Seconds,
        mean_reclaim_s: Seconds,
        mean_crash_s: Seconds,
    ) -> f64 {
        let hazard = 1.0 / mean_reclaim_s + 1.0 / mean_crash_s;
        (-horizon_s * hazard).exp()
    }

    #[test]
    fn expected_survival_matches_samples() {
        // 1 h horizon, 2 h mean reclaim, effectively no crashes
        let expect = expected_survival(3600.0, 7200.0, 1e12);
        let p = FaultPlan::sample(2000, 3600.0, 7200.0, 1e12, 4);
        let measured = p.survivors(2000, 3600.0).len() as f64 / 2000.0;
        assert!((measured - expect).abs() < 0.04, "{measured} vs {expect}");
    }

    #[test]
    #[should_panic(expected = "means must be positive")]
    fn rejects_zero_mean() {
        FaultPlan::sample(1, 10.0, 0.0, 1.0, 0);
    }
}
