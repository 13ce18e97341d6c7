//! Elastic membership: consuming fault windows, shrinking the group count
//! with the surviving capacity, evicting groups, and re-deriving the
//! topology — one path for faults and for user-workload preemption.

use super::durable::capture;
use super::socflow::SocflowRun;
use socflow_cluster::faults::{FaultEvent, FaultKind};
use socflow_cluster::SocId;
use socflow_telemetry::{Event, EvictionCause, FaultClass};

/// Applies a window of fault events to `alive` and returns the ones that
/// took a SoC away, in plan order. Only SoCs the job still holds can fault
/// (plans may cover a larger shared cluster, or repeat an already-dead
/// SoC), and the job never loses its last SoC.
pub(super) fn consume_window(alive: &mut Vec<SocId>, events: &[FaultEvent]) -> Vec<FaultEvent> {
    let mut applied = Vec::new();
    for e in events {
        let Some(pos) = alive.iter().position(|s| *s == e.soc) else {
            continue;
        };
        if alive.len() <= 1 {
            break;
        }
        alive.remove(pos);
        applied.push(*e);
    }
    applied
}

/// The logical-group count a job that started with `initial_groups`
/// groups on `socs0` SoCs shrinks to when `alive` SoCs are left: the
/// group count follows the lost capacity proportionally, never grows
/// back past the current `groups`, never exceeds one group per survivor
/// and never reaches zero.
pub(super) fn shrink_target(
    initial_groups: usize,
    alive: usize,
    socs0: usize,
    groups: usize,
) -> usize {
    (initial_groups * alive)
        .div_ceil(socs0)
        .clamp(1, alive.min(groups))
}

impl SocflowRun<'_> {
    /// Consumes the fault events of the epoch that just took `epoch_time`
    /// against the simulated clock, then recovers: shrink, remap, charge
    /// crash stalls, checkpoint graceful reclaims.
    ///
    /// A running clock (not a per-epoch prefix sum) keeps this O(E)
    /// overall and accounts for recovery stalls: events landing inside a
    /// stall interval are consumed at the next boundary, never skipped,
    /// because `fault_cursor` only advances over windows actually
    /// examined (crash stalls push `clock` past it).
    pub(super) fn consume_faults(&mut self, epoch: usize, epoch_time: f64) {
        let engine = self.engine;
        let window_end = self.clock + epoch_time;
        let events = match &engine.options.faults {
            Some(plan) => plan.between(self.fault_cursor, window_end),
            None => Vec::new(),
        };
        self.clock = window_end;
        self.fault_cursor = window_end;
        let applied = consume_window(&mut self.alive, &events);
        for e in &applied {
            engine.options.emit(Event::FaultInjected {
                at: e.at,
                soc: e.soc.0,
                kind: match e.kind {
                    FaultKind::Reclaimed => FaultClass::Reclaim,
                    FaultKind::Crashed => FaultClass::Crash,
                },
                epoch: epoch + 1,
            });
        }
        if applied.is_empty() {
            return;
        }
        let crashes = applied
            .iter()
            .filter(|e| e.kind == FaultKind::Crashed)
            .count();
        let reclaims = applied.len() - crashes;
        // elastic remapping over the *actual* survivors
        let target = shrink_target(
            self.initial_groups,
            self.alive.len(),
            engine.spec.socs,
            self.groups,
        );
        while self.groups > target {
            self.evict_group(epoch + 1, EvictionCause::Fault);
        }
        self.retopologize(epoch + 1);
        // crashes lose the in-flight batch: survivors reload the latest
        // snapshot and redo it — a real stall on the clock
        let stall = crashes as f64 * engine.time_model.restore_stall_time();
        if stall > 0.0 {
            if engine.time_model.simulated() {
                engine.options.emit_all(super::digest::cluster_span(
                    epoch + 1,
                    "stall",
                    self.clock,
                    stall,
                ));
            }
            self.clock += stall;
            self.result.recovery_time += stall;
        }
        // graceful reclaims checkpoint before leaving
        if reclaims > 0 {
            self.persist(epoch + 1, |policy| policy.on_reclaim);
        }
        engine.options.emit(Event::RecoveryCompleted {
            epoch: epoch + 1,
            stall,
            socs_left: self.alive.len(),
            groups_left: self.groups,
        });
    }

    /// User-workload preemption: surrender the last logical group's SoCs
    /// and keep training on the rest.
    pub(super) fn preempt(&mut self, epoch_done: usize) {
        let lost = self.mapping.groups()[self.groups - 1].clone();
        self.alive.retain(|s| !lost.contains(s));
        self.evict_group(epoch_done, EvictionCause::Preemption);
        self.retopologize(epoch_done);
    }

    /// Evicts one logical group: checkpoint the streams, merge the evicted
    /// replica (weights *and* momentum) into the survivors, shrink the
    /// stream count. One shared shrink rule for the fault and preemption
    /// paths — the stream count never exceeds the surviving group count
    /// and never reaches zero.
    pub(super) fn evict_group(&mut self, epoch_done: usize, cause: EvictionCause) {
        debug_assert!(self.groups > 1, "cannot evict the last group");
        let engine = self.engine;
        let keep = (self.replicas.len() - 1).max(1);
        let shrunk = capture(epoch_done, &self.replicas, self.ctrl.alpha()).redistribute(keep);
        engine.options.emit(Event::CheckpointTaken {
            epoch: epoch_done,
            groups: self.groups,
        });
        self.groups -= 1;
        engine.options.emit(Event::GroupEvicted {
            epoch: epoch_done,
            cause,
            groups_left: self.groups,
            socs_left: self.alive.len(),
        });
        self.replicas.truncate(keep.min(self.groups).max(1));
        for (i, r) in self.replicas.iter_mut().enumerate() {
            r.net.set_flat_weights(&shrunk.replicas[i]);
            r.opt.set_flat_velocity(&shrunk.velocities[i]);
            if let Some(arm) = &mut r.int8 {
                arm.opt.set_flat_velocity(&shrunk.velocities_int8[i]);
            }
        }
    }

    /// Re-derives mapping, CGs and (empty) stream buffers from the current
    /// `(alive, groups)` and announces the new plan — the one rebuild both
    /// membership changes go through.
    pub(super) fn retopologize(&mut self, epoch: usize) {
        let engine = self.engine;
        (self.mapping, self.cgs) = engine.socflow_topology(
            &self.cfg,
            &self.alive,
            self.groups,
            self.stream.as_ref(),
            epoch,
        );
        if let Some(st) = self.stream.as_mut() {
            st.rebuild_buffers(self.groups, engine.spec.global_batch);
        }
        engine.options.emit(Event::PlanComputed {
            groups: self.groups,
            probes: 0,
            cgs: self.cgs.len(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{easy_workload, tiny_spec};
    use super::super::{Engine, MixedMode};
    use super::*;
    use crate::config::{MethodSpec, SocFlowConfig, StreamingConfig};
    use crate::options::RunOptions;
    use crate::timemodel::TimeModel;
    use proptest::prelude::*;
    use socflow_cluster::faults::FaultPlan;
    use socflow_data::stream::RateProfile;
    use socflow_telemetry::MemorySink;
    use std::sync::Arc;

    fn ev(soc: usize, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            at: 0.0,
            soc: SocId(soc),
            kind,
        }
    }

    fn socs(ids: &[usize]) -> Vec<SocId> {
        ids.iter().copied().map(SocId).collect()
    }

    #[test]
    fn window_applies_every_kind_in_plan_order() {
        let mut alive = socs(&[0, 1, 2, 3]);
        let events = [
            ev(3, FaultKind::Crashed),
            ev(1, FaultKind::Reclaimed),
            ev(0, FaultKind::Reclaimed),
        ];
        assert_eq!(consume_window(&mut alive, &events), events);
        assert_eq!(alive, socs(&[2]));
    }

    #[test]
    fn window_ignores_foreign_socs_and_repeats_of_a_dead_one() {
        let mut alive = socs(&[0, 1, 2]);
        let events = [
            ev(100, FaultKind::Crashed),
            ev(2, FaultKind::Reclaimed),
            ev(2, FaultKind::Crashed),
            ev(101, FaultKind::Reclaimed),
        ];
        let applied = consume_window(&mut alive, &events);
        assert_eq!(applied, [ev(2, FaultKind::Reclaimed)]);
        assert_eq!(alive, socs(&[0, 1]));
        assert!(consume_window(&mut alive, &[ev(7, FaultKind::Crashed)]).is_empty());
    }

    #[test]
    fn window_never_removes_the_last_soc() {
        let mut alive = socs(&[4, 5]);
        let events = [
            ev(4, FaultKind::Crashed),
            ev(5, FaultKind::Crashed),
            ev(5, FaultKind::Reclaimed),
        ];
        assert_eq!(consume_window(&mut alive, &events), events[..1]);
        assert_eq!(alive, socs(&[5]), "the job keeps its last SoC");
    }

    /// The recovery a window triggers, as (crash stalls charged, reclaim
    /// checkpoints persisted).
    #[test]
    fn recovery_counts_reclaims_and_crashes_apart() {
        let dir = std::env::temp_dir().join("socflow_elastic_tally_test");
        std::fs::remove_dir_all(&dir).ok();
        let spec = tiny_spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(4)));
        let sink = Arc::new(MemorySink::new());
        let policy = crate::checkpoint::CheckpointPolicy::default();
        let options = RunOptions {
            sink: Some(sink.clone()),
            faults: Some(socflow_cluster::faults::FaultPlan::from_events(vec![
                ev(7, FaultKind::Crashed),
                ev(6, FaultKind::Reclaimed),
                ev(5, FaultKind::Crashed),
            ])),
            checkpointing: Some(crate::options::Checkpointing::new(&dir, policy).unwrap()),
            ..RunOptions::default()
        };
        let mut engine = Engine::new(spec, easy_workload(&spec, 256), options);
        let restore = engine.time_model.restore_stall_time();
        let mut run = started(&mut engine);
        run.consume_faults(0, 10.0);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(run.result.recovery_time, 2.0 * restore, "two crashes");
        assert_eq!(run.clock, 10.0 + 2.0 * restore);
        assert_eq!(run.fault_cursor, 10.0, "the cursor stops at the window");
        let persisted = sink
            .events()
            .iter()
            .filter(|e| matches!(e, Event::CheckpointPersisted { .. }))
            .count();
        assert_eq!(persisted, 1, "one graceful reclaim, one checkpoint");
    }

    proptest! {
        #[test]
        fn shrink_target_is_bounded_and_monotone_in_survivors(
            socs0 in 1usize..64,
            g0_seed in 0usize..64,
            groups_seed in 0usize..64,
        ) {
            let initial_groups = 1 + g0_seed % socs0;
            let groups = 1 + groups_seed % initial_groups;
            let mut prev = 0;
            for alive in 1..=socs0 {
                let t = shrink_target(initial_groups, alive, socs0, groups);
                prop_assert!(t >= 1 && t <= alive.min(groups), "target {t} at alive {alive}");
                prop_assert!(t >= prev, "target fell from {prev} to {t} as alive rose to {alive}");
                prev = t;
            }
            // a full cluster keeps every group it still has
            prop_assert_eq!(shrink_target(initial_groups, socs0, socs0, groups), groups);
        }
    }

    /// A started 4-group streaming run over 8 SoCs with an in-memory sink.
    fn started(engine: &mut Engine) -> SocflowRun<'_> {
        let cfg = engine.spec.method.socflow().expect("SoCFlow spec");
        SocflowRun::start(engine, cfg, MixedMode::Adaptive).0
    }

    fn streaming_engine(sink: Arc<MemorySink>) -> Engine {
        let spec = tiny_spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(4)));
        let options = RunOptions {
            sink: Some(sink),
            streaming: Some(StreamingConfig::new(RateProfile::Uniform)),
            ..RunOptions::default()
        };
        Engine::new(spec, easy_workload(&spec, 256), options)
    }

    #[test]
    fn retopologize_announces_one_plan_and_resets_buffers_for_both_causes() {
        for cause in [EvictionCause::Fault, EvictionCause::Preemption] {
            let sink = Arc::new(MemorySink::new());
            let mut engine = streaming_engine(sink.clone());
            let mut run = started(&mut engine);
            // bank some samples so a reset is observable
            for b in run.stream.as_mut().unwrap().buffers.iter_mut() {
                b.produce(5);
            }
            sink.take();
            match cause {
                EvictionCause::Fault => {
                    run.alive.truncate(6);
                    run.evict_group(1, cause);
                    run.retopologize(1);
                }
                EvictionCause::Preemption => run.preempt(1),
            }
            let events = sink.take();
            let plans: Vec<_> = events
                .iter()
                .filter(|e| matches!(e, Event::PlanComputed { .. }))
                .collect();
            assert_eq!(plans.len(), 1, "{cause:?}: {events:?}");
            assert!(matches!(
                plans[0],
                Event::PlanComputed {
                    groups: 3,
                    probes: 0,
                    ..
                }
            ));
            assert!(events.iter().any(
                |e| matches!(e, Event::GroupEvicted { cause: c, groups_left: 3, socs_left: 6, .. } if *c == cause)
            ));
            assert_eq!(run.groups, 3);
            assert_eq!(run.mapping.num_groups(), 3);
            let buffers = &run.stream.as_ref().unwrap().buffers;
            assert_eq!(buffers.len(), 3, "one buffer per surviving group");
            assert!(
                buffers.iter().all(|b| b.level() == 0),
                "accumulation belongs to the dead grouping"
            );
        }
    }

    #[test]
    fn preemption_shrinks_but_continues() {
        let spec = tiny_spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(4)));
        let workload = easy_workload(&spec, 512);
        let mut e = Engine::new(
            spec,
            workload,
            RunOptions {
                preempt_after: Some(1),
                ..RunOptions::default()
            },
        );
        let r = e.run();
        assert_eq!(r.epoch_accuracy.len(), 4, "run continues after preemption");
        assert!(r.best_accuracy() > 0.15, "acc {}", r.best_accuracy());
    }

    #[test]
    fn fault_plan_evicts_groups_but_training_survives() {
        let spec = tiny_spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(4)));
        let workload = easy_workload(&spec, 512);
        // a dense fault plan: several reclaims inside the simulated horizon
        let plan = socflow_cluster::faults::FaultPlan::sample(
            16, 1e9, // absurd horizon so every SoC faults eventually
            1e6, 1e7, 7,
        );
        let mut e = Engine::new(
            spec,
            workload,
            RunOptions {
                faults: Some(plan),
                ..RunOptions::default()
            },
        );
        let r = e.run();
        assert_eq!(r.epoch_accuracy.len(), 4, "run completes despite faults");
        assert!(r.best_accuracy() > 0.15, "acc {}", r.best_accuracy());
    }

    fn plan_of(events: Vec<(f64, usize, FaultKind)>) -> FaultPlan {
        FaultPlan::from_events(
            events
                .into_iter()
                .map(|(at, soc, kind)| FaultEvent {
                    at,
                    soc: SocId(soc),
                    kind,
                })
                .collect(),
        )
    }

    #[test]
    fn reclaims_shrink_topology_without_charging_recovery_time() {
        let sink = Arc::new(socflow_telemetry::MemorySink::new());
        let spec = tiny_spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(4)));
        let workload = easy_workload(&spec, 512);
        let plan = plan_of(vec![
            (0.0, 6, FaultKind::Reclaimed),
            (0.0, 7, FaultKind::Reclaimed),
        ]);
        let mut e = Engine::new(
            spec,
            workload,
            RunOptions {
                sink: Some(sink.clone()),
                faults: Some(plan),
                ..RunOptions::default()
            },
        );
        let r = e.run();
        assert_eq!(r.epoch_accuracy.len(), 4, "run completes");
        assert_eq!(r.recovery_time, 0.0, "graceful reclaims charge no stall");
        let events = sink.events();
        let injected = events
            .iter()
            .filter(|ev| {
                matches!(
                    ev,
                    Event::FaultInjected {
                        kind: FaultClass::Reclaim,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(injected, 2);
        // 6 of 8 SoCs survive: the elastic target is ceil(4·6/8) = 3 groups
        assert!(events.iter().any(|ev| matches!(
            ev,
            Event::GroupEvicted {
                cause: EvictionCause::Fault,
                groups_left: 3,
                socs_left: 6,
                ..
            }
        )));
        // membership change re-plans over the real survivor set
        assert!(events.iter().any(|ev| matches!(
            ev,
            Event::PlanComputed {
                groups: 3,
                probes: 0,
                ..
            }
        )));
        assert!(events.iter().any(|ev| matches!(
            ev,
            Event::RecoveryCompleted {
                stall,
                socs_left: 6,
                groups_left: 3,
                ..
            } if *stall == 0.0
        )));
    }

    #[test]
    fn crashes_charge_restore_stalls() {
        let spec = tiny_spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(4)));
        let workload = easy_workload(&spec, 512);
        let plan = plan_of(vec![
            (0.0, 7, FaultKind::Crashed),
            (0.0, 6, FaultKind::Reclaimed),
        ]);
        let mut e = Engine::new(
            spec,
            workload,
            RunOptions {
                faults: Some(plan),
                ..RunOptions::default()
            },
        );
        let r = e.run();
        // exactly one crash: one restore stall, the reclaim adds nothing
        let expected = TimeModel::new(&spec).restore_stall_time();
        assert!(
            (r.recovery_time - expected).abs() < 1e-9,
            "recovery {} expected {}",
            r.recovery_time,
            expected
        );
        assert!(r.total_time() > r.epoch_time.iter().sum::<f64>());
    }

    #[test]
    fn single_group_survives_faults_without_eviction() {
        // groups == 1 edge: nothing left to evict, the job degrades to
        // fewer SoCs in its one group and keeps going
        let sink = Arc::new(socflow_telemetry::MemorySink::new());
        let spec = tiny_spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(1)));
        let workload = easy_workload(&spec, 512);
        let plan = plan_of(vec![
            (0.0, 7, FaultKind::Crashed),
            (0.0, 6, FaultKind::Reclaimed),
        ]);
        let mut e = Engine::new(
            spec,
            workload,
            RunOptions {
                sink: Some(sink.clone()),
                faults: Some(plan),
                ..RunOptions::default()
            },
        );
        let r = e.run();
        assert_eq!(r.epoch_accuracy.len(), 4);
        let events = sink.events();
        assert!(
            !events
                .iter()
                .any(|ev| matches!(ev, Event::GroupEvicted { .. })),
            "a single group must never be evicted"
        );
        assert!(events.iter().any(|ev| matches!(
            ev,
            Event::RecoveryCompleted {
                socs_left: 6,
                groups_left: 1,
                ..
            }
        )));
    }

    #[test]
    fn faults_on_socs_the_job_does_not_hold_are_ignored() {
        let spec = tiny_spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(2)));
        let clean = Engine::new(spec, easy_workload(&spec, 512), RunOptions::default()).run();
        let plan = plan_of(vec![
            (0.0, 100, FaultKind::Crashed),
            (0.0, 101, FaultKind::Reclaimed),
        ]);
        let faulty = Engine::new(
            spec,
            easy_workload(&spec, 512),
            RunOptions {
                faults: Some(plan),
                ..RunOptions::default()
            },
        )
        .run();
        assert_eq!(faulty, clean, "out-of-range SoCs must not perturb the run");
    }

    #[test]
    fn fault_timing_follows_the_simulated_clock() {
        // an event landing inside the second epoch's window must be applied
        // at the second boundary, not the first — and one beyond the whole
        // run must never fire
        let spec = tiny_spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(4)));
        let clean = Engine::new(spec, easy_workload(&spec, 512), RunOptions::default()).run();
        let mid_second_epoch = clean.epoch_time[0] * 1.5;
        let sink = Arc::new(socflow_telemetry::MemorySink::new());
        let plan = plan_of(vec![
            (mid_second_epoch, 7, FaultKind::Reclaimed),
            (clean.total_time() * 100.0, 6, FaultKind::Crashed),
        ]);
        let mut e = Engine::new(
            spec,
            easy_workload(&spec, 512),
            RunOptions {
                sink: Some(sink.clone()),
                faults: Some(plan),
                ..RunOptions::default()
            },
        );
        let r = e.run();
        assert_eq!(r.recovery_time, 0.0, "the far-future crash never fires");
        let fired: Vec<usize> = sink
            .events()
            .iter()
            .filter_map(|ev| match ev {
                Event::FaultInjected { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .collect();
        assert_eq!(fired, vec![2], "one fault, applied at the second boundary");
    }
}
