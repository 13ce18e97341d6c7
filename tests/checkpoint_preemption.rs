//! Integration tests of the checkpoint / preemption machinery: SoCFlow's
//! claim that a user-workload burst only costs one logical group, not the
//! training job.

use socflow::checkpoint::Checkpoint;
use socflow::config::{Arms, MethodSpec, SocFlowConfig, TrainJobSpec};
use socflow::engine::{Engine, Workload};
use socflow::options::{Checkpointing, RunOptions};
use socflow_cluster::faults::{FaultEvent, FaultKind, FaultPlan};
use socflow_cluster::tidal::TidalTrace;
use socflow_cluster::{Seconds, SocId};
use socflow_data::DatasetPreset;
use socflow_nn::models::ModelKind;
use socflow_telemetry::{Event, MemorySink};
use std::sync::Arc;

fn spec(groups: usize) -> TrainJobSpec {
    let mut s = TrainJobSpec::new(
        ModelKind::LeNet5,
        DatasetPreset::FashionMnist,
        MethodSpec::SocFlow(SocFlowConfig::with_groups(groups)),
    );
    s.socs = 16;
    s.epochs = 8;
    s.global_batch = 64;
    s.lr = 0.05;
    s
}

/// A smaller job for the fault/resume tests below (they run several full
/// training jobs each, so the 16-SoC/8-epoch spec would be wasteful).
fn small_spec(groups: usize) -> TrainJobSpec {
    let mut s = spec(groups);
    s.socs = 8;
    s.epochs = 4;
    s
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
fn preempted_run_still_converges() {
    let s = spec(4);
    let workload = Workload::standard(&s, 1024, 8, 0.5);
    let calm = Engine::new(s, workload.clone(), RunOptions::default()).run();
    let preempted = Engine::new(
        s,
        workload,
        RunOptions {
            preempt_after: Some(3),
            ..RunOptions::default()
        },
    )
    .run();

    assert_eq!(
        preempted.epoch_accuracy.len(),
        calm.epoch_accuracy.len(),
        "preemption must not shorten the run"
    );
    // losing one of four groups costs a few points at most
    assert!(
        preempted.best_accuracy() > calm.best_accuracy() - 0.10,
        "preempted {:.3} vs calm {:.3}",
        preempted.best_accuracy(),
        calm.best_accuracy()
    );
    // and reduces per-epoch time after the eviction (fewer SoCs => fewer
    // groups running in parallel, but the epoch must remain bounded)
    assert!(preempted.total_time() > 0.0);
}

#[test]
fn checkpoint_roundtrip_and_redistribute() {
    let replicas: Vec<Vec<f32>> = (0..4).map(|g| vec![g as f32; 16]).collect();
    let ckpt = Checkpoint::new(5, replicas, 0.8);
    let bytes = ckpt.to_bytes().unwrap();
    let restored = Checkpoint::from_bytes(&bytes).unwrap();
    assert_eq!(restored, ckpt);

    // global weight mass is preserved when groups are evicted
    let before: f32 = ckpt.replicas.iter().map(|r| r[0]).sum::<f32>() / 4.0;
    for keep in [3usize, 2, 1] {
        let shrunk = restored.redistribute(keep);
        assert_eq!(shrunk.num_replicas(), keep);
        let after: f32 = shrunk.replicas.iter().map(|r| r[0]).sum::<f32>() / keep as f32;
        assert!(
            (before - after).abs() < 1e-5,
            "keep={keep}: mean weight drifted {before} → {after}"
        );
    }
}

/// Crash-vs-reclaim semantics at the job level: a graceful reclaim shrinks
/// the topology for free, while a crash of the same SoC at the same moment
/// additionally charges a checkpoint-restore stall to the wall clock.
#[test]
fn crashes_cost_a_stall_reclaims_do_not() {
    let s = small_spec(4);
    let w = Workload::standard(&s, 512, 8, 0.5);
    let reclaimed = Engine::new(
        s,
        w.clone(),
        RunOptions {
            faults: Some(plan_of(vec![(0.0, 7, FaultKind::Reclaimed)])),
            ..RunOptions::default()
        },
    )
    .run();
    let crashed = Engine::new(
        s,
        w,
        RunOptions {
            faults: Some(plan_of(vec![(0.0, 7, FaultKind::Crashed)])),
            ..RunOptions::default()
        },
    )
    .run();
    assert_eq!(reclaimed.recovery_time, 0.0, "graceful exits are free");
    assert!(crashed.recovery_time > 0.0, "crashes lose in-flight work");
    // the survivor topology is identical, so per-epoch progress matches
    assert_eq!(reclaimed.epoch_accuracy, crashed.epoch_accuracy);
    assert!(crashed.total_time() > reclaimed.total_time());
}

/// Durable resume across a fault boundary: kill a checkpointed run after
/// the epoch in which a SoC was reclaimed, reload from disk, and the
/// continuation must be byte-identical to the uninterrupted faulty run —
/// including the persisted survivor set and fault cursor.
#[test]
fn resume_across_a_fault_is_bit_identical() {
    let dir = std::env::temp_dir().join("socflow_it_fault_resume");
    std::fs::remove_dir_all(&dir).ok();
    let s = small_spec(4);
    let w = Workload::standard(&s, 512, 8, 0.5);
    let plan = plan_of(vec![(0.0, 6, FaultKind::Reclaimed)]);

    let full = Engine::new(
        s,
        w.clone(),
        RunOptions {
            faults: Some(plan.clone()),
            ..RunOptions::default()
        },
    )
    .run();

    let mut short = s;
    short.epochs = 2;
    let _ = Engine::new(
        short,
        Workload::standard(&short, 512, 8, 0.5),
        RunOptions {
            faults: Some(plan.clone()),
            checkpointing: Some(
                Checkpointing::new(dir.clone(), Some(2)).expect("usable checkpoint dir"),
            ),
            ..RunOptions::default()
        },
    )
    .run();

    let ckpt = Checkpoint::load(&dir).expect("killed run persisted a checkpoint");
    assert_eq!(ckpt.epoch, 2);
    assert_eq!(ckpt.alive.len(), 7, "the reclaimed SoC is gone from disk");
    assert!(!ckpt.alive.contains(&6));

    let resumed = Engine::new(
        s,
        w,
        RunOptions {
            faults: Some(plan),
            resume: Some(ckpt),
            ..RunOptions::default()
        },
    )
    .run();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(resumed, full, "continuation must be bit-identical");
}

/// The v2 on-disk format round-trips the non-learnable model state
/// (BatchNorm running statistics, quant-noise step counters) alongside the
/// weights, and eviction keeps only the survivors' state rows.
#[test]
fn checkpoint_states_roundtrip_and_redistribute() {
    let replicas: Vec<Vec<f32>> = (0..3).map(|g| vec![g as f32; 8]).collect();
    let mut ckpt = Checkpoint::new(2, replicas, 0.9);
    ckpt.states = (0..3).map(|g| vec![0.5 + g as f32; 4]).collect();
    ckpt.states_int8 = (0..3).map(|g| vec![10.0 * g as f32; 2]).collect();

    let restored = Checkpoint::from_bytes(&ckpt.to_bytes().unwrap()).unwrap();
    assert_eq!(restored, ckpt);

    let shrunk = restored.redistribute(2);
    assert_eq!(shrunk.num_replicas(), 2);
    // running statistics are observations, not training signal: the
    // survivors keep their own rows untouched (no evicted-mean merge)
    assert_eq!(shrunk.states, ckpt.states[..2]);
    assert_eq!(shrunk.states_int8, ckpt.states_int8[..2]);
}

/// Maps a server's tidal trace onto a job-local [`FaultPlan`]: the job
/// starts at `start_hour` on the server SoCs `assigned` (listed in
/// job-rank order), and whenever an assigned SoC turns busy at a later
/// hour boundary within `hours`, the plan records a graceful
/// [`FaultKind::Reclaimed`] event for that job rank at
/// `h * hour_seconds` on the job clock (pass `3600.0` for real tidal
/// hours; tests compress the clock to fit short runs). Only the first
/// transition per SoC matters — a reclaimed SoC does not rejoin the
/// job. Feeding this plan to the engine preempts a real training run
/// exactly where the fleet simulation would, so checkpointed jobs
/// evicted by the tide resume bit-exactly.
fn tidal_fault_plan(
    trace: &TidalTrace,
    assigned: &[SocId],
    start_hour: usize,
    hours: usize,
    hour_seconds: Seconds,
) -> FaultPlan {
    let mut events = Vec::new();
    for (rank, &soc) in assigned.iter().enumerate() {
        for h in 1..=hours {
            if trace.is_busy(soc, (start_hour + h) % 24) {
                events.push(FaultEvent {
                    at: h as Seconds * hour_seconds,
                    soc: SocId(rank),
                    kind: FaultKind::Reclaimed,
                });
                break;
            }
        }
    }
    FaultPlan::from_events(events)
}

#[test]
fn tidal_fault_plan_marks_first_busy_transition_per_rank() {
    let trace = TidalTrace::generate(60, 3);
    let (start, len) = trace.best_idle_window(16);
    assert!(len >= 1);
    let assigned: Vec<SocId> = trace
        .idle_through(start, len)
        .into_iter()
        .take(16)
        .collect();
    let plan = tidal_fault_plan(&trace, &assigned, start, len + 6, 3600.0);
    // job-local ranks only, each at an hour boundary after the start
    for e in plan.events() {
        assert!(e.soc.0 < 16);
        assert_eq!(e.kind, FaultKind::Reclaimed);
        assert!(e.at >= 3600.0);
        assert_eq!(e.at % 3600.0, 0.0);
    }
    // inside the idle window nothing is reclaimed
    assert!(plan.events().iter().all(|e| e.at >= len as f64 * 3600.0));
}

/// Fleet-style tidal preemption end to end: derive a fault plan from a
/// diurnal utilization trace (the idle window closing takes SoCs back),
/// kill the checkpointed run at an epoch boundary, and the resumed
/// accuracy stream must be byte-identical to an uninterrupted run of the
/// same preempted job — for every SoCFlow arm.
#[test]
fn tidal_preemption_resume_is_bit_identical_across_variants() {
    use socflow::fleet::priced_epoch_seconds;

    let trace = TidalTrace::generate(60, 5);
    let (start, len) = trace.best_idle_window(8);
    assert!(len >= 1, "trace must have an idle window for 8 SoCs");
    let assigned: Vec<SocId> = trace.idle_through(start, len).into_iter().take(8).collect();

    for (i, arms) in [Arms::Mixed, Arms::Fp32, Arms::Int8, Arms::Half]
        .into_iter()
        .enumerate()
    {
        let mut s = small_spec(4);
        s.method = MethodSpec::SocFlow(SocFlowConfig {
            arms,
            ..SocFlowConfig::with_groups(4)
        });
        let w = Workload::standard(&s, 512, 8, 0.5);

        // compress the tidal clock so the window's closing edge lands
        // inside this short job (hour h fires at h * hour_s seconds)
        let est_total = priced_epoch_seconds(&s, s.socs) * s.epochs as f64;
        let hour_s = est_total / (len as f64 + 1.0);
        let plan = tidal_fault_plan(&trace, &assigned, start, len + 6, hour_s);
        assert!(
            !plan.events().is_empty(),
            "the tide must reclaim at least one SoC"
        );

        let full = Engine::new(
            s,
            w.clone(),
            RunOptions {
                faults: Some(plan.clone()),
                ..RunOptions::default()
            },
        )
        .run();
        assert!(
            !plan.between(0.0, full.total_time()).is_empty(),
            "a reclaim must land inside the run ({})",
            full.total_time()
        );

        let dir = std::env::temp_dir().join(format!("socflow_it_tidal_resume_{i}"));
        std::fs::remove_dir_all(&dir).ok();
        let mut short = s;
        short.epochs = 2;
        let _ = Engine::new(
            short,
            Workload::standard(&short, 512, 8, 0.5),
            RunOptions {
                faults: Some(plan.clone()),
                checkpointing: Some(
                    Checkpointing::new(dir.clone(), Some(2)).expect("usable checkpoint dir"),
                ),
                ..RunOptions::default()
            },
        )
        .run();

        let ckpt = Checkpoint::load(&dir).expect("killed run persisted a checkpoint");
        assert_eq!(ckpt.epoch, 2);

        let resumed = Engine::new(
            s,
            w,
            RunOptions {
                faults: Some(plan),
                resume: Some(ckpt),
                ..RunOptions::default()
            },
        )
        .run();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            resumed, full,
            "{arms:?}: tidal-preempted resume must be bit-identical"
        );
    }
}

/// A gang-scheduled baseline's checkpoint-restore round trip is a stall,
/// booked like SoCFlow's crash stalls: it is `recovery_time`, it lengthens
/// the total by exactly its length, and it is not an epoch.
#[test]
fn baseline_preemption_costs_a_stall() {
    let mut s = spec(4);
    s.method = MethodSpec::Ring;
    let workload = Workload::standard(&s, 512, 8, 0.5);
    let calm = Engine::new(s, workload.clone(), RunOptions::default()).run();
    let sink = Arc::new(MemorySink::new());
    let stalled = Engine::new(
        s,
        workload,
        RunOptions {
            preempt_after: Some(2),
            sink: Some(sink.clone()),
            ..RunOptions::default()
        },
    )
    .run();
    let stalls: Vec<f64> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::BaselineStalled { epoch: 2, stall } => Some(*stall),
            _ => None,
        })
        .collect();
    let [stall] = stalls[..] else {
        panic!("one stall after epoch 2, got {stalls:?}");
    };
    assert!(stall > 0.0);
    assert_eq!(stalled.recovery_time, stall);
    assert_eq!(
        stalled.total_time(),
        calm.total_time() + stall,
        "the checkpoint-restore stall must show up in the total time"
    );
    assert_eq!(
        stalled.epoch_accuracy.len(),
        calm.epoch_accuracy.len(),
        "the stall is not an epoch"
    );
    assert_eq!(stalled.epoch_time, calm.epoch_time);
}
