//! Behavioural integration tests for engine features added on top of the
//! core reproduction: the α trace, accuracy-stream decoupling, fault-driven
//! eviction and the INT8 wire effect.

use socflow::config::{Arms, MethodSpec, SocFlowConfig, TrainJobSpec};
use socflow::engine::{Engine, Workload};
use socflow::options::RunOptions;
use socflow_cluster::faults::FaultPlan;
use socflow_data::DatasetPreset;
use socflow_nn::models::ModelKind;

fn spec(method: MethodSpec) -> TrainJobSpec {
    let mut s = TrainJobSpec::new(ModelKind::LeNet5, DatasetPreset::FashionMnist, method);
    s.socs = 16;
    s.epochs = 6;
    s.global_batch = 64;
    s.lr = 0.05;
    s
}

/// The α confidence is defined on [0, 1] and is refreshed every epoch of an
/// adaptive mixed run; FP32-only and baseline runs record no α.
#[test]
fn alpha_trace_semantics() {
    let s = spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(4)));
    let w = Workload::standard(&s, 1024, 8, 0.5);
    let adaptive = Engine::new(s, w.clone(), RunOptions::default()).run();
    assert_eq!(adaptive.alpha_trace.len(), 6);
    assert!(adaptive.alpha_trace.iter().all(|a| (0.0..=1.0).contains(a)));

    let mut fs = s;
    fs.method = MethodSpec::SocFlow(SocFlowConfig {
        arms: Arms::Fp32,
        ..SocFlowConfig::with_groups(4)
    });
    let fp32 = Engine::new(fs, w.clone(), RunOptions::default()).run();
    // FP32-only runs keep α pinned at its initial value (no probe updates)
    assert!(fp32.alpha_trace.iter().all(|a| (*a - 1.0).abs() < 1e-6));

    let mut rs = s;
    rs.method = MethodSpec::Ring;
    let ring = Engine::new(rs, w, RunOptions::default()).run();
    assert!(
        ring.alpha_trace.iter().all(|a| a.is_nan()),
        "baselines record no α"
    );
}

/// Capping accuracy streams must not change the simulated time/energy —
/// the topology (and therefore the cost model) is untouched.
#[test]
fn accuracy_streams_do_not_change_cost() {
    let full = SocFlowConfig::with_groups(8);
    let capped = SocFlowConfig {
        accuracy_streams: Some(2),
        ..full
    };
    let s1 = spec(MethodSpec::SocFlow(full));
    let s2 = spec(MethodSpec::SocFlow(capped));
    let w = Workload::standard(&s1, 512, 8, 0.5);
    let a = Engine::new(s1, w.clone(), RunOptions::default()).run();
    let b = Engine::new(s2, w, RunOptions::default()).run();
    assert!((a.epoch_time[0] - b.epoch_time[0]).abs() < 1e-9);
    // but the learning trajectories differ (different stream counts)
    assert_ne!(a.epoch_accuracy, b.epoch_accuracy);
}

/// A fault storm cannot push the job below one group, and a fault-free
/// plan changes nothing.
#[test]
fn fault_plan_edge_cases() {
    let s = spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(4)));
    let w = Workload::standard(&s, 512, 8, 0.5);

    // fault-free plan (tiny horizon => no events)
    let calm_plan = FaultPlan::sample(16, 1e-9, 3600.0, 3600.0, 1);
    assert!(calm_plan.events().is_empty());
    let base = Engine::new(s, w.clone(), RunOptions::default()).run();
    let calm = Engine::new(
        s,
        w.clone(),
        RunOptions {
            faults: Some(calm_plan),
            ..RunOptions::default()
        },
    )
    .run();
    assert_eq!(base.epoch_accuracy, calm.epoch_accuracy);

    // fault storm: every SoC faults almost immediately
    let storm = FaultPlan::sample(16, 1e12, 1e-3, 1e12, 2);
    let stormy = Engine::new(
        s,
        w,
        RunOptions {
            faults: Some(storm),
            ..RunOptions::default()
        },
    )
    .run();
    assert_eq!(stormy.epoch_accuracy.len(), 6, "job survives at 1 group");
}

/// INT8-wire mixed precision makes SoCFlow's epochs faster than the same
/// topology at FP32-only — the mechanism behind the Fig. 13 "+Mixed" arm.
#[test]
fn mixed_precision_epoch_is_faster() {
    let mixed = spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(4)));
    let mut fp = mixed;
    fp.method = MethodSpec::SocFlow(SocFlowConfig {
        arms: Arms::Fp32,
        ..SocFlowConfig::with_groups(4)
    });
    let w = Workload::standard(&mixed, 512, 8, 0.5);
    let m = Engine::new(mixed, w.clone(), RunOptions::default()).run();
    let f = Engine::new(fp, w, RunOptions::default()).run();
    assert!(
        m.epoch_time[0] < f.epoch_time[0],
        "mixed {} vs fp32 {}",
        m.epoch_time[0],
        f.epoch_time[0]
    );
}

/// Serde round-trip of a full run result (the CLI's `--json` path).
#[test]
fn run_result_roundtrips_json() {
    let s = spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(2)));
    let w = Workload::standard(&s, 256, 8, 0.5);
    let r = Engine::new(s, w, RunOptions::default()).run();
    let json = serde_json::to_string(&r).unwrap();
    let back: socflow::report::RunResult = serde_json::from_str(&json).unwrap();
    assert_eq!(back.epoch_time, r.epoch_time);
    assert_eq!(back.method, r.method);
}
