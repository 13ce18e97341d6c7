//! Cross-crate integration tests: the paper's headline claims, end to end.
//!
//! Each test runs real (scaled) training plus the calibrated cluster
//! simulation and asserts the *shape* of the paper's results — who wins,
//! in what order, and by roughly what kind of factor.

use socflow::config::{Arms, MethodSpec, SocFlowConfig, TrainJobSpec};
use socflow::engine::{Engine, Workload};
use socflow::options::{Plan, RunOptions};
use socflow::report::REFERENCE_CONVERGENCE_SCALE;
use socflow_baselines::suite::Comparison;
use socflow_data::DatasetPreset;
use socflow_nn::models::ModelKind;

fn base_spec(method: MethodSpec) -> TrainJobSpec {
    let mut s = TrainJobSpec::new(ModelKind::LeNet5, DatasetPreset::FashionMnist, method);
    s.socs = 32;
    s.epochs = 16;
    s.global_batch = 64;
    s.lr = 0.05;
    s
}

/// `base` under each of `methods` on `samples` samples at model `width`,
/// through the one comparison runner.
fn run_methods(
    base: &TrainJobSpec,
    methods: &[MethodSpec],
    samples: usize,
    width: f32,
) -> Vec<socflow::RunResult> {
    let workload = Workload::standard(base, samples, 8, width);
    Comparison::new(*base, workload).run_all(methods, base.socs)
}

// 4096 samples give each of 4 group replicas 16 batches per epoch — the
// same steps-per-aggregation regime as the paper's 8 groups on 50k
// samples; fewer batches starve group-parallel streams (the very effect
// Fig. 6 documents)
const SAMPLES: usize = 4096;
const WIDTH: f32 = 0.5;

/// Paper Fig. 8 / Table 3 shape on one workload: SoCFlow is the fastest
/// method and keeps accuracy close to synchronous SGD.
#[test]
fn socflow_wins_end_to_end() {
    let methods = vec![
        MethodSpec::ParameterServer,
        MethodSpec::Ring,
        MethodSpec::HiPress,
        MethodSpec::TwoDParallel,
        MethodSpec::FedAvg,
        MethodSpec::SocFlow(SocFlowConfig::with_groups(4)),
    ];
    let results = run_methods(&base_spec(MethodSpec::Ring), &methods, SAMPLES, WIDTH);
    let ours = results.last().unwrap();
    let sync_acc = results[1].best_accuracy();

    // fastest of the distributed-ML baselines (FedAvg's per-epoch time is
    // tiny by construction — its cost is slow convergence, compared in
    // `federated_methods_degrade_more`)
    for r in &results[..4] {
        assert!(
            ours.total_time() < r.total_time(),
            "Ours ({:.0}s) must beat {} ({:.0}s)",
            ours.total_time(),
            r.method,
            r.total_time()
        );
    }
    // large factor vs the classic distributed baselines (paper: 14.8x+ vs
    // RING at 32 SoCs; we only require an order of magnitude of headroom)
    assert!(
        results[1].total_time() / ours.total_time() > 4.0,
        "RING/Ours = {:.1}",
        results[1].total_time() / ours.total_time()
    );
    // accuracy within a few points of synchronous SGD (paper: -0.81 avg)
    assert!(
        ours.best_accuracy() > sync_acc - 0.10,
        "ours {:.3} vs sync {:.3}",
        ours.best_accuracy(),
        sync_acc
    );
    // cheapest energy among the distributed-ML baselines (paper Fig. 9)
    for r in &results[..4] {
        assert!(
            ours.energy_joules < r.energy_joules,
            "Ours energy must beat {}",
            r.method
        );
    }
}

/// Paper Table 3: federated methods lose noticeably more accuracy than
/// SoCFlow on the non-IID-sharded clients.
#[test]
fn federated_methods_degrade_more() {
    let methods = vec![
        MethodSpec::Ring,
        MethodSpec::FedAvg,
        MethodSpec::SocFlow(SocFlowConfig::with_groups(4)),
    ];
    let mut spec = base_spec(MethodSpec::Ring);
    spec.epochs = 16;
    let results = run_methods(&spec, &methods, SAMPLES, WIDTH);
    let (sync, fed, ours) = (&results[0], &results[1], &results[2]);
    assert!(
        fed.best_accuracy() <= ours.best_accuracy() + 0.02,
        "FedAvg {:.3} should not beat Ours {:.3}",
        fed.best_accuracy(),
        ours.best_accuracy()
    );
    assert!(
        sync.best_accuracy() >= fed.best_accuracy(),
        "sync {:.3} >= FedAvg {:.3}",
        sync.best_accuracy(),
        fed.best_accuracy()
    );
}

/// Paper Fig. 12 shape: RING's visible sync share dominates; SoCFlow's is
/// materially lower; FedAvg's is lowest.
#[test]
fn sync_share_ordering() {
    let methods = vec![
        MethodSpec::Ring,
        MethodSpec::FedAvg,
        MethodSpec::SocFlow(SocFlowConfig::with_groups(8)),
    ];
    let mut spec = base_spec(MethodSpec::Ring);
    spec.model = ModelKind::Vgg11; // bandwidth-bound regime
    spec.preset = DatasetPreset::Cifar10;
    spec.epochs = 2;
    let results = run_methods(&spec, &methods, 512, 0.2);
    let share = |i: usize| {
        let b = results[i].breakdown;
        b.sync / b.total()
    };
    let (ring, fed, ours) = (share(0), share(1), share(2));
    assert!(ring > 0.5, "RING sync share {ring:.2} should dominate");
    assert!(ours < ring, "Ours {ours:.2} < RING {ring:.2}");
    assert!(fed < 0.5, "FedAvg sync share {fed:.2} is per-epoch only");
}

/// The group-size heuristic picks a sane group count and the full
/// scheduler path runs.
#[test]
fn scheduler_auto_groups() {
    let spec = {
        let mut s = base_spec(MethodSpec::SocFlow(SocFlowConfig::full()));
        s.socs = 16;
        s.epochs = 2;
        s
    };
    let workload = Workload::standard(&spec, 512, 8, 0.5);
    let scheduler = socflow::scheduler::GlobalScheduler::new(
        spec,
        workload,
        RunOptions::default(),
        Plan::Fixed,
    );
    let plan = scheduler.plan_topology();
    assert!((1..=16).contains(&plan.groups));
    assert!(plan.cgs.len() <= 2, "Theorem 2 ⇒ at most two CGs");
}

/// INT8-only training genuinely diverges from FP32 (Fig. 4(c) / Fig. 14),
/// and the adaptive mixed-precision run tracks FP32 more closely than
/// INT8-only does.
#[test]
fn mixed_precision_beats_int8_only() {
    let cfg = SocFlowConfig::with_groups(4);
    let mut spec = base_spec(MethodSpec::SocFlow(cfg));
    spec.epochs = 14;
    spec.socs = 16;
    let workload = Workload::standard(&spec, 4096, 8, 0.5);

    let mixed = Engine::new(spec, workload.clone(), RunOptions::default()).run();
    let mut int8_spec = spec;
    int8_spec.method = MethodSpec::SocFlow(SocFlowConfig {
        arms: Arms::Int8,
        ..cfg
    });
    let int8 = Engine::new(int8_spec, workload.clone(), RunOptions::default()).run();
    let mut fp_spec = spec;
    fp_spec.method = MethodSpec::SocFlow(SocFlowConfig {
        arms: Arms::Fp32,
        ..cfg
    });
    let fp32 = Engine::new(fp_spec, workload, RunOptions::default()).run();

    assert!(
        mixed.best_accuracy() >= int8.best_accuracy() - 0.02,
        "mixed {:.3} vs int8 {:.3}",
        mixed.best_accuracy(),
        int8.best_accuracy()
    );
    // and mixed is faster than FP32-only (NPU does real work)
    assert!(
        mixed.total_time() < fp32.total_time(),
        "mixed {:.0}s vs fp32 {:.0}s",
        mixed.total_time(),
        fp32.total_time()
    );
}

/// The 4-hour idle window claim: on this workload SoCFlow converges within
/// the window while RING does not.
#[test]
fn only_socflow_fits_idle_window() {
    let methods = vec![
        MethodSpec::Ring,
        MethodSpec::SocFlow(SocFlowConfig::with_groups(8)),
    ];
    let mut spec = base_spec(MethodSpec::Ring);
    spec.model = ModelKind::Vgg11;
    spec.preset = DatasetPreset::Cifar10;
    spec.epochs = 10;
    let results = run_methods(&spec, &methods, 1024, 0.2);
    let target = results[0].best_accuracy().min(results[1].best_accuracy()) * 0.95;
    let window = socflow_cluster::tidal::DAILY_IDLE_WINDOW;
    // scaled runs converge in ~5 epochs where the reference tasks need
    // ~200; absolute window claims project the epoch count back up
    let ring_t = results[0]
        .time_to_accuracy(target)
        .map(|t| t * REFERENCE_CONVERGENCE_SCALE);
    let ours_t = results[1]
        .time_to_accuracy(target)
        .map(|t| t * REFERENCE_CONVERGENCE_SCALE);
    assert!(
        ours_t.is_some_and(|t| t < window),
        "Ours must fit the idle window: {ours_t:?}"
    );
    assert!(
        ring_t.is_none_or(|t| t > window),
        "RING should miss the window: {ring_t:?}"
    );
}
