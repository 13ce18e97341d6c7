//! The simulated clock across commits. Same-commit determinism is tested
//! elsewhere; here the paper-scale plan search is held, bit for bit, to a
//! ranking written by the commit before the timeline learned to reuse
//! rates — the ranking separates candidates in the 13th digit, so any
//! change to the clock's arithmetic shows. CI also `cmp`s a fresh
//! `tune --json` against the same file.

use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
use socflow::engine::Workload;
use socflow::mapping::integrity_greedy;
use socflow::options::{Plan, RunOptions};
use socflow::planning::divide_communication_groups;
use socflow::scheduler::GlobalScheduler;
use socflow::sim::{simulate_socflow_schedule, SyncSchedule};
use socflow::timemodel::TimeModel;
use socflow_cluster::{timeline_stats, ClusterSpec};
use socflow_data::DatasetPreset;
use socflow_nn::models::{ModelConfig, ModelKind};

/// `tune --model resnet18 --dataset cifar10 --socs 60 --auto-budget 100
/// --seed 11 --json` at commit 27991a1.
const GOLDEN: &str = include_str!("golden/tune_resnet18_60_b100.json");

#[test]
fn paper_scale_plan_search_matches_the_golden_ranking() {
    // the CLI's `tune` set-up; the sample count does not reach the search
    let mut spec = TrainJobSpec::new(
        ModelKind::ResNet18,
        DatasetPreset::Cifar10,
        MethodSpec::SocFlow(SocFlowConfig::full()),
    );
    spec.socs = 60;
    spec.seed = 11;
    let workload = Workload::standard(&spec, 64, 8, 0.18);
    let report = GlobalScheduler::new(
        spec,
        workload,
        RunOptions::default(),
        Plan::Auto { budget: 100 },
    )
    .tune();

    let golden: serde_json::Value = serde_json::from_str(GOLDEN).unwrap();
    let count = |name: &str| golden.get(name).as_u64().unwrap() as usize;
    assert_eq!(
        (report.evaluated, report.pruned, report.skipped),
        (count("evaluated"), count("pruned"), count("skipped"))
    );
    assert_eq!(
        (report.evaluated, report.pruned, report.skipped),
        (100, 228, 32)
    );

    let ranked = golden.get("ranked").as_array().unwrap();
    assert_eq!(report.ranked.len(), ranked.len());
    for (i, (got, want)) in report.ranked.iter().zip(ranked).enumerate() {
        let plan = (
            got.candidate.groups as u64,
            got.candidate.schedule_name(),
            got.candidate.bucket_kb.map(|kb| kb as u64),
        );
        let want_plan = (
            want.get("groups").as_u64().unwrap(),
            want.get("schedule").as_str().unwrap(),
            want.get("bucket_kb").as_u64(),
        );
        assert_eq!(plan, want_plan, "rank {i}");
        for (field, value) in [("predicted_s", got.predicted_s), ("bound_s", got.bound_s)] {
            assert_eq!(
                value.to_bits(),
                want.get(field).as_f64().unwrap().to_bits(),
                "rank {i} {field}: {value}"
            );
        }
    }
    let best = report.best();
    assert_eq!(best.predicted_s, 27.308673151790046);
    assert_eq!(
        (best.candidate.groups, best.candidate.schedule),
        (12, SyncSchedule::Interleaved)
    );
    assert_eq!(
        report.default_plan.predicted_s.to_bits(),
        golden
            .get("default")
            .get("predicted_s")
            .as_f64()
            .unwrap()
            .to_bits()
    );
}

/// An epoch repeats a few flow configurations thousands of times, and the
/// timeline solves each once. The counts are exact, so this holds on any
/// host.
#[test]
fn an_epoch_solves_rates_once_per_configuration() {
    let mut spec = TrainJobSpec::new(ModelKind::Vgg11, DatasetPreset::Cifar10, MethodSpec::Ring);
    spec.socs = 60;
    let layout = ModelKind::Vgg11
        .build(
            ModelConfig::new(3, 32, 10, 0.25),
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0),
        )
        .grad_layout();
    let mut tm = TimeModel::new(&spec);
    tm.set_overlap(512, &layout);
    let mapping = integrity_greedy(&ClusterSpec::for_socs(60), 60, 8);
    let cgs = divide_communication_groups(&mapping).unwrap();

    let before = timeline_stats();
    simulate_socflow_schedule(&tm, &mapping, &cgs, true, SyncSchedule::WaitFree, 1.0);
    let work = timeline_stats() - before;
    assert!(work.steps > 1000, "{work:?}");
    assert!(work.rate_solves > 0 && work.rate_reuses > 0, "{work:?}");
    assert!(work.rate_solves <= work.steps / 20, "{work:?}");
}
