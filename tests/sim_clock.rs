//! The simulated clock across commits. Same-commit determinism is tested
//! elsewhere; here the paper-scale plan search is held, bit for bit, to a
//! committed ranking — the ranking separates candidates in the 13th digit,
//! so any change to the clock's arithmetic shows. Its prices were first
//! written by the commit before the timeline learned to reuse rates; the
//! file was rewritten when the search went best-first by the epoch floor,
//! which priced a different subset and kept the best plan's bits. CI also
//! `cmp`s a fresh `tune --json` against the same file. The closed forms
//! that price Local, the six baselines and Fig. 4(b) are held the same way
//! to a second file, SoCFlow's Eq. 1, timeline and floor prices to a
//! third, and the compute anchors every price starts from to bits written
//! down in this file.

use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
use socflow::engine::Workload;
use socflow::mapping::integrity_greedy;
use socflow::options::{Plan, RunOptions};
use socflow::planning::divide_communication_groups;
use socflow::scheduler::GlobalScheduler;
use socflow::sim::{simulate_socflow_schedule, SyncSchedule};
use socflow::timemodel::{Collective, TimeModel, DEFAULT_BUCKET_KB};
use socflow_cluster::{timeline_stats, ClusterNet, ClusterSpec, Processor, SocId, TimelineStats};
use socflow_data::DatasetPreset;
use socflow_nn::models::{self, ModelConfig, ModelKind};

/// `tune --model resnet18 --dataset cifar10 --socs 60 --auto-budget 100
/// --seed 11 --json`.
const GOLDEN: &str = include_str!("golden/tune_resnet18_60_b100.json");

/// `baseline_epoch` of Local and the six baselines for VGG-11 and
/// ResNet-18 on 32 SoCs, and Fig. 4(b)'s ring and PS latencies, one
/// `<model>/<method>/<field> <bits> <value>` line each.
const BASELINE_GOLDEN: &str = include_str!("golden/baseline_prices_32socs.txt");

/// SoCFlow's Eq. 1, its timeline under the three schedules and its floor
/// for VGG-11 and ResNet-18 on 32 SoCs, one
/// `<model>/g<groups>/cpu<share>/<price>/<field> <bits> <value>` line each.
const SOCFLOW_GOLDEN: &str = include_str!("golden/socflow_prices_32socs.txt");

/// A price golden's `(id, f64 bits)` pairs, comment lines skipped.
fn golden_bits(text: &str) -> Vec<(&str, u64)> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let mut cells = l.split_whitespace();
            let id = cells.next().expect("an id");
            let bits = u64::from_str_radix(cells.next().expect("bits"), 16).expect("hex bits");
            (id, bits)
        })
        .collect()
}

/// Holds `got` to a price golden, id for id and bit for bit.
fn assert_golden_bits(got: &[(String, f64)], golden: &str) {
    let want = golden_bits(golden);
    assert_eq!(got.len(), want.len());
    for ((id, v), (want_id, want_bits)) in got.iter().zip(&want) {
        assert_eq!(id, want_id);
        assert_eq!(v.to_bits(), *want_bits, "{id}: {v}");
    }
}

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
        Plan::Auto { budget: Some(100) },
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
        (12, 348, 0)
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
    // the events behind the bits: a refactor that keeps every price but
    // steps, solves or reuses differently shows here (the same at any
    // worker-pool size: each candidate counts its own timeline work)
    assert_eq!(
        report.timeline,
        TimelineStats {
            steps: 75_947,
            rate_solves: 116,
            rate_reuses: 51_987,
        }
    );
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

/// Tier-1 otherwise checks only the baselines' orderings: a change to their
/// closed forms that moves a price shows here, to the bit.
#[test]
fn baseline_and_fig4b_prices_match_the_golden_bits() {
    let mut got = Vec::new();
    let net = ClusterNet::new(ClusterSpec::paper_server());
    for model in [ModelKind::Vgg11, ModelKind::ResNet18] {
        let mut spec = TrainJobSpec::new(model, DatasetPreset::Cifar10, MethodSpec::Ring);
        spec.socs = 32;
        let tm = TimeModel::new(&spec);
        for method in [
            MethodSpec::Local,
            MethodSpec::ParameterServer,
            MethodSpec::Ring,
            MethodSpec::HiPress,
            MethodSpec::TwoDParallel,
            MethodSpec::FedAvg,
            MethodSpec::TFedAvg,
        ] {
            let c = tm.baseline_epoch(method).expect("a baseline");
            let fields = [
                ("time", c.time),
                ("compute", c.breakdown.compute),
                ("sync", c.breakdown.sync),
                ("update", c.breakdown.update),
                ("energy", c.energy),
                ("aggregation", c.aggregation),
            ];
            for (field, v) in fields {
                got.push((format!("{model}/{}/{field}", method.name()), v));
            }
        }
        let payload = model.payload_bytes_fp32() as f64;
        for socs in [4, 8, 16, 24, 32] {
            let members: Vec<SocId> = (0..socs).map(SocId).collect();
            for (name, c) in [("ring", Collective::Ring), ("ps", Collective::Ps)] {
                let v = c.time(&net, &members, payload);
                got.push((format!("{model}/fig4b/{name}_{socs}_socs"), v));
            }
        }
    }
    assert_eq!(
        got.len(),
        104,
        "2 models × (7 methods × 6 fields + 10 latencies)"
    );
    assert_golden_bits(&got, BASELINE_GOLDEN);
}

/// Every SoCFlow price the repo computes, on the paper's 32-SoC server:
/// Eq. 1's whole cost, the timeline's time, energy and delayed aggregation
/// under each schedule (wait-free at the default bucket size) and the
/// plan search's floor, at 4 and 8 groups and the FP32, mixed and INT8
/// CPU shares.
fn socflow_prices() -> Vec<(String, f64)> {
    let mut got = Vec::new();
    for model in [ModelKind::Vgg11, ModelKind::ResNet18] {
        let method = MethodSpec::SocFlow(SocFlowConfig::full());
        let mut spec = TrainJobSpec::new(model, DatasetPreset::Cifar10, method);
        spec.socs = 32;
        let mut tm = TimeModel::new(&spec);
        let layout = models::grad_layout(&model.layers(ModelConfig::new(3, 32, 10, 0.25)));
        tm.set_overlap(DEFAULT_BUCKET_KB, &layout);
        for groups in [4, 8] {
            let mapping = integrity_greedy(&ClusterSpec::for_socs(32), 32, groups);
            let cgs = divide_communication_groups(&mapping).unwrap();
            for share in [1.0, 0.37, 0.0] {
                let at = format!("{model}/g{groups}/cpu{share}");
                let eq1 = tm.socflow_epoch(&mapping, &cgs, true, share);
                let fields = [
                    ("time", eq1.time),
                    ("compute", eq1.breakdown.compute),
                    ("sync", eq1.breakdown.sync),
                    ("update", eq1.breakdown.update),
                    ("energy", eq1.energy),
                    ("aggregation", eq1.aggregation),
                ];
                for (field, v) in fields {
                    got.push((format!("{at}/eq1/{field}"), v));
                }
                for (name, schedule) in [
                    ("interleaved", SyncSchedule::Interleaved),
                    ("serial", SyncSchedule::Serial),
                    ("wait-free", SyncSchedule::WaitFree),
                ] {
                    let c = simulate_socflow_schedule(&tm, &mapping, &cgs, true, schedule, share);
                    let fields = [
                        ("time", c.cost.time),
                        ("energy", c.cost.energy),
                        ("aggregation", c.cost.aggregation),
                    ];
                    for (field, v) in fields {
                        got.push((format!("{at}/{name}/{field}"), v));
                    }
                }
                let floor = tm.socflow_epoch_lower_bound(&mapping, share);
                got.push((format!("{at}/floor/time"), floor));
            }
        }
    }
    got
}

/// No other test pins SoCFlow's energy or breakdown at bit level: a change
/// to how Eq. 1, the timeline or the floor assembles an epoch that moves
/// any of them shows here.
#[test]
fn socflow_prices_match_the_golden_bits() {
    let got = socflow_prices();
    assert_eq!(
        got.len(),
        192,
        "2 models × 2 group counts × 3 shares × (6 + 3 × 3 + 1)"
    );
    assert_golden_bits(&got, SOCFLOW_GOLDEN);
}

/// Per model in [`ModelKind::ALL`] order: `per_sample` on the 865 CPU, the
/// 865 NPU, the V100 and the A100, then β, as `f64::to_bits`.
const ANCHOR_BITS: [([u64; 4], u64); 5] = [
    (
        [
            0x3f4a36e2eb1c432d,
            0x3f33a92a30553261,
            0x3f14f8b588e368f1,
            0x3f0cd5f99c38b04b,
        ],
        0x3fe745d1745d1746,
    ),
    (
        [
            0x3f85810624dd2f1b,
            0x3f6d7dbf487fcb92,
            0x3f2cd5f99c38b04b,
            0x3f24f8b588e368f1,
        ],
        0x3fe7d46cefa8d9df,
    ),
    (
        [
            0x3fb57a786c22680a,
            0x3f8a9fbe76c8b439,
            0x3f43a92a30553261,
            0x3f3b866e43aa79bb,
        ],
        0x3febb4f856a77f14,
    ),
    (
        [
            0x3fc47ae147ae147b,
            0x3f9a9fbe76c8b439,
            0x3f554c985f06f694,
            0x3f4d7dbf487fcb92,
        ],
        0x3feb86e1b86e1b87,
    ),
    (
        [
            0x3f719ce075f6fd22,
            0x3f589374bc6a7efa,
            0x3f2797cc39ffd60e,
            0x3f210a137f38c544,
        ],
        0x3fe7b9611a7b9612,
    ),
];

/// Every model's compute anchors on every processor, and its β, bit for
/// bit: the anchors feed every price on the simulated clock.
#[test]
fn compute_anchors_match_the_written_bits() {
    let procs = [
        Processor::SocCpuFp32,
        Processor::SocNpuInt8,
        Processor::GpuV100,
        Processor::GpuA100,
    ];
    for (model, (per_sample, beta)) in ModelKind::ALL.into_iter().zip(ANCHOR_BITS) {
        let spec = TrainJobSpec::new(model, DatasetPreset::Cifar10, MethodSpec::Ring);
        let tm = TimeModel::new(&spec);
        let compute = tm.compute();
        for (proc, bits) in procs.into_iter().zip(per_sample) {
            let got = compute.per_sample(proc);
            assert_eq!(got.to_bits(), bits, "{model} on {proc:?}: {got}");
        }
        assert_eq!(
            compute.beta().to_bits(),
            beta,
            "{model}: β {}",
            compute.beta()
        );
    }
}
