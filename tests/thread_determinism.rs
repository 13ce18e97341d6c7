//! Thread-count invariance of the worker-pool runtime: the pool partitions
//! every kernel, evaluation shard and aggregation chunk by problem shape —
//! never by thread count — so a run's `RunResult` AND its telemetry trace
//! must be byte-identical whether the pool has 1, 2 or 8 workers. These
//! tests pin that contract across the training methods (including the
//! mixed-precision and INT8 arms) and the fault / checkpoint-resume paths.

use socflow::checkpoint::Checkpoint;
use socflow::config::{Arms, MethodSpec, SocFlowConfig, TrainJobSpec};
use socflow::engine::{Engine, Workload};
use socflow::options::{Checkpointing, Pricing, RunOptions};
use socflow_cluster::faults::{FaultEvent, FaultKind, FaultPlan};
use socflow_cluster::SocId;
use socflow_data::DatasetPreset;
use socflow_nn::models::ModelKind;
use socflow_telemetry::MemorySink;
use socflow_tensor::runtime;
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn spec_of(method: MethodSpec) -> TrainJobSpec {
    let mut s = TrainJobSpec::new(ModelKind::LeNet5, DatasetPreset::FashionMnist, method);
    s.socs = 8;
    s.epochs = 2;
    s.global_batch = 32;
    s.seed = 11;
    s
}

/// Runs the engine `build` produces at pool size `threads` and returns the
/// serialized `RunResult` plus the serialized trace events.
fn fingerprint(threads: usize, build: &dyn Fn(Arc<MemorySink>) -> Engine) -> (String, Vec<String>) {
    runtime::set_threads(threads);
    let sink = Arc::new(MemorySink::new());
    let result = build(sink.clone()).run();
    let result_json = serde_json::to_string(&result).unwrap();
    let trace = sink
        .take()
        .iter()
        .map(|e| serde_json::to_string(e).unwrap())
        .collect();
    (result_json, trace)
}

/// Asserts byte-identical results and traces at every pool size in
/// [`THREAD_COUNTS`].
fn assert_thread_invariant(label: &str, build: &dyn Fn(Arc<MemorySink>) -> Engine) {
    let (base_result, base_trace) = fingerprint(THREAD_COUNTS[0], build);
    assert!(!base_trace.is_empty(), "{label}: trace must not be empty");
    for &t in &THREAD_COUNTS[1..] {
        let (result, trace) = fingerprint(t, build);
        assert_eq!(
            base_result, result,
            "{label}: RunResult must be byte-identical at {t} threads"
        );
        assert_eq!(
            base_trace, trace,
            "{label}: trace must be byte-identical at {t} threads"
        );
    }
    // leave the pool at its smallest size so test ordering cannot matter
    runtime::set_threads(THREAD_COUNTS[0]);
}

#[test]
fn socflow_arms_are_thread_count_invariant() {
    for arms in [Arms::Mixed, Arms::Fp32, Arms::Int8, Arms::Half] {
        let spec = spec_of(MethodSpec::SocFlow(SocFlowConfig {
            arms,
            ..SocFlowConfig::with_groups(2)
        }));
        let workload = Workload::standard(&spec, 96, 8, 0.5);
        assert_thread_invariant(&format!("{arms:?}"), &|sink| {
            Engine::new(
                spec,
                workload.clone(),
                RunOptions {
                    sink: Some(sink),
                    ..RunOptions::default()
                },
            )
        });
    }
}

#[test]
fn baseline_and_federated_methods_are_thread_count_invariant() {
    let methods: [(&str, MethodSpec); 3] = [
        ("ring", MethodSpec::Ring),
        ("fedavg", MethodSpec::FedAvg),
        ("local", MethodSpec::Local),
    ];
    for (label, method) in methods {
        let spec = spec_of(method);
        let workload = Workload::standard(&spec, 96, 8, 0.5);
        assert_thread_invariant(label, &|sink| {
            Engine::new(
                spec,
                workload.clone(),
                RunOptions {
                    sink: Some(sink),
                    ..RunOptions::default()
                },
            )
        });
    }
}

/// Delayed aggregation averages every tensor in fixed chunks on the pool:
/// four mixed replicas of a batch-norm model — weights, both momentum
/// families and a sharded evaluation of the merged model — must come out
/// byte-identical however many workers take the chunks.
#[test]
fn delayed_aggregation_is_thread_count_invariant() {
    let mut spec = spec_of(MethodSpec::SocFlow(SocFlowConfig::with_groups(4)));
    spec.model = ModelKind::ResNet18;
    // 640 / 4 = 160 test samples: two evaluation shards
    let workload = Workload::standard(&spec, 640, 8, 0.18);
    assert_thread_invariant("delayed aggregation", &|sink| {
        Engine::new(
            spec,
            workload.clone(),
            RunOptions {
                sink: Some(sink),
                ..RunOptions::default()
            },
        )
    });
}

/// Wait-free gradient overlap changes only the *pricing* of an epoch (the
/// fluid-timeline schedule), never the learning dynamics — so an overlap
/// run's result and trace (bucket spans, `BucketFlushed` events and all)
/// must stay byte-identical across pool sizes too.
#[test]
fn overlap_runs_are_thread_count_invariant() {
    let spec = spec_of(MethodSpec::SocFlow(SocFlowConfig::with_groups(2)));
    let workload = Workload::standard(&spec, 96, 8, 0.5);
    assert_thread_invariant("overlap", &|sink| {
        Engine::new(
            spec,
            workload.clone(),
            RunOptions {
                pricing: Pricing::wait_free_kb(32),
                sink: Some(sink),
                ..RunOptions::default()
            },
        )
    });
}

#[test]
fn faulted_runs_are_thread_count_invariant() {
    let plan = FaultPlan::from_events(vec![
        FaultEvent {
            at: 0.0,
            soc: SocId(6),
            kind: FaultKind::Reclaimed,
        },
        FaultEvent {
            at: 1.0,
            soc: SocId(3),
            kind: FaultKind::Crashed,
        },
    ]);
    let spec = spec_of(MethodSpec::SocFlow(SocFlowConfig::with_groups(2)));
    let workload = Workload::standard(&spec, 96, 8, 0.5);
    assert_thread_invariant("faulted", &|sink| {
        Engine::new(
            spec,
            workload.clone(),
            RunOptions {
                sink: Some(sink),
                faults: Some(plan.clone()),
                ..RunOptions::default()
            },
        )
    });
}

/// Streaming ingestion runs entirely on the coordinating thread — stream
/// cursors, buffer levels, stall pricing and rate-aware regrouping must
/// all be byte-identical at every pool size, with regrouping on and off.
#[test]
fn streaming_runs_are_thread_count_invariant() {
    use socflow::config::StreamingConfig;
    use socflow_data::stream::RateProfile;

    let arms: [(&str, RateProfile, bool); 3] = [
        ("uniform", RateProfile::Uniform, true),
        ("bimodal-rate-aware", RateProfile::Bimodal, true),
        ("hetero-topology", RateProfile::Heterogeneous, false),
    ];
    for (label, profile, rate_aware) in arms {
        let spec = spec_of(MethodSpec::SocFlow(SocFlowConfig::with_groups(4)));
        let workload = Workload::standard(&spec, 128, 8, 0.5);
        let mut scfg = StreamingConfig::new(profile);
        scfg.rate_aware = rate_aware;
        assert_thread_invariant(label, &|sink| {
            Engine::new(
                spec,
                workload.clone(),
                RunOptions {
                    sink: Some(sink),
                    streaming: Some(scfg),
                    ..RunOptions::default()
                },
            )
        });
    }
}

/// Training numerics across commits *and* pool sizes: `train --json` stdout
/// whose accuracies and α traces are those of the binary before the
/// ISA-dispatched kernels (one epoch of a
/// batch-norm-free LeNet), of the binary before the in-place parameter
/// sweeps (three epochs over four mixed VGG-11 replicas, accuracy 0.11 →
/// 0.20 → 0.30, so the averaged momentum of both arms feeds later steps)
/// and of the binary before the live-tap convolution lowering (three epochs
/// over two mixed ResNet-18 replicas: the stride-2 convs, projected 1×1
/// shortcuts and residual blocks the other two lack; accuracy is still at
/// chance, so the fingerprint is the `alpha_trace`, a cosine over probe
/// logits that moves with any weight bit). The files were last re-written
/// when every SoCFlow epoch came to be priced on the fluid timeline, which
/// moved their simulated times by at most 7e-12 relative and their
/// accuracies and α traces not at all. The fourth is the LeNet-5 workload
/// the direct convolution was claimed on, as the binary before it wrote
/// it: eight mixed groups over 32 SoCs with wait-free pricing, three
/// epochs of 2,048 FMNIST samples, so both convolution paths, the pool
/// and a multi-shard evaluation are all crossed.
/// CI `cmp`s the CLI against the same four files.
#[test]
fn mixed_training_matches_the_parent_commit_goldens_at_1_and_4_threads() {
    use socflow::options::Plan;
    use socflow::scheduler::GlobalScheduler;
    use socflow::timemodel::DEFAULT_BUCKET_KB;

    // (golden, model, preset, the CLI's width for it, socs, groups, epochs,
    // samples, the pricing `--overlap` selects or not)
    let timeline = Pricing::Timeline;
    let goldens = [
        (
            include_str!("golden/train_lenet5_mixed_e1_s11.json"),
            ModelKind::LeNet5,
            DatasetPreset::FashionMnist,
            0.5,
            (4, 2, 1, 128, timeline),
        ),
        (
            include_str!("golden/train_vgg11_mixed_g4_e3_s11.json"),
            ModelKind::Vgg11,
            DatasetPreset::Cifar10,
            0.22,
            (8, 4, 3, 768, timeline),
        ),
        (
            include_str!("golden/train_resnet18_mixed_g2_e3_s11.json"),
            ModelKind::ResNet18,
            DatasetPreset::Cifar10,
            0.18,
            (8, 2, 3, 768, timeline),
        ),
        (
            include_str!("golden/train_lenet5_mixed_g8_e3_s11.json"),
            ModelKind::LeNet5,
            DatasetPreset::FashionMnist,
            0.5,
            (32, 8, 3, 2048, Pricing::wait_free_kb(DEFAULT_BUCKET_KB)),
        ),
    ];
    for (golden, model, preset, width, (socs, groups, epochs, samples, pricing)) in goldens {
        // the CLI's `train` set-up
        let method = MethodSpec::SocFlow(SocFlowConfig::with_groups(groups));
        let mut spec = TrainJobSpec::new(model, preset, method);
        spec.socs = socs;
        spec.epochs = epochs;
        spec.seed = 11;
        spec.lr = 0.05;
        for threads in [1, 4] {
            runtime::set_threads(threads);
            let workload = Workload::standard(&spec, samples, 8, width);
            let options = RunOptions {
                pricing,
                ..RunOptions::default()
            };
            let result = GlobalScheduler::new(spec, workload, options, Plan::Fixed).run();
            let printed = serde_json::to_string_pretty(&result).unwrap() + "\n";
            assert_eq!(printed, golden, "{model} at {threads} threads");
        }
    }
    runtime::set_threads(1);
}

/// Checkpoint bytes written at one pool size must resume bit-exactly at
/// another: the durable artifact itself is part of the determinism
/// contract, so the full run, the checkpointing run and the resumed
/// continuation each execute at a different pool size.
#[test]
fn checkpoint_resume_crosses_thread_counts_bit_exactly() {
    let dir = std::env::temp_dir().join("socflow_thread_det_resume");
    std::fs::remove_dir_all(&dir).ok();
    let spec = spec_of(MethodSpec::SocFlow(SocFlowConfig::with_groups(2)));
    let workload = Workload::standard(&spec, 96, 8, 0.5);

    runtime::set_threads(1);
    let full = Engine::new(spec, workload.clone(), RunOptions::default()).run();

    runtime::set_threads(8);
    let mut short = spec;
    short.epochs = 1;
    let _ = Engine::new(
        short,
        Workload::standard(&short, 96, 8, 0.5),
        RunOptions {
            checkpointing: Some(
                Checkpointing::new(dir.clone(), Some(1)).expect("usable checkpoint dir"),
            ),
            ..RunOptions::default()
        },
    )
    .run();
    let ckpt = Checkpoint::load(&dir).expect("short run persisted a checkpoint");
    assert_eq!(ckpt.epoch, 1);

    runtime::set_threads(2);
    let resumed = Engine::new(
        spec,
        workload,
        RunOptions {
            resume: Some(ckpt),
            ..RunOptions::default()
        },
    )
    .run();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        resumed, full,
        "a continuation resumed at a different pool size must be bit-identical"
    );
    runtime::set_threads(1);
}
