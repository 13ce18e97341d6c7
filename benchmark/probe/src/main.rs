//! `socflow-probe` — the benchmark's out-of-process per-layer probe.
//!
//! ```text
//! socflow-probe --calib
//! socflow-probe --dir <scratch> --threads <N> -- <socflow-cli arguments>
//! ```
//!
//! It is handed the very command line a workload runs, reads the shapes
//! from it (model, dataset, SoC and group counts, job mix), and times
//! the leaf public functions of each layer at those shapes — one span
//! around every call, never the `Engine`/`GlobalScheduler` builders.
//! Prints one JSON object: `{"metrics": {name: value}, "spans":
//! [[layer, name, start_ns, end_ns], …]}`; the runner parents the spans
//! under the workload's root and merges the metrics into its per-layer
//! table. Which end-to-end metric each row should move is in README.md.

#[path = "../../src/stats.rs"]
mod stats;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;
use socflow::autotune::{self, PlanCandidate};
use socflow::checkpoint::Checkpoint;
use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
use socflow::fleet::{self, FleetPolicy, FleetSim, FleetSpec};
use socflow::mapping::{self, GroupId, Mapping};
use socflow::mixed::MixedPrecisionController;
use socflow::planning::{divide_communication_groups, CommunicationGroups};
use socflow::sim::{simulate_socflow_schedule, SyncSchedule};
use socflow::timemodel::{TimeModel, DEFAULT_BUCKET_KB};
use socflow_cluster::tidal::TidalTrace;
use socflow_cluster::timeline::{reset_scratch_stats, scratch_stats};
use socflow_cluster::{calibration, ClusterNet, ClusterSpec, Flow, FluidTimeline, SocId};
use socflow_data::{Batch, Dataset, DatasetPreset, StreamSource};
use socflow_nn::models::{ModelConfig, ModelKind};
use socflow_nn::optim::Sgd;
use socflow_nn::{loss, GradReady, Mode, Network, Precision};
use socflow_telemetry::{read_trace, Event, EventSink, MemorySink, Summary, TraceWriter};
use socflow_tensor::quant::{self, QuantParams};
use socflow_tensor::{linalg, Tensor};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Per-replica batch size (`TrainJobSpec::global_batch`'s default, which
/// the CLI never overrides) and input side (`Workload::standard`'s).
const BATCH: usize = 64;
const INPUT_SIZE: usize = 8;

/// Collects spans and metrics on one clock that starts with the process.
struct Probe {
    origin: Instant,
    spans: Vec<Value>,
    metrics: Vec<(String, Value)>,
}

impl Probe {
    /// Runs `f` inside a span and returns its result and its seconds.
    fn span<R>(&mut self, layer: &str, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.spans.push(Value::Array(vec![
            Value::Str(layer.into()),
            Value::Str(name.into()),
            Value::U64(start.as_nanos() as u64),
            Value::U64(end.as_nanos() as u64),
        ]));
        (out, (end - start).as_secs_f64())
    }

    /// One span around `iters` back-to-back calls of a function too short
    /// to time alone; returns seconds per call.
    fn per_call<R>(
        &mut self,
        layer: &str,
        name: &str,
        iters: usize,
        mut f: impl FnMut() -> R,
    ) -> f64 {
        let ((), secs) = self.span(layer, &format!("{name} x{iters}"), || {
            for _ in 0..iters {
                black_box(f());
            }
        });
        secs / iters as f64
    }

    fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.into(), Value::F64(value)));
    }
}

/// The `--flag value` pairs of a `socflow-cli` command line.
struct CliArgs<'a>(&'a [String]);

impl CliArgs<'_> {
    fn get(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("`{flag} {v}` is not a number")),
        }
    }
}

/// The CLI's model table with its default widths (`socflow-cli` is a
/// binary, so its lookup cannot be linked): the models the workloads use.
fn model_of(name: &str) -> Result<(ModelKind, f32), String> {
    match name {
        "lenet5" => Ok((ModelKind::LeNet5, 0.5)),
        "vgg11" => Ok((ModelKind::Vgg11, 0.22)),
        "resnet18" => Ok((ModelKind::ResNet18, 0.18)),
        other => Err(format!("the probe has no width for model `{other}`")),
    }
}

fn dataset_of(name: &str) -> Result<DatasetPreset, String> {
    match name {
        "cifar10" => Ok(DatasetPreset::Cifar10),
        "fmnist" => Ok(DatasetPreset::FashionMnist),
        other => Err(format!("the probe does not know dataset `{other}`")),
    }
}

/// The job a `train`/`tune` command line describes, as the CLI builds it.
struct Job {
    spec: TrainJobSpec,
    width: f32,
    mixed: bool,
}

fn job_of(cli: &CliArgs) -> Result<Job, String> {
    let (model, width) = model_of(cli.get("--model").unwrap_or("lenet5"))?;
    let preset = dataset_of(cli.get("--dataset").unwrap_or("fmnist"))?;
    let groups = cli
        .get("--groups")
        .map(str::parse)
        .transpose()
        .map_err(|_| "bad --groups")?;
    let (method, mixed) = match cli.get("--method").unwrap_or("ours") {
        "ours" => {
            let cfg = SocFlowConfig {
                groups,
                ..SocFlowConfig::full()
            };
            (MethodSpec::SocFlow(cfg), true)
        }
        "ring" => (MethodSpec::Ring, false),
        other => return Err(format!("the probe does not know method `{other}`")),
    };
    let mut spec = TrainJobSpec::new(model, preset, method);
    spec.socs = cli.number("--socs", 32)?;
    spec.seed = cli.number("--seed", 42)?;
    spec.lr = 0.05;
    Ok(Job { spec, width, mixed })
}

fn build_net(job: &Job, channels: usize, classes: usize) -> Network {
    let cfg = ModelConfig::new(channels, INPUT_SIZE, classes, job.width);
    job.spec
        .model
        .build(cfg, &mut StdRng::seed_from_u64(job.spec.seed))
}

fn topology(socs: usize, groups: usize) -> (Mapping, CommunicationGroups) {
    let mapping = mapping::integrity_greedy(&ClusterSpec::for_socs(socs), socs, groups);
    // the one-CG-per-group fallback the tuner and the fleet use
    let cgs = divide_communication_groups(&mapping).unwrap_or_else(|_| CommunicationGroups {
        cgs: (0..mapping.num_groups())
            .map(|g| vec![GroupId(g)])
            .collect(),
    });
    (mapping, cgs)
}

/// The CPU share of a batch the tuner prices a mixed job with.
fn cpu_fraction(tm: &TimeModel, mixed: bool) -> f64 {
    if !mixed {
        return 1.0;
    }
    let beta = (tm.compute().beta() as f32).clamp(0.05, 0.95);
    f64::from(MixedPrecisionController::new(beta).cpu_fraction())
}

/// 128³ f32 GEMM, median of 25 timed calls after a warm-up, nanoseconds.
fn calib_gemm128_ns() -> f64 {
    let n = 128;
    let a = vec![0.5f32; n * n];
    let b = vec![0.25f32; n * n];
    let mut out = vec![0.0f32; n * n];
    let mut samples = Vec::new();
    for i in 0..30 {
        let t = Instant::now();
        linalg::matmul_slices(black_box(&a), black_box(&b), &mut out, n, n, n);
        black_box(&out);
        if i >= 5 {
            samples.push(t.elapsed().as_nanos() as f64);
        }
    }
    stats::median(&samples)
}

/// tensor: GEMM throughput at the three largest GEMM shapes of the
/// workload's model. `(m, k)` come from the weight tensors; the column
/// count is the batch for a linear layer and batch × 16 positions for a
/// convolution (a 4×4 map, mid-network for the 8×8 inputs all workloads
/// train on) — the layers' activations are not visible from outside.
fn probe_tensor(p: &mut Probe, net: &Network, mixed: bool) {
    let mut shapes: Vec<(usize, usize, usize)> = net
        .parameters()
        .iter()
        .filter_map(|param| match param.value.shape().dims() {
            [out, rest @ ..] if rest.len() == 3 => Some((*out, rest.iter().product(), BATCH * 16)),
            [a, b] => Some((BATCH, *a, *b)),
            _ => None,
        })
        .collect();
    shapes.sort_by_key(|(m, k, n)| std::cmp::Reverse(m * k * n));
    shapes.truncate(3);

    let (mut f32_s, mut i8_s, mut ops) = (0.0, 0.0, 0.0);
    for &(m, k, n) in &shapes {
        let iters = (40_000_000 / (m * k * n)).clamp(2, 200);
        ops += 2.0 * (m * k * n * iters) as f64;
        let a = vec![0.5f32; m * k];
        let b = vec![0.25f32; k * n];
        let mut out = vec![0.0f32; m * n];
        let name = format!("matmul_slices {m}x{k}x{n}");
        f32_s += iters as f64
            * p.per_call("tensor", &name, iters, || {
                linalg::matmul_slices(black_box(&a), black_box(&b), &mut out, m, k, n)
            });
        if mixed {
            let (a8, b8) = (vec![3i8; m * k], vec![-2i8; n * k]);
            let mut out32 = vec![0i32; m * n];
            let name = format!("matmul_i8_a_bt_slices {m}x{k}x{n}");
            i8_s += iters as f64
                * p.per_call("tensor", &name, iters, || {
                    linalg::matmul_i8_a_bt_slices(
                        black_box(&a8),
                        black_box(&b8),
                        &mut out32,
                        m,
                        k,
                        n,
                    )
                });
        }
    }
    p.metric("tensor.gemm_f32_gflops", ops / f32_s / 1e9);
    if mixed {
        p.metric("tensor.gemm_i8_gops", ops / i8_s / 1e9);
        // the beta premise: the INT8 arm is only worth having below 1
        p.metric("tensor.i8_over_f32_time", i8_s / f32_s);
        let weights = Tensor::from_vec(net.flat_weights(), [net.param_count()]);
        let params = QuantParams::from_tensor(&weights);
        let per_call = p.per_call("tensor", "quant::fake_quant", 20, || {
            quant::fake_quant(&weights, params)
        });
        p.metric(
            "tensor.fake_quant_ns_per_elem",
            per_call * 1e9 / weights.len() as f64,
        );
    }
}

/// data: corpus synthesis at the workload's size, one epoch of batches,
/// and the streaming source's per-batch draw. Returns the batches.
fn probe_data(p: &mut Probe, job: &Job, samples: usize) -> Vec<Batch> {
    let test_n = (samples / 4).max(64);
    let spec = job
        .spec
        .preset
        .synthetic_spec(samples + test_n, INPUT_SIZE, job.spec.seed);
    let (all, secs) = p.span("data", "Dataset::synthetic", || Dataset::synthetic(spec));
    p.metric("data.synth_s", secs);
    let train = all.subset(&(0..samples).collect::<Vec<_>>());
    let mut rng = StdRng::seed_from_u64(job.spec.seed);
    let (batches, secs) = p.span("data", "Dataset::epoch_batches", || {
        train.epoch_batches(BATCH, &mut rng).collect::<Vec<_>>()
    });
    p.metric("data.batch_s", secs);
    p.metric("data.batches", batches.len() as f64);
    let stream = StreamSource::new(samples, job.spec.seed);
    let mut pos = 0u64;
    let per_call = p.per_call("data", "StreamSource::take", 2000, || {
        pos += BATCH as u64;
        stream.take(pos, BATCH)
    });
    p.metric("data.stream_take_ns", per_call * 1e9);
    batches
}

/// nn: up to 100 training steps of the workload's model on its real
/// batches (fewer when they would take over 2.5 s), one span per call.
fn probe_nn(p: &mut Probe, net: &mut Network, batches: &[Batch]) {
    let mode = Mode::train(Precision::Fp32);
    let mut opt = Sgd::new(0.05, 0.9, 5e-4);
    let mut stage = Vec::new();
    let (mut fwd, mut los, mut bwd, mut upd, mut copy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut step_ms = Vec::new();
    let started = Instant::now();
    for batch in batches.iter().cycle().take(100) {
        if started.elapsed().as_secs_f64() > 2.5 {
            break;
        }
        let (logits, a) = p.span("nn", "Network::forward", || {
            net.forward(&batch.images, mode)
        });
        let ((_, grad), b) = p.span("nn", "loss::softmax_cross_entropy", || {
            loss::softmax_cross_entropy(&logits, &batch.labels)
        });
        let (_, c) = p.span("nn", "Network::backward", || net.backward(&grad, mode));
        let ((), d) = p.span("nn", "Sgd::step", || {
            opt.step(net);
            net.zero_grad();
        });
        // what a mixed step and every aggregation pay per replica
        let ((), e) = p.span("nn", "flat_weights_into+set_flat_weights", || {
            net.flat_weights_into(&mut stage);
            net.set_flat_weights(&stage);
        });
        fwd += a;
        los += b;
        bwd += c;
        upd += d;
        copy += e;
        step_ms.push((a + b + c + d + e) * 1e3);
    }
    p.metric("nn.forward_s", fwd);
    p.metric("nn.loss_s", los);
    p.metric("nn.backward_s", bwd);
    p.metric("nn.optim_step_s", upd);
    p.metric("nn.flat_copy_s", copy);
    p.metric("nn.step_ms_p50", stats::median(&step_ms));
    if let Some(p90) = stats::p90(&step_ms) {
        p.metric("nn.step_ms_p90", p90);
    }
    p.metric("nn.steps", step_ms.len() as f64);
}

/// collectives and core.mixed: replica averaging and the Eq. 5 merge
/// over flat-weight buffers of the workload's model.
fn probe_aggregation(p: &mut Probe, net: &Network, replicas: usize, mixed: bool) {
    let flat = net.flat_weights();
    let bytes = (flat.len() * 4) as f64;
    let iters = (20_000_000 / flat.len().max(1)).clamp(5, 2000);
    if replicas > 1 {
        let mut buffers = vec![flat.clone(); replicas];
        let per_call = p.per_call("collectives", "allreduce_mean", iters, || {
            socflow_collectives::allreduce_mean(&mut buffers)
        });
        p.metric(
            "collectives.allreduce_gb_per_s",
            bytes * replicas as f64 / per_call / 1e9,
        );
    }
    if mixed {
        let ctrl = MixedPrecisionController::new(0.5);
        let (mut fp32, int8) = (flat.clone(), flat);
        let per_call = p.per_call("core.mixed", "merge_weights_inplace", iters, || {
            ctrl.merge_weights_inplace(&mut fp32, &int8)
        });
        p.metric("core.mixed.merge_gb_per_s", 2.0 * bytes / per_call / 1e9);
    }
}

/// core.checkpoint: encode, decode, save and load of a checkpoint with
/// the workload's replica count × parameter count (weights + momentum).
fn probe_checkpoint(
    p: &mut Probe,
    net: &Network,
    replicas: usize,
    dir: &Path,
) -> Result<(), String> {
    let flat = net.flat_weights();
    let mut ckpt = Checkpoint::new(3, vec![flat.clone(); replicas], 0.9);
    ckpt.velocities = vec![flat; replicas];
    let (bytes, enc) = p.span("core.checkpoint", "Checkpoint::to_bytes", || {
        ckpt.to_bytes()
    });
    let bytes = bytes?;
    let mb = bytes.len() as f64 / 1e6;
    p.metric("core.checkpoint.encode_mb_per_s", mb / enc);
    let (back, dec) = p.span("core.checkpoint", "Checkpoint::from_bytes", || {
        Checkpoint::from_bytes(&bytes)
    });
    back?;
    p.metric("core.checkpoint.decode_mb_per_s", mb / dec);
    let dir = dir.join("probe-ckpt");
    let (saved, secs) = p.span("core.checkpoint", "Checkpoint::save", || ckpt.save(&dir));
    saved?;
    p.metric("core.checkpoint.save_s", secs);
    let (loaded, secs) = p.span("core.checkpoint", "Checkpoint::load", || {
        Checkpoint::load(&dir)
    });
    loaded?;
    p.metric("core.checkpoint.load_s", secs);
    Ok(())
}

/// telemetry: the cost of one emit into memory, JSONL throughput through
/// `TraceWriter`, and `read_trace` + `Summary` on the traced run's file.
fn probe_telemetry(p: &mut Probe, dir: &Path) -> Result<(), String> {
    let event = Event::EpochCompleted {
        epoch: 3,
        accuracy: 0.59375,
        time: 15.354549417280436,
        compute: 0.5562577095031739,
        sync: 14.797126698497264,
        update: 0.00116500949859619,
        aggregation: 0.45,
        alpha: 0.9993,
        cpu_fraction: 0.42,
        energy: 722.25,
        groups: 8,
    };
    let sink = MemorySink::new();
    let per_call = p.per_call("telemetry", "MemorySink::emit", 20_000, || {
        sink.emit(&event)
    });
    p.metric("telemetry.emit_ns", per_call * 1e9);

    let path = dir.join("probe.jsonl");
    let writer = TraceWriter::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let per_call = p.per_call("telemetry", "TraceWriter::emit", 2000, || {
        writer.emit(&event)
    });
    drop(writer);
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    p.metric(
        "telemetry.jsonl_mb_per_s",
        bytes as f64 / 1e6 / (per_call * 2000.0),
    );

    let recorded = dir.join("run.jsonl");
    if recorded.is_file() {
        let (summary, secs) = p.span("telemetry", "read_trace+Summary::from_events", || {
            read_trace(&recorded).map(|events| Summary::from_events(&events))
        });
        black_box(summary?);
        p.metric("telemetry.summary_ms", secs * 1e3);
    }
    Ok(())
}

/// core.timemodel, core.mapping, core.planning: the closed forms and the
/// topology pipeline a tuner candidate or a fleet pricing pays for.
fn probe_planning(p: &mut Probe, spec: &TrainJobSpec, groups: usize, mixed: bool) {
    let socs = spec.socs;
    let cluster = ClusterSpec::for_socs(socs);
    let per_call = p.per_call("core.mapping", "integrity_greedy", 2000, || {
        mapping::integrity_greedy(&cluster, socs, groups)
    });
    p.metric("core.mapping.greedy_us", per_call * 1e6);
    let mapping = mapping::integrity_greedy(&cluster, socs, groups);
    let per_call = p.per_call("core.planning", "divide_communication_groups", 2000, || {
        divide_communication_groups(&mapping)
    });
    p.metric("core.planning.cg_us", per_call * 1e6);
    let (mapping, cgs) = topology(socs, groups);
    let tm = TimeModel::new(spec);
    let share = cpu_fraction(&tm, mixed);
    let per_call = p.per_call("core.timemodel", "socflow_epoch (Eq. 1)", 2000, || {
        tm.socflow_epoch(&mapping, &cgs, true, share)
    });
    p.metric("core.timemodel.eq1_ns", per_call * 1e9);
    let per_call = p.per_call(
        "core.timemodel",
        "socflow_epoch_lower_bound",
        20_000,
        || tm.socflow_epoch_lower_bound(&mapping, share),
    );
    p.metric("core.timemodel.lower_bound_ns", per_call * 1e9);
}

/// One timeline pricing of `cand`, as `autotune::price_plan_uncached`
/// runs it, but keeping the simulated epoch so its spans can be counted.
fn price(spec: &TrainJobSpec, layout: &[GradReady], cand: &PlanCandidate, mixed: bool) -> usize {
    let (mapping, cgs) = topology(spec.socs, cand.groups);
    let mut tm = TimeModel::new(spec);
    tm.set_simulated(true);
    if let Some(kb) = cand.bucket_kb {
        tm.set_overlap(kb, layout);
    }
    let share = cpu_fraction(&tm, mixed);
    simulate_socflow_schedule(&tm, &mapping, &cgs, true, cand.schedule, share)
        .spans
        .len()
}

/// core.sim + cluster: one span per pricing of every given candidate,
/// then the timeline driven directly with one ring step over all SoCs.
fn probe_sim(p: &mut Probe, job: &Job, layout: &[GradReady], candidates: &[PlanCandidate]) {
    reset_scratch_stats();
    let (mut price_ms, mut spans) = (Vec::new(), 0usize);
    for cand in candidates {
        let name = format!(
            "price g{} {} {}",
            cand.groups,
            cand.schedule_name(),
            cand.bucket_kb
                .map_or(String::new(), |kb| format!("{kb}KiB"))
        );
        let (n, secs) = p.span("core.sim", name.trim_end(), || {
            price(&job.spec, layout, cand, job.mixed)
        });
        spans += n;
        price_ms.push(secs * 1e3);
    }
    let total_s = price_ms.iter().sum::<f64>() / 1e3;
    p.metric("core.sim.price_ms_p50", stats::median(&price_ms));
    if let Some(p90) = stats::p90(&price_ms) {
        p.metric("core.sim.price_ms_p90", p90);
    }
    p.metric(
        "core.sim.price_ms_max",
        price_ms.iter().copied().fold(0.0, f64::max),
    );
    p.metric("core.sim.spans", spans as f64);
    // host time per simulated event
    p.metric("cluster.timeline_spans_per_s", spans as f64 / total_s);
    let scratch = scratch_stats();
    p.metric("cluster.scratch_acquires", scratch.acquires as f64);
    p.metric("cluster.scratch_misses", scratch.misses as f64);

    let socs = job.spec.socs;
    let net = ClusterNet::new(ClusterSpec::for_socs(socs));
    let chunk = job.spec.model.payload_bytes_fp32() as f64 / socs as f64;
    let ring: Vec<Flow> = (0..socs)
        .map(|i| Flow::new(SocId(i), SocId((i + 1) % socs), chunk))
        .collect();
    let mut advances = 0u64;
    let ((), secs) = p.span("cluster", "FluidTimeline ring step x200", || {
        for _ in 0..200 {
            let mut timeline = FluidTimeline::new(&net);
            // every SoC starts its own transfer, as a ring step does
            for flow in &ring {
                timeline.start_flows(std::slice::from_ref(flow), calibration::STEP_LATENCY_INTER);
            }
            while timeline.advance().is_some() {
                advances += 1;
            }
        }
    });
    p.metric("cluster.timeline_advances", advances as f64);
    p.metric("cluster.timeline_advances_per_s", advances as f64 / secs);
}

/// core.autotune: a warm `price_plan` — the hash lookup a second tune
/// pass and every fleet re-pricing rely on.
fn probe_memo(p: &mut Probe, spec: &TrainJobSpec, layout: &[GradReady], groups: usize) {
    let cand = PlanCandidate {
        groups,
        schedule: SyncSchedule::Serial,
        bucket_kb: None,
        profiled_beta: None,
    };
    p.span("core.autotune", "price_plan (cold)", || {
        autotune::price_plan(spec, layout, &cand)
    });
    let per_call = p.per_call("core.autotune", "price_plan (warm)", 20_000, || {
        autotune::price_plan(spec, layout, &cand)
    });
    p.metric("core.autotune.memo_hit_ns", per_call * 1e9);
}

fn wait_free(groups: usize, bucket_kb: usize) -> PlanCandidate {
    PlanCandidate {
        groups,
        schedule: SyncSchedule::WaitFree,
        bucket_kb: Some(bucket_kb),
        profiled_beta: None,
    }
}

fn probe_train(p: &mut Probe, cli: &CliArgs, dir: &Path) -> Result<(), String> {
    let job = job_of(cli)?;
    let samples = cli.number("--samples", 2048)?;
    let replicas = match job.spec.method {
        MethodSpec::SocFlow(cfg) => cfg.groups.unwrap_or(1),
        _ => 1,
    };
    let batches = probe_data(p, &job, samples);
    let first = batches.first().ok_or("the workload has no batches")?;
    let dims = first.images.shape().dims();
    let classes = job.spec.preset.spec().classes;
    let mut net = build_net(&job, dims[1], classes);
    probe_tensor(p, &net, job.mixed);
    probe_nn(p, &mut net, &batches);
    probe_aggregation(p, &net, replicas, job.mixed);
    probe_telemetry(p, dir)?;
    probe_planning(p, &job.spec, replicas, job.mixed);
    if cli.has("--checkpoint-dir") {
        probe_checkpoint(p, &net, replicas, dir)?;
    }
    if cli.has("--overlap") {
        // what `--overlap` prices every epoch: wait-free at the job's shape
        let kb = cli.number("--bucket-kb", DEFAULT_BUCKET_KB)?;
        probe_sim(p, &job, &net.grad_layout(), &[wait_free(replicas, kb); 5]);
    }
    Ok(())
}

fn probe_tune(p: &mut Probe, cli: &CliArgs) -> Result<(), String> {
    let job = job_of(cli)?;
    let classes = job.spec.preset.spec().classes;
    let channels = job.spec.preset.spec().channels;
    let layout = build_net(&job, channels, classes).grad_layout();
    // every plan kind at a spread of group counts, cheap to dear; the
    // search itself prices the 60..=12 end and prunes or skips the rest
    let mut candidates = Vec::new();
    for groups in [60, 30, 20, 12, 8, 6] {
        let groups = groups.min(job.spec.socs);
        for schedule in [SyncSchedule::Serial, SyncSchedule::Interleaved] {
            candidates.push(PlanCandidate {
                groups,
                schedule,
                bucket_kb: None,
                profiled_beta: None,
            });
        }
        candidates.extend(
            autotune::BUCKET_GRID_KB
                .iter()
                .map(|&kb| wait_free(groups, kb)),
        );
    }
    probe_sim(p, &job, &layout, &candidates);
    let groups = autotune::default_candidate(&job.spec).groups;
    probe_planning(p, &job.spec, groups, job.mixed);
    probe_memo(p, &job.spec, &layout, job.spec.socs);
    Ok(())
}

fn probe_fleet(p: &mut Probe, cli: &CliArgs) -> Result<(), String> {
    let seed = cli.number("--seed", 42)?;
    let jobs_n = cli.number("--jobs", 12)?;
    let interarrival = cli.number("--interarrival", 5400.0)?;
    let spec = FleetSpec {
        servers: cli.number("--servers", 4)?,
        socs_per_server: cli.number("--socs", 32)?,
        seed,
        horizon_hours: cli.number("--horizon", 72)?,
        policy: FleetPolicy::parse(cli.get("--policy").unwrap_or("tidal"))?,
    };
    let per_call = p.per_call("core.fleet", "sample_poisson_arrivals", 200, || {
        fleet::sample_poisson_arrivals(jobs_n, interarrival, seed)
    });
    p.metric("core.fleet.arrivals_us", per_call * 1e6);
    let per_call = p.per_call("cluster", "TidalTrace::generate", 200, || {
        TidalTrace::generate(spec.socs_per_server, seed)
    });
    p.metric("cluster.tidal_trace_us", per_call * 1e6);

    let jobs = fleet::standard_job_mix(jobs_n, interarrival, seed);
    let first = jobs.first().ok_or("the fleet has no jobs")?.spec;
    let sink = Arc::new(MemorySink::new());
    let sim = FleetSim::new(spec, jobs).with_sink(sink.clone());
    p.span("core.fleet", "FleetSim::run", || sim.run());
    p.metric("core.fleet.events", sink.len() as f64);
    // the run above left every job shape in the memo
    let per_call = p.per_call("core.fleet", "priced_epoch_seconds (warm)", 20_000, || {
        fleet::priced_epoch_seconds(&first, first.socs)
    });
    p.metric("core.fleet.priced_warm_ns", per_call * 1e9);

    let groups = autotune::default_candidate(&first).groups;
    probe_planning(p, &first, groups, false);
    probe_memo(p, &first, &[], groups);
    Ok(())
}

fn run(argv: &[String]) -> Result<String, String> {
    if argv == ["--calib"] {
        return Ok(calib_gemm128_ns().to_string());
    }
    let split = argv
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: socflow-probe --calib | --dir D --threads N -- <socflow-cli arguments>")?;
    let own = CliArgs(&argv[..split]);
    let dir = PathBuf::from(own.get("--dir").ok_or("no --dir given")?);
    socflow_tensor::runtime::set_threads(own.number("--threads", 1)?);
    let (command, rest) = argv[split + 1..]
        .split_first()
        .ok_or("no socflow-cli command given")?;
    let cli = CliArgs(rest);

    let mut p = Probe {
        origin: Instant::now(),
        spans: Vec::new(),
        metrics: Vec::new(),
    };
    match command.as_str() {
        "train" => probe_train(&mut p, &cli, &dir)?,
        "tune" => probe_tune(&mut p, &cli)?,
        "fleet" => probe_fleet(&mut p, &cli)?,
        other => return Err(format!("the probe has no plan for `socflow-cli {other}`")),
    }
    Ok(Value::Object(vec![
        ("metrics".into(), Value::Object(p.metrics)),
        ("spans".into(), Value::Array(p.spans)),
    ])
    .to_compact())
}

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(report) => {
            println!("{report}");
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("socflow-probe: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
