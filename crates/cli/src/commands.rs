//! The CLI subcommands.

use crate::args::Options;
use serde::Serialize;
use socflow::autotune::PlanChoice;
use socflow::checkpoint::Checkpoint;
use socflow::config::{Arms, MethodSpec, SocFlowConfig, StreamingConfig, TrainJobSpec};
use socflow::engine::Workload;
use socflow::fleet::{standard_job_mix, FleetPolicy, FleetSim, FleetSpec};
use socflow::options::{Checkpointing, Plan, RunOptions};
use socflow::scheduler::{GlobalScheduler, NetworkShape};
use socflow::suite::{comparison_methods, Comparison};
use socflow_cluster::faults::FaultPlan;
use socflow_cluster::tidal::TidalTrace;
use socflow_cluster::ClusterSpec;
use socflow_data::DatasetPreset;
use socflow_nn::models::{LayerSpec, ModelKind};
use socflow_telemetry::{read_trace, Summary, TraceWriter};
use std::sync::Arc;

/// The usage banner; the `bench` line is generated from the suite table.
/// Asked-for help prints it on stdout, a usage error on stderr.
pub fn usage() -> String {
    format!(
        "socflow-cli — SoCFlow reproduction CLI

USAGE:
  socflow-cli plan  [--socs N] [--groups G]
  socflow-cli train [--model M] [--dataset D] [--method X] [--socs N]
                [--groups G] [--epochs E] [--samples S] [--seed S] [--json]
                [--auto [--auto-budget N]]
                [--streaming [--rates P]]
  socflow-cli tune  [--model M] [--dataset D] [--method X] [--socs N]
                [--groups G] [--seed S] [--auto-budget N] [--json]
  socflow-cli compare [--model M] [--dataset D] [--socs N] [--epochs E]
  socflow-cli tidal [--socs N] [--seed S]
  socflow-cli fleet [--servers N] [--jobs M] [--policy tidal|fifo]
                [--socs N] [--horizon H] [--interarrival S] [--seed S]
                [--trace <path>] [--json]
  socflow-cli trace summarize <run.jsonl> [--spans-full]
  {bench}
  socflow-cli info

  --threads <N> (train, tune, compare, fleet): size of the host worker
      pool (default: SOCFLOW_THREADS env var, else all cores). Results
      are bit-identical at any thread count; only wall-clock time changes.
  --trace <path> (train): write a JSONL telemetry trace of the run; a
      SoCFlow run's trace carries the fluid timeline's span digest and
      link utilization of every epoch
  --profile-kernels (train): attribute host compute time to tensor
      kernels (matmul/conv/batch norm/quant) — printed after the run and
      recorded in the trace as KernelTotals events
  --faults <reclaim_s>:<crash_s> (train): sample a fault timeline with
      these mean inter-arrival times (e.g. 600:3600) and inject it.
      SoCFlow sheds the lost SoCs and pays a restore stall per crash; a
      baseline keeps its SoCs and also pays a checkpoint-restore round
      trip per epoch in which any SoC is reclaimed
  --checkpoint-dir <dir> (train): persist durable checkpoints there
  --checkpoint-every <N> (train): checkpoint cadence in epochs
      (default 1 when --checkpoint-dir is set)
  --resume (train): continue bit-exactly from the latest checkpoint
      in --checkpoint-dir
  --overlap (train): bucket gradients per layer and overlap their CG
      transfers with the remainder of backprop on the fluid timeline
      (wait-free bucketing). Pricing only — the accuracy stream is
      bit-identical to a non-overlapped run
  --bucket-kb <N> (train): minimum gradient-bucket size in KiB of
      reference payload (default 4096; requires --overlap)
  --auto (train): search the parallelization-plan space (group count x
      sync schedule x bucket size) on the simulated clock before
      training and adopt the fastest predicted plan. Replaces
      --overlap/--bucket-kb — the winner decides them. The search is
      deterministic: bit-identical at any --threads setting
  --auto-budget <N> (train --auto, tune): optional cap on candidate plans
      priced on the fluid timeline. Without it the search prices
      candidates best-first by a floor no schedule beats and stops when
      the floor passes the best price, so it returns the optimum of the
      space. `tune` prints the ranked candidate table without training;
      --json emits it on stdout
  --streaming (train): ingest training data from live per-SoC streams
      instead of the static pre-partitioned corpus. Epoch shards come
      from a deterministic stream; supply deficits stall only the short
      group and are priced on the simulated clock
  --rates <P> (train): per-SoC stream-rate profile with --streaming:
      uniform | hetero | bimodal (default uniform). Non-uniform spreads
      trigger rate-aware regrouping (fast SoCs group together and data
      shares follow observed rates)
  --servers/--jobs/--policy/--horizon/--interarrival (fleet): size the
      simulated fleet (servers x --socs SoCs each), the Poisson arrival
      trace, and the admission policy (tidal = window-aware + priorities,
      fifo = naive greedy). All simulated-clock and deterministic in
      --seed; --trace records job lifecycle events

  models:   lenet5 | vgg11 | resnet18 | resnet50 | mobilenet
  datasets: cifar10 | emnist | fmnist | celeba | cinic10
  methods:  ours | ours-int8 | ours-half | ring | ps | hipress | 2d |
            fedavg | t-fedavg | local",
        bench = crate::bench::usage()
    )
}

fn model_of(name: &str) -> Result<ModelKind, String> {
    Ok(match name {
        "lenet5" | "lenet" => ModelKind::LeNet5,
        "vgg11" | "vgg" => ModelKind::Vgg11,
        "resnet18" | "r18" => ModelKind::ResNet18,
        "resnet50" | "r50" => ModelKind::ResNet50,
        "mobilenet" => ModelKind::MobileNetV1,
        other => {
            return Err(format!(
                "unknown model `{other}`; known models: lenet5 | vgg11 | resnet18 | \
                 resnet50 | mobilenet"
            ))
        }
    })
}

fn dataset_of(name: &str) -> Result<DatasetPreset, String> {
    Ok(match name {
        "cifar10" | "cifar" => DatasetPreset::Cifar10,
        "emnist" => DatasetPreset::Emnist,
        "fmnist" | "fashion-mnist" => DatasetPreset::FashionMnist,
        "celeba" => DatasetPreset::CelebA,
        "cinic10" | "cinic" => DatasetPreset::Cinic10,
        other => return Err(format!("unknown dataset `{other}`")),
    })
}

fn method_of(name: &str, groups: Option<usize>) -> Result<MethodSpec, String> {
    let socflow = |arms| {
        MethodSpec::SocFlow(SocFlowConfig {
            groups,
            arms,
            ..SocFlowConfig::full()
        })
    };
    Ok(match name {
        "ours" | "socflow" => socflow(Arms::Mixed),
        "ours-int8" => socflow(Arms::Int8),
        "ours-half" => socflow(Arms::Half),
        "ring" => MethodSpec::Ring,
        "ps" => MethodSpec::ParameterServer,
        "hipress" => MethodSpec::HiPress,
        "2d" | "2d-paral" => MethodSpec::TwoDParallel,
        "fedavg" => MethodSpec::FedAvg,
        "t-fedavg" | "tfedavg" => MethodSpec::TFedAvg,
        "local" => MethodSpec::Local,
        other => return Err(format!("unknown method `{other}`")),
    })
}

/// The width multiplier `train`, `tune` and `compare` build `model` at.
pub fn default_width(model: ModelKind) -> f32 {
    match model {
        ModelKind::LeNet5 => 0.5,
        ModelKind::Vgg11 => 0.22,
        ModelKind::ResNet18 => 0.18,
        ModelKind::ResNet50 => 0.1,
        ModelKind::MobileNetV1 => 0.22,
    }
}

/// `socflow-cli plan`: print the grouping/mapping/CG pipeline for a cluster.
pub fn plan(opts: &Options) -> Result<(), String> {
    let cluster = ClusterSpec::for_socs(opts.socs);
    let groups = opts.groups.unwrap_or(opts.socs.div_euclid(4).max(1));
    socflow::options::groups_in_range(groups, opts.socs).map_err(|e| e.to_string())?;
    println!(
        "cluster: {} boards x {} SoCs — planning {} logical groups over {} SoCs",
        cluster.boards, cluster.socs_per_board, groups, opts.socs
    );
    let (mapping, cgs, fallback) = socflow::planning::topology(opts.socs, groups);
    for g in 0..mapping.num_groups() {
        let gid = socflow::mapping::GroupId(g);
        let members: Vec<String> = mapping.group(gid).iter().map(|s| s.to_string()).collect();
        println!(
            "  {gid}: [{}]{}",
            members.join(", "),
            if mapping.is_split(gid) {
                "  (split)"
            } else {
                ""
            }
        );
    }
    println!("conflict count C = {}", mapping.conflict_count());
    if let Some(e) = fallback {
        return Err(e.to_string());
    }
    for (i, cg) in cgs.cgs.iter().enumerate() {
        let names: Vec<String> = cg.iter().map(|g| g.to_string()).collect();
        println!("CG{}: {}", i + 1, names.join(", "));
    }
    Ok(())
}

/// Parses a `--faults` spec `<mean_reclaim_s>:<mean_crash_s>`.
fn fault_plan_of(spec: &str, socs: usize, seed: u64) -> Result<FaultPlan, String> {
    let err = || format!("`--faults` expects <mean_reclaim_s>:<mean_crash_s>, got `{spec}`");
    let (reclaim, crash) = spec.split_once(':').ok_or_else(err)?;
    let mean_reclaim: f64 = reclaim.parse().map_err(|_| err())?;
    let mean_crash: f64 = crash.parse().map_err(|_| err())?;
    // `!(x > 0)` so that NaN is rejected too, not handed to the sampler
    if !(mean_reclaim > 0.0 && mean_crash > 0.0) {
        return Err("`--faults` means must be positive seconds".into());
    }
    // a horizon far past any simulated run: events beyond the job's
    // simulated clock simply never fire
    Ok(FaultPlan::sample(socs, 1e9, mean_reclaim, mean_crash, seed))
}

/// The job `train`, `tune` and `compare` size from the flags.
fn job_spec(opts: &Options, method: MethodSpec) -> Result<TrainJobSpec, String> {
    let mut spec = TrainJobSpec::new(model_of(&opts.model)?, dataset_of(&opts.dataset)?, method);
    spec.socs = opts.socs;
    spec.epochs = opts.epochs;
    spec.seed = opts.seed;
    spec.lr = 0.05;
    Ok(spec)
}

/// The [`RunOptions`] the `train` flags describe, minus the trace sink
/// (creating that truncates a file, so it waits for validation).
fn run_options(opts: &Options) -> Result<RunOptions, String> {
    let mut options = RunOptions {
        pricing: opts.pricing,
        ..RunOptions::default()
    };
    if opts.streaming {
        let profile = socflow_data::stream::RateProfile::parse(&opts.rates)?;
        options.streaming = Some(StreamingConfig::new(profile));
    }
    if let Some(fspec) = &opts.faults {
        options.faults = Some(fault_plan_of(fspec, opts.socs, opts.seed)?);
    }
    if let Some(dir) = &opts.checkpoint_dir {
        let every = opts.checkpoint_every.unwrap_or(1);
        let durable = Checkpointing::new(dir, Some(every))
            .map_err(|e| format!("cannot use checkpoint dir `{dir}`: {e}"))?;
        options.checkpointing = Some(durable);
        if opts.resume {
            let ckpt = Checkpoint::load(std::path::Path::new(dir))
                .map_err(|e| format!("cannot resume from `{dir}`: {e}"))?;
            eprintln!(
                "resuming from epoch {} ({} streams, {} SoCs alive)",
                ckpt.epoch,
                ckpt.num_replicas(),
                ckpt.alive.len()
            );
            options.resume = Some(ckpt);
        }
    }
    Ok(options)
}

/// Whether `ckpt` can continue the job the flags describe: the same
/// parameter count per replica, the same method, surviving SoCs inside
/// `--socs`, and no `--groups` other than the one the snapshot's run
/// started with (the snapshot's group counts win, so another value would
/// be ignored).
fn resumable(
    ckpt: &Checkpoint,
    spec: &TrainJobSpec,
    groups: Option<usize>,
    params: usize,
) -> Result<(), String> {
    let saved = ckpt.replicas[0].len();
    if saved != params {
        let (model, preset) = (spec.model, spec.preset);
        return Err(format!(
            "the checkpoint holds {saved} parameters per replica, \
             but {model} on {preset} has {params}"
        ));
    }
    if let Some(partial) = ckpt
        .partial
        .as_ref()
        .filter(|p| p.method != spec.method.name())
    {
        return Err(format!(
            "the checkpoint's run trained {}, but --method is {}",
            partial.method,
            spec.method.name()
        ));
    }
    if ckpt.alive.iter().any(|&s| s >= spec.socs) {
        return Err(format!(
            "the checkpoint's surviving SoCs are {:?}, outside --socs {}",
            ckpt.alive, spec.socs
        ));
    }
    match groups {
        Some(g) if g != ckpt.initial_groups => Err(format!(
            "the checkpoint's run started with {} logical groups, but --groups is {g} \
             (drop --groups to continue with the snapshot's)",
            ckpt.initial_groups
        )),
        _ => Ok(()),
    }
}

/// `socflow-cli train`: run one training job and report the results.
pub fn train(opts: &Options) -> Result<(), String> {
    let spec = job_spec(opts, method_of(&opts.method, opts.groups)?)?;
    let plan = match (opts.auto, opts.auto_budget) {
        (true, budget) => Plan::Auto { budget },
        (false, Some(_)) => return Err("--auto-budget needs --auto (or the `tune` command)".into()),
        (false, None) => Plan::Fixed,
    };
    let mut options = run_options(opts)?;
    options.validate(&spec, plan).map_err(|e| e.to_string())?;
    if let Some(path) = &opts.trace {
        let writer = TraceWriter::create(path)
            .map_err(|e| format!("cannot create trace file `{path}`: {e}"))?;
        options.sink = Some(Arc::new(writer));
    }
    let (model, preset) = (spec.model, spec.preset);
    let workload = Workload::standard(&spec, opts.samples, 8, default_width(model));
    if let Some(ckpt) = &options.resume {
        let params = NetworkShape::of(model, workload.model_cfg).params;
        resumable(ckpt, &spec, opts.groups, params).map_err(|e| format!("cannot resume: {e}"))?;
    }
    let sched = GlobalScheduler::new(spec, workload, options, plan);
    let profile_base = opts.profile_kernels.then(|| {
        socflow_tensor::profile::set_enabled(true);
        socflow_tensor::profile::snapshot()
    });
    let result = sched.run();
    if let Some(base) = profile_base {
        socflow_tensor::profile::set_enabled(false);
        // stderr keeps `--json` stdout machine-readable
        eprintln!("\nhost kernel time:");
        for t in socflow_tensor::profile::since(&base) {
            if t.calls > 0 {
                eprintln!(
                    "  {:<14} {:>10.3} ms  {:>8} calls",
                    t.op,
                    t.nanos as f64 / 1e6,
                    t.calls
                );
            }
        }
    }

    if opts.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&result).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!(
        "{} on {} with {} ({} SoCs, {} epochs)",
        model, preset, result.method, opts.socs, opts.epochs
    );
    println!("epoch  accuracy  sim-time(min)");
    let mut t = 0.0;
    for (i, acc) in result.epoch_accuracy.iter().enumerate() {
        t += result.epoch_time[i];
        println!("{:>5}  {:>7.1}%  {:>10.1}", i + 1, acc * 100.0, t / 60.0);
    }
    println!(
        "\nbest accuracy {:.1}% | simulated {:.2} h | {:.0} kJ | sync share {:.0}%",
        result.best_accuracy() * 100.0,
        result.total_time() / 3600.0,
        result.energy_joules / 1e3,
        result.breakdown.sync / result.breakdown.total().max(1e-9) * 100.0
    );
    if result.recovery_time > 0.0 {
        println!(
            "recovery stalls: {:.1} s ({:.2}% of run time)",
            result.recovery_time,
            result.recovery_time / result.total_time().max(1e-9) * 100.0
        );
    }
    Ok(())
}

/// `tune --json`'s plan object: the candidate, its predicted epoch seconds
/// and `bound_s`, the epoch floor it was ordered and admitted by.
#[derive(Serialize)]
struct PlanJson {
    groups: usize,
    schedule: &'static str,
    bucket_kb: Option<usize>,
    predicted_s: f64,
    bound_s: f64,
}

fn plan_json(c: &PlanChoice) -> PlanJson {
    PlanJson {
        groups: c.candidate.groups,
        schedule: c.candidate.schedule_name(),
        bucket_kb: c.candidate.bucket_kb,
        predicted_s: c.predicted_s,
        bound_s: c.bound_s,
    }
}

/// The `tune --json` document (`socflow-tune/v1`): the job as asked for on
/// the command line, the search's counts and speedup, the default and the
/// best plan, and every priced plan in rank order.
#[derive(Serialize)]
struct TuneJson {
    schema: &'static str,
    model: String,
    dataset: String,
    method: String,
    socs: usize,
    evaluated: usize,
    pruned: usize,
    skipped: usize,
    speedup: f64,
    default: PlanJson,
    best: PlanJson,
    ranked: Vec<PlanJson>,
}

/// `socflow-cli tune`: search the parallelization-plan space and print the
/// ranked candidate table without training.
///
/// The search runs entirely on the simulated clock and is deterministic:
/// the `--json` output is byte-identical across reruns and any `--threads`
/// setting (CI diffs it across `SOCFLOW_THREADS` values).
pub fn tune(opts: &Options) -> Result<(), String> {
    let spec = job_spec(opts, method_of(&opts.method, opts.groups)?)?;
    let (model, preset) = (spec.model, spec.preset);
    let options = RunOptions::default();
    let plan = Plan::Auto {
        budget: opts.auto_budget,
    };
    options.validate(&spec, plan).map_err(|e| e.to_string())?;
    // the search reads the model's gradient layout, not one sample
    let model_cfg = Workload::model_config(&spec, 8, default_width(model));
    let report = socflow::scheduler::tune_job(&spec, model_cfg, &options, plan);
    let default = report.default_plan;
    let best = report.best();

    if opts.json {
        let doc = TuneJson {
            schema: "socflow-tune/v1",
            model: opts.model.clone(),
            dataset: opts.dataset.clone(),
            method: opts.method.clone(),
            socs: opts.socs,
            evaluated: report.evaluated,
            pruned: report.pruned,
            skipped: report.skipped,
            speedup: report.speedup(),
            default: plan_json(&default),
            best: plan_json(&best),
            ranked: report.ranked.iter().map(plan_json).collect(),
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?
        );
        return Ok(());
    }

    println!(
        "plan search: {} on {} with {} over {} SoCs",
        model, preset, opts.method, opts.socs
    );
    let skipped = match opts.auto_budget {
        Some(_) => format!(", {} skipped (cap)", report.skipped),
        None => String::new(),
    };
    println!(
        "{} candidates priced, {} pruned by the epoch floor{skipped}",
        report.evaluated, report.pruned
    );
    let work = report.timeline;
    println!(
        "timeline: {} steps, {} rate solves, {} table reuses ({:.1}% of steps without a solve)",
        work.steps,
        work.rate_solves,
        work.rate_reuses,
        100.0 * (1.0 - work.rate_solves as f64 / work.steps.max(1) as f64)
    );
    // the bucket column is as wide as its widest cell, the 6-wide header
    // included
    let top = &report.ranked[..report.ranked.len().min(10)];
    let bucket = |c: &PlanChoice| {
        c.candidate
            .bucket_kb
            .map_or("-".into(), |kb| format!("{kb} KiB"))
    };
    let w = top.iter().map(|c| bucket(c).len()).fold(6, usize::max);
    println!(
        "\nrank  groups  schedule     {:>w$}  predicted(s)",
        "bucket"
    );
    for (i, c) in top.iter().enumerate() {
        println!(
            "{:>4}  {:>6}  {:<11}  {:>w$}  {:>12.3}",
            i + 1,
            c.candidate.groups,
            c.candidate.schedule_name(),
            bucket(c),
            c.predicted_s,
        );
    }
    println!(
        "\ndefault plan: {} groups, {} — predicted {:.3} s",
        default.candidate.groups,
        default.candidate.schedule_name(),
        default.predicted_s
    );
    println!(
        "best plan:    {} groups, {}{} — predicted {:.3} s ({:.2}x vs default)",
        best.candidate.groups,
        best.candidate.schedule_name(),
        best.candidate
            .bucket_kb
            .map_or(String::new(), |kb| format!(" @ {kb} KiB buckets")),
        best.predicted_s,
        report.speedup()
    );
    Ok(())
}

/// `socflow-cli compare`: run the paper's seven-method comparison on one
/// workload. Ours' group count is the scheduler's — `--groups`, else the
/// warm-up heuristic.
pub fn compare(opts: &Options) -> Result<(), String> {
    compare_to(opts, |line| println!("{line}"))
}

/// [`compare`], handing each output line to `print` as soon as its method
/// has run.
fn compare_to(opts: &Options, mut print: impl FnMut(String)) -> Result<(), String> {
    let spec = job_spec(opts, method_of("ours", opts.groups)?)?;
    let (options, plan) = (RunOptions::default(), Plan::Fixed);
    options.validate(&spec, plan).map_err(|e| e.to_string())?;
    let workload = Workload::standard(&spec, opts.samples, 8, default_width(spec.model));
    let ours = GlobalScheduler::new(spec, workload.clone(), options, plan)
        .resolved_spec()
        .method;
    print(format!(
        "{} on {} — {} SoCs, {} epochs, {} samples",
        spec.model, spec.preset, opts.socs, opts.epochs, opts.samples
    ));
    print(format!(
        "{:<10} {:>9} {:>11} {:>10}",
        "method", "best acc", "sim time h", "energy kJ"
    ));
    let mut comparison = Comparison::new(spec, workload);
    for method in comparison_methods(ours) {
        let r = comparison.run(method, opts.socs);
        print(format!(
            "{:<10} {:>8.1}% {:>11.2} {:>10.0}",
            r.method,
            r.best_accuracy() * 100.0,
            r.total_time() / 3600.0,
            r.energy_joules / 1e3
        ));
    }
    Ok(())
}

/// `socflow-cli tidal`: print the diurnal utilization trace.
pub fn tidal(opts: &Options) -> Result<(), String> {
    let trace = TidalTrace::generate(opts.socs.max(1), opts.seed);
    for h in 0..24 {
        let frac = trace.busy_fraction(h);
        println!(
            "{h:02}:00  {:>3.0}%  {}",
            frac * 100.0,
            "#".repeat((frac * 40.0).round() as usize)
        );
    }
    let (start, len) = trace.best_idle_window(opts.socs / 2);
    println!(
        "\nbest window with >={} idle SoCs: {len} h starting {start:02}:00",
        opts.socs / 2
    );
    Ok(())
}

/// `socflow-cli fleet`: simulate a multi-tenant fleet of SoC-Cluster
/// servers packing trace-driven job arrivals onto tidal-idle capacity,
/// and print per-job outcomes plus throughput/JCT/utilization.
pub fn fleet(opts: &Options) -> Result<(), String> {
    let policy = FleetPolicy::parse(&opts.policy)?;
    let spec = FleetSpec {
        servers: opts.servers,
        socs_per_server: opts.socs,
        seed: opts.seed,
        horizon_hours: opts.horizon,
        policy,
    };
    let jobs = standard_job_mix(opts.jobs, opts.interarrival, opts.seed);
    let mut sim = FleetSim::new(spec, jobs);
    if let Some(path) = &opts.trace {
        let writer = TraceWriter::create(path)
            .map_err(|e| format!("cannot create trace file `{path}`: {e}"))?;
        sim = sim.with_sink(Arc::new(writer));
    }
    let report = sim.run();
    if opts.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    println!(
        "{} servers x {} SoCs, {} jobs, seed {}\n",
        opts.servers, opts.socs, opts.jobs, opts.seed
    );
    println!("job  prio  arrival_h  admit_h  finish_h  preempts");
    for j in &report.jobs {
        let fmt_h = |s: Option<f64>| match s {
            Some(s) => format!("{:>7.2}", s / 3600.0),
            None => format!("{:>7}", "-"),
        };
        println!(
            "{:>3}  {:>4}  {:>9.2}  {}  {}  {:>8}",
            j.id,
            j.priority,
            j.arrival_s / 3600.0,
            fmt_h(j.first_admit_s),
            fmt_h(j.completed_s),
            j.preemptions
        );
    }
    println!();
    print!("{}", report.render());
    Ok(())
}

/// `socflow-cli trace <action> <path>`: inspect a recorded telemetry trace.
///
/// `summarize` replays the JSONL events and prints the aggregate report —
/// the run's own result, folded from the trace alone (total time,
/// Fig. 12-style compute/sync/update and recovery shares) plus network and
/// scheduler counters. With `--spans-full` it additionally prints every
/// recorded timeline span (the summary otherwise reports only the span
/// *count*, and the engine digest keeps the first 2 spans per lane×kind),
/// with gradient-bucket lanes grouped by the model layers they carry.
pub fn trace(argv: &[String]) -> Result<(), String> {
    match argv {
        [action, path] if action == "summarize" => trace_summarize(path, false),
        [action, path, flag] if action == "summarize" && flag == "--spans-full" => {
            trace_summarize(path, true)
        }
        _ => Err("usage: socflow-cli trace summarize <run.jsonl> [--spans-full]".into()),
    }
}

fn trace_summarize(path: &str, spans_full: bool) -> Result<(), String> {
    let events = read_trace(path)?;
    if events.is_empty() {
        return Err(format!("trace `{path}` contains no events"));
    }
    let summary = Summary::from_events(&events);
    println!("{}", summary.render());
    if spans_full {
        println!("{}", socflow_telemetry::render_spans(&events));
    }
    Ok(())
}

/// `socflow-cli info`: models, datasets, calibration summary, and the
/// kernel instantiation this host runs.
pub fn info() -> Result<(), String> {
    println!(
        "models (reference params / FP32 payload | the layer table at the paper's input: \
         params, forward multiply-adds and activations per sample):"
    );
    for m in ModelKind::ALL {
        let table = m.layers(m.paper_config());
        println!(
            "  {:<12} {:>10} params  {:>6.1} MB  | {:>10} params  {:>7.1} M MACs  {:>6.1} K activations",
            m.to_string(),
            m.reference_params(),
            m.payload_bytes_fp32() as f64 / 1e6,
            table.iter().map(LayerSpec::params).sum::<usize>(),
            table.iter().map(LayerSpec::macs).sum::<u64>() as f64 / 1e6,
            table.iter().map(LayerSpec::activations).sum::<usize>() as f64 / 1e3,
        );
    }
    println!("\ndatasets (reference size):");
    for d in DatasetPreset::ALL {
        let s = d.spec();
        println!(
            "  {d:<14} {}x{}x{}  {} classes  {} samples",
            s.channels, s.size, s.size, s.classes, s.reference_samples
        );
    }
    let c = ClusterSpec::paper_server();
    println!(
        "\ncluster: {} boards x {} SoCs, {} Gb/s SoC links, {} Gb/s NICs, {} Gb/s switch",
        c.boards,
        c.socs_per_board,
        c.soc_link_bps / 1e9,
        c.board_uplink_bps / 1e9,
        c.switch_bps / 1e9
    );
    println!(
        "\nkernel isa: {} (from the host's CPU features)",
        socflow_tensor::isa::Isa::active().name()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use socflow::options::Pricing;

    #[test]
    fn usage_names_exactly_the_bench_suites_in_the_table() {
        let text = usage();
        let lines: Vec<&str> = text.lines().filter(|l| l.contains("-cli bench")).collect();
        assert_eq!(lines, [format!("  {}", crate::bench::usage())]);
    }

    #[test]
    fn model_and_dataset_lookup() {
        assert_eq!(model_of("vgg11").unwrap(), ModelKind::Vgg11);
        let err = model_of("gpt4").unwrap_err();
        assert!(
            err.contains("gpt4") && err.contains("known models:"),
            "{err}"
        );
        assert_eq!(dataset_of("cifar10").unwrap(), DatasetPreset::Cifar10);
        assert!(dataset_of("imagenet").is_err());
    }

    /// `--model` takes the paper's five CNNs; the transformer names are
    /// rejected with the list, which the usage banner repeats.
    #[test]
    fn tinyvit_is_rejected_with_the_five_known_models() {
        let five = "lenet5 | vgg11 | resnet18 | resnet50 | mobilenet";
        for name in ["tinyvit", "vit"] {
            let err = model_of(name).unwrap_err();
            assert_eq!(err, format!("unknown model `{name}`; known models: {five}"));
        }
        assert!(usage().contains(&format!("models:   {five}\n")));
        let opts = Options {
            model: "tinyvit".into(),
            ..Options::default()
        };
        assert!(train(&opts).unwrap_err().contains(five));
    }

    #[test]
    fn method_lookup_respects_groups() {
        match method_of("ours", Some(4)).unwrap() {
            MethodSpec::SocFlow(cfg) => assert_eq!(cfg.groups, Some(4)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(method_of("carrier-pigeon", None).is_err());
    }

    #[test]
    fn plan_runs() {
        let opts = Options {
            socs: 15,
            groups: Some(5),
            ..Options::default()
        };
        plan(&opts).unwrap();
    }

    /// `plan --groups 0` and `--groups socs + 1` used to reach the mapper's
    /// asserts (exit 101 with a backtrace); they get the message `train`
    /// gives, and the ends of the legal range still plan.
    #[test]
    fn plan_rejects_a_group_count_outside_the_soc_count() {
        for (groups, ok) in [(0, false), (9, false), (99, false), (1, true), (8, true)] {
            let opts = Options {
                socs: 8,
                groups: Some(groups),
                ..Options::default()
            };
            match plan(&opts) {
                Ok(()) => assert!(ok, "--groups {groups} planned"),
                Err(msg) => {
                    assert!(!ok, "--groups {groups}: {msg}");
                    assert!(msg.contains("--groups") && msg.contains("(8)"), "{msg}");
                }
            }
        }
    }

    #[test]
    fn tidal_runs() {
        let opts = Options {
            socs: 20,
            ..Options::default()
        };
        tidal(&opts).unwrap();
        info().unwrap();
    }

    /// `compare` used to list six methods of its own; the table is the
    /// runner's seven now, T-FedAvg between FedAvg and Ours.
    #[test]
    fn compare_prints_the_seven_methods_of_the_paper() {
        let opts = Options {
            model: "lenet5".into(),
            socs: 8,
            groups: Some(2),
            epochs: 1,
            samples: 128,
            ..Options::default()
        };
        let mut lines = Vec::new();
        compare_to(&opts, |line| lines.push(line)).unwrap();
        let methods: Vec<&str> = lines[2..]
            .iter()
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(
            methods,
            ["PS", "RING", "HiPress", "2D-Paral", "FedAvg", "T-FedAvg", "Ours"]
        );
        let too_many = Options {
            groups: Some(9),
            ..opts
        };
        let err = compare_to(&too_many, |_| ()).unwrap_err();
        assert!(err.contains("--groups"), "{err}");
    }

    #[test]
    fn train_runs_tiny() {
        let opts = Options {
            socs: 8,
            groups: Some(2),
            epochs: 1,
            samples: 128,
            ..Options::default()
        };
        train(&opts).unwrap();
    }

    /// More groups than samples: most replicas' shards are empty, so they
    /// never step — they used to reach momentum averaging without a
    /// velocity and panic there (exit 101).
    #[test]
    fn train_survives_replicas_with_empty_shards() {
        let opts = Options {
            socs: 8,
            groups: Some(8),
            epochs: 2,
            samples: 4,
            ..Options::default()
        };
        train(&opts).unwrap();
    }

    #[test]
    fn train_runs_streaming() {
        let opts = Options {
            socs: 8,
            groups: Some(4),
            epochs: 1,
            samples: 128,
            streaming: true,
            rates: "bimodal".into(),
            ..Options::default()
        };
        train(&opts).unwrap();
    }

    /// A plain `train --trace` is priced on the timeline: its trace carries
    /// the span digest and one link-utilization row per epoch.
    #[test]
    fn train_runs_with_timeline() {
        let path = std::env::temp_dir().join("socflow_cli_timeline_trace.jsonl");
        std::fs::remove_file(&path).ok();
        let opts = Options {
            socs: 8,
            groups: Some(2),
            epochs: 2,
            samples: 128,
            trace: Some(path.to_string_lossy().into_owned()),
            ..Options::default()
        };
        train(&opts).unwrap();
        let summary = Summary::from_events(&read_trace(&path).unwrap());
        std::fs::remove_file(&path).ok();
        assert!(summary.spans > 0, "{summary:?}");
        assert_eq!(summary.link_timeline.len(), 2);
    }

    #[test]
    fn train_runs_with_overlap_and_full_span_summary() {
        let path = std::env::temp_dir().join("socflow_cli_overlap_trace.jsonl");
        std::fs::remove_file(&path).ok();
        let opts = Options {
            socs: 8,
            groups: Some(2),
            epochs: 1,
            samples: 128,
            pricing: Pricing::wait_free_kb(32),
            trace: Some(path.to_string_lossy().into_owned()),
            ..Options::default()
        };
        train(&opts).unwrap();
        let p = path.to_string_lossy().into_owned();
        let argv = vec!["summarize".to_string(), p.clone()];
        trace(&argv).unwrap();
        let full = vec![
            "summarize".to_string(),
            p.clone(),
            "--spans-full".to_string(),
        ];
        trace(&full).unwrap();
        let bad = vec!["summarize".to_string(), p, "--bogus".to_string()];
        assert!(trace(&bad).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fault_spec_parses_and_rejects() {
        let plan = fault_plan_of("600:3600", 8, 42).unwrap();
        assert!(!plan.events().is_empty(), "dense spec yields events");
        assert!(fault_plan_of("600", 8, 42).is_err());
        assert!(fault_plan_of("0:3600", 8, 42).is_err());
        assert!(fault_plan_of("x:y", 8, 42).is_err());
        // NaN passes a `<= 0.0` check and used to panic in the sampler
        for nan in ["nan:3600", "600:nan", "NaN:NaN"] {
            let err = fault_plan_of(nan, 8, 42).unwrap_err();
            assert!(err.contains("positive"), "{nan}: {err}");
        }
    }

    #[test]
    fn train_with_faults_survives() {
        let opts = Options {
            socs: 8,
            groups: Some(2),
            epochs: 2,
            samples: 128,
            faults: Some("200:400".into()),
            ..Options::default()
        };
        train(&opts).unwrap();
    }

    /// A gang-scheduled baseline takes a fault plan too: it keeps its SoCs
    /// and its run pays the recovery stalls.
    #[test]
    fn train_ring_with_faults_pays_recovery_stalls() {
        let path = std::env::temp_dir().join("socflow_cli_ring_faults.jsonl");
        let opts = Options {
            method: "ring".into(),
            socs: 8,
            epochs: 2,
            samples: 128,
            faults: Some("100:100".into()),
            trace: Some(path.to_string_lossy().into_owned()),
            json: true,
            ..Options::default()
        };
        let ran = train(&opts);
        let trace = read_trace(&path);
        std::fs::remove_file(&path).ok();
        assert_eq!(ran, Ok(()));
        let run = Summary::from_events(&trace.unwrap()).run;
        assert!(run.recovery_time > 0.0, "{run:?}");
    }

    #[test]
    fn unusable_checkpoint_dir_is_an_error_before_training() {
        let opts = Options {
            socs: 8,
            groups: Some(2),
            epochs: 1,
            samples: 128,
            checkpoint_dir: Some("/proc/nope".into()),
            ..Options::default()
        };
        let err = train(&opts).unwrap_err();
        assert!(
            err.starts_with("cannot use checkpoint dir `/proc/nope`"),
            "{err}"
        );
    }

    #[test]
    fn socflow_only_flags_are_rejected_on_baselines_by_name() {
        let tiny = Options {
            socs: 8,
            epochs: 1,
            samples: 128,
            ..Options::default()
        };
        let on = |method: &str| Options {
            method: method.into(),
            ..tiny.clone()
        };
        let cases = [
            (
                Options {
                    pricing: Pricing::wait_free_kb(4096),
                    ..on("ring")
                },
                "--overlap",
            ),
            (
                Options {
                    streaming: true,
                    ..on("ring")
                },
                "--streaming",
            ),
            (
                Options {
                    auto: true,
                    ..on("ps")
                },
                "--auto",
            ),
            (
                Options {
                    groups: Some(0),
                    ..tiny.clone()
                },
                "--groups",
            ),
            (
                Options {
                    groups: Some(99),
                    ..tiny.clone()
                },
                "--groups",
            ),
        ];
        for (opts, flag) in cases {
            let err = train(&opts).unwrap_err();
            assert!(err.contains(flag), "`{err}` should name {flag}");
        }
        assert!(tune(&on("ring")).unwrap_err().contains("--auto"));
        // observing a baseline stays legal
        let path = std::env::temp_dir().join("socflow_cli_ring_trace.jsonl");
        let traced = Options {
            trace: Some(path.to_string_lossy().into_owned()),
            json: true,
            ..on("ring")
        };
        train(&traced).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn train_checkpoints_and_resumes() {
        let dir = std::env::temp_dir().join("socflow_cli_resume_test");
        std::fs::remove_dir_all(&dir).ok();
        let base = Options {
            socs: 8,
            groups: Some(2),
            epochs: 2,
            samples: 128,
            checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
            checkpoint_every: Some(1),
            ..Options::default()
        };
        train(&base).unwrap();
        let resumed = Options {
            epochs: 3,
            resume: true,
            ..base.clone()
        };
        train(&resumed).unwrap();
        // a snapshot of another model is refused before training starts
        let other_model = Options {
            model: "vgg11".into(),
            ..resumed.clone()
        };
        let err = train(&other_model).unwrap_err();
        assert!(err.starts_with("cannot resume"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
        // resuming from a missing dir errors cleanly
        let missing = Options {
            resume: true,
            ..base
        };
        assert!(train(&missing).is_err());
    }

    /// A two-group snapshot of an 8-SoC run in `dir`, and the options
    /// that resume it.
    fn resumable_snapshot(dir: &std::path::Path, method: &str) -> Options {
        std::fs::remove_dir_all(dir).ok();
        let base = Options {
            method: method.into(),
            socs: 8,
            groups: Some(2),
            epochs: 2,
            samples: 128,
            checkpoint_dir: Some(dir.to_string_lossy().into_owned()),
            ..Options::default()
        };
        train(&base).unwrap();
        Options {
            groups: None,
            epochs: 4,
            resume: true,
            ..base
        }
    }

    /// The snapshot holds SoCs 0–7; resuming on 4 used to reach the
    /// mapper's "SoC outside cluster" assert (exit 101).
    #[test]
    fn resume_rejects_socs_that_drop_the_snapshots_survivors() {
        let dir = std::env::temp_dir().join("socflow_cli_resume_socs_test");
        let resume = resumable_snapshot(&dir, "ours");
        let err = train(&Options { socs: 4, ..resume }).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(err.starts_with("cannot resume"), "{err}");
        assert!(
            err.contains("--socs 4") && err.contains("[0, 1, 2, 3, 4, 5, 6, 7]"),
            "{err}"
        );
    }

    /// The snapshot's group counts win on resume; a different `--groups`
    /// used to be ignored silently (exit 0, two groups trained).
    #[test]
    fn resume_rejects_a_group_count_the_snapshot_would_override() {
        let dir = std::env::temp_dir().join("socflow_cli_resume_groups_test");
        let resume = resumable_snapshot(&dir, "ours");
        let err = train(&Options {
            groups: Some(4),
            ..resume.clone()
        });
        let same = train(&Options {
            groups: Some(2),
            json: true,
            ..resume
        });
        std::fs::remove_dir_all(&dir).ok();
        let err = err.unwrap_err();
        assert!(err.starts_with("cannot resume"), "{err}");
        assert!(
            err.contains("--groups is 4") && err.contains("2 logical groups"),
            "{err}"
        );
        same.expect("the snapshot's own group count resumes");
    }

    /// A snapshot's partial result carries its method's name; resuming it
    /// under another SoCFlow variant used to panic on the missing INT8
    /// arm's zero learning rate (exit 101) or label the run with the wrong
    /// method.
    #[test]
    fn resume_rejects_another_socflow_variant() {
        for (saved, asked, names) in [
            ("ours-int8", "ours", ["Ours-INT8", "Ours"]),
            ("ours", "ours-int8", ["Ours", "Ours-INT8"]),
            ("ours-half", "ours", ["Ours-Half", "Ours"]),
        ] {
            let dir = std::env::temp_dir().join(format!("socflow_cli_resume_{saved}_test"));
            let resume = resumable_snapshot(&dir, saved);
            let err = train(&Options {
                method: asked.into(),
                ..resume.clone()
            });
            let same = train(&Options {
                json: true,
                ..resume
            });
            std::fs::remove_dir_all(&dir).ok();
            let err = err.unwrap_err();
            assert!(err.starts_with("cannot resume"), "{err}");
            let want = format!("trained {}, but --method is {}", names[0], names[1]);
            assert!(err.contains(&want), "{err}");
            same.expect("the snapshot's own method resumes");
        }
    }
}
