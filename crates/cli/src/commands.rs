//! The CLI subcommands.

use crate::args::Options;
use serde::Serialize;
use socflow::autotune::{PlanChoice, DEFAULT_BUDGET};
use socflow::checkpoint::{Checkpoint, CheckpointPolicy};
use socflow::config::{MethodSpec, SocFlowConfig, StreamingConfig, TrainJobSpec};
use socflow::engine::Workload;
use socflow::fleet::{standard_job_mix, FleetPolicy, FleetSim, FleetSpec};
use socflow::options::{Checkpointing, Plan, RunOptions};
use socflow::scheduler::GlobalScheduler;
use socflow_baselines::suite::{comparison_methods, Comparison};
use socflow_cluster::faults::FaultPlan;
use socflow_cluster::tidal::TidalTrace;
use socflow_cluster::ClusterSpec;
use socflow_data::DatasetPreset;
use socflow_nn::models::ModelKind;
use socflow_telemetry::{read_trace, Summary, TraceWriter};
use std::sync::Arc;

/// Prints the usage banner.
pub fn print_usage() {
    eprintln!("{}", usage());
}

/// The usage banner; the `bench` line is generated from the suite table.
fn usage() -> String {
    format!(
        "socflow-cli — SoCFlow reproduction CLI

USAGE:
  socflow-cli plan  [--socs N] [--groups G]
  socflow-cli train [--model M] [--dataset D] [--method X] [--socs N]
                [--groups G] [--epochs E] [--samples S] [--seed S] [--json]
                [--auto [--auto-budget N]]
                [--streaming [--rates P] [--buffer-batches N]
                 [--on-full drop|block]]
  socflow-cli tune  [--model M] [--dataset D] [--method X] [--socs N]
                [--groups G] [--seed S] [--auto-budget N]
                [--profiled-beta F] [--json]
  socflow-cli compare [--model M] [--dataset D] [--socs N] [--epochs E]
  socflow-cli tidal [--socs N] [--seed S]
  socflow-cli fleet [--servers N] [--jobs M] [--policy tidal|fifo]
                [--socs N] [--horizon H] [--interarrival S] [--seed S]
                [--trace <path>] [--json]
  socflow-cli trace summarize <run.jsonl> [--spans-full]
  {bench}
  socflow-cli info

  --threads <N> (train, compare): size of the host worker pool
      (default: SOCFLOW_THREADS env var, else all cores). Results are
      bit-identical at any thread count; only wall-clock time changes.
  --trace <path> (train): write a JSONL telemetry trace of the run
  --profile-kernels (train): attribute host compute time to tensor
      kernels (matmul/conv/quant) — printed after the run and recorded
      in the trace as KernelTotals events
  --faults <reclaim_s>:<crash_s> (train): sample a fault timeline with
      these mean inter-arrival times (e.g. 600:3600) and inject it
  --checkpoint-dir <dir> (train): persist durable checkpoints there
  --checkpoint-every <N> (train): checkpoint cadence in epochs
      (default 1 when --checkpoint-dir is set)
  --resume (train): continue bit-exactly from the latest checkpoint
      in --checkpoint-dir
  --timeline (train): price SoCFlow epochs with the event-driven fluid
      timeline (compute and CG collectives contend on one simulated
      clock) instead of the closed-form Eq. 1 sums; with --trace, span
      and link-utilization events land in the trace
  --overlap (train): bucket gradients per layer and overlap their CG
      transfers with the remainder of backprop on the fluid timeline
      (wait-free bucketing; implies --timeline). Pricing only — the
      accuracy stream is bit-identical to a non-overlapped run
  --bucket-kb <N> (train): minimum gradient-bucket size in KiB of
      reference payload (default 4096; requires --overlap)
  --profiled-beta <f> (train): override the calibrated β compute-power
      ratio with a measured value in (0,1) — typically the β that
      `bench kernels` reports from timing the f32 and i8 GEMMs
  --auto (train): search the parallelization-plan space (group count x
      sync schedule x bucket size x β source) on the simulated clock
      before training and adopt the fastest predicted plan. Replaces
      --timeline/--overlap/--bucket-kb — the winner decides them. The
      search is deterministic: bit-identical at any --threads setting
  --auto-budget <N> (train --auto, tune): cap on candidate plans priced
      on the fluid timeline (default 64). `tune` prints the ranked
      candidate table without training; --json emits it on stdout
  --streaming (train): ingest training data from live per-SoC streams
      instead of the static pre-partitioned corpus. Epoch shards come
      from a deterministic stream; supply deficits stall only the short
      group and are priced on the simulated clock
  --rates <P> (train): per-SoC stream-rate profile with --streaming:
      uniform | hetero | bimodal (default uniform). Non-uniform spreads
      trigger rate-aware regrouping (fast SoCs group together and data
      shares follow observed rates)
  --buffer-batches <N> (train): per-group ingest-buffer capacity in
      multiples of the global batch (default 2; requires --streaming)
  --on-full drop|block (train): what a full ingest buffer does with
      fresh arrivals — shed them (drop) or exert backpressure (block,
      the default; requires --streaming)
  --servers/--jobs/--policy/--horizon/--interarrival (fleet): size the
      simulated fleet (servers x --socs SoCs each), the Poisson arrival
      trace, and the admission policy (tidal = window-aware + priorities,
      fifo = naive greedy). All simulated-clock and deterministic in
      --seed; --trace records job lifecycle events

  models:   lenet5 | vgg11 | resnet18 | resnet50 | mobilenet | tinyvit
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
        "tinyvit" | "vit" => ModelKind::TinyViT,
        other => {
            return Err(format!(
                "unknown model `{other}`; known models: lenet5 | vgg11 | resnet18 | \
                 resnet50 | mobilenet | tinyvit"
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
    let cfg = SocFlowConfig {
        groups,
        ..SocFlowConfig::full()
    };
    Ok(match name {
        "ours" | "socflow" => MethodSpec::SocFlow(cfg),
        "ours-int8" => MethodSpec::SocFlowInt8(cfg),
        "ours-half" => MethodSpec::SocFlowHalf(cfg),
        "ring" => MethodSpec::Ring,
        "ps" => MethodSpec::ParameterServer,
        "hipress" => MethodSpec::HiPress,
        "2d" | "2d-paral" => MethodSpec::TwoDParallel { group_size: 4 },
        "fedavg" => MethodSpec::FedAvg,
        "t-fedavg" | "tfedavg" => MethodSpec::TFedAvg { fanout: 2 },
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
        ModelKind::TinyViT => 0.5,
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
    let mapping = socflow::mapping::integrity_greedy(&cluster, opts.socs, groups);
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
    match socflow::planning::divide_communication_groups(&mapping) {
        Ok(cgs) => {
            for (i, cg) in cgs.cgs.iter().enumerate() {
                let names: Vec<String> = cg.iter().map(|g| g.to_string()).collect();
                println!("CG{}: {}", i + 1, names.join(", "));
            }
            Ok(())
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Parses a `--faults` spec `<mean_reclaim_s>:<mean_crash_s>`.
fn fault_plan_of(spec: &str, socs: usize, seed: u64) -> Result<FaultPlan, String> {
    let err = || format!("`--faults` expects <mean_reclaim_s>:<mean_crash_s>, got `{spec}`");
    let (reclaim, crash) = spec.split_once(':').ok_or_else(err)?;
    let mean_reclaim: f64 = reclaim.parse().map_err(|_| err())?;
    let mean_crash: f64 = crash.parse().map_err(|_| err())?;
    if mean_reclaim <= 0.0 || mean_crash <= 0.0 {
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

/// The scheduler for a job whose options [`RunOptions::validate`] accepts.
fn scheduler(
    opts: &Options,
    spec: TrainJobSpec,
    options: RunOptions,
    plan: Plan,
) -> Result<GlobalScheduler, String> {
    options.validate(&spec, plan).map_err(|e| e.to_string())?;
    let workload = Workload::standard(&spec, opts.samples, 8, default_width(spec.model));
    Ok(GlobalScheduler::new(spec, workload, options, plan))
}

/// The [`RunOptions`] the `train` flags describe, minus the trace sink
/// (creating that truncates a file, so it waits for validation).
fn run_options(opts: &Options) -> Result<RunOptions, String> {
    let mut options = RunOptions {
        pricing: opts.pricing,
        profiled_beta: opts.profiled_beta,
        ..RunOptions::default()
    };
    if opts.streaming {
        let mut scfg = StreamingConfig::new(socflow_data::stream::RateProfile::parse(&opts.rates)?);
        scfg.buffer_batches = opts.buffer_batches;
        scfg.on_full = socflow_data::stream::OnFull::parse(&opts.on_full)?;
        options.streaming = Some(scfg);
    }
    if let Some(fspec) = &opts.faults {
        options.faults = Some(fault_plan_of(fspec, opts.socs, opts.seed)?);
    }
    if let Some(dir) = &opts.checkpoint_dir {
        let policy = CheckpointPolicy {
            every_epochs: Some(opts.checkpoint_every.unwrap_or(1).max(1)),
            on_reclaim: true,
        };
        let durable = Checkpointing::new(dir, policy)
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

/// `socflow-cli train`: run one training job and report the results.
pub fn train(opts: &Options) -> Result<(), String> {
    if let Some(t) = opts.threads {
        socflow_tensor::runtime::set_threads(t);
    }
    let spec = job_spec(opts, method_of(&opts.method, opts.groups)?)?;
    let plan = match (opts.auto, opts.auto_budget) {
        (true, budget) => Plan::Auto {
            budget: budget.unwrap_or(DEFAULT_BUDGET),
        },
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
        for (b, n) in base.iter().zip(socflow_tensor::profile::snapshot()) {
            let calls = n.calls.saturating_sub(b.calls);
            if calls > 0 {
                eprintln!(
                    "  {:<14} {:>10.3} ms  {:>8} calls",
                    n.op,
                    n.nanos.saturating_sub(b.nanos) as f64 / 1e6,
                    calls
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
            "crash recovery stalls: {:.1} s ({:.2}% of run time)",
            result.recovery_time,
            result.recovery_time / result.total_time().max(1e-9) * 100.0
        );
    }
    Ok(())
}

/// A priced plan as `bench autotune --json` reports it, and (with the
/// candidate's lower bound appended) as `tune --json` does.
#[derive(Serialize)]
pub struct PlanJson {
    pub groups: usize,
    pub schedule: &'static str,
    pub bucket_kb: Option<usize>,
    pub profiled_beta: Option<f64>,
    pub predicted_s: f64,
}

impl From<&PlanChoice> for PlanJson {
    fn from(c: &PlanChoice) -> Self {
        Self {
            groups: c.candidate.groups,
            schedule: c.candidate.schedule_name(),
            bucket_kb: c.candidate.bucket_kb,
            profiled_beta: c.candidate.profiled_beta,
            predicted_s: c.predicted_s,
        }
    }
}

/// `tune --json`'s plan object: [`PlanJson`] plus `bound_s`, the analytic
/// lower bound the candidate was admitted against.
fn plan_choice_json(c: &PlanChoice) -> serde_json::Value {
    let mut plan = PlanJson::from(c).to_json();
    if let serde_json::Value::Object(fields) = &mut plan {
        fields.push(("bound_s".into(), c.bound_s.to_json()));
    }
    plan
}

/// `socflow-cli tune`: search the parallelization-plan space and print the
/// ranked candidate table without training.
///
/// The search runs entirely on the simulated clock and is deterministic:
/// the `--json` output is byte-identical across reruns and any `--threads`
/// setting (CI diffs it across `SOCFLOW_THREADS` values).
pub fn tune(opts: &Options) -> Result<(), String> {
    if let Some(t) = opts.threads {
        socflow_tensor::runtime::set_threads(t);
    }
    let spec = job_spec(opts, method_of(&opts.method, opts.groups)?)?;
    let (model, preset) = (spec.model, spec.preset);
    let options = RunOptions {
        profiled_beta: opts.profiled_beta,
        ..RunOptions::default()
    };
    let plan = Plan::Auto {
        budget: opts.auto_budget.unwrap_or(DEFAULT_BUDGET),
    };
    options.validate(&spec, plan).map_err(|e| e.to_string())?;
    // the search reads the model's gradient layout, not one sample
    let model_cfg = Workload::model_config(&spec, 8, default_width(model));
    let report = socflow::scheduler::tune_job(&spec, model_cfg, &options, plan);
    let default = report.default_plan;
    let best = report.best();

    if opts.json {
        use serde_json::Value;
        let doc = Value::Object(vec![
            ("schema".into(), Value::Str("socflow-tune/v1".into())),
            ("model".into(), Value::Str(opts.model.clone())),
            ("dataset".into(), Value::Str(opts.dataset.clone())),
            ("method".into(), Value::Str(opts.method.clone())),
            ("socs".into(), Value::U64(opts.socs as u64)),
            ("evaluated".into(), Value::U64(report.evaluated as u64)),
            ("pruned".into(), Value::U64(report.pruned as u64)),
            ("skipped".into(), Value::U64(report.skipped as u64)),
            ("speedup".into(), Value::F64(report.speedup())),
            ("default".into(), plan_choice_json(&default)),
            ("best".into(), plan_choice_json(&best)),
            (
                "ranked".into(),
                Value::Array(report.ranked.iter().map(plan_choice_json).collect()),
            ),
        ]);
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
    println!(
        "{} candidates priced, {} pruned by the compute bound, {} skipped (budget)",
        report.evaluated, report.pruned, report.skipped
    );
    let work = report.timeline;
    println!(
        "timeline: {} steps, {} rate solves, {} table reuses ({:.1}% of steps without a solve)",
        work.steps,
        work.rate_solves,
        work.rate_reuses,
        100.0 * (1.0 - work.rate_solves as f64 / work.steps.max(1) as f64)
    );
    println!("\nrank  groups  schedule     bucket   beta      predicted(s)");
    for (i, c) in report.ranked.iter().take(10).enumerate() {
        println!(
            "{:>4}  {:>6}  {:<11}  {:>7}  {:<8}  {:>12.3}",
            i + 1,
            c.candidate.groups,
            c.candidate.schedule_name(),
            c.candidate
                .bucket_kb
                .map_or("-".to_string(), |kb| format!("{kb} KiB")),
            c.candidate
                .profiled_beta
                .map_or("calib".to_string(), |b| format!("{b:.3}")),
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
    if let Some(t) = opts.threads {
        socflow_tensor::runtime::set_threads(t);
    }
    let spec = job_spec(opts, method_of("ours", opts.groups)?)?;
    let ours = scheduler(opts, spec, RunOptions::default(), Plan::Fixed)?
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
    let workload = Workload::standard(&spec, opts.samples, 8, default_width(spec.model));
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
/// the same per-run Breakdown the engine computed, reproduced from the
/// trace alone (Fig. 12-style compute/sync/update shares plus network and
/// scheduler counters). With `--spans-full` it additionally prints every
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

/// `socflow-cli info`: models, datasets and calibration summary.
pub fn info() -> Result<(), String> {
    println!("models (reference params / payload):");
    for m in ModelKind::ALL {
        println!(
            "  {m:<12} {:>10} params  {:>6.1} MB FP32 payload",
            m.reference_params(),
            m.payload_bytes_fp32() as f64 / 1e6
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
        assert_eq!(model_of("tinyvit").unwrap(), ModelKind::TinyViT);
        let err = model_of("gpt4").unwrap_err();
        assert!(
            err.contains("gpt4") && err.contains("known models:"),
            "{err}"
        );
        assert_eq!(dataset_of("cifar10").unwrap(), DatasetPreset::Cifar10);
        assert!(dataset_of("imagenet").is_err());
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
            on_full: "drop".into(),
            buffer_batches: 1,
            ..Options::default()
        };
        train(&opts).unwrap();
    }

    #[test]
    fn train_runs_with_timeline() {
        let opts = Options {
            socs: 8,
            groups: Some(2),
            epochs: 1,
            samples: 128,
            pricing: Pricing::Timeline,
            ..Options::default()
        };
        train(&opts).unwrap();
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
                    faults: Some("100:100".into()),
                    ..on("fedavg")
                },
                "--faults",
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
        std::fs::remove_dir_all(&dir).ok();
        // resuming from a missing dir errors cleanly
        let missing = Options {
            resume: true,
            ..base
        };
        assert!(train(&missing).is_err());
    }
}
