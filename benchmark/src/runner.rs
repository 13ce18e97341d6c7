//! Runs one workload: set-ups, timed repetitions, then the traced
//! repetition and the probe.
//!
//! Closed loop, one child process at a time; the harness only waits, and
//! between two children runs the calibration job (`calib`).
//! Every repetition is a fresh `socflow-cli` process in a fresh
//! directory, because the plan memo is a process-wide static: it is the
//! only way `tune` starts cold each time, and it gives a clean per-run
//! peak RSS.

use crate::calib;
use crate::child::{self, Finished};
use crate::parse;
use crate::spans::{self, Recorder};
use crate::stats;
use crate::workloads::{Kind, Ops, Results, Workload};
use serde_json::Value;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Kernel families of the `--profile-kernels` table with a per-layer row.
const KERNEL_OPS: [&str; 8] = [
    "matmul",
    "matmul_at_b",
    "matmul_a_bt",
    "im2col",
    "col2im",
    "transpose",
    "matmul_i8",
    "quant",
];

pub struct Config {
    pub cli: PathBuf,
    /// The probe binary, or why there is none (its build failed).
    pub probe: Result<PathBuf, String>,
    /// `benchmark/out`: results, traces and the per-run scratch dirs.
    pub out_dir: PathBuf,
    pub seed: u64,
    /// `SOCFLOW_THREADS` and `--threads` of every child.
    pub threads: usize,
    /// Set-up executions; `setup_s` is their median.
    pub setups: usize,
    /// Timed repetitions run until both limits are met.
    pub min_reps: usize,
    pub min_seconds: f64,
    pub traced: bool,
}

/// One reported metric: the headline value and the samples behind it
/// (none for a value that is not sampled per repetition).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Sample {
    pub fn single(value: f64) -> Self {
        Sample {
            value,
            samples: Vec::new(),
        }
    }

    fn median_of(samples: Vec<f64>) -> Self {
        Sample {
            value: stats::median(&samples),
            samples,
        }
    }
}

pub struct Outcome {
    pub workload: &'static Workload,
    /// The `--seed` the CLI ran with (see `Workload::cli_seed`).
    pub cli_seed: u64,
    /// How much slower than `calib::REFERENCE_S` the calibration job ran
    /// around each set-up and timed repetition, and the repetitions'
    /// seconds as the clock read them; `setup_s` and `wall_s` are scaled.
    pub host_slowdown: Sample,
    pub raw_wall_s: Sample,
    pub ops: Ops,
    /// The end-to-end metrics that apply, in table order.
    pub end_to_end: Vec<(&'static str, Sample)>,
    /// Per-layer rows that were measured; rows absent here do not apply
    /// to the workload or could not be measured (see `probe_note`).
    pub per_layer: Vec<(String, f64)>,
    /// Why the probe's rows are missing, when they are.
    pub probe_note: Option<String>,
    /// Self time by layer under the root span, and the root's duration.
    pub self_time_ns: Vec<(String, u64)>,
    pub root_ns: u64,
}

/// One execution of a workload: every leg, run in its own fresh dir.
struct Execution {
    dir: PathBuf,
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    results: Results,
    done: Vec<Finished>,
}

fn execute(
    cfg: &Config,
    w: &Workload,
    dir: PathBuf,
    traced: bool,
    ops: &mut Ops,
    mut spans: Option<(&mut Recorder, usize)>,
) -> io::Result<Execution> {
    std::fs::create_dir_all(&dir)?;
    let envs = [("SOCFLOW_THREADS", cfg.threads.to_string())];
    let mut exec = Execution {
        dir,
        wall_s: 0.0,
        cpu_s: 0.0,
        peak_rss_mb: 0.0,
        results: Vec::new(),
        done: Vec::new(),
    };
    for leg in w.legs(cfg.seed, cfg.threads, &exec.dir, traced) {
        let span = spans
            .as_mut()
            .map(|(rec, root)| rec.begin(&format!("socflow-cli {}", leg.tag), "cli", Some(*root)));
        let done = child::run(&cfg.cli, &leg.args, &envs, &exec.dir, leg.tag)?;
        if let (Some((rec, _)), Some(id)) = (spans.as_mut(), span) {
            rec.end(id);
        }
        if leg.timed {
            exec.wall_s += done.wall_s;
            exec.cpu_s += done.cpu_s;
            exec.peak_rss_mb = exec.peak_rss_mb.max(done.peak_rss_mb);
        }
        exec.done.push(done);
    }
    exec.results = w.check(&exec.done, &exec.dir, ops);
    Ok(exec)
}

pub fn run_workload(cfg: &Config, w: &'static Workload) -> io::Result<Outcome> {
    let scratch = cfg
        .out_dir
        .join(format!("tmp-{}-{}", w.name, std::process::id()));
    let outcome = run_in(cfg, w, &scratch);
    // checkpoint and trace dirs are per-run scratch: gone whatever happened
    std::fs::remove_dir_all(&scratch).ok();
    outcome
}

fn run_in(cfg: &Config, w: &'static Workload, scratch: &Path) -> io::Result<Outcome> {
    let mut ops = Ops::default();

    // The calibration job runs between executions, never beside one: the
    // mean of the two runs around an execution is the host's slowdown
    // during it (see `calib`).
    let mut slowdowns = Vec::new();
    let mut calibrated = calib::seconds(cfg.threads)?;
    let mut slowdown = || -> io::Result<f64> {
        let before = std::mem::replace(&mut calibrated, calib::seconds(cfg.threads)?);
        let ratio = (before + calibrated) / 2.0 / calib::REFERENCE_S;
        slowdowns.push(ratio);
        Ok(ratio)
    };

    // Set-up: what a user pays before the first timed repetition — the
    // scratch dir plus one warm-up invocation of the identical command.
    // Repeated, because one sample of a 2 s process is too noisy to bound.
    let mut setup_s = Vec::new();
    let mut reference: Option<Execution> = None;
    for i in 0..cfg.setups {
        let started = Instant::now();
        let exec = execute(
            cfg,
            w,
            scratch.join(format!("setup{i}")),
            false,
            &mut ops,
            None,
        )?;
        let elapsed = started.elapsed().as_secs_f64();
        setup_s.push(elapsed / slowdown()?);
        check_repeat(w, &mut ops, reference.as_ref(), &exec);
        reference.get_or_insert(exec);
    }
    let reference = reference.expect("at least one set-up");

    let mut raw_wall_s = Vec::new();
    let mut wall_s = Vec::new();
    let mut peak_rss_mb = Vec::new();
    let measuring = Instant::now();
    while wall_s.len() < cfg.min_reps || measuring.elapsed().as_secs_f64() < cfg.min_seconds {
        let dir = scratch.join(format!("rep{}", wall_s.len()));
        let exec = execute(cfg, w, dir, false, &mut ops, None)?;
        check_repeat(w, &mut ops, Some(&reference), &exec);
        wall_s.push(exec.wall_s / slowdown()?);
        raw_wall_s.push(exec.wall_s);
        peak_rss_mb.push(exec.peak_rss_mb);
        std::fs::remove_dir_all(&exec.dir).ok();
    }

    let mut outcome = Outcome {
        workload: w,
        cli_seed: w.cli_seed(cfg.seed),
        host_slowdown: Sample::median_of(slowdowns),
        raw_wall_s: Sample::median_of(raw_wall_s),
        ops,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        probe_note: None,
        self_time_ns: Vec::new(),
        root_ns: 0,
    };
    if cfg.traced {
        let untraced = outcome.raw_wall_s.samples.clone();
        trace_workload(cfg, w, scratch, &untraced, &mut outcome)?;
    }

    let fail_share = outcome.ops.fail_share();
    outcome.end_to_end = vec![
        ("setup_s", Sample::median_of(setup_s)),
        ("wall_s", Sample::median_of(wall_s)),
        // a repetition's peak depends on how its threads interleave
        // (tune_60: 118-135 MB); the median repetition is the steady one
        ("peak_rss_mb", Sample::median_of(peak_rss_mb)),
        ("fail_share", Sample::single(fail_share)),
    ];
    outcome.end_to_end.extend(
        reference
            .results
            .iter()
            .map(|(name, v)| (*name, Sample::single(*v))),
    );
    Ok(outcome)
}

/// The simulated-clock and accuracy results are deterministic in the
/// seed: every execution must reproduce the first one's exactly.
fn check_repeat(w: &Workload, ops: &mut Ops, reference: Option<&Execution>, exec: &Execution) {
    if let Some(reference) = reference {
        ops.check(exec.results == reference.results, || {
            format!(
                "{}: results {:?} differ from the warm-up's {:?}",
                w.name, exec.results, reference.results
            )
        });
    }
}

/// The traced repetition: the CLI with its profiler and telemetry on,
/// then the probe, all under one root span.
fn trace_workload(
    cfg: &Config,
    w: &Workload,
    scratch: &Path,
    untraced_wall_s: &[f64],
    outcome: &mut Outcome,
) -> io::Result<()> {
    let mut rec = Recorder::new(w.name);
    let root = rec.begin(w.name, "benchmark", None);
    let dir = scratch.join("traced");
    let exec = execute(cfg, w, dir, true, &mut outcome.ops, Some((&mut rec, root)))?;
    cli_rows(
        w,
        &exec,
        untraced_wall_s,
        &mut outcome.ops,
        &mut outcome.per_layer,
    );

    match &cfg.probe {
        Err(why) => outcome.probe_note = Some(why.clone()),
        Ok(probe) => {
            let span = rec.begin("socflow-probe", "probe", Some(root));
            let mut args = vec![
                "--dir".to_string(),
                exec.dir.to_string_lossy().into_owned(),
                "--threads".to_string(),
                cfg.threads.to_string(),
                "--".to_string(),
            ];
            args.extend(
                w.legs(cfg.seed, cfg.threads, &exec.dir, false)
                    .remove(0)
                    .args,
            );
            let done = child::run(probe, &args, &[], &exec.dir, "probe")?;
            rec.end(span);
            match probe_report(&done) {
                Ok(report) => {
                    let (lo, hi) = (rec.spans[span].start_ns, rec.spans[span].end_ns);
                    for s in report.get("spans").as_array().unwrap_or(&[]) {
                        if let Some([layer, name, start, end]) = s.as_array() {
                            // the probe's clock starts a process spawn after
                            // the span's: keep its calls inside the span
                            let at = |v: &Value| (lo + v.as_u64().unwrap_or(0)).min(hi);
                            let text = |v: &Value| v.as_str().unwrap_or("").to_string();
                            rec.add(&text(name), &text(layer), at(start), at(end), Some(span));
                        }
                    }
                    for (name, v) in report.get("metrics").as_object().unwrap_or(&[]) {
                        if let Some(v) = v.as_f64() {
                            outcome.per_layer.push((name.clone(), v));
                        }
                    }
                }
                Err(why) => outcome.probe_note = Some(why),
            }
        }
    }
    rec.end(root);

    outcome.root_ns = rec.spans[root].end_ns - rec.spans[root].start_ns;
    outcome.self_time_ns = spans::layer_self_times(&rec.spans).into_iter().collect();
    std::fs::write(
        cfg.out_dir.join(format!("{}.trace.json", w.name)),
        spans::chrome_trace(&rec.spans).to_compact(),
    )
}

fn probe_report(done: &Finished) -> Result<Value, String> {
    if done.code != Some(0) {
        let tail = done.stderr.lines().last().unwrap_or("no message");
        return Err(format!("probe exited {:?}: {tail}", done.code));
    }
    serde_json::from_str(&done.stdout).map_err(|e| format!("probe output is not JSON: {e}"))
}

/// Per-layer rows read off the traced CLI repetition (source C).
fn cli_rows(
    w: &Workload,
    exec: &Execution,
    untraced_wall_s: &[f64],
    ops: &mut Ops,
    rows: &mut Vec<(String, f64)>,
) {
    let mut row = |name: &str, v: f64| rows.push((name.to_string(), v));
    row("cli.cpu_s", exec.cpu_s);
    row("cli.cpu_parallelism", exec.cpu_s / exec.wall_s);

    let training = matches!(w.kind, Kind::Train { .. } | Kind::Resilient { .. });
    let kernels: Vec<parse::KernelRow> = exec
        .done
        .iter()
        .flat_map(|leg| parse::kernel_table(&leg.stderr))
        .collect();
    if training && ops.check(!kernels.is_empty(), || "no --profile-kernels table".into()) {
        // the table leaves out families that were never called: on a
        // profiled run an absent family is an exact zero, not a gap
        for op in KERNEL_OPS {
            let of_op = kernels.iter().filter(|k| k.op == op);
            // fold, not sum: an empty f64 sum is -0.0
            let seconds = of_op.fold(0.0, |acc, k| acc + k.seconds);
            row(&format!("tensor.{op}_s"), seconds);
        }
        let attributed: f64 = kernels.iter().map(|k| k.seconds).sum();
        row(
            "tensor.kernel_calls",
            kernels.iter().map(|k| k.calls as f64).sum(),
        );
        row("core.engine.nonkernel_cpu_s", exec.cpu_s - attributed);
    }

    // every JSONL file the traced legs left behind, as one event stream
    let mut jsonl = String::new();
    for entry in std::fs::read_dir(&exec.dir).into_iter().flatten().flatten() {
        if entry.path().extension().is_some_and(|e| e == "jsonl") {
            jsonl.push_str(&std::fs::read_to_string(entry.path()).unwrap_or_default());
        }
    }
    let counts = if jsonl.is_empty() {
        None
    } else {
        ops.parsed("JSONL traces", parse::trace_counts(&jsonl))
    };
    if let Some(counts) = &counts {
        row("telemetry.events", counts.events as f64);
        row("telemetry.trace_bytes", counts.bytes as f64);
        if training {
            row("core.engine.epochs", counts.epochs as f64);
            row("core.engine.faults", counts.faults as f64);
            row("core.engine.evictions", counts.evictions as f64);
            if counts.pool_wall_ns > 0 {
                row(
                    "tensor.pool_parallelism",
                    counts.pool_busy_ns as f64 / counts.pool_wall_ns as f64,
                );
            }
        }
    }

    match w.kind {
        // the timed runs of these two have the sink and the profiler off
        Kind::Train { .. } => row(
            "telemetry.trace_overhead_rel",
            exec.wall_s / stats::median(untraced_wall_s) - 1.0,
        ),
        Kind::Resilient { .. } => {
            if let Some(counts) = &counts {
                row("core.checkpoint.persisted", counts.persisted as f64);
            }
            if let Ok(meta) = std::fs::metadata(exec.dir.join("ckpt/latest.ckpt")) {
                row("core.checkpoint.bytes", meta.len() as f64);
            }
        }
        Kind::Tune => {
            if let Ok(out) = parse::tune(&exec.done[0].stdout) {
                let enumerated = out.evaluated + out.pruned + out.skipped;
                row("core.autotune.evaluated", out.evaluated as f64);
                row("core.autotune.pruned", out.pruned as f64);
                row("core.autotune.skipped", out.skipped as f64);
                row(
                    "core.autotune.prune_share",
                    out.pruned as f64 / enumerated as f64,
                );
            }
        }
        Kind::Fleet => {
            if let Ok(out) = parse::fleet(&exec.done[0].stdout) {
                row(
                    "core.fleet.completed_share",
                    out.completed as f64 / out.jobs as f64,
                );
                row("core.fleet.preemptions", out.preemptions as f64);
                row(
                    "core.fleet.sim_hours_per_wall_s",
                    out.horizon_hours / exec.wall_s,
                );
            }
        }
    }
}
