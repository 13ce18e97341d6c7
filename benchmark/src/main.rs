//! `socflow-benchmark` — the repo benchmark's end-to-end runner.
//!
//! Started by `benchmark/run.sh`, which builds `socflow-cli`, this
//! binary and the probe. Three ways to run it:
//!
//! - no `--trace`: every workload (or `--workload NAME`), timed and then
//!   traced; prints every metric by name and writes the results file;
//! - `--trace 0|1` with `--workload`: one run for the acceptance driver,
//!   whose last stdout line is the result object it reads;
//! - `--selfcheck`: two complete sets back to back, compared against the
//!   benchmark's own bounds.
//!
//! README.md has the workload and metric tables.

mod bounds;
mod calib;
mod child;
mod metrics;
mod parse;
mod runner;
mod spans;
mod stats;
mod workloads;

use metrics::{END_TO_END, PER_LAYER};
use runner::{Config, Outcome};
use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{Workload, WORKLOADS};

/// Results, traces and the per-run scratch directories.
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--reps N] [--seconds S]
                        [--trace 0|1] [--out FILE] [--selfcheck]";

struct Args {
    cli: PathBuf,
    probe: Result<PathBuf, String>,
    workload: Option<&'static Workload>,
    seed: u64,
    reps: usize,
    seconds: f64,
    trace: Option<bool>,
    out: Option<PathBuf>,
    selfcheck: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        cli: PathBuf::new(),
        probe: Err("no --probe given".into()),
        workload: None,
        seed: 11,
        reps: 5,
        seconds: 0.0,
        trace: None,
        out: None,
        selfcheck: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            args.selfcheck = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("`{flag}` expects a non-negative number, got `{value}`"))
        };
        match flag.as_str() {
            "--cli" => args.cli = PathBuf::from(value),
            "--probe" => args.probe = Ok(PathBuf::from(value)),
            "--probe-error" => args.probe = Err(value.clone()),
            "--out" => args.out = Some(PathBuf::from(value)),
            "--workload" => {
                let known = || WORKLOADS.map(|w| w.name).join(", ");
                args.workload =
                    Some(workloads::find(value).ok_or_else(|| {
                        format!("unknown workload `{value}`; known: {}", known())
                    })?);
            }
            "--seed" => args.seed = number()? as u64,
            // never fewer than five timed repetitions
            "--reps" => args.reps = (number()? as usize).max(5),
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` expects 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.cli.as_os_str().is_empty() {
        return Err("no --cli given (start the benchmark with benchmark/run.sh)".into());
    }
    if args.trace.is_some() && (args.workload.is_none() || args.selfcheck) {
        return Err(
            "`--trace` is the single-run mode: it needs --workload, not --selfcheck".into(),
        );
    }
    Ok(args)
}

/// Facts about the host and the run, recorded next to the numbers.
struct Host {
    nproc: usize,
    threads: usize,
    rustc: String,
    git_commit: String,
    /// 128³ f32 GEMM, so numbers from different hosts can be normalised.
    calib_gemm128_ns: Option<f64>,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn host_facts(args: &Args) -> Host {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let calib_gemm128_ns = args.probe.as_ref().ok().and_then(|probe| {
        let out = Command::new(probe).arg("--calib").output().ok()?;
        String::from_utf8_lossy(&out.stdout).trim().parse().ok()
    });
    Host {
        nproc,
        // one process of load, never more threads than cores
        threads: nproc.min(2),
        rustc: first_line_of("rustc", &["--version"]),
        git_commit: first_line_of("git", &["rev-parse", "HEAD"]),
        calib_gemm128_ns,
    }
}

fn config(args: &Args, host: &Host) -> Config {
    // --trace 1 reports per-layer rows only: one set-up for the reference
    // results and two untraced repetitions for the tracing-overhead base
    let single_traced = args.trace == Some(true);
    Config {
        cli: args.cli.clone(),
        probe: args.probe.clone(),
        out_dir: PathBuf::from(OUT_DIR),
        seed: args.seed,
        threads: host.threads,
        setups: if single_traced { 1 } else { 3 },
        min_reps: if single_traced { 2 } else { args.reps },
        min_seconds: if single_traced { 0.0 } else { args.seconds },
        traced: args.trace != Some(false),
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, unit)| unit)
}

/// Every per-layer row of one outcome, in table order: the measured
/// value, or `None` where the row does not apply or has no measurement.
fn per_layer_rows(o: &Outcome, host: &Host) -> Vec<(&'static str, Option<f64>)> {
    let measured = |name: &str| {
        if name == "tensor.calib_gemm128_ns" {
            return host.calib_gemm128_ns;
        }
        o.per_layer.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    };
    PER_LAYER
        .iter()
        .map(|(name, _, _)| (*name, measured(name)))
        .collect()
}

fn print_outcome(o: &Outcome, host: &Host, traced: bool) {
    println!("\n== {} (cli --seed {}) ==", o.workload.name, o.cli_seed);
    println!("  end-to-end");
    for (name, s) in &o.end_to_end {
        let unit = unit_of(name);
        print!("    {name:<18} {:>14.6} {unit:<6}", s.value);
        if *name == "fail_share" {
            print!(" {} of {} ops failed", o.ops.failed, o.ops.attempted);
        }
        if !s.samples.is_empty() {
            let (q1, median, q3) = stats::quartiles(&s.samples);
            print!(
                " n={} median={median:.6} q1={q1:.6} q3={q3:.6}",
                s.samples.len()
            );
        }
        println!();
    }
    println!(
        "    setup_s and wall_s are scaled by the host's slowdown, x{:.3} here (calibration job \
         against {} s); raw wall_s median {:.6} s",
        o.host_slowdown.value,
        calib::REFERENCE_S,
        o.raw_wall_s.value
    );
    for failure in &o.ops.failures {
        println!("    FAILED: {failure}");
        // the acceptance driver shows the tail of stderr, not stdout
        eprintln!("{}: FAILED: {failure}", o.workload.name);
    }
    if !traced {
        return;
    }
    println!("  per-layer (traced repetition and probe)");
    for (name, value) in per_layer_rows(o, host) {
        if let Some(v) = value {
            println!("    {name:<34} {v:>16.6} {}", unit_of(name));
        }
    }
    if let Some(why) = &o.probe_note {
        println!("    probe rows missing: {why}");
    }
    let shares: Vec<String> = o
        .self_time_ns
        .iter()
        .map(|(layer, ns)| format!("{layer} {:.3}", *ns as f64 / 1e9))
        .collect();
    println!(
        "  self time by layer, s (root span {:.3} s): {}",
        o.root_ns as f64 / 1e9,
        shares.join(", ")
    );
}

fn metric_json(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), Value::F64(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

/// `correct`, `attempted`, `failed`: the verdict fields of a result.
fn verdict(o: &Outcome) -> Vec<(String, Value)> {
    vec![
        ("correct".into(), Value::Bool(o.ops.failed == 0)),
        ("attempted".into(), Value::U64(o.ops.attempted)),
        ("failed".into(), Value::U64(o.ops.failed)),
    ]
}

fn outcome_json(o: &Outcome, host: &Host) -> Value {
    let sample_json = |s: &runner::Sample, unit: &str| {
        let mut m = vec![
            ("value".into(), Value::F64(s.value)),
            ("unit".into(), Value::Str(unit.into())),
        ];
        if !s.samples.is_empty() {
            let (q1, median, q3) = stats::quartiles(&s.samples);
            let samples = s.samples.iter().copied().map(Value::F64).collect();
            m.extend([
                ("n".into(), Value::U64(s.samples.len() as u64)),
                ("q1".into(), Value::F64(q1)),
                ("median".into(), Value::F64(median)),
                ("q3".into(), Value::F64(q3)),
                ("samples".into(), Value::Array(samples)),
            ]);
        }
        Value::Object(m)
    };
    let end_to_end = o
        .end_to_end
        .iter()
        .map(|(name, s)| (name.to_string(), sample_json(s, unit_of(name))))
        .collect();
    let per_layer = per_layer_rows(o, host)
        .into_iter()
        .map(|(name, v)| {
            let row = v.map_or(Value::Null, |v| metric_json(v, unit_of(name)));
            (name.to_string(), row)
        })
        .collect();
    let failures = o.ops.failures.iter().cloned().map(Value::Str).collect();
    let mut doc = vec![
        ("why".into(), Value::Str(o.workload.why.into())),
        ("cli_seed".into(), Value::U64(o.cli_seed)),
        // what setup_s and wall_s were divided by, and wall_s before it
        (
            "host_slowdown".into(),
            sample_json(&o.host_slowdown, "ratio"),
        ),
        ("raw_wall_s".into(), sample_json(&o.raw_wall_s, "s")),
    ];
    doc.extend(verdict(o));
    doc.extend([
        ("failures".into(), Value::Array(failures)),
        ("end_to_end".into(), Value::Object(end_to_end)),
        ("per_layer".into(), Value::Object(per_layer)),
    ]);
    if let Some(why) = &o.probe_note {
        doc.push(("per_layer_null_reason".into(), Value::Str(why.clone())));
    }
    Value::Object(doc)
}

fn results_json(outcomes: &[Outcome], host: &Host, args: &Args) -> Value {
    let calib = host.calib_gemm128_ns.map_or(Value::Null, Value::F64);
    Value::Object(vec![
        ("schema".into(), Value::Str("socflow-benchmark/v1".into())),
        (
            "host".into(),
            Value::Object(vec![
                ("nproc".into(), Value::U64(host.nproc as u64)),
                ("threads".into(), Value::U64(host.threads as u64)),
                ("rustc".into(), Value::Str(host.rustc.clone())),
                ("git_commit".into(), Value::Str(host.git_commit.clone())),
                ("seed".into(), Value::U64(args.seed)),
                ("min_reps".into(), Value::U64(args.reps as u64)),
                ("min_seconds".into(), Value::F64(args.seconds)),
                ("tensor.calib_gemm128_ns".into(), calib),
            ]),
        ),
        (
            "workloads".into(),
            Value::Object(
                outcomes
                    .iter()
                    .map(|o| (o.workload.name.to_string(), outcome_json(o, host)))
                    .collect(),
            ),
        ),
    ])
}

/// The one-line result object the acceptance driver reads: with
/// `--trace 0` every `end_to_end` metric of `BENCHMARK.json`, with
/// `--trace 1` every `per_layer` one. The driver wants every listed row
/// on every workload, so a row that does not apply is 0 here; the
/// results file has `null` for it and the printed table leaves it out.
fn driver_line(o: &Outcome, host: &Host, traced: bool) -> Value {
    let program_results = END_TO_END.iter().filter(|m| !m.host_clock);
    let metrics: Vec<(String, Value)> = if traced {
        let result = |name: &str| {
            o.end_to_end
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| s.value)
        };
        program_results
            .map(|m| (m.name, result(m.name)))
            .chain(per_layer_rows(o, host))
            .map(|(name, v)| {
                (
                    name.to_string(),
                    metric_json(v.unwrap_or(0.0), unit_of(name)),
                )
            })
            .collect()
    } else {
        o.end_to_end
            .iter()
            .filter(|(name, _)| END_TO_END.iter().any(|m| m.host_clock && m.name == *name))
            .map(|(name, s)| (name.to_string(), metric_json(s.value, unit_of(name))))
            .collect()
    };
    let mut line = verdict(o);
    line.push(("metrics".into(), Value::Object(metrics)));
    Value::Object(line)
}

fn run_set(args: &Args, host: &Host) -> std::io::Result<Vec<Outcome>> {
    let cfg = config(args, host);
    let selected: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut outcomes = Vec::new();
    for w in selected {
        let outcome = runner::run_workload(&cfg, w)?;
        print_outcome(&outcome, host, cfg.traced);
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

/// Every (metric, workload) pair on which two sets of runs of the same
/// build disagree by more than the metric's bound, in either direction.
fn disagreements(first: &[Outcome], second: &[Outcome]) -> Vec<String> {
    let mut out = Vec::new();
    for (a, b) in first.iter().zip(second) {
        for ((name, x), (_, y)) in a.end_to_end.iter().zip(&b.end_to_end) {
            let m = END_TO_END
                .iter()
                .find(|m| m.name == *name)
                .expect("every reported end-to-end metric is in the table");
            if bounds::regressed(m.better, m.bound, x.value, y.value)
                || bounds::regressed(m.better, m.bound, y.value, x.value)
            {
                out.push(format!(
                    "({name}, {}): {} against {} {}",
                    a.workload.name, x.value, y.value, m.unit
                ));
            }
        }
    }
    out
}

fn run(args: &Args) -> std::io::Result<ExitCode> {
    std::fs::create_dir_all(OUT_DIR)?;
    let host = host_facts(args);
    println!(
        "host: nproc {}, threads {}, {}, commit {}, seed {}, calib gemm128 {} ns",
        host.nproc,
        host.threads,
        host.rustc,
        host.git_commit,
        args.seed,
        host.calib_gemm128_ns
            .map_or("n/a".into(), |v| format!("{v:.0}")),
    );
    if let Err(why) = &args.probe {
        println!("probe unavailable, per-layer probe rows will be null: {why}");
    }
    let outcomes = run_set(args, &host)?;
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(OUT_DIR).join("results.json"));
    std::fs::write(&out, results_json(&outcomes, &host, args).to_pretty())?;
    println!("\nresults: {}", out.display());

    if args.selfcheck {
        println!("\n#### selfcheck: second set ####");
        let second = run_set(args, &host)?;
        let bad = disagreements(&outcomes, &second);
        for pair in &bad {
            println!("DISAGREE {pair}");
        }
        println!("selfcheck: {} (metric, workload) pairs disagree", bad.len());
        return Ok(if bad.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    if let Some(traced) = args.trace {
        println!("{}", driver_line(&outcomes[0], &host, traced).to_compact());
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, threads] = argv.as_slice() {
        if flag == calib::FLAG {
            println!("{}", calib::job_seconds(threads.parse().unwrap_or(1)));
            return ExitCode::SUCCESS;
        }
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    run(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use runner::Sample;
    use workloads::Ops;

    fn outcome(wall_s: f64, accuracy: f64) -> Outcome {
        Outcome {
            workload: &WORKLOADS[0],
            cli_seed: 11,
            host_slowdown: Sample::single(1.0),
            raw_wall_s: Sample::single(wall_s),
            ops: Ops::default(),
            end_to_end: vec![
                ("wall_s", Sample::single(wall_s)),
                ("final_accuracy", Sample::single(accuracy)),
                ("sim_epoch_s", Sample::single(47.58138796704)),
            ],
            per_layer: vec![("cli.cpu_s".into(), 3.5)],
            probe_note: None,
            self_time_ns: Vec::new(),
            root_ns: 0,
        }
    }

    fn host() -> Host {
        Host {
            nproc: 2,
            threads: 2,
            rustc: "rustc".into(),
            git_commit: "unknown".into(),
            calib_gemm128_ns: Some(170000.0),
        }
    }

    #[test]
    fn selfcheck_names_pairs_beyond_their_bound_in_either_direction() {
        let base = [outcome(2.0, 0.70)];
        assert!(disagreements(&base, &[outcome(2.4, 0.71)]).is_empty());
        let slower = disagreements(&base, &[outcome(2.6, 0.70)]);
        assert_eq!(slower.len(), 1);
        assert!(slower[0].starts_with("(wall_s, train_mixed)"), "{slower:?}");
        // a faster second set disagrees too: the two sets are the same build
        assert_eq!(disagreements(&[outcome(2.6, 0.70)], &base).len(), 1);
        let acc = disagreements(&base, &[outcome(2.0, 0.67)]);
        assert!(
            acc[0].starts_with("(final_accuracy, train_mixed)"),
            "{acc:?}"
        );
    }

    #[test]
    fn driver_line_has_exactly_the_listed_metrics() {
        let o = outcome(2.0, 0.7);
        let timed = driver_line(&o, &host(), false);
        let names: Vec<&str> = timed
            .get("metrics")
            .as_object()
            .unwrap()
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, ["wall_s"], "only what the outcome measured");
        assert_eq!(timed.get("correct").as_bool(), Some(true));

        let traced = driver_line(&o, &host(), true);
        let metrics = traced.get("metrics").as_object().unwrap();
        assert_eq!(metrics.len(), 6 + PER_LAYER.len());
        let value = |name: &str| traced.get("metrics").get(name).get("value").as_f64();
        assert_eq!(value("final_accuracy"), Some(0.7));
        assert_eq!(value("cli.cpu_s"), Some(3.5));
        assert_eq!(value("tensor.calib_gemm128_ns"), Some(170000.0));
        // a row that does not apply to the workload is reported as 0
        assert_eq!(value("best_plan_sim_s"), Some(0.0));
        assert_eq!(value("core.fleet.events"), Some(0.0));
    }

    #[test]
    fn argument_errors_are_reported() {
        let parse = |args: &[&str]| {
            parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).map(|a| a.reps)
        };
        assert!(parse(&["--cli", "x"]).is_ok());
        assert!(parse(&[]).unwrap_err().contains("--cli"));
        assert!(parse(&["--cli", "x", "--workload", "nope"])
            .unwrap_err()
            .contains("train_mixed"));
        assert!(
            parse(&["--cli", "x", "--trace", "1"]).is_err(),
            "needs --workload"
        );
        assert!(parse(&["--cli", "x", "--trace", "2", "--workload", "tune_60"]).is_err());
        assert_eq!(parse(&["--cli", "x", "--reps", "2"]), Ok(5));
    }
}
