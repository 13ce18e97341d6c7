//! The five workloads: the `socflow-cli` command lines each one runs, why
//! it was chosen, and the checks its outputs must pass.
//!
//! Sizes are fixed here and nowhere else (the probe receives the command
//! line and reads its shapes from it). They are cut down from the
//! issue's 4–7 s per repetition to 1.4–2.4 s on the 2-core reference
//! host in its calm state, so that three set-ups plus at least five
//! timed repetitions fit the acceptance driver's time cap in its noisy
//! state too — but no further: short trainings have a long low tail
//! (one seed in forty leaves `train_resilient` at 0.22 after 10 epochs,
//! one in thirty leaves `train_mixed` at 0.34 after 3). At these sizes the
//! worst final accuracy over CLI seeds 0–127 is 0.52, 0.52 and 0.35 in
//! table order: the tail never quite ends, so the training workloads draw
//! their CLI seed from [`TRAIN_SEEDS`].

use crate::child::Finished;
use crate::parse;
use std::path::Path;

/// All three training datasets used here have ten classes.
const CHANCE: f64 = 0.1;

/// Candidates `tune` enumerates on 60 SoCs: 60 group counts × (serial,
/// interleaved, four wait-free bucket sizes).
const TUNE_CANDIDATES: u64 = 360;

/// The CLI seeds of the training workloads; benchmark seed `n` trains on
/// `TRAIN_SEEDS[n % 64]`. A short training from a random init is now and
/// then a slow learner (CLI seed 65 leaves `train_resilient` at 0.352 after
/// 16 epochs, against a target of 0.35), and a workload must not fail on a
/// seed nobody tried. These are the first 64 of 0–127 on which all three
/// trainings end at 0.60 or better and `train_resilient` stays above 0.50
/// over its last four epochs; 26, 33, 35, 42, 57, 58 and 65 are left out.
const TRAIN_SEEDS: [u64; 64] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
    27, 28, 29, 30, 31, 32, 34, 36, 37, 38, 39, 40, 41, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53,
    54, 55, 56, 59, 60, 61, 62, 63, 64, 66, 67, 68, 69, 70,
];

const RESILIENT_EPOCHS_A: usize = 14;
const RESILIENT_EPOCHS_B: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// One `train` invocation; `target` is the time-to-accuracy goal.
    Train {
        target: f64,
    },
    /// Checkpointed, fault-injected, traced `train`, then a resumed one.
    Resilient {
        target: f64,
    },
    Tune,
    Fleet,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// The subcommand and the flags that size the workload.
    base: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "train_mixed",
        why: "The paper's full method: FP32 + INT8 arms, alpha probe, weight merge, delayed \
              aggregation over 4 replicas, Eq. 1 pricing; the row INT8 kernel work must move.",
        kind: Kind::Train { target: 0.40 },
        base: "train --model vgg11 --dataset cifar10 --method ours --socs 16 --groups 4 \
               --epochs 4 --samples 1536",
    },
    Workload {
        name: "train_ring_fp32",
        why: "One synchronous FP32 replica of a residual + batch-norm net: INT8 arm, alpha/beta \
              and group aggregation idle, so it is the bypass row and the plain baseline.",
        kind: Kind::Train { target: 0.35 },
        base: "train --model resnet18 --dataset cifar10 --method ring --socs 16 \
               --epochs 2 --samples 1536",
    },
    Workload {
        name: "train_resilient",
        why: "Small kernels, so per-step glue, flat copies, aggregation, timeline pricing, fault \
              remap, JSONL telemetry, checkpoint write and resume carry the run.",
        kind: Kind::Resilient { target: 0.35 },
        base: "train --model lenet5 --dataset fmnist --method ours --socs 32 --groups 8 \
               --samples 8192 --overlap",
    },
    Workload {
        name: "tune_60",
        why: "Cold plan search at paper scale: FluidTimeline, sim, autotune waves and lower-bound \
              pruning do all the work and the tensor stack none.",
        kind: Kind::Tune,
        base: "tune --model resnet18 --dataset cifar10 --socs 60 --auto-budget 100",
    },
    Workload {
        name: "fleet_tidal",
        why: "The pricing layer used the other way round: memo-warm priced-epoch lookups on \
              string keys, tidal traces, admission; moves against tune_60 if the memo is re-keyed.",
        kind: Kind::Fleet,
        base: "fleet --servers 12 --jobs 160 --policy tidal --horizon 300 --interarrival 900",
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One `socflow-cli` invocation of a workload.
pub struct Leg {
    pub tag: &'static str,
    pub args: Vec<String>,
    /// `false` for an invocation that only checks an output
    /// (`trace summarize`): it is an op, but not part of `wall_s`.
    pub timed: bool,
}

/// Failed ops over ops attempted; an op is one CLI invocation or one
/// output check.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
        ok
    }

    /// Counts `result` as one op and hands back its value.
    pub fn parsed<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        let err = result.as_ref().err().cloned().unwrap_or_default();
        self.check(result.is_ok(), || format!("{what}: {err}"));
        result.ok()
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The simulated-clock and accuracy results of one execution, by metric
/// name. Deterministic in the seed: every repetition must reproduce the
/// warm-up's values exactly.
pub type Results = Vec<(&'static str, f64)>;

impl Workload {
    /// The `--seed` the CLI gets for benchmark seed `seed`.
    pub fn cli_seed(&self, seed: u64) -> u64 {
        match self.kind {
            Kind::Train { .. } | Kind::Resilient { .. } => {
                TRAIN_SEEDS[(seed % TRAIN_SEEDS.len() as u64) as usize]
            }
            // no accuracy to miss: `tune` ignores the seed, and any
            // arrival trace completes jobs
            Kind::Tune | Kind::Fleet => seed,
        }
    }

    /// The invocations of one execution in `dir`, which must be fresh.
    /// `traced` adds `--profile-kernels` and `--trace` where the
    /// subcommand has them.
    pub fn legs(&self, seed: u64, threads: usize, dir: &Path, traced: bool) -> Vec<Leg> {
        let seed = self.cli_seed(seed);
        let path = |file: &str| dir.join(file).to_string_lossy().into_owned();
        let leg = |tag: &'static str, extra: &[&str]| {
            let mut args: Vec<String> = self.base.split_whitespace().map(str::to_string).collect();
            args.extend(extra.iter().map(|s| s.to_string()));
            args.extend([
                "--seed".into(),
                seed.to_string(),
                "--threads".into(),
                threads.to_string(),
                "--json".into(),
            ]);
            if traced && matches!(self.kind, Kind::Train { .. } | Kind::Resilient { .. }) {
                args.push("--profile-kernels".into());
            }
            if traced && !extra.contains(&"--trace") && self.kind != Kind::Tune {
                args.extend(["--trace".into(), path(&format!("{tag}.jsonl"))]);
            }
            Leg {
                tag,
                args,
                timed: true,
            }
        };
        match self.kind {
            Kind::Train { .. } | Kind::Tune | Kind::Fleet => vec![leg("run", &[])],
            Kind::Resilient { .. } => {
                let ckpt = path("ckpt");
                let jsonl = path("run.jsonl");
                let (a, b) = (
                    RESILIENT_EPOCHS_A.to_string(),
                    RESILIENT_EPOCHS_B.to_string(),
                );
                let common = ["--checkpoint-dir", &ckpt, "--checkpoint-every", "1"];
                let mut first = vec!["--epochs", &a, "--faults", "1200:7200", "--trace", &jsonl];
                first.extend(common);
                let mut second = vec!["--epochs", &b, "--resume"];
                second.extend(common);
                vec![
                    leg("run", &first),
                    leg("resume", &second),
                    Leg {
                        tag: "summarize",
                        args: vec!["trace".into(), "summarize".into(), jsonl.clone()],
                        timed: false,
                    },
                ]
            }
        }
    }

    /// Checks the finished legs' outputs — one op per invocation and per
    /// check — and extracts the workload's results. `done` is in
    /// [`Workload::legs`] order.
    pub fn check(&self, done: &[Finished], dir: &Path, ops: &mut Ops) -> Results {
        for (i, leg) in done.iter().enumerate() {
            ops.check(leg.code == Some(0), || {
                let tail = leg.stderr.lines().last().unwrap_or("");
                format!(
                    "{}: invocation {i} exited {:?}: {tail}",
                    self.name, leg.code
                )
            });
        }
        match self.kind {
            Kind::Train { target } => {
                let out = ops.parsed("train --json", parse::train(&done[0].stdout));
                out.map_or_else(Vec::new, |out| self.check_training(&out, target, ops))
            }
            Kind::Resilient { target } => {
                let first = ops.parsed("train --json", parse::train(&done[0].stdout));
                let resumed = ops.parsed("train --resume --json", parse::train(&done[1].stdout));
                ops.check(dir.join("ckpt/latest.ckpt").is_file(), || {
                    "no latest.ckpt in the checkpoint dir".into()
                });
                let banner = format!("resuming from epoch {RESILIENT_EPOCHS_A} ");
                ops.check(done[1].stderr.contains(&banner), || {
                    format!("resumed run did not print `{banner}`")
                });
                let (Some(first), Some(resumed)) = (first, resumed) else {
                    return Vec::new();
                };
                let n = first.epoch_accuracy.len();
                ops.check(
                    n == RESILIENT_EPOCHS_A
                        && resumed.epoch_accuracy.len() == RESILIENT_EPOCHS_B
                        && resumed.epoch_accuracy[..n] == first.epoch_accuracy[..],
                    || "resumed run does not replay the first run's accuracies bit for bit".into(),
                );
                self.check_training(&resumed, target, ops)
            }
            Kind::Tune => {
                let Some(out) = ops.parsed("tune --json", parse::tune(&done[0].stdout)) else {
                    return Vec::new();
                };
                ops.check(out.best_s > 0.0 && out.best_s <= out.default_s, || {
                    format!(
                        "best plan {} s against default {} s",
                        out.best_s, out.default_s
                    )
                });
                let total = out.evaluated + out.pruned + out.skipped;
                ops.check(total == TUNE_CANDIDATES, || {
                    format!("{total} candidates accounted for, not {TUNE_CANDIDATES}")
                });
                vec![("best_plan_sim_s", out.best_s)]
            }
            Kind::Fleet => {
                let Some(out) = ops.parsed("fleet --json", parse::fleet(&done[0].stdout)) else {
                    return Vec::new();
                };
                ops.check(out.completed > 0 && out.mean_jct_s > 0.0, || {
                    format!(
                        "{} jobs completed, mean JCT {}",
                        out.completed, out.mean_jct_s
                    )
                });
                vec![("mean_jct_sim_s", out.mean_jct_s)]
            }
        }
    }

    fn check_training(&self, out: &parse::TrainOut, target: f64, ops: &mut Ops) -> Results {
        ops.check(out.epoch_time.iter().all(|t| *t > 0.0), || {
            format!("non-positive epoch time in {:?}", out.epoch_time)
        });
        ops.check(out.final_accuracy() >= 3.0 * CHANCE, || {
            format!("final accuracy {} is below 3x chance", out.final_accuracy())
        });
        let (tta, reached) = out.time_to_accuracy(target);
        ops.check(reached, || {
            format!(
                "accuracy target {target} never reached: {:?}",
                out.epoch_accuracy
            )
        });
        vec![
            ("final_accuracy", out.final_accuracy()),
            ("sim_epoch_s", out.mean_epoch_time()),
            ("sim_tta_s", tta),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(code: i32, stdout: &str, stderr: &str) -> Finished {
        Finished {
            code: Some(code),
            wall_s: 1.0,
            cpu_s: 1.0,
            peak_rss_mb: 1.0,
            stdout: stdout.into(),
            stderr: stderr.into(),
        }
    }

    #[test]
    fn traced_legs_add_profiler_and_trace_flags_where_they_exist() {
        let dir = Path::new("d");
        for w in &WORKLOADS {
            let plain = w.legs(7, 2, dir, false);
            let traced = w.legs(7, 2, dir, true);
            assert!(
                plain[0].args.ends_with(&["--json".to_string()]),
                "{}",
                w.name
            );
            for (p, t) in plain.iter().zip(&traced) {
                let has = |flag: &str| t.args.iter().filter(|a| *a == flag).count();
                match (w.kind, p.timed) {
                    (_, false) => assert_eq!(p.args, t.args),
                    (Kind::Tune, _) => assert_eq!(p.args, t.args),
                    (Kind::Fleet, _) => {
                        assert_eq!((has("--profile-kernels"), has("--trace")), (0, 1))
                    }
                    _ => assert_eq!((has("--profile-kernels"), has("--trace")), (1, 1)),
                }
            }
        }
    }

    #[test]
    fn training_workloads_draw_their_cli_seed_from_the_pool() {
        let cli_seed = |name: &str, seed: u64| {
            let args = find(name).unwrap().legs(seed, 2, Path::new("d"), false)[0]
                .args
                .clone();
            let at = args.iter().position(|a| a == "--seed").unwrap();
            args[at + 1].parse::<u64>().unwrap()
        };
        // the default seed and the README's second one train on themselves
        assert_eq!(cli_seed("train_mixed", 11), 11);
        assert_eq!(cli_seed("train_resilient", 12), 12);
        // 65 is the slow learner: no benchmark seed reaches it
        assert_eq!(cli_seed("train_resilient", 65), 1);
        assert_eq!(cli_seed("train_ring_fp32", u64::MAX), 70);
        assert!((0..256).all(|s| TRAIN_SEEDS.contains(&cli_seed("train_mixed", s))));
        assert_eq!(cli_seed("fleet_tidal", 65), 65);
        assert_eq!(cli_seed("tune_60", u64::MAX), u64::MAX);
    }

    #[test]
    fn a_good_training_run_passes_every_check() {
        let w = find("train_mixed").unwrap();
        let out = r#"{"epoch_accuracy":[0.2,0.3,0.7],"epoch_time":[2.0,2.0,2.0]}"#;
        let mut ops = Ops::default();
        let results = w.check(&[finished(0, out, "")], Path::new("."), &mut ops);
        assert_eq!((ops.attempted, ops.failed), (5, 0), "{:?}", ops.failures);
        assert_eq!(
            results,
            vec![
                ("final_accuracy", 0.7),
                ("sim_epoch_s", 2.0),
                ("sim_tta_s", 6.0)
            ]
        );
    }

    #[test]
    fn failures_are_counted_per_check() {
        let w = find("train_mixed").unwrap();
        // exits 1, chance-level accuracy, target never reached
        let out = r#"{"epoch_accuracy":[0.1,0.1,0.1],"epoch_time":[2.0,2.0,2.0]}"#;
        let mut ops = Ops::default();
        w.check(&[finished(1, out, "boom")], Path::new("."), &mut ops);
        assert_eq!((ops.attempted, ops.failed), (5, 3), "{:?}", ops.failures);
        assert_eq!(ops.fail_share(), 0.6);
        // unparsable output: the dependent checks are not attempted
        let mut ops = Ops::default();
        assert!(w
            .check(&[finished(0, "", "")], Path::new("."), &mut ops)
            .is_empty());
        assert_eq!((ops.attempted, ops.failed), (2, 1));
    }

    #[test]
    fn tune_accounts_for_every_candidate() {
        let w = find("tune_60").unwrap();
        let doc = |skipped: u64| {
            format!(
                r#"{{"evaluated":100,"pruned":228,"skipped":{skipped},
                    "best":{{"predicted_s":27.3}},"default":{{"predicted_s":93.9}}}}"#
            )
        };
        let mut ops = Ops::default();
        let results = w.check(&[finished(0, &doc(32), "")], Path::new("."), &mut ops);
        assert_eq!(ops.failed, 0, "{:?}", ops.failures);
        assert_eq!(results, vec![("best_plan_sim_s", 27.3)]);
        w.check(&[finished(0, &doc(31), "")], Path::new("."), &mut ops);
        assert_eq!(ops.failed, 1);
    }
}
