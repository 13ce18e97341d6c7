//! Minimal `--flag value` option parsing (no external dependencies).

use socflow::options::Pricing;
use socflow::timemodel::DEFAULT_BUCKET_KB;
use std::num::NonZeroUsize;

/// Largest `--socs`: the simulated network indexes its links (two per
/// SoC, two per five-SoC board, one switch) with 16 bits.
const MAX_SOCS: usize = 16_384;

/// Parsed command-line options; every field has a sensible default.
#[derive(Debug, Clone)]
pub struct Options {
    pub socs: usize,
    pub groups: Option<usize>,
    pub model: String,
    pub dataset: String,
    pub method: String,
    pub epochs: usize,
    pub samples: usize,
    pub seed: u64,
    pub json: bool,
    /// Write a JSONL telemetry trace of the run to this path.
    pub trace: Option<String>,
    /// Enable the host kernel profiler for the run: KernelTotals events
    /// land in the trace, and a host-time attribution table is printed.
    pub profile_kernels: bool,
    /// Fault timeline spec `<mean_reclaim_s>:<mean_crash_s>` sampled over
    /// the job's SoCs (e.g. `600:3600`).
    pub faults: Option<String>,
    /// Directory for durable checkpoints (enables checkpointing).
    pub checkpoint_dir: Option<String>,
    /// Persist a checkpoint every N epochs (defaults to 1 when a
    /// checkpoint dir is given).
    pub checkpoint_every: Option<usize>,
    /// Resume from the latest checkpoint in `--checkpoint-dir`.
    pub resume: bool,
    /// How SoCFlow epochs are priced on the fluid timeline: one CG sync
    /// per iteration by default, wait-free bucketing with
    /// `--overlap [--bucket-kb N]`.
    pub pricing: Pricing,
    /// Worker-pool size for host compute (overrides `SOCFLOW_THREADS`).
    /// Results are bit-identical at any thread count; this only changes
    /// wall-clock time.
    pub threads: Option<usize>,
    /// Measured β compute-power ratio override in (0,1) — typically the
    /// value `bench kernels` reports from timing the f32 and i8 GEMMs.
    pub profiled_beta: Option<f64>,
    /// Number of servers in the simulated fleet (`fleet`).
    pub servers: usize,
    /// Number of jobs on the fleet arrival trace (`fleet`).
    pub jobs: usize,
    /// Fleet admission/placement policy: `tidal` | `fifo` (`fleet`).
    pub policy: String,
    /// Fleet simulation horizon in hours (`fleet`).
    pub horizon: usize,
    /// Mean Poisson inter-arrival time between fleet jobs, seconds
    /// (`fleet`).
    pub interarrival: f64,
    /// Ingest training data from live per-SoC streams instead of the
    /// static pre-partitioned corpus (`train --streaming`).
    pub streaming: bool,
    /// Per-SoC stream-rate profile: `uniform` | `hetero` | `bimodal`
    /// (requires `--streaming`).
    pub rates: String,
    /// Per-group ingest-buffer capacity in multiples of the global batch
    /// (requires `--streaming`).
    pub buffer_batches: usize,
    /// Full-buffer policy: `drop` | `block` (requires `--streaming`).
    pub on_full: String,
    /// Autotune the parallelization plan on the simulated clock before
    /// training and adopt the winner (`train --auto`).
    pub auto: bool,
    /// Optional cap on candidates the autotuner prices on the timeline
    /// (requires `--auto`; `tune` accepts it standalone).
    pub auto_budget: Option<usize>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            socs: 32,
            groups: None,
            model: "lenet5".into(),
            dataset: "fmnist".into(),
            method: "ours".into(),
            epochs: 10,
            samples: 2048,
            seed: 42,
            json: false,
            trace: None,
            profile_kernels: false,
            faults: None,
            checkpoint_dir: None,
            checkpoint_every: None,
            resume: false,
            pricing: Pricing::Timeline,
            threads: None,
            profiled_beta: None,
            servers: 4,
            jobs: 12,
            policy: "tidal".into(),
            horizon: 72,
            interarrival: 5400.0,
            streaming: false,
            rates: "uniform".into(),
            buffer_batches: 2,
            on_full: "block".into(),
            auto: false,
            auto_budget: None,
        }
    }
}

impl Options {
    /// Parses `--flag value` pairs (plus the bare `--json` switch).
    ///
    /// # Errors
    /// Returns a description of the first malformed flag.
    pub fn parse(argv: &[String]) -> Result<Options, String> {
        let mut o = Options::default();
        let (mut overlap, mut bucket_kb) = (false, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == "--json" {
                o.json = true;
                continue;
            }
            if flag == "--profile-kernels" {
                o.profile_kernels = true;
                continue;
            }
            if flag == "--resume" {
                o.resume = true;
                continue;
            }
            if flag == "--overlap" {
                overlap = true;
                continue;
            }
            if flag == "--streaming" {
                o.streaming = true;
                continue;
            }
            if flag == "--auto" {
                o.auto = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
            match flag.as_str() {
                "--socs" => o.socs = parse_num(flag, value)?,
                "--groups" => o.groups = Some(parse_num(flag, value)?),
                "--model" => o.model = value.clone(),
                "--dataset" => o.dataset = value.clone(),
                "--method" => o.method = value.clone(),
                "--epochs" => o.epochs = parse_num(flag, value)?,
                "--samples" => o.samples = parse_num(flag, value)?,
                "--seed" => o.seed = parse_num(flag, value)? as u64,
                "--trace" => o.trace = Some(value.clone()),
                "--faults" => o.faults = Some(value.clone()),
                "--checkpoint-dir" => o.checkpoint_dir = Some(value.clone()),
                "--checkpoint-every" => o.checkpoint_every = Some(parse_num(flag, value)?),
                "--threads" => o.threads = Some(parse_num(flag, value)?),
                "--bucket-kb" => bucket_kb = Some(parse_num(flag, value)?),
                "--auto-budget" => o.auto_budget = Some(parse_num(flag, value)?),
                "--rates" => o.rates = value.clone(),
                "--buffer-batches" => o.buffer_batches = parse_num(flag, value)?,
                "--on-full" => o.on_full = value.clone(),
                "--servers" => o.servers = parse_num(flag, value)?,
                "--jobs" => o.jobs = parse_num(flag, value)?,
                "--policy" => o.policy = value.clone(),
                "--horizon" => o.horizon = parse_num(flag, value)?,
                "--interarrival" => {
                    let v: f64 = value
                        .parse()
                        .map_err(|_| format!("`{flag}` expects a number, got `{value}`"))?;
                    if v <= 0.0 || !v.is_finite() {
                        return Err(format!("`{flag}` must be positive, got `{value}`"));
                    }
                    o.interarrival = v;
                }
                "--profiled-beta" => {
                    let beta: f64 = value
                        .parse()
                        .map_err(|_| format!("`{flag}` expects a number, got `{value}`"))?;
                    if !(beta > 0.0 && beta < 1.0) {
                        return Err(format!(
                            "`{flag}` must be strictly between 0 and 1, got `{value}`"
                        ));
                    }
                    o.profiled_beta = Some(beta);
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        let counts = [
            ("--socs", o.socs),
            ("--samples", o.samples),
            ("--epochs", o.epochs),
            ("--servers", o.servers),
            ("--jobs", o.jobs),
            ("--horizon", o.horizon),
        ];
        if let Some((flag, _)) = counts.iter().find(|&&(_, n)| n == 0) {
            return Err(format!("{flag} must be positive"));
        }
        if o.socs > MAX_SOCS {
            return Err(format!("--socs must be at most {MAX_SOCS}"));
        }
        if o.resume && o.checkpoint_dir.is_none() {
            return Err("--resume needs --checkpoint-dir".into());
        }
        if o.threads == Some(0) {
            return Err("--threads must be positive".into());
        }
        o.pricing = match (overlap, bucket_kb.map(NonZeroUsize::new)) {
            (_, Some(None)) => return Err("--bucket-kb must be positive".into()),
            (true, Some(Some(bucket_kb))) => Pricing::WaitFree { bucket_kb },
            (true, None) => Pricing::wait_free_kb(DEFAULT_BUCKET_KB),
            (false, Some(_)) => return Err("--bucket-kb needs --overlap".into()),
            (false, None) => Pricing::Timeline,
        };
        if o.auto_budget == Some(0) {
            return Err("--auto-budget must be positive".into());
        }
        if o.auto && o.pricing != Pricing::Timeline {
            return Err("--auto picks the schedule itself; drop --overlap/--bucket-kb".into());
        }
        if !o.streaming {
            let defaults = Options::default();
            if o.rates != defaults.rates {
                return Err("--rates needs --streaming".into());
            }
            if o.buffer_batches != defaults.buffer_batches {
                return Err("--buffer-batches needs --streaming".into());
            }
            if o.on_full != defaults.on_full {
                return Err("--on-full needs --streaming".into());
            }
        }
        socflow_data::stream::RateProfile::parse(&o.rates)?;
        socflow_data::stream::OnFull::parse(&o.on_full)?;
        if o.buffer_batches == 0 {
            return Err("--buffer-batches must be positive".into());
        }
        Ok(o)
    }
}

fn parse_num(flag: &str, value: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("`{flag}` expects a number, got `{value}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Options::parse(&v)
    }

    #[test]
    fn defaults_apply() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.socs, 32);
        assert_eq!(o.method, "ours");
        assert!(!o.json);
        assert_eq!(o.pricing, Pricing::Timeline);
    }

    #[test]
    fn flags_override() {
        let o = parse(&[
            "--socs", "16", "--model", "vgg11", "--json", "--groups", "4",
        ])
        .unwrap();
        assert_eq!(o.socs, 16);
        assert_eq!(o.model, "vgg11");
        assert_eq!(o.groups, Some(4));
        assert!(o.json);
    }

    #[test]
    fn trace_flag_takes_a_path() {
        let o = parse(&["--trace", "run.jsonl"]).unwrap();
        assert_eq!(o.trace.as_deref(), Some("run.jsonl"));
        assert!(parse(&["--trace"]).is_err());
    }

    #[test]
    fn profile_kernels_is_a_bare_switch() {
        let o = parse(&["--profile-kernels", "--epochs", "2"]).unwrap();
        assert!(o.profile_kernels);
        assert_eq!(o.epochs, 2);
        assert!(!parse(&[]).unwrap().profile_kernels);
    }

    #[test]
    fn overlap_and_bucket_kb_parse_together() {
        let o = parse(&["--overlap", "--bucket-kb", "2048"]).unwrap();
        assert_eq!(o.pricing, Pricing::wait_free_kb(2048));
        let bare = parse(&["--overlap"]).unwrap();
        assert_eq!(bare.pricing, Pricing::wait_free_kb(DEFAULT_BUCKET_KB));
        assert!(parse(&["--bucket-kb", "512"]).is_err(), "needs --overlap");
        assert!(parse(&["--overlap", "--bucket-kb", "0"]).is_err());
        assert!(parse(&["--overlap", "--bucket-kb"]).is_err());
    }

    #[test]
    fn fault_and_checkpoint_flags_parse() {
        let o = parse(&[
            "--faults",
            "600:3600",
            "--checkpoint-dir",
            "/tmp/ck",
            "--checkpoint-every",
            "3",
        ])
        .unwrap();
        assert_eq!(o.faults.as_deref(), Some("600:3600"));
        assert_eq!(o.checkpoint_dir.as_deref(), Some("/tmp/ck"));
        assert_eq!(o.checkpoint_every, Some(3));
        assert!(!o.resume);
    }

    #[test]
    fn resume_is_a_bare_switch_needing_a_dir() {
        let o = parse(&["--checkpoint-dir", "/tmp/ck", "--resume"]).unwrap();
        assert!(o.resume);
        assert!(parse(&["--resume"]).is_err(), "resume needs a dir");
    }

    #[test]
    fn threads_flag_parses_and_rejects_zero() {
        let o = parse(&["--threads", "4"]).unwrap();
        assert_eq!(o.threads, Some(4));
        assert_eq!(parse(&[]).unwrap().threads, None);
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads"]).is_err());
    }

    #[test]
    fn profiled_beta_parses_and_rejects_out_of_range() {
        let o = parse(&["--profiled-beta", "0.78"]).unwrap();
        assert_eq!(o.profiled_beta, Some(0.78));
        assert_eq!(parse(&[]).unwrap().profiled_beta, None);
        assert!(parse(&["--profiled-beta", "0"]).is_err());
        assert!(parse(&["--profiled-beta", "1.0"]).is_err());
        assert!(parse(&["--profiled-beta", "nan"]).is_err());
        assert!(parse(&["--profiled-beta", "big"]).is_err());
    }

    #[test]
    fn fleet_flags_parse_and_validate() {
        let o = parse(&[
            "--servers",
            "2",
            "--jobs",
            "9",
            "--policy",
            "fifo",
            "--horizon",
            "48",
            "--interarrival",
            "1800",
        ])
        .unwrap();
        assert_eq!(o.servers, 2);
        assert_eq!(o.jobs, 9);
        assert_eq!(o.policy, "fifo");
        assert_eq!(o.horizon, 48);
        assert_eq!(o.interarrival, 1800.0);
        let d = parse(&[]).unwrap();
        assert_eq!(d.servers, 4);
        assert_eq!(d.jobs, 12);
        assert_eq!(d.policy, "tidal");
        assert_eq!(d.horizon, 72);
        assert!(parse(&["--servers", "0"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--horizon", "0"]).is_err());
        assert!(parse(&["--interarrival", "-5"]).is_err());
        assert!(parse(&["--interarrival", "soon"]).is_err());
    }

    #[test]
    fn streaming_flags_parse_and_validate() {
        let o = parse(&[
            "--streaming",
            "--rates",
            "hetero",
            "--buffer-batches",
            "4",
            "--on-full",
            "drop",
        ])
        .unwrap();
        assert!(o.streaming);
        assert_eq!(o.rates, "hetero");
        assert_eq!(o.buffer_batches, 4);
        assert_eq!(o.on_full, "drop");
        let d = parse(&[]).unwrap();
        assert!(!d.streaming);
        assert_eq!(d.rates, "uniform");
        assert_eq!(d.buffer_batches, 2);
        assert_eq!(d.on_full, "block");
        assert!(parse(&["--rates", "hetero"]).is_err(), "needs --streaming");
        assert!(parse(&["--on-full", "drop"]).is_err(), "needs --streaming");
        assert!(
            parse(&["--buffer-batches", "4"]).is_err(),
            "needs --streaming"
        );
        assert!(parse(&["--streaming", "--rates", "chaotic"]).is_err());
        assert!(parse(&["--streaming", "--on-full", "explode"]).is_err());
        assert!(parse(&["--streaming", "--buffer-batches", "0"]).is_err());
    }

    #[test]
    fn auto_flags_parse_and_validate() {
        let o = parse(&["--auto", "--auto-budget", "24"]).unwrap();
        assert!(o.auto);
        assert_eq!(o.auto_budget, Some(24));
        // `tune` takes --auto-budget without --auto
        let t = parse(&["--auto-budget", "8"]).unwrap();
        assert!(!t.auto && t.auto_budget == Some(8));
        assert!(!parse(&[]).unwrap().auto);
        assert!(parse(&["--auto-budget", "0"]).is_err());
        assert!(
            parse(&["--auto", "--overlap"]).is_err(),
            "auto picks the schedule"
        );
        assert!(parse(&["--auto", "--overlap", "--bucket-kb", "64"]).is_err());
        // β under the search is `RunOptions::validate`'s rule, which `train`
        // and `tune` share; the parser leaves it to that one place
        let b = parse(&["--auto", "--profiled-beta", "0.62"]).unwrap();
        assert!(b.auto && b.profiled_beta == Some(0.62));
    }

    #[test]
    fn rejects_dangling_flag() {
        assert!(parse(&["--socs"]).is_err());
    }

    #[test]
    fn rejects_bad_number() {
        assert!(parse(&["--epochs", "lots"]).is_err());
        assert!(parse(&["--epochs", "0"]).is_err());
        assert!(parse(&["--samples", "0"]).is_err());
        assert!(parse(&["--samples", "1", "--epochs", "1"]).is_ok());
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(parse(&["--gpu", "v100"]).is_err());
    }

    #[test]
    fn rejects_zero_socs() {
        assert!(parse(&["--socs", "0"]).is_err());
        assert!(parse(&["--socs", "16384"]).is_ok());
        assert!(parse(&["--socs", "16385"]).is_err());
    }
}
