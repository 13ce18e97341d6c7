//! How a job runs, as one plain value.
//!
//! [`TrainJobSpec`] says *what* trains; [`RunOptions`] says how the run is
//! priced, observed, disturbed and made durable. It is built once (the CLI
//! builds it from flags), checked once by [`RunOptions::validate`], and
//! handed unchanged through the scheduler to the engine. Combinations that
//! used to be policed flag by flag cannot be written down: a bucket size
//! exists only inside [`Pricing::WaitFree`], a checkpoint policy only
//! inside a [`Checkpointing`] that owns a usable directory, a tuning budget
//! only inside [`Plan::Auto`].

use crate::checkpoint::{Checkpoint, CheckpointPolicy, LATEST_FILE};
use crate::config::{StreamingConfig, TrainJobSpec};
use socflow_cluster::faults::FaultPlan;
use socflow_telemetry::{Event, EventSink};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::Arc;

/// How SoCFlow epochs are priced on the simulated clock. Pricing never
/// touches the learning dynamics: accuracy and α streams are bit-identical
/// across the three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pricing {
    /// The closed-form Eq. 1 sums.
    #[default]
    Eq1,
    /// The event-driven fluid timeline ([`crate::sim`], `--timeline`):
    /// compute spans and CG collectives contend on one simulated clock.
    /// With a sink attached the engine also emits a bounded span digest
    /// and one link-utilization row per epoch.
    Timeline,
    /// The timeline with wait-free gradient bucketing (`--overlap`):
    /// per-bucket CG transfers release as backprop produces them
    /// ([`crate::sim::SyncSchedule::WaitFree`]), bucketed over the trained
    /// network's gradient layout.
    WaitFree {
        /// Minimum bucket size, KiB of reference payload (`--bucket-kb`).
        bucket_kb: NonZeroUsize,
    },
}

impl Pricing {
    /// Wait-free pricing with `kb`-KiB buckets.
    ///
    /// # Panics
    /// Panics if `kb` is zero.
    pub fn wait_free_kb(kb: usize) -> Self {
        let bucket_kb = NonZeroUsize::new(kb).expect("bucket size must be positive");
        Pricing::WaitFree { bucket_kb }
    }
}

/// Durable checkpointing: where snapshots go and when they are taken.
/// Holding one proves the directory was writable when the run was set up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpointing {
    /// The checkpoint directory (`latest.ckpt` lives inside).
    pub(crate) dir: PathBuf,
    /// When snapshots are persisted.
    pub(crate) policy: CheckpointPolicy,
}

impl Checkpointing {
    /// Creates `dir` and proves it writable (by writing and removing the
    /// temp file [`Checkpoint::save`] stages through), so an unusable
    /// directory is an error before any training instead of a failure
    /// after the first epoch.
    ///
    /// # Errors
    /// Returns the I/O error that makes the directory unusable.
    pub fn new(dir: impl Into<PathBuf>, policy: CheckpointPolicy) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let probe = dir.join(format!("{LATEST_FILE}.tmp"));
        std::fs::write(&probe, b"")?;
        std::fs::remove_file(&probe)?;
        Ok(Checkpointing { dir, policy })
    }
}

/// Who picks the parallelization plan — the scheduler's own decision,
/// kept beside the [`RunOptions`] it forwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Plan {
    /// Run the plan the spec and options describe.
    #[default]
    Fixed,
    /// Search the plan space first ([`crate::autotune`], `--auto`) and
    /// adopt the winner: its group count is pinned, the run is priced on
    /// the timeline it was tuned against, and a wait-free winner carries
    /// its bucket size and β source into the engine.
    Auto {
        /// Max candidates priced on the timeline (`--auto-budget`).
        budget: usize,
    },
}

/// Everything about a run that is not the job itself; the defaults are a
/// plain Eq. 1-priced run.
///
/// `pricing`, `streaming`, `faults`, `checkpointing` and `resume` act on
/// the SoCFlow epoch loop only. [`Self::validate`] rejects them on a
/// baseline method rather than letting the baseline ignore them: a run
/// that silently drops a fault plan reports a number that does not mean
/// what its command line says.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// How SoCFlow epochs are priced.
    pub pricing: Pricing,
    /// Telemetry sink. Events are emitted from the coordinating thread, so
    /// traces are deterministic given the seed; the network simulation's
    /// per-transfer records land in the same stream.
    pub sink: Option<Arc<dyn EventSink>>,
    /// Fault timeline, consumed per SoC against the simulated clock at
    /// every epoch boundary: a reclaimed SoC leaves gracefully (checkpoint
    /// taken, no time lost), a crashed one loses its in-flight batch and
    /// the survivors pay a restore stall. Either way the job remaps onto
    /// the surviving topology.
    pub faults: Option<FaultPlan>,
    /// User-workload preemption after this many epochs: SoCFlow gives up
    /// one logical group and continues; baselines stall for a
    /// checkpoint-restore round trip.
    pub preempt_after: Option<usize>,
    /// Durable checkpoints (`None` disables durability entirely).
    pub checkpointing: Option<Checkpointing>,
    /// Continue from a restored checkpoint, bit-exactly: weights, momentum,
    /// learning rates, α, the surviving topology, the simulated clock and
    /// the partial result all come from the snapshot.
    pub resume: Option<Checkpoint>,
    /// Measured β compute-power ratio in `(0, 1)` replacing the calibrated
    /// one (`--profiled-beta`, typically from `bench kernels`). Drives the
    /// mixed-precision controller's initial CPU share and the time model's
    /// NPU batch split.
    pub profiled_beta: Option<f64>,
    /// Live per-SoC streams instead of the static pre-partitioned corpus
    /// (`--streaming`): shards come from a deterministic stream, bounded
    /// ingest buffers settle supply against demand on the simulated clock,
    /// and a short group stalls only itself until the delayed-aggregation
    /// barrier. Stream state is not checkpointed.
    pub streaming: Option<StreamingConfig>,
}

/// Why a ([`TrainJobSpec`], [`RunOptions`], [`Plan`]) triple cannot run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptionsError {
    /// An option only the SoCFlow epoch loop acts on was set for a
    /// baseline method.
    SocflowOnly {
        /// The CLI flag that sets the option.
        flag: &'static str,
        /// Legend name of the job's method.
        method: &'static str,
    },
    /// The requested logical-group count is outside `1..=socs`.
    GroupsOutOfRange {
        /// Requested group count.
        groups: usize,
        /// SoCs the job holds.
        socs: usize,
    },
}

impl std::fmt::Display for OptionsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptionsError::SocflowOnly { flag, method } => write!(
                f,
                "{flag} acts on the SoCFlow epoch loop only (ours | ours-int8 | ours-half); \
                 {method} would ignore it"
            ),
            OptionsError::GroupsOutOfRange { groups, socs } => write!(
                f,
                "--groups must be between 1 and the SoC count ({socs}), got {groups}"
            ),
        }
    }
}

impl std::error::Error for OptionsError {}

/// The one rule for a logical-group count: `1..=socs`. Part of
/// [`RunOptions::validate`]; `plan`, which maps groups without running a
/// job, calls it directly.
///
/// # Errors
/// [`OptionsError::GroupsOutOfRange`] otherwise.
pub fn groups_in_range(groups: usize, socs: usize) -> Result<(), OptionsError> {
    if (1..=socs).contains(&groups) {
        Ok(())
    } else {
        Err(OptionsError::GroupsOutOfRange { groups, socs })
    }
}

impl RunOptions {
    /// The one rule for which options a method accepts: the CLI prints the
    /// error, the scheduler and the engine panic with it.
    ///
    /// Non-[`Pricing::Eq1`] pricing, `streaming`, `faults`, `checkpointing`,
    /// `resume` and [`Plan::Auto`] are rejected on every baseline method,
    /// and a SoCFlow group count must lie in `1..=socs`. The sink,
    /// `profiled_beta` and `preempt_after` are legal everywhere.
    ///
    /// # Errors
    /// Returns the first violated rule.
    pub fn validate(&self, spec: &TrainJobSpec, plan: Plan) -> Result<(), OptionsError> {
        let Some(cfg) = spec.method.socflow() else {
            let socflow_only = [
                (self.pricing == Pricing::Timeline, "--timeline"),
                (
                    matches!(self.pricing, Pricing::WaitFree { .. }),
                    "--overlap",
                ),
                (self.streaming.is_some(), "--streaming"),
                (self.faults.is_some(), "--faults"),
                (self.checkpointing.is_some(), "--checkpoint-dir"),
                (self.resume.is_some(), "--resume"),
                (plan != Plan::Fixed, "--auto (and `tune`)"),
            ];
            let method = spec.method.name();
            return match socflow_only.iter().find(|(set, _)| *set) {
                Some(&(_, flag)) => Err(OptionsError::SocflowOnly { flag, method }),
                None => Ok(()),
            };
        };
        cfg.groups
            .map_or(Ok(()), |groups| groups_in_range(groups, spec.socs))
    }

    /// [`Self::validate`], panicking with the error's message.
    pub(crate) fn assert_valid(&self, spec: &TrainJobSpec, plan: Plan) {
        if let Err(e) = self.validate(spec, plan) {
            panic!("{e}");
        }
    }

    /// Hands `event` to the sink, if there is one.
    pub(crate) fn emit(&self, event: Event) {
        if let Some(sink) = &self.sink {
            sink.emit(&event);
        }
    }

    pub(crate) fn emit_all(&self, events: impl IntoIterator<Item = Event>) {
        events.into_iter().for_each(|e| self.emit(e));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MethodSpec, SocFlowConfig};
    use socflow_data::stream::RateProfile;
    use socflow_data::DatasetPreset;
    use socflow_nn::models::ModelKind;

    fn spec(method: MethodSpec) -> TrainJobSpec {
        let mut s = TrainJobSpec::new(ModelKind::LeNet5, DatasetPreset::FashionMnist, method);
        s.socs = 8;
        s
    }

    fn baselines() -> [MethodSpec; 7] {
        [
            MethodSpec::Local,
            MethodSpec::ParameterServer,
            MethodSpec::Ring,
            MethodSpec::HiPress,
            MethodSpec::TwoDParallel { group_size: 4 },
            MethodSpec::FedAvg,
            MethodSpec::TFedAvg { fanout: 2 },
        ]
    }

    fn socflow_variants() -> [MethodSpec; 4] {
        [
            MethodSpec::SocFlow(SocFlowConfig::with_groups(2)),
            MethodSpec::SocFlowInt8(SocFlowConfig::with_groups(8)),
            MethodSpec::SocFlowHalf(SocFlowConfig::with_groups(1)),
            MethodSpec::SocFlow(SocFlowConfig::full()),
        ]
    }

    /// One `RunOptions` per SoCFlow-only option, with the variant its
    /// rejection must name (by CLI flag).
    fn socflow_only_table() -> Vec<(RunOptions, Plan, &'static str)> {
        let dir = std::env::temp_dir().join("socflow_options_validate_test");
        let with = |f: fn(&mut RunOptions)| {
            let mut o = RunOptions::default();
            f(&mut o);
            o
        };
        let ckpt = RunOptions {
            checkpointing: Some(
                Checkpointing::new(&dir, CheckpointPolicy::default()).expect("temp dir"),
            ),
            ..RunOptions::default()
        };
        std::fs::remove_dir_all(&dir).ok();
        vec![
            (
                with(|o| o.pricing = Pricing::Timeline),
                Plan::Fixed,
                "--timeline",
            ),
            (
                with(|o| o.pricing = Pricing::wait_free_kb(512)),
                Plan::Fixed,
                "--overlap",
            ),
            (
                with(|o| o.streaming = Some(StreamingConfig::new(RateProfile::Uniform))),
                Plan::Fixed,
                "--streaming",
            ),
            (
                with(|o| o.faults = Some(FaultPlan::from_events(Vec::new()))),
                Plan::Fixed,
                "--faults",
            ),
            (ckpt, Plan::Fixed, "--checkpoint-dir"),
            (
                with(|o| o.resume = Some(Checkpoint::new(1, vec![vec![0.0; 4]], 0.5))),
                Plan::Fixed,
                "--resume",
            ),
            (
                RunOptions::default(),
                Plan::Auto { budget: 8 },
                "--auto (and `tune`)",
            ),
        ]
    }

    #[test]
    fn each_socflow_only_option_is_rejected_on_every_baseline() {
        for (options, plan, flag) in socflow_only_table() {
            for method in baselines() {
                assert_eq!(
                    options.validate(&spec(method), plan),
                    Err(OptionsError::SocflowOnly {
                        flag,
                        method: method.name()
                    }),
                    "{flag} on {}",
                    method.name()
                );
            }
            for method in socflow_variants() {
                assert_eq!(
                    options.validate(&spec(method), plan),
                    Ok(()),
                    "{flag} on {}",
                    method.name()
                );
            }
        }
    }

    #[test]
    fn sink_beta_and_preemption_are_legal_everywhere() {
        let options = RunOptions {
            sink: Some(Arc::new(socflow_telemetry::NullSink)),
            preempt_after: Some(1),
            profiled_beta: Some(0.4),
            ..RunOptions::default()
        };
        for method in baselines().into_iter().chain(socflow_variants()) {
            assert_eq!(options.validate(&spec(method), Plan::Fixed), Ok(()));
        }
    }

    #[test]
    fn group_counts_outside_the_cluster_are_rejected() {
        let options = RunOptions::default();
        for (groups, ok) in [(0, false), (1, true), (8, true), (9, false), (99, false)] {
            let variants: [fn(SocFlowConfig) -> MethodSpec; 3] = [
                MethodSpec::SocFlow,
                MethodSpec::SocFlowInt8,
                MethodSpec::SocFlowHalf,
            ];
            for make in variants {
                let got =
                    options.validate(&spec(make(SocFlowConfig::with_groups(groups))), Plan::Fixed);
                let want = if ok {
                    Ok(())
                } else {
                    Err(OptionsError::GroupsOutOfRange { groups, socs: 8 })
                };
                assert_eq!(got, want, "groups {groups}");
            }
        }
    }

    #[test]
    fn messages_name_the_flag_and_the_method() {
        let e = OptionsError::SocflowOnly {
            flag: "--overlap",
            method: "RING",
        };
        let msg = e.to_string();
        assert!(msg.contains("--overlap") && msg.contains("RING"), "{msg}");
        let e = OptionsError::GroupsOutOfRange { groups: 0, socs: 8 };
        assert!(e.to_string().contains("--groups"), "{e}");
    }

    #[test]
    fn checkpointing_rejects_an_unusable_directory_up_front() {
        let err = Checkpointing::new("/proc/nope", CheckpointPolicy::default());
        assert!(err.is_err(), "procfs cannot hold a checkpoint dir");
        let dir = std::env::temp_dir().join("socflow_options_ckpt_test/nested");
        let ok = Checkpointing::new(&dir, CheckpointPolicy::default()).expect("temp dir");
        assert!(dir.is_dir(), "the directory is created up front");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "probe removed");
        assert_eq!(ok.dir, dir);
        std::fs::remove_dir_all(dir.parent().unwrap()).ok();
    }
}
