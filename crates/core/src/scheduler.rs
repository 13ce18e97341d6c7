//! The global scheduler — the lightweight coordinator that runs on the
//! SoC-Cluster's control board (paper Fig. 5(a)).
//!
//! Ahead of training it (1) picks the logical-group count — empirically or
//! via the first-epoch accuracy heuristic, (2) maps logical groups onto
//! PCBs with integrity-greedy mapping, (3) divides the groups into
//! communication groups, and then (4) dispatches the training job to the
//! engine. It also owns the preemption policy: when user workload returns
//! during training, one logical group is surrendered.

use crate::config::{SocFlowConfig, TrainJobSpec};
use crate::engine::{Engine, Workload};
use crate::grouping::{choose_group_count, GroupChoice};
use crate::mapping::{self, Mapping};
use crate::options::{Plan, Pricing, RunOptions};
use crate::planning::{divide_or_serialize, CommunicationGroups};
use crate::report::RunResult;
use socflow_cluster::ClusterSpec;
use socflow_nn::memory::MemoryEstimate;
use socflow_nn::models::{self, LayerSpec, ModelConfig, ModelKind};
use socflow_telemetry::Event;

/// What the memory estimate reads of a job's network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkShape {
    /// Learnable parameters.
    pub params: usize,
    /// Layers.
    pub layers: usize,
}

impl NetworkShape {
    /// Parameter and layer counts of `model` at geometry `model_cfg`, read
    /// off its layer table ([`ModelKind::layers`]): no weight is
    /// initialised, so it is cheap enough to ask once per job.
    pub fn of(model: ModelKind, model_cfg: ModelConfig) -> Self {
        let table = model.layers(model_cfg);
        NetworkShape {
            params: table.iter().map(LayerSpec::params).sum(),
            layers: table.len(),
        }
    }
}

/// The per-SoC training memory footprint of `spec` and whether it fits
/// the SoC's budget (each Snapdragon 865 has 12 GB shared with the OS and
/// user services): what fleet admission checks before dispatch, read off
/// the job's geometry and its network's counts alone — no sample, no
/// scheduler.
pub fn memory_estimate(
    spec: &TrainJobSpec,
    model_cfg: ModelConfig,
    shape: NetworkShape,
) -> MemoryEstimate {
    let input_elems = model_cfg.in_channels * model_cfg.input_size * model_cfg.input_size;
    socflow_nn::memory::estimate(shape.params, shape.layers, per_soc_batch(spec), input_elems)
}

/// Per-SoC batch share implied by the planned topology. SoCFlow runs each
/// logical group data-parallel over its members (the time model prices
/// `batch / group_size` samples per SoC), so the share is the global batch
/// over the *smallest* planned group — the most loaded SoC. Synchronous
/// baselines divide the batch across all SoCs; local and federated
/// methods train the full batch per participant.
fn per_soc_batch(spec: &TrainJobSpec) -> usize {
    let socs = spec.socs.max(1);
    let groups = match spec.method.socflow() {
        Some(c) => match c.groups {
            Some(g) => g.clamp(1, socs),
            // an unplanned job is admitted against the worst case the
            // warm-up heuristic could pick (one SoC per group, i.e. the
            // full batch) rather than paying probe epochs here
            None => socs,
        },
        // synchronous baselines: one data-parallel world over all SoCs
        None if spec.method.is_fully_synchronous() => 1,
        // local and federated participants train the full batch
        None => return spec.global_batch.max(1),
    };
    let min_group = mapping::group_sizes(socs, groups)
        .into_iter()
        .min()
        .unwrap_or(1)
        .max(1);
    (spec.global_batch.max(1)).div_ceil(min_group)
}

/// The resolved execution plan for a SoCFlow job.
#[derive(Debug, Clone)]
pub struct TopologyPlan {
    /// Chosen logical-group count.
    pub groups: usize,
    /// The warm-up profile, if the heuristic ran.
    pub group_choice: Option<GroupChoice>,
    /// Logical→physical placement.
    pub mapping: Mapping,
    /// Communication groups.
    pub cgs: CommunicationGroups,
}

/// The global scheduler.
#[derive(Debug)]
pub struct GlobalScheduler {
    spec: TrainJobSpec,
    workload: Workload,
    /// How the job runs — forwarded to the [`Engine`] at dispatch, changed
    /// only by an adopted [`Plan::Auto`] winner. Planning and admission
    /// decisions are emitted to its sink too.
    options: RunOptions,
    /// Who picks the parallelization plan.
    plan: Plan,
}

impl GlobalScheduler {
    /// Creates a scheduler for a job. Nothing is checked until
    /// [`Self::run`] or [`Self::tune`] ([`RunOptions::validate`]).
    pub fn new(spec: TrainJobSpec, workload: Workload, options: RunOptions, plan: Plan) -> Self {
        GlobalScheduler {
            spec,
            workload,
            options,
            plan,
        }
    }

    /// Resolves the SoCFlow topology: group count (running the first-epoch
    /// warm-up profiling when the config leaves `groups` unset), mapping
    /// and CG division.
    ///
    /// # Panics
    /// Panics if the job's method is not a SoCFlow variant.
    pub fn plan_topology(&self) -> TopologyPlan {
        let cfg = self
            .spec
            .method
            .socflow()
            .expect("plan_topology on a non-SoCFlow method");
        let (groups, group_choice) = match cfg.groups {
            Some(g) => (g.clamp(1, self.spec.socs), None),
            None => {
                let engine = Engine::new(self.spec, self.workload.clone(), RunOptions::default());
                let choice = choose_group_count(self.spec.socs, |n| engine.first_epoch_accuracy(n));
                (choice.groups, Some(choice))
            }
        };
        let cluster = ClusterSpec::for_socs(self.spec.socs);
        let mapping = mapping::integrity_greedy(&cluster, self.spec.socs, groups);
        // a silent serialized fallback would make the slow sync
        // unexplainable from traces
        let (cgs, fallback) = divide_or_serialize(&mapping);
        if let Some(e) = fallback {
            self.options.emit(Event::CgFallback {
                groups: cgs.len(),
                reason: format!("{e:?}"),
            });
        }
        self.options.emit(Event::PlanComputed {
            groups,
            probes: group_choice.as_ref().map(|c| c.profile.len()).unwrap_or(0),
            cgs: cgs.len(),
        });
        TopologyPlan {
            groups,
            group_choice,
            mapping,
            cgs,
        }
    }

    /// Per-SoC batch share implied by the planned topology (see
    /// [`memory_estimate`]); a resumed job is pinned to its snapshot's.
    pub fn per_soc_batch(&self) -> usize {
        per_soc_batch(&self.resumed_spec())
    }

    /// The job spec with a resumed SoCFlow-variant job's unset group
    /// count pinned to the snapshot's `initial_groups`: re-running the
    /// warm-up heuristic would waste probe epochs and could disagree with
    /// the snapshot's topology.
    fn resumed_spec(&self) -> TrainJobSpec {
        let mut spec = self.spec;
        if let Some(c) = &self.options.resume {
            if spec.method.socflow().is_some_and(unpinned) {
                let groups = c.initial_groups.clamp(1, spec.socs.max(1));
                spec.method = spec.method.pin_groups(groups);
            }
        }
        spec
    }

    /// The job spec the engine will actually run: SoCFlow-variant jobs
    /// with `groups: None` get the group count pinned — from the resume
    /// snapshot's `initial_groups` when resuming, else from
    /// [`Self::plan_topology`].
    pub fn resolved_spec(&self) -> TrainJobSpec {
        let mut spec = self.resumed_spec();
        if spec.method.socflow().is_some_and(unpinned) {
            spec.method = spec.method.pin_groups(self.plan_topology().groups);
        }
        spec
    }

    /// Runs the plan-space search for this job's spec and emits the
    /// telemetry: one [`Event::PlanEvaluated`] per priced candidate (in
    /// ranked order) and a closing [`Event::PlanChosen`]. Does not train —
    /// [`Self::run`] calls this under [`Plan::Auto`], and `socflow-cli
    /// tune` calls it directly for the ranked table. The pricing cap is
    /// [`Plan::Auto`]'s (none under [`Plan::Fixed`]).
    ///
    /// # Panics
    /// Panics with the [`RunOptions::validate`] message if the options do
    /// not fit the job's method, and if that method is not a SoCFlow
    /// variant.
    pub fn tune(&self) -> crate::autotune::TuneReport {
        tune_job(
            &self.spec,
            self.workload.model_cfg,
            &self.options,
            self.plan,
        )
    }

    /// Plans (for SoCFlow methods) and runs the job.
    ///
    /// # Panics
    /// Panics with the [`RunOptions::validate`] message if the options do
    /// not fit the job's method: SoCFlow-only options and [`Plan::Auto`]
    /// are rejected on baselines rather than ignored, and a requested
    /// group count must lie in `1..=socs`.
    pub fn run(mut self) -> RunResult {
        self.options.assert_valid(&self.spec, self.plan);
        if let Plan::Auto { .. } = self.plan {
            // Adopt the winner: pin its group count (the search replaces
            // the warm-up heuristic), price on the timeline it was tuned
            // against, and carry the wait-free bucket only when the
            // winning plan uses one.
            let best = self.tune().best().candidate;
            self.spec.method = self.spec.method.pin_groups(best.groups);
            self.options.pricing = match best.bucket_kb {
                Some(kb) => Pricing::wait_free_kb(kb),
                None => Pricing::Timeline,
            };
        }
        Engine::new(self.resolved_spec(), self.workload, self.options).run()
    }
}

/// Whether a SoCFlow config leaves the group count to the planner.
fn unpinned(c: SocFlowConfig) -> bool {
    c.groups.is_none()
}

/// [`GlobalScheduler::tune`] for a job nobody has built the datasets of:
/// the search reads the model's gradient layout — off its layer table at
/// its geometry ([`Workload::model_config`]) — and not one sample or
/// weight, which is why `socflow-cli tune` calls this and synthesises no
/// corpus.
///
/// # Panics
/// As [`GlobalScheduler::tune`].
pub fn tune_job(
    spec: &TrainJobSpec,
    model_cfg: ModelConfig,
    options: &RunOptions,
    plan: Plan,
) -> crate::autotune::TuneReport {
    options.assert_valid(spec, plan);
    let layout = models::grad_layout(&spec.model.layers(model_cfg));
    let opts = crate::autotune::TuneOptions {
        budget: match plan {
            Plan::Auto { budget } => budget,
            Plan::Fixed => None,
        },
        max_groups: None,
    };
    let report = crate::autotune::autotune(spec, &layout, &opts);
    for choice in &report.ranked {
        options.emit(Event::PlanEvaluated {
            groups: choice.candidate.groups,
            schedule: choice.candidate.schedule_name().to_string(),
            bucket_kb: choice.candidate.bucket_kb.unwrap_or(0),
            predicted_s: choice.predicted_s,
        });
    }
    let best = report.best();
    options.emit(Event::PlanChosen {
        groups: best.candidate.groups,
        schedule: best.candidate.schedule_name().to_string(),
        bucket_kb: best.candidate.bucket_kb.unwrap_or(0),
        predicted_s: best.predicted_s,
        default_s: report.default_plan.predicted_s,
        evaluated: report.evaluated,
        pruned: report.pruned,
        skipped: report.skipped,
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use crate::config::{Arms, MethodSpec, SocFlowConfig, StreamingConfig};
    use socflow_data::DatasetPreset;

    fn spec(method: MethodSpec) -> TrainJobSpec {
        let mut s = TrainJobSpec::new(ModelKind::LeNet5, DatasetPreset::FashionMnist, method);
        s.socs = 8;
        s.epochs = 2;
        s.global_batch = 32;
        s
    }

    /// `tune_job` plans and `memory_estimate` admits from the geometry
    /// alone: on every preset it is the geometry the generated workload
    /// ends up with, the search it drives ranks as the scheduler's own,
    /// and the memory gate reads as the scheduler's on every fleet job
    /// shape.
    #[test]
    fn tuning_needs_the_geometry_and_no_sample() {
        let method = MethodSpec::SocFlow(SocFlowConfig::full());
        for preset in DatasetPreset::ALL {
            let mut s = spec(method);
            s.preset = preset;
            let built = Workload::standard(&s, 64, 8, 0.5).model_cfg;
            assert_eq!(Workload::model_config(&s, 8, 0.5), built, "{preset}");
        }
        for preset in DatasetPreset::ALL {
            for model in [
                ModelKind::Vgg11,
                ModelKind::ResNet18,
                ModelKind::MobileNetV1,
            ] {
                let mut s = TrainJobSpec::new(model, preset, method);
                let geometry = Workload::model_config(&s, 8, 0.5);
                let shape = NetworkShape::of(s.model, geometry);
                for arms in [Arms::Mixed, Arms::Int8, Arms::Half] {
                    for ask in [16, 24, 32] {
                        s.method = MethodSpec::SocFlow(SocFlowConfig {
                            arms,
                            ..SocFlowConfig::with_groups(ask / 4)
                        });
                        s.socs = ask;
                        s.global_batch = 64;
                        let built = Workload::standard(&s, 64, 8, 0.5).model_cfg;
                        let from_built = NetworkShape::of(s.model, built);
                        assert_eq!(
                            memory_estimate(&s, geometry, shape),
                            memory_estimate(&s, built, from_built),
                            "{preset} {model:?} {} x{ask}",
                            s.method.name()
                        );
                    }
                }
            }
        }
        let s = spec(method);
        let plan = Plan::Auto { budget: None };
        let sched = GlobalScheduler::new(
            s,
            Workload::standard(&s, 64, 8, 0.5),
            RunOptions::default(),
            plan,
        );
        let geometry = Workload::model_config(&s, 8, 0.5);
        let (a, b) = (
            sched.tune(),
            tune_job(&s, geometry, &RunOptions::default(), plan),
        );
        let ranks = |r: &crate::autotune::TuneReport| -> Vec<(usize, u64)> {
            let key =
                |c: &crate::autotune::PlanChoice| (c.candidate.groups, c.predicted_s.to_bits());
            r.ranked.iter().map(key).collect()
        };
        assert_eq!(ranks(&a), ranks(&b));
    }

    #[test]
    fn plans_fixed_group_count() {
        let s = spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(4)));
        let w = Workload::standard(&s, 128, 8, 0.5);
        let plan = GlobalScheduler::new(s, w, RunOptions::default(), Plan::Fixed).plan_topology();
        assert_eq!(plan.groups, 4);
        assert!(plan.group_choice.is_none());
        assert_eq!(plan.mapping.num_groups(), 4);
        assert!(plan.cgs.len() <= 2);
    }

    #[test]
    fn heuristic_plan_profiles_candidates() {
        let s = spec(MethodSpec::SocFlow(SocFlowConfig::full()));
        let w = Workload::standard(&s, 128, 8, 0.5);
        let plan = GlobalScheduler::new(s, w, RunOptions::default(), Plan::Fixed).plan_topology();
        let choice = plan.group_choice.expect("heuristic must run");
        assert!(!choice.profile.is_empty());
        assert!(plan.groups >= 1 && plan.groups <= 8);
    }

    #[test]
    fn scheduler_runs_end_to_end() {
        let s = spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(2)));
        let w = Workload::standard(&s, 128, 8, 0.5);
        let r = GlobalScheduler::new(s, w, RunOptions::default(), Plan::Fixed).run();
        assert_eq!(r.epoch_accuracy.len(), 2);
    }

    #[test]
    fn scheduler_forwards_streaming_to_the_engine() {
        use socflow_data::stream::RateProfile;
        let s = spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(2)));
        let w = Workload::standard(&s, 128, 8, 0.5);
        let sink = std::sync::Arc::new(socflow_telemetry::MemorySink::new());
        let r = GlobalScheduler::new(
            s,
            w,
            RunOptions {
                sink: Some(sink.clone()),
                streaming: Some(StreamingConfig::new(RateProfile::Heterogeneous)),
                ..RunOptions::default()
            },
            Plan::Fixed,
        )
        .run();
        assert_eq!(r.epoch_accuracy.len(), 2);
        // the hetero profile's spread exceeds the default threshold, so
        // the engine's rate-aware regrouping must have fired
        assert!(sink
            .events()
            .iter()
            .any(|e| matches!(e, Event::RegroupedByRate { .. })));
    }

    #[test]
    fn overlap_run_matches_plain_accuracy() {
        let s = spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(2)));
        let w = Workload::standard(&s, 128, 8, 0.5);
        let plain = GlobalScheduler::new(s, w.clone(), RunOptions::default(), Plan::Fixed).run();
        let overlapped = GlobalScheduler::new(
            s,
            w,
            RunOptions {
                pricing: Pricing::wait_free_kb(32),
                ..RunOptions::default()
            },
            Plan::Fixed,
        )
        .run();
        assert_eq!(plain.epoch_accuracy, overlapped.epoch_accuracy);
        assert!(overlapped.total_time() > 0.0);
    }

    #[test]
    fn memory_admission_passes_for_scaled_jobs() {
        let s = spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(2)));
        let w = Workload::standard(&s, 128, 8, 0.5);
        let est = memory_estimate(&s, w.model_cfg, NetworkShape::of(s.model, w.model_cfg));
        assert!(
            est.fits_soc(),
            "scaled jobs must fit: {} bytes",
            est.total()
        );
        assert!(est.total() > 0);
    }

    /// Regression: the memory gate used to hardcode a
    /// `global_batch / 4` per-SoC share. A 60-SoC single-group job actually
    /// spreads the batch over 60 members, so the old estimate overpriced
    /// activations ~15x and could refuse admission to jobs that fit.
    #[test]
    fn memory_check_follows_the_planned_topology() {
        use rand::SeedableRng;
        let mut s = spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(1)));
        s.socs = 60;
        s.global_batch = 240;
        let w = Workload::standard(&s, 128, 8, 0.5);
        let sched = GlobalScheduler::new(s, w.clone(), RunOptions::default(), Plan::Fixed);
        assert_eq!(
            sched.per_soc_batch(),
            4,
            "240 samples over one 60-SoC group"
        );
        let est = memory_estimate(&s, w.model_cfg, NetworkShape::of(s.model, w.model_cfg));

        let mut rng = rand::rngs::StdRng::seed_from_u64(s.seed);
        let net = s.model.build(w.model_cfg, &mut rng);
        let cfg = w.model_cfg;
        let input_elems = cfg.in_channels * cfg.input_size * cfg.input_size;
        let of = |batch| {
            socflow_nn::memory::estimate(
                net.param_count(),
                net.grad_layout().len(),
                batch,
                input_elems,
            )
        };
        let (expected, old) = (of(4), of(240 / 4));
        assert_eq!(est.total(), expected.total());
        assert!(
            old.total() > 2 * est.total(),
            "old hardcoded share overestimated: {} vs {}",
            old.total(),
            est.total()
        );
    }

    #[test]
    fn per_soc_batch_by_method() {
        let mk = |method| {
            let mut s = spec(method);
            s.socs = 8;
            s.global_batch = 64;
            let w = Workload::standard(&s, 128, 8, 0.5);
            GlobalScheduler::new(s, w, RunOptions::default(), Plan::Fixed)
        };
        // 2 groups of 4 SoCs: 64 / 4 = 16 per SoC
        assert_eq!(
            mk(MethodSpec::SocFlow(SocFlowConfig::with_groups(2))).per_soc_batch(),
            16
        );
        assert_eq!(
            mk(MethodSpec::SocFlow(SocFlowConfig {
                arms: Arms::Int8,
                ..SocFlowConfig::with_groups(8)
            }))
            .per_soc_batch(),
            64
        );
        // unplanned jobs are admitted against the heuristic's worst case
        assert_eq!(
            mk(MethodSpec::SocFlow(SocFlowConfig::full())).per_soc_batch(),
            64
        );
        // synchronous baselines divide across the whole cluster
        assert_eq!(mk(MethodSpec::Ring).per_soc_batch(), 8);
        // local / federated participants train the full batch
        assert_eq!(mk(MethodSpec::Local).per_soc_batch(), 64);
        assert_eq!(mk(MethodSpec::FedAvg).per_soc_batch(), 64);
    }

    /// Regression: resumed INT8 and Half jobs with `groups: None` used to
    /// fall through `_ => self.spec`, skipping the snapshot's
    /// `initial_groups` pin (the engine would then run its default group
    /// count instead of the topology the job started with).
    #[test]
    fn resume_pins_groups_for_every_socflow_variant() {
        let mut ckpt = Checkpoint::new(1, vec![vec![0.0; 4]; 3], 0.8);
        ckpt.initial_groups = 3;
        for arms in [Arms::Mixed, Arms::Fp32, Arms::Int8, Arms::Half] {
            let s = spec(MethodSpec::SocFlow(SocFlowConfig {
                arms,
                ..SocFlowConfig::full()
            }));
            let w = Workload::standard(&s, 128, 8, 0.5);
            let resolved = GlobalScheduler::new(
                s,
                w,
                RunOptions {
                    resume: Some(ckpt.clone()),
                    ..RunOptions::default()
                },
                Plan::Fixed,
            )
            .resolved_spec();
            let got = resolved.method.socflow().expect("still SoCFlow");
            assert_eq!(got.groups, Some(3), "{arms:?}");
            assert_eq!(got.arms, arms, "pinning must not change the arms");
        }
    }

    #[test]
    fn autotuned_run_adopts_a_plan_and_reports_it() {
        let s = spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(4)));
        let w = Workload::standard(&s, 128, 8, 0.5);
        let sink = std::sync::Arc::new(socflow_telemetry::MemorySink::new());
        let r = GlobalScheduler::new(
            s,
            w,
            RunOptions {
                sink: Some(sink.clone()),
                ..RunOptions::default()
            },
            Plan::Auto { budget: Some(8) },
        )
        .run();
        assert_eq!(r.epoch_accuracy.len(), 2);
        assert!(r.total_time() > 0.0);
        let events = sink.events();
        let evaluated = events
            .iter()
            .filter(|e| matches!(e, Event::PlanEvaluated { .. }))
            .count();
        assert!((1..=8).contains(&evaluated));
        let chosen = events
            .iter()
            .find_map(|e| match e {
                Event::PlanChosen {
                    groups,
                    predicted_s,
                    default_s,
                    ..
                } => Some((*groups, *predicted_s, *default_s)),
                _ => None,
            })
            .expect("PlanChosen must be emitted");
        assert!(chosen.0 >= 1 && chosen.0 <= 8);
        assert!(
            chosen.1 <= chosen.2,
            "never adopt a plan slower than default"
        );
    }

    #[test]
    fn autotuned_accuracy_matches_the_untuned_run() {
        // The tuner only moves the simulated clock: training math is a
        // function of (spec, seed, groups), so a tuned run that lands on
        // the same group count must reproduce accuracy bit-for-bit.
        let s = spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(2)));
        let w = Workload::standard(&s, 128, 8, 0.5);
        let plain = GlobalScheduler::new(s, w.clone(), RunOptions::default(), Plan::Fixed).run();
        let sched = GlobalScheduler::new(s, w, RunOptions::default(), Plan::Auto { budget: None });
        let report = sched.tune();
        let tuned = sched.run();
        if report.best().candidate.groups == 2 {
            assert_eq!(plain.epoch_accuracy, tuned.epoch_accuracy);
        }
        assert_eq!(tuned.epoch_accuracy.len(), 2);
    }

    #[test]
    #[should_panic(expected = "non-SoCFlow")]
    fn plan_rejects_baselines() {
        let s = spec(MethodSpec::Ring);
        let w = Workload::standard(&s, 128, 8, 0.5);
        let _ = GlobalScheduler::new(s, w, RunOptions::default(), Plan::Fixed).plan_topology();
    }
}
