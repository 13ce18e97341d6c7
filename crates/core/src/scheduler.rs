//! The global scheduler — the lightweight coordinator that runs on the
//! SoC-Cluster's control board (paper Fig. 5(a)).
//!
//! Ahead of training it (1) picks the logical-group count — empirically or
//! via the first-epoch accuracy heuristic, (2) maps logical groups onto
//! PCBs with integrity-greedy mapping, (3) divides the groups into
//! communication groups, and then (4) dispatches the training job to the
//! engine. It also owns the preemption policy: when user workload returns
//! during training, one logical group is surrendered.

use crate::checkpoint::{Checkpoint, CheckpointPolicy};
use crate::config::{MethodSpec, SocFlowConfig, StreamingConfig, TrainJobSpec};
use crate::engine::{Engine, Workload};
use crate::grouping::{choose_group_count, GroupChoice};
use crate::mapping::{self, Mapping};
use crate::planning::{divide_communication_groups, CommunicationGroups};
use crate::report::RunResult;
use socflow_cluster::faults::FaultPlan;
use socflow_cluster::ClusterSpec;
use socflow_telemetry::{Event, EventSink};
use std::path::PathBuf;
use std::sync::Arc;

/// What the memory estimate reads of a job's network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkShape {
    /// Learnable parameters.
    pub params: usize,
    /// Layers.
    pub layers: usize,
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
pub struct GlobalScheduler {
    spec: TrainJobSpec,
    workload: Workload,
    sink: Option<Arc<dyn EventSink>>,
    fault_plan: Option<FaultPlan>,
    ckpt_dir: Option<PathBuf>,
    ckpt_policy: CheckpointPolicy,
    resume: Option<Checkpoint>,
    timeline: bool,
    overlap: bool,
    bucket_kb: Option<usize>,
    profiled_beta: Option<f64>,
    streaming: Option<StreamingConfig>,
    autotune: bool,
    auto_budget: Option<usize>,
}

impl std::fmt::Debug for GlobalScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalScheduler")
            .field("spec", &self.spec)
            .field("workload", &self.workload)
            .field("sink", &self.sink.as_ref().map(|_| "EventSink"))
            .field("fault_plan", &self.fault_plan)
            .field("ckpt_dir", &self.ckpt_dir)
            .field("ckpt_policy", &self.ckpt_policy)
            .field("resume", &self.resume.as_ref().map(|c| c.epoch))
            .field("timeline", &self.timeline)
            .field("overlap", &self.overlap)
            .field("bucket_kb", &self.bucket_kb)
            .field("profiled_beta", &self.profiled_beta)
            .field("streaming", &self.streaming)
            .field("autotune", &self.autotune)
            .field("auto_budget", &self.auto_budget)
            .finish()
    }
}

impl GlobalScheduler {
    /// Creates a scheduler for a job.
    pub fn new(spec: TrainJobSpec, workload: Workload) -> Self {
        GlobalScheduler {
            spec,
            workload,
            sink: None,
            fault_plan: None,
            ckpt_dir: None,
            ckpt_policy: CheckpointPolicy::default(),
            resume: None,
            timeline: false,
            overlap: false,
            bucket_kb: None,
            profiled_beta: None,
            streaming: None,
            autotune: false,
            auto_budget: None,
        }
    }

    /// Runs the plan-space autotuner ([`crate::autotune`]) before dispatch
    /// (the `--auto` CLI flag) and adopts the winning plan: the tuned group
    /// count is pinned (replacing the first-epoch warm-up heuristic), the
    /// fluid timeline is switched on, and a wait-free winner carries its
    /// bucket size and β source into the engine. `budget` caps the number
    /// of candidates priced ([`crate::autotune::DEFAULT_BUDGET`] when
    /// `None`).
    pub fn with_autotune(mut self, budget: Option<usize>) -> Self {
        self.autotune = true;
        self.auto_budget = budget;
        self
    }

    /// Switches ingestion to live per-SoC streams (the `--streaming` CLI
    /// flag; see [`Engine::with_streaming`]), forwarded to the [`Engine`]
    /// at dispatch. SoCFlow methods only; baselines ignore it.
    pub fn with_streaming(mut self, cfg: StreamingConfig) -> Self {
        self.streaming = Some(cfg);
        self
    }

    /// Overrides the calibrated β compute-power ratio with a measured value
    /// (the `--profiled-beta` CLI flag; see [`Engine::with_profiled_beta`]),
    /// forwarded to the [`Engine`] at dispatch.
    pub fn with_profiled_beta(mut self, beta: f64) -> Self {
        self.profiled_beta = Some(beta);
        self
    }

    /// Prices SoCFlow epochs with the event-driven fluid timeline instead
    /// of the closed-form sums (the `--timeline` CLI flag), forwarded to
    /// the [`Engine`] at dispatch.
    pub fn with_timeline(mut self, on: bool) -> Self {
        self.timeline = on;
        self
    }

    /// Overlaps per-bucket gradient transfers with backprop on the fluid
    /// timeline (the `--overlap` CLI flag; see [`Engine::with_overlap`]),
    /// forwarded to the [`Engine`] at dispatch. Implies the timeline.
    pub fn with_overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }

    /// Sets the minimum gradient-bucket size in KiB (the `--bucket-kb`
    /// CLI flag; see [`Engine::with_bucket_kb`]), forwarded to the
    /// [`Engine`] at dispatch.
    pub fn with_bucket_kb(mut self, kb: usize) -> Self {
        self.bucket_kb = Some(kb);
        self
    }

    /// Attaches a telemetry sink. Planning and admission decisions are
    /// emitted here; the sink is forwarded to the [`Engine`] at dispatch.
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attaches a fault timeline, forwarded to the [`Engine`] at dispatch.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables durable checkpointing under `dir` per `policy`.
    pub fn with_checkpointing(mut self, dir: PathBuf, policy: CheckpointPolicy) -> Self {
        self.ckpt_dir = Some(dir);
        self.ckpt_policy = policy;
        self
    }

    /// Continues from a restored checkpoint: the group-count warm-up
    /// heuristic is skipped (the snapshot pins the group count the job
    /// started with) and the engine resumes bit-exactly.
    pub fn with_resume(mut self, ckpt: Checkpoint) -> Self {
        self.resume = Some(ckpt);
        self
    }

    fn emit(&self, event: Event) {
        if let Some(sink) = &self.sink {
            sink.emit(&event);
        }
    }

    /// Resolves the SoCFlow topology: group count (running the first-epoch
    /// warm-up profiling when the config leaves `groups` unset), mapping
    /// and CG division.
    ///
    /// # Panics
    /// Panics if the job's method is not a SoCFlow variant.
    pub fn plan_topology(&self) -> TopologyPlan {
        let cfg = match self.spec.method {
            MethodSpec::SocFlow(c) | MethodSpec::SocFlowInt8(c) | MethodSpec::SocFlowHalf(c) => c,
            other => panic!("plan_topology on non-SoCFlow method {}", other.name()),
        };
        let (groups, group_choice) = match cfg.groups {
            Some(g) => (g.clamp(1, self.spec.socs), None),
            None => {
                let engine = Engine::new(self.spec, self.workload.clone());
                let choice = choose_group_count(self.spec.socs, 0.15, 0.5, |n| {
                    engine.first_epoch_accuracy(n)
                });
                (choice.groups, Some(choice))
            }
        };
        let cluster = ClusterSpec::for_socs(self.spec.socs);
        let mapping = match cfg.mapping {
            crate::config::MappingMode::IntegrityGreedy => {
                mapping::integrity_greedy(&cluster, self.spec.socs, groups)
            }
            crate::config::MappingMode::Sequential => {
                mapping::sequential(&cluster, self.spec.socs, groups)
            }
        };
        let cgs = match divide_communication_groups(&mapping) {
            Ok(cgs) => cgs,
            Err(e) => {
                // Fall back to one CG per logical group (correct, but every
                // group syncs in its own serial slot) and say so: a silent
                // fallback makes the slow sync unexplainable from traces.
                let cgs = CommunicationGroups {
                    cgs: (0..mapping.num_groups())
                        .map(|g| vec![crate::mapping::GroupId(g)])
                        .collect(),
                };
                self.emit(Event::CgFallback {
                    groups: cgs.len(),
                    reason: format!("{e:?}"),
                });
                cgs
            }
        };
        self.emit(Event::PlanComputed {
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

    /// Per-SoC batch share implied by the planned topology. SoCFlow runs
    /// each logical group data-parallel over its members (the time model
    /// prices `batch / group_size` samples per SoC), so the share is the
    /// global batch over the *smallest* planned group — the most loaded
    /// SoC. Synchronous baselines divide the batch across all SoCs; local
    /// and federated methods train the full batch per participant.
    pub fn per_soc_batch(&self) -> usize {
        let socs = self.spec.socs.max(1);
        let groups = match self.spec.method {
            MethodSpec::SocFlow(c) | MethodSpec::SocFlowInt8(c) | MethodSpec::SocFlowHalf(c) => {
                match c.groups {
                    Some(g) => g.clamp(1, socs),
                    // a resumed job is pinned to the snapshot topology; an
                    // unplanned one is admitted against the worst case the
                    // warm-up heuristic could pick (one SoC per group, i.e.
                    // the full batch) rather than paying probe epochs here
                    None => match &self.resume {
                        Some(c) => c.initial_groups.clamp(1, socs),
                        None => socs,
                    },
                }
            }
            MethodSpec::Local | MethodSpec::FedAvg | MethodSpec::TFedAvg { .. } => {
                return self.spec.global_batch.max(1)
            }
            // synchronous baselines: one data-parallel world over all SoCs
            _ => 1,
        };
        let min_group = mapping::group_sizes(socs, groups)
            .into_iter()
            .min()
            .unwrap_or(1)
            .max(1);
        (self.spec.global_batch.max(1)).div_ceil(min_group)
    }

    /// Parameter and layer counts of the network this job trains. Builds
    /// the network to count them, so callers checking many jobs of one
    /// model keep the result ([`Self::check_memory_for`]).
    pub fn network_shape(&self) -> NetworkShape {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.spec.seed);
        let net = self.spec.model.build(self.workload.model_cfg, &mut rng);
        NetworkShape {
            params: net.param_count(),
            layers: net.num_layers(),
        }
    }

    /// Estimates the per-SoC training memory footprint of this job and
    /// whether it fits the SoC's budget — checked before dispatch (each
    /// Snapdragon 865 has 12 GB shared with the OS and user services).
    pub fn check_memory(&self) -> socflow_nn::memory::MemoryEstimate {
        self.check_memory_for(self.network_shape())
    }

    /// [`Self::check_memory`] for a network whose shape is already known.
    pub fn check_memory_for(&self, shape: NetworkShape) -> socflow_nn::memory::MemoryEstimate {
        let cfg = self.workload.model_cfg;
        let input_elems = cfg.in_channels * cfg.input_size * cfg.input_size;
        let est = socflow_nn::memory::estimate_counts(
            shape.params,
            shape.layers,
            self.per_soc_batch(),
            input_elems,
            1,
            2.0,
        );
        self.emit(Event::MemoryChecked {
            bytes: est.total(),
            fits: est.fits_soc(),
        });
        est
    }

    /// The job spec the engine will actually run: SoCFlow-variant jobs
    /// with `groups: None` get the group count pinned — from the resume
    /// snapshot's `initial_groups` when resuming (re-running the warm-up
    /// heuristic would waste probe epochs and could disagree with the
    /// snapshot's topology), else from [`Self::plan_topology`].
    pub fn resolved_spec(&self) -> TrainJobSpec {
        match self.spec.method {
            MethodSpec::SocFlow(cfg)
            | MethodSpec::SocFlowInt8(cfg)
            | MethodSpec::SocFlowHalf(cfg)
                if cfg.groups.is_none() =>
            {
                let groups = match &self.resume {
                    Some(c) => c.initial_groups.clamp(1, self.spec.socs),
                    None => self.plan_topology().groups,
                };
                let pinned = SocFlowConfig {
                    groups: Some(groups),
                    ..cfg
                };
                let mut s = self.spec;
                s.method = match self.spec.method {
                    MethodSpec::SocFlowInt8(_) => MethodSpec::SocFlowInt8(pinned),
                    MethodSpec::SocFlowHalf(_) => MethodSpec::SocFlowHalf(pinned),
                    _ => MethodSpec::SocFlow(pinned),
                };
                s
            }
            _ => self.spec,
        }
    }

    /// Runs the plan-space search for this job's spec and emits the
    /// telemetry: one [`Event::PlanEvaluated`] per priced candidate (in
    /// ranked order) and a closing [`Event::PlanChosen`]. Does not train —
    /// [`Self::run`] calls this when [`Self::with_autotune`] is set, and
    /// `socflow-cli tune` calls it directly for the ranked table.
    ///
    /// # Panics
    /// Panics if the job's method is not a SoCFlow variant.
    pub fn tune(&self) -> crate::autotune::TuneReport {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.spec.seed);
        let net = self.spec.model.build(self.workload.model_cfg, &mut rng);
        let layout = net.grad_layout();
        let opts = crate::autotune::TuneOptions {
            budget: self.auto_budget,
            profiled_beta: self.profiled_beta,
            max_groups: None,
        };
        let report = crate::autotune::autotune(&self.spec, &layout, &opts);
        for choice in &report.ranked {
            self.emit(Event::PlanEvaluated {
                groups: choice.candidate.groups,
                schedule: choice.candidate.schedule_name().to_string(),
                bucket_kb: choice.candidate.bucket_kb.unwrap_or(0),
                profiled_beta: choice.candidate.profiled_beta.is_some(),
                predicted_s: choice.predicted_s,
            });
        }
        let best = report.best();
        self.emit(Event::PlanChosen {
            groups: best.candidate.groups,
            schedule: best.candidate.schedule_name().to_string(),
            bucket_kb: best.candidate.bucket_kb.unwrap_or(0),
            profiled_beta: best.candidate.profiled_beta.is_some(),
            predicted_s: best.predicted_s,
            default_s: report.default_plan.predicted_s,
            evaluated: report.evaluated,
            pruned: report.pruned,
            skipped: report.skipped,
        });
        report
    }

    /// Plans (for SoCFlow methods) and runs the job.
    pub fn run(mut self) -> RunResult {
        if self.autotune {
            let best = self.tune().best();
            // Adopt the winner: pin its group count (the search replaces
            // the warm-up heuristic), price on the timeline it was tuned
            // against, and carry the wait-free bucket / β source only when
            // the winning plan actually uses them.
            let pin = |cfg: SocFlowConfig| SocFlowConfig {
                groups: Some(best.candidate.groups),
                ..cfg
            };
            self.spec.method = match self.spec.method {
                MethodSpec::SocFlow(c) => MethodSpec::SocFlow(pin(c)),
                MethodSpec::SocFlowInt8(c) => MethodSpec::SocFlowInt8(pin(c)),
                MethodSpec::SocFlowHalf(c) => MethodSpec::SocFlowHalf(pin(c)),
                other => other,
            };
            self.timeline = true;
            match best.candidate.bucket_kb {
                Some(kb) => {
                    self.overlap = true;
                    self.bucket_kb = Some(kb);
                }
                None => {
                    self.overlap = false;
                    self.bucket_kb = None;
                }
            }
            self.profiled_beta = best.candidate.profiled_beta;
        }
        let spec = self.resolved_spec();
        let mut engine = Engine::new(spec, self.workload);
        if self.timeline {
            engine = engine.with_timeline(true);
        }
        if self.overlap {
            engine = engine.with_overlap(true);
        }
        if let Some(kb) = self.bucket_kb {
            engine = engine.with_bucket_kb(kb);
        }
        if let Some(sink) = self.sink {
            engine = engine.with_sink(sink);
        }
        if let Some(plan) = self.fault_plan {
            engine = engine.with_fault_plan(plan);
        }
        if let Some(dir) = self.ckpt_dir {
            engine = engine.with_checkpointing(dir, self.ckpt_policy);
        }
        if let Some(ckpt) = self.resume {
            engine = engine.with_resume(ckpt);
        }
        if let Some(beta) = self.profiled_beta {
            engine = engine.with_profiled_beta(beta);
        }
        if let Some(streaming) = self.streaming {
            engine = engine.with_streaming(streaming);
        }
        engine.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socflow_data::DatasetPreset;
    use socflow_nn::models::ModelKind;

    fn spec(method: MethodSpec) -> TrainJobSpec {
        let mut s = TrainJobSpec::new(ModelKind::LeNet5, DatasetPreset::FashionMnist, method);
        s.socs = 8;
        s.epochs = 2;
        s.global_batch = 32;
        s
    }

    #[test]
    fn plans_fixed_group_count() {
        let s = spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(4)));
        let w = Workload::standard(&s, 128, 8, 0.5);
        let plan = GlobalScheduler::new(s, w).plan_topology();
        assert_eq!(plan.groups, 4);
        assert!(plan.group_choice.is_none());
        assert_eq!(plan.mapping.num_groups(), 4);
        assert!(plan.cgs.len() <= 2);
    }

    #[test]
    fn heuristic_plan_profiles_candidates() {
        let s = spec(MethodSpec::SocFlow(SocFlowConfig::full()));
        let w = Workload::standard(&s, 128, 8, 0.5);
        let plan = GlobalScheduler::new(s, w).plan_topology();
        let choice = plan.group_choice.expect("heuristic must run");
        assert!(!choice.profile.is_empty());
        assert!(plan.groups >= 1 && plan.groups <= 8);
    }

    #[test]
    fn scheduler_runs_end_to_end() {
        let s = spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(2)));
        let w = Workload::standard(&s, 128, 8, 0.5);
        let r = GlobalScheduler::new(s, w).run();
        assert_eq!(r.epoch_accuracy.len(), 2);
    }

    #[test]
    fn scheduler_forwards_streaming_to_the_engine() {
        use socflow_data::stream::RateProfile;
        let s = spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(2)));
        let w = Workload::standard(&s, 128, 8, 0.5);
        let sink = std::sync::Arc::new(socflow_telemetry::MemorySink::new());
        let r = GlobalScheduler::new(s, w)
            .with_streaming(StreamingConfig::new(RateProfile::Heterogeneous))
            .with_sink(sink.clone())
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
        let plain = GlobalScheduler::new(s, w.clone()).run();
        let overlapped = GlobalScheduler::new(s, w)
            .with_overlap(true)
            .with_bucket_kb(32)
            .run();
        assert_eq!(plain.epoch_accuracy, overlapped.epoch_accuracy);
        assert!(overlapped.total_time() > 0.0);
    }

    #[test]
    fn profiled_beta_reaches_the_compute_model() {
        let s = spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(2)));
        let w = Workload::standard(&s, 128, 8, 0.5);
        let mut e = Engine::new(s, w).with_profiled_beta(0.42);
        assert_eq!(e.time_model_mut().compute().beta(), 0.42);
    }

    #[test]
    fn memory_admission_passes_for_scaled_jobs() {
        let s = spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(2)));
        let w = Workload::standard(&s, 128, 8, 0.5);
        let est = GlobalScheduler::new(s, w).check_memory();
        assert!(
            est.fits_soc(),
            "scaled jobs must fit: {} bytes",
            est.total()
        );
        assert!(est.total() > 0);
    }

    /// Regression (ISSUE 8): `check_memory` used to hardcode a
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
        let sched = GlobalScheduler::new(s, w.clone());
        assert_eq!(
            sched.per_soc_batch(),
            4,
            "240 samples over one 60-SoC group"
        );
        let est = sched.check_memory();

        let mut rng = rand::rngs::StdRng::seed_from_u64(s.seed);
        let net = s.model.build(w.model_cfg, &mut rng);
        let cfg = w.model_cfg;
        let input_elems = cfg.in_channels * cfg.input_size * cfg.input_size;
        let expected = socflow_nn::memory::estimate(&net, 4, input_elems, 1, 2.0);
        let old = socflow_nn::memory::estimate(&net, 240 / 4, input_elems, 1, 2.0);
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
            GlobalScheduler::new(s, w)
        };
        // 2 groups of 4 SoCs: 64 / 4 = 16 per SoC
        assert_eq!(
            mk(MethodSpec::SocFlow(SocFlowConfig::with_groups(2))).per_soc_batch(),
            16
        );
        assert_eq!(
            mk(MethodSpec::SocFlowInt8(SocFlowConfig::with_groups(8))).per_soc_batch(),
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

    /// Regression (ISSUE 8): resumed `SocFlowInt8`/`SocFlowHalf` jobs with
    /// `groups: None` used to fall through `_ => self.spec`, skipping the
    /// snapshot's `initial_groups` pin (the engine would then run its
    /// default group count instead of the topology the job started with).
    #[test]
    fn resume_pins_groups_for_every_socflow_variant() {
        let mut ckpt = Checkpoint::new(1, vec![vec![0.0; 4]; 3], 0.8);
        ckpt.initial_groups = 3;
        let variants: [fn(SocFlowConfig) -> MethodSpec; 3] = [
            MethodSpec::SocFlow,
            MethodSpec::SocFlowInt8,
            MethodSpec::SocFlowHalf,
        ];
        for make in variants {
            let s = spec(make(SocFlowConfig::full()));
            let w = Workload::standard(&s, 128, 8, 0.5);
            let resolved = GlobalScheduler::new(s, w)
                .with_resume(ckpt.clone())
                .resolved_spec();
            let got = match resolved.method {
                MethodSpec::SocFlow(c)
                | MethodSpec::SocFlowInt8(c)
                | MethodSpec::SocFlowHalf(c) => c.groups,
                other => panic!("variant changed to {other:?}"),
            };
            assert_eq!(got, Some(3), "{:?}", s.method);
            assert_eq!(
                std::mem::discriminant(&resolved.method),
                std::mem::discriminant(&s.method),
                "pinning must not change the method variant"
            );
        }
    }

    #[test]
    fn autotuned_run_adopts_a_plan_and_reports_it() {
        let s = spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(4)));
        let w = Workload::standard(&s, 128, 8, 0.5);
        let sink = std::sync::Arc::new(socflow_telemetry::MemorySink::new());
        let r = GlobalScheduler::new(s, w)
            .with_autotune(Some(8))
            .with_sink(sink.clone())
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
        let plain = GlobalScheduler::new(s, w.clone()).run();
        let sched = GlobalScheduler::new(s, w).with_autotune(Some(16));
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
        let _ = GlobalScheduler::new(s, w).plan_topology();
    }
}
