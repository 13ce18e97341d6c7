//! Deterministic plan-space autotuner over the simulated clock.
//!
//! The paper fixes its parallelization plan — logical-group count, the
//! LG/CG split, one sync schedule — by hand-calibrated heuristics. This
//! module searches that space instead, using the event-driven fluid
//! timeline ([`crate::sim`]) as a cheap cost model, the same move
//! FlexFlow makes with its SOAP-space execution simulator: a strategy
//! search is affordable on a simulator where real hardware would make it
//! prohibitive.
//!
//! ## Search space
//!
//! One [`PlanCandidate`] per point of
//!
//! - **group count** `1..=max_groups` (more groups = fewer iterations
//!   but more sync contention),
//! - **sync schedule** [`SyncSchedule::Serial`] /
//!   [`SyncSchedule::Interleaved`] / [`SyncSchedule::WaitFree`],
//! - **gradient-bucket size** over the log-spaced [`BUCKET_GRID_KB`]
//!   grid (wait-free candidates only — monolithic schedules have no
//!   bucket knob),
//! - **β source** — calibrated vs profiled compute-power ratio, searched
//!   only for mixed-precision jobs when a profiled β is supplied (β
//!   moves the CPU/NPU batch split and with it the compute term).
//!
//! ## Determinism
//!
//! Candidates are enumerated in a fixed order and evaluated in fixed
//! *waves* of [`WAVE`] candidates: each wave fans out over the
//! deterministic worker pool ([`socflow_tensor::runtime::run_scoped`])
//! and is reduced in candidate order, so the incumbent — and therefore
//! every pruning decision — is a pure function of the job spec, never of
//! thread scheduling. The ranked report is bit-identical at any
//! `SOCFLOW_THREADS` setting (property-tested in `tests/properties.rs`).
//!
//! ## Pruning and memoization
//!
//! Before paying for a timeline simulation, each candidate is checked
//! against [`TimeModel::socflow_epoch_lower_bound`] — the Eq. 1 closed
//! forms give `iters × (compute + update)` as a floor no schedule can
//! beat. Candidates whose floor already exceeds the incumbent are cut.
//! Priced candidates land in a process-wide plan-key memo
//! ([`price_plan`]), so repeated pricing of identical topologies — by a
//! second `tune` pass, by [`crate::scheduler::GlobalScheduler::run`]
//! re-adopting the plan, or by the fleet scheduler re-pricing a job on
//! every arrival/shrink/resume — is a hash lookup.

use crate::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
use crate::engine::DEFAULT_GROUPS;
use crate::mapping;
use crate::planning::{divide_or_serialize, CommunicationGroups};
use crate::sim::{simulate_socflow_schedule, SyncSchedule};
use crate::timemodel::TimeModel;
use socflow_cluster::{timeline_stats, ClusterSpec, TimelineStats};
use socflow_data::DatasetPreset;
use socflow_nn::models::ModelKind;
use socflow_nn::GradReady;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// The log-spaced wait-free bucket-size grid, KiB of reference payload
/// (×4 per step). Shared with `bench timeline`'s bucket sweep so the
/// two can never drift.
pub const BUCKET_GRID_KB: &[usize] = &[512, 2048, 8192, 32768];

/// Default cap on timeline evaluations per search (the `--auto-budget`
/// default). Simulation cost grows as the group count shrinks (more
/// iterations per epoch), so the budget mostly trims the expensive
/// low-group tail of the space.
pub const DEFAULT_BUDGET: usize = 64;

/// Fixed evaluation-wave width. Waves are a *determinism* construct, not
/// a throughput knob: pruning decisions only observe the incumbent at
/// wave boundaries, so the boundary placement must not depend on the
/// thread count.
pub const WAVE: usize = 8;

/// One point of the plan search space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCandidate {
    /// Logical-group count.
    pub groups: usize,
    /// Sync schedule the simulator prices.
    pub schedule: SyncSchedule,
    /// Wait-free gradient-bucket size, KiB of reference payload
    /// (`None` for the monolithic schedules).
    pub bucket_kb: Option<usize>,
    /// Profiled β override; `None` prices with the calibrated β.
    pub profiled_beta: Option<f64>,
}

impl PlanCandidate {
    /// The sync-schedule name used in telemetry and reports.
    pub fn schedule_name(&self) -> &'static str {
        match self.schedule {
            SyncSchedule::Serial => "serial",
            SyncSchedule::Interleaved => "interleaved",
            SyncSchedule::WaitFree => "wait-free",
        }
    }
}

/// One priced candidate in a [`TuneReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanChoice {
    /// The candidate plan.
    pub candidate: PlanCandidate,
    /// Predicted epoch time on the simulated clock, seconds.
    pub predicted_s: f64,
    /// The analytic lower bound the candidate was admitted against.
    pub bound_s: f64,
}

/// The ranked result of one plan search.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// Priced candidates, fastest first (ties broken by enumeration
    /// order, so the ranking is deterministic).
    pub ranked: Vec<PlanChoice>,
    /// The default plan the search is measured against: the spec's own
    /// group count (or [`DEFAULT_GROUPS`]) on the interleaved schedule
    /// with the calibrated β.
    pub default_plan: PlanChoice,
    /// Candidates priced on the timeline.
    pub evaluated: usize,
    /// Candidates cut by the analytic lower bound.
    pub pruned: usize,
    /// Candidates left unpriced when the budget ran out.
    pub skipped: usize,
    /// Timeline work this search simulated itself, summed in candidate
    /// order. A candidate answered by the plan memo adds nothing, so a
    /// repeated search reports zeros where everything else is equal.
    pub timeline: TimelineStats,
}

impl TuneReport {
    /// The winning plan — the fastest priced candidate, or the default
    /// plan if nothing priced beat it (the search never returns a plan
    /// predicted slower than the default).
    pub fn best(&self) -> PlanChoice {
        match self.ranked.first() {
            Some(top) if top.predicted_s < self.default_plan.predicted_s => *top,
            _ => self.default_plan,
        }
    }

    /// Predicted default-plan / best-plan epoch-time ratio (≥ 1).
    pub fn speedup(&self) -> f64 {
        let best = self.best().predicted_s;
        if best > 0.0 {
            self.default_plan.predicted_s / best
        } else {
            1.0
        }
    }
}

/// Knobs of one [`autotune`] search.
#[derive(Debug, Clone, Copy, Default)]
pub struct TuneOptions {
    /// Max candidates priced on the timeline (`None` =
    /// [`DEFAULT_BUDGET`]). The default plan is always priced and does
    /// not count against the budget.
    pub budget: Option<usize>,
    /// A profiled β to search *against* the calibrated one (the
    /// `--profiled-beta` value). Ignored for non-mixed jobs.
    pub profiled_beta: Option<f64>,
    /// Cap on the group-count axis (`None` = the job's SoC count).
    pub max_groups: Option<usize>,
}

/// The SoCFlow config of a spec, or a panic for baseline methods — the
/// autotuner searches SoCFlow plans only.
fn socflow_cfg(spec: &TrainJobSpec) -> SocFlowConfig {
    spec.method
        .socflow()
        .unwrap_or_else(|| panic!("autotune on non-SoCFlow method {}", spec.method.name()))
}

/// The CPU share of each batch the engine would run this spec with,
/// given the time model's (possibly overridden) β — mirrors the
/// engine's controller initialization exactly, so tuned predictions
/// price the same split the adopted run will.
fn cpu_fraction_for(spec: &TrainJobSpec, tm: &TimeModel) -> f64 {
    let beta = (tm.compute().beta() as f32).clamp(0.05, 0.95);
    let mut ctrl = crate::mixed::MixedPrecisionController::new(beta);
    match spec.method {
        MethodSpec::SocFlowInt8(_) => 0.0,
        MethodSpec::SocFlowHalf(_) => {
            ctrl.set_alpha(0.7);
            ctrl.cpu_fraction() as f64
        }
        MethodSpec::SocFlow(c) if c.mixed_precision => ctrl.cpu_fraction() as f64,
        _ => 1.0,
    }
}

/// Builds the integrity-greedy mapping + CGs for a group count, with the
/// same silent one-CG-per-group fallback the fleet cost model uses
/// (non-bipartite conflict graphs are possible for ad-hoc mappings; the
/// fallback is correct, just serial).
fn topology_for(spec: &TrainJobSpec, groups: usize) -> (mapping::Mapping, CommunicationGroups) {
    let socs = spec.socs.max(1);
    let groups = groups.clamp(1, socs);
    let mapping = mapping::integrity_greedy(&ClusterSpec::for_socs(socs), socs, groups);
    let (cgs, _) = divide_or_serialize(&mapping);
    (mapping, cgs)
}

/// Memo key of one pricing — every input the priced time depends on,
/// and nothing else (seed, epochs and LR don't move the clock model, so
/// jobs differing only there share entries). A lookup hashes the fields
/// in place and allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PlanKey {
    /// A tuner candidate ([`price_plan`]).
    Tuned {
        model: ModelKind,
        preset: DatasetPreset,
        method: &'static str,
        mixed_precision: bool,
        socs: usize,
        global_batch: usize,
        groups: usize,
        schedule: SyncSchedule,
        bucket_kb: Option<usize>,
        /// Bits of the profiled β, `None` for the calibrated one.
        profiled_beta: Option<u64>,
    },
    /// A fleet epoch ([`crate::fleet::priced_epoch_seconds`]): the fluid
    /// timeline on an integrity-greedy mapping, with the fleet's fixed 0.5
    /// CPU share for `mixed` jobs where the tuner derives the share from β.
    Fleet {
        model: ModelKind,
        preset: DatasetPreset,
        global_batch: usize,
        socs: usize,
        groups: usize,
        mixed: bool,
    },
}

fn plan_key(spec: &TrainJobSpec, cand: &PlanCandidate) -> PlanKey {
    let cfg = socflow_cfg(spec);
    PlanKey::Tuned {
        model: spec.model,
        preset: spec.preset,
        method: spec.method.name(),
        mixed_precision: cfg.mixed_precision,
        socs: spec.socs,
        global_batch: spec.global_batch,
        groups: cand.groups,
        schedule: cand.schedule,
        bucket_kb: cand.bucket_kb,
        profiled_beta: cand.profiled_beta.map(f64::to_bits),
    }
}

fn memo() -> &'static Mutex<HashMap<PlanKey, f64>> {
    static MEMO: OnceLock<Mutex<HashMap<PlanKey, f64>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Looks `key` up in the process-wide plan memo, computing and caching
/// on a miss. `compute` must be a pure function of the key (both this
/// module's pricing and the fleet's [`crate::fleet::priced_epoch_seconds`]
/// are), so concurrent misses on the same key store the same bits and
/// the cache can never change a result.
pub(crate) fn memoized(key: PlanKey, compute: impl FnOnce() -> f64) -> f64 {
    if let Some(&hit) = memo().lock().unwrap().get(&key) {
        return hit;
    }
    let value = compute();
    memo().lock().unwrap().insert(key, value);
    value
}

/// Prices one candidate plan on the simulated clock, bypassing the
/// plan-key memo — the reference [`price_plan`] is property-tested
/// against.
pub fn price_plan_uncached(spec: &TrainJobSpec, layout: &[GradReady], cand: &PlanCandidate) -> f64 {
    let (mapping, cgs) = topology_for(spec, cand.groups);
    let mut tm = TimeModel::new(spec);
    if let Some(beta) = cand.profiled_beta {
        tm.compute_mut().set_profiled_beta(beta);
    }
    if let Some(kb) = cand.bucket_kb {
        tm.set_overlap(kb, layout);
    }
    let cpu_fraction = cpu_fraction_for(spec, &tm);
    simulate_socflow_schedule(&tm, &mapping, &cgs, true, cand.schedule, cpu_fraction)
        .cost
        .time
}

/// Prices one candidate plan, memoized on its plan key. Exact: a hit
/// returns the very bits the uncached pricing computed
/// (`price_plan == price_plan_uncached`, property-tested).
pub fn price_plan(spec: &TrainJobSpec, layout: &[GradReady], cand: &PlanCandidate) -> f64 {
    memoized(plan_key(spec, cand), || {
        price_plan_uncached(spec, layout, cand)
    })
}

/// The analytic admission floor of a candidate (schedule-independent:
/// only the group count and β move it).
fn lower_bound(spec: &TrainJobSpec, groups: usize, profiled_beta: Option<f64>) -> f64 {
    let (mapping, _) = topology_for(spec, groups);
    let mut tm = TimeModel::new(spec);
    if let Some(beta) = profiled_beta {
        tm.compute_mut().set_profiled_beta(beta);
    }
    let cpu_fraction = cpu_fraction_for(spec, &tm);
    tm.socflow_epoch_lower_bound(&mapping, cpu_fraction)
}

/// The default plan [`autotune`] measures candidates against: the
/// spec's own group count (or [`DEFAULT_GROUPS`]) on the interleaved
/// schedule with no bucketing and the calibrated β — exactly what a
/// plain `train` run prices.
pub fn default_candidate(spec: &TrainJobSpec) -> PlanCandidate {
    let cfg = socflow_cfg(spec);
    PlanCandidate {
        groups: cfg
            .groups
            .unwrap_or(DEFAULT_GROUPS)
            .clamp(1, spec.socs.max(1)),
        schedule: SyncSchedule::Interleaved,
        bucket_kb: None,
        profiled_beta: None,
    }
}

/// Enumerates the candidate space in the fixed search order: group
/// counts *descending* (simulation cost grows as the group count
/// shrinks, so cheap candidates run first — the incumbent drops early
/// and the budget trims the expensive tail, not the informative head),
/// then β source, then schedule, then bucket size.
fn enumerate(spec: &TrainJobSpec, opts: &TuneOptions) -> Vec<PlanCandidate> {
    let socs = spec.socs.max(1);
    let max_groups = opts.max_groups.unwrap_or(socs).clamp(1, socs);
    let mixed = cpu_fraction_for(spec, &TimeModel::new(spec)) < 1.0;
    let betas: Vec<Option<f64>> = match opts.profiled_beta {
        Some(b) if mixed => vec![None, Some(b)],
        _ => vec![None],
    };
    let mut out = Vec::new();
    for groups in (1..=max_groups).rev() {
        for &beta in &betas {
            for schedule in [SyncSchedule::Serial, SyncSchedule::Interleaved] {
                out.push(PlanCandidate {
                    groups,
                    schedule,
                    bucket_kb: None,
                    profiled_beta: beta,
                });
            }
            for &kb in BUCKET_GRID_KB {
                out.push(PlanCandidate {
                    groups,
                    schedule: SyncSchedule::WaitFree,
                    bucket_kb: Some(kb),
                    profiled_beta: beta,
                });
            }
        }
    }
    out
}

/// Searches the plan space for `spec` and returns the ranked report.
///
/// `layout` is the trained network's gradient layout
/// ([`socflow_nn::Network::grad_layout`]) — it shapes the wait-free
/// bucket plans exactly as an `--overlap` run would.
///
/// Deterministic by construction (see the module docs): the report is
/// bit-identical across reruns and worker-pool sizes.
///
/// # Panics
/// Panics if the spec's method is not a SoCFlow variant.
pub fn autotune(spec: &TrainJobSpec, layout: &[GradReady], opts: &TuneOptions) -> TuneReport {
    let candidates = enumerate(spec, opts);
    let budget = opts.budget.unwrap_or(DEFAULT_BUDGET).max(1);

    // counters are per thread: each pricing is measured on the thread
    // that runs it
    let measured = |cand: &PlanCandidate| {
        let before = timeline_stats();
        let price = price_plan(spec, layout, cand);
        (price, timeline_stats() - before)
    };
    let default_cand = default_candidate(spec);
    let (default_s, mut timeline) = measured(&default_cand);
    let default_plan = PlanChoice {
        candidate: default_cand,
        predicted_s: default_s,
        bound_s: lower_bound(spec, default_cand.groups, None),
    };

    // Bounds depend on (groups, β) only; compute each pair once.
    let mut bound_of: HashMap<(usize, u64), f64> = HashMap::new();
    let bounds: Vec<f64> = candidates
        .iter()
        .map(|c| {
            let key = (c.groups, c.profiled_beta.unwrap_or(-1.0).to_bits());
            *bound_of
                .entry(key)
                .or_insert_with(|| lower_bound(spec, c.groups, c.profiled_beta))
        })
        .collect();

    let mut ranked: Vec<PlanChoice> = Vec::new();
    let mut incumbent = default_s;
    let mut evaluated = 0usize;
    let mut pruned = 0usize;
    let mut idx = 0usize;
    while idx < candidates.len() && evaluated < budget {
        // Assemble the next wave: fixed width, pruning against the
        // incumbent as of the previous wave boundary.
        let mut wave: Vec<usize> = Vec::new();
        while idx < candidates.len() && wave.len() < WAVE && evaluated + wave.len() < budget {
            if bounds[idx] > incumbent {
                pruned += 1;
            } else {
                wave.push(idx);
            }
            idx += 1;
        }
        if wave.is_empty() {
            continue;
        }
        // Fan the wave out over the worker pool; each job writes its own
        // slot, so the reduction below sees prices in candidate order no
        // matter which thread produced them.
        let mut prices = vec![(0.0, TimelineStats::default()); wave.len()];
        {
            let jobs: Vec<socflow_tensor::runtime::ScopedJob<'_>> = prices
                .iter_mut()
                .zip(&wave)
                .map(|(slot, &ci)| {
                    let cand = candidates[ci];
                    Box::new(move || {
                        *slot = measured(&cand);
                    }) as socflow_tensor::runtime::ScopedJob<'_>
                })
                .collect();
            socflow_tensor::runtime::run_scoped(jobs);
        }
        for (&ci, &(price, work)) in wave.iter().zip(&prices) {
            evaluated += 1;
            timeline += work;
            incumbent = incumbent.min(price);
            ranked.push(PlanChoice {
                candidate: candidates[ci],
                predicted_s: price,
                bound_s: bounds[ci],
            });
        }
    }
    let skipped = candidates.len() - evaluated - pruned;

    // Rank fastest-first; ties keep enumeration order (sort_by is
    // stable), so the report is deterministic even on exact-tie prices.
    ranked.sort_by(|a, b| a.predicted_s.total_cmp(&b.predicted_s));
    TuneReport {
        ranked,
        default_plan,
        evaluated,
        pruned,
        skipped,
        timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainJobSpec;
    use socflow_data::DatasetPreset;
    use socflow_nn::models::{self, ModelConfig, ModelKind};

    fn spec(socs: usize) -> TrainJobSpec {
        let mut s = TrainJobSpec::new(
            ModelKind::Vgg11,
            DatasetPreset::Cifar10,
            MethodSpec::SocFlow(SocFlowConfig::with_groups(4)),
        );
        s.socs = socs;
        s
    }

    fn layout() -> Vec<GradReady> {
        models::grad_layout(&ModelKind::Vgg11.layers(ModelConfig::new(3, 32, 10, 0.25)))
    }

    #[test]
    fn search_never_loses_to_the_default_plan() {
        let s = spec(16);
        let report = autotune(&s, &layout(), &TuneOptions::default());
        assert!(report.best().predicted_s <= report.default_plan.predicted_s);
        assert!(report.speedup() >= 1.0);
        assert!(report.evaluated > 0);
    }

    #[test]
    fn ranked_is_sorted_and_counts_reconcile() {
        let s = spec(12);
        let opts = TuneOptions {
            budget: Some(10),
            ..Default::default()
        };
        let report = autotune(&s, &layout(), &opts);
        assert!(report
            .ranked
            .windows(2)
            .all(|w| w[0].predicted_s <= w[1].predicted_s));
        assert_eq!(report.evaluated, report.ranked.len());
        assert!(report.evaluated <= 10);
        let space = enumerate(&s, &opts).len();
        assert_eq!(space, report.evaluated + report.pruned + report.skipped);
    }

    #[test]
    fn lower_bound_never_exceeds_the_priced_time() {
        let s = spec(12);
        let lay = layout();
        for cand in enumerate(&s, &TuneOptions::default())
            .into_iter()
            .step_by(7)
        {
            let bound = lower_bound(&s, cand.groups, cand.profiled_beta);
            let priced = price_plan_uncached(&s, &lay, &cand);
            assert!(
                bound <= priced + 1e-9,
                "bound {bound} > priced {priced} for {cand:?}"
            );
        }
    }

    #[test]
    fn memoized_pricing_is_exact_and_idempotent() {
        let s = spec(8);
        let lay = layout();
        let cand = PlanCandidate {
            groups: 4,
            schedule: SyncSchedule::WaitFree,
            bucket_kb: Some(2048),
            profiled_beta: None,
        };
        let cold = price_plan(&s, &lay, &cand);
        let warm = price_plan(&s, &lay, &cand);
        let raw = price_plan_uncached(&s, &lay, &cand);
        assert_eq!(cold.to_bits(), warm.to_bits());
        assert_eq!(cold.to_bits(), raw.to_bits());
    }

    #[test]
    fn profiled_beta_axis_only_for_mixed_jobs() {
        let opts = TuneOptions {
            profiled_beta: Some(0.6),
            max_groups: Some(2),
            ..Default::default()
        };
        let mixed = enumerate(&spec(8), &opts);
        assert!(mixed.iter().any(|c| c.profiled_beta.is_some()));
        let mut fp32 = spec(8);
        fp32.method = MethodSpec::SocFlow(SocFlowConfig {
            mixed_precision: false,
            ..SocFlowConfig::with_groups(4)
        });
        let plain = enumerate(&fp32, &opts);
        assert!(plain.iter().all(|c| c.profiled_beta.is_none()));
    }

    #[test]
    #[should_panic(expected = "non-SoCFlow")]
    fn rejects_baseline_methods() {
        let mut s = spec(8);
        s.method = MethodSpec::Ring;
        let _ = autotune(&s, &[], &TuneOptions::default());
    }
}
