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
//!   bucket knob).
//!
//! The β compute-power ratio is not an axis: it is a fact about the
//! hardware, an input to the cost model like every device speed, and the
//! search prices every candidate with the calibrated one.
//!
//! ## Best-first search
//!
//! Every candidate has a floor, [`TimeModel::socflow_epoch_lower_bound`]:
//! compute, its CG's sync and the update per iteration, plus the
//! epoch-boundary phases, which no schedule can beat. It depends on the
//! group count only, so it costs no simulation. Candidates are
//! priced in order of their floors; the first floor above the incumbent
//! proves that it and every later candidate lose, so they are pruned.
//! The result is the optimum of the whole space, and on paper-scale
//! spaces the search prices a few percent of it.
//!
//! ## Determinism
//!
//! Candidates are enumerated in a fixed order, sorted by (floor,
//! enumeration index), and priced in fixed *waves* of [`WAVE`]
//! candidates: each wave fans out over the deterministic worker pool
//! ([`socflow_tensor::runtime::run_scoped`]) and is reduced in wave
//! order, so the incumbent — and therefore every pruning decision — is a
//! pure function of the job spec, never of thread scheduling. Equal
//! prices rank by enumeration index, so neither the floor order nor the
//! waves decide a tie. The ranked report is bit-identical at any
//! `SOCFLOW_THREADS` setting (property-tested in `tests/properties.rs`).
//!
//! ## Memoization
//!
//! Priced candidates land in a process-wide plan-key memo
//! ([`price_plan`]), so repeated pricing of identical topologies — by a
//! second `tune` pass, by [`crate::scheduler::GlobalScheduler::run`]
//! re-adopting the plan, or by the fleet scheduler re-pricing a job on
//! every arrival/shrink/resume — is a hash lookup.

use crate::config::{Arms, SocFlowConfig, TrainJobSpec};
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
    /// Always `None`: β is not a plan axis, and no value can be stored
    /// here, so no pricing reads it. Kept only because the benchmark
    /// probe still writes it in its struct literals; it goes together with
    /// [`TimeModel::set_simulated`] in the next benchmark change.
    pub profiled_beta: Option<std::convert::Infallible>,
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
    /// The candidate's floor
    /// ([`TimeModel::socflow_epoch_lower_bound`]), which ordered and
    /// admitted it.
    pub bound_s: f64,
}

/// The ranked result of one plan search.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// Priced candidates, fastest first (ties broken by enumeration
    /// order, so the ranking is deterministic).
    pub ranked: Vec<PlanChoice>,
    /// The default plan the search is measured against: the spec's own
    /// group count (or [`DEFAULT_GROUPS`]) on the interleaved schedule.
    pub default_plan: PlanChoice,
    /// Candidates priced on the timeline.
    pub evaluated: usize,
    /// Candidates whose floor proves they lose to the incumbent.
    pub pruned: usize,
    /// Candidates left unpriced because a [`TuneOptions::budget`] cap ran
    /// out (always 0 without a cap).
    pub skipped: usize,
    /// Timeline work this search simulated itself, summed over the
    /// candidates it priced. A candidate answered by the plan memo adds
    /// nothing, so a repeated search reports zeros where everything else
    /// is equal.
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
    /// Optional cap on candidates priced on the timeline (`None` = price
    /// until the floors prove the rest lose, which returns the optimum of
    /// the space). The default plan is always priced and does not count
    /// against the cap.
    pub budget: Option<usize>,
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

/// The CPU share of each batch a fresh run of this spec starts at, given
/// the time model's β: the engine's own starting controller
/// ([`Arms::controller`]), so tuned predictions price the same split the
/// adopted run will.
fn cpu_fraction_for(spec: &TrainJobSpec, tm: &TimeModel) -> f64 {
    let arms = socflow_cfg(spec).arms;
    arms.cpu_fraction(&arms.controller(tm.compute().beta()))
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
        arms: Arms,
        socs: usize,
        global_batch: usize,
        groups: usize,
        schedule: SyncSchedule,
        bucket_kb: Option<usize>,
    },
    /// A fleet epoch ([`crate::fleet::priced_epoch_seconds`]): the fluid
    /// timeline on an integrity-greedy mapping, with the fleet's fixed 0.5
    /// CPU share for `half` jobs where the tuner derives the share from β.
    Fleet {
        model: ModelKind,
        preset: DatasetPreset,
        global_batch: usize,
        socs: usize,
        groups: usize,
        half: bool,
    },
}

fn plan_key(spec: &TrainJobSpec, cand: &PlanCandidate) -> PlanKey {
    PlanKey::Tuned {
        model: spec.model,
        preset: spec.preset,
        arms: socflow_cfg(spec).arms,
        socs: spec.socs,
        global_batch: spec.global_batch,
        groups: cand.groups,
        schedule: cand.schedule,
        bucket_kb: cand.bucket_kb,
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

/// The floor of a candidate (schedule-independent: only the group count
/// moves it).
fn lower_bound(spec: &TrainJobSpec, groups: usize) -> f64 {
    let (mapping, _) = topology_for(spec, groups);
    let tm = TimeModel::new(spec);
    let cpu_fraction = cpu_fraction_for(spec, &tm);
    tm.socflow_epoch_lower_bound(&mapping, cpu_fraction)
}

/// The default plan [`autotune`] measures candidates against: the
/// spec's own group count (or [`DEFAULT_GROUPS`]) on the interleaved
/// schedule with no bucketing — exactly what a plain `train` run prices.
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

/// Enumerates the candidate space in its fixed order: group counts
/// descending, then schedule, then bucket size. The index
/// in this order breaks ties, between equal floors in the search order
/// and between equal prices in the ranking.
fn enumerate(spec: &TrainJobSpec, opts: &TuneOptions) -> Vec<PlanCandidate> {
    let socs = spec.socs.max(1);
    let max_groups = opts.max_groups.unwrap_or(socs).clamp(1, socs);
    let mut out = Vec::new();
    for groups in (1..=max_groups).rev() {
        for schedule in [SyncSchedule::Serial, SyncSchedule::Interleaved] {
            out.push(PlanCandidate {
                groups,
                schedule,
                bucket_kb: None,
                profiled_beta: None,
            });
        }
        for &kb in BUCKET_GRID_KB {
            out.push(PlanCandidate {
                groups,
                schedule: SyncSchedule::WaitFree,
                bucket_kb: Some(kb),
                profiled_beta: None,
            });
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
    let cap = opts.budget.unwrap_or(usize::MAX).max(1);

    // counters are per thread: each pricing is measured on the thread
    // that runs it
    let measured = |cand: &PlanCandidate| {
        let before = timeline_stats();
        let price = price_plan(spec, layout, cand);
        (price, timeline_stats() - before)
    };
    // Floors depend on the group count only; compute each one once.
    let mut floor_of: HashMap<usize, f64> = HashMap::new();
    let mut floor = |c: &PlanCandidate| {
        *floor_of
            .entry(c.groups)
            .or_insert_with(|| lower_bound(spec, c.groups))
    };
    let default_cand = default_candidate(spec);
    let (default_s, mut timeline) = measured(&default_cand);
    let default_plan = PlanChoice {
        candidate: default_cand,
        predicted_s: default_s,
        bound_s: floor(&default_cand),
    };
    let floors: Vec<f64> = candidates.iter().map(floor).collect();
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| floors[a].total_cmp(&floors[b]).then(a.cmp(&b)));

    // (enumeration index, priced plan), in pricing order
    let mut priced: Vec<(usize, PlanChoice)> = Vec::new();
    let mut incumbent = default_s;
    let mut next = 0usize;
    // A floor above the incumbent proves its candidate, and every later
    // one, loses; the incumbent is read at wave boundaries only.
    let admits =
        |next: usize, incumbent: f64| next < order.len() && floors[order[next]] <= incumbent;
    while admits(next, incumbent) && priced.len() < cap {
        let width = WAVE.min(cap - priced.len());
        let start = next;
        while next - start < width && admits(next, incumbent) {
            next += 1;
        }
        let wave = &order[start..next];
        // Fan the wave out over the worker pool; each job writes its own
        // slot, so the reduction below sees prices in wave order no
        // matter which thread produced them.
        let mut prices = vec![(0.0, TimelineStats::default()); wave.len()];
        {
            let jobs: Vec<socflow_tensor::runtime::ScopedJob<'_>> = prices
                .iter_mut()
                .zip(wave)
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
            timeline += work;
            incumbent = incumbent.min(price);
            priced.push((
                ci,
                PlanChoice {
                    candidate: candidates[ci],
                    predicted_s: price,
                    bound_s: floors[ci],
                },
            ));
        }
    }
    let evaluated = priced.len();
    let rest = order.len() - next;
    // stopped by a floor: the rest are proven losers; by the cap: unknown
    let (pruned, skipped) = if admits(next, incumbent) {
        (0, rest)
    } else {
        (rest, 0)
    };

    // Rank fastest-first, equal prices in enumeration order, so neither
    // the floor order nor the waves decide a tie.
    priced.sort_by(|(ia, a), (ib, b)| a.predicted_s.total_cmp(&b.predicted_s).then(ia.cmp(ib)));
    let ranked: Vec<PlanChoice> = priced.into_iter().map(|(_, c)| c).collect();
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
    use crate::config::{MethodSpec, TrainJobSpec};
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

    /// The floor holds over the tuner's own space: random models,
    /// datasets, SoCFlow variants and cluster sizes, every schedule of a
    /// random group count priced at or above its floor.
    #[test]
    fn lower_bound_never_exceeds_the_priced_time() {
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let presets = [
            DatasetPreset::Cifar10,
            DatasetPreset::CelebA,
            DatasetPreset::FashionMnist,
        ];
        let methods = [Arms::Mixed, Arms::Fp32, Arms::Int8, Arms::Half].map(|arms| {
            MethodSpec::SocFlow(SocFlowConfig {
                arms,
                ..SocFlowConfig::full()
            })
        });
        let mut rng = StdRng::seed_from_u64(0xF100);
        let mut min_slack = f64::INFINITY;
        let mut pricings = 0;
        for _ in 0..40 {
            let model = ModelKind::ALL[rng.gen_range(0..ModelKind::ALL.len())];
            let preset = presets[rng.gen_range(0..presets.len())];
            let mut s = TrainJobSpec::new(model, preset, methods[rng.gen_range(0..methods.len())]);
            s.socs = rng.gen_range(1..=60);
            let geometry = preset.spec();
            let lay = models::grad_layout(&model.layers(ModelConfig::new(
                geometry.channels,
                8,
                geometry.classes,
                0.25,
            )));
            let groups = rng.gen_range(1..=s.socs);
            for cand in enumerate(&s, &TuneOptions::default())
                .into_iter()
                .filter(|c| c.groups == groups)
            {
                let floor = lower_bound(&s, groups);
                let priced = price_plan_uncached(&s, &lay, &cand);
                assert!(
                    floor <= priced,
                    "floor {floor} > priced {priced} for {cand:?} of {model} on {preset}, {} over {} SoCs",
                    s.method.name(),
                    s.socs
                );
                min_slack = min_slack.min((priced - floor) / priced);
                pricings += 1;
            }
        }
        println!("{pricings} pricings, min relative slack {min_slack:e}");
    }

    /// The search returns what pricing the whole space returns, bit for
    /// bit, on every arm of `bench autotune --fast` (20 SoCs, hand-set 7
    /// groups): the floors only ever prune losers.
    #[test]
    fn best_first_search_equals_exhaustive_pricing() {
        let arms = [
            (ModelKind::Vgg11, 0.22),
            (ModelKind::ResNet18, 0.18),
            (ModelKind::MobileNetV1, 0.22),
        ];
        for (model, width) in arms {
            let mut s = TrainJobSpec::new(
                model,
                DatasetPreset::Cifar10,
                MethodSpec::SocFlow(SocFlowConfig::with_groups(7)),
            );
            s.socs = 20;
            let lay = models::grad_layout(&model.layers(ModelConfig::new(3, 32, 10, width)));
            let opts = TuneOptions::default();
            let report = autotune(&s, &lay, &opts);
            let space = enumerate(&s, &opts);
            assert_eq!(report.evaluated + report.pruned, space.len(), "{model}");
            assert_eq!(report.skipped, 0, "{model}");

            // the fastest candidate, equal prices in enumeration order,
            // and the default plan unless something beats it
            let mut best = report.default_plan.candidate;
            let mut best_s = report.default_plan.predicted_s;
            let mut top: Option<(PlanCandidate, f64)> = None;
            for cand in space {
                let price = price_plan_uncached(&s, &lay, &cand);
                if top.is_none_or(|(_, t)| price < t) {
                    top = Some((cand, price));
                }
            }
            if let Some((cand, price)) = top.filter(|&(_, t)| t < best_s) {
                (best, best_s) = (cand, price);
            }
            assert_eq!(report.best().candidate, best, "{model}");
            assert_eq!(
                report.best().predicted_s.to_bits(),
                best_s.to_bits(),
                "{model}"
            );
        }
    }

    /// In `tune --model resnet18 --socs 60`'s space, 12 groups interleaved
    /// and 12 groups wait-free at 32768 KiB price to the same bits. The
    /// plan enumerated first wins the tie: neither the floor order nor the
    /// wave a candidate is priced in may decide it.
    #[test]
    fn a_price_tie_goes_to_the_earlier_enumerated_plan() {
        let mut s = TrainJobSpec::new(
            ModelKind::ResNet18,
            DatasetPreset::Cifar10,
            MethodSpec::SocFlow(SocFlowConfig::full()),
        );
        s.socs = 60;
        let lay = models::grad_layout(
            &s.model
                .layers(crate::engine::Workload::model_config(&s, 8, 0.18)),
        );
        let plan = |schedule, bucket_kb| PlanCandidate {
            groups: 12,
            schedule,
            bucket_kb,
            profiled_beta: None,
        };
        let interleaved = plan(SyncSchedule::Interleaved, None);
        let wait_free = plan(SyncSchedule::WaitFree, Some(32768));
        assert_eq!(
            price_plan(&s, &lay, &interleaved).to_bits(),
            price_plan(&s, &lay, &wait_free).to_bits()
        );
        let report = autotune(&s, &lay, &TuneOptions::default());
        let top: Vec<PlanCandidate> = report.ranked[..2].iter().map(|c| c.candidate).collect();
        assert_eq!(top, [interleaved, wait_free]);
        assert_eq!(report.best().candidate, interleaved);
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

    /// Group count, schedule and bucket size are the whole space, for a
    /// mixed-precision job and an FP32 one alike.
    #[test]
    fn mixed_and_fp32_jobs_enumerate_the_same_space() {
        let opts = TuneOptions {
            max_groups: Some(3),
            ..Default::default()
        };
        let mut fp32 = spec(8);
        fp32.method = MethodSpec::SocFlow(SocFlowConfig {
            arms: Arms::Fp32,
            ..SocFlowConfig::with_groups(4)
        });
        for job in [spec(8), fp32] {
            assert_eq!(
                enumerate(&job, &opts).len(),
                3 * (2 + BUCKET_GRID_KB.len()),
                "{}",
                job.method.name()
            );
        }
    }

    /// The split a run starts at, per arm: INT8 none on the CPU, FP32
    /// all, Half `max(e^-0.7, 1-β)`, Mixed `max(e^-1, 1-β)` at a fresh
    /// α = 1. The tuner prices the very split the engine starts with.
    #[test]
    fn each_arm_starts_at_its_paper_split() {
        let mut s = spec(8);
        let tm = TimeModel::new(&s);
        let beta = (tm.compute().beta() as f32).clamp(0.05, 0.95);
        let at = |alpha: f32| (-alpha).exp().max(1.0 - beta) as f64;
        for (arms, share) in [
            (Arms::Int8, 0.0),
            (Arms::Fp32, 1.0),
            (Arms::Half, at(0.7)),
            (Arms::Mixed, at(1.0)),
        ] {
            s.method = MethodSpec::SocFlow(SocFlowConfig {
                arms,
                ..SocFlowConfig::with_groups(4)
            });
            let ctrl = arms.controller(tm.compute().beta());
            assert_eq!(
                arms.cpu_fraction(&ctrl).to_bits(),
                share.to_bits(),
                "{arms:?}"
            );
            assert_eq!(
                cpu_fraction_for(&s, &tm).to_bits(),
                share.to_bits(),
                "{arms:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-SoCFlow")]
    fn rejects_baseline_methods() {
        let mut s = spec(8);
        s.method = MethodSpec::Ring;
        let _ = autotune(&s, &[], &TuneOptions::default());
    }
}
