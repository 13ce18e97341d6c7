//! Multi-tenant fleet scheduling: N servers × M concurrent jobs on
//! tidal-idle capacity.
//!
//! Everything below `fleet` trains one job on one SoC-Cluster. The
//! paper's deployment story (§1, Fig. 3) is a *fleet*: tens of servers
//! whose SoCs serve user traffic by day and idle by night, with many
//! training jobs competing for the harvested cycles. This module packs
//! that picture onto the existing machinery:
//!
//! - **arrivals** are a deterministic trace — seeded Poisson
//!   inter-arrival times ([`sample_poisson_arrivals`]) over a small job
//!   mix ([`standard_job_mix`]);
//! - **admission** gates each arrival on the scheduler's per-SoC memory
//!   estimate ([`memory_estimate`]), read off the job's geometry and its
//!   model's layer table (no sample is synthesised, no weight
//!   initialised), and places queued jobs on [`TidalTrace`] idle runs:
//!   the `Tidal` policy only on SoCs that stay idle through the job's
//!   estimated runtime (capped at 6 h), the naive `Fifo` baseline on
//!   whatever is idle *right now*. Servers that cannot have that many
//!   such SoCs free are passed over by an index, unscanned;
//! - **placement** packs jobs onto servers and SoC subsets in priority
//!   order with elastic capacity sharing: when user load takes some of a
//!   running job's SoCs back, the job shrinks onto the survivors and its
//!   epochs are re-priced over the smaller topology;
//! - **preemption** models the PR-3 checkpoint/reclaim machinery: a job
//!   squeezed below its SoC floor checkpoints at the last epoch boundary
//!   (the partial epoch is lost), re-queues, and pays a restore stall
//!   when re-admitted. `tests/checkpoint_preemption.rs` maps the same
//!   tidal transitions onto an engine fault plan, so a *real* training
//!   run preempted by the trace resumes bit-exactly.
//!
//! Epochs are priced with [`TimeModel`] in simulated mode, i.e. on the
//! event-driven fluid timeline — the FlexFlow-style "simulator as cost
//! model" trick that makes fleet-scale what-ifs cheap. A run's cold
//! full-ask prices go to the worker pool as one wave before the clock
//! starts. The fleet clock ticks in tidal hours, but a run pays for
//! events, not for hours × jobs: arrivals come off a cursor in arrival
//! order, each running job sleeps until the hour the tide first takes
//! one of its SoCs back, admission searches a per-hour index of the
//! servers once per placement and once per queue class, and a day with
//! nothing running, placed or arriving ends admission until the next
//! arrival. Only the soc-hour integrals are still added hour by hour, in
//! their original order. The hourly loop this replaced is kept as the
//! test oracle (`fleet/hourly.rs`). The simulation is byte-deterministic:
//! same seeds, same report, at any host thread count.

use crate::autotune::PlanKey;
use crate::config::{Arms, MethodSpec, SocFlowConfig, TrainJobSpec};
use crate::engine::Workload;
use crate::planning::topology;
use crate::scheduler::{memory_estimate, NetworkShape};
use crate::timemodel::TimeModel;
use serde::Serialize;
use socflow_cluster::tidal::TidalTrace;
use socflow_cluster::{Seconds, SocId};
use socflow_data::DatasetPreset;
use socflow_nn::models::ModelKind;
use socflow_telemetry::{Event, EventSink};
use socflow_tensor::runtime::ScopedJob;
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;

/// How the fleet admits and places queued jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FleetPolicy {
    /// Naive baseline: first-come first-served onto whatever SoCs are
    /// idle at the current hour, ignoring priorities and where the tide
    /// is heading.
    Fifo,
    /// The fleet policy: priority-ordered admission onto SoCs whose idle
    /// window covers the job's estimated runtime, so returning user load
    /// rarely catches a job mid-flight.
    Tidal,
}

impl FleetPolicy {
    /// Lower-case policy name (CLI/JSON spelling).
    pub fn name(&self) -> &'static str {
        match self {
            FleetPolicy::Fifo => "fifo",
            FleetPolicy::Tidal => "tidal",
        }
    }

    /// Parses the CLI spelling (`fifo` | `tidal`).
    ///
    /// # Errors
    /// Returns a message naming the accepted spellings.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "fifo" => Ok(FleetPolicy::Fifo),
            "tidal" => Ok(FleetPolicy::Tidal),
            other => Err(format!("unknown fleet policy `{other}` (fifo | tidal)")),
        }
    }
}

/// The fleet: homogeneous servers, one diurnal trace each.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    /// Number of SoC-Cluster servers.
    pub servers: usize,
    /// SoCs per server (the paper server has 60).
    pub socs_per_server: usize,
    /// Seed for the per-server tidal traces (server `i` uses `seed + i`).
    pub seed: u64,
    /// Simulation horizon in hours.
    pub horizon_hours: usize,
    /// Admission/placement policy.
    pub policy: FleetPolicy,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            servers: 4,
            socs_per_server: 60,
            seed: 42,
            horizon_hours: 72,
            policy: FleetPolicy::Tidal,
        }
    }
}

/// One job in the arrival trace.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Stable job id (index into the trace).
    pub id: usize,
    /// Arrival time on the fleet clock, seconds.
    pub arrival: Seconds,
    /// Admission priority; higher runs first under the `Tidal` policy.
    pub priority: u8,
    /// The training job itself; `spec.socs` is the SoC ask.
    pub spec: TrainJobSpec,
}

/// Seeded Poisson arrival times: exponential inter-arrivals of mean
/// `mean_interarrival_s`, cumulated from 0. Deterministic in `seed`.
pub fn sample_poisson_arrivals(
    jobs: usize,
    mean_interarrival_s: Seconds,
    seed: u64,
) -> Vec<Seconds> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..jobs)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -mean_interarrival_s * u.ln();
            t
        })
        .collect()
}

/// A deterministic job mix over the Poisson arrival trace: cycling
/// models (VGG-11 / ResNet-18 / MobileNetV1 on CIFAR-10), SoC asks
/// (16/24/32), epoch budgets sized so each job takes one to a few hours
/// of fluid-timeline time, method variants (Ours / Ours-INT8 / Ours-Half) and
/// priorities (0–2), all with pinned group counts — no warm-up probes,
/// fleet pricing must stay cheap.
pub fn standard_job_mix(jobs: usize, mean_interarrival_s: Seconds, seed: u64) -> Vec<JobRequest> {
    let arrivals = sample_poisson_arrivals(jobs, mean_interarrival_s, seed);
    arrivals
        .into_iter()
        .enumerate()
        .map(|(id, arrival)| {
            let (model, socs, epochs) = match id % 4 {
                0 => (ModelKind::Vgg11, 16, 60),
                1 => (ModelKind::ResNet18, 24, 40),
                2 => (ModelKind::MobileNetV1, 32, 120),
                _ => (ModelKind::ResNet18, 16, 36),
            };
            let arms = [Arms::Mixed, Arms::Int8, Arms::Half][id % 3];
            let method = MethodSpec::SocFlow(SocFlowConfig {
                arms,
                ..SocFlowConfig::with_groups(socs / 4)
            });
            let mut spec = TrainJobSpec::new(model, DatasetPreset::Cifar10, method);
            spec.socs = socs;
            spec.epochs = epochs;
            spec.global_batch = 64;
            spec.seed = seed.wrapping_add(id as u64);
            JobRequest {
                id,
                arrival,
                priority: (id % 3) as u8,
                spec,
            }
        })
        .collect()
}

/// The plan-memo key of one epoch of `spec` over `socs` SoCs, with the
/// scaled group count and whether the fleet prices it at the half split.
///
/// The fleet keeps its own share rule: Mixed and FP32 at a CPU share of
/// 1.0, INT8 and Half at 0.5. The engine and the tuner start Mixed at the
/// controller's share, INT8 at 0.0 and Half at the α = 0.7 share
/// ([`Arms::controller`]); the fleet goldens pin the fleet's rule.
///
/// # Panics
/// Panics if the spec's method is not a SoCFlow variant.
fn fleet_plan(spec: &TrainJobSpec, socs: usize) -> (PlanKey, usize, bool) {
    let Some(cfg) = spec.method.socflow() else {
        panic!(
            "fleet jobs must be SoCFlow variants, got {}",
            spec.method.name()
        );
    };
    let half = matches!(cfg.arms, Arms::Int8 | Arms::Half);
    let asked_groups = cfg.groups.unwrap_or(1).clamp(1, spec.socs.max(1));
    let groups = (asked_groups * socs)
        .div_ceil(spec.socs.max(1))
        .clamp(1, socs);
    // Everything the priced time depends on: model/preset/batch shape the
    // time model, socs+groups shape the topology, half picks the split.
    let key = PlanKey::Fleet {
        model: spec.model,
        preset: spec.preset,
        global_batch: spec.global_batch,
        socs,
        groups,
        half,
    };
    (key, groups, half)
}

/// Prices one epoch of a SoCFlow-variant job over `socs` SoCs on the
/// fluid timeline: the group count is scaled proportionally from the
/// spec's ask, the subset is mapped integrity-greedy, CGs are planned,
/// and the epoch runs on the simulated clock. This is the fleet's cost
/// model — no training happens.
///
/// Prices land in the process-wide plan-key memo shared with
/// [`crate::autotune`] (under a fleet-specific key, since the fleet's
/// fixed 0.5 mixed split differs from the tuner's controller-derived
/// one), so re-pricing a job on every arrival, shrink and resume is a
/// hash lookup instead of a fresh timeline simulation.
///
/// # Panics
/// Panics if the spec's method is not a SoCFlow variant.
pub fn priced_epoch_seconds(spec: &TrainJobSpec, socs: usize) -> Seconds {
    let (key, groups, half) = fleet_plan(spec, socs);
    let mut spec = *spec;
    spec.socs = socs;
    crate::autotune::memoized(key, || {
        let (mapping, cgs, _) = topology(socs, groups);
        let cpu_fraction = if half { 0.5 } else { 1.0 };
        TimeModel::new(&spec)
            .socflow_epoch_timeline(&mapping, &cgs, cpu_fraction)
            .cost
            .time
    })
}

/// Per-job outcome in a [`FleetReport`].
#[derive(Debug, Clone, Serialize)]
pub struct JobOutcome {
    /// Job id from the arrival trace.
    pub id: usize,
    /// Admission priority.
    pub priority: u8,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// First admission time, if the job ever ran.
    pub first_admit_s: Option<f64>,
    /// Completion time, if the job finished inside the horizon.
    pub completed_s: Option<f64>,
    /// How often returning user load preempted the job.
    pub preemptions: usize,
}

impl JobOutcome {
    /// Job-completion time (finish − arrival), if the job finished.
    pub fn jct(&self) -> Option<f64> {
        self.completed_s.map(|c| c - self.arrival_s)
    }
}

/// Aggregate result of one fleet simulation.
#[derive(Debug, Clone, Serialize)]
pub struct FleetReport {
    /// Policy the fleet ran (`fifo` | `tidal`).
    pub policy: String,
    /// Simulated horizon, hours.
    pub horizon_hours: usize,
    /// Per-job outcomes, in job-id order.
    pub jobs: Vec<JobOutcome>,
    /// Jobs that finished inside the horizon.
    pub completed: usize,
    /// Total preemptions across all jobs.
    pub preemptions: usize,
    /// Mean job-completion time over completed jobs, seconds.
    pub mean_jct_s: f64,
    /// Harvest efficiency: the fraction of allocated soc-hours that
    /// produced *retained* training progress (preemptions lose the
    /// partial epoch since the last checkpoint and re-admissions pay a
    /// restore stall; both count against this).
    pub utilization: f64,
    /// Share of the fleet's idle soc-hours the scheduler harvested.
    pub idle_capacity_used: f64,
    /// Completed jobs per simulated day.
    pub throughput_jobs_per_day: f64,
}

impl FleetReport {
    /// Human-readable multi-line summary (what `socflow-cli fleet`
    /// prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fleet policy     {} ({} h horizon)\n",
            self.policy, self.horizon_hours
        ));
        out.push_str(&format!(
            "jobs             {} traced, {} completed, {} preemptions\n",
            self.jobs.len(),
            self.completed,
            self.preemptions
        ));
        out.push_str(&format!("mean JCT         {:.1} s\n", self.mean_jct_s));
        out.push_str(&format!(
            "utilization      {:.1}% of allocated soc-hours retained\n",
            100.0 * self.utilization
        ));
        out.push_str(&format!(
            "idle harvested   {:.1}% of idle soc-hours\n",
            100.0 * self.idle_capacity_used
        ));
        out.push_str(&format!(
            "throughput       {:.2} jobs/day\n",
            self.throughput_jobs_per_day
        ));
        out
    }
}

/// The longest window, in hours, the `Tidal` policy asks a job's SoCs to
/// stay idle for.
const MAX_LOOKAHEAD: usize = 6;

/// An idle run this long means the SoC is never busy
/// ([`TidalTrace::idle_run`]): the tide never takes it back.
const WHOLE_DAY: usize = 24;

/// Whether the job's per-SoC footprint fits the SoC memory budget — the
/// scheduler's own (topology-aware) estimate, which reads the job's
/// geometry and not one sample. Of the network it reads two counts, off
/// the model's layer table: no weight is initialised.
fn fits_memory(spec: &TrainJobSpec) -> bool {
    let geometry = Workload::model_config(spec, 8, 0.5);
    let shape = NetworkShape::of(spec.model, geometry);
    memory_estimate(spec, geometry, shape).fits_soc()
}

/// The restore stall a preempted job pays when re-admitted.
fn restore_penalty(spec: &TrainJobSpec) -> Seconds {
    TimeModel::new(spec).restore_stall_time()
}

/// What a job's memory gate, restore stall and full-ask price read of its
/// spec: all of it but the seed, the epoch budget and the learning rate.
/// Jobs of one shape share those three values, so a run works each out
/// once per shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Shape {
    model: ModelKind,
    preset: DatasetPreset,
    socs: usize,
    global_batch: usize,
    method: &'static str,
    /// Groups, arms and accuracy streams of a SoCFlow method.
    socflow: Option<(Option<usize>, Arms, Option<usize>)>,
}

impl Shape {
    fn of(spec: &TrainJobSpec) -> Self {
        Shape {
            model: spec.model,
            preset: spec.preset,
            socs: spec.socs,
            global_batch: spec.global_batch,
            method: spec.method.name(),
            socflow: spec
                .method
                .socflow()
                .map(|c| (c.groups, c.arms, c.accuracy_streams)),
        }
    }
}

/// A shape's values, each worked out the first time the run needs it.
#[derive(Debug)]
struct ShapeCosts {
    /// The spec of the shape's first job.
    spec: TrainJobSpec,
    fits: Option<bool>,
    full_ask_s: Option<Seconds>,
    restore_s: Option<Seconds>,
}

/// For each hour of the day and look-ahead `l` (1 ..= [`MAX_LOOKAHEAD`]),
/// a max-tree over the servers of how many of their SoCs stay idle
/// through `l` hours ([`TidalTrace::idle_count`]). Held SoCs only lower a
/// server's free count, so the tree bounds every free count from above:
/// the search for the first server that can meet an ask skips every
/// server that cannot in O(log servers) and checks only the ones it
/// lands on.
#[derive(Debug)]
struct IdleIndex {
    servers: usize,
    leaves: usize,
    /// One tree per (hour, look-ahead), `2 * leaves` nodes each: node 1
    /// is the root, node `n` has children `2n` and `2n + 1`, and server
    /// `i` is node `leaves + i`.
    trees: Vec<u32>,
}

impl IdleIndex {
    fn new(traces: &[TidalTrace]) -> Self {
        let leaves = traces.len().next_power_of_two();
        let mut trees = vec![0; 24 * MAX_LOOKAHEAD * 2 * leaves];
        for (k, tree) in trees.chunks_mut(2 * leaves).enumerate() {
            let (hour, len) = (k / MAX_LOOKAHEAD, k % MAX_LOOKAHEAD + 1);
            for (i, trace) in traces.iter().enumerate() {
                tree[leaves + i] = trace.idle_count(hour, len) as u32;
            }
            for n in (1..leaves).rev() {
                tree[n] = tree[2 * n].max(tree[2 * n + 1]);
            }
        }
        IdleIndex {
            servers: traces.len(),
            leaves,
            trees,
        }
    }

    /// The first server at or after `from` with at least `need` SoCs idle
    /// through `len` hours from `hour`.
    fn first_at_least(&self, hour: usize, len: usize, need: usize, from: usize) -> Option<usize> {
        fn descend(
            tree: &[u32],
            node: usize,
            span: Range<usize>,
            from: usize,
            need: usize,
        ) -> Option<usize> {
            if span.end <= from || (tree[node] as usize) < need {
                return None;
            }
            if span.len() == 1 {
                return Some(span.start);
            }
            let mid = (span.start + span.end) / 2;
            descend(tree, 2 * node, span.start..mid, from, need)
                .or_else(|| descend(tree, 2 * node + 1, mid..span.end, from, need))
        }
        let size = 2 * self.leaves;
        let k = hour * MAX_LOOKAHEAD + len - 1;
        descend(
            &self.trees[k * size..(k + 1) * size],
            1,
            0..self.leaves,
            from,
            need,
        )
        .filter(|&server| server < self.servers)
    }
}

/// A running job's allocation and clock.
#[derive(Debug)]
struct Running {
    server: usize,
    /// Server-local SoC indices held by the job, ascending.
    socs: Vec<usize>,
    /// Work left, seconds (tracks sub-epoch progress).
    remaining_s: f64,
    /// Epoch cost over the current allocation, seconds.
    epoch_s: f64,
    /// The hour the tide first takes one of `socs` back, if it ever does.
    wake: Option<usize>,
}

/// A job's state between its events.
#[derive(Debug, Clone)]
struct JobState {
    remaining_epochs: usize,
    /// Restore stall charged at the next (re-)admission, seconds.
    pending_penalty_s: f64,
    first_admit_s: Option<f64>,
    completed_s: Option<f64>,
    preemptions: usize,
}

/// One simulation in flight: the fleet between two events.
struct Run<'a> {
    sim: &'a FleetSim,
    traces: Vec<TidalTrace>,
    index: IdleIndex,
    /// The most SoCs any server has idle at any hour.
    most_idle: usize,
    /// `held[server][soc]`: whether a running job holds the SoC.
    held: Vec<Vec<bool>>,
    shapes: Vec<ShapeCosts>,
    /// Each job's index into `shapes`.
    shape_of: Vec<usize>,
    /// Each job's position in policy order (`usize::MAX` if it never
    /// arrives), and the jobs in that order.
    rank: Vec<usize>,
    by_rank: Vec<usize>,
    states: Vec<JobState>,
    /// The queue, split by the question its jobs ask of the fleet: per
    /// (ask, look-ahead), the ranks of the jobs waiting with it.
    queue: BTreeMap<(usize, usize), BTreeSet<usize>>,
    /// Running jobs by id.
    running: BTreeMap<usize, Running>,
    /// `(wake hour, job)` of every running job the tide will reclaim from.
    wakes: BTreeSet<(usize, usize)>,
    gross_soc_hours: f64,
    waste_soc_hours: f64,
    preemptions: usize,
}

impl<'a> Run<'a> {
    /// A fleet with nothing arrived; `by_arrival` is every job that ever
    /// can arrive, in (arrival, id) order.
    fn new(sim: &'a FleetSim, by_arrival: &[usize]) -> Self {
        let traces: Vec<TidalTrace> = (0..sim.spec.servers)
            .map(|i| TidalTrace::generate(sim.spec.socs_per_server, sim.spec.seed + i as u64))
            .collect();
        let mut shape_ids: HashMap<Shape, usize> = HashMap::new();
        let mut shapes = Vec::new();
        let shape_of = sim
            .jobs
            .iter()
            .map(|req| {
                *shape_ids.entry(Shape::of(&req.spec)).or_insert_with(|| {
                    shapes.push(ShapeCosts {
                        spec: req.spec,
                        fits: None,
                        full_ask_s: None,
                        restore_s: None,
                    });
                    shapes.len() - 1
                })
            })
            .collect();
        let mut by_rank = by_arrival.to_vec();
        if sim.spec.policy == FleetPolicy::Tidal {
            // stable: (priority descending, arrival, id)
            by_rank.sort_by_key(|&id| Reverse(sim.jobs[id].priority));
        }
        let mut rank = vec![usize::MAX; sim.jobs.len()];
        for (r, &id) in by_rank.iter().enumerate() {
            rank[id] = r;
        }
        let most_idle = (0..24)
            .flat_map(|hour| traces.iter().map(move |t| t.idle_count(hour, 1)))
            .max()
            .unwrap_or(0);
        Run {
            sim,
            index: IdleIndex::new(&traces),
            most_idle,
            held: vec![vec![false; sim.spec.socs_per_server]; sim.spec.servers],
            traces,
            shapes,
            shape_of,
            rank,
            by_rank,
            states: sim
                .jobs
                .iter()
                .map(|req| JobState {
                    remaining_epochs: req.spec.epochs,
                    pending_penalty_s: 0.0,
                    first_admit_s: None,
                    completed_s: None,
                    preemptions: 0,
                })
                .collect(),
            queue: BTreeMap::new(),
            running: BTreeMap::new(),
            wakes: BTreeSet::new(),
            gross_soc_hours: 0.0,
            waste_soc_hours: 0.0,
            preemptions: 0,
        }
    }

    fn fits(&mut self, id: usize) -> bool {
        let shape = &mut self.shapes[self.shape_of[id]];
        *shape.fits.get_or_insert_with(|| fits_memory(&shape.spec))
    }

    /// The job's epoch cost over its full ask.
    fn full_ask_s(&mut self, id: usize) -> Seconds {
        let shape = &mut self.shapes[self.shape_of[id]];
        *shape
            .full_ask_s
            .get_or_insert_with(|| priced_epoch_seconds(&shape.spec, shape.spec.socs))
    }

    fn restore_s(&mut self, id: usize) -> Seconds {
        let shape = &mut self.shapes[self.shape_of[id]];
        *shape
            .restore_s
            .get_or_insert_with(|| restore_penalty(&shape.spec))
    }

    /// Prices, as one wave over the worker pool, the full asks an hourly
    /// loop would price one by one at each job's first admission pass:
    /// those of the jobs that arrive inside the horizon and pass the
    /// memory gate — less the asks no server can ever meet, which need no
    /// price. Shrinks are priced when they happen.
    fn price_full_asks(&mut self, by_arrival: &[usize]) {
        let Some(last) = self.sim.spec.horizon_hours.checked_sub(1) else {
            return;
        };
        let last_now = last as f64 * 3600.0;
        let mut seen = vec![false; self.shapes.len()];
        let mut keys = HashSet::new();
        let mut asks: Vec<TrainJobSpec> = Vec::new();
        for &id in by_arrival {
            if self.sim.jobs[id].arrival > last_now {
                break;
            }
            let shape = self.shape_of[id];
            if !std::mem::replace(&mut seen[shape], true)
                && self.sim.jobs[id].spec.socs <= self.most_idle
                && self.fits(id)
            {
                let spec = self.shapes[shape].spec;
                if keys.insert(fleet_plan(&spec, spec.socs).0) {
                    asks.push(spec);
                }
            }
        }
        let jobs: Vec<ScopedJob<'_>> = asks
            .iter()
            .map(|spec| {
                Box::new(move || {
                    priced_epoch_seconds(spec, spec.socs);
                }) as ScopedJob<'_>
            })
            .collect();
        socflow_tensor::runtime::run_scoped(jobs);
    }

    fn arrive(&mut self, id: usize) {
        let req = &self.sim.jobs[id];
        self.sim.emit(Event::JobArrived {
            job: req.id,
            at: req.arrival,
            priority: req.priority,
            socs: req.spec.socs,
            epochs: req.spec.epochs,
        });
        if self.fits(id) {
            self.enqueue(id);
        }
    }

    /// Queues the job under the question it asks: its SoC ask and its
    /// look-ahead, which stay fixed while it waits. A job that asks for
    /// more SoCs than any server ever has idle waits forever and changes
    /// nothing, so it is left out.
    fn enqueue(&mut self, id: usize) {
        let need = self.sim.jobs[id].spec.socs;
        if need > self.most_idle {
            return;
        }
        let len = match self.sim.spec.policy {
            // whatever is idle right now
            FleetPolicy::Fifo => 1,
            // idle through the estimated runtime over a full ask
            FleetPolicy::Tidal => {
                let epoch_s = self.full_ask_s(id);
                let st = &self.states[id];
                let est_s = st.remaining_epochs as f64 * epoch_s + st.pending_penalty_s;
                ((est_s / 3600.0).ceil() as usize).clamp(1, MAX_LOOKAHEAD)
            }
        };
        self.queue
            .entry((need, len))
            .or_default()
            .insert(self.rank[id]);
    }

    /// The hour after `h` at which the tide first takes one of `socs` (on
    /// `server`, idle at `h`) back.
    fn wake_hour(&self, server: usize, socs: &[usize], h: usize) -> Option<usize> {
        let trace = &self.traces[server];
        let run = socs
            .iter()
            .map(|&s| trace.idle_run(SocId(s), h % 24))
            .min()?;
        (run < WHOLE_DAY).then_some(h + run)
    }

    fn release(&mut self, server: usize, socs: &[usize]) {
        for &s in socs {
            self.held[server][s] = false;
        }
    }

    /// The tide turns on a running job at `h`: its busy SoCs go back to
    /// their users, and it shrinks elastically above its floor or is
    /// preempted below it.
    fn reclaim(&mut self, id: usize, h: usize) {
        let Some(mut run) = self.running.remove(&id) else {
            return;
        };
        let trace = &self.traces[run.server];
        let (survivors, reclaimed): (Vec<usize>, Vec<usize>) = run
            .socs
            .iter()
            .partition(|&&s| !trace.is_busy(SocId(s), h % 24));
        debug_assert!(
            !reclaimed.is_empty(),
            "job {id} woken at {h} with no SoC busy"
        );
        self.release(run.server, &reclaimed);
        let req = &self.sim.jobs[id];
        let floor = (req.spec.socs * 3).div_ceil(4).max(2);
        let remaining_epochs = self.states[id].remaining_epochs;
        if survivors.len() < floor {
            // preempt: checkpoint at the last epoch boundary — the
            // partial epoch is lost and re-run later
            let epochs_left = if run.epoch_s > 0.0 {
                ((run.remaining_s / run.epoch_s).ceil() as usize).max(1)
            } else {
                remaining_epochs
            };
            let lost_s = (epochs_left as f64 * run.epoch_s - run.remaining_s).max(0.0);
            self.waste_soc_hours += lost_s / 3600.0 * run.socs.len() as f64;
            self.release(run.server, &survivors);
            let penalty_s = self.restore_s(id);
            let st = &mut self.states[id];
            st.remaining_epochs = epochs_left;
            st.pending_penalty_s = penalty_s;
            st.preemptions += 1;
            self.preemptions += 1;
            self.sim.emit(Event::JobPreempted {
                job: req.id,
                at: h as f64 * 3600.0,
                server: run.server,
                epochs_left,
            });
            self.enqueue(id);
        } else {
            // elastic shrink: same epochs of work, re-priced over the
            // surviving subset
            let new_epoch = priced_epoch_seconds(&req.spec, survivors.len());
            let progress = if run.epoch_s > 0.0 {
                run.remaining_s / run.epoch_s
            } else {
                remaining_epochs as f64
            };
            run.remaining_s = progress * new_epoch;
            run.epoch_s = new_epoch;
            run.wake = self.wake_hour(run.server, &survivors, h);
            run.socs = survivors;
            if let Some(wake) = run.wake {
                self.wakes.insert((wake, id));
            }
            self.running.insert(id, run);
        }
    }

    /// How many of the server's free SoCs stay idle through `len` hours
    /// from `hour`.
    fn free_idle(&self, server: usize, hour: usize, len: usize) -> usize {
        let trace = &self.traces[server];
        let held = &self.held[server];
        let held_idle = (0..held.len())
            .filter(|&s| held[s] && trace.idle_for(SocId(s), hour, len))
            .count();
        trace.idle_count(hour, len) - held_idle
    }

    /// The first server, in server order, with `need` free SoCs idle
    /// through `len` hours from `hour`.
    fn find_server(&self, hour: usize, len: usize, need: usize) -> Option<usize> {
        let mut from = 0;
        while let Some(server) = self.index.first_at_least(hour, len, need, from) {
            if self.free_idle(server, hour, len) >= need {
                return Some(server);
            }
            from = server + 1;
        }
        None
    }

    /// One admission pass at hour `h`, in policy order; whether it placed
    /// a job.
    ///
    /// Every job of a queue class asks the same question (the first
    /// server with `need` free SoCs idle through `len` hours), and a
    /// placement only lowers free counts. So once a class's first job
    /// finds no server, none of its later jobs would in this pass: the
    /// pass drops the class. It costs one search per placement and one
    /// per class, however long the queue.
    fn admit(&mut self, h: usize) -> bool {
        let mut live: Vec<(usize, usize)> = self.queue.keys().copied().collect();
        let mut placed = false;
        loop {
            // the live class whose first job comes first in policy order
            let head = live
                .iter()
                .enumerate()
                .filter_map(|(i, class)| Some((i, *self.queue.get(class)?.first()?)))
                .min_by_key(|&(_, rank)| rank);
            let Some((i, rank)) = head else {
                return placed;
            };
            let (need, len) = live[i];
            let Some(server) = self.find_server(h % 24, len, need) else {
                live.swap_remove(i);
                continue;
            };
            if let Some(class) = self.queue.get_mut(&(need, len)) {
                class.remove(&rank);
                if class.is_empty() {
                    self.queue.remove(&(need, len));
                }
            }
            self.place(self.by_rank[rank], server, len, h);
            placed = true;
        }
    }

    /// Places the job on the first `need` free SoCs of `server` idle
    /// through `len` hours from `h`, in SoC order.
    fn place(&mut self, id: usize, server: usize, len: usize, h: usize) {
        let now = h as f64 * 3600.0;
        let req = &self.sim.jobs[id];
        let need = req.spec.socs;
        let epoch_s = self.full_ask_s(id);
        let trace = &self.traces[server];
        let held = &mut self.held[server];
        let socs: Vec<usize> = (0..held.len())
            .filter(|&s| !held[s] && trace.idle_for(SocId(s), h % 24, len))
            .take(need)
            .collect();
        for &s in &socs {
            held[s] = true;
        }
        let st = &mut self.states[id];
        let remaining_s = st.remaining_epochs as f64 * epoch_s + st.pending_penalty_s;
        self.waste_soc_hours += st.pending_penalty_s / 3600.0 * need as f64;
        st.pending_penalty_s = 0.0;
        st.first_admit_s.get_or_insert(now);
        let wake = self.wake_hour(server, &socs, h);
        if let Some(wake) = wake {
            self.wakes.insert((wake, id));
        }
        self.running.insert(
            id,
            Running {
                server,
                socs,
                remaining_s,
                epoch_s,
                wake,
            },
        );
        self.sim.emit(Event::JobAdmitted {
            job: req.id,
            at: now,
            server,
            socs: need,
            queue_wait: now - req.arrival,
        });
    }

    /// One hour of training progress from `h`, in job-id order.
    fn progress(&mut self, h: usize) {
        let now = h as f64 * 3600.0;
        let mut finished = Vec::new();
        for (&id, run) in self.running.iter_mut() {
            if run.remaining_s <= 3600.0 {
                self.gross_soc_hours += run.remaining_s / 3600.0 * run.socs.len() as f64;
                finished.push(id);
            } else {
                run.remaining_s -= 3600.0;
                self.gross_soc_hours += run.socs.len() as f64;
            }
        }
        for id in finished {
            let Some(run) = self.running.remove(&id) else {
                continue;
            };
            let finish = now + run.remaining_s;
            self.release(run.server, &run.socs);
            if let Some(wake) = run.wake {
                self.wakes.remove(&(wake, id));
            }
            self.states[id].completed_s = Some(finish);
            let req = &self.sim.jobs[id];
            self.sim.emit(Event::JobCompleted {
                job: req.id,
                at: finish,
                server: run.server,
                jct: finish - req.arrival,
            });
        }
    }
}

/// The fleet simulator: runs a [`FleetSpec`] over an arrival trace.
#[derive(Debug)]
pub struct FleetSim {
    spec: FleetSpec,
    jobs: Vec<JobRequest>,
    sink: Option<Arc<dyn EventSink>>,
}

impl FleetSim {
    /// Creates a simulator over a fleet and an arrival trace.
    pub fn new(spec: FleetSpec, jobs: Vec<JobRequest>) -> Self {
        FleetSim {
            spec,
            jobs,
            sink: None,
        }
    }

    /// Attaches a telemetry sink; job lifecycle events
    /// ([`Event::JobArrived`] / `JobAdmitted` / `JobPreempted` /
    /// `JobCompleted`) are emitted on the fleet clock.
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    fn emit(&self, event: Event) {
        if let Some(sink) = &self.sink {
            sink.emit(&event);
        }
    }

    /// Runs the simulation to the horizon and reports.
    ///
    /// The fleet clock ticks in hours, and within an hour arrivals,
    /// reclaims, admission and progress happen in that order, but each
    /// costs only what can happen: arrivals come off a cursor, reclaims
    /// only visit the jobs the tide reaches that hour, admission searches
    /// once per placement and once per queue class, progress visits the
    /// running jobs. Once a whole day has passed with nothing running,
    /// nothing placed and nothing arriving, every later pass until the
    /// next arrival would repeat one of that day's (the tide repeats
    /// daily), so they are skipped.
    pub fn run(&self) -> FleetReport {
        let arrival = |id: usize| self.jobs[id].arrival;
        // a NaN arrival never comes
        let mut by_arrival: Vec<usize> = (0..self.jobs.len())
            .filter(|&id| !arrival(id).is_nan())
            .collect();
        by_arrival.sort_by(|&a, &b| {
            arrival(a)
                .partial_cmp(&arrival(b))
                .unwrap_or(Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut run = Run::new(self, &by_arrival);
        run.price_full_asks(&by_arrival);
        let servers = self.spec.servers;
        // per hour of the day, each server's idle SoCs: the terms of the
        // idle-capacity integral, added hour by hour in server order
        let idle_now: Vec<f64> = (0..24)
            .flat_map(|hour| run.traces.iter().map(move |t| t.idle_count(hour, 1) as f64))
            .collect();
        let mut idle_soc_hours = 0.0;
        let mut next = 0;
        let mut quiet_hours = 0;

        for h in 0..self.spec.horizon_hours {
            let now = h as f64 * 3600.0;
            let hour = h % 24;

            // 1. arrivals up to this hour boundary enter the queue, in
            // job-id order
            let due = by_arrival[next..]
                .iter()
                .take_while(|&&id| arrival(id) <= now)
                .count();
            let mut arrived = by_arrival[next..next + due].to_vec();
            arrived.sort_unstable();
            next += due;
            for id in arrived {
                run.arrive(id);
            }
            if due > 0 {
                quiet_hours = 0;
            }

            if quiet_hours < 24 {
                // 2. the tide turns on the running jobs it reaches
                while let Some(&(wake, id)) = run.wakes.first() {
                    if wake > h {
                        break;
                    }
                    run.wakes.remove(&(wake, id));
                    run.reclaim(id, h);
                }
                // 3. admission, in policy order
                let empty = run.running.is_empty();
                let placed = run.admit(h);
                // 4. one hour of training progress
                run.progress(h);
                quiet_hours = if empty && !placed { quiet_hours + 1 } else { 0 };
            }

            // 5. idle-capacity accounting for the utilization denominator
            for &idle in &idle_now[hour * servers..(hour + 1) * servers] {
                idle_soc_hours += idle;
            }
        }

        let outcomes = self
            .jobs
            .iter()
            .zip(&run.states)
            .map(|(req, st)| JobOutcome {
                id: req.id,
                priority: req.priority,
                arrival_s: req.arrival,
                first_admit_s: st.first_admit_s,
                completed_s: st.completed_s,
                preemptions: st.preemptions,
            })
            .collect();
        self.report(
            outcomes,
            run.preemptions,
            run.gross_soc_hours,
            run.waste_soc_hours,
            idle_soc_hours,
        )
    }

    /// The report over the jobs' outcomes and the run's soc-hour
    /// integrals.
    fn report(
        &self,
        jobs: Vec<JobOutcome>,
        preemptions: usize,
        gross_soc_hours: f64,
        waste_soc_hours: f64,
        idle_soc_hours: f64,
    ) -> FleetReport {
        let completed = jobs.iter().filter(|o| o.completed_s.is_some()).count();
        let mean_jct_s = if completed > 0 {
            jobs.iter().filter_map(JobOutcome::jct).sum::<f64>() / completed as f64
        } else {
            0.0
        };
        FleetReport {
            policy: self.spec.policy.name().to_string(),
            horizon_hours: self.spec.horizon_hours,
            jobs,
            completed,
            preemptions,
            mean_jct_s,
            utilization: if gross_soc_hours > 0.0 {
                ((gross_soc_hours - waste_soc_hours) / gross_soc_hours).max(0.0)
            } else {
                0.0
            },
            idle_capacity_used: if idle_soc_hours > 0.0 {
                gross_soc_hours / idle_soc_hours
            } else {
                0.0
            },
            throughput_jobs_per_day: completed as f64 / (self.spec.horizon_hours as f64 / 24.0),
        }
    }
}

#[cfg(test)]
mod hourly;

#[cfg(test)]
mod tests {
    use super::*;
    use socflow_telemetry::{MemorySink, Summary};

    fn fleet(policy: FleetPolicy) -> FleetSim {
        let spec = FleetSpec {
            servers: 2,
            socs_per_server: 60,
            seed: 42,
            horizon_hours: 48,
            policy,
        };
        FleetSim::new(spec, standard_job_mix(8, 3600.0, 7))
    }

    #[test]
    fn the_idle_index_finds_the_first_server_a_scan_finds() {
        for (servers, socs) in [(0, 60), (1, 7), (5, 32), (9, 60), (16, 1)] {
            let traces: Vec<TidalTrace> = (0..servers)
                .map(|i| TidalTrace::generate(socs, 3 + i as u64))
                .collect();
            let index = IdleIndex::new(&traces);
            for hour in 0..24 {
                for len in 1..=MAX_LOOKAHEAD {
                    for need in 0..=socs + 1 {
                        for from in 0..=servers {
                            let scan =
                                (from..servers).find(|&i| traces[i].idle_count(hour, len) >= need);
                            assert_eq!(
                                index.first_at_least(hour, len, need, from),
                                scan,
                                "{servers} x {socs}, {hour}+{len}, need {need} from {from}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn poisson_arrivals_are_deterministic_and_increasing() {
        let a = sample_poisson_arrivals(16, 1800.0, 5);
        let b = sample_poisson_arrivals(16, 1800.0, 5);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a[0] > 0.0);
    }

    #[test]
    fn fleet_run_is_deterministic() {
        let r1 = fleet(FleetPolicy::Tidal).run();
        let r2 = fleet(FleetPolicy::Tidal).run();
        assert_eq!(
            serde_json::to_string(&r1).unwrap(),
            serde_json::to_string(&r2).unwrap()
        );
    }

    #[test]
    fn fleet_completes_jobs_and_emits_lifecycle_events() {
        let sink = Arc::new(MemorySink::new());
        let report = fleet(FleetPolicy::Tidal).with_sink(sink.clone()).run();
        assert!(report.completed > 0, "{report:?}");
        let summary = Summary::from_events(&sink.events());
        assert_eq!(summary.jobs_arrived, 8);
        assert_eq!(summary.jobs_completed, report.completed);
        assert_eq!(summary.jobs_preempted, report.preemptions);
        assert!(summary.jobs_admitted >= summary.jobs_completed);
        assert!(report.utilization > 0.0 && report.utilization <= 1.0);
    }

    #[test]
    fn tidal_policy_beats_fifo_on_jct_and_utilization() {
        let tidal = fleet(FleetPolicy::Tidal).run();
        let fifo = fleet(FleetPolicy::Fifo).run();
        assert!(tidal.completed >= fifo.completed, "{tidal:?}\n{fifo:?}");
        assert!(
            tidal.mean_jct_s < fifo.mean_jct_s,
            "tidal JCT {:.0} vs fifo {:.0}",
            tidal.mean_jct_s,
            fifo.mean_jct_s
        );
        assert!(
            tidal.utilization > fifo.utilization,
            "tidal util {:.3} vs fifo {:.3}",
            tidal.utilization,
            fifo.utilization
        );
    }

    #[test]
    fn preempted_fleet_jobs_resume_with_work_conserved() {
        // squeeze the fleet so preemptions actually happen, then check
        // no job finished with epochs left and every preempted job either
        // completed or is still queued/running at the horizon
        let spec = FleetSpec {
            servers: 1,
            socs_per_server: 40,
            seed: 11,
            horizon_hours: 48,
            policy: FleetPolicy::Fifo,
        };
        let report = FleetSim::new(spec, standard_job_mix(10, 1800.0, 3)).run();
        assert!(report.preemptions > 0, "want churn: {report:?}");
        for job in &report.jobs {
            if job.completed_s.is_some() {
                assert!(job.first_admit_s.is_some());
            }
        }
        assert!(report.utilization < 1.0, "preemptions must cost something");
    }
}
