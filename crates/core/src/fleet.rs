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
//!   network's counts (built once per model and preset; no sample is
//!   synthesised), and places queued jobs on [`TidalTrace`] idle runs:
//!   the `Tidal` policy only on SoCs that stay idle through the job's
//!   estimated runtime (capped at 6 h), the naive `Fifo` baseline on
//!   whatever is idle *right now*. A server with fewer such free SoCs
//!   than the job asks for is passed over on an hourly count, unscanned;
//! - **placement** packs jobs onto servers and SoC subsets in priority
//!   order with elastic capacity sharing: when user load takes some of a
//!   running job's SoCs back, the job shrinks onto the survivors and its
//!   epochs are re-priced over the smaller topology;
//! - **preemption** models the PR-3 checkpoint/reclaim machinery: a job
//!   squeezed below its SoC floor checkpoints at the last epoch boundary
//!   (the partial epoch is lost), re-queues, and pays a restore stall
//!   when re-admitted. [`tidal_fault_plan`] maps the same tidal
//!   transitions onto an engine [`FaultPlan`] so a *real* training run
//!   preempted by the trace resumes bit-exactly (see
//!   `tests/checkpoint_preemption.rs`).
//!
//! Epochs are priced with [`TimeModel`] in simulated mode, i.e. on the
//! event-driven fluid timeline — the FlexFlow-style "simulator as cost
//! model" trick that makes fleet-scale what-ifs cheap. The whole
//! simulation advances a fleet clock at one-hour tidal granularity and is
//! byte-deterministic: same seeds, same report, at any host thread count.

use crate::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
use crate::engine::Workload;
use crate::mapping;
use crate::planning::divide_or_serialize;
use crate::scheduler::{memory_estimate, NetworkShape};
use crate::timemodel::TimeModel;
use serde::Serialize;
use socflow_cluster::faults::{FaultEvent, FaultKind, FaultPlan};
use socflow_cluster::tidal::TidalTrace;
use socflow_cluster::{ClusterSpec, Seconds, SocId};
use socflow_data::DatasetPreset;
use socflow_nn::models::ModelKind;
use socflow_telemetry::{Event, EventSink};
use std::collections::{HashMap, VecDeque};
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
/// of fluid-timeline time, method variants (FP32 / INT8 / FP16) and
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
            let method = match id % 3 {
                0 => MethodSpec::SocFlow(SocFlowConfig::with_groups(socs / 4)),
                1 => MethodSpec::SocFlowInt8(SocFlowConfig::with_groups(socs / 4)),
                _ => MethodSpec::SocFlowHalf(SocFlowConfig::with_groups(socs / 4)),
            };
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

/// Maps a server's tidal trace onto a job-local [`FaultPlan`]: the job
/// starts at `start_hour` on the server SoCs `assigned` (listed in
/// job-rank order), and whenever an assigned SoC turns busy at a later
/// hour boundary within `hours`, the plan records a graceful
/// [`FaultKind::Reclaimed`] event for that job rank at
/// `h * hour_seconds` on the job clock (pass `3600.0` for real tidal
/// hours; tests compress the clock to fit short runs). Only the first
/// transition per SoC matters — a reclaimed SoC does not rejoin the
/// job. Feeding this plan to the engine preempts a real training run
/// exactly where the fleet simulation would, so checkpointed jobs
/// evicted by the tide resume bit-exactly.
pub fn tidal_fault_plan(
    trace: &TidalTrace,
    assigned: &[SocId],
    start_hour: usize,
    hours: usize,
    hour_seconds: Seconds,
) -> FaultPlan {
    let mut events = Vec::new();
    for (rank, &soc) in assigned.iter().enumerate() {
        for h in 1..=hours {
            if trace.is_busy(soc, (start_hour + h) % 24) {
                events.push(FaultEvent {
                    at: h as Seconds * hour_seconds,
                    soc: SocId(rank),
                    kind: FaultKind::Reclaimed,
                });
                break;
            }
        }
    }
    FaultPlan::from_events(events)
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
    let (cfg, mixed) = match spec.method {
        MethodSpec::SocFlow(c) => (c, false),
        MethodSpec::SocFlowInt8(c) | MethodSpec::SocFlowHalf(c) => (c, true),
        other => panic!("fleet jobs must be SoCFlow variants, got {}", other.name()),
    };
    let asked_groups = cfg.groups.unwrap_or(1).clamp(1, spec.socs.max(1));
    let groups = (asked_groups * socs)
        .div_ceil(spec.socs.max(1))
        .clamp(1, socs);
    let mut spec = *spec;
    spec.socs = socs;
    // Everything the priced time depends on: model/preset/batch shape the
    // time model, socs+groups shape the topology, mixed picks the split.
    let key = crate::autotune::PlanKey::Fleet {
        model: spec.model,
        preset: spec.preset,
        global_batch: spec.global_batch,
        socs,
        groups,
        mixed,
    };
    crate::autotune::memoized(key, || {
        let cluster = ClusterSpec::for_socs(socs);
        let mapping = mapping::integrity_greedy(&cluster, socs, groups);
        let (cgs, _) = divide_or_serialize(&mapping);
        let mut tm = TimeModel::new(&spec);
        tm.set_simulated(true);
        let cpu_fraction = if mixed { 0.5 } else { 1.0 };
        tm.socflow_epoch(&mapping, &cgs, true, cpu_fraction).time
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

/// Internal per-job simulation state.
#[derive(Debug, Clone)]
struct JobState {
    remaining_epochs: usize,
    /// Work left in seconds while running (tracks sub-epoch progress).
    remaining_s: f64,
    /// Current epoch cost over the current allocation, seconds.
    epoch_s: f64,
    /// Epoch cost over the job's full ask, priced at its first admission
    /// attempt.
    full_ask_epoch_s: Option<f64>,
    /// Restore stall charged at the next (re-)admission, seconds.
    pending_penalty_s: f64,
    arrived: bool,
    rejected: bool,
    running: Option<Placement>,
    first_admit_s: Option<f64>,
    completed_s: Option<f64>,
    preemptions: usize,
}

#[derive(Debug, Clone)]
struct Placement {
    server: usize,
    /// Server-local SoC indices held by the job.
    socs: Vec<usize>,
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

    /// Prices one epoch of `req` over `socs` SoCs (see
    /// [`priced_epoch_seconds`]).
    fn epoch_seconds(req: &JobRequest, socs: usize) -> Seconds {
        priced_epoch_seconds(&req.spec, socs)
    }

    /// The restore stall a preempted job pays when re-admitted.
    fn restore_penalty(req: &JobRequest) -> Seconds {
        TimeModel::new(&req.spec).restore_stall_time()
    }

    /// Whether the job's per-SoC footprint fits the SoC memory budget —
    /// the scheduler's own (topology-aware) estimate, which reads the
    /// job's geometry and not one sample. Of the network it reads two
    /// counts, and getting them means building it (random-initialising
    /// every weight), so `shapes` keeps them per distinct input of that
    /// build: the model, and the preset that sets its channels and
    /// classes.
    fn fits_memory(
        req: &JobRequest,
        shapes: &mut HashMap<(ModelKind, DatasetPreset), NetworkShape>,
    ) -> bool {
        let geometry = Workload::model_config(&req.spec, 8, 0.5);
        let shape = *shapes
            .entry((req.spec.model, req.spec.preset))
            .or_insert_with(|| NetworkShape::of(&req.spec, geometry));
        memory_estimate(&req.spec, geometry, shape).fits_soc()
    }

    /// Runs the simulation to the horizon and reports.
    pub fn run(&self) -> FleetReport {
        let traces: Vec<TidalTrace> = (0..self.spec.servers)
            .map(|i| TidalTrace::generate(self.spec.socs_per_server, self.spec.seed + i as u64))
            .collect();
        let mut alloc: Vec<Vec<Option<usize>>> =
            vec![vec![None; self.spec.socs_per_server]; self.spec.servers];
        let mut states: Vec<JobState> = self
            .jobs
            .iter()
            .map(|req| JobState {
                remaining_epochs: req.spec.epochs,
                remaining_s: 0.0,
                epoch_s: 0.0,
                full_ask_epoch_s: None,
                pending_penalty_s: 0.0,
                arrived: false,
                rejected: false,
                running: None,
                first_admit_s: None,
                completed_s: None,
                preemptions: 0,
            })
            .collect();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut network_shapes = HashMap::new();
        let mut gross_soc_hours = 0.0;
        let mut waste_soc_hours = 0.0;
        let mut idle_soc_hours = 0.0;
        let mut total_preemptions = 0usize;

        for h in 0..self.spec.horizon_hours {
            let now = h as f64 * 3600.0;
            let hour = h % 24;

            // 1. arrivals up to this hour boundary enter the queue
            for (id, req) in self.jobs.iter().enumerate() {
                if !states[id].arrived && req.arrival <= now {
                    states[id].arrived = true;
                    self.emit(Event::JobArrived {
                        job: req.id,
                        at: req.arrival,
                        priority: req.priority,
                        socs: req.spec.socs,
                        epochs: req.spec.epochs,
                    });
                    if Self::fits_memory(req, &mut network_shapes) {
                        queue.push_back(id);
                    } else {
                        states[id].rejected = true;
                    }
                }
            }

            // 2. the tide turns: reclaim busy SoCs from running jobs —
            // shrink elastically above the floor, preempt below it
            for (id, st) in states.iter_mut().enumerate() {
                let Some(place) = st.running.clone() else {
                    continue;
                };
                let trace = &traces[place.server];
                let survivors: Vec<usize> = place
                    .socs
                    .iter()
                    .copied()
                    .filter(|&s| !trace.is_busy(SocId(s), hour))
                    .collect();
                if survivors.len() == place.socs.len() {
                    continue;
                }
                // reclaimed SoCs go back to their users
                for &s in place
                    .socs
                    .iter()
                    .filter(|&&s| trace.is_busy(SocId(s), hour))
                {
                    alloc[place.server][s] = None;
                }
                let floor = (self.jobs[id].spec.socs * 3).div_ceil(4).max(2);
                if survivors.len() < floor {
                    // preempt: checkpoint at the last epoch boundary —
                    // the partial epoch is lost and re-run later
                    let epochs_left = if st.epoch_s > 0.0 {
                        ((st.remaining_s / st.epoch_s).ceil() as usize).max(1)
                    } else {
                        st.remaining_epochs
                    };
                    let lost_s = (epochs_left as f64 * st.epoch_s - st.remaining_s).max(0.0);
                    waste_soc_hours += lost_s / 3600.0 * place.socs.len() as f64;
                    for &s in &survivors {
                        alloc[place.server][s] = None;
                    }
                    st.running = None;
                    st.remaining_epochs = epochs_left;
                    st.pending_penalty_s = Self::restore_penalty(&self.jobs[id]);
                    st.preemptions += 1;
                    total_preemptions += 1;
                    self.emit(Event::JobPreempted {
                        job: self.jobs[id].id,
                        at: now,
                        server: place.server,
                        epochs_left,
                    });
                    queue.push_back(id);
                } else {
                    // elastic shrink: same epochs of work, re-priced over
                    // the surviving subset
                    let new_epoch = Self::epoch_seconds(&self.jobs[id], survivors.len());
                    let progress = if st.epoch_s > 0.0 {
                        st.remaining_s / st.epoch_s
                    } else {
                        st.remaining_epochs as f64
                    };
                    st.remaining_s = progress * new_epoch;
                    st.epoch_s = new_epoch;
                    st.running = Some(Placement {
                        server: place.server,
                        socs: survivors,
                    });
                }
            }

            // 3. admission, in policy order
            let mut order: Vec<usize> = queue.iter().copied().collect();
            match self.spec.policy {
                FleetPolicy::Fifo => order.sort_by(|&a, &b| {
                    self.jobs[a]
                        .arrival
                        .partial_cmp(&self.jobs[b].arrival)
                        .unwrap()
                        .then(a.cmp(&b))
                }),
                FleetPolicy::Tidal => order.sort_by(|&a, &b| {
                    self.jobs[b]
                        .priority
                        .cmp(&self.jobs[a].priority)
                        .then(
                            self.jobs[a]
                                .arrival
                                .partial_cmp(&self.jobs[b].arrival)
                                .unwrap(),
                        )
                        .then(a.cmp(&b))
                }),
            }
            // per server, how many free SoCs stay idle for each look-ahead
            // (`free_idle[server][l - 1]` for `l` hours): a server short
            // of a job's ask is passed over without a scan
            let mut free_idle: Vec<[usize; MAX_LOOKAHEAD]> = traces
                .iter()
                .zip(&alloc)
                .map(|(trace, held)| {
                    let mut counts = [0; MAX_LOOKAHEAD];
                    for s in (0..held.len()).filter(|&s| held[s].is_none()) {
                        let run = trace.idle_run(SocId(s), hour).min(MAX_LOOKAHEAD);
                        counts[..run].iter_mut().for_each(|c| *c += 1);
                    }
                    counts
                })
                .collect();
            for id in order {
                let req = &self.jobs[id];
                let need = req.spec.socs;
                // estimated runtime over a full ask, for the window test;
                // the full ask's price never changes, so it is looked up once
                let est_epoch = *states[id]
                    .full_ask_epoch_s
                    .get_or_insert_with(|| Self::epoch_seconds(req, need));
                let lookahead = match self.spec.policy {
                    // whatever is idle right now
                    FleetPolicy::Fifo => 1,
                    FleetPolicy::Tidal => {
                        let est_s = states[id].remaining_epochs as f64 * est_epoch
                            + states[id].pending_penalty_s;
                        ((est_s / 3600.0).ceil() as usize).clamp(1, MAX_LOOKAHEAD)
                    }
                };
                let Some(server) = free_idle.iter().position(|c| c[lookahead - 1] >= need) else {
                    continue;
                };
                // the first `need` free SoCs idle through the look-ahead,
                // in SoC order
                let trace = &traces[server];
                let socs: Vec<usize> = (0..self.spec.socs_per_server)
                    .filter(|&s| {
                        alloc[server][s].is_none() && trace.idle_for(SocId(s), hour, lookahead)
                    })
                    .take(need)
                    .collect();
                for &s in &socs {
                    alloc[server][s] = Some(id);
                    let run = trace.idle_run(SocId(s), hour).min(MAX_LOOKAHEAD);
                    free_idle[server][..run].iter_mut().for_each(|c| *c -= 1);
                }
                let st = &mut states[id];
                st.epoch_s = est_epoch;
                st.remaining_s = st.remaining_epochs as f64 * est_epoch + st.pending_penalty_s;
                waste_soc_hours += st.pending_penalty_s / 3600.0 * need as f64;
                st.pending_penalty_s = 0.0;
                st.running = Some(Placement { server, socs });
                if st.first_admit_s.is_none() {
                    st.first_admit_s = Some(now);
                }
                queue.retain(|&q| q != id);
                self.emit(Event::JobAdmitted {
                    job: req.id,
                    at: now,
                    server,
                    socs: need,
                    queue_wait: now - req.arrival,
                });
            }

            // 4. one hour of training progress
            for (id, st) in states.iter_mut().enumerate() {
                let Some(place) = st.running.clone() else {
                    continue;
                };
                if st.remaining_s <= 3600.0 {
                    let finish = now + st.remaining_s;
                    gross_soc_hours += st.remaining_s / 3600.0 * place.socs.len() as f64;
                    st.completed_s = Some(finish);
                    st.remaining_s = 0.0;
                    st.remaining_epochs = 0;
                    st.running = None;
                    for &s in &place.socs {
                        alloc[place.server][s] = None;
                    }
                    self.emit(Event::JobCompleted {
                        job: self.jobs[id].id,
                        at: finish,
                        server: place.server,
                        jct: finish - self.jobs[id].arrival,
                    });
                } else {
                    st.remaining_s -= 3600.0;
                    gross_soc_hours += place.socs.len() as f64;
                }
            }

            // 5. idle-capacity accounting for the utilization denominator
            for trace in &traces {
                idle_soc_hours += (0..self.spec.socs_per_server)
                    .filter(|&s| !trace.is_busy(SocId(s), hour))
                    .count() as f64;
            }
        }

        let outcomes: Vec<JobOutcome> = self
            .jobs
            .iter()
            .zip(&states)
            .map(|(req, st)| JobOutcome {
                id: req.id,
                priority: req.priority,
                arrival_s: req.arrival,
                first_admit_s: st.first_admit_s,
                completed_s: st.completed_s,
                preemptions: st.preemptions,
            })
            .collect();
        let completed = outcomes.iter().filter(|o| o.completed_s.is_some()).count();
        let mean_jct_s = if completed > 0 {
            outcomes.iter().filter_map(JobOutcome::jct).sum::<f64>() / completed as f64
        } else {
            0.0
        };
        FleetReport {
            policy: self.spec.policy.name().to_string(),
            horizon_hours: self.spec.horizon_hours,
            jobs: outcomes,
            completed,
            preemptions: total_preemptions,
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
    fn tidal_fault_plan_marks_first_busy_transition_per_rank() {
        let trace = TidalTrace::generate(60, 3);
        let (start, len) = trace.best_idle_window(16);
        assert!(len >= 1);
        let assigned: Vec<SocId> = trace
            .idle_through(start, len)
            .into_iter()
            .take(16)
            .collect();
        let plan = tidal_fault_plan(&trace, &assigned, start, len + 6, 3600.0);
        // job-local ranks only, each at an hour boundary after the start
        for e in plan.events() {
            assert!(e.soc.0 < 16);
            assert_eq!(e.kind, FaultKind::Reclaimed);
            assert!(e.at >= 3600.0);
            assert_eq!(e.at % 3600.0, 0.0);
        }
        // inside the idle window nothing is reclaimed
        assert!(plan.events().iter().all(|e| e.at >= len as f64 * 3600.0));
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
