//! # socflow-telemetry
//!
//! Structured run telemetry for the SoCFlow reproduction.
//!
//! Training runs are opaque without a way to see *where* the modelled time
//! goes: the paper's own evaluation leans on exactly this kind of
//! instrumentation (Fig. 12 breaks an epoch into compute / sync / update,
//! Fig. 7 tracks the α trajectory of the mixed-precision controller,
//! §6.3 reports link utilization under the data-shuffling plan). This
//! crate defines the event vocabulary for those observations plus the
//! sinks that record them:
//!
//! - [`Event`] — one structured observation (epoch finished, transfer
//!   simulated, group evicted, …), serializable as one JSON object;
//! - [`EventSink`] — where events go. Instrumented components hold an
//!   `Option<Arc<dyn EventSink>>` and skip all event construction when it
//!   is `None`, so a run without a sink pays one branch per would-be
//!   event and allocates nothing;
//! - [`NullSink`] — swallows events (useful to exercise emission paths);
//! - [`MemorySink`] — collects events in memory, for tests and benches;
//! - [`TraceWriter`] — appends one compact JSON line per event to a file
//!   (the `--trace run.jsonl` CLI flag);
//! - [`RunResult`] — a run's result, and nothing but the fold of its
//!   events ([`RunResult::absorb`]): the engine folds each accounting event
//!   as it emits it, so the result never holds a number the trace does not
//!   show;
//! - [`Summary`] — that same fold over a recorded stream plus network,
//!   resilience and scheduler counters. `Summary::from_events(&trace).run`
//!   is the run's result exactly; `socflow trace summarize` is a thin
//!   wrapper over it.
//!
//! Events are only ever emitted from the coordinating thread of a run
//! (worker training threads report through return values, never through
//! sinks), so a trace is an ordered, deterministic record: two runs from
//! the same seed produce byte-identical trace files. The determinism
//! property test in `tests/properties.rs` pins this down.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

mod report;

pub use report::{Breakdown, RunResult};

/// How a SoC left the cluster (mirrors the cluster crate's `FaultKind`;
/// redeclared here because telemetry sits below cluster in the dependency
/// graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultClass {
    /// Graceful user-session reclaim: the engine checkpoints first, no
    /// training work is lost.
    Reclaim,
    /// Hard failure: the in-flight batch is lost and a restore stall is
    /// charged.
    Crash,
}

/// One structured observation from a training run.
///
/// Serialized as an externally tagged JSON object, one line per event in
/// a trace file, e.g.
/// `{"EpochCompleted":{"epoch":0,"accuracy":0.31,...}}`.
///
/// Times are modelled seconds, byte counts are modelled bytes, `epoch` is
/// zero-based throughout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A run began: which method, over how many SoCs, for how many epochs.
    RunStarted {
        method: String,
        socs: usize,
        epochs: usize,
        seed: u64,
    },
    /// The scheduler chose a group topology (paper §5.1): the accepted
    /// group count, how many candidate counts were probed, and the
    /// resulting number of compute groups.
    PlanComputed {
        groups: usize,
        probes: usize,
        cgs: usize,
    },
    /// CG division failed (non-bipartite conflict graph — possible for
    /// ad-hoc mappings) and the planner fell back to one communication
    /// group per logical group: correct, but the per-batch sync serializes.
    /// `groups` is the number of serial CGs the fallback produced.
    CgFallback { groups: usize, reason: String },
    /// One epoch finished. `compute`/`sync`/`update` are the Fig. 12
    /// breakdown; `aggregation` is the delayed-aggregation share of
    /// `sync` (inter-group sync + broadcast + shuffle for SoCFlow, the
    /// whole sync term for federated rounds, 0 for purely synchronous
    /// methods). `alpha` is the mixed-precision confidence (NaN → null
    /// for methods without a controller); `cpu_fraction` the resulting
    /// CPU share of each batch.
    EpochCompleted {
        epoch: usize,
        accuracy: f32,
        time: f64,
        compute: f64,
        sync: f64,
        update: f64,
        aggregation: f64,
        alpha: f32,
        cpu_fraction: f64,
        energy: f64,
        groups: usize,
    },
    /// The cluster network simulated one transfer: flow count, bytes
    /// moved, modelled makespan, whether any flow crossed a board
    /// boundary, and the utilization of the busiest link
    /// (bytes carried / capacity × makespan; 1.0 = bottleneck saturated
    /// for the whole transfer).
    Transfer {
        flows: usize,
        total_bytes: f64,
        makespan: f64,
        crossed_boards: bool,
        link_utilization: f64,
    },
    /// SoCFlow checkpointed group states before a topology change.
    CheckpointTaken { epoch: usize, groups: usize },
    /// A fault event from the fault plan was applied to a live SoC.
    /// `at` is the modelled time of the fault; `epoch` the epoch boundary
    /// at which the engine observed it.
    FaultInjected {
        at: f64,
        soc: usize,
        kind: FaultClass,
        epoch: usize,
    },
    /// A checkpoint was written to durable storage (`--checkpoint-dir`);
    /// `bytes` is the serialized size and `cost` the modelled seconds
    /// charged to the run for persisting it.
    CheckpointPersisted {
        epoch: usize,
        groups: usize,
        bytes: u64,
        cost: f64,
    },
    /// The engine finished reacting to a window of faults and charged its
    /// recovery stall to the run clock. SoCFlow remapped its survivors
    /// (integrity-greedy + CG planning re-run) and stalls a restore per
    /// crash (0 when every fault was a graceful reclaim); a gang-scheduled
    /// baseline kept its SoCs and stalls a restore per crash plus one
    /// checkpoint-restore round trip if any SoC was reclaimed.
    RecoveryCompleted {
        epoch: usize,
        stall: f64,
        socs_left: usize,
        groups_left: usize,
    },
    /// A group left the cluster; the survivors continue.
    GroupEvicted {
        epoch: usize,
        groups_left: usize,
        socs_left: usize,
    },
    /// A simulated timeline span opened (SoCFlow runs only). `kind`
    /// names the activity (`"compute"`, `"sync"`, `"update"`,
    /// `"leader_ring"`, `"broadcast"`, `"shuffle"`, `"stall"`,
    /// `"checkpoint"`); `lane` names the resource it occupies (`"g3"` for
    /// logical group 3, `"cg0"` for communication group 0, `"cluster"` for
    /// whole-cluster phases); `at` is the modelled run-clock time. The
    /// engine emits a bounded digest (the first iterations of each epoch
    /// plus every epoch-boundary phase), not every span, so traces stay
    /// small at paper scale.
    SpanBegin {
        epoch: usize,
        kind: String,
        lane: String,
        at: f64,
    },
    /// The matching close of a [`Event::SpanBegin`]; same `kind`/`lane`,
    /// `at` is the span's end time on the run clock.
    SpanEnd {
        epoch: usize,
        kind: String,
        lane: String,
        at: f64,
    },
    /// Per-epoch link-class utilization from the fluid timeline
    /// (SoCFlow runs only): fraction of each class's aggregate
    /// byte-capacity actually carried over the epoch, in `0..=1`. Classes
    /// follow the cluster topology: per-SoC SAS links, shared per-board
    /// NICs, and the switch backplane.
    LinkUtilization {
        epoch: usize,
        soc_links: f64,
        board_nics: f64,
        switch: f64,
    },
    /// A gradient bucket finished its wait-free ring transfer
    /// (`--overlap` mode only). `cg` is the communication group, `bucket`
    /// the bucket index in release (reverse-topological) order,
    /// `layer_first..=layer_last` the model layers whose gradients it
    /// carried, `bytes` its share of the wire payload, and `at` the
    /// completion time on the run clock. Like the span digest, the engine
    /// emits a bounded prefix per epoch (the schedule is periodic), not
    /// every flush.
    BucketFlushed {
        epoch: usize,
        cg: usize,
        bucket: usize,
        layer_first: usize,
        layer_last: usize,
        bytes: f64,
        at: f64,
    },
    /// Host-side kernel-profiling totals for one run, emitted once per
    /// micro-kernel family (matmul, conv im2col, quant, …) just before
    /// [`Event::RunCompleted`] — and only when the process-wide kernel
    /// profiler (`socflow_tensor::profile`) is enabled, since timing the
    /// hot loops costs a few percent. `nanos` is real host wall time, not
    /// modelled seconds: it attributes where *this machine* spent an
    /// epoch's compute, complementing the modelled Fig. 12 breakdown.
    KernelTotals { op: String, calls: u64, nanos: u64 },
    /// Worker-pool totals for one run, emitted once just before
    /// [`Event::RunCompleted`] — and, like [`Event::KernelTotals`], only
    /// when the kernel profiler is enabled, so profiler-off traces stay
    /// byte-identical across `SOCFLOW_THREADS` settings. `threads` is the
    /// pool's participation budget; `tasks` counts parallel regions and
    /// `chunks` the shape-fixed chunks they executed; `jobs` counts
    /// one-shot scoped jobs (per-replica training work). `busy_nanos` is
    /// chunk execution time summed over all lanes and `wall_nanos` the
    /// submitters' wall time for the same regions: their ratio is the
    /// pool's effective parallelism. `parks` counts the times an idle lane
    /// gave up polling and blocked, `wakes` the wake-ups issued because one
    /// was blocked when work arrived.
    PoolTotals {
        threads: usize,
        tasks: u64,
        chunks: u64,
        jobs: u64,
        busy_nanos: u64,
        wall_nanos: u64,
        parks: u64,
        wakes: u64,
    },
    /// A training job entered the fleet scheduler's queue (multi-tenant
    /// fleet runs only). `at` is the fleet clock in seconds.
    JobArrived {
        job: usize,
        at: f64,
        priority: u8,
        socs: usize,
        epochs: usize,
    },
    /// The fleet scheduler admitted a queued job onto a server: which
    /// server, how many SoCs it was packed onto, and how long it waited
    /// in the queue.
    JobAdmitted {
        job: usize,
        at: f64,
        server: usize,
        socs: usize,
        queue_wait: f64,
    },
    /// Returning user load reclaimed a running fleet job's SoCs below its
    /// floor; the job checkpointed and went back to the queue with
    /// `epochs_left` epochs of work remaining.
    JobPreempted {
        job: usize,
        at: f64,
        server: usize,
        epochs_left: usize,
    },
    /// A fleet job finished all its epochs. `jct` is the job-completion
    /// time (finish − arrival) on the fleet clock.
    JobCompleted {
        job: usize,
        at: f64,
        server: usize,
        jct: f64,
    },
    /// A logical group's live stream could not fill its epoch data share
    /// within training time (streaming mode only): the group — and, at
    /// the delayed-aggregation barrier, the epoch — stalled for `stall`
    /// modelled seconds waiting for arrivals.
    StreamStalled {
        epoch: usize,
        group: usize,
        stall: f64,
    },
    /// Grouping was re-run by observed stream rate (streaming mode with
    /// rate-aware grouping): the max/min per-SoC rate `spread` exceeded
    /// the regroup threshold, so the `groups` logical groups were
    /// re-dealt rate-homogeneous with rate-proportional data shares.
    RegroupedByRate {
        epoch: usize,
        spread: f64,
        groups: usize,
    },
    /// The plan autotuner priced one candidate parallelization plan on
    /// the simulated clock (`train --auto` / `tune`). `schedule` is the
    /// sync schedule name (`"serial"`, `"interleaved"`, `"wait-free"`),
    /// `bucket_kb` the wait-free gradient-bucket size (0 for monolithic
    /// schedules), and `predicted_s` the predicted epoch time.
    PlanEvaluated {
        groups: usize,
        schedule: String,
        bucket_kb: usize,
        predicted_s: f64,
    },
    /// The plan autotuner committed to a winner: the chosen plan, its
    /// predicted epoch seconds against the default plan's, and the search
    /// totals (`evaluated` candidates priced, `pruned` cut by the epoch
    /// floor, `skipped` left unpriced by a pricing cap).
    PlanChosen {
        groups: usize,
        schedule: String,
        bucket_kb: usize,
        predicted_s: f64,
        default_s: f64,
        evaluated: usize,
        pruned: usize,
        skipped: usize,
    },
    /// The run finished; totals over all epochs.
    RunCompleted {
        epochs: usize,
        total_time: f64,
        compute: f64,
        sync: f64,
        update: f64,
        energy: f64,
        best_accuracy: f32,
    },
}

/// A destination for [`Event`]s.
///
/// Sinks must be shareable across the components of one run (engine,
/// time model, network), hence `Send + Sync`; emission takes `&self`.
pub trait EventSink: Send + Sync + std::fmt::Debug {
    fn emit(&self, event: &Event);
}

/// Swallows every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: &Event) {}
}

/// Records events in memory; the test/bench sink.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Clones the events recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }

    /// Drains and returns the recorded events.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock().unwrap())
    }

    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for MemorySink {
    fn emit(&self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

/// Writes one compact JSON line per event (JSONL), flushing after each
/// event so a trace survives an aborted run.
#[derive(Debug)]
pub struct TraceWriter {
    out: Mutex<BufWriter<File>>,
}

impl TraceWriter {
    /// Creates (truncates) the trace file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(TraceWriter {
            out: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl EventSink for TraceWriter {
    fn emit(&self, event: &Event) {
        let mut out = self.out.lock().unwrap();
        // Trace I/O errors must not kill a training run; drop the event.
        let _ = writeln!(out, "{}", serde_json::to_string(event).unwrap());
        let _ = out.flush();
    }
}

/// Parses a JSONL trace back into events. Blank lines are skipped;
/// malformed lines are errors (a trace is machine-written).
pub fn parse_trace(text: &str) -> Result<Vec<Event>, serde_json::Error> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(serde_json::from_str)
        .collect()
}

/// Reads and parses a JSONL trace file.
pub fn read_trace<P: AsRef<Path>>(path: P) -> Result<Vec<Event>, String> {
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read trace file: {e}"))?;
    parse_trace(&text).map_err(|e| format!("malformed trace: {e}"))
}

/// Fig. 12-style aggregate of one trace: the run's result, folded from the
/// trace exactly as the engine folds it, plus network and resilience
/// counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Summary {
    /// The fold of the trace's accounting events: epochs, Fig. 12
    /// breakdown, energy, α trace and recovery stalls.
    pub run: RunResult,
    /// Delayed-aggregation share of the breakdown's `sync`.
    pub aggregation: f64,
    /// Simulated network transfers.
    pub transfers: usize,
    /// Bytes moved across all transfers.
    pub bytes_moved: f64,
    /// Transfers with at least one inter-board flow.
    pub cross_board_transfers: usize,
    /// Peak per-link utilization over all transfers (0..=1).
    pub max_link_utilization: f64,
    /// Checkpoints taken / groups evicted.
    pub checkpoints: usize,
    pub evictions: usize,
    /// Fault events applied, split by kind.
    pub faults: usize,
    pub reclaims: usize,
    pub crashes: usize,
    /// Durable checkpoints written, their serialized bytes, and the
    /// modelled seconds charged for persisting them.
    pub checkpoints_persisted: usize,
    pub persist_bytes: u64,
    pub persist_cost: f64,
    /// Host kernel-profiling totals (one entry per op family, in emission
    /// order), present only for traces recorded with the profiler on.
    pub kernels: Vec<KernelTime>,
    /// Worker-pool totals (merged across the runs in a window), present only
    /// for traces recorded with the profiler on.
    pub pool: Option<PoolTime>,
    /// Timeline spans recorded (count of `SpanBegin` events; SoCFlow runs
    /// only, 0 otherwise).
    pub spans: usize,
    /// Per-epoch link-class utilization rows, in emission order (SoCFlow
    /// runs only, empty otherwise).
    pub link_timeline: Vec<LinkUtilRow>,
    /// Gradient-bucket flushes recorded (`--overlap` runs only, 0
    /// otherwise).
    pub bucket_flushes: usize,
    /// Wire bytes those flushes carried, summed.
    pub bucket_bytes: f64,
    /// Fleet job lifecycle counters (multi-tenant fleet traces only, all
    /// 0 otherwise): arrivals, admissions, preemptions, completions.
    pub jobs_arrived: usize,
    pub jobs_admitted: usize,
    pub jobs_preempted: usize,
    pub jobs_completed: usize,
    /// Mean job-completion time over `JobCompleted` events, seconds.
    pub mean_jct: f64,
    /// Streaming-ingestion counters (streaming traces only, all 0
    /// otherwise): group-epoch stall events and their summed modelled
    /// seconds, and rate-aware regrouping passes.
    pub stream_stalls: usize,
    /// Summed modelled seconds of [`Event::StreamStalled`] stalls.
    pub stream_stall_cost: f64,
    /// Rate-aware regrouping passes ([`Event::RegroupedByRate`] count).
    pub rate_regroups: usize,
    /// Autotuner counters (`--auto` / `tune` traces only, all 0/None
    /// otherwise): candidates priced on the timeline, candidates cut by
    /// the epoch floor, and candidates left unpriced by a pricing cap
    /// ([`Event::PlanEvaluated`] / [`Event::PlanChosen`]).
    pub plans_evaluated: usize,
    /// Candidates pruned by the epoch floor before pricing.
    pub plans_pruned: usize,
    /// Candidates skipped when a pricing cap ran out.
    pub plans_skipped: usize,
    /// Predicted default-plan / chosen-plan epoch-time ratio (>1 means
    /// the tuned plan is predicted faster); 0 when no plan was chosen.
    pub plan_speedup: f64,
    /// Human-readable chosen plan, e.g. `"12 groups, wait-free @ 2048 KiB"`.
    pub plan_chosen: Option<String>,
}

/// One per-epoch link-utilization row in a [`Summary`] (from
/// [`Event::LinkUtilization`]); all fractions in `0..=1`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LinkUtilRow {
    /// Zero-based epoch the row describes.
    pub epoch: usize,
    /// Utilization of the per-SoC SAS links as a class.
    pub soc_links: f64,
    /// Utilization of the shared per-board NICs as a class.
    pub board_nics: f64,
    /// Utilization of the switch backplane.
    pub switch: f64,
}

/// One aggregated host-kernel timing row in a [`Summary`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct KernelTime {
    pub op: String,
    pub calls: u64,
    pub nanos: u64,
}

/// Aggregated worker-pool activity in a [`Summary`] (from
/// [`Event::PoolTotals`]; counters summed across runs in the window,
/// `threads` is the maximum seen).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PoolTime {
    /// Pool participation budget (max over merged events).
    pub threads: usize,
    /// Parallel regions executed.
    pub tasks: u64,
    /// Shape-fixed chunks executed across all regions.
    pub chunks: u64,
    /// One-shot scoped jobs executed.
    pub jobs: u64,
    /// Summed lane execution nanoseconds.
    pub busy_nanos: u64,
    /// Submitter-side wall nanoseconds of the same regions.
    pub wall_nanos: u64,
    /// Times an idle lane gave up polling and blocked.
    pub parks: u64,
    /// Wake-ups issued to blocked lanes.
    pub wakes: u64,
}

impl PoolTime {
    /// `busy / wall` — average number of lanes doing useful work inside
    /// parallel regions (1.0 = no overlap at all).
    pub fn effective_parallelism(&self) -> f64 {
        if self.wall_nanos > 0 {
            self.busy_nanos as f64 / self.wall_nanos as f64
        } else {
            0.0
        }
    }
}

impl Summary {
    /// Folds an event stream into totals. Works on any slice of events —
    /// a full trace or a window of it.
    pub fn from_events(events: &[Event]) -> Self {
        let mut s = Summary::default();
        for event in events {
            s.run.absorb(event);
            match event {
                Event::EpochCompleted { aggregation, .. } => s.aggregation += aggregation,
                Event::Transfer {
                    total_bytes,
                    crossed_boards,
                    link_utilization,
                    ..
                } => {
                    s.transfers += 1;
                    s.bytes_moved += total_bytes;
                    if *crossed_boards {
                        s.cross_board_transfers += 1;
                    }
                    s.max_link_utilization = s.max_link_utilization.max(*link_utilization);
                }
                Event::CheckpointTaken { .. } => s.checkpoints += 1,
                Event::GroupEvicted { .. } => s.evictions += 1,
                Event::FaultInjected { kind, .. } => {
                    s.faults += 1;
                    match kind {
                        FaultClass::Reclaim => s.reclaims += 1,
                        FaultClass::Crash => s.crashes += 1,
                    }
                }
                Event::CheckpointPersisted { bytes, cost, .. } => {
                    s.checkpoints_persisted += 1;
                    s.persist_bytes += bytes;
                    s.persist_cost += cost;
                }
                Event::KernelTotals { op, calls, nanos } => {
                    // A window can span several runs; merge rows per op.
                    match s.kernels.iter_mut().find(|k| k.op == *op) {
                        Some(k) => {
                            k.calls += calls;
                            k.nanos += nanos;
                        }
                        None => s.kernels.push(KernelTime {
                            op: op.clone(),
                            calls: *calls,
                            nanos: *nanos,
                        }),
                    }
                }
                Event::PoolTotals {
                    threads,
                    tasks,
                    chunks,
                    jobs,
                    busy_nanos,
                    wall_nanos,
                    parks,
                    wakes,
                } => {
                    let row = s.pool.get_or_insert(PoolTime {
                        threads: 0,
                        tasks: 0,
                        chunks: 0,
                        jobs: 0,
                        busy_nanos: 0,
                        wall_nanos: 0,
                        parks: 0,
                        wakes: 0,
                    });
                    row.threads = row.threads.max(*threads);
                    row.tasks += tasks;
                    row.chunks += chunks;
                    row.jobs += jobs;
                    row.busy_nanos += busy_nanos;
                    row.wall_nanos += wall_nanos;
                    row.parks += parks;
                    row.wakes += wakes;
                }
                Event::SpanBegin { .. } => s.spans += 1,
                Event::BucketFlushed { bytes, .. } => {
                    s.bucket_flushes += 1;
                    s.bucket_bytes += bytes;
                }
                Event::LinkUtilization {
                    epoch,
                    soc_links,
                    board_nics,
                    switch,
                } => s.link_timeline.push(LinkUtilRow {
                    epoch: *epoch,
                    soc_links: *soc_links,
                    board_nics: *board_nics,
                    switch: *switch,
                }),
                Event::StreamStalled { stall, .. } => {
                    s.stream_stalls += 1;
                    s.stream_stall_cost += stall;
                }
                Event::RegroupedByRate { .. } => s.rate_regroups += 1,
                Event::PlanEvaluated { .. } => s.plans_evaluated += 1,
                Event::PlanChosen {
                    groups,
                    schedule,
                    bucket_kb,
                    predicted_s,
                    default_s,
                    pruned,
                    skipped,
                    ..
                } => {
                    s.plans_pruned += pruned;
                    s.plans_skipped += skipped;
                    s.plan_speedup = if *predicted_s > 0.0 {
                        default_s / predicted_s
                    } else {
                        0.0
                    };
                    s.plan_chosen = Some(if *bucket_kb > 0 {
                        format!("{groups} groups, {schedule} @ {bucket_kb} KiB")
                    } else {
                        format!("{groups} groups, {schedule}")
                    });
                }
                Event::JobArrived { .. } => s.jobs_arrived += 1,
                Event::JobAdmitted { .. } => s.jobs_admitted += 1,
                Event::JobPreempted { .. } => s.jobs_preempted += 1,
                Event::JobCompleted { jct, .. } => {
                    // incremental mean keeps the field directly usable
                    s.mean_jct += (jct - s.mean_jct) / (s.jobs_completed as f64 + 1.0);
                    s.jobs_completed += 1;
                }
                Event::RunStarted { .. }
                | Event::RecoveryCompleted { .. }
                | Event::PlanComputed { .. }
                | Event::CgFallback { .. }
                | Event::SpanEnd { .. }
                | Event::RunCompleted { .. } => {}
            }
        }
        s
    }

    /// Human-readable multi-line report (what `socflow trace summarize`
    /// prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let run = &self.run;
        let total = run.total_time();
        let share = |name: &str, part: f64| {
            let pct = if total > 0.0 {
                100.0 * part / total
            } else {
                0.0
            };
            format!("  {name:<15}{part:.3} s ({pct:.1}%)\n")
        };
        let b = run.breakdown;
        out.push_str(&format!("epochs           {}\n", run.epoch_time.len()));
        out.push_str(&format!("total time       {total:.3} s\n"));
        out.push_str(&share("compute", b.compute));
        out.push_str(&share("sync", b.sync));
        out.push_str(&format!("    aggregation  {:.3} s\n", self.aggregation));
        out.push_str(&share("update", b.update));
        out.push_str(&share("recovery", run.recovery_time));
        out.push_str(&format!("energy           {:.1} J\n", run.energy_joules));
        out.push_str(&format!("best accuracy    {:.4}\n", run.best_accuracy()));
        let alphas = || run.alpha_trace.iter().filter(|a| a.is_finite());
        match (alphas().next(), alphas().next_back()) {
            (Some(a0), Some(a1)) => {
                out.push_str(&format!("alpha            {a0:.4} -> {a1:.4}\n"));
            }
            _ => out.push_str("alpha            n/a\n"),
        }
        out.push_str(&format!(
            "transfers        {} ({:.1} MB moved, {} cross-board)\n",
            self.transfers,
            self.bytes_moved / 1e6,
            self.cross_board_transfers
        ));
        out.push_str(&format!(
            "peak link util   {:.1}%\n",
            100.0 * self.max_link_utilization
        ));
        out.push_str(&format!(
            "resilience       {} checkpoints, {} evictions\n",
            self.checkpoints, self.evictions
        ));
        if self.faults > 0 || self.checkpoints_persisted > 0 {
            out.push_str(&format!(
                "faults           {} ({} reclaims, {} crashes), {:.3} s recovery\n",
                self.faults, self.reclaims, self.crashes, run.recovery_time
            ));
            out.push_str(&format!(
                "durable ckpts    {} ({:.1} KB, {:.3} s persist)\n",
                self.checkpoints_persisted,
                self.persist_bytes as f64 / 1e3,
                self.persist_cost
            ));
        }
        if self.spans > 0 || !self.link_timeline.is_empty() {
            out.push_str(&format!("timeline spans   {}\n", self.spans));
            if self.bucket_flushes > 0 {
                out.push_str(&format!(
                    "bucket flushes   {} ({:.1} MB gradient wire)\n",
                    self.bucket_flushes,
                    self.bucket_bytes / 1e6
                ));
            }
            if !self.link_timeline.is_empty() {
                let n = self.link_timeline.len() as f64;
                let avg = |f: fn(&LinkUtilRow) -> f64| {
                    100.0 * self.link_timeline.iter().map(f).sum::<f64>() / n
                };
                out.push_str(&format!(
                    "link util (avg)  soc {:.1}%, nic {:.1}%, switch {:.1}%\n",
                    avg(|r| r.soc_links),
                    avg(|r| r.board_nics),
                    avg(|r| r.switch)
                ));
            }
        }
        if self.stream_stalls > 0 || self.rate_regroups > 0 {
            out.push_str(&format!(
                "streaming        {} stalls ({:.3} s), {} rate regroups\n",
                self.stream_stalls, self.stream_stall_cost, self.rate_regroups
            ));
        }
        if let Some(plan) = &self.plan_chosen {
            out.push_str(&format!(
                "autotune         {} evaluated, {} pruned, {} skipped; {:.2}x predicted vs default ({plan})\n",
                self.plans_evaluated, self.plans_pruned, self.plans_skipped, self.plan_speedup
            ));
        }
        if self.jobs_arrived > 0 {
            out.push_str(&format!(
                "fleet jobs       {} arrived, {} admitted, {} preempted, {} completed\n",
                self.jobs_arrived, self.jobs_admitted, self.jobs_preempted, self.jobs_completed
            ));
            if self.jobs_completed > 0 {
                out.push_str(&format!("mean JCT         {:.1} s\n", self.mean_jct));
            }
        }
        if !self.kernels.is_empty() {
            let total: u64 = self.kernels.iter().map(|k| k.nanos).sum();
            out.push_str(&format!(
                "host kernels     {:.3} s measured\n",
                total as f64 / 1e9
            ));
            for k in &self.kernels {
                let share = if total > 0 {
                    100.0 * k.nanos as f64 / total as f64
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "  {:<14} {:.3} s ({share:.1}%, {} calls)\n",
                    k.op,
                    k.nanos as f64 / 1e9,
                    k.calls
                ));
            }
        }
        if let Some(p) = &self.pool {
            out.push_str(&format!(
                "worker pool      {} threads, {} tasks ({} chunks), {} jobs, {} parks, {} wakes\n",
                p.threads, p.tasks, p.chunks, p.jobs, p.parks, p.wakes
            ));
            if p.wall_nanos > 0 {
                out.push_str(&format!(
                    "  parallel time  {:.3} s busy / {:.3} s wall ({:.2}x effective)\n",
                    p.busy_nanos as f64 / 1e9,
                    p.wall_nanos as f64 / 1e9,
                    p.effective_parallelism()
                ));
            }
        }
        out
    }
}

/// Renders *every* recorded timeline span as a table (what
/// `socflow-cli trace summarize --spans-full` prints), instead of the
/// count the digest-oriented [`Summary::render`] shows. Gradient-bucket
/// lanes (`cg<c>/b<b>`) are annotated with the model layers their bucket
/// carries, and a trailing section groups the bucket lanes by layer range
/// with flush counts and wire bytes, so wait-free overlap is inspectable
/// span by span.
pub fn render_spans(events: &[Event]) -> String {
    struct Row {
        epoch: usize,
        kind: String,
        lane: String,
        start: f64,
        end: Option<f64>,
    }
    let mut rows: Vec<Row> = Vec::new();
    // (cg, bucket) -> (layer_first, layer_last, total bytes, flushes)
    let mut buckets: std::collections::BTreeMap<(usize, usize), (usize, usize, f64, usize)> =
        std::collections::BTreeMap::new();
    for e in events {
        match e {
            Event::SpanBegin {
                epoch,
                kind,
                lane,
                at,
            } => rows.push(Row {
                epoch: *epoch,
                kind: kind.clone(),
                lane: lane.clone(),
                start: *at,
                end: None,
            }),
            Event::SpanEnd {
                epoch,
                kind,
                lane,
                at,
            } => {
                if let Some(r) = rows.iter_mut().find(|r| {
                    r.end.is_none() && r.epoch == *epoch && &r.kind == kind && &r.lane == lane
                }) {
                    r.end = Some(*at);
                }
            }
            Event::BucketFlushed {
                cg,
                bucket,
                layer_first,
                layer_last,
                bytes,
                ..
            } => {
                let entry =
                    buckets
                        .entry((*cg, *bucket))
                        .or_insert((*layer_first, *layer_last, 0.0, 0));
                entry.2 += bytes;
                entry.3 += 1;
            }
            _ => {}
        }
    }
    let layers_of = |lane: &str| -> Option<(usize, usize)> {
        let (cg, b) = lane.split_once("/b")?;
        let key = (cg.strip_prefix("cg")?.parse().ok()?, b.parse().ok()?);
        buckets.get(&key).map(|&(first, last, _, _)| (first, last))
    };
    let mut out = format!("spans ({} recorded)\n", rows.len());
    out.push_str(&format!(
        "{:<6} {:<10} {:<12} {:>10} {:>10} {:>9}\n",
        "epoch", "lane", "kind", "start", "end", "dur"
    ));
    for r in &rows {
        let (end, dur) = match r.end {
            Some(end) => (format!("{end:.3}"), format!("{:.3}", end - r.start)),
            None => ("?".into(), "?".into()),
        };
        let note = match layers_of(&r.lane) {
            Some((first, last)) => format!("  layers {first}..={last}"),
            None => String::new(),
        };
        out.push_str(&format!(
            "{:<6} {:<10} {:<12} {:>10.3} {:>10} {:>9}{}\n",
            r.epoch, r.lane, r.kind, r.start, end, dur, note
        ));
    }
    if !buckets.is_empty() {
        out.push_str("gradient buckets by layer\n");
        for (&(cg, bucket), &(first, last, bytes, flushes)) in &buckets {
            out.push_str(&format!(
                "  cg{cg}/b{bucket}  layers {first}..={last}  {flushes} flushes  {:.1} MB\n",
                bytes / 1e6
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch_event(epoch: usize, compute: f64, sync: f64, update: f64) -> Event {
        Event::EpochCompleted {
            epoch,
            accuracy: 0.5 + epoch as f32 * 0.01,
            time: compute + sync + update,
            compute,
            sync,
            update,
            aggregation: sync * 0.5,
            alpha: 0.2 + epoch as f32 * 0.1,
            cpu_fraction: 0.8,
            energy: 10.0,
            groups: 4,
        }
    }

    #[test]
    fn events_round_trip_through_json_lines() {
        let events = vec![
            Event::RunStarted {
                method: "socflow".into(),
                socs: 32,
                epochs: 2,
                seed: 7,
            },
            epoch_event(0, 3.0, 1.0, 0.5),
            Event::Transfer {
                flows: 8,
                total_bytes: 1.5e6,
                makespan: 0.25,
                crossed_boards: true,
                link_utilization: 0.9,
            },
            Event::GroupEvicted {
                epoch: 1,
                groups_left: 3,
                socs_left: 24,
            },
        ];
        let text: String = events
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect();
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed, events);
    }

    /// Traces written when `GroupEvicted` still named a cause parse, and
    /// fold as they did.
    #[test]
    fn older_traces_with_an_eviction_cause_still_parse_and_fold() {
        let text = concat!(
            r#"{"GroupEvicted":{"epoch":6,"cause":"Fault","groups_left":7,"socs_left":28}}"#,
            "\n",
            r#"{"RecoveryCompleted":{"epoch":6,"stall":1.5,"socs_left":28,"groups_left":7}}"#,
            "\n",
        );
        let events = parse_trace(text).unwrap();
        assert_eq!(
            events[0],
            Event::GroupEvicted {
                epoch: 6,
                groups_left: 7,
                socs_left: 28,
            }
        );
        let s = Summary::from_events(&events);
        assert_eq!((s.evictions, s.run.recovery_time), (1, 1.5));
    }

    #[test]
    fn bucket_flushed_round_trips_and_renders_grouped_by_layer() {
        let events = vec![
            Event::SpanBegin {
                epoch: 0,
                kind: "bucket".into(),
                lane: "cg0/b1".into(),
                at: 1.0,
            },
            Event::SpanEnd {
                epoch: 0,
                kind: "bucket".into(),
                lane: "cg0/b1".into(),
                at: 1.5,
            },
            Event::BucketFlushed {
                epoch: 0,
                cg: 0,
                bucket: 1,
                layer_first: 3,
                layer_last: 7,
                bytes: 2e6,
                at: 1.5,
            },
        ];
        let text: String = events
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect();
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed, events);
        let s = Summary::from_events(&parsed);
        assert_eq!(s.bucket_flushes, 1);
        assert!((s.bucket_bytes - 2e6).abs() < 1e-9);
        assert!(s.render().contains("bucket flushes"), "{}", s.render());
        let full = render_spans(&parsed);
        assert!(full.contains("cg0/b1"), "{full}");
        assert!(full.contains("layers 3..=7"), "{full}");
        assert!(full.contains("1 flushes"), "{full}");
    }

    #[test]
    fn nan_alpha_round_trips_as_null() {
        let e = Event::EpochCompleted {
            epoch: 0,
            accuracy: 0.1,
            time: 1.0,
            compute: 1.0,
            sync: 0.0,
            update: 0.0,
            aggregation: 0.0,
            alpha: f32::NAN,
            cpu_fraction: 1.0,
            energy: 0.0,
            groups: 1,
        };
        let line = serde_json::to_string(&e).unwrap();
        assert!(line.contains("\"alpha\":null"), "{line}");
        let back: Event = serde_json::from_str(&line).unwrap();
        match back {
            Event::EpochCompleted { alpha, .. } => assert!(alpha.is_nan()),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn memory_sink_records_in_order() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.emit(&epoch_event(0, 1.0, 0.5, 0.1));
        sink.emit(&epoch_event(1, 1.0, 0.4, 0.1));
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(sink.len(), 2);
        let drained = sink.take();
        assert_eq!(drained, events);
        assert!(sink.is_empty());
    }

    #[test]
    fn trace_writer_produces_parseable_jsonl() {
        let path = std::env::temp_dir().join("socflow_telemetry_writer_test.jsonl");
        {
            let writer = TraceWriter::create(&path).unwrap();
            writer.emit(&epoch_event(0, 2.0, 1.0, 0.25));
            writer.emit(&Event::RunCompleted {
                epochs: 1,
                total_time: 3.25,
                compute: 2.0,
                sync: 1.0,
                update: 0.25,
                energy: 5.0,
                best_accuracy: 0.5,
            });
        }
        let events = read_trace(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[1], Event::RunCompleted { .. }));
    }

    #[test]
    fn summary_aggregates_breakdown_exactly() {
        let events = vec![
            epoch_event(0, 3.0, 1.0, 0.5),
            epoch_event(1, 3.0, 0.75, 0.5),
            Event::Transfer {
                flows: 4,
                total_bytes: 2e6,
                makespan: 0.5,
                crossed_boards: false,
                link_utilization: 0.4,
            },
            Event::Transfer {
                flows: 4,
                total_bytes: 1e6,
                makespan: 0.5,
                crossed_boards: true,
                link_utilization: 0.7,
            },
            Event::CheckpointTaken {
                epoch: 1,
                groups: 4,
            },
            Event::GroupEvicted {
                epoch: 1,
                groups_left: 3,
                socs_left: 24,
            },
        ];
        let s = Summary::from_events(&events);
        assert_eq!(s.run.epoch_time, [4.5, 4.25]);
        let b = s.run.breakdown;
        assert_eq!((b.compute, b.sync, b.update), (6.0, 1.75, 1.0));
        assert_eq!(s.aggregation, 0.875);
        assert_eq!(s.run.total_time(), 8.75);
        assert_eq!(s.run.energy_joules, 20.0);
        assert_eq!(s.transfers, 2);
        assert_eq!(s.bytes_moved, 3e6);
        assert_eq!(s.cross_board_transfers, 1);
        assert_eq!(s.max_link_utilization, 0.7);
        assert_eq!(s.checkpoints, 1);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.run.alpha_trace, [0.2, 0.3]);
        let report = s.render();
        assert!(report.contains("epochs           2"));
        assert!(
            report.contains("  sync           1.750 s (20.0%)"),
            "{report}"
        );
        assert!(
            report.contains("  recovery       0.000 s (0.0%)"),
            "{report}"
        );
        assert!(report.contains("alpha            0.2000 -> 0.3000"));
    }

    #[test]
    fn summary_merges_kernel_totals_per_op() {
        let events = vec![
            Event::KernelTotals {
                op: "matmul".into(),
                calls: 10,
                nanos: 1_000,
            },
            Event::KernelTotals {
                op: "im2col".into(),
                calls: 2,
                nanos: 500,
            },
            // second run in the same trace window: rows merge per op
            Event::KernelTotals {
                op: "matmul".into(),
                calls: 5,
                nanos: 2_000,
            },
        ];
        let s = Summary::from_events(&events);
        assert_eq!(s.kernels.len(), 2);
        assert_eq!(s.kernels[0].op, "matmul");
        assert_eq!(s.kernels[0].calls, 15);
        assert_eq!(s.kernels[0].nanos, 3_000);
        assert_eq!(s.kernels[1].op, "im2col");
        let report = s.render();
        assert!(report.contains("host kernels"), "{report}");
        assert!(report.contains("matmul"), "{report}");
    }

    #[test]
    fn summary_attributes_fault_and_persist_costs() {
        let events = vec![
            Event::FaultInjected {
                at: 12.5,
                soc: 3,
                kind: FaultClass::Reclaim,
                epoch: 1,
            },
            Event::FaultInjected {
                at: 19.0,
                soc: 7,
                kind: FaultClass::Crash,
                epoch: 2,
            },
            Event::CheckpointPersisted {
                epoch: 1,
                groups: 4,
                bytes: 2048,
                cost: 0.5,
            },
            Event::CheckpointPersisted {
                epoch: 3,
                groups: 3,
                bytes: 1024,
                cost: 0.25,
            },
            Event::RecoveryCompleted {
                epoch: 2,
                stall: 1.5,
                socs_left: 14,
                groups_left: 3,
            },
            Event::RecoveryCompleted {
                epoch: 4,
                stall: 0.0,
                socs_left: 13,
                groups_left: 3,
            },
        ];
        // the new variants must round-trip through JSONL like the rest
        let text: String = events
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect();
        assert_eq!(parse_trace(&text).unwrap(), events);

        let s = Summary::from_events(&events);
        assert_eq!(s.faults, 2);
        assert_eq!(s.reclaims, 1);
        assert_eq!(s.crashes, 1);
        assert_eq!(s.checkpoints_persisted, 2);
        assert_eq!(s.persist_bytes, 3072);
        assert!((s.persist_cost - 0.75).abs() < 1e-12);
        assert_eq!(s.run.recovery_time, 1.5);
        let report = s.render();
        assert!(report.contains("total time       1.500 s"), "{report}");
        assert!(
            report.contains("  recovery       1.500 s (100.0%)"),
            "{report}"
        );
        assert!(
            report.contains("faults           2 (1 reclaims, 1 crashes)"),
            "{report}"
        );
        assert!(report.contains("durable ckpts    2"), "{report}");
    }

    #[test]
    fn summary_collects_spans_and_link_timeline() {
        let events = vec![
            Event::SpanBegin {
                epoch: 0,
                kind: "compute".into(),
                lane: "g0".into(),
                at: 0.0,
            },
            Event::SpanEnd {
                epoch: 0,
                kind: "compute".into(),
                lane: "g0".into(),
                at: 1.5,
            },
            Event::SpanBegin {
                epoch: 0,
                kind: "sync".into(),
                lane: "cg0".into(),
                at: 1.5,
            },
            Event::LinkUtilization {
                epoch: 0,
                soc_links: 0.5,
                board_nics: 0.25,
                switch: 0.01,
            },
            Event::LinkUtilization {
                epoch: 1,
                soc_links: 0.7,
                board_nics: 0.35,
                switch: 0.03,
            },
        ];
        // the timeline variants round-trip through JSONL like the rest
        let text: String = events
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect();
        assert_eq!(parse_trace(&text).unwrap(), events);

        let s = Summary::from_events(&events);
        assert_eq!(s.spans, 2); // SpanEnd does not count
        assert_eq!(s.link_timeline.len(), 2);
        assert_eq!(s.link_timeline[1].epoch, 1);
        assert!((s.link_timeline[1].soc_links - 0.7).abs() < 1e-12);
        let report = s.render();
        assert!(report.contains("timeline spans   2"), "{report}");
        assert!(
            report.contains("link util (avg)  soc 60.0%, nic 30.0%, switch 2.0%"),
            "{report}"
        );
    }

    #[test]
    fn job_lifecycle_events_round_trip_and_aggregate() {
        let events = vec![
            Event::JobArrived {
                job: 0,
                at: 0.0,
                priority: 2,
                socs: 16,
                epochs: 4,
            },
            Event::JobArrived {
                job: 1,
                at: 120.0,
                priority: 1,
                socs: 8,
                epochs: 2,
            },
            Event::JobAdmitted {
                job: 0,
                at: 60.0,
                server: 0,
                socs: 16,
                queue_wait: 60.0,
            },
            Event::JobPreempted {
                job: 0,
                at: 3600.0,
                server: 0,
                epochs_left: 2,
            },
            Event::JobCompleted {
                job: 0,
                at: 7200.0,
                server: 1,
                jct: 7200.0,
            },
            Event::JobCompleted {
                job: 1,
                at: 3720.0,
                server: 0,
                jct: 3600.0,
            },
        ];
        let text: String = events
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect();
        assert_eq!(parse_trace(&text).unwrap(), events);

        let s = Summary::from_events(&events);
        assert_eq!(s.jobs_arrived, 2);
        assert_eq!(s.jobs_admitted, 1);
        assert_eq!(s.jobs_preempted, 1);
        assert_eq!(s.jobs_completed, 2);
        assert!((s.mean_jct - 5400.0).abs() < 1e-9, "{}", s.mean_jct);
        let report = s.render();
        assert!(
            report.contains("fleet jobs       2 arrived, 1 admitted, 1 preempted, 2 completed"),
            "{report}"
        );
        assert!(report.contains("mean JCT         5400.0 s"), "{report}");
    }

    #[test]
    fn streaming_events_round_trip_and_summarize() {
        let events = vec![
            Event::RegroupedByRate {
                epoch: 0,
                spread: 3.2,
                groups: 4,
            },
            Event::StreamStalled {
                epoch: 0,
                group: 2,
                stall: 1.5,
            },
            Event::StreamStalled {
                epoch: 1,
                group: 2,
                stall: 0.5,
            },
        ];
        let text: String = events
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect();
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed, events);
        let s = Summary::from_events(&parsed);
        assert_eq!(s.stream_stalls, 2);
        assert!((s.stream_stall_cost - 2.0).abs() < 1e-12);
        assert_eq!(s.rate_regroups, 1);
        let report = s.render();
        assert!(
            report.contains("streaming        2 stalls (2.000 s), 1 rate regroups"),
            "{report}"
        );
        // non-streaming traces keep the section out of the report
        let quiet = Summary::from_events(&[epoch_event(0, 1.0, 0.5, 0.1)]);
        assert!(!quiet.render().contains("streaming"), "{}", quiet.render());
    }

    #[test]
    fn autotune_events_round_trip_and_summarize() {
        let events = vec![
            Event::PlanEvaluated {
                groups: 8,
                schedule: "interleaved".into(),
                bucket_kb: 0,
                predicted_s: 120.0,
            },
            Event::PlanEvaluated {
                groups: 12,
                schedule: "wait-free".into(),
                bucket_kb: 2048,
                predicted_s: 100.0,
            },
            Event::PlanChosen {
                groups: 12,
                schedule: "wait-free".into(),
                bucket_kb: 2048,
                predicted_s: 100.0,
                default_s: 120.0,
                evaluated: 2,
                pruned: 5,
                skipped: 1,
            },
        ];
        let text: String = events
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect();
        assert_eq!(parse_trace(&text).unwrap(), events);
        let s = Summary::from_events(&events);
        assert_eq!(s.plans_evaluated, 2);
        assert_eq!(s.plans_pruned, 5);
        assert_eq!(s.plans_skipped, 1);
        assert!((s.plan_speedup - 1.2).abs() < 1e-12);
        assert_eq!(
            s.plan_chosen.as_deref(),
            Some("12 groups, wait-free @ 2048 KiB")
        );
        let report = s.render();
        assert!(
            report.contains("autotune         2 evaluated, 5 pruned, 1 skipped"),
            "{report}"
        );
        assert!(report.contains("1.20x predicted vs default"), "{report}");
        // non-autotuned traces keep the section out of the report
        let quiet = Summary::from_events(&[epoch_event(0, 1.0, 0.5, 0.1)]);
        assert!(!quiet.render().contains("autotune"), "{}", quiet.render());
    }

    #[test]
    fn summary_ignores_nan_alpha_epochs() {
        let mut e = epoch_event(0, 1.0, 0.0, 0.0);
        if let Event::EpochCompleted { alpha, .. } = &mut e {
            *alpha = f32::NAN;
        }
        let s = Summary::from_events(&[e]);
        assert!(s.render().contains("alpha            n/a"));
    }
}
