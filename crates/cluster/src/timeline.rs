//! Discrete-event fluid timeline: spans and flow sets on a shared clock.
//!
//! [`ClusterNet::transfer`](crate::net::ClusterNet::transfer) prices one
//! flow set in isolation. The timeline generalizes that to *many* tasks
//! live at once: fixed-duration **spans** (compute, parameter updates) and
//! fluid **flow batches** (collective steps) all advance against one
//! simulated clock, and every batch admitted mid-flight changes the
//! max-min rates so concurrent transfers contend exactly as the fluid
//! model says they should (preemptable fluid flows).
//!
//! Rates are a pure function of the ordered active flow set and the link
//! capacities, so they are recomputed only when that set changes (a
//! batch gets past its latency, a flow drains), and a change first looks
//! its configuration up in a table of the ones this run has already
//! solved: the iterations of an epoch and the ring steps of a bucket
//! repeat the same few dozen flow sets, and the solver runs once for
//! each. [`timeline_stats`] counts steps, solves and reuses.
//!
//! The driver pattern is event-reactive: callers admit tasks at the
//! current clock, call [`FluidTimeline::advance`] to step to the next
//! completion, and admit successor tasks in response. Because admissions
//! only ever happen at event times, the schedule is a deterministic
//! function of the admitted task sequence — no wall-clock, no randomness.
//!
//! Per-link carried bytes are accumulated as flows progress, so after a
//! run the timeline can report average utilization per link *class* (SoC
//! links, board NICs, switch backplane) — the observability half of the
//! paper's §2.3 bottleneck story.

use crate::net::{ClusterNet, Flow, LinkPath, MaxMinScratch};
use crate::Seconds;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// Handle to a task admitted to the timeline. Ids are dense and assigned
/// in admission order, which also fixes the tie-break order when several
/// tasks complete at the same instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(pub usize);

/// One completed task: which, and when the clock read at completion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The completed task.
    pub id: TaskId,
    /// Simulated completion time, seconds from timeline start.
    pub at: Seconds,
}

/// Average utilization per link class over a horizon: bytes actually
/// carried divided by what the class could have carried. All values are
/// fractions in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkClassUtil {
    /// SoC SAS links (tx + rx).
    pub soc_links: f64,
    /// Board NIC uplinks (tx + rx) — the paper's shared bottleneck.
    pub board_nics: f64,
    /// Switch backplane.
    pub switch: f64,
}

/// Drain threshold matching `ClusterNet`'s fluid integration: a flow with
/// fewer residual bytes than this is complete.
const DRAIN_EPS: f64 = 1e-9;
/// Residual-seconds threshold below which a span or latency is complete.
const TIME_EPS: f64 = 1e-12;

#[derive(Clone, Copy)]
struct FlowState {
    remaining: f64,
    path: LinkPath,
    /// `src << 16 | dst`. A path is a function of its endpoints, so the
    /// pair is the path's id in the rate table's keys.
    pair: u32,
}

enum Work {
    Span {
        remaining: Seconds,
    },
    /// `flows` indexes the scratch's flow arena (meaningful while the
    /// batch is live); `undrained` counts the flows of that range still
    /// above [`DRAIN_EPS`].
    Batch {
        latency_left: Seconds,
        flows: std::ops::Range<u32>,
        undrained: u32,
    },
}

impl Work {
    fn is_complete(&self) -> bool {
        match self {
            Work::Span { remaining } => *remaining <= TIME_EPS,
            Work::Batch {
                latency_left,
                undrained,
                ..
            } => *latency_left <= TIME_EPS && *undrained == 0,
        }
    }
}

/// One flow of the active set: its arena index and owning task.
#[derive(Clone, Copy)]
struct ActiveFlow {
    flow: u32,
    task: u32,
}

/// Max scratches parked per thread; repeated pricing is serial per
/// thread, so a small pool covers nested timelines without hoarding.
const SCRATCH_POOL_CAP: usize = 4;
/// Max flows (key words, and as many rates) one run's rate table holds.
/// A full table stops learning and every further miss just solves.
const RATE_TABLE_CAP: usize = 1 << 16;

/// Solved rates by active-flow configuration, for one run. Max-min rates
/// are a pure function of the ordered active paths and the link
/// capacities, and an epoch repeats a few dozen configurations thousands
/// of times (every iteration, every ring step of every bucket).
#[derive(Default)]
struct RateTable {
    /// Configuration hash → offset of its entry in `keys` / `rates`.
    index: HashMap<u64, (u32, u32)>,
    /// Concatenated keys: the `pair` of every active flow, in live order.
    keys: Vec<u32>,
    /// Concatenated rates, at the same offsets as `keys`.
    rates: Vec<f64>,
}

impl RateTable {
    fn clear(&mut self) {
        self.index.clear();
        self.keys.clear();
        self.rates.clear();
    }
}

/// Reusable buffers for one timeline run: the task/event queue, the flow
/// arena, the live and active sets, per-link carried bytes, the rate
/// table and the solver's workspaces. Parked in a thread-local pool
/// between runs so repeated pricing (the autotuner's bread and butter)
/// stops paying allocation churn per call.
#[derive(Default)]
struct TimelineScratch {
    tasks: Vec<Work>,
    /// The flows of the live batches, batch after batch in live order,
    /// between those of batches already reported (compacted away once
    /// they are most of the arena).
    flows: Vec<FlowState>,
    live: Vec<usize>,
    carried: Vec<f64>,
    /// Undrained flows of the live batches past their latency, in live
    /// order; valid unless `FluidTimeline::stale`.
    active: Vec<ActiveFlow>,
    /// Max-min rate of each active flow, parallel to `active`.
    rates: Vec<f64>,
    table: RateTable,
    solver: MaxMinScratch,
}

impl TimelineScratch {
    /// Clears run state; capacity is what the free-list exists to keep.
    fn reset(&mut self) {
        self.tasks.clear();
        self.flows.clear();
        self.live.clear();
        self.carried.clear();
        self.active.clear();
        self.rates.clear();
        self.table.clear();
    }
}

thread_local! {
    static SCRATCH_POOL: RefCell<Vec<TimelineScratch>> = const { RefCell::new(Vec::new()) };
    static SCRATCH_ACQUIRES: Cell<u64> = const { Cell::new(0) };
    static SCRATCH_MISSES: Cell<u64> = const { Cell::new(0) };
    static TIMELINE_STATS: Cell<TimelineStats> = const { Cell::new(TimelineStats::ZERO) };
}

fn acquire_scratch() -> TimelineScratch {
    SCRATCH_ACQUIRES.with(|c| c.set(c.get() + 1));
    let parked = SCRATCH_POOL.with(|p| p.borrow_mut().pop());
    parked.unwrap_or_else(|| {
        SCRATCH_MISSES.with(|c| c.set(c.get() + 1));
        TimelineScratch::default()
    })
}

fn release_scratch(mut scratch: TimelineScratch) {
    scratch.reset();
    SCRATCH_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
    });
}

/// Counters over the calling thread's scratch free-list (the pool is
/// thread-local, so the counters are too — measurements can't be
/// polluted by other threads pricing concurrently).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize)]
pub struct ScratchStats {
    /// Scratch acquisitions — one per [`FluidTimeline::new`].
    pub acquires: u64,
    /// Acquisitions that allocated fresh because the pool was empty.
    /// `acquires > misses` witnesses buffer reuse across runs.
    pub misses: u64,
}

/// Snapshot of this thread's scratch free-list counters
/// (see [`ScratchStats`]).
pub fn scratch_stats() -> ScratchStats {
    ScratchStats {
        acquires: SCRATCH_ACQUIRES.with(|c| c.get()),
        misses: SCRATCH_MISSES.with(|c| c.get()),
    }
}

/// Zeroes this thread's scratch free-list counters (the parked buffers
/// stay, so a post-reset acquisition still hits the pool).
pub fn reset_scratch_stats() {
    SCRATCH_ACQUIRES.with(|c| c.set(0));
    SCRATCH_MISSES.with(|c| c.set(0));
}

/// How much rate solving the timelines of one thread did. The counts are
/// exact functions of the admitted task sequences, so a difference of
/// two snapshots is evidence a noisy host cannot blur.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimelineStats {
    /// Fluid integration steps (one per event: span end, latency expiry
    /// or flow drain).
    pub steps: u64,
    /// Changes of the active flow set answered by running the max-min
    /// solver.
    pub rate_solves: u64,
    /// Changes of the active flow set answered from the run's rate table.
    pub rate_reuses: u64,
}

impl TimelineStats {
    const ZERO: TimelineStats = TimelineStats {
        steps: 0,
        rate_solves: 0,
        rate_reuses: 0,
    };
}

impl std::ops::Sub for TimelineStats {
    type Output = TimelineStats;
    fn sub(self, earlier: TimelineStats) -> TimelineStats {
        TimelineStats {
            steps: self.steps - earlier.steps,
            rate_solves: self.rate_solves - earlier.rate_solves,
            rate_reuses: self.rate_reuses - earlier.rate_reuses,
        }
    }
}

impl std::ops::AddAssign for TimelineStats {
    fn add_assign(&mut self, other: TimelineStats) {
        self.steps += other.steps;
        self.rate_solves += other.rate_solves;
        self.rate_reuses += other.rate_reuses;
    }
}

/// Running totals over every timeline this thread has dropped (see
/// [`TimelineStats`]); subtract two snapshots to measure a region.
pub fn timeline_stats() -> TimelineStats {
    TIMELINE_STATS.with(|c| c.get())
}

/// The event-driven timeline simulator (see the module docs for the
/// driver contract).
pub struct FluidTimeline<'n> {
    net: &'n ClusterNet,
    now: Seconds,
    /// All run state lives in the scratch: the task/event queue, the
    /// unreported-task live set (kept in admission order, so each event
    /// is O(live) instead of O(all admitted) — an epoch can admit ~10⁵
    /// tasks but only ~10² are ever live at once), per-link carried
    /// bytes, and the rate state. Acquired from a thread-local free-list
    /// and parked again on drop.
    scratch: TimelineScratch,
    /// The active flow set changed since `scratch.rates` was computed: a
    /// batch got past its latency (or was admitted without one) or a flow
    /// drained. Nothing else moves the rates.
    stale: bool,
    /// Arena flows whose batch has been reported.
    dead_flows: usize,
    stats: TimelineStats,
}

impl std::fmt::Debug for FluidTimeline<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FluidTimeline")
            .field("now", &self.now)
            .field("tasks", &self.scratch.tasks.len())
            .finish()
    }
}

impl Drop for FluidTimeline<'_> {
    fn drop(&mut self) {
        let mut total = timeline_stats();
        total += self.stats;
        TIMELINE_STATS.with(|c| c.set(total));
        release_scratch(std::mem::take(&mut self.scratch));
    }
}

impl<'n> FluidTimeline<'n> {
    /// Creates an empty timeline over a cluster network at clock zero.
    pub fn new(net: &'n ClusterNet) -> Self {
        let mut scratch = acquire_scratch();
        scratch.carried.resize(net.num_links(), 0.0);
        FluidTimeline {
            now: 0.0,
            net,
            scratch,
            stale: false,
            dead_flows: 0,
            stats: TimelineStats::ZERO,
        }
    }

    /// Current simulated clock, seconds.
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Admits a fixed-duration span (compute, update, stall) starting at
    /// the current clock.
    ///
    /// # Panics
    /// Panics if `duration` is negative or not finite.
    pub fn start_span(&mut self, duration: Seconds) -> TaskId {
        assert!(
            duration.is_finite() && duration >= 0.0,
            "invalid span duration"
        );
        self.push(Work::Span {
            remaining: duration,
        })
    }

    /// Admits a fluid flow batch (one collective step) starting at the
    /// current clock. The batch first waits out `latency` seconds of
    /// protocol setup, then its flows drain under max-min fair sharing
    /// with every other active batch; it completes when the last flow
    /// drains. Self-flows and zero-byte flows are dropped (they complete
    /// instantly, as in [`ClusterNet::transfer`]).
    ///
    /// # Panics
    /// Panics if `latency` is negative or not finite.
    pub fn start_flows(&mut self, flows: &[Flow], latency: Seconds) -> TaskId {
        assert!(latency.is_finite() && latency >= 0.0, "invalid latency");
        let arena = &mut self.scratch.flows;
        let first = arena.len();
        for f in flows {
            // a flow at or under the drain threshold never becomes active
            if f.bytes > DRAIN_EPS && f.src != f.dst {
                arena.push(FlowState {
                    remaining: f.bytes,
                    path: self.net.path(f),
                    pair: (f.src.0 as u32) << 16 | f.dst.0 as u32,
                });
            }
        }
        let end = u32::try_from(arena.len()).expect("flow arena indexed by u32");
        let undrained = end - first as u32;
        self.stale |= undrained > 0 && latency <= TIME_EPS;
        self.push(Work::Batch {
            latency_left: latency,
            flows: first as u32..end,
            undrained,
        })
    }

    fn push(&mut self, work: Work) -> TaskId {
        let id = TaskId(self.scratch.tasks.len());
        self.scratch.live.push(id.0);
        self.scratch.tasks.push(work);
        id
    }

    /// Advances to the next task completion and returns it; `None` when
    /// every admitted task has already been reported. Simultaneous
    /// completions are reported one at a time, in [`TaskId`] order,
    /// without moving the clock between them.
    pub fn advance(&mut self) -> Option<Completion> {
        loop {
            if let Some(c) = self.harvest() {
                return Some(c);
            }
            if !self.step() {
                return None;
            }
        }
    }

    /// Reports one complete-but-unreported task, lowest id first (`live`
    /// is kept in admission order, so a linear scan finds it).
    fn harvest(&mut self) -> Option<Completion> {
        let pos = self
            .scratch
            .live
            .iter()
            .position(|&i| self.scratch.tasks[i].is_complete())?;
        let i = self.scratch.live.remove(pos);
        if let Work::Batch { flows, .. } = &self.scratch.tasks[i] {
            self.dead_flows += flows.len();
        }
        Some(Completion {
            id: TaskId(i),
            at: self.now,
        })
    }

    /// Recomputes the active flow set and its rates: the run's table
    /// answers a configuration it has solved before, the solver the rest.
    fn refresh_rates(&mut self) {
        let TimelineScratch {
            tasks,
            flows,
            live,
            active,
            rates,
            table,
            solver,
            ..
        } = &mut self.scratch;
        // An epoch admits ~10⁶ flows and has ~10² live at a time: keep
        // the arena to the live ones. Order is kept, and nothing else
        // holds arena indices while the rates are stale.
        if self.dead_flows > flows.len() / 2 {
            let mut kept = 0u32;
            for &ti in live.iter() {
                if let Work::Batch { flows: range, .. } = &mut tasks[ti] {
                    flows.copy_within(range.start as usize..range.end as usize, kept as usize);
                    *range = kept..kept + (range.end - range.start);
                    kept = range.end;
                }
            }
            flows.truncate(kept as usize);
            self.dead_flows = 0;
        }
        active.clear();
        for &ti in live.iter() {
            if let Work::Batch {
                latency_left,
                flows: range,
                undrained,
            } = &tasks[ti]
            {
                if *latency_left <= TIME_EPS && *undrained > 0 {
                    for fi in range.clone() {
                        if flows[fi as usize].remaining > DRAIN_EPS {
                            active.push(ActiveFlow {
                                flow: fi,
                                task: ti as u32,
                            });
                        }
                    }
                }
            }
        }
        self.stale = false;
        rates.clear();
        if active.is_empty() {
            return;
        }
        let n = active.len();
        let key = || active.iter().map(|a| flows[a.flow as usize].pair);
        // FNV-1a over the key words
        let hash = key().fold(0xcbf29ce484222325u64, |h, w| {
            (h ^ u64::from(w)).wrapping_mul(0x100000001b3)
        });
        let known = table.index.get(&hash).copied();
        if let Some((at, len)) = known {
            let (at, len) = (at as usize, len as usize);
            if len == n && key().eq(table.keys[at..at + len].iter().copied()) {
                rates.extend_from_slice(&table.rates[at..at + len]);
                self.stats.rate_reuses += 1;
                return;
            }
        }
        self.net
            .max_min_rates(n, |k| flows[active[k].flow as usize].path, solver, rates);
        self.stats.rate_solves += 1;
        // a hash collision keeps the older entry
        if known.is_none() && table.keys.len() + n <= RATE_TABLE_CAP {
            table
                .index
                .insert(hash, (table.keys.len() as u32, n as u32));
            table.keys.extend(key());
            table.rates.extend_from_slice(rates);
        }
    }

    /// Integrates the fluid system forward to the next event (span end,
    /// latency expiry, or flow drain). Returns `false` if nothing is live.
    fn step(&mut self) -> bool {
        if self.stale {
            self.refresh_rates();
        }
        let TimelineScratch {
            tasks,
            flows,
            live,
            carried,
            active,
            rates,
            ..
        } = &mut self.scratch;
        let mut dt = f64::INFINITY;
        for &ti in live.iter() {
            match &tasks[ti] {
                Work::Span { remaining } => dt = dt.min(*remaining),
                Work::Batch { latency_left, .. } => {
                    if *latency_left > TIME_EPS {
                        dt = dt.min(*latency_left);
                    }
                }
            }
        }
        for (a, &r) in active.iter().zip(rates.iter()) {
            debug_assert!(r > 0.0, "max-min must give every flow a rate");
            dt = dt.min(flows[a.flow as usize].remaining / r);
        }
        if !dt.is_finite() {
            return false; // nothing live at all
        }
        self.stats.steps += 1;
        // Integrate forward by dt. The expressions and their order are
        // the simulated clock's definition: results are compared bit for
        // bit across commits.
        self.now += dt;
        for &ti in live.iter() {
            match &mut tasks[ti] {
                Work::Span { remaining } => *remaining -= dt,
                Work::Batch {
                    latency_left,
                    undrained,
                    ..
                } => {
                    if *latency_left > TIME_EPS {
                        *latency_left -= dt;
                        self.stale |= *latency_left <= TIME_EPS && *undrained > 0;
                    }
                }
            }
        }
        for (a, &r) in active.iter().zip(rates.iter()) {
            let f = &mut flows[a.flow as usize];
            let moved = r * dt;
            f.remaining -= moved;
            for &l in f.path.links() {
                carried[usize::from(l)] += moved;
            }
            if f.remaining <= DRAIN_EPS {
                if let Work::Batch { undrained, .. } = &mut tasks[a.task as usize] {
                    *undrained -= 1;
                }
                self.stale = true;
            }
        }
        true
    }

    /// Average utilization per link class over `[0, horizon]` seconds:
    /// bytes carried by the class divided by the class's aggregate
    /// capacity times the horizon. Zero for a non-positive horizon.
    pub fn class_utilization(&self, horizon: Seconds) -> LinkClassUtil {
        if horizon <= 0.0 {
            return LinkClassUtil::default();
        }
        let caps = self.net.link_caps();
        let socs = 2 * self.net.spec().total_socs();
        let boards = 2 * self.net.spec().boards;
        let class = |range: std::ops::Range<usize>| -> f64 {
            let carried: f64 = self.scratch.carried[range.clone()].iter().sum();
            let cap: f64 = caps[range].iter().sum();
            if cap <= 0.0 {
                0.0
            } else {
                (carried / (cap * horizon)).clamp(0.0, 1.0)
            }
        };
        LinkClassUtil {
            soc_links: class(0..socs),
            board_nics: class(socs..socs + boards),
            switch: class(socs + boards..socs + boards + 1),
        }
    }
}

#[cfg(test)]
mod props;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{ClusterSpec, SocId};

    const MB: f64 = 1e6;

    fn net() -> ClusterNet {
        ClusterNet::new(ClusterSpec::paper_server())
    }

    fn drain(tl: &mut FluidTimeline<'_>) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(c) = tl.advance() {
            out.push(c);
        }
        out
    }

    #[test]
    fn lone_span_completes_at_duration() {
        let n = net();
        let mut tl = FluidTimeline::new(&n);
        let id = tl.start_span(2.5);
        let c = tl.advance().unwrap();
        assert_eq!(c.id, id);
        assert!((c.at - 2.5).abs() < 1e-12);
        assert!(tl.advance().is_none());
    }

    #[test]
    fn spans_complete_in_time_order_with_id_tiebreak() {
        let n = net();
        let mut tl = FluidTimeline::new(&n);
        let a = tl.start_span(2.0);
        let b = tl.start_span(1.0);
        let c = tl.start_span(2.0);
        let done = drain(&mut tl);
        assert_eq!(done.iter().map(|c| c.id).collect::<Vec<_>>(), vec![b, a, c]);
        assert!((done[1].at - 2.0).abs() < 1e-12);
        assert!((done[2].at - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lone_batch_matches_transfer_makespan_plus_latency() {
        let n = net();
        let flows = [Flow::new(SocId(0), SocId(5), 125.0 * MB)];
        let reference = n.transfer(&flows).makespan;
        let mut tl = FluidTimeline::new(&n);
        tl.start_flows(&flows, 0.021);
        let c = tl.advance().unwrap();
        assert!((c.at - (reference + 0.021)).abs() < 1e-9, "{}", c.at);
    }

    #[test]
    fn concurrent_batches_contend_like_one_transfer() {
        // both flows share board 0's NIC: together they take 2 s
        let n = net();
        let mut tl = FluidTimeline::new(&n);
        tl.start_flows(&[Flow::new(SocId(0), SocId(5), 125.0 * MB)], 0.0);
        tl.start_flows(&[Flow::new(SocId(1), SocId(6), 125.0 * MB)], 0.0);
        let done = drain(&mut tl);
        assert_eq!(done.len(), 2);
        for c in &done {
            assert!((c.at - 2.0).abs() < 1e-3, "{}", c.at);
        }
    }

    #[test]
    fn late_batch_preempts_bandwidth_mid_flight() {
        // A: 250 MB on soc 0's tx link (2 s alone). After 1 s a second
        // batch grabs half the link; A's last 125 MB takes 2 more seconds.
        let n = net();
        let mut tl = FluidTimeline::new(&n);
        let a = tl.start_flows(&[Flow::new(SocId(0), SocId(1), 250.0 * MB)], 0.0);
        let gate = tl.start_span(1.0);
        let first = tl.advance().unwrap();
        assert_eq!(first.id, gate);
        let b = tl.start_flows(&[Flow::new(SocId(0), SocId(2), 125.0 * MB)], 0.0);
        let done = drain(&mut tl);
        assert_eq!(done.len(), 2);
        for c in &done {
            assert!((c.at - 3.0).abs() < 1e-3, "task {:?} at {}", c.id, c.at);
        }
        assert!(done.iter().any(|c| c.id == a) && done.iter().any(|c| c.id == b));
    }

    #[test]
    fn empty_batch_completes_after_latency_only() {
        let n = net();
        let mut tl = FluidTimeline::new(&n);
        tl.start_flows(&[Flow::new(SocId(3), SocId(3), 1e9)], 0.5);
        let c = tl.advance().unwrap();
        assert!((c.at - 0.5).abs() < 1e-12);
        let instant = tl.start_flows(&[], 0.0);
        let c2 = tl.advance().unwrap();
        assert_eq!(c2.id, instant);
        assert!((c2.at - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_accounts_only_touched_classes() {
        let n = net();
        let mut tl = FluidTimeline::new(&n);
        tl.start_flows(&[Flow::new(SocId(0), SocId(1), 125.0 * MB)], 0.0);
        let c = tl.advance().unwrap();
        let util = tl.class_utilization(c.at);
        assert!(util.soc_links > 0.0 && util.soc_links <= 1.0);
        assert_eq!(util.board_nics, 0.0);
        assert_eq!(util.switch, 0.0);
        assert_eq!(tl.class_utilization(0.0), LinkClassUtil::default());
    }

    #[test]
    fn runs_are_deterministic() {
        let n = net();
        let run = || {
            let mut tl = FluidTimeline::new(&n);
            tl.start_flows(&[Flow::new(SocId(0), SocId(7), 40.0 * MB)], 0.009);
            tl.start_span(0.3);
            tl.start_flows(
                &[
                    Flow::new(SocId(2), SocId(9), 80.0 * MB),
                    Flow::new(SocId(4), SocId(11), 60.0 * MB),
                ],
                0.021,
            );
            let done = drain(&mut tl);
            (done, tl.class_utilization(1.0))
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "invalid span duration")]
    fn rejects_negative_span() {
        let n = net();
        FluidTimeline::new(&n).start_span(-1.0);
    }

    #[test]
    fn scratch_is_reused_across_runs_without_changing_results() {
        let n = net();
        let run = || {
            let mut tl = FluidTimeline::new(&n);
            tl.start_flows(
                &[
                    Flow::new(SocId(0), SocId(7), 40.0 * MB),
                    Flow::new(SocId(2), SocId(9), 80.0 * MB),
                ],
                0.009,
            );
            tl.start_span(0.3);
            drain(&mut tl)
        };
        let cold = run(); // parks a scratch on drop
        reset_scratch_stats();
        let warm = run();
        let stats = scratch_stats();
        assert_eq!(stats.acquires, 1);
        assert_eq!(stats.misses, 0, "warm run must reuse the parked scratch");
        assert_eq!(cold, warm, "reuse must not change results");
    }
}
