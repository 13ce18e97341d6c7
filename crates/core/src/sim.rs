//! Event-driven SoCFlow epoch simulation: how every SoCFlow run is priced.
//!
//! [`TimeModel::socflow_epoch`] is the closed-form Fig. 7 schedule
//! (Eq. 1): `iters · (max(compute, Σ CG syncs) + update)`, kept as the
//! group-size heuristic's model and as this module's oracle. This module
//! replaces the formula with a *schedule*: every per-batch compute
//! span, parameter update, and communication-group ring step is placed on
//! one [`FluidTimeline`], so overlap is something that *happens* — CG
//! transfers drain as preemptable fluid flows while compute spans tick on
//! the same clock — rather than something a `max()` asserts.
//!
//! The schedule per logical group `g`, iteration `i`:
//!
//! - **compute** runs in `[b(g,i), b(g,i)+c_g]` where `b(g,i)` is the
//!   iteration begin;
//! - the group's CG **sync** becomes *ready* at `max` of its member
//!   groups' `b(·,i)` — the paper's layer-by-layer overlap abstraction:
//!   gradients of late layers enter the ring while early layers still
//!   compute, so the sync runs alongside its own iteration's compute;
//! - CG syncs serialize on the shared network (one CG at a time — the
//!   2-coloring's turn-taking), FIFO in readiness order with CG index as
//!   the deterministic tie-break;
//! - the **update** starts once both the group's compute and its CG's
//!   sync for iteration `i` are done, and gates `b(g,i+1)`.
//!
//! Without planning the same machinery degenerates to the serial
//! no-overlap schedule: a single slot holding every group, whose sync
//! only becomes ready when every member has *finished* computing. On
//! conflict-free (zero split-LG) mappings the event-driven total
//! reproduces the analytic closed form to rounding, and on every other
//! mapping it stays in a narrow measured band below it; the property
//! tests pin that agreement, the band, and the strict win over the
//! no-overlap schedule whenever there is synchronization to hide.
//!
//! After the last update the epoch-boundary phases — leader ring, weight
//! broadcast, cross-group shuffle — run as sequential flow batches on the
//! same timeline, and the per-link bytes the timeline accumulated become
//! the per-link-class utilization report.
//!
//! One epoch plan (`EpochPlan`) holds everything the three prices of an
//! epoch read — iterations, per-group compute, update, the slots' ring
//! flows, the boundary batches, power state and participants — and
//! assembles each one's energy and cost. So the floor the plan search
//! prunes by ([`TimeModel::socflow_epoch_lower_bound`]) and the closed
//! form (Eq. 1, [`TimeModel::socflow_epoch`]) read the very flow sets this
//! module simulates. Each ring step among them, a slot's or the leader
//! ring's, comes from the time model's one ring builder, which also serves
//! [`Collective::Ring`](crate::timemodel::Collective::Ring).

use crate::mapping::{GroupId, Mapping};
use crate::planning::{divide_or_serialize, CommunicationGroups};
use crate::report::Breakdown;
use crate::timemodel::{ring_flows, soc_epoch_energy, EpochCost, TimeModel};
use socflow_cluster::{ClusterNet, Flow, FluidTimeline, LinkClassUtil, PowerState, Route, Seconds};
use std::fmt;

/// Where a [`Span`] ran. Displays as the lane strings of traces, which
/// `trace summarize --spans-full` parses: `g3`, `cg1`, `cg0/b2`,
/// `cluster`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Group-local work (compute, update) of logical group `g`.
    Group(usize),
    /// The monolithic sync of a communication group.
    Cg(usize),
    /// One gradient bucket's ring of a communication group, `(cg,
    /// bucket)` (wait-free schedule).
    Bucket(usize, usize),
    /// Epoch-boundary phases, which involve the whole job.
    Cluster,
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lane::Group(g) => write!(f, "g{g}"),
            Lane::Cg(c) => write!(f, "cg{c}"),
            Lane::Bucket(c, b) => write!(f, "cg{c}/b{b}"),
            Lane::Cluster => f.write_str("cluster"),
        }
    }
}

/// One scheduled interval of the simulated epoch, in epoch-local seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran: `"compute"`, `"update"`, `"sync"`, `"bucket"`,
    /// `"leader_ring"`, `"broadcast"` or `"shuffle"`.
    pub kind: &'static str,
    /// Where it ran.
    pub lane: Lane,
    /// Start, seconds from epoch begin.
    pub start: Seconds,
    /// End, seconds from epoch begin.
    pub end: Seconds,
}

/// Result of simulating one SoCFlow epoch on the event timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedEpoch {
    /// The epoch cost in the same shape the analytic model produces.
    pub cost: EpochCost,
    /// Every scheduled span, ordered by start time; ties break by end
    /// time, then by completion order.
    pub spans: Vec<Span>,
    /// Average per-link-class utilization over the epoch.
    pub link_util: LinkClassUtil,
    /// Every completed gradient-bucket transfer, in completion order
    /// (empty unless the epoch ran [`SyncSchedule::WaitFree`]).
    pub bucket_flushes: Vec<BucketFlush>,
}

/// One completed per-bucket gradient transfer of a wait-free epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketFlush {
    /// Communication-group (sync slot) index the bucket synced in.
    pub cg: usize,
    /// Bucket index in release (reverse-topological) order.
    pub bucket: usize,
    /// The bucket's share of the slot's gradient wire bytes. Shares are
    /// residual-split so they sum to the slot total without double-counting
    /// bucket edges.
    pub bytes: f64,
    /// Completion time, seconds from epoch begin.
    pub at: Seconds,
}

/// Splits `total` into one part per share, multiplying through for every
/// share but the last, which takes the exact residual — so the parts
/// telescope back to `total` with no double-count at the seams.
///
/// # Panics
/// Panics if `shares` is empty.
pub fn partition_exact(total: f64, shares: &[f64]) -> Vec<f64> {
    assert!(
        !shares.is_empty(),
        "partition_exact needs at least one share"
    );
    let mut parts: Vec<f64> = shares[..shares.len() - 1]
        .iter()
        .map(|s| total * s)
        .collect();
    let head: f64 = parts.iter().sum();
    parts.push(total - head);
    parts
}

/// What an admitted timeline task meant, indexed densely by task id.
enum Tag {
    Compute {
        g: usize,
    },
    Update {
        g: usize,
    },
    SyncStep {
        slot: usize,
    },
    /// Wait-free: the release timer holding bucket `bucket` of `slot`
    /// until its backprop-completion offset.
    BucketTimer {
        slot: usize,
        bucket: usize,
    },
    /// Wait-free: one ring step of bucket `bucket` of `slot`.
    BucketStep {
        slot: usize,
        bucket: usize,
    },
    Boundary,
}

/// Per-group driver state.
struct GroupState {
    /// Current iteration index.
    iter: usize,
    /// Iteration begin time (for the compute span).
    begun_at: Seconds,
    /// Compute for the current iteration has finished.
    compute_done: bool,
    /// Update for the current iteration has been admitted.
    updating: bool,
    /// All iterations done.
    finished: bool,
}

/// Per-slot (communication-group) driver state; the slot's ring is the
/// plan's.
struct SlotState {
    /// The ring's flows, resolved once on the epoch's timeline.
    route: Route,
    /// How many member groups have reached each iteration's readiness
    /// condition (begun with overlap; finished compute without).
    ready_count: Vec<usize>,
    /// Sync completion flags per iteration.
    done: Vec<bool>,
}

/// One epoch-boundary flow batch (a leader-ring step, the broadcast, or
/// the shuffle).
#[derive(Clone, Copy)]
struct BoundaryPhase {
    kind: &'static str,
    route: Route,
    latency: Seconds,
}

/// Per-slot wait-free bucket state (one ring per bucket per iteration).
struct WfSlot {
    /// One ring step's flow set per bucket, resolved: the slot's flows
    /// with each flow's bytes residual-split by the bucket shares.
    routes: Vec<Route>,
    /// Per-bucket gradient wire bytes (residual split of the slot total).
    bytes: Vec<f64>,
    /// Ring steps left per in-flight bucket, this iteration.
    steps_left: Vec<usize>,
    /// When each bucket's ring began, this iteration.
    started: Vec<Seconds>,
    /// Buckets fully synced this iteration.
    done: usize,
}

/// Wait-free driver state shared across slots.
struct WaitFreeState {
    /// Cumulative share of backprop completed *before* each bucket — the
    /// bucket's release offset as a fraction of its members' compute time.
    release_frac: Vec<f64>,
    slots: Vec<WfSlot>,
}

struct Driver<'p> {
    /// The epoch being simulated: iterations, compute, update, slot rings.
    plan: &'p EpochPlan,
    /// `true` for the interleaved and wait-free schedules, `false` for
    /// the serial one (sync readiness at iteration begin vs compute end).
    overlap: bool,
    /// Wait-free bucket state; `None` for the monolithic schedules.
    wf: Option<WaitFreeState>,
    slots: Vec<SlotState>,
    slot_of: Vec<usize>,
    groups: Vec<GroupState>,
    tags: Vec<Tag>,
    spans: Vec<Span>,
    bucket_flushes: Vec<BucketFlush>,
    /// Running sync in `(slot, started_at, steps_left)` form, if any.
    token: Option<(usize, Seconds, usize)>,
    /// Ready-but-waiting syncs as `(ready_at, slot, iter)`.
    queue: Vec<(Seconds, usize, usize)>,
    /// Total seconds the network spent inside sync/aggregation phases
    /// (the energy model's "radio on" time).
    sync_busy: Seconds,
    finished_groups: usize,
    boundary_plan: Vec<BoundaryPhase>,
    boundary_next: usize,
}

/// One SoCFlow epoch as every price reads it: worked out once from the
/// time model, the mapping, its CGs, whether the CGs are the sync slots,
/// and the CPU share of each batch. Eq. 1 ([`TimeModel::socflow_epoch`]),
/// the timeline ([`simulate_socflow_schedule`]) and the plan search's
/// floor ([`TimeModel::socflow_epoch_lower_bound`]) each fold the same
/// iterations, compute, slot rings and boundary batches, and
/// [`EpochPlan::cost`] turns each one's time into its [`EpochCost`].
pub(crate) struct EpochPlan {
    /// Iterations per epoch: each group takes one batch per iteration
    /// (none without groups).
    pub(crate) iters: usize,
    /// Per-group compute time of one batch: underclocking-aware
    /// re-balanced shares, the slower of the CPU-FP32 and NPU-INT8 halves
    /// of the split batch ([`TimeModel::group_compute_time`]).
    compute: Vec<Seconds>,
    /// Bytes one syncing group member sends per iteration.
    wire: f64,
    /// One parameter update.
    pub(crate) update: Seconds,
    /// The sync slots' rings: the CGs when they plan sync, one slot of
    /// every group when they do not.
    pub(crate) slots: Vec<SlotRing>,
    /// The epoch-boundary batches, in order.
    pub(crate) boundary: Vec<BoundaryBatch>,
    /// What a SoC draws while it computes at this CPU share.
    state: PowerState,
    /// SoCs that take part: an elastically shrunk job must not price (or
    /// power) SoCs it lost.
    participants: usize,
}

impl EpochPlan {
    /// The plan of one epoch over `mapping`, syncing in `cgs` when
    /// `planning` (all groups in one slot when not), each batch's CPU
    /// share `cpu_fraction`.
    pub(crate) fn new(
        tm: &TimeModel,
        mapping: &Mapping,
        cgs: &CommunicationGroups,
        planning: bool,
        cpu_fraction: f64,
    ) -> Self {
        let n_groups = mapping.num_groups();
        let iters = match n_groups {
            0 => 0,
            n => (tm.ref_samples() as f64 / (n as f64 * tm.batch() as f64)).ceil() as usize,
        };
        let members: Vec<Vec<usize>> = if planning {
            let cg_groups = |cg: &Vec<GroupId>| cg.iter().map(|g| g.0).collect();
            cgs.cgs.iter().map(cg_groups).collect()
        } else {
            vec![(0..n_groups).collect()]
        };
        let wire = tm.wire_bytes(cpu_fraction);
        EpochPlan {
            iters,
            compute: mapping
                .groups()
                .iter()
                .map(|g| tm.group_compute_time(g, cpu_fraction))
                .collect(),
            wire,
            update: tm.update_time(),
            slots: members
                .into_iter()
                .map(|groups| slot_ring(tm, mapping, groups, wire))
                .collect(),
            boundary: boundary_batches(tm, mapping, wire),
            state: if cpu_fraction >= 1.0 {
                PowerState::SocCpuTrain
            } else if cpu_fraction <= 0.0 {
                PowerState::SocNpuTrain
            } else {
                PowerState::SocMixedTrain
            },
            participants: mapping.groups().iter().map(Vec::len).sum(),
        }
    }

    /// The slowest group's compute time of one batch (groups run in
    /// parallel).
    pub(crate) fn slowest_compute(&self) -> Seconds {
        self.compute.iter().copied().fold(0.0, f64::max)
    }

    /// The cost of an epoch that took `time`, split as `breakdown`, with
    /// the network busy for `sync_busy` of it and `aggregation` of it spent
    /// on the epoch boundary: every participant draws its compute state
    /// for `breakdown.compute`, its radio for `sync_busy`, and idles the
    /// rest.
    pub(crate) fn cost(
        &self,
        time: Seconds,
        breakdown: Breakdown,
        sync_busy: Seconds,
        aggregation: Seconds,
    ) -> EpochCost {
        let per_soc = soc_epoch_energy(time, breakdown.compute, sync_busy, self.state);
        EpochCost {
            time,
            breakdown,
            energy: self.participants as f64 * per_soc,
            aggregation,
        }
    }
}

impl TimeModel {
    /// Simulates one SoCFlow epoch on the event-driven timeline (see the
    /// [module docs](crate::sim)): the price of every SoCFlow run. Returns
    /// the same cost shape as the closed-form [`TimeModel::socflow_epoch`]
    /// plus the full span schedule and the per-link-class utilization.
    ///
    /// The CGs are the sync slots, interleaved with compute, or wait-free
    /// once [`TimeModel::set_overlap`] set a plan.
    pub fn socflow_epoch_timeline(
        &self,
        mapping: &Mapping,
        cgs: &CommunicationGroups,
        cpu_fraction: f64,
    ) -> SimulatedEpoch {
        let schedule = if self.overlap().is_some() {
            SyncSchedule::WaitFree
        } else {
            SyncSchedule::Interleaved
        };
        simulate_socflow_schedule(self, mapping, cgs, true, schedule, cpu_fraction)
    }

    /// A floor under the price of one SoCFlow epoch over `mapping` with
    /// its CGs as sync slots, valid for the serial, interleaved and
    /// wait-free schedules alike:
    ///
    /// `(iters · max_g(max(c_g, sync_s(g)) + u) + boundary) · (1 − 1e-9)`
    ///
    /// - An iteration of group `g` holds its compute `c_g` and its slot's
    ///   whole sync for that iteration: sync is released no earlier than
    ///   the iteration begins, and the update `u` waits for both.
    /// - `sync_s` is the larger of `steps · λ` (a sync is `steps`
    ///   sequential ring batches, each waiting its latency λ before its
    ///   flows join) and `steps ·` the busiest link's bytes over its
    ///   capacity for one step's ring flows (no link moves faster than
    ///   its capacity, and wait-free buckets split the bytes exactly).
    /// - `boundary` is the standalone time of the leader ring, broadcast
    ///   and shuffle, which run on an idle network after the last update.
    ///
    /// The margin covers the rounding of the timeline's clock. The plan
    /// autotuner ([`crate::autotune`]) prices candidates in order of this
    /// floor and stops at the first one above its incumbent.
    pub fn socflow_epoch_lower_bound(&self, mapping: &Mapping, cpu_fraction: f64) -> Seconds {
        let (cgs, _) = divide_or_serialize(mapping);
        let plan = EpochPlan::new(self, mapping, &cgs, true, cpu_fraction);
        let mut period: Seconds = 0.0;
        for ring in &plan.slots {
            let steps = ring.steps as f64;
            let sync = (steps * ring.latency).max(steps * self.net().drain_floor(&ring.flows));
            for &g in &ring.groups {
                period = period.max(plan.compute[g].max(sync) + plan.update);
            }
        }
        let boundary: Seconds = plan
            .boundary
            .iter()
            .map(|b| b.repeat as f64 * standalone_time(self.net(), &b.flows, b.latency))
            .sum();
        (plan.iters as f64 * period + boundary) * (1.0 - 1e-9)
    }
}

/// The time one flow batch takes alone on an idle network: its latency,
/// then its flows' max-min drain.
fn standalone_time(net: &ClusterNet, flows: &[Flow], latency: Seconds) -> Seconds {
    let mut tl = FluidTimeline::new(net);
    tl.start_flows(flows, latency);
    while tl.advance().is_some() {}
    tl.now()
}

/// How the event-driven simulation schedules sync against compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncSchedule {
    /// The paper's interleaving: a CG's sync becomes ready the moment its
    /// member groups *begin* an iteration, running alongside compute.
    Interleaved,
    /// The no-overlap comparator: a CG's sync only becomes ready once its
    /// member groups have *finished* computing, so sync time is fully
    /// visible. Slot structure (the 2-coloring) is unchanged.
    Serial,
    /// Wait-free gradient bucketing: instead of one monolithic sync per
    /// iteration, the gradient payload is split into buckets (per
    /// [`TimeModel::overlap`](crate::timemodel::TimeModel::overlap)'s
    /// plan) and each bucket runs its own ring, released at the simulated
    /// offset where backprop has produced that bucket's layers — minus a
    /// pre-posting lead of `steps × latency` (the ring handshakes carry
    /// no gradient bytes, so they are posted ahead of the data), clamped
    /// at iteration begin. There is no network token: buckets from *all*
    /// CGs contend concurrently under the timeline's max-min fairness,
    /// which is where wait-free beats the interleaved turn-taking on
    /// multi-CG mappings.
    WaitFree,
}

/// One sync slot's ring, as the simulator, the floor and Eq. 1 see it.
pub(crate) struct SlotRing {
    /// Member logical groups.
    groups: Vec<usize>,
    /// The identical flow set of every ring step (empty ⇒ instant sync):
    /// each syncing member group's [`ring_flows`].
    pub(crate) flows: Vec<Flow>,
    /// Ring steps per sync (max over member groups of `2(n−1)`; 0 with no
    /// flows).
    pub(crate) steps: usize,
    /// Protocol latency per step (intra- vs inter-board).
    latency: Seconds,
}

/// The ring of the slot holding `groups`, each syncing member sending
/// `wire` bytes per iteration.
fn slot_ring(tm: &TimeModel, mapping: &Mapping, groups: Vec<usize>, wire: f64) -> SlotRing {
    let steps = groups
        .iter()
        .map(|&g| mapping.group(GroupId(g)).len())
        .filter(|&n| n >= 2)
        .map(|n| 2 * (n - 1))
        .max()
        .unwrap_or(0);
    let flows: Vec<Flow> = groups
        .iter()
        .flat_map(|&g| ring_flows(mapping.group(GroupId(g)), wire))
        .collect();
    SlotRing {
        latency: tm.net().step_latency(&flows),
        steps,
        flows,
        groups,
    }
}

/// `repeat` identical epoch-boundary flow batches, each waiting `latency`
/// before its flows join.
pub(crate) struct BoundaryBatch {
    kind: &'static str,
    pub(crate) flows: Vec<Flow>,
    latency: Seconds,
    pub(crate) repeat: usize,
}

/// The ordered epoch-boundary batches over the participating SoCs: `2(L−1)`
/// leader-ring steps, the weight broadcast, the cross-group data shuffle.
/// Degenerate phases (single leader, singleton groups, lone participant)
/// are omitted.
fn boundary_batches(tm: &TimeModel, mapping: &Mapping, wire: f64) -> Vec<BoundaryBatch> {
    let mut batches = Vec::new();
    let mut push = |kind, flows: Vec<Flow>, repeat| {
        batches.push(BoundaryBatch {
            kind,
            latency: tm.net().step_latency(&flows),
            flows,
            repeat,
        })
    };
    let leaders = mapping.leaders();
    let l = leaders.len();
    if l >= 2 && wire > 0.0 {
        let flows = ring_flows(&leaders, wire).collect();
        push("leader_ring", flows, 2 * (l - 1));
    }
    let bcast: Vec<Flow> = mapping
        .groups()
        .iter()
        .flat_map(|g| {
            let leader = g[0];
            g[1..].iter().map(move |&m| Flow::new(leader, m, wire))
        })
        .collect();
    if !bcast.is_empty() {
        push("broadcast", bcast, 1);
    }
    let mut participants: Vec<socflow_cluster::SocId> =
        mapping.groups().iter().flatten().copied().collect();
    participants.sort();
    let n_part = participants.len();
    if n_part >= 2 {
        let shard = tm.ref_samples() as f64 / n_part as f64 * tm.sample_bytes();
        let flows = (0..n_part)
            .map(|i| {
                Flow::new(
                    participants[i],
                    participants[(i + n_part / 2) % n_part],
                    shard,
                )
            })
            .collect();
        push("shuffle", flows, 1);
    }
    batches
}

/// The fully-parameterized simulation: `planning_slots` picks the sync
/// slot structure (the 2-colored CGs vs one joint all-groups slot) and
/// `schedule` picks whether sync interleaves with compute. The no-overlap
/// comparator of `bench timeline` is `(true, SyncSchedule::Serial)` —
/// same CG turn-taking, no hiding — and the unplanned schedule Eq. 1's
/// `planning = false` prices is `(false, SyncSchedule::Serial)`.
pub fn simulate_socflow_schedule(
    tm: &TimeModel,
    mapping: &Mapping,
    cgs: &CommunicationGroups,
    planning_slots: bool,
    schedule: SyncSchedule,
    cpu_fraction: f64,
) -> SimulatedEpoch {
    let plan = EpochPlan::new(tm, mapping, cgs, planning_slots, cpu_fraction);
    let (n_groups, iters) = (mapping.num_groups(), plan.iters);

    // every flow set the epoch admits is resolved once, on its timeline
    let mut tl = FluidTimeline::new(tm.net());
    let slots: Vec<SlotState> = plan
        .slots
        .iter()
        .map(|ring| SlotState {
            route: tl.route(&ring.flows),
            ready_count: vec![0; iters],
            done: vec![false; iters],
        })
        .collect();
    let mut slot_of = vec![0usize; n_groups];
    for (si, ring) in plan.slots.iter().enumerate() {
        for &g in &ring.groups {
            slot_of[g] = si;
        }
    }

    // Wait-free bucket construction: the overlap plan's shares split every
    // slot's gradient wire bytes and per-step flow chunks residually, so
    // each flow's bucket parts telescope back to the monolithic bytes.
    let wf = if schedule == SyncSchedule::WaitFree {
        let shares: Vec<f64> = match tm.overlap() {
            Some(overlap) => overlap.shares.clone(),
            None => vec![1.0], // degenerate single bucket
        };
        let mut release_frac = Vec::with_capacity(shares.len());
        let mut cum = 0.0;
        for s in &shares {
            release_frac.push(cum);
            cum += s;
        }
        let wf_slots: Vec<WfSlot> = plan
            .slots
            .iter()
            .map(|ring| {
                let n_buckets = if ring.flows.is_empty() {
                    0
                } else {
                    shares.len()
                };
                let mut flows: Vec<Vec<Flow>> = vec![Vec::new(); n_buckets];
                for f in &ring.flows {
                    for (b, part) in partition_exact(f.bytes, &shares).into_iter().enumerate() {
                        flows[b].push(Flow::new(f.src, f.dst, part));
                    }
                }
                let syncing = ring
                    .groups
                    .iter()
                    .filter(|&&g| mapping.group(GroupId(g)).len() >= 2)
                    .count();
                let slot_wire = plan.wire * syncing as f64;
                let bytes = if n_buckets == 0 {
                    Vec::new()
                } else {
                    partition_exact(slot_wire, &shares)
                };
                WfSlot {
                    routes: flows.iter().map(|fs| tl.route(fs)).collect(),
                    bytes,
                    steps_left: vec![0; n_buckets],
                    started: vec![0.0; n_buckets],
                    done: 0,
                }
            })
            .collect();
        Some(WaitFreeState {
            release_frac,
            slots: wf_slots,
        })
    } else {
        None
    };

    let mut boundary_plan = Vec::new();
    for b in &plan.boundary {
        let phase = BoundaryPhase {
            kind: b.kind,
            route: tl.route(&b.flows),
            latency: b.latency,
        };
        boundary_plan.extend(std::iter::repeat_n(phase, b.repeat));
    }
    let mut drv = Driver {
        plan: &plan,
        overlap: schedule != SyncSchedule::Serial,
        wf,
        slots,
        slot_of,
        groups: (0..n_groups)
            .map(|_| GroupState {
                iter: 0,
                begun_at: 0.0,
                compute_done: false,
                updating: false,
                finished: false,
            })
            .collect(),
        tags: Vec::new(),
        spans: Vec::new(),
        bucket_flushes: Vec::new(),
        token: None,
        queue: Vec::new(),
        sync_busy: 0.0,
        finished_groups: 0,
        boundary_plan,
        boundary_next: 0,
    };

    for g in 0..n_groups {
        drv.begin_iteration(&mut tl, g);
    }
    let mut batch_end: Option<Seconds> = None;
    let mut current_boundary: Option<(&'static str, Seconds)> = None;
    while let Some(c) = tl.advance() {
        match drv.tags[c.id.0] {
            Tag::Compute { g } => drv.on_compute_done(&mut tl, g, c.at),
            Tag::Update { g } => drv.on_update_done(&mut tl, g, c.at),
            Tag::SyncStep { slot } => drv.on_sync_step_done(&mut tl, slot, c.at),
            Tag::BucketTimer { slot, bucket } => drv.on_bucket_timer(&mut tl, slot, bucket, c.at),
            Tag::BucketStep { slot, bucket } => {
                drv.on_bucket_step_done(&mut tl, slot, bucket, c.at)
            }
            Tag::Boundary => {
                let (kind, started) = current_boundary.take().expect("boundary bookkeeping");
                drv.spans.push(Span {
                    kind,
                    lane: Lane::Cluster,
                    start: started,
                    end: c.at,
                });
                drv.sync_busy += c.at - started;
            }
        }
        // all groups finished ⇒ run the epoch-boundary phases one by one
        if drv.finished_groups == n_groups && current_boundary.is_none() {
            if batch_end.is_none() {
                batch_end = Some(c.at);
            }
            if let Some(phase) = drv.boundary_plan.get(drv.boundary_next) {
                let id = tl.start_route(phase.route, phase.latency);
                debug_assert_eq!(id.0, drv.tags.len());
                drv.tags.push(Tag::Boundary);
                current_boundary = Some((phase.kind, c.at));
                drv.boundary_next += 1;
            }
        }
    }
    let time = tl.now();
    let batch_end = batch_end.unwrap_or(time);
    drv.spans
        .sort_by(|a, b| a.start.total_cmp(&b.start).then(a.end.total_cmp(&b.end)));

    // Cost assembly mirrors the analytic model: compute is the slowest
    // group's (groups run in parallel), visible sync is whatever wall
    // clock neither compute nor updates account for.
    let compute_total = plan.slowest_compute() * iters as f64;
    let update_total = plan.update * iters as f64;
    let breakdown = Breakdown {
        compute: compute_total,
        sync: (time - compute_total - update_total).max(0.0),
        update: update_total,
    };
    SimulatedEpoch {
        cost: plan.cost(time, breakdown, drv.sync_busy, time - batch_end),
        spans: drv.spans,
        link_util: tl.class_utilization(time),
        bucket_flushes: drv.bucket_flushes,
    }
}

impl Driver<'_> {
    fn begin_iteration(&mut self, tl: &mut FluidTimeline<'_>, g: usize) {
        let now = tl.now();
        let gs = &mut self.groups[g];
        gs.begun_at = now;
        gs.compute_done = false;
        gs.updating = false;
        let iter = gs.iter;
        let id = tl.start_span(self.plan.compute[g]);
        debug_assert_eq!(id.0, self.tags.len());
        self.tags.push(Tag::Compute { g });
        if self.overlap {
            // overlapped schedule: the CG sync is ready once every member
            // group has *begun* this iteration (layer-by-layer overlap)
            self.count_ready(tl, self.slot_of[g], iter);
        }
    }

    fn on_compute_done(&mut self, tl: &mut FluidTimeline<'_>, g: usize, at: Seconds) {
        let iter = self.groups[g].iter;
        self.spans.push(Span {
            kind: "compute",
            lane: Lane::Group(g),
            start: self.groups[g].begun_at,
            end: at,
        });
        self.groups[g].compute_done = true;
        if !self.overlap {
            // serial schedule: sync waits for every member to finish
            self.count_ready(tl, self.slot_of[g], iter);
        }
        self.try_update(tl, g);
    }

    fn count_ready(&mut self, tl: &mut FluidTimeline<'_>, slot: usize, iter: usize) {
        self.slots[slot].ready_count[iter] += 1;
        let ring = &self.plan.slots[slot];
        if self.slots[slot].ready_count[iter] == ring.groups.len() {
            if ring.steps == 0 {
                self.finish_sync(tl, slot, iter);
            } else if self.wf.is_some() {
                self.release_buckets(tl, slot);
            } else {
                let now = tl.now();
                self.queue.push((now, slot, iter));
                self.dispatch_sync(tl);
            }
        }
    }

    /// Grants the network token to the longest-waiting ready sync (ties
    /// broken by slot index — the CGs' deterministic turn order).
    fn dispatch_sync(&mut self, tl: &mut FluidTimeline<'_>) {
        if self.token.is_some() || self.queue.is_empty() {
            return;
        }
        let best = (0..self.queue.len())
            .min_by(|&a, &b| {
                let (ta, sa, _) = self.queue[a];
                let (tb, sb, _) = self.queue[b];
                ta.total_cmp(&tb).then(sa.cmp(&sb))
            })
            .expect("non-empty queue");
        let (_, slot, _) = self.queue.remove(best);
        let now = tl.now();
        self.token = Some((slot, now, self.plan.slots[slot].steps));
        self.start_sync_step(tl, slot);
    }

    fn start_sync_step(&mut self, tl: &mut FluidTimeline<'_>, slot: usize) {
        let id = tl.start_route(self.slots[slot].route, self.plan.slots[slot].latency);
        debug_assert_eq!(id.0, self.tags.len());
        self.tags.push(Tag::SyncStep { slot });
    }

    fn on_sync_step_done(&mut self, tl: &mut FluidTimeline<'_>, slot: usize, at: Seconds) {
        let (tok_slot, started, steps_left) = self.token.expect("token held during sync");
        debug_assert_eq!(tok_slot, slot);
        if steps_left > 1 {
            self.token = Some((slot, started, steps_left - 1));
            self.start_sync_step(tl, slot);
            return;
        }
        self.token = None;
        // the iteration this sync served is its members' current one (no
        // member can advance past it before the sync completes)
        let iter = self.groups[self.plan.slots[slot].groups[0]].iter;
        self.spans.push(Span {
            kind: "sync",
            lane: Lane::Cg(slot),
            start: started,
            end: at,
        });
        self.sync_busy += at - started;
        self.finish_sync(tl, slot, iter);
        self.dispatch_sync(tl);
    }

    /// Wait-free: admits one release timer per bucket for `slot`'s
    /// current iteration. A bucket's release offset is the latest point
    /// at which any member group's backprop completes the bucket's layer
    /// slice (`begun_at + c_g · cum-share-before`), minus the pre-posting
    /// lead of `steps × latency`, never before now (= the last member's
    /// iteration begin).
    fn release_buckets(&mut self, tl: &mut FluidTimeline<'_>, slot: usize) {
        let now = tl.now();
        let ring = &self.plan.slots[slot];
        let lead = ring.steps as f64 * ring.latency;
        let wf = self.wf.as_mut().expect("wait-free state");
        wf.slots[slot].done = 0;
        let n_buckets = wf.slots[slot].routes.len();
        for b in 0..n_buckets {
            let frac = wf.release_frac[b];
            let release_at = ring
                .groups
                .iter()
                .map(|&g| self.groups[g].begun_at + self.plan.compute[g] * frac)
                .fold(0.0f64, f64::max)
                - lead;
            let id = tl.start_span((release_at - now).max(0.0));
            debug_assert_eq!(id.0, self.tags.len());
            self.tags.push(Tag::BucketTimer { slot, bucket: b });
        }
    }

    fn on_bucket_timer(
        &mut self,
        tl: &mut FluidTimeline<'_>,
        slot: usize,
        bucket: usize,
        at: Seconds,
    ) {
        let steps = self.plan.slots[slot].steps;
        let ws = &mut self.wf.as_mut().expect("wait-free state").slots[slot];
        ws.started[bucket] = at;
        ws.steps_left[bucket] = steps;
        self.start_bucket_step(tl, slot, bucket);
    }

    fn start_bucket_step(&mut self, tl: &mut FluidTimeline<'_>, slot: usize, bucket: usize) {
        let wf = self.wf.as_ref().expect("wait-free state");
        let id = tl.start_route(wf.slots[slot].routes[bucket], self.plan.slots[slot].latency);
        debug_assert_eq!(id.0, self.tags.len());
        self.tags.push(Tag::BucketStep { slot, bucket });
    }

    fn on_bucket_step_done(
        &mut self,
        tl: &mut FluidTimeline<'_>,
        slot: usize,
        bucket: usize,
        at: Seconds,
    ) {
        let ws = &mut self.wf.as_mut().expect("wait-free state").slots[slot];
        ws.steps_left[bucket] -= 1;
        if ws.steps_left[bucket] > 0 {
            self.start_bucket_step(tl, slot, bucket);
            return;
        }
        let started = ws.started[bucket];
        let bytes = ws.bytes[bucket];
        ws.done += 1;
        let all_done = ws.done == ws.routes.len();
        self.spans.push(Span {
            kind: "bucket",
            lane: Lane::Bucket(slot, bucket),
            start: started,
            end: at,
        });
        self.sync_busy += at - started;
        self.bucket_flushes.push(BucketFlush {
            cg: slot,
            bucket,
            bytes,
            at,
        });
        if all_done {
            let iter = self.groups[self.plan.slots[slot].groups[0]].iter;
            self.finish_sync(tl, slot, iter);
        }
    }

    fn finish_sync(&mut self, tl: &mut FluidTimeline<'_>, slot: usize, iter: usize) {
        self.slots[slot].done[iter] = true;
        for &g in &self.plan.slots[slot].groups {
            if !self.groups[g].finished && self.groups[g].iter == iter {
                self.try_update(tl, g);
            }
        }
    }

    fn try_update(&mut self, tl: &mut FluidTimeline<'_>, g: usize) {
        let iter = self.groups[g].iter;
        let ready = self.groups[g].compute_done
            && !self.groups[g].updating
            && !self.groups[g].finished
            && self.slots[self.slot_of[g]].done[iter];
        if ready {
            self.groups[g].updating = true;
            let id = tl.start_span(self.plan.update);
            debug_assert_eq!(id.0, self.tags.len());
            self.tags.push(Tag::Update { g });
        }
    }

    fn on_update_done(&mut self, tl: &mut FluidTimeline<'_>, g: usize, at: Seconds) {
        self.spans.push(Span {
            kind: "update",
            lane: Lane::Group(g),
            start: at - self.plan.update,
            end: at,
        });
        self.groups[g].iter += 1;
        if self.groups[g].iter < self.plan.iters {
            self.begin_iteration(tl, g);
        } else {
            self.groups[g].finished = true;
            self.finished_groups += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MethodSpec, TrainJobSpec};
    use crate::mapping::{integrity_greedy, sequential};
    use crate::planning::divide_communication_groups;
    use crate::timemodel::Collective;
    use proptest::prelude::*;
    use socflow_cluster::{ClusterSpec, SocId};
    use socflow_data::DatasetPreset;
    use socflow_nn::models::ModelKind;

    fn model(socs: usize) -> TimeModel {
        let mut spec =
            TrainJobSpec::new(ModelKind::Vgg11, DatasetPreset::Cifar10, MethodSpec::Ring);
        spec.socs = socs;
        TimeModel::new(&spec)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The closed form prices a batch as its protocol latency plus its
        /// flows' max-min drain; an idle timeline drains the same flows
        /// after the same latency. The two agree to rounding on every ring
        /// and PS batch, on one board or spread over the server, so pricing
        /// Fig. 4(b) and the baselines on the timeline instead would move
        /// their prices in the last bits only.
        #[test]
        fn closed_form_steps_equal_an_idle_timeline_drain(
            picks in proptest::collection::vec(0usize..60, 2..24),
            board in 0usize..13,
            mb in 1usize..200,
        ) {
            // boards 0..12 fold the picks onto that board; 12 spreads them
            let mut members: Vec<SocId> = Vec::new();
            for s in picks {
                let soc = SocId(if board < 12 { board * 5 + s % 5 } else { s });
                if !members.contains(&soc) {
                    members.push(soc);
                }
            }
            prop_assume!(members.len() >= 2);
            let tm = model(60);
            for c in [Collective::Ring, Collective::Ps] {
                for (flows, _) in c.batches(&members, mb as f64 * 1e6) {
                    let closed = tm.net().collective_step_time(&flows);
                    let drained = standalone_time(tm.net(), &flows, tm.net().step_latency(&flows));
                    let rel = (closed - drained).abs() / closed;
                    prop_assert!(rel <= 1e-12, "{c:?} over {members:?}: {closed} vs {drained}");
                }
            }
        }
    }

    /// Board-aligned groups (no split LGs): event-driven and analytic
    /// schedules are the same schedule, so the totals agree to rounding.
    #[test]
    fn zero_split_agrees_with_analytic() {
        let m = model(60);
        let cluster = ClusterSpec::for_socs(60);
        for groups in [12, 60] {
            let mapping = integrity_greedy(&cluster, 60, groups);
            assert!(
                (0..groups).all(|g| !mapping.is_split(GroupId(g))),
                "expected zero split LGs at {groups} groups"
            );
            let cgs = divide_communication_groups(&mapping).unwrap();
            let analytic = m.socflow_epoch(&mapping, &cgs, true, 1.0);
            let sim = m.socflow_epoch_timeline(&mapping, &cgs, 1.0);
            let rel = (sim.cost.time - analytic.time).abs() / analytic.time;
            assert!(
                rel < 1e-12,
                "{groups} groups: sim {} vs analytic {} (rel {rel})",
                sim.cost.time,
                analytic.time
            );
        }
    }

    #[test]
    fn interleaving_beats_no_overlap_on_split_mappings() {
        let m = model(32);
        let cluster = ClusterSpec::for_socs(32);
        for groups in [6, 8] {
            let mapping = sequential(&cluster, 32, groups);
            assert!((0..groups).any(|g| mapping.is_split(GroupId(g))));
            let cgs = divide_communication_groups(&mapping).unwrap();
            let overlapped =
                simulate_socflow_schedule(&m, &mapping, &cgs, true, SyncSchedule::Interleaved, 1.0);
            let serial =
                simulate_socflow_schedule(&m, &mapping, &cgs, true, SyncSchedule::Serial, 1.0);
            assert!(
                overlapped.cost.time < serial.cost.time,
                "{groups} groups: overlap {} vs serial {}",
                overlapped.cost.time,
                serial.cost.time
            );
        }
    }

    #[test]
    fn spans_are_well_formed_and_cover_the_epoch() {
        let m = model(20);
        let cluster = ClusterSpec::for_socs(20);
        let mapping = integrity_greedy(&cluster, 20, 4);
        let cgs = divide_communication_groups(&mapping).unwrap();
        let sim = m.socflow_epoch_timeline(&mapping, &cgs, 1.0);
        assert!(!sim.spans.is_empty());
        let mut last_start = 0.0;
        for s in &sim.spans {
            assert!(s.start >= last_start, "spans sorted by start");
            assert!(s.end >= s.start && s.start >= 0.0);
            assert!(s.end <= sim.cost.time + 1e-9);
            last_start = s.start;
        }
        // boundary phases present exactly once each (plus ring steps)
        assert_eq!(
            sim.spans.iter().filter(|s| s.kind == "broadcast").count(),
            1
        );
        assert_eq!(sim.spans.iter().filter(|s| s.kind == "shuffle").count(), 1);
        assert!(sim.cost.aggregation > 0.0);
        assert!(sim.link_util.soc_links > 0.0 && sim.link_util.soc_links <= 1.0);
    }

    #[test]
    fn singleton_groups_have_no_sync() {
        let m = model(8);
        let cluster = ClusterSpec::for_socs(8);
        let mapping = integrity_greedy(&cluster, 8, 8);
        let cgs = divide_communication_groups(&mapping).unwrap();
        let sim = m.socflow_epoch_timeline(&mapping, &cgs, 1.0);
        assert!(sim.spans.iter().all(|s| s.kind != "sync"));
        let analytic = m.socflow_epoch(&mapping, &cgs, true, 1.0);
        let rel = (sim.cost.time - analytic.time).abs() / analytic.time;
        assert!(rel < 1e-12, "rel {rel}");
    }

    fn layout(lens: &[usize]) -> Vec<socflow_nn::GradReady> {
        let mut off = 0;
        lens.iter()
            .enumerate()
            .map(|(i, &len)| {
                let g = socflow_nn::GradReady {
                    layer: i,
                    offset: off,
                    len,
                };
                off += len;
                g
            })
            .collect()
    }

    /// A VGG-ish per-layer parameter profile: small input convs, large
    /// middle convs, a fat head.
    const LENS: &[usize] = &[
        1_728, 36_864, 73_728, 147_456, 294_912, 589_824, 1_179_648, 589_824, 262_144, 65_536,
        10_240,
    ];

    #[test]
    fn wait_free_is_no_slower_than_serial_or_interleaved() {
        let mut m = model(60);
        m.set_overlap(4096, &layout(LENS));
        assert!(m.overlap().expect("plan set").shares.len() >= 2);
        let cluster = ClusterSpec::for_socs(60);
        for groups in [8, 12, 20] {
            let mapping = integrity_greedy(&cluster, 60, groups);
            let cgs = divide_communication_groups(&mapping).unwrap();
            let wf =
                simulate_socflow_schedule(&m, &mapping, &cgs, true, SyncSchedule::WaitFree, 1.0);
            let il =
                simulate_socflow_schedule(&m, &mapping, &cgs, true, SyncSchedule::Interleaved, 1.0);
            let serial =
                simulate_socflow_schedule(&m, &mapping, &cgs, true, SyncSchedule::Serial, 1.0);
            let eps = 1e-6 * serial.cost.time;
            assert!(
                wf.cost.time <= il.cost.time + eps,
                "{groups} groups: wait-free {} vs interleaved {}",
                wf.cost.time,
                il.cost.time
            );
            assert!(
                wf.cost.time <= serial.cost.time + eps,
                "{groups} groups: wait-free {} vs serial {}",
                wf.cost.time,
                serial.cost.time
            );
            assert!(!wf.bucket_flushes.is_empty());
        }
    }

    #[test]
    fn wait_free_is_deterministic_and_beats_serial_on_multi_cg() {
        let mut m = model(60);
        m.set_overlap(4096, &layout(LENS));
        let cluster = ClusterSpec::for_socs(60);
        let mapping = integrity_greedy(&cluster, 60, 8);
        let cgs = divide_communication_groups(&mapping).unwrap();
        assert!(cgs.cgs.len() >= 2, "expected a multi-CG coloring");
        let a = simulate_socflow_schedule(&m, &mapping, &cgs, true, SyncSchedule::WaitFree, 1.0);
        let b = simulate_socflow_schedule(&m, &mapping, &cgs, true, SyncSchedule::WaitFree, 1.0);
        assert_eq!(a, b);
        let serial = simulate_socflow_schedule(&m, &mapping, &cgs, true, SyncSchedule::Serial, 1.0);
        assert!(
            a.cost.time < serial.cost.time,
            "wait-free {} vs serial {}",
            a.cost.time,
            serial.cost.time
        );
    }

    /// With everything in one bucket the wait-free schedule degenerates
    /// to the interleaved release (ready at iteration begin), so the
    /// totals agree tightly on a single-CG mapping.
    #[test]
    fn single_bucket_wait_free_matches_interleaved_on_one_cg() {
        let mut m = model(60);
        m.set_overlap(1 << 20, &layout(LENS)); // 1 GiB floor ⇒ one bucket
        assert_eq!(m.overlap().expect("plan set").shares.len(), 1);
        let cluster = ClusterSpec::for_socs(60);
        let mapping = integrity_greedy(&cluster, 60, 12);
        let cgs = divide_communication_groups(&mapping).unwrap();
        assert_eq!(cgs.cgs.len(), 1);
        let wf = simulate_socflow_schedule(&m, &mapping, &cgs, true, SyncSchedule::WaitFree, 1.0);
        let il =
            simulate_socflow_schedule(&m, &mapping, &cgs, true, SyncSchedule::Interleaved, 1.0);
        let rel = (wf.cost.time - il.cost.time).abs() / il.cost.time;
        assert!(
            rel < 1e-9,
            "wait-free {} vs interleaved {} (rel {rel})",
            wf.cost.time,
            il.cost.time
        );
    }

    /// Satellite 1's no-double-count invariant: each CG's per-iteration
    /// bucket bytes sum back to the monolithic gradient wire bytes.
    #[test]
    fn bucket_bytes_partition_the_monolithic_payload_exactly() {
        // partition_exact telescopes by construction
        for total in [36_924_456.0, 1.0, 1e-3] {
            for shares in [vec![0.5, 0.25, 0.25], vec![0.3, 0.3, 0.2, 0.2], vec![1.0]] {
                let parts = partition_exact(total, &shares);
                assert_eq!(parts.iter().sum::<f64>(), total, "shares {shares:?}");
            }
        }
        // and the simulated flushes carry exactly those parts
        let mut m = model(60);
        m.set_overlap(4096, &layout(LENS));
        let n_buckets = m.overlap().expect("plan set").shares.len();
        let cluster = ClusterSpec::for_socs(60);
        let mapping = integrity_greedy(&cluster, 60, 12);
        let cgs = divide_communication_groups(&mapping).unwrap();
        let wf = simulate_socflow_schedule(&m, &mapping, &cgs, true, SyncSchedule::WaitFree, 1.0);
        // every group syncs the full FP32 payload in this mapping
        let slot_wire = m.wire_bytes(1.0) * 12.0;
        let first_iter: Vec<f64> = wf.bucket_flushes[..n_buckets]
            .iter()
            .map(|f| f.bytes)
            .collect();
        assert_eq!(first_iter.len(), n_buckets);
        assert_eq!(first_iter.iter().sum::<f64>(), slot_wire);
        // all iterations flush the same partition
        for chunk in wf.bucket_flushes.chunks(n_buckets) {
            assert_eq!(chunk.iter().map(|f| f.bytes).sum::<f64>(), slot_wire);
        }
    }

    /// Traces carry lanes as these strings, and `trace summarize
    /// --spans-full` parses them back.
    #[test]
    fn lanes_display_as_the_trace_strings() {
        let shown: Vec<String> = [
            Lane::Group(3),
            Lane::Cg(1),
            Lane::Bucket(0, 2),
            Lane::Cluster,
        ]
        .iter()
        .map(Lane::to_string)
        .collect();
        assert_eq!(shown, ["g3", "cg1", "cg0/b2", "cluster"]);
    }

    /// A job that lost every SoC prices to nothing on all three paths:
    /// its plan has no iterations, no slot ring moves bytes and there is
    /// no boundary.
    #[test]
    fn an_empty_mapping_costs_nothing() {
        let m = model(8);
        let mapping = Mapping::from_members(Vec::new(), &ClusterSpec::for_socs(8));
        let (cgs, _) = divide_or_serialize(&mapping);
        let zero = EpochCost {
            time: 0.0,
            breakdown: Breakdown::default(),
            energy: 0.0,
            aggregation: 0.0,
        };
        for planning in [true, false] {
            assert_eq!(m.socflow_epoch(&mapping, &cgs, planning, 1.0), zero);
        }
        for schedule in [
            SyncSchedule::Interleaved,
            SyncSchedule::Serial,
            SyncSchedule::WaitFree,
        ] {
            let sim = simulate_socflow_schedule(&m, &mapping, &cgs, true, schedule, 0.5);
            assert_eq!(sim.cost, zero);
            assert!(sim.spans.is_empty() && sim.bucket_flushes.is_empty());
        }
        assert_eq!(m.socflow_epoch_lower_bound(&mapping, 1.0), 0.0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let m = model(15);
        let cluster = ClusterSpec::for_socs(15);
        let mapping = integrity_greedy(&cluster, 15, 5);
        let cgs = divide_communication_groups(&mapping).unwrap();
        let a = m.socflow_epoch_timeline(&mapping, &cgs, 0.4);
        let b = m.socflow_epoch_timeline(&mapping, &cgs, 0.4);
        assert_eq!(a, b);
    }
}
