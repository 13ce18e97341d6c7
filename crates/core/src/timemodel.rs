//! Simulated per-epoch wall-clock time, breakdown and energy at paper scale.
//!
//! Accuracy comes from really training scaled models ([`crate::engine`]);
//! *time* comes from here: reference dataset sizes, reference model payload
//! sizes, the calibrated per-sample compute model, and the flow-level
//! network simulation. Every method's epoch cost is assembled from the same
//! primitives, so comparisons inherit the cluster's real contention
//! behaviour.
//!
//! Every collective's flows are built here once. [`Collective`] is the
//! ring, parameter server and tree of Fig. 4(b) and the baselines, and
//! `ring_flows` is the one builder of a ring step, which SoCFlow's sync
//! slots and leader ring ([`crate::sim`]) read as well. Flow batches that
//! run one after another are priced by one closed-form fold: Σ
//! [`ClusterNet::collective_step_time`] × repeat. Eq. 1
//! ([`TimeModel::socflow_epoch`]) folds the very slot rings and boundary
//! batches the timeline simulates.
//!
//! All methods benefit from the paper's two implementation optimizations
//! where applicable: layer-by-layer compute/communication overlap (periods
//! are `max(compute, sync)` rather than sums) and underclocking-aware
//! re-balancing (see [`TimeModel::group_compute_time`]).

use crate::config::{MethodSpec, TrainJobSpec, PIPELINE_GROUP};
use crate::mapping::Mapping;
use crate::planning::{iteration_time, CommunicationGroups};
use crate::report::Breakdown;
use crate::sim::EpochPlan;
use socflow_cluster::{
    calibration, ClusterNet, ClusterSpec, ComputeModel, EnergyMeter, Flow, PowerState, Processor,
    Seconds, SocId,
};
use socflow_nn::models::ModelKind;
use socflow_nn::{bucketize, GradReady};
use socflow_telemetry::Event;

/// Default wait-free gradient bucket size, KiB of reference payload (the
/// `--bucket-kb` default). Large enough that per-bucket ring latency stays
/// a small fraction of the bucket's drain time, small enough that several
/// buckets release while backprop still runs.
pub const DEFAULT_BUCKET_KB: usize = 4096;

/// How the reference gradient payload is bucketed for wait-free overlap
/// ([`crate::sim::SyncSchedule::WaitFree`]): built by
/// [`TimeModel::set_overlap`] from a scaled model's
/// [`GradReady`] layout, with per-layer byte *fractions* mapped onto the
/// reference payload so the simulator prices paper-scale transfers.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapPlan {
    /// Per-bucket share of the wire payload, in release order (output-most
    /// layers first — the order backprop produces gradients). The shares
    /// sum to exactly 1: the last share is computed as the residual, so
    /// bucket edges can never double-count bytes.
    pub shares: Vec<f64>,
    /// Per-bucket top-level layer range `(first, last)`, inclusive — for
    /// telemetry (`BucketFlushed`) and span rendering.
    pub layers: Vec<(usize, usize)>,
}

/// Cost of one simulated epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochCost {
    /// Wall-clock epoch time, seconds.
    pub time: Seconds,
    /// Visible-time breakdown.
    pub breakdown: Breakdown,
    /// Energy across all participating devices, joules.
    pub energy: f64,
    /// Share of `breakdown.sync` spent on the epoch-boundary (delayed)
    /// aggregation: leader ring + broadcast + shuffle for SoCFlow, the
    /// end-of-epoch aggregation for federated methods. 0 for purely
    /// synchronous methods (their sync is all per-batch).
    pub aggregation: Seconds,
}

impl EpochCost {
    /// The [`Event::EpochCompleted`] of epoch `epoch` at this cost: the
    /// accuracy it reached, its `groups` and the mixed-precision split
    /// `(α, CPU share of each batch)` it trained at.
    pub fn completed(
        &self,
        epoch: usize,
        accuracy: f32,
        groups: usize,
        (alpha, cpu_fraction): (f32, f64),
    ) -> Event {
        Event::EpochCompleted {
            epoch,
            accuracy,
            time: self.time,
            compute: self.breakdown.compute,
            sync: self.breakdown.sync,
            update: self.breakdown.update,
            aggregation: self.aggregation,
            alpha,
            cpu_fraction,
            energy: self.energy,
            groups,
        }
    }
}

/// The per-method time/energy model for one job.
#[derive(Debug, Clone)]
pub struct TimeModel {
    net: ClusterNet,
    compute: ComputeModel,
    /// FP32 gradient/weight payload, bytes (reference model).
    payload: f64,
    /// Reference dataset size (samples per epoch).
    ref_samples: usize,
    /// Bytes of one input sample on the wire (for cross-group shuffling).
    sample_bytes: f64,
    socs: usize,
    batch: usize,
    params: f64,
    /// Wait-free gradient bucketing: when set, planned SoCFlow epochs use
    /// [`crate::sim::SyncSchedule::WaitFree`].
    overlap: Option<OverlapPlan>,
}

impl TimeModel {
    /// Builds the model for a job spec.
    pub fn new(spec: &TrainJobSpec) -> Self {
        let cluster = ClusterSpec::for_socs(spec.socs);
        let preset = spec.preset.spec();
        let anchors = match spec.model {
            ModelKind::LeNet5 => calibration::LENET5,
            ModelKind::Vgg11 => calibration::VGG11,
            ModelKind::ResNet18 => calibration::RESNET18,
            ModelKind::ResNet50 => calibration::RESNET50,
            ModelKind::MobileNetV1 => calibration::MOBILENET_V1,
        };
        TimeModel {
            net: ClusterNet::new(cluster),
            compute: ComputeModel::new(anchors, spec.socs),
            payload: spec.model.payload_bytes_fp32() as f64,
            ref_samples: preset.reference_samples,
            sample_bytes: (preset.channels * preset.size * preset.size) as f64,
            socs: spec.socs,
            batch: spec.global_batch,
            params: spec.model.reference_params() as f64,
            overlap: None,
        }
    }

    /// Does nothing: every SoCFlow run is priced on the event-driven
    /// timeline ([`Self::socflow_epoch_timeline`]), so there is no mode to
    /// select. Kept only because the benchmark probe still calls it; it
    /// goes together with that call in the next benchmark change.
    pub fn set_simulated(&mut self, _on: bool) {}

    /// Enables wait-free gradient bucketing for simulated SoCFlow epochs:
    /// the scaled model's flat-gradient `layout` is coalesced into buckets
    /// of at least `bucket_kb` KiB *of reference payload* (per-layer byte
    /// fractions scale onto [`ModelKind::payload_bytes_fp32`]-sized
    /// transfers), in reverse-topological release order. With the plan set,
    /// [`Self::socflow_epoch_timeline`] prices planned epochs with
    /// [`crate::sim::SyncSchedule::WaitFree`] instead of
    /// [`crate::sim::SyncSchedule::Interleaved`].
    ///
    /// # Panics
    /// Panics if `bucket_kb` is zero.
    pub fn set_overlap(&mut self, bucket_kb: usize, layout: &[GradReady]) {
        assert!(bucket_kb > 0, "bucket size must be positive");
        let total: usize = layout.iter().map(|g| g.len).sum();
        let min_params = if total == 0 {
            1
        } else {
            // map the KiB threshold from reference-payload bytes onto the
            // scaled layout's parameter counts
            let bytes_per_param = self.payload / total as f64;
            (((bucket_kb as f64 * 1024.0) / bytes_per_param).ceil() as usize).max(1)
        };
        let buckets = bucketize(layout, min_params);
        let mut shares: Vec<f64> = buckets
            .iter()
            .map(|b| {
                if total == 0 {
                    1.0
                } else {
                    b.len as f64 / total as f64
                }
            })
            .collect();
        // the last share takes the residual so the shares sum to exactly 1
        let head: f64 = shares[..shares.len() - 1].iter().sum();
        *shares.last_mut().expect("bucketize never returns empty") = (1.0 - head).max(0.0);
        self.overlap = Some(OverlapPlan {
            shares,
            layers: buckets
                .iter()
                .map(|b| (b.first_layer, b.last_layer))
                .collect(),
        });
    }

    /// The active wait-free overlap plan, if any.
    pub fn overlap(&self) -> Option<&OverlapPlan> {
        self.overlap.as_ref()
    }

    /// The underlying network simulation.
    pub fn net(&self) -> &ClusterNet {
        &self.net
    }

    /// Mutable access to the network simulation (background-load injection
    /// for co-location experiments).
    pub fn net_mut(&mut self) -> &mut ClusterNet {
        &mut self.net
    }

    /// Attaches a telemetry sink to the underlying network simulation so
    /// every flow-level transfer is traced.
    pub fn set_sink(&mut self, sink: std::sync::Arc<dyn socflow_telemetry::EventSink>) {
        self.net.set_sink(sink);
    }

    /// The underlying compute model (mutable for underclock injection).
    pub fn compute_mut(&mut self) -> &mut ComputeModel {
        &mut self.compute
    }

    /// The underlying compute model.
    pub fn compute(&self) -> &ComputeModel {
        &self.compute
    }

    /// Reference samples per epoch.
    pub fn ref_samples(&self) -> usize {
        self.ref_samples
    }

    /// Batch size per logical group (the paper's `BS_g`).
    pub(crate) fn batch(&self) -> usize {
        self.batch
    }

    /// Bytes of one input sample on the wire.
    pub(crate) fn sample_bytes(&self) -> f64 {
        self.sample_bytes
    }

    /// Bytes one group member syncs per iteration: the reference model's
    /// FP32 payload, or its INT8 (+scales) form in mixed-precision mode.
    pub(crate) fn wire_bytes(&self, cpu_fraction: f64) -> f64 {
        if cpu_fraction < 1.0 {
            self.payload * calibration::INT8_WIRE_FRACTION
        } else {
            self.payload
        }
    }

    /// Per-batch compute time of one logical group whose CPUs take the
    /// `cpu_fraction` share of the batch (1.0 = pure FP32) and whose NPUs
    /// the rest: the paper's underclocking-aware re-balancing gives each
    /// SoC a share proportional to its current clock, so the group finishes
    /// together, at the slower of the two halves. Without re-balancing the
    /// slowest SoC's equal share would dominate
    /// ([`Self::equal_share_compute_time`]).
    pub fn group_compute_time(
        &self,
        group: &[socflow_cluster::SocId],
        cpu_fraction: f64,
    ) -> Seconds {
        let speed_sum: f64 = group.iter().map(|s| self.compute.underclock(s.0)).sum();
        let cpu_n = self.batch as f64 * cpu_fraction;
        let npu_n = self.batch as f64 - cpu_n;
        let t_cpu = self.compute.per_sample(Processor::SocCpuFp32) * cpu_n / speed_sum;
        let t_npu = self.compute.per_sample(Processor::SocNpuInt8) * npu_n / speed_sum;
        t_cpu.max(t_npu)
    }

    pub(crate) fn update_time(&self) -> Seconds {
        self.params * calibration::UPDATE_FLOPS_PER_PARAM / calibration::SOC_CPU_FLOPS
    }

    /// Single-processor training: the whole dataset on `proc`, no
    /// synchronization — one SoC for the Local reference and Fig. 4(a),
    /// one datacenter GPU for Fig. 11.
    pub fn local_epoch(&self, proc: Processor) -> EpochCost {
        let compute = self.compute.per_sample(proc) * self.ref_samples as f64;
        let iters = (self.ref_samples as f64 / self.batch as f64).ceil();
        let update = self.update_time() * iters;
        let time = compute + update;
        let state = match proc {
            Processor::SocCpuFp32 => PowerState::SocCpuTrain,
            Processor::SocNpuInt8 => PowerState::SocNpuTrain,
            Processor::GpuV100 => PowerState::GpuV100,
            Processor::GpuA100 => PowerState::GpuA100,
        };
        let energy = match proc {
            Processor::GpuV100 | Processor::GpuA100 => state.watts() * time,
            _ => soc_epoch_energy(time, compute, 0.0, state),
        };
        EpochCost {
            time,
            breakdown: Breakdown {
                compute,
                sync: 0.0,
                update,
            },
            energy,
            aggregation: 0.0,
        }
    }

    /// Fully synchronous data-parallel methods (PS / RING / HiPress /
    /// 2D-Paral): per-batch synchronization across all SoCs.
    ///
    /// - `wire_fraction` scales the payload on the wire (1.0 plain FP32,
    ///   [`calibration::DGC_WIRE_FRACTION`] for HiPress).
    /// - `extra_flops_per_param` charges compression CPU overhead.
    /// - `pipelined` selects the 2D-Paral shape: SoCs form pipeline units
    ///   of [`PIPELINE_GROUP`]; only unit leaders join the inter-unit ring.
    pub fn sync_epoch(
        &self,
        collective: Collective,
        wire_fraction: f64,
        extra_flops_per_param: f64,
        pipelined: bool,
    ) -> EpochCost {
        let iters = (self.ref_samples as f64 / self.batch as f64).ceil();
        let all: Vec<_> = (0..self.socs).map(socflow_cluster::SocId).collect();

        let (compute, sync_members): (Seconds, Vec<socflow_cluster::SocId>) = if pipelined {
            let g = PIPELINE_GROUP.min(self.socs);
            let units = (self.socs / g).max(1);
            let unit_share = self.batch as f64 / units as f64;
            let t = self.compute.per_sample(Processor::SocCpuFp32) * unit_share
                / (g as f64 * calibration::PIPELINE_EFFICIENCY);
            // unit leaders: every g-th SoC
            let leaders = (0..units).map(|u| socflow_cluster::SocId(u * g)).collect();
            (t, leaders)
        } else {
            let per_soc = self.batch as f64 / self.socs as f64;
            let t = self.compute.per_sample(Processor::SocCpuFp32) * per_soc;
            (t, all)
        };
        let compute = compute + extra_flops_per_param * self.params / calibration::SOC_CPU_FLOPS;

        let wire = self.payload * wire_fraction;
        let sync = collective.time(&self.net, &sync_members, wire);
        // PS cannot overlap (centralized blocking aggregation); ring-style
        // methods use layer-by-layer overlap.
        let overlap = collective == Collective::Ring;
        let update = self.update_time();
        let (period, bd) = iteration_time(compute, &[sync], update, overlap);
        let time = period * iters;
        let energy = self.socs as f64
            * soc_epoch_energy(
                time,
                bd.compute * iters,
                sync * iters,
                PowerState::SocCpuTrain,
            );
        EpochCost {
            time,
            breakdown: bd.scaled(iters),
            energy,
            aggregation: 0.0,
        }
    }

    /// Federated methods: local training all epoch, one aggregation at the
    /// end (PS for FedAvg, `tree` for T-FedAvg's binary tree).
    pub fn federated_epoch(&self, tree: bool) -> EpochCost {
        let all: Vec<_> = (0..self.socs).map(socflow_cluster::SocId).collect();
        let shard = self.ref_samples as f64 / self.socs as f64;
        let compute = self.compute.per_sample(Processor::SocCpuFp32) * shard;
        let local_iters = (shard / self.batch as f64).ceil();
        let update = self.update_time() * local_iters;
        // FedAvg aggregates on the control board (20 Gb/s switch path);
        // T-FedAvg reduces over an in-cluster tree first.
        let sync = if tree {
            Collective::Tree.time(&self.net, &all, self.payload)
        } else {
            2.0 * calibration::STEP_LATENCY_INTER
                + self.net.control_transfer(&all, self.payload, true).makespan
                + self
                    .net
                    .control_transfer(&all, self.payload, false)
                    .makespan
        };
        let time = compute + update + sync;
        let energy =
            self.socs as f64 * soc_epoch_energy(time, compute, sync, PowerState::SocCpuTrain);
        EpochCost {
            time,
            breakdown: Breakdown {
                compute,
                sync,
                update,
            },
            energy,
            // federated sync *is* the end-of-epoch aggregation
            aggregation: sync,
        }
    }

    /// One epoch of `method` when nothing that happens in training moves
    /// its price: Local and the six baselines cost the same every epoch.
    /// `None` for the SoCFlow variants, whose CPU share follows α
    /// ([`Self::socflow_epoch_timeline`]).
    pub fn baseline_epoch(&self, method: MethodSpec) -> Option<EpochCost> {
        Some(match method {
            MethodSpec::Local => self.local_epoch(Processor::SocCpuFp32),
            MethodSpec::ParameterServer => self.sync_epoch(Collective::Ps, 1.0, 0.0, false),
            MethodSpec::Ring => self.sync_epoch(Collective::Ring, 1.0, 0.0, false),
            MethodSpec::HiPress => self.sync_epoch(
                Collective::Ring,
                calibration::DGC_WIRE_FRACTION,
                calibration::DGC_OVERHEAD_FLOPS_PER_PARAM,
                false,
            ),
            MethodSpec::TwoDParallel => self.sync_epoch(Collective::Ring, 1.0, 0.0, true),
            MethodSpec::FedAvg => self.federated_epoch(false),
            MethodSpec::TFedAvg => self.federated_epoch(true),
            MethodSpec::SocFlow(_) => return None,
        })
    }

    /// SoCFlow's epoch in the closed form of the paper's Eq. 1: per-batch
    /// intra-group rings (scheduled over the CGs), one delayed inter-group
    /// aggregation + data shuffle at the epoch boundary.
    ///
    /// Runs are priced on the event-driven timeline
    /// ([`Self::socflow_epoch_timeline`]); this closed form is what the
    /// paper uses Eq. 1 for — the model behind the group-size heuristic —
    /// and the oracle the timeline is property-tested against.
    ///
    /// `cpu_fraction` is the mixed-precision controller's current CPU share
    /// (1.0 = pure FP32, 0.0 = pure INT8). SoCFlow's underclocking-aware
    /// re-balancing is applied: within each group, per-SoC shares are
    /// proportional to current clocks, so a throttled SoC slows its group
    /// by the *average* deficit, not the worst one (see
    /// [`Self::group_compute_time`]).
    ///
    /// # Examples
    ///
    /// Price one SoCFlow epoch on the paper's default topology (32 SoCs,
    /// 8 logical groups) and check that planning hides sync behind
    /// compute:
    ///
    /// ```
    /// use socflow::mapping::integrity_greedy;
    /// use socflow::planning::divide_communication_groups;
    /// use socflow::prelude::*;
    /// use socflow::timemodel::TimeModel;
    /// use socflow_cluster::ClusterSpec;
    ///
    /// let spec = TrainJobSpec::new(
    ///     ModelKind::Vgg11,
    ///     DatasetPreset::Cifar10,
    ///     MethodSpec::SocFlow(SocFlowConfig::with_groups(8)),
    /// );
    /// let model = TimeModel::new(&spec);
    /// let mapping = integrity_greedy(&ClusterSpec::for_socs(32), 32, 8);
    /// let cgs = divide_communication_groups(&mapping).unwrap();
    ///
    /// let planned = model.socflow_epoch(&mapping, &cgs, true, 1.0);
    /// let serial = model.socflow_epoch(&mapping, &cgs, false, 1.0);
    /// assert!(planned.time > 0.0);
    /// assert!(planned.time <= serial.time); // overlap only ever helps
    /// ```
    pub fn socflow_epoch(
        &self,
        mapping: &Mapping,
        cgs: &CommunicationGroups,
        planning: bool,
        cpu_fraction: f64,
    ) -> EpochCost {
        let plan = EpochPlan::new(self, mapping, cgs, planning, cpu_fraction);
        let iters = plan.iters as f64;

        // Intra-group sync. All groups of one "communication slot" run
        // their ring steps simultaneously, so each slot is priced as a
        // joint flow simulation — NIC contention between split groups
        // materializes here. With planning the slots are the CGs
        // (contention-free by construction); without it every group syncs
        // at once, and whatever conflicts the mapping left contend.
        let cg_syncs: Vec<Seconds> = plan
            .slots
            .iter()
            .map(|ring| step_sum(&self.net, [(&ring.flows[..], ring.steps)]))
            .collect();
        let (period, bd) = iteration_time(plan.slowest_compute(), &cg_syncs, plan.update, planning);

        // delayed aggregation at the epoch boundary: leader ring + weight
        // broadcast + data shuffle
        let boundary = plan.boundary.iter().map(|b| (&b.flows[..], b.repeat));
        let epoch_sync = step_sum(&self.net, boundary);

        let time = period * iters + epoch_sync;
        let mut breakdown = bd.scaled(iters);
        breakdown.sync += epoch_sync;
        let sync_busy = cg_syncs.iter().sum::<f64>() * iters + epoch_sync;
        plan.cost(time, breakdown, sync_busy, epoch_sync)
    }

    /// Stall charged when a SoC *crashes*: the survivors reload the latest
    /// checkpoint from board flash (~1 Gb/s effective), redo the lost
    /// in-flight batch, and pay a fixed re-coordination latency. Graceful
    /// reclaims never pay this — they checkpoint before leaving.
    pub fn restore_stall_time(&self) -> Seconds {
        let reload = self.payload / calibration::FLASH_BYTES_PER_S;
        let redo_batch = self.compute.per_sample(Processor::SocCpuFp32) * self.batch as f64;
        reload + redo_batch + 1.0
    }

    /// Cost of persisting one durable checkpoint to board flash. Writes are
    /// asynchronous (write-behind), so this is *reported* via telemetry but
    /// never charged to the training clock.
    pub fn checkpoint_persist_time(&self) -> Seconds {
        self.payload / calibration::FLASH_BYTES_PER_S + 0.5
    }

    /// Stall a baseline pays per epoch in which any of its SoCs is
    /// reclaimed: it keeps its SoCs, so it writes a full model snapshot and
    /// restores it, plus a fixed re-coordination latency.
    pub fn checkpoint_stall_time(&self) -> Seconds {
        2.0 * self.payload / calibration::FLASH_BYTES_PER_S + 1.0
    }

    /// The FP32 per-batch compute time of one group whose SoCs take equal
    /// shares whatever their clocks, for comparison with the re-balanced
    /// [`Self::group_compute_time`].
    pub fn equal_share_compute_time(&self, group: &[socflow_cluster::SocId]) -> Seconds {
        let per_soc = self.batch as f64 / group.len() as f64;
        let t_sample = self.compute.per_sample(Processor::SocCpuFp32);
        group
            .iter()
            .map(|s| per_soc * t_sample / self.compute.underclock(s.0))
            .fold(0.0, f64::max)
    }
}

/// A collective over a member set, as flow batches that run one after
/// another. [`Collective::time`] prices them by one closed-form fold: each
/// batch's [`ClusterNet::collective_step_time`] times its repeat count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    /// Horovod-style Ring-AllReduce: `2(n−1)` identical steps, each moving
    /// one `bytes/n` chunk per member to its ring successor. Bandwidth-
    /// optimal, but every step pays the protocol latency — the
    /// linear-in-`n` latency growth of Fig. 4(b).
    Ring,
    /// Parameter server: every worker pushes `bytes` to the first member,
    /// the server, which then sends the aggregate back. The server's
    /// single 1 Gb/s link is the incast bottleneck.
    Ps,
    /// Tree aggregation (T-FedAvg): reduce up a binary tree rooted at the
    /// first member, deepest level first, then broadcast down the same
    /// levels in reverse.
    Tree,
}

impl Collective {
    /// Wall-clock time for `members` to combine `bytes` each (every member
    /// ends with the result); 0 for fewer than two members or no bytes.
    ///
    /// # Examples
    ///
    /// ```
    /// use socflow::timemodel::Collective;
    /// use socflow_cluster::{ClusterNet, ClusterSpec, SocId};
    ///
    /// let net = ClusterNet::new(ClusterSpec::paper_server());
    /// let members: Vec<SocId> = (0..32).map(SocId).collect();
    /// let ring = Collective::Ring.time(&net, &members, 36.9e6);
    /// let ps = Collective::Ps.time(&net, &members, 36.9e6);
    /// assert!(ring < ps, "at 32 SoCs the ring beats the incast-bound PS");
    /// ```
    pub fn time(self, net: &ClusterNet, members: &[SocId], bytes: f64) -> Seconds {
        if members.len() < 2 || bytes == 0.0 {
            return 0.0;
        }
        let batches = self.batches(members, bytes);
        step_sum(net, batches.iter().map(|(flows, n)| (&flows[..], *n)))
    }

    /// The pattern's flow batches in order, each with its repeat count.
    /// `members` holds at least two SoCs.
    pub(crate) fn batches(self, members: &[SocId], bytes: f64) -> Vec<(Vec<Flow>, usize)> {
        let n = members.len();
        match self {
            Collective::Ring => vec![(ring_flows(members, bytes).collect(), 2 * (n - 1))],
            Collective::Ps => {
                let server = members[0];
                let workers = members.iter().filter(|&&m| m != server);
                let push = workers.clone().map(|&m| Flow::new(m, server, bytes));
                let pull = workers.map(|&m| Flow::new(server, m, bytes));
                vec![(push.collect(), 1), (pull.collect(), 1)]
            }
            Collective::Tree => {
                // heap order: node i's parent is (i−1)/2, and level d holds
                // nodes 2^d − 1 ..= 2^(d+1) − 2
                let level = |d: u32| {
                    let nodes = (1 << d) - 1..((2 << d) - 1).min(n);
                    nodes.map(|i| (members[i], members[(i - 1) / 2]))
                };
                let depth = (n as u32).ilog2();
                let up = |d| level(d).map(|(c, p)| Flow::new(c, p, bytes)).collect();
                let down = |d| level(d).map(|(c, p)| Flow::new(p, c, bytes)).collect();
                let levels = (1..=depth).rev().map(up).chain((1..=depth).map(down));
                levels.map(|l| (l, 1)).collect()
            }
        }
    }
}

/// One SoC's energy over an epoch of `wall` seconds: `compute_s` in its
/// training `state`, then up to `sync_s` with its radio on, idle for the
/// rest.
pub(crate) fn soc_epoch_energy(
    wall: Seconds,
    compute_s: Seconds,
    sync_s: Seconds,
    state: PowerState,
) -> f64 {
    let mut m = EnergyMeter::new();
    let busy = (compute_s + sync_s).min(wall);
    m.charge(state, compute_s.min(wall));
    m.charge(
        PowerState::SocNetwork,
        sync_s.min(wall - compute_s.min(wall)),
    );
    m.charge(PowerState::SocIdle, (wall - busy).max(0.0));
    m.joules()
}

/// One ring step's flows: each of `members` sends its `bytes / n` chunk
/// to its ring successor; none for fewer than two members. The one
/// builder of a ring step: [`Collective::Ring`], every sync slot and the
/// epoch boundary's leader ring ([`crate::sim`]) read it.
pub(crate) fn ring_flows(members: &[SocId], bytes: f64) -> impl Iterator<Item = Flow> + '_ {
    let n = members.len();
    let chunk = bytes / n as f64;
    let senders = if n >= 2 { n } else { 0 };
    (0..senders).map(move |i| Flow::new(members[i], members[(i + 1) % n], chunk))
}

/// Flow batches run one after another, priced in closed form: the sum of
/// each batch's [`ClusterNet::collective_step_time`] times its repeat
/// count, in order. Folded from `+0.0`, never `Iterator::sum`, whose empty
/// `f64` sum is `-0.0`.
fn step_sum<'a>(
    net: &ClusterNet,
    batches: impl IntoIterator<Item = (&'a [Flow], usize)>,
) -> Seconds {
    batches.into_iter().fold(0.0, |t, (flows, repeat)| {
        t + net.collective_step_time(flows) * repeat as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MethodSpec, TrainJobSpec};
    use crate::mapping::integrity_greedy;
    use crate::planning::divide_communication_groups;
    use socflow_data::DatasetPreset;

    fn model() -> TimeModel {
        TimeModel::new(&TrainJobSpec::new(
            ModelKind::Vgg11,
            DatasetPreset::Cifar10,
            MethodSpec::Ring,
        ))
    }

    #[test]
    fn local_cpu_epoch_matches_anchor() {
        // 50k samples × 10.5 ms ≈ 525 s/epoch; 200 epochs ≈ 29.1 h
        let c = model().local_epoch(Processor::SocCpuFp32);
        assert!((c.time - 525.0).abs() < 30.0, "epoch {}s", c.time);
        assert!(c.energy > 0.0);
    }

    #[test]
    fn npu_epoch_faster_and_cheaper() {
        let m = model();
        let cpu = m.local_epoch(Processor::SocCpuFp32);
        let npu = m.local_epoch(Processor::SocNpuInt8);
        assert!(npu.time < cpu.time / 2.0);
        assert!(npu.energy < cpu.energy / 2.0);
    }

    #[test]
    fn ring_beats_ps() {
        let m = model();
        let ring = m.sync_epoch(Collective::Ring, 1.0, 0.0, false);
        let ps = m.sync_epoch(Collective::Ps, 1.0, 0.0, false);
        assert!(ring.time < ps.time, "ring {} vs ps {}", ring.time, ps.time);
    }

    #[test]
    fn hipress_beats_plain_ring() {
        let m = model();
        let ring = m.sync_epoch(Collective::Ring, 1.0, 0.0, false);
        let hipress = m.sync_epoch(
            Collective::Ring,
            calibration::DGC_WIRE_FRACTION,
            calibration::DGC_OVERHEAD_FLOPS_PER_PARAM,
            false,
        );
        assert!(hipress.time < ring.time);
    }

    #[test]
    fn socflow_beats_every_sync_baseline() {
        let m = model();
        let spec = ClusterSpec::for_socs(32);
        let mapping = integrity_greedy(&spec, 32, 8);
        let cgs = divide_communication_groups(&mapping).unwrap();
        let ours = m.socflow_epoch(&mapping, &cgs, true, 0.3);
        let ring = m.sync_epoch(Collective::Ring, 1.0, 0.0, false);
        let two_d = m.sync_epoch(Collective::Ring, 1.0, 0.0, true);
        assert!(
            ours.time < ring.time / 5.0,
            "ours {} ring {}",
            ours.time,
            ring.time
        );
        assert!(
            ours.time < two_d.time,
            "ours {} 2d {}",
            ours.time,
            two_d.time
        );
    }

    #[test]
    fn federated_sync_is_tiny_fraction() {
        let m = model();
        let fed = m.federated_epoch(false);
        // paper Fig. 12: FedAvg sync is 16.5-34.7% of total
        let frac = fed.breakdown.sync / fed.time;
        assert!(frac < 0.4, "FedAvg sync fraction {frac}");
    }

    #[test]
    fn mixed_precision_shrinks_wire_and_time() {
        // the INT8-wire effect behind the paper's "+Mixed" ablation arm
        let m = model();
        let spec = ClusterSpec::for_socs(32);
        let mapping = integrity_greedy(&spec, 32, 8);
        let cgs = divide_communication_groups(&mapping).unwrap();
        let fp32 = m.socflow_epoch(&mapping, &cgs, true, 1.0);
        let mixed = m.socflow_epoch(&mapping, &cgs, true, 0.37);
        assert!(
            mixed.time < fp32.time / 1.8,
            "mixed {} vs fp32 {}",
            mixed.time,
            fp32.time
        );
        assert!(
            mixed.energy < fp32.energy,
            "NPU + less tx time = less energy"
        );
    }

    #[test]
    fn planning_only_helps_or_is_neutral() {
        let m = model();
        let spec = ClusterSpec::for_socs(32);
        // a deliberately conflict-heavy mapping: sequential packing
        let mapping = crate::mapping::sequential(&spec, 32, 8);
        let cgs = divide_communication_groups(&mapping).unwrap();
        let with_plan = m.socflow_epoch(&mapping, &cgs, true, 1.0);
        let without = m.socflow_epoch(&mapping, &cgs, false, 1.0);
        assert!(
            with_plan.time <= without.time * 1.001,
            "planning must not hurt: {} vs {}",
            with_plan.time,
            without.time
        );
    }

    #[test]
    fn rebalancing_beats_equal_share_under_dvfs() {
        let mut m = model();
        m.compute_mut().set_underclock(0, 0.5);
        let group: Vec<_> = (0..4).map(socflow_cluster::SocId).collect();
        let balanced = m.group_compute_time(&group, 1.0);
        let equal = m.equal_share_compute_time(&group);
        assert!(balanced < equal, "balanced {balanced} vs equal {equal}");
    }

    #[test]
    fn shrunk_mapping_prices_only_participants() {
        // after elastic shrink the epoch must not bill SoCs that left
        let m = model();
        let spec = ClusterSpec::for_socs(32);
        let full = integrity_greedy(&spec, 32, 8);
        let alive: Vec<_> = (0..20).map(socflow_cluster::SocId).collect();
        let shrunk = crate::mapping::integrity_greedy_over(&spec, &alive, 5);
        let cgs_full = divide_communication_groups(&full).unwrap();
        let cgs_shrunk = divide_communication_groups(&shrunk).unwrap();
        let c_full = m.socflow_epoch(&full, &cgs_full, true, 1.0);
        let c_shrunk = m.socflow_epoch(&shrunk, &cgs_shrunk, true, 1.0);
        assert!(
            c_shrunk.energy < c_full.energy,
            "20 SoCs must draw less than 32: {} vs {}",
            c_shrunk.energy,
            c_full.energy
        );
    }

    #[test]
    fn fault_cost_helpers_are_positive_and_ordered() {
        let m = model();
        let restore = m.restore_stall_time();
        let persist = m.checkpoint_persist_time();
        assert!(restore > 0.0 && persist > 0.0);
        // a crash restore redoes a batch on top of the payload transfer,
        // so it always exceeds the async persist cost
        assert!(restore > persist, "restore {restore} persist {persist}");
    }

    #[test]
    fn a_gpu_local_epoch_is_power_hungry() {
        let m = model();
        let v100 = m.local_epoch(Processor::GpuV100);
        let soc = m.local_epoch(Processor::SocNpuInt8);
        assert!(v100.time < soc.time, "V100 faster than one SoC");
        // but joules per epoch are not 60x better (energy-efficiency story)
        assert!(v100.energy > soc.energy / 60.0);
    }
}
