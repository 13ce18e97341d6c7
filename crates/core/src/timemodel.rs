//! Simulated per-epoch wall-clock time, breakdown and energy at paper scale.
//!
//! Accuracy comes from really training scaled models ([`crate::engine`]);
//! *time* comes from here: reference dataset sizes, reference model payload
//! sizes, the calibrated per-sample compute model, and the flow-level
//! network simulation. Every method's epoch cost is assembled from the same
//! primitives, so comparisons inherit the cluster's real contention
//! behaviour.
//!
//! All methods benefit from the paper's two implementation optimizations
//! where applicable: layer-by-layer compute/communication overlap (periods
//! are `max(compute, sync)` rather than sums) and underclocking-aware
//! re-balancing (see [`TimeModel::rebalanced_compute_time`]).

use crate::config::{MethodSpec, TrainJobSpec};
use crate::mapping::Mapping;
use crate::planning::{iteration_time, CommunicationGroups};
use crate::report::Breakdown;
use socflow_cluster::{
    calibration, ClusterNet, ClusterSpec, ComputeModel, EnergyMeter, Flow, PowerState, Processor,
    Seconds,
};
use socflow_collectives::{Collective, ParameterServer, RingAllReduce, TreeAggregate};
use socflow_nn::{bucketize, GradReady};

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
    /// Requested bucket size, KiB of reference payload.
    pub bucket_kb: usize,
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
    /// Price SoCFlow epochs on the event-driven timeline ([`crate::sim`])
    /// instead of the closed-form schedule.
    simulated: bool,
    /// Wait-free gradient bucketing: when set (and `simulated`), planned
    /// SoCFlow epochs use [`crate::sim::SyncSchedule::WaitFree`].
    overlap: Option<OverlapPlan>,
}

impl TimeModel {
    /// Builds the model for a job spec.
    pub fn new(spec: &TrainJobSpec) -> Self {
        let cluster = ClusterSpec::for_socs(spec.socs);
        let preset = spec.preset.spec();
        TimeModel {
            net: ClusterNet::new(cluster),
            // ModelKind's display names are a closed set and every one has a
            // calibration row (pinned by the model_of tests), so this cannot
            // fail for a spec built through the public API.
            compute: ComputeModel::new(&spec.model.to_string(), spec.socs)
                .expect("every ModelKind has a calibration row"),
            payload: spec.model.payload_bytes_fp32() as f64,
            ref_samples: preset.reference_samples,
            sample_bytes: (preset.channels * preset.size * preset.size) as f64,
            socs: spec.socs,
            batch: spec.global_batch,
            params: spec.model.reference_params() as f64,
            simulated: false,
            overlap: None,
        }
    }

    /// Selects how [`Self::socflow_epoch`] prices an epoch: `true` runs
    /// the event-driven timeline simulation ([`crate::sim`]), `false`
    /// (the default) keeps the analytic closed form.
    pub fn set_simulated(&mut self, on: bool) {
        self.simulated = on;
    }

    /// `true` when SoCFlow epochs are priced on the event-driven timeline.
    pub fn simulated(&self) -> bool {
        self.simulated
    }

    /// Enables wait-free gradient bucketing for simulated SoCFlow epochs:
    /// the scaled model's flat-gradient `layout` is coalesced into buckets
    /// of at least `bucket_kb` KiB *of reference payload* (per-layer byte
    /// fractions scale onto [`ModelKind::payload_bytes_fp32`]-sized
    /// transfers), in reverse-topological release order. With the plan set,
    /// [`Self::socflow_epoch_timeline`] prices planned epochs with
    /// [`crate::sim::SyncSchedule::WaitFree`] instead of
    /// [`crate::sim::SyncSchedule::Interleaved`].
    ///
    /// [`ModelKind::payload_bytes_fp32`]: socflow_nn::models::ModelKind::payload_bytes_fp32
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
            bucket_kb,
            shares,
            layers: buckets
                .iter()
                .map(|b| (b.first_layer, b.last_layer))
                .collect(),
        });
    }

    /// Removes the wait-free overlap plan (planned simulated epochs fall
    /// back to [`crate::sim::SyncSchedule::Interleaved`]).
    pub fn clear_overlap(&mut self) {
        self.overlap = None;
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

    /// FP32 gradient/weight payload of the reference model, bytes.
    pub(crate) fn payload(&self) -> f64 {
        self.payload
    }

    /// Bytes of one input sample on the wire.
    pub(crate) fn sample_bytes(&self) -> f64 {
        self.sample_bytes
    }

    /// Per-batch compute time of one logical group: re-balancing gives
    /// each SoC a share proportional to its clock, so the group finishes
    /// together, at the slower of the CPU-FP32 and NPU-INT8 batch halves.
    pub(crate) fn group_compute_time(
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

    /// The slowest group's compute time (groups run in parallel).
    fn slowest_group_compute(&self, mapping: &Mapping, cpu_fraction: f64) -> Seconds {
        mapping
            .groups()
            .iter()
            .map(|g| self.group_compute_time(g, cpu_fraction))
            .fold(0.0, f64::max)
    }

    pub(crate) fn update_time(&self) -> Seconds {
        self.params * calibration::UPDATE_FLOPS_PER_PARAM / calibration::SOC_CPU_FLOPS
    }

    pub(crate) fn soc_epoch_energy(
        &self,
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

    /// Single-SoC training (Local reference / Fig. 4(a)): the whole dataset
    /// on one processor, no synchronization.
    pub fn local_epoch(&self, proc: Processor) -> EpochCost {
        let compute = self.compute.per_sample(proc) * self.ref_samples as f64;
        let iters = (self.ref_samples as f64 / self.batch as f64).ceil();
        let update = self.update_time() * iters;
        let time = compute + update;
        let state = match proc {
            Processor::SocNpuInt8 | Processor::Gen1NpuInt8 => PowerState::SocNpuTrain,
            Processor::GpuV100 => PowerState::GpuV100,
            Processor::GpuA100 => PowerState::GpuA100,
            _ => PowerState::SocCpuTrain,
        };
        let energy = match proc {
            Processor::GpuV100 | Processor::GpuA100 => state.watts() * time,
            _ => self.soc_epoch_energy(time, compute, 0.0, state),
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
    /// - `pipeline_group` enables the 2D-Paral shape: SoCs form pipeline
    ///   units of that size; only unit leaders join the inter-unit ring.
    pub fn sync_epoch(
        &self,
        collective: SyncCollective,
        wire_fraction: f64,
        extra_flops_per_param: f64,
        pipeline_group: Option<usize>,
    ) -> EpochCost {
        let iters = (self.ref_samples as f64 / self.batch as f64).ceil();
        let all: Vec<_> = (0..self.socs).map(socflow_cluster::SocId).collect();

        let (compute, sync_members): (Seconds, Vec<socflow_cluster::SocId>) =
            if let Some(g) = pipeline_group {
                let g = g.max(1).min(self.socs);
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
        let sync = match collective {
            SyncCollective::Ring => RingAllReduce.time(&self.net, &sync_members, wire),
            SyncCollective::Ps => ParameterServer::default().time(&self.net, &sync_members, wire),
        };
        // PS cannot overlap (centralized blocking aggregation); ring-style
        // methods use layer-by-layer overlap.
        let overlap = matches!(collective, SyncCollective::Ring);
        let update = self.update_time();
        let (period, bd) = iteration_time(compute, &[sync], update, overlap);
        let time = period * iters;
        let energy = self.socs as f64
            * self.soc_epoch_energy(
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
    /// end (PS for FedAvg, tree for T-FedAvg).
    pub fn federated_epoch(&self, tree_fanout: Option<usize>) -> EpochCost {
        let all: Vec<_> = (0..self.socs).map(socflow_cluster::SocId).collect();
        let shard = self.ref_samples as f64 / self.socs as f64;
        let compute = self.compute.per_sample(Processor::SocCpuFp32) * shard;
        let local_iters = (shard / self.batch as f64).ceil();
        let update = self.update_time() * local_iters;
        // FedAvg aggregates on the control board (20 Gb/s switch path);
        // T-FedAvg reduces over an in-cluster tree first.
        let sync = match tree_fanout {
            Some(f) => TreeAggregate { fanout: f }.time(&self.net, &all, self.payload),
            None => {
                2.0 * calibration::STEP_LATENCY_INTER
                    + self.net.control_transfer(&all, self.payload, true).makespan
                    + self
                        .net
                        .control_transfer(&all, self.payload, false)
                        .makespan
            }
        };
        let time = compute + update + sync;
        let energy =
            self.socs as f64 * self.soc_epoch_energy(time, compute, sync, PowerState::SocCpuTrain);
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
    /// ([`Self::socflow_epoch`]).
    pub fn baseline_epoch(&self, method: MethodSpec) -> Option<EpochCost> {
        Some(match method {
            MethodSpec::Local => self.local_epoch(Processor::SocCpuFp32),
            MethodSpec::ParameterServer => self.sync_epoch(SyncCollective::Ps, 1.0, 0.0, None),
            MethodSpec::Ring => self.sync_epoch(SyncCollective::Ring, 1.0, 0.0, None),
            MethodSpec::HiPress => self.sync_epoch(
                SyncCollective::Ring,
                calibration::DGC_WIRE_FRACTION,
                calibration::DGC_OVERHEAD_FLOPS_PER_PARAM,
                None,
            ),
            MethodSpec::TwoDParallel { group_size } => {
                self.sync_epoch(SyncCollective::Ring, 1.0, 0.0, Some(group_size))
            }
            MethodSpec::FedAvg => self.federated_epoch(None),
            MethodSpec::TFedAvg { fanout } => self.federated_epoch(Some(fanout)),
            MethodSpec::SocFlow(_) | MethodSpec::SocFlowInt8(_) | MethodSpec::SocFlowHalf(_) => {
                return None
            }
        })
    }

    /// SoCFlow's epoch: per-batch intra-group rings (scheduled over the
    /// CGs), one delayed inter-group aggregation + data shuffle at the
    /// epoch boundary.
    ///
    /// `cpu_fraction` is the mixed-precision controller's current CPU share
    /// (1.0 = pure FP32, 0.0 = pure INT8). SoCFlow's underclocking-aware
    /// re-balancing is applied: within each group, per-SoC shares are
    /// proportional to current clocks, so a throttled SoC slows its group
    /// by the *average* deficit, not the worst one (see
    /// [`Self::rebalanced_compute_time`]).
    ///
    /// When [`Self::set_simulated`] enabled timeline mode, the epoch is
    /// priced by the event-driven simulation ([`crate::sim`]) instead of
    /// the closed form below.
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
        if self.simulated {
            return self
                .socflow_epoch_timeline(mapping, cgs, planning, cpu_fraction)
                .cost;
        }
        let n_groups = mapping.num_groups();
        let iters = (self.ref_samples as f64 / (n_groups as f64 * self.batch as f64)).ceil();

        let compute = self.slowest_group_compute(mapping, cpu_fraction);

        // Intra-group sync. All groups of one "communication slot" run
        // their ring steps simultaneously, so each slot is priced as a
        // joint flow simulation — NIC contention between split groups
        // materializes here. With planning the slots are the CGs
        // (contention-free by construction); without it every group syncs
        // at once, and whatever conflicts the mapping left contend.
        let slots: Vec<Vec<crate::mapping::GroupId>> = if planning {
            cgs.cgs.clone()
        } else {
            vec![(0..n_groups).map(crate::mapping::GroupId).collect()]
        };
        // mixed-precision mode transmits merged weights in INT8 (+scales)
        let wire = if cpu_fraction < 1.0 {
            self.payload * calibration::INT8_WIRE_FRACTION
        } else {
            self.payload
        };
        let cg_syncs: Vec<Seconds> = slots
            .iter()
            .map(|slot| self.joint_ring_time(mapping, slot, wire))
            .collect();

        let update = self.update_time();
        let (period, bd) = iteration_time(compute, &cg_syncs, update, planning);
        let batch_time = period * iters;

        // epoch boundary: leader ring + weight broadcast + data shuffle
        let leaders = mapping.leaders();
        let inter = RingAllReduce.time(&self.net, &leaders, wire);
        let bcast: Vec<Flow> = mapping
            .groups()
            .iter()
            .flat_map(|g| {
                let leader = g[0];
                g[1..].iter().map(move |&m| Flow::new(leader, m, wire))
            })
            .collect();
        let bcast_t = self.net.collective_step_time(&bcast);
        // shuffle: every *participating* SoC forwards its shard to a rotated
        // peer. Participants come from the mapping, not `0..self.socs` — an
        // elastically shrunk job must not price (or power) SoCs it lost.
        let mut participants: Vec<socflow_cluster::SocId> =
            mapping.groups().iter().flatten().copied().collect();
        participants.sort();
        let n_part = participants.len();
        let shuffle_t = if n_part >= 2 {
            let shard_bytes = self.ref_samples as f64 / n_part as f64 * self.sample_bytes;
            let shuffle: Vec<Flow> = (0..n_part)
                .map(|i| {
                    Flow::new(
                        participants[i],
                        participants[(i + n_part / 2) % n_part],
                        shard_bytes,
                    )
                })
                .collect();
            self.net.collective_step_time(&shuffle)
        } else {
            0.0
        };
        let epoch_sync = inter + bcast_t + shuffle_t;

        let time = batch_time + epoch_sync;
        let mut breakdown = bd.scaled(iters);
        breakdown.sync += epoch_sync;

        let state = if cpu_fraction >= 1.0 {
            PowerState::SocCpuTrain
        } else if cpu_fraction <= 0.0 {
            PowerState::SocNpuTrain
        } else {
            PowerState::SocMixedTrain
        };
        let sync_per_soc = cg_syncs.iter().sum::<f64>() * iters + epoch_sync;
        let energy =
            n_part as f64 * self.soc_epoch_energy(time, compute * iters, sync_per_soc, state);

        EpochCost {
            time,
            breakdown,
            energy,
            // delayed aggregation: leader ring + broadcast + shuffle
            aggregation: epoch_sync,
        }
    }

    /// Analytic lower bound on one SoCFlow epoch over `mapping`, valid for
    /// *every* sync schedule the simulator can produce. Within each
    /// group's iteration stream, the compute span and the weight update
    /// are serial no matter how sync is scheduled against them (Eq. 1's
    /// compute and update terms survive unchanged in the event-driven
    /// model), so `iters × (max_g compute_g + update)` under-estimates
    /// serial, interleaved and wait-free epochs alike — sync slots,
    /// boundary aggregation and stalls only ever add time. The plan
    /// autotuner ([`crate::autotune`]) prunes candidates whose bound
    /// already exceeds the incumbent without paying for a simulation.
    pub fn socflow_epoch_lower_bound(&self, mapping: &Mapping, cpu_fraction: f64) -> Seconds {
        let n_groups = mapping.num_groups();
        if n_groups == 0 {
            return 0.0;
        }
        let iters = (self.ref_samples as f64 / (n_groups as f64 * self.batch as f64))
            .ceil()
            .max(1.0);
        let compute = self.slowest_group_compute(mapping, cpu_fraction);
        iters * (compute + self.update_time())
    }

    /// Stall charged when a SoC *crashes*: the survivors reload the latest
    /// checkpoint from board flash (~1 Gb/s effective), redo the lost
    /// in-flight batch, and pay a fixed re-coordination latency. Graceful
    /// reclaims never pay this — they checkpoint before leaving.
    pub fn restore_stall_time(&self) -> Seconds {
        let reload = self.payload / (1e9 / 8.0);
        let redo_batch = self.compute.per_sample(Processor::SocCpuFp32) * self.batch as f64;
        reload + redo_batch + 1.0
    }

    /// Cost of persisting one durable checkpoint to board flash. Writes are
    /// asynchronous (write-behind), so this is *reported* via telemetry but
    /// never charged to the training clock.
    pub fn checkpoint_persist_time(&self) -> Seconds {
        self.payload / (1e9 / 8.0) + 0.5
    }

    /// Wall-clock time for a set of logical groups to run their intra-group
    /// Ring-AllReduces *simultaneously*: per ring step, every group's
    /// member→successor chunk flows enter one joint max-min simulation, so
    /// groups that share a board NIC genuinely contend.
    fn joint_ring_time(
        &self,
        mapping: &Mapping,
        slot: &[crate::mapping::GroupId],
        wire_bytes: f64,
    ) -> Seconds {
        let steps = slot
            .iter()
            .map(|&g| mapping.group(g).len())
            .filter(|&n| n >= 2)
            .map(|n| 2 * (n - 1))
            .max()
            .unwrap_or(0);
        if steps == 0 {
            return 0.0;
        }
        let flows: Vec<Flow> = slot
            .iter()
            .flat_map(|&g| {
                let members = mapping.group(g);
                let n = members.len();
                let chunk = if n >= 2 { wire_bytes / n as f64 } else { 0.0 };
                (0..n)
                    .filter(move |_| n >= 2)
                    .map(move |i| Flow::new(members[i], members[(i + 1) % n], chunk))
            })
            .collect();
        self.net.collective_step_time(&flows) * steps as f64
    }

    /// Re-balances per-SoC sample shares inside one group when SoCs are
    /// underclocked (the paper's underclocking-aware re-balancing): shares
    /// proportional to each SoC's current speed, so the group's batch
    /// finishes simultaneously everywhere. Returns the balanced per-batch
    /// compute time; without re-balancing the slowest SoC's equal share
    /// would dominate.
    pub fn rebalanced_compute_time(&self, group: &[socflow_cluster::SocId]) -> Seconds {
        let speed: f64 = group.iter().map(|s| self.compute.underclock(s.0)).sum();
        let t_sample = self.compute.per_sample(Processor::SocCpuFp32);
        self.batch as f64 * t_sample / speed
    }

    /// The equal-share compute time for comparison with
    /// [`Self::rebalanced_compute_time`].
    pub fn equal_share_compute_time(&self, group: &[socflow_cluster::SocId]) -> Seconds {
        let per_soc = self.batch as f64 / group.len() as f64;
        let t_sample = self.compute.per_sample(Processor::SocCpuFp32);
        group
            .iter()
            .map(|s| per_soc * t_sample / self.compute.underclock(s.0))
            .fold(0.0, f64::max)
    }

    /// GPU epoch (Fig. 11 comparison): the full dataset on one datacenter
    /// GPU.
    pub fn gpu_epoch(&self, proc: Processor) -> EpochCost {
        self.local_epoch(proc)
    }
}

/// Which synchronous collective a [`TimeModel::sync_epoch`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncCollective {
    /// Ring-AllReduce over the members.
    Ring,
    /// Centralized parameter server.
    Ps,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MethodSpec, TrainJobSpec};
    use crate::mapping::integrity_greedy;
    use crate::planning::divide_communication_groups;
    use socflow_data::DatasetPreset;
    use socflow_nn::models::ModelKind;

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
        let ring = m.sync_epoch(SyncCollective::Ring, 1.0, 0.0, None);
        let ps = m.sync_epoch(SyncCollective::Ps, 1.0, 0.0, None);
        assert!(ring.time < ps.time, "ring {} vs ps {}", ring.time, ps.time);
    }

    #[test]
    fn hipress_beats_plain_ring() {
        let m = model();
        let ring = m.sync_epoch(SyncCollective::Ring, 1.0, 0.0, None);
        let hipress = m.sync_epoch(
            SyncCollective::Ring,
            calibration::DGC_WIRE_FRACTION,
            calibration::DGC_OVERHEAD_FLOPS_PER_PARAM,
            None,
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
        let ring = m.sync_epoch(SyncCollective::Ring, 1.0, 0.0, None);
        let two_d = m.sync_epoch(SyncCollective::Ring, 1.0, 0.0, Some(4));
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
        let fed = m.federated_epoch(None);
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
        let balanced = m.rebalanced_compute_time(&group);
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
    fn gpu_epoch_power_hungry() {
        let m = model();
        let v100 = m.gpu_epoch(Processor::GpuV100);
        let soc = m.local_epoch(Processor::SocNpuInt8);
        assert!(v100.time < soc.time, "V100 faster than one SoC");
        // but joules per epoch are not 60x better (energy-efficiency story)
        assert!(v100.energy > soc.energy / 60.0);
    }
}
