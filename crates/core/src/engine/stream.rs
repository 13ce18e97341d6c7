//! Streaming ingestion (`RunOptions::streaming`): per-SoC rate profiles,
//! bounded ingest buffers settled against the simulated clock, and
//! shape-preserving rate-aware regrouping.

use crate::config::{StreamingConfig, TrainJobSpec, REGROUP_SPREAD};
use crate::mapping::{GroupId, Mapping};
use socflow_cluster::{ClusterSpec, SocId};
use socflow_data::stream::{IngestBuffer, StreamSource};

/// Per-group ingest-buffer capacity, in multiples of the global batch.
const BUFFER_BATCHES: usize = 2;

/// Outcome of settling one epoch's stream supply against its demand.
pub(super) struct StreamEpoch {
    /// Barrier stall added to the epoch (the slowest group's deficit).
    pub(super) stall: f64,
    /// Per-group stalls, ascending group order (positive entries only).
    pub(super) stalls: Vec<(usize, f64)>,
}

/// Live state of the streaming-ingestion mode for one SoCFlow run.
///
/// All stream math runs on the coordinating thread at scaled-sample
/// granularity: sample identity comes from the stateless position-indexed
/// [`StreamSource`] through one global cursor (so shard contents are
/// independent of thread count), and stalls are settled against the
/// simulated clock after each epoch is priced. Not checkpointed: a
/// resumed run restarts the cursor and refills buffers from empty.
pub(super) struct StreamState {
    cfg: StreamingConfig,
    /// Per-SoC rate multipliers, indexed by `SocId.0`; fixed for the run.
    multipliers: Vec<f64>,
    /// Deterministic sample-identity stream over the scaled corpus.
    source: StreamSource,
    /// Next unconsumed stream position (global across groups).
    cursor: u64,
    /// Scaled samples/sec per unit multiplier per SoC, calibrated from
    /// the first priced epoch (see [`Self::calibrate`]).
    base_scaled: Option<f64>,
    /// One bounded ingest buffer per logical group; rebuilt empty on any
    /// topology change (accumulation belongs to the dead grouping).
    pub(super) buffers: Vec<IngestBuffer>,
}

impl StreamState {
    /// Stream state for `spec`'s SoCs over a scaled corpus of `train_len`
    /// samples.
    pub(super) fn new(cfg: StreamingConfig, spec: &TrainJobSpec, train_len: usize) -> Self {
        StreamState {
            cfg,
            multipliers: cfg.profile.multipliers(spec.socs, spec.seed),
            source: StreamSource::new(train_len, spec.seed ^ 0x57ea_4d1d),
            cursor: 0,
            base_scaled: None,
            buffers: Vec::new(),
        }
    }

    /// Self-calibrates the base rate from the first priced epoch: 1.05×
    /// the per-SoC rate at which a uniform cluster exactly refills one
    /// epoch's total demand during one epoch's compute. Uniform profiles
    /// then stream essentially stall-free while heterogeneous ones stall
    /// on their slowest members — spread, not raw supply, is the story.
    pub(super) fn calibrate(&mut self, socs: usize, t_train: f64) {
        if self.base_scaled.is_none() {
            let t = t_train.max(1e-9);
            self.base_scaled = Some(1.05 * self.source.len() as f64 / (socs.max(1) as f64 * t));
        }
    }

    /// Max/min per-SoC rate multiplier over the surviving SoCs.
    fn spread_over(&self, alive: &[SocId]) -> f64 {
        let mut max = f64::MIN;
        let mut min = f64::MAX;
        for s in alive {
            max = max.max(self.multipliers[s.0]);
            min = min.min(self.multipliers[s.0]);
        }
        if min > 0.0 {
            max / min
        } else {
            f64::INFINITY
        }
    }

    /// The observed rate spread over `alive` when it calls for rate-aware
    /// regrouping (the mode is on and the spread exceeds
    /// [`REGROUP_SPREAD`]); `None` keeps the topology-only grouping.
    pub(super) fn spread_to_regroup(&self, alive: &[SocId]) -> Option<f64> {
        let spread = self.spread_over(alive);
        (self.cfg.rate_aware && spread > REGROUP_SPREAD).then_some(spread)
    }

    /// Re-deals `base`'s membership by stream rate while keeping its
    /// *physical shape*: each group retains its exact per-board SoC
    /// counts — so board integrity, the conflict graph and the priced
    /// sync topology are unchanged — but within each board the fastest
    /// remaining SoCs are dealt to the lowest group ids. Groups become
    /// contiguous rate chunks instead of arbitrary ones, so a fast SoC no
    /// longer idles behind a slow teammate.
    pub(super) fn regrouped(
        &self,
        base: &Mapping,
        cluster: &ClusterSpec,
        alive: &[SocId],
    ) -> Mapping {
        // per-board pools, fastest first (SocId tie-break): deterministic
        // and independent of the incoming `alive` order
        let board_of = |s: SocId| s.0 / cluster.socs_per_board.max(1);
        let n_boards = alive.iter().map(|s| board_of(*s)).max().unwrap_or(0) + 1;
        let mut pools: Vec<Vec<SocId>> = vec![Vec::new(); n_boards];
        for s in alive {
            pools[board_of(*s)].push(*s);
        }
        for pool in pools.iter_mut() {
            pool.sort_by(|a, b| {
                self.multipliers[b.0]
                    .partial_cmp(&self.multipliers[a.0])
                    .expect("finite rate multipliers")
                    .then(a.0.cmp(&b.0))
            });
        }
        // refill the base shape board by board
        let mut cursor = vec![0usize; n_boards];
        let mut members = Vec::with_capacity(base.num_groups());
        for group in base.groups() {
            let mut counts = vec![0usize; n_boards];
            for s in group {
                counts[board_of(*s)] += 1;
            }
            let mut m = Vec::new();
            for (b, &c) in counts.iter().enumerate() {
                for _ in 0..c {
                    m.push(pools[b][cursor[b]]);
                    cursor[b] += 1;
                }
            }
            members.push(m);
        }
        Mapping::from_members(members, cluster)
    }

    /// A group's effective ingest rate in multiplier units: the slowest
    /// member gates every member's contribution (straggler semantics —
    /// intra-group SSGD cannot outrun its slowest feeder).
    fn group_weight(&self, g: usize, mapping: &Mapping) -> f64 {
        let members = mapping.group(GroupId(g));
        if members.is_empty() {
            return 0.0;
        }
        let min_mult = members
            .iter()
            .map(|s| self.multipliers[s.0])
            .fold(f64::MAX, f64::min);
        members.len() as f64 * min_mult
    }

    /// Resets the per-group ingest buffers for a (re)built topology.
    pub(super) fn rebuild_buffers(&mut self, groups: usize, global_batch: usize) {
        let cap = (BUFFER_BATCHES * global_batch).max(1) as u64;
        self.buffers = (0..groups).map(|_| IngestBuffer::new(cap)).collect();
    }

    /// Draws one epoch's shards from the stream: rate-proportional sizes
    /// (largest-remainder over the corpus size) when rate-aware, equal
    /// sizes otherwise, consumed in ascending replica order from the one
    /// global cursor.
    pub(super) fn epoch_shards(&mut self, streams: usize, mapping: &Mapping) -> Vec<Vec<usize>> {
        let total = self.source.len();
        let weights: Vec<f64> = (0..streams)
            .map(|g| {
                if self.cfg.rate_aware {
                    self.group_weight(g, mapping)
                } else {
                    1.0
                }
            })
            .collect();
        largest_remainder(total, &weights)
            .into_iter()
            .map(|n| {
                let shard = self.source.take(self.cursor, n);
                self.cursor += n as u64;
                shard
            })
            .collect()
    }

    /// Settles one priced epoch, group by group: buffered samples are
    /// consumed first, in-epoch arrivals drain through at line rate, any
    /// leftover arrivals fill the bounded buffer up to its capacity,
    /// and a remaining deficit becomes a stall priced at the group's line
    /// rate. The slowest group's stall is the epoch's barrier stall;
    /// faster groups bank their barrier wait as buffered samples.
    pub(super) fn settle(
        &mut self,
        mapping: &Mapping,
        needs: &[usize],
        t_train: f64,
    ) -> StreamEpoch {
        let base = self
            .base_scaled
            .expect("stream rate calibrated before settle");
        let n_groups = mapping.num_groups();
        let mut stalls = Vec::new();
        let mut per_group = vec![0.0f64; n_groups];
        let mut rates = vec![0.0f64; n_groups];
        for g in 0..n_groups {
            let weight = self.group_weight(g, mapping);
            if weight <= 0.0 || needs.is_empty() {
                continue;
            }
            let rate = base * weight;
            rates[g] = rate;
            // accuracy streams may be capped below the group count; the
            // extra groups mirror the capped streams' demand for timing
            let need = needs[g % needs.len()] as u64;
            let in_train = (rate * t_train).floor() as u64;
            let buf = &mut self.buffers[g];
            let taken = buf.consume(need);
            let remaining = need - taken;
            let from_arrivals = in_train.min(remaining);
            buf.drain_through(from_arrivals);
            buf.produce(in_train - from_arrivals);
            let deficit = remaining - from_arrivals;
            if deficit > 0 {
                let stall = deficit as f64 / rate;
                buf.drain_through(deficit);
                per_group[g] = stall;
                stalls.push((g, stall));
            }
        }
        let epoch_stall = per_group.iter().cloned().fold(0.0, f64::max);
        // groups done early keep ingesting while they wait at the barrier
        for g in 0..n_groups {
            if rates[g] > 0.0 {
                let wait = epoch_stall - per_group[g];
                if wait > 0.0 {
                    self.buffers[g].produce((rates[g] * wait).floor() as u64);
                }
            }
        }
        StreamEpoch {
            stall: epoch_stall,
            stalls,
        }
    }
}

/// Apportions `total` into integer shares proportional to `weights` by
/// the largest-remainder method (ties to the lower index) — deterministic
/// and exactly summing to `total`.
pub(super) fn largest_remainder(total: usize, weights: &[f64]) -> Vec<usize> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let sum: f64 = weights.iter().sum();
    if sum.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return largest_remainder(total, &vec![1.0; n]);
    }
    let exact: Vec<f64> = weights.iter().map(|w| total as f64 * w / sum).collect();
    let mut out: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let leftover = total - out.iter().sum::<usize>();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let fa = exact[a] - exact[a].floor();
        let fb = exact[b] - exact[b].floor();
        fb.partial_cmp(&fa).expect("finite shares").then(a.cmp(&b))
    });
    for &i in order.iter().cycle().take(leftover) {
        out[i] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::tests::{easy_workload, tiny_spec};
    use super::super::Engine;
    use crate::config::{MethodSpec, SocFlowConfig, StreamingConfig};
    use crate::options::RunOptions;
    use crate::report::RunResult;
    use socflow_data::stream::RateProfile;
    use socflow_telemetry::Event;
    use std::sync::Arc;

    fn streaming_engine(
        scfg: StreamingConfig,
        groups: usize,
    ) -> (Engine, Arc<socflow_telemetry::MemorySink>) {
        let sink = Arc::new(socflow_telemetry::MemorySink::new());
        let spec = tiny_spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(groups)));
        let workload = easy_workload(&spec, 512);
        let e = Engine::new(
            spec,
            workload,
            RunOptions {
                sink: Some(sink.clone()),
                streaming: Some(scfg),
                ..RunOptions::default()
            },
        );
        (e, sink)
    }

    fn stall_sum(events: &[Event]) -> f64 {
        events
            .iter()
            .filter_map(|e| match e {
                Event::StreamStalled { stall, .. } => Some(*stall),
                _ => None,
            })
            .sum()
    }

    #[test]
    fn streaming_uniform_is_stall_free_and_deterministic() {
        let run = || {
            let (mut e, sink) = streaming_engine(StreamingConfig::new(RateProfile::Uniform), 2);
            let r = e.run();
            (r, sink.events())
        };
        let (r1, ev1) = run();
        let (r2, ev2) = run();
        assert_eq!(r1.epoch_accuracy.len(), 4, "streaming run completes");
        assert_eq!(r1.epoch_accuracy, r2.epoch_accuracy);
        assert_eq!(r1.epoch_time, r2.epoch_time);
        assert_eq!(
            format!("{ev1:?}"),
            format!("{ev2:?}"),
            "bit-identical trace"
        );
        assert_eq!(
            stall_sum(&ev1),
            0.0,
            "1.05x calibrated supply covers a uniform cluster"
        );
        assert!(
            !ev1.iter()
                .any(|e| matches!(e, Event::RegroupedByRate { .. })),
            "no rate spread, no regroup"
        );
    }

    #[test]
    fn heterogeneous_streams_stall_topology_only_groups() {
        let mut cfg = StreamingConfig::new(RateProfile::Bimodal);
        cfg.rate_aware = false;
        let (mut e, sink) = streaming_engine(cfg, 4);
        let r = e.run();
        assert_eq!(r.epoch_accuracy.len(), 4);
        let ev = sink.events();
        assert!(
            stall_sum(&ev) > 0.0,
            "a mixed-rate group is gated by its slowest member"
        );
        assert!(
            !ev.iter()
                .any(|e| matches!(e, Event::RegroupedByRate { .. })),
            "topology-only arm never regroups"
        );
    }

    #[test]
    fn rate_aware_regrouping_beats_topology_only_on_stalls() {
        let aware = StreamingConfig::new(RateProfile::Bimodal);
        let mut blind = aware;
        blind.rate_aware = false;
        let (mut ea, sink_a) = streaming_engine(blind, 4);
        let ra = ea.run();
        let (mut eb, sink_b) = streaming_engine(aware, 4);
        let rb = eb.run();
        let (ev_a, ev_b) = (sink_a.events(), sink_b.events());
        assert!(
            ev_b.iter()
                .any(|e| matches!(e, Event::RegroupedByRate { .. })),
            "bimodal spread exceeds the regroup threshold"
        );
        assert!(
            stall_sum(&ev_b) < stall_sum(&ev_a),
            "rate-sorted groups + proportional shares shrink the barrier stall"
        );
        let total = |r: &RunResult| r.epoch_time.iter().sum::<f64>();
        assert!(total(&rb) < total(&ra), "less stall, faster run");
    }
}
