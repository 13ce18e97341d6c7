//! Flow-level network model with max-min fair bandwidth sharing.
//!
//! A transfer is a set of [`Flow`]s that start simultaneously (the pattern
//! of one collective step). Each flow follows the fixed path its endpoints
//! imply:
//!
//! - same PCB: `soc(src) → soc(dst)` over the two SoC SAS links;
//! - different PCBs: `soc(src) → NIC(board A) → switch → NIC(board B) →
//!   soc(dst)` — where the board NIC is **shared by all 5 SoCs of the
//!   board**, the architectural bottleneck of paper §2.3.
//!
//! Bandwidth is allocated by progressive filling (max-min fairness): the
//! most contended link is saturated first, its flows are frozen at the fair
//! share, and the residual capacity is redistributed. Completion times come
//! from the fluid timeline ([`FluidTimeline`]), which integrates the flows
//! between drain events.

use std::sync::Arc;

use crate::timeline::FluidTimeline;
use crate::topology::{ClusterSpec, SocId};
use crate::{calibration, Seconds};
use serde::{Deserialize, Serialize};
use socflow_telemetry::{Event, EventSink};

/// The cluster's control board as a flow endpoint. It hangs off the switch
/// (the global scheduler and federated aggregation live there), so a flow
/// to or from it crosses its SoC's board uplink and the switch backplane.
const CONTROL_BOARD: SocId = SocId(u16::MAX as usize);

/// One point-to-point transfer within a collective step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Flow {
    /// Sending SoC.
    pub src: SocId,
    /// Receiving SoC.
    pub dst: SocId,
    /// Payload size in bytes.
    pub bytes: f64,
}

impl Flow {
    /// Creates a flow.
    ///
    /// # Panics
    /// Panics if `bytes` is negative or not finite.
    pub fn new(src: SocId, dst: SocId, bytes: f64) -> Self {
        assert!(bytes.is_finite() && bytes >= 0.0, "invalid byte count");
        Flow { src, dst, bytes }
    }
}

/// Result of simulating one set of concurrent flows.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferStats {
    /// Time until the last flow finished (excluding protocol latency).
    pub makespan: Seconds,
    /// Completion time of each flow, in input order.
    pub flow_times: Vec<Seconds>,
    /// Total bytes moved.
    pub total_bytes: f64,
    /// `true` if any flow crossed PCB boards.
    pub crossed_boards: bool,
}

/// The fixed link path of one flow, stored inline: the longest route
/// (SoC tx → uplink tx → switch → uplink rx → SoC rx) has five links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct LinkPath {
    links: [u16; 5],
    len: u8,
}

impl LinkPath {
    fn new(links: &[usize]) -> Self {
        let mut path = LinkPath::default();
        debug_assert!(links.len() <= path.links.len());
        for (slot, &l) in path.links.iter_mut().zip(links) {
            *slot = u16::try_from(l)
                .expect("a ClusterNet has at most MAX_LINKS links (ClusterNet::try_new)");
        }
        path.len = links.len() as u8;
        path
    }

    /// The link indices, in route order (empty for a self-flow).
    pub(crate) fn links(&self) -> &[u16] {
        &self.links[..self.len as usize]
    }
}

/// Workspaces of [`ClusterNet::max_min_rates`], owned by the caller so
/// that a warm solve allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct MaxMinScratch {
    caps: Vec<f64>,
    counts: Vec<usize>,
    frozen: Vec<bool>,
}

/// Most link resources a [`ClusterNet`] may have: paths store link indices
/// as `u16`.
pub const MAX_LINKS: usize = u16::MAX as usize + 1;

/// A cluster spec with more link resources than [`MAX_LINKS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterTooLarge {
    /// The spec's link resources: SoC tx/rx pairs, board uplink tx/rx
    /// pairs and the switch backplane.
    pub links: usize,
}

impl std::fmt::Display for ClusterTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cluster too large: {} links, at most {MAX_LINKS} (a path indexes its links with 16 bits)",
            self.links
        )
    }
}

impl std::error::Error for ClusterTooLarge {}

/// The simulated cluster network.
#[derive(Clone)]
pub struct ClusterNet {
    spec: ClusterSpec,
    /// Per-link capacities in bytes/s, background load already deducted.
    caps: Vec<f64>,
    /// Telemetry sink; `None` (the default) skips all event construction.
    sink: Option<Arc<dyn EventSink>>,
}

impl std::fmt::Debug for ClusterNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterNet")
            .field("spec", &self.spec)
            .field("sink", &self.sink.as_ref().map(|_| "EventSink"))
            .finish()
    }
}

// Links are full-duplex: every SoC link and board uplink is modelled as a
// separate tx and rx resource (a ring-allreduce node sends and receives at
// line rate simultaneously, as real NICs do). Index space:
// `[0, 2·socs)` SoC tx/rx pairs, then `2·boards` uplink tx/rx pairs, then
// the switch backplane as the last index.
impl ClusterNet {
    /// Builds the network for a cluster spec (no background traffic).
    ///
    /// # Errors
    /// [`ClusterTooLarge`] if the cluster has more than [`MAX_LINKS`] link
    /// resources.
    pub fn try_new(spec: ClusterSpec) -> Result<Self, ClusterTooLarge> {
        let links = 2 * spec.total_socs() + 2 * spec.boards + 1;
        if links > MAX_LINKS {
            return Err(ClusterTooLarge { links });
        }
        Ok(ClusterNet {
            caps: Self::caps_for(&spec, 0.0),
            spec,
            sink: None,
        })
    }

    /// [`ClusterNet::try_new`] of a spec known to fit: the paper's server,
    /// or `ClusterSpec::for_socs` of at most 16,384 SoCs (39,325 links),
    /// the most the CLI's `--socs` accepts.
    ///
    /// # Panics
    /// Panics with the [`ClusterTooLarge`] message if it does not fit.
    pub fn new(spec: ClusterSpec) -> Self {
        Self::try_new(spec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Attaches a telemetry sink: every simulated transfer emits one
    /// [`Event::Transfer`] with bytes moved and peak link utilization.
    pub fn set_sink(&mut self, sink: Arc<dyn EventSink>) {
        self.sink = Some(sink);
    }

    /// Returns the network with co-located user workloads consuming a
    /// `fraction` of every link's capacity — the daytime co-location regime
    /// of paper Fig. 1 (cloud-gaming streams share the SoC links and PCB
    /// NICs with training traffic).
    ///
    /// # Panics
    /// Panics if `fraction` is outside `[0, 1)`.
    pub fn with_background_load(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&fraction),
            "background fraction must be in [0,1)"
        );
        self.caps = Self::caps_for(&self.spec, fraction);
        self
    }

    /// The underlying cluster spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Number of modelled link resources (SoC tx/rx pairs, board uplink
    /// tx/rx pairs, switch backplane). Shared with the fluid timeline.
    pub(crate) fn num_links(&self) -> usize {
        self.caps.len()
    }

    fn caps_for(spec: &ClusterSpec, background: f64) -> Vec<f64> {
        let socs = spec.total_socs();
        let avail = 1.0 - background;
        let mut caps = Vec::with_capacity(2 * socs + 2 * spec.boards + 1);
        caps.extend(std::iter::repeat_n(
            spec.soc_link_bps / 8.0 * avail,
            2 * socs,
        ));
        caps.extend(std::iter::repeat_n(
            spec.board_uplink_bps / 8.0 * avail,
            2 * spec.boards,
        ));
        caps.push(spec.switch_bps / 8.0 * avail);
        caps
    }

    /// Per-link capacities in bytes/s, background load already deducted.
    pub(crate) fn link_caps(&self) -> &[f64] {
        &self.caps
    }

    /// The fixed link path a flow occupies (empty for self-flows).
    pub(crate) fn path(&self, f: &Flow) -> LinkPath {
        if f.src == f.dst {
            return LinkPath::default();
        }
        let socs = self.spec.total_socs();
        let soc_tx = |s: SocId| 2 * s.0;
        let soc_rx = |s: SocId| 2 * s.0 + 1;
        // a board's uplink tx; its rx is the next index
        let uplink = |s: SocId| 2 * socs + 2 * self.spec.board_of(s).0;
        let switch = 2 * socs + 2 * self.spec.boards;
        if f.dst == CONTROL_BOARD {
            return LinkPath::new(&[soc_tx(f.src), uplink(f.src), switch]);
        }
        if f.src == CONTROL_BOARD {
            return LinkPath::new(&[switch, uplink(f.dst) + 1, soc_rx(f.dst)]);
        }
        let (a, b) = (uplink(f.src), uplink(f.dst));
        if a == b {
            LinkPath::new(&[soc_tx(f.src), soc_rx(f.dst)])
        } else {
            LinkPath::new(&[soc_tx(f.src), a, switch, b + 1, soc_rx(f.dst)])
        }
    }

    /// `true` if the flow's endpoints are on different PCBs (the control
    /// board counts as one of its own).
    pub fn crosses_boards(&self, f: &Flow) -> bool {
        f.src == CONTROL_BOARD || f.dst == CONTROL_BOARD || !self.spec.same_board(f.src, f.dst)
    }

    /// Simulates a set of flows that start at the same instant, returning
    /// per-flow completion times under max-min fair sharing.
    ///
    /// # Examples
    ///
    /// Two SoCs on the same board sending off-board contend on the shared
    /// 1 Gb/s board NIC, so 125 MB each takes ~2 s instead of ~1 s:
    ///
    /// ```
    /// use socflow_cluster::topology::{ClusterSpec, SocId};
    /// use socflow_cluster::net::{ClusterNet, Flow};
    ///
    /// let net = ClusterNet::new(ClusterSpec::paper_server());
    /// let stats = net.transfer(&[
    ///     Flow::new(SocId(0), SocId(5), 125e6),
    ///     Flow::new(SocId(1), SocId(6), 125e6),
    /// ]);
    /// assert!(stats.crossed_boards);
    /// assert!((stats.makespan - 2.0).abs() < 1e-3);
    /// ```
    pub fn transfer(&self, flows: &[Flow]) -> TransferStats {
        // one zero-latency batch per flow: task ids are flow indices
        let mut timeline = FluidTimeline::new(self);
        for f in flows {
            timeline.start_flows(std::slice::from_ref(f), 0.0);
        }
        let mut flow_times = vec![0.0; flows.len()];
        while let Some(c) = timeline.advance() {
            flow_times[c.id.0] = c.at;
        }
        let makespan = timeline.now();
        let total_bytes: f64 = flows.iter().map(|f| f.bytes).sum();
        let crossed_boards = flows.iter().any(|f| self.crosses_boards(f));
        if let Some(sink) = &self.sink {
            sink.emit(&Event::Transfer {
                flows: flows.len(),
                total_bytes,
                makespan,
                crossed_boards,
                link_utilization: self.peak_utilization(flows, makespan),
            });
        }
        TransferStats {
            makespan,
            flow_times,
            total_bytes,
            crossed_boards,
        }
    }

    /// Simulates transfers between every member SoC and the cluster's
    /// control board (which hangs off the 20 Gb/s switch — the global
    /// scheduler and federated aggregation live there). `up = true` is
    /// SoC → control board; `false` is the scatter back.
    pub fn control_transfer(&self, members: &[SocId], bytes: f64, up: bool) -> TransferStats {
        let flows: Vec<Flow> = members
            .iter()
            .map(|&s| {
                if up {
                    Flow::new(s, CONTROL_BOARD, bytes)
                } else {
                    Flow::new(CONTROL_BOARD, s, bytes)
                }
            })
            .collect();
        self.transfer(&flows)
    }

    /// Utilization of the busiest link over a finished transfer: bytes the
    /// link carried divided by what it could have carried in `makespan`
    /// seconds. Only computed when a telemetry sink is attached.
    fn peak_utilization(&self, flows: &[Flow], makespan: Seconds) -> f64 {
        if makespan <= 0.0 {
            return 0.0;
        }
        self.carried(flows)
            .iter()
            .zip(&self.caps)
            .map(|(c, cap)| c / (cap * makespan))
            .fold(0.0, f64::max)
    }

    /// The bytes each link carries when every flow moves in full.
    fn carried(&self, flows: &[Flow]) -> Vec<f64> {
        let mut carried = vec![0.0f64; self.num_links()];
        for f in flows {
            for &l in self.path(f).links() {
                carried[usize::from(l)] += f.bytes;
            }
        }
        carried
    }

    /// The least time in which any schedule can move `flows`: the busiest
    /// link's bytes over its capacity. Max-min sharing never gives a link
    /// more than its capacity, so the flows cannot drain sooner — alone,
    /// split into parts, or contending with other traffic.
    pub fn drain_floor(&self, flows: &[Flow]) -> Seconds {
        self.carried(flows)
            .iter()
            .zip(&self.caps)
            .map(|(c, cap)| c / cap)
            .fold(0.0, f64::max)
    }

    /// Max-min fair rates (bytes/s) of `n` concurrent flows, flow `k`
    /// occupying `path_of(k)`, written to `rate` in flow order.
    ///
    /// Progressive filling, one bottleneck link per round: the first link
    /// (by index) with the smallest fair share freezes its flows at that
    /// share. Tied links are *not* frozen together — the residual share
    /// `(cap − k·s)/(n − k)` is not `s` in floating point, and the
    /// simulated clock is compared bit for bit across commits.
    pub(crate) fn max_min_rates(
        &self,
        n: usize,
        path_of: impl Fn(usize) -> LinkPath,
        work: &mut MaxMinScratch,
        rate: &mut Vec<f64>,
    ) {
        let MaxMinScratch {
            caps,
            counts,
            frozen,
        } = work;
        caps.clear();
        caps.extend_from_slice(&self.caps);
        counts.clear();
        counts.resize(self.caps.len(), 0);
        for k in 0..n {
            for &l in path_of(k).links() {
                counts[usize::from(l)] += 1;
            }
        }
        rate.clear();
        rate.resize(n, 0.0);
        frozen.clear();
        frozen.resize(n, false);
        let mut n_frozen = 0;
        while n_frozen < n {
            // bottleneck link: min cap/count over links with unfrozen flows
            let mut best_link = usize::MAX;
            let mut best_share = f64::INFINITY;
            for (l, (&cap, &count)) in caps.iter().zip(counts.iter()).enumerate() {
                if count > 0 {
                    let share = cap / count as f64;
                    if share < best_share {
                        best_share = share;
                        best_link = l;
                    }
                }
            }
            debug_assert_ne!(best_link, usize::MAX);
            // freeze every unfrozen flow crossing the bottleneck
            for k in 0..n {
                let path = path_of(k);
                if frozen[k] || !path.links().iter().any(|&l| usize::from(l) == best_link) {
                    continue;
                }
                rate[k] = best_share;
                frozen[k] = true;
                n_frozen += 1;
                for &l in path.links() {
                    caps[usize::from(l)] -= best_share;
                    counts[usize::from(l)] -= 1;
                }
            }
            // numeric guard: clamp tiny negatives
            for c in caps.iter_mut() {
                if *c < 0.0 {
                    *c = 0.0;
                }
            }
        }
    }

    /// The per-step protocol latency of a collective step over `flows`:
    /// inter-board if any flow crosses boards, else intra-board (from
    /// [`calibration`]).
    pub fn step_latency(&self, flows: &[Flow]) -> Seconds {
        if flows.iter().any(|f| self.crosses_boards(f)) {
            calibration::STEP_LATENCY_INTER
        } else {
            calibration::STEP_LATENCY_INTRA
        }
    }

    /// Wall-clock time of one collective step: its [`Self::step_latency`]
    /// plus the fluid transfer makespan.
    pub fn collective_step_time(&self, flows: &[Flow]) -> Seconds {
        if flows.is_empty() {
            return 0.0;
        }
        self.step_latency(flows) + self.transfer(flows).makespan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> ClusterNet {
        ClusterNet::new(ClusterSpec::paper_server())
    }

    /// A spec past the link limit is an error that names its link count,
    /// not a panic; the largest one the CLI builds fits.
    #[test]
    fn a_cluster_past_the_link_limit_is_an_error() {
        let too_large = ClusterNet::try_new(ClusterSpec::for_socs(30_000));
        let err = too_large.expect_err("72,001 links");
        assert_eq!(err, ClusterTooLarge { links: 72_001 });
        assert!(err.to_string().contains("72001 links"), "{err}");
        let largest = ClusterNet::try_new(ClusterSpec::for_socs(16_384)).expect("fits");
        assert_eq!(largest.num_links(), 39_325);
        // the largest spec that fits, and the first that does not
        let mut spec = ClusterSpec::for_socs(5);
        spec.boards = (MAX_LINKS - 1) / 12;
        assert_eq!(
            ClusterNet::try_new(spec).map(|n| n.num_links()),
            Ok(MAX_LINKS - 3)
        );
        spec.boards += 1;
        assert!(ClusterNet::try_new(spec).is_err());
    }

    const MB: f64 = 1e6;
    const SOC_RATE: f64 = 1e9 / 8.0; // bytes/s of one SoC link

    #[test]
    fn transfers_emit_telemetry_with_link_utilization() {
        let sink = Arc::new(socflow_telemetry::MemorySink::new());
        let mut n = net();
        n.set_sink(sink.clone());
        // a lone flow saturates its SoC link end to end: utilization 1.0
        n.transfer(&[Flow::new(SocId(0), SocId(1), 125.0 * MB)]);
        // two flows through the shared board NIC: the NIC is the busiest
        // link and is saturated for the whole (stretched) makespan
        n.transfer(&[
            Flow::new(SocId(0), SocId(5), 125.0 * MB),
            Flow::new(SocId(1), SocId(6), 125.0 * MB),
        ]);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        match &events[0] {
            Event::Transfer {
                flows,
                total_bytes,
                crossed_boards,
                link_utilization,
                ..
            } => {
                assert_eq!(*flows, 1);
                assert_eq!(*total_bytes, 125.0 * MB);
                assert!(!crossed_boards);
                assert!((link_utilization - 1.0).abs() < 1e-6, "{link_utilization}");
            }
            other => panic!("expected Transfer, got {other:?}"),
        }
        match &events[1] {
            Event::Transfer {
                flows,
                crossed_boards,
                link_utilization,
                ..
            } => {
                assert_eq!(*flows, 2);
                assert!(crossed_boards);
                assert!((link_utilization - 1.0).abs() < 1e-3, "{link_utilization}");
            }
            other => panic!("expected Transfer, got {other:?}"),
        }
    }

    #[test]
    fn no_sink_means_no_emission_and_same_results() {
        let plain = net().transfer(&[Flow::new(SocId(0), SocId(5), 125.0 * MB)]);
        let sink = Arc::new(socflow_telemetry::MemorySink::new());
        let mut instrumented = net();
        instrumented.set_sink(sink.clone());
        let traced = instrumented.transfer(&[Flow::new(SocId(0), SocId(5), 125.0 * MB)]);
        assert_eq!(plain, traced, "telemetry must not perturb the simulation");
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn single_intra_board_flow_at_line_rate() {
        let n = net();
        let stats = n.transfer(&[Flow::new(SocId(0), SocId(1), 125.0 * MB)]);
        assert!((stats.makespan - 1.0).abs() < 1e-6, "{}", stats.makespan);
        assert!(!stats.crossed_boards);
    }

    #[test]
    fn inter_board_flow_still_line_rate_when_alone() {
        let n = net();
        let stats = n.transfer(&[Flow::new(SocId(0), SocId(5), 125.0 * MB)]);
        assert!((stats.makespan - 1.0).abs() < 1e-6);
        assert!(stats.crossed_boards);
    }

    #[test]
    fn board_nic_is_shared_bottleneck() {
        // two SoCs on board 0 each send off-board: they share the 1 Gb/s NIC
        let n = net();
        let stats = n.transfer(&[
            Flow::new(SocId(0), SocId(5), 125.0 * MB),
            Flow::new(SocId(1), SocId(6), 125.0 * MB),
        ]);
        assert!((stats.makespan - 2.0).abs() < 1e-3, "{}", stats.makespan);
    }

    #[test]
    fn intra_board_flows_do_not_contend_on_nic() {
        // disjoint same-board pairs run at full rate simultaneously
        let n = net();
        let stats = n.transfer(&[
            Flow::new(SocId(0), SocId(1), 125.0 * MB),
            Flow::new(SocId(2), SocId(3), 125.0 * MB),
        ]);
        assert!((stats.makespan - 1.0).abs() < 1e-6);
    }

    #[test]
    fn shared_destination_halves_rate() {
        let n = net();
        let stats = n.transfer(&[
            Flow::new(SocId(0), SocId(2), 125.0 * MB),
            Flow::new(SocId(1), SocId(2), 125.0 * MB),
        ]);
        // both flows share soc 2's link
        assert!((stats.makespan - 2.0).abs() < 1e-3);
    }

    #[test]
    fn max_min_gives_leftover_to_unconstrained_flow() {
        // Flow A and B share A's source link; flow C is independent.
        let n = net();
        let stats = n.transfer(&[
            Flow::new(SocId(0), SocId(1), 62.5 * MB),
            Flow::new(SocId(0), SocId(2), 62.5 * MB),
            Flow::new(SocId(3), SocId(4), 125.0 * MB),
        ]);
        // A and B: 0.5 rate each → 1 s; C: full rate → 1 s
        assert!((stats.makespan - 1.0).abs() < 1e-3, "{}", stats.makespan);
        assert!((stats.flow_times[2] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn fluid_progress_after_early_finisher() {
        // Two flows share a link; the short one finishes, the long one
        // accelerates to full rate afterwards.
        let n = net();
        let stats = n.transfer(&[
            Flow::new(SocId(0), SocId(1), 62.5 * MB),  // short
            Flow::new(SocId(0), SocId(2), 125.0 * MB), // long
        ]);
        // Phase 1: both at rate/2 until short drains (1.0 s).
        // Long has 62.5 MB left, then runs at full rate: +0.5 s.
        assert!((stats.flow_times[0] - 1.0).abs() < 1e-3);
        assert!(
            (stats.flow_times[1] - 1.5).abs() < 1e-3,
            "{}",
            stats.flow_times[1]
        );
    }

    #[test]
    fn switch_backplane_limits_many_boards() {
        // 12 boards all sending off-board at once: 12 Gb/s demand < 20 Gb/s
        // switch, so each still gets its NIC rate.
        let n = net();
        let flows: Vec<Flow> = (0..12)
            .map(|b| Flow::new(SocId(b * 5), SocId(((b + 1) % 12) * 5), 125.0 * MB))
            .collect();
        let stats = n.transfer(&flows);
        assert!((stats.makespan - 1.0).abs() < 1e-2, "{}", stats.makespan);
    }

    #[test]
    fn zero_and_self_flows_are_instant() {
        let n = net();
        let stats = n.transfer(&[
            Flow::new(SocId(0), SocId(0), 1e9),
            Flow::new(SocId(1), SocId(2), 0.0),
        ]);
        assert_eq!(stats.makespan, 0.0);
        assert_eq!(stats.flow_times, vec![0.0, 0.0]);
    }

    #[test]
    fn empty_transfer() {
        let n = net();
        assert_eq!(n.collective_step_time(&[]), 0.0);
        let stats = n.transfer(&[]);
        assert_eq!(stats.makespan, 0.0);
    }

    #[test]
    fn step_latency_selected_by_locality() {
        let n = net();
        let intra = [Flow::new(SocId(0), SocId(1), 0.0)];
        let inter = [Flow::new(SocId(0), SocId(5), 0.0)];
        assert_eq!(n.step_latency(&intra), calibration::STEP_LATENCY_INTRA);
        assert_eq!(n.step_latency(&inter), calibration::STEP_LATENCY_INTER);
        assert!(n.collective_step_time(&inter) > n.collective_step_time(&intra));
    }

    #[test]
    fn control_transfer_uses_uplinks_not_soc_peers() {
        let n = net();
        // all five SoCs of board 0 push to the control board: they share
        // the board's 1 Gb/s uplink, so five 25 MB pushes take ~1 s
        let members: Vec<SocId> = (0..5).map(SocId).collect();
        let up = n.control_transfer(&members, 25.0 * MB, true);
        assert!((up.makespan - 1.0).abs() < 1e-2, "{}", up.makespan);
        // spread across five boards, each uplink carries one flow: ~0.2 s
        let spread: Vec<SocId> = (0..5).map(|i| SocId(i * 5)).collect();
        let fast = n.control_transfer(&spread, 25.0 * MB, true);
        assert!((fast.makespan - 0.2).abs() < 1e-2, "{}", fast.makespan);
        // downlink direction mirrors the uplink
        let down = n.control_transfer(&members, 25.0 * MB, false);
        assert!((down.makespan - up.makespan).abs() < 1e-9);
    }

    #[test]
    fn control_transfer_hits_switch_limit() {
        // 60 SoCs pulling simultaneously: 12 uplinks × 1 Gb/s = 12 Gb/s
        // demand < 20 Gb/s switch, so the uplinks stay the bottleneck
        let n = net();
        let all: Vec<SocId> = (0..60).map(SocId).collect();
        let stats = n.control_transfer(&all, 25.0 * MB, false);
        // 5 flows per uplink rx at 125 MB/s → 1 s
        assert!((stats.makespan - 1.0).abs() < 5e-2, "{}", stats.makespan);
    }

    #[test]
    fn background_load_slows_transfers() {
        let n = net().with_background_load(0.5);
        let stats = n.transfer(&[Flow::new(SocId(0), SocId(1), 125.0 * MB)]);
        assert!((stats.makespan - 2.0).abs() < 1e-6, "{}", stats.makespan);
        let clean = net().transfer(&[Flow::new(SocId(0), SocId(1), 125.0 * MB)]);
        assert!(stats.makespan > clean.makespan);
    }

    #[test]
    #[should_panic(expected = "background fraction")]
    fn rejects_full_background() {
        let _ = net().with_background_load(1.0);
    }

    #[test]
    fn conservation_of_bytes() {
        let n = net();
        let flows = vec![
            Flow::new(SocId(0), SocId(7), 10.0 * MB),
            Flow::new(SocId(3), SocId(9), 20.0 * MB),
        ];
        let stats = n.transfer(&flows);
        assert_eq!(stats.total_bytes, 30.0 * MB);
        // sanity: neither flow beats line rate
        for (f, &t) in flows.iter().zip(&stats.flow_times) {
            assert!(t >= f.bytes / SOC_RATE - 1e-9);
        }
    }
}
