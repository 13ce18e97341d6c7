//! Temporal collectives: step sequences priced on the cluster network.

use socflow_cluster::{ClusterNet, Flow, Seconds, SocId};

/// A communication pattern whose wall-clock cost can be evaluated on the
/// simulated cluster network.
pub trait Collective {
    /// Wall-clock time to synchronize `bytes` of gradients/weights across
    /// `members` (every member ends with the combined result).
    ///
    /// # Panics
    /// Implementations may panic if `members.len() < 2` where the pattern
    /// is undefined.
    fn time(&self, net: &ClusterNet, members: &[SocId], bytes: f64) -> Seconds;
}

/// Horovod-style Ring-AllReduce: `2(n−1)` steps, each moving one `bytes/n`
/// chunk per member to its ring successor. Bandwidth-optimal, but every
/// step pays the collective's protocol latency — the linear-in-`n` latency
/// growth the paper measures in Fig. 4(b).
#[derive(Debug, Clone, Copy, Default)]
pub struct RingAllReduce;

impl Collective for RingAllReduce {
    fn time(&self, net: &ClusterNet, members: &[SocId], bytes: f64) -> Seconds {
        let n = members.len();
        if n < 2 || bytes == 0.0 {
            return 0.0;
        }
        let chunk = bytes / n as f64;
        // every step has the same flow pattern (each member → successor)
        let flows: Vec<Flow> = (0..n)
            .map(|i| Flow::new(members[i], members[(i + 1) % n], chunk))
            .collect();
        let step = net.collective_step_time(&flows);
        step * (2 * (n - 1)) as f64
    }
}

/// Classic parameter server: all workers push `bytes` to the first member,
/// the server, which pushes the aggregate back. The server's single
/// 1 Gb/s link is the incast bottleneck.
#[derive(Debug, Clone, Copy)]
pub struct ParameterServer;

impl Collective for ParameterServer {
    fn time(&self, net: &ClusterNet, members: &[SocId], bytes: f64) -> Seconds {
        if members.len() < 2 || bytes == 0.0 {
            return 0.0;
        }
        let server = members[0];
        let push: Vec<Flow> = members
            .iter()
            .filter(|&&m| m != server)
            .map(|&m| Flow::new(m, server, bytes))
            .collect();
        let pull: Vec<Flow> = members
            .iter()
            .filter(|&&m| m != server)
            .map(|&m| Flow::new(server, m, bytes))
            .collect();
        net.collective_step_time(&push) + net.collective_step_time(&pull)
    }
}

/// Children per node of the [`TreeAggregate`] tree.
const FANOUT: usize = 2;

/// Tree aggregation (hierarchical federated learning): reduce up a binary
/// tree over the members, then broadcast back down.
#[derive(Debug, Clone, Copy)]
pub struct TreeAggregate;

impl Collective for TreeAggregate {
    fn time(&self, net: &ClusterNet, members: &[SocId], bytes: f64) -> Seconds {
        let n = members.len();
        if n < 2 || bytes == 0.0 {
            return 0.0;
        }
        // members[0] is the root; node i's parent is (i-1)/FANOUT
        let mut total = 0.0;
        // Reduce: level by level from the deepest, children send to parents.
        let mut levels: Vec<Vec<Flow>> = Vec::new();
        let depth_of = |mut i: usize| {
            let mut d = 0;
            while i > 0 {
                i = (i - 1) / FANOUT;
                d += 1;
            }
            d
        };
        let max_depth = (1..n).map(depth_of).max().unwrap_or(0);
        for level in (1..=max_depth).rev() {
            let flows: Vec<Flow> = (1..n)
                .filter(|&i| depth_of(i) == level)
                .map(|i| Flow::new(members[i], members[(i - 1) / FANOUT], bytes))
                .collect();
            levels.push(flows);
        }
        for flows in &levels {
            total += net.collective_step_time(flows);
        }
        // Broadcast: same levels reversed, directions flipped.
        for flows in levels.iter().rev() {
            let down: Vec<Flow> = flows
                .iter()
                .map(|f| Flow::new(f.dst, f.src, f.bytes))
                .collect();
            total += net.collective_step_time(&down);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socflow_cluster::ClusterSpec;

    const MB: f64 = 1e6;

    fn net() -> ClusterNet {
        ClusterNet::new(ClusterSpec::paper_server())
    }

    fn socs(n: usize) -> Vec<SocId> {
        (0..n).map(SocId).collect()
    }

    #[test]
    fn ring_intra_board_matches_paper_anchor() {
        // Paper: 540 ms for VGG-11 (36.9 MB) intra-PCB with 5 SoCs; the
        // paper's 4-SoC experiments land in the same regime.
        let t = RingAllReduce.time(&net(), &socs(5), 36.9 * MB);
        assert!((0.40..0.70).contains(&t), "VGG-11 intra ring: {t}s");
        let t18 = RingAllReduce.time(&net(), &socs(5), 44.7 * MB);
        assert!((0.50..0.85).contains(&t18), "ResNet-18 intra ring: {t18}s");
        assert!(t18 > t);
    }

    #[test]
    fn ps_intra_board_matches_paper_anchor() {
        // Paper: ~2060 ms for VGG-11 intra-PCB parameter server.
        let t = ParameterServer.time(&net(), &socs(5), 36.9 * MB);
        assert!((1.8..2.9).contains(&t), "VGG-11 intra PS: {t}s");
    }

    #[test]
    fn ring_latency_grows_linearly_with_members() {
        let t8 = RingAllReduce.time(&net(), &socs(8), 36.9 * MB);
        let t32 = RingAllReduce.time(&net(), &socs(32), 36.9 * MB);
        assert!(
            t32 > t8 * 2.0,
            "32-SoC ring must be much slower: {t8} vs {t32}"
        );
    }

    #[test]
    fn inter_board_ring_slower_than_intra() {
        // 5 SoCs on one board vs 5 spread across boards, same payload
        let intra = RingAllReduce.time(&net(), &socs(5), 36.9 * MB);
        let spread: Vec<SocId> = (0..5).map(|i| SocId(i * 5)).collect();
        let inter = RingAllReduce.time(&net(), &spread, 36.9 * MB);
        assert!(inter > intra, "{inter} vs {intra}");
    }

    #[test]
    fn ps_worse_than_ring_at_scale() {
        let ring = RingAllReduce.time(&net(), &socs(32), 36.9 * MB);
        let ps = ParameterServer.time(&net(), &socs(32), 36.9 * MB);
        assert!(ps > ring * 2.0, "PS {ps} should be >> ring {ring}");
    }

    #[test]
    fn tree_beats_ps_at_scale() {
        let tree = TreeAggregate.time(&net(), &socs(32), 36.9 * MB);
        let ps = ParameterServer.time(&net(), &socs(32), 36.9 * MB);
        assert!(tree < ps, "tree {tree} should beat PS {ps}");
    }

    #[test]
    fn degenerate_cases_cost_nothing() {
        let n = net();
        assert_eq!(RingAllReduce.time(&n, &socs(1), MB), 0.0);
        assert_eq!(RingAllReduce.time(&n, &socs(4), 0.0), 0.0);
        assert_eq!(ParameterServer.time(&n, &socs(1), MB), 0.0);
        assert_eq!(TreeAggregate.time(&n, &socs(1), MB), 0.0);
    }

    #[test]
    fn broadcast_is_one_fanout_step() {
        // a one-to-all broadcast (the model dispatch when a job starts) is
        // one step of simultaneous flows out of the root
        let n = net();
        let fanout = |members: &[SocId], bytes: f64| {
            let flows: Vec<Flow> = members[1..]
                .iter()
                .map(|&m| Flow::new(members[0], m, bytes))
                .collect();
            n.collective_step_time(&flows)
        };
        // intra-board fan-out to 4 receivers through the root's tx link
        let t = fanout(&socs(5), 12.5 * MB);
        // 4 x 12.5 MB through one 125 MB/s tx link = 0.4 s + latency
        assert!((t - 0.409).abs() < 0.01, "{t}");
        // root-only broadcast costs nothing
        assert_eq!(fanout(&socs(1), MB), 0.0);
    }

    #[test]
    fn payload_scales_transfer_time() {
        let t1 = RingAllReduce.time(&net(), &socs(4), 10.0 * MB);
        let t2 = RingAllReduce.time(&net(), &socs(4), 20.0 * MB);
        assert!(t2 > t1 * 1.4 && t2 < t1 * 2.1);
    }
}
