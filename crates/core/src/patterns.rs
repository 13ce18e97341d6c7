//! The three [`Collective`] patterns on the paper's 60-SoC server: the
//! Fig. 4(b) anchors, how the patterns scale with members, boards and
//! payload, and their degenerate cases.

use crate::timemodel::Collective;
use socflow_cluster::{ClusterNet, ClusterSpec, Flow, SocId};

mod tests {
    use super::*;

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
        let t = Collective::Ring.time(&net(), &socs(5), 36.9 * MB);
        assert!((0.40..0.70).contains(&t), "VGG-11 intra ring: {t}s");
        let t18 = Collective::Ring.time(&net(), &socs(5), 44.7 * MB);
        assert!((0.50..0.85).contains(&t18), "ResNet-18 intra ring: {t18}s");
        assert!(t18 > t);
    }

    #[test]
    fn ps_intra_board_matches_paper_anchor() {
        // Paper: ~2060 ms for VGG-11 intra-PCB parameter server.
        let t = Collective::Ps.time(&net(), &socs(5), 36.9 * MB);
        assert!((1.8..2.9).contains(&t), "VGG-11 intra PS: {t}s");
    }

    #[test]
    fn ring_latency_grows_linearly_with_members() {
        let t8 = Collective::Ring.time(&net(), &socs(8), 36.9 * MB);
        let t32 = Collective::Ring.time(&net(), &socs(32), 36.9 * MB);
        assert!(
            t32 > t8 * 2.0,
            "32-SoC ring must be much slower: {t8} vs {t32}"
        );
    }

    #[test]
    fn inter_board_ring_slower_than_intra() {
        // 5 SoCs on one board vs 5 spread across boards, same payload
        let intra = Collective::Ring.time(&net(), &socs(5), 36.9 * MB);
        let spread: Vec<SocId> = (0..5).map(|i| SocId(i * 5)).collect();
        let inter = Collective::Ring.time(&net(), &spread, 36.9 * MB);
        assert!(inter > intra, "{inter} vs {intra}");
    }

    #[test]
    fn ps_worse_than_ring_at_scale() {
        let ring = Collective::Ring.time(&net(), &socs(32), 36.9 * MB);
        let ps = Collective::Ps.time(&net(), &socs(32), 36.9 * MB);
        assert!(ps > ring * 2.0, "PS {ps} should be >> ring {ring}");
    }

    #[test]
    fn tree_beats_ps_at_scale() {
        let tree = Collective::Tree.time(&net(), &socs(32), 36.9 * MB);
        let ps = Collective::Ps.time(&net(), &socs(32), 36.9 * MB);
        assert!(tree < ps, "tree {tree} should beat PS {ps}");
    }

    #[test]
    fn degenerate_cases_cost_nothing() {
        let n = net();
        for c in [Collective::Ring, Collective::Ps, Collective::Tree] {
            assert_eq!(c.time(&n, &socs(1), MB).to_bits(), 0.0f64.to_bits());
            assert_eq!(c.time(&n, &socs(4), 0.0).to_bits(), 0.0f64.to_bits());
        }
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
        let t1 = Collective::Ring.time(&net(), &socs(4), 10.0 * MB);
        let t2 = Collective::Ring.time(&net(), &socs(4), 20.0 * MB);
        assert!(t2 > t1 * 1.4 && t2 < t1 * 2.1);
    }
}
