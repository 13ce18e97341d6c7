//! Closed-form ring and parameter-server costs: the oracles the tests
//! below hold [`Collective::Ring`] and [`Collective::Ps`] to on one board,
//! where nothing contends.

use crate::timemodel::Collective;
use socflow_cluster::Seconds;

/// Analytic Ring-AllReduce time: `2(n−1)` steps of `bytes/n` at
/// `bandwidth` plus per-step latency.
fn ring_time(n: usize, bytes: f64, bandwidth_bytes_per_s: f64, step_latency: Seconds) -> Seconds {
    if n < 2 || bytes == 0.0 {
        return 0.0;
    }
    let steps = 2 * (n - 1);
    steps as f64 * (bytes / n as f64 / bandwidth_bytes_per_s + step_latency)
}

/// Analytic parameter-server time: `n−1` pushes into the server link, then
/// `n−1` pulls out of it, serialized on that single link.
fn ps_time(n: usize, bytes: f64, bandwidth_bytes_per_s: f64, step_latency: Seconds) -> Seconds {
    if n < 2 || bytes == 0.0 {
        return 0.0;
    }
    2.0 * ((n - 1) as f64 * bytes / bandwidth_bytes_per_s + step_latency)
}

mod tests {
    use super::*;
    use socflow_cluster::{calibration, ClusterNet, ClusterSpec, SocId};

    const BW: f64 = 1e9 / 8.0;

    #[test]
    fn ring_formula_basics() {
        // n=4, 40 MB, no latency: 6 steps × 10 MB / 125 MB/s = 0.48 s
        let t = ring_time(4, 40e6, BW, 0.0);
        assert!((t - 0.48).abs() < 1e-9);
        assert_eq!(ring_time(1, 40e6, BW, 0.0), 0.0);
    }

    #[test]
    fn analytic_ring_matches_simulator_intra_board() {
        // On one board there is no contention, so the fluid simulation must
        // equal the closed form.
        let net = ClusterNet::new(ClusterSpec::paper_server());
        let members: Vec<SocId> = (0..5).map(SocId).collect();
        let sim = Collective::Ring.time(&net, &members, 36.9e6);
        let ana = ring_time(5, 36.9e6, BW, calibration::STEP_LATENCY_INTRA);
        assert!(
            (sim - ana).abs() / ana < 0.01,
            "simulator {sim} vs analytic {ana}"
        );
    }

    #[test]
    fn analytic_ps_matches_simulator_intra_board() {
        let net = ClusterNet::new(ClusterSpec::paper_server());
        let members: Vec<SocId> = (0..5).map(SocId).collect();
        let sim = Collective::Ps.time(&net, &members, 36.9e6);
        let ana = ps_time(5, 36.9e6, BW, calibration::STEP_LATENCY_INTRA);
        assert!(
            (sim - ana).abs() / ana < 0.01,
            "simulator {sim} vs analytic {ana}"
        );
    }

    #[test]
    fn latency_term_dominates_small_payloads() {
        let t = ring_time(32, 1.0, BW, 0.02);
        assert!((t - 62.0 * 0.02).abs() < 1e-6);
    }
}
