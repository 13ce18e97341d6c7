//! Differential and invariant properties of the incremental timeline.
//!
//! The oracle is [`Reference`]: the same fluid model with no state kept
//! between steps — it gathers the active flows and calls the max-min
//! solver afresh on every step, which is what `FluidTimeline` did before
//! it learned to reuse rates. Both must tell the same story bit for bit.

use super::*;
use crate::topology::{ClusterSpec, SocId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct RefFlow {
    path: LinkPath,
    remaining: f64,
}

enum RefWork {
    Span {
        remaining: Seconds,
    },
    Batch {
        latency_left: Seconds,
        flows: Vec<RefFlow>,
    },
}

impl RefWork {
    fn is_complete(&self) -> bool {
        match self {
            RefWork::Span { remaining } => *remaining <= TIME_EPS,
            RefWork::Batch {
                latency_left,
                flows,
            } => *latency_left <= TIME_EPS && flows.iter().all(|f| f.remaining <= DRAIN_EPS),
        }
    }
}

struct Reference<'n> {
    net: &'n ClusterNet,
    now: Seconds,
    tasks: Vec<RefWork>,
    live: Vec<usize>,
    carried: Vec<f64>,
}

impl<'n> Reference<'n> {
    fn new(net: &'n ClusterNet) -> Self {
        Reference {
            net,
            now: 0.0,
            tasks: Vec::new(),
            live: Vec::new(),
            carried: vec![0.0; net.num_links()],
        }
    }

    fn push(&mut self, work: RefWork) {
        self.live.push(self.tasks.len());
        self.tasks.push(work);
    }

    fn start_flows(&mut self, flows: &[Flow], latency: Seconds) {
        let flows = flows
            .iter()
            .filter(|f| f.bytes > 0.0 && f.src != f.dst)
            .map(|f| RefFlow {
                path: self.net.path(f),
                remaining: f.bytes,
            })
            .collect();
        self.push(RefWork::Batch {
            latency_left: latency,
            flows,
        });
    }

    fn advance(&mut self) -> Option<Completion> {
        loop {
            if let Some(pos) = self.live.iter().position(|&i| self.tasks[i].is_complete()) {
                let i = self.live.remove(pos);
                return Some(Completion {
                    id: TaskId(i),
                    at: self.now,
                });
            }
            if !self.step() {
                return None;
            }
        }
    }

    fn step(&mut self) -> bool {
        let mut locate = Vec::new();
        let mut dt = f64::INFINITY;
        for &ti in &self.live {
            match &self.tasks[ti] {
                RefWork::Span { remaining } => dt = dt.min(*remaining),
                RefWork::Batch {
                    latency_left,
                    flows,
                } => {
                    if *latency_left > TIME_EPS {
                        dt = dt.min(*latency_left);
                    } else {
                        for (fi, f) in flows.iter().enumerate() {
                            if f.remaining > DRAIN_EPS {
                                locate.push((ti, fi, f.path));
                            }
                        }
                    }
                }
            }
        }
        let mut rates = Vec::new();
        self.net.max_min_rates(
            locate.len(),
            |k| locate[k].2,
            &mut MaxMinScratch::default(),
            &mut rates,
        );
        assert_feasible(self.net, locate.iter().map(|l| l.2), &rates);
        for (&(ti, fi, _), &r) in locate.iter().zip(&rates) {
            if let RefWork::Batch { flows, .. } = &self.tasks[ti] {
                dt = dt.min(flows[fi].remaining / r);
            }
        }
        if !dt.is_finite() {
            return false;
        }
        self.now += dt;
        for &ti in &self.live {
            match &mut self.tasks[ti] {
                RefWork::Span { remaining } => *remaining -= dt,
                RefWork::Batch { latency_left, .. } => {
                    if *latency_left > TIME_EPS {
                        *latency_left -= dt;
                    }
                }
            }
        }
        for (&(ti, fi, path), &r) in locate.iter().zip(&rates) {
            if let RefWork::Batch { flows, .. } = &mut self.tasks[ti] {
                let moved = r * dt;
                flows[fi].remaining -= moved;
                for &l in path.links() {
                    self.carried[usize::from(l)] += moved;
                }
            }
        }
        true
    }
}

/// Every flow has a positive rate and no link carries more than its
/// capacity.
fn assert_feasible(net: &ClusterNet, paths: impl Iterator<Item = LinkPath>, rates: &[f64]) {
    let mut load = vec![0.0f64; net.num_links()];
    for (path, &r) in paths.zip(rates) {
        assert!(r > 0.0, "flow without a rate");
        for &l in path.links() {
            load[usize::from(l)] += r;
        }
    }
    for (l, (&sum, &cap)) in load.iter().zip(net.link_caps()).enumerate() {
        assert!(sum <= cap * (1.0 + 1e-9), "link {l}: {sum} > {cap}");
    }
}

/// One admission, given to both timelines alike.
enum Admit {
    Span(Seconds),
    Batch(Vec<Flow>, Seconds),
}

fn random_admission(rng: &mut StdRng, socs: usize) -> Admit {
    if rng.gen_range(0..4usize) == 0 {
        let d = [0.0, 1e-13, rng.gen_range(0.0..0.5)][rng.gen_range(0..3usize)];
        return Admit::Span(d);
    }
    let latency = [0.0, 1e-13, 0.009, rng.gen_range(0.0..0.05)][rng.gen_range(0..4usize)];
    let n = rng.gen_range(0..7usize);
    let mut flows: Vec<Flow> = (0..n)
        .map(|_| {
            let src = SocId(rng.gen_range(0..socs));
            // self-flows, same-board and cross-board destinations
            let dst = SocId(rng.gen_range(0..socs));
            let bytes = [
                0.0,
                1e-10,
                4e3,
                4e6,
                rng.gen_range(1e3..5e7),
                rng.gen_range(1e3..5e7),
            ][rng.gen_range(0..6usize)];
            Flow::new(src, dst, bytes)
        })
        .collect();
    // duplicate flows and several senders into one destination
    if n >= 2 && rng.gen_range(0..2usize) == 0 {
        flows[1] = flows[0];
    }
    if n >= 3 {
        flows[2].dst = flows[0].dst;
    }
    Admit::Batch(flows, latency)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over random clusters and batches admitted at random event times,
    /// the incremental timeline and the solve-every-step reference give
    /// the same completions at the same instants and carry the same
    /// bytes on every link, to the bit; the carried bytes account for
    /// everything admitted; and every configuration the run solved is
    /// feasible and is what a fresh solve gives.
    #[test]
    fn incremental_timeline_matches_fresh_solver(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = ClusterSpec {
            boards: rng.gen_range(1..5usize),
            socs_per_board: rng.gen_range(1..6usize),
            soc_link_bps: rng.gen_range(0.5e9..2e9),
            board_uplink_bps: rng.gen_range(0.2e9..2e9),
            switch_bps: rng.gen_range(0.5e9..20e9),
        };
        let socs = spec.total_socs();
        let net = ClusterNet::new(spec).with_background_load(rng.gen_range(0.0..0.5));
        let mut tl = FluidTimeline::new(&net);
        let mut oracle = Reference::new(&net);
        let mut admitted = 0.0f64;
        let mut budget = rng.gen_range(1..120usize);
        // a few templates admitted over and over, as an epoch's ring
        // steps are: flow sets repeat and the rate table gets hits
        let templates: Vec<Admit> = (0..rng.gen_range(1..6usize))
            .map(|_| random_admission(&mut rng, socs))
            .collect();
        let mut admit = |tl: &mut FluidTimeline<'_>, oracle: &mut Reference<'_>, rng: &mut StdRng| {
            match &templates[rng.gen_range(0..templates.len())] {
                Admit::Span(d) => {
                    tl.start_span(*d);
                    oracle.push(RefWork::Span { remaining: *d });
                }
                Admit::Batch(flows, latency) => {
                    admitted += flows
                        .iter()
                        .filter(|f| f.src != f.dst)
                        .map(|f| f.bytes)
                        .sum::<f64>();
                    tl.start_flows(flows, *latency);
                    oracle.start_flows(flows, *latency);
                }
            }
        };
        loop {
            // successors are admitted at event times, as drivers do
            for _ in 0..rng.gen_range(0..3usize).min(budget) {
                budget -= 1;
                admit(&mut tl, &mut oracle, &mut rng);
            }
            let (got, want) = (tl.advance(), oracle.advance());
            prop_assert_eq!(got.map(|c| (c.id, c.at.to_bits())), want.map(|c| (c.id, c.at.to_bits())));
            if got.is_none() && budget == 0 {
                break;
            }
        }
        prop_assert_eq!(tl.now().to_bits(), oracle.now.to_bits());
        // per-link carried bytes are what `class_utilization` is a pure
        // function of
        let carried = &tl.scratch.carried;
        prop_assert_eq!(
            carried.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
            oracle.carried.iter().map(|c| c.to_bits()).collect::<Vec<_>>()
        );
        // every flow leaves through exactly one SoC tx link
        let sent: f64 = (0..socs).map(|s| carried[2 * s]).sum();
        prop_assert!((sent - admitted).abs() <= 1e-6 * admitted + 1e-6, "{sent} of {admitted}");

        let table = &tl.scratch.table;
        let mut fresh = Vec::new();
        for &(at, len) in table.index.values() {
            let span = at as usize..(at + len) as usize;
            let paths: Vec<LinkPath> = table.keys[span.clone()]
                .iter()
                .map(|&pair| {
                    let (src, dst) = (SocId((pair >> 16) as usize), SocId((pair & 0xffff) as usize));
                    net.path(&Flow::new(src, dst, 1.0))
                })
                .collect();
            assert_feasible(&net, paths.iter().copied(), &table.rates[span.clone()]);
            net.max_min_rates(paths.len(), |k| paths[k], &mut MaxMinScratch::default(), &mut fresh);
            prop_assert_eq!(&fresh[..], &table.rates[span]);
        }
        let stats = tl.stats;
        prop_assert!(stats.rate_solves + stats.rate_reuses <= stats.steps);
        prop_assert_eq!(stats.rate_solves as usize, table.index.len());
    }
}

/// A full table stops learning; the run carries on through the solver
/// and its results do not change.
#[test]
fn full_rate_table_just_solves() {
    let net = ClusterNet::new(ClusterSpec::paper_server());
    let run = |prefill: usize| {
        let mut tl = FluidTimeline::new(&net);
        tl.scratch.table.keys.resize(prefill, u32::MAX);
        tl.scratch.table.rates.resize(prefill, 0.0);
        let mut done = Vec::new();
        for _ in 0..3 {
            tl.start_flows(
                &[
                    Flow::new(SocId(0), SocId(7), 4e6),
                    Flow::new(SocId(1), SocId(8), 2e6),
                ],
                0.009,
            );
            while let Some(c) = tl.advance() {
                done.push((c.id, c.at.to_bits()));
            }
        }
        (done, tl.stats)
    };
    let (learning, stats) = run(0);
    let (full, full_stats) = run(RATE_TABLE_CAP);
    assert_eq!(learning, full);
    assert!(stats.rate_reuses > 0);
    assert_eq!(full_stats.rate_reuses, 0);
    assert_eq!(
        full_stats.rate_solves,
        stats.rate_solves + stats.rate_reuses
    );
}
