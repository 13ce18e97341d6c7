//! Data-parallel partitioners: how a dataset is sharded across SoC workers.
//!
//! SoCFlow dispatches an IID shard to every SoC and *reshuffles data across
//! logical groups between epochs*, which is what lets its delayed
//! aggregation keep convergence accuracy (unlike federated learning, whose
//! clients keep fixed — possibly non-IID — local data). The Dirichlet
//! partitioner gives the federated baselines those non-IID clients.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// IID partition: shuffles `0..n` and deals round-robin into `workers`
/// shards (sizes differ by at most one).
///
/// # Panics
/// Panics if `workers == 0`.
pub fn iid_partition(n: usize, workers: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(workers > 0, "need at least one worker");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    let mut shards = vec![Vec::with_capacity(n / workers + 1); workers];
    for (pos, idx) in order.into_iter().enumerate() {
        shards[pos % workers].push(idx);
    }
    shards
}

/// Dirichlet non-IID partition: for each class, splits its samples across
/// workers with proportions drawn from Dirichlet(α).
///
/// # Panics
/// Panics if `workers == 0` or `alpha <= 0`.
pub fn dirichlet_partition(
    labels: &[usize],
    classes: usize,
    workers: usize,
    alpha: f32,
    seed: u64,
) -> Vec<Vec<usize>> {
    assert!(workers > 0, "need at least one worker");
    assert!(alpha > 0.0, "alpha must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![Vec::new(); workers];
    for c in 0..classes {
        let members: Vec<usize> = (0..labels.len()).filter(|&i| labels[i] == c).collect();
        // Gamma(α,1) draws via Marsaglia-Tsang for α>=1; boost trick below 1.
        let mut props: Vec<f32> = (0..workers)
            .map(|_| gamma_sample(alpha, &mut rng))
            .collect();
        let total: f32 = props.iter().sum::<f32>().max(f32::EPSILON);
        for p in &mut props {
            *p /= total;
        }
        let mut cursor = 0usize;
        for (w, &p) in props.iter().enumerate() {
            let take = if w + 1 == workers {
                members.len() - cursor
            } else {
                ((p * members.len() as f32).round() as usize).min(members.len() - cursor)
            };
            out[w].extend_from_slice(&members[cursor..cursor + take]);
            cursor += take;
        }
    }
    out
}

fn gamma_sample(alpha: f32, rng: &mut StdRng) -> f32 {
    // Marsaglia & Tsang; for alpha < 1 use the boosting identity.
    if alpha < 1.0 {
        let u: f32 = rng.gen_range(f32::EPSILON..1.0);
        return gamma_sample(alpha + 1.0, rng) * u.powf(1.0 / alpha);
    }
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let x = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f32 = rng.gen_range(f32::EPSILON..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dataset, SyntheticSpec};

    fn dataset() -> Dataset {
        Dataset::synthetic(SyntheticSpec {
            channels: 1,
            size: 4,
            classes: 5,
            samples: 100,
            noise: 0.1,
            label_noise: 0.0,
            seed: 7,
        })
    }

    fn assert_disjoint_cover(shards: &[Vec<usize>], n: usize) {
        let mut seen = vec![false; n];
        for shard in shards {
            for &i in shard {
                assert!(!seen[i], "index {i} appears twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "partition must cover all samples");
    }

    #[test]
    fn iid_covers_and_balances() {
        let shards = iid_partition(100, 8, 1);
        assert_disjoint_cover(&shards, 100);
        for s in &shards {
            assert!(s.len() == 12 || s.len() == 13);
        }
    }

    #[test]
    fn iid_shards_have_mixed_labels() {
        let d = dataset();
        let shards = iid_partition(d.len(), 4, 2);
        for s in &shards {
            let mut classes: Vec<usize> = s.iter().map(|&i| d.labels()[i]).collect();
            classes.dedup();
            classes.sort_unstable();
            classes.dedup();
            assert!(classes.len() >= 4, "IID shard should see most classes");
        }
    }

    #[test]
    fn dirichlet_covers_all() {
        let d = dataset();
        let shards = dirichlet_partition(d.labels(), d.classes(), 6, 0.3, 4);
        assert_disjoint_cover(&shards, d.len());
    }

    #[test]
    fn dirichlet_small_alpha_more_skewed_than_large() {
        let d = dataset();
        let skew = |alpha: f32| -> f32 {
            let shards = dirichlet_partition(d.labels(), d.classes(), 5, alpha, 9);
            // mean, over workers, of the max class share in the worker's shard
            let mut total = 0.0;
            let mut counted = 0;
            for s in &shards {
                if s.is_empty() {
                    continue;
                }
                let mut counts = vec![0usize; d.classes()];
                for &i in s {
                    counts[d.labels()[i]] += 1;
                }
                total += *counts.iter().max().unwrap() as f32 / s.len() as f32;
                counted += 1;
            }
            total / counted as f32
        };
        assert!(skew(0.1) > skew(100.0), "small alpha must be more skewed");
    }

    #[test]
    fn single_worker_gets_everything() {
        let shards = iid_partition(50, 1, 0);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].len(), 50);
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(iid_partition(30, 3, 5), iid_partition(30, 3, 5));
        assert_ne!(iid_partition(30, 3, 5), iid_partition(30, 3, 6));
    }
}
