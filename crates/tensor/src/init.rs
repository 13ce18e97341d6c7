//! Deterministic weight initializers.
//!
//! Every initializer takes an explicit RNG so whole training runs are
//! reproducible from a single seed — a requirement for the paper-reproduction
//! harnesses, where baselines must start from identical weights.

use crate::{Shape, Tensor};
use rand::Rng;

/// Uniform initialization in `[-limit, limit]`.
pub fn uniform(shape: impl Into<Shape>, limit: f32, rng: &mut impl Rng) -> Tensor {
    let shape = shape.into();
    let data = (0..shape.len())
        .map(|_| rng.gen_range(-limit..=limit))
        .collect();
    Tensor::from_vec(data, shape)
}

/// Kaiming/He uniform initialization for a layer with `fan_in` inputs:
/// `U(-sqrt(6/fan_in), +sqrt(6/fan_in))`. The standard choice for
/// ReLU networks.
///
/// # Panics
/// Panics if `fan_in == 0`.
pub fn kaiming_uniform(shape: impl Into<Shape>, fan_in: usize, rng: &mut impl Rng) -> Tensor {
    assert!(fan_in > 0, "fan_in must be positive");
    let limit = (6.0 / fan_in as f32).sqrt();
    uniform(shape, limit, rng)
}

/// Standard normal initialization scaled by `std`.
pub fn normal(shape: impl Into<Shape>, std: f32, rng: &mut impl Rng) -> Tensor {
    let shape = shape.into();
    // Box-Muller; two uniforms per normal keeps the dependency surface tiny.
    let data = (0..shape.len())
        .map(|_| {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos() * std
        })
        .collect();
    Tensor::from_vec(data, shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn deterministic_from_seed() {
        let a = kaiming_uniform([4, 4], 4, &mut StdRng::seed_from_u64(7));
        let b = kaiming_uniform([4, 4], 4, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = kaiming_uniform([4, 4], 4, &mut StdRng::seed_from_u64(8));
        assert_ne!(a, c);
    }

    #[test]
    fn kaiming_respects_limit() {
        let t = kaiming_uniform([1000], 100, &mut StdRng::seed_from_u64(1));
        let limit = (6.0f32 / 100.0).sqrt();
        assert!(t.abs_max() <= limit);
        // and actually uses a decent part of the range
        assert!(t.abs_max() > limit * 0.8);
    }

    #[test]
    fn normal_mean_and_std_roughly_right() {
        let t = normal([10_000], 2.0, &mut StdRng::seed_from_u64(3));
        assert!(t.mean().abs() < 0.1, "mean {}", t.mean());
        let var = t.data().iter().map(|v| v * v).sum::<f32>() / t.len() as f32;
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }
}
