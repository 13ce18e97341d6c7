//! Metric directions and the regression-bound comparison.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How much worse a metric may get before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the base value (host-clock metrics, simulated seconds).
    Rel(f64),
    /// The metric's own unit (accuracy, failure share).
    Abs(f64),
}

/// By how much `new` is worse than `base`, in the metric's unit
/// (negative when it is better).
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    }
}

/// `true` when `new` is worse than `base` by more than the bound.
pub fn regressed(better: Better, bound: Bound, base: f64, new: f64) -> bool {
    let allowed = match bound {
        Bound::Rel(share) => share * base.abs(),
        Bound::Abs(units) => units,
    };
    worse_by(better, base, new) > allowed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_bound_scales_with_the_base() {
        let b = Bound::Rel(0.10);
        assert!(!regressed(Better::Lower, b, 2.0, 2.19));
        assert!(regressed(Better::Lower, b, 2.0, 2.21));
        assert!(!regressed(Better::Lower, b, 2.0, 0.5), "faster is fine");
        assert!(regressed(Better::Higher, b, 100.0, 89.0));
        assert!(!regressed(Better::Higher, b, 100.0, 130.0));
    }

    #[test]
    fn absolute_bound_ignores_the_base() {
        let b = Bound::Abs(0.02);
        assert!(!regressed(Better::Higher, b, 0.80, 0.785));
        assert!(regressed(Better::Higher, b, 0.80, 0.77));
        // a zero bound: any worsening at all, and only a worsening
        assert!(regressed(Better::Lower, Bound::Abs(0.0), 0.0, 0.1));
        assert!(!regressed(Better::Lower, Bound::Abs(0.0), 0.0, 0.0));
    }

    #[test]
    fn tiny_relative_bound_passes_identical_values_only() {
        let b = Bound::Rel(1e-9);
        assert!(!regressed(Better::Lower, b, 47.58138796704, 47.58138796704));
        assert!(regressed(Better::Lower, b, 47.58138796704, 47.5813881));
    }
}
