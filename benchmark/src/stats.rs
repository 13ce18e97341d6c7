//! Order statistics for summarising samples.
//!
//! Shared with the probe (`probe/src/main.rs` includes this file by path),
//! so both halves of the benchmark summarise samples the same way.

/// Sorted copy of `v`; NaNs are a bug in the caller.
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
    s
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the rule the acceptance driver
/// applies to the spread of ten runs, so the numbers printed here can be
/// held against its bound directly. One sample is its own quartiles.
///
/// # Panics
/// Panics on an empty slice.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    assert!(!v.is_empty(), "quartiles of no samples");
    let s = sorted(v);
    let m = s.len();
    if m == 1 {
        return (s[0], s[0], s[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        // may be negative or above 4 at the clamped ends: the exclusive
        // method extrapolates there, as Python does
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

pub fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// The 90th percentile, reported only when at least ten samples lie
/// beyond it (n ≥ 100): with fewer, the tail is a handful of points and
/// the number is noise. Nearest-rank on the sorted samples. Only the
/// probe has sample sets that large, hence the `allow` for the runner.
#[allow(dead_code)]
pub fn p90(v: &[f64]) -> Option<f64> {
    let beyond = v.len() / 10;
    if beyond < 10 {
        return None;
    }
    let s = sorted(v);
    Some(s[s.len() - beyond - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3,1,2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1,2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1,2,4,8,16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let v99: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(p90(&v99), None, "9 samples beyond is not enough");
        let v100: Vec<f64> = (0..100).rev().map(f64::from).collect();
        // ten samples (90..=99) lie beyond 89
        assert_eq!(p90(&v100), Some(89.0));
        assert_eq!(p90(&[1.0; 42]), None);
    }
}
