//! Functional (data-plane) collectives operating on in-memory buffers.

/// Sums all workers' buffers elementwise and writes the total back to every
/// worker — the semantic contract of all-reduce.
///
/// # Panics
/// Panics if the buffers have different lengths or `buffers` is empty.
pub fn allreduce_sum(buffers: &mut [Vec<f32>]) {
    assert!(!buffers.is_empty(), "all-reduce needs at least one worker");
    let len = buffers[0].len();
    assert!(
        buffers.iter().all(|b| b.len() == len),
        "all buffers must have equal length"
    );
    let mut total = vec![0.0f32; len];
    for b in buffers.iter() {
        for (t, v) in total.iter_mut().zip(b) {
            *t += v;
        }
    }
    for b in buffers.iter_mut() {
        b.copy_from_slice(&total);
    }
}

/// All-reduce that leaves the *mean* in every buffer (synchronous SGD's
/// gradient average).
///
/// # Panics
/// Panics if the buffers have different lengths or `buffers` is empty.
pub fn allreduce_mean(buffers: &mut [Vec<f32>]) {
    let n = buffers.len() as f32;
    allreduce_sum(buffers);
    for b in buffers.iter_mut() {
        for v in b.iter_mut() {
            *v /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_replicates_total() {
        let mut b = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        allreduce_sum(&mut b);
        for w in &b {
            assert_eq!(w, &vec![9.0, 12.0]);
        }
    }

    #[test]
    fn mean_divides_by_workers() {
        let mut b = vec![vec![2.0], vec![4.0]];
        allreduce_mean(&mut b);
        assert_eq!(b, vec![vec![3.0], vec![3.0]]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn rejects_mismatched_lengths() {
        let mut b = vec![vec![1.0], vec![1.0, 2.0]];
        allreduce_sum(&mut b);
    }
}
