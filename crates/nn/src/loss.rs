//! Loss functions (forward value + gradient w.r.t. logits in one call).

use socflow_tensor::{pool, Tensor};

/// Numerically stable row-wise softmax over a flat `rows × cols` slice, in
/// place.
fn softmax_rows_inplace(data: &mut [f32], rows: usize, cols: usize) {
    for r in 0..rows {
        let row = &mut data[r * cols..(r + 1) * cols];
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let mut denom = 0.0f32;
        for v in row.iter_mut() {
            let e = (*v - max).exp();
            *v = e;
            denom += e;
        }
        for v in row.iter_mut() {
            *v /= denom;
        }
    }
}

/// Mean softmax cross-entropy over a batch.
///
/// Returns `(loss, grad_logits)` where the gradient is already divided by
/// the batch size, ready to feed straight into `Network::backward`. The
/// gradient comes from the step scratch ([`socflow_tensor::pool`]): a
/// training step hands it back there once the backward pass has read it.
///
/// # Panics
/// Panics if `labels.len()` differs from the batch size or any label is out
/// of range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let (n, c) = logits.shape().as_matrix();
    assert_eq!(labels.len(), n, "one label per row required");
    let mut probs = pool::copy_of(logits);
    softmax_rows_inplace(probs.data_mut(), n, c);
    let mut grad = pool::copy_of(&probs);
    let mut loss = 0.0f32;
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < c, "label {label} out of range for {c} classes");
        let p = probs.data()[r * c + label].max(1e-12);
        loss -= p.ln();
        grad.data_mut()[r * c + label] -= 1.0;
    }
    pool::recycle(probs);
    let inv_n = 1.0 / n as f32;
    grad.scale_inplace(inv_n);
    (loss * inv_n, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn softmax(logits: &Tensor) -> Tensor {
        let (n, c) = logits.shape().as_matrix();
        let mut out = logits.clone();
        softmax_rows_inplace(out.data_mut(), n, c);
        out
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let l = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], [2, 3]);
        let p = softmax(&l);
        for r in 0..2 {
            let s: f32 = p.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // monotone: bigger logit, bigger prob
        assert!(p.data()[2] > p.data()[1]);
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let l = Tensor::from_vec(vec![1000.0, 1001.0], [1, 2]);
        let p = softmax(&l);
        assert!(p.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn perfect_prediction_low_loss() {
        let l = Tensor::from_vec(vec![10.0, -10.0, -10.0], [1, 3]);
        let (loss, _) = softmax_cross_entropy(&l, &[0]);
        assert!(loss < 1e-3);
        let (bad_loss, _) = softmax_cross_entropy(&l, &[2]);
        assert!(bad_loss > 5.0);
    }

    #[test]
    fn uniform_logits_loss_is_log_c() {
        let l = Tensor::zeros([4, 10]);
        let (loss, _) = softmax_cross_entropy(&l, &[0, 1, 2, 3]);
        assert!((loss - (10.0f32).ln()).abs() < 1e-4);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let l = Tensor::from_vec(vec![0.5, -0.2, 0.1, 0.7, 0.3, -0.4], [2, 3]);
        let labels = [2usize, 0];
        let (_, g) = softmax_cross_entropy(&l, &labels);
        let eps = 1e-3;
        for idx in 0..6 {
            let mut lp = l.clone();
            lp.data_mut()[idx] += eps;
            let mut lm = l.clone();
            lm.data_mut()[idx] -= eps;
            let num = (softmax_cross_entropy(&lp, &labels).0
                - softmax_cross_entropy(&lm, &labels).0)
                / (2.0 * eps);
            assert!((num - g.data()[idx]).abs() < 1e-3, "dL[{idx}]");
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let l = Tensor::from_vec(vec![0.3, 1.2, -0.5, 0.0, 0.0, 0.0], [2, 3]);
        let (_, g) = softmax_cross_entropy(&l, &[1, 2]);
        for r in 0..2 {
            let s: f32 = g.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }
}
