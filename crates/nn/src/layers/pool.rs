use crate::layer::{Layer, Mode};
use socflow_tensor::conv::{
    global_avg_pool, global_avg_pool_backward, max_pool2d, max_pool2d_backward, ConvParams,
};
use socflow_tensor::{pool, Shape, Tensor};

/// `k×k` max pooling with stride `k` (the non-overlapping pooling used by
/// the reference CNNs).
///
/// A training forward keeps the flat argmax of each output element until
/// its backward; an eval forward's indices, which nobody reads, go straight
/// back, so one in between the two passes clobbers nothing.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    k: usize,
    /// Argmax indices and input shape of the last training forward.
    cached: Option<(Vec<usize>, Shape)>,
}

impl MaxPool2d {
    /// Creates a max-pool with window and stride `k`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "pool window must be positive");
        MaxPool2d { k, cached: None }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let (y, argmax) = max_pool2d(input, self.k, ConvParams::new(self.k, 0));
        if mode.train {
            self.release();
            self.cached = Some((argmax, input.shape().clone()));
        } else {
            pool::give(argmax);
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor, _mode: Mode, want_gx: bool) -> Option<Tensor> {
        let (argmax, shape) = self
            .cached
            .take()
            .expect("MaxPool2d::backward without forward");
        let gx = want_gx.then(|| max_pool2d_backward(grad_out, &argmax, &shape));
        pool::give(argmax);
        gx
    }

    fn release(&mut self) {
        if let Some((argmax, _)) = self.cached.take() {
            pool::give(argmax);
        }
    }

    fn describe(&self) -> String {
        format!("maxpool({k}x{k})", k = self.k)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Global average pooling `(n,c,h,w) → (n,c)`, used before classifier heads.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    cached_shape: Option<Shape>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool { cached_shape: None }
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        if mode.train {
            self.cached_shape = Some(input.shape().clone());
        }
        global_avg_pool(input)
    }

    fn backward(&mut self, grad_out: &Tensor, _mode: Mode, want_gx: bool) -> Option<Tensor> {
        let shape = self
            .cached_shape
            .as_ref()
            .expect("GlobalAvgPool::backward without forward");
        want_gx.then(|| global_avg_pool_backward(grad_out, shape))
    }

    fn describe(&self) -> String {
        "global_avg_pool".to_string()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Precision;

    #[test]
    fn maxpool_halves_spatial() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect::<Vec<_>>(), [1, 1, 4, 4]);
        let y = p.forward(&x, Mode::train(Precision::Fp32));
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
        let gx = p
            .backward(
                &Tensor::ones([1, 1, 2, 2]),
                Mode::train(Precision::Fp32),
                true,
            )
            .unwrap();
        assert_eq!(gx.sum(), 4.0);
    }

    #[test]
    fn an_eval_forward_between_the_passes_leaves_the_argmax_alone() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect::<Vec<_>>(), [1, 1, 4, 4]);
        p.forward(&x, Mode::train(Precision::Fp32));
        // a bigger batch with its maxima elsewhere
        let other = Tensor::from_vec(
            (0..32).map(|i| -(i as f32)).collect::<Vec<_>>(),
            [2, 1, 4, 4],
        );
        let y = p.forward(&other, Mode::eval(Precision::Fp32));
        assert_eq!(
            y.data(),
            &[0.0, -2.0, -8.0, -10.0, -16.0, -18.0, -24.0, -26.0]
        );
        let gx = p
            .backward(
                &Tensor::ones([1, 1, 2, 2]),
                Mode::train(Precision::Fp32),
                true,
            )
            .unwrap();
        assert_eq!(gx.shape().dims(), &[1, 1, 4, 4]);
        for at in [5, 7, 13, 15] {
            assert_eq!(gx.data()[at], 1.0);
        }
        assert_eq!(gx.sum(), 4.0);
    }

    #[test]
    fn gap_shapes() {
        let mut g = GlobalAvgPool::new();
        let x = Tensor::ones([2, 5, 3, 3]);
        let y = g.forward(&x, Mode::train(Precision::Fp32));
        assert_eq!(y.shape().dims(), &[2, 5]);
        assert_eq!(y.data()[0], 1.0);
        let gx = g
            .backward(&Tensor::ones([2, 5]), Mode::train(Precision::Fp32), true)
            .unwrap();
        assert_eq!(gx.shape().dims(), &[2, 5, 3, 3]);
    }
}
