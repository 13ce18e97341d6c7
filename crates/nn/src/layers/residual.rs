use crate::layer::{backward_chain, forward_chain, Layer, Mode, Parameter};
use socflow_tensor::{pool, Tensor};

/// A residual block: `y = body(x) + shortcut(x)`.
///
/// `body` is a stack of layers (typically conv–bn–relu–conv–bn) and
/// `shortcut` is either the identity (`None`) or a projection stack
/// (typically a strided 1×1 conv + bn) when the body changes the shape.
/// The skip addition's backward simply fans the incoming gradient into both
/// branches.
pub struct Residual {
    body: Vec<Box<dyn Layer>>,
    shortcut: Option<Vec<Box<dyn Layer>>>,
}

impl Residual {
    /// Creates a residual block with an identity shortcut.
    pub fn identity(body: Vec<Box<dyn Layer>>) -> Self {
        Residual {
            body,
            shortcut: None,
        }
    }

    /// Creates a residual block with a projection shortcut.
    pub fn projected(body: Vec<Box<dyn Layer>>, shortcut: Vec<Box<dyn Layer>>) -> Self {
        Residual {
            body,
            shortcut: Some(shortcut),
        }
    }
}

impl Clone for Residual {
    fn clone(&self) -> Self {
        Residual {
            body: self.body.clone(),
            shortcut: self.shortcut.clone(),
        }
    }
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Residual")
            .field("body_layers", &self.body.len())
            .field("projected", &self.shortcut.is_some())
            .finish()
    }
}

impl Layer for Residual {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut main = forward_chain(&mut self.body, input, mode);
        match &mut self.shortcut {
            Some(s) => {
                let skip = forward_chain(s, input, mode);
                main.add_inplace(&skip);
                pool::recycle(skip);
            }
            None => main.add_inplace(input),
        }
        main
    }

    fn backward(&mut self, grad_out: &Tensor, mode: Mode, want_gx: bool) -> Option<Tensor> {
        let mut g_main = backward_chain(&mut self.body, grad_out, mode, want_gx, |_| ());
        let g_skip = match &mut self.shortcut {
            Some(s) => backward_chain(s, grad_out, mode, want_gx, |_| ()),
            None => None,
        };
        if let Some(g_main) = &mut g_main {
            g_main.add_inplace(g_skip.as_ref().unwrap_or(grad_out));
        }
        if let Some(g_skip) = g_skip {
            pool::recycle(g_skip);
        }
        g_main
    }

    fn release(&mut self) {
        let shortcut = self.shortcut.iter_mut().flatten();
        self.body
            .iter_mut()
            .chain(shortcut)
            .for_each(|l| l.release());
    }

    fn visit_parameters<'a>(&'a self, visit: &mut dyn FnMut(&'a Parameter)) {
        for l in self.body.iter().chain(self.shortcut.iter().flatten()) {
            l.visit_parameters(visit);
        }
    }

    fn visit_parameters_mut<'a>(&'a mut self, visit: &mut dyn FnMut(&'a mut Parameter)) {
        for l in self
            .body
            .iter_mut()
            .chain(self.shortcut.iter_mut().flatten())
        {
            l.visit_parameters_mut(visit);
        }
    }

    fn visit_state(&self, visit: &mut dyn FnMut(&[f32])) {
        for l in self.body.iter().chain(self.shortcut.iter().flatten()) {
            l.visit_state(visit);
        }
    }

    fn visit_state_mut(&mut self, visit: &mut dyn FnMut(&mut [f32])) {
        for l in self
            .body
            .iter_mut()
            .chain(self.shortcut.iter_mut().flatten())
        {
            l.visit_state_mut(visit);
        }
    }

    fn describe(&self) -> String {
        format!(
            "residual({} body layers{})",
            self.body.len(),
            if self.shortcut.is_some() {
                ", projected"
            } else {
                ""
            }
        )
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Precision;
    use crate::layers::{BatchNorm2d, Conv2d, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use socflow_tensor::init;

    fn block(rng: &mut StdRng) -> Residual {
        Residual::identity(vec![
            Box::new(Conv2d::new(2, 2, 3, 1, 1, rng)),
            Box::new(BatchNorm2d::new(2)),
            Box::new(Relu::new()),
            Box::new(Conv2d::new(2, 2, 3, 1, 1, rng)),
            Box::new(BatchNorm2d::new(2)),
        ])
    }

    #[test]
    fn identity_skip_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut r = block(&mut rng);
        let x = init::normal([1, 2, 4, 4], 1.0, &mut rng);
        let y = r.forward(&x, Mode::train(Precision::Fp32));
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn zero_body_passes_input_through() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut r = block(&mut rng);
        // zero all parameters (γ too) so the body contributes nothing
        for p in r.parameters_mut() {
            p.value.fill_zero();
        }
        let x = init::normal([1, 2, 4, 4], 1.0, &mut rng);
        let y = r.forward(&x, Mode::eval(Precision::Fp32));
        for (a, b) in x.data().iter().zip(y.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn backward_fans_gradient_into_both_branches() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut r = block(&mut rng);
        let x = init::normal([1, 2, 4, 4], 1.0, &mut rng);
        let mode = Mode::train(Precision::Fp32);
        r.forward(&x, mode);
        let g = Tensor::ones([1, 2, 4, 4]);
        let gx = r.backward(&g, mode, true).unwrap();
        // identity branch guarantees at least the upstream gradient arrives
        assert_eq!(gx.shape(), x.shape());
        assert!(gx.sum().is_finite());
        // parameter grads must be populated
        assert!(r
            .parameters()
            .iter()
            .any(|p| p.grad.as_ref().is_some_and(|g| g.l2_norm() > 0.0)));
    }

    #[test]
    fn gradcheck_through_block() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut r = block(&mut rng);
        let x = init::normal([1, 2, 3, 3], 1.0, &mut rng);
        let mode = Mode::train(Precision::Fp32);
        let y = r.forward(&x, mode);
        let gy = y.scale(2.0);
        let gx = r.backward(&gy, mode, true).unwrap();

        let eps = 1e-3;
        for idx in [0usize, 7] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lp: f32 = r
                .clone()
                .forward(&xp, Mode::train(Precision::Fp32))
                .data()
                .iter()
                .map(|v| v * v)
                .sum();
            let lm: f32 = r
                .clone()
                .forward(&xm, Mode::train(Precision::Fp32))
                .data()
                .iter()
                .map(|v| v * v)
                .sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - gx.data()[idx]).abs() < 0.1,
                "dx[{idx}]: {num} vs {}",
                gx.data()[idx]
            );
        }
    }
}
