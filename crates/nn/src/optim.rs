//! Optimizers. SoCFlow uses plain SGD with momentum on the CPU path; the
//! INT8 path's integer optimizer is modelled by the gradient quantization in
//! the layers, so the update rule itself is shared.

use crate::{Network, Parameter};
use socflow_tensor::sweep::{self, SgdStep};
use socflow_tensor::Tensor;

/// Stochastic gradient descent with classical momentum and (decoupled) L2
/// weight decay:
///
/// ```text
/// v ← μ·v + g + λ·w
/// w ← w − lr·v
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an optimizer.
    ///
    /// # Panics
    /// Panics if `lr <= 0` or `momentum` is outside `[0, 1)`.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Replaces the learning rate (for schedules).
    ///
    /// # Panics
    /// Panics if `lr <= 0`.
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }

    /// Clears the momentum buffers (used after weight-averaging events,
    /// where stale velocity would point away from the merged weights).
    pub fn reset_momentum(&mut self) {
        for v in &mut self.velocity {
            v.fill_zero();
        }
    }

    /// The momentum buffers flattened into one vector, in parameter order
    /// (empty before the first step).
    pub fn flat_velocity(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.flat_velocity_into(&mut out);
        out
    }

    /// [`Sgd::flat_velocity`] writing into `out`, reusing its storage.
    pub fn flat_velocity_into(&self, out: &mut Vec<f32>) {
        out.clear();
        for v in &self.velocity {
            out.extend_from_slice(v.data());
        }
    }

    /// Allocates the momentum buffers (all zero) to match `net`'s parameter
    /// structure without taking a step — checkpoint restore needs somewhere
    /// to put a saved velocity before the first post-resume step, and a
    /// replica that never steps still takes part in momentum averaging. A
    /// no-op once the buffers exist.
    pub fn ensure_velocity(&mut self, net: &Network) {
        if self.velocity.is_empty() {
            net.for_each_parameter(|p| self.velocity.push(Tensor::zeros(p.value.shape().clone())));
        }
    }

    /// The momentum buffers as mutable slices, one per parameter in
    /// parameter order (none before the first step or
    /// [`Sgd::ensure_velocity`]) — what delayed aggregation averages in
    /// place.
    pub fn velocity_slices_mut(&mut self) -> impl Iterator<Item = &mut [f32]> {
        self.velocity.iter_mut().map(|v| v.data_mut())
    }

    /// Overwrites the momentum buffers from a flat vector (the inverse of
    /// [`Sgd::flat_velocity`]). A no-op for an empty `flat` (so states
    /// captured before the first step restore cleanly).
    ///
    /// # Panics
    /// Panics if `flat` is non-empty and its length does not match the
    /// allocated buffers.
    pub fn set_flat_velocity(&mut self, flat: &[f32]) {
        if flat.is_empty() {
            return;
        }
        let total: usize = self.velocity.iter().map(|v| v.len()).sum();
        assert_eq!(flat.len(), total, "velocity length mismatch");
        let mut off = 0;
        for v in &mut self.velocity {
            let n = v.len();
            v.data_mut().copy_from_slice(&flat[off..off + n]);
            off += n;
        }
    }

    /// Applies one update step using the gradients accumulated in `net`.
    ///
    /// The first call lazily allocates one velocity buffer per parameter;
    /// the parameter structure must not change between calls.
    ///
    /// # Panics
    /// Panics if the network's parameter count changed since the first step.
    pub fn step(&mut self, net: &mut Network) {
        self.step_with(net, |p, v, h| {
            sweep::sgd_momentum(p.value.data_mut(), p.grad.data(), v, h)
        });
    }

    /// [`Sgd::step`] followed by [`Network::zero_grad`], as one pass over
    /// each parameter instead of two.
    ///
    /// # Panics
    /// Panics if the network's parameter count changed since the first step.
    pub fn step_zero_grad(&mut self, net: &mut Network) {
        self.step_with(net, |p, v, h| {
            sweep::sgd_momentum_zero_grad(p.value.data_mut(), p.grad.data_mut(), v, h)
        });
    }

    /// One step: `update` on every parameter of `net` and its velocity
    /// buffer.
    fn step_with(
        &mut self,
        net: &mut Network,
        update: impl Fn(&mut Parameter, &mut [f32], SgdStep),
    ) {
        const CHANGED: &str = "parameter structure changed between optimizer steps";
        self.ensure_velocity(net);
        let h = SgdStep {
            lr: self.lr,
            momentum: self.momentum,
            weight_decay: self.weight_decay,
        };
        let mut velocity = self.velocity.iter_mut();
        net.for_each_parameter_mut(|p| update(p, velocity.next().expect(CHANGED).data_mut(), h));
        assert!(velocity.next().is_none(), "{CHANGED}");
    }
}

/// Clips the global L2 norm of all accumulated gradients to `max_norm`,
/// returning the pre-clip norm. Standard stabilizer for Transformer and
/// high-LR training; a no-op when the norm is already within bounds.
///
/// # Panics
/// Panics if `max_norm` is not positive.
pub fn clip_grad_norm(net: &mut Network, max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let total: f32 = net
        .parameters()
        .iter()
        .map(|p| p.grad.data().iter().map(|g| g * g).sum::<f32>())
        .sum::<f32>()
        .sqrt();
    if total > max_norm {
        let scale = max_norm / total;
        for p in net.parameters_mut() {
            p.grad.scale_inplace(scale);
        }
    }
    total
}

/// Adam optimizer (Kingma & Ba) with decoupled weight decay (AdamW-style).
///
/// Included for the fine-tuning and Transformer extension experiments
/// (paper §5); the paper's main results use [`Sgd`].
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    step_count: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with the canonical β₁ = 0.9, β₂ = 0.999.
    ///
    /// # Panics
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            step_count: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Replaces the learning rate (for schedules).
    ///
    /// # Panics
    /// Panics if `lr <= 0`.
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }

    /// Applies one update step using the gradients accumulated in `net`.
    ///
    /// # Panics
    /// Panics if the network's parameter count changed since the first step.
    pub fn step(&mut self, net: &mut Network) {
        const CHANGED: &str = "parameter structure changed between optimizer steps";
        if self.m.is_empty() {
            net.for_each_parameter(|p| self.m.push(Tensor::zeros(p.value.shape().clone())));
            self.v = self.m.clone();
        }
        self.step_count += 1;
        let bc1 = 1.0 - self.beta1.powi(self.step_count as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step_count as i32);
        let (lr, beta1, beta2, eps, decay) =
            (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
        let mut moments = self.m.iter_mut().zip(&mut self.v);
        net.for_each_parameter_mut(|p| {
            let (m, v) = moments.next().expect(CHANGED);
            assert_eq!(m.len(), p.len(), "{CHANGED}");
            let moments = m.data_mut().iter_mut().zip(v.data_mut());
            let values = p.value.data_mut().iter_mut().zip(p.grad.data());
            for ((w, &g), (m, v)) in values.zip(moments) {
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *w -= lr * (mhat / (vhat.sqrt() + eps) + decay * *w);
            }
        });
        assert!(moments.next().is_none(), "{CHANGED}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::{loss, Mode, Precision};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use socflow_tensor::Tensor;

    fn quadratic_net() -> Network {
        let mut rng = StdRng::seed_from_u64(0);
        Network::new(vec![Box::new(Linear::new(2, 2, &mut rng))])
    }

    #[test]
    fn loss_decreases_over_steps() {
        let mut net = quadratic_net();
        let mut opt = Sgd::new(0.5, 0.0, 0.0);
        let x = Tensor::from_vec(vec![1.0, -1.0, 0.5, 2.0], [2, 2]);
        let labels = [0usize, 1];
        let mode = Mode::train(Precision::Fp32);
        let mut losses = Vec::new();
        for _ in 0..20 {
            let logits = net.forward(&x, mode);
            let (l, g) = loss::softmax_cross_entropy(&logits, &labels);
            losses.push(l);
            net.backward(&g, mode);
            opt.step(&mut net);
            net.zero_grad();
        }
        assert!(losses.last().unwrap() < &(losses[0] * 0.5), "{losses:?}");
    }

    #[test]
    fn momentum_accelerates() {
        // One step with momentum equals one plain step; second step is larger.
        let run = |mu: f32| {
            let mut net = quadratic_net();
            let mut opt = Sgd::new(0.1, mu, 0.0);
            let x = Tensor::ones([1, 2]);
            let mode = Mode::train(Precision::Fp32);
            for _ in 0..5 {
                let logits = net.forward(&x, mode);
                let (_, g) = loss::softmax_cross_entropy(&logits, &[0]);
                net.backward(&g, mode);
                opt.step(&mut net);
                net.zero_grad();
            }
            net.flat_weights()
        };
        let w_plain = run(0.0);
        let w_mom = run(0.9);
        let dist = |w: &[f32]| -> f32 {
            let w0 = quadratic_net().flat_weights();
            w.iter().zip(&w0).map(|(a, b)| (a - b).powi(2)).sum()
        };
        assert!(
            dist(&w_mom) > dist(&w_plain),
            "momentum should move farther"
        );
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut net = quadratic_net();
        let norm0: f32 = net.flat_weights().iter().map(|v| v * v).sum();
        let mut opt = Sgd::new(0.1, 0.0, 0.5);
        // no data gradient: zero grads, only decay acts
        for _ in 0..10 {
            net.zero_grad();
            opt.step(&mut net);
        }
        let norm1: f32 = net.flat_weights().iter().map(|v| v * v).sum();
        assert!(norm1 < norm0 * 0.5);
    }

    /// A net with gradients from one backward pass.
    fn net_with_grads() -> Network {
        let mut net = quadratic_net();
        let x = Tensor::from_vec(vec![1.0, -1.0, 0.5, 2.0], [2, 2]);
        let mode = Mode::train(Precision::Fp32);
        let logits = net.forward(&x, mode);
        let (_, g) = loss::softmax_cross_entropy(&logits, &[0, 1]);
        net.backward(&g, mode);
        net
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_step_is_step_then_zero_grad() {
        let (mut a, mut b) = (net_with_grads(), net_with_grads());
        let (mut opt_a, mut opt_b) = (Sgd::new(0.1, 0.9, 5e-4), Sgd::new(0.1, 0.9, 5e-4));
        for _ in 0..3 {
            opt_a.step(&mut a);
            a.zero_grad();
            opt_b.step_zero_grad(&mut b);
            assert_eq!(bits(&a.flat_weights()), bits(&b.flat_weights()));
            assert_eq!(bits(&opt_a.flat_velocity()), bits(&opt_b.flat_velocity()));
            assert_eq!(bits(&b.flat_grads()), bits(&[0.0; 6]));
            // the next round steps on real gradients again
            let g = net_with_grads().flat_grads();
            a.set_flat_grads(&g);
            b.set_flat_grads(&g);
        }
    }

    #[test]
    fn velocity_allocated_ahead_of_the_first_step_is_the_lazy_one() {
        let (mut a, mut b) = (net_with_grads(), net_with_grads());
        let (mut eager, mut lazy) = (Sgd::new(0.1, 0.9, 5e-4), Sgd::new(0.1, 0.9, 5e-4));
        assert!(lazy.flat_velocity().is_empty());
        eager.ensure_velocity(&a);
        assert_eq!(bits(&eager.flat_velocity()), bits(&[0.0; 6]));
        assert_eq!(eager.velocity_slices_mut().count(), 2);
        eager.step(&mut a);
        lazy.step(&mut b);
        assert_eq!(bits(&a.flat_weights()), bits(&b.flat_weights()));
        assert_eq!(bits(&eager.flat_velocity()), bits(&lazy.flat_velocity()));
    }

    /// `Adam::step` as it was, an indexed loop over each parameter.
    fn adam_reference(opt: &mut Adam, net: &mut Network) {
        let mut params = net.parameters_mut();
        if opt.m.is_empty() {
            opt.m = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape().clone()))
                .collect();
            opt.v = opt.m.clone();
        }
        opt.step_count += 1;
        let bc1 = 1.0 - opt.beta1.powi(opt.step_count as i32);
        let bc2 = 1.0 - opt.beta2.powi(opt.step_count as i32);
        for ((p, m), v) in params.iter_mut().zip(&mut opt.m).zip(&mut opt.v) {
            for i in 0..p.value.len() {
                let g = p.grad.data()[i];
                let mi = opt.beta1 * m.data()[i] + (1.0 - opt.beta1) * g;
                let vi = opt.beta2 * v.data()[i] + (1.0 - opt.beta2) * g * g;
                m.data_mut()[i] = mi;
                v.data_mut()[i] = vi;
                let mhat = mi / bc1;
                let vhat = vi / bc2;
                let w = p.value.data()[i];
                p.value.data_mut()[i] =
                    w - opt.lr * (mhat / (vhat.sqrt() + opt.eps) + opt.weight_decay * w);
            }
        }
    }

    #[test]
    fn adam_matches_its_scalar_reference_bitwise() {
        let (mut a, mut b) = (net_with_grads(), net_with_grads());
        let (mut opt_a, mut opt_b) = (Adam::new(0.01, 0.3), Adam::new(0.01, 0.3));
        for _ in 0..4 {
            opt_a.step(&mut a);
            adam_reference(&mut opt_b, &mut b);
            assert_eq!(bits(&a.flat_weights()), bits(&b.flat_weights()));
        }
        for (got, want) in [(&opt_a.m, &opt_b.m), (&opt_a.v, &opt_b.v)] {
            for (g, w) in got.iter().zip(want) {
                assert_eq!(bits(g.data()), bits(w.data()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_zero_lr() {
        let _ = Sgd::new(0.0, 0.0, 0.0);
    }

    #[test]
    fn clip_grad_norm_scales_and_reports() {
        let mut net = quadratic_net();
        let x = Tensor::ones([1, 2]);
        let mode = Mode::train(Precision::Fp32);
        let logits = net.forward(&x, mode);
        let (_, g) = loss::softmax_cross_entropy(&logits, &[0]);
        net.backward(&g, mode);
        let before = clip_grad_norm(&mut net, 1e-3);
        assert!(before > 1e-3, "test needs a nontrivial gradient");
        // after clipping, the norm equals the bound
        let after: f32 = net
            .parameters()
            .iter()
            .map(|p| p.grad.data().iter().map(|v| v * v).sum::<f32>())
            .sum::<f32>()
            .sqrt();
        assert!((after - 1e-3).abs() < 1e-6, "{after}");
        // clipping again is a no-op
        let second = clip_grad_norm(&mut net, 1e-3);
        assert!((second - 1e-3).abs() < 1e-6);
    }

    #[test]
    fn adam_loss_decreases() {
        let mut net = quadratic_net();
        let mut opt = Adam::new(0.05, 0.0);
        let x = Tensor::from_vec(vec![1.0, -1.0, 0.5, 2.0], [2, 2]);
        let labels = [0usize, 1];
        let mode = Mode::train(Precision::Fp32);
        let mut losses = Vec::new();
        for _ in 0..30 {
            let logits = net.forward(&x, mode);
            let (l, g) = loss::softmax_cross_entropy(&logits, &labels);
            losses.push(l);
            net.backward(&g, mode);
            opt.step(&mut net);
            net.zero_grad();
        }
        assert!(losses.last().unwrap() < &(losses[0] * 0.3), "{losses:?}");
    }

    #[test]
    fn adam_step_size_bounded_by_lr() {
        // Adam's per-parameter step magnitude is ≈ lr after bias correction
        let mut net = quadratic_net();
        let before = net.flat_weights();
        let mut opt = Adam::new(0.01, 0.0);
        let x = Tensor::ones([1, 2]);
        let mode = Mode::train(Precision::Fp32);
        let logits = net.forward(&x, mode);
        let (_, g) = loss::softmax_cross_entropy(&logits, &[0]);
        net.backward(&g, mode);
        opt.step(&mut net);
        for (a, b) in net.flat_weights().iter().zip(&before) {
            assert!((a - b).abs() <= 0.0101, "step {} too large", (a - b).abs());
        }
    }

    #[test]
    fn adam_decoupled_weight_decay_shrinks() {
        let mut net = quadratic_net();
        let n0: f32 = net.flat_weights().iter().map(|v| v * v).sum();
        let mut opt = Adam::new(0.01, 0.3);
        for _ in 0..20 {
            net.zero_grad();
            opt.step(&mut net);
        }
        let n1: f32 = net.flat_weights().iter().map(|v| v * v).sum();
        assert!(n1 < n0 * 0.95);
    }
}
