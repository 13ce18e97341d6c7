//! Optimizers. SoCFlow uses plain SGD with momentum on both of a SoC's
//! arms: the INT8 path's integer optimizer is modelled by the gradient
//! quantization in the layers, so the update rule itself is shared. A
//! mixed-precision step runs it in two halves on the one network both arms
//! train: [`Sgd::step_velocity`] for the FP32 arm, then
//! [`Sgd::step_merged`], which steps the INT8 arm and merges the two.

use crate::{Network, Parameter};
use socflow_tensor::sweep::{self, SgdStep};
use socflow_tensor::{pool, Tensor};

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

    fn hyper(&self) -> SgdStep {
        SgdStep {
            lr: self.lr,
            momentum: self.momentum,
            weight_decay: self.weight_decay,
        }
    }

    /// Runs `update(parameter, its gradient, its velocity)` over every
    /// parameter of `net` and hands the gradients (all `+0.0` for a
    /// parameter that has none) back, allocating the velocity first if
    /// need be.
    ///
    /// # Panics
    /// Panics if the network's parameter count changed since the first step.
    fn for_each_gradient(
        &mut self,
        net: &mut Network,
        mut update: impl FnMut(&mut Parameter, &Tensor, &mut [f32]),
    ) {
        self.ensure_velocity(net);
        let mut velocity = self.velocity.iter_mut();
        net.for_each_parameter_mut(|p| {
            let v = velocity.next().expect(CHANGED).data_mut();
            let g = p
                .grad
                .take()
                .unwrap_or_else(|| pool::zeroed(p.value.shape().clone()));
            update(p, &g, v);
            pool::recycle(g);
        });
        assert!(velocity.next().is_none(), "{CHANGED}");
    }

    /// Applies one update step using the gradients accumulated in `net`
    /// (all `+0.0` for a parameter that has none) and hands them back.
    ///
    /// The first call lazily allocates one velocity buffer per parameter;
    /// the parameter structure must not change between calls.
    ///
    /// # Panics
    /// Panics if the network's parameter count changed since the first step.
    pub fn step(&mut self, net: &mut Network) {
        let h = self.hyper();
        self.for_each_gradient(net, |p, g, v| {
            sweep::sgd_momentum(p.value.data_mut(), g.data(), v, h)
        });
    }

    /// The velocity half of [`Sgd::step`]: `v ← μ·v + (g + λ·w)` on the
    /// gradients accumulated in `net`, which it hands back; the weights
    /// are not touched. [`Sgd::step_merged`] takes the weight step.
    ///
    /// # Panics
    /// Panics if the network's parameter count changed since the first step.
    pub fn step_velocity(&mut self, net: &mut Network) {
        let h = self.hyper();
        self.for_each_gradient(net, |p, g, v| {
            sweep::sgd_velocity(p.value.data(), g.data(), v, h)
        });
    }

    /// Moves `net` from its weights `w` to the blend (the paper's Eq. 5)
    /// of two SGD steps from `w`, in one sweep per parameter
    /// ([`sweep::sgd_merge`]): `w ← k·(w − lr·v) + (1 − k)·w₈`, where `v`
    /// is this optimizer's velocity as [`Sgd::step_velocity`] left it and
    /// `w₈` is `int8`'s [`Sgd::step`] on the gradients `net` holds, which
    /// it hands back — or, for `None`, an arm that takes no step, `w`
    /// itself. Every element is the one two [`Sgd::step`]s of two copies
    /// of `net` and a lerp of their weights give, bit for bit.
    ///
    /// # Panics
    /// Panics if [`Sgd::step_velocity`] has not run on `net`'s parameter
    /// structure.
    pub fn step_merged(&self, net: &mut Network, int8: Option<&mut Sgd>, k: f32) {
        let mut velocity = self.velocity.iter();
        let mut merge = |p: &mut Parameter, arm: Option<sweep::ArmStep<'_>>| {
            let v = velocity.next().expect(CHANGED).data();
            sweep::sgd_merge(p.value.data_mut(), v, self.lr, arm, k);
        };
        match int8 {
            Some(arm) => {
                let h8 = arm.hyper();
                arm.for_each_gradient(net, |p, g8, v8| merge(p, Some((g8.data(), v8, h8))));
            }
            None => net.for_each_parameter_mut(|p| merge(p, None)),
        }
        assert!(velocity.next().is_none(), "{CHANGED}");
    }
}

const CHANGED: &str = "parameter structure changed between optimizer steps";

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

    /// Accumulates one backward pass's gradients into `net`.
    fn backprop(net: &mut Network) {
        let x = Tensor::from_vec(vec![1.0, -1.0, 0.5, 2.0], [2, 2]);
        let mode = Mode::train(Precision::Fp32);
        let logits = net.forward(&x, mode);
        let (_, g) = loss::softmax_cross_entropy(&logits, &[0, 1]);
        net.backward(&g, mode);
    }

    /// A net with gradients from one backward pass.
    fn net_with_grads() -> Network {
        let mut net = quadratic_net();
        backprop(&mut net);
        net
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `Sgd::step` does what a `zero_grad` after it did: it hands every
    /// gradient back. And a second step with no backward pass in between is
    /// a step on all-`+0.0` gradients.
    #[test]
    fn fused_step_is_step_then_zero_grad() {
        let (mut a, mut b) = (net_with_grads(), net_with_grads());
        let (mut opt_a, mut opt_b) = (Sgd::new(0.1, 0.9, 5e-4), Sgd::new(0.1, 0.9, 5e-4));
        for _ in 0..3 {
            opt_a.step(&mut a);
            a.for_each_parameter(|p| assert!(p.grad.is_none()));
            a.zero_grad();
            opt_b.step(&mut b);
            assert_eq!(bits(&a.flat_weights()), bits(&b.flat_weights()));
            assert_eq!(bits(&opt_a.flat_velocity()), bits(&opt_b.flat_velocity()));
            // the next round steps on real gradients again
            backprop(&mut a);
            backprop(&mut b);
        }
        // no gradient, or an explicit zero one: the same step
        let mut zeroed = a.clone();
        let mut opt_zeroed = opt_a.clone();
        a.zero_grad();
        zeroed.for_each_parameter_mut(|p| p.grad = Some(Tensor::zeros(p.value.shape().clone())));
        opt_a.step(&mut a);
        opt_zeroed.step(&mut zeroed);
        assert_eq!(bits(&a.flat_weights()), bits(&zeroed.flat_weights()));
        assert_eq!(
            bits(&opt_a.flat_velocity()),
            bits(&opt_zeroed.flat_velocity())
        );
    }

    /// Two networks of one architecture stepping in turn on one thread
    /// hold their gradients in the same storage: one set per thread, not
    /// one per network.
    #[test]
    fn networks_stepping_in_turn_share_one_gradient_set() {
        let grad_ptrs = |net: &Network| {
            let mut out = Vec::new();
            net.for_each_parameter(|p| out.push(p.grad.as_ref().unwrap().data().as_ptr()));
            out
        };
        // gradient lengths 15, 5, 10 and 2 are no activation's (7 × 3, 7 × 5, 7 × 2)
        let net = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            Network::new(vec![
                Box::new(Linear::new(3, 5, &mut rng)),
                Box::new(crate::layers::Relu::new()),
                Box::new(Linear::new(5, 2, &mut rng)),
            ])
        };
        let (mut a, mut b) = (net(1), net(2));
        let (mut opt_a, mut opt_b) = (Sgd::new(0.1, 0.9, 5e-4), Sgd::new(0.1, 0.9, 5e-4));
        let x = Tensor::from_vec((0..21).map(|i| i as f32 * 0.1 - 1.0).collect(), [7, 3]);
        let pass = |net: &mut Network| {
            let mode = Mode::train(Precision::Fp32);
            let logits = net.forward(&x, mode);
            let (_, g) = loss::softmax_cross_entropy(&logits, &[0, 1, 1, 0, 1, 0, 0]);
            net.backward_parameters(&g, mode);
            socflow_tensor::pool::recycle_all([logits, g]);
        };
        pass(&mut a);
        let first = grad_ptrs(&a);
        opt_a.step(&mut a);
        for _ in 0..2 {
            pass(&mut b);
            assert_eq!(grad_ptrs(&b), first);
            opt_b.step(&mut b);
            pass(&mut a);
            assert_eq!(grad_ptrs(&a), first);
            opt_a.step(&mut a);
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

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_zero_lr() {
        let _ = Sgd::new(0.0, 0.0, 0.0);
    }
}
