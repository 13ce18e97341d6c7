use serde::{Deserialize, Serialize};
use socflow_tensor::{pool, quant, Tensor};

/// Numeric precision a forward/backward pass executes in.
///
/// `Fp32` models the mobile CPU training path; `Int8` models the mobile NPU
/// path: weights and input activations are fake-quantized (symmetric
/// per-tensor INT8) before each matmul/conv, and parameter gradients receive
/// bounded quantization noise — the numeric behaviour of NiTi-style integer
/// training that causes the accuracy degradation SoCFlow's mixed-precision
/// controller manages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Full 32-bit floating point (mobile CPU).
    Fp32,
    /// 8-bit integer quantization-aware training (mobile NPU).
    Int8,
}

/// Execution mode of one pass: train vs. eval, and the numeric precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// `true` for training passes (batch statistics, gradient caching).
    pub train: bool,
    /// Numeric precision of the pass.
    pub precision: Precision,
}

impl Mode {
    /// A training-mode pass at the given precision.
    pub fn train(precision: Precision) -> Self {
        Mode {
            train: true,
            precision,
        }
    }

    /// An inference-mode pass at the given precision.
    pub fn eval(precision: Precision) -> Self {
        Mode {
            train: false,
            precision,
        }
    }
}

/// A learnable tensor together with the gradient of the step in flight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Parameter {
    /// Current value.
    pub value: Tensor,
    /// This step's gradient, borrowed from the step scratch until the
    /// optimizer hands it back; `None` (read as all `+0.0`) between steps.
    pub grad: Option<Tensor>,
}

impl Parameter {
    /// Wraps an initialized value, with no gradient.
    pub fn new(value: Tensor) -> Self {
        Parameter { value, grad: None }
    }

    /// Adds `g`, a step-scratch tensor of the parameter's shape, to this
    /// step's gradient — plus [`quant::gradient_quant_noise_into`] with
    /// `seed` at INT8, modelling low-precision gradient storage on the NPU.
    /// A step's first `g` becomes the gradient as `+0.0 + g`, the bits
    /// adding it to a zero tensor gives; a later one is added and handed
    /// back. Panics on a shape mismatch.
    pub fn accumulate_grad(&mut self, g: Tensor, precision: Precision, seed: u64) {
        assert_eq!(g.shape(), self.value.shape(), "gradient shape mismatch");
        let mut g = match precision {
            Precision::Fp32 => g,
            Precision::Int8 => {
                let mut noisy = pool::tensor(g.shape().clone());
                quant::gradient_quant_noise_into(&g, seed, &mut noisy);
                pool::recycle(g);
                noisy
            }
        };
        match &mut self.grad {
            Some(grad) => {
                grad.add_inplace(&g);
                pool::recycle(g);
            }
            None => {
                // not a no-op: `−0.0 + 0.0` is `+0.0`
                g.data_mut().iter_mut().for_each(|x| *x += 0.0);
                self.grad = Some(g);
            }
        }
    }

    /// Number of scalar elements in the parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// `true` if the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// The contract every network layer fulfils.
///
/// Layers are stateful: `forward` caches whatever the matching `backward`
/// needs (inputs, masks, intermediate activations), and `backward` both
/// accumulates parameter gradients and returns the gradient w.r.t. its
/// input. A layer must tolerate `forward` in eval mode without a following
/// `backward`, also between a training forward and its backward, and a
/// second training `forward` with no `backward` in between.
///
/// **Whose memory.** Everything a layer makes during a pass — its output,
/// its input gradient, what it caches, its staging, its parameters'
/// gradients — is borrowed from the calling thread's step scratch
/// ([`socflow_tensor::pool`]). The tensors it returns are the caller's, to
/// hand back once consumed ([`Network`] does); what it caches it hands
/// back by the end of `backward`; the gradients go back with the optimizer
/// step. Between steps a layer owns its parameters' values and its running
/// state, nothing else.
///
/// `Send + Sync` is part of the contract: replicas move across the worker
/// pool's jobs, and a `&Network` may be read from several of them. Layers
/// are plain data — no interior mutability — so both bounds hold
/// structurally.
///
/// [`Network`]: crate::Network
pub trait Layer: Send + Sync {
    /// Runs the layer on `input`, caching state when `mode.train`.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Propagates `grad_out` backwards, accumulating parameter gradients
    /// ([`Parameter::accumulate_grad`]), and hands the caches of the training
    /// forward back ([`Layer::release`]). Returns the input gradient when
    /// `want_gx`, and `None` — without computing it — when nobody
    /// will read it: the first parameterised layer of a training step.
    ///
    /// # Panics
    /// May panic if called without a preceding training-mode `forward`.
    fn backward(&mut self, grad_out: &Tensor, mode: Mode, want_gx: bool) -> Option<Tensor>;

    /// Hands whatever the last training `forward` cached back to the step
    /// scratch. `backward` ends with it; a chain calls it on the layers in
    /// front of the first parameterised one when their `backward` is
    /// skipped. The default is a layer that caches nothing there.
    fn release(&mut self) {}

    /// Hands each of this layer's parameters to `visit`, in a fixed order
    /// (nested layers in theirs). The default is a layer without any. The
    /// references live as long as the borrow of the layer, so a visitor
    /// may keep them.
    fn visit_parameters<'a>(&'a self, visit: &mut dyn FnMut(&'a Parameter)) {
        let _ = visit;
    }

    /// [`Layer::visit_parameters`] with mutable access, same order.
    fn visit_parameters_mut<'a>(&'a mut self, visit: &mut dyn FnMut(&'a mut Parameter)) {
        let _ = visit;
    }

    /// This layer's parameters (possibly empty), collected.
    fn parameters(&self) -> Vec<&Parameter> {
        let mut out = Vec::new();
        self.visit_parameters(&mut |p| out.push(p));
        out
    }

    /// This layer's parameters, mutably, collected.
    fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        let mut out = Vec::new();
        self.visit_parameters_mut(&mut |p| out.push(p));
        out
    }

    /// Flattened views of the layer's non-learnable state carried across
    /// steps (batch-norm running statistics and the like) — the part of a
    /// model snapshot that `parameters` misses. Empty by default.
    fn state_buffers(&self) -> Vec<&[f32]> {
        Vec::new()
    }

    /// Mutable views of [`Layer::state_buffers`], same order and shapes.
    fn state_buffers_mut(&mut self) -> Vec<&mut [f32]> {
        Vec::new()
    }

    /// A short human-readable layer descriptor, e.g. `conv2d(3->16, k3)`.
    fn describe(&self) -> String;

    /// Clones the layer into a box — enables `Clone` for layer stacks.
    fn clone_box(&self) -> Box<dyn Layer>;
}

/// Runs `layers` front to back on `input`. Each intermediate activation
/// goes back to the step scratch once the next layer has consumed it; the
/// first layer borrows `input`, which is copied only if there is no layer.
pub(crate) fn forward_chain(layers: &mut [Box<dyn Layer>], input: &Tensor, mode: Mode) -> Tensor {
    let mut cur: Option<Tensor> = None;
    for l in layers {
        let next = l.forward(cur.as_ref().unwrap_or(input), mode);
        if let Some(consumed) = cur.replace(next) {
            pool::recycle(consumed);
        }
    }
    cur.unwrap_or_else(|| pool::copy_of(input))
}

/// Runs `layers` back to front on `grad_out`, calling `done(i)` as layer
/// `i`'s backward completes, and returns the gradient w.r.t. the chain's
/// input if `want_gx`. Each intermediate gradient goes back to the
/// step scratch once the layer in front has consumed it.
///
/// A layer is asked for its input gradient only if somebody reads it: the
/// caller, or a parameterised layer further to the front. So when the
/// caller does not, the first parameterised layer computes none, and the
/// parameterless layers in front of it (a `Flatten` before a `Linear`) are
/// not run at all — they only [`Layer::release`] their caches.
pub(crate) fn backward_chain(
    layers: &mut [Box<dyn Layer>],
    grad_out: &Tensor,
    mode: Mode,
    want_gx: bool,
    mut done: impl FnMut(usize),
) -> Option<Tensor> {
    let has_parameters = |l: &dyn Layer| {
        let mut any = false;
        l.visit_parameters(&mut |_| any = true);
        any
    };
    if want_gx && layers.is_empty() {
        return Some(pool::copy_of(grad_out));
    }
    // the leading layers whose gradients nobody reads: none if the caller does
    let lead = layers.iter().take_while(|l| !has_parameters(l.as_ref()));
    let skipped = if want_gx { 0 } else { lead.count() };
    layers[..skipped].iter_mut().for_each(|l| l.release());
    let mut cur: Option<Tensor> = None;
    for (i, l) in layers.iter_mut().enumerate().skip(skipped).rev() {
        let next = l.backward(
            cur.as_ref().unwrap_or(grad_out),
            mode,
            want_gx || i > skipped,
        );
        if let Some(consumed) = std::mem::replace(&mut cur, next) {
            pool::recycle(consumed);
        }
        done(i);
    }
    cur
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A parameter holds a gradient from its first backward pass to the
    /// optimizer step, and none outside that window.
    #[test]
    fn parameter_tracks_shapes() {
        use crate::layers::Linear;
        use crate::optim::Sgd;
        use crate::{loss, Network};
        use rand::{rngs::StdRng, SeedableRng};

        let p = Parameter::new(Tensor::ones([2, 3]));
        assert_eq!(p.len(), 6);
        assert!(!p.is_empty());
        assert!(p.grad.is_none(), "no gradient at construction");

        let mut net = Network::new(vec![Box::new(Linear::new(
            3,
            2,
            &mut StdRng::seed_from_u64(1),
        ))]);
        net.for_each_parameter(|p| assert!(p.grad.is_none()));
        let mode = Mode::train(Precision::Fp32);
        let logits = net.forward(&Tensor::ones([4, 3]), mode);
        let (_, g) = loss::softmax_cross_entropy(&logits, &[0, 1, 1, 0]);
        net.backward_parameters(&g, mode);
        net.for_each_parameter(|p| {
            assert_eq!(p.grad.as_ref().map(Tensor::shape), Some(p.value.shape()));
        });
        Sgd::new(0.1, 0.9, 5e-4).step(&mut net);
        net.for_each_parameter(|p| assert!(p.grad.is_none(), "none after the step"));
    }

    #[test]
    fn mode_constructors() {
        assert!(Mode::train(Precision::Fp32).train);
        assert!(!Mode::eval(Precision::Int8).train);
        assert_eq!(Mode::eval(Precision::Int8).precision, Precision::Int8);
    }
}
