use crate::layer::{backward_chain, forward_chain, Layer, Mode, Parameter};
use socflow_tensor::{pool, Tensor};

/// One layer's slice of the flat gradient vector: the gradients of layer
/// `layer` occupy `flat_grads()[offset..offset + len]`.
///
/// This is the first-class layout table behind [`Network::flat_grads`] /
/// [`Network::set_flat_grads`]: both walk the parameters in layer order, so
/// the spans returned by [`Network::grad_layout`] are exactly the offsets
/// those flat views use. [`Network::backward_with_ready`] streams the same
/// spans in *reverse* layer order as each layer's backward completes —
/// gradient readiness for wait-free communication overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GradReady {
    /// Top-level layer index (position in the network's layer stack).
    pub layer: usize,
    /// Start of the layer's gradients in the flat vector.
    pub offset: usize,
    /// Number of gradient scalars the layer contributes (0 for layers
    /// without parameters).
    pub len: usize,
}

/// A coalesced run of layers whose gradients are transferred together —
/// the unit of wait-free communication. Buckets are built in
/// *reverse-topological* order (output layers first: their gradients are
/// produced first during backprop), so each bucket covers a contiguous
/// flat-gradient range and the bucket list partitions the flat vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GradBucket {
    /// First (lowest-index) top-level layer in the bucket.
    pub first_layer: usize,
    /// Last (highest-index) top-level layer in the bucket.
    pub last_layer: usize,
    /// Start of the bucket's span in the flat gradient vector.
    pub offset: usize,
    /// Gradient scalars in the bucket.
    pub len: usize,
}

/// Coalesces a gradient layout into transfer buckets of at least
/// `min_params` scalars each, walking the layers in reverse-topological
/// order (output first — the order backprop produces gradients). Small
/// layers merge into the running bucket; the leftover head of the network
/// (input-most layers) merges into the final bucket rather than forming an
/// undersized straggler, so no bucket but the whole-network case is ever
/// smaller than `min_params`. Parameterless layers ride along with their
/// neighbours. Returns one whole-network bucket when `min_params` exceeds
/// the parameter count (or the layout is empty of parameters).
pub fn bucketize(layout: &[GradReady], min_params: usize) -> Vec<GradBucket> {
    let total: usize = layout.iter().map(|g| g.len).sum();
    if layout.is_empty() || total == 0 {
        return vec![GradBucket {
            first_layer: 0,
            last_layer: layout.len().saturating_sub(1),
            offset: 0,
            len: total,
        }];
    }
    let mut buckets = Vec::new();
    let mut acc = 0usize;
    let mut last_layer = layout.len() - 1;
    for (i, g) in layout.iter().enumerate().rev() {
        acc += g.len;
        // flush once full — unless the remaining (lower) layers are too
        // small to stand alone, in which case they join this bucket
        let remaining: usize = layout[..i].iter().map(|l| l.len).sum();
        if acc >= min_params && remaining >= min_params {
            buckets.push(GradBucket {
                first_layer: i,
                last_layer,
                offset: g.offset,
                len: acc,
            });
            acc = 0;
            last_layer = i.saturating_sub(1);
        }
    }
    if acc > 0 || buckets.is_empty() {
        buckets.push(GradBucket {
            first_layer: 0,
            last_layer,
            offset: 0,
            len: acc,
        });
    }
    buckets
}

/// Copies `flat` over the slices `walk` hands to its callback, front to
/// back — the one scatter behind every `set_flat_*`.
///
/// # Panics
/// Panics if the slices do not add up to `flat.len()` scalars.
fn scatter(flat: &[f32], what: &str, walk: impl FnOnce(&mut dyn FnMut(&mut [f32]))) {
    let mut rest = flat;
    walk(&mut |dst| {
        assert!(
            dst.len() <= rest.len(),
            "flat {what} length mismatch: {} scalars are too few",
            flat.len()
        );
        let (head, tail) = rest.split_at(dst.len());
        dst.copy_from_slice(head);
        rest = tail;
    });
    assert!(
        rest.is_empty(),
        "flat {what} length mismatch: {} of {} scalars left over",
        rest.len(),
        flat.len()
    );
}

/// A sequential stack of layers — the model replica each SoC worker owns.
///
/// Besides forward/backward, `Network` exposes the *flat views* distributed
/// training needs: the concatenation of all parameter values (for weight
/// aggregation) or gradients (for gradient all-reduce), and their inverse
/// setters.
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Builds a network from a layer stack.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Network { layers }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Runs the full forward pass. The result is the caller's: a step hands
    /// it back to the step scratch ([`socflow_tensor::pool`]) once the loss
    /// has read it. An evaluation forward borrows nothing from the scratch
    /// and leaves nothing there ([`pool::transient`]): its shapes come by
    /// once an epoch and must not crowd out the training step's.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        match mode.train {
            true => forward_chain(&mut self.layers, input, mode),
            false => pool::transient(|| forward_chain(&mut self.layers, input, mode)),
        }
    }

    /// Runs the full backward pass, accumulating parameter gradients, and
    /// returns the gradient w.r.t. the network's input.
    /// Equivalent to [`Network::backward_with_ready`] with a no-op
    /// callback, without paying for the layout table on the hot path.
    pub fn backward(&mut self, grad_out: &Tensor, mode: Mode) -> Tensor {
        backward_chain(&mut self.layers, grad_out, mode, true, |_| ())
            .expect("the input gradient was asked for")
    }

    /// [`Network::backward`] for a caller that reads the parameter
    /// gradients only — a training step. The first parameterised layer is
    /// not asked for its input gradient (a convolution's patch-gradient
    /// GEMM and `col2im`), and parameterless layers in front of it are not
    /// run at all; every parameter gradient and state buffer ends up
    /// bit-identical to [`Network::backward`]'s.
    pub fn backward_parameters(&mut self, grad_out: &Tensor, mode: Mode) {
        let none = backward_chain(&mut self.layers, grad_out, mode, false, |_| ());
        debug_assert!(none.is_none());
    }

    /// [`Network::backward`] with a gradient-readiness stream: after each
    /// parameterized layer's backward completes, `on_ready` receives that
    /// layer's [`GradReady`] span. Spans arrive in reverse layer order
    /// (output layers first — the order backprop produces gradients) and
    /// agree exactly with the [`Network::grad_layout`] table, hence with
    /// the offsets [`Network::flat_grads`] / [`Network::set_flat_grads`]
    /// use. Layers without parameters produce no callback.
    pub fn backward_with_ready<F: FnMut(GradReady)>(
        &mut self,
        grad_out: &Tensor,
        mode: Mode,
        mut on_ready: F,
    ) -> Tensor {
        let layout = self.grad_layout();
        backward_chain(&mut self.layers, grad_out, mode, true, |i| {
            if layout[i].len > 0 {
                on_ready(layout[i]);
            }
        })
        .expect("the input gradient was asked for")
    }

    /// The flat-gradient layout table: one [`GradReady`] span per layer, in
    /// layer order, with offsets matching the concatenation order of
    /// [`Network::flat_grads`] (and every other flat view — they all walk
    /// [`Network::parameters`], which is layer-ordered). Layers without
    /// parameters appear with `len == 0` so indices stay aligned with the
    /// layer stack.
    pub fn grad_layout(&self) -> Vec<GradReady> {
        let mut offset = 0;
        self.layers
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let len: usize = l.parameters().iter().map(|p| p.len()).sum();
                let g = GradReady {
                    layer: i,
                    offset,
                    len,
                };
                offset += len;
                g
            })
            .collect()
    }

    /// Hands every parameter to `visit`, in layer order, without building
    /// a list of them — the walk every parameter-wide operation (optimizer
    /// step, flat views, aggregation) is made of.
    pub fn for_each_parameter<'a>(&'a self, mut visit: impl FnMut(&'a Parameter)) {
        for l in &self.layers {
            l.visit_parameters(&mut visit);
        }
    }

    /// [`Network::for_each_parameter`] with mutable access.
    pub fn for_each_parameter_mut<'a>(&'a mut self, mut visit: impl FnMut(&'a mut Parameter)) {
        for l in &mut self.layers {
            l.visit_parameters_mut(&mut visit);
        }
    }

    /// Walks this network's parameters and those of `other`, a network of
    /// the same architecture, in step: `visit(mine, theirs)` for every
    /// parameter, in layer order, without building a list of either.
    ///
    /// # Panics
    /// Panics if the two networks do not have the same number of layers
    /// with the same number of parameters each.
    pub fn zip_parameters_mut(
        &mut self,
        other: &Network,
        mut visit: impl FnMut(&mut Parameter, &Parameter),
    ) {
        const MISMATCH: &str = "zip_parameters_mut: the networks differ in architecture";
        assert_eq!(self.layers.len(), other.layers.len(), "{MISMATCH}");
        for (mine, theirs) in self.layers.iter_mut().zip(&other.layers) {
            // a layer holds a handful of parameters: for each of mine, walk
            // theirs and stop at the one in the same position
            let (mut seen, mut theirs_count) = (0, 0);
            theirs.visit_parameters(&mut |_| theirs_count += 1);
            mine.visit_parameters_mut(&mut |p| {
                let mut at = 0;
                theirs.visit_parameters(&mut |q| {
                    if at == seen {
                        visit(p, q);
                    }
                    at += 1;
                });
                seen += 1;
            });
            assert_eq!(seen, theirs_count, "{MISMATCH}");
        }
    }

    /// All parameters, in layer order.
    pub fn parameters(&self) -> Vec<&Parameter> {
        let mut out = Vec::new();
        self.for_each_parameter(|p| out.push(p));
        out
    }

    /// All parameters, mutably, in layer order.
    pub fn parameters_mut(&mut self) -> Vec<&mut Parameter> {
        let mut out = Vec::new();
        self.for_each_parameter_mut(|p| out.push(p));
        out
    }

    /// Total number of learnable scalars.
    pub fn param_count(&self) -> usize {
        let mut count = 0;
        self.for_each_parameter(|p| count += p.len());
        count
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.for_each_parameter_mut(|p| p.grad.fill_zero());
    }

    /// Concatenates all parameter values into one flat vector.
    pub fn flat_weights(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.flat_weights_into(&mut out);
        out
    }

    /// [`Network::flat_weights`] writing into `out`, reusing its storage.
    pub fn flat_weights_into(&self, out: &mut Vec<f32>) {
        out.clear();
        self.for_each_parameter(|p| out.extend_from_slice(p.value.data()));
    }

    /// Concatenates all gradients into one flat vector.
    pub fn flat_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.for_each_parameter(|p| out.extend_from_slice(p.grad.data()));
        out
    }

    /// Overwrites all parameter values from a flat vector.
    ///
    /// # Panics
    /// Panics if `flat.len() != param_count()`.
    pub fn set_flat_weights(&mut self, flat: &[f32]) {
        scatter(flat, "weight", |put| {
            self.for_each_parameter_mut(|p| put(p.value.data_mut()))
        });
    }

    /// Overwrites all gradients from a flat vector.
    ///
    /// # Panics
    /// Panics if `flat.len() != param_count()`.
    pub fn set_flat_grads(&mut self, flat: &[f32]) {
        scatter(flat, "grad", |put| {
            self.for_each_parameter_mut(|p| put(p.grad.data_mut()))
        });
    }

    /// Total number of non-learnable state scalars (batch-norm running
    /// statistics etc.).
    pub fn state_count(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| l.state_buffers())
            .map(|s| s.len())
            .sum()
    }

    /// Concatenates all non-learnable layer state into one flat vector —
    /// the complement of [`Network::flat_weights`] a bit-exact snapshot
    /// needs (batch-norm running statistics feed eval-mode forwards).
    pub fn flat_state(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.flat_state_into(&mut out);
        out
    }

    /// [`Network::flat_state`] writing into `out`, reusing its storage.
    pub fn flat_state_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.state_count());
        for s in self.layers.iter().flat_map(|l| l.state_buffers()) {
            out.extend_from_slice(s);
        }
    }

    /// Overwrites all non-learnable layer state from a flat vector.
    ///
    /// # Panics
    /// Panics if `flat.len() != state_count()`.
    pub fn set_flat_state(&mut self, flat: &[f32]) {
        scatter(flat, "state", |put| {
            self.layers
                .iter_mut()
                .flat_map(|l| l.state_buffers_mut())
                .for_each(put)
        });
    }

    /// Serializes the flat weights to JSON bytes (checkpoint payload).
    ///
    /// # Errors
    /// Returns an error if serialization fails (practically impossible).
    pub fn save_weights(&self) -> Result<Vec<u8>, serde_json::Error> {
        serde_json::to_vec(&self.flat_weights())
    }

    /// Restores weights from [`Network::save_weights`] bytes.
    ///
    /// # Errors
    /// Returns an error when the bytes are not valid JSON.
    ///
    /// # Panics
    /// Panics if the decoded weight count mismatches this network.
    pub fn load_weights(&mut self, bytes: &[u8]) -> Result<(), serde_json::Error> {
        let flat: Vec<f32> = serde_json::from_slice(bytes)?;
        self.set_flat_weights(&flat);
        Ok(())
    }

    /// One-line architecture summary.
    pub fn describe(&self) -> String {
        self.layers
            .iter()
            .map(|l| l.describe())
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

impl Clone for Network {
    fn clone(&self) -> Self {
        Network {
            layers: self.layers.clone(),
        }
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Network[{}]", self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Precision;
    use crate::layers::{Linear, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(vec![
            Box::new(Linear::new(4, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(8, 3, &mut rng)),
        ])
    }

    #[test]
    fn forward_shape() {
        let mut n = tiny_net(0);
        let y = n.forward(&Tensor::ones([5, 4]), Mode::eval(Precision::Fp32));
        assert_eq!(y.shape().dims(), &[5, 3]);
    }

    #[test]
    fn flat_roundtrip() {
        let mut n = tiny_net(1);
        let w = n.flat_weights();
        assert_eq!(w.len(), n.param_count());
        assert_eq!(n.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
        let doubled: Vec<f32> = w.iter().map(|v| v * 2.0).collect();
        n.set_flat_weights(&doubled);
        assert_eq!(n.flat_weights(), doubled);
    }

    /// A net whose second layer nests parameters three deep in one
    /// top-level slot: conv + bn in the body, conv + bn in the shortcut.
    fn nested_net(seed: u64) -> Network {
        use crate::layers::{BatchNorm2d, Conv2d, Residual};
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(vec![
            Box::new(Conv2d::new(1, 2, 3, 1, 1, &mut rng)),
            Box::new(Residual::projected(
                vec![
                    Box::new(Conv2d::new(2, 3, 3, 1, 1, &mut rng)),
                    Box::new(BatchNorm2d::new(3)),
                ],
                vec![
                    Box::new(Conv2d::new(2, 3, 1, 1, 0, &mut rng)),
                    Box::new(BatchNorm2d::new(3)),
                ],
            )),
            Box::new(Relu::new()),
        ])
    }

    #[test]
    fn the_walks_visit_every_parameter_once_in_layer_order() {
        let mut n = nested_net(1);
        let listed: Vec<*const Parameter> = n.parameters().into_iter().map(|p| p as _).collect();
        assert_eq!(listed.len(), 1 + 3 + 3);
        let mut walked = Vec::new();
        n.for_each_parameter(|p| walked.push(p as *const Parameter));
        assert_eq!(walked, listed);
        let mut walked_mut = Vec::new();
        n.for_each_parameter_mut(|p| walked_mut.push(p as *const Parameter));
        assert_eq!(walked_mut, listed);
        let mut count = 0;
        n.for_each_parameter(|p| count += p.len());
        assert_eq!(count, n.param_count());
    }

    #[test]
    fn zipped_walk_pairs_parameters_by_position() {
        let (mut a, b) = (nested_net(1), nested_net(2));
        let theirs: Vec<*const Parameter> = b.parameters().into_iter().map(|p| p as _).collect();
        let mine: Vec<*const Parameter> = a.parameters().into_iter().map(|p| p as _).collect();
        let mut pairs = Vec::new();
        a.zip_parameters_mut(&b, |p, q| {
            assert_eq!(p.value.shape(), q.value.shape());
            pairs.push((p as *const Parameter, q as *const Parameter));
        });
        let want: Vec<_> = mine.into_iter().zip(theirs).collect();
        assert_eq!(pairs, want);

        // the per-parameter copy is the flat copy
        a.zip_parameters_mut(&b, |p, q| {
            p.value.data_mut().copy_from_slice(q.value.data())
        });
        assert_eq!(a.flat_weights(), b.flat_weights());
    }

    #[test]
    #[should_panic(expected = "differ in architecture")]
    fn zipped_walk_refuses_another_architecture() {
        let mut a = nested_net(1);
        let b = Network::new(vec![
            Box::new(Relu::new()),
            Box::new(Relu::new()),
            Box::new(Relu::new()),
        ]);
        a.zip_parameters_mut(&b, |_, _| {});
    }

    #[test]
    fn flat_setters_refuse_both_too_few_and_too_many_scalars() {
        for len in [0, 66, 68] {
            let flat = vec![0.0; len];
            let caught = std::panic::catch_unwind(|| tiny_net(4).set_flat_grads(&flat));
            let msg = *caught.unwrap_err().downcast::<String>().unwrap();
            assert!(msg.contains("flat grad length mismatch"), "{len}: {msg}");
        }
        tiny_net(4).set_flat_grads(&[0.0; 67]);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = tiny_net(2);
        let mut b = a.clone();
        let x = Tensor::ones([1, 4]);
        let mode = Mode::train(Precision::Fp32);
        let y = a.forward(&x, mode);
        a.backward(&Tensor::ones(y.shape().clone()), mode);
        assert!(a.flat_grads().iter().any(|g| *g != 0.0));
        assert!(b.flat_grads().iter().all(|g| *g == 0.0));
        // weights identical until someone steps
        assert_eq!(a.flat_weights(), b.flat_weights());
        let _ = b.forward(&x, mode);
    }

    #[test]
    fn zero_grad_clears() {
        let mut n = tiny_net(3);
        let x = Tensor::ones([2, 4]);
        let mode = Mode::train(Precision::Fp32);
        let y = n.forward(&x, mode);
        n.backward(&Tensor::ones(y.shape().clone()), mode);
        n.zero_grad();
        assert!(n.flat_grads().iter().all(|g| *g == 0.0));
    }

    #[test]
    fn save_load_weights_roundtrip() {
        let a = tiny_net(9);
        let bytes = a.save_weights().unwrap();
        let mut b = tiny_net(10);
        assert_ne!(a.flat_weights(), b.flat_weights());
        b.load_weights(&bytes).unwrap();
        assert_eq!(a.flat_weights(), b.flat_weights());
        assert!(b.load_weights(b"not json").is_err());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_flat_weights_checks_length() {
        let mut n = tiny_net(4);
        n.set_flat_weights(&[0.0; 3]);
    }

    #[test]
    fn grad_layout_matches_flat_grads_offsets() {
        let mut n = tiny_net(5);
        let layout = n.grad_layout();
        assert_eq!(layout.len(), n.num_layers());
        // Linear(4→8): 32+8, Relu: 0, Linear(8→3): 24+3
        assert_eq!(
            layout,
            vec![
                GradReady {
                    layer: 0,
                    offset: 0,
                    len: 40
                },
                GradReady {
                    layer: 1,
                    offset: 40,
                    len: 0
                },
                GradReady {
                    layer: 2,
                    offset: 40,
                    len: 27
                },
            ]
        );
        assert_eq!(layout.iter().map(|g| g.len).sum::<usize>(), n.param_count());

        // writing one layer's span through set_flat_grads changes exactly
        // that span of flat_grads
        let mut flat = vec![0.0f32; n.param_count()];
        let g = layout[2];
        for v in &mut flat[g.offset..g.offset + g.len] {
            *v = 7.0;
        }
        n.set_flat_grads(&flat);
        let out = n.flat_grads();
        assert!(out[..g.offset].iter().all(|v| *v == 0.0));
        assert!(out[g.offset..].iter().all(|v| *v == 7.0));
    }

    #[test]
    fn backward_streams_ready_spans_in_reverse_layer_order() {
        let mut n = tiny_net(6);
        let mode = Mode::train(Precision::Fp32);
        let y = n.forward(&Tensor::ones([2, 4]), mode);
        let mut seen = Vec::new();
        let g1 = n.backward_with_ready(&Tensor::ones(y.shape().clone()), mode, |r| seen.push(r));
        let layout = n.grad_layout();
        // parameterized layers only, output-most first
        assert_eq!(seen, vec![layout[2], layout[0]]);

        // identical input gradient and parameter gradients as plain backward
        let mut m = tiny_net(6);
        let y2 = m.forward(&Tensor::ones([2, 4]), mode);
        let g2 = m.backward(&Tensor::ones(y2.shape().clone()), mode);
        assert_eq!(g1.data(), g2.data());
        assert_eq!(n.flat_grads(), m.flat_grads());
    }

    #[test]
    fn bucketize_partitions_the_flat_range_in_reverse_order() {
        let n = tiny_net(7);
        let layout = n.grad_layout();
        let buckets = bucketize(&layout, 10);
        // output Linear (27) flushes first; Relu + input Linear (40) follow
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].offset, 40);
        assert_eq!(buckets[0].len, 27);
        assert_eq!((buckets[0].first_layer, buckets[0].last_layer), (2, 2));
        assert_eq!(buckets[1].offset, 0);
        assert_eq!(buckets[1].len, 40);
        assert_eq!((buckets[1].first_layer, buckets[1].last_layer), (0, 1));
        // exact partition: no gap, no double-count at the bucket edge
        assert_eq!(buckets.iter().map(|b| b.len).sum::<usize>(), 67);

        // oversized bucket → one whole-network bucket
        let one = bucketize(&layout, 1_000_000);
        assert_eq!(one.len(), 1);
        assert_eq!((one[0].offset, one[0].len), (0, 67));

        // no undersized stragglers: every bucket meets the floor
        let fine = bucketize(&layout, 25);
        assert_eq!(fine.len(), 2);
        assert!(fine.iter().all(|b| b.len >= 25));
        // when the head is too small to stand alone it merges instead
        let merged = bucketize(&layout, 30);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].len, 67);
    }

    #[test]
    fn flat_state_captures_batchnorm_running_stats() {
        use crate::layers::BatchNorm2d;
        let mut rng = StdRng::seed_from_u64(11);
        let mut a = Network::new(vec![Box::new(BatchNorm2d::new(2))]);
        assert_eq!(a.state_count(), 4); // running mean + var, 2 channels
        let x = socflow_tensor::init::normal([4, 2, 3, 3], 2.0, &mut rng);
        a.forward(&x, Mode::train(Precision::Fp32)); // moves running stats
        let snap = a.flat_state();

        // a fresh net evals differently until the state is restored
        let mut b = Network::new(vec![Box::new(BatchNorm2d::new(2))]);
        let probe = socflow_tensor::init::normal([1, 2, 3, 3], 1.0, &mut rng);
        let ya = a.forward(&probe, Mode::eval(Precision::Fp32));
        let yb = b.forward(&probe, Mode::eval(Precision::Fp32));
        assert_ne!(ya.data(), yb.data());
        b.set_flat_state(&snap);
        let yb = b.forward(&probe, Mode::eval(Precision::Fp32));
        assert_eq!(ya.data(), yb.data());
    }

    #[test]
    #[should_panic(expected = "flat state length mismatch")]
    fn set_flat_state_checks_length() {
        use crate::layers::BatchNorm2d;
        let mut n = Network::new(vec![Box::new(BatchNorm2d::new(2))]);
        n.set_flat_state(&[0.0; 3]);
    }
}
