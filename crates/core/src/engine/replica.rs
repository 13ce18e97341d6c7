//! One independent SGD stream and the delayed aggregation across streams.
//!
//! This is the per-batch hot loop ([`Replica::step`],
//! [`Replica::mixed_step`]) and the per-epoch merge
//! ([`average_replicas`]); everything else in the engine is bookkeeping
//! around them.

use crate::mixed::MixedPrecisionController;
use socflow_data::Batch;
use socflow_nn::{loss, optim::Sgd, Mode, Network, Precision};
use socflow_tensor::{pool, Tensor};

/// The NPU-side half of a mixed-precision replica: its momentum and its
/// non-learnable state (batch-norm running statistics, quant-noise
/// counters). It has no weights: both arms start every step from the
/// replica's merged ones, and it trains on those.
pub(super) struct Int8Arm {
    /// In [`Network::flat_state`] order; in the replica's network only for
    /// the INT8 pass ([`Network::swap_state`]).
    pub(super) state: Vec<f32>,
    pub(super) opt: Sgd,
}

/// One independent SGD stream (a group replica): the engine's training
/// step. Public so that the step can be driven, and measured, without an
/// [`Engine`](super::Engine) around it — `tests/steady_state_alloc.rs`
/// counts its allocations. Between steps it holds its weights and its
/// momentum — and, to run mixed steps, the INT8 arm's momentum and state:
/// two model-sized families, or three.
pub struct Replica {
    pub(super) net: Network,
    pub(super) opt: Sgd,
    /// The INT8 arm, built only for methods that run mixed steps.
    pub(super) int8: Option<Box<Int8Arm>>,
}

/// An optimizer for `net` with its momentum already allocated (all zero,
/// as a lazily allocated one starts): a replica whose shard is empty never
/// steps, and must still bring a row to momentum averaging.
fn optimizer_for(net: &Network, lr: f32) -> Sgd {
    let mut opt = Sgd::new(lr, super::MOMENTUM, 5e-4);
    opt.ensure_velocity(net);
    opt
}

/// The forward and backward pass of one SGD step of `net` on `images` and
/// their `labels`: leaves the parameter gradients in `net` for the
/// optimizer and returns the loss.
///
/// One job on one thread from the first layer's forward to the optimizer:
/// everything the step makes on the way is borrowed from that thread's step
/// scratch ([`socflow_tensor::pool`]) and back there when the optimizer has
/// run — the logits and the loss gradient from here, the rest by the layers
/// and the optimizer — so
/// after its thread's first step of a shape a step allocates nothing. The
/// backward pass stops at the first parameterised layer: nobody reads the
/// gradient with respect to the images.
fn backprop(net: &mut Network, images: &Tensor, labels: &[usize], precision: Precision) -> f32 {
    let mode = Mode::train(precision);
    let logits = net.forward(images, mode);
    let (l, grad) = loss::softmax_cross_entropy(&logits, labels);
    pool::recycle(logits);
    net.backward_parameters(&grad, mode);
    pool::recycle(grad);
    l
}

/// [`backprop`] on samples `range` of `batch`, which must not be empty:
/// their images are copied into a step-scratch tensor, as a split batch's
/// always were into one of their own.
fn backprop_on(
    net: &mut Network,
    batch: &Batch,
    range: std::ops::Range<usize>,
    precision: Precision,
) {
    let (_, c, h, w) = batch.images.shape().as_nchw();
    let per = c * h * w;
    let mut images = pool::tensor([range.len(), c, h, w]);
    let samples = &batch.images.data()[range.start * per..range.end * per];
    images.data_mut().copy_from_slice(samples);
    backprop(net, &images, &batch.labels[range], precision);
    pool::recycle(images);
}

impl Replica {
    /// A stream training `net` by SGD with momentum 0.9 (weight decay
    /// 5e-4); `with_int8` adds the INT8 arm [`Replica::mixed_step`] needs,
    /// its state starting as `net`'s.
    pub fn new(net: Network, lr: f32, with_int8: bool) -> Self {
        let int8 = with_int8.then(|| {
            Box::new(Int8Arm {
                state: net.flat_state(),
                opt: optimizer_for(&net, lr),
            })
        });
        Replica {
            opt: optimizer_for(&net, lr),
            net,
            int8,
        }
    }

    /// Applies the per-epoch learning-rate decay to both optimizers,
    /// bounded below by `floor`.
    pub(super) fn decay_lr_floored(&mut self, factor: f32, floor: f32) {
        self.opt.set_lr((self.opt.lr() * factor).max(floor));
        if let Some(arm) = &mut self.int8 {
            arm.opt.set_lr((arm.opt.lr() * factor).max(floor));
        }
    }

    /// One plain SGD step at a fixed precision; returns the loss.
    pub fn step(&mut self, batch: &Batch, precision: Precision) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        let l = backprop(&mut self.net, &batch.images, &batch.labels, precision);
        self.opt.step(&mut self.net);
        l
    }

    /// Plain SGD steps over `batches`, in order. The batches are
    /// materialized before the first step, as every training loop here
    /// always did: batch assembly never interleaves with the kernels.
    pub(super) fn step_all(&mut self, batches: impl Iterator<Item = Batch>, precision: Precision) {
        for b in &batches.collect::<Vec<_>>() {
            self.step(b, precision);
        }
    }

    /// One mixed-precision step: CPU-FP32 and NPU-INT8 arms train on
    /// disjoint batch parts from the same starting weights, then merge
    /// (paper Eq. 5). Both passes run on the replica's one network: the
    /// FP32 arm's forward and backward and its velocity update
    /// ([`Sgd::step_velocity`], weights untouched); the INT8 arm's forward
    /// and backward with its own state swapped in — skipped when the split
    /// gives it no samples, which leaves it stepless; then one sweep over
    /// the model steps the INT8 arm and both arms' weights and merges them
    /// ([`Sgd::step_merged`]).
    ///
    /// # Panics
    /// Panics if the replica was built without the INT8 arm.
    pub fn mixed_step(&mut self, batch: &Batch, ctrl: &MixedPrecisionController) {
        if batch.is_empty() {
            return;
        }
        let arm = self
            .int8
            .as_mut()
            .expect("mixed_step on a replica built without the INT8 arm");
        let (cpu_n, npu_n) = ctrl.split_batch(batch.len());
        // `split_batch` keeps the CPU side of a non-empty batch non-empty
        backprop_on(&mut self.net, batch, 0..cpu_n, Precision::Fp32);
        self.opt.step_velocity(&mut self.net);
        let int8 = (npu_n > 0).then(|| {
            self.net.swap_state(&mut arm.state);
            backprop_on(&mut self.net, batch, cpu_n..batch.len(), Precision::Int8);
            self.net.swap_state(&mut arm.state);
            &mut arm.opt
        });
        self.opt
            .step_merged(&mut self.net, int8, ctrl.fp32_merge_weight());
    }
}

/// Averages tensor `t` of every replica with tensor `t` of all the others,
/// in place, for each `t`: `tensors_of` lists one replica's tensors.
///
/// # Panics
/// Panics if the replicas do not list equally many tensors of equal
/// lengths.
fn average_tensors<'r>(
    replicas: &'r mut [Replica],
    tensors_of: impl Fn(&'r mut Replica) -> Vec<&'r mut [f32]>,
) {
    let mut lists: Vec<_> = replicas
        .iter_mut()
        .map(|r| tensors_of(r).into_iter())
        .collect();
    loop {
        let mut rows: Vec<&mut [f32]> = lists.iter_mut().filter_map(|l| l.next()).collect();
        if rows.is_empty() {
            return;
        }
        assert_eq!(rows.len(), lists.len(), "replicas differ in structure");
        socflow_tensor::sweep::replica_mean(&mut rows);
    }
}

/// Average all replicas' weights in place (delayed aggregation /
/// FedAvg-style merge), tensor by tensor where they live.
///
/// Also averages the replicas' momentum buffers, of both arms: after the
/// merge each stream's velocity describes its *own* pre-merge trajectory,
/// and carrying those divergent buffers across the aggregation boundary
/// drags every stream back toward where it came from. Averaging keeps
/// the coherent component of the momentum (the shared descent
/// direction) and cancels the divergent parts, exactly like the
/// weights themselves.
pub(super) fn average_replicas(replicas: &mut [Replica]) {
    average_tensors(replicas, |r| {
        let weights = r.net.parameters_mut().into_iter();
        weights.map(|p| p.value.data_mut()).collect()
    });
    average_tensors(replicas, |r| r.opt.velocity_slices_mut().collect());
    if replicas[0].int8.is_some() {
        average_tensors(replicas, |r| {
            let arm = r.int8.as_mut().expect("uniform INT8 arms across replicas");
            arm.opt.velocity_slices_mut().collect()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::durable::capture;
    use super::super::tests::{easy_workload, tiny_spec};
    use super::super::Engine;
    use super::*;
    use crate::checkpoint::Checkpoint;
    use crate::config::{MethodSpec, SocFlowConfig};
    use crate::options::RunOptions;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use socflow_nn::models::{ModelConfig, ModelKind};

    /// `average_replicas` as it was before the in-place sweeps, verbatim
    /// but for the dropped return value: every family materialised as flat
    /// rows, `mean_of` over them, the means broadcast back.
    fn average_replicas_reference(replicas: &mut [Replica]) {
        let has_int8 = replicas[0].int8.is_some();
        let weights: Vec<Vec<f32>> = replicas
            .iter()
            .map(|r| {
                let mut v = Vec::new();
                r.net.flat_weights_into(&mut v);
                v
            })
            .collect();
        let vels: Vec<Vec<f32>> = replicas
            .iter()
            .map(|r| {
                let mut v = Vec::new();
                r.opt.flat_velocity_into(&mut v);
                v
            })
            .collect();
        let vels8: Option<Vec<Vec<f32>>> = has_int8.then(|| {
            replicas
                .iter()
                .map(|r| {
                    let arm = r.int8.as_ref().expect("uniform INT8 arms across replicas");
                    let mut v = Vec::new();
                    arm.opt.flat_velocity_into(&mut v);
                    v
                })
                .collect()
        });

        let mean = mean_of(&weights);
        let mean_vel = mean_of(&vels);
        let mean_vel8 = vels8.as_deref().map(mean_of);

        for r in replicas.iter_mut() {
            r.net.set_flat_weights(&mean);
            r.opt.set_flat_velocity(&mean_vel);
            if let Some(arm) = &mut r.int8 {
                arm.opt
                    .set_flat_velocity(mean_vel8.as_ref().expect("INT8 mean"));
            }
        }
    }

    /// The materialised mean `average_replicas` was built on: each element
    /// summed over the rows in order, then scaled.
    fn mean_of(rows: &[Vec<f32>]) -> Vec<f32> {
        let inv_n = 1.0 / rows.len() as f32;
        let mut out = vec![0.0f32; rows[0].len()];
        for row in rows {
            for (m, &v) in out.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in out.iter_mut() {
            *m *= inv_n;
        }
        out
    }

    /// `count` replicas of a small batch-norm ResNet; replica `i` has taken
    /// `steps[i]` steps (mixed ones when `with_int8`), each on its own
    /// batches, so weights, both momentum families and the batch-norm
    /// state all differ between them.
    fn trained(steps: &[usize], with_int8: bool) -> Vec<Replica> {
        let mut spec = tiny_spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(2)));
        spec.model = ModelKind::ResNet18;
        let mut workload = easy_workload(&spec, 128);
        workload.model_cfg = ModelConfig::new(1, 8, 10, 0.1);
        let engine = Engine::new(spec, workload, RunOptions::default());
        let mut rng = StdRng::seed_from_u64(3);
        let mut replicas = engine.build_replicas(steps.len(), &mut rng, with_int8);
        let batches: Vec<Batch> = engine.workload.train.epoch_batches(16, &mut rng).collect();
        let mut ctrl = MixedPrecisionController::new(0.4);
        ctrl.set_alpha(0.61);
        for (i, (r, &n)) in replicas.iter_mut().zip(steps).enumerate() {
            for b in batches.iter().skip(i).take(n) {
                if with_int8 {
                    r.mixed_step(b, &ctrl);
                } else {
                    r.step(b, Precision::Fp32);
                }
            }
        }
        replicas
    }

    /// Weights, FP32 momentum and INT8 momentum (empty without the arm) of
    /// every replica, as bits.
    fn families(replicas: &[Replica]) -> Vec<[Vec<u32>; 3]> {
        let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        replicas
            .iter()
            .map(|r| {
                let vel8 = r.int8.as_ref().map(|arm| arm.opt.flat_velocity());
                [
                    bits(r.net.flat_weights()),
                    bits(r.opt.flat_velocity()),
                    bits(vel8.unwrap_or_default()),
                ]
            })
            .collect()
    }

    /// A mixed replica as it was, the oracle of [`Replica::mixed_step`]:
    /// the INT8 arm a network of its own, and a step four passes over the
    /// model — the arm takes the merged weights, either arm takes an
    /// [`Sgd::step`], the FP32 weights lerp towards the INT8 ones.
    struct FourPass {
        net: Network,
        opt: Sgd,
        net8: Network,
        opt8: Sgd,
    }

    /// One whole SGD step of `net` on samples `range` of `batch`, if there
    /// are any.
    fn sgd_step_on(
        net: &mut Network,
        opt: &mut Sgd,
        batch: &Batch,
        range: std::ops::Range<usize>,
        precision: Precision,
    ) {
        if !range.is_empty() {
            backprop_on(net, batch, range, precision);
            opt.step(net);
        }
    }

    impl FourPass {
        /// The oracle of a freshly built mixed replica.
        fn of(r: &Replica) -> Self {
            let arm = r.int8.as_ref().expect("a mixed replica");
            let mut net8 = r.net.clone();
            net8.set_flat_state(&arm.state);
            FourPass {
                net: r.net.clone(),
                opt: r.opt.clone(),
                net8,
                opt8: arm.opt.clone(),
            }
        }

        fn mixed_step(&mut self, batch: &Batch, ctrl: &MixedPrecisionController) {
            if batch.is_empty() {
                return;
            }
            let (cpu_n, _npu_n) = ctrl.split_batch(batch.len());
            self.net8.set_flat_weights(&self.net.flat_weights());
            let (cpu, npu) = (0..cpu_n, cpu_n..batch.len());
            sgd_step_on(&mut self.net, &mut self.opt, batch, cpu, Precision::Fp32);
            sgd_step_on(&mut self.net8, &mut self.opt8, batch, npu, Precision::Int8);
            let mut w = self.net.flat_weights();
            ctrl.merge_weights_inplace(&mut w, &self.net8.flat_weights());
            self.net.set_flat_weights(&w);
        }

        /// What `capture` would snapshot of this replica.
        fn checkpoint(&self, alpha: f32) -> Checkpoint {
            let mut ckpt = Checkpoint::new(0, vec![self.net.flat_weights()], alpha);
            ckpt.lr = self.opt.lr();
            ckpt.velocities = vec![self.opt.flat_velocity()];
            ckpt.states = vec![self.net.flat_state()];
            ckpt.lr_int8 = self.opt8.lr();
            ckpt.velocities_int8 = vec![self.opt8.flat_velocity()];
            ckpt.states_int8 = vec![self.net8.flat_state()];
            ckpt
        }
    }

    /// Every section of a checkpoint that holds floats, as bits.
    fn sections(c: &Checkpoint) -> Vec<Vec<u32>> {
        let rows = [
            &c.replicas,
            &c.velocities,
            &c.states,
            &c.velocities_int8,
            &c.states_int8,
        ];
        let mut out: Vec<Vec<u32>> = rows
            .iter()
            .map(|r| r[0].iter().map(|x| x.to_bits()).collect())
            .collect();
        out.push(vec![c.lr.to_bits(), c.lr_int8.to_bits(), c.alpha.to_bits()]);
        out
    }

    /// The two-sweep mixed step is the four-pass one bit for bit, on a
    /// batch-norm ResNet: weights, both arms' momentum and non-learnable
    /// state, and the checkpoint `capture` takes of them — over splits
    /// that give the INT8 arm samples, splits that give it none (α = 0,
    /// and a one-sample batch), decayed learning rates of the two arms,
    /// and the α probe's eval forwards in between, which must find the
    /// FP32 arm's state in place.
    #[test]
    fn fused_mixed_step_is_the_four_pass_one_bit_for_bit() {
        let mut spec = tiny_spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(1)));
        spec.model = ModelKind::ResNet18;
        let mut workload = easy_workload(&spec, 96);
        workload.model_cfg = ModelConfig::new(1, 8, 10, 0.1);
        let engine = Engine::new(spec, workload, RunOptions::default());
        let mut rng = StdRng::seed_from_u64(5);
        let mut replica = engine.build_replicas(1, &mut rng, true).remove(0);
        let mut oracle = FourPass::of(&replica);
        let train = &engine.workload.train;
        let mut batches: Vec<Batch> = train.epoch_batches(16, &mut rng).take(4).collect();
        let one = train.epoch_batches(1, &mut rng).next().expect("a sample");
        batches.insert(2, one);
        let mut ctrl = MixedPrecisionController::new(0.4);
        let mut npu_steps = 0;
        for (round, alpha) in [0.61, 0.0, 0.93].into_iter().enumerate() {
            ctrl.set_alpha(alpha);
            for b in &batches {
                npu_steps += usize::from(ctrl.split_batch(b.len()).1 > 0);
                replica.mixed_step(b, &ctrl);
                oracle.mixed_step(b, &ctrl);
                let snap = capture(0, std::slice::from_ref(&replica), alpha);
                let want = oracle.checkpoint(alpha);
                let n = b.len();
                assert_eq!(sections(&snap), sections(&want), "α {alpha}, {n} samples");
            }
            let probe = &engine.workload.probe.images;
            for precision in [Precision::Fp32, Precision::Int8] {
                let bits = |t: Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let got = bits(replica.net.forward(probe, Mode::eval(precision)));
                let want = bits(oracle.net.forward(probe, Mode::eval(precision)));
                assert_eq!(got, want, "round {round}: {precision:?} probe");
            }
            replica.decay_lr_floored(0.7, 1e-3);
            oracle.opt.set_lr((oracle.opt.lr() * 0.7).max(1e-3));
            let lr8 = 0.02 + round as f32 * 0.01;
            replica.int8.as_mut().unwrap().opt.set_lr(lr8);
            oracle.opt8.set_lr(lr8);
        }
        // the INT8 arm stepped in two rounds of five batches, bar the one sample
        assert_eq!(npu_steps, 8);
        let arm = replica.int8.as_ref().unwrap();
        assert_ne!(
            arm.state,
            replica.net.flat_state(),
            "the arms' states differ"
        );
    }

    #[test]
    fn in_place_aggregation_is_the_materialised_one_bit_for_bit() {
        for with_int8 in [true, false] {
            let steps = [3, 1, 2, 4];
            let (mut got, mut want) = (trained(&steps, with_int8), trained(&steps, with_int8));
            let before = families(&got);
            assert_eq!(before, families(&want), "the set-up is deterministic");
            assert_ne!(before[0], before[1], "the replicas diverged");
            assert_eq!(before[0][2].is_empty(), !with_int8);

            average_replicas(&mut got);
            average_replicas_reference(&mut want);
            let after = families(&got);
            assert_eq!(after, families(&want), "int8 arm: {with_int8}");
            assert!(after.iter().all(|f| f == &after[0]), "one mean everywhere");
            assert_ne!(after[0], before[0]);
            // the averaged momentum is not trivially zero
            assert!(after[0][1].iter().any(|&b| b != 0));
            assert_eq!(after[0][2].iter().any(|&b| b != 0), with_int8);
        }
    }

    /// A replica whose shard is empty never steps. Its momentum is all
    /// zero, not absent: the mean is `Σ/n` over every replica — whether the
    /// stepless one comes first (it used to switch momentum averaging off
    /// for everyone) or later (it used to panic).
    #[test]
    fn a_replica_that_never_stepped_averages_in_as_a_zero_row() {
        for steps in [[0, 2, 3], [2, 0, 3]] {
            let stepless = steps.iter().position(|&n| n == 0).unwrap();
            let mut replicas = trained(&steps, true);
            let before = families(&replicas);
            for family in [1, 2] {
                assert!(before[stepless][family].iter().all(|&b| b == 0));
                assert_eq!(before[stepless][family].len(), before[0][0].len());
            }
            average_replicas(&mut replicas);
            let after = families(&replicas);
            let inv_n = 1.0 / 3.0f32;
            for family in 0..3 {
                let mean: Vec<u32> = (0..before[0][family].len())
                    .map(|i| {
                        let sum = before
                            .iter()
                            .fold(0.0, |s, r| s + f32::from_bits(r[family][i]));
                        (sum * inv_n).to_bits()
                    })
                    .collect();
                assert!(mean.iter().any(|&b| b != 0));
                for r in &after {
                    assert_eq!(r[family], mean, "family {family}, steps {steps:?}");
                }
            }
        }
    }
}
