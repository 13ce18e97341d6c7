//! One independent SGD stream and the delayed aggregation across streams.
//!
//! This is the per-batch hot loop ([`Replica::step`],
//! [`Replica::mixed_step`]) and the per-epoch merge
//! ([`average_replicas`]); everything else in the engine is bookkeeping
//! around them.

use crate::mixed::MixedPrecisionController;
use socflow_data::Batch;
use socflow_nn::{loss, optim::Sgd, Mode, Network, Precision};

/// The NPU-side half of a mixed-precision replica.
pub(super) struct Int8Arm {
    pub(super) net: Network,
    pub(super) opt: Sgd,
}

/// One independent SGD stream (a group replica).
pub(super) struct Replica {
    pub(super) net: Network,
    pub(super) opt: Sgd,
    /// INT8-side model + optimizer, built only for methods that run mixed
    /// steps — every other method is spared a full `Network` clone per
    /// replica.
    pub(super) int8: Option<Box<Int8Arm>>,
    /// Flat-weight staging reused across mixed steps (FP32 side / merge).
    stage_fp32: Vec<f32>,
    /// Flat-weight staging reused across mixed steps (INT8 side).
    stage_int8: Vec<f32>,
}

impl Replica {
    pub(super) fn new(net: Network, lr: f32, momentum: f32, with_int8: bool) -> Self {
        let int8 = with_int8.then(|| {
            Box::new(Int8Arm {
                net: net.clone(),
                opt: Sgd::new(lr, momentum, 5e-4),
            })
        });
        Replica {
            net,
            opt: Sgd::new(lr, momentum, 5e-4),
            int8,
            stage_fp32: Vec::new(),
            stage_int8: Vec::new(),
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

    /// One plain SGD step at a fixed precision.
    pub(super) fn step(&mut self, batch: &Batch, precision: Precision) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        let mode = Mode::train(precision);
        let logits = self.net.forward(&batch.images, mode);
        let (l, grad) = loss::softmax_cross_entropy(&logits, &batch.labels);
        self.net.backward(&grad, mode);
        self.opt.step(&mut self.net);
        self.net.zero_grad();
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

    /// One mixed-precision step: CPU-FP32 and NPU-INT8 models train on
    /// disjoint batch parts from the same starting weights, then merge
    /// (paper Eq. 5). Weight staging goes through the replica's scratch
    /// vectors, so steady-state steps allocate nothing.
    pub(super) fn mixed_step(&mut self, batch: &Batch, ctrl: &MixedPrecisionController) {
        if batch.is_empty() {
            return;
        }
        let arm = self
            .int8
            .as_mut()
            .expect("mixed_step on a replica built without the INT8 arm");
        let (cpu_n, _npu_n) = ctrl.split_batch(batch.len());
        let (cpu_b, npu_b) = batch.split(cpu_n);
        // both sides start from the merged weights
        self.net.flat_weights_into(&mut self.stage_fp32);
        arm.net.set_flat_weights(&self.stage_fp32);
        if !cpu_b.is_empty() {
            let mode = Mode::train(Precision::Fp32);
            let logits = self.net.forward(&cpu_b.images, mode);
            let (_, grad) = loss::softmax_cross_entropy(&logits, &cpu_b.labels);
            self.net.backward(&grad, mode);
            self.opt.step(&mut self.net);
            self.net.zero_grad();
        }
        if !npu_b.is_empty() {
            let mode = Mode::train(Precision::Int8);
            let logits = arm.net.forward(&npu_b.images, mode);
            let (_, grad) = loss::softmax_cross_entropy(&logits, &npu_b.labels);
            arm.net.backward(&grad, mode);
            arm.opt.step(&mut arm.net);
            arm.net.zero_grad();
        }
        self.net.flat_weights_into(&mut self.stage_fp32);
        arm.net.flat_weights_into(&mut self.stage_int8);
        ctrl.merge_weights_inplace(&mut self.stage_fp32, &self.stage_int8);
        self.net.set_flat_weights(&self.stage_fp32);
    }
}

/// Average all replicas' weights in place (delayed aggregation /
/// FedAvg-style merge) and return the averaged flat weights.
///
/// Also averages the replicas' momentum buffers: after the merge each
/// stream's velocity describes its *own* pre-merge trajectory, and
/// carrying those divergent buffers across the aggregation boundary
/// drags every stream back toward where it came from. Averaging keeps
/// the coherent component of the momentum (the shared descent
/// direction) and cancels the divergent parts, exactly like the
/// weights themselves.
pub(super) fn average_replicas(replicas: &mut [Replica]) -> Vec<f32> {
    let has_int8 = replicas[0].int8.is_some();

    // Materialize every replica's flat vectors once (once per epoch;
    // the chunked reduction below then reads them in fixed replica
    // order). Summing first and scaling once by a precomputed 1/n does
    // n-fold fewer divisions than dividing per replica and rounds once.
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

    // Broadcasting the means back into every replica is independent
    // per replica — run it as pool jobs.
    let mean_ref = &mean;
    let mean_vel_ref = &mean_vel;
    let mean_vel8_ref = &mean_vel8;
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = replicas
        .iter_mut()
        .map(|r| {
            Box::new(move || {
                r.net.set_flat_weights(mean_ref);
                r.opt.set_flat_velocity(mean_vel_ref);
                if let Some(arm) = &mut r.int8 {
                    arm.opt
                        .set_flat_velocity(mean_vel8_ref.as_ref().expect("INT8 mean"));
                }
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    socflow_tensor::runtime::run_scoped(jobs);
    mean
}

/// Element-wise mean of equal-length rows: chunked across the worker
/// pool, each chunk summing in fixed (ascending-replica) order and
/// scaling once by a precomputed `1/n`. Chunk boundaries depend only on
/// the parameter count, so the result is byte-identical at any thread
/// count.
fn mean_of(rows: &[Vec<f32>]) -> Vec<f32> {
    /// Elements per reduction chunk (shape-fixed).
    const MEAN_CHUNK: usize = 16 * 1024;
    let inv_n = 1.0 / rows.len() as f32;
    let len = rows[0].len();
    let mut out = vec![0.0f32; len];
    socflow_tensor::runtime::parallel_for_slice_chunks(&mut out, MEAN_CHUNK, &|c, chunk| {
        let lo = c * MEAN_CHUNK;
        for row in rows {
            let hi = (lo + chunk.len()).min(row.len());
            if lo < hi {
                for (m, &v) in chunk.iter_mut().zip(&row[lo..hi]) {
                    *m += v;
                }
            }
        }
        for m in chunk.iter_mut() {
            *m *= inv_n;
        }
    });
    out
}
