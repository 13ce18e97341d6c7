//! The distributed training engine.
//!
//! The engine plays both roles of the reproduction's two-level fidelity
//! design (DESIGN.md):
//!
//! - **Real learning dynamics.** It maintains one weight replica per
//!   independent SGD stream — one for fully synchronous methods (per-batch
//!   all-reduce makes all workers one logical stream), one per logical
//!   group for SoCFlow (intra-group SSGD ≡ one stream at the group's batch
//!   size), one per client for federated methods — and really trains them
//!   with `socflow-nn` on the scaled synthetic dataset. Delayed
//!   aggregation, INT8 quantization error, group-count/batch-size effects
//!   and the α/β controller all act on true SGD trajectories.
//! - **Paper-scale cost.** Each epoch is priced by [`crate::timemodel`] on
//!   the calibrated cluster simulation (reference dataset and model sizes),
//!   producing wall-clock time, the Fig. 12 breakdown and energy.
//!
//! Federated accuracy streams are capped at [`MAX_FL_REPLICAS`] model
//! replicas (time/energy still use the full SoC count) so laptop-scale runs
//! stay tractable; DESIGN.md documents this substitution.

mod digest;
mod durable;
mod elastic;
mod replica;
mod socflow;
mod stream;

use crate::config::{MethodSpec, TrainJobSpec};
use crate::options::{Plan, Pricing, RunOptions};
use crate::report::RunResult;
use crate::timemodel::{EpochCost, TimeModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use replica::average_replicas;
pub use replica::Replica;
use socflow_data::{iid_partition, Batch, Dataset};
use socflow_nn::models::ModelConfig;
use socflow_nn::{metrics, Mode, Network, Precision};
use socflow_telemetry::Event;

/// Maximum number of model replicas simulated for federated methods.
pub const MAX_FL_REPLICAS: usize = 8;

/// Default logical-group count when a SoCFlow job leaves it unspecified and
/// no warm-up profiling runs (the paper's experiments use 8 groups).
pub const DEFAULT_GROUPS: usize = 8;

/// How many test samples the per-epoch evaluation uses.
const EVAL_CAP: usize = 512;

/// Samples per parallel evaluation shard. The shard decomposition is fixed
/// by the eval-set size (never the thread count), which keeps evaluation
/// byte-deterministic across `SOCFLOW_THREADS` settings.
const EVAL_SHARD: usize = 128;

/// Per-epoch learning-rate decay factor (step schedule). Applied uniformly
/// to every method so comparisons stay fair.
const LR_DECAY: f32 = 0.88;

/// Learning-rate floor as a fraction of the initial rate: methods with few
/// sequential steps per epoch (group/federated streams) need more epochs to
/// converge, and unbounded decay would freeze them first.
const LR_FLOOR: f32 = 0.15;

/// The `(α, CPU share)` of single-stream and federated methods: they train
/// CPU-FP32 only, so there is no α and the whole batch is on the CPU stream.
const CPU_ONLY: (f32, f64) = (f32::NAN, 1.0);

/// The learnable part of one training job: scaled datasets + model config.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Scaled training dataset (really trained on).
    pub train: Dataset,
    /// Scaled held-out dataset for accuracy measurement.
    pub test: Dataset,
    /// Probe batch for the α confidence metric.
    pub probe: Batch,
    /// Scaled model geometry.
    pub model_cfg: ModelConfig,
    /// Optional initial flat weights (transfer learning / fine-tuning —
    /// the ResNet-50 finetune workload pretrains on a CINIC-10 stand-in).
    pub init_weights: Option<Vec<f32>>,
}

impl Workload {
    /// Builds the standard scaled workload for a job: synthetic datasets at
    /// the preset's geometry with `samples` training samples, `input_size`
    /// pixels and `width` channel scaling.
    pub fn standard(spec: &TrainJobSpec, samples: usize, input_size: usize, width: f32) -> Self {
        // train and test must come from the same generative process (same
        // class prototypes), so generate once and split
        let test_n = (samples / 4).max(64);
        let all = Dataset::synthetic(spec.preset.synthetic_spec(
            samples + test_n,
            input_size,
            spec.seed,
        ));
        let train = all.subset(&(0..samples).collect::<Vec<_>>());
        let test = all.subset(&(samples..samples + test_n).collect::<Vec<_>>());
        let probe = test.head_batch(64);
        let model_cfg = Self::model_config(spec, input_size, width);
        debug_assert_eq!(
            (model_cfg.in_channels, model_cfg.classes),
            (train.channels(), train.classes())
        );
        Workload {
            train,
            test,
            probe,
            model_cfg,
            init_weights: None,
        }
    }

    /// The model geometry of [`Workload::standard`] — the preset's channels
    /// and classes at `input_size` pixels and `width` channel scaling —
    /// without generating a sample: all that planning a job needs of its
    /// workload.
    pub fn model_config(spec: &TrainJobSpec, input_size: usize, width: f32) -> ModelConfig {
        let geometry = spec.preset.synthetic_spec(0, input_size, spec.seed);
        ModelConfig::new(geometry.channels, input_size, geometry.classes, width)
    }

    /// Returns the workload with pretrained initial weights (fine-tuning).
    pub fn with_init_weights(mut self, weights: Vec<f32>) -> Self {
        self.init_weights = Some(weights);
        self
    }
}

/// The distributed training engine for one job.
pub struct Engine {
    spec: TrainJobSpec,
    workload: Workload,
    time_model: TimeModel,
    options: RunOptions,
}

impl Engine {
    /// Creates an engine for a job + workload, run as `options` says.
    ///
    /// # Panics
    /// Panics with the [`RunOptions::validate`] message if `options` sets
    /// something the job's method cannot act on, and if
    /// `options.profiled_beta` is not strictly inside `(0, 1)`.
    pub fn new(spec: TrainJobSpec, workload: Workload, options: RunOptions) -> Self {
        options.assert_valid(&spec, Plan::Fixed);
        let mut time_model = TimeModel::new(&spec);
        time_model.set_simulated(options.pricing != Pricing::Eq1);
        if let Some(sink) = &options.sink {
            time_model.set_sink(sink.clone());
        }
        if let Some(beta) = options.profiled_beta {
            time_model.compute_mut().set_profiled_beta(beta);
        }
        Engine {
            spec,
            workload,
            time_model,
            options,
        }
    }

    fn build_replicas(&self, count: usize, rng: &mut StdRng, with_int8: bool) -> Vec<Replica> {
        // all replicas start from identical weights, like a real dispatch
        let mut base = self.spec.model.build(self.workload.model_cfg, rng);
        if let Some(w) = &self.workload.init_weights {
            base.set_flat_weights(w);
        }
        (0..count)
            .map(|_| Replica::new(base.clone(), self.spec.lr, self.spec.momentum, with_int8))
            .collect()
    }

    /// Eval-set accuracy, one [`EVAL_SHARD`]-sample forward at a time.
    ///
    /// The shard boundaries follow from the eval-set size alone — INT8
    /// activation scales depend on the batch a forward sees, so they are
    /// part of the result. The shards run in order on `net` itself (eval
    /// mode mutates no persistent state, only scratch) with whatever
    /// parallelism the kernels have, so no copy of the network is made;
    /// the accuracy is byte-identical at any `SOCFLOW_THREADS`.
    fn evaluate(&self, net: &mut Network, precision: Precision) -> f32 {
        let test = &self.workload.test;
        let total = test.len().min(EVAL_CAP);
        if total == 0 {
            return 0.0;
        }
        let mut hits = 0;
        for lo in (0..total).step_by(EVAL_SHARD) {
            let idx: Vec<usize> = (lo..(lo + EVAL_SHARD).min(total)).collect();
            let batch = test.batch(&idx);
            let logits = net.forward(&batch.images, Mode::eval(precision));
            hits += metrics::correct_count(&logits, &batch.labels);
        }
        hits as f32 / total as f32
    }

    /// Runs the job to completion: really trains the scaled replicas,
    /// prices every epoch on the calibrated cluster simulation, and returns
    /// the combined [`RunResult`] (accuracy curve, Fig. 12 breakdown,
    /// energy, α trace).
    ///
    /// # Examples
    ///
    /// A laptop-scale smoke run — 8 SoCs, 2 logical groups, one epoch over
    /// 64 synthetic samples:
    ///
    /// ```
    /// use socflow::prelude::*;
    ///
    /// let mut spec = TrainJobSpec::new(
    ///     ModelKind::LeNet5,
    ///     DatasetPreset::FashionMnist,
    ///     MethodSpec::SocFlow(SocFlowConfig::with_groups(2)),
    /// );
    /// spec.socs = 8;
    /// spec.epochs = 1;
    /// spec.global_batch = 32;
    /// let workload = Workload::standard(&spec, 64, 8, 0.5);
    /// let result = Engine::new(spec, workload, RunOptions::default()).run();
    /// assert_eq!(result.epoch_accuracy.len(), 1);
    /// assert!(result.total_time() > 0.0);
    /// assert!(result.energy_joules > 0.0);
    /// ```
    pub fn run(&mut self) -> RunResult {
        self.options.emit(Event::RunStarted {
            method: self.spec.method.name().to_string(),
            socs: self.spec.socs,
            epochs: self.spec.epochs,
            seed: self.spec.seed,
        });
        // Snapshot the host kernel profiler and the worker pool (when on)
        // so the run can be attributed to matmul/conv/quant time and pool
        // activity by diffing at the end. Both are gated on the profiler so
        // profiler-off traces stay byte-identical across thread counts.
        let kernel_base =
            socflow_tensor::profile::enabled().then(socflow_tensor::profile::snapshot);
        let pool_base = kernel_base.is_some().then(socflow_tensor::runtime::stats);
        let result = match self.spec.method {
            MethodSpec::Local
            | MethodSpec::ParameterServer
            | MethodSpec::Ring
            | MethodSpec::HiPress
            | MethodSpec::TwoDParallel { .. } => self.run_single(),
            MethodSpec::FedAvg | MethodSpec::TFedAvg { .. } => self.run_federated(),
            MethodSpec::SocFlow(cfg) if cfg.mixed_precision => {
                self.run_socflow(cfg, MixedMode::Adaptive)
            }
            MethodSpec::SocFlow(cfg) => self.run_socflow(cfg, MixedMode::Fp32Only),
            MethodSpec::SocFlowInt8(cfg) => self.run_socflow(cfg, MixedMode::Int8Only),
            MethodSpec::SocFlowHalf(cfg) => self.run_socflow(cfg, MixedMode::Half),
        };
        if let Some(base) = kernel_base {
            let now = socflow_tensor::profile::snapshot();
            for (b, n) in base.iter().zip(&now) {
                let calls = n.calls.saturating_sub(b.calls);
                if calls > 0 {
                    self.options.emit(Event::KernelTotals {
                        op: n.op.to_string(),
                        calls,
                        nanos: n.nanos.saturating_sub(b.nanos),
                    });
                }
            }
        }
        if let Some(base) = pool_base {
            let now = socflow_tensor::runtime::stats();
            self.options.emit(Event::PoolTotals {
                threads: now.threads,
                tasks: now.tasks.saturating_sub(base.tasks),
                chunks: now.chunks.saturating_sub(base.chunks),
                jobs: now.jobs.saturating_sub(base.jobs),
                busy_nanos: now.busy_nanos.saturating_sub(base.busy_nanos),
                wall_nanos: now.wall_nanos.saturating_sub(base.wall_nanos),
                parks: now.parks.saturating_sub(base.parks),
                wakes: now.wakes.saturating_sub(base.wakes),
            });
        }
        self.options.emit(Event::RunCompleted {
            epochs: result.epoch_accuracy.len(),
            total_time: result.total_time(),
            compute: result.breakdown.compute,
            sync: result.breakdown.sync,
            update: result.breakdown.update,
            energy: result.energy_joules,
            best_accuracy: result.best_accuracy(),
        });
        result
    }

    /// One FP32 epoch of the single-stream training loop: the job's batches
    /// in the epoch's shuffled order, then the learning-rate decay.
    fn single_stream_epoch(&self, replica: &mut Replica, epoch: usize) {
        let mut erng = StdRng::seed_from_u64(self.spec.seed ^ (epoch as u64 + 1));
        let train = &self.workload.train;
        let batches = train.epoch_batches(self.spec.global_batch, &mut erng);
        replica.step_all(batches, Precision::Fp32);
        replica.decay_lr_floored(LR_DECAY, self.spec.lr * LR_FLOOR);
    }

    /// Single-stream methods (Local + all fully synchronous baselines):
    /// per-batch all-reduce makes the whole cluster one SGD stream.
    fn run_single(&mut self) -> RunResult {
        let mut rng = StdRng::seed_from_u64(self.spec.seed);
        let mut replica = self.build_replicas(1, &mut rng, false).remove(0);
        let mut result = self.empty_result();
        for epoch in 0..self.spec.epochs {
            self.single_stream_epoch(&mut replica, epoch);
            let acc = self.evaluate(&mut replica.net, Precision::Fp32);
            let cost = self.baseline_epoch();
            self.push_epoch(&mut result, epoch, acc, &cost, 1, CPU_ONLY);
            if Some(epoch + 1) == self.options.preempt_after {
                // baselines stall for a checkpoint-restore round trip
                let stall = self.checkpoint_stall_time();
                self.options.emit(Event::BaselineStalled {
                    epoch: epoch + 1,
                    stall,
                });
                result.epoch_time.push(stall);
                result.epoch_accuracy.push(acc);
                result.alpha_trace.push(f32::NAN);
            }
        }
        result
    }

    /// Federated methods: fixed IID client shards, per-epoch averaging.
    fn run_federated(&mut self) -> RunResult {
        let mut rng = StdRng::seed_from_u64(self.spec.seed);
        let clients = self.spec.socs.min(MAX_FL_REPLICAS);
        let mut replicas = self.build_replicas(clients, &mut rng, false);
        // Federated clients keep FIXED local shards all training (no
        // cross-client shuffling — the contrast to SoCFlow). Client data is
        // mildly heterogeneous (Dirichlet α = 0.5): at the reduced accuracy
        // scale a perfectly IID split hides the client-drift phenomenon the
        // paper measures, while per-user edge data is non-IID in deployment.
        let shards = socflow_data::dirichlet_partition(
            self.workload.train.labels(),
            self.workload.train.classes(),
            clients,
            0.5,
            self.spec.seed,
        );
        let client_data: Vec<Dataset> = shards
            .iter()
            .map(|s| self.workload.train.subset(s))
            .collect();
        // federated local batch: FedAvg clients run the job's batch size
        // locally (tiny per-client batches at momentum-amplified rates
        // diverge before the first aggregation)
        let local_batch = self.spec.global_batch;

        let mut result = self.empty_result();
        for epoch in 0..self.spec.epochs {
            // clients are independent between aggregations: train them as
            // persistent-pool jobs (no per-epoch thread spawns)
            let seed0 = self.spec.seed;
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = replicas
                .iter_mut()
                .enumerate()
                .map(|(c, replica)| {
                    let data = &client_data[c];
                    let seed = seed0 ^ ((epoch * 131 + c) as u64 + 7);
                    Box::new(move || {
                        let mut erng = StdRng::seed_from_u64(seed);
                        replica
                            .step_all(data.epoch_batches(local_batch, &mut erng), Precision::Fp32);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            socflow_tensor::runtime::run_scoped(jobs);
            average_replicas(&mut replicas);
            for r in replicas.iter_mut() {
                r.decay_lr_floored(LR_DECAY, self.spec.lr * LR_FLOOR);
            }
            let acc = self.evaluate(&mut replicas[0].net, Precision::Fp32);
            let cost = self.baseline_epoch();
            self.push_epoch(&mut result, epoch, acc, &cost, clients, CPU_ONLY);
        }
        result
    }

    /// Runs this job's training locally (single stream, FP32) and returns
    /// the final flat weights — the pretraining stage of the transfer-
    /// learning workload.
    pub fn pretrain_weights(&mut self) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(self.spec.seed);
        let mut replica = self.build_replicas(1, &mut rng, false).remove(0);
        for epoch in 0..self.spec.epochs {
            self.single_stream_epoch(&mut replica, epoch);
        }
        replica.net.flat_weights()
    }

    /// First-epoch accuracy at a candidate group count — the probe the
    /// group-size heuristic runs during warm-up (FP32 only: the heuristic
    /// isolates the batch-size effect).
    pub fn first_epoch_accuracy(&self, n_groups: usize) -> f32 {
        let mut rng = StdRng::seed_from_u64(self.spec.seed);
        let mut replicas = self.build_replicas(n_groups, &mut rng, false);
        let shards = iid_partition(self.workload.train.len(), n_groups, self.spec.seed);
        for (g, replica) in replicas.iter_mut().enumerate() {
            let mut erng = StdRng::seed_from_u64(self.spec.seed ^ (g as u64 + 17));
            let train = &self.workload.train;
            let batches = train.epoch_batches_of(&shards[g], self.spec.global_batch, &mut erng);
            replica.step_all(batches, Precision::Fp32);
        }
        average_replicas(&mut replicas);
        self.evaluate(&mut replicas[0].net, Precision::Fp32)
    }

    fn empty_result(&self) -> RunResult {
        RunResult::empty(self.spec.method.name())
    }

    /// This epoch's price for a method whose price training cannot move.
    fn baseline_epoch(&self) -> EpochCost {
        self.time_model
            .baseline_epoch(self.spec.method)
            .expect("only SoCFlow's price follows its training")
    }

    /// Appends one epoch to `result` and reports it; `split` is the
    /// mixed-precision controller's `(α, CPU share of each batch)`.
    fn push_epoch(
        &self,
        result: &mut RunResult,
        epoch: usize,
        accuracy: f32,
        cost: &EpochCost,
        groups: usize,
        (alpha, cpu_fraction): (f32, f64),
    ) {
        result.push_epoch(accuracy, cost, alpha);
        self.options.emit(Event::EpochCompleted {
            epoch,
            accuracy,
            time: cost.time,
            compute: cost.breakdown.compute,
            sync: cost.breakdown.sync,
            update: cost.breakdown.update,
            aggregation: cost.aggregation,
            alpha,
            cpu_fraction,
            energy: cost.energy,
            groups,
        });
    }

    fn checkpoint_stall_time(&self) -> f64 {
        // write + restore a full model snapshot over one SoC link
        let payload = self.spec.model.payload_bytes_fp32() as f64;
        2.0 * payload / (1e9 / 8.0) + 1.0
    }
}

/// How the SoCFlow run drives its heterogeneous processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MixedMode {
    /// Adaptive α/β mixed precision (the paper's full design).
    Adaptive,
    /// NPU-only INT8 (Fig. 14 "Ours-INT8").
    Int8Only,
    /// Fixed 50/50 split at α = 0.7 (Fig. 14 "Ours-Half").
    Half,
    /// CPU-only FP32 (Fig. 14 "Ours-FP32": a SoCFlow job with mixed
    /// precision off, e.g. the ablation bench's arms).
    Fp32Only,
}

impl MixedMode {
    /// The one precision every batch trains at, or `None` for the modes
    /// that split each batch across both arms ([`Replica::mixed_step`]) and
    /// so carry the NPU-side INT8 model next to the FP32 one.
    fn step_precision(self) -> Option<Precision> {
        match self {
            MixedMode::Adaptive | MixedMode::Half => None,
            MixedMode::Int8Only => Some(Precision::Int8),
            MixedMode::Fp32Only => Some(Precision::Fp32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SocFlowConfig;
    use socflow_data::DatasetPreset;
    use socflow_nn::models::ModelKind;
    use std::sync::Arc;

    pub(super) fn tiny_spec(method: MethodSpec) -> TrainJobSpec {
        let mut s = TrainJobSpec::new(ModelKind::LeNet5, DatasetPreset::FashionMnist, method);
        s.socs = 8;
        s.epochs = 4;
        s.global_batch = 32;
        s.lr = 0.05;
        s
    }

    /// An easy, low-noise workload so 4-epoch smoke runs genuinely learn.
    pub(super) fn easy_workload(spec: &TrainJobSpec, samples: usize) -> Workload {
        let test_n = 128;
        let gen = socflow_data::SyntheticSpec {
            channels: 1,
            size: 8,
            classes: 10,
            samples: samples + test_n,
            noise: 0.4,
            label_noise: 0.0,
            seed: spec.seed,
        };
        let all = Dataset::synthetic(gen);
        let train = all.subset(&(0..samples).collect::<Vec<_>>());
        let test = all.subset(&(samples..samples + test_n).collect::<Vec<_>>());
        let probe = test.head_batch(64);
        Workload {
            train,
            test,
            probe,
            model_cfg: ModelConfig::new(1, 8, 10, 0.5),
            init_weights: None,
        }
    }

    pub(super) fn tiny_engine(method: MethodSpec) -> Engine {
        let spec = tiny_spec(method);
        let workload = easy_workload(&spec, 512);
        Engine::new(spec, workload, RunOptions::default())
    }

    #[test]
    fn local_training_learns() {
        let mut e = tiny_engine(MethodSpec::Local);
        let r = e.run();
        assert_eq!(r.epoch_accuracy.len(), 4);
        let chance = 1.0 / 10.0;
        assert!(
            r.best_accuracy() > chance * 2.0,
            "accuracy {} should beat chance",
            r.best_accuracy()
        );
        assert!(r.total_time() > 0.0);
        assert!(r.energy_joules > 0.0);
    }

    #[test]
    fn ring_accuracy_matches_local() {
        // synchronous SGD: identical stream, identical accuracy
        let a = tiny_engine(MethodSpec::Local).run();
        let b = tiny_engine(MethodSpec::Ring).run();
        assert_eq!(a.epoch_accuracy, b.epoch_accuracy);
        // …but distributed time differs from single-SoC time
        assert_ne!(a.total_time(), b.total_time());
    }

    #[test]
    fn fedavg_runs() {
        // FL clients keep fixed non-IID shards, so they need more data and
        // rounds than the synchronous smoke tests
        let mut spec = tiny_spec(MethodSpec::FedAvg);
        spec.epochs = 8;
        let workload = easy_workload(&spec, 1024);
        let r = Engine::new(spec, workload, RunOptions::default()).run();
        assert_eq!(r.epoch_accuracy.len(), 8);
        assert!(r.best_accuracy() > 0.15, "acc {}", r.best_accuracy());
    }

    #[test]
    fn first_epoch_accuracy_degrades_with_group_count() {
        // the ordering is only meaningful when the single-group arm gets
        // enough steps to clear chance accuracy (64 at this batch size);
        // on the 512-sample tiny workload both arms sit at chance and the
        // comparison is noise
        let spec = tiny_spec(MethodSpec::SocFlow(SocFlowConfig::full()));
        let workload = easy_workload(&spec, 2048);
        let e = Engine::new(spec, workload, RunOptions::default());
        let a1 = e.first_epoch_accuracy(1);
        let a8 = e.first_epoch_accuracy(8);
        // 8 groups on 2048 samples = 8 aggregate steps: well behind the
        // 64 sequential steps of the single group
        assert!(a1 > a8, "acc(1)={a1} should exceed acc(8)={a8}");
    }

    #[test]
    fn pretrain_weights_differ_from_init_and_are_loadable() {
        let spec = tiny_spec(MethodSpec::Local);
        let workload = easy_workload(&spec, 256);
        let mut e = Engine::new(spec, workload.clone(), RunOptions::default());
        let trained = e.pretrain_weights();
        // compare against a fresh init with the same seed
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let fresh = spec.model.build(workload.model_cfg, &mut rng);
        assert_eq!(trained.len(), fresh.param_count());
        assert_ne!(trained, fresh.flat_weights(), "training must move weights");
        // and the transfer-learning path accepts them
        let warm = workload.with_init_weights(trained);
        let r = Engine::new(spec, warm, RunOptions::default()).run();
        assert!(r.best_accuracy() > 0.2, "warm start should learn fast");
    }

    #[test]
    fn profiled_beta_reaches_the_compute_model() {
        let spec = tiny_spec(MethodSpec::SocFlow(SocFlowConfig::with_groups(2)));
        let options = RunOptions {
            profiled_beta: Some(0.42),
            ..RunOptions::default()
        };
        let e = Engine::new(spec, easy_workload(&spec, 128), options);
        assert_eq!(e.time_model.compute().beta(), 0.42);
    }

    #[test]
    fn kernel_profiling_attributes_run_compute() {
        let sink = Arc::new(socflow_telemetry::MemorySink::new());
        let spec = tiny_spec(MethodSpec::Local);
        let workload = easy_workload(&spec, 128);
        let mut e = Engine::new(
            spec,
            workload,
            RunOptions {
                sink: Some(sink.clone()),
                ..RunOptions::default()
            },
        );
        socflow_tensor::profile::set_enabled(true);
        let _ = e.run();
        socflow_tensor::profile::set_enabled(false);
        let events = sink.events();
        let totals: Vec<_> = events
            .iter()
            .filter_map(|ev| match ev {
                Event::KernelTotals { op, calls, .. } => Some((op.as_str(), *calls)),
                _ => None,
            })
            .collect();
        assert!(!totals.is_empty(), "profiled run must emit kernel totals");
        assert!(
            totals
                .iter()
                .any(|(op, calls)| *op == "matmul" && *calls > 0),
            "matmul time must be attributed, got {totals:?}"
        );
        assert!(
            matches!(events.last(), Some(Event::RunCompleted { .. })),
            "kernel totals precede RunCompleted"
        );
    }
}
