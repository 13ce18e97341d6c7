//! A training step allocates nothing.
//!
//! This test binary counts, through its own `#[global_allocator]`, every
//! allocation of any size made by any thread while the engine's training
//! step — [`Replica::step`], [`Replica::mixed_step`] — runs, from the
//! second epoch on, and asserts that there is none.
//!
//! The first epoch may allocate what it likes: that is when each thread's
//! step scratch ([`socflow_tensor::pool`]) meets the shapes of a step, the
//! kernels' thread-local halo and packing buffers grow to the largest
//! layer's, and the pool's queue finds its size. From then on a step
//! borrows its activations, patch matrices, masks, staging and gradients
//! from the scratch of the thread it runs on, a `Shape` lives inline, and a
//! parallel kernel call's task lives on its caller's stack — so the heap
//! is not touched again, at any pool size. Evaluation forwards run between
//! the epochs, as the engine runs them (the α probe at both precisions, the
//! test set): they borrow nothing from the scratch and park nothing there,
//! so the steps after them still find every buffer they ask for.
//!
//! The steps are driven here, not through `Engine::run`: between two steps
//! an engine job assembles batches, and between two epochs the engine
//! prices, aggregates and reports, all of which may allocate and none of
//! which this test is about. With several pool workers the first epoch is
//! run behind a barrier, one replica's steps per thread, so that every
//! thread has met every shape before the counting starts — which thread
//! runs which replica afterwards is scheduling noise. One `#[test]` only:
//! the allocator is global to the process.

use rand::rngs::StdRng;
use rand::SeedableRng;
use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
use socflow::engine::{Replica, Workload};
use socflow::mixed::MixedPrecisionController;
use socflow_data::{Batch, DatasetPreset};
use socflow_nn::models::ModelKind;
use socflow_nn::{Mode, Network, Precision};
use socflow_tensor::runtime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::{Barrier, Mutex};

/// Whether allocations are being counted.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Allocations made while armed.
static COUNT: AtomicUsize = AtomicUsize::new(0);
/// The sizes of the first few of them, for the failure message.
static SIZES: [AtomicUsize; 8] = [const { AtomicUsize::new(0) }; 8];

/// Counts one allocation of `size` bytes — without allocating.
fn record(size: usize) {
    if ARMED.load(Relaxed) {
        let nth = COUNT.fetch_add(1, Relaxed);
        if let Some(slot) = SIZES.get(nth) {
            slot.store(size, Relaxed);
        }
    }
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator;
// `record` only touches atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The steps of one case: `groups` replicas of `model`, each with its own
/// epoch of batches, stepped in mixed precision (both arms) or in FP32.
struct Case {
    label: String,
    replicas: Vec<Mutex<Replica>>,
    batches: Vec<Vec<Batch>>,
    /// One network per replica for the evaluation forwards in between.
    eval: Vec<Mutex<Network>>,
    probe: Batch,
    ctrl: MixedPrecisionController,
    mixed: bool,
}

impl Case {
    fn new(
        model: ModelKind,
        preset: DatasetPreset,
        groups: usize,
        batch: usize,
        mixed: bool,
    ) -> Self {
        let mut spec = TrainJobSpec::new(
            model,
            preset,
            MethodSpec::SocFlow(SocFlowConfig::with_groups(groups)),
        );
        spec.seed = 11;
        let steps = 3;
        let width = match model {
            ModelKind::LeNet5 => 0.5,
            ModelKind::Vgg11 => 0.22,
            _ => 0.18,
        };
        let workload = Workload::standard(&spec, groups * steps * batch, 8, width);
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let net = model.build(workload.model_cfg, &mut rng);
        let replica = || Mutex::new(Replica::new(net.clone(), spec.lr, mixed));
        let shard = |g: usize| (g * steps * batch..(g + 1) * steps * batch).collect::<Vec<_>>();
        let epoch = |g| {
            workload
                .train
                .epoch_batches_of(&shard(g), batch, &mut StdRng::seed_from_u64(g as u64))
        };
        Case {
            label: format!(
                "{model:?}, {groups} groups, {}",
                if mixed { "mixed" } else { "FP32" }
            ),
            replicas: (0..groups).map(|_| replica()).collect(),
            batches: (0..groups).map(|g| epoch(g).collect()).collect(),
            eval: (0..groups).map(|_| Mutex::new(net.clone())).collect(),
            probe: workload.probe,
            ctrl: MixedPrecisionController::new(0.62),
            mixed,
        }
    }

    /// Replica `g`'s epoch of steps, on the calling thread.
    fn train(&self, g: usize) {
        let mut replica = self.replicas[g].lock().unwrap();
        for batch in &self.batches[g] {
            match self.mixed {
                true => replica.mixed_step(batch, &self.ctrl),
                false => drop(replica.step(batch, Precision::Fp32)),
            }
        }
    }

    /// What the engine forwards between two epochs: the probe batch at both
    /// precisions, once per replica, spread over the pool.
    fn evaluate(&self) {
        runtime::parallel_for_chunks(self.eval.len(), &|g| {
            let mut net = self.eval[g].lock().unwrap();
            for precision in [Precision::Fp32, Precision::Int8] {
                net.forward(&self.probe.images, Mode::eval(precision));
            }
        });
    }

    /// A first epoch in which every pool thread steps through a whole
    /// replica (the barrier lets no thread take two lanes), then two epochs
    /// with every allocation counted.
    fn assert_steps_allocate_nothing(&self, threads: usize) {
        runtime::set_threads(threads);
        let groups = self.replicas.len();
        let all_here = Barrier::new(threads);
        runtime::parallel_for_chunks(threads, &|lane| {
            all_here.wait();
            self.train(lane % groups);
        });
        for g in threads..groups {
            self.train(g);
        }
        for epoch in 2..=3 {
            self.evaluate();
            SIZES.iter().for_each(|s| s.store(0, Relaxed));
            COUNT.store(0, Relaxed);
            ARMED.store(true, Relaxed);
            runtime::parallel_for_chunks(groups, &|g| self.train(g));
            ARMED.store(false, Relaxed);
            let sizes: Vec<usize> = SIZES.iter().map(|s| s.load(Relaxed)).collect();
            assert_eq!(
                COUNT.load(Relaxed),
                0,
                "{}, {threads} pool threads: allocations inside the steps of epoch {epoch}; \
                 the first of them, in bytes: {sizes:?}",
                self.label
            );
        }
        println!(
            "{}, {threads} pool threads: no allocation in a step",
            self.label
        );
    }
}

#[test]
fn a_training_step_allocates_nothing_after_the_first_epoch() {
    let cases = [
        Case::new(ModelKind::LeNet5, DatasetPreset::FashionMnist, 2, 16, true),
        Case::new(ModelKind::Vgg11, DatasetPreset::Cifar10, 4, 32, true),
        Case::new(ModelKind::ResNet18, DatasetPreset::Cifar10, 2, 32, true),
        Case::new(ModelKind::ResNet18, DatasetPreset::Cifar10, 1, 32, false),
    ];
    // the pool pinned to one thread, then four workers sharing the kernels
    for threads in [1, 4] {
        for case in &cases {
            case.assert_steps_allocate_nothing(threads);
        }
    }
}
