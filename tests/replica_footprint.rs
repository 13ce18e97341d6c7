//! A replica holds its weights and momentum between steps, nothing else.
//!
//! This test binary tracks, through its own `#[global_allocator]`, how many
//! heap bytes are live. It builds a mixed-precision VGG-11 replica at the
//! geometry of the benchmark's `train_mixed` workload (width 0.22, 8×8
//! CIFAR-10 inputs, batches of 64) and steps it, so that this thread's step
//! scratch ([`socflow_tensor::pool`]) meets every buffer a step asks for —
//! one set of parameter gradients among them. Then it builds and steps a
//! second replica, and counts what that one leaves live: the weights of its
//! two arms and the momentum of their two optimizers, four model-sized
//! families. A gradient kept between steps would be a fifth and a sixth.
//!
//! The pool is pinned to one thread, so every step runs here. One `#[test]`
//! only: the allocator is global to the process.

use rand::rngs::StdRng;
use rand::SeedableRng;
use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
use socflow::engine::{Replica, Workload};
use socflow::mixed::MixedPrecisionController;
use socflow_data::{Batch, DatasetPreset};
use socflow_nn::models::ModelKind;
use socflow_tensor::runtime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

/// Heap bytes allocated and not yet freed, by every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Tracking;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// bookkeeping only touches an atomic.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

#[test]
fn a_replica_holds_no_gradient_between_steps() {
    runtime::set_threads(1);
    let mut spec = TrainJobSpec::new(
        ModelKind::Vgg11,
        DatasetPreset::Cifar10,
        MethodSpec::SocFlow(SocFlowConfig::with_groups(4)),
    );
    spec.seed = 11;
    let batch = spec.global_batch;
    let workload = Workload::standard(&spec, 3 * batch, 8, 0.22);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let net = spec.model.build(workload.model_cfg, &mut rng);
    let batches: Vec<Batch> = workload.train.epoch_batches(batch, &mut rng).collect();
    let ctrl = MixedPrecisionController::new(0.62);
    let (cpu, npu) = ctrl.split_batch(batch);
    assert!(cpu > 0 && npu > 0, "both arms step");

    let mut warm = Replica::new(net.clone(), spec.lr, true);
    batches.iter().for_each(|b| warm.mixed_step(b, &ctrl));

    let before = LIVE.load(Relaxed);
    let mut second = Replica::new(net.clone(), spec.lr, true);
    batches.iter().for_each(|b| second.mixed_step(b, &ctrl));
    let resident = LIVE.load(Relaxed) - before;

    let family = (net.param_count() * std::mem::size_of::<f32>()) as f64;
    let families = resident as f64 / family;
    println!(
        "a mixed VGG-11 replica holds {resident} bytes between steps: \
         {families:.3} families of {family} bytes"
    );
    assert!(
        families <= 4.0 * 1.05,
        "a mixed replica holds {families:.3} model-sized families between steps; \
         its weights and momentum are 4"
    );
}
