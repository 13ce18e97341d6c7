//! Counting a model allocates no weight.
//!
//! Fleet admission reads a job's parameter and layer counts
//! ([`NetworkShape::of`]) and the tuner its gradient layout
//! ([`models::grad_layout`]), both off the model's layer table. This test
//! binary counts, through its own `#[global_allocator]`, every allocation
//! of at least [`LARGE`] bytes made while they run for ResNet-18 at the
//! fleet's geometry, and asserts that there is none: a table is a few
//! hundred bytes a layer, while one weight tensor of that network is tens
//! of KiB to MiB. Building the network must trip the same counter, or it
//! counts nothing. One `#[test]` only: the allocator is global to the
//! process.

use rand::{rngs::StdRng, SeedableRng};
use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
use socflow::engine::Workload;
use socflow::scheduler::NetworkShape;
use socflow_data::DatasetPreset;
use socflow_nn::models::{self, ModelKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

/// The smallest allocation counted, in bytes.
const LARGE: usize = 64 * 1024;

/// Whether allocations are being counted.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Allocations of at least [`LARGE`] bytes made while armed.
static COUNT: AtomicUsize = AtomicUsize::new(0);
/// The size of the largest of them.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// Counts one allocation of `size` bytes — without allocating.
fn record(size: usize) {
    if size >= LARGE && ARMED.load(Relaxed) {
        COUNT.fetch_add(1, Relaxed);
        LARGEST.fetch_max(size, Relaxed);
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

/// The large allocations `f` makes, and the largest of them in bytes.
fn large_allocations<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    COUNT.store(0, Relaxed);
    LARGEST.store(0, Relaxed);
    ARMED.store(true, Relaxed);
    let out = f();
    ARMED.store(false, Relaxed);
    (COUNT.load(Relaxed), LARGEST.load(Relaxed), out)
}

#[test]
fn counting_and_laying_out_a_model_allocates_no_weight() {
    let model = ModelKind::ResNet18;
    let spec = TrainJobSpec::new(
        model,
        DatasetPreset::Cifar10,
        MethodSpec::SocFlow(SocFlowConfig::with_groups(4)),
    );
    // what fleet admission asks for
    let cfg = Workload::model_config(&spec, 8, 0.5);

    let (count, largest, shape) = large_allocations(|| NetworkShape::of(model, cfg));
    assert_eq!(
        (count, largest),
        (0, 0),
        "NetworkShape::of allocated {count} buffers of >= {LARGE} B"
    );
    let (count, largest, layout) = large_allocations(|| models::grad_layout(&model.layers(cfg)));
    assert_eq!(
        (count, largest),
        (0, 0),
        "the table's gradient layout allocated {count} buffers of >= {LARGE} B"
    );

    let (count, _, net) = large_allocations(|| model.build(cfg, &mut StdRng::seed_from_u64(0)));
    assert!(
        count > 0,
        "building {model} allocated nothing large: the counter sees nothing"
    );
    assert_eq!(shape.params, net.param_count());
    assert_eq!(layout, net.grad_layout());
}
