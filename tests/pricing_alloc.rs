//! A warm pricing allocates per group and bucket, not per span.
//!
//! The tuner prices hundreds of plans, each an epoch of thousands of
//! timeline spans. The timeline's buffers are parked between pricings,
//! every flow set is resolved once per pricing, and a span's lane is a
//! value, so what a warm pricing still allocates is its set-up: the
//! mapping, the slots, the buckets' flow sets and the growth of a few
//! lists. This test binary counts, through its own `#[global_allocator]`,
//! every allocation made while one warm candidate of the paper-scale
//! search is priced — ResNet-18 on 60 SoCs, 12 groups, wait-free with
//! 512 KiB buckets — and holds the count under a quarter of the epoch's
//! span count. One `#[test]` only: the allocator is global to the process.

use socflow::autotune::{price_plan_uncached, PlanCandidate};
use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
use socflow::engine::Workload;
use socflow::mapping::integrity_greedy;
use socflow::planning::divide_communication_groups;
use socflow::sim::{simulate_socflow_schedule, SyncSchedule};
use socflow::timemodel::TimeModel;
use socflow_cluster::ClusterSpec;
use socflow_data::DatasetPreset;
use socflow_nn::models::{self, ModelKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

/// Whether allocations are being counted.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Allocations and reallocations made while armed.
static COUNT: AtomicUsize = AtomicUsize::new(0);

/// Counts one allocation — without allocating.
fn record() {
    if ARMED.load(Relaxed) {
        COUNT.fetch_add(1, Relaxed);
    }
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator;
// `record` only touches atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations `f` makes.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    COUNT.store(0, Relaxed);
    ARMED.store(true, Relaxed);
    let out = f();
    ARMED.store(false, Relaxed);
    (COUNT.load(Relaxed), out)
}

#[test]
fn a_warm_pricing_allocates_far_fewer_times_than_it_has_spans() {
    // `tune --model resnet18 --dataset cifar10 --socs 60`'s job and layout
    let mut spec = TrainJobSpec::new(
        ModelKind::ResNet18,
        DatasetPreset::Cifar10,
        MethodSpec::SocFlow(SocFlowConfig::full()),
    );
    spec.socs = 60;
    spec.seed = 11;
    let cfg = Workload::model_config(&spec, 8, 0.18);
    let layout = models::grad_layout(&spec.model.layers(cfg));
    let cand = PlanCandidate {
        groups: 12,
        schedule: SyncSchedule::WaitFree,
        bucket_kb: Some(512),
        profiled_beta: None,
    };

    // the same epoch, kept, to count its spans
    let mut tm = TimeModel::new(&spec);
    tm.set_overlap(512, &layout);
    let mapping = integrity_greedy(&ClusterSpec::for_socs(60), 60, 12);
    let cgs = divide_communication_groups(&mapping).unwrap();
    let spans = simulate_socflow_schedule(&tm, &mapping, &cgs, true, SyncSchedule::WaitFree, 1.0)
        .spans
        .len();
    assert!(spans > 1000, "{spans} spans: not the paper-scale candidate");

    let cold = price_plan_uncached(&spec, &layout, &cand);
    let (count, warm) = allocations(|| price_plan_uncached(&spec, &layout, &cand));
    assert_eq!(warm.to_bits(), cold.to_bits());
    assert!(
        count < spans / 4,
        "a warm pricing of {spans} spans allocated {count} times"
    );
}
