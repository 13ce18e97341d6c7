//! The lowering keeps no patch gradient between steps, the direct path
//! nothing beside its padded input, and an evaluation forward of either
//! makes no patch matrix and no padded batch, in FP32 and in INT8.
//!
//! This test binary counts, through its own `#[global_allocator]`, the
//! buffers of a few exact sizes: the patch matrices of ResNet-18's lowered
//! 3×3 convolutions at the geometry of the benchmark's `train_ring_fp32`
//! workload (width 0.18, 8×8 CIFAR-10 inputs, batches of 64), and the same
//! layers' patch matrices at the engine's 128-sample evaluation shard —
//! as f32 (or `i32`, the same bytes) and as INT8 values.
//!
//! A training forward caches each lowered layer's patch matrix for its
//! backward, so after a step the step scratch ([`socflow_tensor::pool`])
//! parks one buffer of that size per layer that has it. A layer's patch
//! gradient `gmat × W` is exactly as large; the backward computes it a few
//! samples at a time in a thread-local panel, so no further buffer of the
//! size may be live. An INT8 step quantizes its patch rows a panel at a
//! time in thread-local scratch too, so it parks the same buffers and no
//! patch-sized INT8 one. An evaluation forward of 128 samples, FP32 or
//! INT8, must make no allocation of any of those layers' patch-matrix
//! sizes, of either element width, and none as large as the widest one.
//!
//! The direct path is watched on LeNet-5 at the geometry of the benchmark's
//! `train_resilient` workload (FMNIST, width 0.5, 8×8 inputs, batches of
//! 64), whose two convolutions both run direct. A training forward caches
//! each one's input inside its zero border, f32, so after a step, FP32 or
//! INT8, exactly one buffer of that size is live per layer, and no INT8
//! copy of it: the INT8 forward quantizes one padded sample at a time in
//! thread-local scratch. An evaluation of 128 samples, FP32 or INT8, pads
//! one sample at a time in thread-local scratch, so it makes no buffer of
//! either layer's padded-batch size, f32 or INT8.
//!
//! The pool is pinned to one thread, so every step runs here. One test
//! only: the allocator is global to the process.

use rand::rngs::StdRng;
use rand::SeedableRng;
use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
use socflow::engine::Workload;
use socflow_data::{Batch, DatasetPreset};
use socflow_nn::models::{LayerKind, LayerSpec, ModelKind};
use socflow_nn::optim::Sgd;
use socflow_nn::{loss, Mode, Network, Precision};
use socflow_tensor::conv::{ConvParams, ConvPath, LiveTaps};
use socflow_tensor::{pool, runtime, Shape};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering::Relaxed};

/// Slots for the watched sizes, in bytes; `0` is a free slot.
const SLOTS: usize = 32;
static WATCHED: [AtomicUsize; SLOTS] = [const { AtomicUsize::new(0) }; SLOTS];
/// Live buffers of each watched size.
static LIVE: [AtomicIsize; SLOTS] = [const { AtomicIsize::new(0) }; SLOTS];
/// Allocations of each watched size made while armed.
static MADE: [AtomicUsize; SLOTS] = [const { AtomicUsize::new(0) }; SLOTS];
/// Whether allocations are being counted in `MADE` and `LARGEST`.
static ARMED: AtomicBool = AtomicBool::new(false);
/// The largest allocation made while armed.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// Books `count` buffers of `size` bytes — without allocating.
fn book(size: usize, count: isize) {
    let armed = count > 0 && ARMED.load(Relaxed);
    if armed {
        LARGEST.fetch_max(size, Relaxed);
    }
    for (slot, watched) in WATCHED.iter().enumerate() {
        if watched.load(Relaxed) == size {
            LIVE[slot].fetch_add(count, Relaxed);
            if armed {
                MADE[slot].fetch_add(1, Relaxed);
            }
        }
    }
}

struct Tracking;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// bookkeeping only touches atomics.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(layout.size(), 1);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        book(layout.size(), 1);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(layout.size(), -1);
        book(new_size, 1);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        book(layout.size(), -1);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// Starts watching buffers of `size` bytes; returns the slot.
fn watch(size: usize) -> usize {
    let slot = WATCHED
        .iter()
        .position(|w| w.load(Relaxed) == size || w.load(Relaxed) == 0)
        .expect("a free slot");
    WATCHED[slot].store(size, Relaxed);
    slot
}

/// The lowered convolutions of a layer table whose live window is a whole
/// `k × k` kernel, `k > 1`: `(name, patch matrix bytes at a batch of one)`.
/// Their patch matrices are `k²` inputs wide, so no activation shares their
/// size; a 1×1 kernel's or a 1×1 map's patch matrix is as large as an
/// activation, and a 2×2 window's on a 2×2 map as large as its input.
fn widened_convs(table: &[LayerSpec], out: &mut Vec<(String, usize)>) {
    for layer in table {
        match &layer.kind {
            &LayerKind::Conv {
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
            } => {
                let [c, h, w] = layer.input;
                let p = ConvParams::new(stride, padding);
                let input = Shape::from([1, c, h, w]);
                let weight = Shape::from([out_channels, in_channels, kernel, kernel]);
                let live = LiveTaps::of(h, w, kernel, kernel, p);
                let lowered = ConvPath::of(&input, &weight, p) == ConvPath::Lowered;
                if lowered && kernel > 1 && live.is_full() {
                    let rows = p.out_size(h, kernel) * p.out_size(w, kernel);
                    let name = format!("{c}->{out_channels} k{kernel} s{stride} on {h}x{w}");
                    out.push((name, rows * c * live.taps() * 4));
                }
            }
            LayerKind::Residual { body, shortcut } => {
                widened_convs(body, out);
                widened_convs(shortcut.as_deref().unwrap_or_default(), out);
            }
            _ => {}
        }
    }
}

/// The floats of one sample's input inside its zero border,
/// `c·(h + 2p)·(w + 2p)`, of every convolution of a flat layer table, with
/// the path it runs on.
fn padded_inputs(table: &[LayerSpec]) -> Vec<(ConvPath, usize)> {
    let conv = |layer: &LayerSpec| match layer.kind {
        LayerKind::Conv {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
        } => {
            let [c, h, w] = layer.input;
            let input = Shape::from([1, c, h, w]);
            let weight = Shape::from([out_channels, in_channels, kernel, kernel]);
            let path = ConvPath::of(&input, &weight, ConvParams::new(stride, padding));
            Some((path, c * (h + 2 * padding) * (w + 2 * padding)))
        }
        _ => None,
    };
    table.iter().filter_map(conv).collect()
}

/// One SGD step per batch, as the engine's replica takes it.
fn train(net: &mut Network, opt: &mut Sgd, batches: &[Batch], precision: Precision) {
    for b in batches {
        let mode = Mode::train(precision);
        let logits = net.forward(&b.images, mode);
        let (_, grad) = loss::softmax_cross_entropy(&logits, &b.labels);
        pool::recycle(logits);
        net.backward_parameters(&grad, mode);
        pool::recycle(grad);
        opt.step(net);
    }
}

/// Allocations made in slot `slot` while armed, so far.
fn made(slot: usize) -> usize {
    MADE[slot].load(Relaxed)
}

#[test]
fn a_step_keeps_no_patch_gradient_and_an_evaluation_no_patch_matrix() {
    runtime::set_threads(1);
    let mut spec = TrainJobSpec::new(
        ModelKind::ResNet18,
        DatasetPreset::Cifar10,
        MethodSpec::Ring,
    );
    spec.seed = 11;
    let batch = spec.global_batch;
    assert_eq!(batch, 64);
    // 512 training samples leave the 128 test samples of one shard
    let workload = Workload::standard(&spec, 8 * batch, 8, 0.18);
    let mut convs = Vec::new();
    widened_convs(&spec.model.layers(workload.model_cfg), &mut convs);
    assert_eq!(
        convs.len(),
        13,
        "the stem and the 3x3 convolutions of stages 1-3"
    );

    // a training step: one parked patch matrix per layer of a size, and
    // nothing more of that size
    let mut cached: BTreeMap<usize, usize> = BTreeMap::new();
    for &(_, bytes) in &convs {
        *cached.entry(batch * bytes).or_default() += 1;
    }
    let slots: Vec<(usize, usize, usize)> = cached
        .iter()
        .map(|(&size, &layers)| (watch(size), size, layers))
        .collect();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut net = spec.model.build(workload.model_cfg, &mut rng);
    let batches: Vec<Batch> = workload.train.epoch_batches(batch, &mut rng).collect();
    let mut opt = Sgd::new(spec.lr, 0.9, 5e-4);
    train(&mut net, &mut opt, &batches, Precision::Fp32);
    for &(slot, size, layers) in &slots {
        let live = LIVE[slot].load(Relaxed);
        println!("{size} bytes: {live} live, the forward caches of {layers} layers");
        assert_eq!(
            live, layers as isize,
            "after a step, {live} buffers of {size} bytes are live: the patch matrices \
             the forward cached are {layers}, and a patch gradient would be one more"
        );
    }

    // an evaluation forward of the engine's 128-sample shard
    let shard: Vec<usize> = (0..128).collect();
    let eval = workload.test.batch(&shard);
    let widened: Vec<(&str, usize, usize)> = convs
        .iter()
        .map(|(name, bytes)| (name.as_str(), 128 * bytes, watch(128 * bytes)))
        .collect();
    let widest = widened.iter().map(|&(_, bytes, _)| bytes).max().unwrap();
    ARMED.store(true, Relaxed);
    let logits = net.forward(&eval.images, Mode::eval(Precision::Fp32));
    ARMED.store(false, Relaxed);
    assert_eq!(logits.shape().dims()[0], 128);
    for &(name, bytes, slot) in &widened {
        let made = MADE[slot].load(Relaxed);
        assert_eq!(
            made, 0,
            "a 128-sample evaluation made {made} buffers of {bytes} bytes, the patch matrix of {name}"
        );
    }
    let largest = LARGEST.load(Relaxed);
    println!(
        "the largest allocation of the evaluation: {largest} bytes, widest patch matrix {widest}"
    );
    assert!(
        largest < widest,
        "a 128-sample evaluation allocated {largest} bytes at once, the widest patch matrix is {widest}"
    );

    // the INT8 arm: a step parks the same patch matrices — dequantized —
    // and no INT8 copy of one (an INT8 matrix as large as another layer's
    // f32 one would show in that layer's count)
    let quantized: Vec<(usize, usize)> = cached
        .keys()
        .map(|size| size / 4)
        .filter(|size| !cached.contains_key(size))
        .map(|size| (watch(size), size))
        .collect();
    assert!(quantized.len() >= 3, "INT8 patch sizes of their own");
    train(&mut net, &mut opt, &batches, Precision::Int8);
    for &(slot, size, layers) in &slots {
        let live = LIVE[slot].load(Relaxed);
        println!("INT8: {size} bytes: {live} live, the forward caches of {layers} layers");
        assert_eq!(
            live, layers as isize,
            "after an INT8 step, {live} buffers of {size} bytes are live, the cached patch \
             matrices are {layers}"
        );
    }
    for &(slot, size) in &quantized {
        let live = LIVE[slot].load(Relaxed);
        assert_eq!(
            live, 0,
            "after an INT8 step, {live} buffers of {size} bytes are live: INT8 patch matrices"
        );
    }

    // and an INT8 evaluation of the same shard: no patch matrix of either
    // width, nothing as large as the widest
    let quantized = convs
        .iter()
        .map(|(name, bytes)| (name.as_str(), 128 * bytes / 4, watch(128 * bytes / 4)));
    let watched: Vec<(&str, usize, usize)> = widened.iter().copied().chain(quantized).collect();
    let before: Vec<usize> = watched.iter().map(|&(_, _, slot)| made(slot)).collect();
    LARGEST.store(0, Relaxed);
    ARMED.store(true, Relaxed);
    let logits = net.forward(&eval.images, Mode::eval(Precision::Int8));
    ARMED.store(false, Relaxed);
    assert_eq!(logits.shape().dims()[0], 128);
    for (&(name, bytes, slot), before) in watched.iter().zip(before) {
        let made = made(slot) - before;
        assert_eq!(
            made, 0,
            "a 128-sample INT8 evaluation made {made} buffers of {bytes} bytes, the f32, \
             i32 or INT8 patch matrix of {name}"
        );
    }
    let largest = LARGEST.load(Relaxed);
    println!("the largest allocation of the INT8 evaluation: {largest} bytes");
    assert!(
        largest < widest,
        "a 128-sample INT8 evaluation allocated {largest} bytes at once, the widest patch \
         matrix is {widest}"
    );

    // the direct path: LeNet-5 as `train_resilient` trains it
    let mut spec = TrainJobSpec::new(
        ModelKind::LeNet5,
        DatasetPreset::FashionMnist,
        MethodSpec::SocFlow(SocFlowConfig::with_groups(8)),
    );
    spec.seed = 11;
    assert_eq!(spec.global_batch, batch);
    let workload = Workload::standard(&spec, 8 * batch, 8, 0.5);
    let layers = padded_inputs(&spec.model.layers(workload.model_cfg));
    assert!(
        layers.len() == 2 && layers.iter().all(|&(path, _)| path == ConvPath::Direct),
        "LeNet-5's two convolutions run direct: {layers:?}"
    );
    // each layer's padded batch, as f32 and as INT8 values, in slots that
    // no earlier buffer fills
    let padded: Vec<(usize, usize, usize)> = layers
        .iter()
        .map(|&(_, floats)| {
            (
                batch * floats,
                watch(4 * batch * floats),
                watch(batch * floats),
            )
        })
        .collect();
    for &(floats, f32s, i8s) in &padded {
        let live = (LIVE[f32s].load(Relaxed), LIVE[i8s].load(Relaxed));
        assert_eq!(live, (0, 0), "{floats} elements: live before LeNet-5");
    }
    let mut net = spec.model.build(workload.model_cfg, &mut rng);
    let batches: Vec<Batch> = workload.train.epoch_batches(batch, &mut rng).collect();
    let mut opt = Sgd::new(spec.lr, 0.9, 5e-4);
    for precision in [Precision::Fp32, Precision::Int8] {
        train(&mut net, &mut opt, &batches, precision);
        for &(floats, f32s, i8s) in &padded {
            let live = (LIVE[f32s].load(Relaxed), LIVE[i8s].load(Relaxed));
            println!("{precision:?}: padded batch of {floats}: (f32, INT8) {live:?} live");
            assert_eq!(
                live,
                (1, 0),
                "after a {precision:?} step, (f32, INT8) buffers of a direct layer's padded \
                 batch ({floats} elements) live: the forward caches one f32 one"
            );
        }
    }

    // and a 128-sample evaluation at both precisions pads no batch
    let eval = workload.test.batch(&shard);
    let watched: Vec<(usize, usize)> = layers
        .iter()
        .flat_map(|&(_, floats)| [4, 1].map(|width| (width, watch(128 * floats * width))))
        .collect();
    let before: Vec<usize> = watched.iter().map(|&(_, slot)| made(slot)).collect();
    ARMED.store(true, Relaxed);
    for precision in [Precision::Fp32, Precision::Int8] {
        let logits = net.forward(&eval.images, Mode::eval(precision));
        assert_eq!(logits.shape().dims()[0], 128);
    }
    ARMED.store(false, Relaxed);
    for (&(width, slot), before) in watched.iter().zip(before) {
        let made = made(slot) - before;
        assert_eq!(
            made,
            0,
            "128-sample evaluations made {made} buffers of {} bytes, a direct layer's \
             padded batch of {}-byte elements",
            WATCHED[slot].load(Relaxed),
            width
        );
    }
}
