//! A guard against model-sized copies coming back into the training loop.
//!
//! This test binary counts, through its own `#[global_allocator]`, every
//! allocation of at least the model's size (`param_count × 4` bytes: one
//! flat copy of the weights, of a momentum family, or of the gradients),
//! and a sink snapshots the count at each epoch's end. The first epoch may
//! allocate what it likes — networks, momentum, scratch buffers growing to
//! their working size. From the second epoch on a SoCFlow run steps,
//! merges, aggregates and evaluates in storage it already owns, so the
//! count must not move. Beside the floor the allocator watches a few exact
//! sizes, far below the model's — buffers that are written on every forward
//! or backward and so must be sized once, in the first epoch: the live-tap
//! weight views a convolution keeps in its `ConvScratch` when its map is
//! smaller than its kernel's reach; the halo, the zero-bordered copy of one
//! sample that `im2col`/`col2im` gather from and scatter into; and the
//! argmax indices a max-pool layer keeps between its passes. The halo is a
//! thread-local of the tensor crate, not a field of the layer: the
//! per-sample bodies that use it run on pool workers, several samples of one
//! call at a time, so it belongs to whichever thread runs the body, and it
//! grows — to exactly the largest layer's planes — the first time that
//! thread meets the layer. A pool layer's output and input gradient are not
//! on the list: `Layer::forward`/`backward` return them by value, so like
//! every layer's they are allocated per call; and on VGG-11, whose widths
//! double from stage to stage, an argmax buffer (8 bytes an element) is
//! exactly as large as the next convolution's output (twice the channels, 4
//! bytes), which no exact-size watch can tell apart — so the argmax sizes
//! are watched on LeNet-5, where they are nobody else's. One `#[test]`
//! only: the allocator is global to the process. The pool is pinned to one
//! thread: the kernels keep thread-local scratch, and with several workers
//! it is scheduling noise which of them first meets a kernel shape — in
//! whichever epoch that happens — whereas what the training stack itself
//! copies does not depend on the pool size.

use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
use socflow::engine::{Engine, Workload};
use socflow::options::RunOptions;
use socflow_data::DatasetPreset;
use socflow_nn::models::ModelKind;
use socflow_telemetry::{Event, EventSink};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Distinct large sizes the table can hold; more than any run here makes.
const SLOTS: usize = 128;

/// Sizes at or above which an allocation is recorded (`usize::MAX`: off).
static FLOOR: AtomicUsize = AtomicUsize::new(usize::MAX);
/// Exact sizes recorded whatever the floor (0: unused).
static WATCH: [AtomicUsize; 16] = [const { AtomicUsize::new(0) }; 16];
/// `(size, count)` per distinct recorded size; a size of 0 is a free slot.
static TABLE: [(AtomicUsize, AtomicUsize); SLOTS] =
    [const { (AtomicUsize::new(0), AtomicUsize::new(0)) }; SLOTS];

/// Counts one allocation of `size` bytes — without allocating.
fn record(size: usize) {
    if size < FLOOR.load(Relaxed) && WATCH.iter().all(|w| w.load(Relaxed) != size) {
        return;
    }
    for (slot, count) in &TABLE {
        let held = match slot.compare_exchange(0, size, Relaxed, Relaxed) {
            Ok(_) => size,
            Err(held) => held,
        };
        if held == size {
            count.fetch_add(1, Relaxed);
            return;
        }
    }
    panic!("more than {SLOTS} distinct large allocation sizes");
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
        if new_size > layout.size() {
            record(new_size); // a buffer growing, e.g. a `Vec` being extended
        }
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `size → count` of every large allocation so far.
fn snapshot() -> Vec<(usize, usize)> {
    TABLE
        .iter()
        .map(|(size, count)| (size.load(Relaxed), count.load(Relaxed)))
        .filter(|&(size, _)| size > 0)
        .collect()
}

/// Snapshots the allocation table as each epoch completes.
#[derive(Debug, Default)]
struct EpochMarks(Mutex<Vec<Vec<(usize, usize)>>>);

impl EventSink for EpochMarks {
    fn emit(&self, event: &Event) {
        if matches!(event, Event::EpochCompleted { .. }) {
            self.0.lock().unwrap().push(snapshot());
        }
    }
}

/// What a large allocation of `size` bytes most likely is, for a model of
/// `model` bytes — the class of call site to go looking for.
fn class_of(size: usize, model: usize) -> &'static str {
    if (0.99..=1.01).contains(&(size as f64 / model as f64)) {
        "exactly one model: flat_weights / flat_velocity / a staging vector / a fresh mean"
    } else {
        "not one model: a flat vector grown by extend_from_slice, or an activation, \
         batch or scratch buffer that outweighs this model"
    }
}

/// Runs the job and asserts that no allocation of at least the model's
/// size, or of exactly one of the `watch` sizes, happens after the first
/// epoch — and that the first epoch did make every watched one.
fn assert_steady_state(label: &str, spec: TrainJobSpec, workload: Workload, watch: &[usize]) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
    let model = 4 * spec.model.build(workload.model_cfg, &mut rng).param_count();
    let marks = Arc::new(EpochMarks::default());
    let options = RunOptions {
        sink: Some(marks.clone()),
        ..RunOptions::default()
    };
    let mut engine = Engine::new(spec, workload, options);
    assert!(watch.len() <= WATCH.len(), "more sizes than watch slots");
    for (slot, &size) in WATCH.iter().zip(watch) {
        slot.store(size, Relaxed);
    }
    FLOOR.store(model, Relaxed);
    let result = engine.run();
    FLOOR.store(usize::MAX, Relaxed);
    WATCH.iter().for_each(|slot| slot.store(0, Relaxed));
    assert_eq!(result.epoch_accuracy.len(), spec.epochs);

    let marks = marks.0.lock().unwrap();
    assert_eq!(marks.len(), spec.epochs);
    let count_at = |mark: &[(usize, usize)], size| {
        let held = mark.iter().find(|&&(s, _)| s == size);
        held.map_or(0, |&(_, count)| count)
    };
    let warm: usize = marks[0].iter().map(|&(_, count)| count).sum();
    println!(
        "{label}: model {model} B; {warm} allocations of at least that (or of a watched size) \
         in epoch 1, of {} distinct sizes",
        marks[0].len()
    );
    for &size in watch {
        let seen = count_at(&marks[0], size);
        assert!(seen > 0, "{label}: no allocation of the watched {size} B");
    }
    let mut late = Vec::new();
    for (epoch, pair) in marks.windows(2).enumerate() {
        for &(size, count) in &pair[1] {
            let new = count - count_at(&pair[0], size);
            if new > 0 {
                late.push(format!(
                    "  epoch {}: {new} x {size} B ({:.2} x model) - {}",
                    epoch + 2,
                    size as f64 / model as f64,
                    class_of(size, model)
                ));
            }
        }
    }
    assert!(
        late.is_empty(),
        "{label}: allocations of at least the model's {model} B, or of a watched size \
         {watch:?}, after the first epoch:\n{}",
        late.join("\n")
    );
}

#[test]
fn nothing_model_sized_is_allocated_after_the_first_epoch() {
    socflow_tensor::runtime::set_threads(1);
    // LeNet, two mixed groups. The model is 20 KB, so every batch the run
    // forwards — training, alpha probe, evaluation — is kept to 16 samples:
    // a bigger one's activations would outweigh the model.
    let mut spec = TrainJobSpec::new(
        ModelKind::LeNet5,
        DatasetPreset::FashionMnist,
        MethodSpec::SocFlow(SocFlowConfig::with_groups(2)),
    );
    spec.socs = 8;
    spec.epochs = 4;
    spec.global_batch = 16;
    spec.seed = 11;
    let mut workload = Workload::standard(&spec, 128, 8, 0.5);
    workload.test = workload.test.subset(&(0..16).collect::<Vec<_>>());
    workload.probe = workload.test.head_batch(16);
    // Its convolutions (1 → 3 channels on 8×8, 3 → 8 on 4×4, both padded by
    // one) gather from halos of 1·10·10 and 3·6·6 floats, and its first pool
    // (3 channels, 8×8 → 4×4) keeps a `usize` per output element of the 6
    // samples of a step the INT8 arm trains on. (The FP32 arm's 10 samples
    // make that buffer as large as a 10-sample input batch, and the second
    // pool's are as large as other activations: not watchable. An eval
    // forward's indices are nobody's to keep and are allocated per call.)
    let pool = 3 * 4 * 4 * std::mem::size_of::<usize>();
    let watch = [halo_bytes(1, 8), halo_bytes(3, 4), 6 * pool];
    assert_steady_state("lenet5, 2 mixed groups", spec, workload, &watch);

    // VGG-11, four mixed groups, 160 test samples: evaluation runs in two
    // shards. The model is 1.8 MB and no activation comes near it. On 8×8
    // inputs its last four convolutions run on 1×1 maps, where one tap of
    // nine is live: each keeps an f32 `(oc, ic)` view of its weights, a
    // same-sized live weight gradient and an i8 view for the INT8 arm.
    let mut spec = TrainJobSpec::new(
        ModelKind::Vgg11,
        DatasetPreset::Cifar10,
        MethodSpec::SocFlow(SocFlowConfig::with_groups(4)),
    );
    spec.socs = 8;
    spec.epochs = 3;
    spec.seed = 11;
    let workload = Workload::standard(&spec, 640, 8, 0.22);
    assert!(workload.test.len() > 128);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
    let mut convs = Vec::new();
    let net = spec.model.build(workload.model_cfg, &mut rng);
    net.for_each_parameter(|p| {
        if let [oc, ic, 3, 3] = *p.value.shape().dims() {
            convs.push(oc * ic);
        }
    });
    assert_eq!(convs.len(), 8);
    let mut watch: Vec<usize> = convs[4..].iter().flat_map(|&n| [4 * n, n]).collect();
    // The first convolution's halo: 3 channels of 8×8. The thread's halo is
    // LeNet's by now, so this is it growing once more.
    watch.push(halo_bytes(3, 8));
    watch.sort_unstable();
    watch.dedup();
    assert_steady_state("vgg11, 4 mixed groups", spec, workload, &watch);
}

/// Bytes of the halo a padding-1 convolution over `c` channels of
/// `size × size` asks for: the zero-bordered planes and the one float a
/// 4-lane move may read past them.
fn halo_bytes(c: usize, size: usize) -> usize {
    4 * (c * (size + 2) * (size + 2) + 1)
}
