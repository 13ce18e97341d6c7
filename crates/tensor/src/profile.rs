//! Opt-in kernel timing counters.
//!
//! Every hot kernel in [`crate::linalg`], [`crate::conv`], [`crate::norm`]
//! and [`crate::quant`] reports its wall-clock time here. Profiling is **off
//! by default** and the disabled path costs a single relaxed atomic load per
//! kernel call, so normal runs (and their byte-identical telemetry traces) are unaffected.
//! Call [`set_enabled`] to start collecting, [`snapshot`] to read the totals
//! and [`reset`] to zero them between measurement windows.
//!
//! Counters are **per-thread** with a fold-on-read: each thread (the
//! coordinator, the engine's replica jobs, and every [`crate::runtime`] pool
//! worker) bumps its own cache line and registers it once in a global list;
//! [`snapshot`] and [`reset`] walk that list under a lock. Hot paths never
//! contend on a shared atomic, so `--profile-kernels` does not serialize the
//! parallel kernels.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The kernel families that are individually attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelOp {
    /// `C = A × B` (dense matmul and its `_into` variants).
    Matmul,
    /// `C = Aᵀ × B` (weight-gradient matmul).
    MatmulAtB,
    /// `C = A × Bᵀ` (conv forward / input-gradient matmul).
    MatmulABt,
    /// Integer `i8×i8→i32` GEMM (the NPU arm's quantized matmul/conv).
    MatmulI8,
    /// Rank-2 transpose.
    Transpose,
    /// im2col patch extraction.
    Im2col,
    /// col2im gradient scatter.
    Col2im,
    /// Fake-quantize (quantize → dequantize) passes.
    Quant,
    /// The direct convolution of a narrow layer: forward, INT8 forward and
    /// backward with no patch matrix ([`crate::conv::ConvPath::Direct`]).
    ConvDirect,
    /// Batch normalisation's sweeps: statistics, normalise, gradient sums
    /// and input gradient ([`crate::norm`]).
    BatchNorm,
}

const OP_COUNT: usize = 10;

/// All attributed kernel families, in reporting order.
pub const ALL_OPS: [KernelOp; OP_COUNT] = [
    KernelOp::Matmul,
    KernelOp::MatmulAtB,
    KernelOp::MatmulABt,
    KernelOp::MatmulI8,
    KernelOp::Transpose,
    KernelOp::Im2col,
    KernelOp::Col2im,
    KernelOp::Quant,
    KernelOp::ConvDirect,
    KernelOp::BatchNorm,
];

impl KernelOp {
    /// Stable snake_case name used in telemetry events and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            KernelOp::Matmul => "matmul",
            KernelOp::MatmulAtB => "matmul_at_b",
            KernelOp::MatmulABt => "matmul_a_bt",
            KernelOp::MatmulI8 => "matmul_i8",
            KernelOp::Transpose => "transpose",
            KernelOp::Im2col => "im2col",
            KernelOp::Col2im => "col2im",
            KernelOp::Quant => "quant",
            KernelOp::ConvDirect => "conv_direct",
            KernelOp::BatchNorm => "batch_norm",
        }
    }

    fn index(self) -> usize {
        match self {
            KernelOp::Matmul => 0,
            KernelOp::MatmulAtB => 1,
            KernelOp::MatmulABt => 2,
            KernelOp::MatmulI8 => 3,
            KernelOp::Transpose => 4,
            KernelOp::Im2col => 5,
            KernelOp::Col2im => 6,
            KernelOp::Quant => 7,
            KernelOp::ConvDirect => 8,
            KernelOp::BatchNorm => 9,
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// One thread's private counters. Atomics so `snapshot` can read them while
/// the owning thread keeps writing; writes are uncontended in practice.
struct ThreadCounters {
    calls: [AtomicU64; OP_COUNT],
    nanos: [AtomicU64; OP_COUNT],
}

impl ThreadCounters {
    fn new() -> ThreadCounters {
        ThreadCounters {
            calls: [const { AtomicU64::new(0) }; OP_COUNT],
            nanos: [const { AtomicU64::new(0) }; OP_COUNT],
        }
    }
}

/// Every thread's counters, in registration order. Entries outlive their
/// threads (the `Arc` keeps a dead thread's totals readable); the list is
/// bounded by the number of distinct threads that ever timed a kernel.
fn registry() -> &'static Mutex<Vec<Arc<ThreadCounters>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadCounters>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: Arc<ThreadCounters> = {
        let counters = Arc::new(ThreadCounters::new());
        registry().lock().unwrap().push(Arc::clone(&counters));
        counters
    };
}

/// Turns kernel timing on or off globally.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether kernel timing is currently collecting.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes all counters on every registered thread (does not change the
/// enabled flag).
pub fn reset() {
    for counters in registry().lock().unwrap().iter() {
        for c in &counters.calls {
            c.store(0, Ordering::Relaxed);
        }
        for n in &counters.nanos {
            n.store(0, Ordering::Relaxed);
        }
    }
}

/// Aggregate time spent in one kernel family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelTotal {
    /// Kernel family name (see [`KernelOp::name`]).
    pub op: &'static str,
    /// Number of timed calls.
    pub calls: u64,
    /// Total wall-clock nanoseconds across those calls.
    pub nanos: u64,
}

/// Reads the current totals for every kernel family (including zero
/// entries), folded across all threads that ever timed a kernel.
pub fn snapshot() -> Vec<KernelTotal> {
    let registry = registry().lock().unwrap();
    ALL_OPS
        .iter()
        .map(|&op| {
            let i = op.index();
            let mut calls = 0u64;
            let mut nanos = 0u64;
            for counters in registry.iter() {
                calls += counters.calls[i].load(Ordering::Relaxed);
                nanos += counters.nanos[i].load(Ordering::Relaxed);
            }
            KernelTotal {
                op: op.name(),
                calls,
                nanos,
            }
        })
        .collect()
}

/// The calls and nanoseconds of every kernel family since `base`, a
/// [`snapshot`] taken earlier, in [`snapshot`]'s order: the totals of one
/// measurement window, each saturating at zero.
pub fn since(base: &[KernelTotal]) -> Vec<KernelTotal> {
    base.iter()
        .zip(snapshot())
        .map(|(b, now)| KernelTotal {
            calls: now.calls.saturating_sub(b.calls),
            nanos: now.nanos.saturating_sub(b.nanos),
            ..now
        })
        .collect()
}

/// RAII guard that attributes the enclosed scope to `op` when profiling is on.
pub(crate) struct Timer {
    op: KernelOp,
    start: Option<Instant>,
    calls: u64,
}

impl Timer {
    /// Times one call of `op`.
    #[inline]
    pub(crate) fn start(op: KernelOp) -> Timer {
        Timer::panel(op, true)
    }

    /// Times one panel of a pass that runs `op` in chunks of its own, on
    /// the lane that runs it: the time is added to `op`, and only the
    /// `first` panel counts a call, so a pass is one call of each op.
    #[inline]
    pub(crate) fn panel(op: KernelOp, first: bool) -> Timer {
        let start = enabled().then(Instant::now);
        let calls = u64::from(first);
        Timer { op, start, calls }
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let i = self.op.index();
            let elapsed = start.elapsed().as_nanos() as u64;
            LOCAL.with(|counters| {
                counters.calls[i].fetch_add(self.calls, Ordering::Relaxed);
                counters.nanos[i].fetch_add(elapsed, Ordering::Relaxed);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the two tests that toggle the global enabled flag.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_by_default_and_counts_when_enabled() {
        let _guard = TEST_LOCK.lock().unwrap();
        assert!(!enabled());
        {
            let _t = Timer::start(KernelOp::Matmul);
        }
        let before = snapshot();
        assert!(before.iter().all(|t| t.calls == 0));

        set_enabled(true);
        reset();
        {
            let _t = Timer::start(KernelOp::Matmul);
        }
        {
            let _t = Timer::start(KernelOp::Quant);
        }
        set_enabled(false);
        let after = snapshot();
        let m = after.iter().find(|t| t.op == "matmul").unwrap();
        assert_eq!(m.calls, 1);
        let q = after.iter().find(|t| t.op == "quant").unwrap();
        assert_eq!(q.calls, 1);
        reset();
    }

    #[test]
    fn folds_counters_across_threads() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    let _t = Timer::start(KernelOp::Transpose);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_enabled(false);
        let after = snapshot();
        let t = after.iter().find(|t| t.op == "transpose").unwrap();
        assert!(t.calls >= 3);
        reset();
    }

    /// A window is the snapshot minus its base, field by field, and never
    /// underflows.
    #[test]
    fn since_subtracts_the_base_and_saturates() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        {
            let _t = Timer::start(KernelOp::Quant);
        }
        set_enabled(false);
        let now = snapshot();
        let zeroed: Vec<KernelTotal> = now
            .iter()
            .map(|t| KernelTotal {
                calls: 0,
                nanos: 0,
                ..*t
            })
            .collect();
        let ahead: Vec<KernelTotal> = now
            .iter()
            .map(|t| KernelTotal {
                calls: t.calls + 1,
                nanos: t.nanos + 1,
                ..*t
            })
            .collect();
        assert_eq!(since(&zeroed), now);
        assert_eq!(since(&now), zeroed);
        assert_eq!(since(&ahead), zeroed);
        reset();
    }
}
