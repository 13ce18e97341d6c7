//! Deterministic intra-op parallel runtime.
//!
//! A persistent worker pool shared by every kernel in the process. The pool
//! is spawned once (first use), sized by the `SOCFLOW_THREADS` environment
//! variable (or [`set_threads`], e.g. from a `--threads` CLI flag), and
//! reused for the lifetime of the process — no per-epoch thread spawn churn.
//!
//! ## Determinism contract
//!
//! The core primitive, [`parallel_for_chunks`], runs `body(0..chunks)` where
//! the *chunk decomposition is chosen by the caller from the problem shape
//! alone* — never from the thread count. Each chunk writes a disjoint,
//! statically assigned region of the output, and every kernel built on top
//! accumulates within a chunk in exactly the same order as the
//! single-threaded code. Which OS thread executes a chunk is scheduling
//! noise; the bytes produced are identical for 1, 2, or N threads. This is
//! what lets the engine's byte-exact determinism and resume guarantees
//! survive parallel execution (property-tested in `tests/`).
//!
//! ## Blocking and re-entrancy
//!
//! The submitting thread always participates: it claims chunks itself and
//! only then waits for stragglers, so a task completes even when every
//! worker is busy. Calls made *from* a worker thread (nested parallelism)
//! run all chunks inline, in order, on that worker — same partition, same
//! bytes, no deadlock.
//!
//! ## Idle lanes: spin, then park
//!
//! A parked thread's wake-up costs about as much as a kernel lasts (a 128³
//! product is 86 µs on one thread; with workers that park at once it is
//! 83 µs on two, with workers that are still polling 47–64 µs), and inside a
//! training step the serial stretch between two parallel regions is short
//! (median 49 µs, 99.6 % under 1 ms in a ResNet-18 step; the numbers are
//! beside the constant). So a worker that finds the queue empty polls it
//! for up to `SPIN` = 1 ms before it blocks on the condvar: `spin_loop`
//! hints for the first `SPIN_BUSY` = 50 µs, then `yield_now` between polls,
//! so that on an oversubscribed host (more lanes than cores) whoever is
//! runnable gets the core. Both are constants; there is no switch. The
//! price is CPU time, not wall time: a lane that polls is a lane the
//! process is charged for. A submitter waiting for its last straggler
//! chunk polls `pending` the same way before it blocks. Only workers
//! inside the budget poll; the surplus left by a shrinking [`set_threads`]
//! parks at once. The poll reads a relaxed mirror of the queue length,
//! which is a hint and nothing more: a handle only ever changes hands
//! under the queue lock. A polling lane takes that lock with `try_lock`
//! only, and polls on when somebody else holds it or was quicker to the
//! handle: several pollers never queue up on the lock behind one push. Only
//! a lane on its way to sleep waits for the lock.
//!
//! No wake-up is lost, and none is paid for nothing. A worker registers as
//! a sleeper under the queue lock, after looking at the queue once more;
//! a submitter pushes under the same lock and reads the sleeper count
//! before it lets go — so either the worker saw the handle or the submitter
//! saw the sleeper, and only then does it notify. The submitter's own wait
//! is the same protocol over `done` with `pending` in the queue's place.
//! [`PoolStats::parks`] and [`PoolStats::wakes`] count how often either
//! happened. Which lane runs a chunk was always scheduling noise, so how an
//! idle lane waits cannot reach the bytes.
//!
//! ## No allocation
//!
//! A parallel call allocates nothing: its task lives on the submitter's
//! stack, the queue holds pointers to it, and the submitter takes the ones
//! nobody picked up back out before it returns. A kernel inside a training
//! step therefore costs the heap nothing at any pool size, and a busy pool
//! does not pile finished tasks' handles up in the queue.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, TryLockError};
use std::time::{Duration, Instant};

/// How long an idle lane polls before it blocks. From the gaps between one
/// parallel region's end and the next one's start on the submitting thread
/// of `train --model resnet18 --method ring` (64-sample steps at the CLI's
/// width, two pool threads, 3,749 regions): median 49 µs, p90 409 µs, p99
/// 870 µs, 99.6 % under 1 ms, longest 1.8 ms. The same run's wall time
/// against the bound, medians of seven interleaved runs: 0.930 s at 0
/// (park at once), 0.870 s at 200 µs, 0.850 s at 500 µs, 0.830 s at 1 ms,
/// 0.842 s at 2 ms.
const SPIN: Duration = Duration::from_micros(1000);

/// The part of [`SPIN`] polled with `spin_loop` hints before `yield_now`
/// takes over: half the gaps above end inside it, and past it a lane that
/// shares its core (more lanes than cores, or a test harness's threads)
/// hands the core over between polls. On two idle cores the split makes no
/// difference to the run above (0, 50, 200 and 1000 µs: 0.830, 0.830,
/// 0.837, 0.844 s).
const SPIN_BUSY: Duration = Duration::from_micros(50);

/// Polls `ready` until it holds (`true`) or [`SPIN`] has passed (`false`).
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let t0 = Instant::now();
    loop {
        if ready() {
            return true;
        }
        let waited = t0.elapsed();
        if waited >= SPIN {
            return false;
        }
        if waited < SPIN_BUSY {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// One in-flight `parallel_for_chunks` call, on its submitter's stack.
/// Workers claim chunk indices from `next`; whoever brings `pending` to
/// zero wakes the submitter.
struct Task {
    /// Type- and lifetime-erased pointer to the caller's chunk body. Safety:
    /// the submitting thread owns the referent and does not return from
    /// [`parallel_for_chunks`] until `pending == 0`, so the pointer is live
    /// whenever a worker dereferences it.
    body: *const (dyn Fn(usize) + Sync),
    chunks: usize,
    next: AtomicUsize,
    /// Chunks not yet finished plus [`Handle`]s not yet retired: what the
    /// submitter waits for, because either can still reach this task.
    pending: AtomicUsize,
}

/// A pointer to a [`Task`] in the pool's queue or in a worker's hands.
///
/// The task counts every handle in `pending` from before it is queued until
/// it is retired — by the worker that popped it, after its last access, or
/// by the submitter taking it back out of the queue — and the submitter does
/// not leave [`parallel_for_chunks`] while `pending > 0`. So a handle never
/// outlives its task.
struct Handle(*const Task);

// Safety: the pointee is Sync (below) and outlives the handle (above).
unsafe impl Send for Handle {}

// Safety: `body` is only dereferenced while the submitter blocks in
// `parallel_for_chunks` (see `Task::body`); all other fields are Sync.
unsafe impl Sync for Task {}

impl Task {
    /// Claims and runs chunks until none are left, counting them in `ran`.
    /// The count is the caller's to [`settle`](Task::settle), once: a
    /// shared counter touched per chunk costs a region of sixty-four
    /// few-hundred-nanosecond chunks (one `im2col` sample each) more than
    /// the chunks themselves.
    fn help(&self, pool: &Pool, ran: &Cell<usize>) {
        let timing = crate::profile::enabled();
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                return;
            }
            let t0 = timing.then(Instant::now);
            // Safety: claim succeeded, so the submitter is still waiting
            // and `body` is live.
            unsafe { (*self.body)(i) };
            if let Some(t0) = t0 {
                pool.busy_nanos
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            ran.set(ran.get() + 1);
        }
    }

    /// Takes `n` finished chunks or retired handles off `pending` and wakes
    /// the submitter if that was the last of them. The decrement is the
    /// last access to `self`: once `pending` is zero the task may be gone,
    /// so the wake-up goes through the pool.
    fn settle(&self, pool: &Pool, n: usize) {
        if self.pending.fetch_sub(n, Ordering::AcqRel) == n {
            // A submitter registers under this lock after reading
            // `pending > 0`: it either reads the zero or is counted here.
            if *pool.done() > 0 {
                pool.wakes.fetch_add(1, Ordering::Relaxed);
                pool.done_cv.notify_all();
            }
        }
    }
}

/// What the queue lock guards.
struct Queue {
    /// Tasks that want helpers, first in first out.
    handles: VecDeque<Handle>,
    /// Workers blocked on `work_cv`.
    sleepers: usize,
}

/// Pool shared state: the queue, plus counters.
struct Pool {
    queue: Mutex<Queue>,
    work_cv: Condvar,
    /// `queue.handles.len()` as of the last change, for polling lanes: a
    /// hint that is worth taking the lock for, never a claim on a handle.
    queued: AtomicUsize,
    /// Where submitters wait for their task's `pending` to reach zero, and
    /// how many of them are blocked there. One pair for the pool, not one
    /// per task: a waker must not touch a task that may already be gone.
    done: Mutex<usize>,
    done_cv: Condvar,
    /// Worker-participation budget (what [`threads`] reports). Workers
    /// beyond this limit exist but stay parked.
    target: AtomicUsize,
    /// Workers actually spawned so far (pool only ever grows).
    spawned: Mutex<usize>,
    // Cumulative counters since process start / last `reset_stats`.
    tasks: AtomicU64,
    chunks: AtomicU64,
    jobs: AtomicU64,
    busy_nanos: AtomicU64,
    wall_nanos: AtomicU64,
    parks: AtomicU64,
    wakes: AtomicU64,
}

impl Pool {
    /// The queue, locked. Chunk bodies run outside the pool's locks and
    /// every update under one leaves its data valid, so a poisoned lock is
    /// taken as it is — also by `Completion::drop`, which must not panic.
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The queue if nobody holds its lock right now.
    fn try_queue(&self) -> Option<MutexGuard<'_, Queue>> {
        match self.queue.try_lock() {
            Ok(q) => Some(q),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// The count of submitters blocked on `done_cv`, locked.
    fn done(&self) -> MutexGuard<'_, usize> {
        self.done.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes the first handle out, if there is one.
    fn pop(&self, q: &mut Queue) -> Option<Handle> {
        let handle = q.handles.pop_front();
        self.queued.store(q.handles.len(), Ordering::Relaxed);
        handle
    }
}

/// Handles the queue has room for from the start, so that queueing one
/// does not allocate: a submitter has fewer than [`threads`] of them out
/// per nesting level, and how many of those are still unclaimed when the
/// next call queues more is a race — which a count of allocations must not
/// see. Hundreds of threads submitting at once would still grow the queue.
const QUEUE_SLOTS: usize = 1024;

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// True on pool worker threads; makes nested parallel calls run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn env_threads() -> usize {
    std::env::var("SOCFLOW_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

fn pool() -> &'static Pool {
    let pool = POOL.get_or_init(|| Pool {
        queue: Mutex::new(Queue {
            handles: VecDeque::with_capacity(QUEUE_SLOTS),
            sleepers: 0,
        }),
        work_cv: Condvar::new(),
        queued: AtomicUsize::new(0),
        done: Mutex::new(0),
        done_cv: Condvar::new(),
        target: AtomicUsize::new(env_threads()),
        spawned: Mutex::new(0),
        tasks: AtomicU64::new(0),
        chunks: AtomicU64::new(0),
        jobs: AtomicU64::new(0),
        busy_nanos: AtomicU64::new(0),
        wall_nanos: AtomicU64::new(0),
        parks: AtomicU64::new(0),
        wakes: AtomicU64::new(0),
    });
    ensure_workers(pool);
    pool
}

/// Spawns workers up to `target - 1` (the submitting thread is the N-th
/// lane). Workers are never torn down; shrinking the target leaves the
/// surplus parked on the queue condvar.
fn ensure_workers(pool: &'static Pool) {
    let want = pool.target.load(Ordering::Relaxed).saturating_sub(1);
    let mut spawned = pool.spawned.lock().unwrap();
    while *spawned < want {
        let id = *spawned;
        std::thread::Builder::new()
            .name(format!("socflow-worker-{id}"))
            .spawn(move || worker_loop(pool, id))
            .expect("spawn socflow worker");
        *spawned += 1;
    }
}

fn worker_loop(pool: &'static Pool, id: usize) {
    IN_WORKER.with(|f| f.set(true));
    loop {
        let handle = next_handle(pool, id);
        // Safety: the task counts this handle until `settle` below.
        let task = unsafe { &*handle.0 };
        let ran = Cell::new(0);
        task.help(pool, &ran);
        // the chunks this lane ran, and its handle
        task.settle(pool, ran.get() + 1);
    }
}

/// Waits for a handle: polling first if worker `id` is lane `id + 1` of the
/// budget, asleep on the queue condvar otherwise or once [`SPIN`] is up.
fn next_handle(pool: &Pool, id: usize) -> Handle {
    loop {
        let polls = id + 1 < pool.target.load(Ordering::Relaxed);
        if polls && spin_until(|| pool.queued.load(Ordering::Relaxed) > 0) {
            // A poller only tries the lock: with several lanes polling, a
            // push would otherwise line all of them up on it, in the way of
            // the submitter's own `Completion::drop`. Whoever holds it is
            // taking the handle or queueing more.
            if let Some(handle) = pool.try_queue().and_then(|mut q| pool.pop(&mut q)) {
                return handle;
            }
            // another lane was quicker; regions are coming, so poll on
            continue;
        }
        let mut q = pool.queue();
        loop {
            if let Some(handle) = pool.pop(&mut q) {
                return handle;
            }
            q.sleepers += 1;
            pool.parks.fetch_add(1, Ordering::Relaxed);
            q = pool.work_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            q.sleepers -= 1;
        }
    }
}

/// Current worker-participation budget (including the submitting thread).
pub fn threads() -> usize {
    pool().target.load(Ordering::Relaxed).max(1)
}

/// Sets the worker-participation budget. Values are clamped to at least 1.
/// Growing spawns the missing workers; shrinking parks the surplus. Safe to
/// call at any time — the partitioning of every kernel is independent of
/// this value, so results never change, only wall-clock.
pub fn set_threads(n: usize) {
    let pool = pool();
    pool.target.store(n.max(1), Ordering::Relaxed);
    ensure_workers(pool);
}

/// True when called from a pool worker thread (nested parallel calls run
/// inline there).
pub fn in_worker() -> bool {
    IN_WORKER.with(|f| f.get())
}

/// Runs `body(i)` for every `i in 0..chunks`, possibly on several threads.
///
/// The caller picks `chunks` from the problem shape alone; each chunk must
/// touch a disjoint region of any shared output. Chunks may run in any
/// order and on any thread, so determinism requires (and all in-tree
/// kernels guarantee) that chunk bodies are order-independent: they only
/// write their own region, with a fixed internal accumulation order.
///
/// Degenerate cases (`chunks <= 1`, a single-thread budget, or a call from
/// inside a worker) run inline, in index order, with no synchronization.
pub fn parallel_for_chunks(chunks: usize, body: &(dyn Fn(usize) + Sync)) {
    if chunks == 0 {
        return;
    }
    let pool = pool();
    let budget = pool.target.load(Ordering::Relaxed);
    if chunks == 1 || budget <= 1 || in_worker() {
        for i in 0..chunks {
            body(i);
        }
        return;
    }

    let timing = crate::profile::enabled();
    let t0 = timing.then(Instant::now);

    // Erase the borrow lifetime: `Task` stores a raw pointer and this
    // function does not return until every chunk has completed, so the
    // referent outlives every dereference. See `Task::body`.
    let body_static: &'static (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(body) };
    // One helper handle per extra lane; a helper that comes late finds
    // `next >= chunks` and retires its handle without touching `body`.
    let helpers = (budget - 1).min(chunks - 1);
    let task = Task {
        body: body_static as *const _,
        chunks,
        next: AtomicUsize::new(0),
        pending: AtomicUsize::new(chunks + helpers),
    };
    // From here to the end of `Completion::drop` — also when a chunk run on
    // this thread panics — the task stays where the handles point.
    let completion = Completion {
        task: &task,
        pool,
        ran: Cell::new(0),
    };
    let sleepers = {
        let mut q = pool.queue();
        for _ in 0..helpers {
            q.handles.push_back(Handle(&task));
        }
        pool.queued.store(q.handles.len(), Ordering::Relaxed);
        q.sleepers
    };
    // Lanes that are polling need no wake-up, and a sleeper that registers
    // from here on has seen the handles.
    if sleepers > 0 {
        pool.wakes.fetch_add(1, Ordering::Relaxed);
        if helpers == 1 {
            pool.work_cv.notify_one();
        } else {
            pool.work_cv.notify_all();
        }
    }

    pool.tasks.fetch_add(1, Ordering::Relaxed);
    pool.chunks.fetch_add(chunks as u64, Ordering::Relaxed);
    // The submitter works too: guarantees progress even if all workers are
    // wedged on other tasks.
    task.help(pool, &completion.ran);
    drop(completion);
    if let Some(t0) = t0 {
        pool.wall_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Keeps a submitter inside [`parallel_for_chunks`] until nothing can reach
/// its task any more.
struct Completion<'a> {
    task: &'a Task,
    pool: &'a Pool,
    /// Chunks this thread has run and not yet taken off `pending`.
    ran: Cell<usize>,
}

impl Drop for Completion<'_> {
    fn drop(&mut self) {
        let (task, pool) = (self.task, self.pool);
        // The handles still queued are nobody's yet: retire them here. The
        // queue holds live tasks' handles only, a few per submitter.
        let unclaimed = {
            let mut q = pool.queue();
            let before = q.handles.len();
            q.handles.retain(|h| !std::ptr::eq(h.0, task));
            pool.queued.store(q.handles.len(), Ordering::Relaxed);
            before - q.handles.len()
        };
        let mut settled = unclaimed + self.ran.get();
        if std::thread::panicking() {
            // A chunk panicked on this thread: it will not finish, and
            // nobody is to start another one. The panic goes on to the
            // caller once the chunks already running elsewhere are done.
            let claimed = task.next.fetch_add(task.chunks, Ordering::Relaxed);
            settled += 1 + task.chunks - claimed.min(task.chunks);
        }
        // Not `settle`: nobody needs waking if this thread ends the count.
        task.pending.fetch_sub(settled, Ordering::AcqRel);
        // A straggler chunk is usually about to finish: poll before blocking.
        let finished = || task.pending.load(Ordering::Acquire) == 0;
        if spin_until(finished) {
            return;
        }
        let mut waiting = pool.done();
        while !finished() {
            *waiting += 1;
            pool.parks.fetch_add(1, Ordering::Relaxed);
            waiting = pool
                .done_cv
                .wait(waiting)
                .unwrap_or_else(|e| e.into_inner());
            *waiting -= 1;
        }
    }
}

/// A one-shot job for [`run_scoped`]; may borrow from the caller's stack.
pub type ScopedJob<'scope> = Box<dyn FnOnce() + Send + 'scope>;

/// Runs a batch of independent one-shot jobs on the pool and waits for all
/// of them — the pool-backed replacement for per-epoch `std::thread::scope`
/// spawns. Jobs may borrow from the caller's stack frame.
pub fn run_scoped<'scope>(jobs: Vec<ScopedJob<'scope>>) {
    let n = jobs.len();
    if n == 0 {
        return;
    }
    pool().jobs.fetch_add(n as u64, Ordering::Relaxed);
    let slots: Vec<Mutex<Option<ScopedJob<'scope>>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    parallel_for_chunks(n, &|i| {
        if let Some(job) = slots[i].lock().unwrap().take() {
            job();
        }
    });
}

/// Splits `out` into fixed-size chunks of `chunk_len` elements (the last
/// may be short) and runs `body(i, chunk_i)` for each on the pool. The
/// partition depends only on `out.len()` and `chunk_len` — never the thread
/// count — so any reduction whose chunk bodies are internally ordered is
/// bit-identical at every `SOCFLOW_THREADS` setting.
///
/// # Panics
/// Panics if `chunk_len == 0`.
pub fn parallel_for_slice_chunks(
    out: &mut [f32],
    chunk_len: usize,
    body: &(dyn Fn(usize, &mut [f32]) + Sync),
) {
    assert!(chunk_len > 0, "chunk_len must be positive");
    let len = out.len();
    if len == 0 {
        return;
    }
    let chunks = len.div_ceil(chunk_len);
    let base = SendPtr::new(out);
    parallel_for_chunks(chunks, &|c| {
        let lo = c * chunk_len;
        let hi = (lo + chunk_len).min(len);
        // Safety: chunk ranges are pairwise disjoint and in-bounds.
        let chunk = unsafe { base.slice(lo, hi - lo) };
        body(c, chunk);
    });
}

/// Crate-internal wrapper that lets kernels hand disjoint sub-slices of one
/// output buffer (`f32` accumulators, `i32` integer-GEMM outputs, …) to pool
/// workers; every chunk derives a non-overlapping range from it.
pub(crate) struct SendPtr<T> {
    base: *mut T,
    len: usize,
}
// Safety: only ever used to produce disjoint `&mut [T]` ranges.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Captures the base pointer and length of `out`.
    pub(crate) fn new(out: &mut [T]) -> SendPtr<T> {
        SendPtr {
            base: out.as_mut_ptr(),
            len: out.len(),
        }
    }

    /// Derives the mutable sub-slice `[off, off + len)`.
    ///
    /// # Panics
    /// Panics if the range does not lie inside the original slice.
    ///
    /// # Safety
    /// The range must be disjoint from every other range derived from this
    /// pointer while both are live.
    // The `&self -> &mut` shape is the point of the wrapper: disjointness is
    // the caller's obligation, stated above, exactly like `from_raw_parts_mut`.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn slice(&self, off: usize, len: usize) -> &mut [T] {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len),
            "range {off}+{len} of {}",
            self.len
        );
        std::slice::from_raw_parts_mut(self.base.add(off), len)
    }
}

/// A snapshot of cumulative pool activity (see [`stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Current worker-participation budget.
    pub threads: usize,
    /// `parallel_for_chunks` calls that took the parallel path.
    pub tasks: u64,
    /// Chunks of all those tasks.
    pub chunks: u64,
    /// One-shot jobs submitted through [`run_scoped`].
    pub jobs: u64,
    /// Nanoseconds of chunk execution summed over all lanes. Collected only
    /// while the kernel profiler ([`crate::profile`]) is enabled; 0 otherwise.
    pub busy_nanos: u64,
    /// Submitter-side wall nanoseconds of parallel regions (same gating as
    /// `busy_nanos`). `busy_nanos / wall_nanos` is the effective parallelism.
    pub wall_nanos: u64,
    /// Times a lane gave up polling and blocked: a worker on an empty
    /// queue, or a submitter on its last straggler chunk.
    pub parks: u64,
    /// Wake-ups issued because a lane was blocked when work (or the end of
    /// a task) arrived. A region that finds every lane polling costs none.
    pub wakes: u64,
    /// Workers blocked on the queue right now (not cumulative): all of them
    /// once the pool has been idle for longer than the polling bound.
    pub sleepers: usize,
}

/// Returns cumulative pool counters since process start or the last
/// [`reset_stats`]. Chunk/wall timing is only collected while the kernel
/// profiler is enabled, mirroring `socflow_tensor::profile`.
pub fn stats() -> PoolStats {
    let p = pool();
    PoolStats {
        threads: p.target.load(Ordering::Relaxed).max(1),
        tasks: p.tasks.load(Ordering::Relaxed),
        chunks: p.chunks.load(Ordering::Relaxed),
        jobs: p.jobs.load(Ordering::Relaxed),
        busy_nanos: p.busy_nanos.load(Ordering::Relaxed),
        wall_nanos: p.wall_nanos.load(Ordering::Relaxed),
        parks: p.parks.load(Ordering::Relaxed),
        wakes: p.wakes.load(Ordering::Relaxed),
        sleepers: p.queue().sleepers,
    }
}

/// Zeroes all cumulative pool counters.
pub fn reset_stats() {
    let p = pool();
    p.tasks.store(0, Ordering::Relaxed);
    p.chunks.store(0, Ordering::Relaxed);
    p.jobs.store(0, Ordering::Relaxed);
    p.busy_nanos.store(0, Ordering::Relaxed);
    p.wall_nanos.store(0, Ordering::Relaxed);
    p.parks.store(0, Ordering::Relaxed);
    p.wakes.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn covers_every_chunk_exactly_once() {
        set_threads(4);
        let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        parallel_for_chunks(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn disjoint_writes_land() {
        set_threads(4);
        let mut out = vec![0u64; 64];
        let base = out.as_mut_ptr() as usize;
        parallel_for_chunks(64, &|i| {
            // Safety: each chunk writes only its own element.
            unsafe { *(base as *mut u64).add(i) = i as u64 * 3 };
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
    }

    #[test]
    fn nested_calls_run_inline_without_deadlock() {
        set_threads(4);
        let total = AtomicUsize::new(0);
        parallel_for_chunks(8, &|_| {
            parallel_for_chunks(8, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn run_scoped_executes_all_jobs_and_allows_borrows() {
        set_threads(4);
        let mut results = [0usize; 10];
        {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = results
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    Box::new(move || {
                        *slot = i + 1;
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_scoped(jobs);
        }
        assert_eq!(results, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    }

    /// A chunk that panics on the submitting thread takes the call down
    /// with it — after the chunks running elsewhere have finished with the
    /// task — instead of leaving it waiting for a count that cannot end.
    #[test]
    fn a_panic_in_the_submitters_chunk_reaches_the_caller() {
        set_threads(4);
        let ran = AtomicUsize::new(0);
        let submitter = std::thread::current().id();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_for_chunks(64, &|_| {
                if std::thread::current().id() == submitter {
                    ran.fetch_add(1, Ordering::Relaxed);
                    panic!("chunk");
                }
                // a helper leaves the submitter a chunk to panic in
                while ran.load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                }
            });
        }));
        assert!(caught.is_err());
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        // the pool still works
        let again = AtomicUsize::new(0);
        parallel_for_chunks(16, &|_| {
            again.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(again.load(Ordering::Relaxed), 16);
    }

    /// Handles nobody picked up leave the queue with their task: a busy
    /// pool does not collect them.
    #[test]
    fn finished_tasks_leave_no_handles_queued() {
        set_threads(4);
        for _ in 0..200 {
            parallel_for_chunks(2, &|_| {});
        }
        let queued = pool().queue().handles.len();
        // other tests' tasks may be in flight; this one's 200 are not
        assert!(queued < 50, "{queued} handles queued");
    }

    #[test]
    fn thread_budget_is_clamped_and_grows() {
        set_threads(0);
        assert_eq!(threads(), 1);
        set_threads(3);
        assert_eq!(threads(), 3);
    }
}
