//! Step scratch: a thread-local, exact-size free-list for every buffer
//! whose life ends inside one training step.
//!
//! A step — forward, loss, backward, optimizer — is one job on one thread,
//! and it asks for the same buffer sizes every time: activations, patch
//! matrices, masks, GEMM staging, the parameter gradients. A layer
//! [`take`]s what it needs and [`give`]s it back by the end of its
//! `backward`, except the gradients, which the optimizer gives back; between
//! steps a network owns its parameters' values, optimizer state and running
//! statistics and nothing else, so the scratch a process holds follows the
//! steps in flight (its threads, one gradient set each), not the networks
//! it keeps (`groups × 2` in a mixed-precision run).
//!
//! ## Rules
//!
//! - **A free-list, not a stack.** Whoever took a buffer owns it until it
//!   gives it back, in any order: two networks may interleave their passes
//!   on one thread, and a layer may hold its caches across an evaluation
//!   forward of the same network.
//! - **Exact sizes.** [`take`] hands out a parked buffer of exactly the
//!   length asked for, or allocates one; a buffer is never grown to serve a
//!   larger request, so the list cannot drift towards `count × largest`.
//! - **Unspecified contents.** A taken buffer holds whatever its last user
//!   left there: every kernel destination must be written in full. Builds
//!   with debug assertions fill a buffer with a sentinel (NaN for floats) as
//!   it is parked, so a destination that is not shows up in the tests.
//! - **Same thread.** A step never migrates, so what it took on a thread it
//!   gives back there. A buffer given on another thread, or never given
//!   (logits handed to a caller that drops them), is only a missed reuse:
//!   buffers are plain `Vec`s.
//! - **The bound.** Per size, a list never parks more buffers than were out
//!   at once on its thread, because only a miss allocates. Across sizes it
//!   keeps what its thread still asks for: a parked buffer that
//!   [`IDLE_TAKES`] takes of the thread have passed by is freed (a stale
//!   batch shape, a model the process is done with). And an evaluation
//!   forward parks nothing: inside [`transient`] a take is a plain
//!   allocation and a give a plain drop, so an eval-shaped family — one
//!   buffer per layer, used once an epoch — is never hoarded beside the
//!   train-shaped one and never ages it out. That family is activations
//!   only: an evaluation's convolutions, FP32 or INT8, make no patch matrix
//!   or padded input ([`crate::conv::conv2d_eval`],
//!   [`crate::conv::conv2d_int8_eval`]) and no INT8 or `i32` copy of
//!   either, so the largest buffer an evaluation
//!   allocates is an activation, not a patch matrix nine inputs wide.
//!
//! ```
//! use socflow_tensor::pool;
//! let t = pool::tensor([4, 4]); // contents unspecified
//! let ptr = t.data().as_ptr();
//! pool::recycle(t);
//! let again = pool::tensor([2, 8]); // the same 16 floats
//! assert_eq!(again.data().as_ptr(), ptr);
//! let fresh = pool::tensor([2, 8]); // none parked now: allocated
//! assert_ne!(fresh.data().as_ptr(), ptr);
//! ```

use crate::{Shape, Tensor};
use std::cell::{Cell, RefCell};

/// Takes of one element type on one thread after which a parked buffer
/// that none of them asked for is freed. A step of the deepest bundled
/// model makes a few hundred takes and a mixed-precision replica alternates
/// two batch shapes, so a live buffer is asked for again within a thousand.
pub const IDLE_TAKES: u64 = 1 << 13;

/// A buffer at rest, and the thread's take count when it was parked.
struct Parked<T> {
    buf: Vec<T>,
    since: u64,
}

/// One thread's parked buffers of one element type.
#[doc(hidden)]
pub struct FreeList<T> {
    parked: Vec<Parked<T>>,
    takes: u64,
}

impl<T: Element> FreeList<T> {
    const fn new() -> Self {
        FreeList {
            parked: Vec::new(),
            takes: 0,
        }
    }

    fn take(&mut self, len: usize) -> Vec<T> {
        self.takes += 1;
        if self.takes.is_multiple_of(IDLE_TAKES / 2) {
            let now = self.takes;
            self.parked.retain(|p| now - p.since < IDLE_TAKES);
        }
        // newest first: the buffer most likely still in cache
        match self.parked.iter().rposition(|p| p.buf.len() == len) {
            Some(at) => self.parked.swap_remove(at).buf,
            None => vec![T::default(); len],
        }
    }

    fn give(&mut self, mut buf: Vec<T>) {
        if buf.is_empty() {
            return;
        }
        if cfg!(debug_assertions) {
            buf.fill(T::SENTINEL);
        }
        let since = self.takes;
        self.parked.push(Parked { buf, since });
    }
}

/// The element types the step scratch parks: `f32` activations and staging,
/// the `i8` / `i32` operands of the integer GEMM, `usize` pooling indices.
pub trait Element: Copy + Default + 'static {
    /// What a parked buffer is filled with in builds with debug assertions.
    #[doc(hidden)]
    const SENTINEL: Self;

    /// Runs `f` on the calling thread's list for this type. `f` is this
    /// module's own code and calls nothing, so the borrow is not re-entered.
    #[doc(hidden)]
    fn with_list<R>(f: impl FnOnce(&mut FreeList<Self>) -> R) -> R;
}

macro_rules! element {
    ($($t:ty, $list:ident, $sentinel:expr;)*) => {$(
        thread_local! {
            static $list: RefCell<FreeList<$t>> = const { RefCell::new(FreeList::new()) };
        }

        impl Element for $t {
            const SENTINEL: Self = $sentinel;

            fn with_list<R>(f: impl FnOnce(&mut FreeList<Self>) -> R) -> R {
                $list.with(|list| f(&mut list.borrow_mut()))
            }
        }
    )*};
}

element! {
    f32, F32_LIST, f32::NAN;
    i8, I8_LIST, i8::MIN;
    i32, I32_LIST, i32::MIN;
    usize, USIZE_LIST, usize::MAX;
}

thread_local! {
    /// Depth of [`transient`] scopes on this thread.
    static TRANSIENT: Cell<u32> = const { Cell::new(0) };
}

/// Takes a buffer of exactly `len` elements with **unspecified** contents:
/// a parked one if the calling thread has one of that length, a fresh one
/// otherwise (and always inside [`transient`]).
pub fn take<T: Element>(len: usize) -> Vec<T> {
    if TRANSIENT.with(Cell::get) > 0 {
        return vec![T::default(); len];
    }
    T::with_list(|list| list.take(len))
}

/// Hands `buf` to the calling thread's list for a later [`take`] of its
/// length. Inside [`transient`] it is dropped.
pub fn give<T: Element>(buf: Vec<T>) {
    if TRANSIENT.with(Cell::get) == 0 {
        T::with_list(|list| list.give(buf));
    }
}

/// [`take`] as a tensor of `shape`, contents unspecified — the destination
/// of an `_into` kernel, which finds it already the right size.
pub fn tensor(shape: impl Into<Shape>) -> Tensor {
    let shape = shape.into();
    Tensor::from_vec(take(shape.len()), shape)
}

/// [`tensor`] with every element `+0.0`: an accumulator.
pub fn zeroed(shape: impl Into<Shape>) -> Tensor {
    let mut t = tensor(shape);
    t.fill_zero();
    t
}

/// A pooled copy of `src`.
pub fn copy_of(src: &Tensor) -> Tensor {
    let mut t = tensor(src.shape().clone());
    t.data_mut().copy_from_slice(src.data());
    t
}

/// [`give`]s a tensor's storage.
pub fn recycle(t: Tensor) {
    give(t.into_vec());
}

/// [`recycle`]s every tensor of `tensors` — an `Option` of one, the copies
/// a pass borrowed.
pub fn recycle_all(tensors: impl IntoIterator<Item = Tensor>) {
    tensors.into_iter().for_each(recycle);
}

/// Runs `f` with the calling thread's scratch switched off: every [`take`]
/// inside is a plain allocation and every [`give`] a plain drop. An
/// evaluation forward runs in here (see the module docs for why); scopes
/// nest.
pub fn transient<R>(f: impl FnOnce() -> R) -> R {
    struct Leave;
    impl Drop for Leave {
        fn drop(&mut self) {
            TRANSIENT.with(|depth| depth.set(depth.get() - 1));
        }
    }
    TRANSIENT.with(|depth| depth.set(depth.get() + 1));
    let _leave = Leave;
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Floats parked on this thread's `f32` list.
    fn parked() -> usize {
        f32::with_list(|list| list.parked.iter().map(|p| p.buf.len()).sum())
    }

    /// Empties this thread's `f32` list: with `--test-threads=1` the tests
    /// share a thread.
    fn start_empty() {
        f32::with_list(|list| list.parked.clear());
    }

    #[test]
    fn take_recycle_reuses_storage() {
        start_empty();
        let mut t = tensor([2, 3]);
        t.data_mut().fill(9.0);
        let ptr = t.data().as_ptr();
        recycle(t);
        assert_eq!(parked(), 6);
        let t2 = tensor([3, 2]); // same element count, reshaped
        assert_eq!(t2.data().as_ptr(), ptr);
        assert_eq!(parked(), 0);
        // exact sizes only: a parked 6 serves neither a 5 nor a 7
        recycle(t2);
        assert_eq!(take::<f32>(5).len(), 5);
        assert_eq!(take::<f32>(7).len(), 7);
        assert_eq!(parked(), 6);
    }

    #[test]
    fn take_zeroed_clears_recycled_garbage() {
        start_empty();
        let mut t = tensor([4]);
        t.data_mut().fill(5.0);
        let ptr = t.data().as_ptr();
        recycle(t);
        let t = zeroed([4]);
        assert_eq!(t.data().as_ptr(), ptr);
        assert_eq!(t.data(), &[0.0; 4]);
    }

    /// A free-list, not a stack: buffers come back in any order, and one
    /// that is out is never handed to anyone else.
    #[test]
    fn buffers_come_back_in_any_order() {
        start_empty();
        let (a, b, c) = (take::<f32>(8), take::<f32>(8), take::<f32>(3));
        let (pa, pb, pc) = (a.as_ptr(), b.as_ptr(), c.as_ptr());
        assert_ne!(pa, pb);
        give(a); // first out, first back
        let a2 = take::<f32>(8);
        assert_eq!(a2.as_ptr(), pa, "the parked one, not the one still out");
        give(c);
        give(b);
        give(a2);
        let (x, y, z) = (take::<f32>(8), take::<f32>(8), take::<f32>(3));
        assert!([x.as_ptr(), y.as_ptr()].contains(&pa) && [x.as_ptr(), y.as_ptr()].contains(&pb));
        assert_eq!(z.as_ptr(), pc);
    }

    /// A parked buffer is poisoned in this build, whatever its type: a
    /// kernel that reads its destination meets NaN, or an index past
    /// everything.
    #[test]
    #[cfg(debug_assertions)]
    fn parked_buffers_are_poisoned_under_debug_assertions() {
        give(vec![1.0f32; 4]);
        assert!(take::<f32>(4).iter().all(|v| v.is_nan()));
        give(vec![1usize; 4]);
        assert_eq!(take::<usize>(4), vec![usize::MAX; 4]);
        give(vec![1i8; 4]);
        assert_eq!(take::<i8>(4), vec![i8::MIN; 4]);
        give(vec![1i32; 4]);
        assert_eq!(take::<i32>(4), vec![i32::MIN; 4]);
    }

    #[test]
    fn a_transient_scope_parks_and_reuses_nothing() {
        start_empty();
        let train = take::<f32>(16);
        let ptr = train.as_ptr();
        give(train);
        transient(|| {
            let eval = take::<f32>(16);
            assert_ne!(eval.as_ptr(), ptr, "the parked buffer stays parked");
            give(eval);
            transient(|| give(take::<f32>(32)));
            give(take::<f32>(32));
        });
        assert_eq!(parked(), 16);
        let train = take::<f32>(16);
        assert_eq!(train.as_ptr(), ptr);
        // the scope is left on a panic too
        let caught = std::panic::catch_unwind(|| transient(|| panic!("inside")));
        assert!(caught.is_err());
        give(vec![0.0f32; 2]);
        assert_eq!(parked(), 2);
    }

    /// The bound across sizes: a buffer nobody asked for during
    /// `IDLE_TAKES` takes is freed, one that is asked for stays.
    #[test]
    fn a_buffer_nobody_asks_for_is_freed() {
        start_empty();
        give(vec![0.0f32; 100]); // a stale shape
        let live = take::<f32>(10);
        let ptr = live.as_ptr();
        give(live);
        for _ in 0..IDLE_TAKES + IDLE_TAKES / 2 {
            give(take::<f32>(10));
        }
        assert_eq!(parked(), 10, "the stale 100 went, the live 10 stayed");
        let live = take::<f32>(10);
        assert_eq!(live.as_ptr(), ptr);
    }
}
