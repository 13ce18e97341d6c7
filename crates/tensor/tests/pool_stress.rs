//! The worker pool's spin-then-park protocol under load: no wake-up is
//! lost, whichever side of the polling bound an idle gap falls on.
//!
//! One test, in a process of its own: the sleeper count it ends on is a
//! property of the whole pool.

use socflow_tensor::runtime;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The pool's polling bound (`runtime::SPIN`, private): gaps are drawn
/// around it.
const SPIN: Duration = Duration::from_millis(1);

/// A lost wake-up leaves a thread asleep for good; this is how long the
/// test waits before it says so.
const WATCHDOG: Duration = Duration::from_secs(120);

/// Deterministic draws (the test must not depend on a seed it cannot name).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

/// Stays off the pool for `gap`: asleep, so that the lanes see an idle
/// process, not a busy neighbour.
fn idle(gap: Duration) {
    if !gap.is_zero() {
        std::thread::sleep(gap);
    }
}

/// A two-chunk region that cannot end on one lane: each chunk waits for the
/// other to have started. With a worker asleep and its wake-up lost, the
/// submitter waits for ever — and the watchdog reports it.
fn rendezvous() {
    let started = AtomicUsize::new(0);
    runtime::parallel_for_chunks(2, &|_| {
        started.fetch_add(1, Ordering::SeqCst);
        while started.load(Ordering::SeqCst) < 2 {
            // the other lane may share this core
            std::thread::yield_now();
        }
    });
}

/// `regions` regions of 1–64 chunks from the calling thread, each chunk
/// counted exactly once, with idle gaps from none to twice the bound in
/// between. Every fourth chunk dawdles on a pool worker, so that the
/// submitter's own wait for stragglers goes through poll and park too.
fn storm(regions: usize, seed: u64) {
    let mut rng = Lcg(seed);
    let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
    for _ in 0..regions {
        let chunks = 1 + rng.next(64) as usize;
        let dawdle = match rng.next(50) {
            0 => SPIN * 2,
            1..=4 => SPIN / 10,
            _ => Duration::ZERO,
        };
        runtime::parallel_for_chunks(chunks, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            if i % 4 == 1 && runtime::in_worker() {
                let t0 = Instant::now();
                while t0.elapsed() < dawdle {
                    std::hint::spin_loop();
                }
            }
        });
        for (i, hit) in hits.iter().enumerate() {
            let want = usize::from(i < chunks);
            assert_eq!(
                hit.swap(0, Ordering::Relaxed),
                want,
                "chunk {i} of {chunks}"
            );
        }
        idle(match rng.next(100) {
            0 => SPIN * 2,
            1 => SPIN + SPIN / 5,
            2 => SPIN - SPIN / 5,
            3..=9 => SPIN / 8,
            _ => Duration::ZERO,
        });
    }
}

fn stress() {
    let mut spawned = runtime::threads() - 1;
    for threads in [1usize, 2, 8] {
        runtime::set_threads(threads);
        spawned = spawned.max(threads - 1);
        if threads > 1 {
            // the race itself: a region arrives just as the lanes give up
            // polling — gaps within a fifth of the bound on either side,
            // then well clear of it on both
            let mut rng = Lcg(threads as u64);
            for i in 0..600u32 {
                rendezvous();
                let jitter = SPIN / 5 * rng.next(1000) as u32 / 1000;
                idle(match i % 4 {
                    0 => SPIN - jitter,
                    1 => SPIN + jitter,
                    2 => SPIN / 20,
                    _ => SPIN * 3,
                });
            }
        }
        // 10⁴ regions from four submitters at once
        std::thread::scope(|scope| {
            for submitter in 0..4u64 {
                scope.spawn(move || storm(2500, threads as u64 * 16 + submitter));
            }
        });
    }
    // quiescence: nothing queued, nobody polling — every worker ever
    // spawned is asleep on the queue, and stays there
    runtime::set_threads(8);
    std::thread::sleep(SPIN * 50);
    let before = runtime::stats();
    assert_eq!(before.sleepers, spawned, "{before:?}");
    std::thread::sleep(SPIN * 20);
    let after = runtime::stats();
    assert_eq!(after.sleepers, spawned, "{after:?}");
    assert_eq!(after.parks, before.parks, "an idle pool parks nobody anew");
    assert_eq!(after.wakes, before.wakes, "an idle pool wakes nobody");
    // and the first region afterwards finds them
    rendezvous();
    // a smaller budget is served too, and goes back to sleep whole
    runtime::set_threads(2);
    for _ in 0..200 {
        rendezvous();
    }
    std::thread::sleep(SPIN * 50);
    let shrunk = runtime::stats();
    assert_eq!(shrunk.sleepers, spawned, "{shrunk:?}");
}

#[test]
fn no_wake_up_is_lost_and_an_idle_pool_sleeps() {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        stress();
        let _ = done.send(());
    });
    match finished.recv_timeout(WATCHDOG) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("the pool stopped making progress: a lost wake-up")
        }
        // the stress thread panicked; its message is on stderr
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the stress run failed"),
    }
}
