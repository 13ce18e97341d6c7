//! The host-speed calibration job that `setup_s` and `wall_s` are scaled by.
//!
//! The reference host is a 2-core VM with neighbours, and its speed moves
//! in states that last minutes: two sets of ten runs of one build, twenty
//! minutes apart, had medians 34 % apart on `train_ring_fp32` and 25 % on
//! `train_resilient`, at or beyond the widest bound the acceptance driver
//! allows. No statistic of a 20 s run can see that, so the runner times
//! this fixed job before and after every execution of the CLI and divides
//! the execution's seconds by the job's slowdown against [`REFERENCE_S`].
//!
//! The job is what the workloads are made of, per thread: 500 f32 GEMMs of
//! 128³ that stay in cache, then 24 read-modify-write passes over 32 MB
//! that do not — the small-footprint workloads (`train_resilient`,
//! `tune_60`, `fleet_tidal`) follow the first half, the 150 MB trainings
//! the second. Measured over 60 rounds of job / CLI / job on a noisy
//! afternoon, in blocks of 8 executions as a run has them, the quartile
//! distance of the block medians over their median went from 0.13, 0.06,
//! 0.13 and 0.13 (`train_resilient`, `train_mixed`, `tune_60`,
//! `fleet_tidal`) to 0.06, 0.10, 0.05 and 0.07 with the scaling; with the
//! GEMM half alone `train_mixed` went to 0.13, with the memory half alone
//! the other three did not improve (0.10, 0.18, 0.19). In the benchmark
//! itself, two sets of ten runs per workload eighteen minutes apart: the
//! median of the unscaled repetitions moved by 20 % on `tune_60` and 24 %
//! on `fleet_tidal` between the sets, the scaled `wall_s` by 4 % and 5 %
//! (README.md has every row).
//!
//! An earlier attempt with a 30–60 ms interpreted loop was dropped: a job
//! that short sees the host's sub-second bursts, not its state.

use std::hint::black_box;
use std::io;
use std::process::Command;
use std::time::Instant;

/// `socflow-benchmark --calibrate THREADS` runs the job and prints its
/// seconds.
pub const FLAG: &str = "--calibrate";

/// Near what the job takes on the reference host (0.19–0.35 s over an
/// afternoon), so that scaled seconds stay close to the clock's. Any
/// constant would do: every bound is relative.
pub const REFERENCE_S: f64 = 0.25;

const GEMM_N: usize = 128;
const GEMM_REPS: usize = 500;
const STREAM_WORDS: usize = 32 * 1024 * 1024 / 8;
const STREAM_PASSES: u64 = 24;

fn gemms() -> f32 {
    let n = GEMM_N;
    let a = vec![1.0001f32; n * n];
    let b = vec![0.9999f32; n * n];
    let mut c = vec![0.0f32; n * n];
    for _ in 0..GEMM_REPS {
        for i in 0..n {
            for k in 0..n {
                let aik = a[i * n + k];
                let (row_c, row_b) = (&mut c[i * n..(i + 1) * n], &b[k * n..(k + 1) * n]);
                for (x, y) in row_c.iter_mut().zip(row_b) {
                    *x += aik * y;
                }
            }
        }
        black_box(&mut c);
    }
    c[0]
}

fn stream() -> u64 {
    let mut words = vec![1u64; STREAM_WORDS];
    let mut sum = 0u64;
    for pass in 0..STREAM_PASSES {
        for w in words.iter_mut() {
            *w = w.wrapping_mul(3).wrapping_add(pass);
            sum = sum.wrapping_add(*w);
        }
        black_box(&mut words);
    }
    sum
}

/// Wall seconds of the job on `threads` threads, as many as the CLI gets,
/// run in a process of its own: a child starts life with its parent's
/// resident set, so the job's 32 MB per thread in the runner would be the
/// `peak_rss_mb` of every workload smaller than that.
pub fn seconds(threads: usize) -> io::Result<f64> {
    let out = Command::new(std::env::current_exe()?)
        .args([FLAG, &threads.to_string()])
        .output()?;
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| io::Error::other("the calibration job printed no time"))
}

/// The job itself, timed from the inside.
pub fn job_seconds(threads: usize) -> f64 {
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                black_box(gemms());
                black_box(stream());
            });
        }
    });
    started.elapsed().as_secs_f64()
}
