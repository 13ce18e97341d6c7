//! Runs one child process to completion and reports what it cost: wall
//! time from spawn to exit, CPU seconds and peak resident set, the last
//! two from the kernel's per-child `rusage` (`wait4`), which
//! `std::process` does not expose. Unix only, like the benchmark.

use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// `struct timeval` on LP64 Unix.
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on LP64 Unix: two timevals, then fourteen longs of
/// which only the first (`ru_maxrss`) is read here.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished child cost and returned.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Exit code; `None` when a signal killed it.
    pub code: Option<i32>,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Peak resident set. Linux reports `ru_maxrss` in KiB.
    pub peak_rss_mb: f64,
    pub stdout: String,
    pub stderr: String,
}

/// Runs `program args…` with stdout and stderr redirected into files
/// under `dir` (a pipe would need a reader thread to stay deadlock-free;
/// the harness only waits), and blocks until it has exited.
pub fn run(
    program: &Path,
    args: &[String],
    envs: &[(&str, String)],
    dir: &Path,
    tag: &str,
) -> io::Result<Finished> {
    let out_path = dir.join(format!("{tag}.stdout"));
    let err_path = dir.join(format!("{tag}.stderr"));
    let mut cmd = Command::new(program);
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::from(File::create(&out_path)?))
        .stderr(Stdio::from(File::create(&err_path)?));
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let started = Instant::now();
    let child = cmd.spawn()?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are live, writable and laid out as the
    // C ABI expects (see the struct comments); the pid is a child of this
    // process that nothing else waits on — `Child` is never `wait`ed, and
    // dropping it does not reap.
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    let wall_s = started.elapsed().as_secs_f64();
    if reaped < 0 {
        return Err(io::Error::last_os_error());
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(Finished {
        // WIFEXITED / WEXITSTATUS
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        wall_s,
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
        stdout: std::fs::read_to_string(&out_path)?,
        stderr: std::fs::read_to_string(&err_path)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str, tag: &str) -> Finished {
        let dir = std::env::temp_dir().join(format!("socflow-bench-child-{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        let done = run(
            Path::new("sh"),
            &["-c".to_string(), script.to_string()],
            &[("BENCH_CHILD_VAR", "seen".to_string())],
            &dir,
            tag,
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        done
    }

    #[test]
    fn captures_streams_status_and_usage() {
        let done = sh("echo out; echo err >&2; echo $BENCH_CHILD_VAR; exit 3", "a");
        assert_eq!(done.code, Some(3));
        assert_eq!(done.stdout, "out\nseen\n");
        assert_eq!(done.stderr, "err\n");
        assert!(done.wall_s > 0.0 && done.peak_rss_mb > 0.0);
    }

    #[test]
    fn a_signalled_child_has_no_exit_code() {
        assert_eq!(sh("kill -9 $$", "b").code, None);
    }
}
