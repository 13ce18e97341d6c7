//! Training checkpoints (paper §3: "SoCFlow includes checkpoints on mobile
//! SoCs to ensure that a new user-related workload request can preempt
//! training tasks").
//!
//! A checkpoint captures everything needed to resume *bit-exactly*: the
//! epoch counter, every stream's flat weights and momentum buffers, the
//! learning rates, the mixed-precision α, the surviving SoC set and group
//! count, the simulated clock, and the run-so-far [`RunResult`]. Because
//! the group-wise structure is flexible, resuming with *fewer* streams is
//! first-class: [`Checkpoint::redistribute`] merges evicted replicas into
//! the survivors (weight *and* momentum averaging), which is exactly how
//! the engine continues after a preemption.
//!
//! The on-disk format is a versioned little-endian binary layout
//! (`SFCK` magic + version tag, the fields, a 64-bit checksum of everything
//! before it), not JSON: float values must round-trip bit-exactly or a
//! resumed run cannot reproduce the uninterrupted run's `RunResult`
//! byte-for-byte. [`Checkpoint::save`] writes atomically (temp file +
//! rename) so a crash mid-write never corrupts the latest usable
//! checkpoint, and [`Checkpoint::from_bytes`] refuses a file whose checksum
//! does not match before it reads a field, so a flipped bit or a cut file
//! is an error, never a resume from wrong weights.

use crate::report::{Breakdown, RunResult};
use socflow_cluster::SocId;
use std::path::Path;

/// Magic bytes prefixing every serialized checkpoint.
const MAGIC: &[u8; 4] = b"SFCK";
/// Current on-disk format version (3: the trailing checksum; 2 had none).
pub const FORMAT_VERSION: u32 = 3;
/// File name of the most recent checkpoint inside a checkpoint directory.
pub const LATEST_FILE: &str = "latest.ckpt";

/// A resumable snapshot of a group-parallel training job.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Epochs completed so far.
    pub epoch: usize,
    /// Flat weights of each accuracy stream.
    pub replicas: Vec<Vec<f32>>,
    /// Mixed-precision α at snapshot time.
    pub alpha: f32,
    /// FP32 optimizer momentum of each stream (empty = not captured).
    pub velocities: Vec<Vec<f32>>,
    /// INT8-arm optimizer momentum of each stream (empty = no INT8 arm).
    pub velocities_int8: Vec<Vec<f32>>,
    /// Non-learnable model state of each stream (batch-norm running
    /// statistics, quant-noise step counters) — read by later forwards and
    /// backwards, so a bit-exact resume must restore it (empty = not
    /// captured).
    pub states: Vec<Vec<f32>>,
    /// Non-learnable state of each stream's INT8-arm model (the arm's
    /// quant-noise step counters advance every mixed step). Empty = no
    /// INT8 arm.
    pub states_int8: Vec<Vec<f32>>,
    /// FP32 learning rate at snapshot time (uniform across streams).
    pub lr: f32,
    /// INT8-arm learning rate (0 when there is no INT8 arm).
    pub lr_int8: f32,
    /// Logical-group count the job started with (so a resumed run skips
    /// the group-count heuristic and the elastic target stays anchored).
    pub initial_groups: usize,
    /// Logical-group count at snapshot time.
    pub groups: usize,
    /// SoCs still alive at snapshot time.
    pub alive: Vec<usize>,
    /// Simulated clock at snapshot time, seconds.
    pub clock: f64,
    /// Watermark up to which fault-plan events have been consumed.
    pub fault_cursor: f64,
    /// The run recorded so far (accuracy/time/energy per epoch).
    pub partial: Option<RunResult>,
}

impl Checkpoint {
    /// Creates a weights-only checkpoint (momentum/clock state default to
    /// empty — the engine fills them before persisting).
    ///
    /// # Panics
    /// Panics if `replicas` is empty or replica lengths differ.
    pub fn new(epoch: usize, replicas: Vec<Vec<f32>>, alpha: f32) -> Self {
        assert!(
            !replicas.is_empty(),
            "checkpoint needs at least one replica"
        );
        let len = replicas[0].len();
        assert!(
            replicas.iter().all(|r| r.len() == len),
            "replicas must have equal length"
        );
        let n = replicas.len();
        Checkpoint {
            epoch,
            replicas,
            alpha,
            velocities: Vec::new(),
            velocities_int8: Vec::new(),
            states: Vec::new(),
            states_int8: Vec::new(),
            lr: 0.0,
            lr_int8: 0.0,
            initial_groups: n,
            groups: n,
            alive: Vec::new(),
            clock: 0.0,
            fault_cursor: 0.0,
            partial: None,
        }
    }

    /// Number of stream replicas.
    pub fn num_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Shrinks the checkpoint to `keep` replicas after a preemption: the
    /// evicted replicas' weights — and momentum buffers, when captured —
    /// are averaged into the survivors so no training signal is lost.
    ///
    /// # Panics
    /// Panics if `keep` is zero or exceeds the replica count.
    pub fn redistribute(&self, keep: usize) -> Checkpoint {
        assert!(
            keep > 0 && keep <= self.replicas.len(),
            "invalid keep count"
        );
        if keep == self.replicas.len() {
            return self.clone();
        }
        let total = self.replicas.len();
        let mut out = self.clone();
        out.replicas = merge_evicted(&self.replicas, keep, total);
        if self.velocities.len() == total {
            out.velocities = merge_evicted(&self.velocities, keep, total);
        }
        if self.velocities_int8.len() == total {
            out.velocities_int8 = merge_evicted(&self.velocities_int8, keep, total);
        }
        // running statistics and step counters are observations, not
        // training signal: survivors keep their own, the evicted streams'
        // are dropped
        if self.states.len() == total {
            out.states.truncate(keep);
        }
        if self.states_int8.len() == total {
            out.states_int8.truncate(keep);
        }
        out
    }

    /// Serializes to the versioned binary format.
    ///
    /// # Errors
    /// Never fails today; the `Result` keeps the signature stable for
    /// future versions with fallible encodings.
    pub fn to_bytes(&self) -> Result<Vec<u8>, String> {
        let mut w = Vec::new();
        w.extend_from_slice(MAGIC);
        put(&mut w, FORMAT_VERSION.to_le_bytes());
        put(&mut w, (self.epoch as u64).to_le_bytes());
        put(&mut w, self.alpha.to_le_bytes());
        put(&mut w, self.lr.to_le_bytes());
        put(&mut w, self.lr_int8.to_le_bytes());
        put(&mut w, (self.initial_groups as u64).to_le_bytes());
        put(&mut w, (self.groups as u64).to_le_bytes());
        put(&mut w, self.clock.to_le_bytes());
        put(&mut w, self.fault_cursor.to_le_bytes());
        put(&mut w, (self.alive.len() as u64).to_le_bytes());
        for &s in &self.alive {
            put(&mut w, (s as u64).to_le_bytes());
        }
        put_f32_matrix(&mut w, &self.replicas);
        put_f32_matrix(&mut w, &self.velocities);
        put_f32_matrix(&mut w, &self.velocities_int8);
        put_f32_matrix(&mut w, &self.states);
        put_f32_matrix(&mut w, &self.states_int8);
        match &self.partial {
            None => w.push(0),
            Some(r) => {
                w.push(1);
                put_run_result(&mut w, r);
            }
        }
        w.extend_from_slice(&checksum(&w).to_le_bytes());
        Ok(w)
    }

    /// Deserializes from the versioned binary format.
    ///
    /// # Errors
    /// Returns a message on the wrong magic or version, then on a checksum
    /// mismatch (before any field is read), then on truncation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader { buf: bytes, pos: 0 };
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err("not a SoCFlow checkpoint (bad magic)".into());
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (this build reads v{FORMAT_VERSION})"
            ));
        }
        let (body, sum) = bytes.split_at(bytes.len().saturating_sub(8).max(r.pos));
        if sum.try_into().ok().map(u64::from_le_bytes) != Some(checksum(body)) {
            return Err("checkpoint checksum mismatch: the file is corrupt or truncated".into());
        }
        r.buf = body;
        let epoch = r.u64()? as usize;
        let alpha = r.f32()?;
        let lr = r.f32()?;
        let lr_int8 = r.f32()?;
        let initial_groups = r.u64()? as usize;
        let groups = r.u64()? as usize;
        let clock = r.f64()?;
        let fault_cursor = r.f64()?;
        let n_alive = r.u64()? as usize;
        let mut alive = Vec::with_capacity(n_alive.min(1 << 20));
        for _ in 0..n_alive {
            alive.push(r.u64()? as usize);
        }
        let replicas = r.f32_matrix()?;
        let velocities = r.f32_matrix()?;
        let velocities_int8 = r.f32_matrix()?;
        let states = r.f32_matrix()?;
        let states_int8 = r.f32_matrix()?;
        let partial = match r.u8()? {
            0 => None,
            1 => Some(r.run_result()?),
            other => return Err(format!("bad partial-result tag {other}")),
        };
        if !r.done() {
            return Err("trailing bytes after checkpoint".into());
        }
        if replicas.is_empty() {
            return Err("checkpoint has no replicas".into());
        }
        Ok(Checkpoint {
            epoch,
            replicas,
            alpha,
            velocities,
            velocities_int8,
            states,
            states_int8,
            lr,
            lr_int8,
            initial_groups,
            groups,
            alive,
            clock,
            fault_cursor,
            partial,
        })
    }

    /// The surviving SoC set as typed ids.
    pub fn alive_socs(&self) -> Vec<SocId> {
        self.alive.iter().map(|&s| SocId(s)).collect()
    }

    /// Writes the checkpoint atomically to `<dir>/latest.ckpt` (temp file
    /// + rename) and returns the serialized size in bytes.
    ///
    /// # Errors
    /// Returns a message on I/O failure.
    pub fn save(&self, dir: &Path) -> Result<u64, String> {
        let bytes = self.to_bytes()?;
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create checkpoint dir {}: {e}", dir.display()))?;
        let tmp = dir.join(format!("{LATEST_FILE}.tmp"));
        let fin = dir.join(LATEST_FILE);
        std::fs::write(&tmp, &bytes)
            .map_err(|e| format!("cannot write checkpoint {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &fin)
            .map_err(|e| format!("cannot finalize checkpoint {}: {e}", fin.display()))?;
        Ok(bytes.len() as u64)
    }

    /// Loads the latest checkpoint from a checkpoint directory.
    ///
    /// # Errors
    /// Returns a message when the file is missing or malformed.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let path = dir.join(LATEST_FILE);
        let bytes = std::fs::read(&path)
            .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
        Self::from_bytes(&bytes)
    }
}

/// The checksum that ends a serialized checkpoint, over `bytes` (all that
/// comes before it). Four lanes, the first starting from the length, each
/// fold in every fourth little-endian 8-byte word (the last 32-byte block
/// zero-padded) as `h ← mix(h, w) = rotl((h ⊕ w)·K, 29)` with `K` odd, and
/// the lanes are mixed into one. `mix` is a bijection of `h` for a given
/// `w` and of `w` for a given `h`, so two inputs of one length that differ
/// in a single word — any one flipped bit — never share a checksum. The
/// lanes are independent chains, so the sum costs a fraction of the copy.
fn checksum(bytes: &[u8]) -> u64 {
    let mix = |h: u64, w: u64| (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    let mut lanes = [bytes.len() as u64, 1, 2, 3];
    let mut fold = |block: &[u8]| {
        for (h, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *h = mix(*h, u64::from_le_bytes(w.try_into().expect("8-byte words")));
        }
    };
    let mut blocks = bytes.chunks_exact(32);
    blocks.by_ref().for_each(&mut fold);
    let mut tail = [0u8; 32];
    tail[..blocks.remainder().len()].copy_from_slice(blocks.remainder());
    fold(&tail);
    lanes.into_iter().fold(0, mix)
}

/// Averages rows `keep..total` into rows `0..keep` with the proportional
/// survivor weighting the paper's preemption path uses.
fn merge_evicted(rows: &[Vec<f32>], keep: usize, total: usize) -> Vec<Vec<f32>> {
    let len = rows[0].len();
    let evicted = &rows[keep..];
    let mut evicted_mean = vec![0.0f32; len];
    for r in evicted {
        for (m, v) in evicted_mean.iter_mut().zip(r) {
            *m += v / evicted.len() as f32;
        }
    }
    let w_survivor = keep as f32 / total as f32;
    rows[..keep]
        .iter()
        .map(|r| {
            r.iter()
                .zip(&evicted_mean)
                .map(|(a, b)| w_survivor * a + (1.0 - w_survivor) * b)
                .collect()
        })
        .collect()
}

// --- little-endian primitives -------------------------------------------

/// Appends one value's little-endian bytes (`x.to_le_bytes()`).
fn put<const N: usize>(w: &mut Vec<u8>, bytes: [u8; N]) {
    w.extend_from_slice(&bytes);
}

/// Appends a `u64` length prefix, then each element's `to_le` bytes.
fn put_vec<T: Copy, const N: usize>(w: &mut Vec<u8>, v: &[T], to_le: impl Fn(T) -> [u8; N]) {
    put(w, (v.len() as u64).to_le_bytes());
    v.iter().for_each(|&x| put(w, to_le(x)));
}

fn put_f32_matrix(w: &mut Vec<u8>, m: &[Vec<f32>]) {
    put(w, (m.len() as u64).to_le_bytes());
    for row in m {
        put_vec(w, row, f32::to_le_bytes);
    }
}

fn put_str(w: &mut Vec<u8>, s: &str) {
    put(w, (s.len() as u64).to_le_bytes());
    w.extend_from_slice(s.as_bytes());
}

fn put_run_result(w: &mut Vec<u8>, r: &RunResult) {
    put_str(w, &r.method);
    put_vec(w, &r.epoch_accuracy, f32::to_le_bytes);
    put_vec(w, &r.epoch_time, f64::to_le_bytes);
    put(w, r.breakdown.compute.to_le_bytes());
    put(w, r.breakdown.sync.to_le_bytes());
    put(w, r.breakdown.update.to_le_bytes());
    put(w, r.energy_joules.to_le_bytes());
    put(w, r.recovery_time.to_le_bytes());
    put_vec(w, &r.alpha_trace, f32::to_le_bytes);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        // `pos + n` could overflow on a corrupt length prefix
        if n > self.buf.len() - self.pos {
            return Err("truncated checkpoint".into());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u64` length prefix, then that many `item`s of `width` bytes.
    fn vec<T>(
        &mut self,
        width: usize,
        item: impl Fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let n = self.u64()? as usize;
        // a length prefix can never exceed the remaining bytes / width
        if n > (self.buf.len() - self.pos) / width {
            return Err("truncated checkpoint (vector length)".into());
        }
        (0..n).map(|_| item(self)).collect()
    }

    fn f32_matrix(&mut self) -> Result<Vec<Vec<f32>>, String> {
        let n = self.u64()? as usize;
        if n > self.buf.len() - self.pos {
            return Err("truncated checkpoint (matrix length)".into());
        }
        (0..n).map(|_| self.vec(4, Self::f32)).collect()
    }

    fn string(&mut self) -> Result<String, String> {
        let n = self.u64()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8 in checkpoint".into())
    }

    fn run_result(&mut self) -> Result<RunResult, String> {
        Ok(RunResult {
            method: self.string()?,
            epoch_accuracy: self.vec(4, Self::f32)?,
            epoch_time: self.vec(8, Self::f64)?,
            breakdown: Breakdown {
                compute: self.f64()?,
                sync: self.f64()?,
                update: self.f64()?,
            },
            energy_joules: self.f64()?,
            recovery_time: self.f64()?,
            alpha_trace: self.vec(4, Self::f32)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_checkpoint() -> Checkpoint {
        let mut c = Checkpoint::new(3, vec![vec![1.0, 2.5e-8], vec![-3.0, 4.0]], 0.8125);
        c.velocities = vec![vec![0.1, -0.2], vec![0.3, 0.4]];
        c.velocities_int8 = vec![vec![0.5, 0.6], vec![0.7, -0.8]];
        c.states = vec![vec![0.01, 0.99, -0.5], vec![0.02, 1.01, 0.5]];
        c.states_int8 = vec![vec![7.0, 0.5], vec![9.0, -0.25]];
        c.lr = 0.04375;
        c.lr_int8 = 0.031;
        c.initial_groups = 4;
        c.groups = 3;
        c.alive = vec![0, 1, 3, 5, 6];
        c.clock = 1234.567890123;
        c.fault_cursor = 1200.25;
        c.partial = Some(RunResult {
            method: "Ours".into(),
            epoch_accuracy: vec![0.31, 0.57, 0.688],
            epoch_time: vec![10.125, 10.0, 9.875],
            breakdown: Breakdown {
                compute: 20.0,
                sync: 7.5,
                update: 2.5,
            },
            energy_joules: 812.375,
            recovery_time: 3.25,
            alpha_trace: vec![0.2, 0.3, 0.35],
        });
        c
    }

    #[test]
    fn roundtrip_bytes_bit_exact() {
        let c = full_checkpoint();
        let bytes = c.to_bytes().unwrap();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, c);
        // re-serializing is byte-identical (no hidden nondeterminism)
        assert_eq!(back.to_bytes().unwrap(), bytes);
    }

    #[test]
    fn format_is_version_tagged() {
        let bytes = full_checkpoint().to_bytes().unwrap();
        assert_eq!(&bytes[..4], b"SFCK");
        assert_eq!(
            u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            FORMAT_VERSION
        );
        // a future version must be rejected, not misread
        let mut future = bytes.clone();
        future[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let err = Checkpoint::from_bytes(&future).unwrap_err();
        assert!(err.contains("version"), "{err}");
        // wrong magic is rejected
        let mut bad = bytes;
        bad[0] = b'X';
        assert!(Checkpoint::from_bytes(&bad).unwrap_err().contains("magic"));
    }

    #[test]
    fn truncated_bytes_error_cleanly() {
        let bytes = full_checkpoint().to_bytes().unwrap();
        for cut in [0, 3, 7, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Checkpoint::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must not parse"
            );
        }
    }

    /// `body` with the checksum it would be saved with: a file that passes
    /// the checksum, so the parser behind it is what a case exercises.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        body.extend_from_slice(&checksum(&body).to_le_bytes());
        body
    }

    /// Any one byte of a checkpoint set to 0x00, 0x80 or 0xFF parses or
    /// fails with a message, never a panic — and so does a string length
    /// prefix of `u64::MAX`, whose end offset used to overflow. Each case
    /// is re-sealed with a matching checksum, so the fields are read.
    #[test]
    fn corrupt_bytes_never_panic() {
        let bytes = full_checkpoint().to_bytes().unwrap();
        let body = &bytes[..bytes.len() - 8];
        for i in 0..body.len() {
            for v in [0x00, 0x80, 0xFF] {
                let mut bad = body.to_vec();
                bad[i] = v;
                let _ = Checkpoint::from_bytes(&sealed(bad));
            }
        }
        let method = body.windows(4).position(|w| w == b"Ours").unwrap();
        let mut bad = body.to_vec();
        bad[method - 8..method].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = Checkpoint::from_bytes(&sealed(bad)).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    /// No flipped bit and no cut gets past `from_bytes`: each is an `Err`
    /// (past the 8-byte header, the checksum's), never a panic and never a
    /// load. Every bit and every length of a small checkpoint, and bits and
    /// lengths spread over a 160 KB one.
    #[test]
    fn a_flipped_bit_or_a_cut_file_is_refused() {
        let mut big = Checkpoint::new(7, vec![vec![0.0; 10_000]; 4], 0.5);
        for (r, row) in big.replicas.iter_mut().enumerate() {
            for (i, w) in row.iter_mut().enumerate() {
                *w = ((r * 10_000 + i) as f32 * 0.37).sin();
            }
        }
        big.velocities = big.replicas.clone();
        for (c, stride) in [(full_checkpoint(), 1), (big, 997)] {
            let bytes = c.to_bytes().unwrap();
            assert_eq!(Checkpoint::from_bytes(&bytes).unwrap(), c);
            for bit in (0..bytes.len() * 8).step_by(stride) {
                let mut bad = bytes.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                let err = Checkpoint::from_bytes(&bad).unwrap_err();
                if bit >= 64 {
                    assert!(err.contains("checksum"), "bit {bit}: {err}");
                }
            }
            for cut in (0..bytes.len()).step_by(stride) {
                assert!(
                    Checkpoint::from_bytes(&bytes[..cut]).is_err(),
                    "cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn minimal_checkpoint_roundtrips() {
        let c = Checkpoint::new(0, vec![vec![f32::MIN_POSITIVE]], 1.0);
        let back = Checkpoint::from_bytes(&c.to_bytes().unwrap()).unwrap();
        assert_eq!(back, c);
        assert!(back.partial.is_none());
    }

    #[test]
    fn redistribute_preserves_mean() {
        let c = Checkpoint::new(
            0,
            vec![
                vec![0.0, 0.0],
                vec![2.0, 2.0],
                vec![4.0, 4.0],
                vec![6.0, 6.0],
            ],
            1.0,
        );
        let total_mean = 3.0f32;
        let shrunk = c.redistribute(2);
        assert_eq!(shrunk.num_replicas(), 2);
        let new_mean: f32 = shrunk.replicas.iter().map(|r| r[0]).sum::<f32>() / 2.0;
        assert!((new_mean - total_mean).abs() < 1e-6, "mean preserved");
    }

    #[test]
    fn redistribute_merges_momentum_too() {
        let mut c = Checkpoint::new(1, vec![vec![0.0], vec![2.0], vec![4.0]], 0.5);
        c.velocities = vec![vec![3.0], vec![6.0], vec![9.0]];
        let shrunk = c.redistribute(2);
        assert_eq!(shrunk.velocities.len(), 2);
        // survivors absorb the evicted mean with the same 2/3 weighting as
        // the weights: 2/3 * v + 1/3 * 9.0
        assert!((shrunk.velocities[0][0] - (2.0 / 3.0 * 3.0 + 3.0)).abs() < 1e-6);
        assert!((shrunk.velocities[1][0] - (2.0 / 3.0 * 6.0 + 3.0)).abs() < 1e-6);
    }

    #[test]
    fn redistribute_keeps_survivor_states_only() {
        let mut c = Checkpoint::new(1, vec![vec![0.0], vec![2.0], vec![4.0]], 0.5);
        c.states = vec![vec![0.1, 1.1], vec![0.2, 1.2], vec![0.3, 1.3]];
        let shrunk = c.redistribute(2);
        // running stats are not averaged: survivors keep their own
        assert_eq!(shrunk.states, vec![vec![0.1, 1.1], vec![0.2, 1.2]]);
    }

    #[test]
    fn redistribute_noop_when_keeping_all() {
        let c = full_checkpoint();
        assert_eq!(c.redistribute(2), c);
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = std::env::temp_dir().join("socflow_ckpt_test");
        let c = full_checkpoint();
        let bytes = c.save(&dir).unwrap();
        assert!(bytes > 0);
        let back = Checkpoint::load(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(back, c);
    }

    #[test]
    #[should_panic(expected = "invalid keep")]
    fn redistribute_rejects_zero() {
        Checkpoint::new(0, vec![vec![1.0]], 1.0).redistribute(0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn rejects_ragged_replicas() {
        Checkpoint::new(0, vec![vec![1.0], vec![1.0, 2.0]], 1.0);
    }
}
