//! Deterministic per-SoC streaming ingestion (ROADMAP item 3, ScaDLES
//! direction).
//!
//! Edge SoCs in deployment train on *live* data — camera frames, sensor
//! windows — arriving at device-dependent rates, not on a pre-partitioned
//! static corpus. This module models that workload class with three pieces,
//! all bit-deterministic in their seeds:
//!
//! - [`RateProfile`]: a seeded per-SoC stream-rate heterogeneity profile
//!   (uniform, heterogeneous, bimodal) producing rate *multipliers* around
//!   a mean of 1.0;
//! - [`StreamSource`]: a stateless position-indexed sample stream — sample
//!   identity is a pure function of the stream position, so any consumer
//!   can read any window without carrying RNG state;
//! - [`IngestBuffer`]: a bounded integer ingest buffer that backpressures
//!   its producer when full, with exact produced/consumed accounting.
//!
//! The engine prices stalls on the simulated clock from these
//! integer models; nothing here depends on wall time or thread count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// SplitMix64 finalizer: a high-quality 64-bit mixer used to derive
/// position-indexed sample identities without sequential RNG state.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded per-SoC stream-rate heterogeneity profile.
///
/// A profile turns `(socs, seed)` into one rate *multiplier* per SoC with
/// mean ≈ 1.0; the engine scales them by a base samples/sec rate. Two
/// calls with the same arguments return identical vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RateProfile {
    /// Every SoC streams at the base rate (multiplier 1.0).
    Uniform,
    /// Independent per-SoC multipliers drawn uniformly from `[0.4, 1.6]`
    /// — the ScaDLES-style long-tail heterogeneity case.
    Heterogeneous,
    /// Half the SoCs stream slow (0.55×), half fast (1.45×), with a seeded
    /// shuffle deciding which — the camera-tier split case.
    Bimodal,
}

impl RateProfile {
    /// Parses a CLI profile name (`"uniform"`, `"hetero"` or `"bimodal"`).
    ///
    /// # Errors
    /// Returns a message naming the valid profiles on anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "uniform" => Ok(RateProfile::Uniform),
            "hetero" | "heterogeneous" => Ok(RateProfile::Heterogeneous),
            "bimodal" => Ok(RateProfile::Bimodal),
            other => Err(format!(
                "unknown rate profile `{other}` (uniform|hetero|bimodal)"
            )),
        }
    }

    /// The CLI/telemetry name of the profile.
    pub fn name(self) -> &'static str {
        match self {
            RateProfile::Uniform => "uniform",
            RateProfile::Heterogeneous => "hetero",
            RateProfile::Bimodal => "bimodal",
        }
    }

    /// One rate multiplier per SoC, deterministic in `(socs, seed)`.
    ///
    /// ```
    /// use socflow_data::stream::RateProfile;
    /// let a = RateProfile::Heterogeneous.multipliers(8, 42);
    /// let b = RateProfile::Heterogeneous.multipliers(8, 42);
    /// assert_eq!(a, b); // seeded: identical on every call
    /// assert!(a.iter().all(|&r| (0.4..=1.6).contains(&r)));
    /// assert_eq!(RateProfile::Uniform.multipliers(3, 0), vec![1.0; 3]);
    /// ```
    pub fn multipliers(self, socs: usize, seed: u64) -> Vec<f64> {
        match self {
            RateProfile::Uniform => vec![1.0; socs],
            RateProfile::Heterogeneous => {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5712_ea77);
                (0..socs).map(|_| rng.gen_range(0.4..=1.6)).collect()
            }
            RateProfile::Bimodal => {
                // half slow, half fast; a seeded Fisher-Yates shuffle
                // decides which SoCs land in which tier
                let mut rates: Vec<f64> = (0..socs)
                    .map(|i| if i < socs / 2 { 0.55 } else { 1.45 })
                    .collect();
                let mut rng = StdRng::seed_from_u64(seed ^ 0xb1b0_da11);
                for i in (1..rates.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    rates.swap(i, j);
                }
                rates
            }
        }
    }

    /// `max / min` of the multipliers — the spread the engine compares
    /// against its regrouping threshold.
    ///
    /// # Panics
    /// Panics if `socs == 0`.
    pub fn spread(self, socs: usize, seed: u64) -> f64 {
        let m = self.multipliers(socs, seed);
        let max = m.iter().cloned().fold(f64::MIN, f64::max);
        let min = m.iter().cloned().fold(f64::MAX, f64::min);
        assert!(socs > 0, "spread of an empty profile");
        max / min
    }
}

/// A deterministic, position-indexed sample stream over a dataset.
///
/// Live streams replay the synthetic corpus in a pseudo-random order:
/// the sample at stream position `p` is a pure function of `(seed, p)`,
/// so there is no RNG state to carry, any window can be read independently,
/// and replaying a window after a fault yields identical samples.
///
/// ```
/// use socflow_data::stream::StreamSource;
/// let s = StreamSource::new(100, 7);
/// assert_eq!(s.sample_at(3), s.sample_at(3)); // stateless: pure in position
/// assert!(s.take(10, 5).iter().all(|&i| i < 100));
/// assert_eq!(s.take(10, 5), s.take(10, 5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamSource {
    len: usize,
    seed: u64,
}

impl StreamSource {
    /// A stream over a dataset of `len` samples.
    ///
    /// # Panics
    /// Panics if `len == 0`.
    pub fn new(len: usize, seed: u64) -> Self {
        assert!(len > 0, "stream over an empty dataset");
        StreamSource { len, seed }
    }

    /// Number of distinct samples the stream draws from.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the stream draws from no samples (never: `new` rejects 0).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The dataset index of the sample at stream position `pos`.
    pub fn sample_at(&self, pos: u64) -> usize {
        (splitmix64(self.seed ^ pos.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % self.len as u64) as usize
    }

    /// The `n` dataset indices at stream positions `start..start + n`.
    pub fn take(&self, start: u64, n: usize) -> Vec<usize> {
        (0..n as u64).map(|k| self.sample_at(start + k)).collect()
    }
}

/// A bounded per-group ingest buffer with exact integer accounting.
///
/// Samples arriving from the stream are `produce`d into the buffer and
/// `consume`d by training. When the buffer is full it backpressures the
/// producer: the rejected tail is deferred (the stream pauses), never
/// lost, and is *not* counted as produced. Samples a stalled consumer
/// takes at line rate, bypassing the queue, are recorded with
/// [`IngestBuffer::drain_through`].
///
/// The conservation law `produced == consumed + level` holds after every
/// operation.
///
/// ```
/// use socflow_data::stream::IngestBuffer;
/// let mut b = IngestBuffer::new(4);
/// assert_eq!(b.produce(6), 4);  // backpressure: 2 deferred, none lost
/// assert_eq!(b.consume(3), 3);
/// assert_eq!(b.level(), 1);
/// assert_eq!(b.produced(), b.consumed() + b.level());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestBuffer {
    capacity: u64,
    level: u64,
    produced: u64,
    consumed: u64,
}

impl IngestBuffer {
    /// A buffer holding at most `capacity` samples.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "ingest buffer needs capacity");
        IngestBuffer {
            capacity,
            level: 0,
            produced: 0,
            consumed: 0,
        }
    }

    /// Offers `n` freshly streamed samples; returns how many entered the
    /// buffer. The rest are deferred and counted as nothing (the stream
    /// pauses).
    pub fn produce(&mut self, n: u64) -> u64 {
        let accepted = n.min(self.capacity - self.level);
        self.level += accepted;
        self.produced += accepted;
        accepted
    }

    /// Takes up to `n` buffered samples for training; returns how many
    /// were available.
    pub fn consume(&mut self, n: u64) -> u64 {
        let taken = n.min(self.level);
        self.level -= taken;
        self.consumed += taken;
        taken
    }

    /// Records `n` samples consumed at line rate without entering the
    /// bounded queue — a stalled consumer taking arrivals as they come.
    pub fn drain_through(&mut self, n: u64) {
        self.produced += n;
        self.consumed += n;
    }

    /// Samples currently buffered.
    pub fn level(&self) -> u64 {
        self.level
    }

    /// Maximum samples the buffer holds.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Samples that entered the buffer or drained through it (a deferred
    /// tail was never generated).
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Samples taken by training.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// `true` iff the conservation law holds: `produced == consumed + level`.
    pub fn conserves(&self) -> bool {
        self.produced == self.consumed + self.level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn policies_parse_and_name() {
        assert_eq!(RateProfile::parse("hetero"), Ok(RateProfile::Heterogeneous));
        assert_eq!(
            RateProfile::parse("heterogeneous"),
            Ok(RateProfile::Heterogeneous)
        );
        assert_eq!(RateProfile::parse("bimodal"), Ok(RateProfile::Bimodal));
        assert_eq!(RateProfile::Bimodal.name(), "bimodal");
        assert!(RateProfile::parse("diurnal").is_err());
    }

    #[test]
    fn profiles_are_seeded_and_spread_correctly() {
        let u = RateProfile::Uniform.multipliers(6, 1);
        assert_eq!(u, vec![1.0; 6]);
        assert!((RateProfile::Uniform.spread(6, 1) - 1.0).abs() < 1e-12);

        let h1 = RateProfile::Heterogeneous.multipliers(16, 9);
        let h2 = RateProfile::Heterogeneous.multipliers(16, 9);
        let h3 = RateProfile::Heterogeneous.multipliers(16, 10);
        assert_eq!(h1, h2);
        assert_ne!(h1, h3, "different seeds draw different rates");
        assert!(RateProfile::Heterogeneous.spread(16, 9) > 1.0);

        let b = RateProfile::Bimodal.multipliers(8, 3);
        assert_eq!(b.iter().filter(|&&r| r == 0.55).count(), 4);
        assert_eq!(b.iter().filter(|&&r| r == 1.45).count(), 4);
        assert_ne!(
            b,
            RateProfile::Bimodal.multipliers(8, 4),
            "tier assignment is shuffled by seed"
        );
    }

    #[test]
    fn stream_source_is_stateless_and_in_range() {
        let s = StreamSource::new(37, 5);
        let w1 = s.take(1000, 64);
        let w2 = s.take(1000, 64);
        assert_eq!(w1, w2);
        assert!(w1.iter().all(|&i| i < 37));
        // windows can be read out of order / overlapping
        assert_eq!(s.take(1010, 10), w1[10..20].to_vec());
        // different seeds give different streams
        assert_ne!(StreamSource::new(37, 6).take(1000, 64), w1);
    }

    #[test]
    fn stream_source_covers_the_dataset() {
        // over a long window every sample index should appear: the mixer
        // must not collapse the stream onto a subset
        let s = StreamSource::new(16, 11);
        let mut seen = [false; 16];
        for i in s.take(0, 512) {
            seen[i] = true;
        }
        assert!(seen.iter().all(|&b| b), "stream misses samples: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn stream_source_rejects_empty() {
        let _ = StreamSource::new(0, 1);
    }

    #[test]
    fn buffer_block_defers_without_loss() {
        let mut b = IngestBuffer::new(3);
        assert_eq!(b.produce(5), 3);
        assert_eq!((b.level(), b.produced()), (3, 3));
        assert_eq!(b.consume(10), 3, "consume is capped at the level");
        b.drain_through(7);
        assert_eq!((b.produced(), b.consumed()), (10, 10));
        assert!(b.conserves());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn buffer_rejects_zero_capacity() {
        let _ = IngestBuffer::new(0);
    }

    /// Decodes one drawn word into an ingest-buffer operation: the low
    /// bits select produce/consume/drain, the rest is the amount.
    fn apply_op(b: &mut IngestBuffer, word: u64) {
        let n = word / 3 % 200;
        match word % 3 {
            0 => {
                b.produce(n);
            }
            1 => {
                b.consume(n);
            }
            _ => b.drain_through(n),
        }
    }

    proptest! {
        /// Conservation holds under arbitrary produce/consume/drain
        /// interleavings: backpressure never loses a sample.
        #[test]
        fn buffer_conservation(ops in proptest::collection::vec(0u64..6000, 1..64),
                               capacity in 1u64..128) {
            let mut b = IngestBuffer::new(capacity);
            for word in ops {
                apply_op(&mut b, word);
                prop_assert!(b.conserves());
                prop_assert!(b.level() <= b.capacity());
            }
        }

        /// The buffer is a pure state machine: replaying an op sequence
        /// reproduces the exact final state (the rerun-determinism half of
        /// the buffer contract; thread-count invariance is pinned
        /// end-to-end in the repo-level trace tests).
        #[test]
        fn buffer_replay_is_deterministic(ops in proptest::collection::vec(0u64..6000, 1..64),
                                          capacity in 1u64..128) {
            let run = || {
                let mut b = IngestBuffer::new(capacity);
                for word in &ops {
                    apply_op(&mut b, *word);
                }
                b
            };
            prop_assert_eq!(run(), run());
        }

        /// Stream identity is a pure function of (seed, position).
        #[test]
        fn stream_positions_are_pure(len in 1usize..500, seed in 0u64..1_000_000, pos in 0u64..1_000_000_000) {
            let s = StreamSource::new(len, seed);
            prop_assert_eq!(s.sample_at(pos), s.sample_at(pos));
            prop_assert!(s.sample_at(pos) < len);
        }
    }
}
