//! Diurnal ("tidal") utilization traces of deployed SoC-Clusters.
//!
//! Paper Fig. 3 shows the busy-SoC fraction over a day on production
//! servers hosting cloud gaming: near-idle from roughly 3:00–8:00 and more
//! than an order of magnitude busier from 11:00–17:00. This module
//! generates per-SoC busy/idle schedules with that shape, the input to the
//! "harvest idle cycles" scenario and the preemption experiments.

use crate::topology::SocId;
use crate::Seconds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::{Error, Value};
use serde::{Deserialize, Serialize};

/// Mean busy-SoC fraction for each hour of the day, matching the shape of
/// paper Fig. 3 (user-centric cloud-gaming load: trough before dawn, peak
/// through the afternoon and evening).
pub const HOURLY_BUSY_FRACTION: [f64; 24] = [
    0.18, 0.10, 0.05, 0.02, 0.02, 0.02, 0.03, 0.05, // 00-07
    0.15, 0.30, 0.50, 0.70, 0.78, 0.80, 0.78, 0.75, // 08-15
    0.72, 0.70, 0.65, 0.62, 0.60, 0.55, 0.42, 0.28, // 16-23
];

/// An idle run this long means the SoC is never busy: it is idle through
/// a window of any length.
const WHOLE_DAY: usize = 24;

/// A synthetic one-day utilization trace for a cluster of SoCs.
///
/// Serializes as its busy schedule (`busy`, `socs`); the idle-run table
/// every window test reads is derived from the schedule whenever a trace
/// is made or loaded.
#[derive(Debug, Clone)]
pub struct TidalTrace {
    /// `busy[hour][soc]` — whether the SoC serves user workload that hour.
    busy: Vec<Vec<bool>>,
    socs: usize,
    /// `runs[hour * socs + soc]` — how many hours from `hour` on the SoC
    /// stays idle, wrapping midnight: 0 when busy at `hour`, at most 23
    /// when busy at some hour, [`WHOLE_DAY`] when never.
    runs: Vec<u8>,
    /// `idle[hour * (WHOLE_DAY + 1) + len]` — how many SoCs stay idle
    /// through `[hour, hour + len)`, i.e. have a run of at least `len`.
    idle: Vec<u32>,
}

impl Serialize for TidalTrace {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("busy".to_string(), self.busy.to_json()),
            ("socs".to_string(), self.socs.to_json()),
        ])
    }
}

impl Deserialize for TidalTrace {
    fn from_json(v: &Value) -> Result<Self, Error> {
        let busy: Vec<Vec<bool>> = Deserialize::from_json(v.get("busy"))?;
        let socs = Deserialize::from_json(v.get("socs"))?;
        if busy.len() != 24 || busy.iter().any(|row| row.len() != socs) {
            return Err(Error::msg(format!(
                "a tidal trace is 24 hourly rows of {socs} SoCs"
            )));
        }
        Ok(TidalTrace::from_busy(busy, socs))
    }
}

impl TidalTrace {
    /// Samples a trace for `socs` SoCs. Per hour, each SoC is busy with the
    /// probability given by [`HOURLY_BUSY_FRACTION`]; busy SoCs are chosen
    /// with temporal correlation (a busy SoC tends to stay busy next hour,
    /// as game sessions span hours).
    ///
    /// A zero-SoC cluster yields an empty (but well-formed, 24-row) trace
    /// rather than panicking in the correction loop's `gen_range(0..0)`.
    pub fn generate(socs: usize, seed: u64) -> Self {
        if socs == 0 {
            return TidalTrace::from_busy(vec![Vec::new(); 24], 0);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut busy = Vec::with_capacity(24);
        let mut prev = vec![false; socs];
        for target in HOURLY_BUSY_FRACTION {
            let mut cur = vec![false; socs];
            for s in 0..socs {
                // 70 % session carry-over, rest resampled at the hour's rate
                let p = if prev[s] {
                    0.7 + 0.3 * target
                } else {
                    0.3 * target / (1.0 - target).max(0.05)
                };
                cur[s] = rng.gen::<f64>() < p.min(1.0);
            }
            // correct toward the target fraction; a rounded target can never
            // exceed the population, but clamp anyway so the fill loop below
            // cannot spin forever on a bad future edit
            let want = ((target * socs as f64).round() as usize).min(socs);
            let mut have = cur.iter().filter(|&&b| b).count();
            while have > want {
                let s = rng.gen_range(0..socs);
                if cur[s] {
                    cur[s] = false;
                    have -= 1;
                }
            }
            while have < want {
                let s = rng.gen_range(0..socs);
                if !cur[s] {
                    cur[s] = true;
                    have += 1;
                }
            }
            prev = cur.clone();
            busy.push(cur);
        }
        TidalTrace::from_busy(busy, socs)
    }

    /// A trace over a 24-row schedule of `socs`-long rows, with its
    /// idle-run table.
    fn from_busy(busy: Vec<Vec<bool>>, socs: usize) -> Self {
        let mut runs = vec![0u8; 24 * socs];
        for s in 0..socs {
            // two days backwards: by the second day every run that wraps
            // past midnight has met the busy hour that ends it
            let mut run = 0;
            for h in (0..48).rev().map(|h| h % 24) {
                run = if busy[h][s] {
                    0
                } else {
                    (run + 1).min(WHOLE_DAY)
                };
                runs[h * socs + s] = run as u8;
            }
        }
        // per hour, a histogram of run lengths summed from the longest down
        let mut idle = vec![0u32; 24 * (WHOLE_DAY + 1)];
        for (h, row) in idle.chunks_mut(WHOLE_DAY + 1).enumerate() {
            for &run in &runs[h * socs..(h + 1) * socs] {
                row[run as usize] += 1;
            }
            for len in (0..WHOLE_DAY).rev() {
                row[len] += row[len + 1];
            }
        }
        TidalTrace {
            busy,
            socs,
            runs,
            idle,
        }
    }

    /// Number of SoCs in the trace.
    pub fn socs(&self) -> usize {
        self.socs
    }

    /// Busy-SoC fraction in `[0,1]` for an hour of the day (0.0 for an
    /// empty trace).
    ///
    /// # Panics
    /// Panics if `hour >= 24`.
    pub fn busy_fraction(&self, hour: usize) -> f64 {
        let row = &self.busy[hour];
        if self.socs == 0 {
            return 0.0;
        }
        row.iter().filter(|&&b| b).count() as f64 / self.socs as f64
    }

    /// Whether a SoC is serving user workload at an hour.
    ///
    /// # Panics
    /// Panics if `hour >= 24` or the SoC is out of range.
    pub fn is_busy(&self, soc: SocId, hour: usize) -> bool {
        self.busy[hour][soc.0]
    }

    /// How many hours from `hour` on a SoC stays idle, wrapping midnight:
    /// 0 when it is busy at `hour`, 24 when it is never busy (and so idle
    /// through a window of any length). Reads a table, costs O(1).
    ///
    /// # Panics
    /// Panics if the SoC is out of range.
    pub fn idle_run(&self, soc: SocId, hour: usize) -> usize {
        assert!(soc.0 < self.socs, "SoC {} of {}", soc.0, self.socs);
        self.runs[(hour % 24) * self.socs + soc.0] as usize
    }

    /// Whether a SoC is idle for the *entire* window
    /// `[start_hour, start_hour + len)` (wrapping midnight) — the one
    /// window test.
    pub fn idle_for(&self, soc: SocId, start_hour: usize, len: usize) -> bool {
        self.idle_run(soc, start_hour) >= len.min(WHOLE_DAY)
    }

    /// How many SoCs are idle for the *entire* window
    /// `[start_hour, start_hour + len)` (wrapping midnight): the length of
    /// [`Self::idle_through`], read off a table in O(1). With `len == 1`
    /// it is the number of SoCs idle at `start_hour`.
    pub fn idle_count(&self, start_hour: usize, len: usize) -> usize {
        self.idle[(start_hour % 24) * (WHOLE_DAY + 1) + len.min(WHOLE_DAY)] as usize
    }

    /// SoCs idle for the *entire* window `[start_hour, start_hour + len)`
    /// (wrapping midnight) — candidates for a training job of that length.
    pub fn idle_through(&self, start_hour: usize, len: usize) -> Vec<SocId> {
        (0..self.socs)
            .map(SocId)
            .filter(|&s| self.idle_for(s, start_hour, len))
            .collect()
    }

    /// The start hour of the longest window where at least `min_socs` SoCs
    /// are simultaneously idle throughout, together with the window length
    /// in hours. The paper's deployment uses the pre-dawn trough (~4 h).
    pub fn best_idle_window(&self, min_socs: usize) -> (usize, usize) {
        let mut best = (0usize, 0usize);
        for start in 0..24 {
            let mut len = 0;
            while len < 24 && self.idle_through(start, len + 1).len() >= min_socs {
                len += 1;
            }
            if len > best.1 {
                best = (start, len);
            }
        }
        best
    }
}

/// The idle period the paper assumes a daily training job must fit in
/// (≈ 4 hours, §1 and the dashed "Idle time" line of Fig. 8), seconds.
pub const DAILY_IDLE_WINDOW: Seconds = 4.0 * 3600.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trough_and_peak_shape() {
        let t = TidalTrace::generate(60, 1);
        // pre-dawn trough far below afternoon peak
        let trough: f64 = (3..8).map(|h| t.busy_fraction(h)).sum::<f64>() / 5.0;
        let peak: f64 = (11..17).map(|h| t.busy_fraction(h)).sum::<f64>() / 6.0;
        assert!(
            peak > trough * 10.0,
            "paper: peak >10x trough (trough {trough}, peak {peak})"
        );
    }

    #[test]
    fn busy_fraction_tracks_target() {
        let t = TidalTrace::generate(100, 2);
        for (h, &target) in HOURLY_BUSY_FRACTION.iter().enumerate() {
            let got = t.busy_fraction(h);
            assert!(
                (got - target).abs() < 0.06,
                "hour {h}: target {target}, got {got}"
            );
        }
    }

    #[test]
    fn idle_window_covers_predawn() {
        let t = TidalTrace::generate(60, 3);
        let (start, len) = t.best_idle_window(32);
        assert!(len >= 3, "expect >=3h window with 32 idle SoCs, got {len}");
        // window should overlap the 1:00-7:00 trough
        let covers_trough = (0..len).any(|o| {
            let h = (start + o) % 24;
            (1..=7).contains(&h)
        });
        assert!(covers_trough, "window {start}+{len} misses the trough");
    }

    #[test]
    fn deterministic() {
        let a = TidalTrace::generate(30, 9);
        let b = TidalTrace::generate(30, 9);
        for h in 0..24 {
            assert_eq!(a.busy_fraction(h), b.busy_fraction(h));
        }
    }

    #[test]
    fn zero_socs_yields_an_empty_trace_not_a_panic() {
        let t = TidalTrace::generate(0, 7);
        assert_eq!(t.socs(), 0);
        for h in 0..24 {
            assert_eq!(t.busy_fraction(h), 0.0, "hour {h}");
            assert!(t.idle_through(h, 4).is_empty());
        }
        // window search over an empty trace terminates with a full window
        let (_, len) = t.best_idle_window(0);
        assert_eq!(len, 24);
        assert_eq!(t.best_idle_window(1).1, 0);
    }

    /// The window test as it was before the run table: brute force over
    /// the busy schedule.
    fn brute_idle_through(t: &TidalTrace, start: usize, len: usize) -> Vec<SocId> {
        (0..t.socs())
            .map(SocId)
            .filter(|&s| (0..len).all(|h| !t.is_busy(s, (start + h) % 24)))
            .collect()
    }

    #[test]
    fn the_run_table_is_the_window_test() {
        for seed in [1, 5, 11, 42] {
            for socs in [0, 1, 7, 32, 60] {
                let t = TidalTrace::generate(socs, seed);
                for start in 0..24 {
                    for len in 1..=24 {
                        let brute = brute_idle_through(&t, start, len);
                        let by_run: Vec<SocId> = (0..socs)
                            .map(SocId)
                            .filter(|&s| t.idle_run(s, start) >= len)
                            .collect();
                        assert_eq!(by_run, brute, "seed {seed}, {socs} SoCs, {start}+{len}");
                    }
                    // idle_through reads the table too, past a whole day
                    for len in 0..=30 {
                        assert_eq!(
                            t.idle_through(start, len),
                            brute_idle_through(&t, start, len)
                        );
                    }
                }
                // the best window, searched with the brute-force test
                for min_socs in [0, 1, socs / 2, socs] {
                    let mut best = (0, 0);
                    for start in 0..24 {
                        let mut len = 0;
                        while len < 24 && brute_idle_through(&t, start, len + 1).len() >= min_socs {
                            len += 1;
                        }
                        if len > best.1 {
                            best = (start, len);
                        }
                    }
                    assert_eq!(
                        t.best_idle_window(min_socs),
                        best,
                        "seed {seed}, {socs} SoCs"
                    );
                }
            }
        }
    }

    #[test]
    fn the_idle_count_table_is_the_window_count() {
        for seed in [1, 5, 11, 42] {
            for socs in [0, 1, 7, 32, 60] {
                let t = TidalTrace::generate(socs, seed);
                for start in 0..48 {
                    for len in 0..=30 {
                        assert_eq!(
                            t.idle_count(start, len),
                            brute_idle_through(&t, start % 24, len).len(),
                            "seed {seed}, {socs} SoCs, {start}+{len}"
                        );
                    }
                    let idle_now = (0..socs).filter(|&s| !t.is_busy(SocId(s), start % 24));
                    assert_eq!(t.idle_count(start, 1), idle_now.count());
                }
            }
        }
    }

    #[test]
    fn a_trace_serializes_as_its_schedule_and_reloads_its_runs() {
        let t = TidalTrace::generate(7, 3);
        let json = serde_json::to_string(&t).unwrap();
        assert!(
            json.starts_with("{\"busy\":[[") && !json.contains("runs"),
            "{json}"
        );
        let back: TidalTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        for h in 0..24 {
            for s in (0..7).map(SocId) {
                assert_eq!(back.idle_run(s, h), t.idle_run(s, h));
            }
        }
        // a schedule the table cannot be built from is refused on load
        let one_hour = "{\"busy\":[[false]],\"socs\":1}";
        assert!(serde_json::from_str::<TidalTrace>(one_hour).is_err());
        let wrong_socs = json.replace("\"socs\":7", "\"socs\":8");
        assert!(serde_json::from_str::<TidalTrace>(&wrong_socs).is_err());
    }

    #[test]
    fn idle_through_subset_of_each_hour() {
        let t = TidalTrace::generate(40, 4);
        let idle = t.idle_through(3, 4);
        for s in idle {
            for h in 3..7 {
                assert!(!t.is_busy(s, h));
            }
        }
    }
}
