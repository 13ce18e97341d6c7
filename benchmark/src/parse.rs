//! Parsers for what `socflow-cli` prints: the `--json` documents of
//! `train`, `tune` and `fleet`, the `--profile-kernels` table on stderr,
//! and the JSONL telemetry trace. Each keeps only the fields the
//! benchmark checks or reports, so unrelated additions to the CLI's
//! output do not break it; fixtures under `fixtures/` pin the shapes.

use serde_json::Value;

fn document(stdout: &str) -> Result<Value, String> {
    serde_json::from_str(stdout).map_err(|e| format!("stdout is not JSON: {e}"))
}

fn number(doc: &Value, field: &str) -> Result<f64, String> {
    doc.get(field)
        .as_f64()
        .ok_or_else(|| format!("`{field}` is not a finite number"))
}

fn count(doc: &Value, field: &str) -> Result<u64, String> {
    doc.get(field)
        .as_u64()
        .ok_or_else(|| format!("`{field}` is not a count"))
}

/// Every element must be a finite number: the CLI writes NaN and
/// infinities as `null`, which is rejected here.
fn numbers(doc: &Value, field: &str) -> Result<Vec<f64>, String> {
    doc.get(field)
        .as_array()
        .ok_or_else(|| format!("`{field}` is not an array"))?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| format!("`{field}` holds a non-finite entry"))
        })
        .collect()
}

/// `train --json`: the per-epoch accuracy and simulated-time streams.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOut {
    pub epoch_accuracy: Vec<f64>,
    pub epoch_time: Vec<f64>,
}

pub fn train(stdout: &str) -> Result<TrainOut, String> {
    let doc = document(stdout)?;
    let out = TrainOut {
        epoch_accuracy: numbers(&doc, "epoch_accuracy")?,
        epoch_time: numbers(&doc, "epoch_time")?,
    };
    if out.epoch_accuracy.is_empty() || out.epoch_accuracy.len() != out.epoch_time.len() {
        return Err(format!(
            "{} accuracies against {} epoch times",
            out.epoch_accuracy.len(),
            out.epoch_time.len()
        ));
    }
    Ok(out)
}

impl TrainOut {
    pub fn final_accuracy(&self) -> f64 {
        *self
            .epoch_accuracy
            .last()
            .expect("train() rejects empty runs")
    }

    pub fn mean_epoch_time(&self) -> f64 {
        self.epoch_time.iter().sum::<f64>() / self.epoch_time.len() as f64
    }

    /// Simulated seconds until the first epoch whose accuracy reaches
    /// `target` (quantised to epochs). When no epoch does, the total
    /// simulated time and `false`.
    pub fn time_to_accuracy(&self, target: f64) -> (f64, bool) {
        let mut clock = 0.0;
        for (acc, t) in self.epoch_accuracy.iter().zip(&self.epoch_time) {
            clock += t;
            if *acc >= target {
                return (clock, true);
            }
        }
        (clock, false)
    }
}

/// `tune --json`: the search counters and the two plans that matter.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneOut {
    pub evaluated: u64,
    pub pruned: u64,
    pub skipped: u64,
    pub best_s: f64,
    pub default_s: f64,
}

pub fn tune(stdout: &str) -> Result<TuneOut, String> {
    let doc = document(stdout)?;
    Ok(TuneOut {
        evaluated: count(&doc, "evaluated")?,
        pruned: count(&doc, "pruned")?,
        skipped: count(&doc, "skipped")?,
        best_s: number(doc.get("best"), "predicted_s")?,
        default_s: number(doc.get("default"), "predicted_s")?,
    })
}

/// `fleet --json`: the aggregate outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOut {
    pub horizon_hours: f64,
    pub jobs: u64,
    pub completed: u64,
    pub preemptions: u64,
    pub mean_jct_s: f64,
}

pub fn fleet(stdout: &str) -> Result<FleetOut, String> {
    let doc = document(stdout)?;
    Ok(FleetOut {
        horizon_hours: number(&doc, "horizon_hours")?,
        jobs: doc
            .get("jobs")
            .as_array()
            .ok_or("`jobs` is not an array")?
            .len() as u64,
        completed: count(&doc, "completed")?,
        preemptions: count(&doc, "preemptions")?,
        mean_jct_s: number(&doc, "mean_jct_s")?,
    })
}

/// One row of the `--profile-kernels` table.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRow {
    pub op: String,
    pub seconds: f64,
    pub calls: u64,
}

/// The rows after the `host kernel time:` header on stderr, each
/// `<op> <ms> ms <calls> calls`. The table is process-cumulative, so it
/// covers the same interval as the child's CPU time. No header (the
/// subcommand has no profiler) gives no rows.
pub fn kernel_table(stderr: &str) -> Vec<KernelRow> {
    stderr
        .lines()
        .skip_while(|l| l.trim() != "host kernel time:")
        .skip(1)
        .map_while(|line| {
            let mut f = line.split_whitespace();
            let (op, ms, unit, calls, word) =
                (f.next()?, f.next()?, f.next()?, f.next()?, f.next()?);
            if unit != "ms" || word != "calls" {
                return None;
            }
            Some(KernelRow {
                op: op.to_string(),
                seconds: ms.parse::<f64>().ok()? / 1e3,
                calls: calls.parse().ok()?,
            })
        })
        .collect()
}

/// Counts taken from a JSONL telemetry trace (one externally tagged
/// event per line).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceCounts {
    pub events: u64,
    pub bytes: u64,
    pub epochs: u64,
    pub faults: u64,
    pub evictions: u64,
    pub persisted: u64,
    pub pool_busy_ns: u64,
    pub pool_wall_ns: u64,
}

pub fn trace_counts(jsonl: &str) -> Result<TraceCounts, String> {
    let mut c = TraceCounts {
        bytes: jsonl.len() as u64,
        ..TraceCounts::default()
    };
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event: Value =
            serde_json::from_str(line).map_err(|e| format!("trace line {}: {e}", i + 1))?;
        let Some([(kind, body)]) = event.as_object() else {
            return Err(format!("trace line {}: not a tagged event", i + 1));
        };
        c.events += 1;
        match kind.as_str() {
            "EpochCompleted" => c.epochs += 1,
            "FaultInjected" => c.faults += 1,
            "GroupEvicted" => c.evictions += 1,
            "CheckpointPersisted" => c.persisted += 1,
            "PoolTotals" => {
                c.pool_busy_ns += body.get("busy_nanos").as_u64().unwrap_or(0);
                c.pool_wall_ns += body.get("wall_nanos").as_u64().unwrap_or(0);
            }
            _ => {}
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(name: &str) -> String {
        let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    #[test]
    fn train_json_fixture() {
        let out = train(&fixture("train.json")).unwrap();
        assert_eq!(out.epoch_accuracy.len(), 3);
        assert_eq!(out.final_accuracy(), 0.6588541865348816);
        assert_eq!(out.mean_epoch_time(), 47.58138796704);
        // epoch 3 is the first at or above 0.5; epoch 2 (0.432) is not
        let t = 47.58138796704;
        assert_eq!(out.time_to_accuracy(0.5), (t + t + t, true));
        assert_eq!(out.time_to_accuracy(0.25), (t, true));
        assert_eq!(out.time_to_accuracy(0.9), (t + t + t, false));
    }

    #[test]
    fn train_json_rejects_non_finite_and_ragged_streams() {
        let nan = r#"{"epoch_accuracy":[0.5],"epoch_time":[null]}"#;
        assert!(train(nan).unwrap_err().contains("non-finite"));
        let ragged = r#"{"epoch_accuracy":[0.5,0.6],"epoch_time":[1.0]}"#;
        assert!(train(ragged).is_err());
        assert!(train("resuming from epoch 3").is_err());
        assert!(train(r#"{"epoch_accuracy":[],"epoch_time":[]}"#).is_err());
    }

    #[test]
    fn tune_json_fixture() {
        let out = tune(&fixture("tune.json")).unwrap();
        assert_eq!((out.evaluated, out.pruned, out.skipped), (24, 0, 336));
        assert_eq!(out.best_s, 30.457350293905893);
        assert_eq!(out.default_s, 93.88791000592295);
    }

    #[test]
    fn fleet_json_fixture() {
        let out = fleet(&fixture("fleet.json")).unwrap();
        assert_eq!((out.jobs, out.completed, out.preemptions), (8, 6, 0));
        assert_eq!(out.horizon_hours, 48.0);
        assert_eq!(out.mean_jct_s, 10777.559006647252);
    }

    #[test]
    fn kernel_table_fixture() {
        let rows = kernel_table(&fixture("profile_kernels.stderr"));
        let ops: Vec<&str> = rows.iter().map(|r| r.op.as_str()).collect();
        assert_eq!(
            ops,
            [
                "matmul",
                "matmul_at_b",
                "matmul_a_bt",
                "matmul_i8",
                "im2col",
                "col2im",
                "quant"
            ]
        );
        assert_eq!(rows[0].calls, 70);
        assert!((rows[0].seconds - 0.021834).abs() < 1e-12);
        assert_eq!(rows[6].calls, 174);
    }

    #[test]
    fn kernel_table_is_empty_without_the_header() {
        assert!(kernel_table("").is_empty());
        assert!(kernel_table("resuming from epoch 10 (7 streams, 28 SoCs alive)\n").is_empty());
    }

    #[test]
    fn trace_counts_fixture() {
        let text = fixture("run.jsonl");
        let c = trace_counts(&text).unwrap();
        assert_eq!(c.bytes, text.len() as u64);
        assert_eq!(c.events, 12);
        assert_eq!((c.epochs, c.faults, c.evictions, c.persisted), (2, 2, 1, 2));
        assert_eq!((c.pool_busy_ns, c.pool_wall_ns), (1500, 1000));
        assert!(trace_counts("{\"A\":1}\nnot json\n").is_err());
        assert!(trace_counts("[1,2]\n").is_err());
    }
}
