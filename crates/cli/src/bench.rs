//! `socflow-cli bench` — reproducible benchmark baselines.
//!
//! Seven suites behind one harness. [`SUITES`] lists them, and dispatch,
//! the usage string and the table-driven tests all read that list.
//!
//! Six suites run on the simulated clock, seeded, so their numbers are
//! machine-independent and byte-identical at any worker-pool size. They
//! share one document format: a suite is one function that runs its
//! experiment and returns [`Row`]s, and the harness prints them as one
//! table, applies one [`gate`] and writes `{schema, mode, results}`. A row
//! id is `<suite>/<arm>/<quantity>` (`paper` names the experiment instead
//! of the suite: `fig13/VGG11/least_gain`), and a suite's top-level
//! numbers are its `<suite>/setup/<field>` rows. A row whose `holds` is set
//! is one of the suite's ordering claims: the suite exits 1 and writes no
//! file when one of them breaks, and [`KNOWN_GAPS`] names the claims that
//! do not hold yet. A new simulated suite is one function and one
//! [`SUITES`] entry.
//!
//! `faults` is the fault-tolerance recovery experiment, `timeline` compares
//! the closed-form Eq. 1 epoch pricing against the event-driven fluid
//! timeline across logical-group counts, `fleet` replays the tidal-trace
//! multi-tenant scheduler comparison, `streaming` measures time-to-accuracy
//! under live per-SoC data streams (uniform vs heterogeneous rates,
//! rate-aware regrouping on vs off), `autotune` runs the plan-space
//! search for the bundled model families and reports tuned-vs-default
//! predicted epoch seconds, and `paper` ([`paper`]) reruns the paper's own
//! evaluation, every table and figure as rows of paper value against
//! measured value.
//!
//! `kernels` is the host micro-kernel suite and keeps a document of its
//! own: the tensor kernels the training hot path lives in (tiled GEMM
//! variants, transpose, the pooled conv2d forward/backward, LeNet-5's two
//! layers on the lowering (`conv2d`) and on the direct path
//! (`conv_direct`), the lowering's im2col / col2im / reorder / max-pool, the fused fake-quantize pass, the
//! two GEMMs of a ResNet-18 step on one and on two pool threads, a parallel
//! region's round trip) on fixed shapes with deterministic inputs,
//! reported as minimum wall time per iteration plus achieved GFLOP/s.
//! Minimum-of-N timing is used instead of the mean: the minimum estimates
//! the noise-free cost of the kernel, which is the number optimization
//! work should be judged against. It is the only suite that reads the host
//! clock (`BENCH_kernels.json` records one reference machine; longer
//! host-clock runs are the repo benchmark's job, see
//! `benchmark/README.md`).

mod paper;

use crate::commands::default_width;
use serde::Serialize;
use serde_json::Value;
use socflow::autotune::{autotune, TuneOptions, BUCKET_GRID_KB};
use socflow::config::{MethodSpec, SocFlowConfig, StreamingConfig, TrainJobSpec};
use socflow::fleet::{standard_job_mix, FleetPolicy, FleetSim, FleetSpec};
use socflow::mapping::integrity_greedy;
use socflow::options::{Plan, RunOptions};
use socflow::planning::{divide_communication_groups, CommunicationGroups};
use socflow::scheduler::GlobalScheduler;
use socflow::sim::{simulate_socflow_schedule, SyncSchedule};
use socflow::timemodel::{TimeModel, DEFAULT_BUCKET_KB};
use socflow::{GroupId, Mapping, RunResult};
use socflow_cluster::faults::FaultPlan;
use socflow_cluster::{ClusterSpec, ScratchStats};
use socflow_data::stream::RateProfile;
use socflow_data::DatasetPreset;
use socflow_nn::models::{self, ModelConfig, ModelKind};
use socflow_telemetry::{MemorySink, Summary};
use socflow_tensor::conv::{self, ConvParams};
use socflow_tensor::isa::Isa;
use socflow_tensor::quant::{self, QuantParams};
use socflow_tensor::{linalg, pool, runtime, Tensor};
use std::sync::Arc;
use std::time::Instant;

/// One benchmark suite.
struct Suite {
    /// The `bench <name>` operand.
    name: &'static str,
    /// The `schema` string its JSON document opens with.
    schema: &'static str,
    /// Runs a simulated-clock suite (`fast` trims it to smoke-test size)
    /// and returns its rows; `None` for `kernels`, whose host-clock
    /// document has a shape of its own.
    rows: Option<fn(fast: bool) -> Vec<Row>>,
}

/// A simulated-clock suite's `--json` document.
#[derive(Serialize)]
struct Doc {
    schema: &'static str,
    mode: &'static str,
    results: Vec<Row>,
}

impl Suite {
    /// Runs the suite, prints its table and returns its `--json` document;
    /// `Err` naming every gated row that does not hold.
    fn document(&self, fast: bool) -> Result<Value, String> {
        let mode = if fast { "fast" } else { "full" };
        let Some(rows) = self.rows else {
            return Ok(kernels(self.schema, mode, fast).to_json());
        };
        let results = rows(fast);
        print_table(&results, Row::cells);
        gate(&results)?;
        let schema = self.schema;
        Ok(Doc {
            schema,
            mode,
            results,
        }
        .to_json())
    }
}

const SUITES: &[Suite] = &[
    Suite {
        name: "kernels",
        schema: "socflow-kernel-bench/v1",
        rows: None,
    },
    Suite {
        name: "faults",
        schema: "socflow-fault-bench/v2",
        rows: Some(faults),
    },
    Suite {
        name: "timeline",
        schema: "socflow-timeline-bench/v4",
        rows: Some(timeline),
    },
    Suite {
        name: "fleet",
        schema: "socflow-fleet-bench/v2",
        rows: Some(fleet),
    },
    Suite {
        name: "streaming",
        schema: "socflow-streaming-bench/v2",
        rows: Some(streaming),
    },
    Suite {
        name: "autotune",
        schema: "socflow-autotune-bench/v2",
        rows: Some(autotune_suite),
    },
    Suite {
        name: "paper",
        schema: "socflow-paper-bench/v2",
        rows: Some(paper::paper),
    },
];

/// The `bench` usage line, its operand list generated from [`SUITES`].
pub fn usage() -> String {
    let names: Vec<&str> = SUITES.iter().map(|s| s.name).collect();
    format!(
        "socflow-cli bench <{}> [--fast] [--json <path>]",
        names.join("|")
    )
}

/// `socflow-cli bench <suite> [--fast] [--json <path>]`.
///
/// # Errors
/// Returns a message on unknown operands, an unwritable `--json` path, or
/// a gated row that does not hold.
pub fn bench(argv: &[String]) -> Result<(), String> {
    let usage = format!("usage: {}", usage());
    let mut it = argv.iter();
    let Some(name) = it.next() else {
        return Err(usage);
    };
    let Some(suite) = SUITES.iter().find(|s| s.name == name) else {
        return Err(format!("unknown bench suite `{name}`\n{usage}"));
    };
    let mut fast = false;
    let mut json_path: Option<String> = None;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--fast" => fast = true,
            "--json" => {
                json_path = Some(it.next().cloned().ok_or("`--json` needs a path")?);
            }
            other => return Err(format!("unknown bench flag `{other}`\n{usage}")),
        }
    }
    let run = || suite.document(fast);
    match json_path {
        Some(path) => write_json(&path, run),
        None => run().map(drop),
    }
}

/// Runs `suite` and writes its document to `path`. The destination is
/// opened before the suite starts, so an unwritable path fails without
/// spending the suite's run time; a file that open had to create is removed
/// again when the suite fails, and an existing one keeps its old contents.
fn write_json(path: &str, suite: impl FnOnce() -> Result<Value, String>) -> Result<(), String> {
    let cannot_write = |e: std::io::Error| format!("cannot write bench file `{path}`: {e}");
    let existed = std::path::Path::new(path).exists();
    std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
        .map_err(cannot_write)?;
    let doc = suite().inspect_err(|_| {
        if !existed {
            std::fs::remove_file(path).ok();
        }
    })?;
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(cannot_write)?;
    eprintln!("wrote {path}");
    Ok(())
}

/// One table cell: a row's text under its column's header, padded to
/// `width` — right-aligned, or left-aligned when `width` is negative (the
/// `printf` convention).
struct Cell {
    head: &'static str,
    width: isize,
    text: String,
}

fn col(head: &'static str, width: isize, text: impl ToString) -> Cell {
    let text = text.to_string();
    Cell { head, width, text }
}

/// Prints `rows` as one space-separated table: the header line of the
/// columns `cells` names, then one line per row.
fn print_table<R>(rows: &[R], cells: fn(&R) -> Vec<Cell>) {
    let pad = |c: &Cell, text: &str| {
        let w = c.width.unsigned_abs();
        if c.width < 0 {
            format!("{text:<w$}")
        } else {
            format!("{text:>w$}")
        }
    };
    let line = |cells: Vec<String>| println!("{}", cells.join(" "));
    for (i, row) in rows.iter().enumerate() {
        let cells = cells(row);
        if i == 0 {
            line(cells.iter().map(|c| pad(c, c.head)).collect());
        }
        line(cells.iter().map(|c| pad(c, &c.text)).collect());
    }
}

/// Gated rows that do not hold at the committed size, each with the
/// ROADMAP item that closes it. They stay in the document as reported rows
/// (`holds` unset, so the gate passes them by), the table marks them
/// `gap <item>`, and EXPERIMENTS.md explains each under "Known gaps".
const KNOWN_GAPS: [(&str, &str); 5] = [
    ("fig10/LeNet5-FMNIST/ours_slimmest_lead", "7"),
    ("faults/baseline/best_accuracy", "1(c)"),
    ("faults/storm/slowdown_vs_baseline", "1(c)"),
    ("streaming/setup/target_accuracy", "1(c)"),
    ("streaming/uniform-topology/best_accuracy", "1(c)"),
];

/// The ROADMAP item that closes the known gap `id`, if it is one.
fn known_gap(id: &str) -> Option<&'static str> {
    let gap = KNOWN_GAPS.iter().find(|(gap, _)| *gap == id);
    gap.map(|&(_, item)| item)
}

/// One measured quantity: the one row format of every simulated suite.
#[derive(Serialize)]
struct Row {
    /// `<suite>/<arm>/<quantity>` (`paper`: `<experiment>/<workload>/
    /// <quantity>`), unique in the document.
    id: String,
    /// The id's second and third segments.
    workload: String,
    quantity: String,
    /// The paper's value (`lo == hi`), range, or one-sided bound.
    paper_lo: Option<f64>,
    paper_hi: Option<f64>,
    /// `None` when this run has no such quantity (a target never reached,
    /// a ratio over zero).
    measured: Option<f64>,
    unit: &'static str,
    /// Set on ordering claims: does this run keep the order?
    holds: Option<bool>,
}

impl Row {
    fn paper(&mut self, lo: impl Into<Option<f64>>, hi: impl Into<Option<f64>>) -> &mut Self {
        (self.paper_lo, self.paper_hi) = (lo.into(), hi.into());
        self
    }

    /// Gates the row on `holds`, unless it is a known gap.
    fn holds(&mut self, holds: bool) {
        if known_gap(&self.id).is_none() {
            self.holds = Some(holds);
        }
    }

    fn cells(&self) -> Vec<Cell> {
        let num = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.3}"));
        let paper = match (self.paper_lo, self.paper_hi) {
            (None, None) => String::new(),
            (lo, hi) if lo == hi => num(lo),
            (lo, hi) => format!("{}..{}", num(lo), num(hi)),
        };
        let order = match (self.holds, known_gap(&self.id)) {
            (Some(true), _) => "holds".to_string(),
            (Some(false), _) => "BROKEN".to_string(),
            (None, Some(item)) => format!("gap {item}"),
            (None, None) => String::new(),
        };
        vec![
            col("id", -50, &self.id),
            col("paper", 16, paper),
            col("measured", 12, num(self.measured)),
            col("unit", -7, self.unit),
            col("order", -8, order),
        ]
    }
}

/// Appends the row `id` to `rows` and returns it, for [`Row::paper`] and
/// [`Row::holds`].
fn push<'a>(
    rows: &'a mut Vec<Row>,
    id: String,
    measured: impl Into<Option<f64>>,
    unit: &'static str,
) -> &'a mut Row {
    let mut parts = id.split('/').skip(1).map(str::to_string);
    let (workload, quantity) = (parts.next(), parts.next());
    rows.push(Row {
        workload: workload.expect("a workload in the id"),
        quantity: quantity.expect("a quantity in the id"),
        id,
        paper_lo: None,
        paper_hi: None,
        measured: measured.into(),
        unit,
        holds: None,
    });
    rows.last_mut().expect("just pushed")
}

/// Appends one row `<arm>/<quantity>` per `(quantity, measured, unit)`.
fn push_arm<Q: std::fmt::Display, M: Into<Option<f64>>>(
    rows: &mut Vec<Row>,
    arm: &str,
    quantities: impl IntoIterator<Item = (Q, M, &'static str)>,
) {
    for (quantity, measured, unit) in quantities {
        push(rows, format!("{arm}/{quantity}"), measured, unit);
    }
}

/// Gates the row `id` on `holds` (see [`Row::holds`]).
fn claim(rows: &mut [Row], id: &str, holds: bool) {
    let row = rows.iter_mut().find(|r| r.id == id);
    row.expect("a row to gate").holds(holds);
}

/// `Err` naming every gated row that does not hold.
fn gate(rows: &[Row]) -> Result<(), String> {
    let broken: Vec<String> = rows
        .iter()
        .filter(|r| r.holds == Some(false))
        .map(|r| format!("{} (measured {:?} {})", r.id, r.measured, r.unit))
        .collect();
    if broken.is_empty() {
        return Ok(());
    }
    Err(format!("ordering broken: {}", broken.join(", ")))
}

/// Simulated times this close, relative to the larger, are one time: the
/// timeline's step-by-step arithmetic (held bit for bit, DESIGN.md
/// "Event-driven timeline") can put two epochs that cost the same in exact
/// arithmetic a few ULP apart, either way round.
const SIM_TIE: f64 = 1e-9;

/// `a <= b` on the simulated clock, a tie within [`SIM_TIE`] included.
fn no_later(a: f64, b: f64) -> bool {
    a <= b + SIM_TIE * a.abs().max(b.abs())
}

/// `num / den`, or `None` when either is missing or `den` is not positive.
fn ratio(num: impl Into<Option<f64>>, den: impl Into<Option<f64>>) -> Option<f64> {
    let (num, den) = (num.into()?, den.into()?);
    (den > 0.0).then(|| num / den)
}

/// Whether `ratio(slow, fast)` is a real speedup: defined, and `fast` ahead
/// of `slow` on the simulated clock by more than a tie.
fn gains(slow: Option<f64>, fast: Option<f64>) -> bool {
    let ahead = slow.zip(fast).is_some_and(|(s, f)| !no_later(s, f));
    ahead && ratio(slow, fast).is_some()
}

/// SoCs the timeline and autotune suites plan over: the paper's 60-SoC
/// server, or a 20-SoC slice of it for the fast smoke.
fn paper_socs(fast: bool) -> usize {
    if fast {
        20
    } else {
        60
    }
}

/// Integrity-greedy mapping of `groups` logical groups onto `socs` SoCs,
/// and its communication groups.
fn plan_groups(socs: usize, groups: usize) -> (Mapping, CommunicationGroups) {
    let mapping = integrity_greedy(&ClusterSpec::for_socs(socs), socs, groups);
    let cgs = divide_communication_groups(&mapping).expect("integrity-greedy mappings 2-color");
    (mapping, cgs)
}

/// The job the fault and streaming suites train: LeNet-5 on Fashion-MNIST
/// under SoCFlow.
fn lenet_job(socs: usize, groups: usize, epochs: usize, global_batch: usize) -> TrainJobSpec {
    let mut spec = TrainJobSpec::new(
        ModelKind::LeNet5,
        DatasetPreset::FashionMnist,
        MethodSpec::SocFlow(SocFlowConfig::with_groups(groups)),
    );
    spec.socs = socs;
    spec.epochs = epochs;
    spec.global_batch = global_batch;
    spec
}

/// The chance accuracy of [`lenet_job`]'s ten-class task.
fn lenet_chance() -> f32 {
    1.0 / DatasetPreset::FashionMnist.spec().classes as f32
}

/// A trained arm's claims mean something once its best accuracy clears
/// this multiple of chance.
const CLEAR_OF_CHANCE: f32 = 3.0;

/// The gradient layout the timeline and autotune suites bucket: `kind` at
/// `width` on CIFAR-shaped input, off its layer table.
fn grad_layout(kind: ModelKind, width: f32) -> Vec<socflow_nn::GradReady> {
    models::grad_layout(&kind.layers(ModelConfig::new(3, 32, 10, width)))
}

/// Schedules and runs `spec` on the suites' standard scaled workload
/// (`samples` samples, 8 pixels, half width); returns the result and the
/// summary of the run's telemetry.
fn run_job(spec: TrainJobSpec, samples: usize, options: RunOptions) -> (RunResult, Summary) {
    let sink = Arc::new(MemorySink::new());
    let options = RunOptions {
        sink: Some(sink.clone()),
        ..options
    };
    let workload = socflow::Workload::standard(&spec, samples, 8, 0.5);
    let result = GlobalScheduler::new(spec, workload, options, Plan::Fixed).run();
    (result, Summary::from_events(&sink.events()))
}

/// One kernel measurement.
#[derive(Serialize)]
struct KernelRow {
    op: &'static str,
    shape: String,
    iters: u32,
    ns_per_iter: f64,
    /// Floating-point (or element, for data-movement ops; chunk, for the
    /// pool's round trip) operations per nanosecond.
    gflops: f64,
}

impl KernelRow {
    fn cells(&self) -> Vec<Cell> {
        vec![
            col("op", -16, self.op),
            col("shape", -18, &self.shape),
            col("iters", 6, self.iters),
            col("ns/iter", 12, format!("{:.0}", self.ns_per_iter)),
            col("GFLOP/s", 9, format!("{:.3}", self.gflops)),
        ]
    }
}

#[derive(Serialize)]
struct KernelDoc {
    schema: &'static str,
    mode: &'static str,
    profiled_beta: f64,
    /// Which kernel instantiation this host ran: "avx512" | "avx2" |
    /// "portable".
    isa: &'static str,
    results: Vec<KernelRow>,
}

/// Deterministic pseudo-random fill (splitmix-style), so every run of the
/// suite — on any machine — benches identical inputs.
fn fill(data: &mut [f32], mut seed: u64) {
    for v in data.iter_mut() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = ((seed >> 33) as u32 as f64 / u32::MAX as f64 - 0.5) as f32;
    }
}

fn tensor(shape: impl Into<socflow_tensor::Shape>, seed: u64) -> Tensor {
    let mut t = Tensor::zeros(shape);
    fill(t.data_mut(), seed);
    t
}

/// Minimum wall time of `iters` timed runs after `warmup` untimed ones.
fn time_min(iters: u32, warmup: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best
}

/// Runs the kernel suite and returns its document under `schema` and
/// `mode`. `fast` trims iteration counts to smoke-test level.
fn kernels(schema: &'static str, mode: &'static str, fast: bool) -> KernelDoc {
    let (iters, warmup) = if fast { (3, 1) } else { (20, 3) };
    let mut results = Vec::new();
    let mut time = |op: &'static str, shape: String, flops: f64, kernel: &mut dyn FnMut()| {
        let ns_per_iter = time_min(iters, warmup, kernel);
        let gflops = if ns_per_iter > 0.0 {
            flops / ns_per_iter
        } else {
            0.0
        };
        results.push(KernelRow {
            op,
            shape,
            iters,
            ns_per_iter,
            gflops,
        });
        ns_per_iter
    };

    // --- GEMM family at the transformer/classifier-head scale -----------
    let (m, k, n) = (128, 128, 128);
    let a = tensor([m, k], 0x5eed_0001);
    let b = tensor([k, n], 0x5eed_0002);
    let mut c = Tensor::zeros([m, n]);
    let gemm_shape = format!("{m}x{k}x{n}");
    let gemm_flops = 2.0 * (m * k * n) as f64;
    let f32_ns = time("matmul", gemm_shape.clone(), gemm_flops, &mut || {
        linalg::matmul_slices(a.data(), b.data(), c.data_mut(), m, k, n);
    });
    let at = tensor([k, m], 0x5eed_0003); // Aᵀ stored (k, m)
    time("matmul_at_b", gemm_shape.clone(), gemm_flops, &mut || {
        linalg::matmul_at_b_slices(at.data(), b.data(), c.data_mut(), m, k, n);
    });
    let bt = tensor([n, k], 0x5eed_0004); // Bᵀ stored (n, k)
    time("matmul_a_bt", gemm_shape.clone(), gemm_flops, &mut || {
        linalg::matmul_a_bt_slices(a.data(), bt.data(), c.data_mut(), m, k, n);
    });

    // Awkward edge-tail shape: exercises the partial-tile paths.
    let (m2, k2, n2) = (96, 33, 65);
    let a2 = tensor([m2, k2], 0x5eed_0005);
    let b2 = tensor([k2, n2], 0x5eed_0006);
    let mut c2 = Tensor::zeros([m2, n2]);
    let tail_shape = format!("{m2}x{k2}x{n2}");
    let tail_flops = 2.0 * (m2 * k2 * n2) as f64;
    time("matmul", tail_shape.clone(), tail_flops, &mut || {
        linalg::matmul_slices(a2.data(), b2.data(), c2.data_mut(), m2, k2, n2);
    });

    // --- Integer GEMM (the INT8 replica arm's execution path) -----------
    // Same shapes as the f32 family.
    let (mut qa, mut qbt) = (Vec::new(), Vec::new());
    quant::quantize_into(&a, QuantParams::from_tensor(&a), &mut qa);
    quant::quantize_into(&bt, QuantParams::from_tensor(&bt), &mut qbt);
    let mut ci = vec![0i32; m * n];
    let i8_ns = time("matmul_i8", gemm_shape, gemm_flops, &mut || {
        linalg::matmul_i8_a_bt_slices(&qa, &qbt, &mut ci, m, k, n);
    });
    let bt2 = tensor([n2, k2], 0x5eed_000c); // Bᵀ stored (n, k)
    let (mut qa2, mut qbt2) = (Vec::new(), Vec::new());
    quant::quantize_into(&a2, QuantParams::from_tensor(&a2), &mut qa2);
    quant::quantize_into(&bt2, QuantParams::from_tensor(&bt2), &mut qbt2);
    let mut ci2 = vec![0i32; m2 * n2];
    time("matmul_i8", tail_shape, tail_flops, &mut || {
        linalg::matmul_i8_a_bt_slices(&qa2, &qbt2, &mut ci2, m2, k2, n2);
    });

    // --- Both GEMMs well above their pool thresholds ---------------------
    // 128³ sits below the i8 kernel's threshold and just above the f32
    // one's; at 256³ both products go to the pool, so running the suite at
    // SOCFLOW_THREADS=1 and =2 shows each threshold from both sides.
    let (m3, k3, n3) = (256, 256, 256);
    let a3 = tensor([m3, k3], 0x5eed_000d);
    let b3 = tensor([k3, n3], 0x5eed_000e);
    let mut c3 = Tensor::zeros([m3, n3]);
    let big_shape = format!("{m3}x{k3}x{n3}");
    let big_flops = 2.0 * (m3 * k3 * n3) as f64;
    time("matmul", big_shape.clone(), big_flops, &mut || {
        linalg::matmul_slices(a3.data(), b3.data(), c3.data_mut(), m3, k3, n3);
    });
    let (mut qa3, mut qbt3) = (Vec::new(), Vec::new());
    quant::quantize_into(&a3, QuantParams::from_tensor(&a3), &mut qa3);
    quant::quantize_into(&b3, QuantParams::from_tensor(&b3), &mut qbt3);
    let mut ci3 = vec![0i32; m3 * n3];
    time("matmul_i8", big_shape, big_flops, &mut || {
        linalg::matmul_i8_a_bt_slices(&qa3, &qbt3, &mut ci3, m3, k3, n3);
    });

    // --- The products the training ledger spends its GEMM time in --------
    // `train_mixed`'s VGG-11 (0.25 width, 8×8 inputs): the 56-filter 2×2
    // convolution's weight gradient `dYᵀ × patches`, input gradient
    // `dY × W` (40 samples) and forward `patches × Wᵀ` (24 samples), and the
    // first convolution's forward — 14 filters, all of them a padded tail.
    // Then LeNet-5's first FMNIST convolution on the INT8 arm: `k = 9`, the
    // i8 kernel's short-`k` path.
    type Gemm = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
    let ledger: [(&str, Gemm, usize, usize, usize); 4] = [
        ("matmul_at_b", linalg::matmul_at_b_slices, 56, 160, 504),
        ("matmul", linalg::matmul_slices, 160, 56, 504),
        ("matmul_a_bt", linalg::matmul_a_bt_slices, 96, 504, 56),
        ("matmul_a_bt", linalg::matmul_a_bt_slices, 2560, 27, 14),
    ];
    for (op, gemm, m, k, n) in ledger {
        // `m·k` and `k·n` floats: what every orientation reads, as `A` or
        // `Aᵀ` and as `B` or `Bᵀ`
        let lhs = tensor([m, k], 0x5eed_0017);
        let rhs = tensor([k, n], 0x5eed_0018);
        let mut out = Tensor::zeros([m, n]);
        let flops = 2.0 * (m * k * n) as f64;
        time(op, format!("{m}x{k}x{n}"), flops, &mut || {
            gemm(lhs.data(), rhs.data(), out.data_mut(), m, k, n);
        });
    }
    let (m4, k4, n4) = (2560, 9, 3);
    let a4 = tensor([m4, k4], 0x5eed_0019);
    let bt4 = tensor([n4, k4], 0x5eed_001a);
    let (mut qa4, mut qbt4) = (Vec::new(), Vec::new());
    quant::quantize_into(&a4, QuantParams::from_tensor(&a4), &mut qa4);
    quant::quantize_into(&bt4, QuantParams::from_tensor(&bt4), &mut qbt4);
    let mut ci4 = vec![0i32; m4 * n4];
    time(
        "matmul_i8",
        format!("{m4}x{k4}x{n4}"),
        2.0 * (m4 * k4 * n4) as f64,
        &mut || {
            linalg::matmul_i8_a_bt_slices(&qa4, &qbt4, &mut ci4, m4, k4, n4);
        },
    );

    // --- Transpose (data movement; "flops" = elements moved) ------------
    let (tm, tn) = (256, 256);
    let src = tensor([tm, tn], 0x5eed_0007);
    let mut dst = Tensor::zeros([tn, tm]);
    time(
        "transpose",
        format!("{tm}x{tn}"),
        (tm * tn) as f64,
        &mut || {
            linalg::transpose_slices(src.data(), dst.data_mut(), tm, tn);
        },
    );

    // --- Conv2d on the step scratch, as a layer runs it -------------------
    let (cn, ic, hw, oc, kk) = (4, 16, 16, 32, 3);
    let p = ConvParams::new(1, 1);
    let x = tensor([cn, ic, hw, hw], 0x5eed_0008);
    let w = tensor([oc, ic, kk, kk], 0x5eed_0009);
    let oh = p.out_size(hw, kk);
    let conv_shape = format!("{cn}x{ic}x{hw}x{hw}->{oc}");
    let conv_flops = 2.0 * (cn * oh * oh * oc * ic * kk * kk) as f64;
    time("conv2d", conv_shape.clone(), conv_flops, &mut || {
        let (y, cache) = conv::conv2d(&x, &w, p);
        pool::recycle(y);
        cache.recycle();
    });
    let (y, cache) = conv::conv2d(&x, &w, p);
    let gy = tensor(y.shape().clone(), 0x5eed_000a);
    // two GEMMs of the forward's size
    time("conv2d_backward", conv_shape, 2.0 * conv_flops, &mut || {
        let (gx, gw) = conv::conv2d_backward(&gy, &cache, &w, x.shape(), p, true);
        pool::recycle(gx.expect("asked for"));
        pool::recycle(gw);
    });

    // --- LeNet-5's two layers on both paths --------------------------------
    // A 40-sample step at the CLI's width: conv1 on FMNIST's one channel and
    // conv2 on the pooled map. Rows `conv2d` run the lowering, rows
    // `conv_direct` the direct path; `conv::conv2d` picks one per layer.
    for (i, (ln, lic, lhw, loc)) in [(40, 1, 8, 3), (40, 3, 4, 8)].into_iter().enumerate() {
        let lx = tensor([ln, lic, lhw, lhw], 0x5eed_0020 + i as u64);
        let lw = tensor([loc, lic, kk, kk], 0x5eed_0022 + i as u64);
        let lgy = tensor([ln, loc, lhw, lhw], 0x5eed_0024 + i as u64);
        let flops = 2.0 * (ln * lhw * lhw * loc * lic * kk * kk) as f64;
        let layer = format!("{ln}x{lic}x{lhw}x{lhw}->{loc}");
        for (op, path) in [
            ("conv2d", conv::ConvPath::Lowered),
            ("conv_direct", conv::ConvPath::Direct),
        ] {
            time(op, format!("fwd {layer}"), flops, &mut || {
                let (y, cache) = conv::conv2d_via(path, &lx, &lw, p);
                pool::recycle(y);
                cache.recycle();
            });
            time(op, format!("int8 {layer}"), flops, &mut || {
                let (y, cache, _, _) = conv::conv2d_int8_via(path, &lx, &lw, p);
                pool::recycle(y);
                cache.recycle();
            });
            let (y, cache) = conv::conv2d_via(path, &lx, &lw, p);
            pool::recycle(y);
            for (dx, what, work) in [(true, "bwd", 2.0), (false, "bwd-dw", 1.0)] {
                time(op, format!("{what} {layer}"), work * flops, &mut || {
                    let (gx, gw) = conv::conv2d_backward(&lgy, &cache, &lw, lx.shape(), p, dx);
                    pool::recycle_all(gx);
                    pool::recycle(gw);
                });
            }
            cache.recycle();
        }
    }

    // --- The lowering's data movement ("flops" = elements moved) ---------
    // At the repo benchmark's shapes: ResNet-18's stage 1 and LeNet-5's
    // first pool at the CLI's widths, one 64-sample step.
    let (ln, lc, lhw) = (64, 12, 8);
    let lx = tensor([ln, lc, lhw, lhw], 0x5eed_000f);
    let lowering_shape = format!("{ln}x{lc}x{lhw}x{lhw} k{kk}");
    let mut lpatches = Tensor::default();
    conv::im2col_into(&lx, kk, kk, p, &mut lpatches);
    let moved = lpatches.len() as f64;
    time("im2col", lowering_shape.clone(), moved, &mut || {
        conv::im2col_into(&lx, kk, kk, p, &mut lpatches);
    });
    let gpatches = tensor(lpatches.shape().clone(), 0x5eed_0010);
    let mut lgx = Tensor::default();
    time("col2im", lowering_shape, moved, &mut || {
        conv::col2im_into(&gpatches, ln, lc, lhw, lhw, kk, kk, p, &mut lgx);
    });
    let rows = tensor([ln * lhw * lhw, lc], 0x5eed_0011);
    let mut nchw = Tensor::default();
    let reorder_shape = format!("{}x{lc}", ln * lhw * lhw);
    time(
        "nchw_reorder",
        reorder_shape,
        rows.len() as f64,
        &mut || {
            conv::nhwc_rows_to_nchw_into(&rows, ln, lc, lhw, lhw, &mut nchw);
        },
    );
    let px = tensor([64, 3, 8, 8], 0x5eed_0012);
    let (mut pooled, mut argmax) = (Tensor::default(), Vec::new());
    time(
        "max_pool2d",
        "64x3x8x8 k2".into(),
        px.len() as f64,
        &mut || {
            conv::max_pool2d_into(&px, 2, ConvParams::new(2, 0), &mut pooled, &mut argmax);
        },
    );

    // --- Fused quantize→dequantize ---------------------------------------
    let q_in = tensor([256, 256], 0x5eed_000b);
    let mut q_out = Tensor::default();
    time(
        "fake_quant_int8",
        "65536".into(),
        (256 * 256) as f64,
        &mut || {
            quant::fake_quant_into(&q_in, &mut q_out);
        },
    );

    // --- The pool itself, and the two GEMMs a ResNet-18 step lives in ----
    // On one and on two pool threads, whatever the process was started
    // with: stage 1's `dY × Wᵀ` (row panels) and its weight gradient
    // `dYᵀ × patches` (one row panel: column panels) at the repo
    // benchmark's 64-sample step. Last, because they resize the pool.
    let (rm, rk, rn) = (4096, 108, 12);
    let ra = tensor([rm, rk], 0x5eed_0013);
    let rbt = tensor([rn, rk], 0x5eed_0014);
    let mut rc = Tensor::zeros([rm, rn]);
    let (gm, gk, gn) = (12, 4096, 108);
    let gat = tensor([gk, gm], 0x5eed_0015);
    let gb = tensor([gk, gn], 0x5eed_0016);
    let mut gc = Tensor::zeros([gm, gn]);
    let budget = runtime::threads();
    for threads in [1, 2] {
        runtime::set_threads(threads);
        let flops = 2.0 * (rm * rk * rn) as f64;
        let shape = |m, k, n| format!("{m}x{k}x{n} t{threads}");
        time("matmul_a_bt", shape(rm, rk, rn), flops, &mut || {
            linalg::matmul_a_bt_slices(ra.data(), rbt.data(), rc.data_mut(), rm, rk, rn);
        });
        time("matmul_at_b", shape(gm, gk, gn), flops, &mut || {
            linalg::matmul_at_b_slices(gat.data(), gb.data(), gc.data_mut(), gm, gk, gn);
        });
    }
    // What a region costs its caller — two empty chunks — straight after
    // another one (the second lane is polling) and after 2 ms without one
    // (it has parked, and is woken first).
    for idle_us in [0u64, 2000] {
        let region = || {
            std::thread::sleep(std::time::Duration::from_micros(idle_us));
            let t0 = Instant::now();
            runtime::parallel_for_chunks(2, &|_| {});
            t0.elapsed().as_nanos() as f64
        };
        let ns_per_iter = (0..warmup + iters)
            .map(|_| region())
            .skip(warmup as usize)
            .fold(f64::INFINITY, f64::min);
        results.push(KernelRow {
            op: "pool_region",
            shape: format!("t2, idle {idle_us} us"),
            iters,
            ns_per_iter,
            // chunks per nanosecond
            gflops: 2.0 / ns_per_iter,
        });
    }
    runtime::set_threads(budget);

    let isa = Isa::active().name();
    println!("kernel isa: {isa}");
    print_table(&results, KernelRow::cells);
    // The measured β compute-power ratio from the 128³ GEMM pair:
    // β = t_f32 / (t_f32 + t_i8), the host analogue of the paper's
    // CPU-vs-NPU split. Feed it back via `train --profiled-beta`.
    let beta = (f32_ns + i8_ns > 0.0).then(|| f32_ns / (f32_ns + i8_ns));
    if let Some(beta) = beta {
        println!("\nmeasured beta = {beta:.4} (f32 vs i8 GEMM at 128x128x128; feed back via `train --profiled-beta {beta:.4}`)");
    }
    KernelDoc {
        schema,
        mode,
        profiled_beta: beta.unwrap_or(0.0),
        isa,
        results,
    }
}

/// Runs the fault-tolerance recovery experiment: a fault-free baseline
/// establishes the simulated run length, then fault timelines of growing
/// intensity (inter-arrival means expressed relative to that length) are
/// injected into the otherwise-identical job. One arm per scenario.
fn faults(fast: bool) -> Vec<Row> {
    let (socs, groups, epochs, samples) = if fast {
        (8, 2, 2, 256)
    } else {
        (16, 4, 4, 512)
    };
    let job = || lenet_job(socs, groups, epochs, 64);
    // reclaim / crash: mean inter-arrivals as multiples of the fault-free
    // run's simulated duration (0 = no faults of that kind)
    let arm = |rows: &mut Vec<Row>,
               scenario: &str,
               reclaim_x: f64,
               crash_x: f64,
               faults: usize,
               r: &RunResult| {
        let arm = format!("faults/{scenario}");
        push_arm(
            rows,
            &arm,
            [
                ("reclaim_x", reclaim_x, "x"),
                ("crash_x", crash_x, "x"),
                ("faults_injected", faults as f64, "faults"),
                ("best_accuracy", r.best_accuracy() as f64, "ratio"),
                ("sim_time_s", r.total_time(), "s"),
                ("recovery_s", r.recovery_time, "s"),
                ("energy_kj", r.energy_joules / 1e3, "kJ"),
            ],
        );
    };
    let mut rows = Vec::new();
    let (baseline, _) = run_job(job(), samples, RunOptions::default());
    let horizon = baseline.total_time();
    arm(&mut rows, "baseline", 0.0, 0.0, 0, &baseline);
    // "calm" loses a SoC or two, "storm" sheds most of the cluster
    let intensities = [("calm", 4.0, 8.0), ("busy", 1.0, 2.0), ("storm", 0.25, 0.5)];
    let [.., storm_s] = intensities.map(|(scenario, reclaim_x, crash_x)| {
        let spec = job();
        let plan = FaultPlan::sample(
            socs,
            horizon,
            horizon * reclaim_x,
            horizon * crash_x,
            spec.seed,
        );
        let options = RunOptions {
            faults: Some(plan),
            ..RunOptions::default()
        };
        let (r, trace) = run_job(spec, samples, options);
        arm(&mut rows, scenario, reclaim_x, crash_x, trace.faults, &r);
        r.total_time()
    });
    let clear = baseline.best_accuracy() >= CLEAR_OF_CHANCE * lenet_chance();
    claim(&mut rows, "faults/baseline/best_accuracy", clear);
    slowdown(&mut rows, "storm", storm_s, horizon);
    rows
}

/// `faults/<scenario>/slowdown_vs_baseline`: the scenario's simulated time
/// over the fault-free run's, gated at ≥ 1, since faults cost a synchronous
/// run time and never save it.
fn slowdown(rows: &mut Vec<Row>, scenario: &str, sim_time_s: f64, baseline_s: f64) {
    let id = format!("faults/{scenario}/slowdown_vs_baseline");
    push(rows, id, ratio(sim_time_s, baseline_s), "x").holds(no_later(baseline_s, sim_time_s));
}

/// Prices one VGG-11/CIFAR-10 epoch on one cluster three ways.
///
/// The `g<groups>` arms sweep logical-group counts: the analytic Eq. 1
/// model, the fluid timeline with interleaving, without it, and with
/// wait-free bucketing, gated on wait-free ≤ interleaved ≤ serial.
/// Board-aligned counts (zero split LGs) pin the simulator against the
/// analytic model; counts with split groups show what interleaving buys.
///
/// The `g<groups>-<kb>kb` arms re-price one fixed multi-CG group count over
/// the minimum bucket size: small buckets release transfers earliest but
/// fragment the payload into more per-bucket ring latencies, large buckets
/// degenerate toward the single-flush interleaved schedule.
///
/// The `scratch` arm prices one wait-free epoch twice on this thread and
/// counts scratch-pool traffic on the second (warm) pass. Every
/// `FluidTimeline` the warm pass creates must be served from the thread's
/// free-list: `misses` is gated at 0, the witness that repeated pricing
/// allocates no fresh scratch buffers (task arenas, flow paths,
/// carried-bytes ledgers).
fn timeline(fast: bool) -> Vec<Row> {
    let socs = paper_socs(fast);
    let group_counts: &[usize] = if fast {
        &[2, 4, 7]
    } else {
        &[1, 2, 4, 6, 8, 12, 20, 60]
    };
    // a group count whose mapping splits boards, so several CGs contend
    let sweep_groups = if fast { 7 } else { 12 };
    let mut spec = TrainJobSpec::new(ModelKind::Vgg11, DatasetPreset::Cifar10, MethodSpec::Ring);
    spec.socs = socs;
    // the standard 0.25 width used by the training workloads
    let layout = grad_layout(ModelKind::Vgg11, 0.25);
    let mut tm = TimeModel::new(&spec);
    // the explicit-schedule arms ignore the overlap plan; only the
    // WaitFree arm reads it
    tm.set_overlap(DEFAULT_BUCKET_KB, &layout);
    let epoch_s = |tm: &TimeModel, mapping: &Mapping, cgs: &CommunicationGroups, schedule| {
        simulate_socflow_schedule(tm, mapping, cgs, true, schedule, 1.0)
            .cost
            .time
    };

    let mut rows = Vec::new();
    push(&mut rows, "timeline/setup/socs".into(), socs as f64, "SoCs");
    for &groups in group_counts {
        let (mapping, cgs) = plan_groups(socs, groups);
        let analytic_s = tm.socflow_epoch(&mapping, &cgs, true, 1.0).time;
        let simulated_s = epoch_s(&tm, &mapping, &cgs, SyncSchedule::Interleaved);
        let no_overlap_s = epoch_s(&tm, &mapping, &cgs, SyncSchedule::Serial);
        let wait_free_s = epoch_s(&tm, &mapping, &cgs, SyncSchedule::WaitFree);
        let split_lgs = (0..groups)
            .filter(|&g| mapping.is_split(GroupId(g)))
            .count();
        let arm = format!("timeline/g{groups}");
        push_arm(
            &mut rows,
            &arm,
            [
                ("split_lgs", Some(split_lgs as f64), "LGs"),
                ("cgs", Some(cgs.len() as f64), "CGs"),
                ("analytic_s", Some(analytic_s), "s"),
                ("simulated_s", Some(simulated_s), "s"),
                ("no_overlap_s", Some(no_overlap_s), "s"),
                ("wait_free_s", Some(wait_free_s), "s"),
                ("agreement", ratio(simulated_s, analytic_s), "ratio"),
                ("overlap_speedup", ratio(no_overlap_s, simulated_s), "x"),
                ("wait_free_speedup", ratio(no_overlap_s, wait_free_s), "x"),
            ],
        );
        // interleaving never loses to serial sync, wait-free never to
        // interleaving
        for (quantity, wins) in [
            ("overlap_speedup", no_later(simulated_s, no_overlap_s)),
            ("wait_free_speedup", no_later(wait_free_s, simulated_s)),
        ] {
            claim(&mut rows, &format!("{arm}/{quantity}"), wins);
        }
    }

    let (mapping, cgs) = plan_groups(socs, sweep_groups);
    // cold pass parks a scratch in this thread's pool
    epoch_s(&tm, &mapping, &cgs, SyncSchedule::WaitFree);
    socflow_cluster::reset_scratch_stats();
    epoch_s(&tm, &mapping, &cgs, SyncSchedule::WaitFree);
    let ScratchStats { acquires, misses } = socflow_cluster::scratch_stats();
    // the autotuner's grid, so the sweep prices exactly the bucket sizes
    // the plan search considers
    for &bucket_kb in BUCKET_GRID_KB {
        tm.set_overlap(bucket_kb, &layout);
        let buckets = tm.overlap().map_or(1, |p| p.shares.len());
        let wait_free_s = epoch_s(&tm, &mapping, &cgs, SyncSchedule::WaitFree);
        push_arm(
            &mut rows,
            &format!("timeline/g{sweep_groups}-{bucket_kb}kb"),
            [
                ("buckets", buckets as f64, "buckets"),
                ("wait_free_s", wait_free_s, "s"),
            ],
        );
    }
    let scratch = [
        ("acquires", acquires as f64, "count"),
        ("misses", misses as f64, "count"),
    ];
    push_arm(&mut rows, "timeline/scratch", scratch);
    claim(&mut rows, "timeline/scratch/misses", misses == 0);
    rows
}

/// Replays one traced arrival schedule under FIFO and then under the tidal
/// policy, so the comparison is on the *same* jobs and tides, and gates on
/// the tidal policy winning on mean JCT and on utilization.
fn fleet(fast: bool) -> Vec<Row> {
    // Both schedules are contended enough that admission policy matters: the
    // fast tier packs 8 overnight arrivals onto two servers, the full tier
    // stretches 14 arrivals across five diurnal cycles of a single server so
    // FIFO's eager daytime placements pay real preemption/requeue costs.
    let (servers, jobs, horizon_hours, interarrival_s, seed, mix_seed) = if fast {
        (2, 8, 48, 3600.0, 42, 7)
    } else {
        (1, 14, 120, 7200.0, 23, 29)
    };
    let socs_per_server = 60;
    let [fifo, tidal] = [FleetPolicy::Fifo, FleetPolicy::Tidal].map(|policy| {
        let spec = FleetSpec {
            servers,
            socs_per_server,
            seed,
            horizon_hours,
            policy,
        };
        FleetSim::new(spec, standard_job_mix(jobs, interarrival_s, mix_seed)).run()
    });
    // both comparisons are undefined when no tidal job completes
    let (fifo_jct, tidal_jct) = (Some(fifo.mean_jct_s), Some(tidal.mean_jct_s));
    let jct_speedup_vs_fifo = ratio(fifo_jct, tidal_jct);
    let utilization_gain_vs_fifo =
        jct_speedup_vs_fifo.map(|_| tidal.utilization - fifo.utilization);
    let mut rows = Vec::new();
    push_arm(
        &mut rows,
        "fleet/setup",
        [
            ("servers", Some(servers as f64), "servers"),
            ("socs_per_server", Some(socs_per_server as f64), "SoCs"),
            ("jobs", Some(jobs as f64), "jobs"),
            ("horizon_hours", Some(horizon_hours as f64), "h"),
            ("interarrival_s", Some(interarrival_s), "s"),
            ("seed", Some(seed as f64), "seed"),
            ("mix_seed", Some(mix_seed as f64), "seed"),
            ("jct_speedup_vs_fifo", jct_speedup_vs_fifo, "x"),
            (
                "utilization_gain_vs_fifo",
                utilization_gain_vs_fifo,
                "ratio",
            ),
        ],
    );
    for r in [&fifo, &tidal] {
        push_arm(
            &mut rows,
            &format!("fleet/{}", r.policy),
            [
                ("completed", r.completed as f64, "jobs"),
                ("preemptions", r.preemptions as f64, "count"),
                ("mean_jct_s", r.mean_jct_s, "s"),
                ("utilization", r.utilization, "ratio"),
                ("idle_capacity_used", r.idle_capacity_used, "ratio"),
                (
                    "throughput_jobs_per_day",
                    r.throughput_jobs_per_day,
                    "jobs/d",
                ),
            ],
        );
    }
    for (id, holds) in [
        ("jct_speedup_vs_fifo", gains(fifo_jct, tidal_jct)),
        (
            "utilization_gain_vs_fifo",
            utilization_gain_vs_fifo.is_some_and(|g| g > 0.0),
        ),
    ] {
        claim(&mut rows, &format!("fleet/setup/{id}"), holds);
    }
    rows
}

/// Runs the streaming-ingestion experiment: uniform vs heterogeneous
/// per-SoC stream rates, each with rate-aware regrouping on and off (arms
/// `<profile>-rate` and `<profile>-topology`). The shared accuracy target
/// is 80% of the weakest arm's best accuracy, so every arm's
/// time-to-accuracy is defined and comparable. Gated: rate-aware
/// regrouping reaches the target sooner under heterogeneous rates, the
/// target sits above chance and the uniform topology-only arm clears it
/// [`CLEAR_OF_CHANCE`] times.
fn streaming(fast: bool) -> Vec<Row> {
    // groups of two leave within-board freedom for the rate-aware refill
    let (socs, groups, epochs, samples) = if fast {
        (8, 4, 3, 256)
    } else {
        (16, 8, 4, 512)
    };
    let global_batch = 32;
    let arms = [
        ("uniform-topology", RateProfile::Uniform, false),
        ("uniform-rate", RateProfile::Uniform, true),
        ("hetero-topology", RateProfile::Heterogeneous, false),
        ("hetero-rate", RateProfile::Heterogeneous, true),
    ];
    let runs = arms.map(|(_, rates, rate_aware)| {
        let mut scfg = StreamingConfig::new(rates);
        scfg.rate_aware = rate_aware;
        let options = RunOptions {
            streaming: Some(scfg),
            ..RunOptions::default()
        };
        run_job(
            lenet_job(socs, groups, epochs, global_batch),
            samples,
            options,
        )
    });
    let best = runs.each_ref().map(|(r, _)| r.best_accuracy());
    let target = 0.8 * best.into_iter().fold(f32::INFINITY, f32::min);
    let tta = runs.each_ref().map(|(r, _)| r.time_to_accuracy(target));
    // the hetero arms: topology-only, then rate-aware
    let hetero_tta_speedup_vs_topology = ratio(tta[2], tta[3]);
    let mut rows = Vec::new();
    push_arm(
        &mut rows,
        "streaming/setup",
        [
            ("socs", Some(socs as f64), "SoCs"),
            ("groups", Some(groups as f64), "groups"),
            ("epochs", Some(epochs as f64), "epochs"),
            ("samples", Some(samples as f64), "samples"),
            ("global_batch", Some(global_batch as f64), "samples"),
            ("target_accuracy", Some(target as f64), "ratio"),
            (
                "hetero_tta_speedup_vs_topology",
                hetero_tta_speedup_vs_topology,
                "x",
            ),
        ],
    );
    for (((arm, ..), (r, s)), tta) in arms.iter().zip(&runs).zip(tta) {
        push_arm(
            &mut rows,
            &format!("streaming/{arm}"),
            [
                ("best_accuracy", Some(r.best_accuracy() as f64), "ratio"),
                ("time_to_acc_s", tta, "s"),
                ("sim_time_s", Some(r.total_time()), "s"),
                ("stall_s", Some(s.stream_stall_cost), "s"),
                ("rate_regroups", Some(s.rate_regroups as f64), "count"),
            ],
        );
    }
    let chance = lenet_chance();
    for (id, holds) in [
        (
            "setup/hetero_tta_speedup_vs_topology",
            gains(tta[2], tta[3]),
        ),
        ("setup/target_accuracy", target > chance),
        (
            "uniform-topology/best_accuracy",
            best[0] >= CLEAR_OF_CHANCE * chance,
        ),
    ] {
        claim(&mut rows, &format!("streaming/{id}"), holds);
    }
    rows
}

/// Runs the plan-space search for the three bundled model families on
/// the bench server and reports tuned-vs-default
/// predicted epoch seconds; the winner's schedule names its time row
/// (`best_wait-free_s`). Gated: the search beats the hand-set plan by
/// ≥ 1.05× on every arm whose default maps to several CGs.
fn autotune_suite(fast: bool) -> Vec<Row> {
    let socs = paper_socs(fast);
    // on the paper server the hand-set 8-group plan maps to a multi-CG
    // topology; on the 20-SoC slice 7 groups is the multi-CG count (as in
    // the timeline suite's sweep)
    let default_groups = if fast { 7 } else { 8 };
    let default_cgs = plan_groups(socs, default_groups).1.len();
    let arms = [
        ("vgg11", ModelKind::Vgg11),
        ("resnet18", ModelKind::ResNet18),
        ("mobilenet", ModelKind::MobileNetV1),
    ];
    println!("plan autotuner vs the hand-set default ({default_groups} groups, interleaved) on {socs} SoCs");
    let mut rows = Vec::new();
    push(&mut rows, "autotune/setup/socs".into(), socs as f64, "SoCs");
    for (arm, kind) in arms {
        // the paper's hand-set plan: fixed groups, interleaved sync
        let mut spec = TrainJobSpec::new(
            kind,
            DatasetPreset::Cifar10,
            MethodSpec::SocFlow(SocFlowConfig::with_groups(default_groups)),
        );
        spec.socs = socs;
        let layout = grad_layout(kind, default_width(kind));
        let report = autotune(&spec, &layout, &TuneOptions::default());
        let arm = format!("autotune/{arm}");
        push(
            &mut rows,
            format!("{arm}/default_cgs"),
            default_cgs as f64,
            "CGs",
        );
        for (plan, choice) in [("default", &report.default_plan), ("best", &report.best())] {
            let c = &choice.candidate;
            push_arm(
                &mut rows,
                &arm,
                [
                    (format!("{plan}_groups"), Some(c.groups as f64), "groups"),
                    (
                        format!("{plan}_bucket_kb"),
                        c.bucket_kb.map(|kb| kb as f64),
                        "KiB",
                    ),
                    (
                        format!("{plan}_{}_s", c.schedule_name()),
                        Some(choice.predicted_s),
                        "s",
                    ),
                ],
            );
        }
        let tail = [
            ("evaluated", report.evaluated as f64, "plans"),
            ("pruned", report.pruned as f64, "plans"),
            ("skipped", report.skipped as f64, "plans"),
            ("speedup", report.speedup(), "x"),
        ];
        push_arm(&mut rows, &arm, tail);
        if default_cgs >= 2 {
            claim(
                &mut rows,
                &format!("{arm}/speedup"),
                report.speedup() >= 1.05,
            );
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(v: &Value) -> Vec<&str> {
        let fields = v.as_object().expect("a JSON object");
        fields.iter().map(|(k, _)| k.as_str()).collect()
    }

    /// The measured value of the row `id` of `doc`; panics when there is no
    /// such row.
    fn measured(doc: &[Row], id: &str) -> Option<f64> {
        let row = doc.iter().find(|r| r.id == id);
        row.unwrap_or_else(|| panic!("no row `{id}`")).measured
    }

    /// The arms of `doc` bar `setup`, in row order.
    fn arms(doc: &[Row]) -> Vec<&str> {
        let mut arms: Vec<&str> = Vec::new();
        for r in doc {
            if r.workload != "setup" && arms.last() != Some(&r.workload.as_str()) {
                arms.push(&r.workload);
            }
        }
        arms
    }

    #[test]
    fn every_suite_fills_its_envelope_and_simulated_suites_repeat_byte_for_byte() {
        for suite in SUITES {
            let doc = suite.document(true).expect(suite.name);
            assert_eq!(keys(&doc)[..2], ["schema", "mode"], "{}", suite.name);
            assert_eq!(doc.get("schema").as_str(), Some(suite.schema));
            assert_eq!(doc.get("mode").as_str(), Some("fast"), "{}", suite.name);
            let results = doc.get("results").as_array().expect(suite.name);
            assert!(!results.is_empty(), "{}", suite.name);
            // kernels is the one suite that reads the host clock
            if suite.name == "kernels" {
                continue;
            }
            assert_eq!(keys(&doc), ["schema", "mode", "results"]);
            let ids: Vec<&str> = results
                .iter()
                .map(|r| r.get("id").as_str().expect("a row id"))
                .collect();
            let unique: std::collections::BTreeSet<&str> = ids.iter().copied().collect();
            assert_eq!(unique.len(), ids.len(), "{}: row ids repeat", suite.name);
            if suite.name == "paper" {
                paper::assert_rows_cover_every_experiment(results);
            } else {
                let prefix = format!("{}/", suite.name);
                let foreign = ids.iter().find(|id| !id.starts_with(&prefix));
                assert_eq!(foreign, None, "{}", suite.name);
            }
            let again = suite.document(true).expect(suite.name);
            assert_eq!(
                serde_json::to_string_pretty(&doc).unwrap(),
                serde_json::to_string_pretty(&again).unwrap(),
                "{}",
                suite.name
            );
        }
    }

    /// `BENCH_kernels.json` holds host timings and cannot be `cmp`'d, so its
    /// shape is pinned here instead.
    #[test]
    fn kernel_document_key_order_is_pinned() {
        let doc = SUITES[0].document(true).unwrap();
        assert_eq!(
            keys(&doc),
            ["schema", "mode", "profiled_beta", "isa", "results"]
        );
        for row in doc.get("results").as_array().unwrap() {
            assert_eq!(keys(row), ["op", "shape", "iters", "ns_per_iter", "gflops"]);
        }
    }

    #[test]
    fn fast_kernel_suite_covers_every_family() {
        let doc = kernels(SUITES[0].schema, "fast", true);
        assert!(doc.results.len() >= 9, "suite covers every kernel family");
        for r in &doc.results {
            assert!(r.ns_per_iter.is_finite() && r.ns_per_iter > 0.0, "{}", r.op);
            assert!(r.gflops > 0.0, "{}", r.op);
        }
        assert_eq!(
            doc.results.iter().filter(|r| r.op == "matmul_i8").count(),
            4,
            "integer GEMM rows at all four shapes"
        );
        let ns = |op| {
            let cube = |r: &&KernelRow| r.op == op && r.shape == "128x128x128";
            doc.results.iter().find(cube).expect(op).ns_per_iter
        };
        let beta = ns("matmul") / (ns("matmul") + ns("matmul_i8"));
        assert!(beta > 0.0 && beta < 1.0, "beta {beta}");
        assert_eq!(doc.profiled_beta, beta);
        assert_eq!(doc.isa, Isa::active().name());
    }

    /// Every known gap is a row of a committed baseline, reported rather
    /// than gated, and explained in EXPERIMENTS.md's "Known gaps".
    #[test]
    fn known_gaps_are_committed_and_explained() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let committed: Vec<Value> = SUITES[1..]
            .iter()
            .map(|s| {
                let path = format!("{root}/BENCH_{}.json", s.name);
                let text = std::fs::read_to_string(&path).expect(&path);
                serde_json::from_str(&text).expect(&path)
            })
            .collect();
        let experiments = std::fs::read_to_string(format!("{root}/EXPERIMENTS.md")).unwrap();
        let (_, gaps) = experiments
            .split_once("\n## Known gaps\n")
            .expect("the section");
        let gaps = gaps.split("\n## ").next().unwrap();
        for (id, item) in KNOWN_GAPS {
            let row = committed
                .iter()
                .flat_map(|doc| doc.get("results").as_array().unwrap())
                .find(|r| r.get("id").as_str() == Some(id));
            let row = row.unwrap_or_else(|| panic!("no committed row `{id}`"));
            assert!(row.get("holds").is_null(), "{id}");
            assert!(gaps.contains(&format!("`{id}`")), "{id} is not explained");
            assert!(
                gaps.contains(&format!("ROADMAP {item}")),
                "{id}: item {item}"
            );
        }
    }

    #[test]
    fn bench_rejects_bad_operands() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert!(bench(&args(&[])).is_err());
        let unknown = bench(&args(&["cache"])).unwrap_err();
        assert!(
            unknown.starts_with("unknown bench suite `cache`"),
            "{unknown}"
        );
        assert!(bench(&args(&["kernels", "--json"])).is_err());
        assert!(bench(&args(&["kernels", "--turbo"])).is_err());
        assert!(bench(&args(&["faults", "--turbo"])).is_err());
    }

    #[test]
    fn write_json_checks_the_path_first_and_a_failed_suite_leaves_no_file() {
        let never = || -> Result<Value, String> { panic!("the suite must not start") };
        let err = write_json("/nonexistent/dir/x.json", never).unwrap_err();
        assert!(err.starts_with("cannot write bench file"), "{err}");

        let path = std::env::temp_dir().join("socflow_bench_failed_suite.json");
        let p = path.to_str().unwrap();
        std::fs::remove_file(&path).ok();
        let missed = || Err("missed its bar".to_string());
        assert_eq!(write_json(p, missed), Err("missed its bar".into()));
        assert!(!path.exists(), "no partial file");
        write_json(p, || Ok(Value::Null)).unwrap();
        assert!(write_json(p, missed).is_err());
        let kept = std::fs::read_to_string(&path).unwrap();
        assert_eq!(kept, "null\n", "an earlier file survives a failed rerun");
        std::fs::remove_file(&path).ok();
    }

    /// A run that faults make faster than the fault-free one breaks the
    /// gate through the harness every simulated suite runs on: exit 1 and
    /// no file. Only the committed `storm` row is a known gap.
    #[test]
    fn a_storm_faster_than_baseline_fails_the_gate_and_leaves_no_file() {
        let mut rows = Vec::new();
        slowdown(&mut rows, "storm", 112.9, 120.3);
        assert_eq!(rows[0].holds, None, "a known gap is reported, not gated");
        slowdown(&mut rows, "calm", 122.6, 120.3);
        assert_eq!(rows[1].holds, Some(true));
        assert_eq!(gate(&rows), Ok(()));
        let suite = Suite {
            name: "faults",
            schema: "socflow-fault-bench/v2",
            rows: Some(|_| {
                let mut rows = Vec::new();
                slowdown(&mut rows, "squall", 112.9, 120.3);
                rows
            }),
        };
        let path = std::env::temp_dir().join("socflow_bench_faster_storm.json");
        std::fs::remove_file(&path).ok();
        let err = write_json(path.to_str().unwrap(), || suite.document(true)).unwrap_err();
        assert!(err.contains("faults/squall/slowdown_vs_baseline"), "{err}");
        assert!(!path.exists(), "no file for a failed gate");
    }

    /// A ratio over zero or over a missing time is `null`, never a
    /// sentinel, and is no gain; equal times (to a tie) are no gain either.
    #[test]
    fn undefined_ratios_are_null_and_gain_nothing() {
        assert_eq!(ratio(3.0, 2.0), Some(1.5));
        assert_eq!(ratio(3.0, 0.0), None, "timeline: a zero-second epoch");
        assert_eq!(
            ratio(None, Some(2.0)),
            None,
            "streaming: target never reached"
        );
        assert_eq!(ratio(Some(2.0), None), None);
        assert!(gains(Some(3.0), Some(2.0)));
        assert!(!gains(Some(2.0), Some(3.0)));
        let t = 43_210.987_654_321_f64;
        assert!(
            !gains(Some(f64::from_bits(t.to_bits() + 1)), Some(t)),
            "a tie"
        );
        assert!(
            !gains(Some(3.0), Some(0.0)),
            "fleet: no tidal job completed"
        );
        assert!(!gains(None, Some(2.0)) && !gains(Some(2.0), None));
    }

    /// `run_job` is the workspace's one traced-run helper: the trace alone
    /// reproduces the run's result byte for byte — `Breakdown`, epoch
    /// times, energy and α trace.
    #[test]
    fn traced_run_reproduces_breakdown() {
        let (result, summary) = run_job(lenet_job(8, 2, 2, 64), 256, RunOptions::default());
        let json = |r: &RunResult| serde_json::to_string(r).unwrap();
        assert_eq!(json(&summary.run), json(&result));
        let f = result.breakdown.sync / result.total_time();
        assert!(f > 0.0 && f < 1.0, "sync fraction {f}");
        // the timeline's span digest and one link-utilization row per
        // epoch rode along in the same stream
        assert!(summary.spans > 0);
        assert_eq!(summary.link_timeline.len(), result.epoch_time.len());
    }

    #[test]
    fn fast_fleet_suite_beats_fifo() {
        let doc = fleet(true);
        assert_eq!(arms(&doc), ["fifo", "tidal"], "fifo then tidal");
        let m = |id: &str| measured(&doc, &format!("fleet/{id}")).expect(id);
        assert!(m("fifo/completed") > 0.0 && m("tidal/completed") > 0.0);
        // the acceptance bar: the fleet policy wins on JCT and utilization
        let (fifo_jct, tidal_jct) = (m("fifo/mean_jct_s"), m("tidal/mean_jct_s"));
        assert!(
            tidal_jct < fifo_jct,
            "tidal JCT {tidal_jct} vs fifo {fifo_jct}"
        );
        let (fifo_util, tidal_util) = (m("fifo/utilization"), m("tidal/utilization"));
        assert!(
            tidal_util > fifo_util,
            "tidal util {tidal_util} vs fifo {fifo_util}"
        );
        assert!(m("setup/jct_speedup_vs_fifo") > 1.0);
        assert!(m("setup/utilization_gain_vs_fifo") > 0.0);
        assert_eq!(gate(&doc), Ok(()));
    }

    #[test]
    fn fast_autotune_suite_beats_the_default() {
        // the gate is the acceptance bar, on the fast slice too: ≥ 1.05x
        // on every multi-CG default config, and there is one
        let doc = autotune_suite(true);
        assert_eq!(gate(&doc), Ok(()));
        let gated = |r: &Row| r.quantity == "speedup" && r.holds == Some(true);
        assert!(doc.iter().any(gated), "no multi-CG arm was gated");
        assert_eq!(measured(&doc, "autotune/setup/socs"), Some(20.0));
        let arms = arms(&doc);
        assert_eq!(arms.len(), 3, "the three model families");
        for arm in arms {
            let m = |q: &str| measured(&doc, &format!("autotune/{arm}/{q}")).expect(q);
            // the plan's predicted seconds sit under its schedule's name
            let predicted_s = |plan: &str| {
                let plan = format!("{plan}_");
                let time = |r: &&Row| {
                    r.workload == arm && r.quantity.starts_with(&plan) && r.quantity.ends_with("_s")
                };
                doc.iter().find(time).and_then(|r| r.measured).expect(arm)
            };
            let (default_s, best_s) = (predicted_s("default"), predicted_s("best"));
            assert!(default_s > 0.0 && best_s > 0.0, "{arm}");
            // the search never returns a plan predicted slower than default
            assert!(
                best_s <= default_s,
                "{arm}: best {best_s} vs default {default_s}"
            );
            assert!(m("evaluated") > 0.0 && m("speedup") >= 1.0, "{arm}");
        }
    }

    #[test]
    fn fast_fault_suite_injects_and_recovers() {
        let doc = faults(true);
        let scenarios = ["baseline", "calm", "busy", "storm"];
        assert_eq!(arms(&doc), scenarios, "baseline + three intensities");
        let m = |id: &str| measured(&doc, &format!("faults/{id}")).expect(id);
        assert_eq!(m("baseline/recovery_s"), 0.0);
        // the storm scenario must actually lose SoCs
        assert!(m("storm/faults_injected") > 0.0, "storm must inject faults");
        for s in scenarios {
            let (acc, time) = (
                m(&format!("{s}/best_accuracy")),
                m(&format!("{s}/sim_time_s")),
            );
            assert!(acc > 0.0 && time > 0.0, "{s}");
        }
        assert_eq!(gate(&doc), Ok(()));
    }

    #[test]
    fn fast_timeline_suite_orders_the_schedules() {
        // the gate holds the orderings and the scratch bar: wait-free ≤
        // interleaved ≤ serial on every group count, and zero pool misses
        // on the warm pass
        let doc = timeline(true);
        assert_eq!(gate(&doc), Ok(()));
        assert_eq!(measured(&doc, "timeline/setup/socs"), Some(20.0));
        let m = |arm: &str, q: &str| measured(&doc, &format!("timeline/{arm}/{q}")).expect(q);
        let (sweep, counts): (Vec<&str>, Vec<&str>) = arms(&doc)
            .into_iter()
            .filter(|a| a.starts_with('g'))
            .partition(|a| a.contains('-'));
        assert_eq!(counts, ["g2", "g4", "g7"]);
        assert!(
            counts.iter().any(|g| m(g, "split_lgs") > 0.0),
            "the sweep must include a split-LG count"
        );
        for &g in &counts {
            let (simulated_s, no_overlap_s) = (m(g, "simulated_s"), m(g, "no_overlap_s"));
            assert!(m(g, "analytic_s") > 0.0 && simulated_s > 0.0, "{g}");
            // interleaving never loses to the serial schedule
            assert!(
                simulated_s <= no_overlap_s + 1e-9,
                "{g}: simulated {simulated_s} vs no-overlap {no_overlap_s}"
            );
            // wait-free never loses to serial or to interleaving, on
            // every config (the overlap property, not a lucky sample)
            let wait_free_s = m(g, "wait_free_s");
            let eps = 1e-6 * no_overlap_s;
            assert!(
                wait_free_s <= no_overlap_s.min(simulated_s) + eps,
                "{g}: wait-free {wait_free_s} vs serial {no_overlap_s} and interleaved {simulated_s}"
            );
            // board-aligned counts reproduce the analytic model to rounding;
            // interleaving only ever prices below it, and not by much
            let agreement = m(g, "agreement");
            if m(g, "split_lgs") == 0.0 {
                assert!((agreement - 1.0).abs() < 1e-12, "{g}");
            }
            assert!((0.994..=1.0 + 1e-11).contains(&agreement), "{g}");
        }
        // at least one multi-CG config must gain from bucketing over
        // plain interleaving (the acceptance bar for the wait-free arm)
        assert!(
            counts
                .iter()
                .any(|g| m(g, "cgs") > 1.0
                    && m(g, "wait_free_speedup") > m(g, "overlap_speedup") + 1e-9),
            "no multi-CG config gained from wait-free bucketing"
        );
        let kb = |arm: &str| -> usize {
            let kb = arm.strip_prefix("g7-").and_then(|a| a.strip_suffix("kb"));
            kb.and_then(|kb| kb.parse().ok()).expect(arm)
        };
        assert_eq!(sweep.len(), 4, "{sweep:?}");
        for w in sweep.windows(2) {
            assert!(kb(w[0]) < kb(w[1]));
            let (fine, coarse) = (m(w[0], "buckets"), m(w[1], "buckets"));
            assert!(
                fine >= coarse,
                "smaller buckets cannot coalesce fewer: {} → {fine} vs {} → {coarse}",
                w[0],
                w[1]
            );
        }
        assert!(
            m(sweep[0], "buckets") > 1.0,
            "the 512 KiB floor must split VGG-11 into multiple buckets"
        );
        for &arm in &sweep {
            assert!(m(arm, "wait_free_s") > 0.0, "{arm}");
        }
        assert!(
            m("scratch", "acquires") > 0.0,
            "the warm pass builds timelines"
        );
        assert_eq!(m("scratch", "misses"), 0.0);
    }

    #[test]
    fn fast_streaming_suite_rate_awareness_wins() {
        let doc = streaming(true);
        let m = |id: &str| measured(&doc, &format!("streaming/{id}"));
        assert!(m("setup/target_accuracy").unwrap() > 0.0);
        assert_eq!(
            arms(&doc),
            [
                "uniform-topology",
                "uniform-rate",
                "hetero-topology",
                "hetero-rate"
            ],
            "uniform/hetero × topology/rate-aware"
        );
        // uniform streams never trigger regrouping and never stall
        assert_eq!(m("uniform-rate/rate_regroups"), Some(0.0));
        assert_eq!(m("uniform-rate/stall_s"), Some(0.0));
        assert_eq!(m("uniform-topology/stall_s"), Some(0.0));
        assert!(
            m("hetero-topology/stall_s").unwrap() > 0.0,
            "topology-only hetero must stall"
        );
        assert!(
            m("hetero-rate/rate_regroups").unwrap() > 0.0,
            "rate-aware hetero must regroup"
        );
        // the acceptance bar: rate-aware regrouping improves
        // time-to-accuracy under heterogeneous stream rates
        let tb = m("hetero-topology/time_to_acc_s").expect("blind arm reaches target");
        let ta = m("hetero-rate/time_to_acc_s").expect("aware arm reaches target");
        assert!(ta < tb, "rate-aware TTA {ta} vs topology-only {tb}");
        assert!(m("setup/hetero_tta_speedup_vs_topology").unwrap() > 1.0);
    }

    #[test]
    fn deterministic_fill_is_seed_stable() {
        let a = tensor([4, 4], 7);
        let b = tensor([4, 4], 7);
        let c = tensor([4, 4], 8);
        assert_eq!(a.data(), b.data());
        assert_ne!(a.data(), c.data());
    }
}
