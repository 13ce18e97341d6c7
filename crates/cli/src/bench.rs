//! `socflow-cli bench` — reproducible benchmark baselines.
//!
//! Seven suites behind one harness. Each suite is one function that runs the
//! experiment, prints its table and returns a `#[derive(Serialize)]`
//! document whose field order is the key order of the committed
//! `BENCH_<suite>.json`; [`SUITES`] lists them, and dispatch, the usage
//! string and the table-driven tests all read that list. A new suite is a
//! row struct (its JSON fields, and its table columns in `cells`), a
//! function and one [`SUITES`] entry.
//!
//! `kernels` is the host micro-kernel suite: the tensor kernels the
//! training hot path lives in (tiled GEMM variants, transpose, the pooled
//! conv2d forward/backward, the lowering's im2col / col2im / reorder /
//! max-pool, the fused fake-quantize pass, the two GEMMs of a ResNet-18
//! step on one and on two pool threads, a parallel region's round trip) on
//! fixed shapes
//! with deterministic inputs, reported as minimum wall time per iteration
//! plus achieved GFLOP/s. Minimum-of-N timing is used instead of the mean:
//! the minimum estimates the noise-free cost of the kernel, which is the
//! number optimization work should be judged against. It is the only suite
//! that reads the host clock (`BENCH_kernels.json` records one reference
//! machine; longer host-clock runs are the repo benchmark's job, see
//! `benchmark/README.md`).
//!
//! The other six run on the simulated clock, seeded, so their numbers are
//! machine-independent and byte-identical at any worker-pool size:
//! `faults` is the fault-tolerance recovery experiment, `timeline` compares
//! the closed-form Eq. 1 epoch pricing against the event-driven fluid
//! timeline across logical-group counts, `fleet` replays the tidal-trace
//! multi-tenant scheduler comparison, `streaming` measures time-to-accuracy
//! under live per-SoC data streams (uniform vs heterogeneous rates,
//! rate-aware regrouping on vs off), `autotune` runs the plan-space
//! search for the bundled model families and reports tuned-vs-default
//! predicted epoch seconds, and `paper` ([`paper`]) reruns the paper's own
//! evaluation — every table and figure as rows of paper value against
//! measured value — and fails when one of the paper's orderings breaks.

mod paper;

use crate::commands::{default_width, PlanJson};
use rand::{rngs::StdRng, SeedableRng};
use serde::Serialize;
use serde_json::Value;
use socflow::autotune::{autotune, TuneOptions, BUCKET_GRID_KB, DEFAULT_BUDGET};
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
use socflow_nn::models::{ModelConfig, ModelKind};
use socflow_telemetry::{MemorySink, Summary};
use socflow_tensor::conv::{self, ConvParams};
use socflow_tensor::isa::Isa;
use socflow_tensor::quant::{self, QuantFormat, QuantParams};
use socflow_tensor::{linalg, pool, runtime, Tensor};
use std::sync::Arc;
use std::time::Instant;

/// One benchmark suite.
struct Suite {
    /// The `bench <name>` operand.
    name: &'static str,
    /// The `schema` string its JSON document opens with.
    schema: &'static str,
    /// Runs the suite (`fast` trims it to smoke-test size), prints its
    /// tables and returns the rest of the document: the suite's own header
    /// fields and `results`. An error when the suite misses its own
    /// acceptance bar.
    run: fn(fast: bool) -> Result<Value, String>,
}

/// What every suite's document opens with.
#[derive(Serialize)]
struct Envelope {
    schema: &'static str,
    mode: &'static str,
}

impl Suite {
    /// Runs the suite and returns its complete `--json` document.
    fn document(&self, fast: bool) -> Result<Value, String> {
        let envelope = Envelope {
            schema: self.schema,
            mode: if fast { "fast" } else { "full" },
        };
        let (Value::Object(mut doc), Value::Object(body)) = (envelope.to_json(), (self.run)(fast)?)
        else {
            unreachable!("the envelope and every suite document are structs");
        };
        doc.extend(body);
        Ok(Value::Object(doc))
    }
}

const SUITES: &[Suite] = &[
    Suite {
        name: "kernels",
        schema: "socflow-kernel-bench/v1",
        run: |fast| Ok(kernels(fast).to_json()),
    },
    Suite {
        name: "faults",
        schema: "socflow-fault-bench/v1",
        run: |fast| Ok(faults(fast).to_json()),
    },
    Suite {
        name: "timeline",
        schema: "socflow-timeline-bench/v3",
        run: |fast| Ok(timeline(fast)?.to_json()),
    },
    Suite {
        name: "fleet",
        schema: "socflow-fleet-bench/v1",
        run: |fast| Ok(fleet(fast).to_json()),
    },
    Suite {
        name: "streaming",
        schema: "socflow-streaming-bench/v1",
        run: |fast| Ok(streaming(fast).to_json()),
    },
    Suite {
        name: "autotune",
        schema: "socflow-autotune-bench/v1",
        run: |fast| Ok(autotune_suite(fast)?.to_json()),
    },
    Suite {
        name: "paper",
        schema: "socflow-paper-bench/v1",
        run: |fast| Ok(paper::paper(fast)?.to_json()),
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
/// a suite that misses its own acceptance bar.
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

/// The gradient layout the timeline and autotune suites bucket: `kind` at
/// `width` on CIFAR-shaped input. The init seed is irrelevant — only the
/// per-layer parameter counts matter here.
fn grad_layout(kind: ModelKind, width: f32) -> Vec<socflow_nn::GradReady> {
    let mut rng = StdRng::seed_from_u64(0);
    kind.build(ModelConfig::new(3, 32, 10, width), &mut rng)
        .grad_layout()
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
    profiled_beta: f64,
    /// Which kernel instantiation this host ran: "avx2" | "portable".
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

/// Runs the kernel suite. `fast` trims iteration counts to smoke-test level.
fn kernels(fast: bool) -> KernelDoc {
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
        let (y, patches) = conv::conv2d(&x, &w, p);
        pool::recycle(y);
        pool::recycle(patches);
    });
    let (y, patches) = conv::conv2d(&x, &w, p);
    let gy = tensor(y.shape().clone(), 0x5eed_000a);
    // two GEMMs of the forward's size
    time("conv2d_backward", conv_shape, 2.0 * conv_flops, &mut || {
        let (gx, gw) = conv::conv2d_backward(&gy, &patches, &w, x.shape(), p, true);
        pool::recycle(gx.expect("asked for"));
        pool::recycle(gw);
    });

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
            QuantFormat::Int8.fake_quant_into(&q_in, &mut q_out);
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
        profiled_beta: beta.unwrap_or(0.0),
        isa,
        results,
    }
}

/// One fault-bench scenario result.
#[derive(Serialize)]
struct FaultRun {
    scenario: &'static str,
    /// Mean reclaim / crash inter-arrivals as multiples of the fault-free
    /// run's simulated duration (0 = no faults of that kind).
    reclaim_x: f64,
    crash_x: f64,
    faults_injected: u64,
    best_accuracy: f64,
    sim_time_s: f64,
    recovery_s: f64,
    energy_kj: f64,
}

impl FaultRun {
    fn cells(&self) -> Vec<Cell> {
        vec![
            col("scenario", -10, self.scenario),
            col("reclaim_x", 10, format!("{:.2}", self.reclaim_x)),
            col("crash_x", 8, format!("{:.2}", self.crash_x)),
            col("faults", 7, self.faults_injected),
            col("best acc", 9, format!("{:.1}%", self.best_accuracy * 100.0)),
            col("sim time s", 11, format!("{:.0}", self.sim_time_s)),
            col("recovery s", 10, format!("{:.1}", self.recovery_s)),
            col("energy kJ", 10, format!("{:.1}", self.energy_kj)),
        ]
    }
}

#[derive(Serialize)]
struct FaultDoc {
    results: Vec<FaultRun>,
}

/// Runs the fault-tolerance recovery experiment: a fault-free baseline
/// establishes the simulated run length, then fault timelines of growing
/// intensity (inter-arrival means expressed relative to that length) are
/// injected into the otherwise-identical job.
fn faults(fast: bool) -> FaultDoc {
    let (socs, groups, epochs, samples) = if fast {
        (8, 2, 2, 256)
    } else {
        (16, 4, 4, 512)
    };
    let job = || lenet_job(socs, groups, epochs, 64);
    let row = |scenario, reclaim_x, crash_x, faults_injected, r: &RunResult| FaultRun {
        scenario,
        reclaim_x,
        crash_x,
        faults_injected,
        best_accuracy: r.best_accuracy() as f64,
        sim_time_s: r.total_time(),
        recovery_s: r.recovery_time,
        energy_kj: r.energy_joules / 1e3,
    };
    let (baseline, _) = run_job(job(), samples, RunOptions::default());
    let horizon = baseline.total_time();
    let mut results = vec![row("baseline", 0.0, 0.0, 0, &baseline)];
    // intensities: mean inter-arrivals as multiples of the run length —
    // "calm" loses a SoC or two, "storm" sheds most of the cluster
    for (scenario, reclaim_x, crash_x) in
        [("calm", 4.0, 8.0), ("busy", 1.0, 2.0), ("storm", 0.25, 0.5)]
    {
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
        results.push(row(scenario, reclaim_x, crash_x, trace.faults as u64, &r));
    }
    print_table(&results, FaultRun::cells);
    FaultDoc { results }
}

/// One timeline-bench row: closed-form Eq. 1 pricing vs the event-driven
/// fluid timeline, with and without compute↔CG interleaving, at one
/// logical-group count.
#[derive(Serialize)]
struct TimelineRun {
    groups: usize,
    /// Logical groups whose SoCs span more than one board.
    split_lgs: usize,
    /// Communication groups after 2-coloring.
    cgs: usize,
    analytic_s: f64,
    /// Fluid timeline, CG syncs overlapping member compute (the paper's
    /// interleaved schedule).
    simulated_s: f64,
    /// Fluid timeline with the same CG slots but syncs strictly after
    /// compute — the no-interleaving comparator.
    no_overlap_s: f64,
    /// Fluid timeline with wait-free per-bucket gradient overlap at the
    /// default bucket size (buckets from all CGs contend concurrently).
    wait_free_s: f64,
    /// Simulated / analytic epoch time (1.0 = exact agreement).
    agreement: f64,
    /// No-overlap / interleaved epoch time (≥ 1.0 by construction).
    overlap_speedup: f64,
    /// No-overlap / wait-free epoch time (≥ `overlap_speedup` by
    /// construction: wait-free never loses to interleaving).
    wait_free_speedup: f64,
}

impl TimelineRun {
    fn cells(&self) -> Vec<Cell> {
        vec![
            col("groups", -7, self.groups),
            col("split", 6, self.split_lgs),
            col("cgs", 4, self.cgs),
            col("analytic s", 12, format!("{:.1}", self.analytic_s)),
            col("simulated s", 12, format!("{:.1}", self.simulated_s)),
            col("no-overlap s", 13, format!("{:.1}", self.no_overlap_s)),
            col("wait-free s", 11, format!("{:.1}", self.wait_free_s)),
            col("agreement", 10, format!("{:.4}", self.agreement)),
            col("speedup", 8, format!("{:.3}", self.overlap_speedup)),
            col("wf spdup", 8, format!("{:.3}", self.wait_free_speedup)),
        ]
    }
}

/// One bucket-size sweep row: the wait-free epoch time at one minimum
/// gradient-bucket size, on a fixed group count.
#[derive(Serialize)]
struct BucketSweepRun {
    bucket_kb: usize,
    /// Gradient buckets the VGG-11 layout coalesces into at this size.
    buckets: usize,
    wait_free_s: f64,
}

impl BucketSweepRun {
    fn cells(&self) -> Vec<Cell> {
        vec![
            col("bucket KiB", -10, self.bucket_kb),
            col("buckets", 8, self.buckets),
            col("wait-free s", 12, format!("{:.1}", self.wait_free_s)),
        ]
    }
}

#[derive(Serialize)]
struct BucketSweep {
    groups: usize,
    results: Vec<BucketSweepRun>,
}

#[derive(Serialize)]
struct TimelineDoc {
    socs: usize,
    results: Vec<TimelineRun>,
    bucket_sweep: BucketSweep,
    /// Scratch-pool traffic observed while re-pricing a warm epoch: the
    /// allocation-churn witness for the `TimelineScratch` free-list.
    scratch_reuse: ScratchStats,
}

/// Prices one VGG-11/CIFAR-10 epoch on one cluster three ways.
///
/// The main table sweeps logical-group counts: the analytic Eq. 1 model,
/// the fluid timeline with interleaving, without it, and with wait-free
/// bucketing. Board-aligned counts (zero split LGs) pin the simulator
/// against the analytic model; counts with split groups show what
/// interleaving buys.
///
/// The bucket sweep re-prices one fixed multi-CG group count over the
/// minimum bucket size: small buckets release transfers earliest but
/// fragment the payload into more per-bucket ring latencies, large buckets
/// degenerate toward the single-flush interleaved schedule.
///
/// The scratch witness prices one wait-free epoch twice on this thread and
/// counts scratch-pool traffic on the second (warm) pass. Every
/// `FluidTimeline` the warm pass creates must be served from the thread's
/// free-list — `misses == 0` is the witness that repeated pricing no longer
/// allocates fresh scratch buffers (task arenas, flow paths, carried-bytes
/// ledgers), and the suite's acceptance bar.
fn timeline(fast: bool) -> Result<TimelineDoc, String> {
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
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 1.0 };

    let results: Vec<TimelineRun> = group_counts
        .iter()
        .map(|&groups| {
            let (mapping, cgs) = plan_groups(socs, groups);
            let analytic_s = tm.socflow_epoch(&mapping, &cgs, true, 1.0).time;
            let simulated_s = epoch_s(&tm, &mapping, &cgs, SyncSchedule::Interleaved);
            let no_overlap_s = epoch_s(&tm, &mapping, &cgs, SyncSchedule::Serial);
            let wait_free_s = epoch_s(&tm, &mapping, &cgs, SyncSchedule::WaitFree);
            TimelineRun {
                groups,
                split_lgs: (0..groups)
                    .filter(|&g| mapping.is_split(GroupId(g)))
                    .count(),
                cgs: cgs.len(),
                analytic_s,
                simulated_s,
                no_overlap_s,
                wait_free_s,
                agreement: ratio(simulated_s, analytic_s),
                overlap_speedup: ratio(no_overlap_s, simulated_s),
                wait_free_speedup: ratio(no_overlap_s, wait_free_s),
            }
        })
        .collect();

    let (mapping, cgs) = plan_groups(socs, sweep_groups);
    // cold pass parks a scratch in this thread's pool
    epoch_s(&tm, &mapping, &cgs, SyncSchedule::WaitFree);
    socflow_cluster::reset_scratch_stats();
    epoch_s(&tm, &mapping, &cgs, SyncSchedule::WaitFree);
    let scratch_reuse = socflow_cluster::scratch_stats();
    // the autotuner's grid, so the sweep prices exactly the bucket sizes
    // the plan search considers
    let sweep: Vec<BucketSweepRun> = BUCKET_GRID_KB
        .iter()
        .map(|&bucket_kb| {
            tm.set_overlap(bucket_kb, &layout);
            BucketSweepRun {
                bucket_kb,
                buckets: tm.overlap().map_or(1, |p| p.shares.len()),
                wait_free_s: epoch_s(&tm, &mapping, &cgs, SyncSchedule::WaitFree),
            }
        })
        .collect();

    print_table(&results, TimelineRun::cells);
    println!("\nbucket-size sweep ({sweep_groups} groups, wait-free)");
    print_table(&sweep, BucketSweepRun::cells);
    let ScratchStats { acquires, misses } = scratch_reuse;
    println!("\nscratch reuse: {acquires} acquires, {misses} pool misses on the warm pass");
    if misses != 0 {
        return Err(format!(
            "warm re-pricing allocated {misses} fresh TimelineScratch(es); the free-list should serve all {acquires} acquires"
        ));
    }
    Ok(TimelineDoc {
        socs,
        results,
        bucket_sweep: BucketSweep {
            groups: sweep_groups,
            results: sweep,
        },
        scratch_reuse,
    })
}

/// One fleet-bench row: one admission policy's outcome on the shared
/// arrival schedule.
#[derive(Serialize)]
struct FleetRow {
    policy: String,
    completed: usize,
    preemptions: usize,
    mean_jct_s: f64,
    utilization: f64,
    idle_capacity_used: f64,
    throughput_jobs_per_day: f64,
}

impl FleetRow {
    fn cells(&self) -> Vec<Cell> {
        vec![
            col("policy", -8, &self.policy),
            col("completed", 9, self.completed),
            col("preempts", 10, self.preemptions),
            col("mean JCT s", 12, format!("{:.0}", self.mean_jct_s)),
            col("util %", 12, format!("{:.1}%", self.utilization * 100.0)),
            col(
                "idle %",
                10,
                format!("{:.1}%", self.idle_capacity_used * 100.0),
            ),
            col(
                "jobs/day",
                9,
                format!("{:.2}", self.throughput_jobs_per_day),
            ),
        ]
    }
}

#[derive(Serialize)]
struct FleetDoc {
    servers: usize,
    socs_per_server: usize,
    jobs: usize,
    horizon_hours: usize,
    interarrival_s: f64,
    seed: u64,
    mix_seed: u64,
    jct_speedup_vs_fifo: f64,
    utilization_gain_vs_fifo: f64,
    results: Vec<FleetRow>,
}

/// Replays one traced arrival schedule under FIFO and then under the tidal
/// policy, so the comparison is on the *same* jobs and tides.
fn fleet(fast: bool) -> FleetDoc {
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
    let results: Vec<FleetRow> = [FleetPolicy::Fifo, FleetPolicy::Tidal]
        .into_iter()
        .map(|policy| {
            let spec = FleetSpec {
                servers,
                socs_per_server,
                seed,
                horizon_hours,
                policy,
            };
            let r = FleetSim::new(spec, standard_job_mix(jobs, interarrival_s, mix_seed)).run();
            FleetRow {
                policy: r.policy,
                completed: r.completed,
                preemptions: r.preemptions,
                mean_jct_s: r.mean_jct_s,
                utilization: r.utilization,
                idle_capacity_used: r.idle_capacity_used,
                throughput_jobs_per_day: r.throughput_jobs_per_day,
            }
        })
        .collect();
    print_table(&results, FleetRow::cells);
    let (fifo, tidal) = (&results[0], &results[1]);
    let (jct_speedup_vs_fifo, utilization_gain_vs_fifo) = if tidal.mean_jct_s > 0.0 {
        (
            fifo.mean_jct_s / tidal.mean_jct_s,
            tidal.utilization - fifo.utilization,
        )
    } else {
        (0.0, 0.0)
    };
    FleetDoc {
        servers,
        socs_per_server,
        jobs,
        horizon_hours,
        interarrival_s,
        seed,
        mix_seed,
        jct_speedup_vs_fifo,
        utilization_gain_vs_fifo,
        results,
    }
}

/// One streaming-bench arm: a stream-rate profile crossed with rate-aware
/// vs topology-only grouping, measured by time-to-accuracy on the priced
/// simulated clock.
#[derive(Serialize)]
struct StreamingRun {
    profile: &'static str,
    rate_aware: bool,
    best_accuracy: f64,
    time_to_acc_s: Option<f64>,
    sim_time_s: f64,
    stall_s: f64,
    samples_dropped: u64,
    rate_regroups: u64,
}

impl StreamingRun {
    fn cells(&self) -> Vec<Cell> {
        let grouping = if self.rate_aware { "rate" } else { "topology" };
        let tta = self
            .time_to_acc_s
            .map_or_else(|| "never".to_string(), |t| format!("{t:.1}"));
        vec![
            col("profile", -8, self.profile),
            col("grouping", -10, grouping),
            col("best acc", 9, format!("{:.1}%", self.best_accuracy * 100.0)),
            col("time-to-acc s", 14, tta),
            col("sim time s", 11, format!("{:.1}", self.sim_time_s)),
            col("stall s", 9, format!("{:.1}", self.stall_s)),
            col("dropped", 8, self.samples_dropped),
            col("regroups", 9, self.rate_regroups),
        ]
    }
}

#[derive(Serialize)]
struct StreamingDoc {
    socs: usize,
    groups: usize,
    epochs: usize,
    samples: usize,
    global_batch: usize,
    target_accuracy: f64,
    hetero_tta_speedup_vs_topology: f64,
    results: Vec<StreamingRun>,
}

/// Runs the streaming-ingestion experiment: uniform vs heterogeneous
/// per-SoC stream rates, each with rate-aware regrouping on and off.
/// The shared accuracy target is 80% of the weakest arm's best accuracy,
/// so every arm's time-to-accuracy is defined and comparable.
fn streaming(fast: bool) -> StreamingDoc {
    // groups of two leave within-board freedom for the rate-aware refill
    let (socs, groups, epochs, samples) = if fast {
        (8, 4, 3, 256)
    } else {
        (16, 8, 4, 512)
    };
    let global_batch = 32;
    let arms = [
        ("uniform", RateProfile::Uniform, false),
        ("uniform", RateProfile::Uniform, true),
        ("hetero", RateProfile::Heterogeneous, false),
        ("hetero", RateProfile::Heterogeneous, true),
    ];
    let runs = arms.map(|(profile, rates, rate_aware)| {
        let mut scfg = StreamingConfig::new(rates);
        scfg.rate_aware = rate_aware;
        let options = RunOptions {
            streaming: Some(scfg),
            ..RunOptions::default()
        };
        let spec = lenet_job(socs, groups, epochs, global_batch);
        let (r, trace) = run_job(spec, samples, options);
        (r, trace, profile, rate_aware)
    });
    let target = 0.8
        * runs
            .iter()
            .map(|(r, ..)| r.best_accuracy())
            .fold(f32::INFINITY, f32::min);
    let results: Vec<StreamingRun> = runs
        .into_iter()
        .map(|(r, s, profile, rate_aware)| StreamingRun {
            profile,
            rate_aware,
            best_accuracy: r.best_accuracy() as f64,
            time_to_acc_s: r.time_to_accuracy(target),
            sim_time_s: r.total_time(),
            stall_s: s.stream_stall_cost,
            samples_dropped: s.samples_dropped,
            rate_regroups: s.rate_regroups as u64,
        })
        .collect();
    let target_accuracy = target as f64;
    println!(
        "target accuracy {:.1}% (80% of weakest arm)",
        target_accuracy * 100.0
    );
    print_table(&results, StreamingRun::cells);
    // the hetero arms: topology-only, then rate-aware
    let hetero_tta_speedup_vs_topology = match (results[2].time_to_acc_s, results[3].time_to_acc_s)
    {
        (Some(blind), Some(aware)) if aware > 0.0 => blind / aware,
        _ => 0.0,
    };
    StreamingDoc {
        socs,
        groups,
        epochs,
        samples,
        global_batch,
        target_accuracy,
        hetero_tta_speedup_vs_topology,
        results,
    }
}

/// One autotune-bench row: the plan search for one model family on the
/// bench server, the default plan's predicted epoch seconds against the
/// tuned winner's.
#[derive(Serialize)]
struct AutotuneRun {
    /// Row label: the model family, `-pbeta` suffixed when the profiled-β
    /// axis was searched.
    arm: &'static str,
    model: &'static str,
    /// Profiled β supplied to the search (`None` = calibrated only).
    profiled_beta_in: Option<f64>,
    /// CGs of the *default* plan's topology (≥ 2 = multi-CG config).
    default_cgs: usize,
    default: PlanJson,
    best: PlanJson,
    evaluated: usize,
    pruned: usize,
    skipped: usize,
    /// Predicted default-plan / best-plan epoch-time ratio (≥ 1).
    speedup: f64,
}

impl AutotuneRun {
    fn cells(&self) -> Vec<Cell> {
        let bucket = self
            .best
            .bucket_kb
            .map_or("-".to_string(), |kb| format!("{kb}K"));
        let searched = format!("{:>5}/{:<5}", self.evaluated, self.pruned);
        vec![
            col("arm", -12, self.arm),
            col("cgs", 4, self.default_cgs),
            col("default s", 11, format!("{:.1}", self.default.predicted_s)),
            col("groups", 7, self.best.groups),
            col("schedule", 11, self.best.schedule),
            col("bucket", 8, bucket),
            col("tuned s", 11, format!("{:.1}", self.best.predicted_s)),
            col("speedup", 8, format!("{:.2}x", self.speedup)),
            col(" eval/prune", 11, searched),
            col("skip", 5, self.skipped),
        ]
    }
}

#[derive(Serialize)]
struct AutotuneDoc {
    socs: usize,
    budget: usize,
    results: Vec<AutotuneRun>,
}

/// The β that `bench kernels` measured on the reference machine:
/// `profiled_beta` of the committed `BENCH_kernels.json`, to four decimals
/// (a unit test holds the two together).
const REFERENCE_BETA: f64 = 0.6200;

/// Runs the plan-space search for the three bundled model families (plus
/// a profiled-β arm) on the bench server and reports tuned-vs-default
/// predicted epoch seconds. The suite's acceptance bar: the search must
/// beat the hand-set plan by ≥ 1.05× on at least one multi-CG config.
fn autotune_suite(fast: bool) -> Result<AutotuneDoc, String> {
    let socs = paper_socs(fast);
    // on the paper server the hand-set 8-group plan maps to a multi-CG
    // topology; on the 20-SoC slice 7 groups is the multi-CG count (as in
    // the timeline suite's sweep)
    let default_groups = if fast { 7 } else { 8 };
    let default_cgs = plan_groups(socs, default_groups).1.len();
    let arms = [
        ("vgg11", ModelKind::Vgg11, "vgg11", None),
        ("resnet18", ModelKind::ResNet18, "resnet18", None),
        ("mobilenet", ModelKind::MobileNetV1, "mobilenet", None),
        (
            "vgg11-pbeta",
            ModelKind::Vgg11,
            "vgg11",
            Some(REFERENCE_BETA),
        ),
    ];
    let results: Vec<AutotuneRun> = arms
        .into_iter()
        .map(|(arm, kind, model, profiled_beta_in)| {
            // the paper's hand-set plan: fixed groups, interleaved sync
            let mut spec = TrainJobSpec::new(
                kind,
                DatasetPreset::Cifar10,
                MethodSpec::SocFlow(SocFlowConfig::with_groups(default_groups)),
            );
            spec.socs = socs;
            let opts = TuneOptions {
                profiled_beta: profiled_beta_in,
                ..TuneOptions::default()
            };
            let report = autotune(&spec, &grad_layout(kind, default_width(kind)), &opts);
            AutotuneRun {
                arm,
                model,
                profiled_beta_in,
                default_cgs,
                default: PlanJson::from(&report.default_plan),
                best: PlanJson::from(&report.best()),
                evaluated: report.evaluated,
                pruned: report.pruned,
                skipped: report.skipped,
                speedup: report.speedup(),
            }
        })
        .collect();
    println!("plan autotuner vs the hand-set default ({default_groups} groups, interleaved) on {socs} SoCs");
    print_table(&results, AutotuneRun::cells);
    if !results
        .iter()
        .any(|r| r.default_cgs >= 2 && r.speedup >= 1.05)
    {
        return Err("no multi-CG arm reached the 1.05x tuned-vs-default bar".into());
    }
    Ok(AutotuneDoc {
        socs,
        budget: DEFAULT_BUDGET,
        results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(v: &Value) -> Vec<&str> {
        let fields = v.as_object().expect("a JSON object");
        fields.iter().map(|(k, _)| k.as_str()).collect()
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
            if suite.name == "paper" {
                paper::assert_rows_cover_every_experiment(results);
            }
            // kernels is the one suite that reads the host clock
            if suite.name != "kernels" {
                let again = suite.document(true).expect(suite.name);
                assert_eq!(
                    serde_json::to_string_pretty(&doc).unwrap(),
                    serde_json::to_string_pretty(&again).unwrap(),
                    "{}",
                    suite.name
                );
            }
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
        let doc = kernels(true);
        assert!(doc.results.len() >= 9, "suite covers every kernel family");
        for r in &doc.results {
            assert!(r.ns_per_iter.is_finite() && r.ns_per_iter > 0.0, "{}", r.op);
            assert!(r.gflops > 0.0, "{}", r.op);
        }
        assert_eq!(
            doc.results.iter().filter(|r| r.op == "matmul_i8").count(),
            3,
            "integer GEMM rows at all three shapes"
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

    #[test]
    fn reference_beta_matches_the_committed_kernel_baseline() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
        let text = std::fs::read_to_string(path).expect("committed kernel baseline");
        let doc: Value = serde_json::from_str(&text).unwrap();
        let committed = doc.get("profiled_beta").as_f64().unwrap();
        assert_eq!(
            format!("{REFERENCE_BETA:.4}"),
            format!("{committed:.4}"),
            "the vgg11-pbeta arm searches a β that BENCH_kernels.json no longer records: \
             update REFERENCE_BETA and regenerate BENCH_autotune.json"
        );
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

    /// `run_job` is the workspace's one traced-run helper: the trace alone
    /// must reproduce the run's `Breakdown`, total time and energy.
    #[test]
    fn traced_run_reproduces_breakdown() {
        let (result, summary) = run_job(lenet_job(8, 2, 2, 64), 256, RunOptions::default());
        assert!((summary.compute - result.breakdown.compute).abs() < 1e-6);
        assert!((summary.sync - result.breakdown.sync).abs() < 1e-6);
        assert!((summary.update - result.breakdown.update).abs() < 1e-6);
        assert!((summary.total_time - result.total_time()).abs() < 1e-6);
        assert!((summary.energy - result.energy_joules).abs() < 1e-6);
        let f = summary.sync_fraction();
        assert!(f > 0.0 && f < 1.0, "sync fraction {f}");
        // network events rode along in the same stream
        assert!(summary.transfers > 0);
    }

    #[test]
    fn fast_fleet_suite_beats_fifo() {
        let doc = fleet(true);
        let [fifo, tidal] = &doc.results[..] else {
            panic!("fifo then tidal");
        };
        assert_eq!(fifo.policy, "fifo");
        assert_eq!(tidal.policy, "tidal");
        assert!(fifo.completed > 0 && tidal.completed > 0);
        // the acceptance bar: the fleet policy wins on JCT and utilization
        assert!(
            tidal.mean_jct_s < fifo.mean_jct_s,
            "tidal JCT {} vs fifo {}",
            tidal.mean_jct_s,
            fifo.mean_jct_s
        );
        assert!(
            tidal.utilization > fifo.utilization,
            "tidal util {} vs fifo {}",
            tidal.utilization,
            fifo.utilization
        );
        assert!(doc.jct_speedup_vs_fifo > 1.0);
        assert!(doc.utilization_gain_vs_fifo > 0.0);
    }

    #[test]
    fn fast_autotune_suite_beats_the_default() {
        // `Ok` is the acceptance bar, on the fast slice too: ≥1.05x on a
        // multi-CG default config
        let doc = autotune_suite(true).expect("a multi-CG arm reaches 1.05x");
        assert_eq!(doc.socs, 20);
        assert_eq!(doc.results.len(), 4, "three families + the profiled-β arm");
        for r in &doc.results {
            assert!(
                r.default.predicted_s > 0.0 && r.best.predicted_s > 0.0,
                "{}",
                r.arm
            );
            // the search never returns a plan predicted slower than default
            assert!(
                r.best.predicted_s <= r.default.predicted_s,
                "{}: best {} vs default {}",
                r.arm,
                r.best.predicted_s,
                r.default.predicted_s
            );
            assert!(r.evaluated > 0 && r.speedup >= 1.0, "{}", r.arm);
        }
    }

    #[test]
    fn fast_fault_suite_injects_and_recovers() {
        let results = faults(true).results;
        assert_eq!(results.len(), 4, "baseline + three intensities");
        assert_eq!(results[0].scenario, "baseline");
        assert_eq!(results[0].recovery_s, 0.0);
        // the storm scenario must actually lose SoCs
        assert!(results[3].faults_injected > 0, "storm must inject faults");
        for r in &results {
            assert!(
                r.best_accuracy > 0.0 && r.sim_time_s > 0.0,
                "{}",
                r.scenario
            );
        }
    }

    #[test]
    fn fast_timeline_suite_orders_the_schedules() {
        // `Ok` is the scratch bar: zero pool misses on the warm pass
        let doc = timeline(true).expect("warm re-pricing is served from the free-list");
        assert_eq!((doc.socs, doc.results.len()), (20, 3));
        assert!(
            doc.results.iter().any(|r| r.split_lgs > 0),
            "the sweep must include a split-LG count"
        );
        for r in &doc.results {
            assert!(r.analytic_s > 0.0 && r.simulated_s > 0.0, "{}", r.groups);
            // interleaving never loses to the serial schedule
            assert!(
                r.simulated_s <= r.no_overlap_s + 1e-9,
                "{} groups: simulated {} vs no-overlap {}",
                r.groups,
                r.simulated_s,
                r.no_overlap_s
            );
            // wait-free never loses to serial or to interleaving, on
            // every config (the overlap property, not a lucky sample)
            let eps = 1e-6 * r.no_overlap_s;
            assert!(
                r.wait_free_s <= r.no_overlap_s.min(r.simulated_s) + eps,
                "{} groups: wait-free {} vs serial {} and interleaved {}",
                r.groups,
                r.wait_free_s,
                r.no_overlap_s,
                r.simulated_s
            );
            // board-aligned counts reproduce the analytic model within 1%
            if r.split_lgs == 0 {
                assert!((r.agreement - 1.0).abs() < 0.01, "{} groups", r.groups);
            }
        }
        // at least one multi-CG config must gain from bucketing over
        // plain interleaving (the acceptance bar for the wait-free arm)
        assert!(
            doc.results
                .iter()
                .any(|r| r.cgs > 1 && r.wait_free_speedup > r.overlap_speedup + 1e-9),
            "no multi-CG config gained from wait-free bucketing"
        );
        let sweep = &doc.bucket_sweep.results;
        assert_eq!((doc.bucket_sweep.groups, sweep.len()), (7, 4));
        for w in sweep.windows(2) {
            assert!(w[0].bucket_kb < w[1].bucket_kb);
            assert!(
                w[0].buckets >= w[1].buckets,
                "smaller buckets cannot coalesce fewer: {} KiB → {} vs {} KiB → {}",
                w[0].bucket_kb,
                w[0].buckets,
                w[1].bucket_kb,
                w[1].buckets
            );
        }
        assert!(
            sweep[0].buckets > 1,
            "the 512 KiB floor must split VGG-11 into multiple buckets"
        );
        for r in sweep {
            assert!(r.wait_free_s > 0.0, "{} KiB", r.bucket_kb);
        }
        assert!(
            doc.scratch_reuse.acquires > 0,
            "the warm pass builds timelines"
        );
        assert_eq!(doc.scratch_reuse.misses, 0);
    }

    #[test]
    fn fast_streaming_suite_rate_awareness_wins() {
        let doc = streaming(true);
        assert!(doc.target_accuracy > 0.0);
        let [uniform_blind, uniform_aware, blind, aware] = &doc.results[..] else {
            panic!("uniform/hetero × topology/rate-aware");
        };
        assert_eq!((blind.profile, blind.rate_aware), ("hetero", false));
        assert_eq!((aware.profile, aware.rate_aware), ("hetero", true));
        // uniform streams never trigger regrouping and never stall
        assert_eq!(uniform_aware.rate_regroups, 0);
        assert_eq!(uniform_aware.stall_s, 0.0);
        assert_eq!(uniform_blind.stall_s, 0.0);
        assert!(blind.stall_s > 0.0, "topology-only hetero must stall");
        assert!(aware.rate_regroups > 0, "rate-aware hetero must regroup");
        // the acceptance bar: rate-aware regrouping improves
        // time-to-accuracy under heterogeneous stream rates
        let tb = blind.time_to_acc_s.expect("blind arm reaches target");
        let ta = aware.time_to_acc_s.expect("aware arm reaches target");
        assert!(ta < tb, "rate-aware TTA {ta} vs topology-only {tb}");
        assert!(doc.hetero_tta_speedup_vs_topology > 1.0);
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
