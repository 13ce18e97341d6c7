//! # socflow-bench
//!
//! Shared harness code for the experiment benches that regenerate every
//! table and figure of the paper (see DESIGN.md §3 for the index). Each
//! bench target is a `harness = false` binary under `benches/`, run by
//! `cargo bench --bench <id>`.
//!
//! Two fidelity levels, as everywhere in this reproduction: accuracies are
//! measured by really training width-scaled models; times/energies come
//! from the calibrated cluster simulation at paper scale.
//!
//! ## Runtime knobs
//!
//! - `SOCFLOW_EPOCHS` — epochs per training run (default 20);
//! - `SOCFLOW_SAMPLES` — scaled training-set size (default 4096).

use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
use socflow::engine::{Engine, Workload};
use socflow::options::RunOptions;
use socflow::report::RunResult;
use socflow::timemodel::{SyncCollective, TimeModel};
use socflow_cluster::calibration;
use socflow_data::DatasetPreset;
use socflow_nn::models::ModelKind;
use socflow_telemetry::{Event, MemorySink, Summary};
use std::sync::Arc;

/// One of the paper's eight evaluation workloads (Table 3 rows).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Row label, matching the paper.
    pub name: &'static str,
    /// Architecture.
    pub model: ModelKind,
    /// Dataset.
    pub preset: DatasetPreset,
    /// Global (per-group) batch size.
    pub batch: usize,
    /// Scaled model width for real training.
    pub width: f32,
    /// Learning rate.
    pub lr: f32,
    /// `true` for the transfer-learning workload (pretrain on CINIC-10).
    pub transfer: bool,
}

/// The paper's eight workloads in Table 3 order.
pub fn paper_workloads() -> Vec<WorkloadDef> {
    vec![
        WorkloadDef {
            name: "MobileNet",
            model: ModelKind::MobileNetV1,
            preset: DatasetPreset::Cifar10,
            batch: 256,
            width: 0.22,
            lr: 0.05,
            transfer: false,
        },
        WorkloadDef {
            name: "VGG11",
            model: ModelKind::Vgg11,
            preset: DatasetPreset::Cifar10,
            batch: 64,
            width: 0.22,
            lr: 0.04,
            transfer: false,
        },
        WorkloadDef {
            name: "ResNet18",
            model: ModelKind::ResNet18,
            preset: DatasetPreset::Cifar10,
            batch: 64,
            width: 0.18,
            lr: 0.04,
            transfer: false,
        },
        WorkloadDef {
            name: "VGG11-CelebA",
            model: ModelKind::Vgg11,
            preset: DatasetPreset::CelebA,
            batch: 64,
            width: 0.22,
            lr: 0.04,
            transfer: false,
        },
        WorkloadDef {
            name: "ResNet18-CelebA",
            model: ModelKind::ResNet18,
            preset: DatasetPreset::CelebA,
            batch: 64,
            width: 0.18,
            lr: 0.04,
            transfer: false,
        },
        WorkloadDef {
            name: "LeNet5-EMNIST",
            model: ModelKind::LeNet5,
            preset: DatasetPreset::Emnist,
            batch: 64,
            width: 0.5,
            lr: 0.05,
            transfer: false,
        },
        WorkloadDef {
            name: "LeNet5-FMNIST",
            model: ModelKind::LeNet5,
            preset: DatasetPreset::FashionMnist,
            batch: 64,
            width: 0.5,
            lr: 0.05,
            transfer: false,
        },
        WorkloadDef {
            name: "ResNet50-Finetune",
            model: ModelKind::ResNet50,
            preset: DatasetPreset::Cifar10,
            batch: 64,
            width: 0.1,
            lr: 0.02,
            transfer: true,
        },
    ]
}

/// Epochs per run (env `SOCFLOW_EPOCHS`, default 20).
pub fn epochs() -> usize {
    std::env::var("SOCFLOW_EPOCHS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20)
}

/// Scaled dataset size (env `SOCFLOW_SAMPLES`, default 4096).
pub fn samples() -> usize {
    std::env::var("SOCFLOW_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4096)
}

/// Scaled input size in pixels for all accuracy runs.
pub const INPUT_SIZE: usize = 8;

/// Builds the job spec for a workload × method.
pub fn build_spec(
    def: &WorkloadDef,
    method: MethodSpec,
    socs: usize,
    n_epochs: usize,
) -> TrainJobSpec {
    let mut s = TrainJobSpec::new(def.model, def.preset, method);
    s.socs = socs;
    s.global_batch = def.batch;
    s.epochs = n_epochs;
    s.lr = def.lr;
    s.seed = 42;
    s
}

/// Builds the scaled workload, running the CINIC-10 pretraining stage for
/// the transfer-learning row.
pub fn build_workload(spec: &TrainJobSpec, def: &WorkloadDef) -> Workload {
    let w = Workload::standard(spec, samples(), INPUT_SIZE, def.width);
    if !def.transfer {
        return w;
    }
    // pretrain on the CINIC-10 stand-in (same categories, different
    // source distribution), then fine-tune on the target workload
    let mut pre_spec = *spec;
    pre_spec.preset = DatasetPreset::Cinic10;
    pre_spec.method = MethodSpec::Local;
    pre_spec.epochs = 4;
    pre_spec.seed = spec.seed ^ 0x51C0;
    let pre_w = Workload::standard(&pre_spec, samples(), INPUT_SIZE, def.width);
    let mut engine = Engine::new(pre_spec, pre_w, RunOptions::default());
    let weights = engine.pretrain_weights();
    w.with_init_weights(weights)
}

/// One labelled run.
#[derive(Debug, Clone)]
pub struct MethodRun {
    /// Method legend name.
    pub name: &'static str,
    /// Full run result.
    pub result: RunResult,
}

/// Runs the full method comparison for a workload, reusing accuracy curves
/// within the three accuracy classes (synchronous SGD, federated,
/// SoCFlow) and pricing each method with the time model:
///
/// - PS / RING / HiPress / 2D-Paral are the *same* SGD stream — trained
///   once (via RING), then re-priced;
/// - FedAvg / T-FedAvg share the federated stream;
/// - Ours is trained with its α/β controller.
pub fn run_comparison(
    def: &WorkloadDef,
    socs: usize,
    n_epochs: usize,
    groups: usize,
) -> Vec<MethodRun> {
    let ring_spec = build_spec(def, MethodSpec::Ring, socs, n_epochs);
    let workload = build_workload(&ring_spec, def);

    let ring = Engine::new(ring_spec, workload.clone(), RunOptions::default()).run();
    let fed_spec = build_spec(def, MethodSpec::FedAvg, socs, n_epochs);
    let fed = Engine::new(fed_spec, workload.clone(), RunOptions::default()).run();
    // topology keeps the requested group count (intra-board groups at the
    // paper's scale); accuracy streams are capped so the scaled dataset
    // keeps the paper's steps-per-aggregation regime (DESIGN.md §6)
    let ours_cfg = SocFlowConfig {
        accuracy_streams: Some(groups.min(4)),
        ..SocFlowConfig::with_groups(groups)
    };
    let ours_spec = build_spec(def, MethodSpec::SocFlow(ours_cfg), socs, n_epochs);
    let ours = Engine::new(ours_spec, workload, RunOptions::default()).run();

    let tm = TimeModel::new(&ring_spec);
    let reprice = |base: &RunResult, name: &'static str, cost: socflow::timemodel::EpochCost| {
        let n = base.epoch_accuracy.len();
        RunResult {
            method: name.to_string(),
            epoch_accuracy: base.epoch_accuracy.clone(),
            epoch_time: vec![cost.time; n],
            breakdown: {
                let mut b = socflow::report::Breakdown::default();
                for _ in 0..n {
                    b.add(&cost.breakdown);
                }
                b
            },
            energy_joules: cost.energy * n as f64,
            alpha_trace: vec![f32::NAN; n],
            recovery_time: 0.0,
        }
    };

    vec![
        MethodRun {
            name: "PS",
            result: reprice(
                &ring,
                "PS",
                tm.sync_epoch(SyncCollective::Ps, 1.0, 0.0, None),
            ),
        },
        MethodRun {
            name: "RING",
            result: ring.clone(),
        },
        MethodRun {
            name: "HiPress",
            result: reprice(
                &ring,
                "HiPress",
                tm.sync_epoch(
                    SyncCollective::Ring,
                    calibration::DGC_WIRE_FRACTION,
                    calibration::DGC_OVERHEAD_FLOPS_PER_PARAM,
                    None,
                ),
            ),
        },
        MethodRun {
            name: "2D-Paral",
            result: reprice(
                &ring,
                "2D-Paral",
                tm.sync_epoch(SyncCollective::Ring, 1.0, 0.0, Some(4)),
            ),
        },
        MethodRun {
            name: "FedAvg",
            result: fed.clone(),
        },
        MethodRun {
            name: "T-FedAvg",
            result: reprice(&fed, "T-FedAvg", tm.federated_epoch(Some(2))),
        },
        MethodRun {
            name: "Ours",
            result: ours,
        },
    ]
}

/// Runs one job with an in-memory telemetry sink attached and returns the
/// result together with the recorded event stream — the bench-side hook for
/// asserting on sync-time fractions, α trajectories or per-transfer network
/// behaviour without re-deriving them from [`RunResult`].
pub fn run_traced(spec: TrainJobSpec, workload: Workload) -> (RunResult, Vec<Event>) {
    let sink = Arc::new(MemorySink::new());
    let mut engine = Engine::new(
        spec,
        workload,
        RunOptions {
            sink: Some(sink.clone()),
            ..RunOptions::default()
        },
    );
    let result = engine.run();
    (result, sink.take())
}

/// Fraction of visible epoch time spent synchronizing, computed from a
/// recorded event stream (Fig. 12's y-axis).
pub fn sync_fraction(events: &[Event]) -> f64 {
    Summary::from_events(events).sync_fraction()
}

/// Seconds → hours.
pub fn hours(secs: f64) -> f64 {
    secs / 3600.0
}

/// Prints an aligned table: header row then data rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats an optional time in hours ("x" when the run never converged,
/// as the paper marks non-converging baselines).
pub fn fmt_hours(t: Option<f64>) -> String {
    match t {
        Some(s) => format!("{:.2}", hours(s)),
        None => "x".to_string(),
    }
}

/// Trains `model` on `train` for `epochs` epochs at the given NPU format
/// (`None` = FP32) and returns the best test accuracy — the primitive of
/// the §5 format-sweep extension experiment.
pub fn train_with_format(
    model: socflow_nn::models::ModelKind,
    cfg: socflow_nn::models::ModelConfig,
    train: &socflow_data::Dataset,
    test: &socflow_data::Dataset,
    format: Option<socflow_tensor::quant::QuantFormat>,
    epochs: usize,
    rng: &mut rand::rngs::StdRng,
) -> f32 {
    use socflow_nn::{loss, metrics, optim::Sgd, Mode, Precision};
    let precision = match format {
        None => Precision::Fp32,
        Some(f) => Precision::Quant(f),
    };
    let mut net = model.build(cfg, rng);
    let mut opt = Sgd::new(0.05, 0.9, 5e-4);
    let mut best = 0.0f32;
    for epoch in 0..epochs {
        for batch in train.epoch_batches(64, rng) {
            let mode = Mode::train(precision);
            let logits = net.forward(&batch.images, mode);
            let (_, grad) = loss::softmax_cross_entropy(&logits, &batch.labels);
            net.backward(&grad, mode);
            opt.step(&mut net);
            net.zero_grad();
        }
        opt.set_lr((opt.lr() * 0.9).max(0.01));
        let eval = test.head_batch(512);
        let logits = net.forward(&eval.images, Mode::eval(precision));
        best = best.max(metrics::accuracy(&logits, &eval.labels));
        let _ = epoch;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_workloads_in_table3_order() {
        let w = paper_workloads();
        assert_eq!(w.len(), 8);
        assert_eq!(w[0].name, "MobileNet");
        assert_eq!(w[0].batch, 256, "paper: MobileNet uses batch 256");
        assert!(w[1..].iter().all(|d| d.batch == 64));
        assert!(w[7].transfer);
    }

    #[test]
    fn comparison_produces_seven_methods() {
        std::env::set_var("SOCFLOW_EPOCHS", "2");
        std::env::set_var("SOCFLOW_SAMPLES", "256");
        let defs = paper_workloads();
        let lenet = defs.iter().find(|d| d.name == "LeNet5-FMNIST").unwrap();
        let runs = run_comparison(lenet, 8, 2, 4);
        assert_eq!(runs.len(), 7);
        let names: Vec<&str> = runs.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            vec!["PS", "RING", "HiPress", "2D-Paral", "FedAvg", "T-FedAvg", "Ours"]
        );
        // sync methods share RING's accuracy
        assert_eq!(runs[0].result.epoch_accuracy, runs[1].result.epoch_accuracy);
        assert_eq!(runs[2].result.epoch_accuracy, runs[1].result.epoch_accuracy);
        // but not its timing
        assert_ne!(runs[0].result.total_time(), runs[1].result.total_time());
    }

    #[test]
    fn traced_run_reproduces_breakdown() {
        let defs = paper_workloads();
        let lenet = defs.iter().find(|d| d.name == "LeNet5-FMNIST").unwrap();
        let cfg = SocFlowConfig {
            accuracy_streams: Some(2),
            ..SocFlowConfig::with_groups(2)
        };
        let spec = build_spec(lenet, MethodSpec::SocFlow(cfg), 8, 2);
        let workload = Workload::standard(&spec, 256, INPUT_SIZE, lenet.width);
        let (result, events) = run_traced(spec, workload);
        assert!(!events.is_empty());
        // the trace alone must reproduce the run's Breakdown exactly
        let summary = Summary::from_events(&events);
        assert!((summary.compute - result.breakdown.compute).abs() < 1e-6);
        assert!((summary.sync - result.breakdown.sync).abs() < 1e-6);
        assert!((summary.update - result.breakdown.update).abs() < 1e-6);
        assert!((summary.total_time - result.total_time()).abs() < 1e-6);
        assert!((summary.energy - result.energy_joules).abs() < 1e-6);
        let f = sync_fraction(&events);
        assert!(f > 0.0 && f < 1.0);
        // network events rode along in the same stream
        assert!(events.iter().any(|e| matches!(e, Event::Transfer { .. })));
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(
            "demo",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(fmt_hours(None), "x");
        assert_eq!(fmt_hours(Some(7200.0)), "2.00");
    }
}
