//! `bench paper` — the paper's evaluation (§4: Table 3, Figs. 3–14) and the
//! three extension experiments of DESIGN.md §3 as one row set.
//!
//! Every row is one quantity of one experiment: what the paper reports for
//! it (where it reports a number), what this run measured, and — for the
//! paper's *ordering* claims — whether the ordering holds. The suite fails
//! when an ordering breaks and only reports how far a magnitude sits from
//! the paper's. Accuracies come from really training the width-scaled
//! models, times and energies from the calibrated cluster simulation, all of
//! it seeded: the document is byte-identical on any host and pool size.
//!
//! Every training run goes through one [`Comparison`] per workload, which
//! trains each distinct SGD stream once: Table 3, Figs. 8, 9, 12, 13 and
//! the 32-SoC row of Fig. 10 read the same three runs per workload, and
//! quantities no trained network enters (Figs. 3, 4(a), 4(b), 11, the FP32
//! arms of Fig. 13, extensions B–D) are priced with the time model directly.
//!
//! The last rows are the reproduction score ([`score`]), derived from the
//! rows before them with no run of its own: per figure and over all of
//! them, how many rows lie inside the paper's band and how far the others
//! miss it. A row is scored when it has both bounds and a measurement. Its
//! miss is 0 inside the band, and otherwise the distance to the nearer edge
//! over that edge's magnitude. A point band (`lo == hi`) counts strictly,
//! with no tolerance: only the paper's exact value is in it, and a near
//! miss shows in the median instead. The gate holds `score/all/in_band`
//! and `score/all/median_rel_err` to [`SCORE_FLOOR`].

use super::{claim, no_later, push, push_arm, ratio, Row, SCORE_FLOOR};
use crate::commands::default_width;
use socflow::config::{Arms, MethodSpec, SocFlowConfig, TrainJobSpec};
use socflow::mapping::sequential;
use socflow::options::{Plan, RunOptions};
use socflow::planning::topology;
use socflow::report::REFERENCE_CONVERGENCE_SCALE;
use socflow::scheduler::GlobalScheduler;
use socflow::sim::{
    simulate_socflow_schedule,
    SyncSchedule::{Interleaved, Serial},
};
use socflow::suite::{comparison_methods, Comparison};
use socflow::timemodel::{Collective, EpochCost, TimeModel};
use socflow::{Engine, Mapping, RunResult, Workload};
use socflow_cluster::calibration::GEN1_EPOCH_SPEEDUP;
use socflow_cluster::tidal::{TidalTrace, DAILY_IDLE_WINDOW, HOURLY_BUSY_FRACTION};
use socflow_cluster::Processor::{GpuA100, GpuV100, SocCpuFp32, SocNpuInt8};
use socflow_cluster::{ClusterNet, ClusterSpec, SocId};
use socflow_data::DatasetPreset::{self, CelebA, Cifar10, Cinic10, Emnist, FashionMnist};
use socflow_nn::models::ModelKind::{self, LeNet5, MobileNetV1, ResNet18, ResNet50, Vgg11};
use std::collections::BTreeMap;
use std::time::Instant;

/// One of the paper's eight evaluation workloads (a Table 3 row); the model
/// trains at [`default_width`].
struct WorkloadDef {
    name: &'static str,
    model: ModelKind,
    preset: DatasetPreset,
    /// Per-group batch size.
    batch: usize,
    lr: f32,
}

const fn workload(
    name: &'static str,
    model: ModelKind,
    preset: DatasetPreset,
    batch: usize,
    lr: f32,
) -> WorkloadDef {
    WorkloadDef {
        name,
        model,
        preset,
        batch,
        lr,
    }
}

/// The paper's eight workloads in Table 3 order. The last is the
/// transfer-learning row: it starts from weights pretrained on CINIC-10.
const WORKLOADS: [WorkloadDef; 8] = [
    workload("MobileNet", MobileNetV1, Cifar10, 256, 0.05),
    workload("VGG11", Vgg11, Cifar10, 64, 0.04),
    workload("ResNet18", ResNet18, Cifar10, 64, 0.04),
    workload("VGG11-CelebA", Vgg11, CelebA, 64, 0.04),
    workload("ResNet18-CelebA", ResNet18, CelebA, 64, 0.04),
    workload("LeNet5-EMNIST", LeNet5, Emnist, 64, 0.05),
    workload("LeNet5-FMNIST", LeNet5, FashionMnist, 64, 0.05),
    workload(TRANSFER, ResNet50, Cifar10, 64, 0.02),
];
const TRANSFER: &str = "ResNet50-Finetune";

fn def(name: &str) -> &'static WorkloadDef {
    let found = WORKLOADS.iter().find(|d| d.name == name);
    found.expect("a Table 3 row")
}

/// How much of the evaluation one mode runs — the one size table.
struct Size {
    /// Epochs and scaled training-set size of every training run.
    epochs: usize,
    samples: usize,
    /// Table 3 / Figs. 8–9 rows.
    workloads: &'static [&'static str],
    /// The workloads of Figs. 4(c), 6, 12, 13 and 14.
    models: &'static [&'static str],
    /// Fig. 6's logical-group counts.
    fig6_groups: &'static [usize],
    /// Fig. 10's workloads and SoC counts.
    fig10: (&'static [&'static str], &'static [usize]),
}

const FULL: Size = Size {
    epochs: 12,
    samples: 2048,
    workloads: &[
        "MobileNet",
        "VGG11",
        "ResNet18",
        "VGG11-CelebA",
        "ResNet18-CelebA",
        "LeNet5-EMNIST",
        "LeNet5-FMNIST",
        TRANSFER,
    ],
    models: &["VGG11", "ResNet18"],
    fig6_groups: &[1, 2, 4, 8, 16, 32],
    fig10: (&["VGG11", "ResNet18", "LeNet5-FMNIST"], &[8, 16, 24, 32]),
};

const FAST: Size = Size {
    epochs: 6,
    samples: 1024,
    workloads: &["VGG11", "LeNet5-FMNIST"],
    models: &["VGG11"],
    fig6_groups: &[1, 8],
    fig10: (&["VGG11"], &[8, 32]),
};

/// SoCs of the paper's main evaluation, and its logical-group count there.
const SOCS: usize = 32;
const GROUPS: usize = 8;
/// Epochs of the paper's reference schedule (Figs. 4(a) and 11).
const REFERENCE_EPOCHS: f64 = 200.0;
/// A run has converged at this share of the best accuracy that both the
/// synchronous baselines and Ours reached in its comparison — the highest
/// bar both sides of the paper's headline speedups clear (Figs. 8–10).
const TARGET_OF_BEST: f64 = 0.95;

/// Positions in [`comparison_methods`]' legend order.
const RING: usize = 1;
const HIPRESS: usize = 2;
const TWO_D: usize = 3;
const FEDAVG: usize = 4;
const OURS: usize = 6;

/// Runs the suite: the `paper/setup/*` rows, then every experiment in
/// DESIGN.md §3 order.
pub(super) fn paper(fast: bool) -> Vec<Row> {
    let mut p = Paper::new(if fast { &FAST } else { &FULL });
    let sections: [(&str, Section); 12] = [
        ("fig3", Paper::fig3),
        ("fig4", Paper::fig4),
        ("fig6", Paper::fig6),
        ("tab3_fig8_fig9", Paper::tab3_fig8_fig9),
        ("fig10", Paper::fig10),
        ("fig11", Paper::fig11),
        ("fig12", Paper::fig12),
        ("fig13", Paper::fig13),
        ("fig14", Paper::fig14),
        ("extB", Paper::ext_colocation),
        ("extC", Paper::ext_underclock),
        ("extD", Paper::ext_design_space),
    ];
    for (name, section) in sections {
        p.section(name, section);
    }
    // training runs the experiments asked for, and how many the
    // per-workload comparisons had to execute
    let counts = p.comparisons.values().map(Comparison::counts);
    let (runs_requested, runs_trained) = counts.fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));
    let mut rows = Vec::new();
    let setup = [
        ("epochs", p.size.epochs as f64, "epochs"),
        ("samples", p.size.samples as f64, "samples"),
        ("target_of_best", TARGET_OF_BEST, "ratio"),
        ("runs_requested", runs_requested as f64, "runs"),
        ("runs_trained", runs_trained as f64, "runs"),
    ];
    push_arm(&mut rows, "paper/setup", setup);
    rows.extend(p.rows);
    let score = score(&rows, SCORE_FLOOR[usize::from(fast)]);
    rows.extend(score);
    rows
}

/// The `score/<figure>/*` rows of `rows` in figure order, then `score/all/*`,
/// with `score/all/in_band` gated at no less than `floor.0` and
/// `score/all/median_rel_err` at no more than `floor.1`.
fn score(rows: &[Row], floor: (usize, f64)) -> Vec<Row> {
    let mut figures: Vec<(&str, Vec<f64>)> = Vec::new();
    for r in rows {
        let (Some(lo), Some(hi), Some(m)) = (r.paper_lo, r.paper_hi, r.measured) else {
            continue;
        };
        let miss = if m < lo {
            (lo - m) / lo.abs()
        } else if m > hi {
            (m - hi) / hi.abs()
        } else {
            0.0
        };
        let figure = r.id.split('/').next().expect("an id");
        match figures.iter_mut().find(|(f, _)| *f == figure) {
            Some((_, misses)) => misses.push(miss),
            None => figures.push((figure, vec![miss])),
        }
    }
    let all = figures
        .iter()
        .flat_map(|(_, m)| m.iter().copied())
        .collect();
    figures.push(("all", all));
    let mut out = Vec::new();
    let mut gate = (false, false);
    for (figure, mut misses) in figures {
        misses.sort_by(f64::total_cmp);
        let n = misses.len();
        let in_band = misses.iter().filter(|&&m| m == 0.0).count();
        let median = (n > 0).then(|| (misses[(n - 1) / 2] + misses[n / 2]) / 2.0);
        gate = (in_band >= floor.0, median.is_some_and(|m| m <= floor.1));
        let quantities = [
            ("in_band", Some(in_band as f64), "rows"),
            ("banded", Some(n as f64), "rows"),
            ("median_rel_err", median, "ratio"),
            ("worst_rel_err", misses.last().copied(), "ratio"),
        ];
        push_arm(&mut out, &format!("score/{figure}"), quantities);
    }
    // the loop ends on `all`
    claim(&mut out, "score/all/in_band", gate.0);
    claim(&mut out, "score/all/median_rel_err", gate.1);
    out
}

/// SoCFlow as the comparisons run it: `groups` logical groups in the
/// topology, accuracy streams capped at 4 so the scaled dataset keeps the
/// paper's steps-per-aggregation regime (DESIGN.md §6).
fn ours_cfg(groups: usize) -> SocFlowConfig {
    SocFlowConfig {
        accuracy_streams: Some(groups.min(4)),
        ..SocFlowConfig::with_groups(groups)
    }
}

/// SoCFlow on `arms` as the paper's 32-SoC runs train it: [`GROUPS`]
/// logical groups, configured by [`ours_cfg`].
fn ours(arms: Arms) -> MethodSpec {
    MethodSpec::SocFlow(SocFlowConfig {
        arms,
        ..ours_cfg(GROUPS)
    })
}

/// One SoCFlow epoch at the CPU share a Mixed run starts at (α = 1): the
/// split SoCFlow trains at while the INT8 model still tracks the FP32 one.
/// Priced on the timeline, like every trained SoCFlow run it is set
/// against.
fn fresh_epoch(tm: &TimeModel, socs: usize, groups: usize) -> EpochCost {
    let ctrl = Arms::Mixed.controller(tm.compute().beta());
    let (mapping, cgs, _) = topology(socs, groups);
    tm.socflow_epoch_timeline(&mapping, &cgs, Arms::Mixed.cpu_fraction(&ctrl))
        .cost
}

fn pct(r: &RunResult) -> f64 {
    r.best_accuracy() as f64 * 100.0
}

fn hours(seconds: f64) -> f64 {
    seconds / 3600.0
}

/// The shared convergence target of one seven-method comparison.
fn target(runs: &[RunResult]) -> f32 {
    runs[RING].best_accuracy().min(runs[OURS].best_accuracy()) * TARGET_OF_BEST as f32
}

/// One experiment of the suite, appending its rows to a [`Paper`].
type Section = fn(&mut Paper);

/// One run of the suite: the size, the per-workload comparisons (the run
/// cache) and the rows so far.
struct Paper {
    size: &'static Size,
    comparisons: BTreeMap<&'static str, Comparison>,
    rows: Vec<Row>,
}

impl Paper {
    fn new(size: &'static Size) -> Self {
        Paper {
            size,
            comparisons: BTreeMap::new(),
            rows: Vec::new(),
        }
    }

    /// Runs `section` of the suite and prints its host seconds and the
    /// training runs it added to stderr, never into the document: where
    /// the suite's wall time goes, without a byte of the rows depending on
    /// the host.
    fn section(&mut self, name: &str, section: Section) {
        let trained = |p: &Paper| p.comparisons.values().map(|c| c.counts().1).sum::<usize>();
        let (t0, before) = (Instant::now(), trained(self));
        section(self);
        let seconds = t0.elapsed().as_secs_f64();
        let runs = trained(self) - before;
        eprintln!("bench paper: {name:<15} {seconds:>8.2} s host, {runs:>3} runs trained");
    }

    /// Appends the row `id` (`<experiment>/<workload>/<quantity>`).
    fn row(
        &mut self,
        id: String,
        measured: impl Into<Option<f64>>,
        unit: &'static str,
    ) -> &mut Row {
        push(&mut self.rows, id, measured, unit)
    }

    /// The job of `d` under `method` on `socs` SoCs.
    fn spec(&self, d: &WorkloadDef, method: MethodSpec, socs: usize) -> TrainJobSpec {
        let mut s = TrainJobSpec::new(d.model, d.preset, method);
        (s.socs, s.global_batch, s.epochs, s.lr) = (socs, d.batch, self.size.epochs, d.lr);
        s
    }

    /// The time model of `name` on the main evaluation's 32 SoCs.
    fn time_model(&self, name: &str) -> TimeModel {
        TimeModel::new(&self.spec(def(name), MethodSpec::Ring, SOCS))
    }

    /// The comparison every training run of `name` goes through, built on
    /// first use; the transfer row fine-tunes from a CINIC-10 pretraining.
    fn comparison(&mut self, name: &str) -> &mut Comparison {
        let d = def(name);
        let spec = self.spec(d, MethodSpec::Ring, SOCS);
        let samples = self.size.samples;
        self.comparisons.entry(d.name).or_insert_with(|| {
            let scaled = |s| Workload::standard(s, samples, 8, default_width(d.model));
            let mut w = scaled(&spec);
            if d.name == TRANSFER {
                let pre = TrainJobSpec {
                    preset: Cinic10,
                    method: MethodSpec::Local,
                    epochs: 4,
                    seed: spec.seed ^ 0x51C0,
                    ..spec
                };
                let mut engine = Engine::new(pre, scaled(&pre), RunOptions::default());
                w = w.with_init_weights(engine.pretrain_weights());
            }
            Comparison::new(spec, w)
        })
    }

    /// `name` under the paper's seven methods on `socs` SoCs, with the
    /// paper's intra-board-sized logical groups (8 at 32 SoCs).
    fn seven(&mut self, name: &str, socs: usize) -> Vec<RunResult> {
        let ours = MethodSpec::SocFlow(ours_cfg((socs / 4).max(1)));
        let methods = comparison_methods(ours);
        self.comparison(name).run_all(&methods, socs)
    }

    /// Fig. 3: the tidal trace leaves a pre-dawn idle window.
    fn fig3(&mut self) {
        let trace = TidalTrace::generate(60, 42);
        let mean = |hours: std::ops::Range<usize>| {
            let n = hours.len() as f64;
            hours.map(|h| trace.busy_fraction(h)).sum::<f64>() / n
        };
        let swing = mean(11..17) / mean(3..8).max(1e-9);
        self.row("fig3/server/peak_over_trough".into(), swing, "x")
            .paper(10.0, None);
        let (_, len) = trace.best_idle_window(SOCS);
        self.row("fig3/server/idle_window_32_socs".into(), len as f64, "h")
            .paper(4.0, None);
    }

    /// Fig. 4: single-SoC training time (a), collective latency against
    /// the SoC count (b), FP32 against INT8 accuracy at 32 SoCs (c).
    fn fig4(&mut self) {
        // paper: hours on CPU, on NPU; ring, PS latency in ms on one board
        // and on 32 SoCs; INT8's accuracy loss in points
        let vgg_ms = [540.0, 1248.0, 2060.0, 20593.0];
        let resnet_ms = [699.0, 2225.0, 2700.0, 26505.0];
        let paper = [
            ("VGG11", [29.1, 10.0], vgg_ms, 5.94),
            ("ResNet18", [233.0, 36.0], resnet_ms, 8.25),
        ];
        let net = ClusterNet::new(ClusterSpec::paper_server());
        for (name, single_h, latency_ms, int8_loss) in paper {
            let tm = TimeModel::new(&self.spec(def(name), MethodSpec::Local, 1));
            let procs = [("cpu_fp32", SocCpuFp32), ("npu_int8", SocNpuInt8)];
            for ((arm, proc), h) in procs.into_iter().zip(single_h) {
                let t = hours(tm.local_epoch(proc).time * REFERENCE_EPOCHS);
                self.row(format!("fig4a/{name}/{arm}"), t, "h").paper(h, h);
            }
            let payload = def(name).model.payload_bytes_fp32() as f64;
            for socs in [4, 8, 16, 24, 32] {
                let members: Vec<SocId> = (0..socs).map(SocId).collect();
                let anchor = |on_board: f64, on_32: f64| match socs {
                    4 => Some(on_board),
                    32 => Some(on_32),
                    _ => None,
                };
                let ring = Collective::Ring.time(&net, &members, payload) * 1e3;
                let at = anchor(latency_ms[0], latency_ms[1]);
                self.row(format!("fig4b/{name}/ring_{socs}_socs"), ring, "ms")
                    .paper(at, at);
                let ps = Collective::Ps.time(&net, &members, payload) * 1e3;
                let at = anchor(latency_ms[2], latency_ms[3]);
                self.row(format!("fig4b/{name}/ps_{socs}_socs"), ps, "ms")
                    .paper(at, at);
            }
            if !self.size.models.contains(&name) {
                continue;
            }
            let c = self.comparison(name);
            let fp32 = pct(&c.run(MethodSpec::Ring, SOCS));
            let int8 = pct(&c.run(ours(Arms::Int8), SOCS));
            self.row(format!("fig4c/{name}/fp32_acc"), fp32, "%");
            self.row(format!("fig4c/{name}/int8_acc"), int8, "%");
            self.row(format!("fig4c/{name}/int8_loss"), fp32 - int8, "pp")
                .paper(int8_loss, int8_loss)
                .holds(int8 < fp32);
        }
    }

    /// Fig. 6: converged and first-epoch accuracy against the group count,
    /// and what the scheduler's warm-up heuristic picks from the latter.
    fn fig6(&mut self) {
        let fp32 = |groups| {
            MethodSpec::SocFlow(SocFlowConfig {
                groups,
                arms: Arms::Fp32,
                ..SocFlowConfig::full()
            })
        };
        for &name in self.size.models {
            for &g in self.size.fig6_groups {
                let run = self.comparison(name).run(fp32(Some(g)), SOCS);
                self.row(format!("fig6/{name}/final_acc_{g}_groups"), pct(&run), "%");
            }
            let c = self.comparison(name);
            let (spec, w) = (c.spec(fp32(None), SOCS), c.workload().clone());
            let choice = GlobalScheduler::new(spec, w, RunOptions::default(), Plan::Fixed)
                .plan_topology()
                .group_choice
                .expect("an unset group count runs the heuristic");
            for (g, acc) in choice.profile {
                let id = format!("fig6/{name}/first_epoch_acc_{g}_groups");
                self.row(id, acc as f64 * 100.0, "%");
            }
            let id = format!("fig6/{name}/heuristic_groups");
            self.row(id, choice.groups as f64, "groups").paper(4.0, 8.0);
        }
    }

    /// Table 3 and Figs. 8–9 read one seven-method comparison per
    /// workload: convergence accuracy, then time and energy to the shared
    /// target.
    fn tab3_fig8_fig9(&mut self) {
        // paper: Ours' speedup over PS, RING, HiPress, 2D-Paral (Fig. 8) and
        // its energy saving over PS … T-FedAvg (Fig. 9)
        let faster = [(94.4, 740.7), (14.8, 143.7), (7.4, 98.2), (4.4, 50.4)];
        let (vs_ps, vs_tfedavg) = (Some((20.0, 158.0)), Some((1.7, 11.0)));
        let thriftier = [vs_ps, None, None, None, None, vs_tfedavg];
        let mut loss_sum = [0.0; 3];
        for &name in self.size.workloads {
            let runs = self.seven(name, SOCS);
            let local = pct(&self.comparison(name).run(MethodSpec::Local, 1));
            self.row(format!("tab3/{name}/local_acc"), local, "%");
            let acc = [RING, FEDAVG, OURS].map(|i| pct(&runs[i]));
            for (i, class) in ["sync", "fedavg", "ours"].into_iter().enumerate() {
                self.row(format!("tab3/{name}/{class}_acc"), acc[i], "%");
                loss_sum[i] += acc[i] - local;
            }
            let [sync, fed, ours] = acc;
            let margin = (sync - ours).min(ours - fed);
            self.row(format!("tab3/{name}/sync_ours_fedavg_margin"), margin, "pp")
                .holds(sync >= ours && ours > fed);

            let goal = target(&runs);
            let time = |i: usize| runs[i].time_to_accuracy(goal);
            for (i, r) in runs.iter().enumerate() {
                let id = format!("fig8/{name}/{}_h", r.method);
                self.row(id, time(i).map(hours), "h");
            }
            for (i, (lo, hi)) in faster.into_iter().enumerate() {
                let id = format!("fig8/{name}/ours_speedup_vs_{}", runs[i].method);
                self.row(id, ratio(time(i), time(OURS)), "x").paper(lo, hi);
            }
            let projected = time(OURS).map(|t| hours(t * REFERENCE_CONVERGENCE_SCALE));
            self.row(format!("fig8/{name}/ours_projected_h"), projected, "h")
                .paper(None, hours(DAILY_IDLE_WINDOW));
            let energy = |i: usize| runs[i].energy_to_accuracy(goal);
            for (i, band) in thriftier.into_iter().enumerate() {
                let id = format!("fig9/{name}/ours_saving_vs_{}", runs[i].method);
                let (lo, hi) = band.unzip();
                self.row(id, ratio(energy(i), energy(OURS)), "x")
                    .paper(lo, hi);
            }
        }
        let n = self.size.workloads.len() as f64;
        let paper_avg = [("sync", -0.16), ("fedavg", -2.23), ("ours", -0.81)];
        for ((class, paper), sum) in paper_avg.into_iter().zip(loss_sum) {
            self.row(format!("tab3/average/{class}_vs_local"), sum / n, "pp")
                .paper(paper, paper);
        }
    }

    /// Fig. 10: time to the shared target as the SoC count grows. Ours is
    /// fastest at every count and its lead over RING widens.
    fn fig10(&mut self) {
        let (workloads, soc_counts) = self.size.fig10;
        for &name in workloads {
            let mut slimmest = f64::INFINITY;
            let mut over_ring = Vec::new();
            for &socs in soc_counts {
                let runs = self.seven(name, socs);
                let goal = target(&runs);
                let ours = runs[OURS].time_to_accuracy(goal);
                // a baseline that never gets there is slower than any time
                let others = runs[..OURS].iter();
                let leads = others.filter_map(|r| ratio(r.time_to_accuracy(goal), ours));
                slimmest = leads.fold(slimmest, f64::min);
                let lead = ratio(runs[RING].time_to_accuracy(goal), ours);
                let id = format!("fig10/{name}/ours_over_ring_{socs}_socs");
                self.row(id, lead, "x");
                over_ring.push(lead);
            }
            self.row(format!("fig10/{name}/ours_slimmest_lead"), slimmest, "x")
                .holds(slimmest > 1.0);
            let growth = ratio(over_ring[over_ring.len() - 1], over_ring[0]);
            let id = format!("fig10/{name}/lead_growth_8_to_32_socs");
            self.row(id, growth, "x")
                .paper(2.6, 2.6)
                .holds(growth.is_some_and(|g| g > 1.0));
        }
    }

    /// Fig. 11: a 60-SoC server of twelve whole-board groups at a per-group
    /// batch of 256 against one datacenter GPU.
    fn fig11(&mut self) {
        // paper: speedup and energy saving over the V100
        let v100 = [Some((0.80, 2.79)), Some((2.31, 10.23))];
        let gpus = [
            ("v100", GpuV100, 1.0, v100),
            ("a100", GpuA100, GEN1_EPOCH_SPEEDUP, [None, None]),
        ];
        for name in ["VGG11", "ResNet18", "LeNet5-EMNIST", "LeNet5-FMNIST"] {
            let mut spec = self.spec(def(name), MethodSpec::Ring, 60);
            spec.global_batch = 256;
            let tm = TimeModel::new(&spec);
            let ours = fresh_epoch(&tm, 60, 12);
            for (gpu, proc, soc_speedup, paper) in gpus {
                let g = tm.local_epoch(proc);
                let gains = [
                    ("speedup", g.time / ours.time),
                    ("energy_saving", g.energy / ours.energy),
                ];
                for ((gain, x), band) in gains.into_iter().zip(paper) {
                    let (lo, hi) = band.unzip();
                    let id = format!("fig11/{name}/{gain}_vs_{gpu}");
                    self.row(id, x * soc_speedup, "x").paper(lo, hi);
                }
            }
        }
    }

    /// Fig. 12: the visible-synchronization share of an epoch.
    fn fig12(&mut self) {
        // paper, in percent
        let paper = [
            (RING, 81.0, 81.0),
            (HIPRESS, 76.5, 76.5),
            (TWO_D, 71.5, 71.5),
            (FEDAVG, 16.5, 34.7),
            (OURS, 46.0, 46.0),
        ];
        for &name in self.size.models {
            let runs = self.seven(name, SOCS);
            let share = |i: usize| {
                let b = runs[i].breakdown;
                b.sync / b.total().max(1e-9) * 100.0
            };
            for (i, lo, hi) in paper {
                let id = format!("fig12/{name}/sync_share_{}", runs[i].method);
                self.row(id, share(i), "%").paper(lo, hi);
            }
            let margin = (share(RING) - share(HIPRESS)).min(share(HIPRESS) - share(TWO_D));
            self.row(format!("fig12/{name}/ring_hipress_2d_margin"), margin, "pp")
                .holds(margin > 0.0);
        }
    }

    /// Fig. 13: RING, then one technique at a time. The three FP32 arms
    /// cost the same every epoch, so they are priced on the timeline
    /// without training; the last arm is the comparison's Ours.
    fn fig13(&mut self) {
        let (greedy, cgs, _) = topology(SOCS, GROUPS);
        let naive = sequential(&ClusterSpec::for_socs(SOCS), SOCS, GROUPS);
        for &name in self.size.models {
            let tm = self.time_model(name);
            let epochs = self.size.epochs as f64;
            // before planning, every group syncs at once after computing
            let fp32 = |mapping: &Mapping, planning, schedule| {
                let epoch = simulate_socflow_schedule(&tm, mapping, &cgs, planning, schedule, 1.0);
                epoch.cost.time * epochs
            };
            let runs = self.seven(name, SOCS);
            // paper: each arm's gain over the one before
            let arms = [
                ("group", fp32(&naive, false, Serial), 1.08, 1.57),
                ("mapping", fp32(&greedy, false, Serial), 1.05, 1.10),
                ("plan", fp32(&greedy, true, Interleaved), 1.69, 1.78),
                ("mixed", runs[OURS].total_time(), 3.53, 5.78),
            ];
            let mut before = runs[RING].total_time();
            let mut least = f64::INFINITY;
            for (arm, t, lo, hi) in arms {
                self.row(format!("fig13/{name}/{arm}_gain"), before / t, "x")
                    .paper(lo, hi);
                least = least.min(before / t);
                before = t;
            }
            self.row(format!("fig13/{name}/least_gain"), least, "x")
                .holds(least > 1.0);
        }
    }

    /// Fig. 14: the mixed-precision arms. Mixed lands between FP32 and
    /// INT8 on the clock; the row says how much of that gap it closes.
    fn fig14(&mut self) {
        let arms = [
            ("fp32", ours(Arms::Fp32)),
            ("mixed", ours(Arms::Mixed)),
            ("half", ours(Arms::Half)),
            ("int8", ours(Arms::Int8)),
        ];
        for &name in self.size.models {
            let methods = arms.map(|(_, method)| method);
            let runs = self.comparison(name).run_all(&methods, SOCS);
            for ((arm, _), r) in arms.iter().zip(&runs) {
                let t = hours(r.total_time());
                self.row(format!("fig14/{name}/{arm}_h"), t, "h");
                self.row(format!("fig14/{name}/{arm}_acc"), pct(r), "%");
            }
            let [fp32, mixed, _, int8] = [0, 1, 2, 3].map(|i| runs[i].total_time());
            let closed = (fp32 - mixed) / (fp32 - int8);
            let id = format!("fig14/{name}/mixed_closes_fp32_int8_gap");
            self.row(id, closed, "ratio")
                .holds(no_later(int8, mixed) && no_later(mixed, fp32));
        }
    }

    /// Extension B: epoch time while user traffic shares the links.
    fn ext_colocation(&mut self) {
        let mut clear = None;
        for load_pct in [0, 20, 40, 60, 80] {
            let mut tm = self.time_model("VGG11");
            let net = tm.net().clone();
            *tm.net_mut() = net.with_background_load(load_pct as f64 / 100.0);
            let ours = fresh_epoch(&tm, SOCS, GROUPS).time;
            let ring = tm.baseline_epoch(MethodSpec::Ring).expect("a baseline");
            let (ours0, ring0) = *clear.get_or_insert((ours, ring.time));
            for (method, t, t0) in [("ours", ours, ours0), ("ring", ring.time, ring0)] {
                if load_pct == 0 {
                    self.row(format!("extB/VGG11/{method}_epoch"), t / 60.0, "min");
                } else {
                    let id = format!("extB/VGG11/{method}_slowdown_at_{load_pct}pct_load");
                    self.row(id, t / t0, "x");
                }
            }
        }
        let light = HOURLY_BUSY_FRACTION.iter().filter(|&&f| f <= 0.4).count();
        let id = "extB/server/hours_at_most_40pct_busy".into();
        self.row(id, light as f64, "h");
    }

    /// Extension C (§4.1): what underclocking-aware re-balancing recovers
    /// in a 4-SoC group when some of its members are throttled.
    fn ext_underclock(&mut self) {
        let group: Vec<SocId> = (0..4).map(SocId).collect();
        for (throttled, clock_pct) in [(1, 70), (1, 50), (2, 50), (3, 50), (1, 30)] {
            let mut tm = self.time_model("VGG11");
            for soc in 0..throttled {
                let factor = clock_pct as f64 / 100.0;
                tm.compute_mut().set_underclock(soc, factor);
            }
            let gain = tm.equal_share_compute_time(&group) / tm.group_compute_time(&group, 1.0);
            let id = format!("extC/VGG11/gain_{throttled}_socs_at_{clock_pct}pct_clock");
            self.row(id, gain, "x");
        }
    }

    /// Extension D: the fastest point of the (groups × batch) plane.
    fn ext_design_space(&mut self) {
        for name in ["LeNet5-FMNIST", "VGG11", "ResNet18"] {
            let mut best = (f64::INFINITY, 0, 0);
            for groups in [2, 4, 8, 16] {
                for batch in [32, 64, 128, 256] {
                    let mut spec = self.spec(def(name), MethodSpec::Ring, SOCS);
                    spec.global_batch = batch;
                    let t = fresh_epoch(&TimeModel::new(&spec), SOCS, groups).time;
                    if t < best.0 {
                        best = (t, groups, batch);
                    }
                }
            }
            let (t, groups, batch) = best;
            self.row(format!("extD/{name}/fastest_epoch"), t, "s");
            self.row(
                format!("extD/{name}/fastest_groups"),
                groups as f64,
                "groups",
            );
            self.row(
                format!("extD/{name}/fastest_batch"),
                batch as f64,
                "samples",
            );
        }
    }
}

/// What the table-driven suite test asks of a `paper` document beyond the
/// envelope and unique ids: a row for every experiment of DESIGN.md §3 bar
/// `micro` and the theorems, no id outside them and `paper/setup`, and no
/// ordering row that does not hold.
#[cfg(test)]
pub(super) fn assert_rows_cover_every_experiment(results: &[serde_json::Value]) {
    let experiments = [
        "fig3", "fig4a", "fig4b", "fig4c", "fig6", "tab3", "fig8", "fig9", "fig10", "fig11",
        "fig12", "fig13", "fig14", "extB", "extC", "extD", "score",
    ];
    let ids: Vec<&str> = results
        .iter()
        .map(|r| r.get("id").as_str().expect("a row id"))
        .collect();
    for experiment in experiments {
        let prefix = format!("{experiment}/");
        assert!(ids.iter().any(|id| id.starts_with(&prefix)), "{experiment}");
    }
    let known = |id: &&str| {
        let head = id.split('/').next();
        id.starts_with("paper/setup/") || experiments.iter().any(|&e| head == Some(e))
    };
    assert_eq!(ids.iter().find(|id| !known(id)), None);
    let orderings: Vec<bool> = results
        .iter()
        .filter_map(|r| r.get("holds").as_bool())
        .collect();
    assert!(orderings.len() >= 7, "one ordering per gated claim");
    assert!(orderings.iter().all(|&holds| holds), "{orderings:?}");
}

#[cfg(test)]
mod tests {
    use super::super::{gate, write_json};
    use super::*;

    /// A broken ordering reaches `write_json` as the suite's `Err`: exit 1
    /// and no `BENCH_paper.json` to commit by mistake.
    #[test]
    fn a_broken_ordering_fails_the_gate_and_leaves_no_file() {
        let mut p = Paper::new(&FAST);
        p.fig3();
        p.row("fig13/VGG11/least_gain".into(), 1.28, "x")
            .holds(true);
        assert_eq!(gate(&p.rows), Ok(()), "magnitudes never fail the gate");
        p.row("fig12/VGG11/ring_hipress_2d_margin".into(), -0.5, "pp")
            .holds(false);
        let path = std::env::temp_dir().join("socflow_bench_broken_ordering.json");
        std::fs::remove_file(&path).ok();
        let gated = || gate(&p.rows).map(|()| serde_json::Value::Null);
        let err = write_json(path.to_str().unwrap(), gated).unwrap_err();
        assert!(err.contains("fig12/VGG11/ring_hipress_2d_margin"), "{err}");
        assert!(!err.contains("fig13"), "{err}");
        assert!(!path.exists(), "no file for a failed gate");
    }

    /// The score of a hand-built row set: a range, a point band hit and
    /// missed, a one-sided bound and an unmeasured row, which are not
    /// scored; then one row leaving its band fails the ratchet.
    #[test]
    fn the_score_counts_rows_in_band_and_gates_the_ratchet() {
        let mut rows = Vec::new();
        push(&mut rows, "fig8/VGG11/speedup".into(), 3.0, "x").paper(2.0, 4.0);
        push(&mut rows, "fig4a/VGG11/cpu".into(), 29.1, "h").paper(29.1, 29.1);
        push(&mut rows, "fig4a/ResNet18/cpu".into(), 240.0, "h").paper(200.0, 200.0);
        push(&mut rows, "fig3/server/swing".into(), 1.0, "x").paper(10.0, None);
        push(&mut rows, "fig9/VGG11/energy".into(), None, "x").paper(1.0, 2.0);
        push(&mut rows, "tab3/average/loss".into(), -1.0, "pp").paper(-0.5, -0.5);
        let value = |rows: &[Row], id: &str| {
            let row = rows.iter().find(|r| r.id == id);
            row.unwrap_or_else(|| panic!("{id}")).measured
        };
        let scored = score(&rows, (2, 0.5));
        let ids: Vec<&str> = scored.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids.len(), 4 * 4, "fig8, fig4a, tab3 and all: {ids:?}");
        assert_eq!(value(&scored, "score/fig4a/in_band"), Some(1.0));
        assert_eq!(value(&scored, "score/fig4a/banded"), Some(2.0));
        assert_eq!(value(&scored, "score/fig4a/worst_rel_err"), Some(0.2));
        assert_eq!(value(&scored, "score/fig4a/median_rel_err"), Some(0.1));
        // the negative point band misses by its magnitude
        assert_eq!(value(&scored, "score/tab3/median_rel_err"), Some(1.0));
        assert_eq!(value(&scored, "score/all/in_band"), Some(2.0));
        assert_eq!(value(&scored, "score/all/banded"), Some(4.0));
        assert_eq!(value(&scored, "score/all/median_rel_err"), Some(0.1));
        assert_eq!(gate(&scored), Ok(()));

        rows[0].measured = Some(4.4);
        let scored = score(&rows, (2, 0.5));
        let worst = value(&scored, "score/fig8/worst_rel_err").unwrap();
        assert!((worst - 0.1).abs() < 1e-12, "{worst}");
        let err = gate(&scored).unwrap_err();
        assert!(err.contains("score/all/in_band"), "{err}");
        assert!(!err.contains("median"), "{err}");
    }

    /// VGG-11 is sync-bound, so its mixed and INT8 epochs cost the same and
    /// the timeline may land them one ULP apart either way.
    #[test]
    fn simulated_times_one_ulp_apart_tie() {
        let t = 43_210.987_654_321_f64;
        let above = f64::from_bits(t.to_bits() + 1);
        assert!(above > t);
        assert!(no_later(above, t) && no_later(t, above));
        assert!(no_later(t, t * 2.0));
        assert!(!no_later(t * (1.0 + 1e-6), t), "a real gap is not a tie");
    }

    #[test]
    fn eight_workloads_in_table3_order() {
        assert_eq!(WORKLOADS[0].name, "MobileNet");
        assert_eq!(WORKLOADS[0].batch, 256, "paper: MobileNet uses batch 256");
        assert!(WORKLOADS[1..].iter().all(|d| d.batch == 64));
        assert_eq!(WORKLOADS[7].name, TRANSFER);
        // full mode runs all eight, in the table's order, and either mode
        // names only rows of the table
        let names: Vec<&str> = WORKLOADS.iter().map(|d| d.name).collect();
        assert_eq!(FULL.workloads, names);
        for size in [&FULL, &FAST] {
            let named = [size.workloads, size.models, size.fig10.0].concat();
            assert!(named.iter().all(|n| names.contains(n)), "{named:?}");
        }
    }
}
