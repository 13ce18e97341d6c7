//! The method comparison of the paper's evaluation (Table 3, Figs. 8–13):
//! one workload under SoCFlow and every baseline.
//!
//! Several methods are the *same* SGD stream at different prices — per-batch
//! all-reduce makes PS, RING, HiPress and 2D-Paral (and Local) one replica
//! stepping at the global batch, and T-FedAvg is FedAvg with a cheaper
//! aggregation — so a [`Comparison`] trains each distinct stream once and
//! prices the other methods of its class from that run.

use socflow::config::{MethodSpec, TrainJobSpec};
use socflow::engine::{Engine, Workload, MAX_FL_REPLICAS};
use socflow::options::RunOptions;
use socflow::report::RunResult;
use socflow::timemodel::{EpochCost, TimeModel};

/// The methods of the paper's end-to-end comparison, in legend order:
/// PS, RING, HiPress, 2D-Paral (pipeline groups of 4), FedAvg, T-FedAvg
/// (binary tree), then `ours`.
pub fn comparison_methods(ours: MethodSpec) -> [MethodSpec; 7] {
    [
        MethodSpec::ParameterServer,
        MethodSpec::Ring,
        MethodSpec::HiPress,
        MethodSpec::TwoDParallel,
        MethodSpec::FedAvg,
        MethodSpec::TFedAvg,
        ours,
    ]
}

/// What of a method and SoC count reaches the SGD stream of one job on one
/// workload: runs with equal keys train the same weights, epoch for epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stream {
    /// Local and the fully synchronous baselines: one replica at the global
    /// batch, whatever the SoC count.
    Single,
    /// FedAvg and T-FedAvg: this many clients on fixed shards.
    Federated { clients: usize },
    /// A SoCFlow variant: α steers the training and the price together, so
    /// the run is kept whole.
    SocFlow { method: MethodSpec, socs: usize },
}

impl Stream {
    fn of(method: MethodSpec, socs: usize) -> Self {
        match method {
            MethodSpec::Local
            | MethodSpec::ParameterServer
            | MethodSpec::Ring
            | MethodSpec::HiPress
            | MethodSpec::TwoDParallel => Stream::Single,
            MethodSpec::FedAvg | MethodSpec::TFedAvg => Stream::Federated {
                clients: socs.min(MAX_FL_REPLICAS),
            },
            MethodSpec::SocFlow(_) => Stream::SocFlow { method, socs },
        }
    }
}

/// `trained`'s accuracy curve under `method`'s name and per-epoch `cost`,
/// folded from the same [`EpochCost::completed`] events the engine folds —
/// the result is bit-equal to training `method` itself. (The fold reads
/// neither an epoch's group count nor its CPU share.)
fn repriced(trained: &RunResult, method: MethodSpec, cost: &EpochCost) -> RunResult {
    let mut result = RunResult {
        method: method.name().to_string(),
        ..RunResult::default()
    };
    let curve = trained.epoch_accuracy.iter().zip(&trained.alpha_trace);
    for (epoch, (&accuracy, &alpha)) in curve.enumerate() {
        result.absorb(&cost.completed(epoch, accuracy, 1, (alpha, 1.0)));
    }
    result
}

/// One job on one workload, run under any number of methods and SoC
/// counts. Every run goes through [`Comparison::run`], which trains only
/// when no earlier run had the same SGD stream.
pub struct Comparison {
    base: TrainJobSpec,
    workload: Workload,
    trained: Vec<(Stream, RunResult)>,
    requested: usize,
}

impl Comparison {
    /// A comparison of `base` (its method and SoC count are placeholders
    /// that every run replaces) on `workload`.
    pub fn new(base: TrainJobSpec, workload: Workload) -> Self {
        Comparison {
            base,
            workload,
            trained: Vec::new(),
            requested: 0,
        }
    }

    /// The job spec of one run.
    pub fn spec(&self, method: MethodSpec, socs: usize) -> TrainJobSpec {
        TrainJobSpec {
            method,
            socs,
            ..self.base
        }
    }

    /// The workload every run trains on.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The result of the job under `method` on `socs` SoCs.
    ///
    /// # Panics
    /// Panics like [`Engine::new`] if `method` asks for more logical
    /// groups than `socs`.
    pub fn run(&mut self, method: MethodSpec, socs: usize) -> RunResult {
        self.requested += 1;
        let spec = self.spec(method, socs);
        let stream = Stream::of(method, socs);
        let at = match self.trained.iter().position(|(s, _)| *s == stream) {
            Some(at) => at,
            None => {
                let run = Engine::new(spec, self.workload.clone(), RunOptions::default()).run();
                self.trained.push((stream, run));
                self.trained.len() - 1
            }
        };
        let trained = &self.trained[at].1;
        match TimeModel::new(&spec).baseline_epoch(method) {
            Some(cost) => repriced(trained, method, &cost),
            None => trained.clone(),
        }
    }

    /// [`Self::run`] for each of `methods` on `socs` SoCs, in order.
    pub fn run_all(&mut self, methods: &[MethodSpec], socs: usize) -> Vec<RunResult> {
        methods.iter().map(|&m| self.run(m, socs)).collect()
    }

    /// `(runs asked for, trainings executed)` so far.
    pub fn counts(&self) -> (usize, usize) {
        (self.requested, self.trained.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socflow::config::SocFlowConfig;
    use socflow_data::DatasetPreset;
    use socflow_nn::models::ModelKind;

    fn comparison() -> Comparison {
        let mut s = TrainJobSpec::new(
            ModelKind::LeNet5,
            DatasetPreset::FashionMnist,
            MethodSpec::Ring,
        );
        s.epochs = 3;
        s.global_batch = 32;
        s.lr = 0.05;
        let workload = Workload::standard(&s, 384, 8, 0.4);
        Comparison::new(s, workload)
    }

    fn ours(groups: usize) -> MethodSpec {
        MethodSpec::SocFlow(SocFlowConfig::with_groups(groups))
    }

    /// Every field, every float by its bits (α is NaN on the baselines, so
    /// `==` on the whole result would never hold).
    fn assert_bit_equal(a: &RunResult, b: &RunResult) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let bits32 = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.method, b.method);
        assert_eq!(
            bits32(&a.epoch_accuracy),
            bits32(&b.epoch_accuracy),
            "{}",
            a.method
        );
        assert_eq!(
            bits32(&a.alpha_trace),
            bits32(&b.alpha_trace),
            "{}",
            a.method
        );
        assert_eq!(bits(&a.epoch_time), bits(&b.epoch_time), "{}", a.method);
        let flat = |r: &RunResult| {
            let b = r.breakdown;
            bits(&[
                b.compute,
                b.sync,
                b.update,
                r.energy_joules,
                r.recovery_time,
            ])
        };
        assert_eq!(flat(a), flat(b), "{}", a.method);
    }

    #[test]
    fn ours_fastest_of_all() {
        // NOTE: for latency-bound tiny models (LeNet), RING's 2(n−1)
        // latency steps can exceed PS's bandwidth cost — the paper's own
        // speedup ranges overlap the same way (RING up to 143.7× vs PS
        // down to 94.4×). The RING < PS ordering for bandwidth-bound
        // models is asserted in socflow::timemodel with VGG-11.
        let methods = [MethodSpec::ParameterServer, MethodSpec::Ring, ours(4)];
        let results = comparison().run_all(&methods, 16);
        let t: Vec<f64> = results.iter().map(|r| r.total_time()).collect();
        assert!(t[2] < t[0] && t[2] < t[1], "ours must be fastest: {t:?}");
    }

    #[test]
    fn sync_baselines_share_one_accuracy_curve() {
        // PS, RING, HiPress and 2D are the same SGD stream (Table 3):
        // trained one by one, without the runner, they agree
        let c = comparison();
        let curves: Vec<Vec<f32>> = comparison_methods(ours(4))[..4]
            .iter()
            .map(|&m| {
                Engine::new(c.spec(m, 16), c.workload().clone(), RunOptions::default())
                    .run()
                    .epoch_accuracy
            })
            .collect();
        for curve in &curves[1..] {
            assert_eq!(*curve, curves[0]);
        }
    }

    #[test]
    fn ours_cheapest_energy() {
        let results = comparison().run_all(&[MethodSpec::Ring, ours(4)], 16);
        assert!(
            results[1].energy_joules < results[0].energy_joules,
            "ours {} vs ring {}",
            results[1].energy_joules,
            results[0].energy_joules
        );
    }

    #[test]
    fn a_repriced_or_cached_result_is_the_trained_one_bit_for_bit() {
        let mut c = comparison();
        let methods = comparison_methods(ours(2));
        // Local rides on the synchronous stream too (Table 3's reference)
        let all: Vec<(MethodSpec, usize)> = methods
            .iter()
            .flat_map(|&m| [(m, 8), (m, 16)])
            .chain([(MethodSpec::Local, 1)])
            .collect();
        for &(method, socs) in &all {
            let fresh = Engine::new(
                c.spec(method, socs),
                c.workload().clone(),
                RunOptions::default(),
            )
            .run();
            assert_bit_equal(&c.run(method, socs), &fresh);
            // and again, now certainly from the cache
            assert_bit_equal(&c.run(method, socs), &fresh);
        }
        // one synchronous stream, one federated (8 clients at either SoC
        // count), Ours once per SoC count
        assert_eq!(c.counts(), (2 * all.len(), 4));
    }
}
