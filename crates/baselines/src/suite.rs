//! Run one workload through SoCFlow and every baseline — the building
//! block of the end-to-end comparison experiments (Table 3, Figs. 8–10).

use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
use socflow::engine::{Engine, Workload};
use socflow::options::RunOptions;
use socflow::report::RunResult;

/// Scaled-workload knobs shared by a comparison run.
#[derive(Debug, Clone, Copy)]
pub struct SuiteScale {
    /// Scaled training-set size.
    pub samples: usize,
    /// Scaled input size (pixels).
    pub input_size: usize,
    /// Model width multiplier.
    pub width: f32,
}

impl Default for SuiteScale {
    fn default() -> Self {
        SuiteScale {
            samples: 1024,
            input_size: 8,
            width: 0.25,
        }
    }
}

/// The methods of the paper's end-to-end comparison, in legend order:
/// PS, RING, HiPress, 2D-Paral, FedAvg, T-FedAvg, Ours.
pub fn comparison_methods(groups: usize) -> Vec<MethodSpec> {
    vec![
        crate::parameter_server(),
        crate::ring(),
        crate::hipress(),
        crate::two_d_parallel(),
        crate::fedavg(),
        crate::t_fedavg(),
        MethodSpec::SocFlow(SocFlowConfig::with_groups(groups)),
    ]
}

/// Runs `base` (ignoring its method) under each given method on an
/// identical workload, returning results in method order.
pub fn run_methods(
    base: &TrainJobSpec,
    methods: &[MethodSpec],
    scale: SuiteScale,
) -> Vec<RunResult> {
    methods
        .iter()
        .map(|&method| {
            let mut spec = *base;
            spec.method = method;
            let workload = Workload::standard(&spec, scale.samples, scale.input_size, scale.width);
            Engine::new(spec, workload, RunOptions::default()).run()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use socflow_data::DatasetPreset;
    use socflow_nn::models::ModelKind;

    fn base() -> TrainJobSpec {
        let mut s = TrainJobSpec::new(
            ModelKind::LeNet5,
            DatasetPreset::FashionMnist,
            MethodSpec::Ring,
        );
        s.socs = 16;
        s.epochs = 3;
        s.global_batch = 32;
        s.lr = 0.05;
        s
    }

    fn small_scale() -> SuiteScale {
        SuiteScale {
            samples: 384,
            input_size: 8,
            width: 0.4,
        }
    }

    #[test]
    fn ours_fastest_of_all() {
        // NOTE: for latency-bound tiny models (LeNet), RING's 2(n−1)
        // latency steps can exceed PS's bandwidth cost — the paper's own
        // speedup ranges overlap the same way (RING up to 143.7× vs PS
        // down to 94.4×). The RING < PS ordering for bandwidth-bound
        // models is asserted in socflow::timemodel with VGG-11.
        let methods = vec![
            crate::parameter_server(),
            crate::ring(),
            MethodSpec::SocFlow(SocFlowConfig::with_groups(4)),
        ];
        let results = run_methods(&base(), &methods, small_scale());
        let t: Vec<f64> = results.iter().map(|r| r.total_time()).collect();
        assert!(t[2] < t[0] && t[2] < t[1], "ours must be fastest: {t:?}");
    }

    #[test]
    fn sync_baselines_share_one_accuracy_curve() {
        // PS, RING, HiPress and 2D are the same SGD stream (Table 3)
        let methods = vec![
            crate::parameter_server(),
            crate::ring(),
            crate::hipress(),
            crate::two_d_parallel(),
        ];
        let results = run_methods(&base(), &methods, small_scale());
        for r in &results[1..] {
            assert_eq!(r.epoch_accuracy, results[0].epoch_accuracy, "{}", r.method);
        }
    }

    #[test]
    fn ours_cheapest_energy() {
        let methods = vec![
            crate::ring(),
            MethodSpec::SocFlow(SocFlowConfig::with_groups(4)),
        ];
        let results = run_methods(&base(), &methods, small_scale());
        assert!(
            results[1].energy_joules < results[0].energy_joules,
            "ours {} vs ring {}",
            results[1].energy_joules,
            results[0].energy_joules
        );
    }
}
