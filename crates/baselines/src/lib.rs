//! # socflow-baselines
//!
//! The six baselines of the paper's evaluation (§4.1), all running through
//! the same [`socflow`] engine so comparisons are apples-to-apples:
//!
//! | Baseline | Category | Topology |
//! |---|---|---|
//! | PS | distributed ML | centralized FP32 parameter server |
//! | RING | distributed ML | Horovod-style Ring-AllReduce |
//! | HiPress | distributed ML | ring + DGC top-k gradient compression |
//! | 2D-Paral | distributed ML | intra-group pipeline + inter-group ring |
//! | FedAvg | federated | per-epoch control-board averaging |
//! | T-FedAvg | federated | tree-aggregation hierarchical FedAvg |
//!
//! HiPress's DGC compression is priced on the wire by the time model
//! (`calibration::DGC_WIRE_FRACTION`); its SGD stream is RING's. [`suite`]
//! names the six as [`socflow::config::MethodSpec`] values and runs a
//! workload through them and SoCFlow, training each distinct SGD stream
//! once.

pub mod suite;

#[cfg(test)]
mod tests {
    use crate::suite::{comparison_methods, Comparison};
    use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
    use socflow::engine::Workload;
    use socflow_data::DatasetPreset;
    use socflow_nn::models::ModelKind;

    #[test]
    fn comparison_produces_seven_methods() {
        let mut spec = TrainJobSpec::new(
            ModelKind::LeNet5,
            DatasetPreset::FashionMnist,
            MethodSpec::Ring,
        );
        spec.epochs = 2;
        let workload = Workload::standard(&spec, 256, 8, 0.5);
        let methods = comparison_methods(MethodSpec::SocFlow(SocFlowConfig::with_groups(4)));
        let mut comparison = Comparison::new(spec, workload);
        let runs = comparison.run_all(&methods, 8);
        let names: Vec<&str> = runs.iter().map(|r| r.method.as_str()).collect();
        assert_eq!(
            names,
            vec!["PS", "RING", "HiPress", "2D-Paral", "FedAvg", "T-FedAvg", "Ours"]
        );
        // sync methods share RING's accuracy
        assert_eq!(runs[0].epoch_accuracy, runs[1].epoch_accuracy);
        assert_eq!(runs[2].epoch_accuracy, runs[1].epoch_accuracy);
        // but not its timing
        assert_ne!(runs[0].total_time(), runs[1].total_time());
        // three SGD streams behind the seven
        assert_eq!(comparison.counts(), (7, 3));
    }

    #[test]
    fn six_baselines() {
        let all = comparison_methods(MethodSpec::SocFlow(SocFlowConfig::full()));
        let names: Vec<&str> = all[..6].iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec!["PS", "RING", "HiPress", "2D-Paral", "FedAvg", "T-FedAvg"]
        );
        assert!(all[..6].iter().all(|m| m.socflow().is_none()));
    }
}
