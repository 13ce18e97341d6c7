//! Figure 13: ablation of SoCFlow's techniques on VGG-11 and ResNet-18.
//!
//! Five arms, each adding one technique (right-to-left in the paper's
//! bars): RING → +Group (group-wise parallelism with delayed aggregation,
//! naive sequential mapping, no planning) → +Mapping (integrity-greedy)
//! → +Plan (CG planning/overlap) → +Mixed (data-parallel mixed precision).
//!
//! Paper gains: Group 8–57 %, Mapping 1.05–1.10×, Plan 1.69–1.78×,
//! Mixed 3.53–5.78×.

use socflow::config::{MappingMode, MethodSpec, SocFlowConfig};
use socflow::engine::{Engine, Workload};
use socflow::options::RunOptions;
use socflow_bench::{build_spec, epochs, hours, paper_workloads, print_table, samples};

fn main() {
    let n_epochs = epochs();
    let defs = paper_workloads();
    for name in ["VGG11", "ResNet18"] {
        let def = defs.iter().find(|d| d.name == name).unwrap();
        let arms: Vec<(&str, MethodSpec)> = vec![
            ("RING", MethodSpec::Ring),
            (
                "+Group",
                MethodSpec::SocFlow(SocFlowConfig {
                    groups: Some(8),
                    mapping: MappingMode::Sequential,
                    planning: false,
                    mixed_precision: false,
                    accuracy_streams: Some(4),
                }),
            ),
            (
                "+Mapping",
                MethodSpec::SocFlow(SocFlowConfig {
                    groups: Some(8),
                    mapping: MappingMode::IntegrityGreedy,
                    planning: false,
                    mixed_precision: false,
                    accuracy_streams: Some(4),
                }),
            ),
            (
                "+Plan",
                MethodSpec::SocFlow(SocFlowConfig {
                    groups: Some(8),
                    mapping: MappingMode::IntegrityGreedy,
                    planning: true,
                    mixed_precision: false,
                    accuracy_streams: Some(4),
                }),
            ),
            (
                "+Mixed",
                MethodSpec::SocFlow(SocFlowConfig {
                    groups: Some(8),
                    mapping: MappingMode::IntegrityGreedy,
                    planning: true,
                    mixed_precision: true,
                    accuracy_streams: Some(4),
                }),
            ),
        ];
        let mut rows = Vec::new();
        let mut prev: Option<f64> = None;
        for (label, method) in arms {
            let spec = build_spec(def, method, 32, n_epochs);
            let workload =
                Workload::standard(&spec, samples(), socflow_bench::INPUT_SIZE, def.width);
            let r = Engine::new(spec, workload, RunOptions::default()).run();
            let t = r.total_time();
            let gain = prev.map(|p| format!("{:.2}x", p / t)).unwrap_or_default();
            prev = Some(t);
            rows.push(vec![
                label.to_string(),
                format!("{:.2}", hours(t)),
                gain,
                format!("{:.1}", r.best_accuracy() * 100.0),
            ]);
        }
        print_table(
            &format!("Figure 13: technique ablation — {name} ({n_epochs} epochs, 32 SoCs)"),
            &["arm", "time h", "gain vs prev", "acc %"],
            &rows,
        );
    }
    println!(
        "\npaper step gains: Group 8–57%, Mapping 1.05–1.10x, Plan 1.69–1.78x, Mixed 3.53–5.78x"
    );
}
