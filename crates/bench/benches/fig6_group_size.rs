//! Figure 6: converged accuracy and first-epoch accuracy vs logical-group
//! count (1, 2, 4, 8, 16, 32) for VGG-11 and ResNet-18.
//!
//! The paper's observation: first-epoch accuracy mirrors convergence
//! accuracy, and both collapse beyond a model-dependent group count — the
//! basis of the group-size heuristic (it picked 4 and 8 in the paper).

use socflow::config::{MethodSpec, SocFlowConfig};
use socflow::engine::{Engine, Workload};
use socflow::grouping::choose_group_count;
use socflow::options::RunOptions;
use socflow_bench::{build_spec, paper_workloads, print_table, samples};

fn main() {
    let defs = paper_workloads();
    let epochs = socflow_bench::epochs();
    for name in ["VGG11", "ResNet18"] {
        let def = defs.iter().find(|d| d.name == name).unwrap();
        let mut rows = Vec::new();
        let mut profile = Vec::new();
        for groups in [1usize, 2, 4, 8, 16, 32] {
            let spec = build_spec(
                def,
                MethodSpec::SocFlow(SocFlowConfig {
                    groups: Some(groups),
                    mixed_precision: false,
                    ..SocFlowConfig::full()
                }),
                32,
                epochs,
            );
            let workload =
                Workload::standard(&spec, samples(), socflow_bench::INPUT_SIZE, def.width);
            let engine = Engine::new(spec, workload.clone(), RunOptions::default());
            let first = engine.first_epoch_accuracy(groups);
            let run = Engine::new(spec, workload, RunOptions::default()).run();
            profile.push((groups, first));
            rows.push(vec![
                groups.to_string(),
                format!("{:.1}", run.best_accuracy() * 100.0),
                format!("{:.1}", first * 100.0),
            ]);
        }
        print_table(
            &format!("Figure 6: accuracy vs group count — {name}"),
            &["groups", "final acc %", "first-epoch acc %"],
            &rows,
        );
        // what would the heuristic choose from this profile?
        let mut iter = profile.iter();
        let choice = choose_group_count(32, 0.15, 0.5, |_| iter.next().map(|p| p.1).unwrap_or(0.0));
        println!(
            "heuristic choice for {name}: {} groups (paper picked 4/8)",
            choice.groups
        );
    }
}
