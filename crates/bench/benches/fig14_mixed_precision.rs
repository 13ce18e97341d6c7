//! Figure 14: ablation of the mixed-precision data-parallel training
//! algorithm — accuracy-vs-time curves over the first epochs for
//! Ours-FP32, Ours-Mixed (full α/β controller), Ours-Half (fixed α = 0.7)
//! and Ours-INT8, on VGG-11 and ResNet-18.
//!
//! Paper shape: Ours-Mixed reaches INT8-like speed early (most data on
//! the NPU while α is high) and FP32-like final accuracy (data shifts to
//! the CPU as α decays); Ours-Half is dominated on both axes.

use socflow::config::{MethodSpec, SocFlowConfig};
use socflow::engine::{Engine, Workload};
use socflow::options::RunOptions;
use socflow_bench::{build_spec, paper_workloads, print_table, samples};

fn main() {
    let n_epochs = 10; // the paper plots the first 10 epochs
    let defs = paper_workloads();
    for name in ["VGG11", "ResNet18"] {
        let def = defs.iter().find(|d| d.name == name).unwrap();
        let cfg = SocFlowConfig::with_groups(8);
        let fp32_cfg = SocFlowConfig {
            mixed_precision: false,
            ..cfg
        };
        let arms: Vec<(&str, MethodSpec)> = vec![
            ("Ours-FP32", MethodSpec::SocFlow(fp32_cfg)),
            ("Ours-Mixed", MethodSpec::SocFlow(cfg)),
            ("Ours-Half", MethodSpec::SocFlowHalf(cfg)),
            ("Ours-INT8", MethodSpec::SocFlowInt8(cfg)),
        ];
        let mut rows = Vec::new();
        for (label, method) in arms {
            let spec = build_spec(def, method, 32, n_epochs);
            let workload =
                Workload::standard(&spec, samples(), socflow_bench::INPUT_SIZE, def.width);
            let r = Engine::new(spec, workload, RunOptions::default()).run();
            // cumulative (time h, accuracy %) pairs per epoch
            let mut t = 0.0;
            let curve: Vec<String> = r
                .epoch_accuracy
                .iter()
                .zip(&r.epoch_time)
                .map(|(a, dt)| {
                    t += dt;
                    format!("({:.2}h {:.0}%)", t / 3600.0, a * 100.0)
                })
                .collect();
            rows.push(vec![label.to_string(), curve.join(" ")]);
        }
        print_table(
            &format!("Figure 14: accuracy-vs-time curves, first {n_epochs} epochs — {name}"),
            &["arm", "curve"],
            &rows,
        );
    }
    println!("\npaper: Ours-Mixed ≈ Ours-INT8 in speed and ≈ Ours-FP32 in final accuracy;");
    println!("       Ours-Half is slower than INT8 and less accurate than FP32.");
}
