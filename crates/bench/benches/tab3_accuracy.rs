//! Table 3: end-to-end convergence accuracy — 8 workloads × {Local, PS,
//! RING, 2D-Paral, HiPress, FedAvg, T-FedAvg, Ours}.
//!
//! Paper shape: the synchronous baselines match Local (avg −0.16 %); the
//! federated baselines degrade (avg −2.23 %); SoCFlow sits between
//! (avg −0.81 %) because its mixed-precision INT8 share costs a little
//! accuracy while delayed aggregation + shuffling costs almost none.

use socflow::config::MethodSpec;
use socflow::engine::Engine;
use socflow::options::RunOptions;
use socflow_bench::{
    build_spec, build_workload, epochs, paper_workloads, print_table, run_comparison,
};

fn main() {
    let socs = 32;
    let n_epochs = epochs();
    let mut rows = Vec::new();
    let mut sums = [0.0f32; 7];
    let mut counts = vec![0usize; 7];

    for def in paper_workloads() {
        // Local reference
        let local_spec = build_spec(&def, MethodSpec::Local, 1, n_epochs);
        let workload = build_workload(&local_spec, &def);
        let local = Engine::new(local_spec, workload, RunOptions::default()).run();
        let local_acc = local.best_accuracy() * 100.0;

        let runs = run_comparison(&def, socs, n_epochs, 8);
        let mut row = vec![def.name.to_string(), format!("{local_acc:.1}")];
        for (i, r) in runs.iter().enumerate() {
            let acc = r.result.best_accuracy() * 100.0;
            let degradation = acc - local_acc;
            row.push(format!("{acc:.1} ({degradation:+.1})"));
            sums[i] += degradation;
            counts[i] += 1;
        }
        rows.push(row);
    }
    let mut avg_row = vec!["Avg degradation".to_string(), String::new()];
    for (s, c) in sums.iter().zip(&counts) {
        avg_row.push(format!("{:+.2}", s / *c as f32));
    }
    rows.push(avg_row);

    print_table(
        "Table 3: convergence accuracy (%) and degradation vs Local",
        &[
            "workload", "Local", "PS", "RING", "HiPress", "2D-Paral", "FedAvg", "T-FedAvg", "Ours",
        ],
        &rows,
    );
    println!("\npaper averages: sync methods −0.16, FedAvg/T-FedAvg −2.23, Ours −0.81");
}
