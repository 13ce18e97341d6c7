//! Quickstart: train a DNN on a simulated SoC-Cluster with SoCFlow.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! This walks the whole public API surface once: define a job, build a
//! (synthetic) workload, let the global scheduler pick the topology, train,
//! and read the results.

use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
use socflow::engine::Workload;
use socflow::options::{Plan, RunOptions};
use socflow::scheduler::GlobalScheduler;
use socflow_data::DatasetPreset;
use socflow_nn::models::ModelKind;

fn main() {
    // 1. Describe the job: LeNet-5 on a Fashion-MNIST-like workload,
    //    16 SoCs, SoCFlow with automatic group-count selection.
    let mut spec = TrainJobSpec::new(
        ModelKind::LeNet5,
        DatasetPreset::FashionMnist,
        MethodSpec::SocFlow(SocFlowConfig::with_groups(4)),
    );
    spec.socs = 16;
    spec.epochs = 16;
    spec.global_batch = 64;
    spec.lr = 0.05;

    // 2. Build the scaled workload the accuracy simulation trains on
    //    (4096 samples, 8x8 inputs, half-width model).
    let workload = Workload::standard(&spec, 4096, 8, 0.5);

    // 3. The global scheduler profiles group counts during warm-up, maps
    //    logical groups onto PCBs and plans communication groups...
    let scheduler =
        GlobalScheduler::new(spec, workload.clone(), RunOptions::default(), Plan::Fixed);
    let plan = scheduler.plan_topology();
    println!("logical groups        : {}", plan.groups);
    // (pass `SocFlowConfig::full()` instead to let the warm-up heuristic
    // profile group counts and choose automatically)
    println!("conflict count C      : {}", plan.mapping.conflict_count());
    println!("communication groups  : {}", plan.cgs.len());

    // 4. ...and runs the job: real SGD for accuracy, calibrated cluster
    //    simulation for wall-clock time and energy at paper scale.
    let result = GlobalScheduler::new(spec, workload, RunOptions::default(), Plan::Fixed).run();
    println!("\nepoch  accuracy  α      sim-time");
    let mut t = 0.0;
    for (i, acc) in result.epoch_accuracy.iter().enumerate() {
        t += result.epoch_time[i];
        println!(
            "{:>5}  {:>7.1}%  {:>5.2}  {:>7.1} min",
            i + 1,
            acc * 100.0,
            result.alpha_trace[i],
            t / 60.0
        );
    }
    println!(
        "\nbest accuracy      : {:.1}%",
        result.best_accuracy() * 100.0
    );
    println!("simulated time     : {:.2} h", result.total_time() / 3600.0);
    println!("simulated energy   : {:.0} kJ", result.energy_joules / 1e3);
    println!(
        "breakdown          : compute {:.0}% / sync {:.0}% / update {:.0}%",
        result.breakdown.compute / result.breakdown.total() * 100.0,
        result.breakdown.sync / result.breakdown.total() * 100.0,
        result.breakdown.update / result.breakdown.total() * 100.0,
    );
}
