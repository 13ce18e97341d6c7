//! Harvesting free cycles under preemption (paper §3, Fig. 1): training
//! co-locates with user-triggered workloads, and when a burst of game
//! sessions arrives mid-training, SoCFlow surrenders one *logical group*
//! — checkpointing its replica and folding its weights into the survivors
//! — instead of stalling the whole job.
//!
//! ```sh
//! cargo run --release --example harvest_idle_cycles
//! ```

use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
use socflow::engine::{Engine, Workload};
use socflow::options::RunOptions;
use socflow_data::DatasetPreset;
use socflow_nn::models::ModelKind;

fn main() {
    let mut spec = TrainJobSpec::new(
        ModelKind::LeNet5,
        DatasetPreset::FashionMnist,
        MethodSpec::SocFlow(SocFlowConfig::with_groups(4)),
    );
    spec.socs = 16;
    spec.epochs = 12;
    spec.lr = 0.05;
    let workload = Workload::standard(&spec, 4096, 8, 0.5);

    // undisturbed run
    let calm = Engine::new(spec, workload.clone(), RunOptions::default()).run();
    // a user burst after epoch 3 — the one thing that differs between runs
    let burst = RunOptions {
        preempt_after: Some(3),
        ..RunOptions::default()
    };
    // SoCFlow gives up one logical group and continues
    let preempted = Engine::new(spec, workload.clone(), burst.clone()).run();
    // the same event under RING: the whole job checkpoints and stalls
    let mut ring_spec = spec;
    ring_spec.method = MethodSpec::Ring;
    let ring_preempted = Engine::new(ring_spec, workload, burst).run();

    println!("scenario: user burst preempts training after epoch 3\n");
    println!("{:<28} {:>10} {:>12}", "run", "best acc", "total time");
    for (label, r) in [
        ("SoCFlow, undisturbed", &calm),
        ("SoCFlow, group preempted", &preempted),
        ("RING, checkpoint + stall", &ring_preempted),
    ] {
        println!(
            "{:<28} {:>9.1}% {:>10.2} h",
            label,
            r.best_accuracy() * 100.0,
            r.total_time() / 3600.0
        );
    }

    let delta = (preempted.best_accuracy() - calm.best_accuracy()) * 100.0;
    println!(
        "\naccuracy delta after losing a group mid-training: {delta:+.1} pp \
         (within run-to-run noise: the evicted replica's weights were folded \
         into the survivors, so no training signal was lost)"
    );
}
