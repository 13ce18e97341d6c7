//! Edge-cloud model personalization — the paper's motivating scenario
//! (§1): an input-method / recommendation model is re-trained every night
//! on each region's edge cloud inside the SoC-Cluster's idle window and
//! dispatched to clients the next morning.
//!
//! ```sh
//! cargo run --release --example edge_personalization
//! ```
//!
//! The example (1) reads the day's tidal utilization trace, (2) finds the
//! longest window with enough simultaneously idle SoCs, (3) trains with
//! SoCFlow inside it, and (4) verifies the update ships before the morning
//! peak — comparing against RING, which blows through the window.

use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
use socflow::engine::{Engine, Workload};
use socflow::options::RunOptions;
use socflow::report::REFERENCE_CONVERGENCE_SCALE;
use socflow_cluster::tidal::TidalTrace;
use socflow_data::DatasetPreset;
use socflow_nn::models::ModelKind;

fn main() {
    // --- 1. find tonight's harvesting window -------------------------
    let trace = TidalTrace::generate(60, 7);
    let want_socs = 32;
    let (start, len) = trace.best_idle_window(want_socs);
    let idle = trace.idle_through(start, len);
    println!(
        "tonight's window: {start:02}:00 for {len} h with {} idle SoCs",
        idle.len()
    );

    // --- 2. define the nightly personalization job -------------------
    let cfg = SocFlowConfig {
        accuracy_streams: Some(4),
        ..SocFlowConfig::with_groups(8)
    };
    let mut spec = TrainJobSpec::new(
        ModelKind::LeNet5,
        DatasetPreset::Emnist, // keyboard-prediction-like task
        MethodSpec::SocFlow(cfg),
    );
    spec.socs = want_socs;
    spec.epochs = 12;
    spec.lr = 0.05;
    let workload = Workload::standard(&spec, 4096, 8, 0.5);

    // --- 3. train with SoCFlow and with RING -------------------------
    let ours = Engine::new(spec, workload.clone(), RunOptions::default()).run();
    let mut ring_spec = spec;
    ring_spec.method = MethodSpec::Ring;
    let ring = Engine::new(ring_spec, workload, RunOptions::default()).run();

    // --- 4. does the nightly update ship on time? --------------------
    let window_secs = len as f64 * 3600.0;
    let target = ours.best_accuracy().min(ring.best_accuracy()) * 0.95;
    println!("\nconvergence target: {:.1}% accuracy", target * 100.0);
    // scaled runs converge in few epochs; project to a reference-length
    // schedule for the absolute window claim (see DESIGN.md §6)
    for r in [&ours, &ring] {
        match r.time_to_accuracy(target) {
            Some(t) => {
                let projected = t * REFERENCE_CONVERGENCE_SCALE;
                let fits = projected <= window_secs;
                println!(
                    "{:>8}: converges in {:.2} h (projected) → {}",
                    r.method,
                    projected / 3600.0,
                    if fits {
                        "ships before the morning peak ✔"
                    } else {
                        "MISSES the window ✘"
                    }
                );
            }
            None => println!("{:>8}: did not reach the target tonight", r.method),
        }
    }
    println!(
        "\nenergy: SoCFlow {:.0} kJ vs RING {:.0} kJ ({:.1}x less)",
        ours.energy_joules / 1e3,
        ring.energy_joules / 1e3,
        ring.energy_joules / ours.energy_joules
    );
}
