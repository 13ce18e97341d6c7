//! Figure 4: the motivation measurements.
//!
//! (a) End-to-end single-SoC training time (CPU-FP32 vs NPU-INT8) for
//!     VGG-11 and ResNet-18 on CIFAR-10 — paper: 29.1 h / ~10 h and
//!     233 h / 36 h at 200 epochs.
//! (b) Ring-AllReduce and parameter-server gradient-communication latency
//!     vs SoC count (4–32) — paper anchors: intra-PCB ring 540 / 699 ms,
//!     PS 2060 / 2700 ms; 32-SoC inter-PCB 2.31–9.81× slower.
//! (c) Convergence accuracy of FP32 vs INT8 training (32 SoCs) — paper:
//!     INT8 loses 5.94 % (VGG-11) and 8.25 % (ResNet-18).

use socflow::config::{MethodSpec, SocFlowConfig};
use socflow::engine::{Engine, Workload};
use socflow::options::RunOptions;
use socflow::timemodel::TimeModel;
use socflow_bench::{build_spec, hours, paper_workloads, print_table};
use socflow_cluster::{ClusterNet, ClusterSpec, Processor, SocId};
use socflow_collectives::{Collective, ParameterServer, RingAllReduce};
use socflow_nn::models::ModelKind;

const EPOCHS_TO_CONVERGE: f64 = 200.0;

fn fig4a() {
    let defs = paper_workloads();
    let mut rows = Vec::new();
    for name in ["VGG11", "ResNet18"] {
        let def = defs.iter().find(|d| d.name == name).unwrap();
        let spec = build_spec(def, MethodSpec::Local, 1, 1);
        let tm = TimeModel::new(&spec);
        let cpu = tm.local_epoch(Processor::SocCpuFp32).time * EPOCHS_TO_CONVERGE;
        let npu = tm.local_epoch(Processor::SocNpuInt8).time * EPOCHS_TO_CONVERGE;
        rows.push(vec![
            def.name.to_string(),
            format!("{:.1}", hours(cpu)),
            format!("{:.1}", hours(npu)),
        ]);
    }
    print_table(
        "Figure 4(a): single-SoC end-to-end training time (hours, 200 epochs)",
        &["model", "CPU-FP32", "NPU-INT8"],
        &rows,
    );
    println!("paper: VGG-11 29.1h CPU / ~10h NPU; ResNet-18 233h CPU / 36h NPU");
}

fn fig4b() {
    let net = ClusterNet::new(ClusterSpec::paper_server());
    let payloads = [
        ("V11", ModelKind::Vgg11.payload_bytes_fp32() as f64),
        ("R18", ModelKind::ResNet18.payload_bytes_fp32() as f64),
    ];
    let mut rows = Vec::new();
    for socs in [4usize, 8, 12, 16, 20, 24, 28, 32] {
        let members: Vec<SocId> = (0..socs).map(SocId).collect();
        let mut row = vec![socs.to_string()];
        for (_, payload) in payloads {
            let t = RingAllReduce.time(&net, &members, payload);
            row.push(format!("{:.0}", t * 1000.0));
        }
        for (_, payload) in payloads {
            let t = ParameterServer::default().time(&net, &members, payload);
            row.push(format!("{:.0}", t * 1000.0));
        }
        rows.push(row);
    }
    print_table(
        "Figure 4(b): gradient-communication latency (ms) vs SoC count",
        &["SoCs", "V11-ring", "R18-ring", "V11-PS", "R18-PS"],
        &rows,
    );
    println!("paper anchors: intra-PCB ring 540/699 ms, PS 2060/2700 ms;");
    println!("              32-SoC inter-PCB: 1248, 2225, 20593, 26505 ms");
}

fn fig4c() {
    let defs = paper_workloads();
    let mut rows = Vec::new();
    let epochs = socflow_bench::epochs();
    for name in ["VGG11", "ResNet18"] {
        let def = defs.iter().find(|d| d.name == name).unwrap();
        let fp_spec = build_spec(def, MethodSpec::Ring, 32, epochs);
        let workload = Workload::standard(&fp_spec, socflow_bench::samples(), 8, def.width);
        // FP32 reference: the pure synchronous FP32 stream (Ring)
        let fp_run = Engine::new(fp_spec, workload.clone(), RunOptions::default()).run();
        let int8_run = Engine::new(
            build_spec(
                def,
                MethodSpec::SocFlowInt8(SocFlowConfig::with_groups(8)),
                32,
                epochs,
            ),
            workload,
            RunOptions::default(),
        )
        .run();
        rows.push(vec![
            def.name.to_string(),
            format!("{:.1}", fp_run.best_accuracy() * 100.0),
            format!("{:.1}", int8_run.best_accuracy() * 100.0),
            format!(
                "{:.1}",
                (fp_run.best_accuracy() - int8_run.best_accuracy()) * 100.0
            ),
        ]);
    }
    print_table(
        "Figure 4(c): convergence accuracy (%), FP32 vs INT8 at 32 SoCs",
        &["model", "CPU-FP32", "NPU-INT8", "gap"],
        &rows,
    );
    println!("paper gaps: VGG-11 5.94 %, ResNet-18 8.25 %");
}

fn main() {
    fig4a();
    fig4b();
    fig4c();
}
