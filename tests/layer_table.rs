//! Each architecture is one layer table ([`ModelKind::layers`]), and the
//! network built from it is what the table says.
//!
//! Whatever only counts or lays out a model — fleet admission, the tuner's
//! gradient layout — reads the table and builds nothing, so the table's
//! counts must be the built network's on every model, preset and width the
//! product trains. And building walks the table: the goldens train VGG-11,
//! ResNet-18 and LeNet-5, so a change in the order in which those three
//! draw their initial weights shows there; ResNet-50 and MobileNetV1 are
//! in no golden, so this file holds all five builds to the exact bits of
//! their initial weights at one seed and one geometry.

use rand::{rngs::StdRng, SeedableRng};
use socflow::config::{MethodSpec, SocFlowConfig, TrainJobSpec};
use socflow::engine::Workload;
use socflow_data::DatasetPreset;
use socflow_nn::models::{self, LayerSpec, ModelConfig, ModelKind};
use socflow_nn::Network;

/// FNV-1a over the bits of every initial weight, in flat order.
fn weight_hash(net: &Network) -> u64 {
    net.flat_weights()
        .iter()
        .flat_map(|w| w.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn every_builder_draws_its_weights_in_the_pinned_order() {
    let cfg = ModelConfig::new(3, 8, 10, 0.25);
    let builds: Vec<(String, Network)> = ModelKind::ALL
        .into_iter()
        .map(|kind| {
            (
                kind.to_string(),
                kind.build(cfg, &mut StdRng::seed_from_u64(7)),
            )
        })
        .collect();
    let got: Vec<(String, usize, u64)> = builds
        .iter()
        .map(|(name, net)| (name.clone(), net.param_count(), weight_hash(net)))
        .collect();
    let want = [
        ("LeNet-5", 1_507, 0x73e4_7fa9_fa7c_2d0c),
        ("VGG-11", 579_098, 0x3539_0bc0_6f4c_2ad1),
        ("ResNet-18", 701_466, 0x1f24_9788_d311_e9f8),
        ("ResNet-50", 1_484_186, 0x4503_07ef_8a57_d8e3),
        ("MobileNetV1", 278_018, 0x8efc_cb33_9c97_9640),
    ];
    let want: Vec<(String, usize, u64)> = want
        .iter()
        .map(|&(name, params, hash)| (name.to_string(), params, hash))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn the_table_counts_and_lays_out_the_network_built_from_it() {
    let method = MethodSpec::SocFlow(SocFlowConfig::full());
    for preset in DatasetPreset::ALL {
        for width in [0.125, 0.18, 0.22, 0.5] {
            let spec = TrainJobSpec::new(ModelKind::Vgg11, preset, method);
            let cfg = Workload::model_config(&spec, 8, width);
            for kind in ModelKind::ALL {
                let table = kind.layers(cfg);
                let net = models::instantiate(&table, &mut StdRng::seed_from_u64(0));
                let at = format!("{kind}, {preset}, width {width}");
                let params: usize = table.iter().map(LayerSpec::params).sum();
                assert_eq!(params, net.param_count(), "{at}");
                // one span per top-level layer: equal layouts are equal
                // layer counts too
                let layout = net.grad_layout();
                assert_eq!(table.len(), layout.len(), "{at}");
                assert_eq!(models::grad_layout(&table), layout, "{at}");
                // the geometry chains, and ends in one score per class
                for pair in table.windows(2) {
                    assert_eq!(pair[0].output, pair[1].input, "{at}");
                }
                let last = table.last().expect("a non-empty table");
                assert_eq!(last.output, [cfg.classes, 1, 1], "{at}");
            }
        }
    }
}
