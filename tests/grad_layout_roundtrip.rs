//! The flat-gradient layout contract across every bundled model: the
//! per-layer [`GradReady`] spans that wait-free bucketing reads must tile
//! the flat parameter vector exactly as `flat_weights` /
//! `set_flat_weights` lay it out — same offsets, same lengths, no gaps, no
//! overlap — and the contract must hold at any worker-pool size (the pool
//! partitions by problem shape, never by thread count).

use rand::{rngs::StdRng, SeedableRng};
use socflow_nn::models::{ModelConfig, ModelKind};
use socflow_tensor::runtime;

/// A config small enough to build every architecture in a test.
fn tiny_cfg(kind: ModelKind) -> ModelConfig {
    match kind {
        ModelKind::LeNet5 => ModelConfig::new(1, 16, 10, 0.5),
        ModelKind::ResNet50 => ModelConfig::new(3, 8, 10, 0.0625),
        _ => ModelConfig::new(3, 8, 10, 0.125),
    }
}

fn check_model(kind: ModelKind) {
    let cfg = tiny_cfg(kind);
    let mut rng = StdRng::seed_from_u64(7);
    let mut net = kind.build(cfg, &mut rng);
    let layout = net.grad_layout();
    assert_eq!(layout.len(), kind.layers(cfg).len(), "{kind}");

    // the layout table tiles [0, param_count) contiguously in layer order
    let mut expected_offset = 0;
    for g in &layout {
        assert_eq!(g.offset, expected_offset, "{kind}: layer {}", g.layer);
        expected_offset += g.len;
    }
    assert_eq!(expected_offset, net.param_count(), "{kind}");

    // round trip: stamp each layer's span of the flat vector with its
    // layer index, push it through `set_flat_weights`, and demand that every
    // parameter the walk visits carries one stamp, in layer order — any
    // offset slip would split a parameter between two layers' stamps
    let mut flat = net.flat_weights();
    assert_eq!(flat.len(), net.param_count(), "{kind}");
    for g in &layout {
        flat[g.offset..g.offset + g.len].fill(g.layer as f32 + 0.5);
    }
    net.set_flat_weights(&flat);
    assert_eq!(net.flat_weights(), flat, "{kind}");
    let mut stamps = Vec::new();
    net.for_each_parameter(|p| {
        let first = p.value.data()[0];
        let one_stamp = p.value.data().iter().all(|&v| v == first);
        assert!(one_stamp, "{kind}: a parameter straddles two spans");
        stamps.push(first);
    });
    let in_order = stamps.windows(2).all(|w| w[0] <= w[1]);
    assert!(in_order, "{kind}: spans out of layer order");
}

#[test]
fn grad_layout_round_trips_on_every_model_at_any_pool_size() {
    let before = runtime::threads();
    for threads in [1, 8] {
        runtime::set_threads(threads);
        for kind in ModelKind::ALL {
            check_model(kind);
        }
    }
    runtime::set_threads(before);
}
