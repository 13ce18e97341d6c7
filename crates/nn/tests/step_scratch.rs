//! The two promises the layers make about the step scratch
//! ([`socflow_tensor::pool`]) and about the input gradient nobody reads.
//!
//! **The unread gradient.** `Network::backward_parameters` does not ask the
//! first parameterised layer for its input gradient, and does not run the
//! parameterless layers in front of it at all. Whatever comes first —
//! convolution, linear, depthwise convolution, a residual block, a
//! `Flatten` that passes the bit on — every parameter gradient and every
//! state buffer must end up bit-identical to `Network::backward`'s, at
//! every precision.
//!
//! **A free-list, not a stack.** Buffers are borrowed per pass and owned
//! until given back, so passes may interleave on a thread: two networks'
//! forwards before either's backward, an evaluation forward between a
//! network's two passes, a second training forward with no backward in
//! between. Each sequence is run on fresh allocations
//! ([`pool::transient`]) and then twice on the scratch — whose parked
//! buffers this build poisons with NaN — and must observe the same bits.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use socflow_nn::layers::{
    BatchNorm2d, Conv2d, DepthwiseConv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, Relu, Residual,
};
use socflow_nn::models::{ModelConfig, ModelKind};
use socflow_nn::{Layer, Mode, Network, Precision};
use socflow_tensor::{init, pool, Tensor};

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every parameter gradient of `net`, in layer order.
fn grads(net: &Network) -> Vec<f32> {
    let mut out = Vec::new();
    net.for_each_parameter(|p| out.extend_from_slice(p.grad.data()));
    out
}

/// Networks by what comes first, each with the input shape (per sample) it
/// takes.
fn first_layer_cases(rng: &mut StdRng) -> Vec<(&'static str, Network, [usize; 3])> {
    let boxed = |layers: Vec<Box<dyn Layer>>| Network::new(layers);
    vec![
        (
            "conv",
            boxed(vec![
                Box::new(Conv2d::new(2, 3, 3, 1, 1, rng)),
                Box::new(BatchNorm2d::new(3)),
                Box::new(Relu::new()),
                Box::new(MaxPool2d::new(2)),
                Box::new(Flatten::new()),
                Box::new(Linear::new(12, 5, rng)),
            ]),
            [2, 4, 4],
        ),
        (
            "linear behind a flatten",
            boxed(vec![
                Box::new(Flatten::new()),
                Box::new(Linear::new(32, 6, rng)),
                Box::new(Relu::new()),
                Box::new(Linear::new(6, 5, rng)),
            ]),
            [2, 4, 4],
        ),
        (
            "depthwise",
            boxed(vec![
                Box::new(DepthwiseConv2d::new(2, 3, 1, 1, rng)),
                Box::new(Conv2d::new(2, 4, 1, 1, 0, rng)),
                Box::new(GlobalAvgPool::new()),
                Box::new(Linear::new(4, 5, rng)),
            ]),
            [2, 4, 4],
        ),
        (
            "residual block",
            boxed(vec![
                Box::new(Residual::projected(
                    vec![
                        Box::new(Relu::new()),
                        Box::new(Conv2d::new(2, 3, 3, 2, 1, rng)),
                        Box::new(BatchNorm2d::new(3)),
                    ],
                    vec![Box::new(Conv2d::new(2, 3, 1, 2, 0, rng))],
                )),
                Box::new(GlobalAvgPool::new()),
                Box::new(Linear::new(3, 5, rng)),
            ]),
            [2, 4, 4],
        ),
    ]
}

/// Two steps' worth of passes on two clones of `net` — one through
/// `backward`, one through `backward_parameters` — comparing everything a
/// step leaves behind.
fn assert_unread_gradient_changes_nothing(
    what: &str,
    net: &Network,
    x: &Tensor,
    precision: Precision,
) {
    let mode = Mode::train(precision);
    let (mut full, mut params_only) = (net.clone(), net.clone());
    for step in 0..2 {
        let y = full.forward(x, mode);
        let y2 = params_only.forward(x, mode);
        assert_eq!(bits(y.data()), bits(y2.data()), "{what}, step {step}: y");
        let g = y.map(|v| (v * 3.0).sin());
        let gx = full.backward(&g, mode);
        assert_eq!(gx.shape(), x.shape(), "{what}: input gradient shape");
        params_only.backward_parameters(&g, mode);
        assert_eq!(
            bits(&grads(&full)),
            bits(&grads(&params_only)),
            "{what}, step {step}: parameter gradients"
        );
        assert_eq!(
            bits(&full.flat_state()),
            bits(&params_only.flat_state()),
            "{what}, step {step}: state buffers"
        );
        for t in [y, y2, gx] {
            pool::recycle(t);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn the_input_gradient_nobody_reads_changes_no_parameter_gradient(
        seed in 0u64..1_000_000,
        batch in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (what, net, [c, h, w]) in first_layer_cases(&mut rng) {
            let x = init::normal([batch, c, h, w], 1.0, &mut rng);
            for precision in [Precision::Fp32, Precision::Int8] {
                let what = format!("{what} first, {precision:?}, batch {batch}, seed {seed}");
                assert_unread_gradient_changes_nothing(&what, &net, &x, precision);
            }
        }
    }
}

/// The same property on the bundled models, whose first layers are what
/// the engine's step actually skips.
#[test]
fn the_bundled_models_train_the_same_without_their_input_gradient() {
    let mut rng = StdRng::seed_from_u64(21);
    let cfg = ModelConfig::new(3, 8, 10, 0.1);
    let x = init::normal([3, 3, 8, 8], 1.0, &mut rng);
    for kind in ModelKind::ALL {
        let net = kind.build(cfg, &mut rng);
        for precision in [Precision::Fp32, Precision::Int8] {
            let what = format!("{kind:?}, {precision:?}");
            assert_unread_gradient_changes_nothing(&what, &net, &x, precision);
        }
    }
}

/// Runs `sequence` once on fresh allocations and twice on the step scratch;
/// all three must observe the same bits.
fn assert_same_on_the_scratch(what: &str, sequence: impl Fn() -> Vec<Vec<u32>>) {
    let fresh = pool::transient(&sequence);
    assert!(
        fresh.iter().all(|seen| !seen.is_empty()),
        "{what}: observed"
    );
    assert_eq!(sequence(), fresh, "{what}: first run on the scratch");
    assert_eq!(
        sequence(),
        fresh,
        "{what}: on the buffers the first run parked"
    );
}

/// Everything a pass leaves in `net`.
fn left_behind(net: &Network) -> Vec<u32> {
    let mut seen = bits(&grads(net));
    seen.extend(bits(&net.flat_state()));
    seen
}

#[test]
fn passes_interleave_on_one_thread() {
    let mut rng = StdRng::seed_from_u64(33);
    let cases = first_layer_cases(&mut rng);
    let (conv, mlp) = (&cases[0].1, &cases[1].1);
    let x = init::normal([4, 2, 4, 4], 1.0, &mut rng);
    let other = init::normal([7, 2, 4, 4], 1.0, &mut rng);

    for precision in [Precision::Fp32, Precision::Int8] {
        let (train, eval) = (Mode::train(precision), Mode::eval(precision));

        // forward A, forward B, backward A, backward B
        assert_same_on_the_scratch("two networks, passes interleaved", || {
            let (mut a, mut b) = (conv.clone(), mlp.clone());
            let ya = a.forward(&x, train);
            let yb = b.forward(&x, train);
            let ga = a.backward(&ya.scale(0.5), train);
            let gb = b.backward(&yb.scale(0.5), train);
            let seen = [ya, yb, ga, gb].map(|t| {
                let seen = bits(t.data());
                pool::recycle(t);
                seen
            });
            let mut seen = seen.to_vec();
            seen.extend([left_behind(&a), left_behind(&b)]);
            seen
        });

        // an evaluation forward, of another batch size, between the passes
        assert_same_on_the_scratch("an eval forward between the passes", || {
            let mut a = conv.clone();
            let y = a.forward(&x, train);
            let between = a.forward(&other, eval);
            let gx = a.backward(&y.scale(0.5), train);
            let after = a.forward(&other, eval);
            let seen = vec![
                bits(y.data()),
                bits(between.data()),
                bits(gx.data()),
                bits(after.data()),
                left_behind(&a),
            ];
            for t in [y, between, gx, after] {
                pool::recycle(t);
            }
            seen
        });

        // a second training forward with no backward in between
        assert_same_on_the_scratch("two training forwards, one backward", || {
            let (mut a, mut b) = (conv.clone(), mlp.clone());
            let dropped = [a.forward(&other, train), b.forward(&other, train)];
            let (ya, yb) = (a.forward(&x, train), b.forward(&x, train));
            a.backward_parameters(&ya.scale(0.5), train);
            let gb = b.backward(&yb.scale(0.5), train);
            let seen = vec![
                bits(ya.data()),
                bits(yb.data()),
                bits(gb.data()),
                left_behind(&a),
                left_behind(&b),
            ];
            for t in dropped.into_iter().chain([ya, yb, gb]) {
                pool::recycle(t);
            }
            seen
        });
    }
}
