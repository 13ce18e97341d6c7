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
//!
//! **Gradients are step scratch.** A parameter holds no gradient between
//! steps: the first backward pass of a step adopts its gradient buffer, a
//! second adds onto it, and the optimizer hands it back. The gradients,
//! weights and momentum must be the bits the resident gradient gave — an
//! all-`+0.0` tensor from construction, each pass added into it, the step
//! reading it and zeroing it — signed zeros, infinities and NaN payloads
//! included.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use socflow_nn::layers::{
    BatchNorm2d, Conv2d, DepthwiseConv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, Relu, Residual,
};
use socflow_nn::models::{ModelConfig, ModelKind};
use socflow_nn::optim::Sgd;
use socflow_nn::{Layer, Mode, Network, Parameter, Precision};
use socflow_tensor::sweep::{self, SgdStep};
use socflow_tensor::{init, pool, quant, Tensor};

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every parameter gradient of `net`, in layer order.
fn grads(net: &Network) -> Vec<f32> {
    let mut out = Vec::new();
    net.for_each_parameter(|p| out.extend_from_slice(p.grad.as_ref().unwrap().data()));
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

/// A parameterised layer whose `k`-th backward pass hands its parameter
/// `given[k]`, through [`Parameter::accumulate_grad`] as every layer does,
/// with the pass count as the INT8 noise seed.
#[derive(Clone)]
struct Given {
    param: Parameter,
    given: Vec<Tensor>,
    passes: usize,
}

impl Layer for Given {
    fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
        pool::copy_of(input)
    }

    fn backward(&mut self, grad_out: &Tensor, mode: Mode, want_gx: bool) -> Option<Tensor> {
        let g = pool::copy_of(&self.given[self.passes]);
        self.passes += 1;
        self.param
            .accumulate_grad(g, mode.precision, self.passes as u64);
        want_gx.then(|| pool::copy_of(grad_out))
    }

    fn visit_parameters<'a>(&'a self, visit: &mut dyn FnMut(&'a Parameter)) {
        visit(&self.param);
    }

    fn visit_parameters_mut<'a>(&'a mut self, visit: &mut dyn FnMut(&'a mut Parameter)) {
        visit(&mut self.param);
    }

    fn describe(&self) -> String {
        "given".into()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// `len` values, about one in three of them special: signed zeros, a
/// subnormal, infinities when `infinite` — and NaNs of several payloads (a
/// signalling one among them) when `nan` says so for the index. Index 0 is
/// `−0.0`, the value whose sign the adoption's `+0.0 + g` decides.
fn sprinkled_values(
    len: usize,
    rng: &mut StdRng,
    infinite: bool,
    nan: impl Fn(usize) -> bool,
) -> Vec<f32> {
    use rand::Rng;
    let specials = [
        0.0,
        -0.0,
        f32::MIN_POSITIVE / 8.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    let specials = &specials[..if infinite { 5 } else { 3 }];
    let nans = [
        f32::NAN,
        f32::from_bits(0x7FC0_1234),
        f32::from_bits(0xFFC0_0042),
        f32::from_bits(0x7F80_0001),
    ];
    (0..len)
        .map(|i| match (i, rng.gen_range(0..6)) {
            (0, _) => -0.0,
            (_, 0) if nan(i) => nans[rng.gen_range(0..nans.len())],
            (_, 0 | 1) => specials[rng.gen_range(0..specials.len())],
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The adopted gradient against the resident one it replaced, over two
    /// steps of one or two backward passes each, at both precisions.
    #[test]
    fn an_adopted_gradient_steps_as_the_resident_one_did(
        seed in 0u64..1_000_000,
        len in 1usize..40,
        passes in 1usize..3,
        int8 in 0u8..2,
    ) {
        let precision = [Precision::Fp32, Precision::Int8][int8 as usize];
        let steps = 2;
        let mut rng = StdRng::seed_from_u64(seed);
        let w0 = sprinkled_values(len, &mut rng, true, |_| false);
        let v0 = sprinkled_values(len, &mut rng, true, |_| false);
        // a NaN in one pass's gradient per index: what NaN + NaN gives
        // depends on operand order, which is not part of the contract. And
        // no infinity at INT8: it would scale the noise to NaN everywhere
        let infinite = precision == Precision::Fp32;
        let given: Vec<Tensor> = (0..steps * passes)
            .map(|k| {
                let nan = |i| i % (steps * passes) == k;
                Tensor::from_vec(sprinkled_values(len, &mut rng, infinite, nan), [len])
            })
            .collect();
        let (lr, momentum, weight_decay) = (0.05, 0.9, 5e-4);

        let layer = Given {
            param: Parameter::new(Tensor::from_vec(w0.clone(), [len])),
            given: given.clone(),
            passes: 0,
        };
        let mut net = Network::new(vec![Box::new(layer)]);
        let mut opt = Sgd::new(lr, momentum, weight_decay);
        opt.ensure_velocity(&net);
        opt.set_flat_velocity(&v0);

        // the resident gradient: zero from construction, added into, read,
        // zeroed
        let h = SgdStep { lr, momentum, weight_decay };
        let (mut w, mut v, mut resident) = (w0, v0, Tensor::zeros([len]));
        let mode = Mode::train(precision);
        let what = format!("seed {seed}, length {len}, {passes} passes, {precision:?}");
        for (step, step_given) in given.chunks(passes).enumerate() {
            for (k, g) in step_given.iter().enumerate() {
                let pass = step * passes + k;
                match precision {
                    Precision::Fp32 => resident.add_inplace(g),
                    Precision::Int8 => {
                        let mut noisy = Tensor::zeros([len]);
                        quant::gradient_quant_noise_into(g, pass as u64 + 1, &mut noisy);
                        resident.add_inplace(&noisy);
                    }
                }
                let y = net.forward(&Tensor::zeros([1]), mode);
                net.backward_parameters(&y, mode);
                pool::recycle(y);
            }
            let adopted = net.parameters()[0].grad.as_ref().map(|g| bits(g.data()));
            prop_assert_eq!(adopted, Some(bits(resident.data())), "{}, step {}: gradient", what, step);
            sweep::sgd_momentum(&mut w, resident.data(), &mut v, h);
            resident.fill_zero();
            opt.step(&mut net);
            prop_assert!(net.parameters()[0].grad.is_none(), "{}: handed back", what);
            prop_assert_eq!(bits(&net.flat_weights()), bits(&w), "{}, step {}: weights", what, step);
            prop_assert_eq!(bits(&opt.flat_velocity()), bits(&v), "{}, step {}: momentum", what, step);
        }
    }
}
