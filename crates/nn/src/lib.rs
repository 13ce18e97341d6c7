//! # socflow-nn
//!
//! Neural-network layers, models, losses and optimizers for the SoCFlow
//! reproduction. Built entirely on [`socflow_tensor`]; no autograd tape —
//! every layer implements an explicit forward/backward pair, which keeps the
//! execution model transparent for the distributed-training engine that
//! coordinates many model replicas.
//!
//! Highlights:
//!
//! - [`Layer`]: the forward/backward/parameters contract; layers cache what
//!   their backward needs — in buffers borrowed from the calling thread's
//!   step scratch ([`socflow_tensor::pool`]) and handed back by the end of
//!   `backward`, which is told whether its input gradient is wanted.
//! - [`Network`]: an owned stack of layers with flat parameter/gradient
//!   views, the unit that SoC workers replicate and synchronize.
//! - [`GradReady`] / [`Network::grad_layout`] /
//!   [`Network::backward_with_ready`]: the flat-gradient layout table and
//!   the per-layer readiness stream backprop emits in reverse layer order,
//!   plus [`bucketize`] to coalesce layers into [`GradBucket`] transfer
//!   units — the hooks wait-free communication overlap builds on.
//! - [`Precision`]: FP32 (mobile CPU path) or INT8 quantization-aware
//!   training (mobile NPU path, NiTi-style): weights and activations are
//!   fake-quantized in the forward pass and gradients receive bounded
//!   quantization noise in the backward pass, so INT8 runs genuinely lose
//!   accuracy the way NPU training does.
//! - [`models`]: LeNet-5, VGG-11, ResNet-18/50 and MobileNetV1 builders with
//!   a width multiplier, plus the *reference* (full-size) parameter counts
//!   used by the cluster simulator for communication volume.
//! - [`loss`]: softmax cross-entropy with logits.
//! - [`optim::Sgd`]: SGD with momentum and weight decay.
//!
//! ## Example: two SGD steps on a tiny MLP
//!
//! ```
//! use socflow_nn::{models, loss, optim::Sgd, Mode, Precision};
//! use socflow_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = models::mlp(&[4, 16, 3], &mut rng);
//! let mut opt = Sgd::new(0.1, 0.9, 0.0);
//! let x = Tensor::ones([2, 4]);
//! let y = vec![0usize, 2];
//! for _ in 0..2 {
//!     let logits = net.forward(&x, Mode::train(Precision::Fp32));
//!     let (l, grad) = loss::softmax_cross_entropy(&logits, &y);
//!     assert!(l.is_finite());
//!     net.backward(&grad, Mode::train(Precision::Fp32));
//!     opt.step(&mut net);
//!     net.zero_grad();
//! }
//! ```

pub mod attention;
mod layer;
pub mod layers;
pub mod loss;
pub mod memory;
pub mod metrics;
pub mod models;
mod network;
pub mod optim;
pub mod schedule;

pub use layer::{Layer, Mode, Parameter, Precision};
pub use network::{bucketize, GradBucket, GradReady, Network};
