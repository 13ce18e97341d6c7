//! The model zoo of the paper (Table 2): LeNet-5, VGG-11, ResNet-18/50 and
//! MobileNetV1, plus a plain MLP for tests.
//!
//! Every builder takes a [`ModelConfig`] whose `width` multiplier scales all
//! channel counts. The experiment harnesses train width-scaled models on
//! small synthetic datasets (so real SGD runs in seconds on a laptop CPU)
//! while the cluster simulator charges communication and compute using the
//! *reference* full-size statistics from [`ModelKind::reference_params`] and
//! [`ModelKind::reference_flops`].

use crate::layers::{
    BatchNorm2d, Conv2d, DepthwiseConv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, Relu, Residual,
};
use crate::{Layer, Network};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Input geometry and scaling of a model instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Input channels (1 for grayscale, 3 for RGB).
    pub in_channels: usize,
    /// Input spatial size (square images).
    pub input_size: usize,
    /// Number of output classes.
    pub classes: usize,
    /// Channel width multiplier in `(0, 1]`; 1.0 is the reference size.
    pub width: f32,
}

impl ModelConfig {
    /// A config for `classes`-way classification of `size×size` images.
    pub fn new(in_channels: usize, input_size: usize, classes: usize, width: f32) -> Self {
        assert!(width > 0.0 && width <= 1.0, "width must be in (0,1]");
        assert!(input_size >= 4, "input must be at least 4x4");
        ModelConfig {
            in_channels,
            input_size,
            classes,
            width,
        }
    }

    fn ch(&self, base: usize) -> usize {
        ((base as f32 * self.width).round() as usize).max(2)
    }
}

/// The five reference architectures of the paper's evaluation (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// LeNet-5 (EMNIST / Fashion-MNIST workloads).
    LeNet5,
    /// VGG-11 (CIFAR-10 / CelebA workloads).
    Vgg11,
    /// ResNet-18 (CIFAR-10 / CelebA workloads).
    ResNet18,
    /// ResNet-50 (CINIC-10 → CIFAR-10 transfer-learning workload).
    ResNet50,
    /// MobileNetV1 (CIFAR-10 workload).
    MobileNetV1,
}

impl ModelKind {
    /// All model kinds, in the paper's Table 2 order.
    pub const ALL: [ModelKind; 5] = [
        ModelKind::LeNet5,
        ModelKind::Vgg11,
        ModelKind::ResNet18,
        ModelKind::ResNet50,
        ModelKind::MobileNetV1,
    ];

    /// Reference (width = 1.0, paper-scale) learnable parameter count, used
    /// for communication volume: gradients/weights are 4 B/param in FP32.
    pub fn reference_params(self) -> usize {
        match self {
            ModelKind::LeNet5 => 61_706,
            ModelKind::Vgg11 => 9_231_114,
            ModelKind::ResNet18 => 11_173_962,
            ModelKind::ResNet50 => 23_520_842,
            ModelKind::MobileNetV1 => 3_217_226,
        }
    }

    /// Reference forward-pass FLOPs per sample at the paper's input sizes
    /// (CIFAR-scale 32×32 for the CNNs, 28×28 for LeNet). Training cost is
    /// conventionally 3× forward.
    pub fn reference_flops(self) -> u64 {
        match self {
            ModelKind::LeNet5 => 850_000,
            ModelKind::Vgg11 => 153_000_000,
            ModelKind::ResNet18 => 557_000_000,
            ModelKind::ResNet50 => 1_310_000_000,
            ModelKind::MobileNetV1 => 47_000_000,
        }
    }

    /// Gradient/weight payload in bytes for FP32 synchronization.
    pub fn payload_bytes_fp32(self) -> u64 {
        self.reference_params() as u64 * 4
    }

    /// Builds an instance of this architecture.
    pub fn build(self, cfg: ModelConfig, rng: &mut impl Rng) -> Network {
        match self {
            ModelKind::LeNet5 => lenet5(cfg, rng),
            ModelKind::Vgg11 => vgg11(cfg, rng),
            ModelKind::ResNet18 => resnet18(cfg, rng),
            ModelKind::ResNet50 => resnet50(cfg, rng),
            ModelKind::MobileNetV1 => mobilenet_v1(cfg, rng),
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ModelKind::LeNet5 => "LeNet-5",
            ModelKind::Vgg11 => "VGG-11",
            ModelKind::ResNet18 => "ResNet-18",
            ModelKind::ResNet50 => "ResNet-50",
            ModelKind::MobileNetV1 => "MobileNetV1",
        };
        f.write_str(s)
    }
}

/// A plain multi-layer perceptron: `dims = [in, hidden…, out]`.
///
/// # Panics
/// Panics if fewer than two dims are given.
pub fn mlp(dims: &[usize], rng: &mut impl Rng) -> Network {
    assert!(dims.len() >= 2, "mlp needs at least [in, out]");
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    for i in 0..dims.len() - 1 {
        layers.push(Box::new(Linear::new(dims[i], dims[i + 1], rng)));
        if i + 2 < dims.len() {
            layers.push(Box::new(Relu::new()));
        }
    }
    Network::new(layers)
}

/// LeNet-5: two conv+pool stages and a three-layer classifier.
pub fn lenet5(cfg: ModelConfig, rng: &mut impl Rng) -> Network {
    let c1 = cfg.ch(6);
    let c2 = cfg.ch(16);
    let mut size = cfg.input_size;
    let mut layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(cfg.in_channels, c1, 3, 1, 1, rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new(2)),
    ];
    size /= 2;
    layers.push(Box::new(Conv2d::new(c1, c2, 3, 1, 1, rng)));
    layers.push(Box::new(Relu::new()));
    layers.push(Box::new(MaxPool2d::new(2)));
    size /= 2;
    let feat = c2 * size * size;
    let h1 = cfg.ch(120);
    let h2 = cfg.ch(84);
    layers.push(Box::new(Flatten::new()));
    layers.push(Box::new(Linear::new(feat, h1, rng)));
    layers.push(Box::new(Relu::new()));
    layers.push(Box::new(Linear::new(h1, h2, rng)));
    layers.push(Box::new(Relu::new()));
    layers.push(Box::new(Linear::new(h2, cfg.classes, rng)));
    Network::new(layers)
}

/// VGG-11 (configuration A), CIFAR-style: eight conv layers with batch norm
/// and a single linear classifier. Max-pools are skipped once the spatial
/// size reaches 1 so the architecture stays valid for small inputs.
pub fn vgg11(cfg: ModelConfig, rng: &mut impl Rng) -> Network {
    let plan: [(usize, bool); 8] = [
        (64, true),
        (128, true),
        (256, false),
        (256, true),
        (512, false),
        (512, true),
        (512, false),
        (512, true),
    ];
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let mut in_c = cfg.in_channels;
    let mut size = cfg.input_size;
    for (base, pool) in plan {
        let out_c = cfg.ch(base);
        layers.push(Box::new(Conv2d::new(in_c, out_c, 3, 1, 1, rng)));
        layers.push(Box::new(BatchNorm2d::new(out_c)));
        layers.push(Box::new(Relu::new()));
        if pool && size >= 2 {
            layers.push(Box::new(MaxPool2d::new(2)));
            size /= 2;
        }
        in_c = out_c;
    }
    layers.push(Box::new(GlobalAvgPool::new()));
    layers.push(Box::new(Linear::new(in_c, cfg.classes, rng)));
    Network::new(layers)
}

fn basic_block(in_c: usize, out_c: usize, stride: usize, rng: &mut impl Rng) -> Residual {
    let body: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(in_c, out_c, 3, stride, 1, rng)),
        Box::new(BatchNorm2d::new(out_c)),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(out_c, out_c, 3, 1, 1, rng)),
        Box::new(BatchNorm2d::new(out_c)),
    ];
    if stride != 1 || in_c != out_c {
        let shortcut: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(in_c, out_c, 1, stride, 0, rng)),
            Box::new(BatchNorm2d::new(out_c)),
        ];
        Residual::projected(body, shortcut)
    } else {
        Residual::identity(body)
    }
}

fn bottleneck_block(
    in_c: usize,
    mid_c: usize,
    out_c: usize,
    stride: usize,
    rng: &mut impl Rng,
) -> Residual {
    let body: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(in_c, mid_c, 1, 1, 0, rng)),
        Box::new(BatchNorm2d::new(mid_c)),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(mid_c, mid_c, 3, stride, 1, rng)),
        Box::new(BatchNorm2d::new(mid_c)),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(mid_c, out_c, 1, 1, 0, rng)),
        Box::new(BatchNorm2d::new(out_c)),
    ];
    if stride != 1 || in_c != out_c {
        let shortcut: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(in_c, out_c, 1, stride, 0, rng)),
            Box::new(BatchNorm2d::new(out_c)),
        ];
        Residual::projected(body, shortcut)
    } else {
        Residual::identity(body)
    }
}

/// ResNet-18 (CIFAR variant): stem conv then four stages of two basic
/// blocks, channels 64/128/256/512 × width. Stage downsampling is skipped
/// once the spatial size reaches 1.
pub fn resnet18(cfg: ModelConfig, rng: &mut impl Rng) -> Network {
    let stem = cfg.ch(64);
    let mut layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(cfg.in_channels, stem, 3, 1, 1, rng)),
        Box::new(BatchNorm2d::new(stem)),
        Box::new(Relu::new()),
    ];
    let mut in_c = stem;
    let mut size = cfg.input_size;
    for (i, base) in [64usize, 128, 256, 512].into_iter().enumerate() {
        let out_c = cfg.ch(base);
        let stride = if i > 0 && size >= 2 { 2 } else { 1 };
        size /= stride;
        layers.push(Box::new(basic_block(in_c, out_c, stride, rng)));
        layers.push(Box::new(Relu::new()));
        layers.push(Box::new(basic_block(out_c, out_c, 1, rng)));
        layers.push(Box::new(Relu::new()));
        in_c = out_c;
    }
    layers.push(Box::new(GlobalAvgPool::new()));
    layers.push(Box::new(Linear::new(in_c, cfg.classes, rng)));
    Network::new(layers)
}

/// ResNet-50 (CIFAR variant): stem conv then four stages of bottleneck
/// blocks (3/4/6/3), expansion 4.
pub fn resnet50(cfg: ModelConfig, rng: &mut impl Rng) -> Network {
    let stem = cfg.ch(64);
    let mut layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(cfg.in_channels, stem, 3, 1, 1, rng)),
        Box::new(BatchNorm2d::new(stem)),
        Box::new(Relu::new()),
    ];
    let mut in_c = stem;
    let mut size = cfg.input_size;
    let stages: [(usize, usize); 4] = [(64, 3), (128, 4), (256, 6), (512, 3)];
    for (i, (base, blocks)) in stages.into_iter().enumerate() {
        let mid_c = cfg.ch(base);
        let out_c = cfg.ch(base * 4);
        for b in 0..blocks {
            let stride = if b == 0 && i > 0 && size >= 2 { 2 } else { 1 };
            size /= stride;
            layers.push(Box::new(bottleneck_block(in_c, mid_c, out_c, stride, rng)));
            layers.push(Box::new(Relu::new()));
            in_c = out_c;
        }
    }
    layers.push(Box::new(GlobalAvgPool::new()));
    layers.push(Box::new(Linear::new(in_c, cfg.classes, rng)));
    Network::new(layers)
}

/// MobileNetV1-style network. The depthwise-separable pairs are modelled as
/// a 3×3 conv at reduced width followed by a 1×1 pointwise conv — the same
/// FLOP structure without grouped-convolution kernels (the reference FLOP
/// and parameter statistics used by the simulator are the true MobileNetV1
/// numbers).
pub fn mobilenet_v1(cfg: ModelConfig, rng: &mut impl Rng) -> Network {
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let stem = cfg.ch(32);
    layers.push(Box::new(Conv2d::new(cfg.in_channels, stem, 3, 1, 1, rng)));
    layers.push(Box::new(BatchNorm2d::new(stem)));
    layers.push(Box::new(Relu::new()));
    let mut in_c = stem;
    let mut size = cfg.input_size;
    // (out_channels, stride) pairs of the MobileNetV1 body (CIFAR-scale).
    let plan: [(usize, usize); 7] = [
        (64, 1),
        (128, 2),
        (128, 1),
        (256, 2),
        (256, 1),
        (512, 2),
        (512, 1),
    ];
    for (base, want_stride) in plan {
        let out_c = cfg.ch(base);
        let stride = if want_stride == 2 && size >= 2 { 2 } else { 1 };
        size /= stride;
        // "depthwise": 3x3 at input width
        layers.push(Box::new(Conv2d::new(in_c, in_c, 3, stride, 1, rng)));
        layers.push(Box::new(BatchNorm2d::new(in_c)));
        layers.push(Box::new(Relu::new()));
        // pointwise 1x1 expansion
        layers.push(Box::new(Conv2d::new(in_c, out_c, 1, 1, 0, rng)));
        layers.push(Box::new(BatchNorm2d::new(out_c)));
        layers.push(Box::new(Relu::new()));
        in_c = out_c;
    }
    layers.push(Box::new(GlobalAvgPool::new()));
    layers.push(Box::new(Linear::new(in_c, cfg.classes, rng)));
    Network::new(layers)
}

/// MobileNetV1 with *true* depthwise-separable convolutions
/// ([`DepthwiseConv2d`] + 1×1 pointwise), the faithful structure; the
/// default [`mobilenet_v1`] substitutes dense 3×3 convs for kernel speed.
pub fn mobilenet_v1_depthwise(cfg: ModelConfig, rng: &mut impl Rng) -> Network {
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let stem = cfg.ch(32);
    layers.push(Box::new(Conv2d::new(cfg.in_channels, stem, 3, 1, 1, rng)));
    layers.push(Box::new(BatchNorm2d::new(stem)));
    layers.push(Box::new(Relu::new()));
    let mut in_c = stem;
    let mut size = cfg.input_size;
    // the full 13-block MobileNetV1 schedule
    let plan: [(usize, usize); 13] = [
        (64, 1),
        (128, 2),
        (128, 1),
        (256, 2),
        (256, 1),
        (512, 2),
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (512, 1),
        (1024, 2),
        (1024, 1),
    ];
    for (base, want_stride) in plan {
        let out_c = cfg.ch(base);
        let stride = if want_stride == 2 && size >= 2 { 2 } else { 1 };
        size /= stride;
        layers.push(Box::new(DepthwiseConv2d::new(in_c, 3, stride, 1, rng)));
        layers.push(Box::new(BatchNorm2d::new(in_c)));
        layers.push(Box::new(Relu::new()));
        layers.push(Box::new(Conv2d::new(in_c, out_c, 1, 1, 0, rng)));
        layers.push(Box::new(BatchNorm2d::new(out_c)));
        layers.push(Box::new(Relu::new()));
        in_c = out_c;
    }
    layers.push(Box::new(GlobalAvgPool::new()));
    layers.push(Box::new(Linear::new(in_c, cfg.classes, rng)));
    Network::new(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mode, Precision};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use socflow_tensor::Tensor;

    fn smoke(kind: ModelKind, cfg: ModelConfig) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = kind.build(cfg, &mut rng);
        let x = Tensor::ones([2, cfg.in_channels, cfg.input_size, cfg.input_size]);
        let mode = Mode::train(Precision::Fp32);
        let y = net.forward(&x, mode);
        assert_eq!(y.shape().dims(), &[2, cfg.classes], "{kind}");
        assert!(y.data().iter().all(|v| v.is_finite()), "{kind}");
        let g = Tensor::ones(y.shape().clone());
        net.backward(&g, mode);
        assert!(
            net.flat_grads().iter().any(|v| *v != 0.0),
            "{kind}: no gradient reached parameters"
        );
    }

    #[test]
    fn lenet5_smoke() {
        smoke(ModelKind::LeNet5, ModelConfig::new(1, 16, 10, 0.5));
    }

    #[test]
    fn vgg11_smoke() {
        smoke(ModelKind::Vgg11, ModelConfig::new(3, 8, 10, 0.125));
    }

    #[test]
    fn resnet18_smoke() {
        smoke(ModelKind::ResNet18, ModelConfig::new(3, 8, 10, 0.125));
    }

    #[test]
    fn resnet50_smoke() {
        smoke(ModelKind::ResNet50, ModelConfig::new(3, 8, 10, 0.0625));
    }

    #[test]
    fn mobilenet_smoke() {
        smoke(ModelKind::MobileNetV1, ModelConfig::new(3, 8, 10, 0.125));
    }

    #[test]
    fn mlp_smoke() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = mlp(&[8, 16, 4], &mut rng);
        let y = net.forward(&Tensor::ones([3, 8]), Mode::eval(Precision::Fp32));
        assert_eq!(y.shape().dims(), &[3, 4]);
    }

    #[test]
    fn width_scales_param_count() {
        let mut rng = StdRng::seed_from_u64(2);
        let small = vgg11(ModelConfig::new(3, 8, 10, 0.125), &mut rng).param_count();
        let big = vgg11(ModelConfig::new(3, 8, 10, 0.25), &mut rng).param_count();
        assert!(big > small * 3, "doubling width should ~4x conv params");
    }

    #[test]
    fn reference_stats_ordering() {
        // ResNet-50 > ResNet-18 > VGG-11 > MobileNet > LeNet in params
        let p: Vec<usize> = [
            ModelKind::ResNet50,
            ModelKind::ResNet18,
            ModelKind::Vgg11,
            ModelKind::MobileNetV1,
            ModelKind::LeNet5,
        ]
        .iter()
        .map(|k| k.reference_params())
        .collect();
        assert!(p.windows(2).all(|w| w[0] > w[1]), "{p:?}");
        for k in ModelKind::ALL {
            assert_eq!(k.payload_bytes_fp32(), k.reference_params() as u64 * 4);
        }
    }

    #[test]
    fn mobilenet_depthwise_smoke() {
        let mut rng = StdRng::seed_from_u64(11);
        let cfg = ModelConfig::new(3, 8, 10, 0.25);
        let mut net = mobilenet_v1_depthwise(cfg, &mut rng);
        let x = Tensor::ones([2, 3, 8, 8]);
        let mode = Mode::train(Precision::Fp32);
        let y = net.forward(&x, mode);
        assert_eq!(y.shape().dims(), &[2, 10]);
        net.backward(&Tensor::ones([2, 10]), mode);
        assert!(net.flat_grads().iter().any(|v| *v != 0.0));
        // depthwise variant has far fewer parameters than the dense stand-in
        let dense = mobilenet_v1(cfg, &mut rng).param_count();
        assert!(
            net.param_count() < dense,
            "{} vs {}",
            net.param_count(),
            dense
        );
    }

    #[test]
    fn full_width_counts_match_reference_stats() {
        // Building at width 1.0 and the paper's input geometry must land
        // within 20% of the published parameter counts the simulator uses
        // for communication volume.
        let mut rng = StdRng::seed_from_u64(0);
        for (kind, cfg, tol) in [
            (ModelKind::Vgg11, ModelConfig::new(3, 32, 10, 1.0), 0.2),
            (ModelKind::ResNet18, ModelConfig::new(3, 32, 10, 1.0), 0.2),
        ] {
            let built = kind.build(cfg, &mut rng).param_count() as f64;
            let reference = kind.reference_params() as f64;
            let ratio = built / reference;
            assert!(
                ((1.0 - tol)..(1.0 + tol)).contains(&ratio),
                "{kind}: built {built} vs reference {reference} (ratio {ratio:.2})"
            );
        }
        // MobileNetV1's reference stats assume true depthwise convolutions;
        // the dense stand-in is deliberately heavier, the depthwise builder
        // must be close.
        let cfg = ModelConfig::new(3, 32, 10, 1.0);
        let dw = mobilenet_v1_depthwise(cfg, &mut rng).param_count() as f64;
        let reference = ModelKind::MobileNetV1.reference_params() as f64;
        let ratio = dw / reference;
        assert!(
            (0.7..1.3).contains(&ratio),
            "depthwise MobileNet: {dw} vs {reference} (ratio {ratio:.2})"
        );
        let dense = ModelKind::MobileNetV1.build(cfg, &mut rng).param_count() as f64;
        assert!(dense > dw, "dense stand-in must be heavier than depthwise");
    }

    #[test]
    fn tiny_inputs_do_not_panic() {
        // 4x4 inputs exercise the pool/stride guards
        smoke(ModelKind::Vgg11, ModelConfig::new(3, 4, 2, 0.125));
        smoke(ModelKind::ResNet18, ModelConfig::new(1, 4, 2, 0.125));
    }
}
