//! The model zoo of the paper (Table 2): LeNet-5, VGG-11, ResNet-18/50 and
//! MobileNetV1.
//!
//! Each architecture is described once, as a layer table
//! ([`ModelKind::layers`]): every layer's kind and geometry, from which its
//! parameters, forward multiply-adds and activations derive, and no
//! weights. [`ModelKind::build`] walks the table to random-initialise a
//! [`Network`]; whatever only counts or lays out a model reads the table
//! and initialises nothing.
//!
//! Every table takes a [`ModelConfig`] whose `width` multiplier scales all
//! channel counts. The experiment harnesses train width-scaled models on
//! small synthetic datasets (so real SGD runs in seconds on a laptop CPU)
//! while the cluster simulator charges communication using the
//! *reference* full-size parameter count of [`ModelKind::reference_params`].

use crate::layers::{
    BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, Relu, Residual,
};
use crate::network::layout_of;
use crate::{GradReady, Layer, Network};
use rand::Rng;
use serde::{Deserialize, Serialize};
use socflow_tensor::conv::ConvParams;

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
    ///
    /// Each constant counts the paper's net, which is not always the table
    /// [`ModelKind::layers`] trains: LeNet-5's is the classic net (5×5
    /// convolutions with biases, a 16·5·5 flatten), VGG-11's counts a bias
    /// on each of its eight convolutions (the table's have none, batch norm
    /// follows each), the ResNets' are their own tables', and MobileNetV1's
    /// is the 13-pair depthwise-separable net, of which the table trains a
    /// dense seven-pair stand-in.
    pub fn reference_params(self) -> usize {
        match self {
            ModelKind::LeNet5 => 61_706,
            ModelKind::Vgg11 => 9_231_114,
            ModelKind::ResNet18 => 11_173_962,
            ModelKind::ResNet50 => 23_520_842,
            ModelKind::MobileNetV1 => 3_217_226,
        }
    }

    /// Gradient/weight payload in bytes for FP32 synchronization.
    pub fn payload_bytes_fp32(self) -> u64 {
        self.reference_params() as u64 * 4
    }

    /// The full-width geometry of the paper's workloads for this model:
    /// 10-way classification of 1×28×28 images for LeNet-5, of 3×32×32
    /// images for the others.
    pub fn paper_config(self) -> ModelConfig {
        match self {
            ModelKind::LeNet5 => ModelConfig::new(1, 28, 10, 1.0),
            _ => ModelConfig::new(3, 32, 10, 1.0),
        }
    }

    /// This architecture's layer table at `cfg`: one [`LayerSpec`] per
    /// layer of the network [`ModelKind::build`] makes, in its order.
    pub fn layers(self, cfg: ModelConfig) -> Vec<LayerSpec> {
        match self {
            ModelKind::LeNet5 => lenet5(cfg),
            ModelKind::Vgg11 => vgg11(cfg),
            ModelKind::ResNet18 => resnet18(cfg),
            ModelKind::ResNet50 => resnet50(cfg),
            ModelKind::MobileNetV1 => mobilenet(cfg),
        }
    }

    /// Builds an instance of this architecture: [`instantiate`] of its
    /// [`ModelKind::layers`].
    pub fn build(self, cfg: ModelConfig, rng: &mut impl Rng) -> Network {
        instantiate(&self.layers(cfg), rng)
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

/// What one layer of a table computes, with the geometry its parameters
/// follow from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerKind {
    /// A bias-free `kernel×kernel` convolution ([`Conv2d`]) from
    /// `in_channels` to `out_channels`, with `padding` zeros on each side.
    Conv {
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    },
    /// Batch normalisation of `channels` feature maps ([`BatchNorm2d`]).
    BatchNorm { channels: usize },
    /// [`Relu`].
    Relu,
    /// Non-overlapping `k×k` max pooling, stride `k` ([`MaxPool2d`]).
    MaxPool { k: usize },
    /// [`GlobalAvgPool`].
    GlobalAvgPool,
    /// [`Flatten`].
    Flatten,
    /// A fully connected layer with bias ([`Linear`]).
    Linear {
        in_features: usize,
        out_features: usize,
    },
    /// `body(x) + shortcut(x)` ([`Residual`]); a `None` shortcut is the
    /// identity, `Some` a projection.
    Residual {
        body: Vec<LayerSpec>,
        shortcut: Option<Vec<LayerSpec>>,
    },
}

/// One layer of an architecture: its kind and the `[channels, height,
/// width]` of one sample going in and coming out. It holds no weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSpec {
    /// What the layer computes.
    pub kind: LayerKind,
    /// One sample's input, `[c, h, w]`.
    pub input: [usize; 3],
    /// One sample's output, `[c, h, w]`.
    pub output: [usize; 3],
}

impl LayerSpec {
    /// Learnable scalars: what the layer adds to the flat parameter vector.
    pub fn params(&self) -> usize {
        match &self.kind {
            LayerKind::Conv {
                in_channels,
                out_channels,
                kernel,
                ..
            } => out_channels * in_channels * kernel * kernel,
            LayerKind::BatchNorm { channels } => 2 * channels,
            LayerKind::Linear {
                in_features,
                out_features,
            } => in_features * out_features + out_features,
            LayerKind::Residual { body, shortcut } => branches(body, shortcut, LayerSpec::params),
            LayerKind::Relu
            | LayerKind::MaxPool { .. }
            | LayerKind::GlobalAvgPool
            | LayerKind::Flatten => 0,
        }
    }

    /// Forward multiply-adds for one sample: each convolution weight meets
    /// one input per output position (every tap counts, padding or not),
    /// each linear weight one input; the element-wise layers, pooling and
    /// reshapes count none.
    pub fn macs(&self) -> u64 {
        match &self.kind {
            LayerKind::Conv { .. } => (self.params() * self.output[1] * self.output[2]) as u64,
            LayerKind::Linear { out_features, .. } => (self.params() - out_features) as u64,
            LayerKind::Residual { body, shortcut } => branches(body, shortcut, LayerSpec::macs),
            _ => 0,
        }
    }

    /// Activation scalars one sample's forward pass writes: the layer's
    /// output, or for a residual block the outputs of the layers on both
    /// of its branches (the sum lands on the body's).
    pub fn activations(&self) -> usize {
        match &self.kind {
            LayerKind::Residual { body, shortcut } => {
                branches(body, shortcut, LayerSpec::activations)
            }
            _ => self.output.iter().product(),
        }
    }

    /// A fresh layer of this spec, its weights drawn from `rng`; a
    /// residual block draws its body's before its shortcut's.
    fn instantiate(&self, rng: &mut impl Rng) -> Box<dyn Layer> {
        match self.kind {
            LayerKind::Conv {
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
            } => Box::new(Conv2d::new(
                in_channels,
                out_channels,
                kernel,
                stride,
                padding,
                rng,
            )),
            LayerKind::BatchNorm { channels } => Box::new(BatchNorm2d::new(channels)),
            LayerKind::Relu => Box::new(Relu::new()),
            LayerKind::MaxPool { k } => Box::new(MaxPool2d::new(k)),
            LayerKind::GlobalAvgPool => Box::new(GlobalAvgPool::new()),
            LayerKind::Flatten => Box::new(Flatten::new()),
            LayerKind::Linear {
                in_features,
                out_features,
            } => Box::new(Linear::new(in_features, out_features, rng)),
            LayerKind::Residual {
                ref body,
                ref shortcut,
            } => {
                let body = walk(body, rng);
                match shortcut {
                    Some(s) => Box::new(Residual::projected(body, walk(s, rng))),
                    None => Box::new(Residual::identity(body)),
                }
            }
        }
    }
}

/// Fresh layers of `table`, made in order, each drawing from `rng`.
fn walk(table: &[LayerSpec], rng: &mut impl Rng) -> Vec<Box<dyn Layer>> {
    table.iter().map(|l| l.instantiate(rng)).collect()
}

/// `count` summed over the layers of both branches of a residual block.
fn branches<T: std::iter::Sum<T>>(
    body: &[LayerSpec],
    shortcut: &Option<Vec<LayerSpec>>,
    count: impl Fn(&LayerSpec) -> T,
) -> T {
    body.iter()
        .chain(shortcut.iter().flatten())
        .map(count)
        .sum()
}

/// A network of the layers of `table`, in order, each drawing its weights
/// from `rng` as it is made.
pub fn instantiate(table: &[LayerSpec], rng: &mut impl Rng) -> Network {
    Network::new(walk(table, rng))
}

/// The flat-gradient layout of the network `table` describes: what
/// [`Network::grad_layout`] of [`instantiate`]`(table, ..)` returns.
pub fn grad_layout(table: &[LayerSpec]) -> Vec<GradReady> {
    layout_of(table.iter().map(LayerSpec::params))
}

/// A table being written: its layers so far and the sample geometry at its
/// end.
struct Tape {
    layers: Vec<LayerSpec>,
    at: [usize; 3],
}

impl Tape {
    fn new(at: [usize; 3]) -> Self {
        Tape {
            layers: Vec::new(),
            at,
        }
    }

    fn input(cfg: ModelConfig) -> Self {
        Tape::new([cfg.in_channels, cfg.input_size, cfg.input_size])
    }

    /// Appends a layer that maps the current geometry to `output`.
    fn push(&mut self, kind: LayerKind, output: [usize; 3]) -> &mut Self {
        let input = std::mem::replace(&mut self.at, output);
        self.layers.push(LayerSpec {
            kind,
            input,
            output,
        });
        self
    }

    /// The geometry after a `kernel×kernel` window over the current one,
    /// with `c` channels out.
    fn window(&self, c: usize, kernel: usize, stride: usize, padding: usize) -> [usize; 3] {
        let p = ConvParams::new(stride, padding);
        [
            c,
            p.out_size(self.at[1], kernel),
            p.out_size(self.at[2], kernel),
        ]
    }

    fn conv(
        &mut self,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> &mut Self {
        let output = self.window(out_channels, kernel, stride, padding);
        let kind = LayerKind::Conv {
            in_channels: self.at[0],
            out_channels,
            kernel,
            stride,
            padding,
        };
        self.push(kind, output)
    }

    fn bn(&mut self) -> &mut Self {
        let channels = self.at[0];
        self.push(LayerKind::BatchNorm { channels }, self.at)
    }

    fn relu(&mut self) -> &mut Self {
        self.push(LayerKind::Relu, self.at)
    }

    fn max_pool(&mut self, k: usize) -> &mut Self {
        let output = self.window(self.at[0], k, k, 0);
        self.push(LayerKind::MaxPool { k }, output)
    }

    fn global_avg_pool(&mut self) -> &mut Self {
        self.push(LayerKind::GlobalAvgPool, [self.at[0], 1, 1])
    }

    fn flatten(&mut self) -> &mut Self {
        self.push(LayerKind::Flatten, [self.at.iter().product(), 1, 1])
    }

    /// A linear layer over the current sample, flattened.
    fn linear(&mut self, out_features: usize) -> &mut Self {
        let in_features = self.at.iter().product();
        let kind = LayerKind::Linear {
            in_features,
            out_features,
        };
        self.push(kind, [out_features, 1, 1])
    }

    /// The layers `write` puts on a branch from the current geometry.
    fn branch(&self, write: impl FnOnce(&mut Tape)) -> Vec<LayerSpec> {
        let mut t = Tape::new(self.at);
        write(&mut t);
        t.layers
    }

    fn residual(&mut self, body: Vec<LayerSpec>, shortcut: Option<Vec<LayerSpec>>) -> &mut Self {
        let output = body.last().map_or(self.at, |l| l.output);
        self.push(LayerKind::Residual { body, shortcut }, output)
    }

    /// The table, finished with the pooled classifier every CNN here but
    /// LeNet-5 ends in.
    fn pooled_head(mut self, classes: usize) -> Vec<LayerSpec> {
        self.global_avg_pool().linear(classes);
        self.layers
    }
}

/// LeNet-5: two conv+pool stages and a three-layer classifier.
fn lenet5(cfg: ModelConfig) -> Vec<LayerSpec> {
    let mut t = Tape::input(cfg);
    t.conv(cfg.ch(6), 3, 1, 1).relu().max_pool(2);
    t.conv(cfg.ch(16), 3, 1, 1).relu().max_pool(2);
    t.flatten().linear(cfg.ch(120)).relu();
    t.linear(cfg.ch(84)).relu().linear(cfg.classes);
    t.layers
}

/// VGG-11 (configuration A), CIFAR-style: eight conv layers with batch norm
/// and a single linear classifier. Max-pools are skipped once the spatial
/// size reaches 1 so the architecture stays valid for small inputs.
fn vgg11(cfg: ModelConfig) -> Vec<LayerSpec> {
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
    let mut t = Tape::input(cfg);
    for (base, pool) in plan {
        t.conv(cfg.ch(base), 3, 1, 1).bn().relu();
        if pool && t.at[1] >= 2 {
            t.max_pool(2);
        }
    }
    t.pooled_head(cfg.classes)
}

/// A residual block whose shortcut is projected when `stride` or the
/// channel count changes.
fn block(t: &mut Tape, out_c: usize, stride: usize, body: impl FnOnce(&mut Tape)) {
    let body = t.branch(body);
    let shortcut = (stride != 1 || t.at[0] != out_c).then(|| {
        t.branch(|s| {
            s.conv(out_c, 1, stride, 0).bn();
        })
    });
    t.residual(body, shortcut).relu();
}

/// The stride of a stage's first block: 2, unless the feature map is down
/// to one pixel. `size` tracks the map halved and rounded down, which is
/// what the guard has always read (a strided 3×3 conv rounds up).
fn downsample(size: &mut usize, wanted: bool) -> usize {
    let stride = if wanted && *size >= 2 { 2 } else { 1 };
    *size /= stride;
    stride
}

/// ResNet-18 (CIFAR variant): stem conv then four stages of two basic
/// blocks, channels 64/128/256/512 × width. Stage downsampling is skipped
/// once the spatial size reaches 1.
fn resnet18(cfg: ModelConfig) -> Vec<LayerSpec> {
    let mut t = Tape::input(cfg);
    t.conv(cfg.ch(64), 3, 1, 1).bn().relu();
    let mut size = cfg.input_size;
    for (i, base) in [64usize, 128, 256, 512].into_iter().enumerate() {
        let out_c = cfg.ch(base);
        for stride in [downsample(&mut size, i > 0), 1] {
            block(&mut t, out_c, stride, |b| {
                b.conv(out_c, 3, stride, 1).bn().relu();
                b.conv(out_c, 3, 1, 1).bn();
            });
        }
    }
    t.pooled_head(cfg.classes)
}

/// ResNet-50 (CIFAR variant): stem conv then four stages of bottleneck
/// blocks (3/4/6/3), expansion 4.
fn resnet50(cfg: ModelConfig) -> Vec<LayerSpec> {
    let mut t = Tape::input(cfg);
    t.conv(cfg.ch(64), 3, 1, 1).bn().relu();
    let mut size = cfg.input_size;
    let stages: [(usize, usize); 4] = [(64, 3), (128, 4), (256, 6), (512, 3)];
    for (i, (base, blocks)) in stages.into_iter().enumerate() {
        let (mid_c, out_c) = (cfg.ch(base), cfg.ch(base * 4));
        for first in (0..blocks).map(|n| n == 0) {
            let stride = downsample(&mut size, first && i > 0);
            block(&mut t, out_c, stride, |b| {
                b.conv(mid_c, 1, 1, 0).bn().relu();
                b.conv(mid_c, 3, stride, 1).bn().relu();
                b.conv(out_c, 1, 1, 0).bn();
            });
        }
    }
    t.pooled_head(cfg.classes)
}

/// `(out_channels, stride)` of the first seven of MobileNetV1's 13
/// separable pairs (CIFAR-scale): the pairs the trained stand-in keeps.
const MOBILENET: [(usize, usize); 7] = [
    (64, 1),
    (128, 2),
    (128, 1),
    (256, 2),
    (256, 1),
    (512, 2),
    (512, 1),
];

/// MobileNetV1's stand-in: a stem conv, then per [`MOBILENET`] pair a
/// dense 3×3 conv at input width and a 1×1 pointwise conv, each with batch
/// norm and ReLU — the separable structure's shape, on the convolution
/// kernels every other model trains on. The simulator prices the true
/// depthwise-separable net ([`ModelKind::reference_params`]).
fn mobilenet(cfg: ModelConfig) -> Vec<LayerSpec> {
    let mut t = Tape::input(cfg);
    t.conv(cfg.ch(32), 3, 1, 1).bn().relu();
    let mut size = cfg.input_size;
    for (base, want_stride) in MOBILENET {
        let stride = downsample(&mut size, want_stride == 2);
        t.conv(t.at[0], 3, stride, 1).bn().relu();
        t.conv(cfg.ch(base), 1, 1, 0).bn().relu();
    }
    t.pooled_head(cfg.classes)
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

    fn param_count(table: &[LayerSpec]) -> usize {
        table.iter().map(LayerSpec::params).sum()
    }

    #[test]
    fn width_scales_param_count() {
        let vgg = |width| param_count(&ModelKind::Vgg11.layers(ModelConfig::new(3, 8, 10, width)));
        let (small, big) = (vgg(0.125), vgg(0.25));
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

    /// Parameters and per-sample forward multiply-adds of the paper's
    /// MobileNetV1 at 3×32×32: a 3×3 stem of 32 channels, 13
    /// depthwise-separable pairs — a 3×3 convolution of each channel on its
    /// own and a 1×1 pointwise one, batch norm after each — then average
    /// pooling and a 10-way linear classifier. A stride-2 pair halves the
    /// map, rounding up.
    fn depthwise_mobilenet_counts() -> (usize, u64) {
        const PAIRS: [(usize, usize); 13] = [
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
        let (mut c, mut size) = (32, 32usize);
        let stem = 3 * c * 9;
        let (mut params, mut macs) = (stem + 2 * c, (stem * size * size) as u64);
        for (out, stride) in PAIRS {
            size = size.div_ceil(stride);
            let (depthwise, pointwise) = (c * 9, c * out);
            params += depthwise + 2 * c + pointwise + 2 * out;
            macs += ((depthwise + pointwise) * size * size) as u64;
            c = out;
        }
        (params + c * 10 + 10, macs + (c * 10) as u64)
    }

    /// The tables at the paper's geometry against the paper-scale
    /// constants: the simulator's parameter counts
    /// ([`ModelKind::reference_params`]) and the per-sample forward
    /// multiply-adds once quoted beside them, which nothing prices.
    /// MobileNetV1's row is the depthwise-separable net the constant
    /// counts, worked out here; the table trains a dense stand-in.
    #[test]
    fn full_width_counts_match_reference_stats() {
        // (table params, reference params, table MACs, reference MACs)
        let rows: [(ModelKind, usize, usize, u64, u64); 5] = [
            (ModelKind::LeNet5, 106_132, 61_706, 316_680, 850_000),
            (
                ModelKind::Vgg11,
                9_228_362,
                9_231_114,
                152_769_536,
                153_000_000,
            ),
            (
                ModelKind::ResNet18,
                11_173_962,
                11_173_962,
                555_422_720,
                557_000_000,
            ),
            (
                ModelKind::ResNet50,
                23_520_842,
                23_520_842,
                1_297_829_888,
                1_310_000_000,
            ),
            (
                ModelKind::MobileNetV1,
                3_217_226,
                3_217_226,
                46_354_432,
                47_000_000,
            ),
        ];
        for (kind, params, reference, macs, reference_macs) in rows {
            let cfg = kind.paper_config();
            let counted = match kind {
                ModelKind::MobileNetV1 => depthwise_mobilenet_counts(),
                _ => {
                    let table = kind.layers(cfg);
                    (param_count(&table), table.iter().map(LayerSpec::macs).sum())
                }
            };
            assert_eq!(counted, (params, macs), "{kind}");
            assert_eq!(kind.reference_params(), reference, "{kind}");
            let under = 1.0 - macs as f64 / reference_macs as f64;
            match kind {
                // the constants describe the classic LeNet-5 (5×5 convs with
                // bias, a 16·5·5 flatten) and count its FLOPs, two per
                // multiply-add; the table is the 3×3 LeNet-5 trained here
                ModelKind::LeNet5 => assert!(params > reference && under > 0.6),
                _ => assert!((0.0..0.015).contains(&under), "{kind}: {under}"),
            }
        }
        // VGG-11's constant counts a bias on each of its eight convs; the
        // convs here have none, batch norm follows each
        let vgg = ModelKind::Vgg11.layers(ModelKind::Vgg11.paper_config());
        let conv_biases: usize = vgg
            .iter()
            .map(|l| match l.kind {
                LayerKind::Conv { out_channels, .. } => out_channels,
                _ => 0,
            })
            .sum();
        assert_eq!(param_count(&vgg) + conv_biases, 9_231_114);
        // MobileNetV1's trained stand-in: a dense 3×3 in each of its seven
        // pairs, so more parameters than the 13 separable pairs
        let dense = ModelKind::MobileNetV1.layers(ModelKind::MobileNetV1.paper_config());
        let dense_macs: u64 = dense.iter().map(LayerSpec::macs).sum();
        assert_eq!((param_count(&dense), dense_macs), (4_410_602, 172_856_320));
    }

    #[test]
    fn tiny_inputs_do_not_panic() {
        // 4x4 inputs exercise the pool/stride guards
        smoke(ModelKind::Vgg11, ModelConfig::new(3, 4, 2, 0.125));
        smoke(ModelKind::ResNet18, ModelConfig::new(1, 4, 2, 0.125));
    }
}
