//! The layer zoo: everything needed to assemble LeNet/VGG/ResNet/MobileNet
//! style CNNs with explicit backward passes.

mod activation;
mod conv;
mod linear;
mod norm;
mod pool;
mod reshape;
mod residual;

pub use activation::Relu;
pub use conv::Conv2d;
pub use linear::Linear;
pub use norm::BatchNorm2d;
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use reshape::Flatten;
pub use residual::Residual;
