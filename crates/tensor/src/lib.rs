//! # socflow-tensor
//!
//! A minimal, dependency-light dense tensor library backing the SoCFlow
//! reproduction. It provides exactly what small-CNN training needs:
//!
//! - [`Tensor`]: a row-major, contiguously stored `f32` tensor with a
//!   dynamic [`Shape`];
//! - elementwise arithmetic, reductions and broadcasting-by-row helpers;
//! - blocked matrix multiplication ([`linalg`]);
//! - im2col-based 2-D convolution and pooling with hand-written backward
//!   passes ([`conv`]);
//! - batch normalisation's four sweeps over an NCHW batch ([`norm`]);
//! - symmetric per-tensor INT8 quantization for quantization-aware
//!   training and the integer GEMM's operands ([`quant`]);
//! - the in-place parameter sweeps of a training step and a delayed
//!   aggregation — SGD with momentum, the Eq. 5 merge, the replica mean
//!   ([`sweep`]);
//! - weight initializers ([`init`]);
//! - the step scratch, a thread-local exact-size free-list that every
//!   buffer of a training step is borrowed from ([`pool`]), and opt-in
//!   kernel timing counters ([`profile`]);
//! - one runtime decision between the portable, AVX2 and AVX-512
//!   instantiations of the hot kernels ([`isa`]), bit-identical whichever
//!   runs;
//! - a deterministic intra-op parallel runtime ([`runtime`]): a persistent
//!   worker pool whose output partitioning is fixed by problem shape, so
//!   results are bit-identical at any thread count.
//!
//! The library is intentionally CPU-only and deterministic: every random
//! routine takes an explicit RNG so experiments are reproducible bit-for-bit.
//!
//! ## Example
//!
//! ```
//! use socflow_tensor::{Tensor, Shape};
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::new(vec![2, 2]));
//! let b = Tensor::ones(Shape::new(vec![2, 2]));
//! let mut c = Tensor::default();
//! socflow_tensor::linalg::matmul_into(&a, &b, &mut c);
//! assert_eq!(c.data(), &[3.0, 3.0, 7.0, 7.0]);
//! ```

pub mod conv;
pub mod init;
pub mod isa;
pub mod linalg;
pub mod norm;
pub mod pool;
pub mod profile;
pub mod quant;
pub mod runtime;
mod shape;
pub mod sweep;
mod tensor;

pub use shape::Shape;
pub use tensor::Tensor;
