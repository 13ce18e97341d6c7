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
//! - symmetric per-tensor INT8 quantization with straight-through-estimator
//!   helpers for quantization-aware training ([`quant`]);
//! - the in-place parameter sweeps of a training step and a delayed
//!   aggregation — SGD with momentum, the Eq. 5 merge, the replica mean
//!   ([`sweep`]);
//! - weight initializers ([`init`]);
//! - the step scratch, a thread-local exact-size free-list that every
//!   buffer of a training step is borrowed from ([`pool`]), and opt-in
//!   kernel timing counters ([`profile`]);
//! - one runtime decision between the portable and the AVX2 instantiation
//!   of the hot kernels ([`isa`]), bit-identical either way;
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
//! let c = socflow_tensor::linalg::matmul(&a, &b);
//! assert_eq!(c.data(), &[3.0, 3.0, 7.0, 7.0]);
//! ```

pub mod conv;
pub mod init;
pub mod isa;
pub mod linalg;
pub mod pool;
pub mod profile;
pub mod quant;
pub mod runtime;
mod shape;
pub mod sweep;
mod tensor;

pub use shape::Shape;
pub use tensor::Tensor;

/// Errors produced by fallible tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The shapes of two operands are incompatible for the requested op.
    ShapeMismatch {
        /// Shape of the left / primary operand.
        left: Shape,
        /// Shape of the right / secondary operand.
        right: Shape,
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// The provided data length does not match the product of the shape dims.
    LengthMismatch {
        /// Number of elements implied by the shape.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { left, right, op } => {
                write!(f, "shape mismatch in `{op}`: {left} vs {right}")
            }
            TensorError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "length mismatch: shape implies {expected} elements, got {actual}"
                )
            }
        }
    }
}

impl std::error::Error for TensorError {}
