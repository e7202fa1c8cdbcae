//! FP32 tensor substrate for the BinaryCoP reproduction.
//!
//! The paper's training flow (Sec. III-A) needs ordinary dense float
//! arithmetic: latent full-precision weights, batch-norm statistics,
//! gradients through the straight-through estimator, softmax loss. The Rust
//! deep-learning ecosystem is thin, so this crate implements the substrate
//! from scratch:
//!
//! - [`Tensor`]: contiguous row-major N-d array of `f32` (rank ≤ 4,
//!   NCHW convention for rank-4).
//! - [`matmul`]: one register-tiled GEMM kernel behind the three products
//!   (plain, transposed-A, transposed-B) — the workhorse behind im2col
//!   convolution. It is order-preserving: every output is the k-ascending
//!   sum from `+0.0` that the naive triple loop computes, which is why
//!   training reproduces bit for bit across kernel changes.
//! - [`im2col`]: lowering of convolutions to GEMM and its transpose
//!   (`col2im`) for the backward pass.
//! - [`conv`]: conv2d forward/backward (weights, inputs) built on the above.
//! - [`pool`]: max-pooling with argmax bookkeeping for the backward pass.
//! - [`init`]: seeded weight initializers (Kaiming, Xavier, uniform).
//!
//! Everything is deterministic given a seed; no global state.

#![forbid(unsafe_code)]

pub mod conv;
pub mod im2col;
pub mod init;
pub mod matmul;
pub mod ops;
pub mod par;
pub mod pool;
pub mod shape;
pub mod tensor;

pub use conv::{conv2d_backward_input, conv2d_backward_weight, conv2d_forward, Conv2dSpec};
pub use pool::{maxpool2d_backward, maxpool2d_forward, MaxPoolSpec};
pub use shape::Shape;
pub use tensor::Tensor;
