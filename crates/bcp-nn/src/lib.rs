//! From-scratch BNN training framework for BinaryCoP.
//!
//! Implements the training method of Sec. III-A: full-precision *latent*
//! weights are kept throughout training; forward passes binarize weights
//! (and activations, via the sign layer) with the Eq. 1 convention; the
//! backward pass uses the straight-through estimator (STE) with the usual
//! |x| ≤ 1 clipping so gradients keep flowing.
//!
//! Structure:
//!
//! - [`param::Param`]: a trainable tensor + its gradient + optimizer slots.
//! - [`layer::Layer`]: forward/backward/visit-params object interface; the
//!   network is a [`sequential::Sequential`] of boxed layers.
//! - Layers: [`conv::Conv2d`] and [`linear::Linear`], each multiplying its
//!   weight in one [`weight::WeightForm`] (`W`, `sign(W)` or `α·sign(W)`),
//!   [`batchnorm::BatchNorm`], [`activation::SignSte`] /
//!   [`activation::Relu`] / [`activation::HardTanh`],
//!   [`pool::MaxPool2d`], [`flatten::Flatten`].
//! - [`loss`]: softmax cross-entropy and squared hinge.
//! - [`optim`]: Adam, with latent-weight clipping to [−1, 1]
//!   (BinaryConnect practice), and a step-decay LR schedule.
//! - [`train`]: minibatch loop with seeded shuffling and epoch metrics.
//! - [`metrics`]: accuracy and the confusion matrix of Fig. 2.
//! - [`serialize`]: JSON state-dict save/load.

#![forbid(unsafe_code)]

pub mod activation;
pub mod batchnorm;
pub mod conv;
pub mod flatten;
pub mod gradcheck;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod metrics;
pub mod optim;
pub mod param;
pub mod pool;
pub mod sequential;
pub mod serialize;
pub mod train;
pub mod weight;

pub use layer::{Layer, LayerKind, Mode};
pub use param::Param;
pub use sequential::Sequential;
pub use weight::WeightForm;
