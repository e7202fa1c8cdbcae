//! The layer object interface.

use crate::param::Param;
use bcp_tensor::Tensor;

/// Forward-pass mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Batch statistics, caching for backward.
    Train,
    /// Running statistics; caches are still populated so Grad-CAM can
    /// backpropagate through an evaluation pass.
    Eval,
}

/// What a layer computes: the buckets of the training-time profile
/// ([`crate::sequential::Profile`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerKind {
    /// Convolutions, float or binary.
    Conv,
    /// Batch normalization.
    BatchNorm,
    /// Element-wise activations and the flatten reshape.
    Activation,
    /// Pooling.
    Pool,
    /// Fully-connected layers, float or binary.
    Dense,
}

/// A differentiable network layer.
///
/// Layers are stateful: `forward` caches whatever `backward` needs, and
/// `backward` must be called at most once per forward (it consumes the
/// cache). Parameter gradients accumulate into [`Param::grad`]; callers
/// reset them between optimizer steps via [`Layer::zero_grad`].
pub trait Layer: Send + std::any::Any {
    /// Upcast for concrete-layer access (deployment export, Grad-CAM).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable upcast.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// A short human-readable layer name (used in state dicts and the
    /// pipeline descriptions, so it must be unique within a network).
    fn name(&self) -> &str;

    /// The profile bucket this layer's time is counted in.
    fn kind(&self) -> LayerKind;

    /// Compute the layer output, caching for a subsequent backward pass.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor;

    /// Propagate the output gradient to the input gradient, accumulating
    /// parameter gradients along the way. Panics when no forward pass is
    /// cached.
    fn backward(&mut self, dy: &Tensor) -> Tensor;

    /// Visit all trainable parameters (default: none).
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    /// Reset all parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total trainable scalar count.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.numel());
        n
    }
}

/// Take a cached tensor out of an `Option`, with a consistent panic message
/// when `backward` runs without a preceding `forward`.
pub(crate) fn take_cache<T>(cache: &mut Option<T>, layer: &str) -> T {
    cache
        .take()
        .unwrap_or_else(|| panic!("backward() on '{layer}' without a cached forward pass"))
}
