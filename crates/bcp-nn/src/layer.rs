//! The layer object interface.

use crate::param::Param;
use bcp_bitpack::bitvec64::WORD_BITS;
use bcp_bitpack::pack::{pack_exact_signs, pack_with, unpack_signs};
use bcp_bitpack::BitVec64;
use bcp_tensor::par::{self, ELEMENT_WORK};
use bcp_tensor::{Shape, Tensor};

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
/// Layers are stateful: `forward` caches whatever `backward` needs, at the
/// width it needs it ([`SavedInput`], [`Mask`]), and `backward` must be
/// called at most once per forward (it consumes the cache). Parameter gradients accumulate into [`Param::grad`]; callers
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

/// A layer input kept for `backward`: one bit a value when every value is
/// exactly ±1 (the output of a sign activation, or a pool of signs), else
/// the `f32` tensor itself (pixels, the FP32 network's activations). The
/// choice is read off the tensor; either way `backward` gets the very
/// values the forward pass saw.
pub(crate) enum SavedInput {
    /// Sign bits, `+1 ↦ 1`.
    Signs(Shape, BitVec64),
    /// Any other input, as it was.
    Float(Tensor),
}

impl SavedInput {
    /// Test and pack in one pass; copy when the test fails.
    pub(crate) fn of(x: &Tensor) -> Self {
        match pack_exact_signs(x.as_slice()) {
            Some(bits) => SavedInput::Signs(x.shape().clone(), bits),
            None => SavedInput::Float(x.clone()),
        }
    }

    /// The input as the forward pass saw it.
    pub(crate) fn into_tensor(self) -> Tensor {
        match self {
            SavedInput::Signs(shape, bits) => Tensor::from_vec(shape, unpack_signs(&bits)),
            SavedInput::Float(x) => x,
        }
    }
}

/// An activation's pass mask kept as bits: which elements let the output
/// gradient through.
pub(crate) struct Mask(BitVec64);

impl Mask {
    /// `pass(x)` for every element of `x`, a word at a time.
    pub(crate) fn of(x: &Tensor, pass: impl Fn(f32) -> bool + Copy) -> Self {
        Mask(pack_with(x.as_slice(), pass))
    }

    /// `dy` where the mask passes, `0` elsewhere; split across runs of
    /// whole words like [`Tensor::map`].
    pub(crate) fn apply(&self, dy: &Tensor) -> Tensor {
        let (words, dy_all) = (self.0.words(), dy.as_slice());
        assert_eq!(
            dy_all.len(),
            self.0.len(),
            "gradient does not match the mask"
        );
        let mut dx = Tensor::zeros(dy.shape().clone());
        let work = dy_all.len().saturating_mul(ELEMENT_WORK);
        par::for_each_run(dx.as_mut_slice(), WORD_BITS, work, |first, run| {
            let dy = dy_all[first * WORD_BITS..].chunks(WORD_BITS);
            for ((out, dy), &w) in run.chunks_mut(WORD_BITS).zip(dy).zip(&words[first..]) {
                for (i, (o, &g)) in out.iter_mut().zip(dy).enumerate() {
                    if (w >> i) & 1 == 1 {
                        *o = g;
                    }
                }
            }
        });
        dx
    }
}

#[cfg(test)]
mod tests {
    //! What a layer caches must not change what its backward returns: each
    //! layer's gradients against the plain tensor ops on the `f32` input,
    //! bit for bit, on ±1 inputs (cached as bits), pixel inputs and the
    //! FP32 path (cached as they are).
    use super::*;
    use crate::activation::{Relu, SignSte};
    use crate::conv::Conv2d;
    use crate::linear::Linear;
    use crate::weight::WeightForm;
    use bcp_tensor::init::uniform;
    use bcp_tensor::matmul::{matmul, matmul_ta};
    use bcp_tensor::{conv2d_backward_input, conv2d_backward_weight, Conv2dSpec};

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn signs(t: Tensor) -> Tensor {
        t.map(|v| if v >= 0.0 { 1.0 } else { -1.0 })
    }

    /// The three kinds of input, each with the weight form it meets in the
    /// networks: signs and pixels into a binary layer, floats into a float
    /// one. The float input carries the activations' edge values.
    fn cases(shape: Shape) -> Vec<(&'static str, WeightForm, Tensor)> {
        let mut float = uniform(shape.clone(), -2.0, 2.0, 5);
        for (v, edge) in float.as_mut_slice().iter_mut().zip([-1.0, 1.0, 0.0, -0.0]) {
            *v = edge;
        }
        vec![
            (
                "±1",
                WeightForm::Sign,
                signs(uniform(shape.clone(), -1.0, 1.0, 3)),
            ),
            ("pixels", WeightForm::Sign, uniform(shape, 0.0, 1.0, 4)),
            ("fp32", WeightForm::Float, float),
        ]
    }

    /// The weight gradient as a fresh parameter accumulates it.
    fn accumulated(dw: &Tensor) -> Vec<u32> {
        let mut p = Param::new("w", Tensor::zeros(dw.shape().clone()));
        p.accumulate_grad(dw);
        bits(&p.grad)
    }

    fn weight_grad(layer: &mut dyn Layer) -> Vec<u32> {
        let mut g = Vec::new();
        layer.visit_params(&mut |p| g = bits(&p.grad));
        g
    }

    #[test]
    fn saved_input_packs_exactly_the_sign_tensors() {
        for (kind, _, x) in cases(Shape::nchw(2, 3, 9, 9)) {
            let saved = SavedInput::of(&x);
            assert_eq!(
                matches!(saved, SavedInput::Signs(..)),
                kind == "±1",
                "{kind}"
            );
            let back = saved.into_tensor();
            assert_eq!(back.shape(), x.shape(), "{kind}");
            assert_eq!(bits(&back), bits(&x), "{kind}");
        }
    }

    #[test]
    fn conv_backward_matches_tensor_ops() {
        let spec = Conv2dSpec::new(3, 4, 3, 1);
        for (kind, form, x) in cases(Shape::nchw(2, 3, 9, 9)) {
            let mut conv = Conv2d::new("c", spec, form, 7);
            let y = conv.forward(&x, Mode::Train);
            let dy = uniform(y.shape().clone(), -1.0, 1.0, 8);
            let w = conv.effective_weight().into_owned();
            let dx = conv.backward(&dy);
            let want_dx = conv2d_backward_input(&w, &dy, spec, (9, 9));
            assert_eq!(bits(&dx), bits(&want_dx), "{kind}: dx");
            let want_dw = conv2d_backward_weight(&x, &dy, spec);
            assert_eq!(weight_grad(&mut conv), accumulated(&want_dw), "{kind}: dW");
        }
    }

    #[test]
    fn linear_backward_matches_tensor_ops() {
        for (kind, form, x) in cases(Shape::d2(3, 70)) {
            let mut fc = Linear::new("fc", 70, 5, form, false, 9);
            let y = fc.forward(&x, Mode::Train);
            let dy = uniform(y.shape().clone(), -1.0, 1.0, 10);
            let w = fc.effective_weight().into_owned();
            let dx = fc.backward(&dy);
            assert_eq!(bits(&dx), bits(&matmul(&dy, &w)), "{kind}: dx");
            let want_dw = matmul_ta(&dy, &x);
            assert_eq!(weight_grad(&mut fc), accumulated(&want_dw), "{kind}: dW");
        }
    }

    #[test]
    fn activation_backward_matches_masked_gradient() {
        for (kind, _, x) in cases(Shape::d2(3, 70)) {
            let dy = uniform(x.shape().clone(), -1.0, 1.0, 11);
            let masked = |pass: fn(f32) -> bool| {
                let mut want = x.clone();
                want.zip_inplace(&dy, |v, g| if pass(v) { g } else { 0.0 });
                bits(&want)
            };
            let mut sign = SignSte::new("s");
            let _ = sign.forward(&x, Mode::Train);
            let got = bits(&sign.backward(&dy));
            assert_eq!(got, masked(|v| v.abs() <= 1.0), "{kind}: sign");
            let mut relu = Relu::new("r");
            let _ = relu.forward(&x, Mode::Train);
            assert_eq!(
                bits(&relu.backward(&dy)),
                masked(|v| v > 0.0),
                "{kind}: relu"
            );
        }
    }
}
