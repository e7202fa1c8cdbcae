//! The 2-D convolution layer, in any [`WeightForm`].

use crate::layer::{take_cache, Layer, LayerKind, Mode, SavedInput};
use crate::param::Param;
use crate::weight::{Weight, WeightForm};
use bcp_tensor::init::kaiming;
use bcp_tensor::{
    conv2d_backward_input, conv2d_backward_weight, conv2d_forward, Conv2dSpec, Tensor,
};
use std::borrow::Cow;

/// 2-D convolution of whatever activations the previous layer produced —
/// raw pixels for Conv1.1, ±1 maps after a sign activation — with the
/// weight of its [`WeightForm`]. Bias-free: every conv is followed by
/// batch-norm. Backward needs `x` (as bits when it is ±1) and re-derives
/// the multiplied weight from `W`, which does not change in between.
pub struct Conv2d {
    name: String,
    spec: Conv2dSpec,
    weight: Weight,
    cache: Option<SavedInput>,
}

impl Conv2d {
    /// Kaiming-initialised convolution.
    pub fn new(name: impl Into<String>, spec: Conv2dSpec, form: WeightForm, seed: u64) -> Self {
        let fan_in = spec.c_in * spec.window.k * spec.window.k;
        Conv2d {
            name: name.into(),
            spec,
            weight: Weight::new(form, kaiming(spec.weight_shape(), fan_in, seed)),
            cache: None,
        }
    }

    /// How the stored weight is multiplied.
    pub fn form(&self) -> WeightForm {
        self.weight.form
    }

    /// The weight the forward pass multiplies: `W`, `sign(W)` or
    /// `α·sign(W)`.
    pub fn effective_weight(&self) -> Cow<'_, Tensor> {
        self.weight.effective()
    }
}

impl Layer for Conv2d {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Conv
    }

    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        let y = conv2d_forward(x, &self.weight.effective(), self.spec);
        self.cache = Some(SavedInput::of(x));
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = take_cache(&mut self.cache, &self.name).into_tensor();
        let in_hw = (x.shape().dim(2), x.shape().dim(3));
        let dw = conv2d_backward_weight(&x, dy, self.spec);
        self.weight.param.accumulate_grad(&dw);
        conv2d_backward_input(&self.weight.effective(), dy, self.spec, in_hw)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight.param);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_tensor::init::uniform;
    use bcp_tensor::Shape;

    #[test]
    fn conv_shapes_and_param_count() {
        let spec = Conv2dSpec::new(3, 16, 3, 0);
        let mut l = Conv2d::new("conv1_1", spec, WeightForm::Float, 0);
        assert_eq!(l.param_count(), 3 * 16 * 9);
        let x = uniform(Shape::nchw(2, 3, 8, 8), -1.0, 1.0, 1);
        let y = l.forward(&x, Mode::Train);
        assert_eq!(y.shape().dims(), &[2, 16, 6, 6]);
        let dx = l.backward(&Tensor::ones(y.shape().clone()));
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn binary_conv_uses_sign_weights() {
        let spec = Conv2dSpec::new(1, 1, 1, 0);
        let mut l = Conv2d::new("bconv", spec, WeightForm::Sign, 0);
        l.visit_params(&mut |p| {
            p.value = Tensor::from_vec(Shape(vec![1, 1, 1, 1]), vec![-0.3]);
        });
        let x = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let y = l.forward(&x, Mode::Train);
        // Weight binarizes to −1 → output = −x.
        assert_eq!(y.as_slice(), &[-1.0, -2.0, -3.0, -4.0]);
    }

    #[test]
    fn binary_conv_ste_latent_gradient() {
        let spec = Conv2dSpec::new(1, 1, 1, 0);
        let mut l = Conv2d::new("bconv", spec, WeightForm::Sign, 0);
        l.visit_params(&mut |p| {
            p.value = Tensor::from_vec(Shape(vec![1, 1, 1, 1]), vec![-0.3]);
        });
        let x = Tensor::from_vec(Shape::nchw(1, 1, 1, 2), vec![2.0, 3.0]);
        let y = l.forward(&x, Mode::Train);
        let dx = l.backward(&Tensor::ones(y.shape().clone()));
        // dW = Σ x = 5 regardless of the binarization; dx uses the binary −1.
        l.visit_params(&mut |p| assert_eq!(p.grad.as_slice(), &[5.0]));
        assert_eq!(dx.as_slice(), &[-1.0, -1.0]);
    }

    #[test]
    fn binary_conv_output_is_integral_on_binary_inputs() {
        // ±1 inputs ⊙ ±1 weights summed over fan-in → integer accumulators
        // with fan-in parity: the arithmetic the XNOR datapath reproduces.
        let spec = Conv2dSpec::new(2, 4, 3, 0);
        let mut l = Conv2d::new("bconv", spec, WeightForm::Sign, 3);
        let x =
            uniform(Shape::nchw(1, 2, 5, 5), -1.0, 1.0, 4)
                .map(|v| if v >= 0.0 { 1.0 } else { -1.0 });
        let y = l.forward(&x, Mode::Train);
        let fan_in = 2 * 9i32;
        for &v in y.as_slice() {
            let i = v as i32;
            assert_eq!(i as f32, v, "accumulator must be an integer, got {v}");
            assert!(i.abs() <= fan_in);
            assert_eq!((i - fan_in).rem_euclid(2), 0, "parity must match fan-in");
        }
    }

    #[test]
    fn scaled_conv_output_is_alpha_times_plain_binary() {
        let spec = Conv2dSpec::new(1, 1, 1, 0);
        let layer = |form| {
            let mut l = Conv2d::new("c", spec, form, 0);
            l.visit_params(&mut |p| {
                p.value = Tensor::from_vec(Shape(vec![1, 1, 1, 1]), vec![-0.6]);
            });
            l
        };
        let x = Tensor::from_vec(Shape::nchw(1, 1, 1, 3), vec![1.0, 2.0, 3.0]);
        let ys = layer(WeightForm::ScaledSign).forward(&x, Mode::Train);
        let yp = layer(WeightForm::Sign).forward(&x, Mode::Train);
        for (s, p) in ys.as_slice().iter().zip(yp.as_slice()) {
            assert!((s - 0.6 * p).abs() < 1e-6, "{s} vs α·{p}");
        }
    }
}
