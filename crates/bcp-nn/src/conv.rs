//! Convolution layers: float [`Conv2d`] and [`BinaryConv2d`] with latent
//! weights + STE.

use crate::layer::{take_cache, Layer, LayerKind, Mode};
use crate::param::Param;
use bcp_tensor::init::kaiming;
use bcp_tensor::{
    conv2d_backward_input, conv2d_backward_weight, conv2d_forward, Conv2dSpec, Tensor,
};

/// Full-precision 2-D convolution (the FP32-CNV baseline of the Grad-CAM
/// comparison). Bias-free: every conv is followed by batch-norm.
pub struct Conv2d {
    name: String,
    spec: Conv2dSpec,
    weight: Param,
    cache: Option<(Tensor, (usize, usize))>, // (x, input h/w)
}

impl Conv2d {
    /// Kaiming-initialised convolution.
    pub fn new(name: impl Into<String>, spec: Conv2dSpec, seed: u64) -> Self {
        let fan_in = spec.c_in * spec.window.k * spec.window.k;
        let w = kaiming(spec.weight_shape(), fan_in, seed);
        Conv2d {
            name: name.into(),
            spec,
            weight: Param::new("weight", w),
            cache: None,
        }
    }

    /// Layer geometry.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Read-only weight access.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
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
        let y = conv2d_forward(x, &self.weight.value, self.spec);
        self.cache = Some((x.clone(), (x.shape().dim(2), x.shape().dim(3))));
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (x, in_hw) = take_cache(&mut self.cache, &self.name);
        let dw = conv2d_backward_weight(&x, dy, self.spec);
        self.weight.accumulate_grad(&dw);
        conv2d_backward_input(&self.weight.value, dy, self.spec, in_hw)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
    }
}

/// Convolution with binarized weights (Eq. 2: `B = sign(W)`), computed over
/// whatever activations the previous layer produced — binary ±1 maps for all
/// layers after the first sign activation, raw pixels for Conv1.1.
///
/// Backward: the STE treats `d sign(W)/dW` as identity, so the latent weight
/// receives exactly the binary-weight gradient; the optimizer's unit clip
/// keeps latents in [−1, 1].
pub struct BinaryConv2d {
    name: String,
    spec: Conv2dSpec,
    weight: Param,
    cache: Option<(Tensor, Tensor, (usize, usize))>, // (x, sign(W), input h/w)
}

impl BinaryConv2d {
    /// Kaiming-initialised latent weights.
    pub fn new(name: impl Into<String>, spec: Conv2dSpec, seed: u64) -> Self {
        let fan_in = spec.c_in * spec.window.k * spec.window.k;
        let w = kaiming(spec.weight_shape(), fan_in, seed);
        BinaryConv2d {
            name: name.into(),
            spec,
            weight: Param::latent("weight", w),
            cache: None,
        }
    }

    /// Layer geometry.
    pub fn spec(&self) -> Conv2dSpec {
        self.spec
    }

    /// Latent weights (export/tests).
    pub fn latent_weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Binarized weights by the Eq. 1 convention (ties at 0 → +1).
    pub fn binary_weight(&self) -> Tensor {
        self.weight.value.map(|w| if w >= 0.0 { 1.0 } else { -1.0 })
    }
}

impl Layer for BinaryConv2d {
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
        let wb = self.binary_weight();
        let y = conv2d_forward(x, &wb, self.spec);
        self.cache = Some((x.clone(), wb, (x.shape().dim(2), x.shape().dim(3))));
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (x, wb, in_hw) = take_cache(&mut self.cache, &self.name);
        let dw = conv2d_backward_weight(&x, dy, self.spec);
        self.weight.accumulate_grad(&dw);
        conv2d_backward_input(&wb, dy, self.spec, in_hw)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
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
        let mut l = Conv2d::new("conv1_1", spec, 0);
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
        let mut l = BinaryConv2d::new("bconv", spec, 0);
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
        let mut l = BinaryConv2d::new("bconv", spec, 0);
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
        let mut l = BinaryConv2d::new("bconv", spec, 3);
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
}
