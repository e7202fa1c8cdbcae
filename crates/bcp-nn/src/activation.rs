//! Activation layers: the binarizing [`SignSte`] plus float baselines.

use crate::layer::{take_cache, Layer, LayerKind, Mask, Mode};
use bcp_tensor::Tensor;

/// The straight-through pass region `|x| ≤ 1` (false for NaN).
fn unit_interval(v: f32) -> bool {
    v.abs() <= 1.0
}

/// Binarizing activation: forward is Eq. 1's `sign()` (ties at 0 → +1);
/// backward is the straight-through estimator with the canonical clipping
/// `d sign(x)/dx ≈ 1{|x| ≤ 1}` [Hubara et al. 2016], without which gradients
/// either vanish (true derivative is 0 a.e.) or explode (unclipped STE).
/// It keeps that `|x| ≤ 1` mask, one bit an element, not its input.
pub struct SignSte {
    name: String,
    cache: Option<Mask>,
}

impl SignSte {
    /// New sign activation.
    pub fn new(name: impl Into<String>) -> Self {
        SignSte {
            name: name.into(),
            cache: None,
        }
    }
}

impl Layer for SignSte {
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
        LayerKind::Activation
    }

    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        self.cache = Some(Mask::of(x, unit_interval));
        x.map(|v| if v >= 0.0 { 1.0 } else { -1.0 })
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        take_cache(&mut self.cache, &self.name).apply(dy)
    }
}

/// Rectified linear unit (FP32 baseline network). It keeps its `x > 0`
/// mask as bits, not its input.
pub struct Relu {
    name: String,
    cache: Option<Mask>,
}

impl Relu {
    /// New ReLU.
    pub fn new(name: impl Into<String>) -> Self {
        Relu {
            name: name.into(),
            cache: None,
        }
    }
}

impl Layer for Relu {
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
        LayerKind::Activation
    }

    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        self.cache = Some(Mask::of(x, |v| v > 0.0));
        x.map(|v| v.max(0.0))
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        take_cache(&mut self.cache, &self.name).apply(dy)
    }
}

/// Hard tanh: `clamp(x, −1, 1)`. Used in BinaryNet-style stacks as the
/// float stand-in for sign during ablations. Like [`SignSte`], it keeps its
/// `|x| ≤ 1` mask as bits.
pub struct HardTanh {
    name: String,
    cache: Option<Mask>,
}

impl HardTanh {
    /// New hard-tanh.
    pub fn new(name: impl Into<String>) -> Self {
        HardTanh {
            name: name.into(),
            cache: None,
        }
    }
}

impl Layer for HardTanh {
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
        LayerKind::Activation
    }

    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        self.cache = Some(Mask::of(x, unit_interval));
        x.map(|v| v.clamp(-1.0, 1.0))
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        take_cache(&mut self.cache, &self.name).apply(dy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_tensor::Shape;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(Shape::d1(n), v)
    }

    #[test]
    fn sign_forward_matches_eq1() {
        let mut s = SignSte::new("sign");
        let y = s.forward(&t(vec![-2.0, -0.1, 0.0, 0.1, 2.0]), Mode::Train);
        assert_eq!(y.as_slice(), &[-1.0, -1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn sign_backward_clips_outside_unit_interval() {
        let mut s = SignSte::new("sign");
        let x = t(vec![-2.0, -1.0, 0.0, 1.0, 2.0]);
        let _ = s.forward(&x, Mode::Train);
        let dx = s.backward(&t(vec![1.0; 5]));
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn sign_matches_bitpack_convention() {
        // The nn sign and the bit-packing sign must agree on every input,
        // including the ±0 ties — otherwise training-time inference and
        // deployed inference diverge.
        let mut s = SignSte::new("sign");
        let xs = vec![-1.5f32, -0.0, 0.0, 1e-30, -1e-30, 3.0];
        let y = s.forward(&t(xs.clone()), Mode::Train);
        for (x, y) in xs.iter().zip(y.as_slice()) {
            assert_eq!(*y, bcp_bitpack::pack::sign_f32(*x));
        }
    }

    #[test]
    fn relu_forward_backward() {
        let mut r = Relu::new("relu");
        let x = t(vec![-1.0, 0.0, 2.0]);
        let y = r.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
        let dx = r.backward(&t(vec![5.0, 5.0, 5.0]));
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn hardtanh_saturates() {
        let mut h = HardTanh::new("ht");
        let x = t(vec![-3.0, -0.5, 0.5, 3.0]);
        let y = h.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[-1.0, -0.5, 0.5, 1.0]);
        let dx = h.backward(&t(vec![1.0; 4]));
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 1.0, 0.0]);
    }
}
