//! Flattening between the convolutional trunk and the dense head.

use crate::layer::{take_cache, Layer, LayerKind, Mode};
use bcp_tensor::{Shape, Tensor};

/// Reshape `N×C×H×W` → `N×(C·H·W)` (and route gradients back).
pub struct Flatten {
    name: String,
    cache_shape: Option<Shape>,
}

impl Flatten {
    /// New flatten layer.
    pub fn new(name: impl Into<String>) -> Self {
        Flatten {
            name: name.into(),
            cache_shape: None,
        }
    }
}

impl Layer for Flatten {
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
        assert_eq!(
            x.shape().rank(),
            4,
            "Flatten expects NCHW, got {}",
            x.shape()
        );
        let n = x.shape().dim(0);
        let f = x.numel() / n;
        self.cache_shape = Some(x.shape().clone());
        x.reshaped(Shape::d2(n, f))
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let shape = take_cache(&mut self.cache_shape, &self.name);
        dy.reshaped(shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut fl = Flatten::new("flatten");
        let x = Tensor::from_vec(Shape::nchw(2, 2, 1, 2), (0..8).map(|i| i as f32).collect());
        let y = fl.forward(&x, Mode::Train);
        assert_eq!(y.shape().dims(), &[2, 4]);
        let dx = fl.backward(&y);
        assert_eq!(dx, x);
    }
}
