//! Max-pooling layer (routes gradients through argmax bookkeeping).

use crate::layer::{take_cache, Layer, LayerKind, Mode};
use bcp_tensor::{maxpool2d_backward, maxpool2d_forward, MaxPoolSpec, Shape, Tensor};

/// 2-D max-pooling. BinaryCoP applies it after the sign activation, so the
/// pooled maps are binary and the hardware can pool with a boolean OR
/// (paper Sec. III-B); this float layer is the training-time reference.
pub struct MaxPool2d {
    name: String,
    spec: MaxPoolSpec,
    cache: Option<(Vec<usize>, Shape)>,
}

impl MaxPool2d {
    /// New pooling layer.
    pub fn new(name: impl Into<String>, spec: MaxPoolSpec) -> Self {
        MaxPool2d {
            name: name.into(),
            spec,
            cache: None,
        }
    }

    /// The paper's 2×2/stride-2 pool.
    pub fn two_by_two(name: impl Into<String>) -> Self {
        Self::new(name, MaxPoolSpec::two_by_two())
    }

    /// Pool geometry.
    pub fn spec(&self) -> MaxPoolSpec {
        self.spec
    }
}

impl Layer for MaxPool2d {
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
        LayerKind::Pool
    }

    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        let (y, argmax) = maxpool2d_forward(x, self.spec);
        self.cache = Some((argmax, x.shape().clone()));
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (argmax, in_shape) = take_cache(&mut self.cache, &self.name);
        maxpool2d_backward(dy, &argmax, &in_shape)
    }
}

/// Global average pooling: `N×C×H×W → N×C`.
///
/// BinaryCoP's networks do **not** use this (Sec. III-C explains that the
/// 32×32 models reduce spatial extent without a GAP head, which is why the
/// paper needs Grad-CAM instead of CAM); it exists to build the CAM-headed
/// comparison models that validate our Grad-CAM implementation — for a
/// GAP→FC head, CAM and Grad-CAM provably coincide.
pub struct GlobalAvgPool {
    name: String,
    cache_shape: Option<Shape>,
}

impl GlobalAvgPool {
    /// New GAP layer.
    pub fn new(name: impl Into<String>) -> Self {
        GlobalAvgPool {
            name: name.into(),
            cache_shape: None,
        }
    }
}

impl Layer for GlobalAvgPool {
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
        LayerKind::Pool
    }

    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        assert_eq!(x.shape().rank(), 4, "GAP expects NCHW, got {}", x.shape());
        let (n, c, h, w) = (
            x.shape().dim(0),
            x.shape().dim(1),
            x.shape().dim(2),
            x.shape().dim(3),
        );
        let plane = (h * w) as f32;
        let src = x.as_slice();
        let mut out = vec![0.0f32; n * c];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                out[ni * c + ci] = src[base..base + h * w].iter().sum::<f32>() / plane;
            }
        }
        self.cache_shape = Some(x.shape().clone());
        Tensor::from_vec(Shape::d2(n, c), out)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let shape = take_cache(&mut self.cache_shape, &self.name);
        let (n, c, h, w) = (shape.dim(0), shape.dim(1), shape.dim(2), shape.dim(3));
        let plane = (h * w) as f32;
        let g = dy.as_slice();
        let mut dx = vec![0.0f32; shape.numel()];
        for ni in 0..n {
            for ci in 0..c {
                let v = g[ni * c + ci] / plane;
                let base = (ni * c + ci) * h * w;
                dx[base..base + h * w].fill(v);
            }
        }
        Tensor::from_vec(shape, dx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_averages_planes() {
        let mut gap = GlobalAvgPool::new("gap");
        let x = Tensor::from_vec(
            Shape::nchw(1, 2, 2, 2),
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0],
        );
        let y = gap.forward(&x, Mode::Eval);
        assert_eq!(y.shape().dims(), &[1, 2]);
        assert_eq!(y.as_slice(), &[2.5, 10.0]);
        // Backward spreads the gradient uniformly, scaled by 1/(H·W).
        let dx = gap.backward(&Tensor::from_vec(Shape::d2(1, 2), vec![4.0, 8.0]));
        assert_eq!(dx.as_slice(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn gap_gradient_checks_numerically() {
        let x = bcp_tensor::init::uniform(Shape::nchw(2, 3, 4, 4), -1.0, 1.0, 7);
        let report =
            crate::gradcheck::check_input_gradient(|| GlobalAvgPool::new("gap"), &x, 1e-2, 6);
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn layer_wraps_kernel() {
        let mut p = MaxPool2d::two_by_two("pool1");
        let x = Tensor::from_vec(Shape::nchw(1, 1, 2, 2), vec![1.0, 4.0, 2.0, 3.0]);
        let y = p.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[4.0]);
        let dx = p.backward(&Tensor::from_vec(y.shape().clone(), vec![7.0]));
        assert_eq!(dx.as_slice(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn halves_spatial_dims() {
        let mut p = MaxPool2d::two_by_two("pool");
        let x = Tensor::zeros(Shape::nchw(2, 3, 28, 28));
        let y = p.forward(&x, Mode::Eval);
        assert_eq!(y.shape().dims(), &[2, 3, 14, 14]);
    }
}
