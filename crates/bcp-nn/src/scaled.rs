//! XNOR-Net-style scaled binary layers (the alternative of Sec. II-B).
//!
//! Rastegari et al. approximate `W ≈ α·sign(W)` with a per-output-channel
//! scaling factor `α = mean(|W|)`, recovering some information capacity at
//! the cost of extra multipliers at deployment time. The paper argues that
//! for the low-scene-complexity mask task the plain BNN form suffices;
//! these layers exist to *test* that choice (see the `ablations` bench and
//! the recipe comparisons) rather than to be deployed — the FINN exporter
//! intentionally rejects them.
//!
//! Gradients: the forward uses `α·sign(W)`; the backward follows XNOR-Net
//! in passing the output gradient through the binarization (STE) while
//! treating α as a function of `W` only through its mean — in practice the
//! dominant `α·dY` term, which is what we implement.

use crate::layer::{take_cache, Layer, LayerKind, Mode};
use crate::param::Param;
use bcp_tensor::init::kaiming;
use bcp_tensor::matmul::{matmul, matmul_ta, matmul_tb};
use bcp_tensor::{
    conv2d_backward_input, conv2d_backward_weight, conv2d_forward, Conv2dSpec, Shape, Tensor,
};

/// Per-output-channel α = mean(|W|) over each weight row/filter.
fn channel_alphas(w: &Tensor, c_out: usize) -> Vec<f32> {
    let per = w.numel() / c_out;
    let src = w.as_slice();
    (0..c_out)
        .map(|o| {
            let row = &src[o * per..(o + 1) * per];
            row.iter().map(|v| v.abs()).sum::<f32>() / per as f32
        })
        .collect()
}

/// Binarize with per-channel scaling: `α_o · sign(w)`.
fn scaled_sign(w: &Tensor, alphas: &[f32]) -> Tensor {
    let c_out = alphas.len();
    let per = w.numel() / c_out;
    let mut out = w.clone();
    for (o, &a) in alphas.iter().enumerate() {
        for v in &mut out.as_mut_slice()[o * per..(o + 1) * per] {
            *v = if *v >= 0.0 { a } else { -a };
        }
    }
    out
}

/// XNOR-Net convolution: `y = conv(x, α·sign(W))`.
pub struct ScaledBinaryConv2d {
    name: String,
    spec: Conv2dSpec,
    weight: Param,
    cache: Option<(Tensor, Tensor, (usize, usize))>,
}

impl ScaledBinaryConv2d {
    /// Kaiming-initialised latent weights.
    pub fn new(name: impl Into<String>, spec: Conv2dSpec, seed: u64) -> Self {
        let fan_in = spec.c_in * spec.window.k * spec.window.k;
        let w = kaiming(spec.weight_shape(), fan_in, seed);
        ScaledBinaryConv2d {
            name: name.into(),
            spec,
            weight: Param::latent("weight", w),
            cache: None,
        }
    }

    /// Current per-channel scaling factors.
    pub fn alphas(&self) -> Vec<f32> {
        channel_alphas(&self.weight.value, self.spec.c_out)
    }

    /// The effective (scaled binary) weights.
    pub fn effective_weight(&self) -> Tensor {
        scaled_sign(&self.weight.value, &self.alphas())
    }
}

impl Layer for ScaledBinaryConv2d {
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
        let wb = self.effective_weight();
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

/// XNOR-Net dense layer: `y = x · (α·sign(W))ᵀ`.
pub struct ScaledBinaryLinear {
    name: String,
    f_out: usize,
    weight: Param,
    cache: Option<(Tensor, Tensor)>,
}

impl ScaledBinaryLinear {
    /// Kaiming-initialised latent weights.
    pub fn new(name: impl Into<String>, f_in: usize, f_out: usize, seed: u64) -> Self {
        let w = kaiming(Shape::d2(f_out, f_in), f_in, seed);
        ScaledBinaryLinear {
            name: name.into(),
            f_out,
            weight: Param::latent("weight", w),
            cache: None,
        }
    }

    /// Current per-row scaling factors.
    pub fn alphas(&self) -> Vec<f32> {
        channel_alphas(&self.weight.value, self.f_out)
    }

    /// The effective (scaled binary) weights.
    pub fn effective_weight(&self) -> Tensor {
        scaled_sign(&self.weight.value, &self.alphas())
    }
}

impl Layer for ScaledBinaryLinear {
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
        LayerKind::Dense
    }

    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        assert_eq!(x.shape().rank(), 2, "dense input must be N×F");
        let wb = self.effective_weight();
        let y = matmul_tb(x, &wb);
        self.cache = Some((x.clone(), wb));
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (x, wb) = take_cache(&mut self.cache, &self.name);
        let dw = matmul_ta(dy, &x);
        self.weight.accumulate_grad(&dw);
        matmul(dy, &wb)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphas_are_mean_abs_per_channel() {
        let spec = Conv2dSpec::new(1, 2, 1, 0);
        let mut l = ScaledBinaryConv2d::new("sc", spec, 0);
        l.visit_params(&mut |p| {
            p.value = Tensor::from_vec(Shape(vec![2, 1, 1, 1]), vec![0.5, -0.25]);
        });
        assert_eq!(l.alphas(), vec![0.5, 0.25]);
    }

    #[test]
    fn effective_weight_is_scaled_sign() {
        let spec = Conv2dSpec::new(1, 1, 2, 0);
        let mut l = ScaledBinaryConv2d::new("sc", spec, 0);
        l.visit_params(&mut |p| {
            p.value = Tensor::from_vec(Shape(vec![1, 1, 2, 2]), vec![0.4, -0.2, 0.1, -0.1]);
        });
        // α = mean(|w|) = 0.2; signs +,−,+,−.
        let eff = l.effective_weight();
        for (got, want) in eff.as_slice().iter().zip([0.2f32, -0.2, 0.2, -0.2]) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn scaled_conv_output_is_alpha_times_plain_binary() {
        use crate::conv::BinaryConv2d;
        let spec = Conv2dSpec::new(1, 1, 1, 0);
        let weights = vec![-0.6f32];
        let mut scaled = ScaledBinaryConv2d::new("s", spec, 0);
        scaled.visit_params(&mut |p| {
            p.value = Tensor::from_vec(Shape(vec![1, 1, 1, 1]), weights.clone());
        });
        let mut plain = BinaryConv2d::new("p", spec, 0);
        plain.visit_params(&mut |p| {
            p.value = Tensor::from_vec(Shape(vec![1, 1, 1, 1]), weights.clone());
        });
        let x = Tensor::from_vec(Shape::nchw(1, 1, 1, 3), vec![1.0, 2.0, 3.0]);
        let ys = scaled.forward(&x, Mode::Train);
        let yp = plain.forward(&x, Mode::Train);
        for (s, p) in ys.as_slice().iter().zip(yp.as_slice()) {
            assert!((s - 0.6 * p).abs() < 1e-6, "{s} vs α·{p}");
        }
    }

    #[test]
    fn scaled_linear_forward_backward_shapes() {
        let mut l = ScaledBinaryLinear::new("sl", 4, 3, 1);
        let x = bcp_tensor::init::uniform(Shape::d2(2, 4), -1.0, 1.0, 2);
        let y = l.forward(&x, Mode::Train);
        assert_eq!(y.shape().dims(), &[2, 3]);
        let dx = l.backward(&Tensor::ones(y.shape().clone()));
        assert_eq!(dx.shape(), x.shape());
        let mut grads = 0;
        l.visit_params(&mut |p| grads += p.grad.as_slice().iter().filter(|v| **v != 0.0).count());
        assert!(grads > 0);
    }

    #[test]
    fn scaling_approximates_latent_better_than_plain_sign() {
        // The XNOR-Net claim: ‖W − α·sign(W)‖ ≤ ‖W − sign(W)‖ (α = mean|W|
        // is the L2-optimal scalar). Check on random weights.
        let w = bcp_tensor::init::normal(Shape::d1(1000), 0.3, 5);
        let alpha: f32 = w.as_slice().iter().map(|v| v.abs()).sum::<f32>() / 1000.0;
        let err = |scale: f32| -> f32 {
            w.as_slice()
                .iter()
                .map(|v| {
                    let b = if *v >= 0.0 { scale } else { -scale };
                    (v - b) * (v - b)
                })
                .sum()
        };
        assert!(err(alpha) < err(1.0));
    }
}
