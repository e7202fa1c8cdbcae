//! Fully-connected layers: float [`Linear`] and [`BinaryLinear`] with latent
//! weights.

use crate::layer::{take_cache, Layer, LayerKind, Mode};
use crate::param::Param;
use bcp_tensor::init::kaiming;
use bcp_tensor::matmul::{matmul, matmul_ta, matmul_tb};
use bcp_tensor::{Shape, Tensor};

/// `y = x·Wᵀ (+ b)` with `x: N×F_in`, `W: F_out×F_in`.
pub struct Linear {
    name: String,
    weight: Param,
    bias: Option<Param>,
    cache_x: Option<Tensor>,
}

impl Linear {
    /// Kaiming-initialised dense layer.
    pub fn new(name: impl Into<String>, f_in: usize, f_out: usize, bias: bool, seed: u64) -> Self {
        let w = kaiming(Shape::d2(f_out, f_in), f_in, seed);
        Linear {
            name: name.into(),
            weight: Param::new("weight", w),
            bias: bias.then(|| Param::new("bias", Tensor::zeros(Shape::d1(f_out)))),
            cache_x: None,
        }
    }

    /// Output feature count.
    pub fn f_out(&self) -> usize {
        self.weight.shape().dim(0)
    }

    /// Input feature count.
    pub fn f_in(&self) -> usize {
        self.weight.shape().dim(1)
    }

    /// Read-only weight access (deployment export).
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }
}

/// Shared forward/backward math for both dense layers. `w_eff` is the weight
/// actually multiplied (latent for [`Linear`], binarized for
/// [`BinaryLinear`]).
fn dense_forward(x: &Tensor, w_eff: &Tensor, bias: Option<&Param>) -> Tensor {
    assert_eq!(
        x.shape().rank(),
        2,
        "dense input must be N×F, got {}",
        x.shape()
    );
    let mut y = matmul_tb(x, w_eff); // (N×Fi)·(Fo×Fi)ᵀ = N×Fo
    if let Some(b) = bias {
        let f_out = b.value.numel();
        let n = y.shape().dim(0);
        let ys = y.as_mut_slice();
        for r in 0..n {
            for (c, &bv) in b.value.as_slice().iter().enumerate() {
                ys[r * f_out + c] += bv;
            }
        }
    }
    y
}

/// Returns (dW, dx) and accumulates db into `bias` when present.
fn dense_backward(
    x: &Tensor,
    w_eff: &Tensor,
    dy: &Tensor,
    bias: Option<&mut Param>,
) -> (Tensor, Tensor) {
    let dw = matmul_ta(dy, x); // (N×Fo)ᵀ·(N×Fi) = Fo×Fi
    let dx = matmul(dy, w_eff); // (N×Fo)·(Fo×Fi) = N×Fi
    if let Some(b) = bias {
        let f_out = b.value.numel();
        let n = dy.shape().dim(0);
        let mut db = Tensor::zeros(Shape::d1(f_out));
        for r in 0..n {
            for c in 0..f_out {
                db.as_mut_slice()[c] += dy.as_slice()[r * f_out + c];
            }
        }
        b.accumulate_grad(&db);
    }
    (dw, dx)
}

impl Layer for Linear {
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
        let y = dense_forward(x, &self.weight.value, self.bias.as_ref());
        self.cache_x = Some(x.clone());
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = take_cache(&mut self.cache_x, &self.name);
        let (dw, dx) = dense_backward(&x, &self.weight.value, dy, self.bias.as_mut());
        self.weight.accumulate_grad(&dw);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }
}

/// Dense layer with binarized weights: forward multiplies `sign(W)`, the
/// backward pass applies the straight-through estimator so the latent `W`
/// receives the binary weight's gradient unchanged (paper Sec. III-A).
///
/// No bias — in the BinaryCoP stack every dense layer is followed by
/// batch-norm (whose β subsumes a bias) except the final logits layer, which
/// FINN also implements bias-free.
pub struct BinaryLinear {
    name: String,
    weight: Param,
    cache: Option<(Tensor, Tensor)>, // (x, sign(W))
}

impl BinaryLinear {
    /// Kaiming-initialised latent weights, unit-clipped by the optimizer.
    pub fn new(name: impl Into<String>, f_in: usize, f_out: usize, seed: u64) -> Self {
        let w = kaiming(Shape::d2(f_out, f_in), f_in, seed);
        BinaryLinear {
            name: name.into(),
            weight: Param::latent("weight", w),
            cache: None,
        }
    }

    /// Latent weights (export/tests).
    pub fn latent_weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Binarized weights by the Eq. 1 sign convention.
    pub fn binary_weight(&self) -> Tensor {
        self.weight.value.map(|w| if w >= 0.0 { 1.0 } else { -1.0 })
    }

    /// Output feature count.
    pub fn f_out(&self) -> usize {
        self.weight.shape().dim(0)
    }

    /// Input feature count.
    pub fn f_in(&self) -> usize {
        self.weight.shape().dim(1)
    }
}

impl Layer for BinaryLinear {
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
        let wb = self.binary_weight();
        let y = dense_forward(x, &wb, None);
        self.cache = Some((x.clone(), wb));
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (x, wb) = take_cache(&mut self.cache, &self.name);
        // STE: d(sign(W))/dW ≈ 1, so the latent gradient is the binary one.
        let (dw, dx) = dense_backward(&x, &wb, dy, None);
        self.weight.accumulate_grad(&dw);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_tensor::init::uniform;

    #[test]
    fn linear_forward_known() {
        let mut l = Linear::new("fc", 2, 2, true, 0);
        l.weight.value = Tensor::from_vec(Shape::d2(2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        if let Some(b) = &mut l.bias {
            b.value = Tensor::from_vec(Shape::d1(2), vec![10.0, 20.0]);
        }
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![1.0, 1.0]);
        let y = l.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[13.0, 27.0]);
    }

    #[test]
    fn linear_gradients_match_finite_difference() {
        let mut l = Linear::new("fc", 3, 2, true, 1);
        let x = uniform(Shape::d2(4, 3), -1.0, 1.0, 2);
        let y = l.forward(&x, Mode::Train);
        let dy = Tensor::ones(y.shape().clone());
        let dx = l.backward(&dy);
        let eps = 1e-3f32;

        // Weight grad check at a probe index.
        let probe = 4usize;
        let analytic = l.weight.grad.as_slice()[probe];
        let mut lp = Linear::new("fc", 3, 2, true, 1);
        lp.weight.value.as_mut_slice()[probe] += eps;
        let fp: f32 = lp.forward(&x, Mode::Train).as_slice().iter().sum();
        let mut lm = Linear::new("fc", 3, 2, true, 1);
        lm.weight.value.as_mut_slice()[probe] -= eps;
        let fm: f32 = lm.forward(&x, Mode::Train).as_slice().iter().sum();
        let numeric = (fp - fm) / (2.0 * eps);
        assert!(
            (numeric - analytic).abs() < 1e-2,
            "dW {numeric} vs {analytic}"
        );

        // Input grad check.
        let probe = 7usize;
        let mut xp = x.clone();
        xp.as_mut_slice()[probe] += eps;
        let mut l2 = Linear::new("fc", 3, 2, true, 1);
        let fp: f32 = l2.forward(&xp, Mode::Train).as_slice().iter().sum();
        let mut xm = x.clone();
        xm.as_mut_slice()[probe] -= eps;
        let mut l3 = Linear::new("fc", 3, 2, true, 1);
        let fm: f32 = l3.forward(&xm, Mode::Train).as_slice().iter().sum();
        let numeric = (fp - fm) / (2.0 * eps);
        assert!((numeric - dx.as_slice()[probe]).abs() < 1e-2);

        // Bias grad: dL/db_c = N for sum loss.
        l.visit_params(&mut |p| {
            if p.name == "bias" {
                assert_eq!(p.grad.as_slice(), &[4.0, 4.0]);
            }
        });
    }

    #[test]
    fn binary_linear_multiplies_signs_only() {
        let mut l = BinaryLinear::new("bfc", 2, 1, 0);
        l.weight.value = Tensor::from_vec(Shape::d2(1, 2), vec![0.3, -0.7]);
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![2.0, 5.0]);
        let y = l.forward(&x, Mode::Train);
        // sign weights = [+1, −1] → y = 2 − 5.
        assert_eq!(y.as_slice(), &[-3.0]);
    }

    #[test]
    fn binary_linear_ste_passes_gradient_to_latent() {
        let mut l = BinaryLinear::new("bfc", 2, 1, 0);
        l.weight.value = Tensor::from_vec(Shape::d2(1, 2), vec![0.3, -0.7]);
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![2.0, 5.0]);
        let _ = l.forward(&x, Mode::Train);
        let dy = Tensor::from_vec(Shape::d2(1, 1), vec![1.0]);
        let dx = l.backward(&dy);
        // dW = dy·x (as if weights were the binary ones) → latent grads.
        assert_eq!(l.weight.grad.as_slice(), &[2.0, 5.0]);
        // dx = dy·W_b = [+1, −1].
        assert_eq!(dx.as_slice(), &[1.0, -1.0]);
    }

    #[test]
    fn binary_linear_is_latent_clipped_param() {
        let mut l = BinaryLinear::new("bfc", 4, 4, 0);
        let mut saw = 0;
        l.visit_params(&mut |p| {
            assert!(p.clip_unit);
            saw += 1;
        });
        assert_eq!(saw, 1);
        assert_eq!(l.param_count(), 16);
    }

    #[test]
    #[should_panic(expected = "without a cached forward")]
    fn backward_without_forward_panics() {
        let mut l = Linear::new("fc", 2, 2, false, 0);
        l.backward(&Tensor::zeros(Shape::d2(1, 2)));
    }
}
