//! The fully-connected layer, in any [`WeightForm`].

use crate::layer::{take_cache, Layer, LayerKind, Mode, SavedInput};
use crate::param::Param;
use crate::weight::{Weight, WeightForm};
use bcp_tensor::init::kaiming;
use bcp_tensor::matmul::{matmul, matmul_ta, matmul_tb};
use bcp_tensor::{Shape, Tensor};
use std::borrow::Cow;

/// `y = x·Wₑᵀ (+ b)` with `x: N×F_in`, `W: F_out×F_in` and `Wₑ` the weight
/// of its [`WeightForm`].
///
/// The BNN's dense layers are bias-free: each is followed by batch-norm
/// (whose β subsumes a bias) except the final logits layer, which FINN also
/// implements bias-free.
///
/// Backward needs `x` (as bits when it is ±1) and re-derives `Wₑ` from
/// `W`, which does not change in between.
pub struct Linear {
    name: String,
    weight: Weight,
    bias: Option<Param>,
    cache: Option<SavedInput>,
}

impl Linear {
    /// Kaiming-initialised dense layer.
    pub fn new(
        name: impl Into<String>,
        f_in: usize,
        f_out: usize,
        form: WeightForm,
        bias: bool,
        seed: u64,
    ) -> Self {
        let w = kaiming(Shape::d2(f_out, f_in), f_in, seed);
        Linear {
            name: name.into(),
            weight: Weight::new(form, w),
            bias: bias.then(|| Param::new("bias", Tensor::zeros(Shape::d1(f_out)))),
            cache: None,
        }
    }

    /// How the stored weight is multiplied.
    pub fn form(&self) -> WeightForm {
        self.weight.form
    }

    /// Whether the layer adds a bias.
    pub fn has_bias(&self) -> bool {
        self.bias.is_some()
    }

    /// The weight the forward pass multiplies: `W`, `sign(W)` or
    /// `α·sign(W)`.
    pub fn effective_weight(&self) -> Cow<'_, Tensor> {
        self.weight.effective()
    }
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
        assert_eq!(
            x.shape().rank(),
            2,
            "dense input must be N×F, got {}",
            x.shape()
        );
        let mut y = matmul_tb(x, &self.weight.effective()); // (N×Fi)·(Fo×Fi)ᵀ = N×Fo
        if let Some(b) = &self.bias {
            for row in y.as_mut_slice().chunks_exact_mut(b.value.numel()) {
                for (v, &bv) in row.iter_mut().zip(b.value.as_slice()) {
                    *v += bv;
                }
            }
        }
        self.cache = Some(SavedInput::of(x));
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = take_cache(&mut self.cache, &self.name).into_tensor();
        let dw = matmul_ta(dy, &x); // (N×Fo)ᵀ·(N×Fi) = Fo×Fi
        self.weight.param.accumulate_grad(&dw);
        if let Some(b) = &mut self.bias {
            let mut db = Tensor::zeros(Shape::d1(b.value.numel()));
            for row in dy.as_slice().chunks_exact(db.numel()) {
                for (g, &d) in db.as_mut_slice().iter_mut().zip(row) {
                    *g += d;
                }
            }
            b.accumulate_grad(&db);
        }
        matmul(dy, &self.weight.effective()) // (N×Fo)·(Fo×Fi) = N×Fi
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight.param);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_tensor::init::uniform;

    #[test]
    fn linear_forward_known() {
        let mut l = Linear::new("fc", 2, 2, WeightForm::Float, true, 0);
        l.weight.param.value = Tensor::from_vec(Shape::d2(2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        if let Some(b) = &mut l.bias {
            b.value = Tensor::from_vec(Shape::d1(2), vec![10.0, 20.0]);
        }
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![1.0, 1.0]);
        let y = l.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[13.0, 27.0]);
    }

    #[test]
    fn linear_gradients_match_finite_difference() {
        let mut l = Linear::new("fc", 3, 2, WeightForm::Float, true, 1);
        let x = uniform(Shape::d2(4, 3), -1.0, 1.0, 2);
        let y = l.forward(&x, Mode::Train);
        let dy = Tensor::ones(y.shape().clone());
        let dx = l.backward(&dy);
        let eps = 1e-3f32;

        // Weight grad check at a probe index.
        let probe = 4usize;
        let analytic = l.weight.param.grad.as_slice()[probe];
        let mut lp = Linear::new("fc", 3, 2, WeightForm::Float, true, 1);
        lp.weight.param.value.as_mut_slice()[probe] += eps;
        let fp: f32 = lp.forward(&x, Mode::Train).as_slice().iter().sum();
        let mut lm = Linear::new("fc", 3, 2, WeightForm::Float, true, 1);
        lm.weight.param.value.as_mut_slice()[probe] -= eps;
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
        let mut l2 = Linear::new("fc", 3, 2, WeightForm::Float, true, 1);
        let fp: f32 = l2.forward(&xp, Mode::Train).as_slice().iter().sum();
        let mut xm = x.clone();
        xm.as_mut_slice()[probe] -= eps;
        let mut l3 = Linear::new("fc", 3, 2, WeightForm::Float, true, 1);
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
        let mut l = Linear::new("bfc", 2, 1, WeightForm::Sign, false, 0);
        l.weight.param.value = Tensor::from_vec(Shape::d2(1, 2), vec![0.3, -0.7]);
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![2.0, 5.0]);
        let y = l.forward(&x, Mode::Train);
        // sign weights = [+1, −1] → y = 2 − 5.
        assert_eq!(y.as_slice(), &[-3.0]);
    }

    #[test]
    fn binary_linear_ste_passes_gradient_to_latent() {
        let mut l = Linear::new("bfc", 2, 1, WeightForm::Sign, false, 0);
        l.weight.param.value = Tensor::from_vec(Shape::d2(1, 2), vec![0.3, -0.7]);
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![2.0, 5.0]);
        let _ = l.forward(&x, Mode::Train);
        let dy = Tensor::from_vec(Shape::d2(1, 1), vec![1.0]);
        let dx = l.backward(&dy);
        // dW = dy·x (as if weights were the binary ones) → latent grads.
        assert_eq!(l.weight.param.grad.as_slice(), &[2.0, 5.0]);
        // dx = dy·W_b = [+1, −1].
        assert_eq!(dx.as_slice(), &[1.0, -1.0]);
    }

    #[test]
    fn binary_linear_is_latent_clipped_param() {
        let mut l = Linear::new("bfc", 4, 4, WeightForm::Sign, false, 0);
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
        let mut l = Linear::new("fc", 2, 2, WeightForm::Float, false, 0);
        l.backward(&Tensor::zeros(Shape::d2(1, 2)));
    }

    #[test]
    fn scaled_linear_forward_backward_shapes() {
        let mut l = Linear::new("sl", 4, 3, WeightForm::ScaledSign, false, 1);
        let x = uniform(Shape::d2(2, 4), -1.0, 1.0, 2);
        let y = l.forward(&x, Mode::Train);
        assert_eq!(y.shape().dims(), &[2, 3]);
        let dx = l.backward(&Tensor::ones(y.shape().clone()));
        assert_eq!(dx.shape(), x.shape());
        let mut grads = 0;
        l.visit_params(&mut |p| grads += p.grad.as_slice().iter().filter(|v| **v != 0.0).count());
        assert!(grads > 0);
    }
}
