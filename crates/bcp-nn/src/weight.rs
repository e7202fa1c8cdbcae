//! The weight of a conv or dense layer and the form it is multiplied in.
//!
//! One convolution and one dense layer serve all three networks the paper
//! trains: the BNN (Sec. III-A, `sign(W)`), the XNOR-Net alternative that
//! Sec. II-B weighs and rejects (`α·sign(W)`), and the FP32 CNV of the
//! Grad-CAM comparison (Sec. III-C, `W`). [`Weight`] is the one place that
//! reads the form. Both binary forms keep `W` as a latent, unit-clipped
//! parameter. Their backward pass is the straight-through estimator:
//! `W` receives the gradient of the weight that was multiplied, unchanged
//! (for `α·sign(W)` that is XNOR-Net's dominant `α·dY` term, with α held
//! fixed).

use crate::param::Param;
use bcp_tensor::Tensor;
use std::borrow::Cow;

/// How a layer turns its stored weight `W` into the weight it multiplies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WeightForm {
    /// `W` itself: the FP32 baseline of the Grad-CAM comparison.
    Float,
    /// `sign(W)` by the Eq. 1 convention (ties at 0 → +1): the paper's
    /// BNN, the only form FINN maps onto XNOR-popcount.
    #[default]
    Sign,
    /// `α·sign(W)` with α = mean(|W|) per output channel: XNOR-Net, a
    /// training ablation only (deployment refuses it).
    ScaledSign,
}

/// A stored weight `W` (leading dimension = output channels) and its form.
pub(crate) struct Weight {
    pub(crate) form: WeightForm,
    pub(crate) param: Param,
}

impl Weight {
    /// `W` as a parameter: latent and unit-clipped for both binary forms.
    pub(crate) fn new(form: WeightForm, w: Tensor) -> Self {
        let param = match form {
            WeightForm::Float => Param::new("weight", w),
            WeightForm::Sign | WeightForm::ScaledSign => Param::latent("weight", w),
        };
        Weight { form, param }
    }

    /// The weight the layer multiplies: `W` (borrowed, never copied),
    /// `sign(W)` or `α·sign(W)`.
    pub(crate) fn effective(&self) -> Cow<'_, Tensor> {
        let w = &self.param.value;
        match self.form {
            WeightForm::Float => Cow::Borrowed(w),
            WeightForm::Sign => Cow::Owned(w.map(|v| if v >= 0.0 { 1.0 } else { -1.0 })),
            WeightForm::ScaledSign => {
                let mut out = w.clone();
                let per = w.numel() / w.shape().dim(0);
                for row in out.as_mut_slice().chunks_exact_mut(per) {
                    let a = row.iter().map(|v| v.abs()).sum::<f32>() / per as f32;
                    for v in row {
                        *v = if *v >= 0.0 { a } else { -a };
                    }
                }
                Cow::Owned(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_tensor::Shape;

    fn effective(form: WeightForm, shape: Vec<usize>, w: Vec<f32>) -> Vec<f32> {
        let w = Weight::new(form, Tensor::from_vec(Shape(shape), w));
        w.effective().as_slice().to_vec()
    }

    #[test]
    fn alphas_are_mean_abs_per_channel() {
        // Rows [0.5, −0.25] and [−0.125, 0.125]: α = 0.375 and 0.125.
        let eff = effective(
            WeightForm::ScaledSign,
            vec![2, 2],
            vec![0.5, -0.25, -0.125, 0.125],
        );
        assert_eq!(eff, vec![0.375, -0.375, -0.125, 0.125]);
    }

    #[test]
    fn effective_weight_is_scaled_sign() {
        let eff = effective(
            WeightForm::ScaledSign,
            vec![1, 1, 2, 2],
            vec![0.4, -0.2, 0.1, -0.1],
        );
        // α = mean(|w|) = 0.2; signs +,−,+,−.
        for (got, want) in eff.iter().zip([0.2f32, -0.2, 0.2, -0.2]) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn each_form_decides_latent_storage_and_the_multiplied_weight() {
        let w = vec![0.5, -0.5, 0.0, -0.0];
        for (form, latent, want) in [
            (WeightForm::Float, false, w.clone()),
            (WeightForm::Sign, true, vec![1.0, -1.0, 1.0, 1.0]),
            (WeightForm::ScaledSign, true, vec![0.25, -0.25, 0.25, 0.25]),
        ] {
            let weight = Weight::new(form, Tensor::from_vec(Shape::d2(1, 4), w.clone()));
            assert_eq!(weight.param.clip_unit, latent, "{form:?}");
            let eff = weight.effective();
            assert_eq!(matches!(eff, Cow::Borrowed(_)), form == WeightForm::Float);
            let bits: Vec<u32> = eff.as_slice().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, want, "{form:?}");
        }
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
