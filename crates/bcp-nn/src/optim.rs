//! The optimizer: Adam, with BinaryConnect latent-weight clipping, and a
//! step-decay learning-rate schedule.
//! [`Sequential::step`](crate::sequential::Sequential::step) applies it.
//!
//! Parameters flagged `clip_unit` (the latent weights of binary layers) are
//! clamped to [−1, 1] after each update; a latent weight that drifts outside
//! the unit interval binarizes identically while never changing sign again,
//! so clipping keeps every weight responsive to future gradients.

use crate::param::Param;

/// Adam [Kingma & Ba 2015] — the optimizer Courbariaux/Hubara used for
/// BinaryNet-style training; bias-corrected first/second moments.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// Step counter (1-based once stepping starts).
    t: u64,
}

impl Adam {
    /// Adam with the canonical (0.9, 0.999, 1e-8) constants.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }

    /// Apply one update step to a single parameter.
    pub(crate) fn update(&mut self, p: &mut Param) {
        // `update` may be called directly (per-param); treat each call as
        // belonging to step t+1 until `advance` confirms it.
        let t = (self.t + 1) as f32;
        let (b1, b2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        {
            let (m, _, grad) = p.slot_value_grad(0);
            let gs: Vec<f32> = grad.as_slice().to_vec();
            for (mi, g) in m.as_mut_slice().iter_mut().zip(&gs) {
                *mi = b1 * *mi + (1.0 - b1) * g;
            }
        }
        {
            let (v, _, grad) = p.slot_value_grad(1);
            let gs: Vec<f32> = grad.as_slice().to_vec();
            for (vi, g) in v.as_mut_slice().iter_mut().zip(&gs) {
                *vi = b2 * *vi + (1.0 - b2) * g * g;
            }
        }
        let bias1 = 1.0 - b1.powf(t);
        let bias2 = 1.0 - b2.powf(t);
        let m = p.opt_state[0].as_slice().to_vec();
        let v = p.opt_state[1].as_slice().to_vec();
        for ((w, &mi), &vi) in p.value.as_mut_slice().iter_mut().zip(&m).zip(&v) {
            let mhat = mi / bias1;
            let vhat = vi / bias2;
            *w -= lr * mhat / (vhat.sqrt() + eps);
        }
        if p.clip_unit {
            p.value.map_inplace(|v| v.clamp(-1.0, 1.0));
        }
    }

    /// Advance the step counter after a whole-network step.
    pub(crate) fn advance(&mut self) {
        self.t += 1;
    }

    /// Current learning rate (for logging).
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Override the learning rate (schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Step-decay learning-rate schedule: multiply the LR by `factor` every
/// `every` epochs.
#[derive(Clone, Copy, Debug)]
pub struct StepDecay {
    /// Initial learning rate.
    pub base_lr: f32,
    /// Decay multiplier.
    pub factor: f32,
    /// Epoch interval.
    pub every: usize,
}

impl StepDecay {
    /// LR at a given (0-based) epoch.
    pub fn lr_at(&self, epoch: usize) -> f32 {
        self.base_lr * self.factor.powi((epoch / self.every.max(1)) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_tensor::{Shape, Tensor};

    fn param_with_grad(v: f32, g: f32) -> Param {
        let mut p = Param::new("w", Tensor::from_vec(Shape::d1(1), vec![v]));
        p.grad = Tensor::from_vec(Shape::d1(1), vec![g]);
        p
    }

    #[test]
    fn latent_params_are_clipped() {
        // Adam's first step is ≈ lr·sign(−g): it pushes 0.5 to about 10.5.
        let mut opt = Adam::new(10.0);
        let mut p = param_with_grad(0.5, -1.0);
        p.clip_unit = true;
        opt.update(&mut p);
        assert_eq!(p.value.as_slice()[0], 1.0);
    }

    #[test]
    fn non_latent_params_not_clipped() {
        let mut opt = Adam::new(10.0);
        let mut p = param_with_grad(0.5, -1.0);
        opt.update(&mut p);
        assert!((p.value.as_slice()[0] - 10.5).abs() < 1e-5);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the first Adam step ≈ lr·sign(g).
        let mut opt = Adam::new(0.01);
        let mut p = param_with_grad(0.0, 3.0);
        opt.update(&mut p);
        opt.advance();
        assert!((p.value.as_slice()[0] + 0.01).abs() < 1e-4);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimise (w − 3)² with analytic gradient.
        let mut opt = Adam::new(0.1);
        let mut p = param_with_grad(0.0, 0.0);
        for _ in 0..500 {
            let w = p.value.as_slice()[0];
            p.grad = Tensor::from_vec(Shape::d1(1), vec![2.0 * (w - 3.0)]);
            opt.update(&mut p);
            opt.advance();
        }
        assert!((p.value.as_slice()[0] - 3.0).abs() < 0.05);
    }

    #[test]
    fn step_decay_schedule() {
        let s = StepDecay {
            base_lr: 1.0,
            factor: 0.5,
            every: 10,
        };
        assert_eq!(s.lr_at(0), 1.0);
        assert_eq!(s.lr_at(9), 1.0);
        assert_eq!(s.lr_at(10), 0.5);
        assert_eq!(s.lr_at(25), 0.25);
    }
}
