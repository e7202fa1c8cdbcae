//! Numeric gradient checking.
//!
//! Central finite differences against the analytic backward pass — the
//! standard correctness oracle for hand-written autodiff. Used by the
//! per-layer unit tests and by whole-network checks; exposed publicly so
//! downstream crates (and users adding custom layers) can verify their
//! backward implementations the same way.

use crate::layer::{Layer, Mode};
use crate::sequential::Sequential;
use bcp_tensor::Tensor;

/// Result of one gradient comparison.
#[derive(Clone, Copy, Debug)]
pub struct GradCheckReport {
    /// Largest absolute deviation found.
    pub max_abs_err: f32,
    /// Largest deviation relative to `1 + |analytic|`.
    pub max_rel_err: f32,
    /// Number of coordinates probed.
    pub probes: usize,
}

impl GradCheckReport {
    /// Whether every probe stayed within `tol` relative error.
    pub fn passes(&self, tol: f32) -> bool {
        self.max_rel_err <= tol
    }
}

/// Probe indices: ends, middle, and a deterministic scatter.
fn probe_indices(n: usize, probes: usize) -> Vec<usize> {
    assert!(n > 0, "cannot probe an empty tensor");
    let mut idx: Vec<usize> = (0..probes)
        .map(|k| (k * 2654435761usize.wrapping_add(k)) % n)
        .collect();
    idx.push(0);
    idx.push(n - 1);
    idx.push(n / 2);
    idx.sort_unstable();
    idx.dedup();
    idx
}

/// Check a single layer's **input** gradient for the scalar loss
/// `L = Σ y²/2` (so `dL/dy = y`, exercising non-uniform output gradients).
///
/// `make_layer` must build a fresh, identically-initialised layer each
/// call (finite differences re-run the forward pass from scratch).
pub fn check_input_gradient<L: Layer>(
    mut make_layer: impl FnMut() -> L,
    x: &Tensor,
    eps: f32,
    probes: usize,
) -> GradCheckReport {
    let loss = |layer: &mut L, input: &Tensor| -> f32 {
        let y = layer.forward(input, Mode::Train);
        y.as_slice().iter().map(|v| v * v / 2.0).sum()
    };
    // Analytic.
    let mut layer = make_layer();
    let y = layer.forward(x, Mode::Train);
    let dx = layer.backward(&y);
    // Numeric.
    let mut max_abs = 0.0f32;
    let mut max_rel = 0.0f32;
    let idx = probe_indices(x.numel(), probes);
    for &i in &idx {
        let mut xp = x.clone();
        xp.as_mut_slice()[i] += eps;
        let mut lp = make_layer();
        let fp = loss(&mut lp, &xp);
        let mut xm = x.clone();
        xm.as_mut_slice()[i] -= eps;
        let mut lm = make_layer();
        let fm = loss(&mut lm, &xm);
        let numeric = (fp - fm) / (2.0 * eps);
        let analytic = dx.as_slice()[i];
        let abs = (numeric - analytic).abs();
        max_abs = max_abs.max(abs);
        max_rel = max_rel.max(abs / (1.0 + analytic.abs()));
    }
    GradCheckReport {
        max_abs_err: max_abs,
        max_rel_err: max_rel,
        probes: idx.len(),
    }
}

/// Check a whole network's input gradient under `L = Σ y²/2`.
///
/// Only meaningful for networks of **smooth** layers (float convolutions,
/// batch-norm, ReLU away from kinks): sign/STE layers deliberately have a
/// surrogate gradient that finite differences cannot reproduce.
pub fn check_network_input_gradient(
    mut make_net: impl FnMut() -> Sequential,
    x: &Tensor,
    eps: f32,
    probes: usize,
) -> GradCheckReport {
    let loss = |net: &mut Sequential, input: &Tensor| -> f32 {
        let y = net.forward(input, Mode::Train);
        y.as_slice().iter().map(|v| v * v / 2.0).sum()
    };
    let mut net = make_net();
    let y = net.forward(x, Mode::Train);
    let dx = net.backward(&y);
    let mut max_abs = 0.0f32;
    let mut max_rel = 0.0f32;
    let idx = probe_indices(x.numel(), probes);
    for &i in &idx {
        let mut xp = x.clone();
        xp.as_mut_slice()[i] += eps;
        let fp = loss(&mut make_net(), &xp);
        let mut xm = x.clone();
        xm.as_mut_slice()[i] -= eps;
        let fm = loss(&mut make_net(), &xm);
        let numeric = (fp - fm) / (2.0 * eps);
        let analytic = dx.as_slice()[i];
        let abs = (numeric - analytic).abs();
        max_abs = max_abs.max(abs);
        max_rel = max_rel.max(abs / (1.0 + analytic.abs()));
    }
    GradCheckReport {
        max_abs_err: max_abs,
        max_rel_err: max_rel,
        probes: idx.len(),
    }
}

/// Check every **parameter** gradient of a network under `L = Σ y²/2`,
/// probing `probes` coordinates of each parameter tensor.
pub fn check_parameter_gradients(
    mut make_net: impl FnMut() -> Sequential,
    x: &Tensor,
    eps: f32,
    probes: usize,
) -> GradCheckReport {
    // Analytic gradients.
    let mut net = make_net();
    let y = net.forward(x, Mode::Train);
    net.backward(&y);
    let mut analytic: Vec<(String, Vec<f32>)> = Vec::new();
    net.visit_named_params(&mut |layer, p| {
        analytic.push((format!("{layer}.{}", p.name), p.grad.as_slice().to_vec()));
    });

    let mut max_abs = 0.0f32;
    let mut max_rel = 0.0f32;
    let mut total_probes = 0usize;
    for (pi, (_, grads)) in analytic.iter().enumerate() {
        for &ci in &probe_indices(grads.len(), probes) {
            let eval = |delta: f32, make: &mut dyn FnMut() -> Sequential| -> f32 {
                let mut net = make();
                let mut counter = 0usize;
                net.visit_params(&mut |p| {
                    if counter == pi {
                        p.value.as_mut_slice()[ci] += delta;
                    }
                    counter += 1;
                });
                let y = net.forward(x, Mode::Train);
                y.as_slice().iter().map(|v| v * v / 2.0).sum()
            };
            let fp = eval(eps, &mut make_net);
            let fm = eval(-eps, &mut make_net);
            let numeric = (fp - fm) / (2.0 * eps);
            let a = grads[ci];
            let abs = (numeric - a).abs();
            max_abs = max_abs.max(abs);
            max_rel = max_rel.max(abs / (1.0 + a.abs()));
            total_probes += 1;
        }
    }
    GradCheckReport {
        max_abs_err: max_abs,
        max_rel_err: max_rel,
        probes: total_probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::batchnorm::BatchNorm;
    use crate::conv::Conv2d;
    use crate::flatten::Flatten;
    use crate::layer::LayerKind;
    use crate::linear::Linear;
    use crate::pool::MaxPool2d;
    use crate::weight::WeightForm;
    use bcp_tensor::init::uniform;
    use bcp_tensor::{Conv2dSpec, Shape};

    #[test]
    fn single_float_layer_passes() {
        let x = uniform(Shape::d2(3, 5), -1.0, 1.0, 1);
        let report = check_input_gradient(
            || Linear::new("fc", 5, 4, WeightForm::Float, true, 2),
            &x,
            1e-2,
            6,
        );
        assert!(report.passes(2e-2), "{report:?}");
        assert!(report.probes >= 3);
    }

    #[test]
    fn whole_float_stack_passes() {
        // conv → bn → relu → pool → flatten → fc: the complete smooth path.
        let make = || {
            Sequential::new("gc")
                .push(Conv2d::new(
                    "conv",
                    Conv2dSpec::new(2, 4, 3, 1),
                    WeightForm::Float,
                    3,
                ))
                .push(BatchNorm::new("bn", 4))
                .push(Relu::new("relu"))
                .push(MaxPool2d::two_by_two("pool"))
                .push(Flatten::new("flat"))
                .push(Linear::new("fc", 4 * 3 * 3, 3, WeightForm::Float, true, 4))
        };
        // Seed picked so no probe straddles a ReLU/max-pool kink (where
        // central differences and the one-sided analytic gradient rightly
        // disagree); re-baseline it if the init RNG stream ever changes.
        let x = uniform(Shape::nchw(2, 2, 6, 6), -1.0, 1.0, 7);
        let report = check_network_input_gradient(make, &x, 1e-2, 8);
        assert!(report.passes(5e-2), "{report:?}");
    }

    #[test]
    fn parameter_gradients_pass() {
        let make = || {
            Sequential::new("gc2")
                .push(Flatten::new("flat"))
                .push(Linear::new("fc1", 8, 6, WeightForm::Float, true, 7))
                .push(Relu::new("relu"))
                .push(Linear::new("fc2", 6, 2, WeightForm::Float, true, 8))
        };
        let x = uniform(Shape::nchw(3, 2, 2, 2), -1.0, 1.0, 9);
        let report = check_parameter_gradients(make, &x, 1e-2, 4);
        assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    fn detects_a_broken_gradient() {
        // A deliberately wrong layer: forward is 2x but backward claims
        // identity. The checker must flag it.
        struct Broken;
        impl Layer for Broken {
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
            fn name(&self) -> &str {
                "broken"
            }
            fn kind(&self) -> LayerKind {
                LayerKind::Activation
            }
            fn forward(&mut self, x: &Tensor, _m: Mode) -> Tensor {
                x.map(|v| 2.0 * v)
            }
            fn backward(&mut self, dy: &Tensor) -> Tensor {
                dy.clone() // wrong: should be 2·dy
            }
        }
        let x = uniform(Shape::d1(6), -1.0, 1.0, 11);
        let report = check_input_gradient(|| Broken, &x, 1e-2, 4);
        assert!(
            !report.passes(1e-1),
            "checker failed to flag a broken backward: {report:?}"
        );
    }

    #[test]
    fn probe_indices_cover_ends() {
        let idx = probe_indices(10, 3);
        assert!(idx.contains(&0) && idx.contains(&9));
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
    }
}
