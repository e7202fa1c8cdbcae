//! Batch normalization (per-channel), the layer FINN folds into threshold
//! units at deployment.
//!
//! Works on rank-2 `N×F` (dense) and rank-4 `N×C×H×W` (conv) activations;
//! the normalized axis is always dimension 1. Training mode uses biased
//! batch statistics and maintains exponential running statistics; eval mode
//! normalizes with the running statistics — exactly the statistics
//! `bcp_bitpack::threshold` consumes when deriving integer thresholds.
//!
//! Large activations use every core under the thread rule of
//! [`bcp_tensor::par`]: the batch statistics and the γ/β gradients are
//! split across channels, each channel summing its samples in order on one
//! thread, and the element-wise passes are split across samples.

use crate::layer::{take_cache, Layer, LayerKind, Mode};
use crate::param::Param;
use bcp_tensor::par::{self, ELEMENT_WORK};
use bcp_tensor::{Shape, Tensor};

/// Numerical-stability constant shared with the threshold derivation.
pub const BN_EPS: f32 = 1e-5;

/// Per-channel batch normalization with affine parameters.
pub struct BatchNorm {
    name: String,
    channels: usize,
    /// Scale γ.
    gamma: Param,
    /// Shift β.
    beta: Param,
    /// Exponential running mean (eval statistics).
    running_mean: Vec<f32>,
    /// Exponential running (biased) variance.
    running_var: Vec<f32>,
    /// Running-stat update rate.
    momentum: f32,
    cache: Option<BnCache>,
}

struct BnCache {
    xhat: Tensor,
    inv_std: Vec<f32>,
    shape: Shape,
}

/// Decompose an activation shape into (outer, channels, inner): rank-2
/// `N×F` → (N, F, 1); rank-4 `N×C×H×W` → (N, C, H·W).
fn decompose(shape: &Shape) -> (usize, usize, usize) {
    match shape.rank() {
        2 => (shape.dim(0), shape.dim(1), 1),
        4 => (shape.dim(0), shape.dim(1), shape.dim(2) * shape.dim(3)),
        r => panic!("BatchNorm supports rank 2 or 4 activations, got rank {r} ({shape})"),
    }
}

impl BatchNorm {
    /// Identity-initialised batch-norm (γ=1, β=0, running stats 0/1).
    pub fn new(name: impl Into<String>, channels: usize) -> Self {
        BatchNorm {
            name: name.into(),
            channels,
            gamma: Param::new("gamma", Tensor::ones(Shape::d1(channels))),
            beta: Param::new("beta", Tensor::zeros(Shape::d1(channels))),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            cache: None,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// γ values (threshold export).
    pub fn gamma(&self) -> &[f32] {
        self.gamma.value.as_slice()
    }

    /// β values (threshold export).
    pub fn beta(&self) -> &[f32] {
        self.beta.value.as_slice()
    }

    /// Running mean (threshold export).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// Running biased variance (threshold export).
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }

    /// Overwrite the affine parameters and running statistics — used by
    /// tests and by deserialization.
    // audit: cold — parameter restore runs at load time, never per-request (shares its name with the engine's Shared::set_state)
    pub fn set_state(&mut self, gamma: Vec<f32>, beta: Vec<f32>, mean: Vec<f32>, var: Vec<f32>) {
        assert!(
            gamma.len() == self.channels
                && beta.len() == self.channels
                && mean.len() == self.channels
                && var.len() == self.channels,
            "state length must equal channel count {}",
            self.channels
        );
        self.gamma.value = Tensor::from_vec(Shape::d1(self.channels), gamma);
        self.beta.value = Tensor::from_vec(Shape::d1(self.channels), beta);
        self.running_mean = mean;
        self.running_var = var;
    }

    fn batch_stats(&self, x: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let (n, c, l) = decompose(x.shape());
        assert_eq!(
            c, self.channels,
            "channel mismatch: {} vs {}",
            c, self.channels
        );
        let count = (n * l) as f32;
        let mut mean = vec![0.0f32; c];
        let mut var = vec![0.0f32; c];
        let src = x.as_slice();
        let work = 2 * x.numel() * ELEMENT_WORK;
        for_each_channel(&mut mean, &mut var, work, |ci, mean, var| {
            let rows = || (0..n).map(|ni| &src[(ni * c + ci) * l..][..l]);
            for row in rows() {
                *mean += row.iter().sum::<f32>();
            }
            *mean /= count;
            let m = *mean;
            for row in rows() {
                *var += row.iter().map(|&v| (v - m) * (v - m)).sum::<f32>();
            }
            *var /= count;
        });
        (mean, var)
    }

    fn normalize(&self, x: &Tensor, mean: &[f32], var: &[f32]) -> (Tensor, Vec<f32>) {
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + BN_EPS).sqrt()).collect();
        let mut xhat = vec![0.0f32; x.numel()];
        let src = x.as_slice();
        for_each_row(&mut xhat, decompose(x.shape()), |ci, at, row| {
            let (m, s) = (mean[ci], inv_std[ci]);
            for (o, &v) in row.iter_mut().zip(&src[at..]) {
                *o = (v - m) * s;
            }
        });
        (Tensor::from_vec(x.shape().clone(), xhat), inv_std)
    }

    fn affine(&self, xhat: &Tensor) -> Tensor {
        let g = self.gamma.value.as_slice();
        let b = self.beta.value.as_slice();
        let src = xhat.as_slice();
        let mut out = vec![0.0f32; xhat.numel()];
        for_each_row(&mut out, decompose(xhat.shape()), |ci, at, row| {
            for (o, &v) in row.iter_mut().zip(&src[at..]) {
                *o = g[ci] * v + b[ci];
            }
        });
        Tensor::from_vec(xhat.shape().clone(), out)
    }
}

/// `f(channel, a, b)` on every channel, the channels split across threads
/// (the thread rule of [`bcp_tensor::par`]): each channel's reductions run
/// on one thread, over the samples in order, as the one-thread loop did.
fn for_each_channel(
    a: &mut [f32],
    b: &mut [f32],
    work: usize,
    f: impl Fn(usize, &mut f32, &mut f32) + Sync,
) {
    let per = a.len().div_ceil(par::parts(a.len(), work)).max(1);
    par::join(
        a.chunks_mut(per).zip(b.chunks_mut(per)).enumerate(),
        |(t, (a, b))| {
            for (i, (a, b)) in a.iter_mut().zip(b).enumerate() {
                f(t * per + i, a, b);
            }
        },
    );
}

/// `f(channel, at, row)` on every `l`-element (sample, channel) row of the
/// `n × c × l` output `out`, `at` being the row's offset in it; the samples
/// are split across threads.
fn for_each_row(
    out: &mut [f32],
    (_, c, l): (usize, usize, usize),
    f: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    let work = out.len() * ELEMENT_WORK;
    par::for_each_run(out, c * l, work, |first, run| {
        for (r, row) in run.chunks_mut(l).enumerate() {
            f(r % c, first * c * l + r * l, row);
        }
    });
}

impl Layer for BatchNorm {
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
        LayerKind::BatchNorm
    }

    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let (mean, var) = match mode {
            Mode::Train => {
                let (mean, var) = self.batch_stats(x);
                for c in 0..self.channels {
                    self.running_mean[c] =
                        (1.0 - self.momentum) * self.running_mean[c] + self.momentum * mean[c];
                    self.running_var[c] =
                        (1.0 - self.momentum) * self.running_var[c] + self.momentum * var[c];
                }
                (mean, var)
            }
            Mode::Eval => (self.running_mean.clone(), self.running_var.clone()),
        };
        let (xhat, inv_std) = self.normalize(x, &mean, &var);
        let y = self.affine(&xhat);
        self.cache = Some(BnCache {
            xhat,
            inv_std,
            shape: x.shape().clone(),
        });
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let BnCache {
            xhat,
            inv_std,
            shape,
        } = take_cache(&mut self.cache, &self.name);
        assert_eq!(*dy.shape(), shape, "backward shape mismatch");
        let (n, c, l) = decompose(&shape);
        let count = (n * l) as f32;
        let dys = dy.as_slice();
        let xh = xhat.as_slice();

        // Per-channel reductions.
        let mut dbeta = vec![0.0f32; c];
        let mut dgamma = vec![0.0f32; c];
        let work = dy.numel() * ELEMENT_WORK;
        for_each_channel(&mut dbeta, &mut dgamma, work, |ci, db, dg| {
            for ni in 0..n {
                let at = (ni * c + ci) * l;
                for (&d, &x) in dys[at..at + l].iter().zip(&xh[at..at + l]) {
                    *db += d;
                    *dg += d * x;
                }
            }
        });

        // dx = γ·inv_std · (dy − dβ/m − x̂·dγ/m)   (batch-stats gradient).
        let g = self.gamma.value.as_slice();
        let mut dx = vec![0.0f32; dy.numel()];
        for_each_row(&mut dx, (n, c, l), |ci, at, row| {
            let k = g[ci] * inv_std[ci];
            let mb = dbeta[ci] / count;
            let mg = dgamma[ci] / count;
            for ((o, &d), &x) in row.iter_mut().zip(&dys[at..]).zip(&xh[at..]) {
                *o = k * (d - mb - x * mg);
            }
        });
        self.gamma
            .accumulate_grad(&Tensor::from_vec(Shape::d1(c), dgamma));
        self.beta
            .accumulate_grad(&Tensor::from_vec(Shape::d1(c), dbeta));
        Tensor::from_vec(shape, dx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_tensor::init::uniform;
    use bcp_tensor::ops;

    /// Training-mode forward and backward as single sample-major loops on
    /// one thread: `[y, dx, dγ, dβ]` and the batch mean and variance.
    fn sequential_pass(
        x: &Tensor,
        dy: &Tensor,
        g: &[f32],
        b: &[f32],
    ) -> ([Vec<f32>; 4], Vec<f32>, Vec<f32>) {
        let (n, c, l) = decompose(x.shape());
        let (src, dys, count) = (x.as_slice(), dy.as_slice(), (n * l) as f32);
        let (mut mean, mut var) = (vec![0.0f32; c], vec![0.0f32; c]);
        for ni in 0..n {
            for ci in 0..c {
                mean[ci] += src[(ni * c + ci) * l..][..l].iter().sum::<f32>();
            }
        }
        mean.iter_mut().for_each(|m| *m /= count);
        for ni in 0..n {
            for ci in 0..c {
                let m = mean[ci];
                let row = &src[(ni * c + ci) * l..][..l];
                var[ci] += row.iter().map(|&v| (v - m) * (v - m)).sum::<f32>();
            }
        }
        var.iter_mut().for_each(|v| *v /= count);
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + BN_EPS).sqrt()).collect();
        let (mut xh, mut y, mut dx) = (
            vec![0.0; x.numel()],
            vec![0.0; x.numel()],
            vec![0.0; x.numel()],
        );
        let (mut dg, mut db) = (vec![0.0f32; c], vec![0.0f32; c]);
        for i in 0..x.numel() {
            let ci = i / l % c;
            xh[i] = (src[i] - mean[ci]) * inv_std[ci];
            y[i] = g[ci] * xh[i] + b[ci];
            db[ci] += dys[i];
            dg[ci] += dys[i] * xh[i];
        }
        for i in 0..x.numel() {
            let ci = i / l % c;
            let (mb, mg) = (db[ci] / count, dg[ci] / count);
            dx[i] = g[ci] * inv_std[ci] * (dys[i] - mb - xh[i] * mg);
        }
        ([y, dx, dg, db], mean, var)
    }

    /// Bit for bit at batch 3, on shapes below the split threshold, with
    /// only the statistics split (`3 × 64 × 40 × 40`), with every pass split
    /// (`3 × 128 × 40 × 40`), and on a dense `N × F` activation.
    #[test]
    fn split_passes_match_the_sequential_loops() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for shape in [
            Shape::nchw(3, 8, 6, 6),
            Shape::nchw(3, 64, 40, 40),
            Shape::nchw(3, 128, 40, 40),
            Shape::d2(3, 512),
        ] {
            let c = shape.dim(1);
            let x = uniform(shape.clone(), -3.0, 5.0, c as u64);
            let dy = uniform(shape.clone(), -1.0, 1.0, 1 + c as u64);
            let g: Vec<f32> = (0..c).map(|i| 0.5 + i as f32 / c as f32).collect();
            let b: Vec<f32> = (0..c).map(|i| i as f32 / c as f32 - 0.25).collect();
            let mut bn = BatchNorm::new("bn", c);
            bn.set_state(g.clone(), b.clone(), vec![0.0; c], vec![1.0; c]);
            let y = bn.forward(&x, Mode::Train);
            let dx = bn.backward(&dy);
            let ([want_y, want_dx, want_dg, want_db], mean, var) = sequential_pass(&x, &dy, &g, &b);
            assert_eq!(bits(y.as_slice()), bits(&want_y), "y at {shape}");
            assert_eq!(bits(dx.as_slice()), bits(&want_dx), "dx at {shape}");
            bn.visit_params(&mut |p| {
                let want = if p.name == "gamma" {
                    &want_dg
                } else {
                    &want_db
                };
                assert_eq!(bits(p.grad.as_slice()), bits(want), "{} at {shape}", p.name);
            });
            let running = |s: &[f32], init: f32| {
                s.iter()
                    .map(|&v| 0.9 * init + 0.1 * v)
                    .collect::<Vec<f32>>()
            };
            assert_eq!(
                bits(bn.running_mean()),
                bits(&running(&mean, 0.0)),
                "mean at {shape}"
            );
            assert_eq!(
                bits(bn.running_var()),
                bits(&running(&var, 1.0)),
                "var at {shape}"
            );
        }
        let work = |numel: usize| numel * ELEMENT_WORK;
        assert!(2 * work(3 * 8 * 36) < par::INLINE_BELOW);
        assert!(work(3 * 64 * 1600) < par::INLINE_BELOW);
        assert!(2 * work(3 * 64 * 1600) >= par::INLINE_BELOW);
        assert!(work(3 * 128 * 1600) >= par::INLINE_BELOW);
    }

    #[test]
    fn train_forward_normalizes_to_zero_mean_unit_var() {
        let mut bn = BatchNorm::new("bn", 3);
        let x = uniform(Shape::nchw(4, 3, 5, 5), -3.0, 7.0, 1);
        let y = bn.forward(&x, Mode::Train);
        let (m, v) = ops::channel_mean_var(&y);
        for c in 0..3 {
            assert!(m[c].abs() < 1e-4, "channel {c} mean {}", m[c]);
            assert!((v[c] - 1.0).abs() < 1e-2, "channel {c} var {}", v[c]);
        }
    }

    #[test]
    fn affine_applied_after_normalization() {
        let mut bn = BatchNorm::new("bn", 1);
        bn.set_state(vec![2.0], vec![3.0], vec![0.0], vec![1.0]);
        let x = Tensor::from_vec(Shape::d2(2, 1), vec![-1.0, 1.0]);
        let y = bn.forward(&x, Mode::Train);
        // Batch stats: mean 0, var 1 → x̂ = x/√(1+ε) ≈ x; y = 2x̂ + 3.
        assert!((y.as_slice()[0] - 1.0).abs() < 1e-3);
        assert!((y.as_slice()[1] - 5.0).abs() < 1e-3);
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm::new("bn", 1);
        bn.set_state(vec![1.0], vec![0.0], vec![10.0], vec![4.0]);
        let x = Tensor::from_vec(Shape::d2(1, 1), vec![12.0]);
        let y = bn.forward(&x, Mode::Eval);
        // (12 − 10)/2 = 1.
        assert!((y.as_slice()[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn running_stats_move_toward_batch_stats() {
        let mut bn = BatchNorm::new("bn", 1);
        let x = Tensor::from_vec(Shape::d2(4, 1), vec![10.0, 10.0, 10.0, 10.0]);
        for _ in 0..100 {
            bn.forward(&x, Mode::Train);
        }
        assert!((bn.running_mean()[0] - 10.0).abs() < 1e-2);
        assert!(bn.running_var()[0] < 1e-2);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut bn = BatchNorm::new("bn", 2);
        bn.set_state(
            vec![1.5, -0.5],
            vec![0.2, 0.1],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
        );
        let x = uniform(Shape::nchw(2, 2, 3, 3), -1.0, 1.0, 5);
        // Loss = Σ y².
        let y = bn.forward(&x, Mode::Train);
        let dy = y.map(|v| 2.0 * v);
        let dx = bn.backward(&dy);
        let eps = 1e-2f32;
        let loss = |bn: &mut BatchNorm, xx: &Tensor| -> f32 {
            bn.forward(xx, Mode::Train)
                .as_slice()
                .iter()
                .map(|v| v * v)
                .sum()
        };
        for probe in [0usize, 9, x.numel() - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let mut bnp = BatchNorm::new("bn", 2);
            bnp.set_state(
                vec![1.5, -0.5],
                vec![0.2, 0.1],
                vec![0.0, 0.0],
                vec![1.0, 1.0],
            );
            let fp = loss(&mut bnp, &xp);
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= eps;
            let mut bnm = BatchNorm::new("bn", 2);
            bnm.set_state(
                vec![1.5, -0.5],
                vec![0.2, 0.1],
                vec![0.0, 0.0],
                vec![1.0, 1.0],
            );
            let fm = loss(&mut bnm, &xm);
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = dx.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + analytic.abs()),
                "dx[{probe}] numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn gamma_beta_gradients() {
        let mut bn = BatchNorm::new("bn", 1);
        let x = Tensor::from_vec(Shape::d2(2, 1), vec![-1.0, 1.0]);
        let y = bn.forward(&x, Mode::Train);
        let dy = Tensor::ones(y.shape().clone());
        bn.backward(&dy);
        // dβ = Σ dy = 2; dγ = Σ dy·x̂ = x̂₀ + x̂₁ = 0 (antisymmetric batch).
        bn.visit_params(&mut |p| match p.name.as_str() {
            "beta" => assert_eq!(p.grad.as_slice(), &[2.0]),
            "gamma" => assert!(p.grad.as_slice()[0].abs() < 1e-5),
            _ => unreachable!(),
        });
    }

    #[test]
    #[should_panic(expected = "rank 2 or 4")]
    fn rejects_rank3() {
        let mut bn = BatchNorm::new("bn", 2);
        bn.forward(&Tensor::zeros(Shape::d3(1, 2, 3)), Mode::Train);
    }
}
