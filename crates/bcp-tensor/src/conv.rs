//! 2-D convolution forward/backward via im2col + GEMM.
//!
//! Weights are stored `(C_o, C_i, K, K)`; activations NCHW. The forward
//! pass lowers each sample to a column matrix and multiplies with the
//! flattened weight matrix, which lands the result directly in CHW order.
//! Both backward passes reuse the same lowering (GEMM with a transposed
//! operand + `col2im`), so a single pair of adjoint kernels covers the whole
//! training path.
//!
//! All three run on the tiles of [`crate::matmul`] and keep its order
//! invariant, and all three follow the thread rule of [`crate::par`]:
//!
//! - **Forward and input gradient.** The weight matrix (`W`, or `Wᵀ`) is
//!   packed once per call and multiplies every sample (in the orientation
//!   that takes fewer tiles, as [`crate::matmul`] chooses it). Samples
//!   are the column blocks: the batch is split across threads by samples,
//!   and where a sample has few output pixels (`P`), consecutive samples
//!   share one product so its columns fill the tile lanes. Every output is
//!   one sample's k-ascending sum, whichever product it sits in.
//! - **Weight gradient.** `dW = Σₙ dYₙ · colₙᵀ` must add each sample's
//!   product, itself summed from `+0.0`, in sample order — one product over
//!   the `N·P` columns of the batch would reorder that sum. It is split
//!   across the columns of `dW` instead: a part owns a run of the column
//!   matrix's rows, builds only those rows of each sample's column matrix,
//!   and adds the samples' products into its own outputs in sample order.
//!   With one output pixel a sample's product is a single term, and the
//!   batch's one product over `k = N` is that same sum in sample order.

use crate::im2col::{col2im_add, im2col_rows, WindowSpec};
use crate::matmul::{pack_into, packed_len, product, Shared, MR, NR};
use crate::par;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Columns a product needs to keep a tile's `NR` lanes busy: the forward
/// pass and the input gradient put consecutive samples into one product
/// until it is at least this wide (CNV's last two convolutions have nine
/// and one output pixels).
const MIN_COLS: usize = 4 * NR;

/// Full geometry of a convolution layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Sliding-window geometry.
    pub window: WindowSpec,
}

impl Conv2dSpec {
    /// Convenience constructor for the K×K, pad, stride=1 layers BinaryCoP
    /// uses (all convolutions in Table I are K=3, stride 1).
    pub fn new(c_in: usize, c_out: usize, k: usize, pad: usize) -> Self {
        Conv2dSpec {
            c_in,
            c_out,
            window: WindowSpec { k, pad, stride: 1 },
        }
    }

    /// Expected weight shape.
    pub fn weight_shape(&self) -> Shape {
        Shape(vec![self.c_out, self.c_in, self.window.k, self.window.k])
    }

    fn check_weight(&self, w: &Tensor) {
        assert_eq!(
            *w.shape(),
            self.weight_shape(),
            "weight shape {} does not match spec {:?}",
            w.shape(),
            self
        );
    }

    /// Rows of the column matrix: `C_i·K·K`, the depth of the forward
    /// product.
    fn taps(&self) -> usize {
        self.c_in * self.window.k * self.window.k
    }
}

/// How a batch of `n` samples with `p` output pixels each is walked: parts
/// of `per` consecutive samples ([`par::parts`] of the call's `work`), in
/// products of up to `group` consecutive samples, on `workers` threads.
struct Groups {
    workers: usize,
    per: usize,
    group: usize,
}

impl Groups {
    fn new(n: usize, p: usize, work: usize) -> Groups {
        let per = n.div_ceil(par::parts(n, work)).max(1);
        Groups {
            workers: par::workers(n.div_ceil(per)),
            per,
            group: MIN_COLS.div_ceil(p.max(1)).min(per),
        }
    }

    /// `f(first, count, outputs, scratch)` on every group: its first sample,
    /// its sample count, its samples' outputs (`sample_len` each) and the
    /// scratch of the worker running it — an equal share of `scratch` for
    /// each of `workers`.
    fn run(
        &self,
        out: &mut [f32],
        sample_len: usize,
        scratch: &mut [f32],
        f: impl Fn(usize, usize, &mut [f32], &mut [f32]) + Sync,
    ) {
        let share = (scratch.len() / self.workers).max(1);
        let parts = out.chunks_mut(self.per * sample_len).enumerate();
        par::join_with(parts, scratch.chunks_mut(share), |scratch, (t, out)| {
            for (i, out) in out.chunks_mut(self.group * sample_len).enumerate() {
                let first = t * self.per + i * self.group;
                f(first, out.len() / sample_len, out, scratch);
            }
        });
    }
}

/// `y = conv2d(x, w)` for `x: N×C_i×H×W`, `w: C_o×C_i×K×K`.
pub fn conv2d_forward(x: &Tensor, w: &Tensor, spec: Conv2dSpec) -> Tensor {
    spec.check_weight(w);
    assert_eq!(x.shape().rank(), 4, "conv2d input must be NCHW");
    assert_eq!(x.shape().dim(1), spec.c_in, "input channel mismatch");
    let (n, h, win) = (x.shape().dim(0), x.shape().dim(2), x.shape().dim(3));
    let (oh, ow) = spec.window.out_hw(h, win);
    let (p, kk, co) = (oh * ow, spec.taps(), spec.c_out);
    let mut out = vec![0.0f32; n * co * p];
    if !out.is_empty() {
        let groups = Groups::new(n, p, n * co * kk * p);
        let cols = groups.group * p;
        // W, packed once for every sample.
        let wp = Shared::new((w.as_slice(), kk, 1), co, kk, cols);
        // A worker's column matrix, its panels, and the group's product
        // before it is split into CHW samples.
        let (col_len, panels_len) = (kk * cols, wp.scratch_len(cols));
        let mut scratch = vec![0.0f32; groups.workers * (col_len + panels_len + co * cols)];
        let (chw, x) = ((spec.c_in, h, win), x.as_slice());
        let in_len = spec.c_in * h * win;
        groups.run(&mut out, co * p, &mut scratch, |s0, g, out, scratch| {
            let cols = g * p;
            let (col, rest) = scratch.split_at_mut(col_len);
            let (panels, y) = rest.split_at_mut(panels_len);
            for s in 0..g {
                let x = &x[(s0 + s) * in_len..];
                im2col_rows(x, chw, spec.window, 0..kk, &mut col[s * p..], cols);
            }
            wp.times((col, 1, cols), cols, panels, |i, j, v| y[i * cols + j] = v);
            for (s, out) in out.chunks_exact_mut(co * p).enumerate() {
                for (i, out) in out.chunks_exact_mut(p).enumerate() {
                    out.copy_from_slice(&y[i * cols + s * p..][..p]);
                }
            }
        });
    }
    Tensor::from_vec(Shape::nchw(n, co, oh, ow), out)
}

/// Weight gradient: `dW[o, i, ky, kx] = Σ_n Σ_p dY[n,o,p] · col_n[(i,ky,kx), p]`,
/// each sample's product summed over `p` from `+0.0` and added to `dW` in
/// sample order.
pub fn conv2d_backward_weight(x: &Tensor, dy: &Tensor, spec: Conv2dSpec) -> Tensor {
    assert_eq!(x.shape().rank(), 4, "conv2d input must be NCHW");
    assert_eq!(dy.shape().rank(), 4, "conv2d output grad must be NCHW");
    let n = x.shape().dim(0);
    assert_eq!(dy.shape().dim(0), n, "batch mismatch");
    assert_eq!(dy.shape().dim(1), spec.c_out, "output channel mismatch");
    let (h, win) = (x.shape().dim(2), x.shape().dim(3));
    let (p, kk, co) = (
        dy.shape().dim(2) * dy.shape().dim(3),
        spec.taps(),
        spec.c_out,
    );
    let (chw, in_len) = ((spec.c_in, h, win), spec.c_in * h * win);
    if p == 1 {
        // One output pixel: each sample's product is the single term
        // `+0.0 + dy·col`, so adding them in sample order is the k-ascending
        // sum over samples from +0.0 — one `dYᵀ`-by-columns product (a sum
        // started at +0.0 is never −0.0, so `acc + (0 + t) == acc + t`).
        let mut cols = vec![0.0f32; n * kk];
        for (s, col) in cols.chunks_exact_mut(kk).enumerate() {
            im2col_rows(&x.as_slice()[s * in_len..], chw, spec.window, 0..kk, col, 1);
        }
        let dw = crate::matmul::gemm(co, n, kk, (dy.as_slice(), 1, co), (&cols, kk, 1));
        return dw.reshape(spec.weight_shape());
    }
    // Each part owns a run of whole B panels of the column matrix's rows
    // and accumulates its `co × rows` block of dW; each worker has its own
    // scratch.
    let panels = kk.div_ceil(NR);
    let per = panels.div_ceil(par::parts(panels, n * co * kk * p)) * NR;
    let mut blocks = vec![0.0f32; co * kk];
    if !blocks.is_empty() && p > 0 {
        let (ap_len, bp_len) = (packed_len::<MR>(co, p), packed_len::<NR>(per, p));
        let share = per * p + ap_len + bp_len;
        let mut scratch = vec![0.0f32; par::workers(kk.div_ceil(per)) * share];
        let (x, dy) = (x.as_slice(), dy.as_slice());
        let parts = blocks.chunks_mut(co * per).enumerate();
        par::join_with(parts, scratch.chunks_mut(share), |scratch, (t, acc)| {
            let rows = acc.len() / co;
            let (col, rest) = scratch.split_at_mut(per * p);
            let (ap, bp) = rest.split_at_mut(ap_len);
            for s in 0..n {
                let taps = t * per..t * per + rows;
                im2col_rows(&x[s * in_len..], chw, spec.window, taps, col, p);
                pack_into::<MR>(ap, (&dy[s * co * p..], p, 1), co, p);
                pack_into::<NR>(bp, (col, p, 1), rows, p);
                product(ap, bp, p, co, rows, |i, j, v| acc[i * rows + j] += v);
            }
        });
    }
    // The parts' `co × rows` blocks, side by side, are dW's rows.
    let mut dw = vec![0.0f32; co * kk];
    for (t, block) in blocks.chunks(co * per).enumerate() {
        let rows = block.len() / co;
        for (dst, src) in dw.chunks_exact_mut(kk).zip(block.chunks_exact(rows)) {
            dst[t * per..t * per + rows].copy_from_slice(src);
        }
    }
    Tensor::from_vec(spec.weight_shape(), dw)
}

/// Input gradient: scatter `Wᵀ · dY` columns back through `col2im`.
///
/// `in_hw` is the spatial size of the forward input (needed because the
/// output size does not determine it uniquely under padding/stride).
pub fn conv2d_backward_input(
    w: &Tensor,
    dy: &Tensor,
    spec: Conv2dSpec,
    in_hw: (usize, usize),
) -> Tensor {
    spec.check_weight(w);
    assert_eq!(dy.shape().rank(), 4, "conv2d output grad must be NCHW");
    assert_eq!(dy.shape().dim(1), spec.c_out, "output channel mismatch");
    let n = dy.shape().dim(0);
    let (p, kk, co) = (
        dy.shape().dim(2) * dy.shape().dim(3),
        spec.taps(),
        spec.c_out,
    );
    let chw = (spec.c_in, in_hw.0, in_hw.1);
    let in_len = chw.0 * chw.1 * chw.2;
    let mut out = vec![0.0f32; n * in_len];
    if !out.is_empty() && p > 0 {
        let groups = Groups::new(n, p, n * co * kk * p);
        let cols = groups.group * p;
        // Wᵀ, packed once for every sample.
        let wp = Shared::new((w.as_slice(), 1, kk), kk, co, cols);
        // A worker's column-gradient matrix, its panels and, for a group of
        // several samples, their dY gathered side by side.
        let (dcol_len, panels_len) = (kk * cols, wp.scratch_len(cols));
        let dy_len = if groups.group > 1 { co * cols } else { 0 };
        let mut scratch = vec![0.0f32; groups.workers * (dcol_len + panels_len + dy_len)];
        let dy = dy.as_slice();
        groups.run(&mut out, in_len, &mut scratch, |s0, g, out, scratch| {
            let cols = g * p;
            let (dcol, rest) = scratch.split_at_mut(dcol_len);
            let (panels, gathered) = rest.split_at_mut(panels_len);
            let dy = &dy[s0 * co * p..(s0 + g) * co * p];
            let b = if g == 1 {
                dy
            } else {
                for (s, dy) in dy.chunks_exact(co * p).enumerate() {
                    for (c, dy) in dy.chunks_exact(p).enumerate() {
                        gathered[c * cols + s * p..][..p].copy_from_slice(dy);
                    }
                }
                &gathered[..co * cols]
            };
            wp.times((b, 1, cols), cols, panels, |i, j, v| dcol[i * cols + j] = v);
            for (s, out) in out.chunks_exact_mut(in_len).enumerate() {
                col2im_add(&dcol[s * p..], cols, chw, spec.window, out);
            }
        });
    }
    Tensor::from_vec(Shape::nchw(n, spec.c_in, in_hw.0, in_hw.1), out)
}

/// Reference direct convolution (quadruple loop), used by tests only.
pub fn conv2d_direct(x: &Tensor, w: &Tensor, spec: Conv2dSpec) -> Tensor {
    spec.check_weight(w);
    let (n, h, win) = (x.shape().dim(0), x.shape().dim(2), x.shape().dim(3));
    let (oh, ow) = spec.window.out_hw(h, win);
    let mut out = Tensor::zeros(Shape::nchw(n, spec.c_out, oh, ow));
    for s in 0..n {
        for co in 0..spec.c_out {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..spec.c_in {
                        for ky in 0..spec.window.k {
                            for kx in 0..spec.window.k {
                                let iy = (oy * spec.window.stride + ky) as isize
                                    - spec.window.pad as isize;
                                let ix = (ox * spec.window.stride + kx) as isize
                                    - spec.window.pad as isize;
                                if iy < 0 || ix < 0 || iy >= h as isize || ix >= win as isize {
                                    continue;
                                }
                                acc += x.at(&[s, ci, iy as usize, ix as usize])
                                    * w.at(&[co, ci, ky, kx]);
                            }
                        }
                    }
                    *out.at_mut(&[s, co, oy, ox]) = acc;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::im2col::{col2im, im2col};
    use crate::init::uniform;
    use crate::matmul::tests::same_bits;
    use crate::matmul::{matmul, matmul_ta, matmul_tb};
    use proptest::prelude::*;

    /// The three passes one sample at a time, each product a plain
    /// `matmul*` call and the weight gradient summed over samples in order:
    /// the order the batched, split kernels must reproduce bit for bit.
    fn per_sample(x: &Tensor, w: &Tensor, dy: &Tensor, spec: Conv2dSpec) -> [Tensor; 3] {
        let (n, h, win) = (x.shape().dim(0), x.shape().dim(2), x.shape().dim(3));
        let (oh, ow) = spec.window.out_hw(h, win);
        let wmat = w.reshaped(Shape::d2(spec.c_out, spec.taps()));
        let (mut y, mut dx) = (Vec::new(), Vec::new());
        let mut dw = Tensor::zeros(Shape::d2(spec.c_out, spec.taps()));
        for s in 0..n {
            let col = im2col(&x.sample(s), spec.window);
            y.extend_from_slice(matmul(&wmat, &col).as_slice());
            let dys = dy.sample(s).reshape(Shape::d2(spec.c_out, oh * ow));
            let dws = matmul_tb(&dys, &col);
            for (a, &b) in dw.as_mut_slice().iter_mut().zip(dws.as_slice()) {
                *a += b;
            }
            let dcol = matmul_ta(&wmat, &dys);
            dx.extend_from_slice(col2im(&dcol, spec.c_in, h, win, spec.window).as_slice());
        }
        [
            Tensor::from_vec(Shape::nchw(n, spec.c_out, oh, ow), y),
            dw.reshape(spec.weight_shape()),
            Tensor::from_vec(x.shape().clone(), dx),
        ]
    }

    /// Batch 3 at CNV's conv2 shape (784 output pixels: one sample a
    /// product, the batch split across threads) and conv6 shape (one pixel:
    /// all three samples in one product, below the split threshold), plus a
    /// padded 9-pixel shape above it whose products group samples and a
    /// padded one-pixel shape.
    #[test]
    fn batched_passes_match_the_per_sample_loop() {
        for (spec, hw) in [
            (Conv2dSpec::new(64, 64, 3, 0), 30),
            (Conv2dSpec::new(256, 256, 3, 0), 3),
            (Conv2dSpec::new(512, 512, 3, 1), 3),
            (Conv2dSpec::new(16, 32, 3, 1), 1),
        ] {
            let x = uniform(Shape::nchw(3, spec.c_in, hw, hw), -1.0, 1.0, hw as u64);
            let w = uniform(spec.weight_shape(), -1.0, 1.0, 7);
            let y = conv2d_forward(&x, &w, spec);
            let dy = uniform(y.shape().clone(), -1.0, 1.0, 8);
            let [want_y, want_dw, want_dx] = per_sample(&x, &w, &dy, spec);
            let got_dw = conv2d_backward_weight(&x, &dy, spec);
            let got_dx = conv2d_backward_input(&w, &dy, spec, (hw, hw));
            let p = y.shape().dim(2) * y.shape().dim(3);
            let work = 3 * spec.c_out * spec.taps() * p;
            let at = format!("{spec:?} at {hw}×{hw}, {work} multiply-adds");
            same_bits(&y, &want_y).unwrap_or_else(|e| panic!("forward {at}: {e}"));
            same_bits(&got_dw, &want_dw).unwrap_or_else(|e| panic!("dW {at}: {e}"));
            same_bits(&got_dx, &want_dx).unwrap_or_else(|e| panic!("dX {at}: {e}"));
        }
        // The shapes straddle the threshold.
        let work = |co: usize, taps: usize, p: usize| 3 * co * taps * p;
        assert!(work(64, 576, 784) >= par::INLINE_BELOW);
        assert!(work(256, 2304, 1) < par::INLINE_BELOW);
        assert!(work(512, 4608, 9) >= par::INLINE_BELOW);
    }

    /// Bit equality holds: im2col's rows run (ci, ky, kx) like the direct
    /// loop's taps, the GEMM sums in that order from +0.0, and a padded tap
    /// is a `0.0` column entry whose ±0 product leaves the sum unchanged (it
    /// never holds −0.0) where the direct loop skips it.
    #[test]
    fn im2col_forward_matches_direct() {
        let spec = Conv2dSpec::new(3, 5, 3, 1);
        let x = uniform(Shape::nchw(2, 3, 8, 8), -1.0, 1.0, 1);
        let w = uniform(spec.weight_shape(), -1.0, 1.0, 2);
        same_bits(&conv2d_forward(&x, &w, spec), &conv2d_direct(&x, &w, spec)).unwrap();
    }

    #[test]
    fn forward_shape_cnv_first_layer() {
        // Conv1.1 of CNV: 3→64, K=3, no padding, 32×32 input → 30×30.
        let spec = Conv2dSpec::new(3, 64, 3, 0);
        let x = uniform(Shape::nchw(1, 3, 32, 32), -1.0, 1.0, 3);
        let w = uniform(spec.weight_shape(), -0.1, 0.1, 4);
        let y = conv2d_forward(&x, &w, spec);
        assert_eq!(y.shape().dims(), &[1, 64, 30, 30]);
    }

    /// Numeric gradient check: perturb one weight, compare finite difference
    /// against the analytic dW.
    #[test]
    fn weight_gradient_matches_finite_difference() {
        let spec = Conv2dSpec::new(2, 3, 3, 1);
        let x = uniform(Shape::nchw(2, 2, 5, 5), -1.0, 1.0, 10);
        let w = uniform(spec.weight_shape(), -0.5, 0.5, 11);
        // Loss = sum(y); dL/dy = 1.
        let y = conv2d_forward(&x, &w, spec);
        let dy = Tensor::ones(y.shape().clone());
        let dw = conv2d_backward_weight(&x, &dy, spec);
        let eps = 1e-2f32;
        for probe in [0usize, 7, dw.numel() - 1] {
            let mut wp = w.clone();
            wp.as_mut_slice()[probe] += eps;
            let lp: f32 = conv2d_forward(&x, &wp, spec).as_slice().iter().sum();
            let mut wm = w.clone();
            wm.as_mut_slice()[probe] -= eps;
            let lm: f32 = conv2d_forward(&x, &wm, spec).as_slice().iter().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = dw.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 1e-2 * (1.0 + analytic.abs()),
                "dW[{probe}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let spec = Conv2dSpec::new(2, 2, 3, 0);
        let x = uniform(Shape::nchw(1, 2, 6, 6), -1.0, 1.0, 20);
        let w = uniform(spec.weight_shape(), -0.5, 0.5, 21);
        let y = conv2d_forward(&x, &w, spec);
        let dy = Tensor::ones(y.shape().clone());
        let dx = conv2d_backward_input(&w, &dy, spec, (6, 6));
        assert_eq!(dx.shape(), x.shape());
        let eps = 1e-2f32;
        for probe in [0usize, 17, dx.numel() - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[probe] += eps;
            let lp: f32 = conv2d_forward(&xp, &w, spec).as_slice().iter().sum();
            let mut xm = x.clone();
            xm.as_mut_slice()[probe] -= eps;
            let lm: f32 = conv2d_forward(&xm, &w, spec).as_slice().iter().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = dx.as_slice()[probe];
            assert!(
                (numeric - analytic).abs() < 1e-2 * (1.0 + analytic.abs()),
                "dX[{probe}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_forward_equals_direct(ci in 1usize..3, co in 1usize..4,
                                      h in 3usize..8, w in 3usize..8,
                                      pad in 0usize..2, seed in 0u64..300) {
            let spec = Conv2dSpec::new(ci, co, 3, pad);
            prop_assume!(h + 2 * pad >= 3 && w + 2 * pad >= 3);
            let x = uniform(Shape::nchw(1, ci, h, w), -1.0, 1.0, seed);
            let wt = uniform(spec.weight_shape(), -1.0, 1.0, seed + 1);
            prop_assert_eq!(same_bits(&conv2d_forward(&x, &wt, spec), &conv2d_direct(&x, &wt, spec)), Ok(()));
        }
    }
}
