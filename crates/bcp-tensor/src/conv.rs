//! 2-D convolution forward/backward via im2col + GEMM.
//!
//! Weights are stored `(C_o, C_i, K, K)`; activations NCHW. The forward
//! pass lowers each sample to a column matrix and multiplies with the
//! flattened weight matrix, which lands the result directly in CHW order.
//! Both backward passes reuse the same lowering (GEMM with a transposed
//! operand + `col2im`), so a single pair of adjoint kernels covers the whole
//! training path.

use crate::im2col::{col2im, im2col, WindowSpec};
use crate::matmul::{matmul, matmul_ta, matmul_tb};
use crate::shape::Shape;
use crate::tensor::Tensor;

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
}

/// `y = conv2d(x, w)` for `x: N×C_i×H×W`, `w: C_o×C_i×K×K`.
pub fn conv2d_forward(x: &Tensor, w: &Tensor, spec: Conv2dSpec) -> Tensor {
    spec.check_weight(w);
    assert_eq!(x.shape().rank(), 4, "conv2d input must be NCHW");
    assert_eq!(x.shape().dim(1), spec.c_in, "input channel mismatch");
    let (n, h, win) = (x.shape().dim(0), x.shape().dim(2), x.shape().dim(3));
    let (oh, ow) = spec.window.out_hw(h, win);
    let wmat = w.reshaped(Shape::d2(
        spec.c_out,
        spec.c_in * spec.window.k * spec.window.k,
    ));
    let mut out = Vec::with_capacity(n * spec.c_out * oh * ow);
    for s in 0..n {
        let col = im2col(&x.sample(s), spec.window);
        let y = matmul(&wmat, &col); // C_o × (OH·OW), already CHW order
        out.extend_from_slice(y.as_slice());
    }
    Tensor::from_vec(Shape::nchw(n, spec.c_out, oh, ow), out)
}

/// Weight gradient: `dW[o, i, ky, kx] = Σ_n Σ_p dY[n,o,p] · col_n[(i,ky,kx), p]`.
pub fn conv2d_backward_weight(x: &Tensor, dy: &Tensor, spec: Conv2dSpec) -> Tensor {
    assert_eq!(x.shape().rank(), 4, "conv2d input must be NCHW");
    assert_eq!(dy.shape().rank(), 4, "conv2d output grad must be NCHW");
    let n = x.shape().dim(0);
    assert_eq!(dy.shape().dim(0), n, "batch mismatch");
    assert_eq!(dy.shape().dim(1), spec.c_out, "output channel mismatch");
    let ohow = dy.shape().dim(2) * dy.shape().dim(3);
    let kk = spec.c_in * spec.window.k * spec.window.k;
    let mut acc = Tensor::zeros(Shape::d2(spec.c_out, kk));
    for s in 0..n {
        let col = im2col(&x.sample(s), spec.window);
        let dys = dy.sample(s).reshape(Shape::d2(spec.c_out, ohow));
        let dw = matmul_tb(&dys, &col); // (C_o×P)·(KK×P)ᵀ = C_o×KK
        for (a, &b) in acc.as_mut_slice().iter_mut().zip(dw.as_slice()) {
            *a += b;
        }
    }
    acc.reshape(spec.weight_shape())
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
    let ohow = dy.shape().dim(2) * dy.shape().dim(3);
    let wmat = w.reshaped(Shape::d2(
        spec.c_out,
        spec.c_in * spec.window.k * spec.window.k,
    ));
    let mut out = Vec::with_capacity(n * spec.c_in * in_hw.0 * in_hw.1);
    for s in 0..n {
        let dys = dy.sample(s).reshape(Shape::d2(spec.c_out, ohow));
        let dcol = matmul_ta(&wmat, &dys); // KK × (OH·OW)
        let dx = col2im(&dcol, spec.c_in, in_hw.0, in_hw.1, spec.window);
        out.extend_from_slice(dx.as_slice());
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
    use crate::init::uniform;
    use crate::matmul::tests::same_bits;
    use proptest::prelude::*;

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
