//! im2col / col2im lowering: convolution ⇄ GEMM.
//!
//! For one CHW sample, `im2col` lays every K×K receptive field out as a
//! column of a `(C·K·K) × (OH·OW)` matrix, so that the convolution with a
//! `(C_o) × (C_i·K·K)` weight matrix becomes a single GEMM whose result is
//! already in CHW order. `col2im` is its adjoint, scattering gradient columns
//! back onto the (padded) input — exactly the operation the conv backward
//! pass needs.

use crate::shape::{conv_out_dim, Shape};
use crate::tensor::Tensor;

/// Geometry of a 2-D sliding window (shared by conv and pooling).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowSpec {
    /// Kernel extent (square kernels only — all BinaryCoP layers use K=3).
    pub k: usize,
    /// Symmetric zero padding.
    pub pad: usize,
    /// Window stride.
    pub stride: usize,
}

impl WindowSpec {
    /// Output spatial size for an `h × w` input.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            conv_out_dim(h, self.k, self.pad, self.stride),
            conv_out_dim(w, self.k, self.pad, self.stride),
        )
    }
}

/// Lower one CHW sample to its column matrix of shape `(C·K·K) × (OH·OW)`.
///
/// Out-of-bounds taps (from padding) contribute zeros.
pub fn im2col(x: &Tensor, spec: WindowSpec) -> Tensor {
    assert_eq!(x.shape().rank(), 3, "im2col expects a CHW sample");
    let (c, h, w) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2));
    let (oh, ow) = spec.out_hw(h, w);
    let (rows, cols) = (c * spec.k * spec.k, oh * ow);
    let mut out = vec![0.0f32; rows * cols];
    im2col_rows(x.as_slice(), (c, h, w), spec, 0..rows, &mut out, cols);
    Tensor::from_vec(Shape::d2(rows, cols), out)
}

/// Rows `rows` of the column matrix of the CHW sample `src` (`chw` its
/// extent), written `stride` apart into `dst`: each row's `OH·OW` values,
/// padding taps included as zeros, overwrite whatever `dst` held there.
pub(crate) fn im2col_rows(
    src: &[f32],
    (c, h, w): (usize, usize, usize),
    spec: WindowSpec,
    rows: std::ops::Range<usize>,
    dst: &mut [f32],
    stride: usize,
) {
    let (oh, ow) = spec.out_hw(h, w);
    let kk = spec.k * spec.k;
    debug_assert!(rows.end <= c * kk);
    for (i, row) in rows.enumerate() {
        let (ci, ky, kx) = (row / kk, row % kk / spec.k, row % spec.k);
        let dst = &mut dst[i * stride..i * stride + oh * ow];
        dst.fill(0.0);
        for oy in 0..oh {
            let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
            if iy < 0 || iy >= h as isize {
                continue; // whole output row reads padding for this tap
            }
            let src_row = &src[(ci * h + iy as usize) * w..(ci * h + iy as usize + 1) * w];
            for ox in 0..ow {
                let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                if ix < 0 || ix >= w as isize {
                    continue;
                }
                dst[oy * ow + ox] = src_row[ix as usize];
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatter-add a `(C·K·K) × (OH·OW)` column-gradient
/// matrix back to a CHW gradient of the original `(c, h, w)` input.
pub fn col2im(dcol: &Tensor, c: usize, h: usize, w: usize, spec: WindowSpec) -> Tensor {
    assert_eq!(
        dcol.shape().rank(),
        2,
        "col2im expects a rank-2 column matrix"
    );
    let (oh, ow) = spec.out_hw(h, w);
    let cols = oh * ow;
    assert_eq!(
        dcol.shape().dims(),
        &[c * spec.k * spec.k, cols],
        "col2im shape mismatch for c={c}, h={h}, w={w}, spec={spec:?}"
    );
    let mut out = vec![0.0f32; c * h * w];
    col2im_add(dcol.as_slice(), cols, (c, h, w), spec, &mut out);
    Tensor::from_vec(Shape::d3(c, h, w), out)
}

/// [`col2im`] of the column matrix whose rows start `stride` apart in
/// `src`, added into the CHW gradient `dst` (`chw` its extent), row by row
/// in the same order.
pub(crate) fn col2im_add(
    src: &[f32],
    stride: usize,
    (c, h, w): (usize, usize, usize),
    spec: WindowSpec,
    dst: &mut [f32],
) {
    let (oh, ow) = spec.out_hw(h, w);
    for ci in 0..c {
        for ky in 0..spec.k {
            for kx in 0..spec.k {
                let row = (ci * spec.k + ky) * spec.k + kx;
                let grad = &src[row * stride..row * stride + oh * ow];
                for oy in 0..oh {
                    let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let base = (ci * h + iy as usize) * w;
                    for ox in 0..ow {
                        let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        dst[base + ix as usize] += grad[oy * ow + ox];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::uniform;
    use proptest::prelude::*;

    #[test]
    fn identity_kernel_geometry() {
        // K=1 stride=1 pad=0: im2col is a reshape.
        let x = Tensor::from_vec(Shape::d3(2, 2, 2), (0..8).map(|i| i as f32).collect());
        let col = im2col(
            &x,
            WindowSpec {
                k: 1,
                pad: 0,
                stride: 1,
            },
        );
        assert_eq!(col.shape().dims(), &[2, 4]);
        assert_eq!(col.as_slice(), x.as_slice());
    }

    #[test]
    fn known_3x3_patch() {
        // Single channel 3×3 input, K=3: one column equal to the whole image.
        let x = Tensor::from_vec(Shape::d3(1, 3, 3), (1..=9).map(|i| i as f32).collect());
        let col = im2col(
            &x,
            WindowSpec {
                k: 3,
                pad: 0,
                stride: 1,
            },
        );
        assert_eq!(col.shape().dims(), &[9, 1]);
        assert_eq!(col.as_slice(), x.as_slice());
    }

    #[test]
    fn padding_reads_zero() {
        let x = Tensor::ones(Shape::d3(1, 2, 2));
        let col = im2col(
            &x,
            WindowSpec {
                k: 3,
                pad: 1,
                stride: 1,
            },
        );
        assert_eq!(col.shape().dims(), &[9, 4]);
        // Center tap (ky=1,kx=1) always hits the image.
        let center = &col.as_slice()[4 * 4..5 * 4];
        assert_eq!(center, &[1.0, 1.0, 1.0, 1.0]);
        // Top-left tap (ky=0,kx=0) only hits the image at output (1,1).
        let tl = &col.as_slice()[0..4];
        assert_eq!(tl, &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn stride_two_samples_every_other() {
        let x = Tensor::from_vec(Shape::d3(1, 4, 4), (0..16).map(|i| i as f32).collect());
        let col = im2col(
            &x,
            WindowSpec {
                k: 2,
                pad: 0,
                stride: 2,
            },
        );
        assert_eq!(col.shape().dims(), &[4, 4]);
        // Tap (0,0) picks the top-left of each 2×2 block.
        assert_eq!(&col.as_slice()[0..4], &[0.0, 2.0, 8.0, 10.0]);
    }

    /// col2im must be the exact adjoint of im2col: ⟨im2col(x), g⟩ = ⟨x, col2im(g)⟩.
    fn adjoint_check(c: usize, h: usize, w: usize, spec: WindowSpec, seed: u64) {
        let x = uniform(Shape::d3(c, h, w), -1.0, 1.0, seed);
        let col = im2col(&x, spec);
        let g = uniform(col.shape().clone(), -1.0, 1.0, seed + 1);
        let lhs: f32 = col
            .as_slice()
            .iter()
            .zip(g.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let back = col2im(&g, c, h, w, spec);
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
            "adjoint mismatch {lhs} vs {rhs} for spec {spec:?}"
        );
    }

    #[test]
    fn adjoint_no_padding() {
        adjoint_check(
            3,
            8,
            8,
            WindowSpec {
                k: 3,
                pad: 0,
                stride: 1,
            },
            10,
        );
    }

    #[test]
    fn adjoint_with_padding_and_stride() {
        adjoint_check(
            2,
            7,
            5,
            WindowSpec {
                k: 3,
                pad: 1,
                stride: 2,
            },
            20,
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_adjoint(c in 1usize..4, h in 3usize..9, w in 3usize..9,
                        k in 1usize..4, pad in 0usize..2, stride in 1usize..3,
                        seed in 0u64..500) {
            prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
            adjoint_check(c, h, w, WindowSpec { k, pad, stride }, seed);
        }
    }
}
