//! Elementwise and reduction operations on [`Tensor`].

use crate::shape::Shape;
use crate::tensor::Tensor;

/// `a + b`, elementwise.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    zip(a, b, |x, y| x + y)
}

/// `a - b`, elementwise.
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    zip(a, b, |x, y| x - y)
}

/// `a * b`, elementwise (Hadamard).
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    zip(a, b, |x, y| x * y)
}

/// `f(a[i], b[i])` for every element, into a copy of `a`.
fn zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
    let mut out = a.clone();
    out.zip_inplace(b, f);
    out
}

/// `a * s`, scalar scale.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    a.map(|x| x * s)
}

/// In-place `y += alpha * x` (BLAS axpy).
pub fn axpy(alpha: f32, x: &Tensor, y: &mut Tensor) {
    assert_eq!(x.shape(), y.shape(), "axpy shape mismatch");
    for (yi, &xi) in y.as_mut_slice().iter_mut().zip(x.as_slice()) {
        *yi += alpha * xi;
    }
}

/// Sum of all elements.
pub fn sum(a: &Tensor) -> f32 {
    a.as_slice().iter().sum()
}

/// Arithmetic mean of all elements; 0 for an empty tensor.
pub fn mean(a: &Tensor) -> f32 {
    if a.numel() == 0 {
        0.0
    } else {
        sum(a) / a.numel() as f32
    }
}

/// Maximum element; `f32::NEG_INFINITY` for an empty tensor.
pub fn max(a: &Tensor) -> f32 {
    a.as_slice()
        .iter()
        .copied()
        .fold(f32::NEG_INFINITY, f32::max)
}

/// Index of the maximum element of a rank-1 tensor (first on ties).
pub fn argmax(a: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, &v) in a.iter().enumerate() {
        if v > a[best] {
            best = i;
        }
    }
    best
}

/// Row-wise softmax of a rank-2 tensor (rows = samples, cols = logits),
/// numerically stabilised by subtracting the row max.
pub fn softmax_rows(logits: &Tensor) -> Tensor {
    assert_eq!(
        logits.shape().rank(),
        2,
        "softmax_rows expects rank-2 logits"
    );
    let (rows, cols) = (logits.shape().dim(0), logits.shape().dim(1));
    let mut out = vec![0.0f32; rows * cols];
    let src = logits.as_slice();
    for r in 0..rows {
        let row = &src[r * cols..(r + 1) * cols];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for c in 0..cols {
            let e = (row[c] - m).exp();
            out[r * cols + c] = e;
            denom += e;
        }
        for c in 0..cols {
            out[r * cols + c] /= denom;
        }
    }
    Tensor::from_vec(logits.shape().clone(), out)
}

/// Transpose a rank-2 tensor.
pub fn transpose2(a: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "transpose2 expects rank 2");
    let (rows, cols) = (a.shape().dim(0), a.shape().dim(1));
    let src = a.as_slice();
    let mut out = vec![0.0f32; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = src[r * cols + c];
        }
    }
    Tensor::from_vec(Shape::d2(cols, rows), out)
}

/// Mean and (biased) variance per channel of an NCHW tensor, reducing over
/// N, H, W — the statistics batch-norm needs.
#[allow(clippy::needless_range_loop)] // symmetric per-channel loops read clearer
pub fn channel_mean_var(x: &Tensor) -> (Vec<f32>, Vec<f32>) {
    assert_eq!(x.shape().rank(), 4, "channel_mean_var expects NCHW");
    let (n, c, h, w) = (
        x.shape().dim(0),
        x.shape().dim(1),
        x.shape().dim(2),
        x.shape().dim(3),
    );
    let plane = h * w;
    let count = (n * plane) as f32;
    let mut mean = vec![0.0f32; c];
    let mut var = vec![0.0f32; c];
    let src = x.as_slice();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * plane;
            let s: f32 = src[base..base + plane].iter().sum();
            mean[ci] += s;
        }
    }
    for m in &mut mean {
        *m /= count;
    }
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * plane;
            let m = mean[ci];
            let s: f32 = src[base..base + plane]
                .iter()
                .map(|&v| (v - m) * (v - m))
                .sum();
            var[ci] += s;
        }
    }
    for v in &mut var {
        *v /= count;
    }
    (mean, var)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(Shape::d1(n), v)
    }

    #[test]
    fn arithmetic() {
        let a = t(vec![1.0, 2.0, 3.0]);
        let b = t(vec![4.0, 5.0, 6.0]);
        assert_eq!(add(&a, &b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(sub(&b, &a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(mul(&a, &b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(scale(&a, -1.0).as_slice(), &[-1.0, -2.0, -3.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let x = t(vec![1.0, 1.0]);
        let mut y = t(vec![2.0, 3.0]);
        axpy(0.5, &x, &mut y);
        assert_eq!(y.as_slice(), &[2.5, 3.5]);
    }

    #[test]
    fn reductions() {
        let a = t(vec![1.0, -2.0, 4.0]);
        assert_eq!(sum(&a), 3.0);
        assert_eq!(mean(&a), 1.0);
        assert_eq!(max(&a), 4.0);
        assert_eq!(argmax(a.as_slice()), 2);
    }

    #[test]
    fn argmax_first_on_tie() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order() {
        let l = Tensor::from_vec(Shape::d2(2, 3), vec![1.0, 2.0, 3.0, 100.0, 100.0, 100.0]);
        let s = softmax_rows(&l);
        for r in 0..2 {
            let row = &s.as_slice()[r * 3..(r + 1) * 3];
            let total: f32 = row.iter().sum();
            assert!((total - 1.0).abs() < 1e-6);
        }
        // Monotone in logits.
        assert!(s.at(&[0, 2]) > s.at(&[0, 1]));
        // Large equal logits do not overflow.
        assert!((s.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(Shape::d2(2, 3), (0..6).map(|i| i as f32).collect());
        let tt = transpose2(&transpose2(&a));
        assert_eq!(tt, a);
        assert_eq!(transpose2(&a).at(&[2, 1]), a.at(&[1, 2]));
    }

    #[test]
    fn channel_stats() {
        // 1 sample, 2 channels of 2×1: channel 0 = [1, 3], channel 1 = [2, 2].
        let x = Tensor::from_vec(Shape::nchw(1, 2, 2, 1), vec![1.0, 3.0, 2.0, 2.0]);
        let (m, v) = channel_mean_var(&x);
        assert_eq!(m, vec![2.0, 2.0]);
        assert_eq!(v, vec![1.0, 0.0]);
    }
}
