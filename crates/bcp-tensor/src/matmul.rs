//! Cache-blocked GEMM kernels.
//!
//! im2col lowers every convolution in the training path to one of these three
//! products, so they are the hot loops of the whole workspace. The kernels
//! walk the output one row at a time and use a fixed K-blocking so the B
//! panel stays in cache; inner loops are written over slices so the compiler
//! can elide bounds checks and vectorize.

use crate::shape::Shape;
use crate::tensor::Tensor;

/// K-dimension block size. 256 f32 ≈ 1 KiB per A row fragment, keeping the
/// B panel (256×N_block) within L2 for the layer sizes used by CNV.
const KBLOCK: usize = 256;

/// `C = A · B` with `A: m×k`, `B: k×n` (both row-major rank-2 tensors).
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "A");
    let (kb, n) = dims2(b, "B");
    assert_eq!(
        k, kb,
        "matmul inner dims disagree: A is {m}×{k}, B is {kb}×{n}"
    );
    let mut out = vec![0.0f32; m * n];
    let av = a.as_slice();
    let bv = b.as_slice();
    out.chunks_mut(n).enumerate().for_each(|(i, crow)| {
        let arow = &av[i * k..(i + 1) * k];
        for k0 in (0..k).step_by(KBLOCK) {
            let kend = (k0 + KBLOCK).min(k);
            for kk in k0..kend {
                let aik = arow[kk];
                if aik == 0.0 {
                    continue;
                }
                let brow = &bv[kk * n..(kk + 1) * n];
                for (c, &bkj) in crow.iter_mut().zip(brow) {
                    *c += aik * bkj;
                }
            }
        }
    });
    Tensor::from_vec(Shape::d2(m, n), out)
}

/// `C = Aᵀ · B` with `A: k×m`, `B: k×n` → `C: m×n`.
///
/// Used by the convolution weight gradient (`dW = dYᵀ · col` reshaped).
pub fn matmul_ta(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = dims2(a, "A");
    let (kb, n) = dims2(b, "B");
    assert_eq!(
        k, kb,
        "matmul_ta inner dims disagree: Aᵀ is {m}×{k}, B is {kb}×{n}"
    );
    let av = a.as_slice();
    let bv = b.as_slice();
    let mut out = vec![0.0f32; m * n];
    // One output row per column of A: each streams down the K dimension
    // reading one strided column of A and full rows of B.
    out.chunks_mut(n).enumerate().for_each(|(i, crow)| {
        for kk in 0..k {
            let aki = av[kk * m + i];
            if aki == 0.0 {
                continue;
            }
            let brow = &bv[kk * n..(kk + 1) * n];
            for (c, &bkj) in crow.iter_mut().zip(brow) {
                *c += aki * bkj;
            }
        }
    });
    Tensor::from_vec(Shape::d2(m, n), out)
}

/// `C = A · Bᵀ` with `A: m×k`, `B: n×k` → `C: m×n`.
///
/// Used by the convolution input gradient (`dcol = Wᵀ · dY` family) and the
/// dense-layer backward pass. Row-times-row dot products vectorize well.
pub fn matmul_tb(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "A");
    let (n, kb) = dims2(b, "B");
    assert_eq!(
        k, kb,
        "matmul_tb inner dims disagree: A is {m}×{k}, Bᵀ is {kb}×{n}"
    );
    let av = a.as_slice();
    let bv = b.as_slice();
    let mut out = vec![0.0f32; m * n];
    out.chunks_mut(n).enumerate().for_each(|(i, crow)| {
        let arow = &av[i * k..(i + 1) * k];
        for (j, c) in crow.iter_mut().enumerate() {
            let brow = &bv[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (x, y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            *c = acc;
        }
    });
    Tensor::from_vec(Shape::d2(m, n), out)
}

/// Reference O(mnk) triple loop used by tests to validate the blocked kernels.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "A");
    let (kb, n) = dims2(b, "B");
    assert_eq!(k, kb);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a.as_slice()[i * k + kk] * b.as_slice()[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(Shape::d2(m, n), out)
}

fn dims2(t: &Tensor, name: &str) -> (usize, usize) {
    assert_eq!(
        t.shape().rank(),
        2,
        "matmul operand {name} must be rank 2, got {}",
        t.shape()
    );
    (t.shape().dim(0), t.shape().dim(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::uniform;
    use crate::ops::transpose2;
    use proptest::prelude::*;

    fn close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
    }

    #[test]
    fn identity() {
        let a = uniform(Shape::d2(4, 4), -1.0, 1.0, 7);
        let mut eye = Tensor::zeros(Shape::d2(4, 4));
        for i in 0..4 {
            *eye.at_mut(&[i, i]) = 1.0;
        }
        assert!(close(&matmul(&a, &eye), &a, 1e-6));
        assert!(close(&matmul(&eye, &a), &a, 1e-6));
    }

    #[test]
    fn known_product() {
        let a = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(Shape::d2(3, 2), vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn blocked_matches_naive_beyond_kblock() {
        // k > KBLOCK exercises the blocking loop.
        let a = uniform(Shape::d2(5, KBLOCK + 37), -1.0, 1.0, 1);
        let b = uniform(Shape::d2(KBLOCK + 37, 9), -1.0, 1.0, 2);
        assert!(close(&matmul(&a, &b), &matmul_naive(&a, &b), 1e-4));
    }

    #[test]
    fn ta_and_tb_match_explicit_transpose() {
        let a = uniform(Shape::d2(6, 5), -1.0, 1.0, 3);
        let b = uniform(Shape::d2(6, 7), -1.0, 1.0, 4);
        // Aᵀ·B
        let want = matmul_naive(&transpose2(&a), &b);
        assert!(close(&matmul_ta(&a, &b), &want, 1e-4));
        // A·Bᵀ — reuse shapes: (5×6)·(7×6)ᵀ
        let a2 = transpose2(&a);
        let b2 = transpose2(&b);
        let want = matmul_naive(&a2, &b);
        assert!(close(&matmul_tb(&a2, &b2), &want, 1e-4));
    }

    #[test]
    #[should_panic(expected = "inner dims disagree")]
    fn shape_mismatch_panics() {
        let a = Tensor::zeros(Shape::d2(2, 3));
        let b = Tensor::zeros(Shape::d2(4, 2));
        matmul(&a, &b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_blocked_equals_naive(m in 1usize..12, k in 1usize..48, n in 1usize..12, seed in 0u64..1000) {
            let a = uniform(Shape::d2(m, k), -2.0, 2.0, seed);
            let b = uniform(Shape::d2(k, n), -2.0, 2.0, seed.wrapping_add(1));
            prop_assert!(close(&matmul(&a, &b), &matmul_naive(&a, &b), 1e-4));
        }

        #[test]
        fn prop_ta_tb_consistency(m in 1usize..10, k in 1usize..24, n in 1usize..10, seed in 0u64..1000) {
            let a = uniform(Shape::d2(m, k), -2.0, 2.0, seed);
            let b = uniform(Shape::d2(k, n), -2.0, 2.0, seed.wrapping_add(9));
            let c = matmul(&a, &b);
            // C = (Aᵀ)ᵀ·B via matmul_ta on Aᵀ.
            let c_ta = matmul_ta(&transpose2(&a), &b);
            // C = A·(Bᵀ)ᵀ via matmul_tb on Bᵀ.
            let c_tb = matmul_tb(&a, &transpose2(&b));
            prop_assert!(close(&c, &c_ta, 1e-4));
            prop_assert!(close(&c, &c_tb, 1e-4));
        }
    }
}
