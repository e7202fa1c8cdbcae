//! One order-preserving, register-tiled GEMM kernel.
//!
//! im2col lowers every convolution in the training path to one of three
//! products — `A·B`, `Aᵀ·B`, `A·Bᵀ` — so they are the hot loops of the whole
//! workspace. All three are one kernel: `pack` copies each operand once
//! into panels, reading it through a (row stride, column stride) pair —
//! which is all a transpose is — and `tile` computes an `MR × NR` block of
//! outputs with the `NR` columns in SIMD lanes, the accumulators held in
//! registers for the whole depth.
//!
//! **Order invariant.** Every output is the sequential f32 sum
//! `(((+0.0 + a₀b₀) + a₁b₁) + …)` in ascending `k`, exactly as
//! [`matmul_naive`] computes it, so every product is bit-identical to the
//! triple loop. The kernel is parallel only across outputs (the lanes of a
//! tile are different outputs, never parts of one dot product), uses no
//! `mul_add` (a fused multiply-add rounds once where `a * b + c` rounds
//! twice), and skips no term. This is why training reproduces bit for bit
//! across kernel changes: a faster kernel is admissible only if it keeps
//! the invariant — splitting `k` across lanes or threads reassociates the
//! sum and moves every trained weight.

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Output rows per tile: one broadcast `A` value per row and `k` step.
const MR: usize = 4;
/// Output columns per tile: two 8-lane vectors of `B` per row and `k` step,
/// so a tile is eight vector accumulators.
const NR: usize = 16;

/// `C = A · B` with `A: m×k`, `B: k×n` (both row-major rank-2 tensors).
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "A");
    let (kb, n) = dims2(b, "B");
    assert_eq!(
        k, kb,
        "matmul inner dims disagree: A is {m}×{k}, B is {kb}×{n}"
    );
    gemm(m, k, n, (a.as_slice(), k, 1), (b.as_slice(), n, 1))
}

/// `C = Aᵀ · B` with `A: k×m`, `B: k×n` → `C: m×n`.
///
/// Used by the convolution input gradient (`dcol = Wᵀ · dY`) and the dense
/// weight gradient.
pub fn matmul_ta(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = dims2(a, "A");
    let (kb, n) = dims2(b, "B");
    assert_eq!(
        k, kb,
        "matmul_ta inner dims disagree: Aᵀ is {m}×{k}, B is {kb}×{n}"
    );
    gemm(m, k, n, (a.as_slice(), 1, m), (b.as_slice(), n, 1))
}

/// `C = A · Bᵀ` with `A: m×k`, `B: n×k` → `C: m×n`.
///
/// Used by the convolution weight gradient (`dW = dY · colᵀ`) and the dense
/// forward pass.
pub fn matmul_tb(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "A");
    let (n, kb) = dims2(b, "B");
    assert_eq!(
        k, kb,
        "matmul_tb inner dims disagree: A is {m}×{k}, Bᵀ is {kb}×{n}"
    );
    gemm(m, k, n, (a.as_slice(), k, 1), (b.as_slice(), 1, k))
}

/// Reference O(mnk) triple loop: the order every kernel result must match
/// bit for bit.
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

/// A matrix read through strides: element `(r, c)` is `data[r·rs + c·cs]`.
type Strided<'a> = (&'a [f32], usize, usize);

/// `C = A · B` for a logical `m×k` `A` and `k×n` `B`, each [`Strided`].
///
/// A narrow `C` (a conv layer with one or nine output pixels) would leave
/// most of a tile's `NR` lanes padding, so the kernel computes `Cᵀ = Bᵀ·Aᵀ`
/// instead whenever that takes fewer tiles: transposing a strided operand
/// is swapping its strides, and every output is the same k-ascending sum
/// either way.
fn gemm(m: usize, k: usize, n: usize, a: Strided, b: Strided) -> Tensor {
    let mut out = vec![0.0f32; m * n];
    let tiles = |rows: usize, cols: usize| rows.div_ceil(MR) * cols.div_ceil(NR);
    // The product the tiles compute, and the strides its (i, j) has in `out`.
    let (rows, cols, a, b, (ors, ocs)) = if tiles(m, n) <= tiles(n, m) {
        (m, n, a, b, (n, 1))
    } else {
        (n, m, (b.0, b.2, b.1), (a.0, a.2, a.1), (1, n))
    };
    if k > 0 {
        let ap = pack::<MR>(a.0, rows, k, (a.1, a.2));
        // B's columns are the panel rows, its rows the depth.
        let bp = pack::<NR>(b.0, cols, k, (b.2, b.1));
        // Every A panel passes one B panel before the next B panel is read.
        for (j0, bpanel) in (0..cols).step_by(NR).zip(bp.chunks_exact(k * NR)) {
            for (i0, apanel) in (0..rows).step_by(MR).zip(ap.chunks_exact(k * MR)) {
                for (i, acc) in (i0..rows).zip(tile(apanel, bpanel)) {
                    for (j, v) in (j0..cols).zip(acc) {
                        out[i * ors + j * ocs] = v;
                    }
                }
            }
        }
    }
    Tensor::from_vec(Shape::d2(m, n), out)
}

/// Copy the logical `rows × depth` matrix `data[r·rs + d·ds]` into panels of
/// `W` rows, depth-major inside a panel (`W` values per depth step, the
/// order [`tile`] reads them). The last panel is zero-padded; its padded
/// outputs are computed and dropped.
fn pack<const W: usize>(
    data: &[f32],
    rows: usize,
    depth: usize,
    (rs, ds): (usize, usize),
) -> Vec<f32> {
    let mut out = vec![0.0f32; rows.div_ceil(W) * depth * W];
    for (r0, panel) in (0..rows).step_by(W).zip(out.chunks_exact_mut(depth * W)) {
        let live = W.min(rows - r0);
        for (d, slot) in panel.chunks_exact_mut(W).enumerate() {
            let at = r0 * rs + d * ds;
            if rs == 1 {
                slot[..live].copy_from_slice(&data[at..at + live]);
            } else {
                for (r, s) in slot[..live].iter_mut().enumerate() {
                    *s = data[at + r * rs];
                }
            }
        }
    }
    out
}

/// One `MR × NR` block of outputs over the whole depth: `a` is an A panel
/// (`MR` values per step), `b` a B panel (`NR` per step).
///
/// Each accumulator row is its own variable so LLVM keeps the tile in eight
/// vector registers and vectorizes across the `NR` columns; an
/// `[[f32; NR]; MR]` accumulator is instead vectorized across rows through
/// the stack. Not inlined, so that code generation does not depend on the
/// caller.
#[inline(never)]
fn tile(a: &[f32], b: &[f32]) -> [[f32; NR]; MR] {
    let mut c = ([0.0f32; NR], [0.0f32; NR], [0.0f32; NR], [0.0f32; NR]);
    for (a, b) in a.chunks_exact(MR).zip(b.chunks_exact(NR)) {
        let (&[a0, a1, a2, a3], Ok(b)) = (a, <&[f32; NR]>::try_from(b)) else {
            unreachable!("panels are whole steps");
        };
        c.0 = axpy(c.0, a0, b);
        c.1 = axpy(c.1, a1, b);
        c.2 = axpy(c.2, a2, b);
        c.3 = axpy(c.3, a3, b);
    }
    [c.0, c.1, c.2, c.3]
}

/// `c + a·b` lane by lane: one rounded multiply, then one rounded add.
#[inline(always)]
fn axpy(mut c: [f32; NR], a: f32, b: &[f32; NR]) -> [f32; NR] {
    for (c, &b) in c.iter_mut().zip(b) {
        *c += a * b;
    }
    c
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
pub(crate) mod tests {
    use super::*;
    use crate::init::uniform;
    use crate::ops::transpose2;
    use proptest::prelude::*;

    /// Bit equality, element by element: a tolerance cannot see a
    /// reordered sum, this can.
    pub(crate) fn same_bits(got: &Tensor, want: &Tensor) -> Result<(), String> {
        if got.shape() != want.shape() {
            return Err(format!("shape {} vs {}", got.shape(), want.shape()));
        }
        match got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .position(|(x, y)| x.to_bits() != y.to_bits())
        {
            Some(i) => Err(format!(
                "element {i}: {:e} vs {:e}",
                got.as_slice()[i],
                want.as_slice()[i]
            )),
            None => Ok(()),
        }
    }

    /// All three public products against the naive loop on `A·B`, the
    /// transposed ones fed explicitly transposed operands.
    fn check_all(a: &Tensor, b: &Tensor) -> Result<(), String> {
        let want = matmul_naive(a, b);
        same_bits(&matmul(a, b), &want).map_err(|e| format!("matmul: {e}"))?;
        same_bits(&matmul_ta(&transpose2(a), b), &want).map_err(|e| format!("matmul_ta: {e}"))?;
        same_bits(&matmul_tb(a, &transpose2(b)), &want).map_err(|e| format!("matmul_tb: {e}"))
    }

    #[test]
    fn identity() {
        let a = uniform(Shape::d2(4, 4), -1.0, 1.0, 7);
        let mut eye = Tensor::zeros(Shape::d2(4, 4));
        for i in 0..4 {
            *eye.at_mut(&[i, i]) = 1.0;
        }
        same_bits(&matmul(&a, &eye), &a).unwrap();
        same_bits(&matmul(&eye, &a), &a).unwrap();
    }

    #[test]
    fn known_product() {
        let a = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(Shape::d2(3, 2), vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    /// Every ragged-tile case: m and n on both sides of MR and NR, k short
    /// and long, and both orientations (`33 × 1` is computed transposed,
    /// `1 × 33` as it stands).
    #[test]
    fn bit_identical_to_naive_across_tile_edges() {
        let edges = [1, MR - 1, MR, MR + 1, NR - 1, NR + 1, 2 * NR + 1];
        let mut seed = 0;
        for k in [1, 255, 257] {
            for m in edges {
                for n in edges {
                    seed += 2;
                    let a = uniform(Shape::d2(m, k), -2.0, 2.0, seed);
                    let b = uniform(Shape::d2(k, n), -2.0, 2.0, seed + 1);
                    check_all(&a, &b).unwrap_or_else(|e| panic!("{m}×{k}×{n}: {e}"));
                }
            }
        }
    }

    #[test]
    fn ta_and_tb_match_explicit_transpose() {
        let a = uniform(Shape::d2(6, 5), -1.0, 1.0, 3);
        let b = uniform(Shape::d2(5, 7), -1.0, 1.0, 4);
        check_all(&a, &b).unwrap();
    }

    /// Zeros and `−0.0` in A are what the old `a == 0.0` skip dropped: with
    /// finite B the terms leave the sum as it is; against an infinite B they
    /// make it NaN, as the naive loop says.
    #[test]
    fn zero_terms_are_summed_not_skipped() {
        let (m, k, n) = (MR + 1, 37, NR + 3);
        let mut a = uniform(Shape::d2(m, k), -1.0, 1.0, 5);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            match i % 3 {
                0 => *v = 0.0,
                1 => *v = -0.0,
                _ => {}
            }
        }
        let mut b = uniform(Shape::d2(k, n), -1.0, 1.0, 6);
        check_all(&a, &b).unwrap();

        b.as_mut_slice()[0] = f32::INFINITY; // meets a[0][0] = +0.0
        let c = matmul(&a, &b);
        assert!(c.as_slice()[0].is_nan(), "0 · inf must reach the sum");
        assert!(!c.as_slice()[1].is_nan());
        check_all(&a, &b).unwrap();
    }

    /// Every sum starts from `+0.0`: a row of `−0.0` products sums to
    /// `+0.0`, where seeding the accumulator with the first product would
    /// give `−0.0`.
    #[test]
    fn sums_start_from_positive_zero() {
        let a = Tensor::from_vec(Shape::d2(1, 3), vec![-0.0; 3]);
        let b = Tensor::ones(Shape::d2(3, NR + 1));
        assert!(matmul(&a, &b).as_slice().iter().all(|v| v.to_bits() == 0));
        check_all(&a, &b).unwrap();
    }

    #[test]
    fn empty_depth_is_all_zeros() {
        let c = matmul(
            &Tensor::zeros(Shape::d2(3, 0)),
            &Tensor::zeros(Shape::d2(0, 5)),
        );
        assert_eq!(c.shape().dims(), &[3, 5]);
        assert!(c.as_slice().iter().all(|v| v.to_bits() == 0));
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
        fn prop_blocked_equals_naive(m in 1usize..40, k in 1usize..48, n in 1usize..40, seed in 0u64..1000) {
            let a = uniform(Shape::d2(m, k), -2.0, 2.0, seed);
            let b = uniform(Shape::d2(k, n), -2.0, 2.0, seed.wrapping_add(1));
            prop_assert_eq!(same_bits(&matmul(&a, &b), &matmul_naive(&a, &b)), Ok(()));
        }

        #[test]
        fn prop_ta_tb_consistency(m in 1usize..10, k in 1usize..24, n in 1usize..10, seed in 0u64..1000) {
            let a = uniform(Shape::d2(m, k), -2.0, 2.0, seed);
            let b = uniform(Shape::d2(k, n), -2.0, 2.0, seed.wrapping_add(9));
            prop_assert_eq!(check_all(&a, &b), Ok(()));
        }
    }
}
