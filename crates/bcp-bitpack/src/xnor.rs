//! XNOR-popcount GEMM — the MVTU arithmetic (paper Eq. 3).
//!
//! `PopCnt(XNOR(H, B))` over packed words gives the number of agreeing ±1
//! positions; the signed accumulator is `2·agreements − k`. The GEMM kernel
//! parallelises over output rows with rayon; each inner product streams two
//! word-aligned rows, so the core loop is pure `XOR → NOT → POPCNT` exactly
//! like one PE lane of the FPGA design.

use crate::bitmatrix::BitMatrix;
use crate::bitvec64::{low_mask, BitVec64, WORD_BITS};
use rayon::prelude::*;

/// Popcount of XNOR between two word slices over `bits` valid bits.
#[inline]
// Word counts are bits/64-bounded and popcount sums fit u32 for any
// representable row; plain ops keep the innermost loop vectorizable.
#[allow(clippy::arithmetic_side_effects)]
// bcp:hot-path — the innermost PE-lane loop of every inference
pub fn xnor_popcount_words(a: &[u64], b: &[u64], bits: usize) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    let full = bits / WORD_BITS;
    let mut agree = 0u32;
    for i in 0..full {
        // audit: allow(index): i < full = bits/64 ≤ slice length for word-aligned rows — callers pass equal-length packed rows
        agree += (!(a[i] ^ b[i])).count_ones();
    }
    let tail = bits % WORD_BITS;
    if tail != 0 {
        // audit: allow(index): a ragged tail implies a final partial word at index full
        agree += ((!(a[full] ^ b[full])) & low_mask(tail)).count_ones();
    }
    agree
}

/// Signed ±1 dot product over packed words.
#[inline]
// 2·agreements − bits cannot overflow i32 for any representable layer width.
#[allow(clippy::arithmetic_side_effects)]
// bcp:hot-path — signed accumulator of the XNOR kernel (paper Eq. 3)
pub fn xnor_dot_words(a: &[u64], b: &[u64], bits: usize) -> i32 {
    // audit: allow(cast): popcount ≤ bits and layer widths are far below 2^31, so both casts are value-preserving
    2 * xnor_popcount_words(a, b, bits) as i32 - bits as i32
}

/// `C = A · Bᵀ` over ±1 entries: `a` is `m × k`, `b_t` is `n × k`
/// (i.e. `b_t` stores the columns of the logical right-hand matrix as rows,
/// which is how MVTU weight memories are laid out). Returns the `m × n`
/// signed accumulator matrix, row-major.
// bcp:hot-path — batched MVTU GEMM, once per layer per batch
pub fn xnor_gemm(a: &BitMatrix, b_t: &BitMatrix) -> Vec<i32> {
    // audit: allow(panic): dimension mismatch is a programming error, checked once per call — never per element
    assert_eq!(
        a.cols(),
        b_t.cols(),
        "xnor_gemm inner dims disagree: {} vs {}",
        a.cols(),
        b_t.cols()
    );
    let (m, n, k) = (a.rows(), b_t.rows(), a.cols());
    // audit: allow(alloc): one accumulator buffer per layer invocation — layer-level buffer reuse is ROADMAP item 3
    let mut out = vec![0i32; m.saturating_mul(n)];
    out.par_chunks_mut(n).enumerate().for_each(|(i, crow)| {
        let arow = a.row_words(i);
        for (j, c) in crow.iter_mut().enumerate() {
            *c = xnor_dot_words(arow, b_t.row_words(j), k);
        }
    });
    out
}

/// Matrix–vector product `y = A · x` over ±1 entries (one MVTU output
/// column at full unfold).
// bcp:hot-path — per-frame MVTU matvec at full unfold
pub fn xnor_matvec(a: &BitMatrix, x: &BitVec64) -> Vec<i32> {
    // audit: allow(panic): length mismatch is a programming error, checked once per call
    assert_eq!(a.cols(), x.len(), "xnor_matvec length mismatch");
    (0..a.rows())
        .map(|r| xnor_dot_words(a.row_words(r), x.words(), a.cols()))
        // audit: allow(alloc): one accumulator vector per layer invocation — layer-level buffer reuse is ROADMAP item 3
        .collect()
}

/// Reference ±1 GEMM via dense decode (tests/benches baseline: this is the
/// "what the FPGA replaces" float path).
// The textbook reference is kept as plainly-written loops; dims are the same
// in-range layer widths the packed kernel handles.
#[allow(clippy::arithmetic_side_effects)]
pub fn gemm_naive_signs(a: &BitMatrix, b_t: &BitMatrix) -> Vec<i32> {
    assert_eq!(a.cols(), b_t.cols());
    let (m, n, k) = (a.rows(), b_t.rows(), a.cols());
    let ad = a.to_signs();
    let bd = b_t.to_signs();
    let mut out = vec![0i32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0f32;
            for kk in 0..k {
                acc += ad[i * k + kk] * bd[j * k + kk];
            }
            out[i * n + j] = acc as i32;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;
    use proptest::prelude::*;

    fn random_bitmatrix(rows: usize, cols: usize, seed: u64) -> BitMatrix {
        let mut m = BitMatrix::zeros(rows, cols);
        let mut state = seed | 1;
        for r in 0..rows {
            for c in 0..cols {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if state >> 40 & 1 == 1 {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    #[test]
    fn gemm_identity_like() {
        // A row dotted with itself gives k.
        let a = random_bitmatrix(4, 100, 7);
        let c = xnor_gemm(&a, &a);
        for i in 0..4 {
            assert_eq!(c[i * 4 + i], 100);
        }
    }

    #[test]
    fn gemm_matches_naive() {
        let a = random_bitmatrix(7, 130, 1);
        let b = random_bitmatrix(5, 130, 2);
        assert_eq!(xnor_gemm(&a, &b), gemm_naive_signs(&a, &b));
    }

    #[test]
    fn matvec_matches_gemm_column() {
        let a = random_bitmatrix(6, 90, 3);
        let x = random_bitmatrix(1, 90, 4).row(0);
        let mv = xnor_matvec(&a, &x);
        let g = xnor_gemm(&a, &BitMatrix::from_rows(&[x]));
        assert_eq!(mv, g);
    }

    #[test]
    fn word_kernel_handles_exact_multiples() {
        let a = random_bitmatrix(2, 128, 5);
        let b = random_bitmatrix(2, 128, 6);
        assert_eq!(xnor_gemm(&a, &b), gemm_naive_signs(&a, &b));
    }

    #[test]
    #[should_panic(expected = "inner dims disagree")]
    fn gemm_checks_dims() {
        let a = BitMatrix::zeros(2, 10);
        let b = BitMatrix::zeros(2, 11);
        xnor_gemm(&a, &b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_gemm_equals_naive(m in 1usize..6, n in 1usize..6, k in 1usize..200, seed in any::<u64>()) {
            let a = random_bitmatrix(m, k, seed);
            let b = random_bitmatrix(n, k, seed.wrapping_add(99));
            prop_assert_eq!(xnor_gemm(&a, &b), gemm_naive_signs(&a, &b));
        }

        #[test]
        fn prop_accumulator_parity(k in 1usize..300, seed in any::<u64>()) {
            // Every accumulator has the same parity as k and magnitude ≤ k.
            let a = random_bitmatrix(3, k, seed);
            let b = random_bitmatrix(3, k, seed.wrapping_add(1));
            for acc in xnor_gemm(&a, &b) {
                prop_assert!(acc.unsigned_abs() as usize <= k);
                prop_assert_eq!((acc - k as i32).rem_euclid(2), 0);
            }
        }
    }
}
