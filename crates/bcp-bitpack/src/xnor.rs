//! XNOR-popcount word arithmetic — one PE lane of the MVTU (paper Eq. 3).
//!
//! `PopCnt(XNOR(H, B))` over packed words gives the number of agreeing ±1
//! positions; the signed accumulator is `2·agreements − k`. An inner
//! product streams two word-aligned rows, so the core loop is pure
//! `XOR → NOT → POPCNT` exactly like one PE lane of the FPGA design. The
//! layer-level product built from these lanes is [`crate::gemm`];
//! [`gemm_naive_signs`] is the dense-decode oracle its tests compare with.

use crate::bitmatrix::BitMatrix;
use crate::bitvec64::{low_mask, WORD_BITS};

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
    use crate::bitvec64::BitVec64;
    use proptest::prelude::*;

    fn dot(a: &BitVec64, b: &BitVec64) -> i32 {
        xnor_dot_words(a.words(), b.words(), a.len())
    }

    #[test]
    fn xnor_popcount_ignores_padding() {
        // Two all-(−1) vectors of 65 bits: all 65 agree; the 63 padding bit
        // positions (which XNOR to 1) must not be counted.
        let a = BitVec64::zeros(65);
        let b = BitVec64::zeros(65);
        assert_eq!(xnor_popcount_words(a.words(), b.words(), 65), 65);
        assert_eq!(dot(&a, &b), 65);
    }

    #[test]
    fn dot_known_values() {
        let a = BitVec64::from_bools(&[true, true, false, false]);
        let b = BitVec64::from_bools(&[true, false, true, false]);
        // Agreements at positions 0 and 3 → dot = 2·2 − 4 = 0.
        assert_eq!(dot(&a, &b), 0);
        assert_eq!(dot(&a, &a), 4);
        let c = BitVec64::from_bools(&[false, false, true, true]);
        assert_eq!(dot(&a, &c), -4);
    }

    #[test]
    fn naive_signs_known_answer() {
        // The oracle itself is pinned to a hand-checked product:
        // [[+1 −1 +1], [−1 −1 −1]] · [[+1 +1 +1]]ᵀ = [+1, −3].
        let a = BitMatrix::from_rows(&[
            BitVec64::from_bools(&[true, false, true]),
            BitVec64::zeros(3),
        ]);
        let b = BitMatrix::from_rows(&[BitVec64::ones(3)]);
        assert_eq!(gemm_naive_signs(&a, &b), vec![1, -3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_dot_matches_naive(bits_a in proptest::collection::vec(any::<bool>(), 1..200),
                                  bits_b_seed in any::<u64>()) {
            let n = bits_a.len();
            // Derive b deterministically from the seed so lengths match.
            let bits_b: Vec<bool> = (0..n).map(|i| (bits_b_seed >> (i % 64)) & 1 == 1).collect();
            let a = BitVec64::from_bools(&bits_a);
            let b = BitVec64::from_bools(&bits_b);
            let naive: i32 = bits_a.iter().zip(&bits_b)
                .map(|(&x, &y)| {
                    let xs = if x { 1i32 } else { -1 };
                    let ys = if y { 1i32 } else { -1 };
                    xs * ys
                })
                .sum();
            prop_assert_eq!(dot(&a, &b), naive);
        }

        #[test]
        fn prop_dot_bounds_and_symmetry(bits in proptest::collection::vec(any::<(bool, bool)>(), 1..128)) {
            let a = BitVec64::from_bools(&bits.iter().map(|p| p.0).collect::<Vec<_>>());
            let b = BitVec64::from_bools(&bits.iter().map(|p| p.1).collect::<Vec<_>>());
            let d = dot(&a, &b);
            let n = bits.len() as i32;
            prop_assert!(d >= -n && d <= n);
            // Same parity as n.
            prop_assert_eq!((d - n).rem_euclid(2), 0);
            prop_assert_eq!(dot(&a, &b), dot(&b, &a));
            prop_assert_eq!(dot(&a, &a), n);
        }
    }
}
