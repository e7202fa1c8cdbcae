//! Packed bit vector over `u64` words.

use serde::{Deserialize, Serialize};

/// Number of bits per storage word.
pub const WORD_BITS: usize = 64;

/// A fixed-length bit vector packed into `u64` words, LSB-first within each
/// word. Bit value 1 encodes +1, bit value 0 encodes −1 (the paper's
/// hardware convention, Sec. III-A).
///
/// The trailing bits of the last word beyond `len` are always zero; every
/// mutating operation maintains that invariant so popcounts stay exact.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BitVec64 {
    len: usize,
    words: Vec<u64>,
}

/// Words needed for `len` bits.
#[inline]
pub fn words_for(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

/// Mask with the low `n` bits set (`n` ≤ 64; `n == 64` → all ones, `0` → 0).
#[inline]
pub fn low_mask(n: usize) -> u64 {
    debug_assert!(n <= WORD_BITS);
    if n == WORD_BITS {
        u64::MAX
    } else {
        (1u64 << n).wrapping_sub(1)
    }
}

impl BitVec64 {
    /// All-zero (all −1) vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec64 {
            len,
            // audit: allow(alloc): constructing a packed vector allocates by definition — hot callers recycle via layer-level buffer reuse (ROADMAP item 3)
            words: vec![0; words_for(len)],
        }
    }

    /// All-one (all +1) vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut v = BitVec64 {
            len,
            words: vec![u64::MAX; words_for(len)],
        };
        v.clear_padding();
        v
    }

    /// Build from booleans (`true` → bit 1 → +1).
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Length in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Backing words (padding bits guaranteed zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild from raw words; panics if `words` is too short or has set
    /// padding bits (which would corrupt popcounts later).
    pub fn from_words(len: usize, words: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            words_for(len),
            "word count mismatch for {len} bits"
        );
        let v = BitVec64 { len, words };
        assert!(
            v.padding_clear(),
            "set bits beyond len={len} would corrupt popcounts"
        );
        v
    }

    /// Read bit `i`.
    #[inline]
    // bcp:hot-path — per-bit read used by pooling and packing stages (name is on the audit stoplist, so rooted explicitly)
    pub fn get(&self, i: usize) -> bool {
        // audit: allow(panic): the bit bound is the accessor's contract — one compare guarding the shift below
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        // audit: allow(index): i < len was just asserted, so i/64 is within the word buffer
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Write bit `i`.
    #[inline]
    // bcp:hot-path — per-neuron write of every threshold stage (name is on the audit stoplist, so rooted explicitly)
    pub fn set(&mut self, i: usize, value: bool) {
        // audit: allow(panic): the bit bound is the accessor's contract — one compare guarding the store below
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        // audit: allow(index): i < len was just asserted, so i/64 is within the word buffer
        let w = &mut self.words[i / WORD_BITS];
        let m = 1u64 << (i % WORD_BITS);
        if value {
            *w |= m;
        } else {
            *w &= !m;
        }
    }

    /// OR `value` into bit `i` without a branch — a zero-initialized vector
    /// plus `or_bit` is the branch-free way to materialize predicate bits,
    /// which keeps the fused-threshold GEMM loop free of data-dependent
    /// branches (random sign data would mispredict a `set` roughly half the
    /// time).
    #[inline]
    // bcp:hot-path — branchless per-neuron write of the fused threshold kernel
    pub fn or_bit(&mut self, i: usize, value: bool) {
        // audit: allow(panic): the bit bound is the accessor's contract — one compare guarding the store below
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        // audit: allow(index): i < len was just asserted, so i/64 is within the word buffer
        self.words[i / WORD_BITS] |= u64::from(value) << (i % WORD_BITS);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Popcount of `XNOR(self, other)` over the valid bits only —
    /// the number of positions where the two ±1 vectors agree.
    // Word counts are len/64-bounded and popcount sums fit u32 for any
    // representable vector; plain ops keep the XNOR loop vectorizable.
    #[allow(clippy::arithmetic_side_effects)]
    // bcp:hot-path — agreement count of the packed ±1 kernel
    pub fn xnor_popcount(&self, other: &BitVec64) -> u32 {
        // audit: allow(panic): length mismatch is a programming error, checked once per call — not per word
        assert_eq!(self.len, other.len, "xnor_popcount length mismatch");
        if self.len == 0 {
            return 0;
        }
        let full_words = self.len / WORD_BITS;
        let mut count = 0u32;
        for i in 0..full_words {
            // audit: allow(index): i < full_words = len/64 ≤ word count for both operands (lengths asserted equal)
            count += (!(self.words[i] ^ other.words[i])).count_ones();
        }
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            // audit: allow(index): a ragged tail implies a final partial word at index full_words
            let x = !(self.words[full_words] ^ other.words[full_words]) & low_mask(tail);
            count += x.count_ones();
        }
        count
    }

    /// ±1 dot product via XNOR + popcount: `2·agreements − len`.
    #[inline]
    // 2·agreements − len cannot overflow i32 for any representable layer width.
    #[allow(clippy::arithmetic_side_effects)]
    // bcp:hot-path — per-neuron ±1 dot product (paper Eq. 3)
    pub fn dot(&self, other: &BitVec64) -> i32 {
        // audit: allow(cast): popcount ≤ len and layer widths are far below 2^31, so both casts are value-preserving
        2 * self.xnor_popcount(other) as i32 - self.len as i32
    }

    /// Bitwise OR (used by the FINN pooling unit: max of ±1 values == OR).
    pub fn or(&self, other: &BitVec64) -> BitVec64 {
        assert_eq!(self.len, other.len, "or length mismatch");
        BitVec64 {
            len: self.len,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
        }
    }

    /// Bitwise AND.
    pub fn and(&self, other: &BitVec64) -> BitVec64 {
        assert_eq!(self.len, other.len, "and length mismatch");
        BitVec64 {
            len: self.len,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// Decode back to ±1 floats.
    pub fn to_signs(&self) -> Vec<f32> {
        (0..self.len)
            .map(|i| if self.get(i) { 1.0 } else { -1.0 })
            .collect()
    }

    fn clear_padding(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= low_mask(tail);
            }
        }
    }

    fn padding_clear(&self) -> bool {
        let tail = self.len % WORD_BITS;
        tail == 0 || self.words.last().is_none_or(|w| w & !low_mask(tail) == 0)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec64::zeros(130);
        v.set(0, true);
        v.set(63, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(63) && v.get(64) && v.get(129));
        assert!(!v.get(1) && !v.get(128));
        assert_eq!(v.count_ones(), 4);
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    fn or_bit_matches_set_on_zeroed_vectors() {
        let mut a = BitVec64::zeros(130);
        let mut b = BitVec64::zeros(130);
        for (i, fire) in [(0, true), (63, false), (64, true), (129, true)] {
            a.set(i, fire);
            b.or_bit(i, fire);
        }
        assert_eq!(a, b);
        // or_bit(_, false) never clears an already-set bit.
        b.or_bit(64, false);
        assert!(b.get(64));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn or_bit_checks_bounds() {
        BitVec64::zeros(10).or_bit(10, true);
    }

    #[test]
    fn ones_has_clean_padding() {
        let v = BitVec64::ones(70);
        assert_eq!(v.count_ones(), 70);
        assert_eq!(v.words().len(), 2);
        assert_eq!(v.words()[1] >> 6, 0, "padding bits must stay zero");
    }

    #[test]
    fn xnor_popcount_ignores_padding() {
        // Two all-(−1) vectors of 65 bits: all 65 agree; the 63 padding bit
        // positions (which XNOR to 1) must not be counted.
        let a = BitVec64::zeros(65);
        let b = BitVec64::zeros(65);
        assert_eq!(a.xnor_popcount(&b), 65);
        assert_eq!(a.dot(&b), 65);
    }

    #[test]
    fn dot_known_values() {
        let a = BitVec64::from_bools(&[true, true, false, false]);
        let b = BitVec64::from_bools(&[true, false, true, false]);
        // Agreements at positions 0 and 3 → dot = 2·2 − 4 = 0.
        assert_eq!(a.dot(&b), 0);
        assert_eq!(a.dot(&a), 4);
        let c = BitVec64::from_bools(&[false, false, true, true]);
        assert_eq!(a.dot(&c), -4);
    }

    #[test]
    fn or_is_binary_max() {
        let a = BitVec64::from_bools(&[true, false, false]);
        let b = BitVec64::from_bools(&[false, false, true]);
        let o = a.or(&b);
        assert_eq!(o.to_signs(), vec![1.0, -1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "corrupt popcounts")]
    fn from_words_rejects_dirty_padding() {
        BitVec64::from_words(3, vec![0b11111]);
    }

    #[test]
    fn to_signs_roundtrip() {
        let bits = [true, false, true, true, false];
        let v = BitVec64::from_bools(&bits);
        let signs = v.to_signs();
        for (s, b) in signs.iter().zip(bits) {
            assert_eq!(*s, if b { 1.0 } else { -1.0 });
        }
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
            prop_assert_eq!(a.dot(&b), naive);
        }

        #[test]
        fn prop_dot_bounds_and_symmetry(bits in proptest::collection::vec(any::<(bool, bool)>(), 1..128)) {
            let a = BitVec64::from_bools(&bits.iter().map(|p| p.0).collect::<Vec<_>>());
            let b = BitVec64::from_bools(&bits.iter().map(|p| p.1).collect::<Vec<_>>());
            let d = a.dot(&b);
            let n = bits.len() as i32;
            prop_assert!(d >= -n && d <= n);
            // Same parity as n.
            prop_assert_eq!((d - n).rem_euclid(2), 0);
            prop_assert_eq!(a.dot(&b), b.dot(&a));
            prop_assert_eq!(a.dot(&a), n);
        }
    }
}
