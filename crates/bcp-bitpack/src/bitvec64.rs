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

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
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

    /// Decode back to ±1 floats, a word at a time.
    pub fn to_signs(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.len);
        for &w in &self.words {
            let n = self.len.saturating_sub(out.len()).min(WORD_BITS);
            out.extend((0..n).map(|b| if (w >> b) & 1 == 1 { 1.0 } else { -1.0 }));
        }
        out
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
    fn ones_has_clean_padding() {
        let v = BitVec64::ones(70);
        assert_eq!(v.count_ones(), 70);
        assert_eq!(v.words().len(), 2);
        assert_eq!(v.words()[1] >> 6, 0, "padding bits must stay zero");
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
}
