//! On-wire data formats between pipeline stages.

use bcp_bitpack::bitvec64::{low_mask, WORD_BITS};
use bcp_bitpack::BitVec64;

/// A binary (±1) feature map stored channel-last: `h×w` pixels of `c`
/// bits, bit index `(y·w + x)·c + ch`, pixels back to back with no padding
/// between them. That is the order FINN streams a map in: a pixel's
/// channels are one contiguous run, so the SWU copies a window as `k` runs
/// of `k·c` bits, a conv stage's per-pixel output words are already the
/// map, and OR-pool ORs whole pixel runs. [`BinMap::get`], [`BinMap::set`],
/// [`BinMap::from_signs`] and [`BinMap::to_signs`] keep the CHW meaning
/// `bcp-nn` uses; [`BinMap::from_bits`] and [`BinMap::as_bits`] hold the
/// channel-last flat vector, which is what a dense stage consumes (deploy
/// orders the first dense stage's weight columns to match).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinMap {
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
    bits: BitVec64,
}

impl BinMap {
    /// All-(−1) map.
    pub fn zeros(c: usize, h: usize, w: usize) -> Self {
        BinMap {
            c,
            h,
            w,
            bits: BitVec64::zeros(c.saturating_mul(h).saturating_mul(w)),
        }
    }

    /// Wrap an existing channel-last bit vector (length must be `c·h·w`).
    pub fn from_bits(c: usize, h: usize, w: usize, bits: BitVec64) -> Self {
        assert_eq!(
            bits.len(),
            c.saturating_mul(h).saturating_mul(w),
            "bit count does not match {c}×{h}×{w}"
        );
        BinMap { c, h, w, bits }
    }

    /// Build from ±1 floats in CHW order (the nn reference representation).
    pub fn from_signs(c: usize, h: usize, w: usize, signs: &[f32]) -> Self {
        assert_eq!(
            signs.len(),
            c.saturating_mul(h).saturating_mul(w),
            "sign count does not match {c}×{h}×{w}"
        );
        let mut map = BinMap::zeros(c, h, w);
        for ((ch, y, x), &s) in chw(c, h, w).zip(signs) {
            map.set(ch, y, x, bcp_bitpack::pack::sign_bit(s));
        }
        map
    }

    /// Total bit count.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True when the map holds no bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Bit at (channel, y, x): `true` = +1.
    #[inline]
    // The channel-last offset is in range (debug-asserted) and the backing
    // accessor bounds-checks; plain ops keep the per-pixel address math tight.
    #[allow(clippy::arithmetic_side_effects)]
    pub fn get(&self, ch: usize, y: usize, x: usize) -> bool {
        debug_assert!(ch < self.c && y < self.h && x < self.w);
        self.bits.get((y * self.w + x) * self.c + ch)
    }

    /// Set bit at (channel, y, x).
    // Same in-range offset as `get`; the backing accessor bounds-checks.
    #[allow(clippy::arithmetic_side_effects)]
    pub fn set(&mut self, ch: usize, y: usize, x: usize, v: bool) {
        debug_assert!(ch < self.c && y < self.h && x < self.w);
        self.bits.set((y * self.w + x) * self.c + ch, v);
    }

    /// The flat bit vector, channel-last (`(y·w + x)·c + ch`), e.g. as
    /// dense-stage input.
    pub fn as_bits(&self) -> &BitVec64 {
        &self.bits
    }

    /// Decode to ±1 floats in CHW order.
    pub fn to_signs(&self) -> Vec<f32> {
        chw(self.c, self.h, self.w)
            .map(|(ch, y, x)| if self.get(ch, y, x) { 1.0 } else { -1.0 })
            .collect()
    }
}

/// Every `(channel, y, x)` of a `c×h×w` map, in CHW order.
fn chw(c: usize, h: usize, w: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    (0..c).flat_map(move |ch| (0..h).flat_map(move |y| (0..w).map(move |x| (ch, y, x))))
}

/// `n ≤ 64` bits of `words` from bit `off` on, in the low bits of the
/// result: one shift, plus a second word when the run straddles a word
/// boundary. `n > 0` and `off + n` within the words.
#[inline]
// off/64 and off/64 + 1 are within `words` by the caller's contract (the
// second read happens only when the run reaches into that word); the shift
// amounts stay in 1..64.
#[allow(clippy::arithmetic_side_effects)]
pub(crate) fn read_bits(words: &[u64], off: usize, n: usize) -> u64 {
    let (i, s) = (off / WORD_BITS, off % WORD_BITS);
    let lo = words[i] >> s;
    let hi = if s + n > WORD_BITS {
        words[i + 1] << (WORD_BITS - s)
    } else {
        0
    };
    (lo | hi) & low_mask(n)
}

/// Appends bit runs to a word stream, LSB-first: the one shift-merge the
/// SWU, OR-pool and conv-output packing share. `acc` holds the `fill`
/// newest bits not yet written; a full word goes to the next `dst` slot.
pub(crate) struct BitWriter<'a, I: Iterator<Item = &'a mut u64>> {
    dst: I,
    acc: u64,
    fill: usize,
}

impl<'a, I: Iterator<Item = &'a mut u64>> BitWriter<'a, I> {
    /// A writer at bit 0 of `dst`.
    pub(crate) fn new(dst: I) -> Self {
        BitWriter {
            dst,
            acc: 0,
            fill: 0,
        }
    }

    /// Append the low `n ≤ 64` bits of `v` (bits above `n` must be zero).
    #[inline]
    // fill < 64 between calls, so fill + n ≤ 127 and every shift amount
    // is below 64.
    #[allow(clippy::arithmetic_side_effects)]
    pub(crate) fn push(&mut self, v: u64, n: usize) {
        self.acc |= v << self.fill;
        self.fill += n;
        if self.fill >= WORD_BITS {
            if let Some(w) = self.dst.next() {
                *w = self.acc;
            }
            self.fill -= WORD_BITS;
            self.acc = if self.fill == 0 {
                0
            } else {
                v >> (n - self.fill)
            };
        }
    }

    /// Write the last partial word, if any.
    pub(crate) fn finish(mut self) {
        if self.fill > 0 {
            if let Some(w) = self.dst.next() {
                *w = self.acc;
            }
        }
    }
}

/// A quantized integer feature map — the first pipeline stage's input.
/// A camera byte `q ∈ [0, 255]` maps to `2q − 255 ∈ [−255, 255]` (odd),
/// the integer form of the float normalization `2·(q/255) − 1` scaled by
/// 255. Thresholds for the first layer absorb the ×255.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuantMap {
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
    /// Values in CHW order.
    pub values: Vec<i32>,
}

/// The per-pixel scale of [`QuantMap`] values relative to the float
/// normalization the reference network sees.
pub const INPUT_SCALE: f64 = 255.0;

impl QuantMap {
    /// Quantize a CHW float image with values on the 8-bit grid `[0, 1]`.
    pub fn from_unit_floats(c: usize, h: usize, w: usize, pixels: &[f32]) -> Self {
        assert_eq!(
            pixels.len(),
            c.saturating_mul(h).saturating_mul(w),
            "pixel count does not match {c}×{h}×{w}"
        );
        let values = pixels
            .iter()
            .map(|&v| {
                assert!((0.0..=1.0).contains(&v), "pixel {v} outside [0,1]");
                let q = (v * 255.0).round() as i32;
                q.saturating_mul(2).saturating_sub(255)
            })
            .collect();
        QuantMap { c, h, w, values }
    }

    /// Value at (channel, y, x).
    #[inline]
    // The CHW offset is in range by construction; indexing bounds-checks.
    #[allow(clippy::arithmetic_side_effects)]
    pub fn get(&self, ch: usize, y: usize, x: usize) -> i32 {
        self.values[(ch * self.h + y) * self.w + x]
    }
}

/// A token flowing between pipeline stages.
#[derive(Clone, Debug, PartialEq)]
pub enum StageData {
    /// Quantized integer image (pipeline input).
    Quant(QuantMap),
    /// Binary feature map (between hidden stages).
    Bits(BinMap),
    /// Integer logits (pipeline output).
    Logits(Vec<i64>),
}

impl StageData {
    /// Unwrap as a quantized map; panics with a stage-protocol message
    /// otherwise.
    pub fn expect_quant(self, stage: &str) -> QuantMap {
        match self {
            StageData::Quant(q) => q,
            other => panic!("stage '{stage}' expected a quantized image, got {other:?}"),
        }
    }

    /// Unwrap as a binary map.
    pub fn expect_bits(self, stage: &str) -> BinMap {
        match self {
            StageData::Bits(b) => b,
            other => panic!("stage '{stage}' expected a binary map, got {other:?}"),
        }
    }

    /// Unwrap as logits.
    pub fn expect_logits(self, stage: &str) -> Vec<i64> {
        match self {
            StageData::Logits(l) => l,
            other => panic!("stage '{stage}' expected logits, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;

    #[test]
    fn binmap_indexing() {
        let mut m = BinMap::zeros(2, 3, 4);
        m.set(1, 2, 3, true);
        assert!(m.get(1, 2, 3));
        assert!(!m.get(0, 2, 3));
        assert_eq!(m.as_bits().count_ones(), 1);
        // Flat position is channel-last: (y·w + x)·c + ch.
        m.set(0, 1, 2, true);
        assert!(m.as_bits().get((4 + 2) * 2));
        assert_eq!(m.as_bits().count_ones(), 2);
    }

    /// `from_signs`, `to_signs` and `get` keep CHW meaning whatever the
    /// channel count does to the word boundaries of the channel-last bits.
    #[test]
    fn signs_keep_chw_meaning_across_word_boundaries() {
        for c in [1, 3, 63, 64, 65, 130] {
            let (h, w) = (3, 5);
            let signs: Vec<f32> = (0..c * h * w)
                .map(|i| if (i * 11 + i / 3) % 7 < 3 { 1.0 } else { -1.0 })
                .collect();
            let m = BinMap::from_signs(c, h, w, &signs);
            assert_eq!(m.to_signs(), signs, "c={c}");
            for ch in 0..c {
                for y in 0..h {
                    for x in 0..w {
                        let want = signs[(ch * h + y) * w + x] > 0.0;
                        assert_eq!(m.get(ch, y, x), want, "c={c} ({ch},{y},{x})");
                        assert_eq!(m.as_bits().get((y * w + x) * c + ch), want);
                    }
                }
            }
        }
    }

    /// Runs of every length read back from every offset, and written back
    /// to back, reproduce the bit stream.
    #[test]
    fn bit_runs_roundtrip_at_every_offset() {
        let src: Vec<u64> = (0..4u64)
            .map(|i| 0x9E37_79B9_7F4A_7C15u64.rotate_left(i as u32 * 13) ^ i)
            .collect();
        let bit = |i: usize| src[i / 64] >> (i % 64) & 1 == 1;
        for n in 1..=64 {
            for off in 0..=256 - n {
                let got = read_bits(&src, off, n);
                let want = (0..n).fold(0u64, |v, j| v | u64::from(bit(off + j)) << j);
                assert_eq!(got, want, "{n} bits from {off}");
            }
            // Runs of n bits from offset 3 on, appended back to back.
            let runs = (256 - 3) / n;
            let mut out = vec![0u64; (runs * n).div_ceil(64)];
            let mut dst = BitWriter::new(out.iter_mut());
            for r in 0..runs {
                dst.push(read_bits(&src, 3 + r * n, n), n);
            }
            dst.finish();
            for j in 0..runs * n {
                assert_eq!(
                    out[j / 64] >> (j % 64) & 1 == 1,
                    bit(3 + j),
                    "n={n} bit {j}"
                );
            }
        }
    }

    #[test]
    fn binmap_signs_roundtrip() {
        let signs = vec![1.0, -1.0, -1.0, 1.0, 1.0, 1.0];
        let m = BinMap::from_signs(1, 2, 3, &signs);
        assert_eq!(m.to_signs(), signs);
    }

    #[test]
    fn quantmap_values_odd_and_bounded() {
        let px: Vec<f32> = (0..=255).map(|k| k as f32 / 255.0).collect();
        let q = QuantMap::from_unit_floats(1, 16, 16, &px.repeat(1)[..256]);
        for &v in &q.values {
            assert!((-255..=255).contains(&v));
            assert_eq!(v.rem_euclid(2), 1, "2q−255 must be odd, got {v}");
        }
        // Extremes map to ±255; midpoint 128/255 maps to +1.
        assert_eq!(q.values[0], -255);
        assert_eq!(q.values[255], 255);
        assert_eq!(q.values[128], 1);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn quantmap_rejects_out_of_range() {
        QuantMap::from_unit_floats(1, 1, 1, &[1.5]);
    }

    #[test]
    #[should_panic(expected = "expected a binary map")]
    fn stage_data_protocol_mismatch() {
        StageData::Logits(vec![1]).expect_bits("fc1");
    }
}
