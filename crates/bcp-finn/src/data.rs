//! On-wire data formats between pipeline stages.

use bcp_bitpack::BitVec64;

/// A binary (±1) feature map: `c` channels of `h×w` bits, bit index
/// `(ch·h + y)·w + x` — the same CHW order `bcp-nn`'s `Flatten` uses, so the
/// dense stages consume conv outputs without reshuffling.
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

    /// Wrap an existing bit vector (length must be `c·h·w`).
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
        BinMap {
            c,
            h,
            w,
            bits: bcp_bitpack::pack::pack_signs(signs),
        }
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
    // The CHW offset is in range (debug-asserted) and the backing accessor
    // bounds-checks; plain ops keep the per-pixel address math tight.
    #[allow(clippy::arithmetic_side_effects)]
    pub fn get(&self, ch: usize, y: usize, x: usize) -> bool {
        debug_assert!(ch < self.c && y < self.h && x < self.w);
        self.bits.get((ch * self.h + y) * self.w + x)
    }

    /// Set bit at (channel, y, x).
    // Same in-range CHW offset as `get`; the backing accessor bounds-checks.
    #[allow(clippy::arithmetic_side_effects)]
    pub fn set(&mut self, ch: usize, y: usize, x: usize, v: bool) {
        self.bits.set((ch * self.h + y) * self.w + x, v);
    }

    /// The flat bit vector (CHW order), e.g. as dense-stage input.
    pub fn as_bits(&self) -> &BitVec64 {
        &self.bits
    }

    /// Decode to ±1 floats in CHW order.
    pub fn to_signs(&self) -> Vec<f32> {
        self.bits.to_signs()
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
    use super::*;

    #[test]
    fn binmap_indexing() {
        let mut m = BinMap::zeros(2, 3, 4);
        m.set(1, 2, 3, true);
        assert!(m.get(1, 2, 3));
        assert!(!m.get(0, 2, 3));
        assert_eq!(m.as_bits().count_ones(), 1);
        // Flat position matches CHW arithmetic.
        assert!(m.as_bits().get((3 + 2) * 4 + 3));
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
