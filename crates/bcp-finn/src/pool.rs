//! Boolean-OR max-pooling unit.
//!
//! Sec. III-B: "max-pool layers are implemented as boolean OR operations,
//! since a single binary '1' value suffices to make the entire pool window
//! output equal to 1." This unit pools binary maps with non-overlapping
//! 2×2 windows (all BinaryCoP pools).

use crate::data::{read_bits, BinMap, BitWriter};
use bcp_bitpack::bitvec64::{words_for, WORD_BITS};
use bcp_bitpack::BitVec64;

/// OR-pool a binary map with a `k×k` window and stride `k`. On the
/// channel-last map an output pixel is the OR of its `k²` input pixel
/// runs, taken up to 64 channels at a time.
// Pixel offsets (oy·k+ky)·w + ox·k+kx stay below h·w by the tiling
// assert; plain ops keep the window walk tight.
#[allow(clippy::arithmetic_side_effects)]
pub fn or_pool(map: &BinMap, k: usize) -> BinMap {
    assert!(
        k > 0 && map.h.is_multiple_of(k) && map.w.is_multiple_of(k),
        "pool window {k} must tile the {}×{} map exactly",
        map.h,
        map.w
    );
    let (c, oh, ow) = (map.c, map.h / k, map.w / k);
    let src = map.as_bits().words();
    let mut words = vec![0u64; words_for(c * oh * ow)];
    let mut dst = BitWriter::new(words.iter_mut());
    for oy in 0..oh {
        for ox in 0..ow {
            for off in (0..c).step_by(WORD_BITS) {
                let n = (c - off).min(WORD_BITS);
                let mut any = 0;
                for ky in 0..k {
                    for kx in 0..k {
                        let px = (oy * k + ky) * map.w + ox * k + kx;
                        any |= read_bits(src, px * c + off, n);
                    }
                }
                dst.push(any, n);
            }
        }
    }
    dst.finish();
    BinMap::from_bits(c, oh, ow, BitVec64::from_words(c * oh * ow, words))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;

    #[test]
    fn single_one_dominates_window() {
        let mut m = BinMap::zeros(1, 2, 2);
        m.set(0, 1, 0, true);
        let p = or_pool(&m, 2);
        assert_eq!((p.h, p.w), (1, 1));
        assert!(p.get(0, 0, 0));
    }

    #[test]
    fn all_minus_one_stays_minus_one() {
        let m = BinMap::zeros(3, 4, 4);
        let p = or_pool(&m, 2);
        assert_eq!(p.as_bits().count_ones(), 0);
    }

    #[test]
    fn channels_pool_independently() {
        let mut m = BinMap::zeros(2, 2, 2);
        m.set(0, 0, 0, true);
        let p = or_pool(&m, 2);
        assert!(p.get(0, 0, 0));
        assert!(!p.get(1, 0, 0));
    }

    #[test]
    fn or_pool_equals_float_maxpool_on_signs() {
        // Cross-check against the training-time float max-pool: on ±1 maps,
        // max == OR. This is the hardware-software equivalence the paper's
        // pooling trick relies on.
        use bcp_tensor_testutil::maxpool_signs;
        let mut m = BinMap::zeros(2, 4, 6);
        for (ch, y, x) in [(0, 0, 1), (0, 3, 5), (1, 2, 2), (1, 2, 3)] {
            m.set(ch, y, x, true);
        }
        let p = or_pool(&m, 2);
        let float = maxpool_signs(&m.to_signs(), 2, 4, 6);
        assert_eq!(p.to_signs(), float);
    }

    /// Minimal float max-pool over CHW ±1 data (2×2, stride 2), local to the
    /// tests so this crate does not depend on bcp-tensor.
    mod bcp_tensor_testutil {
        pub fn maxpool_signs(signs: &[f32], c: usize, h: usize, w: usize) -> Vec<f32> {
            let (oh, ow) = (h / 2, w / 2);
            let mut out = Vec::with_capacity(c * oh * ow);
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        for ky in 0..2 {
                            for kx in 0..2 {
                                let v = signs[(ch * h + oy * 2 + ky) * w + ox * 2 + kx];
                                best = best.max(v);
                            }
                        }
                        out.push(best);
                    }
                }
            }
            out
        }
    }

    /// Channel runs that straddle words (c = 65) and span two whole words
    /// (c = 128) pool like the per-bit definition.
    #[test]
    fn word_runs_pool_like_per_bit_or() {
        for (c, h, w) in [(65, 4, 6), (128, 6, 4)] {
            let signs: Vec<f32> = (0..c * h * w)
                .map(|i| if (i * 13 + i / 7) % 5 == 0 { 1.0 } else { -1.0 })
                .collect();
            let m = BinMap::from_signs(c, h, w, &signs);
            let p = or_pool(&m, 2);
            for ch in 0..c {
                for oy in 0..h / 2 {
                    for ox in 0..w / 2 {
                        let any = (0..4).any(|i| m.get(ch, oy * 2 + i / 2, ox * 2 + i % 2));
                        assert_eq!(p.get(ch, oy, ox), any, "c={c} ({ch},{oy},{ox})");
                    }
                }
            }
            assert_eq!(
                p.to_signs(),
                bcp_tensor_testutil::maxpool_signs(&signs, c, h, w)
            );
        }
    }

    #[test]
    #[should_panic(expected = "tile")]
    fn rejects_non_tiling_window() {
        or_pool(&BinMap::zeros(1, 5, 4), 2);
    }
}
