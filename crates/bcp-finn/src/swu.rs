//! Sliding-window unit (SWU).
//!
//! Sec. III-B: "for convolutional layers, an additional sliding-window unit
//! reshapes the binarized activation maps to create a single, wide input
//! feature map memory, which can efficiently be accessed by the
//! corresponding MVTU." Functionally this is im2col over bits: for every
//! output pixel, gather the `C·K·K` window bits in (ky, kx, channel) order
//! — the order deploy gives the binary conv weight columns. On the
//! channel-last [`BinMap`] each window row is one contiguous run of `K·C`
//! map bits, so a window is `K` run copies. The fixed-point first layer
//! reads a CHW [`QuantMap`] and keeps (channel, ky, kx) order.

use crate::data::{read_bits, BinMap, BitWriter, QuantMap};
use bcp_bitpack::bitvec64::WORD_BITS;
use bcp_bitpack::{BitPlaneBlock, BitVec64};
use std::ops::Range;

/// Output spatial extent for a K×K window, stride 1, no padding (all
/// BinaryCoP convolutions; padding/stride generality lives in the training
/// path, the deployed networks never use it).
pub fn out_dim(extent: usize, k: usize) -> usize {
    assert!(extent >= k, "window k={k} does not fit extent {extent}");
    extent.saturating_sub(k).saturating_add(1)
}

/// Gather the binary window vectors for a K×K convolution: one
/// `C·K·K`-bit vector per output pixel, output pixels row-major
/// ([`windows_binary_into`] over every row, for callers outside the frame
/// path).
pub fn windows_binary(map: &BinMap, k: usize) -> Vec<BitVec64> {
    let (oh, ow) = (out_dim(map.h, k), out_dim(map.w, k));
    let mut block = BitPlaneBlock::zeros(oh.saturating_mul(ow), window_len(map.c, k));
    windows_binary_into(map, k, 0..oh, &mut block);
    block.unpack()
}

/// Gather the windows of output rows `rows` into `block`, one frame per
/// output pixel, row-major — the SWU for one band of a conv stage, into a
/// caller-owned block made for at least that many windows (so it never
/// allocates). Window `(oy, ox)` is `K` runs of `K·C` bits in (ky, kx,
/// channel) order, run `ky` starting at map bit `((oy+ky)·w + ox)·C`; each
/// run is copied up to 64 bits at a time and shift-merged into the block's
/// words when `K·C` is not a multiple of 64.
// Run offsets stay within the map by out_dim's contract; plain ops keep the
// copy loop tight.
#[allow(clippy::arithmetic_side_effects)]
pub fn windows_binary_into(map: &BinMap, k: usize, rows: Range<usize>, block: &mut BitPlaneBlock) {
    let (oh, ow) = (out_dim(map.h, k), out_dim(map.w, k));
    assert!(
        rows.end <= oh && block.bits() == window_len(map.c, k),
        "rows {rows:?} of {oh}, k={k}: block of {}-bit frames",
        block.bits()
    );
    block.clear_to(rows.len() * ow);
    let (src, run) = (map.as_bits().words(), k * map.c);
    let pixels = rows.flat_map(|oy| (0..ow).map(move |ox| (oy, ox)));
    for (q, (oy, ox)) in pixels.enumerate() {
        let mut dst = BitWriter::new(block.frame_words_mut(q));
        for ky in 0..k {
            let start = ((oy + ky) * map.w + ox) * map.c;
            for off in (start..start + run).step_by(WORD_BITS) {
                let n = (start + run - off).min(WORD_BITS);
                dst.push(read_bits(src, off, n), n);
            }
        }
        dst.finish();
    }
}

/// Bits per window: `C·K·K`.
fn window_len(c: usize, k: usize) -> usize {
    c.saturating_mul(k).saturating_mul(k)
}

/// Gather integer window vectors for the first (fixed-point-input) layer,
/// `C·K·K` values in (channel, ky, kx) order — the CHW input's own order,
/// which the first layer's weight columns keep ([`windows_quant_into`] over
/// every row, for callers outside the frame path).
pub fn windows_quant(map: &QuantMap, k: usize) -> Vec<Vec<i32>> {
    let (oh, ow) = (out_dim(map.h, k), out_dim(map.w, k));
    let n = window_len(map.c, k);
    let mut flat = vec![0; oh.saturating_mul(ow).saturating_mul(n)];
    windows_quant_into(map, k, 0..oh, &mut flat);
    flat.chunks(n.max(1)).map(<[i32]>::to_vec).collect()
}

/// Gather the integer windows of output rows `rows` into `out`, `C·K·K`
/// values a window, windows back to back — [`windows_quant`]'s layout for
/// one band, into a caller-owned buffer.
// Window offsets stay within the map by out_dim's contract.
#[allow(clippy::arithmetic_side_effects)]
pub fn windows_quant_into(map: &QuantMap, k: usize, rows: Range<usize>, out: &mut [i32]) {
    let (oh, ow) = (out_dim(map.h, k), out_dim(map.w, k));
    assert!(
        rows.end <= oh && out.len() == rows.len() * ow * window_len(map.c, k),
        "rows {rows:?} of {oh}: {} values for {}-value windows",
        out.len(),
        window_len(map.c, k)
    );
    let mut dst = out.iter_mut();
    for oy in rows {
        for ox in 0..ow {
            for ch in 0..map.c {
                for ky in 0..k {
                    for kx in 0..k {
                        if let Some(v) = dst.next() {
                            *v = map.get(ch, oy + ky, ox + kx);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;

    #[test]
    fn out_dim_matches_cnv_geometry() {
        assert_eq!(out_dim(32, 3), 30);
        assert_eq!(out_dim(5, 3), 3);
        assert_eq!(out_dim(3, 3), 1);
    }

    #[test]
    fn window_count_and_length() {
        let map = BinMap::zeros(4, 6, 5);
        let ws = windows_binary(&map, 3);
        assert_eq!(ws.len(), 4 * 3);
        assert!(ws.iter().all(|w| w.len() == 4 * 9));
    }

    #[test]
    fn window_ordering_is_channel_last() {
        // Set one bit per position and check where it lands in the window.
        let mut map = BinMap::zeros(2, 3, 3);
        map.set(1, 2, 0, true); // channel 1, ky=2, kx=0 of the only window
        let ws = windows_binary(&map, 3);
        assert_eq!(ws.len(), 1);
        let idx = (2 * 3) * 2 + 1; // (ky·K + kx)·C + ch
        assert!(ws[0].get(idx));
        assert_eq!(ws[0].count_ones(), 1);
    }

    #[test]
    fn windows_shift_with_output_pixel() {
        let mut map = BinMap::zeros(1, 3, 4);
        map.set(0, 1, 2, true);
        let ws = windows_binary(&map, 3);
        // Output pixels (0,0) and (0,1): bit (0,1,2) appears at window
        // offsets (ky=1,kx=2)→5 and (ky=1,kx=1)→4 respectively.
        assert!(ws[0].get(5));
        assert!(ws[1].get(4));
    }

    #[test]
    fn quant_windows_match_binary_layout() {
        let mut q = QuantMap {
            c: 2,
            h: 3,
            w: 3,
            values: vec![0; 18],
        };
        q.values[3 * 3 + 2] = 77; // channel 1, y 0, x 2
        let ws = windows_quant(&q, 3);
        assert_eq!(ws.len(), 1);
        let idx = 3 * 3 + 2;
        assert_eq!(ws[0][idx], 77);
        assert_eq!(ws[0].iter().filter(|&&v| v != 0).count(), 1);
    }

    /// The gather as a dense loop: `map.get` for every window bit, in
    /// (ky, kx, channel) order, one `BitVec64` a window.
    fn per_bit_windows(map: &BinMap, k: usize) -> Vec<BitVec64> {
        let (oh, ow) = (out_dim(map.h, k), out_dim(map.w, k));
        (0..oh * ow)
            .map(|p| {
                let (oy, ox) = (p / ow, p % ow);
                let bools: Vec<bool> = (0..k * k * map.c)
                    .map(|i| map.get(i % map.c, oy + i / map.c / k, ox + i / map.c % k))
                    .collect();
                BitVec64::from_bools(&bools)
            })
            .collect()
    }

    /// Windows straddling block words, every band of rows, against the
    /// dense loop.
    #[test]
    fn band_gather_matches_dense_loop() {
        for (c, h, w, k) in [
            (1, 3, 3, 3),
            (3, 9, 11, 3),
            (8, 10, 10, 3),
            (5, 13, 17, 5),
            (2, 66, 67, 2),
            (64, 5, 6, 3),
            (65, 5, 4, 3),
            (130, 4, 5, 2),
        ] {
            let signs: Vec<f32> = (0..c * h * w)
                .map(|i| if (i * 7 + i / 5) % 3 == 0 { 1.0 } else { -1.0 })
                .collect();
            let map = BinMap::from_signs(c, h, w, &signs);
            let want = per_bit_windows(&map, k);
            assert_eq!(windows_binary(&map, k), want, "{c}x{h}x{w} k={k}");
            let (oh, ow) = (out_dim(h, k), out_dim(w, k));
            let mut block = BitPlaneBlock::zeros(oh * ow, c * k * k);
            for band in 1..=oh {
                for y0 in (0..oh).step_by(band) {
                    let rows = y0..(y0 + band).min(oh);
                    windows_binary_into(&map, k, rows.clone(), &mut block);
                    assert_eq!(
                        block.unpack(),
                        want[rows.start * ow..rows.end * ow],
                        "band {rows:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn quant_bands_match_whole_map() {
        let q = QuantMap {
            c: 3,
            h: 7,
            w: 6,
            values: (0..3 * 7 * 6).map(|i| i * 5 - 100).collect(),
        };
        let whole: Vec<i32> = windows_quant(&q, 3).concat();
        let n = 3 * 9 * 4;
        for y0 in 0..5 {
            let mut band = vec![0; 2.min(5 - y0) * n];
            windows_quant_into(&q, 3, y0..(y0 + 2).min(5), &mut band);
            assert_eq!(band, whole[y0 * n..y0 * n + band.len()], "band from {y0}");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_window_panics() {
        out_dim(2, 3);
    }
}
