//! `sign()` packing of float data into bit vectors/matrices.
//!
//! Eq. 1 of the paper: `sign(w) = +1 if w ≥ 0, −1 otherwise`. The tie at
//! exactly 0 maps to +1; every packer here implements that convention, and
//! `bcp-nn`'s float binarization uses the same rule, so both inference paths
//! agree bit-for-bit.
//!
//! This module also owns [`BitPlaneBlock`], the register-blocked bit-plane
//! layout the multi-frame GEMM ([`crate::gemm`]) consumes: B frames' packed
//! activations interleaved in groups of [`BLOCK_LANES`] so the kernel loads
//! one weight word and XNORs it against `BLOCK_LANES` contiguous activation
//! words — the software analogue of FINN's SIMD×PE weight reuse.

use crate::bitmatrix::BitMatrix;
use crate::bitvec64::{words_for, BitVec64, WORD_BITS};

/// The paper's sign convention as a bit: `x ≥ 0 → true (+1)`.
#[inline]
pub fn sign_bit(x: f32) -> bool {
    x >= 0.0
}

/// The paper's sign convention as a float.
#[inline]
pub fn sign_f32(x: f32) -> f32 {
    if x >= 0.0 {
        1.0
    } else {
        -1.0
    }
}

/// One word of `bit` tests over at most [`WORD_BITS`] values, LSB first.
#[inline]
fn word_of(chunk: &[f32], bit: impl Fn(f32) -> bool) -> u64 {
    chunk
        .iter()
        .enumerate()
        .fold(0u64, |w, (i, &x)| w | u64::from(bit(x)) << i)
}

/// Pack `bit(x)` of every value into a bit vector, one word of 64 tests at
/// a time: sign bits, or a training-time pass mask such as `|x| ≤ 1`.
pub fn pack_with(xs: &[f32], bit: impl Fn(f32) -> bool + Copy) -> BitVec64 {
    let words = xs.chunks(WORD_BITS).map(|c| word_of(c, bit)).collect();
    BitVec64::from_words(xs.len(), words)
}

/// Pack a float slice into a bit vector via [`sign_bit`], one word of 64
/// tests at a time. Deploy-time and ablation-time only: no frame reaches it.
pub fn pack_signs(xs: &[f32]) -> BitVec64 {
    pack_with(xs, sign_bit)
}

/// [`pack_signs`] of a slice whose every value is exactly ±1, and `None`
/// when one is not. The test and the pack share one pass, a word at a
/// time, which stops at the first word that holds another value; then
/// [`unpack_signs`] gives back the very slice.
pub fn pack_exact_signs(xs: &[f32]) -> Option<BitVec64> {
    let mut words = Vec::with_capacity(words_for(xs.len()));
    for chunk in xs.chunks(WORD_BITS) {
        if !chunk.iter().fold(true, |ok, x| ok & (x.abs() == 1.0)) {
            return None;
        }
        words.push(word_of(chunk, sign_bit));
    }
    Some(BitVec64::from_words(xs.len(), words))
}

/// Pack a row-major `rows × cols` float buffer into a [`BitMatrix`], each
/// row through [`pack_signs`].
pub fn pack_matrix(rows: usize, cols: usize, xs: &[f32]) -> BitMatrix {
    assert_eq!(
        xs.len(),
        rows.saturating_mul(cols),
        "buffer does not match {rows}×{cols}"
    );
    if rows == 0 || cols == 0 {
        return BitMatrix::zeros(rows, cols);
    }
    let packed: Vec<BitVec64> = xs.chunks_exact(cols).map(pack_signs).collect();
    BitMatrix::from_rows(&packed)
}

/// Unpack a bit vector back to ±1 floats (inverse of [`pack_signs`] up to
/// the sign quantization).
pub fn unpack_signs(v: &BitVec64) -> Vec<f32> {
    v.to_signs()
}

/// Register-block width of the multi-frame GEMM: how many frames' words are
/// interleaved contiguously, and how many independent popcount accumulators
/// the inner loop carries. Four `u64` lanes fill one 256-bit vector
/// register, which is what lets LLVM autovectorize the `count_ones` chain.
pub const BLOCK_LANES: usize = 4;

/// B frames' activation bit-planes in a register-blocked interleaved
/// layout.
///
/// Frames are grouped into blocks of [`BLOCK_LANES`]; within block `g`, the
/// storage is word-index-major: the `BLOCK_LANES` lane words for word index
/// `i` sit contiguously at `(g·words_per_frame + i)·BLOCK_LANES + lane`.
/// A weight row is therefore streamed exactly once per block while the
/// kernel accumulates `BLOCK_LANES` popcounts side by side.
///
/// Ragged tails are padded with zeros and never leak into results:
/// when `frames` is not a multiple of [`BLOCK_LANES`] the missing lanes
/// hold all-zero planes (their popcounts are computed and discarded), and
/// the trailing bits of each frame's last word beyond `bits` are zero —
/// the same padding invariant [`BitVec64`] maintains, so masked tail
/// popcounts stay exact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitPlaneBlock {
    frames: usize,
    bits: usize,
    words_per_frame: usize,
    words: Vec<u64>,
}

impl BitPlaneBlock {
    /// Pack owned frames; all must share one bit length.
    pub fn pack(frames: &[BitVec64]) -> Self {
        // audit: allow(alloc): one slim reference vector per pack — the bulk buffer is allocated once in pack_refs
        let refs: Vec<&BitVec64> = frames.iter().collect();
        Self::pack_refs(&refs)
    }

    /// Pack borrowed frames; all must share one bit length.
    // bcp:hot-path — bit-plane interleave feeding every blocked dense MVTU pass
    pub fn pack_refs(frames: &[&BitVec64]) -> Self {
        let bits = frames.first().map_or(0, |f| f.len());
        for f in frames {
            // audit: allow(panic): mixed frame widths are a wiring error, caught on the first block of a run
            assert_eq!(
                f.len(),
                bits,
                "all frames in a block must share a bit length"
            );
        }
        let mut block = Self::zeros(frames.len(), bits);
        for (f, frame) in frames.iter().enumerate() {
            for (dst, &w) in block.frame_words_mut(f).zip(frame.words()) {
                *dst = w;
            }
        }
        block
    }

    /// An all-zero block of `frames` frames of `bits` bits: also the
    /// caller-owned buffer that [`BitPlaneBlock::clear_to`] refills for
    /// another band of windows without allocating.
    // The buffer size is frames·words_per_frame rounded up to whole blocks,
    // far below overflow for any representable batch.
    #[allow(clippy::arithmetic_side_effects)]
    pub fn zeros(frames: usize, bits: usize) -> Self {
        let words_per_frame = words_for(bits);
        let len = frames.div_ceil(BLOCK_LANES) * words_per_frame * BLOCK_LANES;
        BitPlaneBlock {
            frames,
            bits,
            words_per_frame,
            // audit: allow(alloc): one interleaved buffer per dense pack, or per worker of a conv stage call
            words: vec![0; len],
        }
    }

    /// Zero every word and hold `frames` frames from now on — at most as
    /// many as the block was made with, so its buffer never grows.
    // Same bounded buffer-size product as `zeros`.
    #[allow(clippy::arithmetic_side_effects)]
    pub fn clear_to(&mut self, frames: usize) {
        assert!(
            frames.div_ceil(BLOCK_LANES) * self.words_per_frame * BLOCK_LANES <= self.words.len(),
            "a block made for fewer frames cannot hold {frames}"
        );
        self.frames = frames;
        self.words.fill(0);
    }

    /// Frame `f`'s words, in order, inside its lane of the interleaved
    /// buffer: the one place a frame is written.
    // Lane arithmetic divides by the BLOCK_LANES constant; the span is
    // bounded by the buffer length.
    #[allow(clippy::arithmetic_side_effects)]
    pub fn frame_words_mut(&mut self, f: usize) -> impl Iterator<Item = &mut u64> {
        let span = (self.words_per_frame * BLOCK_LANES).max(1);
        self.words
            .chunks_exact_mut(span)
            .nth(f / BLOCK_LANES)
            .into_iter()
            .flat_map(move |block| block.iter_mut().skip(f % BLOCK_LANES).step_by(BLOCK_LANES))
    }

    /// Number of frames packed (may be 0).
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Bits per frame.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Words per frame (`⌈bits/64⌉`).
    pub fn words_per_frame(&self) -> usize {
        self.words_per_frame
    }

    /// Number of register blocks (`⌈frames/BLOCK_LANES⌉`).
    pub fn blocks(&self) -> usize {
        self.frames.div_ceil(BLOCK_LANES)
    }

    /// The interleaved words of register block `g`:
    /// `words_per_frame · BLOCK_LANES` words, word-index-major.
    #[inline]
    // Block offsets are bounded by the buffer length established at pack
    // time; plain ops keep the accessor branch-free.
    #[allow(clippy::arithmetic_side_effects)]
    // bcp:hot-path — per-block operand fetch of the blocked GEMM (rooted explicitly: also used by cold unpack paths)
    pub fn block_words(&self, g: usize) -> &[u64] {
        let span = self.words_per_frame * BLOCK_LANES;
        // audit: allow(index): g < blocks() by the caller's loop bound, so the span window lies inside the buffer
        &self.words[g * span..(g + 1) * span]
    }

    /// De-interleave back to one [`BitVec64`] per frame (test/debug path —
    /// the inverse of [`BitPlaneBlock::pack`]).
    #[allow(clippy::arithmetic_side_effects)] // cold path; offsets bounded as in pack_refs
    pub fn unpack(&self) -> Vec<BitVec64> {
        (0..self.frames)
            .map(|f| {
                let g = f / BLOCK_LANES;
                let lane = f % BLOCK_LANES;
                let words: Vec<u64> = (0..self.words_per_frame)
                    .map(|i| {
                        self.words
                            .get((g * self.words_per_frame + i) * BLOCK_LANES + lane)
                            .copied()
                            .unwrap_or(0)
                    })
                    .collect();
                BitVec64::from_words(self.bits, words)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_ties_to_plus_one() {
        assert!(sign_bit(0.0));
        assert!(sign_bit(-0.0)); // -0.0 >= 0.0 is true in IEEE754
        assert_eq!(sign_f32(0.0), 1.0);
        assert_eq!(sign_f32(-0.0), 1.0);
    }

    #[test]
    fn pack_known() {
        let v = pack_signs(&[1.5, -0.2, 0.0, -7.0]);
        assert_eq!(v.to_signs(), vec![1.0, -1.0, 1.0, -1.0]);
    }

    /// The word-level packers against a per-bit reference: `BitMatrix::set`
    /// on every element whose `sign_bit` holds, every other bit — padding
    /// included — left zero.
    #[test]
    fn word_packers_match_per_bit_reference() {
        let tiny = f32::from_bits(1); // the smallest subnormal
        let values = [
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            tiny,
            -tiny,
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE / 2.0,
            1.5,
            -2.5,
        ];
        let rows = 3;
        for cols in [1, 63, 64, 65, 130] {
            let xs: Vec<f32> = (0..rows * cols)
                .map(|i| values[(i * 7 + i / 5) % values.len()])
                .collect();
            let mut want = BitMatrix::zeros(rows, cols);
            for (i, &x) in xs.iter().enumerate() {
                if sign_bit(x) {
                    want.set(i / cols, i % cols, true);
                }
            }
            let got = pack_matrix(rows, cols, &xs);
            assert_eq!(got, want, "pack_matrix, {cols} columns");
            for (r, row) in xs.chunks_exact(cols).enumerate() {
                assert_eq!(
                    pack_signs(row).words(),
                    want.row_words(r),
                    "pack_signs, {cols}"
                );
                let last = got.row_words(r).last().copied().unwrap_or(0);
                let tail = cols % 64;
                assert!(tail == 0 || last >> tail == 0, "padding, {cols} columns");
            }
        }
        // ±0 → +1, NaN → −1 (`x >= 0.0` is false), ±inf and subnormals by sign.
        let v = pack_signs(&[
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            -f32::INFINITY,
            tiny,
            -tiny,
        ]);
        assert_eq!(v.words(), &[0b010_1011]);
        assert_eq!(pack_matrix(0, 5, &[]), BitMatrix::zeros(0, 5));
    }

    #[test]
    fn exact_signs_pack_only_all_unit_slices() {
        for len in [0usize, 1, 63, 64, 65, 200] {
            let xs: Vec<f32> = (0..len)
                .map(|i| if i % 3 == 0 { -1.0 } else { 1.0 })
                .collect();
            let packed = pack_exact_signs(&xs).expect("every value is ±1");
            assert_eq!(packed, pack_signs(&xs), "{len}");
            assert_eq!(unpack_signs(&packed), xs, "{len}");
            // One other value anywhere, in any word, refuses the slice.
            for at in [0, len / 2, len.saturating_sub(1)]
                .into_iter()
                .filter(|_| len > 0)
            {
                for other in [0.0, -0.0, 0.5, 1.0 + f32::EPSILON, f32::NAN, f32::INFINITY] {
                    let mut ys = xs.clone();
                    ys[at] = other;
                    assert_eq!(pack_exact_signs(&ys), None, "{len}, {other} at {at}");
                }
            }
        }
    }

    #[test]
    fn pack_with_is_the_per_value_test() {
        let xs: Vec<f32> = (0..130).map(|i| (i as f32 - 60.0) / 40.0).collect();
        let mask = pack_with(&xs, |x| x.abs() <= 1.0);
        assert_eq!(mask.len(), xs.len());
        for (i, x) in xs.iter().enumerate() {
            assert_eq!(mask.get(i), x.abs() <= 1.0, "{x}");
        }
    }

    #[test]
    fn pack_matrix_layout() {
        let m = pack_matrix(2, 3, &[1.0, -1.0, 1.0, -1.0, 1.0, -1.0]);
        assert!(m.get(0, 0) && !m.get(0, 1) && m.get(0, 2));
        assert!(!m.get(1, 0) && m.get(1, 1) && !m.get(1, 2));
    }

    #[test]
    fn bitplane_block_layout_is_lane_interleaved() {
        // Two 65-bit frames: frame 0 all ones, frame 1 all zeros. Words are
        // interleaved lane-wise, missing lanes padded with zero.
        let f0 = BitVec64::ones(65);
        let f1 = BitVec64::zeros(65);
        let b = BitPlaneBlock::pack(&[f0.clone(), f1.clone()]);
        assert_eq!(b.frames(), 2);
        assert_eq!(b.bits(), 65);
        assert_eq!(b.words_per_frame(), 2);
        assert_eq!(b.blocks(), 1);
        let w = b.block_words(0);
        assert_eq!(w.len(), 2 * BLOCK_LANES);
        // Word index 0: lane 0 = frame 0's first word (all ones), lane 1 =
        // frame 1 (zero), lanes 2-3 = padding.
        assert_eq!(w[0], u64::MAX);
        assert_eq!(&w[1..4], &[0, 0, 0]);
        // Word index 1: frame 0's single valid tail bit.
        assert_eq!(w[4], 1);
        assert_eq!(&w[5..8], &[0, 0, 0]);
    }

    #[test]
    fn bitplane_block_roundtrips() {
        let frames: Vec<BitVec64> = (0..7)
            .map(|i| {
                let bools: Vec<bool> = (0..130).map(|j| (i * 37 + j * 11) % 3 == 0).collect();
                BitVec64::from_bools(&bools)
            })
            .collect();
        let b = BitPlaneBlock::pack(&frames);
        assert_eq!(b.blocks(), 2); // 7 frames over 4 lanes
        assert_eq!(b.unpack(), frames);
    }

    #[test]
    fn bitplane_block_empty_is_fine() {
        let b = BitPlaneBlock::pack(&[]);
        assert_eq!(b.frames(), 0);
        assert_eq!(b.blocks(), 0);
        assert!(b.unpack().is_empty());
    }

    #[test]
    #[should_panic(expected = "share a bit length")]
    fn bitplane_block_rejects_mixed_widths() {
        BitPlaneBlock::pack(&[BitVec64::zeros(10), BitVec64::zeros(11)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_bitplane_pack_unpack_roundtrip(
            n in 0usize..10,
            bits in 1usize..200,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let frames: Vec<BitVec64> = (0..n)
                .map(|i| {
                    let bools: Vec<bool> = (0..bits)
                        .map(|j| (seed >> (i.wrapping_mul(7).wrapping_add(j) % 64)) & 1 == 1)
                        .collect();
                    BitVec64::from_bools(&bools)
                })
                .collect();
            let b = BitPlaneBlock::pack(&frames);
            prop_assert_eq!(b.unpack(), frames);
        }

        #[test]
        fn prop_roundtrip_is_sign(xs in proptest::collection::vec(-100.0f32..100.0, 0..300)) {
            let packed = pack_signs(&xs);
            let back = unpack_signs(&packed);
            for (orig, b) in xs.iter().zip(back) {
                prop_assert_eq!(sign_f32(*orig), b);
            }
        }

        #[test]
        fn prop_pack_idempotent(xs in proptest::collection::vec(-10.0f32..10.0, 1..100)) {
            // Packing already-binarized values is the identity.
            let once = unpack_signs(&pack_signs(&xs));
            let twice = unpack_signs(&pack_signs(&once));
            prop_assert_eq!(once, twice);
        }
    }
}
