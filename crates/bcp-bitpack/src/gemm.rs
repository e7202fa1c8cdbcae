//! Register-blocked multi-frame XNOR-popcount GEMM.
//!
//! The single-frame kernels in [`crate::xnor`] stream every weight row once
//! *per frame*, so at batch size B each weight word is loaded B times — the
//! loop is memory-bound. This module is the software analogue of FINN's
//! SIMD×PE folding (paper Sec. III-B): activations for B frames are packed
//! into a [`BitPlaneBlock`] whose words are interleaved in groups of
//! [`BLOCK_LANES`], and each weight row is streamed exactly once per block
//! while [`BLOCK_LANES`] independent popcount accumulators advance side by
//! side. One weight-word load now feeds four XNOR+popcounts — weight reuse
//! turns the loop compute-bound, and the fixed-width accumulator array lets
//! LLVM autovectorize the `count_ones` chain.
//!
//! [`xnor_gemm_block_thresholded`] additionally fuses the folded-threshold
//! compare ([`crate::threshold`], Sec. III-A) into the accumulator loop:
//! the signed accumulator is compared against the channel's τ the moment it
//! is complete, and only the packed output bit is written — no intermediate
//! accumulator vector exists.
//!
//! Every kernel here is bit-exact against the single-frame path and the
//! float reference; `tests/proptest_kernels.rs` pins the equivalence over
//! random shapes, batch sizes, and the full accumulator range.

use crate::bitmatrix::BitMatrix;
use crate::bitvec64::{low_mask, BitVec64, WORD_BITS};
use crate::pack::{BitPlaneBlock, BLOCK_LANES};
use crate::threshold::ThresholdUnit;

/// XNOR agreement counts of one weight row against the [`BLOCK_LANES`]
/// lanes of one register block. `quads` is the block's interleaved storage
/// (`words_per_frame` groups of [`BLOCK_LANES`] words); padding lanes
/// yield garbage counts the caller discards.
///
/// `inline(always)`: the loop body must fuse into the caller's row loop —
/// outlined, LLVM keeps the `[u64; 4]` return in memory and the SLP
/// vectorizer loses the contiguous-lane pattern that maps one iteration
/// onto broadcast + vector-XNOR + vector-popcount.
#[inline(always)]
// Word counts are bits/64-bounded and popcount sums fit u64 trivially;
// plain ops keep the unrolled loop vectorizable.
#[allow(clippy::arithmetic_side_effects)]
fn lane_agreements(wrow: &[u64], quads: &[u64], bits: usize) -> [u64; BLOCK_LANES] {
    let full = bits / WORD_BITS;
    let mut acc = [0u64; BLOCK_LANES];
    // 4-wide unroll: one weight word against four frames' words. The four
    // accumulators are independent and the four lane words contiguous, so
    // LLVM vectorizes the popcounts (one vector `ctpop` per iteration).
    for (w, quad) in wrow.iter().zip(quads.chunks_exact(BLOCK_LANES)).take(full) {
        // audit: allow(index): quad is a chunks_exact(BLOCK_LANES) slice — lane indices 0..4 are in range by construction
        acc[0] += u64::from((!(w ^ quad[0])).count_ones());
        // audit: allow(index): fixed lane 1 of the 4-word chunk
        acc[1] += u64::from((!(w ^ quad[1])).count_ones());
        // audit: allow(index): fixed lane 2 of the 4-word chunk
        acc[2] += u64::from((!(w ^ quad[2])).count_ones());
        // audit: allow(index): fixed lane 3 of the 4-word chunk
        acc[3] += u64::from((!(w ^ quad[3])).count_ones());
    }
    let tail = bits % WORD_BITS;
    if tail != 0 {
        let m = low_mask(tail);
        // audit: allow(index): a ragged tail implies a final partial word at index full in the weight row
        let w = wrow[full];
        // audit: allow(index): the block stores words_per_frame = full+1 quads, so the tail quad window is in range
        let quad = &quads[full * BLOCK_LANES..];
        // audit: allow(index): tail quad holds BLOCK_LANES words (layout invariant of BitPlaneBlock)
        acc[0] += u64::from(((!(w ^ quad[0])) & m).count_ones());
        // audit: allow(index): fixed lane 1 of the tail quad
        acc[1] += u64::from(((!(w ^ quad[1])) & m).count_ones());
        // audit: allow(index): fixed lane 2 of the tail quad
        acc[2] += u64::from(((!(w ^ quad[2])) & m).count_ones());
        // audit: allow(index): fixed lane 3 of the tail quad
        acc[3] += u64::from(((!(w ^ quad[3])) & m).count_ones());
    }
    acc
}

/// Register-blocked multi-frame GEMM: signed ±1 accumulators of every
/// weight row against every packed frame. Returns a `rows × frames`
/// row-major buffer (`out[r·frames + f]`), empty when the block holds no
/// frames. Bit-exact against [`crate::xnor::xnor_matvec`] per frame.
// Accumulator indices are bounded by rows·frames (asserted once) and the
// signed accumulator 2·agree − bits fits i32 for any representable layer.
#[allow(clippy::arithmetic_side_effects)]
// bcp:hot-path — register-blocked MVTU GEMM, once per layer per micro-batch
pub fn xnor_gemm_block(weights: &BitMatrix, block: &BitPlaneBlock) -> Vec<i32> {
    // audit: allow(panic): fan-in mismatch is a programming error, checked once per call — never per element
    assert_eq!(
        weights.cols(),
        block.bits(),
        "xnor_gemm_block fan-in {} vs block bits {}",
        weights.cols(),
        block.bits()
    );
    let (rows, frames, bits) = (weights.rows(), block.frames(), block.bits());
    // audit: allow(alloc): one accumulator buffer per layer invocation — layer-level buffer reuse is ROADMAP item 3
    let mut out = vec![0i32; rows * frames];
    for r in 0..rows {
        let wrow = weights.row_words(r);
        for g in 0..block.blocks() {
            let agree = lane_agreements(wrow, block.block_words(g), bits);
            let base = g * BLOCK_LANES;
            for (lane, &a) in agree.iter().enumerate() {
                let f = base + lane;
                if f < frames {
                    // audit: allow(index): r < rows and f < frames, so r·frames+f is inside the buffer sized above
                    // audit: allow(cast): popcount ≤ bits and layer widths are far below 2^31, so both casts are value-preserving
                    out[r * frames + f] = 2 * a as i32 - bits as i32;
                }
            }
        }
    }
    out
}

/// Register-blocked GEMM with the folded-threshold compare fused into the
/// accumulator loop: each completed accumulator is compared against its
/// channel's τ immediately and only the packed output bit is stored.
/// Returns one `rows`-bit vector per frame. Bit-exact against
/// `accumulate → ThresholdUnit::apply` per frame.
// The signed accumulator 2·agree − bits fits i64 trivially; index products
// are bounded by rows·frames as in the unfused kernel.
#[allow(clippy::arithmetic_side_effects)]
// bcp:hot-path — fused threshold compare inside the blocked accumulator loop
pub fn xnor_gemm_block_thresholded(
    weights: &BitMatrix,
    block: &BitPlaneBlock,
    thresholds: &ThresholdUnit,
) -> Vec<BitVec64> {
    // audit: allow(panic): fan-in mismatch is a programming error, checked once per call — never per element
    assert_eq!(
        weights.cols(),
        block.bits(),
        "xnor_gemm_block_thresholded fan-in {} vs block bits {}",
        weights.cols(),
        block.bits()
    );
    // audit: allow(panic): bank-size mismatch is a wiring error, checked once per call
    assert_eq!(
        thresholds.len(),
        weights.rows(),
        "threshold bank ({}) must match neuron count ({})",
        thresholds.len(),
        weights.rows()
    );
    let (rows, frames, bits) = (weights.rows(), block.frames(), block.bits());
    // Lower the bank to compare windows once per layer pass: the hot loop
    // below then runs two branch-free integer compares per neuron instead
    // of an enum dispatch that mispredicts on random sign data.
    let windows = thresholds.windows();
    // audit: allow(alloc): one packed output vector per frame per layer pass — layer-level buffer reuse is ROADMAP item 3
    let mut outs: Vec<BitVec64> = (0..frames).map(|_| BitVec64::zeros(rows)).collect();
    for r in 0..rows {
        let wrow = weights.row_words(r);
        for g in 0..block.blocks() {
            let agree = lane_agreements(wrow, block.block_words(g), bits);
            let base = g * BLOCK_LANES;
            for (lane, &a) in agree.iter().enumerate() {
                let f = base + lane;
                if f < frames {
                    // audit: allow(cast): popcount ≤ bits and layer widths are far below 2^63, so both casts are value-preserving
                    let acc = 2 * a as i64 - bits as i64;
                    // audit: allow(index): f < frames = outs.len() by the guard above
                    outs[f].or_bit(r, windows.fires(r, acc));
                }
            }
        }
    }
    outs
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;
    use crate::threshold::ThresholdChannel;
    use crate::xnor::xnor_matvec;

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

    fn random_frames(n: usize, bits: usize, seed: u64) -> Vec<BitVec64> {
        (0..n)
            .map(|i| random_bitmatrix(1, bits, seed.wrapping_add(i as u64 * 7919)).row(0))
            .collect()
    }

    /// Reference: the single-frame kernel, one matvec per frame.
    fn per_frame(weights: &BitMatrix, frames: &[BitVec64]) -> Vec<i32> {
        let mut out = vec![0i32; weights.rows() * frames.len()];
        for (f, frame) in frames.iter().enumerate() {
            for (r, acc) in xnor_matvec(weights, frame).into_iter().enumerate() {
                out[r * frames.len() + f] = acc;
            }
        }
        out
    }

    #[test]
    fn b0_yields_empty_output() {
        let w = random_bitmatrix(5, 70, 1);
        let block = BitPlaneBlock::pack(&[]);
        // An empty block reports 0 bits; pair it with a 0-col matrix.
        let w0 = BitMatrix::zeros(5, 0);
        assert!(xnor_gemm_block(&w0, &block).is_empty());
        let t = ThresholdUnit::new(vec![ThresholdChannel::Ge(0); 5]);
        assert!(xnor_gemm_block_thresholded(&w0, &block, &t).is_empty());
        // And a non-empty matrix with a matching empty frame list.
        let frames: Vec<BitVec64> = Vec::new();
        assert!(per_frame(&w, &frames).is_empty());
    }

    #[test]
    fn b1_matches_single_frame_kernel() {
        let w = random_bitmatrix(6, 100, 3);
        let frames = random_frames(1, 100, 11);
        let block = BitPlaneBlock::pack(&frames);
        assert_eq!(xnor_gemm_block(&w, &block), per_frame(&w, &frames));
    }

    #[test]
    fn ragged_batch_not_multiple_of_block() {
        // B = 5 and B = 7: one full register block plus a ragged tail block.
        for b in [5usize, 7] {
            let w = random_bitmatrix(4, 96, 5);
            let frames = random_frames(b, 96, 21 + b as u64);
            let block = BitPlaneBlock::pack(&frames);
            assert_eq!(block.blocks(), 2);
            assert_eq!(xnor_gemm_block(&w, &block), per_frame(&w, &frames), "B={b}");
        }
    }

    #[test]
    fn ragged_rows_not_multiple_of_64_lanes() {
        // Fan-ins straddling word boundaries: 1, 63, 64, 65, 100, 127, 129.
        for bits in [1usize, 63, 64, 65, 100, 127, 129] {
            let w = random_bitmatrix(3, bits, 9);
            let frames = random_frames(6, bits, 31);
            let block = BitPlaneBlock::pack(&frames);
            assert_eq!(
                xnor_gemm_block(&w, &block),
                per_frame(&w, &frames),
                "bits={bits}"
            );
        }
    }

    #[test]
    fn all_ones_and_all_zeros_planes() {
        let k = 130;
        let w = random_bitmatrix(4, k, 13);
        let frames = vec![
            BitVec64::ones(k),
            BitVec64::zeros(k),
            BitVec64::ones(k),
            BitVec64::zeros(k),
            BitVec64::ones(k),
        ];
        let block = BitPlaneBlock::pack(&frames);
        let got = xnor_gemm_block(&w, &block);
        assert_eq!(got, per_frame(&w, &frames));
        // All-ones vs all-zeros planes are exact complements: row r's
        // accumulator against 1s is the negation of the one against 0s.
        for r in 0..4 {
            assert_eq!(got[r * 5], -got[r * 5 + 1]);
        }
    }

    #[test]
    fn threshold_boundary_accumulator_exactly_at_tau() {
        // Frames engineered so row accumulators hit τ exactly: an all-ones
        // weight row against an all-ones frame accumulates k; Ge(k) must
        // fire (boundary inclusive), Ge(k+1) must not, Le(k) must fire.
        let k = 67;
        let w = BitMatrix::from_rows(&[BitVec64::ones(k), BitVec64::ones(k), BitVec64::ones(k)]);
        let t = ThresholdUnit::new(vec![
            ThresholdChannel::Ge(k as i64),
            ThresholdChannel::Ge(k as i64 + 1),
            ThresholdChannel::Le(k as i64),
        ]);
        let frames = vec![BitVec64::ones(k), BitVec64::zeros(k)];
        let block = BitPlaneBlock::pack(&frames);
        let outs = xnor_gemm_block_thresholded(&w, &block, &t);
        // Frame 0: acc = k for every row.
        assert!(outs[0].get(0), "acc == τ must fire on Ge (sign(0) = +1)");
        assert!(!outs[0].get(1), "acc == τ−1 must not fire on Ge");
        assert!(outs[0].get(2), "acc == τ must fire on Le");
        // Frame 1: acc = −k for every row.
        assert!(!outs[1].get(0) && !outs[1].get(1) && outs[1].get(2));
    }

    #[test]
    fn fused_threshold_matches_unfused_compare() {
        let w = random_bitmatrix(9, 150, 17);
        let t = ThresholdUnit::new(
            (0..9)
                .map(|i| match i % 3 {
                    0 => ThresholdChannel::Ge(i as i64 * 4 - 10),
                    1 => ThresholdChannel::Le(6 - i as i64 * 3),
                    _ => ThresholdChannel::Const(i % 2 == 0),
                })
                .collect(),
        );
        let frames = random_frames(10, 150, 41);
        let block = BitPlaneBlock::pack(&frames);
        let fused = xnor_gemm_block_thresholded(&w, &block, &t);
        let accs = xnor_gemm_block(&w, &block);
        for (f, out) in fused.iter().enumerate() {
            for r in 0..9 {
                let want = t.apply(r, accs[r * frames.len() + f] as i64);
                assert_eq!(out.get(r), want, "frame {f} row {r}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "fan-in")]
    fn blocked_gemm_checks_dims() {
        let w = random_bitmatrix(2, 10, 1);
        let block = BitPlaneBlock::pack(&random_frames(2, 11, 2));
        xnor_gemm_block(&w, &block);
    }

    #[test]
    #[should_panic(expected = "threshold bank")]
    fn fused_kernel_checks_bank_size() {
        let w = random_bitmatrix(3, 10, 1);
        let block = BitPlaneBlock::pack(&random_frames(1, 10, 2));
        let t = ThresholdUnit::new(vec![ThresholdChannel::Ge(0)]);
        xnor_gemm_block_thresholded(&w, &block, &t);
    }
}
