//! Register-blocked multi-frame XNOR-popcount GEMM.
//!
//! The one binary MVTU kernel: every XNOR-popcount layer product in the
//! workspace runs here, and a single frame is a block of one. A matvec per
//! frame would stream every weight row once *per frame*, so at batch size B
//! each weight word is loaded B times — the loop is memory-bound. This
//! module is the software analogue of FINN's SIMD×PE folding (paper
//! Sec. III-B): activations for B frames are packed into a
//! [`BitPlaneBlock`] whose words are interleaved in groups of
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
//! Every kernel here is bit-exact against the dense sign-decode oracle
//! ([`crate::xnor::gemm_naive_signs`]) and the float reference;
//! `tests/proptest_kernels.rs` pins the equivalence over random shapes,
//! batch sizes, and the full accumulator range.

use crate::bitmatrix::BitMatrix;
use crate::bitvec64::{low_mask, words_for, BitVec64, WORD_BITS};
use crate::pack::{BitPlaneBlock, BLOCK_LANES};
use crate::threshold::{ThresholdUnit, ThresholdWindows};

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
/// frames.
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
/// Writes `words_for(rows)` words per frame into `out`, frame after frame,
/// bit-exact against [`xnor_gemm_block`] followed by
/// [`ThresholdUnit::apply`]. `windows` is the bank lowered once per layer
/// pass ([`ThresholdUnit::windows`]): the hot loop runs two branch-free
/// integer compares per neuron instead of an enum dispatch that
/// mispredicts on random sign data. Allocates nothing, so a split's
/// helpers can run it on their own band of windows.
// The signed accumulator 2·agree − bits fits i64 trivially; index products
// are bounded by rows·frames as in the unfused kernel.
#[allow(clippy::arithmetic_side_effects)]
// bcp:hot-path — fused threshold compare inside the blocked accumulator loop
pub fn xnor_gemm_block_thresholded_into(
    weights: &BitMatrix,
    block: &BitPlaneBlock,
    windows: &ThresholdWindows,
    out: &mut [u64],
) {
    // audit: allow(panic): fan-in mismatch is a programming error, checked once per call — never per element
    assert_eq!(
        weights.cols(),
        block.bits(),
        "xnor_gemm_block_thresholded fan-in {} vs block bits {}",
        weights.cols(),
        block.bits()
    );
    let (rows, frames, bits) = (weights.rows(), block.frames(), block.bits());
    let per = words_for(rows);
    // audit: allow(panic): a bank or output buffer sized for another layer is a wiring error, checked once per call
    assert!(
        windows.len() == rows && out.len() == frames * per,
        "threshold bank ({}) must match neuron count ({rows}), output {} words vs {frames} frames of {per}",
        windows.len(),
        out.len()
    );
    out.fill(0);
    for r in 0..rows {
        let wrow = weights.row_words(r);
        let (word, bit) = (r / WORD_BITS, r % WORD_BITS);
        for g in 0..block.blocks() {
            let agree = lane_agreements(wrow, block.block_words(g), bits);
            let base = g * BLOCK_LANES;
            for (lane, &a) in agree.iter().enumerate() {
                let f = base + lane;
                if f < frames {
                    // audit: allow(cast): popcount ≤ bits and layer widths are far below 2^63, so both casts are value-preserving
                    let acc = 2 * a as i64 - bits as i64;
                    if let Some(w) = out.get_mut(f * per + word) {
                        *w |= u64::from(windows.fires(r, acc)) << bit;
                    }
                }
            }
        }
    }
}

/// [`xnor_gemm_block_thresholded_into`] returning one `rows`-bit vector
/// per frame: lowers the bank and allocates the output (callers outside
/// the frame path).
pub fn xnor_gemm_block_thresholded(
    weights: &BitMatrix,
    block: &BitPlaneBlock,
    thresholds: &ThresholdUnit,
) -> Vec<BitVec64> {
    let (rows, frames) = (weights.rows(), block.frames());
    let per = words_for(rows);
    let mut out = vec![0; frames.saturating_mul(per)];
    xnor_gemm_block_thresholded_into(weights, block, &thresholds.windows(), &mut out);
    let mut words = out.into_iter();
    (0..frames)
        .map(|_| BitVec64::from_words(rows, words.by_ref().take(per).collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;
    use crate::threshold::ThresholdChannel;
    use crate::xnor::gemm_naive_signs;
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

    fn random_frames(n: usize, bits: usize, seed: u64) -> Vec<BitVec64> {
        (0..n)
            .map(|i| random_bitmatrix(1, bits, seed.wrapping_add(i as u64 * 7919)).row(0))
            .collect()
    }

    /// Reference: the dense sign-decode GEMM, `out[r·frames + f]` like the
    /// blocked kernel.
    fn naive(weights: &BitMatrix, frames: &[BitVec64]) -> Vec<i32> {
        gemm_naive_signs(weights, &BitMatrix::from_rows(frames))
    }

    /// A bank mixing all three channel kinds around τ = 0.
    fn mixed_bank(rows: usize) -> ThresholdUnit {
        ThresholdUnit::new(
            (0..rows)
                .map(|i| match i % 3 {
                    0 => ThresholdChannel::Ge(i as i64 % 7 - 3),
                    1 => ThresholdChannel::Le(3 - i as i64 % 5),
                    _ => ThresholdChannel::Const(i % 2 == 0),
                })
                .collect(),
        )
    }

    #[test]
    fn b0_yields_empty_output() {
        let block = BitPlaneBlock::pack(&[]);
        // An empty block reports 0 bits; pair it with a 0-col matrix.
        let w0 = BitMatrix::zeros(5, 0);
        assert!(xnor_gemm_block(&w0, &block).is_empty());
        let t = ThresholdUnit::new(vec![ThresholdChannel::Ge(0); 5]);
        assert!(xnor_gemm_block_thresholded(&w0, &block, &t).is_empty());
    }

    #[test]
    fn fixed_shapes_match_naive_signs() {
        // (rows, fan-in, frames): two blocks of one, a ragged second
        // register block, a fan-in that is an exact multiple of the word
        // size — then a square self-product whose diagonal must equal the
        // fan-in.
        for (rows, k, b) in [
            (6usize, 100usize, 1usize),
            (6, 90, 1),
            (7, 130, 5),
            (2, 128, 2),
        ] {
            let w = random_bitmatrix(rows, k, 3);
            let frames = random_frames(b, k, 11);
            let block = BitPlaneBlock::pack(&frames);
            assert_eq!(
                xnor_gemm_block(&w, &block),
                naive(&w, &frames),
                "{rows}x{k} @ B={b}"
            );
        }
        let a = random_bitmatrix(4, 100, 7);
        let rows: Vec<BitVec64> = (0..4).map(|r| a.row(r)).collect();
        let c = xnor_gemm_block(&a, &BitPlaneBlock::pack(&rows));
        assert_eq!(c, naive(&a, &rows));
        for i in 0..4 {
            assert_eq!(c[i * 4 + i], 100);
        }
    }

    #[test]
    fn block_of_one_edge_cases() {
        // B = 1 leaves three padding lanes in the only register block; the
        // fan-ins straddle word boundaries and the row counts straddle the
        // fused kernel's 64-bit output words.
        for bits in [1usize, 63, 64, 65, 259] {
            for rows in [1usize, 63, 65, 130] {
                let w = random_bitmatrix(rows, bits, 19);
                let frames = random_frames(1, bits, 23);
                let block = BitPlaneBlock::pack(&frames);
                let want = naive(&w, &frames);
                assert_eq!(xnor_gemm_block(&w, &block), want, "{rows}x{bits}");
                let t = mixed_bank(rows);
                let fused = xnor_gemm_block_thresholded(&w, &block, &t);
                assert_eq!(fused.len(), 1);
                assert_eq!(fused[0].len(), rows);
                for (r, &acc) in want.iter().enumerate() {
                    assert_eq!(
                        fused[0].get(r),
                        t.apply(r, i64::from(acc)),
                        "{rows}x{bits} row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn ragged_batch_not_multiple_of_block() {
        // B = 5 and B = 7: one full register block plus a ragged tail block.
        for b in [5usize, 7] {
            let w = random_bitmatrix(4, 96, 5);
            let frames = random_frames(b, 96, 21 + b as u64);
            let block = BitPlaneBlock::pack(&frames);
            assert_eq!(block.blocks(), 2);
            assert_eq!(xnor_gemm_block(&w, &block), naive(&w, &frames), "B={b}");
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
                naive(&w, &frames),
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
        assert_eq!(got, naive(&w, &frames));
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
        let accs = naive(&w, &frames);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_blocked_equals_naive(m in 1usize..6, n in 1usize..6, k in 1usize..200, seed in any::<u64>()) {
            let w = random_bitmatrix(m, k, seed);
            let frames = random_frames(n, k, seed.wrapping_add(99));
            prop_assert_eq!(xnor_gemm_block(&w, &BitPlaneBlock::pack(&frames)), naive(&w, &frames));
        }

        #[test]
        fn prop_accumulator_parity(k in 1usize..300, seed in any::<u64>()) {
            // Every accumulator has the same parity as k and magnitude ≤ k.
            let w = random_bitmatrix(3, k, seed);
            let frames = random_frames(3, k, seed.wrapping_add(1));
            for acc in xnor_gemm_block(&w, &BitPlaneBlock::pack(&frames)) {
                prop_assert!(acc.unsigned_abs() as usize <= k);
                prop_assert_eq!((acc - k as i32).rem_euclid(2), 0);
            }
        }
    }
}
