//! Matrix-vector-threshold units (MVTU) — Fig. 1's processing elements.
//!
//! A binary MVTU computes, for each output neuron, the XNOR-popcount dot
//! product of its weight row with the input vector (Eq. 3), then compares
//! the integer accumulator against the neuron's threshold (the folded
//! batch-norm + sign, Sec. III-A). It has one entry per output kind, both
//! over a packed [`BitPlaneBlock`] — a single input vector is a block of
//! one. The first-layer variant accumulates 8-bit fixed-point pixels
//! against binary weights — ±add instead of XNOR — as FINN's first layer
//! does.

use bcp_bitpack::bitvec64::{words_for, WORD_BITS};
use bcp_bitpack::{
    xnor_gemm_block, xnor_gemm_block_thresholded_into, BitMatrix, BitPlaneBlock, ThresholdUnit,
    ThresholdWindows,
};

use crate::folding::Folding;
use serde::{Deserialize, Serialize};

/// MVTU over binary inputs and binary weights.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BinaryMvtu {
    /// Weight matrix: rows = output neurons, cols = fan-in.
    weights: BitMatrix,
    /// Per-neuron thresholds; `None` for the final logits layer.
    thresholds: Option<ThresholdUnit>,
    /// PE×SIMD dimensioning (timing model only — functional results are
    /// fold-invariant, which the tests assert).
    pub folding: Folding,
}

impl BinaryMvtu {
    /// Build; validates threshold bank size.
    pub fn new(weights: BitMatrix, thresholds: Option<ThresholdUnit>, folding: Folding) -> Self {
        if let Some(t) = &thresholds {
            assert_eq!(
                t.len(),
                weights.rows(),
                "threshold bank ({}) must match neuron count ({})",
                t.len(),
                weights.rows()
            );
        }
        BinaryMvtu {
            weights,
            thresholds,
            folding,
        }
    }

    /// Output neuron count.
    pub fn rows(&self) -> usize {
        self.weights.rows()
    }

    /// Fan-in.
    pub fn cols(&self) -> usize {
        self.weights.cols()
    }

    /// Weight matrix access (resource model reads sizes).
    pub fn weights(&self) -> &BitMatrix {
        &self.weights
    }

    /// Threshold bank access (static analysis reads τ ranges).
    pub fn thresholds(&self) -> Option<&ThresholdUnit> {
        self.thresholds.as_ref()
    }

    /// Toggle one weight bit (fault injection).
    pub fn flip_weight(&mut self, r: usize, c: usize) {
        self.weights.flip(r, c);
    }

    /// Replace the threshold bank (the guard layer's repair path — and,
    /// inverted, its corruption hook for tests). Only legal on a unit that
    /// already thresholds; the logits layer has no threshold memory.
    pub fn restore_thresholds(&mut self, thresholds: ThresholdUnit) {
        assert!(
            self.thresholds.is_some(),
            "restore_thresholds() on a logits-mode MVTU"
        );
        assert_eq!(
            thresholds.len(),
            self.weights.rows(),
            "threshold bank ({}) must match neuron count ({})",
            thresholds.len(),
            self.weights.rows()
        );
        self.thresholds = Some(thresholds);
    }

    /// Raw signed accumulators for a pre-packed block of input vectors,
    /// one `Vec<i64>` per frame in block order. Runs the register-blocked
    /// multi-frame kernel: each weight row is streamed once for the whole
    /// block.
    // Reshape indices are bounded by rows·frames, the size of the kernel's
    // output buffer; plain ops keep the de-interleave loop tight.
    #[allow(clippy::arithmetic_side_effects)]
    // bcp:hot-path — blocked MVTU accumulation, once per layer per micro-batch
    pub fn accumulate_block(&self, block: &BitPlaneBlock) -> Vec<Vec<i64>> {
        if block.frames() == 0 {
            // audit: allow(alloc): Vec::new is capacity-0 (no heap) — the empty-batch early return
            return Vec::new();
        }
        let accs = xnor_gemm_block(&self.weights, block);
        let (rows, frames) = (self.weights.rows(), block.frames());
        (0..frames)
            .map(|f| {
                (0..rows)
                    // audit: allow(index): r < rows and f < frames bound r·frames+f inside the kernel's rows·frames buffer
                    .map(|r| i64::from(accs[r * frames + f]))
                    // audit: allow(alloc): one accumulator vector per frame per layer pass — layer-level buffer reuse is ROADMAP item 3
                    .collect()
            })
            // audit: allow(alloc): one frame-indexed vector per layer pass
            .collect()
    }

    /// The threshold bank lowered to compare windows, made once per stage
    /// call on the caller's thread for [`BinaryMvtu::threshold_bits_block_into`].
    /// Panics when built without thresholds.
    pub fn threshold_windows(&self) -> ThresholdWindows {
        self.thresholds
            .as_ref()
            .expect("threshold_windows() on a logits-mode MVTU")
            .windows()
    }

    /// Thresholded output bits for a pre-packed block of input vectors,
    /// `words_for(rows)` words per frame written into `out`. The
    /// folded-threshold compare is fused into the blocked accumulator
    /// loop; `windows` is [`BinaryMvtu::threshold_windows`]. Allocates
    /// nothing.
    // bcp:hot-path — blocked threshold stage, once per band of a conv stage or per dense micro-batch
    pub fn threshold_bits_block_into(
        &self,
        windows: &ThresholdWindows,
        block: &BitPlaneBlock,
        out: &mut [u64],
    ) {
        // An empty batch packs to a 0-bit block: nothing to write.
        if block.frames() > 0 {
            xnor_gemm_block_thresholded_into(&self.weights, block, windows, out);
        }
    }
}

/// First-layer MVTU: fixed-point inputs (`2q − 255`), binary weights.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FixedInputMvtu {
    weights: BitMatrix,
    thresholds: ThresholdUnit,
    /// PE×SIMD dimensioning.
    pub folding: Folding,
}

impl FixedInputMvtu {
    /// Build; validates threshold bank size.
    pub fn new(weights: BitMatrix, thresholds: ThresholdUnit, folding: Folding) -> Self {
        assert_eq!(
            thresholds.len(),
            weights.rows(),
            "threshold bank ({}) must match neuron count ({})",
            thresholds.len(),
            weights.rows()
        );
        FixedInputMvtu {
            weights,
            thresholds,
            folding,
        }
    }

    /// Output neuron count.
    pub fn rows(&self) -> usize {
        self.weights.rows()
    }

    /// Fan-in.
    pub fn cols(&self) -> usize {
        self.weights.cols()
    }

    /// Weight matrix access.
    pub fn weights(&self) -> &BitMatrix {
        &self.weights
    }

    /// Threshold bank access (static analysis reads τ ranges).
    pub fn thresholds(&self) -> &ThresholdUnit {
        &self.thresholds
    }

    /// Toggle one weight bit (fault injection).
    pub fn flip_weight(&mut self, r: usize, c: usize) {
        self.weights.flip(r, c);
    }

    /// Replace the threshold bank (guard repair / test corruption hook).
    pub fn restore_thresholds(&mut self, thresholds: ThresholdUnit) {
        assert_eq!(
            thresholds.len(),
            self.weights.rows(),
            "threshold bank ({}) must match neuron count ({})",
            thresholds.len(),
            self.weights.rows()
        );
        self.thresholds = thresholds;
    }

    /// Thresholded output bits of every window in `inputs` (`cols` values
    /// each, back to back) into `out`, `words_for(rows)` words per window.
    /// Each accumulator is the exact integer `Σ (w ? +x : −x)`. Allocates
    /// nothing, so a split's helpers can run it on their own band.
    // The accumulator is bounded by 255·fan-in ≪ i64::MAX; plain adds keep
    // the per-pixel loop tight.
    #[allow(clippy::arithmetic_side_effects)]
    // bcp:hot-path — first-layer fixed-point accumulate + threshold, once per band of windows
    pub fn threshold_bits_into(&self, inputs: &[i32], out: &mut [u64]) {
        let (rows, cols) = (self.weights.rows(), self.weights.cols());
        let per = words_for(rows).max(1);
        let windows = inputs.chunks_exact(cols.max(1));
        // audit: allow(panic): buffers sized for another layer are a wiring error, checked once per call
        assert!(
            windows.remainder().is_empty() && out.len() == windows.len() * words_for(rows),
            "{} inputs, {} output words vs fan-in {cols} and {rows} neurons",
            inputs.len(),
            out.len()
        );
        for (window, px) in windows.zip(out.chunks_exact_mut(per)) {
            px.fill(0);
            for r in 0..rows {
                let mut acc = 0i64;
                for (c, &x) in window.iter().enumerate() {
                    if self.weights.get(r, c) {
                        acc += x as i64;
                    } else {
                        acc -= x as i64;
                    }
                }
                if let Some(w) = px.get_mut(r / WORD_BITS) {
                    *w |= u64::from(self.thresholds.apply(r, acc)) << (r % WORD_BITS);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;
    use bcp_bitpack::pack::pack_matrix;
    use bcp_bitpack::xnor::gemm_naive_signs;
    use bcp_bitpack::{BitVec64, ThresholdChannel};

    fn weights_2x4() -> BitMatrix {
        // Row 0: ++−−, Row 1: +−+−.
        pack_matrix(2, 4, &[1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    }

    fn block_of_one(bools: &[bool]) -> BitPlaneBlock {
        BitPlaneBlock::pack(&[BitVec64::from_bools(bools)])
    }

    #[test]
    fn binary_accumulate_known() {
        let m = BinaryMvtu::new(weights_2x4(), None, Folding::sequential());
        // All +1 — Row 0: 1+1−1−1 = 0; Row 1: 1−1+1−1 = 0.
        let x = block_of_one(&[true, true, true, true]);
        assert_eq!(m.accumulate_block(&x), vec![vec![0, 0]]);
        // Row 0 agrees everywhere → 4; Row 1: +1−1−1+1 = 0.
        let x = block_of_one(&[true, true, false, false]);
        assert_eq!(m.accumulate_block(&x), vec![vec![4, 0]]);
    }

    /// One frame's thresholded bits through the `_into` entry.
    fn threshold_one(m: &BinaryMvtu, bools: &[bool]) -> BitVec64 {
        let mut out = vec![0; words_for(m.rows())];
        m.threshold_bits_block_into(&m.threshold_windows(), &block_of_one(bools), &mut out);
        BitVec64::from_words(m.rows(), out)
    }

    #[test]
    fn threshold_bits_apply_bank() {
        let t = ThresholdUnit::new(vec![ThresholdChannel::Ge(4), ThresholdChannel::Ge(-1)]);
        let m = BinaryMvtu::new(weights_2x4(), Some(t), Folding::sequential());
        let bits = threshold_one(&m, &[true, true, false, false]); // accs [4, 0]
        assert!(bits.get(0)); // 4 ≥ 4
        assert!(bits.get(1)); // 0 ≥ −1
    }

    #[test]
    fn fixed_input_accumulate_known() {
        // Row 0 (++−−): 255 − 255 − 1 + 1 = 0; Row 1 (+−+−): 255+255+1+1=512.
        // Each bank fires a row exactly when its accumulator reaches τ.
        let x = [255, -255, 1, -1];
        for (taus, want) in [([0, 512], [true, true]), ([1, 513], [false, false])] {
            let t = ThresholdUnit::new(taus.iter().map(|&t| ThresholdChannel::Ge(t)).collect());
            let m = FixedInputMvtu::new(weights_2x4(), t, Folding::sequential());
            let mut out = [0u64];
            m.threshold_bits_into(&x, &mut out);
            let bits = BitVec64::from_words(2, out.to_vec());
            assert_eq!([bits.get(0), bits.get(1)], want, "τ {taus:?}");
        }
    }

    #[test]
    fn folding_does_not_change_results() {
        // The fold is a scheduling choice; arithmetic must be identical.
        let a = BinaryMvtu::new(weights_2x4(), None, Folding::sequential());
        let b = BinaryMvtu::new(weights_2x4(), None, Folding::new(2, 4));
        let x = block_of_one(&[false, true, true, false]);
        assert_eq!(a.accumulate_block(&x), b.accumulate_block(&x));
    }

    #[test]
    #[should_panic(expected = "threshold bank")]
    fn threshold_size_checked() {
        let t = ThresholdUnit::new(vec![ThresholdChannel::Ge(0)]);
        BinaryMvtu::new(weights_2x4(), Some(t), Folding::sequential());
    }

    #[test]
    #[should_panic(expected = "logits-mode")]
    fn logits_mode_has_no_threshold_bits() {
        let m = BinaryMvtu::new(weights_2x4(), None, Folding::sequential());
        m.threshold_windows();
    }

    fn lcg_frames(n: usize, bits: usize, seed: u64) -> Vec<BitVec64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                let bools: Vec<bool> = (0..bits)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        state >> 33 & 1 == 1
                    })
                    .collect();
                BitVec64::from_bools(&bools)
            })
            .collect()
    }

    /// Per-frame accumulators from the dense sign-decode oracle.
    fn naive_accs(weights: &BitMatrix, frames: &[BitVec64]) -> Vec<Vec<i64>> {
        if frames.is_empty() {
            return Vec::new();
        }
        let flat = gemm_naive_signs(weights, &BitMatrix::from_rows(frames));
        (0..frames.len())
            .map(|f| {
                (0..weights.rows())
                    .map(|r| i64::from(flat[r * frames.len() + f]))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn blocked_accumulate_matches_naive_signs() {
        let m = BinaryMvtu::new(weights_2x4(), None, Folding::sequential());
        for b in [0usize, 1, 3, 4, 5, 9] {
            let frames = lcg_frames(b, 4, 77);
            let blocked = m.accumulate_block(&BitPlaneBlock::pack(&frames));
            assert_eq!(blocked, naive_accs(m.weights(), &frames), "B={b}");
        }
    }

    #[test]
    fn blocked_threshold_matches_naive_signs() {
        let t = ThresholdUnit::new(vec![ThresholdChannel::Ge(0), ThresholdChannel::Le(-2)]);
        let m = BinaryMvtu::new(weights_2x4(), Some(t.clone()), Folding::sequential());
        for b in [0usize, 1, 2, 6, 7] {
            let frames = lcg_frames(b, 4, 123);
            let mut out = vec![0; b];
            m.threshold_bits_block_into(&t.windows(), &BitPlaneBlock::pack(&frames), &mut out);
            let blocked: Vec<BitVec64> = out
                .iter()
                .map(|&w| BitVec64::from_words(2, vec![w]))
                .collect();
            let want: Vec<BitVec64> = naive_accs(m.weights(), &frames)
                .iter()
                .map(|accs| BitVec64::from_bools(&t.apply_all(accs)))
                .collect();
            assert_eq!(blocked, want, "B={b}");
        }
    }
}
