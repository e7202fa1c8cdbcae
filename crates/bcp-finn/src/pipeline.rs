//! The streaming stage pipeline (Fig. 1).

use crate::data::{BinMap, QuantMap, StageData};
use crate::folding::Folding;
use crate::mvtu::{BinaryMvtu, FixedInputMvtu};
use crate::pool::or_pool;
use crate::swu::{out_dim, windows_binary, windows_quant};
use bcp_bitpack::BitVec64;
use serde::{Deserialize, Serialize};

/// One hardware stage of the accelerator.
#[derive(Clone, Serialize, Deserialize)]
pub enum Stage {
    /// First layer: SWU over the quantized input image + fixed-point MVTU.
    ConvFixed {
        /// Stage name.
        name: String,
        /// The compute unit.
        mvtu: FixedInputMvtu,
        /// Kernel size.
        k: usize,
        /// Input (channels, height, width).
        in_dims: (usize, usize, usize),
    },
    /// Hidden conv layer: SWU over a binary map + binary MVTU.
    ConvBinary {
        /// Stage name.
        name: String,
        /// The compute unit (must have thresholds).
        mvtu: BinaryMvtu,
        /// Kernel size.
        k: usize,
        /// Input (channels, height, width).
        in_dims: (usize, usize, usize),
    },
    /// Boolean-OR max pool.
    PoolOr {
        /// Stage name.
        name: String,
        /// Window/stride.
        k: usize,
        /// Input (channels, height, width).
        in_dims: (usize, usize, usize),
    },
    /// Hidden dense layer (thresholded binary output).
    DenseBinary {
        /// Stage name.
        name: String,
        /// The compute unit (must have thresholds).
        mvtu: BinaryMvtu,
    },
    /// Final dense layer emitting integer logits.
    DenseLogits {
        /// Stage name.
        name: String,
        /// The compute unit (no thresholds).
        mvtu: BinaryMvtu,
    },
}

impl Stage {
    /// Stage name.
    pub fn name(&self) -> &str {
        match self {
            Stage::ConvFixed { name, .. }
            | Stage::ConvBinary { name, .. }
            | Stage::PoolOr { name, .. }
            | Stage::DenseBinary { name, .. }
            | Stage::DenseLogits { name, .. } => name,
        }
    }

    /// Output (channels, height, width); logits report `(classes, 1, 1)`.
    pub fn out_dims(&self) -> (usize, usize, usize) {
        match self {
            Stage::ConvFixed {
                mvtu, k, in_dims, ..
            } => (mvtu.rows(), out_dim(in_dims.1, *k), out_dim(in_dims.2, *k)),
            Stage::ConvBinary {
                mvtu, k, in_dims, ..
            } => (mvtu.rows(), out_dim(in_dims.1, *k), out_dim(in_dims.2, *k)),
            Stage::PoolOr { k, in_dims, .. } => (
                in_dims.0,
                in_dims.1.checked_div(*k).unwrap_or(0),
                in_dims.2.checked_div(*k).unwrap_or(0),
            ),
            Stage::DenseBinary { mvtu, .. } => (mvtu.rows(), 1, 1),
            Stage::DenseLogits { mvtu, .. } => (mvtu.rows(), 1, 1),
        }
    }

    /// Declared input element count (for chain validation).
    pub fn in_count(&self) -> usize {
        match self {
            Stage::ConvFixed { in_dims, .. }
            | Stage::ConvBinary { in_dims, .. }
            | Stage::PoolOr { in_dims, .. } => in_dims
                .0
                .saturating_mul(in_dims.1)
                .saturating_mul(in_dims.2),
            Stage::DenseBinary { mvtu, .. } | Stage::DenseLogits { mvtu, .. } => mvtu.cols(),
        }
    }

    /// The stage's PE×SIMD folding (pool stages report 1×1).
    pub fn folding(&self) -> Folding {
        match self {
            Stage::ConvFixed { mvtu, .. } => mvtu.folding,
            Stage::ConvBinary { mvtu, .. }
            | Stage::DenseBinary { mvtu, .. }
            | Stage::DenseLogits { mvtu, .. } => mvtu.folding,
            Stage::PoolOr { .. } => Folding::sequential(),
        }
    }

    /// Weight-memory size in bits (0 for pool stages).
    pub fn weight_bits(&self) -> u64 {
        match self {
            Stage::ConvFixed { mvtu, .. } => {
                (mvtu.rows() as u64).saturating_mul(mvtu.cols() as u64)
            }
            Stage::ConvBinary { mvtu, .. }
            | Stage::DenseBinary { mvtu, .. }
            | Stage::DenseLogits { mvtu, .. } => {
                (mvtu.rows() as u64).saturating_mul(mvtu.cols() as u64)
            }
            Stage::PoolOr { .. } => 0,
        }
    }

    /// The stage's packed weight memory (`None` for pool stages, which
    /// carry no parameters).
    pub fn weight_matrix(&self) -> Option<&bcp_bitpack::BitMatrix> {
        match self {
            Stage::ConvFixed { mvtu, .. } => Some(mvtu.weights()),
            Stage::ConvBinary { mvtu, .. }
            | Stage::DenseBinary { mvtu, .. }
            | Stage::DenseLogits { mvtu, .. } => Some(mvtu.weights()),
            Stage::PoolOr { .. } => None,
        }
    }

    /// The stage's folded threshold table (`None` for pool and logits
    /// stages).
    pub fn threshold_unit(&self) -> Option<&bcp_bitpack::ThresholdUnit> {
        match self {
            Stage::ConvFixed { mvtu, .. } => Some(mvtu.thresholds()),
            Stage::ConvBinary { mvtu, .. } | Stage::DenseBinary { mvtu, .. } => mvtu.thresholds(),
            Stage::DenseLogits { .. } | Stage::PoolOr { .. } => None,
        }
    }

    /// Replace the stage's threshold table (guard repair path). Panics on
    /// a stage without threshold memory or on a bank-size mismatch.
    pub fn restore_thresholds(&mut self, thresholds: bcp_bitpack::ThresholdUnit) {
        match self {
            Stage::ConvFixed { mvtu, .. } => mvtu.restore_thresholds(thresholds),
            Stage::ConvBinary { mvtu, .. } | Stage::DenseBinary { mvtu, .. } => {
                mvtu.restore_thresholds(thresholds)
            }
            Stage::DenseLogits { name, .. } | Stage::PoolOr { name, .. } => {
                panic!("stage '{name}' has no threshold memory to restore")
            }
        }
    }

    /// Cycles to process one frame (Sec. III-B folding arithmetic).
    pub fn cycles_per_frame(&self) -> u64 {
        match self {
            Stage::ConvFixed {
                mvtu, k, in_dims, ..
            } => {
                let vecs = out_dim(in_dims.1, *k).saturating_mul(out_dim(in_dims.2, *k));
                mvtu.folding
                    .cycles_per_frame(mvtu.rows(), mvtu.cols(), vecs)
            }
            Stage::ConvBinary {
                mvtu, k, in_dims, ..
            } => {
                let vecs = out_dim(in_dims.1, *k).saturating_mul(out_dim(in_dims.2, *k));
                mvtu.folding
                    .cycles_per_frame(mvtu.rows(), mvtu.cols(), vecs)
            }
            Stage::PoolOr { k, in_dims, .. } => (in_dims.1.checked_div(*k).unwrap_or(0) as u64)
                .saturating_mul(in_dims.2.checked_div(*k).unwrap_or(0) as u64),
            Stage::DenseBinary { mvtu, .. } | Stage::DenseLogits { mvtu, .. } => {
                mvtu.folding.cycles_per_frame(mvtu.rows(), mvtu.cols(), 1)
            }
        }
    }

    /// Process one token. All arithmetic is integer-exact.
    pub fn process(&self, input: StageData) -> StageData {
        match self {
            Stage::ConvFixed {
                name,
                mvtu,
                k,
                in_dims,
            } => {
                let q = input.expect_quant(name);
                assert_eq!(
                    (q.c, q.h, q.w),
                    *in_dims,
                    "stage '{name}' input dims mismatch"
                );
                let (oh, ow) = (out_dim(q.h, *k), out_dim(q.w, *k));
                let mut out = BinMap::zeros(mvtu.rows(), oh, ow);
                for (p, window) in windows_quant(&q, *k).iter().enumerate() {
                    let bits = mvtu.threshold_bits(window);
                    // ow ≥ 1 whenever a window exists, so the divisor is never zero.
                    let (oy, ox) = (
                        p.checked_div(ow).unwrap_or(0),
                        p.checked_rem(ow).unwrap_or(0),
                    );
                    for ch in 0..mvtu.rows() {
                        if bits.get(ch) {
                            out.set(ch, oy, ox, true);
                        }
                    }
                }
                StageData::Bits(out)
            }
            Stage::ConvBinary {
                name,
                mvtu,
                k,
                in_dims,
            } => {
                let b = input.expect_bits(name);
                assert_eq!(
                    (b.c, b.h, b.w),
                    *in_dims,
                    "stage '{name}' input dims mismatch"
                );
                let (oh, ow) = (out_dim(b.h, *k), out_dim(b.w, *k));
                let mut out = BinMap::zeros(mvtu.rows(), oh, ow);
                // The SWU's window vectors are the natural frame batch for
                // the register-blocked kernel: every weight row is streamed
                // once for the whole output map instead of once per pixel.
                let windows = windows_binary(&b, *k);
                for (p, bits) in mvtu.threshold_bits_batch(&windows).iter().enumerate() {
                    // ow ≥ 1 whenever a window exists, so the divisor is never zero.
                    let (oy, ox) = (
                        p.checked_div(ow).unwrap_or(0),
                        p.checked_rem(ow).unwrap_or(0),
                    );
                    for ch in 0..mvtu.rows() {
                        if bits.get(ch) {
                            out.set(ch, oy, ox, true);
                        }
                    }
                }
                StageData::Bits(out)
            }
            Stage::PoolOr { name, k, in_dims } => {
                let b = input.expect_bits(name);
                assert_eq!(
                    (b.c, b.h, b.w),
                    *in_dims,
                    "stage '{name}' input dims mismatch"
                );
                StageData::Bits(or_pool(&b, *k))
            }
            Stage::DenseBinary { name, mvtu } => {
                let b = input.expect_bits(name);
                let flat: &BitVec64 = b.as_bits();
                let bits = mvtu.threshold_bits(flat);
                StageData::Bits(BinMap::from_bits(mvtu.rows(), 1, 1, bits))
            }
            Stage::DenseLogits { name, mvtu } => {
                let b = input.expect_bits(name);
                StageData::Logits(mvtu.accumulate(b.as_bits()))
            }
        }
    }

    /// Process a group of tokens as one micro-batch. Dense stages run the
    /// register-blocked multi-frame kernel (one weight-row stream for the
    /// whole group); conv and pool stages process per token — conv stages
    /// already block over their SWU windows inside [`Stage::process`].
    /// Results are bit-identical to calling [`Stage::process`] per token,
    /// in order, which the tests assert.
    pub fn process_batch(&self, inputs: Vec<StageData>) -> Vec<StageData> {
        if inputs.is_empty() {
            return Vec::new();
        }
        match self {
            Stage::DenseBinary { name, mvtu } => {
                let maps: Vec<BinMap> = inputs.into_iter().map(|t| t.expect_bits(name)).collect();
                let flats: Vec<&BitVec64> = maps.iter().map(BinMap::as_bits).collect();
                let block = bcp_bitpack::BitPlaneBlock::pack_refs(&flats);
                assert_eq!(
                    block.bits(),
                    mvtu.cols(),
                    "stage '{name}' input length {} vs fan-in {}",
                    block.bits(),
                    mvtu.cols()
                );
                mvtu.threshold_bits_block(&block)
                    .into_iter()
                    .map(|bits| StageData::Bits(BinMap::from_bits(mvtu.rows(), 1, 1, bits)))
                    .collect()
            }
            Stage::DenseLogits { name, mvtu } => {
                let maps: Vec<BinMap> = inputs.into_iter().map(|t| t.expect_bits(name)).collect();
                let flats: Vec<&BitVec64> = maps.iter().map(BinMap::as_bits).collect();
                let block = bcp_bitpack::BitPlaneBlock::pack_refs(&flats);
                assert_eq!(
                    block.bits(),
                    mvtu.cols(),
                    "stage '{name}' input length {} vs fan-in {}",
                    block.bits(),
                    mvtu.cols()
                );
                mvtu.accumulate_block(&block)
                    .into_iter()
                    .map(StageData::Logits)
                    .collect()
            }
            Stage::ConvFixed { .. } | Stage::ConvBinary { .. } | Stage::PoolOr { .. } => {
                inputs.into_iter().map(|t| self.process(t)).collect()
            }
        }
    }
}

/// Argmax over a logits vector, first index on ties — the one decision
/// rule shared by every classification path over a [`Pipeline`].
pub fn argmax(logits: &[i64]) -> usize {
    let mut best = 0usize;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits.get(best).copied().unwrap_or(i64::MIN) {
            best = i;
        }
    }
    best
}

/// A complete accelerator: an ordered stage chain, validated at build time.
///
/// Cloning produces an independent replica (weights and thresholds are
/// deep-copied), which is how `bcp-serve` gives each worker its own
/// isolated copy of the accelerator.
#[derive(Clone)]
pub struct Pipeline {
    name: String,
    stages: Vec<Stage>,
}

impl Pipeline {
    /// Build and validate the chain: each stage's input element count must
    /// equal its predecessor's output count, and only the last stage may
    /// emit logits.
    pub fn new(name: impl Into<String>, stages: Vec<Stage>) -> Self {
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        assert!(
            matches!(stages[0], Stage::ConvFixed { .. }),
            "first stage must consume the quantized camera input"
        );
        for pair in stages.windows(2) {
            let (prev, cur) = (&pair[0], &pair[1]);
            let (c, h, w) = prev.out_dims();
            assert_eq!(
                c.saturating_mul(h).saturating_mul(w),
                cur.in_count(),
                "stage '{}' output {}×{}×{} does not feed stage '{}' (expects {} elements)",
                prev.name(),
                c,
                h,
                w,
                cur.name(),
                cur.in_count()
            );
        }
        for (i, s) in stages.iter().enumerate() {
            let is_last = i.saturating_add(1) == stages.len();
            assert_eq!(
                matches!(s, Stage::DenseLogits { .. }),
                is_last,
                "exactly the final stage must be the logits layer"
            );
        }
        Pipeline {
            name: name.into(),
            stages,
        }
    }

    /// Pipeline name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stage list.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Mutable stage access (fault injection). Geometry must not change —
    /// callers may only perturb weights/thresholds.
    pub fn stage_mut(&mut self, i: usize) -> &mut Stage {
        &mut self.stages[i]
    }

    /// Run one frame through every stage; returns the class logits.
    pub fn forward(&self, input: &QuantMap) -> Vec<i64> {
        let mut token = StageData::Quant(input.clone());
        for stage in &self.stages {
            token = stage.process(token);
        }
        token.expect_logits("pipeline output")
    }

    /// Run a group of frames through every stage as one micro-batch via
    /// [`Stage::process_batch`]: dense stages stream each weight row once
    /// for the whole group. Returns per-frame logits in input order,
    /// bit-identical to [`Pipeline::forward`] per frame.
    pub fn forward_batch(&self, inputs: &[QuantMap]) -> Vec<Vec<i64>> {
        let mut tokens: Vec<StageData> =
            inputs.iter().map(|q| StageData::Quant(q.clone())).collect();
        for stage in &self.stages {
            tokens = stage.process_batch(tokens);
        }
        tokens
            .into_iter()
            .map(|t| t.expect_logits("pipeline output"))
            .collect()
    }

    /// Classify one frame: [`argmax`] of the logits.
    pub fn classify(&self, input: &QuantMap) -> usize {
        argmax(&self.forward(input))
    }

    /// Structural description in the layout of Fig. 1: stage kind, dims,
    /// folding, per-frame cycles.
    pub fn describe(&self) -> String {
        let mut s = format!("{} — FINN streaming pipeline\n", self.name);
        s.push_str("  camera → 8-bit quantization →\n");
        for stage in &self.stages {
            let (c, h, w) = stage.out_dims();
            let f = stage.folding();
            let kind = match stage {
                Stage::ConvFixed { .. } => "SWU→MVTU (fixed-input)",
                Stage::ConvBinary { .. } => "SWU→MVTU (XNOR)",
                Stage::PoolOr { .. } => "OR-pool",
                Stage::DenseBinary { .. } => "MVTU (XNOR)",
                Stage::DenseLogits { .. } => "MVTU (accumulate)",
            };
            s.push_str(&format!(
                "  {:<10} {:<24} out {c}×{h}×{w}  PE={:<3} SIMD={:<3} cycles/frame={}\n",
                stage.name(),
                kind,
                f.pe,
                f.simd,
                stage.cycles_per_frame()
            ));
        }
        s.push_str("  → argmax class\n");
        s
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;
    use bcp_bitpack::pack::pack_matrix;
    use bcp_bitpack::{ThresholdChannel, ThresholdUnit};

    fn all_ones_weights(rows: usize, cols: usize) -> bcp_bitpack::BitMatrix {
        pack_matrix(rows, cols, &vec![1.0f32; rows * cols])
    }

    fn ge0(rows: usize) -> ThresholdUnit {
        ThresholdUnit::new(vec![ThresholdChannel::Ge(0); rows])
    }

    /// A tiny but complete pipeline: conv(2ch,3×3) on a 6×6 RGB-ish input →
    /// pool → dense → logits.
    fn tiny_pipeline() -> Pipeline {
        let conv1 = Stage::ConvFixed {
            name: "conv1".into(),
            mvtu: FixedInputMvtu::new(all_ones_weights(2, 3 * 9), ge0(2), Folding::new(2, 9)),
            k: 3,
            in_dims: (3, 6, 6),
        };
        let pool1 = Stage::PoolOr {
            name: "pool1".into(),
            k: 2,
            in_dims: (2, 4, 4),
        };
        let fc1 = Stage::DenseBinary {
            name: "fc1".into(),
            mvtu: BinaryMvtu::new(all_ones_weights(5, 8), Some(ge0(5)), Folding::new(1, 8)),
        };
        let fc2 = Stage::DenseLogits {
            name: "fc2".into(),
            mvtu: BinaryMvtu::new(all_ones_weights(4, 5), None, Folding::sequential()),
        };
        Pipeline::new("tiny", vec![conv1, pool1, fc1, fc2])
    }

    fn white_input() -> QuantMap {
        QuantMap::from_unit_floats(3, 6, 6, &vec![1.0f32; 3 * 36])
    }

    #[test]
    fn pipeline_runs_end_to_end() {
        let p = tiny_pipeline();
        let logits = p.forward(&white_input());
        assert_eq!(logits.len(), 4);
        // All-ones weights on an all-bright image: conv accs = 27·255 > 0 →
        // all bits 1; pool keeps 1; fc1 accs = 8 ≥ 0 → all 1; logits all 5.
        assert_eq!(logits, vec![5, 5, 5, 5]);
        assert_eq!(p.classify(&white_input()), 0); // tie → first
    }

    #[test]
    fn forward_batch_matches_per_frame_forward() {
        let p = tiny_pipeline();
        // Frames with varied content, counts spanning empty, single, a full
        // register block, and ragged tails.
        for n in [0usize, 1, 3, 4, 5, 9] {
            let frames: Vec<QuantMap> = (0..n)
                .map(|i| {
                    let px: Vec<f32> = (0..3 * 36)
                        .map(|j| (((i * 53 + j * 17) % 256) as f32) / 255.0)
                        .collect();
                    QuantMap::from_unit_floats(3, 6, 6, &px)
                })
                .collect();
            let batched = p.forward_batch(&frames);
            let single: Vec<Vec<i64>> = frames.iter().map(|f| p.forward(f)).collect();
            assert_eq!(batched, single, "n={n}");
        }
    }

    #[test]
    fn process_batch_matches_process_per_stage() {
        // Drive every stage kind with its own batched tokens and pin the
        // outputs to the per-token path.
        let p = tiny_pipeline();
        let frames: Vec<QuantMap> = (0..6)
            .map(|i| {
                let px: Vec<f32> = (0..3 * 36)
                    .map(|j| (((i * 29 + j * 13) % 256) as f32) / 255.0)
                    .collect();
                QuantMap::from_unit_floats(3, 6, 6, &px)
            })
            .collect();
        let mut batched: Vec<StageData> =
            frames.iter().map(|q| StageData::Quant(q.clone())).collect();
        let mut single: Vec<StageData> =
            frames.iter().map(|q| StageData::Quant(q.clone())).collect();
        for stage in p.stages() {
            batched = stage.process_batch(batched);
            single = single.into_iter().map(|t| stage.process(t)).collect();
            assert_eq!(batched.len(), single.len());
            for (b, s) in batched.iter().zip(&single) {
                match (b, s) {
                    (StageData::Bits(x), StageData::Bits(y)) => assert_eq!(x, y),
                    (StageData::Logits(x), StageData::Logits(y)) => assert_eq!(x, y),
                    other => panic!("token kind mismatch at {}: {other:?}", stage.name()),
                }
            }
        }
    }

    #[test]
    fn describe_lists_all_stages() {
        let d = tiny_pipeline().describe();
        for name in ["conv1", "pool1", "fc1", "fc2"] {
            assert!(d.contains(name), "describe() missing {name}:\n{d}");
        }
        assert!(d.contains("OR-pool"));
        assert!(d.contains("SWU→MVTU"));
    }

    #[test]
    fn cycles_follow_folding_model() {
        let p = tiny_pipeline();
        // conv1: fold = ceil(2/2)·ceil(27/9) = 3, 16 output pixels → 48.
        assert_eq!(p.stages()[0].cycles_per_frame(), 48);
        // pool: 2×2 outputs → 4.
        assert_eq!(p.stages()[1].cycles_per_frame(), 4);
        // fc1: ceil(5/1)·ceil(8/8) = 5.
        assert_eq!(p.stages()[2].cycles_per_frame(), 5);
    }

    #[test]
    #[should_panic(expected = "does not feed")]
    fn mismatched_chain_rejected() {
        let conv1 = Stage::ConvFixed {
            name: "conv1".into(),
            mvtu: FixedInputMvtu::new(all_ones_weights(2, 27), ge0(2), Folding::sequential()),
            k: 3,
            in_dims: (3, 6, 6),
        };
        let fc = Stage::DenseLogits {
            name: "fc".into(),
            mvtu: BinaryMvtu::new(all_ones_weights(4, 99), None, Folding::sequential()),
        };
        Pipeline::new("bad", vec![conv1, fc]);
    }

    #[test]
    #[should_panic(expected = "final stage must be the logits layer")]
    fn pipeline_must_end_in_logits() {
        let conv1 = Stage::ConvFixed {
            name: "conv1".into(),
            mvtu: FixedInputMvtu::new(all_ones_weights(2, 27), ge0(2), Folding::sequential()),
            k: 3,
            in_dims: (3, 6, 6),
        };
        Pipeline::new("bad", vec![conv1]);
    }
}
