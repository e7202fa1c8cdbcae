//! The streaming stage pipeline (Fig. 1).

use crate::data::{BinMap, BitWriter, QuantMap, StageData};
use crate::folding::Folding;
use crate::mvtu::{BinaryMvtu, FixedInputMvtu};
use crate::plan::{StageKind, StagePlan};
use crate::pool::or_pool;
use crate::swu::{out_dim, windows_binary_into, windows_quant_into};
use bcp_bitpack::bitvec64::{words_for, WORD_BITS};
use bcp_bitpack::{BitPlaneBlock, BitVec64};
use bcp_tensor::par;
use serde::{Deserialize, Serialize};
use std::ops::Range;

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

    /// The stage's geometry and folding — the one place they are read off
    /// the five variants; every model of the stage (cycles, resources, chain
    /// validation) works from the returned [`StagePlan`].
    pub fn plan(&self) -> StagePlan {
        let (kind, (rows, cols), folding, k, in_dims) = match self {
            Stage::ConvFixed {
                mvtu, k, in_dims, ..
            } => (
                StageKind::ConvFixed,
                (mvtu.rows(), mvtu.cols()),
                mvtu.folding,
                *k,
                *in_dims,
            ),
            Stage::ConvBinary {
                mvtu, k, in_dims, ..
            } => (
                StageKind::ConvBinary,
                (mvtu.rows(), mvtu.cols()),
                mvtu.folding,
                *k,
                *in_dims,
            ),
            Stage::PoolOr { k, in_dims, .. } => {
                (StageKind::Pool, (0, 0), Folding::sequential(), *k, *in_dims)
            }
            Stage::DenseBinary { mvtu, .. } => (
                StageKind::DenseBinary,
                (mvtu.rows(), mvtu.cols()),
                mvtu.folding,
                1,
                (mvtu.cols(), 1, 1),
            ),
            Stage::DenseLogits { mvtu, .. } => (
                StageKind::DenseLogits,
                (mvtu.rows(), mvtu.cols()),
                mvtu.folding,
                1,
                (mvtu.cols(), 1, 1),
            ),
        };
        let mut plan = StagePlan {
            name: self.name().to_owned(),
            kind,
            rows,
            cols,
            vectors: 1,
            pe: folding.pe,
            simd: folding.simd,
            k,
            in_dims,
        };
        let (_, oh, ow) = plan.out_dims();
        plan.vectors = oh.saturating_mul(ow);
        plan
    }

    /// Output (channels, height, width); logits report `(classes, 1, 1)`.
    pub fn out_dims(&self) -> (usize, usize, usize) {
        self.plan().out_dims()
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

    /// Cycles to process one frame (Sec. III-B folding arithmetic),
    /// saturating where the count overflows `u64`.
    pub fn cycles_per_frame(&self) -> u64 {
        self.plan().cycles_per_frame().unwrap_or(u64::MAX)
    }

    /// Process one token: a batch of one through [`Stage::process_batch`].
    pub fn process(&self, input: StageData) -> StageData {
        self.process_batch(vec![input])
            .pop()
            .expect("a stage emits one token per input token")
    }

    /// Process a group of tokens as one micro-batch — the one stage body;
    /// all arithmetic is integer-exact. Dense stages pack the group into
    /// one [`BitPlaneBlock`] so each weight row is streamed once for all of
    /// it; conv stages block over each token's SWU windows (every weight
    /// row is streamed once per band of output rows instead of once per
    /// pixel); pool stages carry no weights and run per token. A conv
    /// stage whose call reaches [`SPLIT_WORK`] runs its bands on idle
    /// cores ([`Stage::process_bands`]).
    pub fn process_batch(&self, inputs: Vec<StageData>) -> Vec<StageData> {
        let plan = self.plan();
        let (frames, (_, oh, _)) = (inputs.len().max(1), plan.out_dims());
        let rows = if splits(&plan, frames) {
            oh.div_ceil(par::cut(frames.saturating_mul(oh)).div_ceil(frames))
        } else {
            oh
        };
        self.process_bands(inputs, rows)
    }

    /// [`Stage::process_batch`] with each conv token cut into bands of
    /// `rows` output rows (the last band may be shorter). A part is one
    /// `(token, band)`: its SWU gather and MVTU pass write only that band's
    /// pixels, so how the bands are cut and which thread runs a part change
    /// no bit. Pool and dense stages ignore `rows`.
    // Buffer sizes are products of the stage's own dims and the batch
    // size, far below overflow for any network that fits in memory.
    #[allow(clippy::arithmetic_side_effects)]
    pub fn process_bands(&self, inputs: Vec<StageData>, rows: usize) -> Vec<StageData> {
        if inputs.is_empty() {
            return Vec::new();
        }
        let plan = self.plan();
        let split = splits(&plan, inputs.len());
        match self {
            Stage::ConvFixed {
                name,
                mvtu,
                k,
                in_dims,
            } => {
                let maps: Vec<QuantMap> = inputs
                    .into_iter()
                    .map(|t| {
                        let q = t.expect_quant(name);
                        assert_eq!(
                            (q.c, q.h, q.w),
                            *in_dims,
                            "stage '{name}' input dims mismatch"
                        );
                        q
                    })
                    .collect();
                let row_values = out_dim(in_dims.2, *k) * mvtu.cols();
                let scratch = |band: Range<usize>| vec![0; band.len() * row_values];
                conv_bands(
                    &plan,
                    maps.len(),
                    rows,
                    split,
                    scratch,
                    |windows, f, band, out| {
                        let windows = &mut windows[..band.len() * row_values];
                        windows_quant_into(&maps[f], *k, band, windows);
                        mvtu.threshold_bits_into(windows, out);
                    },
                )
            }
            Stage::ConvBinary {
                name,
                mvtu,
                k,
                in_dims,
            } => {
                let maps: Vec<BinMap> = inputs
                    .into_iter()
                    .map(|t| {
                        let b = t.expect_bits(name);
                        assert_eq!(
                            (b.c, b.h, b.w),
                            *in_dims,
                            "stage '{name}' input dims mismatch"
                        );
                        b
                    })
                    .collect();
                let windows = mvtu.threshold_windows();
                let ow = out_dim(in_dims.2, *k);
                let scratch =
                    |band: Range<usize>| BitPlaneBlock::zeros(band.len() * ow, mvtu.cols());
                conv_bands(
                    &plan,
                    maps.len(),
                    rows,
                    split,
                    scratch,
                    |block, f, band, out| {
                        windows_binary_into(&maps[f], *k, band, block);
                        mvtu.threshold_bits_block_into(&windows, block, out);
                    },
                )
            }
            Stage::PoolOr { name, k, in_dims } => inputs
                .into_iter()
                .map(|t| {
                    let b = t.expect_bits(name);
                    assert_eq!(
                        (b.c, b.h, b.w),
                        *in_dims,
                        "stage '{name}' input dims mismatch"
                    );
                    StageData::Bits(or_pool(&b, *k))
                })
                .collect(),
            Stage::DenseBinary { name, mvtu } => {
                let maps: Vec<BinMap> = inputs.into_iter().map(|t| t.expect_bits(name)).collect();
                let flats: Vec<&BitVec64> = maps.iter().map(BinMap::as_bits).collect();
                let per = words_for(mvtu.rows());
                let mut out = vec![0; maps.len() * per];
                mvtu.threshold_bits_block_into(
                    &mvtu.threshold_windows(),
                    &pack_for(name, mvtu, &flats),
                    &mut out,
                );
                (0..maps.len())
                    .map(|f| {
                        let bits =
                            BitVec64::from_words(mvtu.rows(), out[f * per..][..per].to_vec());
                        StageData::Bits(BinMap::from_bits(mvtu.rows(), 1, 1, bits))
                    })
                    .collect()
            }
            Stage::DenseLogits { name, mvtu } => {
                let maps: Vec<BinMap> = inputs.into_iter().map(|t| t.expect_bits(name)).collect();
                let flats: Vec<&BitVec64> = maps.iter().map(BinMap::as_bits).collect();
                mvtu.accumulate_block(&pack_for(name, mvtu, &flats))
                    .into_iter()
                    .map(StageData::Logits)
                    .collect()
            }
        }
    }
}

/// Work of one frame through a stage, in element operations: for every
/// window, a binary conv stage's SWU copies fan-in bits (in word runs)
/// and its XNOR pass reads `rows × ⌈fan-in/64⌉` words; the fixed-point
/// first layer multiply-adds `rows × fan-in` values. Pool and dense stages
/// never split: 0.
pub fn frame_work(plan: &StagePlan) -> usize {
    let per_window = match plan.kind {
        StageKind::ConvFixed => plan.rows.saturating_mul(plan.cols),
        StageKind::ConvBinary => plan
            .rows
            .saturating_mul(words_for(plan.cols))
            .saturating_add(plan.cols),
        StageKind::Pool | StageKind::DenseBinary | StageKind::DenseLogits => 0,
    };
    plan.vectors.saturating_mul(per_window)
}

/// Whether a call on `frames` tokens reaches [`SPLIT_WORK`].
fn splits(plan: &StagePlan, frames: usize) -> bool {
    frame_work(plan).saturating_mul(frames) >= SPLIT_WORK
}

/// [`frame_work`] × frames at and above which a conv stage call runs its
/// bands on idle cores; below it the call runs inline and starts no
/// thread.
///
/// Priced on one core of a 2-vCPU Xeon (`taskset -c 0`, traced `gate_cnv`
/// replay), the bit-by-bit SWU and the word-run SWU measured side by side:
/// a first-layer multiply-add costs 2.2–2.4 ns; a binary conv unit (a
/// window bit or an XNOR word) cost 3.4 ns while the SWU gathered bit by
/// bit and costs 0.59 ns with word runs (CNV conv2: 903 k units in
/// 0.53 ms; conv3–conv6: 658 k in 0.39 ms). The model prices a unit like
/// a multiply-add, about 4× what it costs, which only errs towards
/// splitting binary conv stages; pricing it twice that again (conv4 then
/// splits at one frame too) read 2 wins in 6 paired `gate_cnv` runs,
/// medians 461 against 460 frames/s, so the price and the threshold stay.
/// A back-to-back split costs ≈ 50 µs (fork and join), waking an idle
/// vCPU ≈ 100–170 µs (`bcp_tensor::par::INLINE_BELOW`).
///
/// Which conv stages split: CNV conv1 (1.56 M) and conv2 (903 k) at one
/// frame; at B = 8 also conv3 (249 k a frame) and conv4 (346 k), not conv5
/// (52 k) or conv6. n-CNV: none at one frame (conv1, 389 k, is its
/// largest); at B = 8 conv1 and conv2 (151 k a frame). The 16×16 serving
/// net stays under it at the engine's largest batch of 8 (conv1: 339 k),
/// so its engine and gateway never fork.
pub const SPLIT_WORK: usize = 1 << 19;

/// Run a conv stage's parts — one `(frame, band of output rows)` each —
/// into one output map per frame. Each worker has its own scratch, made by
/// `scratch(0..rows)` (room for a full band) on this thread before any
/// fork; `body(scratch, frame, rows, out)` writes the band's pixels,
/// `words_for(channels)` words each, into `out`, its own slice of its
/// frame's buffer, allocated here. With `split`, the parts run on idle
/// cores through `bcp_tensor::par`; otherwise inline.
// Offsets and sizes are products of the stage's dims and the batch size,
// as in `process_bands`.
#[allow(clippy::arithmetic_side_effects)]
fn conv_bands<S: Send>(
    plan: &StagePlan,
    frames: usize,
    rows: usize,
    split: bool,
    scratch: impl Fn(Range<usize>) -> S,
    body: impl Fn(&mut S, usize, Range<usize>, &mut [u64]) + Sync,
) -> Vec<StageData> {
    let (channels, oh, ow) = plan.out_dims();
    let per = words_for(channels);
    let rows = rows.clamp(1, oh.max(1));
    let mut out: Vec<Vec<u64>> = (0..frames).map(|_| vec![0u64; oh * ow * per]).collect();
    let parts: Vec<(usize, Range<usize>, &mut [u64])> = out
        .iter_mut()
        .enumerate()
        .flat_map(|(f, frame)| {
            frame
                .chunks_mut((rows * ow * per).max(1))
                .enumerate()
                .map(move |(b, px)| (f, b * rows..(b * rows + rows).min(oh), px))
        })
        .collect();
    let workers = if split { par::workers(parts.len()) } else { 1 };
    par::join_with(
        parts.into_iter(),
        std::iter::repeat_with(|| scratch(0..rows)).take(workers),
        |s, (f, band, px)| body(s, f, band, px),
    );
    out.into_iter()
        .map(|px| StageData::Bits(map_from_pixels(channels, oh, ow, px)))
        .collect()
}

/// Pack a stage's input vectors into one block, checking the fan-in.
fn pack_for(name: &str, mvtu: &BinaryMvtu, vectors: &[&BitVec64]) -> BitPlaneBlock {
    let block = BitPlaneBlock::pack_refs(vectors);
    assert_eq!(
        block.bits(),
        mvtu.cols(),
        "stage '{name}' input length {} vs fan-in {}",
        block.bits(),
        mvtu.cols()
    );
    block
}

/// A conv stage's `oh × ow` output map from its per-pixel channel words,
/// `words_for(channels)` a pixel, output pixels row-major. With whole
/// words of channels that buffer already is the channel-last map and is
/// moved in; otherwise each pixel's `channels` bits are shift-merged onto
/// the previous pixel's.
// Sizes are the stage's own dims, as in `process_bands`.
#[allow(clippy::arithmetic_side_effects)]
fn map_from_pixels(channels: usize, oh: usize, ow: usize, pixels: Vec<u64>) -> BinMap {
    let len = channels * oh * ow;
    if channels.is_multiple_of(WORD_BITS) {
        return BinMap::from_bits(channels, oh, ow, BitVec64::from_words(len, pixels));
    }
    let mut words = vec![0u64; words_for(len)];
    let mut dst = BitWriter::new(words.iter_mut());
    for px in pixels.chunks_exact(words_for(channels).max(1)) {
        for (off, &w) in (0..channels).step_by(WORD_BITS).zip(px) {
            dst.push(w, (channels - off).min(WORD_BITS));
        }
    }
    dst.finish();
    BinMap::from_bits(channels, oh, ow, BitVec64::from_words(len, words))
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
        let plan: Vec<StagePlan> = stages.iter().map(Stage::plan).collect();
        assert!(
            plan[0].kind == StageKind::ConvFixed,
            "first stage must consume the quantized camera input"
        );
        for pair in plan.windows(2) {
            let (prev, cur) = (&pair[0], &pair[1]);
            let (c, h, w) = prev.out_dims();
            assert_eq!(
                c.saturating_mul(h).saturating_mul(w),
                cur.in_count(),
                "stage '{}' output {}×{}×{} does not feed stage '{}' (expects {} elements)",
                prev.name,
                c,
                h,
                w,
                cur.name,
                cur.in_count()
            );
        }
        for (i, p) in plan.iter().enumerate() {
            let is_last = i.saturating_add(1) == plan.len();
            assert_eq!(
                p.kind == StageKind::DenseLogits,
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

    /// Run one frame through every stage; returns the class logits. A
    /// batch of one through [`Pipeline::forward_batch`].
    pub fn forward(&self, input: &QuantMap) -> Vec<i64> {
        self.forward_batch(std::slice::from_ref(input))
            .pop()
            .expect("forward_batch returns one logits vector per frame")
    }

    /// Run a group of frames through every stage as one micro-batch via
    /// [`Stage::process_batch`]: dense stages stream each weight row once
    /// for the whole group. Returns per-frame logits in input order.
    pub fn forward_batch(&self, inputs: &[QuantMap]) -> Vec<Vec<i64>> {
        // The frame holds this core; a split elsewhere leaves it alone.
        let _frame = par::occupy();
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

    /// Every stage's [`StagePlan`], in dataflow order.
    pub fn plan(&self) -> Vec<StagePlan> {
        self.stages.iter().map(Stage::plan).collect()
    }

    /// Structural description in the layout of Fig. 1: stage kind, dims,
    /// folding, per-frame cycles.
    pub fn describe(&self) -> String {
        let mut s = format!("{} — FINN streaming pipeline\n", self.name);
        s.push_str("  camera → 8-bit quantization →\n");
        for p in self.plan() {
            let (c, h, w) = p.out_dims();
            let kind = match p.kind {
                StageKind::ConvFixed => "SWU→MVTU (fixed-input)",
                StageKind::ConvBinary => "SWU→MVTU (XNOR)",
                StageKind::Pool => "OR-pool",
                StageKind::DenseBinary => "MVTU (XNOR)",
                StageKind::DenseLogits => "MVTU (accumulate)",
            };
            s.push_str(&format!(
                "  {:<10} {:<24} out {c}×{h}×{w}  PE={:<3} SIMD={:<3} cycles/frame={}\n",
                p.name,
                kind,
                p.pe,
                p.simd,
                p.cycles_per_frame().unwrap_or(u64::MAX)
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
        tiny_pipeline_with(all_ones_weights, ge0)
    }

    fn tiny_pipeline_with(
        weights: impl Fn(usize, usize) -> bcp_bitpack::BitMatrix,
        bank: impl Fn(usize) -> ThresholdUnit,
    ) -> Pipeline {
        let conv1 = Stage::ConvFixed {
            name: "conv1".into(),
            mvtu: FixedInputMvtu::new(weights(2, 3 * 9), bank(2), Folding::new(2, 9)),
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
            mvtu: BinaryMvtu::new(weights(5, 8), Some(bank(5)), Folding::new(1, 8)),
        };
        let fc2 = Stage::DenseLogits {
            name: "fc2".into(),
            mvtu: BinaryMvtu::new(weights(4, 5), None, Folding::sequential()),
        };
        Pipeline::new("tiny", vec![conv1, pool1, fc1, fc2])
    }

    /// The tiny geometry with sign-varied weights and a bank mixing Ge and
    /// Le channels, so an oracle comparison can see a misplaced weight.
    fn varied_pipeline() -> Pipeline {
        tiny_pipeline_with(
            |rows, cols| {
                let signs: Vec<f32> = (0..rows * cols)
                    .map(|i| if (i * 7 + rows) % 3 == 0 { -1.0 } else { 1.0 })
                    .collect();
                pack_matrix(rows, cols, &signs)
            },
            |rows| {
                ThresholdUnit::new(
                    (0..rows)
                        .map(|r| match r % 2 {
                            0 => ThresholdChannel::Ge(r as i64 - 1),
                            _ => ThresholdChannel::Le(1),
                        })
                        .collect(),
                )
            },
        )
    }

    /// A binary conv stage between conv1 and the pool: conv1 (3→2 channels,
    /// 8×8 → 6×6), conv2 (2→3 channels, 6×6 → 4×4, windows of 18 bits
    /// over pixel runs of 2 bits), pool to 3×2×2, fc1 over that map (a
    /// 12-bit channel-last input), fc2. Sign-varied weights, mixed bank.
    fn conv_pipeline() -> Pipeline {
        let weights = |rows: usize, cols: usize| {
            let signs: Vec<f32> = (0..rows * cols)
                .map(|i| {
                    if (i * 5 + i / 7 + rows).is_multiple_of(3) {
                        -1.0
                    } else {
                        1.0
                    }
                })
                .collect();
            pack_matrix(rows, cols, &signs)
        };
        let bank = |rows: usize| {
            ThresholdUnit::new(
                (0..rows)
                    .map(|r| match r % 3 {
                        0 => ThresholdChannel::Ge(r as i64 - 2),
                        1 => ThresholdChannel::Le(-1),
                        _ => ThresholdChannel::Ge(3),
                    })
                    .collect(),
            )
        };
        let stages = vec![
            Stage::ConvFixed {
                name: "conv1".into(),
                mvtu: FixedInputMvtu::new(weights(2, 27), bank(2), Folding::new(2, 9)),
                k: 3,
                in_dims: (3, 8, 8),
            },
            Stage::ConvBinary {
                name: "conv2".into(),
                mvtu: BinaryMvtu::new(weights(3, 18), Some(bank(3)), Folding::new(3, 6)),
                k: 3,
                in_dims: (2, 6, 6),
            },
            Stage::PoolOr {
                name: "pool1".into(),
                k: 2,
                in_dims: (3, 4, 4),
            },
            Stage::DenseBinary {
                name: "fc1".into(),
                mvtu: BinaryMvtu::new(weights(5, 12), Some(bank(5)), Folding::new(1, 4)),
            },
            Stage::DenseLogits {
                name: "fc2".into(),
                mvtu: BinaryMvtu::new(weights(4, 5), None, Folding::sequential()),
            },
        ];
        Pipeline::new("conv", stages)
    }

    /// Dense-loop oracle for one tiny-pipeline stage on one token: per-bit
    /// `get`s and `ThresholdUnit::apply` — no packing, no SWU, no blocked
    /// kernel.
    fn oracle(stage: &Stage, token: &StageData) -> StageData {
        let sign = |b: bool| if b { 1i64 } else { -1 };
        let dense = |mvtu: &BinaryMvtu, input: &BinMap| -> Vec<i64> {
            (0..mvtu.rows())
                .map(|r| {
                    (0..mvtu.cols())
                        .map(|i| sign(mvtu.weights().get(r, i)) * sign(input.as_bits().get(i)))
                        .sum()
                })
                .collect()
        };
        match (stage, token) {
            (Stage::ConvFixed { mvtu, k, .. }, StageData::Quant(q)) => {
                let (oh, ow) = (q.h - k + 1, q.w - k + 1);
                let mut out = BinMap::zeros(mvtu.rows(), oh, ow);
                for co in 0..mvtu.rows() {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc = 0i64;
                            for ci in 0..q.c {
                                for ky in 0..*k {
                                    for kx in 0..*k {
                                        let w = mvtu.weights().get(co, (ci * k + ky) * k + kx);
                                        acc += sign(w) * i64::from(q.get(ci, oy + ky, ox + kx));
                                    }
                                }
                            }
                            out.set(co, oy, ox, mvtu.thresholds().apply(co, acc));
                        }
                    }
                }
                StageData::Bits(out)
            }
            // Binary conv weight columns run (ky, kx, channel).
            (Stage::ConvBinary { mvtu, k, .. }, StageData::Bits(b)) => {
                let (oh, ow) = (b.h - k + 1, b.w - k + 1);
                let t = mvtu.thresholds().expect("hidden conv stage thresholds");
                let mut out = BinMap::zeros(mvtu.rows(), oh, ow);
                for co in 0..mvtu.rows() {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc = 0i64;
                            for ky in 0..*k {
                                for kx in 0..*k {
                                    for ci in 0..b.c {
                                        let w = mvtu.weights().get(co, (ky * k + kx) * b.c + ci);
                                        acc += sign(w) * sign(b.get(ci, oy + ky, ox + kx));
                                    }
                                }
                            }
                            out.set(co, oy, ox, t.apply(co, acc));
                        }
                    }
                }
                StageData::Bits(out)
            }
            (Stage::PoolOr { k, .. }, StageData::Bits(b)) => {
                let mut out = BinMap::zeros(b.c, b.h / k, b.w / k);
                for ch in 0..b.c {
                    for oy in 0..b.h / k {
                        for ox in 0..b.w / k {
                            let any = (0..k * k).any(|i| b.get(ch, oy * k + i / k, ox * k + i % k));
                            out.set(ch, oy, ox, any);
                        }
                    }
                }
                StageData::Bits(out)
            }
            (Stage::DenseBinary { mvtu, .. }, StageData::Bits(b)) => {
                let t = mvtu.thresholds().expect("hidden dense stage thresholds");
                let fired = BitVec64::from_bools(&t.apply_all(&dense(mvtu, b)));
                StageData::Bits(BinMap::from_bits(mvtu.rows(), 1, 1, fired))
            }
            (Stage::DenseLogits { mvtu, .. }, StageData::Bits(b)) => {
                StageData::Logits(dense(mvtu, b))
            }
            (stage, token) => panic!("no oracle for {} on {token:?}", stage.name()),
        }
    }

    /// `n` frames of the pipeline's input geometry.
    fn varied_frames(p: &Pipeline, n: usize, stride: usize) -> Vec<QuantMap> {
        let (c, h, w) = p.plan()[0].in_dims;
        (0..n)
            .map(|i| {
                let px: Vec<f32> = (0..c * h * w)
                    .map(|j| (((i * stride + j * 17) % 256) as f32) / 255.0)
                    .collect();
                QuantMap::from_unit_floats(c, h, w, &px)
            })
            .collect()
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
    fn forward_batch_matches_dense_oracle() {
        // Frames with varied content, counts spanning empty, single, a full
        // register block, and ragged tails.
        for p in [tiny_pipeline(), varied_pipeline(), conv_pipeline()] {
            for n in [0usize, 1, 3, 4, 5, 9] {
                let frames = varied_frames(&p, n, 53);
                let want: Vec<Vec<i64>> = frames
                    .iter()
                    .map(|f| {
                        p.stages()
                            .iter()
                            .fold(StageData::Quant(f.clone()), |t, s| oracle(s, &t))
                            .expect_logits("oracle output")
                    })
                    .collect();
                assert_eq!(p.forward_batch(&frames), want, "n={n}");
            }
        }
    }

    #[test]
    fn process_batch_matches_dense_oracle_per_stage() {
        // Drive every stage of the chain with its own batched tokens and
        // pin each intermediate to the oracle's.
        for p in [tiny_pipeline(), varied_pipeline(), conv_pipeline()] {
            let mut batched: Vec<StageData> = varied_frames(&p, 6, 29)
                .into_iter()
                .map(StageData::Quant)
                .collect();
            let mut want = batched.clone();
            for stage in p.stages() {
                batched = stage.process_batch(batched);
                want = want.iter().map(|t| oracle(stage, t)).collect();
                assert_eq!(batched, want, "stage {}", stage.name());
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
