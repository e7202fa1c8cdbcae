//! Analytical resource estimator, calibrated against Table II.
//!
//! Per-stage model:
//!
//! - **LUTs**: `pe·simd·LUT_PER_SYNAPSE` for the XNOR + popcount tree,
//!   `pe·LUT_PER_PE` for accumulator + threshold comparator, a fixed
//!   control overhead per stage, plus distributed-RAM LUTs for weight
//!   buffers too small to justify block RAM.
//! - **BRAM18**: weight partitions of ≥ [`LUTRAM_LIMIT_BITS`] bits per PE
//!   go to block RAM, `pe · ⌈bits/pe / 18Kb⌉` units.
//! - **DSPs**: a fixed infrastructure count plus the first layer's
//!   fixed-point MACs; designs flagged `dsp_offload` (μ-CNV on the Z7010,
//!   OrthrusPE, paper ref 27) additionally move XNOR parallelism into DSP slices.
//!
//! With the constants below the model reproduces Table II within ~12 %
//! (exactly for CNV's LUTs); EXPERIMENTS.md records the deltas.

use crate::device::ResourceUsage;
use crate::folding::Folding;
use crate::pipeline::Pipeline;
use crate::plan::StagePlan;

/// LUTs per synapse-bit of parallelism (XNOR gate + popcount-tree share).
pub const LUT_PER_SYNAPSE: f64 = 6.5;
/// LUTs per PE (accumulator register + threshold comparator).
pub const LUT_PER_PE: f64 = 60.0;
/// Control/stream overhead per stage.
pub const LUT_PER_STAGE: f64 = 200.0;
/// Fixed infrastructure (DMA, input quantizer, AXI).
pub const LUT_BASE: f64 = 4000.0;
/// Weight partitions below this bit count use LUTRAM instead of BRAM.
pub const LUTRAM_LIMIT_BITS: u64 = 4096;
/// LUTs per 64 bits of distributed weight RAM.
pub const LUT_PER_64_LUTRAM_BITS: f64 = 1.0;
/// 18 Kb BRAM capacity in bits.
pub const BRAM18_BITS: u64 = 18 * 1024;
/// Fixed DSP infrastructure.
pub const DSP_BASE: u64 = 6;

/// LUT cost of one MVTU under a folding: XNOR + popcount tree, per-PE
/// accumulator and comparator, stage control. Weight memory is excluded —
/// it is folding-invariant to first order — which is why the DSE prices
/// its candidates with this alone.
pub fn mvtu_luts(f: Folding) -> f64 {
    f.parallelism() as f64 * LUT_PER_SYNAPSE + f.pe as f64 * LUT_PER_PE + LUT_PER_STAGE
}

/// Estimate resources for a pipeline. `dsp_offload` models the
/// OrthrusPE-style XNOR-to-DSP mapping used to fit the Z7010.
pub fn estimate(pipeline: &Pipeline, dsp_offload: bool) -> ResourceUsage {
    estimate_plan(&pipeline.plan(), dsp_offload)
}

/// The resource model over a stage plan — the one estimator both a built
/// pipeline and the pre-deployment static checker are costed with.
/// Requires positive folding factors (gate on `BCP010` first).
pub fn estimate_plan(plan: &[StagePlan], dsp_offload: bool) -> ResourceUsage {
    let mut luts = LUT_BASE;
    let mut bram18 = 0u64;
    let mut total_parallelism = 0u64;
    let mut first_layer_pe = 0u64;

    for (i, stage) in plan.iter().enumerate() {
        if !stage.is_compute() {
            luts += LUT_PER_STAGE / 2.0; // pooling is a trivial OR tree
            continue;
        }
        let f = Folding {
            pe: stage.pe,
            simd: stage.simd,
        };
        let bits = stage.weight_bits();
        luts += mvtu_luts(f);
        total_parallelism = total_parallelism.saturating_add(f.parallelism());
        if i == 0 {
            first_layer_pe = f.pe as u64;
        }
        if bits > 0 {
            let per_pe = bits.div_ceil(f.pe as u64);
            if per_pe >= LUTRAM_LIMIT_BITS {
                bram18 = bram18
                    .saturating_add((f.pe as u64).saturating_mul(per_pe.div_ceil(BRAM18_BITS)));
            } else {
                luts += bits as f64 / 64.0 * LUT_PER_64_LUTRAM_BITS;
            }
        }
    }

    let mut dsps = DSP_BASE.saturating_add(first_layer_pe);
    let mut final_luts = luts;
    if dsp_offload {
        // Move a share of the XNOR parallelism into DSP48 slices: each
        // slice absorbs ~16 synapse-bits of LUT logic.
        let offload = total_parallelism.div_ceil(16);
        dsps = dsps.saturating_add(offload);
        final_luts -= offload.saturating_mul(16) as f64 * LUT_PER_SYNAPSE * 0.5;
    }

    ResourceUsage {
        luts: final_luts.max(0.0).round() as u64,
        bram18,
        dsps,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;
    use crate::device::{Z7010, Z7020};
    use crate::folding::Folding;
    use crate::mvtu::{BinaryMvtu, FixedInputMvtu};
    use crate::pipeline::Stage;
    use bcp_bitpack::pack::pack_matrix;
    use bcp_bitpack::{ThresholdChannel, ThresholdUnit};

    fn w(r: usize, c: usize) -> bcp_bitpack::BitMatrix {
        pack_matrix(r, c, &vec![1.0f32; r * c])
    }

    fn t(r: usize) -> ThresholdUnit {
        ThresholdUnit::new(vec![ThresholdChannel::Ge(0); r])
    }

    fn small_pipeline(pe: usize, simd: usize) -> Pipeline {
        Pipeline::new(
            "res",
            vec![
                Stage::ConvFixed {
                    name: "conv1".into(),
                    mvtu: FixedInputMvtu::new(
                        w(8, 27),
                        t(8),
                        Folding::new(pe.min(8), simd.min(27)),
                    ),
                    k: 3,
                    in_dims: (3, 8, 8),
                },
                Stage::ConvBinary {
                    name: "conv2".into(),
                    mvtu: BinaryMvtu::new(
                        w(16, 72),
                        Some(t(16)),
                        Folding::new(pe.min(16), simd.min(72)),
                    ),
                    k: 3,
                    in_dims: (8, 6, 6),
                },
                Stage::DenseLogits {
                    name: "fc".into(),
                    mvtu: BinaryMvtu::new(w(4, 16 * 16), None, Folding::sequential()),
                },
            ],
        )
    }

    #[test]
    fn more_parallelism_costs_more_luts() {
        let slow = estimate(&small_pipeline(1, 1), false);
        let fast = estimate(&small_pipeline(8, 16), false);
        assert!(fast.luts > slow.luts, "{fast:?} vs {slow:?}");
    }

    #[test]
    fn small_weights_use_lutram_not_bram() {
        // All weight partitions here are < 4096 bits → zero BRAM.
        let u = estimate(&small_pipeline(1, 1), false);
        assert_eq!(u.bram18, 0);
    }

    #[test]
    fn big_dense_layer_uses_bram() {
        let p = Pipeline::new(
            "big",
            vec![
                Stage::ConvFixed {
                    name: "conv1".into(),
                    mvtu: FixedInputMvtu::new(w(8, 27), t(8), Folding::sequential()),
                    k: 3,
                    in_dims: (3, 8, 8),
                },
                Stage::DenseBinary {
                    name: "fc1".into(),
                    // 8·6·6 = 288 inputs × 512 outputs = 147456 bits ≥ limit.
                    mvtu: BinaryMvtu::new(w(512, 288), Some(t(512)), Folding::new(1, 8)),
                },
                Stage::DenseLogits {
                    name: "fc2".into(),
                    mvtu: BinaryMvtu::new(w(4, 512), None, Folding::sequential()),
                },
            ],
        );
        let u = estimate(&p, false);
        assert!(u.bram18 >= 147456 / BRAM18_BITS, "{u:?}");
    }

    #[test]
    fn dsp_offload_trades_luts_for_dsps() {
        let plain = estimate(&small_pipeline(8, 16), false);
        let off = estimate(&small_pipeline(8, 16), true);
        assert!(off.dsps > plain.dsps);
        assert!(off.luts < plain.luts);
    }

    #[test]
    fn fits_expected_devices() {
        let u = estimate(&small_pipeline(8, 16), false);
        assert!(Z7020.fits(&u));
        assert!(Z7010.fits(&u) || u.luts <= Z7010.luts); // tiny design fits both
    }
}
