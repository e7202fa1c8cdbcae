//! Trained network → FINN pipeline export.
//!
//! This is the software half of the paper's hardware-software co-design:
//! latent weights binarize into packed bit matrices (Eq. 1/2), each
//! batch-norm folds into an integer threshold bank (Sec. III-A), max-pools
//! become OR-pool stages, and every MVTU receives its Table I PE/SIMD
//! folding. The first conv stage consumes 8-bit camera pixels, so its
//! thresholds absorb the ×255 input scale. Binary maps travel channel-last
//! (`bcp_finn::BinMap`), so the weight columns of every stage that reads
//! one are reordered to match once, here.

use crate::arch::Arch;
use bcp_bitpack::bitvec64::{words_for, WORD_BITS};
use bcp_bitpack::pack::{pack_matrix, sign_bit};
use bcp_bitpack::{BitMatrix, ThresholdUnit};
use bcp_finn::mvtu::{BinaryMvtu, FixedInputMvtu};
use bcp_finn::threshold::scaled_threshold_unit;
use bcp_finn::{Folding, Pipeline, Stage, StageKind, StagePlan};
use bcp_nn::batchnorm::{BatchNorm, BN_EPS};
use bcp_nn::conv::Conv2d;
use bcp_nn::linear::Linear;
use bcp_nn::{Sequential, WeightForm};
use bcp_tensor::Tensor;

/// The integer scale of the first stage's accumulators relative to the
/// float network (see `bcp_finn::data::INPUT_SCALE`).
pub const FIRST_LAYER_SCALE: f64 = 255.0;

/// `sign(W)` of the conv or dense layer named `name`, in the layer's own
/// row-major order. FINN maps only bias-free [`WeightForm::Sign`] weights
/// onto XNOR-popcount, so any other form, or a bias, is refused by a panic
/// that names the layer and its form.
pub(crate) fn sign_weight(net: &Sequential, name: &str) -> Tensor {
    let idx = net
        .index_of(name)
        .unwrap_or_else(|| panic!("network has no layer '{name}'"));
    let (form, biased, w) = if let Some(c) = net.layer_as::<Conv2d>(idx) {
        (c.form(), false, c.effective_weight())
    } else if let Some(l) = net.layer_as::<Linear>(idx) {
        (l.form(), l.has_bias(), l.effective_weight())
    } else {
        panic!("layer '{name}' is neither a Conv2d nor a Linear")
    };
    assert!(
        form == WeightForm::Sign && !biased,
        "cannot deploy layer '{name}': its weights are {form:?}{}, and only bias-free Sign \
         weights map onto XNOR-popcount",
        if biased { " with a bias" } else { "" }
    );
    w.into_owned()
}

/// Packed binary weight matrix of an MVTU stage, read from the network
/// layer that carries the stage's name. The float weights' columns run
/// (channel, position) — (channel, ky, kx) for a conv, (channel, y, x) for
/// a dense layer over a flattened map — and the stage reads its input
/// channel-last, so they are packed (position, channel) over `positions`
/// positions ([`pack_channel_last`]).
fn weight_matrix(net: &Sequential, stage: &StagePlan, positions: usize) -> BitMatrix {
    let w = sign_weight(net, &stage.name);
    pack_channel_last(stage.rows, stage.cols, positions, w.as_slice())
}

/// Pack a row-major `rows × cols` float buffer whose columns run
/// (channel, position) into a [`BitMatrix`] whose columns run (position,
/// channel): float column `ch·positions + a` becomes bit `a·C + ch`, with
/// `C = cols / positions`. One sequential pass over each row: the signs of
/// 64 channels collect in one word per position (no branch per weight),
/// and each word is then shift-merged in at bit `a·C + ch₀`. With one
/// position or one channel the order is unchanged and [`pack_matrix`]
/// packs it.
fn pack_channel_last(rows: usize, cols: usize, positions: usize, xs: &[f32]) -> BitMatrix {
    if positions <= 1 || positions >= cols || rows == 0 {
        return pack_matrix(rows, cols, xs);
    }
    assert!(
        cols.is_multiple_of(positions) && xs.len() == rows * cols,
        "{} weights are not {rows} rows of {cols} columns over {positions} positions",
        xs.len()
    );
    let channels = cols / positions;
    let per = words_for(cols);
    let mut words = vec![0u64; rows * per];
    let mut acc = vec![0u64; positions];
    for (row, dst) in xs.chunks_exact(cols).zip(words.chunks_exact_mut(per)) {
        // 64 channels at a time: `block` is their `positions`-float runs.
        for (ch0, block) in (0..)
            .step_by(WORD_BITS)
            .zip(row.chunks(WORD_BITS * positions))
        {
            acc.fill(0);
            for (j, run) in block.chunks_exact(positions).enumerate() {
                for (v, &x) in acc.iter_mut().zip(run) {
                    *v |= u64::from(sign_bit(x)) << j;
                }
            }
            let n = (channels - ch0).min(WORD_BITS);
            for (a, &v) in acc.iter().enumerate() {
                let (i, s) = (
                    (a * channels + ch0) / WORD_BITS,
                    (a * channels + ch0) % WORD_BITS,
                );
                dst[i] |= v << s;
                if s + n > WORD_BITS {
                    dst[i + 1] |= v >> (WORD_BITS - s);
                }
            }
        }
    }
    BitMatrix::from_words(rows, cols, words)
}

/// Threshold bank folded from the batch-norm that follows layer
/// `bn_name`, with the given accumulator scale.
pub fn thresholds_from_bn(net: &Sequential, bn_name: &str, scale: f64) -> ThresholdUnit {
    let idx = net
        .index_of(bn_name)
        .unwrap_or_else(|| panic!("network has no layer '{bn_name}'"));
    let bn = net
        .layer_as::<BatchNorm>(idx)
        .unwrap_or_else(|| panic!("layer '{bn_name}' is not a BatchNorm"));
    scaled_threshold_unit(
        bn.gamma(),
        bn.beta(),
        bn.running_mean(),
        bn.running_var(),
        BN_EPS,
        scale,
    )
}

/// Export a trained BNN as a FINN pipeline, refusing with the checker's
/// typed diagnostics when the architecture's graph is inconsistent.
/// Network/architecture *mismatches* (missing layers, wrong layer kinds)
/// still panic — they are programming errors, not design findings.
///
/// The shape band (`BCP00x`) gates construction; scheduling and resource
/// findings do not, because non-divisor foldings and foreign devices are
/// functionally legal (run [`bcp_check::check_arch`] or `bcp check` for
/// the full verdict).
pub fn try_deploy(net: &Sequential, arch: &Arch) -> Result<Pipeline, Vec<bcp_check::Diagnostic>> {
    let plan = bcp_check::infer_shapes(arch)?;
    Ok(build_pipeline(net, &arch.name, &plan))
}

/// Panicking wrapper over [`try_deploy`] with the checker's rendered
/// diagnostics as the panic message.
pub fn deploy(net: &Sequential, arch: &Arch) -> Pipeline {
    match try_deploy(net, arch) {
        Ok(p) => p,
        Err(diags) => {
            let rendered: Vec<String> = diags.iter().map(|d| d.render()).collect();
            panic!(
                "cannot deploy {}: architecture failed static checks\n{}",
                arch.name,
                rendered.join("\n")
            );
        }
    }
}

/// Build each planned stage from the trained network: the plan carries the
/// geometry and folding, the network the weights and batch-norm statistics
/// (stage `convN`/`fcN` reads layers `convN`/`fcN` and `bn_convN`/`bn_fcN`).
fn build_pipeline(net: &Sequential, name: &str, plan: &[StagePlan]) -> Pipeline {
    let stages = plan
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let name = p.name.clone();
            let folding = Folding::new(p.pe, p.simd);
            let thresholds = |scale| thresholds_from_bn(net, &format!("bn_{}", p.name), scale);
            let conv_weights = |positions| weight_matrix(net, p, positions);
            // A dense stage reads its predecessor's map: `h·w` positions
            // (one behind another dense stage).
            let fc_positions = i
                .checked_sub(1)
                .and_then(|j| plan.get(j))
                .map_or(1, |prev| {
                    let (_, h, w) = prev.out_dims();
                    h * w
                });
            let fc_weights = || weight_matrix(net, p, fc_positions);
            match p.kind {
                // The camera input stays CHW: conv1 keeps its columns.
                StageKind::ConvFixed => Stage::ConvFixed {
                    name,
                    mvtu: FixedInputMvtu::new(
                        conv_weights(1),
                        thresholds(FIRST_LAYER_SCALE),
                        folding,
                    ),
                    k: p.k,
                    in_dims: p.in_dims,
                },
                StageKind::ConvBinary => Stage::ConvBinary {
                    name,
                    mvtu: BinaryMvtu::new(conv_weights(p.k * p.k), Some(thresholds(1.0)), folding),
                    k: p.k,
                    in_dims: p.in_dims,
                },
                StageKind::Pool => Stage::PoolOr {
                    name,
                    k: p.k,
                    in_dims: p.in_dims,
                },
                StageKind::DenseBinary => Stage::DenseBinary {
                    name,
                    mvtu: BinaryMvtu::new(fc_weights(), Some(thresholds(1.0)), folding),
                },
                StageKind::DenseLogits => Stage::DenseLogits {
                    name,
                    mvtu: BinaryMvtu::new(fc_weights(), None, folding),
                },
            }
        })
        .collect();
    Pipeline::new(name, stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchKind;
    use crate::model::{build_bnn, untrained_bnn};
    use bcp_finn::data::QuantMap;
    use bcp_nn::Mode;
    use bcp_tensor::{Shape, Tensor};

    /// An untrained network with non-trivial batch-norm stats, exported.
    fn trained_net_and_pipeline(kind: ArchKind, seed: u64) -> (Sequential, Pipeline) {
        let arch = kind.arch();
        let net = untrained_bnn(&arch, seed, seed + 9);
        let p = deploy(&net, &arch);
        (net, p)
    }

    fn quant_image(seed: u64) -> (QuantMap, Tensor) {
        // An image on the u8 grid plus its normalized float twin.
        let px: Vec<f32> = (0..3 * 32 * 32)
            .map(|i| {
                let q = ((i as u64)
                    .wrapping_mul(seed * 2 + 1)
                    .wrapping_mul(2654435761)
                    >> 24)
                    % 256;
                q as f32 / 255.0
            })
            .collect();
        let qm = QuantMap::from_unit_floats(3, 32, 32, &px);
        let norm: Vec<f32> = px.iter().map(|v| 2.0 * v - 1.0).collect();
        (qm, Tensor::from_vec(Shape::nchw(1, 3, 32, 32), norm))
    }

    /// Float column `ch·P + a` lands on bit `a·C + ch`, for channel counts
    /// on, off and across word boundaries; one position or one channel
    /// keeps the order.
    #[test]
    fn channel_last_packing_moves_every_column() {
        for (rows, channels, positions) in [
            (3, 64, 9),
            (2, 65, 9),
            (4, 130, 4),
            (5, 3, 16),
            (1, 40, 25),
            (2, 7, 1),
            (2, 1, 7),
        ] {
            let cols = channels * positions;
            let xs: Vec<f32> = (0..rows * cols)
                .map(|i| if (i * 7 + i / 3) % 5 < 2 { 0.5 } else { -0.5 })
                .collect();
            let m = pack_channel_last(rows, cols, positions, &xs);
            for r in 0..rows {
                for ch in 0..channels {
                    for a in 0..positions {
                        let want = xs[r * cols + ch * positions + a] >= 0.0;
                        assert_eq!(
                            m.get(r, a * channels + ch),
                            want,
                            "{channels}×{positions}: row {r} ch {ch} a {a}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn deploy_builds_valid_pipelines_for_all_archs() {
        for kind in ArchKind::ALL {
            let (_, p) = trained_net_and_pipeline(kind, 3);
            let (qm, _) = quant_image(1);
            let logits = p.forward(&qm);
            assert_eq!(logits.len(), 4, "{kind:?}");
        }
    }

    #[test]
    fn pipeline_stage_count_matches_arch() {
        let arch = ArchKind::Cnv.arch();
        let (_, p) = trained_net_and_pipeline(ArchKind::Cnv, 5);
        let pools = arch.convs.iter().filter(|c| c.pool_after).count();
        assert_eq!(p.stages().len(), arch.convs.len() + arch.fcs.len() + pools);
    }

    #[test]
    fn deployed_classification_matches_reference_network() {
        // The core co-design claim: the integer XNOR pipeline classifies
        // like the trained float-path BNN. (Bit-exactness against the
        // independent integer evaluator is proven in reference.rs; here we
        // check the float network agrees on classes.)
        let (mut net, p) = trained_net_and_pipeline(ArchKind::NCnv, 7);
        let mut agree = 0usize;
        let n = 24;
        for s in 0..n {
            let (qm, xf) = quant_image(s as u64 + 11);
            let hw_class = p.classify(&qm);
            let logits = net.forward(&xf, Mode::Eval);
            let sw_class = bcp_tensor::ops::argmax(logits.as_slice());
            if hw_class == sw_class {
                agree += 1;
            }
        }
        assert!(
            agree >= n - 1,
            "pipeline and reference network disagree on {}/{n} frames",
            n - agree
        );
    }

    #[test]
    fn first_stage_consumes_quantized_input() {
        let (_, p) = trained_net_and_pipeline(ArchKind::MicroCnv, 2);
        assert!(matches!(p.stages()[0], Stage::ConvFixed { .. }));
        assert!(matches!(
            p.stages().last().unwrap(),
            Stage::DenseLogits { .. }
        ));
    }

    #[test]
    fn folding_choice_never_changes_results() {
        // The PE/SIMD dimensioning is a scheduling decision: deploying the
        // same trained network with completely different foldings must
        // classify identically (only cycles change).
        let arch_a = ArchKind::MicroCnv.arch();
        let mut arch_b = arch_a.clone();
        arch_b.pe = vec![1; arch_b.pe.len()];
        arch_b.simd = vec![1; arch_b.simd.len()];
        let net = untrained_bnn(&arch_a, 13, 14);
        let pa = deploy(&net, &arch_a);
        let pb = deploy(&net, &arch_b);
        for s in 0..4 {
            let (qm, _) = quant_image(s + 77);
            assert_eq!(pa.forward(&qm), pb.forward(&qm));
        }
        // But the timing differs: sequential folding is far slower.
        use bcp_finn::perf::CLOCK_100MHZ;
        assert!(
            CLOCK_100MHZ.analyze(&pb.plan()).initiation_interval
                > CLOCK_100MHZ.analyze(&pa.plan()).initiation_interval
        );
    }

    #[test]
    #[should_panic(expected = "no layer 'conv1'")]
    fn deploy_requires_matching_network() {
        let arch = ArchKind::NCnv.arch();
        let net = Sequential::new("empty");
        deploy(&net, &arch);
    }

    /// FINN has no datapath for float or α-scaled weights: deploy, the
    /// predictor and the integer reference all refuse them at the first
    /// weight layer, naming it and its form.
    #[test]
    fn non_sign_weights_are_refused_naming_the_layer() {
        use crate::model::{build_bnn_with, build_fp32, ModelOptions};
        use crate::predictor::BinaryCoP;
        use crate::reference::IntegerReference;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let arch = crate::recipe::tiny_arch();
        let scaled = ModelOptions {
            weights: WeightForm::ScaledSign,
            ..ModelOptions::default()
        };
        for (net, form) in [
            (build_bnn_with(&arch, 1, scaled), "ScaledSign"),
            (build_fp32(&arch, 1), "Float"),
        ] {
            let attempts: [(&str, &dyn Fn()); 3] = [
                ("try_deploy", &|| drop(try_deploy(&net, &arch))),
                ("from_trained", &|| {
                    drop(BinaryCoP::from_trained(&net, &arch))
                }),
                ("from_network", &|| {
                    drop(IntegerReference::from_network(&net, &arch))
                }),
            ];
            for (path, attempt) in attempts {
                let err = catch_unwind(AssertUnwindSafe(attempt)).expect_err(path);
                let msg = err.downcast_ref::<String>().map_or("", String::as_str);
                assert!(
                    msg.contains("layer 'conv1'") && msg.contains(form),
                    "{path} on {form}: {msg}"
                );
            }
        }
    }

    #[test]
    fn try_deploy_refuses_broken_arch_with_diagnostics() {
        let mut arch = ArchKind::NCnv.arch();
        arch.fcs[0].f_in = 65; // no longer the flattened conv output
        let net = build_bnn(&ArchKind::NCnv.arch(), 3);
        let Err(diags) = try_deploy(&net, &arch) else {
            panic!("flatten mismatch must be refused");
        };
        assert!(diags
            .iter()
            .any(|d| d.code == bcp_check::Code::FlattenMismatch));
    }

    #[test]
    fn deployed_seed_pipelines_pass_the_full_static_check() {
        // The tentpole acceptance at pipeline level: every published arch,
        // once deployed, is clean under the complete analysis suite on its
        // paper target device (threshold soundness runs on the real folded
        // thresholds, so the net is briefly trained first).
        for kind in ArchKind::ALL {
            let arch = kind.arch();
            let (_, p) = trained_net_and_pipeline(kind, 11);
            let report =
                bcp_check::check_pipeline(&p, arch.dsp_offload, &bcp_check::CheckConfig::default());
            assert!(report.is_clean(), "{}", report.render_text());
        }
    }
}
