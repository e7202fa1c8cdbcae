//! Integer-exact reference evaluator.
//!
//! A second, structurally independent implementation of the deployed
//! network: dense `i8` weights, plain nested loops, no bit packing, no SWU,
//! no folding. Its only shared code with the pipeline is the read of each
//! layer's `sign(W)` and the threshold derivation (itself property-tested
//! against the f64 batch-norm + sign semantics). Exact agreement between this evaluator and
//! [`crate::deploy::deploy`]'s pipeline therefore validates the packing,
//! window gathering, OR-pooling and stage plumbing bit for bit.

use crate::arch::{Arch, K};
use crate::deploy::{sign_weight, thresholds_from_bn, FIRST_LAYER_SCALE};
use bcp_bitpack::ThresholdUnit;
use bcp_finn::data::QuantMap;
use bcp_nn::Sequential;

struct ConvRef {
    c_in: usize,
    c_out: usize,
    pool_after: bool,
    /// Dense ±1 weights, (c_out, c_in, ky, kx) row-major.
    weights: Vec<i8>,
    thresholds: ThresholdUnit,
}

struct FcRef {
    f_in: usize,
    f_out: usize,
    /// Dense ±1 weights, (f_out, f_in) row-major.
    weights: Vec<i8>,
    /// `None` for the logits layer.
    thresholds: Option<ThresholdUnit>,
}

/// The evaluator.
pub struct IntegerReference {
    input_size: usize,
    convs: Vec<ConvRef>,
    fcs: Vec<FcRef>,
}

fn signs_to_i8(values: &[f32]) -> Vec<i8> {
    values
        .iter()
        .map(|&v| if v >= 0.0 { 1i8 } else { -1 })
        .collect()
}

impl IntegerReference {
    /// Extract the deployed form of a trained network.
    pub fn from_network(net: &Sequential, arch: &Arch) -> Self {
        arch.validate();
        let convs = arch
            .convs
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let scale = if i == 0 { FIRST_LAYER_SCALE } else { 1.0 };
                ConvRef {
                    c_in: c.c_in,
                    c_out: c.c_out,
                    pool_after: c.pool_after,
                    weights: signs_to_i8(sign_weight(net, &format!("conv{}", i + 1)).as_slice()),
                    thresholds: thresholds_from_bn(net, &format!("bn_conv{}", i + 1), scale),
                }
            })
            .collect();
        let n_fc = arch.fcs.len();
        let fcs = arch
            .fcs
            .iter()
            .enumerate()
            .map(|(i, f)| FcRef {
                f_in: f.f_in,
                f_out: f.f_out,
                weights: signs_to_i8(sign_weight(net, &format!("fc{}", i + 1)).as_slice()),
                thresholds: (i + 1 < n_fc)
                    .then(|| thresholds_from_bn(net, &format!("bn_fc{}", i + 1), 1.0)),
            })
            .collect();
        IntegerReference {
            input_size: arch.input_size,
            convs,
            fcs,
        }
    }

    /// Evaluate one quantized frame to integer logits.
    pub fn forward(&self, q: &QuantMap) -> Vec<i64> {
        assert_eq!(
            (q.c, q.h, q.w),
            (self.convs[0].c_in, self.input_size, self.input_size),
            "input dims mismatch"
        );

        // First conv on integer pixels.
        let first = &self.convs[0];
        let mut hw = self.input_size - (K - 1);
        let mut bits = vec![false; first.c_out * hw * hw];
        for co in 0..first.c_out {
            for oy in 0..hw {
                for ox in 0..hw {
                    let mut acc = 0i64;
                    for ci in 0..first.c_in {
                        for ky in 0..K {
                            for kx in 0..K {
                                let w = first.weights[((co * first.c_in + ci) * K + ky) * K + kx];
                                acc += w as i64 * q.get(ci, oy + ky, ox + kx) as i64;
                            }
                        }
                    }
                    bits[(co * hw + oy) * hw + ox] = first.thresholds.apply(co, acc);
                }
            }
        }
        if first.pool_after {
            bits = or_pool_bools(&bits, first.c_out, hw);
            hw /= 2;
        }

        // Hidden binary convs.
        for conv in &self.convs[1..] {
            let out_hw = hw - (K - 1);
            let mut out = vec![false; conv.c_out * out_hw * out_hw];
            for co in 0..conv.c_out {
                for oy in 0..out_hw {
                    for ox in 0..out_hw {
                        let mut acc = 0i64;
                        for ci in 0..conv.c_in {
                            for ky in 0..K {
                                for kx in 0..K {
                                    let w = conv.weights[((co * conv.c_in + ci) * K + ky) * K + kx];
                                    let b = bits[(ci * hw + oy + ky) * hw + ox + kx];
                                    acc += w as i64 * if b { 1 } else { -1 };
                                }
                            }
                        }
                        out[(co * out_hw + oy) * out_hw + ox] = conv.thresholds.apply(co, acc);
                    }
                }
            }
            bits = out;
            hw = out_hw;
            if conv.pool_after {
                bits = or_pool_bools(&bits, conv.c_out, hw);
                hw /= 2;
            }
        }

        // Dense head on the flattened (CHW-order) bits.
        let mut features = bits;
        for fc in &self.fcs {
            assert_eq!(features.len(), fc.f_in, "flatten mismatch");
            let mut accs = vec![0i64; fc.f_out];
            for (o, acc) in accs.iter_mut().enumerate() {
                for (i, &b) in features.iter().enumerate() {
                    let w = fc.weights[o * fc.f_in + i];
                    *acc += w as i64 * if b { 1 } else { -1 };
                }
            }
            match &fc.thresholds {
                Some(t) => {
                    features = accs
                        .iter()
                        .enumerate()
                        .map(|(c, &a)| t.apply(c, a))
                        .collect();
                }
                None => return accs,
            }
        }
        unreachable!("last FC must be the logits layer");
    }

    /// Argmax classification (first index on ties, like the pipeline).
    pub fn classify(&self, q: &QuantMap) -> usize {
        let logits = self.forward(q);
        let mut best = 0usize;
        for (i, &v) in logits.iter().enumerate() {
            if v > logits[best] {
                best = i;
            }
        }
        best
    }
}

fn or_pool_bools(bits: &[bool], c: usize, hw: usize) -> Vec<bool> {
    let out_hw = hw / 2;
    let mut out = vec![false; c * out_hw * out_hw];
    for ch in 0..c {
        for oy in 0..out_hw {
            for ox in 0..out_hw {
                let mut any = false;
                for ky in 0..2 {
                    for kx in 0..2 {
                        any |= bits[(ch * hw + oy * 2 + ky) * hw + ox * 2 + kx];
                    }
                }
                out[(ch * out_hw + oy) * out_hw + ox] = any;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchKind;
    use crate::deploy::deploy;
    use crate::model::untrained_bnn;
    use crate::BinaryCoP;
    use bcp_dataset::MaskClass;
    use bcp_finn::data::StageData;
    use bcp_finn::pipeline::{frame_work, SPLIT_WORK};
    use bcp_tensor::{Shape, Tensor};

    /// A 3×32×32 image on the 8-bit grid `[0, 1]`, CHW order.
    fn unit_pixels(seed: u64) -> Vec<f32> {
        (0..3 * 32 * 32)
            .map(|i| {
                let q = ((i as u64 + 1)
                    .wrapping_mul(seed | 1)
                    .wrapping_mul(0x9E3779B9)
                    >> 20)
                    % 256;
                q as f32 / 255.0
            })
            .collect()
    }

    fn quant_image(seed: u64) -> QuantMap {
        QuantMap::from_unit_floats(3, 32, 32, &unit_pixels(seed))
    }

    /// THE bit-exactness invariant: the packed/folded/streamed pipeline and
    /// this dense-loop evaluator agree on every logit, for every
    /// architecture, multiple random initializations and inputs — through
    /// each single-frame entry (`Stage::process` chained, `Pipeline::forward`,
    /// `BinaryCoP::classify`), all of which are blocks of one.
    #[test]
    fn pipeline_is_bit_exact_against_reference() {
        for kind in ArchKind::ALL {
            let arch = kind.arch();
            for seed in [1u64, 42] {
                let net = untrained_bnn(&arch, seed, seed + 100);
                let predictor = BinaryCoP::from_trained(&net, &arch);
                let pipeline = predictor.pipeline();
                let reference = IntegerReference::from_network(&net, &arch);
                for img_seed in 0..4u64 {
                    let px = unit_pixels(img_seed * 31 + seed);
                    let q = QuantMap::from_unit_floats(3, 32, 32, &px);
                    let want = reference.forward(&q);
                    assert_eq!(
                        pipeline.forward(&q),
                        want,
                        "{kind:?} seed {seed} image {img_seed}: logits diverge"
                    );
                    let chained = pipeline
                        .stages()
                        .iter()
                        .fold(StageData::Quant(q.clone()), |t, s| s.process(t));
                    assert_eq!(
                        chained.expect_logits("stage chain"),
                        want,
                        "{kind:?} seed {seed} image {img_seed}: stage chain diverges"
                    );
                    assert_eq!(
                        predictor.classify(&Tensor::from_vec(Shape::d3(3, 32, 32), px)),
                        MaskClass::from_label(reference.classify(&q)),
                        "{kind:?} seed {seed} image {img_seed}: class diverges"
                    );
                }
            }
        }
    }

    /// The batched executor against the oracle directly (not via
    /// `forward`): every paper network, batch sizes on and off the 4-lane
    /// register-block grid.
    #[test]
    fn batched_executor_is_bit_exact_against_reference() {
        for kind in ArchKind::ALL {
            let arch = kind.arch();
            let net = untrained_bnn(&arch, 9, 10);
            let pipeline = deploy(&net, &arch);
            let reference = IntegerReference::from_network(&net, &arch);
            let frames: Vec<QuantMap> = (0..9).map(|s| quant_image(s + 1)).collect();
            let expected: Vec<Vec<i64>> = frames.iter().map(|f| reference.forward(f)).collect();
            for n in [1usize, 3, 4, 5, 9] {
                assert_eq!(
                    pipeline.forward_batch(&frames[..n]),
                    expected[..n],
                    "{kind:?} batch of {n}: logits diverge"
                );
            }
        }
    }

    /// The band split changes no bit: for CNV and n-CNV geometry, at batch
    /// sizes on and off the register-block grid, cutting every conv stage
    /// into bands of every height gives its unsplit output, and the chain
    /// of split stages gives the oracle's logits.
    #[test]
    fn band_split_is_bit_exact_against_reference() {
        for kind in [ArchKind::Cnv, ArchKind::NCnv] {
            let arch = kind.arch();
            let net = untrained_bnn(&arch, 17, 18);
            let pipeline = deploy(&net, &arch);
            let reference = IntegerReference::from_network(&net, &arch);
            let frames: Vec<QuantMap> = (0..9).map(|s| quant_image(s + 40)).collect();
            let expected: Vec<Vec<i64>> = frames.iter().map(|f| reference.forward(f)).collect();
            for n in [1usize, 3, 4, 5, 9] {
                let mut tokens: Vec<StageData> =
                    frames[..n].iter().cloned().map(StageData::Quant).collect();
                for stage in pipeline.stages() {
                    let (_, oh, _) = stage.plan().out_dims();
                    let whole = stage.process_bands(tokens.clone(), oh);
                    for rows in 1..oh {
                        assert_eq!(
                            stage.process_bands(tokens.clone(), rows),
                            whole,
                            "{kind:?} B={n} {}: bands of {rows} rows",
                            stage.name()
                        );
                    }
                    tokens = stage.process_batch(tokens);
                    assert_eq!(tokens, whole, "{kind:?} B={n} {}", stage.name());
                }
                let logits: Vec<Vec<i64>> = tokens
                    .into_iter()
                    .map(|t| t.expect_logits("split chain"))
                    .collect();
                assert_eq!(logits, expected[..n], "{kind:?} B={n}: logits diverge");
            }
        }
    }

    /// Where the split threshold sits: every stage of the 16×16 serving
    /// net stays inline at the engine's largest batch, so `engine_tiny` and
    /// `gateway_tiny` never fork; CNV's conv1 and conv2 split at one frame.
    #[test]
    fn split_threshold_keeps_the_serving_net_inline() {
        let max_batch = bcp_serve::ServeConfig::default().max_batch;
        for plan in crate::recipe::tiny_arch().plan() {
            assert!(
                frame_work(&plan) * max_batch < SPLIT_WORK,
                "tiny {} at B={max_batch}: {} ≥ {SPLIT_WORK}",
                plan.name,
                frame_work(&plan) * max_batch
            );
        }
        let cnv = ArchKind::Cnv.arch().plan();
        for name in ["conv1", "conv2"] {
            let plan = cnv.iter().find(|p| p.name == name).expect("CNV stage");
            assert!(frame_work(plan) >= SPLIT_WORK, "CNV {name} at B=1");
        }
    }

    #[test]
    fn classify_is_argmax_first_on_ties() {
        let arch = ArchKind::MicroCnv.arch();
        let net = untrained_bnn(&arch, 3, 4);
        let reference = IntegerReference::from_network(&net, &arch);
        let q = quant_image(5);
        let logits = reference.forward(&q);
        let c = reference.classify(&q);
        assert!(logits.iter().all(|&v| v <= logits[c]));
    }
}
