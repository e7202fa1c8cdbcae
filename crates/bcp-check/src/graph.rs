//! The architecture description — one column of the paper's Table I — and
//! the one walk that lays it out as hardware stages.
//!
//! [`Arch`] is the only architecture type in the workspace (`binarycop`
//! re-exports it next to the Table I constructors). [`infer_shapes`] walks
//! its conv trunk and dense head once: every inconsistency becomes a
//! localized [`Diagnostic`] instead of an `assert!`, and a consistent graph
//! yields the [`StagePlan`] per hardware stage that the folding/timing/
//! rate/resource analyses read and that `binarycop::deploy` builds its
//! stages from.

use crate::diag::{Code, Diagnostic};
use bcp_finn::device::{Device, Z7010, Z7020};
use bcp_finn::{StageKind, StagePlan};
use serde::{Deserialize, Serialize};

/// Kernel size shared by every BinaryCoP convolution (stride 1, no padding).
pub const K: usize = 3;
/// Number of output classes.
pub const CLASSES: usize = 4;
/// How much a valid K×K convolution shrinks each spatial extent.
const SHRINK: usize = K - 1;
/// Window positions per input channel (an MVTU's fan-in is `c_in · WINDOW`).
const WINDOW: usize = K * K;

/// One convolutional layer's description.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvLayer {
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// 2×2 max-pool follows this layer.
    pub pool_after: bool,
}

/// One fully-connected layer's description.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FcLayer {
    /// Input features.
    pub f_in: usize,
    /// Output features.
    pub f_out: usize,
}

/// A complete architecture: layer stack + the paper's PE/SIMD vectors.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Arch {
    /// Display name (used in diagnostic locations).
    pub name: String,
    /// Input image edge (32 for all prototypes).
    pub input_size: usize,
    /// Conv trunk, in order. All kernels are [`K`]×[`K`], stride 1, no padding.
    pub convs: Vec<ConvLayer>,
    /// Dense head, in order; the last layer emits the [`CLASSES`] logits.
    pub fcs: Vec<FcLayer>,
    /// PE count per compute layer (convs then FCs) — Table I.
    pub pe: Vec<usize>,
    /// SIMD lanes per compute layer — Table I.
    pub simd: Vec<usize>,
    /// Whether the deployment offloads XNOR logic to DSP blocks
    /// (μ-CNV on the Z7010, OrthrusPE — paper ref 27).
    pub dsp_offload: bool,
}

/// The device a design targets in the paper: the Z7010 for the
/// DSP-offloaded μ-CNV (Sec. IV-A, OrthrusPE), the Z7020 otherwise.
/// Resource overruns on the target are errors; on any other device they
/// are expected and degrade to warnings.
pub(crate) fn target_device(dsp_offload: bool) -> Device {
    if dsp_offload {
        Z7010
    } else {
        Z7020
    }
}

impl Arch {
    /// The device this design targets in the paper.
    pub fn target_device(&self) -> Device {
        target_device(self.dsp_offload)
    }

    /// Validate internal consistency: a conv trunk and a dense head exist,
    /// channel chaining, FC fan-in matching the flattened conv output,
    /// PE/SIMD vector lengths, pool parity. Every inconsistency is reported
    /// as a typed, localized `BCP0xx` diagnostic; `Ok(())` means a pipeline
    /// can be laid out.
    ///
    /// This is the shape-inference band only — scheduling and resource
    /// findings (folding divisibility, cycle budgets, device fit) come from
    /// the full [`crate::check_arch`], which `bcp check` runs; foldings
    /// that don't divide their matrices are functionally legal (the fuzz
    /// suite deploys them), just never used by the published designs.
    pub fn try_validate(&self) -> Result<(), Vec<Diagnostic>> {
        infer_shapes(self).map(drop)
    }

    /// The hardware stages of this architecture ([`infer_shapes`]), for call
    /// sites where a broken architecture is a programming error: panics
    /// with the rendered diagnostics.
    pub fn plan(&self) -> Vec<StagePlan> {
        infer_shapes(self).unwrap_or_else(|diags| {
            let rendered: Vec<String> = diags.iter().map(|d| d.render()).collect();
            panic!(
                "architecture {} failed validation:\n{}",
                self.name,
                rendered.join("\n")
            )
        })
    }

    /// Panicking wrapper over [`Arch::try_validate`].
    pub fn validate(&self) {
        self.plan();
    }

    /// Total binary weight bits (the BNN memory footprint the paper's ×32
    /// claim applies to).
    pub fn weight_bits(&self) -> u64 {
        let matrix = |rows: usize, cols: usize| (rows as u64).saturating_mul(cols as u64);
        let conv = self
            .convs
            .iter()
            .map(|c| matrix(c.c_out, c.c_in.saturating_mul(WINDOW)));
        let fc = self.fcs.iter().map(|f| matrix(f.f_out, f.f_in));
        conv.chain(fc).fold(0, u64::saturating_add)
    }
}

/// Lay an architecture out as hardware stages — the one walk over an
/// [`Arch`], and the only place the conv-shrinks-by-`K − 1` / pool-halves
/// arithmetic and the stage-naming rule live. Every inconsistency it can
/// find in one pass is reported with its location; `Ok` carries the stages
/// in dataflow order, exactly the ones `deploy()` builds.
pub fn infer_shapes(arch: &Arch) -> Result<Vec<StagePlan>, Vec<Diagnostic>> {
    let mut diags = Vec::new();
    let name = &arch.name;

    if arch.fcs.is_empty() {
        diags.push(Diagnostic::error(
            Code::PipelineStructure,
            format!("{name}.fcs"),
            "architecture has no dense head; the final logits layer is mandatory",
        ));
    }
    if arch.convs.is_empty() {
        diags.push(Diagnostic::error(
            Code::PipelineStructure,
            format!("{name}.convs"),
            "architecture has no conv trunk; the first stage must be the \
             fixed-input conv that consumes the quantized camera image",
        ));
    }

    // Conv channel chaining.
    for (i, w) in arch.convs.windows(2).enumerate() {
        if w[0].c_out != w[1].c_in {
            let j = i.saturating_add(1);
            diags.push(
                Diagnostic::error(
                    Code::ConvChainMismatch,
                    format!("{name}.convs[{j}].c_in"),
                    format!(
                        "conv{} emits {} channels but conv{} expects {}",
                        j,
                        w[0].c_out,
                        j.saturating_add(1),
                        w[1].c_in
                    ),
                )
                .with_help(format!("set convs[{j}].c_in = {}", w[0].c_out)),
            );
        }
    }

    // Compute layers take their folding in Table I order; a missing entry
    // reads as 0 and the length checks below reject the architecture.
    let mut foldings = arch.pe.iter().zip(&arch.simd);
    let mut next_folding = || foldings.next().map_or((0, 0), |(&pe, &simd)| (pe, simd));

    // Spatial walk: valid K×K convs shrink by K−1; pools halve.
    let mut plan = Vec::new();
    let mut hw = arch.input_size;
    let mut spatial_ok = true;
    let mut pools = 0usize;
    for (i, conv) in arch.convs.iter().enumerate() {
        let stage = i.saturating_add(1);
        if hw < K {
            diags.push(Diagnostic::error(
                Code::SpatialUnderflow,
                format!("{name}.convs[{i}]"),
                format!("conv{stage} input extent {hw} is below the {K}×{K} kernel"),
            ));
            spatial_ok = false;
            break;
        }
        let in_dims = (conv.c_in, hw, hw);
        hw = hw.saturating_sub(SHRINK);
        let (pe, simd) = next_folding();
        plan.push(StagePlan {
            name: format!("conv{stage}"),
            kind: if i == 0 {
                StageKind::ConvFixed
            } else {
                StageKind::ConvBinary
            },
            rows: conv.c_out,
            cols: conv.c_in.saturating_mul(WINDOW),
            vectors: hw.saturating_mul(hw),
            pe,
            simd,
            k: K,
            in_dims,
        });
        if conv.pool_after {
            if !hw.is_multiple_of(2) {
                diags.push(
                    Diagnostic::error(
                        Code::OddPoolExtent,
                        format!("{name}.convs[{i}].pool_after"),
                        format!("2×2 pool after conv{stage} needs an even extent, got {hw}"),
                    )
                    .with_help("drop the pool or adjust the input size"),
                );
                spatial_ok = false;
                break;
            }
            let in_dims = (conv.c_out, hw, hw);
            hw /= 2;
            pools = pools.saturating_add(1);
            plan.push(StagePlan {
                name: format!("pool{pools}"),
                kind: StageKind::Pool,
                rows: 0,
                cols: 0,
                vectors: hw.saturating_mul(hw),
                pe: 1,
                simd: 1,
                k: 2,
                in_dims,
            });
        }
    }

    // Flattened feature count feeding the dense head (a missing trunk or
    // head already carries its BCP009).
    let flatten = arch.convs.last().zip(arch.fcs.first());
    if let Some((last, fc0)) = flatten.filter(|_| spatial_ok) {
        let last_c = last.c_out;
        let flat = last_c
            .checked_mul(hw)
            .and_then(|v| v.checked_mul(hw))
            .unwrap_or(usize::MAX);
        if fc0.f_in != flat {
            diags.push(
                Diagnostic::error(
                    Code::FlattenMismatch,
                    format!("{name}.fcs[0].f_in"),
                    format!(
                        "conv trunk flattens to {last_c}×{hw}×{hw} = {flat} features \
                         but fc1 expects {}",
                        fc0.f_in
                    ),
                )
                .with_help(format!("set fcs[0].f_in = {flat}")),
            );
        }
    }

    // FC chaining and head width.
    for (i, w) in arch.fcs.windows(2).enumerate() {
        if w[0].f_out != w[1].f_in {
            let j = i.saturating_add(1);
            diags.push(Diagnostic::error(
                Code::FcChainMismatch,
                format!("{name}.fcs[{j}].f_in"),
                format!(
                    "fc{} emits {} features but fc{} expects {}",
                    j,
                    w[0].f_out,
                    j.saturating_add(1),
                    w[1].f_in
                ),
            ));
        }
    }
    let n_fc = arch.fcs.len();
    for (i, fc) in arch.fcs.iter().enumerate() {
        let stage = i.saturating_add(1);
        let is_head = stage == n_fc;
        if is_head && fc.f_out != CLASSES {
            diags.push(Diagnostic::error(
                Code::HeadWidthMismatch,
                format!("{name}.fcs[{i}].f_out"),
                format!(
                    "classifier head emits {} logits but the task has {CLASSES} classes",
                    fc.f_out
                ),
            ));
        }
        let (pe, simd) = next_folding();
        plan.push(StagePlan {
            name: format!("fc{stage}"),
            kind: if is_head {
                StageKind::DenseLogits
            } else {
                StageKind::DenseBinary
            },
            rows: fc.f_out,
            cols: fc.f_in,
            vectors: 1,
            pe,
            simd,
            k: 1,
            in_dims: (fc.f_in, 1, 1),
        });
    }

    // PE/SIMD vector lengths.
    let n_layers = arch.convs.len().saturating_add(n_fc);
    if arch.pe.len() != n_layers {
        diags.push(Diagnostic::error(
            Code::PeVectorLength,
            format!("{name}.pe"),
            format!(
                "PE vector has {} entries for {n_layers} compute layers",
                arch.pe.len()
            ),
        ));
    }
    if arch.simd.len() != n_layers {
        diags.push(Diagnostic::error(
            Code::SimdVectorLength,
            format!("{name}.simd"),
            format!(
                "SIMD vector has {} entries for {n_layers} compute layers",
                arch.simd.len()
            ),
        ));
    }

    if diags.is_empty() {
        Ok(plan)
    } else {
        Err(diags)
    }
}

/// A 2-conv/2-fc toy architecture that is fully consistent (shared test fixture).
#[cfg(test)]
pub(crate) fn toy_arch() -> Arch {
    Arch {
        name: "toy".into(),
        input_size: 8,
        convs: vec![
            ConvLayer {
                c_in: 3,
                c_out: 8,
                pool_after: false,
            },
            ConvLayer {
                c_in: 8,
                c_out: 8,
                pool_after: true,
            },
        ],
        fcs: vec![
            FcLayer {
                f_in: 32,
                f_out: 16,
            },
            FcLayer { f_in: 16, f_out: 4 },
        ],
        pe: vec![2, 4, 2, 1],
        simd: vec![3, 8, 8, 4],
        dsp_offload: false,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;

    #[test]
    fn consistent_spec_plans_all_stages() {
        let plan = infer_shapes(&toy_arch()).unwrap();
        // conv1, conv2, pool1, fc1, fc2.
        assert_eq!(plan.len(), 5);
        assert_eq!(plan[0].kind, StageKind::ConvFixed);
        assert_eq!(plan[2].kind, StageKind::Pool);
        assert_eq!(plan[4].kind, StageKind::DenseLogits);
        // 8 → 6 → 4 → pool 2; flat = 8·2·2 = 32 = fc1 fan-in.
        assert_eq!(plan[1].vectors, 16); // 4×4 windows
        assert_eq!(plan[2].vectors, 4); // 2×2 pooled pixels
        assert_eq!(plan[3].cols, 32);
        // Weight bits: conv1 8·27, conv2 8·72, fc1 16·32, fc2 4·16.
        assert_eq!(plan[0].weight_bits(), 8 * 27);
        assert_eq!(plan[2].weight_bits(), 0);
    }

    #[test]
    fn broken_conv_chain_is_localized() {
        let mut s = toy_arch();
        s.convs[1].c_in = 5;
        let diags = infer_shapes(&s).unwrap_err();
        let d = &diags[0];
        assert_eq!(d.code, Code::ConvChainMismatch);
        assert_eq!(d.location, "toy.convs[1].c_in");
        assert!(d.message.contains("8 channels"));
        assert!(d.help.as_deref().unwrap().contains("= 8"));
    }

    #[test]
    fn odd_pool_and_underflow_detected() {
        let mut s = toy_arch();
        s.input_size = 7; // 7→5→3: pool on odd 3.
        let diags = infer_shapes(&s).unwrap_err();
        assert!(diags.iter().any(|d| d.code == Code::OddPoolExtent));

        let mut s = toy_arch();
        s.input_size = 4; // 4→2: below the 3×3 kernel for conv2.
        let diags = infer_shapes(&s).unwrap_err();
        assert!(diags.iter().any(|d| d.code == Code::SpatialUnderflow));
    }

    #[test]
    fn fc_head_checks() {
        let mut s = toy_arch();
        s.fcs[1].f_in = 99;
        let diags = infer_shapes(&s).unwrap_err();
        assert!(diags.iter().any(|d| d.code == Code::FcChainMismatch));

        let mut s = toy_arch();
        s.fcs[1].f_out = 5;
        let diags = infer_shapes(&s).unwrap_err();
        assert!(diags.iter().any(|d| d.code == Code::HeadWidthMismatch));

        let mut s = toy_arch();
        s.fcs[0].f_in = 31;
        let diags = infer_shapes(&s).unwrap_err();
        assert!(diags.iter().any(|d| d.code == Code::FlattenMismatch));
    }

    #[test]
    fn vector_length_checks() {
        let mut s = toy_arch();
        s.pe.pop();
        let diags = infer_shapes(&s).unwrap_err();
        assert!(diags.iter().any(|d| d.code == Code::PeVectorLength));

        let mut s = toy_arch();
        s.simd.push(1);
        let diags = infer_shapes(&s).unwrap_err();
        assert!(diags.iter().any(|d| d.code == Code::SimdVectorLength));
    }

    #[test]
    fn cycles_use_ceiling_division_and_detect_overflow() {
        let p = StagePlan {
            name: "x".into(),
            kind: StageKind::ConvBinary,
            rows: 65,
            cols: 100,
            vectors: 49,
            pe: 16,
            simd: 32,
            k: 3,
            in_dims: (11, 9, 9),
        };
        assert_eq!(p.cycles_per_frame(), Some(5 * 4 * 49));
        let huge = StagePlan {
            rows: usize::MAX,
            cols: usize::MAX,
            vectors: usize::MAX,
            pe: 1,
            simd: 1,
            ..p
        };
        assert_eq!(huge.cycles_per_frame(), None);
    }
}
