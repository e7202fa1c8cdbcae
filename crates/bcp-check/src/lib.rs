//! Static model/accelerator verifier for BinaryCoP designs.
//!
//! Everything here runs *before* any weights are packed or hardware stages
//! are constructed: a broken architecture should be rejected with a typed,
//! localized diagnostic — never an `assert!` panic deep inside `deploy()`.
//! Five analyses cooperate, all funnelling into the [`diag`] engine's
//! stable `BCP0xx` codes:
//!
//! 1. **Shape inference** ([`graph`]) — walks the conv trunk and dense head
//!    of an [`Arch`] once, localizing every chain/flatten/head mismatch, and
//!    lays out the hardware stages (`bcp_finn::StagePlan`) `deploy()` builds.
//! 2. **Folding legality** — PE must divide each layer's output neurons and
//!    SIMD its fan-in, and both must be positive.
//! 3. **Cycle budgets** — each stage's cycles/frame (ceiling-division fold
//!    arithmetic, overflow-checked) against the `target_fps` budget.
//! 4. **Rate balance / FIFO deadlock** — the tandem-queue discrete-event
//!    model (`bcp_finn::cyclesim`) replayed on the planned service times;
//!    zero-capacity FIFOs, back-pressure throttling, and starved stages.
//! 5. **Resource & threshold soundness** — the shared Table II estimator
//!    against the device budget, and (for built pipelines) every folded
//!    batch-norm threshold against its accumulator's reachable range.
//!
//! Entry points: [`check_arch`] for a pre-deployment architecture
//! description, [`check_pipeline`] for a built `bcp_finn::Pipeline`; both
//! run the same analyses over a stage plan. `binarycop` re-exports
//! [`Arch`], deploys from [`infer_shapes`]' plan, and drives the rest from
//! the `bcp check` CLI subcommand.

#![forbid(unsafe_code)]
#![warn(clippy::arithmetic_side_effects)]

pub mod analyses;
pub mod audit;
pub mod callgraph;
pub mod diag;
pub mod graph;
pub mod lint;
mod srcmodel;

pub use diag::{Code, Diagnostic, Report, Severity};
pub use graph::{infer_shapes, Arch, ConvLayer, FcLayer, CLASSES, K};

use bcp_finn::device::Device;
use bcp_finn::perf::{ClockModel, CLOCK_100MHZ};
use bcp_finn::pipeline::Pipeline;
use bcp_finn::StagePlan;

/// Knobs for a verification run.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// Device the resource-fit analysis runs against; `None` means the
    /// design's paper target device ([`Arch::target_device`]).
    pub device: Option<Device>,
    /// Frame-rate the cycle-budget analysis must sustain. The paper's
    /// camera scenario needs real-time video, so the default is 30 fps —
    /// far below the ~6400 fps the dimensioned designs reach, but the
    /// budget that *must* hold for the application to work.
    pub target_fps: f64,
    /// Inter-stage FIFO depth for the rate/deadlock analysis.
    pub fifo_depth: usize,
    /// Clock model (100 MHz for every BinaryCoP prototype).
    pub clock: ClockModel,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            device: None,
            target_fps: 30.0,
            fifo_depth: 4,
            clock: CLOCK_100MHZ,
        }
    }
}

/// Statically verify an architecture description. Runs shape inference,
/// folding legality, cycle budgets, rate balance, and resource fit; the
/// returned [`Report`] is clean iff a pipeline may be constructed.
pub fn check_arch(arch: &Arch, cfg: &CheckConfig) -> Report {
    check_plan(&arch.name, infer_shapes(arch), arch.dsp_offload, cfg)
}

/// Statically verify a *built* pipeline: the same folding/cycle/rate/
/// resource analyses as [`check_arch`] (on the plan of the real stages),
/// plus threshold soundness, which needs the folded integer thresholds to
/// exist.
pub fn check_pipeline(pipeline: &Pipeline, dsp_offload: bool, cfg: &CheckConfig) -> Report {
    let mut report = check_plan(pipeline.name(), Ok(pipeline.plan()), dsp_offload, cfg);
    analyses::check_thresholds(pipeline.name(), pipeline, &mut report.diagnostics);
    report
}

/// The analysis sequence both entry points share, over a stage plan or the
/// shape diagnostics that prevented one.
fn check_plan(
    subject: &str,
    plan: Result<Vec<StagePlan>, Vec<Diagnostic>>,
    dsp_offload: bool,
    cfg: &CheckConfig,
) -> Report {
    let target = graph::target_device(dsp_offload);
    let device = cfg.device.unwrap_or(target);
    let mut report = Report::new(subject, device.name, target.name);
    let diags = &mut report.diagnostics;
    analyses::check_config(cfg, diags);

    let plan = match plan {
        Ok(plan) => plan,
        Err(shape_errors) => {
            // Shape errors make the later analyses meaningless.
            diags.extend(shape_errors);
            return report;
        }
    };
    analyses::check_folding(subject, &plan, diags);
    if let Some(service) = analyses::check_cycles(subject, &plan, cfg, diags) {
        analyses::check_rates(subject, &plan, &service, cfg, diags);
    }
    analyses::check_resources(subject, &plan, dsp_offload, &device, &target, diags);
    report
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;
    use bcp_bitpack::pack::pack_matrix;
    use bcp_bitpack::{ThresholdChannel, ThresholdUnit};
    use bcp_finn::device::Z7010;
    use bcp_finn::mvtu::{BinaryMvtu, FixedInputMvtu};
    use bcp_finn::pipeline::Stage;
    use bcp_finn::Folding;

    fn w(r: usize, c: usize) -> bcp_bitpack::BitMatrix {
        pack_matrix(r, c, &vec![1.0f32; r * c])
    }

    fn t(r: usize) -> ThresholdUnit {
        ThresholdUnit::new(vec![ThresholdChannel::Ge(0); r])
    }

    fn toy_pipeline() -> Pipeline {
        Pipeline::new(
            "toy-pipe",
            vec![
                Stage::ConvFixed {
                    name: "conv1".into(),
                    mvtu: FixedInputMvtu::new(w(8, 27), t(8), Folding::new(2, 3)),
                    k: 3,
                    in_dims: (3, 8, 8),
                },
                Stage::ConvBinary {
                    name: "conv2".into(),
                    mvtu: BinaryMvtu::new(w(8, 72), Some(t(8)), Folding::new(4, 8)),
                    k: 3,
                    in_dims: (8, 6, 6),
                },
                Stage::PoolOr {
                    name: "pool1".into(),
                    k: 2,
                    in_dims: (8, 4, 4),
                },
                Stage::DenseBinary {
                    name: "fc1".into(),
                    mvtu: BinaryMvtu::new(w(16, 32), Some(t(16)), Folding::new(2, 8)),
                },
                Stage::DenseLogits {
                    name: "fc2".into(),
                    mvtu: BinaryMvtu::new(w(4, 16), None, Folding::new(1, 4)),
                },
            ],
        )
    }

    #[test]
    fn toy_arch_checks_clean() {
        let spec = crate::graph::toy_arch();
        let report = check_arch(&spec, &CheckConfig::default());
        assert!(report.is_clean(), "{}", report.render_text());
        assert!(report.diagnostics.is_empty(), "{}", report.render_text());
        assert_eq!(report.device, "XC7Z020");
        assert_eq!(report.target_device, "XC7Z020");
    }

    #[test]
    fn toy_pipeline_checks_clean() {
        let report = check_pipeline(&toy_pipeline(), false, &CheckConfig::default());
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn arch_mutations_are_rejected_with_typed_codes() {
        let mut spec = crate::graph::toy_arch();
        spec.pe[1] = 3; // 3 ∤ 8 output channels
        let report = check_arch(&spec, &CheckConfig::default());
        assert!(!report.is_clean());
        assert!(report.has_code(Code::PeNotDivisor));

        let mut spec = crate::graph::toy_arch();
        spec.fcs[0].f_in = 33;
        let report = check_arch(&spec, &CheckConfig::default());
        assert!(report.has_code(Code::FlattenMismatch));
        // Shape errors suppress the downstream analyses entirely.
        assert!(!report.has_code(Code::SimdNotDivisor));
    }

    #[test]
    fn pipeline_threshold_mutation_is_caught() {
        let mut p = toy_pipeline();
        if let Stage::ConvBinary { mvtu, .. } = p.stage_mut(1) {
            // conv2 has 72 inputs: accumulators live in [−72, 72].
            *mvtu = BinaryMvtu::new(
                w(8, 72),
                Some(ThresholdUnit::new(vec![ThresholdChannel::Ge(500); 8])),
                Folding::new(4, 8),
            );
        }
        let report = check_pipeline(&p, false, &CheckConfig::default());
        assert!(report.has_code(Code::ThresholdOutOfRange));
        assert!(!report.is_clean());
    }

    #[test]
    fn device_override_degrades_foreign_overruns_to_warnings() {
        // The toy design fits everything; force a huge one instead.
        let mut spec = crate::graph::toy_arch();
        spec.convs[1].c_out = 512;
        spec.fcs[0].f_in = 512 * 2 * 2;
        spec.pe[1] = 512;
        spec.simd[1] = 72;
        let cfg = CheckConfig {
            device: Some(Z7010),
            ..CheckConfig::default()
        };
        let report = check_arch(&spec, &cfg);
        // Over budget on the Z7010, but the target is the Z7020 → warning.
        assert!(report.has_code(Code::LutOverBudget));
        assert!(report.is_clean(), "{}", report.render_text());
    }
}
