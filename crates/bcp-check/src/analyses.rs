//! The verification passes behind [`crate::check_arch`] /
//! [`crate::check_pipeline`]: folding legality, cycle budgets, streaming
//! rate balance, threshold soundness, and device resource fit.
//!
//! Each pass appends [`Diagnostic`]s to a shared list; none panics. They
//! operate on [`StagePlan`]s so the same code runs pre-deployment (from an
//! [`crate::Arch`]) and post-deployment (from a built `Pipeline`).

use crate::diag::{Code, Diagnostic};
use crate::CheckConfig;
use bcp_bitpack::{ThresholdChannel, ThresholdUnit};
use bcp_finn::cyclesim::simulate_service;
use bcp_finn::device::Device;
use bcp_finn::pipeline::{Pipeline, Stage};
use bcp_finn::resource::estimate_plan;
use bcp_finn::StagePlan;

/// Frames fed to the discrete-event rate simulation — enough for the
/// steady state to dominate the fill transient.
const SIM_FRAMES: usize = 64;

/// A compute stage idling more than 15/16 of the initiation interval is
/// reported as starved (matched-throughput dimensioning, Sec. III-B).
const STARVATION_FACTOR: u64 = 16;

/// Stages cheaper than this are never reported as starved (trivial tails
/// like a 4-row logits layer are expected to be fast).
const STARVATION_FLOOR: u64 = 64;

/// Resource utilization above this fraction (but within budget) is
/// reported as [`Code::NearBudget`].
const NEAR_BUDGET_FRACTION: f64 = 0.9;

/// Validate the checker configuration itself (`BCP060`, `BCP030`).
pub fn check_config(cfg: &CheckConfig, diags: &mut Vec<Diagnostic>) {
    if !(cfg.target_fps.is_finite() && cfg.target_fps > 0.0) {
        diags.push(Diagnostic::error(
            Code::InvalidConfig,
            "config.target_fps",
            format!(
                "target fps must be a positive number, got {}",
                cfg.target_fps
            ),
        ));
    }
    if !(cfg.clock.hz.is_finite() && cfg.clock.hz > 0.0) {
        diags.push(Diagnostic::error(
            Code::InvalidConfig,
            "config.clock.hz",
            format!("clock frequency must be positive, got {}", cfg.clock.hz),
        ));
    }
    if cfg.fifo_depth == 0 {
        diags.push(
            Diagnostic::error(
                Code::FifoDeadlock,
                "config.fifo_depth",
                "zero-depth inter-stage FIFOs deadlock on the first AXI handshake: \
                 no stage can ever release a token",
            )
            .with_help("use a depth of at least 1 (the paper's designs use shallow FIFOs)"),
        );
    }
}

/// Folding legality (`BCP010`–`BCP012`): positive factors, PE dividing the
/// output neurons, SIMD dividing the fan-in.
pub fn check_folding(subject: &str, plan: &[StagePlan], diags: &mut Vec<Diagnostic>) {
    // `li` indexes the architecture's `pe`/`simd` vectors: compute layers
    // only, pools skipped.
    for (li, p) in plan.iter().filter(|p| p.is_compute()).enumerate() {
        if p.pe == 0 || p.simd == 0 {
            let which = if p.pe == 0 { "pe" } else { "simd" };
            diags.push(Diagnostic::error(
                Code::ZeroFolding,
                format!("{subject}.{which}[{li}]"),
                format!("{}: folding factors must be positive ({which} = 0)", p.name),
            ));
            continue;
        }
        if !p.rows.is_multiple_of(p.pe) {
            diags.push(
                Diagnostic::error(
                    Code::PeNotDivisor,
                    format!("{subject}.pe[{li}]"),
                    format!(
                        "{}: PE = {} does not divide the {} output neurons; \
                         the last fold pass would run {} idle lanes",
                        p.name,
                        p.pe,
                        p.rows,
                        p.pe.saturating_sub(p.rows.checked_rem(p.pe).unwrap_or(0)),
                    ),
                )
                .with_help(format!("choose a divisor of {}", p.rows)),
            );
        }
        if !p.cols.is_multiple_of(p.simd) {
            diags.push(
                Diagnostic::error(
                    Code::SimdNotDivisor,
                    format!("{subject}.simd[{li}]"),
                    format!(
                        "{}: SIMD = {} does not divide the fan-in of {}",
                        p.name, p.simd, p.cols
                    ),
                )
                .with_help(format!("choose a divisor of {}", p.cols)),
            );
        }
    }
}

/// Per-layer cycle budgets (`BCP020`, `BCP021`). Returns the per-stage
/// service vector when every stage's cycle count is computable — the input
/// to the rate analysis.
pub fn check_cycles(
    subject: &str,
    plan: &[StagePlan],
    cfg: &CheckConfig,
    diags: &mut Vec<Diagnostic>,
) -> Option<Vec<u64>> {
    let mut service = Vec::with_capacity(plan.len());
    let mut computable = true;
    for (i, p) in plan.iter().enumerate() {
        match p.cycles_per_frame() {
            Some(c) => service.push(c),
            None => {
                computable = false;
                // Zero folding already carries its own BCP010.
                if p.pe != 0 && p.simd != 0 {
                    diags.push(Diagnostic::error(
                        Code::CycleOverflow,
                        format!("{subject}.stage[{i}].{}", p.name),
                        "cycles-per-frame arithmetic overflows u64; \
                         the dimensioning is degenerate",
                    ));
                }
            }
        }
    }
    if !computable {
        return None;
    }
    // A frame's fill latency is the stage sum; it must also fit in u64.
    if service
        .iter()
        .try_fold(0u64, |acc, &c| acc.checked_add(c))
        .is_none()
    {
        diags.push(Diagnostic::error(
            Code::CycleOverflow,
            format!("{subject}.pipeline"),
            "summed pipeline latency overflows u64",
        ));
        return None;
    }

    if cfg.target_fps.is_finite() && cfg.target_fps > 0.0 && cfg.clock.hz > 0.0 {
        let budget = cfg.clock.hz / cfg.target_fps;
        for (i, (p, &c)) in plan.iter().zip(&service).enumerate() {
            if c as f64 > budget {
                let li = plan.iter().take(i).filter(|q| q.is_compute()).count();
                diags.push(
                    Diagnostic::error(
                        Code::CycleBudgetExceeded,
                        format!("{subject}.stage.{}", p.name),
                        format!(
                            "{} needs {c} cycles/frame but {} fps at {:.0} MHz \
                             allows only {budget:.0}; the pipeline sustains {:.1} fps",
                            p.name,
                            cfg.target_fps,
                            cfg.clock.hz / 1e6,
                            cfg.clock.hz / c as f64,
                        ),
                    )
                    .with_help(format!(
                        "raise pe[{li}]/simd[{li}] to shrink this stage's fold product"
                    )),
                );
            }
        }
    }
    Some(service)
}

/// Streaming rate balance (`BCP031`, `BCP032`): run the tandem-queue
/// discrete-event model on the service vector and compare against the
/// analytical initiation interval; flag badly starved compute stages.
pub fn check_rates(
    subject: &str,
    plan: &[StagePlan],
    service: &[u64],
    cfg: &CheckConfig,
    diags: &mut Vec<Diagnostic>,
) {
    if cfg.fifo_depth == 0 || service.is_empty() {
        return; // BCP030 already reported by check_config.
    }
    let ii = service.iter().copied().max().unwrap_or(1).max(1);
    let sim = simulate_service(service, SIM_FRAMES, cfg.fifo_depth);
    if sim.measured_ii > ii {
        diags.push(
            Diagnostic::warning(
                Code::BackpressureThroughput,
                format!("{subject}.pipeline"),
                format!(
                    "with depth-{} FIFOs the measured initiation interval is {} cycles \
                     vs the {ii}-cycle analytical bound: back-pressure is throttling",
                    cfg.fifo_depth, sim.measured_ii
                ),
            )
            .with_help("deepen the inter-stage FIFOs"),
        );
    }
    for (p, &c) in plan.iter().zip(service) {
        if p.is_compute() && c > STARVATION_FLOOR && c.saturating_mul(STARVATION_FACTOR) < ii {
            diags.push(
                Diagnostic::info(
                    Code::StageStarved,
                    format!("{subject}.stage.{}", p.name),
                    format!(
                        "{} finishes a frame in {c} cycles but the bottleneck takes {ii}: \
                         it idles more than {}/{} of steady state",
                        p.name,
                        STARVATION_FACTOR.saturating_sub(1),
                        STARVATION_FACTOR,
                    ),
                )
                .with_help("fold this stage down (smaller PE/SIMD) to reclaim resources"),
            );
        }
    }
}

/// Device resource fit (`BCP050`–`BCP053`): cost the plan with the shared
/// estimator and compare against the device budget. Over-budget findings
/// are errors on the design's paper target device and warnings elsewhere —
/// CNV not fitting the Z7010 is expected, CNV not fitting the Z7020 is a
/// broken design.
pub fn check_resources(
    subject: &str,
    plan: &[StagePlan],
    dsp_offload: bool,
    device: &Device,
    target: &Device,
    diags: &mut Vec<Diagnostic>,
) {
    if plan
        .iter()
        .any(|p| p.is_compute() && (p.pe == 0 || p.simd == 0))
    {
        return; // BCP010 already reported; no folding to cost.
    }
    let usage = estimate_plan(plan, dsp_offload);
    let on_target = device.name == target.name;
    let axes = [
        (Code::LutOverBudget, "luts", usage.luts, device.luts),
        (Code::BramOverBudget, "bram18", usage.bram18, device.bram18),
        (Code::DspOverBudget, "dsps", usage.dsps, device.dsps),
    ];
    for (code, what, used, avail) in axes {
        let location = format!("{subject}.resources.{what}");
        if used > avail {
            let message = format!(
                "estimated {used} {what} exceeds the {} budget of {avail}",
                device.name
            );
            let d = if on_target {
                Diagnostic::error(code, location, message)
            } else {
                Diagnostic::warning(code, location, message).with_help(format!(
                    "expected: {subject} targets the {}, not the {}",
                    target.name, device.name
                ))
            };
            diags.push(d);
        } else if used as f64 > avail as f64 * NEAR_BUDGET_FRACTION {
            diags.push(Diagnostic::info(
                Code::NearBudget,
                location,
                format!(
                    "estimated {used} {what} is above {:.0} % of the {} budget ({avail})",
                    NEAR_BUDGET_FRACTION * 100.0,
                    device.name
                ),
            ));
        }
    }
}

/// Threshold soundness (`BCP040`–`BCP043`) over a built pipeline: every
/// folded integer threshold must lie inside the accumulator range its MVTU
/// can actually produce, hidden stages must carry a bank, and the logits
/// stage must not.
///
/// Accumulator ranges follow the MVTU arithmetic in `bcp-finn`: a binary
/// MVTU with fan-in `C` produces values in `[−C, C]`; the fixed-input
/// first layer scales by the 8-bit pixel range to `[−255·C, 255·C]`.
/// `ThresholdChannel::from_batchnorm` rounds outward (`⌈τ⌉`/`⌊τ⌋`), so one
/// value past each end is still representable; anything further can never
/// have come from sound batch-norm folding.
pub fn check_thresholds(subject: &str, pipeline: &Pipeline, diags: &mut Vec<Diagnostic>) {
    for (i, stage) in pipeline.stages().iter().enumerate() {
        let loc = format!("{subject}.stage[{i}].{}", stage.name());
        match stage {
            Stage::ConvFixed { mvtu, .. } => {
                let amax = (mvtu.cols() as i64).saturating_mul(255);
                check_bank(&loc, mvtu.thresholds(), mvtu.rows(), amax, diags);
            }
            Stage::ConvBinary { mvtu, .. } | Stage::DenseBinary { mvtu, .. } => {
                match mvtu.thresholds() {
                    None => diags.push(Diagnostic::error(
                        Code::MissingThresholds,
                        loc,
                        format!(
                            "hidden stage {} has no threshold bank; downstream stages \
                             expect binary activations",
                            stage.name()
                        ),
                    )),
                    Some(t) => check_bank(&loc, t, mvtu.rows(), mvtu.cols() as i64, diags),
                }
            }
            Stage::DenseLogits { mvtu, .. } => {
                if mvtu.thresholds().is_some() {
                    diags.push(Diagnostic::warning(
                        Code::ExtraThresholds,
                        loc,
                        "logits stage carries a threshold bank the hardware never evaluates",
                    ));
                }
            }
            Stage::PoolOr { .. } => {}
        }
    }
}

/// Check one threshold bank against its MVTU's accumulator range
/// `[−amax, amax]`.
fn check_bank(
    loc: &str,
    bank: &ThresholdUnit,
    rows: usize,
    amax: i64,
    diags: &mut Vec<Diagnostic>,
) {
    if bank.len() != rows {
        diags.push(Diagnostic::error(
            Code::MissingThresholds,
            loc.to_owned(),
            format!(
                "threshold bank has {} channels but the MVTU has {rows} output neurons",
                bank.len()
            ),
        ));
        return;
    }
    let hi = amax.saturating_add(1);
    let lo = amax.saturating_neg().saturating_sub(1);
    for (c, ch) in bank.channels().iter().enumerate() {
        let cloc = format!("{loc}.thresholds[{c}]");
        match *ch {
            ThresholdChannel::Const(_) => {} // γ = 0 folds to a constant legitimately
            ThresholdChannel::Ge(tau) => {
                if tau > hi || tau < lo.saturating_add(1) {
                    diags.push(Diagnostic::error(
                        Code::ThresholdOutOfRange,
                        cloc,
                        format!(
                            "threshold ≥ {tau} lies outside the accumulator \
                             range [-{amax}, {amax}]"
                        ),
                    ));
                } else if tau == hi || tau == amax.saturating_neg() {
                    let always = if tau == hi { "never" } else { "always" };
                    diags.push(Diagnostic::warning(
                        Code::DeadThresholdChannel,
                        cloc,
                        format!("threshold ≥ {tau} {always} fires: the channel is constant"),
                    ));
                }
            }
            ThresholdChannel::Le(tau) => {
                if tau < lo || tau > hi.saturating_sub(1) {
                    diags.push(Diagnostic::error(
                        Code::ThresholdOutOfRange,
                        cloc,
                        format!(
                            "threshold ≤ {tau} lies outside the accumulator \
                             range [-{amax}, {amax}]"
                        ),
                    ));
                } else if tau == lo || tau == amax {
                    let always = if tau == lo { "never" } else { "always" };
                    diags.push(Diagnostic::warning(
                        Code::DeadThresholdChannel,
                        cloc,
                        format!("threshold ≤ {tau} {always} fires: the channel is constant"),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;
    use bcp_finn::StageKind;

    fn stage(
        name: &str,
        rows: usize,
        cols: usize,
        vectors: usize,
        pe: usize,
        simd: usize,
    ) -> StagePlan {
        StagePlan {
            name: name.into(),
            kind: StageKind::ConvBinary,
            rows,
            cols,
            vectors,
            pe,
            simd,
            k: 1,
            in_dims: (cols, 1, vectors),
        }
    }

    #[test]
    fn folding_legality_catches_non_divisors_and_zero() {
        let plan = vec![
            stage("conv1", 64, 27, 900, 16, 3),
            stage("conv2", 64, 576, 784, 33, 30),
            stage("conv3", 64, 576, 784, 0, 32),
        ];
        let mut diags = Vec::new();
        check_folding("x", &plan, &mut diags);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::PeNotDivisor && d.location == "x.pe[1]"));
        assert!(diags
            .iter()
            .any(|d| d.code == Code::SimdNotDivisor && d.location == "x.simd[1]"));
        assert!(diags
            .iter()
            .any(|d| d.code == Code::ZeroFolding && d.location == "x.pe[2]"));
        // The clean stage produced nothing.
        assert!(!diags.iter().any(|d| d.location.ends_with("[0]")));
    }

    #[test]
    fn cycle_budget_flags_slow_stages() {
        let cfg = CheckConfig::default(); // 30 fps at 100 MHz → 3.33 M cycles
        let plan = vec![stage("fc1", 1024, 4096, 1, 1, 1)]; // 4.2 M cycles
        let mut diags = Vec::new();
        let service = check_cycles("x", &plan, &cfg, &mut diags).unwrap();
        assert_eq!(service, vec![1024 * 4096]);
        assert!(diags.iter().any(|d| d.code == Code::CycleBudgetExceeded));

        // The same stage folded 64× fits easily.
        let plan = vec![stage("fc1", 1024, 4096, 1, 64, 64)];
        let mut diags = Vec::new();
        check_cycles("x", &plan, &cfg, &mut diags).unwrap();
        assert!(diags.is_empty());
    }

    #[test]
    fn cycle_overflow_is_reported_not_wrapped() {
        let plan = vec![stage("huge", usize::MAX, usize::MAX, usize::MAX, 1, 1)];
        let mut diags = Vec::new();
        assert!(check_cycles("x", &plan, &CheckConfig::default(), &mut diags).is_none());
        assert!(diags.iter().any(|d| d.code == Code::CycleOverflow));
    }

    #[test]
    fn starved_stage_reported_as_info() {
        let plan = vec![
            stage("conv1", 64, 576, 784, 1, 1), // ~28.9 M cycles
            stage("fc1", 512, 256, 1, 64, 64),  // 32 cycles — but under floor
            stage("fc2", 512, 256, 1, 2, 2),    // 32768 cycles — starved
        ];
        let cfg = CheckConfig {
            target_fps: 1.0,
            ..CheckConfig::default()
        };
        let mut diags = Vec::new();
        let service = check_cycles("x", &plan, &cfg, &mut diags).unwrap();
        check_rates("x", &plan, &service, &cfg, &mut diags);
        let starved: Vec<_> = diags
            .iter()
            .filter(|d| d.code == Code::StageStarved)
            .collect();
        assert_eq!(starved.len(), 1);
        assert!(starved[0].location.contains("fc2"));
        assert_eq!(starved[0].severity, crate::Severity::Info);
    }

    #[test]
    fn zero_fifo_depth_is_a_deadlock_error() {
        let cfg = CheckConfig {
            fifo_depth: 0,
            ..CheckConfig::default()
        };
        let mut diags = Vec::new();
        check_config(&cfg, &mut diags);
        assert!(diags.iter().any(|d| d.code == Code::FifoDeadlock));
    }

    #[test]
    fn bad_fps_and_clock_are_config_errors() {
        let cfg = CheckConfig {
            target_fps: 0.0,
            clock: bcp_finn::perf::ClockModel { hz: f64::NAN },
            ..CheckConfig::default()
        };
        let mut diags = Vec::new();
        check_config(&cfg, &mut diags);
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.code == Code::InvalidConfig)
                .count(),
            2
        );
    }

    #[test]
    fn resource_fit_severity_depends_on_target_device() {
        use bcp_finn::device::{Z7010, Z7020};
        // A plan far too big for the Z7010 but fine on the Z7020.
        let plan = vec![
            stage("conv1", 256, 2304, 900, 64, 36),
            stage("fc1", 512, 4096, 1, 8, 64),
        ];
        // Z7010 as *target*: over-budget is an error.
        let mut diags = Vec::new();
        check_resources("x", &plan, false, &Z7010, &Z7010, &mut diags);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::LutOverBudget && d.severity == crate::Severity::Error));
        // Z7010 as a *foreign* device (target Z7020): degrades to a warning.
        let mut diags = Vec::new();
        check_resources("x", &plan, false, &Z7010, &Z7020, &mut diags);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::LutOverBudget && d.severity == crate::Severity::Warning));
        assert!(!diags.iter().any(|d| d.severity == crate::Severity::Error));
    }

    #[test]
    fn threshold_bank_range_analysis() {
        use bcp_bitpack::{ThresholdChannel as T, ThresholdUnit};
        let amax = 16i64; // binary MVTU, 16 inputs
        let bank = ThresholdUnit::new(vec![
            T::Ge(0),       // fine
            T::Ge(17),      // == amax+1: never fires → dead
            T::Ge(100),     // far outside → out of range
            T::Le(-16),     // fine (fires only at −16)
            T::Le(16),      // always fires → dead
            T::Le(-200),    // out of range
            T::Const(true), // γ = 0: fine
        ]);
        let mut diags = Vec::new();
        check_bank("p.stage[1].conv2", &bank, 7, amax, &mut diags);
        let count = |code| diags.iter().filter(|d| d.code == code).count();
        assert_eq!(count(Code::ThresholdOutOfRange), 2);
        assert_eq!(count(Code::DeadThresholdChannel), 2);
        assert!(diags
            .iter()
            .any(|d| d.location == "p.stage[1].conv2.thresholds[2]"));

        // Channel-count mismatch refuses the bank outright.
        let mut diags = Vec::new();
        check_bank("p.stage[1].conv2", &bank, 9, amax, &mut diags);
        assert!(diags.iter().any(|d| d.code == Code::MissingThresholds));
    }

    #[test]
    fn batchnorm_derived_thresholds_cross_check() {
        use bcp_bitpack::ThresholdChannel as T;
        // Sound statistics on a 64-input layer stay in range.
        let ch = T::from_batchnorm(1.0, 0.1, 3.0, 1.0, 1e-5);
        let mut diags = Vec::new();
        let bank = ThresholdUnit::new(vec![ch]);
        check_bank("p.s", &bank, 1, 64, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        // A wildly shifted batch-norm (β = 1000) folds to a threshold no
        // 64-input accumulator can reach.
        let ch = T::from_batchnorm(1.0, 1000.0, 0.0, 1.0, 1e-5);
        let bank = ThresholdUnit::new(vec![ch]);
        let mut diags = Vec::new();
        check_bank("p.s", &bank, 1, 64, &mut diags);
        assert!(diags.iter().any(|d| d.code == Code::ThresholdOutOfRange));
    }
}
