//! Mutation corpus for the static verifier (`bcp-check`).
//!
//! Every test takes one of the three paper architectures (CNV, n-CNV,
//! μ-CNV), flips a single field, and asserts that `check_arch` rejects the
//! mutant with the *expected* stable `BCP0xx` code — not merely "some
//! error". The unmutated seeds must come back clean on both supported
//! devices, so the corpus also pins the verifier's false-positive rate at
//! zero for the designs the paper actually builds.

use bcp_check::{check_arch, check_pipeline, Arch, CheckConfig, Code, Report, Severity};
use bcp_finn::device::{Z7010, Z7020};
use bcp_finn::mvtu::{BinaryMvtu, FixedInputMvtu};
use bcp_finn::pipeline::{Pipeline, Stage};
use bcp_finn::Folding;
use binarycop::arch::ArchKind;

fn spec_of(kind: ArchKind) -> Arch {
    kind.arch()
}

/// Apply `mutate` to a fresh spec of `kind` and assert the checker rejects
/// it with `expected` among its *error*-severity findings.
fn assert_rejected(kind: ArchKind, expected: Code, mutate: impl FnOnce(&mut Arch)) {
    let mut spec = spec_of(kind);
    mutate(&mut spec);
    let report = check_arch(&spec, &CheckConfig::default());
    assert!(
        !report.is_clean(),
        "mutant of {} should have been rejected:\n{}",
        spec.name,
        report.render_text()
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == expected && d.severity == Severity::Error),
        "mutant of {} should carry error {}:\n{}",
        spec.name,
        expected.as_str(),
        report.render_text()
    );
}

// ---------------------------------------------------------------- seeds --

#[test]
fn all_seed_arches_check_clean_on_their_target_device() {
    for kind in ArchKind::ALL {
        let report = check_arch(&spec_of(kind), &CheckConfig::default());
        assert!(report.is_clean(), "{}", report.render_text());
        assert_eq!(
            report.warning_count(),
            0,
            "no warnings expected on the paper target:\n{}",
            report.render_text()
        );
    }
}

#[test]
fn all_seed_arches_check_clean_on_both_devices() {
    // Over-budget findings on a *foreign* device degrade to warnings, so
    // every seed is accepted (exit-0 clean) on the Z7020 and the Z7010.
    for kind in ArchKind::ALL {
        for device in [Z7020, Z7010] {
            let cfg = CheckConfig {
                device: Some(device),
                ..CheckConfig::default()
            };
            let report = check_arch(&spec_of(kind), &cfg);
            assert!(
                report.is_clean(),
                "{} on {}:\n{}",
                spec_of(kind).name,
                device.name,
                report.render_text()
            );
        }
    }
}

#[test]
fn cnv_on_the_smaller_z7010_warns_but_is_not_rejected() {
    let cfg = CheckConfig {
        device: Some(Z7010),
        ..CheckConfig::default()
    };
    let report = check_arch(&spec_of(ArchKind::Cnv), &cfg);
    assert!(report.is_clean(), "{}", report.render_text());
    assert!(
        report.has_code(Code::LutOverBudget),
        "CNV's ~26k LUTs exceed the Z7010's 17600:\n{}",
        report.render_text()
    );
}

// ---------------------------------------------- shape mutations (BCP00x) --

#[test]
fn cnv_conv_chain_break_is_bcp001() {
    assert_rejected(ArchKind::Cnv, Code::ConvChainMismatch, |s| {
        s.convs[1].c_in = 32;
    });
}

#[test]
fn ncnv_conv_chain_break_is_bcp001() {
    assert_rejected(ArchKind::NCnv, Code::ConvChainMismatch, |s| {
        s.convs[2].c_in = 99;
    });
}

#[test]
fn cnv_fc_chain_break_is_bcp002() {
    assert_rejected(ArchKind::Cnv, Code::FcChainMismatch, |s| {
        s.fcs[1].f_in = 256;
    });
}

#[test]
fn cnv_flatten_mismatch_is_bcp003() {
    assert_rejected(ArchKind::Cnv, Code::FlattenMismatch, |s| {
        s.fcs[0].f_in = 512;
    });
}

#[test]
fn ncnv_flatten_mismatch_is_bcp003() {
    assert_rejected(ArchKind::NCnv, Code::FlattenMismatch, |s| {
        s.fcs[0].f_in = 63;
    });
}

#[test]
fn cnv_wrong_head_width_is_bcp004() {
    assert_rejected(ArchKind::Cnv, Code::HeadWidthMismatch, |s| {
        s.fcs[2].f_out = 5;
    });
}

#[test]
fn mucnv_wrong_head_width_is_bcp004() {
    assert_rejected(ArchKind::MicroCnv, Code::HeadWidthMismatch, |s| {
        s.fcs[1].f_out = 2;
    });
}

#[test]
fn cnv_extra_pe_entry_is_bcp005() {
    assert_rejected(ArchKind::Cnv, Code::PeVectorLength, |s| {
        s.pe.push(4);
    });
}

#[test]
fn cnv_missing_simd_entry_is_bcp006() {
    assert_rejected(ArchKind::Cnv, Code::SimdVectorLength, |s| {
        s.simd.pop();
    });
}

#[test]
fn cnv_odd_pool_extent_is_bcp007() {
    // 30 → 28 → 26 → pool on an odd 13×13 feature map.
    assert_rejected(ArchKind::Cnv, Code::OddPoolExtent, |s| {
        s.input_size = 30;
    });
}

#[test]
fn mucnv_pool_after_odd_conv_is_bcp007() {
    // μ-CNV's conv5 emits 3×3; pooling it needs an even extent.
    assert_rejected(ArchKind::MicroCnv, Code::OddPoolExtent, |s| {
        s.convs[4].pool_after = true;
    });
}

#[test]
fn cnv_spatial_underflow_is_bcp008() {
    // 8 → 6 → 4 → pool 2: conv3's 3×3 kernel no longer fits.
    assert_rejected(ArchKind::Cnv, Code::SpatialUnderflow, |s| {
        s.input_size = 8;
    });
}

#[test]
fn mucnv_missing_head_is_bcp009() {
    assert_rejected(ArchKind::MicroCnv, Code::PipelineStructure, |s| {
        s.fcs.clear();
        s.pe.truncate(5);
        s.simd.truncate(5);
    });
}

#[test]
fn mucnv_missing_trunk_is_bcp009() {
    // No conv trunk: the dense head would have to consume the quantized
    // camera image itself, which no stage of the accelerator can do.
    assert_rejected(ArchKind::MicroCnv, Code::PipelineStructure, |s| {
        s.convs.clear();
        s.fcs[0].f_in = 3 * s.input_size * s.input_size;
        s.pe.drain(..5);
        s.simd.drain(..5);
    });
}

// -------------------------------------------- folding mutations (BCP01x) --

#[test]
fn cnv_zero_pe_is_bcp010() {
    assert_rejected(ArchKind::Cnv, Code::ZeroFolding, |s| {
        s.pe[0] = 0;
    });
}

#[test]
fn cnv_zero_simd_is_bcp010() {
    assert_rejected(ArchKind::Cnv, Code::ZeroFolding, |s| {
        s.simd[4] = 0;
    });
}

#[test]
fn cnv_pe_not_dividing_rows_is_bcp011() {
    // conv2 has 64 output channels; 33 ∤ 64.
    assert_rejected(ArchKind::Cnv, Code::PeNotDivisor, |s| {
        s.pe[1] = 33;
    });
}

#[test]
fn ncnv_pe_not_dividing_head_is_bcp011() {
    // fc3 has 4 output neurons; 3 ∤ 4.
    assert_rejected(ArchKind::NCnv, Code::PeNotDivisor, |s| {
        s.pe[8] = 3;
    });
}

#[test]
fn cnv_simd_not_dividing_fanin_is_bcp012() {
    // conv2's fan-in is 64·9 = 576; 30 ∤ 576.
    assert_rejected(ArchKind::Cnv, Code::SimdNotDivisor, |s| {
        s.simd[1] = 30;
    });
}

#[test]
fn ncnv_simd_not_dividing_fanin_is_bcp012() {
    // conv3's fan-in is 16·9 = 144; 15 ∤ 144.
    assert_rejected(ArchKind::NCnv, Code::SimdNotDivisor, |s| {
        s.simd[2] = 15;
    });
}

#[test]
fn mucnv_simd_not_dividing_first_layer_is_bcp012() {
    // conv1's fan-in is 3·9 = 27; 2 ∤ 27.
    assert_rejected(ArchKind::MicroCnv, Code::SimdNotDivisor, |s| {
        s.simd[0] = 2;
    });
}

// --------------------------------- cycle / resource mutations (BCP02x/05x) --

#[test]
fn cnv_fully_sequential_folding_blows_the_cycle_budget_bcp020() {
    // pe = simd = 1 everywhere: conv2 alone needs 64·576·28² ≈ 28.9M
    // cycles/frame, an order of magnitude over the 30 fps budget at 100 MHz.
    assert_rejected(ArchKind::Cnv, Code::CycleBudgetExceeded, |s| {
        for p in s.pe.iter_mut() {
            *p = 1;
        }
        for m in s.simd.iter_mut() {
            *m = 1;
        }
    });
}

#[test]
fn cnv_fully_parallel_conv6_blows_the_lut_budget_bcp050() {
    // 256 PEs × 2304 SIMD lanes is a legal folding but ≈ 3.8M LUTs of
    // synapse fabric — far past the Z7020's 53200.
    assert_rejected(ArchKind::Cnv, Code::LutOverBudget, |s| {
        s.pe[5] = 256;
        s.simd[5] = 2304;
    });
}

#[test]
fn mucnv_widened_conv4_blows_the_dsp_budget_bcp052() {
    // With DSP offload, 32×32 parallelism on conv4 pushes the offloaded
    // popcount lanes past the Z7010's 80 DSP slices.
    assert_rejected(ArchKind::MicroCnv, Code::DspOverBudget, |s| {
        s.pe[3] = 32;
    });
}

// -------------------------------------------------- config gate (BCP030) --

#[test]
fn zero_capacity_fifo_is_bcp030() {
    let cfg = CheckConfig {
        fifo_depth: 0,
        ..CheckConfig::default()
    };
    let report = check_arch(&spec_of(ArchKind::Cnv), &cfg);
    assert!(!report.is_clean());
    assert!(
        report.has_code(Code::FifoDeadlock),
        "{}",
        report.render_text()
    );
}

// --------------------------------------- pipeline-level mutants (BCP04x) --

fn weights(rows: usize, cols: usize) -> bcp_bitpack::BitMatrix {
    bcp_bitpack::pack::pack_matrix(rows, cols, &vec![1.0f32; rows * cols])
}

fn thresholds(rows: usize, tau: i64) -> bcp_bitpack::ThresholdUnit {
    bcp_bitpack::ThresholdUnit::new(vec![bcp_bitpack::ThresholdChannel::Ge(tau); rows])
}

/// A minimal shape-consistent pipeline: 3×4×4 input → 8×2×2 conv →
/// 16-wide hidden dense → 4 logits.
fn tiny_pipeline(
    hidden_thresholds: Option<bcp_bitpack::ThresholdUnit>,
    hidden_tau: i64,
) -> Pipeline {
    let hidden = hidden_thresholds.unwrap_or_else(|| thresholds(16, hidden_tau));
    Pipeline::new(
        "tiny",
        vec![
            Stage::ConvFixed {
                name: "conv1".into(),
                mvtu: FixedInputMvtu::new(weights(8, 27), thresholds(8, 0), Folding::new(2, 3)),
                k: 3,
                in_dims: (3, 4, 4),
            },
            Stage::DenseBinary {
                name: "fc1".into(),
                mvtu: BinaryMvtu::new(weights(16, 32), Some(hidden), Folding::new(2, 8)),
            },
            Stage::DenseLogits {
                name: "fc2".into(),
                mvtu: BinaryMvtu::new(weights(4, 16), None, Folding::new(1, 4)),
            },
        ],
    )
}

#[test]
fn sane_tiny_pipeline_checks_clean() {
    let report = check_pipeline(&tiny_pipeline(None, 0), false, &CheckConfig::default());
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn unreachable_threshold_is_bcp040() {
    // fc1 has 32 binary inputs: its accumulators live in [−32, 32], so a
    // Ge(100) channel is unsatisfiable and the fold that produced it is
    // numerically wrong.
    let report = check_pipeline(&tiny_pipeline(None, 100), false, &CheckConfig::default());
    assert!(!report.is_clean());
    assert!(
        report.has_code(Code::ThresholdOutOfRange),
        "{}",
        report.render_text()
    );
}

#[test]
fn boundary_threshold_is_a_dead_channel_warning_bcp041() {
    // Ge(33) is representable (one past the top of [−32, 32]) but can
    // never fire: the channel is constant-false. Warn, don't reject.
    let report = check_pipeline(&tiny_pipeline(None, 33), false, &CheckConfig::default());
    assert!(report.is_clean(), "{}", report.render_text());
    assert!(
        report.has_code(Code::DeadThresholdChannel),
        "{}",
        report.render_text()
    );
}

#[test]
fn missing_hidden_thresholds_is_bcp042() {
    let mut p = tiny_pipeline(None, 0);
    if let Stage::DenseBinary { mvtu, .. } = p.stage_mut(1) {
        *mvtu = BinaryMvtu::new(weights(16, 32), None, Folding::new(2, 8));
    }
    let report = check_pipeline(&p, false, &CheckConfig::default());
    assert!(!report.is_clean());
    assert!(
        report.has_code(Code::MissingThresholds),
        "{}",
        report.render_text()
    );
}

#[test]
fn thresholded_logits_layer_is_bcp043() {
    let mut p = tiny_pipeline(None, 0);
    if let Stage::DenseLogits { mvtu, .. } = p.stage_mut(2) {
        *mvtu = BinaryMvtu::new(weights(4, 16), Some(thresholds(4, 0)), Folding::new(1, 4));
    }
    let report = check_pipeline(&p, false, &CheckConfig::default());
    // Binarizing the head discards logit magnitudes — suspicious but
    // still executable, so it is a warning, not a rejection.
    assert!(report.is_clean(), "{}", report.render_text());
    assert!(
        report.has_code(Code::ExtraThresholds),
        "{}",
        report.render_text()
    );
}

// ------------------------------------------------------ documentation --

#[test]
fn readme_documents_every_diagnostic_code() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md readable");
    for code in Code::ALL {
        assert!(
            readme.contains(code.as_str()),
            "README error-code table is missing {} ({})",
            code.as_str(),
            code.describe()
        );
    }
}

// ------------------------------------------------------- serialization --

#[test]
fn json_report_round_trips_with_stable_codes() {
    let mut spec = spec_of(ArchKind::Cnv);
    spec.pe[1] = 33;
    spec.fcs[2].f_out = 5;
    let report = check_arch(&spec, &CheckConfig::default());
    assert!(!report.is_clean());

    let json = serde_json::to_string(&report).expect("report serializes");
    // Codes and severities are stable strings, not enum ordinals.
    assert!(json.contains("\"BCP004\""), "{json}");
    assert!(json.contains("\"error\""), "{json}");

    let back: Report = serde_json::from_str(&json).expect("report deserializes");
    assert_eq!(back.subject, report.subject);
    assert_eq!(back.device, report.device);
    assert_eq!(back.diagnostics.len(), report.diagnostics.len());
    for (a, b) in back.diagnostics.iter().zip(&report.diagnostics) {
        assert_eq!(a.code, b.code);
        assert_eq!(a.severity, b.severity);
        assert_eq!(a.location, b.location);
        assert_eq!(a.message, b.message);
    }
}
