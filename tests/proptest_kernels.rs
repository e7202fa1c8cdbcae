//! Property-based differential tests for the two kernels the whole
//! accelerator rests on, each checked against an independent reference
//! implementation:
//!
//! 1. The register-blocked XNOR-popcount GEMM (`xnor_gemm_block`, the
//!    one binary MVTU kernel) against *both* a naive float matmul over the
//!    same ±1 matrices (`bcp_tensor`) and the dense sign-decode GEMM
//!    (`gemm_naive_signs`), over random shapes and batch sizes spanning
//!    1..=2·BLOCK_LANES — the interleaved bit-plane layout, the 4-wide
//!    unroll, and both ragged tails (frames off the register-block grid,
//!    fan-ins off the 64-lane grid) must never change a single accumulator
//!    bit. PopCnt(XNOR) over packed words and a dot product over ±1 floats
//!    are wildly different code paths that must agree exactly — ±1 integer
//!    dot products are exactly representable in `f32` far beyond any `k`
//!    used here, so the comparison is equality, not tolerance. The
//!    fused-threshold variant is additionally pinned to the unfused
//!    compare over the accumulator's full legal range.
//! 2. The folded integer thresholds (`from_batchnorm`) against the
//!    float batch-norm + sign reference they were folded from, over the
//!    accumulator's entire legal range (paper Eq. 1 / Sec. III-B).
//!
//! Case count honors `PROPTEST_CASES` (CI sets 64); seeds are fixed per
//! test name, so failures replay deterministically.

use bcp_bitpack::pack::pack_matrix;
use bcp_bitpack::threshold::{batchnorm_sign_reference, ThresholdChannel, ThresholdUnit};
use bcp_bitpack::xnor::gemm_naive_signs;
use bcp_bitpack::{xnor_gemm_block, xnor_gemm_block_thresholded, BitPlaneBlock, BLOCK_LANES};
use bcp_tensor::{matmul::matmul_tb, Shape, Tensor};
use proptest::prelude::*;

/// Deterministic ±1 matrix from a seed (LCG; independent of any crate's
/// RNG so the test doesn't share code with either implementation).
fn signs(rows: usize, cols: usize, mut seed: u64) -> Vec<f32> {
    (0..rows * cols)
        .map(|_| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (seed >> 33) & 1 == 0 {
                1.0
            } else {
                -1.0
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn xnor_gemm_bounds_and_parity(
        m in 1usize..5,
        n in 1usize..5,
        k in 1usize..300,
        seed in any::<u64>(),
    ) {
        // Structural invariants independent of the reference: every ±1 dot
        // product over k terms lies in [-k, k] and has k's parity.
        let a = pack_matrix(m, k, &signs(m, k, seed));
        let b = pack_matrix(n, k, &signs(n, k, seed.wrapping_add(7)));
        let frames: Vec<_> = (0..n).map(|f| b.row(f)).collect();
        for acc in xnor_gemm_block(&a, &BitPlaneBlock::pack(&frames)) {
            prop_assert!(acc.unsigned_abs() as usize <= k);
            prop_assert_eq!((acc - k as i32).rem_euclid(2), 0);
        }
    }

    #[test]
    fn blocked_gemm_matches_float_reference_and_naive_signs(
        rows in 1usize..9,
        k in 1usize..260,
        b in 1usize..2 * BLOCK_LANES + 1,
        seed in any::<u64>(),
    ) {
        let w_raw = signs(rows, k, seed);
        let f_raw = signs(b, k, seed ^ 0x9E3779B97F4A7C15);
        let weights = pack_matrix(rows, k, &w_raw);
        let frame_mat = pack_matrix(b, k, &f_raw);
        let frames: Vec<_> = (0..b).map(|f| frame_mat.row(f)).collect();

        // Blocked kernel, out[r·b + f].
        let blocked = xnor_gemm_block(&weights, &BitPlaneBlock::pack(&frames));
        prop_assert_eq!(blocked.len(), rows * b);

        // Reference 1: the float matmul W·Fᵀ (same layout: [r·b + f]).
        let floats = matmul_tb(
            &Tensor::from_vec(Shape::d2(rows, k), w_raw),
            &Tensor::from_vec(Shape::d2(b, k), f_raw),
        );
        for (i, (&got, &want)) in blocked.iter().zip(floats.as_slice()).enumerate() {
            prop_assert_eq!(got as f32, want, "accumulator {} of {}x{} @ B={}", i, rows, k, b);
        }

        // Reference 2: the dense sign-decode GEMM, same layout.
        prop_assert_eq!(&blocked, &gemm_naive_signs(&weights, &frame_mat));
    }

    #[test]
    fn blocked_fused_threshold_matches_unfused_over_full_accumulator_range(
        rows in 1usize..8,
        k in 1usize..200,
        b in 1usize..2 * BLOCK_LANES + 1,
        seed in any::<u64>(),
        gamma in -4.0f64..4.0,
        beta in -4.0f64..4.0,
        mean in -40.0f64..40.0,
        var in 0.0f64..9.0,
    ) {
        let eps = 1e-5f64;
        // A mixed bank: batch-norm-folded channels interleaved with raw
        // Ge/Le/Const channels whose τ sweeps the accumulator's full legal
        // range [-k, k] (including both boundaries), so every comparison
        // direction is exercised at and around equality.
        let channels: Vec<ThresholdChannel> = (0..rows)
            .map(|r| match r % 4 {
                0 => ThresholdChannel::from_batchnorm(gamma, beta, mean, var, eps),
                1 => ThresholdChannel::Ge(-(k as i64) + (r as i64 * 2) % (2 * k as i64 + 1)),
                2 => ThresholdChannel::Le((k as i64) - (r as i64 * 3) % (2 * k as i64 + 1)),
                _ => ThresholdChannel::Const(r % 8 < 4),
            })
            .collect();
        let bank = ThresholdUnit::new(channels);

        let weights = pack_matrix(rows, k, &signs(rows, k, seed));
        let frame_mat = pack_matrix(b, k, &signs(b, k, seed ^ 0xD1B54A32D192ED03));
        let frames: Vec<_> = (0..b).map(|f| frame_mat.row(f)).collect();
        let block = BitPlaneBlock::pack(&frames);

        let fused = xnor_gemm_block_thresholded(&weights, &block, &bank);
        let accs = xnor_gemm_block(&weights, &block);
        prop_assert_eq!(fused.len(), b);
        for (f, out) in fused.iter().enumerate() {
            prop_assert_eq!(out.len(), rows);
            for r in 0..rows {
                let acc = accs[r * b + f] as i64;
                // The accumulator must be legal...
                prop_assert!(acc.unsigned_abs() as usize <= k);
                // ...and the fused bit must equal the unfused compare.
                prop_assert_eq!(
                    out.get(r),
                    bank.apply(r, acc),
                    "frame {} row {} acc {}", f, r, acc
                );
            }
        }
    }

    #[test]
    fn folded_channel_matches_float_batchnorm_sign(
        gamma in -4.0f64..4.0,
        beta in -4.0f64..4.0,
        mean in -40.0f64..40.0,
        var in 0.0f64..9.0,
        k in 1usize..200,
    ) {
        let eps = 1e-5f64;
        let t = ThresholdChannel::from_batchnorm(gamma, beta, mean, var, eps);
        // Exhaust the whole legal accumulator range for a k-term ±1 dot
        // product, not a sample of it.
        for acc in -(k as i64)..=(k as i64) {
            prop_assert_eq!(
                t.apply(acc),
                batchnorm_sign_reference(acc, gamma, beta, mean, var, eps),
                "acc {} under γ={} β={} μ={} σ²={}", acc, gamma, beta, mean, var
            );
        }
    }

    #[test]
    fn folded_unit_matches_reference_per_channel(
        channels in 1usize..17,
        seed in any::<u64>(),
        k in 1usize..150,
    ) {
        // f32 statistics (the deploy path's type) against the f64 reference.
        let raw = signs(4, channels, seed);
        let gamma: Vec<f32> = (0..channels).map(|c| raw[c] * (c as f32 * 0.37 + 0.1)).collect();
        let beta: Vec<f32> = (0..channels).map(|c| raw[channels + c] * (c as f32 * 0.21)).collect();
        let mean: Vec<f32> = (0..channels).map(|c| raw[2 * channels + c] * (c as f32 * 1.7)).collect();
        let var: Vec<f32> = (0..channels).map(|c| 0.05 + c as f32 * 0.33).collect();
        let eps = 1e-5f32;
        let unit = ThresholdUnit::from_batchnorm(&gamma, &beta, &mean, &var, eps);
        for c in 0..channels {
            for acc in [-(k as i64), -1, 0, 1, k as i64] {
                prop_assert_eq!(
                    unit.apply(c, acc),
                    batchnorm_sign_reference(
                        acc,
                        gamma[c] as f64,
                        beta[c] as f64,
                        mean[c] as f64,
                        var[c] as f64,
                        eps as f64,
                    ),
                    "channel {} acc {}", c, acc
                );
            }
        }
    }
}

#[test]
fn blocked_gemm_has_a_known_answer_anchor() {
    // One hand-checked case pins the kernel and its references to ground
    // truth, so the properties above cannot pass by all being wrong the
    // same way. Weight row [+1 -1 +1] against frames [+1 +1 +1] → +1,
    // [-1 -1 -1] → -1, [+1 -1 +1] → +3 (self), and [-1 +1 -1] → -3
    // (complement). Five frames force a ragged second register block.
    let w = pack_matrix(1, 3, &[1.0, -1.0, 1.0]);
    let f = pack_matrix(
        5,
        3,
        &[
            1.0, 1.0, 1.0, //
            -1.0, -1.0, -1.0, //
            1.0, -1.0, 1.0, //
            -1.0, 1.0, -1.0, //
            1.0, 1.0, -1.0,
        ],
    );
    let frames: Vec<_> = (0..5).map(|i| f.row(i)).collect();
    let got = xnor_gemm_block(&w, &BitPlaneBlock::pack(&frames));
    assert_eq!(got, vec![1, -1, 3, -3, -1]);
}
