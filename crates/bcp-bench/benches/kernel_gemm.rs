//! Register-blocked multi-frame GEMM versus a matvec per frame — the loop
//! it replaced everywhere. The per-frame baseline is local to this bench
//! (a row loop over the public `xnor_dot_words`); the workspace has one
//! binary kernel, the blocked one.
//!
//! The blocked kernel streams each packed weight row once per register
//! block of `BLOCK_LANES` frames instead of once per frame, accumulating
//! `BLOCK_LANES` popcounts per weight word — the software analogue of
//! FINN's SIMD×PE folding (paper Sec. III-B). Two shape regimes are
//! measured, because the win has two different sources:
//!
//! * `kernel_gemm` — a large MVTU layer (4096×9216, ~4.5 MiB of packed
//!   weights) whose matrix spills the L2 cache. Here the single-frame
//!   kernel is memory-bound: it re-streams the whole weight matrix from
//!   L3/DRAM once per frame, while the blocked kernel streams it once per
//!   register block. This group carries the CI-gated entries
//!   (`scripts/bench_gate.py` requires `blocked_fps/B8 ≥ 2× single_fps/B8`).
//! * `kernel_gemm_cnv` — a CNV-class layer (128×1152, 18 KiB) that lives
//!   in L1, where both kernels are popcount-port-bound and the blocked
//!   win is the removed per-row horizontal reductions and, on the fused
//!   path, the removed intermediate accumulator/threshold passes. Reported
//!   as context, not gated: no ≥2× exists at L1-resident shapes.
//!
//! Entry kinds:
//!
//! * `*_fps/B{n}` — frames/s at batch size n (`Throughput::Elements`).
//! * `*_gbps_B8` — effective operand bandwidth (`Throughput::Bytes`,
//!   weight words + activation words actually read per pass). The blocked
//!   kernel touches the weight matrix once per register block, so its
//!   byte count per frame is lower *and* its rate is higher.
//! * `mvtu_*_fps_B8` — operator level: a full per-frame MVTU pass
//!   (matvec → i64 accumulators → threshold dispatch → bit-pack) against
//!   the fused blocked kernel that produces packed bits directly.
//!
//! Frames are pre-packed outside the timed region in both variants: the
//! bit-plane interleave is a per-layer-pass cost amortized over every
//! output row, exactly as `pack_matrix` is for the single-frame path.

use bcp_bitpack::pack::pack_matrix;
use bcp_bitpack::xnor::xnor_dot_words;
use bcp_bitpack::{
    xnor_gemm_block, xnor_gemm_block_thresholded, BitMatrix, BitPlaneBlock, BitVec64, ThresholdUnit,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

fn random_signs(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            if s >> 62 & 1 == 1 {
                1.0
            } else {
                -1.0
            }
        })
        .collect()
}

/// Large-MVTU shape: packed weights (4096 × 9216 / 8 bits ≈ 4.5 MiB)
/// exceed L2 — the memory-bound regime the blocked kernel exists for.
const BIG_ROWS: usize = 4096;
const BIG_K: usize = 9216;

/// CNV dense-layer shape: 128 neurons over a 1152-wide fan-in (conv2-like),
/// fully L1-resident.
const CNV_ROWS: usize = 128;
const CNV_K: usize = 1152;

/// Batch sizes: below, at, and above the register block (B=8 is the gated
/// point).
const BATCHES: [usize; 4] = [1, 4, 8, 16];

fn frames(b: usize, k: usize, seed: u64) -> Vec<BitVec64> {
    let mat = pack_matrix(b, k, &random_signs(b * k, seed));
    (0..b).map(|f| mat.row(f)).collect()
}

/// A mixed-sign threshold bank (τ near 0 so bits split ~50/50 on random
/// inputs — the worst case for the branchy per-channel dispatch).
fn bank(rows: usize) -> ThresholdUnit {
    ThresholdUnit::from_batchnorm(
        &vec![1.0; rows],
        &vec![0.1; rows],
        &vec![0.0; rows],
        &vec![1.0; rows],
        1e-5,
    )
}

/// The single-frame baseline: one weight-matrix sweep per frame, a scalar
/// XNOR-popcount dot product per row.
fn matvec(a: &BitMatrix, x: &BitVec64) -> Vec<i32> {
    assert_eq!(a.cols(), x.len(), "matvec length mismatch");
    (0..a.rows())
        .map(|r| xnor_dot_words(a.row_words(r), x.words(), a.cols()))
        .collect()
}

/// The per-frame MVTU operator: matvec, widen to i64, threshold dispatch
/// per channel, bit-pack.
fn mvtu_single_frame(weights: &BitMatrix, bank: &ThresholdUnit, f: &BitVec64) -> BitVec64 {
    let accs: Vec<i64> = matvec(weights, f).into_iter().map(i64::from).collect();
    let mut out = BitVec64::zeros(accs.len());
    for (i, &a) in accs.iter().enumerate() {
        if bank.apply(i, a) {
            out.set(i, true);
        }
    }
    out
}

fn bench_gated_large(c: &mut Criterion) {
    let weights = pack_matrix(BIG_ROWS, BIG_K, &random_signs(BIG_ROWS * BIG_K, 1));
    let mut group = c.benchmark_group("kernel_gemm");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));

    for b in BATCHES {
        let fs = frames(b, BIG_K, 2 + b as u64);
        let block = BitPlaneBlock::pack(&fs);
        group.throughput(Throughput::Elements(b as u64));
        group.bench_with_input(
            BenchmarkId::new("single_fps", format!("B{b}")),
            &(),
            |ben, _| {
                ben.iter(|| {
                    for f in &fs {
                        std::hint::black_box(matvec(&weights, f));
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("blocked_fps", format!("B{b}")),
            &(),
            |ben, _| ben.iter(|| std::hint::black_box(xnor_gemm_block(&weights, &block))),
        );
    }

    // Effective operand bandwidth at the gated batch size. Weight traffic:
    // the single-frame kernel re-reads the whole weight matrix per frame;
    // the blocked kernel reads it once per register block. Both read every
    // activation word once.
    let b = 8usize;
    let fs = frames(b, BIG_K, 77);
    let block = BitPlaneBlock::pack(&fs);
    let wpf = block.words_per_frame();
    let act_bytes = (b * wpf * 8) as u64;
    group.throughput(Throughput::Bytes(
        (b * BIG_ROWS * wpf * 8) as u64 + act_bytes,
    ));
    group.bench_function("single_gbps_B8", |ben| {
        ben.iter(|| {
            for f in &fs {
                std::hint::black_box(matvec(&weights, f));
            }
        })
    });
    group.throughput(Throughput::Bytes(
        (block.blocks() * BIG_ROWS * wpf * 8) as u64 + act_bytes,
    ));
    group.bench_function("blocked_gbps_B8", |ben| {
        ben.iter(|| std::hint::black_box(xnor_gemm_block(&weights, &block)))
    });

    // Operator level at the gated batch size: the full per-frame pass
    // against the fused kernel (accumulate + threshold + pack in one
    // sweep, no intermediate vectors).
    let t = bank(BIG_ROWS);
    group.throughput(Throughput::Elements(b as u64));
    group.bench_function("mvtu_single_fps_B8", |ben| {
        ben.iter(|| {
            for f in &fs {
                std::hint::black_box(mvtu_single_frame(&weights, &t, f));
            }
        })
    });
    group.bench_function("mvtu_fused_fps_B8", |ben| {
        ben.iter(|| std::hint::black_box(xnor_gemm_block_thresholded(&weights, &block, &t)))
    });
    group.finish();
}

fn bench_cnv_context(c: &mut Criterion) {
    let weights = pack_matrix(CNV_ROWS, CNV_K, &random_signs(CNV_ROWS * CNV_K, 3));
    let b = 8usize;
    let fs = frames(b, CNV_K, 11);
    let block = BitPlaneBlock::pack(&fs);
    let t = bank(CNV_ROWS);
    let mut group = c.benchmark_group("kernel_gemm_cnv");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .throughput(Throughput::Elements(b as u64));
    group.bench_function("single_fps_B8", |ben| {
        ben.iter(|| {
            for f in &fs {
                std::hint::black_box(matvec(&weights, f));
            }
        })
    });
    group.bench_function("blocked_fps_B8", |ben| {
        ben.iter(|| std::hint::black_box(xnor_gemm_block(&weights, &block)))
    });
    group.bench_function("mvtu_single_fps_B8", |ben| {
        ben.iter(|| {
            for f in &fs {
                std::hint::black_box(mvtu_single_frame(&weights, &t, f));
            }
        })
    });
    group.bench_function("mvtu_fused_fps_B8", |ben| {
        ben.iter(|| std::hint::black_box(xnor_gemm_block_thresholded(&weights, &block, &t)))
    });
    group.finish();
}

fn sanity(c: &mut Criterion) {
    // Cross-check inside the bench binary so a wrong kernel can't "win":
    // the blocked output must equal the single-frame kernel frame by frame,
    // and the fused kernel must equal the unfused pass bit for bit.
    let weights = pack_matrix(16, 200, &random_signs(16 * 200, 5));
    let fs = frames(5, 200, 6);
    let block = BitPlaneBlock::pack(&fs);
    let blocked = xnor_gemm_block(&weights, &block);
    for (f, frame) in fs.iter().enumerate() {
        for (r, &want) in matvec(&weights, frame).iter().enumerate() {
            assert_eq!(blocked[r * fs.len() + f], want, "frame {f} row {r}");
        }
    }
    let t = bank(16);
    let fused = xnor_gemm_block_thresholded(&weights, &block, &t);
    for (f, frame) in fs.iter().enumerate() {
        assert_eq!(
            fused[f],
            mvtu_single_frame(&weights, &t, frame),
            "frame {f}"
        );
    }
    let mut g = c.benchmark_group("kernel_gemm_sanity");
    g.sample_size(10);
    g.bench_function("blocked_small", |b| {
        b.iter(|| std::hint::black_box(xnor_gemm_block(&weights, &block)))
    });
    g.finish();
}

criterion_group!(benches, bench_gated_large, bench_cnv_context, sanity);
criterion_main!(benches);
