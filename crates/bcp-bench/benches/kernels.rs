//! Kernel microbenches: the XNOR-popcount datapath against the float math
//! it replaces (the paper's core efficiency claim, Sec. II-B/III-A).

use bcp_bitpack::xnor::gemm_naive_signs;
use bcp_bitpack::{pack, xnor_gemm_block, BitMatrix, BitPlaneBlock, BitVec64};
use bcp_tensor::matmul::matmul_tb;
use bcp_tensor::{Shape, Tensor};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
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

/// CNV-layer-shaped GEMMs: (rows=C_out, cols=C_in·9, batch=windows).
const SHAPES: [(usize, usize, usize); 3] = [
    (64, 576, 128),   // conv1_2-like
    (128, 1152, 100), // conv2_2-like
    (256, 2304, 16),  // conv3_2-like (fewer windows)
];

/// A packed activation matrix's rows as one bit-plane block (the SWU's
/// window vectors are the blocked kernel's frames).
fn block_of_rows(m: &BitMatrix) -> BitPlaneBlock {
    let rows: Vec<BitVec64> = (0..m.rows()).map(|r| m.row(r)).collect();
    BitPlaneBlock::pack(&rows)
}

fn bench_xnor_vs_float(c: &mut Criterion) {
    let mut group = c.benchmark_group("xnor_vs_float_gemm");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for (rows, cols, windows) in SHAPES {
        let w_signs = random_signs(rows * cols, 1);
        let a_signs = random_signs(windows * cols, 2);
        let wbits = pack::pack_matrix(rows, cols, &w_signs);
        let ablock = block_of_rows(&pack::pack_matrix(windows, cols, &a_signs));
        let wf = Tensor::from_vec(Shape::d2(rows, cols), w_signs);
        let af = Tensor::from_vec(Shape::d2(windows, cols), a_signs);
        group.bench_with_input(
            BenchmarkId::new("xnor_popcount", format!("{rows}x{cols}x{windows}")),
            &(),
            |b, _| b.iter(|| std::hint::black_box(xnor_gemm_block(&wbits, &ablock))),
        );
        group.bench_with_input(
            BenchmarkId::new("float_gemm", format!("{rows}x{cols}x{windows}")),
            &(),
            |b, _| b.iter(|| std::hint::black_box(matmul_tb(&af, &wf))),
        );
    }
    group.finish();
}

fn bench_pack_and_threshold(c: &mut Criterion) {
    let mut group = c.benchmark_group("pack_threshold");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let signs = random_signs(256 * 2304, 3);
    group.bench_function("pack_256x2304", |b| {
        b.iter(|| std::hint::black_box(pack::pack_matrix(256, 2304, &signs)))
    });
    let unit = bcp_bitpack::ThresholdUnit::from_batchnorm(
        &vec![1.0; 256],
        &vec![0.1; 256],
        &vec![0.0; 256],
        &vec![1.0; 256],
        1e-5,
    );
    let accs: Vec<i64> = (0..256).map(|i| i - 128).collect();
    group.bench_function("threshold_256ch", |b| {
        b.iter(|| std::hint::black_box(unit.apply_all(&accs)))
    });
    group.finish();
}

fn bench_or_pool_vs_float(c: &mut Criterion) {
    use bcp_finn::data::BinMap;
    use bcp_finn::pool::or_pool;
    use bcp_tensor::{maxpool2d_forward, MaxPoolSpec};
    let mut group = c.benchmark_group("pool_or_vs_float");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let signs = random_signs(64 * 28 * 28, 4);
    let map = BinMap::from_signs(64, 28, 28, &signs);
    let dense = Tensor::from_vec(Shape::nchw(1, 64, 28, 28), signs);
    group.bench_function("or_pool_64x28x28", |b| {
        b.iter(|| std::hint::black_box(or_pool(&map, 2)))
    });
    group.bench_function("float_maxpool_64x28x28", |b| {
        b.iter(|| std::hint::black_box(maxpool2d_forward(&dense, MaxPoolSpec::two_by_two())))
    });
    group.finish();
}

fn sanity(c: &mut Criterion) {
    // One cheap correctness cross-check inside the bench binary so a wrong
    // kernel can't silently "win".
    let w = pack::pack_matrix(8, 100, &random_signs(800, 7));
    let a = pack::pack_matrix(4, 100, &random_signs(400, 8));
    let ablock = block_of_rows(&a);
    assert_eq!(xnor_gemm_block(&w, &ablock), gemm_naive_signs(&w, &a));
    let mut g = c.benchmark_group("sanity");
    g.sample_size(10);
    g.bench_function("xnor_small", |b| {
        b.iter(|| std::hint::black_box(xnor_gemm_block(&w, &ablock)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_xnor_vs_float,
    bench_pack_and_threshold,
    bench_or_pool_vs_float,
    sanity
);
criterion_main!(benches);
