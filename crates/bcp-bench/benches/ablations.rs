//! Ablations of the design choices DESIGN.md §9 calls out: the
//! XNOR-popcount datapath against the float math it replaces (GEMM and
//! pooling — the paper's core efficiency claim, Sec. II-B/III-A),
//! im2col-GEMM vs direct convolution, integer thresholds vs float
//! batch-norm + sign, and (printed once) balanced vs raw-imbalanced
//! training and augmentation on/off.

use bcp_bitpack::{pack, xnor_gemm_block, BitMatrix, BitPlaneBlock, BitVec64};
use bcp_dataset::Dataset;
use bcp_nn::metrics::predictions;
use bcp_nn::optim::Adam;
use bcp_nn::train::{train_epoch, LossKind};
use bcp_nn::Mode;
use bcp_tensor::conv::{conv2d_direct, conv2d_forward, Conv2dSpec};
use bcp_tensor::init::uniform;
use bcp_tensor::matmul::matmul_tb;
use bcp_tensor::{Shape, Tensor};
use binarycop::recipe::{run, Recipe};
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

fn bench_im2col_vs_direct(c: &mut Criterion) {
    let spec = Conv2dSpec::new(32, 32, 3, 0);
    let x = uniform(Shape::nchw(4, 32, 12, 12), -1.0, 1.0, 1);
    let w = uniform(spec.weight_shape(), -0.5, 0.5, 2);
    let mut group = c.benchmark_group("ablation_conv_lowering");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("im2col_gemm", |b| {
        b.iter(|| std::hint::black_box(conv2d_forward(&x, &w, spec)))
    });
    group.bench_function("direct_loops", |b| {
        b.iter(|| std::hint::black_box(conv2d_direct(&x, &w, spec)))
    });
    group.finish();
}

fn bench_threshold_vs_float_bn(c: &mut Criterion) {
    // The Sec. III-A hardware trick: batch-norm + sign as one integer
    // comparison. Measure both forms over a conv-layer's worth of
    // accumulators (256 channels × 100 pixels).
    let channels = 256usize;
    let pixels = 100usize;
    let gamma: Vec<f32> = (0..channels).map(|i| 0.5 + (i % 7) as f32 * 0.1).collect();
    let beta: Vec<f32> = (0..channels).map(|i| -0.3 + (i % 5) as f32 * 0.2).collect();
    let mean: Vec<f32> = (0..channels).map(|i| (i % 11) as f32 - 5.0).collect();
    let var: Vec<f32> = (0..channels).map(|i| 1.0 + (i % 3) as f32).collect();
    let unit = bcp_bitpack::ThresholdUnit::from_batchnorm(&gamma, &beta, &mean, &var, 1e-5);
    let accs: Vec<i64> = (0..(channels * pixels) as i64)
        .map(|i| (i % 201) - 100)
        .collect();

    let mut group = c.benchmark_group("ablation_threshold_vs_float_bn");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("integer_threshold", |b| {
        b.iter(|| {
            let mut ones = 0usize;
            for p in 0..pixels {
                for ch in 0..channels {
                    if unit.apply(ch, accs[ch * pixels + p]) {
                        ones += 1;
                    }
                }
            }
            std::hint::black_box(ones)
        })
    });
    group.bench_function("float_batchnorm_sign", |b| {
        b.iter(|| {
            let mut ones = 0usize;
            for p in 0..pixels {
                for ch in 0..channels {
                    let a = accs[ch * pixels + p] as f32;
                    let v = gamma[ch] * (a - mean[ch]) / (var[ch] + 1e-5).sqrt() + beta[ch];
                    if v >= 0.0 {
                        ones += 1;
                    }
                }
            }
            std::hint::black_box(ones)
        })
    });
    group.finish();
}

/// Printed-once training ablations (balancing and augmentation): the
/// Sec. IV-A data-pipeline choices, at miniature scale.
fn print_training_ablations() {
    let base = Recipe {
        train_per_class: 40,
        augment_copies: 0,
        test_per_class: 15,
        epochs: 6,
        ..Recipe::test_scale()
    };

    // Balanced (the recipe's default path).
    let balanced = run(&base, |_| {});

    // Raw-imbalanced: train on the 51/39/5/5 distribution with the same
    // total sample count, evaluate on the same balanced test set.
    let gen = base.generator();
    let raw = Dataset::generate_raw(&gen, base.train_per_class * 4, base.seed);
    let mut net = binarycop::model::build_bnn(&base.arch, base.seed);
    let mut opt = Adam::new(base.lr);
    let imgs = raw.normalized_images();
    for e in 0..base.epochs {
        train_epoch(
            &mut net,
            &mut opt,
            &imgs,
            &raw.labels,
            base.batch_size,
            LossKind::CrossEntropy,
            e as u64,
        );
    }
    let test = Dataset::generate_balanced(&gen, base.test_per_class, base.seed ^ 0x7E57);
    let logits = net.forward(&test.normalized_images(), Mode::Eval);
    let preds = predictions(&logits);
    let raw_acc = preds
        .iter()
        .zip(&test.labels)
        .filter(|(p, l)| p == l)
        .count() as f32
        / test.len() as f32;
    // Minority-class recall under imbalance (the failure the paper's
    // balancing step prevents).
    let minority: Vec<usize> = (0..test.len()).filter(|&i| test.labels[i] >= 2).collect();
    let minority_recall = minority
        .iter()
        .filter(|&&i| preds[i] == test.labels[i])
        .count() as f32
        / minority.len().max(1) as f32;

    // Augmented.
    let augmented = run(
        &Recipe {
            augment_copies: 1,
            ..base.clone()
        },
        |_| {},
    );

    println!(
        "\nAblation: Sec. IV-A data-pipeline choices (bench scale, {} cls/test)\n\
         {:<34}{:>10}\n\
         {:<34}{:>9.1}%\n\
         {:<34}{:>9.1}%  (minority-class recall {:.1}%)\n\
         {:<34}{:>9.1}%\n",
        test.len(),
        "variant",
        "test acc",
        "balanced (paper choice)",
        balanced.test_accuracy * 100.0,
        "raw 51/39/5/5 imbalance",
        raw_acc * 100.0,
        minority_recall * 100.0,
        "balanced + augmentation",
        augmented.test_accuracy * 100.0,
    );
}

fn bench_cyclesim_and_fault(c: &mut Criterion) {
    use bcp_finn::cyclesim::simulate;
    use bcp_finn::fault::inject_random_faults;
    use binarycop::arch::ArchKind;

    let plan = ArchKind::NCnv.arch().plan();
    let mut group = c.benchmark_group("ablation_timing_and_fault_tools");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("cyclesim_ncnv_64frames", |b| {
        b.iter(|| std::hint::black_box(simulate(&plan, 64, 2)))
    });
    group.bench_function("fault_injection_100bits", |b| {
        b.iter_batched(
            || bcp_bench::pipeline_for(ArchKind::NCnv, 1).0,
            |mut p| {
                inject_random_faults(&mut p, 100, 7);
                std::hint::black_box(p);
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn ablation_entry(c: &mut Criterion) {
    print_training_ablations();
    bench_xnor_vs_float(c);
    bench_or_pool_vs_float(c);
    bench_im2col_vs_direct(c);
    bench_threshold_vs_float_bn(c);
    bench_cyclesim_and_fault(c);
}

criterion_group!(benches, ablation_entry);
criterion_main!(benches);
