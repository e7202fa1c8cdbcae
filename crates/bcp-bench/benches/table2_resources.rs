//! Table II: resource estimation for the three prototypes (printed against
//! the paper's numbers) + the cost of the estimator and the DSE search
//! behind the dimensioning.

use bcp_finn::dse::allocate;
use bcp_finn::resource::estimate;
use binarycop::arch::ArchKind;
use binarycop::experiments::{table2_report, table2_rows};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_table2(c: &mut Criterion) {
    // Regenerate the table (resource columns; accuracy columns come from
    // `experiments table2`, which trains).
    let rows = table2_rows(&[None, None, None]);
    println!("{}", table2_report(&rows));

    // Shape assertions so the bench fails loudly if the model drifts.
    assert!(rows[0].usage.luts > rows[1].usage.luts);
    assert!(rows[1].usage.luts > rows[2].usage.luts);
    assert!(rows[2].fits_z7010, "μ-CNV must fit the Z7010");

    let mut group = c.benchmark_group("table2_resource_estimation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for kind in ArchKind::ALL {
        let (pipeline, arch) = bcp_bench::pipeline_for(kind, 1);
        group.bench_with_input(BenchmarkId::from_parameter(&arch.name), &(), |b, _| {
            b.iter(|| std::hint::black_box(estimate(&pipeline, arch.dsp_offload)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("table2_dse_search");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for kind in ArchKind::ALL {
        let arch = kind.arch();
        let mut layers = arch.plan();
        layers.retain(|stage| stage.is_compute());
        group.bench_with_input(BenchmarkId::from_parameter(&arch.name), &(), |b, _| {
            b.iter(|| std::hint::black_box(allocate(&layers, 25_000.0)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
