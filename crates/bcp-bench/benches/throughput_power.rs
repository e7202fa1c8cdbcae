//! The Sec. IV-B performance claims: ~6400 fps (n-CNV, full pipeline) and
//! ~1.6 W idle. Prints the modeled table for all prototypes and measures
//! the simulator's software throughput, blocked and frame-at-a-time.

use bcp_bench::{frames, pipeline_for};
use bcp_finn::perf::CLOCK_100MHZ;
use binarycop::arch::ArchKind;
use binarycop::experiments::perf_power_report;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;

fn bench_throughput(c: &mut Criterion) {
    println!("{}", perf_power_report());

    // Guard the headline claim's order of magnitude.
    let (ncnv, _) = pipeline_for(ArchKind::NCnv, 1);
    let fps = CLOCK_100MHZ.analyze(&ncnv).throughput_fps;
    assert!(
        (2000.0..20000.0).contains(&fps),
        "modeled n-CNV throughput {fps} left the paper's magnitude"
    );

    let batch = frames(16);
    let mut group = c.benchmark_group("blocked_forward_throughput");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .throughput(Throughput::Elements(batch.len() as u64));
    for kind in ArchKind::ALL {
        let (pipeline, arch) = pipeline_for(kind, 2);
        group.bench_with_input(BenchmarkId::from_parameter(&arch.name), &(), |b, _| {
            b.iter(|| std::hint::black_box(pipeline.forward_batch(&batch)))
        });
    }
    group.finish();

    // Frame-at-a-time forward for the same batch: the weight-row reuse
    // ablation.
    let mut group = c.benchmark_group("sequential_forward_throughput");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(4))
        .throughput(Throughput::Elements(batch.len() as u64));
    for kind in ArchKind::ALL {
        let (pipeline, arch) = pipeline_for(kind, 2);
        group.bench_with_input(BenchmarkId::from_parameter(&arch.name), &(), |b, _| {
            b.iter(|| {
                for f in &batch {
                    std::hint::black_box(pipeline.forward(f));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
