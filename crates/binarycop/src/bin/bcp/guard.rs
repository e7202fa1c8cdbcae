//! The guard family: `scrub-bench` measures the `bcp-guard` layer end to
//! end.

use crate::cli::{bench_frames, Args};
use bcp_finn::fault::inject_random_faults;
use bcp_guard::IntegrityFault;
use std::collections::HashSet;
use std::process::exit;
use std::time::{Duration, Instant};

/// `bcp scrub-bench`: inject a known fault population, report detection
/// and repair rates against it, and time scrub-interleaved inference
/// against an undefended baseline. Exits 1 unless every injected fault is
/// both detected and repaired (CRC-32 guarantees this for the per-row flip
/// counts any realistic SEU rate produces).
pub fn scrub_bench(args: &Args) {
    let faults = args.int("faults", 64).max(1);
    let seed = args.int("seed", 7) as u64;
    let n_frames = args.int("frames", 32).max(1);
    let units_per_frame = args.int("units", 8).max(1);

    let telemetry = args.telemetry();
    let mut predictor = telemetry.attach(args.bench_predictor());
    let clean = predictor.clone();
    let mut scrubber = predictor.scrubber();
    println!(
        "guard state: {} scrub units over '{}', golden copy {} B",
        scrubber.unit_count(),
        predictor.pipeline().name(),
        scrubber.golden_bytes(),
    );

    // Inject a known fault population and audit against it.
    let records = inject_random_faults(predictor.pipeline_mut(), faults, seed);
    let expected: HashSet<(usize, usize)> = records.iter().map(|r| (r.stage, r.row)).collect();
    let found: HashSet<(usize, usize)> = scrubber
        .audit(predictor.pipeline())
        .into_iter()
        .filter_map(|f| match f {
            IntegrityFault::WeightRow { stage, row } => Some((stage, row)),
            IntegrityFault::Thresholds { .. } => None,
        })
        .collect();
    let detected = expected.intersection(&found).count();
    let detection_pct = 100.0 * detected as f64 / expected.len() as f64;
    println!(
        "detection: {detected}/{} corrupted rows localized ({detection_pct:.1}%), \
         {} false positives  [{faults} bit flips, seed {seed}]",
        expected.len(),
        found.difference(&expected).count(),
    );

    // Repair sweep, then prove bit-exactness against the clean twin.
    let t0 = Instant::now();
    let report = scrubber.full_sweep(predictor.pipeline_mut());
    let sweep = t0.elapsed();
    let repair_pct = if report.faults_detected == 0 {
        0.0
    } else {
        100.0 * report.faults_repaired as f64 / report.faults_detected as f64
    };
    let residual = scrubber.audit(predictor.pipeline()).len();
    println!(
        "repair: {}/{} rows restored ({repair_pct:.1}%), {} bits flipped back, \
         sweep {:.2} ms, {residual} residual faults",
        report.faults_repaired,
        report.faults_detected,
        report.bits_flipped,
        sweep.as_secs_f64() * 1e3,
    );

    // Scrub overhead: classify with a scrub tick interleaved per frame vs
    // the undefended loop.
    let frames = bench_frames(predictor.arch().input_size, n_frames, 0x5C2B);
    // Warm caches first, then time the two loops in alternating rounds so
    // clock drift and cache effects hit both sides equally — otherwise the
    // cold first loop makes the overhead come out negative.
    for f in &frames {
        let _ = predictor.classify(f);
    }
    let mut undefended = Duration::ZERO;
    let mut defended = Duration::ZERO;
    const ROUNDS: usize = 5;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for f in &frames {
            let _ = predictor.classify(f);
        }
        undefended += t0.elapsed();
        let t0 = Instant::now();
        for f in &frames {
            let _ = predictor.classify(f);
            scrubber.tick(predictor.pipeline_mut(), units_per_frame);
        }
        defended += t0.elapsed();
    }
    let overhead_pct = 100.0 * (defended.as_secs_f64() / undefended.as_secs_f64().max(1e-9) - 1.0);
    println!(
        "scrub overhead: {:.1} fps undefended → {:.1} fps with {units_per_frame} units/frame \
         ({overhead_pct:+.1}%)",
        (frames.len() * ROUNDS) as f64 / undefended.as_secs_f64().max(1e-9),
        (frames.len() * ROUNDS) as f64 / defended.as_secs_f64().max(1e-9),
    );

    // Sanity: the repaired pipeline classifies exactly like the clean twin.
    let divergent = frames
        .iter()
        .filter(|f| predictor.classify(f) != clean.classify(f))
        .count();
    println!(
        "post-repair agreement with clean pipeline: {}/{} frames",
        frames.len() - divergent,
        frames.len()
    );

    telemetry.save();
    if detected != expected.len() || repair_pct < 100.0 || residual > 0 || divergent > 0 {
        eprintln!("scrub-bench FAILED: detection or repair below 100%");
        exit(1);
    }
    println!("scrub-bench OK: 100% detection, 100% repair");
}
