//! The serve family: `serve-bench` stands up the `bcp-serve` engine over a
//! pool of predictor replicas and drives it with closed-loop clients;
//! `profile` is the same run with every request traced.

use crate::cli::{bench_frames, Args};
use bcp_serve::ServeConfig;
use std::path::Path;
use std::process::exit;
use std::time::{Duration, Instant};

/// `bcp serve-bench`: closed-loop load against the micro-batching engine,
/// with a sequential single-caller baseline for comparison.
pub fn serve_bench(args: &Args) {
    let workers = args.int("workers", 2).max(1);
    let clients = args.int("clients", 8).max(1);
    let requests = args.int("requests", 50).max(1);
    let n_frames = args.int("frames", 32).max(1);

    let mut cfg = ServeConfig::default();
    cfg.queue_cap = args.int("queue-cap", cfg.queue_cap).max(1);
    cfg.max_batch = args.int("max-batch", cfg.max_batch).max(1);
    cfg.policy = args.policy(cfg.policy);
    if let Some(ms) = args.parse_as("deadline-ms", "an integer") {
        cfg.deadline = Some(Duration::from_millis(ms));
    }
    let dump_metrics = args.has("dump-metrics");

    let telemetry = args.telemetry();
    let predictor = telemetry.attach(args.bench_predictor());

    let frames = bench_frames(predictor.arch().input_size, n_frames, 0x5EEE);

    // Baseline: one caller, one frame in flight, no batching — on a copy
    // with its own registry, so the engine's books count only what it served.
    let direct = predictor.clone().with_telemetry(bcp_trace::Registry::new());
    let t0 = Instant::now();
    for f in &frames {
        let _ = direct.classify(f);
    }
    let seq_fps = frames.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    println!(
        "sequential baseline: {:.1} fps ({} frames, 1 caller)",
        seq_fps,
        frames.len()
    );

    let engine = binarycop::serve::engine(&predictor, workers, cfg);
    let report = bcp_serve::run_closed_loop(&engine, &frames, clients, requests);
    engine.shutdown();
    println!("engine ({workers} workers):");
    println!("{}", report.render_text());
    let speedup = report.throughput_fps / seq_fps.max(1e-9);
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let note = match cores {
        1 => "  (single-core host: batching amortization only, no worker parallelism)",
        _ => "",
    };
    println!("speedup vs sequential: {speedup:.2}x{note}");
    if !report.accounted() {
        eprintln!("BUG: request accounting mismatch — lost or duplicated responses");
        exit(1);
    }
    println!(
        "response accounting: exact ({} submitted, {} resolved)",
        report.total, report.total
    );
    if dump_metrics {
        print!("{}", engine.registry().render_text());
    }
    telemetry.save();
}

/// Drain an engine's tracer into trace artifacts under `dir`
/// (`trace.folded`, `trace.jsonl`, `report.txt`, `timeseries.jsonl`) and
/// return the trace set plus the rendered attribution report.
fn write_trace_artifacts(
    tracer: &bcp_trace::Tracer,
    dir: &Path,
    raw_compute_ns: u64,
) -> (bcp_trace::TraceSet, bcp_trace::AttributionReport) {
    let set = bcp_trace::TraceSet::new(tracer.drain(), tracer.dropped());
    if let Err(e) = bcp_trace::audit(&set.records) {
        eprintln!("BUG: trace audit failed: {e}");
        exit(1);
    }
    let report = bcp_trace::AttributionReport::from_traces(&set, Some(raw_compute_ns));
    std::fs::create_dir_all(dir).unwrap_or_else(|e| {
        eprintln!("cannot create {}: {e}", dir.display());
        exit(1);
    });
    let write = |name: &str, body: String| {
        std::fs::write(dir.join(name), body).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", dir.join(name).display());
            exit(1);
        });
    };
    write("trace.folded", set.to_folded());
    write("trace.jsonl", set.to_jsonl());
    write("report.txt", report.render_text());
    // Queue depth and busy workers, derived from the same stamps.
    write("timeseries.jsonl", set.time_series().to_jsonl());
    (set, report)
}

/// `bcp profile`: dedicated profiling run — every request traced
/// (sample rate 1 by default), flamegraph + waterfall + attribution
/// artifacts written to `--out`, and the engine's overhead priced against
/// a raw `classify_block` baseline measured in the same process.
pub fn profile(args: &Args) {
    use bcp_trace::TraceConfig;

    let workers = args.int("workers", 2).max(1);
    let clients = args.int("clients", 8).max(1);
    let requests = args.int("requests", 40).max(1);
    let n_frames = args.int("frames", 32).max(1);
    let sample_rate = args.int("sample-rate", 1).max(1) as u64;
    let out_dir = Path::new(args.get("out").unwrap_or("profile-out"));

    let registry = bcp_trace::Registry::new();
    let predictor = args.bench_predictor().with_telemetry(registry.clone());
    let frames = bench_frames(predictor.arch().input_size, n_frames, 0x920F);

    let mut cfg = ServeConfig::default();
    cfg.max_batch = args.int("max-batch", cfg.max_batch).max(1);
    cfg.trace = Some(TraceConfig {
        sample_rate,
        ..TraceConfig::default()
    });

    // Raw inference baseline: same frames, no engine, one caller calling
    // `classify_block` on chunks of `max_batch` — the program one engine
    // worker runs per sealed batch. This is the denominator of the "exact
    // percentage the engine adds" line.
    let rounds = 3usize;
    let t0 = Instant::now();
    for _ in 0..rounds {
        for chunk in frames.chunks(cfg.max_batch) {
            let _ = predictor.classify_block(chunk);
        }
    }
    let raw_ns = (t0.elapsed().as_nanos() / (rounds as u128 * frames.len() as u128).max(1)) as u64;
    println!(
        "raw classify_block baseline: {:.3} ms/frame ({} frames in chunks of {} × {} rounds)",
        raw_ns as f64 / 1e6,
        frames.len(),
        cfg.max_batch,
        rounds
    );

    let engine = binarycop::serve::engine(&predictor, workers, cfg);
    let load = bcp_serve::run_closed_loop(&engine, &frames, clients, requests);
    let tracer = engine.tracer().expect("profile engine always traces");
    engine.shutdown();

    println!("engine ({workers} workers, {clients} clients):");
    println!("{}", load.render_text());
    if !load.accounted() {
        eprintln!("BUG: request accounting mismatch — lost or duplicated responses");
        exit(1);
    }

    let (set, report) = write_trace_artifacts(&tracer, out_dir, raw_ns);
    println!(
        "trace: {} records sampled at 1/{sample_rate} ({} dropped), audit ok",
        set.records.len(),
        set.dropped
    );
    let (depth_peak, busy_peak) = set.time_series().peak();
    println!("queue depth peak {depth_peak} / busy workers peak {busy_peak}");
    print!("{}", report.render_text());
    print!("{}", set.render_waterfall(8));
    println!(
        "artifacts: {} (flamegraph: flamegraph.pl / speedscope on trace.folded)",
        out_dir.display()
    );
    for name in [
        "trace.folded",
        "trace.jsonl",
        "timeseries.jsonl",
        "report.txt",
    ] {
        println!("  {}", out_dir.join(name).display());
    }
}
