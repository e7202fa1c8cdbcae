//! One benchmark for the frame path: gate latency, crowd throughput,
//! engine and gateway, with a per-layer traced run.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; the last
//! line on standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See `../README.md` and
//! `../../BENCHMARK.json` for what each name means.

mod layers;
mod load;
mod setup;
mod spans;
mod stats;

use load::{drive, engine_clients, summarize, wire_clients, Client, DirectClient};
use setup::{Fixture, Running, Workload};
use stats::quartiles;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per untraced run: at least the first number, and more while
/// they have taken less than `SETUP_BUDGET_S` together, up to the second.
const SETUPS: (usize, usize) = (8, 400);
const SETUP_BUDGET_S: f64 = 2.0;

/// Unit of every end-to-end metric, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 4] = [
    ("throughput_fps", "frames/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Unit of every per-layer metric.
const PER_LAYER: [(&str, &str); 51] = [
    ("bitpack.gemm_ns_per_frame", "ns"),
    ("bitpack.pack_ns_per_frame", "ns"),
    ("bitpack.popcount_words_per_frame", "count"),
    ("bitpack.weight_bytes_per_frame", "bytes"),
    ("bitpack.gemm_gwords_per_s", "Gwords/s"),
    ("finn.stage.conv1.ns_per_frame", "ns"),
    ("finn.stage.conv2.ns_per_frame", "ns"),
    ("finn.stage.conv3plus.ns_per_frame", "ns"),
    ("finn.stage.pool.ns_per_frame", "ns"),
    ("finn.stage.fc.ns_per_frame", "ns"),
    ("finn.swu_ns_per_frame", "ns"),
    ("finn.stage_self_ns_per_frame", "ns"),
    ("finn.pipeline_ns_per_frame", "ns"),
    ("finn.pipeline_glue_ns_per_frame", "ns"),
    ("finn.cycles_per_frame", "cycles"),
    ("finn.ii_cycles", "cycles"),
    ("finn.model_fps_100mhz", "frames/s"),
    ("finn.model_share_max_err_pts", "pts"),
    ("predictor.quantize_ns_per_frame", "ns"),
    ("predictor.classify_ns_per_frame", "ns"),
    ("predictor.glue_ns_per_frame", "ns"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.batch_wait_ms_p50", "ms"),
    ("serve.dispatch_ms_p50", "ms"),
    ("serve.compute_ms_p50", "ms"),
    ("serve.delivery_ms_p50", "ms"),
    ("serve.batch_size_mean", "frames"),
    ("serve.compute_ms_per_frame", "ms"),
    ("serve.canary_ms", "ms"),
    ("serve.submit_ns", "ns"),
    ("serve.overhead_over_direct_pct", "%"),
    ("serve.trace_overhead_pct", "%"),
    ("serve.trace_dropped", "count"),
    ("gateway.encode_request_ns", "ns"),
    ("gateway.decode_message_ns", "ns"),
    ("gateway.admit_ns", "ns"),
    ("gateway.router_dispatch_ms_p50", "ms"),
    ("gateway.wire_overhead_ms_p50", "ms"),
    ("gateway.server_latency_ms_p50", "ms"),
    ("gateway.frames", "count"),
    ("gateway.responses", "count"),
    ("gateway.retries", "count"),
    ("gateway.failovers", "count"),
    ("gateway.throttled", "count"),
    ("tail.latency_p95_ms", "ms"),
    ("tail.latency_p99_ms", "ms"),
    ("tail.latency_max_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("host.nproc", "count"),
    ("host.timer_ns", "ns"),
    ("host.doubling_ratio", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::GateCnv,
        seed: 11,
        seconds: 30.0,
        trace: false,
    };
    let mut named = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use '{value}'");
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::parse(&value).ok_or_else(bad)?;
                named = true;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !named {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        return Err(format!("--workload is one of {}", names.join(", ")));
    }
    Ok(args)
}

/// What one run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The clients of a workload's untraced run: at most two threads.
fn clients<'a>(fx: &'a Fixture, running: &'a Running, seed: u64) -> Vec<Box<dyn Client + 'a>> {
    match running {
        Running::Direct => vec![Box::new(DirectClient::new(fx, fx.workload.block(), seed))],
        Running::Engine(engine) => {
            engine_clients(fx, engine, fx.workload.engine_load(), seed, None)
        }
        Running::Gateway(gateway, tenants) => {
            wire_clients(fx, gateway.local_addr(), tenants, seed, 0, None)
        }
    }
}

fn untraced(args: &Args) -> Outcome {
    // Set up many times over: one set-up takes milliseconds, too short to
    // time steadily. As with the rounds below, only the calm end counts:
    // the fastest eighth.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut live = None;
    while setup_s.len() < SETUPS.0
        || (setup_s.len() < SETUPS.1 && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        if let Some((_, _, running)) = live.take() {
            Running::stop(running);
        }
        let t0 = Instant::now();
        let (fx, net) = Fixture::build(args.workload, args.seed);
        let running = Running::start(&fx);
        setup_s.push(t0.elapsed().as_secs_f64());
        live = Some((fx, net, running));
    }
    let (mut fx, net, running) = live.expect("at least one set-up");
    fx.label(&net);
    drop(net);
    let setups = setup_s.len();
    setup_s.sort_by(f64::total_cmp);
    setup_s.truncate(setups.div_ceil(8));
    let setup = setup_s.iter().sum::<f64>() / setup_s.len() as f64;

    let window = Duration::from_secs_f64(args.seconds);
    let warmup = Duration::from_secs_f64((args.seconds / 6.0).clamp(0.2, 2.0));
    let mut clients = clients(&fx, &running, args.seed);
    let threads = clients.len();
    // Memory is read when the warm-up ends: after that the benchmark's own
    // log of samples grows with throughput, and would pass for the program's.
    let (clock, mut rss) = (Instant::now(), None);
    let samples = drive(&mut clients, warmup + window, &mut || {
        if rss.is_none() && clock.elapsed() >= warmup {
            rss = Some(peak_rss_mb());
        }
    });
    drop(clients);
    let burst = match running {
        Running::Engine(_) => {
            let (threads, depth) = fx.workload.engine_load();
            threads * depth
        }
        Running::Direct | Running::Gateway(..) => threads,
    };
    let s = summarize(&samples, warmup, window, burst);
    let rss = rss.unwrap_or_else(peak_rss_mb);
    running.stop();

    println!(
        "{} seed {}: {:.2} s after {:.2} s of warm-up, {threads} client thread(s)",
        args.workload.name(),
        args.seed,
        window.as_secs_f64(),
        warmup.as_secs_f64(),
    );
    println!(
        "  values below are of the calm sixteenth: the {} shortest of {} rounds of equal work, {} timed calls",
        s.calm_rounds,
        s.round_fps.len(),
        s.calm_calls
    );
    println!("  {:<16} {:>12.4} frames/s", "throughput_fps", s.fps);
    println!("  {:<16} {:>12.4} ms", "latency_p50_ms", s.p50_ms);
    println!(
        "  {:<16} {:>12.6} s   (fastest {} of {setups} set-ups)",
        "setup_s",
        setup,
        setup_s.len()
    );
    println!("  {:<16} {:>12.4} MB", "peak_rss_mb", rss);
    let [q1, med, q3] = quartiles(&s.round_fps);
    println!("  every round, frames/s: median {med:.4}, quartiles {q1:.4} .. {q3:.4}");
    println!(
        "  every call, latency ms: p50 {:.4}, p95 {:.4}, p99 {:.4}, max {:.4}",
        s.all_p50_ms, s.all_p95_ms, s.all_p99_ms, s.max_ms
    );

    let values = [s.fps, s.p50_ms, setup, rss];
    Outcome {
        attempted: s.attempted,
        failed: s.failed,
        problems: Vec::new(),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect(),
    }
}

fn traced(args: &Args) -> Outcome {
    let (mut fx, net) = Fixture::build(args.workload, args.seed);
    fx.label(&net);
    drop(net);
    let layers = layers::run(&fx, args.seed, args.seconds);

    let (selfs, totals) = spans::self_times(&layers.spans);
    println!(
        "{} seed {} traced: {} spans",
        args.workload.name(),
        args.seed,
        layers.spans.len()
    );
    print!("{}", layers.report);
    println!("span                                   count    total ms     self ms");
    for (name, t) in &totals {
        println!(
            "{name:<36} {:>7} {:>11.3} {:>11.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let mut problems = layers.problems;
    let path = format!("benchmark/out/trace-{}.jsonl", args.workload.name());
    let mut body = spans::to_jsonl(&layers.spans, &selfs);
    for r in &layers.engine_records {
        body.push_str(&r.to_json_line());
        body.push('\n');
    }
    match std::fs::create_dir_all("benchmark/out").and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!("spans and engine trace records written to {path}"),
        Err(e) => problems.push(format!("cannot write {path}: {e}")),
    }

    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        match layers.metrics.get(name) {
            Some(&v) => {
                println!("  {name:<36} {v:>16.4} {unit}");
                metrics.push((name, unit, v));
            }
            None => problems.push(format!("no value for {name}")),
        }
    }
    Outcome {
        attempted: layers.attempted,
        failed: layers.failed,
        problems,
        metrics,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let out = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    for p in &out.problems {
        println!("PROBLEM: {p}");
    }
    let unmeasured = out.metrics.iter().any(|(_, _, v)| !v.is_finite());
    let correct = out.failed == 0 && out.attempted > 0 && out.problems.is_empty() && !unmeasured;
    println!(
        "answers attempted {}, succeeded {}, failed {} (failed_share {})",
        out.attempted,
        out.attempted - out.failed,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
