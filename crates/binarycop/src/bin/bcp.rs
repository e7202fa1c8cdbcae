//! `bcp` — the BinaryCoP deployment CLI.
//!
//! ```text
//! bcp check    --arch <cnv|ncnv|ucnv> | --all-arches
//!              [--device z7020|z7010] [--target-fps N] [--fifo-depth N] [--json]
//! bcp train    --arch <cnv|ncnv|ucnv> --out model.json [--per-class N] [--epochs N]
//! bcp deploy   --arch <...> --model model.json --out accel.json
//! bcp classify --arch <...> --accel accel.json IMG.ppm [IMG2.ppm …]
//! bcp info     --arch <...> [--accel accel.json]
//! bcp demo
//! bcp serve-bench [--arch tiny|cnv|ncnv|ucnv] [--workers N] [--clients N] …
//! ```
//!
//! `serve-bench` stands up the `bcp-serve` micro-batching engine over a
//! pool of predictor replicas and drives it with concurrent closed-loop
//! clients, printing throughput/latency percentiles, a sequential
//! baseline and exact response accounting.
//!
//! `check` runs the `bcp-check` static verifier (shape inference, folding
//! legality, cycle budgets, FIFO/rate balance, device resource fit) and
//! exits non-zero when any architecture carries an error-severity
//! `BCP0xx` diagnostic. `--json` emits the machine-readable report list.
//!
//! Input images are binary PPM (P6); arbitrary sizes are box-resized to
//! the 32×32 accelerator input, mirroring the paper's preprocessing.
//!
//! `train`, `classify` and `demo` additionally accept `--telemetry <dir>`:
//! metrics and JSONL events are collected during the run and written to
//! `<dir>/events.jsonl` + `<dir>/summary.json` (see `bcp_trace::Snapshot`
//! for the schema), with the registry's text dump printed to stderr.

#![forbid(unsafe_code)]

use bcp_dataset::ppm::{decode_ppm, resize_to};
use bcp_serve::BackpressurePolicy;
use binarycop::arch::{Arch, ArchKind};
use binarycop::model::build_bnn;
use binarycop::predictor::{BinaryCoP, OperatingMode};
use binarycop::recipe::{run_instrumented, Recipe};
use std::collections::HashMap;
use std::process::exit;

fn parse_arch(name: &str) -> ArchKind {
    match name.to_ascii_lowercase().as_str() {
        "cnv" => ArchKind::Cnv,
        "ncnv" | "n-cnv" => ArchKind::NCnv,
        "ucnv" | "µ-cnv" | "μ-cnv" | "micro" => ArchKind::MicroCnv,
        other => {
            eprintln!("unknown architecture '{other}' (use cnv | ncnv | ucnv)");
            exit(2);
        }
    }
}

struct Args {
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

/// Flags that take no value.
const BOOL_FLAGS: [&str; 3] = ["all-arches", "json", "dump-metrics"];

fn parse_args(raw: &[String]) -> Args {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        if let Some(name) = raw[i].strip_prefix("--") {
            if BOOL_FLAGS.contains(&name) {
                flags.insert(name.to_string(), "true".to_string());
                i += 1;
                continue;
            }
            let value = raw.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("flag --{name} needs a value");
                exit(2);
            });
            flags.insert(name.to_string(), value);
            i += 2;
        } else {
            positional.push(raw[i].clone());
            i += 1;
        }
    }
    Args { flags, positional }
}

fn required<'a>(args: &'a Args, flag: &str) -> &'a str {
    args.flags.get(flag).map(String::as_str).unwrap_or_else(|| {
        eprintln!("missing required flag --{flag}");
        exit(2);
    })
}

fn arch_of(args: &Args) -> Arch {
    parse_arch(required(args, "arch")).arch()
}

/// `--telemetry <dir>` → an event-buffering registry plus the artifact
/// directory it should be flushed to at the end of the command.
fn telemetry_of(args: &Args) -> Option<(bcp_trace::Registry, std::path::PathBuf)> {
    args.flags.get("telemetry").map(|dir| {
        (
            bcp_trace::Registry::with_event_buffer(),
            std::path::PathBuf::from(dir),
        )
    })
}

fn finish_telemetry(telemetry: Option<(bcp_trace::Registry, std::path::PathBuf)>) {
    if let Some((registry, dir)) = telemetry {
        let summary = registry.write_artifacts(&dir).unwrap_or_else(|e| {
            eprintln!("cannot write telemetry artifacts to {}: {e}", dir.display());
            exit(1);
        });
        eprint!("{}", registry.render_text());
        eprintln!(
            "telemetry artifacts: {} and {}",
            summary.display(),
            dir.join("events.jsonl").display()
        );
    }
}

fn cmd_check(args: &Args) {
    use bcp_check::{check_arch, CheckConfig};
    let mut cfg = CheckConfig::default();
    if let Some(d) = args.flags.get("device") {
        cfg.device = Some(match d.to_ascii_lowercase().as_str() {
            "z7020" | "xc7z020" => bcp_finn::device::Z7020,
            "z7010" | "xc7z010" => bcp_finn::device::Z7010,
            other => {
                eprintln!("unknown device '{other}' (use z7020 | z7010)");
                exit(2);
            }
        });
    }
    if let Some(v) = args.flags.get("target-fps") {
        cfg.target_fps = v.parse().unwrap_or_else(|_| {
            eprintln!("--target-fps needs a number, got '{v}'");
            exit(2);
        });
    }
    if let Some(v) = args.flags.get("fifo-depth") {
        cfg.fifo_depth = v.parse().unwrap_or_else(|_| {
            eprintln!("--fifo-depth needs an integer, got '{v}'");
            exit(2);
        });
    }
    let kinds: Vec<ArchKind> = if args.flags.contains_key("all-arches") {
        ArchKind::ALL.to_vec()
    } else {
        vec![parse_arch(required(args, "arch"))]
    };
    let json = args.flags.contains_key("json");
    let mut reports = Vec::new();
    let mut failed = false;
    for kind in kinds {
        let report = check_arch(&kind.arch(), &cfg);
        failed |= !report.is_clean();
        if json {
            reports.push(report);
        } else {
            print!("{}", report.render_text());
        }
    }
    if json {
        println!(
            "{}",
            serde_json::to_string(&reports).expect("reports serialize")
        );
    }
    if failed {
        exit(1);
    }
}

fn cmd_train(args: &Args) {
    let kind = parse_arch(required(args, "arch"));
    let out = required(args, "out");
    let per_class: usize = args
        .flags
        .get("per-class")
        .map(|v| v.parse().expect("--per-class N"))
        .unwrap_or(100);
    let epochs: usize = args
        .flags
        .get("epochs")
        .map(|v| v.parse().expect("--epochs N"))
        .unwrap_or(8);
    let recipe = Recipe {
        train_per_class: per_class,
        test_per_class: per_class / 3 + 1,
        epochs,
        ..Recipe::quick(kind)
    };
    eprintln!(
        "training {} ({per_class}/class, {epochs} epochs)…",
        recipe.arch.name
    );
    let telemetry = telemetry_of(args);
    let mut model = run_instrumented(&recipe, telemetry.as_ref().map(|(r, _)| r), |s| {
        eprintln!(
            "  epoch {:>3}: loss {:.4}, train acc {:.1}%",
            s.epoch,
            s.loss,
            s.train_accuracy * 100.0
        );
    });
    eprintln!("test accuracy: {:.2}%", model.test_accuracy * 100.0);
    bcp_nn::serialize::save_json(&mut model.net, out).expect("writing checkpoint");
    eprintln!("checkpoint written to {out}");
    finish_telemetry(telemetry);
}

fn cmd_deploy(args: &Args) {
    let arch = arch_of(args);
    // Full static verification before any pipeline stage is constructed.
    let report = bcp_check::check_arch(&arch, &bcp_check::CheckConfig::default());
    if !report.is_clean() {
        eprint!("{}", report.render_text());
        eprintln!("static checks failed; refusing to deploy");
        exit(1);
    }
    let model_path = required(args, "model");
    let out = required(args, "out");
    let mut net = build_bnn(&arch, 0);
    bcp_nn::serialize::load_json(&mut net, model_path).expect("reading checkpoint");
    let predictor = BinaryCoP::from_trained(&net, &arch);
    predictor
        .save_image(out)
        .expect("writing accelerator image");
    eprintln!("{}", predictor.pipeline().describe());
    eprintln!("accelerator image written to {out}");
}

fn load_predictor(args: &Args) -> BinaryCoP {
    let arch = arch_of(args);
    let accel = required(args, "accel");
    BinaryCoP::load_image(accel, &arch).expect("reading accelerator image")
}

fn cmd_classify(args: &Args) {
    let telemetry = telemetry_of(args);
    let mut predictor = load_predictor(args);
    if let Some((registry, _)) = &telemetry {
        predictor = predictor.with_telemetry(registry.clone());
    }
    if args.positional.is_empty() {
        eprintln!("no input images (pass one or more .ppm files)");
        exit(2);
    }
    for path in &args.positional {
        let bytes = std::fs::read(path).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            exit(1);
        });
        let img = decode_ppm(&bytes).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            exit(1);
        });
        let sized = resize_to(&img, predictor.arch().input_size);
        let class = predictor.classify(&sized);
        println!("{path}: {}", class.full_name());
    }
    finish_telemetry(telemetry);
}

fn cmd_info(args: &Args) {
    let predictor = if args.flags.contains_key("accel") {
        load_predictor(args)
    } else {
        // No trained image: report the architecture's models from an
        // untrained (but deployable) network.
        let arch = arch_of(args);
        let (net, arch) = {
            use bcp_nn::Mode;
            let mut net = build_bnn(&arch, 0);
            let x = bcp_tensor::init::uniform(
                bcp_tensor::Shape::nchw(2, 3, arch.input_size, arch.input_size),
                -1.0,
                1.0,
                1,
            );
            let _ = net.forward(&x, Mode::Train);
            (net, arch)
        };
        BinaryCoP::from_trained(&net, &arch)
    };
    print!("{}", predictor.pipeline().describe());
    println!("{}", predictor.summary());
    println!(
        "gate power @0.5 subjects/s: {:.3} W; crowd power: {:.2} W",
        predictor.board_power_w(OperatingMode::SingleGate {
            subjects_per_s: 0.5
        }),
        predictor.board_power_w(OperatingMode::CrowdStatistics),
    );
}

fn cmd_demo(args: &Args) {
    // Train tiny, deploy, classify a generated face — zero configuration.
    use bcp_dataset::{Dataset, GeneratorConfig, MaskClass};
    let recipe = Recipe {
        train_per_class: 60,
        test_per_class: 20,
        epochs: 8,
        ..Recipe::test_scale()
    };
    eprintln!("demo: training {} …", recipe.arch.name);
    let telemetry = telemetry_of(args);
    let model = run_instrumented(&recipe, telemetry.as_ref().map(|(r, _)| r), |_| {});
    eprintln!("test accuracy: {:.1}%", model.test_accuracy * 100.0);
    let mut predictor = BinaryCoP::from_trained(&model.net, &model.arch);
    if let Some((registry, _)) = &telemetry {
        predictor = predictor.with_telemetry(registry.clone());
    }
    let gen = GeneratorConfig {
        img_size: model.arch.input_size,
        supersample: 3,
    };
    let ds = Dataset::generate_balanced(&gen, 2, 0xDE30);
    for i in 0..ds.len() {
        println!(
            "true {:<24} → predicted {}",
            MaskClass::from_label(ds.labels[i]).full_name(),
            predictor.classify(&ds.image(i)).full_name()
        );
    }
    println!("{}", predictor.summary());
    finish_telemetry(telemetry);
}

/// `--flag N`-style integer with a default.
fn int_flag(args: &Args, flag: &str, default: usize) -> usize {
    args.flags
        .get(flag)
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--{flag} needs an integer, got '{v}'");
                exit(2);
            })
        })
        .unwrap_or(default)
}

/// `--policy block|reject|shed`, or `default` when the flag is absent.
fn policy_flag(args: &Args, default: BackpressurePolicy) -> BackpressurePolicy {
    let Some(p) = args.flags.get("policy") else {
        return default;
    };
    match p.to_ascii_lowercase().as_str() {
        "block" => BackpressurePolicy::Block,
        "reject" => BackpressurePolicy::Reject,
        "shed" => BackpressurePolicy::ShedOldest,
        other => {
            eprintln!("unknown policy '{other}' (use block | reject | shed)");
            exit(2);
        }
    }
}

/// Benchmark predictor: a trained accelerator image when `--accel` is
/// given, else an untrained (but deployable) network at `--arch` (default
/// tiny) — throughput does not depend on the weights.
fn bench_predictor(args: &Args) -> BinaryCoP {
    if args.flags.contains_key("accel") {
        load_predictor(args)
    } else {
        let arch = match args.flags.get("arch").map(String::as_str) {
            None | Some("tiny") => binarycop::recipe::tiny_arch(),
            Some(name) => parse_arch(name).arch(),
        };
        let mut net = build_bnn(&arch, 0);
        let x = bcp_tensor::init::uniform(
            bcp_tensor::Shape::nchw(2, 3, arch.input_size, arch.input_size),
            -1.0,
            1.0,
            1,
        );
        let _ = net.forward(&x, bcp_nn::Mode::Train);
        BinaryCoP::from_trained(&net, &arch)
    }
}

/// Deterministic synthetic camera frames at the predictor's input size.
fn bench_frames(predictor: &BinaryCoP, n_frames: usize, seed: u64) -> Vec<bcp_tensor::Tensor> {
    gateway_bench_frames(predictor.arch().input_size, n_frames, seed)
}

/// Drain an engine's tracer into trace artifacts under `dir`
/// (`trace.folded`, `trace.jsonl`, `report.txt`, `timeseries.jsonl`) and
/// return the trace set plus the rendered attribution report.
fn write_trace_artifacts(
    tracer: &bcp_trace::Tracer,
    dir: &std::path::Path,
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

/// `bcp serve-bench`: closed-loop load against the micro-batching engine,
/// with a sequential single-caller baseline for comparison.
fn cmd_serve_bench(args: &Args) {
    use bcp_serve::ServeConfig;
    use std::time::{Duration, Instant};

    let get = |flag: &str, default: usize| -> usize { int_flag(args, flag, default) };
    let workers = get("workers", 2).max(1);
    let clients = get("clients", 8).max(1);
    let requests = get("requests", 50).max(1);
    let n_frames = get("frames", 32).max(1);

    let mut cfg = ServeConfig::default();
    cfg.queue_cap = get("queue-cap", cfg.queue_cap).max(1);
    cfg.max_batch = get("max-batch", cfg.max_batch).max(1);
    cfg.policy = policy_flag(args, cfg.policy);
    if let Some(ms) = args.flags.get("deadline-ms") {
        cfg.deadline = Some(Duration::from_millis(ms.parse().unwrap_or_else(|_| {
            eprintln!("--deadline-ms needs an integer, got '{ms}'");
            exit(2);
        })));
    }
    let dump_metrics = args.flags.contains_key("dump-metrics");

    let telemetry = telemetry_of(args);
    let mut predictor = bench_predictor(args);
    if let Some((registry, _)) = &telemetry {
        predictor = predictor.with_telemetry(registry.clone());
    } else if dump_metrics {
        // The metrics dump needs a registry even when no --telemetry
        // artifacts were requested.
        predictor = predictor.with_telemetry(bcp_trace::Registry::new());
    }

    let frames = bench_frames(&predictor, n_frames, 0x5EEE);

    // Baseline: one caller, one frame in flight, no batching.
    let t0 = Instant::now();
    for f in &frames {
        let _ = predictor.classify(f);
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
    println!(
        "speedup vs sequential: {:.2}x{}",
        report.throughput_fps / seq_fps.max(1e-9),
        if std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            < 2
        {
            "  (single-core host: batching amortization only, no worker parallelism)"
        } else {
            ""
        }
    );
    if !report.accounted() {
        eprintln!("BUG: request accounting mismatch — lost or duplicated responses");
        exit(1);
    }
    println!(
        "response accounting: exact ({} submitted, {} resolved)",
        report.total, report.total
    );
    if dump_metrics {
        if let Some(registry) = engine.registry() {
            print!("{}", registry.render_text());
        }
    }
    finish_telemetry(telemetry);
}

/// `bcp profile`: dedicated profiling run — every request traced
/// (sample rate 1 by default), flamegraph + waterfall + attribution
/// artifacts written to `--out`, and the engine's overhead priced against
/// a raw `classify_block` baseline measured in the same process.
fn cmd_profile(args: &Args) {
    use bcp_serve::ServeConfig;
    use bcp_trace::TraceConfig;
    use std::time::Instant;

    let get = |flag: &str, default: usize| -> usize { int_flag(args, flag, default) };
    let workers = get("workers", 2).max(1);
    let clients = get("clients", 8).max(1);
    let requests = get("requests", 40).max(1);
    let n_frames = get("frames", 32).max(1);
    let sample_rate = get("sample-rate", 1).max(1) as u64;
    let out_dir = std::path::PathBuf::from(
        args.flags
            .get("out")
            .map(String::as_str)
            .unwrap_or("profile-out"),
    );

    let registry = bcp_trace::Registry::new();
    let predictor = bench_predictor(args).with_telemetry(registry.clone());
    let frames = bench_frames(&predictor, n_frames, 0x920F);

    let mut cfg = ServeConfig::default();
    cfg.max_batch = get("max-batch", cfg.max_batch).max(1);
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

    let (set, report) = write_trace_artifacts(&tracer, &out_dir, raw_ns);
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

/// Shared flag parsing for `gateway` / `gateway-bench`: shard specs from
/// the bench predictor plus the gateway configuration.
fn gateway_setup(
    args: &Args,
) -> (
    BinaryCoP,
    Vec<bcp_gateway::ShardSpec>,
    bcp_gateway::GatewayConfig,
) {
    use bcp_serve::ServeConfig;
    use std::time::Duration;

    let get = |flag: &str, default: usize| -> usize { int_flag(args, flag, default) };
    let shards = get("shards", 3).max(1);
    let workers = get("workers", 1).max(1);

    let mut cfg = ServeConfig::default();
    cfg.queue_cap = get("queue-cap", cfg.queue_cap).max(1);
    cfg.max_batch = get("max-batch", cfg.max_batch).max(1);
    cfg.policy = policy_flag(args, cfg.policy);

    let predictor = bench_predictor(args);
    let specs = binarycop::gateway::shard_specs(&predictor, shards, workers, cfg);

    let mut gw_cfg = bcp_gateway::GatewayConfig::default();
    if let Some(addr) = args.flags.get("addr") {
        gw_cfg.addr = addr.clone();
    }
    gw_cfg.default_deadline = Duration::from_millis(get("deadline-ms", 2_000) as u64);
    gw_cfg.read_timeout = Duration::from_millis(get("read-timeout-ms", 100) as u64);
    gw_cfg.probe_interval = Duration::from_millis(get("probe-interval-ms", 50) as u64);
    gw_cfg.tenant_policy = bcp_gateway::TenantPolicy {
        rate_per_s: get("tenant-rate", 100_000) as u64,
        burst: get("tenant-burst", 10_000) as u64,
        quota: args.flags.get("tenant-quota").map(|q| {
            q.parse().unwrap_or_else(|_| {
                eprintln!("--tenant-quota needs an integer, got '{q}'");
                exit(2);
            })
        }),
    };
    let s = predictor.arch().input_size;
    gw_cfg.probe_frame = Some(bcp_serve::canary_frame(3, s, s));
    (predictor, specs, gw_cfg)
}

/// `bcp gateway`: stand up the TCP front door and serve until
/// `--duration-s` elapses (0 = forever).
fn cmd_gateway(args: &Args) {
    let (predictor, specs, gw_cfg) = gateway_setup(args);
    let shards = specs.len();
    let registry = bcp_trace::Registry::new();
    let gateway = bcp_gateway::Gateway::start(specs, gw_cfg, Some(registry)).unwrap_or_else(|e| {
        eprintln!("cannot bind gateway: {e}");
        exit(1);
    });
    let s = predictor.arch().input_size;
    println!(
        "gateway listening on {} ({} shards, {s}×{s} input frames)",
        gateway.local_addr(),
        shards,
    );
    let duration_s = int_flag(args, "duration-s", 0);
    if duration_s == 0 {
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    std::thread::sleep(std::time::Duration::from_secs(duration_s as u64));
    gateway.shutdown();
    println!("gateway drained after {duration_s}s");
}

/// `bcp scrub-bench`: measure the guard layer end to end — inject a known
/// fault population, report detection and repair rates against it, and
/// time scrub-interleaved inference against an undefended baseline.
/// Exits non-zero unless every injected fault is both detected and
/// repaired (CRC-32 guarantees this for the per-row flip counts any
/// realistic SEU rate produces).
fn cmd_scrub_bench(args: &Args) {
    use bcp_finn::fault::inject_random_faults;
    use bcp_guard::IntegrityFault;
    use std::collections::HashSet;
    use std::time::Instant;

    let get = |flag: &str, default: usize| -> usize { int_flag(args, flag, default) };
    let faults = get("faults", 64).max(1);
    let seed = get("seed", 7) as u64;
    let n_frames = get("frames", 32).max(1);
    let units_per_frame = get("units", 8).max(1);

    let telemetry = telemetry_of(args);
    let mut predictor = bench_predictor(args);
    if let Some((registry, _)) = &telemetry {
        predictor = predictor.with_telemetry(registry.clone());
    }
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
    use bcp_dataset::{Dataset, GeneratorConfig};
    let gen = GeneratorConfig {
        img_size: predictor.arch().input_size,
        supersample: 2,
    };
    let ds = Dataset::generate_balanced(&gen, n_frames.div_ceil(4), 0x5C2B);
    let frames: Vec<bcp_tensor::Tensor> =
        (0..n_frames.min(ds.len())).map(|i| ds.image(i)).collect();
    // Warm caches first, then time the two loops in alternating rounds so
    // clock drift and cache effects hit both sides equally — otherwise the
    // cold first loop makes the overhead come out negative.
    for f in &frames {
        let _ = predictor.classify(f);
    }
    let mut undefended = std::time::Duration::ZERO;
    let mut defended = std::time::Duration::ZERO;
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

    finish_telemetry(telemetry);
    if detected != expected.len() || repair_pct < 100.0 || residual > 0 || divergent > 0 {
        eprintln!("scrub-bench FAILED: detection or repair below 100%");
        exit(1);
    }
    println!("scrub-bench OK: 100% detection, 100% repair");
}

fn cmd_lint(args: &Args) {
    // Default to the workspace root the binary was built from, so
    // `cargo run -p binarycop --bin bcp -- lint` works from any cwd; CI
    // passes `--root .` explicitly.
    let root = args
        .flags
        .get("root")
        .cloned()
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string());
    let report = bcp_check::lint::lint_workspace(std::path::Path::new(&root));
    if args.flags.contains_key("json") {
        println!(
            "{}",
            serde_json::to_string(&report).expect("report serializes")
        );
    } else {
        print!("{}", report.render_text());
    }
    if !report.is_clean() {
        exit(1);
    }
}

fn cmd_audit(args: &Args) {
    // Same root defaulting as `lint`: the workspace the binary was built
    // from, unless CI passes `--root .`.
    let root = args
        .flags
        .get("root")
        .cloned()
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string());
    let report = bcp_check::audit::audit_workspace(std::path::Path::new(&root));
    if args.flags.contains_key("json") {
        println!(
            "{}",
            serde_json::to_string(&report).expect("report serializes")
        );
    } else {
        print!("{}", report.render_text());
    }
    if !report.is_clean() {
        exit(1);
    }
}

/// Deterministic bench frames regenerable in a child process from
/// `(img_size, n, seed)` alone — the parent ships expected labels, the
/// child rebuilds the identical frames.
fn gateway_bench_frames(img_size: usize, n: usize, seed: u64) -> Vec<bcp_tensor::Tensor> {
    use bcp_dataset::{Dataset, GeneratorConfig};
    let gen = GeneratorConfig {
        img_size,
        supersample: 2,
    };
    let ds = Dataset::generate_balanced(&gen, n.div_ceil(4), seed);
    (0..n.min(ds.len())).map(|i| ds.image(i)).collect()
}

/// Child (loadgen) mode of `gateway-bench`: closed-loop requests against
/// `--connect <addr>`, one `TALLY,…` CSV line on stdout at the end.
fn gateway_bench_client(args: &Args) {
    use bcp_gateway::GatewayClient;

    let addr = required(args, "connect").to_string();
    let get = |flag: &str, default: usize| -> usize { int_flag(args, flag, default) };
    let tenant = get("tenant", 1) as u32;
    let client_id = get("client-id", 0) as u64;
    let requests = get("requests", 50).max(1);
    let img_size = get("img-size", 16).max(4);
    let n_frames = get("frames", 16).max(1);
    let seed = get("seed", 0x6A7E) as u64;
    let spacing = std::time::Duration::from_micros(get("spacing-us", 2_000) as u64);
    let deadline_ms = get("deadline-ms", 2_000) as u32;
    let expect: Vec<u8> = args
        .flags
        .get("expect")
        .map(|csv| {
            csv.split(',')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.parse().unwrap_or_else(|_| {
                        eprintln!("--expect wants a CSV of class labels, got '{s}'");
                        exit(2);
                    })
                })
                .collect()
        })
        .unwrap_or_default();

    let frames = gateway_bench_frames(img_size, n_frames, seed);
    let mut client = GatewayClient::connect(&addr).unwrap_or_else(|e| {
        eprintln!("client {client_id}: cannot connect to {addr}: {e}");
        exit(1);
    });
    let mut tally = bcp_gateway::Tally::default();
    for r in 0..requests {
        let k = r % frames.len();
        let id = (client_id << 32) | r as u64;
        match client.classify(tenant, id, deadline_ms, &frames[k]) {
            Ok(resp) => {
                if resp.request_id != id {
                    eprintln!("client {client_id}: response id mismatch");
                    exit(1);
                }
                tally.record(&resp, expect.get(k).copied());
            }
            Err(_) => tally.record_wire_error(),
        }
        if !spacing.is_zero() {
            std::thread::sleep(spacing);
        }
    }
    let counts: Vec<String> = tally.by_status.iter().map(u64::to_string).collect();
    println!(
        "TALLY,{},{},{}",
        counts.join(","),
        tally.wrong,
        tally.wire_errors
    );
}

/// `bcp gateway-bench`: multi-process closed-loop load against a live
/// gateway, with an optional deterministic chaos plan injected mid-run.
/// Asserts (exit 1 on violation): exactly one response per request, zero
/// wrong answers, exact client↔server counter reconciliation, and — after
/// the chaos window — full recovery (a verification burst must come back
/// all-Ok with correct classes).
fn cmd_gateway_bench(args: &Args) {
    if args.flags.contains_key("connect") {
        return gateway_bench_client(args);
    }
    use bcp_gateway::{chaos, ChaosEvent, ChaosPlan, GatewayClient, Status, Tally};
    use std::time::Instant;

    let get = |flag: &str, default: usize| -> usize { int_flag(args, flag, default) };
    let clients = get("clients", 4).max(1);
    let requests = get("requests", 80).max(1);
    let n_frames = get("frames", 16).max(1);
    let seed = get("seed", 0x6A7E) as u64;
    let spacing_us = get("spacing-us", 2_000);
    let deadline_ms = get("deadline-ms", 2_000);
    let plan = match args.flags.get("chaos") {
        Some(s) => ChaosPlan::parse(s).unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2);
        }),
        None => ChaosPlan::default(),
    };

    let (predictor, specs, gw_cfg) = gateway_setup(args);
    let shards = specs.len();
    let img_size = predictor.arch().input_size;
    let registry = bcp_trace::Registry::new();
    let gateway = bcp_gateway::Gateway::start(specs, gw_cfg.clone(), Some(registry.clone()))
        .unwrap_or_else(|e| {
            eprintln!("cannot bind gateway: {e}");
            exit(1);
        });
    let addr = gateway.local_addr().to_string();

    // Expected labels for the deterministic frame set, computed from the
    // same predictor the shards replicate — the zero-wrong-answers oracle.
    let frames = gateway_bench_frames(img_size, n_frames, seed);
    let expect: Vec<String> = frames
        .iter()
        .map(|f| predictor.classify(f).label().to_string())
        .collect();
    let expect_csv = expect.join(",");

    // Give client i a tenant whose affinity shard is i % shards, so every
    // shard (in particular any chaos-kill target) carries client load.
    let tenant_of: Vec<u32> = (0..clients)
        .map(|i| {
            (0u32..100_000)
                .find(|&t| gateway.router().preference(t).first() == Some(&(i % shards)))
                .unwrap_or(i as u32)
        })
        .collect();

    println!(
        "gateway-bench: {clients} client processes × {requests} requests, {shards} shards on {addr}"
    );
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate own executable: {e}");
        exit(1);
    });
    let t0 = Instant::now();
    let children: Vec<std::process::Child> = (0..clients)
        .map(|i| {
            std::process::Command::new(&exe)
                .args([
                    "gateway-bench",
                    "--connect",
                    &addr,
                    "--client-id",
                    &i.to_string(),
                    "--tenant",
                    &tenant_of[i].to_string(),
                    "--requests",
                    &requests.to_string(),
                    "--img-size",
                    &img_size.to_string(),
                    "--frames",
                    &n_frames.to_string(),
                    "--seed",
                    &seed.to_string(),
                    "--spacing-us",
                    &spacing_us.to_string(),
                    "--deadline-ms",
                    &deadline_ms.to_string(),
                    "--expect",
                    &expect_csv,
                ])
                .stdout(std::process::Stdio::piped())
                .spawn()
                .unwrap_or_else(|e| {
                    eprintln!("cannot spawn loadgen child {i}: {e}");
                    exit(1);
                })
        })
        .collect();

    // Start the chaos clock only once every loadgen child is connected,
    // so plan times land inside the load window regardless of process
    // spawn latency.
    let barrier = Instant::now();
    loop {
        let active = registry
            .snapshot()
            .gauges
            .get("gateway.active_connections")
            .copied()
            .unwrap_or(0.0);
        if active as usize >= clients || barrier.elapsed() > std::time::Duration::from_secs(10) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    // Chaos runs on this thread while the children hammer the door.
    let report = chaos::run(&plan, &gateway);

    let mut violations: Vec<String> = Vec::new();
    let mut merged = Tally::default();
    for (i, child) in children.into_iter().enumerate() {
        let out = child.wait_with_output().unwrap_or_else(|e| {
            eprintln!("loadgen child {i} failed: {e}");
            exit(1);
        });
        if !out.status.success() {
            violations.push(format!("client {i} exited with {}", out.status));
            continue;
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let Some(tally) = stdout.lines().find_map(parse_tally_line) else {
            violations.push(format!("client {i} printed no TALLY line"));
            continue;
        };
        if tally.responses().saturating_add(tally.wire_errors) != requests as u64 {
            violations.push(format!(
                "client {i}: {} responses + {} wire errors != {requests} requests",
                tally.responses(),
                tally.wire_errors
            ));
        }
        merged.merge(&tally);
    }
    let wall = t0.elapsed();

    // Recovery: give the prober time to re-admit revived shards, then a
    // verification burst must come back entirely Ok and correct. The
    // burst runs as a tenant whose affinity is the kill target, so where
    // its responses come from proves the rebalance both ways: a revived
    // shard must rejoin the rotation, a still-dead one must stay out.
    let killed_shards: Vec<usize> = plan
        .events
        .iter()
        .filter_map(|e| match e {
            ChaosEvent::Kill { shard, .. } => Some(*shard),
            _ => None,
        })
        .collect();
    let revived_shards: Vec<usize> = plan
        .events
        .iter()
        .filter_map(|e| match e {
            ChaosEvent::Revive { shard, .. } => Some(*shard),
            _ => None,
        })
        .collect();
    std::thread::sleep(gw_cfg.probe_interval.saturating_mul(4));
    let burst_tenant = match killed_shards.first() {
        Some(&k) => (0u32..100_000)
            .find(|&t| gateway.router().preference(t).first() == Some(&k))
            .unwrap_or(990_001),
        None => 990_001,
    };
    let mut burst = Tally::default();
    let mut burst_shards: Vec<usize> = Vec::new();
    match GatewayClient::connect(&addr) {
        Ok(mut client) => {
            for (k, frame) in frames.iter().enumerate() {
                let id = 0xB00_0000u64 + k as u64;
                match client.classify(burst_tenant, id, deadline_ms as u32, frame) {
                    Ok(resp) => {
                        if resp.status == Status::Ok {
                            burst_shards.push(resp.shard as usize);
                        }
                        burst.record(&resp, expect[k].parse().ok());
                    }
                    Err(_) => burst.record_wire_error(),
                }
            }
        }
        Err(e) => violations.push(format!("verification burst cannot connect: {e}")),
    }
    if burst.count(Status::Ok) != frames.len() as u64 || burst.wrong != 0 {
        violations.push(format!(
            "recovery burst not clean: {} of {} Ok, {} wrong, {} wire errors",
            burst.count(Status::Ok),
            frames.len(),
            burst.wrong,
            burst.wire_errors
        ));
    }
    if let Some(&k) = killed_shards.first() {
        let rejoined = burst_shards.contains(&k);
        if revived_shards.contains(&k) && !rejoined {
            violations.push(format!(
                "shard {k} was revived but did not rejoin the rotation \
                 (burst answered by shards {burst_shards:?})"
            ));
        }
        if !revived_shards.contains(&k) && rejoined {
            violations.push(format!("shard {k} is dead but answered burst requests"));
        }
    }

    // Client-side invariants.
    if merged.wrong != 0 {
        violations.push(format!("{} wrong answers", merged.wrong));
    }
    if merged.wire_errors != 0 {
        violations.push(format!("{} client wire errors", merged.wire_errors));
    }
    if !report.clean() {
        violations.push(format!("chaos report not clean: {}", report.to_json()));
    }

    // Quiesce before auditing the books: engine workers bump serve.*
    // counters after completing a slot, so a snapshot racing the prober's
    // last ticket.wait() would lag shard-side accounting by one.
    gateway.shutdown();

    // Server-side reconciliation against gateway.* / serve.* telemetry.
    let snap = registry.snapshot();
    let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let sent_total = (clients * requests) as u64 + report.flood_sent + frames.len() as u64;
    if count("gateway.frames") != sent_total {
        violations.push(format!(
            "gateway.frames = {} but {sent_total} requests were sent",
            count("gateway.frames")
        ));
    }
    if count("gateway.frames") != count("gateway.responses") {
        violations.push(format!(
            "exactly-one-response broken: {} frames vs {} responses",
            count("gateway.frames"),
            count("gateway.responses")
        ));
    }
    let client_ok = merged
        .count(Status::Ok)
        .saturating_add(report.flood.count(Status::Ok))
        .saturating_add(burst.count(Status::Ok));
    if count("gateway.status.ok") != client_ok {
        violations.push(format!(
            "status ledger mismatch: gateway.status.ok = {} vs {client_ok} client Oks",
            count("gateway.status.ok")
        ));
    }
    let shard_ok: u64 = (0..shards)
        .map(|i| count(&format!("gateway.shard.{i}.ok")))
        .sum();
    if count("serve.ok") != shard_ok {
        violations.push(format!(
            "serve ledger mismatch: serve.ok = {} vs {} shard oks",
            count("serve.ok"),
            shard_ok
        ));
    }
    for &k in &killed_shards {
        if count(&format!("gateway.shard.{k}.killed")) == 0 {
            violations.push(format!(
                "chaos plan killed shard {k} but gateway.shard.{k}.killed is 0"
            ));
        }
    }

    let (p50, p95, p99, samples) = snap
        .histograms
        .get("gateway.latency_ns")
        .map(|h| (h.p50, h.p95, h.p99, h.count))
        .unwrap_or((0, 0, 0, 0));
    let fps = client_ok as f64 / wall.as_secs_f64().max(1e-9);
    println!(
        "throughput: {fps:.1} ok-responses/s over {:.2}s wall",
        wall.as_secs_f64()
    );
    println!(
        "gateway latency: p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms ({samples} samples)",
        p50 as f64 / 1e6,
        p95 as f64 / 1e6,
        p99 as f64 / 1e6,
    );
    println!(
        "outcomes: ok {} throttled {} rejected {} shed {} expired {} no-healthy {} (failovers {}, retries {})",
        count("gateway.status.ok"),
        count("gateway.status.throttled"),
        count("gateway.status.rejected"),
        count("gateway.status.shed"),
        count("gateway.status.deadline_expired"),
        count("gateway.status.no_healthy_shard"),
        count("gateway.failovers"),
        count("gateway.retries"),
    );
    if !killed_shards.is_empty() {
        println!(
            "chaos: {} kills / {} revives, recovery burst {}/{} Ok (answered by shards {:?})",
            report.kills,
            report.revives,
            burst.count(Status::Ok),
            frames.len(),
            burst_shards,
        );
    }

    if let Some(path) = args.flags.get("json-out") {
        let json = format!(
            "{{\"clients\":{clients},\"requests\":{requests},\"shards\":{shards},\
             \"wall_s\":{:.4},\"ok_per_s\":{fps:.2},\
             \"latency_ns\":{{\"p50\":{p50},\"p95\":{p95},\"p99\":{p99},\"count\":{samples}}},\
             \"tally\":{},\"burst\":{},\"chaos\":{},\
             \"failovers\":{},\"retries\":{},\"frames\":{},\"responses\":{},\
             \"violations\":{}}}",
            wall.as_secs_f64(),
            merged.to_json(),
            burst.to_json(),
            report.to_json(),
            count("gateway.failovers"),
            count("gateway.retries"),
            count("gateway.frames"),
            count("gateway.responses"),
            violations.len(),
        );
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1);
        });
        println!("bench artifact: {path}");
    }

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("VIOLATION: {v}");
        }
        exit(1);
    }
    println!("all gateway-bench assertions held");
}

/// Parse a child's `TALLY,…` CSV line back into a [`bcp_gateway::Tally`].
fn parse_tally_line(line: &str) -> Option<bcp_gateway::Tally> {
    let rest = line.strip_prefix("TALLY,")?;
    let fields: Vec<u64> = rest
        .split(',')
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() != 12 {
        return None;
    }
    let mut tally = bcp_gateway::Tally::default();
    tally.by_status.copy_from_slice(&fields[0..10]);
    tally.wrong = fields[10];
    tally.wire_errors = fields[11];
    Some(tally)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let command = raw.first().cloned().unwrap_or_default();
    let args = parse_args(&raw[1.min(raw.len())..]);
    match command.as_str() {
        "check" => cmd_check(&args),
        "train" => cmd_train(&args),
        "deploy" => cmd_deploy(&args),
        "classify" => cmd_classify(&args),
        "info" => cmd_info(&args),
        "demo" => cmd_demo(&args),
        "serve-bench" => cmd_serve_bench(&args),
        "gateway" => cmd_gateway(&args),
        "gateway-bench" => cmd_gateway_bench(&args),
        "profile" => cmd_profile(&args),
        "scrub-bench" => cmd_scrub_bench(&args),
        "lint" => cmd_lint(&args),
        "audit" => cmd_audit(&args),
        _ => {
            eprintln!(
                "usage: bcp <check|train|deploy|classify|info|demo|serve-bench|gateway|gateway-bench|profile|scrub-bench|lint|audit> [flags]"
            );
            eprintln!(
                "  bcp check    --arch ncnv | --all-arches [--device z7020|z7010] \
                 [--target-fps 30] [--fifo-depth 4] [--json]"
            );
            eprintln!("  bcp train    --arch ncnv --out model.json [--per-class 100] [--epochs 8]");
            eprintln!("  bcp deploy   --arch ncnv --model model.json --out accel.json");
            eprintln!("  bcp classify --arch ncnv --accel accel.json face.ppm …");
            eprintln!("  bcp info     --arch ncnv [--accel accel.json]");
            eprintln!("  bcp demo");
            eprintln!(
                "  bcp serve-bench [--arch tiny|cnv|ncnv|ucnv | --arch <a> --accel accel.json] \
                 [--workers 2] [--clients 8] [--requests 50] [--frames 32] [--max-batch 8] \
                 [--queue-cap 64] [--policy block|reject|shed] [--deadline-ms N] \
                 [--dump-metrics]"
            );
            eprintln!(
                "      --max-batch: the most requests a worker pulls off the queue for one batch; \
                 it takes what is queued and never waits for more"
            );
            eprintln!(
                "  bcp gateway  [--arch tiny|…] [--shards 3] [--workers 1] [--addr 127.0.0.1:0] \
                 [--deadline-ms 2000] [--read-timeout-ms 100] [--probe-interval-ms 50] \
                 [--tenant-rate N] [--tenant-burst N] [--tenant-quota N] [--duration-s 0]"
            );
            eprintln!(
                "  bcp gateway-bench [--shards 3] [--workers 1] [--clients 4] [--requests 80] \
                 [--frames 16] [--seed N] [--spacing-us 2000] [--deadline-ms 2000] \
                 [--chaos \"kill:1@150;revive:1@600\"] [--json-out bench.json]"
            );
            eprintln!(
                "  bcp profile  [--arch tiny|cnv|ncnv|ucnv] [--workers 2] [--clients 8] \
                 [--requests 40] [--frames 32] [--sample-rate 1] [--max-batch 8] \
                 [--out profile-out]"
            );
            eprintln!(
                "  bcp scrub-bench [--arch tiny|cnv|ncnv|ucnv] [--faults 64] [--seed 7] \
                 [--frames 32] [--units 8]"
            );
            eprintln!("  bcp lint     [--root <workspace-dir>] [--json]");
            eprintln!(
                "  (train/classify/demo/serve-bench/scrub-bench also take --telemetry <dir> \
                 for JSONL metrics)"
            );
            exit(2);
        }
    }
}
