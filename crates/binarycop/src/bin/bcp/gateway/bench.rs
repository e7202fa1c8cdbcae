//! `gateway-bench`: the parent process of the multi-process chaos bench.

use super::{client, parse_tally_line, setup, start};
use crate::cli::{bench_frames, usage_error, Args};
use bcp_gateway::{chaos, ChaosEvent, ChaosPlan, Gateway, GatewayClient, Status, Tally};
use std::process::exit;
use std::time::{Duration, Instant};

/// The first tenant whose affinity shard is `shard`.
fn tenant_for(gateway: &Gateway, shard: usize) -> Option<u32> {
    (0u32..100_000).find(|&t| gateway.router().preference(t).first() == Some(&shard))
}

/// `bcp gateway-bench`: multi-process closed-loop load against a live
/// gateway, with an optional deterministic chaos plan injected mid-run.
/// Asserts (exit 1 on violation): exactly one response per request, zero
/// wrong answers, exact client↔server counter reconciliation, no worker
/// fault (no chaos event corrupts weights), and — after the chaos window —
/// full recovery (a verification burst must come back all-Ok with correct
/// classes).
pub fn gateway_bench(args: &Args) {
    if args.has("connect") {
        return client(args);
    }
    let clients = args.int("clients", 4).max(1);
    let requests = args.int("requests", 80).max(1);
    let n_frames = args.int("frames", 16).max(1);
    let seed = args.int("seed", 0x6A7E) as u64;
    let spacing_us = args.int("spacing-us", 2_000);
    let deadline_ms = args.int("deadline-ms", 2_000);
    let plan = args.get("chaos").map_or_else(ChaosPlan::default, |s| {
        ChaosPlan::parse(s).unwrap_or_else(|e| usage_error(e))
    });

    let (predictor, specs, gw_cfg) = setup(args);
    let shards = specs.len();
    let img_size = predictor.arch().input_size;
    let registry = bcp_trace::Registry::new();
    let gateway = start(specs, gw_cfg.clone(), &registry);
    let addr = gateway.local_addr().to_string();

    // Expected labels for the deterministic frame set, computed from the
    // same predictor the shards replicate — the zero-wrong-answers oracle.
    let frames = bench_frames(img_size, n_frames, seed);
    let expect: Vec<String> = frames
        .iter()
        .map(|f| predictor.classify(f).label().to_string())
        .collect();

    // Give client i a tenant whose affinity shard is i % shards, so every
    // shard (in particular any chaos-kill target) carries client load.
    let tenant_of: Vec<u32> = (0..clients)
        .map(|i| tenant_for(&gateway, i % shards).unwrap_or(i as u32))
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
            let child_args = format!(
                "gateway-bench --connect {addr} --client-id {i} --tenant {} --requests {requests} \
                 --img-size {img_size} --frames {n_frames} --seed {seed} --spacing-us {spacing_us} \
                 --deadline-ms {deadline_ms} --expect {}",
                tenant_of[i],
                expect.join(",")
            );
            std::process::Command::new(&exe)
                .args(child_args.split(' '))
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
    while barrier.elapsed() <= Duration::from_secs(10) {
        let gauges = registry.snapshot().gauges;
        let active = gauges.get("gateway.active_connections").copied();
        if active.unwrap_or(0.0) as usize >= clients {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
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
    let (mut killed_shards, mut revived_shards) = (Vec::new(), Vec::new());
    for event in &plan.events {
        match *event {
            ChaosEvent::Kill { shard, .. } => killed_shards.push(shard),
            ChaosEvent::Revive { shard, .. } => revived_shards.push(shard),
            _ => {}
        }
    }
    std::thread::sleep(gw_cfg.probe_interval.saturating_mul(4));
    let burst_tenant = killed_shards.first().and_then(|&k| tenant_for(&gateway, k));
    let burst_tenant = burst_tenant.unwrap_or(990_001);
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
    let client_ok = merged
        .count(Status::Ok)
        .saturating_add(report.flood.count(Status::Ok))
        .saturating_add(burst.count(Status::Ok));
    let shard_ok: u64 = (0..shards)
        .map(|i| count(&format!("gateway.shard.{i}.ok")))
        .sum();
    let (frames_in, responses) = (count("gateway.frames"), count("gateway.responses"));
    let ledger = [
        (frames_in != sent_total)
            .then(|| format!("gateway.frames = {frames_in} but {sent_total} requests were sent")),
        (frames_in != responses).then(|| {
            format!("exactly-one-response broken: {frames_in} frames vs {responses} responses")
        }),
        (count("gateway.status.ok") != client_ok).then(|| {
            let ok = count("gateway.status.ok");
            format!("status ledger mismatch: gateway.status.ok = {ok} vs {client_ok} client Oks")
        }),
        (count("serve.ok") != shard_ok).then(|| {
            let ok = count("serve.ok");
            format!("serve ledger mismatch: serve.ok = {ok} vs {shard_ok} shard oks")
        }),
        (count("serve.worker_fault") != 0).then(|| {
            let faults = count("serve.worker_fault");
            format!("serve.worker_fault = {faults}, but no chaos event corrupts weights")
        }),
    ];
    violations.extend(ledger.into_iter().flatten());
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
    let wall_s = wall.as_secs_f64();
    println!("throughput: {fps:.1} ok-responses/s over {wall_s:.2}s wall");
    let ms = |ns: u64| ns as f64 / 1e6;
    println!(
        "gateway latency: p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms ({samples} samples)",
        ms(p50),
        ms(p95),
        ms(p99),
    );
    let status = |s: &str| count(&format!("gateway.status.{s}"));
    println!(
        "outcomes: ok {} throttled {} rejected {} shed {} expired {} no-healthy {} (failovers {}, retries {})",
        status("ok"),
        status("throttled"),
        status("rejected"),
        status("shed"),
        status("deadline_expired"),
        status("no_healthy_shard"),
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

    if let Some(path) = args.get("json-out") {
        let json = format!(
            "{{\"clients\":{clients},\"requests\":{requests},\"shards\":{shards},\
             \"wall_s\":{wall_s:.4},\"ok_per_s\":{fps:.2},\
             \"latency_ns\":{{\"p50\":{p50},\"p95\":{p95},\"p99\":{p99},\"count\":{samples}}},\
             \"tally\":{},\"burst\":{},\"chaos\":{},\
             \"failovers\":{},\"retries\":{},\"frames\":{frames_in},\"responses\":{responses},\
             \"violations\":{}}}",
            merged.to_json(),
            burst.to_json(),
            report.to_json(),
            count("gateway.failovers"),
            count("gateway.retries"),
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
