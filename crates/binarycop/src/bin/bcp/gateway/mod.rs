//! The gateway family: `gateway` serves the `bcp-gateway` TCP front door;
//! `gateway-bench` ([`bench`]) drives one with client processes (this
//! binary again, in child-client mode) and an optional chaos plan, then
//! audits the books.

mod bench;

pub use bench::gateway_bench;

use crate::cli::{bench_frames, usage_error, Args};
use bcp_gateway::{Gateway, GatewayClient, GatewayConfig, ShardSpec, Tally};
use bcp_serve::ServeConfig;
use binarycop::predictor::BinaryCoP;
use std::process::exit;
use std::time::Duration;

/// Shared flag parsing for `gateway` / `gateway-bench`: shard specs from
/// the bench predictor plus the gateway configuration.
fn setup(args: &Args) -> (BinaryCoP, Vec<ShardSpec>, GatewayConfig) {
    let shards = args.int("shards", 3).max(1);
    let workers = args.int("workers", 1).max(1);

    let mut cfg = ServeConfig::default();
    cfg.queue_cap = args.int("queue-cap", cfg.queue_cap).max(1);
    cfg.max_batch = args.int("max-batch", cfg.max_batch).max(1);
    cfg.policy = args.policy(cfg.policy);

    let predictor = args.bench_predictor();
    let specs = binarycop::gateway::shard_specs(&predictor, shards, workers, cfg);

    let mut gw_cfg = GatewayConfig::default();
    if let Some(addr) = args.get("addr") {
        gw_cfg.addr = addr.to_string();
    }
    let ms = |flag: &str, default: usize| Duration::from_millis(args.int(flag, default) as u64);
    gw_cfg.default_deadline = ms("deadline-ms", 2_000);
    gw_cfg.read_timeout = ms("read-timeout-ms", 100);
    gw_cfg.probe_interval = ms("probe-interval-ms", 50);
    gw_cfg.tenant_policy = bcp_gateway::TenantPolicy {
        rate_per_s: args.int("tenant-rate", 100_000) as u64,
        burst: args.int("tenant-burst", 10_000) as u64,
        quota: args.parse_as("tenant-quota", "an integer"),
    };
    (predictor, specs, gw_cfg)
}

fn start(specs: Vec<ShardSpec>, cfg: GatewayConfig, registry: &bcp_trace::Registry) -> Gateway {
    Gateway::start(specs, cfg, Some(registry.clone())).unwrap_or_else(|e| {
        eprintln!("cannot bind gateway: {e}");
        exit(1);
    })
}

/// `bcp gateway`: stand up the TCP front door and serve until
/// `--duration-s` elapses (0 = forever).
pub fn gateway(args: &Args) {
    let (predictor, specs, gw_cfg) = setup(args);
    let shards = specs.len();
    let gateway = start(specs, gw_cfg, &bcp_trace::Registry::new());
    let s = predictor.arch().input_size;
    println!(
        "gateway listening on {} ({} shards, {s}×{s} input frames)",
        gateway.local_addr(),
        shards,
    );
    let duration_s = args.int("duration-s", 0);
    if duration_s == 0 {
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_secs(duration_s as u64));
    gateway.shutdown();
    println!("gateway drained after {duration_s}s");
}

/// Child-client mode of `gateway-bench` (`--connect <addr>`): closed-loop
/// requests, then one `TALLY,…` CSV line on stdout for the parent.
fn client(args: &Args) {
    let addr = args.required("connect");
    let tenant = args.int("tenant", 1) as u32;
    let client_id = args.int("client-id", 0) as u64;
    let requests = args.int("requests", 50).max(1);
    let img_size = args.int("img-size", 16).max(4);
    let n_frames = args.int("frames", 16).max(1);
    let seed = args.int("seed", 0x6A7E) as u64;
    let spacing = Duration::from_micros(args.int("spacing-us", 2_000) as u64);
    let deadline_ms = args.int("deadline-ms", 2_000) as u32;
    let expect: Vec<u8> = args.get("expect").map_or_else(Vec::new, |csv| {
        let labels = csv.split(',').filter(|s| !s.is_empty());
        labels
            .map(|s| {
                s.parse().unwrap_or_else(|_| {
                    usage_error(format!("--expect wants a CSV of class labels, got '{s}'"))
                })
            })
            .collect()
    });

    let frames = bench_frames(img_size, n_frames, seed);
    let mut client = GatewayClient::connect(addr).unwrap_or_else(|e| {
        eprintln!("client {client_id}: cannot connect to {addr}: {e}");
        exit(1);
    });
    let mut tally = Tally::default();
    for r in 0..requests {
        let k = r % frames.len();
        let id = (client_id << 32) | r as u64;
        match client.classify(tenant, id, deadline_ms, &frames[k]) {
            Ok(resp) if resp.request_id != id => {
                eprintln!("client {client_id}: response id mismatch");
                exit(1);
            }
            Ok(resp) => tally.record(&resp, expect.get(k).copied()),
            Err(_) => tally.record_wire_error(),
        }
        if !spacing.is_zero() {
            std::thread::sleep(spacing);
        }
    }
    let counts: Vec<String> = tally.by_status.iter().map(u64::to_string).collect();
    let (wrong, wire_errors) = (tally.wrong, tally.wire_errors);
    println!("TALLY,{},{wrong},{wire_errors}", counts.join(","));
}

/// Parse a child's `TALLY,…` CSV line back into a [`Tally`].
fn parse_tally_line(line: &str) -> Option<Tally> {
    let fields: Vec<u64> = line
        .strip_prefix("TALLY,")?
        .split(',')
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() != 12 {
        return None;
    }
    let mut tally = Tally::default();
    tally.by_status.copy_from_slice(&fields[0..10]);
    tally.wrong = fields[10];
    tally.wire_errors = fields[11];
    Some(tally)
}
