//! Shard failure under concurrent client load: kill one engine behind the
//! gateway while eight TCP clients hammer it, and the front door must hold
//! the exactly-one-response contract — every request resolves, no answer is
//! wrong, the killed shard leaves the rotation, and after revival it
//! rejoins within a bounded probe window. The client-side tallies must
//! reconcile *exactly* with the server's `gateway.*`/`serve.*` counters;
//! an off-by-one here is a lost or double-counted response.

#![allow(clippy::arithmetic_side_effects)]

use bcp_gateway::{Gateway, GatewayClient, GatewayConfig, ShardSpec, ShardState, Status, Tally};
use bcp_serve::{canary_frame, Replica, ServeConfig, SyntheticReplica};
use bcp_tensor::Tensor;
use bcp_trace::Registry;
use std::time::Duration;

const SHARDS: usize = 3;
const CLIENTS: usize = 8;
const REQUESTS: usize = 60;
const PROBE: Duration = Duration::from_millis(20);

fn frames() -> Vec<Tensor> {
    (0..6)
        .map(|i| canary_frame(3, 8, 8).map(|v| v + (i % 3) as f32))
        .collect()
}

fn expected_classes(frames: &[Tensor]) -> Vec<u8> {
    let mut reference = SyntheticReplica::new();
    frames
        .iter()
        .map(|f| reference.infer_batch(std::slice::from_ref(f))[0].label() as u8)
        .collect()
}

/// A tenant whose first-preference shard is `shard`, so its load (or the
/// recovery burst) provably exercises that shard.
fn tenant_with_affinity(gw: &Gateway, shard: usize) -> u32 {
    (0u32..100_000)
        .find(|&t| gw.router().preference(t).first() == Some(&shard))
        .expect("some tenant hashes to every shard")
}

#[test]
fn shard_kill_under_load_loses_nothing_and_books_balance() {
    let registry = Registry::new();
    let specs = (0..SHARDS)
        .map(|_| ShardSpec::synthetic(2, ServeConfig::default()))
        .collect();
    let cfg = GatewayConfig {
        probe_interval: PROBE,
        ..GatewayConfig::default()
    };
    let gw = Gateway::start(specs, cfg, Some(registry.clone())).expect("bind");
    let frames = frames();
    let expect = expected_classes(&frames);

    // Spread client affinity across all shards so the kill target is
    // guaranteed to carry live traffic when it dies.
    let tenants: Vec<u32> = (0..CLIENTS)
        .map(|i| tenant_with_affinity(&gw, i % SHARDS))
        .collect();
    let victim = 1usize;

    let merged = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let tenant = tenants[i];
                let addr = gw.local_addr();
                let frames = &frames;
                let expect = &expect;
                s.spawn(move || {
                    let mut client = GatewayClient::connect(addr).expect("connect");
                    let mut tally = Tally::default();
                    for r in 0..REQUESTS {
                        let k = r % frames.len();
                        let id = ((i as u64) << 32) | r as u64;
                        match client.classify(tenant, id, 5_000, &frames[k]) {
                            Ok(resp) => {
                                assert_eq!(resp.request_id, id, "response routed to wrong request");
                                tally.record(&resp, Some(expect[k]));
                            }
                            Err(_) => tally.record_wire_error(),
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    tally
                })
            })
            .collect();

        // Kill the victim mid-run, revive it while load continues.
        std::thread::sleep(Duration::from_millis(15));
        gw.router().shards()[victim].kill();
        assert_eq!(gw.router().shards()[victim].state(), ShardState::Down);
        std::thread::sleep(Duration::from_millis(25));
        gw.router().shards()[victim].revive();

        let mut merged = Tally::default();
        for h in handles {
            merged.merge(&h.join().expect("client thread"));
        }
        merged
    });

    // Every request resolved exactly once, nothing died on the wire, and
    // no Ok carried a wrong class — through a kill *and* a revive.
    let total = (CLIENTS * REQUESTS) as u64;
    assert_eq!(merged.responses(), total, "lost or duplicated responses");
    assert_eq!(merged.wire_errors, 0, "clients saw connection failures");
    assert_eq!(merged.wrong, 0, "a failover produced a wrong answer");
    assert_eq!(
        merged.count(Status::Ok),
        total,
        "non-Ok outcomes: {merged:?}"
    );

    // Rebalance, bounded window: after 4 probe intervals the revived
    // shard must answer its affinity tenant again.
    std::thread::sleep(PROBE * 4);
    let burst_tenant = tenant_with_affinity(&gw, victim);
    let mut client = GatewayClient::connect(gw.local_addr()).expect("connect");
    let mut burst = Tally::default();
    let mut burst_shards = Vec::new();
    for (k, frame) in frames.iter().enumerate() {
        let resp = client
            .classify(burst_tenant, 0xB000 + k as u64, 5_000, frame)
            .expect("burst");
        burst_shards.push(resp.shard as usize);
        burst.record(&resp, Some(expect[k]));
    }
    assert_eq!(burst.count(Status::Ok), frames.len() as u64);
    assert_eq!(burst.wrong, 0);
    assert!(
        burst_shards.contains(&victim),
        "revived shard {victim} never rejoined the rotation: {burst_shards:?}"
    );

    // Quiesce, then audit the books: client-side tallies must reconcile
    // exactly with the gateway's own ledger and the engines' serve.*.
    gw.shutdown();
    let snap = registry.snapshot();
    let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let sent = total + frames.len() as u64;
    assert_eq!(count("gateway.frames"), sent, "decoded frames");
    assert_eq!(
        count("gateway.frames"),
        count("gateway.responses"),
        "exactly-one-response broken"
    );
    let client_ok = merged.count(Status::Ok) + burst.count(Status::Ok);
    assert_eq!(count("gateway.status.ok"), client_ok, "status ledger");
    for status in Status::ALL {
        if status == Status::Ok {
            continue;
        }
        assert_eq!(
            count(&format!("gateway.status.{}", status.name())),
            merged.count(status) + burst.count(status),
            "ledger mismatch for {}",
            status.name()
        );
    }
    // Engines and shards agree (both sides include health probes).
    let shard_ok: u64 = (0..SHARDS)
        .map(|i| count(&format!("gateway.shard.{i}.ok")))
        .sum();
    assert_eq!(count("serve.ok"), shard_ok, "serve ledger");
    assert_eq!(count(&format!("gateway.shard.{victim}.killed")), 1);
    assert_eq!(count(&format!("gateway.shard.{victim}.revived")), 1);
    // The kill rerouted real work: the survivors carried more than an
    // even share while the victim was down.
    let victim_ok = count(&format!("gateway.shard.{victim}.ok"));
    assert!(
        shard_ok - victim_ok > victim_ok,
        "survivors should out-serve the once-dead shard: victim {victim_ok} of {shard_ok}"
    );
}
