//! End-to-end tests over a real TCP socket: correct answers, per-tenant
//! isolation, hostile-client containment, and the metrics dump.

#![allow(clippy::arithmetic_side_effects)]

use bcp_gateway::{
    chaos, ChaosPlan, Gateway, GatewayClient, GatewayConfig, ShardSpec, Status, TenantPolicy,
};
use bcp_serve::{canary_frame, Replica, ServeConfig, SyntheticReplica};
use std::time::Duration;

fn gateway(shards: usize, cfg: GatewayConfig) -> Gateway {
    let specs = (0..shards)
        .map(|_| ShardSpec::synthetic(2, ServeConfig::default()))
        .collect();
    Gateway::start(specs, cfg, None).expect("bind")
}

fn expected_class(frame: &bcp_tensor::Tensor) -> u8 {
    let mut reference = SyntheticReplica::new();
    reference.infer_batch(std::slice::from_ref(frame))[0].label() as u8
}

#[test]
fn classifies_over_the_wire_with_correct_answers() {
    let gw = gateway(2, GatewayConfig::default());
    let mut client = GatewayClient::connect(gw.local_addr()).unwrap();
    for i in 0..20u64 {
        let frame = canary_frame(3, 8, 8).map(|v| v + (i % 3) as f32);
        let resp = client.classify(7, i, 1_000, &frame).unwrap();
        assert_eq!(resp.request_id, i);
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.class, expected_class(&frame), "request {i}");
    }
    gw.shutdown();
}

#[test]
fn a_dropped_gateway_stops_its_threads() {
    let gw = gateway(2, GatewayConfig::default());
    let addr = gw.local_addr();
    let mut client = GatewayClient::connect(addr).unwrap();
    let frame = canary_frame(3, 8, 8);
    assert_eq!(
        client.classify(7, 1, 1_000, &frame).unwrap().status,
        Status::Ok
    );
    drop(client);
    // No `shutdown()`: dropping joins the accept thread, which closes the
    // listener.
    drop(gw);
    assert!(
        std::net::TcpStream::connect(addr).is_err(),
        "the accept thread still answers on {addr}"
    );
}

#[test]
fn tenants_are_isolated_under_flood() {
    // Tenant 1 gets a starved bucket; tenant 2 a roomy one. Flood as
    // tenant 1 and interleave tenant 2: tenant 2 must never be throttled.
    let cfg = GatewayConfig {
        tenant_overrides: vec![
            (
                1,
                TenantPolicy {
                    rate_per_s: 10,
                    burst: 3,
                    quota: None,
                },
            ),
            (
                2,
                TenantPolicy {
                    rate_per_s: 100_000,
                    burst: 10_000,
                    quota: None,
                },
            ),
        ],
        ..GatewayConfig::default()
    };
    let gw = gateway(1, cfg);
    let frame = canary_frame(3, 8, 8);
    let mut noisy = GatewayClient::connect(gw.local_addr()).unwrap();
    let mut polite = GatewayClient::connect(gw.local_addr()).unwrap();
    let mut throttled = 0u32;
    for i in 0..40u64 {
        let n = noisy.classify(1, i, 1_000, &frame).unwrap();
        if n.status == Status::Throttled {
            throttled += 1;
        }
        let p = polite.classify(2, 1_000 + i, 1_000, &frame).unwrap();
        assert_eq!(p.status, Status::Ok, "polite tenant throttled at {i}");
    }
    assert!(
        throttled > 20,
        "noisy tenant should mostly throttle: {throttled}"
    );
    gw.shutdown();
}

#[test]
fn quota_exhaustion_is_permanent() {
    let cfg = GatewayConfig {
        tenant_overrides: vec![(
            5,
            TenantPolicy {
                rate_per_s: 100_000,
                burst: 1_000,
                quota: Some(4),
            },
        )],
        ..GatewayConfig::default()
    };
    let gw = gateway(1, cfg);
    let frame = canary_frame(3, 8, 8);
    let mut client = GatewayClient::connect(gw.local_addr()).unwrap();
    let mut tally = [0u32; 2];
    for i in 0..10u64 {
        let resp = client.classify(5, i, 1_000, &frame).unwrap();
        match resp.status {
            Status::Ok => tally[0] += 1,
            Status::QuotaExhausted => tally[1] += 1,
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert_eq!(tally, [4, 6]);
    gw.shutdown();
}

#[test]
fn hostile_clients_do_not_stall_polite_ones() {
    let cfg = GatewayConfig {
        read_timeout: Duration::from_millis(50),
        ..GatewayConfig::default()
    };
    let gw = gateway(1, cfg);
    let plan = ChaosPlan::parse("garbage@0;slowloris@0+150;disconnect@0;garbage@5").unwrap();
    let report = std::thread::scope(|s| {
        let chaos_thread = s.spawn(|| chaos::run(&plan, &gw));
        // Polite traffic concurrent with every injection.
        let mut client = GatewayClient::connect(gw.local_addr()).unwrap();
        let frame = canary_frame(3, 8, 8);
        for i in 0..50u64 {
            let resp = client.classify(3, i, 2_000, &frame).unwrap();
            assert_eq!(resp.status, Status::Ok, "polite request {i} failed");
        }
        chaos_thread.join().unwrap()
    });
    assert!(
        report.clean(),
        "chaos report not clean: {}",
        report.to_json()
    );
    assert_eq!(report.garbage_rejected, 2);
    assert_eq!(report.slowloris_cut, 1);
    assert_eq!(report.disconnects, 1);

    // The server accounted for each hostile connection the typed way. Each
    // injection returned only after the server's verdict reached it (the
    // `BadRequest`, the cut, the close after a half-close), and the server
    // counts before it answers or closes, so these are exact.
    let m = gw.registry().snapshot();
    let count = |name: &str| m.counters.get(name).copied().unwrap_or(0);
    for (name, want) in [
        ("gateway.decode_errors", 2),
        ("gateway.read_timeouts", 1),
        ("gateway.disconnects", 1),
    ] {
        assert_eq!(count(name), want, "{name}");
    }
    // Exactly-one-response: every decoded frame answered.
    assert_eq!(count("gateway.frames"), count("gateway.responses"));
    gw.shutdown();
}

#[test]
fn metrics_dump_over_the_wire() {
    let gw = gateway(1, GatewayConfig::default());
    let mut client = GatewayClient::connect(gw.local_addr()).unwrap();
    let frame = canary_frame(3, 8, 8);
    for i in 0..5u64 {
        client.classify(1, i, 1_000, &frame).unwrap();
    }
    let text = client.metrics().unwrap();
    assert!(text.contains("gateway.frames"), "dump:\n{text}");
    assert!(text.contains("gateway.responses"), "dump:\n{text}");
    assert!(text.contains("gateway.tenant.1.admitted"), "dump:\n{text}");
    assert!(text.contains("serve.requests"), "dump:\n{text}");
    gw.shutdown();
}

#[test]
fn deadline_budget_is_enforced_end_to_end() {
    // One slow worker (5ms/frame): a 1ms budget must expire, a roomy one
    // must succeed — and the expiry must come back over the wire as a
    // typed status, not a hang.
    let specs = vec![ShardSpec {
        make: std::sync::Arc::new(|| {
            vec![
                Box::new(SyntheticReplica::with_delay(Duration::from_millis(5)))
                    as Box<dyn Replica>,
            ]
        }),
        cfg: ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        },
    }];
    let gw = Gateway::start(specs, GatewayConfig::default(), None).unwrap();
    let mut client = GatewayClient::connect(gw.local_addr()).unwrap();
    let frame = canary_frame(3, 8, 8);
    // Saturate so queueing makes a 1ms budget hopeless.
    let mut expired = 0u32;
    for i in 0..10u64 {
        let resp = client.classify(1, i, 1, &frame).unwrap();
        if resp.status == Status::DeadlineExpired {
            expired += 1;
        }
    }
    assert!(expired > 0, "1ms budget against 5ms compute should expire");
    let roomy = client.classify(1, 99, 5_000, &frame).unwrap();
    assert_eq!(roomy.status, Status::Ok);
    gw.shutdown();
}
