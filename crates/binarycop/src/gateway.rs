//! BinaryCoP behind the `bcp-gateway` TCP front door.
//!
//! The glue mirrors [`crate::serve`] one level up: where `serve::engine`
//! stands up one micro-batching engine, [`shard_specs`] describes N
//! independent engines — each with its own pool of guarded (self-healing)
//! predictor replicas — for the gateway's consistent-hash router to
//! spread tenants across. The spec's factory clones the deployed
//! predictor, which is what makes shard revival after a chaos kill
//! possible: the golden weights live in the spec, not in the dead engine.

use crate::guard::GuardedReplica;
use crate::predictor::BinaryCoP;
use bcp_gateway::ShardSpec;
use bcp_serve::{Replica, ServeConfig};
use std::sync::Arc;

/// Build `shards` identical shard specs, each serving `workers` guarded
/// replicas of `predictor` — the replicas of
/// [`crate::guard::guarded_engine`], so a gateway shard self-heals exactly
/// like a single-process engine does.
pub fn shard_specs(
    predictor: &BinaryCoP,
    shards: usize,
    workers: usize,
    cfg: ServeConfig,
) -> Vec<ShardSpec> {
    let template = Arc::new(predictor.clone());
    (0..shards.max(1))
        .map(|_| {
            let template = Arc::clone(&template);
            ShardSpec {
                make: Arc::new(move || {
                    template
                        .replicate(workers.max(1))
                        .into_iter()
                        .map(|p| Box::new(GuardedReplica::new(p)) as Box<dyn Replica>)
                        .collect()
                }),
                cfg: cfg.clone(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::untrained_predictor;
    use crate::recipe::tiny_arch;
    use bcp_gateway::{Gateway, GatewayClient, GatewayConfig, Status};
    use bcp_serve::canary_frame;

    fn predictor() -> BinaryCoP {
        untrained_predictor(&tiny_arch(), 5, 6)
    }

    #[test]
    fn gateway_answers_match_direct_classification_and_survive_a_kill() {
        let p = predictor();
        let specs = shard_specs(&p, 2, 1, ServeConfig::default());
        let gw = Gateway::start(specs, GatewayConfig::default(), None).unwrap();
        let mut client = GatewayClient::connect(gw.local_addr()).unwrap();
        let s = p.arch().input_size;
        let frames: Vec<_> = (0..6).map(|_| canary_frame(3, s, s)).collect();
        for (i, f) in frames.iter().enumerate() {
            let resp = client.classify(3, i as u64, 2_000, f).unwrap();
            assert_eq!(resp.status, Status::Ok);
            assert_eq!(resp.class as usize, p.classify(f).label());
        }
        // Kill the tenant's affinity shard: same answers, different shard.
        let affinity = gw.router().preference(3)[0];
        gw.router().shards()[affinity].kill();
        for (i, f) in frames.iter().enumerate() {
            let resp = client.classify(3, 100 + i as u64, 2_000, f).unwrap();
            assert_eq!(resp.status, Status::Ok, "post-kill request {i}");
            assert_eq!(resp.class as usize, p.classify(f).label());
            assert_ne!(resp.shard as usize, affinity);
        }
        gw.shutdown();
    }

    #[test]
    fn a_wrong_shaped_frame_reads_bad_request_and_poisons_nothing() {
        let p = predictor();
        let registry = bcp_trace::Registry::new();
        let specs = shard_specs(&p, 2, 1, ServeConfig::default());
        let cfg = GatewayConfig::default();
        let gw = Gateway::start(specs, cfg, Some(registry.clone())).unwrap();
        // With no probe frame configured, the prober sends one the model takes.
        let s = p.arch().input_size;
        assert_eq!(gw.probe_frame().shape().dims(), &[3, s, s]);
        let mut client = GatewayClient::connect(gw.local_addr()).unwrap();
        let resp = client
            .classify(3, 1, 2_000, &canary_frame(3, 8, 8))
            .unwrap();
        assert_eq!(resp.status, Status::BadRequest);
        // The same connection still serves, and correctly.
        let good = canary_frame(3, s, s);
        let resp = client.classify(3, 2, 2_000, &good).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.class as usize, p.classify(&good).label());
        gw.shutdown();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["serve.worker_fault"], 0);
        assert_eq!(snap.counters["gateway.retries"], 0);
    }

    #[test]
    fn an_out_of_range_pixel_reads_bad_request_and_faults_no_worker() {
        let p = predictor();
        let registry = bcp_trace::Registry::new();
        let specs = shard_specs(&p, 2, 1, ServeConfig::default());
        let gw = Gateway::start(specs, GatewayConfig::default(), Some(registry.clone())).unwrap();
        let mut client = GatewayClient::connect(gw.local_addr()).unwrap();
        let s = p.arch().input_size;
        let bad = [2.0, -0.5, 1.0001, f32::NAN, f32::INFINITY];
        for i in 0..10 {
            // A correctly shaped frame with one pixel the quantizer refuses.
            let mut frame = canary_frame(3, s, s);
            frame.as_mut_slice()[i * 37] = bad[i % bad.len()];
            let resp = client.classify(3, i as u64, 2_000, &frame).unwrap();
            assert_eq!(resp.status, Status::BadRequest, "request {i}");
        }
        let good = canary_frame(3, s, s);
        let resp = client.classify(3, 10, 2_000, &good).unwrap();
        assert_eq!(resp.status, Status::Ok);
        gw.shutdown();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["serve.worker_fault"], 0);
        assert_eq!(snap.counters["gateway.retries"], 0);
    }
}
