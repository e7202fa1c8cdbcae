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
use bcp_serve::{canary_frame, RecoveryPolicy, Replica, ServeConfig};
use std::sync::Arc;

/// Build `shards` identical shard specs, each serving `workers` guarded
/// replicas of `predictor`. Unless the config already carries them, the
/// integrity canary defaults to a gradient frame at the architecture's
/// input size and worker recovery to [`RecoveryPolicy::default`] — the
/// same defaults as [`crate::guard::guarded_engine`], so a gateway shard
/// self-heals exactly like a single-process engine does.
pub fn shard_specs(
    predictor: &BinaryCoP,
    shards: usize,
    workers: usize,
    mut cfg: ServeConfig,
) -> Vec<ShardSpec> {
    let s = predictor.arch().input_size;
    cfg.canary.get_or_insert_with(|| canary_frame(3, s, s));
    cfg.recovery.get_or_insert_with(RecoveryPolicy::default);
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
}
