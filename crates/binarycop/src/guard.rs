//! Guarded deployment: BinaryCoP replicas that heal themselves.
//!
//! Plugs `bcp-guard` into the predictor and the serving layer. A
//! [`GuardedReplica`] pairs one deployed pipeline with its own
//! [`Scrubber`] (captured from the pipeline at construction, while it is
//! still trusted); [`guarded_engine`] stands up a `bcp-serve` pool of
//! them, whose repair turns the engine's recovery policy into a way back
//! rather than a countdown to retirement, completing the loop the paper's
//! robustness experiment only measures passively: an SEU is detected at
//! the canary gate, the worker is quarantined, its scrubber restores the
//! golden weights off the hot path, and the worker re-earns rotation
//! through probation — with zero wrong answers served in between.

use crate::predictor::BinaryCoP;
use bcp_dataset::MaskClass;
use bcp_guard::Scrubber;
use bcp_serve::{Engine, Replica, ServeConfig};
use bcp_tensor::Tensor;

impl BinaryCoP {
    /// Build a [`Scrubber`] over this predictor's pipeline (its golden
    /// table of row CRCs and golden copies is captured now, so do this
    /// while the pipeline is trusted). It counts its `guard.scrub.*`
    /// metrics into the predictor's telemetry registry.
    pub fn scrubber(&self) -> Scrubber {
        Scrubber::new(self.pipeline(), self.telemetry())
    }
}

/// One serving replica wrapped with its own integrity scrubber. The
/// scrubber's golden state is captured from the replica's pipeline at
/// construction — each worker can therefore repair itself without
/// coordination, exactly like per-board golden memories would.
pub struct GuardedReplica {
    predictor: BinaryCoP,
    scrubber: Scrubber,
}

impl GuardedReplica {
    /// Wrap a (trusted, freshly deployed) predictor.
    pub fn new(predictor: BinaryCoP) -> Self {
        let scrubber = predictor.scrubber();
        GuardedReplica {
            predictor,
            scrubber,
        }
    }

    /// The wrapped predictor.
    pub fn predictor(&self) -> &BinaryCoP {
        &self.predictor
    }

    /// The replica's scrubber.
    pub fn scrubber(&self) -> &Scrubber {
        &self.scrubber
    }
}

impl Replica for GuardedReplica {
    fn input_dims(&self) -> [usize; 3] {
        self.predictor.input_dims()
    }

    fn input_range(&self) -> std::ops::RangeInclusive<f32> {
        self.predictor.input_range()
    }

    fn infer_batch(&mut self, frames: &[Tensor]) -> Vec<MaskClass> {
        self.predictor.infer_batch(frames)
    }

    fn canary(&self, frame: &Tensor) -> Vec<i64> {
        self.predictor.canary(frame)
    }

    fn inject_faults(&mut self, n: usize, seed: u64) {
        self.predictor.inject_faults(n, seed);
    }

    /// Full scrub sweep against the golden copy. `true` only when the
    /// post-sweep audit comes back clean — the engine then still demands
    /// probation canaries before trusting the worker again.
    fn repair(&mut self) -> bool {
        let report = self.scrubber.full_sweep(self.predictor.pipeline_mut());
        report.faults_repaired == report.faults_detected
            && self.scrubber.audit(self.predictor.pipeline()).is_empty()
    }

    /// Background scrubbing between inference batches.
    fn scrub_tick(&mut self, units: usize) {
        self.scrubber.tick(self.predictor.pipeline_mut(), units);
    }
}

/// Stand up a self-healing serving engine over `workers` guarded
/// replicas. The predictor's telemetry registry receives the engine's
/// `serve.*` metrics and every replica's `predict.*` and `guard.scrub.*`
/// metrics.
pub fn guarded_engine(predictor: &BinaryCoP, workers: usize, cfg: ServeConfig) -> Engine {
    let registry = predictor.telemetry().clone();
    let replicas: Vec<GuardedReplica> = predictor
        .replicate(workers)
        .into_iter()
        .map(GuardedReplica::new)
        .collect();
    Engine::start(replicas, cfg, registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::untrained_predictor;
    use crate::recipe::tiny_arch;
    use bcp_finn::fault::inject_random_faults;
    use bcp_serve::{canary_frame, RecoveryPolicy, WorkerState};
    use std::time::{Duration, Instant};

    fn predictor() -> BinaryCoP {
        untrained_predictor(&tiny_arch(), 5, 6)
    }

    #[test]
    fn digest_detects_and_scrubber_undoes_faults() {
        let mut p = predictor();
        let clean = p.clone();
        let golden = p.scrubber();
        let mut scrubber = p.scrubber();
        assert!(golden.audit(p.pipeline()).is_empty());

        inject_random_faults(p.pipeline_mut(), 16, 0xBAD);
        assert!(!golden.audit(p.pipeline()).is_empty());

        let report = scrubber.full_sweep(p.pipeline_mut());
        assert_eq!(report.faults_repaired, report.faults_detected);
        assert_eq!(report.bits_flipped, 16);
        assert!(golden.audit(p.pipeline()).is_empty());

        let frame = canary_frame(3, 16, 16);
        assert_eq!(Replica::canary(&p, &frame), Replica::canary(&clean, &frame));
    }

    #[test]
    fn guarded_replica_repair_restores_the_canary() {
        let mut r = GuardedReplica::new(predictor());
        let frame = canary_frame(3, 16, 16);
        let golden = r.canary(&frame);
        r.inject_faults(12, 77);
        assert_ne!(r.canary(&frame), golden);
        assert!(r.repair());
        assert_eq!(r.canary(&frame), golden);
    }

    #[test]
    fn guarded_engine_quarantines_repairs_and_reinstates() {
        let p = predictor();
        let cfg = ServeConfig {
            max_batch: 1,
            recovery: RecoveryPolicy {
                probation_passes: 2,
                max_strikes: 3,
            },
            ..ServeConfig::default()
        };
        let e = guarded_engine(&p, 1, cfg);
        let frame = canary_frame(3, 16, 16);
        e.inject_faults(0, 8, 42);
        // The corrupted worker is caught at the canary gate…
        assert!(e.classify(&frame).is_err());
        // …and heals itself back into rotation.
        let deadline = Instant::now() + Duration::from_secs(5);
        while e.worker_state(0) != WorkerState::Healthy && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(e.worker_state(0), WorkerState::Healthy, "worker must heal");
        assert_eq!(e.classify(&frame).ok(), Some(p.classify(&frame)));
    }
}
