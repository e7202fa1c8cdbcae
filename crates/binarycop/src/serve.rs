//! BinaryCoP behind the `bcp-serve` micro-batching engine.
//!
//! The paper's deployment (Sec. I, IV-B) is continuous: entrance cameras
//! stream frames at an edge accelerator. This module is the glue between
//! that accelerator model and the generic serving layer — it implements
//! [`Replica`] for [`BinaryCoP`] (each worker owns an independent deployed
//! pipeline, taking 3×s×s frames at the architecture's input size) and
//! provides [`engine`] to stand up a pool of replicas.

use crate::predictor::BinaryCoP;
use bcp_dataset::MaskClass;
use bcp_finn::fault::inject_random_faults;
use bcp_serve::{Engine, Replica, ServeConfig};
use bcp_tensor::Tensor;
use std::ops::RangeInclusive;

impl Replica for BinaryCoP {
    fn input_dims(&self) -> [usize; 3] {
        let s = self.arch().input_size;
        [3, s, s]
    }

    /// The unit pixel grid that [`BinaryCoP::quantize`] maps onto 8 bits.
    fn input_range(&self) -> RangeInclusive<f32> {
        0.0..=1.0
    }

    /// Micro-batch dispatch: one in-thread pass through the
    /// register-blocked multi-frame kernel, so a batch of B frames streams
    /// each dense weight row once instead of B times. Bit-identical to
    /// per-frame [`BinaryCoP::classify`].
    fn infer_batch(&mut self, frames: &[Tensor]) -> Vec<MaskClass> {
        self.classify_block(frames)
    }

    /// Raw output logits for `frame` — bit-exact on a healthy pipeline, and
    /// perturbed with high probability by any weight-memory fault (a BNN
    /// bit flip is a full sign change).
    fn canary(&self, frame: &Tensor) -> Vec<i64> {
        self.pipeline().forward(&self.quantize(frame))
    }

    fn inject_faults(&mut self, n: usize, seed: u64) {
        inject_random_faults(self.pipeline_mut(), n, seed);
    }
}

/// Stand up a serving engine over `workers` independent replicas of
/// `predictor`. The predictor's telemetry registry receives the engine's
/// `serve.*` metrics next to the replicas' `predict.*` ones.
pub fn engine(predictor: &BinaryCoP, workers: usize, cfg: ServeConfig) -> Engine {
    let registry = predictor.telemetry().clone();
    Engine::start(predictor.replicate(workers), cfg, registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::untrained_predictor;
    use crate::recipe::tiny_arch;
    use bcp_dataset::{Dataset, GeneratorConfig};
    use bcp_serve::canary_frame;

    fn predictor() -> BinaryCoP {
        untrained_predictor(&tiny_arch(), 5, 6)
    }

    fn images(n: usize) -> Vec<Tensor> {
        let gen = GeneratorConfig {
            img_size: 16,
            supersample: 2,
        };
        let ds = Dataset::generate_balanced(&gen, n.div_ceil(4), 9);
        (0..n).map(|i| ds.image(i)).collect()
    }

    #[test]
    fn served_results_match_direct_classification() {
        let p = predictor();
        let e = engine(&p, 2, ServeConfig::default());
        for img in images(8) {
            assert_eq!(e.classify(&img), Ok(p.classify(&img)));
        }
    }

    #[test]
    fn an_engine_counts_without_any_telemetry_attached() {
        const N: u64 = 12;
        let e = engine(&predictor(), 1, ServeConfig::default());
        for img in images(N as usize) {
            assert!(e.classify(&img).is_ok());
        }
        e.shutdown();
        let snap = e.registry().snapshot();
        assert_eq!(snap.counters["serve.requests"], N);
        assert_eq!(snap.counters["serve.ok"], N);
        assert_eq!(snap.counters["predict.frames"], N);
        assert_eq!(
            snap.histograms["serve.canary_ns"].count, snap.counters["serve.batches"],
            "one timed canary-gate pass per batch"
        );
    }

    #[test]
    fn replica_canary_is_deterministic_and_fault_sensitive() {
        let p = predictor();
        let frame = canary_frame(3, 16, 16);
        let golden = Replica::canary(&p, &frame);
        let mut replicas = p.replicate(2);
        assert_eq!(Replica::canary(&replicas[0], &frame), golden);
        assert_eq!(Replica::canary(&replicas[1], &frame), golden);
        // Faulting one replica leaves its sibling (and the original) clean.
        replicas[0].inject_faults(8, 123);
        assert_ne!(Replica::canary(&replicas[0], &frame), golden);
        assert_eq!(Replica::canary(&replicas[1], &frame), golden);
        assert_eq!(Replica::canary(&p, &frame), golden);
    }
}
