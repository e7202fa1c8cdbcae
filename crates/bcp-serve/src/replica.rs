//! The model-side contract of the engine, and a synthetic implementation.
//!
//! `bcp-serve` is deliberately model-agnostic: it knows how to queue,
//! batch, dispatch, time out and drain, but classification itself is
//! behind the [`Replica`] trait. The real implementation lives in
//! `binarycop` (one deployed `BinaryCoP` pipeline per worker); the
//! [`SyntheticReplica`] here lets the engine's own tests and benches run
//! without dragging in a trained network.

use bcp_dataset::MaskClass;
use bcp_tensor::Tensor;
use std::ops::RangeInclusive;

/// One worker's private copy of the model. Workers own their replica
/// mutably, which is what makes fault isolation possible: a stuck-at fault
/// or panic corrupts exactly one replica, never its siblings.
pub trait Replica: Send + 'static {
    /// The `[channels, height, width]` of the frames this model takes. The
    /// engine refuses any other shape at submit and derives its integrity
    /// canary from it.
    fn input_dims(&self) -> [usize; 3];

    /// The values a frame's pixels may take. The engine refuses a frame
    /// with any value outside it (NaN included) at submit, as it refuses
    /// another shape, so no such frame reaches [`Replica::infer_batch`].
    fn input_range(&self) -> RangeInclusive<f32>;

    /// Classify frames in order, one result per frame.
    fn infer_batch(&mut self, frames: &[Tensor]) -> Vec<MaskClass>;

    /// Raw output for an integrity canary frame. Must be deterministic on
    /// a healthy replica; any weight-memory corruption should perturb it
    /// with high probability (for a BNN, a single bit flip is a full sign
    /// change, so it usually does).
    fn canary(&self, frame: &Tensor) -> Vec<i64>;

    /// Inject `n` random stuck-at faults into this replica's weight
    /// memory (chaos/testing hook; see `bcp_finn::fault`).
    fn inject_faults(&mut self, n: usize, seed: u64);

    /// Attempt to restore this replica's parameter memories to their
    /// deployed content (e.g. a full scrub against a golden copy, as
    /// `bcp-guard` does). Returns `true` when the replica believes it is
    /// clean again; the engine still demands consecutive canary passes
    /// before trusting it. The default cannot self-repair: each attempt
    /// is a strike, and the worker retires once its
    /// [`RecoveryPolicy`](crate::RecoveryPolicy) runs out of them.
    fn repair(&mut self) -> bool {
        false
    }

    /// One increment of background integrity scrubbing: verify (and
    /// repair) up to `units` scrub units. Called between inference batches
    /// when `ServeConfig::background_scrub` is set. Default: no-op.
    fn scrub_tick(&mut self, units: usize) {
        let _ = units;
    }
}

/// Boxed replicas are replicas too: shard pools (`bcp-gateway`) build
/// engines from `Vec<Box<dyn Replica>>` factories so one factory type can
/// stand up heterogeneous pools and rebuild an engine after a shard kill.
impl Replica for Box<dyn Replica> {
    fn input_dims(&self) -> [usize; 3] {
        (**self).input_dims()
    }

    fn input_range(&self) -> RangeInclusive<f32> {
        (**self).input_range()
    }

    fn infer_batch(&mut self, frames: &[Tensor]) -> Vec<MaskClass> {
        (**self).infer_batch(frames)
    }

    fn canary(&self, frame: &Tensor) -> Vec<i64> {
        (**self).canary(frame)
    }

    fn inject_faults(&mut self, n: usize, seed: u64) {
        (**self).inject_faults(n, seed)
    }

    fn repair(&mut self) -> bool {
        (**self).repair()
    }

    fn scrub_tick(&mut self, units: usize) {
        (**self).scrub_tick(units)
    }
}

/// A trivial deterministic "model" for engine tests: 3×8×8 frames in, a
/// class by a hash of their contents out, an optional fixed delay per
/// frame, and fault injection by corrupting its (single) weight.
pub struct SyntheticReplica {
    /// Artificial per-frame compute time, to make saturation reproducible.
    pub delay: std::time::Duration,
    weight: i64,
    /// Whether `repair()` can restore the golden weight (models a replica
    /// backed by a `bcp-guard` golden table).
    repairable: bool,
}

impl SyntheticReplica {
    /// Replica with no artificial delay.
    pub fn new() -> Self {
        SyntheticReplica {
            delay: std::time::Duration::ZERO,
            weight: 1,
            repairable: false,
        }
    }

    /// Replica that spends `delay` per frame.
    pub fn with_delay(delay: std::time::Duration) -> Self {
        SyntheticReplica {
            delay,
            weight: 1,
            repairable: false,
        }
    }

    /// Replica whose `repair()` restores the golden weight — the test
    /// stand-in for a guard-backed model replica.
    pub fn repairable() -> Self {
        SyntheticReplica {
            delay: std::time::Duration::ZERO,
            weight: 1,
            repairable: true,
        }
    }

    fn label(&self, frame: &Tensor) -> usize {
        let mut h = 0xcbf29ce484222325u64;
        for &v in frame.as_slice() {
            h = (h ^ v.to_bits() as u64).wrapping_mul(0x100000001b3);
        }
        (h % 4) as usize
    }
}

impl Default for SyntheticReplica {
    fn default() -> Self {
        Self::new()
    }
}

impl Replica for SyntheticReplica {
    fn input_dims(&self) -> [usize; 3] {
        [3, 8, 8]
    }

    /// Any finite value: the label is a hash of the frame's bits.
    fn input_range(&self) -> RangeInclusive<f32> {
        f32::MIN..=f32::MAX
    }

    fn infer_batch(&mut self, frames: &[Tensor]) -> Vec<MaskClass> {
        frames
            .iter()
            .map(|f| {
                if !self.delay.is_zero() {
                    std::thread::sleep(self.delay);
                }
                MaskClass::from_label(self.label(f))
            })
            .collect()
    }

    fn canary(&self, frame: &Tensor) -> Vec<i64> {
        vec![
            (self.label(frame) as i64).saturating_mul(self.weight),
            self.weight,
        ]
    }

    fn inject_faults(&mut self, n: usize, _seed: u64) {
        if n > 0 {
            self.weight = self.weight.saturating_neg();
        }
    }

    fn repair(&mut self) -> bool {
        if self.repairable {
            self.weight = 1;
        }
        self.repairable
    }

    fn scrub_tick(&mut self, _units: usize) {
        if self.repairable {
            self.weight = 1;
        }
    }
}

/// Deterministic synthetic input frame: a per-channel gradient pattern on
/// the unit grid, suitable as an integrity canary (it exercises every
/// pixel position) or as load-generator traffic.
pub fn canary_frame(channels: usize, height: usize, width: usize) -> Tensor {
    let n = channels.saturating_mul(height).saturating_mul(width);
    let data: Vec<f32> = (0..n)
        .map(|i| (i.saturating_mul(131).saturating_add(17) % 256) as f32 / 255.0)
        .collect();
    Tensor::from_vec(bcp_tensor::Shape::d3(channels, height, width), data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_deterministic() {
        let mut a = SyntheticReplica::new();
        let mut b = SyntheticReplica::new();
        let frames: Vec<Tensor> = (0..6).map(|i| canary_frame(3, 4 + i, 4)).collect();
        assert_eq!(a.infer_batch(&frames), b.infer_batch(&frames));
    }

    #[test]
    fn faults_perturb_the_canary_only() {
        let mut r = SyntheticReplica::new();
        let frame = canary_frame(3, 8, 8);
        let clean = r.canary(&frame);
        r.inject_faults(1, 0);
        assert_ne!(r.canary(&frame), clean);
    }

    #[test]
    fn canary_frame_is_on_the_unit_grid() {
        let f = canary_frame(3, 16, 16);
        assert_eq!(f.shape().dims(), &[3, 16, 16]);
        assert!(f.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}
