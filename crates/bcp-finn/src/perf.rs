//! Timing model: latency, initiation interval, throughput.

use crate::plan::StagePlan;
use serde::{Deserialize, Serialize};

/// Clock model for a synthesized design. All BinaryCoP prototypes target
/// 100 MHz (Sec. IV-B).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ClockModel {
    /// Clock frequency in Hz.
    pub hz: f64,
}

/// The paper's 100 MHz target clock.
pub const CLOCK_100MHZ: ClockModel = ClockModel { hz: 100.0e6 };

/// Performance summary of a pipeline under a clock.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfReport {
    /// Initiation interval: cycles between frame completions when the
    /// pipeline is full (= slowest stage's per-frame cycles).
    pub initiation_interval: u64,
    /// Single-frame latency in cycles (sum over stages).
    pub latency_cycles: u64,
    /// Frames per second at steady state (pipeline full).
    pub throughput_fps: f64,
    /// Single-frame latency in microseconds.
    pub latency_us: f64,
    /// Per-stage cycles (diagnostics for throughput matching).
    pub stage_cycles: Vec<u64>,
}

impl ClockModel {
    /// Analyze a stage plan (`Pipeline::plan`, or the checker's plan of an
    /// architecture that is not deployed yet). A stage whose cycle count
    /// is undefined or overflows reads as `u64::MAX`.
    pub fn analyze(&self, plan: &[StagePlan]) -> PerfReport {
        let stage_cycles: Vec<u64> = plan
            .iter()
            .map(|p| p.cycles_per_frame().unwrap_or(u64::MAX))
            .collect();
        let initiation_interval = stage_cycles.iter().copied().max().unwrap_or(1).max(1);
        let latency_cycles: u64 = stage_cycles.iter().sum();
        PerfReport {
            initiation_interval,
            latency_cycles,
            throughput_fps: self.hz / initiation_interval as f64,
            latency_us: latency_cycles as f64 / self.hz * 1e6,
            stage_cycles,
        }
    }
}

impl PerfReport {
    /// Throughput-match quality: slowest/fastest MVTU stage cycle ratio
    /// (1.0 = perfectly matched; Sec. III-B's dimensioning goal). Pool
    /// stages are excluded — they are never the bottleneck.
    pub fn imbalance(&self) -> f64 {
        let relevant: Vec<u64> = self
            .stage_cycles
            .iter()
            .copied()
            .filter(|&c| c > 64) // ignore trivially cheap stages
            .collect();
        if relevant.is_empty() {
            return 1.0;
        }
        let max = *relevant.iter().max().unwrap() as f64;
        let min = *relevant.iter().min().unwrap() as f64;
        max / min
    }

    /// Time to classify `frames` frames streamed back-to-back, in seconds.
    pub fn batch_seconds(&self, frames: usize, clock: &ClockModel) -> f64 {
        if frames == 0 {
            return 0.0;
        }
        // Fill latency for the first frame, II for each subsequent one.
        let steady = (frames as u64)
            .saturating_sub(1)
            .saturating_mul(self.initiation_interval);
        self.latency_cycles.saturating_add(steady) as f64 / clock.hz
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;
    use crate::data::QuantMap;
    use crate::folding::Folding;
    use crate::mvtu::{BinaryMvtu, FixedInputMvtu};
    use crate::pipeline::{Pipeline, Stage};
    use bcp_bitpack::pack::pack_matrix;
    use bcp_bitpack::{ThresholdChannel, ThresholdUnit};

    fn pipeline() -> Pipeline {
        let w = |r: usize, c: usize| pack_matrix(r, c, &vec![1.0f32; r * c]);
        let t = |r: usize| ThresholdUnit::new(vec![ThresholdChannel::Ge(0); r]);
        Pipeline::new(
            "perf",
            vec![
                Stage::ConvFixed {
                    name: "conv1".into(),
                    mvtu: FixedInputMvtu::new(w(2, 27), t(2), Folding::sequential()),
                    k: 3,
                    in_dims: (3, 6, 6),
                },
                Stage::PoolOr {
                    name: "pool1".into(),
                    k: 2,
                    in_dims: (2, 4, 4),
                },
                Stage::DenseLogits {
                    name: "fc".into(),
                    mvtu: BinaryMvtu::new(w(4, 8), None, Folding::sequential()),
                },
            ],
        )
    }

    #[test]
    fn ii_is_max_stage_latency_is_sum() {
        let r = CLOCK_100MHZ.analyze(&pipeline().plan());
        // conv1: 2·27·16 = 864; pool: 4; fc: 32.
        assert_eq!(r.stage_cycles, vec![864, 4, 32]);
        assert_eq!(r.initiation_interval, 864);
        assert_eq!(r.latency_cycles, 900);
        assert!((r.throughput_fps - 100.0e6 / 864.0).abs() < 1e-6);
    }

    #[test]
    fn batch_time_amortizes_fill() {
        let r = CLOCK_100MHZ.analyze(&pipeline().plan());
        let one = r.batch_seconds(1, &CLOCK_100MHZ);
        let thousand = r.batch_seconds(1000, &CLOCK_100MHZ);
        assert!((one - 900.0 / 100.0e6).abs() < 1e-12);
        // Steady state dominates: per-frame cost → II.
        let per_frame = thousand / 1000.0;
        assert!((per_frame - 864.0 / 100.0e6).abs() < 1e-9 * 900.0);
        assert_eq!(r.batch_seconds(0, &CLOCK_100MHZ), 0.0);
    }

    #[test]
    fn report_consistent_with_execution() {
        // The functional pipeline and the timing model describe the same
        // object; make sure analyze() doesn't disturb execution.
        let p = pipeline();
        let _ = CLOCK_100MHZ.analyze(&p.plan());
        let q = QuantMap::from_unit_floats(3, 6, 6, &vec![0.5f32; 108]);
        assert_eq!(p.forward(&q).len(), 4);
    }

    #[test]
    fn imbalance_ignores_cheap_stages() {
        let r = CLOCK_100MHZ.analyze(&pipeline().plan());
        // Only conv1 (864) exceeds the 64-cycle floor → perfectly "matched".
        assert_eq!(r.imbalance(), 1.0);
    }
}
