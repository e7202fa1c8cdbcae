//! Incremental weight-memory scrubber.
//!
//! Hardware memory scrubbers walk SRAM in the background, re-checking ECC
//! a few words at a time so faults are found before they accumulate. The
//! [`Scrubber`] is the simulator's analogue: it splits a pipeline's
//! parameter memories into *scrub units* — one per packed weight row plus
//! one per folded threshold table — and each [`Scrubber::tick`] verifies
//! the next few units against the sealed golden digest, repairing any
//! mismatch from the compressed golden copy on the spot. Ticks are cheap
//! and bounded, so a serving worker can interleave them between inference
//! batches (`ServeConfig::background_scrub`); a full pass over all units
//! is one *sweep*, and sweep latency is tracked as a histogram.

use crate::golden::GoldenStore;
use bcp_finn::{GoldenDigest, IntegrityFault, Pipeline};
use bcp_trace::{Counter, Histogram, Registry};
use std::time::Instant;

/// One unit of scrub work: small enough to verify between two inference
/// batches without a measurable latency spike.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ScrubUnit {
    /// Re-hash one packed weight row.
    WeightRow { stage: usize, row: usize },
    /// Re-hash one stage's threshold table.
    Thresholds { stage: usize },
}

/// Pre-resolved `guard.scrub.*` telemetry handles.
struct Metrics {
    rows_scanned: Counter,
    faults_detected: Counter,
    faults_repaired: Counter,
    bits_flipped: Counter,
    sweeps: Counter,
    sweep_ns: Histogram,
}

impl Metrics {
    fn new(registry: &Registry) -> Metrics {
        Metrics {
            rows_scanned: registry.counter("guard.scrub.rows_scanned"),
            faults_detected: registry.counter("guard.scrub.faults_detected"),
            faults_repaired: registry.counter("guard.scrub.faults_repaired"),
            bits_flipped: registry.counter("guard.scrub.bits_flipped"),
            sweeps: registry.counter("guard.scrub.sweeps"),
            sweep_ns: registry.histogram("guard.scrub.sweep_ns"),
        }
    }
}

/// What one scrub call found and fixed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Scrub units examined.
    pub units_scanned: u64,
    /// Units whose CRC mismatched the golden digest.
    pub faults_detected: u64,
    /// Units restored to golden content (always equals detections here —
    /// the golden store is assumed intact, as a radiation-hardened or
    /// off-chip copy would be).
    pub faults_repaired: u64,
    /// Individual weight bits flipped back.
    pub bits_flipped: u64,
    /// Full sweeps completed during this call.
    pub sweeps_completed: u64,
}

impl ScrubReport {
    fn absorb(&mut self, other: ScrubReport) {
        self.units_scanned = self.units_scanned.saturating_add(other.units_scanned);
        self.faults_detected = self.faults_detected.saturating_add(other.faults_detected);
        self.faults_repaired = self.faults_repaired.saturating_add(other.faults_repaired);
        self.bits_flipped = self.bits_flipped.saturating_add(other.bits_flipped);
        self.sweeps_completed = self.sweeps_completed.saturating_add(other.sweeps_completed);
    }
}

/// Background integrity scrubber for one pipeline.
///
/// Owns the sealed golden digest (detection) and the compressed golden
/// store (repair); keeps a cursor over the scrub units so work resumes
/// where the last tick stopped.
pub struct Scrubber {
    digest: GoldenDigest,
    store: GoldenStore,
    units: Vec<ScrubUnit>,
    cursor: usize,
    sweep_start: Option<Instant>,
    metrics: Option<Metrics>,
}

impl Scrubber {
    /// Capture golden state from a trusted (freshly deployed) pipeline.
    pub fn new(pipeline: &Pipeline) -> Scrubber {
        let digest = GoldenDigest::capture(pipeline);
        let store = GoldenStore::capture(pipeline);
        let mut units = Vec::new();
        for d in digest.stages() {
            for row in 0..d.rows() {
                units.push(ScrubUnit::WeightRow {
                    stage: d.stage(),
                    row,
                });
            }
            if d.threshold_crc().is_some() {
                units.push(ScrubUnit::Thresholds { stage: d.stage() });
            }
        }
        Scrubber {
            digest,
            store,
            units,
            cursor: 0,
            sweep_start: None,
            metrics: None,
        }
    }

    /// Emit `guard.scrub.*` metrics into `registry`.
    pub fn with_telemetry(mut self, registry: &Registry) -> Scrubber {
        self.metrics = Some(Metrics::new(registry));
        self
    }

    /// Scrub units per full sweep.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// The sealed digest captured at construction.
    pub fn digest(&self) -> &GoldenDigest {
        &self.digest
    }

    /// The compressed golden copy captured at construction.
    pub fn store(&self) -> &GoldenStore {
        &self.store
    }

    /// Detection-only pass over the whole pipeline (no repair, no cursor
    /// movement).
    pub fn audit(&self, pipeline: &Pipeline) -> Vec<IntegrityFault> {
        self.digest.verify(pipeline)
    }

    /// Verify-and-repair the next `n` scrub units, wrapping at the end of
    /// the memory (one wrap = one completed sweep, recorded in the
    /// `guard.scrub.sweep_ns` histogram).
    pub fn tick(&mut self, pipeline: &mut Pipeline, n: usize) -> ScrubReport {
        let mut report = ScrubReport::default();
        if self.units.is_empty() {
            return report;
        }
        for _ in 0..n {
            if self.cursor == 0 && self.sweep_start.is_none() {
                self.sweep_start = Some(Instant::now());
            }
            report.absorb(self.scan_unit(pipeline, self.units[self.cursor]));
            report.units_scanned = report.units_scanned.saturating_add(1);
            let next = self.cursor.saturating_add(1);
            if next >= self.units.len() {
                self.cursor = 0;
                report.sweeps_completed = report.sweeps_completed.saturating_add(1);
                if let Some(started) = self.sweep_start.take() {
                    if let Some(m) = &self.metrics {
                        m.sweeps.inc();
                        m.sweep_ns.record_duration(started.elapsed());
                    }
                }
            } else {
                self.cursor = next;
            }
        }
        report
    }

    /// One complete sweep from the current cursor position.
    pub fn full_sweep(&mut self, pipeline: &mut Pipeline) -> ScrubReport {
        self.tick(pipeline, self.units.len())
    }

    /// Repair one localized fault (as returned by [`Scrubber::audit`]).
    /// Returns the bits flipped back (0 for a threshold restore, whose
    /// grain is the whole table).
    pub fn repair(&self, pipeline: &mut Pipeline, fault: IntegrityFault) -> u64 {
        match fault {
            IntegrityFault::WeightRow { stage, row } => {
                self.store.repair_row(pipeline, stage, row) as u64
            }
            IntegrityFault::Thresholds { stage } => {
                self.store.repair_thresholds(pipeline, stage);
                0
            }
        }
    }

    fn scan_unit(&self, pipeline: &mut Pipeline, unit: ScrubUnit) -> ScrubReport {
        let mut report = ScrubReport::default();
        match unit {
            ScrubUnit::WeightRow { stage, row } => {
                if let Some(m) = &self.metrics {
                    m.rows_scanned.inc();
                }
                if !self.digest.verify_row(pipeline, stage, row) {
                    report.faults_detected = 1;
                    let bits = self.store.repair_row(pipeline, stage, row) as u64;
                    report.bits_flipped = bits;
                    assert!(
                        self.digest.verify_row(pipeline, stage, row),
                        "row ({stage}, {row}) still dirty after repair"
                    );
                    report.faults_repaired = 1;
                    if let Some(m) = &self.metrics {
                        m.faults_detected.inc();
                        m.faults_repaired.inc();
                        m.bits_flipped.add(bits);
                    }
                }
            }
            ScrubUnit::Thresholds { stage } => {
                if !self.digest.verify_thresholds(pipeline, stage) {
                    report.faults_detected = 1;
                    self.store.repair_thresholds(pipeline, stage);
                    assert!(
                        self.digest.verify_thresholds(pipeline, stage),
                        "thresholds of stage {stage} still dirty after repair"
                    );
                    report.faults_repaired = 1;
                    if let Some(m) = &self.metrics {
                        m.faults_detected.inc();
                        m.faults_repaired.inc();
                    }
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_bitpack::pack::pack_matrix;
    use bcp_bitpack::{ThresholdChannel, ThresholdUnit};
    use bcp_finn::fault::{apply_burst, inject_random_faults};
    use bcp_finn::folding::Folding;
    use bcp_finn::mvtu::{BinaryMvtu, FixedInputMvtu};
    use bcp_finn::Stage;

    fn pipeline() -> Pipeline {
        let w = |r: usize, c: usize, seed: u64| {
            let mut s = seed | 1;
            let vals: Vec<f32> = (0..r.saturating_mul(c))
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(3);
                    if s >> 60 & 1 == 1 {
                        1.0
                    } else {
                        -1.0
                    }
                })
                .collect();
            pack_matrix(r, c, &vals)
        };
        let t = |r: usize| ThresholdUnit::new(vec![ThresholdChannel::Ge(0); r]);
        Pipeline::new(
            "scrub-test",
            vec![
                Stage::ConvFixed {
                    name: "conv1".into(),
                    mvtu: FixedInputMvtu::new(w(4, 27, 1), t(4), Folding::new(4, 3)),
                    k: 3,
                    in_dims: (3, 8, 8),
                },
                Stage::PoolOr {
                    name: "pool1".into(),
                    k: 2,
                    in_dims: (4, 6, 6),
                },
                Stage::DenseLogits {
                    name: "fc".into(),
                    mvtu: BinaryMvtu::new(w(4, 36, 2), None, Folding::sequential()),
                },
            ],
        )
    }

    #[test]
    fn unit_count_covers_rows_and_threshold_tables() {
        let p = pipeline();
        let s = Scrubber::new(&p);
        // 4 + 4 weight rows, one thresholded stage.
        assert_eq!(s.unit_count(), 9);
    }

    #[test]
    fn clean_sweep_finds_nothing() {
        let mut p = pipeline();
        let mut s = Scrubber::new(&p);
        let r = s.full_sweep(&mut p);
        assert_eq!(r.units_scanned, 9);
        assert_eq!(r.faults_detected, 0);
        assert_eq!(r.sweeps_completed, 1);
    }

    #[test]
    fn one_sweep_repairs_every_injected_fault() {
        let mut p = pipeline();
        let clean = pipeline();
        let mut s = Scrubber::new(&p);
        let records = inject_random_faults(&mut p, 24, 99);
        assert!(!s.audit(&p).is_empty());
        let r = s.full_sweep(&mut p);
        assert_eq!(r.faults_repaired, r.faults_detected);
        assert!(r.faults_detected > 0);
        assert_eq!(r.bits_flipped, records.len() as u64);
        assert!(s.audit(&p).is_empty());
        // Bit-exact restore, not just CRC-happy: forwards agree everywhere.
        let frame = bcp_finn::QuantMap::from_unit_floats(
            3,
            8,
            8,
            &(0..192)
                .map(|i| (i % 256) as f32 / 255.0)
                .collect::<Vec<_>>(),
        );
        assert_eq!(p.forward(&frame), clean.forward(&frame));
    }

    #[test]
    fn incremental_ticks_cover_the_memory_and_wrap() {
        let mut p = pipeline();
        let mut s = Scrubber::new(&p);
        apply_burst(&mut p, 2, 1, 30, 3).unwrap();
        // 3 units per tick: fault in stage 2 row 1 (unit index 6) is found
        // on the third tick.
        assert_eq!(s.tick(&mut p, 3).faults_detected, 0);
        assert_eq!(s.tick(&mut p, 3).faults_detected, 0);
        let r = s.tick(&mut p, 3);
        assert_eq!(r.faults_detected, 1);
        assert_eq!(r.bits_flipped, 3);
        assert_eq!(r.sweeps_completed, 1);
        // Next sweep is clean.
        assert_eq!(s.full_sweep(&mut p).faults_detected, 0);
    }

    #[test]
    fn threshold_corruption_is_scrubbed_back() {
        let mut p = pipeline();
        let mut s = Scrubber::new(&p);
        p.stage_mut(0).restore_thresholds(ThresholdUnit::new(vec![
            ThresholdChannel::Ge(7),
            ThresholdChannel::Ge(0),
            ThresholdChannel::Ge(0),
            ThresholdChannel::Ge(0),
        ]));
        let r = s.full_sweep(&mut p);
        assert_eq!(r.faults_detected, 1);
        assert_eq!(r.faults_repaired, 1);
        assert_eq!(r.bits_flipped, 0);
        assert!(s.audit(&p).is_empty());
    }

    #[test]
    fn telemetry_counters_track_the_report() {
        let registry = Registry::new();
        let mut p = pipeline();
        let mut s = Scrubber::new(&p).with_telemetry(&registry);
        inject_random_faults(&mut p, 8, 5);
        let r = s.full_sweep(&mut p);
        assert_eq!(
            registry.counter("guard.scrub.faults_detected").get(),
            r.faults_detected
        );
        assert_eq!(
            registry.counter("guard.scrub.faults_repaired").get(),
            r.faults_repaired
        );
        assert_eq!(registry.counter("guard.scrub.rows_scanned").get(), 8);
        assert_eq!(registry.counter("guard.scrub.sweeps").get(), 1);
        assert_eq!(registry.counter("guard.scrub.bits_flipped").get(), 8);
    }
}
