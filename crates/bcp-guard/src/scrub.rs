//! The scrubber and its golden table: one record per parameter memory.
//!
//! Hardware memory scrubbers walk SRAM in the background, re-checking ECC
//! a few words at a time so faults are found before they accumulate. The
//! [`Scrubber`] is the simulator's analogue. [`Scrubber::new`] walks a
//! trusted pipeline once and records, per stage, a golden copy of the
//! packed weight memory with one CRC-32 per row, and a golden copy of the
//! folded threshold table with the CRC-32 of its [`threshold_bytes`].
//!
//! The CRC is the detector: a unit whose code no longer matches is the
//! fault. The golden copy is the repair source: a dirty row gets exactly
//! its differing bits flipped back through the fault injector's own path
//! ([`try_apply_fault`]), so a repaired row is bit-identical to the
//! deployed one; a dirty threshold table is replaced by its golden clone.
//!
//! The *scrub units* are the table's entries in stage order: each weight
//! row, then the stage's threshold table. Each [`Scrubber::tick`]
//! verifies the next few units, repairing any mismatch on the spot. Ticks
//! are cheap and bounded, so a serving worker can interleave them between
//! inference batches (`ServeConfig::background_scrub`); a full pass over
//! all units is one *sweep*, and sweep latency is tracked as a histogram.

use bcp_bitpack::checksum::{crc32, crc32_words};
use bcp_bitpack::{BitMatrix, ThresholdChannel, ThresholdUnit};
use bcp_finn::fault::{try_apply_fault, FaultRecord};
use bcp_finn::Pipeline;
use bcp_trace::{Counter, Histogram, Registry};
use std::time::Instant;

/// One detected corruption, localized to the memory it hit. The same
/// coordinates name a scrub unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IntegrityFault {
    /// A packed weight row whose CRC no longer matches the golden code.
    WeightRow {
        /// Stage index.
        stage: usize,
        /// Row (output neuron) within the stage's weight matrix.
        row: usize,
    },
    /// A threshold table whose CRC no longer matches.
    Thresholds {
        /// Stage index.
        stage: usize,
    },
}

impl std::fmt::Display for IntegrityFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityFault::WeightRow { stage, row } => {
                write!(f, "weight row {row} of stage {stage} fails its CRC")
            }
            IntegrityFault::Thresholds { stage } => {
                write!(f, "threshold table of stage {stage} fails its CRC")
            }
        }
    }
}

/// Canonical byte serialization of a threshold table, the message its CRC
/// is computed over: one tag byte per channel, plus the little-endian
/// threshold for the comparing variants.
pub fn threshold_bytes(unit: &ThresholdUnit) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(unit.len().saturating_mul(9));
    for ch in unit.channels() {
        match ch {
            ThresholdChannel::Ge(t) => {
                bytes.push(0);
                bytes.extend_from_slice(&t.to_le_bytes());
            }
            ThresholdChannel::Le(t) => {
                bytes.push(1);
                bytes.extend_from_slice(&t.to_le_bytes());
            }
            ThresholdChannel::Const(false) => bytes.push(2),
            ThresholdChannel::Const(true) => bytes.push(3),
        }
    }
    bytes
}

/// The golden record of one stage's parameter memories.
struct Golden {
    /// Packed weight memory and one CRC-32 per row.
    weights: Option<(BitMatrix, Vec<u32>)>,
    /// Folded threshold table and the CRC-32 of its [`threshold_bytes`].
    thresholds: Option<(ThresholdUnit, u32)>,
}

impl Golden {
    fn rows(&self) -> usize {
        self.weights.as_ref().map_or(0, |(m, _)| m.rows())
    }

    /// Scrub units: one per weight row, plus one for the threshold table.
    fn units(&self) -> usize {
        self.rows()
            .saturating_add(usize::from(self.thresholds.is_some()))
    }
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
    /// Units whose CRC mismatched the golden code.
    pub faults_detected: u64,
    /// Units restored to golden content (always equals detections here —
    /// the golden copy is assumed intact, as a radiation-hardened or
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
/// Owns the golden table (one [`Golden`] record per stage, captured once)
/// and a cursor into it, so work resumes where the last tick stopped.
pub struct Scrubber {
    golden: Vec<Golden>,
    /// The next unit to scan, `(stage, k)`: weight row `k` of the stage,
    /// or its threshold table once `k` is past the rows.
    cursor: (usize, usize),
    sweep_start: Option<Instant>,
    metrics: Metrics,
}

impl Scrubber {
    /// Capture the golden table from a trusted (freshly deployed)
    /// pipeline, in one walk over its stages, and resolve the
    /// `guard.scrub.*` metrics in `registry`.
    pub fn new(pipeline: &Pipeline, registry: &Registry) -> Scrubber {
        let golden: Vec<Golden> = pipeline
            .stages()
            .iter()
            .map(|s| Golden {
                weights: s.weight_matrix().map(|m| (m.clone(), m.row_checksums())),
                thresholds: s
                    .threshold_unit()
                    .map(|t| (t.clone(), crc32(&threshold_bytes(t)))),
            })
            .collect();
        let first = golden.iter().position(|g| g.units() > 0).unwrap_or(0);
        Scrubber {
            golden,
            cursor: (first, 0),
            sweep_start: None,
            metrics: Metrics::new(registry),
        }
    }

    /// Scrub units per full sweep.
    pub fn unit_count(&self) -> usize {
        self.golden.iter().map(Golden::units).sum()
    }

    /// Bytes of the golden weight copy (packed words, padding included;
    /// the threshold tables are not counted).
    pub fn golden_bytes(&self) -> usize {
        self.golden
            .iter()
            .filter_map(|g| g.weights.as_ref())
            .map(|(m, _)| m.words().len().saturating_mul(8))
            .sum()
    }

    /// Detection-only pass over the whole pipeline (no repair, no cursor
    /// movement), returning each localized corruption in sweep order.
    pub fn audit(&self, pipeline: &Pipeline) -> Vec<IntegrityFault> {
        assert_eq!(
            self.golden.len(),
            pipeline.stages().len(),
            "golden table covers {} stages but pipeline has {}",
            self.golden.len(),
            pipeline.stages().len()
        );
        self.golden
            .iter()
            .enumerate()
            .flat_map(|(stage, g)| (0..g.units()).map(move |k| self.unit_at(stage, k)))
            .filter(|&unit| !self.unit_is_clean(pipeline, unit))
            .collect()
    }

    /// Re-hash one weight row of the live pipeline and compare against the
    /// golden code. Panics if the stage carries no weights or the pipeline
    /// shape diverged from the captured one (programmer error, not a SEU).
    pub fn verify_row(&self, pipeline: &Pipeline, stage: usize, row: usize) -> bool {
        let (live, _, crcs) = self.golden_weights(pipeline, stage);
        crc32_words(live.row_words(row)) == crcs[row]
    }

    /// Verify-and-repair the next `n` scrub units, wrapping at the end of
    /// the memory (one wrap = one completed sweep, recorded in the
    /// `guard.scrub.sweep_ns` histogram).
    pub fn tick(&mut self, pipeline: &mut Pipeline, n: usize) -> ScrubReport {
        let mut report = ScrubReport::default();
        if self.unit_count() == 0 {
            return report;
        }
        for _ in 0..n {
            let started = *self.sweep_start.get_or_insert_with(Instant::now);
            let (stage, k) = self.cursor;
            report.absorb(self.scan_unit(pipeline, self.unit_at(stage, k)));
            if self.step_cursor() {
                self.sweep_start = None;
                report.sweeps_completed = report.sweeps_completed.saturating_add(1);
                self.metrics.sweeps.inc();
                self.metrics.sweep_ns.record_duration(started.elapsed());
            }
        }
        report
    }

    /// One complete sweep from the current cursor position.
    pub fn full_sweep(&mut self, pipeline: &mut Pipeline) -> ScrubReport {
        self.tick(pipeline, self.unit_count())
    }

    /// Repair one localized fault (as returned by [`Scrubber::audit`]).
    /// A weight row gets exactly its differing bits flipped back through
    /// the fault path (no second weight mutator); a threshold table is
    /// restored from its golden clone. Returns the bits flipped back (0
    /// for a threshold restore, whose grain is the whole table).
    pub fn repair(&self, pipeline: &mut Pipeline, fault: IntegrityFault) -> u64 {
        match fault {
            IntegrityFault::WeightRow { stage, row } => {
                let (live, golden, _) = self.golden_weights(pipeline, stage);
                let diff: Vec<u64> = live
                    .row_words(row)
                    .iter()
                    .zip(golden.row_words(row))
                    .map(|(l, g)| l ^ g)
                    .collect();
                let mut flipped = 0u64;
                for (w_idx, mut bits) in diff.into_iter().enumerate() {
                    while bits != 0 {
                        let col = w_idx
                            .saturating_mul(64)
                            .saturating_add(bits.trailing_zeros() as usize);
                        try_apply_fault(pipeline, FaultRecord { stage, row, col }).expect(
                            "padding is zero in both copies, so every diff bit is a valid column",
                        );
                        flipped = flipped.saturating_add(1);
                        bits &= bits.wrapping_sub(1);
                    }
                }
                flipped
            }
            IntegrityFault::Thresholds { stage } => {
                let (golden, _) = self.golden[stage]
                    .thresholds
                    .as_ref()
                    .unwrap_or_else(|| panic!("stage {stage} has no golden threshold table"));
                pipeline.stage_mut(stage).restore_thresholds(golden.clone());
                0
            }
        }
    }

    /// The live weight memory of `stage`, its golden copy and the row
    /// CRCs. Panics if the stage carries no weights or its shape diverged
    /// from the captured one.
    fn golden_weights<'a>(
        &'a self,
        pipeline: &'a Pipeline,
        stage: usize,
    ) -> (&'a BitMatrix, &'a BitMatrix, &'a [u32]) {
        let live = pipeline.stages()[stage]
            .weight_matrix()
            .unwrap_or_else(|| panic!("stage {stage} has no weight memory"));
        match &self.golden[stage].weights {
            Some((golden, crcs))
                if (golden.rows(), golden.cols()) == (live.rows(), live.cols()) =>
            {
                (live, golden, crcs)
            }
            _ => panic!("stage {stage} shape diverged from the golden table"),
        }
    }

    /// The scrub unit at `k` of `stage`: weight row `k`, or the threshold
    /// table once `k` is past the rows.
    fn unit_at(&self, stage: usize, k: usize) -> IntegrityFault {
        if k < self.golden[stage].rows() {
            IntegrityFault::WeightRow { stage, row: k }
        } else {
            IntegrityFault::Thresholds { stage }
        }
    }

    /// Move the cursor to the next unit in sweep order, skipping stages
    /// with no parameter memory; `true` when it wrapped to the first.
    /// Needs at least one unit.
    fn step_cursor(&mut self) -> bool {
        let (mut stage, mut k) = self.cursor;
        k = k.saturating_add(1);
        let mut wrapped = false;
        while k >= self.golden[stage].units() {
            stage = stage.saturating_add(1);
            k = 0;
            if stage == self.golden.len() {
                stage = 0;
                wrapped = true;
            }
        }
        self.cursor = (stage, k);
        wrapped
    }

    /// Whether one unit still matches its golden CRC.
    fn unit_is_clean(&self, pipeline: &Pipeline, unit: IntegrityFault) -> bool {
        match unit {
            IntegrityFault::WeightRow { stage, row } => self.verify_row(pipeline, stage, row),
            IntegrityFault::Thresholds { stage } => {
                match (
                    &self.golden[stage].thresholds,
                    pipeline.stages()[stage].threshold_unit(),
                ) {
                    (Some((_, crc)), Some(t)) => crc32(&threshold_bytes(t)) == *crc,
                    _ => panic!("stage {stage} threshold presence diverged from the golden table"),
                }
            }
        }
    }

    /// Verify one unit; on a mismatch repair it and re-verify.
    fn scan_unit(&self, pipeline: &mut Pipeline, unit: IntegrityFault) -> ScrubReport {
        let mut report = ScrubReport {
            units_scanned: 1,
            ..ScrubReport::default()
        };
        if let IntegrityFault::WeightRow { .. } = unit {
            self.metrics.rows_scanned.inc();
        }
        if self.unit_is_clean(pipeline, unit) {
            return report;
        }
        let bits = self.repair(pipeline, unit);
        assert!(self.unit_is_clean(pipeline, unit), "{unit} after repair");
        report.faults_detected = 1;
        report.faults_repaired = 1;
        report.bits_flipped = bits;
        let m = &self.metrics;
        m.faults_detected.inc();
        m.faults_repaired.inc();
        m.bits_flipped.add(bits);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_bitpack::pack::pack_matrix;
    use bcp_finn::fault::{apply_burst, apply_fault, inject_random_faults};
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
        let s = Scrubber::new(&p, &Registry::new());
        // 4 + 4 weight rows, one thresholded stage.
        assert_eq!(s.unit_count(), 9);
        // 8 rows of 27 or 36 columns, one 8-byte word each.
        assert_eq!(s.golden_bytes(), 64);
    }

    #[test]
    fn clean_pipeline_verifies_clean() {
        let p = pipeline();
        let s = Scrubber::new(&p, &Registry::new());
        assert!(s.audit(&p).is_empty());
    }

    #[test]
    fn single_flip_is_localized_exactly() {
        let mut p = pipeline();
        let s = Scrubber::new(&p, &Registry::new());
        apply_fault(
            &mut p,
            FaultRecord {
                stage: 2,
                row: 3,
                col: 17,
            },
        );
        assert_eq!(
            s.audit(&p),
            vec![IntegrityFault::WeightRow { stage: 2, row: 3 }]
        );
    }

    #[test]
    fn threshold_corruption_is_detected() {
        let mut p = pipeline();
        let s = Scrubber::new(&p, &Registry::new());
        p.stage_mut(0).restore_thresholds(ThresholdUnit::new(vec![
            ThresholdChannel::Ge(1),
            ThresholdChannel::Ge(0),
            ThresholdChannel::Ge(0),
            ThresholdChannel::Ge(0),
        ]));
        assert_eq!(s.audit(&p), vec![IntegrityFault::Thresholds { stage: 0 }]);
    }

    #[test]
    fn threshold_bytes_distinguish_variants() {
        // Ge(0), Le(0), Const(false), Const(true) must all hash apart.
        let codes: Vec<u32> = [
            ThresholdChannel::Ge(0),
            ThresholdChannel::Le(0),
            ThresholdChannel::Const(false),
            ThresholdChannel::Const(true),
        ]
        .into_iter()
        .map(|ch| crc32(&threshold_bytes(&ThresholdUnit::new(vec![ch]))))
        .collect();
        let unique: std::collections::HashSet<_> = codes.iter().collect();
        assert_eq!(unique.len(), codes.len());
    }

    #[test]
    fn clean_sweep_finds_nothing() {
        let mut p = pipeline();
        let mut s = Scrubber::new(&p, &Registry::new());
        let r = s.full_sweep(&mut p);
        assert_eq!(r.units_scanned, 9);
        assert_eq!(r.faults_detected, 0);
        assert_eq!(r.sweeps_completed, 1);
    }

    #[test]
    fn one_sweep_repairs_every_injected_fault() {
        let mut p = pipeline();
        let clean = pipeline();
        let mut s = Scrubber::new(&p, &Registry::new());
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
        let mut s = Scrubber::new(&p, &Registry::new());
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
        let mut s = Scrubber::new(&p, &Registry::new());
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
        let mut s = Scrubber::new(&p, &registry);
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
