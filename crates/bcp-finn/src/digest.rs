//! Golden integrity digest of a deployed pipeline's parameter memories.
//!
//! At deploy time every packed weight row and every folded threshold table
//! gets a CRC-32 code ([`bcp_bitpack::checksum`]). The sealed
//! [`GoldenDigest`] captures all of them in one pass; re-verifying against
//! a live pipeline localizes any corruption to a `(stage, row)` coordinate
//! — the detection half of `bcp-guard`'s scrub/repair loop. The digest is
//! read-only after capture: repairs mutate the pipeline back toward the
//! digest, never the digest toward the pipeline.

use crate::pipeline::Pipeline;
use bcp_bitpack::checksum::crc32;
use bcp_bitpack::{ThresholdChannel, ThresholdUnit};
use serde::{Deserialize, Serialize};

/// Integrity codes for one pipeline stage.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageDigest {
    stage: usize,
    name: String,
    rows: usize,
    cols: usize,
    row_crcs: Vec<u32>,
    threshold_crc: Option<u32>,
}

impl StageDigest {
    /// Stage index within the pipeline.
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// Stage name (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Weight rows covered (0 for a weightless stage).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Weight columns per row.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Golden CRC of the stage's threshold table, when it has one.
    pub fn threshold_crc(&self) -> Option<u32> {
        self.threshold_crc
    }
}

/// One detected corruption, localized to the memory it hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
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

/// Sealed golden digest of every parameter memory in a pipeline.
///
/// Capture once at deploy time; `verify` any number of times afterwards.
/// There is no mutator — a digest can only be replaced by re-capturing
/// from a trusted pipeline.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenDigest {
    pipeline: String,
    stages: Vec<StageDigest>,
}

impl GoldenDigest {
    /// Hash every weight row and threshold table of `pipeline`.
    pub fn capture(pipeline: &Pipeline) -> Self {
        let stages = pipeline
            .stages()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let (rows, cols, row_crcs) = match s.weight_matrix() {
                    Some(m) => (m.rows(), m.cols(), m.row_checksums()),
                    None => (0, 0, Vec::new()),
                };
                StageDigest {
                    stage: i,
                    name: s.name().to_string(),
                    rows,
                    cols,
                    row_crcs,
                    threshold_crc: s.threshold_unit().map(|t| crc32(&threshold_bytes(t))),
                }
            })
            .collect();
        GoldenDigest {
            pipeline: pipeline.name().to_string(),
            stages,
        }
    }

    /// Name of the pipeline the digest was captured from.
    pub fn pipeline_name(&self) -> &str {
        &self.pipeline
    }

    /// Per-stage digests, in stage order.
    pub fn stages(&self) -> &[StageDigest] {
        &self.stages
    }

    /// Total weight rows covered across all stages.
    pub fn total_rows(&self) -> usize {
        self.stages.iter().map(|s| s.rows).sum()
    }

    /// Stages carrying a threshold table.
    pub fn thresholded_stages(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| s.threshold_crc.is_some())
            .count()
    }

    /// Re-hash one weight row of the live pipeline and compare against the
    /// golden code. Panics if the stage carries no weights or the pipeline
    /// shape diverged from the captured one (programmer error, not a SEU).
    pub fn verify_row(&self, pipeline: &Pipeline, stage: usize, row: usize) -> bool {
        let d = &self.stages[stage];
        let m = pipeline.stages()[stage]
            .weight_matrix()
            .unwrap_or_else(|| panic!("stage {stage} has no weight memory to verify"));
        assert_eq!(
            (m.rows(), m.cols()),
            (d.rows, d.cols),
            "stage {stage} shape diverged from the golden digest"
        );
        bcp_bitpack::checksum::crc32_words(m.row_words(row)) == d.row_crcs[row]
    }

    /// Re-hash one stage's threshold table and compare. `true` when the
    /// stage has no threshold memory (nothing to corrupt).
    pub fn verify_thresholds(&self, pipeline: &Pipeline, stage: usize) -> bool {
        match (
            self.stages[stage].threshold_crc,
            pipeline.stages()[stage].threshold_unit(),
        ) {
            (Some(golden), Some(t)) => crc32(&threshold_bytes(t)) == golden,
            (None, None) => true,
            _ => panic!("stage {stage} threshold presence diverged from the golden digest"),
        }
    }

    /// Full sweep: every weight row and threshold table, returning each
    /// localized corruption found.
    pub fn verify(&self, pipeline: &Pipeline) -> Vec<IntegrityFault> {
        assert_eq!(
            self.stages.len(),
            pipeline.stages().len(),
            "digest covers {} stages but pipeline has {}",
            self.stages.len(),
            pipeline.stages().len()
        );
        let mut faults = Vec::new();
        for d in &self.stages {
            for row in 0..d.rows {
                if !self.verify_row(pipeline, d.stage, row) {
                    faults.push(IntegrityFault::WeightRow {
                        stage: d.stage,
                        row,
                    });
                }
            }
            if d.threshold_crc.is_some() && !self.verify_thresholds(pipeline, d.stage) {
                faults.push(IntegrityFault::Thresholds { stage: d.stage });
            }
        }
        faults
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;
    use crate::fault::{apply_fault, FaultRecord};
    use crate::folding::Folding;
    use crate::mvtu::{BinaryMvtu, FixedInputMvtu};
    use crate::pipeline::Stage;
    use bcp_bitpack::pack::pack_matrix;

    fn pipeline() -> Pipeline {
        let w = |r: usize, c: usize, seed: u64| {
            let mut s = seed | 1;
            let vals: Vec<f32> = (0..r * c)
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
            "digest-test",
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
    fn clean_pipeline_verifies_clean() {
        let p = pipeline();
        let d = GoldenDigest::capture(&p);
        assert_eq!(d.pipeline_name(), "digest-test");
        assert_eq!(d.total_rows(), 8);
        assert_eq!(d.thresholded_stages(), 1);
        assert!(d.verify(&p).is_empty());
    }

    #[test]
    fn single_flip_is_localized_exactly() {
        let mut p = pipeline();
        let d = GoldenDigest::capture(&p);
        apply_fault(
            &mut p,
            FaultRecord {
                stage: 2,
                row: 3,
                col: 17,
            },
        );
        assert_eq!(
            d.verify(&p),
            vec![IntegrityFault::WeightRow { stage: 2, row: 3 }]
        );
    }

    #[test]
    fn threshold_corruption_is_detected() {
        let mut p = pipeline();
        let d = GoldenDigest::capture(&p);
        p.stage_mut(0).restore_thresholds(ThresholdUnit::new(vec![
            ThresholdChannel::Ge(1),
            ThresholdChannel::Ge(0),
            ThresholdChannel::Ge(0),
            ThresholdChannel::Ge(0),
        ]));
        assert_eq!(d.verify(&p), vec![IntegrityFault::Thresholds { stage: 0 }]);
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
    fn digest_roundtrips_through_serde() {
        let p = pipeline();
        let d = GoldenDigest::capture(&p);
        let json = serde_json::to_string(&d).unwrap();
        let back: GoldenDigest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
        assert!(back.verify(&p).is_empty());
    }
}
