//! Deployment images: a serializable snapshot of a built accelerator.
//!
//! The deployed artifact of BinaryCoP is not the training checkpoint but
//! the *accelerator configuration*: packed binary weight memories, integer
//! threshold banks, foldings and stage geometry — the software analogue of
//! the FPGA bitstream. [`PipelineImage`] captures exactly that; loading
//! re-runs the pipeline's structural validation, so a corrupted or
//! hand-edited image cannot produce an inconsistent accelerator silently.

use crate::pipeline::{Pipeline, Stage};
use serde::{Deserialize, Serialize};

/// Serializable snapshot of a [`Pipeline`].
#[derive(Clone, Serialize, Deserialize)]
pub struct PipelineImage {
    /// Image-format version (bump on incompatible layout changes).
    pub version: u32,
    /// Pipeline name.
    pub name: String,
    /// The stage chain, weights and thresholds included.
    pub stages: Vec<Stage>,
}

/// Current image-format version. Version 2: binary maps are channel-last,
/// so every binary conv stage's weight columns and the first dense stage's
/// (when it reads a map wider than one pixel) run (position, channel); a
/// version-1 image's columns run (channel, position) and would misclassify.
pub const IMAGE_VERSION: u32 = 2;

impl PipelineImage {
    /// Snapshot a pipeline.
    pub fn capture(pipeline: &Pipeline) -> Self {
        PipelineImage {
            version: IMAGE_VERSION,
            name: pipeline.name().to_string(),
            stages: pipeline.stages().to_vec(),
        }
    }

    /// Rebuild the pipeline, re-running all structural validation. Panics
    /// (like [`Pipeline::new`]) when the image is inconsistent; returns an
    /// error only for version mismatches.
    pub fn restore(self) -> Result<Pipeline, String> {
        if self.version != IMAGE_VERSION {
            return Err(format!(
                "pipeline image version {} unsupported (expected {IMAGE_VERSION})",
                self.version
            ));
        }
        Ok(Pipeline::new(self.name, self.stages))
    }

    /// Total weight bits carried by the image (the "bitstream" payload).
    pub fn weight_bits(&self) -> u64 {
        self.stages.iter().map(|s| s.plan().weight_bits()).sum()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;
    use crate::data::QuantMap;
    use crate::folding::Folding;
    use crate::mvtu::{BinaryMvtu, FixedInputMvtu};
    use bcp_bitpack::pack::pack_matrix;
    use bcp_bitpack::{ThresholdChannel, ThresholdUnit};

    fn pipeline() -> Pipeline {
        let mut state = 99u64;
        let mut w = |r: usize, c: usize| {
            let vals: Vec<f32> = (0..r * c)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
                    if state >> 61 & 1 == 1 {
                        1.0
                    } else {
                        -1.0
                    }
                })
                .collect();
            pack_matrix(r, c, &vals)
        };
        let t = |r: usize| ThresholdUnit::new(vec![ThresholdChannel::Ge(1); r]);
        Pipeline::new(
            "img-test",
            vec![
                Stage::ConvFixed {
                    name: "conv1".into(),
                    mvtu: FixedInputMvtu::new(w(4, 27), t(4), Folding::new(2, 3)),
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
                    mvtu: BinaryMvtu::new(w(4, 36), None, Folding::sequential()),
                },
            ],
        )
    }

    fn frame() -> QuantMap {
        let px: Vec<f32> = (0..192).map(|i| (i % 256) as f32 / 255.0).collect();
        QuantMap::from_unit_floats(3, 8, 8, &px)
    }

    #[test]
    fn capture_restore_is_bit_exact() {
        let p = pipeline();
        let img = PipelineImage::capture(&p);
        let restored = img.restore().unwrap();
        assert_eq!(p.forward(&frame()), restored.forward(&frame()));
        assert_eq!(restored.name(), "img-test");
    }

    #[test]
    fn json_roundtrip_preserves_behavior() {
        let p = pipeline();
        let json = serde_json::to_string(&PipelineImage::capture(&p)).unwrap();
        let img: PipelineImage = serde_json::from_str(&json).unwrap();
        let restored = img.restore().unwrap();
        assert_eq!(p.forward(&frame()), restored.forward(&frame()));
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut img = PipelineImage::capture(&pipeline());
        img.version = 999;
        assert!(img.restore().is_err());
    }

    #[test]
    fn version_one_images_are_refused() {
        // Version-1 weight columns are in the old CHW window order.
        let mut img = PipelineImage::capture(&pipeline());
        img.version = 1;
        let err = img
            .restore()
            .err()
            .expect("a version-1 image must be refused");
        assert_eq!(err, "pipeline image version 1 unsupported (expected 2)");
    }

    #[test]
    fn weight_bits_counts_payload() {
        let img = PipelineImage::capture(&pipeline());
        assert_eq!(img.weight_bits(), 4 * 27 + 4 * 36);
    }

    #[test]
    #[should_panic(expected = "does not feed")]
    fn corrupted_image_fails_validation() {
        let mut img = PipelineImage::capture(&pipeline());
        img.stages.remove(1); // drop the pool: conv output no longer feeds fc
        let _ = img.restore();
    }
}
