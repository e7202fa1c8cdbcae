//! Crowd-scene composition and tiling.
//!
//! Sec. IV-B: the high-performance configuration "can be used to split
//! large crowd images and classify them at a high-rate to detect uncovered
//! faces in a scene." This module builds such scenes — a grid of faces
//! composed into one large frame — and provides the splitter that recovers
//! the per-face tiles the accelerator consumes.

use crate::classes::MaskClass;
use crate::generator::{generate_sample, raw_class_sample, GeneratorConfig};
use bcp_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A composed crowd frame with per-tile ground truth.
#[derive(Clone, Debug)]
pub struct CrowdScene {
    /// The full frame, `3 × (grid·tile) × (grid·tile)`.
    pub image: Tensor,
    /// Faces per side.
    pub grid: usize,
    /// Tile edge length (the network input size).
    pub tile: usize,
    /// Ground-truth class per tile, row-major.
    pub labels: Vec<usize>,
}

/// Compose a `grid × grid` crowd scene. Classes follow the raw
/// MaskedFace-Net distribution (a crowd is not balanced).
pub fn generate_crowd_scene(cfg: &GeneratorConfig, grid: usize, seed: u64) -> CrowdScene {
    assert!(grid > 0, "grid must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let classes: Vec<MaskClass> = (0..grid * grid)
        .map(|_| raw_class_sample(&mut rng))
        .collect();
    let tiles: Vec<(Vec<f32>, usize)> = classes
        .iter()
        .enumerate()
        .map(|(i, &class)| {
            let (img, _) = generate_sample(cfg, class, seed ^ (i as u64 * 2654435761 + 1));
            (img.into_vec(), class.label())
        })
        .collect();

    let t = cfg.img_size;
    let s = grid * t;
    let mut frame = vec![0.0f32; 3 * s * s];
    let mut labels = Vec::with_capacity(grid * grid);
    for (i, (tile, label)) in tiles.into_iter().enumerate() {
        let (gy, gx) = (i / grid, i % grid);
        for ch in 0..3 {
            for y in 0..t {
                let src = &tile[(ch * t + y) * t..(ch * t + y + 1) * t];
                let dst_base = (ch * s + gy * t + y) * s + gx * t;
                frame[dst_base..dst_base + t].copy_from_slice(src);
            }
        }
        labels.push(label);
    }
    CrowdScene {
        image: Tensor::from_vec(Shape::d3(3, s, s), frame),
        grid,
        tile: t,
        labels,
    }
}

impl CrowdScene {
    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.grid * self.grid
    }

    /// True when the scene holds no tiles.
    pub fn is_empty(&self) -> bool {
        self.grid == 0
    }

    /// Split the frame back into row-major CHW tiles — the inverse of the
    /// composition, and the operation the deployment performs on camera
    /// frames.
    pub fn tiles(&self) -> Vec<Tensor> {
        let (t, s) = (self.tile, self.grid * self.tile);
        let src = self.image.as_slice();
        let mut out = Vec::with_capacity(self.len());
        for gy in 0..self.grid {
            for gx in 0..self.grid {
                let mut tile = vec![0.0f32; 3 * t * t];
                for ch in 0..3 {
                    for y in 0..t {
                        let src_base = (ch * s + gy * t + y) * s + gx * t;
                        let dst_base = (ch * t + y) * t;
                        tile[dst_base..dst_base + t].copy_from_slice(&src[src_base..src_base + t]);
                    }
                }
                out.push(Tensor::from_vec(Shape::d3(3, t, t), tile));
            }
        }
        out
    }

    /// Non-compliance statistics: count of tiles per class.
    pub fn class_counts(&self) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GeneratorConfig {
        GeneratorConfig {
            img_size: 16,
            supersample: 2,
        }
    }

    #[test]
    fn scene_dimensions() {
        let scene = generate_crowd_scene(&cfg(), 3, 1);
        assert_eq!(scene.image.shape().dims(), &[3, 48, 48]);
        assert_eq!(scene.len(), 9);
        assert_eq!(scene.labels.len(), 9);
    }

    #[test]
    fn tiling_inverts_composition() {
        let scene = generate_crowd_scene(&cfg(), 2, 3);
        let tiles = scene.tiles();
        assert_eq!(tiles.len(), 4);
        // Each tile must exactly reproduce an independently generated
        // face image? Not directly comparable — but re-composing the tiles
        // must reproduce the frame.
        let t = scene.tile;
        let s = scene.grid * t;
        let mut recomposed = vec![0.0f32; 3 * s * s];
        for (i, tile) in tiles.iter().enumerate() {
            let (gy, gx) = (i / scene.grid, i % scene.grid);
            for ch in 0..3 {
                for y in 0..t {
                    let src = &tile.as_slice()[(ch * t + y) * t..(ch * t + y + 1) * t];
                    let dst = (ch * s + gy * t + y) * s + gx * t;
                    recomposed[dst..dst + t].copy_from_slice(src);
                }
            }
        }
        assert_eq!(recomposed, scene.image.as_slice());
    }

    #[test]
    fn scene_is_deterministic() {
        let a = generate_crowd_scene(&cfg(), 2, 7);
        let b = generate_crowd_scene(&cfg(), 2, 7);
        assert_eq!(a.image, b.image);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn large_scene_is_imbalanced_like_a_crowd() {
        let scene = generate_crowd_scene(&cfg(), 10, 5);
        let counts = scene.class_counts();
        assert_eq!(counts.iter().sum::<usize>(), 100);
        // Correct + Nose dominate under the raw distribution.
        assert!(counts[0] + counts[1] > counts[2] + counts[3]);
    }

    #[test]
    fn tiles_carry_values_on_u8_grid() {
        let scene = generate_crowd_scene(&cfg(), 2, 9);
        for tile in scene.tiles() {
            for &v in tile.as_slice() {
                let k = (v * 255.0).round();
                assert!((v - k / 255.0).abs() < 1e-6);
            }
        }
    }
}
