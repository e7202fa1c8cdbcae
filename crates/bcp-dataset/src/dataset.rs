//! In-memory dataset: generation, balancing, augmentation, splits.

use crate::augment::random_augment;
use crate::classes::MaskClass;
use crate::generator::{generate_sample, raw_class_sample, GeneratorConfig};
use bcp_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A labelled image set (NCHW images on the 8-bit grid + integer labels).
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Images, `N×3×S×S`.
    pub images: Tensor,
    /// One label per image.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Wrap pre-built images/labels (validates counts).
    pub fn new(images: Tensor, labels: Vec<usize>) -> Self {
        assert_eq!(images.shape().rank(), 4, "dataset images must be NCHW");
        assert_eq!(
            images.shape().dim(0),
            labels.len(),
            "image count {} vs label count {}",
            images.shape().dim(0),
            labels.len()
        );
        Dataset { images, labels }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Image edge length.
    pub fn img_size(&self) -> usize {
        self.images.shape().dim(2)
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Sample `i` as a CHW tensor.
    pub fn image(&self, i: usize) -> Tensor {
        self.images.sample(i)
    }

    /// Generate a dataset with MaskedFace-Net's **raw** class imbalance
    /// (51/39/5/5 %).
    pub fn generate_raw(cfg: &GeneratorConfig, n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let classes: Vec<MaskClass> = (0..n).map(|_| raw_class_sample(&mut rng)).collect();
        Self::generate_classes(cfg, &classes, seed)
    }

    /// Generate a **balanced** dataset: `per_class` samples of each class.
    pub fn generate_balanced(cfg: &GeneratorConfig, per_class: usize, seed: u64) -> Dataset {
        let mut classes = Vec::with_capacity(per_class * 4);
        for class in MaskClass::ALL {
            classes.extend(std::iter::repeat_n(class, per_class));
        }
        // Interleave classes so truncated prefixes stay balanced.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA1A);
        for i in (1..classes.len()).rev() {
            classes.swap(i, rng.gen_range(0..=i));
        }
        Self::generate_classes(cfg, &classes, seed)
    }

    fn generate_classes(cfg: &GeneratorConfig, classes: &[MaskClass], seed: u64) -> Dataset {
        let samples: Vec<(Vec<f32>, usize)> = classes
            .iter()
            .enumerate()
            .map(|(i, &class)| {
                let (img, _) = generate_sample(cfg, class, seed.wrapping_add(i as u64 * 7919));
                (img.into_vec(), class.label())
            })
            .collect();
        let s = cfg.img_size;
        let mut data = Vec::with_capacity(classes.len() * 3 * s * s);
        let mut labels = Vec::with_capacity(classes.len());
        for (img, label) in samples {
            data.extend_from_slice(&img);
            labels.push(label);
        }
        Dataset::new(
            Tensor::from_vec(Shape::nchw(classes.len(), 3, s, s), data),
            labels,
        )
    }

    /// The paper's balancing step (Sec. IV-A): randomly subsample the
    /// larger classes down to the smallest class's count.
    pub fn balance_by_subsampling(&self, seed: u64) -> Dataset {
        let counts = self.class_counts();
        let target = *counts.iter().filter(|&&c| c > 0).min().unwrap_or(&0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keep: Vec<usize> = Vec::with_capacity(target * 4);
        for class in 0..4 {
            let mut members: Vec<usize> = (0..self.len())
                .filter(|&i| self.labels[i] == class)
                .collect();
            // Partial Fisher–Yates: choose `target` members uniformly.
            for i in 0..target.min(members.len()) {
                let j = rng.gen_range(i..members.len());
                members.swap(i, j);
            }
            keep.extend_from_slice(&members[..target.min(members.len())]);
        }
        // Shuffle the kept indices so classes interleave.
        for i in (1..keep.len()).rev() {
            keep.swap(i, rng.gen_range(0..=i));
        }
        self.subset(&keep)
    }

    /// Gather a subset by indices.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let (c, h, w) = (
            self.images.shape().dim(1),
            self.images.shape().dim(2),
            self.images.shape().dim(3),
        );
        let stride = c * h * w;
        let src = self.images.as_slice();
        let mut data = Vec::with_capacity(indices.len() * stride);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(&src[i * stride..(i + 1) * stride]);
            labels.push(self.labels[i]);
        }
        Dataset::new(
            Tensor::from_vec(Shape::nchw(indices.len(), c, h, w), data),
            labels,
        )
    }

    /// Append `extra_per_sample` augmented copies of every sample
    /// (labels preserved — the augmentation ops are label-invariant).
    pub fn augmented(&self, extra_per_sample: usize, seed: u64) -> Dataset {
        if extra_per_sample == 0 {
            return self.clone();
        }
        let copies: Vec<(Vec<f32>, usize)> = (0..self.len())
            .flat_map(|i| {
                let img = self.image(i);
                let label = self.labels[i];
                (0..extra_per_sample).map(move |k| {
                    let mut rng = StdRng::seed_from_u64(seed ^ (i as u64) << 20 ^ k as u64);
                    (random_augment(&img, &mut rng).into_vec(), label)
                })
            })
            .collect();
        let (c, h, w) = (
            self.images.shape().dim(1),
            self.images.shape().dim(2),
            self.images.shape().dim(3),
        );
        let total = self.len() + copies.len();
        let mut data = Vec::with_capacity(total * c * h * w);
        data.extend_from_slice(self.images.as_slice());
        let mut labels = self.labels.clone();
        for (img, label) in copies {
            data.extend_from_slice(&img);
            labels.push(label);
        }
        Dataset::new(Tensor::from_vec(Shape::nchw(total, c, h, w), data), labels)
    }

    /// Deterministic shuffled split into (first, second) with `frac` of the
    /// samples in the first part.
    pub fn split(&self, frac: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(
            (0.0..=1.0).contains(&frac),
            "split fraction must be in [0,1]"
        );
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..idx.len()).rev() {
            idx.swap(i, rng.gen_range(0..=i));
        }
        let cut = (self.len() as f64 * frac).round() as usize;
        (self.subset(&idx[..cut]), self.subset(&idx[cut..]))
    }

    /// Network-ready inputs: the 8-bit-grid `[0,1]` images mapped to `[−1, 1]`
    /// (the normalization the first conv layer consumes).
    pub fn normalized_images(&self) -> Tensor {
        self.images.map(|v| 2.0 * v - 1.0)
    }

    /// Render the class-distribution table of Sec. IV-A.
    pub fn distribution_table(&self) -> String {
        let counts = self.class_counts();
        let total = self.len().max(1);
        let mut s = String::from("class                     count    share\n");
        for class in MaskClass::ALL {
            let c = counts[class.label()];
            s.push_str(&format!(
                "{:<24} {:>7} {:>7.1}%\n",
                class.full_name(),
                c,
                100.0 * c as f64 / total as f64
            ));
        }
        s.push_str(&format!("{:<24} {:>7}\n", "total", self.len()));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> GeneratorConfig {
        GeneratorConfig {
            img_size: 16,
            supersample: 2,
        }
    }

    #[test]
    fn raw_generation_is_imbalanced() {
        let ds = Dataset::generate_raw(&small_cfg(), 400, 1);
        assert_eq!(ds.len(), 400);
        let counts = ds.class_counts();
        assert!(
            counts[0] > counts[2] * 3,
            "CMFD should dominate: {counts:?}"
        );
        assert!(
            counts[1] > counts[3] * 3,
            "Nose should dominate: {counts:?}"
        );
    }

    #[test]
    fn balanced_generation_is_exactly_even() {
        let ds = Dataset::generate_balanced(&small_cfg(), 25, 2);
        assert_eq!(ds.len(), 100);
        assert_eq!(ds.class_counts(), [25, 25, 25, 25]);
    }

    #[test]
    fn balancing_subsamples_to_minimum() {
        let ds = Dataset::generate_raw(&small_cfg(), 300, 3);
        let min = *ds.class_counts().iter().min().unwrap();
        let balanced = ds.balance_by_subsampling(4);
        assert_eq!(balanced.class_counts(), [min; 4]);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate_balanced(&small_cfg(), 5, 7);
        let b = Dataset::generate_balanced(&small_cfg(), 5, 7);
        assert_eq!(a.images, b.images);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn augmented_grows_and_preserves_labels() {
        let ds = Dataset::generate_balanced(&small_cfg(), 4, 5);
        let aug = ds.augmented(2, 9);
        assert_eq!(aug.len(), ds.len() * 3);
        let base = ds.class_counts();
        let grown = aug.class_counts();
        for c in 0..4 {
            assert_eq!(grown[c], base[c] * 3);
        }
    }

    #[test]
    fn split_partitions_exactly() {
        let ds = Dataset::generate_balanced(&small_cfg(), 10, 6);
        let (train, test) = ds.split(0.8, 11);
        assert_eq!(train.len(), 32);
        assert_eq!(test.len(), 8);
        // Same label multiset overall.
        let mut all = train.labels.clone();
        all.extend_from_slice(&test.labels);
        all.sort_unstable();
        let mut orig = ds.labels.clone();
        orig.sort_unstable();
        assert_eq!(all, orig);
    }

    #[test]
    fn normalized_images_in_unit_interval() {
        let ds = Dataset::generate_balanced(&small_cfg(), 2, 8);
        let norm = ds.normalized_images();
        for &v in norm.as_slice() {
            assert!((-1.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn distribution_table_mentions_all_classes() {
        let ds = Dataset::generate_balanced(&small_cfg(), 2, 9);
        let table = ds.distribution_table();
        for class in MaskClass::ALL {
            assert!(table.contains(class.full_name()));
        }
        assert!(table.contains("25.0%"));
    }

    #[test]
    #[should_panic(expected = "image count")]
    fn new_validates_counts() {
        Dataset::new(Tensor::zeros(Shape::nchw(2, 3, 4, 4)), vec![0]);
    }
}
