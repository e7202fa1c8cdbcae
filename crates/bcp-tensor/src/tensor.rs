//! Contiguous row-major `f32` tensor.

use crate::par::{self, ELEMENT_WORK};
use crate::shape::Shape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, contiguous, row-major tensor of `f32`.
///
/// Rank-4 tensors follow the NCHW convention. All operations that combine
/// two tensors panic on shape mismatch with a descriptive message — shape
/// errors in this workspace are programming errors, not runtime conditions.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

/// The default tensor is an allocation-free rank-0 placeholder, meant
/// only to be swapped out of a slot (`std::mem::take`) and overwritten.
/// It violates the `numel() == data.len()` invariant of real tensors
/// (an empty `Shape` has `numel() == 1` by the empty product), so it
/// must never be fed into kernels — the serving engine uses it solely
/// to move frames out of requests without cloning.
impl Default for Tensor {
    fn default() -> Self {
        Tensor {
            shape: Shape(Vec::new()),
            data: Vec::new(),
        }
    }
}

impl Tensor {
    /// Tensor of zeros.
    pub fn zeros(shape: Shape) -> Self {
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Tensor filled with `value`.
    pub fn full(shape: Shape, value: f32) -> Self {
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Tensor of ones.
    pub fn ones(shape: Shape) -> Self {
        Self::full(shape, 1.0)
    }

    /// Build from an existing buffer. Panics when the length disagrees with
    /// the shape.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Self {
        // audit: allow(panic): documented construction contract; hot-path
        // callers (the gateway codec) validate len == shape product before
        // building the buffer, so this cannot fire on wire input.
        assert_eq!(
            shape.numel(),
            data.len(),
            "buffer of {} elements cannot back shape {shape}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable flat view of the backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view of the backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element by multi-index.
    #[inline]
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element by multi-index.
    #[inline]
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// Reinterpret with a new shape of identical element count.
    pub fn reshape(mut self, shape: Shape) -> Self {
        assert_eq!(
            self.shape.numel(),
            shape.numel(),
            "cannot reshape {} into {shape}",
            self.shape
        );
        self.shape = shape;
        self
    }

    /// Borrowing variant of [`Tensor::reshape`].
    pub fn reshaped(&self, shape: Shape) -> Self {
        self.clone().reshape(shape)
    }

    /// Apply `f` elementwise, producing a new tensor. Large tensors are
    /// split across outputs ([`par`]): every element is computed whole by
    /// one thread, so the split changes no bit.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Self {
        let n = self.data.len();
        let mut data = vec![0.0; n];
        par::for_each_run(&mut data, 1, n * ELEMENT_WORK, |first, run| {
            for (y, &x) in run.iter_mut().zip(&self.data[first..]) {
                *y = f(x);
            }
        });
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Apply `f` elementwise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combine with `other` elementwise in place, `self[i] = f(self[i],
    /// other[i])`, split across outputs like [`Tensor::map`]: the result
    /// reuses this buffer, so no pass allocates or zeroes one.
    pub fn zip_inplace(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) {
        assert_eq!(
            self.shape, other.shape,
            "zip shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        let n = self.data.len();
        par::for_each_run(&mut self.data, 1, n * ELEMENT_WORK, |first, run| {
            for (a, &b) in run.iter_mut().zip(&other.data[first..]) {
                *a = f(*a, b);
            }
        });
    }

    /// Extract sample `n` of a rank-4 (NCHW) tensor as a rank-3 (CHW) tensor.
    pub fn sample(&self, n: usize) -> Tensor {
        assert_eq!(self.shape.rank(), 4, "sample() requires an NCHW tensor");
        let [bn, c, h, w] = [
            self.shape.dim(0),
            self.shape.dim(1),
            self.shape.dim(2),
            self.shape.dim(3),
        ];
        assert!(n < bn, "sample index {n} out of range (batch {bn})");
        let stride = c * h * w;
        Tensor::from_vec(
            Shape::d3(c, h, w),
            self.data[n * stride..(n + 1) * stride].to_vec(),
        )
    }

    /// Stack rank-3 (CHW) tensors into a rank-4 (NCHW) batch. All samples
    /// must share a shape; panics on an empty input.
    pub fn stack(samples: &[Tensor]) -> Tensor {
        assert!(!samples.is_empty(), "cannot stack zero tensors");
        let s0 = samples[0].shape().clone();
        assert_eq!(s0.rank(), 3, "stack() expects CHW samples");
        let mut data = Vec::with_capacity(samples.len() * s0.numel());
        for s in samples {
            assert_eq!(*s.shape(), s0, "stack shape mismatch");
            data.extend_from_slice(s.as_slice());
        }
        Tensor::from_vec(
            Shape::nchw(samples.len(), s0.dim(0), s0.dim(1), s0.dim(2)),
            data,
        )
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}, ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "{:?})", self.data)
        } else {
            write!(
                f,
                "[{:.4}, {:.4}, …, {:.4}])",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Over the split threshold, with a ragged last run, every element is
    /// still `f` of its own inputs, bit for bit.
    #[test]
    fn split_map_and_zip_match_the_element_loop() {
        let n = par::INLINE_BELOW / ELEMENT_WORK + 3;
        let x = Tensor::from_vec(
            Shape::d1(n),
            (0..n).map(|i| i as f32 * 0.37 - 9.0).collect(),
        );
        let y = x.map(|v| v * v - 1.5);
        let mut z = x.clone();
        z.zip_inplace(&y, |a, b| a.max(b) / 3.0);
        for (i, &v) in x.as_slice().iter().enumerate() {
            assert_eq!(
                y.as_slice()[i].to_bits(),
                (v * v - 1.5).to_bits(),
                "map {i}"
            );
            let want = v.max(v * v - 1.5) / 3.0;
            assert_eq!(z.as_slice()[i].to_bits(), want.to_bits(), "zip {i}");
        }
    }

    #[test]
    fn construction_and_access() {
        let mut t = Tensor::zeros(Shape::d2(2, 3));
        assert_eq!(t.numel(), 6);
        *t.at_mut(&[1, 2]) = 5.0;
        assert_eq!(t.at(&[1, 2]), 5.0);
        assert_eq!(t.as_slice()[5], 5.0);
    }

    #[test]
    #[should_panic(expected = "buffer of 3 elements")]
    fn from_vec_checks_length() {
        Tensor::from_vec(Shape::d2(2, 2), vec![0.0; 3]);
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::from_vec(Shape::d1(3), vec![1.0, -2.0, 3.0]);
        let b = a.map(|x| x * 2.0);
        assert_eq!(b.as_slice(), &[2.0, -4.0, 6.0]);
        let mut c = a.clone();
        c.zip_inplace(&b, |x, y| x + y);
        assert_eq!(c.as_slice(), &[3.0, -6.0, 9.0]);
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::from_vec(Shape::d2(2, 3), (0..6).map(|i| i as f32).collect());
        let r = t.clone().reshape(Shape::d3(3, 2, 1));
        assert_eq!(r.at(&[2, 1, 0]), 5.0);
        assert_eq!(r.reshape(Shape::d2(2, 3)), t);
    }

    #[test]
    fn sample_and_stack_roundtrip() {
        let batch = Tensor::from_vec(Shape::nchw(2, 1, 2, 2), (0..8).map(|i| i as f32).collect());
        let s0 = batch.sample(0);
        let s1 = batch.sample(1);
        assert_eq!(s1.at(&[0, 1, 1]), 7.0);
        let re = Tensor::stack(&[s0, s1]);
        assert_eq!(re, batch);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_rejects_bad_numel() {
        Tensor::zeros(Shape::d1(5)).reshape(Shape::d2(2, 3));
    }
}
