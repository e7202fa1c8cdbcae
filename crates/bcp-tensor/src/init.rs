//! Seeded weight initializers.
//!
//! Every initializer takes an explicit seed so training runs — and therefore
//! every experiment table in EXPERIMENTS.md — are reproducible bit-for-bit.
//!
//! [`normal`] follows the thread rule of [`crate::par`]: the uniforms are
//! drawn in stream order on one thread, and only the Box–Muller transform,
//! whose every pair is an output of its own, is split across threads.

use crate::par;
use crate::shape::Shape;
use crate::tensor::Tensor;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One Box–Muller pair (`ln`, `sqrt`, `cos`, `sin`) costs ≈ 20 ns, about
/// as much as 512 multiply-adds of the GEMM tile: its weight in the
/// [`par::INLINE_BELOW`] budget.
const PAIR_WORK: usize = 512;

/// Uniform samples in `[lo, hi)`.
pub fn uniform(shape: Shape, lo: f32, hi: f32, seed: u64) -> Tensor {
    assert!(lo < hi, "uniform requires lo < hi (got {lo}..{hi})");
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = Uniform::new(lo, hi);
    let n = shape.numel();
    let data: Vec<f32> = (0..n).map(|_| dist.sample(&mut rng)).collect();
    Tensor::from_vec(shape, data)
}

/// Standard-normal samples scaled by `std` (Box–Muller, deterministic).
///
/// Uniforms `2i` and `2i + 1` of the stream become elements `2i` (the `cos`
/// term) and `2i + 1` (the `sin` term); an odd count draws one more uniform
/// and keeps only the last pair's `cos` term.
pub fn normal(shape: Shape, std: f32, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = Uniform::new(f32::EPSILON, 1.0f32);
    let n = shape.numel();
    // The stream straight into the output, u₁ u₂ u₁ u₂ …, transformed in
    // place below.
    let mut data: Vec<f32> = (0..n).map(|_| dist.sample(&mut rng)).collect();
    let lone_u2: f32 = if n % 2 == 1 {
        dist.sample(&mut rng)
    } else {
        0.0
    };
    let polar = |u1: f32, u2: f32| {
        let r = (-2.0 * u1.ln()).sqrt();
        (r, 2.0 * std::f32::consts::PI * u2)
    };
    par::for_each_run(&mut data, 2, n / 2 * PAIR_WORK, |_, run| {
        for pair in run.chunks_mut(2) {
            match pair {
                [c, s] => {
                    let (r, theta) = polar(*c, *s);
                    *c = r * theta.cos() * std;
                    *s = r * theta.sin() * std;
                }
                [c] => {
                    let (r, theta) = polar(*c, lone_u2);
                    *c = r * theta.cos() * std;
                }
                _ => unreachable!("chunks of two"),
            }
        }
    });
    Tensor::from_vec(shape, data)
}

/// Kaiming-He normal initialization for layers followed by sign/ReLU-like
/// nonlinearities: `std = sqrt(2 / fan_in)`.
pub fn kaiming(shape: Shape, fan_in: usize, seed: u64) -> Tensor {
    assert!(fan_in > 0, "kaiming requires positive fan_in");
    normal(shape, (2.0 / fan_in as f32).sqrt(), seed)
}

/// Xavier/Glorot uniform initialization: `U(±sqrt(6/(fan_in+fan_out)))`.
pub fn xavier(shape: Shape, fan_in: usize, fan_out: usize, seed: u64) -> Tensor {
    assert!(fan_in + fan_out > 0, "xavier requires positive fans");
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(shape, -bound, bound, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    #[test]
    fn deterministic_given_seed() {
        let a = uniform(Shape::d1(100), -1.0, 1.0, 42);
        let b = uniform(Shape::d1(100), -1.0, 1.0, 42);
        let c = uniform(Shape::d1(100), -1.0, 1.0, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_respects_bounds() {
        let t = uniform(Shape::d1(10_000), -0.5, 0.25, 7);
        for &v in t.as_slice() {
            assert!((-0.5..0.25).contains(&v));
        }
    }

    /// Box–Muller on one thread: draw a pair, push its `cos` term, push its
    /// `sin` term while there is room.
    fn sequential_normal(n: usize, std: f32, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = Uniform::new(f32::EPSILON, 1.0f32);
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = dist.sample(&mut rng);
            let u2: f32 = dist.sample(&mut rng);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        data
    }

    /// Bit for bit, one pair under the split threshold (inline), at it and
    /// one over (split), each with an even and an odd element count.
    #[test]
    fn normal_is_the_sequential_transform_on_both_sides_of_the_split() {
        let at = par::INLINE_BELOW / PAIR_WORK;
        for pairs in [1, at - 1, at, at + 1] {
            for n in [2 * pairs, 2 * pairs + 1] {
                let got = normal(Shape::d1(n), 0.7, n as u64);
                let want = sequential_normal(n, 0.7, n as u64);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got.as_slice()), bits(&want), "n = {n}");
            }
        }
        assert_eq!(normal(Shape::d1(0), 1.0, 3).numel(), 0);
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let t = normal(Shape::d1(50_000), 2.0, 11);
        let m = ops::mean(&t);
        let var = ops::mean(&t.map(|x| (x - m) * (x - m)));
        assert!(m.abs() < 0.05, "mean {m} too far from 0");
        assert!((var - 4.0).abs() < 0.2, "variance {var} too far from 4");
    }

    #[test]
    fn kaiming_std_scales_with_fan_in() {
        let narrow = kaiming(Shape::d1(50_000), 8, 3);
        let wide = kaiming(Shape::d1(50_000), 512, 3);
        let std = |t: &Tensor| {
            let m = ops::mean(t);
            ops::mean(&t.map(|x| (x - m) * (x - m))).sqrt()
        };
        assert!((std(&narrow) - 0.5).abs() < 0.05); // sqrt(2/8)
        assert!((std(&wide) - 0.0625).abs() < 0.01); // sqrt(2/512)
    }

    #[test]
    fn xavier_respects_bound() {
        let t = xavier(Shape::d2(64, 64), 64, 64, 5);
        let bound = (6.0f32 / 128.0).sqrt();
        for &v in t.as_slice() {
            assert!(v.abs() <= bound);
        }
    }
}
