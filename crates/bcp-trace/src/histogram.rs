//! Log₂-bucketed histogram for latency-like `u64` samples.
//!
//! Fixed 64-bucket layout: bucket 0 holds the value 0, bucket *i* (1-based)
//! holds values whose bit length is *i*, i.e. the range `[2^(i-1), 2^i)`.
//! Values at or beyond `2^63` clamp into the top bucket and bump an
//! `overflow` counter, so a wild sample (a negative duration cast, an
//! uninitialized stamp) is visible instead of silently stretching the
//! scale. That gives constant-time recording, ~600 bytes of state
//! regardless of sample count, and quantiles with at worst one-octave (2×)
//! resolution — the right trade for nanosecond latencies spanning six
//! orders of magnitude. Exact `min`/`max`/`sum` are tracked alongside so
//! the tails are not blurred by bucketing.

use serde::Serialize;

const BUCKETS: usize = 64;
const TOP_BUCKET: usize = BUCKETS - 1;

/// A log₂-bucketed distribution of `u64` samples.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    overflow: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            overflow: 0,
        }
    }
}

/// Bucket index for `v`, clamped into the top bucket for values whose bit
/// length exceeds the layout (`v >= 2^63`).
fn bucket_of(v: u64) -> usize {
    ((u64::BITS.saturating_sub(v.leading_zeros())) as usize).min(TOP_BUCKET)
}

/// Inclusive-exclusive value range `[lo, hi)` covered by a bucket. The top
/// bucket is open-ended (it also absorbs clamped overflow samples).
fn bucket_range(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 1)
    } else {
        (
            1u64 << i.saturating_sub(1),
            if i == TOP_BUCKET { u64::MAX } else { 1u64 << i },
        )
    }
}

impl LogHistogram {
    /// Fresh empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample. Values at or beyond `2^63` land in the top
    /// bucket and are additionally counted as overflow.
    // bcp:hot-path — one bucket bump per recorded sample
    pub fn record(&mut self, v: u64) {
        if (u64::BITS.saturating_sub(v.leading_zeros())) as usize > TOP_BUCKET {
            self.overflow = self.overflow.saturating_add(1);
        }
        // audit: allow(index): bucket_of clamps to TOP_BUCKET, which is counts.len() - 1
        let bucket = &mut self.counts[bucket_of(v)];
        *bucket = bucket.saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(u128::from(v));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Samples that clamped into the top bucket (`v >= 2^63`).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`), linearly interpolated inside
    /// the containing bucket and clamped to the exact observed `min`/`max`.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum.saturating_add(c) >= rank {
                let (lo, hi) = bucket_range(i);
                let within = rank.saturating_sub(cum) as f64 / c as f64;
                let est = (hi.saturating_sub(lo) as f64).mul_add(within, lo as f64);
                return (est as u64).clamp(self.min, self.max);
            }
            cum = cum.saturating_add(c);
        }
        self.max
    }

    /// Freeze into a serializable summary.
    pub fn summarize(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: u64::try_from(self.sum).unwrap_or(u64::MAX),
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            overflow: self.overflow,
        }
    }
}

/// Point-in-time summary of a [`LogHistogram`], as exported in
/// `summary.json`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Sum of all samples (saturating at `u64::MAX` on export).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (≤ one octave of bucketing error).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Samples that clamped into the top bucket (`v >= 2^63`).
    pub overflow: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LogHistogram::new();
        let s = h.summarize();
        assert_eq!((s.count, s.min, s.max, s.p50), (0, 0, 0, 0));
        assert_eq!((s.p95, s.p99, s.overflow), (0, 0, 0));
        assert_eq!(s.mean, 0.0);
        assert_eq!(h.quantile(0.99), 0, "empty histogram quantile is 0");
    }

    #[test]
    fn single_sample_pins_every_quantile() {
        let mut h = LogHistogram::new();
        h.record(777);
        let s = h.summarize();
        assert_eq!((s.p50, s.p95, s.p99), (777, 777, 777));
        assert_eq!((s.min, s.max), (777, 777));
        assert_eq!(s.overflow, 0);
    }

    #[test]
    fn oversized_samples_clamp_and_count_overflow() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX); // >= 2^63: clamps into the top bucket
        h.record(1u64 << 63);
        h.record((1u64 << 63) - 1); // largest non-overflow value
        h.record(100);
        assert_eq!(h.overflow(), 2);
        let s = h.summarize();
        assert_eq!(s.overflow, 2);
        assert_eq!(s.count, 4, "clamped samples still count");
        // Exact extremes survive the clamp.
        assert_eq!((s.min, s.max), (100, u64::MAX));
        // Quantiles stay within the observed range.
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert!(h.quantile(0.01) >= 100);
    }

    #[test]
    fn exact_stats_track_samples() {
        let mut h = LogHistogram::new();
        for v in [3u64, 9, 100, 1000, 0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1112);
        let s = h.summarize();
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        assert!((s.mean - 222.4).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_octave_accurate() {
        let mut h = LogHistogram::new();
        // 1000 samples uniform over [0, 10_000).
        for i in 0..1000u64 {
            h.record(i * 10);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        // True p50 = 5000, p99 = 9900; allow one octave of slack.
        assert!((2500..=10_000).contains(&p50), "p50 {p50}");
        assert!((4950..=10_000).contains(&p99), "p99 {p99}");
        assert!(p50 <= p99);
    }

    #[test]
    fn quantiles_clamp_to_observed_extremes() {
        let mut h = LogHistogram::new();
        h.record(700);
        h.record(700);
        assert_eq!(h.quantile(0.0), 700);
        assert_eq!(h.quantile(1.0), 700);
    }

    #[test]
    fn bucket_layout_is_consistent() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(u64::MAX), TOP_BUCKET, "overflow clamps to top");
        assert_eq!(bucket_of(1u64 << 62), TOP_BUCKET);
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert!(lo < hi, "bucket {i}");
            assert_eq!(bucket_of(lo), i);
        }
    }
}
