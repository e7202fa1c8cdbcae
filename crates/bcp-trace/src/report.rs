//! Overhead-attribution: decompose request latency into the five
//! hand-off segments and price the engine against raw inference.
//!
//! This is the software analogue of FINN's per-stage cycle attribution
//! (and of the paper's per-layer latency table): instead of guessing
//! "the engine costs ~30%", the report states *which* hand-off the time
//! goes to — queue-wait, batch-wait, dispatch, compute or delivery — at
//! the mean and at the tail, and names the single largest non-compute
//! segment as the tuning target.

use crate::collect::TraceSet;
use crate::record::{Segment, SEGMENTS};
use std::fmt::Write as _;

/// Distribution summary of one latency segment across completed requests
/// (exact percentiles over the sampled population, not bucketed).
#[derive(Clone, Copy, Debug)]
pub struct SegmentStats {
    /// Which segment.
    pub segment: Segment,
    /// Mean nanoseconds.
    pub mean_ns: u64,
    /// Median nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile nanoseconds.
    pub p99_ns: u64,
    /// Share of mean end-to-end latency, percent.
    pub share_pct: f64,
}

/// The attribution report over one [`TraceSet`].
#[derive(Clone, Debug)]
pub struct AttributionReport {
    /// Completed requests the report is computed over.
    pub requests: usize,
    /// Records dropped on a full queue (the report is blind to these).
    pub dropped: u64,
    /// Per-segment stats, in lifecycle order.
    pub segments: Vec<SegmentStats>,
    /// Mean end-to-end latency (enqueue → deliver), ns.
    pub mean_e2e_ns: u64,
    /// p99 end-to-end latency, ns.
    pub p99_e2e_ns: u64,
    /// Raw single-caller inference cost per frame, when the caller
    /// measured one (`bcp profile` times `classify_block` directly, in
    /// chunks of the engine's `max_batch`).
    pub raw_compute_ns: Option<u64>,
}

impl AttributionReport {
    /// Compute the report. `raw_compute_ns` is an externally measured
    /// per-frame cost of calling the model directly (no engine), used to
    /// price the engine's overhead.
    pub fn from_traces(set: &TraceSet, raw_compute_ns: Option<u64>) -> AttributionReport {
        let mut e2e: Vec<u64> = Vec::new();
        let mut per_seg: Vec<Vec<u64>> = vec![Vec::new(); SEGMENTS.len()];
        for r in set.completed() {
            let Some(total) = r.end_to_end_ns() else {
                continue;
            };
            e2e.push(total);
            for (i, seg) in SEGMENTS.iter().enumerate() {
                per_seg[i].push(r.segment_ns(*seg).unwrap_or(0));
            }
        }
        e2e.sort_unstable();
        let mean_e2e_ns = mean(&e2e);
        let segments = SEGMENTS
            .iter()
            .zip(per_seg.iter_mut())
            .map(|(&segment, samples)| {
                samples.sort_unstable();
                let mean_ns = mean(samples);
                SegmentStats {
                    segment,
                    mean_ns,
                    p50_ns: percentile(samples, 0.50),
                    p99_ns: percentile(samples, 0.99),
                    share_pct: if mean_e2e_ns == 0 {
                        0.0
                    } else {
                        100.0 * mean_ns as f64 / mean_e2e_ns as f64
                    },
                }
            })
            .collect();
        AttributionReport {
            requests: e2e.len(),
            dropped: set.dropped,
            segments,
            mean_e2e_ns,
            p99_e2e_ns: percentile(&e2e, 0.99),
            raw_compute_ns,
        }
    }

    /// Stats for one segment.
    pub fn segment(&self, seg: Segment) -> &SegmentStats {
        &self.segments[seg as usize]
    }

    /// The mean-latency sum of the five segments. Equals
    /// [`mean_e2e_ns`](AttributionReport::mean_e2e_ns) up to integer
    /// rounding of the per-segment means (at most one nanosecond each).
    pub fn segment_sum_ns(&self) -> u64 {
        self.segments
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.mean_ns))
    }

    /// The single largest non-compute segment at the mean — the tuning
    /// target the ROADMAP asks for.
    pub fn largest_non_compute(&self) -> &SegmentStats {
        self.segments
            .iter()
            .filter(|s| s.segment != Segment::Compute)
            .max_by_key(|s| s.mean_ns)
            .expect("segments are never empty")
    }

    /// Engine overhead over the in-engine compute segment, percent of
    /// compute: `(e2e − compute) / compute`.
    pub fn overhead_over_compute_pct(&self) -> f64 {
        let compute = self.segment(Segment::Compute).mean_ns;
        if compute == 0 {
            return 0.0;
        }
        100.0 * self.mean_e2e_ns.saturating_sub(compute) as f64 / compute as f64
    }

    /// Engine overhead over *raw* single-caller inference, percent —
    /// "the exact percentage the engine adds over raw `classify_block`".
    /// `None` when no raw measurement was supplied.
    pub fn overhead_over_raw_pct(&self) -> Option<f64> {
        let raw = self.raw_compute_ns?;
        if raw == 0 {
            return None;
        }
        Some(100.0 * self.mean_e2e_ns.saturating_sub(raw) as f64 / raw as f64)
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "latency attribution over {} completed traced requests{}",
            self.requests,
            if self.dropped > 0 {
                format!(" ({} records dropped on a full queue)", self.dropped)
            } else {
                String::new()
            }
        );
        let _ = writeln!(
            out,
            "  segment       mean          p50          p99      share"
        );
        for s in &self.segments {
            let _ = writeln!(
                out,
                "  {:<11} {:>9.3} ms {:>9.3} ms {:>9.3} ms   {:>5.1}%",
                s.segment.name(),
                s.mean_ns as f64 / 1e6,
                s.p50_ns as f64 / 1e6,
                s.p99_ns as f64 / 1e6,
                s.share_pct,
            );
        }
        let _ = writeln!(
            out,
            "  end-to-end  {:>9.3} ms (p99 {:>9.3} ms); segment sum {:>9.3} ms",
            self.mean_e2e_ns as f64 / 1e6,
            self.p99_e2e_ns as f64 / 1e6,
            self.segment_sum_ns() as f64 / 1e6,
        );
        let biggest = self.largest_non_compute();
        let _ = writeln!(
            out,
            "  largest non-compute segment: {} ({:.1}% of end-to-end latency)",
            biggest.segment.name(),
            biggest.share_pct,
        );
        let _ = writeln!(
            out,
            "  engine overhead over in-engine compute: {:+.1}%",
            self.overhead_over_compute_pct()
        );
        if let Some(pct) = self.overhead_over_raw_pct() {
            let raw = self.raw_compute_ns.unwrap_or(0);
            let _ = writeln!(
                out,
                "  engine overhead over raw classify_block ({:.3} ms/frame): {:+.1}%",
                raw as f64 / 1e6,
                pct
            );
        }
        out
    }
}

fn mean(sorted: &[u64]) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let sum: u128 = sorted.iter().map(|&v| u128::from(v)).sum();
    u64::try_from(sum.checked_div(sorted.len() as u128).unwrap_or(0)).unwrap_or(u64::MAX)
}

/// Exact percentile over a sorted slice (nearest-rank), 0 when empty —
/// the workspace's one percentile rule over raw samples.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank.saturating_sub(1)]
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;
    use crate::record::{TraceEvent, TraceOutcome, TraceRecord};

    /// Record with the given per-segment durations (ns), in order.
    fn record_with_segments(id: u64, segs: [u64; 5]) -> TraceRecord {
        let mut r = TraceRecord::new(id);
        let mut t = 1_000;
        r.stamps[TraceEvent::Enqueue as usize] = t;
        for (seg, d) in SEGMENTS.iter().zip(segs.iter()) {
            let (_, to) = seg.bounds();
            t += d;
            r.stamps[to as usize] = t;
        }
        // The Dispatch segment spans BatchSeal→ComputeStart; WorkerDispatch
        // sits inside it — stamp it at the segment boundary.
        r.stamps[TraceEvent::WorkerDispatch as usize] = r.stamps[TraceEvent::BatchSeal as usize];
        r.outcome = TraceOutcome::Ok;
        r.worker = 0;
        r.batch_size = 1;
        r
    }

    fn set(records: Vec<TraceRecord>) -> TraceSet {
        TraceSet::new(records, 0)
    }

    #[test]
    fn segment_means_sum_to_end_to_end() {
        let s = set(vec![
            record_with_segments(0, [100, 200, 50, 1000, 25]),
            record_with_segments(1, [300, 100, 50, 2000, 25]),
        ]);
        let rep = AttributionReport::from_traces(&s, None);
        assert_eq!(rep.requests, 2);
        assert_eq!(rep.mean_e2e_ns, (1375 + 2475) / 2);
        assert_eq!(rep.segment_sum_ns(), rep.mean_e2e_ns);
        assert_eq!(rep.segment(Segment::Compute).mean_ns, 1500);
    }

    #[test]
    fn largest_non_compute_is_named() {
        let s = set(vec![record_with_segments(0, [10, 400, 20, 5000, 30])]);
        let rep = AttributionReport::from_traces(&s, None);
        assert_eq!(rep.largest_non_compute().segment, Segment::BatchWait);
        assert!(rep.render_text().contains("batch_wait"));
    }

    #[test]
    fn overhead_percentages() {
        let s = set(vec![record_with_segments(0, [100, 100, 100, 600, 100])]);
        let rep = AttributionReport::from_traces(&s, Some(500));
        // e2e = 1000, compute = 600 → 66.7% over compute.
        assert!((rep.overhead_over_compute_pct() - 400.0 / 6.0).abs() < 0.1);
        // vs raw 500 → 100%.
        assert!((rep.overhead_over_raw_pct().unwrap() - 100.0).abs() < 1e-9);
        assert!(rep.render_text().contains("classify_block"));
    }

    #[test]
    fn empty_set_reports_zeroes() {
        let rep = AttributionReport::from_traces(&set(Vec::new()), None);
        assert_eq!(rep.requests, 0);
        assert_eq!(rep.mean_e2e_ns, 0);
        assert_eq!(rep.overhead_over_compute_pct(), 0.0);
        assert!(rep.overhead_over_raw_pct().is_none());
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        v.sort_unstable();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
    }
}
