//! The collector: turns drained [`TraceRecord`]s into the
//! waterfall/flamegraph/time-series artifacts.
//!
//! Three export formats:
//!
//! * **Collapsed-stack text** ([`TraceSet::to_folded`]) — the
//!   `stack;frames count` format consumed by `inferno`, `flamegraph.pl`
//!   and speedscope; counts are nanoseconds summed across requests, so
//!   the flame widths are time, not sample counts.
//! * **Self-contained JSONL** ([`TraceSet::to_jsonl`]) — one record per
//!   line with absolute stamps and per-segment durations; enough to
//!   rebuild any waterfall offline.
//! * **Time-series JSONL** ([`TimeSeries::to_jsonl`]) — queue depth and
//!   busy workers at every change, derived from the same stamps
//!   ([`TraceSet::time_series`]), so no thread polls the engine for it.

use crate::record::{TraceEvent, TraceOutcome, TraceRecord, EVENTS, SEGMENTS};
use serde::{Map, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A drained batch of trace records plus the collector's accounting.
#[derive(Clone, Debug, Default)]
pub struct TraceSet {
    /// Every drained record, in drain order.
    pub records: Vec<TraceRecord>,
    /// Records lost to a full queue (from the tracer's drop counter).
    pub dropped: u64,
}

impl TraceSet {
    /// Wrap drained records.
    pub fn new(records: Vec<TraceRecord>, dropped: u64) -> TraceSet {
        TraceSet { records, dropped }
    }

    /// Completed (fully-stamped, `Ok`) records only.
    pub fn completed(&self) -> impl Iterator<Item = &TraceRecord> {
        self.records
            .iter()
            .filter(|r| r.outcome == TraceOutcome::Ok && r.is_complete())
    }

    /// Collapsed-stack export: `request;<segment> <ns>` lines,
    /// nanoseconds summed over all completed records, sorted for
    /// determinism. Feed to `inferno-flamegraph` or paste into
    /// speedscope.
    pub fn to_folded(&self) -> String {
        let mut stacks: BTreeMap<&str, u128> = BTreeMap::new();
        for record in self.completed() {
            for seg in SEGMENTS {
                if let Some(ns) = record.segment_ns(seg) {
                    let slot = stacks.entry(seg.name()).or_insert(0);
                    *slot = slot.saturating_add(u128::from(ns));
                }
            }
        }
        let mut out = String::new();
        for (segment, ns) in stacks {
            let _ = writeln!(out, "request;{segment} {ns}");
        }
        out
    }

    /// Self-contained JSONL export: one record per line (all outcomes,
    /// not just completed ones), in drain order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Per-request waterfall rendering of the slowest completed requests
    /// (up to `limit`), one bar per segment — the human-readable
    /// companion to the folded export.
    pub fn render_waterfall(&self, limit: usize) -> String {
        let mut completed: Vec<&TraceRecord> = self.completed().collect();
        completed.sort_by_key(|r| std::cmp::Reverse(r.end_to_end_ns().unwrap_or(0)));
        completed.truncate(limit);
        let mut out = String::new();
        const WIDTH: usize = 48;
        const GLYPHS: [char; 5] = ['\u{2591}', '\u{2592}', '\u{2593}', '\u{2588}', '\u{2580}'];
        let _ = writeln!(
            out,
            "waterfall (slowest {} of {} completed; {} = queue_wait, {} = batch_wait, {} = dispatch, {} = compute, {} = delivery)",
            completed.len(),
            self.completed().count(),
            GLYPHS[0],
            GLYPHS[1],
            GLYPHS[2],
            GLYPHS[3],
            GLYPHS[4],
        );
        for r in completed {
            let total = r.end_to_end_ns().unwrap_or(0).max(1);
            let mut bar = String::new();
            for (seg, glyph) in SEGMENTS.iter().zip(GLYPHS) {
                let ns = r.segment_ns(*seg).unwrap_or(0);
                let cells = (u128::from(ns))
                    .saturating_mul(WIDTH as u128)
                    .checked_div(u128::from(total))
                    .unwrap_or(0) as usize;
                for _ in 0..cells {
                    bar.push(glyph);
                }
            }
            let width = WIDTH;
            let _ = writeln!(
                out,
                "  #{:<6} {:>9.3} ms  |{bar:<width$}|  worker {} batch {}",
                r.id,
                total as f64 / 1e6,
                r.worker,
                r.batch_size,
            );
        }
        out
    }

    /// Queue depth and worker occupancy over time, a pure function of the
    /// records. A request is queued from `Enqueue` until
    /// `AdmissionDequeue`, or until its terminal stamp when it left the
    /// queue shed, expired or failed; a `Rejected` request never entered.
    /// A worker is busy while any of its records is inside
    /// `[ComputeStart, ComputeEnd)`. Exact when every request is sampled
    /// (`bcp profile`'s default); at a lower rate it counts sampled
    /// requests only.
    pub fn time_series(&self) -> TimeSeries {
        // (t, arrives, worker); `None` is the admission queue. Leaving
        // sorts before arriving at equal `t`, so intervals are half-open.
        let mut changes: Vec<(u64, bool, Option<usize>)> = Vec::new();
        let mut span = |from: u64, to: u64, who: Option<usize>| {
            if from < to {
                changes.push((from, true, who));
                changes.push((to, false, who));
            }
        };
        for r in self
            .records
            .iter()
            .filter(|r| r.outcome != TraceOutcome::Rejected)
        {
            let Some(enqueue) = r.stamp(TraceEvent::Enqueue) else {
                continue;
            };
            let end = r.stamp(r.last_event()).unwrap_or(enqueue);
            let dequeue = r.stamp(TraceEvent::AdmissionDequeue).unwrap_or(end);
            span(enqueue, dequeue, None);
            if let Some(start) = r.stamp(TraceEvent::ComputeStart) {
                let stop = r.stamp(TraceEvent::ComputeEnd).unwrap_or(end);
                span(start, stop, Some(r.worker));
            }
        }
        changes.sort_unstable();
        let (mut depth, mut inside) = (0u64, BTreeMap::<usize, u64>::new());
        let mut rows: Vec<SeriesRow> = Vec::new();
        let step = |n: u64, arrives: bool| {
            if arrives {
                n.saturating_add(1)
            } else {
                n.saturating_sub(1)
            }
        };
        for (t_ns, arrives, who) in changes {
            match who {
                None => depth = step(depth, arrives),
                Some(w) => {
                    let n = inside.entry(w).or_insert(0);
                    *n = step(*n, arrives);
                }
            }
            let busy = inside.values().filter(|&&n| n > 0).count() as u64;
            // One row per change time, and only when the state changed.
            if rows.last().is_some_and(|last| last.t_ns == t_ns) {
                rows.pop();
            }
            if rows.last().map(|l| (l.queue_depth, l.busy_workers)) != Some((depth, busy)) {
                rows.push(SeriesRow {
                    t_ns,
                    queue_depth: depth,
                    busy_workers: busy,
                });
            }
        }
        TimeSeries { rows }
    }
}

/// The state of the engine right after every change at `t_ns`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeriesRow {
    /// Nanoseconds since the tracer's epoch.
    pub t_ns: u64,
    /// Requests waiting in the admission queue.
    pub queue_depth: u64,
    /// Workers inside the compute segment of some request.
    pub busy_workers: u64,
}

/// Queue depth and worker occupancy over time
/// ([`TraceSet::time_series`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TimeSeries {
    /// One row per change, in time order.
    pub rows: Vec<SeriesRow>,
}

impl TimeSeries {
    /// JSONL export (`timeseries.jsonl`): one
    /// `{"t_ns":…,"queue_depth":…,"busy_workers":…}` object per row.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let mut m = Map::new();
            m.insert("t_ns".into(), Value::UInt(row.t_ns));
            m.insert("queue_depth".into(), Value::UInt(row.queue_depth));
            m.insert("busy_workers".into(), Value::UInt(row.busy_workers));
            out.push_str(&serde_json::to_string(&Value::Object(m)).expect("series row json"));
            out.push('\n');
        }
        out
    }

    /// Column-wise peaks `(queue_depth, busy_workers)`, `(0, 0)` when
    /// empty.
    pub fn peak(&self) -> (u64, u64) {
        self.rows.iter().fold((0, 0), |(q, b), r| {
            (q.max(r.queue_depth), b.max(r.busy_workers))
        })
    }
}

/// Sanity-check a record set the way the integrity tests do: stamps
/// non-decreasing in lifecycle order, unique ids, and (for completed
/// records) segment sums equal to end-to-end latency. Returns an error
/// message describing the first violation.
pub fn audit(records: &[TraceRecord]) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for r in records {
        if !seen.insert(r.id) {
            return Err(format!(
                "trace id {} has more than one terminal record",
                r.id
            ));
        }
        let mut last = 0u64;
        for e in EVENTS {
            if let Some(t) = r.stamp(e) {
                if t < last {
                    return Err(format!(
                        "trace {}: stamp {} ({}) precedes an earlier event",
                        r.id,
                        t,
                        e.name()
                    ));
                }
                last = t;
            }
        }
        if r.outcome == TraceOutcome::Ok {
            if !r.is_complete() {
                return Err(format!("trace {}: Ok outcome but missing stamps", r.id));
            }
            let sum: u64 = SEGMENTS
                .iter()
                .filter_map(|&s| r.segment_ns(s))
                .fold(0, u64::saturating_add);
            let e2e = r.end_to_end_ns().unwrap_or(0);
            if sum != e2e {
                return Err(format!(
                    "trace {}: segments sum to {sum} ns but end-to-end is {e2e} ns",
                    r.id
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;
    use crate::record::N_EVENTS;

    fn record(id: u64, base: u64) -> TraceRecord {
        let mut r = TraceRecord::new(id);
        for i in 0..N_EVENTS {
            r.stamps[i] = base + 100 * (i as u64 + 1);
        }
        r.outcome = TraceOutcome::Ok;
        r.worker = 0;
        r.batch_size = 2;
        r
    }

    #[test]
    fn span_tree_tiles_the_request() {
        let r = record(0, 0);
        let folded = TraceSet::new(vec![r.clone()], 0).to_folded();
        let spans: Vec<(&str, u64)> = folded
            .lines()
            .map(|line| {
                let (stack, ns) = line.rsplit_once(' ').unwrap();
                (stack.strip_prefix("request;").unwrap(), ns.parse().unwrap())
            })
            .collect();
        assert_eq!(spans.len(), 5);
        let child_sum: u64 = spans.iter().map(|&(_, ns)| ns).sum();
        assert_eq!(Some(child_sum), r.end_to_end_ns());
        for w in SEGMENTS.windows(2) {
            let (_, end) = w[0].bounds();
            let (start, _) = w[1].bounds();
            assert_eq!(r.stamp(end), r.stamp(start), "segments must chain");
        }
    }

    #[test]
    fn folded_output_sums_nanoseconds_across_records() {
        let set = TraceSet::new(vec![record(0, 0), record(1, 1000)], 0);
        let folded = set.to_folded();
        // Each record contributes 100 ns per segment.
        assert!(folded.contains("request;queue_wait 200"));
        assert!(folded.contains("request;compute 200"));
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 5);
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "folded output must be deterministic");
    }

    #[test]
    fn audit_accepts_good_and_rejects_bad() {
        assert!(audit(&[record(0, 0), record(1, 50)]).is_ok());

        let dup = vec![record(0, 0), record(0, 10)];
        assert!(audit(&dup).unwrap_err().contains("more than one terminal"));

        let mut bad = record(2, 0);
        bad.stamps[TraceEvent::ComputeEnd as usize] = 1; // before ComputeStart
        assert!(audit(&[bad]).unwrap_err().contains("precedes"));

        let mut incomplete = record(3, 0);
        incomplete.stamps[TraceEvent::BatchSeal as usize] = 0;
        assert!(audit(&[incomplete]).unwrap_err().contains("missing stamps"));
    }

    #[test]
    fn waterfall_renders_slowest_first() {
        let fast = record(0, 0);
        let mut slow = record(1, 0);
        slow.stamps[TraceEvent::Deliver as usize] += 10_000;
        let set = TraceSet::new(vec![fast, slow], 0);
        let w = set.render_waterfall(10);
        let pos_slow = w.find("#1").unwrap();
        let pos_fast = w.find("#0").unwrap();
        assert!(pos_slow < pos_fast, "slowest request renders first:\n{w}");
    }

    #[test]
    fn jsonl_has_one_line_per_record() {
        let set = TraceSet::new(vec![record(0, 0), record(1, 0)], 0);
        assert_eq!(set.to_jsonl().lines().count(), 2);
    }

    /// A record with only the given stamps.
    fn stamped(
        id: u64,
        outcome: TraceOutcome,
        worker: usize,
        at: &[(TraceEvent, u64)],
    ) -> TraceRecord {
        let mut r = TraceRecord::new(id);
        for &(e, t) in at {
            r.stamps[e as usize] = t;
        }
        r.outcome = outcome;
        r.worker = worker;
        r
    }

    #[test]
    fn time_series_follows_queue_and_compute_intervals() {
        use TraceEvent::*;
        let served = |id, worker, enq, deq, start, end| {
            let at = [
                (Enqueue, enq),
                (AdmissionDequeue, deq),
                (BatchSeal, deq),
                (WorkerDispatch, deq),
                (ComputeStart, start),
                (ComputeEnd, end),
                (Deliver, end + 10),
            ];
            stamped(id, TraceOutcome::Ok, worker, &at)
        };
        let set = TraceSet::new(
            vec![
                // One batch of two on worker 0, leaving the queue together.
                served(0, 0, 10, 20, 30, 60),
                served(1, 0, 15, 20, 31, 61),
                // Evicted from the queue at 40: leaves it at its terminal stamp.
                stamped(
                    2,
                    TraceOutcome::Shed,
                    usize::MAX,
                    &[(Enqueue, 25), (Deliver, 40)],
                ),
                // Turned away at the door: never in the queue.
                stamped(
                    3,
                    TraceOutcome::Rejected,
                    usize::MAX,
                    &[(Enqueue, 35), (Deliver, 35)],
                ),
                // Pulled at 80 with its deadline gone: never computed.
                stamped(
                    4,
                    TraceOutcome::Expired,
                    1,
                    &[
                        (Enqueue, 45),
                        (AdmissionDequeue, 80),
                        (BatchSeal, 80),
                        (Deliver, 80),
                    ],
                ),
                served(5, 1, 50, 55, 56, 66),
            ],
            0,
        );
        let rows: Vec<(u64, u64, u64)> = set
            .time_series()
            .rows
            .iter()
            .map(|r| (r.t_ns, r.queue_depth, r.busy_workers))
            .collect();
        assert_eq!(
            rows,
            [
                (10, 1, 0),
                (15, 2, 0),
                (20, 0, 0),
                (25, 1, 0),
                (30, 1, 1),
                (40, 0, 1),
                (45, 1, 1),
                (50, 2, 1),
                (55, 1, 1),
                (56, 1, 2),
                (61, 1, 1),
                (66, 1, 0),
                (80, 0, 0),
            ]
        );
        assert_eq!(TraceSet::default().time_series(), TimeSeries::default());
    }

    #[test]
    fn jsonl_and_peak() {
        let ts = TimeSeries {
            rows: vec![
                SeriesRow {
                    t_ns: 5,
                    queue_depth: 3,
                    busy_workers: 2,
                },
                SeriesRow {
                    t_ns: 10,
                    queue_depth: 7,
                    busy_workers: 1,
                },
            ],
        };
        let jsonl = ts.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        let v: serde::Value = serde_json::from_str(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(v["t_ns"].as_u64(), Some(5));
        assert_eq!(v["queue_depth"].as_u64(), Some(3));
        assert_eq!(v["busy_workers"].as_u64(), Some(2));
        assert_eq!(ts.peak(), (7, 2));
        assert_eq!(TimeSeries::default().peak(), (0, 0));
    }
}
