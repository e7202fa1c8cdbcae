//! The per-request trace record: a fixed-size timestamp vector stamped at
//! every hand-off, plus the request's final outcome.
//!
//! A record travels *with* its request through the engine (inside the
//! `Request` struct, across the admission queue), so every stamp is
//! written by the thread that currently owns the request — no sharing, no
//! locks, no atomics on the hot path. Only the finished record crosses
//! threads, through the [`Tracer`](crate::Tracer)'s bounded queue.

use serde::Serialize;

/// Unique id of one sampled request. Allocated from a per-tracer atomic
/// counter; ids are dense over *sampled* requests, not over all requests.
pub type TraceId = u64;

/// The hand-off points of a request's lifecycle, in order. Each sampled
/// request gets one nanosecond timestamp per event (0 = not reached).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum TraceEvent {
    /// `submit()` accepted the request into the admission queue.
    Enqueue = 0,
    /// A worker pulled it off the admission queue into its batch.
    AdmissionDequeue = 1,
    /// That worker closed the batch: full, or nothing else was queued.
    BatchSeal = 2,
    /// The worker turned to the sealed batch — stamped back to back with
    /// `BatchSeal`, there being no hand-off between the two.
    WorkerDispatch = 3,
    /// Inference over the batch began.
    ComputeStart = 4,
    /// Inference over the batch finished.
    ComputeEnd = 5,
    /// The response (success or error) was delivered into the slot.
    Deliver = 6,
}

/// Number of [`TraceEvent`] stamps in a record.
pub const N_EVENTS: usize = 7;

/// All events, in lifecycle order.
pub const EVENTS: [TraceEvent; N_EVENTS] = [
    TraceEvent::Enqueue,
    TraceEvent::AdmissionDequeue,
    TraceEvent::BatchSeal,
    TraceEvent::WorkerDispatch,
    TraceEvent::ComputeStart,
    TraceEvent::ComputeEnd,
    TraceEvent::Deliver,
];

impl TraceEvent {
    /// Stable lowercase name (used in JSONL export).
    pub fn name(self) -> &'static str {
        match self {
            TraceEvent::Enqueue => "enqueue",
            TraceEvent::AdmissionDequeue => "admission_dequeue",
            TraceEvent::BatchSeal => "batch_seal",
            TraceEvent::WorkerDispatch => "worker_dispatch",
            TraceEvent::ComputeStart => "compute_start",
            TraceEvent::ComputeEnd => "compute_end",
            TraceEvent::Deliver => "deliver",
        }
    }
}

/// The five consecutive latency segments a completed request decomposes
/// into. Segment *i* spans two stamps, and the segments tile the
/// end-to-end interval exactly: their sum telescopes to
/// `deliver − enqueue`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Segment {
    /// `enqueue → admission_dequeue`: waiting in the admission queue.
    QueueWait = 0,
    /// `admission_dequeue → batch_seal`: the rest of the pull. A batch
    /// never waits to fill, so this is what taking the others cost.
    BatchWait = 1,
    /// `batch_seal → compute_start`: the pre-inference work (expiry
    /// sweep, canary gate).
    Dispatch = 2,
    /// `compute_start → compute_end`: inference proper.
    Compute = 3,
    /// `compute_end → deliver`: result matching and slot completion.
    Delivery = 4,
}

/// Number of [`Segment`]s.
pub const N_SEGMENTS: usize = 5;

/// All segments, in order.
pub const SEGMENTS: [Segment; N_SEGMENTS] = [
    Segment::QueueWait,
    Segment::BatchWait,
    Segment::Dispatch,
    Segment::Compute,
    Segment::Delivery,
];

impl Segment {
    /// Stable lowercase name (used in reports and folded stacks).
    pub fn name(self) -> &'static str {
        match self {
            Segment::QueueWait => "queue_wait",
            Segment::BatchWait => "batch_wait",
            Segment::Dispatch => "dispatch",
            Segment::Compute => "compute",
            Segment::Delivery => "delivery",
        }
    }

    /// The `(from, to)` stamps bounding this segment.
    pub fn bounds(self) -> (TraceEvent, TraceEvent) {
        match self {
            Segment::QueueWait => (TraceEvent::Enqueue, TraceEvent::AdmissionDequeue),
            Segment::BatchWait => (TraceEvent::AdmissionDequeue, TraceEvent::BatchSeal),
            Segment::Dispatch => (TraceEvent::BatchSeal, TraceEvent::ComputeStart),
            Segment::Compute => (TraceEvent::ComputeStart, TraceEvent::ComputeEnd),
            Segment::Delivery => (TraceEvent::ComputeEnd, TraceEvent::Deliver),
        }
    }
}

/// How a traced request ended. Mirrors the engine's outcome taxonomy
/// without depending on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum TraceOutcome {
    /// Classified and delivered inside its deadline.
    Ok,
    /// Refused at admission (queue full, reject policy).
    Rejected,
    /// Evicted from the queue by a newer request (shed policy).
    Shed,
    /// Deadline passed before a result could be delivered.
    Expired,
    /// Failed (worker fault, no healthy workers, shutdown).
    Failed,
}

impl TraceOutcome {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            TraceOutcome::Ok => "ok",
            TraceOutcome::Rejected => "rejected",
            TraceOutcome::Shed => "shed",
            TraceOutcome::Expired => "expired",
            TraceOutcome::Failed => "failed",
        }
    }
}

/// One finished request trace. `stamps[e]` is nanoseconds since the
/// tracer's epoch at event `e`, or 0 when the lifecycle ended before `e`
/// (the epoch is taken strictly before any stamp, so a real stamp is
/// never 0).
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// Sampled-request id, unique per tracer.
    pub id: TraceId,
    /// Nanoseconds since tracer epoch, one per [`TraceEvent`].
    pub stamps: [u64; N_EVENTS],
    /// How the request ended.
    pub outcome: TraceOutcome,
    /// Worker that computed it (`usize::MAX` when it never reached one).
    pub worker: usize,
    /// Size of the micro-batch it rode in (0 when it never joined one).
    pub batch_size: u32,
}

impl TraceRecord {
    /// Fresh record with no stamps.
    pub fn new(id: TraceId) -> TraceRecord {
        TraceRecord {
            id,
            stamps: [0; N_EVENTS],
            outcome: TraceOutcome::Failed,
            worker: usize::MAX,
            batch_size: 0,
        }
    }

    /// Timestamp of `event`, or `None` when the lifecycle never got there.
    // audit: cold — record readback feeds the profile CLI, never the serving path (shares its name with ActiveTrace::stamp)
    pub fn stamp(&self, event: TraceEvent) -> Option<u64> {
        let v = self.stamps[event as usize];
        (v != 0).then_some(v)
    }

    /// The last stamped event (every record has at least `Enqueue` —
    /// un-enqueued rejects are stamped at submit time).
    pub fn last_event(&self) -> TraceEvent {
        let mut last = TraceEvent::Enqueue;
        for e in EVENTS {
            if self.stamp(e).is_some() {
                last = e;
            }
        }
        last
    }

    /// Duration of `segment` in ns; `None` unless both bounding stamps
    /// exist. Saturates at 0 if the clock stamps ever read out of order.
    pub fn segment_ns(&self, segment: Segment) -> Option<u64> {
        let (from, to) = segment.bounds();
        Some(self.stamp(to)?.saturating_sub(self.stamp(from)?))
    }

    /// End-to-end latency (`deliver − enqueue`); `None` unless delivered.
    pub fn end_to_end_ns(&self) -> Option<u64> {
        Some(
            self.stamp(TraceEvent::Deliver)?
                .saturating_sub(self.stamp(TraceEvent::Enqueue)?),
        )
    }

    /// Whether every lifecycle stamp is present (a fully served request).
    pub fn is_complete(&self) -> bool {
        EVENTS.iter().all(|&e| self.stamp(e).is_some())
    }

    /// One line of JSONL export.
    pub fn to_json_line(&self) -> String {
        use serde::{Map, Value};
        let mut m = Map::new();
        m.insert("id".into(), Value::UInt(self.id));
        m.insert("outcome".into(), Value::Str(self.outcome.name().into()));
        if self.worker != usize::MAX {
            m.insert("worker".into(), Value::UInt(self.worker as u64));
        }
        m.insert("batch_size".into(), Value::UInt(u64::from(self.batch_size)));
        let mut stamps = Map::new();
        for e in EVENTS {
            if let Some(t) = self.stamp(e) {
                stamps.insert(e.name().into(), Value::UInt(t));
            }
        }
        m.insert("stamps_ns".into(), Value::Object(stamps));
        let mut segs = Map::new();
        for s in SEGMENTS {
            if let Some(d) = self.segment_ns(s) {
                segs.insert(s.name().into(), Value::UInt(d));
            }
        }
        m.insert("segments_ns".into(), Value::Object(segs));
        serde_json::to_string(&Value::Object(m)).expect("trace record json")
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;

    fn complete_record() -> TraceRecord {
        let mut r = TraceRecord::new(3);
        for (i, e) in EVENTS.iter().enumerate() {
            r.stamps[*e as usize] = 100 * (i as u64 + 1);
        }
        r.outcome = TraceOutcome::Ok;
        r.worker = 1;
        r.batch_size = 4;
        r
    }

    #[test]
    fn segments_tile_the_end_to_end_interval() {
        let r = complete_record();
        assert!(r.is_complete());
        let sum: u64 = SEGMENTS.iter().map(|&s| r.segment_ns(s).unwrap()).sum();
        assert_eq!(Some(sum), r.end_to_end_ns());
    }

    #[test]
    fn partial_record_has_partial_segments() {
        let mut r = TraceRecord::new(1);
        r.stamps[TraceEvent::Enqueue as usize] = 10;
        r.stamps[TraceEvent::AdmissionDequeue as usize] = 30;
        assert_eq!(r.segment_ns(Segment::QueueWait), Some(20));
        assert_eq!(r.segment_ns(Segment::Compute), None);
        assert_eq!(r.end_to_end_ns(), None);
        assert_eq!(r.last_event(), TraceEvent::AdmissionDequeue);
        assert!(!r.is_complete());
    }

    #[test]
    fn json_line_carries_stamps_and_segments() {
        let r = complete_record();
        let v: serde::Value = serde_json::from_str(&r.to_json_line()).unwrap();
        assert_eq!(v["id"].as_u64(), Some(3));
        assert_eq!(v["outcome"].as_str(), Some("ok"));
        assert_eq!(v["stamps_ns"]["deliver"].as_u64(), Some(700));
        assert_eq!(v["segments_ns"]["queue_wait"].as_u64(), Some(100));
    }

    #[test]
    fn segment_bounds_are_consecutive() {
        let mut prev_to = TraceEvent::Enqueue;
        for (i, s) in SEGMENTS.iter().enumerate() {
            let (from, to) = s.bounds();
            if i > 0 {
                assert_eq!(from as usize, prev_to as usize, "segments must chain");
            }
            assert!((from as usize) < (to as usize));
            prev_to = to;
        }
        assert_eq!(prev_to as usize, TraceEvent::Deliver as usize);
    }
}
