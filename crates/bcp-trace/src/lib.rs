//! # bcp-trace — the workspace's one observability crate
//!
//! Two views of a run, built only on std plus the workspace's own
//! `bcp-sync` locks and `serde`/`serde_json`. No external telemetry
//! dependency: the edge-deployment story of the paper (a Zynq SoC with no
//! network guarantees) wants observability that is dumped to a file and
//! scraped later, not a live exporter.
//!
//! ## Metrics
//!
//! A [`Registry`] is a cheaply-cloneable handle to a shared store of
//! counters (monotonic `u64`), gauges (last-write-wins `f64`) and
//! log₂-bucketed histograms with `p50/p95/p99` summaries.
//! [`Registry::snapshot`] freezes it into a serializable [`Snapshot`],
//! [`Registry::write_artifacts`] writes `events.jsonl` and `summary.json`,
//! and [`Registry::render_text`] is the sorted `name value` text dump.
//! Names are dotted lowercase paths, unit suffix last
//! (`predict.latency_ns`, `train.epoch.loss`); keep cardinality bounded —
//! names are map keys, not label sets.
//!
//! ## Request traces
//!
//! Every admitted request can carry a [`TraceRecord`]: a fixed-size
//! vector of nanosecond timestamps stamped at each hand-off of its
//! lifecycle —
//!
//! ```text
//! enqueue → admission_dequeue → batch_seal → worker_dispatch
//!         → compute_start → compute_end → deliver
//! ```
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero cost when off.** A disabled tracer is `None`; the hot path
//!    pays a single branch per stamp site. Head sampling (default 1/64)
//!    keeps the enabled cost within the bench gate's 3%.
//! 2. **No shared mutation on the hot path.** The record travels *with*
//!    the request (inside the engine's channels); stamps are plain
//!    stores by the owning thread. Only finished records cross threads,
//!    through one bounded `std::sync::mpsc::sync_channel` per
//!    [`Tracer`] — a full queue drops-and-counts (`try_send`), never
//!    blocks.
//! 3. **Everything audits.** Stamps are monotone (the collector's
//!    [`audit`] checks), the five [`Segment`]s telescope exactly to the
//!    end-to-end latency, and queue saturation is visible as
//!    `trace.dropped`.
//!
//! The collector side ([`TraceSet`]) turns drained records into
//! collapsed-stack flamegraph text, JSONL, an ASCII waterfall,
//! the queue-depth / worker-occupancy [`TimeSeries`], and the
//! [`AttributionReport`] that decomposes latency into queue-wait /
//! batch-wait / dispatch / compute / delivery and prices the engine
//! against raw `classify_block`.

#![forbid(unsafe_code)]
#![warn(clippy::arithmetic_side_effects)]
#![warn(missing_docs)]

pub mod collect;
mod histogram;
pub mod record;
mod registry;
pub mod report;
mod sink;
mod snapshot;
pub mod tracer;

pub use collect::{audit, SeriesRow, TimeSeries, TraceSet};
pub use histogram::{HistogramSummary, LogHistogram};
pub use record::{
    Segment, TraceEvent, TraceId, TraceOutcome, TraceRecord, EVENTS, N_EVENTS, N_SEGMENTS, SEGMENTS,
};
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use report::{percentile, AttributionReport, SegmentStats};
pub use sink::Event;
pub use snapshot::Snapshot;
pub use tracer::{stamp, ActiveTrace, TraceConfig, Tracer};
