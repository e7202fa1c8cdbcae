//! # bcp-trace — request-lifecycle tracing for the serving engine
//!
//! Low-overhead tracing layered on `bcp-telemetry`. Every admitted
//! request can carry a [`TraceRecord`]: a fixed-size vector of
//! nanosecond timestamps stamped at each hand-off of its lifecycle —
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
//!    through lock-free [`Ring`]s — and a full ring drops-and-counts,
//!    never blocks.
//! 3. **Everything audits.** Stamps are monotone (the collector's
//!    [`audit`] checks), the five [`Segment`]s telescope exactly to the
//!    end-to-end latency, and ring saturation is visible as
//!    `trace.dropped`.
//!
//! The collector side ([`TraceSet`]) turns drained records into span
//! trees, collapsed-stack flamegraph text, JSONL, an ASCII waterfall,
//! and the [`AttributionReport`] that decomposes latency into
//! queue-wait / batch-wait / dispatch / compute / delivery and prices
//! the engine against raw `classify_block`.

#![deny(unsafe_code)]
#![warn(clippy::arithmetic_side_effects)]
#![warn(missing_docs)]

// Under `--cfg bcp_model` only the lock-free ring is compiled: it is
// the crate's model-checked structure, and the other modules pull in
// wall-clock time and channel machinery the model runtime does not
// provide. See DESIGN.md §"Concurrency invariants".
#[cfg(not(bcp_model))]
pub mod collect;
#[cfg(not(bcp_model))]
pub mod record;
#[cfg(not(bcp_model))]
pub mod report;
// The lock-free ring is the audited `unsafe` allowlist exception
// (BCP101): SAFETY-commented, model-checked and Miri-checked.
#[allow(unsafe_code)]
pub mod ring;
#[cfg(not(bcp_model))]
pub mod sampler;
#[cfg(not(bcp_model))]
pub mod tracer;

#[cfg(not(bcp_model))]
pub use collect::{audit, span_tree, SpanNode, TraceSet};
#[cfg(not(bcp_model))]
pub use record::{
    Segment, TraceEvent, TraceId, TraceOutcome, TraceRecord, EVENTS, N_EVENTS, N_SEGMENTS, SEGMENTS,
};
#[cfg(not(bcp_model))]
pub use report::{AttributionReport, SegmentStats};
pub use ring::Ring;
#[cfg(not(bcp_model))]
pub use sampler::{SampleRow, TimeSeries, TimeSeriesSampler};
#[cfg(not(bcp_model))]
pub use tracer::{stamp, ActiveTrace, TraceConfig, Tracer};
