//! Instrumentation for the BinaryCoP workspace.
//!
//! A deliberately small observability layer — counters, gauges,
//! log-bucketed histograms, a JSONL event stream and an
//! end-of-run summary report — built only on std plus the workspace's
//! own `bcp-sync` locks and `serde`/`serde_json`. No external telemetry
//! dependency: the edge-deployment story of the paper (a Zynq SoC with no
//! network guarantees) wants metrics that can be dumped to a file and
//! scraped later, not a live exporter.
//!
//! # Model
//!
//! A [`Registry`] is a cheaply-cloneable handle to a shared metric store:
//!
//! * **Counters** — monotonic `u64` (frames processed, per-class
//!   predictions, optimizer steps).
//! * **Gauges** — last-write-wins `f64` (current learning rate, FIFO
//!   occupancy at sample time).
//! * **Histograms** — log₂-bucketed `u64` distributions with `p50/p95/p99`
//!   summaries (per-frame latency in ns, per-epoch wall time).
//!
//! [`Registry::snapshot`] freezes everything into a serializable
//! [`Snapshot`]; [`Registry::write_artifacts`] writes `events.jsonl` and
//! `summary.json` into a directory.
//!
//! # Naming convention
//!
//! Dotted lowercase paths, unit suffix last: `stream.stage0.busy_ns`,
//! `train.epoch.loss` (gauge), `predict.latency_ns` (histogram),
//! `predict.class.correct` (counter). Keep cardinality bounded — names are
//! map keys, not label sets.

#![forbid(unsafe_code)]
#![warn(clippy::arithmetic_side_effects)]

mod histogram;
mod registry;
mod report;
mod sink;

pub use histogram::{HistogramSummary, LogHistogram};
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use report::Snapshot;
pub use sink::Event;
