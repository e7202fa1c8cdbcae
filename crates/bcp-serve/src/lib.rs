//! Concurrent micro-batching inference serving for BinaryCoP.
//!
//! The paper's deployment scenario is continuous: cameras at building
//! entries stream frames to an edge accelerator ("automatic entrance
//! control", Sec. I). A single `classify` call per frame leaves the
//! accelerator idle between arrivals and gives no story for overload,
//! multiple cameras, or a flipped bit in weight SRAM. This crate adds the
//! serving layer between those cameras and the model:
//!
//! * **Admission** — one bounded FIFO ([`queue::Admission`], a `VecDeque`
//!   under a `bcp-sync` mutex) with an explicit [`BackpressurePolicy`]:
//!   block (lossless), reject at the door, or shed the oldest queued frame.
//!   Memory and queueing delay stay bounded by construction.
//! * **Micro-batching** — each healthy worker pulls its own batch off the
//!   admission queue: the first request to arrive plus whatever else is
//!   already queued, up to `max_batch`, never waiting for more. A free
//!   worker starts a lone request at once; while every worker is busy,
//!   requests coalesce in the queue by themselves, so batching is paid
//!   for only with time a busy worker would have cost anyway.
//! * **Worker pool** — one thread per model [`Replica`], and no other
//!   thread: there is nothing to dispatch. Each worker owns its replica
//!   mutably, so replica state cannot be shared-corrupted across workers.
//! * **Exactly-one-response** — every submitted request resolves to one
//!   `Ok(MaskClass)` or one [`ServeError`] via a single-use oneshot
//!   [`Slot`](oneshot::Slot), including under deadline expiry, overload,
//!   worker faults and shutdown.
//! * **Fault isolation** — a canary frame at the replicas' input shape,
//!   re-checked before every batch, turns silent weight-memory corruption
//!   (the SEU model of `bcp_finn::fault`) into a detected
//!   [`ServeError::WorkerFault`] that takes only that worker out of
//!   rotation, until its [`RecoveryPolicy`] reinstates or retires it. A
//!   frame of any other shape is refused at submit
//!   ([`ServeError::BadFrame`]).
//! * **Observability** — queue depth, batch-size, latency and canary-gate
//!   histograms, outcome counters and how batches closed
//!   (`serve.seal.{full,idle}`) under the `serve.*` namespace of the
//!   `bcp_trace::Registry` every engine is started with.
//!
//! The model is abstracted behind [`Replica`]; `binarycop::serve` plugs
//! the real predictor in, and [`SyntheticReplica`] keeps this crate's own
//! tests model-free. [`loadgen`] provides the closed-loop harness used by
//! `bcp serve-bench` and the stress suite.

#![forbid(unsafe_code)]
#![warn(clippy::arithmetic_side_effects)]

// Under `--cfg bcp_model` only the model-checked structures are
// compiled — the admission queue, the oneshot `Slot` and the `WorkerState`
// machinery — since the full engine pulls in OS threads, wall-clock time
// and model crates the model runtime does not provide.
// See DESIGN.md §"Concurrency invariants".
#[cfg(not(bcp_model))]
pub mod config;
#[cfg(not(bcp_model))]
pub mod engine;
#[cfg(not(bcp_model))]
pub mod loadgen;
pub mod oneshot;
pub mod queue;
pub mod recovery;
#[cfg(not(bcp_model))]
pub mod replica;

#[cfg(not(bcp_model))]
pub use config::{BackpressurePolicy, ServeConfig, ServeError};
#[cfg(not(bcp_model))]
pub use engine::{Completion, Engine, Ticket};
#[cfg(not(bcp_model))]
pub use loadgen::{run_closed_loop, LoadReport};
pub use recovery::{RecoveryPolicy, WorkerState, WorkerStateCell};
#[cfg(not(bcp_model))]
pub use replica::{canary_frame, Replica, SyntheticReplica};
