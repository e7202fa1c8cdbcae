//! Engine configuration and the per-request error taxonomy.

// Lives with the queue that enforces it, which the model build compiles.
pub use crate::queue::BackpressurePolicy;
use crate::recovery::RecoveryPolicy;
use std::time::Duration;

/// Tuning knobs for [`Engine`](crate::Engine). Worker count is implied by
/// the number of replicas handed to `Engine::start`, and the metrics go to
/// the registry handed to it: there is no switch for them.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Admission (request) queue capacity. Bounds memory and queueing
    /// delay; the backpressure `policy` decides what happens beyond it.
    pub queue_cap: usize,
    /// The most requests a worker takes off the admission queue for one
    /// batch. A pull that reaches it counts as `serve.seal.full`, one that
    /// took everything that was queued as `serve.seal.idle`.
    pub max_batch: usize,
    /// Overload behavior of the admission queue.
    pub policy: BackpressurePolicy,
    /// Per-request deadline measured from `submit`. A request past its
    /// deadline is dropped where that is found out — at the pull, before
    /// the canary, or at delivery — and completed with
    /// [`ServeError::DeadlineExpired`]; a successful response is only ever
    /// delivered inside the deadline.
    pub deadline: Option<Duration>,
    /// How a worker that failed its integrity canary (or panicked) earns
    /// its way back: its thread attempts
    /// [`Replica::repair`](crate::Replica::repair) off the hot path, then
    /// must pass `probation_passes` consecutive canaries to rejoin
    /// rotation, and retires after `max_strikes` failed attempts (see
    /// [`RecoveryPolicy`]). The canary itself is not configured: the
    /// engine derives it from its replicas' input shape.
    pub recovery: RecoveryPolicy,
    /// Background scrubbing: when set, each worker calls
    /// [`Replica::scrub_tick`](crate::Replica::scrub_tick) with this many
    /// scrub units between inference batches, interleaving integrity
    /// sweeps with serving.
    pub background_scrub: Option<usize>,
    /// Request-lifecycle tracing (see [`bcp_trace`]). `None` — the
    /// default — compiles down to a single `None` branch per stamp site;
    /// `Some` head-samples requests at `trace.sample_rate` and records a
    /// timestamp at every hand-off of each sampled request.
    pub trace: Option<bcp_trace::TraceConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_cap: 64,
            max_batch: 8,
            policy: BackpressurePolicy::Block,
            deadline: None,
            recovery: RecoveryPolicy::default(),
            background_scrub: None,
            trace: None,
        }
    }
}

/// Why a request did not produce a classification. Every submitted request
/// resolves to exactly one `Ok(MaskClass)` or exactly one of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Queue full under [`BackpressurePolicy::Reject`]; never enqueued.
    Rejected,
    /// Evicted from the queue under [`BackpressurePolicy::ShedOldest`].
    Shed,
    /// The configured deadline passed before a result was produced.
    DeadlineExpired,
    /// The worker holding this request failed its integrity canary or
    /// panicked mid-batch; the request was not retried.
    WorkerFault {
        /// Index of the faulty worker.
        worker: usize,
    },
    /// Every worker is unhealthy; nobody is left to pull the request.
    NoHealthyWorkers,
    /// The engine is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The frame's shape is not the model's input shape, or one of its
    /// values lies outside the model's input range; never enqueued.
    BadFrame,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected => write!(f, "rejected: admission queue full"),
            ServeError::Shed => write!(f, "shed: evicted by a newer request under overload"),
            ServeError::DeadlineExpired => write!(f, "deadline expired before completion"),
            ServeError::WorkerFault { worker } => {
                write!(f, "worker {worker} failed its integrity check")
            }
            ServeError::NoHealthyWorkers => write!(f, "no healthy workers remain"),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::BadFrame => {
                write!(f, "frame does not fit the model's input shape or range")
            }
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.queue_cap >= c.max_batch);
        assert_eq!(c.policy, BackpressurePolicy::Block);
        assert!(c.deadline.is_none());
    }

    #[test]
    fn errors_render() {
        assert!(ServeError::WorkerFault { worker: 3 }
            .to_string()
            .contains('3'));
        assert!(ServeError::Rejected.to_string().contains("queue full"));
    }
}
