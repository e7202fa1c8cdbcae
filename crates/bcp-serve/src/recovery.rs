//! Worker health lifecycle: quarantine, repair, probation, reinstatement.
//!
//! A worker that fails its integrity canary (or panics) leaves dispatch,
//! and every engine's [`RecoveryPolicy`] decides whether it comes back —
//! the full self-healing loop, so a transient SEU does not permanently
//! cost a replica:
//!
//! ```text
//!            canary fail / panic
//!  Healthy ──────────────────────► Quarantined ──(repair() ok)──► Probation
//!     ▲                                │  ▲                          │
//!     │                                │  └──(probation canary fail)─┤
//!     │                  strikes ≥ M   ▼                             │
//!     │                             Retired                          │
//!     └──────────(K consecutive canary passes)───────────────────────┘
//! ```
//!
//! All recovery work — repair attempts and probation canaries — runs on
//! the worker's own thread *off the hot path*: a worker pulls from the
//! admission queue only while it reads itself `Healthy`, so an
//! off-rotation worker holds no requests and nothing can wedge behind it;
//! it wakes every [`RETRY_INTERVAL`] instead. A replica that cannot
//! repair itself (the default [`Replica::repair`](crate::Replica::repair)
//! returns `false`) accumulates strikes and is retired after
//! `max_strikes` of them. When the last `Healthy` worker leaves, nobody pulls any more:
//! [`WorkerStateCell::none_healthy`] is how that is noticed.

use bcp_sync::atomic::{AtomicU8, Ordering};
use std::time::Duration;

/// Where a worker sits in the health lifecycle. Stored as one atomic byte
/// per worker; the numeric value is also exported as the
/// `serve.worker.{w}.state` gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum WorkerState {
    /// In dispatch rotation.
    Healthy = 0,
    /// Repaired, re-proving itself: must pass K consecutive canaries
    /// before rejoining dispatch.
    Probation = 1,
    /// Failed its canary (or panicked); out of rotation, repair pending.
    Quarantined = 2,
    /// Exhausted its repair strikes; permanently out of rotation.
    Retired = 3,
}

impl WorkerState {
    /// Decode the atomic byte representation.
    pub fn from_u8(v: u8) -> WorkerState {
        match v {
            0 => WorkerState::Healthy,
            1 => WorkerState::Probation,
            2 => WorkerState::Quarantined,
            _ => WorkerState::Retired,
        }
    }
}

impl std::fmt::Display for WorkerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WorkerState::Healthy => "healthy",
            WorkerState::Probation => "probation",
            WorkerState::Quarantined => "quarantined",
            WorkerState::Retired => "retired",
        };
        write!(f, "{s}")
    }
}

/// One worker's lifecycle state as a single atomic byte.
///
/// **Single-writer**: only the owning worker thread transitions the cell,
/// and it is also the only reader that decides to *pull* on it — a worker
/// pulls only while it reads itself `Healthy`, which a single writer reads
/// trivially current.
///
/// Everyone else reads the cells for one decision, the engine's rule for
/// requests nobody will pull: *whoever observes zero healthy workers
/// ([`none_healthy`]) drains the admission queue with `NoHealthyWorkers`*
/// — a worker right after it stored its way out of rotation, a submitter
/// right after its enqueue. Both accesses are `SeqCst` for that rule: of
/// two workers leaving at once, each stores its own byte and then reads
/// the other's, and in one total order at least one of them sees both
/// out; a leaver writes its byte and then reads the queue while a
/// submitter writes the queue and then reads the bytes, and at least one
/// of those sees the other's write. The model suite in `tests/model.rs`
/// checks that on these cells and the queue that serves
/// ([`Admission`](crate::queue::Admission)): under every interleaving a
/// request is pulled while its worker is healthy or failed once, never stranded.
///
/// [`none_healthy`]: WorkerStateCell::none_healthy
pub struct WorkerStateCell(AtomicU8);

impl WorkerStateCell {
    /// Cell starting in `state`.
    pub fn new(state: WorkerState) -> WorkerStateCell {
        WorkerStateCell(AtomicU8::new(state as u8))
    }

    /// Current state.
    pub fn load(&self) -> WorkerState {
        // ordering: SeqCst — the read half of the no-healthy-workers
        // handshake (type docs); the byte itself carries no payload.
        WorkerState::from_u8(self.0.load(Ordering::SeqCst))
    }

    /// Transition to `state` (owning worker thread only).
    pub fn store(&self, state: WorkerState) {
        // ordering: SeqCst — the write half of the same handshake: a
        // leaver's store must be ordered before its own look at the
        // other cells and at the queue.
        self.0.store(state as u8, Ordering::SeqCst);
    }

    /// Whether no worker of `cells` is in rotation.
    pub fn none_healthy(cells: &[WorkerStateCell]) -> bool {
        cells.iter().all(|c| c.load() != WorkerState::Healthy)
    }
}

/// Pace of off-rotation recovery work: a quarantined or probation worker
/// wakes this often to attempt its next repair or canary.
pub const RETRY_INTERVAL: Duration = Duration::from_millis(1);

/// How a quarantined worker earns its way back into rotation.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Consecutive canary passes a probation worker needs before it is
    /// reinstated (`K`). Higher values trade recovery latency for
    /// confidence that the repair actually took.
    pub probation_passes: u32,
    /// Failed recovery attempts — a `repair()` that returns `false`, or a
    /// probation canary that fails — before the worker is retired for
    /// good (`M`). The backstop against a replica that keeps "repairing"
    /// without getting better.
    pub max_strikes: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            probation_passes: 3,
            max_strikes: 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_roundtrips_through_byte() {
        for s in [
            WorkerState::Healthy,
            WorkerState::Probation,
            WorkerState::Quarantined,
            WorkerState::Retired,
        ] {
            assert_eq!(WorkerState::from_u8(s as u8), s);
        }
    }

    #[test]
    fn default_policy_is_patient_but_bounded() {
        let p = RecoveryPolicy::default();
        assert!(p.probation_passes >= 1);
        assert!(p.max_strikes >= 1);
        assert!(RETRY_INTERVAL > Duration::ZERO);
    }
}
