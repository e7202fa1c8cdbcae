//! Worker health lifecycle: quarantine, repair, probation, reinstatement.
//!
//! The original fault story was one-way: a worker that failed its
//! integrity canary left dispatch forever, so every transient SEU
//! permanently cost a replica. With a [`RecoveryPolicy`] the engine runs
//! the full self-healing loop instead:
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
//! the worker's own thread *off the hot path*: the batcher only ever
//! dispatches to `Healthy` workers, and a quarantined worker keeps
//! draining raced-in batches (failing them) so the pipeline can never
//! wedge behind it. A replica that cannot repair itself (the default
//! [`Replica::repair`](crate::Replica::repair) returns `false`)
//! accumulates strikes and is retired — the old permanent-removal
//! behavior, reached deliberately instead of by omission.

use bcp_sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use bcp_sync::Arc;
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
/// **Single-writer**: only the owning worker thread transitions the
/// cell; the batcher (`pick_worker`) and the public API merely observe
/// it. The cell is built on [`bcp_sync`] atomics, so the model suite in
/// `tests/model.rs` checks the dispatch invariant — no request is ever
/// handed to a worker after it was observed `Quarantined`/`Retired` —
/// under every interleaving of transitions and dispatch decisions.
pub struct WorkerStateCell(AtomicU8);

impl WorkerStateCell {
    /// Cell starting in `state`.
    pub fn new(state: WorkerState) -> WorkerStateCell {
        WorkerStateCell(AtomicU8::new(state as u8))
    }

    /// Current state.
    pub fn load(&self) -> WorkerState {
        // ordering: Relaxed — the byte carries no payload to acquire;
        // dispatch correctness needs only *some* recent value, and every
        // dispatch already synchronizes through the batch channel.
        WorkerState::from_u8(self.0.load(Ordering::Relaxed))
    }

    /// Transition to `state` (owning worker thread only).
    pub fn store(&self, state: WorkerState) {
        // ordering: Relaxed — single-writer transition publishing no
        // associated data; readers tolerate bounded staleness (a worker
        // leaving rotation is observed on the next dispatch decision).
        self.0.store(state as u8, Ordering::Relaxed);
    }
}

/// Batches handed to one worker whose results do not exist yet: queued in
/// its hand-off channel or being computed. Zero means the worker has
/// nothing left to compute, which is what lets the batcher seal a partial
/// batch at once instead of waiting out `max_wait` for company.
///
/// The batcher is the only incrementer ([`begin`](InFlightCell::begin),
/// before the hand-off) and the only reader that acts on the value; the
/// count comes back down when the [`InFlight`] guard riding with the batch
/// drops, wherever that happens — computed (the worker lets it go before
/// it delivers the results), failed at the canary gate, panicked, drained
/// off-rotation, or left in a queue at teardown. The model suite in
/// `tests/model.rs` checks that under every interleaving the count is
/// never observed above the batches handed off (so never wrapped) and
/// returns to zero.
pub struct InFlightCell(AtomicUsize);

impl InFlightCell {
    /// Cell of an idle worker.
    pub fn new() -> InFlightCell {
        InFlightCell(AtomicUsize::new(0))
    }

    /// Count one batch about to be handed to this worker; it stays
    /// counted until the returned guard drops.
    pub fn begin(self: &Arc<Self>) -> InFlight {
        // ordering: Relaxed — the batcher thread is the only incrementer
        // and the only reader; the batch itself is published by the
        // hand-off channel, not by this count.
        self.0.fetch_add(1, Ordering::Relaxed);
        InFlight(Arc::clone(self))
    }

    /// Batches currently counted against this worker.
    pub fn count(&self) -> usize {
        // ordering: Acquire — pairs with the Release decrement in
        // `InFlight::drop`: a batcher that sees the worker idle also sees
        // the state byte the worker left its last batch with, so a lone
        // request is never sealed for a worker that has just quarantined
        // itself.
        self.0.load(Ordering::Acquire)
    }
}

impl Default for InFlightCell {
    fn default() -> Self {
        InFlightCell::new()
    }
}

/// One counted batch (see [`InFlightCell::begin`]); dropping it is the
/// only way the count comes back down.
pub struct InFlight(Arc<InFlightCell>);

impl Drop for InFlight {
    fn drop(&mut self) {
        // ordering: Release — publishes everything the worker did while
        // it held the batch (above all a `Quarantined` store) to the
        // batcher's Acquire load in `InFlightCell::count`.
        self.0 .0.fetch_sub(1, Ordering::Release);
    }
}

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
    /// Pace of off-rotation recovery work: a quarantined or probation
    /// worker wakes this often to attempt its next repair or canary.
    pub retry_interval: Duration,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            probation_passes: 3,
            max_strikes: 3,
            retry_interval: Duration::from_millis(1),
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
    fn in_flight_guards_balance_the_count() {
        let cell = Arc::new(InFlightCell::new());
        let (a, b) = (cell.begin(), cell.begin());
        assert_eq!(cell.count(), 2);
        drop(a);
        assert_eq!(cell.count(), 1);
        drop(b);
        assert_eq!(cell.count(), 0);
    }

    #[test]
    fn default_policy_is_patient_but_bounded() {
        let p = RecoveryPolicy::default();
        assert!(p.probation_passes >= 1);
        assert!(p.max_strikes >= 1);
        assert!(p.retry_interval > Duration::ZERO);
    }
}
