//! Model-checked interleaving suites for the oneshot `Slot`, the
//! `WorkerState` dispatch invariant and the per-worker in-flight count.
//!
//! Compiled only under `RUSTFLAGS="--cfg bcp_model"`; under a normal
//! `cargo test` this file is empty. Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg bcp_model" cargo test -p bcp-serve --test model
//! ```
#![cfg(bcp_model)]

use bcp_serve::oneshot::{Expired, Slot};
use bcp_serve::{InFlight, InFlightCell, WorkerState, WorkerStateCell};
use bcp_sync::cell::UnsafeCell;
use bcp_sync::model::Builder;
use bcp_sync::time::{Duration, Instant};
use bcp_sync::{thread, Arc, Condvar, Mutex};

fn builder(name: &str) -> Builder {
    Builder {
        name: name.to_string(),
        ..Builder::default()
    }
}

/// The engine's exactly-one-response guarantee at its source: a worker
/// delivering while the client's deadline expires must resolve to
/// exactly one terminal outcome under every interleaving — the wait
/// succeeds iff the racing `complete` won, and an expired slot rejects
/// all late deliveries.
#[test]
fn slot_delivery_racing_deadline_has_exactly_one_outcome() {
    let stats = builder("slot-deadline-race").check(|| {
        let slot: Arc<Slot<u32>> = Arc::new(Slot::new());
        let worker = {
            let s = Arc::clone(&slot);
            thread::spawn(move || s.complete(7))
        };
        // The timed wait is modeled nondeterministically: the scheduler
        // explores both the notified and the timed-out outcome at every
        // parking point.
        let deadline = Instant::now() + Duration::from_millis(5);
        let waited = slot.wait(Some(deadline));
        let delivered = worker.join().unwrap();
        assert_eq!(
            waited.is_ok(),
            delivered,
            "wait outcome and delivery outcome must pair up"
        );
        if waited == Err(Expired) {
            assert!(
                !slot.complete(9),
                "an abandoned slot must reject late deliveries"
            );
        }
    });
    assert!(
        stats.complete || stats.schedules >= 10_000,
        "expected exhaustive or >=10k schedules, got {} (complete: {})",
        stats.schedules,
        stats.complete
    );
}

/// Two workers racing to complete the same slot (the duplicate-response
/// hazard): exactly one `complete` may win, and the waiter receives the
/// winner's value.
#[test]
fn slot_two_completers_exactly_one_wins() {
    let stats = builder("slot-two-completers").check(|| {
        let slot: Arc<Slot<u32>> = Arc::new(Slot::new());
        let a = {
            let s = Arc::clone(&slot);
            thread::spawn(move || s.complete(1))
        };
        let b = {
            let s = Arc::clone(&slot);
            thread::spawn(move || s.complete(2))
        };
        let got = slot.wait(None).expect("some completion must land");
        let (wa, wb) = (a.join().unwrap(), b.join().unwrap());
        assert!(
            wa ^ wb,
            "exactly one completer may win (got a={wa}, b={wb})"
        );
        let winner = if wa { 1 } else { 2 };
        assert_eq!(got, winner, "the waiter must see the winning value");
    });
    assert!(
        stats.complete || stats.schedules >= 10_000,
        "expected exhaustive or >=10k schedules, got {} (complete: {})",
        stats.schedules,
        stats.complete
    );
}

/// The client dropping its ticket (never waiting) must leave the slot
/// deliverable exactly once: the first `complete` wins, every later one
/// is the dropped no-op side.
#[test]
fn slot_client_drop_before_delivery_keeps_single_winner() {
    let stats = builder("slot-client-drop").check(|| {
        let slot: Arc<Slot<u32>> = Arc::new(Slot::new());
        let client = Arc::clone(&slot);
        let worker = {
            let s = Arc::clone(&slot);
            thread::spawn(move || s.complete(3))
        };
        // The client gives up its handle without waiting, in parallel
        // with the delivery.
        let dropper = thread::spawn(move || drop(client));
        let delivered = worker.join().unwrap();
        dropper.join().unwrap();
        assert!(delivered, "sole delivery must win regardless of the drop");
        assert!(!slot.complete(4), "second delivery must lose");
    });
    assert!(
        stats.complete || stats.schedules >= 10_000,
        "expected exhaustive or >=10k schedules, got {} (complete: {})",
        stats.schedules,
        stats.complete
    );
}

/// Dispatch invariant: the batcher never hands a request to a worker it
/// observed as `Quarantined`/`Retired`. The worker thread drives its
/// lifecycle (Healthy → Quarantined → Retired) while the batcher makes
/// dispatch decisions from the cell, mirroring `next_healthy`.
#[test]
fn no_dispatch_to_worker_observed_quarantined_or_retired() {
    let stats = builder("worker-state-dispatch").check(|| {
        let cell = Arc::new(WorkerStateCell::new(WorkerState::Healthy));
        // Worker: fails its canary, quarantines, then retires.
        let worker = {
            let c = Arc::clone(&cell);
            thread::spawn(move || {
                c.store(WorkerState::Quarantined);
                c.store(WorkerState::Retired);
            })
        };
        // Batcher: three dispatch decisions racing the transitions.
        let batcher = {
            let c = Arc::clone(&cell);
            thread::spawn(move || {
                let mut dispatched = 0u32;
                let mut rejected = 0u32;
                for _ in 0..3 {
                    let observed = c.load();
                    if observed == WorkerState::Healthy {
                        // Dispatch happens strictly after the observation;
                        // the invariant is about what was *observed*.
                        dispatched += 1;
                    } else {
                        assert!(
                            matches!(observed, WorkerState::Quarantined | WorkerState::Retired),
                            "worker never entered probation in this scenario"
                        );
                        rejected += 1;
                    }
                }
                (dispatched, rejected)
            })
        };
        worker.join().unwrap();
        let (dispatched, rejected) = batcher.join().unwrap();
        assert_eq!(
            dispatched + rejected,
            3,
            "every batch decision must be accounted for"
        );
        // Once the batcher has seen a non-Healthy state, the worker can
        // never be Healthy again in this lifecycle — verify the terminal
        // observation agrees.
        assert_eq!(cell.load(), WorkerState::Retired);
    });
    assert!(
        stats.complete || stats.schedules >= 10_000,
        "expected exhaustive or >=10k schedules, got {} (complete: {})",
        stats.schedules,
        stats.complete
    );
}

/// Probation reinstatement racing dispatch: a worker cycling
/// Quarantined → Probation → Healthy is only ever dispatched to in the
/// states where dispatch is legal (Healthy), never mid-recovery.
#[test]
fn probation_cycle_never_dispatches_mid_recovery() {
    let stats = builder("worker-state-probation").check(|| {
        let cell = Arc::new(WorkerStateCell::new(WorkerState::Quarantined));
        let worker = {
            let c = Arc::clone(&cell);
            thread::spawn(move || {
                c.store(WorkerState::Probation);
                c.store(WorkerState::Healthy);
            })
        };
        // Recovery progress is single-writer and strictly forward, so
        // two successive observations may never move backward through
        // the lifecycle — and dispatch is only legal at full Healthy.
        fn progress(s: WorkerState) -> u8 {
            match s {
                WorkerState::Quarantined => 0,
                WorkerState::Probation => 1,
                WorkerState::Healthy => 2,
                WorkerState::Retired => u8::MAX,
            }
        }
        let batcher = {
            let c = Arc::clone(&cell);
            thread::spawn(move || {
                let first = c.load();
                let dispatched_first = first == WorkerState::Healthy;
                let second = c.load();
                let dispatched_second = second == WorkerState::Healthy;
                assert!(
                    progress(second) >= progress(first),
                    "observed recovery moving backward: {first} then {second}"
                );
                (dispatched_first, dispatched_second)
            })
        };
        worker.join().unwrap();
        let (d1, d2) = batcher.join().unwrap();
        // Dispatching then observing mid-recovery would mean Healthy was
        // observed before a *later* Quarantined/Probation — impossible
        // in this forward-only lifecycle.
        assert!(!(d1 && !d2), "dispatch legality may not regress");
        assert_eq!(cell.load(), WorkerState::Healthy);
    });
    assert!(
        stats.complete || stats.schedules >= 10_000,
        "expected exhaustive or >=10k schedules, got {} (complete: {})",
        stats.schedules,
        stats.complete
    );
}

/// The in-flight count the work-conserving seal rule reads: the batcher
/// counts a batch *before* handing it off, the worker's guard un-counts it
/// on drop, and the two race freely. Under every schedule the batcher
/// never observes more batches than it has handed off (a decrement
/// overtaking its increment would read as a wrapped, enormous count and
/// pin the worker busy forever) and the count is back at zero once the
/// guard is gone. A worker seen idle again is also seen with everything it
/// did while busy — modelled by a plain cell next to the `Quarantined`
/// store, so that weakening the Release/Acquire pair is a reported race.
#[test]
fn in_flight_count_never_wraps_and_returns_to_zero() {
    let stats = builder("in-flight-count").check(|| {
        let cell = Arc::new(InFlightCell::new());
        let state = Arc::new(WorkerStateCell::new(WorkerState::Healthy));
        let left_behind = Arc::new(UnsafeCell::new(0u32));
        let queue = Arc::new((Mutex::new(None::<InFlight>), Condvar::new()));
        // Worker: takes the batch, faults on it, lets it go.
        let worker = {
            let (q, st, lb) = (
                Arc::clone(&queue),
                Arc::clone(&state),
                Arc::clone(&left_behind),
            );
            thread::spawn(move || {
                let mut slot = q.0.lock();
                while slot.is_none() {
                    slot = q.1.wait(slot);
                }
                let in_flight = slot.take();
                drop(slot);
                st.store(WorkerState::Quarantined);
                lb.with_mut(|p| unsafe { *p = 1 });
                drop(in_flight);
            })
        };
        // Batcher: one hand-off, then two looks at the count the way
        // `pick_worker` takes them for the batches that follow.
        assert_eq!(cell.count(), 0);
        let in_flight = cell.begin();
        *queue.0.lock() = Some(in_flight);
        queue.1.notify_one();
        for _ in 0..2 {
            let seen = cell.count();
            assert!(seen <= 1, "{seen} in flight of 1 handed off");
            if seen == 0 {
                // Idle again: what the worker did with the batch is visible.
                assert_eq!(state.load(), WorkerState::Quarantined);
                left_behind.with(|p| assert_eq!(unsafe { *p }, 1));
            }
        }
        worker.join().unwrap();
        assert_eq!(cell.count(), 0, "guard dropped, nothing in flight");
    });
    assert!(
        stats.complete || stats.schedules >= 10_000,
        "expected exhaustive or >=10k schedules, got {} (complete: {})",
        stats.schedules,
        stats.complete
    );
}
