//! Model-checked interleaving suites for the oneshot `Slot`, the
//! `WorkerState` lifecycle byte and the engine's `NoHealthyWorkers` rule.
//!
//! Compiled only under `RUSTFLAGS="--cfg bcp_model"`; under a normal
//! `cargo test` this file is empty. Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg bcp_model" cargo test -p bcp-serve --test model
//! ```
#![cfg(bcp_model)]

use bcp_serve::oneshot::{Expired, Slot};
use bcp_serve::{WorkerState, WorkerStateCell};
use bcp_sync::model::Builder;
use bcp_sync::time::{Duration, Instant};
use bcp_sync::{thread, Arc, Mutex};
use std::collections::VecDeque;

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

/// Pull invariant: a worker pulls only while it reads itself `Healthy`.
/// In the engine the reader that acts on the byte is its single writer,
/// which makes the read trivially current; what is left to check is the
/// view of everyone else. The worker thread drives its lifecycle (Healthy
/// → Quarantined → Retired) while an observer takes three looks at the
/// cell and must never count the worker in rotation after having seen it
/// out.
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
        // Observer: three looks racing the transitions.
        let observer = {
            let c = Arc::clone(&cell);
            thread::spawn(move || {
                let mut dispatched = 0u32;
                let mut rejected = 0u32;
                for _ in 0..3 {
                    let observed = c.load();
                    if observed == WorkerState::Healthy {
                        // Acting happens strictly after the observation;
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
        let (dispatched, rejected) = observer.join().unwrap();
        assert_eq!(dispatched + rejected, 3, "every look must be accounted for");
        // Once the observer has seen a non-Healthy state, the worker can
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

/// Probation reinstatement racing observation: a worker cycling
/// Quarantined → Probation → Healthy is only ever seen in rotation at
/// full `Healthy`, never mid-recovery (again trivially so for the worker
/// itself, the byte's single writer; this is the outside view).
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
        let observer = {
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
        let (d1, d2) = observer.join().unwrap();
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

/// The engine's one rule for requests nobody will pull — *whoever observes
/// zero healthy workers drains the admission queue with
/// `NoHealthyWorkers`* — on the primitives the engine builds it from: the
/// per-worker state bytes and a lock-protected queue like the vendored
/// channel's. Two workers each pull once if they read themselves `Healthy`
/// and the request is there, then fault and leave rotation concurrently
/// (state store, then drain while `none_healthy`); a submitter enqueues
/// one request and then looks (`none_healthy` → drain). Under every
/// schedule the request is pulled by a worker that was healthy when it
/// pulled, or failed exactly once — never both, never twice, never left in
/// the queue with nobody to answer it.
///
/// The order of the two steps on each side is what the rule relies on.
/// Edits tried, each a reported failure (request stranded): a worker
/// looking at the cells and the queue *before* its own store; the
/// submitter looking *before* it enqueues. The `SeqCst` on the bytes is
/// what carries that program order to the other threads on real hardware;
/// this checker gives every atomic sequentially consistent *values*
/// whatever its ordering argument, so relaxing the bytes is not something
/// it can report — the argument for it is in `WorkerStateCell`'s docs.
#[test]
fn request_is_pulled_while_healthy_or_failed_once_never_stranded() {
    // Three threads of five to seven schedule points each do not exhaust
    // in the default 30 s; with at most four preemptions the tree does,
    // and each edit above is found with fewer.
    let bounded = Builder {
        preemption_bound: Some(4),
        ..builder("no-healthy-workers-rule")
    };
    let stats = bounded.check(|| {
        let queue = Arc::new(Mutex::new(VecDeque::new()));
        let states: Arc<[WorkerStateCell; 2]> =
            Arc::new([0, 1].map(|_| WorkerStateCell::new(WorkerState::Healthy)));
        // What `Shared::fail_unserved` does; returns how many it failed.
        fn fail_unserved(states: &[WorkerStateCell], queue: &Mutex<VecDeque<u32>>) -> u32 {
            let mut failed = 0;
            while WorkerStateCell::none_healthy(states) {
                if queue.lock().pop_front().is_none() {
                    break;
                }
                failed += 1;
            }
            failed
        }
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let (q, st) = (Arc::clone(&queue), Arc::clone(&states));
                thread::spawn(move || {
                    let mut pulled = 0u32;
                    if st[w].load() == WorkerState::Healthy && q.lock().pop_front().is_some() {
                        pulled += 1;
                    }
                    st[w].store(WorkerState::Quarantined);
                    (pulled, fail_unserved(&st[..], &q))
                })
            })
            .collect();
        queue.lock().push_back(7u32);
        let mut failed = fail_unserved(&states[..], &queue);
        let mut pulled = 0;
        for w in workers {
            let (p, f) = w.join().unwrap();
            pulled += p;
            failed += f;
        }
        assert_eq!(
            pulled + failed,
            1,
            "pulled {pulled} times, failed {failed} times"
        );
        assert!(queue.lock().is_empty(), "request stranded in the queue");
    });
    assert!(
        stats.complete || stats.schedules >= 10_000,
        "expected exhaustive or >=10k schedules, got {} (complete: {})",
        stats.schedules,
        stats.complete
    );
}
