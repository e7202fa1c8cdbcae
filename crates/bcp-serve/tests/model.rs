//! Model-checked interleaving suites for the oneshot `Slot`, the
//! `WorkerState` lifecycle byte, the admission queue and the engine's
//! `NoHealthyWorkers` rule — each on the type that serves
//! (`bcp_serve::queue::Admission` included), not on a look-alike.
//!
//! Compiled only under `RUSTFLAGS="--cfg bcp_model"`; under a normal
//! `cargo test` this file is empty. Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg bcp_model" cargo test -p bcp-serve --test model
//! ```
#![cfg(bcp_model)]

use bcp_serve::oneshot::{Expired, Slot};
use bcp_serve::queue::{Admission, BackpressurePolicy::Block, Push};
use bcp_serve::{WorkerState, WorkerStateCell};
use bcp_sync::model::Builder;
use bcp_sync::time::{Duration, Instant};
use bcp_sync::{thread, Arc};

fn builder(name: &str) -> Builder {
    let name = name.to_string();
    Builder {
        name,
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
    explore(builder("slot-deadline-race"), || {
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
}

/// Two workers racing to complete the same slot (the duplicate-response
/// hazard): exactly one `complete` may win, and the waiter receives the
/// winner's value.
#[test]
fn slot_two_completers_exactly_one_wins() {
    explore(builder("slot-two-completers"), || {
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
}

/// The client dropping its ticket (never waiting) must leave the slot
/// deliverable exactly once: the first `complete` wins, every later one
/// is the dropped no-op side.
#[test]
fn slot_client_drop_before_delivery_keeps_single_winner() {
    explore(builder("slot-client-drop"), || {
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
    explore(builder("worker-state-dispatch"), || {
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
}

/// Probation reinstatement racing observation: a worker cycling
/// Quarantined → Probation → Healthy is only ever seen in rotation at
/// full `Healthy`, never mid-recovery (again trivially so for the worker
/// itself, the byte's single writer; this is the outside view).
#[test]
fn probation_cycle_never_dispatches_mid_recovery() {
    explore(builder("worker-state-probation"), || {
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
}

/// Whether an open queue took `v` under `Block`.
fn admits(q: &Admission<u32>, v: u32) -> bool {
    matches!(q.push(v, Block), Push::Admitted { .. })
}

/// At most four preemptions: unbounded, none of the three queue suites
/// below exhausts in 30 s (70 k schedules and counting); bounded, all do.
fn bounded(name: &str) -> Builder {
    Builder {
        preemption_bound: Some(4),
        max_duration: Duration::from_secs(120),
        ..builder(name)
    }
}

/// The engine's one rule for requests nobody will pull — *whoever observes
/// zero healthy workers drains the admission queue with
/// `NoHealthyWorkers`* — on what the engine builds it from: the per-worker
/// state bytes and the admission queue itself. Two workers each take the
/// request if they read themselves `Healthy` and it is there, then fault
/// and leave rotation concurrently (state store, then drain while
/// `none_healthy`); a submitter pushes one request and then looks
/// (`none_healthy` → drain). Under every schedule the request is pulled by
/// a worker that was healthy when it pulled, or failed exactly once — never
/// both, never twice, never left in the queue with nobody to answer it.
///
/// The order of the two steps on each side is what the rule relies on.
/// Edits tried, each a reported failure (request stranded): a worker
/// looking at the cells and the queue *before* its own store; the
/// submitter looking *before* it pushes; both at once. Relaxing the
/// `SeqCst` bytes is not something this checker can report — it gives
/// every atomic sequentially consistent *values*; `WorkerStateCell`'s docs
/// carry that argument. 64.5 k schedules, ~30 s: hence `bounded`'s cap.
#[test]
fn request_is_pulled_while_healthy_or_failed_once_never_stranded() {
    explore(bounded("no-healthy-workers-rule"), || {
        let queue = Arc::new(Admission::new(2));
        let states: Arc<[WorkerStateCell; 2]> =
            Arc::new([0, 1].map(|_| WorkerStateCell::new(WorkerState::Healthy)));
        // What `Shared::fail_unserved` does; returns how many it failed.
        fn fail_unserved(states: &[WorkerStateCell], queue: &Admission<u32>) -> u32 {
            let mut failed = 0;
            while WorkerStateCell::none_healthy(states) && queue.try_pop().is_some() {
                failed += 1;
            }
            failed
        }
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let (q, st) = (Arc::clone(&queue), Arc::clone(&states));
                thread::spawn(move || {
                    let mut pulled = 0u32;
                    if st[w].load() == WorkerState::Healthy && q.try_pop().is_some() {
                        pulled += 1;
                    }
                    st[w].store(WorkerState::Quarantined);
                    (pulled, fail_unserved(&st[..], &q))
                })
            })
            .collect();
        assert!(admits(&queue, 7));
        let mut failed = fail_unserved(&states[..], &queue);
        let mut pulled = 0;
        for w in workers {
            let (p, f) = w.join().unwrap();
            pulled += p;
            failed += f;
        }
        assert_eq!(pulled + failed, 1, "pulled {pulled}, failed {failed}");
        assert!(queue.is_empty(), "request stranded in the queue");
    });
}

/// One pull frees several places and must wake a pusher for each: a full
/// queue of two, two `Block` pushers, one `pull(2)`. Both pushers must get
/// in without another pull — joining them before pulling again is the
/// check — and every item comes out exactly once (17.1 k schedules).
/// Edit tried: a single `notify_one` per pull — a reported deadlock (the
/// second pusher `blocked on Condvar.wait`, a free place in front of it).
#[test]
fn one_pull_wakes_a_pusher_per_freed_place() {
    explore(bounded("queue-k-wake"), || {
        let queue = Arc::new(Admission::new(2));
        assert!(admits(&queue, 0) && admits(&queue, 1));
        let pushers = [2, 3].map(|v| {
            let q = Arc::clone(&queue);
            thread::spawn(move || admits(&q, v))
        });
        let mut got = Vec::new();
        assert_eq!(queue.pull(2, &mut got), Some(0));
        for p in pushers {
            assert!(p.join().unwrap(), "an open queue admits a Block push");
        }
        assert_eq!(queue.pull(2, &mut got), Some(0));
        got.sort_unstable();
        assert_eq!(got, [0, 1, 2, 3], "every item out exactly once");
    });
}

/// `close()` against a puller and a pusher that may be parked — never both
/// at once (one parks on empty, the other on full), so two scenes on a full
/// queue of one. *A live puller* pulls until told `None` while a `Block`
/// pusher parks or finds the queue closed: both return, every item pulled
/// or handed back exactly once (28.6 k schedules). *Nobody pulling*: only
/// `close` can release the pusher — with its item; what was queued is
/// still there to drain (61). Edits tried, each a reported deadlock:
/// `close` without its `not_empty.notify_all()` (first scene, the puller
/// `blocked on Condvar.wait`) or its `not_full.notify_all()` (second, the
/// pusher — in the first the puller's own drain wakes it).
#[test]
fn close_releases_a_parked_puller_and_a_parked_pusher() {
    let full_queue = || {
        let queue = Arc::new(Admission::new(1));
        assert!(admits(&queue, 1));
        queue
    };
    let pusher = |q: Arc<Admission<u32>>| {
        thread::spawn(move || match q.push(2, Block) {
            Push::Closed(v) | Push::Full(v) => Some(v),
            Push::Admitted { .. } => None,
        })
    };
    explore(bounded("queue-close"), move || {
        let queue = full_queue();
        let q = Arc::clone(&queue);
        let puller = thread::spawn(move || {
            let mut got = Vec::new();
            while q.pull(1, &mut got).is_some() {}
            got
        });
        let pusher = pusher(Arc::clone(&queue));
        queue.close();
        let mut seen = puller.join().unwrap();
        seen.extend(pusher.join().unwrap());
        assert!(queue.is_empty(), "item stranded in a closed queue");
        assert_eq!(seen, [1, 2], "pulled or handed back, exactly once each");
    });

    explore(bounded("queue-close-nobody-pulling"), move || {
        let queue = full_queue();
        let pusher = pusher(Arc::clone(&queue));
        queue.close();
        assert_eq!(pusher.join().unwrap(), Some(2), "never admitted");
        let mut left = Vec::new();
        assert_eq!(queue.pull(1, &mut left), Some(0));
        assert_eq!((left, queue.pull(1, &mut Vec::new())), (vec![1], None));
    });
}

/// Explore `body` under `bounds`: exhaustively or through 10 k schedules;
/// the count is printed (`--nocapture`).
fn explore(bounds: Builder, body: impl Fn() + Send + Sync + 'static) {
    let (stats, name) = (bounds.check(body), &bounds.name);
    let (n, done) = (stats.schedules, stats.complete);
    eprintln!("{name}: {n} schedules, exhaustive: {done}");
    assert!(done || n >= 10_000, "{name}: neither exhaustive nor 10 k");
}
