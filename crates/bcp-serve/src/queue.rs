//! The engine's one FIFO: the bounded admission queue, written once on
//! [`bcp_sync`]'s `Mutex` and `Condvar` around a `VecDeque`, with the
//! operations the engine performs and no others. Every primitive comes from
//! `bcp-sync`, so this file compiles under `--cfg bcp_model` — the queue
//! `tests/model.rs` explores is the queue that serves — and its lock and two
//! park points are in front of `bcp audit`, each with its stated reason.
//! One lock, one state `{ buf, closed }`, one capacity.

use bcp_sync::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;

/// What `submit` does when the admission queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Block the caller until a slot frees up (lossless; tail latency grows
    /// with load — the right default for batch jobs and benchmarks).
    Block,
    /// Fail the new request immediately with `ServeError::Rejected` (bounds
    /// queueing delay and client wait; load-shedding at the door, like a 503).
    Reject,
    /// Evict the *oldest* queued request — it has burned the most of its
    /// deadline and is the likeliest to miss it anyway — completing it with
    /// `ServeError::Shed`, and admit the new one in its place.
    ShedOldest,
}

/// What became of a [`push`](Admission::push).
#[derive(Debug, PartialEq, Eq)]
pub enum Push<T> {
    /// Queued: `depth` items are in the queue with it, and `victim` is the
    /// head it displaced under `ShedOldest`, for the caller to answer.
    Admitted { depth: usize, victim: Option<T> },
    /// Full under `Reject`; the item comes back.
    Full(T),
    /// The queue is closed; the item comes back.
    Closed(T),
}

struct State<T> {
    buf: VecDeque<T>,
    closed: bool,
}

/// Bounded multi-producer multi-consumer FIFO with a close flag. While it
/// is open, pullers park on `not_empty` and `Block` pushers on `not_full`.
pub struct Admission<T> {
    state: Mutex<State<T>>,
    cap: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Admission<T> {
    /// Open, empty queue holding at most `cap` items (`cap ≥ 1`).
    pub fn new(cap: usize) -> Admission<T> {
        assert!(cap > 0, "the admission queue needs at least one place");
        let buf = VecDeque::with_capacity(cap);
        Admission {
            state: Mutex::new(State { buf, closed: false }),
            cap,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// The queue's only lock.
    fn locked(&self) -> MutexGuard<'_, State<T>> {
        // audit: allow(block): the admission queue's one mutex — held for O(max_batch) moves, never across compute, a completion or a trace stamp
        self.state.lock()
    }

    /// Enqueue `item`, or say why not. On a full queue `Block` parks until a
    /// place frees up or the queue closes, `Reject` hands the item back, and
    /// `ShedOldest` swaps it in for the head, in this one critical section.
    // bcp:hot-path — request admission, once per submit
    pub fn push(&self, item: T, policy: BackpressurePolicy) -> Push<T> {
        let mut st = self.locked();
        let mut victim = None;
        while !st.closed && st.buf.len() >= self.cap {
            match policy {
                // audit: allow(block): Block policy — the caller opted into parking on a full queue; pull, try_pop and close wake it
                BackpressurePolicy::Block => st = self.not_full.wait(st),
                BackpressurePolicy::Reject => return Push::Full(item),
                BackpressurePolicy::ShedOldest => {
                    victim = st.buf.pop_front();
                    break;
                }
            }
        }
        if st.closed {
            return Push::Closed(item);
        }
        st.buf.push_back(item);
        let depth = st.buf.len();
        drop(st);
        self.not_empty.notify_one();
        Push::Admitted { depth, victim }
    }

    /// Park while the queue is empty and open, then move what is queued, up
    /// to `max_batch`, onto the end of `batch` and wake a parked pusher per
    /// place freed. Returns the depth left; `None` once closed and empty.
    // bcp:hot-path — batch formation, once per batch
    pub fn pull(&self, max_batch: usize, batch: &mut Vec<T>) -> Option<usize> {
        let mut st = self.locked();
        while st.buf.is_empty() && !st.closed {
            // audit: allow(block): idle park on the admission queue — a free worker waits here and nowhere else; push and close wake it
            st = self.not_empty.wait(st);
        }
        st.buf.front()?; // closed and empty: nothing will ever come
        let taken = st.buf.len().min(max_batch);
        // audit: allow(alloc): moves into the worker's batch buffer, whose `max_batch` capacity is retained across batches
        batch.extend(st.buf.drain(..taken));
        let depth = st.buf.len();
        drop(st);
        (0..taken).for_each(|_| self.not_full.notify_one());
        Some(depth)
    }

    /// Take the head without waiting (the `NoHealthyWorkers` drain).
    // bcp:hot-path — runs after a submit or a worker fault finds nobody in rotation
    pub fn try_pop(&self) -> Option<T> {
        let item = self.locked().buf.pop_front()?;
        self.not_full.notify_one();
        Some(item)
    }

    /// Items queued right now.
    pub fn len(&self) -> usize {
        self.locked().buf.len()
    }

    /// Whether nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Refuse pushes from now on and wake everyone parked. Idempotent.
    pub fn close(&self) {
        self.locked().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Whether [`close`](Admission::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.locked().closed
    }
}

#[cfg(all(test, not(bcp_model)))]
mod tests {
    use super::BackpressurePolicy::{Block, Reject, ShedOldest};
    use super::*;

    fn admitted(depth: usize) -> Push<u32> {
        let victim = None;
        Push::Admitted { depth, victim }
    }

    fn queue_of(cap: usize, items: &[u32]) -> Admission<u32> {
        let q = Admission::new(cap);
        for (depth, &v) in (1..).zip(items) {
            assert_eq!(q.push(v, Block), admitted(depth));
        }
        q
    }

    #[test]
    fn fifo_order_and_drain_after_close() {
        let q = queue_of(4, &[1, 2, 3]);
        let mut batch = Vec::new();
        assert_eq!(q.pull(2, &mut batch), Some(1), "two of three, one left");
        q.close();
        // What was admitted before the close is still handed out; then `None`.
        assert_eq!(q.pull(2, &mut batch), Some(0));
        assert_eq!((q.pull(2, &mut batch), q.try_pop()), (None, None));
        assert_eq!(batch, [1, 2, 3], "appended to what the buffer held");
    }

    #[test]
    fn block_parks_until_a_pull_makes_room() {
        let q = queue_of(1, &[0]);
        std::thread::scope(|s| {
            s.spawn(|| (1..100).for_each(|i| assert_eq!(q.push(i, Block), admitted(1))));
            let mut got = Vec::new();
            while got.len() < 100 {
                assert_eq!(q.pull(8, &mut got), Some(0), "capacity one: one per pull");
            }
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn reject_hands_the_item_back_and_leaves_the_queue_full() {
        let q = queue_of(2, &[1, 2]);
        assert_eq!(q.push(3, Reject), Push::Full(3));
        assert_eq!((q.len(), q.try_pop()), (2, Some(1)));
        assert_eq!(q.push(3, Reject), admitted(2));
    }

    #[test]
    fn pushes_after_close_are_refused_with_the_item() {
        for policy in [Block, Reject, ShedOldest] {
            let q = queue_of(1, &[1]);
            q.close();
            q.close();
            // Full *and* closed: closed wins — nothing parks or is shed.
            assert_eq!(q.push(2, policy), Push::Closed(2), "{policy:?}");
            assert!(q.is_closed() && q.len() == 1 && !q.is_empty());
        }
    }

    #[test]
    fn shed_oldest_swaps_the_newcomer_in_for_the_head() {
        let q = queue_of(3, &[1, 2, 3]);
        // Nobody pulls: exactly the head goes, the newcomer is last.
        let (depth, victim) = (3, Some(1));
        assert_eq!(q.push(4, ShedOldest), Push::Admitted { depth, victim });
        let mut rest = Vec::new();
        assert_eq!((q.len(), q.pull(8, &mut rest)), (3, Some(0)));
        assert_eq!(rest, [2, 3, 4]);
    }

    #[test]
    fn close_wakes_a_parked_block_pusher_with_its_item() {
        let q = queue_of(1, &[1]);
        std::thread::scope(|s| {
            let pusher = s.spawn(|| q.push(2, Block));
            // Parked by now, or finding it closed (the model stages both).
            q.close();
            assert_eq!(pusher.join().unwrap(), Push::Closed(2));
        });
        assert_eq!(q.try_pop(), Some(1));
    }
}
