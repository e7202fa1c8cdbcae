//! Lock-free bounded ring buffer for finished trace records.
//!
//! One ring per worker thread and one more shared by the client-side
//! submitters, so producers almost never contend; the implementation
//! is nevertheless a full Vyukov-style bounded MPMC queue, safe for any
//! number of producers against the single draining collector. Pushes
//! never block and never allocate: when the ring is full the record is
//! dropped and **counted** — saturation loses data loudly, never
//! silently.
//!
//! All primitives come from [`bcp_sync`], so the *same* source is
//! exhaustively model-checked under `--cfg bcp_model` (see
//! `tests/model.rs` and DESIGN.md §"Concurrency invariants").

use bcp_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use bcp_sync::cell::UnsafeCell;
use std::mem::MaybeUninit;

struct Cell<T> {
    /// Vyukov sequence number: `seq == pos` means the cell is free for the
    /// producer claiming `pos`; `seq == pos + 1` means it holds that
    /// producer's value and is ready for the consumer.
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Bounded lock-free MPMC ring. Capacity is rounded up to a power of two.
pub struct Ring<T> {
    cells: Box<[Cell<T>]>,
    mask: usize,
    head: AtomicUsize,
    tail: AtomicUsize,
    dropped: AtomicU64,
}

// SAFETY: values move through the ring under the seq protocol below; a
// cell is only read/written by the thread that won its sequence number.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    /// Ring with at least `capacity` slots (rounded up to a power of two,
    /// minimum 2).
    pub fn with_capacity(capacity: usize) -> Ring<T> {
        let cap = capacity.max(2).next_power_of_two();
        let cells: Box<[Cell<T>]> = (0..cap)
            .map(|i| Cell {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Ring {
            cells,
            mask: cap.wrapping_sub(1),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Records dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        // ordering: Relaxed — monotonic statistic, no data is published
        // through this counter.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Push without blocking. On a full ring the value is dropped and the
    /// drop counter incremented; returns whether the value was stored.
    // bcp:hot-path — lock-free trace-record store, once per finished trace
    pub fn push(&self, value: T) -> bool {
        // ordering: Relaxed — position hint only; staleness is repaired by
        // the seq Acquire check and the CAS below.
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            // audit: allow(index): pos & mask is always < cells.len() (power-of-two capacity)
            let cell = &self.cells[pos & self.mask];
            // ordering: Acquire — pairs with the consumer's Release store
            // of seq; seeing `seq == pos` proves the previous lap's value
            // was fully read out before we overwrite the cell.
            let seq = cell.seq.load(Ordering::Acquire);
            if seq == pos {
                // Cell free at our position: claim it.
                match self.tail.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    // ordering: Relaxed/Relaxed — the CAS only arbitrates
                    // slot ownership between producers; the value itself is
                    // published by the seq Release store, not by `tail`.
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS gives us exclusive write
                        // access to this cell until we publish via seq.
                        cell.value.with_mut(|p| unsafe { (*p).write(value) });
                        // ordering: Release — publishes the cell write
                        // above to the consumer's Acquire load of seq.
                        cell.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return true;
                    }
                    Err(actual) => pos = actual,
                }
            } else if seq.wrapping_sub(pos) as isize > 0 {
                // Another producer already advanced past us; retry there.
                // ordering: Relaxed — fresh position hint, same as above.
                pos = self.tail.load(Ordering::Relaxed);
            } else {
                // seq < pos: the cell still holds an unconsumed value from
                // one lap ago — the ring is full.
                // ordering: Relaxed — statistic counter, never a publish.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
    }

    /// Pop the oldest record, if any.
    pub fn pop(&self) -> Option<T> {
        // ordering: Relaxed — position hint only, repaired by the seq
        // Acquire check and the CAS below.
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let cell = &self.cells[pos & self.mask];
            // ordering: Acquire — pairs with the producer's Release store
            // of seq; seeing `seq == pos + 1` makes the producer's cell
            // write visible before we read it out.
            let seq = cell.seq.load(Ordering::Acquire);
            let expected = pos.wrapping_add(1);
            if seq == expected {
                match self.head.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    // ordering: Relaxed/Relaxed — the CAS only arbitrates
                    // slot ownership between consumers; visibility of the
                    // value came from the seq Acquire load above.
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS gives us exclusive read
                        // access; the producer published via seq.
                        let value = cell.value.with_mut(|p| unsafe { (*p).assume_init_read() });
                        // ordering: Release — publishes the consumption to
                        // the next-lap producer's Acquire load of seq, so
                        // it cannot overwrite a cell still being read.
                        cell.seq
                            .store(pos.wrapping_add(self.cells.len()), Ordering::Release);
                        return Some(value);
                    }
                    Err(actual) => pos = actual,
                }
            } else if seq.wrapping_sub(expected) as isize > 0 {
                // ordering: Relaxed — fresh position hint, same as above.
                pos = self.head.load(Ordering::Relaxed);
            } else {
                // seq < pos + 1: the cell is still empty — nothing queued.
                return None;
            }
        }
    }

    /// Drain everything currently queued.
    pub fn drain(&self) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(v) = self.pop() {
            out.push(v);
        }
        out
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Release any values still queued.
        while self.pop().is_some() {}
    }
}

#[cfg(all(test, not(bcp_model)))]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let r: Ring<u64> = Ring::with_capacity(8);
        for i in 0..8 {
            assert!(r.push(i));
        }
        assert_eq!(r.drain(), (0..8).collect::<Vec<_>>());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn overflow_drops_are_counted() {
        let r: Ring<u64> = Ring::with_capacity(4);
        let mut stored = 0u64;
        for i in 0..10 {
            if r.push(i) {
                stored += 1;
            }
        }
        assert_eq!(stored, 4);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.drain().len(), 4);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(Ring::<u8>::with_capacity(5).capacity(), 8);
        assert_eq!(Ring::<u8>::with_capacity(0).capacity(), 2);
    }

    #[test]
    fn wraps_across_many_laps() {
        let r: Ring<usize> = Ring::with_capacity(4);
        for lap in 0..100 {
            for i in 0..3 {
                assert!(r.push(lap * 3 + i));
            }
            for i in 0..3 {
                assert_eq!(r.pop(), Some(lap * 3 + i));
            }
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn concurrent_producers_never_lose_uncounted_records() {
        let r: Arc<Ring<u64>> = Arc::new(Ring::with_capacity(64));
        const PRODUCERS: usize = 4;
        const PER: usize = 5_000;
        let mut drained = 0u64;
        let stored: u64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let r = r.clone();
                    s.spawn(move || {
                        let mut ok = 0u64;
                        for i in 0..PER {
                            if r.push((p * PER + i) as u64) {
                                ok += 1;
                            }
                        }
                        ok
                    })
                })
                .collect();
            // Consumer racing the producers.
            let consumer = {
                let r = r.clone();
                s.spawn(move || {
                    let mut n = 0u64;
                    for _ in 0..200_000 {
                        if r.pop().is_some() {
                            n += 1;
                        }
                    }
                    n
                })
            };
            let stored = handles.into_iter().map(|h| h.join().unwrap()).sum();
            drained = consumer.join().unwrap();
            stored
        });
        drained += r.drain().len() as u64;
        assert_eq!(stored, drained, "every accepted record must be drainable");
        assert_eq!(
            stored + r.dropped(),
            (PRODUCERS * PER) as u64,
            "accepted + dropped must account for every push"
        );
    }
}
