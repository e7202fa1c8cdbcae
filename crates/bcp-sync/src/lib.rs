//! # bcp-sync — one sync vocabulary, two backends
//!
//! The serving stack's concurrency-bearing structures (the engine's
//! `Admission` queue, the oneshot `Slot`, the `WorkerState` byte) — and
//! every other lock in bcp-serve, bcp-gateway and bcp-trace — import
//! their primitives from this crate instead of `std`:
//!
//! * **Normal builds** re-export `std` (behind panic-free lock APIs:
//!   poisoning is swallowed) at zero cost — atomics are the `std` types
//!   themselves.
//! * **`--cfg bcp_model` builds** (`RUSTFLAGS="--cfg bcp_model"`)
//!   switch every primitive to the vendored [`loom`] model checker:
//!   schedule-exhaustive atomics, modeled `Mutex`/`Condvar` with
//!   nondeterministic timeouts, and logical time.
//!
//! The point: the *same source* that serves requests in production is
//! the source the model checker explores — there is no hand-translated
//! model to drift out of sync. See DESIGN.md §"Concurrency invariants"
//! for the per-structure memory-ordering rules and how to run the model
//! suites and TSan locally.
//!
//! Lock API convention (both backends): `Mutex::lock` returns the guard
//! directly (no poison `Result` — a panicked holder in this workspace
//! is either already fatal or, in the model, aborts the execution), and
//! `Condvar::wait_timeout` returns `(guard, timed_out)`. The vocabulary
//! is what *both* backends have and nothing else: no reader-writer lock,
//! because a primitive the model lacks is code the checker cannot see.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::arithmetic_side_effects)]

pub use std::sync::Arc;

/// Atomic integer types and memory orderings.
pub mod atomic {
    #[cfg(not(bcp_model))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};

    #[cfg(bcp_model)]
    pub use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
}

/// Thread spawning and yielding.
pub mod thread {
    #[cfg(not(bcp_model))]
    pub use std::thread::{spawn, yield_now, JoinHandle};

    #[cfg(bcp_model)]
    pub use loom::thread::{spawn, yield_now, JoinHandle};
}

/// Monotonic time: `std::time::Instant` normally, the execution's
/// logical clock under the model (deadlines become schedulable).
pub mod time {
    pub use std::time::Duration;

    #[cfg(not(bcp_model))]
    pub use std::time::Instant;

    #[cfg(bcp_model)]
    pub use loom::time::Instant;
}

#[cfg(bcp_model)]
pub use loom::model;

#[cfg(bcp_model)]
pub use loom::sync::{Condvar, Mutex, MutexGuard};

#[cfg(not(bcp_model))]
mod std_locks {
    use std::ops::{Deref, DerefMut};
    use std::time::Duration;

    /// `std::sync::Mutex` behind a panic-free API: `lock` hands out the
    /// guard whether or not an earlier holder panicked (the model
    /// backend's signature, and the workspace's convention).
    pub struct Mutex<T>(std::sync::Mutex<T>);

    impl<T> Mutex<T> {
        /// New mutex holding `value`.
        pub const fn new(value: T) -> Mutex<T> {
            Mutex(std::sync::Mutex::new(value))
        }

        /// Acquire the lock. A poisoning panic elsewhere does not
        /// cascade: the data is returned regardless.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            MutexGuard(self.0.lock().unwrap_or_else(|e| e.into_inner()))
        }
    }

    /// Guard returned by [`Mutex::lock`].
    pub struct MutexGuard<'a, T>(std::sync::MutexGuard<'a, T>);

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;

        fn deref(&self) -> &T {
            &self.0
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.0
        }
    }

    /// `std::sync::Condvar` pairing with [`Mutex`]; `wait_timeout`
    /// returns `(guard, timed_out)` under both backends.
    #[derive(Default)]
    pub struct Condvar(std::sync::Condvar);

    impl Condvar {
        /// New condvar.
        pub const fn new() -> Condvar {
            Condvar(std::sync::Condvar::new())
        }

        /// Release the guard's mutex, park until notified, reacquire.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            MutexGuard(self.0.wait(guard.0).unwrap_or_else(|e| e.into_inner()))
        }

        /// Like [`wait`](Condvar::wait) with a timeout; the boolean is
        /// `true` when the wait timed out rather than being notified.
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            dur: Duration,
        ) -> (MutexGuard<'a, T>, bool) {
            let (g, r) = self
                .0
                .wait_timeout(guard.0, dur)
                .unwrap_or_else(|e| e.into_inner());
            (MutexGuard(g), r.timed_out())
        }

        /// Wake one parked waiter, if any.
        pub fn notify_one(&self) {
            self.0.notify_one();
        }

        /// Wake every parked waiter.
        pub fn notify_all(&self) {
            self.0.notify_all();
        }
    }
}

#[cfg(not(bcp_model))]
pub use std_locks::{Condvar, Mutex, MutexGuard};

#[cfg(all(test, not(bcp_model)))]
mod tests {
    use super::atomic::{AtomicUsize, Ordering};
    use super::{Arc, Condvar, Mutex};
    use std::time::Duration;

    // ordering: test-only counter, no cross-thread publication.
    #[test]
    fn atomics_are_std_types_under_normal_builds() {
        let a = AtomicUsize::new(1);
        assert_eq!(a.fetch_add(1, Ordering::Relaxed), 1);
        assert_eq!(a.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn mutex_lock_is_panic_free_and_condvar_times_out() {
        let m = Mutex::new(5u32);
        {
            let mut g = m.lock();
            *g = 6;
        }
        assert_eq!(*m.lock(), 6);
        let cv = Condvar::new();
        let (g, timed_out) = cv.wait_timeout(m.lock(), Duration::from_millis(1));
        assert!(timed_out);
        assert_eq!(*g, 6);
    }

    #[test]
    fn condvar_notify_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p = pair.clone();
        let h = super::thread::spawn(move || {
            let mut done = p.0.lock();
            *done = true;
            p.1.notify_all();
        });
        let mut done = pair.0.lock();
        while !*done {
            done = pair.1.wait(done);
        }
        drop(done);
        h.join().unwrap();
    }
}
