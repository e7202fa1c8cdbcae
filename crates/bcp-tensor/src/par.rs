//! Fork-join across outputs: how the float path uses every core.
//!
//! **Thread rule.** A computation is split across its *outputs* — Box–Muller
//! pairs, GEMM panels, samples, output rows, channels — and never across a
//! sum. Each output is computed whole by one thread, in exactly the order
//! the single-threaded code uses, and every cross-sample reduction stays a
//! left fold in sample order inside one thread. So which thread computes a
//! part, and how many threads there are, changes no bit of any result: the
//! lane rule of [`crate::matmul`], extended from SIMD lanes to threads.
//!
//! Each split is one `std::thread::scope`. The work is cut into a few
//! parts per thread, and every worker — the caller's thread and the
//! helpers — claims the next unclaimed part until none is left, so a
//! helper the host is slow to start, or stops, costs the part it holds and
//! not a fixed share. Helpers write only into disjoint slices of buffers
//! the caller allocated (`chunks_mut`) and allocate nothing themselves — a
//! helper that grows its own `Vec` makes the allocator open a fresh arena
//! for that thread, which shows in peak RSS. Scratch a worker needs is
//! drawn from the caller's `states` before the fork.
//!
//! **Core budget.** The binary frame path splits too, and an engine runs
//! several frames at once, one per worker. So `par` counts the threads that
//! are busy — inside a frame ([`occupy`]) or a split — and a split starts
//! at most [`threads`] minus that count helpers: an engine whose workers
//! fill every core forks nothing, and a lone frame borrows the idle ones.

use std::cell::Cell;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Work, in multiply-adds of the GEMM tile, below which a split runs
/// inline on the caller's thread.
///
/// Measured on the 2-vCPU Xeon this was sized on: a scoped spawn + join
/// costs ≈ 20 µs back to back (median of 2 000, p90 24 µs), but 94–171 µs
/// when the other vCPU has idled for 2 ms and must be woken — the usual
/// state at a split, which follows a stretch of one-thread work. At the
/// tile's ≈ 30 GMAC/s one core does 16 M multiply-adds in ≈ 560 µs, so
/// even a cold split of the smallest size saves ≈ 130 µs, and a set-up
/// whose network is below it throughout (the 16×16 serving net, n-CNV)
/// never starts a thread.
pub const INLINE_BELOW: usize = 1 << 24;

/// One element of a streaming pass — a copy, a strided gather, a running
/// sum — costs ≈ 1 ns, as much as ≈ 32 multiply-adds of the tile: its
/// weight in the [`INLINE_BELOW`] budget.
pub const ELEMENT_WORK: usize = 32;

/// Parts a split cuts its work into, per thread: enough that a helper
/// starting late, or stopped by the host, leaves the rest to the others.
const PARTS_PER_THREAD: usize = 4;

/// Threads a split may use: `available_parallelism()`, read once (the
/// call reads cgroup files on Linux).
pub fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// How many parts `units` independent outputs, `work` multiply-adds in
/// all, are cut into: one below [`INLINE_BELOW`], else [`cut`].
pub fn parts(units: usize, work: usize) -> usize {
    if work < INLINE_BELOW {
        1
    } else {
        cut(units)
    }
}

/// How many parts `units` independent outputs are cut into once a split
/// is worth it: one with one thread, else a few per thread (never more
/// than there are units).
pub fn cut(units: usize) -> usize {
    if threads() == 1 {
        1
    } else {
        (threads() * PARTS_PER_THREAD).min(units).max(1)
    }
}

/// Threads that `parts` parts run on at most.
pub fn workers(parts: usize) -> usize {
    threads().min(parts).max(1)
}

/// Threads counted busy: inside a frame ([`occupy`]) or a split.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// Helpers started since the process began, a statistic.
static STARTED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is already counted in [`BUSY`].
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// The calling thread counted busy until this guard drops ([`occupy`]).
/// It must drop on the thread that made it, so it is neither `Send` nor
/// `Sync`.
pub struct Occupied {
    counted: bool,
    _thread: PhantomData<*const ()>,
}

/// Count the calling thread busy until the returned guard drops, so splits
/// elsewhere leave its core alone. A thread already counted — by an outer
/// guard, or as a split's helper — is counted once.
pub fn occupy() -> Occupied {
    let counted = !COUNTED.with(|c| c.replace(true));
    if counted {
        // ordering: a plain count read only to size a split; no data is
        // published through it.
        BUSY.fetch_add(1, Ordering::Relaxed);
    }
    Occupied {
        counted,
        _thread: PhantomData,
    }
}

impl Drop for Occupied {
    fn drop(&mut self) {
        if self.counted {
            COUNTED.with(|c| c.set(false));
            // ordering: a plain count, as in `occupy`.
            BUSY.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Helpers reserved for one split, counted busy until it ends.
struct Helpers(usize);

impl Helpers {
    /// Up to `want` helpers: as many as keep the busy count within
    /// [`threads`].
    fn reserve(want: usize) -> Helpers {
        let mut got = 0;
        // ordering: a plain count, as in `occupy`; the read-modify-write
        // keeps two splits from reserving the same idle core.
        let _ = BUSY.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| {
            got = want.min(threads().saturating_sub(busy));
            Some(busy + got)
        });
        Helpers(got)
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        // ordering: a plain count, as in `occupy`.
        BUSY.fetch_sub(self.0, Ordering::Relaxed);
    }
}

/// Helpers started by every split so far in this process.
pub fn helpers_started() -> usize {
    // ordering: a statistic; the scope's join orders it after the spawns.
    STARTED.load(Ordering::Relaxed)
}

/// Run `f(state, part)` on every part. Each worker — the caller's thread
/// and up to [`threads`]` - 1` helpers, never more than there are parts or
/// states, nor than the core budget leaves — takes one of `states` (its
/// scratch), then claims parts until none is left. The states a split uses
/// are drawn from `states` on the caller's thread before it forks, so a
/// lazy `repeat_with` makes exactly one per worker. One worker runs
/// inline, with no scope at all.
pub fn join_with<I, J>(parts: I, states: J, f: impl Fn(&mut J::Item, I::Item) + Sync)
where
    I: ExactSizeIterator + Send,
    I::Item: Send,
    J: IntoIterator,
    J::Item: Send,
{
    // Called through a reference, so each caller's part body is compiled
    // once however the parts are run.
    let f: &(dyn Fn(&mut J::Item, I::Item) + Sync) = &f;
    let _caller = occupy();
    let states = states.into_iter();
    let offered = states.size_hint().1.unwrap_or(usize::MAX);
    let helpers = Helpers::reserve(workers(parts.len()).min(offered).saturating_sub(1));
    let mut states: Vec<J::Item> = states.take(helpers.0 + 1).collect();
    let workers = states.len();
    // Workers borrow their state, so it is dropped here, not on a helper.
    let states = Mutex::new(states.iter_mut());
    let parts = Mutex::new(parts);
    // Locks are held only to take a state or advance the iterator, never
    // across `f`.
    let take = || states.lock().expect("no part runs under the lock").next();
    let next = || parts.lock().expect("no part runs under the lock").next();
    launch(workers, &|| {
        if let Some(state) = take() {
            while let Some(part) = next() {
                f(state, part);
            }
        }
    });
}

/// Run `work` on `workers` threads — the caller's and `workers - 1`
/// helpers in one `std::thread::scope` — and return when all are done. The
/// one place a thread is started, so its code is compiled once. A helper
/// is already counted busy by its split's reservation, so it marks itself
/// counted and a split it runs counts it once.
fn launch(workers: usize, work: &(dyn Fn() + Sync)) {
    if workers <= 1 {
        return work();
    }
    // ordering: a statistic, as in `helpers_started`.
    STARTED.fetch_add(workers - 1, Ordering::Relaxed);
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(|| {
                COUNTED.with(|c| c.set(true));
                work()
            });
        }
        work();
    });
}

/// Run `f` on every part, each worker claiming the next unclaimed part
/// until none is left (parts that need no scratch).
pub fn join<I>(parts: I, f: impl Fn(I::Item) + Sync)
where
    I: ExactSizeIterator + Send,
    I::Item: Send,
{
    join_with(parts, std::iter::repeat(()), |_, part| f(part));
}

/// Split `out` into [`parts`] contiguous runs of whole `unit`-element
/// outputs and run `f(first, run)` on each, `first` being the index of the
/// run's first unit. `work` is the whole job's cost in multiply-adds.
pub fn for_each_run<T: Send>(
    out: &mut [T],
    unit: usize,
    work: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    if out.is_empty() {
        return;
    }
    let units = out.len().div_ceil(unit);
    let per = units.div_ceil(parts(units, work));
    join(out.chunks_mut(per * unit).enumerate(), |(i, run)| {
        f(i * per, run)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_work_is_one_part_large_work_a_few_per_thread() {
        assert_eq!(parts(1_000, INLINE_BELOW - 1), 1);
        let split = if threads() > 1 {
            threads() * PARTS_PER_THREAD
        } else {
            1
        };
        assert_eq!(parts(1_000, INLINE_BELOW), split);
        assert_eq!(parts(1, usize::MAX), 1);
        assert_eq!(parts(0, usize::MAX), 1);
        assert_eq!(workers(split), threads());
    }

    /// Every unit is visited exactly once, by the run that owns it, on
    /// both sides of the threshold and with a ragged last run.
    #[test]
    fn runs_cover_every_unit_once() {
        for (len, unit) in [(1, 2), (7, 2), (10, 3), (1_001, 4)] {
            for work in [0, INLINE_BELOW] {
                let mut out = vec![0usize; len];
                for_each_run(&mut out, unit, work, |first, run| {
                    for (i, v) in run.iter_mut().enumerate() {
                        *v += first * unit + i + 1;
                    }
                });
                assert_eq!(out, (1..=len).collect::<Vec<_>>(), "len {len} unit {unit}");
            }
        }
        for_each_run(&mut [0u8; 0], 1, INLINE_BELOW, |_, _| unreachable!());
    }

    /// Every part runs once, whichever worker claims it, and a worker only
    /// ever holds one state.
    #[test]
    fn join_runs_every_part_once_with_one_state_per_worker() {
        let mut out = [0u32; 9];
        let mut states = [0u32; 3];
        join_with(
            out.iter_mut().enumerate(),
            states.iter_mut(),
            |runs, (i, v)| {
                **runs += 1;
                *v += i as u32 * 10;
            },
        );
        assert_eq!(out, [0, 10, 20, 30, 40, 50, 60, 70, 80]);
        assert_eq!(states.iter().sum::<u32>(), 9);
        assert!(states[workers(9)..].iter().all(|&n| n == 0));
        join(std::iter::empty::<u8>(), |_| unreachable!());
    }

    /// The core budget: with a frame in flight on every core, a split runs
    /// all its parts on the caller's thread. Other tests' splits only add
    /// to the busy count, so they cannot make this one start a helper.
    #[test]
    fn callers_on_every_core_leave_a_split_no_helper() {
        let barrier = std::sync::Barrier::new(threads());
        std::thread::scope(|s| {
            for _ in 0..threads() {
                s.spawn(|| {
                    let _frame = occupy();
                    barrier.wait();
                    let me = std::thread::current().id();
                    let elsewhere = AtomicUsize::new(0);
                    join(0..64, |_| {
                        if std::thread::current().id() != me {
                            elsewhere.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                    barrier.wait();
                    assert_eq!(elsewhere.load(Ordering::Relaxed), 0);
                });
            }
        });
    }

    /// A thread counts once however many guards it holds, and the count
    /// falls back when the outermost guard drops.
    #[test]
    fn nested_guards_count_a_thread_once() {
        std::thread::spawn(|| {
            let outer = occupy();
            assert!(outer.counted);
            let inner = occupy();
            assert!(!inner.counted);
            drop(inner);
            assert!(COUNTED.with(Cell::get));
            drop(outer);
            assert!(!COUNTED.with(Cell::get));
        })
        .join()
        .expect("guard thread");
    }
}
