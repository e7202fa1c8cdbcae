//! A frame's split helpers allocate nothing, and neither does finishing a
//! trace.
//!
//! A helper thread that grows its own buffer makes glibc open a fresh
//! malloc arena for it, which shows in peak RSS; so the conv stages hand
//! each helper caller-owned scratch and output slices
//! (`bcp_tensor::par`, DESIGN §4c). A counting global allocator tallies
//! every allocation made on a thread other than this test's own while a CNV
//! `classify` and a `classify_block` of 8 run. `Tracer::finish` runs on
//! engine workers once per sampled request, so the same allocator pins it
//! to zero allocations on its own thread, for a record the queue takes and
//! for one a full queue drops. Each test holds one lock for its whole run,
//! so no other test's thread allocates while a count is armed.

use bcp_tensor::{par, Shape, Tensor};
use bcp_trace::{Registry, TraceConfig, TraceOutcome, Tracer};
use binarycop::arch::ArchKind;
use binarycop::model::untrained_predictor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Whether allocations are being counted.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Allocations counted on threads other than the caller's.
static ELSEWHERE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the thread that runs the frames.
    static CALLER: Cell<bool> = const { Cell::new(false) };
    /// Every allocation this thread has made, armed or not.
    static MINE: Cell<usize> = const { Cell::new(0) };
}

/// Held by each test for its whole run: the counters are process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocations this thread makes while `f` runs.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = MINE.with(Cell::get);
    f();
    MINE.with(Cell::get).wrapping_sub(before)
}

/// The system allocator, counting allocations off the caller's thread.
struct Counting;

impl Counting {
    fn note(&self) {
        let _ = MINE.try_with(|n| n.set(n.get().wrapping_add(1)));
        let caller = CALLER.try_with(Cell::get).unwrap_or(false);
        if ARMED.load(Ordering::Relaxed) && !caller {
            ELSEWHERE.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// bookkeeping touches only atomics and a const-initialized thread-local
// without a destructor, so it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn split_helpers_allocate_nothing() {
    let _serial = serial();
    let arch = ArchKind::Cnv.arch();
    let predictor = untrained_predictor(&arch, 5, 6);
    let frames: Vec<Tensor> = (0..8u64)
        .map(|s| {
            let px = (0..3 * 32 * 32u64)
                .map(|i| ((i * 37 + s * 101) % 256) as f32 / 255.0)
                .collect();
            Tensor::from_vec(Shape::d3(3, 32, 32), px)
        })
        .collect();

    CALLER.with(|c| c.set(true));
    let started = par::helpers_started();
    ARMED.store(true, Ordering::Relaxed);
    let one = predictor.classify(&frames[0]);
    let block = predictor.classify_block(&frames);
    ARMED.store(false, Ordering::Relaxed);

    assert_eq!(
        ELSEWHERE.load(Ordering::Relaxed),
        0,
        "a split helper allocated while CNV frames ran"
    );
    if par::threads() > 1 {
        assert!(
            par::helpers_started() > started,
            "CNV's conv1 and conv2 are over the split threshold, so helpers must have run"
        );
    }
    assert_eq!(block[0], one);
}

#[test]
fn trace_finish_allocates_nothing() {
    let _serial = serial();
    let registry = Registry::new();
    let cfg = TraceConfig {
        sample_rate: 1,
        ring_capacity: 1,
    };
    // No workers: the queue holds ring_capacity × 1 = one record.
    let tracer = Tracer::new(cfg, 0, &registry);
    let (a, b, c) = (tracer.sample(), tracer.sample(), tracer.sample());
    let (a, b, c) = (a.unwrap(), b.unwrap(), c.unwrap());

    let accepted = allocations_in(|| tracer.finish(a, TraceOutcome::Ok));
    assert_eq!(tracer.dropped(), 0, "the first record fits");
    let full = allocations_in(|| tracer.finish(b, TraceOutcome::Ok));
    assert_eq!(tracer.dropped(), 1, "the second record meets a full queue");
    assert_eq!(tracer.drain().len(), 1);
    let after_drain = allocations_in(|| tracer.finish(c, TraceOutcome::Ok));
    assert_eq!(
        tracer.drain().len(),
        1,
        "a drained queue takes records again"
    );

    assert_eq!(accepted, 0, "finish allocated for an accepted record");
    assert_eq!(full, 0, "finish allocated on a full queue");
    assert_eq!(after_drain, 0, "finish allocated after a drain");
}
