//! A frame's split helpers allocate nothing.
//!
//! A helper thread that grows its own buffer makes glibc open a fresh
//! malloc arena for it, which shows in peak RSS; so the conv stages hand
//! each helper caller-owned scratch and output slices
//! (`bcp_tensor::par`, DESIGN §4c). A counting global allocator tallies
//! every allocation made on a thread other than this test's own while a CNV
//! `classify` and a `classify_block` of 8 run. This file holds one test, so
//! no other test's thread can allocate while it counts.

use bcp_nn::Mode;
use bcp_tensor::{par, Shape, Tensor};
use binarycop::arch::ArchKind;
use binarycop::model::build_bnn;
use binarycop::BinaryCoP;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Whether allocations are being counted.
static ARMED: AtomicBool = AtomicBool::new(false);
/// Allocations counted on threads other than the caller's.
static ELSEWHERE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the thread that runs the frames.
    static CALLER: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator, counting allocations off the caller's thread.
struct Counting;

impl Counting {
    fn note(&self) {
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
    let arch = ArchKind::Cnv.arch();
    let mut net = build_bnn(&arch, 5);
    let x = bcp_tensor::init::uniform(Shape::nchw(2, 3, 32, 32), -1.0, 1.0, 6);
    let _ = net.forward(&x, Mode::Train);
    let predictor = BinaryCoP::from_trained(&net, &arch);
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
