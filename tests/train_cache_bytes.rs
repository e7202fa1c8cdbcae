//! What a training-mode forward leaves behind for backward, in bytes.
//!
//! Every layer caches for its backward pass, and an untrained network
//! (`model::untrained_bnn`, the benchmark's set-up) gets its batch-norm
//! statistics from one `Mode::Train` forward that it keeps, caches and all,
//! while it is deployed. A counting global allocator tracks the bytes
//! live on the heap; the test pins how many a CNV forward of two frames
//! still holds once its output is dropped. Those are the caches: ±1 layer
//! inputs and activation masks as bits, no copy of any multiplied weight,
//! and what stays `f32` (conv1's pixels, batch-norm's normalized input, the
//! pool indices). Caching `sign(W)` and `f32` copies of the ±1 inputs, as
//! the graph once did, holds ≈ 9.5 MB here.

use bcp_nn::Mode;
use bcp_tensor::{init::uniform, Shape};
use binarycop::arch::ArchKind;
use binarycop::model::build_bnn;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes allocated and not yet freed, process-wide.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, keeping [`LIVE`].
struct Counting;

fn grow(by: usize) {
    LIVE.fetch_add(by as isize, Ordering::Relaxed);
}

fn shrink(by: usize) {
    LIVE.fetch_sub(by as isize, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// bookkeeping touches one atomic, so it never allocates or re-enters the
// allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Measured at 1.49 MB; the float caches read 9.49 MB.
const CEILING: isize = 2_000_000;

#[test]
fn cnv_train_forward_caches_bits_not_floats() {
    let arch = ArchKind::Cnv.arch();
    let mut net = build_bnn(&arch, 1);
    let x = uniform(Shape::nchw(2, 3, 32, 32), -1.0, 1.0, 2);

    let before = LIVE.load(Ordering::Relaxed);
    drop(net.forward(&x, Mode::Train));
    let held = LIVE.load(Ordering::Relaxed) - before;

    println!("bytes held after a CNV train forward of 2 frames: {held}");
    assert!(
        held <= CEILING,
        "a CNV train forward of 2 frames holds {held} bytes for backward (ceiling {CEILING})"
    );
    // The caches are what backward consumes: it runs, and gives the input's
    // shape back.
    let y = net.forward(&x, Mode::Train);
    let dx = net.backward(&bcp_tensor::Tensor::ones(y.shape().clone()));
    assert_eq!(dx.shape(), x.shape());
}
