//! Stress-level invariants of the `bcp-serve` engine over the *real*
//! predictor (tiny-CNV), pinned by the issue's acceptance criteria:
//!
//! * **Determinism**: the same 256 frames produce byte-identical
//!   `MaskClass` sequences through the engine at worker counts 1, 2 and 8
//!   as through plain `classify_block` — concurrency must never change
//!   answers, only their timing.
//! * **Saturation safety**: under `Reject` and `ShedOldest` with a tiny
//!   queue and many closed-loop clients, the engine never deadlocks and
//!   every request resolves to exactly one response (cross-checked against
//!   the engine's own telemetry counters).
//! * **Deadline honesty**: every successful response lands within the
//!   configured deadline.

use bcp_dataset::{Dataset, GeneratorConfig, MaskClass};
use bcp_serve::{BackpressurePolicy, ServeConfig};
use bcp_tensor::Tensor;
use binarycop::model::untrained_bnn;
use binarycop::recipe::tiny_arch;
use binarycop::reference::IntegerReference;
use binarycop::serve::engine;
use binarycop::BinaryCoP;
use std::time::Duration;

fn predictor() -> BinaryCoP {
    predictor_and_reference().0
}

fn predictor_and_reference() -> (BinaryCoP, IntegerReference) {
    let arch = tiny_arch();
    let net = untrained_bnn(&arch, 5, 6);
    (
        BinaryCoP::from_trained(&net, &arch),
        IntegerReference::from_network(&net, &arch),
    )
}

fn images(n: usize) -> Vec<Tensor> {
    let gen = GeneratorConfig {
        img_size: 16,
        supersample: 2,
    };
    let ds = Dataset::generate_balanced(&gen, n.div_ceil(4), 0xC0FFEE);
    (0..n).map(|i| ds.image(i % ds.len())).collect()
}

#[test]
fn engine_is_deterministic_across_worker_counts() {
    let p = predictor();
    let frames = images(256);
    // Reference: the blocked executor over all frames at once, no serving
    // layer at all.
    let reference = p.classify_block(&frames);
    for workers in [1usize, 2, 8] {
        let e = engine(&p, workers, ServeConfig::default());
        let tickets: Vec<_> = frames
            .iter()
            .map(|f| e.submit(f).expect("Block policy never refuses"))
            .collect();
        let served: Vec<_> = tickets
            .into_iter()
            .map(|t| t.wait().expect("lossless config: every request succeeds"))
            .collect();
        assert_eq!(
            served, reference,
            "engine with {workers} workers diverged from classify_block"
        );
        e.shutdown();
    }
}

#[test]
fn batched_kernel_engine_is_byte_identical_to_classify_block() {
    // Same shape as the determinism test above, but tuned so worker
    // dispatch actually forms large micro-batches: max_batch 16 spans four
    // register blocks of the blocked GEMM, and 96 pipelined submits let the
    // queue coalesce. However the engine cuts the 96 frames into sealed
    // batches, the register-blocked kernel inside `infer_batch` must be
    // byte-identical to one `classify_block` over all of them — and to
    // the dense-loop integer oracle frame by frame — at every worker count.
    let (p, oracle) = predictor_and_reference();
    let frames = images(96);
    let reference = p.classify_block(&frames);
    assert_eq!(
        frames
            .iter()
            .map(|f| MaskClass::from_label(oracle.classify(&p.quantize(f))))
            .collect::<Vec<_>>(),
        reference,
        "blocked in-thread path diverged from the integer reference"
    );
    for workers in [1usize, 2, 8] {
        let e = engine(
            &p,
            workers,
            ServeConfig {
                max_batch: 16,
                ..ServeConfig::default()
            },
        );
        let tickets: Vec<_> = frames
            .iter()
            .map(|f| e.submit(f).expect("Block policy never refuses"))
            .collect();
        let served: Vec<_> = tickets
            .into_iter()
            .map(|t| t.wait().expect("lossless config: every request succeeds"))
            .collect();
        assert_eq!(
            served, reference,
            "batched-kernel engine with {workers} workers diverged from classify_block"
        );
        e.shutdown();
    }
}

#[test]
fn reject_saturation_never_deadlocks_or_loses_responses() {
    let p = predictor();
    let e = engine(
        &p,
        1,
        ServeConfig {
            queue_cap: 2,
            max_batch: 2,
            policy: BackpressurePolicy::Reject,
            ..ServeConfig::default()
        },
    );
    let frames = images(8);
    let report = bcp_serve::run_closed_loop(&e, &frames, 8, 25);
    e.shutdown();
    assert!(
        report.accounted(),
        "lost or duplicated responses: {report:?}"
    );
    assert!(report.ok > 0, "some traffic must get through");
    assert_eq!(report.shed + report.expired + report.faulted, 0);
    // The engine's own books must agree with the client-side tally.
    let snap = p.telemetry().snapshot();
    assert_eq!(snap.counters["serve.ok"], report.ok as u64);
    assert_eq!(
        snap.counters.get("serve.rejected").copied().unwrap_or(0),
        report.rejected as u64
    );
}

#[test]
fn shed_oldest_saturation_never_deadlocks_or_loses_responses() {
    let p = predictor();
    let e = engine(
        &p,
        1,
        ServeConfig {
            queue_cap: 2,
            max_batch: 2,
            policy: BackpressurePolicy::ShedOldest,
            ..ServeConfig::default()
        },
    );
    let frames = images(8);
    let report = bcp_serve::run_closed_loop(&e, &frames, 8, 25);
    e.shutdown();
    assert!(
        report.accounted(),
        "lost or duplicated responses: {report:?}"
    );
    assert!(report.ok > 0);
    assert_eq!(report.rejected + report.expired + report.faulted, 0);
    let snap = p.telemetry().snapshot();
    assert_eq!(snap.counters["serve.ok"], report.ok as u64);
    assert_eq!(
        snap.counters.get("serve.shed").copied().unwrap_or(0),
        report.shed as u64
    );
}

#[test]
fn successful_responses_always_land_inside_the_deadline() {
    let deadline = Duration::from_millis(250);
    let p = predictor();
    let e = engine(
        &p,
        2,
        ServeConfig {
            deadline: Some(deadline),
            ..ServeConfig::default()
        },
    );
    let frames = images(8);
    let report = bcp_serve::run_closed_loop(&e, &frames, 8, 15);
    e.shutdown();
    assert!(report.accounted());
    assert!(report.ok > 0);
    // Engine-side: an Ok is only completed inside the deadline. Client-side
    // measurement adds only wakeup latency; allow a small scheduler slack.
    let slack = Duration::from_millis(25);
    assert!(
        report.max <= deadline + slack,
        "successful response took {:?}, deadline {:?}",
        report.max,
        deadline
    );
    assert!(report.p99 <= deadline + slack);
}

#[test]
fn submitting_threads_and_waiting_threads_can_be_different() {
    // The MPMC admission queue plus Arc'd slots mean tickets can cross
    // threads: one producer submits, another consumer waits.
    let p = predictor();
    let e = engine(&p, 2, ServeConfig::default());
    let frames = images(32);
    let reference = p.classify_block(&frames);
    let tickets: Vec<_> = frames.iter().map(|f| e.submit(f).unwrap()).collect();
    let served = std::thread::scope(|s| {
        s.spawn(|| {
            tickets
                .into_iter()
                .map(|t| t.wait().expect("lossless"))
                .collect::<Vec<_>>()
        })
        .join()
        .expect("waiter thread")
    });
    e.shutdown();
    assert_eq!(served, reference);
}
