//! End-to-end integrity of the request-lifecycle tracer (`bcp-trace`)
//! through the *real* serving stack, pinned by the issue's satellite:
//!
//! * **Monotone stamps** — every reached lifecycle event carries a
//!   timestamp no earlier than the previous one, on every record, under
//!   randomized worker counts / batch shapes (proptest).
//! * **Exactly one terminal span per TraceId** — a sampled request
//!   produces exactly one finished record; no duplicates, no orphans.
//! * **Telescoping accounting** — the five segment durations of a
//!   completed record sum *exactly* to its end-to-end latency (the
//!   segments share boundary stamps, so there is no rounding slack).
//! * **Drops are counted, never silent** — with a deliberately tiny ring
//!   under concurrent load, `drained + dropped == sampled` holds exactly.
//! * **The time series is the records'** — queue depth and busy workers
//!   derived from the stamps match a queue staged behind a held worker.
//!
//! Case counts honor `PROPTEST_CASES` (CI sets a small value); each case
//! spins a real engine over the tiny-CNV predictor, so the per-case load
//! is kept deliberately light.

use bcp_dataset::{Dataset, GeneratorConfig, MaskClass};
use bcp_serve::{canary_frame, BackpressurePolicy, Engine, Replica, ServeConfig, SyntheticReplica};
use bcp_tensor::Tensor;
use bcp_trace::{audit, Registry, TraceConfig, TraceOutcome, TraceSet, EVENTS, SEGMENTS};
use binarycop::model::untrained_predictor;
use binarycop::recipe::tiny_arch;
use binarycop::serve::engine;
use binarycop::BinaryCoP;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// One trained tiny predictor shared by every case — building it is far
/// more expensive than serving a handful of frames through it.
fn predictor() -> &'static BinaryCoP {
    static P: OnceLock<BinaryCoP> = OnceLock::new();
    P.get_or_init(|| untrained_predictor(&tiny_arch(), 5, 6))
}

fn images(n: usize) -> Vec<Tensor> {
    let gen = GeneratorConfig {
        img_size: 16,
        supersample: 2,
    };
    let ds = Dataset::generate_balanced(&gen, n.div_ceil(4), 0xBEEF);
    (0..n).map(|i| ds.image(i % ds.len())).collect()
}

proptest! {
    /// Every request traced at 100% sampling through a real engine yields
    /// a well-formed record: unique id, monotone stamps over all seven
    /// lifecycle events, Ok outcome, and segment durations that telescope
    /// exactly to the end-to-end latency.
    #[test]
    fn every_sampled_request_yields_one_sound_record(
        workers in 1usize..3,
        n_requests in 4usize..17,
        max_batch in 1usize..9,
    ) {
        let cfg = ServeConfig {
            max_batch,
            trace: Some(TraceConfig::sample_all()),
            ..ServeConfig::default()
        };
        let e = engine(predictor(), workers, cfg);
        let frames = images(n_requests);
        let tickets: Vec<_> = frames
            .iter()
            .map(|f| e.submit(f).expect("Block policy never refuses"))
            .collect();
        for t in tickets {
            t.wait().expect("lossless config: every request succeeds");
        }
        let tracer = e.tracer().expect("tracing enabled");
        e.shutdown();
        let records = tracer.drain();

        // 100% sampling + ample ring: one record per request, none lost.
        prop_assert_eq!(tracer.dropped(), 0);
        prop_assert_eq!(records.len(), n_requests);
        prop_assert_eq!(tracer.sampled(), n_requests as u64);

        // Exactly one terminal span per TraceId.
        let ids: HashSet<_> = records.iter().map(|r| r.id).collect();
        prop_assert_eq!(ids.len(), records.len());

        for r in &records {
            prop_assert_eq!(r.outcome, TraceOutcome::Ok);
            prop_assert!(r.is_complete(), "Ok record reached all events: {:?}", r.stamps);
            // Monotone stamps across the full lifecycle.
            let ts: Vec<u64> = EVENTS
                .iter()
                .map(|&ev| r.stamp(ev).expect("complete record"))
                .collect();
            prop_assert!(
                ts.windows(2).all(|w| w[0] <= w[1]),
                "non-monotone stamps: {:?}",
                ts
            );
            // Telescoping: segments share boundaries, so the sum is exact.
            let seg_sum: u64 = SEGMENTS
                .iter()
                .map(|&s| r.segment_ns(s).expect("complete record"))
                .sum();
            prop_assert_eq!(Some(seg_sum), r.end_to_end_ns());
            prop_assert!(r.worker < workers, "worker stamped: {}", r.worker);
            prop_assert!((1..=max_batch as u32).contains(&r.batch_size));
        }

        // The shared audit pass agrees with the hand-rolled checks.
        prop_assert!(audit(&records).is_ok(), "audit: {:?}", audit(&records));
    }
}

/// The register-blocked batch dispatch (`infer_batch` → `classify_block`)
/// runs under the tracer: compute-segment attribution must still telescope
/// exactly to end-to-end latency on every record of a multi-frame batch.
#[test]
fn compute_attribution_telescopes_through_the_batched_paths() {
    let cfg = ServeConfig {
        max_batch: 16,
        trace: Some(TraceConfig::sample_all()),
        ..ServeConfig::default()
    };
    let e = engine(predictor(), 2, cfg);
    let frames = images(24);
    let tickets: Vec<_> = frames
        .iter()
        .map(|f| e.submit(f).expect("Block policy never refuses"))
        .collect();
    for t in tickets {
        t.wait().expect("lossless config");
    }
    let tracer = e.tracer().expect("tracing enabled");
    e.shutdown();
    let records = tracer.drain();
    assert_eq!(records.len(), 24);

    let mut saw_multi_frame_batch = false;
    for r in &records {
        assert_eq!(r.outcome, TraceOutcome::Ok);
        assert!(r.is_complete());
        let seg_sum: u64 = SEGMENTS
            .iter()
            .map(|&s| r.segment_ns(s).expect("complete record"))
            .sum();
        assert_eq!(Some(seg_sum), r.end_to_end_ns(), "segments must telescope");
        saw_multi_frame_batch |= r.batch_size >= 2;
    }
    // 24 requests through a 16-deep queue with coalescing wait must form
    // at least one multi-frame batch, so the blocked kernel path genuinely
    // ran.
    assert!(
        saw_multi_frame_batch,
        "no batch reached the multi-frame kernel path"
    );
    audit(&records).expect("records audit clean");
}

/// Under concurrent producers with a deliberately tiny ring, finished
/// records may be dropped — but every drop is counted, never silent:
/// `drained + dropped == sampled` holds exactly after shutdown.
#[test]
fn ring_saturation_drops_are_counted_never_silent() {
    let cfg = ServeConfig {
        max_batch: 4,
        trace: Some(TraceConfig {
            sample_rate: 1,
            ring_capacity: 2, // deliberately starved
        }),
        ..ServeConfig::default()
    };
    let e = engine(predictor(), 2, cfg);
    let frames = images(16);
    std::thread::scope(|s| {
        for c in 0..4usize {
            let e = &e;
            let frames = &frames;
            s.spawn(move || {
                for f in frames.iter().skip(c).step_by(4) {
                    for _ in 0..4 {
                        e.submit(f)
                            .expect("Block policy never refuses")
                            .wait()
                            .expect("lossless config");
                    }
                }
            });
        }
    });
    let tracer = e.tracer().expect("tracing enabled");
    e.shutdown();
    let records = tracer.drain();

    assert_eq!(tracer.sampled(), 64, "sample_rate 1 traces every admission");
    assert_eq!(
        records.len() as u64 + tracer.dropped(),
        tracer.sampled(),
        "every sampled trace is either drained or counted as dropped"
    );
    assert!(
        tracer.dropped() > 0,
        "a 2-slot ring under 64 finished traces must overflow"
    );
    // Whatever survived the ring is still individually sound.
    audit(&records).expect("surviving records audit clean");
}

/// `(batches entered, open)` behind a condvar: a latch inside compute.
#[derive(Default)]
struct Gate {
    state: Mutex<(usize, bool)>,
    cv: Condvar,
}

/// A synthetic replica that parks every batch inside `infer_batch` until
/// the gate opens, so "busy" is decided by the test, not by a clock. It
/// gives up after ten seconds so a failing test fails instead of hanging.
struct Held {
    inner: SyntheticReplica,
    gate: Arc<Gate>,
}

impl Replica for Held {
    fn input_dims(&self) -> [usize; 3] {
        self.inner.input_dims()
    }

    fn input_range(&self) -> std::ops::RangeInclusive<f32> {
        self.inner.input_range()
    }

    fn infer_batch(&mut self, frames: &[Tensor]) -> Vec<MaskClass> {
        let mut st = self.gate.state.lock().unwrap();
        st.0 += 1;
        self.gate.cv.notify_all();
        let ten_s = Duration::from_secs(10);
        drop(
            self.gate
                .cv
                .wait_timeout_while(st, ten_s, |s| !s.1)
                .unwrap(),
        );
        self.inner.infer_batch(frames)
    }

    fn canary(&self, frame: &Tensor) -> Vec<i64> {
        self.inner.canary(frame)
    }

    fn inject_faults(&mut self, n: usize, seed: u64) {
        self.inner.inject_faults(n, seed)
    }
}

/// With the only worker held inside compute, `k` submitted frames wait in
/// the admission queue: the series derived from the records peaks at
/// exactly `k` queued with one worker busy, and ends empty and idle.
#[test]
fn time_series_sees_the_queue_behind_a_held_worker() {
    const K: usize = 12;
    let gate = Arc::new(Gate::default());
    let held = Held {
        inner: SyntheticReplica::new(),
        gate: Arc::clone(&gate),
    };
    let cfg = ServeConfig {
        policy: BackpressurePolicy::Block,
        trace: Some(TraceConfig::sample_all()),
        ..ServeConfig::default()
    };
    let e = Engine::start(vec![held], cfg, Registry::new());
    let frames: Vec<Tensor> = (0..=K)
        .map(|i| canary_frame(3, 8, 8).map(|v| v + i as f32))
        .collect();
    let head = e.submit(&frames[0]).expect("Block policy never refuses");
    drop(
        gate.cv
            .wait_while(gate.state.lock().unwrap(), |s| s.0 == 0)
            .unwrap(),
    );
    let queued: Vec<_> = frames[1..]
        .iter()
        .map(|f| e.submit(f).expect("Block policy never refuses"))
        .collect();
    gate.state.lock().unwrap().1 = true;
    gate.cv.notify_all();
    for t in std::iter::once(head).chain(queued) {
        t.wait().expect("lossless config");
    }
    let tracer = e.tracer().expect("tracing enabled");
    e.shutdown();
    let set = TraceSet::new(tracer.drain(), tracer.dropped());
    assert_eq!(set.records.len(), K + 1);
    audit(&set.records).expect("records audit clean");

    let series = set.time_series();
    assert_eq!(series.peak(), (K as u64, 1));
    assert!(
        series
            .rows
            .iter()
            .any(|r| (r.queue_depth, r.busy_workers) == (K as u64, 1)),
        "all {K} queued while the worker computes: {series:?}"
    );
    let last = series.rows.last().expect("a non-empty series");
    assert_eq!((last.queue_depth, last.busy_workers), (0, 0));
}
