//! Integrity-guard guarantees, pinned end to end:
//!
//! 1. **Detection certainty** — CRC-32 per packed weight row has Hamming
//!    distance ≥ 4 below 91,607 data bits, and no row in any BinaryCoP
//!    architecture comes near that. So detection of 1-, 2- and short-burst
//!    flips within a row is not probabilistic, it is certain; the
//!    proptests here (and one exhaustive all-pairs sweep) pin exactly
//!    that: every such corruption is detected AND localized to its
//!    (stage, row), and the scrubber's repair is bit-exact.
//! 2. **Self-healing serving** — a guarded worker pool hit by repeated
//!    fault injection must quarantine at the canary gate, repair from the
//!    golden copy off the hot path, re-earn rotation through probation,
//!    and never deliver an incorrect `Ok`. Response accounting is exact:
//!    every client-observed outcome reconciles against the engine's own
//!    counters.
//!
//! Case count honors `PROPTEST_CASES` (CI sets 64); seeds are fixed per
//! test name, so failures replay deterministically.

use bcp_finn::fault::{apply_burst, try_apply_fault, FaultRecord};
use bcp_finn::Pipeline;
use bcp_guard::{IntegrityFault, Scrubber};
use bcp_serve::{RecoveryPolicy, ServeConfig, ServeError, WorkerState};
use bcp_trace::Registry;
use binarycop::guard::guarded_engine;
use binarycop::model::untrained_predictor;
use binarycop::recipe::tiny_arch;
use binarycop::BinaryCoP;
use proptest::prelude::*;
use std::sync::OnceLock;

fn predictor() -> &'static BinaryCoP {
    static P: OnceLock<BinaryCoP> = OnceLock::new();
    P.get_or_init(|| untrained_predictor(&tiny_arch(), 5, 6))
}

/// (stage index, rows, cols) for every stage that owns a weight memory.
fn weight_stages(p: &Pipeline) -> Vec<(usize, usize, usize)> {
    (0..p.stages().len())
        .filter_map(|s| {
            p.stages()[s]
                .weight_matrix()
                .map(|m| (s, m.rows(), m.cols()))
        })
        .collect()
}

proptest! {
    /// Any single flipped weight bit is detected and localized to exactly
    /// its (stage, row), and one repair pass restores a clean digest.
    #[test]
    fn single_bit_flips_are_detected_localized_and_repaired(
        si in any::<usize>(),
        ri in any::<usize>(),
        ci in any::<usize>(),
    ) {
        let mut p = predictor().pipeline().clone();
        let golden = Scrubber::new(&p, &Registry::new());
        let mut scrubber = Scrubber::new(&p, &Registry::new());
        let stages = weight_stages(&p);
        let (stage, rows, cols) = stages[si % stages.len()];
        let fault = FaultRecord { stage, row: ri % rows, col: ci % cols };
        try_apply_fault(&mut p, fault).unwrap();

        let found = golden.audit(&p);
        prop_assert_eq!(
            found,
            vec![IntegrityFault::WeightRow { stage, row: fault.row }],
            "one flip must localize to exactly its row"
        );
        let report = scrubber.full_sweep(&mut p);
        prop_assert_eq!(report.faults_detected, 1);
        prop_assert_eq!(report.faults_repaired, 1);
        prop_assert_eq!(report.bits_flipped, 1);
        prop_assert!(golden.audit(&p).is_empty(), "repair must be bit-exact");
    }

    /// Any 2-bit corruption within one row is detected (random sample;
    /// the exhaustive all-pairs sweep below covers a full row per stage).
    #[test]
    fn random_two_bit_flips_within_a_row_are_detected(
        si in any::<usize>(),
        ri in any::<usize>(),
        c1 in any::<usize>(),
        c2 in any::<usize>(),
    ) {
        let mut p = predictor().pipeline().clone();
        let golden = Scrubber::new(&p, &Registry::new());
        let stages = weight_stages(&p);
        let (stage, rows, cols) = stages[si % stages.len()];
        let row = ri % rows;
        let (a, b) = (c1 % cols, c2 % cols);
        prop_assume!(a != b);
        try_apply_fault(&mut p, FaultRecord { stage, row, col: a }).unwrap();
        try_apply_fault(&mut p, FaultRecord { stage, row, col: b }).unwrap();
        prop_assert!(
            !golden.verify_row(&p, stage, row),
            "2-bit flip in row went undetected"
        );
    }

    /// Multi-bit upsets (adjacent bursts, the MBU model of
    /// `apply_burst`) are detected for every burst width CRC-32
    /// guarantees — far beyond the 2–4 adjacent cells real MBUs hit.
    #[test]
    fn bursts_are_detected(
        si in any::<usize>(),
        ri in any::<usize>(),
        ci in any::<usize>(),
        k in 1usize..17,
    ) {
        let mut p = predictor().pipeline().clone();
        let golden = Scrubber::new(&p, &Registry::new());
        let stages = weight_stages(&p);
        let (stage, rows, cols) = stages[si % stages.len()];
        let row = ri % rows;
        let records = apply_burst(&mut p, stage, row, ci % cols, k).unwrap();
        prop_assert!(!records.is_empty());
        prop_assert!(
            !golden.verify_row(&p, stage, row),
            "{}-bit burst went undetected",
            records.len()
        );
    }
}

/// Exhaustive, not sampled: for one row of every weight stage, *all*
/// C(cols, 2) two-bit corruptions are detected. With CRC-32's Hamming
/// distance this must be 100%, and this sweep proves it rather than
/// asserting it.
#[test]
fn all_two_bit_flips_within_a_row_are_detected_exhaustively() {
    let mut p = predictor().pipeline().clone();
    let golden = Scrubber::new(&p, &Registry::new());
    let mut pairs = 0usize;
    for (stage, rows, cols) in weight_stages(&p) {
        let row = rows / 2;
        for a in 0..cols {
            for b in (a + 1)..cols {
                try_apply_fault(&mut p, FaultRecord { stage, row, col: a }).unwrap();
                try_apply_fault(&mut p, FaultRecord { stage, row, col: b }).unwrap();
                assert!(
                    !golden.verify_row(&p, stage, row),
                    "undetected 2-bit flip at stage {stage} row {row} cols ({a},{b})"
                );
                // Flips are involutive: undo to keep the next pair clean.
                try_apply_fault(&mut p, FaultRecord { stage, row, col: a }).unwrap();
                try_apply_fault(&mut p, FaultRecord { stage, row, col: b }).unwrap();
                pairs += 1;
            }
        }
    }
    assert!(golden.audit(&p).is_empty(), "sweep must leave memory clean");
    assert!(pairs > 0);
    println!("verified {pairs} two-bit corruption patterns");
}

/// The end-to-end recovery story: a guarded pool under concurrent client
/// traffic takes repeated fault storms on worker 0, and
///
/// * no client ever receives an incorrect `Ok` — every success matches
///   the clean model, every failure is an explicit `ServeError`;
/// * the wounded worker walks Quarantined → Probation → Healthy each
///   time (counted by `serve.worker.repaired` / `.reinstated`);
/// * accounting is exact — client-observed outcomes reconcile with the
///   engine's own `serve.*` counters, nothing lost or duplicated.
#[test]
fn serve_pool_heals_under_fire_and_never_lies() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    let registry = bcp_trace::Registry::new();
    let p = predictor().clone().with_telemetry(registry.clone());
    let cfg = ServeConfig {
        max_batch: 1,
        recovery: RecoveryPolicy {
            probation_passes: 2,
            max_strikes: 100, // storms below must never exhaust the strike budget
        },
        background_scrub: Some(4),
        ..ServeConfig::default()
    };
    let e = guarded_engine(&p, 2, cfg);

    let gen = bcp_dataset::GeneratorConfig {
        img_size: 16,
        supersample: 2,
    };
    let ds = bcp_dataset::Dataset::generate_balanced(&gen, 2, 0xFA17);
    let frames: Vec<bcp_tensor::Tensor> = (0..ds.len()).map(|i| ds.image(i)).collect();
    let expected: Vec<_> = frames.iter().map(|f| p.classify(f)).collect();

    // The canary gate can only catch fault plans that actually perturb
    // the canary output (canary-invisible corruption is what background
    // scrubbing is for — but this test is about the *gated* path, so pin
    // that precondition per storm, as serve_fault.rs does for its plan).
    const STORMS: usize = 3;
    let golden = bcp_serve::Replica::canary(&p, &bcp_serve::canary_frame(3, 16, 16));
    let p_filter = p.clone();
    let mut seed_pool = (0u64..)
        .filter(move |&seed| {
            let mut q = p_filter.clone();
            bcp_serve::Replica::inject_faults(&mut q, 8, 0xC0FFEE + seed);
            bcp_serve::Replica::canary(&q, &bcp_serve::canary_frame(3, 16, 16)) != golden
        })
        .map(|seed| 0xC0FFEE + seed);
    let storm_seeds: Vec<u64> = seed_pool.by_ref().take(STORMS).collect();

    let ok_seen = AtomicUsize::new(0);
    let fault_seen = AtomicUsize::new(0);
    let submitted = AtomicUsize::new(0);

    std::thread::scope(|s| {
        // Client load: 4 threads, fixed request budget each.
        for t in 0..4 {
            let (e, frames, expected) = (&e, &frames, &expected);
            let (ok_seen, fault_seen, submitted) = (&ok_seen, &fault_seen, &submitted);
            s.spawn(move || {
                for i in 0..120 {
                    let j = (t + i) % frames.len();
                    submitted.fetch_add(1, Ordering::Relaxed);
                    match e.classify(&frames[j]) {
                        Ok(got) => {
                            assert_eq!(got, expected[j], "incorrect Ok delivered");
                            ok_seen.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::WorkerFault { .. }) => {
                            fault_seen.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
        }

        // Chaos: repeated fault storms on worker 0, each waiting for the
        // full quarantine → repair → probation → healthy round trip.
        let scrub_repaired = |registry: &bcp_trace::Registry| {
            registry
                .snapshot()
                .counters
                .get("guard.scrub.faults_repaired")
                .copied()
                .unwrap_or(0)
        };
        for (storm, &seed) in storm_seeds.iter().enumerate() {
            e.inject_faults(0, 8, seed);
            let deadline = Instant::now() + Duration::from_secs(10);
            // The storm is only visible once the canary gate trips; wait
            // for departure from Healthy, then for the full recovery.
            // The background scrubber legitimately races the gate: if it
            // silently repairs the injection first (healing is healing),
            // the gate never trips — detect that via the scrub counter
            // and re-arm with a fresh canary-visible fault plan so this
            // test still exercises the *gated* path every storm.
            let mut repaired_seen = scrub_repaired(&registry);
            while e.worker_state(0) == WorkerState::Healthy && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
                let r = scrub_repaired(&registry);
                if r > repaired_seen && e.worker_state(0) == WorkerState::Healthy {
                    repaired_seen = r;
                    e.inject_faults(0, 8, seed_pool.next().unwrap());
                }
            }
            while e.worker_state(0) != WorkerState::Healthy && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(
                e.worker_state(0),
                WorkerState::Healthy,
                "worker 0 failed to heal from storm {storm}"
            );
        }
    });

    // Reconcile client-side tallies against the engine's own books.
    let snap = registry.snapshot();
    let (ok, faulted, total) = (
        ok_seen.load(Ordering::Relaxed) as u64,
        fault_seen.load(Ordering::Relaxed) as u64,
        submitted.load(Ordering::Relaxed) as u64,
    );
    assert_eq!(total, 4 * 120);
    assert_eq!(ok + faulted, total, "every request resolved exactly once");
    assert_eq!(snap.counters["serve.requests"], total);
    assert_eq!(snap.counters["serve.ok"], ok);
    assert_eq!(snap.counters["serve.failed"], faulted);
    assert!(
        snap.counters["serve.worker.repaired"] >= STORMS as u64,
        "each storm repairs at least once"
    );
    assert_eq!(
        snap.counters["serve.worker.repaired"], snap.counters["serve.worker.reinstated"],
        "every repair must complete probation (strike budget is ample)"
    );
    assert_eq!(
        snap.counters
            .get("serve.worker.retired")
            .copied()
            .unwrap_or(0),
        0
    );
    assert!(faulted > 0, "storms must actually fault some requests");
    e.shutdown();
    assert_eq!(e.worker_states(), vec![WorkerState::Healthy; 2]);
}
