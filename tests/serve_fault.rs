//! Fault injection against the serving engine: stuck-at faults from
//! `bcp_finn::fault` land in one worker's replica, and the engine must
//! contain the blast radius — the corrupted worker fails *detectably*
//! (per-request `WorkerFault` errors, never a silently wrong class) while
//! healthy workers keep serving correct answers.
//!
//! Determinism comes from the engine's design: every batch is preceded by
//! a golden-output check, so a fault injected into a worker is caught on
//! exactly the first request that worker pulls. Which lone request that is
//! depends on which idle worker the queue wakes, so the two-worker test
//! below feeds requests until worker 0 has pulled one.

use bcp_dataset::{Dataset, GeneratorConfig};
use bcp_serve::{Replica, ServeConfig, ServeError};
use bcp_tensor::Tensor;
use binarycop::model::untrained_predictor;
use binarycop::recipe::tiny_arch;
use binarycop::serve::engine;
use binarycop::BinaryCoP;

const FAULTS: usize = 8;
const SEED: u64 = 123;

fn predictor() -> BinaryCoP {
    untrained_predictor(&tiny_arch(), 5, 6)
}

fn images(n: usize) -> Vec<Tensor> {
    let gen = GeneratorConfig {
        img_size: 16,
        supersample: 2,
    };
    let ds = Dataset::generate_balanced(&gen, n.div_ceil(4), 0xFA17);
    (0..n).map(|i| ds.image(i % ds.len())).collect()
}

/// The fault plan used below must actually perturb the canary, or the
/// isolation tests would vacuously pass; pin that precondition.
#[test]
fn fault_plan_perturbs_the_canary() {
    let p = predictor();
    let frame = bcp_serve::canary_frame(3, 16, 16);
    let golden = Replica::canary(&p, &frame);
    let mut faulty = p.clone();
    faulty.inject_faults(FAULTS, SEED);
    assert_ne!(
        Replica::canary(&faulty, &frame),
        golden,
        "chosen fault plan must change the canary output"
    );
}

#[test]
fn faulty_worker_is_isolated_and_healthy_workers_keep_serving() {
    let p = predictor();
    let e = engine(
        &p,
        2,
        ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        },
    );
    e.inject_faults(0, FAULTS, SEED);
    let frames = images(7);
    // The first request worker 0 pulls rides the batch that trips its
    // canary gate and is failed — never answered wrongly; whatever worker
    // 1 pulls before that is served correctly.
    let mut before = frames.iter().cycle().take(1000);
    loop {
        let f = before.next().expect("worker 0 never pulled a request");
        match e.classify(f) {
            Err(ServeError::WorkerFault { worker: 0 }) => break,
            other => assert_eq!(other, Ok(p.classify(f))),
        }
    }
    assert_eq!(e.healthy_workers(), 1);
    // Every subsequent request is served correctly by the healthy worker.
    for f in &frames[1..] {
        assert_eq!(e.classify(f), Ok(p.classify(f)));
    }
    assert_eq!(e.healthy_workers(), 1, "healthy worker stays healthy");
    e.shutdown();
}

#[test]
fn all_workers_faulted_degrades_to_explicit_errors() {
    let p = predictor();
    let e = engine(
        &p,
        1,
        ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        },
    );
    e.inject_faults(0, FAULTS, SEED);
    let frames = images(2);
    assert_eq!(
        e.classify(&frames[0]),
        Err(ServeError::WorkerFault { worker: 0 })
    );
    assert_eq!(e.healthy_workers(), 0);
    // With nobody left, requests still resolve — explicitly.
    assert_eq!(e.classify(&frames[1]), Err(ServeError::NoHealthyWorkers));
    e.shutdown();
}

#[test]
fn concurrent_traffic_over_a_faulty_pool_is_correct_or_explicit() {
    let p = predictor();
    let e = engine(
        &p,
        2,
        ServeConfig {
            ..ServeConfig::default()
        },
    );
    e.inject_faults(0, FAULTS, SEED);
    let frames = images(4);
    let expected: Vec<_> = frames.iter().map(|f| p.classify(f)).collect();
    let eng = &e;
    std::thread::scope(|s| {
        for (f, want) in frames.iter().zip(&expected) {
            s.spawn(move || {
                for _ in 0..8 {
                    match eng.classify(f) {
                        // Either the right answer or a detected fault —
                        // never a wrong classification.
                        Ok(got) => assert_eq!(got, *want),
                        Err(ServeError::WorkerFault { worker }) => assert_eq!(worker, 0),
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
            });
        }
    });
    assert_eq!(e.healthy_workers(), 1);
    e.shutdown();
}
