//! Single-gate deployment scenario (Sec. IV-B, low-power mode).
//!
//! Trains a reduced n-CNV, deploys it, then simulates a work day at a
//! building entrance: subjects arrive sporadically, each triggering one
//! classification. Reports per-class gate decisions, latency and the
//! near-idle power draw that motivates the paper's 1.6 W claim.
//!
//! A second act scales the same predictor to a *multi-gate* building:
//! several entrance cameras submit concurrently to one shared
//! `bcp-serve` engine, which micro-batches their frames across a pool of
//! replicas — per-camera tallies stay exact, and the engine's `serve.*`
//! metrics land in the same telemetry registry as the gate log.
//!
//! ```sh
//! cargo run --release --example gate_monitor
//! ```

use bcp_dataset::{Dataset, GeneratorConfig, MaskClass};
use bcp_trace::Registry;
use binarycop::arch::ArchKind;
use binarycop::predictor::{BinaryCoP, OperatingMode};
use binarycop::recipe::{run, Recipe};

fn main() {
    let telemetry = Registry::new();
    let recipe = Recipe {
        train_per_class: 60,
        augment_copies: 0,
        test_per_class: 20,
        epochs: 6,
        ..Recipe::quick(ArchKind::NCnv)
    };
    println!("training n-CNV for the gate …");
    let model = run(&recipe, Some(&telemetry), |s| {
        println!("  epoch {:>2}: loss {:.4}", s.epoch, s.loss);
    });
    println!("test accuracy {:.1}%\n", model.test_accuracy * 100.0);

    let predictor =
        BinaryCoP::from_trained(&model.net, &model.arch).with_telemetry(telemetry.clone());
    let perf = predictor.perf();
    println!(
        "deployed {}: latency {:.1} µs per subject, capacity {:.0} fps\n",
        predictor.arch().name,
        perf.latency_us,
        perf.throughput_fps
    );

    // Simulate a gate: 40 subjects pass, ~1 every 2 seconds.
    let gen = GeneratorConfig {
        img_size: 32,
        supersample: 3,
    };
    let subjects = Dataset::generate_balanced(&gen, 10, 0x6A7E);
    let mut admitted = 0usize;
    let mut rejected = [0usize; 4];
    for i in 0..subjects.len() {
        let decision = predictor.classify(&subjects.image(i));
        if decision == MaskClass::CorrectlyMasked {
            admitted += 1;
        } else {
            rejected[decision.label()] += 1;
        }
    }
    println!("gate log ({} subjects):", subjects.len());
    println!("  admitted (correctly masked): {admitted}");
    for class in [
        MaskClass::NoseExposed,
        MaskClass::NoseMouthExposed,
        MaskClass::ChinExposed,
    ] {
        println!(
            "  turned away ({}): {}",
            class.full_name(),
            rejected[class.label()]
        );
    }

    // Power accounting: one subject every 2 s keeps the accelerator asleep
    // almost all the time.
    let gate = predictor.board_power_w(OperatingMode::SingleGate {
        subjects_per_s: 0.5,
    });
    let crowd = predictor.board_power_w(OperatingMode::CrowdStatistics);
    println!(
        "\npower: gate mode {gate:.3} W (≈ the paper's 1.6 W idle), full pipeline {crowd:.2} W"
    );
    let day_wh = gate * 8.0; // an 8-hour shift
    println!("an 8-hour shift costs ≈ {day_wh:.1} Wh — battery-friendly edge deployment");

    // Multi-camera mode: four entrance cameras share one serving engine
    // (two predictor replicas), each camera a concurrent closed-loop
    // client watching its own stream of subjects.
    const CAMERAS: usize = 4;
    const SUBJECTS_PER_CAMERA: usize = 10;
    println!("\nmulti-gate mode: {CAMERAS} cameras → shared serving engine (2 replicas)");
    let engine = binarycop::serve::engine(&predictor, 2, bcp_serve::ServeConfig::default());
    let eng = &engine;
    let subj = &subjects;
    let per_camera: Vec<(usize, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CAMERAS)
            .map(|cam| {
                s.spawn(move || {
                    let (mut seen, mut admitted) = (0usize, 0usize);
                    for i in 0..SUBJECTS_PER_CAMERA {
                        let frame = subj.image((cam * SUBJECTS_PER_CAMERA + i) % subj.len());
                        match eng.classify(&frame) {
                            Ok(class) => {
                                seen += 1;
                                if class == MaskClass::CorrectlyMasked {
                                    admitted += 1;
                                }
                            }
                            Err(e) => println!("  camera {cam}: dropped a frame ({e})"),
                        }
                    }
                    (seen, admitted)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("camera"))
            .collect()
    });
    engine.shutdown();
    for (cam, (seen, admitted)) in per_camera.iter().enumerate() {
        println!("  camera {cam}: {seen} subjects, {admitted} admitted");
    }
    let total: usize = per_camera.iter().map(|(s, _)| s).sum();
    assert_eq!(
        total,
        CAMERAS * SUBJECTS_PER_CAMERA,
        "serving engine must answer every camera frame exactly once"
    );

    // Final act: the same building, but the accelerator's weight SRAM is
    // under an SEU storm (paper Sec. IV robustness — a flipped weight bit
    // is a full sign change). A *guarded* engine survives it: the canary
    // gate quarantines the corrupted replica, its scrubber restores the
    // golden weights off the hot path, and the worker re-earns rotation
    // through probation — with zero wrong gate decisions in between.
    println!("\nfault storm: 8 bit flips into replica 0's weight memory (guarded engine)");
    let guarded = binarycop::guard::guarded_engine(
        &predictor,
        2,
        bcp_serve::ServeConfig {
            background_scrub: Some(8),
            ..bcp_serve::ServeConfig::default()
        },
    );
    // Pick a storm the canary gate can see (canary-invisible corruption is
    // mopped up by the background scrub instead).
    let canary = bcp_serve::canary_frame(3, 32, 32);
    let golden = bcp_serve::Replica::canary(&predictor, &canary);
    let storm_seed = (0u64..)
        .find(|&s| {
            let mut q = predictor.clone();
            bcp_serve::Replica::inject_faults(&mut q, 8, 0x5707 + s);
            bcp_serve::Replica::canary(&q, &canary) != golden
        })
        .map(|s| 0x5707 + s)
        .expect("some storm perturbs the canary");
    guarded.inject_faults(0, 8, storm_seed);

    let eng = &guarded;
    let pred = &predictor;
    let (mut correct, mut faulted) = (0usize, 0usize);
    let outcomes: Vec<(usize, usize)> = std::thread::scope(|s| {
        (0..CAMERAS)
            .map(|cam| {
                s.spawn(move || {
                    let (mut ok, mut detected) = (0usize, 0usize);
                    for i in 0..SUBJECTS_PER_CAMERA {
                        let frame = subj.image((cam * SUBJECTS_PER_CAMERA + i) % subj.len());
                        match eng.classify(&frame) {
                            Ok(class) => {
                                assert_eq!(
                                    class,
                                    pred.classify(&frame),
                                    "a guarded engine must never serve a wrong answer"
                                );
                                ok += 1;
                            }
                            Err(_) => detected += 1,
                        }
                    }
                    (ok, detected)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("camera"))
            .collect()
    });
    for (ok, detected) in &outcomes {
        correct += ok;
        faulted += detected;
    }
    // Give the wounded worker time to finish its repair → probation walk.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while guarded.worker_state(0) != bcp_serve::WorkerState::Healthy
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let states = guarded.worker_states();
    guarded.shutdown();
    println!(
        "  {correct} correct decisions, {faulted} detectably failed, 0 wrong answers; \
         worker states after healing: {states:?}"
    );
    assert_eq!(
        correct + faulted,
        CAMERAS * SUBJECTS_PER_CAMERA,
        "every frame resolved exactly once, storm or not"
    );
    assert_eq!(
        states,
        vec![bcp_serve::WorkerState::Healthy; 2],
        "the storm-hit worker must heal back into rotation"
    );

    // Everything above was also metered: per-epoch training dynamics, the
    // per-subject classification latency histogram, the serving engine's
    // queue/batch/latency metrics (serve.*), the recovery lifecycle
    // counters (serve.worker.*) and the scrubber's guard.scrub.* series.
    println!("\n{}", telemetry.render_text());
}
