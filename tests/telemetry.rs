//! Cross-layer telemetry integration: one registry metering training,
//! single-frame and batched prediction, then the on-disk
//! artifact contract (`events.jsonl` + `summary.json`).

use bcp_dataset::{Dataset, GeneratorConfig, MaskClass};
use bcp_trace::Registry;
use binarycop::predictor::BinaryCoP;
use binarycop::recipe::{run, Recipe};
use serde::Value;

fn small_recipe() -> Recipe {
    Recipe {
        train_per_class: 12,
        test_per_class: 6,
        epochs: 3,
        ..Recipe::test_scale()
    }
}

#[test]
fn one_registry_meters_training_and_inference() {
    let registry = Registry::with_event_buffer();
    let model = run(&small_recipe(), Some(&registry), |_| {});
    let predictor =
        BinaryCoP::from_trained(&model.net, &model.arch).with_telemetry(registry.clone());

    let gen = GeneratorConfig {
        img_size: 16,
        supersample: 2,
    };
    let ds = Dataset::generate_balanced(&gen, 3, 0xF00D);
    let images: Vec<_> = (0..ds.len()).map(|i| ds.image(i)).collect();
    let single = predictor.classify(&images[0]);
    let batch = predictor.classify_block(&images[1..]);

    let snap = registry.snapshot();
    // Training layer.
    assert_eq!(snap.counters["train.epochs"], 3);
    assert_eq!(snap.histograms["train.epoch_ns"].count, 3);
    assert!(snap.gauges.contains_key("train.epoch.loss"));
    assert!(snap.gauges.contains_key("train.epoch.sign_flip_rate"));
    // Prediction layer: every frame counted exactly once.
    assert_eq!(snap.counters["predict.frames"], images.len() as u64);
    let class_total: u64 = MaskClass::ALL
        .iter()
        .filter_map(|c| {
            let slug = match c {
                MaskClass::CorrectlyMasked => "correct",
                MaskClass::NoseExposed => "nose_exposed",
                MaskClass::NoseMouthExposed => "nose_mouth_exposed",
                MaskClass::ChinExposed => "chin_exposed",
            };
            snap.counters.get(&format!("predict.class.{slug}")).copied()
        })
        .sum();
    assert_eq!(class_total, images.len() as u64);
    assert_eq!(
        snap.histograms["predict.latency_ns"].count,
        images.len() as u64
    );
    let _ = (single, batch);
}

#[test]
fn artifacts_round_trip_through_json() {
    let registry = Registry::with_event_buffer();
    let model = run(&small_recipe(), Some(&registry), |_| {});
    let predictor =
        BinaryCoP::from_trained(&model.net, &model.arch).with_telemetry(registry.clone());
    let gen = GeneratorConfig {
        img_size: 16,
        supersample: 2,
    };
    let ds = Dataset::generate_balanced(&gen, 2, 0xBEEF);
    for i in 0..ds.len() {
        predictor.classify(&ds.image(i));
    }

    let dir = std::env::temp_dir().join(format!("bcp-e2e-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let summary_path = registry.write_artifacts(&dir).unwrap();

    let summary: Value =
        serde_json::from_str(&std::fs::read_to_string(&summary_path).unwrap()).unwrap();
    assert_eq!(summary["counters"]["train.epochs"].as_u64(), Some(3));
    let lat = &summary["histograms"]["predict.latency_ns"];
    for q in ["p50", "p95", "p99"] {
        assert!(lat[q].as_u64().unwrap_or(0) > 0, "{q} missing");
    }

    // Each event line parses standalone; epoch marks carry the dynamics.
    let events = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
    let mut epoch_marks = 0;
    for line in events.lines() {
        let e: Value = serde_json::from_str(line).unwrap();
        assert!(!e["ts_us"].is_null() && !e["kind"].is_null());
        if e["name"].as_str() == Some("train.epoch") {
            epoch_marks += 1;
            assert!(!e["loss"].is_null() && !e["sign_flip_rate"].is_null());
        }
    }
    assert_eq!(epoch_marks, 3, "one mark event per epoch");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_classification_counts_are_exact() {
    let registry = Registry::new();
    let model = run(&small_recipe(), None, |_| {});
    let predictor =
        BinaryCoP::from_trained(&model.net, &model.arch).with_telemetry(registry.clone());
    let gen = GeneratorConfig {
        img_size: 16,
        supersample: 2,
    };
    let ds = Dataset::generate_balanced(&gen, 4, 0xCAFE);
    let images: Vec<_> = (0..ds.len()).map(|i| ds.image(i)).collect();

    std::thread::scope(|s| {
        for chunk in images.chunks(4) {
            let p = &predictor;
            s.spawn(move || {
                for img in chunk {
                    p.classify(img);
                }
            });
        }
    });
    let snap = registry.snapshot();
    assert_eq!(snap.counters["predict.frames"], images.len() as u64);
    assert_eq!(
        snap.histograms["predict.latency_ns"].count,
        images.len() as u64
    );
}
