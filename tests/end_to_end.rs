//! Cross-crate integration: dataset → training → deployment → pipeline.
//!
//! These tests exercise the full BinaryCoP flow across crate boundaries at
//! miniature scale — the workspace-level counterparts of the paper's
//! system claims.

use bcp_dataset::{Dataset, GeneratorConfig, MaskClass};
use bcp_finn::perf::CLOCK_100MHZ;
use bcp_nn::Mode;
use binarycop::deploy::deploy;
use binarycop::predictor::{BinaryCoP, OperatingMode};
use binarycop::recipe::{run, tiny_arch, Recipe};
use binarycop::reference::IntegerReference;

fn small_recipe() -> Recipe {
    Recipe {
        train_per_class: 30,
        augment_copies: 0,
        test_per_class: 10,
        ..Recipe::test_scale()
    }
}

#[test]
fn train_deploy_classify_roundtrip() {
    // The headline flow: synthetic data → BNN training → threshold folding
    // → XNOR pipeline → classification, with the deployed pipeline
    // agreeing with the independent integer reference on every frame.
    let model = run(&small_recipe(), None, |_| {});
    assert!(
        model.test_accuracy > 0.35,
        "accuracy {}",
        model.test_accuracy
    );

    let pipeline = deploy(&model.net, &model.arch);
    let reference = IntegerReference::from_network(&model.net, &model.arch);
    let gen = GeneratorConfig {
        img_size: model.arch.input_size,
        supersample: 2,
    };
    let probe = Dataset::generate_balanced(&gen, 4, 0xBEEF);
    for i in 0..probe.len() {
        let img = probe.image(i);
        let q = bcp_finn::data::QuantMap::from_unit_floats(
            3,
            model.arch.input_size,
            model.arch.input_size,
            img.as_slice(),
        );
        assert_eq!(
            pipeline.forward(&q),
            reference.forward(&q),
            "deployed pipeline must be bit-exact (sample {i})"
        );
    }
}

#[test]
fn predictor_beats_chance_on_fresh_data() {
    let model = run(&small_recipe(), None, |_| {});
    let predictor = BinaryCoP::from_trained(&model.net, &model.arch);
    let gen = GeneratorConfig {
        img_size: model.arch.input_size,
        supersample: 2,
    };
    let fresh = Dataset::generate_balanced(&gen, 10, 0xF00D);
    let correct = (0..fresh.len())
        .filter(|&i| predictor.classify(&fresh.image(i)).label() == fresh.labels[i])
        .count();
    // 4-class chance is 25 %; demand clear separation.
    assert!(
        correct * 100 >= fresh.len() * 40,
        "pipeline got {correct}/{} on fresh data",
        fresh.len()
    );
}

#[test]
fn crowd_batch_equals_single_frame_classification() {
    let model = run(&small_recipe(), None, |_| {});
    let predictor = BinaryCoP::from_trained(&model.net, &model.arch);
    let gen = GeneratorConfig {
        img_size: model.arch.input_size,
        supersample: 2,
    };
    let ds = Dataset::generate_raw(&gen, 12, 0xCAFE);
    let images: Vec<_> = (0..ds.len()).map(|i| ds.image(i)).collect();
    let reference = IntegerReference::from_network(&model.net, &model.arch);
    let batch = predictor.classify_block(&images);
    for (i, img) in images.iter().enumerate() {
        let single = reference.classify(&predictor.quantize(img));
        assert_eq!(batch[i], MaskClass::from_label(single), "frame {i}");
    }
}

#[test]
fn training_accuracy_transfers_to_the_pipeline() {
    // The trained float network's test-set accuracy must survive
    // deployment: the pipeline's accuracy on the same test set should be
    // close (generally identical classifications).
    let model = run(&small_recipe(), None, |_| {});
    let mut net = model.net;
    let predictor = BinaryCoP::from_trained(&net, &model.arch);
    let test = &model.test_set;
    let mut sw = 0usize;
    let mut hw = 0usize;
    let norm = test.normalized_images();
    let logits = net.forward(&norm, Mode::Eval);
    let preds = bcp_nn::metrics::predictions(&logits);
    #[allow(clippy::needless_range_loop)]
    for i in 0..test.len() {
        if preds[i] == test.labels[i] {
            sw += 1;
        }
        if predictor.classify(&test.image(i)).label() == test.labels[i] {
            hw += 1;
        }
    }
    let diff = sw.abs_diff(hw);
    assert!(
        diff * 20 <= test.len(),
        "deployment accuracy drop too large: sw {sw} vs hw {hw} of {}",
        test.len()
    );
}

#[test]
fn perf_and_power_models_are_consistent_across_modes() {
    let model = run(&small_recipe(), None, |_| {});
    let predictor = BinaryCoP::from_trained(&model.net, &model.arch);
    let perf = predictor.perf();
    // The timing model's per-frame capacity bounds the gate duty cycle.
    let gate = predictor.board_power_w(OperatingMode::SingleGate {
        subjects_per_s: 1.0,
    });
    let crowd = predictor.board_power_w(OperatingMode::CrowdStatistics);
    assert!(gate >= 1.6 && gate < crowd);
    // Batch time for N frames at full rate beats N sequential latencies.
    let n = 100;
    let batched = perf.batch_seconds(n, &CLOCK_100MHZ);
    let sequential = n as f64 * perf.latency_us * 1e-6;
    assert!(
        batched < sequential,
        "pipelining must amortize: {batched} vs {sequential}"
    );
}

#[test]
fn checkpoint_roundtrip_preserves_deployment() {
    // Save → load through bcp-nn's JSON state dict, then deploy both and
    // compare pipelines on frames.
    let model = run(&small_recipe(), None, |_| {});
    let mut original = model.net;
    let sd = bcp_nn::serialize::state_dict(&mut original);
    let mut restored = binarycop::model::build_bnn(&model.arch, 12345);
    bcp_nn::serialize::load_state_dict(&mut restored, &sd);

    let p1 = deploy(&original, &model.arch);
    let p2 = deploy(&restored, &model.arch);
    let gen = GeneratorConfig {
        img_size: model.arch.input_size,
        supersample: 2,
    };
    let ds = Dataset::generate_balanced(&gen, 2, 0xD00D);
    for i in 0..ds.len() {
        let img = ds.image(i);
        let q = bcp_finn::data::QuantMap::from_unit_floats(
            3,
            model.arch.input_size,
            model.arch.input_size,
            img.as_slice(),
        );
        assert_eq!(p1.forward(&q), p2.forward(&q), "checkpoint must round-trip");
    }
}

#[test]
fn tiny_arch_deploys_with_exact_foldings() {
    for l in tiny_arch().plan().iter().filter(|l| l.is_compute()) {
        let folding = bcp_finn::Folding::new(l.pe, l.simd);
        assert!(folding.is_exact(l.rows, l.cols), "layer {}", l.name);
    }
}

#[test]
fn all_four_classes_reachable_by_pipeline() {
    // Sanity against degenerate collapse: across many inputs, a trained
    // pipeline emits more than one class, and the generator covers all 4.
    let model = run(&small_recipe(), None, |_| {});
    let predictor = BinaryCoP::from_trained(&model.net, &model.arch);
    let gen = GeneratorConfig {
        img_size: model.arch.input_size,
        supersample: 2,
    };
    let ds = Dataset::generate_balanced(&gen, 8, 0xABCD);
    let mut seen = std::collections::HashSet::new();
    for i in 0..ds.len() {
        seen.insert(predictor.classify(&ds.image(i)));
    }
    assert!(seen.len() >= 3, "pipeline collapsed to {seen:?}");
    let truth: std::collections::HashSet<MaskClass> = ds
        .labels
        .iter()
        .map(|&l| MaskClass::from_label(l))
        .collect();
    assert_eq!(truth.len(), 4);
}
