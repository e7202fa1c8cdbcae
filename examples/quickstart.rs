//! Quickstart: train a miniature BinaryCoP, deploy it to the FINN pipeline
//! simulator, and classify synthetic masked faces.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//! Runs in a few seconds; for the paper-scale flow see the `experiments`
//! binary in the `binarycop` crate.

use bcp_dataset::{Dataset, GeneratorConfig, MaskClass};
use binarycop::predictor::{BinaryCoP, OperatingMode};
use binarycop::recipe::{run, Recipe};

fn main() {
    // 1. Train: a miniature architecture on the synthetic MaskedFace-Net
    //    substitute (seconds on a laptop core).
    let recipe = Recipe {
        train_per_class: 200,
        test_per_class: 40,
        augment_copies: 1,
        epochs: 15,
        ..Recipe::test_scale()
    };
    println!(
        "training {} on {} samples/class …",
        recipe.arch.name, recipe.train_per_class
    );
    let model = run(&recipe, None, |s| {
        println!(
            "  epoch {:>2}: loss {:.4}  train acc {:.1}%",
            s.epoch,
            s.loss,
            s.train_accuracy * 100.0
        );
    });
    println!("test accuracy: {:.1}%\n", model.test_accuracy * 100.0);

    // 2. Deploy: binarize weights, fold batch-norms into thresholds, build
    //    the streaming XNOR pipeline.
    let predictor = BinaryCoP::from_trained(&model.net, &model.arch);
    println!("{}", predictor.pipeline().describe());
    println!("{}", predictor.summary());

    // 3. Classify fresh faces through the deployed pipeline.
    let gen = GeneratorConfig {
        img_size: model.arch.input_size,
        supersample: 3,
    };
    let fresh = Dataset::generate_balanced(&gen, 3, 0xFACE);
    let mut correct = 0;
    for i in 0..fresh.len() {
        let truth = MaskClass::from_label(fresh.labels[i]);
        let predicted = predictor.classify(&fresh.image(i));
        if predicted == truth {
            correct += 1;
        }
        println!(
            "  sample {i:>2}: true {:<22} → predicted {}",
            truth.full_name(),
            predicted.full_name()
        );
    }
    println!(
        "\npipeline accuracy on fresh samples: {correct}/{} — gate power {:.2} W",
        fresh.len(),
        predictor.board_power_w(OperatingMode::SingleGate {
            subjects_per_s: 0.5
        })
    );
}
