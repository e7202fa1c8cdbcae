//! Temporal gate monitoring: classify a subject over an approach sequence.
//!
//! Single camera frames are noisy; the gate has several frames of each
//! subject as they approach. This example trains a reduced n-CNV, then
//! runs synthetic approach sequences (the subject's face grows and drifts
//! toward center over 6 frames) through the deployed pipeline with
//! majority voting — and compares per-frame vs voted accuracy.
//!
//! ```sh
//! cargo run --release --example video_gate
//! ```

use bcp_dataset::video::gate_sequence;
use bcp_dataset::{GeneratorConfig, MaskClass};
use binarycop::arch::ArchKind;
use binarycop::predictor::BinaryCoP;
use binarycop::recipe::{run, Recipe};

fn main() {
    let recipe = Recipe {
        train_per_class: 60,
        augment_copies: 1,
        test_per_class: 20,
        epochs: 6,
        ..Recipe::quick(ArchKind::NCnv)
    };
    println!("training n-CNV for the video gate …");
    let model = run(&recipe, None, |_| {});
    println!("test accuracy {:.1}%\n", model.test_accuracy * 100.0);
    let predictor = BinaryCoP::from_trained(&model.net, &model.arch);

    let gen = GeneratorConfig {
        img_size: 32,
        supersample: 3,
    };
    let subjects = 24usize;
    let frames_per_subject = 6usize;
    let mut frame_correct = 0usize;
    let mut frame_total = 0usize;
    let mut vote_correct = 0usize;
    for s in 0..subjects {
        let class = MaskClass::ALL[s % 4];
        let seq = gate_sequence(&gen, class, frames_per_subject, 0x71DE0 + s as u64);
        for f in &seq.frames {
            if predictor.classify(f) == class {
                frame_correct += 1;
            }
            frame_total += 1;
        }
        let voted = predictor.classify_sequence(&seq.frames);
        if voted == class {
            vote_correct += 1;
        }
        println!(
            "subject {s:>2}: true {:<22} voted {}",
            class.full_name(),
            voted.full_name()
        );
    }
    println!(
        "\nper-frame accuracy: {:.1}%   majority-vote accuracy: {:.1}%",
        100.0 * frame_correct as f64 / frame_total as f64,
        100.0 * vote_correct as f64 / subjects as f64,
    );
    let perf = predictor.perf();
    println!(
        "voting costs {} frames × {:.0} µs steady-state = {:.1} ms per subject — \
         invisible at gate walking speeds",
        frames_per_subject,
        1e6 * perf.initiation_interval as f64 / 100.0e6,
        frames_per_subject as f64 * perf.initiation_interval as f64 / 100.0e3,
    );
}
