//! Crowd-statistics deployment scenario (Sec. IV-B, high-performance mode).
//!
//! "This high-performance can be used to split large crowd images and
//! classify them at a high-rate to detect uncovered faces in a scene."
//! This example builds a synthetic crowd scene as a grid of faces, splits
//! it into 32×32 tiles, and pushes all tiles through the blocked batch
//! executor in one call — each dense weight row is streamed once for the
//! whole scene. (Multi-core crowd traffic runs one such call per engine
//! worker: `binarycop::serve::engine(&p, n, cfg)`.)
//!
//! ```sh
//! cargo run --release --example crowd_statistics
//! ```

use bcp_dataset::scene::generate_crowd_scene;
use bcp_dataset::{GeneratorConfig, MaskClass};
use bcp_trace::Registry;
use binarycop::arch::ArchKind;
use binarycop::predictor::BinaryCoP;
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
    println!("training n-CNV for crowd statistics …");
    let model = run(&recipe, Some(&telemetry), |_| {});
    println!("test accuracy {:.1}%\n", model.test_accuracy * 100.0);
    let predictor =
        BinaryCoP::from_trained(&model.net, &model.arch).with_telemetry(telemetry.clone());

    // A real "crowd image": an 8×8 grid of faces composed into one 256×256
    // frame, then split back into the 32×32 tiles the accelerator consumes.
    let gen = GeneratorConfig {
        img_size: 32,
        supersample: 3,
    };
    let scene = generate_crowd_scene(&gen, 8, 0xC20D);
    let tiles = scene.tiles();
    let crowd_labels = scene.labels.clone();
    println!(
        "crowd scene: one {}×{} frame split into {} tiles of 32×32",
        scene.grid * scene.tile,
        scene.grid * scene.tile,
        tiles.len()
    );

    // Classify the whole scene in one blocked batch.
    let t0 = std::time::Instant::now();
    let decisions = predictor.classify_block(&tiles);
    let wall = t0.elapsed().as_secs_f64();

    let mut counts = [0usize; 4];
    for d in &decisions {
        counts[d.label()] += 1;
    }
    println!("\nscene statistics:");
    for class in MaskClass::ALL {
        println!("  {:<24} {:>3}", class.full_name(), counts[class.label()]);
    }
    let non_compliant: usize = counts[1] + counts[2] + counts[3];
    println!(
        "  → {non_compliant}/{} faces not correctly masked",
        tiles.len()
    );

    // Accuracy against the scene's ground truth.
    let correct = decisions
        .iter()
        .zip(&crowd_labels)
        .filter(|(d, &l)| d.label() == l)
        .count();
    println!("  tile accuracy vs ground truth: {correct}/{}", tiles.len());

    // Throughput: simulator wall-clock (software) vs the 100 MHz cycle
    // model (what the FPGA would do).
    let perf = predictor.perf();
    let modeled = perf.batch_seconds(tiles.len(), &bcp_finn::perf::CLOCK_100MHZ);
    println!(
        "\nthroughput: software simulation {:.1} tiles/s; modeled FPGA {:.0} fps \
         (scene in {:.2} ms, paper claims ~6400 fps on n-CNV)",
        tiles.len() as f64 / wall,
        perf.throughput_fps,
        modeled * 1e3
    );

    // Full meter dump: training dynamics and the per-tile prediction
    // counters, all from one registry.
    println!("{}", telemetry.render_text());
}
