//! The model family: verify (`check`), train, fold and deploy, classify,
//! and report (`info`, `demo`).

use crate::cli::{or_exit, usage_error, Args};
use bcp_dataset::ppm::{decode_ppm, resize_to};
use binarycop::arch::ArchKind;
use binarycop::model::{build_bnn, untrained_predictor};
use binarycop::predictor::{BinaryCoP, OperatingMode};
use binarycop::recipe::{run, Recipe};
use std::process::exit;

/// `bcp check`: the `bcp-check` static verifier over one or every
/// architecture; exits 1 when any report carries an error.
pub fn check(args: &Args) {
    use bcp_check::{check_arch, CheckConfig};
    let mut cfg = CheckConfig::default();
    if let Some(d) = args.get("device") {
        cfg.device = Some(match d.to_ascii_lowercase().as_str() {
            "z7020" | "xc7z020" => bcp_finn::device::Z7020,
            "z7010" | "xc7z010" => bcp_finn::device::Z7010,
            other => usage_error(format!("unknown device '{other}' (use z7020 | z7010)")),
        });
    }
    if let Some(fps) = args.parse_as("target-fps", "a number") {
        cfg.target_fps = fps;
    }
    if let Some(depth) = args.parse_as("fifo-depth", "an integer") {
        cfg.fifo_depth = depth;
    }
    let kinds: Vec<ArchKind> = if args.has("all-arches") {
        ArchKind::ALL.to_vec()
    } else {
        vec![args.arch_kind()]
    };
    let json = args.has("json");
    let mut reports = Vec::new();
    let mut failed = false;
    for kind in kinds {
        let report = check_arch(&kind.arch(), &cfg);
        failed |= !report.is_clean();
        if json {
            reports.push(report);
        } else {
            print!("{}", report.render_text());
        }
    }
    if json {
        println!(
            "{}",
            serde_json::to_string(&reports).expect("reports serialize")
        );
    }
    if failed {
        exit(1);
    }
}

pub fn train(args: &Args) {
    let kind = args.arch_kind();
    let out = args.required("out");
    let per_class = args.int("per-class", 100);
    let epochs = args.int("epochs", 8);
    let recipe = Recipe {
        train_per_class: per_class,
        test_per_class: per_class / 3 + 1,
        epochs,
        ..Recipe::quick(kind)
    };
    eprintln!(
        "training {} ({per_class}/class, {epochs} epochs)…",
        recipe.arch.name
    );
    let telemetry = args.telemetry();
    let mut model = run(&recipe, telemetry.registry(), |s| {
        eprintln!(
            "  epoch {:>3}: loss {:.4}, train acc {:.1}%",
            s.epoch,
            s.loss,
            s.train_accuracy * 100.0
        );
    });
    eprintln!("test accuracy: {:.2}%", model.test_accuracy * 100.0);
    or_exit(out, bcp_nn::serialize::save_json(&mut model.net, out));
    eprintln!("checkpoint written to {out}");
    telemetry.save();
}

pub fn deploy(args: &Args) {
    let arch = args.arch_kind().arch();
    // Full static verification before any pipeline stage is constructed.
    let report = bcp_check::check_arch(&arch, &bcp_check::CheckConfig::default());
    if !report.is_clean() {
        eprint!("{}", report.render_text());
        eprintln!("static checks failed; refusing to deploy");
        exit(1);
    }
    let model_path = args.required("model");
    let out = args.required("out");
    let mut net = build_bnn(&arch, 0);
    or_exit(
        model_path,
        bcp_nn::serialize::load_json(&mut net, model_path),
    );
    let predictor = BinaryCoP::from_trained(&net, &arch);
    or_exit(out, predictor.save_image(out));
    eprintln!("{}", predictor.pipeline().describe());
    eprintln!("accelerator image written to {out}");
}

/// `bcp classify`: binary PPM (P6) images of any size, box-resized to the
/// accelerator input as in the paper's preprocessing.
pub fn classify(args: &Args) {
    let telemetry = args.telemetry();
    let predictor = telemetry.attach(args.load_predictor());
    if args.positional.is_empty() {
        usage_error("no input images (pass one or more .ppm files)");
    }
    for path in &args.positional {
        let img = or_exit(path, decode_ppm(&or_exit(path, std::fs::read(path))));
        let sized = resize_to(&img, predictor.arch().input_size);
        let class = predictor.classify(&sized);
        println!("{path}: {}", class.full_name());
    }
    telemetry.save();
}

/// `bcp info`: the deployed models of a trained image, or of an untrained
/// (but deployable) network when no `--accel` is given.
pub fn info(args: &Args) {
    let predictor = if args.has("accel") {
        args.load_predictor()
    } else {
        untrained_predictor(&args.arch_kind().arch(), 0, 1)
    };
    print!("{}", predictor.pipeline().describe());
    println!("{}", predictor.summary());
    println!(
        "gate power @0.5 subjects/s: {:.3} W; crowd power: {:.2} W",
        predictor.board_power_w(OperatingMode::SingleGate {
            subjects_per_s: 0.5
        }),
        predictor.board_power_w(OperatingMode::CrowdStatistics),
    );
}

/// `bcp demo`: train tiny, deploy, classify generated faces; zero
/// configuration.
pub fn demo(args: &Args) {
    use bcp_dataset::{Dataset, GeneratorConfig, MaskClass};
    let recipe = Recipe {
        train_per_class: 60,
        test_per_class: 20,
        epochs: 8,
        ..Recipe::test_scale()
    };
    eprintln!("demo: training {} …", recipe.arch.name);
    let telemetry = args.telemetry();
    let model = run(&recipe, telemetry.registry(), |_| {});
    eprintln!("test accuracy: {:.1}%", model.test_accuracy * 100.0);
    let predictor = telemetry.attach(BinaryCoP::from_trained(&model.net, &model.arch));
    let gen = GeneratorConfig {
        img_size: model.arch.input_size,
        supersample: 3,
    };
    let ds = Dataset::generate_balanced(&gen, 2, 0xDE30);
    for i in 0..ds.len() {
        println!(
            "true {:<24} → predicted {}",
            MaskClass::from_label(ds.labels[i]).full_name(),
            predictor.classify(&ds.image(i)).full_name()
        );
    }
    println!("{}", predictor.summary());
    telemetry.save();
}
