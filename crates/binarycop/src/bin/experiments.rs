//! Experiment runner: regenerate every table and figure of the paper, and
//! write the numbers down.
//!
//! ```text
//! experiments table1                  # Table I
//! experiments table2 [--quick|--full] [--json FILE]   # Table II (trains the 3 BNNs)
//! experiments fig1                    # pipeline schematic (Fig. 1)
//! experiments fig2 [--quick|--full] [--json FILE]     # confusion matrix (Fig. 2)
//! experiments gradcam [3..9|all] [--ppm DIR]   # Figs. 3–9
//! experiments perf                    # throughput/power claims
//! experiments dataset                 # Sec. IV-A dataset pipeline
//! experiments ablations               # DESIGN.md §9 design choices, paired loops
//! experiments all [--quick] [--json FILE]      # everything, each model trained once
//! ```
//!
//! `--quick` (default) trains small synthetic sets for minutes-scale runs;
//! `--full` approaches the paper's scale and can take hours. `--json`
//! writes the paper-side ledger (committed as `PAPER_<pr>.json`).

use bcp_nn::Sequential;
use binarycop::arch::ArchKind;
use binarycop::eval::{deployed_confusion_matrix, render_fig2, DeployedEval};
use binarycop::experiments::{
    ablations_report, arch_ledger, data_pipeline_ablation, dataset_report, design_ablations,
    fig1_report, gradcam_figure_ppms, gradcam_figure_report, perf_power_report, robustness_report,
    robustness_sweep, table1_report, table2_report, table2_rows, variant_ablation, AblationRow,
    ArchLedger, Ledger,
};
use binarycop::recipe::{run, Recipe, TrainedModel};
use std::path::PathBuf;
use std::time::Instant;

/// Rounds per paired loop of `experiments ablations`.
const ABLATION_ROUNDS: usize = 15;

struct Options {
    quick: bool,
    resources_only: bool,
    ppm_dir: Option<PathBuf>,
    json: Option<PathBuf>,
    figures: Vec<u8>,
}

/// Print `msg` and exit 2, the exit code of every bad command line.
fn usage_error(msg: String) -> ! {
    eprintln!("experiments: {msg}");
    std::process::exit(2);
}

fn parse(args: &[String]) -> (String, Options) {
    let command = args.first().cloned().unwrap_or_else(|| "all".into());
    let mut opts = Options {
        quick: true,
        resources_only: false,
        ppm_dir: None,
        json: None,
        figures: (3..=9).collect(),
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => opts.quick = true,
            "--full" => opts.quick = false,
            "--resources-only" => opts.resources_only = true,
            flag @ ("--ppm" | "--json") => {
                i += 1;
                let Some(value) = args.get(i).map(PathBuf::from) else {
                    usage_error(format!("{flag} needs a value"))
                };
                match flag {
                    "--ppm" => opts.ppm_dir = Some(value),
                    _ => opts.json = Some(value),
                }
            }
            "all" => opts.figures = (3..=9).collect(),
            f if f.bytes().all(|b| b.is_ascii_digit()) => match f.parse() {
                Ok(n @ 3..=9) => opts.figures = vec![n],
                _ => usage_error(format!("figures are numbered 3–9, got {f}")),
            },
            other => usage_error(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    (command, opts)
}

fn recipe_for(kind: ArchKind, quick: bool) -> Recipe {
    if quick {
        Recipe::quick(kind)
    } else {
        Recipe::paper_scale(kind)
    }
}

fn train_logged(recipe: &Recipe, label: &str) -> TrainedModel {
    eprintln!(
        "[train] {label}: {}/class train (+{} aug), {} epochs",
        recipe.train_per_class, recipe.augment_copies, recipe.epochs
    );
    let model = run(recipe, None, |s| {
        eprintln!(
            "[train] {label} epoch {:>3}: loss {:.4}, train acc {:.1}%",
            s.epoch,
            s.loss,
            s.train_accuracy * 100.0
        );
    });
    eprintln!(
        "[train] {label} done: test accuracy {:.2}%",
        model.test_accuracy * 100.0
    );
    model
}

/// One prototype trained once: the float model, what the deployed integer
/// pipeline answers on the same test set, and the ledger entry of both.
struct Trained {
    model: TrainedModel,
    deployed: DeployedEval,
    ledger: ArchLedger,
}

fn train_bnn(kind: ArchKind, quick: bool) -> Trained {
    let recipe = recipe_for(kind, quick);
    let mut model = train_logged(&recipe, &recipe.arch.name);
    let t0 = Instant::now();
    let deployed = deployed_confusion_matrix(
        &mut model.net,
        &model.arch,
        &model.test_set,
        recipe.batch_size,
    );
    let ledger = arch_ledger(&recipe, &model, &deployed, t0.elapsed().as_secs_f64());
    Trained {
        model,
        deployed,
        ledger,
    }
}

/// `float 85.00 %, deployed 85.00 %, same class on 200 of 200 test frames`.
fn accuracy_line(l: &ArchLedger) -> String {
    format!(
        "float {:.2} %, deployed {:.2} %, same class on {} of {} test frames",
        l.float_accuracy * 100.0,
        l.deployed_accuracy * 100.0,
        l.agree_frames,
        l.test_frames
    )
}

/// Table II with the accelerator's (deployed) accuracies, as the paper's are.
fn print_table2(trained: &[Trained; 3]) {
    let accs = trained
        .each_ref()
        .map(|t| Some(t.ledger.deployed_accuracy as f32));
    println!("{}", table2_report(&table2_rows(&accs)));
    for t in trained {
        println!("{:<10} {}", t.ledger.name, accuracy_line(&t.ledger));
    }
    println!();
}

fn print_fig2(cnv: &Trained) {
    println!("Fig. 2: confusion matrix of Binary-CoP-CNV (deployed pipeline) on the test set");
    println!("overall accuracy: {}\n", accuracy_line(&cnv.ledger));
    println!("{}", render_fig2(&cnv.deployed.confusion));
}

/// Figs. 3–9 over the three Grad-CAM columns: CNV, n-CNV, FP32-CNV.
fn print_gradcam(opts: &Options, nets: [&mut Sequential; 3]) {
    // conv4 is conv2_2 in the paper's naming (the Grad-CAM target).
    let mut models: Vec<(&str, &mut Sequential, &str)> = ["BCoP-CNV", "BCoP-n-CNV", "FP32"]
        .into_iter()
        .zip(nets)
        .map(|(name, net)| (name, net, "conv4"))
        .collect();
    for &fig in &opts.figures {
        println!(
            "{}",
            gradcam_figure_report(fig, 32, 1000 + fig as u64, &mut models)
        );
        if let Some(dir) = &opts.ppm_dir {
            let files = gradcam_figure_ppms(fig, 32, 1000 + fig as u64, &mut models, dir)
                .expect("writing PPM artifacts");
            eprintln!(
                "[gradcam] wrote {} PPM files under {}",
                files.len(),
                dir.display()
            );
        }
    }
}

fn write_ledger(opts: &Options, trained: Vec<Trained>, ablations: Vec<AblationRow>, t0: Instant) {
    let Some(path) = &opts.json else { return };
    let ledger = Ledger {
        scale: if opts.quick { "quick" } else { "full" }.into(),
        architectures: trained.into_iter().map(|t| t.ledger).collect(),
        ablations,
        wall_seconds: t0.elapsed().as_secs_f64(),
    };
    let json = serde_json::to_string_pretty(&ledger).expect("the ledger serializes");
    std::fs::write(path, json + "\n").expect("writing the ledger");
    eprintln!("[ledger] wrote {}", path.display());
}

fn main() {
    let t0 = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, opts) = parse(&args);
    match command.as_str() {
        "table1" => println!("{}", table1_report()),
        "table2" if opts.resources_only => {
            println!("{}", table2_report(&table2_rows(&[None, None, None])))
        }
        "table2" => {
            let trained = ArchKind::ALL.map(|kind| train_bnn(kind, opts.quick));
            print_table2(&trained);
            write_ledger(&opts, trained.into(), Vec::new(), t0);
        }
        "fig1" => {
            for kind in ArchKind::ALL {
                println!("{}", fig1_report(kind));
            }
        }
        "fig2" => {
            let cnv = train_bnn(ArchKind::Cnv, opts.quick);
            print_fig2(&cnv);
            write_ledger(&opts, vec![cnv], Vec::new(), t0);
        }
        "gradcam" => {
            let mut columns = [
                ("CNV", recipe_for(ArchKind::Cnv, opts.quick)),
                ("n-CNV", recipe_for(ArchKind::NCnv, opts.quick)),
                ("FP32", recipe_for(ArchKind::Cnv, opts.quick).as_fp32()),
            ]
            .map(|(label, recipe)| train_logged(&recipe, label).net);
            print_gradcam(&opts, columns.each_mut());
        }
        "ablations" => {
            println!("{}", ablations_report(&design_ablations(ABLATION_ROUNDS)));
            println!("{}", data_pipeline_ablation());
        }
        "perf" | "power" => println!("{}", perf_power_report()),
        "robustness" => {
            // Train n-CNV at a modest scale, then sweep weight-bit faults.
            let model = train_logged(
                &Recipe {
                    train_per_class: if opts.quick { 80 } else { 1000 },
                    epochs: if opts.quick { 8 } else { 60 },
                    ..Recipe::quick(ArchKind::NCnv)
                },
                "n-CNV",
            );
            let total = model.arch.weight_bits() as usize;
            let counts: Vec<usize> = vec![0, total / 1000, total / 200, total / 50, total / 10];
            let points = robustness_sweep(&model.net, &model.arch, &counts, 40, 11);
            println!("{}", robustness_report(&model.arch.name, &points));
        }
        "focus" => {
            let model = train_logged(
                &Recipe {
                    train_per_class: if opts.quick { 80 } else { 1000 },
                    epochs: if opts.quick { 8 } else { 60 },
                    ..Recipe::quick(ArchKind::NCnv)
                },
                "n-CNV",
            );
            let mut net = model.net;
            println!(
                "{}",
                binarycop::experiments::attention_focus_report(&mut net, &model.test_set, "conv4")
            );
        }
        "variants" => {
            let arch = ArchKind::NCnv.arch();
            let (t, e) = if opts.quick { (60, 8) } else { (500, 40) };
            println!("{}", variant_ablation(&arch, t, 25, e, 42));
        }
        "dataset" => println!(
            "{}",
            dataset_report(if opts.quick { 2_000 } else { 133_783 }, 7)
        ),
        "all" => {
            println!("{}", table1_report());
            println!("{}", fig1_report(ArchKind::NCnv));
            println!("{}", perf_power_report());
            println!("{}", dataset_report(2_000, 7));
            // Each model is trained once and shared by Fig. 2, Table II
            // and the Grad-CAM figures.
            let mut trained = ArchKind::ALL.map(|kind| train_bnn(kind, opts.quick));
            print_fig2(&trained[0]);
            print_table2(&trained);
            let mut fp32 = train_logged(&recipe_for(ArchKind::Cnv, opts.quick).as_fp32(), "FP32");
            let [cnv, ncnv, _] = &mut trained;
            print_gradcam(
                &opts,
                [&mut cnv.model.net, &mut ncnv.model.net, &mut fp32.net],
            );
            let ablations = design_ablations(ABLATION_ROUNDS);
            println!("{}", ablations_report(&ablations));
            println!("{}", data_pipeline_ablation());
            write_ledger(&opts, trained.into(), ablations, t0);
        }
        other => {
            eprintln!(
                "unknown command '{other}'. Commands: table1 table2 fig1 fig2 gradcam perf robustness focus variants dataset ablations all"
            );
            std::process::exit(2);
        }
    }
}
