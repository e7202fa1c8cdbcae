//! Regeneration entry points for every table and figure in the paper.
//!
//! Each function returns a report string (and, where useful, structured
//! rows) so the `experiments` binary, the examples and the criterion
//! benches all share one implementation. EXPERIMENTS.md records the
//! paper-vs-measured comparison produced by these.

use crate::arch::{Arch, ArchKind};
use crate::deploy::deploy;
use crate::model::build_bnn;
use bcp_dataset::canvas::Rgb;
use bcp_dataset::face::{AgeGroup, FaceParams, Headgear, MASK_BLUE};
use bcp_dataset::generator::{render_sample, GeneratorConfig, SampleSpec};
use bcp_dataset::mask::{place_mask, MaskParams};
use bcp_dataset::{Dataset, MaskClass};
use bcp_finn::device::{ResourceUsage, Z7010, Z7020};
use bcp_finn::perf::CLOCK_100MHZ;
use bcp_finn::power::{PowerModel, DEFAULT_POWER};
use bcp_finn::resource::estimate_plan;
use bcp_gradcam::{gradcam, heat_centroid};
use bcp_nn::{Mode, Sequential};
use bcp_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// Render Table I: the three architectures with their PE/SIMD dimensioning
/// plus derived facts (weight bits, layer geometry).
pub fn table1_report() -> String {
    let mut s = String::from("TABLE I: Network architectures and hardware dimensioning\n\n");
    for kind in ArchKind::ALL {
        let arch = kind.arch();
        s.push_str(&table1_column(&arch));
        s.push_str(&format!(
            "  weight memory: {} bits ({:.1} KiB binary vs {:.1} KiB float32 — ×32)\n\n",
            arch.weight_bits(),
            arch.weight_bits() as f64 / 8.0 / 1024.0,
            arch.weight_bits() as f64 * 4.0 / 1024.0,
        ));
    }
    s
}

/// Render one column of Table I.
fn table1_column(arch: &Arch) -> String {
    let mut s = format!("{}\n", arch.name);
    for (i, c) in arch.convs.iter().enumerate() {
        let group = i / 2 + 1;
        let idx = i % 2 + 1;
        s.push_str(&format!("  Conv.{group}.{idx} [{}, {}]\n", c.c_in, c.c_out));
    }
    for (i, f) in arch.fcs.iter().enumerate() {
        s.push_str(&format!("  FC.{} [{}]\n", i + 1, f.f_out));
    }
    let pe: Vec<String> = arch.pe.iter().map(|p| p.to_string()).collect();
    let simd: Vec<String> = arch.simd.iter().map(|p| p.to_string()).collect();
    s.push_str(&format!(
        "  PE:   {}\n  SIMD: {}\n",
        pe.join(", "),
        simd.join(", ")
    ));
    s
}

// ---------------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------------

/// One row of Table II.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table2Row {
    /// Configuration name.
    pub name: String,
    /// Estimated resources.
    pub usage: ResourceUsage,
    /// Test accuracy (None when the caller skipped training).
    pub accuracy: Option<f32>,
    /// Fits the Z7020.
    pub fits_z7020: bool,
    /// Fits the Z7010.
    pub fits_z7010: bool,
}

/// Compute Table II resource rows. Accuracy slots are filled by the caller
/// (training scale is a runtime decision); resource estimates only need the
/// architecture's stage plan, so nothing is trained or deployed.
pub fn table2_rows(accuracies: &[Option<f32>; 3]) -> Vec<Table2Row> {
    ArchKind::ALL
        .iter()
        .zip(accuracies)
        .map(|(&kind, &accuracy)| {
            let arch = kind.arch();
            let usage = estimate_plan(&arch.plan(), arch.dsp_offload);
            Table2Row {
                name: arch.name.clone(),
                fits_z7020: Z7020.fits(&usage),
                fits_z7010: Z7010.fits(&usage),
                usage,
                accuracy,
            }
        })
        .collect()
}

/// Paper's Table II values, for side-by-side reporting.
pub const PAPER_TABLE2: [(&str, u64, f64, u64, f64); 3] = [
    ("CNV", 26_060, 124.0, 24, 98.10),
    ("n-CNV", 20_425, 10.5, 14, 93.94),
    ("μ-CNV", 11_738, 14.0, 27, 93.78),
];

/// Render Table II with the paper's numbers alongside the model's.
pub fn table2_report(rows: &[Table2Row]) -> String {
    let mut s = String::from(
        "TABLE II: Hardware results (model vs paper)\n\
         config     LUT(model) LUT(paper)  BRAM(m) BRAM(p)  DSP(m) DSP(p)  Acc(m)   Acc(p)\n",
    );
    for (row, paper) in rows.iter().zip(PAPER_TABLE2) {
        s.push_str(&format!(
            "{:<10} {:>10} {:>10} {:>8} {:>7} {:>7} {:>6} {:>7} {:>8}\n",
            row.name,
            row.usage.luts,
            paper.1,
            row.usage.bram18,
            paper.2,
            row.usage.dsps,
            paper.3,
            row.accuracy
                .map(|a| format!("{:.2}", a * 100.0))
                .unwrap_or_else(|| "-".into()),
            paper.4,
        ));
    }
    s.push_str("fits: ");
    for row in rows {
        s.push_str(&format!(
            "{} → Z7020:{} Z7010:{}  ",
            row.name,
            if row.fits_z7020 { "yes" } else { "NO" },
            if row.fits_z7010 { "yes" } else { "no" }
        ));
    }
    s.push('\n');
    s
}

// ---------------------------------------------------------------------------
// Throughput / power claims (Sec. IV-B)
// ---------------------------------------------------------------------------

/// Performance + power report for all three prototypes: the ~6400 fps
/// n-CNV claim and the ~1.6 W idle claim.
pub fn perf_power_report() -> String {
    let mut s = String::from(
        "Design-space exploration: timing & power (100 MHz target clock)\n\
         config     fps(full)   II(cycles)  latency(µs)  idle(W)  gate(W)  crowd(W)\n",
    );
    for kind in ArchKind::ALL {
        let arch = kind.arch();
        let plan = arch.plan();
        let perf = CLOCK_100MHZ.analyze(&plan);
        let usage = estimate_plan(&plan, arch.dsp_offload);
        let gate_duty = PowerModel::gate_duty(0.5, perf.latency_us * 1e-6);
        s.push_str(&format!(
            "{:<10} {:>9.0} {:>12} {:>12.1} {:>8.2} {:>8.3} {:>9.2}\n",
            arch.name,
            perf.throughput_fps,
            perf.initiation_interval,
            perf.latency_us,
            DEFAULT_POWER.idle_w,
            DEFAULT_POWER.board_w(&usage, gate_duty),
            DEFAULT_POWER.board_w(&usage, 1.0),
        ));
    }
    s.push_str("paper claims: n-CNV ≈ 6400 fps at full pipeline; ~1.6 W idle on all prototypes\n");
    s
}

// ---------------------------------------------------------------------------
// Sec. IV-A dataset pipeline
// ---------------------------------------------------------------------------

/// Reproduce the dataset-preparation narrative: raw 51/39/5/5 imbalance →
/// balancing by subsampling → augmentation.
pub fn dataset_report(raw_n: usize, seed: u64) -> String {
    let gen = GeneratorConfig::default();
    let raw = Dataset::generate_raw(&gen, raw_n, seed);
    let balanced = raw.balance_by_subsampling(seed + 1);
    let augmented = balanced.augmented(1, seed + 2);
    format!(
        "Dataset pipeline (Sec. IV-A), {raw_n} raw samples @32×32\n\n\
         RAW (MaskedFace-Net distribution):\n{}\n\
         BALANCED (subsample large classes):\n{}\n\
         AUGMENTED (+1 copy: contrast/brightness/noise/flip/rotate):\n{}",
        raw.distribution_table(),
        balanced.distribution_table(),
        augmented.distribution_table(),
    )
}

// ---------------------------------------------------------------------------
// Grad-CAM figures 3–9
// ---------------------------------------------------------------------------

/// One row of a Grad-CAM figure: a pinned subject + class.
pub struct FigureRow {
    /// Row label (left column of the paper's figures).
    pub label: String,
    /// Ground-truth class.
    pub class: MaskClass,
    /// The rendered input.
    pub image: Tensor,
}

fn base_face(rng: &mut StdRng) -> FaceParams {
    let mut f = FaceParams::sample(rng);
    // Neutral defaults; figures override what they probe.
    f.sunglasses = false;
    f.face_paint = None;
    f.headgear = Headgear::None;
    f
}

fn render_row(
    label: &str,
    class: MaskClass,
    face: FaceParams,
    mask: MaskParams,
    size: usize,
    rng: &mut StdRng,
) -> FigureRow {
    let cfg = GeneratorConfig {
        img_size: size,
        supersample: 3,
    };
    let lm = face.landmarks();
    let placed = place_mask(class, &lm, &mask, rng);
    assert_eq!(placed.landmark_coverage(&lm), class.coverage());
    let spec = SampleSpec {
        face,
        mask,
        placed,
        class,
    };
    FigureRow {
        label: label.into(),
        class,
        image: render_sample(&cfg, &spec),
    }
}

/// Build the subjects of Grad-CAM figure `fig` (3–9) at `size`×`size`.
pub fn figure_rows(fig: u8, size: usize, seed: u64) -> (String, Vec<FigureRow>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let std_mask = |rng: &mut StdRng| MaskParams::sample(rng);
    match fig {
        3..=6 => {
            let (class, title) = match fig {
                3 => (MaskClass::CorrectlyMasked, "Fig. 3: correctly-masked class"),
                4 => (MaskClass::NoseExposed, "Fig. 4: nose-exposed class"),
                5 => (
                    MaskClass::NoseMouthExposed,
                    "Fig. 5: nose+mouth-exposed class",
                ),
                _ => (MaskClass::ChinExposed, "Fig. 6: chin-exposed class"),
            };
            let mut rows = Vec::new();
            for (i, age) in [AgeGroup::Infant, AgeGroup::Adult, AgeGroup::Adult]
                .into_iter()
                .enumerate()
            {
                let mut face = base_face(&mut rng);
                face.age = age;
                let m = std_mask(&mut rng);
                rows.push(render_row(
                    &format!("{} #{}", class.short_name(), i + 1),
                    class,
                    face,
                    m,
                    size,
                    &mut rng,
                ));
            }
            (title.into(), rows)
        }
        7 => {
            let mut rows = Vec::new();
            for (label, age) in [
                ("infant", AgeGroup::Infant),
                ("adult", AgeGroup::Adult),
                ("elderly", AgeGroup::Elderly),
            ] {
                let mut face = base_face(&mut rng);
                face.age = age;
                let m = std_mask(&mut rng);
                rows.push(render_row(
                    label,
                    MaskClass::CorrectlyMasked,
                    face,
                    m,
                    size,
                    &mut rng,
                ));
            }
            ("Fig. 7: age generalization (correctly masked)".into(), rows)
        }
        8 => {
            let mut rows = Vec::new();
            // Mask-colored hair and headgear — the Fig. 8 confusers.
            let mut f1 = base_face(&mut rng);
            f1.hair_color = MASK_BLUE;
            let mut f2 = base_face(&mut rng);
            f2.headgear = Headgear::Headscarf;
            f2.headgear_color = MASK_BLUE;
            let mut f3 = base_face(&mut rng);
            f3.headgear = Headgear::Cap;
            f3.headgear_color = Rgb(0.9, 0.2, 0.2);
            let blue_mask = MaskParams {
                color: MASK_BLUE,
                double_mask: None,
                jitter: 0.01,
            };
            for (label, face) in [("blue hair", f1), ("blue scarf", f2), ("red cap", f3)] {
                rows.push(render_row(
                    label,
                    MaskClass::CorrectlyMasked,
                    face,
                    blue_mask.clone(),
                    size,
                    &mut rng,
                ));
            }
            (
                "Fig. 8: hair/headgear generalization (correctly masked)".into(),
                rows,
            )
        }
        9 => {
            let mut rows = Vec::new();
            let mut f1 = base_face(&mut rng);
            let double = MaskParams {
                color: MASK_BLUE,
                double_mask: Some(Rgb(0.2, 0.2, 0.25)),
                jitter: 0.01,
            };
            let mut f2 = base_face(&mut rng);
            f2.face_paint = Some(Rgb(0.9, 0.1, 0.6));
            let mut f3 = base_face(&mut rng);
            f3.sunglasses = true;
            f1.age = AgeGroup::Adult;
            rows.push(render_row(
                "double mask",
                MaskClass::CorrectlyMasked,
                f1,
                double,
                size,
                &mut rng,
            ));
            rows.push(render_row(
                "face paint",
                MaskClass::NoseExposed,
                f2,
                std_mask(&mut rng),
                size,
                &mut rng,
            ));
            rows.push(render_row(
                "sunglasses",
                MaskClass::ChinExposed,
                f3,
                std_mask(&mut rng),
                size,
                &mut rng,
            ));
            (
                "Fig. 9: face manipulation (double mask / paint / sunglasses)".into(),
                rows,
            )
        }
        _ => panic!("Grad-CAM figures are numbered 3–9, got {fig}"),
    }
}

/// Luminance map of a CHW RGB image (for ASCII rendering of the raw input).
pub fn luminance(image: &Tensor) -> Tensor {
    assert_eq!(image.shape().rank(), 3);
    let (h, w) = (image.shape().dim(1), image.shape().dim(2));
    let plane = h * w;
    let px = image.as_slice();
    let data: Vec<f32> = (0..plane)
        .map(|i| 0.299 * px[i] + 0.587 * px[plane + i] + 0.114 * px[2 * plane + i])
        .collect();
    Tensor::from_vec(Shape::d2(h, w), data)
}

/// Run Grad-CAM for one figure across a set of models and render the
/// paper's row layout (label | raw | one heat map per model) as ASCII.
/// `models` supplies `(column title, network, target layer)`.
pub fn gradcam_figure_report(
    fig: u8,
    size: usize,
    seed: u64,
    models: &mut [(&str, &mut Sequential, &str)],
) -> String {
    let (title, rows) = figure_rows(fig, size, seed);
    let mut s = format!("{title}\n");
    for row in &rows {
        s.push_str(&format!(
            "\n[{}] true class: {}\n",
            row.label,
            row.class.full_name()
        ));
        let batch = Tensor::stack(std::slice::from_ref(&row.image));
        let norm = batch.map(|v| 2.0 * v - 1.0);
        let mut blocks: Vec<(String, Vec<String>)> = Vec::new();
        blocks.push((
            "raw".into(),
            bcp_gradcam::render::ascii(&luminance(&row.image))
                .lines()
                .map(String::from)
                .collect(),
        ));
        for (name, net, layer) in models.iter_mut() {
            let maps = gradcam(net, &norm, &[row.class.label()], layer, size);
            let (cy, cx) = heat_centroid(&maps[0].heat);
            blocks.push((
                format!("{name} (centroid {cy:.0},{cx:.0})"),
                bcp_gradcam::render::ascii(&maps[0].heat)
                    .lines()
                    .map(String::from)
                    .collect(),
            ));
        }
        // Print the blocks side by side.
        let header: Vec<String> = blocks
            .iter()
            .map(|(t, _)| format!("{:<width$}", t, width = size + 2))
            .collect();
        s.push_str(&header.join(""));
        s.push('\n');
        for line in 0..size {
            for (_, lines) in &blocks {
                s.push_str(&format!("{:<width$}", lines[line], width = size + 2));
            }
            s.push('\n');
        }
    }
    s
}

/// Write the PPM artifacts for one figure (raw + per-model overlays) into
/// `dir`; returns the file list.
pub fn gradcam_figure_ppms(
    fig: u8,
    size: usize,
    seed: u64,
    models: &mut [(&str, &mut Sequential, &str)],
    dir: &std::path::Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let (_, rows) = figure_rows(fig, size, seed);
    let mut written = Vec::new();
    for (r, row) in rows.iter().enumerate() {
        let raw_path = dir.join(format!("fig{fig}_row{r}_raw.ppm"));
        std::fs::write(&raw_path, bcp_gradcam::render::image_ppm(&row.image))?;
        written.push(raw_path);
        let batch = Tensor::stack(std::slice::from_ref(&row.image));
        let norm = batch.map(|v| 2.0 * v - 1.0);
        for (name, net, layer) in models.iter_mut() {
            let maps = gradcam(net, &norm, &[row.class.label()], layer, size);
            let ppm = bcp_gradcam::render::overlay_ppm(&row.image, &maps[0].heat, 0.6);
            let path = dir.join(format!(
                "fig{fig}_row{r}_{}.ppm",
                name.replace(['/', ' '], "_")
            ));
            std::fs::write(&path, ppm)?;
            written.push(path);
        }
    }
    Ok(written)
}

// ---------------------------------------------------------------------------
// Robustness: weight-memory fault injection (extension experiment)
// ---------------------------------------------------------------------------

/// One point of the fault-injection sweep.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RobustnessPoint {
    /// Number of flipped weight bits.
    pub faults: usize,
    /// Fraction of the total weight bits flipped.
    pub fault_rate: f64,
    /// Fraction of probe frames whose predicted class changed vs the
    /// fault-free pipeline.
    pub class_change_rate: f64,
}

/// Sweep random weight-bit faults over a deployed network and measure how
/// often classifications change (relative to the clean pipeline, so no
/// training is needed). The BNN redundancy claim predicts a shallow curve
/// at low fault rates.
pub fn robustness_sweep(
    net: &Sequential,
    arch: &Arch,
    fault_counts: &[usize],
    probes: usize,
    seed: u64,
) -> Vec<RobustnessPoint> {
    let clean = deploy(net, arch);
    let total_bits = arch.weight_bits();
    // Probe with in-distribution face images: robustness on real inputs is
    // the quantity of interest (random-noise probes sit at logit ties and
    // overstate fragility).
    let gen = GeneratorConfig {
        img_size: arch.input_size,
        supersample: 2,
    };
    let probe_set = Dataset::generate_balanced(&gen, probes.div_ceil(4), seed ^ 0xFA17);
    let frames: Vec<bcp_finn::data::QuantMap> = (0..probes)
        .map(|i| {
            let img = probe_set.image(i);
            bcp_finn::data::QuantMap::from_unit_floats(
                3,
                arch.input_size,
                arch.input_size,
                img.as_slice(),
            )
        })
        .collect();
    let baseline: Vec<usize> = frames.iter().map(|f| clean.classify(f)).collect();
    fault_counts
        .iter()
        .map(|&faults| {
            let mut faulty = deploy(net, arch);
            bcp_finn::fault::inject_random_faults(&mut faulty, faults, seed + faults as u64);
            let changed = frames
                .iter()
                .zip(&baseline)
                .filter(|(f, &b)| faulty.classify(f) != b)
                .count();
            RobustnessPoint {
                faults,
                fault_rate: faults as f64 / total_bits as f64,
                class_change_rate: changed as f64 / probes as f64,
            }
        })
        .collect()
}

/// Render a robustness sweep as a table.
pub fn robustness_report(arch_name: &str, points: &[RobustnessPoint]) -> String {
    let mut s = format!(
        "Fault-injection robustness ({arch_name}): flipped weight bits vs \
         changed classifications\n{:>10} {:>12} {:>16}\n",
        "faults", "fault rate", "class changes"
    );
    for p in points {
        s.push_str(&format!(
            "{:>10} {:>11.3}% {:>15.1}%\n",
            p.faults,
            p.fault_rate * 100.0,
            p.class_change_rate * 100.0
        ));
    }
    s
}

// ---------------------------------------------------------------------------
// Quantitative attention focus (backing for the Figs. 3–9 narrative)
// ---------------------------------------------------------------------------

/// Aggregate Grad-CAM statistics over a dataset: per-class mean attention
/// and the fraction of attention mass inside the mask-decisive band,
/// compared against the uniform-attention chance level.
pub fn attention_focus_report(net: &mut Sequential, test: &Dataset, target_layer: &str) -> String {
    use bcp_gradcam::stats::{
        mask_band, region_area_fraction, region_fraction, AttentionAccumulator,
    };
    let size = test.img_size();
    let mut accs: Vec<AttentionAccumulator> =
        (0..4).map(|_| AttentionAccumulator::new(size)).collect();
    // Batch per sample (Grad-CAM backward needs per-sample seeds anyway).
    for i in 0..test.len() {
        let image = Tensor::stack(&[test.image(i)]);
        let norm = image.map(|v| 2.0 * v - 1.0);
        let label = test.labels[i];
        let maps = gradcam(net, &norm, &[label], target_layer, size);
        accs[label].add(&maps[0]);
    }
    let band = mask_band(size);
    let chance = region_area_fraction(size, mask_band(size));
    let mut s = format!(
        "Attention focus over {} test images (Grad-CAM at {target_layer})\n\
         mask-band area (chance level): {:.1}%\n\
         {:<26}{:>8}{:>22}\n",
        test.len(),
        chance * 100.0,
        "true class",
        "samples",
        "attention in band"
    );
    for class in MaskClass::ALL {
        let acc = &accs[class.label()];
        let frac = region_fraction(&acc.mean(), &band);
        s.push_str(&format!(
            "{:<26}{:>8}{:>21.1}%\n",
            class.full_name(),
            acc.count(),
            frac * 100.0
        ));
    }
    s
}

// ---------------------------------------------------------------------------
// Weight/input-mode ablation (Sec. II-B design choices)
// ---------------------------------------------------------------------------

/// Train the three binarization variants at a given miniature scale and
/// report test accuracies: plain BNN (the paper's choice), XNOR-Net-style
/// scaled weights (the rejected alternative), and fully-binary input.
pub fn variant_ablation(
    arch: &Arch,
    train_per_class: usize,
    test_per_class: usize,
    epochs: usize,
    seed: u64,
) -> String {
    use crate::model::{build_bnn_with, InputMode, ModelOptions, WeightMode};
    use bcp_nn::optim::Adam;
    use bcp_nn::train::{evaluate, fit, LossKind, TrainConfig};

    let gen = GeneratorConfig {
        img_size: arch.input_size,
        supersample: 2,
    };
    let train = Dataset::generate_balanced(&gen, train_per_class, seed);
    let test = Dataset::generate_balanced(&gen, test_per_class, seed ^ 0x7E57);
    let train_images = train.normalized_images();
    let test_images = test.normalized_images();

    let variants: [(&str, ModelOptions); 3] = [
        (
            "plain BNN (paper)",
            ModelOptions {
                weights: WeightMode::Plain,
                input: InputMode::FixedPoint8,
            },
        ),
        (
            "XNOR-Net scaled α·sign(W)",
            ModelOptions {
                weights: WeightMode::Scaled,
                input: InputMode::FixedPoint8,
            },
        ),
        (
            "binary input sign(2x−1)",
            ModelOptions {
                weights: WeightMode::Plain,
                input: InputMode::Binary,
            },
        ),
    ];
    let mut s = format!(
        "Binarization-variant ablation ({}, {}·4 train / {}·4 test, {} epochs)\n\
         {:<28}{:>10}{:>16}\n",
        arch.name, train_per_class, test_per_class, epochs, "variant", "test acc", "deployable"
    );
    for (label, opts) in variants {
        let mut net = build_bnn_with(arch, seed, opts);
        let mut opt = Adam::new(0.01);
        let cfg = TrainConfig {
            epochs,
            batch_size: 32,
            shuffle_seed: seed,
            loss: LossKind::CrossEntropy,
            schedule: None,
        };
        fit(
            &mut net,
            &mut opt,
            &train_images,
            &train.labels,
            None,
            &cfg,
            |_| true,
        );
        let acc = evaluate(&mut net, &test_images, &test.labels, 32, None);
        let deployable = opts.weights == WeightMode::Plain && opts.input == InputMode::FixedPoint8;
        s.push_str(&format!(
            "{:<28}{:>9.1}%  {:>20}\n",
            label,
            acc * 100.0,
            if deployable {
                "XNOR pipeline"
            } else {
                "no (training only)"
            }
        ));
    }
    s.push_str(
        "(the paper picks plain BNN + 8-bit input: scaled weights add multipliers\n\
         the XNOR datapath cannot absorb; binary input discards most pixel information)\n",
    );
    s
}

// ---------------------------------------------------------------------------
// Fig. 1 (structural)
// ---------------------------------------------------------------------------

/// The accelerator schematic of Fig. 1 as a textual stage graph.
pub fn fig1_report(kind: ArchKind) -> String {
    let arch = kind.arch();
    let net = build_bnn(&arch, 0);
    deploy(&net, &arch).describe()
}

/// Helper shared by binaries/benches: a network with populated batch-norm
/// statistics (an untrained-but-deployable model).
pub fn untrained_with_stats(kind: ArchKind, seed: u64) -> (Sequential, Arch) {
    let arch = kind.arch();
    let mut net = build_bnn(&arch, seed);
    let x = bcp_tensor::init::uniform(
        Shape::nchw(2, 3, arch.input_size, arch.input_size),
        -1.0,
        1.0,
        seed + 1,
    );
    let _ = net.forward(&x, Mode::Train);
    (net, arch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_column_renders() {
        let s = table1_column(&ArchKind::NCnv.arch());
        assert!(s.contains("Conv.1.1 [3, 16]"));
        assert!(s.contains("FC.3 [4]"));
        assert!(s.contains("PE:   16, 16, 16, 16, 4, 1, 1, 1, 1"));
    }

    #[test]
    fn table1_mentions_all_architectures() {
        let s = table1_report();
        for name in ["CNV", "n-CNV", "μ-CNV"] {
            assert!(s.contains(name));
        }
        assert!(s.contains("×32"));
    }

    #[test]
    fn table2_rows_have_paper_shape() {
        let rows = table2_rows(&[None, None, None]);
        assert_eq!(rows.len(), 3);
        let (cnv, ncnv, ucnv) = (&rows[0], &rows[1], &rows[2]);
        // Ordering claims from Table II.
        assert!(cnv.usage.luts > ncnv.usage.luts, "{cnv:?} vs {ncnv:?}");
        assert!(ncnv.usage.luts > ucnv.usage.luts, "{ncnv:?} vs {ucnv:?}");
        assert!(cnv.usage.bram18 > ncnv.usage.bram18);
        // μ-CNV's DSP offload shows up as the highest DSP count.
        assert!(ucnv.usage.dsps > cnv.usage.dsps);
        // Fit claims: CNV needs the Z7020; μ-CNV fits the Z7010.
        assert!(cnv.fits_z7020 && !cnv.fits_z7010);
        assert!(ucnv.fits_z7010);
        let report = table2_report(&rows);
        assert!(report.contains("26060") || report.contains("26_060") || report.contains("LUT"));
    }

    #[test]
    fn perf_report_hits_throughput_band() {
        let s = perf_power_report();
        assert!(s.contains("n-CNV"));
        // The n-CNV full-pipeline throughput claim: ~6400 fps. Check the
        // actual computed value through the pipeline itself.
        let (net, arch) = untrained_with_stats(ArchKind::NCnv, 0);
        let perf = CLOCK_100MHZ.analyze(&deploy(&net, &arch).plan());
        assert!(
            (4000.0..16000.0).contains(&perf.throughput_fps),
            "n-CNV throughput {} fps outside the paper's order of magnitude",
            perf.throughput_fps
        );
    }

    #[test]
    fn dataset_report_shows_rebalancing() {
        let s = dataset_report(400, 3);
        assert!(s.contains("RAW"));
        assert!(s.contains("BALANCED"));
        assert!(s.contains("AUGMENTED"));
    }

    #[test]
    fn all_gradcam_figures_have_three_rows() {
        for fig in 3..=9u8 {
            let (title, rows) = figure_rows(fig, 32, 1);
            assert!(!title.is_empty());
            assert_eq!(rows.len(), 3, "figure {fig}");
            for row in &rows {
                assert_eq!(row.image.shape().dims(), &[3, 32, 32]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "numbered 3–9")]
    fn figure_bounds_checked() {
        figure_rows(2, 32, 0);
    }

    #[test]
    fn gradcam_report_renders_for_tiny_model() {
        let arch = crate::recipe::tiny_arch();
        let mut net = crate::model::build_bnn(&arch, 3);
        let x = bcp_tensor::init::uniform(Shape::nchw(2, 3, 16, 16), -1.0, 1.0, 4);
        let _ = net.forward(&x, Mode::Train);
        let mut models: Vec<(&str, &mut Sequential, &str)> = vec![("tiny", &mut net, "conv3")];
        let s = gradcam_figure_report(4, 16, 5, &mut models);
        assert!(s.contains("Fig. 4"));
        assert!(s.contains("tiny"));
        assert!(s.contains("true class: Nose Exposed"));
    }

    #[test]
    fn robustness_sweep_is_monotone_ish_and_bounded() {
        let arch = crate::recipe::tiny_arch();
        let mut net = crate::model::build_bnn(&arch, 5);
        let x = bcp_tensor::init::uniform(Shape::nchw(2, 3, 16, 16), -1.0, 1.0, 6);
        let _ = net.forward(&x, Mode::Train);
        let points = robustness_sweep(&net, &arch, &[0, 8, 256], 12, 3);
        assert_eq!(points.len(), 3);
        assert_eq!(
            points[0].class_change_rate, 0.0,
            "zero faults must change nothing"
        );
        assert!(points[2].fault_rate > points[1].fault_rate);
        for p in &points {
            assert!((0.0..=1.0).contains(&p.class_change_rate));
        }
        let report = robustness_report(&arch.name, &points);
        assert!(report.contains("fault rate"));
    }

    #[test]
    fn attention_focus_report_renders() {
        let arch = crate::recipe::tiny_arch();
        let mut net = crate::model::build_bnn(&arch, 3);
        let x = bcp_tensor::init::uniform(Shape::nchw(2, 3, 16, 16), -1.0, 1.0, 4);
        let _ = net.forward(&x, Mode::Train);
        let gen = bcp_dataset::GeneratorConfig {
            img_size: 16,
            supersample: 2,
        };
        let test = Dataset::generate_balanced(&gen, 2, 5);
        let s = attention_focus_report(&mut net, &test, "conv3");
        assert!(s.contains("mask-band area"));
        for class in MaskClass::ALL {
            assert!(s.contains(class.full_name()));
        }
    }

    #[test]
    fn variant_ablation_reports_all_three() {
        let s = variant_ablation(&crate::recipe::tiny_arch(), 10, 6, 2, 4);
        assert!(s.contains("plain BNN"));
        assert!(s.contains("XNOR-Net"));
        assert!(s.contains("binary input"));
        assert!(s.contains("XNOR pipeline"));
    }

    #[test]
    fn fig1_structure_matches_paper() {
        let s = fig1_report(ArchKind::NCnv);
        assert!(s.contains("SWU→MVTU"));
        assert!(s.contains("OR-pool"));
        assert!(s.contains("argmax"));
    }

    #[test]
    fn luminance_weights_sum_to_one() {
        let img = Tensor::ones(Shape::d3(3, 2, 2));
        let l = luminance(&img);
        for &v in l.as_slice() {
            assert!((v - 1.0).abs() < 1e-5);
        }
    }
}
