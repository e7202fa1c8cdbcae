//! The user-facing BinaryCoP predictor.
//!
//! Wraps a deployed pipeline with the paper's two operating modes:
//!
//! - **Single gate** (Sec. IV-B): classification triggered per subject,
//!   board power ≈ the 1.6 W idle floor;
//! - **Crowd statistics**: the pipeline kept full for maximum throughput
//!   (~6400 fps on n-CNV), batching sub-images of a crowd scene.

use crate::arch::Arch;
use crate::deploy::deploy;
use bcp_dataset::MaskClass;
use bcp_finn::data::QuantMap;
use bcp_finn::device::ResourceUsage;
use bcp_finn::perf::{ClockModel, PerfReport, CLOCK_100MHZ};
use bcp_finn::pipeline::{argmax, Pipeline};
use bcp_finn::power::{PowerModel, DEFAULT_POWER};
use bcp_finn::resource::estimate;
use bcp_nn::Sequential;
use bcp_tensor::Tensor;
use bcp_trace::{Counter, Histogram, Registry};
use std::time::Instant;

/// Deployment operating mode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OperatingMode {
    /// Event-triggered classification at an entrance; `subjects_per_s`
    /// people pass the gate per second.
    SingleGate {
        /// Gate traffic.
        subjects_per_s: f64,
    },
    /// Free-running pipeline over crowd sub-images.
    CrowdStatistics,
}

/// A deployed BinaryCoP classifier.
///
/// Every predictor counts into a telemetry registry: its own from
/// construction, or a shared one from [`BinaryCoP::with_telemetry`].
/// Cloning deep-copies the pipeline (each clone owns independent weight
/// and threshold memory) but *shares* the registry, so replicas serving
/// concurrently aggregate into one set of metrics.
#[derive(Clone)]
pub struct BinaryCoP {
    arch: Arch,
    pipeline: Pipeline,
    clock: ClockModel,
    power: PowerModel,
    usage: ResourceUsage,
    telemetry: Registry,
    metrics: PredictMetrics,
}

/// Pre-resolved `predict.*` handles, so classifying looks up no name.
#[derive(Clone)]
struct PredictMetrics {
    frames: Counter,
    latency: Histogram,
    /// `predict.class.<slug>`, indexed by class label.
    classes: [Counter; 4],
}

impl PredictMetrics {
    fn new(r: &Registry) -> PredictMetrics {
        PredictMetrics {
            frames: r.counter("predict.frames"),
            latency: r.histogram("predict.latency_ns"),
            classes: MaskClass::ALL.map(|c| r.counter(&format!("predict.class.{}", class_slug(c)))),
        }
    }
}

/// Counter-name suffix for a predicted class (`predict.class.<slug>`).
fn class_slug(c: MaskClass) -> &'static str {
    match c {
        MaskClass::CorrectlyMasked => "correct",
        MaskClass::NoseExposed => "nose_exposed",
        MaskClass::NoseMouthExposed => "nose_mouth_exposed",
        MaskClass::ChinExposed => "chin_exposed",
    }
}

impl BinaryCoP {
    /// Deploy a trained BNN. The architecture's graph is shape-checked by
    /// [`deploy`]; use [`BinaryCoP::from_trained_checked`] to also gate on
    /// the full static analysis (folding, cycle budget, device fit).
    pub fn from_trained(net: &Sequential, arch: &Arch) -> Self {
        Self::from_pipeline(deploy(net, arch), arch)
    }

    /// A predictor over `pipeline`, counting into a registry of its own.
    fn from_pipeline(pipeline: Pipeline, arch: &Arch) -> Self {
        let usage = estimate(&pipeline, arch.dsp_offload);
        let telemetry = Registry::new();
        BinaryCoP {
            arch: arch.clone(),
            pipeline,
            clock: CLOCK_100MHZ,
            power: DEFAULT_POWER,
            usage,
            metrics: PredictMetrics::new(&telemetry),
            telemetry,
        }
    }

    /// Deploy with the complete `bcp-check` verdict as a gate: the static
    /// verifier runs on the architecture *before* any pipeline stage is
    /// constructed, and an error-carrying report refuses deployment.
    pub fn from_trained_checked(
        net: &Sequential,
        arch: &Arch,
        cfg: &bcp_check::CheckConfig,
    ) -> Result<Self, bcp_check::Report> {
        let report = bcp_check::check_arch(arch, cfg);
        if !report.is_clean() {
            return Err(report);
        }
        Ok(Self::from_trained(net, arch))
    }

    /// Run the full static analysis suite (folding legality, cycle budget,
    /// rate balance, resource fit, threshold soundness) over the deployed
    /// pipeline — the post-deployment twin of `bcp check`.
    pub fn check(&self, cfg: &bcp_check::CheckConfig) -> bcp_check::Report {
        bcp_check::check_pipeline(&self.pipeline, self.arch.dsp_offload, cfg)
    }

    /// Count into `registry` instead of the predictor's own. Every
    /// [`classify_block`](BinaryCoP::classify_block) records, per frame,
    /// the batch's wall time amortized over its frames into the
    /// `predict.latency_ns` histogram and bumps `predict.frames` plus a
    /// `predict.class.<slug>` counter; [`classify`](BinaryCoP::classify)
    /// is a block of one. The handles are resolved here, once.
    pub fn with_telemetry(mut self, registry: Registry) -> Self {
        self.metrics = PredictMetrics::new(&registry);
        self.telemetry = registry;
        self
    }

    /// The registry this predictor counts into; engines and scrubbers
    /// built from it count there too.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// The underlying pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Mutable access to the pipeline — the hook for fault injection
    /// (`bcp_finn::fault`) and other chaos experiments on a deployed
    /// predictor.
    pub fn pipeline_mut(&mut self) -> &mut Pipeline {
        &mut self.pipeline
    }

    /// `n` independent replicas of this predictor, one per serving worker.
    /// Each replica owns its weight/threshold memory (a fault injected
    /// into one cannot corrupt another); all share this predictor's
    /// telemetry registry.
    pub fn replicate(&self, n: usize) -> Vec<BinaryCoP> {
        (0..n).map(|_| self.clone()).collect()
    }

    /// The architecture deployed.
    pub fn arch(&self) -> &Arch {
        &self.arch
    }

    /// Convert a CHW float image on the 8-bit grid `[0, 1]` (the dataset /
    /// camera format) into the pipeline's quantized input.
    pub fn quantize(&self, image: &Tensor) -> QuantMap {
        assert_eq!(image.shape().rank(), 3, "expects a CHW image");
        let (c, h, w) = (
            image.shape().dim(0),
            image.shape().dim(1),
            image.shape().dim(2),
        );
        assert_eq!(
            (c, h, w),
            (3, self.arch.input_size, self.arch.input_size),
            "image must be 3×{0}×{0}",
            self.arch.input_size
        );
        QuantMap::from_unit_floats(c, h, w, image.as_slice())
    }

    /// Classify one frame (gate mode): a block of one through
    /// [`classify_block`](BinaryCoP::classify_block), which also records
    /// the telemetry.
    pub fn classify(&self, image: &Tensor) -> MaskClass {
        self.classify_block(std::slice::from_ref(image))[0]
    }

    /// Classify a batch (crowd mode) in the calling thread through the
    /// register-blocked multi-frame kernel ([`Pipeline::forward_batch`]):
    /// the dense layers stream each weight row once for the whole group.
    /// This is the serving engine's dispatch path; multi-core crowd
    /// traffic runs one such call per engine worker. Results are in input
    /// order.
    pub fn classify_block(&self, images: &[Tensor]) -> Vec<MaskClass> {
        let t0 = Instant::now();
        let frames: Vec<QuantMap> = images.iter().map(|i| self.quantize(i)).collect();
        let logits = self.pipeline.forward_batch(&frames);
        let classes: Vec<MaskClass> = logits
            .iter()
            .map(|l| MaskClass::from_label(argmax(l)))
            .collect();
        // Amortized per-frame latency: the frames share one pass over the
        // weight memory.
        let per_frame = t0
            .elapsed()
            .checked_div(classes.len().max(1) as u32)
            .unwrap_or_default();
        let m = &self.metrics;
        for &class in &classes {
            m.frames.inc();
            if let Some(c) = m.classes.get(class.label()) {
                c.inc();
            }
            m.latency.record_duration(per_frame);
        }
        classes
    }

    /// Timing report at the 100 MHz target clock.
    pub fn perf(&self) -> PerfReport {
        self.clock.analyze(&self.pipeline.plan())
    }

    /// Estimated resource usage (Table II's LUT/BRAM/DSP columns).
    pub fn resources(&self) -> ResourceUsage {
        self.usage
    }

    /// Modelled board power in watts for an operating mode.
    pub fn board_power_w(&self, mode: OperatingMode) -> f64 {
        match mode {
            OperatingMode::SingleGate { subjects_per_s } => {
                let latency_s = self.perf().latency_us * 1e-6;
                let duty = PowerModel::gate_duty(subjects_per_s, latency_s);
                self.power.board_w(&self.usage, duty)
            }
            OperatingMode::CrowdStatistics => self.power.board_w(&self.usage, 1.0),
        }
    }

    /// Classify an approach sequence (several frames of one subject) by
    /// majority vote over per-frame decisions — the gate-mode temporal
    /// smoothing that absorbs single-frame sensor noise. Ties break toward
    /// the class seen in the *later* frames (the subject is closest there).
    pub fn classify_sequence(&self, frames: &[Tensor]) -> MaskClass {
        assert!(!frames.is_empty(), "a sequence needs at least one frame");
        let mut votes = [0usize; 4];
        let mut last_of: [usize; 4] = [0; 4];
        for (t, frame) in frames.iter().enumerate() {
            let c = self.classify(frame).label();
            votes[c] += 1;
            last_of[c] = t;
        }
        let mut best = 0usize;
        for c in 1..4 {
            if votes[c] > votes[best] || (votes[c] == votes[best] && last_of[c] > last_of[best]) {
                best = c;
            }
        }
        MaskClass::from_label(best)
    }

    /// Persist the deployed accelerator (weights, thresholds, foldings) as
    /// a JSON pipeline image — the software analogue of the bitstream.
    pub fn save_image(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let img = bcp_finn::image::PipelineImage::capture(&self.pipeline);
        let json = serde_json::to_string(&img).expect("pipeline image serializes");
        std::fs::write(path, json)
    }

    /// Restore a predictor from a pipeline image saved by
    /// [`BinaryCoP::save_image`]. The architecture metadata is needed to
    /// re-derive the resource/power models.
    pub fn load_image(path: impl AsRef<std::path::Path>, arch: &Arch) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        let img: bcp_finn::image::PipelineImage = serde_json::from_str(&json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let pipeline = img
            .restore()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok(Self::from_pipeline(pipeline, arch))
    }

    /// One-paragraph deployment summary.
    pub fn summary(&self) -> String {
        let perf = self.perf();
        format!(
            "{}: {:.0} fps (II {} cycles), latency {:.1} µs, \
             {} LUTs / {} BRAM18 / {} DSPs, gate power {:.2} W, crowd power {:.2} W\n",
            self.arch.name,
            perf.throughput_fps,
            perf.initiation_interval,
            perf.latency_us,
            self.usage.luts,
            self.usage.bram18,
            self.usage.dsps,
            self.board_power_w(OperatingMode::SingleGate {
                subjects_per_s: 0.5
            }),
            self.board_power_w(OperatingMode::CrowdStatistics),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::untrained_bnn;
    use crate::recipe::tiny_arch;
    use crate::reference::IntegerReference;
    use bcp_dataset::{Dataset, GeneratorConfig};
    use bcp_tensor::Shape;

    fn predictor() -> BinaryCoP {
        predictor_and_reference().0
    }

    fn predictor_and_reference() -> (BinaryCoP, IntegerReference) {
        let arch = tiny_arch();
        let net = untrained_bnn(&arch, 5, 6);
        (
            BinaryCoP::from_trained(&net, &arch),
            IntegerReference::from_network(&net, &arch),
        )
    }

    fn images(n: usize) -> Vec<Tensor> {
        let gen = GeneratorConfig {
            img_size: 16,
            supersample: 2,
        };
        let ds = Dataset::generate_balanced(&gen, n.div_ceil(4), 9);
        (0..n).map(|i| ds.image(i)).collect()
    }

    #[test]
    fn checked_constructor_gates_on_the_static_verifier() {
        let arch = tiny_arch();
        let net = untrained_bnn(&arch, 5, 6);
        let cfg = bcp_check::CheckConfig::default();
        // The consistent tiny arch deploys...
        let p = BinaryCoP::from_trained_checked(&net, &arch, &cfg).unwrap();
        // ...and its built pipeline passes the post-deployment analyses.
        assert!(p.check(&cfg).is_clean(), "{}", p.check(&cfg).render_text());
        // A shape mutation is refused before any stage is constructed.
        let mut broken = arch.clone();
        broken.pe[1] = 3; // 3 does not divide conv2's 8 output channels
        let Err(report) = BinaryCoP::from_trained_checked(&net, &broken, &cfg) else {
            panic!("broken folding must be refused");
        };
        assert!(report.has_code(bcp_check::Code::PeNotDivisor));
    }

    #[test]
    fn classify_returns_a_mask_class() {
        let p = predictor();
        let img = &images(1)[0];
        let c = p.classify(img);
        assert!(MaskClass::ALL.contains(&c));
    }

    #[test]
    fn block_classify_matches_integer_reference() {
        // The in-thread blocked path (the serving engine's dispatch) must
        // agree with the dense-loop oracle, including at batch sizes off
        // the register-block grid and spanning several blocks.
        let (p, reference) = predictor_and_reference();
        for n in [0usize, 1, 5, 8, 11, 19] {
            let imgs = images(n.max(1))[..n].to_vec();
            let block = p.classify_block(&imgs);
            let want: Vec<MaskClass> = imgs
                .iter()
                .map(|i| MaskClass::from_label(reference.classify(&p.quantize(i))))
                .collect();
            assert_eq!(block, want, "n={n}");
        }
    }

    #[test]
    fn gate_power_is_near_idle_crowd_is_higher() {
        let p = predictor();
        let gate = p.board_power_w(OperatingMode::SingleGate {
            subjects_per_s: 0.5,
        });
        let crowd = p.board_power_w(OperatingMode::CrowdStatistics);
        assert!(
            (gate - 1.6).abs() < 0.05,
            "gate power {gate} should be ≈1.6 W"
        );
        assert!(crowd > gate, "crowd {crowd} must exceed gate {gate}");
    }

    #[test]
    fn perf_and_summary_are_consistent() {
        let p = predictor();
        let perf = p.perf();
        assert!(perf.throughput_fps > 0.0);
        assert!(perf.latency_cycles >= perf.initiation_interval);
        let s = p.summary();
        assert!(s.contains("tiny-CNV"));
        assert!(s.contains("fps"));
    }

    #[test]
    fn sequence_vote_matches_majority() {
        let p = predictor();
        let seq = bcp_dataset::video::gate_sequence(
            &GeneratorConfig {
                img_size: 16,
                supersample: 2,
            },
            MaskClass::NoseExposed,
            5,
            3,
        );
        let voted = p.classify_sequence(&seq.frames);
        // The vote must equal the plurality of per-frame decisions.
        let mut counts = [0usize; 4];
        for f in &seq.frames {
            counts[p.classify(f).label()] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert_eq!(counts[voted.label()], max);
    }

    #[test]
    fn sequence_vote_breaks_ties_toward_later_frames() {
        // Construct a synthetic 2-frame tie by feeding two frames the
        // (untrained) predictor classifies differently; the later frame's
        // class must win. Find such a pair among generated images.
        let p = predictor();
        let imgs = images(16);
        let mut pair = None;
        for i in 0..imgs.len() {
            for j in 0..imgs.len() {
                if p.classify(&imgs[i]) != p.classify(&imgs[j]) {
                    pair = Some((i, j));
                    break;
                }
            }
            if pair.is_some() {
                break;
            }
        }
        if let Some((i, j)) = pair {
            let voted = p.classify_sequence(&[imgs[i].clone(), imgs[j].clone()]);
            assert_eq!(voted, p.classify(&imgs[j]), "later frame must win ties");
        }
    }

    #[test]
    fn pipeline_image_roundtrip_classifies_identically() {
        let p = predictor();
        let dir = std::env::temp_dir().join("bcp_predictor_image_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.bcp.json");
        p.save_image(&path).unwrap();
        let restored = BinaryCoP::load_image(&path, p.arch()).unwrap();
        for img in images(6) {
            assert_eq!(p.classify(&img), restored.classify(&img));
        }
        assert_eq!(p.resources(), restored.resources());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "3×16×16")]
    fn wrong_image_size_rejected() {
        let p = predictor();
        p.classify(&Tensor::zeros(Shape::d3(3, 32, 32)));
    }

    #[test]
    fn telemetry_counts_every_prediction() {
        let registry = Registry::with_event_buffer();
        let p = predictor().with_telemetry(registry.clone());
        let imgs = images(12);
        let single: Vec<MaskClass> = imgs[..4].iter().map(|i| p.classify(i)).collect();
        let batch = p.classify_block(&imgs[4..]);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["predict.frames"], 12);
        let per_class: u64 = MaskClass::ALL
            .iter()
            .map(|c| {
                snap.counters
                    .get(&format!("predict.class.{}", class_slug(*c)))
                    .copied()
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(per_class, 12);
        // Per-class counts must match the actual decisions.
        for c in MaskClass::ALL {
            let expected = single
                .iter()
                .chain(batch.iter())
                .filter(|&&x| x == c)
                .count() as u64;
            let got = snap
                .counters
                .get(&format!("predict.class.{}", class_slug(c)))
                .copied()
                .unwrap_or(0);
            assert_eq!(got, expected, "count for {c:?}");
        }
        assert_eq!(snap.histograms["predict.latency_ns"].count, 12);
    }

    #[test]
    fn telemetry_artifacts_parse_with_latency_percentiles_and_class_counts() {
        // The ISSUE acceptance check: a telemetry run must leave valid
        // JSONL + a summary.json carrying p50/p95/p99 and per-class counts.
        use serde::Value;
        let registry = Registry::with_event_buffer();
        let p = predictor().with_telemetry(registry.clone());
        for img in images(8) {
            p.classify(&img);
        }
        registry.mark("run.done", serde::Map::new());
        let dir =
            std::env::temp_dir().join(format!("bcp-predictor-telemetry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let summary_path = registry.write_artifacts(&dir).unwrap();
        let summary: Value =
            serde_json::from_str(&std::fs::read_to_string(&summary_path).unwrap()).unwrap();
        let lat = &summary["histograms"]["predict.latency_ns"];
        assert_eq!(lat["count"].as_u64(), Some(8));
        for q in ["p50", "p95", "p99"] {
            assert!(lat[q].as_u64().unwrap_or(0) > 0, "{q} missing or zero");
        }
        let counters = summary["counters"].as_object().expect("counters object");
        let class_total: u64 = counters
            .iter()
            .filter(|(k, _)| k.starts_with("predict.class."))
            .map(|(_, v)| v.as_u64().unwrap())
            .sum();
        assert_eq!(class_total, 8);
        // Every event line is standalone JSON with the envelope fields.
        let events = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
        assert!(!events.is_empty());
        for line in events.lines() {
            let e: Value = serde_json::from_str(line).unwrap();
            assert!(!e["ts_us"].is_null() && !e["kind"].is_null() && !e["name"].is_null());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
