//! The traced run: per-layer numbers from timing calls into each layer's
//! public functions, bottom up — bcp-bitpack, bcp-finn, the predictor,
//! bcp-serve, bcp-gateway — all on the workload's network and with the
//! workload's load pattern. Nothing under `crates/` is instrumented for
//! this; the engine's own `ServeConfig::trace` is the one exception, and
//! it is public configuration.

use crate::load::{
    drive, engine_clients, wire_clients, Client, DirectClient, RouterClient, Slices, Summary,
};
use crate::setup::{Fixture, Workload, DEADLINE_MS, POOL};
use crate::spans::{intern, Recorder, Span};
use crate::stats::{median, percentile, Rng};
use bcp_bitpack::xnor::xnor_dot_words;
use bcp_bitpack::{
    xnor_gemm_block, xnor_gemm_block_thresholded, BitMatrix, BitPlaneBlock, BitVec64, ThresholdUnit,
};
use bcp_dataset::MaskClass;
use bcp_finn::data::{BinMap, QuantMap, StageData};
use bcp_finn::swu::{windows_binary, windows_quant};
use bcp_finn::Stage;
use bcp_gateway::protocol::{decode_message, encode_request};
use bcp_gateway::{RequestFrame, TenantPolicy, TenantTable};
use bcp_serve::{canary_frame, Replica};
use bcp_trace::{AttributionReport, Segment, TraceConfig, TraceRecord, TraceSet};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Passes of the kernel replay whose spans are kept; every pass is timed.
const REPLAY_PASSES_KEPT: usize = 32;

/// What the traced run hands back to `main`.
pub struct Layers {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Broken invariants: a replay that disagrees with the untraced
    /// answers, a simulated-time count that moved, a trace audit failure.
    pub problems: Vec<String>,
    pub report: String,
    pub spans: Vec<Span>,
    pub engine_records: Vec<TraceRecord>,
}

/// Throughput with and without tracing, and the latency tail, of the
/// layer a workload enters the system through.
struct TopLayer {
    untraced_fps: f64,
    traced_fps: f64,
    p95_ms: f64,
    p99_ms: f64,
    max_ms: f64,
}

struct Run<'a> {
    fx: &'a Fixture,
    seed: u64,
    rec: Recorder,
    out: Layers,
}

pub fn run(fx: &Fixture, seed: u64, seconds: f64) -> Layers {
    let mut run = Run {
        fx,
        seed,
        rec: Recorder::new(Instant::now(), 0),
        out: Layers {
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            report: String::new(),
            spans: Vec::new(),
            engine_records: Vec::new(),
        },
    };
    let share = |part: f64| Duration::from_secs_f64(seconds * part);
    let counts_before = simulated_counts(fx);
    run.host();
    run.kernels(share(0.15));
    let direct = run.direct(share(0.25));
    let serve = run.serve(share(0.30));
    let gateway = run.gateway(share(0.25));
    if simulated_counts(fx) != counts_before {
        run.out
            .problems
            .push("a simulated-time count moved during the run".into());
    }

    let top = match fx.workload {
        Workload::GateCnv | Workload::CrowdNcnv => direct,
        Workload::EngineTiny => serve,
        Workload::GatewayTiny => gateway,
    };
    run.set("tail.latency_p95_ms", top.p95_ms);
    run.set("tail.latency_p99_ms", top.p99_ms);
    run.set("tail.latency_max_ms", top.max_ms);
    run.set(
        "trace.overhead_pct",
        (top.untraced_fps / top.traced_fps.max(1e-9) - 1.0) * 100.0,
    );
    let _ = writeln!(
        run.out.report,
        "tracing overhead on {}: {:.1} frames/s untraced, {:.1} traced",
        fx.workload.name(),
        top.untraced_fps,
        top.traced_fps
    );
    run.out.spans.append(&mut run.rec.spans);
    run.out
}

/// Simulated-time and operation counts: functions of the architecture
/// alone, so they repeat exactly and no host-side change moves them.
fn simulated_counts(fx: &Fixture) -> (u64, u64, u64) {
    let perf = fx.predictor.perf();
    let (words, _) = kernel_counts(fx);
    (perf.latency_cycles, perf.initiation_interval, words)
}

/// Per frame, over the binary MVTU stages: weight words XNOR-popcounted
/// (an exact count), and weight bytes streamed — computed from the matrix
/// sizes and the number of passes the kernel makes over them, not
/// measured.
fn kernel_counts(fx: &Fixture) -> (u64, f64) {
    let (mut words, mut bytes) = (0u64, 0f64);
    for stage in fx.predictor.pipeline().stages() {
        let Some(w) = stage.weight_matrix() else {
            continue;
        };
        let matrix_words = (w.rows() * w.words_per_row()) as u64;
        let lanes = bcp_bitpack::BLOCK_LANES;
        match stage {
            Stage::ConvBinary { .. } => {
                let (_, h, wd) = stage.out_dims();
                words += matrix_words * (h * wd) as u64;
                bytes += (matrix_words * 8 * (h * wd).div_ceil(lanes) as u64) as f64;
            }
            Stage::DenseBinary { .. } | Stage::DenseLogits { .. } => {
                words += matrix_words;
                bytes += match fx.workload.block() {
                    None => (matrix_words * 8) as f64,
                    Some(b) => (matrix_words * 8 * b.div_ceil(lanes) as u64) as f64 / b as f64,
                };
            }
            // The first layer multiplies 8-bit pixels; it never reaches
            // the XNOR kernels.
            Stage::ConvFixed { .. } | Stage::PoolOr { .. } => {}
        }
    }
    (words, bytes)
}

fn argmax(logits: &[i64]) -> MaskClass {
    let mut best = 0;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    MaskClass::from_label(best)
}

/// One stage's kernel and SWU calls, replayed on the stage's own shapes
/// and on the tokens real frames produce at its input.
enum Replay<'a> {
    ConvFixed {
        maps: Vec<QuantMap>,
        k: usize,
    },
    ConvBinary {
        maps: Vec<BinMap>,
        k: usize,
        weights: &'a BitMatrix,
        thresholds: &'a ThresholdUnit,
    },
    Dense {
        maps: Vec<BinMap>,
        weights: &'a BitMatrix,
        thresholds: Option<&'a ThresholdUnit>,
    },
}

impl Run<'_> {
    fn set(&mut self, name: &'static str, value: f64) {
        self.out.metrics.insert(name, value);
    }

    fn count(&mut self, s: &Summary) {
        self.out.attempted += s.attempted;
        self.out.failed += s.failed;
    }

    /// `host.*`: what the numbers were taken on, and whether the harness
    /// measures work at all — twice the calls must take about twice as
    /// long.
    fn host(&mut self) {
        let fx = self.fx;
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.set("host.nproc", nproc as f64);
        let mut ticks: Vec<u64> = (0..10_001)
            .map(|_| {
                let t0 = Instant::now();
                black_box(t0).elapsed().as_nanos() as u64
            })
            .collect();
        self.set("host.timer_ns", median(&mut ticks));

        // The faster of three tries, so that a dip of the host during one
        // of them does not read as a broken harness.
        let calls = |n: usize| -> f64 {
            (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    for i in 0..n {
                        black_box(fx.predictor.classify(black_box(&fx.frames[i % POOL])));
                    }
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        // Enough calls that the shorter side runs for tens of ms.
        let n = ((0.03 / calls(1).max(1e-9)) as usize).clamp(4, 4096);
        let ratio = calls(2 * n) / calls(n).max(1e-9);
        self.set("host.doubling_ratio", ratio);
        if !(1.5..=2.7).contains(&ratio) {
            self.out.problems.push(format!(
                "doubling the calls changed elapsed time {ratio:.2}×, not about 2×"
            ));
        }
    }

    /// `bitpack.*` and `finn.swu_ns_per_frame`.
    fn kernels(&mut self, budget: Duration) {
        let fx = self.fx;
        let stages = fx.predictor.pipeline().stages();
        let frames = fx.workload.block().unwrap_or(1);

        // Each stage's input tokens, from real frames.
        let mut tokens: Vec<StageData> = fx.frames[..frames]
            .iter()
            .map(|f| StageData::Quant(fx.predictor.quantize(f)))
            .collect();
        let mut plan: Vec<(Replay, [&'static str; 3])> = Vec::new();
        for stage in stages {
            let names = ["finn.swu", "bitpack.pack", "bitpack.gemm"]
                .map(|n| intern(format!("{n}[{}]", stage.name())));
            let bits = |tokens: &[StageData]| -> Vec<BinMap> {
                tokens
                    .iter()
                    .map(|t| t.clone().expect_bits(stage.name()))
                    .collect()
            };
            match stage {
                Stage::ConvFixed { k, .. } => plan.push((
                    Replay::ConvFixed {
                        maps: tokens
                            .iter()
                            .map(|t| t.clone().expect_quant(stage.name()))
                            .collect(),
                        k: *k,
                    },
                    names,
                )),
                Stage::ConvBinary { k, .. } => plan.push((
                    Replay::ConvBinary {
                        maps: bits(&tokens),
                        k: *k,
                        weights: stage.weight_matrix().expect("conv weights"),
                        thresholds: stage.threshold_unit().expect("conv thresholds"),
                    },
                    names,
                )),
                Stage::DenseBinary { .. } | Stage::DenseLogits { .. } => plan.push((
                    Replay::Dense {
                        maps: bits(&tokens),
                        weights: stage.weight_matrix().expect("dense weights"),
                        thresholds: stage.threshold_unit(),
                    },
                    names,
                )),
                Stage::PoolOr { .. } => {}
            }
            tokens = tokens.into_iter().map(|t| stage.process(t)).collect();
        }

        let blocked = fx.workload.block().is_some();
        let (mut swu, mut pack, mut gemm) = (Vec::new(), Vec::new(), Vec::new());
        let t0 = Instant::now();
        while t0.elapsed() < budget || swu.len() < 3 {
            self.rec.keep_replays = swu.len() < REPLAY_PASSES_KEPT;
            let mut pass = [0u64; 3];
            for (replay, names) in &plan {
                let rec = &mut self.rec;
                match replay {
                    Replay::ConvFixed { maps, k } => {
                        for map in maps {
                            let (w, ns) =
                                rec.replay(names[0], || windows_quant(black_box(map), *k));
                            black_box(w);
                            pass[0] += ns;
                        }
                    }
                    Replay::ConvBinary {
                        maps,
                        k,
                        weights,
                        thresholds,
                    } => {
                        for map in maps {
                            let (windows, ns) =
                                rec.replay(names[0], || windows_binary(black_box(map), *k));
                            pass[0] += ns;
                            let refs: Vec<&BitVec64> = windows.iter().collect();
                            let (block, ns) =
                                rec.replay(names[1], || BitPlaneBlock::pack_refs(black_box(&refs)));
                            pass[1] += ns;
                            let (bits, ns) = rec.replay(names[2], || {
                                xnor_gemm_block_thresholded(weights, black_box(&block), thresholds)
                            });
                            black_box(bits);
                            pass[2] += ns;
                        }
                    }
                    Replay::Dense {
                        maps,
                        weights,
                        thresholds,
                    } if blocked => {
                        let refs: Vec<&BitVec64> = maps.iter().map(BinMap::as_bits).collect();
                        let (block, ns) =
                            rec.replay(names[1], || BitPlaneBlock::pack_refs(black_box(&refs)));
                        pass[1] += ns;
                        let ((), ns) = rec.replay(names[2], || match thresholds {
                            Some(t) => {
                                black_box(xnor_gemm_block_thresholded(weights, &block, t));
                            }
                            None => {
                                black_box(xnor_gemm_block(weights, &block));
                            }
                        });
                        pass[2] += ns;
                    }
                    // The single-frame path: one dot product per neuron.
                    Replay::Dense { maps, weights, .. } => {
                        for map in maps {
                            let input = black_box(map.as_bits());
                            let ((), ns) = rec.replay(names[2], || {
                                for r in 0..weights.rows() {
                                    black_box(xnor_dot_words(
                                        weights.row_words(r),
                                        input.words(),
                                        input.len(),
                                    ));
                                }
                            });
                            pass[2] += ns;
                        }
                    }
                }
            }
            swu.push(pass[0] / frames as u64);
            pack.push(pass[1] / frames as u64);
            gemm.push(pass[2] / frames as u64);
        }

        self.rec.keep_replays = true;
        let (words, bytes) = kernel_counts(fx);
        let gemm_ns = median(&mut gemm);
        self.set("finn.swu_ns_per_frame", median(&mut swu));
        self.set("bitpack.pack_ns_per_frame", median(&mut pack));
        self.set("bitpack.gemm_ns_per_frame", gemm_ns);
        self.set("bitpack.popcount_words_per_frame", words as f64);
        self.set("bitpack.weight_bytes_per_frame", bytes);
        self.set("bitpack.gemm_gwords_per_s", words as f64 / gemm_ns.max(1.0));
        let _ = writeln!(
            self.out.report,
            "bitpack.weight_bytes_per_frame is computed from the matrix sizes, not measured"
        );
    }

    /// `finn.*` and `predictor.*`. Each turn makes the workload's own
    /// untraced call, then the pipeline alone on the same frames quantized
    /// beforehand, then `classify` replayed step by step under spans — so
    /// the three see the same host conditions and their differences mean
    /// something.
    fn direct(&mut self, budget: Duration) -> TopLayer {
        let fx = self.fx;
        let pipeline = fx.predictor.pipeline();
        let stages = pipeline.stages();
        let block = fx.workload.block();
        let b = block.unwrap_or(1);
        let names: Vec<&'static str> = stages
            .iter()
            .map(|s| intern(format!("finn.stage.{}", s.name())))
            .collect();
        let quants: Vec<QuantMap> = fx.frames.iter().map(|f| fx.predictor.quantize(f)).collect();

        let mut rng = Rng::new(self.seed, 7);
        let mut stage_ns: Vec<Vec<u64>> = vec![Vec::new(); stages.len()];
        let (mut classify_ns, mut pipeline_ns) = (Vec::new(), Vec::new());
        let (mut quantize_ns, mut op_ns) = (Vec::new(), Vec::new());
        let (mut answers, mut wrong, mut disagreed) = (0u64, 0u64, 0u64);
        let t0 = Instant::now();
        while t0.elapsed() < budget || op_ns.len() < 3 {
            let at = rng.below(POOL - b + 1);
            let frames = black_box(&fx.frames[at..at + b]);

            let t = Instant::now();
            let untraced = black_box(match block {
                None => vec![fx.predictor.classify(&frames[0])],
                Some(_) => fx.predictor.classify_block(frames),
            });
            classify_ns.push(t.elapsed().as_nanos() as u64 / b as u64);

            let input = black_box(&quants[at..at + b]);
            let ((), ns) = self.rec.replay("finn.forward", || match block {
                None => {
                    black_box(pipeline.forward(&input[0]));
                }
                Some(_) => {
                    black_box(pipeline.forward_batch(input));
                }
            });
            pipeline_ns.push(ns / b as u64);

            // The replay: quantize → each stage → argmax, as `classify`
            // and `classify_block` do it, one span per step.
            let rec = &mut self.rec;
            let op = rec.id();
            let op_start = rec.now();
            let (inputs, ns) = rec.time("predictor.quantize", op, op, || {
                frames
                    .iter()
                    .map(|f| fx.predictor.quantize(f))
                    .collect::<Vec<QuantMap>>()
            });
            quantize_ns.push(ns / b as u64);
            let pipe = rec.id();
            let pipe_start = rec.now();
            let mut tokens: Vec<StageData> =
                inputs.iter().map(|q| StageData::Quant(q.clone())).collect();
            for (i, stage) in stages.iter().enumerate() {
                let (next, ns) = rec.time(names[i], pipe, op, || match block {
                    None => vec![stage.process(tokens.pop().expect("one token"))],
                    Some(_) => stage.process_batch(tokens),
                });
                tokens = next;
                stage_ns[i].push(ns / b as u64);
            }
            let logits: Vec<Vec<i64>> = tokens
                .into_iter()
                .map(|t| t.expect_logits("pipeline output"))
                .collect();
            let pipe_end = rec.now();
            rec.push(Span {
                id: pipe,
                parent: op,
                op,
                name: "finn.pipeline",
                start_ns: pipe_start,
                end_ns: pipe_end,
                replayed: false,
            });
            let (classes, _) = rec.time("predictor.argmax", op, op, || {
                logits.iter().map(|l| argmax(l)).collect::<Vec<MaskClass>>()
            });
            let op_end = rec.now();
            rec.push(Span {
                id: op,
                parent: 0,
                op,
                name: "predictor.classify",
                start_ns: op_start,
                end_ns: op_end,
                replayed: false,
            });
            op_ns.push(op_end - op_start);
            for (j, class) in black_box(classes).into_iter().enumerate() {
                answers += 1;
                wrong += u64::from(class != fx.expected[at + j]);
                disagreed += u64::from(untraced.get(j) != Some(&class));
            }
        }
        self.out.attempted += answers;
        self.out.failed += wrong;
        if disagreed > 0 {
            self.out.problems.push(format!(
                "the traced replay disagrees with the untraced call on {disagreed} answers"
            ));
        }

        // Per stage, then grouped: every network here has a conv1, a
        // conv2, later convs, pools and dense layers, whatever their number.
        let per_stage: Vec<f64> = stage_ns.iter_mut().map(|v| median(v)).collect();
        let stages_sum: f64 = per_stage.iter().sum();
        let cycles: Vec<u64> = stages.iter().map(Stage::cycles_per_frame).collect();
        let cycles_sum: u64 = cycles.iter().sum();
        let mut groups: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut seen_conv2 = false;
        let mut max_err = 0f64;
        let _ = writeln!(
            self.out.report,
            "stage            ns/frame   share   cycle-model share"
        );
        for ((stage, &ns), &cyc) in stages.iter().zip(&per_stage).zip(&cycles) {
            let group = match stage {
                Stage::ConvFixed { .. } => "finn.stage.conv1.ns_per_frame",
                Stage::ConvBinary { .. } if !seen_conv2 => {
                    seen_conv2 = true;
                    "finn.stage.conv2.ns_per_frame"
                }
                Stage::ConvBinary { .. } => "finn.stage.conv3plus.ns_per_frame",
                Stage::PoolOr { .. } => "finn.stage.pool.ns_per_frame",
                Stage::DenseBinary { .. } | Stage::DenseLogits { .. } => {
                    "finn.stage.fc.ns_per_frame"
                }
            };
            *groups.entry(group).or_default() += ns;
            let share = 100.0 * ns / stages_sum.max(1.0);
            let model = 100.0 * cyc as f64 / cycles_sum.max(1) as f64;
            max_err = max_err.max((share - model).abs());
            let _ = writeln!(
                self.out.report,
                "{:<12} {:>12.0} {:>6.1}% {:>6.1}%",
                stage.name(),
                ns,
                share,
                model
            );
        }
        for (name, ns) in groups {
            self.set(name, ns);
        }

        let classify = median(&mut classify_ns);
        let pipe = median(&mut pipeline_ns);
        let quantize = median(&mut quantize_ns);
        let replayed: f64 = [
            "finn.swu_ns_per_frame",
            "bitpack.pack_ns_per_frame",
            "bitpack.gemm_ns_per_frame",
        ]
        .iter()
        .map(|n| self.out.metrics[n])
        .sum();
        self.set("finn.stage_self_ns_per_frame", stages_sum - replayed);
        self.set("finn.pipeline_ns_per_frame", pipe);
        self.set("finn.pipeline_glue_ns_per_frame", pipe - stages_sum);
        self.set("finn.model_share_max_err_pts", max_err);
        self.set("predictor.quantize_ns_per_frame", quantize);
        self.set("predictor.classify_ns_per_frame", classify);
        self.set("predictor.glue_ns_per_frame", classify - quantize - pipe);
        let perf = fx.predictor.perf();
        self.set("finn.cycles_per_frame", perf.latency_cycles as f64);
        self.set("finn.ii_cycles", perf.initiation_interval as f64);
        self.set("finn.model_fps_100mhz", perf.throughput_fps);
        let _ = writeln!(
            self.out.report,
            "layer sum: stages {stages_sum:.0} + pipeline glue {:.0} + quantize {quantize:.0} + predictor glue {:.0} = classify {classify:.0} ns/frame",
            pipe - stages_sum,
            classify - quantize - pipe
        );

        op_ns.sort_unstable();
        let op_p50 = percentile(&op_ns, 0.5) as f64;
        TopLayer {
            untraced_fps: 1e9 / classify.max(1.0),
            traced_fps: 1e9 * b as f64 / op_p50.max(1.0),
            p95_ms: percentile(&op_ns, 0.95) as f64 / 1e6,
            p99_ms: percentile(&op_ns, 0.99) as f64 / 1e6,
            max_ms: op_ns.last().copied().unwrap_or(0) as f64 / 1e6,
        }
    }

    /// `serve.*`: the workload's load pattern against a one-worker engine
    /// on the workload's network. Slices of three phases alternate, so
    /// that they see the same host conditions: `classify_block` called
    /// directly, an untraced engine, and an engine with its own request
    /// tracing on every request.
    fn serve(&mut self, budget: Duration) -> TopLayer {
        const TURNS: u32 = 4;
        let fx = self.fx;
        let (threads, depth) = fx.workload.engine_load();

        let s = fx.predictor.arch().input_size;
        let canary = canary_frame(3, s, s);
        let mut canary_ns: Vec<u64> = (0..15)
            .map(|_| {
                self.rec
                    .replay("serve.canary", || {
                        black_box(Replica::canary(&fx.predictor, black_box(&canary)));
                    })
                    .1
            })
            .collect();
        self.set("serve.canary_ms", median(&mut canary_ns) / 1e6);

        let plain_engine = fx.engine(None);
        let traced_engine = fx.engine(Some(TraceConfig {
            sample_rate: 1,
            ring_capacity: 1 << 14,
        }));
        let tracer = traced_engine.tracer().expect("the traced engine traces");
        let epoch = Instant::now();
        // What the same frames cost without an engine: blocks as large as
        // one client's burst.
        let mut direct: Vec<Box<dyn Client + '_>> =
            vec![Box::new(DirectClient::new(fx, Some(depth), self.seed))];
        let load = (threads, depth);
        let mut plain = engine_clients(fx, &plain_engine, load, self.seed, None);
        let mut traced = engine_clients(fx, &traced_engine, load, self.seed, Some(epoch));

        let slice = budget / (3 * TURNS);
        let warmup = slice / 10;
        let (mut base_s, mut plain_s, mut traced_s) = (Slices::new(), Slices::new(), Slices::new());
        let mut records: Vec<TraceRecord> = Vec::new();
        for _ in 0..TURNS {
            base_s.keep(drive(&mut direct, slice, &mut || {}), warmup, slice);
            plain_s.keep(drive(&mut plain, slice, &mut || {}), warmup, slice);
            // Drain the rings while the clients run, so that none overflows.
            let samples = drive(&mut traced, slice, &mut || records.extend(tracer.drain()));
            traced_s.keep(samples, warmup, slice);
        }
        let spans: Vec<Span> = traced.iter_mut().flat_map(|c| c.take_spans()).collect();
        drop((direct, plain, traced));
        plain_engine.shutdown();
        traced_engine.shutdown();
        records.extend(tracer.drain());
        let dropped = tracer.dropped();
        let burst = threads * depth;
        let (base, plain, traced) = (
            base_s.summary(1),
            plain_s.summary(burst),
            traced_s.summary(burst),
        );
        for s in [&base, &plain, &traced] {
            self.count(s);
        }

        if let Err(e) = bcp_trace::audit(&records) {
            self.out.problems.push(format!("trace audit failed: {e}"));
        }
        let set = TraceSet::new(records, dropped);
        let report = AttributionReport::from_traces(&set, None);
        for (name, segment) in [
            ("serve.queue_wait_ms_p50", Segment::QueueWait),
            ("serve.batch_wait_ms_p50", Segment::BatchWait),
            ("serve.dispatch_ms_p50", Segment::Dispatch),
            ("serve.compute_ms_p50", Segment::Compute),
            ("serve.delivery_ms_p50", Segment::Delivery),
        ] {
            self.set(name, report.segment(segment).p50_ns as f64 / 1e6);
        }
        // Every request of a batch carries the batch's size and compute
        // time, so Σ 1/size counts batches and Σ compute/size sums them.
        let (mut requests, mut batches, mut compute_ns) = (0f64, 0f64, 0f64);
        for r in set.completed() {
            let size = f64::from(r.batch_size.max(1));
            requests += 1.0;
            batches += 1.0 / size;
            compute_ns += r.segment_ns(Segment::Compute).unwrap_or(0) as f64 / size;
        }
        self.set("serve.batch_size_mean", requests / batches.max(1e-9));
        self.set(
            "serve.compute_ms_per_frame",
            compute_ns / requests.max(1.0) / 1e6,
        );
        self.set("serve.trace_dropped", dropped as f64);
        let mut submit_ns: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "serve.submit")
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        self.set("serve.submit_ns", median(&mut submit_ns));
        self.set(
            "serve.overhead_over_direct_pct",
            (base.fps / plain.fps.max(1e-9) - 1.0) * 100.0,
        );
        self.set(
            "serve.trace_overhead_pct",
            (plain.fps / traced.fps.max(1e-9) - 1.0) * 100.0,
        );
        let _ = write!(self.out.report, "{}", report.render_text());
        self.out.spans.extend(spans);
        self.out.engine_records = set.records;
        TopLayer {
            untraced_fps: plain.fps,
            traced_fps: traced.fps,
            p95_ms: traced.all_p95_ms,
            p99_ms: traced.all_p99_ms,
            max_ms: traced.max_ms,
        }
    }

    /// `gateway.*`: codec and admission calls on their own; then slices of
    /// three phases alternate — the workload's connections over loopback,
    /// the same under spans, and the same requests through
    /// `Router::dispatch` in-process. Wire minus router is the wire's cost.
    fn gateway(&mut self, budget: Duration) -> TopLayer {
        const TURNS: u32 = 4;
        let fx = self.fx;
        let (gateway, tenants) = fx.gateway();
        self.codec(tenants[0]);

        let tenants = &tenants[..fx.workload.connections()];
        let epoch = Instant::now();
        let addr = gateway.local_addr();
        let mut plain = wire_clients(fx, addr, tenants, self.seed, 0, None);
        let mut traced = wire_clients(fx, addr, tenants, self.seed, 4, Some(epoch));
        let mut routed: Vec<Box<dyn Client + '_>> = tenants
            .iter()
            .enumerate()
            .map(|(c, &tenant)| {
                Box::new(RouterClient {
                    fx,
                    router: gateway.router(),
                    tenant,
                    next_id: (8 + c as u64) << 40,
                    rng: Rng::new(self.seed, 2 + c as u64),
                }) as Box<dyn Client>
            })
            .collect();

        let slice = budget / (3 * TURNS);
        let warmup = slice / 10;
        let (mut plain_s, mut traced_s, mut routed_s) =
            (Slices::new(), Slices::new(), Slices::new());
        for _ in 0..TURNS {
            plain_s.keep(drive(&mut plain, slice, &mut || {}), warmup, slice);
            traced_s.keep(drive(&mut traced, slice, &mut || {}), warmup, slice);
            routed_s.keep(drive(&mut routed, slice, &mut || {}), warmup, slice);
        }
        let spans: Vec<Span> = traced.iter_mut().flat_map(|c| c.take_spans()).collect();
        self.out.spans.extend(spans);
        drop((plain, traced, routed));
        let snap = gateway.registry().snapshot();
        gateway.shutdown();
        let n = tenants.len();
        let (plain, traced, routed) =
            (plain_s.summary(n), traced_s.summary(n), routed_s.summary(n));
        for s in [&plain, &traced, &routed] {
            self.count(s);
        }

        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
        self.set("gateway.router_dispatch_ms_p50", routed.p50_ms);
        self.set("gateway.wire_overhead_ms_p50", plain.p50_ms - routed.p50_ms);
        // The server's histogram has power-of-two buckets: its p50 is
        // right to within one octave.
        self.set(
            "gateway.server_latency_ms_p50",
            snap.histograms
                .get("gateway.latency_ns")
                .map_or(0.0, |h| h.p50 as f64 / 1e6),
        );
        self.set("gateway.frames", counter("gateway.frames"));
        self.set("gateway.responses", counter("gateway.responses"));
        self.set("gateway.retries", counter("gateway.retries"));
        self.set("gateway.failovers", counter("gateway.failovers"));
        self.set("gateway.throttled", counter("gateway.status.throttled"));
        TopLayer {
            untraced_fps: plain.fps,
            traced_fps: traced.fps,
            p95_ms: traced.all_p95_ms,
            p99_ms: traced.all_p99_ms,
            max_ms: traced.max_ms,
        }
    }

    /// `gateway.{encode_request,decode_message,admit}_ns`: a fixed number
    /// of calls, timed sixteen at a time because one call is of the order
    /// of the timer's own cost.
    fn codec(&mut self, tenant: u32) {
        const CALLS: u64 = 16;
        let fx = self.fx;
        let request = RequestFrame::from_tensor(tenant, 1, DEADLINE_MS, &fx.frames[0]);
        let bytes = encode_request(&request);
        let policy = TenantPolicy {
            rate_per_s: 1_000_000_000,
            burst: 1_000_000_000,
            quota: None,
        };
        let table = TenantTable::new(policy, None);
        let clock = Instant::now();
        let mut timed = |name: &'static str, call: &mut dyn FnMut()| -> f64 {
            let mut ns: Vec<u64> = (0..200)
                .map(|_| {
                    self.rec
                        .replay(name, || {
                            for _ in 0..CALLS {
                                call();
                            }
                        })
                        .1
                })
                .collect();
            median(&mut ns) / CALLS as f64
        };
        let encode = timed("gateway.encode_request", &mut || {
            black_box(encode_request(black_box(&request)));
        });
        let decode = timed("gateway.decode_message", &mut || {
            black_box(decode_message(black_box(&bytes)).is_ok());
        });
        let admit = timed("gateway.admit", &mut || {
            black_box(table.admit(tenant, clock.elapsed().as_nanos() as u64));
        });
        self.set("gateway.encode_request_ns", encode);
        self.set("gateway.decode_message_ns", decode);
        self.set("gateway.admit_ns", admit);
    }
}
