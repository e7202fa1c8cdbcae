//! Minibatch training loop.

use crate::loss::{cross_entropy, squared_hinge, LossOutput};
use crate::metrics::{predictions, ConfusionMatrix};
use crate::optim::{Adam, StepDecay};
use crate::sequential::{Profile, Sequential};
use crate::Mode;
use bcp_tensor::{Shape, Tensor};

/// Which loss drives training.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossKind {
    /// Softmax cross-entropy.
    CrossEntropy,
    /// Multi-class squared hinge (BinaryNet's choice).
    SquaredHinge,
}

impl LossKind {
    /// Evaluate the loss and its logits gradient.
    pub fn eval(&self, logits: &Tensor, labels: &[usize]) -> LossOutput {
        match self {
            LossKind::CrossEntropy => cross_entropy(logits, labels),
            LossKind::SquaredHinge => squared_hinge(logits, labels),
        }
    }
}

/// Training hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Shuffle seed (deterministic order given the seed).
    pub shuffle_seed: u64,
    /// Loss function.
    pub loss: LossKind,
    /// Optional LR schedule applied at epoch boundaries.
    pub schedule: Option<StepDecay>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 64,
            shuffle_seed: 0,
            loss: LossKind::CrossEntropy,
            schedule: None,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Mean minibatch loss over the epoch.
    pub loss: f32,
    /// Training accuracy over the epoch (computed on-line from the same
    /// forward passes used for the updates).
    pub train_accuracy: f32,
    /// Validation accuracy, when a validation set was supplied.
    pub val_accuracy: Option<f32>,
    /// Mean (over minibatches) global L2 norm of all parameter gradients.
    pub grad_norm: f32,
    /// Fraction of latent binary weights (`clip_unit` params) whose sign
    /// changed across the epoch — the effective-flip-rate lens on BNN
    /// training dynamics (high early, decaying as binarization settles).
    /// Zero for networks without latent binary weights.
    pub sign_flip_rate: f32,
    /// Wall-clock duration of the epoch (training + validation).
    pub epoch_seconds: f64,
    /// Where the epoch's time went, by layer kind (training + validation).
    pub profile: Profile,
}

/// Deterministic Fisher–Yates shuffle driven by a split-mix PRNG — cheap,
/// seedable, and independent of the `rand` crate's version-to-version
/// stream changes.
fn shuffled_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    idx
}

/// Gather samples `indices` of an NCHW tensor into a new batch.
pub fn gather_batch(images: &Tensor, indices: &[usize]) -> Tensor {
    assert_eq!(images.shape().rank(), 4, "gather_batch expects NCHW");
    let (c, h, w) = (
        images.shape().dim(1),
        images.shape().dim(2),
        images.shape().dim(3),
    );
    let stride = c * h * w;
    let src = images.as_slice();
    let mut data = Vec::with_capacity(indices.len() * stride);
    for &i in indices {
        data.extend_from_slice(&src[i * stride..(i + 1) * stride]);
    }
    Tensor::from_vec(Shape::nchw(indices.len(), c, h, w), data)
}

/// Single-epoch result from [`train_epoch`].
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochDetail {
    /// Mean minibatch loss.
    pub loss: f32,
    /// On-line training accuracy.
    pub train_accuracy: f32,
    /// Mean over minibatches of the global L2 gradient norm (computed
    /// after `backward`, before the optimizer update).
    pub grad_norm: f32,
}

/// One epoch of minibatch training with gradient-norm tracking.
pub fn train_epoch(
    net: &mut Sequential,
    opt: &mut Adam,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
    loss: LossKind,
    shuffle_seed: u64,
) -> EpochDetail {
    let n = images.shape().dim(0);
    assert_eq!(labels.len(), n, "label count mismatch");
    assert!(batch_size > 0, "batch size must be positive");
    let order = shuffled_indices(n, shuffle_seed);
    let mut total_loss = 0.0f64;
    let mut total_grad_norm = 0.0f64;
    let mut batches = 0usize;
    let mut correct = 0usize;
    for chunk in order.chunks(batch_size) {
        let batch = gather_batch(images, chunk);
        let batch_labels: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
        net.zero_grad();
        let logits = net.forward(&batch, Mode::Train);
        let out = loss.eval(&logits, &batch_labels);
        correct += predictions(&logits)
            .iter()
            .zip(&batch_labels)
            .filter(|(p, l)| p == l)
            .count();
        net.backward(&out.grad);
        let mut sq_sum = 0.0f64;
        net.visit_params(&mut |p| {
            sq_sum += p
                .grad
                .as_slice()
                .iter()
                .map(|&g| (g as f64) * (g as f64))
                .sum::<f64>();
        });
        total_grad_norm += sq_sum.sqrt();
        net.step(opt);
        total_loss += out.loss as f64;
        batches += 1;
    }
    let b = batches.max(1) as f64;
    EpochDetail {
        loss: (total_loss / b) as f32,
        train_accuracy: correct as f32 / n as f32,
        grad_norm: (total_grad_norm / b) as f32,
    }
}

/// Signs of every latent binary weight (`clip_unit` params), in
/// `visit_params` order. The basis for the per-epoch sign-flip rate.
fn latent_signs(net: &mut Sequential) -> Vec<bool> {
    let mut signs = Vec::new();
    net.visit_params(&mut |p| {
        if p.clip_unit {
            signs.extend(p.value.as_slice().iter().map(|&v| v >= 0.0));
        }
    });
    signs
}

fn flip_rate(before: &[bool], after: &[bool]) -> f32 {
    debug_assert_eq!(before.len(), after.len());
    if before.is_empty() {
        return 0.0;
    }
    let flips = before.iter().zip(after).filter(|(a, b)| a != b).count();
    flips as f32 / before.len() as f32
}

/// Evaluate accuracy (and optionally fill a confusion matrix) in eval mode.
pub fn evaluate(
    net: &mut Sequential,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
    confusion: Option<&mut ConfusionMatrix>,
) -> f32 {
    let n = images.shape().dim(0);
    assert_eq!(labels.len(), n, "label count mismatch");
    let indices: Vec<usize> = (0..n).collect();
    let mut correct = 0usize;
    let mut cm = confusion;
    for chunk in indices.chunks(batch_size.max(1)) {
        let batch = gather_batch(images, chunk);
        let batch_labels: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
        let logits = net.forward(&batch, Mode::Eval);
        let preds = predictions(&logits);
        correct += preds
            .iter()
            .zip(&batch_labels)
            .filter(|(p, l)| p == l)
            .count();
        if let Some(ref mut m) = cm {
            m.record_batch(&batch_labels, &preds);
        }
    }
    correct as f32 / n.max(1) as f32
}

/// Full training run with optional validation and LR schedule. The callback
/// receives each epoch's stats (use it for logging or early stopping by
/// returning `false`). With a telemetry registry, each epoch also exports
/// `train.epoch.{loss,train_accuracy,val_accuracy,grad_norm,sign_flip_rate,lr}`
/// gauges, a `train.epoch_ns` histogram, `train.{epochs,samples}` counters
/// and — when the registry has an event sink — one `train.epoch` mark
/// event carrying the same numbers as JSONL fields.
#[allow(clippy::too_many_arguments)]
pub fn fit(
    net: &mut Sequential,
    opt: &mut Adam,
    train_images: &Tensor,
    train_labels: &[usize],
    val: Option<(&Tensor, &[usize])>,
    cfg: &TrainConfig,
    telemetry: Option<&bcp_trace::Registry>,
    mut on_epoch: impl FnMut(&EpochStats) -> bool,
) -> Vec<EpochStats> {
    let mut history = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        if let Some(s) = cfg.schedule {
            opt.set_lr(s.lr_at(epoch));
        }
        let t0 = std::time::Instant::now();
        net.take_profile();
        let signs_before = latent_signs(net);
        let detail = train_epoch(
            net,
            opt,
            train_images,
            train_labels,
            cfg.batch_size,
            cfg.loss,
            cfg.shuffle_seed.wrapping_add(epoch as u64),
        );
        let val_accuracy = val.map(|(vi, vl)| evaluate(net, vi, vl, cfg.batch_size, None));
        let sign_flip_rate = flip_rate(&signs_before, &latent_signs(net));
        let epoch_seconds = t0.elapsed().as_secs_f64();
        let profile = net.take_profile();
        let stats = EpochStats {
            epoch,
            loss: detail.loss,
            train_accuracy: detail.train_accuracy,
            val_accuracy,
            grad_norm: detail.grad_norm,
            sign_flip_rate,
            epoch_seconds,
            profile,
        };
        if let Some(registry) = telemetry {
            record_epoch(registry, &stats, opt.lr(), train_labels.len());
        }
        let proceed = on_epoch(&stats);
        history.push(stats);
        if !proceed {
            break;
        }
    }
    history
}

fn record_epoch(registry: &bcp_trace::Registry, s: &EpochStats, lr: f32, samples: usize) {
    use serde::{Map, Value};
    registry.counter("train.epochs").inc();
    registry.counter("train.samples").add(samples as u64);
    registry.gauge("train.epoch.loss").set(s.loss as f64);
    registry
        .gauge("train.epoch.train_accuracy")
        .set(s.train_accuracy as f64);
    if let Some(v) = s.val_accuracy {
        registry.gauge("train.epoch.val_accuracy").set(v as f64);
    }
    registry
        .gauge("train.epoch.grad_norm")
        .set(s.grad_norm as f64);
    registry
        .gauge("train.epoch.sign_flip_rate")
        .set(s.sign_flip_rate as f64);
    registry.gauge("train.epoch.lr").set(lr as f64);
    registry
        .histogram("train.epoch_ns")
        .record((s.epoch_seconds * 1e9) as u64);
    let mut fields = Map::new();
    fields.insert("epoch".into(), Value::UInt(s.epoch as u64));
    fields.insert("loss".into(), Value::Float(s.loss as f64));
    fields.insert(
        "train_accuracy".into(),
        Value::Float(s.train_accuracy as f64),
    );
    if let Some(v) = s.val_accuracy {
        fields.insert("val_accuracy".into(), Value::Float(v as f64));
    }
    fields.insert("grad_norm".into(), Value::Float(s.grad_norm as f64));
    fields.insert(
        "sign_flip_rate".into(),
        Value::Float(s.sign_flip_rate as f64),
    );
    fields.insert("epoch_ms".into(), Value::Float(s.epoch_seconds * 1e3));
    registry.mark("train.epoch", fields);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::SignSte;
    use crate::batchnorm::BatchNorm;
    use crate::linear::Linear;
    use crate::metrics::accuracy;
    use crate::optim::Adam;
    use crate::weight::WeightForm;
    use bcp_tensor::init::uniform;

    /// A linearly-separable 2-class blob problem: class = sign of x₀.
    fn blob_data(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let raw = uniform(Shape::nchw(n, 1, 1, 2), -1.0, 1.0, seed);
        let labels: Vec<usize> = (0..n)
            .map(|i| if raw.as_slice()[i * 2] >= 0.0 { 1 } else { 0 })
            .collect();
        (raw, labels)
    }

    fn blob_net(seed: u64) -> Sequential {
        Sequential::new("blob")
            .push(crate::flatten::Flatten::new("flat"))
            .push(Linear::new("fc1", 2, 8, WeightForm::Float, true, seed))
            .push(BatchNorm::new("bn1", 8))
            .push(SignSte::new("sign1"))
            .push(Linear::new("fc2", 8, 2, WeightForm::Float, true, seed + 1))
    }

    #[test]
    fn shuffle_is_deterministic_permutation() {
        let a = shuffled_indices(100, 7);
        let b = shuffled_indices(100, 7);
        let c = shuffled_indices(100, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn gather_batch_picks_rows() {
        let images = Tensor::from_vec(Shape::nchw(3, 1, 1, 2), vec![0., 1., 2., 3., 4., 5.]);
        let b = gather_batch(&images, &[2, 0]);
        assert_eq!(b.as_slice(), &[4., 5., 0., 1.]);
    }

    #[test]
    fn training_reduces_loss_and_learns_blobs() {
        let (images, labels) = blob_data(256, 3);
        let mut net = blob_net(10);
        let mut opt = Adam::new(0.01);
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 32,
            ..Default::default()
        };
        let history = fit(
            &mut net,
            &mut opt,
            &images,
            &labels,
            None,
            &cfg,
            None,
            |_| true,
        );
        assert!(history.len() == 30);
        assert!(
            history.last().unwrap().loss < history.first().unwrap().loss,
            "loss should decrease: {} → {}",
            history.first().unwrap().loss,
            history.last().unwrap().loss
        );
        let acc = evaluate(&mut net, &images, &labels, 64, None);
        assert!(acc > 0.9, "blob accuracy {acc} too low");
    }

    #[test]
    fn binary_network_learns_blobs() {
        // The full binary stack (binary weights + sign activations) must
        // still learn a separable problem — the paper's core training claim.
        let (images, labels) = blob_data(256, 4);
        let mut net = Sequential::new("binary-blob")
            .push(crate::flatten::Flatten::new("flat"))
            .push(Linear::new("fc1", 2, 16, WeightForm::Float, true, 20))
            .push(BatchNorm::new("bn1", 16))
            .push(SignSte::new("sign1"))
            .push(Linear::new("bfc2", 16, 16, WeightForm::Sign, false, 21))
            .push(BatchNorm::new("bn2", 16))
            .push(SignSte::new("sign2"))
            .push(Linear::new("fc3", 16, 2, WeightForm::Float, true, 22));
        let mut opt = Adam::new(0.01);
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 32,
            ..Default::default()
        };
        fit(
            &mut net,
            &mut opt,
            &images,
            &labels,
            None,
            &cfg,
            None,
            |_| true,
        );
        let acc = evaluate(&mut net, &images, &labels, 64, None);
        assert!(acc > 0.85, "binary blob accuracy {acc} too low");
    }

    #[test]
    fn evaluate_fills_confusion_matrix() {
        let (images, labels) = blob_data(64, 5);
        let mut net = blob_net(30);
        let mut cm = ConfusionMatrix::new(2);
        let acc = evaluate(&mut net, &images, &labels, 16, Some(&mut cm));
        assert_eq!(cm.total(), 64);
        assert!((cm.accuracy() as f32 - acc).abs() < 1e-5);
    }

    #[test]
    fn early_stop_callback() {
        let (images, labels) = blob_data(32, 6);
        let mut net = blob_net(40);
        let mut opt = Adam::new(0.01);
        let cfg = TrainConfig {
            epochs: 50,
            batch_size: 16,
            ..Default::default()
        };
        let history = fit(
            &mut net,
            &mut opt,
            &images,
            &labels,
            None,
            &cfg,
            None,
            |s| s.epoch < 2,
        );
        assert_eq!(history.len(), 3); // epochs 0,1,2 run; callback stops after 2.
    }

    #[test]
    fn epoch_stats_carry_training_dynamics() {
        let (images, labels) = blob_data(128, 3);
        let mut net = Sequential::new("dyn")
            .push(crate::flatten::Flatten::new("flat"))
            .push(Linear::new("fc1", 2, 8, WeightForm::Float, true, 60))
            .push(BatchNorm::new("bn1", 8))
            .push(SignSte::new("sign1"))
            .push(Linear::new("bfc", 8, 8, WeightForm::Sign, false, 61))
            .push(BatchNorm::new("bn2", 8))
            .push(SignSte::new("sign2"))
            .push(Linear::new("fc2", 8, 2, WeightForm::Float, true, 62));
        let mut opt = Adam::new(0.02);
        let cfg = TrainConfig {
            epochs: 4,
            batch_size: 16,
            ..Default::default()
        };
        let history = fit(
            &mut net,
            &mut opt,
            &images,
            &labels,
            None,
            &cfg,
            None,
            |_| true,
        );
        for s in &history {
            assert!(s.grad_norm > 0.0, "epoch {} grad norm", s.epoch);
            assert!((0.0..=1.0).contains(&s.sign_flip_rate), "epoch {}", s.epoch);
            assert!(s.epoch_seconds > 0.0);
            // Every layer kind of the net, and the optimizer, was timed.
            let p = s.profile;
            assert!(p.dense > 0.0 && p.batchnorm > 0.0 && p.activation > 0.0 && p.optimizer > 0.0);
            assert_eq!((p.conv_forward, p.conv_backward, p.pool), (0.0, 0.0, 0.0));
        }
        // Latent weights must actually move early in training.
        assert!(
            history.iter().any(|s| s.sign_flip_rate > 0.0),
            "no latent sign ever flipped: {history:?}"
        );
    }

    #[test]
    fn instrumented_fit_exports_metrics_and_events() {
        let registry = bcp_trace::Registry::with_event_buffer();
        let (images, labels) = blob_data(64, 9);
        let (val_images, val_labels) = blob_data(32, 10);
        let mut net = blob_net(70);
        let mut opt = Adam::new(0.01);
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 16,
            ..Default::default()
        };
        fit(
            &mut net,
            &mut opt,
            &images,
            &labels,
            Some((&val_images, &val_labels)),
            &cfg,
            Some(&registry),
            |_| true,
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counters["train.epochs"], 3);
        assert_eq!(snap.counters["train.samples"], 3 * 64);
        assert!(snap.gauges.contains_key("train.epoch.loss"));
        assert!(snap.gauges.contains_key("train.epoch.val_accuracy"));
        assert!(snap.gauges.contains_key("train.epoch.sign_flip_rate"));
        assert_eq!(snap.histograms["train.epoch_ns"].count, 3);
        let events = registry.take_events();
        assert_eq!(events.len(), 3);
        for line in &events {
            let v: serde::Value = serde_json::from_str(line).unwrap();
            assert_eq!(v["name"].as_str(), Some("train.epoch"));
            assert!(!v["loss"].is_null() && !v["grad_norm"].is_null());
        }
    }

    #[test]
    fn flip_rate_counts_sign_changes() {
        assert_eq!(flip_rate(&[], &[]), 0.0);
        assert_eq!(
            flip_rate(&[true, true, false, false], &[true, false, false, true]),
            0.5
        );
    }

    #[test]
    fn accuracy_helper_consistent_with_evaluate() {
        let (images, labels) = blob_data(32, 8);
        let mut net = blob_net(50);
        let logits = net.forward(&images, Mode::Eval);
        let a = accuracy(&logits, &labels);
        let b = evaluate(&mut net, &images, &labels, 32, None);
        assert!((a - b).abs() < 1e-6);
    }
}
