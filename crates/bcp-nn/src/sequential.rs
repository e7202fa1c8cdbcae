//! Sequential network container.

use crate::layer::{Layer, LayerKind, Mode};
use crate::optim::Adam;
use crate::param::Param;
use bcp_tensor::Tensor;
use std::time::Instant;

/// Wall-clock seconds a network spent, by layer kind, since the last
/// [`Sequential::take_profile`]. Only convolutions are split into their
/// forward and backward passes; every other kind sums both.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize)]
pub struct Profile {
    /// Convolution forward passes.
    pub conv_forward: f64,
    /// Convolution backward passes (weight and input gradients).
    pub conv_backward: f64,
    /// Batch normalization.
    pub batchnorm: f64,
    /// Activations and the flatten reshape.
    pub activation: f64,
    /// Pooling.
    pub pool: f64,
    /// Fully-connected layers.
    pub dense: f64,
    /// Optimizer steps ([`Sequential::step`]).
    pub optimizer: f64,
}

impl Profile {
    fn add(&mut self, kind: LayerKind, backward: bool, since: Instant) {
        let bucket = match (kind, backward) {
            (LayerKind::Conv, false) => &mut self.conv_forward,
            (LayerKind::Conv, true) => &mut self.conv_backward,
            (LayerKind::BatchNorm, _) => &mut self.batchnorm,
            (LayerKind::Activation, _) => &mut self.activation,
            (LayerKind::Pool, _) => &mut self.pool,
            (LayerKind::Dense, _) => &mut self.dense,
        };
        *bucket += since.elapsed().as_secs_f64();
    }

    /// Every bucket scaled by `factor` (seconds → ms per image, say).
    pub fn scaled(self, factor: f64) -> Profile {
        Profile {
            conv_forward: self.conv_forward * factor,
            conv_backward: self.conv_backward * factor,
            batchnorm: self.batchnorm * factor,
            activation: self.activation * factor,
            pool: self.pool * factor,
            dense: self.dense * factor,
            optimizer: self.optimizer * factor,
        }
    }

    /// Bucket-wise sum.
    pub fn plus(self, o: Profile) -> Profile {
        Profile {
            conv_forward: self.conv_forward + o.conv_forward,
            conv_backward: self.conv_backward + o.conv_backward,
            batchnorm: self.batchnorm + o.batchnorm,
            activation: self.activation + o.activation,
            pool: self.pool + o.pool,
            dense: self.dense + o.dense,
            optimizer: self.optimizer + o.optimizer,
        }
    }
}

/// A feed-forward stack of layers.
///
/// Besides plain `forward`/`backward`, the container supports two things the
/// BinaryCoP tooling needs:
///
/// - `forward_collect` returns every intermediate activation (Grad-CAM
///   reads the conv2_2 output, Sec. III-C);
/// - `backward_to` stops the backward sweep early and returns the gradient
///   with respect to a chosen layer's *output* (Grad-CAM reads the gradient
///   at the same point).
///
/// Every pass is timed per layer into a [`Profile`] (two `Instant` reads a
/// layer call, against milliseconds of work).
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
    profile: Profile,
}

impl Sequential {
    /// Empty network.
    pub fn new(name: impl Into<String>) -> Self {
        Sequential {
            name: name.into(),
            layers: Vec::new(),
            profile: Profile::default(),
        }
    }

    /// Builder-style layer append.
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        assert!(
            self.index_of(layer.name()).is_none(),
            "duplicate layer name '{}' in network '{}'",
            layer.name(),
            self.name
        );
        self.layers.push(Box::new(layer));
        self
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Layer by position.
    pub fn layer(&self, i: usize) -> &dyn Layer {
        self.layers[i].as_ref()
    }

    /// Position of the layer named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.layers.iter().position(|l| l.name() == name)
    }

    /// Downcast layer `i` to a concrete type.
    pub fn layer_as<T: 'static>(&self, i: usize) -> Option<&T> {
        self.layers[i].as_any().downcast_ref::<T>()
    }

    /// Mutable downcast of layer `i`.
    pub fn layer_as_mut<T: 'static>(&mut self, i: usize) -> Option<&mut T> {
        self.layers[i].as_any_mut().downcast_mut::<T>()
    }

    /// Run the full stack.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            let t0 = Instant::now();
            cur = layer.forward(&cur, mode);
            self.profile.add(layer.kind(), false, t0);
        }
        cur
    }

    /// Run the full stack and return every layer's output
    /// (`result[i]` = output of layer `i`; `result.last()` = logits).
    pub fn forward_collect(&mut self, x: &Tensor, mode: Mode) -> Vec<Tensor> {
        let mut outs = Vec::with_capacity(self.layers.len());
        let mut cur = x.clone();
        for layer in &mut self.layers {
            let t0 = Instant::now();
            cur = layer.forward(&cur, mode);
            self.profile.add(layer.kind(), false, t0);
            outs.push(cur.clone());
        }
        outs
    }

    /// Full backward sweep; returns the gradient w.r.t. the network input.
    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        self.backward_to_input(dy, 0)
    }

    /// Backward sweep from the top down to (but not through) layer
    /// `down_to`; returns the gradient w.r.t. that layer's **output**.
    ///
    /// `down_to == len()-1` returns `dy` itself (gradient at the logits).
    pub fn backward_to(&mut self, dy: &Tensor, down_to: usize) -> Tensor {
        assert!(
            down_to < self.layers.len(),
            "layer index {down_to} out of range"
        );
        self.backward_to_input(dy, down_to + 1)
    }

    /// Backward through layers `from..`, top down: the gradient w.r.t.
    /// layer `from`'s input.
    fn backward_to_input(&mut self, dy: &Tensor, from: usize) -> Tensor {
        let mut cur = dy.clone();
        for layer in self.layers[from..].iter_mut().rev() {
            let t0 = Instant::now();
            cur = layer.backward(&cur);
            self.profile.add(layer.kind(), true, t0);
        }
        cur
    }

    /// One optimizer step: update every parameter, then advance the
    /// optimizer's step counter.
    pub fn step(&mut self, opt: &mut Adam) {
        let t0 = Instant::now();
        self.visit_params(&mut |p| opt.update(p));
        opt.advance();
        self.profile.optimizer += t0.elapsed().as_secs_f64();
    }

    /// The time spent since the last call (or since construction), and
    /// a fresh start.
    pub fn take_profile(&mut self) -> Profile {
        std::mem::take(&mut self.profile)
    }

    /// Visit every parameter of every layer.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Visit parameters together with their owning layer's name.
    pub fn visit_named_params(&mut self, f: &mut dyn FnMut(&str, &mut Param)) {
        for layer in &mut self.layers {
            let name = layer.name().to_string();
            layer.visit_params(&mut |p| f(&name, p));
        }
    }

    /// Zero all gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Total trainable scalar count.
    pub fn param_count(&mut self) -> usize {
        self.layers.iter_mut().map(|l| l.param_count()).sum()
    }

    /// One-line-per-layer structural description.
    pub fn describe(&mut self) -> String {
        let mut s = format!("{} ({} layers)\n", self.name, self.layers.len());
        for i in 0..self.layers.len() {
            let count = self.layers[i].param_count();
            s.push_str(&format!(
                "  [{i:2}] {:<12} params={count}\n",
                self.layers[i].name()
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::SignSte;
    use crate::linear::Linear;
    use crate::weight::WeightForm;
    use bcp_tensor::Shape;

    fn tiny_net() -> Sequential {
        Sequential::new("tiny")
            .push(Linear::new("fc1", 2, 3, WeightForm::Float, true, 1))
            .push(SignSte::new("sign1"))
            .push(Linear::new("fc2", 3, 2, WeightForm::Float, true, 2))
    }

    #[test]
    fn forward_threads_through_layers() {
        let mut net = tiny_net();
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![0.5, -0.5]);
        let y = net.forward(&x, Mode::Train);
        assert_eq!(y.shape().dims(), &[1, 2]);
    }

    #[test]
    fn forward_collect_matches_forward() {
        let mut net = tiny_net();
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![0.5, -0.5]);
        let outs = net.forward_collect(&x, Mode::Train);
        assert_eq!(outs.len(), 3);
        let mut net2 = tiny_net();
        let y = net2.forward(&x, Mode::Train);
        assert_eq!(outs.last().unwrap(), &y);
        // The sign layer's output is binary.
        for &v in outs[1].as_slice() {
            assert!(v == 1.0 || v == -1.0);
        }
    }

    #[test]
    fn backward_to_returns_intermediate_gradient() {
        let mut net = tiny_net();
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![0.5, -0.5]);
        let y = net.forward(&x, Mode::Train);
        let dy = Tensor::ones(y.shape().clone());
        // Gradient at the sign output (layer 1) = fc2's input gradient.
        let g = net.backward_to(&dy, 1);
        assert_eq!(g.shape().dims(), &[1, 3]);
        // Gradient at the logits is dy itself.
        let mut net2 = tiny_net();
        let y2 = net2.forward(&x, Mode::Train);
        let g_top = net2.backward_to(&Tensor::ones(y2.shape().clone()), 2);
        assert_eq!(g_top.as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn lookup_and_downcast() {
        let net = tiny_net();
        assert_eq!(net.index_of("fc2"), Some(2));
        assert_eq!(net.index_of("nope"), None);
        assert!(net.layer_as::<Linear>(0).is_some());
        assert!(net.layer_as::<SignSte>(0).is_none());
    }

    #[test]
    fn param_count_sums_layers() {
        let mut net = tiny_net();
        // fc1: 2·3+3, fc2: 3·2+2.
        assert_eq!(net.param_count(), 9 + 8);
    }

    #[test]
    #[should_panic(expected = "duplicate layer name")]
    fn duplicate_names_rejected() {
        let _ = Sequential::new("dup")
            .push(SignSte::new("a"))
            .push(SignSte::new("a"));
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut net = tiny_net();
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![0.5, -0.5]);
        let y = net.forward(&x, Mode::Train);
        net.backward(&Tensor::ones(y.shape().clone()));
        let mut nonzero = 0;
        net.visit_params(&mut |p| {
            nonzero += p.grad.as_slice().iter().filter(|v| **v != 0.0).count()
        });
        assert!(nonzero > 0);
        net.zero_grad();
        net.visit_params(&mut |p| {
            assert!(p.grad.as_slice().iter().all(|v| *v == 0.0));
        });
    }
}
