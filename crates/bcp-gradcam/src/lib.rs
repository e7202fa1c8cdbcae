//! Grad-CAM interpretability (Sec. III-C).
//!
//! BinaryCoP's networks shrink 32×32 inputs to 5×5 at `conv2_2` without a
//! global-average-pooling head, so plain CAM does not apply; the paper uses
//! Grad-CAM [Selvaraju et al. 2017]: the gradient of a class logit with
//! respect to a convolutional layer's output is average-pooled per channel
//! into importance weights, the weighted channel sum is rectified, and the
//! result is upsampled over the input as an attention heat map.
//!
//! - [`gradcam`]: the computation over `bcp-nn` networks (works unchanged
//!   for binary and FP32 models — the STE provides the gradients for BNNs).
//! - [`render`]: ASCII heat maps and PPM overlays for the paper's
//!   Figs. 3–9.

#![forbid(unsafe_code)]

pub mod render;
pub mod stats;

use bcp_nn::{Mode, Sequential};
use bcp_tensor::{Shape, Tensor};

/// One sample's class-discriminative localization map, normalized to
/// [0, 1] at the network input resolution.
#[derive(Clone, Debug)]
pub struct CamMap {
    /// Heat values, `size × size`, in [0, 1].
    pub heat: Tensor,
    /// The class the map explains.
    pub class: usize,
}

/// Compute Grad-CAM maps for a batch at the layer named `target_layer`
/// (e.g. `"conv2_2"` — the paper's choice, 5×5 spatial). `classes` selects
/// the logit to explain per sample. Returns one map per sample, upsampled
/// to `out_size`.
pub fn gradcam(
    net: &mut Sequential,
    input: &Tensor,
    classes: &[usize],
    target_layer: &str,
    out_size: usize,
) -> Vec<CamMap> {
    assert_eq!(input.shape().rank(), 4, "gradcam input must be NCHW");
    let n = input.shape().dim(0);
    assert_eq!(classes.len(), n, "one class per sample required");
    let layer_idx = net
        .index_of(target_layer)
        .unwrap_or_else(|| panic!("network has no layer named '{target_layer}'"));

    // Forward in eval mode (running batch-norm stats, caches populated).
    let outs = net.forward_collect(input, Mode::Eval);
    let activations = outs[layer_idx].clone();
    assert_eq!(
        activations.shape().rank(),
        4,
        "target layer '{target_layer}' must produce an NCHW activation"
    );
    let logits = outs.last().expect("non-empty network").clone();
    assert_eq!(logits.shape().rank(), 2, "network must end in logits");
    let c_out = logits.shape().dim(1);

    // Seed: one-hot at the chosen logit per sample.
    let mut seed = Tensor::zeros(logits.shape().clone());
    for (s, &cls) in classes.iter().enumerate() {
        assert!(cls < c_out, "class {cls} out of range ({c_out} logits)");
        *seed.at_mut(&[s, cls]) = 1.0;
    }
    let grads = net.backward_to(&seed, layer_idx);
    assert_eq!(
        grads.shape(),
        activations.shape(),
        "gradient/activation mismatch"
    );

    let (c, h, w) = (
        activations.shape().dim(1),
        activations.shape().dim(2),
        activations.shape().dim(3),
    );
    let plane = h * w;
    let mut maps = Vec::with_capacity(n);
    #[allow(clippy::needless_range_loop)] // s indexes three parallel arrays
    for s in 0..n {
        // α_k: spatially averaged gradient per channel (Einstein-summation
        // reduction of the paper).
        let mut cam = vec![0.0f32; plane];
        for ch in 0..c {
            let base = ((s * c) + ch) * plane;
            let g = &grads.as_slice()[base..base + plane];
            let a = &activations.as_slice()[base..base + plane];
            let alpha: f32 = g.iter().sum::<f32>() / plane as f32;
            for (acc, &av) in cam.iter_mut().zip(a) {
                *acc += alpha * av;
            }
        }
        // ReLU + normalize to [0, 1].
        for v in &mut cam {
            *v = v.max(0.0);
        }
        let max = cam.iter().copied().fold(0.0f32, f32::max);
        if max > 0.0 {
            for v in &mut cam {
                *v /= max;
            }
        }
        let small = Tensor::from_vec(Shape::d2(h, w), cam);
        maps.push(CamMap {
            heat: upsample_bilinear(&small, out_size),
            class: classes[s],
        });
    }
    maps
}

/// Plain CAM [Zhou et al. 2016] for networks with a GAP → FC head:
/// `CAM_c = Σ_k W_fc[c, k] · A_k` at the conv layer feeding the GAP.
///
/// BinaryCoP's deployed models have no GAP head (Sec. III-C), so this
/// exists for methodology validation: on a GAP-headed model, CAM and
/// Grad-CAM at the same layer provably produce the same normalized map —
/// asserted by this crate's tests, which pins both implementations.
pub fn cam(
    net: &mut Sequential,
    input: &Tensor,
    classes: &[usize],
    target_layer: &str,
    fc_layer: &str,
    out_size: usize,
) -> Vec<CamMap> {
    use bcp_nn::linear::Linear;
    assert_eq!(input.shape().rank(), 4, "cam input must be NCHW");
    let n = input.shape().dim(0);
    assert_eq!(classes.len(), n, "one class per sample required");
    let layer_idx = net
        .index_of(target_layer)
        .unwrap_or_else(|| panic!("network has no layer named '{target_layer}'"));
    let fc_idx = net
        .index_of(fc_layer)
        .unwrap_or_else(|| panic!("network has no layer named '{fc_layer}'"));

    let outs = net.forward_collect(input, Mode::Eval);
    let activations = outs[layer_idx].clone();
    assert_eq!(
        activations.shape().rank(),
        4,
        "target layer must be convolutional"
    );
    let fc = net
        .layer_as::<Linear>(fc_idx)
        .unwrap_or_else(|| panic!("layer '{fc_layer}' is not a Linear"));
    let weights = fc.effective_weight(); // classes × C
    let (c, h, w) = (
        activations.shape().dim(1),
        activations.shape().dim(2),
        activations.shape().dim(3),
    );
    assert_eq!(
        weights.shape().dim(1),
        c,
        "FC fan-in must equal the target layer's channels (GAP head required)"
    );
    let plane = h * w;
    let mut maps = Vec::with_capacity(n);
    for (s, &cls) in classes.iter().enumerate() {
        let mut heat = vec![0.0f32; plane];
        for ch in 0..c {
            let wgt = weights.at(&[cls, ch]);
            let base = (s * c + ch) * plane;
            let a = &activations.as_slice()[base..base + plane];
            for (acc, &av) in heat.iter_mut().zip(a) {
                *acc += wgt * av;
            }
        }
        for v in &mut heat {
            *v = v.max(0.0);
        }
        let max = heat.iter().copied().fold(0.0f32, f32::max);
        if max > 0.0 {
            for v in &mut heat {
                *v /= max;
            }
        }
        let small = Tensor::from_vec(Shape::d2(h, w), heat);
        maps.push(CamMap {
            heat: upsample_bilinear(&small, out_size),
            class: cls,
        });
    }
    maps
}

/// Bilinear upsampling of a rank-2 map to `target × target`.
pub fn upsample_bilinear(map: &Tensor, target: usize) -> Tensor {
    assert_eq!(map.shape().rank(), 2, "upsample expects a rank-2 map");
    let (h, w) = (map.shape().dim(0), map.shape().dim(1));
    assert!(h > 0 && w > 0 && target > 0);
    let src = map.as_slice();
    let mut out = vec![0.0f32; target * target];
    for ty in 0..target {
        for tx in 0..target {
            // Align corners: map the target grid onto the source grid.
            let fy = if target == 1 {
                0.0
            } else {
                ty as f32 * (h - 1) as f32 / (target - 1) as f32
            };
            let fx = if target == 1 {
                0.0
            } else {
                tx as f32 * (w - 1) as f32 / (target - 1) as f32
            };
            let (y0, x0) = (fy.floor() as usize, fx.floor() as usize);
            let (y1, x1) = ((y0 + 1).min(h - 1), (x0 + 1).min(w - 1));
            let (dy, dx) = (fy - y0 as f32, fx - x0 as f32);
            let v = src[y0 * w + x0] * (1.0 - dy) * (1.0 - dx)
                + src[y0 * w + x1] * (1.0 - dy) * dx
                + src[y1 * w + x0] * dy * (1.0 - dx)
                + src[y1 * w + x1] * dy * dx;
            out[ty * target + tx] = v;
        }
    }
    Tensor::from_vec(Shape::d2(target, target), out)
}

/// Centroid of a heat map (row, col) — a compact summary for the "where is
/// the model looking" assertions in the experiments.
pub fn heat_centroid(map: &Tensor) -> (f32, f32) {
    assert_eq!(map.shape().rank(), 2);
    let (h, w) = (map.shape().dim(0), map.shape().dim(1));
    let mut total = 0.0f32;
    let (mut ry, mut rx) = (0.0f32, 0.0f32);
    for y in 0..h {
        for x in 0..w {
            let v = map.as_slice()[y * w + x];
            total += v;
            ry += v * y as f32;
            rx += v * x as f32;
        }
    }
    if total == 0.0 {
        ((h as f32 - 1.0) / 2.0, (w as f32 - 1.0) / 2.0)
    } else {
        (ry / total, rx / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_nn::activation::{Relu, SignSte};
    use bcp_nn::batchnorm::BatchNorm;
    use bcp_nn::conv::Conv2d;
    use bcp_nn::flatten::Flatten;
    use bcp_nn::linear::Linear;
    use bcp_nn::WeightForm;
    use bcp_tensor::init::uniform;
    use bcp_tensor::Conv2dSpec;

    fn tiny_bnn() -> Sequential {
        Sequential::new("tiny-bnn")
            .push(Conv2d::new(
                "conv1",
                Conv2dSpec::new(3, 4, 3, 0),
                WeightForm::Sign,
                1,
            ))
            .push(BatchNorm::new("bn1", 4))
            .push(SignSte::new("sign1"))
            .push(Conv2d::new(
                "conv2",
                Conv2dSpec::new(4, 8, 3, 0),
                WeightForm::Sign,
                2,
            ))
            .push(BatchNorm::new("bn2", 8))
            .push(SignSte::new("sign2"))
            .push(Flatten::new("flat"))
            .push(Linear::new("fc", 8 * 4 * 4, 4, WeightForm::Float, true, 3))
    }

    #[test]
    fn maps_have_expected_shape_and_range() {
        let mut net = tiny_bnn();
        let x = uniform(Shape::nchw(2, 3, 8, 8), -1.0, 1.0, 5);
        let maps = gradcam(&mut net, &x, &[0, 3], "conv2", 8);
        assert_eq!(maps.len(), 2);
        for m in &maps {
            assert_eq!(m.heat.shape().dims(), &[8, 8]);
            for &v in m.heat.as_slice() {
                assert!((0.0..=1.0).contains(&v), "heat {v} outside [0,1]");
            }
        }
        assert_eq!(maps[1].class, 3);
    }

    #[test]
    fn works_on_fp32_networks_too() {
        let mut net = Sequential::new("fp32")
            .push(Conv2d::new(
                "conv1",
                Conv2dSpec::new(3, 4, 3, 0),
                WeightForm::Float,
                1,
            ))
            .push(BatchNorm::new("bn1", 4))
            .push(Relu::new("relu1"))
            .push(Flatten::new("flat"))
            .push(Linear::new("fc", 4 * 6 * 6, 2, WeightForm::Float, true, 2));
        let x = uniform(Shape::nchw(1, 3, 8, 8), -1.0, 1.0, 9);
        let maps = gradcam(&mut net, &x, &[1], "conv1", 8);
        assert_eq!(maps[0].heat.shape().dims(), &[8, 8]);
    }

    #[test]
    fn different_classes_can_differ() {
        let mut net = tiny_bnn();
        let x = uniform(Shape::nchw(1, 3, 8, 8), -1.0, 1.0, 11);
        let a = gradcam(&mut net, &x, &[0], "conv2", 8);
        let mut net2 = tiny_bnn();
        let b = gradcam(&mut net2, &x, &[1], "conv2", 8);
        // Not guaranteed different in general, but with random weights the
        // maps should rarely coincide exactly; allow equality only if both
        // are all-zero (dead ReLU case).
        let same = a[0].heat == b[0].heat;
        let a_zero = a[0].heat.as_slice().iter().all(|&v| v == 0.0);
        assert!(!same || a_zero);
    }

    #[test]
    #[should_panic(expected = "no layer named")]
    fn unknown_layer_panics() {
        let mut net = tiny_bnn();
        let x = uniform(Shape::nchw(1, 3, 8, 8), -1.0, 1.0, 5);
        gradcam(&mut net, &x, &[0], "conv9", 8);
    }

    #[test]
    fn cam_equals_gradcam_on_gap_headed_model() {
        // The methodology identity behind Sec. III-C: with a GAP → FC head,
        // Grad-CAM's channel weights are exactly the FC weights (scaled by
        // 1/HW), so the normalized maps coincide. This pins both
        // implementations against each other.
        use bcp_nn::pool::GlobalAvgPool;
        let make = || {
            Sequential::new("gap-head")
                .push(Conv2d::new(
                    "conv1",
                    Conv2dSpec::new(3, 6, 3, 0),
                    WeightForm::Float,
                    1,
                ))
                .push(BatchNorm::new("bn1", 6))
                .push(Relu::new("relu1"))
                .push(GlobalAvgPool::new("gap"))
                .push(Linear::new("fc", 6, 4, WeightForm::Float, false, 2))
        };
        let x = uniform(Shape::nchw(2, 3, 10, 10), -1.0, 1.0, 3);
        for cls in 0..4 {
            let mut net_a = make();
            let via_cam = cam(&mut net_a, &x, &[cls, cls], "relu1", "fc", 10);
            let mut net_b = make();
            let via_gradcam = gradcam(&mut net_b, &x, &[cls, cls], "relu1", 10);
            for (a, g) in via_cam.iter().zip(&via_gradcam) {
                for (va, vg) in a.heat.as_slice().iter().zip(g.heat.as_slice()) {
                    assert!(
                        (va - vg).abs() < 1e-4,
                        "CAM {va} vs Grad-CAM {vg} diverged (class {cls})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "GAP head required")]
    fn cam_rejects_non_gap_heads() {
        let mut net = tiny_bnn();
        let x = uniform(Shape::nchw(1, 3, 8, 8), -1.0, 1.0, 4);
        // fc fan-in is 8·4·4, not the 8 channels of conv2 → must panic.
        cam(&mut net, &x, &[0], "conv2", "fc", 8);
    }

    #[test]
    fn upsample_identity_and_interpolation() {
        let m = Tensor::from_vec(Shape::d2(2, 2), vec![0.0, 1.0, 1.0, 0.0]);
        let same = upsample_bilinear(&m, 2);
        assert_eq!(same, m);
        let up = upsample_bilinear(&m, 3);
        // Center is the average of the four corners = 0.5.
        assert!((up.at(&[1, 1]) - 0.5).abs() < 1e-6);
        assert_eq!(up.at(&[0, 0]), 0.0);
        assert_eq!(up.at(&[0, 2]), 1.0);
    }

    #[test]
    fn centroid_tracks_mass() {
        let mut m = Tensor::zeros(Shape::d2(5, 5));
        *m.at_mut(&[4, 0]) = 1.0;
        assert_eq!(heat_centroid(&m), (4.0, 0.0));
        let uniform_map = Tensor::ones(Shape::d2(5, 5));
        assert_eq!(heat_centroid(&uniform_map), (2.0, 2.0));
        // Empty map falls back to the center.
        assert_eq!(heat_centroid(&Tensor::zeros(Shape::d2(5, 5))), (2.0, 2.0));
    }
}
