//! Network builders: Table I architectures as `bcp-nn` stacks.
//!
//! Layer order follows the FINN deployment form: conv → batch-norm → sign,
//! with max-pool *after* the sign so pooling happens in the binary domain
//! (where the hardware's OR-pool is exact). Each conv/FC group `i` uses the
//! names `conv{i}` / `fc{i}`, `bn_conv{i}` / `bn_fc{i}`, `sign_conv{i}` /
//! `sign_fc{i}`, `pool{p}` — the deployment exporter walks these by name.

use crate::arch::{Arch, K};
use crate::predictor::BinaryCoP;
use bcp_nn::activation::{Relu, SignSte};
use bcp_nn::batchnorm::BatchNorm;
use bcp_nn::conv::Conv2d;
use bcp_nn::flatten::Flatten;
use bcp_nn::linear::Linear;
use bcp_nn::pool::MaxPool2d;
use bcp_nn::Sequential;
pub use bcp_nn::WeightForm;
use bcp_tensor::Conv2dSpec;

/// First-layer input precision.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum InputMode {
    /// 8-bit fixed-point camera pixels into the first conv (FINN's and the
    /// paper's choice).
    #[default]
    FixedPoint8,
    /// Binarize the input pixels too (`sign(2x−1)`): the fully-binary
    /// ablation, cheaper hardware but a large information loss.
    Binary,
}

/// Model-construction options for the ablation studies.
#[derive(Clone, Copy, Debug, Default)]
pub struct ModelOptions {
    /// Weight form (Sec. II-B design choice): `Sign`, the paper's and the
    /// default, or `ScaledSign`, the XNOR-Net ablation. The float network
    /// is [`build_fp32`].
    pub weights: WeightForm,
    /// Input precision.
    pub input: InputMode,
}

/// Build the binary (BNN) network for an architecture. `seed` controls all
/// weight initialization.
pub fn build_bnn(arch: &Arch, seed: u64) -> Sequential {
    build_bnn_with(arch, seed, ModelOptions::default())
}

/// Build a BNN with explicit weight/input modes (ablations).
pub fn build_bnn_with(arch: &Arch, seed: u64, opts: ModelOptions) -> Sequential {
    arch.validate();
    let mut net = Sequential::new(arch.name.clone());
    if opts.input == InputMode::Binary {
        net = net.push(SignSte::new("sign_input"));
    }
    let mut pool_idx = 0usize;
    for (i, conv) in arch.convs.iter().enumerate() {
        let spec = Conv2dSpec::new(conv.c_in, conv.c_out, K, 0);
        net = net
            .push(Conv2d::new(
                format!("conv{}", i + 1),
                spec,
                opts.weights,
                seed + i as u64,
            ))
            .push(BatchNorm::new(format!("bn_conv{}", i + 1), conv.c_out))
            .push(SignSte::new(format!("sign_conv{}", i + 1)));
        if conv.pool_after {
            pool_idx += 1;
            net = net.push(MaxPool2d::two_by_two(format!("pool{pool_idx}")));
        }
    }
    net = net.push(Flatten::new("flatten"));
    let n_fc = arch.fcs.len();
    for (i, fc) in arch.fcs.iter().enumerate() {
        net = net.push(Linear::new(
            format!("fc{}", i + 1),
            fc.f_in,
            fc.f_out,
            opts.weights,
            false,
            seed + 100 + i as u64,
        ));
        if i + 1 < n_fc {
            net = net
                .push(BatchNorm::new(format!("bn_fc{}", i + 1), fc.f_out))
                .push(SignSte::new(format!("sign_fc{}", i + 1)));
        }
    }
    net
}

/// Build the FP32 baseline of the Grad-CAM comparison: the same topology
/// with float convolutions and ReLU activations.
pub fn build_fp32(arch: &Arch, seed: u64) -> Sequential {
    arch.validate();
    let mut net = Sequential::new(format!("{}-FP32", arch.name));
    let mut pool_idx = 0usize;
    for (i, conv) in arch.convs.iter().enumerate() {
        let spec = Conv2dSpec::new(conv.c_in, conv.c_out, K, 0);
        net = net
            .push(Conv2d::new(
                format!("conv{}", i + 1),
                spec,
                WeightForm::Float,
                seed + i as u64,
            ))
            .push(BatchNorm::new(format!("bn_conv{}", i + 1), conv.c_out))
            .push(Relu::new(format!("relu_conv{}", i + 1)));
        if conv.pool_after {
            pool_idx += 1;
            net = net.push(MaxPool2d::two_by_two(format!("pool{pool_idx}")));
        }
    }
    net = net.push(Flatten::new("flatten"));
    let n_fc = arch.fcs.len();
    for (i, fc) in arch.fcs.iter().enumerate() {
        net = net.push(Linear::new(
            format!("fc{}", i + 1),
            fc.f_in,
            fc.f_out,
            WeightForm::Float,
            i + 1 == n_fc, // bias only on the logits layer
            seed + 100 + i as u64,
        ));
        if i + 1 < n_fc {
            net = net
                .push(BatchNorm::new(format!("bn_fc{}", i + 1), fc.f_out))
                .push(Relu::new(format!("relu_fc{}", i + 1)));
        }
    }
    net
}

/// An untrained but deployable network: `build_bnn(arch, seed)` with its
/// batch-norm running statistics filled by one `Mode::Train` forward over
/// two uniform frames in [-1, 1) drawn from `input_seed`. Benches, `bcp
/// info` and tests deploy it wherever the weights do not matter.
pub fn untrained_bnn(arch: &Arch, seed: u64, input_seed: u64) -> Sequential {
    let mut net = build_bnn(arch, seed);
    let s = arch.input_size;
    let x = bcp_tensor::init::uniform(bcp_tensor::Shape::nchw(2, 3, s, s), -1.0, 1.0, input_seed);
    let _ = net.forward(&x, bcp_nn::Mode::Train);
    net
}

/// [`untrained_bnn`], deployed.
pub fn untrained_predictor(arch: &Arch, seed: u64, input_seed: u64) -> BinaryCoP {
    BinaryCoP::from_trained(&untrained_bnn(arch, seed, input_seed), arch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchKind;
    use bcp_nn::Mode;
    use bcp_tensor::init::uniform;
    use bcp_tensor::Shape;

    #[test]
    fn cnv_forward_shape() {
        let mut net = build_bnn(&ArchKind::Cnv.arch(), 0);
        let x = uniform(Shape::nchw(2, 3, 32, 32), -1.0, 1.0, 1);
        let y = net.forward(&x, Mode::Eval);
        assert_eq!(y.shape().dims(), &[2, 4]);
    }

    #[test]
    fn ncnv_and_micro_forward_shape() {
        for kind in [ArchKind::NCnv, ArchKind::MicroCnv] {
            let mut net = build_bnn(&kind.arch(), 0);
            let x = uniform(Shape::nchw(1, 3, 32, 32), -1.0, 1.0, 2);
            let y = net.forward(&x, Mode::Eval);
            assert_eq!(y.shape().dims(), &[1, 4], "{kind:?}");
        }
    }

    #[test]
    fn fp32_forward_shape() {
        let mut net = build_fp32(&ArchKind::NCnv.arch(), 3);
        let x = uniform(Shape::nchw(1, 3, 32, 32), -1.0, 1.0, 4);
        let y = net.forward(&x, Mode::Eval);
        assert_eq!(y.shape().dims(), &[1, 4]);
    }

    #[test]
    fn bnn_param_count_matches_arch_weights() {
        // Trainable params = latent conv/FC weights + batch-norm affines.
        let arch = ArchKind::NCnv.arch();
        let mut net = build_bnn(&arch, 0);
        let weights = arch.weight_bits() as usize;
        let bn: usize = arch.convs.iter().map(|c| 2 * c.c_out).sum::<usize>()
            + arch
                .fcs
                .iter()
                .take(arch.fcs.len() - 1)
                .map(|f| 2 * f.f_out)
                .sum::<usize>();
        assert_eq!(net.param_count(), weights + bn);
    }

    #[test]
    fn networks_are_trainable_backward_runs() {
        let mut net = build_bnn(&ArchKind::MicroCnv.arch(), 1);
        let x = uniform(Shape::nchw(2, 3, 32, 32), -1.0, 1.0, 5);
        let y = net.forward(&x, Mode::Train);
        let dy = bcp_tensor::Tensor::ones(y.shape().clone());
        let dx = net.backward(&dy);
        assert_eq!(dx.shape(), x.shape());
        let mut nonzero = 0usize;
        net.visit_params(&mut |p| {
            nonzero += p.grad.as_slice().iter().filter(|v| **v != 0.0).count()
        });
        assert!(nonzero > 0, "gradients must reach the parameters");
    }

    #[test]
    fn conv2_2_layer_exists_for_gradcam() {
        // The paper's Grad-CAM target: the 4th conv (conv2_2 → our conv4)
        // output has 5×5 spatial extent after its pool... conv4 output is
        // 10×10 pre-pool; the 5×5 map the paper cites is post-pool. Both
        // are reachable by name.
        let mut net = build_bnn(&ArchKind::Cnv.arch(), 0);
        assert!(net.index_of("conv4").is_some());
        assert!(net.index_of("pool2").is_some());
        let x = uniform(Shape::nchw(1, 3, 32, 32), -1.0, 1.0, 6);
        let outs = net.forward_collect(&x, Mode::Eval);
        let pool2 = net.index_of("pool2").unwrap();
        assert_eq!(outs[pool2].shape().dims(), &[1, 128, 5, 5]);
    }

    #[test]
    fn scaled_variant_builds_and_runs() {
        let arch = crate::recipe::tiny_arch();
        let mut net = build_bnn_with(
            &arch,
            1,
            ModelOptions {
                weights: WeightForm::ScaledSign,
                input: InputMode::FixedPoint8,
            },
        );
        let x = uniform(Shape::nchw(1, 3, 16, 16), -1.0, 1.0, 2);
        let y = net.forward(&x, Mode::Train);
        assert_eq!(y.shape().dims(), &[1, 4]);
        // Scaled conv accumulators are generally non-integer (α scaling).
        let outs = net.forward_collect(&x, Mode::Eval);
        let conv1 = net.index_of("conv1").unwrap();
        let any_noninteger = outs[conv1]
            .as_slice()
            .iter()
            .any(|&v| (v - v.round()).abs() > 1e-4);
        assert!(any_noninteger, "scaled weights should break integrality");
    }

    #[test]
    fn binary_input_variant_binarizes_pixels() {
        let arch = crate::recipe::tiny_arch();
        let mut net = build_bnn_with(
            &arch,
            1,
            ModelOptions {
                weights: WeightForm::Sign,
                input: InputMode::Binary,
            },
        );
        assert_eq!(net.index_of("sign_input"), Some(0));
        let x = uniform(Shape::nchw(1, 3, 16, 16), -1.0, 1.0, 3);
        let outs = net.forward_collect(&x, Mode::Eval);
        for &v in outs[0].as_slice() {
            assert!(v == 1.0 || v == -1.0);
        }
        // With binary inputs AND binary weights, conv1 accumulators are
        // integers — the fully-binary datapath.
        let conv1 = net.index_of("conv1").unwrap();
        for &v in outs[conv1].as_slice() {
            assert_eq!(v, v.round());
        }
    }

    #[test]
    fn sign_layers_emit_binary_maps() {
        let mut net = build_bnn(&ArchKind::NCnv.arch(), 2);
        let x = uniform(Shape::nchw(1, 3, 32, 32), 0.0, 1.0, 7);
        let outs = net.forward_collect(&x, Mode::Eval);
        let idx = net.index_of("sign_conv3").unwrap();
        for &v in outs[idx].as_slice() {
            assert!(v == 1.0 || v == -1.0);
        }
    }
}
