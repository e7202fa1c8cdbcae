//! Evaluation helpers: accuracy and the Fig. 2 confusion matrix, of the
//! float training graph and of the deployed integer pipeline.

use crate::arch::Arch;
use crate::predictor::BinaryCoP;
use bcp_dataset::{Dataset, MaskClass};
use bcp_nn::metrics::{predictions, ConfusionMatrix};
use bcp_nn::train::{evaluate, gather_batch};
use bcp_nn::{Mode, Sequential};

/// Evaluate a network on a dataset (eval mode, batched); returns accuracy
/// and the 4-class confusion matrix.
pub fn confusion_matrix(
    net: &mut Sequential,
    ds: &Dataset,
    batch_size: usize,
) -> (f32, ConfusionMatrix) {
    let mut cm = ConfusionMatrix::new(4);
    let images = ds.normalized_images();
    let acc = evaluate(net, &images, &ds.labels, batch_size, Some(&mut cm));
    (acc, cm)
}

/// What the accelerator answers on a test set, beside what the training
/// graph answers on the same frames.
pub struct DeployedEval {
    /// Confusion matrix of the integer pipeline (the accuracy the paper
    /// reports is this one's).
    pub confusion: ConfusionMatrix,
    /// Test frames on which the float network and the pipeline predict the
    /// same class.
    pub agree: usize,
}

/// Deploy a trained BNN and evaluate the *integer pipeline* on `ds`
/// ([`BinaryCoP::classify_block`] in blocks of `block` frames), counting
/// the frames on which it agrees with the float network in eval mode.
pub fn deployed_confusion_matrix(
    net: &mut Sequential,
    arch: &Arch,
    ds: &Dataset,
    block: usize,
) -> DeployedEval {
    let predictor = BinaryCoP::from_trained(net, arch);
    let images = ds.normalized_images();
    let indices: Vec<usize> = (0..ds.len()).collect();
    let mut confusion = ConfusionMatrix::new(4);
    let mut agree = 0;
    for chunk in indices.chunks(block.max(1)) {
        let frames: Vec<_> = chunk.iter().map(|&i| ds.image(i)).collect();
        let deployed = predictor.classify_block(&frames);
        let float = predictions(&net.forward(&gather_batch(&images, chunk), Mode::Eval));
        for ((&i, class), float_label) in chunk.iter().zip(deployed).zip(float) {
            confusion.record(ds.labels[i], class.label());
            agree += usize::from(class.label() == float_label);
        }
    }
    DeployedEval { confusion, agree }
}

/// Render a confusion matrix in the paper's Fig. 2 layout, with the mask
/// class names on both axes.
pub fn render_fig2(cm: &ConfusionMatrix) -> String {
    let names: Vec<&str> = MaskClass::ALL.iter().map(|c| c.short_name()).collect();
    cm.render(&names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::build_bnn;
    use crate::recipe::tiny_arch;
    use bcp_dataset::GeneratorConfig;

    #[test]
    fn untrained_network_is_near_chance() {
        let arch = tiny_arch();
        let mut net = build_bnn(&arch, 1);
        let gen = GeneratorConfig {
            img_size: arch.input_size,
            supersample: 2,
        };
        let ds = Dataset::generate_balanced(&gen, 16, 3);
        let (acc, cm) = confusion_matrix(&mut net, &ds, 16);
        assert_eq!(cm.total(), 64);
        assert!((cm.accuracy() as f32 - acc).abs() < 1e-5);
        assert!(acc < 0.7, "untrained accuracy {acc} suspiciously high");
    }

    #[test]
    fn deployed_pipeline_answers_as_the_trained_network_does() {
        let mut model = crate::recipe::run(&crate::recipe::Recipe::test_scale(), None, |_| {});
        let frames = model.test_set.len();
        let deployed = deployed_confusion_matrix(&mut model.net, &model.arch, &model.test_set, 8);
        assert_eq!(deployed.confusion.total(), frames as u64);
        assert!(
            deployed.agree + 1 >= frames,
            "float and integer pipeline agree on {} of {frames} frames",
            deployed.agree
        );
    }

    #[test]
    fn fig2_rendering_uses_class_names() {
        let mut cm = ConfusionMatrix::new(4);
        cm.record(0, 0);
        cm.record(2, 3);
        let s = render_fig2(&cm);
        for name in ["Correct", "Nose", "N+M", "Chin"] {
            assert!(s.contains(name), "missing {name} in:\n{s}");
        }
    }
}
