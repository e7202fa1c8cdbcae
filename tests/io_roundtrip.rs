//! Cross-crate I/O round-trips: the PPM writer (`bcp-gradcam::render`),
//! the PPM reader (`bcp-dataset::ppm`), the figure-artifact writer and the
//! deployment CLI's preprocessing must all agree on the image format.

use bcp_dataset::generator::{generate_sample, GeneratorConfig};
use bcp_dataset::ppm::{decode_ppm, resize_to};
use bcp_dataset::MaskClass;
use bcp_gradcam::render::image_ppm;
use bcp_nn::Sequential;
use binarycop::experiments::{figure_rows, gradcam_figure_ppms};

#[test]
fn generated_face_survives_ppm_roundtrip() {
    let cfg = GeneratorConfig::default();
    for (i, class) in MaskClass::ALL.into_iter().enumerate() {
        let (img, _) = generate_sample(&cfg, class, 100 + i as u64);
        let bytes = image_ppm(&img);
        let back = decode_ppm(&bytes).expect("own PPM output must parse");
        assert_eq!(back, img, "PPM round-trip must be lossless on the u8 grid");
    }
}

#[test]
fn resized_camera_frame_feeds_the_predictor() {
    // A 96×96 "camera" frame of a generated face, resized by the CLI path
    // to 32×32, must classify without panicking and deterministically.
    let big_cfg = GeneratorConfig {
        img_size: 96,
        supersample: 1,
    };
    let (frame, _) = generate_sample(&big_cfg, MaskClass::NoseExposed, 7);
    let bytes = image_ppm(&frame);
    let decoded = decode_ppm(&bytes).unwrap();
    let sized = resize_to(&decoded, 32);
    assert_eq!(sized.shape().dims(), &[3, 32, 32]);

    let arch = binarycop::arch::ArchKind::MicroCnv.arch();
    let predictor = binarycop::model::untrained_predictor(&arch, 1, 2);
    let a = predictor.classify(&sized);
    let b = predictor.classify(&sized);
    assert_eq!(a, b);
}

#[test]
fn figure_ppm_artifacts_are_valid_ppm_files() {
    let arch = binarycop::recipe::tiny_arch();
    let mut net = binarycop::model::untrained_bnn(&arch, 3, 4);
    let dir = std::env::temp_dir().join("bcp_io_roundtrip_figs");
    let mut models: Vec<(&str, &mut Sequential, &str)> = vec![("tiny", &mut net, "conv3")];
    let files = gradcam_figure_ppms(5, 16, 9, &mut models, &dir).expect("artifact writing");
    // 3 rows × (raw + 1 model overlay) = 6 files.
    assert_eq!(files.len(), 6);
    for f in &files {
        let bytes = std::fs::read(f).unwrap();
        let img = decode_ppm(&bytes).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
        assert_eq!(img.shape().dims(), &[3, 16, 16]);
        std::fs::remove_file(f).ok();
    }
    std::fs::remove_dir(&dir).ok();
}

#[test]
fn figure_inputs_match_their_declared_classes_geometrically() {
    // Every Grad-CAM figure row's rendered image is regenerable and its
    // declared class is one of the four; the mask geometry consistency is
    // enforced inside figure_rows (it asserts coverage), so reaching here
    // means all 7 figures passed it at this size too.
    for fig in 3..=9u8 {
        let (_, rows) = figure_rows(fig, 16, 21);
        for row in rows {
            assert!(MaskClass::ALL.contains(&row.class));
            assert_eq!(row.image.shape().dims(), &[3, 16, 16]);
        }
    }
}
