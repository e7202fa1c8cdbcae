//! Grad-CAM interpretability walkthrough (Sec. III-C / IV-C).
//!
//! Trains a reduced n-CNV, then reproduces the structure of the paper's
//! Figs. 3–9 in ASCII: for each class and each generalization probe (age,
//! hair/headgear, face manipulation), show where the BNN looks.
//!
//! ```sh
//! cargo run --release --example gradcam_analysis            # figs 3,7,9
//! cargo run --release --example gradcam_analysis -- 4       # one figure
//! ```

use bcp_nn::Sequential;
use binarycop::arch::ArchKind;
use binarycop::experiments::gradcam_figure_report;
use binarycop::recipe::{run, Recipe};

fn main() {
    let figures: Vec<u8> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("figure number 3–9"))
        .collect();
    let figures = if figures.is_empty() {
        vec![3, 7, 9]
    } else {
        figures
    };

    let recipe = Recipe {
        train_per_class: 80,
        augment_copies: 0,
        test_per_class: 20,
        epochs: 8,
        ..Recipe::quick(ArchKind::NCnv)
    };
    println!("training n-CNV for Grad-CAM analysis …");
    let model = run(&recipe, None, |s| {
        println!("  epoch {:>2}: loss {:.4}", s.epoch, s.loss);
    });
    println!("test accuracy {:.1}%\n", model.test_accuracy * 100.0);

    let mut net = model.net;
    for fig in figures {
        // conv4 = the paper's conv2_2 Grad-CAM target layer.
        let mut models: Vec<(&str, &mut Sequential, &str)> =
            vec![("BCoP-n-CNV", &mut net, "conv4")];
        println!(
            "{}",
            gradcam_figure_report(fig, 32, 1000 + fig as u64, &mut models)
        );
    }
    println!(
        "legend: ' .:-=+*#%@' from cold to hot; centroids are (row, col) of \
         the attention mass.\nThe paper's qualitative claim: BNN attention \
         concentrates on the class-decisive region (nose line, chin, mask \
         top edge) and is robust to hair/headgear/manipulation confusers."
    );
}
