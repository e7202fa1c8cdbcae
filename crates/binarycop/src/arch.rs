//! The Table I architectures and their hardware dimensioning.
//!
//! [`Arch`] itself is defined in `bcp-check` (the lowest crate that reads
//! one: the checker lays it out, this crate builds networks and pipelines
//! from it); this module names the paper's three prototypes.

pub use bcp_check::{Arch, ConvLayer, FcLayer, CLASSES, K};
use serde::{Deserialize, Serialize};

/// Which BinaryCoP prototype (Sec. IV-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArchKind {
    /// The full CNV (VGG/BinaryNet derived).
    Cnv,
    /// Narrow CNV (smaller memory footprint).
    NCnv,
    /// μ-CNV: one conv layer fewer, fits the Z7010 after DSP offload.
    MicroCnv,
}

impl ArchKind {
    /// All prototypes in Table I order.
    pub const ALL: [ArchKind; 3] = [ArchKind::Cnv, ArchKind::NCnv, ArchKind::MicroCnv];

    /// The architecture description.
    pub fn arch(self) -> Arch {
        match self {
            ArchKind::Cnv => Arch {
                name: "CNV".into(),
                input_size: 32,
                convs: vec![
                    ConvLayer {
                        c_in: 3,
                        c_out: 64,
                        pool_after: false,
                    },
                    ConvLayer {
                        c_in: 64,
                        c_out: 64,
                        pool_after: true,
                    },
                    ConvLayer {
                        c_in: 64,
                        c_out: 128,
                        pool_after: false,
                    },
                    ConvLayer {
                        c_in: 128,
                        c_out: 128,
                        pool_after: true,
                    },
                    ConvLayer {
                        c_in: 128,
                        c_out: 256,
                        pool_after: false,
                    },
                    ConvLayer {
                        c_in: 256,
                        c_out: 256,
                        pool_after: false,
                    },
                ],
                fcs: vec![
                    FcLayer {
                        f_in: 256,
                        f_out: 512,
                    },
                    FcLayer {
                        f_in: 512,
                        f_out: 512,
                    },
                    FcLayer {
                        f_in: 512,
                        f_out: CLASSES,
                    },
                ],
                pe: vec![16, 32, 16, 16, 4, 1, 1, 1, 4],
                simd: vec![3, 32, 32, 32, 32, 32, 4, 8, 1],
                dsp_offload: false,
            },
            ArchKind::NCnv => Arch {
                name: "n-CNV".into(),
                input_size: 32,
                convs: vec![
                    ConvLayer {
                        c_in: 3,
                        c_out: 16,
                        pool_after: false,
                    },
                    ConvLayer {
                        c_in: 16,
                        c_out: 16,
                        pool_after: true,
                    },
                    ConvLayer {
                        c_in: 16,
                        c_out: 32,
                        pool_after: false,
                    },
                    ConvLayer {
                        c_in: 32,
                        c_out: 32,
                        pool_after: true,
                    },
                    ConvLayer {
                        c_in: 32,
                        c_out: 64,
                        pool_after: false,
                    },
                    ConvLayer {
                        c_in: 64,
                        c_out: 64,
                        pool_after: false,
                    },
                ],
                fcs: vec![
                    FcLayer {
                        f_in: 64,
                        f_out: 128,
                    },
                    FcLayer {
                        f_in: 128,
                        f_out: 128,
                    },
                    FcLayer {
                        f_in: 128,
                        f_out: CLASSES,
                    },
                ],
                pe: vec![16, 16, 16, 16, 4, 1, 1, 1, 1],
                simd: vec![3, 16, 16, 32, 32, 32, 4, 8, 1],
                dsp_offload: false,
            },
            ArchKind::MicroCnv => Arch {
                name: "μ-CNV".into(),
                input_size: 32,
                convs: vec![
                    ConvLayer {
                        c_in: 3,
                        c_out: 16,
                        pool_after: false,
                    },
                    ConvLayer {
                        c_in: 16,
                        c_out: 16,
                        pool_after: true,
                    },
                    ConvLayer {
                        c_in: 16,
                        c_out: 32,
                        pool_after: false,
                    },
                    ConvLayer {
                        c_in: 32,
                        c_out: 32,
                        pool_after: true,
                    },
                    ConvLayer {
                        c_in: 32,
                        c_out: 64,
                        pool_after: false,
                    },
                ],
                fcs: vec![
                    FcLayer {
                        f_in: 576,
                        f_out: 128,
                    },
                    FcLayer {
                        f_in: 128,
                        f_out: CLASSES,
                    },
                ],
                pe: vec![4, 4, 4, 4, 1, 1, 1],
                simd: vec![3, 16, 16, 32, 32, 16, 1],
                dsp_offload: true,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcp_finn::{Folding, StageKind};

    #[test]
    fn all_archs_validate() {
        for kind in ArchKind::ALL {
            kind.arch().validate();
            assert!(kind.arch().try_validate().is_ok());
        }
    }

    #[test]
    fn try_validate_reports_typed_diagnostics() {
        let mut a = ArchKind::NCnv.arch();
        a.convs[2].c_in = 99; // break the channel chain
        a.fcs[2].f_out = 7; // and the head width
        let diags = a.try_validate().unwrap_err();
        assert!(diags
            .iter()
            .any(|d| d.code == bcp_check::Code::ConvChainMismatch
                && d.location == "n-CNV.convs[2].c_in"));
        assert!(diags
            .iter()
            .any(|d| d.code == bcp_check::Code::HeadWidthMismatch));
    }

    #[test]
    #[should_panic(expected = "BCP003")]
    fn validate_panics_with_rendered_diagnostics() {
        let mut a = ArchKind::Cnv.arch();
        a.fcs[0].f_in = 300; // flatten mismatch
        a.validate();
    }

    #[test]
    fn prototypes_target_paper_devices() {
        assert_eq!(ArchKind::MicroCnv.arch().target_device().name, "XC7Z010");
        assert_eq!(ArchKind::NCnv.arch().target_device().name, "XC7Z020");
        assert_eq!(ArchKind::Cnv.arch().target_device().name, "XC7Z020");
    }

    #[test]
    fn cnv_matches_table1() {
        let a = ArchKind::Cnv.arch();
        assert_eq!(a.convs.len(), 6);
        assert_eq!(a.fcs.len(), 3);
        assert_eq!(a.convs[0].c_out, 64);
        assert_eq!(a.convs[5].c_out, 256);
        assert_eq!(a.fcs[2].f_out, 4);
        assert_eq!(a.pe, vec![16, 32, 16, 16, 4, 1, 1, 1, 4]);
        assert_eq!(a.simd, vec![3, 32, 32, 32, 32, 32, 4, 8, 1]);
    }

    /// Output extent of every conv stage of the plan, and fc1's fan-in.
    fn conv_extents_and_flat(a: &Arch) -> (Vec<usize>, usize) {
        let plan = a.plan();
        let outs = plan
            .iter()
            .filter(|p| matches!(p.kind, StageKind::ConvFixed | StageKind::ConvBinary))
            .map(|p| p.out_dims().1)
            .collect();
        let fc1 = plan.iter().find(|p| p.name == "fc1").unwrap();
        (outs, fc1.cols)
    }

    #[test]
    fn spatial_plan_matches_paper_geometry() {
        // 32 → 30 → 28 →(pool)14 → 12 → 10 →(pool)5 → 3 → 1.
        let (outs, flat) = conv_extents_and_flat(&ArchKind::Cnv.arch());
        assert_eq!(outs, vec![30, 28, 12, 10, 3, 1]);
        assert_eq!(flat, 256);
        // μ-CNV stops one conv earlier: 3×3×64 = 576 flat features — the
        // "larger spatial dimension before the fully-connected layers"
        // trade-off Sec. IV-B describes.
        let (outs, flat) = conv_extents_and_flat(&ArchKind::MicroCnv.arch());
        assert_eq!(outs, vec![30, 28, 12, 10, 3]);
        assert_eq!(flat, 576);
    }

    #[test]
    fn micro_cnv_has_more_weights_than_ncnv_head() {
        // Sec. IV-B: "the trade-off is a slight increase in the memory
        // footprint of the BNN" for μ-CNV relative to n-CNV.
        let n = ArchKind::NCnv.arch().weight_bits();
        let u = ArchKind::MicroCnv.arch().weight_bits();
        let c = ArchKind::Cnv.arch().weight_bits();
        assert!(u > n, "μ-CNV {u} bits should exceed n-CNV {n} bits");
        assert!(c > 10 * n, "CNV should dwarf both");
    }

    #[test]
    fn weight_bits_known_values() {
        // Hand-computed from Table I.
        assert_eq!(ArchKind::Cnv.arch().weight_bits(), 1_539_776);
        assert_eq!(ArchKind::NCnv.arch().weight_bits(), 96_944);
        assert_eq!(ArchKind::MicroCnv.arch().weight_bits(), 109_232);
    }

    #[test]
    fn layer_dims_cover_all_compute_layers() {
        for kind in ArchKind::ALL {
            let a = kind.arch();
            let plan = a.plan();
            let layers: Vec<_> = plan.iter().filter(|p| p.is_compute()).collect();
            assert_eq!(layers.len(), a.pe.len());
            // Every published folding divides its matrix exactly.
            for (i, l) in layers.iter().enumerate() {
                assert_eq!((l.pe, l.simd), (a.pe[i], a.simd[i]), "{}", l.name);
                assert!(
                    Folding::new(l.pe, l.simd).is_exact(l.rows, l.cols),
                    "{} layer {} ({}×{}) vs PE={} SIMD={}",
                    a.name,
                    l.name,
                    l.rows,
                    l.cols,
                    l.pe,
                    l.simd
                );
            }
        }
    }
}
