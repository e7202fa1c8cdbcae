//! Target SoC resource budgets.

use serde::{Deserialize, Serialize};

/// An FPGA device's programmable-logic budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Device {
    /// Marketing name.
    pub name: &'static str,
    /// 6-input LUTs.
    pub luts: u64,
    /// 18 Kb block-RAM units (a 36 Kb BRAM counts as two).
    pub bram18: u64,
    /// DSP48 slices.
    pub dsps: u64,
}

/// Xilinx Zynq XC7Z020 — the paper's main target (Sec. IV-A).
pub const Z7020: Device = Device {
    name: "XC7Z020",
    luts: 53_200,
    bram18: 280,
    dsps: 220,
};

/// Xilinx Zynq XC7Z010 — the constrained target μ-CNV fits after DSP
/// offloading (Sec. IV-A, OrthrusPE — paper ref 27).
pub const Z7010: Device = Device {
    name: "XC7Z010",
    luts: 17_600,
    bram18: 120,
    dsps: 80,
};

/// A design's estimated resource usage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ResourceUsage {
    /// LUT count.
    pub luts: u64,
    /// 18 Kb BRAM count.
    pub bram18: u64,
    /// DSP slice count.
    pub dsps: u64,
}

impl ResourceUsage {
    /// Componentwise sum.
    #[allow(clippy::should_implement_trait)] // a named helper, not operator overloading
    pub fn add(self, other: ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            luts: self.luts.saturating_add(other.luts),
            bram18: self.bram18.saturating_add(other.bram18),
            dsps: self.dsps.saturating_add(other.dsps),
        }
    }
}

impl Device {
    /// Whether a design fits this device.
    pub fn fits(&self, usage: &ResourceUsage) -> bool {
        usage.luts <= self.luts && usage.bram18 <= self.bram18 && usage.dsps <= self.dsps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z7010_smaller_than_z7020() {
        // Read through locals so the comparison isn't const-folded away by
        // the lint (the point is documenting the device relationship).
        let (a, b) = (Z7010, Z7020);
        assert!(a.luts < b.luts);
        assert!(a.bram18 < b.bram18);
        assert!(a.dsps < b.dsps);
    }

    #[test]
    fn fits_checks_every_resource() {
        let ok = ResourceUsage {
            luts: 10_000,
            bram18: 20,
            dsps: 10,
        };
        assert!(Z7010.fits(&ok));
        assert!(!Z7010.fits(&ResourceUsage { luts: 20_000, ..ok }));
        assert!(!Z7010.fits(&ResourceUsage { bram18: 200, ..ok }));
        assert!(!Z7010.fits(&ResourceUsage { dsps: 100, ..ok }));
    }

    #[test]
    fn paper_table2_fits_claims() {
        // Table II utilizations: CNV fits Z7020 but not Z7010; μ-CNV fits
        // Z7010 by LUTs.
        let cnv = ResourceUsage {
            luts: 26_060,
            bram18: 124,
            dsps: 24,
        };
        let ucnv = ResourceUsage {
            luts: 11_738,
            bram18: 14,
            dsps: 27,
        };
        assert!(Z7020.fits(&cnv));
        assert!(!Z7010.fits(&cnv));
        assert!(Z7010.fits(&ucnv));
    }

    #[test]
    fn usage_add() {
        let a = ResourceUsage {
            luts: 1,
            bram18: 2,
            dsps: 3,
        };
        let b = ResourceUsage {
            luts: 10,
            bram18: 20,
            dsps: 30,
        };
        assert_eq!(
            a.add(b),
            ResourceUsage {
                luts: 11,
                bram18: 22,
                dsps: 33
            }
        );
    }
}
