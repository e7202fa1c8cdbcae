//! PE × SIMD folding arithmetic.
//!
//! Each MVTU multiplies a `rows × cols` binary matrix (rows = output
//! neurons, cols = fan-in synapses) against a stream of input vectors.
//! With `pe` processing elements and `simd` lanes per PE, one input vector
//! takes `⌈rows/pe⌉ · ⌈cols/simd⌉` cycles — the *fold*. A convolution's
//! MVTU processes one vector per output pixel, so its per-frame cycle count
//! is `fold · OH · OW`. The slowest stage sets the pipeline's initiation
//! interval (Sec. III-B: "a single under-dimensioned MVTU could throttle
//! the entire pipeline").

use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a folding is unconstructible (see [`Folding::try_new`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FoldingError {
    /// `pe == 0`.
    ZeroPe,
    /// `simd == 0`.
    ZeroSimd,
}

impl fmt::Display for FoldingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FoldingError::ZeroPe => write!(f, "folding factors must be positive (pe = 0)"),
            FoldingError::ZeroSimd => write!(f, "folding factors must be positive (simd = 0)"),
        }
    }
}

impl std::error::Error for FoldingError {}

/// An MVTU dimensioning choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Folding {
    /// Processing elements (output-neuron parallelism).
    pub pe: usize,
    /// SIMD lanes per PE (synapse parallelism).
    pub simd: usize,
}

impl Folding {
    /// New folding; both factors must be positive. Panicking wrapper around
    /// [`Folding::try_new`] for call sites with known-good constants.
    pub fn new(pe: usize, simd: usize) -> Self {
        match Self::try_new(pe, simd) {
            Ok(f) => f,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: static analyzers (`bcp-check`) route this error
    /// into a diagnostic instead of dying mid-pipeline.
    pub fn try_new(pe: usize, simd: usize) -> Result<Self, FoldingError> {
        if pe == 0 {
            return Err(FoldingError::ZeroPe);
        }
        if simd == 0 {
            return Err(FoldingError::ZeroSimd);
        }
        Ok(Folding { pe, simd })
    }

    /// Fully sequential (1 PE, 1 lane).
    pub fn sequential() -> Self {
        Folding { pe: 1, simd: 1 }
    }

    /// Cycles to process one input vector of a `rows × cols` matrix;
    /// `None` when the count overflows `u64`.
    pub fn fold(&self, rows: usize, cols: usize) -> Option<u64> {
        (rows.div_ceil(self.pe) as u64).checked_mul(cols.div_ceil(self.simd) as u64)
    }

    /// Cycles per frame for an MVTU fed `vectors` input vectors
    /// (`OH·OW` for conv layers, 1 for dense layers) — the one copy of the
    /// Sec. III-B formula; `None` when the count overflows `u64`.
    pub fn cycles_per_frame(&self, rows: usize, cols: usize, vectors: usize) -> Option<u64> {
        self.fold(rows, cols)?.checked_mul(vectors as u64)
    }

    /// Hardware parallelism (synapse ops per cycle).
    pub fn parallelism(&self) -> u64 {
        (self.pe as u64).saturating_mul(self.simd as u64)
    }

    /// Whether the folding divides the matrix exactly (no padding waste).
    pub fn is_exact(&self, rows: usize, cols: usize) -> bool {
        rows.is_multiple_of(self.pe) && cols.is_multiple_of(self.simd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_exact_division() {
        let f = Folding::new(16, 32);
        // 64 rows / 16 PE = 4; 576 cols / 32 SIMD = 18.
        assert_eq!(f.fold(64, 576), Some(72));
        assert!(f.is_exact(64, 576));
    }

    #[test]
    fn fold_rounds_up_on_ragged_division() {
        let f = Folding::new(16, 32);
        assert_eq!(f.fold(65, 576), Some(5 * 18));
        assert!(!f.is_exact(65, 576));
    }

    #[test]
    fn sequential_fold_is_matrix_size() {
        let f = Folding::sequential();
        assert_eq!(f.fold(10, 20), Some(200));
    }

    #[test]
    fn conv_cycles_scale_with_output_pixels() {
        let f = Folding::new(4, 8);
        assert_eq!(
            f.cycles_per_frame(32, 144, 12 * 12),
            f.fold(32, 144).map(|fold| fold * 144)
        );
    }

    #[test]
    fn doubling_pe_halves_cycles_when_divisible() {
        let rows = 64;
        let cols = 128;
        let a = Folding::new(4, 8).fold(rows, cols).unwrap();
        let b = Folding::new(8, 8).fold(rows, cols).unwrap();
        assert_eq!(a, 2 * b);
    }

    #[test]
    fn paper_ncnv_bottleneck_supports_6400_fps() {
        // n-CNV (Table I): with the published PE/SIMD vectors the slowest
        // stage folds must allow ~6400 frames/s at 100 MHz, i.e. II ≲
        // 100e6/6400 ≈ 15 625 cycles. Check the widest conv stage:
        // conv2_2: 32×32 input chans→rows=32? rows=C_out=32, cols=32·9=288,
        // 10×10 outputs, PE=16 SIMD=32 → fold=2·9=18 → 1800 cycles.
        let f = Folding::new(16, 32);
        assert!(f.cycles_per_frame(32, 288, 100).unwrap() <= 15_625);
        // conv1_2: rows=16, cols=144, 28×28 outputs, PE=16 SIMD=16 →
        // fold=1·9=9 → 7056 cycles.
        let f = Folding::new(16, 16);
        assert!(f.cycles_per_frame(16, 144, 28 * 28).unwrap() <= 15_625);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_folding_rejected() {
        Folding::new(0, 4);
    }

    #[test]
    fn try_new_reports_which_factor_is_zero() {
        assert_eq!(Folding::try_new(0, 4), Err(FoldingError::ZeroPe));
        assert_eq!(Folding::try_new(4, 0), Err(FoldingError::ZeroSimd));
        assert_eq!(Folding::try_new(0, 0), Err(FoldingError::ZeroPe));
        assert_eq!(Folding::try_new(2, 3), Ok(Folding { pe: 2, simd: 3 }));
    }

    #[test]
    fn non_exact_cycles_per_frame_pinned() {
        // Ceiling-division audit (ISSUE 2): every non-exact fold must round
        // *up* — the padded rows/cols still occupy hardware cycles. Pin the
        // exact cycle counts so a future regression to floor division fails.
        let f = Folding::new(16, 32);
        // 65 rows → 5 PE passes (not 4), 100 cols → 4 SIMD passes (not 3).
        assert_eq!(f.fold(65, 100), Some(5 * 4));
        assert_eq!(f.cycles_per_frame(65, 100, 49), Some(5 * 4 * 49));
        // One row / one col over an exact boundary costs a whole extra pass.
        assert_eq!(f.fold(64, 576), Some(4 * 18));
        assert_eq!(f.fold(65, 576), Some(5 * 18));
        assert_eq!(f.fold(64, 577), Some(4 * 19));
        // Folding wider than the matrix clamps to a single pass.
        assert_eq!(Folding::new(128, 1024).fold(64, 576), Some(1));
        // Prime dims never divide: 7×13 under 4×4 → ⌈7/4⌉·⌈13/4⌉ = 2·4.
        assert_eq!(
            Folding::new(4, 4).cycles_per_frame(7, 13, 3),
            Some(2 * 4 * 3)
        );
    }
}
