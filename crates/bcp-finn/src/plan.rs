//! Stage geometry: the one per-stage description every model reads.
//!
//! The paper dimensions a prototype with one column of Table I — `[C_in,
//! C_out]` per layer plus a PE and a SIMD count — and FINN derives cycles
//! and LUT/BRAM cost from that tuple alone. A [`StagePlan`] is that tuple
//! made concrete for one hardware stage: the MVTU matrix (`rows × cols`),
//! the input vectors it sees per frame, its folding, and the window and
//! input extent needed to build the stage. Exactly two functions produce
//! one — the checker's walk over an architecture
//! (`bcp_check::infer_shapes`, before any weights exist) and
//! [`Stage::plan`](crate::Stage::plan) (from a built stage) — and the
//! timing model, the DSE, the resource estimator, the static analyses and
//! `binarycop::deploy` consume it as-is.

use crate::folding::Folding;
use crate::swu::out_dim;

/// What kind of hardware stage a [`StagePlan`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageKind {
    /// First conv: fixed-point input MVTU (accumulators scale ×255).
    ConvFixed,
    /// Hidden conv: binary MVTU.
    ConvBinary,
    /// Boolean-OR 2×2 pool.
    Pool,
    /// Hidden dense layer.
    DenseBinary,
    /// Final dense layer emitting logits.
    DenseLogits,
}

/// One hardware stage's geometry and folding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StagePlan {
    /// Stage name (`conv1`, `pool2`, `fc3`, …).
    pub name: String,
    /// Stage kind.
    pub kind: StageKind,
    /// MVTU matrix rows (output neurons); 0 for pool stages.
    pub rows: usize,
    /// MVTU matrix cols (fan-in); 0 for pool stages.
    pub cols: usize,
    /// Input vectors per frame (conv windows / 1 for dense); for pool
    /// stages this is the *output* pixel count (its cycles/frame).
    pub vectors: usize,
    /// PE count (1 for pool stages).
    pub pe: usize,
    /// SIMD lanes (1 for pool stages).
    pub simd: usize,
    /// Window edge: the conv kernel or the pool stride; 1 for dense stages.
    pub k: usize,
    /// Input (channels, height, width); `(fan-in, 1, 1)` for dense stages.
    pub in_dims: (usize, usize, usize),
}

impl StagePlan {
    /// Whether this stage contains an MVTU (pool stages do not).
    pub fn is_compute(&self) -> bool {
        self.kind != StageKind::Pool
    }

    /// Weight-memory bits (0 for pool stages).
    pub fn weight_bits(&self) -> u64 {
        (self.rows as u64).saturating_mul(self.cols as u64)
    }

    /// Cycles per frame under the planned folding (Sec. III-B), `None` on
    /// a zero folding factor (`BCP010`) or when the count overflows `u64`.
    /// Pool stages take one cycle per output pixel.
    pub fn cycles_per_frame(&self) -> Option<u64> {
        if !self.is_compute() {
            return Some(self.vectors as u64);
        }
        Folding::try_new(self.pe, self.simd).ok()?.cycles_per_frame(
            self.rows,
            self.cols,
            self.vectors,
        )
    }

    /// Output (channels, height, width); dense stages report `(rows, 1, 1)`.
    pub fn out_dims(&self) -> (usize, usize, usize) {
        let (c, h, w) = self.in_dims;
        match self.kind {
            StageKind::ConvFixed | StageKind::ConvBinary => {
                (self.rows, out_dim(h, self.k), out_dim(w, self.k))
            }
            StageKind::Pool => (
                c,
                h.checked_div(self.k).unwrap_or(0),
                w.checked_div(self.k).unwrap_or(0),
            ),
            StageKind::DenseBinary | StageKind::DenseLogits => (self.rows, 1, 1),
        }
    }

    /// Declared input element count (for chain validation).
    pub fn in_count(&self) -> usize {
        let (c, h, w) = self.in_dims;
        c.saturating_mul(h).saturating_mul(w)
    }
}
