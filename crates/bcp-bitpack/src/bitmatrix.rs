//! Row-major packed binary matrix.

use crate::bitvec64::{low_mask, words_for, BitVec64, WORD_BITS};
use serde::{Deserialize, Serialize};

/// A `rows × cols` matrix of ±1 entries, each row packed into its own run of
/// `u64` words (rows start word-aligned so row kernels can slice cheaply).
///
/// Padding bits at the end of each row are always zero.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// All-(−1) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let wpr = words_for(cols);
        BitMatrix {
            rows,
            cols,
            words_per_row: wpr,
            words: vec![0; rows.saturating_mul(wpr)],
        }
    }

    /// Build from row bit-vectors; all rows must share a length.
    pub fn from_rows(rows: &[BitVec64]) -> Self {
        assert!(!rows.is_empty(), "BitMatrix needs at least one row");
        let cols = rows[0].len();
        let mut m = BitMatrix::zeros(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "row {r} length mismatch");
            let dst = r.saturating_mul(m.words_per_row);
            m.words[dst..dst.saturating_add(m.words_per_row)].copy_from_slice(row.words());
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (valid bits per row).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Packed words per row (incl. padding).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Raw packed storage.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild from raw storage; validates dimensions and padding hygiene.
    pub fn from_words(rows: usize, cols: usize, words: Vec<u64>) -> Self {
        let wpr = words_for(cols);
        assert_eq!(
            words.len(),
            rows.saturating_mul(wpr),
            "word buffer size mismatch"
        );
        let m = BitMatrix {
            rows,
            cols,
            words_per_row: wpr,
            words,
        };
        let tail = cols % WORD_BITS;
        if tail != 0 {
            for (r, row) in m.words.chunks_exact(wpr).enumerate() {
                let last = row.last().copied().unwrap_or(0);
                assert!(
                    last & !low_mask(tail) == 0,
                    "row {r} has set padding bits beyond col {cols}"
                );
            }
        }
        m
    }

    /// Packed words of row `r`.
    #[inline]
    // Row-offset arithmetic is in range by construction (r < rows is asserted and
    // rows·words_per_row == words.len()); plain ops keep the accessor branch-free.
    #[allow(clippy::arithmetic_side_effects)]
    // bcp:hot-path — row slicing feeds every XNOR kernel inner product
    pub fn row_words(&self, r: usize) -> &[u64] {
        // audit: allow(panic): row bound is the accessor's contract; one compare per row, hoisted out of the word loop
        assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        // audit: allow(index): r < rows was just asserted, so the word range is in bounds by construction
        &self.words[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Element accessor (`true` = +1).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(c < self.cols, "col {c} out of range ({} cols)", self.cols);
        (self.row_words(r)[c / WORD_BITS] >> (c % WORD_BITS)) & 1 == 1
    }

    /// Element mutator.
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        assert!(r < self.rows && c < self.cols, "({r},{c}) out of range");
        let w = &mut self.words[r
            .saturating_mul(self.words_per_row)
            .saturating_add(c / WORD_BITS)];
        let m = 1u64 << (c % WORD_BITS);
        if value {
            *w |= m;
        } else {
            *w &= !m;
        }
    }

    /// Toggle one bit (fault-injection support).
    pub fn flip(&mut self, r: usize, c: usize) {
        let cur = self.get(r, c);
        self.set(r, c, !cur);
    }

    /// Copy row `r` out as a [`BitVec64`].
    pub fn row(&self, r: usize) -> BitVec64 {
        BitVec64::from_words(self.cols, self.row_words(r).to_vec())
    }

    /// Per-row CRC-32 integrity codes over the packed words (padding
    /// included — it is zero by construction, so the code is stable).
    /// Captured at deploy time and re-checked by the `bcp-guard` scrubber;
    /// detects every ≤3-bit corruption within a row with certainty (the
    /// CRC-32 polynomial's distance is ≥ 4 below 91 607 bits).
    pub fn row_checksums(&self) -> Vec<u32> {
        (0..self.rows)
            .map(|r| crate::checksum::crc32_words(self.row_words(r)))
            .collect()
    }

    /// Transpose (used to pre-pack activation matrices for the GEMM kernel).
    pub fn transpose(&self) -> BitMatrix {
        let mut t = BitMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            let row = self.row_words(r);
            for c in 0..self.cols {
                if (row[c / WORD_BITS] >> (c % WORD_BITS)) & 1 == 1 {
                    t.set(c, r, true);
                }
            }
        }
        t
    }

    /// Decode to a dense ±1 f32 buffer (row-major), for tests and export.
    pub fn to_signs(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.rows.saturating_mul(self.cols));
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.push(if self.get(r, c) { 1.0 } else { -1.0 });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut m = BitMatrix::zeros(3, 70);
        assert_eq!(m.words_per_row(), 2);
        m.set(2, 69, true);
        assert!(m.get(2, 69));
        assert!(!m.get(2, 68));
        assert!(!m.get(0, 69));
        // 128 columns pack into 2 words a row: ×32 smaller than the same
        // matrix in f32 (the paper's storage claim, Sec. II-B).
        let m = BitMatrix::zeros(10, 128);
        assert_eq!(10 * 128 * 4 / (m.words().len() * 8), 32);
    }

    #[test]
    fn from_rows_and_row_roundtrip() {
        let r0 = BitVec64::from_bools(&[true, false, true]);
        let r1 = BitVec64::from_bools(&[false, true, false]);
        let m = BitMatrix::from_rows(&[r0.clone(), r1.clone()]);
        assert_eq!(m.row(0), r0);
        assert_eq!(m.row(1), r1);
    }

    #[test]
    fn transpose_involution() {
        let mut m = BitMatrix::zeros(5, 130);
        m.set(0, 0, true);
        m.set(4, 129, true);
        m.set(2, 64, true);
        let t = m.transpose();
        assert!(t.get(0, 0) && t.get(129, 4) && t.get(64, 2));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn row_checksums_localize_single_flips() {
        let mut m = BitMatrix::zeros(4, 130);
        m.set(1, 7, true);
        m.set(3, 129, true);
        let clean = m.row_checksums();
        assert_eq!(clean.len(), 4);
        // Flipping any bit changes exactly that row's code.
        for (r, c) in [(0usize, 0usize), (1, 7), (2, 64), (3, 129)] {
            let mut f = m.clone();
            f.flip(r, c);
            let codes = f.row_checksums();
            for row in 0..4 {
                assert_eq!(
                    codes[row] != clean[row],
                    row == r,
                    "flip ({r},{c}) row {row}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "padding bits")]
    fn from_words_rejects_dirty_padding() {
        BitMatrix::from_words(1, 3, vec![0b1111]);
    }
}
