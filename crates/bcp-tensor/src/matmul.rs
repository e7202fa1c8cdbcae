//! One order-preserving, register-tiled GEMM kernel.
//!
//! im2col lowers every convolution in the training path to one of three
//! products — `A·B`, `Aᵀ·B`, `A·Bᵀ` — so they are the hot loops of the whole
//! workspace. All three are one kernel: `pack` copies each operand once
//! into panels, reading it through a (row stride, column stride) pair —
//! which is all a transpose is — and `tile` computes an `MR × NR` block of
//! outputs with the `NR` columns in SIMD lanes, the accumulators held in
//! registers for the whole depth.
//!
//! **Order invariant.** Every output is the sequential f32 sum
//! `(((+0.0 + a₀b₀) + a₁b₁) + …)` in ascending `k`, exactly as
//! [`matmul_naive`] computes it, so every product is bit-identical to the
//! triple loop. The kernel is parallel only across outputs (the lanes of a
//! tile are different outputs, never parts of one dot product), uses no
//! `mul_add` (a fused multiply-add rounds once where `a * b + c` rounds
//! twice), and skips no term. This is why training reproduces bit for bit
//! across kernel changes: a faster kernel is admissible only if it keeps
//! the invariant — splitting `k` across lanes or threads reassociates the
//! sum and moves every trained weight.
//!
//! **Thread rule** (the same invariant one level up, see [`crate::par`]):
//! a large product is split across threads by *panels of outputs*, never by
//! `k`. Each part owns a contiguous run of `out`'s rows — A panels when the
//! product is computed as it stands, B panels when it is computed
//! transposed — packs only its own panels into its share of one
//! caller-owned buffer, and reads the other operand's panels, packed once
//! before the split (a large pack is itself split by panels: each panel is
//! an output of the pack).

use crate::par;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Output rows per tile: one broadcast `A` value per row and `k` step.
pub(crate) const MR: usize = 4;
/// Output columns per tile: two 8-lane vectors of `B` per row and `k` step,
/// so a tile is eight vector accumulators.
pub(crate) const NR: usize = 16;

/// `C = A · B` with `A: m×k`, `B: k×n` (both row-major rank-2 tensors).
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "A");
    let (kb, n) = dims2(b, "B");
    assert_eq!(
        k, kb,
        "matmul inner dims disagree: A is {m}×{k}, B is {kb}×{n}"
    );
    gemm(m, k, n, (a.as_slice(), k, 1), (b.as_slice(), n, 1))
}

/// `C = Aᵀ · B` with `A: k×m`, `B: k×n` → `C: m×n`.
///
/// Used by the convolution input gradient (`dcol = Wᵀ · dY`) and the dense
/// weight gradient.
pub fn matmul_ta(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = dims2(a, "A");
    let (kb, n) = dims2(b, "B");
    assert_eq!(
        k, kb,
        "matmul_ta inner dims disagree: Aᵀ is {m}×{k}, B is {kb}×{n}"
    );
    gemm(m, k, n, (a.as_slice(), 1, m), (b.as_slice(), n, 1))
}

/// `C = A · Bᵀ` with `A: m×k`, `B: n×k` → `C: m×n`.
///
/// Used by the convolution weight gradient (`dW = dY · colᵀ`) and the dense
/// forward pass.
pub fn matmul_tb(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "A");
    let (n, kb) = dims2(b, "B");
    assert_eq!(
        k, kb,
        "matmul_tb inner dims disagree: A is {m}×{k}, Bᵀ is {kb}×{n}"
    );
    gemm(m, k, n, (a.as_slice(), k, 1), (b.as_slice(), 1, k))
}

/// Reference O(mnk) triple loop: the order every kernel result must match
/// bit for bit.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "A");
    let (kb, n) = dims2(b, "B");
    assert_eq!(k, kb);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a.as_slice()[i * k + kk] * b.as_slice()[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(Shape::d2(m, n), out)
}

/// Threads a product of an `m×k` and a `k×n` matrix is split across.
pub fn gemm_threads(m: usize, k: usize, n: usize) -> usize {
    par::workers(gemm_parts(m, k, n))
}

/// Parts the rows of an `m×k` by `k×n` product are cut into: runs of whole
/// panels of `out`'s rows.
fn gemm_parts(m: usize, k: usize, n: usize) -> usize {
    let width = if transposed(m, n) { NR } else { MR };
    par::parts(m.div_ceil(width), m * k * n)
}

/// A matrix read through strides: element `(r, c)` is `data[r·rs + c·cs]`.
pub(crate) type Strided<'a> = (&'a [f32], usize, usize);

/// A narrow `C` (a conv layer with one or nine output pixels) would leave
/// most of a tile's `NR` lanes padding, so the kernel computes `Cᵀ = Bᵀ·Aᵀ`
/// instead whenever that takes fewer tiles: transposing a strided operand
/// is swapping its strides, and every output is the same k-ascending sum
/// either way.
fn transposed(m: usize, n: usize) -> bool {
    let tiles = |rows: usize, cols: usize| rows.div_ceil(MR) * cols.div_ceil(NR);
    tiles(n, m) < tiles(m, n)
}

/// `C = A · B` for a logical `m×k` `A` and `k×n` `B`, each [`Strided`].
pub(crate) fn gemm(m: usize, k: usize, n: usize, a: Strided, b: Strided) -> Tensor {
    let mut out = vec![0.0f32; m * n];
    if k > 0 && !out.is_empty() {
        // `out`'s row i is A's row i; its column j is B's column j, which
        // `pack` reads as a row through B's swapped strides.
        let cols = (b.0, b.2, b.1);
        let parts = gemm_parts(m, k, n);
        if transposed(m, n) {
            // A's rows are the tiles' columns: split B panels.
            let shared = pack::<MR>(cols, n, k);
            split_rows::<NR>(&mut out, n, k, a, parts, |out, own, rows| {
                product(&shared, own, k, n, rows, |i, j, v| out[j * n + i] = v)
            });
        } else {
            let shared = pack::<NR>(cols, n, k);
            split_rows::<MR>(&mut out, n, k, a, parts, |out, own, rows| {
                product(own, &shared, k, rows, n, |i, j, v| out[i * n + j] = v)
            });
        }
    }
    Tensor::from_vec(Shape::d2(m, n), out)
}

/// Split `out`'s rows (`n` wide) into `parts` runs of whole panels of `W`
/// rows. Each part packs its own rows of `rows` (a `depth k` operand read
/// through its strides) into its share of one buffer, then `f` gets the
/// part's rows of `out`, its panels and its row count.
fn split_rows<const W: usize>(
    out: &mut [f32],
    n: usize,
    k: usize,
    rows: Strided,
    parts: usize,
    f: impl Fn(&mut [f32], &[f32], usize) + Sync,
) {
    let panels = (out.len() / n).div_ceil(W);
    let per = panels.div_ceil(parts);
    let mut packed = vec![0.0f32; panels * k * W];
    let runs = out
        .chunks_mut(per * W * n)
        .zip(packed.chunks_mut(per * k * W));
    par::join(runs.enumerate(), |(p, (out, own))| {
        let (r0, m) = (p * per * W, out.len() / n);
        pack_into::<W>(own, (&rows.0[r0 * rows.1..], rows.1, rows.2), m, k);
        f(out, own, m);
    });
}

/// Every output of the `m × n` product of `m` rows packed in A panels
/// (`ap`) and `n` columns packed in B panels (`bp`), depth `k`, handed to
/// `put(i, j, v)` as its finished k-ascending sum.
#[inline(always)]
pub(crate) fn product(
    ap: &[f32],
    bp: &[f32],
    k: usize,
    m: usize,
    n: usize,
    mut put: impl FnMut(usize, usize, f32),
) {
    // Every A panel passes one B panel before the next B panel is read.
    for (j0, bpanel) in (0..n).step_by(NR).zip(bp.chunks_exact(k * NR)) {
        for (i0, apanel) in (0..m).step_by(MR).zip(ap.chunks_exact(k * MR)) {
            for (i, acc) in (i0..m).zip(tile(apanel, bpanel)) {
                for (j, v) in (j0..n).zip(acc) {
                    put(i, j, v);
                }
            }
        }
    }
}

/// A left operand packed once and multiplied by many right operands (a
/// conv layer's weights by every group of samples), in whichever
/// orientation takes fewer tiles for products `cols` wide.
pub(crate) struct Shared {
    panels: Vec<f32>,
    rows: usize,
    depth: usize,
    transposed: bool,
}

impl Shared {
    /// Pack the `rows × depth` matrix `src` for products about `cols` wide.
    pub(crate) fn new(src: Strided, rows: usize, depth: usize, cols: usize) -> Shared {
        let transposed = transposed(rows, cols);
        let panels = if transposed {
            pack::<NR>(src, rows, depth)
        } else {
            pack::<MR>(src, rows, depth)
        };
        Shared {
            panels,
            rows,
            depth,
            transposed,
        }
    }

    /// Scratch a right operand `cols` wide packs into.
    pub(crate) fn scratch_len(&self, cols: usize) -> usize {
        if self.transposed {
            packed_len::<MR>(cols, self.depth)
        } else {
            packed_len::<NR>(cols, self.depth)
        }
    }

    /// Every output `(i, j)` of this matrix times the `depth × cols` matrix
    /// whose column `j` is row `j` of `b` (read through its strides), handed
    /// to `put(i, j, v)` as its finished k-ascending sum; `b` is packed into
    /// `scratch`.
    #[inline(always)]
    pub(crate) fn times(
        &self,
        b: Strided,
        cols: usize,
        scratch: &mut [f32],
        mut put: impl FnMut(usize, usize, f32),
    ) {
        let (rows, depth) = (self.rows, self.depth);
        if self.transposed {
            pack_into::<MR>(scratch, b, cols, depth);
            product(scratch, &self.panels, depth, cols, rows, |j, i, v| {
                put(i, j, v)
            });
        } else {
            pack_into::<NR>(scratch, b, cols, depth);
            product(&self.panels, scratch, depth, rows, cols, put);
        }
    }
}

/// [`pack_into`] a fresh buffer, for an operand every part reads. Its
/// panels are outputs of their own, so a large pack is split across
/// threads by panels.
pub(crate) fn pack<const W: usize>(src: Strided, rows: usize, depth: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; packed_len::<W>(rows, depth)];
    let panel = depth * W;
    let work = rows * depth * par::ELEMENT_WORK;
    par::for_each_run(&mut out, panel, work, |first, run| {
        let r0 = first * W;
        let rows = (run.len() / panel * W).min(rows - r0);
        pack_into::<W>(run, (&src.0[r0 * src.1..], src.1, src.2), rows, depth);
    });
    out
}

/// Length of `rows × depth` packed in panels of `W` rows.
pub(crate) const fn packed_len<const W: usize>(rows: usize, depth: usize) -> usize {
    rows.div_ceil(W) * depth * W
}

/// Copy the logical `rows × depth` matrix `data[r·rs + d·ds]` into panels
/// of `W` rows, depth-major inside a panel (`W` values per depth step, the
/// order [`tile`] reads them): `MR` for A panels, `NR` for B panels. The last
/// panel's padding rows are left as they are: each output lane reads one A
/// row and one B column, so a padded lane's value is computed and dropped
/// and reaches no kept output.
pub(crate) fn pack_into<const W: usize>(
    dst: &mut [f32],
    (data, rs, ds): Strided,
    rows: usize,
    depth: usize,
) {
    for (r0, panel) in (0..rows).step_by(W).zip(dst.chunks_exact_mut(depth * W)) {
        let live = W.min(rows - r0);
        for (d, slot) in panel.chunks_exact_mut(W).enumerate() {
            let at = r0 * rs + d * ds;
            if rs == 1 {
                slot[..live].copy_from_slice(&data[at..at + live]);
            } else {
                for (r, s) in slot[..live].iter_mut().enumerate() {
                    *s = data[at + r * rs];
                }
            }
        }
    }
}

/// One `MR × NR` block of outputs over the whole depth: `a` is an A panel
/// (`MR` values per step), `b` a B panel (`NR` per step).
///
/// Each accumulator row is its own variable so LLVM keeps the tile in eight
/// vector registers and vectorizes across the `NR` columns; an
/// `[[f32; NR]; MR]` accumulator is instead vectorized across rows through
/// the stack. Not inlined, so that code generation does not depend on the
/// caller.
#[inline(never)]
fn tile(a: &[f32], b: &[f32]) -> [[f32; NR]; MR] {
    let mut c = ([0.0f32; NR], [0.0f32; NR], [0.0f32; NR], [0.0f32; NR]);
    for (a, b) in a.chunks_exact(MR).zip(b.chunks_exact(NR)) {
        let (&[a0, a1, a2, a3], Ok(b)) = (a, <&[f32; NR]>::try_from(b)) else {
            unreachable!("panels are whole steps");
        };
        c.0 = axpy(c.0, a0, b);
        c.1 = axpy(c.1, a1, b);
        c.2 = axpy(c.2, a2, b);
        c.3 = axpy(c.3, a3, b);
    }
    [c.0, c.1, c.2, c.3]
}

/// `c + a·b` lane by lane: one rounded multiply, then one rounded add.
#[inline(always)]
fn axpy(mut c: [f32; NR], a: f32, b: &[f32; NR]) -> [f32; NR] {
    for (c, &b) in c.iter_mut().zip(b) {
        *c += a * b;
    }
    c
}

fn dims2(t: &Tensor, name: &str) -> (usize, usize) {
    assert_eq!(
        t.shape().rank(),
        2,
        "matmul operand {name} must be rank 2, got {}",
        t.shape()
    );
    (t.shape().dim(0), t.shape().dim(1))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::init::uniform;
    use crate::ops::transpose2;
    use proptest::prelude::*;

    /// Bit equality, element by element: a tolerance cannot see a
    /// reordered sum, this can.
    pub(crate) fn same_bits(got: &Tensor, want: &Tensor) -> Result<(), String> {
        if got.shape() != want.shape() {
            return Err(format!("shape {} vs {}", got.shape(), want.shape()));
        }
        match got
            .as_slice()
            .iter()
            .zip(want.as_slice())
            .position(|(x, y)| x.to_bits() != y.to_bits())
        {
            Some(i) => Err(format!(
                "element {i}: {:e} vs {:e}",
                got.as_slice()[i],
                want.as_slice()[i]
            )),
            None => Ok(()),
        }
    }

    /// All three public products against the naive loop on `A·B`, the
    /// transposed ones fed explicitly transposed operands.
    fn check_all(a: &Tensor, b: &Tensor) -> Result<(), String> {
        let want = matmul_naive(a, b);
        same_bits(&matmul(a, b), &want).map_err(|e| format!("matmul: {e}"))?;
        same_bits(&matmul_ta(&transpose2(a), b), &want).map_err(|e| format!("matmul_ta: {e}"))?;
        same_bits(&matmul_tb(a, &transpose2(b)), &want).map_err(|e| format!("matmul_tb: {e}"))
    }

    #[test]
    fn identity() {
        let a = uniform(Shape::d2(4, 4), -1.0, 1.0, 7);
        let mut eye = Tensor::zeros(Shape::d2(4, 4));
        for i in 0..4 {
            *eye.at_mut(&[i, i]) = 1.0;
        }
        same_bits(&matmul(&a, &eye), &a).unwrap();
        same_bits(&matmul(&eye, &a), &a).unwrap();
    }

    #[test]
    fn known_product() {
        let a = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(Shape::d2(3, 2), vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    /// Every ragged-tile case: m and n on both sides of MR and NR, k short
    /// and long, and both orientations (`33 × 1` is computed transposed,
    /// `1 × 33` as it stands).
    #[test]
    fn bit_identical_to_naive_across_tile_edges() {
        let edges = [1, MR - 1, MR, MR + 1, NR - 1, NR + 1, 2 * NR + 1];
        let mut seed = 0;
        for k in [1, 255, 257] {
            for m in edges {
                for n in edges {
                    seed += 2;
                    let a = uniform(Shape::d2(m, k), -2.0, 2.0, seed);
                    let b = uniform(Shape::d2(k, n), -2.0, 2.0, seed + 1);
                    check_all(&a, &b).unwrap_or_else(|e| panic!("{m}×{k}×{n}: {e}"));
                }
            }
        }
    }

    /// The thread split, bit for bit in all three products, one step under
    /// the inline threshold and one over it: as it stands (`27 × 160`: seven
    /// A panels, the last ragged) and transposed (`300 × 7`: nineteen B
    /// panels, cut into parts of three). With `n = 1` or `m = 1` an operand
    /// over the threshold holds 16 M elements, so those two check `matmul`
    /// alone, over it only: `n = 1` splits like `300 × 7`, and `m = 1` is
    /// one panel, which cannot split.
    #[test]
    fn split_products_are_bit_identical_to_naive() {
        let over = |m: usize, n: usize| par::INLINE_BELOW.div_ceil(m * n);
        for (m, n) in [(27, 160), (300, 7), (1_000, 1), (1, 600)] {
            let thin = m == 1 || n == 1;
            let depths = if thin { 1..2 } else { 0..2 };
            for k in depths.map(|step| over(m, n) - 1 + step) {
                let split = m * k * n >= par::INLINE_BELOW && (m > MR || transposed(m, n));
                let want = if split { par::threads() } else { 1 };
                assert_eq!(gemm_threads(m, k, n), want, "{m}×{k}×{n}");
                let a = uniform(Shape::d2(m, k), -2.0, 2.0, (m + k) as u64);
                let b = uniform(Shape::d2(k, n), -2.0, 2.0, (k + n) as u64);
                let checked = if thin {
                    same_bits(&matmul(&a, &b), &matmul_naive(&a, &b))
                } else {
                    check_all(&a, &b)
                };
                checked.unwrap_or_else(|e| panic!("{m}×{k}×{n}: {e}"));
            }
        }
        assert!(transposed(300, 7) && !transposed(27, 160));
    }

    #[test]
    fn ta_and_tb_match_explicit_transpose() {
        let a = uniform(Shape::d2(6, 5), -1.0, 1.0, 3);
        let b = uniform(Shape::d2(5, 7), -1.0, 1.0, 4);
        check_all(&a, &b).unwrap();
    }

    /// Zeros and `−0.0` in A are what the old `a == 0.0` skip dropped: with
    /// finite B the terms leave the sum as it is; against an infinite B they
    /// make it NaN, as the naive loop says.
    #[test]
    fn zero_terms_are_summed_not_skipped() {
        let (m, k, n) = (MR + 1, 37, NR + 3);
        let mut a = uniform(Shape::d2(m, k), -1.0, 1.0, 5);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            match i % 3 {
                0 => *v = 0.0,
                1 => *v = -0.0,
                _ => {}
            }
        }
        let mut b = uniform(Shape::d2(k, n), -1.0, 1.0, 6);
        check_all(&a, &b).unwrap();

        b.as_mut_slice()[0] = f32::INFINITY; // meets a[0][0] = +0.0
        let c = matmul(&a, &b);
        assert!(c.as_slice()[0].is_nan(), "0 · inf must reach the sum");
        assert!(!c.as_slice()[1].is_nan());
        check_all(&a, &b).unwrap();
    }

    /// Every sum starts from `+0.0`: a row of `−0.0` products sums to
    /// `+0.0`, where seeding the accumulator with the first product would
    /// give `−0.0`.
    #[test]
    fn sums_start_from_positive_zero() {
        let a = Tensor::from_vec(Shape::d2(1, 3), vec![-0.0; 3]);
        let b = Tensor::ones(Shape::d2(3, NR + 1));
        assert!(matmul(&a, &b).as_slice().iter().all(|v| v.to_bits() == 0));
        check_all(&a, &b).unwrap();
    }

    #[test]
    fn empty_depth_is_all_zeros() {
        let c = matmul(
            &Tensor::zeros(Shape::d2(3, 0)),
            &Tensor::zeros(Shape::d2(0, 5)),
        );
        assert_eq!(c.shape().dims(), &[3, 5]);
        assert!(c.as_slice().iter().all(|v| v.to_bits() == 0));
    }

    #[test]
    #[should_panic(expected = "inner dims disagree")]
    fn shape_mismatch_panics() {
        let a = Tensor::zeros(Shape::d2(2, 3));
        let b = Tensor::zeros(Shape::d2(4, 2));
        matmul(&a, &b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_blocked_equals_naive(m in 1usize..40, k in 1usize..48, n in 1usize..40, seed in 0u64..1000) {
            let a = uniform(Shape::d2(m, k), -2.0, 2.0, seed);
            let b = uniform(Shape::d2(k, n), -2.0, 2.0, seed.wrapping_add(1));
            prop_assert_eq!(same_bits(&matmul(&a, &b), &matmul_naive(&a, &b)), Ok(()));
        }

        #[test]
        fn prop_ta_tb_consistency(m in 1usize..10, k in 1usize..24, n in 1usize..10, seed in 0u64..1000) {
            let a = uniform(Shape::d2(m, k), -2.0, 2.0, seed);
            let b = uniform(Shape::d2(k, n), -2.0, 2.0, seed.wrapping_add(9));
            prop_assert_eq!(check_all(&a, &b), Ok(()));
        }
    }
}
