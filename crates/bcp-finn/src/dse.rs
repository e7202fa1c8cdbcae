//! PE/SIMD design-space exploration (Sec. III-B / IV-B).
//!
//! "Based on the compute complexity of each layer, the available hardware
//! resources need to be distributed over the corresponding MVTUs, such that
//! all parts of the pipeline have a matched throughput." This module
//! automates that dimensioning: a greedy allocator that repeatedly widens
//! the bottleneck stage (choosing the cheaper of more PEs / more SIMD
//! lanes) until the LUT budget is exhausted or nothing improves.

use crate::folding::Folding;
use crate::plan::StagePlan;
use crate::resource::mvtu_luts;
use serde::{Deserialize, Serialize};

/// Cycles per frame of layer `l` refolded to `f`; a count that overflows
/// reads as the worst possible bottleneck.
fn cycles_under(l: &StagePlan, f: Folding) -> u64 {
    f.cycles_per_frame(l.rows, l.cols, l.vectors)
        .unwrap_or(u64::MAX)
}

/// DSE outcome.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DseResult {
    /// Chosen folding per layer.
    pub foldings: Vec<Folding>,
    /// Resulting initiation interval (cycles).
    pub initiation_interval: u64,
    /// Total MVTU LUT cost under the model.
    pub luts: f64,
}

/// Smallest divisor of `n` strictly greater than `cur`, if any.
fn next_divisor(n: usize, cur: usize) -> Option<usize> {
    (cur.saturating_add(1)..=n).find(|d| n.is_multiple_of(*d))
}

/// Greedy throughput-matching allocation under a LUT budget.
///
/// `layers` are the compute stages of a plan (their own `pe`/`simd` are
/// ignored: the search starts fully sequential). Foldings stay exact
/// divisors of the matrix dimensions (no padding waste), exactly like
/// hand-dimensioned FINN designs.
pub fn allocate(layers: &[StagePlan], lut_budget: f64) -> DseResult {
    assert!(!layers.is_empty(), "DSE needs at least one layer");
    let mut foldings = vec![Folding::sequential(); layers.len()];
    let mut spent: f64 = foldings.iter().map(|&f| mvtu_luts(f)).sum();

    loop {
        // Bottleneck stage under current foldings.
        let (bottleneck, _) = layers
            .iter()
            .zip(&foldings)
            .map(|(l, &f)| cycles_under(l, f))
            .enumerate()
            .max_by_key(|&(_, c)| c)
            .expect("non-empty layers");
        let l = &layers[bottleneck];
        let f = foldings[bottleneck];

        // Candidate upgrades: widen SIMD or add PEs (divisor steps).
        let mut best: Option<(Folding, f64, u64)> = None; // (folding, Δlut, cycles)
        for cand in [
            next_divisor(l.cols, f.simd).map(|s| Folding { pe: f.pe, simd: s }),
            next_divisor(l.rows, f.pe).map(|p| Folding {
                pe: p,
                simd: f.simd,
            }),
        ]
        .into_iter()
        .flatten()
        {
            let delta = mvtu_luts(cand) - mvtu_luts(f);
            let cycles = cycles_under(l, cand);
            let better = match best {
                None => true,
                // Prefer the bigger cycle reduction per LUT.
                Some((_, bd, bc)) => {
                    let gain = cycles_under(l, f).saturating_sub(cycles) as f64 / delta.max(1e-9);
                    let bgain = cycles_under(l, f).saturating_sub(bc) as f64 / bd.max(1e-9);
                    gain > bgain
                }
            };
            if better {
                best = Some((cand, delta, cycles));
            }
        }

        match best {
            Some((cand, delta, cycles))
                if spent + delta <= lut_budget && cycles < cycles_under(l, f) =>
            {
                foldings[bottleneck] = cand;
                spent += delta;
            }
            _ => break, // budget exhausted or bottleneck saturated
        }
    }

    let initiation_interval = layers
        .iter()
        .zip(&foldings)
        .map(|(l, &f)| cycles_under(l, f))
        .max()
        .unwrap();
    DseResult {
        foldings,
        initiation_interval,
        luts: spent,
    }
}

/// Inverse dimensioning: find the cheapest folding (by the LUT model) that
/// reaches an initiation interval of at most `target_ii` cycles — i.e.
/// "what does X fps cost?". Returns `None` when even full unfolding cannot
/// reach the target.
pub fn allocate_for_target(layers: &[StagePlan], target_ii: u64) -> Option<DseResult> {
    assert!(!layers.is_empty(), "DSE needs at least one layer");
    assert!(target_ii > 0, "target II must be positive");
    let mut foldings = vec![Folding::sequential(); layers.len()];
    loop {
        let (bottleneck, worst) = layers
            .iter()
            .zip(&foldings)
            .map(|(l, &f)| cycles_under(l, f))
            .enumerate()
            .max_by_key(|&(_, c)| c)
            .expect("non-empty layers");
        if worst <= target_ii {
            break;
        }
        let l = &layers[bottleneck];
        let f = foldings[bottleneck];
        // Cheapest single upgrade step for the bottleneck.
        let mut best: Option<(Folding, f64)> = None;
        for cand in [
            next_divisor(l.cols, f.simd).map(|s| Folding { pe: f.pe, simd: s }),
            next_divisor(l.rows, f.pe).map(|p| Folding {
                pe: p,
                simd: f.simd,
            }),
        ]
        .into_iter()
        .flatten()
        {
            if cycles_under(l, cand) >= cycles_under(l, f) {
                continue;
            }
            let delta = mvtu_luts(cand) - mvtu_luts(f);
            if best.is_none() || delta < best.unwrap().1 {
                best = Some((cand, delta));
            }
        }
        match best {
            Some((cand, _)) => foldings[bottleneck] = cand,
            None => return None, // bottleneck fully unfolded, target unreachable
        }
    }
    let initiation_interval = layers
        .iter()
        .zip(&foldings)
        .map(|(l, &f)| cycles_under(l, f))
        .max()
        .unwrap();
    let luts = foldings.iter().map(|&f| mvtu_luts(f)).sum();
    Some(DseResult {
        foldings,
        initiation_interval,
        luts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::StageKind;

    fn layer(name: &str, rows: usize, cols: usize, vectors: usize) -> StagePlan {
        StagePlan {
            name: name.into(),
            kind: StageKind::ConvBinary,
            rows,
            cols,
            vectors,
            pe: 1,
            simd: 1,
            k: 1,
            in_dims: (cols, 1, vectors),
        }
    }

    fn cnv_like() -> Vec<StagePlan> {
        // The CNV workload shape (Table I on 32×32 inputs).
        vec![
            layer("conv1_1", 64, 27, 900),
            layer("conv1_2", 64, 576, 784),
            layer("conv2_1", 128, 576, 144),
            layer("conv2_2", 128, 1152, 100),
            layer("conv3_1", 256, 1152, 9),
            layer("conv3_2", 256, 2304, 1),
            layer("fc1", 512, 256, 1),
            layer("fc2", 512, 512, 1),
            layer("fc3", 4, 512, 1),
        ]
    }

    #[test]
    fn next_divisor_steps() {
        assert_eq!(next_divisor(64, 1), Some(2));
        assert_eq!(next_divisor(64, 2), Some(4));
        assert_eq!(next_divisor(27, 1), Some(3));
        assert_eq!(next_divisor(27, 9), Some(27));
        assert_eq!(next_divisor(27, 27), None);
    }

    #[test]
    fn allocation_respects_budget_and_improves() {
        let layers = cnv_like();
        let base = layers.len() as f64 * mvtu_luts(Folding::sequential());
        let budget = base + 10_000.0;
        let r = allocate(&layers, budget);
        assert!(r.luts <= budget + 1e-6);
        let seq_ii = layers
            .iter()
            .map(|l| cycles_under(l, Folding::sequential()))
            .max()
            .unwrap();
        assert!(
            r.initiation_interval < seq_ii / 8,
            "DSE should cut the II substantially: {} vs {}",
            r.initiation_interval,
            seq_ii
        );
    }

    #[test]
    fn foldings_are_exact_divisors() {
        let layers = cnv_like();
        let r = allocate(&layers, 30_000.0);
        for (l, f) in layers.iter().zip(&r.foldings) {
            assert!(f.is_exact(l.rows, l.cols), "{}: {:?}", l.name, f);
        }
    }

    #[test]
    fn more_budget_never_hurts() {
        let layers = cnv_like();
        let small = allocate(&layers, 8_000.0);
        let big = allocate(&layers, 40_000.0);
        assert!(big.initiation_interval <= small.initiation_interval);
    }

    #[test]
    fn allocation_is_throughput_matched() {
        // After DSE, no stage should dwarf the others: the bottleneck is
        // within 8× of the median MVTU (folding steps are coarse divisors,
        // perfect matching is impossible).
        let layers = cnv_like();
        let r = allocate(&layers, 40_000.0);
        let mut cycles: Vec<u64> = layers
            .iter()
            .zip(&r.foldings)
            .map(|(l, &f)| cycles_under(l, f))
            .collect();
        cycles.sort_unstable();
        let median = cycles[cycles.len() / 2];
        assert!(
            r.initiation_interval <= median * 8,
            "II {} vs median {median}",
            r.initiation_interval
        );
    }

    #[test]
    fn inverse_allocation_reaches_target() {
        let layers = cnv_like();
        // ~6400 fps at 100 MHz → II ≤ 15625 cycles.
        let r = allocate_for_target(&layers, 15_625).expect("target reachable");
        assert!(r.initiation_interval <= 15_625);
        // And it should be cheaper than a much more aggressive target.
        let fast = allocate_for_target(&layers, 2_000).expect("target reachable");
        assert!(fast.luts > r.luts, "faster target must cost more LUTs");
        assert!(fast.initiation_interval <= 2_000);
    }

    #[test]
    fn inverse_allocation_detects_unreachable_targets() {
        // conv1_2 fully unfolded still takes 784 cycles (one per window),
        // so a 10-cycle II is impossible.
        let layers = cnv_like();
        assert!(allocate_for_target(&layers, 10).is_none());
    }

    #[test]
    fn inverse_allocation_trivial_target() {
        let layers = cnv_like();
        let seq_ii = layers
            .iter()
            .map(|l| cycles_under(l, Folding::sequential()))
            .max()
            .unwrap();
        let r = allocate_for_target(&layers, seq_ii).unwrap();
        // Already satisfied sequentially → minimal cost.
        for f in &r.foldings {
            assert_eq!(*f, Folding::sequential());
        }
    }

    #[test]
    fn single_layer_saturates() {
        let layers = vec![layer("fc", 4, 8, 1)];
        let r = allocate(&layers, 1e9);
        // Fully unfolded: 1 cycle per frame.
        assert_eq!(r.initiation_interval, 1);
        assert_eq!(r.foldings[0], Folding { pe: 4, simd: 8 });
    }
}
