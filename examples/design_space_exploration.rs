//! Design-space exploration (Sec. III-B / IV-B), no training required.
//!
//! Sweeps the LUT budget and lets the greedy allocator dimension every
//! MVTU's PE/SIMD for matched throughput, tracing out the
//! resources-vs-throughput frontier for each prototype; then compares the
//! allocator's choice against the paper's hand-tuned Table I vectors.
//!
//! ```sh
//! cargo run --release --example design_space_exploration
//! ```

use bcp_finn::dse::{allocate, allocate_for_target};
use bcp_finn::perf::CLOCK_100MHZ;
use bcp_finn::resource::mvtu_luts;
use bcp_finn::{Folding, StagePlan};
use binarycop::arch::ArchKind;

fn main() {
    println!("{}", binarycop::experiments::table1_report());

    for kind in ArchKind::ALL {
        let arch = kind.arch();
        // The MVTU layers of the plan; each carries its Table I folding.
        let mut layers = arch.plan();
        layers.retain(StagePlan::is_compute);
        let paper = |l: &StagePlan| Folding::new(l.pe, l.simd);
        let cycles = |l: &StagePlan, f: Folding| {
            f.cycles_per_frame(l.rows, l.cols, l.vectors)
                .expect("Table I cycle counts fit u64")
        };
        println!("=== {} frontier (greedy DSE) ===", arch.name);
        println!(
            "{:>12} {:>12} {:>12} {:>10}",
            "LUT budget", "MVTU LUTs", "II cycles", "fps@100MHz"
        );
        for budget in [4_000.0, 8_000.0, 16_000.0, 32_000.0, 64_000.0] {
            let r = allocate(&layers, budget);
            println!(
                "{:>12.0} {:>12.0} {:>12} {:>10.0}",
                budget,
                r.luts,
                r.initiation_interval,
                CLOCK_100MHZ.hz / r.initiation_interval as f64
            );
        }

        // The paper's hand dimensioning, for comparison.
        let paper_ii = layers.iter().map(|l| cycles(l, paper(l))).max().unwrap();
        let paper_luts: f64 = layers.iter().map(|l| mvtu_luts(paper(l))).sum();
        println!(
            "{:>12} {:>12.0} {:>12} {:>10.0}   ← Table I hand dimensioning",
            "paper",
            paper_luts,
            paper_ii,
            CLOCK_100MHZ.hz / paper_ii as f64
        );

        // Inverse problem: what does a target frame rate cost?
        println!("  inverse DSE (cheapest folding for a target fps):");
        for target_fps in [1000u64, 6400, 20000] {
            let target_ii = (CLOCK_100MHZ.hz / target_fps as f64) as u64;
            match allocate_for_target(&layers, target_ii.max(1)) {
                Some(r) => println!(
                    "    {:>6} fps → II {:>6} cycles at {:>8.0} MVTU LUTs",
                    target_fps, r.initiation_interval, r.luts
                ),
                None => println!("    {target_fps:>6} fps → unreachable for {}", arch.name),
            }
        }

        // Show the allocator's per-layer choice at the paper's budget.
        let r = allocate(&layers, paper_luts);
        println!("  per-layer folding at the paper's LUT point (DSE vs Table I):");
        for (l, f) in layers.iter().zip(&r.foldings) {
            let p = paper(l);
            println!(
                "    {:<8} DSE: PE={:<3} SIMD={:<3} ({} cyc)   paper: PE={:<3} SIMD={:<3} ({} cyc)",
                l.name,
                f.pe,
                f.simd,
                cycles(l, *f),
                p.pe,
                p.simd,
                cycles(l, p)
            );
        }
        println!();
    }
}
