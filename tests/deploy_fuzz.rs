//! Architecture-space fuzzing of the deployment invariant.
//!
//! The bit-exactness proof in `binarycop::reference` covers the three
//! published prototypes; this test sweeps *random* valid architectures —
//! varying depth, channel widths, pool placement, head shape, foldings and
//! batch-norm statistics — and asserts the packed/folded pipeline still
//! agrees with the dense integer reference on every logit. This pins the
//! exporter's generality, not just its behaviour on Table I.

use bcp_finn::data::QuantMap;
use bcp_nn::Mode;
use bcp_tensor::Shape;
use binarycop::arch::{Arch, ConvLayer, FcLayer};
use binarycop::deploy::{deploy, try_deploy};
use binarycop::model::{build_bnn, untrained_bnn};
use binarycop::reference::IntegerReference;

/// Split-mix PRNG (no rand dependency needed here).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[(self.next() % options.len() as u64) as usize]
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// Conv widths of the main sweep: every channel run sits inside one word.
const NARROW: &[usize] = &[4, 6, 8, 12];

/// Conv widths whose channel-last pixel runs fill, straddle or span
/// words: windows and pooled pixels are copied across word boundaries.
const WIDE: &[usize] = &[40, 64, 65, 96];

/// Construct a random but structurally valid architecture.
fn random_arch(seed: u64) -> Arch {
    random_arch_with(seed, NARROW)
}

/// [`random_arch`] drawing conv widths from `widths`.
fn random_arch_with(seed: u64, widths: &[usize]) -> Arch {
    let mut rng = Rng(seed);
    let input_size = rng.pick(&[10usize, 12, 14, 16]);
    let n_convs = rng.pick(&[1usize, 2, 3]);
    let mut convs = Vec::new();
    let mut hw = input_size;
    let mut c_in = 3usize;
    for i in 0..n_convs {
        let c_out = rng.pick(widths);
        // A pool is only legal when the post-conv extent is even and the
        // remaining layers still fit.
        let post = hw - 2;
        let remaining = n_convs - i - 1;
        let pool_ok = post.is_multiple_of(2) && post / 2 > 2 * remaining + 1;
        let pool_after = pool_ok && rng.chance(50);
        convs.push(ConvLayer {
            c_in,
            c_out,
            pool_after,
        });
        hw = if pool_after { post / 2 } else { post };
        c_in = c_out;
        if hw < 3 {
            break;
        }
    }
    let flat = c_in * hw * hw;
    let mut fcs = Vec::new();
    let mut f_in = flat;
    if rng.chance(60) {
        let hidden = rng.pick(&[8usize, 16, 24]);
        fcs.push(FcLayer {
            f_in,
            f_out: hidden,
        });
        f_in = hidden;
    }
    fcs.push(FcLayer { f_in, f_out: 4 });

    let n_layers = convs.len() + fcs.len();
    // Random (not necessarily exact-divisor) foldings: the cycle model pads
    // but functional results must be fold-invariant.
    let pe: Vec<usize> = (0..n_layers)
        .map(|_| rng.pick(&[1usize, 2, 3, 4]))
        .collect();
    let simd: Vec<usize> = (0..n_layers)
        .map(|_| rng.pick(&[1usize, 3, 8, 16]))
        .collect();
    Arch {
        name: format!("fuzz-{seed}"),
        input_size,
        convs,
        fcs,
        pe,
        simd,
        dsp_offload: false,
    }
}

fn random_frame(size: usize, seed: u64) -> QuantMap {
    let mut rng = Rng(seed);
    let px: Vec<f32> = (0..3 * size * size)
        .map(|_| (rng.next() % 256) as f32 / 255.0)
        .collect();
    QuantMap::from_unit_floats(3, size, size, &px)
}

/// Train `arch` briefly, deploy it and check every logit of three random
/// frames against the dense integer reference.
fn assert_deploys_bit_exactly(arch: &Arch, seed: u64) {
    arch.validate();
    let mut net = build_bnn(arch, seed + 1000);
    // Two train passes give non-trivial, distinct batch-norm stats.
    for pass in 0..2 {
        let x = bcp_tensor::init::uniform(
            Shape::nchw(3, 3, arch.input_size, arch.input_size),
            -1.0,
            1.0,
            seed * 7 + pass,
        );
        let _ = net.forward(&x, Mode::Train);
    }
    let pipeline = deploy(&net, arch);
    let reference = IntegerReference::from_network(&net, arch);
    for f in 0..3u64 {
        let frame = random_frame(arch.input_size, seed * 131 + f);
        assert_eq!(
            pipeline.forward(&frame),
            reference.forward(&frame),
            "arch {} diverged on frame {f}: {:?}",
            arch.name,
            arch
        );
    }
}

#[test]
fn random_architectures_deploy_bit_exactly() {
    for seed in 0..40u64 {
        assert_deploys_bit_exactly(&random_arch(seed), seed);
    }
}

#[test]
fn wide_random_architectures_deploy_bit_exactly() {
    // Widths of 40, 64, 65 and 96 channels: the SWU's runs, OR-pool's
    // pixel runs, conv outputs and the first dense stage's channel-last
    // columns all cross word boundaries.
    for seed in 0..12u64 {
        assert_deploys_bit_exactly(&random_arch_with(seed + 4000, WIDE), seed + 4000);
    }
}

#[test]
fn random_architectures_have_consistent_timing_model() {
    // The timing/resource models must at least be well-defined for every
    // valid architecture: II ≥ each stage's cycles, latency = sum.
    use bcp_finn::perf::CLOCK_100MHZ;
    for seed in 0..20u64 {
        let arch = random_arch(seed + 500);
        let net = untrained_bnn(&arch, seed, seed);
        let pipeline = deploy(&net, &arch);
        assert_eq!(pipeline.plan(), arch.plan(), "{}", arch.name);
        let perf = CLOCK_100MHZ.analyze(&pipeline.plan());
        assert_eq!(perf.latency_cycles, perf.stage_cycles.iter().sum::<u64>());
        assert_eq!(
            perf.initiation_interval,
            *perf.stage_cycles.iter().max().unwrap()
        );
        let usage = bcp_finn::resource::estimate(&pipeline, false);
        assert!(usage.luts > 0);
    }
}

#[test]
fn architecture_without_conv_trunk_is_refused_not_panicked() {
    // Shape-consistent on paper (fc1 reads the 3·s·s input pixels), but no
    // stage can consume the quantized camera image: `try_deploy` must
    // answer with BCP009, not with an assert inside `Pipeline::new`.
    let mut arch = random_arch(7);
    arch.convs.clear();
    arch.fcs.truncate(1);
    arch.fcs[0] = FcLayer {
        f_in: 3 * arch.input_size * arch.input_size,
        f_out: 4,
    };
    arch.pe = vec![1];
    arch.simd = vec![1];
    // The refusal comes before any layer is looked up, so no network is needed.
    let diags = match try_deploy(&bcp_nn::Sequential::new("head-only"), &arch) {
        Ok(_) => panic!("a conv-less architecture must be refused"),
        Err(diags) => diags,
    };
    assert!(diags
        .iter()
        .any(|d| d.code == bcp_check::Code::PipelineStructure
            && d.location == format!("{}.convs", arch.name)));
}

#[test]
fn fuzz_architectures_cover_the_space() {
    // Meta-test: the generator actually varies depth, pooling and head
    // shape (otherwise the fuzz proves less than it claims).
    let mut depths = std::collections::HashSet::new();
    let mut pooled = false;
    let mut unpooled = false;
    let mut deep_head = false;
    let mut shallow_head = false;
    for seed in 0..40u64 {
        let arch = random_arch(seed);
        depths.insert(arch.convs.len());
        if arch.convs.iter().any(|c| c.pool_after) {
            pooled = true;
        } else {
            unpooled = true;
        }
        if arch.fcs.len() == 2 {
            deep_head = true;
        } else {
            shallow_head = true;
        }
    }
    assert!(depths.len() >= 2, "conv depth never varied");
    assert!(pooled && unpooled, "pooling never varied");
    assert!(deep_head && shallow_head, "head depth never varied");
}
