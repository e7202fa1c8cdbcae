//! Cross-validation of the two timing views on the published
//! architectures: the analytical model (`perf`) and the discrete-event
//! simulation (`cyclesim`) must tell one consistent story.

use bcp_finn::cyclesim::simulate;
use bcp_finn::perf::CLOCK_100MHZ;
use binarycop::arch::ArchKind;
use binarycop::deploy::deploy;
use binarycop::model::untrained_bnn;

fn deployed_plan(kind: ArchKind) -> Vec<bcp_finn::StagePlan> {
    let arch = kind.arch();
    let net = untrained_bnn(&arch, 3, 4);
    deploy(&net, &arch).plan()
}

#[test]
fn event_sim_matches_analytical_for_all_prototypes() {
    for kind in ArchKind::ALL {
        let plan = deployed_plan(kind);
        // The one thing the stage models rest on: the checker's plan of the
        // architecture is the deployed pipeline's plan, field by field.
        assert_eq!(
            plan,
            kind.arch().plan(),
            "{kind:?}: plan(Arch) vs plan(Pipeline)"
        );
        let analytical = CLOCK_100MHZ.analyze(&plan);
        let sim = simulate(&plan, 64, 2);
        assert_eq!(
            sim.first_frame_latency, analytical.latency_cycles,
            "{kind:?}: fill latency"
        );
        assert_eq!(
            sim.measured_ii, analytical.initiation_interval,
            "{kind:?}: steady-state II"
        );
        // Utilization sanity: the bottleneck is saturated, nothing exceeds 1.
        for (i, &u) in sim.stage_utilization.iter().enumerate() {
            assert!(u <= 1.01, "{kind:?} stage {i} over-utilized: {u}");
        }
    }
}

#[test]
fn ncnv_headline_claim_order_of_magnitude() {
    // The ~6400 fps n-CNV claim, validated through the *event simulation*
    // rather than the closed-form model.
    let sim = simulate(&deployed_plan(ArchKind::NCnv), 64, 2);
    let fps = CLOCK_100MHZ.hz / sim.measured_ii as f64;
    assert!(
        (2_000.0..20_000.0).contains(&fps),
        "n-CNV event-sim throughput {fps} fps out of band"
    );
}
