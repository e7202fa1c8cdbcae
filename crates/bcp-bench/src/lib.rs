//! Shared fixtures for the criterion bench targets.
//!
//! The targets time what the frame-path benchmark (`benchmark/`) puts out
//! of scope — training, Grad-CAM, resource estimation/DSE and the
//! design-choice ablations of DESIGN.md §9 — and print the regenerated
//! artifact once per run. Training-scale is kept small: they measure
//! *mechanisms*. Host time of the frame path itself has one owner,
//! `benchmark/`.

#![forbid(unsafe_code)]

use bcp_finn::Pipeline;
use bcp_nn::{Mode, Sequential};
use bcp_tensor::Shape;
use binarycop::arch::{Arch, ArchKind};
use binarycop::model::build_bnn;

/// A deployable (batch-norm-stats-populated) network for a prototype.
pub fn deployable(kind: ArchKind, seed: u64) -> (Sequential, Arch) {
    let arch = kind.arch();
    let mut net = build_bnn(&arch, seed);
    let x = bcp_tensor::init::uniform(
        Shape::nchw(2, 3, arch.input_size, arch.input_size),
        -1.0,
        1.0,
        seed + 1,
    );
    let _ = net.forward(&x, Mode::Train);
    (net, arch)
}

/// The deployed pipeline for a prototype.
pub fn pipeline_for(kind: ArchKind, seed: u64) -> (Pipeline, Arch) {
    let (net, arch) = deployable(kind, seed);
    (binarycop::deploy::deploy(&net, &arch), arch)
}
