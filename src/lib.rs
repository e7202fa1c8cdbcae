//! Umbrella crate for the BinaryCoP reproduction workspace.
//!
//! This package only hosts the workspace-level `examples/` and `tests/`
//! directories; all functionality lives in the member crates, re-exported
//! here for convenience:
//!
//! - [`bcp_tensor`] — FP32 tensor substrate (NCHW, im2col, GEMM, pooling)
//! - [`bcp_bitpack`] — bit-packed binary linear algebra (XNOR + popcount)
//! - [`bcp_nn`] — BNN training framework (latent weights, STE, batch-norm)
//! - [`bcp_dataset`] — synthetic MaskedFace-Net substitute
//! - [`bcp_finn`] — FINN-style streaming accelerator simulator
//! - [`bcp_gradcam`] — Grad-CAM interpretability
//! - [`binarycop`] — the end-to-end BinaryCoP system (architectures,
//!   training recipes, deployment, experiments)

#![forbid(unsafe_code)]

pub use bcp_bitpack;
pub use bcp_dataset;
pub use bcp_finn;
pub use bcp_gradcam;
pub use bcp_nn;
pub use bcp_tensor;
pub use binarycop;
