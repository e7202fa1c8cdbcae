//! Bit-packed binary (±1) linear algebra for BinaryCoP.
//!
//! The paper (Sec. III-A, Eq. 3) replaces every multiply-accumulate of a
//! binarized layer with XNOR + popcount: encoding −1 as bit 0 and +1 as
//! bit 1, the dot product of two ±1 vectors of length `n` with `p` matching
//! positions is `2p − n`. This crate provides that arithmetic:
//!
//! - [`BitVec64`]: a packed bit vector over `u64` words whose padding bits
//!   stay zero (they never leak into counts).
//! - [`BitMatrix`]: row-major packed matrix, one padded word row each.
//! - [`xnor`]: XNOR-popcount word arithmetic (one PE lane) and the dense
//!   sign-decode oracle the kernel tests compare with.
//! - [`gemm`]: the one binary MVTU kernel — register-blocked multi-frame
//!   GEMM over [`BitPlaneBlock`] layouts, each weight row streamed once
//!   while `BLOCK_LANES` popcount accumulators advance, with an optional
//!   fused threshold compare; a single frame is a block of one.
//! - [`pack`]: `sign()` packing of float tensors (ties at 0 → +1, Eq. 1),
//!   plus the [`BitPlaneBlock`] interleaved multi-frame layout.
//! - [`threshold`]: per-channel integer threshold units, the hardware form
//!   of batch-norm + sign (Sec. III-A).
//! - [`checksum`]: CRC-32 integrity codes over packed rows, the detection
//!   half of the weight-memory scrubbing in `bcp-guard`.

#![forbid(unsafe_code)]
#![warn(clippy::arithmetic_side_effects)]

pub mod bitmatrix;
pub mod bitvec64;
pub mod checksum;
pub mod gemm;
pub mod pack;
pub mod threshold;
pub mod xnor;

pub use bitmatrix::BitMatrix;
pub use bitvec64::BitVec64;
pub use gemm::{xnor_gemm_block, xnor_gemm_block_thresholded, xnor_gemm_block_thresholded_into};
pub use pack::{BitPlaneBlock, BLOCK_LANES};
pub use threshold::{ThresholdChannel, ThresholdUnit, ThresholdWindows};
