//! FINN-style streaming BNN accelerator simulator.
//!
//! The paper deploys BinaryCoP on the Xilinx FINN architecture (Sec. III-B):
//! a pipeline of per-layer hardware stages — a sliding-window unit (SWU)
//! reshaping activations, a matrix-vector-threshold unit (MVTU) doing
//! XNOR/popcount/threshold with a PE×SIMD folding, and boolean-OR max-pool
//! units — synthesized for a Zynq SoC at 100 MHz. No FPGA or vendor tools
//! are available here, so this crate simulates that design at three levels,
//! all sharing one source of truth — the per-stage geometry of [`plan`]:
//!
//! 1. **Functional, bit-exact**: every stage computes the same integer
//!    XNOR-popcount-threshold arithmetic the RTL would, on packed words
//!    ([`mvtu`], [`swu`], [`pool`], [`data`]). `binarycop::deploy` proves
//!    the pipeline classifies identically to the trained reference network.
//! 2. **Timing**: an analytical cycle model from the folding arithmetic
//!    ([`folding`], [`perf`]) — initiation interval = the slowest stage's
//!    fold product, throughput = clock / II when the pipeline is full,
//!    latency = sum of stage fills. This is the model behind the paper's
//!    ~6400 fps claim.
//! 3. **Physical**: resource ([`resource`]) and power ([`power`]) estimators
//!    calibrated against Table II, plus device budgets for the Z7020/Z7010
//!    ([`device`]) and the PE/SIMD design-space search of Sec. IV-B
//!    ([`dse`]).

#![forbid(unsafe_code)]
#![warn(clippy::arithmetic_side_effects)]

pub mod cyclesim;
pub mod data;
pub mod device;
pub mod dse;
pub mod fault;
pub mod folding;
pub mod image;
pub mod mvtu;
pub mod perf;
pub mod pipeline;
pub mod plan;
pub mod pool;
pub mod power;
pub mod resource;
pub mod swu;
pub mod threshold;

pub use data::{BinMap, QuantMap, StageData};
pub use device::Device;
pub use fault::{FaultError, FaultRecord};
pub use folding::{Folding, FoldingError};
pub use pipeline::{Pipeline, Stage};
pub use plan::{StageKind, StagePlan};
