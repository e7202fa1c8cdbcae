//! Weight-memory integrity guard for deployed BinaryCoP pipelines.
//!
//! The paper's robustness story (Sec. IV) is statistical: a BNN tolerates
//! scattered bit flips because binarization leaves individual weights
//! non-critical. This crate adds the complementary *engineering* story —
//! detect and undo the flips before they accumulate. One [`Scrubber`]
//! per pipeline holds one golden table, captured at deploy time:
//!
//! - per packed weight row, a CRC-32 and the row's golden words (a clone
//!   of the stage's weight matrix); per folded threshold table, its CRC-32
//!   and a clone. CRC-32's minimum distance is ≥ 4 below 91 607 bits, so
//!   every ≤3-bit upset inside a row is detected with certainty.
//! - A dirty row is repaired by flipping exactly the differing bits back —
//!   bit-exact, involutive.
//! - The scrubber walks the table incrementally, a few units per
//!   [`Scrubber::tick`], so a serving worker can interleave scrubbing with
//!   inference; it emits `guard.scrub.*` telemetry (rows scanned, faults
//!   detected/repaired, sweep-latency histogram).
//!
//! `bcp-serve` builds its quarantine → repair → probation worker lifecycle
//! on top of these pieces; `bcp scrub-bench` measures the end-to-end
//! detection/repair rate and scrub overhead.
#![forbid(unsafe_code)]
#![warn(clippy::arithmetic_side_effects)]

pub mod scrub;

pub use scrub::{threshold_bytes, IntegrityFault, ScrubReport, Scrubber};
