//! # bcp-gateway — the fault-tolerant TCP front door
//!
//! BinaryCoP's deployment story is many entry gates (tenants) streaming
//! face crops at a shared classifier appliance. This crate is the network
//! boundary that makes the serving stack real: a `std::net` TCP listener
//! (no external deps) speaking a tiny length-prefixed binary protocol,
//! feeding the existing `bcp-serve` admission machinery through three
//! layers:
//!
//! 1. **[`protocol`]** — versioned wire framing with typed decode errors.
//!    Truncation, garbage, oversize and shape-lying length prefixes are
//!    all rejected before a byte of payload is buffered; nothing a client
//!    sends can panic the server or kill the accept loop.
//! 2. **[`tenant`]** — per-tenant token-bucket rate limiting and absolute
//!    quotas, in exact integer micro-token math. One flooding tenant
//!    starves only itself.
//! 3. **[`shard`]** — N independent engine instances behind a
//!    consistent-hash router: per-shard health states and probes,
//!    retry-with-jittered-backoff failover, every retry bounded by the
//!    deadline budget the client shipped in its request header
//!    (propagated end-to-end via `Engine::submit_with_deadline`).
//!
//! Robustness is proven, not claimed: **[`chaos`]** runs deterministic
//! timed injection plans (shard kills, slowloris reads, mid-frame
//! disconnects, malformed bytes, tenant floods) against a live gateway
//! and returns an assertable report — `tests/gateway_fault.rs` and
//! `bcp gateway-bench --chaos <plan>` turn those reports into hard
//! pass/fail gates: exactly-one-response accounting, rebalance within a
//! probe interval, zero wrong answers.
//!
//! ```no_run
//! use bcp_gateway::{Gateway, GatewayClient, GatewayConfig, ShardSpec};
//! use bcp_serve::ServeConfig;
//!
//! let specs = (0..3)
//!     .map(|_| ShardSpec::synthetic(2, ServeConfig::default()))
//!     .collect();
//! let gw = Gateway::start(specs, GatewayConfig::default(), None).unwrap();
//! let mut client = GatewayClient::connect(gw.local_addr()).unwrap();
//! let resp = client.classify(7, 1, 250, gw.probe_frame()).unwrap();
//! println!("tenant 7 got class {} from shard {}", resp.class, resp.shard);
//! gw.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(clippy::arithmetic_side_effects)]

pub mod chaos;
pub mod client;
pub mod protocol;
pub mod server;
pub mod shard;
pub mod tenant;

pub use chaos::{ChaosEvent, ChaosParseError, ChaosPlan, ChaosReport};
pub use client::{GatewayClient, Tally, WireError};
pub use protocol::{DecodeError, Message, RequestFrame, ResponseFrame, Status};
pub use server::{Gateway, GatewayConfig};
pub use shard::{DispatchOutcome, Router, Shard, ShardSpec, ShardState};
pub use tenant::{Admission, TenantPolicy, TenantTable};
