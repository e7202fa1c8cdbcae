//! Deterministic chaos plans: timed fault injection against a live
//! gateway.
//!
//! A plan is a semicolon-separated event list, each event pinned to a
//! millisecond offset from plan start, so a run is reproducible
//! schedule-for-schedule:
//!
//! ```text
//! kill:0@100          kill shard 0 at t=100ms
//! revive:0@400        revive shard 0 at t=400ms
//! slowloris@50+500    at t=50ms, trickle a partial frame and hold 500ms
//! garbage@60          at t=60ms, send 64 bytes of garbage
//! disconnect@70       at t=70ms, hang up mid-frame
//! flood:9@80x200      at t=80ms, fire 200 requests as tenant 9
//! ```
//!
//! The executor runs on the caller's thread (wrap in `thread::scope` to
//! overlap with load) and returns a [`ChaosReport`] of what each
//! injection observed — the *assertable* half of the harness: garbage
//! must come back `BadRequest`, slowloris must get cut, flood responses
//! must tally exactly one response per request.

use crate::client::{GatewayClient, Tally};
use crate::protocol::{encode_request, RequestFrame, Status};
use crate::server::Gateway;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// One timed injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Hard-stop a shard.
    Kill { shard: usize, at_ms: u64 },
    /// Rebuild a shard's replica pool and return it to service.
    Revive { shard: usize, at_ms: u64 },
    /// Open a connection, send a partial frame, go silent for `hold_ms`.
    Slowloris { at_ms: u64, hold_ms: u64 },
    /// Send bytes that decode to nothing.
    Garbage { at_ms: u64 },
    /// Hang up halfway through a frame.
    Disconnect { at_ms: u64 },
    /// Fire `requests` back-to-back requests as one tenant.
    Flood {
        tenant: u32,
        at_ms: u64,
        requests: u32,
    },
}

impl ChaosEvent {
    /// When this event fires, in ms from plan start.
    pub fn at_ms(&self) -> u64 {
        match *self {
            ChaosEvent::Kill { at_ms, .. }
            | ChaosEvent::Revive { at_ms, .. }
            | ChaosEvent::Slowloris { at_ms, .. }
            | ChaosEvent::Garbage { at_ms }
            | ChaosEvent::Disconnect { at_ms }
            | ChaosEvent::Flood { at_ms, .. } => at_ms,
        }
    }
}

/// A plan that failed to parse, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosParseError {
    /// The offending event token.
    pub token: String,
    /// What was wrong with it.
    pub reason: &'static str,
}

impl std::fmt::Display for ChaosParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad chaos event `{}`: {}", self.token, self.reason)
    }
}

impl std::error::Error for ChaosParseError {}

/// A parsed, time-sorted injection schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Events in firing order.
    pub events: Vec<ChaosEvent>,
}

fn num<T: std::str::FromStr>(
    s: &str,
    token: &str,
    what: &'static str,
) -> Result<T, ChaosParseError> {
    s.parse().map_err(|_| ChaosParseError {
        token: token.to_string(),
        reason: what,
    })
}

impl ChaosPlan {
    /// Parse the `kill:0@100;flood:9@80x200;…` grammar.
    pub fn parse(s: &str) -> Result<ChaosPlan, ChaosParseError> {
        let mut events = Vec::new();
        for token in s.split(';').map(str::trim).filter(|t| !t.is_empty()) {
            let err = |reason| ChaosParseError {
                token: token.to_string(),
                reason,
            };
            let (head, at) = token.split_once('@').ok_or(err("missing `@<ms>`"))?;
            let event = match head.split_once(':') {
                Some(("kill", shard)) => ChaosEvent::Kill {
                    shard: num(shard, token, "bad shard index")?,
                    at_ms: num(at, token, "bad time offset")?,
                },
                Some(("revive", shard)) => ChaosEvent::Revive {
                    shard: num(shard, token, "bad shard index")?,
                    at_ms: num(at, token, "bad time offset")?,
                },
                Some(("flood", tenant)) => {
                    let (at, n) = at.split_once('x').ok_or(err("flood needs `x<requests>`"))?;
                    ChaosEvent::Flood {
                        tenant: num(tenant, token, "bad tenant id")?,
                        at_ms: num(at, token, "bad time offset")?,
                        requests: num(n, token, "bad request count")?,
                    }
                }
                Some(_) => return Err(err("unknown event kind")),
                None => match head {
                    "slowloris" => {
                        let (at, hold) = at
                            .split_once('+')
                            .ok_or(err("slowloris needs `+<hold_ms>`"))?;
                        ChaosEvent::Slowloris {
                            at_ms: num(at, token, "bad time offset")?,
                            hold_ms: num(hold, token, "bad hold duration")?,
                        }
                    }
                    "garbage" => ChaosEvent::Garbage {
                        at_ms: num(at, token, "bad time offset")?,
                    },
                    "disconnect" => ChaosEvent::Disconnect {
                        at_ms: num(at, token, "bad time offset")?,
                    },
                    _ => return Err(err("unknown event kind")),
                },
            };
            events.push(event);
        }
        events.sort_by_key(ChaosEvent::at_ms);
        Ok(ChaosPlan { events })
    }
}

/// What the injections observed — the assertable record of a chaos run.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Shards killed.
    pub kills: u64,
    /// Shards revived.
    pub revives: u64,
    /// Slowloris connections the server cut (it must cut all of them).
    pub slowloris_cut: u64,
    /// Slowloris connections still alive after the hold — always a bug.
    pub slowloris_survived: u64,
    /// Garbage connections answered with `BadRequest` then closed.
    pub garbage_rejected: u64,
    /// Garbage connections mishandled (wrong status, or no answer).
    pub garbage_mishandled: u64,
    /// Mid-frame disconnects injected, each seen through to the server's
    /// close.
    pub disconnects: u64,
    /// Outcomes of flood requests (exactly one response per request).
    pub flood: Tally,
    /// Flood requests fired.
    pub flood_sent: u64,
}

impl ChaosReport {
    /// True when every injection was handled the way the server
    /// contract promises.
    pub fn clean(&self) -> bool {
        self.slowloris_survived == 0
            && self.garbage_mishandled == 0
            && self.flood.wrong == 0
            && self
                .flood
                .responses()
                .saturating_add(self.flood.wire_errors)
                == self.flood_sent
    }

    /// Stable JSON rendering for bench artifacts.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kills\":{},\"revives\":{},\"slowloris_cut\":{},\"slowloris_survived\":{},\
             \"garbage_rejected\":{},\"garbage_mishandled\":{},\"disconnects\":{},\
             \"flood_sent\":{},\"flood\":{},\"clean\":{}}}",
            self.kills,
            self.revives,
            self.slowloris_cut,
            self.slowloris_survived,
            self.garbage_rejected,
            self.garbage_mishandled,
            self.disconnects,
            self.flood_sent,
            self.flood.to_json(),
            self.clean(),
        )
    }
}

/// Execute `plan` against a live gateway, blocking until the last event
/// has fired and been observed.
pub fn run(plan: &ChaosPlan, gateway: &Gateway) -> ChaosReport {
    let t0 = Instant::now();
    let mut report = ChaosReport::default();
    for event in &plan.events {
        let at = Duration::from_millis(event.at_ms());
        let elapsed = t0.elapsed();
        if at > elapsed {
            std::thread::sleep(at.saturating_sub(elapsed));
        }
        match *event {
            ChaosEvent::Kill { shard, .. } => {
                if let Some(s) = gateway.router().shards().get(shard) {
                    s.kill();
                    report.kills = report.kills.saturating_add(1);
                }
            }
            ChaosEvent::Revive { shard, .. } => {
                if let Some(s) = gateway.router().shards().get(shard) {
                    s.revive();
                    report.revives = report.revives.saturating_add(1);
                }
            }
            ChaosEvent::Slowloris { hold_ms, .. } => {
                let cut = inject_slowloris(gateway, Duration::from_millis(hold_ms));
                if cut {
                    report.slowloris_cut = report.slowloris_cut.saturating_add(1);
                } else {
                    report.slowloris_survived = report.slowloris_survived.saturating_add(1);
                }
            }
            ChaosEvent::Garbage { .. } => {
                if inject_garbage(gateway.local_addr()) {
                    report.garbage_rejected = report.garbage_rejected.saturating_add(1);
                } else {
                    report.garbage_mishandled = report.garbage_mishandled.saturating_add(1);
                }
            }
            ChaosEvent::Disconnect { .. } => {
                inject_disconnect(gateway);
                report.disconnects = report.disconnects.saturating_add(1);
            }
            ChaosEvent::Flood {
                tenant, requests, ..
            } => {
                inject_flood(gateway, tenant, requests, &mut report);
            }
        }
    }
    report
}

/// Trickle a partial frame, hold, then see whether the server (rightly)
/// cut us. Returns true when cut.
fn inject_slowloris(gateway: &Gateway, hold: Duration) -> bool {
    let Ok(mut client) = GatewayClient::connect(gateway.local_addr()) else {
        return false;
    };
    let full = encode_request(&probe_request(gateway));
    if client.send_raw(&full[..10]).is_err() {
        return true;
    }
    std::thread::sleep(hold);
    // A cut connection refuses the rest of the frame (or the read of a
    // response that will never come).
    client.send_raw(&full[10..]).is_err() || client.read_response().is_err()
}

/// Send garbage; a correct server answers exactly one `BadRequest` and
/// closes. Returns true on that exact behavior.
fn inject_garbage(addr: std::net::SocketAddr) -> bool {
    let Ok(mut client) = GatewayClient::connect(addr) else {
        return false;
    };
    if client.send_raw(&[0x55u8; 64]).is_err() {
        return false;
    }
    match client.read_response() {
        Ok(resp) => resp.status == Status::BadRequest,
        Err(_) => false,
    }
}

/// Hang up mid-frame: send part of a frame, close the sending half, and
/// wait for the server to hang up in turn. The server counts
/// `gateway.disconnects` before it closes, so once this returns the count
/// is already there — dropping the socket and leaving at once would let
/// the plan (and a test reading the counter) finish first.
fn inject_disconnect(gateway: &Gateway) {
    let Ok(mut stream) = TcpStream::connect(gateway.local_addr()) else {
        return;
    };
    let full = encode_request(&probe_request(gateway));
    if stream.write_all(&full[..20.min(full.len())]).is_ok()
        && stream.shutdown(Shutdown::Write).is_ok()
        && stream.set_read_timeout(Some(HANG_UP_WAIT)).is_ok()
    {
        // No response is owed: the read ends at the server's close.
        let _ = stream.read(&mut [0u8; 1]);
    }
}

/// How long [`inject_disconnect`] waits for the server's close (a bound,
/// not a timing: the wait ends as soon as the server hangs up).
const HANG_UP_WAIT: Duration = Duration::from_secs(30);

/// Every injected request carries the gateway's own probe frame, so what
/// it tests is the injection, not the frame's shape.
fn probe_request(gateway: &Gateway) -> RequestFrame {
    RequestFrame::from_tensor(0, 0, 0, gateway.probe_frame())
}

/// Fire `requests` back-to-back frames as `tenant`, recording one tally
/// entry per request — the exactly-one-response check rides on this.
fn inject_flood(gateway: &Gateway, tenant: u32, requests: u32, report: &mut ChaosReport) {
    let frame = gateway.probe_frame();
    let Ok(mut client) = GatewayClient::connect(gateway.local_addr()) else {
        report.flood_sent = report.flood_sent.saturating_add(u64::from(requests));
        report.flood.wire_errors = report.flood.wire_errors.saturating_add(u64::from(requests));
        return;
    };
    for i in 0..requests {
        report.flood_sent = report.flood_sent.saturating_add(1);
        let id = 0x000F_100D_0000_u64.saturating_add(u64::from(i));
        match client.classify(tenant, id, 1_000, frame) {
            Ok(resp) => report.flood.record(&resp, None),
            Err(_) => report.flood.record_wire_error(),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;

    #[test]
    fn plan_grammar_round_trips() {
        let plan = ChaosPlan::parse(
            "kill:0@100; revive:0@400;slowloris@50+500;garbage@60;disconnect@70;flood:9@80x200",
        )
        .unwrap();
        assert_eq!(plan.events.len(), 6);
        // Sorted by firing time.
        let times: Vec<u64> = plan.events.iter().map(ChaosEvent::at_ms).collect();
        assert_eq!(times, vec![50, 60, 70, 80, 100, 400]);
        assert!(plan.events.contains(&ChaosEvent::Flood {
            tenant: 9,
            at_ms: 80,
            requests: 200
        }));
        assert!(plan.events.contains(&ChaosEvent::Slowloris {
            at_ms: 50,
            hold_ms: 500
        }));
    }

    #[test]
    fn empty_plan_is_fine_and_errors_are_typed() {
        assert_eq!(ChaosPlan::parse("").unwrap().events.len(), 0);
        assert_eq!(ChaosPlan::parse("  ;  ").unwrap().events.len(), 0);
        for bad in [
            "kill:0",
            "kill:x@100",
            "warp:0@100",
            "slowloris@50",
            "flood:9@80",
            "flood:9@80xnope",
            "nonsense",
        ] {
            let e = ChaosPlan::parse(bad).unwrap_err();
            assert!(!e.reason.is_empty(), "{bad} should fail with a reason");
            assert!(e.to_string().contains("bad chaos event"));
        }
    }
}
