//! Closed-loop load generator and its throughput/latency report.
//!
//! [`run_closed_loop`]: each client holds exactly one request in flight —
//! submit, wait, repeat (the classic benchmark-harness model, and gate
//! mode's camera setting — a camera cannot have two "current" frames). On
//! a single core every frame then pays a full round-trip thread wake
//! before the next can even be submitted. Offered load tracks service
//! capacity; saturation shows up as latency growth rather than unbounded
//! queueing. (Crowd mode's shape — a burst of tickets in flight per
//! client — is the frame-path benchmark's `engine_tiny` workload.)

use crate::config::ServeError;
use crate::engine::Engine;
use bcp_tensor::Tensor;
use std::time::{Duration, Instant};

/// Outcome tallies and latency distribution of one closed-loop run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests attempted (`clients × requests_per_client`).
    pub total: usize,
    /// Successful classifications.
    pub ok: usize,
    /// Refused at admission (`Rejected`).
    pub rejected: usize,
    /// Evicted from the queue (`Shed`).
    pub shed: usize,
    /// Deadline expiries (engine- or client-side).
    pub expired: usize,
    /// Every other failure: a worker fault, no healthy worker, shutdown,
    /// or a frame of the wrong shape.
    pub faulted: usize,
    /// Wall-clock time for the whole run.
    pub wall: Duration,
    /// Successful classifications per second of wall time.
    pub throughput_fps: f64,
    /// Median successful-request latency.
    pub p50: Duration,
    /// 95th-percentile successful-request latency.
    pub p95: Duration,
    /// 99th-percentile successful-request latency.
    pub p99: Duration,
    /// Worst successful-request latency.
    pub max: Duration,
}

impl LoadReport {
    /// Every attempted request resolved to exactly one outcome.
    pub fn accounted(&self) -> bool {
        self.ok
            .saturating_add(self.rejected)
            .saturating_add(self.shed)
            .saturating_add(self.expired)
            .saturating_add(self.faulted)
            == self.total
    }

    /// Human-readable multi-line summary for CLI output.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "clients {:>3}  requests {:>6}  wall {:>8.3}s  throughput {:>9.1} fps\n",
            self.clients,
            self.total,
            self.wall.as_secs_f64(),
            self.throughput_fps
        ));
        s.push_str(&format!(
            "outcomes   ok {}  rejected {}  shed {}  expired {}  faulted {}\n",
            self.ok, self.rejected, self.shed, self.expired, self.faulted
        ));
        s.push_str(&format!(
            "latency    p50 {:>8.3}ms  p95 {:>8.3}ms  p99 {:>8.3}ms  max {:>8.3}ms",
            self.p50.as_secs_f64() * 1e3,
            self.p95.as_secs_f64() * 1e3,
            self.p99.as_secs_f64() * 1e3,
            self.max.as_secs_f64() * 1e3,
        ));
        s
    }
}

/// Drive `engine` with `clients` concurrent closed-loop clients, each
/// issuing `requests_per_client` requests drawn round-robin from `frames`
/// (staggered per client so simultaneous clients don't all send the same
/// frame). Latency percentiles are exact, computed over every successful
/// request.
pub fn run_closed_loop(
    engine: &Engine,
    frames: &[Tensor],
    clients: usize,
    requests_per_client: usize,
) -> LoadReport {
    assert!(
        !frames.is_empty(),
        "load generator needs at least one frame"
    );
    assert!(clients > 0, "need at least one client");
    let started = Instant::now();
    let per_client: Vec<(Vec<u64>, [usize; 5])> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(requests_per_client);
                    // [ok, rejected, shed, expired, faulted]
                    let mut tally = [0usize; 5];
                    for i in 0..requests_per_client {
                        let idx = c
                            .saturating_add(i.saturating_mul(clients))
                            .checked_rem(frames.len())
                            .unwrap_or(0);
                        let frame = &frames[idx];
                        let t0 = Instant::now();
                        record_outcome(engine.classify(frame), t0, &mut latencies, &mut tally);
                    }
                    (latencies, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed();
    assemble_report(clients, requests_per_client, per_client, wall)
}

/// Tally one resolved request into the per-client accumulators.
fn record_outcome(
    outcome: Result<bcp_dataset::MaskClass, ServeError>,
    t0: Instant,
    latencies: &mut Vec<u64>,
    tally: &mut [usize; 5],
) {
    match outcome {
        Ok(_) => {
            latencies.push(t0.elapsed().as_nanos() as u64);
            tally[0] = tally[0].saturating_add(1);
        }
        Err(ServeError::Rejected) => tally[1] = tally[1].saturating_add(1),
        Err(ServeError::Shed) => tally[2] = tally[2].saturating_add(1),
        Err(ServeError::DeadlineExpired) => tally[3] = tally[3].saturating_add(1),
        Err(
            ServeError::WorkerFault { .. }
            | ServeError::NoHealthyWorkers
            | ServeError::ShuttingDown
            | ServeError::BadFrame,
        ) => tally[4] = tally[4].saturating_add(1),
    }
}

fn assemble_report(
    clients: usize,
    requests_per_client: usize,
    per_client: Vec<(Vec<u64>, [usize; 5])>,
    wall: Duration,
) -> LoadReport {
    let mut latencies: Vec<u64> = Vec::new();
    let mut tally = [0usize; 5];
    for (l, t) in per_client {
        latencies.extend(l);
        for (acc, v) in tally.iter_mut().zip(t) {
            *acc = acc.saturating_add(v);
        }
    }
    latencies.sort_unstable();
    let pct = |q: f64| Duration::from_nanos(bcp_trace::percentile(&latencies, q));
    LoadReport {
        clients,
        total: clients.saturating_mul(requests_per_client),
        ok: tally[0],
        rejected: tally[1],
        shed: tally[2],
        expired: tally[3],
        faulted: tally[4],
        wall,
        throughput_fps: tally[0] as f64 / wall.as_secs_f64().max(1e-9),
        p50: pct(0.50),
        p95: pct(0.95),
        p99: pct(0.99),
        max: latencies
            .last()
            .copied()
            .map_or(Duration::ZERO, Duration::from_nanos),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BackpressurePolicy, ServeConfig};
    use crate::replica::{canary_frame, SyntheticReplica};
    use bcp_trace::Registry;

    #[test]
    fn closed_loop_accounts_for_every_request() {
        let e = Engine::start(
            vec![SyntheticReplica::new(), SyntheticReplica::new()],
            ServeConfig::default(),
            Registry::new(),
        );
        let frames: Vec<Tensor> = (0..8)
            .map(|i| canary_frame(3, 8, 8).map(|v| v + i as f32))
            .collect();
        let report = run_closed_loop(&e, &frames, 4, 25);
        assert!(report.accounted());
        assert_eq!(report.ok, 100, "lossless config: every request succeeds");
        assert!(report.throughput_fps > 0.0);
        assert!(report.p50 <= report.p99 && report.p99 <= report.max);
        let rendered = report.render_text();
        assert!(rendered.contains("throughput") && rendered.contains("p99"));
    }

    #[test]
    fn overloaded_reject_run_still_accounts() {
        let e = Engine::start(
            vec![SyntheticReplica::with_delay(Duration::from_millis(2))],
            ServeConfig {
                queue_cap: 2,
                max_batch: 1,
                policy: BackpressurePolicy::Reject,
                ..ServeConfig::default()
            },
            Registry::new(),
        );
        let frames = vec![canary_frame(3, 8, 8)];
        let report = run_closed_loop(&e, &frames, 6, 10);
        assert!(report.accounted());
        assert!(report.ok > 0);
    }
}
