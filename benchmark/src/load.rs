//! Closed-loop clients, one per way of reaching the network, and the
//! driver that runs them for a fixed time.
//!
//! Every client checks each answer against the oracle's label for that
//! pool frame; a mismatch or any outcome other than `Ok` is a failed
//! answer. Inputs and results pass through `black_box`.

use crate::setup::{Fixture, DEADLINE_MS, POOL};
use crate::spans::{Recorder, Span};
use crate::stats::{percentile, Rng};
use bcp_gateway::{GatewayClient, Router, Status};
use bcp_serve::{Engine, Ticket};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One timed call: when it completed on the run's clock, how long it
/// took, how many answers it carried and how many of those failed.
pub struct Sample {
    pub done_ns: u64,
    pub lat_ns: u64,
    pub answers: u32,
    pub failed: u32,
}

pub trait Client: Send {
    /// One closed-loop step: issue, wait for the verdict, record.
    fn op(&mut self, clock: Instant, out: &mut Vec<Sample>);
    /// Spans recorded so far, when this client traces.
    fn take_spans(&mut self) -> Vec<Span> {
        Vec::new()
    }
}

fn sample(clock: Instant, t0: Instant, answers: usize, failed: usize) -> Sample {
    let lat_ns = t0.elapsed().as_nanos() as u64;
    Sample {
        done_ns: clock.elapsed().as_nanos() as u64,
        lat_ns,
        answers: answers as u32,
        failed: failed as u32,
    }
}

/// Calls the predictor in the calling thread: `classify` one frame at a
/// time, or `classify_block` on `block` consecutive pool frames.
pub struct DirectClient<'a> {
    fx: &'a Fixture,
    block: Option<usize>,
    rng: Rng,
}

impl<'a> DirectClient<'a> {
    pub fn new(fx: &'a Fixture, block: Option<usize>, seed: u64) -> Self {
        DirectClient {
            fx,
            block,
            rng: Rng::new(seed, 1),
        }
    }
}

impl Client for DirectClient<'_> {
    fn op(&mut self, clock: Instant, out: &mut Vec<Sample>) {
        let fx = self.fx;
        match self.block {
            None => {
                let i = self.rng.below(POOL);
                let t0 = Instant::now();
                let class = black_box(fx.predictor.classify(black_box(&fx.frames[i])));
                out.push(sample(clock, t0, 1, usize::from(class != fx.expected[i])));
            }
            Some(b) => {
                let at = self.rng.below(POOL - b + 1);
                let t0 = Instant::now();
                let got = black_box(
                    fx.predictor
                        .classify_block(black_box(&fx.frames[at..at + b])),
                );
                let s = sample(clock, t0, b, 0);
                let right = got
                    .iter()
                    .zip(&fx.expected[at..at + b])
                    .filter(|(g, e)| g == e)
                    .count();
                out.push(Sample {
                    failed: (b - right) as u32,
                    ..s
                });
            }
        }
    }
}

/// Submits `depth` frames to the engine together and collects them
/// together; latency is per ticket, submit to `Ticket::wait`.
pub struct EngineClient<'a> {
    fx: &'a Fixture,
    engine: &'a Engine,
    depth: usize,
    rng: Rng,
    tickets: Vec<(Ticket, Instant, usize)>,
    rec: Option<Recorder>,
}

impl<'a> EngineClient<'a> {
    pub fn new(
        fx: &'a Fixture,
        engine: &'a Engine,
        depth: usize,
        seed: u64,
        client: u64,
        rec: Option<Recorder>,
    ) -> Self {
        EngineClient {
            fx,
            engine,
            depth,
            rng: Rng::new(seed, 2 + client),
            tickets: Vec::with_capacity(depth),
            rec,
        }
    }
}

impl Client for EngineClient<'_> {
    fn op(&mut self, clock: Instant, out: &mut Vec<Sample>) {
        let fx = self.fx;
        let (op, op_start) = match &mut self.rec {
            Some(r) => (r.id(), r.now()),
            None => (0, 0),
        };
        for _ in 0..self.depth {
            let i = self.rng.below(POOL);
            let t0 = Instant::now();
            let frame = black_box(&fx.frames[i]);
            let submitted = match &mut self.rec {
                Some(r) => {
                    r.time("serve.submit", op, op, || self.engine.submit(frame))
                        .0
                }
                None => self.engine.submit(frame),
            };
            match submitted {
                Ok(ticket) => self.tickets.push((ticket, t0, i)),
                Err(_) => out.push(sample(clock, t0, 1, 1)),
            }
        }
        for (ticket, t0, i) in self.tickets.drain(..) {
            let outcome = match &mut self.rec {
                Some(r) => r.time("serve.wait", op, op, || ticket.wait()).0,
                None => ticket.wait(),
            };
            let failed = black_box(outcome) != Ok(fx.expected[i]);
            out.push(sample(clock, t0, 1, usize::from(failed)));
        }
        if let Some(r) = &mut self.rec {
            let end_ns = r.now();
            r.push(Span {
                id: op,
                parent: 0,
                op,
                name: "client.crowd_frame",
                start_ns: op_start,
                end_ns,
                replayed: false,
            });
        }
    }

    fn take_spans(&mut self) -> Vec<Span> {
        self.rec
            .as_mut()
            .map_or_else(Vec::new, |r| std::mem::take(&mut r.spans))
    }
}

/// One gateway connection with one request in flight; latency is request
/// write to response read.
pub struct WireClient<'a> {
    fx: &'a Fixture,
    conn: GatewayClient,
    tenant: u32,
    next_id: u64,
    rng: Rng,
    rec: Option<Recorder>,
}

impl<'a> WireClient<'a> {
    pub fn connect(
        fx: &'a Fixture,
        addr: std::net::SocketAddr,
        tenant: u32,
        seed: u64,
        client: u64,
        rec: Option<Recorder>,
    ) -> Self {
        WireClient {
            fx,
            conn: GatewayClient::connect(addr).expect("connect to the gateway on loopback"),
            tenant,
            next_id: client << 40,
            rng: Rng::new(seed, 2 + client),
            rec,
        }
    }
}

impl Client for WireClient<'_> {
    fn op(&mut self, clock: Instant, out: &mut Vec<Sample>) {
        let fx = self.fx;
        let i = self.rng.below(POOL);
        let id = self.next_id;
        self.next_id += 1;
        let frame = black_box(&fx.frames[i]);
        let (tenant, conn) = (self.tenant, &mut self.conn);
        let t0 = Instant::now();
        let resp = match &mut self.rec {
            Some(r) => {
                r.time("gateway.round_trip", 0, id, || {
                    conn.classify(tenant, id, DEADLINE_MS, frame)
                })
                .0
            }
            None => conn.classify(tenant, id, DEADLINE_MS, frame),
        };
        let s = sample(clock, t0, 1, 0);
        let ok = match black_box(resp) {
            Ok(r) => {
                r.status == Status::Ok
                    && r.request_id == id
                    && usize::from(r.class) == fx.expected[i].label()
            }
            Err(_) => {
                // A broken connection fails every later request at once;
                // do not let that loop spin.
                std::thread::sleep(Duration::from_millis(1));
                false
            }
        };
        out.push(Sample {
            failed: u32::from(!ok),
            ..s
        });
    }

    fn take_spans(&mut self) -> Vec<Span> {
        self.rec
            .as_mut()
            .map_or_else(Vec::new, |r| std::mem::take(&mut r.spans))
    }
}

/// The gateway's router called in-process, one request in flight: what a
/// wire request costs without codec, sockets, connection thread and
/// admission.
pub struct RouterClient<'a> {
    pub fx: &'a Fixture,
    pub router: &'a Router,
    pub tenant: u32,
    pub next_id: u64,
    pub rng: Rng,
}

impl Client for RouterClient<'_> {
    fn op(&mut self, clock: Instant, out: &mut Vec<Sample>) {
        let fx = self.fx;
        let i = self.rng.below(POOL);
        self.next_id += 1;
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_millis(u64::from(DEADLINE_MS));
        let outcome = black_box(self.router.dispatch(
            self.tenant,
            black_box(&fx.frames[i]),
            Some(deadline),
            self.next_id,
        ));
        let failed = outcome.result != Ok(fx.expected[i]);
        out.push(sample(clock, t0, 1, usize::from(failed)));
    }
}

/// `threads` engine clients with `depth` tickets in flight each; with an
/// `epoch` they record spans on that clock.
pub fn engine_clients<'a>(
    fx: &'a Fixture,
    engine: &'a Engine,
    (threads, depth): (usize, usize),
    seed: u64,
    epoch: Option<Instant>,
) -> Vec<Box<dyn Client + 'a>> {
    (0..threads as u64)
        .map(|c| {
            let rec = epoch.map(|e| Recorder::new(e, 1 + c));
            Box::new(EngineClient::new(fx, engine, depth, seed, c, rec)) as Box<dyn Client>
        })
        .collect()
}

/// One gateway connection per tenant, numbered from `first` so that
/// request ids stay unique across sets of clients; with an `epoch` they
/// record spans on that clock.
pub fn wire_clients<'a>(
    fx: &'a Fixture,
    addr: std::net::SocketAddr,
    tenants: &[u32],
    seed: u64,
    first: u64,
    epoch: Option<Instant>,
) -> Vec<Box<dyn Client + 'a>> {
    tenants
        .iter()
        .zip(first..)
        .map(|(&tenant, c)| {
            let rec = epoch.map(|e| Recorder::new(e, 1 + c));
            Box::new(WireClient::connect(fx, addr, tenant, seed, c, rec)) as Box<dyn Client>
        })
        .collect()
}

/// Run every client on its own thread until `duration` has passed, and
/// return all samples. `tick` runs on the calling thread every few
/// milliseconds meanwhile (the traced engine run drains its rings there).
pub fn drive(
    clients: &mut [Box<dyn Client + '_>],
    duration: Duration,
    tick: &mut dyn FnMut(),
) -> Vec<Sample> {
    let clock = Instant::now();
    let mut all = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while clock.elapsed() < duration {
                        client.op(clock, &mut out);
                    }
                    out
                })
            })
            .collect();
        while !handles.iter().all(|h| h.is_finished()) {
            tick();
            std::thread::sleep(Duration::from_millis(5));
        }
        for h in handles {
            all.extend(h.join().expect("client thread panicked"));
        }
    });
    all
}

/// Rounds a measured window is cut into, and the share of them that is
/// kept: the calm sixteenth. At 20 s a round lasts an eighth of a second,
/// long enough to hold the program's own periodic work (a gateway probe
/// every 50 ms, a canary per batch) and short enough that ten of them are
/// found between the host's disturbances.
pub const ROUNDS: usize = 160;
pub const CALM: usize = 16;

/// What a measured window of samples amounts to.
///
/// The host runs in two modes: calls take either their usual time or
/// about 1.5 times it, for a fraction of a second up to minutes at a time
/// (see the README). A disturbance only ever slows a call down, so the
/// fast end of a run is its steady end. The window's calls, in completion
/// order, are cut into [`ROUNDS`] rounds of equal work; a round lasts from
/// the completion before its first call to that of its last. The rounds
/// are ranked by duration and the reported values come from the calm
/// sixteenth: the shortest `1/CALM` of them.
pub struct Summary {
    pub attempted: u64,
    pub failed: u64,
    /// Rounds in the calm sixteenth, and timed calls in them.
    pub calm_rounds: usize,
    pub calm_calls: usize,
    /// Correct answers per second, and the median latency over the pooled
    /// calls, of the calm sixteenth.
    pub fps: f64,
    pub p50_ms: f64,
    /// Correct answers per second of every round, in time order.
    pub round_fps: Vec<f64>,
    /// Over every call of the window, disturbed or not.
    pub all_p50_ms: f64,
    pub all_p95_ms: f64,
    pub all_p99_ms: f64,
    pub max_ms: f64,
}

/// Summarize the calls completed in `[warmup, warmup + window)`; the rest
/// are warm-up or tail and count nowhere. `burst` is how many calls the
/// clients have in flight together: those complete within microseconds of
/// each other when a batch is delivered, so a round holds several bursts,
/// or the shortest rounds would be the gaps inside one.
pub fn summarize(samples: &[Sample], warmup: Duration, window: Duration, burst: usize) -> Summary {
    let w = warmup.as_nanos() as u64;
    let end = w + window.as_nanos() as u64;
    let mut order: Vec<&Sample> = samples.iter().filter(|s| s.done_ns < end).collect();
    order.sort_by_key(|s| s.done_ns);
    let first = order.partition_point(|s| s.done_ns < w);
    // The window opens at the last completion of the warm-up.
    let mut opened = first.checked_sub(1).map_or(w, |i| order[i].done_ns);
    let calls = &order[first..];

    struct Round {
        ns: u64,
        right: u64,
        lat: Vec<u64>,
    }
    let per_round = (calls.len() / ROUNDS).max(8 * burst);
    let mut rounds: Vec<Round> = Vec::new();
    for chunk in calls.chunks_exact(per_round).take(ROUNDS) {
        let closed = chunk[chunk.len() - 1].done_ns;
        rounds.push(Round {
            ns: (closed - opened).max(1),
            right: chunk.iter().map(|s| u64::from(s.answers - s.failed)).sum(),
            lat: chunk.iter().map(|s| s.lat_ns).collect(),
        });
        opened = closed;
    }
    let round_fps = rounds
        .iter()
        .map(|r| r.right as f64 * 1e9 / r.ns as f64)
        .collect();

    let mut all: Vec<u64> = calls.iter().map(|s| s.lat_ns).collect();
    all.sort_unstable();
    rounds.sort_by_key(|r| r.ns);
    rounds.truncate(rounds.len().div_ceil(CALM));
    let mut calm: Vec<u64> = rounds.iter().flat_map(|r| r.lat.iter().copied()).collect();
    calm.sort_unstable();
    let (right, ns): (u64, u64) = rounds
        .iter()
        .fold((0, 0), |(a, t), r| (a + r.right, t + r.ns));
    let ms = |ns: u64| ns as f64 / 1e6;
    Summary {
        attempted: calls.iter().map(|s| u64::from(s.answers)).sum(),
        failed: calls.iter().map(|s| u64::from(s.failed)).sum(),
        calm_rounds: rounds.len(),
        calm_calls: calm.len(),
        fps: right as f64 * 1e9 / ns.max(1) as f64,
        p50_ms: ms(percentile(&calm, 0.50)),
        round_fps,
        all_p50_ms: ms(percentile(&all, 0.50)),
        all_p95_ms: ms(percentile(&all, 0.95)),
        all_p99_ms: ms(percentile(&all, 0.99)),
        max_ms: ms(all.last().copied().unwrap_or(0)),
    }
}

/// Several short slices of one phase, run between slices of other phases
/// so that all phases see the same host conditions, joined into one
/// window: `keep` appends a slice's samples minus its warm-up.
pub struct Slices {
    samples: Vec<Sample>,
    kept_ns: u64,
}

impl Slices {
    pub fn new() -> Slices {
        Slices {
            samples: Vec::new(),
            kept_ns: 0,
        }
    }

    pub fn keep(&mut self, slice: Vec<Sample>, warmup: Duration, len: Duration) {
        let (w, end) = (warmup.as_nanos() as u64, len.as_nanos() as u64);
        let offset = self.kept_ns;
        self.samples.extend(
            slice
                .into_iter()
                .filter(|s| s.done_ns >= w && s.done_ns < end)
                .map(|s| Sample {
                    done_ns: s.done_ns - w + offset,
                    ..s
                }),
        );
        self.kept_ns += end - w;
    }

    pub fn summary(&self, burst: usize) -> Summary {
        summarize(
            &self.samples,
            Duration::ZERO,
            Duration::from_nanos(self.kept_ns),
            burst,
        )
    }
}
