//! The TCP front door: accept loop, per-connection protocol pump,
//! admission, dispatch, and the health prober.
//!
//! One thread per connection. Each connection runs a buffered decode
//! loop: bytes accumulate until [`decode_message`] yields a full
//! message, a typed decode error, or a timeout verdict. The failure
//! modes are all non-fatal to everyone but the offending client:
//!
//! * **malformed bytes** → one `BadRequest` response, connection closed,
//!   accept loop untouched (`gateway.decode_errors`);
//! * **slowloris** (bytes trickling mid-frame slower than
//!   `read_timeout`) → connection closed (`gateway.read_timeouts`); an
//!   *idle* connection between frames is fine and costs nothing;
//! * **mid-frame disconnect** → no response owed — the request never
//!   fully arrived (`gateway.disconnects`);
//! * **tenant flood** → the tenant's own token bucket throttles it;
//!   other tenants' admission is untouched.
//!
//! Every fully-decoded request gets exactly one response frame:
//! `gateway.responses == gateway.frames` is a checked invariant in the
//! fault-injection tests, with `bad_request` replies (to bytes that never
//! formed a frame) accounted separately.

use crate::protocol::{
    decode_message, encode_response, DecodeError, Message, RequestFrame, ResponseFrame, Status,
};
use crate::shard::{Router, ShardSpec};
use crate::tenant::{Admission, TenantPolicy, TenantTable};
use bcp_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use bcp_sync::Mutex;
use bcp_tensor::Tensor;
use bcp_trace::{Counter, Histogram, Registry};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deadline budget of one health probe.
const PROBE_BUDGET: Duration = Duration::from_millis(500);

/// Everything tunable about the front door.
#[derive(Clone)]
pub struct GatewayConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Deadline budget applied when a request says `deadline_ms == 0`.
    pub default_deadline: Duration,
    /// Read-tick granularity: a connection mid-frame that delivers no
    /// byte for this long is a slowloris and is cut; idle connections
    /// between frames are only polled at this cadence for shutdown.
    pub read_timeout: Duration,
    /// Admission limits for tenants without an override.
    pub tenant_policy: TenantPolicy,
    /// Per-tenant admission overrides.
    pub tenant_overrides: Vec<(u32, TenantPolicy)>,
    /// Health-probe cadence; bounds the rebalance window after a shard
    /// kill or revive.
    pub probe_interval: Duration,
    /// Frame the health prober classifies; must match the replicas'
    /// input shape. `None` — the default — takes shard 0's canary frame.
    pub probe_frame: Option<Tensor>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            default_deadline: Duration::from_secs(2),
            read_timeout: Duration::from_millis(100),
            tenant_policy: TenantPolicy::default(),
            tenant_overrides: Vec::new(),
            probe_interval: Duration::from_millis(50),
            probe_frame: None,
        }
    }
}

struct Ctx {
    cfg: GatewayConfig,
    /// The frame the prober (and a chaos flood) sends, resolved at start.
    probe: Tensor,
    router: Router,
    tenants: TenantTable,
    registry: Registry,
    start: Instant,
    shutdown: AtomicBool,
    active: AtomicU64,
    connections: Counter,
    frames: Counter,
    responses: Counter,
    bad_requests: Counter,
    decode_errors: Counter,
    read_timeouts: Counter,
    disconnects: Counter,
    latency: Histogram,
    /// Per-status response counters, pre-interned at startup so the
    /// response path never formats a metric name or takes the registry
    /// lock. Indexed by `Status as u8`.
    status_counters: [Counter; Status::ALL.len()],
}

impl Ctx {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn set_active(&self, delta: i64) {
        // ordering: Relaxed — a monitoring count only; no code makes
        // decisions from it, and the gauge tolerates momentary skew.
        let now = if delta >= 0 {
            self.active
                .fetch_add(delta.unsigned_abs(), Ordering::Relaxed)
                .saturating_add(delta.unsigned_abs())
        } else {
            // ordering: Relaxed — same monitoring-only count as above.
            self.active
                .fetch_sub(delta.unsigned_abs(), Ordering::Relaxed)
                .saturating_sub(delta.unsigned_abs())
        };
        self.registry
            .gauge("gateway.active_connections")
            .set(now as f64);
    }
}

/// A running gateway: accept loop + prober + N shards behind a router.
/// Dropping it shuts it down, so a caller that unwinds (a failed test
/// assert) leaves no thread behind.
pub struct Gateway {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    accept: Option<std::thread::JoinHandle<()>>,
    prober: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Gateway {
    /// Bind, stand up one shard per spec, and start serving. Every
    /// `gateway.*` and shard `serve.*` metric goes to `registry`, or to a
    /// registry of the gateway's own when `None`. Fails when it has
    /// neither a probe frame nor a shard to take one from.
    pub fn start(
        specs: Vec<ShardSpec>,
        cfg: GatewayConfig,
        registry: Option<Registry>,
    ) -> std::io::Result<Gateway> {
        let registry = registry.unwrap_or_default();
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let router = Router::new(specs, registry.clone());
        let probe = cfg.probe_frame.clone();
        let probe = probe.or_else(|| router.shards().first()?.canary_frame());
        let probe = probe.ok_or_else(|| std::io::Error::other("a gateway needs a shard"))?;
        let mut tenants = TenantTable::new(cfg.tenant_policy, Some(registry.clone()));
        for (t, p) in &cfg.tenant_overrides {
            tenants = tenants.with_override(*t, *p);
        }
        let ctx = Arc::new(Ctx {
            probe,
            router,
            tenants,
            start: Instant::now(),
            shutdown: AtomicBool::new(false),
            active: AtomicU64::new(0),
            connections: registry.counter("gateway.connections"),
            frames: registry.counter("gateway.frames"),
            responses: registry.counter("gateway.responses"),
            bad_requests: registry.counter("gateway.bad_requests"),
            decode_errors: registry.counter("gateway.decode_errors"),
            read_timeouts: registry.counter("gateway.read_timeouts"),
            disconnects: registry.counter("gateway.disconnects"),
            latency: registry.histogram("gateway.latency_ns"),
            status_counters: Status::ALL
                .map(|s| registry.counter(&format!("gateway.status.{}", s.name()))),
            registry,
            cfg,
        });
        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let ctx = Arc::clone(&ctx);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || accept_loop(&listener, &ctx, &conns))
        };
        let prober = {
            let ctx = Arc::clone(&ctx);
            std::thread::spawn(move || prober_loop(&ctx))
        };
        Ok(Gateway {
            addr,
            ctx,
            accept: Some(accept),
            prober: Some(prober),
            conns,
        })
    }

    /// Where clients connect.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shard router (chaos plans kill/revive through it).
    pub fn router(&self) -> &Router {
        &self.ctx.router
    }

    /// The frame the health prober classifies: [`GatewayConfig::probe_frame`]
    /// or, when that is `None`, shard 0's canary frame.
    pub fn probe_frame(&self) -> &Tensor {
        &self.ctx.probe
    }

    /// The metric registry this gateway reports into.
    pub fn registry(&self) -> &Registry {
        &self.ctx.registry
    }

    /// Stop accepting, join every connection, drain every shard: what
    /// dropping the gateway does, spelled out at the call site.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        // ordering: Relaxed — the flag is a shutdown request, observed by
        // loops at their next poll tick; no data is published under it.
        self.ctx.shutdown.store(true, Ordering::Relaxed);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.prober.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = std::mem::take(&mut *self.conns.lock());
        for h in handles {
            let _ = h.join();
        }
        for shard in self.ctx.router.shards() {
            shard.stop();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    ctx: &Arc<Ctx>,
    conns: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                // ordering: Relaxed — shutdown-flag poll; see `shutdown`.
                if ctx.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
        };
        // ordering: Relaxed — shutdown-flag poll; see `shutdown`.
        if ctx.shutdown.load(Ordering::Relaxed) {
            return;
        }
        ctx.connections.inc();
        ctx.set_active(1);
        let ctx2 = Arc::clone(ctx);
        let handle = std::thread::spawn(move || {
            serve_conn(stream, &ctx2);
            ctx2.set_active(-1);
        });
        conns.lock().push(handle);
    }
}

fn prober_loop(ctx: &Arc<Ctx>) {
    // ordering: Relaxed — shutdown-flag poll; see `shutdown`.
    while !ctx.shutdown.load(Ordering::Relaxed) {
        std::thread::sleep(ctx.cfg.probe_interval);
        for shard in ctx.router.shards() {
            shard.probe(&ctx.probe, PROBE_BUDGET);
        }
    }
}

/// One connection's lifetime: accumulate bytes, decode, dispatch, answer.
// bcp:hot-path — per-connection read/dispatch loop of the front door
fn serve_conn(mut stream: TcpStream, ctx: &Ctx) {
    let _ = stream.set_read_timeout(Some(ctx.cfg.read_timeout));
    let _ = stream.set_nodelay(true);
    // audit: allow(alloc): per-connection reassembly buffer, reused for
    // every frame on the connection.
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Drain every complete message already buffered.
        while !buf.is_empty() {
            match decode_message(&buf) {
                Ok((msg, used)) => {
                    buf.drain(..used);
                    if !handle_message(msg, &mut stream, ctx) {
                        return;
                    }
                }
                Err(DecodeError::Truncated { .. }) => break,
                Err(_) => {
                    // Typed protocol violation: answer once, hang up. The
                    // accept loop (and every other tenant) is unaffected.
                    ctx.decode_errors.inc();
                    ctx.bad_requests.inc();
                    let resp = ResponseFrame {
                        request_id: 0,
                        status: Status::BadRequest,
                        class: 0,
                        shard: 0,
                    };
                    let _ = stream.write_all(&encode_response(&resp));
                    return;
                }
            }
        }
        // ordering: Relaxed — shutdown-flag poll; see `Gateway::shutdown`.
        if ctx.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if !buf.is_empty() {
                    // Client vanished mid-frame: no request ever formed,
                    // so no response is owed.
                    ctx.disconnects.inc();
                }
                return;
            }
            Ok(n) => {
                // audit: allow(alloc, index): growth is bounded by one
                // validated frame (MAX_PAYLOAD) plus a read chunk; `n` is
                // the byte count `read` just returned, ≤ chunk.len().
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if !buf.is_empty() {
                    // Slowloris: mid-frame and silent for a full read
                    // tick. Cut it loose; idle clients (empty buffer)
                    // just loop and poll the shutdown flag.
                    ctx.read_timeouts.inc();
                    return;
                }
            }
            Err(_) => {
                if !buf.is_empty() {
                    ctx.disconnects.inc();
                }
                return;
            }
        }
    }
}

/// Handle one decoded message. Returns `false` when the connection
/// should close.
// bcp:hot-path — per-request admission → dispatch → response
fn handle_message(msg: Message, stream: &mut TcpStream, ctx: &Ctx) -> bool {
    match msg {
        Message::Request(req) => {
            ctx.frames.inc();
            let t0 = Instant::now();
            let resp = answer(&req, ctx);
            ctx.latency.record_duration(t0.elapsed());
            ctx.responses.inc();
            status_counter(ctx, resp.status);
            stream.write_all(&encode_response(&resp)).is_ok()
        }
        Message::MetricsDump => handle_metrics(stream, ctx),
    }
}

// audit: cold — metrics scrape, not request traffic.
fn handle_metrics(stream: &mut TcpStream, ctx: &Ctx) -> bool {
    let text = ctx.registry.render_text();
    let len = u32::try_from(text.len()).unwrap_or(u32::MAX);
    if stream.write_all(&len.to_le_bytes()).is_err() {
        return false;
    }
    stream.write_all(text.as_bytes()).is_ok()
}

/// Admission + dispatch for one decoded request.
// bcp:hot-path — the request path proper
fn answer(req: &RequestFrame, ctx: &Ctx) -> ResponseFrame {
    let refuse = |status: Status| ResponseFrame {
        request_id: req.request_id,
        status,
        class: 0,
        shard: 0,
    };
    match ctx.tenants.admit(req.tenant, ctx.now_ns()) {
        Admission::Admitted => {}
        Admission::Throttled => return refuse(Status::Throttled),
        Admission::QuotaExhausted => return refuse(Status::QuotaExhausted),
    }
    let budget = if req.deadline_ms == 0 {
        ctx.cfg.default_deadline
    } else {
        Duration::from_millis(u64::from(req.deadline_ms))
    };
    let deadline = Instant::now().checked_add(budget);
    let frame = req.pixel_tensor();
    let out = ctx
        .router
        .dispatch(req.tenant, &frame, deadline, req.request_id);
    ResponseFrame {
        request_id: req.request_id,
        status: out.status(),
        class: match out.result {
            Ok(class) => u8::try_from(class.label()).unwrap_or(u8::MAX),
            Err(_) => 0,
        },
        shard: u8::try_from(out.shard).unwrap_or(u8::MAX),
    }
}

// bcp:hot-path — per-response status accounting
fn status_counter(ctx: &Ctx, status: Status) {
    // audit: allow(index): Status::to_u8 < Status::ALL.len() by
    // construction; counters were pre-interned at startup.
    ctx.status_counters[status.to_u8() as usize].inc();
}
