//! Shard handles and the consistent-hash router with deadline-bounded
//! failover.
//!
//! A **shard** is one independent [`Engine`] instance with its own
//! replica pool — capacity scales by process-like unit, not just by
//! worker thread. The gateway owns N shards behind [`Router`], which
//! consistent-hashes tenants onto them so a tenant's traffic has an
//! affinity shard (warm batches) but every tenant also has a total
//! preference order over all shards for failover.
//!
//! A shard keeps its engine as a `bcp-sync` `Mutex<Option<Arc<Engine>>>`:
//! a request clones the `Arc` out and submits with no lock held, kill takes
//! the `Option` and shuts the engine down unlocked, revive puts one in.
//!
//! Failure handling is layered:
//! * each shard publishes an Up/Suspect/Down byte ([`ShardStateCell`],
//!   same single-writer-ish relaxed-atomic pattern as the engine's
//!   `WorkerStateCell`);
//! * a health prober (driven by the server) classifies a canary frame
//!   against each shard on a fixed interval, promoting Suspect → Up and
//!   demoting unresponsive shards to Down — this bounds the rebalance
//!   window after a kill or a revive to one probe interval;
//! * dispatch itself walks the tenant's preference order with
//!   jittered exponential backoff between attempts, every attempt and
//!   every backoff bounded by the request's remaining deadline budget, so
//!   retries can never spend more time than the client offered.

use crate::protocol::Status;
use bcp_dataset::MaskClass;
use bcp_serve::{Engine, Replica, ServeConfig, ServeError};
use bcp_sync::atomic::{AtomicU8, Ordering};
use bcp_sync::Mutex;
use bcp_tensor::Tensor;
use bcp_trace::{Counter, Gauge, Registry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Virtual nodes per shard on the consistent-hash ring.
const VNODES: usize = 16;

/// First backoff step of the failover retry loop, in ns (200 µs).
const BACKOFF_BASE_NS: u64 = 200_000;

/// How a shard builds (and rebuilds) its replica pool. The factory is the
/// revive path: after a kill, calling it again stands up a fresh pool.
#[derive(Clone)]
pub struct ShardSpec {
    /// Replica pool factory.
    pub make: Arc<dyn Fn() -> Vec<Box<dyn Replica>> + Send + Sync>,
    /// Engine configuration for this shard.
    pub cfg: ServeConfig,
}

impl ShardSpec {
    /// Spec serving `workers` synthetic replicas — the model-free
    /// configuration used by tests and the chaos harness.
    pub fn synthetic(workers: usize, cfg: ServeConfig) -> ShardSpec {
        ShardSpec {
            make: Arc::new(move || {
                (0..workers)
                    .map(|_| Box::new(bcp_serve::SyntheticReplica::new()) as Box<dyn Replica>)
                    .collect()
            }),
            cfg,
        }
    }
}

/// Health of one shard, as seen by the router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ShardState {
    /// Serving; preferred by dispatch.
    Up = 0,
    /// Freshly revived or recently faulted; dispatch uses it only when no
    /// Up shard accepts, and the prober decides its fate.
    Suspect = 1,
    /// Not serving (killed or failed probes); skipped until revived.
    Down = 2,
}

impl ShardState {
    fn from_u8(b: u8) -> ShardState {
        match b {
            0 => ShardState::Up,
            1 => ShardState::Suspect,
            _ => ShardState::Down,
        }
    }
}

/// Lock-free shard-state byte, mirroring `WorkerStateCell` in bcp-serve.
pub struct ShardStateCell(AtomicU8);

impl ShardStateCell {
    /// Cell starting in `state`.
    pub fn new(state: ShardState) -> ShardStateCell {
        ShardStateCell(AtomicU8::new(state as u8))
    }

    /// Current state.
    pub fn load(&self) -> ShardState {
        // ordering: Relaxed — the byte carries no payload to acquire;
        // dispatch needs only *some* recent value and tolerates bounded
        // staleness (a stale Up costs one failed attempt, which failover
        // absorbs).
        ShardState::from_u8(self.0.load(Ordering::Relaxed))
    }

    /// Transition to `state`.
    pub fn store(&self, state: ShardState) {
        // ordering: Relaxed — state transitions publish no associated
        // data; the engine swap they describe is separately synchronized
        // through the shard's engine mutex.
        self.0.store(state as u8, Ordering::Relaxed);
    }
}

/// One engine instance plus its health state and lifecycle (kill/revive).
pub struct Shard {
    id: usize,
    spec: ShardSpec,
    /// `None` while killed. Held only to clone the `Arc` out or to swap
    /// the engine, never across a `submit` (which may park under `Block`).
    engine: Mutex<Option<Arc<Engine>>>,
    state: ShardStateCell,
    registry: Registry,
    state_gauge: Gauge,
    dispatched: Counter,
    ok: Counter,
    failed: Counter,
    probes: Counter,
    probe_failures: Counter,
    killed: Counter,
    revived: Counter,
}

impl Shard {
    // audit: cold — shard construction happens once at gateway start (and
    // on revive), never per request.
    fn start(id: usize, spec: ShardSpec, registry: Registry) -> Shard {
        let engine = Engine::start((spec.make)(), spec.cfg.clone(), registry.clone());
        let c = |suffix: &str| registry.counter(&format!("gateway.shard.{id}.{suffix}"));
        let shard = Shard {
            id,
            spec,
            engine: Mutex::new(Some(Arc::new(engine))),
            state: ShardStateCell::new(ShardState::Up),
            state_gauge: registry.gauge(&format!("gateway.shard.{id}.state")),
            dispatched: c("dispatched"),
            ok: c("ok"),
            failed: c("failed"),
            probes: c("probes"),
            probe_failures: c("probe_failures"),
            killed: c("killed"),
            revived: c("revived"),
            registry,
        };
        shard.publish_state(ShardState::Up);
        shard
    }

    /// Shard index within the router.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Its engine's canary frame, a frame of the shape it takes; `None`
    /// while killed.
    pub fn canary_frame(&self) -> Option<Tensor> {
        self.engine
            .lock()
            .as_ref()
            .map(|e| e.canary_frame().clone())
    }

    /// Current health state.
    pub fn state(&self) -> ShardState {
        self.state.load()
    }

    fn publish_state(&self, state: ShardState) {
        self.state.store(state);
        // audit: allow(cast): unit-only enum, discriminants 0..=2; both
        // casts are lossless.
        self.state_gauge.set(state as u8 as f64);
    }

    /// Submit one frame and wait for its completion, all bounded by
    /// `deadline`. The engine is cloned out of its mutex first, so no lock
    /// is held while the submit parks on a full queue or the ticket waits,
    /// and [`kill`](Shard::kill) never queues behind a request in flight.
    // bcp:hot-path — per-request shard submission on the dispatch path
    pub fn classify_with_deadline(
        &self,
        frame: &Tensor,
        deadline: Option<Instant>,
    ) -> Result<MaskClass, ServeError> {
        self.dispatched.inc();
        // audit: allow(block): shard-lifecycle mutex; held for one `Arc`
        // clone per request, contended only by kill/revive.
        let engine = self.engine.lock().as_ref().map(Arc::clone);
        let submitted = engine
            .ok_or(ServeError::ShuttingDown)
            .and_then(|e| e.submit_with_deadline(frame, deadline));
        let ticket = match submitted {
            Ok(t) => t,
            Err(e) => {
                self.failed.inc();
                return Err(e);
            }
        };
        // audit: allow(block): the whole point — park this connection's
        // thread until its completion arrives, bounded by the deadline
        // the engine enforces; other connections have their own threads.
        match ticket.wait() {
            Ok(class) => {
                self.ok.inc();
                Ok(class)
            }
            Err(e) => {
                self.failed.inc();
                Err(e)
            }
        }
    }

    /// Hard-stop this shard (chaos hook): mark Down, take the engine out
    /// of service, and drain it. In-flight tickets still resolve — the
    /// engine's drain path guarantees exactly-one-response — but new
    /// submissions refuse with `ShuttingDown` and fail over.
    // audit: cold — chaos/lifecycle operation, never on the request path.
    pub fn kill(&self) {
        self.stop();
        self.killed.inc();
    }

    /// Orderly removal from service (gateway shutdown): identical drain
    /// semantics to [`Shard::kill`], but not counted as a kill — the
    /// `gateway.shard.<id>.killed` ledger records only chaos/operator
    /// kills, so tests can assert on it exactly.
    /// audit: cold — lifecycle operation, never on the request path.
    pub fn stop(&self) {
        self.publish_state(ShardState::Down);
        // Out of the mutex first: from here new requests see no engine and
        // fail over, and `shutdown` (close, drain, join) runs unlocked.
        let engine = self.engine.lock().take();
        if let Some(e) = engine {
            e.shutdown();
        }
    }

    /// Rebuild the replica pool from the spec and return to service as
    /// Suspect; the next successful health probe promotes it to Up.
    // audit: cold — chaos/lifecycle operation, never on the request path.
    pub fn revive(&self) {
        let engine = Engine::start(
            (self.spec.make)(),
            self.spec.cfg.clone(),
            self.registry.clone(),
        );
        *self.engine.lock() = Some(Arc::new(engine));
        self.publish_state(ShardState::Suspect);
        self.revived.inc();
    }

    /// One health probe: classify `frame` within `budget`. Success
    /// promotes to Up, failure demotes to Down. Returns the verdict.
    // audit: cold — runs on the prober thread at probe_interval, not per
    // request.
    pub fn probe(&self, frame: &Tensor, budget: Duration) -> bool {
        self.probes.inc();
        let deadline = Instant::now().checked_add(budget);
        let healthy = self.classify_with_deadline(frame, deadline).is_ok();
        match (healthy, self.state.load()) {
            (true, ShardState::Up) => {}
            (true, _) => self.publish_state(ShardState::Up),
            (false, _) => {
                self.probe_failures.inc();
                self.publish_state(ShardState::Down);
            }
        }
        healthy
    }
}

/// SplitMix64 — the ring and tenant hash. Deterministic across runs.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Xorshift64* jitter source for backoff, seeded per (request, attempt)
/// so retry timing is deterministic given the request id.
fn jitter(seed: u64) -> u64 {
    let mut x = seed | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x.wrapping_mul(0x2545f4914f6cdd1d)
}

/// Everything dispatch learned about one request's journey.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchOutcome {
    /// The answer, or the wire status explaining the refusal.
    pub result: Result<MaskClass, Status>,
    /// Shard that answered (or the last one tried).
    pub shard: usize,
    /// Total submission attempts (1 = no failover).
    pub attempts: u32,
}

impl DispatchOutcome {
    /// Wire status for this outcome.
    pub fn status(&self) -> Status {
        match self.result {
            Ok(_) => Status::Ok,
            Err(s) => s,
        }
    }
}

/// Consistent-hash router over a fixed shard set.
pub struct Router {
    shards: Vec<Arc<Shard>>,
    /// Sorted hash ring of (point, shard index).
    ring: Vec<(u64, usize)>,
    failovers: Counter,
    retries: Counter,
}

impl Router {
    /// Stand up one shard per spec and hash them onto a ring with
    /// `VNODES` virtual nodes each.
    // audit: cold — router construction happens once at gateway start.
    pub fn new(specs: Vec<ShardSpec>, registry: Registry) -> Router {
        let shards: Vec<Arc<Shard>> = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| Arc::new(Shard::start(i, spec, registry.clone())))
            .collect();
        let mut ring = Vec::with_capacity(shards.len().saturating_mul(VNODES));
        for i in 0..shards.len() {
            for v in 0..VNODES {
                let point = splitmix64(((i as u64) << 32) | v as u64);
                ring.push((point, i));
            }
        }
        ring.sort_unstable();
        Router {
            shards,
            ring,
            failovers: registry.counter("gateway.failovers"),
            retries: registry.counter("gateway.retries"),
        }
    }

    /// The shard set (chaos and probing iterate it).
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// A tenant's full preference order: walk the ring clockwise from the
    /// tenant's hash point, collecting each distinct shard once.
    // bcp:hot-path — computed per request to pick the affinity shard
    pub fn preference(&self, tenant: u32) -> Vec<usize> {
        // audit: allow(alloc): order vector is bounded by the shard count
        // (single digits), reused for the whole retry walk.
        let mut order = Vec::with_capacity(self.shards.len());
        if self.ring.is_empty() {
            return order;
        }
        let h = splitmix64(tenant as u64);
        let start = self.ring.partition_point(|&(p, _)| p < h);
        for step in 0..self.ring.len() {
            let at = start.saturating_add(step).checked_rem(self.ring.len());
            let Some(at) = at else { break };
            // audit: allow(index): `at < ring.len()` by the mod above.
            let (_, shard) = self.ring[at];
            if !order.contains(&shard) {
                // audit: allow(alloc): push into the pre-sized order vector.
                order.push(shard);
                if order.len() == self.shards.len() {
                    break;
                }
            }
        }
        order
    }

    /// Route one admitted frame: try the tenant's preference order, Up
    /// shards first, then everything as a last resort, with jittered
    /// exponential backoff between attempts — all bounded by `deadline`.
    // bcp:hot-path — per-request dispatch and failover loop
    pub fn dispatch(
        &self,
        tenant: u32,
        frame: &Tensor,
        deadline: Option<Instant>,
        request_id: u64,
    ) -> DispatchOutcome {
        let order = self.preference(tenant);
        if order.is_empty() {
            return DispatchOutcome {
                result: Err(Status::NoHealthyShard),
                shard: 0,
                attempts: 0,
            };
        }
        // audit: allow(alloc): attempt plan is 2× the shard count at most.
        let mut plan = Vec::with_capacity(order.len().saturating_mul(2));
        for &s in &order {
            // audit: allow(index): preference() yields indices < shards.len().
            if self.shards[s].state() == ShardState::Up {
                // audit: allow(alloc): push into the pre-sized plan vector.
                plan.push(s);
            }
        }
        // Last-resort pass: every shard in preference order, regardless
        // of advertised state — a stale Down must not lose a request the
        // shard could still answer.
        plan.extend_from_slice(&order);

        let mut attempts: u32 = 0;
        let mut last: Option<(ServeError, usize)> = None;
        for (i, &s) in plan.iter().enumerate() {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    break;
                }
            }
            if attempts > 0 {
                self.retries.inc();
                self.backoff(attempts, request_id, deadline);
            }
            attempts = attempts.saturating_add(1);
            // audit: allow(index): plan holds indices < shards.len().
            match self.shards[s].classify_with_deadline(frame, deadline) {
                Ok(class) => {
                    if i > 0 {
                        self.failovers.inc();
                    }
                    return DispatchOutcome {
                        result: Ok(class),
                        shard: s,
                        attempts,
                    };
                }
                // The budget is spent, or the frame is one no shard takes:
                // retrying elsewhere cannot help.
                Err(e @ (ServeError::DeadlineExpired | ServeError::BadFrame)) => {
                    return DispatchOutcome {
                        result: Err(Status::from_serve_error(&e)),
                        shard: s,
                        attempts,
                    };
                }
                Err(e) => {
                    // audit: allow(index): plan holds indices < shards.len().
                    let hit = &self.shards[s];
                    match e {
                        ServeError::ShuttingDown | ServeError::NoHealthyWorkers => {
                            hit.publish_state(ShardState::Down);
                        }
                        ServeError::WorkerFault { .. } if hit.state() == ShardState::Up => {
                            hit.publish_state(ShardState::Suspect);
                        }
                        // Queue-full refusals are overload, not illness.
                        _ => {}
                    }
                    last = Some((e, s));
                }
            }
        }
        let (status, shard) = match last {
            // Every attempt refused because engines were gone: the
            // gateway as a whole has no healthy shard.
            Some((ServeError::ShuttingDown | ServeError::NoHealthyWorkers, s)) => {
                (Status::NoHealthyShard, s)
            }
            Some((e, s)) => (Status::from_serve_error(&e), s),
            // Deadline elapsed before the first attempt.
            // audit: allow(index): order verified non-empty at entry.
            None => (Status::DeadlineExpired, order[0]),
        };
        DispatchOutcome {
            result: Err(status),
            shard,
            attempts,
        }
    }

    /// Sleep `BACKOFF_BASE_NS × 2^(attempt-1)` plus up to 50% deterministic jitter,
    /// clamped so the nap never outlives the remaining deadline.
    fn backoff(&self, attempt: u32, request_id: u64, deadline: Option<Instant>) {
        let exp = attempt.saturating_sub(1).min(6);
        let nap_ns = BACKOFF_BASE_NS.saturating_mul(1u64 << exp);
        let j = jitter(request_id ^ u64::from(attempt));
        let jitter_ns = nap_ns / 2;
        let jitter_ns = if jitter_ns == 0 {
            0
        } else {
            j.checked_rem(jitter_ns).unwrap_or(0)
        };
        let mut nap = Duration::from_nanos(nap_ns.saturating_add(jitter_ns));
        if let Some(d) = deadline {
            let remaining = d.saturating_duration_since(Instant::now());
            nap = nap.min(remaining);
        }
        if !nap.is_zero() {
            // audit: allow(block): deliberate jittered failover backoff,
            // strictly bounded by the request's remaining deadline.
            std::thread::sleep(nap);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;
    use bcp_serve::canary_frame;

    fn router(n: usize) -> Router {
        let specs = (0..n)
            .map(|_| ShardSpec::synthetic(1, ServeConfig::default()))
            .collect();
        Router::new(specs, Registry::new())
    }

    #[test]
    fn preference_is_a_permutation_and_stable() {
        let r = router(4);
        for tenant in 0..64u32 {
            let a = r.preference(tenant);
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "tenant {tenant}: {a:?}");
            assert_eq!(a, r.preference(tenant));
        }
        r.shards().iter().for_each(|s| s.kill());
    }

    #[test]
    fn tenants_spread_across_shards() {
        let r = router(4);
        let mut first = [0usize; 4];
        for tenant in 0..256u32 {
            first[r.preference(tenant)[0]] += 1;
        }
        for (i, &n) in first.iter().enumerate() {
            assert!(n > 16, "shard {i} owns only {n}/256 tenants: {first:?}");
        }
        r.shards().iter().for_each(|s| s.kill());
    }

    #[test]
    fn dispatch_answers_and_fails_over_after_kill() {
        let r = router(3);
        let frame = canary_frame(3, 8, 8);
        let mut reference = bcp_serve::SyntheticReplica::new();
        let want = reference.infer_batch(std::slice::from_ref(&frame))[0];
        let out = r.dispatch(5, &frame, None, 1);
        assert_eq!(out.result, Ok(want));
        assert_eq!(out.attempts, 1);

        // Kill the tenant's affinity shard: dispatch must fail over and
        // still produce the same answer.
        let affinity = r.preference(5)[0];
        r.shards()[affinity].kill();
        assert_eq!(r.shards()[affinity].state(), ShardState::Down);
        let out = r.dispatch(5, &frame, None, 2);
        assert_eq!(out.result, Ok(want));
        assert_ne!(out.shard, affinity);
        r.shards().iter().for_each(|s| s.kill());
    }

    #[test]
    fn all_shards_down_is_no_healthy_shard() {
        let r = router(2);
        r.shards().iter().for_each(|s| s.kill());
        let frame = canary_frame(3, 8, 8);
        let out = r.dispatch(1, &frame, None, 3);
        assert_eq!(out.result, Err(Status::NoHealthyShard));
    }

    #[test]
    fn revive_and_probe_restore_service() {
        let r = router(1);
        let frame = canary_frame(3, 8, 8);
        r.shards()[0].kill();
        assert!(!r.shards()[0].probe(&frame, Duration::from_millis(100)));
        r.shards()[0].revive();
        assert_eq!(r.shards()[0].state(), ShardState::Suspect);
        assert!(r.shards()[0].probe(&frame, Duration::from_secs(5)));
        assert_eq!(r.shards()[0].state(), ShardState::Up);
        let out = r.dispatch(1, &frame, None, 4);
        assert!(out.result.is_ok());
        r.shards().iter().for_each(|s| s.kill());
    }

    #[test]
    fn expired_deadline_never_dispatches() {
        let r = router(2);
        let frame = canary_frame(3, 8, 8);
        let past = Instant::now() - Duration::from_millis(1);
        let out = r.dispatch(1, &frame, Some(past), 5);
        assert_eq!(out.result, Err(Status::DeadlineExpired));
        assert_eq!(out.attempts, 0);
        r.shards().iter().for_each(|s| s.kill());
    }
}
