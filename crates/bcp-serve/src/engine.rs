//! The concurrent micro-batching inference engine.
//!
//! ```text
//!            push(policy)             pull(max_batch): one batch, one lock
//!  clients ──────────► Admission ─────┬─► worker 0 ── replica 0
//!            Block /   (queue_cap,    ├─► worker 1 ── replica 1
//!            Reject /   close flag)   └─► worker N ── replica N
//!            ShedOldest                     │
//!                                           ▼
//!                                    per-request oneshot slots
//! ```
//!
//! The queue is [`Admission`] ([`crate::queue`]): a `VecDeque` under one
//! `bcp_sync` mutex, held directly by `Shared`, with its own close flag —
//! a drain or shutdown *is* [`Admission::close`].
//!
//! **The pull.** There is one queue and one thread role. A healthy worker
//! blocks on the admission queue, takes the first request, takes what else
//! is already queued up to `max_batch` without waiting, and runs that as
//! its batch. A free worker therefore never waits for company, and while
//! every worker is busy requests coalesce in the queue by themselves — no
//! dispatch decision, no timer. `serve.seal.full` counts batches that
//! reached `max_batch`, `serve.seal.idle` those that took everything that
//! was queued; they sum to `serve.batches`.
//!
//! **Nobody left to pull.** A worker that is not `Healthy` does not pull,
//! so with every worker off rotation the queue would hold its requests
//! forever. One rule covers it: *whoever observes zero healthy workers
//! drains the admission queue with [`ServeError::NoHealthyWorkers`]* — a
//! worker right after it left rotation, and every submitter right after
//! its enqueue ([`WorkerStateCell`] says why that pair cannot both miss).
//!
//! Invariants the stress suite pins:
//!
//! * **Exactly one response** per submitted request — an `Ok(MaskClass)`
//!   or one `ServeError` — regardless of policy, timeouts, worker faults
//!   or shutdown. Enforced by the oneshot [`Slot`] state machine.
//! * **Determinism**: with lossless settings, outputs equal the sequential
//!   reference for any worker count (replicas are bit-identical copies and
//!   requests are matched by ticket, not by arrival order).
//! * **Bounded overload**: the admission queue never exceeds `queue_cap`;
//!   beyond it the configured
//!   [`BackpressurePolicy`](crate::BackpressurePolicy) decides, and no
//!   policy can deadlock the engine.
//! * **Fault isolation**: every batch is gated on a canary frame at the
//!   replicas' input shape, whose golden output the engine captures at
//!   start. A replica that fails it (or panics) fails only its current
//!   batch and stops pulling, so it holds nothing anyone could wedge
//!   behind. The worker then runs the self-healing lifecycle of its
//!   [`RecoveryPolicy`](crate::RecoveryPolicy) off the hot path —
//!   `Quarantined` → repair → `Probation` → K consecutive canary passes →
//!   `Healthy`, or strikes → `Retired` (see [`crate::recovery`]).

use crate::config::{ServeConfig, ServeError};
use crate::oneshot::{Expired, Slot};
use crate::queue::{Admission, Push};
use crate::recovery::{WorkerState, WorkerStateCell, RETRY_INTERVAL};
use crate::replica::Replica;
use bcp_dataset::MaskClass;
use bcp_sync::Mutex;
use bcp_tensor::Tensor;
use bcp_trace::{
    stamp, ActiveTrace, Counter, Gauge, Histogram, Registry, TraceEvent, TraceOutcome, Tracer,
};
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A request's final outcome.
pub type Completion = Result<MaskClass, ServeError>;

struct Request {
    frame: Tensor,
    slot: Arc<Slot<Completion>>,
    enqueued: Instant,
    deadline: Option<Instant>,
    /// Live trace for head-sampled requests; travels with the request so
    /// every stamp is a plain store by the thread that owns it. `None`
    /// (tracing off or not sampled) costs one branch per stamp site.
    trace: Option<Box<ActiveTrace>>,
}

/// Pre-resolved telemetry handles so the hot path never does a name
/// lookup. All under the `serve.` namespace.
struct Metrics {
    requests: Counter,
    ok: Counter,
    rejected: Counter,
    shed: Counter,
    expired: Counter,
    timeout: Counter,
    abandoned: Counter,
    failed: Counter,
    batches: Counter,
    seal_full: Counter,
    seal_idle: Counter,
    worker_fault: Counter,
    queue_depth: Gauge,
    batch_size: Histogram,
    latency: Histogram,
    /// Wall time of each canary-gate pass, one sample per gated batch.
    canary_ns: Histogram,
    worker_batches: Vec<Counter>,
    /// Lifecycle gauges: the numeric [`WorkerState`] of each worker.
    worker_state: Vec<Gauge>,
    repaired: Counter,
    reinstated: Counter,
    retired: Counter,
}

impl Metrics {
    fn new(r: &Registry, workers: usize) -> Metrics {
        Metrics {
            requests: r.counter("serve.requests"),
            ok: r.counter("serve.ok"),
            rejected: r.counter("serve.rejected"),
            shed: r.counter("serve.shed"),
            expired: r.counter("serve.expired"),
            timeout: r.counter("serve.timeout"),
            abandoned: r.counter("serve.abandoned"),
            failed: r.counter("serve.failed"),
            batches: r.counter("serve.batches"),
            seal_full: r.counter("serve.seal.full"),
            seal_idle: r.counter("serve.seal.idle"),
            worker_fault: r.counter("serve.worker_fault"),
            queue_depth: r.gauge("serve.queue_depth"),
            batch_size: r.histogram("serve.batch_size"),
            latency: r.histogram("serve.latency_ns"),
            canary_ns: r.histogram("serve.canary_ns"),
            worker_batches: (0..workers)
                .map(|w| r.counter(&format!("serve.worker.{w}.batches")))
                .collect(),
            worker_state: (0..workers)
                .map(|w| r.gauge(&format!("serve.worker.{w}.state")))
                .collect(),
            repaired: r.counter("serve.worker.repaired"),
            reinstated: r.counter("serve.worker.reinstated"),
            retired: r.counter("serve.worker.retired"),
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    registry: Registry,
    metrics: Metrics,
    /// The integrity canary: a gradient frame at the replicas' input shape
    /// (`submit` refuses any other) and the output every healthy replica
    /// gives for it.
    canary: Tensor,
    golden: Vec<i64>,
    /// Replica 0's [`Replica::input_range`]: `submit` refuses a frame with
    /// any value outside it.
    input_range: RangeInclusive<f32>,
    /// The admission queue: submitters push under `cfg.policy`, healthy
    /// workers pull their batches, whoever finds no healthy worker drains
    /// it, and closing it is what begins a drain or shutdown.
    queue: Admission<Request>,
    /// Per-worker [`WorkerState`] bytes, each written only by its worker
    /// thread — the one reader that pulls on it. Everyone else reads them
    /// to find out whether anybody pulls at all.
    states: Vec<WorkerStateCell>,
    /// Pending chaos fault plans per worker, applied between batches.
    fault_mailboxes: Vec<Mutex<Vec<(usize, u64)>>>,
    /// Request-lifecycle tracer (None = tracing disabled).
    tracer: Option<Arc<Tracer>>,
    /// Retired response slots awaiting reuse, at most `2 × queue_cap`. A
    /// slot re-enters the pool only once `Arc::strong_count == 1` (see
    /// [`Shared::release_slot`]), and every way a request can end releases
    /// it — so at steady state, overloaded or not, `submit` mints none.
    slot_pool: Mutex<Vec<Arc<Slot<Completion>>>>,
}

impl Shared {
    /// Worker `w`'s lifecycle state. An out-of-range index (impossible by
    /// construction) reads as `Retired`, i.e. permanently out of rotation.
    fn state(&self, w: usize) -> WorkerState {
        self.states
            .get(w)
            .map_or(WorkerState::Retired, |c| c.load())
    }

    /// Transition worker `w` and mirror the state into its gauge.
    fn set_state(&self, w: usize, s: WorkerState) {
        if let Some(cell) = self.states.get(w) {
            cell.store(s);
        }
        if let Some(g) = self.metrics.worker_state.get(w) {
            // audit: allow(cast): WorkerState is a #[repr(u8)] enum of four variants — the cast is total
            g.set(s as u8 as f64);
        }
    }

    /// Finish a request's live trace, if it carries one.
    fn finish_trace(&self, trace: &mut Option<Box<ActiveTrace>>, outcome: TraceOutcome) {
        if let (Some(t), Some(tracer)) = (trace.take(), self.tracer.as_ref()) {
            tracer.finish(t, outcome);
        }
    }

    /// The one way a request ends: complete its slot with `outcome`, finish
    /// its trace (so `Deliver` is stamped once the client can see the
    /// answer), count the outcome — or `serve.abandoned` when the client had
    /// already given up — and recycle the slot. Returns whether the outcome
    /// was delivered.
    fn resolve(&self, mut req: Request, outcome: Completion, trace_outcome: TraceOutcome) -> bool {
        let delivered = req.slot.complete(outcome);
        self.finish_trace(&mut req.trace, trace_outcome);
        let m = &self.metrics;
        match outcome {
            _ if !delivered => m.abandoned.inc(),
            Ok(_) => m.ok.inc(),
            Err(ServeError::DeadlineExpired) => m.expired.inc(),
            Err(ServeError::Shed) => m.shed.inc(),
            Err(_) => m.failed.inc(),
        }
        self.release_slot(req.slot);
        delivered
    }

    /// A request the queue handed back: the caller gets the error, not a
    /// ticket, so the trace is finished and the slot goes straight back.
    fn turn_away(&self, mut req: Request, trace_outcome: TraceOutcome) {
        self.finish_trace(&mut req.trace, trace_outcome);
        self.release_slot(req.slot);
    }

    /// The rule of the module docs: while no worker is healthy, answer
    /// what is queued with `NoHealthyWorkers`. Called by a worker that has
    /// just left rotation and by every submitter after its enqueue; the
    /// states are re-read per request so a worker rejoining mid-drain gets
    /// the rest.
    fn fail_unserved(&self) {
        while WorkerStateCell::none_healthy(&self.states) {
            let Some(req) = self.queue.try_pop() else {
                break;
            };
            let nobody = Err(ServeError::NoHealthyWorkers);
            self.resolve(req, nobody, TraceOutcome::Failed);
            self.metrics.queue_depth.set(self.queue.len() as f64);
        }
    }

    /// Drop requests whose deadline already passed, completing each with
    /// `DeadlineExpired`.
    fn expire(&self, batch: &mut Vec<Request>) {
        let now = Instant::now();
        let late = |req: &mut Request| req.deadline.is_some_and(|d| now >= d);
        for req in batch.extract_if(.., late) {
            let expired = Err(ServeError::DeadlineExpired);
            self.resolve(req, expired, TraceOutcome::Expired);
        }
    }

    /// Pop a recycled response slot, or mint one on a pool miss. After the
    /// warm-up window every request is served from the pool.
    fn acquire_slot(&self) -> Arc<Slot<Completion>> {
        // audit: allow(block): slot-pool mutex — held for one Vec pop, never across anything else
        let recycled = self.slot_pool.lock().pop();
        recycled.unwrap_or_else(|| {
            // audit: allow(alloc): pool miss — at most ~2×queue_cap slots are ever minted before steady-state reuse takes over
            Arc::new(Slot::new())
        })
    }

    /// Return a resolved slot to the pool — but only when we hold the
    /// *last* reference. A strong count of 1 proves no client or worker
    /// can still complete or wait on it, and the count cannot grow again
    /// because cloning requires an existing handle; `reset` is therefore
    /// race-free. Callers pass ownership unconditionally and the slot
    /// simply drops when another handle is still live or the pool is full.
    fn release_slot(&self, slot: Arc<Slot<Completion>>) {
        if Arc::strong_count(&slot) == 1 {
            slot.reset();
            // audit: allow(block): slot-pool mutex — held for one Vec push, never across anything else
            let mut pool = self.slot_pool.lock();
            if pool.len() < pool.capacity() {
                // audit: allow(alloc): bounded by the capacity reserved at start, so the push never grows the Vec
                pool.push(slot);
            }
        }
    }
}

/// Handle to one in-flight request. Consume it with [`Ticket::wait`];
/// dropping it instead leaves the request to complete unobserved (it is
/// still processed and counted).
pub struct Ticket {
    slot: Arc<Slot<Completion>>,
    deadline: Option<Instant>,
    shared: Arc<Shared>,
}

impl Ticket {
    /// Block until this request resolves. With a configured deadline the
    /// wait gives up at that deadline and the request is marked abandoned,
    /// so a late engine completion is dropped rather than duplicated.
    ///
    /// A delivered outcome also recycles the response slot: the engine
    /// side has already relinquished its handle by the time delivery is
    /// observable, so the waiter usually holds the last reference and the
    /// slot goes straight back into the pool.
    // bcp:hot-path — client-side completion pickup, once per request
    pub fn wait(self) -> Completion {
        // audit: allow(block): waiting for the response is the ticket's contract
        match self.slot.wait(self.deadline) {
            Ok(outcome) => {
                self.shared.release_slot(self.slot);
                outcome
            }
            Err(Expired) => {
                // The slot is now Abandoned and the engine still holds a
                // handle; the engine-side release recycles it after the
                // late completion is dropped.
                self.shared.metrics.timeout.inc();
                Err(ServeError::DeadlineExpired)
            }
        }
    }
}

/// The serving engine. Create with [`Engine::start`], stop with
/// [`Engine::shutdown`] (also run on drop) — shutdown stops admission,
/// then drains every queued request through the workers before joining.
pub struct Engine {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Engine {
    /// Spawn one worker thread per replica. All replicas must be
    /// functionally identical copies of the same model: this is verified
    /// up front against replica 0's golden output on the canary frame, a
    /// [`canary_frame`](crate::canary_frame) of replica 0's input shape.
    /// The engine's `serve.*` metrics (and the tracer's `trace.*`) are
    /// resolved in `registry` here, once; the hot path only bumps the
    /// handles.
    pub fn start<R: Replica>(replicas: Vec<R>, cfg: ServeConfig, registry: Registry) -> Engine {
        assert!(!replicas.is_empty(), "engine needs at least one replica");
        assert!(cfg.queue_cap > 0, "queue capacity must be positive");
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        let workers = replicas.len();

        let [c, h, w] = replicas[0].input_dims();
        let canary = crate::replica::canary_frame(c, h, w);
        let golden = replicas[0].canary(&canary);
        let input_range = replicas[0].input_range();
        for (i, r) in replicas.iter().enumerate().skip(1) {
            assert_eq!(
                r.canary(&canary),
                golden,
                "replica {i} disagrees with replica 0 on the canary frame"
            );
        }

        let metrics = Metrics::new(&registry, workers);
        let tracer = cfg
            .trace
            .clone()
            .map(|tc| Tracer::new(tc, workers, &registry));
        // Pool capacity covers the worst-case number of live slots:
        // queued + in-flight + just-resolved stay under 2×queue_cap.
        let slot_pool = Mutex::new(Vec::with_capacity(cfg.queue_cap.saturating_mul(2)));
        let shared = Arc::new(Shared {
            queue: Admission::new(cfg.queue_cap),
            cfg,
            registry,
            metrics,
            canary,
            golden,
            input_range,
            states: (0..workers)
                .map(|_| WorkerStateCell::new(WorkerState::Healthy))
                .collect(),
            fault_mailboxes: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
            tracer,
            slot_pool,
        });

        let handles = replicas
            .into_iter()
            .enumerate()
            .map(|(w, replica)| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("bcp-serve-worker-{w}"))
                    .spawn(move || worker_loop(w, replica, shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Engine {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// Enqueue one frame for classification. Returns a [`Ticket`] to wait
    /// on, or an immediate error when the frame is not of the replicas'
    /// input shape ([`ServeError::BadFrame`]), the backpressure policy
    /// refuses admission ([`ServeError::Rejected`]) or the engine is
    /// draining. The deadline, if any, comes from [`ServeConfig::deadline`].
    // bcp:hot-path — request admission and policy enforcement
    pub fn submit(&self, frame: &Tensor) -> Result<Ticket, ServeError> {
        let deadline = self
            .shared
            .cfg
            .deadline
            .and_then(|d| Instant::now().checked_add(d));
        self.submit_with_deadline(frame, deadline)
    }

    /// [`submit`](Engine::submit) with an explicit absolute deadline,
    /// overriding the engine-wide [`ServeConfig::deadline`]. This is how a
    /// network front door propagates each client's remaining deadline
    /// budget end-to-end: the budget is computed once at the wire and
    /// enforced at every hand-off inside the engine, so a retried request
    /// can never outlive what the client asked for.
    // bcp:hot-path — request admission and policy enforcement
    pub fn submit_with_deadline(
        &self,
        frame: &Tensor,
        deadline: Option<Instant>,
    ) -> Result<Ticket, ServeError> {
        self.shared.metrics.requests.inc();
        let (lo, hi) = (
            *self.shared.input_range.start(),
            *self.shared.input_range.end(),
        );
        // A branch-free fold, so it vectorizes: ≈ 80 ns on a 3×16×16 frame,
        // where a short-circuiting `all` takes ≈ 1.2 µs. NaN fails both tests.
        let in_range = |ok: bool, &v: &f32| ok & (lo <= v) & (v <= hi);
        if frame.shape() != self.shared.canary.shape()
            || !frame.as_slice().iter().fold(true, in_range)
        {
            self.shared.metrics.failed.inc();
            return Err(ServeError::BadFrame);
        }
        let now = Instant::now();
        let slot = self.shared.acquire_slot();
        // Head-sampling decision; a sampled trace is already stamped with
        // `Enqueue` and rides inside the request from here on.
        // audit: external — `sample` also names Tensor::sample; the tracer's sampler is audited at its own root
        let trace = self.shared.tracer.as_ref().and_then(|t| t.sample());
        let req = Request {
            // audit: allow(alloc): the single ingestion copy that decouples the caller's buffer from the pipeline (ROADMAP item 3 tracks batch-level reuse downstream of this point)
            frame: frame.clone(),
            slot: Arc::clone(&slot),
            enqueued: now,
            deadline,
            trace,
        };
        let q = &self.shared.queue;
        // Path form, like `Arc::clone`: the call graph resolves it to the
        // queue's own audited root, where a bare `.push(` reads as `Vec`'s.
        let (depth, victim) = match Admission::push(q, req, self.shared.cfg.policy) {
            Push::Admitted { depth, victim } => (depth, victim),
            Push::Full(req) => {
                self.shared.metrics.rejected.inc();
                drop(slot);
                self.shared.turn_away(req, TraceOutcome::Rejected);
                return Err(ServeError::Rejected);
            }
            Push::Closed(req) => {
                drop(slot);
                self.shared.turn_away(req, TraceOutcome::Failed);
                return Err(ServeError::ShuttingDown);
            }
        };
        self.shared.metrics.queue_depth.set(depth as f64);
        if let Some(victim) = victim {
            self.shared
                .resolve(victim, Err(ServeError::Shed), TraceOutcome::Shed);
        }
        // Enqueue first, look second: see `WorkerStateCell`.
        self.shared.fail_unserved();
        Ok(Ticket {
            slot,
            deadline,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Submit and wait: the synchronous convenience used by closed-loop
    /// clients.
    pub fn classify(&self, frame: &Tensor) -> Completion {
        self.submit(frame)?.wait()
    }

    /// Queue chaos faults for a worker, applied to its replica before its
    /// next batch (the software analogue of SEU bit flips hitting one
    /// accelerator's weight SRAM while it serves).
    pub fn inject_faults(&self, worker: usize, n: usize, seed: u64) {
        self.shared.fault_mailboxes[worker].lock().push((n, seed));
    }

    /// Workers in rotation, i.e. pulling from the admission queue.
    pub fn healthy_workers(&self) -> usize {
        self.worker_states()
            .into_iter()
            .filter(|s| *s == WorkerState::Healthy)
            .count()
    }

    /// Lifecycle state of one worker.
    pub fn worker_state(&self, w: usize) -> WorkerState {
        self.shared.state(w)
    }

    /// Lifecycle state of every worker, by index.
    pub fn worker_states(&self) -> Vec<WorkerState> {
        (0..self.shared.states.len())
            .map(|w| self.shared.state(w))
            .collect()
    }

    /// The canary frame every batch is gated on: a
    /// [`canary_frame`](crate::canary_frame) of the replicas' input shape,
    /// the one shape `submit` accepts.
    pub fn canary_frame(&self) -> &Tensor {
        &self.shared.canary
    }

    /// Requests currently waiting in the admission queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// The registry handed to [`Engine::start`]: every `serve.*` (and,
    /// when tracing, `trace.*`) metric of this engine lives there.
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// The request-lifecycle tracer, when `cfg.trace` was set. Drain it
    /// (after [`shutdown`](Engine::shutdown) for a complete picture) into
    /// a [`bcp_trace::TraceSet`] for flamegraphs and attribution reports.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.shared.tracer.clone()
    }

    /// Graceful shutdown: stop accepting, drain every queued request
    /// through the pipeline, join all threads. Idempotent.
    pub fn shutdown(&self) {
        // Closing the admission queue refuses new pushes; the healthy
        // workers pull it empty and then leave, an off-rotation worker
        // leaves at its next wake-up. Nothing in flight is lost.
        self.shared.queue.close();
        let handles = std::mem::take(&mut *self.handles.lock());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: owns a replica and, while it reads itself `Healthy`, pulls
/// its own batches off the admission queue (module docs), gates each on
/// the integrity canary, infers, completes slots. Off rotation it pulls
/// nothing: it runs repair attempts and probation canaries every
/// [`RETRY_INTERVAL`] until it is reinstated, retired or the engine
/// drains.
// bcp:hot-path — batch formation, execution and completion
fn worker_loop<R: Replica>(w: usize, mut replica: R, shared: Arc<Shared>) {
    let mut strikes = 0u32;
    let mut probation_passes = 0u32;
    // The batch under construction and the scratch its frames are moved
    // into, both reused across every batch this worker ever serves.
    // audit: allow(alloc): one-time per-worker batch buffer; its capacity is retained for the thread's lifetime
    let mut batch: Vec<Request> = Vec::with_capacity(shared.cfg.max_batch);
    // audit: allow(alloc): one-time per-worker scratch; its capacity is retained for the thread's lifetime
    let mut frames: Vec<Tensor> = Vec::new();
    loop {
        match shared.state(w) {
            WorkerState::Healthy => {}
            WorkerState::Quarantined | WorkerState::Probation if !shared.queue.is_closed() => {
                // audit: allow(block): timed off-rotation wait — the heartbeat of repair and probation work
                std::thread::sleep(RETRY_INTERVAL);
                recovery_step(
                    w,
                    &mut replica,
                    &shared,
                    &mut strikes,
                    &mut probation_passes,
                );
                continue;
            }
            // No way back: retired, or nothing left to come back for.
            _ => break,
        }

        // A batch opens with the first request to arrive and takes what else
        // is queued in the same critical section. `None`: closed and empty.
        let Some(depth) = shared.queue.pull(shared.cfg.max_batch, &mut batch) else {
            break;
        };
        let full = batch.len() >= shared.cfg.max_batch;
        let m = &shared.metrics;
        m.queue_depth.set(depth as f64);
        if shared.tracer.is_some() {
            for r in &mut batch {
                stamp(&mut r.trace, &shared.tracer, TraceEvent::AdmissionDequeue);
                stamp(&mut r.trace, &shared.tracer, TraceEvent::BatchSeal);
                stamp(&mut r.trace, &shared.tracer, TraceEvent::WorkerDispatch);
                if let Some(t) = r.trace.as_mut() {
                    t.set_worker(w);
                }
            }
        }
        // Apply chaos faults queued for this worker (simulated SEUs land
        // between batches, like real upsets land between frames).
        if let Some(mailbox) = shared.fault_mailboxes.get(w) {
            // audit: allow(block): chaos-fault mailbox — empty and uncontended outside fault-injection tests
            let plans: Vec<(usize, u64)> = std::mem::take(&mut *mailbox.lock());
            for (n, seed) in plans {
                // audit: external — chaos fault injection is test plumbing, not serving work
                replica.inject_faults(n, seed);
            }
        }
        // A batch that expired whole in the queue costs no inference, not
        // even the canary's, and is not a batch.
        shared.expire(&mut batch);
        if batch.is_empty() {
            continue;
        }
        m.batch_size.record(batch.len() as u64);
        m.batches.inc();
        if full {
            m.seal_full.inc();
        } else {
            m.seal_idle.inc();
        }
        match run_batch(w, &mut replica, &mut batch, &mut frames, &shared) {
            Some(classes) => {
                deliver(w, &mut batch, classes, &shared);
                if let Some(units) = shared.cfg.background_scrub {
                    // audit: external — background scrubbing belongs to the guard layer and is audited there
                    replica.scrub_tick(units);
                }
            }
            None => {
                for req in batch.drain(..) {
                    let fault = Err(ServeError::WorkerFault { worker: w });
                    shared.resolve(req, fault, TraceOutcome::Failed);
                }
                // Out of rotation now; if that left nobody pulling, what
                // is queued will wait for no one.
                shared.fail_unserved();
            }
        }
    }
}

/// One recovery increment for an off-rotation worker: a quarantined
/// replica attempts `repair()` (a replica that cannot repair strikes out
/// on every attempt and retires after `max_strikes` of them); a probation
/// replica runs one canary. Transitions (and their `serve.worker.*`
/// metrics) happen here, on the worker's own thread — the single writer
/// of its state byte.
// audit: cold — repair and probation run off-rotation, never on the serving path
fn recovery_step<R: Replica>(
    w: usize,
    replica: &mut R,
    shared: &Shared,
    strikes: &mut u32,
    probation_passes: &mut u32,
) {
    let policy = shared.cfg.recovery;
    let strike_out = |strikes: &mut u32, fallback: WorkerState| {
        *strikes = strikes.saturating_add(1);
        if *strikes >= policy.max_strikes {
            shared.set_state(w, WorkerState::Retired);
            shared.metrics.retired.inc();
        } else {
            shared.set_state(w, fallback);
        }
    };
    match shared.state(w) {
        WorkerState::Quarantined => {
            let repaired = catch_unwind(AssertUnwindSafe(|| replica.repair())).unwrap_or(false);
            if repaired {
                *probation_passes = 0;
                shared.set_state(w, WorkerState::Probation);
                shared.metrics.repaired.inc();
            } else {
                strike_out(strikes, WorkerState::Quarantined);
            }
        }
        WorkerState::Probation => {
            let pass = catch_unwind(AssertUnwindSafe(|| replica.canary(&shared.canary)))
                .ok()
                .as_deref()
                == Some(shared.golden.as_slice());
            if pass {
                *probation_passes = probation_passes.saturating_add(1);
                if *probation_passes >= policy.probation_passes {
                    *strikes = 0;
                    shared.set_state(w, WorkerState::Healthy);
                    shared.metrics.reinstated.inc();
                }
            } else {
                // The repair did not take: back to quarantine (or out).
                *probation_passes = 0;
                strike_out(strikes, WorkerState::Quarantined);
            }
        }
        WorkerState::Healthy | WorkerState::Retired => {}
    }
}

/// Canary-gate and run one non-empty batch: one class per request. `None`
/// is a worker fault — a canary mismatch, a panic, or a broken length
/// contract — on which the worker leaves rotation (`Quarantined`) and the
/// caller fails the batch with `WorkerFault`.
///
/// `frames` is the worker's long-lived scratch that each request's tensor
/// is *moved* into (no per-batch copies).
fn run_batch<R: Replica>(
    w: usize,
    replica: &mut R,
    batch: &mut [Request],
    frames: &mut Vec<Tensor>,
    shared: &Shared,
) -> Option<Vec<MaskClass>> {
    let fault = || {
        shared.set_state(w, WorkerState::Quarantined);
        shared.metrics.worker_fault.inc();
        None
    };
    // Integrity gate: a corrupted replica can never emit a wrong
    // classification, because every batch is preceded by a golden-output
    // check, timed into `serve.canary_ns`.
    let t0 = Instant::now();
    // audit: external — the canary runs the replica's own inference, audited at the kernel roots
    let got = catch_unwind(AssertUnwindSafe(|| replica.canary(&shared.canary))).ok();
    shared.metrics.canary_ns.record_duration(t0.elapsed());
    if got.as_deref() != Some(shared.golden.as_slice()) {
        return fault();
    }

    frames.clear();
    // Frames are moved out of the requests (each leaves a rank-0
    // placeholder behind); the scratch's capacity is reused every batch.
    // audit: allow(alloc): refills the per-worker scratch in place — `mem::take` moves each frame without copying
    frames.extend(batch.iter_mut().map(|r| std::mem::take(&mut r.frame)));
    let frames: &[Tensor] = frames;
    if shared.tracer.is_some() {
        let size = batch.len();
        for r in batch.iter_mut() {
            stamp(&mut r.trace, &shared.tracer, TraceEvent::ComputeStart);
            if let Some(t) = r.trace.as_mut() {
                t.set_batch_size(size);
            }
        }
    }
    // audit: external — replica inference is audited at the XNOR kernel roots
    let outcome = catch_unwind(AssertUnwindSafe(|| replica.infer_batch(frames)));
    if shared.tracer.is_some() {
        for r in batch.iter_mut() {
            stamp(&mut r.trace, &shared.tracer, TraceEvent::ComputeEnd);
        }
    }
    match outcome {
        Ok(classes) if classes.len() == batch.len() => Some(classes),
        // Panicked mid-inference, or the replica broke its length
        // contract: treat both as a hard worker fault.
        _ => fault(),
    }
}

/// Complete every slot of a served batch with its class, draining `batch`
/// for the next pull.
fn deliver(w: usize, batch: &mut Vec<Request>, classes: Vec<MaskClass>, shared: &Shared) {
    let now = Instant::now();
    for (req, class) in batch.drain(..).zip(classes) {
        if req.deadline.is_some_and(|d| now >= d) {
            // Result exists but arrived too late to honor the deadline
            // contract: a success is only delivered inside its deadline.
            let expired = Err(ServeError::DeadlineExpired);
            shared.resolve(req, expired, TraceOutcome::Expired);
            continue;
        }
        let latency = now.duration_since(req.enqueued);
        if shared.resolve(req, Ok(class), TraceOutcome::Ok) {
            shared.metrics.latency.record_duration(latency);
        }
    }
    if let Some(c) = shared.metrics.worker_batches.get(w) {
        c.inc();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;
    use crate::recovery::RecoveryPolicy;
    use crate::replica::{canary_frame, SyntheticReplica};
    use crate::BackpressurePolicy;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    /// `n` frames at the synthetic replica's 3×8×8, five distinct ones.
    fn frames(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| canary_frame(3, 8, 8).map(|v| v + (i % 5) as f32))
            .collect()
    }

    fn engine(workers: usize, cfg: ServeConfig) -> Engine {
        let replicas: Vec<SyntheticReplica> =
            (0..workers).map(|_| SyntheticReplica::new()).collect();
        Engine::start(replicas, cfg, Registry::new())
    }

    #[test]
    fn classify_matches_reference_replica() {
        let e = engine(2, ServeConfig::default());
        let mut reference = SyntheticReplica::new();
        for f in frames(12) {
            assert_eq!(
                e.classify(&f),
                Ok(reference.infer_batch(std::slice::from_ref(&f))[0])
            );
        }
    }

    #[test]
    fn pipelined_submission_preserves_per_ticket_identity() {
        let e = engine(3, ServeConfig::default());
        let fs = frames(40);
        let tickets: Vec<Ticket> = fs.iter().map(|f| e.submit(f).unwrap()).collect();
        let mut reference = SyntheticReplica::new();
        let want = reference.infer_batch(&fs);
        for (t, w) in tickets.into_iter().zip(want) {
            assert_eq!(t.wait(), Ok(w));
        }
        // Quiesce before auditing the books: workers bump counters *after*
        // completing the slot, so a snapshot racing the last wakeup can lag.
        e.shutdown();
        let snap = e.registry().snapshot();
        assert_eq!(snap.counters["serve.ok"], 40);
        assert_eq!(snap.counters["serve.requests"], 40);
        assert!(snap.histograms["serve.batch_size"].max <= 8);
        assert_eq!(snap.histograms["serve.latency_ns"].count, 40);
    }

    #[test]
    fn reject_policy_bounds_the_queue_without_losing_responses() {
        let replicas = vec![SyntheticReplica::with_delay(Duration::from_millis(5))];
        let e = Engine::start(
            replicas,
            ServeConfig {
                queue_cap: 2,
                max_batch: 1,
                policy: BackpressurePolicy::Reject,
                ..ServeConfig::default()
            },
            Registry::new(),
        );
        let fs = frames(30);
        let mut tickets = Vec::new();
        let mut rejected = 0usize;
        for f in &fs {
            match e.submit(f) {
                Ok(t) => tickets.push(t),
                Err(ServeError::Rejected) => rejected += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        let ok = tickets
            .into_iter()
            .filter(|_| true)
            .map(Ticket::wait)
            .filter(Result::is_ok)
            .count();
        assert_eq!(
            ok + rejected,
            fs.len(),
            "every request resolves exactly once"
        );
        assert!(
            rejected > 0,
            "queue of 2 with 5ms service must reject some of 30 fast submits"
        );
        e.shutdown();
        let snap = e.registry().snapshot();
        assert_eq!(snap.counters["serve.ok"], ok as u64);
        assert_eq!(snap.counters["serve.rejected"], rejected as u64);
    }

    #[test]
    fn shed_oldest_completes_victims_with_shed() {
        let replicas = vec![SyntheticReplica::with_delay(Duration::from_millis(5))];
        let e = Engine::start(
            replicas,
            ServeConfig {
                queue_cap: 2,
                max_batch: 1,
                policy: BackpressurePolicy::ShedOldest,
                ..ServeConfig::default()
            },
            Registry::new(),
        );
        let fs = frames(30);
        let tickets: Vec<Ticket> = fs
            .iter()
            .map(|f| e.submit(f).expect("shed never refuses"))
            .collect();
        let (mut ok, mut shed) = (0usize, 0usize);
        for t in tickets {
            match t.wait() {
                Ok(_) => ok += 1,
                Err(ServeError::Shed) => shed += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(ok + shed, fs.len());
        assert!(shed > 0, "sustained overload must shed");
        e.shutdown();
        let snap = e.registry().snapshot();
        assert_eq!(snap.counters["serve.shed"], shed as u64);
    }

    #[test]
    fn deadlines_expire_slow_requests() {
        let replicas = vec![SyntheticReplica::with_delay(Duration::from_millis(20))];
        let e = Engine::start(
            replicas,
            ServeConfig {
                max_batch: 1,
                deadline: Some(Duration::from_millis(30)),
                ..ServeConfig::default()
            },
            Registry::new(),
        );
        let fs = frames(6);
        let tickets: Vec<Ticket> = fs.iter().map(|f| e.submit(f).unwrap()).collect();
        let outcomes: Vec<Completion> = tickets.into_iter().map(Ticket::wait).collect();
        let expired = outcomes
            .iter()
            .filter(|o| **o == Err(ServeError::DeadlineExpired))
            .count();
        assert!(
            expired > 0,
            "20ms/frame × 6 against a 30ms deadline must expire some"
        );
        for o in &outcomes {
            assert!(
                matches!(o, Ok(_) | Err(ServeError::DeadlineExpired)),
                "got {o:?}"
            );
        }
    }

    #[test]
    fn shutdown_drains_in_flight_requests() {
        let e = engine(2, ServeConfig::default());
        let fs = frames(16);
        let tickets: Vec<Ticket> = fs.iter().map(|f| e.submit(f).unwrap()).collect();
        e.shutdown();
        assert!(matches!(e.submit(&fs[0]), Err(ServeError::ShuttingDown)));
        for t in tickets {
            assert!(t.wait().is_ok(), "drained request must still succeed");
        }
    }

    #[test]
    fn canary_fault_takes_one_worker_out_of_rotation() {
        let cfg = ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        };
        let (e, g1, parked) = engine_with_worker_1_held(cfg, SyntheticReplica::new);
        e.inject_faults(0, 1, 42);
        let f = frames(1).remove(0);
        // Worker 0 detects the fault at its canary gate and fails only
        // that batch.
        assert_eq!(e.classify(&f), Err(ServeError::WorkerFault { worker: 0 }));
        assert_eq!(e.healthy_workers(), 1);
        g1.open();
        for t in parked {
            assert!(t.wait().is_ok());
        }
        // Everything afterwards lands on the healthy worker.
        for f in frames(6) {
            assert!(e.classify(&f).is_ok());
        }
        e.shutdown();
        let snap = e.registry().snapshot();
        assert_eq!(snap.counters["serve.worker_fault"], 1);
        assert_eq!(snap.counters["serve.worker.0.batches"], 1);
    }

    #[test]
    fn all_workers_faulted_yields_no_healthy_workers() {
        // Off rotation for good: the replica cannot repair and the strikes
        // never run out, so the worker sits in quarantine. Requests still
        // resolve, and `shutdown` still joins.
        let stuck = RecoveryPolicy {
            max_strikes: u32::MAX,
            ..RecoveryPolicy::default()
        };
        let cfg = ServeConfig {
            max_batch: 1,
            recovery: stuck,
            ..ServeConfig::default()
        };
        let e = engine(1, cfg);
        e.inject_faults(0, 1, 7);
        let f = frames(1).remove(0);
        assert_eq!(e.classify(&f), Err(ServeError::WorkerFault { worker: 0 }));
        assert_eq!(e.healthy_workers(), 0);
        assert_eq!(e.classify(&f), Err(ServeError::NoHealthyWorkers));
        e.shutdown();
        assert_eq!(e.worker_state(0), WorkerState::Quarantined);
    }

    #[test]
    fn the_default_config_guards_and_retires_an_unrepairable_worker() {
        let e = engine(1, ServeConfig::default());
        e.inject_faults(0, 1, 7);
        let f = frames(1).remove(0);
        assert_eq!(e.classify(&f), Err(ServeError::WorkerFault { worker: 0 }));
        assert!(
            eventually(|| e.worker_state(0) == WorkerState::Retired),
            "unrepairable worker must retire, stuck in {}",
            e.worker_state(0)
        );
        e.shutdown();
        let snap = e.registry().snapshot();
        assert_eq!(snap.counters["serve.worker.retired"], 1);
    }

    #[test]
    fn a_wrong_shaped_frame_is_refused_at_the_door() {
        let e = engine(1, ServeConfig::default());
        let wrong = canary_frame(3, 16, 16);
        assert!(matches!(e.submit(&wrong), Err(ServeError::BadFrame)));
        // The worker never saw it: the next frame is served as usual.
        let f = frames(1).remove(0);
        let want = SyntheticReplica::new().infer_batch(std::slice::from_ref(&f))[0];
        assert_eq!(e.classify(&f), Ok(want));
        assert_eq!(e.worker_state(0), WorkerState::Healthy);
        e.shutdown();
        let snap = e.registry().snapshot();
        assert_eq!(snap.counters["serve.worker_fault"], 0);
        assert_eq!(snap.counters["serve.failed"], 1);
        assert_eq!(snap.counters["serve.ok"], 1);
    }

    #[test]
    fn a_value_outside_the_input_range_is_refused_at_the_door() {
        let e = engine(1, ServeConfig::default());
        // The synthetic replica takes any finite value, so only these fail.
        for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut bad = canary_frame(3, 8, 8);
            bad.as_mut_slice()[5] = v;
            assert!(matches!(e.submit(&bad), Err(ServeError::BadFrame)), "{v}");
        }
        let f = frames(1).remove(0);
        let want = SyntheticReplica::new().infer_batch(std::slice::from_ref(&f))[0];
        assert_eq!(e.classify(&f), Ok(want));
        e.shutdown();
        let snap = e.registry().snapshot();
        assert_eq!(snap.counters["serve.worker_fault"], 0);
        assert_eq!(snap.counters["serve.failed"], 3);
    }

    /// Poll `cond` for up to two seconds — recovery runs on worker
    /// threads at `RETRY_INTERVAL` pace, so tests wait rather than race.
    fn eventually(mut cond: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        cond()
    }

    fn recovery_cfg() -> ServeConfig {
        ServeConfig {
            max_batch: 1,
            recovery: RecoveryPolicy {
                probation_passes: 2,
                max_strikes: 3,
            },
            ..ServeConfig::default()
        }
    }

    #[test]
    fn quarantined_worker_repairs_and_rejoins() {
        let e = Engine::start(
            vec![SyntheticReplica::repairable()],
            recovery_cfg(),
            Registry::new(),
        );
        e.inject_faults(0, 1, 42);
        let f = frames(1).remove(0);
        // The corrupted worker is caught at the canary gate, never serving
        // a wrong answer, and leaves rotation…
        assert_eq!(e.classify(&f), Err(ServeError::WorkerFault { worker: 0 }));
        // …then repairs off the hot path, passes probation, and rejoins.
        assert!(
            eventually(|| e.worker_state(0) == WorkerState::Healthy),
            "repairable worker must be reinstated, stuck in {}",
            e.worker_state(0)
        );
        for f in frames(6) {
            assert!(e.classify(&f).is_ok());
        }
        e.shutdown();
        let snap = e.registry().snapshot();
        assert_eq!(snap.counters["serve.worker.repaired"], 1);
        assert_eq!(snap.counters["serve.worker.reinstated"], 1);
        assert_eq!(snap.gauges["serve.worker.0.state"], 0.0);
    }

    #[test]
    fn unrepairable_worker_retires_after_strikes() {
        // Default SyntheticReplica cannot repair: quarantine must escalate
        // to retirement after max_strikes failed attempts, not spin.
        let (e, g1, parked) = engine_with_worker_1_held(recovery_cfg(), SyntheticReplica::new);
        e.inject_faults(0, 1, 7);
        let f = frames(1).remove(0);
        assert_eq!(e.classify(&f), Err(ServeError::WorkerFault { worker: 0 }));
        assert!(
            eventually(|| e.worker_state(0) == WorkerState::Retired),
            "unrepairable worker must retire, stuck in {}",
            e.worker_state(0)
        );
        assert_eq!(e.healthy_workers(), 1);
        g1.open();
        for t in parked {
            assert!(t.wait().is_ok());
        }
        // The survivor keeps serving.
        for f in frames(4) {
            assert!(e.classify(&f).is_ok());
        }
        e.shutdown();
        let snap = e.registry().snapshot();
        assert_eq!(snap.counters["serve.worker.retired"], 1);
        assert_eq!(snap.gauges["serve.worker.0.state"], 3.0);
    }

    #[test]
    fn recovered_worker_survives_repeat_faults_until_strikes_run_out() {
        let e = Engine::start(
            vec![SyntheticReplica::repairable()],
            recovery_cfg(),
            Registry::new(),
        );
        let f = frames(1).remove(0);
        for round in 0..3 {
            e.inject_faults(0, 1, round as u64);
            assert_eq!(e.classify(&f), Err(ServeError::WorkerFault { worker: 0 }));
            assert!(
                eventually(|| e.worker_state(0) == WorkerState::Healthy),
                "round {round}: worker stuck in {}",
                e.worker_state(0)
            );
            assert!(e.classify(&f).is_ok());
        }
        e.shutdown();
        let snap = e.registry().snapshot();
        assert_eq!(snap.counters["serve.worker.repaired"], 3);
        assert_eq!(snap.counters["serve.worker.reinstated"], 3);
        assert_eq!(snap.counters["serve.worker_fault"], 3);
    }

    #[test]
    fn per_request_deadline_overrides_engine_config() {
        // Engine has NO configured deadline; the per-request one must
        // still be enforced end-to-end.
        let replicas = vec![SyntheticReplica::with_delay(Duration::from_millis(20))];
        let e = Engine::start(
            replicas,
            ServeConfig {
                max_batch: 1,
                ..ServeConfig::default()
            },
            Registry::new(),
        );
        let fs = frames(5);
        let deadline = Instant::now() + Duration::from_millis(25);
        let tickets: Vec<Ticket> = fs
            .iter()
            .map(|f| e.submit_with_deadline(f, Some(deadline)).unwrap())
            .collect();
        let outcomes: Vec<Completion> = tickets.into_iter().map(Ticket::wait).collect();
        assert!(
            outcomes.contains(&Err(ServeError::DeadlineExpired)),
            "5 × 20ms of work against a 25ms budget must expire some: {outcomes:?}"
        );
        for o in &outcomes {
            assert!(matches!(o, Ok(_) | Err(ServeError::DeadlineExpired)));
        }
    }

    #[test]
    fn boxed_replicas_serve_like_concrete_ones() {
        let replicas: Vec<Box<dyn crate::Replica>> = vec![
            Box::new(SyntheticReplica::new()),
            Box::new(SyntheticReplica::new()),
        ];
        let e = Engine::start(replicas, ServeConfig::default(), Registry::new());
        let mut reference = SyntheticReplica::new();
        for f in frames(8) {
            assert_eq!(
                e.classify(&f),
                Ok(reference.infer_batch(std::slice::from_ref(&f))[0])
            );
        }
    }

    /// A latch inside `infer_batch`: a batch that enters announces itself
    /// and, if it is one of the first `hold` to do so, parks until it is
    /// released — so a test decides what "busy" means instead of a clock.
    /// The default gate holds nobody.
    #[derive(Default)]
    struct Gate {
        state: std::sync::Mutex<GateState>,
        cv: std::sync::Condvar,
    }

    #[derive(Default)]
    struct GateState {
        hold: usize,
        released: usize,
        entered: usize,
    }

    impl Gate {
        /// Holds the first `n` batches to enter; later ones pass through.
        fn holding(n: usize) -> Arc<Gate> {
            let g = Gate::default();
            g.state.lock().unwrap().hold = n;
            Arc::new(g)
        }

        fn closed() -> Arc<Gate> {
            Gate::holding(usize::MAX)
        }

        /// Let the first `n` entrants go (the rest of the held stay).
        fn release(&self, n: usize) {
            self.state.lock().unwrap().released = n;
            self.cv.notify_all();
        }

        fn open(&self) {
            self.release(usize::MAX);
        }

        /// Worker side: count the entry, then park while held — or for
        /// ten seconds, so that a test whose assertion fails before it
        /// opens the gate fails instead of hanging in the engine's drop.
        fn pass(&self) {
            let mut st = self.state.lock().unwrap();
            st.entered += 1;
            let me = st.entered;
            self.cv.notify_all();
            let give_up = Instant::now() + Duration::from_secs(10);
            while me <= st.hold && me > st.released && Instant::now() < give_up {
                st = self.cv.wait_timeout(st, Duration::from_secs(1)).unwrap().0;
            }
        }

        /// Test side: block until `n` batches have entered.
        fn await_entered(&self, n: usize) {
            let mut st = self.state.lock().unwrap();
            while st.entered < n {
                st = self.cv.wait(st).unwrap();
            }
        }
    }

    /// `SyntheticReplica` with a [`Gate`] in front of inference, call
    /// counters, and one panic on demand.
    struct Probe {
        inner: SyntheticReplica,
        gate: Arc<Gate>,
        canaries: Arc<AtomicUsize>,
        infers: Arc<AtomicUsize>,
        panic_once: Arc<AtomicBool>,
    }

    impl Probe {
        fn new(gate: &Arc<Gate>) -> Probe {
            Probe {
                inner: SyntheticReplica::repairable(),
                gate: Arc::clone(gate),
                canaries: Arc::default(),
                infers: Arc::default(),
                panic_once: Arc::default(),
            }
        }
    }

    // Relaxed throughout: the engine's own hand-offs (and the shutdown
    // join) order every test-side read after the write it checks.
    impl Replica for Probe {
        fn input_dims(&self) -> [usize; 3] {
            self.inner.input_dims()
        }

        fn input_range(&self) -> RangeInclusive<f32> {
            self.inner.input_range()
        }

        fn infer_batch(&mut self, frames: &[Tensor]) -> Vec<MaskClass> {
            self.infers.fetch_add(1, Ordering::Relaxed);
            self.gate.pass();
            if self.panic_once.swap(false, Ordering::Relaxed) {
                // Unwinds like a panic, without the hook's stderr noise.
                std::panic::resume_unwind(Box::new("probe fault"));
            }
            self.inner.infer_batch(frames)
        }

        fn canary(&self, frame: &Tensor) -> Vec<i64> {
            self.canaries.fetch_add(1, Ordering::Relaxed);
            self.inner.canary(frame)
        }

        fn inject_faults(&mut self, n: usize, seed: u64) {
            self.inner.inject_faults(n, seed)
        }

        fn repair(&mut self) -> bool {
            self.inner.repair()
        }
    }

    /// Two probes over `inner()` on `cfg` (single-request batches), both
    /// parked on a request each, then worker 0 let go: it alone is free to
    /// pull what comes next. Worker 1 stays parked until the returned gate
    /// opens; the two tickets resolve `Ok` after that.
    fn engine_with_worker_1_held(
        cfg: ServeConfig,
        inner: fn() -> SyntheticReplica,
    ) -> (Engine, Arc<Gate>, Vec<Ticket>) {
        assert_eq!(cfg.max_batch, 1, "one request must park one worker");
        let (g0, g1) = (Gate::closed(), Gate::closed());
        let probes = [&g0, &g1].map(|g| Probe {
            inner: inner(),
            ..Probe::new(g)
        });
        let e = Engine::start(probes.into(), cfg, Registry::new());
        let parked = frames(2).iter().map(|f| e.submit(f).unwrap()).collect();
        g0.await_entered(1);
        g1.await_entered(1);
        g0.open();
        (e, g1, parked)
    }

    /// `(full, idle)` seal counts, after a shutdown has quiesced them.
    fn seals(e: &Engine) -> (u64, u64) {
        let snap = e.registry().snapshot();
        let c = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        (c("serve.seal.full"), c("serve.seal.idle"))
    }

    /// Batches served by each of two workers, fewest first.
    fn batches_per_worker(e: &Engine) -> [u64; 2] {
        let snap = e.registry().snapshot();
        let mut n = [0, 1].map(|w| snap.counters[&format!("serve.worker.{w}.batches")]);
        n.sort_unstable();
        n
    }

    fn depth_gauge(e: &Engine) -> f64 {
        e.registry().snapshot().gauges["serve.queue_depth"]
    }

    #[test]
    fn lone_request_on_an_idle_engine_seals_at_once() {
        for workers in [1, 2] {
            let e = engine(workers, ServeConfig::default());
            assert!(e.classify(&frames(1)[0]).is_ok());
            e.shutdown();
            assert_eq!(seals(&e), (0, 1), "{workers} workers");
        }
    }

    #[test]
    fn zero_delay_batching_coalesces_under_pressure() {
        // With the only worker held busy, requests wait in the admission
        // queue and leave in `max_batch` pulls when it frees up: four as
        // one full batch, five as a full one and the rest.
        for queued in [4, 5] {
            let gate = Gate::closed();
            let e = Engine::start(
                vec![Probe::new(&gate)],
                ServeConfig {
                    max_batch: 4,
                    ..ServeConfig::default()
                },
                Registry::new(),
            );
            let fs = frames(1 + queued);
            let head = e.submit(&fs[0]).unwrap();
            gate.await_entered(1);
            let tickets: Vec<Ticket> = fs[1..].iter().map(|f| e.submit(f).unwrap()).collect();
            assert_eq!(e.queue_depth(), queued);
            assert_eq!(depth_gauge(&e), queued as f64);
            gate.open();
            assert!(head.wait().is_ok());
            for t in tickets {
                assert!(t.wait().is_ok());
            }
            // The gauge is set on the pull side too, so it does not keep
            // the depth the last submit saw.
            assert_eq!(depth_gauge(&e), 0.0);
            e.shutdown();
            // The head alone, one full batch, and what was left over.
            assert_eq!(seals(&e), (1, queued as u64 - 3), "{queued} queued");
            let snap = e.registry().snapshot();
            assert_eq!(snap.histograms["serve.batch_size"].max, 4);
        }

        // Free-running: 32 requests in at most-4 batches are at least 8
        // batches, no pull exceeds the configured cap, and every batch
        // closed one of the two ways.
        let e = engine(
            1,
            ServeConfig {
                max_batch: 4,
                ..ServeConfig::default()
            },
        );
        let fs = frames(32);
        let tickets: Vec<Ticket> = fs.iter().map(|f| e.submit(f).unwrap()).collect();
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        e.shutdown();
        let snap = e.registry().snapshot();
        assert!(snap.counters["serve.batches"] >= 8);
        assert!(snap.histograms["serve.batch_size"].max <= 4);
        let (full, idle) = seals(&e);
        assert_eq!(full + idle, snap.counters["serve.batches"]);
    }

    #[test]
    fn queued_requests_leave_as_full_batches_while_another_worker_is_held() {
        // Both workers park on their first batch; twelve requests queue up
        // behind them; one worker is let go and must take them as three
        // pulls of four, not as twelve of one.
        let gate = Gate::holding(2);
        let e = Engine::start(
            vec![Probe::new(&gate), Probe::new(&gate)],
            ServeConfig {
                max_batch: 4,
                ..ServeConfig::default()
            },
            Registry::new(),
        );
        let fs = frames(14);
        let mut tickets = Vec::new();
        for (i, f) in fs[..2].iter().enumerate() {
            tickets.push(e.submit(f).unwrap());
            gate.await_entered(i + 1);
        }
        tickets.extend(fs[2..].iter().map(|f| e.submit(f).unwrap()));
        assert_eq!(e.queue_depth(), 12);
        gate.release(1);
        let held = tickets.remove(1);
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        gate.open();
        assert!(held.wait().is_ok());
        e.shutdown();
        assert_eq!(seals(&e), (3, 2));
        assert_eq!(batches_per_worker(&e), [1, 4]);
    }

    #[test]
    fn lone_requests_go_to_the_idle_worker_not_the_next_in_rotation() {
        // Whichever worker pulls the first request parks on the gate…
        let gate = Gate::holding(1);
        let e = Engine::start(
            vec![Probe::new(&gate), Probe::new(&gate)],
            ServeConfig::default(),
            Registry::new(),
        );
        let fs = frames(6);
        let stuck = e.submit(&fs[0]).unwrap();
        gate.await_entered(1);
        // …so every later lone request is the other one's, each time.
        for f in &fs[1..] {
            assert!(e.classify(f).is_ok());
        }
        gate.open();
        assert!(stuck.wait().is_ok());
        e.shutdown();
        assert_eq!(batches_per_worker(&e), [1, 5]);
        assert_eq!(seals(&e), (0, 6));
    }

    fn lifecycle_cfg() -> ServeConfig {
        ServeConfig {
            max_batch: 2,
            ..recovery_cfg()
        }
    }

    /// A worker that left rotation and came back must pull again exactly
    /// as before; a worker that forgot how hangs its test on `classify`.
    fn assert_faults_once_then_pulls_again(e: Engine) {
        let f = frames(1).remove(0);
        assert_eq!(e.classify(&f), Err(ServeError::WorkerFault { worker: 0 }));
        assert!(eventually(|| e.worker_state(0) == WorkerState::Healthy));
        assert!(e.classify(&f).is_ok());
        e.shutdown();
        assert_eq!(seals(&e), (0, 2));
    }

    #[test]
    fn worker_pulls_again_after_canary_fault_and_reinstatement() {
        let replicas = vec![SyntheticReplica::repairable()];
        let e = Engine::start(replicas, lifecycle_cfg(), Registry::new());
        e.inject_faults(0, 1, 42);
        assert_faults_once_then_pulls_again(e);
    }

    #[test]
    fn worker_pulls_again_after_a_panicking_replica() {
        let probe = Probe::new(&Arc::default());
        probe.panic_once.store(true, Ordering::Relaxed);
        let e = Engine::start(vec![probe], lifecycle_cfg(), Registry::new());
        assert_faults_once_then_pulls_again(e);
    }

    #[test]
    fn requests_queued_behind_a_faulting_last_worker_read_no_healthy_workers() {
        let gate = Gate::closed();
        let probe = Probe::new(&gate);
        probe.panic_once.store(true, Ordering::Relaxed);
        let e = Engine::start(vec![probe], lifecycle_cfg(), Registry::new());
        let fs = frames(3);
        // The first batch parks in the replica and will fault on release;
        // two more requests wait in the admission queue behind it…
        let first = e.submit(&fs[0]).unwrap();
        gate.await_entered(1);
        let queued: Vec<Ticket> = fs[1..].iter().map(|f| e.submit(f).unwrap()).collect();
        gate.open();
        // …and are answered by the worker on its way out of rotation, not
        // left for a reinstatement that may never come.
        assert_eq!(first.wait(), Err(ServeError::WorkerFault { worker: 0 }));
        for t in queued {
            assert_eq!(t.wait(), Err(ServeError::NoHealthyWorkers));
        }
        assert!(eventually(|| e.worker_state(0) == WorkerState::Healthy));
        assert!(e.classify(&fs[0]).is_ok());
        e.shutdown();
        assert_eq!(seals(&e), (0, 2));
    }

    #[test]
    fn blocked_submitter_is_released_when_the_last_worker_faults() {
        let gate = Gate::closed();
        // Unrepairable, so it never comes back to take the blocked request.
        let probe = Probe {
            inner: SyntheticReplica::new(),
            ..Probe::new(&gate)
        };
        probe.panic_once.store(true, Ordering::Relaxed);
        let e = Engine::start(
            vec![probe],
            ServeConfig {
                queue_cap: 1,
                max_batch: 1,
                ..ServeConfig::default()
            },
            Registry::new(),
        );
        let fs = frames(3);
        let first = e.submit(&fs[0]).unwrap();
        gate.await_entered(1);
        let queued = e.submit(&fs[1]).unwrap();
        let (about_to_submit, go) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            // The queue is full and the only worker is held: this submit
            // parks (`Block`) with nobody left to make room but the rule.
            let blocked = s.spawn(|| {
                about_to_submit.send(()).unwrap();
                e.submit(&fs[2]).unwrap().wait()
            });
            go.recv().unwrap();
            gate.open();
            assert_eq!(first.wait(), Err(ServeError::WorkerFault { worker: 0 }));
            assert_eq!(queued.wait(), Err(ServeError::NoHealthyWorkers));
            assert_eq!(blocked.join().unwrap(), Err(ServeError::NoHealthyWorkers));
        });
        assert_eq!(e.queue_depth(), 0);
    }

    #[test]
    fn batch_expired_in_the_hand_off_queue_costs_no_canary() {
        let gate = Gate::closed();
        let probe = Probe::new(&gate);
        let (canaries, infers) = (Arc::clone(&probe.canaries), Arc::clone(&probe.infers));
        let e = Engine::start(
            vec![probe],
            ServeConfig {
                max_batch: 1,
                ..ServeConfig::default()
            },
            Registry::new(),
        );
        let fs = frames(3);
        let head = e.submit(&fs[0]).unwrap();
        gate.await_entered(1);
        // Admitted, then out of time while it waits in the admission
        // queue behind the held batch.
        let late = e
            .submit_with_deadline(&fs[1], Some(Instant::now()))
            .unwrap();
        gate.open();
        assert!(head.wait().is_ok());
        assert_eq!(late.wait(), Err(ServeError::DeadlineExpired));
        // A live batch is still gated exactly as before.
        assert!(e.classify(&fs[2]).is_ok());
        e.shutdown();
        assert_eq!(
            canaries.load(Ordering::Relaxed),
            3,
            "engine start, head, live — not late"
        );
        assert_eq!(infers.load(Ordering::Relaxed), 2);
        assert_eq!(seals(&e), (2, 0), "an expired pull is not a batch");
    }

    #[test]
    fn every_way_a_request_ends_recycles_its_slot() {
        const N: usize = 5;
        // One worker held on a head request, room for N behind it. Then:
        // `abandoned` — N clients give up at their deadline while the worker
        // is held, so the engine is the last holder of their slots when it
        // expires or sheds them; `live` requests that get served; `refused`
        // ones turned away. Returns the pool's length once all is resolved.
        let run = |policy, abandoned: bool, live: usize, refused: usize| {
            let gate = Gate::closed();
            let cfg = ServeConfig {
                queue_cap: N,
                max_batch: 1,
                policy,
                ..ServeConfig::default()
            };
            let e = Engine::start(vec![Probe::new(&gate)], cfg, Registry::new());
            let mut tickets = vec![e.submit(&frames(1)[0]).unwrap()];
            gate.await_entered(1);
            for f in frames(if abandoned { N } else { 0 }) {
                let t = e.submit_with_deadline(&f, Some(Instant::now())).unwrap();
                assert_eq!(t.wait(), Err(ServeError::DeadlineExpired));
            }
            tickets.extend(frames(live).iter().map(|f| e.submit(f).unwrap()));
            for f in frames(refused) {
                assert!(matches!(e.submit(&f), Err(ServeError::Rejected)));
            }
            // The engine lets go first (`shutdown` joins the worker), then
            // the clients wait: who holds a slot last is never a race.
            gate.open();
            e.shutdown();
            assert!(tickets.into_iter().all(|t| t.wait().is_ok()));
            let pool = e.shared.slot_pool.lock();
            pool.len()
        };
        use BackpressurePolicy::{Block, Reject, ShedOldest};
        assert_eq!(run(Block, false, N, 0), N + 1, "served: the head and N");
        assert_eq!(run(Block, true, 0, 0), N + 1, "expired in the queue");
        // A newcomer takes its slot before its victim's — or, turned away,
        // its own — comes back: one slot more than that was ever minted.
        assert_eq!(run(ShedOldest, true, N, 0), N + 2, "shed by N newcomers");
        assert_eq!(run(Reject, false, N, N), N + 2, "turned away");
    }
}
