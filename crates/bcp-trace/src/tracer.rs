//! The tracer: head sampling, the nanosecond epoch clock, and the one
//! bounded queue that finished records land in.

use crate::record::{TraceEvent, TraceOutcome, TraceRecord};
use crate::registry::{Counter, Registry};
use bcp_sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

/// Tracing knobs, carried inside the engine's config.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Head sampling: trace one request in `sample_rate` (1 = every
    /// request, the right setting for tests and dedicated profiling runs;
    /// the production default of 64 keeps the overhead within the bench
    /// gate's 3%).
    pub sample_rate: u64,
    /// Each engine thread's share of the finished-record queue: the
    /// tracer holds `ring_capacity × (workers + 1)` records between
    /// drains. Overflow drops records and counts them (`trace.dropped`),
    /// it never blocks the hot path.
    pub ring_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample_rate: 64,
            ring_capacity: 4096,
        }
    }
}

impl TraceConfig {
    /// Config that samples every request — what tests and `bcp profile`
    /// use.
    pub fn sample_all() -> TraceConfig {
        TraceConfig {
            sample_rate: 1,
            ..TraceConfig::default()
        }
    }
}

/// Pre-resolved `trace.*` telemetry handles.
struct TraceMetrics {
    sampled: Counter,
    completed: Counter,
    dropped: Counter,
}

/// Shared tracing state for one engine: the epoch clock, the sampling
/// counter, and the finished-record queue.
pub struct Tracer {
    epoch: Instant,
    cfg: TraceConfig,
    /// Admission counter driving head sampling (`n % sample_rate == 0`).
    admissions: AtomicU64,
    /// Next [`TraceId`](crate::TraceId).
    next_id: AtomicU64,
    /// Producer end of the finished-record queue; any thread finishing a
    /// trace sends on it.
    done: SyncSender<TraceRecord>,
    /// Collector end, locked only by [`drain`](Tracer::drain).
    collected: Mutex<Receiver<TraceRecord>>,
    /// Records turned away by a full queue, by this tracer alone (the
    /// `trace.dropped` counter sums every tracer of its registry).
    dropped: AtomicU64,
    metrics: TraceMetrics,
}

impl Tracer {
    /// Tracer for an engine with `workers` worker threads; its queue holds
    /// `cfg.ring_capacity × (workers + 1)` finished records. Its
    /// `trace.sampled` / `trace.completed` / `trace.dropped` counters are
    /// resolved in `registry` here, once.
    pub fn new(cfg: TraceConfig, workers: usize, registry: &Registry) -> Arc<Tracer> {
        let cap = cfg.ring_capacity.saturating_mul(workers.saturating_add(1));
        let (done, collected) = sync_channel(cap);
        Arc::new(Tracer {
            epoch: Instant::now(),
            cfg,
            admissions: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            done,
            collected: Mutex::new(collected),
            dropped: AtomicU64::new(0),
            metrics: TraceMetrics {
                sampled: registry.counter("trace.sampled"),
                completed: registry.counter("trace.completed"),
                dropped: registry.counter("trace.dropped"),
            },
        })
    }

    /// The configuration the tracer was built with.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Nanoseconds since the tracer's epoch, floored at 1 so a genuine
    /// stamp is never confused with the "not reached" sentinel 0.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos())
            .unwrap_or(u64::MAX)
            .max(1)
    }

    /// Head-sampling decision for one admitted request: every
    /// `sample_rate`-th admission gets a live trace, already stamped with
    /// [`TraceEvent::Enqueue`].
    // bcp:hot-path — sampling decision runs once per admitted request
    pub fn sample(&self) -> Option<Box<ActiveTrace>> {
        // ordering: Relaxed — admission counter used only for the 1-in-N
        // sampling decision; no data is published through it.
        let n = self.admissions.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(self.cfg.sample_rate.max(1)) {
            return None;
        }
        self.metrics.sampled.inc();
        // ordering: Relaxed — id allocation needs uniqueness (RMW
        // atomicity), not ordering.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut record = TraceRecord::new(id);
        // audit: allow(index): stamps is an EVENTS-sized array indexed by enum discriminant — in bounds by construction
        record.stamps[TraceEvent::Enqueue as usize] = self.now_ns();
        // audit: allow(alloc): one boxed live trace per *sampled* request — the 1-in-N slow lane, already past the early return
        Some(Box::new(ActiveTrace { record }))
    }

    /// Finish a live trace: stamp [`TraceEvent::Deliver`] if the caller
    /// has not, set the outcome, and queue the record for the collector.
    /// A full queue drops the record and counts it; it never blocks.
    // Takes the Box callers already hold (`Option<Box<ActiveTrace>>` in
    // each Request) so finishing moves a pointer, not the record.
    #[allow(clippy::boxed_local)]
    // bcp:hot-path — trace completion runs once per sampled request
    pub fn finish(&self, mut trace: Box<ActiveTrace>, outcome: TraceOutcome) {
        trace.record.outcome = outcome;
        // audit: allow(index): stamps is an EVENTS-sized array indexed by enum discriminant — in bounds by construction
        if trace.record.stamps[TraceEvent::Deliver as usize] == 0 {
            // audit: allow(index): same EVENTS-sized array, same in-bounds discriminant
            trace.record.stamps[TraceEvent::Deliver as usize] = self.now_ns();
        }
        if self.done.try_send(trace.record).is_ok() {
            self.metrics.completed.inc();
        } else {
            // ordering: Relaxed — statistic counter, never a publish.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            self.metrics.dropped.inc();
        }
    }

    /// Take every finished record queued so far.
    pub fn drain(&self) -> Vec<TraceRecord> {
        self.collected.lock().try_iter().collect()
    }

    /// Total records dropped on a full queue so far.
    pub fn dropped(&self) -> u64 {
        // ordering: Relaxed — monotonic statistic; no data is published
        // through this counter.
        self.dropped.load(Ordering::Relaxed)
    }

    /// Requests sampled so far.
    pub fn sampled(&self) -> u64 {
        // ordering: Relaxed — statistic read; bounded staleness is fine.
        let n = self.admissions.load(Ordering::Relaxed);
        let rate = self.cfg.sample_rate.max(1);
        n.div_ceil(rate)
    }
}

/// A live, travelling trace: owned by whichever thread currently owns the
/// request, stamped lock-free as it moves through the engine.
pub struct ActiveTrace {
    record: TraceRecord,
}

impl ActiveTrace {
    /// Stamp `event` with the tracer's current clock. Idempotent per
    /// event: the first stamp wins (re-stamps would break monotonicity
    /// audits).
    #[inline]
    // bcp:hot-path — event stamping runs at every pipeline hand-off of a sampled request
    pub fn stamp(&mut self, tracer: &Tracer, event: TraceEvent) {
        // audit: allow(index): stamps is an EVENTS-sized array indexed by enum discriminant — in bounds by construction
        let slot = &mut self.record.stamps[event as usize];
        if *slot == 0 {
            *slot = tracer.now_ns();
        }
    }

    /// Record the worker index that served this request.
    #[inline]
    pub fn set_worker(&mut self, worker: usize) {
        self.record.worker = worker;
    }

    /// Record the micro-batch size this request rode in.
    #[inline]
    pub fn set_batch_size(&mut self, size: usize) {
        self.record.batch_size = u32::try_from(size).unwrap_or(u32::MAX);
    }

    /// Read-only view of the record being built (tests).
    pub fn record(&self) -> &TraceRecord {
        &self.record
    }
}

/// Stamp an optional live trace — the no-op form the engine hot path
/// uses. When tracing is off (or this request was not sampled) this is a
/// single branch on `None`.
#[inline]
pub fn stamp(
    trace: &mut Option<Box<ActiveTrace>>,
    tracer: &Option<Arc<Tracer>>,
    event: TraceEvent,
) {
    if let (Some(t), Some(tr)) = (trace.as_mut(), tracer.as_ref()) {
        t.stamp(tr, event);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;
    use crate::record::{TraceId, EVENTS};

    #[test]
    fn sampling_one_in_n_is_exact() {
        let t = Tracer::new(
            TraceConfig {
                sample_rate: 4,
                ring_capacity: 64,
            },
            1,
            &Registry::new(),
        );
        let sampled = (0..16).filter_map(|_| t.sample()).count();
        assert_eq!(sampled, 4, "exactly every 4th admission is sampled");
        assert_eq!(t.sampled(), 4);
    }

    #[test]
    fn sample_all_traces_everything() {
        let t = Tracer::new(TraceConfig::sample_all(), 1, &Registry::new());
        assert_eq!((0..10).filter_map(|_| t.sample()).count(), 10);
    }

    #[test]
    fn stamps_are_monotone_and_first_stamp_wins() {
        let t = Tracer::new(TraceConfig::sample_all(), 1, &Registry::new());
        let mut tr = t.sample().unwrap();
        for e in EVENTS {
            tr.stamp(&t, e);
        }
        let first_compute = tr.record().stamps[TraceEvent::ComputeStart as usize];
        tr.stamp(&t, TraceEvent::ComputeStart);
        assert_eq!(
            tr.record().stamps[TraceEvent::ComputeStart as usize],
            first_compute
        );
        let stamps = tr.record().stamps;
        for w in stamps.windows(2) {
            assert!(w[0] <= w[1], "stamps must be non-decreasing: {stamps:?}");
        }
        assert!(stamps[0] >= 1, "stamp 0 is reserved for 'not reached'");
    }

    #[test]
    fn finish_routes_to_rings_and_counts() {
        let r = Registry::new();
        let t = Tracer::new(TraceConfig::sample_all(), 2, &r);
        let a = t.sample().unwrap();
        let b = t.sample().unwrap();
        t.finish(a, TraceOutcome::Ok);
        t.finish(b, TraceOutcome::Failed);
        let records = t.drain();
        assert_eq!(records.len(), 2);
        assert!(records
            .iter()
            .all(|r| r.stamp(TraceEvent::Deliver).is_some()));
        let snap = r.snapshot();
        assert_eq!(snap.counters["trace.sampled"], 2);
        assert_eq!(snap.counters["trace.completed"], 2);
        assert_eq!(snap.counters.get("trace.dropped").copied().unwrap_or(0), 0);
    }

    #[test]
    fn ring_overflow_counts_into_dropped() {
        let r = Registry::new();
        let t = Tracer::new(
            TraceConfig {
                sample_rate: 1,
                ring_capacity: 2,
            },
            1,
            &r,
        );
        // One worker plus the submitters: 2 × 2 = 4 records fit.
        for _ in 0..8 {
            let tr = t.sample().unwrap();
            t.finish(tr, TraceOutcome::Ok);
        }
        assert_eq!(t.dropped(), 4);
        assert_eq!(r.snapshot().counters["trace.dropped"], 4);
        assert_eq!(t.drain().len(), 4);
    }

    /// Two producers finish records while a third thread drains every
    /// couple of milliseconds, as the benchmark's traced run does: every
    /// sampled record is drained exactly once or counted as dropped, and
    /// a queue with room for the whole run drops nothing.
    #[test]
    fn concurrent_producers_and_a_draining_collector_account_for_every_record() {
        use std::collections::HashSet;
        use std::sync::atomic::AtomicUsize;
        use std::time::Duration;
        const PER_PRODUCER: usize = 2_000;
        for ring_capacity in [2, PER_PRODUCER] {
            let t = Tracer::new(
                TraceConfig {
                    sample_rate: 1,
                    ring_capacity,
                },
                1,
                &Registry::new(),
            );
            let finished = AtomicUsize::new(0);
            let mut drained = Vec::new();
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        for _ in 0..PER_PRODUCER {
                            t.finish(t.sample().unwrap(), TraceOutcome::Ok);
                        }
                        // ordering: Release — pairs with the collector's
                        // Acquire load below.
                        finished.fetch_add(1, Ordering::Release);
                    });
                }
                // ordering: Acquire — pairs with the producers' Release.
                while finished.load(Ordering::Acquire) < 2 {
                    drained.extend(t.drain());
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
            drained.extend(t.drain());
            assert_eq!(t.sampled(), 2 * PER_PRODUCER as u64);
            assert_eq!(
                drained.len() as u64 + t.dropped(),
                t.sampled(),
                "every sampled record is drained or counted as dropped"
            );
            let ids: HashSet<TraceId> = drained.iter().map(|r| r.id).collect();
            assert_eq!(ids.len(), drained.len(), "no record is drained twice");
            if ring_capacity == PER_PRODUCER {
                assert_eq!(t.dropped(), 0, "2 × {ring_capacity} slots hold the run");
            }
        }
    }
}
