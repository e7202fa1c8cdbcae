//! The shared metric store and its handle types.

use crate::histogram::LogHistogram;
use crate::sink::Event;
use crate::snapshot::Snapshot;
use bcp_sync::Mutex;
use serde::{Map, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Inner {
    start: Instant,
    // Name maps are cold: the hot path holds pre-resolved `Arc` handles.
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Mutex<LogHistogram>>>>,
    /// Serialized `events.jsonl` lines; `None` drops events.
    events: Mutex<Option<Vec<String>>>,
}

/// Cheaply-cloneable handle to a shared metric store. All methods are
/// thread-safe; handles returned by [`counter`](Registry::counter) /
/// [`gauge`](Registry::gauge) / [`histogram`](Registry::histogram) keep
/// working after the registry handle they came from is dropped.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Metrics-only registry: events are dropped.
    pub fn new() -> Registry {
        Registry {
            inner: Arc::new(Inner {
                start: Instant::now(),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                events: Mutex::new(None),
            }),
        }
    }

    /// Registry that buffers JSONL events in memory (drain with
    /// [`take_events`](Registry::take_events) or write via
    /// [`write_artifacts`](Registry::write_artifacts)).
    pub fn with_event_buffer() -> Registry {
        let r = Registry::new();
        *r.inner.events.lock() = Some(Vec::new());
        r
    }

    /// Microseconds elapsed since the registry was created (the `ts_us`
    /// timebase of every event).
    pub fn elapsed_us(&self) -> u64 {
        self.inner.start.elapsed().as_micros() as u64
    }

    /// Monotonic counter handle, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock();
        Counter(Arc::clone(map.entry(name.to_string()).or_default()))
    }

    /// Last-write-wins gauge handle, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        // All-zero bits are `0.0_f64`, so a fresh gauge reads zero.
        let mut map = self.inner.gauges.lock();
        Gauge(Arc::clone(map.entry(name.to_string()).or_default()))
    }

    /// Log-bucketed histogram handle, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.histograms.lock();
        Histogram(Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Mutex::new(LogHistogram::new()))),
        ))
    }

    /// Emit a free-form `mark` event carrying `fields`. No-op without an
    /// event buffer, so it is safe to call from hot-ish paths.
    pub fn mark(&self, name: &str, fields: Map) {
        if let Some(lines) = self.inner.events.lock().as_mut() {
            let event = Event {
                ts_us: self.elapsed_us(),
                name: name.to_string(),
                fields,
            };
            lines.push(serde_json::to_string(&event.to_value()).expect("event json"));
        }
    }

    /// Drain buffered events (empty without an event buffer). Each
    /// string is one JSON object line.
    pub fn take_events(&self) -> Vec<String> {
        self.inner
            .events
            .lock()
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Freeze all metrics into a serializable [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .iter()
            // ordering: Relaxed — snapshot reads tolerate torn-across-
            // counters staleness; each counter alone is atomic.
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), Gauge::read(v)))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.lock().summarize()))
            .collect();
        Snapshot {
            elapsed_us: self.elapsed_us(),
            counters,
            gauges,
            histograms,
        }
    }

    /// Render every metric as plain text, one `name value` line per
    /// counter, gauge, and histogram statistic (`.count`, `.mean`, `.p50`,
    /// `.p95`, `.p99`, plus `.overflow` when nonzero) — the `/metrics`-style
    /// dump for scraping or eyeballing. Lines are sorted by name, so the
    /// output is stable across runs and diffs cleanly.
    pub fn render_text(&self) -> String {
        let snap = self.snapshot();
        let mut lines: Vec<String> = Vec::new();
        for (name, v) in &snap.counters {
            lines.push(format!("{name} {v}"));
        }
        for (name, v) in &snap.gauges {
            lines.push(format!("{name} {v}"));
        }
        for (name, s) in &snap.histograms {
            lines.push(format!("{name}.count {}", s.count));
            lines.push(format!("{name}.mean {:.1}", s.mean));
            lines.push(format!("{name}.p50 {}", s.p50));
            lines.push(format!("{name}.p95 {}", s.p95));
            lines.push(format!("{name}.p99 {}", s.p99));
            if s.overflow > 0 {
                lines.push(format!("{name}.overflow {}", s.overflow));
            }
        }
        lines.sort();
        lines.iter().map(|l| format!("{l}\n")).collect()
    }

    /// Write run artifacts into `dir` (created if missing):
    /// `events.jsonl` (buffered events) and `summary.json` (the
    /// [`Snapshot`]). Returns the summary path.
    pub fn write_artifacts(&self, dir: impl AsRef<Path>) -> std::io::Result<std::path::PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        if let Some(lines) = &*self.inner.events.lock() {
            let body: String = lines.iter().map(|l| format!("{l}\n")).collect();
            std::fs::write(dir.join("events.jsonl"), body)?;
        }
        let summary = dir.join("summary.json");
        std::fs::write(&summary, self.snapshot().to_pretty_json())?;
        Ok(summary)
    }
}

/// Monotonic counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    // bcp:hot-path — counters are bumped at every request milestone
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        // ordering: Relaxed — monotonic statistic; increments carry no
        // payload and readers tolerate staleness.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — statistic read, staleness is acceptable.
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge: an `f64`'s bits in one atomic word, never torn.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    // bcp:hot-path — the queue-depth gauge is written on every submit and every pull
    pub fn set(&self, v: f64) {
        // ordering: Relaxed — last-write-wins statistic; the word is the
        // whole value and publishes no other data.
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        Gauge::read(&self.0)
    }

    fn read(bits: &AtomicU64) -> f64 {
        // ordering: Relaxed — statistic read, staleness is acceptable.
        f64::from_bits(bits.load(Ordering::Relaxed))
    }
}

/// Log-bucketed histogram handle.
#[derive(Clone)]
pub struct Histogram(Arc<Mutex<LogHistogram>>);

impl Histogram {
    /// Record one sample.
    // bcp:hot-path — latency/batch-size samples land here once per request/batch
    pub fn record(&self, v: u64) {
        // audit: allow(block): per-histogram mutex around a fixed-size bucket bump — a few instructions, never held across compute
        self.0.lock().record(v);
    }

    /// Record a duration as nanoseconds (saturating past ~584 years).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Summarize the current state.
    pub fn summarize(&self) -> crate::HistogramSummary {
        self.0.lock().summarize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let r = Registry::new();
        r.counter("frames").add(3);
        r.counter("frames").inc();
        r.gauge("lr").set(0.02);
        r.histogram("lat").record(100);
        r.histogram("lat").record(200);
        let s = r.snapshot();
        assert_eq!(s.counters["frames"], 4);
        assert_eq!(s.gauges["lr"], 0.02);
        assert_eq!(s.histograms["lat"].count, 2);

        // Two writers, one word: a reader only ever sees a value one of
        // them stored (or the 0.02 from above), never a mix of the two.
        let (g, vals) = (r.gauge("lr"), [0.02, -1.5e300, 2.5e-300]);
        std::thread::scope(|s| {
            for v in &vals[1..] {
                s.spawn(|| (0..10_000).for_each(|_| g.set(*v)));
            }
            (0..10_000).for_each(|_| assert!(vals.contains(&g.get()), "read {:e}", g.get()));
        });
        assert!(vals[1..].contains(&r.snapshot().gauges["lr"]));
    }

    #[test]
    fn handles_outlive_cloned_registries() {
        let c = {
            let r = Registry::new();
            r.counter("x")
        };
        c.inc();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let r = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = r.counter("hits");
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(r.counter("hits").get(), 80_000);
    }

    #[test]
    fn render_text_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("serve.ok").add(7);
        r.counter("serve.requests").add(9);
        r.gauge("serve.queue_depth").set(2.0);
        r.histogram("serve.latency_ns").record(1000);
        let text = r.render_text();
        let lines: Vec<&str> = text.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "dump must be sorted by name");
        assert!(lines.contains(&"serve.ok 7"));
        assert!(lines.contains(&"serve.requests 9"));
        assert!(lines.contains(&"serve.queue_depth 2"));
        assert!(lines.contains(&"serve.latency_ns.count 1"));
        assert!(text.contains("serve.latency_ns.p99 1000"));
        // Every metric shows: one line per counter and gauge, five per
        // histogram.
        for stat in ["count", "mean", "p50", "p95", "p99"] {
            let prefix = format!("serve.latency_ns.{stat} ");
            assert!(lines.iter().any(|l| l.starts_with(&prefix)), "{stat}");
        }
        assert_eq!(lines.len(), 3 + 5);
        assert!(
            !text.contains(".overflow"),
            "overflow line only when nonzero"
        );
        // Rendering twice is identical (stability).
        assert_eq!(text, r.render_text());
    }

    #[test]
    fn mark_events_carry_fields() {
        let r = Registry::with_event_buffer();
        let mut fields = Map::new();
        fields.insert("epoch".into(), Value::UInt(3));
        r.mark("train.epoch", fields);
        let events = r.take_events();
        let v: Value = serde_json::from_str(&events[0]).unwrap();
        assert_eq!(v["epoch"].as_u64(), Some(3));
        assert_eq!(v["kind"].as_str(), Some("mark"));
    }
}
