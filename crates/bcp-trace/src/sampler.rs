//! Periodic time-series sampler for queue depth and worker occupancy.
//!
//! A background thread calls a user-supplied probe closure at a fixed
//! interval and accumulates `(t_ns, values)` rows. Unlike the trace rings
//! this path is cold (default 10 ms cadence), so a plain `Mutex` around
//! the row vector is fine — the probe itself must stay cheap because it
//! runs on the sampler thread, not the engine's.

use bcp_sync::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One sampled row: nanoseconds since sampler start plus one value per
/// configured series, in the order the series names were given.
#[derive(Clone, Debug)]
pub struct SampleRow {
    /// Nanoseconds since the sampler started.
    pub t_ns: u64,
    /// One value per series.
    pub values: Vec<u64>,
}

/// The collected time series.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    /// Series names, e.g. `["queue_depth", "workers_busy"]`.
    pub series: Vec<String>,
    /// Rows in sample order.
    pub rows: Vec<SampleRow>,
}

impl TimeSeries {
    /// JSONL export: one object per row,
    /// `{"t_ns": ..., "queue_depth": ..., ...}`.
    pub fn to_jsonl(&self) -> String {
        use serde::{Map, Value};
        let mut out = String::new();
        for row in &self.rows {
            let mut m = Map::new();
            m.insert("t_ns".into(), Value::UInt(row.t_ns));
            for (name, v) in self.series.iter().zip(row.values.iter()) {
                m.insert(name.clone(), Value::UInt(*v));
            }
            out.push_str(&serde_json::to_string(&Value::Object(m)).expect("sample row json"));
            out.push('\n');
        }
        out
    }

    /// Peak value of series `name`, 0 when absent or empty.
    pub fn peak(&self, name: &str) -> u64 {
        let Some(idx) = self.series.iter().position(|s| s == name) else {
            return 0;
        };
        self.rows
            .iter()
            .filter_map(|r| r.values.get(idx).copied())
            .max()
            .unwrap_or(0)
    }
}

/// Handle to a running sampler thread. Call
/// [`stop`](TimeSeriesSampler::stop) to join it and take the series.
pub struct TimeSeriesSampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    shared: Arc<SamplerShared>,
}

struct SamplerShared {
    series: Vec<String>,
    rows: Mutex<Vec<SampleRow>>,
}

impl TimeSeriesSampler {
    /// Start sampling. `probe` is called once per `interval` and must
    /// return one value per entry of `series` (short returns are padded
    /// with 0). The first sample is taken immediately.
    pub fn start<F>(series: Vec<String>, interval: Duration, probe: F) -> TimeSeriesSampler
    where
        F: FnMut() -> Vec<u64> + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(SamplerShared {
            series,
            rows: Mutex::new(Vec::new()),
        });
        let handle = {
            let stop = stop.clone();
            let shared = shared.clone();
            let mut probe = probe;
            std::thread::spawn(move || {
                let epoch = Instant::now();
                loop {
                    let mut values = probe();
                    values.resize(shared.series.len(), 0);
                    let t_ns = u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    shared.rows.lock().push(SampleRow { t_ns, values });
                    // ordering: Relaxed — a plain shutdown flag; the
                    // join in `stop`/`drop` is the synchronization edge.
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(interval);
                }
            })
        };
        TimeSeriesSampler {
            stop,
            handle: Some(handle),
            shared,
        }
    }

    /// Stop the sampler, join its thread, and return everything sampled.
    pub fn stop(mut self) -> TimeSeries {
        // ordering: Relaxed — flag only; the join below orders
        // everything the sampler thread wrote before we read the rows.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        TimeSeries {
            series: self.shared.series.clone(),
            rows: self.shared.rows.lock().clone(),
        }
    }
}

impl Drop for TimeSeriesSampler {
    fn drop(&mut self) {
        // ordering: Relaxed — as in `stop`: the join is the edge.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::arithmetic_side_effects)]
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn samples_periodically_and_stops() {
        let n = Arc::new(AtomicU64::new(0));
        let probe_n = n.clone();
        let sampler = TimeSeriesSampler::start(
            vec!["depth".into(), "busy".into()],
            Duration::from_millis(1),
            move || {
                let v = probe_n.fetch_add(1, Ordering::Relaxed);
                vec![v, v * 2]
            },
        );
        std::thread::sleep(Duration::from_millis(20));
        let series = sampler.stop();
        assert!(series.rows.len() >= 2, "expected several samples");
        assert_eq!(series.series, vec!["depth", "busy"]);
        for row in &series.rows {
            assert_eq!(row.values.len(), 2);
            assert_eq!(row.values[1], row.values[0] * 2);
        }
        // Monotone time.
        for w in series.rows.windows(2) {
            assert!(w[0].t_ns <= w[1].t_ns);
        }
    }

    #[test]
    fn jsonl_and_peak() {
        let ts = TimeSeries {
            series: vec!["queue_depth".into()],
            rows: vec![
                SampleRow {
                    t_ns: 5,
                    values: vec![3],
                },
                SampleRow {
                    t_ns: 10,
                    values: vec![7],
                },
            ],
        };
        let jsonl = ts.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        let v: serde::Value = serde_json::from_str(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(v["t_ns"].as_u64(), Some(5));
        assert_eq!(v["queue_depth"].as_u64(), Some(3));
        assert_eq!(ts.peak("queue_depth"), 7);
        assert_eq!(ts.peak("missing"), 0);
    }

    #[test]
    fn short_probe_returns_are_padded() {
        let sampler = TimeSeriesSampler::start(
            vec!["a".into(), "b".into()],
            Duration::from_millis(1),
            Vec::new,
        );
        std::thread::sleep(Duration::from_millis(5));
        let series = sampler.stop();
        assert!(series.rows.iter().all(|r| r.values == vec![0, 0]));
    }
}
