//! Frozen metric snapshots and the `summary.json` format.

use crate::histogram::HistogramSummary;
use serde::Serialize;
use std::collections::BTreeMap;

/// Point-in-time copy of every metric in a registry. This is the schema
/// of `summary.json`: `{"elapsed_us":…,"counters":{…},"gauges":{…},
/// "histograms":{name:{count,sum,min,max,mean,p50,p95,p99,overflow}}}`.
#[derive(Clone, Debug, Serialize)]
pub struct Snapshot {
    /// Registry age at snapshot time, microseconds.
    pub elapsed_us: u64,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl Snapshot {
    /// Pretty-printed JSON (the on-disk `summary.json` form).
    pub fn to_pretty_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("snapshot json")
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;
    use serde::Value;

    #[test]
    fn summary_json_parses_back_with_expected_schema() {
        let r = Registry::new();
        r.counter("a.b").add(7);
        r.gauge("g").set(1.5);
        for v in [10u64, 20, 40, 80] {
            r.histogram("h.ns").record(v);
        }
        let json = r.snapshot().to_pretty_json();
        let v: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["counters"]["a.b"].as_u64(), Some(7));
        assert_eq!(v["gauges"]["g"].as_f64(), Some(1.5));
        let h = &v["histograms"]["h.ns"];
        for key in [
            "count", "sum", "min", "max", "mean", "p50", "p95", "p99", "overflow",
        ] {
            assert!(!h[key].is_null(), "missing {key}");
        }
        assert_eq!(h["count"].as_u64(), Some(4));
    }

    #[test]
    fn artifacts_land_in_directory() {
        let dir =
            std::env::temp_dir().join(format!("bcp-trace-snapshot-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let r = Registry::with_event_buffer();
        r.counter("n").inc();
        r.mark("s", serde::Map::new());
        let summary_path = r.write_artifacts(&dir).unwrap();
        let summary: Value =
            serde_json::from_str(&std::fs::read_to_string(&summary_path).unwrap()).unwrap();
        assert_eq!(summary["counters"]["n"].as_u64(), Some(1));
        let events = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
        for line in events.lines() {
            let e: Value = serde_json::from_str(line).unwrap();
            assert!(!e["ts_us"].is_null() && !e["kind"].is_null());
        }
        assert_eq!(events.lines().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
