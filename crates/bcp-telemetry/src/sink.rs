//! JSONL event stream.
//!
//! Events are point-in-time records (explicit marks) serialized one JSON
//! object per line, buffered in memory until `Registry::write_artifacts`
//! or `take_events` drains them.

use serde::{Map, Serialize, Value};

/// One telemetry event. Flat on purpose: every field lands at the top
/// level of the JSON object so `grep`/`jq` one-liners work on the stream.
#[derive(Clone, Debug)]
pub struct Event {
    /// Microseconds since the owning registry was created.
    pub ts_us: u64,
    /// Event kind: `"mark"`, …
    pub kind: &'static str,
    /// Event name (dotted path, see crate docs).
    pub name: String,
    /// Kind-specific payload, merged into the top-level object.
    pub fields: Map,
}

impl Serialize for Event {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("ts_us".into(), Value::UInt(self.ts_us));
        m.insert("kind".into(), Value::Str(self.kind.into()));
        m.insert("name".into(), Value::Str(self.name.clone()));
        for (k, v) in &self.fields {
            m.insert(k.clone(), v.clone());
        }
        Value::Object(m)
    }
}

pub(crate) enum Sink {
    /// Drop events (metrics-only operation).
    Null,
    /// Keep serialized lines in memory.
    Memory(Vec<String>),
}

impl Sink {
    pub(crate) fn emit(&mut self, event: &Event) {
        match self {
            Sink::Null => {}
            Sink::Memory(lines) => {
                lines.push(serde_json::to_string(&event.to_value()).expect("event json"))
            }
        }
    }

    pub(crate) fn is_null(&self) -> bool {
        matches!(self, Sink::Null)
    }
}
