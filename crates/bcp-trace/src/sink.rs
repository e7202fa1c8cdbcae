//! JSONL event stream.
//!
//! Events are point-in-time records (explicit marks) serialized one JSON
//! object per line, buffered in memory until `Registry::write_artifacts`
//! or `take_events` drains them.

use serde::{Map, Serialize, Value};

/// One `mark` event. Flat on purpose: every field lands at the top level
/// of the JSON object so `grep`/`jq` one-liners work on the stream.
#[derive(Clone, Debug)]
pub struct Event {
    /// Microseconds since the owning registry was created.
    pub ts_us: u64,
    /// Event name (dotted path, see crate docs).
    pub name: String,
    /// Payload, merged into the top-level object.
    pub fields: Map,
}

impl Serialize for Event {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("ts_us".into(), Value::UInt(self.ts_us));
        m.insert("kind".into(), Value::Str("mark".into()));
        m.insert("name".into(), Value::Str(self.name.clone()));
        for (k, v) in &self.fields {
            m.insert(k.clone(), v.clone());
        }
        Value::Object(m)
    }
}
