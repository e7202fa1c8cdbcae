//! In-memory spans recorded by the benchmark around each call into a
//! layer, written out as JSON lines when the traced run ends.
//!
//! A span has a name, a start and an end on the run's clock, the span that
//! caused it (`parent`, 0 for none) and the operation it belongs to. A
//! layer's self time is its span minus the part its children cover.
//! Spans marked `replayed` time a kernel or SWU call replayed on a stage's
//! own shapes outside any operation; they have no parent.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub replayed: bool,
}

/// One thread's span buffer. Ids are unique across threads: the thread
/// number sits in the high bits.
pub struct Recorder {
    epoch: Instant,
    next: u64,
    /// While false, [`Recorder::replay`] still times but keeps no span: a
    /// replay loop makes the same few calls thousands of times over.
    pub keep_replays: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, thread: u64) -> Recorder {
        Recorder {
            epoch,
            next: (thread << 40) | 1,
            keep_replays: true,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserve an id, so that children can name their parent before the
    /// parent's end is known.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        self.next - 1
    }

    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Time `f` as a child span of `parent` within operation `op`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        self.timed(name, parent, op, false, f)
    }

    /// Time `f` as a replayed span: a call made outside any operation.
    pub fn replay<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        self.timed(name, 0, 0, true, f)
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        op: u64,
        replayed: bool,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.id();
        let start_ns = self.now();
        let value = f();
        let end_ns = self.now();
        if !replayed || self.keep_replays {
            self.push(Span {
                id,
                parent,
                op,
                name,
                start_ns,
                end_ns,
                replayed,
            });
        }
        (value, end_ns - start_ns)
    }
}

/// Per-name totals over a set of spans.
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time per span (duration minus its children's), then totals by
/// name.
pub fn self_times(spans: &[Span]) -> (Vec<u64>, BTreeMap<&'static str, NameTotals>) {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    let selfs = spans
        .iter()
        .map(|s| {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let t = by_name.entry(s.name).or_insert(NameTotals {
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += own;
            own
        })
        .collect();
    (selfs, by_name)
}

/// One JSON object per span, in recording order.
pub fn to_jsonl(spans: &[Span], selfs: &[u64]) -> String {
    let mut out = String::new();
    for (s, own) in spans.iter().zip(selfs) {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"replayed\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, own, s.replayed
        );
    }
    out
}

/// Intern a run-time name (a stage's) for use as a span name. The handful
/// of names lives as long as the process.
pub fn intern(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}
