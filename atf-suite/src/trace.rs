//! Bench-side spans: one span around every call a workload makes into a
//! layer's public function, kept in a pre-allocated in-memory buffer and
//! written out when the run ends. Nothing inside the product is touched, so
//! nesting below a call is invisible; the service path is decomposed by the
//! ladder in [`ladder_self`] instead.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer's buffer; `NO_PARENT` for a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;
/// Spans a run keeps (about 40 B each in memory, 100 B in the trace file).
/// A fast loop fills it within a second; later spans are counted as
/// dropped and cost nothing, so the medians describe the box's first part.
pub const SPAN_CAPACITY: usize = 262_144;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one (the operation it belongs to).
    pub parent: SpanId,
    /// Shared by all spans of one operation.
    pub op_id: u64,
}

/// A per-thread span recorder. Off (the untraced run) it records nothing
/// and reads no clock.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    capacity: usize,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::new(false, 0, Instant::now())
    }

    /// A tracer that records when `on`, with room for `capacity` spans,
    /// sharing the time origin `t0` with the other tracers of the run.
    pub fn new(on: bool, capacity: usize, t0: Instant) -> Tracer {
        let capacity = if on { capacity } else { 0 };
        Tracer {
            on,
            t0,
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end). Returns `NO_PARENT`
    /// when tracing is off or the buffer is full.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op_id: u64) -> SpanId {
        if !self.on {
            return NO_PARENT;
        }
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return NO_PARENT;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NO_PARENT {
            self.spans[id as usize].end_ns = self.now();
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op_id);
        let out = f();
        self.end(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Merges per-thread buffers into one, rebasing parent indices.
pub fn merge(buffers: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::with_capacity(buffers.iter().map(Vec::len).sum());
    for buffer in buffers {
        let base = all.len() as SpanId;
        all.extend(buffer.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
    all
}

/// Per span name: how many, total duration, and total *self* time — the
/// span's duration minus the part its direct children cover.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let duration = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += duration;
        t.self_ns += duration.saturating_sub(children);
    }
    out
}

/// Span durations (ns) grouped by name.
pub fn durations_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name)
            .or_default()
            .push((s.end_ns - s.start_ns) as f64);
    }
    out
}

/// Self time per rung of a ladder. `rungs` lists the same operation timed
/// through successively fewer layers, outermost first (e.g. TCP client →
/// loopback client → manager → bare session); a layer's self time is its
/// rung minus the next rung down, and the last rung keeps its own value.
pub fn ladder_self(rungs: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
    rungs
        .iter()
        .enumerate()
        .map(|(i, &(name, value))| {
            let below = rungs.get(i + 1).map_or(0.0, |r| r.1);
            (name, value - below)
        })
        .collect()
}

/// Writes the spans as one JSON document `{workload, dropped, spans:[…]}`.
pub fn write_json(
    path: &Path,
    workload: &str,
    spans: &[Span],
    dropped: u64,
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    // Workload and span names are identifiers of this crate: no escaping.
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"dropped\":{dropped},\"spans\":["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        write!(
            w,
            "{}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.start_ns,
            s.end_ns,
            parent,
            s.op_id
        )?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // step [0,100] ⊃ next [10,30], report [40,90] ⊃ fsync [50,80]
        let spans = vec![
            span("step", 0, 100, NO_PARENT),
            span("next", 10, 30, 0),
            span("report", 40, 90, 0),
            span("fsync", 50, 80, 2),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["step"].self_ns, 100 - 20 - 50);
        assert_eq!(t["next"].self_ns, 20);
        assert_eq!(t["report"].self_ns, 50 - 30);
        assert_eq!(t["fsync"].self_ns, 30);
        assert_eq!(t["report"].total_ns, 50);
        let self_sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(self_sum, 100, "self times partition the root span");
    }

    #[test]
    fn ladder_self_is_rung_minus_next_rung() {
        let ladder = ladder_self(&[
            ("tcp", 300.0),
            ("loopback", 220.0),
            ("manager", 200.0),
            ("session+journal", 150.0),
        ]);
        assert_eq!(
            ladder,
            vec![
                ("tcp", 80.0),
                ("loopback", 20.0),
                ("manager", 50.0),
                ("session+journal", 150.0)
            ]
        );
        let sum: f64 = ladder.iter().map(|r| r.1).sum();
        assert_eq!(sum, 300.0, "rung self times add up to the top rung");
    }

    #[test]
    fn tracer_records_only_when_on_and_within_capacity() {
        let mut off = Tracer::off();
        assert_eq!(off.scope("x", NO_PARENT, 0, || 7), 7);
        assert!(off.into_spans().is_empty());

        let mut on = Tracer::new(true, 2, Instant::now());
        let root = on.begin("op", NO_PARENT, 9);
        on.scope("child", root, 9, || ());
        on.scope("overflow", root, 9, || ());
        on.end(root);
        assert_eq!(on.dropped, 1);
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[0].end_ns >= spans[1].end_ns);

        let merged = merge(vec![spans.clone(), spans]);
        assert_eq!(merged[3].parent, 2);
        assert_eq!(merged[2].parent, NO_PARENT);
    }

    #[test]
    fn trace_file_is_valid_json() {
        let dir = std::env::temp_dir().join(format!("atf-suite-trace-{}", std::process::id()));
        let path = dir.join("trace-test.json");
        let spans = vec![span("a", 1, 5, NO_PARENT), span("b", 2, 3, 0)];
        write_json(&path, "test", &spans, 0).expect("write trace");
        let text = std::fs::read_to_string(&path).expect("read trace");
        let v = serde_json::parse_value(&text).expect("valid json");
        let spans = v.get("spans").and_then(|s| s.as_array()).expect("spans");
        assert_eq!(spans.len(), 2);
        assert!(spans[0].get("parent").is_some_and(|p| p.is_null()));
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_u64()), Some(0));
        std::fs::remove_dir_all(&dir).ok();
    }
}
