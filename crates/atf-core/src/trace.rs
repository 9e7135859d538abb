//! Structured event trace: an NDJSON stream of typed events describing
//! everything a tuning run does — space generation, handouts, report
//! arrivals, evaluation latencies, retries, breaker trips, worker
//! busy/idle transitions, and which abort condition ended the run.
//!
//! Events flow through a [`TraceSink`], a cheap `Send + Sync` trait with a
//! no-op default ([`NullSink`]) so instrumented code paths cost one virtual
//! call when tracing is off. [`FileSink`] appends one JSON object per line
//! (the `--trace FILE` stream of `atf-tune run`); [`MemorySink`] collects
//! events in memory for tests.
//!
//! Every line carries an `event` field naming its kind; the other fields
//! are kind-specific, and absent fields are omitted from the serialized
//! line rather than written as `null`. Two tables below are the only
//! place the stream's shape is written down: `trace_fields!` declares each
//! payload field once (the [`TraceEvent`] struct, its serializer and
//! [`FIELDS`]), and `trace_kinds!` declares each kind once — its name, doc
//! and required and optional fields — from which come the constructors on
//! [`TraceEvent`], [`KINDS`], [`EVENT_KINDS`] and the validator
//! [`check_line`]. README.md's trace reference is rendered from
//! [`KINDS`] and [`FIELDS`], and a test keeps it current. Timing fields
//! (`micros`, `elapsed_ms`) are wall-clock measurements and therefore *not*
//! deterministic across runs; everything else in a seeded run is.

use crate::search::Point;
use serde::Deserialize;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// One event kind as the table declares it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kind {
    /// The `event` value naming the kind.
    pub name: &'static str,
    /// When the event is emitted and what its fields carry.
    pub doc: &'static str,
    /// Fields every event of the kind carries, besides `event`.
    pub required: &'static [&'static str],
    /// Fields an event of the kind carries only sometimes.
    pub optional: &'static [&'static str],
}

macro_rules! trace_fields {
    ($($(#[doc = $doc:literal])+ $field:ident: $ty:ident,)+) => {
        /// One trace event. `event` names the kind; the remaining fields are
        /// kind-specific payload (see [`KINDS`]; unused ones stay `None` and
        /// are omitted from the NDJSON line). Flat rather than an enum so the
        /// wire shape matches the service protocol envelopes and new kinds
        /// never break old readers.
        #[derive(Clone, Debug, Default, PartialEq, Deserialize)]
        pub struct TraceEvent {
            /// Event kind, one of [`EVENT_KINDS`].
            pub event: String,
            $($(#[doc = $doc])+ pub $field: Option<$ty>,)+
        }

        /// Every payload field with its doc, in serialization order.
        pub const FIELDS: &[(&str, &str)] = &[$((stringify!($field), concat!($($doc),+)),)+];

        // Hand-written so `None` fields are omitted from the line entirely;
        // the vendored derive would serialize them as `null` and triple the
        // stream.
        impl serde::Serialize for TraceEvent {
            fn to_value(&self) -> serde::Value {
                let mut fields = vec![(
                    "event".to_string(),
                    serde::Value::String(self.event.clone()),
                )];
                $(if let Some(v) = &self.$field {
                    fields.push((stringify!($field).to_string(), v.to_value()));
                })+
                serde::Value::Object(fields)
            }
        }
    };
}

trace_fields! {
    /// Index of the parameter group.
    group: usize,
    /// Number of tuning parameters in the group.
    params: usize,
    /// Index of the leading-parameter chunk within the group.
    chunk: usize,
    /// How many items the step produced or handled (see the kind).
    size: u64,
    /// Wall-clock duration of the measured step, in microseconds.
    micros: u64,
    /// Ticket of the handout the event concerns.
    ticket: u64,
    /// Coordinates of the configuration the technique chose.
    point: Point,
    /// 1-based arrival number of a report (journal numbering).
    arrival: u64,
    /// Whether the step succeeded.
    ok: bool,
    /// Failure taxonomy label of a failed measurement (`FailureKind::label`).
    failure: String,
    /// 1-based attempt number.
    attempt: u32,
    /// A delay in milliseconds: backoff before a retry, or a retry-after hint.
    delay_ms: u64,
    /// Consecutive failures when the circuit breaker tripped.
    consecutive: u64,
    /// The abort condition that fired, or `"technique exhausted"`.
    condition: String,
    /// A count the kind's doc names: usually of evaluations.
    evaluations: u64,
    /// Elapsed wall clock, cumulative across resumes, in milliseconds.
    elapsed_ms: u64,
    /// Worker index.
    worker: usize,
    /// Which script ran (`"compile"` or `"run"`).
    phase: String,
    /// Free-text detail: an I/O error, a shed reason, an outcome label.
    message: String,
    /// The tenant a quota decision concerned.
    tenant: String,
    /// Poll-loop threads owning the connection sockets.
    io_threads: usize,
    /// Handler threads behind the ready queue.
    handlers: usize,
    /// The campaign node the event concerns.
    node: String,
}

// Each kind: its doc, then its constructor's signature (`as` names the
// kind when it differs from the constructor), then the fields it sets —
// required ones first (`field` alone takes the argument of that name),
// then after `;` the optional ones, whose value is an `Option`.
macro_rules! trace_kinds {
    (@name $ctor:ident) => { stringify!($ctor) };
    (@name $ctor:ident $kind:ident) => { stringify!($kind) };
    (@value $field:ident) => { $field };
    (@value $field:ident $value:expr) => { $value };
    ($(
        $(#[doc = $doc:literal])+
        $ctor:ident($($arg:ident: $aty:ty),*) $(as $kind:ident)? {
            $($req:ident $(= $rv:expr)?),+ $(; $($opt:ident = $ov:expr),+)?
        }
    )+) => {
        /// Every event kind, in declaration order.
        pub const KINDS: &[Kind] = &[$(Kind {
            name: trace_kinds!(@name $ctor $($kind)?),
            doc: concat!($($doc),+),
            required: &[$(stringify!($req)),+],
            optional: &[$($(stringify!($opt)),+)?],
        },)+];

        /// Every event kind's name, in declaration order.
        pub const EVENT_KINDS: &[&str] = &[$(trace_kinds!(@name $ctor $($kind)?)),+];

        impl TraceEvent {
            $(
                $(#[doc = $doc])+
                pub fn $ctor($($arg: $aty),*) -> Self {
                    TraceEvent {
                        event: trace_kinds!(@name $ctor $($kind)?).to_string(),
                        $($req: Some(trace_kinds!(@value $req $($rv)?).into()),)+
                        $($($opt: $ov.map(Into::into),)+)?
                        ..TraceEvent::default()
                    }
                }
            )+
        }
    };
}

trace_kinds! {
    /// One parameter group's portion of search-space generation finished.
    space_gen(group: usize, params: usize, size: u64, micros: u64) {
        group, params, size, micros
    }
    /// One leading-parameter chunk of a group's parallel generation
    /// finished (events arrive in completion order, not chunk order).
    space_chunk(group: usize, chunk: usize, size: u64, micros: u64) {
        group, chunk, size, micros
    }
    /// The technique chose `point` and the session handed it out as `ticket`.
    handout(ticket: u64, point: Point) { ticket, point }
    /// A report on `ticket` arrived (the `arrival`-th arrival overall).
    report(ticket: u64, arrival: u64, failure: Option<&str>) {
        ticket, arrival, ok = failure.is_none(); failure = failure
    }
    /// One evaluation completed: handout-to-report latency plus outcome.
    eval(ticket: u64, micros: u64, failure: Option<&str>) {
        ticket, micros, ok = failure.is_none(); failure = failure
    }
    /// A retryable failure triggered a backoff-and-retry.
    retry(attempt: u32, delay_ms: u64, failure: &str) { attempt, delay_ms, failure }
    /// The circuit breaker tripped.
    breaker(consecutive: u64, failure: &str) { consecutive, failure }
    /// Exploration stopped; `condition` says which abort condition fired,
    /// `evaluations` counts the applied evaluations.
    abort(condition: &str, evaluations: u64, elapsed_ms: u64) {
        condition, evaluations, elapsed_ms
    }
    /// Worker `worker` started evaluating `ticket`.
    worker_busy(worker: usize, ticket: u64) { worker, ticket }
    /// Worker `worker` finished an evaluation that took `micros`.
    worker_idle(worker: usize, micros: u64) { worker, micros }
    /// A process cost function ran one script (`phase` = compile or run).
    proc(phase: &str, micros: u64, failure: Option<&str>) {
        phase, micros, ok = failure.is_none(); failure = failure
    }
    /// The run journal degraded: an append or checkpoint failed (ENOSPC,
    /// I/O error; `message` carries the error) and the session continues
    /// in-memory without it.
    journal_degraded(message: &str) as journal { ok = false, message }
    /// The admission controller admitted a session open for `tenant`;
    /// `evaluations` carries the tenant's live-session count afterwards.
    admission(tenant: &str, tenant_sessions: u64) {
        tenant, ok = true, evaluations = tenant_sessions
    }
    /// The service shed a request for `tenant`: `message` says which limit
    /// fired, `delay_ms` the retry-after hint sent to the client.
    shed(tenant: &str, reason: &str, retry_after_ms: u64) {
        tenant, ok = false, message = reason, delay_ms = retry_after_ms
    }
    /// A graceful drain finished: `size` live sessions in `micros`,
    /// `ok` whether every connection exited within the deadline.
    drain(sessions: u64, micros: u64, within_deadline: bool) {
        size = sessions, micros, ok = within_deadline
    }
    /// The tuning-database log was compacted into a fresh checkpoint:
    /// `size` records written in `micros`.
    db_compact(records: u64, micros: u64) { size = records, micros, ok = true }
    /// The event-driven server started its reactor: `io_threads` poll
    /// loops own the connection sockets, `handlers` threads serve the
    /// parsed requests.
    reactor(io_threads: usize, handlers: usize) { io_threads, handlers }
    /// A campaign node reached a terminal state: `message` carries the
    /// outcome label, `evaluations` the node's evaluation count, `attempt`
    /// the attempts it consumed.
    campaign_node(node: &str, outcome: &str, evaluations: u64, attempt: u32) {
        node, message = outcome, evaluations, attempt, ok = outcome == "completed"
    }
    /// The shared campaign budget denied or cut `node`; `evaluations`
    /// carries the campaign-wide spend when the budget fired.
    campaign_budget(node: &str, spent: u64) { node, evaluations = spent, ok = false }
    /// A campaign node was skipped without running; `message` says why
    /// (failed dependency, campaign abort).
    campaign_skip(node: &str, reason: &str) { node, message = reason, ok = false }
}

/// Checks one NDJSON trace line against its kind's declaration: a known
/// `event`, every required field present, and no field the kind does not
/// declare. Returns the parsed event.
pub fn check_line(line: &str) -> Result<TraceEvent, String> {
    let value = serde_json::parse_value(line).map_err(|e| format!("{e} in {line}"))?;
    let name = value.get("event").and_then(serde::Value::as_str);
    let kind = KINDS
        .iter()
        .find(|k| Some(k.name) == name)
        .ok_or_else(|| format!("unknown event kind in {line}"))?;
    if let Some(missing) = kind.required.iter().find(|f| value.get(f).is_none()) {
        return Err(format!("`{}` lacks `{missing}` in {line}", kind.name));
    }
    let declared =
        |f: &str| f == "event" || kind.required.contains(&f) || kind.optional.contains(&f);
    if let Some((extra, _)) = value
        .as_object()
        .unwrap_or_default()
        .iter()
        .find(|(f, _)| !declared(f))
    {
        return Err(format!(
            "`{}` does not declare `{extra}` in {line}",
            kind.name
        ));
    }
    serde_json::from_value(&value).map_err(|e| format!("{e} in {line}"))
}

/// Destination for trace events. Implementations must be cheap when idle
/// and must never panic — telemetry is best-effort and may not take a
/// tuning run down with it.
pub trait TraceSink: Send + Sync {
    /// Records one event. I/O errors are swallowed by implementations.
    fn emit(&self, event: &TraceEvent);

    /// Flushes any buffered events (no-op by default).
    fn flush(&self) {}
}

/// The no-op sink: tracing off.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&self, _event: &TraceEvent) {}
}

/// Appends events as NDJSON lines to a file. Write errors are ignored
/// after creation — a full disk degrades the trace, not the run.
pub struct FileSink {
    path: PathBuf,
    out: Mutex<BufWriter<File>>,
}

impl FileSink {
    /// Creates (truncates) the trace file at `path`.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let file = File::create(&path)?;
        Ok(FileSink {
            path,
            out: Mutex::new(BufWriter::new(file)),
        })
    }

    /// The trace file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl TraceSink for FileSink {
    fn emit(&self, event: &TraceEvent) {
        if let Ok(line) = serde_json::to_string(event) {
            let mut out = self.out.lock().expect("trace sink lock");
            let _ = out.write_all(line.as_bytes());
            let _ = out.write_all(b"\n");
        }
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("trace sink lock").flush();
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Collects events in memory, for tests and introspection.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of every event recorded so far, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace sink lock").clone()
    }

    /// Drains and returns every recorded event.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace sink lock"))
    }
}

impl TraceSink for MemorySink {
    fn emit(&self, event: &TraceEvent) {
        self.events
            .lock()
            .expect("trace sink lock")
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The constructor fence: one event of every kind, each holding the
    /// allocator calls it made and the line it serialized to before the
    /// constructors were generated from the kind table. No constructor
    /// may allocate more, and every line stays byte-identical.
    #[test]
    fn constructors_keep_their_allocations_and_lines() {
        use crate::test_alloc::footprint;
        type Make = Box<dyn FnOnce() -> TraceEvent>;
        let point: Point = vec![3, 1, 4];
        let cases: Vec<(usize, &str, Make)> = vec![
            (
                1,
                r#"{"event":"space_gen","group":1,"params":3,"size":4096,"micros":1234}"#,
                Box::new(|| TraceEvent::space_gen(1, 3, 4096, 1234)),
            ),
            (
                1,
                r#"{"event":"space_chunk","group":0,"chunk":5,"size":512,"micros":250}"#,
                Box::new(|| TraceEvent::space_chunk(0, 5, 512, 250)),
            ),
            (
                1,
                r#"{"event":"handout","ticket":7,"point":[3,1,4]}"#,
                Box::new(move || TraceEvent::handout(7, point)),
            ),
            (
                1,
                r#"{"event":"report","ticket":7,"arrival":2,"ok":true}"#,
                Box::new(|| TraceEvent::report(7, 2, None)),
            ),
            (
                2,
                r#"{"event":"report","ticket":8,"arrival":3,"ok":false,"failure":"timeout"}"#,
                Box::new(|| TraceEvent::report(8, 3, Some("timeout"))),
            ),
            (
                1,
                r#"{"event":"eval","micros":900,"ticket":7,"ok":true}"#,
                Box::new(|| TraceEvent::eval(7, 900, None)),
            ),
            (
                2,
                r#"{"event":"eval","micros":901,"ticket":8,"ok":false,"failure":"crash"}"#,
                Box::new(|| TraceEvent::eval(8, 901, Some("crash"))),
            ),
            (
                2,
                r#"{"event":"retry","failure":"transient","attempt":2,"delay_ms":40}"#,
                Box::new(|| TraceEvent::retry(2, 40, "transient")),
            ),
            (
                2,
                r#"{"event":"breaker","failure":"crash","consecutive":5}"#,
                Box::new(|| TraceEvent::breaker(5, "crash")),
            ),
            (
                2,
                r#"{"event":"abort","condition":"evaluations(5)","evaluations":5,"elapsed_ms":99}"#,
                Box::new(|| TraceEvent::abort("evaluations(5)", 5, 99)),
            ),
            (
                1,
                r#"{"event":"worker_busy","ticket":7,"worker":1}"#,
                Box::new(|| TraceEvent::worker_busy(1, 7)),
            ),
            (
                1,
                r#"{"event":"worker_idle","micros":42,"worker":1}"#,
                Box::new(|| TraceEvent::worker_idle(1, 42)),
            ),
            (
                2,
                r#"{"event":"proc","micros":77,"ok":true,"phase":"run"}"#,
                Box::new(|| TraceEvent::proc("run", 77, None)),
            ),
            (
                3,
                r#"{"event":"proc","micros":78,"ok":false,"failure":"compile","phase":"compile"}"#,
                Box::new(|| TraceEvent::proc("compile", 78, Some("compile"))),
            ),
            (
                2,
                r#"{"event":"journal","ok":false,"message":"disk full"}"#,
                Box::new(|| TraceEvent::journal_degraded("disk full")),
            ),
            (
                2,
                r#"{"event":"admission","ok":true,"evaluations":3,"tenant":"acme"}"#,
                Box::new(|| TraceEvent::admission("acme", 3)),
            ),
            (
                3,
                r#"{"event":"shed","ok":false,"delay_ms":500,"message":"session quota exhausted","tenant":"acme"}"#,
                Box::new(|| TraceEvent::shed("acme", "session quota exhausted", 500)),
            ),
            (
                1,
                r#"{"event":"drain","size":2,"micros":1500,"ok":true}"#,
                Box::new(|| TraceEvent::drain(2, 1500, true)),
            ),
            (
                1,
                r#"{"event":"db_compact","size":12,"micros":340,"ok":true}"#,
                Box::new(|| TraceEvent::db_compact(12, 340)),
            ),
            (
                1,
                r#"{"event":"reactor","io_threads":2,"handlers":8}"#,
                Box::new(|| TraceEvent::reactor(2, 8)),
            ),
            (
                3,
                r#"{"event":"campaign_node","ok":true,"attempt":1,"evaluations":40,"message":"completed","node":"gemm"}"#,
                Box::new(|| TraceEvent::campaign_node("gemm", "completed", 40, 1)),
            ),
            (
                2,
                r#"{"event":"campaign_budget","ok":false,"evaluations":200,"node":"gemm"}"#,
                Box::new(|| TraceEvent::campaign_budget("gemm", 200)),
            ),
            (
                3,
                r#"{"event":"campaign_skip","ok":false,"message":"dependency failed","node":"gemm"}"#,
                Box::new(|| TraceEvent::campaign_skip("gemm", "dependency failed")),
            ),
        ];
        let mut kinds = std::collections::BTreeSet::new();
        for (calls, line, make) in cases {
            let (event, made) = footprint(make);
            assert!(made.calls <= calls, "{made:?} for {line}, {calls} before");
            assert_eq!(serde_json::to_string(&event).unwrap(), line);
            assert_eq!(check_line(line).unwrap(), event);
            kinds.insert(event.event);
        }
        assert_eq!(kinds, EVENT_KINDS.iter().map(|k| k.to_string()).collect());
    }

    #[test]
    fn lines_off_the_declaration_are_rejected() {
        for (line, why) in [
            (r#"{"event":"handout","ticket":1}"#, "lacks `point`"),
            (
                r#"{"event":"handout","ticket":1,"point":[0],"ok":true}"#,
                "does not declare `ok`",
            ),
            (
                r#"{"event":"handout","ticket":1,"point":[0],"bogus":1}"#,
                "does not declare `bogus`",
            ),
            (r#"{"event":"warp","ticket":1}"#, "unknown event kind"),
            (r#"{"ticket":1}"#, "unknown event kind"),
        ] {
            let err = check_line(line).unwrap_err();
            assert!(err.contains(why), "{line}: {err}");
        }
    }

    #[test]
    fn none_fields_are_omitted_from_the_line() {
        let line = serde_json::to_string(&TraceEvent::handout(3, vec![1, 2])).unwrap();
        assert!(line.contains("\"event\":\"handout\""), "{line}");
        assert!(line.contains("\"ticket\":3"), "{line}");
        assert!(!line.contains("null"), "{line}");
        assert!(!line.contains("failure"), "{line}");
    }

    #[test]
    fn events_round_trip_through_ndjson() {
        let events = vec![
            TraceEvent::space_gen(0, 2, 64, 1234),
            TraceEvent::space_chunk(0, 3, 16, 250),
            TraceEvent::report(7, 1, Some("timeout")),
            TraceEvent::abort("evaluations(5)", 5, 99),
            TraceEvent::admission("acme", 3),
            TraceEvent::shed("acme", "session quota exhausted", 500),
            TraceEvent::drain(2, 1500, true),
            TraceEvent::reactor(2, 8),
        ];
        for e in &events {
            let line = serde_json::to_string(e).unwrap();
            let back: TraceEvent = serde_json::from_str(&line).unwrap();
            assert_eq!(&back, e);
            assert!(EVENT_KINDS.contains(&back.event.as_str()));
        }
    }

    #[test]
    fn file_sink_writes_parseable_lines() {
        let dir = std::env::temp_dir().join(format!("atf-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ndjson");
        let sink = FileSink::create(&path).unwrap();
        sink.emit(&TraceEvent::eval(1, 500, None));
        sink.emit(&TraceEvent::eval(2, 700, Some("crash")));
        sink.flush();
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let e: TraceEvent = serde_json::from_str(line).unwrap();
            assert_eq!(e.event, "eval");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let sink = MemorySink::new();
        sink.emit(&TraceEvent::worker_busy(0, 1));
        sink.emit(&TraceEvent::worker_idle(0, 42));
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].event, "worker_busy");
        assert_eq!(events[1].event, "worker_idle");
        assert!(sink.events().is_empty());
    }
}
