//! Structured event trace: an NDJSON stream of typed events describing
//! everything a tuning run does — space generation, handouts, report
//! arrivals, evaluation latencies, retries, breaker trips, worker
//! busy/idle transitions, and which abort condition ended the run.
//!
//! Events flow through a [`TraceSink`], a cheap `Send + Sync` trait with a
//! no-op default ([`NullSink`]) so instrumented code paths cost one virtual
//! call and no allocation when tracing is off. [`FileSink`] appends one
//! JSON object per line (the `--trace FILE` stream of `atf-tune run`);
//! [`MemorySink`] collects events in memory for tests.
//!
//! Every line carries an `event` field naming its kind (see
//! [`EVENT_KINDS`]); all other fields are optional and kind-specific, and
//! absent fields are omitted from the serialized line rather than written
//! as `null`. Timing fields (`micros`) are wall-clock measurements and
//! therefore *not* deterministic across runs; everything else in a seeded
//! run is.

use crate::search::Point;
use serde::Deserialize;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Every event kind a session or its drivers can emit. CI validates trace
/// streams against this list.
pub const EVENT_KINDS: &[&str] = &[
    "space_gen",
    "space_chunk",
    "handout",
    "report",
    "eval",
    "retry",
    "breaker",
    "abort",
    "worker_busy",
    "worker_idle",
    "proc",
    "journal",
    "admission",
    "shed",
    "drain",
    "db_compact",
    "reactor",
    "campaign_node",
    "campaign_budget",
    "campaign_skip",
];

/// One trace event. `event` names the kind; the remaining fields are
/// kind-specific payload (unused ones stay `None` and are omitted from the
/// NDJSON line). Flat rather than an enum so the wire shape matches the
/// service protocol envelopes and new kinds never break old readers.
#[derive(Clone, Debug, Default, PartialEq, Deserialize)]
pub struct TraceEvent {
    /// Event kind, one of [`EVENT_KINDS`].
    pub event: String,
    /// `space_gen`, `space_chunk`: index of the parameter group.
    pub group: Option<usize>,
    /// `space_gen`: number of tuning parameters in the group.
    pub params: Option<usize>,
    /// `space_chunk`: index of the leading-parameter chunk within the group.
    pub chunk: Option<usize>,
    /// `space_gen`, `space_chunk`: number of valid configurations generated.
    pub size: Option<u64>,
    /// Wall-clock duration of the measured step, in microseconds
    /// (`space_gen`, `eval`, `proc`, `worker_idle` busy time).
    pub micros: Option<u64>,
    /// Ticket of the handout this event concerns.
    pub ticket: Option<u64>,
    /// `handout`: coordinates of the configuration the technique chose.
    pub point: Option<Point>,
    /// `report`: 1-based arrival number (journal numbering).
    pub arrival: Option<u64>,
    /// Whether the measurement succeeded (`report`, `eval`, `proc`).
    pub ok: Option<bool>,
    /// Failure taxonomy label when the measurement failed
    /// ([`crate::cost::FailureKind::label`]).
    pub failure: Option<String>,
    /// `retry`: 1-based attempt number that just failed.
    pub attempt: Option<u32>,
    /// `retry`: backoff delay before the next attempt, in milliseconds.
    pub delay_ms: Option<u64>,
    /// `breaker`: consecutive failures when the circuit breaker tripped.
    pub consecutive: Option<u64>,
    /// `abort`: description of the abort condition that fired, or
    /// `"technique exhausted"`.
    pub condition: Option<String>,
    /// `abort`: applied evaluations when the run stopped.
    pub evaluations: Option<u64>,
    /// `abort`: elapsed wall clock (cumulative across resumes) in ms.
    pub elapsed_ms: Option<u64>,
    /// Worker index (`worker_busy`, `worker_idle`).
    pub worker: Option<usize>,
    /// `proc`: which script ran (`"compile"` or `"run"`).
    pub phase: Option<String>,
    /// `journal`: why journaling degraded (the underlying I/O error).
    /// `shed`: what was shed and why; `drain`: drain outcome detail.
    pub message: Option<String>,
    /// `admission`, `shed`: tenant the decision concerned.
    pub tenant: Option<String>,
    /// `reactor`: poll-loop threads owning the connection sockets.
    pub io_threads: Option<usize>,
    /// `reactor`: handler threads behind the ready queue.
    pub handlers: Option<usize>,
    /// `campaign_node`, `campaign_budget`, `campaign_skip`: the campaign
    /// node the event concerns.
    pub node: Option<String>,
}

// Hand-written so `None` fields are omitted from the line entirely; the
// vendored derive would serialize them as `null` and triple the stream.
impl serde::Serialize for TraceEvent {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![(
            "event".to_string(),
            serde::Value::String(self.event.clone()),
        )];
        fn push<T: serde::Serialize>(
            fields: &mut Vec<(String, serde::Value)>,
            key: &str,
            v: &Option<T>,
        ) {
            if let Some(v) = v {
                fields.push((key.to_string(), v.to_value()));
            }
        }
        push(&mut fields, "group", &self.group);
        push(&mut fields, "params", &self.params);
        push(&mut fields, "chunk", &self.chunk);
        push(&mut fields, "size", &self.size);
        push(&mut fields, "micros", &self.micros);
        push(&mut fields, "ticket", &self.ticket);
        push(&mut fields, "point", &self.point);
        push(&mut fields, "arrival", &self.arrival);
        push(&mut fields, "ok", &self.ok);
        push(&mut fields, "failure", &self.failure);
        push(&mut fields, "attempt", &self.attempt);
        push(&mut fields, "delay_ms", &self.delay_ms);
        push(&mut fields, "consecutive", &self.consecutive);
        push(&mut fields, "condition", &self.condition);
        push(&mut fields, "evaluations", &self.evaluations);
        push(&mut fields, "elapsed_ms", &self.elapsed_ms);
        push(&mut fields, "worker", &self.worker);
        push(&mut fields, "phase", &self.phase);
        push(&mut fields, "message", &self.message);
        push(&mut fields, "tenant", &self.tenant);
        push(&mut fields, "io_threads", &self.io_threads);
        push(&mut fields, "handlers", &self.handlers);
        push(&mut fields, "node", &self.node);
        serde::Value::Object(fields)
    }
}

impl TraceEvent {
    fn kind(event: &str) -> Self {
        TraceEvent {
            event: event.to_string(),
            ..TraceEvent::default()
        }
    }

    /// One parameter group's portion of search-space generation finished.
    pub fn space_gen(group: usize, params: usize, size: u64, micros: u64) -> Self {
        TraceEvent {
            group: Some(group),
            params: Some(params),
            size: Some(size),
            micros: Some(micros),
            ..Self::kind("space_gen")
        }
    }

    /// One leading-parameter chunk of a group's parallel generation
    /// finished (events arrive in completion order, not chunk order).
    pub fn space_chunk(group: usize, chunk: usize, size: u64, micros: u64) -> Self {
        TraceEvent {
            group: Some(group),
            chunk: Some(chunk),
            size: Some(size),
            micros: Some(micros),
            ..Self::kind("space_chunk")
        }
    }

    /// The technique chose `point` and the session handed it out as `ticket`.
    pub fn handout(ticket: u64, point: Point) -> Self {
        TraceEvent {
            ticket: Some(ticket),
            point: Some(point),
            ..Self::kind("handout")
        }
    }

    /// A report on `ticket` arrived (the `arrival`-th arrival overall).
    pub fn report(ticket: u64, arrival: u64, failure: Option<&str>) -> Self {
        TraceEvent {
            ticket: Some(ticket),
            arrival: Some(arrival),
            ok: Some(failure.is_none()),
            failure: failure.map(str::to_string),
            ..Self::kind("report")
        }
    }

    /// One evaluation completed: handout-to-report latency plus outcome.
    pub fn eval(ticket: u64, micros: u64, failure: Option<&str>) -> Self {
        TraceEvent {
            ticket: Some(ticket),
            micros: Some(micros),
            ok: Some(failure.is_none()),
            failure: failure.map(str::to_string),
            ..Self::kind("eval")
        }
    }

    /// A retryable failure triggered a backoff-and-retry.
    pub fn retry(attempt: u32, delay_ms: u64, failure: &str) -> Self {
        TraceEvent {
            attempt: Some(attempt),
            delay_ms: Some(delay_ms),
            failure: Some(failure.to_string()),
            ..Self::kind("retry")
        }
    }

    /// The circuit breaker tripped.
    pub fn breaker(consecutive: u64, failure: &str) -> Self {
        TraceEvent {
            consecutive: Some(consecutive),
            failure: Some(failure.to_string()),
            ..Self::kind("breaker")
        }
    }

    /// Exploration stopped; `condition` says which abort condition fired.
    pub fn abort(condition: &str, evaluations: u64, elapsed_ms: u64) -> Self {
        TraceEvent {
            condition: Some(condition.to_string()),
            evaluations: Some(evaluations),
            elapsed_ms: Some(elapsed_ms),
            ..Self::kind("abort")
        }
    }

    /// Worker `worker` started evaluating `ticket`.
    pub fn worker_busy(worker: usize, ticket: u64) -> Self {
        TraceEvent {
            worker: Some(worker),
            ticket: Some(ticket),
            ..Self::kind("worker_busy")
        }
    }

    /// Worker `worker` finished an evaluation that took `micros`.
    pub fn worker_idle(worker: usize, micros: u64) -> Self {
        TraceEvent {
            worker: Some(worker),
            micros: Some(micros),
            ..Self::kind("worker_idle")
        }
    }

    /// The run journal degraded: an append or checkpoint failed (ENOSPC,
    /// I/O error) and the session continues in-memory without it.
    pub fn journal_degraded(message: &str) -> Self {
        TraceEvent {
            ok: Some(false),
            message: Some(message.to_string()),
            ..Self::kind("journal")
        }
    }

    /// The admission controller admitted a session open for `tenant`;
    /// `evaluations` carries the tenant's live-session count afterwards.
    pub fn admission(tenant: &str, tenant_sessions: u64) -> Self {
        TraceEvent {
            tenant: Some(tenant.to_string()),
            ok: Some(true),
            evaluations: Some(tenant_sessions),
            ..Self::kind("admission")
        }
    }

    /// The service shed a request for `tenant`: `message` says which limit
    /// fired, `delay_ms` the retry-after hint sent to the client.
    pub fn shed(tenant: &str, reason: &str, retry_after_ms: u64) -> Self {
        TraceEvent {
            tenant: Some(tenant.to_string()),
            ok: Some(false),
            message: Some(reason.to_string()),
            delay_ms: Some(retry_after_ms),
            ..Self::kind("shed")
        }
    }

    /// A graceful drain finished: `size` live sessions in `micros`,
    /// `ok` whether every connection exited within the deadline.
    pub fn drain(sessions: u64, micros: u64, within_deadline: bool) -> Self {
        TraceEvent {
            size: Some(sessions),
            micros: Some(micros),
            ok: Some(within_deadline),
            ..Self::kind("drain")
        }
    }

    /// The tuning-database log was compacted into a fresh checkpoint:
    /// `size` records written in `micros`.
    pub fn db_compact(records: u64, micros: u64) -> Self {
        TraceEvent {
            size: Some(records),
            micros: Some(micros),
            ok: Some(true),
            ..Self::kind("db_compact")
        }
    }

    /// The event-driven server started its reactor: `io_threads` poll
    /// loops own the connection sockets, `handlers` threads serve the
    /// parsed requests.
    pub fn reactor(io_threads: usize, handlers: usize) -> Self {
        TraceEvent {
            io_threads: Some(io_threads),
            handlers: Some(handlers),
            ..Self::kind("reactor")
        }
    }

    /// A campaign node reached a terminal state: `message` carries the
    /// outcome label, `evaluations` the node's evaluation count, `attempt`
    /// the attempts it consumed.
    pub fn campaign_node(node: &str, outcome: &str, evaluations: u64, attempt: u32) -> Self {
        TraceEvent {
            node: Some(node.to_string()),
            message: Some(outcome.to_string()),
            evaluations: Some(evaluations),
            attempt: Some(attempt),
            ok: Some(outcome == "completed"),
            ..Self::kind("campaign_node")
        }
    }

    /// The shared campaign budget denied or cut `node`; `evaluations`
    /// carries the campaign-wide spend when the budget fired.
    pub fn campaign_budget(node: &str, spent: u64) -> Self {
        TraceEvent {
            node: Some(node.to_string()),
            evaluations: Some(spent),
            ok: Some(false),
            ..Self::kind("campaign_budget")
        }
    }

    /// A campaign node was skipped without running; `message` says why
    /// (failed dependency, campaign abort).
    pub fn campaign_skip(node: &str, reason: &str) -> Self {
        TraceEvent {
            node: Some(node.to_string()),
            message: Some(reason.to_string()),
            ok: Some(false),
            ..Self::kind("campaign_skip")
        }
    }

    /// A process cost function ran one script (`phase` = compile or run).
    pub fn proc(phase: &str, micros: u64, failure: Option<&str>) -> Self {
        TraceEvent {
            phase: Some(phase.to_string()),
            micros: Some(micros),
            ok: Some(failure.is_none()),
            failure: failure.map(str::to_string),
            ..Self::kind("proc")
        }
    }
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
