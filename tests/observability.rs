//! Observability suite: the structured trace stream and the metrics
//! registry must describe the run faithfully and deterministically.
//!
//! Determinism caveat (see `atf_core::trace`): timing fields (`micros`,
//! `elapsed_ms`) are wall-clock measurements and vary across runs, and
//! report *arrival* order depends on thread scheduling — but the set of
//! (ticket, point, outcome) facts a seeded run emits is a pure function of
//! the seed. These tests canonicalize events down to their deterministic
//! payload before comparing.

use atf_core::abort;
use atf_core::param::{tp, ParamGroup};
use atf_core::prelude::*;
use atf_core::search::Point;
use atf_core::trace::check_line;
use std::sync::Arc;
use std::time::Duration;

fn space() -> SearchSpace {
    let group = ParamGroup::new(vec![
        tp("X", Range::interval(1, 12)),
        tp("Y", Range::interval(1, 6)),
    ]);
    SearchSpace::generate(&[group])
}

/// Failures keyed purely on the configuration, so every run (and every
/// worker) sees the identical failure schedule.
fn keyed_faulty() -> impl CostFunction<Cost = f64> + Send {
    try_cost_fn(|c: &Config| {
        let x = c.get_u64("X");
        let y = c.get_u64("Y");
        match (x * 7 + y * 3) % 9 {
            0 => Err(CostError::Timeout {
                limit: Duration::from_secs(1),
            }),
            1 => Err(CostError::Crashed {
                signal: Some(11),
                exit: None,
                stderr: "boom".into(),
            }),
            _ => Ok((x as f64 - 7.0).abs() + (y as f64 - 3.0).abs()),
        }
    })
}

/// One seeded 4-worker run against an in-memory sink; returns the events
/// and the session's final metrics snapshot.
fn traced_run(seed: u64) -> (Vec<TraceEvent>, MetricsSnapshot) {
    let sink = Arc::new(MemorySink::new());
    let mut session = TuningSession::<f64>::new(space(), Box::new(RandomSearch::with_seed(seed)))
        .unwrap()
        .abort_condition(abort::evaluations(40))
        .max_pending(4)
        .trace_to(sink.clone() as Arc<dyn TraceSink>);
    let metrics = Arc::clone(session.metrics());
    let workers: Vec<_> = (0..4).map(|_| keyed_faulty()).collect();
    drive_session(&mut session, workers).unwrap();
    session.finish().unwrap();
    (sink.take(), metrics.snapshot())
}

/// Strips an event down to its run-deterministic payload: kind, ticket,
/// point, outcome. Drops wall-clock fields and arrival numbering.
fn canonical(e: &TraceEvent) -> Option<String> {
    match e.event.as_str() {
        "handout" | "report" | "eval" => Some(format!(
            "{}|t={:?}|p={:?}|ok={:?}|f={:?}",
            e.event, e.ticket, e.point, e.ok, e.failure
        )),
        // The abort's `evaluations` stamp counts *applied* reports at the
        // moment the budget projection fired, which depends on arrival
        // timing — only the condition itself is deterministic.
        "abort" => Some(format!("abort|c={:?}", e.condition)),
        _ => None,
    }
}

/// A seeded 4-worker run emits the same multiset of deterministic trace
/// facts every time, no matter how the worker threads interleave.
#[test]
fn trace_event_multiset_is_stable_across_reruns() {
    let (a, snap_a) = traced_run(23);
    let (b, snap_b) = traced_run(23);

    let mut keys_a: Vec<_> = a.iter().filter_map(canonical).collect();
    let mut keys_b: Vec<_> = b.iter().filter_map(canonical).collect();
    assert!(!keys_a.is_empty(), "run emitted no canonical events");
    keys_a.sort();
    keys_b.sort();
    assert_eq!(keys_a, keys_b, "trace facts must not depend on scheduling");

    // Handouts are applied-order-forced, so even their *sequence* (not
    // just the multiset) is identical between runs.
    let handouts = |events: &[TraceEvent]| -> Vec<(Option<u64>, Option<Point>)> {
        events
            .iter()
            .filter(|e| e.event == "handout")
            .map(|e| (e.ticket, e.point.clone()))
            .collect()
    };
    assert_eq!(
        handouts(&a),
        handouts(&b),
        "handout sequence must be seeded"
    );

    assert_eq!(snap_a.evaluations, snap_b.evaluations);
    assert_eq!(snap_a.failures, snap_b.failures);
}

/// Every handed-out ticket gets exactly one report and one eval event,
/// and the stream ends with an abort event naming the fired condition.
#[test]
fn trace_stream_is_complete_and_balanced() {
    let (events, _) = traced_run(7);
    let count = |kind: &str| events.iter().filter(|e| e.event == kind).count();
    assert_eq!(count("handout"), 40);
    assert_eq!(count("report"), 40);
    assert_eq!(count("eval"), 40);
    assert_eq!(count("abort"), 1);
    // 4 workers each announce busy/idle once per evaluation they ran.
    assert_eq!(count("worker_busy"), 40);
    assert_eq!(count("worker_idle"), 40);

    let abort_event = events.iter().find(|e| e.event == "abort").unwrap();
    // The abort fires off the budget *projection* (applied + in-flight),
    // so its applied-evaluations stamp sits within one window of the
    // budget rather than exactly at it.
    let at_abort = abort_event.evaluations.unwrap();
    assert!(
        (36..=40).contains(&at_abort),
        "stamp {at_abort} out of range"
    );
    assert!(
        abort_event
            .condition
            .as_deref()
            .unwrap_or("")
            .contains("40"),
        "abort condition should render the budget: {abort_event:?}"
    );
    // Every event, as its NDJSON line, carries exactly the fields its
    // kind declares.
    for e in &events {
        let line = serde_json::to_string(e).unwrap();
        assert_eq!(check_line(&line).as_ref(), Ok(e), "{line}");
    }
}

/// The metrics registry and the session's own status must be two views of
/// the same counters: totals, the failure taxonomy, and the latency
/// histogram's population all agree.
#[test]
fn metrics_snapshot_agrees_with_session_status() {
    let sink = Arc::new(MemorySink::new());
    let mut session =
        TuningSession::<f64>::new(space(), Box::new(SimulatedAnnealing::with_seed(5)))
            .unwrap()
            .abort_condition(abort::evaluations(50))
            .max_pending(4)
            .trace_to(sink.clone() as Arc<dyn TraceSink>);
    let metrics = Arc::clone(session.metrics());
    let workers: Vec<_> = (0..4).map(|_| keyed_faulty()).collect();
    drive_session(&mut session, workers).unwrap();

    let status = session.status();
    let snap = metrics.snapshot();
    assert_eq!(snap.evaluations, status.evaluations());
    assert_eq!(snap.valid_evaluations, status.valid_evaluations());
    assert_eq!(snap.failed_evaluations, status.failed_evaluations());
    assert!(snap.failed_evaluations > 0, "faulty cost fn must fail some");

    // Failure taxonomy: the registry's label->count map is exactly the
    // status's FailureKind histogram.
    let from_status: std::collections::BTreeMap<String, u64> = status
        .failure_counts()
        .into_iter()
        .map(|(kind, n)| (kind.label().to_string(), n))
        .collect();
    assert_eq!(snap.failures, from_status);

    // Every applied evaluation was observed by the latency histogram, and
    // the gauges describe the configured run shape.
    assert_eq!(snap.eval_latency.count, status.evaluations());
    assert_eq!(snap.window.capacity, 4);
    assert!(snap.window.peak >= 1 && snap.window.peak <= 4);
    assert_eq!(snap.workers.total, 4);
    assert_eq!(snap.workers.busy, 0, "run is over; nobody is evaluating");

    // The trace agrees too: failed eval events == failed_evaluations.
    let failed_evals = sink
        .events()
        .iter()
        .filter(|e| e.event == "eval" && e.ok == Some(false))
        .count() as u64;
    assert_eq!(failed_evals, snap.failed_evaluations);

    session.finish().unwrap();
}

/// The snapshot survives the NDJSON wire format losslessly — the service's
/// `stats` op and the journal-dir stats stream depend on this.
#[test]
fn metrics_snapshot_round_trips_through_json() {
    let (_, snap) = traced_run(11);
    let line = serde_json::to_string(&snap).unwrap();
    let back: MetricsSnapshot = serde_json::from_str(&line).unwrap();
    assert_eq!(back.evaluations, snap.evaluations);
    assert_eq!(back.failures, snap.failures);
    assert_eq!(back.eval_latency.count, snap.eval_latency.count);
    assert_eq!(back.window.capacity, snap.window.capacity);
    assert_eq!(back.workers.total, snap.workers.total);
    // The human summary renders without panicking and mentions the counts.
    let summary = snap.summary();
    assert!(summary.contains(&snap.evaluations.to_string()));
}
