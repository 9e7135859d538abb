//! Chaos equivalence: driving a tuning session through a hostile transport
//! (seeded fault injection — dropped connections, lost ACKs, duplicated
//! and garbled responses, torn writes) must produce *exactly* the same
//! final tuning outcome as the fault-free run, with zero double-counted
//! evaluations. This is the lock on the exactly-once wire semantics:
//! `request_id` stamping + the service's dedup window + the self-healing
//! client together turn an at-least-once transport into exactly-once
//! observable behaviour.

use std::sync::Arc;
use std::time::Duration;

use atf_core::spec::{IntervalSpec, ParameterSpec, SearchSpec};
use atf_service::client::Loopback;
use atf_service::{
    ChaosPlan, ChaosProxy, ChaosState, ChaosTransport, Client, ManagerConfig,
    ReconnectingTransport, Response, Server, SessionManager, SessionSpec,
};
use proptest::prelude::*;

/// X in 1..=16, exhaustive: 16 deterministic evaluations, optimum at 7.
fn toy_spec(kernel: &str) -> SessionSpec {
    let mut spec = SessionSpec::new(kernel);
    spec.parameters = vec![ParameterSpec {
        name: "X".into(),
        interval: Some(IntervalSpec {
            begin: 1,
            end: 16,
            step: 1,
        }),
        set: None,
        constraint: None,
    }];
    spec.search = Some(SearchSpec {
        technique: "exhaustive".into(),
        seed: 0,
    });
    spec
}

fn toy_cost(x: u64) -> f64 {
    (x as f64 - 7.0).abs()
}

/// The final-outcome fields the equivalence check compares.
#[derive(Debug, PartialEq)]
struct Outcome {
    best_config: Option<std::collections::BTreeMap<String, u64>>,
    best_cost: Option<f64>,
    evaluations: Option<u64>,
    valid_evaluations: Option<u64>,
    failed_evaluations: Option<u64>,
    space_size: Option<String>,
}

fn outcome(resp: &Response) -> Outcome {
    Outcome {
        best_config: resp.best_config.clone(),
        best_cost: resp.best_cost,
        evaluations: resp.evaluations,
        valid_evaluations: resp.valid_evaluations,
        failed_evaluations: resp.failed_evaluations,
        space_size: resp.space_size.clone(),
    }
}

/// The fault-free reference run, straight over loopback.
fn reference_outcome() -> Outcome {
    let manager = Arc::new(SessionManager::in_memory());
    let mut client = Client::loopback(manager);
    let resp = client
        .tune(&toy_spec("chaos-toy"), |wire| Ok(toy_cost(wire["X"])))
        .expect("fault-free run");
    outcome(&resp)
}

/// Runs the same session through a chaos transport driven by `plan` and a
/// self-healing client, and returns (final outcome, faults injected).
fn chaos_outcome(plan: &ChaosPlan) -> (Outcome, u64) {
    let manager = Arc::new(SessionManager::in_memory());
    let state = ChaosState::new(plan);
    let factory_plan = plan.clone();
    let factory_state = Arc::clone(&state);
    let transport = ReconnectingTransport::new(
        move || {
            Ok(ChaosTransport::new(
                Loopback(Arc::clone(&manager)),
                factory_plan.clone(),
                Arc::clone(&factory_state),
            ))
        },
        // A generous retry budget with microscopic backoff: the test cares
        // about semantics, not wall-clock realism.
        40,
        Duration::from_micros(20),
    );
    let mut client = Client::new(transport);
    let resp = client
        .tune(&toy_spec("chaos-toy"), |wire| Ok(toy_cost(wire["X"])))
        .expect("chaos run must converge through retries");
    let total = state.lock().counters().total();
    (outcome(&resp), total)
}

fn assert_chaos_matches_reference(plan: &ChaosPlan) -> u64 {
    let reference = reference_outcome();
    let (chaotic, faults) = chaos_outcome(plan);
    assert_eq!(
        chaotic, reference,
        "fault schedule changed the observable outcome (seed {})",
        plan.seed
    );
    // Zero double counts: every configuration evaluated exactly once.
    assert_eq!(chaotic.evaluations, Some(16));
    assert_eq!(chaotic.space_size.as_deref(), Some("16"));
    faults
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seeded hostile fault schedule yields the same final status and
    /// best configuration as the fault-free run.
    #[test]
    fn any_fault_schedule_matches_fault_free_run(seed in 0u64..=u64::MAX) {
        assert_chaos_matches_reference(&ChaosPlan::hostile(seed));
    }
}

/// Lost-ACK storm: the request is applied but the response never arrives.
/// Without the dedup window every retry would re-report and double-count.
#[test]
fn lost_ack_storm_stays_exactly_once() {
    let mut plan = ChaosPlan::calm(0xacced);
    plan.drop_after = 0.35;
    let faults = assert_chaos_matches_reference(&plan);
    assert!(faults > 0, "the storm must actually inject faults");
}

/// Duplicate storm: every response may be delivered twice (the transport
/// replays the whole exchange); the second application must be a no-op.
#[test]
fn duplicate_storm_stays_exactly_once() {
    let mut plan = ChaosPlan::calm(0xd0_0b1e);
    plan.duplicate = 0.4;
    let faults = assert_chaos_matches_reference(&plan);
    assert!(faults > 0, "the storm must actually inject faults");
}

/// Garbage + torn-write storm: responses replaced by garbage bytes and
/// requests torn mid-line. The client must treat both as transport
/// failures and retry, never surfacing a parse error.
#[test]
fn garbage_and_partial_storm_stays_exactly_once() {
    let mut plan = ChaosPlan::calm(0x6a_bba6e);
    plan.garbage = 0.25;
    plan.partial = 0.2;
    let faults = assert_chaos_matches_reference(&plan);
    assert!(faults > 0, "the storm must actually inject faults");
}

/// The same equivalence over real sockets: a server behind a chaos TCP
/// proxy, driven by a self-healing TCP client.
#[test]
fn tcp_session_through_chaos_proxy_matches_fault_free_run() {
    let reference = reference_outcome();

    let manager = Arc::new(
        SessionManager::new(ManagerConfig {
            idle_timeout: Duration::from_secs(60),
            ..ManagerConfig::default()
        })
        .unwrap(),
    );
    let server = Server::bind("127.0.0.1:0", manager).unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());

    let mut plan = ChaosPlan::hostile(0x7c9_c4a05);
    // Keep the injected latency tiny so the test stays fast.
    plan.delay_by = Duration::from_millis(1);
    let mut proxy = ChaosProxy::spawn(addr, plan).unwrap();

    let transport = ReconnectingTransport::tcp_with_timeout(
        &proxy.addr().to_string(),
        40,
        Duration::from_millis(1),
        Some(Duration::from_secs(5)),
    );
    let mut client = Client::new(transport);
    let resp = client
        .tune(&toy_spec("chaos-toy"), |wire| Ok(toy_cost(wire["X"])))
        .expect("chaos TCP run must converge through retries");

    assert_eq!(outcome(&resp), reference);
    assert!(
        proxy.counters().total() > 0,
        "the proxy must actually inject faults"
    );

    proxy.stop();
    shutdown.signal();
    server_thread.join().unwrap().unwrap();
}
