//! Overload-protection invariants: under any storm of opens the service
//! answers every request explicitly (accept or `overloaded` with a
//! retry-after hint), shed counters match observed sheds exactly, admitted
//! sessions finish bit-identical to an unloaded run, per-tenant quota
//! accounting never leaks or goes negative across arbitrary interleavings
//! of open/finish/expire/forfeit (including retried opens hitting the
//! dedup window), graceful drain checkpoints journals to resumable
//! artifacts within the deadline, and the connection hard cap answers one
//! `overloaded` line instead of hanging the peer.

use atf_core::spec::{IntervalSpec, ParameterSpec, SearchSpec};
use atf_service::{
    AdmissionConfig, Client, ManagerConfig, Request, Response, Server, ServerConfig,
    SessionManager, TenantUsage, DEFAULT_TENANT,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An `open` for X in 1..=`end`, exhaustive — deterministic evaluations,
/// optimum at X=7 under [`toy_cost`].
fn open_request(kernel: &str, tenant: Option<&str>, end: u64) -> Request {
    let mut req = Request::new("open");
    req.kernel = Some(kernel.to_string());
    req.tenant = tenant.map(str::to_string);
    req.parameters = Some(vec![ParameterSpec {
        name: "X".into(),
        interval: Some(IntervalSpec {
            begin: 1,
            end,
            step: 1,
        }),
        set: None,
        constraint: None,
    }]);
    req.search = Some(SearchSpec {
        technique: "exhaustive".into(),
        seed: 0,
    });
    req
}

fn toy_cost(x: u64) -> f64 {
    (x as f64 - 7.0).abs()
}

/// The final-outcome fields the bit-identical check compares.
#[derive(Debug, PartialEq)]
struct Outcome {
    best_config: Option<BTreeMap<String, u64>>,
    best_cost: Option<f64>,
    evaluations: Option<u64>,
    valid_evaluations: Option<u64>,
    space_size: Option<String>,
}

fn outcome(resp: &Response) -> Outcome {
    Outcome {
        best_config: resp.best_config.clone(),
        best_cost: resp.best_cost,
        evaluations: resp.evaluations,
        valid_evaluations: resp.valid_evaluations,
        space_size: resp.space_size.clone(),
    }
}

/// Drives a live session to completion (ticketless next/report) and
/// finishes it; returns the finish response.
fn drive_and_finish(manager: &SessionManager, id: &str) -> Response {
    loop {
        let next = manager.handle(&Request::new("next").with_session(id));
        assert!(next.ok, "next must succeed mid-drive: {next:?}");
        if next.done == Some(true) {
            break;
        }
        let x = next.config.expect("config when not done")["X"];
        let mut report = Request::new("report").with_session(id);
        report.cost = Some(toy_cost(x));
        report.valid = Some(true);
        let r = manager.handle(&report);
        assert!(r.ok, "report must succeed mid-drive: {r:?}");
    }
    manager.handle(&Request::new("finish").with_session(id))
}

/// The fault-free, quota-free reference run.
fn unloaded_outcome() -> Outcome {
    let manager = SessionManager::in_memory();
    let opened = manager.handle(&open_request("storm-toy", None, 16));
    assert!(opened.ok, "{opened:?}");
    let finished = drive_and_finish(&manager, &opened.session.unwrap());
    assert!(finished.ok, "{finished:?}");
    outcome(&finished)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any storm of opens against a quota-limited service: every open is
    /// answered explicitly (admitted, or `overloaded` with a retry-after
    /// hint), the shed/admission counters match the observed answers
    /// exactly, and every admitted session finishes bit-identical to the
    /// unloaded run — zero lost or double-counted evaluations.
    #[test]
    fn storm_sheds_explicitly_and_admitted_sessions_finish_identically(
        ops in proptest::collection::vec(0u8..8, 1..48)
    ) {
        const MAX_SESSIONS: usize = 3;
        const MAX_PER_TENANT: usize = 2;
        let reference = unloaded_outcome();
        let manager = SessionManager::new(ManagerConfig {
            admission: AdmissionConfig {
                max_sessions: Some(MAX_SESSIONS),
                max_sessions_per_tenant: Some(MAX_PER_TENANT),
                ..AdmissionConfig::default()
            },
            ..ManagerConfig::default()
        }).unwrap();

        let mut held: Vec<(String, usize)> = Vec::new(); // (session id, tenant)
        let (mut admits, mut sheds) = (0u64, 0u64);
        for &op in &ops {
            if op < 4 {
                // Open for tenant `op`, held live (this is what overloads).
                let tenant = op as usize;
                let label = format!("tenant-{tenant}");
                let resp = manager.handle(&open_request("storm-toy", Some(&label), 16));
                prop_assert!(
                    resp.ok || resp.is_overloaded(),
                    "every open must be answered accept-or-overloaded: {resp:?}"
                );
                let tenant_held = held.iter().filter(|(_, t)| *t == tenant).count();
                let should_admit = held.len() < MAX_SESSIONS && tenant_held < MAX_PER_TENANT;
                if should_admit {
                    prop_assert!(resp.ok, "capacity was free, must admit: {resp:?}");
                    admits += 1;
                    held.push((resp.session.unwrap(), tenant));
                } else {
                    prop_assert!(resp.is_overloaded(), "quota exhausted, must shed: {resp:?}");
                    prop_assert!(
                        resp.retry_after_ms.is_some(),
                        "a shed must carry a retry-after hint"
                    );
                    sheds += 1;
                }
            } else if let Some((id, _)) = held.first().cloned() {
                // Drive the oldest held session to completion — its
                // capacity returns to the pool.
                let finished = drive_and_finish(&manager, &id);
                prop_assert!(finished.ok, "{finished:?}");
                prop_assert_eq!(outcome(&finished), unloaded_outcome());
                let _ = &reference; // same value; computed once for clarity
                held.remove(0);
            }
        }
        // Drain the stragglers: each still finishes bit-identical.
        for (id, _) in std::mem::take(&mut held) {
            let finished = drive_and_finish(&manager, &id);
            prop_assert!(finished.ok, "{finished:?}");
            prop_assert_eq!(outcome(&finished), unloaded_outcome());
        }

        let admission = manager.metrics().snapshot().admission;
        prop_assert_eq!(admission.admitted_sessions, admits, "admission counter drift");
        prop_assert_eq!(admission.shed_opens, sheds, "shed counter must match observed sheds");
        prop_assert!(
            manager.tenant_usage().is_empty(),
            "all capacity must return to the pool: {:?}",
            manager.tenant_usage()
        );
    }
}

/// Model session for the quota-accounting proptest.
struct ModelSession {
    id: String,
    tenant: usize,
    pending: Vec<u64>,
}

fn model_usage(live: &[ModelSession]) -> BTreeMap<String, TenantUsage> {
    let mut usage: BTreeMap<String, TenantUsage> = BTreeMap::new();
    for s in live {
        let u = usage.entry(format!("tenant-{}", s.tenant)).or_default();
        u.sessions += 1;
        u.inflight += s.pending.len();
    }
    usage.retain(|_, u| *u != TenantUsage::default());
    usage
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Per-tenant in-use accounting tracks a reference model exactly —
    /// never negative, never over cap, no leaked capacity — across
    /// arbitrary interleavings of open / duplicate (retried) open / next /
    /// report / finish / idle expiry.
    #[test]
    fn quota_accounting_matches_model_under_any_interleaving(
        ops in proptest::collection::vec((0u8..6, 0u8..3), 1..48)
    ) {
        const MAX_SESSIONS: usize = 3;
        const MAX_PER_TENANT: usize = 2;
        const MAX_INFLIGHT: usize = 2;
        let manager = SessionManager::new(ManagerConfig {
            // Idle timeout zero: `expire_idle` expires every live session.
            idle_timeout: Duration::ZERO,
            admission: AdmissionConfig {
                max_sessions: Some(MAX_SESSIONS),
                max_sessions_per_tenant: Some(MAX_PER_TENANT),
                max_inflight_per_tenant: Some(MAX_INFLIGHT),
                ..AdmissionConfig::default()
            },
            ..ManagerConfig::default()
        }).unwrap();

        let mut live: Vec<ModelSession> = Vec::new();
        let mut rid_counter = 0u64;
        // The most recent *admitted* open, for dedup-window retries.
        let mut last_open: Option<(Request, String)> = None;
        for &(op, tenant_byte) in &ops {
            let tenant = tenant_byte as usize;
            let label = format!("tenant-{tenant}");
            match op {
                // Open: big space (never done mid-test), window 5 so the
                // tenant in-flight cap (2) binds before the session window.
                0 => {
                    rid_counter += 1;
                    let mut req = open_request("quota-toy", Some(&label), 500);
                    req.request_id = Some(format!("rid-{rid_counter}"));
                    req.max_pending = Some(5);
                    let resp = manager.handle(&req);
                    let total = live.len();
                    let mine = live.iter().filter(|s| s.tenant == tenant).count();
                    if total < MAX_SESSIONS && mine < MAX_PER_TENANT {
                        prop_assert!(resp.ok, "{resp:?}");
                        let id = resp.session.unwrap();
                        last_open = Some((req, id.clone()));
                        live.push(ModelSession { id, tenant, pending: Vec::new() });
                    } else {
                        prop_assert!(resp.is_overloaded(), "{resp:?}");
                    }
                }
                // Retried open with the same request id: answered from the
                // dedup window with the same session id, accounting
                // untouched — the quota is charged exactly once.
                1 => {
                    if let Some((req, id)) = &last_open {
                        let resp = manager.handle(req);
                        prop_assert!(resp.ok, "{resp:?}");
                        prop_assert_eq!(resp.session.as_deref(), Some(id.as_str()));
                    }
                }
                // Next on the tenant's oldest session.
                2 => {
                    let inflight: usize =
                        live.iter().filter(|s| s.tenant == tenant).map(|s| s.pending.len()).sum();
                    if let Some(s) = live.iter_mut().find(|s| s.tenant == tenant) {
                        let resp = manager.handle(&Request::new("next").with_session(&s.id));
                        if inflight >= MAX_INFLIGHT {
                            prop_assert!(resp.is_overloaded(), "{resp:?}");
                        } else {
                            prop_assert!(resp.ok, "{resp:?}");
                            s.pending.push(resp.ticket.expect("ticket on handout"));
                        }
                    }
                }
                // Report the tenant's oldest pending ticket.
                3 => {
                    if let Some(s) =
                        live.iter_mut().find(|s| s.tenant == tenant && !s.pending.is_empty())
                    {
                        let ticket = s.pending.remove(0);
                        let mut req = Request::new("report").with_session(&s.id);
                        req.ticket = Some(ticket);
                        req.cost = Some(1.0);
                        req.valid = Some(true);
                        let resp = manager.handle(&req);
                        prop_assert!(resp.ok, "{resp:?}");
                    }
                }
                // Finish the tenant's oldest session: its slot and any
                // still-pending in-flight reservations return to the pool
                // even when nothing was measured (a `tuning` error reply).
                4 => {
                    if let Some(pos) = live.iter().position(|s| s.tenant == tenant) {
                        let s = live.remove(pos);
                        let resp = manager.handle(&Request::new("finish").with_session(&s.id));
                        prop_assert!(
                            resp.ok || resp.code.as_deref() == Some("tuning"),
                            "{resp:?}"
                        );
                    }
                }
                // Idle expiry: every live session (idle timeout is zero)
                // is swept out, pending reservations included.
                _ => {
                    manager.expire_idle();
                    live.clear();
                }
            }
            prop_assert_eq!(
                manager.tenant_usage(),
                model_usage(&live),
                "accounting drifted from the model after op {:?}",
                (op, tenant)
            );
        }
        // Tear down whatever is left: the pool must read empty.
        for s in std::mem::take(&mut live) {
            manager.handle(&Request::new("finish").with_session(&s.id));
        }
        prop_assert!(manager.tenant_usage().is_empty());
    }
}

/// A shed open retried with the *same* request id is re-admitted once
/// capacity frees — sheds are never remembered by the dedup window.
#[test]
fn retried_shed_open_readmits_after_capacity_frees() {
    let manager = SessionManager::new(ManagerConfig {
        admission: AdmissionConfig {
            max_sessions: Some(1),
            ..AdmissionConfig::default()
        },
        ..ManagerConfig::default()
    })
    .unwrap();

    let mut first = open_request("retry-toy", Some("a"), 16);
    first.request_id = Some("rid-first".into());
    let first_resp = manager.handle(&first);
    assert!(first_resp.ok, "{first_resp:?}");

    let mut second = open_request("retry-toy", Some("b"), 16);
    second.request_id = Some("rid-second".into());
    let shed = manager.handle(&second);
    assert!(shed.is_overloaded(), "{shed:?}");
    assert!(shed.retry_after_ms.is_some());

    // Capacity frees; the byte-identical retry must re-run admission.
    let finished = drive_and_finish(&manager, first_resp.session.as_ref().unwrap());
    assert!(finished.ok, "{finished:?}");
    let retried = manager.handle(&second);
    assert!(retried.ok, "the retried open must be admitted: {retried:?}");

    let admission = manager.metrics().snapshot().admission;
    assert_eq!(admission.admitted_sessions, 2);
    assert_eq!(admission.shed_opens, 1);
}

/// A ticket held past the evaluation deadline is forfeited on the next
/// `next` — and its in-flight reservation returns to the pool, so the
/// tenant's cap does not wedge shut on dead clients.
#[test]
fn forfeited_tickets_return_inflight_capacity() {
    let manager = SessionManager::new(ManagerConfig {
        eval_deadline: Some(Duration::ZERO),
        admission: AdmissionConfig {
            max_inflight_per_tenant: Some(1),
            ..AdmissionConfig::default()
        },
        ..ManagerConfig::default()
    })
    .unwrap();

    let mut open = open_request("forfeit-toy", None, 16);
    open.max_pending = Some(3);
    let opened = manager.handle(&open);
    assert!(opened.ok, "{opened:?}");
    let id = opened.session.unwrap();

    let first = manager.handle(&Request::new("next").with_session(&id));
    assert!(first.ok && first.ticket.is_some(), "{first:?}");
    // The cap is 1 and one ticket is out — but it is already past the
    // (zero) deadline, so the next call forfeits it first and the freed
    // reservation admits the new handout.
    std::thread::sleep(Duration::from_millis(2));
    let second = manager.handle(&Request::new("next").with_session(&id));
    assert!(
        second.ok && second.ticket.is_some(),
        "forfeiture must free the in-flight slot: {second:?}"
    );
    assert_ne!(first.ticket, second.ticket);
    let usage = manager.tenant_usage();
    assert_eq!(
        usage.get(DEFAULT_TENANT).map(|u| u.inflight),
        Some(1),
        "exactly one live reservation after the forfeit: {usage:?}"
    );
}

/// SIGINT mid-storm (modeled by the shutdown handle the self-pipe watcher
/// signals): the server drains within the deadline, checkpoints every live
/// session's journal, and a restarted service resumes the interrupted
/// session to a result bit-identical to an uninterrupted run.
#[test]
fn graceful_drain_leaves_resumable_journals() {
    let reference = unloaded_outcome();
    let dir = std::env::temp_dir().join(format!("atf-drain-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let journal_dir = dir.join("journals");
    let config = ManagerConfig {
        journal_dir: Some(journal_dir.clone()),
        ..ManagerConfig::default()
    };
    let drain_timeout = Duration::from_secs(5);

    let manager = Arc::new(SessionManager::new(config.clone()).unwrap());
    let server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&manager),
        ServerConfig {
            drain_timeout,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());

    // A client mid-session: 5 of 16 evaluations done when the signal hits.
    let mut client = Client::connect(addr).unwrap();
    let mut spec = atf_service::SessionSpec::new("storm-toy");
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
    let session = client.open(&spec).unwrap();
    for _ in 0..5 {
        let cfg = client.next(&session).unwrap().expect("not done yet");
        client.report(&session, Some(toy_cost(cfg["X"]))).unwrap();
    }

    let drain_started = Instant::now();
    shutdown.signal();
    server_thread.join().unwrap().unwrap();
    assert!(
        drain_started.elapsed() < drain_timeout + Duration::from_secs(2),
        "drain must finish within the deadline, took {:?}",
        drain_started.elapsed()
    );
    assert!(
        manager.metrics().snapshot().admission.drained_sessions >= 1,
        "the live session's journal must be checkpointed on drain"
    );
    let journal_files = std::fs::read_dir(&journal_dir).unwrap().count();
    assert!(journal_files >= 1, "a journal file must survive the drain");

    // Restart: the same key resumes from the checkpointed journal and
    // completes bit-identical to the uninterrupted run.
    let restarted = Arc::new(SessionManager::new(config).unwrap());
    let mut resume = open_request("storm-toy", None, 16);
    resume.resume = Some(true);
    let reopened = restarted.handle(&resume);
    assert!(reopened.ok, "{reopened:?}");
    assert_eq!(
        reopened.resumed,
        Some(5),
        "the five pre-drain evaluations must replay from the journal"
    );
    let finished = drive_and_finish(&restarted, &reopened.session.unwrap());
    assert!(finished.ok, "{finished:?}");
    assert_eq!(outcome(&finished), reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// With every slot taken, a new connection is answered at once with one
/// `overloaded` line carrying the manager's retry-after hint, counted and
/// closed — and once a slot frees, new connections are served again.
#[test]
fn connection_hard_cap_rejects_with_overloaded_line() {
    let manager = Arc::new(
        SessionManager::new(ManagerConfig {
            admission: AdmissionConfig {
                retry_after: Duration::from_millis(125),
                ..AdmissionConfig::default()
            },
            ..ManagerConfig::default()
        })
        .unwrap(),
    );
    let server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&manager),
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());

    // Occupy the only slot, proven by a served round trip.
    let mut holder = Client::connect(addr).unwrap();
    holder.ping().unwrap();

    // The second connection is hard-rejected: one overloaded line, close.
    let second = TcpStream::connect(addr).unwrap();
    second
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut second_reader = BufReader::new(second);
    let mut reject = String::new();
    second_reader.read_line(&mut reject).unwrap();
    let resp: Response = serde_json::from_str(reject.trim()).unwrap();
    assert!(!resp.ok);
    assert_eq!(resp.code.as_deref(), Some("overloaded"), "{resp:?}");
    assert_eq!(resp.retry_after_ms, Some(125));
    let mut rest = String::new();
    assert_eq!(
        second_reader.read_line(&mut rest).unwrap(),
        0,
        "the rejected connection must be closed after the answer"
    );
    assert_eq!(
        manager.metrics().snapshot().admission.rejected_connections,
        1
    );

    // Free the slot; a fresh connection is served again.
    drop(holder);
    let deadline = Instant::now() + Duration::from_secs(5);
    let served = loop {
        let third = TcpStream::connect(addr).unwrap();
        third
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut w = third.try_clone().unwrap();
        let mut r = BufReader::new(third);
        w.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
        let mut reply = String::new();
        let _ = r.read_line(&mut reply);
        match serde_json::from_str::<Response>(reply.trim()) {
            Ok(resp) if resp.ok => break true,
            _ if Instant::now() > deadline => break false,
            // Still rejected (the loop has not seen the holder's close
            // yet) — try again.
            _ => std::thread::sleep(Duration::from_millis(30)),
        }
    };
    assert!(served, "a freed slot must serve new connections");

    shutdown.signal();
    server_thread.join().unwrap().unwrap();
}
