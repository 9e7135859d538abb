//! Differential sharding tests: the lock-striped session manager must be
//! observably identical to the single-lock manager (shards = 1, literally
//! one `Mutex<HashMap>` — the old layout) under arbitrary interleavings of
//! open / dup-open / next / dup-next / report / finish / expire / forfeit
//! ops. Every response is compared byte-for-byte across 1, 4, and 16
//! shards, and final statuses, live-session counts, tenant accounting,
//! dedup replays, and database contents must agree for every sampled
//! seed. Plus the slow-persist regression: database file I/O must never
//! block wire ops on live sessions.

use atf_service::{AdmissionConfig, ManagerConfig, Request, SessionManager, TenantUsage};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Shard counts under differential test; index 0 is the single-lock
/// reference oracle.
const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

/// An `open` for X in 1..=6 (exhaustive, deterministic). Kernel and
/// tenant vary with `a` so sessions spread over database keys and tenant
/// quota buckets.
fn open_request(a: u8, rid: &str) -> Request {
    use atf_core::spec::{IntervalSpec, ParameterSpec, SearchSpec};
    let mut req = Request::new("open");
    req.kernel = Some(format!("k{}", a % 3));
    req.tenant = Some(format!("t{}", a % 2));
    req.request_id = Some(rid.to_string());
    req.parameters = Some(vec![ParameterSpec {
        name: "X".into(),
        interval: Some(IntervalSpec {
            begin: 1,
            end: 6,
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

/// A manager under test. `idle_timeout` zero makes the expire op evict
/// every live session on all managers alike; `eval_deadline` zero makes
/// every `next` forfeit the previously handed-out configuration first, so
/// forfeiture fires deterministically regardless of shard count.
fn manager(shards: usize) -> SessionManager {
    SessionManager::new(ManagerConfig {
        idle_timeout: Duration::ZERO,
        eval_deadline: Some(Duration::ZERO),
        admission: AdmissionConfig {
            max_sessions: Some(4),
            max_sessions_per_tenant: Some(3),
            max_inflight_per_tenant: Some(2),
            ..AdmissionConfig::default()
        },
        shards: Some(shards),
        ..ManagerConfig::default()
    })
    .expect("in-memory manager")
}

/// Applies one request to every manager and asserts the serialized
/// responses are identical; returns the reference manager's response.
fn apply(
    managers: &[SessionManager],
    req: &Request,
) -> Result<atf_service::Response, TestCaseError> {
    let reference = managers[0].handle(req);
    let reference_wire = serde_json::to_string(&reference).unwrap();
    for (m, &shards) in managers.iter().zip(&SHARD_COUNTS).skip(1) {
        let wire = serde_json::to_string(&m.handle(req)).unwrap();
        prop_assert_eq!(
            &reference_wire,
            &wire,
            "response diverged at {} shards for {:?}",
            shards,
            req
        );
    }
    Ok(reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline differential test: any op interleaving produces
    /// byte-identical responses and final state at 1, 4, and 16 shards.
    #[test]
    fn sharded_manager_is_observably_identical_to_single_lock(
        ops in proptest::collection::vec((0u8..8, 0u8..4), 1..48)
    ) {
        let managers: Vec<SessionManager> =
            SHARD_COUNTS.iter().map(|&s| manager(s)).collect();
        // Session ids are assigned identically across managers (serial op
        // stream, deterministic counter), so one live-id list serves all.
        let mut live: Vec<String> = Vec::new();
        let mut last_open: Option<Request> = None;
        let mut last_next: Option<Request> = None;
        let mut seq = 0u32;
        for (op, a) in ops {
            seq += 1;
            let pick = |live: &Vec<String>| -> String {
                if live.is_empty() {
                    "s999".to_string() // unknown on every manager alike
                } else {
                    live[a as usize % live.len()].clone()
                }
            };
            match op {
                0 => {
                    let req = open_request(a, &format!("o{seq}"));
                    let resp = apply(&managers, &req)?;
                    if let Some(id) = resp.session {
                        live.push(id);
                    }
                    last_open = Some(req);
                }
                1 => {
                    // Dup-open: the retry must replay the cached response,
                    // not create a twin session — live list unchanged.
                    if let Some(req) = &last_open {
                        let before = managers[0].live_sessions();
                        let resp = apply(&managers, req)?;
                        if resp.ok {
                            prop_assert_eq!(managers[0].live_sessions(), before);
                        }
                    }
                }
                2 => {
                    let mut req = Request::new("next").with_session(&pick(&live));
                    req.request_id = Some(format!("n{seq}"));
                    apply(&managers, &req)?;
                    last_next = Some(req);
                }
                3 => {
                    // Dup-next: same request id replays the same handout.
                    if let Some(req) = &last_next {
                        apply(&managers, req)?;
                    }
                }
                4 => {
                    let mut req = Request::new("report").with_session(&pick(&live));
                    req.cost = Some(f64::from(a) + 0.5);
                    req.valid = Some(true);
                    apply(&managers, &req)?;
                }
                5 => {
                    let id = pick(&live);
                    let mut req = Request::new("finish").with_session(&id);
                    req.request_id = Some(format!("f{seq}"));
                    apply(&managers, &req)?;
                    live.retain(|s| s != &id);
                }
                6 => {
                    // Idle expiry: zero timeout evicts every live session
                    // on every manager; the sweep must agree on the count.
                    std::thread::sleep(Duration::from_millis(1));
                    let expired = managers[0].expire_idle();
                    for m in &managers[1..] {
                        prop_assert_eq!(m.expire_idle(), expired);
                    }
                    live.clear();
                }
                _ => {
                    // Forfeit: the zero eval-deadline makes this `next`
                    // time out whatever the session still held pending.
                    std::thread::sleep(Duration::from_millis(1));
                    let req = Request::new("next").with_session(&pick(&live));
                    apply(&managers, &req)?;
                }
            }
            // Every surviving session answers `status` identically.
            for id in &live {
                apply(&managers, &Request::new("status").with_session(id))?;
            }
        }
        // Final-state equivalence: live sessions, exact tenant accounting,
        // and the merged database must match the single-lock oracle.
        let live_ref = managers[0].live_sessions();
        let usage_ref: BTreeMap<String, TenantUsage> = managers[0].tenant_usage();
        let db_ref = managers[0].with_db(|db| db.clone());
        for (m, &shards) in managers.iter().zip(&SHARD_COUNTS).skip(1) {
            prop_assert_eq!(m.live_sessions(), live_ref, "live sessions at {} shards", shards);
            prop_assert_eq!(m.tenant_usage(), usage_ref.clone(), "tenant usage at {} shards", shards);
            prop_assert_eq!(
                m.with_db(|db| db.clone()),
                db_ref.clone(),
                "database at {} shards", shards
            );
        }
        // No leaked reservations anywhere: finished/expired sessions gave
        // their capacity back, and what's left is exactly the live set.
        let live_by_usage: usize = usage_ref.values().map(|u| u.sessions).sum();
        prop_assert_eq!(live_by_usage, live_ref);
    }
}

/// Session ids spread over shards (FNV affinity), the `--shards`-style
/// config knob is honored exactly, and per-shard session gauges sum to
/// the live-session count.
#[test]
fn shard_affinity_spreads_sessions_and_gauges_agree() {
    let m = manager(4);
    assert_eq!(m.shard_count(), 4);
    let mut opened = 0;
    for i in 0..16u8 {
        let resp = m.handle(&open_request(i % 2, &format!("aff{i}")));
        if resp.ok {
            opened += 1;
        } else {
            // Quota-limited config: finish one and retry.
            break;
        }
    }
    assert!(opened >= 2, "at least two sessions under the quota");
    let stats = m.handle(&Request::new("stats"));
    let snapshot = stats.stats.expect("service stats");
    assert_eq!(snapshot.shard_sessions.len(), 4);
    assert_eq!(
        snapshot.shard_sessions.iter().sum::<u64>(),
        m.live_sessions() as u64
    );
}

/// The slow-persist regression (the old bug held the db lock across a
/// whole-file rewrite): while `persist` sleeps inside database file I/O,
/// wire ops on live sessions — open, next, report, status, lookup — must
/// all complete without waiting behind it.
#[test]
fn wire_ops_do_not_block_behind_a_slow_persist() {
    let dir = std::env::temp_dir().join(format!("atf-slow-persist-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let manager = std::sync::Arc::new(
        SessionManager::new(ManagerConfig {
            db_path: Some(dir.join("db.json")),
            shards: Some(4),
            ..ManagerConfig::default()
        })
        .unwrap(),
    );
    // Seed the database so persist has something to write, and keep one
    // live session to drive during the stall.
    let seeded = manager.handle(&open_request(0, "seed"));
    assert!(seeded.ok, "{seeded:?}");
    let finished = {
        let id = seeded.session.clone().unwrap();
        loop {
            let next = manager.handle(&Request::new("next").with_session(&id));
            if next.done == Some(true) {
                break manager.handle(&Request::new("finish").with_session(&id));
            }
            if let Some(config) = next.config {
                let mut report = Request::new("report").with_session(&id);
                report.cost = Some(config["X"] as f64);
                assert!(manager.handle(&report).ok);
            }
        }
    };
    assert!(finished.ok, "{finished:?}");
    let live = manager.handle(&open_request(1, "live"));
    assert!(live.ok, "{live:?}");
    let live_id = live.session.unwrap();

    manager.inject_db_io_delay(Duration::from_millis(600));
    let persisting = {
        let manager = manager.clone();
        std::thread::spawn(move || manager.persist())
    };
    // Give the persist thread time to take the log lock and start its
    // artificially slow I/O.
    std::thread::sleep(Duration::from_millis(50));
    assert!(!persisting.is_finished(), "persist must still be stalled");

    let started = Instant::now();
    let next = manager.handle(&Request::new("next").with_session(&live_id));
    assert!(next.ok, "{next:?}");
    let mut report = Request::new("report").with_session(&live_id);
    report.cost = Some(1.0);
    assert!(manager.handle(&report).ok);
    assert!(
        manager
            .handle(&Request::new("status").with_session(&live_id))
            .ok
    );
    let mut lookup = Request::new("lookup");
    lookup.kernel = Some("k0".into());
    assert!(manager.handle(&lookup).ok);
    let opened = manager.handle(&open_request(0, "during"));
    assert!(opened.ok, "{opened:?}");
    let elapsed = started.elapsed();

    assert!(
        !persisting.is_finished(),
        "ops must have finished while persist was still writing \
         (ops took {elapsed:?})"
    );
    assert!(
        elapsed < Duration::from_millis(400),
        "wire ops blocked behind slow persist: {elapsed:?}"
    );
    persisting.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
