//! End-to-end test over a real socket: the service on an ephemeral port,
//! two concurrent client sessions for different kernels, results compared
//! against in-process [`Tuner::tune`] runs on the same seeded spaces, and a
//! restart serving `lookup` from the persisted database without re-tuning.

use atf_core::config::Config;
use atf_core::param::auto_group;
use atf_core::prelude::*;
use atf_core::search::RandomSearch;
use atf_core::space::SearchSpace;
use atf_core::spec::{self, IntervalSpec, ParameterSpec, SearchSpec};
use atf_core::tuner::Tuner;
use atf_service::{Client, ManagerConfig, Server, SessionManager, SessionSpec};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// The two kernels under test: a deterministic synthetic cost surface each,
/// computable from either a wire config or an in-process [`Config`].
fn kernel_cost(kernel: &str, x: u64, y: u64) -> f64 {
    match kernel {
        "gemm" => (x as f64 - 5.0).powi(2) + (y as f64 - 4.0).powi(2) + 1.0,
        "conv" => (x as f64 * y as f64 - 12.0).abs() + 0.5,
        other => panic!("unknown kernel {other}"),
    }
}

fn parameters() -> Vec<ParameterSpec> {
    vec![
        ParameterSpec {
            name: "X".into(),
            interval: Some(IntervalSpec {
                begin: 1,
                end: 8,
                step: 1,
            }),
            set: None,
            constraint: None,
        },
        ParameterSpec {
            name: "Y".into(),
            interval: None,
            set: Some(vec![1, 2, 4, 8]),
            constraint: None,
        },
    ]
}

fn session_spec(kernel: &str, seed: u64) -> SessionSpec {
    let mut s = SessionSpec::new(kernel);
    s.parameters = parameters();
    s.search = Some(SearchSpec {
        technique: "random".into(),
        seed,
    });
    s.abort = Some(AbortSpec {
        evaluations: Some(20),
        ..Default::default()
    });
    s
}

/// The reference: the same seeded search run entirely in-process.
fn reference_result(kernel: &str, seed: u64) -> TuningResult<f64> {
    let params = spec::build_params(&parameters()).unwrap();
    let space = SearchSpace::generate(&auto_group(params));
    let mut cost =
        cost_fn(|config: &Config| kernel_cost(kernel, config.get_u64("X"), config.get_u64("Y")));
    Tuner::new()
        .technique(RandomSearch::with_seed(seed))
        .abort_condition(abort::evaluations(20))
        .tune_space(&space, &mut cost)
        .unwrap()
}

fn wire_as_pairs(wire: &BTreeMap<String, u64>) -> (u64, u64) {
    (wire["X"], wire["Y"])
}

#[test]
fn concurrent_tcp_sessions_match_in_process_tuner_and_persist() {
    let db_path = std::env::temp_dir().join(format!("atf-service-e2e-{}.json", std::process::id()));
    std::fs::remove_file(&db_path).ok();

    // First service lifetime: tune both kernels concurrently over TCP.
    let manager = Arc::new(
        SessionManager::new(ManagerConfig {
            db_path: Some(db_path.clone()),
            idle_timeout: Duration::from_secs(60),
            ..ManagerConfig::default()
        })
        .unwrap(),
    );
    let server = Server::bind("127.0.0.1:0", Arc::clone(&manager)).unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());

    let tune_over_tcp = |kernel: &'static str, seed: u64| {
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.ping().unwrap();
            client
                .tune(&session_spec(kernel, seed), |wire| {
                    let (x, y) = wire_as_pairs(wire);
                    Ok(kernel_cost(kernel, x, y))
                })
                .unwrap()
        })
    };
    let gemm_thread = tune_over_tcp("gemm", 42);
    let conv_thread = tune_over_tcp("conv", 7);
    let gemm = gemm_thread.join().unwrap();
    let conv = conv_thread.join().unwrap();

    // Each remote run must equal the identical in-process run.
    for (kernel, seed, remote) in [("gemm", 42, &gemm), ("conv", 7, &conv)] {
        let expected = reference_result(kernel, seed);
        let remote_best = remote.best_config.as_ref().unwrap();
        assert_eq!(
            remote_best["X"],
            expected.best_config.get_u64("X"),
            "{kernel}: best X differs from in-process tuner"
        );
        assert_eq!(remote_best["Y"], expected.best_config.get_u64("Y"));
        assert_eq!(remote.best_cost, Some(expected.best_cost));
        assert_eq!(remote.evaluations, Some(expected.evaluations));
        assert_eq!(remote.space_size.as_deref(), Some("32"));
    }

    shutdown.signal();
    server_thread.join().unwrap().unwrap();
    assert!(db_path.exists(), "database was not persisted");

    // Second service lifetime: a fresh manager loads the persisted
    // database and serves `lookup` without any tuning.
    let manager2 = Arc::new(
        SessionManager::new(ManagerConfig {
            db_path: Some(db_path.clone()),
            idle_timeout: Duration::from_secs(60),
            ..ManagerConfig::default()
        })
        .unwrap(),
    );
    let server2 = Server::bind("127.0.0.1:0", Arc::clone(&manager2)).unwrap();
    let addr2 = server2.local_addr().unwrap();
    let shutdown2 = server2.shutdown_handle();
    let server2_thread = std::thread::spawn(move || server2.run());

    let mut client = Client::connect(addr2).unwrap();
    for (kernel, tuned) in [("gemm", &gemm), ("conv", &conv)] {
        let hit = client.lookup(kernel, None, None).unwrap().unwrap();
        assert_eq!(hit.source.as_deref(), Some("database"));
        assert_eq!(hit.best_cost, tuned.best_cost);
        assert_eq!(&hit.best_config, &tuned.best_config);
    }
    assert!(client.lookup("never-tuned", None, None).unwrap().is_none());
    assert_eq!(manager2.live_sessions(), 0, "lookup must not open sessions");

    shutdown2.signal();
    server2_thread.join().unwrap().unwrap();
    std::fs::remove_file(&db_path).ok();
}

#[test]
fn malformed_lines_get_structured_errors_over_tcp() {
    use std::io::{BufRead, BufReader, Write};

    let manager = Arc::new(SessionManager::in_memory());
    let server = Server::bind("127.0.0.1:0", manager).unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());

    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut roundtrip = |line: &str| -> atf_service::Response {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        serde_json::from_str(reply.trim()).unwrap()
    };

    let r = roundtrip("{nope");
    assert!(!r.ok);
    assert_eq!(r.code.as_deref(), Some("parse"));

    let r = roundtrip("{\"cmd\":\"teleport\"}");
    assert_eq!(r.code.as_deref(), Some("unknown_cmd"));

    let r = roundtrip("{\"cmd\":\"open\"}");
    assert_eq!(r.code.as_deref(), Some("bad_request"));

    let r = roundtrip("{\"cmd\":\"ping\"}");
    assert!(r.ok);

    shutdown.signal();
    server_thread.join().unwrap().unwrap();
}
