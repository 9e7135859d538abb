//! Integration tests for the `poll(2)` reactor front end: the graceful
//! drain must answer every request the server has already received bytes
//! for (the shutdown request-drop regression), connection accounting must
//! return to zero, hundreds of mostly-idle connections must be served by a
//! bounded thread count, and the exactly-once wire semantics must survive
//! a chaos proxy unchanged.

#![cfg(unix)]

use atf_core::spec::{IntervalSpec, ParameterSpec, SearchSpec};
use atf_service::{
    ChaosPlan, ChaosProxy, Client, ManagerConfig, ReconnectingTransport, Response, Server,
    ServerConfig, SessionManager, SessionSpec,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Threads of this test process, from /proc (None off Linux).
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
}

/// The shutdown request-drop regression (deterministically forced):
///
/// One handler thread is stalled inside a slow `finish` (injected database
/// I/O delay) while a second connection pipelines 66 pings in one write —
/// the reactor frames all of them, and past the per-connection pipeline
/// limit it stops reading, so a 67th ping stays in the *kernel* buffer,
/// unread. Shutdown fires with all 67 unanswered. The old server dropped
/// everything buffered at signal time; the reactor's drain must run a
/// final read sweep (picking up ping #67), answer all 67 in order, flush,
/// and only then close — and `connections_active` must read 0 after the
/// drain (the old computed-then-set gauge could stay stale forever).
#[test]
fn drain_answers_every_buffered_request_and_zeroes_the_gauge() {
    let db_path =
        std::env::temp_dir().join(format!("atf-reactor-drain-{}.json", std::process::id()));
    std::fs::remove_file(&db_path).ok();
    let manager = Arc::new(
        SessionManager::new(ManagerConfig {
            db_path: Some(db_path.clone()),
            idle_timeout: Duration::from_secs(60),
            ..ManagerConfig::default()
        })
        .unwrap(),
    );
    let server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&manager),
        ServerConfig {
            io_threads: Some(1),
            handlers: Some(1),
            drain_timeout: Duration::from_secs(15),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());

    // Connection A: tune the toy space to done, then block the single
    // handler inside `finish` (the database append sleeps 400 ms).
    let mut client_a = Client::connect(addr).unwrap();
    let session = client_a.open(&toy_spec("drain-toy")).unwrap();
    while let Some(config) = client_a.next(&session).unwrap() {
        client_a
            .report(&session, Some(toy_cost(config["X"])))
            .unwrap();
    }
    manager.inject_db_io_delay(Duration::from_millis(400));
    let finish_thread = std::thread::spawn(move || client_a.finish(&session));
    std::thread::sleep(Duration::from_millis(100)); // handler now inside finish

    // Connection B: 66 pings in one write (frames past the pipeline
    // limit, reads stop), then a 67th the reactor has not read yet.
    let mut b = TcpStream::connect(addr).unwrap();
    let ping = "{\"cmd\":\"ping\"}\n";
    b.write_all(ping.repeat(66).as_bytes()).unwrap();
    b.flush().unwrap();
    std::thread::sleep(Duration::from_millis(150)); // reactor framed the 66
    b.write_all(ping.as_bytes()).unwrap();
    b.flush().unwrap();
    std::thread::sleep(Duration::from_millis(50)); // byte is kernel-side

    // Shutdown fires with one request mid-handler, 66 framed-but-unserved
    // lines, and one unread line. Every one must still be answered.
    shutdown.signal();

    let mut replies = 0usize;
    let mut reader = BufReader::new(b.try_clone().unwrap());
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break, // clean EOF only after every answer
            Ok(_) => {
                let resp: Response = serde_json::from_str(line.trim()).unwrap();
                assert!(resp.ok, "drain must answer pings, got {line}");
                replies += 1;
            }
            Err(e) => panic!("reading drained responses failed after {replies}: {e}"),
        }
    }
    assert_eq!(
        replies, 67,
        "every request the server had received bytes for must be answered before close"
    );

    let finish = finish_thread.join().unwrap().unwrap();
    assert!(
        finish.ok,
        "in-flight finish must complete through the drain"
    );
    assert_eq!(finish.best_cost, Some(0.0));

    server_thread.join().unwrap().unwrap();
    let metrics = manager.metrics().snapshot();
    assert_eq!(
        metrics.admission.connections_active, 0,
        "connection gauge must return to exactly 0 after drain"
    );
    assert_eq!(metrics.reactor.registered_fds, 0);
    std::fs::remove_file(&db_path).ok();
}

/// A full pipeline on a live server: 64 pings (the per-connection pipeline
/// limit) in one `write_all` come back as 64 `ok` lines, and the connection
/// serves the next request afterwards. Accepted sockets run with
/// `TCP_NODELAY`, so the replies are not spaced by Nagle × delayed ACK — a
/// latency `atf-suite`'s `reactor.pipelined_pings_per_s` measures; this
/// test asserts only the answers.
#[test]
fn a_full_pipeline_of_pings_is_answered_line_for_line() {
    let manager = Arc::new(SessionManager::in_memory());
    let server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&manager),
        ServerConfig {
            io_threads: Some(1),
            handlers: Some(2),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let ping = "{\"cmd\":\"ping\"}\n";
    let mut read_ok = |what: &str| {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp: Response = serde_json::from_str(line.trim()).unwrap();
        assert!(resp.ok, "{what} answered {line:?}");
    };
    stream.write_all(ping.repeat(64).as_bytes()).unwrap();
    for i in 0..64 {
        read_ok(&format!("pipelined ping #{i}"));
    }
    stream.write_all(ping.as_bytes()).unwrap();
    read_ok("the ping after the pipeline");

    shutdown.signal();
    server_thread.join().unwrap().unwrap();
    assert_eq!(manager.metrics().snapshot().reactor.registered_fds, 0);
}

/// ≥512 concurrently open, mostly idle connections — each served at least
/// one request — on a bounded thread count: the reactor's io loops +
/// handler pool, not one thread per connection.
#[test]
fn many_idle_connections_bounded_threads() {
    let manager = Arc::new(SessionManager::in_memory());
    let server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&manager),
        ServerConfig {
            max_connections: Some(1024),
            io_threads: Some(1),
            handlers: Some(2),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let threads_before = process_threads();
    let server_thread = std::thread::spawn(move || server.run());

    const CONNS: usize = 512;
    let mut conns: Vec<TcpStream> = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        match TcpStream::connect(addr) {
            Ok(stream) => conns.push(stream),
            Err(e) => panic!("connect #{i} failed: {e}"),
        }
    }
    // Every connection is really served: one ping round trip each.
    for (i, stream) in conns.iter_mut().enumerate() {
        stream.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp: Response = serde_json::from_str(line.trim()).unwrap();
        assert!(resp.ok, "ping on connection #{i} failed: {line}");
    }

    assert_eq!(
        manager.metrics().snapshot().reactor.registered_fds,
        CONNS as u64,
        "all connections must be registered with the poll set"
    );
    if let (Some(before), Some(during)) = (threads_before, process_threads()) {
        let delta = during.saturating_sub(before);
        assert!(
            delta < 50,
            "{CONNS} open connections grew the process by {delta} threads — \
             that is thread-per-connection, not a reactor"
        );
    }

    // Graceful shutdown with all connections still open: idle ones are
    // closed by the drain sweep, the gauge returns to zero.
    shutdown.signal();
    server_thread.join().unwrap().unwrap();
    let metrics = manager.metrics().snapshot();
    assert_eq!(metrics.admission.connections_active, 0);
    assert_eq!(metrics.reactor.registered_fds, 0);
    drop(conns);
}

/// The accept-queue/hard-cap shedding semantics survive the reactor: with
/// one slot and no queue, a second concurrent connection gets exactly one
/// `overloaded` line and a close, and the slot is reusable afterwards.
#[test]
fn hard_cap_shedding_semantics_unchanged() {
    let manager = Arc::new(SessionManager::in_memory());
    let server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&manager),
        ServerConfig {
            max_connections: Some(1),
            accept_queue: 0,
            io_threads: Some(1),
            handlers: Some(1),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());

    // Occupy the only slot and prove it serves.
    let mut holder = Client::connect(addr).unwrap();
    holder.ping().unwrap();

    // Second connection: one overloaded line, then EOF.
    let rejected = TcpStream::connect(addr).unwrap();
    rejected
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(rejected);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let resp: Response = serde_json::from_str(line.trim()).unwrap();
    assert!(!resp.ok);
    assert_eq!(resp.code.as_deref(), Some("overloaded"));
    assert!(resp.retry_after_ms.is_some());
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "close after shed");

    // Freeing the slot readmits new connections.
    drop(holder);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut retry = Client::connect(addr).unwrap();
        if retry.ping().is_ok() {
            break;
        }
        assert!(Instant::now() < deadline, "freed slot was never readmitted");
        std::thread::sleep(Duration::from_millis(20));
    }

    shutdown.signal();
    server_thread.join().unwrap().unwrap();
}

/// PR 5's fault schedules over the reactor path: a hostile chaos proxy in
/// front of the reactor-backed server must leave the observable tuning
/// outcome exactly equal to the fault-free loopback run — the reactor
/// changes the connection engine, not the exactly-once semantics.
#[test]
fn chaos_proxy_over_reactor_keeps_exactly_once_semantics() {
    // The fault-free reference.
    let reference = {
        let manager = Arc::new(SessionManager::in_memory());
        let mut client = Client::loopback(manager);
        client
            .tune(&toy_spec("reactor-chaos"), |wire| Ok(toy_cost(wire["X"])))
            .expect("fault-free run")
    };

    let manager = Arc::new(SessionManager::in_memory());
    let server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&manager),
        ServerConfig {
            io_threads: Some(2),
            handlers: Some(2),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let server_thread = std::thread::spawn(move || server.run());

    let mut plan = ChaosPlan::hostile(0x5eac_7042);
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
        .tune(&toy_spec("reactor-chaos"), |wire| Ok(toy_cost(wire["X"])))
        .expect("chaos run must converge through retries");

    assert_eq!(resp.best_cost, reference.best_cost);
    assert_eq!(resp.best_config, reference.best_config);
    assert_eq!(resp.evaluations, reference.evaluations);
    assert_eq!(resp.valid_evaluations, reference.valid_evaluations);
    assert_eq!(resp.space_size.as_deref(), Some("16"));
    assert!(
        proxy.counters().total() > 0,
        "the proxy must actually inject faults"
    );

    proxy.stop();
    shutdown.signal();
    server_thread.join().unwrap().unwrap();
}
