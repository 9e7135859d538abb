//! `service_steady` and `service_churn`: two TCP clients against an
//! in-process `Server` with journals and the database log on. Steady keeps
//! one long session per client (the per-request path: client → reactor →
//! proto → manager/shard → session → journal); churn opens, drives 16 steps
//! and finishes a fresh session over and over (spec parse, service-side
//! spacegen, admission, journal create, database append).

use crate::inputs;
use crate::stats::{self, time_box, BoxRun};
use crate::trace::{self, SpanId, Tracer, NO_PARENT};
use crate::workload::{Checks, Params, Run, Workload};
use atf_core::db::DatabaseLog;
use atf_core::prelude::*;
use atf_service::{
    Client, ManagerConfig, Server, ServerConfig, SessionManager, SessionSpec, ShutdownHandle,
    TcpTransport, WireHandout,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

/// Steps per churn session.
const CHURN_STEPS: u64 = 16;
/// Read-side round trips per client per 10 s box, in [`READ_BLOCKS`] blocks.
const READS_PER_BOX: usize = 40_000;
const READ_BLOCKS: usize = 10;
const SPAN_CAPACITY: usize = crate::trace::SPAN_CAPACITY / 2;
/// Reactor threads of the in-process server (recorded in the `env` block).
pub const IO_THREADS: usize = 1;
pub const HANDLERS: usize = 2;

pub struct ServiceSteady;
pub struct ServiceChurn;

/// An in-process service on an ephemeral port, configured like
/// `atf-tune serve --journal-dir --db` with one I/O loop and two handlers.
pub struct Service {
    pub addr: SocketAddr,
    pub db_path: PathBuf,
    shutdown: ShutdownHandle,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Service {
    pub fn start(dir: &Path) -> std::io::Result<Service> {
        let db_path = dir.join("db.ndjson");
        let manager = Arc::new(SessionManager::new(ManagerConfig {
            journal_dir: Some(dir.join("journals")),
            db_path: Some(db_path.clone()),
            ..ManagerConfig::default()
        })?);
        let server = Server::bind_with(
            "127.0.0.1:0",
            Arc::clone(&manager),
            ServerConfig {
                io_threads: Some(IO_THREADS),
                handlers: Some(HANDLERS),
                ..ServerConfig::default()
            },
        )?;
        let addr = server.local_addr()?;
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Service {
            addr,
            db_path,
            shutdown,
            thread: Some(thread),
        })
    }

    pub fn connect(&self) -> Client<TcpTransport> {
        Client::connect(self.addr).expect("connect to the in-process service")
    }

    /// Graceful stop: drains, checkpoints journals, persists the database.
    pub fn stop(&mut self) -> bool {
        self.shutdown.signal();
        match self.thread.take() {
            Some(t) => matches!(t.join(), Ok(Ok(()))),
            None => true,
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The `open` a client sends: the XgemmDirect wire spec capped at `cap`,
/// never ended by the session itself (the driver's box ends it).
pub fn session_spec(kernel: &str, cap: u64, technique: &str, seed: u64) -> SessionSpec {
    let mut spec = SessionSpec::new(kernel);
    spec.parameters = inputs::xgemm_wire_spec(cap);
    spec.search = Some(SearchSpec {
        technique: technique.into(),
        seed,
    });
    spec.abort = Some(AbortSpec {
        evaluations: Some(1 << 40),
        ..AbortSpec::default()
    });
    spec
}

/// One step: a `next` and a `report` round trip, as a `step` span under
/// `parent`. Returns the evaluation count the service acknowledged; `Err`
/// describes a refusal.
pub fn step<T: atf_service::Transport>(
    client: &mut Client<T>,
    session: &str,
    seed: u64,
    tracer: &mut Tracer,
    parent: SpanId,
    op_id: u64,
) -> Result<u64, String> {
    let op = tracer.begin("step", parent, op_id);
    let handout = tracer.scope("client.next", op, op_id, || client.next_ticket(session));
    let (ticket, config) = match handout {
        Ok(WireHandout::Next(ticket, config)) => (ticket, config),
        other => return Err(format!("next answered {other:?}")),
    };
    let cost = inputs::wire_cost(&config, seed);
    let ack = tracer.scope("client.report", op, op_id, || {
        client.report_ticket(session, ticket, Some(cost))
    });
    tracer.end(op);
    match ack {
        Ok(resp) => resp
            .evaluations
            .ok_or_else(|| "report acknowledged without an evaluation count".into()),
        Err(e) => Err(format!("report refused: {e}")),
    }
}

/// Times `READ_BLOCKS` blocks of read-side round trips of one client;
/// returns the median rate and how many round trips `op` reported failed.
/// The clients start every block together: a client reading while the other
/// is still in its box, or after the other has finished, runs at a third or
/// at twice the rate of two clients reading side by side.
fn read_rate(per_block: usize, barrier: &Barrier, mut op: impl FnMut(usize) -> bool) -> (f64, u64) {
    let mut rates = Vec::with_capacity(READ_BLOCKS);
    let mut failed = 0;
    for block in 0..READ_BLOCKS {
        barrier.wait();
        let t0 = Instant::now();
        for i in 0..per_block {
            if !op(block * per_block + i) {
                failed += 1;
            }
        }
        rates.push(per_block as f64 / t0.elapsed().as_secs_f64());
    }
    (stats::median(&rates), failed)
}

/// What one client thread brings back.
struct ClientResult {
    boxed: BoxRun,
    read_rate: f64,
    reads: u64,
    checks: Checks,
    open_us: Vec<f64>,
    finished: u64,
    spans: Vec<trace::Span>,
    dropped: u64,
}

/// Runs `clients` closed-loop client threads that start their boxes together
/// and folds their results into one [`Run`].
fn run_clients<S: Send>(
    clients: Vec<(Client<TcpTransport>, S)>,
    traced: bool,
    checks: &mut Checks,
    drive: impl Fn(usize, Client<TcpTransport>, S, &Barrier, Tracer) -> ClientResult + Sync,
) -> (Run, Vec<f64>, u64) {
    let barrier = Barrier::new(clients.len());
    let t0 = Instant::now();
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, (client, prepared))| {
                let tracer = Tracer::new(traced, SPAN_CAPACITY, t0);
                let (drive, barrier) = (&drive, &barrier);
                scope.spawn(move || drive(i, client, prepared, barrier, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut run = Run::default();
    let mut open_us = Vec::new();
    let mut finished = 0;
    let mut buffers = Vec::new();
    for r in results {
        run.ops += r.boxed.ops();
        run.wall = run.wall.max(r.boxed.wall);
        checks.ops(r.boxed.ops() + r.reads);
        run.latencies_us.extend(r.boxed.latencies_us);
        run.read_ops_per_s += r.read_rate;
        checks.absorb(r.checks);
        open_us.extend(r.open_us);
        finished += r.finished;
        run.spans_dropped += r.dropped;
        buffers.push(r.spans);
    }
    run.spans = trace::merge(buffers);
    (run, open_us, finished)
}

/// A started service and one connected client per load generator.
pub struct State<S> {
    service: Service,
    /// Each client with what set-up prepared for it.
    clients: Vec<(Client<TcpTransport>, S)>,
}

/// Starts the service, connects the clients and lets `prepare` run each
/// client's warm-up operation.
fn start_service<S>(
    p: &Params,
    checks: &mut Checks,
    prepare: impl Fn(usize, &mut Client<TcpTransport>) -> Result<S, String>,
) -> State<S> {
    let service = Service::start(&p.scratch).expect("start the in-process service");
    let clients = (0..p.clients)
        .filter_map(|i| {
            let mut client = service.connect();
            match prepare(i, &mut client) {
                Ok(prepared) => Some((client, prepared)),
                Err(e) => {
                    checks.failed_op(format!("set-up of client {i} failed: {e}"));
                    None
                }
            }
        })
        .collect();
    State { service, clients }
}

/// One whole churn session on `kernel`; returns the `open` round trip in µs.
fn churn_session(
    client: &mut Client<TcpTransport>,
    kernel: &str,
    seed: u64,
    tracer: &mut Tracer,
    op_id: u64,
) -> Result<f64, String> {
    let spec = session_spec(kernel, 8, "ensemble", seed);
    let op = tracer.begin("session", NO_PARENT, op_id);
    let t0 = Instant::now();
    let opened = tracer.scope("client.open", op, op_id, || client.open(&spec));
    let open_us = t0.elapsed().as_secs_f64() * 1e6;
    let session = opened.map_err(|e| format!("open not admitted: {e}"))?;
    for n in 1..=CHURN_STEPS {
        step(client, &session, seed, tracer, op, n)?;
    }
    let finish = tracer.scope("client.finish", op, op_id, || client.finish(&session));
    tracer.end(op);
    if finish
        .as_ref()
        .is_ok_and(|r| r.evaluations == Some(CHURN_STEPS))
    {
        Ok(open_us)
    } else {
        Err(format!("finish answered {finish:?}"))
    }
}

impl Workload for ServiceSteady {
    const NAME: &'static str = "service_steady";
    const OP: &'static str = "one step (next + report round trips) of a long annealing session";
    const READ_OP: &'static str = "one status round trip (touches the session, not the journal)";
    /// Each client holds the id of its open session.
    type State = State<String>;

    fn setup(p: &Params, checks: &mut Checks) -> Self::State {
        let cap = if p.quick { 8 } else { 16 };
        start_service(p, checks, |i, client| {
            let spec = session_spec(&format!("steady-{}-{i}", p.seed), cap, "annealing", p.seed);
            client.open(&spec).map_err(|e| e.to_string())
        })
    }

    fn run(state: Self::State, p: &Params, traced: bool, checks: &mut Checks) -> Run {
        let State {
            mut service,
            clients,
        } = state;
        let n_clients = clients.len();
        let reads = p.scaled(READS_PER_BOX, READ_BLOCKS * 20) / READ_BLOCKS;
        let (mut run, _, _) = run_clients(
            clients,
            traced,
            checks,
            |_, mut client, session, barrier, mut tracer| {
                let mut checks = Checks::default();
                barrier.wait();
                let mut steps = 0u64;
                let boxed = time_box(p.box_len, || {
                    steps += 1;
                    // Every ticket acknowledged once: the service's evaluation
                    // count after the report equals the steps sent.
                    match step(&mut client, &session, p.seed, &mut tracer, NO_PARENT, steps) {
                        Ok(evaluations) if evaluations == steps => true,
                        Ok(evaluations) => {
                            checks.failed_op(format!("step {steps} acknowledged as {evaluations}"));
                            false
                        }
                        Err(e) => {
                            checks.failed_op(e);
                            false
                        }
                    }
                });
                let (read_rate, failed) = read_rate(reads, barrier, |_| {
                    tracer
                        .scope("client.status", NO_PARENT, 0, || client.status(&session))
                        .is_ok_and(|r| r.evaluations == Some(boxed.ops()))
                });
                for _ in 0..failed {
                    checks.failed_op("status refused or stale".into());
                }
                let finish =
                    tracer.scope("client.finish", NO_PARENT, 0, || client.finish(&session));
                checks.check(
                    finish
                        .as_ref()
                        .is_ok_and(|r| r.evaluations == Some(boxed.ops())),
                    || format!("finish after {} steps answered {finish:?}", boxed.ops()),
                );
                ClientResult {
                    boxed,
                    read_rate,
                    reads: (reads * READ_BLOCKS) as u64,
                    checks,
                    open_us: Vec::new(),
                    finished: 1,
                    dropped: tracer.dropped,
                    spans: tracer.into_spans(),
                }
            },
        );
        checks.check(service.stop(), || "service shutdown failed".into());
        run.extras.push(("clients", n_clients as f64, "count"));
        run
    }
}

impl Workload for ServiceChurn {
    const NAME: &'static str = "service_churn";
    const OP: &'static str = "one session: open (fresh kernel key) + 16 steps + finish";
    const READ_OP: &'static str = "one lookup round trip of a finished kernel (database read)";
    type State = State<()>;

    fn setup(p: &Params, checks: &mut Checks) -> Self::State {
        // Warm-up operation: one whole session per client.
        start_service(p, checks, |i, client| {
            let kernel = format!("churn-{}-{i}-warm", p.seed);
            churn_session(client, &kernel, p.seed, &mut Tracer::off(), 0).map(|_| ())
        })
    }

    fn run(state: Self::State, p: &Params, traced: bool, checks: &mut Checks) -> Run {
        let State {
            mut service,
            clients,
        } = state;
        let n_clients = clients.len();
        let reads = p.scaled(READS_PER_BOX, READ_BLOCKS * 20) / READ_BLOCKS;
        let (mut run, open_us, finished) = run_clients(
            clients,
            traced,
            checks,
            |i, mut client, (), barrier, mut tracer| {
                let mut checks = Checks::default();
                let kernel = |n: u64| format!("churn-{}-{i}-{n}", p.seed);
                let mut open_us = Vec::new();
                let mut sessions = 0u64;
                barrier.wait();
                let boxed = time_box(p.box_len, || {
                    let seed = p.seed + sessions;
                    match churn_session(&mut client, &kernel(sessions), seed, &mut tracer, sessions)
                    {
                        Ok(us) => {
                            open_us.push(us);
                            sessions += 1;
                            true
                        }
                        Err(e) => {
                            checks.failed_op(e);
                            false
                        }
                    }
                });
                let (read_rate, failed) = read_rate(reads, barrier, |n| {
                    let key = kernel(n as u64 % sessions.max(1));
                    tracer
                        .scope("client.lookup", NO_PARENT, 0, || {
                            client.lookup(&key, None, None)
                        })
                        .is_ok_and(|found| found.is_some())
                });
                for _ in 0..failed {
                    checks.failed_op("lookup of a finished kernel missed".into());
                }
                ClientResult {
                    boxed,
                    read_rate,
                    reads: (reads * READ_BLOCKS) as u64,
                    checks,
                    open_us,
                    finished: sessions,
                    dropped: tracer.dropped,
                    spans: tracer.into_spans(),
                }
            },
        );
        checks.check(service.stop(), || "service shutdown failed".into());
        // After shutdown the database holds one record per finished kernel
        // (the measured ones and each client's warm-up).
        let expected = finished + n_clients as u64;
        let records = DatabaseLog::open(&service.db_path).map(|(db, _)| db.len() as u64);
        checks.check(records.as_ref().ok() == Some(&expected), || {
            format!("database holds {records:?} records for {expected} finished kernels")
        });
        if !open_us.is_empty() {
            run.extras
                .push(("open_p50_us", stats::median(&open_us), "us"));
        }
        run.extras.push(("clients", n_clients as f64, "count"));
        run
    }
}
