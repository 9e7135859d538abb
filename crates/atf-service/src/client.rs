//! Client side of the protocol: one generic [`Client`] over a [`Transport`]
//! that either crosses TCP ([`TcpTransport`]) or stays in-process
//! ([`Loopback`]). Both go through the same line encoding, so loopback
//! tests exercise the full protocol minus the socket.

use crate::manager::SessionManager;
use crate::proto::{codes, Request, Response};
use atf_core::spec::{AbortSpec, ParameterSpec, SearchSpec};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed.
    Io(std::io::Error),
    /// The service replied with something that is not a valid response (or
    /// closed the connection mid-exchange).
    Protocol(String),
    /// The service did not answer within the transport's read/write
    /// timeout: a hung (but not closed) peer. Retriable — the request may
    /// or may not have been applied, which is exactly what `request_id`
    /// deduplication exists for.
    Timeout(String),
    /// The service replied with a structured error.
    Remote {
        /// Machine-readable error class ([`crate::proto::codes`]).
        code: String,
        /// Human-readable message.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Timeout(m) => write!(f, "timed out: {m}"),
            ClientError::Remote { code, message } => {
                write!(f, "service error [{code}]: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Carries one request line to the service and brings the response line
/// back.
pub trait Transport {
    /// Sends `line` (no trailing newline) and returns the response line.
    fn round_trip(&mut self, line: &str) -> Result<String, ClientError>;
}

/// Default per-request socket read/write timeout: a hung (SIGSTOPped,
/// deadlocked, partitioned-but-not-reset) service must not block a client
/// forever.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A [`Transport`] over a TCP connection, with per-request read/write
/// timeouts so a hung peer surfaces as [`ClientError::Timeout`] instead of
/// blocking forever.
pub struct TcpTransport {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl TcpTransport {
    /// Connects to a service endpoint with the default I/O timeout
    /// ([`DEFAULT_IO_TIMEOUT`]).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with_timeout(addr, Some(DEFAULT_IO_TIMEOUT))
    }

    /// Connects with an explicit per-request read/write timeout (`None` =
    /// wait forever, the pre-hardening behavior).
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        io_timeout: Option<Duration>,
    ) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        let writer = stream.try_clone()?;
        Ok(TcpTransport {
            reader: BufReader::new(stream),
            writer,
        })
    }
}

/// Maps a socket error to [`ClientError`]: timeout kinds (`WouldBlock` on
/// unix, `TimedOut` on windows) become [`ClientError::Timeout`].
fn io_to_client_error(e: std::io::Error, during: &str) -> ClientError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            ClientError::Timeout(format!("no answer from the service while {during}"))
        }
        _ => ClientError::Io(e),
    }
}

impl Transport for TcpTransport {
    fn round_trip(&mut self, line: &str) -> Result<String, ClientError> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| io_to_client_error(e, "sending the request"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| io_to_client_error(e, "waiting for the response"))?;
        if n == 0 {
            return Err(ClientError::Protocol(
                "service closed the connection".to_string(),
            ));
        }
        Ok(reply)
    }
}

/// A self-healing [`Transport`] wrapper: on a transport-level failure
/// (connection error, protocol desync, timeout) it drops the connection,
/// sleeps a jittered exponential backoff, reconnects through its factory,
/// and resends the *same* request line — same bytes, same `request_id` —
/// up to a retry budget. Together with the service's dedup window this
/// gives exactly-once observable semantics over an at-least-once wire.
///
/// Structured service errors ([`ClientError::Remote`]) are not transport
/// failures and are never retried here — the transport returns them as
/// ordinary response lines. The one exception is load shedding: an
/// `overloaded` reply (see [`crate::proto::codes::OVERLOADED`]) keeps the
/// healthy connection, sleeps at least the service's `retry_after_ms` hint
/// (or the normal backoff, whichever is longer), and resends the same line.
/// The service never dedup-caches shed replies, so the retry re-enters
/// admission and succeeds as soon as capacity frees up. Once the retry
/// budget is spent the overloaded reply is returned as-is, surfacing as
/// [`ClientError::Remote`] to the caller.
pub struct ReconnectingTransport<T: Transport> {
    factory: Box<dyn FnMut() -> Result<T, ClientError> + Send>,
    inner: Option<T>,
    retries: u32,
    backoff: Duration,
    reconnects: u64,
    /// xorshift64 state for backoff jitter (decorrelates clients that fail
    /// together; any nonzero seed works).
    jitter: u64,
}

impl<T: Transport> ReconnectingTransport<T> {
    /// Wraps a connection factory. `retries` is how many times one request
    /// is re-sent after a transport failure; `backoff` is the base delay
    /// before the first retry, doubling each attempt with ±50% jitter.
    pub fn new(
        factory: impl FnMut() -> Result<T, ClientError> + Send + 'static,
        retries: u32,
        backoff: Duration,
    ) -> Self {
        ReconnectingTransport {
            factory: Box::new(factory),
            inner: None,
            retries,
            backoff,
            reconnects: 0,
            jitter: 0x5eed_0d1e_c0de_feed,
        }
    }

    /// How many times the transport re-established a connection (for tests
    /// and diagnostics).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn connected(&mut self) -> Result<&mut T, ClientError> {
        if self.inner.is_none() {
            self.inner = Some((self.factory)()?);
        }
        Ok(self.inner.as_mut().expect("just connected"))
    }

    /// Backoff before retry number `attempt` (1-based): `backoff * 2^(a-1)`
    /// scaled by a jitter factor in [0.5, 1.5).
    fn backoff_delay(&mut self, attempt: u32) -> Duration {
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let factor = 0.5 + (self.jitter >> 11) as f64 / (1u64 << 53) as f64;
        let base = self.backoff.as_secs_f64() * f64::from(2u32.saturating_pow(attempt - 1));
        Duration::from_secs_f64((base * factor).min(60.0))
    }
}

impl<T: Transport> Transport for ReconnectingTransport<T> {
    fn round_trip(&mut self, line: &str) -> Result<String, ClientError> {
        let mut attempt = 0u32;
        loop {
            let result = self
                .connected()
                .and_then(|transport| transport.round_trip(line));
            match result {
                Ok(reply) => match serde_json::from_str::<Response>(reply.trim()) {
                    Ok(resp) if resp.is_overloaded() && attempt < self.retries => {
                        // Load shedding, not a failure: the service
                        // answered and the connection is healthy, so keep
                        // it. Wait at least the service's retry-after hint
                        // (longer if the exponential backoff says so) and
                        // resend the same line — sheds are never
                        // dedup-cached, so the retry re-enters admission.
                        attempt += 1;
                        let backoff = self.backoff_delay(attempt);
                        let hinted = Duration::from_millis(resp.retry_after_ms.unwrap_or(0));
                        std::thread::sleep(backoff.max(hinted));
                    }
                    Ok(_) => return Ok(reply),
                    Err(_) => {
                        // A reply that is not a protocol response means the
                        // stream is corrupt or desynchronised (e.g. garbage
                        // bytes injected mid-stream): treat it like a
                        // connection failure so the request is retried on a
                        // fresh connection instead of surfacing a parse
                        // error.
                        self.inner = None;
                        if attempt >= self.retries {
                            return Err(ClientError::Protocol(
                                "unparseable response line".to_string(),
                            ));
                        }
                        attempt += 1;
                        self.reconnects += 1;
                        std::thread::sleep(self.backoff_delay(attempt));
                    }
                },
                Err(e) => {
                    // The connection is suspect after any failure: drop it
                    // so the next attempt starts from a fresh connect.
                    self.inner = None;
                    if attempt >= self.retries {
                        return Err(e);
                    }
                    attempt += 1;
                    self.reconnects += 1;
                    std::thread::sleep(self.backoff_delay(attempt));
                }
            }
        }
    }
}

impl ReconnectingTransport<TcpTransport> {
    /// A self-healing TCP transport for the given address, with the default
    /// per-request I/O timeout.
    pub fn tcp(addr: &str, retries: u32, backoff: Duration) -> Self {
        Self::tcp_with_timeout(addr, retries, backoff, Some(DEFAULT_IO_TIMEOUT))
    }

    /// Like [`tcp`](Self::tcp) with an explicit per-request I/O timeout.
    pub fn tcp_with_timeout(
        addr: &str,
        retries: u32,
        backoff: Duration,
        io_timeout: Option<Duration>,
    ) -> Self {
        let addr = addr.to_string();
        Self::new(
            move || TcpTransport::connect_with_timeout(addr.as_str(), io_timeout),
            retries,
            backoff,
        )
    }
}

/// An in-process [`Transport`] that hands lines straight to a
/// [`SessionManager`] — the service without the socket, for integration
/// tests and the CLI's `run` mode.
pub struct Loopback(pub Arc<SessionManager>);

impl Transport for Loopback {
    fn round_trip(&mut self, line: &str) -> Result<String, ClientError> {
        Ok(self.0.handle_line(line))
    }
}

/// Everything `open` needs: the database key plus the tuning specification.
#[derive(Clone, Debug, Default)]
pub struct SessionSpec {
    /// Kernel (program) name — database key.
    pub kernel: String,
    /// Device name — database key (service defaults to `local`).
    pub device: Option<String>,
    /// Workload label — database key (service defaults to empty).
    pub workload: Option<String>,
    /// Tenant this session is accounted against for admission control
    /// (service defaults to `default`). Purely an accounting label: it does
    /// not partition the database.
    pub tenant: Option<String>,
    /// Tuning parameters.
    pub parameters: Vec<ParameterSpec>,
    /// Search-technique selection (service defaults to ensemble).
    pub search: Option<SearchSpec>,
    /// Abort conditions (service defaults to `evaluations(S)`).
    pub abort: Option<AbortSpec>,
    /// Ask the service to resume this key's run journal, if it keeps one.
    pub resume: bool,
    /// Circuit-breaker threshold: abort the session after this many
    /// consecutive failed evaluations.
    pub breaker: Option<u32>,
    /// Maximum number of simultaneously pending configurations (default 1).
    /// Raise it so several clients can pull distinct configurations from
    /// this session concurrently (see [`Client::next_ticket`]).
    pub max_pending: Option<u64>,
}

impl SessionSpec {
    /// A spec for the given kernel; fill in the parameters before opening.
    pub fn new(kernel: &str) -> Self {
        SessionSpec {
            kernel: kernel.to_string(),
            ..Default::default()
        }
    }
}

/// A wire-level tuning configuration, as served by `next`.
pub type WireConfig = BTreeMap<String, u64>;

/// Outcome of a ticketed `next` request (see [`Client::next_ticket`]).
#[derive(Clone, Debug, PartialEq)]
pub enum WireHandout {
    /// A configuration to measure; echo the ticket in the report.
    Next(u64, WireConfig),
    /// Nothing available *right now* — every window slot is handed out to
    /// some client. Ask again shortly.
    Retry,
    /// The session has no more configurations.
    Done,
}

/// A process-unique idempotency key: pid + process-start nanos as a prefix,
/// plus a monotone counter. Unique across concurrent clients in one process
/// and across client processes sharing one service.
fn next_request_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    static PREFIX: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    let prefix = PREFIX.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        format!("{:x}.{:x}", std::process::id(), nanos)
    });
    format!("{prefix}.{}", COUNTER.fetch_add(1, Ordering::Relaxed))
}

/// A protocol client over any [`Transport`].
pub struct Client<T: Transport> {
    transport: T,
}

/// An in-process client (see [`Loopback`]).
pub type LoopbackClient = Client<Loopback>;

impl Client<TcpTransport> {
    /// Connects to a service endpoint over TCP.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Ok(Client::new(TcpTransport::connect(addr)?))
    }
}

impl Client<Loopback> {
    /// A client talking to an in-process [`SessionManager`].
    pub fn loopback(manager: Arc<SessionManager>) -> Self {
        Client::new(Loopback(manager))
    }
}

impl<T: Transport> Client<T> {
    /// A client over an already-established transport.
    pub fn new(transport: T) -> Self {
        Client { transport }
    }

    /// Sends one request; a failure response becomes
    /// [`ClientError::Remote`].
    ///
    /// State-changing commands (`open`, `next`, `report`, `finish`) are
    /// stamped with a fresh `request_id` unless the caller set one. The id
    /// goes into the serialized line *before* the transport sees it, so a
    /// retrying transport ([`ReconnectingTransport`]) resends the same id
    /// and the service's dedup window keeps retries exactly-once.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let stamped: Request;
        let request = match request.cmd.as_str() {
            "open" | "next" | "report" | "finish" if request.request_id.is_none() => {
                stamped = Request {
                    request_id: Some(next_request_id()),
                    ..request.clone()
                };
                &stamped
            }
            _ => request,
        };
        let line = serde_json::to_string(request)
            .map_err(|e| ClientError::Protocol(format!("could not encode request: {e}")))?;
        let reply = self.transport.round_trip(&line)?;
        let response: Response = serde_json::from_str(reply.trim())
            .map_err(|e| ClientError::Protocol(format!("bad response line: {e}")))?;
        if response.ok {
            Ok(response)
        } else {
            Err(ClientError::Remote {
                code: response.code.unwrap_or_else(|| "unknown".to_string()),
                message: response.error.unwrap_or_default(),
            })
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request(&Request::new("ping")).map(|_| ())
    }

    /// Opens a session; returns its id.
    pub fn open(&mut self, spec: &SessionSpec) -> Result<String, ClientError> {
        self.open_resumable(spec).map(|(session, _)| session)
    }

    /// Opens a session and also returns how many evaluations the service
    /// replayed from its run journal (0 unless the spec asked to resume).
    pub fn open_resumable(&mut self, spec: &SessionSpec) -> Result<(String, u64), ClientError> {
        let mut req = Request::new("open");
        req.kernel = Some(spec.kernel.clone());
        req.device = spec.device.clone();
        req.workload = spec.workload.clone();
        req.tenant = spec.tenant.clone();
        req.parameters = Some(spec.parameters.clone());
        req.search = spec.search.clone();
        req.abort = spec.abort.clone();
        req.resume = spec.resume.then_some(true);
        req.breaker = spec.breaker;
        req.max_pending = spec.max_pending;
        let resp = self.request(&req)?;
        let session = resp
            .session
            .ok_or_else(|| ClientError::Protocol("open reply without a session id".to_string()))?;
        Ok((session, resp.resumed.unwrap_or(0)))
    }

    /// The next configuration to measure, or `None` when the session is
    /// done.
    pub fn next(&mut self, session: &str) -> Result<Option<WireConfig>, ClientError> {
        let resp = self.request(&Request::new("next").with_session(session))?;
        if resp.done == Some(true) {
            Ok(None)
        } else {
            resp.config.map(Some).ok_or_else(|| {
                ClientError::Protocol("next reply with neither config nor done".to_string())
            })
        }
    }

    /// The next configuration with its ticket — the multi-client form of
    /// [`next`](Self::next). Several clients can hold distinct tickets of
    /// one session (opened with a `max_pending` window) at the same time;
    /// each reports under its own ticket via
    /// [`report_ticket`](Self::report_ticket).
    pub fn next_ticket(&mut self, session: &str) -> Result<WireHandout, ClientError> {
        let resp = self.request(&Request::new("next").with_session(session))?;
        if resp.done == Some(true) {
            return Ok(WireHandout::Done);
        }
        if resp.retry == Some(true) {
            return Ok(WireHandout::Retry);
        }
        match (resp.ticket, resp.config) {
            (Some(ticket), Some(config)) => Ok(WireHandout::Next(ticket, config)),
            _ => Err(ClientError::Protocol(
                "next reply with neither config nor done".to_string(),
            )),
        }
    }

    /// Reports the measured cost for the pending configuration (`None` =
    /// the measurement failed).
    pub fn report(&mut self, session: &str, cost: Option<f64>) -> Result<Response, ClientError> {
        let mut req = Request::new("report").with_session(session);
        req.cost = cost;
        req.valid = Some(cost.is_some());
        self.request(&req)
    }

    /// Reports the measured cost of one ticket (`None` = the measurement
    /// failed) — the multi-client form of [`report`](Self::report).
    pub fn report_ticket(
        &mut self,
        session: &str,
        ticket: u64,
        cost: Option<f64>,
    ) -> Result<Response, ClientError> {
        let mut req = Request::new("report").with_session(session);
        req.ticket = Some(ticket);
        req.cost = cost;
        req.valid = Some(cost.is_some());
        self.request(&req)
    }

    /// Reports a failed measurement with its taxonomy class, so the
    /// service's failure counters (and circuit breaker) see *why* it
    /// failed, not just that it did.
    pub fn report_failure(
        &mut self,
        session: &str,
        kind: atf_core::cost::FailureKind,
    ) -> Result<Response, ClientError> {
        let mut req = Request::new("report").with_session(session);
        req.valid = Some(false);
        req.failure = Some(kind.label().to_string());
        self.request(&req)
    }

    /// Live progress of a session.
    pub fn status(&mut self, session: &str) -> Result<Response, ClientError> {
        self.request(&Request::new("status").with_session(session))
    }

    /// The session's metrics snapshot: eval-latency histogram, failure
    /// taxonomy counts, window occupancy, and throughput.
    pub fn stats(
        &mut self,
        session: &str,
    ) -> Result<atf_core::metrics::MetricsSnapshot, ClientError> {
        let resp = self.request(&Request::new("stats").with_session(session))?;
        resp.stats
            .ok_or_else(|| ClientError::Protocol("stats reply without stats".to_string()))
    }

    /// Finishes a session: the service merges the result into its database
    /// and returns it.
    pub fn finish(&mut self, session: &str) -> Result<Response, ClientError> {
        self.request(&Request::new("finish").with_session(session))
    }

    /// The stored best result for a database key, if any (`Ok(None)` when
    /// the service has no record).
    pub fn lookup(
        &mut self,
        kernel: &str,
        device: Option<&str>,
        workload: Option<&str>,
    ) -> Result<Option<Response>, ClientError> {
        let mut req = Request::new("lookup");
        req.kernel = Some(kernel.to_string());
        req.device = device.map(str::to_string);
        req.workload = workload.map(str::to_string);
        match self.request(&req) {
            Ok(resp) => Ok(Some(resp)),
            Err(ClientError::Remote { code, .. }) if code == codes::NOT_FOUND => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Runs a whole tuning session: opens (honouring the spec's `resume` and
    /// `breaker` fields), drives next/report with the given cost function —
    /// `Err(kind)` reports a failed measurement with its taxonomy class —
    /// finishes, and returns the final result response. A tripped breaker
    /// surfaces as [`ClientError::Remote`] from the final `finish`.
    pub fn tune(
        &mut self,
        spec: &SessionSpec,
        mut cost: impl FnMut(&WireConfig) -> Result<f64, atf_core::cost::FailureKind>,
    ) -> Result<Response, ClientError> {
        let session = self.open(spec)?;
        while let Some(config) = self.next(&session)? {
            match cost(&config) {
                Ok(measured) => self.report(&session, Some(measured))?,
                Err(kind) => self.report_failure(&session, kind)?,
            };
        }
        self.finish(&session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atf_core::spec::IntervalSpec;

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

    #[test]
    fn loopback_tune_and_lookup() {
        let manager = Arc::new(SessionManager::in_memory());
        let mut client = Client::loopback(Arc::clone(&manager));
        client.ping().unwrap();

        let result = client
            .tune(&toy_spec("toy"), |cfg| Ok((cfg["X"] as f64 - 11.0).abs()))
            .unwrap();
        assert_eq!(result.best_config.as_ref().unwrap()["X"], 11);
        assert_eq!(result.best_cost, Some(0.0));
        assert_eq!(result.evaluations, Some(16));

        let hit = client.lookup("toy", None, None).unwrap().unwrap();
        assert_eq!(hit.best_config.unwrap()["X"], 11);
        assert_eq!(hit.source.as_deref(), Some("database"));
        assert!(client.lookup("other", None, None).unwrap().is_none());
    }

    #[test]
    fn remote_errors_surface_with_codes() {
        let manager = Arc::new(SessionManager::in_memory());
        let mut client = Client::loopback(manager);
        let err = client.next("s404").unwrap_err();
        match err {
            ClientError::Remote { code, .. } => assert_eq!(code, codes::UNKNOWN_SESSION),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn concurrent_clients_share_one_session() {
        // Three clients (threads) pull tickets from one window-3 session;
        // the merged result equals a serial exhaustive run.
        let manager = Arc::new(SessionManager::in_memory());
        let mut opener = Client::loopback(Arc::clone(&manager));
        let mut spec = toy_spec("shared");
        spec.max_pending = Some(3);
        let session = opener.open(&spec).unwrap();

        std::thread::scope(|scope| {
            for _ in 0..3 {
                let manager = Arc::clone(&manager);
                let session = session.clone();
                scope.spawn(move || {
                    let mut client = Client::loopback(manager);
                    loop {
                        match client.next_ticket(&session).unwrap() {
                            WireHandout::Next(ticket, config) => {
                                let cost = (config["X"] as f64 - 11.0).abs();
                                client.report_ticket(&session, ticket, Some(cost)).unwrap();
                            }
                            WireHandout::Retry => std::thread::yield_now(),
                            WireHandout::Done => break,
                        }
                    }
                });
            }
        });

        let result = opener.finish(&session).unwrap();
        assert_eq!(result.best_config.as_ref().unwrap()["X"], 11);
        assert_eq!(result.best_cost, Some(0.0));
        assert_eq!(result.evaluations, Some(16));
    }

    #[test]
    fn overloaded_reply_is_retried_after_the_hint() {
        use std::sync::atomic::AtomicU32;
        use std::time::Instant;

        struct Shed(Arc<AtomicU32>);
        impl Transport for Shed {
            fn round_trip(&mut self, _line: &str) -> Result<String, ClientError> {
                let n = self.0.fetch_add(1, Ordering::SeqCst);
                if n == 0 {
                    Ok(serde_json::to_string(&Response::overloaded("busy", 25)).unwrap())
                } else {
                    Ok(serde_json::to_string(&Response::ok()).unwrap())
                }
            }
        }

        let calls = Arc::new(AtomicU32::new(0));
        let factory_calls = Arc::clone(&calls);
        let mut transport = ReconnectingTransport::new(
            move || Ok(Shed(Arc::clone(&factory_calls))),
            3,
            Duration::from_millis(1),
        );
        let started = Instant::now();
        let reply = transport.round_trip("{\"cmd\":\"ping\"}").unwrap();
        let resp: Response = serde_json::from_str(reply.trim()).unwrap();
        assert!(resp.ok, "the retry after the shed must succeed");
        assert!(
            started.elapsed() >= Duration::from_millis(25),
            "the service's retry_after_ms hint must be honoured"
        );
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(
            transport.reconnects(),
            0,
            "a shed keeps the healthy connection — no reconnect"
        );
    }

    #[test]
    fn exhausted_retry_budget_surfaces_the_overloaded_reply() {
        struct AlwaysShed;
        impl Transport for AlwaysShed {
            fn round_trip(&mut self, _line: &str) -> Result<String, ClientError> {
                Ok(serde_json::to_string(&Response::overloaded("busy", 1)).unwrap())
            }
        }
        let transport = ReconnectingTransport::new(|| Ok(AlwaysShed), 2, Duration::from_millis(1));
        let mut client = Client::new(transport);
        match client.ping().unwrap_err() {
            ClientError::Remote { code, .. } => assert_eq!(code, codes::OVERLOADED),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn failed_measurements_are_reported() {
        let manager = Arc::new(SessionManager::in_memory());
        let mut client = Client::loopback(manager);
        // Every odd X fails to measure; the best must come from even X only.
        let result = client
            .tune(&toy_spec("half"), |cfg| {
                let x = cfg["X"];
                if x % 2 == 0 {
                    Ok((x as f64 - 9.0).abs())
                } else {
                    Err(atf_core::cost::FailureKind::RunCrash)
                }
            })
            .unwrap();
        assert_eq!(result.best_config.as_ref().unwrap()["X"], 8);
        assert_eq!(result.valid_evaluations, Some(8));
        assert_eq!(result.failed_evaluations, Some(8));
    }
}
