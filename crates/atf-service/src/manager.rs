//! The session manager: all live [`TuningSession`]s keyed by id, plus the
//! service-level [`TuningDatabase`] cache. Shared by every connection
//! thread (and by the in-process loopback client).
//!
//! Sessions live in N lock-striped shards (session-id hash affinity).
//! Nothing on the request path rewrites history: a session journal is one
//! file that grows by one line per report, fsynced in batches of
//! [`JournalWriter::SYNC_EVERY`](atf_core::journal::JournalWriter::SYNC_EVERY),
//! and the database is an append-only record log, fsynced per finished
//! record and compacted only by [`SessionManager::persist`] at shutdown —
//! see [`atf_core::db::DatabaseLog`]. Tenant accounting stays behind one
//! dedicated global lock so admission quotas hold exactly.

use crate::proto::{codes, config_to_wire, Request, Response};
use atf_core::cost::{CostError, FailureKind};
use atf_core::db::{DatabaseLog, TuningDatabase};
use atf_core::metrics::{Counter, MetricsRegistry};
use atf_core::session::{Handout, TuningSession};
use atf_core::spec;
use atf_core::status::TuningStatus;
use atf_core::trace::{NullSink, TraceEvent, TraceSink};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many recent `request_id`s (and their responses) each dedup window
/// remembers. A retry that arrives after this many *other* id-carrying
/// requests have landed is no longer recognized — with the client's bounded
/// retry loop the practical distance between a request and its retries is a
/// handful, so 64 leaves a wide margin.
pub const DEDUP_WINDOW: usize = 64;

/// Tenant that `open`s without a `tenant` field are accounted under.
pub const DEFAULT_TENANT: &str = "default";

/// Admission-control limits. Every limit is opt-in (`None` = unlimited),
/// so a manager with the default config behaves exactly like the
/// pre-admission service.
#[derive(Clone, Debug)]
pub struct AdmissionConfig {
    /// Global cap on live sessions across all tenants.
    pub max_sessions: Option<usize>,
    /// Per-tenant cap on live sessions.
    pub max_sessions_per_tenant: Option<usize>,
    /// Per-tenant cap on in-flight (handed-out, unreported) evaluations
    /// summed over the tenant's sessions. A `next` beyond it is shed.
    pub max_inflight_per_tenant: Option<usize>,
    /// Retry-after hint attached to every shed (`overloaded`) response.
    pub retry_after: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_sessions: None,
            max_sessions_per_tenant: None,
            max_inflight_per_tenant: None,
            retry_after: Duration::from_millis(500),
        }
    }
}

/// Per-tenant in-use capacity, guarded by the manager's tenants lock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantUsage {
    /// Live sessions owned by the tenant.
    pub sessions: usize,
    /// Handed-out, unreported evaluations across the tenant's sessions.
    pub inflight: usize,
}

/// Exactly-once memory: the responses of the most recent id-carrying
/// requests, so a retry of a request whose response was lost in transit is
/// answered from memory instead of executed twice.
#[derive(Default)]
struct DedupWindow {
    entries: VecDeque<(String, Response)>,
}

impl DedupWindow {
    fn get(&self, id: &str) -> Option<Response> {
        self.entries
            .iter()
            .find(|(k, _)| k == id)
            .map(|(_, resp)| resp.clone())
    }

    fn insert(&mut self, id: &str, response: &Response) {
        if self.entries.iter().any(|(k, _)| k == id) {
            return;
        }
        if self.entries.len() >= DEDUP_WINDOW {
            self.entries.pop_front();
        }
        self.entries.push_back((id.to_string(), response.clone()));
    }
}

/// Session-manager settings.
#[derive(Clone, Debug)]
pub struct ManagerConfig {
    /// Path the tuning database is loaded from and persisted to (`None` =
    /// in-memory only).
    pub db_path: Option<PathBuf>,
    /// Sessions idle longer than this are expired (their best-so-far is
    /// merged into the database first).
    pub idle_timeout: Duration,
    /// Directory for per-session run journals (`None` = no journaling).
    /// With a journal directory, `open` with `resume: true` continues a
    /// crashed run from its journal.
    pub journal_dir: Option<PathBuf>,
    /// Deadline for a handed-out configuration: when a client holds a
    /// pending configuration longer than this, the service reports it as a
    /// timeout failure and moves on (`None` = wait forever).
    pub eval_deadline: Option<Duration>,
    /// Admission-control limits (default: everything unlimited).
    pub admission: AdmissionConfig,
    /// Number of lock-striped session shards (`None` = one per available
    /// CPU). A session id hashes to a fixed shard, so operations on
    /// different sessions mostly take different locks; `1` reproduces the
    /// old single-lock manager exactly.
    pub shards: Option<usize>,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            db_path: None,
            idle_timeout: Duration::from_secs(15 * 60),
            journal_dir: None,
            eval_deadline: None,
            admission: AdmissionConfig::default(),
            shards: None,
        }
    }
}

struct ManagedSession {
    session: TuningSession<f64>,
    kernel: String,
    device: String,
    workload: String,
    /// Tenant the session's capacity is accounted under.
    tenant: String,
    last_touch: Instant,
    /// When each pending configuration was handed out, by ticket. Entries
    /// past the evaluation deadline are forfeited as timeout failures.
    pending_since: HashMap<u64, Instant>,
    /// Responses of recent id-carrying `next`/`report` requests, so retries
    /// after a lost ACK are answered idempotently.
    dedup: DedupWindow,
}

/// One line of the service's periodic `stats.ndjson` telemetry file.
#[derive(Serialize, Deserialize)]
struct StatsLine {
    session: String,
    kernel: String,
    stats: atf_core::metrics::MetricsSnapshot,
}

/// Renders nonzero failure counts as the wire map.
fn failures_to_wire(status: &TuningStatus) -> Option<BTreeMap<String, u64>> {
    let counts = status.failure_counts();
    if counts.is_empty() {
        return None;
    }
    Some(
        counts
            .into_iter()
            .map(|(kind, n)| (kind.label().to_string(), n))
            .collect(),
    )
}

/// Journal file name for a database key: sanitized so arbitrary kernel
/// names cannot escape the journal directory.
fn journal_file_name(kernel: &str, device: &str, workload: &str) -> String {
    let mut name = String::new();
    for part in [kernel, device, workload] {
        if !name.is_empty() {
            name.push('-');
        }
        name.extend(
            part.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }),
        );
    }
    name.push_str(".ndjson");
    name
}

/// All live sessions plus the result database. Every public method is
/// thread-safe; connection threads share one manager behind an `Arc`.
///
/// Sessions are lock-striped: a session id hashes (FNV-1a) to one of N
/// shards, each its own `Mutex<HashMap>`, so operations on different
/// sessions mostly take different locks. Tenant accounting stays global
/// behind the dedicated `tenants` lock — admission quotas are whole-service
/// invariants, and a per-shard split would admit up to N-1 sessions past a
/// cap during concurrent opens.
pub struct SessionManager {
    /// Live sessions, striped by session-id hash. Sweeps (idle expiry,
    /// stats, drain syncing) iterate shard by shard, never holding
    /// more than one shard lock at a time — no stop-the-world phase.
    shards: Vec<Mutex<HashMap<String, ManagedSession>>>,
    db: Mutex<TuningDatabase>,
    /// Append handle and compaction driver of the on-disk record log
    /// (`Some` iff `config.db_path` is). Lock order: *before* `db` —
    /// writers serialize on the log while `lookup` readers only touch
    /// `db`, and a compaction snapshots the index with only a brief `db`
    /// acquisition.
    db_log: Mutex<Option<DatabaseLog>>,
    config: ManagerConfig,
    next_id: AtomicU64,
    /// Manager-level dedup for `open`: a duplicated open must not create a
    /// twin session.
    open_dedup: Mutex<DedupWindow>,
    /// Manager-level dedup for `finish`: the session is gone after the
    /// first finish, so a retry must be answered from memory rather than
    /// with `unknown_session`.
    finish_dedup: Mutex<DedupWindow>,
    /// Whether the last stats-snapshot sweep failed: gates log-once
    /// reporting in [`SessionManager::sweep_stats`].
    stats_write_failed: AtomicBool,
    /// Per-tenant in-use capacity — the dedicated global accounting lock.
    /// Lock order: always *after* a shard lock (never take a shard lock
    /// while holding this).
    tenants: Mutex<HashMap<String, TenantUsage>>,
    /// Service-level metrics (admission, shedding, queue depths) — shared
    /// with the TCP server so its connection gauges land in the same
    /// snapshot, and served by a session-less `stats` request.
    metrics: Arc<MetricsRegistry>,
    /// Sink for `admission`/`shed`/`drain` and space-generation events.
    trace: Arc<dyn TraceSink>,
}

impl SessionManager {
    /// A manager with the given settings; loads the database from
    /// `config.db_path` when the file exists (record log + checkpoint).
    pub fn new(config: ManagerConfig) -> std::io::Result<Self> {
        let (db, db_log) = match &config.db_path {
            Some(p) => {
                let (db, log) = DatabaseLog::open(p)?;
                (db, Some(log))
            }
            None => (TuningDatabase::new(), None),
        };
        let shard_count = config
            .shards
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            })
            .max(1);
        let metrics = Arc::new(MetricsRegistry::new());
        metrics.set_shard_count(shard_count);
        Ok(SessionManager {
            shards: (0..shard_count)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            db: Mutex::new(db),
            db_log: Mutex::new(db_log),
            config,
            next_id: AtomicU64::new(1),
            open_dedup: Mutex::new(DedupWindow::default()),
            finish_dedup: Mutex::new(DedupWindow::default()),
            stats_write_failed: AtomicBool::new(false),
            tenants: Mutex::new(HashMap::new()),
            metrics,
            trace: Arc::new(NullSink),
        })
    }

    /// Number of session shards (1 = the old single-lock layout).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a session id lives in: FNV-1a of the id modulo the shard
    /// count. Stable for a given id, so every op on a session takes the
    /// same stripe.
    fn shard_of(&self, id: &str) -> usize {
        (atf_core::wal::fnv1a64(None, id.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// A manager with default settings and no persistence.
    pub fn in_memory() -> Self {
        Self::new(ManagerConfig::default()).expect("in-memory manager cannot fail")
    }

    /// Routes `admission`/`shed`/`drain` trace events, and each `open`'s
    /// `space_chunk`/`space_gen` events, to `sink`
    /// (builder-style; default is the no-op sink).
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = sink;
        self
    }

    /// The service-level metrics registry: admission and shed counters,
    /// session/tenant gauges, and (when a server is attached) connection
    /// and reactor gauges.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Per-tenant in-use capacity, for tests and diagnostics.
    pub fn tenant_usage(&self) -> BTreeMap<String, TenantUsage> {
        self.tenants
            .lock()
            .iter()
            .map(|(t, u)| (t.clone(), *u))
            .collect()
    }

    /// The tenant an `open` accounts under: its `tenant` field, or the
    /// default tenant when absent or empty.
    fn tenant_of(request: &Request) -> String {
        request
            .tenant
            .clone()
            .filter(|t| !t.is_empty())
            .unwrap_or_else(|| DEFAULT_TENANT.to_string())
    }

    /// Updates the session/tenant gauges from the tenants table (callers
    /// hold the tenants lock and pass it in).
    fn refresh_tenant_gauges(&self, tenants: &HashMap<String, TenantUsage>) {
        let sessions: usize = tenants.values().map(|u| u.sessions).sum();
        let active = tenants.values().filter(|u| u.sessions > 0).count();
        self.metrics.sessions_active.set(sessions as u64);
        self.metrics.tenants_active.set(active as u64);
    }

    /// Builds (and counts in `counter`, and traces) one shed response.
    fn shed(&self, tenant: &str, reason: &str, counter: &Counter) -> Response {
        let retry_after_ms =
            u64::try_from(self.config.admission.retry_after.as_millis()).unwrap_or(u64::MAX);
        counter.inc();
        self.trace
            .emit(&TraceEvent::shed(tenant, reason, retry_after_ms));
        Response::overloaded(reason, retry_after_ms)
    }

    /// The answer to a connection arriving while every server slot is
    /// taken: a shed like any other, counted in `rejected_connections`.
    pub(crate) fn shed_connection(&self) -> Response {
        self.shed(
            "connection",
            "connection hard cap: every slot taken",
            &self.metrics.rejected_connections,
        )
    }

    /// Reserves one session slot for `tenant`, or returns the shed
    /// response when a quota is exhausted. A successful reservation is
    /// held until the session leaves (finish, idle expiry) — error paths
    /// between admission and session insertion must release it.
    fn admit_session(&self, tenant: &str) -> Result<(), Box<Response>> {
        let a = self.config.admission.clone();
        let mut tenants = self.tenants.lock();
        if let Some(cap) = a.max_sessions {
            let live: usize = tenants.values().map(|u| u.sessions).sum();
            if live >= cap {
                drop(tenants);
                return Err(Box::new(self.shed(
                    tenant,
                    &format!("session quota exhausted ({live}/{cap} sessions live)"),
                    &self.metrics.shed_opens,
                )));
            }
        }
        let usage = tenants.entry(tenant.to_string()).or_default();
        if let Some(cap) = a.max_sessions_per_tenant {
            if usage.sessions >= cap {
                let live = usage.sessions;
                drop(tenants);
                return Err(Box::new(self.shed(
                    tenant,
                    &format!("tenant session quota exhausted ({live}/{cap} sessions live)"),
                    &self.metrics.shed_opens,
                )));
            }
        }
        usage.sessions += 1;
        let tenant_sessions = usage.sessions as u64;
        self.refresh_tenant_gauges(&tenants);
        drop(tenants);
        self.metrics.admitted_sessions.inc();
        self.trace
            .emit(&TraceEvent::admission(tenant, tenant_sessions));
        Ok(())
    }

    /// Returns a session's capacity to the pool: its slot plus any
    /// still-pending in-flight reservations it held.
    fn release_session(&self, tenant: &str, pending: usize) {
        let mut tenants = self.tenants.lock();
        if let Some(usage) = tenants.get_mut(tenant) {
            usage.sessions = usage.sessions.saturating_sub(1);
            usage.inflight = usage.inflight.saturating_sub(pending);
            if *usage == TenantUsage::default() {
                tenants.remove(tenant);
            }
        }
        self.refresh_tenant_gauges(&tenants);
    }

    /// Reserves one in-flight evaluation for `tenant`; `false` when the
    /// tenant's in-flight limit is reached.
    fn try_acquire_inflight(&self, tenant: &str) -> bool {
        let cap = self.config.admission.max_inflight_per_tenant;
        let mut tenants = self.tenants.lock();
        let usage = tenants.entry(tenant.to_string()).or_default();
        if let Some(cap) = cap {
            if usage.inflight >= cap {
                return false;
            }
        }
        usage.inflight += 1;
        true
    }

    /// Returns `n` in-flight reservations to the pool (reported,
    /// forfeited, or expired evaluations).
    fn release_inflight(&self, tenant: &str, n: usize) {
        let mut tenants = self.tenants.lock();
        if let Some(usage) = tenants.get_mut(tenant) {
            usage.inflight = usage.inflight.saturating_sub(n);
            if *usage == TenantUsage::default() {
                tenants.remove(tenant);
            }
        }
    }

    /// Handles one raw request line, returning the raw response line
    /// (without the trailing newline). This is the single entry point used
    /// by both the TCP server and the loopback client, so the full protocol
    /// encoding is exercised either way.
    pub fn handle_line(&self, line: &str) -> String {
        let response = match serde_json::from_str::<Request>(line) {
            Ok(request) => self.handle(&request),
            Err(e) => Response::error(codes::PARSE, e),
        };
        serde_json::to_string(&response)
            .unwrap_or_else(|_| "{\"ok\":false,\"code\":\"internal\"}".to_string())
    }

    /// Handles one parsed request.
    pub fn handle(&self, request: &Request) -> Response {
        match request.cmd.as_str() {
            "ping" => Response::ok(),
            "open" => self.open(request),
            "next" => self.next(request),
            "report" => self.report(request),
            "status" => self.status(request),
            "stats" => self.stats(request),
            "finish" => self.finish(request),
            "lookup" => self.lookup(request),
            other => Response::error(codes::UNKNOWN_CMD, format!("unknown cmd `{other}`")),
        }
    }

    fn open(&self, request: &Request) -> Response {
        // A retried `open` whose first response was lost must not create a
        // twin session tuning the same space.
        if let Some(rid) = &request.request_id {
            if let Some(cached) = self.open_dedup.lock().get(rid) {
                return cached;
            }
        }
        let response = self.open_inner(request);
        // Shed responses are deliberately *not* remembered: a shed has no
        // side effects to protect from replay, and a retry of the same
        // request id must re-run admission — capacity may have freed up.
        if let Some(rid) = &request.request_id {
            if !response.is_overloaded() {
                self.open_dedup.lock().insert(rid, &response);
            }
        }
        response
    }

    fn open_inner(&self, request: &Request) -> Response {
        let Some(parameters) = &request.parameters else {
            return Response::error(codes::BAD_REQUEST, "open: missing `parameters`");
        };
        let Some(kernel) = request.kernel.clone().filter(|k| !k.is_empty()) else {
            return Response::error(codes::BAD_REQUEST, "open: missing `kernel`");
        };
        if let Err(e) = spec::build_params(parameters) {
            return Response::error(codes::SPEC, e);
        }
        let technique = match spec::build_technique(&request.search.clone().unwrap_or_default()) {
            Ok(t) => t,
            Err(e) => return Response::error(codes::SPEC, e),
        };
        // Admission happens after the cheap spec validation (a malformed
        // open must not consume quota) but before the expensive space
        // generation (a shed open must not pay for it either).
        let tenant = Self::tenant_of(request);
        if let Err(shed) = self.admit_session(&tenant) {
            return *shed;
        }
        let admitted = self.open_admitted(request, parameters, kernel, technique, tenant.clone());
        if !admitted.ok {
            // The spec passed validation but the session never came to
            // life (space build, journal I/O): the slot goes back.
            self.release_session(&tenant, 0);
        }
        admitted
    }

    /// The post-admission tail of `open`: builds the space (the same
    /// spec → space step as `atf-tune run`), the session, and its journal,
    /// then inserts the session under a fresh id.
    fn open_admitted(
        &self,
        request: &Request,
        parameters: &[spec::ParameterSpec],
        kernel: String,
        technique: Box<dyn atf_core::search::SearchTechnique>,
        tenant: String,
    ) -> Response {
        let (space, space_build) =
            match atf_core::spacegen::space_from_spec(parameters, self.trace.as_ref()) {
                Ok(built) => built,
                Err(e) => return Response::error(codes::SPEC, e),
            };
        let space_size = space.len();
        let mut session = match TuningSession::new(space, technique) {
            Ok(s) => s,
            Err(e) => return Response::error(codes::TUNING, e),
        };
        space_build.record(session.metrics());
        if let Some(a) = spec::build_abort(&request.abort.clone().unwrap_or_default()) {
            session = session.abort_condition(a);
        }
        if let Some(n) = request.breaker {
            session = session.circuit_breaker(n);
        }
        if let Some(w) = request.max_pending {
            session = session.max_pending(w as usize);
        }
        let device = request
            .device
            .clone()
            .unwrap_or_else(|| "local".to_string());
        let workload = request.workload.clone().unwrap_or_default();

        // Journaling: attach a write-ahead journal keyed by
        // (kernel, device, workload); `resume: true` replays an existing
        // one so a crashed service or client continues where it stopped.
        let mut resumed = None;
        if let Some(dir) = &self.config.journal_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                return Response::error(
                    codes::TUNING,
                    format!("cannot create journal directory {dir:?}: {e}"),
                );
            }
            let path = dir.join(journal_file_name(&kernel, &device, &workload));
            if request.resume.unwrap_or(false) && path.exists() {
                match session.resume_from_journal(&path) {
                    Ok(n) => resumed = Some(n),
                    Err(e) => return Response::error(codes::TUNING, e),
                }
            } else {
                session = match session.journal_to(&path) {
                    Ok(s) => s,
                    Err(e) => return Response::error(codes::TUNING, e),
                };
            }
        }

        let id = format!("s{}", self.next_id.fetch_add(1, Ordering::Relaxed));
        let idx = self.shard_of(&id);
        {
            let mut shard = self.shards[idx].lock();
            shard.insert(
                id.clone(),
                ManagedSession {
                    session,
                    kernel,
                    device,
                    workload,
                    tenant,
                    last_touch: Instant::now(),
                    pending_since: HashMap::new(),
                    dedup: DedupWindow::default(),
                },
            );
            self.metrics.set_shard_sessions(idx, shard.len() as u64);
        }
        let mut resp = Response::ok();
        resp.session = Some(id);
        resp.space_size = Some(space_size.to_string());
        resp.resumed = resumed;
        resp
    }

    fn next(&self, request: &Request) -> Response {
        let eval_deadline = self.config.eval_deadline;
        let request_id = request.request_id.clone();
        self.with_session(request, |managed| {
            // A retried `next` whose response was lost gets the *same*
            // ticket and configuration back — not a second handout.
            if let Some(rid) = &request_id {
                if let Some(cached) = managed.dedup.get(rid) {
                    return cached;
                }
            }
            // A configuration held past the evaluation deadline is a client
            // that hung or died mid-measurement: forfeit its ticket as a
            // timeout failure and move on, rather than keeping a window
            // slot occupied forever. Each ticket's deadline runs from its
            // own handout.
            if let Some(deadline) = eval_deadline {
                let overdue: Vec<u64> = managed
                    .pending_since
                    .iter()
                    .filter(|(_, since)| since.elapsed() > deadline)
                    .map(|(&t, _)| t)
                    .collect();
                for ticket in overdue {
                    let _ = managed
                        .session
                        .report_ticket(ticket, Err(CostError::Timeout { limit: deadline }));
                    if managed.pending_since.remove(&ticket).is_some() {
                        // Forfeited capacity goes back to the pool.
                        self.release_inflight(&managed.tenant, 1);
                    }
                }
            }
            // Tenant in-flight cap: the reservation is taken before the
            // handout and returned when nothing was actually handed out.
            // A shed here is never remembered in the dedup window — a
            // retry must re-check, capacity may have freed up.
            if !self.try_acquire_inflight(&managed.tenant) {
                return self.shed(
                    &managed.tenant,
                    "tenant in-flight evaluation limit reached",
                    &self.metrics.shed_requests,
                );
            }
            let mut resp = Response::ok();
            match managed.session.next_ticket() {
                Handout::Next(ticket, config) => {
                    managed.pending_since.insert(ticket, Instant::now());
                    resp.done = Some(false);
                    resp.ticket = Some(ticket);
                    resp.config = Some(config_to_wire(&config));
                }
                // Every window slot is handed out to some client: not done,
                // but nothing to serve until a report lands.
                Handout::Wait => {
                    self.release_inflight(&managed.tenant, 1);
                    resp.done = Some(false);
                    resp.retry = Some(true);
                }
                Handout::Done => {
                    self.release_inflight(&managed.tenant, 1);
                    resp.done = Some(true);
                }
            }
            if let Some(rid) = &request_id {
                managed.dedup.insert(rid, &resp);
            }
            resp
        })
    }

    fn report(&self, request: &Request) -> Response {
        let cost = request.cost;
        let valid = request.valid.unwrap_or(cost.is_some());
        let failure_kind = match request.failure.as_deref() {
            None => None,
            Some(label) => match FailureKind::from_label(label) {
                Some(kind) => Some(kind),
                None => {
                    return Response::error(
                        codes::BAD_REQUEST,
                        format!("report: unknown failure kind `{label}`"),
                    )
                }
            },
        };
        let wire_ticket = request.ticket;
        let request_id = request.request_id.clone();
        self.with_session(request, |managed| {
            // A report retried after a lost ACK must not be applied twice:
            // the remembered response (including its evaluation count) is
            // replayed instead.
            if let Some(rid) = &request_id {
                if let Some(cached) = managed.dedup.get(rid) {
                    return cached;
                }
            }
            let resp = (|| {
                let outcome = match (valid, cost) {
                    (true, Some(c)) => Ok(c),
                    // Claimed valid but no cost: the measurement is unusable.
                    (true, None) => Err(CostError::MeasurementFailed(
                        "report: `valid` without `cost`".into(),
                    )),
                    (false, _) => Err(CostError::from_kind(
                        failure_kind.unwrap_or(FailureKind::RunCrash),
                    )),
                };
                // Legacy clients omit the ticket: their report applies to the
                // oldest unreported configuration, which is the only one a
                // serial client can be measuring.
                let Some(ticket) = wire_ticket.or_else(|| managed.session.oldest_in_flight())
                else {
                    return Response::error(
                        codes::TUNING,
                        atf_core::tuner::TuningError::NoPendingConfiguration,
                    );
                };
                match managed.session.report_ticket(ticket, outcome) {
                    Ok(()) => {
                        if managed.pending_since.remove(&ticket).is_some() {
                            self.release_inflight(&managed.tenant, 1);
                        }
                        let mut resp = Response::ok();
                        resp.evaluations = Some(managed.session.status().evaluations());
                        resp.best_cost = managed.session.best_scalar_cost();
                        resp
                    }
                    Err(e) => Response::error(codes::TUNING, e),
                }
            })();
            if let Some(rid) = &request_id {
                managed.dedup.insert(rid, &resp);
            }
            resp
        })
    }

    fn status(&self, request: &Request) -> Response {
        self.with_session(request, |managed| {
            let status = managed.session.status();
            let mut resp = Response::ok();
            resp.evaluations = Some(status.evaluations());
            resp.valid_evaluations = Some(status.valid_evaluations());
            resp.failed_evaluations = Some(status.failed_evaluations());
            resp.space_size = Some(status.space_size().to_string());
            resp.improvements = Some(status.improvements().len() as u64);
            resp.best_cost = managed.session.best_scalar_cost();
            resp.best_config = managed
                .session
                .best()
                .map(|(config, _)| config_to_wire(config));
            resp.done = Some(managed.session.is_done());
            resp.failures = failures_to_wire(status);
            resp
        })
    }

    fn stats(&self, request: &Request) -> Response {
        // `stats` without a session is the service-level view: admission
        // and shed counters, session/tenant gauges, connection gauges.
        if request.session.is_none() {
            let mut resp = Response::ok();
            resp.stats = Some(self.metrics.snapshot());
            return resp;
        }
        self.with_session(request, |managed| {
            let mut resp = Response::ok();
            resp.stats = Some(managed.session.metrics().snapshot());
            resp.evaluations = Some(managed.session.status().evaluations());
            resp
        })
    }

    fn finish(&self, request: &Request) -> Response {
        // The first `finish` consumes the session; a retry after a lost
        // response would otherwise see `unknown_session` and lose the
        // final result. Answer it from the dedup window instead.
        if let Some(rid) = &request.request_id {
            if let Some(cached) = self.finish_dedup.lock().get(rid) {
                return cached;
            }
        }
        let response = self.finish_inner(request);
        if let Some(rid) = &request.request_id {
            self.finish_dedup.lock().insert(rid, &response);
        }
        response
    }

    fn finish_inner(&self, request: &Request) -> Response {
        let Some(id) = &request.session else {
            return Response::error(codes::BAD_REQUEST, "finish: missing `session`");
        };
        let idx = self.shard_of(id);
        let removed = {
            let mut shard = self.shards[idx].lock();
            let removed = shard.remove(id);
            if removed.is_some() {
                self.metrics.set_shard_sessions(idx, shard.len() as u64);
            }
            removed
        };
        let Some(managed) = removed else {
            return Response::error(codes::UNKNOWN_SESSION, format!("no session `{id}`"));
        };
        // The finished session's slot and any still-pending in-flight
        // reservations return to the pool.
        self.release_session(&managed.tenant, managed.pending_since.len());
        let failures = failures_to_wire(managed.session.status());
        match managed.session.finish() {
            Ok(result) => {
                self.merge_result(&managed.kernel, &managed.device, &managed.workload, &result);
                let mut resp = Response::ok();
                resp.best_config = Some(config_to_wire(&result.best_config));
                resp.best_cost = Some(result.best_cost);
                resp.evaluations = Some(result.evaluations);
                resp.valid_evaluations = Some(result.valid_evaluations);
                resp.failed_evaluations = Some(result.failed_evaluations);
                resp.space_size = Some(result.space_size.to_string());
                resp.improvements = Some(result.improvements.len() as u64);
                resp.failures = failures;
                resp
            }
            Err(e) => {
                let mut resp = Response::error(codes::TUNING, e);
                resp.failures = failures;
                resp
            }
        }
    }

    fn lookup(&self, request: &Request) -> Response {
        let Some(kernel) = &request.kernel else {
            return Response::error(codes::BAD_REQUEST, "lookup: missing `kernel`");
        };
        let device = request.device.as_deref().unwrap_or("local");
        let workload = request.workload.as_deref().unwrap_or("");
        let db = self.db.lock();
        match db.lookup(kernel, device, workload) {
            Some(record) => {
                let mut resp = Response::ok();
                resp.best_config = Some(config_to_wire(&record.config()));
                resp.best_cost = Some(record.cost);
                resp.evaluations = Some(record.evaluations);
                resp.space_size = Some(record.space_size.clone());
                resp.source = Some("database".to_string());
                resp
            }
            None => Response::error(
                codes::NOT_FOUND,
                format!("no record for ({kernel}, {device}, {workload})"),
            ),
        }
    }

    /// Merges a finished result into the database (monotone: an existing
    /// cheaper record wins) and, with a path configured, appends the
    /// accepted record to the on-disk log — O(record) bytes per store, not
    /// a whole-file rewrite, and nothing more: the log compacts only at
    /// shutdown ([`persist`](Self::persist)).
    fn merge_result(
        &self,
        kernel: &str,
        device: &str,
        workload: &str,
        result: &atf_core::tuner::TuningResult<f64>,
    ) {
        // The log lock (when persisting) comes first: appends serialize on
        // it while the db index lock is held only for the store itself.
        let mut log_guard = if self.config.db_path.is_some() {
            Some(self.db_log.lock())
        } else {
            None
        };
        let record = {
            let mut db = self.db.lock();
            let stored = db.store(
                kernel,
                device,
                workload,
                &result.best_config,
                result.best_cost,
                result.evaluations,
                result.space_size,
            );
            if stored && log_guard.is_some() {
                db.record(kernel, device, workload)
            } else {
                None
            }
        };
        if let (Some(log), Some(record)) = (log_guard.as_mut().and_then(|g| g.as_mut()), record) {
            match log.append(&record) {
                Ok(()) => self.metrics.db_appends.inc(),
                Err(e) => eprintln!("atf-service: could not append to database log: {e}"),
            }
        }
    }

    /// One batched sweeper pass over the shards: a *single* lock
    /// acquisition per shard collects both the sessions idle past the
    /// timeout (removed from the table) and one stats snapshot per
    /// remaining live session. Snapshots are atomic-counter reads — cheap
    /// enough to take under a shard lock — but serialization, file I/O,
    /// and database merging all happen with no shard lock held. Shards
    /// are visited one at a time, so sessions elsewhere keep serving
    /// mid-sweep (they land in this batch or the next).
    fn sweep_shards(
        &self,
        expire: bool,
        stats: bool,
    ) -> (Vec<(String, ManagedSession)>, Vec<StatsLine>) {
        let timeout = self.config.idle_timeout;
        let mut expired: Vec<(String, ManagedSession)> = Vec::new();
        let mut lines: Vec<StatsLine> = Vec::new();
        for (idx, shard) in self.shards.iter().enumerate() {
            let mut sessions = shard.lock();
            if expire {
                let ids: Vec<String> = sessions
                    .iter()
                    .filter(|(_, m)| m.last_touch.elapsed() > timeout)
                    .map(|(id, _)| id.clone())
                    .collect();
                if !ids.is_empty() {
                    expired.extend(
                        ids.into_iter()
                            .filter_map(|id| sessions.remove(&id).map(|m| (id, m))),
                    );
                    self.metrics.set_shard_sessions(idx, sessions.len() as u64);
                }
            }
            if stats {
                // After expiry above, so a just-expired session leaves no
                // trailing stats line.
                lines.extend(sessions.iter().map(|(id, managed)| StatsLine {
                    session: id.clone(),
                    kernel: managed.kernel.clone(),
                    stats: managed.session.metrics().snapshot(),
                }));
            }
        }
        (expired, lines)
    }

    /// Finishes sessions removed by a sweep: returns their admission
    /// capacity and merges each best-so-far into the database. Runs with
    /// no shard lock held (takes the db lock, possibly appends to disk).
    fn finish_expired(&self, expired: Vec<(String, ManagedSession)>) -> usize {
        let count = expired.len();
        for (id, managed) in expired {
            let ManagedSession {
                session,
                kernel,
                device,
                workload,
                tenant,
                pending_since,
                ..
            } = managed;
            // Expired capacity returns to the pool before the (possibly
            // slow) database merge.
            self.release_session(&tenant, pending_since.len());
            match session.finish() {
                Ok(result) => {
                    self.merge_result(&kernel, &device, &workload, &result);
                    eprintln!(
                        "atf-service: expired idle session `{id}` (kernel `{kernel}`); \
                         merged best cost {} ({} evaluations) into the database",
                        result.best_cost, result.evaluations
                    );
                }
                Err(e) => {
                    eprintln!(
                        "atf-service: expired idle session `{id}` (kernel `{kernel}`); \
                         nothing to merge: {e}"
                    );
                }
            }
        }
        count
    }

    /// Serializes and appends stats lines to `stats.ndjson` in the
    /// journal directory (no-op without one); returns how many lines were
    /// written. No shard lock is held here.
    fn append_stats(&self, lines: Vec<StatsLine>) -> std::io::Result<usize> {
        let Some(dir) = &self.config.journal_dir else {
            return Ok(0);
        };
        let rendered: Vec<String> = lines
            .iter()
            .filter_map(|line| serde_json::to_string(line).ok())
            .collect();
        if rendered.is_empty() {
            return Ok(0);
        }
        std::fs::create_dir_all(dir)?;
        let mut out = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("stats.ndjson"))?;
        use std::io::Write;
        for line in &rendered {
            writeln!(out, "{line}")?;
        }
        Ok(rendered.len())
    }

    /// Appends one metrics-snapshot line per live session to
    /// `stats.ndjson` in the journal directory (no-op without one);
    /// returns how many lines were written. This leaves a coarse
    /// throughput/utilization timeline on disk next to the run journals.
    pub fn write_stats_snapshots(&self) -> std::io::Result<usize> {
        let (_, lines) = self.sweep_shards(false, true);
        self.append_stats(lines)
    }

    /// The server's periodic sweep: idle expiry and stats snapshotting in
    /// one batched pass — each shard lock is taken once per sweep instead
    /// of once per concern. Returns `(expired, stats lines written)`;
    /// stats failures are swallowed with the [`sweep_stats`] policy.
    ///
    /// [`sweep_stats`]: SessionManager::sweep_stats
    pub fn sweep(&self) -> (usize, usize) {
        // Stats snapshots are only collected when there is somewhere to
        // write them — without a journal dir the pass is expiry-only.
        let stats = self.config.journal_dir.is_some();
        let (expired, lines) = self.sweep_shards(true, stats);
        let count = self.finish_expired(expired);
        let written = self.log_stats_outcome(self.append_stats(lines));
        (count, written)
    }

    /// Sweep-safe stats snapshotting: a failed `stats.ndjson` append (full
    /// disk, permissions, the directory vanishing) must not end the
    /// sweeps or any session — the telemetry file is an observers'
    /// convenience, not session state. The first failure of an outage is
    /// logged; repeats stay quiet until a sweep succeeds again.
    pub fn sweep_stats(&self) -> usize {
        self.log_stats_outcome(self.write_stats_snapshots())
    }

    fn log_stats_outcome(&self, outcome: std::io::Result<usize>) -> usize {
        match outcome {
            Ok(n) => {
                self.stats_write_failed.store(false, Ordering::Relaxed);
                n
            }
            Err(e) => {
                if !self.stats_write_failed.swap(true, Ordering::Relaxed) {
                    eprintln!("atf-service: could not write stats snapshots (will keep sweeping, logged once per outage): {e}");
                }
                0
            }
        }
    }

    /// Persists the database now (used at shutdown): compacts the record
    /// log into an atomically-renamed checkpoint. The index is snapshotted
    /// under a brief db-lock acquisition and written with only the log
    /// lock held, so no wire op ever blocks behind persist file I/O.
    pub fn persist(&self) -> std::io::Result<()> {
        let mut log_guard = self.db_log.lock();
        if let Some(log) = log_guard.as_mut() {
            let snapshot = self.db.lock().clone();
            let report = log.compact(&snapshot)?;
            self.metrics.db_compactions.inc();
            self.trace
                .emit(&TraceEvent::db_compact(report.records, report.micros));
        }
        Ok(())
    }

    /// Test/chaos hook: every subsequent database append and compaction
    /// sleeps `delay` before touching the file system, simulating slow
    /// storage behind `persist` and `finish`.
    pub fn inject_db_io_delay(&self, delay: Duration) {
        if let Some(log) = self.db_log.lock().as_mut() {
            log.set_io_delay(delay);
        }
    }

    /// Graceful-drain hook: fsyncs every live session's run journal so
    /// each lands whole on disk, without finishing the sessions — a
    /// restarted service or client resumes them with `open{resume:true}`.
    /// Returns (live sessions, journals synced); sessions without a
    /// journal are counted but skipped, and a sync failure is logged, not
    /// fatal — the entries already fsynced are still resumable.
    pub fn sync_sessions(&self) -> (usize, usize) {
        let mut total = 0usize;
        let mut synced = 0usize;
        // One shard at a time: sessions on the other shards keep serving
        // while this shard's journals are synced.
        for shard in &self.shards {
            let mut sessions = shard.lock();
            total += sessions.len();
            for (id, managed) in sessions.iter_mut() {
                match managed.session.sync_journal() {
                    Ok(true) => synced += 1,
                    Ok(false) => {}
                    Err(e) => {
                        eprintln!("atf-service: drain: could not sync journal of `{id}`: {e}")
                    }
                }
            }
        }
        self.metrics.drained_sessions.add(synced as u64);
        (total, synced)
    }

    /// The manager's trace sink (the server emits its `drain` event here
    /// so one stream carries the whole admission/shed/drain story).
    pub fn trace_sink(&self) -> &Arc<dyn TraceSink> {
        &self.trace
    }

    /// Evicts sessions idle longer than the configured timeout; returns
    /// how many were expired. A session whose client finished measuring
    /// but never fetched the result (or simply vanished) still has a
    /// best-so-far — that is merged into the database before eviction, so
    /// an abandoned session's work is not thrown away.
    pub fn expire_idle(&self) -> usize {
        let (expired, _) = self.sweep_shards(true, false);
        self.finish_expired(expired)
    }

    /// Number of live sessions (summed shard by shard, no global lock).
    pub fn live_sessions(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Read access to the database (for tests and diagnostics).
    pub fn with_db<T>(&self, f: impl FnOnce(&TuningDatabase) -> T) -> T {
        f(&self.db.lock())
    }

    fn with_session(
        &self,
        request: &Request,
        f: impl FnOnce(&mut ManagedSession) -> Response,
    ) -> Response {
        let Some(id) = &request.session else {
            return Response::error(
                codes::BAD_REQUEST,
                format!("{}: missing `session`", request.cmd),
            );
        };
        let mut sessions = self.shards[self.shard_of(id)].lock();
        match sessions.get_mut(id) {
            Some(managed) => {
                managed.last_touch = Instant::now();
                f(managed)
            }
            None => Response::error(codes::UNKNOWN_SESSION, format!("no session `{id}`")),
        }
    }
}

impl std::fmt::Debug for SessionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionManager")
            .field("live_sessions", &self.live_sessions())
            .field("db_records", &self.with_db(|db| db.len()))
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atf_core::spec::{IntervalSpec, ParameterSpec, SearchSpec};

    fn open_request(kernel: &str) -> Request {
        let mut req = Request::new("open");
        req.kernel = Some(kernel.to_string());
        req.parameters = Some(vec![ParameterSpec {
            name: "X".into(),
            interval: Some(IntervalSpec {
                begin: 1,
                end: 10,
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

    fn drive_to_completion(m: &SessionManager, id: &str, f: impl Fn(u64) -> f64) -> Response {
        loop {
            let next = m.handle(&Request::new("next").with_session(id));
            assert!(next.ok, "{next:?}");
            if next.done == Some(true) {
                break;
            }
            let x = next.config.unwrap()["X"];
            let mut report = Request::new("report").with_session(id);
            report.cost = Some(f(x));
            let r = m.handle(&report);
            assert!(r.ok, "{r:?}");
        }
        m.handle(&Request::new("finish").with_session(id))
    }

    #[test]
    fn open_drive_finish_lookup() {
        let m = SessionManager::in_memory();
        let opened = m.handle(&open_request("toy"));
        assert!(opened.ok, "{opened:?}");
        assert_eq!(opened.space_size.as_deref(), Some("10"));
        let id = opened.session.unwrap();

        let finished = drive_to_completion(&m, &id, |x| (x as f64 - 7.0).abs());
        assert!(finished.ok, "{finished:?}");
        assert_eq!(finished.best_config.as_ref().unwrap()["X"], 7);
        assert_eq!(finished.best_cost, Some(0.0));
        assert_eq!(finished.evaluations, Some(10));
        assert_eq!(m.live_sessions(), 0);

        // The result is now served from the database without tuning.
        let mut lookup = Request::new("lookup");
        lookup.kernel = Some("toy".into());
        let found = m.handle(&lookup);
        assert!(found.ok, "{found:?}");
        assert_eq!(found.best_config.unwrap()["X"], 7);
        assert_eq!(found.source.as_deref(), Some("database"));
    }

    #[test]
    fn structured_errors() {
        let m = SessionManager::in_memory();
        let r = m.handle(&Request::new("warp"));
        assert_eq!(r.code.as_deref(), Some(codes::UNKNOWN_CMD));
        let r = m.handle(&Request::new("next").with_session("s99"));
        assert_eq!(r.code.as_deref(), Some(codes::UNKNOWN_SESSION));
        let r = m.handle(&Request::new("open"));
        assert_eq!(r.code.as_deref(), Some(codes::BAD_REQUEST));
        let r = m.handle(&Request::new("lookup"));
        assert_eq!(r.code.as_deref(), Some(codes::BAD_REQUEST));
        let line = m.handle_line("this is not json");
        let resp: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(resp.code.as_deref(), Some(codes::PARSE));

        // Report with nothing pending is a tuning-state error.
        let opened = m.handle(&open_request("t"));
        let id = opened.session.unwrap();
        let mut report = Request::new("report").with_session(&id);
        report.cost = Some(1.0);
        let r = m.handle(&report);
        assert_eq!(r.code.as_deref(), Some(codes::TUNING));
    }

    #[test]
    fn garbage_request_lines_yield_structured_errors() {
        // Fuzz-ish sweep: every malformed line a client (or a torn TCP
        // read) can produce must come back as a parseable failure
        // response with an error code — never a panic, never silence.
        let m = SessionManager::in_memory();
        let garbage = [
            "",
            "   ",
            "null",
            "true",
            "42",
            "\"just a string\"",
            "[1,2,3]",
            "{}",
            "{\"cmd\":",
            "{\"cmd\": \"open\", \"parameters\":",
            "{\"cmd\": 7}",
            "{\"cmd\": [\"open\"]}",
            "{\"cmd\": \"open\", \"parameters\": \"not a list\"}",
            "{\"cmd\": \"open\", \"parameters\": [{\"name\": 3}]}",
            "{\"cmd\": \"report\", \"session\": 17}",
            "{\"cmd\": \"report\", \"cost\": \"NaN\"}",
            "{\"cmd\": \"next\", \"session\": {\"nested\": true}}",
            "\u{0}\u{1}\u{2}",
            "{\"cmd\": \"open\"} trailing garbage",
            "{\"cmd\": \"open\", \"cmd\": \"open\"",
        ];
        for line in garbage {
            let reply = m.handle_line(line);
            let resp: Response = serde_json::from_str(&reply)
                .unwrap_or_else(|e| panic!("unparseable reply to {line:?}: {e}\n{reply}"));
            assert!(!resp.ok, "garbage line {line:?} must not succeed");
            assert!(resp.code.is_some(), "no error code for {line:?}");
        }
        // Truncations of a valid request: every strict prefix must fail
        // cleanly too (the full line succeeds).
        let full = "{\"cmd\": \"lookup\", \"kernel\": \"k\"}";
        for n in 0..full.len() {
            let reply = m.handle_line(&full[..n]);
            let resp: Response = serde_json::from_str(&reply).unwrap();
            assert!(!resp.ok, "prefix {:?} must not succeed", &full[..n]);
        }
        assert_eq!(m.live_sessions(), 0);
    }

    #[test]
    fn stats_op_snapshots_session_metrics() {
        let m = SessionManager::in_memory();
        let id = m.handle(&open_request("observed")).session.unwrap();

        // Three successes and one classified failure.
        for _ in 0..3 {
            let next = m.handle(&Request::new("next").with_session(&id));
            let x = next.config.unwrap()["X"];
            let mut report = Request::new("report").with_session(&id);
            report.cost = Some(x as f64);
            assert!(m.handle(&report).ok);
        }
        assert!(m
            .handle(&Request::new("next").with_session(&id))
            .config
            .is_some());
        let mut report = Request::new("report").with_session(&id);
        report.valid = Some(false);
        report.failure = Some("timeout".into());
        assert!(m.handle(&report).ok);

        let resp = m.handle(&Request::new("stats").with_session(&id));
        assert!(resp.ok, "{resp:?}");
        let stats = resp.stats.expect("stats payload");
        assert_eq!(stats.evaluations, 4);
        assert_eq!(stats.valid_evaluations, 3);
        assert_eq!(stats.failed_evaluations, 1);
        assert_eq!(stats.failures.get("timeout"), Some(&1));
        assert_eq!(stats.eval_latency.count, 4);
        assert_eq!(stats.window.capacity, 1);

        // The snapshot agrees with the status view of the same session.
        let status = m.handle(&Request::new("status").with_session(&id));
        assert_eq!(Some(stats.evaluations), status.evaluations);
        assert_eq!(Some(stats.failed_evaluations), status.failed_evaluations);

        // And it round-trips the wire encoding.
        let line =
            serde_json::to_string(&m.handle(&Request::new("stats").with_session(&id))).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back.stats.unwrap().evaluations, 4);

        // Unknown session: structured error, same as every other op.
        let r = m.handle(&Request::new("stats").with_session("s404"));
        assert_eq!(r.code.as_deref(), Some(codes::UNKNOWN_SESSION));
    }

    #[test]
    fn stats_snapshots_are_written_to_the_journal_dir() {
        let dir = std::env::temp_dir().join(format!("atf-mgr-stats-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let manager = SessionManager::new(ManagerConfig {
            journal_dir: Some(dir.clone()),
            ..ManagerConfig::default()
        })
        .unwrap();
        // No sessions: nothing to write, no file.
        assert_eq!(manager.write_stats_snapshots().unwrap(), 0);

        let id = manager.handle(&open_request("snap")).session.unwrap();
        let next = manager.handle(&Request::new("next").with_session(&id));
        let mut report = Request::new("report").with_session(&id);
        report.cost = Some(next.config.unwrap()["X"] as f64);
        assert!(manager.handle(&report).ok);

        assert_eq!(manager.write_stats_snapshots().unwrap(), 1);
        assert_eq!(manager.write_stats_snapshots().unwrap(), 1);
        let text = std::fs::read_to_string(dir.join("stats.ndjson")).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one line per sweep per live session");
        for line in lines {
            let parsed: StatsLine = serde_json::from_str(line).unwrap();
            assert_eq!(parsed.session, id);
            assert_eq!(parsed.kernel, "snap");
            assert_eq!(parsed.stats.evaluations, 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn database_merge_is_monotone() {
        let m = SessionManager::in_memory();

        // First run: cost minimum 3 (at X=4, cost |x-4|+3).
        let id = m.handle(&open_request("k")).session.unwrap();
        let r1 = drive_to_completion(&m, &id, |x| (x as f64 - 4.0).abs() + 3.0);
        assert_eq!(r1.best_cost, Some(3.0));

        // Second run over the same key finds something better; the record
        // must improve.
        let id = m.handle(&open_request("k")).session.unwrap();
        let r2 = drive_to_completion(&m, &id, |x| (x as f64 - 8.0).abs());
        assert_eq!(r2.best_cost, Some(0.0));
        let mut lookup = Request::new("lookup");
        lookup.kernel = Some("k".into());
        assert_eq!(m.handle(&lookup).best_cost, Some(0.0));

        // Third run is worse; the database keeps the cheaper record.
        let id = m.handle(&open_request("k")).session.unwrap();
        let r3 = drive_to_completion(&m, &id, |x| x as f64 + 50.0);
        assert_eq!(r3.best_cost, Some(51.0));
        assert_eq!(m.handle(&lookup).best_cost, Some(0.0));
    }

    #[test]
    fn sessions_are_concurrent_and_independent() {
        let m = SessionManager::in_memory();
        let a = m.handle(&open_request("ka")).session.unwrap();
        let b = m.handle(&open_request("kb")).session.unwrap();
        assert_ne!(a, b);
        assert_eq!(m.live_sessions(), 2);

        // Interleave the two sessions.
        let fa = drive_to_completion(&m, &a, |x| (x as f64 - 2.0).abs());
        let fb = drive_to_completion(&m, &b, |x| (x as f64 - 9.0).abs());
        assert_eq!(fa.best_config.unwrap()["X"], 2);
        assert_eq!(fb.best_config.unwrap()["X"], 9);
    }

    #[test]
    fn idle_sessions_expire() {
        let manager = SessionManager::new(ManagerConfig {
            idle_timeout: Duration::from_millis(0),
            ..ManagerConfig::default()
        })
        .unwrap();
        let id = manager.handle(&open_request("t")).session.unwrap();
        assert_eq!(manager.live_sessions(), 1);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(manager.expire_idle(), 1);
        let r = manager.handle(&Request::new("next").with_session(&id));
        assert_eq!(r.code.as_deref(), Some(codes::UNKNOWN_SESSION));
    }

    #[test]
    fn expired_sessions_merge_their_best_into_the_database() {
        let manager = SessionManager::new(ManagerConfig {
            idle_timeout: Duration::from_millis(0),
            ..ManagerConfig::default()
        })
        .unwrap();
        let id = manager.handle(&open_request("orphan")).session.unwrap();
        // Measure a few configurations, then vanish without `finish`.
        for _ in 0..3 {
            let next = manager.handle(&Request::new("next").with_session(&id));
            let x = next.config.unwrap()["X"];
            let mut report = Request::new("report").with_session(&id);
            report.cost = Some((x as f64 - 2.0).abs() + 1.0);
            assert!(manager.handle(&report).ok);
        }
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(manager.expire_idle(), 1);

        // The abandoned session's best (X=2, cost 1) is in the database.
        let mut lookup = Request::new("lookup");
        lookup.kernel = Some("orphan".into());
        let found = manager.handle(&lookup);
        assert!(found.ok, "{found:?}");
        assert_eq!(found.best_config.unwrap()["X"], 2);
        assert_eq!(found.best_cost, Some(1.0));
    }

    #[test]
    fn failure_kinds_are_counted_and_surfaced() {
        let m = SessionManager::in_memory();
        let id = m.handle(&open_request("flaky")).session.unwrap();

        // Two timeouts, one crash, one success.
        for failure in ["timeout", "timeout", "crash"] {
            let next = m.handle(&Request::new("next").with_session(&id));
            assert_eq!(next.done, Some(false));
            let mut report = Request::new("report").with_session(&id);
            report.valid = Some(false);
            report.failure = Some(failure.into());
            assert!(m.handle(&report).ok);
        }
        let next = m.handle(&Request::new("next").with_session(&id));
        let x = next.config.unwrap()["X"];
        let mut report = Request::new("report").with_session(&id);
        report.cost = Some(x as f64);
        assert!(m.handle(&report).ok);

        let status = m.handle(&Request::new("status").with_session(&id));
        let failures = status.failures.unwrap();
        assert_eq!(failures["timeout"], 2);
        assert_eq!(failures["crash"], 1);
        assert_eq!(status.failed_evaluations, Some(3));

        // An unknown label is rejected, not silently misfiled.
        let mut bad = Request::new("report").with_session(&id);
        bad.valid = Some(false);
        bad.failure = Some("gremlins".into());
        assert_eq!(m.handle(&bad).code.as_deref(), Some(codes::BAD_REQUEST));
    }

    #[test]
    fn breaker_aborts_a_session_with_a_structured_error() {
        let m = SessionManager::in_memory();
        let mut req = open_request("broken");
        req.breaker = Some(2);
        let id = m.handle(&req).session.unwrap();
        for _ in 0..2 {
            let next = m.handle(&Request::new("next").with_session(&id));
            assert_eq!(next.done, Some(false));
            let mut report = Request::new("report").with_session(&id);
            report.valid = Some(false);
            report.failure = Some("crash".into());
            assert!(m.handle(&report).ok);
        }
        // The breaker tripped: no more configurations, finish is an error.
        let next = m.handle(&Request::new("next").with_session(&id));
        assert_eq!(next.done, Some(true));
        let finished = m.handle(&Request::new("finish").with_session(&id));
        assert!(!finished.ok);
        assert_eq!(finished.code.as_deref(), Some(codes::TUNING));
        assert!(
            finished
                .error
                .as_deref()
                .unwrap()
                .contains("circuit breaker"),
            "{finished:?}"
        );
        assert_eq!(finished.failures.unwrap()["crash"], 2);
    }

    #[test]
    fn overdue_pending_config_is_timed_out_and_advanced() {
        let manager = SessionManager::new(ManagerConfig {
            eval_deadline: Some(Duration::from_millis(10)),
            ..ManagerConfig::default()
        })
        .unwrap();
        let id = manager.handle(&open_request("slow")).session.unwrap();
        let first = manager.handle(&Request::new("next").with_session(&id));
        let first_x = first.config.unwrap()["X"];
        assert_eq!(first.ticket, Some(1));

        // Within the deadline the window (1) is fully handed out: `next`
        // answers "retry later" rather than double-booking the ticket.
        let again = manager.handle(&Request::new("next").with_session(&id));
        assert!(again.config.is_none());
        assert_eq!(again.retry, Some(true));
        assert_eq!(again.done, Some(false));

        // Past the deadline, the held ticket is forfeited as a timeout and
        // the session advances to a new configuration under a new ticket.
        std::thread::sleep(Duration::from_millis(25));
        let advanced = manager.handle(&Request::new("next").with_session(&id));
        assert_ne!(advanced.config.unwrap()["X"], first_x);
        assert_eq!(advanced.ticket, Some(2));
        let status = manager.handle(&Request::new("status").with_session(&id));
        assert_eq!(status.failures.unwrap()["timeout"], 1);

        // The forfeited ticket's late report is rejected, not double-counted.
        let mut late = Request::new("report").with_session(&id);
        late.cost = Some(1.0);
        late.ticket = Some(1);
        let r = manager.handle(&late);
        assert_eq!(r.code.as_deref(), Some(codes::TUNING));
    }

    #[test]
    fn concurrent_clients_pull_distinct_tickets() {
        // One session, window 3: three clients each hold a distinct
        // configuration; reports land out of ticket order and the final
        // result equals an uninterrupted serial run.
        let m = SessionManager::in_memory();
        let mut req = open_request("shared");
        req.max_pending = Some(3);
        let id = m.handle(&req).session.unwrap();

        let cost = |x: u64| (x as f64 - 7.0).abs();
        loop {
            // Pull up to three tickets (as three clients would).
            let mut held: Vec<(u64, u64)> = Vec::new();
            let mut done = false;
            for _ in 0..3 {
                let next = m.handle(&Request::new("next").with_session(&id));
                assert!(next.ok, "{next:?}");
                if next.done == Some(true) {
                    done = true;
                    break;
                }
                if next.retry == Some(true) {
                    break;
                }
                held.push((next.ticket.unwrap(), next.config.unwrap()["X"]));
            }
            let tickets: std::collections::HashSet<u64> = held.iter().map(|&(t, _)| t).collect();
            assert_eq!(tickets.len(), held.len(), "tickets must be distinct");
            // Report newest-first: out of ticket order.
            for &(t, x) in held.iter().rev() {
                let mut report = Request::new("report").with_session(&id);
                report.cost = Some(cost(x));
                report.ticket = Some(t);
                assert!(m.handle(&report).ok);
            }
            if done && held.is_empty() {
                break;
            }
        }
        let finished = m.handle(&Request::new("finish").with_session(&id));
        assert!(finished.ok, "{finished:?}");
        assert_eq!(finished.best_config.unwrap()["X"], 7);
        assert_eq!(finished.best_cost, Some(0.0));
        assert_eq!(finished.evaluations, Some(10));
    }

    #[test]
    fn journaled_service_session_resumes_after_restart() {
        let dir = std::env::temp_dir().join(format!("atf-mgr-journal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = ManagerConfig {
            journal_dir: Some(dir.clone()),
            ..ManagerConfig::default()
        };
        let cost = |x: u64| (x as f64 - 6.0).abs() + 0.5;

        // First lifetime: measure 4 of 10 evaluations, then "crash"
        // (drop the manager without `finish`).
        let manager = SessionManager::new(config.clone()).unwrap();
        let id = manager.handle(&open_request("journaled")).session.unwrap();
        for _ in 0..4 {
            let next = manager.handle(&Request::new("next").with_session(&id));
            let x = next.config.unwrap()["X"];
            let mut report = Request::new("report").with_session(&id);
            report.cost = Some(cost(x));
            assert!(manager.handle(&report).ok);
        }
        drop(manager);

        // Second lifetime: open with `resume` — 4 evaluations replay from
        // the journal, the remaining 6 are measured, the result matches an
        // uninterrupted exhaustive run.
        let manager = SessionManager::new(config).unwrap();
        let mut req = open_request("journaled");
        req.resume = Some(true);
        let opened = manager.handle(&req);
        assert!(opened.ok, "{opened:?}");
        assert_eq!(opened.resumed, Some(4));
        let id = opened.session.unwrap();
        let finished = drive_to_completion(&manager, &id, cost);
        assert!(finished.ok, "{finished:?}");
        assert_eq!(finished.best_config.unwrap()["X"], 6);
        assert_eq!(finished.best_cost, Some(0.5));
        assert_eq!(finished.evaluations, Some(10));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_next_with_same_request_id_returns_same_ticket() {
        let m = SessionManager::in_memory();
        let id = m.handle(&open_request("dedup-next")).session.unwrap();
        let mut next = Request::new("next").with_session(&id);
        next.request_id = Some("n-1".into());
        let first = m.handle(&next);
        assert_eq!(first.ticket, Some(1));
        let x = first.config.as_ref().unwrap()["X"];

        // The retry (same id) replays the same handout — no second ticket,
        // even though the window would normally answer `retry: true`.
        let replay = m.handle(&next);
        assert_eq!(replay.ticket, Some(1));
        assert_eq!(replay.config.unwrap()["X"], x);

        // A *different* id is a genuine new request.
        let mut other = Request::new("next").with_session(&id);
        other.request_id = Some("n-2".into());
        assert_eq!(m.handle(&other).retry, Some(true));
    }

    #[test]
    fn duplicate_report_with_same_request_id_is_not_double_counted() {
        let m = SessionManager::in_memory();
        let id = m.handle(&open_request("dedup-report")).session.unwrap();
        let next = m.handle(&Request::new("next").with_session(&id));
        let mut report = Request::new("report").with_session(&id);
        report.cost = Some(next.config.unwrap()["X"] as f64);
        report.ticket = next.ticket;
        report.request_id = Some("r-1".into());
        let first = m.handle(&report);
        assert!(first.ok, "{first:?}");
        assert_eq!(first.evaluations, Some(1));

        // The retry is replayed from the window: same response, still one
        // evaluation — not a `tuning` error, not a double count.
        let replay = m.handle(&report);
        assert!(replay.ok, "{replay:?}");
        assert_eq!(replay.evaluations, Some(1));
        let status = m.handle(&Request::new("status").with_session(&id));
        assert_eq!(status.evaluations, Some(1));
    }

    #[test]
    fn duplicate_open_does_not_create_a_twin_session() {
        let m = SessionManager::in_memory();
        let mut req = open_request("dedup-open");
        req.request_id = Some("o-1".into());
        let first = m.handle(&req);
        let replay = m.handle(&req);
        assert_eq!(first.session, replay.session);
        assert_eq!(m.live_sessions(), 1);
    }

    #[test]
    fn retried_finish_is_answered_from_the_dedup_window() {
        let m = SessionManager::in_memory();
        let id = m.handle(&open_request("dedup-finish")).session.unwrap();
        let finished = drive_to_completion(&m, &id, |x| (x as f64 - 3.0).abs());
        assert!(finished.ok);
        // drive_to_completion's finish carried no id; redo with one on a
        // fresh session to exercise the retry path.
        let id = m.handle(&open_request("dedup-finish2")).session.unwrap();
        loop {
            let next = m.handle(&Request::new("next").with_session(&id));
            if next.done == Some(true) {
                break;
            }
            let mut report = Request::new("report").with_session(&id);
            report.cost = Some(next.config.unwrap()["X"] as f64);
            assert!(m.handle(&report).ok);
        }
        let mut finish = Request::new("finish").with_session(&id);
        finish.request_id = Some("f-1".into());
        let first = m.handle(&finish);
        assert!(first.ok, "{first:?}");
        assert_eq!(first.best_cost, Some(1.0));

        // The session is gone, but the retry still gets the final result
        // instead of `unknown_session`.
        let replay = m.handle(&finish);
        assert!(replay.ok, "{replay:?}");
        assert_eq!(replay.best_cost, Some(1.0));
        assert_eq!(replay.best_config, first.best_config);

        // Without the id, the same retry would have failed.
        let bare = m.handle(&Request::new("finish").with_session(&id));
        assert_eq!(bare.code.as_deref(), Some(codes::UNKNOWN_SESSION));
    }

    #[test]
    fn sweep_stats_survives_a_failing_telemetry_file() {
        let dir = std::env::temp_dir().join(format!("atf-mgr-sweepfail-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let manager = SessionManager::new(ManagerConfig {
            journal_dir: Some(dir.clone()),
            ..ManagerConfig::default()
        })
        .unwrap();
        let id = manager.handle(&open_request("sweep")).session.unwrap();
        let next = manager.handle(&Request::new("next").with_session(&id));
        let mut report = Request::new("report").with_session(&id);
        report.cost = Some(next.config.unwrap()["X"] as f64);
        assert!(manager.handle(&report).ok);

        // Make the telemetry file unappendable: a directory squats on its
        // name. The sweep must not panic and must keep the session alive.
        std::fs::create_dir_all(dir.join("stats.ndjson")).unwrap();
        assert_eq!(manager.sweep_stats(), 0);
        assert_eq!(manager.sweep_stats(), 0);
        assert_eq!(manager.live_sessions(), 1);
        let status = manager.handle(&Request::new("status").with_session(&id));
        assert!(status.ok, "{status:?}");

        // Once the obstruction clears, sweeping resumes writing.
        std::fs::remove_dir_all(dir.join("stats.ndjson")).unwrap();
        assert_eq!(manager.sweep_stats(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_space_rejected_at_open() {
        let m = SessionManager::in_memory();
        let mut req = Request::new("open");
        req.kernel = Some("t".into());
        req.parameters = Some(vec![ParameterSpec {
            name: "X".into(),
            interval: Some(IntervalSpec {
                begin: 1,
                end: 10,
                step: 1,
            }),
            set: None,
            constraint: Some("less_than(0)".into()),
        }]);
        let r = m.handle(&req);
        assert!(!r.ok);
        assert_eq!(r.code.as_deref(), Some(codes::TUNING));
    }
}
