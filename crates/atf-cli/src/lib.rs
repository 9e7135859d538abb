//! # atf-cli — tune any program from a JSON specification
//!
//! The command-line face of the generic cost function (paper, Section II,
//! Step 2): a JSON file declares the program (source, compile/run scripts,
//! optional cost log), the tuning parameters with ranges and *constraint
//! strings* (parsed by [`atf_core::parse`]), the search technique, and the
//! abort conditions; the tool runs the tuning loop and (optionally) records
//! the result in a [`atf_core::db::TuningDatabase`].
//!
//! ```text
//! atf-tune run spec.json
//! ```
//!
//! Example specification:
//!
//! ```json
//! {
//!   "program": { "source": "prog.sh", "run": "run.sh", "log_file": "cost.log" },
//!   "parameters": [
//!     { "name": "UNROLL", "set": [1, 2, 4, 8] },
//!     { "name": "BLOCK", "interval": { "begin": 8, "end": 96 },
//!       "constraint": "is_multiple_of(UNROLL)" }
//!   ],
//!   "search": { "technique": "ensemble", "seed": 42 },
//!   "abort": { "evaluations": 200 }
//! }
//! ```

use atf_core::param::Param;
use atf_core::prelude::*;
use atf_core::process::{LexCosts, ProcessCostFunction};
use atf_core::spec;
use serde::Deserialize;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

pub mod campaign;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Reading or deserializing the specification failed.
    Spec(String),
    /// A constraint string failed to parse.
    Constraint {
        /// The parameter whose constraint is broken.
        parameter: String,
        /// The parser's message.
        message: String,
    },
    /// Tuning failed (empty space / nothing measurable).
    Tuning(TuningError),
    /// The database could not be read or written.
    Database(String),
    /// Talking to the tuning service failed.
    Service(String),
    /// The service shed the run with `overloaded` even after the
    /// transport's `retry_after_ms`-aware retries — capacity rejection,
    /// not a real failure. Scripts can tell the two apart: this maps to
    /// exit code 3, real failures to 1.
    Overloaded(String),
    /// A campaign run failed at the orchestration layer (campaign journal
    /// I/O, a fatal executor error) — distinct from per-node failures,
    /// which are recorded in the campaign report instead.
    Campaign(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Spec(m) => write!(f, "bad specification: {m}"),
            CliError::Constraint { parameter, message } => {
                write!(f, "bad constraint for `{parameter}`: {message}")
            }
            CliError::Tuning(e) => write!(f, "tuning failed: {e}"),
            CliError::Database(m) => write!(f, "database error: {m}"),
            CliError::Service(m) => write!(f, "service error: {m}"),
            CliError::Overloaded(m) => write!(f, "service overloaded: {m}"),
            CliError::Campaign(m) => write!(f, "campaign error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<SpecError> for CliError {
    fn from(e: SpecError) -> Self {
        match e {
            SpecError::Invalid(m) => CliError::Spec(m),
            SpecError::Constraint { parameter, message } => {
                CliError::Constraint { parameter, message }
            }
        }
    }
}

/// The program under tuning (the generic cost function's inputs).
#[derive(Clone, Debug, Deserialize)]
pub struct ProgramSpec {
    /// Path to the program source (exported as `ATF_SOURCE`).
    pub source: PathBuf,
    /// Script executed to run the program.
    pub run: PathBuf,
    /// Optional script executed before every run.
    #[serde(default)]
    pub compile: Option<PathBuf>,
    /// Optional cost log (comma-separated costs, lexicographic); without
    /// it, wall-clock runtime is the cost.
    #[serde(default)]
    pub log_file: Option<PathBuf>,
}

/// The whole tuning specification.
#[derive(Clone, Debug, Deserialize)]
pub struct TuningSpec {
    /// The program under tuning.
    pub program: ProgramSpec,
    /// The tuning parameters (declaration order matters: constraints may
    /// only reference earlier parameters).
    pub parameters: Vec<ParameterSpec>,
    /// Search selection.
    #[serde(default)]
    pub search: SearchSpec,
    /// Abort conditions.
    #[serde(default)]
    pub abort: AbortSpec,
    /// Optional tuning-database path to merge the result into.
    #[serde(default)]
    pub database: Option<PathBuf>,
    /// Database key: kernel/program name (default: the source file name).
    #[serde(default)]
    pub kernel_name: Option<String>,
    /// Database key: device name (default "local").
    #[serde(default)]
    pub device_name: Option<String>,
    /// Database key: workload label.
    #[serde(default)]
    pub workload: Option<String>,
}

impl TuningSpec {
    /// Parses a specification from JSON text.
    pub fn from_json(text: &str) -> Result<Self, CliError> {
        serde_json::from_str(text).map_err(|e| CliError::Spec(e.to_string()))
    }

    /// Loads a specification file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, CliError> {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CliError::Spec(format!("{}: {e}", path.as_ref().display())))?;
        Self::from_json(&text)
    }

    /// Builds the parameter list (parsing constraint strings).
    pub fn build_params(&self) -> Result<Vec<Param>, CliError> {
        spec::build_params(&self.parameters).map_err(CliError::from)
    }

    pub(crate) fn build_technique(&self) -> Result<Box<dyn SearchTechnique>, CliError> {
        spec::build_technique(&self.search).map_err(CliError::from)
    }

    fn build_cost_function(&self, policy: &EvalPolicy) -> ProcessCostFunction {
        let mut cf =
            ProcessCostFunction::new(&self.program.source, &self.program.run).eval_policy(policy);
        if let Some(c) = &self.program.compile {
            cf = cf.compile_script(c);
        }
        if let Some(l) = &self.program.log_file {
            cf = cf.log_file(l);
        }
        cf
    }
}

/// Fault-tolerance options for a tuning run — the CLI's `--timeout`,
/// `--retries`, `--breaker`, `--journal`, and `--resume` flags.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Kill any single measurement after this long (a `timeout` failure).
    pub timeout: Option<std::time::Duration>,
    /// Retry transient measurement failures up to this many times.
    pub retries: u32,
    /// Abort after this many consecutive failed evaluations.
    pub breaker: Option<u32>,
    /// Write an append-only run journal to this path (local runs only; in
    /// remote mode the service owns the journal).
    pub journal: Option<PathBuf>,
    /// Resume from the journal (local: replay `journal`; remote: ask the
    /// service to replay its journal for this key).
    pub resume: bool,
    /// Number of parallel evaluation threads (0 or 1 = serial). Each worker
    /// runs its own compile/run scripts; the session hands out up to this
    /// many configurations at once. When resuming from a journal, the
    /// journal's recorded window takes precedence so replay is exact.
    pub workers: usize,
    /// Stream structured trace events (NDJSON, one JSON object per line) to
    /// this file: space generation, handouts, reports, eval latencies,
    /// retries, breaker trips, worker busy/idle, and the final abort.
    pub trace: Option<PathBuf>,
    /// Collect a metrics snapshot (latency histogram, failure taxonomy,
    /// throughput, worker utilization) and attach it to the outcome.
    pub metrics: bool,
    /// Treat a run-journal write failure as fatal. By default the session
    /// degrades instead: journaling stops, tuning continues in memory, and
    /// the outcome carries a warning.
    pub strict_journal: bool,
    /// Base delay before a remote client's first reconnect attempt
    /// (doubling with jitter each attempt; `None` = 200 ms). Local runs
    /// ignore it.
    pub reconnect_backoff: Option<std::time::Duration>,
    /// Campaign wiring for this run, when it executes as a campaign node:
    /// the shared budget and cancel flag are composed into the session's
    /// abort condition (budget charged at handout granularity), and the
    /// fired flags tell the campaign runner *why* the run stopped.
    pub campaign: Option<atf_core::campaign::CampaignHooks>,
}

impl RunOptions {
    /// The [`EvalPolicy`] these options describe.
    pub fn policy(&self) -> EvalPolicy {
        EvalPolicy {
            timeout: self.timeout,
            max_retries: self.retries,
            max_consecutive_failures: self.breaker,
            ..EvalPolicy::default()
        }
    }
}

/// Jitter seed for retry backoff: fixed so CLI runs are reproducible
/// (jitter only staggers sleeps, it never affects the search).
const RETRY_JITTER_SEED: u64 = 0x5eed;

/// Journal checkpoint interval for CLI-journaled runs: after this many
/// appends the journal compacts into an atomically-replaced checkpoint and
/// the live tail restarts as just a header. This bounds the tail file, not
/// replay: a resume still replays checkpoint + tail, i.e. every entry.
const CLI_CHECKPOINT_EVERY: usize = 64;

/// Default base backoff before a remote client's first reconnect (the
/// `--backoff-ms` flag overrides it).
pub const DEFAULT_RECONNECT_BACKOFF: std::time::Duration = std::time::Duration::from_millis(200);

/// How many times a remote run transparently re-attaches (re-opens with
/// `resume`) after the service forgot its session.
const MAX_REATTACHES: u32 = 3;

/// The outcome reported to the CLI user.
#[derive(Debug)]
pub struct CliOutcome {
    /// The tuning result.
    pub result: TuningResult<LexCosts>,
    /// Whether a database record was written (and where).
    pub database: Option<PathBuf>,
    /// Failed evaluations by taxonomy kind (nonzero kinds only).
    pub failures: Vec<(FailureKind, u64)>,
    /// Evaluations replayed from a run journal before tuning continued.
    pub resumed: u64,
    /// Final metrics snapshot (present when the run asked for metrics).
    pub metrics: Option<MetricsSnapshot>,
    /// Why journaling degraded mid-run, if it did: the journal hit a write
    /// error (full disk, permissions) and the session finished in-memory.
    pub journal_degraded: Option<String>,
    /// Wall-clock time spent generating the search space, milliseconds.
    pub space_gen_ms: u64,
}

/// Runs a tuning specification end to end, guarded by `opts`: measurement
/// timeouts and retries wrap the cost function, the circuit breaker arms
/// the session, and the run journal (if any) records every evaluation
/// before it is applied — so a killed run resumes exactly where it died.
pub fn run_with(spec: &TuningSpec, opts: &RunOptions) -> Result<CliOutcome, CliError> {
    let db_err = |e: std::io::Error| CliError::Database(e.to_string());
    // A database this build cannot read is refused now, not after hours of
    // tuning whose result could then not be stored.
    if let Some(db_path) = &spec.database {
        DatabaseLog::open(db_path).map_err(db_err)?;
    }
    // The trace sink exists before space generation so the per-group
    // `space_gen` events land in the stream too.
    let trace: Arc<dyn TraceSink> = match &opts.trace {
        Some(path) => Arc::new(FileSink::create(path).map_err(|e| {
            CliError::Spec(format!("cannot create trace file {}: {e}", path.display()))
        })?),
        None => Arc::new(NullSink),
    };
    let (space, space_build) =
        atf_core::spacegen::space_from_spec(&spec.parameters, trace.as_ref())?;
    let policy = opts.policy();
    let workers = opts.workers.max(1);
    let space_len = space.len();

    let mut session =
        TuningSession::<LexCosts>::new(space, spec.build_technique()?).map_err(CliError::Tuning)?;
    match (&opts.campaign, spec::build_abort(&spec.abort)) {
        // A campaign node wraps its abort (the spec's, or the session
        // default of one full sweep) with the shared budget and cancel
        // checks — both evaluated at handout time, so the budget is
        // charged per admitted configuration.
        (Some(hooks), base) => {
            let base = base
                .unwrap_or_else(|| abort::evaluations(space_len.try_into().unwrap_or(u64::MAX)));
            session = session.abort_condition(hooks.wrap_abort(base));
        }
        (None, Some(a)) => session = session.abort_condition(a),
        (None, None) => {}
    }
    session = session
        .eval_policy(&policy)
        .max_pending(workers)
        .trace_to(Arc::clone(&trace))
        .strict_journal(opts.strict_journal)
        .journal_checkpoint_every(CLI_CHECKPOINT_EVERY);
    let metrics = Arc::clone(session.metrics());
    space_build.record(&metrics);
    let mut resumed = 0;
    if let Some(path) = &opts.journal {
        if opts.resume && path.exists() {
            // Adopts the journal's window, overriding `workers` as the
            // pending cap: replay must hand out tickets exactly as the
            // original run did.
            resumed = session
                .resume_from_journal(path)
                .map_err(CliError::Tuning)?;
        } else {
            session = session.journal_to(path).map_err(CliError::Tuning)?;
        }
    }

    // One cost-function instance per worker: concurrent runs must not race
    // on the spec's log file (`for_worker` re-targets it, scripts follow
    // via `ATF_LOG_FILE`), and the retry jitter stream must not be shared.
    // Each carries the run's observability: script executions become `proc`
    // events, retries become `retry` events and counter increments.
    let cost_functions: Vec<_> = (0..workers)
        .map(|worker| {
            with_policy(
                spec.build_cost_function(&policy)
                    .for_worker(worker)
                    .trace_to(Arc::clone(&trace)),
                &policy,
                RETRY_JITTER_SEED + worker as u64,
                Arc::clone(&trace),
                Arc::clone(&metrics),
            )
        })
        .collect();
    atf_core::parallel::drive_session(&mut session, cost_functions).map_err(CliError::Tuning)?;
    let failures = session.status().failure_counts();
    let journal_degraded = session.journal_degraded().map(String::from);
    let result = session.finish().map_err(CliError::Tuning)?;
    trace.flush();
    let snapshot = opts.metrics.then(|| metrics.snapshot());

    let mut database = None;
    if let Some(db_path) = &spec.database {
        let (mut db, mut log) = DatabaseLog::open(db_path).map_err(db_err)?;
        let (kernel, device, workload) = database_key(spec);
        if db.store(
            &kernel,
            &device,
            &workload,
            &result.best_config,
            result.best_cost.first().copied().unwrap_or(f64::INFINITY),
            result.evaluations,
            result.space_size,
        ) {
            let record = db
                .record(&kernel, &device, &workload)
                .expect("the record was just stored");
            log.append(&record).map_err(db_err)?;
        }
        database = Some(db_path.clone());
    }
    Ok(CliOutcome {
        result,
        database,
        failures,
        resumed,
        metrics: snapshot,
        journal_degraded,
        space_gen_ms: space_build.elapsed.as_millis() as u64,
    })
}

/// The database key of a specification: `(kernel, device, workload)`.
pub fn database_key(spec: &TuningSpec) -> (String, String, String) {
    let kernel = spec.kernel_name.clone().unwrap_or_else(|| {
        spec.program
            .source
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "program".to_string())
    });
    let device = spec
        .device_name
        .clone()
        .unwrap_or_else(|| "local".to_string());
    let workload = spec.workload.clone().unwrap_or_default();
    (kernel, device, workload)
}

/// The service-session view of a specification (everything but the
/// program, which stays local: the service owns the search, this process
/// owns the measurement).
pub fn session_spec(spec: &TuningSpec) -> atf_service::SessionSpec {
    let (kernel, device, workload) = database_key(spec);
    atf_service::SessionSpec {
        kernel,
        device: Some(device),
        workload: Some(workload),
        tenant: None,
        parameters: spec.parameters.clone(),
        search: Some(spec.search.clone()),
        abort: Some(spec.abort.clone()),
        resume: false,
        breaker: None,
        max_pending: None,
    }
}

fn wire_to_config(wire: &atf_service::client::WireConfig) -> Config {
    Config::from_pairs(wire.iter().map(|(n, v)| (n.as_str(), Value::UInt(*v))))
}

/// Whether a client error means the service forgot the session (it expired
/// or the service restarted) — the case a remote run can transparently
/// recover from by re-opening with `resume`.
fn is_unknown_session(e: &atf_service::ClientError) -> bool {
    matches!(e, atf_service::ClientError::Remote { code, .. }
             if code == atf_service::proto::codes::UNKNOWN_SESSION)
}

/// Drives a remote tuning session end to end over any service transport:
/// opens a session from the specification, measures each configuration the
/// service hands out with the spec's program, and returns the service's
/// final result. `opts` guards it: the local measurements get the policy's
/// timeout and transient-retry loop, failures are reported to the service
/// with their taxonomy class, and `resume` / `breaker` ride along on `open`
/// (the service owns the journal and the circuit breaker; `opts.journal`
/// is ignored here).
///
/// When the service forgets the session mid-run (idle expiry, a service
/// restart), the run transparently re-attaches: it re-opens the same key
/// with `resume: true` — replaying the service-side journal when one exists
/// — and continues, up to a bounded number of re-attaches.
pub fn run_remote_with<T: atf_service::Transport>(
    spec: &TuningSpec,
    client: &mut atf_service::Client<T>,
    opts: &RunOptions,
) -> Result<atf_service::Response, CliError> {
    let mut session = session_spec(spec);
    session.resume = opts.resume;
    session.breaker = opts.breaker;
    let policy = opts.policy();
    let mut cf = with_policy(
        spec.build_cost_function(&policy),
        &policy,
        RETRY_JITTER_SEED,
        Arc::new(NullSink),
        Arc::new(MetricsRegistry::new()),
    );
    // Shedding that survives the transport's retry_after_ms-aware retry
    // loop is a capacity verdict, not a failure — keep it distinguishable.
    let service = |e: atf_service::ClientError| match e {
        atf_service::ClientError::Remote {
            ref code,
            ref message,
        } if code == atf_service::proto::codes::OVERLOADED => CliError::Overloaded(message.clone()),
        e => CliError::Service(e.to_string()),
    };
    let (mut id, mut replayed) = client.open_resumable(&session).map_err(service)?;
    let mut reattaches_left = MAX_REATTACHES;
    let mut response = loop {
        // Drive the current session until it is done or the service
        // forgets it. A `None` outcome means the drive completed.
        let drive_error = loop {
            // As a campaign node, check the shared budget and cancel flag
            // before asking for the next handout (this loop is the serial
            // window: charge granularity is exactly one evaluation).
            if let Some(hooks) = &opts.campaign {
                if hooks.cancel_requested() {
                    hooks.mark_cancel_fired();
                    break None;
                }
                if hooks.budget_exhausted() {
                    hooks.mark_budget_fired();
                    break None;
                }
            }
            let wire = match client.next(&id) {
                Ok(Some(w)) => w,
                Ok(None) => break None,
                Err(e) => break Some(e),
            };
            if let Some(hooks) = &opts.campaign {
                if let Some(b) = &hooks.budget {
                    b.charge(1);
                }
            }
            let config = wire_to_config(&wire);
            let reported = match cf.evaluate(&config) {
                Ok(costs) => match costs.first().copied() {
                    Some(cost) => client.report(&id, Some(cost)),
                    None => client.report_failure(&id, FailureKind::BadOutput),
                },
                Err(e) => client.report_failure(&id, e.kind()),
            };
            if let Err(e) = reported {
                break Some(e);
            }
        };
        let finish_error = match drive_error {
            None => match client.finish(&id) {
                Ok(resp) => break resp,
                Err(e) => e,
            },
            Some(e) => e,
        };
        if !is_unknown_session(&finish_error) || reattaches_left == 0 {
            return Err(service(finish_error));
        }
        // Re-attach: the same key, asking the service to replay whatever
        // its journal kept of the lost session's progress.
        reattaches_left -= 1;
        let mut reopened = session.clone();
        reopened.resume = true;
        let (new_id, rep) = client.open_resumable(&reopened).map_err(service)?;
        id = new_id;
        replayed = replayed.max(rep);
    };
    // `resumed` arrives on the `open` response; carry it into the final
    // one so the report can show it.
    if replayed > 0 {
        response.resumed = Some(replayed);
    }
    Ok(response)
}

/// Renders a service response (from `finish` or `lookup`) as the CLI's
/// human-readable report.
pub fn report_remote(response: &atf_service::Response) -> String {
    let mut out = String::new();
    if let Some(s) = &response.space_size {
        out.push_str(&format!("search space: {s} valid configurations\n"));
    }
    if let Some(e) = response.evaluations {
        out.push_str(&format!(
            "evaluated:    {e} ({} valid, {} failed)\n",
            response.valid_evaluations.unwrap_or(0),
            response.failed_evaluations.unwrap_or(0)
        ));
    }
    if let Some(failures) = &response.failures {
        if !failures.is_empty() {
            let rendered: Vec<String> = failures.iter().map(|(k, n)| format!("{k}={n}")).collect();
            out.push_str(&format!("failures:     {}\n", rendered.join(" ")));
        }
    }
    if let Some(n) = response.resumed {
        if n > 0 {
            out.push_str(&format!("resumed:      {n} evaluations replayed\n"));
        }
    }
    if let Some(cfg) = &response.best_config {
        let rendered: Vec<String> = cfg.iter().map(|(n, v)| format!("{n}={v}")).collect();
        out.push_str(&format!("best config:  {}\n", rendered.join(" ")));
    }
    if let Some(c) = response.best_cost {
        out.push_str(&format!("best cost:    {c}\n"));
    }
    if let Some(src) = &response.source {
        out.push_str(&format!("served from:  {src}\n"));
    }
    out
}

/// Renders the outcome as the CLI's human-readable report.
pub fn report(outcome: &CliOutcome) -> String {
    let r = &outcome.result;
    let mut out = String::new();
    out.push_str(&format!(
        "search space: {} valid configurations ({} ms)\n",
        r.space_size, outcome.space_gen_ms
    ));
    out.push_str(&format!(
        "evaluated:    {} ({} valid, {} failed)\n",
        r.evaluations, r.valid_evaluations, r.failed_evaluations
    ));
    if !outcome.failures.is_empty() {
        let rendered: Vec<String> = outcome
            .failures
            .iter()
            .map(|(kind, n)| format!("{}={n}", kind.label()))
            .collect();
        out.push_str(&format!("failures:     {}\n", rendered.join(" ")));
    }
    if outcome.resumed > 0 {
        out.push_str(&format!(
            "resumed:      {} evaluations replayed from the journal\n",
            outcome.resumed
        ));
    }
    out.push_str(&format!("best config:  {}\n", r.best_config));
    out.push_str(&format!("best cost:    {:?}\n", r.best_cost));
    if let Some(db) = &outcome.database {
        out.push_str(&format!("recorded in:  {}\n", db.display()));
    }
    if let Some(why) = &outcome.journal_degraded {
        out.push_str(&format!(
            "WARNING:      journaling degraded mid-run ({why}); the result \
             above is complete, but the journal on disk is not\n"
        ));
    }
    if let Some(snapshot) = &outcome.metrics {
        out.push('\n');
        out.push_str(&snapshot.summary());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn fresh_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("atf-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[cfg(unix)]
    fn write_executable(path: &std::path::Path, body: &str) {
        let mut f = std::fs::File::create(path).unwrap();
        writeln!(f, "#!/bin/sh\n{body}").unwrap();
        use std::os::unix::fs::PermissionsExt;
        std::fs::set_permissions(path, std::fs::Permissions::from_mode(0o755)).unwrap();
    }

    #[test]
    fn spec_parses_from_json() {
        let spec = TuningSpec::from_json(
            r#"{
              "program": {"source": "p.sh", "run": "run.sh"},
              "parameters": [
                {"name": "A", "interval": {"begin": 1, "end": 8}},
                {"name": "B", "set": [1, 2, 4], "constraint": "divides(A)"}
              ],
              "search": {"technique": "exhaustive"},
              "abort": {"evaluations": 10}
            }"#,
        )
        .unwrap();
        assert_eq!(spec.parameters.len(), 2);
        let params = spec.build_params().unwrap();
        assert_eq!(params[0].name(), "A");
        assert!(params[1].constraint().is_some());
    }

    #[test]
    fn spec_rejects_bad_inputs() {
        assert!(TuningSpec::from_json("{}").is_err());
        let both = TuningSpec::from_json(
            r#"{"program": {"source": "p", "run": "r"},
                "parameters": [{"name": "A", "interval": {"begin":1,"end":2}, "set": [1]}]}"#,
        )
        .unwrap();
        assert!(matches!(both.build_params(), Err(CliError::Spec(_))));
        let bad_constraint = TuningSpec::from_json(
            r#"{"program": {"source": "p", "run": "r"},
                "parameters": [{"name": "A", "set": [1], "constraint": "wat(3)"}]}"#,
        )
        .unwrap();
        assert!(matches!(
            bad_constraint.build_params(),
            Err(CliError::Constraint { .. })
        ));
        let bad_technique = TuningSpec::from_json(
            r#"{"program": {"source": "p", "run": "r"},
                "parameters": [{"name": "A", "set": [1]}],
                "search": {"technique": "quantum"}}"#,
        )
        .unwrap();
        assert!(bad_technique.build_technique().is_err());
    }

    #[cfg(unix)]
    #[test]
    fn end_to_end_cli_run_with_database() {
        let dir = fresh_dir("e2e");
        let log = dir.join("cost.log");
        let source = dir.join("prog.sh");
        write_executable(
            &source,
            &format!(
                "B=$ATF_TP_BLOCK\nU=$ATF_TP_UNROLL\nD=$((B - 24)); [ $D -lt 0 ] && D=$((-D))\necho $((10 + D + U)) > {}",
                log.display()
            ),
        );
        let run_sh = dir.join("run.sh");
        write_executable(&run_sh, "sh \"$ATF_SOURCE\"");
        let db_path = dir.join("db.json");

        let spec = TuningSpec::from_json(&format!(
            r#"{{
              "program": {{"source": "{}", "run": "{}", "log_file": "{}"}},
              "parameters": [
                {{"name": "UNROLL", "set": [1, 2, 4]}},
                {{"name": "BLOCK", "interval": {{"begin": 8, "end": 32}},
                  "constraint": "is_multiple_of(UNROLL)"}}
              ],
              "search": {{"technique": "exhaustive"}},
              "database": "{}",
              "kernel_name": "toy",
              "workload": "w1"
            }}"#,
            source.display(),
            run_sh.display(),
            log.display(),
            db_path.display()
        ))
        .unwrap();

        let outcome = run_with(&spec, &RunOptions::default()).unwrap();
        // Optimum: BLOCK=24, UNROLL=1 → cost 11.
        assert_eq!(outcome.result.best_config.get_u64("BLOCK"), 24);
        assert_eq!(outcome.result.best_config.get_u64("UNROLL"), 1);
        assert_eq!(outcome.result.best_cost, vec![11.0]);
        // Database written and loadable.
        let db = TuningDatabase::load(&db_path).unwrap();
        let rec = db.lookup("toy", "local", "w1").unwrap();
        assert_eq!(rec.cost, 11.0);
        // The report mentions the essentials.
        let text = report(&outcome);
        assert!(text.contains("best config"));
        assert!(text.contains("BLOCK=24"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn parallel_run_matches_serial_run_exactly() {
        let dir = fresh_dir("workers");
        let source = dir.join("prog.sh");
        // The parallel-safe log idiom: the script writes wherever
        // ATF_LOG_FILE points, so each worker's runs never collide.
        write_executable(
            &source,
            "B=$ATF_TP_BLOCK\nU=$ATF_TP_UNROLL\nD=$((B - 24)); [ $D -lt 0 ] && D=$((-D))\necho $((10 + D + U)) > \"$ATF_LOG_FILE\"",
        );
        let run_sh = dir.join("run.sh");
        write_executable(&run_sh, "sh \"$ATF_SOURCE\"");
        let spec = TuningSpec::from_json(&format!(
            r#"{{
              "program": {{"source": "{}", "run": "{}", "log_file": "{}"}},
              "parameters": [
                {{"name": "UNROLL", "set": [1, 2, 4]}},
                {{"name": "BLOCK", "interval": {{"begin": 8, "end": 32}},
                  "constraint": "is_multiple_of(UNROLL)"}}
              ],
              "search": {{"technique": "exhaustive"}}
            }}"#,
            source.display(),
            run_sh.display(),
            dir.join("cost.log").display()
        ))
        .unwrap();

        let serial = run_with(
            &spec,
            &RunOptions {
                workers: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let parallel = run_with(
            &spec,
            &RunOptions {
                workers: 4,
                ..Default::default()
            },
        )
        .unwrap();

        // Exhaustive search proposes independently of reported costs, so
        // the 4-worker run equals the serial run exactly.
        assert_eq!(
            parallel.result.best_config, serial.result.best_config,
            "parallel and serial best configs must agree"
        );
        assert_eq!(parallel.result.best_cost, serial.result.best_cost);
        assert_eq!(parallel.result.evaluations, serial.result.evaluations);
        assert_eq!(serial.result.best_config.get_u64("BLOCK"), 24);
        assert_eq!(serial.result.best_config.get_u64("UNROLL"), 1);
        assert_eq!(serial.result.best_cost, vec![11.0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn remote_session_over_loopback_matches_local_run() {
        use std::sync::Arc;

        let dir = fresh_dir("loopback");
        let log = dir.join("cost.log");
        let source = dir.join("prog.sh");
        write_executable(
            &source,
            &format!(
                "B=$ATF_TP_BLOCK\nD=$((B - 20)); [ $D -lt 0 ] && D=$((-D))\necho $((5 + D)) > {}",
                log.display()
            ),
        );
        let run_sh = dir.join("run.sh");
        write_executable(&run_sh, "sh \"$ATF_SOURCE\"");
        let spec = TuningSpec::from_json(&format!(
            r#"{{
              "program": {{"source": "{}", "run": "{}", "log_file": "{}"}},
              "parameters": [{{"name": "BLOCK", "interval": {{"begin": 8, "end": 32}}}}],
              "search": {{"technique": "exhaustive"}},
              "kernel_name": "loopback-toy"
            }}"#,
            source.display(),
            run_sh.display(),
            log.display()
        ))
        .unwrap();

        let local = run_with(&spec, &RunOptions::default()).unwrap();

        let manager = Arc::new(atf_service::SessionManager::in_memory());
        let mut client = atf_service::Client::loopback(Arc::clone(&manager));
        let remote = run_remote_with(&spec, &mut client, &RunOptions::default()).unwrap();

        // The remote session explores the same space with the same
        // technique, so the results agree exactly.
        let remote_best = remote.best_config.as_ref().unwrap();
        assert_eq!(
            remote_best["BLOCK"],
            local.result.best_config.get_u64("BLOCK")
        );
        assert_eq!(remote.best_cost, local.result.best_cost.first().copied());
        assert_eq!(remote.evaluations, Some(local.result.evaluations));

        // The finished session is now in the service's database.
        let hit = client.lookup("loopback-toy", None, None).unwrap().unwrap();
        assert_eq!(hit.best_cost, remote.best_cost);
        assert_eq!(hit.source.as_deref(), Some("database"));

        let text = report_remote(&remote);
        assert!(text.contains("best config"));
        assert!(text.contains("BLOCK=20"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `atf-tune run` and the service's `open` share one spec → space step:
    /// the same spec yields the same space through either, both stream the
    /// step's `space_*` events to their sink, and both record the build in
    /// their session's metrics.
    #[cfg(unix)]
    #[test]
    fn run_and_service_open_share_the_spec_to_space_step() {
        let dir = fresh_dir("shared-step");
        let source = dir.join("prog.sh");
        write_executable(&source, "echo $ATF_TP_B > \"$ATF_LOG_FILE\"");
        let run_sh = dir.join("run.sh");
        write_executable(&run_sh, "sh \"$ATF_SOURCE\"");
        // ~200 k configurations over 20 k prefixes: generation cannot round
        // to 0 ms, so `space_gen_ms` shows whether it was recorded.
        let spec = TuningSpec::from_json(&format!(
            r#"{{
              "program": {{"source": "{}", "run": "{}", "log_file": "{}"}},
              "parameters": [{{"name": "A", "interval": {{"begin": 1, "end": 20000}}}},
                             {{"name": "B", "interval": {{"begin": 1, "end": 20000}},
                               "constraint": "divides(A)"}}],
              "search": {{"technique": "random", "seed": 1}},
              "abort": {{"evaluations": 2}},
              "kernel_name": "shared-step"
            }}"#,
            source.display(),
            run_sh.display(),
            dir.join("cost.log").display()
        ))
        .unwrap();
        let kinds = |events: &[TraceEvent]| -> Vec<String> {
            let mut kinds: Vec<_> = events
                .iter()
                .filter(|e| e.event.starts_with("space_"))
                .map(|e| e.event.clone())
                .collect();
            kinds.dedup();
            kinds
        };

        let trace_path = dir.join("run.ndjson");
        let outcome = run_with(
            &spec,
            &RunOptions {
                trace: Some(trace_path.clone()),
                metrics: true,
                ..Default::default()
            },
        )
        .unwrap();
        let run_events: Vec<TraceEvent> = std::fs::read_to_string(&trace_path)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();

        let sink = Arc::new(MemorySink::new());
        let manager = Arc::new(atf_service::SessionManager::in_memory().with_trace(sink.clone()));
        let mut client = atf_service::Client::loopback(manager);
        let id = client.open(&session_spec(&spec)).unwrap();
        let status = client.status(&id).unwrap();
        let stats = client.stats(&id).unwrap();

        assert_eq!(
            status.space_size,
            Some(outcome.result.space_size.to_string())
        );
        let run_kinds = kinds(&run_events);
        assert_eq!(run_kinds.last().map(String::as_str), Some("space_gen"));
        assert_eq!(kinds(&sink.take()), run_kinds);
        assert!(outcome.space_gen_ms > 0);
        assert_eq!(outcome.metrics.unwrap().space_gen_ms, outcome.space_gen_ms);
        assert!(stats.space_gen_ms > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn abort_or_combination() {
        let dir = fresh_dir("abort");
        let log = dir.join("cost.log");
        let source = dir.join("prog.sh");
        write_executable(&source, &format!("echo 5 > {}", log.display()));
        let run_sh = dir.join("run.sh");
        write_executable(&run_sh, "sh \"$ATF_SOURCE\"");
        let spec = TuningSpec::from_json(&format!(
            r#"{{
              "program": {{"source": "{}", "run": "{}", "log_file": "{}"}},
              "parameters": [{{"name": "X", "interval": {{"begin": 1, "end": 1000}}}}],
              "search": {{"technique": "random", "seed": 1}},
              "abort": {{"evaluations": 7, "cost": 0.1}}
            }}"#,
            source.display(),
            run_sh.display(),
            log.display()
        ))
        .unwrap();
        let outcome = run_with(&spec, &RunOptions::default()).unwrap();
        assert_eq!(outcome.result.evaluations, 7); // evaluations fired first
        std::fs::remove_dir_all(&dir).ok();
    }
}
