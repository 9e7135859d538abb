//! `atf-tune` — the command-line auto-tuner.
//!
//! ```text
//! atf-tune run <spec.json>              tune locally
//! atf-tune serve --addr A --db P        run the tuning service
//! atf-tune client --addr A <spec>       drive a remote session
//! atf-tune campaign <file.json>         run a multi-node tuning campaign
//! ```
//!
//! Exit codes: 0 success, 1 tuning/service failure, 2 usage or validation
//! error, 3 shed with `overloaded` after exhausting retries (capacity
//! rejection, not a failure — scripts can back off and re-run).
//! See the crate docs (`atf_cli`) for the specification format.
//!
//! Each command's flags are declared once, in a `flags!` table: the flag
//! (spelled as its field, `_` for `-`), its value placeholder (none for a
//! switch) and its help text. The table generates the typed argument
//! struct, the parser — which rejects every flag the table does not
//! declare — and the flag lines of `atf-tune help <command>`.

use std::fmt::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: atf-tune <command> [options]

commands:
  run <spec.json>        Tune the program described by the specification
                         in this process (search + measurement local).
  serve [options]        Run the tuning service: searches live here,
                         clients measure and report costs over TCP.
  client [options] ...   Drive a session on a remote service: the service
                         searches, this process measures the program.
  campaign <file.json>   Run a declarative campaign: a DAG of tuning runs
                         with failure policies, a shared budget, and a
                         crash-safe campaign journal.
  help [command]         Show this message, or a command's usage.

exit codes: 0 success, 1 tuning failure, 2 usage/validation error,
            3 shed with `overloaded` after exhausting retries

Run `atf-tune help <command>` for per-command options.";

const RUN_USAGE: &str = "usage: atf-tune run [options] <spec.json>

Auto-tunes the program described by the JSON specification:
compile/run scripts, tuning parameters with constraint strings
(e.g. \"divides(N / WPT)\"), search technique, abort conditions,
and an optional tuning database to record the best configuration.
";

const SERVE_USAGE: &str = "usage: atf-tune serve [options]

Runs the tuning service until SIGINT (ctrl-c), then drains gracefully:
stops accepting, answers the requests already received, fsyncs the
journals of live sessions, and exits within the drain deadline.
";

const CLIENT_USAGE: &str = "usage: atf-tune client [options] <spec.json>
       atf-tune client [lookup options]

With a spec: opens a session on the service, measures each configuration
the service hands out by running the spec's program locally, and prints
the final result. A lookup prints the service's stored best
configuration for a key, without tuning.

options:";

const CLIENT_EPILOGUE: &str = "

The connection self-heals: requests carry idempotency keys, so a retry
after a dropped connection or lost response is answered exactly once by
the service, and a session the service expired is transparently
re-attached (re-opened with resume).";

const CAMPAIGN_USAGE: &str = "usage: atf-tune campaign [options] <campaign.json>
       atf-tune campaign validate <campaign.json>

Runs a declarative campaign: a named DAG of tuning runs (nodes) with
per-node failure policies (`retry` with jittered exponential backoff,
`continue`, `abort`), an optional shared evaluation/wall-clock budget
charged at handout granularity, and a crash-safe campaign journal —
kill -9 at any point, re-run with --resume, and the final report is
bit-identical to an uninterrupted execution. `validate` checks the graph
(duplicates, unknown references, cycles), policies, budgets and every
node's tuning spec, runs nothing, and exits 0 when valid, 2 otherwise.
";

const CAMPAIGN_EPILOGUE: &str = "

exit codes: 0 campaign completed (including budget_exhausted verdicts),
            1 a node failed, 2 usage/validation error, 3 a node was shed
            with `overloaded` after exhausting retries";

const DEFAULT_ADDR: &str = "127.0.0.1:7117";

/// A `--…-secs` or `--timeout` value: seconds, fractions allowed, strictly
/// positive.
#[derive(Debug)]
struct Secs(Duration);

impl std::str::FromStr for Secs {
    type Err = ();

    fn from_str(text: &str) -> Result<Self, ()> {
        match text.parse::<f64>() {
            Ok(secs) if secs.is_finite() && secs > 0.0 => Ok(Secs(Duration::from_secs_f64(secs))),
            _ => Err(()),
        }
    }
}

/// The arguments after the flag being parsed.
type Rest<'a> = &'a mut dyn Iterator<Item = String>;

/// A declared flag's field: a switch (`bool`) takes no value, an
/// `Option` takes the next argument and parses it. Either may be given
/// once.
trait FlagField {
    fn take(&mut self, flag: &str, meta: &str, rest: Rest) -> Result<(), String>;
}

impl FlagField for bool {
    fn take(&mut self, flag: &str, _: &str, _: Rest) -> Result<(), String> {
        match std::mem::replace(self, true) {
            true => Err(format!("`{flag}` given twice")),
            false => Ok(()),
        }
    }
}

impl<T: std::str::FromStr> FlagField for Option<T> {
    fn take(&mut self, flag: &str, meta: &str, rest: Rest) -> Result<(), String> {
        let text = rest
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let value = text
            .parse()
            .map_err(|_| format!("`{flag}` needs {meta}, got `{text}`"))?;
        match self.replace(value) {
            Some(_) => Err(format!("`{flag}` given twice")),
            None => Ok(()),
        }
    }
}

/// A flag table, as `flags!` generates it.
trait Flags: Default {
    /// Takes `flag` — and its value, from `rest` — when the table declares it.
    fn take(&mut self, flag: &str, rest: Rest) -> Result<bool, String>;

    /// Appends a usage line block for each flag the table shows.
    fn usage(out: &mut String);

    /// Whether the table declares `flag`.
    fn declares(flag: &str) -> bool {
        !matches!(
            Self::default().take(flag, &mut std::iter::empty()),
            Ok(false)
        )
    }

    /// Parses a command's arguments: declared flags anywhere, anything else
    /// starting with `--` an unknown option, at most `max` positionals.
    fn parse(args: &[String], max: usize) -> Result<(Self, Vec<String>), String> {
        let mut parsed = Self::default();
        let mut positionals = Vec::new();
        let mut rest = args.iter().cloned();
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                positionals.push(arg);
            } else if !parsed.take(&arg, &mut rest)? {
                return Err(format!("unknown option `{arg}`"));
            }
        }
        match positionals.get(max) {
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
            None => Ok((parsed, positionals)),
        }
    }
}

/// `--io-threads` for the field `io_threads`.
fn flag_name(field: &str) -> String {
    format!("--{}", field.replace('_', "-"))
}

/// One flag's usage lines: `--flag META` in a 21-column gutter, its help
/// beside and below it.
fn describe(out: &mut String, field: &str, meta: &str, help: &[&str]) {
    let label = format!("  {} {meta}", flag_name(field));
    let label = label.trim_end();
    let mut help = help
        .iter()
        .map(|line| line.strip_prefix(' ').unwrap_or(line));
    if label.len() < 21 {
        let first = help.next().unwrap_or_default();
        write!(out, "\n{label:<21}{first}").expect("writing to a String");
    } else {
        write!(out, "\n{label}").expect("writing to a String");
    }
    for line in help {
        write!(out, "\n{:21}{line}", "").expect("writing to a String");
    }
}

/// Declares flag tables. In each, `..field: Table` includes another table's
/// flags, and each flag is its help lines (doc comments), its field, then
/// for a value flag `"META": Type` (the field is an `Option<Type>`;
/// `[hidden]` keeps it out of the usage) — a switch is its field alone (a
/// `bool`).
macro_rules! flags {
    (@type) => { bool };
    (@type $ty:ty) => { Option<$ty> };
    (@meta) => { "" };
    (@meta $meta:literal) => { $meta };
    (@shown) => { true };
    (@shown hidden) => { false };
    ($(
        $(#[doc = $doc:literal])*
        struct $name:ident {
            $(..$group:ident: $table:ident,)*
            $($(#[doc = $help:literal])* $field:ident $($meta:literal: $ty:ty $([$mark:ident])?)?,)*
        }
    )+) => {$(
        $(#[doc = $doc])*
        #[derive(Debug, Default)]
        struct $name {
            $($group: $table,)*
            $($field: flags!(@type $($ty)?),)*
        }

        impl Flags for $name {
            fn take(&mut self, flag: &str, rest: Rest) -> Result<bool, String> {
                $(if flag == flag_name(stringify!($field)) {
                    FlagField::take(&mut self.$field, flag, flags!(@meta $($meta)?), rest)?;
                    return Ok(true);
                })*
                Ok(false $(|| self.$group.take(flag, rest)?)*)
            }

            fn usage(out: &mut String) {
                $(if flags!(@shown $($($mark)?)?) {
                    describe(out, stringify!($field), flags!(@meta $($meta)?), &[$($help),*]);
                })*
                $($table::usage(out);)*
            }
        }
    )+};
}

flags! {
    /// How a local or remote run measures: shared by `run`, `client` and
    /// `campaign`.
    struct Measure {
        /// Kill any single measurement after SECS seconds (counted
        /// as a `timeout` failure; fractions allowed).
        timeout "SECS": Secs,
        /// Retry transient measurement failures up to N times, with
        /// exponential backoff and jitter. A remote run also makes
        /// at least N reconnect attempts (never fewer than 3).
        retries "N": u32,
        /// Abort the run, or ask the service to abort the session,
        /// after N consecutive failed evaluations (circuit
        /// breaker).
        breaker "N": u32,
    }

    /// Local parallelism: shared by `run` and `campaign`.
    struct Parallel {
        /// Evaluate up to N configurations in parallel (default 1 =
        /// serial). With --resume the journal's recorded pending
        /// window takes precedence over N.
        workers "N": usize,
    }

    /// Reconnect pacing of a remote run: shared by `client` and `campaign`.
    struct Reconnect {
        /// Base delay before the first reconnect attempt, doubling
        /// with jitter each retry (default 200).
        backoff_ms "MS": u32,
    }

    /// The service a client talks to: shared by both client modes.
    struct Service {
        /// Service address (default 127.0.0.1:7117).
        addr "HOST:PORT": String,
    }

    struct RunArgs {
        ..measure: Measure,
        ..parallel: Parallel,
        /// Append every evaluation to a crash-safe run journal
        /// (NDJSON, checksummed, periodically compacted into an
        /// atomically-written checkpoint) at PATH before applying
        /// it.
        journal "PATH": PathBuf,
        /// Replay the journal at --journal PATH first, then
        /// continue the interrupted run where it stopped.
        resume,
        /// Treat a journal write failure as fatal. Default:
        /// journaling degrades (tuning continues in memory) and the
        /// report carries a warning.
        strict_journal,
        /// Write a structured NDJSON event trace to PATH (one JSON
        /// object per line; the kinds are listed in README's trace
        /// reference).
        trace "PATH": PathBuf,
        /// Print a metrics summary after the run: eval-latency
        /// histogram, failure taxonomy, window occupancy, worker
        /// utilization, configs/sec, space generation.
        metrics,
    }

    struct ServeArgs {
        /// Listen address (default 127.0.0.1:7117).
        addr "HOST:PORT": String,
        /// Tuning-database file: loaded at start, updated as
        /// sessions finish (default: in-memory only).
        db "PATH": PathBuf,
        /// Expire sessions idle longer than N seconds (default
        /// 900).
        idle_secs "N": u64,
        /// Keep a per-key run journal in DIR; sessions opened with
        /// `resume` continue from it after a crash.
        journal_dir "DIR": PathBuf,
        /// Auto-fail a handed-out configuration as a `timeout` when
        /// no report arrives within N seconds.
        eval_deadline_secs "N": Secs,
        /// Admit at most N live sessions across all tenants; an
        /// `open` beyond it is answered `overloaded` with a
        /// retry_after_ms hint (default: unlimited).
        max_sessions "N": usize,
        /// Admit at most N live sessions per tenant (the
        /// `open.tenant` field; default tenant otherwise).
        max_per_tenant "N": usize,
        /// At most N handed-out, unreported configurations per
        /// tenant; a `next` beyond it is answered `overloaded`.
        max_inflight "N": usize,
        /// Serve at most N concurrent connections; one beyond that
        /// is answered with one `overloaded` line and closed
        /// (default 4096 — connections cost the poll(2) reactor an
        /// fd, not a thread).
        max_connections "N": usize,
        /// On shutdown, wait up to N seconds for open connections
        /// to be answered and flushed before syncing journals and
        /// exiting (default 5).
        drain_secs "N": Secs,
        /// Stripe live sessions across N locks; concurrent clients
        /// on different sessions rarely contend (default: one shard
        /// per available CPU).
        shards "N": usize,
        /// Event-loop threads owning the connection sockets
        /// (default: auto from available parallelism, 1-4).
        io_threads "N": usize,
        /// Handler threads serving parsed requests against the
        /// session manager (default: auto, 2-16).
        handlers "N": usize,
    }

    struct ClientArgs {
        ..service: Service,
        ..measure: Measure,
        ..reconnect: Reconnect,
        /// Ask the service to resume this key's run journal (needs
        /// a service started with --journal-dir).
        resume,
    }

    struct LookupArgs {
        ..service: Service,
        /// Print the service's stored best configuration for KERNEL
        /// instead of tuning.
        lookup "KERNEL": String,
        /// The device of the key (default: the service's).
        device "D": String,
        /// The workload of the key (default: the service's).
        workload "W": String,
    }

    struct CampaignArgs {
        ..measure: Measure,
        ..parallel: Parallel,
        ..reconnect: Reconnect,
        /// Validate, print the execution plan (order, policies,
        /// budget), run nothing.
        dry_run,
        /// Campaign state: the campaign journal, each node's run
        /// journal, and report.json (default: <campaign
        /// file>.state/).
        state_dir "DIR": PathBuf,
        /// Resume from the campaign journal: finished nodes are
        /// restored verbatim (zero re-execution), an in-flight node
        /// replays its run journal and continues.
        resume,
        /// Execute nodes against this tuning service instead of
        /// locally (the service searches and owns run journals;
        /// this process measures).
        addr "HOST:PORT": String,
        /// Run up to N independent nodes at once (overrides the
        /// campaign file's `concurrency`).
        concurrency "N": usize,
        /// Structured NDJSON trace: campaign_node, campaign_budget,
        /// campaign_skip, plus each local node's session events.
        trace "FILE": PathBuf,
        // Chaos hook for crash tests: die fatally after N campaign-journal
        // appends, exactly as SIGKILL at that boundary would.
        kill_after_appends "N": u64 [hidden],
    }
}

impl Measure {
    /// The run options these flags set, every other one at its default.
    fn options(&self) -> atf_cli::RunOptions {
        atf_cli::RunOptions {
            timeout: self.timeout.as_ref().map(|s| s.0),
            retries: self.retries.unwrap_or(0),
            breaker: self.breaker,
            ..atf_cli::RunOptions::default()
        }
    }
}

impl Reconnect {
    fn backoff(&self) -> Option<Duration> {
        self.backoff_ms
            .map(|ms| Duration::from_millis(u64::from(ms)))
    }
}

/// `atf-tune help <command>`: the command's prose around the flag lines
/// its tables render; the command list for anything else.
fn usage(command: &str) -> String {
    let mut out = String::new();
    match command {
        "run" => {
            out.push_str(RUN_USAGE);
            RunArgs::usage(&mut out);
        }
        "serve" => {
            out.push_str(SERVE_USAGE);
            ServeArgs::usage(&mut out);
        }
        "client" => {
            out.push_str(CLIENT_USAGE);
            ClientArgs::usage(&mut out);
            out.push_str("\n\nlookup options:");
            LookupArgs::usage(&mut out);
            out.push_str(CLIENT_EPILOGUE);
        }
        "campaign" => {
            out.push_str(CAMPAIGN_USAGE);
            CampaignArgs::usage(&mut out);
            out.push_str(CAMPAIGN_EPILOGUE);
        }
        _ => out.push_str(USAGE),
    }
    out
}

/// A usage error: the message and the command's usage on stderr, exit 2.
fn usage_error(command: &str, message: &str) -> ExitCode {
    eprintln!("atf-tune {command}: {message}");
    eprintln!("{}", usage(command));
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let wants_help = rest.iter().any(|a| a == "--help" || a == "-h");
    // Each command's `Err` is an early exit whose message is already out.
    let topic = match command.as_str() {
        "--help" | "-h" => "",
        "help" => rest.first().map_or("", String::as_str),
        command @ ("run" | "serve" | "client" | "campaign") if wants_help => command,
        "run" => return cmd_run(rest).unwrap_or_else(|code| code),
        "serve" => return cmd_serve(rest).unwrap_or_else(|code| code),
        "client" => return cmd_client(rest).unwrap_or_else(|code| code),
        "campaign" => return cmd_campaign(rest).unwrap_or_else(|code| code),
        other => {
            eprintln!("atf-tune: unknown command or option `{other}`");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", usage(topic));
    ExitCode::SUCCESS
}

/// Loads a tuning spec; an unreadable or invalid one is a usage error.
fn load_spec(path: &str) -> Result<atf_cli::TuningSpec, ExitCode> {
    atf_cli::TuningSpec::load(path).map_err(|e| {
        eprintln!("atf-tune: {e}");
        ExitCode::from(2)
    })
}

fn cmd_run(args: &[String]) -> Result<ExitCode, ExitCode> {
    let (run, mut paths) = RunArgs::parse(args, 1).map_err(|m| usage_error("run", &m))?;
    if run.resume && run.journal.is_none() {
        return Err(usage_error("run", "`--resume` needs `--journal PATH`"));
    }
    let path = paths
        .pop()
        .ok_or_else(|| usage_error("run", "need a <spec.json>"))?;
    let spec = load_spec(&path)?;
    let opts = atf_cli::RunOptions {
        journal: run.journal,
        resume: run.resume,
        workers: run.parallel.workers.unwrap_or(1),
        trace: run.trace,
        metrics: run.metrics,
        strict_journal: run.strict_journal,
        ..run.measure.options()
    };
    match atf_cli::run_with(&spec, &opts) {
        Ok(outcome) => print!("{}", atf_cli::report(&outcome)),
        Err(e) => {
            eprintln!("atf-tune: {e}");
            return Err(failure_code(&e));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Exit code for a failed run: capacity rejection (`overloaded` outliving
/// the retry budget) is 3, real failures 1 — scripts can tell them apart.
fn failure_code(e: &atf_cli::CliError) -> ExitCode {
    match e {
        atf_cli::CliError::Overloaded(_) => ExitCode::from(3),
        _ => ExitCode::FAILURE,
    }
}

fn cmd_campaign(args: &[String]) -> Result<ExitCode, ExitCode> {
    let validate_only = args.first().map(String::as_str) == Some("validate");
    let args = &args[usize::from(validate_only)..];
    let (campaign, mut paths) =
        CampaignArgs::parse(args, 1).map_err(|m| usage_error("campaign", &m))?;
    let path = paths
        .pop()
        .map(PathBuf::from)
        .ok_or_else(|| usage_error("campaign", "need a <campaign.json>"))?;
    if validate_only || campaign.dry_run {
        // Validation catches everything the runner would reject — graph
        // structure, policies, budgets, every node's tuning spec — and
        // runs nothing: zero evaluations, zero journal writes.
        return match atf_cli::campaign::load_campaign(&path, campaign.concurrency) {
            Ok((plan, _)) => {
                print!("{}", atf_cli::campaign::dry_run_summary(&plan));
                println!("campaign is valid; nothing was executed");
                Ok(ExitCode::SUCCESS)
            }
            Err(e) => {
                eprintln!("atf-tune campaign: {e}");
                Err(ExitCode::from(2))
            }
        };
    }
    // `--resume` resumes the campaign; whether a node resumes is the
    // campaign runner's decision.
    let opts = atf_cli::campaign::CampaignOptions {
        state_dir: campaign.state_dir,
        resume: campaign.resume,
        addr: campaign.addr,
        node_opts: atf_cli::RunOptions {
            workers: campaign.parallel.workers.unwrap_or(1),
            reconnect_backoff: campaign.reconnect.backoff(),
            ..campaign.measure.options()
        },
        trace: campaign.trace,
        concurrency: campaign.concurrency,
        kill_after_appends: campaign.kill_after_appends,
    };
    match atf_cli::campaign::run_campaign_file(&path, &opts) {
        Ok(report) => {
            print!("{}", atf_cli::campaign::summary_table(&report));
            Ok(ExitCode::from(atf_cli::campaign::exit_code(&report)))
        }
        Err(e) => {
            eprintln!("atf-tune campaign: {e}");
            Err(match e {
                atf_cli::CliError::Spec(_) | atf_cli::CliError::Constraint { .. } => {
                    ExitCode::from(2)
                }
                e => failure_code(&e),
            })
        }
    }
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, ExitCode> {
    let (serve, _) = ServeArgs::parse(args, 0).map_err(|m| usage_error("serve", &m))?;
    let addr = serve.addr.unwrap_or_else(|| DEFAULT_ADDR.to_string());
    let failed = |what: String| {
        eprintln!("atf-tune serve: {what}");
        ExitCode::FAILURE
    };
    let manager = atf_service::SessionManager::new(atf_service::ManagerConfig {
        db_path: serve.db,
        idle_timeout: Duration::from_secs(serve.idle_secs.unwrap_or(900)),
        journal_dir: serve.journal_dir,
        eval_deadline: serve.eval_deadline_secs.map(|s| s.0),
        admission: atf_service::AdmissionConfig {
            max_sessions: serve.max_sessions,
            max_sessions_per_tenant: serve.max_per_tenant,
            max_inflight_per_tenant: serve.max_inflight,
            ..Default::default()
        },
        shards: serve.shards,
    })
    .map_err(|e| failed(format!("could not load database: {e}")))?;
    let defaults = atf_service::ServerConfig::default();
    let server_config = atf_service::ServerConfig {
        // An absent flag keeps the reactor's 4096-slot default.
        max_connections: serve.max_connections.unwrap_or(defaults.max_connections),
        drain_timeout: serve.drain_secs.map_or(defaults.drain_timeout, |s| s.0),
        io_threads: serve.io_threads,
        handlers: serve.handlers,
    };
    let server = atf_service::Server::bind_with(&addr, Arc::new(manager), server_config)
        .map_err(|e| failed(format!("could not bind {addr}: {e}")))?;
    server.install_sigint();
    match server.local_addr() {
        Ok(bound) => eprintln!("atf-tune: serving on {bound} (ctrl-c to stop)"),
        Err(_) => eprintln!("atf-tune: serving on {addr} (ctrl-c to stop)"),
    }
    server.run().map_err(|e| failed(e.to_string()))?;
    eprintln!("atf-tune: shut down");
    Ok(ExitCode::SUCCESS)
}

fn cmd_client(args: &[String]) -> Result<ExitCode, ExitCode> {
    // A flag only a lookup takes makes this a lookup; otherwise it is a
    // remote run of a spec.
    if args
        .iter()
        .any(|a| LookupArgs::declares(a) && !ClientArgs::declares(a))
    {
        return client_lookup(args);
    }
    let (client, mut paths) = ClientArgs::parse(args, 1).map_err(|m| usage_error("client", &m))?;
    let path = paths
        .pop()
        .ok_or_else(|| usage_error("client", "need a <spec.json> or --lookup KERNEL"))?;
    let opts = atf_cli::RunOptions {
        resume: client.resume,
        reconnect_backoff: client.reconnect.backoff(),
        ..client.measure.options()
    };
    // Self-healing connection: connects lazily, and on a dropped
    // connection, lost response, or timeout it backs off (exponentially,
    // jittered) and resends the same request — the service deduplicates by
    // request id, so retries stay exactly-once.
    let mut remote = connect(client.service, opts.retries.max(3), opts.reconnect_backoff);
    let spec = load_spec(&path)?;
    match atf_cli::run_remote_with(&spec, &mut remote, &opts) {
        Ok(response) => print!("{}", atf_cli::report_remote(&response)),
        Err(e) => {
            eprintln!("atf-tune client: {e}");
            return Err(failure_code(&e));
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn client_lookup(args: &[String]) -> Result<ExitCode, ExitCode> {
    let error = |m: &str| usage_error("client", m);
    let (lookup, extra) = LookupArgs::parse(args, usize::MAX).map_err(|m| error(&m))?;
    let kernel = lookup
        .lookup
        .ok_or_else(|| error("`--device` and `--workload` need `--lookup KERNEL`"))?;
    if let Some(extra) = extra.first() {
        return Err(error(&format!(
            "a lookup takes no <spec.json>, got `{extra}`"
        )));
    }
    let mut remote = connect(lookup.service, 3, None);
    match remote.lookup(
        &kernel,
        lookup.device.as_deref(),
        lookup.workload.as_deref(),
    ) {
        Ok(Some(response)) => {
            print!("{}", atf_cli::report_remote(&response));
            Ok(ExitCode::SUCCESS)
        }
        Ok(None) => {
            eprintln!("atf-tune client: no stored result for `{kernel}`");
            Err(ExitCode::FAILURE)
        }
        Err(e) => {
            eprintln!("atf-tune client: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn connect(
    service: Service,
    retries: u32,
    backoff: Option<Duration>,
) -> atf_service::Client<atf_service::ReconnectingTransport<atf_service::TcpTransport>> {
    let addr = service.addr.unwrap_or_else(|| DEFAULT_ADDR.to_string());
    let backoff = backoff.unwrap_or(atf_cli::DEFAULT_RECONNECT_BACKOFF);
    atf_service::Client::new(atf_service::ReconnectingTransport::tcp(
        &addr, retries, backoff,
    ))
}
