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

  --timeout SECS     Kill any single measurement after SECS seconds
                     (counted as a `timeout` failure; fractions allowed).
  --retries N        Retry transient measurement failures up to N times,
                     with exponential backoff and jitter.
  --breaker N        Abort the run after N consecutive failed
                     evaluations (circuit breaker).
  --journal PATH     Append every evaluation to a crash-safe run journal
                     (NDJSON, checksummed, periodically compacted into an
                     atomically-written checkpoint) at PATH before applying
                     it.
  --resume           Replay the journal at --journal PATH first, then
                     continue the interrupted run where it stopped.
  --strict-journal   Treat a journal write failure as fatal. Default:
                     journaling degrades (tuning continues in memory) and
                     the report carries a warning.
  --workers N        Evaluate up to N configurations in parallel (default
                     1 = serial). With --resume the journal's recorded
                     pending window takes precedence over N.
  --trace PATH       Write a structured NDJSON event trace (space_gen,
                     space_chunk, handout, report, eval, retry, breaker,
                     abort, worker_busy, worker_idle, proc) to PATH.
  --metrics          Print a metrics summary after the run: eval-latency
                     histogram, failure taxonomy, window occupancy,
                     worker utilization, configs/sec, space generation.";

const SERVE_USAGE: &str = "usage: atf-tune serve [--addr HOST:PORT] [--db PATH] [--idle-secs N]
                      [--journal-dir DIR] [--eval-deadline-secs N]
                      [--max-sessions N] [--max-per-tenant N]
                      [--max-inflight N] [--max-connections N]
                      [--drain-secs N] [--shards N]
                      [--io-threads N] [--handlers N]

Runs the tuning service until SIGINT (ctrl-c), then drains gracefully:
stops accepting, lets in-flight sessions checkpoint their journals, and
exits within the drain deadline.

  --addr HOST:PORT   Listen address (default 127.0.0.1:7117).
  --db PATH          Tuning-database file: loaded at start, updated as
                     sessions finish (default: in-memory only).
  --idle-secs N      Expire sessions idle longer than N seconds
                     (default 900).
  --journal-dir DIR  Keep a per-key run journal in DIR; sessions opened
                     with `resume` continue from it after a crash.
  --eval-deadline-secs N
                     Auto-fail a handed-out configuration as a `timeout`
                     when no report arrives within N seconds.
  --max-sessions N   Admit at most N live sessions across all tenants;
                     an `open` beyond it is answered `overloaded` with a
                     retry_after_ms hint (default: unlimited).
  --max-per-tenant N Admit at most N live sessions per tenant (the
                     `open.tenant` field; default tenant otherwise).
  --max-inflight N   At most N handed-out, unreported configurations per
                     tenant; a `next` beyond it is answered `overloaded`.
  --max-connections N
                     Serve at most N concurrent connections; one beyond
                     that is answered with one `overloaded` line and
                     closed (default 4096 — connections cost the poll(2)
                     reactor an fd, not a thread).
  --drain-secs N     On shutdown, wait up to N seconds for open
                     connections to be answered and flushed before
                     checkpointing journals and exiting (default 5).
  --shards N         Stripe live sessions across N locks; concurrent
                     clients on different sessions rarely contend
                     (default: one shard per available CPU).
  --io-threads N     Event-loop threads owning the connection sockets
                     (default: auto from available parallelism, 1-4).
  --handlers N       Handler threads serving parsed requests against the
                     session manager (default: auto, 2-16).";

const CLIENT_USAGE: &str = "usage: atf-tune client [--addr HOST:PORT] [options] <spec.json>
       atf-tune client [--addr HOST:PORT] --lookup KERNEL [--device D] [--workload W]

With a spec: opens a session on the service, measures each configuration
the service hands out by running the spec's program locally, and prints
the final result. With --lookup: prints the service's stored best
configuration for the key, without tuning.

  --addr HOST:PORT   Service address (default 127.0.0.1:7117).
  --timeout SECS     Kill any single local measurement after SECS seconds
                     (reported to the service as a `timeout` failure).
  --retries N        Retry transient measurement failures up to N times
                     before reporting them. Also raises the connection
                     retry budget (at least 3 reconnect attempts are
                     always made).
  --backoff-ms MS    Base delay before the first reconnect attempt,
                     doubling with jitter each retry (default 200).
  --breaker N        Ask the service to abort the session after N
                     consecutive failed evaluations.
  --resume           Ask the service to resume this key's run journal
                     (needs a service started with --journal-dir).

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
bit-identical to an uninterrupted execution.

  validate           Validate only: graph structure (duplicates, unknown
                     references, cycles), policies, budgets, and every
                     node's tuning spec. Runs nothing. Exit 0 when valid,
                     2 otherwise.
  --dry-run          Validate, print the execution plan (order, policies,
                     budget), run nothing.
  --state-dir DIR    Campaign state: the campaign journal, each node's
                     run journal, and report.json
                     (default: <campaign file>.state/).
  --resume           Resume from the campaign journal: finished nodes are
                     restored verbatim (zero re-execution), an in-flight
                     node replays its run journal and continues.
  --addr HOST:PORT   Execute nodes against this tuning service instead of
                     locally (the service searches and owns run journals;
                     this process measures).
  --concurrency N    Run up to N independent nodes at once (overrides the
                     campaign file's `concurrency`).
  --trace FILE       Structured NDJSON trace: campaign_node,
                     campaign_budget, campaign_skip, plus each local
                     node's session events.
  --timeout SECS, --retries N, --breaker N, --workers N, --backoff-ms MS
                     Per-node run options (see `atf-tune help run`).

exit codes: 0 campaign completed (including budget_exhausted verdicts),
            1 a node failed, 2 usage/validation error, 3 a node was shed
            with `overloaded` after exhausting retries";

const DEFAULT_ADDR: &str = "127.0.0.1:7117";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some("help") => {
            let text = match args.get(1).map(String::as_str) {
                Some("run") => RUN_USAGE,
                Some("serve") => SERVE_USAGE,
                Some("client") => CLIENT_USAGE,
                Some("campaign") => CAMPAIGN_USAGE,
                _ => USAGE,
            };
            println!("{text}");
            ExitCode::SUCCESS
        }
        Some("run") => cmd_run(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some(other) => {
            eprintln!("atf-tune: unknown command or option `{other}`");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

/// Pops `--flag VALUE` from `args`; `Err` on a flag without a value.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) if i + 1 < args.len() => {
            let value = args.remove(i + 1);
            args.remove(i);
            Ok(Some(value))
        }
        Some(_) => Err(format!("`{flag}` needs a value")),
    }
}

/// What is left of `args` once every known flag is taken: at most `max`
/// positional arguments. A leftover `--x` is named as an unknown option
/// instead of passing for a path.
fn positionals(args: &[String], max: usize) -> Result<&[String], String> {
    if let Some(option) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown option `{option}`"));
    }
    match args.get(max) {
        Some(extra) => Err(format!("unexpected argument `{extra}`")),
        None => Ok(args),
    }
}

/// Pops a bare `--flag` from `args`; returns whether it was present.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Pops `--flag SECS` (fractional seconds allowed) as a [`Duration`].
fn take_secs_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<Duration>, String> {
    match take_flag(args, flag)? {
        None => Ok(None),
        Some(s) => {
            let secs: f64 = s
                .parse()
                .map_err(|_| format!("`{flag}` needs a number of seconds, got `{s}`"))?;
            if !secs.is_finite() || secs <= 0.0 {
                return Err(format!("`{flag}` needs a positive number of seconds"));
            }
            Ok(Some(Duration::from_secs_f64(secs)))
        }
    }
}

/// Pops `--flag N` as a `u32`.
fn take_u32_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<u32>, String> {
    match take_flag(args, flag)? {
        None => Ok(None),
        Some(s) => s
            .parse()
            .map(Some)
            .map_err(|_| format!("`{flag}` needs an integer, got `{s}`")),
    }
}

/// Parses the fault-tolerance flags shared by `run` and `client`.
/// `with_journal` enables the local-only `--journal PATH` flag.
fn take_run_options(
    args: &mut Vec<String>,
    with_journal: bool,
) -> Result<atf_cli::RunOptions, String> {
    let mut opts = atf_cli::RunOptions {
        timeout: take_secs_flag(args, "--timeout")?,
        retries: take_u32_flag(args, "--retries")?.unwrap_or(0),
        breaker: take_u32_flag(args, "--breaker")?,
        journal: None,
        resume: take_switch(args, "--resume"),
        workers: take_u32_flag(args, "--workers")?.unwrap_or(1) as usize,
        trace: None,
        metrics: take_switch(args, "--metrics"),
        strict_journal: false,
        reconnect_backoff: None,
        campaign: None,
    };
    if with_journal {
        opts.journal = take_flag(args, "--journal")?.map(Into::into);
        if opts.resume && opts.journal.is_none() {
            return Err("`--resume` needs `--journal PATH`".to_string());
        }
        opts.trace = take_flag(args, "--trace")?.map(Into::into);
        opts.strict_journal = take_switch(args, "--strict-journal");
    } else {
        opts.reconnect_backoff =
            take_u32_flag(args, "--backoff-ms")?.map(|ms| Duration::from_millis(u64::from(ms)));
    }
    Ok(opts)
}

fn cmd_run(args: &[String]) -> ExitCode {
    if wants_help(args) {
        println!("{RUN_USAGE}");
        return ExitCode::SUCCESS;
    }
    let mut args = args.to_vec();
    let parsed = (|| -> Result<(String, atf_cli::RunOptions), String> {
        let opts = take_run_options(&mut args, true)?;
        match positionals(&args, 1)? {
            [path] => Ok((path.clone(), opts)),
            _ => Err("need a <spec.json>".to_string()),
        }
    })();
    let (path, opts) = match parsed {
        Ok(p) => p,
        Err(m) => {
            eprintln!("atf-tune run: {m}");
            eprintln!("{RUN_USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = match atf_cli::TuningSpec::load(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("atf-tune: {e}");
            return ExitCode::from(2);
        }
    };
    match atf_cli::run_with(&spec, &opts) {
        Ok(outcome) => {
            print!("{}", atf_cli::report(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("atf-tune: {e}");
            failure_code(&e)
        }
    }
}

/// Exit code for a failed run: capacity rejection (`overloaded` outliving
/// the retry budget) is 3, real failures 1 — scripts can tell them apart.
fn failure_code(e: &atf_cli::CliError) -> ExitCode {
    match e {
        atf_cli::CliError::Overloaded(_) => ExitCode::from(3),
        _ => ExitCode::FAILURE,
    }
}

fn cmd_campaign(args: &[String]) -> ExitCode {
    if wants_help(args) {
        println!("{CAMPAIGN_USAGE}");
        return ExitCode::SUCCESS;
    }
    let mut args = args.to_vec();
    let validate_only = args.first().map(String::as_str) == Some("validate");
    if validate_only {
        args.remove(0);
    }
    struct Parsed {
        path: String,
        dry_run: bool,
        opts: atf_cli::campaign::CampaignOptions,
    }
    let parsed = (|| -> Result<Parsed, String> {
        let dry_run = take_switch(&mut args, "--dry-run");
        let state_dir = take_flag(&mut args, "--state-dir")?.map(Into::into);
        let addr = take_flag(&mut args, "--addr")?;
        let concurrency = take_u32_flag(&mut args, "--concurrency")?.map(|n| n as usize);
        let trace = take_flag(&mut args, "--trace")?.map(Into::into);
        // Hidden chaos hook for crash tests: die fatally after N campaign
        // journal appends, exactly as SIGKILL at that boundary would.
        let kill_after_appends = match take_flag(&mut args, "--kill-after-appends")? {
            Some(s) => Some(
                s.parse::<u64>()
                    .map_err(|_| format!("`--kill-after-appends` needs an integer, got `{s}`"))?,
            ),
            None => None,
        };
        let mut node_opts = take_run_options(&mut args, false)?;
        // `--resume` means "resume the campaign"; per-node resume is the
        // campaign runner's decision.
        let resume = node_opts.resume;
        node_opts.resume = false;
        let path = match positionals(&args, 1)? {
            [path] => path.clone(),
            _ => return Err("need a <campaign.json>".to_string()),
        };
        Ok(Parsed {
            path,
            dry_run,
            opts: atf_cli::campaign::CampaignOptions {
                state_dir,
                resume,
                addr,
                node_opts,
                trace,
                concurrency,
                kill_after_appends,
            },
        })
    })();
    let parsed = match parsed {
        Ok(p) => p,
        Err(m) => {
            eprintln!("atf-tune campaign: {m}");
            eprintln!("{CAMPAIGN_USAGE}");
            return ExitCode::from(2);
        }
    };
    if validate_only || parsed.dry_run {
        // Validation catches everything the runner would reject — graph
        // structure, policies, budgets, every node's tuning spec — and
        // runs nothing: zero evaluations, zero journal writes.
        let loaded = atf_cli::campaign::load_campaign(
            std::path::Path::new(&parsed.path),
            parsed.opts.concurrency,
        );
        return match loaded {
            Ok((plan, _)) => {
                print!("{}", atf_cli::campaign::dry_run_summary(&plan));
                println!("campaign is valid; nothing was executed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("atf-tune campaign: {e}");
                ExitCode::from(2)
            }
        };
    }
    match atf_cli::campaign::run_campaign_file(std::path::Path::new(&parsed.path), &parsed.opts) {
        Ok(report) => {
            print!("{}", atf_cli::campaign::summary_table(&report));
            ExitCode::from(atf_cli::campaign::exit_code(&report))
        }
        Err(e) => {
            eprintln!("atf-tune campaign: {e}");
            match e {
                atf_cli::CliError::Spec(_) | atf_cli::CliError::Constraint { .. } => {
                    ExitCode::from(2)
                }
                e => failure_code(&e),
            }
        }
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    if wants_help(args) {
        println!("{SERVE_USAGE}");
        return ExitCode::SUCCESS;
    }
    let mut args = args.to_vec();
    struct ServeArgs {
        addr: String,
        db: Option<String>,
        idle_secs: u64,
        journal_dir: Option<String>,
        eval_deadline: Option<Duration>,
        max_sessions: Option<usize>,
        max_per_tenant: Option<usize>,
        max_inflight: Option<usize>,
        max_connections: Option<usize>,
        drain: Option<Duration>,
        shards: Option<usize>,
        io_threads: Option<usize>,
        handlers: Option<usize>,
    }
    let parsed = (|| -> Result<ServeArgs, String> {
        let addr = take_flag(&mut args, "--addr")?.unwrap_or_else(|| DEFAULT_ADDR.to_string());
        let db = take_flag(&mut args, "--db")?;
        let idle_secs = match take_flag(&mut args, "--idle-secs")? {
            Some(s) => s
                .parse()
                .map_err(|_| format!("`--idle-secs` needs an integer, got `{s}`"))?,
            None => 900,
        };
        let parsed = ServeArgs {
            addr,
            db,
            idle_secs,
            journal_dir: take_flag(&mut args, "--journal-dir")?,
            eval_deadline: take_secs_flag(&mut args, "--eval-deadline-secs")?,
            max_sessions: take_u32_flag(&mut args, "--max-sessions")?.map(|n| n as usize),
            max_per_tenant: take_u32_flag(&mut args, "--max-per-tenant")?.map(|n| n as usize),
            max_inflight: take_u32_flag(&mut args, "--max-inflight")?.map(|n| n as usize),
            max_connections: take_u32_flag(&mut args, "--max-connections")?.map(|n| n as usize),
            drain: take_secs_flag(&mut args, "--drain-secs")?,
            shards: take_u32_flag(&mut args, "--shards")?.map(|n| n as usize),
            io_threads: take_u32_flag(&mut args, "--io-threads")?.map(|n| n as usize),
            handlers: take_u32_flag(&mut args, "--handlers")?.map(|n| n as usize),
        };
        positionals(&args, 0)?;
        Ok(parsed)
    })();
    let serve = match parsed {
        Ok(p) => p,
        Err(m) => {
            eprintln!("atf-tune serve: {m}");
            eprintln!("{SERVE_USAGE}");
            return ExitCode::from(2);
        }
    };

    let db_path: Option<std::path::PathBuf> = serve.db.map(Into::into);
    let manager = match atf_service::SessionManager::new(atf_service::ManagerConfig {
        db_path,
        idle_timeout: Duration::from_secs(serve.idle_secs),
        journal_dir: serve.journal_dir.map(Into::into),
        eval_deadline: serve.eval_deadline,
        admission: atf_service::AdmissionConfig {
            max_sessions: serve.max_sessions,
            max_sessions_per_tenant: serve.max_per_tenant,
            max_inflight_per_tenant: serve.max_inflight,
            ..Default::default()
        },
        shards: serve.shards,
    }) {
        Ok(m) => Arc::new(m),
        Err(e) => {
            eprintln!("atf-tune serve: could not load database: {e}");
            return ExitCode::FAILURE;
        }
    };
    let defaults = atf_service::ServerConfig::default();
    let server_config = atf_service::ServerConfig {
        // An absent flag keeps the reactor's 4096-slot default.
        max_connections: serve.max_connections.unwrap_or(defaults.max_connections),
        drain_timeout: serve.drain.unwrap_or(defaults.drain_timeout),
        io_threads: serve.io_threads,
        handlers: serve.handlers,
    };
    let server = match atf_service::Server::bind_with(&serve.addr, manager, server_config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("atf-tune serve: could not bind {}: {e}", serve.addr);
            return ExitCode::FAILURE;
        }
    };
    server.install_sigint();
    match server.local_addr() {
        Ok(bound) => eprintln!("atf-tune: serving on {bound} (ctrl-c to stop)"),
        Err(_) => eprintln!("atf-tune: serving on {} (ctrl-c to stop)", serve.addr),
    }
    match server.run() {
        Ok(()) => {
            eprintln!("atf-tune: shut down");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("atf-tune serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_client(args: &[String]) -> ExitCode {
    if wants_help(args) {
        println!("{CLIENT_USAGE}");
        return ExitCode::SUCCESS;
    }
    let mut args = args.to_vec();
    let parsed = (|| -> Result<(String, ClientMode), String> {
        let addr = take_flag(&mut args, "--addr")?.unwrap_or_else(|| DEFAULT_ADDR.to_string());
        if let Some(kernel) = take_flag(&mut args, "--lookup")? {
            let device = take_flag(&mut args, "--device")?;
            let workload = take_flag(&mut args, "--workload")?;
            positionals(&args, 0)?;
            return Ok((
                addr,
                ClientMode::Lookup {
                    kernel,
                    device,
                    workload,
                },
            ));
        }
        let opts = take_run_options(&mut args, false)?;
        match positionals(&args, 1)? {
            [path] => Ok((
                addr.clone(),
                ClientMode::Tune {
                    spec: path.clone(),
                    opts,
                },
            )),
            _ => Err("need a <spec.json> or --lookup KERNEL".to_string()),
        }
    })();
    let (addr, mode) = match parsed {
        Ok(p) => p,
        Err(m) => {
            eprintln!("atf-tune client: {m}");
            eprintln!("{CLIENT_USAGE}");
            return ExitCode::from(2);
        }
    };

    // Self-healing connection: connects lazily, and on a dropped
    // connection, lost response, or timeout it backs off (exponentially,
    // jittered) and resends the same request — the service deduplicates by
    // request id, so retries stay exactly-once.
    let (reconnect_retries, backoff) = match &mode {
        ClientMode::Tune { opts, .. } => (
            opts.retries.max(3),
            opts.reconnect_backoff
                .unwrap_or(atf_cli::DEFAULT_RECONNECT_BACKOFF),
        ),
        ClientMode::Lookup { .. } => (3, atf_cli::DEFAULT_RECONNECT_BACKOFF),
    };
    let transport = atf_service::ReconnectingTransport::tcp(&addr, reconnect_retries, backoff);
    let mut client = atf_service::Client::new(transport);
    match mode {
        ClientMode::Tune { spec, opts } => {
            let spec = match atf_cli::TuningSpec::load(&spec) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("atf-tune: {e}");
                    return ExitCode::from(2);
                }
            };
            match atf_cli::run_remote_with(&spec, &mut client, &opts) {
                Ok(response) => {
                    print!("{}", atf_cli::report_remote(&response));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("atf-tune client: {e}");
                    failure_code(&e)
                }
            }
        }
        ClientMode::Lookup {
            kernel,
            device,
            workload,
        } => match client.lookup(&kernel, device.as_deref(), workload.as_deref()) {
            Ok(Some(response)) => {
                print!("{}", atf_cli::report_remote(&response));
                ExitCode::SUCCESS
            }
            Ok(None) => {
                eprintln!("atf-tune client: no stored result for `{kernel}`");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("atf-tune client: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

enum ClientMode {
    Tune {
        spec: String,
        opts: atf_cli::RunOptions,
    },
    Lookup {
        kernel: String,
        device: Option<String>,
        workload: Option<String>,
    },
}
