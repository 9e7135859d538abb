//! Black-box tests of the `atf-tune` binary: documented exit codes
//! (0 success, 1 tuning failure, 2 usage error), per-subcommand usage
//! text, and the serve/client pair end to end across real processes.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Output, Stdio};

fn atf_tune() -> Command {
    Command::new(env!("CARGO_BIN_EXE_atf-tune"))
}

fn run_with(args: &[&str]) -> Output {
    atf_tune().args(args).output().unwrap()
}

fn exit_code(output: &Output) -> i32 {
    output.status.code().expect("no exit code")
}

#[test]
fn no_args_is_a_usage_error() {
    let out = run_with(&[]);
    assert_eq!(exit_code(&out), 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: atf-tune"));
}

#[test]
fn help_exits_zero() {
    for args in [
        &["--help"][..],
        &["-h"][..],
        &["help"][..],
        &["help", "run"][..],
        &["help", "serve"][..],
        &["help", "client"][..],
        &["run", "--help"][..],
        &["serve", "--help"][..],
        &["client", "--help"][..],
    ] {
        let out = run_with(args);
        assert_eq!(exit_code(&out), 0, "{args:?} should exit 0");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("usage:"),
            "{args:?} should print usage to stdout"
        );
    }
    let serve_help = run_with(&["help", "serve"]);
    assert!(String::from_utf8_lossy(&serve_help.stdout).contains("--addr"));
}

#[test]
fn bad_inputs_are_usage_errors() {
    // Unknown flag, a bare path (not a command), missing spec, unreadable
    // spec, bad flag value.
    assert_eq!(exit_code(&run_with(&["--wat"])), 2);
    assert_eq!(exit_code(&run_with(&["spec.json"])), 2);
    assert_eq!(exit_code(&run_with(&["run"])), 2);
    assert_eq!(exit_code(&run_with(&["run", "/nonexistent/spec.json"])), 2);
    assert_eq!(exit_code(&run_with(&["serve", "--idle-secs", "soon"])), 2);
    assert_eq!(exit_code(&run_with(&["serve", "--addr"])), 2);
    assert_eq!(exit_code(&run_with(&["client"])), 2);
    assert_eq!(exit_code(&run_with(&["client", "a.json", "b.json"])), 2);
    // Fault-tolerance flags: --resume needs --journal, values must parse.
    assert_eq!(exit_code(&run_with(&["run", "--resume", "s.json"])), 2);
    assert_eq!(
        exit_code(&run_with(&["run", "--timeout", "-3", "s.json"])),
        2
    );
    assert_eq!(
        exit_code(&run_with(&["run", "--retries", "many", "s.json"])),
        2
    );
    assert_eq!(
        exit_code(&run_with(&["serve", "--eval-deadline-secs", "soon"])),
        2
    );
}

/// A leftover `--x` is named as an unknown option (not mistaken for a
/// path) with the command's usage, exit 2 — the removed space-cache flags
/// included, and before anything is created on disk.
#[test]
fn unknown_options_are_named_with_the_usage() {
    let dir = std::env::temp_dir().join(format!("atf-cli-bin-unknown-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = dir.join("cache");
    let db = dir.join("db.json");
    let (cache, db) = (cache.to_str().unwrap(), db.to_str().unwrap());
    for (args, option) in [
        (
            &["run", "--space-cache", cache, "spec.json"][..],
            "--space-cache",
        ),
        (
            &["run", "spec.json", "--space-cache-max-mb", "5"][..],
            "--space-cache-max-mb",
        ),
        (
            &["serve", "--db", db, "--space-cache", cache][..],
            "--space-cache",
        ),
        (
            &["serve", "--db", db, "--space-cache-max-mb", "5"][..],
            "--space-cache-max-mb",
        ),
        (
            &["client", "--journal", "j.ndjson", "spec.json"][..],
            "--journal",
        ),
        (&["client", "--lookup", "k", "--wat"][..], "--wat"),
        (&["campaign", "--wat", "camp.json"][..], "--wat"),
        (&["client", "--workers", "4", "spec.json"][..], "--workers"),
        (&["client", "--metrics", "spec.json"][..], "--metrics"),
        (&["campaign", "--metrics", "camp.json"][..], "--metrics"),
    ] {
        let out = run_with(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(exit_code(&out), 2, "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown option `{option}`")),
            "{args:?}: {stderr}"
        );
        let usage = format!("usage: atf-tune {}", args[0]);
        assert!(stderr.contains(&usage), "{args:?}: {stderr}");
    }
    assert!(!dir.exists(), "a usage error must not touch the disk");
    for command in ["run", "serve"] {
        let help = run_with(&["help", command]);
        let text = String::from_utf8_lossy(&help.stdout).to_lowercase();
        assert!(!text.contains("cache"), "help {command}: {text}");
    }
}

#[cfg(unix)]
fn write_executable(path: &std::path::Path, body: &str) {
    let mut f = std::fs::File::create(path).unwrap();
    writeln!(f, "#!/bin/sh\n{body}").unwrap();
    use std::os::unix::fs::PermissionsExt;
    std::fs::set_permissions(path, std::fs::Permissions::from_mode(0o755)).unwrap();
}

/// A tuning failure (empty search space) exits 1, not 2.
#[cfg(unix)]
#[test]
fn tuning_failure_exits_one() {
    let dir = std::env::temp_dir().join(format!("atf-cli-bin-fail-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let source = dir.join("prog.sh");
    write_executable(&source, "true");
    let run_sh = dir.join("run.sh");
    write_executable(&run_sh, "sh \"$ATF_SOURCE\"");
    let spec_path = dir.join("spec.json");
    std::fs::write(
        &spec_path,
        format!(
            r#"{{
              "program": {{"source": "{}", "run": "{}"}},
              "parameters": [{{"name": "X", "set": [2, 4], "constraint": "less_than(1)"}}]
            }}"#,
            source.display(),
            run_sh.display()
        ),
    )
    .unwrap();
    let out = run_with(&["run", spec_path.to_str().unwrap()]);
    assert_eq!(exit_code(&out), 1);
    assert!(String::from_utf8_lossy(&out.stderr).contains("tuning failed"));
    std::fs::remove_dir_all(&dir).ok();
}

/// `--strict-journal` makes a journal write failure exit 1 with the journal
/// error at every `--workers` value. The failure is real: a directory sits
/// where the 64-entry checkpoint compaction stages its `.tmp` file.
#[cfg(unix)]
#[test]
fn strict_journal_failure_exits_one_at_any_worker_count() {
    let dir = std::env::temp_dir().join(format!("atf-cli-bin-strict-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let source = dir.join("prog.sh");
    write_executable(&source, "echo $ATF_TP_X > \"$ATF_LOG_FILE\"");
    let run_sh = dir.join("run.sh");
    write_executable(&run_sh, "sh \"$ATF_SOURCE\"");
    let spec_path = dir.join("spec.json");
    std::fs::write(
        &spec_path,
        format!(
            r#"{{
              "program": {{"source": "{}", "run": "{}", "log_file": "{}"}},
              "parameters": [{{"name": "X", "interval": {{"begin": 1, "end": 80}}}}],
              "search": {{"technique": "exhaustive"}}
            }}"#,
            source.display(),
            run_sh.display(),
            dir.join("cost.log").display()
        ),
    )
    .unwrap();
    for workers in ["1", "2"] {
        let journal = dir.join(format!("j{workers}.ndjson"));
        std::fs::create_dir_all(format!("{}.ckpt.tmp", journal.display())).unwrap();
        let out = run_with(&[
            "run",
            "--strict-journal",
            "--workers",
            workers,
            "--journal",
            journal.to_str().unwrap(),
            spec_path.to_str().unwrap(),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(exit_code(&out), 1, "--workers {workers}: {stderr}");
        assert!(
            stderr.contains("run journal error"),
            "--workers {workers}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// serve + client across real processes: tune remotely, look the result
/// up, then stop the server with SIGINT and see it exit cleanly.
#[cfg(unix)]
#[test]
fn serve_and_client_end_to_end() {
    let dir = std::env::temp_dir().join(format!("atf-cli-bin-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("cost.log");
    let source = dir.join("prog.sh");
    write_executable(
        &source,
        &format!(
            "B=$ATF_TP_BLOCK\nD=$((B - 12)); [ $D -lt 0 ] && D=$((-D))\necho $((3 + D)) > {}",
            log.display()
        ),
    );
    let run_sh = dir.join("run.sh");
    write_executable(&run_sh, "sh \"$ATF_SOURCE\"");
    let spec_path = dir.join("spec.json");
    std::fs::write(
        &spec_path,
        format!(
            r#"{{
              "program": {{"source": "{}", "run": "{}", "log_file": "{}"}},
              "parameters": [{{"name": "BLOCK", "interval": {{"begin": 8, "end": 16}}}}],
              "search": {{"technique": "exhaustive"}},
              "kernel_name": "bin-e2e"
            }}"#,
            source.display(),
            run_sh.display(),
            log.display()
        ),
    )
    .unwrap();
    let db_path = dir.join("db.json");

    // A local `run` stores into the same database file first: one format,
    // so the service below must serve that record too.
    let run_spec_path = dir.join("run-spec.json");
    let run_spec = std::fs::read_to_string(&spec_path).unwrap().replace(
        r#""kernel_name": "bin-e2e""#,
        &format!(
            r#""kernel_name": "bin-run", "database": "{}""#,
            db_path.display()
        ),
    );
    std::fs::write(&run_spec_path, run_spec).unwrap();
    let local = run_with(&["run", run_spec_path.to_str().unwrap()]);
    assert_eq!(exit_code(&local), 0);

    // Start the service on an ephemeral port; its first stderr line
    // announces the bound address.
    let mut server = atf_tune()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--db",
            db_path.to_str().unwrap(),
        ])
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut server_stderr = BufReader::new(server.stderr.take().unwrap());
    let mut banner = String::new();
    server_stderr.read_line(&mut banner).unwrap();
    let addr = banner
        .split("serving on ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner: {banner:?}"))
        .to_string();

    let tuned = run_with(&["client", "--addr", &addr, spec_path.to_str().unwrap()]);
    assert_eq!(
        exit_code(&tuned),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&tuned.stderr)
    );
    let report = String::from_utf8_lossy(&tuned.stdout).to_string();
    assert!(report.contains("BLOCK=12"), "report: {report}");
    assert!(report.contains("best cost:    3"), "report: {report}");

    let hit = run_with(&["client", "--addr", &addr, "--lookup", "bin-e2e"]);
    assert_eq!(exit_code(&hit), 0);
    let hit_report = String::from_utf8_lossy(&hit.stdout).to_string();
    assert!(hit_report.contains("BLOCK=12"), "report: {hit_report}");
    assert!(
        hit_report.contains("served from:  database"),
        "report: {hit_report}"
    );

    let run_hit = run_with(&["client", "--addr", &addr, "--lookup", "bin-run"]);
    assert_eq!(exit_code(&run_hit), 0, "the record `run` stored is served");
    assert!(String::from_utf8_lossy(&run_hit.stdout).contains("BLOCK=12"));

    let miss = run_with(&["client", "--addr", &addr, "--lookup", "never-tuned"]);
    assert_eq!(exit_code(&miss), 1);

    // Graceful shutdown on SIGINT.
    let kill = Command::new("kill")
        .args(["-INT", &server.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());
    let status = server.wait().unwrap();
    assert!(status.success(), "server exit: {status:?}");
    assert!(db_path.exists(), "database not persisted");
    assert!(
        !dir.join("space-cache").exists(),
        "`serve --db` keeps no space cache beside the database"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes a slow deterministic tuning spec into `dir`: each evaluation
/// sleeps `sleep_secs`, then reports a cost with its optimum at BLOCK=9.
#[cfg(unix)]
fn write_slow_spec(dir: &std::path::Path, kernel: &str, sleep_secs: &str) -> std::path::PathBuf {
    let log = dir.join("cost.log");
    let source = dir.join("prog.sh");
    write_executable(
        &source,
        &format!(
            "sleep {sleep_secs}\nB=$ATF_TP_BLOCK\nD=$((B - 9)); [ $D -lt 0 ] && D=$((-D))\necho $((2 + D)) > {}",
            log.display()
        ),
    );
    let run_sh = dir.join("run.sh");
    write_executable(&run_sh, "sh \"$ATF_SOURCE\"");
    let spec_path = dir.join("spec.json");
    std::fs::write(
        &spec_path,
        format!(
            r#"{{
              "program": {{"source": "{}", "run": "{}", "log_file": "{}"}},
              "parameters": [{{"name": "BLOCK", "interval": {{"begin": 1, "end": 12}}}}],
              "search": {{"technique": "exhaustive"}},
              "kernel_name": "{kernel}"
            }}"#,
            source.display(),
            run_sh.display(),
            log.display()
        ),
    )
    .unwrap();
    spec_path
}

/// The line `best config:  ...` of a report, normalized across the local
/// (`{BLOCK=9}`) and remote (`BLOCK=9`) renderings.
fn best_config_line(report: &str) -> String {
    report
        .lines()
        .find(|l| l.starts_with("best config:"))
        .unwrap_or_else(|| panic!("no best config in report: {report}"))
        .replace(['{', '}'], "")
}

/// A `run` killed with SIGKILL mid-flight leaves a replayable journal;
/// `run --resume` continues it and reproduces the uninterrupted run's best
/// configuration.
#[cfg(unix)]
#[test]
fn run_killed_mid_run_resumes_from_the_journal() {
    let dir = std::env::temp_dir().join(format!("atf-cli-bin-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = write_slow_spec(&dir, "kill-resume", "0.1");
    let spec = spec_path.to_str().unwrap();
    let journal = dir.join("run.ndjson");
    let journal_str = journal.to_str().unwrap().to_string();

    // Reference: the uninterrupted run.
    let reference = run_with(&["run", spec]);
    assert_eq!(
        exit_code(&reference),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&reference.stderr)
    );
    let reference_best = best_config_line(&String::from_utf8_lossy(&reference.stdout));

    // Journaled run, hard-killed mid-flight (12 evaluations of ≥0.1 s
    // each; the kill lands a few evaluations in).
    let mut victim = atf_tune()
        .args(["run", "--journal", &journal_str, spec])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(600));
    Command::new("kill")
        .args(["-KILL", &victim.id().to_string()])
        .status()
        .unwrap();
    let status = victim.wait().unwrap();
    assert!(!status.success(), "the victim must die by signal");
    assert!(journal.exists(), "no journal left behind");
    let journaled_entries = std::fs::read_to_string(&journal)
        .unwrap()
        .lines()
        .count()
        .saturating_sub(1); // header line

    // Resume and finish; the result matches the uninterrupted run.
    let resumed = run_with(&["run", "--journal", &journal_str, "--resume", spec]);
    assert_eq!(
        exit_code(&resumed),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let report = String::from_utf8_lossy(&resumed.stdout).to_string();
    assert_eq!(best_config_line(&report), reference_best);
    if journaled_entries > 0 {
        assert!(
            report.contains("resumed:"),
            "{journaled_entries} journaled evaluations should be replayed; report: {report}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Spawns `atf-tune serve` with the given extra flags on an ephemeral port
/// and returns the child, the address it announced, and its stderr reader
/// (which must stay alive: dropping it closes the pipe and later server
/// log lines would fail).
#[cfg(unix)]
fn spawn_server(
    extra: &[&str],
) -> (
    std::process::Child,
    String,
    BufReader<std::process::ChildStderr>,
) {
    let mut cmd = atf_tune();
    cmd.args(["serve", "--addr", "127.0.0.1:0"]);
    cmd.args(extra);
    let mut server = cmd.stderr(Stdio::piped()).spawn().unwrap();
    let mut stderr = BufReader::new(server.stderr.take().unwrap());
    let mut banner = String::new();
    stderr.read_line(&mut banner).unwrap();
    let addr = banner
        .split("serving on ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner: {banner:?}"))
        .to_string();
    (server, addr, stderr)
}

/// A `serve` process killed with SIGKILL mid-session leaves its per-key
/// journal behind; a restarted server resumes the session from it when the
/// client reopens with `--resume`, reproducing the uninterrupted result.
#[cfg(unix)]
#[test]
fn serve_killed_mid_session_resumes_from_its_journal_dir() {
    let dir = std::env::temp_dir().join(format!("atf-cli-bin-srv-resume-{}", std::process::id()));
    let journal_dir = dir.join("journals");
    std::fs::create_dir_all(&journal_dir).unwrap();
    let spec_path = write_slow_spec(&dir, "srv-resume", "0.1");
    let spec = spec_path.to_str().unwrap();
    let jd = journal_dir.to_str().unwrap().to_string();

    // Reference: the same spec tuned locally (same technique, same space).
    let reference = run_with(&["run", spec]);
    assert_eq!(exit_code(&reference), 0);
    let reference_best = best_config_line(&String::from_utf8_lossy(&reference.stdout));

    // First server: hard-killed while a client session is mid-flight.
    let (mut server_a, addr_a, _stderr_a) = spawn_server(&["--journal-dir", &jd]);
    let mut client_a = atf_tune()
        .args(["client", "--addr", &addr_a, spec])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(800));
    Command::new("kill")
        .args(["-KILL", &server_a.id().to_string()])
        .status()
        .unwrap();
    server_a.wait().unwrap();
    // The client loses its server and fails; that's the point.
    let client_status = client_a.wait().unwrap();
    assert!(
        !client_status.success(),
        "client should fail when the server dies"
    );

    let journaled_entries: usize = std::fs::read_dir(&journal_dir)
        .unwrap()
        .filter_map(|e| std::fs::read_to_string(e.unwrap().path()).ok())
        .map(|text| text.lines().count().saturating_sub(1))
        .sum();

    // Second server over the same journal dir: `--resume` continues the
    // interrupted session instead of starting over.
    let (mut server_b, addr_b, _stderr_b) = spawn_server(&["--journal-dir", &jd]);
    let resumed = run_with(&["client", "--addr", &addr_b, "--resume", spec]);
    assert_eq!(
        exit_code(&resumed),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let report = String::from_utf8_lossy(&resumed.stdout).to_string();
    assert_eq!(best_config_line(&report), reference_best);
    if journaled_entries > 0 {
        assert!(
            report.contains("resumed:"),
            "{journaled_entries} journaled evaluations should be replayed; report: {report}"
        );
    }

    Command::new("kill")
        .args(["-INT", &server_b.id().to_string()])
        .status()
        .unwrap();
    assert!(server_b.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}

/// The ISSUE's observability acceptance run: a seeded 4-worker tuning run
/// with `--trace` and `--metrics` writes an NDJSON stream where every
/// line parses as a known trace event, the stream covers the whole
/// lifecycle (space_gen, handout, report, eval, proc, abort), and the
/// report ends with the metrics summary table.
#[cfg(unix)]
#[test]
fn run_with_trace_and_metrics_emits_parseable_events() {
    let dir = std::env::temp_dir().join(format!("atf-cli-bin-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let source = dir.join("prog.sh");
    write_executable(
        &source,
        "B=$ATF_TP_BLOCK\nD=$((B - 12)); [ $D -lt 0 ] && D=$((-D))\necho $((3 + D)) > \"$ATF_LOG_FILE\"",
    );
    let run_sh = dir.join("run.sh");
    write_executable(&run_sh, "sh \"$ATF_SOURCE\"");
    let log = dir.join("cost.log");
    let spec_path = dir.join("spec.json");
    std::fs::write(
        &spec_path,
        format!(
            r#"{{
              "program": {{"source": "{}", "run": "{}", "log_file": "{}"}},
              "parameters": [{{"name": "BLOCK", "interval": {{"begin": 8, "end": 16}}}}],
              "search": {{"technique": "exhaustive"}}
            }}"#,
            source.display(),
            run_sh.display(),
            log.display()
        ),
    )
    .unwrap();

    let trace_path = dir.join("t.ndjson");
    let out = run_with(&[
        "run",
        "--workers",
        "4",
        "--trace",
        trace_path.to_str().unwrap(),
        "--metrics",
        spec_path.to_str().unwrap(),
    ]);
    assert_eq!(
        exit_code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Every trace line is a JSON object with a known `event` kind ...
    let body = std::fs::read_to_string(&trace_path).unwrap();
    assert!(!body.is_empty(), "trace file must not be empty");
    let mut kinds = std::collections::BTreeSet::new();
    for line in body.lines() {
        let event: atf_core::trace::TraceEvent = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("unparseable trace line {line:?}: {e}"));
        assert!(
            atf_core::trace::EVENT_KINDS.contains(&event.event.as_str()),
            "unknown event kind in {line:?}"
        );
        // ... carrying exactly the fields its kind declares.
        atf_core::trace::check_line(line).unwrap_or_else(|e| panic!("{e}"));
        kinds.insert(event.event.clone());
    }
    for required in ["space_gen", "handout", "report", "eval", "proc", "abort"] {
        assert!(
            kinds.contains(required),
            "trace missing `{required}` events; got {kinds:?}"
        );
    }

    // The report carries the run result AND the metrics summary table.
    let report = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(report.contains("BLOCK=12"), "report: {report}");
    assert!(report.contains("evaluations"), "report: {report}");
    assert!(report.contains("eval latency"), "report: {report}");
    assert!(report.contains("workers"), "report: {report}");
    std::fs::remove_dir_all(&dir).ok();
}
