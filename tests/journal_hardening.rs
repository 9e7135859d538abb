//! Journal storage hardening: checkpoint compaction must be observably
//! invisible (checkpoint + tail replays bit-identically to the full
//! journal), a kill at any point of the compaction sequence must still
//! resume correctly, pre-checksum v1–v3 journals must be refused without
//! being touched, and a full disk must degrade the session to in-memory
//! tuning instead of killing it. The service never compacts on its request
//! path, yet still resumes a journal an older, compacting build left.

use atf_core::abort;
use atf_core::journal::{checkpoint_path, JournalHeader, LoadedJournal};
use atf_core::param::{tp, ParamGroup};
use atf_core::prelude::*;
use atf_service::{ManagerConfig, Request, SessionManager};
use std::io::Write as _;
use std::path::{Path, PathBuf};

fn space() -> SearchSpace {
    let group = ParamGroup::new(vec![
        tp("X", Range::interval(1, 12)),
        tp("Y", Range::interval(1, 6)),
    ]);
    SearchSpace::generate(&[group])
}

/// Toy objective with a unique optimum at (X=7, Y=3).
fn objective() -> impl CostFunction<Cost = f64> + Send {
    cost_fn(|c: &Config| {
        let x = c.get_u64("X") as f64;
        let y = c.get_u64("Y") as f64;
        (x - 7.0).abs() + (y - 3.0).abs()
    })
}

fn technique() -> Box<dyn SearchTechnique> {
    Box::new(SimulatedAnnealing::with_seed(41))
}

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("atf-jh-{tag}-{}.ndjson", std::process::id()))
}

fn cleanup(path: &Path) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(checkpoint_path(path)).ok();
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".ckpt.tmp");
    std::fs::remove_file(PathBuf::from(tmp)).ok();
}

/// Drives a session to completion, reporting the toy objective.
fn drive(session: &mut TuningSession<f64>) {
    let mut cf = objective();
    while let Some(config) = session.next_config() {
        let outcome = cf.evaluate(&config);
        session.report(outcome).unwrap();
    }
}

fn journaled_session(path: &Path, checkpoint_every: Option<usize>) -> TuningSession<f64> {
    let mut session = TuningSession::<f64>::new(space(), technique())
        .unwrap()
        .abort_condition(abort::evaluations(50));
    if let Some(every) = checkpoint_every {
        session = session.journal_checkpoint_every(every);
    }
    session.journal_to(path).unwrap()
}

fn fresh_session() -> TuningSession<f64> {
    TuningSession::<f64>::new(space(), technique())
        .unwrap()
        .abort_condition(abort::evaluations(50))
}

/// Checkpoint compaction is observably invisible: a run compacted every 8
/// entries loads (checkpoint + live tail) to exactly the entry sequence of
/// the same run journaled without compaction, and both resume to the same
/// final result.
#[test]
fn checkpoint_plus_tail_replays_bit_identically_to_the_full_journal() {
    let compacted = journal_path("ckpt-equiv-compacted");
    let plain = journal_path("ckpt-equiv-plain");
    cleanup(&compacted);
    cleanup(&plain);

    let mut a = journaled_session(&compacted, Some(8));
    drive(&mut a);
    let reference = a.finish().unwrap();
    let mut b = journaled_session(&plain, None);
    drive(&mut b);
    b.finish().unwrap();

    // Compaction actually happened: a checkpoint file exists and the live
    // tail is shorter than the uncompacted journal.
    assert!(checkpoint_path(&compacted).exists());
    assert!(
        std::fs::metadata(&compacted).unwrap().len() < std::fs::metadata(&plain).unwrap().len()
    );

    let merged = LoadedJournal::load_with_checkpoint(&compacted).unwrap();
    let full = LoadedJournal::load(&plain).unwrap();
    // `elapsed_ms` is real wall-clock and legitimately differs between two
    // separate runs; everything that determines the replayed search state
    // must be bit-identical.
    let strip_clock = |entries: &[atf_core::journal::JournalEntry]| {
        entries
            .iter()
            .cloned()
            .map(|mut e| {
                e.elapsed_ms = None;
                e
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        strip_clock(&merged.entries),
        strip_clock(&full.entries),
        "replay streams must be bit-identical"
    );
    assert_eq!(merged.entries.len() as u64, reference.evaluations);

    // And both journals resume a fresh session to the same state.
    let mut from_merged = fresh_session();
    let replayed = from_merged.resume_from_journal(&compacted).unwrap();
    assert_eq!(replayed, reference.evaluations);
    let mut from_full = fresh_session();
    from_full.resume_from_journal(&plain).unwrap();
    let (r1, r2) = (from_merged.finish().unwrap(), from_full.finish().unwrap());
    assert_eq!(r1.best_config, r2.best_config);
    assert_eq!(r1.best_cost, r2.best_cost);
    assert_eq!(r1.evaluations, r2.evaluations);
    assert_eq!(r1.best_config, reference.best_config);

    cleanup(&compacted);
    cleanup(&plain);
}

/// Kill mid-compaction, *after* the checkpoint rename but *before* the
/// tail was rewritten: checkpoint and tail then hold the same entries, and
/// resume must deduplicate instead of double-replaying.
#[test]
fn kill_after_checkpoint_rename_does_not_double_replay() {
    let path = journal_path("kill-post-rename");
    cleanup(&path);

    let mut session = journaled_session(&path, None);
    let mut cf = objective();
    for _ in 0..17 {
        let config = session.next_config().expect("budget not exhausted yet");
        let outcome = cf.evaluate(&config);
        session.report(outcome).unwrap();
    }
    drop(session); // crash: 17 entries on disk, no finish

    // The checkpoint file format is the journal file format, so copying
    // the journal over the checkpoint path simulates the crash window
    // between `rename(tmp, ckpt)` and the tail rewrite exactly.
    std::fs::copy(&path, checkpoint_path(&path)).unwrap();

    let mut resumed = fresh_session();
    let replayed = resumed.resume_from_journal(&path).unwrap();
    assert_eq!(
        replayed, 17,
        "every entry exactly once despite the duplicate tail"
    );
    drive(&mut resumed);
    let resumed = resumed.finish().unwrap();

    // Reference: the same run uninterrupted.
    let mut reference = fresh_session();
    drive(&mut reference);
    let reference = reference.finish().unwrap();
    assert_eq!(resumed.best_config, reference.best_config);
    assert_eq!(resumed.best_cost, reference.best_cost);
    assert_eq!(resumed.evaluations, reference.evaluations);

    cleanup(&path);
}

/// Kill mid-compaction *before* the atomic rename: a leftover `.ckpt.tmp`
/// must be ignored entirely.
#[test]
fn kill_before_checkpoint_rename_ignores_the_tmp_file() {
    let path = journal_path("kill-pre-rename");
    cleanup(&path);

    let mut session = journaled_session(&path, None);
    let mut cf = objective();
    for _ in 0..17 {
        let config = session.next_config().expect("budget not exhausted yet");
        let outcome = cf.evaluate(&config);
        session.report(outcome).unwrap();
    }
    drop(session);

    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".ckpt.tmp");
    std::fs::copy(&path, PathBuf::from(tmp)).unwrap();

    let mut resumed = fresh_session();
    assert_eq!(resumed.resume_from_journal(&path).unwrap(), 17);

    cleanup(&path);
}

/// Rewrites a genuine journal the way a pre-checksum build wrote it: the
/// older version number in the header, bare unchecksummed entry lines.
fn downgrade_journal(from: &Path, to: &Path, version: u32) {
    let loaded = LoadedJournal::load(from).unwrap();
    let header = JournalHeader {
        version,
        ..loaded.header
    };
    let mut out = serde_json::to_string(&header).unwrap() + "\n";
    for entry in &loaded.entries {
        out.push_str(&serde_json::to_string(entry).unwrap());
        out.push('\n');
    }
    std::fs::write(to, out).unwrap();
}

/// v1/v2/v3 journals (bare entry lines, no checksums) are an unsupported
/// format: a resume fails loudly instead of mistaking the whole file for a
/// torn tail, and the file keeps every byte — with or without a torn last
/// line, with or without a (necessarily foreign) checkpoint beside it.
#[test]
fn old_version_journals_are_refused_and_left_untouched() {
    let v4 = journal_path("old-v4");
    cleanup(&v4);
    let mut session = journaled_session(&v4, None);
    let mut cf = objective();
    for _ in 0..17 {
        let config = session.next_config().expect("budget not exhausted yet");
        let outcome = cf.evaluate(&config);
        session.report(outcome).unwrap();
    }
    drop(session);

    for version in [1u32, 2, 3] {
        let old = journal_path(&format!("old-v{version}"));
        cleanup(&old);
        downgrade_journal(&v4, &old, version);
        let mut f = std::fs::OpenOptions::new().append(true).open(&old).unwrap();
        f.write_all(b"{\"evaluation\":99,\"point\":[3").unwrap();
        drop(f);
        let before = std::fs::read(&old).unwrap();

        for with_checkpoint in [false, true] {
            if with_checkpoint {
                std::fs::copy(&v4, checkpoint_path(&old)).unwrap();
            }
            let mut resumed = fresh_session();
            let err = resumed.resume_from_journal(&old).unwrap_err().to_string();
            assert!(err.contains("unsupported format"), "v{version}: {err}");
            assert_eq!(std::fs::read(&old).unwrap(), before, "v{version}");
        }
        cleanup(&old);
    }
    cleanup(&v4);
}

/// A full disk mid-run degrades journaling instead of killing the session:
/// the run continues in-memory, reports the degradation through
/// `journal_degraded()` and the metrics registry, and still finds the
/// optimum. Under `--strict-journal` semantics the same failure is fatal.
#[test]
fn journal_write_failure_degrades_without_killing_the_run() {
    let path = journal_path("disk-full");
    cleanup(&path);

    let mut session = journaled_session(&path, None);
    let mut cf = objective();
    for _ in 0..5 {
        let config = session.next_config().expect("budget not exhausted yet");
        let outcome = cf.evaluate(&config);
        session.report(outcome).unwrap();
    }
    session.inject_journal_failures(1); // the disk "fills up" here
    drive(&mut session);

    assert!(
        session.journal_degraded().is_some(),
        "the session must remember why journaling stopped"
    );
    assert!(session.metrics().snapshot().journal_errors >= 1);
    let result = session.finish().unwrap();
    assert_eq!(result.evaluations, 50, "the run itself must be unharmed");

    // The journal holds exactly the pre-failure prefix — intact, loadable.
    let loaded = LoadedJournal::load(&path).unwrap();
    assert_eq!(loaded.entries.len(), 5);
    cleanup(&path);

    // Strict mode: the same injected failure is fatal at the report.
    let strict_path = journal_path("disk-full-strict");
    cleanup(&strict_path);
    let mut strict = journaled_session(&strict_path, None).strict_journal(true);
    strict.inject_journal_failures(1);
    let mut cf = objective();
    let config = strict.next_config().unwrap();
    let outcome = cf.evaluate(&config);
    assert!(
        strict.report(outcome).is_err(),
        "strict journaling must fail the report on a write error"
    );
    cleanup(&strict_path);
}

/// The same strict failure under the session driver: `drive_session` stops
/// handing out and returns the journal error at any window — it must not
/// panic (the pool used to `expect` every report to be accepted).
#[test]
fn strict_journal_failure_stops_drive_session_with_the_error() {
    for window in [1usize, 4] {
        let path = journal_path(&format!("strict-drive-{window}"));
        cleanup(&path);
        let mut session = journaled_session(&path, None)
            .strict_journal(true)
            .max_pending(window);
        session.inject_journal_failures(1);
        let workers: Vec<_> = (0..window).map(|_| objective()).collect();
        let err = drive_session(&mut session, workers).unwrap_err();
        assert!(
            matches!(err, TuningError::Journal(_)),
            "window {window}: {err:?}"
        );
        // Nothing was handed out after the refusal: at most the window's
        // worth of tickets ever existed.
        assert!(session.tickets_issued() <= window as u64, "window {window}");
        cleanup(&path);
    }
}

/// Regression fence: appending after a torn tail must truncate the torn
/// line first. Gluing the new entry onto the torn bytes would make the
/// *next* resume drop both — losing every post-resume evaluation.
#[test]
fn resume_after_torn_tail_keeps_post_resume_entries_loadable() {
    let path = journal_path("torn-then-append");
    cleanup(&path);

    let mut session = journaled_session(&path, None);
    let mut cf = objective();
    for _ in 0..10 {
        let config = session.next_config().expect("budget not exhausted yet");
        let outcome = cf.evaluate(&config);
        session.report(outcome).unwrap();
    }
    drop(session);

    // Crash mid-write: half an entry line at the tail.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(b"{\"crc\":\"dead\",\"entry\":{\"evaluation\":11,\"point\":[2")
        .unwrap();
    drop(f);

    // First resume: 10 intact entries; continue for 10 more, crash again.
    let mut resumed = fresh_session();
    assert_eq!(resumed.resume_from_journal(&path).unwrap(), 10);
    let mut cf = objective();
    for _ in 0..10 {
        let config = resumed.next_config().expect("budget not exhausted yet");
        let outcome = cf.evaluate(&config);
        resumed.report(outcome).unwrap();
    }
    drop(resumed);

    // Second resume sees all 20 entries — nothing was glued to torn bytes.
    let mut again = fresh_session();
    assert_eq!(again.resume_from_journal(&path).unwrap(), 20);
    drive(&mut again);
    let finished = again.finish().unwrap();
    assert_eq!(finished.evaluations, 50);
    cleanup(&path);
}

// ---- The service's request path is append-only ----
//
// A service session journal is one file that grows by one line per
// report; the database log is compacted only by `persist` at shutdown.
// A journal directory a checkpointing build left behind still resumes.

const SERVICE_EVALUATIONS: u64 = 300;

/// The wire spec of the service sessions below: annealing over a
/// 32×32 space.
fn service_params() -> Vec<atf_core::spec::ParameterSpec> {
    ["X", "Y"]
        .into_iter()
        .map(|name| atf_core::spec::ParameterSpec {
            name: name.into(),
            interval: Some(atf_core::spec::IntervalSpec {
                begin: 1,
                end: 32,
                step: 1,
            }),
            set: None,
            constraint: None,
        })
        .collect()
}

/// Opens (or resumes) `kernel`, stopped after `evaluations` reports;
/// returns the session id and the `resumed` count.
fn service_open(
    manager: &SessionManager,
    kernel: &str,
    evaluations: u64,
    resume: bool,
) -> (String, Option<u64>) {
    let mut req = Request::new("open");
    req.kernel = Some(kernel.to_string());
    req.parameters = Some(service_params());
    req.search = Some(atf_core::spec::SearchSpec {
        technique: "annealing".into(),
        seed: 7,
    });
    req.abort = Some(atf_core::spec::AbortSpec {
        evaluations: Some(evaluations),
        ..Default::default()
    });
    req.resume = Some(resume);
    let opened = manager.handle(&req);
    assert!(opened.ok, "{opened:?}");
    (opened.session.unwrap(), opened.resumed)
}

fn service_cost(x: u64, y: u64) -> f64 {
    (x as f64 - 21.0).abs() + (y as f64 - 9.0).abs() * 1.5
}

fn service_manager(dir: &Path) -> SessionManager {
    SessionManager::new(ManagerConfig {
        journal_dir: Some(dir.join("journals")),
        db_path: Some(dir.join("db.ndjson")),
        ..ManagerConfig::default()
    })
    .unwrap()
}

/// Sends up to `reports` next + report steps through `handle`, stopping
/// early when the session is done.
fn service_steps(manager: &SessionManager, id: &str, reports: usize) {
    for _ in 0..reports {
        let next = manager.handle(&Request::new("next").with_session(id));
        assert!(next.ok, "{next:?}");
        if next.done == Some(true) {
            return;
        }
        let config = next.config.unwrap();
        let mut report = Request::new("report").with_session(id);
        report.cost = Some(service_cost(config["X"], config["Y"]));
        report.valid = Some(true);
        let reported = manager.handle(&report);
        assert!(reported.ok, "{reported:?}");
    }
}

type ServiceOutcome = (
    Option<std::collections::BTreeMap<String, u64>>,
    Option<f64>,
    Option<u64>,
);

/// Drives `id` to its end and finishes it.
fn service_finish(manager: &SessionManager, id: &str) -> ServiceOutcome {
    service_steps(manager, id, usize::MAX);
    let finished = manager.handle(&Request::new("finish").with_session(id));
    assert!(finished.ok, "{finished:?}");
    (
        finished.best_config,
        finished.best_cost,
        finished.evaluations,
    )
}

/// The same session run unjournaled, start to finish.
fn service_reference() -> ServiceOutcome {
    let manager = SessionManager::in_memory();
    let (id, _) = service_open(&manager, "svc", SERVICE_EVALUATIONS, false);
    service_finish(&manager, &id)
}

fn service_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("atf-jh-svc-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// 200 reports leave one journal file of 201 lines (header + one per
/// report) and no checkpoint or temporary file; a restarted manager
/// replays all 200 and finishes bit-identical to an unjournaled run.
#[test]
fn service_journal_is_one_append_only_file_and_resumes_bit_identically() {
    let dir = service_dir("append-only");
    let manager = service_manager(&dir);
    let (id, _) = service_open(&manager, "svc", SERVICE_EVALUATIONS, false);
    service_steps(&manager, &id, 200);
    let files: Vec<PathBuf> = std::fs::read_dir(dir.join("journals"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "one file per session, found {files:?}");
    assert_eq!(files[0].extension().unwrap(), "ndjson", "{files:?}");
    let text = std::fs::read_to_string(&files[0]).unwrap();
    assert_eq!(text.lines().count(), 201, "header + one line per report");
    drop(manager); // crash: the session is never finished

    let restarted = service_manager(&dir);
    let (id, resumed) = service_open(&restarted, "svc", SERVICE_EVALUATIONS, true);
    assert_eq!(resumed, Some(200));
    assert_eq!(service_finish(&restarted, &id), service_reference());
    std::fs::remove_dir_all(&dir).ok();
}

/// A journal directory left by a build that compacted service journals
/// every 64 reports (checkpoint + header-only-restarted tail) resumes,
/// continues appending, and resumes again to the unjournaled result.
#[test]
fn service_resumes_a_journal_compacted_by_a_checkpointing_build() {
    let dir = service_dir("upgrade");
    let journals = dir.join("journals");
    std::fs::create_dir_all(&journals).unwrap();
    let path = journals.join("svc-local-.ndjson");

    // The checkpointing build's session: the space, technique and abort
    // the service builds for `service_open`, compacting every 64.
    let (space, _) =
        atf_core::spacegen::space_from_spec(&service_params(), &atf_core::trace::NullSink).unwrap();
    let mut old = TuningSession::<f64>::new(space, Box::new(SimulatedAnnealing::with_seed(7)))
        .unwrap()
        .abort_condition(abort::evaluations(SERVICE_EVALUATIONS))
        .journal_checkpoint_every(64)
        .journal_to(&path)
        .unwrap();
    for _ in 0..150 {
        let config = old.next_config().unwrap();
        let cost = service_cost(config.get_u64("X"), config.get_u64("Y"));
        old.report(Ok(cost)).unwrap();
    }
    drop(old);
    assert!(checkpoint_path(&path).exists(), "the old build compacted");

    let manager = service_manager(&dir);
    let (id, resumed) = service_open(&manager, "svc", SERVICE_EVALUATIONS, true);
    assert_eq!(resumed, Some(150));
    service_steps(&manager, &id, 50);
    drop(manager);

    let restarted = service_manager(&dir);
    let (id, resumed) = service_open(&restarted, "svc", SERVICE_EVALUATIONS, true);
    assert_eq!(resumed, Some(200));
    assert_eq!(service_finish(&restarted, &id), service_reference());
    std::fs::remove_dir_all(&dir).ok();
}

/// Finished records are appended to the database log and never compacted
/// on the request path: 65 finishes leave no `<db>.ckpt`; `persist` writes
/// one, and a reopen holds the same 65 records.
#[test]
fn database_log_compacts_only_at_persist() {
    let dir = service_dir("db");
    let manager = service_manager(&dir);
    for i in 0..65 {
        let (id, _) = service_open(&manager, &format!("k{i}"), 2, false);
        service_finish(&manager, &id);
    }
    let db_path = dir.join("db.ndjson");
    assert!(
        !checkpoint_path(&db_path).exists(),
        "no compaction on the request path"
    );
    let appended = TuningDatabase::load(&db_path).unwrap();
    assert_eq!(appended.len(), 65);

    manager.persist().unwrap();
    assert!(checkpoint_path(&db_path).exists(), "persist compacts");
    assert_eq!(TuningDatabase::load(&db_path).unwrap(), appended);
    std::fs::remove_dir_all(&dir).ok();
}
