//! Crash-equivalence for the tuning database: a simulated kill at every
//! byte boundary of the compaction sequence (checkpoint staging → rename →
//! log restart) must load back bit-identical to the in-memory database, a
//! torn append tail loses at most the final partial record and never
//! poisons later appends, and files in any older format are refused
//! untouched.

use atf_core::config::Config;
use atf_core::db::{DatabaseLog, TuningDatabase};
use atf_core::value::Value;
use std::path::{Path, PathBuf};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("atf-dbcrash-{}-{}.json", tag, std::process::id()))
}

fn ckpt_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".ckpt");
    PathBuf::from(s)
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".ckpt.tmp");
    PathBuf::from(s)
}

fn cleanup(path: &Path) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(ckpt_path(path)).ok();
    std::fs::remove_file(tmp_path(path)).ok();
}

fn config(i: u64) -> Config {
    Config::from_pairs([
        ("WG", Value::UInt(i * 2 + 1)),
        ("VEC", Value::Bool(i.is_multiple_of(2))),
        ("MODE", Value::Symbol(format!("m{i}").into())),
    ])
}

/// A database of `n` distinct records with deterministic contents.
fn sample_db(n: u64) -> TuningDatabase {
    let mut db = TuningDatabase::new();
    for i in 0..n {
        db.store(
            &format!("kernel{i}"),
            "devX",
            &format!("w{}", i % 3),
            &config(i),
            100.0 - i as f64,
            i + 1,
            1000,
        );
    }
    db
}

/// The bytes of a database file holding `db`'s records in key order — what
/// a log that stored them in that order, and equally a checkpoint of `db`,
/// looks like on disk.
fn file_bytes(db: &TuningDatabase) -> Vec<u8> {
    static CALL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let call = CALL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = temp_path(&format!("bytes-{call}"));
    cleanup(&path);
    let (_, mut log) = DatabaseLog::open(&path).unwrap();
    for record in db.records() {
        log.append(record).unwrap();
    }
    drop(log);
    let bytes = std::fs::read(&path).unwrap();
    cleanup(&path);
    bytes
}

/// Writes a directory state (live log, checkpoint, tmp — `None` = absent)
/// and loads it back.
fn load_state(
    path: &Path,
    log: Option<&[u8]>,
    ckpt: Option<&[u8]>,
    tmp: Option<&[u8]>,
) -> TuningDatabase {
    cleanup(path);
    if let Some(bytes) = log {
        std::fs::write(path, bytes).unwrap();
    }
    if let Some(bytes) = ckpt {
        std::fs::write(ckpt_path(path), bytes).unwrap();
    }
    if let Some(bytes) = tmp {
        std::fs::write(tmp_path(path), bytes).unwrap();
    }
    let (db, _log) = DatabaseLog::open(path).unwrap();
    db
}

/// A kill at every byte boundary of the checkpoint-tmp write — the first
/// phase of a compaction — leaves the previous checkpoint and the full
/// log authoritative: the load is bit-identical to the in-memory db no
/// matter how much of the tmp file made it to disk.
#[test]
fn kill_at_every_byte_of_the_tmp_write_loses_nothing() {
    let path = temp_path("tmp-write");
    let db = sample_db(8);
    // On-disk precondition: an older checkpoint holding half the records,
    // a log holding all of them (superset — the monotone merge makes the
    // overlap idempotent).
    let old_ckpt = file_bytes(&sample_db(4));
    let log = file_bytes(&db);
    let new_ckpt = file_bytes(&db);
    for cut in 0..=new_ckpt.len() {
        let loaded = load_state(&path, Some(&log), Some(&old_ckpt), Some(&new_ckpt[..cut]));
        assert_eq!(
            loaded,
            db,
            "divergence with {cut}/{} tmp bytes on disk",
            new_ckpt.len()
        );
    }
    cleanup(&path);
}

/// A kill between the checkpoint rename and the log restart leaves the
/// new checkpoint plus the (now redundant) full log — or, mid-restart, any
/// prefix of a log down to an empty or header-torn file: every such pair
/// must merge to the identical database.
#[test]
fn kill_between_rename_and_truncate_merges_idempotently() {
    let path = temp_path("post-rename");
    let db = sample_db(8);
    let log = file_bytes(&db);
    let new_ckpt = file_bytes(&db);
    for cut in 0..=log.len() {
        let loaded = load_state(&path, Some(&log[..cut]), Some(&new_ckpt), None);
        assert_eq!(loaded, db, "divergence with {cut} log bytes left");
    }
    cleanup(&path);
}

/// A torn append tail (kill mid-append, no compaction in flight) loses at
/// most the final partial record; every complete line survives.
#[test]
fn torn_append_tail_loses_at_most_the_last_record() {
    let path = temp_path("torn-tail");
    let db = sample_db(6);
    let bytes = file_bytes(&db);
    for cut in 0..=bytes.len() {
        let loaded = load_state(&path, Some(&bytes[..cut]), None, None);
        // Record lines fully on disk at the cut (the first line is the
        // header). A line missing only its newline is complete too.
        let complete = bytes[..cut]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            .saturating_sub(1);
        let unterminated = bytes.get(cut) == Some(&b'\n') && complete < db.len();
        assert!(
            loaded.len() == complete || (unterminated && loaded.len() == complete + 1),
            "{} records from {complete} complete lines at {cut}/{} bytes",
            loaded.len(),
            bytes.len()
        );
        let mut expected = TuningDatabase::new();
        for record in db.records().take(loaded.len()) {
            expected.merge_record(record.clone());
        }
        assert_eq!(
            loaded,
            expected,
            "divergence at {cut}/{} bytes",
            bytes.len()
        );
    }
    cleanup(&path);
}

/// What `atf-tune run` does to its database is one `open` + `append`. A
/// kill at any byte of that write leaves every previous record loadable,
/// and the next run's store lands on a clean line — it is neither glued
/// onto the torn bytes nor lost on the reload after it.
#[test]
fn kill_at_every_byte_of_a_store_keeps_previous_and_later_records() {
    let path = temp_path("run-store");
    let before = sample_db(3);
    let old = file_bytes(&before);
    let new = file_bytes(&sample_db(4));
    assert_eq!(&new[..old.len()], &old[..]);
    let later = sample_db(5).record("kernel4", "devX", "w1").unwrap();
    for cut in old.len()..new.len() {
        cleanup(&path);
        std::fs::write(&path, &new[..cut]).unwrap();
        let (db, mut log) = DatabaseLog::open(&path).unwrap();
        for record in before.records() {
            assert_eq!(
                db.lookup(&record.kernel, &record.device, &record.workload),
                Some(record),
                "cut {cut}"
            );
        }
        log.append(&later).unwrap();
        drop(log);
        let reloaded = TuningDatabase::load(&path).unwrap();
        assert_eq!(
            reloaded.lookup("kernel4", "devX", "w1"),
            Some(&later),
            "cut {cut}"
        );
        assert!(reloaded.len() > before.len(), "cut {cut}");
    }
    cleanup(&path);
}

/// An actual compaction driven through `DatabaseLog` round-trips: after
/// compacting, the live log is just its header, the checkpoint is
/// authoritative, and appends keep landing durably.
#[test]
fn real_compaction_is_bit_identical_and_keeps_appending() {
    let path = temp_path("real-compact");
    cleanup(&path);
    let (mut db, mut log) = DatabaseLog::open(&path).unwrap();
    for i in 0..10u64 {
        let kernel = format!("kernel{i}");
        db.store(&kernel, "devX", "w", &config(i), i as f64, 1, 100);
        log.append(&db.record(&kernel, "devX", "w").unwrap())
            .unwrap();
    }
    log.compact(&db).unwrap();
    let checkpoint = std::fs::read(ckpt_path(&path)).unwrap();
    assert_eq!(checkpoint, file_bytes(&db));
    let restarted = std::fs::read(&path).unwrap();
    assert!(restarted.ends_with(b"\n") && checkpoint.starts_with(&restarted));
    assert_eq!(restarted.iter().filter(|&&b| b == b'\n').count(), 1);
    let (reloaded, _h) = DatabaseLog::open(&path).unwrap();
    assert_eq!(reloaded, db);

    // Improvements after the compaction append to the fresh log and win
    // over the checkpointed record on load (monotone merge).
    db.store("kernel3", "devX", "w", &config(99), 0.25, 2, 100);
    log.append(&db.record("kernel3", "devX", "w").unwrap())
        .unwrap();
    let (reloaded, _h) = DatabaseLog::open(&path).unwrap();
    assert_eq!(reloaded, db);
    assert_eq!(reloaded.lookup("kernel3", "devX", "w").unwrap().cost, 0.25);
    cleanup(&path);
}

/// The formats earlier builds wrote — the pretty-printed whole-file JSON
/// database and the unframed record log (as the live file or as its
/// checkpoint) — are refused with an "unsupported format" error, by both
/// readers, and not a byte of them changes.
#[test]
fn old_database_formats_are_refused_and_left_untouched() {
    let path = temp_path("old-formats");
    let record = serde_json::to_string(&sample_db(1).record("kernel0", "devX", "w0").unwrap());
    let unframed_log = format!("{0}\n{0}\n", record.unwrap());
    let pretty_json =
        "{\n  \"records\": {\n    \"k\\u001fd\\u001fw\": {\n      \"kernel\": \"k\"\n    }\n  }\n}";
    let valid = file_bytes(&sample_db(2));
    let states: [(&[u8], Option<&[u8]>); 3] = [
        (pretty_json.as_bytes(), None),
        (unframed_log.as_bytes(), None),
        (&valid, Some(unframed_log.as_bytes())),
    ];
    for (log, ckpt) in states {
        cleanup(&path);
        std::fs::write(&path, log).unwrap();
        if let Some(ckpt) = ckpt {
            std::fs::write(ckpt_path(&path), ckpt).unwrap();
        }
        for err in [
            DatabaseLog::open(&path).map(|_| ()).unwrap_err(),
            TuningDatabase::load(&path).map(|_| ()).unwrap_err(),
        ] {
            assert!(err.to_string().contains("unsupported format"), "{err}");
        }
        assert_eq!(std::fs::read(&path).unwrap(), log);
        if let Some(ckpt) = ckpt {
            assert_eq!(std::fs::read(ckpt_path(&path)).unwrap(), ckpt);
        }
    }
    cleanup(&path);
}
