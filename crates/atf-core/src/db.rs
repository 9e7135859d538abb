//! A persistent database of tuning results — the production companion of a
//! tuner (CLBlast ships exactly such a database of device-optimized
//! configurations, which the paper's evaluation reads; Section VI-A).
//!
//! Keyed by `(kernel, device, workload)`: a [`TuningDatabase`] stores the
//! best-known configuration with its cost and provenance and merges new
//! results monotonically (a stored record is only replaced by a cheaper
//! one).
//!
//! On disk the database is one format, written by `atf-tune run` and the
//! service alike through [`DatabaseLog`]: a [`crate::wal`] log — a header
//! line, then one checksummed [`TuningRecord`] line per accepted store,
//! fsynced per record — with a sibling `<path>.ckpt` checkpoint (the same
//! format) holding the compacted state. The checkpoint is replaced
//! atomically, so a kill at any byte of a compaction leaves a loadable
//! pair, and the monotone merge makes replaying checkpoint + log
//! idempotent in any crash window.

use crate::config::Config;
use crate::value::Value;
use crate::wal::{self, checkpoint_path};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A serializable tuning-parameter value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", content = "value")]
pub enum StoredValue {
    /// Boolean parameter.
    Bool(bool),
    /// Signed integer parameter.
    Int(i64),
    /// Unsigned integer parameter.
    UInt(u64),
    /// Floating-point parameter.
    Float(f64),
    /// Symbolic (enum-like) parameter.
    Symbol(String),
}

impl From<&Value> for StoredValue {
    fn from(v: &Value) -> Self {
        match v {
            Value::Bool(b) => StoredValue::Bool(*b),
            Value::Int(i) => StoredValue::Int(*i),
            Value::UInt(u) => StoredValue::UInt(*u),
            Value::Float(f) => StoredValue::Float(*f),
            Value::Symbol(s) => StoredValue::Symbol(s.to_string()),
        }
    }
}

impl From<&StoredValue> for Value {
    fn from(v: &StoredValue) -> Self {
        match v {
            StoredValue::Bool(b) => Value::Bool(*b),
            StoredValue::Int(i) => Value::Int(*i),
            StoredValue::UInt(u) => Value::UInt(*u),
            StoredValue::Float(f) => Value::Float(*f),
            StoredValue::Symbol(s) => Value::Symbol(s.as_str().into()),
        }
    }
}

/// One stored tuning result.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TuningRecord {
    /// Kernel (or program) identifier.
    pub kernel: String,
    /// Device name the result was tuned on.
    pub device: String,
    /// Workload identifier (e.g. "m20_n576_k1"); empty = size-agnostic.
    #[serde(default)]
    pub workload: String,
    /// Parameter values in declaration order.
    pub parameters: Vec<(String, StoredValue)>,
    /// The measured scalar cost of the configuration.
    pub cost: f64,
    /// Configurations evaluated by the run that produced this record.
    #[serde(default)]
    pub evaluations: u64,
    /// Search-space size at tuning time (stringified `u128`).
    #[serde(default)]
    pub space_size: String,
}

impl TuningRecord {
    /// Reconstructs the configuration.
    pub fn config(&self) -> Config {
        Config::from_pairs(
            self.parameters
                .iter()
                .map(|(n, v)| (n.as_str(), Value::from(v))),
        )
    }
}

/// An in-memory collection of tuning records; [`DatabaseLog`] persists it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TuningDatabase {
    records: BTreeMap<String, TuningRecord>,
}

fn key(kernel: &str, device: &str, workload: &str) -> String {
    format!("{kernel}\u{1f}{device}\u{1f}{workload}")
}

impl TuningDatabase {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads the database at `path` (checkpoint + record log) without
    /// opening it for writing. Unlike [`DatabaseLog::open`], a missing
    /// file is an error.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        std::fs::metadata(path.as_ref())?;
        Ok(DatabaseLog::open(path)?.0)
    }

    /// Stores a result; an existing record for the same key is replaced
    /// only when the new cost is lower. Returns whether the record was
    /// stored.
    #[allow(clippy::too_many_arguments)] // the flat fields of one record
    pub fn store(
        &mut self,
        kernel: &str,
        device: &str,
        workload: &str,
        config: &Config,
        cost: f64,
        evaluations: u64,
        space_size: u128,
    ) -> bool {
        let k = key(kernel, device, workload);
        if let Some(existing) = self.records.get(&k) {
            if existing.cost <= cost {
                return false;
            }
        }
        self.records.insert(
            k,
            TuningRecord {
                kernel: kernel.to_string(),
                device: device.to_string(),
                workload: workload.to_string(),
                parameters: config
                    .iter()
                    .map(|(n, v)| (n.to_string(), StoredValue::from(v)))
                    .collect(),
                cost,
                evaluations,
                space_size: space_size.to_string(),
            },
        );
        true
    }

    /// Looks up the best-known record.
    pub fn lookup(&self, kernel: &str, device: &str, workload: &str) -> Option<&TuningRecord> {
        self.records.get(&key(kernel, device, workload))
    }

    /// Looks up just the configuration.
    pub fn lookup_config(&self, kernel: &str, device: &str, workload: &str) -> Option<Config> {
        self.lookup(kernel, device, workload)
            .map(TuningRecord::config)
    }

    /// All records, ordered by key.
    pub fn records(&self) -> impl Iterator<Item = &TuningRecord> {
        self.records.values()
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Merges another database into this one (cheaper records win).
    pub fn merge(&mut self, other: &TuningDatabase) {
        for r in other.records() {
            let cfg = r.config();
            self.store(
                &r.kernel,
                &r.device,
                &r.workload,
                &cfg,
                r.cost,
                r.evaluations,
                r.space_size.parse().unwrap_or(0),
            );
        }
    }

    /// Merges one record verbatim under the monotone rule (an existing
    /// cheaper record wins). Unlike [`merge`](Self::merge) this does not
    /// round-trip through [`Config`], so loaded records stay bit-identical
    /// to what was persisted. Returns whether the record was taken.
    pub fn merge_record(&mut self, record: TuningRecord) -> bool {
        let k = key(&record.kernel, &record.device, &record.workload);
        if let Some(existing) = self.records.get(&k) {
            if existing.cost <= record.cost {
                return false;
            }
        }
        self.records.insert(k, record);
        true
    }

    /// The record most recently stored for a key, cloned (used by the
    /// service to append exactly what the index holds).
    pub fn record(&self, kernel: &str, device: &str, workload: &str) -> Option<TuningRecord> {
        self.records.get(&key(kernel, device, workload)).cloned()
    }
}

/// Version of the database log format (1 was the unframed record log).
const DB_LOG_VERSION: u32 = 2;
const DB_LOG_FORMAT: &str = "atf-tuning-db";

/// Header line of the database log and of its checkpoint.
#[derive(Serialize, Deserialize)]
struct DbHeader {
    version: u32,
    format: String,
}

impl DbHeader {
    fn current() -> Self {
        DbHeader {
            version: DB_LOG_VERSION,
            format: DB_LOG_FORMAT.into(),
        }
    }
}

/// Loads one database file (the log or its checkpoint); `None` when no
/// log was ever durably created at `path`.
fn load_records(path: &Path) -> std::io::Result<Option<wal::Log<DbHeader, TuningRecord>>> {
    let log = wal::load::<DbHeader, TuningRecord>(path, DB_LOG_VERSION)?;
    match &log {
        Some(log) if log.header.format != DB_LOG_FORMAT => Err(wal::unsupported(
            path,
            format!("a `{}` log, not a tuning database", log.header.format),
        )),
        _ => Ok(log),
    }
}

/// Append handle and compaction driver of the database file: the write
/// side of the format described in the module docs. The in-memory
/// [`TuningDatabase`] stays the index; every accepted store is
/// [`append`](DatabaseLog::append)ed as one record line, and
/// [`compact`](DatabaseLog::compact) folds the full state into a fresh
/// atomically-replaced `<path>.ckpt` before restarting the log. Nothing
/// compacts on its own: the service calls `compact` once, at shutdown.
#[derive(Debug)]
pub struct DatabaseLog {
    path: PathBuf,
    /// Opened by the first append, so that merely opening (or
    /// [`TuningDatabase::load`]ing) a database writes nothing.
    out: Option<wal::Writer>,
    /// Intact prefix of the log file as found by `open`; `None` when
    /// there is no log yet and the first append creates it.
    intact_len: Option<u64>,
    total_appends: u64,
    total_compactions: u64,
    /// Test/chaos hook: sleep this long inside every append and
    /// compaction, simulating slow storage.
    io_delay: Option<Duration>,
}

/// What one [`DatabaseLog::compact`] did, for metrics and tracing.
#[derive(Clone, Copy, Debug)]
pub struct CompactionReport {
    /// Records in the freshly written checkpoint.
    pub records: u64,
    /// Wall-clock of the compaction, microseconds.
    pub micros: u64,
}

impl DatabaseLog {
    /// Opens (or prepares to create) the database at `path`: merges the
    /// checkpoint sibling and the record log and returns the loaded index
    /// plus the log handle. A missing file is an empty database, created
    /// on first append; a file in any other format is refused.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<(TuningDatabase, DatabaseLog)> {
        let path = path.as_ref().to_path_buf();
        let mut db = TuningDatabase::new();
        let ckpt = load_records(&checkpoint_path(&path))?;
        let log = load_records(&path)?;
        let intact_len = log.as_ref().map(|log| log.intact_len);
        for record in [ckpt, log].into_iter().flatten().flat_map(|l| l.entries) {
            db.merge_record(record);
        }
        Ok((
            db,
            DatabaseLog {
                path,
                out: None,
                intact_len,
                total_appends: 0,
                total_compactions: 0,
                io_delay: None,
            },
        ))
    }

    /// Test/chaos hook: every subsequent append and compaction sleeps
    /// `delay` before touching the file system, simulating slow storage.
    pub fn set_io_delay(&mut self, delay: Duration) {
        self.io_delay = Some(delay);
    }

    /// Appends one record line to the log and fsyncs it. The first append
    /// truncates a torn tail left by a killed writer (or creates the log).
    pub fn append(&mut self, record: &TuningRecord) -> std::io::Result<()> {
        if let Some(delay) = self.io_delay {
            std::thread::sleep(delay);
        }
        let out = match &mut self.out {
            Some(out) => out,
            None => self.out.insert(match self.intact_len {
                Some(len) => wal::Writer::open_at(&self.path, len, 1)?,
                None => wal::Writer::create(&self.path, &DbHeader::current(), 1)?,
            }),
        };
        out.append(record)?;
        self.total_appends += 1;
        Ok(())
    }

    /// Folds the full database state into a fresh checkpoint and restarts
    /// the log as just its header. A kill at any byte of this sequence
    /// leaves the previous checkpoint + full log (or the new checkpoint +
    /// a stale, partial or headerless log) on disk, all of which load to
    /// the same state by the monotone merge.
    ///
    /// `db` is the caller's current index snapshot; it must contain every
    /// record ever appended (it may contain more — extra records are
    /// simply durable earlier).
    pub fn compact(&mut self, db: &TuningDatabase) -> std::io::Result<CompactionReport> {
        let started = Instant::now();
        if let Some(delay) = self.io_delay {
            std::thread::sleep(delay);
        }
        if let Some(out) = &mut self.out {
            out.sync()?;
        }
        let header = DbHeader::current();
        wal::replace_atomically(&checkpoint_path(&self.path), |out| {
            wal::write_log(out, &header, db.records())
        })?;
        // The checkpoint is durable: the log's records are redundant now.
        // Forget the old log first, so that a failed restart is retried
        // by the next append instead of reopening at a stale length.
        self.out = None;
        self.intact_len = None;
        self.out = Some(wal::Writer::create(&self.path, &header, 1)?);
        self.total_compactions += 1;
        Ok(CompactionReport {
            records: db.len() as u64,
            micros: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
        })
    }

    /// Records appended through this handle.
    pub fn appends(&self) -> u64 {
        self.total_appends
    }

    /// Compactions performed by this handle.
    pub fn compactions(&self) -> u64 {
        self.total_compactions
    }

    /// The live log path this handle writes.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_config() -> Config {
        Config::from_pairs([
            ("WGD", Value::UInt(8)),
            ("PADA", Value::Bool(true)),
            ("MODE", Value::Symbol("vec4".into())),
            ("SCALE", Value::Float(1.5)),
        ])
    }

    #[test]
    fn store_and_lookup() {
        let mut db = TuningDatabase::new();
        assert!(db.store(
            "XgemmDirect",
            "Tesla K20m",
            "is4",
            &sample_config(),
            42.0,
            100,
            1000
        ));
        let r = db.lookup("XgemmDirect", "Tesla K20m", "is4").unwrap();
        assert_eq!(r.cost, 42.0);
        let cfg = r.config();
        assert_eq!(cfg.get_u64("WGD"), 8);
        assert!(cfg.get_bool("PADA"));
        assert_eq!(cfg["MODE"], Value::Symbol("vec4".into()));
        assert!(db.lookup("XgemmDirect", "Tesla K20m", "other").is_none());
    }

    #[test]
    fn cheaper_records_win() {
        let mut db = TuningDatabase::new();
        db.store("k", "d", "", &sample_config(), 10.0, 1, 1);
        assert!(!db.store("k", "d", "", &sample_config(), 11.0, 1, 1));
        assert_eq!(db.lookup("k", "d", "").unwrap().cost, 10.0);
        assert!(db.store("k", "d", "", &sample_config(), 9.0, 1, 1));
        assert_eq!(db.lookup("k", "d", "").unwrap().cost, 9.0);
    }

    #[test]
    fn merge_prefers_cheaper() {
        let mut a = TuningDatabase::new();
        a.store("k", "d", "", &sample_config(), 5.0, 1, 1);
        a.store("k2", "d", "", &sample_config(), 7.0, 1, 1);
        let mut b = TuningDatabase::new();
        b.store("k", "d", "", &sample_config(), 4.0, 1, 1);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.lookup("k", "d", "").unwrap().cost, 4.0);
    }

    #[test]
    fn keys_do_not_collide() {
        let mut db = TuningDatabase::new();
        db.store("a", "b_c", "", &sample_config(), 1.0, 1, 1);
        db.store("a_b", "c", "", &sample_config(), 2.0, 1, 1);
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn missing_file_errors() {
        assert!(TuningDatabase::load("/nonexistent/db.json").is_err());
    }

    fn temp_db_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("atf-dblog-{}-{}.json", tag, std::process::id()))
    }

    fn cleanup(path: &Path) {
        std::fs::remove_file(path).ok();
        std::fs::remove_file(checkpoint_path(path)).ok();
        std::fs::remove_file(wal::tmp_path(&checkpoint_path(path))).ok();
    }

    #[test]
    fn log_append_and_reload() {
        let path = temp_db_path("append");
        cleanup(&path);
        let (mut db, mut log) = DatabaseLog::open(&path).unwrap();
        assert!(db.is_empty());
        db.store("k", "d", "w", &sample_config(), 9.0, 3, 27);
        log.append(&db.record("k", "d", "w").unwrap()).unwrap();
        db.store("k", "d", "w", &sample_config(), 4.0, 5, 27);
        log.append(&db.record("k", "d", "w").unwrap()).unwrap();
        assert_eq!(log.appends(), 2);

        let (reloaded, _log2) = DatabaseLog::open(&path).unwrap();
        assert_eq!(reloaded, db);
        assert_eq!(
            reloaded.lookup("k", "d", "w").unwrap().config(),
            sample_config()
        );
        assert_eq!(TuningDatabase::load(&path).unwrap(), db);
        cleanup(&path);
    }

    #[test]
    fn log_compaction_restarts_the_log_and_preserves_records() {
        let path = temp_db_path("compact");
        cleanup(&path);
        let (mut db, mut log) = DatabaseLog::open(&path).unwrap();
        for i in 0..6 {
            let kernel = format!("k{i}");
            db.store(&kernel, "d", "w", &sample_config(), i as f64, 1, 64);
            log.append(&db.record(&kernel, "d", "w").unwrap()).unwrap();
        }
        let report = log.compact(&db).unwrap();
        assert_eq!(report.records, 6);
        assert_eq!(log.compactions(), 1);
        // Live log restarted as just its header, checkpoint holds everything.
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 1);
        let (reloaded, _log2) = DatabaseLog::open(&path).unwrap();
        assert_eq!(reloaded, db);
        // Appends after compaction land in the fresh log.
        db.store("late", "d", "w", &sample_config(), 0.5, 1, 64);
        log.append(&db.record("late", "d", "w").unwrap()).unwrap();
        let (again, _log3) = DatabaseLog::open(&path).unwrap();
        assert_eq!(again, db);
        cleanup(&path);
    }

    #[test]
    fn a_flipped_digit_in_a_stored_cost_is_caught_by_the_checksum() {
        let path = temp_db_path("flip");
        cleanup(&path);
        let (mut db, mut log) = DatabaseLog::open(&path).unwrap();
        db.store("k1", "d", "w", &sample_config(), 5.0, 10, 100);
        log.append(&db.record("k1", "d", "w").unwrap()).unwrap();
        db.store("k2", "d", "w", &sample_config(), 6.0, 20, 100);
        log.append(&db.record("k2", "d", "w").unwrap()).unwrap();
        drop(log);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"cost\":6.0"));
        std::fs::write(&path, text.replace("\"cost\":6.0", "\"cost\":1.0")).unwrap();
        let loaded = TuningDatabase::load(&path).unwrap();
        assert!(loaded.lookup("k1", "d", "w").is_some());
        assert!(loaded.lookup("k2", "d", "w").is_none(), "a lying record");
        cleanup(&path);
    }
}
