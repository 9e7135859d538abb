//! Crash-safe run journal: an append-only write-ahead log of evaluation
//! outcomes, replayable into a fresh
//! [`TuningSession`](crate::session::TuningSession) so an interrupted
//! multi-hour tuning run resumes instead of starting over.
//!
//! The file is a [`crate::wal`] log: a [`JournalHeader`] line describing
//! the run (technique, space size, window), then one checksummed
//! [`JournalEntry`] line per evaluated point. Entries are written *before*
//! the session state advances and fsynced in batches
//! ([`JournalWriter::SYNC_EVERY`]) plus on close — a crash loses at most
//! the last unsynced batch, and a torn or corrupt line ends the intact
//! prefix on load rather than poisoning the whole journal.
//!
//! The journal can be periodically compacted into a checkpoint file
//! ([`checkpoint_path`]) replaced atomically.
//! [`LoadedJournal::load_with_checkpoint`] replays the checkpoint first and
//! then the live tail, deduplicating by arrival number, so a kill at any
//! point of the compaction sequence resumes to the same state.

use crate::cost::FailureKind;
use crate::search::Point;
use crate::wal;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

pub use crate::wal::checkpoint_path;

/// The journal format version, written into every header; a journal whose
/// header says anything else is refused as an unsupported format.
pub const JOURNAL_VERSION: u32 = 4;

/// First line of a journal: identifies the run shape so a resume against a
/// different specification is rejected instead of silently corrupting the
/// search.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Journal format version.
    pub version: u32,
    /// Name of the search technique driving the run.
    pub technique: String,
    /// Search-space size (stringified `u128`).
    pub space_size: String,
    /// Maximum number of simultaneously pending configurations the run was
    /// driven with. Replay must use the same window to hand out tickets in
    /// the same order.
    pub window: usize,
}

/// One evaluation outcome. `costs` holds the full (possibly
/// multi-objective) cost vector of a successful measurement; a failed one
/// records its taxonomy class in `failure` instead.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JournalEntry {
    /// 1-based arrival number: entries are written in the order reports
    /// *arrived*, which under parallel evaluation may differ from the order
    /// configurations were handed out.
    pub evaluation: u64,
    /// Ticket of the handed-out configuration this entry reports on; every
    /// entry a session writes carries one.
    pub ticket: Option<u64>,
    /// Coordinates of the evaluated configuration in the valid space.
    pub point: Point,
    /// Measured cost vector (`None` when the measurement failed).
    pub costs: Option<Vec<f64>>,
    /// Failure class label ([`FailureKind::label`]) when the measurement
    /// failed.
    pub failure: Option<String>,
    /// Cumulative wall-clock milliseconds since the run (not the process)
    /// started, stamped when the report arrived. Replay restores the run
    /// clock from these, so `duration`/`speedup(s, t)` aborts fire at the
    /// same total budget across resumes.
    pub elapsed_ms: Option<u64>,
}

impl JournalEntry {
    /// The entry's failure kind, if it records a failure.
    pub fn failure_kind(&self) -> Option<FailureKind> {
        self.failure.as_deref().and_then(FailureKind::from_label)
    }
}

/// Journal I/O and consistency errors.
#[derive(Debug)]
pub enum JournalError {
    /// Reading or writing the journal file failed, or the file is in an
    /// unsupported format.
    Io(std::io::Error),
    /// There is no journal at the path: the file is missing, or its
    /// creation was interrupted before the header became durable.
    BadHeader(String),
    /// The journal belongs to a different run shape (technique or space
    /// size differ).
    Mismatch {
        /// What the journal recorded.
        journal: String,
        /// What the current run expected.
        expected: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadHeader(m) => write!(f, "bad journal header: {m}"),
            JournalError::Mismatch { journal, expected } => write!(
                f,
                "journal belongs to a different run ({journal}, expected {expected})"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Append-only journal writer with fsync batching and optional checkpoint
/// compaction: a typed view over a [`wal::Writer`].
pub struct JournalWriter {
    path: PathBuf,
    log: wal::Writer,
    checkpoint_every: Option<usize>,
    since_checkpoint: usize,
    fail_appends: u64,
}

impl JournalWriter {
    /// Entries between fsyncs: small enough that a crash loses seconds of
    /// work, large enough that the fsync cost disappears next to a real
    /// program evaluation.
    pub const SYNC_EVERY: usize = 8;

    /// Creates (truncates) a journal at `path` and writes the header. Any
    /// checkpoint left over from a previous run at the same path is
    /// removed — a fresh run must not inherit stale history.
    pub fn create(path: impl Into<PathBuf>, header: &JournalHeader) -> Result<Self, JournalError> {
        let path = path.into();
        let ckpt = checkpoint_path(&path);
        let _ = std::fs::remove_file(wal::tmp_path(&ckpt));
        let _ = std::fs::remove_file(ckpt);
        Self::create_tail(path, header)
    }

    /// Creates (truncates) just the live tail file, leaving any checkpoint
    /// in place. Used on resume to repair a tail torn at the header (e.g. a
    /// kill between checkpoint rename and tail rewrite).
    pub fn create_tail(
        path: impl Into<PathBuf>,
        header: &JournalHeader,
    ) -> Result<Self, JournalError> {
        let path = path.into();
        let log = wal::Writer::create(&path, header, Self::SYNC_EVERY)?;
        Ok(Self::over(path, log))
    }

    /// Reopens a journal for appending after truncating it to its intact
    /// prefix (`intact_len` bytes, as reported by [`LoadedJournal`]), so
    /// the next append starts a fresh line instead of gluing itself onto a
    /// torn one.
    pub fn append_from(path: impl Into<PathBuf>, intact_len: u64) -> Result<Self, JournalError> {
        let path = path.into();
        let log = wal::Writer::open_at(&path, intact_len, Self::SYNC_EVERY)?;
        Ok(Self::over(path, log))
    }

    fn over(path: PathBuf, log: wal::Writer) -> Self {
        JournalWriter {
            path,
            log,
            checkpoint_every: None,
            since_checkpoint: 0,
            fail_appends: 0,
        }
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Enables (or disables, with `None`) checkpoint compaction every
    /// `every` appended entries.
    pub fn set_checkpoint_every(&mut self, every: Option<usize>) {
        self.checkpoint_every = every.filter(|n| *n > 0);
    }

    /// Makes the next `n` appends fail with a simulated out-of-space I/O
    /// error. Chaos hook for exercising the degrade-don't-die path without
    /// an actual full disk.
    pub fn fail_next_appends(&mut self, n: u64) {
        self.fail_appends = n;
    }

    /// Appends one entry; fsynced every [`SYNC_EVERY`](Self::SYNC_EVERY)
    /// entries, compacted into the checkpoint when the configured interval
    /// is reached.
    pub fn append(&mut self, entry: &JournalEntry) -> Result<(), JournalError> {
        if self.fail_appends > 0 {
            self.fail_appends -= 1;
            return Err(JournalError::Io(std::io::Error::other(
                "injected write failure (simulated full disk)",
            )));
        }
        self.log.append(entry)?;
        self.since_checkpoint += 1;
        if self
            .checkpoint_every
            .is_some_and(|n| self.since_checkpoint >= n)
        {
            self.compact()?;
        }
        Ok(())
    }

    /// Compacts the journal: merges the existing checkpoint (if any) with
    /// the live tail into a new, atomically replaced checkpoint file; the
    /// live tail is then rewritten as just a header. A kill at any point
    /// leaves a loadable state: before the rename the old checkpoint + full
    /// tail are untouched; after it the new checkpoint holds everything and
    /// the (possibly still unrewritten) tail only contributes entries newer
    /// than the checkpoint.
    pub fn compact(&mut self) -> Result<(), JournalError> {
        self.sync()?;
        let merged = LoadedJournal::load_with_checkpoint(&self.path)?;
        wal::replace_atomically(&checkpoint_path(&self.path), |out| {
            wal::write_log(out, &merged.header, &merged.entries)
        })?;
        // From here on the checkpoint carries the history; restart the tail.
        self.log = wal::Writer::create(&self.path, &merged.header, Self::SYNC_EVERY)?;
        self.since_checkpoint = 0;
        Ok(())
    }

    /// Fsyncs everything written so far.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        Ok(self.log.sync()?)
    }
}

/// A fully loaded journal: header plus every intact entry.
#[derive(Clone, Debug)]
pub struct LoadedJournal {
    /// The run-identifying header.
    pub header: JournalHeader,
    /// All intact entries, in write order.
    pub entries: Vec<JournalEntry>,
    /// Byte length of the intact prefix of the live journal file (header
    /// plus every line that verified). `None` when the live tail itself is
    /// unusable and only a checkpoint carried the run — the tail must then
    /// be recreated before appending.
    pub tail_intact_len: Option<u64>,
}

impl LoadedJournal {
    /// Loads a single journal file, tolerating a torn (crash-truncated) or
    /// corrupt (checksum-mismatching) line: entries from the first such
    /// line onward are dropped.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let path = path.as_ref();
        let log = wal::load(path, JOURNAL_VERSION)?.ok_or_else(|| {
            JournalError::BadHeader(format!("no complete header line in {}", path.display()))
        })?;
        Ok(LoadedJournal {
            header: log.header,
            entries: log.entries,
            tail_intact_len: Some(log.intact_len),
        })
    }

    /// Loads a journal together with its checkpoint: checkpoint entries
    /// first, then live-tail entries newer than the checkpoint's last
    /// arrival number. The deduplication makes every crash window of
    /// [`JournalWriter::compact`] safe — a tail that still holds
    /// checkpointed entries (kill after rename, before the tail rewrite)
    /// contributes nothing twice, and a tail torn at the header falls back
    /// to the checkpoint alone.
    pub fn load_with_checkpoint(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let path = path.as_ref();
        let Ok(ckpt) = Self::load(checkpoint_path(path)) else {
            return Self::load(path);
        };
        match Self::load(path) {
            Ok(tail) => {
                if tail.header != ckpt.header {
                    // The checkpoint belongs to some other run that once
                    // used this path; trust the live journal.
                    return Ok(tail);
                }
                let last = ckpt.entries.last().map(|e| e.evaluation).unwrap_or(0);
                let mut entries = ckpt.entries;
                entries.extend(tail.entries.into_iter().filter(|e| e.evaluation > last));
                Ok(LoadedJournal { entries, ..tail })
            }
            // A kill between the checkpoint rename and the tail rewrite can
            // leave the tail missing or headerless; the checkpoint alone
            // carries the run.
            Err(JournalError::BadHeader(_)) => Ok(LoadedJournal {
                tail_intact_len: None,
                ..ckpt
            }),
            Err(e) => Err(e),
        }
    }

    /// Verifies the header matches the current run's shape.
    pub fn check_matches(&self, technique: &str, space_size: u128) -> Result<(), JournalError> {
        let expected = format!("technique={technique} space={space_size}");
        let journal = format!(
            "technique={} space={}",
            self.header.technique, self.header.space_size
        );
        if self.header.technique != technique || self.header.space_size != space_size.to_string() {
            return Err(JournalError::Mismatch { journal, expected });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("atf-journal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join("run.ndjson")
    }

    fn header() -> JournalHeader {
        JournalHeader {
            version: JOURNAL_VERSION,
            technique: "exhaustive".into(),
            space_size: "64".into(),
            window: 1,
        }
    }

    fn ok_entry(n: u64) -> JournalEntry {
        JournalEntry {
            evaluation: n,
            ticket: Some(n),
            point: vec![n, n + 1],
            costs: Some(vec![n as f64 * 0.5]),
            failure: None,
            elapsed_ms: Some(n * 100),
        }
    }

    #[test]
    fn write_and_load_round_trip() {
        let path = tmp("rt");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append(&ok_entry(1)).unwrap();
        w.append(&JournalEntry {
            evaluation: 2,
            ticket: Some(2),
            point: vec![0, 3],
            costs: None,
            failure: Some(FailureKind::Timeout.label().to_string()),
            elapsed_ms: Some(250),
        })
        .unwrap();
        drop(w);

        let loaded = LoadedJournal::load(&path).unwrap();
        assert_eq!(loaded.header, header());
        assert_eq!(loaded.entries.len(), 2);
        assert_eq!(loaded.entries[0].costs, Some(vec![0.5]));
        assert_eq!(loaded.entries[1].failure_kind(), Some(FailureKind::Timeout));
        loaded.check_matches("exhaustive", 64).unwrap();
        assert!(loaded.check_matches("annealing", 64).is_err());
        assert!(loaded.check_matches("exhaustive", 65).is_err());
    }

    #[test]
    fn old_version_journals_are_refused_and_left_untouched() {
        let path = tmp("old-versions");
        for text in [
            "{\"version\":1,\"technique\":\"exhaustive\",\"space_size\":\"64\"}\n\
             {\"evaluation\":1,\"point\":[0,1],\"costs\":[1.0]}\n",
            "{\"version\":2,\"technique\":\"exhaustive\",\"space_size\":\"64\",\"window\":2}\n\
             {\"evaluation\":1,\"ticket\":2,\"point\":[0,1],\"costs\":[1.0]}\n",
            "{\"version\":3,\"technique\":\"exhaustive\",\"space_size\":\"64\",\"window\":1}\n\
             {\"evaluation\":1,\"ticket\":1,\"point\":[0,1],\"costs\":[1.0],\"elapsed_ms\":5}\n",
            "not json\n",
        ] {
            std::fs::write(&path, text).unwrap();
            for loaded in [
                LoadedJournal::load(&path),
                LoadedJournal::load_with_checkpoint(&path),
            ] {
                let err = loaded.unwrap_err().to_string();
                assert!(err.contains("unsupported format"), "{err}");
            }
            assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        }
    }

    #[test]
    fn a_bare_entry_line_in_a_v4_journal_ends_the_intact_prefix() {
        let path = tmp("bare-line");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append(&ok_entry(1)).unwrap();
        drop(w);
        let intact = std::fs::metadata(&path).unwrap().len();
        let bare = serde_json::to_string(&ok_entry(2)).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&bare);
        text.push('\n');
        std::fs::write(&path, text).unwrap();
        let mut w = JournalWriter::append_from(&path, intact).unwrap();
        w.append(&ok_entry(3)).unwrap();
        drop(w);
        // Loading stopped before the bare line, and the append that
        // followed truncated it away.
        let loaded = LoadedJournal::load(&path).unwrap();
        assert_eq!(loaded.entries, vec![ok_entry(1), ok_entry(3)]);
    }

    #[test]
    fn checkpoint_compaction_round_trip() {
        let path = tmp("ckpt");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.set_checkpoint_every(Some(3));
        for n in 1..=8 {
            w.append(&ok_entry(n)).unwrap();
        }
        drop(w);
        assert!(checkpoint_path(&path).exists());
        // The live tail holds only the entries since the last compaction.
        let tail = LoadedJournal::load(&path).unwrap();
        assert!(tail.entries.len() < 8);
        // Checkpoint + tail replays the full history, in order.
        let merged = LoadedJournal::load_with_checkpoint(&path).unwrap();
        let expected: Vec<JournalEntry> = (1..=8).map(ok_entry).collect();
        assert_eq!(merged.entries, expected);
    }

    #[test]
    fn kill_after_rename_before_tail_rewrite_deduplicates() {
        // Simulate the compaction crash window where the checkpoint is in
        // place but the tail still holds everything it checkpointed.
        let path = tmp("ckpt-dup");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        for n in 1..=5 {
            w.append(&ok_entry(n)).unwrap();
        }
        drop(w);
        let full = std::fs::read(&path).unwrap();
        let mut w = JournalWriter::append_from(&path, full.len() as u64).unwrap();
        w.set_checkpoint_every(Some(1));
        w.append(&ok_entry(6)).unwrap(); // compacts: ckpt = 1..=6, tail = header only
        drop(w);
        // Restore the pre-compaction tail as if the rewrite never happened,
        // then add one post-checkpoint entry.
        std::fs::write(&path, &full).unwrap();
        let mut w = JournalWriter::append_from(&path, full.len() as u64).unwrap();
        w.append(&ok_entry(7)).unwrap();
        drop(w);
        let merged = LoadedJournal::load_with_checkpoint(&path).unwrap();
        let mut expected: Vec<JournalEntry> = (1..=6).map(ok_entry).collect();
        expected.push(ok_entry(7));
        assert_eq!(merged.entries, expected);
    }

    #[test]
    fn tail_torn_at_header_falls_back_to_checkpoint() {
        let path = tmp("ckpt-torn-head");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.set_checkpoint_every(Some(2));
        for n in 1..=4 {
            w.append(&ok_entry(n)).unwrap();
        }
        drop(w);
        // Kill between File::create(tail) and the header write: empty tail.
        std::fs::write(&path, "").unwrap();
        let merged = LoadedJournal::load_with_checkpoint(&path).unwrap();
        assert_eq!(merged.entries, (1..=4).map(ok_entry).collect::<Vec<_>>());
        assert_eq!(merged.tail_intact_len, None);
        // Without a checkpoint the same file is an error, not an empty run.
        assert!(matches!(
            LoadedJournal::load(&path),
            Err(JournalError::BadHeader(_))
        ));
    }

    #[test]
    fn lingering_tmp_checkpoint_is_ignored_and_fresh_create_clears_state() {
        let path = tmp("ckpt-tmp");
        let ckpt_tmp = wal::tmp_path(&checkpoint_path(&path));
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.set_checkpoint_every(Some(1));
        w.append(&ok_entry(1)).unwrap();
        drop(w);
        // A kill before the rename leaves only the tmp file behind; the
        // loader never reads it.
        std::fs::write(&ckpt_tmp, "garbage\n").unwrap();
        let merged = LoadedJournal::load_with_checkpoint(&path).unwrap();
        assert_eq!(merged.entries.len(), 1);
        // A fresh create() must clear both checkpoint artifacts, or a new
        // run would inherit the old run's history on resume.
        let w = JournalWriter::create(&path, &header()).unwrap();
        drop(w);
        assert!(!checkpoint_path(&path).exists());
        assert!(!ckpt_tmp.exists());
        let merged = LoadedJournal::load_with_checkpoint(&path).unwrap();
        assert!(merged.entries.is_empty());
    }

    #[test]
    fn injected_write_failure_surfaces_as_io_error() {
        let path = tmp("enospc");
        let mut w = JournalWriter::create(&path, &header()).unwrap();
        w.append(&ok_entry(1)).unwrap();
        w.fail_next_appends(1);
        assert!(matches!(w.append(&ok_entry(2)), Err(JournalError::Io(_))));
        // The failure consumed the injection; later appends succeed again.
        w.append(&ok_entry(2)).unwrap();
        drop(w);
        assert_eq!(LoadedJournal::load(&path).unwrap().entries.len(), 2);
    }
}
