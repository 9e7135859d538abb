//! The durable-log primitive under the run journal, the campaign WAL and
//! the database log (and the library-only space files of
//! `spacegen::cache`) — the only module of the product that calls
//! `sync_data` / `sync_all` / `rename` / `set_len`.
//!
//! **Framing.** A log is a header line (any JSON object carrying a
//! `"version"` field) followed by one line per entry,
//! `{"crc":"<fnv1a-64 hex of the entry JSON>","entry":{...}}`. The first
//! line that is torn, fails its checksum, or is not framed ends the intact
//! prefix: [`load`] returns everything before it together with the
//! prefix's byte length, and [`Writer::open_at`] truncates to that length
//! before appending — gluing a new entry onto a torn line would lose both
//! on the next load.
//!
//! **What is never truncated.** A file whose first *complete* line is not
//! a header of the expected version is refused with an "unsupported
//! format" error and left untouched. Only a file with no complete line at
//! all (creation was interrupted before the header — and therefore before
//! any entry — became durable) counts as "no log here".
//!
//! **Atomic replacement.** [`replace_atomically`] writes `<path>.tmp`,
//! fsyncs it, renames it over `<path>` and fsyncs the parent directory. A
//! kill leaves one of three states: a partial tmp beside the old file, a
//! complete tmp beside the old file, or the new file — readers never open
//! the tmp, so they see old or new, never a mix.

use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// FNV-1a 64 over `bytes`, starting from `seed` (`None` = the standard
/// offset basis). Tiny, dependency-free, and plenty to catch bit rot and
/// torn or overwritten sectors — corruption *detection*, not cryptographic
/// integrity. Also the hash behind cache keys, retry jitter and shard
/// placement; chain calls by passing one result as the next seed.
pub fn fnv1a64(seed: Option<u64>, bytes: &[u8]) -> u64 {
    let mut hash = seed.unwrap_or(0xcbf2_9ce4_8422_2325);
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// [`fnv1a64`] of `text` as 16 hex digits. Logs key resumable state by a
/// content hash of their source file through this, so a resume against an
/// edited file is rejected instead of silently diverging.
pub fn content_hash(text: &str) -> String {
    format!("{:016x}", fnv1a64(None, text.as_bytes()))
}

/// Path of the checkpoint a log at `path` compacts into.
pub fn checkpoint_path(path: &Path) -> PathBuf {
    with_suffix(path, ".ckpt")
}

/// The sibling [`replace_atomically`] stages its write in.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    with_suffix(path, ".tmp")
}

fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// The error every refused file fails with; it names the path so an
/// operator knows which file to move aside.
pub fn unsupported(path: &Path, why: impl std::fmt::Display) -> io::Error {
    invalid(format!("unsupported format in {}: {why}", path.display()))
}

/// Best-effort parent-directory fsync after a create or rename, so the
/// directory entry itself is durable. Opening a directory read-only works
/// on the platforms we target; anywhere it does not, skipping the sync
/// only weakens durability to that of the file's own fsync.
fn sync_parent_dir(path: &Path) {
    if let Some(dir) = path.parent().and_then(|p| File::open(p).ok()) {
        let _ = dir.sync_all();
    }
}

const ENTRY_PREFIX: &[u8] = b"{\"crc\":\"";
const ENTRY_INFIX: &[u8] = b"\",\"entry\":";

fn header_line<H: Serialize>(header: &H) -> io::Result<String> {
    Ok(serde_json::to_string(header).map_err(invalid)? + "\n")
}

fn entry_line<E: Serialize>(entry: &E) -> io::Result<String> {
    let body = serde_json::to_string(entry).map_err(invalid)?;
    let crc = fnv1a64(None, body.as_bytes());
    Ok(format!("{{\"crc\":\"{crc:016x}\",\"entry\":{body}}}\n"))
}

/// Decodes one entry line (without its newline); `None` when it is torn,
/// altered, or not framed at all. The checksum covers the entry's bytes as
/// written, so any change on disk — even one that still parses — fails.
fn decode_entry<E: Deserialize>(line: &[u8]) -> Option<E> {
    let rest = line.strip_prefix(ENTRY_PREFIX)?;
    let (crc, rest) = rest.split_at_checked(16)?;
    let body = rest.strip_prefix(ENTRY_INFIX)?.strip_suffix(b"}")?;
    let crc = u64::from_str_radix(std::str::from_utf8(crc).ok()?, 16).ok()?;
    if fnv1a64(None, body) != crc {
        return None;
    }
    serde_json::from_str(std::str::from_utf8(body).ok()?).ok()
}

/// Writes a whole log — header, then every entry — to `out`: the body of
/// a checkpoint, handed to [`replace_atomically`].
pub fn write_log<'a, H: Serialize, E: Serialize + 'a>(
    out: &mut dyn Write,
    header: &H,
    entries: impl IntoIterator<Item = &'a E>,
) -> io::Result<()> {
    out.write_all(header_line(header)?.as_bytes())?;
    for entry in entries {
        out.write_all(entry_line(entry)?.as_bytes())?;
    }
    Ok(())
}

/// A loaded log: header, every intact entry in write order, and the byte
/// length of the intact prefix (what [`Writer::open_at`] truncates to).
#[derive(Clone, Debug)]
pub struct Log<H, E> {
    /// The log-identifying header.
    pub header: H,
    /// All intact entries, in write order.
    pub entries: Vec<E>,
    /// Byte length of the header plus every entry line that verified.
    pub intact_len: u64,
}

/// Loads the log at `path`. `Ok(None)` means no log was ever durably
/// created there (the file is missing, or holds no complete line); a
/// complete first line that is not a version-`version` header of type `H`
/// is an [`unsupported`] error. Entries from the first line that does not
/// verify onward are dropped.
pub fn load<H: Deserialize, E: Deserialize>(
    path: &Path,
    version: u32,
) -> io::Result<Option<Log<H, E>>> {
    match File::open(path) {
        Ok(file) => parse(path, BufReader::new(file), version),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// [`load`] over the file's contents, one line in memory at a time;
/// `path` only names the file in the refusal.
fn parse<H: Deserialize, E: Deserialize>(
    path: &Path,
    mut input: impl BufRead,
    version: u32,
) -> io::Result<Option<Log<H, E>>> {
    let mut line = Vec::new();
    let mut intact = input.read_until(b'\n', &mut line)?;
    let Some(header) = line.strip_suffix(b"\n") else {
        return Ok(None);
    };
    let header = decode_header(header, version).map_err(|why| unsupported(path, why))?;
    let mut entries = Vec::new();
    loop {
        line.clear();
        let len = input.read_until(b'\n', &mut line)?;
        match decode_entry(line.strip_suffix(b"\n").unwrap_or(&line)) {
            Some(entry) => entries.push(entry),
            None => break,
        }
        intact += len;
    }
    Ok(Some(Log {
        header,
        entries,
        intact_len: intact as u64,
    }))
}

fn decode_header<H: Deserialize>(line: &[u8], version: u32) -> Result<H, String> {
    let text = std::str::from_utf8(line).map_err(|_| "the first line is not text")?;
    let value: serde::Value =
        serde_json::from_str(text).map_err(|_| "the first line is not a log header")?;
    match value.get("version").and_then(serde::Value::as_u64) {
        Some(v) if v == u64::from(version) => H::from_value(&value).map_err(|e| e.to_string()),
        Some(v) => Err(format!("version {v} (this build reads version {version})")),
        None => Err("the first line is not a log header".into()),
    }
}

/// Append handle of one log file. Each [`append`](Self::append) is one
/// `write`; every `sync_every`-th append fsyncs (1 = every entry is
/// durable before `append` returns).
#[derive(Debug)]
pub struct Writer {
    file: File,
    sync_every: usize,
    unsynced: usize,
}

impl Writer {
    /// Creates (truncates) the log at `path` and durably writes its
    /// header.
    pub fn create<H: Serialize>(path: &Path, header: &H, sync_every: usize) -> io::Result<Self> {
        let mut file = File::create(path)?;
        file.write_all(header_line(header)?.as_bytes())?;
        file.sync_data()?;
        sync_parent_dir(path);
        Ok(Writer {
            file,
            sync_every,
            unsynced: 0,
        })
    }

    /// Reopens the log at `path` for appending after truncating it to its
    /// intact prefix ([`Log::intact_len`]), terminating a final line that
    /// verified but never got its newline.
    pub fn open_at(path: &Path, intact_len: u64, sync_every: usize) -> io::Result<Self> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        if intact_len == 0 || intact_len > file.metadata()?.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{intact_len} is not a prefix length of {}", path.display()),
            ));
        }
        file.set_len(intact_len)?;
        file.seek(SeekFrom::Start(intact_len - 1))?;
        let mut last = [0u8; 1];
        file.read_exact(&mut last)?;
        if last[0] != b'\n' {
            file.write_all(b"\n")?;
        }
        file.sync_data()?;
        Ok(Writer {
            file,
            sync_every,
            unsynced: 0,
        })
    }

    /// Appends one checksummed entry line.
    pub fn append<E: Serialize>(&mut self, entry: &E) -> io::Result<()> {
        self.file.write_all(entry_line(entry)?.as_bytes())?;
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Fsyncs everything appended so far.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }
}

impl Drop for Writer {
    fn drop(&mut self) {
        if self.unsynced > 0 {
            let _ = self.sync();
        }
    }
}

/// Replaces the file at `path` with whatever `write` produces, atomically
/// (see the module docs for the crash windows). On failure the previous
/// file is untouched and the staging file is removed.
pub fn replace_atomically(
    path: &Path,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = tmp_path(path);
    let staged = (|| {
        let mut out = BufWriter::new(File::create(&tmp)?);
        write(&mut out)?;
        out.flush()?;
        out.get_ref().sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    match staged {
        Ok(()) => {
            sync_parent_dir(path);
            Ok(())
        }
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{
        CampaignJournalEntry, CampaignJournalHeader, ConfigValue, CAMPAIGN_JOURNAL_VERSION,
    };
    use crate::config::Config;
    use crate::db::{DatabaseLog, TuningRecord};
    use crate::journal::{JournalEntry, JournalHeader, JOURNAL_VERSION};
    use crate::test_alloc::peak_alloc;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("atf-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("log")
    }

    fn header() -> JournalHeader {
        JournalHeader {
            version: JOURNAL_VERSION,
            technique: "annealing".into(),
            space_size: "776764".into(),
            window: 2,
        }
    }

    fn entry(n: u64) -> JournalEntry {
        JournalEntry {
            evaluation: n,
            ticket: Some(n),
            point: vec![n, n * 7 % 13],
            costs: (!n.is_multiple_of(3)).then(|| vec![n as f64 * 1.5]),
            failure: n.is_multiple_of(3).then(|| "timeout".to_string()),
            elapsed_ms: Some(n * 40),
        }
    }

    fn write(path: &Path, entries: impl IntoIterator<Item = u64>) -> Vec<u8> {
        let mut w = Writer::create(path, &header(), 8).unwrap();
        for n in entries {
            w.append(&entry(n)).unwrap();
        }
        drop(w);
        std::fs::read(path).unwrap()
    }

    type Journal = Log<JournalHeader, JournalEntry>;

    fn load_journal(path: &Path) -> io::Result<Option<Journal>> {
        load(path, JOURNAL_VERSION)
    }

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(None, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(None, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a64(Some(fnv1a64(None, b"foo")), b"bar"),
            fnv1a64(None, b"foobar")
        );
        assert_eq!(content_hash("foobar"), "85944171f73967e8");
    }

    /// (a) A kill at every byte of the file: `load` yields a prefix of the
    /// entries, and reopening at the intact length then appending keeps
    /// prefix + new entry loadable — nothing is ever glued onto a torn
    /// line.
    #[test]
    fn every_truncation_loads_a_prefix_and_reopens_cleanly() {
        let path = tmp("truncate");
        let full = write(&path, 1..=4);
        let header_len = full.iter().position(|&b| b == b'\n').unwrap() + 1;
        let mut longest = 0;
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let Some(log) = load_journal(&path).unwrap() else {
                assert!(cut < header_len, "a complete header must load (cut {cut})");
                continue;
            };
            assert!(cut >= header_len);
            assert_eq!(log.header, header());
            let n = log.entries.len();
            assert_eq!(log.entries, (1..=n as u64).map(entry).collect::<Vec<_>>());
            assert!(n >= longest && log.intact_len <= cut as u64);
            longest = n;

            let mut w = Writer::open_at(&path, log.intact_len, 8).unwrap();
            w.append(&entry(99)).unwrap();
            drop(w);
            let reloaded = load_journal(&path).unwrap().unwrap();
            let mut expected = log.entries;
            expected.push(entry(99));
            assert_eq!(reloaded.entries, expected, "cut {cut}");
            assert_eq!(
                reloaded.intact_len,
                std::fs::metadata(&path).unwrap().len(),
                "cut {cut}"
            );
        }
        assert_eq!(longest, 4);
    }

    #[test]
    fn open_at_refuses_a_length_that_is_not_a_prefix() {
        let path = tmp("open-at");
        let full = write(&path, 1..=2);
        assert!(Writer::open_at(&path, full.len() as u64 + 1, 1).is_err());
        assert!(Writer::open_at(&path, 0, 1).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), full);
    }

    /// (b) Stopping `replace_atomically` after each of its steps: the
    /// reader sees the old log or the new one, never a mix.
    #[test]
    fn replace_atomically_shows_old_or_new_at_every_step() {
        let path = tmp("replace");
        let staging = tmp_path(&path);
        let new = write(&path, 1..=5);
        let old = write(&path, 1..=2);
        let entries = |path: &Path| load_journal(path).unwrap().unwrap().entries.len();

        // Killed while writing the staging file, at every byte.
        for cut in 0..=new.len() {
            std::fs::write(&staging, &new[..cut]).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), old, "cut {cut}");
        }
        // Staged completely, not yet renamed.
        assert_eq!(entries(&path), 2);
        // Renamed.
        std::fs::rename(&staging, &path).unwrap();
        assert_eq!(entries(&path), 5);

        // The real thing, over a leftover staging file of a killed run.
        std::fs::write(&staging, b"leftover").unwrap();
        replace_atomically(&path, |out| out.write_all(&old)).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), old);
        assert!(!staging.exists());
        // A failing writer leaves the previous file and no staging file.
        let failed = replace_atomically(&path, |out| {
            out.write_all(&new[..10])?;
            Err(io::Error::other("disk full"))
        });
        assert!(failed.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), old);
        assert!(!staging.exists());
    }

    #[test]
    fn files_that_are_not_this_log_are_refused_and_untouched() {
        let path = tmp("refuse");
        for text in [
            "{\"version\":3,\"technique\":\"annealing\",\"space_size\":\"9\",\"window\":1}\n",
            "{\"technique\":\"annealing\"}\n",
            "{\n  \"records\": {}\n}",
            "\n",
            "\u{0}\u{0}\n\u{0}",
        ] {
            std::fs::write(&path, text).unwrap();
            let err = load_journal(&path).unwrap_err().to_string();
            assert!(err.contains("unsupported format"), "{err}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        }
        // No complete line at all: nothing was ever durable here.
        for text in ["", "{\"version\":4,\"techni"] {
            std::fs::write(&path, text).unwrap();
            assert!(load_journal(&path).unwrap().is_none());
        }
        assert!(load_journal(&path.with_extension("missing"))
            .unwrap()
            .is_none());
    }

    /// SplitMix64: a seeded stream for the mutator below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    fn mutate(rng: &mut Rng, valid: &[u8]) -> Vec<u8> {
        let mut bytes = valid.to_vec();
        match rng.below(20) {
            0 => {
                // A megabyte of one byte, spliced in somewhere.
                let at = rng.below(bytes.len() + 1);
                const BYTES: &[u8] = b"[{\"1\n\\ \xff";
                let byte = BYTES[rng.below(BYTES.len())];
                bytes.splice(at..at, std::iter::repeat_n(byte, 1 << 20));
            }
            1..=7 => {
                for _ in 0..=rng.below(3) {
                    let at = rng.below(bytes.len());
                    bytes[at] ^= 1 << rng.below(8);
                }
            }
            8..=13 => {
                // Copy a random slice of the file over a random place.
                let from = rng.below(bytes.len());
                let len = rng.below(bytes.len() - from + 1);
                let piece = bytes[from..from + len].to_vec();
                let at = rng.below(bytes.len() + 1);
                let until = (at + rng.below(len + 1)).min(bytes.len());
                bytes.splice(at..until, piece);
            }
            _ => bytes.truncate(rng.below(bytes.len() + 1)),
        }
        bytes
    }

    /// Every entry that loads from a mutated file is one the valid file
    /// held, nothing panics, and the loader's peak allocation stays within
    /// a constant factor of the input.
    fn fuzz<H, E>(rng: &mut Rng, rounds: usize, version: u32, valid: &[u8])
    where
        H: Deserialize,
        E: Deserialize + PartialEq + std::fmt::Debug,
    {
        let parse = |bytes: &[u8]| parse::<H, E>(Path::new("fuzzed"), bytes, version);
        let original = parse(valid).unwrap().unwrap().entries;
        assert!(original.len() >= 6);
        for round in 0..rounds {
            let bytes = mutate(rng, valid);
            let (parsed, peak) = peak_alloc(|| parse(&bytes));
            assert!(
                peak <= 4 * bytes.len() + 4096,
                "round {round}: {peak} bytes allocated for {} bytes of input",
                bytes.len()
            );
            if let Ok(Some(log)) = parsed {
                assert!(log.intact_len as usize <= bytes.len(), "round {round}");
                for entry in &log.entries {
                    assert!(original.contains(entry), "round {round}: {entry:?}");
                }
            }
        }
    }

    /// (c) 2 000 seeded mutations of valid journal, campaign-WAL and
    /// database files.
    #[test]
    fn mutated_files_load_a_verified_subset_or_fail_cleanly() {
        let mut rng = Rng(0x0a7f_2018);

        let path = tmp("fuzz");
        let journal = write(&path, 1..=12);
        fuzz::<JournalHeader, JournalEntry>(&mut rng, 700, JOURNAL_VERSION, &journal);

        let campaign_header = CampaignJournalHeader {
            version: CAMPAIGN_JOURNAL_VERSION,
            campaign: "fuzz \"campaign\"\n".into(),
            spec_hash: content_hash("spec"),
            nodes: 3,
        };
        let mut w = Writer::create(&path, &campaign_header, 1).unwrap();
        for seq in 1..=9u64 {
            let finished = seq.is_multiple_of(3);
            w.append(&CampaignJournalEntry {
                seq,
                event: if finished { "finished" } else { "started" }.into(),
                node: format!("node-{}", seq / 3),
                attempt: Some(1),
                outcome: finished.then(|| "completed".into()),
                evaluations: finished.then_some(seq * 10),
                best_cost: finished.then_some(seq as f64 / 8.0),
                best_config: finished.then(|| {
                    vec![ConfigValue {
                        name: "WPT".into(),
                        value: seq.to_string(),
                    }]
                }),
                reason: None,
            })
            .unwrap();
        }
        drop(w);
        let campaign = std::fs::read(&path).unwrap();
        fuzz::<CampaignJournalHeader, CampaignJournalEntry>(
            &mut rng,
            650,
            CAMPAIGN_JOURNAL_VERSION,
            &campaign,
        );

        std::fs::remove_file(&path).unwrap();
        let (mut db, mut log) = DatabaseLog::open(&path).unwrap();
        for i in 0..8u64 {
            let (kernel, config) = (format!("kernel{i}"), Config::from_pairs([("WG", i + 1)]));
            db.store(&kernel, "dev \"X\"", "w", &config, 9.5 - i as f64, i, 64);
            log.append(&db.record(&kernel, "dev \"X\"", "w").unwrap())
                .unwrap();
        }
        drop(log);
        let database = std::fs::read(&path).unwrap();
        let version = (1..10)
            .find(|&v| parse::<serde::Value, TuningRecord>(&path, &database[..], v).is_ok())
            .expect("the database log's header carries its version");
        fuzz::<serde::Value, TuningRecord>(&mut rng, 650, version, &database);
    }
}
