//! Spec-hash-keyed space files — library-only.
//!
//! No product path stores or loads a space: `atf-tune run` and the
//! service's `open` generate one every time, because on every space
//! measured a load saves less than a store costs (DESIGN.md, "Why there is
//! no space cache"). What remains is the leaf the benchmark still times:
//! [`SpaceCache::store`] / [`SpaceCache::load`] of generated group spaces
//! under [`spec_key`], a content hash of the *canonicalized parameter
//! specification* — names, ranges, and constraint strings.
//!
//! An entry is a [`crate::wal`] log: a header line (`version`, `key`, group
//! count) and one checksummed line per group holding the group's packed
//! form — per parameter the values its codes decode to (loaded back as a
//! [`Range::Set`] dictionary), the stored prefix length, the code width and
//! the rows' codes as one hex string. A torn, altered or out-of-range entry
//! is a miss; so is one of an older version.
//!
//! Invalidation is by key: any change to a parameter name, range bound,
//! step, set element, or constraint string changes the canonical text and
//! therefore the key. Keys concatenate two independent FNV-1a 64 hashes of
//! the canonical text for an effectively 128-bit key, and the stored file
//! repeats the key so a colliding file is rejected on load.
//!
//! Writes go through [`crate::wal::replace_atomically`] — a crash
//! mid-store leaves either the old entry or none, never a torn one.

use super::packed::PackedRows;
use crate::range::Range;
use crate::space::GroupSpace;
use crate::spec::ParameterSpec;
use crate::value::Value;
use crate::wal::{self, fnv1a64};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

const CACHE_VERSION: u32 = 2;

/// An unconstrained (tail) range longer than this is not written out value
/// by value: the group is mostly a product that regenerates in no time.
const MAX_TAIL_VALUES: u64 = 1 << 20;

/// The canonical text form of a parameter list — the hash input. Field
/// order is fixed and every range/constraint detail is spelled out, so
/// equal canonical text means an identical search space.
fn canonical(parameters: &[ParameterSpec]) -> String {
    let mut s = String::new();
    for p in parameters {
        s.push_str("param=");
        s.push_str(&p.name);
        if let Some(iv) = &p.interval {
            s.push_str(&format!(";interval={}:{}:{}", iv.begin, iv.end, iv.step));
        }
        if let Some(set) = &p.set {
            s.push_str(";set=");
            for (i, v) in set.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&v.to_string());
            }
        }
        if let Some(c) = &p.constraint {
            s.push_str(";constraint=");
            s.push_str(c);
        }
        s.push('\n');
    }
    s
}

/// The cache key for a parameter specification: two independent FNV-1a 64
/// hashes of the canonical text, hex-concatenated.
pub fn spec_key(parameters: &[ParameterSpec]) -> String {
    let text = canonical(parameters);
    let a = fnv1a64(None, text.as_bytes());
    let b = fnv1a64(Some(0x6c62_272e_07bb_0142), text.as_bytes());
    format!("{a:016x}{b:016x}")
}

#[derive(Debug, Serialize, Deserialize)]
struct CacheHeader {
    version: u32,
    key: String,
    groups: usize,
}

/// One group space in packed form ([`GroupSpace`]), its codes re-based on
/// the values they actually use so that every range is a finite table.
#[derive(Debug, Serialize, Deserialize)]
struct CacheGroup {
    names: Vec<String>,
    /// Per parameter, its values in code order — the decode dictionary.
    values: Vec<Vec<String>>,
    /// How many leading parameters a row stores a code for.
    prefix_len: usize,
    /// Bytes per code.
    width: usize,
    /// The rows' codes, hex.
    codes: String,
}

impl CacheGroup {
    fn pack(group: &GroupSpace) -> io::Result<Self> {
        let (ranges, rows) = group.packed();
        let (prefix_len, rows_len) = (rows.row_len(), rows.rows() as usize);
        // Per parameter, the ascending range positions its table lists: a
        // prefix column's distinct positions, all of a tail range's.
        let mut used: Vec<Vec<u64>> = Vec::with_capacity(ranges.len());
        for (d, range) in ranges.iter().enumerate() {
            let mut column: Vec<u64> = if d < prefix_len {
                let column = (0..rows_len).map(|r| rows.get(r * prefix_len + d));
                column.collect()
            } else if range.len() <= MAX_TAIL_VALUES {
                (0..range.len()).collect()
            } else {
                return Err(io::Error::other("an unconstrained range is too wide"));
            };
            column.sort_unstable();
            column.dedup();
            used.push(column);
        }
        let table = |(range, used): (&Range, &Vec<u64>)| {
            Range::Set(used.iter().map(|&pos| range.get(pos)).collect())
        };
        let tables: Vec<Range> = ranges.iter().zip(&used).map(table).collect();
        let mut rebased = PackedRows::new(&tables[..prefix_len]);
        let mut row = vec![0u64; prefix_len];
        for r in 0..rows_len {
            for (d, index) in row.iter_mut().enumerate() {
                let found = used[d].binary_search(&rows.get(r * prefix_len + d));
                *index = found.expect("every position was collected above") as u64;
            }
            rebased.push(&row);
        }
        let tokens = |table: &Range| table.iter().map(|v| encode_value(&v)).collect();
        Ok(CacheGroup {
            names: group.names().iter().map(|n| n.to_string()).collect(),
            values: tables.iter().map(tokens).collect(),
            prefix_len,
            width: rebased.width(),
            codes: rebased.to_hex(),
        })
    }

    /// `None` unless the entry decodes to whole rows of in-range codes.
    fn unpack(&self) -> Option<GroupSpace> {
        if self.values.len() != self.names.len() || self.prefix_len > self.names.len() {
            return None;
        }
        let table = |tokens: &Vec<String>| {
            let values: Option<Arc<[Value]>> = tokens.iter().map(|s| decode_value(s)).collect();
            values.map(Range::Set)
        };
        let ranges = self.values.iter().map(table).collect::<Option<Vec<_>>>()?;
        let rows = PackedRows::from_hex(&ranges[..self.prefix_len], &self.codes)?;
        let names = self.names.iter().map(|n| Arc::from(n.as_str())).collect();
        if rows.width() != self.width {
            return None;
        }
        GroupSpace::from_rows(names, ranges, rows).ok()
    }
}

/// Encodes a value as a tagged token that round-trips exactly (floats via
/// bit pattern).
fn encode_value(v: &Value) -> String {
    match v {
        Value::Bool(b) => format!("b:{}", u8::from(*b)),
        Value::Int(i) => format!("i:{i}"),
        Value::UInt(u) => format!("u:{u}"),
        Value::Float(f) => format!("f:{:016x}", f.to_bits()),
        Value::Symbol(s) => format!("s:{s}"),
    }
}

fn decode_value(s: &str) -> Option<Value> {
    let (tag, body) = s.split_once(':')?;
    match tag {
        "b" => match body {
            "0" => Some(Value::Bool(false)),
            "1" => Some(Value::Bool(true)),
            _ => None,
        },
        "i" => body.parse::<i64>().ok().map(Value::Int),
        "u" => body.parse::<u64>().ok().map(Value::UInt),
        "f" => u64::from_str_radix(body, 16)
            .ok()
            .map(|bits| Value::Float(f64::from_bits(bits))),
        "s" => Some(Value::Symbol(body.into())),
        _ => None,
    }
}

/// A directory of persisted group spaces, one JSON file per spec key.
#[derive(Clone, Debug)]
pub struct SpaceCache {
    dir: PathBuf,
}

impl SpaceCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SpaceCache { dir: dir.into() }
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.space.json"))
    }

    /// Loads the group spaces stored under `key`. Any miss, version
    /// mismatch, key mismatch, or decode failure returns `None`.
    pub fn load(&self, key: &str) -> Option<Vec<GroupSpace>> {
        let path = self.entry_path(key);
        let log = wal::load::<CacheHeader, CacheGroup>(&path, CACHE_VERSION).ok()??;
        if log.header.key != key || log.entries.len() != log.header.groups {
            return None;
        }
        let unpacked = log.entries.iter().map(CacheGroup::unpack);
        let groups = unpacked.collect::<Option<Vec<GroupSpace>>>()?;
        // `SearchSpace` takes unique names for granted; a file need not.
        let names: Vec<_> = groups.iter().flat_map(|g| g.names()).collect();
        if (1..names.len()).any(|i| names[..i].contains(&names[i])) {
            return None;
        }
        Some(groups)
    }

    /// Persists `groups` under `key`, atomically. Fails without writing
    /// for a group whose unconstrained tail is too wide to list
    /// ([`MAX_TAIL_VALUES`]).
    pub fn store(&self, key: &str, groups: &[GroupSpace]) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let entries = groups
            .iter()
            .map(CacheGroup::pack)
            .collect::<io::Result<Vec<_>>>()?;
        let header = CacheHeader {
            version: CACHE_VERSION,
            key: key.to_string(),
            groups: entries.len(),
        };
        wal::replace_atomically(&self.entry_path(key), |out| {
            wal::write_log(out, &header, &entries)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::divides;
    use crate::expr::cst;
    use crate::param::{auto_group, tp, tp_c, ParamGroup};
    use crate::space::SearchSpace;
    use crate::spec::{build_params, IntervalSpec};

    fn spec(n: u64) -> Vec<ParameterSpec> {
        vec![
            ParameterSpec {
                name: "WPT".into(),
                interval: Some(IntervalSpec {
                    begin: 1,
                    end: n,
                    step: 1,
                }),
                set: None,
                constraint: Some(format!("divides({n})")),
            },
            ParameterSpec {
                name: "LS".into(),
                interval: Some(IntervalSpec {
                    begin: 1,
                    end: n,
                    step: 1,
                }),
                set: None,
                constraint: Some(format!("divides({n} / WPT)")),
            },
        ]
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("atf-spacecache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn keys_are_stable_and_spec_sensitive() {
        assert_eq!(spec_key(&spec(64)), spec_key(&spec(64)));
        assert_ne!(spec_key(&spec(64)), spec_key(&spec(65)));
        let mut renamed = spec(64);
        renamed[0].name = "WPT2".into();
        assert_ne!(spec_key(&spec(64)), spec_key(&renamed));
        let mut unconstrained = spec(64);
        unconstrained[1].constraint = None;
        assert_ne!(spec_key(&spec(64)), spec_key(&unconstrained));
    }

    #[test]
    fn store_load_round_trip() {
        let dir = tmp_dir("roundtrip");
        let cache = SpaceCache::new(&dir);
        let specs = spec(32);
        let key = spec_key(&specs);
        assert!(cache.load(&key).is_none());

        let params = build_params(&specs).unwrap();
        let groups = auto_group(params);
        let generated: Vec<GroupSpace> = groups.iter().map(GroupSpace::generate).collect();
        cache.store(&key, &generated).unwrap();

        let loaded = cache.load(&key).expect("hit after store");
        let a = SearchSpace::from_group_spaces(generated);
        let b = SearchSpace::from_group_spaces(loaded);
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.get(i), b.get(i), "config {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_miss() {
        let dir = tmp_dir("corrupt");
        let cache = SpaceCache::new(&dir);
        let specs = spec(8);
        let key = spec_key(&specs);
        let path = cache.entry_path(&key);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, b"{not json").unwrap();
        assert!(cache.load(&key).is_none());
        // The previous version's entry: regenerated, not read.
        std::fs::write(
            &path,
            format!("{{\"version\":1,\"key\":\"{key}\",\"groups\":[]}}\n"),
        )
        .unwrap();
        assert!(cache.load(&key).is_none());
        std::fs::write(
            &path,
            b"{\"version\":2,\"key\":\"mismatch\",\"groups\":0}\n",
        )
        .unwrap();
        assert!(cache.load(&key).is_none());

        let groups = auto_group(build_params(&specs).unwrap());
        let generated: Vec<GroupSpace> = groups.iter().map(GroupSpace::generate).collect();
        cache.store(&key, &generated).unwrap();
        let intact = std::fs::read(&path).unwrap();
        assert!(cache.load(&key).is_some());
        // Truncated anywhere: the header alone, or a torn group line.
        for cut in (0..intact.len()).step_by(7) {
            std::fs::write(&path, &intact[..cut]).unwrap();
            assert!(cache.load(&key).is_none(), "cut at {cut}");
        }
        // One bit flipped anywhere: the line's checksum, or the header's
        // key or count, no longer matches.
        for at in (0..intact.len() - 1).step_by(5) {
            let mut flipped = intact.clone();
            flipped[at] ^= 1 << (at % 8);
            std::fs::write(&path, &flipped).unwrap();
            assert!(cache.load(&key).is_none(), "bit flipped in byte {at}");
        }
        // A well-formed, correctly checksummed entry whose codes point
        // past their value tables, stop mid-row, or disagree with the
        // declared width is refused before anything is decoded.
        let stored = CacheGroup::pack(&generated[0]).unwrap();
        let tampered = |edit: &dyn Fn(&mut CacheGroup)| {
            let mut entry = CacheGroup::pack(&generated[0]).unwrap();
            edit(&mut entry);
            let header = CacheHeader {
                version: CACHE_VERSION,
                key: key.clone(),
                groups: 1,
            };
            wal::replace_atomically(&path, |out| wal::write_log(out, &header, [&entry])).unwrap();
            cache.load(&key).is_some()
        };
        assert!(tampered(&|_| {}), "the untampered rewrite loads");
        assert_eq!((stored.prefix_len, stored.width), (2, 1));
        assert!(!tampered(&|e| e.codes.replace_range(0..2, "ff")));
        assert!(!tampered(&|e| e.codes.truncate(stored.codes.len() - 2)));
        assert!(!tampered(&|e| e.codes.push('0')));
        assert!(!tampered(&|e| e.codes.replace_range(0..1, "g")));
        assert!(!tampered(&|e| e.width = 2));
        assert!(!tampered(&|e| e.prefix_len = 3));
        assert!(!tampered(&|e| e.values.truncate(1)));
        assert!(!tampered(&|e| e.values[1][0] = "x:1".into()));
        assert!(!tampered(&|e| e.names[1] = e.names[0].clone()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_keep_only_the_values_their_codes_use() {
        // LS ranges over 1..=2^40 but takes 41 values; the entry lists
        // those, re-based, and a tail too wide to list is not stored.
        let n = 1u64 << 40;
        let wide = ParamGroup::new(vec![
            tp_c("WPT", Range::interval(1, 64), divides(cst(64u64))),
            tp_c("LS", Range::interval(1, n), divides(cst(n))),
            tp("PAD", Range::boolean()),
        ]);
        let generated = GroupSpace::generate(&wide);
        let entry = CacheGroup::pack(&generated).unwrap();
        assert_eq!((entry.prefix_len, entry.width), (2, 1));
        assert_eq!(
            entry.values.iter().map(Vec::len).collect::<Vec<_>>(),
            [7, 41, 2]
        );
        let loaded = entry.unpack().expect("round trip");
        assert_eq!(loaded.len(), generated.len());
        for i in 0..generated.len() {
            assert_eq!(loaded.values(i), generated.values(i), "config {i}");
        }
        let unlistable = ParamGroup::new(vec![tp("X", Range::interval(1, n))]);
        let dir = tmp_dir("unlistable");
        let stored = SpaceCache::new(&dir).store("k", &[GroupSpace::generate(&unlistable)]);
        assert!(stored.is_err() && !dir.join("k.space.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn value_tokens_round_trip() {
        for v in [
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::UInt(u64::MAX),
            Value::Float(0.1),
            Value::Float(f64::NEG_INFINITY),
            Value::Symbol("vec4".into()),
        ] {
            let token = encode_value(&v);
            let back = decode_value(&token).expect("decodes");
            match (&v, &back) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(v, back),
            }
        }
        assert!(decode_value("x:1").is_none());
        assert!(decode_value("noprefix").is_none());
    }
}
