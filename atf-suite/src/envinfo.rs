//! The `env` block every result carries: what machine and build produced
//! the numbers, and the settings two result files must share to be compared.

use crate::workloads::service;
use serde_json::{Number, Value};
use std::path::Path;
use std::process::Command;

/// `min(2, nproc)`: closed-loop client threads / connections.
pub fn clients() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`
/// (longest mount-point prefix wins).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            let (_, mount, fs) = (words.next()?, words.next()?, words.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

/// The env block. `seed`, `box_seconds`, `clients` and `gen_threads` are the
/// settings `compare` insists on; the rest is provenance.
pub fn env_block(seed: u64, box_seconds: f64, scratch: &Path) -> Value {
    let text = |s: Option<String>| Value::String(s.unwrap_or_else(|| "unknown".into()));
    let count = |n: usize| Value::Number(Number::from_u64(n as u64));
    Value::Object(vec![
        ("nproc".into(), count(nproc())),
        ("clients".into(), count(clients())),
        (
            "gen_threads".into(),
            count(atf_core::spacegen::default_threads()),
        ),
        ("server_io_threads".into(), count(service::IO_THREADS)),
        ("server_handlers".into(), count(service::HANDLERS)),
        (
            "git_commit".into(),
            text(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc".into(), text(command_line("rustc", &["-V"]))),
        (
            "cargo_profile".into(),
            Value::String(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("scratch_fs".into(), Value::String(fs_type(scratch))),
        ("seed".into(), Value::Number(Number::from_u64(seed))),
        (
            "box_seconds".into(),
            Value::Number(Number::from_f64(box_seconds)),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_block_names_the_settings_compare_needs() {
        let env = env_block(3, 0.5, Path::new("."));
        for key in [
            "nproc",
            "clients",
            "gen_threads",
            "git_commit",
            "rustc",
            "cargo_profile",
            "scratch_fs",
            "seed",
            "box_seconds",
        ] {
            assert!(env.get(key).is_some(), "env lacks {key}");
        }
        assert_eq!(env.get("seed").and_then(Value::as_u64), Some(3));
        assert!(clients() >= 1 && clients() <= 2);
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
    }
}
