//! `atf-suite` — the repository's benchmark.
//!
//! ```text
//! atf-suite --workload NAME --seed N --seconds S --trace 0|1   one workload, one JSON line
//! atf-suite run [--seed N] [--seconds S] [--repeat K] [--trace] [--out FILE]
//! atf-suite compare OLD.json NEW.json [--spec BENCHMARK.json]
//! ```
//!
//! See `README.md` beside this crate for the workloads, the metrics and how
//! to read a trace.

mod compare;
mod envinfo;
mod inputs;
mod probes;
mod stats;
mod suite;
mod trace;
mod workload;
mod workloads;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => suite::run_main(&args[1..]),
        Some("compare") => compare::compare_main(&args[1..]),
        Some("oracle") => match args.get(1).and_then(|c| c.parse().ok()) {
            Some(cap) => {
                workloads::spacegen::oracle_main(cap);
                Ok(true)
            }
            None => Err("usage: atf-suite oracle CAP".to_string()),
        },
        _ => suite::workload_main(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(usage) => {
            eprintln!("atf-suite: {usage}");
            ExitCode::from(2)
        }
    }
}
