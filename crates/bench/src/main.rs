//! `atf-bench`: regenerates and checks the paper's evaluation.
//!
//! ```text
//! atf-bench <experiment>   run one experiment, write results/<experiment>.json
//! atf-bench all            run every experiment, write every results file
//! atf-bench check          run every experiment without writing; exit 1 unless
//!                          every exact field equals the committed results and
//!                          every predicate holds
//! atf-bench gemm-cost      one XgemmDirect evaluation for `atf-tune` (see below)
//! ```
//!
//! Exit codes: 0 success, 1 a write, a predicate or a check failed (results
//! are still written when only a predicate fails), 2 usage error.

use atf_bench::experiments::EXPERIMENTS;
use atf_bench::{devices, print_table, read_records, results_path, write_records, Experiment};
use atf_core::config::Config;
use atf_core::cost::CostFunction;
use atf_core::value::Value;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [command] = args.as_slice() else { usage() };
    let experiments = match command.as_str() {
        "gemm-cost" => return gemm_cost(),
        "check" => return check(),
        "all" => EXPERIMENTS,
        name => match EXPERIMENTS.iter().position(|e| e.name == name) {
            Some(i) => &EXPERIMENTS[i..=i],
            None => usage(),
        },
    };
    let failed: Vec<String> = experiments.iter().flat_map(regenerate).collect();
    if !failed.is_empty() {
        eprintln!("results written, but these predicates fail:");
        failed.iter().for_each(|p| eprintln!("  {p}"));
        exit(1);
    }
}

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!("usage: atf-bench <experiment>|all|check|gemm-cost");
    eprintln!("experiments: {}", names.join(", "));
    exit(2)
}

/// Runs an experiment, prints its table and predicates, and returns its
/// records and the statements of the predicates that fail.
fn run(experiment: &Experiment) -> (Vec<atf_bench::Record>, Vec<String>) {
    println!("== {}: {}", experiment.name, experiment.paper);
    let records = (experiment.run)();
    print_table(&records);
    let mut failed = Vec::new();
    for (claim, holds) in experiment.predicates {
        match holds(&records) {
            Ok(()) => println!("  holds: {claim}"),
            Err(why) => {
                println!("  FAILS: {claim}: {why}");
                failed.push(format!("{}: {claim}", experiment.name));
            }
        }
    }
    println!();
    (records, failed)
}

/// Runs an experiment and writes its results file; returns the predicates
/// that fail.
fn regenerate(experiment: &Experiment) -> Vec<String> {
    let (records, failed) = run(experiment);
    let path = results_path(experiment.name);
    if let Err(e) = write_records(&path, &records) {
        eprintln!("atf-bench: cannot write {}: {e}", path.display());
        exit(1);
    }
    println!("records written to {}\n", path.display());
    failed
}

fn check() {
    let mut problems = Vec::new();
    for experiment in EXPERIMENTS {
        let (records, failed) = run(experiment);
        problems.extend(failed);
        let path = results_path(experiment.name);
        match read_records(&path) {
            Ok(committed) => {
                let file = format!("results/{}.json", experiment.name);
                let mismatches = atf_bench::exact_mismatches(&committed, &records);
                problems.extend(mismatches.into_iter().map(|m| format!("{file} / {m}")));
            }
            Err(e) => problems.push(format!("cannot read {e}")),
        }
    }
    if problems.is_empty() {
        println!("check: every exact field reproduces and every predicate holds");
    } else {
        eprintln!("check failed (file / record / field / committed / now):");
        problems.iter().for_each(|p| eprintln!("  {p}"));
        exit(1);
    }
}

/// The bridge for `examples/campaigns/gemm_repro.campaign.json`: ONE
/// XgemmDirect evaluation on the simulated device, run by `atf-tune` like any
/// external program. `ATF_SOURCE` names a one-line workload file, `<device>
/// <m> <n> <k>` (e.g. `GPU 20 576 1`), the configuration arrives as
/// `ATF_TP_<NAME>`, and the kernel time in ns goes to `ATF_LOG_FILE` (stdout
/// without one). An infeasible configuration exits 2, which the tuner records
/// as a failed evaluation.
fn gemm_cost() {
    let fail = |msg: String| -> ! {
        eprintln!("atf-bench gemm-cost: {msg}");
        exit(2)
    };
    let source = std::env::var("ATF_SOURCE")
        .unwrap_or_else(|_| fail("ATF_SOURCE is not set (run me through `atf-tune`)".into()));
    let workload = std::fs::read_to_string(&source)
        .unwrap_or_else(|e| fail(format!("cannot read workload file {source}: {e}")));
    let words: Vec<&str> = workload.split_whitespace().collect();
    let (device_label, shape) = match words.as_slice() {
        [device, m, n, k, ..] => match (m.parse(), n.parse(), k.parse()) {
            (Ok(m), Ok(n), Ok(k)) => (*device, (m, n, k)),
            _ => fail("workload file must read `<device> <m> <n> <k>`".into()),
        },
        _ => fail("workload file must read `<device> <m> <n> <k>`".into()),
    };
    let device = devices()
        .into_iter()
        .find(|(label, _)| *label == device_label)
        .map(|(_, d)| d)
        .unwrap_or_else(|| fail(format!("unknown device `{device_label}` (CPU or GPU)")));
    let params = [
        "WGD", "MDIMCD", "NDIMCD", "MDIMAD", "NDIMBD", "KWID", "VWMD", "VWND", "PADA", "PADB",
    ];
    let config = Config::from_pairs(params.map(|name| {
        let var = format!("ATF_TP_{name}");
        let value = std::env::var(&var).ok().and_then(|v| v.parse().ok());
        let value = value.unwrap_or_else(|| fail(format!("{var} is not set to an integer")));
        (name, Value::UInt(value))
    }));
    let mut cf = atf_bench::xgemm_cost_function(device, shape);
    let cost = cf
        .evaluate(&config)
        .unwrap_or_else(|e| fail(format!("infeasible configuration: {e}")));
    match std::env::var("ATF_LOG_FILE") {
        Ok(log) => std::fs::write(&log, format!("{cost}\n"))
            .unwrap_or_else(|e| fail(format!("cannot write {log}: {e}"))),
        Err(_) => println!("{cost}"),
    }
}
