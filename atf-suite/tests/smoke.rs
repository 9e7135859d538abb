//! End-to-end smoke of the built `atf-suite` binary at `--quick` sizes: all
//! six workloads run, check their outputs and print every declared metric;
//! a corrupted expectation makes the run fail; nothing is written outside
//! the build's target directory.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Instant;

const BIN: &str = env!("CARGO_BIN_EXE_atf-suite");

fn tmp(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn suite(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn atf-suite")
}

fn last_json_line(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("some output");
    serde_json::parse_value(line).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {line}"))
}

/// The names `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let spec = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    spec.get(key)
        .and_then(Value::as_array)
        .expect("list present")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn metric_names(result: &Value) -> Vec<String> {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, _)| name.clone())
        .collect()
}

#[test]
fn quick_suite_runs_all_six_workloads_and_checks_them() {
    let dir = tmp("smoke-run");
    let out_file = dir.join("result.json");
    let started = Instant::now();
    let out = suite(&[
        "run",
        "--quick",
        "--seed",
        "2",
        "--out",
        out_file.to_str().unwrap(),
        "--scratch",
        dir.join("scratch").to_str().unwrap(),
    ]);
    let wall = started.elapsed();
    assert!(
        out.status.success(),
        "quick suite failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(wall.as_secs() < 20, "quick suite took {wall:?}");

    let text = std::fs::read_to_string(&out_file).expect("result file written");
    let file = serde_json::parse_value(&text).expect("result file parses");
    let env = file.get("env").expect("env block");
    assert_eq!(env.get("seed").and_then(Value::as_u64), Some(2));
    let rows = file
        .get("workloads")
        .and_then(Value::as_array)
        .expect("rows");
    let names: Vec<&str> = rows
        .iter()
        .map(|r| r.get("workload").and_then(Value::as_str).expect("name"))
        .collect();
    let declared_workloads = declared("workloads");
    assert_eq!(
        names, declared_workloads,
        "suite order = BENCHMARK.json order"
    );
    let end_to_end = declared("end_to_end");
    for row in rows {
        let run = &row.get("runs").and_then(Value::as_array).expect("runs")[0];
        assert_eq!(
            run.get("correct").and_then(Value::as_bool),
            Some(true),
            "{row:?}"
        );
        assert_eq!(run.get("failed").and_then(Value::as_u64), Some(0));
        assert_eq!(metric_names(run), end_to_end, "{row:?}");
        for (name, metric) in run.get("metrics").and_then(Value::as_object).unwrap() {
            let value = metric.get("value").and_then(Value::as_f64).expect("value");
            assert!(value > 0.0 && value.is_finite(), "{name} = {value}");
        }
    }
    // A result file compares clean against itself.
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let same = suite(&[
        "compare",
        out_file.to_str().unwrap(),
        out_file.to_str().unwrap(),
        "--spec",
        spec.to_str().unwrap(),
    ]);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn traced_run_prints_every_declared_per_layer_metric() {
    let dir = tmp("smoke-trace");
    let out = suite(&[
        "--workload",
        "service_steady",
        "--seed",
        "1",
        "--trace",
        "1",
        "--quick",
        "--scratch",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let result = last_json_line(&out);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(metric_names(&result), declared("per_layer"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let trace_line = stdout
        .lines()
        .find(|l| l.starts_with("trace: "))
        .expect("trace line");
    let path = trace_line.rsplit(" in ").next().expect("trace path");
    let trace = serde_json::parse_value(&std::fs::read_to_string(path).expect("trace file"))
        .expect("trace file parses");
    assert!(!trace
        .get("spans")
        .and_then(Value::as_array)
        .expect("spans")
        .is_empty());
}

#[test]
fn a_failed_output_check_makes_the_binary_exit_non_zero() {
    let dir = tmp("smoke-corrupt");
    let out = suite(&[
        "--workload",
        "tune_mem",
        "--trace",
        "0",
        "--quick",
        "--corrupt-expected",
        "--scratch",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let result = last_json_line(&out);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(false));
    assert!(result.get("failed").and_then(Value::as_u64).unwrap() > 0);
    // Usage errors are distinguishable from failed checks.
    assert_eq!(suite(&["--workload", "nope"]).status.code(), Some(2));
}
