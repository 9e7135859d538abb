//! Command-line drivers: one workload per invocation (the form
//! `BENCHMARK.json` records), and `run`, which executes all six workloads in
//! child processes and writes the result file `compare` consumes.

use crate::envinfo;
use crate::probes;
use crate::stats;
use crate::trace;
use crate::workload::{self, Checks, Metric, Params, Workload};
use crate::workloads::{campaign, service, spacegen, tune, NAMES};
use serde_json::{Number, Value};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Share of the box a traced invocation gives each of its two short boxes
/// (untraced, then traced); the rest of its time goes to the layer probes.
const TRACED_BOX_SHARE: f64 = 0.3;
/// Box length of `--quick` smoke runs.
const QUICK_SECONDS: f64 = 0.3;

/// Span names that become `span.<name>_us` per-layer metrics (median
/// duration in the traced box; 0 on workloads that never make the call).
pub const SPAN_NAMES: [&str; 14] = [
    "spacegen.generate_parallel",
    "space.drop",
    "space.get_block",
    "session.next_ticket",
    "cost.evaluate",
    "session.report_ticket",
    "session.resume_from_journal",
    "client.open",
    "client.next",
    "client.report",
    "client.finish",
    "client.status",
    "client.lookup",
    "campaign.run_campaign",
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    repeat: usize,
    out: Option<PathBuf>,
    scratch: Option<PathBuf>,
    corrupt_expected: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        repeat: 1,
        out: None,
        scratch: None,
        corrupt_expected: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let number = |v: String| v.parse::<f64>().map_err(|_| format!("bad number `{v}`"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                a.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--seconds" => a.seconds = Some(number(value()?)?).filter(|s| *s > 0.0),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => a.quick = true,
            "--repeat" => a.repeat = (number(value()?)? as usize).max(1),
            "--out" => a.out = Some(value()?.into()),
            "--scratch" => a.scratch = Some(value()?.into()),
            "--corrupt-expected" => a.corrupt_expected = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.quick { QUICK_SECONDS } else { 10.0 })
    }
}

/// Where scratch files and traces go: `<target dir>/atf-suite/`, next to the
/// build that produced this binary — inside the checkout, on its filesystem,
/// and already ignored by git.
fn output_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("atf-suite")))
        .unwrap_or_else(|| PathBuf::from("target/atf-suite"))
}

fn run_workload<W: Workload>(p: &Params, traced: bool, root: &Path) -> (Checks, Vec<Metric>) {
    let mut checks = Checks::default();
    let metrics = if traced {
        per_layer::<W>(p, root, &mut checks)
    } else {
        workload::end_to_end::<W>(p, &mut checks)
    };
    std::fs::remove_dir_all(&p.scratch).ok();
    (checks, metrics)
}

/// The traced invocation: a short untraced box and a short traced box of
/// the workload (their ratio is the tracing overhead), the trace file, the
/// span medians, and every layer probe.
fn per_layer<W: Workload>(p: &Params, root: &Path, checks: &mut Checks) -> Vec<Metric> {
    // Probes first: two of them want the allocator as the process found it.
    let probes = probes::all(p, checks);
    let short = Params {
        box_len: p.box_len.mul_f64(TRACED_BOX_SHARE),
        ..p.clone()
    };
    let (state, _) = workload::timed_setup::<W>(&short, checks);
    let untraced = W::run(state, &short, false, checks);
    let (state, _) = workload::timed_setup::<W>(&short, checks);
    let traced = W::run(state, &short, true, checks);
    checks.check(untraced.ops > 0 && traced.ops > 0, || {
        "no operation completed in a traced-run box".into()
    });

    let path = root.join(format!("trace-{}.json", W::NAME));
    match trace::write_json(&path, W::NAME, &traced.spans, traced.spans_dropped) {
        Ok(()) => println!("trace: {} spans in {}", traced.spans.len(), path.display()),
        Err(e) => checks.failed_op(format!("could not write {}: {e}", path.display())),
    }
    let mut metrics: Vec<Metric> = vec![
        (
            "trace.overhead_ratio".into(),
            traced.ops_per_s() / untraced.ops_per_s(),
            "ratio",
        ),
        ("trace.spans".into(), traced.spans.len() as f64, "count"),
        ("trace.dropped".into(), traced.spans_dropped as f64, "count"),
    ];
    let durations = trace::durations_by_name(&traced.spans);
    for name in SPAN_NAMES {
        let median_us = durations.get(name).map_or(0.0, |d| stats::median(d) / 1e3);
        metrics.push((format!("span.{name}_us"), median_us, "us"));
    }
    for (name, totals) in trace::totals_by_name(&traced.spans) {
        println!(
            "  span {name}: n={} total={:.3} ms self={:.3} ms",
            totals.count,
            totals.total_ns as f64 / 1e6,
            totals.self_ns as f64 / 1e6
        );
    }
    metrics.extend(probes);
    metrics
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".into(), Value::Number(Number::from_f64(*value))),
                        ("unit".into(), Value::String((*unit).into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// One workload, one result line. Returns whether every check passed.
pub fn workload_main(args: &[String]) -> Result<bool, String> {
    let a = parse(args)?;
    let name = a
        .workload
        .clone()
        .ok_or_else(|| format!("--workload NAME is required (one of {})", NAMES.join(", ")))?;
    let root = output_root();
    let p = Params {
        seed: a.seed,
        box_len: Duration::from_secs_f64(a.seconds()),
        quick: a.quick,
        clients: envinfo::clients(),
        scratch: a
            .scratch
            .clone()
            .unwrap_or_else(|| root.join(format!("tmp/{name}-{}", std::process::id()))),
        corrupt_expected: a.corrupt_expected,
    };
    std::fs::create_dir_all(&p.scratch).map_err(|e| format!("scratch directory: {e}"))?;
    println!(
        "atf-suite {name}: seed {} box {} s trace {} quick {} | nproc {} clients {} gen threads {} \
         | scratch {} ({})",
        p.seed,
        a.seconds(),
        a.trace,
        p.quick,
        envinfo::nproc(),
        p.clients,
        atf_core::spacegen::default_threads(),
        p.scratch.display(),
        envinfo::fs_type(&p.scratch),
    );
    let (checks, metrics) = match name.as_str() {
        "spacegen_xgemm" => run_workload::<spacegen::SpacegenXgemm>(&p, a.trace, &root),
        "tune_mem" => run_workload::<tune::TuneMem>(&p, a.trace, &root),
        "tune_journal" => run_workload::<tune::TuneJournal>(&p, a.trace, &root),
        "service_steady" => run_workload::<service::ServiceSteady>(&p, a.trace, &root),
        "service_churn" => run_workload::<service::ServiceChurn>(&p, a.trace, &root),
        "campaign_journal" => run_workload::<campaign::CampaignJournal>(&p, a.trace, &root),
        other => return Err(format!("unknown workload `{other}`")),
    };
    for (metric, value, unit) in &metrics {
        println!("  {metric} = {value} {unit}");
    }
    for message in &checks.messages {
        println!("  FAILED: {message}");
    }
    let correct = checks.failed == 0 && !metrics.is_empty();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        (
            "attempted".into(),
            Value::Number(Number::from_u64(checks.attempted.max(1))),
        ),
        (
            "failed".into(),
            Value::Number(Number::from_u64(checks.failed)),
        ),
        ("metrics".into(), metrics_json(&metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

/// `atf-suite run`: all six workloads, each in its own child process (clean
/// allocator, its own `VmHWM`), `--repeat K` times; writes the result file.
pub fn run_main(args: &[String]) -> Result<bool, String> {
    let a = parse(args)?;
    let root = output_root();
    let out = a.out.clone().unwrap_or_else(|| root.join("result.json"));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    let mut all_correct = true;
    for name in NAMES {
        let mut runs = Vec::new();
        for k in 0..a.repeat {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds().to_string()])
                .args(["--trace", if a.trace { "1" } else { "0" }]);
            if a.quick {
                cmd.arg("--quick");
            }
            if a.corrupt_expected {
                cmd.arg("--corrupt-expected");
            }
            if let Some(scratch) = &a.scratch {
                cmd.arg("--scratch").arg(scratch.join(name));
            }
            let output = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = stdout
                .lines()
                .last()
                .and_then(|l| serde_json::parse_value(l).ok())
                .filter(|v| v.get("metrics").is_some());
            let Some(result) = result else {
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                return Err(format!("{name} run {k} printed no result line"));
            };
            let correct = result.get("correct").and_then(Value::as_bool) == Some(true);
            all_correct &= correct && output.status.success();
            println!("{name} [{}/{}] correct={correct}", k + 1, a.repeat);
            for (metric, v) in result
                .get("metrics")
                .and_then(Value::as_object)
                .unwrap_or(&[])
            {
                println!(
                    "  {metric} = {} {}",
                    v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
                    v.get("unit").and_then(Value::as_str).unwrap_or("")
                );
            }
            if !correct {
                for line in stdout.lines().filter(|l| l.contains("FAILED")) {
                    println!("{line}");
                }
            }
            runs.push(result);
        }
        rows.push(Value::Object(vec![
            ("workload".into(), Value::String(name.into())),
            ("runs".into(), Value::Array(runs)),
        ]));
    }
    let file = Value::Object(vec![
        ("env".into(), envinfo::env_block(a.seed, a.seconds(), &root)),
        ("traced".into(), Value::Bool(a.trace)),
        ("workloads".into(), Value::Array(rows)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::write(&out, text + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!("result file: {}", out.display());
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a = parse(&args(&[
            "--workload",
            "tune_mem",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("parses");
        assert_eq!(a.workload.as_deref(), Some("tune_mem"));
        assert_eq!((a.seed, a.seconds(), a.trace), (7, 10.0, true));
        let b = parse(&args(&["--trace", "0", "--quick"])).expect("parses");
        assert!(!b.trace && b.quick);
        assert_eq!(b.seconds(), QUICK_SECONDS);
        let c = parse(&args(&["--trace", "1", "--repeat", "3"])).expect("parses");
        assert!(c.trace);
        assert_eq!(c.repeat, 3);
        assert!(parse(&args(&["--trace", "yes"])).is_err());
        assert!(parse(&args(&["--bogus"])).is_err());
        assert!(parse(&args(&["--seed"])).is_err());
    }

    /// The output check is part of the run: with one expected value
    /// corrupted the workload must report a failure, and without it none.
    #[test]
    fn a_corrupted_expected_value_fails_the_run() {
        let scratch = std::env::temp_dir().join(format!("atf-suite-unit-{}", std::process::id()));
        let p = |corrupt| Params {
            seed: 1,
            box_len: Duration::from_millis(100),
            quick: true,
            clients: 1,
            scratch: scratch.clone(),
            corrupt_expected: corrupt,
        };
        let (ok, metrics) = run_workload::<campaign::CampaignJournal>(&p(false), false, &scratch);
        assert_eq!(ok.failed, 0, "{:?}", ok.messages);
        assert!(ok.attempted > 0);
        assert_eq!(metrics.len(), 6);
        let (bad, _) = run_workload::<campaign::CampaignJournal>(&p(true), false, &scratch);
        assert!(bad.failed > 0, "corrupted expectation went unnoticed");
        assert!(bad.messages[0].contains("expected"), "{:?}", bad.messages);
        std::fs::remove_dir_all(&scratch).ok();
    }
}
