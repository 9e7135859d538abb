//! `atf-suite compare OLD.json NEW.json`: per workload row and metric,
//! compare the medians of two result files against the bound
//! `BENCHMARK.json` declares, and say `better`, `same`, `worse` or
//! `unresolved`. Every ratio is printed with its base.

use crate::stats;
use serde_json::Value;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the old median by which the metric may get worse.
    pub bound: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A side's own quartiles are further apart than the bound, and the two
    /// sides' runs overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so spreads here match the ones the benchmark's
/// acceptance uses. One value has no spread.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let sorted = stats::sorted(values.to_vec());
    let n = sorted.len();
    if n < 2 {
        return 0.0;
    }
    let at = |p: f64| {
        let rank = (p * (n + 1) as f64 - 1.0).clamp(0.0, (n - 1) as f64);
        let lo = rank.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
    };
    (at(0.75) - at(0.25)) / stats::quantile(&sorted, 0.5).abs()
}

/// One compared metric of one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub old_median: f64,
    pub new_median: f64,
    /// Share of the old median by which the new one is worse (negative:
    /// better), in the metric's own direction.
    pub worse_by: f64,
    pub old_spread: f64,
    pub new_spread: f64,
    pub verdict: Verdict,
}

pub fn judge(spec: &MetricSpec, old: &[f64], new: &[f64]) -> Row {
    let old_median = stats::median(old);
    let new_median = stats::median(new);
    let sign = if spec.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (new_median - old_median) / old_median.abs();
    let old_spread = quartile_spread(old);
    let new_spread = quartile_spread(new);
    // `a` beats `b` when it is strictly better in the metric's direction.
    let beats = |a: f64, b: f64| sign * (a - b) < 0.0;
    let all_beat = |xs: &[f64], ys: &[f64]| xs.iter().all(|&x| ys.iter().all(|&y| beats(x, y)));
    let separated = all_beat(new, old) || all_beat(old, new);
    let verdict = if old_spread.max(new_spread) > spec.bound && !separated {
        Verdict::Unresolved
    } else if worse_by > spec.bound {
        Verdict::Worse
    } else if worse_by < -spec.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Row {
        old_median,
        new_median,
        worse_by,
        old_spread,
        new_spread,
        verdict,
    }
}

/// The `end_to_end` list of a `BENCHMARK.json`.
pub fn metric_specs(benchmark: &Value) -> Result<Vec<MetricSpec>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("higher" | "lower")), Some(bound)) => Ok(MetricSpec {
                    name: name.to_string(),
                    higher_is_better: better == "higher",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry {m:?}")),
            }
        })
        .collect()
}

/// Settings two result files must share: a different seed, box length or
/// thread count makes their numbers incomparable.
const MUST_MATCH: [&str; 6] = [
    "seed",
    "box_seconds",
    "clients",
    "gen_threads",
    "server_io_threads",
    "server_handlers",
];

fn check_envs(old: &Value, new: &Value) -> Result<(), String> {
    for key in MUST_MATCH {
        let side = |file: &Value| {
            file.get("env")
                .and_then(|e| e.get(key))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("a result file's env block lacks `{key}`"))
        };
        let (a, b) = (side(old)?, side(new)?);
        if a != b {
            return Err(format!(
                "refusing to compare: env.{key} differs (old {a}, new {b})"
            ));
        }
    }
    let traced = |file: &Value| file.get("traced").and_then(Value::as_bool);
    if traced(old) != traced(new) {
        return Err("refusing to compare a traced result file with an untraced one".into());
    }
    Ok(())
}

/// One workload row of a result file, its runs folded together.
struct WorkloadRuns {
    workload: String,
    /// Per metric, one value per run, in file order.
    metrics: Vec<(String, Vec<f64>)>,
    failed: u64,
    attempted: u64,
}

impl WorkloadRuns {
    fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn runs_of(file: &Value) -> Result<Vec<WorkloadRuns>, String> {
    let rows = file
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("result file has no `workloads` list")?;
    let mut out = Vec::new();
    for row in rows {
        let name = row
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("workload row without a name")?;
        let mut metrics: Vec<(String, Vec<f64>)> = Vec::new();
        let (mut failed, mut attempted) = (0, 0);
        for run in row.get("runs").and_then(Value::as_array).unwrap_or(&[]) {
            failed += run.get("failed").and_then(Value::as_u64).unwrap_or(0);
            attempted += run.get("attempted").and_then(Value::as_u64).unwrap_or(0);
            for (metric, v) in run.get("metrics").and_then(Value::as_object).unwrap_or(&[]) {
                let value = v
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{name}.{metric} has no numeric value"))?;
                match metrics.iter_mut().find(|(m, _)| m == metric) {
                    Some((_, values)) => values.push(value),
                    None => metrics.push((metric.clone(), vec![value])),
                }
            }
        }
        out.push(WorkloadRuns {
            workload: name.to_string(),
            metrics,
            failed,
            attempted,
        });
    }
    Ok(out)
}

/// Compares two parsed result files; prints the table and returns whether
/// nothing got worse.
pub fn compare(specs: &[MetricSpec], old: &Value, new: &Value) -> Result<bool, String> {
    check_envs(old, new)?;
    let (old_runs, new_runs) = (runs_of(old)?, runs_of(new)?);
    let mut ok = true;
    println!(
        "{:<17} {:<15} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "old median", "new median", "new/old", "bound", "old iqr", "new iqr"
    );
    for old_row in &old_runs {
        let workload = &old_row.workload;
        let Some(new_row) = new_runs.iter().find(|r| &r.workload == workload) else {
            println!("{workload:<17} missing from the new file: worse");
            ok = false;
            continue;
        };
        let (old_fail, new_fail) = (old_row.fail_ratio(), new_row.fail_ratio());
        if new_fail > old_fail {
            println!("{workload:<17} fail ratio rose from {old_fail:e} to {new_fail:e}: worse");
            ok = false;
        }
        for (metric, old_values) in &old_row.metrics {
            let Some((_, new_values)) = new_row.metrics.iter().find(|(m, _)| m == metric) else {
                println!("{workload:<17} {metric:<15} missing from the new file: worse");
                ok = false;
                continue;
            };
            // Per-layer metrics carry no bound: ratios only.
            let Some(spec) = specs.iter().find(|s| &s.name == metric) else {
                let (o, n) = (stats::median(old_values), stats::median(new_values));
                println!(
                    "{workload:<17} {metric:<15} {o:>14.6e} {n:>14.6e} {:>9.4}    (per-layer, base: old median)",
                    n / o
                );
                continue;
            };
            let row = judge(spec, old_values, new_values);
            println!(
                "{workload:<17} {metric:<15} {:>14.6e} {:>14.6e} {:>9.4} {:>6.1}% {:>7.2}% {:>7.2}%  {}{}",
                row.old_median,
                row.new_median,
                row.new_median / row.old_median,
                spec.bound * 100.0,
                row.old_spread * 100.0,
                row.new_spread * 100.0,
                row.verdict.label(),
                if row.verdict == Verdict::Worse {
                    format!(" by {:.1}% of the old median", row.worse_by * 100.0)
                } else {
                    String::new()
                }
            );
            ok &= row.verdict != Verdict::Worse;
        }
    }
    println!(
        "new/old is the new median over the old median; iqr is (q3 - q1) / median of a side's runs"
    );
    Ok(ok)
}

pub fn compare_main(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--spec" {
            spec_path = it.next().ok_or("--spec needs a path")?.clone();
        } else {
            files.push(arg.clone());
        }
    }
    let [old_path, new_path] = files.as_slice() else {
        return Err("usage: atf-suite compare OLD.json NEW.json [--spec BENCHMARK.json]".into());
    };
    let read = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::parse_value(&text).map_err(|e| format!("{path}: {e}"))
    };
    let specs = metric_specs(&read(&spec_path)?)?;
    compare(&specs, &read(old_path)?, &read(new_path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "op_p50_us".into(),
            higher_is_better: false,
            bound,
        }
    }

    fn higher(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "ops_per_s".into(),
            higher_is_better: true,
            bound,
        }
    }

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 11, 13], n=4) = [10.0, 11.0, 13.0]
        assert!((quartile_spread(&[13.0, 10.0, 11.0]) - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let same = judge(&lower(0.10), &[100.0, 101.0, 99.0], &[104.0, 105.0, 103.0]);
        assert_eq!(same.verdict, Verdict::Same);
        assert!((same.worse_by - 0.04).abs() < 1e-12);
        let worse = judge(&lower(0.10), &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]);
        assert_eq!(worse.verdict, Verdict::Worse);
        let better = judge(&lower(0.10), &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]);
        assert_eq!(better.verdict, Verdict::Better);
        // Higher is better: a drop is worse, a rise is better.
        assert_eq!(
            judge(
                &higher(0.10),
                &[1000.0, 1010.0, 990.0],
                &[800.0, 810.0, 790.0]
            )
            .verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(
                &higher(0.10),
                &[1000.0, 1010.0, 990.0],
                &[1300.0, 1310.0, 1290.0]
            )
            .verdict,
            Verdict::Better
        );
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_but_separated_ones_are_not() {
        // Old side's quartiles are 30 % apart and the sides overlap.
        let noisy = judge(&lower(0.10), &[100.0, 85.0, 115.0], &[104.0, 90.0, 118.0]);
        assert_eq!(noisy.verdict, Verdict::Unresolved);
        assert!(noisy.old_spread > 0.10);
        // As wide, but every new run beats every old run: resolved.
        let clear = judge(&lower(0.10), &[100.0, 85.0, 115.0], &[60.0, 50.0, 70.0]);
        assert_eq!(clear.verdict, Verdict::Better);
        let clearly_worse = judge(&lower(0.10), &[100.0, 85.0, 115.0], &[160.0, 150.0, 170.0]);
        assert_eq!(clearly_worse.verdict, Verdict::Worse);
    }

    fn result_file(seed: u64, p50: [f64; 3], failed: u64) -> Value {
        let runs: Vec<String> = p50
            .iter()
            .map(|v| {
                format!(
                    r#"{{"correct":true,"attempted":1000,"failed":{failed},
                        "metrics":{{"op_p50_us":{{"value":{v},"unit":"us"}},
                                    "journal.sync_us":{{"value":150.0,"unit":"us"}}}}}}"#
                )
            })
            .collect();
        let text = format!(
            r#"{{"env":{{"seed":{seed},"box_seconds":10,"clients":2,"gen_threads":2,
                        "server_io_threads":1,"server_handlers":2}},
                "traced":false,
                "workloads":[{{"workload":"tune_mem","runs":[{}]}}]}}"#,
            runs.join(",")
        );
        serde_json::parse_value(&text).expect("test file parses")
    }

    #[test]
    fn compare_passes_same_fails_worse_and_refuses_mismatched_env() {
        let specs = vec![lower(0.10)];
        let base = result_file(1, [100.0, 101.0, 99.0], 0);
        assert_eq!(
            compare(&specs, &base, &result_file(1, [102.0, 103.0, 101.0], 0)),
            Ok(true)
        );
        assert_eq!(
            compare(&specs, &base, &result_file(1, [130.0, 131.0, 129.0], 0)),
            Ok(false)
        );
        // Unresolved is reported but is not a failure.
        assert_eq!(
            compare(&specs, &base, &result_file(1, [100.0, 60.0, 140.0], 0)),
            Ok(true)
        );
        // Any rise of the fail ratio is worse.
        assert_eq!(
            compare(&specs, &base, &result_file(1, [100.0, 101.0, 99.0], 1)),
            Ok(false)
        );
        let refused = compare(&specs, &base, &result_file(2, [100.0, 101.0, 99.0], 0));
        assert!(refused.is_err_and(|e| e.contains("env.seed")));
    }

    #[test]
    fn metric_specs_come_from_benchmark_json() {
        let benchmark = serde_json::parse_value(
            r#"{"end_to_end":[{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1},
                               {"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#,
        )
        .expect("parses");
        assert_eq!(
            metric_specs(&benchmark),
            Ok(vec![
                higher(0.1),
                MetricSpec {
                    name: "setup_s".into(),
                    higher_is_better: false,
                    bound: 0.25
                }
            ])
        );
        assert!(metric_specs(&serde_json::parse_value("{}").expect("parses")).is_err());
    }
}
