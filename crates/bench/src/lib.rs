//! The reproduction harness behind the `atf-bench` binary: the XgemmDirect
//! and saxpy builders the experiments share, the records they write to
//! `results/*.json`, and the comparison `atf-bench check` makes against
//! those files. The experiments themselves, each next to the predicates
//! that state its paper claim, live in [`experiments`].

pub mod experiments;

use atf_core::expr::{cst, param};
use atf_ocl::{buffer_random_f32, scalar, OclCostFunction};
use baselines::CltuneTuner;
use clblast::XgemmDirectKernel;
use ocl_sim::{DeviceModel, Scalar};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// The devices of the paper's evaluation machine.
pub fn devices() -> Vec<(&'static str, DeviceModel)> {
    vec![
        ("CPU", DeviceModel::xeon_e5_2640v2_dual()),
        ("GPU", DeviceModel::tesla_k20m()),
    ]
}

/// Builds the XgemmDirect OpenCL cost function for a device and an
/// `m×k · k×n` shape, with CLBlast's padded launch geometry expressed as ATF
/// arithmetic: `global = ceil(size / WGD) · {M,N}DIMCD`, `local =
/// ({M,N}DIMCD)`.
pub fn xgemm_cost_function(device: DeviceModel, (m, n, k): (u64, u64, u64)) -> OclCostFunction {
    atf_ocl::ocl_on(device, XgemmDirectKernel)
        .arg(scalar(Scalar::U64(m)))
        .arg(scalar(Scalar::U64(n)))
        .arg(scalar(Scalar::U64(k)))
        .arg(scalar(1.0f32)) // alpha
        .arg(scalar(0.0f32)) // beta
        .arg(buffer_random_f32((m * k) as usize))
        .arg(buffer_random_f32((k * n) as usize))
        .arg(buffer_random_f32((m * n) as usize))
        .global_size([
            cst(m).ceil_div(param("WGD")) * param("MDIMCD"),
            cst(n).ceil_div(param("WGD")) * param("NDIMCD"),
        ])
        .local_size([param("MDIMCD"), param("NDIMCD")])
        .seed(0xf19)
        .build()
}

/// Builds the saxpy cost function on a device.
pub fn saxpy_cost_function(device: DeviceModel, n: u64) -> OclCostFunction {
    atf_ocl::ocl_on(device, clblast::SaxpyKernel)
        .arg(scalar(Scalar::U64(n)))
        .arg(atf_ocl::scalar_random_f32())
        .arg(buffer_random_f32(n as usize))
        .arg(buffer_random_f32(n as usize))
        .global_size([cst(n) / param("WPT")])
        .local_size([param("LS")])
        .seed(0x5a)
        .build()
}

/// A CLTune tuner over XgemmDirect with CLBlast's constraint set, written the
/// CLTune way: predicates over complete configurations. `ranges` are the
/// values of WGD, MDIMCD, NDIMCD, MDIMAD, NDIMBD and KWID, in that order; the
/// vector widths range over {1, 2, 4, 8} and the paddings over {0, 1}.
pub fn cltune_xgemm(ranges: [Vec<u64>; 6]) -> CltuneTuner {
    let mut t = CltuneTuner::new();
    for (name, range) in ["WGD", "MDIMCD", "NDIMCD", "MDIMAD", "NDIMBD", "KWID"]
        .into_iter()
        .zip(ranges)
    {
        t.add_parameter(name, range);
    }
    t.add_parameter("VWMD", vec![1, 2, 4, 8]);
    t.add_parameter("VWND", vec![1, 2, 4, 8]);
    t.add_parameter("PADA", vec![0, 1]);
    t.add_parameter("PADB", vec![0, 1]);
    for p in ["MDIMCD", "NDIMCD", "MDIMAD", "NDIMBD", "KWID"] {
        t.add_constraint(|v| v[0] % v[1] == 0, &["WGD", p]);
    }
    for p in ["MDIMAD", "NDIMBD"] {
        t.add_constraint(|v| (v[0] * v[1]) % v[2] == 0, &["MDIMCD", "NDIMCD", p]);
    }
    for [dim, width] in [
        ["MDIMCD", "VWMD"],
        ["MDIMAD", "VWMD"],
        ["NDIMCD", "VWND"],
        ["NDIMBD", "VWND"],
    ] {
        t.add_constraint(|v| (v[0] / v[1]) % v[2] == 0, &["WGD", dim, width]);
    }
    t
}

/// One row of an experiment's results.
///
/// `exact` fields follow from the code and its seeds alone — space sizes,
/// counts, best costs and their ratios — and must reproduce bit for bit;
/// `timed` fields depend on the host's speed. A value that does not exist
/// (no valid configuration found, a generation that never finished) is an
/// absent key, never a NaN: JSON cannot carry one.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Record {
    /// Device label, `-` when the experiment runs on none.
    pub device: String,
    /// Workload label, unique per device within one experiment.
    pub workload: String,
    /// Fields that must reproduce bit for bit.
    pub exact: BTreeMap<String, f64>,
    /// Fields measured in wall-clock time.
    pub timed: BTreeMap<String, f64>,
}

impl Record {
    /// A record with no fields yet.
    pub fn new(device: &str, workload: impl Into<String>) -> Self {
        Record {
            device: device.into(),
            workload: workload.into(),
            exact: BTreeMap::new(),
            timed: BTreeMap::new(),
        }
    }

    /// Adds an exact field; panics on a value JSON cannot carry.
    pub fn exact(mut self, name: &str, value: f64) -> Self {
        assert!(value.is_finite(), "{name} = {value} is not finite");
        self.exact.insert(name.into(), value);
        self
    }

    /// Adds a timed field; panics on a value JSON cannot carry.
    pub fn timed(mut self, name: &str, value: f64) -> Self {
        assert!(value.is_finite(), "{name} = {value} is not finite");
        self.timed.insert(name.into(), value);
        self
    }

    /// `device/workload`, the record's identity within its experiment.
    pub fn key(&self) -> String {
        format!("{}/{}", self.device, self.workload)
    }

    /// The named field, exact or timed. NaN when absent, so every comparison
    /// a predicate makes with a missing value fails.
    pub fn get(&self, name: &str) -> f64 {
        let value = self.exact.get(name).or_else(|| self.timed.get(name));
        value.copied().unwrap_or(f64::NAN)
    }

    /// Whether the record has the named field.
    pub fn has(&self, name: &str) -> bool {
        self.exact.contains_key(name) || self.timed.contains_key(name)
    }
}

/// A shape claim over an experiment's records; `Err` says where it fails.
pub type Predicate = fn(&[Record]) -> Result<(), String>;

/// One entry of the experiment table.
pub struct Experiment {
    /// The command-line name, and the stem of `results/<name>.json`.
    pub name: &'static str,
    /// The paper result it reproduces, in one line.
    pub paper: &'static str,
    /// Runs the experiment at full scale.
    pub run: fn() -> Vec<Record>,
    /// The claims its records must satisfy, each with its statement.
    pub predicates: &'static [(&'static str, Predicate)],
}

/// Where an experiment's committed records live.
pub fn results_path(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    root.expect("crates/bench sits two levels below the workspace root")
        .join("results")
        .join(format!("{name}.json"))
}

/// Writes records as pretty-printed JSON.
pub fn write_records(path: &Path, records: &[Record]) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(records).expect("records always serialise");
    std::fs::write(path, json + "\n")
}

/// Reads records written by [`write_records`].
pub fn read_records(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every exact field on which `now` differs from `committed` in its bits,
/// including one present on a single side, as `record / field / committed /
/// now`. Timed fields are not compared.
pub fn exact_mismatches(committed: &[Record], now: &[Record]) -> Vec<String> {
    let index = |records: &[Record]| -> BTreeMap<(String, String), f64> {
        let fields = records.iter().flat_map(|r| {
            let key = r.key();
            r.exact
                .iter()
                .map(move |(field, &v)| ((key.clone(), field.clone()), v))
        });
        fields.collect()
    };
    let (old, new) = (index(committed), index(now));
    let show = |v: Option<&f64>| v.map_or_else(|| "absent".to_string(), f64::to_string);
    let keys: BTreeSet<_> = old.keys().chain(new.keys()).collect();
    keys.into_iter()
        .filter(|k| old.get(*k).map(|v| v.to_bits()) != new.get(*k).map(|v| v.to_bits()))
        .map(|k| {
            let (a, b) = (show(old.get(k)), show(new.get(k)));
            format!("{} / {} / {a} / {b}", k.0, k.1)
        })
        .collect()
}

/// Prints records as one aligned table: a column per field (timed ones
/// marked `~`), `-` where a record lacks the field.
pub fn print_table(records: &[Record]) {
    let mut columns: Vec<String> = Vec::new();
    for r in records {
        let timed = r.timed.keys().map(|f| format!("~{f}"));
        for name in r.exact.keys().cloned().chain(timed) {
            if !columns.contains(&name) {
                columns.push(name);
            }
        }
    }
    let cell = |r: &Record, column: &str| {
        let value = match column.strip_prefix('~') {
            Some(field) => r.timed.get(field),
            None => r.exact.get(column),
        };
        value.map_or_else(|| "-".to_string(), |&v| fmt_value(v))
    };
    let header = ["device", "workload"].map(String::from).into_iter();
    let mut rows: Vec<Vec<String>> = vec![header.chain(columns.iter().cloned()).collect()];
    rows.extend(records.iter().map(|r| {
        let cells = columns.iter().map(|c| cell(r, c));
        [r.device.clone(), r.workload.clone()]
            .into_iter()
            .chain(cells)
            .collect()
    }));
    let width = |c: usize| rows.iter().map(|row| row[c].chars().count()).max();
    let widths: Vec<usize> = (0..columns.len() + 2).filter_map(width).collect();
    for row in &rows {
        let cells = row
            .iter()
            .zip(&widths)
            .map(|(cell, &w)| format!("{cell:>w$}"));
        println!("  {}", cells.collect::<Vec<_>>().join(" | "));
    }
}

/// Integers in full, other values to four significant digits.
fn fmt_value(v: f64) -> String {
    let magnitude = v.abs();
    if v.fract() == 0.0 && magnitude < 1e15 {
        format!("{v:.0}")
    } else if (1e-3..1e5).contains(&magnitude) {
        let decimals = (3 - magnitude.log10().floor() as i32).max(0) as usize;
        format!("{v:.decimals$}")
    } else {
        format!("{v:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atf_core::config::Config;

    #[test]
    fn cost_functions_build_and_measure() {
        let mut cf = xgemm_cost_function(DeviceModel::tesla_k20m(), (20, 576, 1));
        assert!(cf.measure(&clblast::default_config()).unwrap() > 0.0);
        let mut scf = saxpy_cost_function(DeviceModel::tesla_k20m(), 1024);
        let cfg = Config::from_pairs([("WPT", 4u64), ("LS", 64u64)]);
        assert!(scf.measure(&cfg).unwrap() > 0.0);
    }

    #[test]
    fn exact_values_survive_write_and_read_bit_for_bit() {
        let values = [
            7.378697629483821e19, // 1024⁶ · 64, above 2⁵³
            4_398_046_511_104.0,
            4_662_308.0,
            0.0,
            1.0600524616241455e-6,
            5e-324,
            1.5039474896857496,
            0.1 + 0.2,
        ];
        let mut record = Record::new("-", "values").timed("seconds", 0.000124072);
        for (i, &v) in values.iter().enumerate() {
            record = record.exact(&format!("v{i}"), v);
        }
        let path = std::env::temp_dir().join(format!("atf-bench-rt-{}.json", std::process::id()));
        write_records(&path, std::slice::from_ref(&record)).unwrap();
        let back = read_records(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back.len(), 1);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(
                back[0].exact[&format!("v{i}")].to_bits(),
                v.to_bits(),
                "{v}"
            );
        }
        assert!(exact_mismatches(&[record], &back).is_empty());
    }

    #[test]
    fn check_reports_one_perturbed_exact_field_and_ignores_timed_ones() {
        let committed = vec![
            Record::new("CPU", "IS1")
                .exact("atf_ns", 5787.0)
                .exact("speedup", 1.5),
            Record::new("GPU", "IS1")
                .exact("atf_ns", 1940.0)
                .timed("seconds", 0.2),
        ];
        let mut now = committed.clone();
        now[1].timed.insert("seconds".into(), 0.3);
        assert!(exact_mismatches(&committed, &now).is_empty());
        now[0]
            .exact
            .insert("speedup".into(), f64::from_bits(1.5f64.to_bits() + 1));
        assert_eq!(
            exact_mismatches(&committed, &now),
            ["CPU/IS1 / speedup / 1.5 / 1.5000000000000002"]
        );
        now[0].exact.remove("speedup");
        assert_eq!(
            exact_mismatches(&committed, &now),
            ["CPU/IS1 / speedup / 1.5 / absent"]
        );
    }

    #[test]
    fn values_format_for_the_table() {
        assert_eq!(fmt_value(4_662_308.0), "4662308");
        assert_eq!(fmt_value(5787.026), "5787");
        assert_eq!(fmt_value(1.50394), "1.504");
        assert_eq!(fmt_value(0.0191), "0.01910");
        assert_eq!(fmt_value(7.378697629483821e19), "7.379e19");
        assert_eq!(fmt_value(1.06e-6), "1.060e-6");
    }
}
