//! Shared infrastructure for the experiment binaries that regenerate the
//! paper's tables and figures (see DESIGN.md for the per-experiment index).

use atf_core::config::Config;
use atf_core::cost::CostFunction;
use atf_core::expr::{cst, param};
use atf_core::prelude::*;
use atf_ocl::{buffer_random_f32, scalar, OclCostFunction};
use clblast::XgemmDirectKernel;
use ocl_sim::{DeviceModel, Scalar};
use serde::Serialize;

/// The devices of the paper's evaluation machine.
pub fn devices() -> Vec<(&'static str, DeviceModel)> {
    vec![
        ("CPU", DeviceModel::xeon_e5_2640v2_dual()),
        ("GPU", DeviceModel::tesla_k20m()),
    ]
}

/// Builds the XgemmDirect OpenCL cost function for a device and shape, with
/// CLBlast's padded launch geometry expressed as ATF arithmetic.
pub fn xgemm_cost_function(device: DeviceModel, m: u64, n: u64, k: u64) -> OclCostFunction {
    atf_ocl::ocl_on(device, XgemmDirectKernel)
        .arg(scalar(Scalar::U64(m)))
        .arg(scalar(Scalar::U64(n)))
        .arg(scalar(Scalar::U64(k)))
        .arg(scalar(1.0f32))
        .arg(scalar(0.0f32))
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

/// Tunes XgemmDirect with ATF over `groups` and returns the best cost (ns).
pub fn tune_atf(
    groups: &[ParamGroup],
    cf: &mut OclCostFunction,
    budget: u64,
    seed: u64,
) -> TuningResult<f64> {
    Tuner::new()
        .technique(Ensemble::opentuner_default(seed))
        .abort_condition(abort::evaluations(budget))
        .tune(groups, cf)
        .expect("non-empty ATF space")
}

/// Measures a single fixed configuration (e.g. defaults) on a cost function.
pub fn measure_config(cf: &mut OclCostFunction, config: &Config) -> f64 {
    cf.evaluate(config)
        .expect("fixed configuration must be measurable")
}

/// One record of an experiment run (serialized into `results/*.json` so
/// EXPERIMENTS.md can cite machine-generated numbers).
#[derive(Clone, Debug, Serialize)]
pub struct Record {
    /// Experiment id (e.g. "fig2").
    pub experiment: String,
    /// Device label.
    pub device: String,
    /// Workload label (e.g. "IS4").
    pub workload: String,
    /// Metric name → value.
    pub metrics: Vec<(String, f64)>,
}

/// Writes experiment records to `results/<name>.json` under the workspace
/// root (best effort — printing to stdout is the primary output).
pub fn write_records(name: &str, records: &[Record]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(json) = serde_json::to_string_pretty(records) {
        let _ = std::fs::write(path, json);
    }
}

/// Formats nanoseconds as a human-readable time.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Renders a speedup with the conventional "×" suffix.
pub fn fmt_speedup(s: f64) -> String {
    format!("{s:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_functions_build_and_measure() {
        let mut cf = xgemm_cost_function(DeviceModel::tesla_k20m(), 20, 576, 1);
        let t = measure_config(&mut cf, &clblast::default_config());
        assert!(t > 0.0);
        let mut scf = saxpy_cost_function(DeviceModel::tesla_k20m(), 1024);
        let cfg = Config::from_pairs([("WPT", 4u64), ("LS", 64u64)]);
        assert!(measure_config(&mut scf, &cfg) > 0.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ns(1.5e9), "1.50 s");
        assert_eq!(fmt_ns(2.5e6), "2.50 ms");
        assert_eq!(fmt_ns(3.21e3), "3.21 us");
        assert_eq!(fmt_ns(47.0), "47 ns");
        assert_eq!(fmt_speedup(17.6), "17.60x");
    }

    #[test]
    fn tune_atf_small_budget() {
        let groups = clblast::xgemm_space::atf_space_wgd_max(8);
        let mut cf = xgemm_cost_function(DeviceModel::tesla_k20m(), 20, 576, 1);
        let r = tune_atf(&groups, &mut cf, 50, 1);
        assert!(r.best_cost.is_finite());
        assert_eq!(r.evaluations, 50);
    }
}
