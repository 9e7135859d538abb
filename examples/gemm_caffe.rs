//! Tuning CLBlast's XgemmDirect for the Caffe deep-learning matrix sizes
//! (the paper's Section VI workload), on both simulated devices.
//!
//! For each input size, tunes with ATF (ensemble search over the valid
//! space) and reports the speedup over CLBlast's compiled-in default
//! configuration.
//!
//! Run with: `cargo run --release --example gemm_caffe`

use atf_bench::{devices, xgemm_cost_function};
use atf_repro::prelude::*;
use clblast::caffe;

fn main() {
    let budget = 2_000; // evaluations per tuning run
    for (dev_label, device) in devices() {
        println!("=== {dev_label}: {} ===", device.name);
        for (label, &(m, n, k)) in caffe::LABELS.iter().zip(&caffe::INPUT_SIZES) {
            // The native ATF search space: 10 interdependent parameters.
            let groups = clblast::atf_space(m, n, k);

            let mut cf = xgemm_cost_function(device.clone(), (m, n, k));
            let result = Tuner::new()
                .technique(Ensemble::opentuner_default(1))
                .abort_condition(abort::evaluations(budget))
                .tune(&groups, &mut cf)
                .expect("ATF space is non-empty");

            // Compare against CLBlast's compiled-in defaults.
            let mut cf_default = xgemm_cost_function(device.clone(), (m, n, k));
            let default_cost = cf_default
                .measure(&clblast::default_config())
                .expect("default configuration always valid");

            println!(
                "  {label} ({m:>2}x{k:>2} . {k:>2}x{n:>3}): tuned {:>9.3} us | defaults {:>9.3} us | speedup {:>5.2}x | best: WGD={} MDIMCD={} NDIMCD={} KWID={} VWMD={} VWND={}",
                result.best_cost / 1e3,
                default_cost / 1e3,
                default_cost / result.best_cost,
                result.best_config.get_u64("WGD"),
                result.best_config.get_u64("MDIMCD"),
                result.best_config.get_u64("NDIMCD"),
                result.best_config.get_u64("KWID"),
                result.best_config.get_u64("VWMD"),
                result.best_config.get_u64("VWND"),
            );
        }
    }
    println!("\n(see `cargo run -p atf-bench --release -- fig2` for the full Figure-2 comparison against the CLTune and OpenTuner baselines)");
}
