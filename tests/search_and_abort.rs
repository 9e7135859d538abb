//! Integration tests for search techniques and abort conditions against a
//! real (simulated) kernel cost function.

use atf_core::expr::{cst, param};
use atf_core::prelude::*;
use atf_ocl::{buffer_random_f32, scalar, scalar_random_f32};
use clblast::SaxpyKernel;
use ocl_sim::DeviceModel;
use std::time::Duration;

fn saxpy_cf(n: u64) -> atf_ocl::OclCostFunction {
    atf_ocl::ocl_on(DeviceModel::tesla_k20m(), SaxpyKernel)
        .arg(scalar(ocl_sim::Scalar::U64(n)))
        .arg(scalar_random_f32())
        .arg(buffer_random_f32(n as usize))
        .arg(buffer_random_f32(n as usize))
        .global_size([cst(n) / param("WPT")])
        .local_size([param("LS")])
        .build()
}

/// Every built-in technique must finish a real tuning run within budget and
/// return a valid best configuration.
#[test]
fn all_techniques_complete_on_real_cost_function() {
    let n = 1u64 << 14;
    let groups = clblast::saxpy_space(n);
    let techniques: Vec<(&str, Box<dyn SearchTechnique>)> = vec![
        ("exhaustive", Box::new(Exhaustive::new())),
        ("random", Box::new(RandomSearch::with_seed(1))),
        ("annealing", Box::new(SimulatedAnnealing::with_seed(1))),
        ("nelder-mead", Box::new(NelderMead::with_seed(1))),
        ("torczon", Box::new(Torczon::with_seed(1))),
        ("pattern", Box::new(PatternSearch::with_seed(1))),
        ("mutation", Box::new(GreedyMutation::with_seed(1))),
        (
            "differential-evolution",
            Box::new(DifferentialEvolution::with_seed(1)),
        ),
        ("ensemble", Box::new(Ensemble::opentuner_default(1))),
    ];
    for (name, tech) in techniques {
        let mut cf = saxpy_cf(n);
        let result = Tuner::new()
            .technique(tech)
            .abort_condition(abort::evaluations(150))
            .tune(&groups, &mut cf)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(result.evaluations <= 150, "{name} overspent");
        let wpt = result.best_config.get_u64("WPT");
        let ls = result.best_config.get_u64("LS");
        assert_eq!(n % wpt, 0, "{name} returned invalid WPT");
        assert_eq!((n / wpt) % ls, 0, "{name} returned invalid LS");
        assert!(result.best_cost.is_finite(), "{name} returned no cost");
    }
}

#[test]
fn duration_abort_stops_promptly() {
    let n = 1u64 << 20;
    let groups = clblast::saxpy_space(n);
    let mut cf = saxpy_cf(n);
    let start = std::time::Instant::now();
    let result = Tuner::new()
        .technique(RandomSearch::with_seed(2))
        .abort_condition(abort::duration(Duration::from_millis(300)))
        .tune(&groups, &mut cf)
        .unwrap();
    // Wall clock: generation + exploration; exploration itself must stop
    // within a small multiple of the budget.
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "took {:?}",
        start.elapsed()
    );
    assert!(result.elapsed >= Duration::from_millis(300));
}

#[test]
fn cost_abort_stops_on_target() {
    let n = 1u64 << 18;
    let groups = clblast::saxpy_space(n);
    // First learn a reachable target from a quick random probe.
    let mut cf = saxpy_cf(n);
    let probe = Tuner::new()
        .technique(RandomSearch::with_seed(3))
        .abort_condition(abort::evaluations(50))
        .tune(&groups, &mut cf)
        .unwrap();
    let target = probe.best_cost * 1.5;
    let mut cf = saxpy_cf(n);
    let result = Tuner::new()
        .technique(RandomSearch::with_seed(4))
        .abort_condition(abort::cost(target) | abort::evaluations(5000))
        .tune(&groups, &mut cf)
        .unwrap();
    assert!(result.best_cost <= target || result.evaluations == 5000);
}

#[test]
fn speedup_abort_ends_stagnating_runs() {
    let n = 1u64 << 16;
    let groups = clblast::saxpy_space(n);
    let mut cf = saxpy_cf(n);
    let result = Tuner::new()
        .technique(RandomSearch::with_seed(5))
        // Stop when 60 consecutive evaluations did not improve the best by
        // ≥ 5%; never run longer than 5000.
        .abort_condition(abort::speedup_over_evaluations(1.05, 60) | abort::evaluations(5000))
        .tune(&groups, &mut cf)
        .unwrap();
    assert!(
        result.evaluations < 5000,
        "stagnation abort never fired ({} evaluations)",
        result.evaluations
    );
    assert!(result.evaluations >= 60);
}

#[test]
fn combined_and_condition_requires_both() {
    let n = 1u64 << 12;
    let groups = clblast::saxpy_space(n);
    let mut cf = saxpy_cf(n);
    // evaluations(10) && evaluations(30) ≡ evaluations(30).
    let result = Tuner::new()
        .technique(RandomSearch::with_seed(6))
        .abort_condition(abort::evaluations(10) & abort::evaluations(30))
        .tune(&groups, &mut cf)
        .unwrap();
    assert_eq!(result.evaluations, 30);
}

#[test]
fn default_abort_is_space_size() {
    let n = 64u64;
    let groups = clblast::saxpy_space(n);
    let space_size = SearchSpace::count(&groups).unwrap();
    let mut cf = saxpy_cf(n);
    let result = Tuner::new()
        .technique(RandomSearch::with_seed(7)) // never exhausts on its own
        .tune(&groups, &mut cf)
        .unwrap();
    assert_eq!(result.evaluations as u128, space_size);
}

#[test]
fn grouped_parameters_tune_end_to_end() {
    // Two independent groups (Fig. 1 style) over a parallel-generated space:
    // saxpy's WPT/LS plus an independent dummy "BATCH" parameter that the
    // cost function folds in.
    let n = 1u64 << 12;
    let g1 = ParamGroup::new(vec![
        tp_c("WPT", Range::interval(1, n), divides(cst(n))),
        tp_c("LS", Range::interval(1, n), divides(cst(n) / param("WPT"))),
    ]);
    let g2 = ParamGroup::new(vec![tp("BATCH", Range::set([1u64, 2, 4, 8]))]);
    let mut ocl = saxpy_cf(n);
    let mut cf = try_cost_fn(move |cfg: &Config| {
        let t = ocl.measure(cfg)?;
        let batch = cfg.get_u64("BATCH") as f64;
        // Prefer BATCH = 4.
        Ok(t * (1.0 + (batch.log2() - 2.0).abs()))
    });
    let result = Tuner::new()
        .technique(Ensemble::opentuner_default(8))
        .abort_condition(abort::evaluations(500))
        .tune_space(&SearchSpace::generate_parallel(&[g1, g2]), &mut cf)
        .unwrap();
    assert_eq!(result.best_config.get_u64("BATCH"), 4);
}

#[test]
fn auto_grouping_matches_manual_grouping() {
    // The saxpy parameters plus an independent BATCH parameter: auto_group
    // must find the same partition a careful user would declare, and tuning
    // over it must produce the same space size.
    let n = 1u64 << 10;
    let params = vec![
        tp_c("WPT", Range::interval(1, n), divides(cst(n))),
        tp_c("LS", Range::interval(1, n), divides(cst(n) / param("WPT"))),
        tp("BATCH", Range::set([1u64, 2, 4])),
    ];
    let auto = atf_core::param::auto_group(params);
    assert_eq!(auto.len(), 2);
    let auto_space = SearchSpace::count(&auto).unwrap();

    let manual = vec![
        ParamGroup::new(vec![
            tp_c("WPT", Range::interval(1, n), divides(cst(n))),
            tp_c("LS", Range::interval(1, n), divides(cst(n) / param("WPT"))),
        ]),
        ParamGroup::new(vec![tp("BATCH", Range::set([1u64, 2, 4]))]),
    ];
    assert_eq!(auto_space, SearchSpace::count(&manual).unwrap());

    // And tuning over the automatic grouping drives the whole pipeline.
    let mut cf = cost_fn(|c: &Config| {
        c.get_u64("WPT") as f64 + c.get_u64("LS") as f64 + c.get_u64("BATCH") as f64
    });
    let r = Tuner::new()
        .technique(Ensemble::opentuner_default(12))
        .abort_condition(abort::evaluations(200))
        .tune(&auto, &mut cf)
        .unwrap();
    assert_eq!(r.best_cost, 3.0); // WPT=1, LS=1, BATCH=1
}

#[test]
fn tuning_database_round_trip_through_real_run() {
    let n = 1u64 << 12;
    let groups = clblast::saxpy_space(n);
    let mut cf = saxpy_cf(n);
    let result = Tuner::new()
        .technique(RandomSearch::with_seed(8))
        .abort_condition(abort::evaluations(100))
        .tune(&groups, &mut cf)
        .unwrap();

    let path = std::env::temp_dir().join(format!("atf-int-db-{}.json", std::process::id()));
    std::fs::remove_file(&path).ok();
    let (mut db, mut log) = DatabaseLog::open(&path).unwrap();
    assert!(db.store(
        "saxpy",
        "Tesla K20m",
        &format!("n{n}"),
        &result.best_config,
        result.best_cost,
        result.evaluations,
        result.space_size,
    ));
    let record = db.record("saxpy", "Tesla K20m", &format!("n{n}")).unwrap();
    log.append(&record).unwrap();
    let loaded = TuningDatabase::load(&path).unwrap();
    let stored = loaded
        .lookup_config("saxpy", "Tesla K20m", &format!("n{n}"))
        .unwrap();
    assert_eq!(stored, result.best_config);

    // The stored configuration must still measure at (nearly) the recorded
    // cost — the database is a usable production artifact.
    let mut cf = saxpy_cf(n);
    let re_measured = cf.measure(&stored).unwrap();
    assert!((re_measured - result.best_cost).abs() / result.best_cost < 1e-9);
    std::fs::remove_file(path).ok();
}
