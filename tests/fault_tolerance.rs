//! Fault-injection suite: every search technique, the session layer, and
//! the tuning service must survive a deterministic schedule of hangs,
//! crashes, and flaky transients (see `atf_core::fault`), and a run
//! replayed from any journal prefix must reconstruct the exact state of the
//! uninterrupted run.

use atf_core::abort;
use atf_core::param::{tp, ParamGroup};
use atf_core::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

fn space() -> SearchSpace {
    let group = ParamGroup::new(vec![
        tp("X", Range::interval(1, 12)),
        tp("Y", Range::interval(1, 6)),
    ]);
    SearchSpace::generate(&[group])
}

/// Toy objective with a unique optimum at (X=7, Y=3).
fn objective() -> impl CostFunction<Cost = f64> {
    cost_fn(|c: &Config| {
        let x = c.get_u64("X") as f64;
        let y = c.get_u64("Y") as f64;
        (x - 7.0).abs() + (y - 3.0).abs()
    })
}

/// Fast backoff so retry tests don't sleep for real.
fn quick_retry_policy(retries: u32) -> EvalPolicy {
    EvalPolicy {
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(2),
        ..EvalPolicy::default()
    }
    .retries(retries)
}

/// The acceptance-criteria technique list, freshly seeded.
fn techniques(seed: u64) -> Vec<(&'static str, Box<dyn SearchTechnique>)> {
    vec![
        ("exhaustive", Box::new(Exhaustive::new())),
        ("annealing", Box::new(SimulatedAnnealing::with_seed(seed))),
        ("ensemble", Box::new(Ensemble::opentuner_default(seed))),
        (
            "differential-evolution",
            Box::new(DifferentialEvolution::with_seed(seed)),
        ),
        ("pattern", Box::new(PatternSearch::with_seed(seed))),
        ("torczon", Box::new(Torczon::with_seed(seed))),
        ("nelder-mead", Box::new(NelderMead::with_seed(seed))),
    ]
}

/// Every technique completes a run under the stressful fault plan (~10 %
/// hangs, ~10 % crashes, ~20 % transients) and still finds a best
/// configuration; across the suite every failure mode is injected at least
/// once and the session's taxonomy counters account for every failure.
#[test]
fn every_technique_survives_a_stressful_fault_schedule() {
    let mut total_injected = (0u64, 0u64, 0u64);
    for (i, (name, technique)) in techniques(11).into_iter().enumerate() {
        let plan = FaultPlan::stressful(100 + i as u64);
        let faulty = FaultyCostFunction::new(objective(), plan);
        let mut cf = RetryCostFunction::new(faulty, quick_retry_policy(3), 5);

        let mut session = TuningSession::<f64>::new(space(), technique)
            .unwrap()
            .abort_condition(abort::evaluations(60))
            .circuit_breaker(30);
        while let Some(config) = session.next_config() {
            let outcome = cf.evaluate(&config);
            session.report(outcome).unwrap();
        }
        let failure_counts = session.status().failure_counts();
        let result = session
            .finish()
            .unwrap_or_else(|e| panic!("technique `{name}` did not survive: {e}"));
        assert!(result.evaluations > 0, "`{name}` evaluated nothing");
        assert!(
            result.valid_evaluations > 0,
            "`{name}` measured nothing successfully"
        );
        let counted: u64 = failure_counts.iter().map(|(_, n)| n).sum();
        assert_eq!(
            counted, result.failed_evaluations,
            "`{name}`: taxonomy counters must account for every failure"
        );
        let (t, c, f, _) = cf.into_inner().injected();
        total_injected = (
            total_injected.0 + t,
            total_injected.1 + c,
            total_injected.2 + f,
        );
    }
    let (timeouts, crashes, transients) = total_injected;
    assert!(
        timeouts > 0 && crashes > 0 && transients > 0,
        "the suite must exercise every failure mode (got {total_injected:?})"
    );
}

/// A dead device (100 % crashes) trips the circuit breaker as a structured
/// error for every technique, instead of burning the whole budget.
#[test]
fn every_technique_trips_the_breaker_on_a_dead_device() {
    for (name, technique) in techniques(23) {
        let plan = FaultPlan {
            crash_rate: 1.0,
            ..FaultPlan::new(9)
        };
        let mut cf = FaultyCostFunction::new(objective(), plan);
        let mut session = TuningSession::<f64>::new(space(), technique)
            .unwrap()
            .abort_condition(abort::evaluations(60))
            .circuit_breaker(5);
        while let Some(config) = session.next_config() {
            let outcome = cf.evaluate(&config);
            session.report(outcome).unwrap();
        }
        match session.finish() {
            Err(TuningError::CircuitBroken {
                consecutive_failures,
                last_failure,
            }) => {
                assert_eq!(consecutive_failures, 5, "`{name}`");
                assert_eq!(last_failure, FailureKind::RunCrash, "`{name}`");
            }
            other => panic!("`{name}` should trip the breaker, got {other:?}"),
        }
    }
}

/// The service layer survives the same schedule end to end over the
/// loopback transport: classified failures travel the wire, the taxonomy
/// shows up in the final response, and a best configuration is found.
#[test]
fn service_session_survives_a_stressful_fault_schedule() {
    use atf_core::spec::{IntervalSpec, ParameterSpec, SearchSpec};
    use std::sync::Arc;

    let manager = Arc::new(atf_service::SessionManager::in_memory());
    let mut client = atf_service::Client::loopback(manager);
    let mut spec = atf_service::SessionSpec::new("faulty-kernel");
    spec.parameters = vec![ParameterSpec {
        name: "X".into(),
        interval: Some(IntervalSpec {
            begin: 1,
            end: 24,
            step: 1,
        }),
        set: None,
        constraint: None,
    }];
    spec.search = Some(SearchSpec {
        technique: "annealing".into(),
        seed: 5,
    });
    spec.breaker = Some(30);

    let faulty = FaultyCostFunction::new(
        cost_fn(|c: &Config| (c.get_u64("X") as f64 - 17.0).abs()),
        FaultPlan::stressful(7),
    );
    let mut cf = RetryCostFunction::new(faulty, quick_retry_policy(3), 5);
    let response = client
        .tune(&spec, |wire| {
            let config =
                Config::from_pairs(wire.iter().map(|(n, v)| (n.as_str(), Value::UInt(*v))));
            cf.evaluate(&config).map_err(|e| e.kind())
        })
        .unwrap();
    assert_eq!(response.best_config.unwrap()["X"], 17);
    assert!(response.valid_evaluations.unwrap() > 0);
    let failures = response.failures.unwrap_or_default();
    let counted: u64 = failures.values().sum();
    assert_eq!(Some(counted), response.failed_evaluations);
    let (t, c, _, _) = cf.into_inner().injected();
    assert!(t + c > 0, "the schedule must have injected failures");
}

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("atf-ft-{tag}-{}.ndjson", std::process::id()))
}

/// A journaled run killed mid-flight (session dropped without finishing)
/// and resumed from its journal ends in exactly the state of an
/// uninterrupted run — same best configuration, cost, and counters.
#[test]
fn killed_and_resumed_run_matches_the_uninterrupted_run() {
    // Failures keyed purely on the configuration, so the schedule is
    // identical across the reference run and the resumed run.
    let mk_cf = || {
        try_cost_fn(|c: &Config| {
            let x = c.get_u64("X");
            let y = c.get_u64("Y");
            match (x * 7 + y * 3) % 9 {
                0 => Err(CostError::Timeout {
                    limit: Duration::from_secs(1),
                }),
                1 => Err(CostError::Crashed {
                    signal: Some(11),
                    exit: None,
                    stderr: "boom".into(),
                }),
                _ => Ok((x as f64 - 7.0).abs() + (y as f64 - 3.0).abs()),
            }
        })
    };
    let technique = || Box::new(SimulatedAnnealing::with_seed(31)) as Box<dyn SearchTechnique>;

    // Reference: uninterrupted run.
    let mut cf = mk_cf();
    let mut reference = TuningSession::<f64>::new(space(), technique())
        .unwrap()
        .abort_condition(abort::evaluations(50));
    while let Some(config) = reference.next_config() {
        let outcome = cf.evaluate(&config);
        reference.report(outcome).unwrap();
    }
    let reference_counts = reference.status().failure_counts();
    let reference = reference.finish().unwrap();

    // Journaled run, "killed" (dropped) after 17 evaluations.
    let path = journal_path("kill");
    let mut cf = mk_cf();
    let mut interrupted = TuningSession::<f64>::new(space(), technique())
        .unwrap()
        .abort_condition(abort::evaluations(50))
        .journal_to(&path)
        .unwrap();
    for _ in 0..17 {
        let config = interrupted.next_config().expect("budget not exhausted yet");
        let outcome = cf.evaluate(&config);
        interrupted.report(outcome).unwrap();
    }
    drop(interrupted); // crash: no finish, journal left behind

    // Resume from the journal and drive to completion.
    let mut cf = mk_cf();
    let mut resumed = TuningSession::<f64>::new(space(), technique())
        .unwrap()
        .abort_condition(abort::evaluations(50));
    let replayed = resumed.resume_from_journal(&path).unwrap();
    assert_eq!(replayed, 17);
    while let Some(config) = resumed.next_config() {
        let outcome = cf.evaluate(&config);
        resumed.report(outcome).unwrap();
    }
    let resumed_counts = resumed.status().failure_counts();
    let resumed = resumed.finish().unwrap();

    assert_eq!(resumed.best_config, reference.best_config);
    assert_eq!(resumed.best_cost, reference.best_cost);
    assert_eq!(resumed.evaluations, reference.evaluations);
    assert_eq!(resumed.failed_evaluations, reference.failed_evaluations);
    assert_eq!(resumed_counts, reference_counts);

    // The journal now holds the full run and replays in one go.
    let full = LoadedJournal::load(&path).unwrap();
    assert_eq!(full.entries.len() as u64, reference.evaluations);
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: replaying ANY journal prefix, then the rest, reconstructs
    /// the same best configuration and status counters as the uninterrupted
    /// run — across techniques, fault seeds, and cut points.
    #[test]
    fn journal_prefix_replay_reaches_identical_state(
        seed in 0u64..200,
        cut in 0usize..=50,
        technique_idx in 0usize..3,
    ) {
        let technique = || -> Box<dyn SearchTechnique> {
            match technique_idx {
                0 => Box::new(Exhaustive::new()),
                1 => Box::new(SimulatedAnnealing::with_seed(seed)),
                _ => Box::new(DifferentialEvolution::with_seed(seed)),
            }
        };
        let path = journal_path(&format!("prop-{seed}-{cut}-{technique_idx}"));

        // Uninterrupted journaled run under an injected fault schedule.
        let mut cf = FaultyCostFunction::new(objective(), FaultPlan::stressful(seed));
        let mut session = TuningSession::<f64>::new(space(), technique())
            .unwrap()
            .abort_condition(abort::evaluations(40))
            .journal_to(&path)
            .unwrap();
        while let Some(config) = session.next_config() {
            let outcome = cf.evaluate(&config);
            session.report(outcome).unwrap();
        }
        let reference_counts = session.status().failure_counts();
        let reference = session.finish();

        let entries = LoadedJournal::load(&path).unwrap().entries;
        std::fs::remove_file(&path).ok();
        let k = cut.min(entries.len());

        // Replay the prefix (the journal of the "crashed" run), then the
        // suffix (what the continued run would have measured).
        let mut resumed = TuningSession::<f64>::new(space(), technique())
            .unwrap()
            .abort_condition(abort::evaluations(40));
        let replayed = resumed.resume_from(&entries[..k]).unwrap();
        prop_assert_eq!(replayed as usize, k);
        resumed.resume_from(&entries[k..]).unwrap();
        let resumed_counts = resumed.status().failure_counts();
        let resumed = resumed.finish();

        prop_assert_eq!(resumed_counts, reference_counts);
        match (resumed, reference) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.best_config, b.best_config);
                prop_assert_eq!(a.best_cost, b.best_cost);
                prop_assert_eq!(a.evaluations, b.evaluations);
                prop_assert_eq!(a.failed_evaluations, b.failed_evaluations);
            }
            (a, b) => prop_assert_eq!(a.is_err(), b.is_err()),
        }
    }
}
