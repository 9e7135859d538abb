//! Parallel batched evaluation suite: the multi-pending session must keep
//! every technique's search trajectory deterministic under concurrent
//! workers, never lose or double-count a ticket under arbitrary report
//! interleavings, resume an interrupted parallel run from its journal to
//! the exact uninterrupted state, and actually deliver wall-clock speedup.
//!
//! The determinism hinge (see `atf_core::session`): reports are applied in
//! ticket order at forced points, so the technique's view when ticket `t`
//! is issued is a pure function of the handout count and the pending
//! window — never of which worker reported first.

use atf_core::abort;
use atf_core::param::{tp, ParamGroup};
use atf_core::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn space() -> SearchSpace {
    let group = ParamGroup::new(vec![
        tp("X", Range::interval(1, 12)),
        tp("Y", Range::interval(1, 6)),
    ]);
    SearchSpace::generate(&[group])
}

/// Toy objective with a unique optimum at (X=7, Y=3). `Send` so worker
/// threads can own private instances.
fn objective() -> impl CostFunction<Cost = f64> + Send {
    cost_fn(|c: &Config| {
        let x = c.get_u64("X") as f64;
        let y = c.get_u64("Y") as f64;
        (x - 7.0).abs() + (y - 3.0).abs()
    })
}

/// Failures keyed purely on the configuration, so the schedule is
/// identical no matter which worker (or which run) measures it.
fn keyed_faulty() -> impl CostFunction<Cost = f64> + Send {
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
}

/// The acceptance-criteria technique list (plus random search, which like
/// exhaustive proposes independently of reported costs), freshly seeded.
fn names() -> Vec<&'static str> {
    vec![
        "exhaustive",
        "random",
        "annealing",
        "ensemble",
        "differential-evolution",
        "pattern",
        "torczon",
        "nelder-mead",
    ]
}

fn technique(name: &str, seed: u64) -> Box<dyn SearchTechnique> {
    match name {
        "exhaustive" => Box::new(Exhaustive::new()),
        "random" => Box::new(RandomSearch::with_seed(seed)),
        "annealing" => Box::new(SimulatedAnnealing::with_seed(seed)),
        "ensemble" => Box::new(Ensemble::opentuner_default(seed)),
        "differential-evolution" => Box::new(DifferentialEvolution::with_seed(seed)),
        "pattern" => Box::new(PatternSearch::with_seed(seed)),
        "torczon" => Box::new(Torczon::with_seed(seed)),
        "nelder-mead" => Box::new(NelderMead::with_seed(seed)),
        other => panic!("unknown technique `{other}`"),
    }
}

fn assert_identical(a: &TuningResult<f64>, b: &TuningResult<f64>, label: &str) {
    assert_eq!(a.best_config, b.best_config, "{label}: best_config");
    assert_eq!(a.best_cost, b.best_cost, "{label}: best_cost");
    assert_eq!(a.evaluations, b.evaluations, "{label}: evaluations");
    assert_eq!(
        a.valid_evaluations, b.valid_evaluations,
        "{label}: valid_evaluations"
    );
    assert_eq!(
        a.failed_evaluations, b.failed_evaluations,
        "{label}: failed_evaluations"
    );
}

/// A session over the toy space with a window of `workers`, driven to the
/// end by `drive_session` with one `make_cf()` per worker.
fn pooled_run<CF: CostFunction<Cost = f64> + Send>(
    tech: Box<dyn SearchTechnique>,
    budget: u64,
    workers: usize,
    make_cf: impl Fn() -> CF,
) -> Result<TuningResult<f64>, TuningError> {
    let mut session = TuningSession::<f64>::new(space(), tech)?
        .abort_condition(abort::evaluations(budget))
        .max_pending(workers);
    drive_session(&mut session, (0..workers).map(|_| make_cf()).collect())?;
    session.finish()
}

/// The serial reference: the `next_config`/`report` loop, no pool involved.
fn stepped_run(tech: Box<dyn SearchTechnique>, budget: u64) -> TuningResult<f64> {
    let mut session = TuningSession::<f64>::new(space(), tech)
        .unwrap()
        .abort_condition(abort::evaluations(budget));
    let mut cf = objective();
    while let Some(config) = session.next_config() {
        session.report(cf.evaluate(&config)).unwrap();
    }
    session.finish().unwrap()
}

/// With one worker the pending window is 1, so the pool must equal the
/// serial loop EXACTLY for every technique — same configurations in the
/// same order, hence the same best, cost, and counters.
#[test]
fn one_worker_parallel_equals_serial_for_every_technique() {
    for name in names() {
        let serial = stepped_run(technique(name, 41), 60);
        let parallel = pooled_run(technique(name, 41), 60, 1, objective)
            .unwrap_or_else(|e| panic!("`{name}` one-worker run failed: {e}"));
        assert_identical(&serial, &parallel, name);
    }
}

/// Exhaustive and random search propose independently of reported costs,
/// so widening the window to 4 workers changes NOTHING about the visited
/// configurations: the parallel run equals the serial run exactly.
#[test]
fn four_workers_match_serial_exactly_for_order_free_techniques() {
    for name in ["exhaustive", "random"] {
        let serial = stepped_run(technique(name, 17), 60);
        let parallel = pooled_run(technique(name, 17), 60, 4, objective).unwrap();
        assert_identical(&serial, &parallel, name);
    }
}

/// A seeded 4-worker run is reproducible — running it twice yields the
/// identical result even though worker scheduling differs — and still
/// converges: within a budget the size of the space every technique gets
/// close to the optimum on this unimodal objective.
#[test]
fn four_worker_runs_are_reproducible_and_converge() {
    for name in names() {
        let run = || {
            pooled_run(technique(name, 59), 72, 4, objective)
                .unwrap_or_else(|e| panic!("`{name}` four-worker run failed: {e}"))
        };
        let first = run();
        let second = run();
        assert_identical(&first, &second, name);
        assert!(
            first.best_cost <= 3.0,
            "`{name}` should get near the optimum within the budget, got {}",
            first.best_cost
        );
        assert_eq!(first.evaluations, 72, "`{name}` should spend the budget");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property: under ARBITRARY interleavings of handouts, out-of-order
    /// reports, and failure reports, the session never loses or
    /// double-counts a ticket — every retired ticket becomes exactly one
    /// evaluation (valid or failed), the window cap holds at every step,
    /// the issued-ticket count respects the abort budget, and `is_done()`
    /// implies nothing is outstanding.
    #[test]
    fn interleaved_reports_never_lose_or_double_count(
        seed in 0u64..100,
        window in 1usize..=6,
        schedule in proptest::collection::vec((0u8..=255, 0u8..=255), 1..160),
    ) {
        let tech: Box<dyn SearchTechnique> = match seed % 3 {
            0 => Box::new(SimulatedAnnealing::with_seed(seed)),
            1 => Box::new(DifferentialEvolution::with_seed(seed)),
            _ => Box::new(Ensemble::opentuner_default(seed)),
        };
        let mut session = TuningSession::<f64>::new(space(), tech)
            .unwrap()
            .abort_condition(abort::evaluations(40))
            .max_pending(window);
        let mut cf = keyed_faulty();

        let mut outstanding: Vec<Ticket> = Vec::new();
        let mut retired = 0u64;
        for (action, pick) in schedule {
            if action % 2 == 0 {
                match session.next_ticket() {
                    Handout::Next(t, _) => outstanding.push(t),
                    Handout::Wait | Handout::Done => {}
                }
            } else if !outstanding.is_empty() {
                let i = pick as usize % outstanding.len();
                let t = outstanding.swap_remove(i);
                let config = session.pending_config_for(t).unwrap().clone();
                session.report_ticket(t, cf.evaluate(&config)).unwrap();
                retired += 1;
            }
            // Unreported tickets the session tracks == the ones we hold.
            let unreported =
                session.tickets_in_flight() - session.tickets_buffered();
            prop_assert_eq!(unreported, outstanding.len());
            prop_assert!(session.tickets_in_flight() <= window);
            prop_assert!(session.tickets_issued() <= 40);
            if session.is_done() {
                prop_assert!(outstanding.is_empty());
            }
        }

        // Drain: report everything still outstanding, then run the session
        // to completion serially.
        while let Some(t) = outstanding.pop() {
            let config = session.pending_config_for(t).unwrap().clone();
            session.report_ticket(t, cf.evaluate(&config)).unwrap();
            retired += 1;
        }
        loop {
            match session.next_ticket() {
                Handout::Next(t, config) => {
                    session.report_ticket(t, cf.evaluate(&config)).unwrap();
                    retired += 1;
                }
                Handout::Wait => prop_assert!(
                    false,
                    "Wait with nothing outstanding must be impossible"
                ),
                Handout::Done => break,
            }
        }
        prop_assert!(session.is_done());
        prop_assert_eq!(session.tickets_in_flight(), 0);
        prop_assert_eq!(session.tickets_issued(), retired);

        let result = session.finish().unwrap();
        prop_assert_eq!(result.evaluations, retired);
        prop_assert_eq!(
            result.valid_evaluations + result.failed_evaluations,
            retired
        );
    }
}

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("atf-par-{tag}-{}.ndjson", std::process::id()))
}

/// An 8-worker journaled run under config-keyed faults, "killed" after 20
/// arrivals (journal truncated to a prefix), resumes to the EXACT state of
/// the uninterrupted run: reports land in nondeterministic arrival order,
/// but ticket-order application makes the final state arrival-agnostic.
#[test]
fn eight_worker_journaled_run_resumes_identically() {
    let budget = 50u64;
    let tech = || technique("annealing", 31);

    // Reference: uninterrupted 8-worker journaled run.
    let path = journal_path("kill8");
    let mut reference = TuningSession::<f64>::new(space(), tech())
        .unwrap()
        .abort_condition(abort::evaluations(budget))
        .max_pending(8)
        .journal_to(&path)
        .unwrap();
    drive_session(&mut reference, (0..8).map(|_| keyed_faulty()).collect()).unwrap();
    let reference_counts = reference.status().failure_counts();
    let reference = reference.finish().unwrap();
    assert_eq!(reference.evaluations, budget);

    // "Kill" the run after 20 arrivals: truncate the journal text to the
    // header line plus the first 20 entry lines, exactly what a crashed
    // process would have left behind.
    let text = std::fs::read_to_string(&path).unwrap();
    let prefix: Vec<&str> = text.lines().take(1 + 20).collect();
    let prefix_path = journal_path("kill8-prefix");
    std::fs::write(&prefix_path, prefix.join("\n") + "\n").unwrap();

    // Resume from the prefix (the replay adopts the journal's window of 8)
    // and drive the rest with a fresh 8-worker pool.
    let mut resumed = TuningSession::<f64>::new(space(), tech())
        .unwrap()
        .abort_condition(abort::evaluations(budget));
    let replayed = resumed.resume_from_journal(&prefix_path).unwrap();
    assert_eq!(replayed, 20);
    assert_eq!(
        resumed.window(),
        8,
        "replay must adopt the journal's window"
    );
    drive_session(&mut resumed, (0..8).map(|_| keyed_faulty()).collect()).unwrap();
    let resumed_counts = resumed.status().failure_counts();
    let resumed = resumed.finish().unwrap();

    assert_identical(&reference, &resumed, "kill8");
    assert_eq!(reference_counts, resumed_counts);

    // The prefix journal was appended to: it now holds a full run again.
    let full = LoadedJournal::load(&prefix_path).unwrap();
    assert_eq!(full.entries.len() as u64, budget);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&prefix_path).ok();
}

/// The fault-tolerance acceptance scenario with a 4-worker pool: every
/// technique completes a run where each worker injects its own stressful
/// fault schedule (with retries), and the taxonomy counters still account
/// for every failure.
#[test]
fn every_technique_survives_faults_with_four_workers() {
    let quick = EvalPolicy {
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(2),
        ..EvalPolicy::default()
    }
    .retries(3);
    for (i, name) in names().into_iter().enumerate() {
        let mut session = TuningSession::<f64>::new(space(), technique(name, 11))
            .unwrap()
            .abort_condition(abort::evaluations(60))
            .circuit_breaker(30)
            .max_pending(4);
        let cost_functions: Vec<_> = (0..4)
            .map(|w| {
                RetryCostFunction::new(
                    FaultyCostFunction::new(
                        objective(),
                        FaultPlan::stressful(100 + (i * 4 + w) as u64),
                    ),
                    quick.clone(),
                    w as u64,
                )
            })
            .collect();
        drive_session(&mut session, cost_functions).unwrap();
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
    }
}

/// The acceptance throughput bar: on a sleep-dominated cost function, 4
/// workers finish the same budget at least twice as fast as 1 worker.
#[test]
fn four_workers_at_least_double_throughput() {
    let sleepy = || {
        cost_fn(|c: &Config| {
            std::thread::sleep(Duration::from_millis(5));
            let x = c.get_u64("X") as f64;
            let y = c.get_u64("Y") as f64;
            (x - 7.0).abs() + (y - 3.0).abs()
        })
    };
    let run = |workers: usize| {
        let start = Instant::now();
        let result = pooled_run(Box::new(Exhaustive::new()), 40, workers, sleepy).unwrap();
        assert_eq!(result.evaluations, 40);
        (start.elapsed(), result)
    };
    let (serial_time, serial) = run(1);
    let (parallel_time, parallel) = run(4);
    assert_identical(&serial, &parallel, "throughput");
    assert!(
        parallel_time * 2 <= serial_time,
        "4 workers should be at least 2x faster: serial {serial_time:?}, parallel {parallel_time:?}"
    );
}
