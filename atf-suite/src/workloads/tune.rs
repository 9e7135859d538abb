//! `tune_mem` and `tune_journal`: the in-process tuning loop over the
//! cap-32 XgemmDirect space with the OpenTuner-style ensemble and the
//! XgemmDirect cost model — without a journal (search + session + space +
//! cost model carry the time) and with the journal exactly as
//! `atf-tune run --journal` configures it (append/fsync/compaction carry it).

use crate::inputs;
use crate::stats::{self, time_box};
use crate::trace::{Tracer, NO_PARENT};
use crate::workload::{random_get_ns, Checks, Params, Run, Workload};
use atf_core::prelude::*;
use atf_ocl::OclCostFunction;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What `atf-tune run --journal` and the service both set.
pub const CHECKPOINT_EVERY: usize = 64;
/// Random reads of the session's own space per 10 s box (`tune_mem`).
const GETS_PER_BOX: usize = 4_000_000;
const GET_BLOCKS: usize = 10;
/// Replays of the journal whose median is the read-side rate (`tune_journal`).
const RESUME_REPEATS: usize = 7;

/// `tune_mem` reads the clock once per 64 evaluations and reports the
/// batch's wall ÷ 64 as the latency sample: a read per 3 µs evaluation
/// would cost 1–2 % of the loop, and the p99 of single evaluations at that
/// scale is timer and allocator noise (4–10 µs from run to run).
/// `tune_journal` samples every evaluation, so that the one append in 64
/// that compacts the journal stays visible as the tail.
const MEM_BATCH: u64 = 64;

pub struct TuneMem;
pub struct TuneJournal;

pub struct State {
    /// Evaluations per latency sample (see [`MEM_BATCH`]).
    batch: u64,
    space: SearchSpace,
    cost: OclCostFunction,
    /// Cost of CLBlast's compiled-in default configuration — the bar the
    /// tuned result must reach.
    default_cost: f64,
    journal: Option<PathBuf>,
}

/// WGD cap of the tuned space: 32 (776 764 configurations), 16 in smoke tests.
pub fn cap(p: &Params) -> u64 {
    if p.quick {
        16
    } else {
        32
    }
}

fn new_session(space: SearchSpace, seed: u64) -> TuningSession<f64> {
    TuningSession::new(space, Box::new(Ensemble::opentuner_default(seed)))
        .expect("the XgemmDirect space is not empty")
        // Time-boxed by the driver, never by the session.
        .abort_condition(abort::evaluations(u64::MAX))
}

fn setup(p: &Params, journaled: bool, checks: &mut Checks) -> State {
    // Generated the way `Tuner::tune` does by default: sequentially, which
    // also lays the configurations out in memory in enumeration order. (The
    // chunked generator's layout depends on thread timing, and the loop's
    // speed with it: ±10 % from run to run.)
    let groups = clblast::xgemm_space::atf_space_wgd_max(cap(p));
    let space = SearchSpace::generate(&groups);
    let mut cost = inputs::xgemm_cost(inputs::IS2, p.seed);
    let mut default_cost = match cost.evaluate(&clblast::default_config()) {
        Ok(c) => c,
        Err(e) => {
            checks.failed_op(format!("default configuration not measurable: {e}"));
            f64::INFINITY
        }
    };
    if p.corrupt_expected {
        default_cost = 0.0;
    }
    // Warm-up operation: a short throwaway session through the same loop.
    let mut warm = new_session(space.clone(), p.seed ^ 0xaa);
    for _ in 0..256 {
        if let Handout::Next(ticket, config) = warm.next_ticket() {
            let outcome = cost.evaluate(&config);
            warm.report_ticket(ticket, outcome).ok();
        }
    }
    State {
        batch: if journaled { 1 } else { MEM_BATCH },
        space,
        cost,
        default_cost,
        journal: journaled.then(|| p.scratch.join("run.journal")),
    }
}

/// `(evaluations, best config, best cost)` — what resume must reproduce.
fn summary(session: &TuningSession<f64>) -> (u64, Option<(Config, f64)>) {
    (
        session.status().evaluations(),
        session.best().map(|(c, cost)| (c.clone(), *cost)),
    )
}

fn run(mut state: State, p: &Params, traced: bool, checks: &mut Checks) -> Run {
    let mut tracer = Tracer::new(traced, crate::trace::SPAN_CAPACITY, Instant::now());
    let resume_space = state.journal.is_some().then(|| state.space.clone());
    let mut session = new_session(state.space, p.seed);
    if let Some(path) = &state.journal {
        session = session
            .journal_checkpoint_every(CHECKPOINT_EVERY)
            .journal_to(path)
            .expect("create the run journal");
    }

    let mut last_ticket = 0;
    let mut failed = 0u64;
    let mut boxed = time_box(p.box_len, || {
        for _ in 0..state.batch {
            let op = tracer.begin("op", NO_PARENT, last_ticket + 1);
            let handout = tracer.scope("session.next_ticket", op, last_ticket + 1, || {
                session.next_ticket()
            });
            let Handout::Next(ticket, config) = handout else {
                failed += 1;
                return false;
            };
            // Exactly-once accounting, hand-out side: tickets are 1, 2, 3, …
            if ticket != last_ticket + 1 {
                failed += 1;
            }
            last_ticket = ticket;
            let outcome =
                tracer.scope("cost.evaluate", op, ticket, || state.cost.evaluate(&config));
            let reported = tracer.scope("session.report_ticket", op, ticket, || {
                session.report_ticket(ticket, outcome)
            });
            if reported.is_err() {
                failed += 1;
            }
            tracer.end(op);
        }
        true
    });
    for sample in &mut boxed.latencies_us {
        *sample /= state.batch as f64;
    }
    let evaluated = boxed.ops() * state.batch;
    checks.ops(evaluated);
    for _ in 0..failed {
        checks.failed_op("hand-out or report refused inside the box".into());
    }

    // Exactly-once accounting, report side: every hand-out was applied once
    // and a second report of a spent ticket is refused.
    let (evaluations, best) = summary(&session);
    checks.check(evaluations == evaluated, || {
        format!("{evaluations} evaluations applied for {evaluated} hand-outs")
    });
    checks.check(session.report_ticket(last_ticket, Ok(1.0)).is_err(), || {
        "a spent ticket was accepted twice".into()
    });
    let best_cost = best.as_ref().map_or(f64::INFINITY, |b| b.1);
    checks.check(best_cost <= state.default_cost, || {
        format!(
            "best cost {best_cost} is worse than the default configuration's {}",
            state.default_cost
        )
    });

    let mut run = Run::from_box(boxed);
    run.ops = evaluated;
    run.extras.push(("best_cost_ns", best_cost, "ns"));
    match (&state.journal, resume_space) {
        (Some(path), Some(space)) => {
            drop(session); // flushes and closes the journal
            let journaled = LoadedJournal::load_with_checkpoint(path)
                .map(|j| j.entries.len() as u64)
                .unwrap_or(0);
            checks.check(journaled == evaluations, || {
                format!("journal holds {journaled} entries for {evaluations} evaluations")
            });
            // Read side: a fresh session replays the journal just written,
            // `RESUME_REPEATS` times over (replay leaves the file as it was).
            let mut walls = Vec::with_capacity(RESUME_REPEATS);
            for rep in 0..RESUME_REPEATS {
                let mut resumed =
                    new_session(space.clone(), p.seed).journal_checkpoint_every(CHECKPOINT_EVERY);
                let id = tracer.begin("session.resume_from_journal", NO_PARENT, rep as u64);
                let t0 = Instant::now();
                let replayed = resumed.resume_from_journal(path);
                walls.push(t0.elapsed().as_secs_f64());
                tracer.end(id);
                checks.check(replayed.as_ref().ok() == Some(&evaluations), || {
                    format!("resume replayed {replayed:?} of {evaluations} entries")
                });
                checks.check(summary(&resumed) == (evaluations, best.clone()), || {
                    "resumed status()/best() differ from the original session's".into()
                });
            }
            let wall = stats::median(&walls);
            run.read_ops_per_s = evaluations as f64 / wall;
            run.extras.push(("resume_s", wall, "s"));
            let bytes = std::fs::metadata(atf_core::journal::checkpoint_path(path))
                .map_or(0, |m| m.len())
                + std::fs::metadata(path).map_or(0, |m| m.len());
            run.extras.push((
                "journal_bytes_per_entry",
                bytes as f64 / evaluations.max(1) as f64,
                "B",
            ));
        }
        _ => {
            // Read side: seeded-random `get` on the session's own space — the
            // same read as `spacegen_xgemm`'s on a working set six times smaller.
            let space = session.space();
            let per_block = p.scaled(GETS_PER_BOX, GET_BLOCKS * 100) / GET_BLOCKS;
            let get_ns = random_get_ns(space, p.seed, GET_BLOCKS, per_block, &mut tracer);
            checks.ops((per_block * GET_BLOCKS) as u64);
            let median = stats::median(&get_ns);
            run.read_ops_per_s = 1e9 / median;
            run.extras.push(("get_ns", median, "ns"));
        }
    }
    run.spans_dropped = tracer.dropped;
    run.spans = tracer.into_spans();
    run
}

impl Workload for TuneMem {
    const NAME: &'static str = "tune_mem";
    const OP: &'static str = "one evaluation: next_ticket + cost model + report_ticket, no journal";
    const READ_OP: &'static str = "one seeded-random SearchSpace::get on the session's space";
    type State = State;
    /// The loop never leaves the CPU, so beyond p90 a batch is slow because
    /// the host took the core away, not because of anything in the loop: p99
    /// reads 4.3 or 7.7 µs with what else the host is running.
    const TAIL: Option<f64> = Some(0.90);
    /// Nine short rounds spread over ≈25 s of wall: the host runs this loop
    /// at 2.8 to 3.9 µs per evaluation in spells of 2 to 30 s, and five
    /// rounds back to back (14 s) fell inside one spell in a third of the runs.
    const ROUNDS: u32 = 9;
    const PAUSE: Duration = Duration::from_millis(1000);

    fn setup(p: &Params, checks: &mut Checks) -> State {
        setup(p, false, checks)
    }

    fn run(state: State, p: &Params, traced: bool, checks: &mut Checks) -> Run {
        run(state, p, traced, checks)
    }
}

impl Workload for TuneJournal {
    const NAME: &'static str = "tune_journal";
    const OP: &'static str =
        "one evaluation with journal_to + journal_checkpoint_every(64), as atf-tune run --journal";
    const READ_OP: &'static str = "one journal entry replayed by resume_from_journal";
    type State = State;

    fn setup(p: &Params, checks: &mut Checks) -> State {
        setup(p, true, checks)
    }

    fn run(state: State, p: &Params, traced: bool, checks: &mut Checks) -> Run {
        run(state, p, traced, checks)
    }
}
