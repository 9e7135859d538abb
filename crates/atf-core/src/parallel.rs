//! The one loop that drives a local [`TuningSession`]: the paper's
//! exploration loop (Section IV) — take a configuration, measure it, report
//! its cost, until the session is done — run by a pool of workers.
//!
//! The session is the single source of truth — it hands out up to its
//! window ([`max_pending`](TuningSession::max_pending)) of simultaneously
//! pending configurations and applies reports in ticket order, so the
//! search trajectory of a seeded technique is identical across runs
//! regardless of which worker finishes first (see the [`crate::session`]
//! module docs). Every worker repeats, around that state machine:
//!
//! 1. lock the session, adopt an orphaned ticket or ask
//!    [`next_ticket`](TuningSession::next_ticket);
//! 2. on [`Handout::Next`] unlock and evaluate — the expensive part runs
//!    outside the lock, concurrently with the other workers;
//! 3. on [`Handout::Wait`] block on a condvar until some worker reports;
//! 4. on [`Handout::Done`] wake everyone and exit.
//!
//! Worker 0 runs on the calling thread and only workers 1.. are spawned,
//! so one cost function spawns nothing and is still the same code path
//! ([`crate::tuner::Tuner`] drives its single, possibly non-`Send`, cost
//! function this way). Each worker owns a private cost-function instance
//! ([`CostFunction::evaluate`] takes `&mut self`; a process-spawning cost
//! function holds per-run scratch state).

use crate::cost::{CostFunction, CostValue};
use crate::metrics::MetricsRegistry;
use crate::session::{Handout, Ticket, TuningSession};
use crate::trace::{TraceEvent, TraceSink};
use crate::tuner::TuningError;
use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Drives `session` until [`Handout::Done`] with one worker per element of
/// `cost_functions`: the first evaluates on the calling thread, the others
/// on scoped threads.
///
/// The session's pending window caps the achievable parallelism: drive a
/// session built with [`max_pending(n)`](TuningSession::max_pending) with
/// `n` cost functions. Tickets already in flight when the pool starts — a
/// resumed session can hold handouts whose reports never made the dead
/// process's journal — are adopted and evaluated like fresh ones.
///
/// When the session refuses a report (a journal write failure under
/// [`strict_journal`](TuningSession::strict_journal)), no further ticket is
/// taken, every worker finishes and reports the evaluation it holds, and
/// the first refusal is returned. A panicking evaluation stops the pool the
/// same way and propagates after the remaining workers drain.
pub fn drive_session<CF>(
    session: &mut TuningSession<CF::Cost>,
    cost_functions: Vec<CF>,
) -> Result<(), TuningError>
where
    CF: CostFunction + Send,
{
    let mut rest = cost_functions.into_iter();
    match rest.next() {
        Some(first) => drive(session, first, rest.collect()),
        None => Ok(()),
    }
}

/// [`drive_session`] with worker 0's cost function apart from the spawned
/// ones: it never leaves the calling thread, so it need not be `Send`.
pub(crate) fn drive<C, L, S>(
    session: &mut TuningSession<C>,
    mut local: L,
    spawned: Vec<S>,
) -> Result<(), TuningError>
where
    C: CostValue,
    L: CostFunction<Cost = C>,
    S: CostFunction<Cost = C> + Send,
{
    // Telemetry rides along from the session: workers emit busy/idle
    // transitions to its trace sink and busy time to its registry, which
    // is what makes the utilization % in `--metrics` meaningful.
    let trace = session.trace_sink();
    let metrics = Arc::clone(session.metrics());
    metrics.set_workers(1 + spawned.len());
    let pool = Pool {
        state: Mutex::new(PoolState {
            session,
            claimed: HashSet::new(),
            stopped: false,
            refused: None,
        }),
        wake: Condvar::new(),
        trace,
        metrics,
    };
    let pool = &pool;
    std::thread::scope(|scope| {
        for (i, mut cf) in spawned.into_iter().enumerate() {
            scope.spawn(move || worker(pool, i + 1, &mut cf));
        }
        worker(pool, 0, &mut local);
    });
    let refused = pool.lock().refused.take();
    refused.map_or(Ok(()), Err)
}

struct PoolState<'a, C: CostValue> {
    session: &'a mut TuningSession<C>,
    /// Tickets some worker is currently evaluating. Unreported tickets NOT
    /// in this set are orphans (handed out before the pool started, e.g.
    /// by a crashed run this session resumed) and are up for adoption.
    claimed: HashSet<Ticket>,
    /// Set by the first refused report or panicking worker: nobody takes
    /// another ticket.
    stopped: bool,
    /// The first error a report was refused with.
    refused: Option<TuningError>,
}

struct Pool<'a, C: CostValue> {
    state: Mutex<PoolState<'a, C>>,
    wake: Condvar,
    trace: Arc<dyn TraceSink>,
    metrics: Arc<MetricsRegistry>,
}

/// Why a poisoned pool lock is a bug: evaluations run outside it.
const POISONED: &str = "no worker panics while holding the pool lock";

impl<'a, C: CostValue> Pool<'a, C> {
    fn lock(&self) -> MutexGuard<'_, PoolState<'a, C>> {
        self.state.lock().expect(POISONED)
    }
}

/// Stops the pool when its worker unwinds: the panicking worker's ticket
/// will never be reported, so the window behind it would fill up and leave
/// the others waiting forever.
struct StopOnPanic<'p, 'a, C: CostValue>(&'p Pool<'a, C>);

impl<C: CostValue> Drop for StopOnPanic<'_, '_, C> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // A poisoned lock still takes the flag: it is a lone bool, and
            // waiters must wake to see the poison.
            let mut state = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.stopped = true;
            drop(state);
            self.0.wake.notify_all();
        }
    }
}

fn worker<C: CostValue>(pool: &Pool<'_, C>, index: usize, cf: &mut dyn CostFunction<Cost = C>) {
    let _stop_on_panic = StopOnPanic(pool);
    loop {
        let (ticket, config) = {
            let mut state = pool.lock();
            loop {
                if state.stopped {
                    return;
                }
                // Adopt an orphaned in-flight ticket before asking for a
                // new one: nobody else will evaluate it, and it blocks the
                // window (leaving it would deadlock the pool).
                let orphan = {
                    let PoolState {
                        session, claimed, ..
                    } = &mut *state;
                    session.unreported_tickets().find(|t| !claimed.contains(t))
                };
                if let Some(ticket) = orphan {
                    let config = state
                        .session
                        .pending_config_for(ticket)
                        .expect("an unreported ticket is pending")
                        .clone();
                    state.claimed.insert(ticket);
                    break (ticket, config);
                }
                match state.session.next_ticket() {
                    Handout::Next(ticket, config) => {
                        state.claimed.insert(ticket);
                        break (ticket, config);
                    }
                    // Wait implies another worker holds an unreported
                    // ticket (everything unreported is claimed, or we
                    // would have adopted it); its report will notify us.
                    // Waiting re-takes the guard, so no wakeup slips past.
                    Handout::Wait => state = pool.wake.wait(state).expect(POISONED),
                    Handout::Done => {
                        pool.wake.notify_all();
                        return;
                    }
                }
            }
        };
        pool.trace.emit(&TraceEvent::worker_busy(index, ticket));
        pool.metrics.worker_busy();
        let started = Instant::now();
        let outcome = cf.evaluate(&config);
        let busy = started.elapsed();
        pool.metrics.worker_idle(busy);
        pool.trace.emit(&TraceEvent::worker_idle(
            index,
            u64::try_from(busy.as_micros()).unwrap_or(u64::MAX),
        ));
        let mut state = pool.lock();
        state.claimed.remove(&ticket);
        if let Err(e) = state.session.report_ticket(ticket, outcome) {
            state.stopped = true;
            state.refused.get_or_insert(e);
        }
        pool.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abort;
    use crate::config::Config;
    use crate::constraint::divides;
    use crate::cost::{try_cost_fn, CostError};
    use crate::expr::{cst, param};
    use crate::param::{tp_c, ParamGroup};
    use crate::range::Range;
    use crate::search::Exhaustive;
    use crate::space::SearchSpace;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn space(n: u64) -> SearchSpace {
        SearchSpace::generate(&[ParamGroup::new(vec![
            tp_c("WPT", Range::interval(1, n), divides(cst(n))),
            tp_c("LS", Range::interval(1, n), divides(cst(n) / param("WPT"))),
        ])])
    }

    fn measure(c: &Config) -> Result<f64, CostError> {
        let wpt = c.get_u64("WPT") as f64;
        let ls = c.get_u64("LS") as f64;
        Ok((wpt - 8.0).powi(2) + (ls - 4.0).powi(2))
    }

    #[test]
    fn pool_explores_the_whole_space() {
        let mut session: TuningSession<f64> =
            TuningSession::new(space(64), Box::new(Exhaustive::new()))
                .unwrap()
                .max_pending(4);
        let cfs: Vec<_> = (0..4).map(|_| try_cost_fn(measure)).collect();
        drive_session(&mut session, cfs).unwrap();
        assert!(session.is_done());
        let r = session.finish().unwrap();
        assert_eq!(r.evaluations as u128, r.space_size);
        assert_eq!(r.best_config.get_u64("WPT"), 8);
        assert_eq!(r.best_config.get_u64("LS"), 4);
    }

    #[test]
    fn workers_evaluate_concurrently() {
        // With a window of 4 and 4 workers, at some instant more than one
        // evaluation must be running at once.
        static IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        let cfs: Vec<_> = (0..4)
            .map(|_| {
                try_cost_fn(|c: &Config| {
                    let now = IN_FLIGHT.fetch_add(1, Ordering::SeqCst) + 1;
                    PEAK.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    IN_FLIGHT.fetch_sub(1, Ordering::SeqCst);
                    measure(c)
                })
            })
            .collect();
        let mut session: TuningSession<f64> =
            TuningSession::new(space(64), Box::new(Exhaustive::new()))
                .unwrap()
                .abort_condition(abort::evaluations(16))
                .max_pending(4);
        drive_session(&mut session, cfs).unwrap();
        let r = session.finish().unwrap();
        assert_eq!(r.evaluations, 16);
        assert!(
            PEAK.load(Ordering::SeqCst) >= 2,
            "peak concurrency {} — workers never overlapped",
            PEAK.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn pool_evaluates_each_configuration_once() {
        // Every handed-out configuration is evaluated exactly once across
        // the pool, whichever worker picks it up.
        use std::sync::Mutex as StdMutex;
        let seen = StdMutex::new(Vec::new());
        let cfs: Vec<_> = (0..3)
            .map(|_| {
                try_cost_fn(|c: &Config| {
                    seen.lock()
                        .unwrap()
                        .push((c.get_u64("WPT"), c.get_u64("LS")));
                    measure(c)
                })
            })
            .collect();
        let mut session: TuningSession<f64> =
            TuningSession::new(space(64), Box::new(Exhaustive::new()))
                .unwrap()
                .max_pending(3);
        drive_session(&mut session, cfs).unwrap();
        let r = session.finish().unwrap();
        let seen = seen.into_inner().unwrap();
        let unique: HashSet<_> = seen.iter().copied().collect();
        assert_eq!(seen.len() as u64, r.evaluations);
        assert_eq!(unique.len(), seen.len(), "a configuration was re-evaluated");
    }

    #[test]
    fn pool_adopts_in_flight_tickets_after_resume() {
        // A crashed run held tickets 1..=3 but only ticket 3's report made
        // the journal. The resumed session therefore starts with tickets 1
        // and 2 in flight and unreported — the pool must adopt and
        // evaluate them, or the full window would deadlock every worker.
        let path =
            std::env::temp_dir().join(format!("atf-pool-adopt-{}.ndjson", std::process::id()));
        let mut crashed: TuningSession<f64> =
            TuningSession::new(space(8), Box::new(Exhaustive::new()))
                .unwrap()
                .max_pending(3)
                .journal_to(&path)
                .unwrap();
        let mut handed = Vec::new();
        for _ in 0..3 {
            match crashed.next_ticket() {
                crate::session::Handout::Next(t, c) => handed.push((t, c)),
                other => panic!("expected a handout, got {other:?}"),
            }
        }
        let (t3, c3) = handed.pop().unwrap();
        crashed.report_ticket(t3, measure(&c3)).unwrap();
        drop(crashed); // crash: tickets 1 and 2 never reported

        let mut resumed: TuningSession<f64> =
            TuningSession::new(space(8), Box::new(Exhaustive::new())).unwrap();
        resumed.resume_from_journal(&path).unwrap();
        assert_eq!(resumed.unreported_tickets().collect::<Vec<_>>(), [1, 2]);

        let cfs: Vec<_> = (0..3).map(|_| try_cost_fn(measure)).collect();
        drive_session(&mut resumed, cfs).unwrap();
        let r = resumed.finish().unwrap();
        assert_eq!(r.evaluations as u128, r.space_size);
        assert_eq!(r.best_config.get_u64("WPT"), 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn single_worker_pool_matches_serial_drive() {
        // One cost function spawns nothing: it runs on the caller's thread,
        // and the run is the `next_config`/`report` drive step for step.
        let session = || {
            TuningSession::<f64>::new(space(64), Box::new(Exhaustive::new()))
                .unwrap()
                .record_history(true)
        };
        let caller = std::thread::current().id();
        let mut pooled = session();
        let cf = try_cost_fn(|c: &Config| {
            assert_eq!(std::thread::current().id(), caller);
            measure(c)
        });
        drive_session(&mut pooled, vec![cf]).unwrap();
        let pooled = pooled.finish().unwrap();

        let mut serial = session();
        while let Some(cfg) = serial.next_config() {
            serial.report(measure(&cfg)).unwrap();
        }
        let serial = serial.finish().unwrap();

        assert_eq!(pooled.best_config, serial.best_config);
        assert_eq!(pooled.evaluations, serial.evaluations);
        let steps = |r: &crate::tuner::TuningResult<f64>| -> Vec<_> {
            r.history
                .iter()
                .map(|h| (h.evaluation, h.point.clone(), h.scalar_cost, h.valid))
                .collect()
        };
        assert_eq!(steps(&pooled), steps(&serial));
    }

    #[test]
    fn panicking_evaluation_propagates_after_the_other_workers_drain() {
        // The panicking worker's ticket is never reported; without the
        // stop the window behind it fills and the others wait forever.
        for panicking_worker in [0usize, 2] {
            // Every worker's first evaluation meets at the barrier, so the
            // panicking one provably holds a ticket when it blows up.
            let all_hold_a_ticket = std::sync::Barrier::new(3);
            let finished = AtomicUsize::new(0);
            let mut session: TuningSession<f64> =
                TuningSession::new(space(64), Box::new(Exhaustive::new()))
                    .unwrap()
                    .max_pending(3);
            let cfs: Vec<_> = (0..3)
                .map(|w| {
                    let (barrier, finished) = (&all_hold_a_ticket, &finished);
                    let mut first = true;
                    try_cost_fn(move |c: &Config| {
                        if std::mem::take(&mut first) {
                            barrier.wait();
                        }
                        if w == panicking_worker {
                            panic!("evaluation blew up");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                        measure(c)
                    })
                })
                .collect();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drive_session(&mut session, cfs)
            }))
            .expect_err("the panic must propagate");
            // Every evaluation the other workers finished was reported.
            assert_eq!(
                session.tickets_buffered() as u64 + session.status().evaluations(),
                finished.load(Ordering::SeqCst) as u64
            );
        }
    }
}
