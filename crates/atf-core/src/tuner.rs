//! The tuning driver: generates the search space, drives the search
//! technique against the cost function, and enforces abort conditions.
//!
//! This is ATF's exploration loop (paper, Section IV): repeatedly take a
//! configuration from the search technique (`get_next_config`), determine
//! its cost with the user's cost function, and report the cost back to the
//! technique (`report_cost`), until the chosen abort condition is satisfied. If no abort condition is
//! passed, ATF uses `evaluations(S)` with `S` the search-space size.

use crate::abort::Abort;
use crate::config::Config;
use crate::cost::{CostFunction, CostValue};
use crate::param::ParamGroup;
use crate::search::{Point, SearchTechnique};
use crate::session::TuningSession;
use crate::space::SearchSpace;
use crate::status::Improvement;
use std::fmt;
use std::time::Duration;

/// Errors terminating a tuning run without a result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TuningError {
    /// The generated search space contains no valid configuration (e.g.
    /// unsatisfiable constraints — CLBlast's WGD range limitation on the
    /// Caffe matrix sizes produces exactly this, Section VI-A).
    EmptySearchSpace,
    /// Exploration ended without any successfully measured configuration.
    NoValidConfiguration {
        /// Number of configurations that were tested (and failed).
        evaluations: u64,
    },
    /// A cost was reported to a [`crate::session::TuningSession`] that has
    /// no configuration awaiting measurement.
    NoPendingConfiguration,
    /// A cost was reported under a ticket that was never handed out, or
    /// whose outcome was already reported.
    UnknownTicket {
        /// The offending ticket.
        ticket: u64,
    },
    /// The circuit breaker tripped: too many consecutive failed
    /// evaluations — the measurement side is broken, not merely unlucky.
    CircuitBroken {
        /// The consecutive-failure streak that tripped the breaker.
        consecutive_failures: u64,
        /// Taxonomy class of the failure that tripped it.
        last_failure: crate::cost::FailureKind,
    },
    /// Reading or writing the run journal failed.
    Journal(String),
    /// A journal replay diverged from the search technique: the journal
    /// belongs to a different run (spec, seed, or technique changed).
    JournalDiverged {
        /// 1-based evaluation at which replay diverged.
        evaluation: u64,
    },
}

impl fmt::Display for TuningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuningError::EmptySearchSpace => {
                write!(f, "the search space contains no valid configuration")
            }
            TuningError::NoValidConfiguration { evaluations } => write!(
                f,
                "no configuration could be measured successfully ({evaluations} tested)"
            ),
            TuningError::NoPendingConfiguration => {
                write!(f, "no configuration is awaiting a cost report")
            }
            TuningError::UnknownTicket { ticket } => write!(
                f,
                "ticket {ticket} is not awaiting a cost report (never handed out, or \
                 already reported)"
            ),
            TuningError::CircuitBroken {
                consecutive_failures,
                last_failure,
            } => write!(
                f,
                "circuit breaker tripped after {consecutive_failures} consecutive failed \
                 evaluations (last failure: {last_failure})"
            ),
            TuningError::Journal(m) => write!(f, "run journal error: {m}"),
            TuningError::JournalDiverged { evaluation } => write!(
                f,
                "journal replay diverged at evaluation {evaluation} — the journal belongs \
                 to a different run (specification, technique, or seed changed)"
            ),
        }
    }
}

impl std::error::Error for TuningError {}

/// One evaluated configuration in the (optional) full tuning history.
#[derive(Clone, Debug)]
pub struct EvalRecord {
    /// 1-based evaluation number.
    pub evaluation: u64,
    /// Coordinates of the tested configuration in the valid space.
    pub point: Point,
    /// Scalar cost ([`crate::search::PENALTY_COST`] if the measurement
    /// failed).
    pub scalar_cost: f64,
    /// Whether the measurement succeeded.
    pub valid: bool,
    /// Taxonomy class of the failure, when the measurement failed.
    pub failure: Option<crate::cost::FailureKind>,
}

/// The outcome of a tuning run.
#[derive(Clone, Debug)]
pub struct TuningResult<C: CostValue> {
    /// The best configuration found (paper: `best_config`).
    pub best_config: Config,
    /// Its cost, in the cost function's own type (full multi-objective
    /// ordering, not the scalar projection).
    pub best_cost: C,
    /// Total tested configurations.
    pub evaluations: u64,
    /// Successfully measured configurations.
    pub valid_evaluations: u64,
    /// Failed measurements.
    pub failed_evaluations: u64,
    /// Size `S` of the valid search space.
    pub space_size: u128,
    /// Wall-clock exploration time.
    pub elapsed: Duration,
    /// Best-cost improvement events in chronological order.
    pub improvements: Vec<Improvement>,
    /// Full per-evaluation history (only if enabled on the [`Tuner`]).
    pub history: Vec<EvalRecord>,
}

/// ATF tuner: search technique + abort condition + options.
///
/// ```
/// use atf_core::prelude::*;
///
/// let n = 64u64;
/// let groups = vec![ParamGroup::new(vec![
///     tp_c("WPT", Range::interval(1, n), divides(cst(n))),
///     tp_c("LS", Range::interval(1, n), divides(cst(n) / param("WPT"))),
/// ])];
/// let mut cf = cost_fn(|c: &Config| {
///     // toy cost: prefer WPT=4, LS=16
///     (c.get_u64("WPT") as f64 - 4.0).abs() + (c.get_u64("LS") as f64 - 16.0).abs()
/// });
/// let result = Tuner::new()
///     .technique(Exhaustive::new())
///     .tune(&groups, &mut cf)
///     .unwrap();
/// assert_eq!(result.best_config.get_u64("WPT"), 4);
/// assert_eq!(result.best_config.get_u64("LS"), 16);
/// ```
pub struct Tuner {
    technique: Box<dyn SearchTechnique>,
    abort: Option<Abort>,
    record_history: bool,
}

impl Tuner {
    /// A tuner with the default technique (exhaustive search) and the
    /// default abort condition (`evaluations(S)`).
    pub fn new() -> Self {
        Tuner {
            technique: Box::new(crate::search::Exhaustive::new()),
            abort: None,
            record_history: false,
        }
    }

    /// Sets the search technique.
    pub fn technique(mut self, t: impl SearchTechnique + 'static) -> Self {
        self.technique = Box::new(t);
        self
    }

    /// Sets the abort condition (default: `evaluations(S)`).
    pub fn abort_condition(mut self, a: Abort) -> Self {
        self.abort = Some(a);
        self
    }

    /// Records every evaluation in [`TuningResult::history`] (for
    /// convergence plots; off by default).
    pub fn record_history(mut self, on: bool) -> Self {
        self.record_history = on;
        self
    }

    /// Generates the valid space for `groups` and explores it.
    pub fn tune<CF: CostFunction>(
        self,
        groups: &[ParamGroup],
        cost_function: &mut CF,
    ) -> Result<TuningResult<CF::Cost>, TuningError> {
        self.explore(SearchSpace::generate(groups), cost_function)
    }

    /// Explores an already-generated search space.
    pub fn tune_space<CF: CostFunction>(
        self,
        space: &SearchSpace,
        cost_function: &mut CF,
    ) -> Result<TuningResult<CF::Cost>, TuningError> {
        self.explore(space.clone(), cost_function)
    }

    /// Opens a [`TuningSession`] over `space` and drives it with the one
    /// session loop ([`crate::parallel`]); `cost_function` is its worker 0
    /// and stays on this thread. Driving a session step by step yields the
    /// identical result.
    fn explore<CF: CostFunction>(
        self,
        space: SearchSpace,
        cost_function: &mut CF,
    ) -> Result<TuningResult<CF::Cost>, TuningError> {
        let mut session = TuningSession::<CF::Cost>::new(space, self.technique)?
            .record_history(self.record_history);
        if let Some(a) = self.abort {
            session = session.abort_condition(a);
        }
        type NoneSpawned<C> = Vec<Box<dyn CostFunction<Cost = C> + Send>>;
        crate::parallel::drive(&mut session, cost_function, NoneSpawned::new())?;
        session.finish()
    }
}

impl Default for Tuner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abort;
    use crate::constraint::{divides, less_than};
    use crate::cost::{cost_fn, try_cost_fn, CostError};
    use crate::expr::{cst, param};
    use crate::param::{tp, tp_c};
    use crate::range::Range;
    use crate::search::{Ensemble, Exhaustive, RandomSearch, SimulatedAnnealing};

    fn saxpy_groups(n: u64) -> Vec<ParamGroup> {
        vec![ParamGroup::new(vec![
            tp_c("WPT", Range::interval(1, n), divides(cst(n))),
            tp_c("LS", Range::interval(1, n), divides(cst(n) / param("WPT"))),
        ])]
    }

    #[test]
    fn exhaustive_finds_provable_optimum() {
        let mut cf = cost_fn(|c: &Config| {
            let wpt = c.get_u64("WPT") as f64;
            let ls = c.get_u64("LS") as f64;
            (wpt - 8.0).powi(2) + (ls - 4.0).powi(2)
        });
        let r = Tuner::new()
            .technique(Exhaustive::new())
            .tune(&saxpy_groups(64), &mut cf)
            .unwrap();
        assert_eq!(r.best_config.get_u64("WPT"), 8);
        assert_eq!(r.best_config.get_u64("LS"), 4);
        assert_eq!(r.best_cost, 0.0);
        assert_eq!(r.evaluations as u128, r.space_size); // default evaluations(S)
    }

    #[test]
    fn empty_space_errors() {
        let groups = vec![ParamGroup::new(vec![tp_c(
            "X",
            Range::interval(1, 10),
            less_than(cst(0u64)),
        )])];
        let mut cf = cost_fn(|_: &Config| 1.0f64);
        let err = Tuner::new().tune(&groups, &mut cf).unwrap_err();
        assert_eq!(err, TuningError::EmptySearchSpace);
    }

    #[test]
    fn all_failures_error() {
        let groups = vec![ParamGroup::new(vec![tp("X", Range::interval(1, 5))])];
        let mut cf = try_cost_fn(|_: &Config| -> Result<f64, CostError> {
            Err(CostError::RunFailed("always".into()))
        });
        let err = Tuner::new().tune(&groups, &mut cf).unwrap_err();
        assert_eq!(err, TuningError::NoValidConfiguration { evaluations: 5 });
    }

    #[test]
    fn partial_failures_tolerated() {
        let groups = vec![ParamGroup::new(vec![tp("X", Range::interval(1, 10))])];
        let mut cf = try_cost_fn(|c: &Config| {
            let x = c.get_u64("X");
            if x.is_multiple_of(2) {
                Err(CostError::InvalidConfiguration("odd only".into()))
            } else {
                Ok(x as f64)
            }
        });
        let r = Tuner::new().tune(&groups, &mut cf).unwrap();
        assert_eq!(r.best_config.get_u64("X"), 1);
        assert_eq!(r.failed_evaluations, 5);
        assert_eq!(r.valid_evaluations, 5);
    }

    #[test]
    fn abort_by_evaluations() {
        let groups = vec![ParamGroup::new(vec![tp("X", Range::interval(1, 1000))])];
        let mut cf = cost_fn(|c: &Config| c.get_u64("X") as f64);
        let r = Tuner::new()
            .technique(RandomSearch::with_seed(1))
            .abort_condition(abort::evaluations(25))
            .tune(&groups, &mut cf)
            .unwrap();
        assert_eq!(r.evaluations, 25);
    }

    #[test]
    fn abort_by_cost() {
        let groups = vec![ParamGroup::new(vec![tp("X", Range::interval(1, 1000))])];
        let mut cf = cost_fn(|c: &Config| c.get_u64("X") as f64);
        let r = Tuner::new()
            .technique(Exhaustive::new())
            .abort_condition(abort::cost(3.0))
            .tune(&groups, &mut cf)
            .unwrap();
        // Exhaustive starts at X=1 → cost 1 ≤ 3 after the first evaluation.
        assert_eq!(r.evaluations, 1);
        assert_eq!(r.best_cost, 1.0);
    }

    #[test]
    fn annealing_on_saxpy_space() {
        let n = 4096;
        let mut cf = cost_fn(|c: &Config| {
            let wpt = c.get_u64("WPT") as f64;
            let ls = c.get_u64("LS") as f64;
            (wpt.log2() - 3.0).abs() + (ls.log2() - 6.0).abs()
        });
        let r = Tuner::new()
            .technique(SimulatedAnnealing::with_seed(3))
            .abort_condition(abort::evaluations(400))
            .tune(&saxpy_groups(n), &mut cf)
            .unwrap();
        assert!(r.best_cost < 2.0, "annealing best {:?}", r.best_cost);
    }

    #[test]
    fn ensemble_on_saxpy_space() {
        let n = 4096;
        let mut cf = cost_fn(|c: &Config| {
            let wpt = c.get_u64("WPT") as f64;
            let ls = c.get_u64("LS") as f64;
            (wpt.log2() - 2.0).abs() + (ls.log2() - 5.0).abs()
        });
        let r = Tuner::new()
            .technique(Ensemble::opentuner_default(9))
            .abort_condition(abort::evaluations(500))
            .tune(&saxpy_groups(n), &mut cf)
            .unwrap();
        assert!(r.best_cost < 2.0, "ensemble best {:?}", r.best_cost);
    }

    #[test]
    fn multi_objective_lexicographic_best() {
        // Two configs tie on runtime; the one with lower energy must win,
        // even though the scalar (primary) projection ties.
        let groups = vec![ParamGroup::new(vec![tp("X", Range::set([1u64, 2, 3]))])];
        let mut cf = cost_fn(|c: &Config| {
            match c.get_u64("X") {
                1 => (1.0f64, 50.0f64),
                2 => (1.0f64, 20.0f64), // same runtime, lower energy
                _ => (2.0f64, 1.0f64),
            }
        });
        let r = Tuner::new()
            .technique(Exhaustive::new())
            .tune(&groups, &mut cf)
            .unwrap();
        assert_eq!(r.best_config.get_u64("X"), 2);
        assert_eq!(r.best_cost, (1.0, 20.0));
    }

    #[test]
    fn history_recording() {
        let groups = vec![ParamGroup::new(vec![tp("X", Range::interval(1, 5))])];
        let mut cf = cost_fn(|c: &Config| c.get_u64("X") as f64);
        let r = Tuner::new()
            .technique(Exhaustive::new())
            .record_history(true)
            .tune(&groups, &mut cf)
            .unwrap();
        assert_eq!(r.history.len(), 5);
        assert_eq!(r.history[0].evaluation, 1);
        assert!(r.history.iter().all(|h| h.valid));
    }

    #[test]
    fn improvements_are_monotone() {
        let groups = vec![ParamGroup::new(vec![tp("X", Range::interval(1, 100))])];
        let mut cf = cost_fn(|c: &Config| 1000.0 / c.get_u64("X") as f64);
        let r = Tuner::new()
            .technique(RandomSearch::with_seed(5))
            .abort_condition(abort::evaluations(200))
            .tune(&groups, &mut cf)
            .unwrap();
        let costs: Vec<f64> = r.improvements.iter().map(|i| i.scalar_cost).collect();
        assert!(costs.windows(2).all(|w| w[1] < w[0]), "{costs:?}");
    }

    #[test]
    fn parallel_generation_equivalent() {
        let g1 = ParamGroup::new(vec![tp("A", Range::interval(1, 8))]);
        let g2 = ParamGroup::new(vec![tp("B", Range::interval(1, 8))]);
        let mut cf = cost_fn(|c: &Config| (c.get_u64("A") * 8 + c.get_u64("B")) as f64);
        let r = Tuner::new()
            .technique(Exhaustive::new())
            .tune_space(&SearchSpace::generate_parallel(&[g1, g2]), &mut cf)
            .unwrap();
        assert_eq!(r.best_config.get_u64("A"), 1);
        assert_eq!(r.best_config.get_u64("B"), 1);
        assert_eq!(r.space_size, 64);
    }
}
