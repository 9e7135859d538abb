//! Fault-tolerance policy for cost evaluations: per-evaluation deadlines,
//! bounded retries with exponential backoff + jitter, and a
//! consecutive-failure circuit breaker.
//!
//! The paper's generic cost function runs *arbitrary* user programs
//! (Section II, Step 2) — exactly where real tuning runs hang, crash, or
//! flake. [`EvalPolicy`] is the one knob bundle for surviving that:
//!
//! * the **timeout** is enforced by [`crate::process::ProcessCostFunction`]
//!   (spawn + wait-with-deadline + hard kill);
//! * **retries** are applied by [`RetryCostFunction`], which re-evaluates a
//!   configuration after a [`FailureKind::Transient`] failure, sleeping an
//!   exponentially growing, jittered backoff between attempts;
//! * the **circuit breaker** lives in
//!   [`crate::session::TuningSession`]: too many consecutive failures abort
//!   the run with a structured
//!   [`TuningError::CircuitBroken`](crate::tuner::TuningError) instead of
//!   burning the remaining budget on a broken device.

use crate::config::Config;
use crate::cost::{CostError, CostFunction, CostValue};
use crate::metrics::MetricsRegistry;
use crate::trace::{TraceEvent, TraceSink};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Duration;

/// How evaluations are guarded against hangs, flakes, and dead devices.
#[derive(Clone, Debug)]
pub struct EvalPolicy {
    /// Wall-clock deadline per evaluation attempt; the process cost
    /// function kills the child when exceeded (`None` = no deadline).
    pub timeout: Option<Duration>,
    /// Extra attempts after a transient failure (0 = no retries).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub backoff_base: Duration,
    /// Multiplier per further retry.
    pub backoff_factor: f64,
    /// Upper bound on any single backoff sleep.
    pub backoff_max: Duration,
    /// Trip the circuit breaker after this many *consecutive* failed
    /// evaluations (`None` = never).
    pub max_consecutive_failures: Option<u32>,
}

impl Default for EvalPolicy {
    fn default() -> Self {
        EvalPolicy {
            timeout: None,
            max_retries: 0,
            backoff_base: Duration::from_millis(100),
            backoff_factor: 2.0,
            backoff_max: Duration::from_secs(5),
            max_consecutive_failures: None,
        }
    }
}

impl EvalPolicy {
    /// Builder: sets the per-evaluation timeout.
    pub fn timeout(mut self, t: Duration) -> Self {
        self.timeout = Some(t);
        self
    }

    /// Builder: sets the retry budget for transient failures.
    pub fn retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Builder: sets the circuit-breaker threshold.
    pub fn circuit_breaker(mut self, consecutive_failures: u32) -> Self {
        self.max_consecutive_failures = Some(consecutive_failures);
        self
    }

    /// The backoff before retry attempt `attempt` (0-based), jittered by
    /// ±25 % from `rng` so a fleet of tuners does not retry in lockstep.
    pub fn backoff_delay<R: Rng + ?Sized>(&self, attempt: u32, rng: &mut R) -> Duration {
        let exp = self.backoff_factor.powi(attempt.min(24) as i32);
        let raw = self.backoff_base.as_secs_f64() * exp;
        let capped = raw.min(self.backoff_max.as_secs_f64());
        let jitter = rng.gen_range(0.75..1.25);
        Duration::from_secs_f64(capped * jitter)
    }
}

/// Wraps any cost function with the policy's retry loop: transient
/// failures are retried (with backoff) up to the budget; every other
/// failure kind passes straight through — a compile error will not fix
/// itself on attempt three.
pub struct RetryCostFunction<F> {
    inner: F,
    policy: EvalPolicy,
    rng: ChaCha8Rng,
    /// Sleeper, swappable so tests don't actually block.
    sleep: fn(Duration),
    retries_performed: u64,
    /// Emits a `retry` trace event per backoff, when attached.
    trace: Option<Arc<dyn TraceSink>>,
    /// Counts retries in the run's registry, when attached.
    metrics: Option<Arc<MetricsRegistry>>,
}

impl<F: CostFunction> RetryCostFunction<F> {
    /// Wraps `inner` under `policy` with a deterministic jitter seed.
    pub fn new(inner: F, policy: EvalPolicy, seed: u64) -> Self {
        RetryCostFunction {
            inner,
            policy,
            rng: ChaCha8Rng::seed_from_u64(seed),
            sleep: std::thread::sleep,
            retries_performed: 0,
            trace: None,
            metrics: None,
        }
    }

    /// Attaches a trace sink and metrics registry (builder-style): every
    /// backoff-and-retry is emitted as a `retry` event and counted.
    pub fn with_observability(
        mut self,
        trace: Arc<dyn TraceSink>,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        self.trace = Some(trace);
        self.metrics = Some(metrics);
        self
    }

    /// Total retry attempts performed so far (diagnostics).
    pub fn retries_performed(&self) -> u64 {
        self.retries_performed
    }

    /// The wrapped cost function.
    pub fn into_inner(self) -> F {
        self.inner
    }

    #[cfg(test)]
    pub(crate) fn without_sleep(mut self) -> Self {
        self.sleep = |_| {};
        self
    }
}

impl<F: CostFunction> CostFunction for RetryCostFunction<F> {
    type Cost = F::Cost;

    fn evaluate(&mut self, config: &Config) -> Result<F::Cost, CostError> {
        let mut attempt = 0u32;
        loop {
            match self.inner.evaluate(config) {
                Ok(cost) => return Ok(cost),
                Err(e) if e.kind().is_retryable() && attempt < self.policy.max_retries => {
                    let delay = self.policy.backoff_delay(attempt, &mut self.rng);
                    if let Some(trace) = &self.trace {
                        trace.emit(&TraceEvent::retry(
                            attempt + 1,
                            delay.as_millis() as u64,
                            e.kind().label(),
                        ));
                    }
                    if let Some(metrics) = &self.metrics {
                        metrics.retries.inc();
                    }
                    (self.sleep)(delay);
                    attempt += 1;
                    self.retries_performed += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Wraps a cost function in the policy's retry loop — retries emitted to
/// `trace` and counted in `metrics` — when the policy actually retries, and
/// returns it untouched otherwise (the wrapper would be pass-through
/// anyway). The box is `Send` so it can be handed to a worker of
/// [`crate::parallel::drive_session`].
pub fn with_policy<C: CostValue, F: CostFunction<Cost = C> + Send + 'static>(
    inner: F,
    policy: &EvalPolicy,
    seed: u64,
    trace: Arc<dyn TraceSink>,
    metrics: Arc<MetricsRegistry>,
) -> Box<dyn CostFunction<Cost = C> + Send> {
    if policy.max_retries == 0 {
        Box::new(inner)
    } else {
        Box::new(
            RetryCostFunction::new(inner, policy.clone(), seed).with_observability(trace, metrics),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::try_cost_fn;

    #[test]
    fn defaults_are_conservative() {
        let p = EvalPolicy::default();
        assert_eq!(p.timeout, None);
        assert_eq!(p.max_retries, 0);
        assert_eq!(p.max_consecutive_failures, None);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = EvalPolicy {
            backoff_base: Duration::from_millis(100),
            backoff_factor: 2.0,
            backoff_max: Duration::from_millis(500),
            ..Default::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let d0 = p.backoff_delay(0, &mut rng);
        let d3 = p.backoff_delay(3, &mut rng);
        // Base 100ms, jitter ±25%.
        assert!(d0 >= Duration::from_millis(75) && d0 <= Duration::from_millis(125));
        // 100ms * 2^3 = 800ms capped at 500ms, jittered.
        assert!(d3 >= Duration::from_millis(375) && d3 <= Duration::from_millis(625));
    }

    #[test]
    fn transient_failures_are_retried_within_budget() {
        let mut calls = 0u32;
        let cf = try_cost_fn(move |_c: &Config| {
            calls += 1;
            if calls < 3 {
                Err(CostError::Transient("flaky".into()))
            } else {
                Ok(7.0f64)
            }
        });
        let mut retrying =
            RetryCostFunction::new(cf, EvalPolicy::default().retries(5), 42).without_sleep();
        let cost = retrying.evaluate(&Config::new()).unwrap();
        assert_eq!(cost, 7.0);
        assert_eq!(retrying.retries_performed(), 2);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let cf = try_cost_fn(|_c: &Config| -> Result<f64, CostError> {
            Err(CostError::Transient("always".into()))
        });
        let mut retrying =
            RetryCostFunction::new(cf, EvalPolicy::default().retries(2), 42).without_sleep();
        let err = retrying.evaluate(&Config::new()).unwrap_err();
        assert!(matches!(err, CostError::Transient(_)));
        assert_eq!(retrying.retries_performed(), 2);
    }

    #[test]
    fn retries_are_traced_and_counted() {
        use crate::metrics::MetricsRegistry;
        use crate::trace::MemorySink;
        let mut calls = 0u32;
        let cf = try_cost_fn(move |_c: &Config| {
            calls += 1;
            if calls < 3 {
                Err(CostError::Transient("flaky".into()))
            } else {
                Ok(1.0f64)
            }
        });
        let sink = Arc::new(MemorySink::new());
        let metrics = Arc::new(MetricsRegistry::new());
        let mut retrying = RetryCostFunction::new(cf, EvalPolicy::default().retries(5), 42)
            .with_observability(sink.clone(), metrics.clone())
            .without_sleep();
        retrying.evaluate(&Config::new()).unwrap();
        let events = sink.take();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.event == "retry"));
        assert_eq!(events[0].attempt, Some(1));
        assert_eq!(events[1].attempt, Some(2));
        assert_eq!(events[0].failure.as_deref(), Some("transient"));
        assert_eq!(metrics.snapshot().retries, 2);
    }

    #[test]
    fn non_transient_failures_pass_straight_through() {
        let mut calls = 0u32;
        let cf = try_cost_fn(move |_c: &Config| -> Result<f64, CostError> {
            calls += 1;
            assert_eq!(calls, 1, "compile errors must not be retried");
            Err(CostError::CompileFailed("syntax".into()))
        });
        let mut retrying =
            RetryCostFunction::new(cf, EvalPolicy::default().retries(5), 42).without_sleep();
        assert!(matches!(
            retrying.evaluate(&Config::new()),
            Err(CostError::CompileFailed(_))
        ));
    }
}
