//! A resumable tuning session: the exploration loop of [`crate::tuner`]
//! turned inside out, so the *cost measurement* can happen anywhere — in
//! another process, on another machine, or interleaved with other sessions.
//!
//! The paper's exploration loop (Section IV) is a pull/push cycle:
//! `get_next_config` hands a configuration to the measuring side,
//! `report_cost` feeds the measured cost back. [`TuningSession`] is that
//! cycle as a state machine, generalized to a bounded *window* of
//! simultaneously outstanding configurations: [`next_ticket`] hands out
//! `(ticket, config)` pairs and [`report_ticket`] accepts their outcomes in
//! any order. The serial form stays a thin special case (window 1):
//!
//! ```text
//! loop {
//!     let Some(config) = session.next_config() else { break };
//!     let cost = measure(config);            // anywhere, any time later
//!     session.report(cost)?;
//! }
//! let result = session.finish()?;
//! ```
//!
//! # Tickets and determinism
//!
//! Every handout carries a monotonically increasing [`Ticket`]. Reports may
//! arrive out of ticket order (several workers, several TCP clients); the
//! session journals them at arrival but buffers their *application* — the
//! search technique, status, best-so-far, and circuit breaker advance
//! strictly in ticket order. Combined with the per-technique
//! [`can_propose`](crate::search::SearchTechnique::can_propose) gate, the
//! entire search state is a pure function of the window size and the report
//! *values*, never of their arrival timing — which keeps seeded parallel
//! runs reproducible and journals replayable.
//!
//! A ticket is spent when handed out: asking again hands out a *new*
//! configuration under a new ticket (the old one stays pending). A
//! disconnected client therefore doesn't re-request its work item — the
//! serving side re-sends the recorded `(ticket, config)` pair, or forfeits
//! the ticket by reporting a failure on it.
//!
//! [`next_ticket`]: TuningSession::next_ticket
//! [`report_ticket`]: TuningSession::report_ticket

use crate::abort::{self, Abort, AbortCondition};
use crate::config::Config;
use crate::cost::{CostError, CostValue, FailureKind, JournalCost};
use crate::journal::{JournalEntry, JournalHeader, JournalWriter, LoadedJournal, JOURNAL_VERSION};
use crate::metrics::MetricsRegistry;
use crate::policy::EvalPolicy;
use crate::search::{Point, SearchTechnique, SpaceDims, PENALTY_COST};
use crate::space::SearchSpace;
use crate::status::TuningStatus;
use crate::trace::{NullSink, TraceEvent, TraceSink};
use crate::tuner::{EvalRecord, TuningError, TuningResult};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifier of one handed-out configuration. Tickets are handed out as
/// 1, 2, 3, … — the ticket of the `n`-th handout is `n`.
pub type Ticket = u64;

/// Result of asking the session for another configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum Handout {
    /// A configuration to measure, identified by its ticket.
    Next(Ticket, Config),
    /// Nothing to hand out *right now*: the window is full or the technique
    /// needs outstanding reports before proposing again. Report a pending
    /// ticket, then ask again.
    Wait,
    /// Exploration is over (abort condition fired or technique exhausted);
    /// no further configuration will ever be handed out.
    Done,
}

/// One handed-out configuration awaiting application of its report.
struct PendingEval {
    ticket: Ticket,
    point: Point,
    config: Config,
    /// When the ticket was handed out; the handout-to-report latency of
    /// the `eval` trace event and the latency histogram.
    handed_at: Instant,
}

/// A reported outcome buffered until its in-ticket-order application,
/// together with the telemetry captured at arrival.
struct BufferedReport<C> {
    outcome: Result<C, CostError>,
    /// Run clock when the report arrived (journal stamp during replay) —
    /// the elapsed time an improvement from this report is recorded at.
    elapsed: Duration,
    /// Handout-to-report latency (`None` for replayed entries, whose
    /// original latency was not journaled).
    latency: Option<Duration>,
}

/// An attached run journal: the writer plus the cost encoder captured when
/// the journal was attached (which is the only place the `C: JournalCost`
/// bound is available).
struct JournalState<C> {
    writer: JournalWriter,
    encode: fn(&C) -> Vec<f64>,
}

/// The resumable exploration state machine. Generic over the cost value
/// type `C` (plain `f64` for out-of-process measurement, tuples or
/// [`crate::process::LexCosts`] for multi-objective in-process tuning).
pub struct TuningSession<C: CostValue = f64> {
    space: SearchSpace,
    technique: Box<dyn SearchTechnique>,
    abort: Abort,
    status: TuningStatus,
    best: Option<(Config, C)>,
    best_scalar: f64,
    record_history: bool,
    history: Vec<EvalRecord>,
    /// Handed-out configurations whose reports have not been *applied* yet,
    /// in ticket order (front = next to apply). A ticket stays here from
    /// handout until its report is applied; its reported outcome waits in
    /// `buffered` in between.
    pending: VecDeque<PendingEval>,
    /// Reported outcomes awaiting in-ticket-order application.
    buffered: BTreeMap<Ticket, BufferedReport<C>>,
    /// The ticket the next handout will carry.
    next_ticket_id: Ticket,
    /// Maximum number of simultaneously pending configurations (window).
    max_pending: usize,
    /// Reports that have arrived (1-based journal numbering, arrival order).
    arrivals: u64,
    /// Set once the technique is exhausted or the abort condition fired;
    /// `next_ticket` returns [`Handout::Done`] from then on.
    done: bool,
    /// Circuit breaker: abort after this many consecutive failures.
    max_consecutive_failures: Option<u32>,
    /// The failure kind that tripped the circuit breaker, once tripped.
    broken: Option<FailureKind>,
    /// Write-ahead journal of evaluation outcomes, when attached.
    journal: Option<JournalState<C>>,
    /// When `true`, a journal write failure fails the report (the pre-v4
    /// behaviour); when `false` (default) the session degrades to
    /// in-memory-only and keeps tuning.
    strict_journal: bool,
    /// Why the journal was dropped mid-run, once degraded.
    journal_degraded: Option<String>,
    /// Compact the journal into its checkpoint every this many entries.
    checkpoint_every: Option<usize>,
    /// Suppresses journal writes while replaying a journal into the
    /// session (the entries are already on disk).
    replaying: bool,
    /// The journal-recorded elapsed time of the entry currently being
    /// replayed, consumed by [`report_ticket`](Self::report_ticket) so
    /// replayed reports carry their original arrival stamps.
    replay_elapsed: Option<Duration>,
    /// Structured event stream ([`NullSink`] unless attached).
    trace: Arc<dyn TraceSink>,
    /// Lock-free run metrics, shareable with drivers and the service.
    metrics: Arc<MetricsRegistry>,
}

impl<C: CostValue> TuningSession<C> {
    /// Opens a session over `space` driven by `technique`, with the paper's
    /// default abort condition `evaluations(S)` and a pending window of 1
    /// (strictly serial handouts).
    ///
    /// Fails with [`TuningError::EmptySearchSpace`] when the space holds no
    /// valid configuration.
    pub fn new(
        space: SearchSpace,
        mut technique: Box<dyn SearchTechnique>,
    ) -> Result<Self, TuningError> {
        if space.is_empty() {
            return Err(TuningError::EmptySearchSpace);
        }
        technique.initialize(SpaceDims::new(space.dims()));
        let default_abort = abort::evaluations(u64::try_from(space.len()).unwrap_or(u64::MAX));
        let status = TuningStatus::new(space.len());
        let metrics = Arc::new(MetricsRegistry::new());
        metrics.set_window_capacity(1);
        Ok(TuningSession {
            space,
            technique,
            abort: default_abort,
            status,
            best: None,
            best_scalar: f64::INFINITY,
            record_history: false,
            history: Vec::new(),
            pending: VecDeque::new(),
            buffered: BTreeMap::new(),
            next_ticket_id: 1,
            max_pending: 1,
            arrivals: 0,
            done: false,
            max_consecutive_failures: None,
            broken: None,
            journal: None,
            strict_journal: false,
            journal_degraded: None,
            checkpoint_every: None,
            replaying: false,
            replay_elapsed: None,
            trace: Arc::new(NullSink),
            metrics,
        })
    }

    /// Replaces the abort condition (builder-style, before driving).
    pub fn abort_condition(mut self, a: Abort) -> Self {
        self.abort = a;
        self
    }

    /// Sets the maximum number of simultaneously pending configurations
    /// (builder-style; clamped to ≥ 1). With `k > 1` the session hands out
    /// up to `k` tickets before requiring a report — the enabling half of
    /// parallel evaluation.
    pub fn max_pending(mut self, k: usize) -> Self {
        self.max_pending = k.max(1);
        self.metrics.set_window_capacity(self.max_pending);
        self
    }

    /// Attaches a structured trace sink (builder-style): every handout,
    /// report arrival, eval latency, breaker trip, and the final abort are
    /// emitted as [`TraceEvent`]s. Replayed journal entries are *not*
    /// re-emitted.
    pub fn trace_to(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = sink;
        self
    }

    /// The session's trace sink (the no-op [`NullSink`] unless attached).
    pub fn trace_sink(&self) -> Arc<dyn TraceSink> {
        Arc::clone(&self.trace)
    }

    /// The session's metrics registry. Always present; clone the `Arc` to
    /// read a [`crate::metrics::MetricsSnapshot`] from another thread.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The session's pending window (maximum simultaneously outstanding
    /// configurations).
    pub fn window(&self) -> usize {
        self.max_pending
    }

    /// Enables per-evaluation history recording (builder-style).
    pub fn record_history(mut self, on: bool) -> Self {
        self.record_history = on;
        self
    }

    /// Arms the circuit breaker (builder-style): after `consecutive_failures`
    /// failed evaluations in a row the session stops handing out
    /// configurations and [`finish`](Self::finish) returns
    /// [`TuningError::CircuitBroken`]. Failures are counted in ticket order
    /// across all workers, so the breaker behaves identically under
    /// parallel evaluation.
    pub fn circuit_breaker(mut self, consecutive_failures: u32) -> Self {
        self.max_consecutive_failures = Some(consecutive_failures.max(1));
        self
    }

    /// Applies the session-relevant parts of an [`EvalPolicy`]
    /// (builder-style): currently the circuit-breaker threshold. The
    /// timeout and retries of the policy act on the cost-function side
    /// ([`crate::process::ProcessCostFunction`] and
    /// [`crate::policy::RetryCostFunction`]).
    pub fn eval_policy(mut self, policy: &EvalPolicy) -> Self {
        self.max_consecutive_failures = policy.max_consecutive_failures;
        self
    }

    /// Asks for the next configuration to measure.
    ///
    /// Returns [`Handout::Next`] with a fresh ticket while the window has
    /// room and the technique can propose; [`Handout::Wait`] when a report
    /// on an earlier ticket must land first; [`Handout::Done`] once
    /// exploration is over.
    pub fn next_ticket(&mut self) -> Handout {
        loop {
            if self.done {
                // No further proposals can happen: applying every
                // contiguous buffered report now is safe and keeps
                // status()/best() fresh for finish().
                self.drain_ready();
                return Handout::Done;
            }
            // Project in-flight handouts as already-spent evaluations, so a
            // budget abort admits exactly its budget of tickets. At the ask
            // for ticket t the projection is t-1, making the check
            // independent of report arrival timing.
            let projected = self.status.projecting(self.pending.len() as u64);
            if self.abort.should_stop(&projected) {
                self.done = true;
                self.emit_abort(&self.abort.describe());
                continue;
            }
            let outstanding = self.pending.len();
            if outstanding < self.max_pending && self.technique.can_propose(outstanding) {
                let Some(point) = self.technique.get_next_point() else {
                    self.done = true; // technique exhausted
                    self.emit_abort("technique exhausted");
                    continue;
                };
                let config = self.space.get_by_coords(&point);
                let ticket = self.next_ticket_id;
                self.next_ticket_id += 1;
                if !self.replaying {
                    self.trace.emit(&TraceEvent::handout(ticket, point.clone()));
                }
                self.pending.push_back(PendingEval {
                    ticket,
                    point,
                    config: config.clone(),
                    handed_at: Instant::now(),
                });
                self.metrics.set_window_occupancy(self.pending.len());
                return Handout::Next(ticket, config);
            }
            // Can't propose: apply one buffered report (in ticket order) if
            // available and retry, otherwise the caller must wait.
            if self.front_ready() {
                self.apply_front();
                continue;
            }
            return Handout::Wait;
        }
    }

    /// Hands out up to `k` configurations at once (stops early at
    /// [`Handout::Wait`]/[`Handout::Done`]). May return fewer than `k` —
    /// or none — when the window or the technique limits the batch.
    pub fn next_config_batch(&mut self, k: usize) -> Vec<(Ticket, Config)> {
        let mut out = Vec::new();
        for _ in 0..k {
            match self.next_ticket() {
                Handout::Next(t, c) => out.push((t, c)),
                Handout::Wait | Handout::Done => break,
            }
        }
        out
    }

    /// The next configuration to measure, or `None` when no handout is
    /// available (window full, technique waiting, or exploration over).
    ///
    /// Serial convenience over [`next_ticket`](Self::next_ticket): each call
    /// hands out a *new* ticket. With the default window of 1 this is the
    /// classic strict alternation with [`report`](Self::report).
    pub fn next_config(&mut self) -> Option<Config> {
        match self.next_ticket() {
            Handout::Next(_, config) => Some(config),
            Handout::Wait | Handout::Done => None,
        }
    }

    /// Reports the measured outcome of ticket `t`.
    ///
    /// Accepts reports in any order; each is journaled at arrival and
    /// applied to the search state in ticket order. Fails with
    /// [`TuningError::UnknownTicket`] when `t` was never handed out, was
    /// already reported, or was already applied.
    pub fn report_ticket(
        &mut self,
        ticket: Ticket,
        outcome: Result<C, CostError>,
    ) -> Result<(), TuningError> {
        let Some(pe) = self.pending.iter().find(|p| p.ticket == ticket) else {
            return Err(TuningError::UnknownTicket { ticket });
        };
        if self.buffered.contains_key(&ticket) {
            return Err(TuningError::UnknownTicket { ticket });
        }
        let point = pe.point.clone();
        // Handout-to-report latency; unknown for replayed entries (the
        // original latency was not journaled).
        let latency = (!self.replaying).then(|| pe.handed_at.elapsed());
        self.arrivals += 1;
        // The report's arrival stamp on the run clock. Replay restores the
        // journaled stamp; live reports truncate to the journal's
        // millisecond precision so a replayed run reconstructs *identical*
        // improvement timestamps.
        let elapsed = match self.replay_elapsed.take() {
            Some(e) if self.replaying => e,
            _ => Duration::from_millis(self.status.elapsed().as_millis() as u64),
        };
        let failure_label = outcome.as_ref().err().map(|e| e.kind().label().to_string());
        // Write-ahead at *arrival*: the outcome reaches the journal before
        // any session state advances, so a crash never loses an applied
        // evaluation. Entries are in arrival order; `ticket` identifies the
        // handout for replay.
        if !self.replaying {
            let mut degraded: Option<String> = None;
            if let Some(journal) = &mut self.journal {
                let entry = JournalEntry {
                    evaluation: self.arrivals,
                    ticket: Some(ticket),
                    point,
                    costs: outcome.as_ref().ok().map(|c| (journal.encode)(c)),
                    failure: failure_label.clone(),
                    elapsed_ms: Some(elapsed.as_millis() as u64),
                };
                if let Err(e) = journal.writer.append(&entry) {
                    if self.strict_journal {
                        return Err(TuningError::Journal(e.to_string()));
                    }
                    degraded = Some(e.to_string());
                }
            }
            if let Some(message) = degraded {
                // Degrade, don't die: the journal is gone (full disk, I/O
                // error) but the in-memory run is intact — drop the writer,
                // warn through trace + metrics, and keep tuning. The run
                // merely loses crash-resumability from here on.
                self.journal = None;
                self.metrics.journal_errors.inc();
                self.trace.emit(&TraceEvent::journal_degraded(&message));
                self.journal_degraded = Some(message);
            }
            self.trace.emit(&TraceEvent::report(
                ticket,
                self.arrivals,
                failure_label.as_deref(),
            ));
            if let Some(latency) = latency {
                self.trace.emit(&TraceEvent::eval(
                    ticket,
                    u64::try_from(latency.as_micros()).unwrap_or(u64::MAX),
                    failure_label.as_deref(),
                ));
            }
        }
        self.buffered.insert(
            ticket,
            BufferedReport {
                outcome,
                elapsed,
                latency,
            },
        );
        if self.done {
            self.drain_ready();
        } else {
            // Bounded eager application: catch up while at least a full
            // window is outstanding. This keeps `status()` fresh after
            // every serial report (window 1 applies immediately) without
            // making the technique's view depend on arrival timing — the
            // stopping point is a function of handout/apply counts only.
            while self.pending.len() >= self.max_pending && self.front_ready() {
                self.apply_front();
            }
        }
        Ok(())
    }

    /// Reports the measured cost (or measurement failure) of the *oldest
    /// unreported* ticket — the serial convenience over
    /// [`report_ticket`](Self::report_ticket).
    ///
    /// Fails with [`TuningError::NoPendingConfiguration`] when no
    /// configuration is awaiting a report.
    pub fn report(&mut self, outcome: Result<C, CostError>) -> Result<(), TuningError> {
        let ticket = self
            .oldest_in_flight()
            .ok_or(TuningError::NoPendingConfiguration)?;
        self.report_ticket(ticket, outcome)
    }

    /// Convenience for scalar reporting: `Some(cost)` for a successful
    /// measurement, `None` for a failed one.
    pub fn report_cost(&mut self, cost: Option<C>) -> Result<(), TuningError> {
        self.report(cost.ok_or(CostError::RunFailed("measurement failed".into())))
    }

    /// `true` when the front pending ticket's report has arrived.
    fn front_ready(&self) -> bool {
        self.pending
            .front()
            .is_some_and(|pe| self.buffered.contains_key(&pe.ticket))
    }

    /// Applies every contiguous buffered report (used once `done`: with no
    /// future proposals possible, application order constraints are moot).
    fn drain_ready(&mut self) {
        while self.front_ready() {
            self.apply_front();
        }
    }

    /// Applies the front pending ticket's buffered report to the technique,
    /// status, best-so-far, history, and circuit breaker.
    fn apply_front(&mut self) {
        let pe = self.pending.pop_front().expect("front pending");
        let report = self.buffered.remove(&pe.ticket).expect("front buffered");
        let BufferedReport {
            outcome,
            elapsed,
            latency,
        } = report;
        let valid = outcome.is_ok();
        let failure = outcome.as_ref().err().map(|e| e.kind());
        self.status.record_evaluation(valid);
        if let Some(kind) = failure {
            self.status.record_failure_kind(kind);
        }
        self.metrics.record_eval(latency, failure);
        self.metrics.set_window_occupancy(self.pending.len());
        let scalar = match &outcome {
            Ok(c) => c.as_scalar(),
            Err(_) => PENALTY_COST,
        };
        if self.record_history {
            self.history.push(EvalRecord {
                evaluation: self.status.evaluations(),
                point: pe.point,
                scalar_cost: scalar,
                valid,
                failure,
            });
        }
        if let Ok(c) = outcome {
            let improves = match &self.best {
                None => true,
                // Full multi-objective comparison for best-so-far.
                Some((_, bc)) => c.partial_cmp(bc).is_some_and(|o| o.is_lt()),
            };
            if improves {
                self.best = Some((pe.config, c));
                if scalar < self.best_scalar {
                    self.best_scalar = scalar;
                    // Stamped with the report's *arrival* time (which the
                    // journal preserves), not the application time — so a
                    // kill+resume reconstructs the same improvement
                    // timeline the uninterrupted run recorded.
                    self.status.record_improvement_at(scalar, elapsed);
                }
            }
        }
        self.technique.report_cost(scalar);
        if let (Some(limit), Some(kind)) = (self.max_consecutive_failures, failure) {
            if self.status.consecutive_failures() >= u64::from(limit.max(1)) {
                self.done = true;
                self.broken = Some(kind);
                self.metrics.breaker_trips.inc();
                if !self.replaying {
                    self.trace.emit(&TraceEvent::breaker(
                        self.status.consecutive_failures(),
                        kind.label(),
                    ));
                }
            }
        }
    }

    /// Emits the `abort` trace event (suppressed during replay — the
    /// resumed run's own stop will emit its own).
    fn emit_abort(&self, condition: &str) {
        if !self.replaying {
            self.trace.emit(&TraceEvent::abort(
                condition,
                self.status.evaluations(),
                self.status.elapsed().as_millis() as u64,
            ));
        }
    }

    /// `true` once exploration is over: no further handout will happen and
    /// no ticket is pending.
    pub fn is_done(&self) -> bool {
        self.done && self.pending.is_empty()
    }

    /// `true` while at least one handed-out configuration awaits its
    /// report's application.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Tickets handed out so far.
    pub fn tickets_issued(&self) -> u64 {
        self.next_ticket_id - 1
    }

    /// Tickets handed out whose reports have not been applied yet
    /// (reported-but-buffered tickets count as in flight).
    pub fn tickets_in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Tickets whose reports arrived but have not been applied yet.
    pub fn tickets_buffered(&self) -> usize {
        self.buffered.len()
    }

    /// Tickets handed out but not yet reported, oldest first. After a
    /// resume these can be nonempty before any new handout: the journal
    /// prefix proves the dead process held them, but their reports never
    /// arrived — whoever drives the session must evaluate them.
    pub fn unreported_tickets(&self) -> impl Iterator<Item = Ticket> + '_ {
        self.pending
            .iter()
            .map(|p| p.ticket)
            .filter(|t| !self.buffered.contains_key(t))
    }

    /// The oldest ticket that has not been reported yet, if any — the
    /// ticket the serial [`report`](Self::report) would target.
    pub fn oldest_in_flight(&self) -> Option<Ticket> {
        self.unreported_tickets().next()
    }

    /// The configuration of pending ticket `t`, if it is still pending.
    pub fn pending_config_for(&self, ticket: Ticket) -> Option<&Config> {
        self.pending
            .iter()
            .find(|p| p.ticket == ticket)
            .map(|p| &p.config)
    }

    /// Live progress bookkeeping (evaluations, improvements, elapsed).
    /// Counts *applied* reports; reported-but-buffered tickets are not yet
    /// included.
    pub fn status(&self) -> &TuningStatus {
        &self.status
    }

    /// The search space being explored.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// Best configuration found so far, with its cost.
    pub fn best(&self) -> Option<(&Config, &C)> {
        self.best.as_ref().map(|(cfg, c)| (cfg, c))
    }

    /// Best scalar cost found so far (`None` before the first valid
    /// measurement).
    pub fn best_scalar_cost(&self) -> Option<f64> {
        self.best.as_ref().map(|_| self.best_scalar)
    }

    /// The failure kind that tripped the circuit breaker, once tripped.
    pub fn circuit_broken(&self) -> Option<FailureKind> {
        self.broken
    }

    /// The header a journal of this session carries.
    pub fn journal_header(&self) -> JournalHeader {
        JournalHeader {
            version: JOURNAL_VERSION,
            technique: self.technique.name().to_string(),
            space_size: self.space.len().to_string(),
            window: self.max_pending,
        }
    }

    /// Attaches a fresh write-ahead journal at `path` (builder-style):
    /// every reported outcome is appended before the session state
    /// advances, so the run can be resumed after a crash with
    /// [`resume_from_journal`](Self::resume_from_journal).
    pub fn journal_to(mut self, path: impl AsRef<Path>) -> Result<Self, TuningError>
    where
        C: JournalCost,
    {
        let header = self.journal_header();
        let mut writer = JournalWriter::create(path.as_ref(), &header)
            .map_err(|e| TuningError::Journal(e.to_string()))?;
        writer.set_checkpoint_every(self.checkpoint_every);
        self.journal = Some(JournalState {
            writer,
            encode: C::to_journal,
        });
        Ok(self)
    }

    /// Makes journal write failures fatal again (builder-style): a failed
    /// append fails the report with [`TuningError::Journal`] instead of
    /// degrading to in-memory-only tuning. The CLI's `--strict-journal`.
    pub fn strict_journal(mut self, strict: bool) -> Self {
        self.strict_journal = strict;
        self
    }

    /// Enables journal checkpoint compaction every `every` entries
    /// (builder-style): the journal is periodically folded into an
    /// atomically-replaced checkpoint file. This bounds the live tail
    /// file only — the checkpoint keeps every entry, so a resume still
    /// replays the whole history and each compaction rewrites it.
    /// Applies to a journal attached before or after this call.
    pub fn journal_checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = Some(every).filter(|n| *n > 0);
        if let Some(journal) = &mut self.journal {
            journal.writer.set_checkpoint_every(self.checkpoint_every);
        }
        self
    }

    /// Why journaling degraded mid-run, if it did: the session dropped its
    /// journal after a write failure and continued in-memory.
    pub fn journal_degraded(&self) -> Option<&str> {
        self.journal_degraded.as_deref()
    }

    /// Fsyncs the journal right now, so every entry written so far is
    /// durable. Used by the service's graceful drain so every in-flight
    /// session lands as a resumable journal before the process exits.
    /// Returns `true` when a journal was attached and synced, `false` when
    /// the session has none.
    pub fn sync_journal(&mut self) -> Result<bool, TuningError> {
        match &mut self.journal {
            Some(journal) => {
                journal
                    .writer
                    .sync()
                    .map_err(|e| TuningError::Journal(e.to_string()))?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Chaos hook: makes the next `n` journal appends fail as if the disk
    /// were full, exercising the degrade-don't-die (or, under
    /// [`strict_journal`](Self::strict_journal), fail-fast) path. No-op
    /// without an attached journal.
    pub fn inject_journal_failures(&mut self, n: u64) {
        if let Some(journal) = &mut self.journal {
            journal.writer.fail_next_appends(n);
        }
    }

    /// Replays journal `entries` into this freshly opened session: tickets
    /// are handed out in order until each entry's ticket is issued, the
    /// issued point must match the entry (same spec, technique, seed, and
    /// window), and the recorded outcome is reported back under its ticket.
    /// Entries may be in any arrival order — every report that influenced a
    /// handout appears earlier in the journal than that handout's entry, so
    /// in-order replay always has what it needs. Returns the number of
    /// entries replayed.
    ///
    /// Nothing is written to the attached journal during replay.
    pub fn resume_from(&mut self, entries: &[JournalEntry]) -> Result<u64, TuningError>
    where
        C: JournalCost,
    {
        self.replaying = true;
        let result = self.replay_entries(entries);
        self.replaying = false;
        self.replay_elapsed = None;
        // Restore the run clock: the resumed run continues from the last
        // journaled arrival stamp, so time-based abort conditions fire at
        // the same *total* wall-clock budget as an uninterrupted run.
        // Raised only after replay — time cannot end exploration
        // mid-replay, exactly as it could not retroactively unwrite the
        // original run's journal entries.
        if let Some(ms) = entries.iter().filter_map(|e| e.elapsed_ms).max() {
            self.status.raise_elapsed_offset(Duration::from_millis(ms));
        }
        result
    }

    fn replay_entries(&mut self, entries: &[JournalEntry]) -> Result<u64, TuningError>
    where
        C: JournalCost,
    {
        let mut replayed = 0u64;
        'entries: for entry in entries {
            let ticket = entry.ticket.ok_or_else(|| {
                TuningError::Journal(format!("entry {} carries no ticket", entry.evaluation))
            })?;
            // Hand out tickets until the entry's ticket has been issued.
            while self.next_ticket_id <= ticket {
                match self.next_ticket() {
                    Handout::Next(..) => {}
                    // Abort condition or circuit breaker reproduced
                    // mid-replay: the journal's tail was written past the
                    // stopping point of an equivalent run, which cannot
                    // happen for our own journals — stop where the session
                    // stops.
                    Handout::Done => break 'entries,
                    // The session refuses to issue the ticket within its
                    // window: the journal was written with a different
                    // (larger) window.
                    Handout::Wait => {
                        return Err(TuningError::Journal(format!(
                            "journal entry {} reports ticket {ticket}, which does not fit \
                             the session's pending window of {}",
                            entry.evaluation, self.max_pending
                        )));
                    }
                }
            }
            let Some(pe) = self.pending.iter().find(|p| p.ticket == ticket) else {
                return Err(TuningError::JournalDiverged {
                    evaluation: entry.evaluation,
                });
            };
            if pe.point != entry.point {
                return Err(TuningError::JournalDiverged {
                    evaluation: entry.evaluation,
                });
            }
            self.replay_elapsed = entry.elapsed_ms.map(Duration::from_millis);
            let outcome = match (&entry.costs, entry.failure_kind()) {
                (Some(values), None) => Ok(C::from_journal(values).ok_or_else(|| {
                    TuningError::Journal(format!(
                        "undecodable cost vector at evaluation {}",
                        entry.evaluation
                    ))
                })?),
                (None, Some(kind)) => Err(CostError::from_kind(kind)),
                _ => {
                    return Err(TuningError::Journal(format!(
                        "entry {} records neither costs nor a known failure kind",
                        entry.evaluation
                    )))
                }
            };
            self.report_ticket(ticket, outcome)?;
            replayed += 1;
        }
        Ok(replayed)
    }

    /// Resumes this freshly opened session from the journal at `path`
    /// (checkpoint first, then the live tail): validates the header against
    /// the session's technique and space, adopts the journal's pending
    /// window (replay must hand out tickets exactly as the original run
    /// did), replays every intact entry, and re-attaches a writer appending
    /// subsequent outcomes to the same file. A torn tail is truncated to
    /// its intact prefix before appending (gluing a new entry onto a torn
    /// line would lose both on the next resume); a tail unusable past a
    /// valid checkpoint (kill mid-compaction) is recreated. Returns the
    /// number of entries replayed.
    pub fn resume_from_journal(&mut self, path: impl AsRef<Path>) -> Result<u64, TuningError>
    where
        C: JournalCost,
    {
        let loaded = LoadedJournal::load_with_checkpoint(path.as_ref())
            .map_err(|e| TuningError::Journal(e.to_string()))?;
        loaded
            .check_matches(self.technique.name(), self.space.len())
            .map_err(|e| TuningError::Journal(e.to_string()))?;
        self.max_pending = loaded.header.window.max(1);
        self.metrics.set_window_capacity(self.max_pending);
        let replayed = self.resume_from(&loaded.entries)?;
        let mut writer = match loaded.tail_intact_len {
            Some(intact) => JournalWriter::append_from(path.as_ref(), intact),
            None => JournalWriter::create_tail(path.as_ref(), &loaded.header),
        }
        .map_err(|e| TuningError::Journal(e.to_string()))?;
        writer.set_checkpoint_every(self.checkpoint_every);
        self.journal = Some(JournalState {
            writer,
            encode: C::to_journal,
        });
        Ok(replayed)
    }

    /// Finishes the session, consuming it.
    ///
    /// Fails with [`TuningError::NoValidConfiguration`] when nothing was
    /// measured successfully.
    pub fn finish(mut self) -> Result<TuningResult<C>, TuningError> {
        // Apply the maximal contiguous prefix of buffered reports; tickets
        // behind an unreported gap were never measured and are dropped.
        self.drain_ready();
        self.technique.finalize();
        if let Some(journal) = &mut self.journal {
            let _ = journal.writer.sync();
        }
        self.trace.flush();
        if let Some(last_failure) = self.broken {
            return Err(TuningError::CircuitBroken {
                consecutive_failures: self.status.consecutive_failures(),
                last_failure,
            });
        }
        match self.best {
            Some((best_config, best_cost)) => Ok(TuningResult {
                best_config,
                best_cost,
                evaluations: self.status.evaluations(),
                valid_evaluations: self.status.valid_evaluations(),
                failed_evaluations: self.status.failed_evaluations(),
                space_size: self.status.space_size(),
                elapsed: self.status.elapsed(),
                improvements: self.status.improvements().to_vec(),
                history: self.history,
            }),
            None => Err(TuningError::NoValidConfiguration {
                evaluations: self.status.evaluations(),
            }),
        }
    }
}

impl<C: CostValue> std::fmt::Debug for TuningSession<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TuningSession")
            .field("space_size", &self.space.len())
            .field("technique", &self.technique.name())
            .field("evaluations", &self.status.evaluations())
            .field("best_scalar", &self.best_scalar)
            .field("window", &self.max_pending)
            .field("pending", &self.pending.len())
            .field("done", &self.done)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::divides;
    use crate::expr::{cst, param};
    use crate::param::{tp_c, ParamGroup};
    use crate::range::Range;
    use crate::search::Exhaustive;

    fn saxpy_space(n: u64) -> SearchSpace {
        SearchSpace::generate(&[ParamGroup::new(vec![
            tp_c("WPT", Range::interval(1, n), divides(cst(n))),
            tp_c("LS", Range::interval(1, n), divides(cst(n) / param("WPT"))),
        ])])
    }

    #[test]
    fn step_driven_session_finds_optimum() {
        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(64), Box::new(Exhaustive::new())).unwrap();
        while let Some(config) = s.next_config() {
            let wpt = config.get_u64("WPT") as f64;
            let ls = config.get_u64("LS") as f64;
            s.report(Ok((wpt - 8.0).powi(2) + (ls - 4.0).powi(2)))
                .unwrap();
        }
        let r = s.finish().unwrap();
        assert_eq!(r.best_config.get_u64("WPT"), 8);
        assert_eq!(r.best_config.get_u64("LS"), 4);
        assert_eq!(r.evaluations as u128, r.space_size);
    }

    #[test]
    fn tickets_identify_each_handout() {
        // Each ask hands out a fresh ticket; with a window > 1 several
        // distinct configurations are pending at once, and reporting by
        // ticket retires exactly that handout.
        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(8), Box::new(Exhaustive::new()))
                .unwrap()
                .max_pending(3);
        let Handout::Next(t1, c1) = s.next_ticket() else {
            panic!("first handout")
        };
        let Handout::Next(t2, c2) = s.next_ticket() else {
            panic!("second handout")
        };
        assert_eq!((t1, t2), (1, 2));
        assert_ne!(c1, c2, "each ticket carries a distinct configuration");
        assert_eq!(s.tickets_in_flight(), 2);
        assert_eq!(s.pending_config_for(t1), Some(&c1));
        assert_eq!(s.pending_config_for(t2), Some(&c2));
        // Out-of-order report: t2 first. It buffers (t1 not applied yet)…
        s.report_ticket(t2, Ok(2.0)).unwrap();
        assert_eq!(s.tickets_buffered(), 1);
        // …and re-reporting either spent ticket is rejected.
        assert_eq!(
            s.report_ticket(t2, Ok(9.0)).unwrap_err(),
            TuningError::UnknownTicket { ticket: t2 }
        );
        s.report_ticket(t1, Ok(1.0)).unwrap();
        assert_eq!(
            s.report_ticket(99, Ok(1.0)).unwrap_err(),
            TuningError::UnknownTicket { ticket: 99 }
        );
        // Application is deferred while the window has slack (it advances
        // only at points fixed by handout counts, never arrival timing), so
        // both reports are still buffered…
        assert_eq!(s.oldest_in_flight(), None);
        assert_eq!(s.tickets_buffered(), 2);
        assert_eq!(s.status().evaluations(), 0);
        // …until finish() drains them, in ticket order.
        let r = s.finish().unwrap();
        assert_eq!(r.evaluations, 2);
        assert_eq!(r.best_cost, 1.0);
    }

    #[test]
    fn window_bounds_simultaneous_handouts() {
        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(64), Box::new(Exhaustive::new()))
                .unwrap()
                .max_pending(4);
        let batch = s.next_config_batch(16);
        assert_eq!(batch.len(), 4, "window caps the batch");
        assert_eq!(s.next_ticket(), Handout::Wait);
        // Retiring one ticket frees one window slot.
        let (t, _) = batch[0].clone();
        s.report_ticket(t, Ok(1.0)).unwrap();
        assert!(matches!(s.next_ticket(), Handout::Next(..)));
    }

    #[test]
    fn serial_window_applies_reports_immediately() {
        // With the default window of 1 a report is applied before
        // `report` returns, so `status()` is fresh — the contract every
        // serial driver in this crate relies on.
        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(8), Box::new(Exhaustive::new())).unwrap();
        let a = s.next_config().unwrap();
        assert!(s.has_pending());
        // A second ask while one ticket is pending must not hand out more
        // work within a window of 1.
        assert_eq!(s.next_ticket(), Handout::Wait);
        s.report(Ok(1.0)).unwrap();
        assert!(!s.has_pending());
        assert_eq!(s.status().evaluations(), 1);
        let c = s.next_config().unwrap();
        assert_ne!(a, c, "after a report, the next configuration advances");
    }

    #[test]
    fn out_of_order_reports_apply_in_ticket_order() {
        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(64), Box::new(Exhaustive::new()))
                .unwrap()
                .record_history(true)
                .max_pending(3);
        let batch = s.next_config_batch(3);
        let tickets: Vec<_> = batch.iter().map(|(t, _)| *t).collect();
        // Report newest-first; history must still be in ticket order.
        for (&t, cost) in tickets.iter().rev().zip([30.0, 20.0, 10.0]) {
            s.report_ticket(t, Ok(cost)).unwrap();
        }
        while s.next_config().is_some() {
            s.report(Ok(99.0)).unwrap();
        }
        let r = s.finish().unwrap();
        let first_three: Vec<f64> = r.history[..3].iter().map(|h| h.scalar_cost).collect();
        assert_eq!(first_three, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn report_without_pending_errors() {
        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(8), Box::new(Exhaustive::new())).unwrap();
        assert_eq!(
            s.report(Ok(1.0)).unwrap_err(),
            TuningError::NoPendingConfiguration
        );
    }

    #[test]
    fn empty_space_rejected_at_open() {
        let space = SearchSpace::generate(&[]);
        let err = TuningSession::<f64>::new(space, Box::new(Exhaustive::new())).unwrap_err();
        assert_eq!(err, TuningError::EmptySearchSpace);
    }

    #[test]
    fn all_failures_surface_no_valid_configuration() {
        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(4), Box::new(Exhaustive::new())).unwrap();
        while s.next_config().is_some() {
            s.report(Err(CostError::RunFailed("nope".into()))).unwrap();
        }
        let evals = s.status().evaluations();
        assert!(evals > 0);
        assert_eq!(
            s.finish().unwrap_err(),
            TuningError::NoValidConfiguration { evaluations: evals }
        );
    }

    #[test]
    fn abort_condition_limits_session() {
        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(4096), Box::new(Exhaustive::new()))
                .unwrap()
                .abort_condition(abort::evaluations(5));
        let mut n = 0;
        while let Some(_cfg) = s.next_config() {
            s.report(Ok(1.0)).unwrap();
            n += 1;
        }
        assert_eq!(n, 5);
        assert!(s.is_done());
    }

    #[test]
    fn abort_budget_counts_in_flight_tickets() {
        // A budget of 5 with a window of 4 must hand out exactly 5 tickets,
        // not 5 + the window.
        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(4096), Box::new(Exhaustive::new()))
                .unwrap()
                .abort_condition(abort::evaluations(5))
                .max_pending(4);
        let mut handed = Vec::new();
        loop {
            match s.next_ticket() {
                Handout::Next(t, _) => handed.push(t),
                Handout::Wait => {
                    let t = s.oldest_in_flight().unwrap();
                    s.report_ticket(t, Ok(1.0)).unwrap();
                }
                Handout::Done => break,
            }
        }
        // Drain the tail.
        while let Some(t) = s.oldest_in_flight() {
            s.report_ticket(t, Ok(1.0)).unwrap();
        }
        assert_eq!(handed.len(), 5);
        assert!(s.is_done());
        assert_eq!(s.status().evaluations(), 5);
    }

    #[test]
    fn circuit_breaker_trips_on_consecutive_failures() {
        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(4096), Box::new(Exhaustive::new()))
                .unwrap()
                .circuit_breaker(3);
        // One success, then unbroken failures: the streak must reach 3.
        s.next_config().unwrap();
        s.report(Ok(1.0)).unwrap();
        let mut reported = 0;
        while s.next_config().is_some() {
            s.report(Err(CostError::Timeout {
                limit: std::time::Duration::from_secs(1),
            }))
            .unwrap();
            reported += 1;
        }
        assert_eq!(reported, 3, "breaker must stop the session at the limit");
        assert_eq!(s.circuit_broken(), Some(FailureKind::Timeout));
        assert_eq!(
            s.finish().unwrap_err(),
            TuningError::CircuitBroken {
                consecutive_failures: 3,
                last_failure: FailureKind::Timeout,
            }
        );
    }

    #[test]
    fn success_resets_the_breaker_streak() {
        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(64), Box::new(Exhaustive::new()))
                .unwrap()
                .circuit_breaker(3);
        for round in 0..10 {
            let Some(_cfg) = s.next_config() else {
                panic!("breaker must not trip on alternating outcomes")
            };
            if round % 2 == 0 {
                s.report(Err(CostError::Transient("flaky".into()))).unwrap();
            } else {
                s.report(Ok(round as f64)).unwrap();
            }
        }
        assert_eq!(s.circuit_broken(), None);
    }

    fn journal_path(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("atf-session-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join("run.ndjson")
    }

    /// Deterministic mixed-outcome measurement for journal tests.
    fn measure(cfg: &Config) -> Result<f64, CostError> {
        let wpt = cfg.get_u64("WPT");
        let ls = cfg.get_u64("LS");
        if (wpt + ls).is_multiple_of(5) {
            Err(CostError::Timeout {
                limit: std::time::Duration::from_secs(1),
            })
        } else {
            Ok((wpt as f64 - 8.0).abs() + (ls as f64 - 4.0).abs())
        }
    }

    #[test]
    fn journaled_run_resumes_to_identical_result() {
        let path = journal_path("resume");

        // Reference: one uninterrupted journaled run.
        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(64), Box::new(Exhaustive::new()))
                .unwrap()
                .journal_to(&path)
                .unwrap();
        while let Some(cfg) = s.next_config() {
            s.report(measure(&cfg)).unwrap();
        }
        let reference = s.finish().unwrap();

        // Truncate the journal to a prefix — a crash partway through.
        let loaded = LoadedJournal::load(&path).unwrap();
        let total = loaded.entries.len();
        let prefix = &loaded.entries[..total / 2];

        // Resume a fresh session from the prefix and drive it to the end.
        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(64), Box::new(Exhaustive::new())).unwrap();
        let replayed = s.resume_from(prefix).unwrap();
        assert_eq!(replayed as usize, total / 2);
        while let Some(cfg) = s.next_config() {
            s.report(measure(&cfg)).unwrap();
        }
        let resumed = s.finish().unwrap();

        assert_eq!(resumed.best_config, reference.best_config);
        assert_eq!(resumed.best_cost, reference.best_cost);
        assert_eq!(resumed.evaluations, reference.evaluations);
        assert_eq!(resumed.failed_evaluations, reference.failed_evaluations);
    }

    #[test]
    fn resume_from_journal_validates_and_appends() {
        let path = journal_path("validate");
        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(64), Box::new(Exhaustive::new()))
                .unwrap()
                .abort_condition(abort::evaluations(10))
                .journal_to(&path)
                .unwrap();
        for _ in 0..4 {
            let cfg = s.next_config().unwrap();
            s.report(measure(&cfg)).unwrap();
        }
        drop(s); // crash: session gone, journal survives

        // Wrong technique: header check must reject the journal.
        let mut wrong: TuningSession<f64> = TuningSession::new(
            saxpy_space(64),
            Box::new(crate::search::RandomSearch::with_seed(1)),
        )
        .unwrap();
        assert!(matches!(
            wrong.resume_from_journal(&path),
            Err(TuningError::Journal(_))
        ));

        // Matching session: replays 4 and appends the rest to the file.
        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(64), Box::new(Exhaustive::new()))
                .unwrap()
                .abort_condition(abort::evaluations(10));
        assert_eq!(s.resume_from_journal(&path).unwrap(), 4);
        while let Some(cfg) = s.next_config() {
            s.report(measure(&cfg)).unwrap();
        }
        assert_eq!(s.status().evaluations(), 10);
        drop(s);
        let loaded = LoadedJournal::load(&path).unwrap();
        assert_eq!(loaded.entries.len(), 10);
        assert_eq!(
            loaded
                .entries
                .iter()
                .map(|e| e.evaluation)
                .collect::<Vec<_>>(),
            (1..=10).collect::<Vec<_>>()
        );
        assert_eq!(
            loaded
                .entries
                .iter()
                .map(|e| e.ticket.unwrap())
                .collect::<Vec<_>>(),
            (1..=10).collect::<Vec<_>>(),
            "serial runs hand out tickets in evaluation order"
        );
    }

    #[test]
    fn multi_pending_journal_replays_out_of_order_arrivals() {
        let path = journal_path("ooo");
        let drive = |s: &mut TuningSession<f64>| {
            // Hand out in batches of 3 and report each batch newest-first,
            // so the journal's arrival order differs from ticket order.
            loop {
                let batch = s.next_config_batch(3);
                if batch.is_empty() {
                    break;
                }
                for (t, cfg) in batch.iter().rev() {
                    s.report_ticket(*t, measure(cfg)).unwrap();
                }
            }
        };
        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(64), Box::new(Exhaustive::new()))
                .unwrap()
                .max_pending(3)
                .abort_condition(abort::evaluations(12))
                .journal_to(&path)
                .unwrap();
        drive(&mut s);
        let reference = s.finish().unwrap();

        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(64), Box::new(Exhaustive::new()))
                .unwrap()
                .abort_condition(abort::evaluations(12));
        let replayed = s.resume_from_journal(&path).unwrap();
        assert_eq!(replayed, 12);
        assert_eq!(s.window(), 3, "window adopted from the journal header");
        drive(&mut s);
        let resumed = s.finish().unwrap();
        assert_eq!(resumed.best_config, reference.best_config);
        assert_eq!(resumed.evaluations, reference.evaluations);
        assert_eq!(resumed.failed_evaluations, reference.failed_evaluations);
    }

    #[test]
    fn diverging_journal_is_rejected() {
        let path = journal_path("diverge");
        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(64), Box::new(Exhaustive::new()))
                .unwrap()
                .journal_to(&path)
                .unwrap();
        for _ in 0..3 {
            let cfg = s.next_config().unwrap();
            s.report(measure(&cfg)).unwrap();
        }
        drop(s);
        let mut loaded = LoadedJournal::load(&path).unwrap();
        // Corrupt the second entry's point: replay must detect divergence.
        loaded.entries[1].point = vec![9999, 9999];
        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(64), Box::new(Exhaustive::new())).unwrap();
        assert_eq!(
            s.resume_from(&loaded.entries).unwrap_err(),
            TuningError::JournalDiverged { evaluation: 2 }
        );
    }

    #[test]
    fn duration_budget_spans_resume() {
        // Regression: before elapsed offsets were journaled, a resumed
        // run's duration budget restarted from zero — kill at 50% and
        // resume, and the run would spend 150% of its wall-clock budget.
        let path = journal_path("duration-budget");
        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(64), Box::new(Exhaustive::new()))
                .unwrap()
                .abort_condition(abort::duration(Duration::from_secs(4)))
                .journal_to(&path)
                .unwrap();
        for half_seconds in 1..=4u64 {
            s.status
                .set_elapsed_for_test(Duration::from_millis(half_seconds * 500));
            let cfg = s.next_config().unwrap();
            s.report(measure(&cfg)).unwrap();
        }
        drop(s); // crash 2s into a 4s budget

        // Resume: the journal's cumulative clock is restored as an offset,
        // so the run continues 2s into its budget instead of starting over.
        let mut resumed: TuningSession<f64> =
            TuningSession::new(saxpy_space(64), Box::new(Exhaustive::new()))
                .unwrap()
                .abort_condition(abort::duration(Duration::from_secs(4)));
        assert_eq!(resumed.resume_from_journal(&path).unwrap(), 4);
        assert_eq!(resumed.status().elapsed_offset(), Duration::from_secs(2));
        assert!(resumed.status().elapsed() >= Duration::from_secs(2));
        assert!(
            matches!(resumed.next_ticket(), Handout::Next(..)),
            "2s of the 4s budget remain — the resumed run keeps exploring"
        );

        // A budget the original run had already exhausted ends the resumed
        // run before any fresh handout — but only AFTER the full replay:
        // every journaled evaluation is restored first.
        let mut spent: TuningSession<f64> =
            TuningSession::new(saxpy_space(64), Box::new(Exhaustive::new()))
                .unwrap()
                .abort_condition(abort::duration(Duration::from_secs(2)));
        assert_eq!(spent.resume_from_journal(&path).unwrap(), 4);
        assert_eq!(spent.status().evaluations(), 4);
        assert_eq!(spent.next_ticket(), Handout::Done, "budget already spent");
    }

    #[test]
    fn replay_reconstructs_improvement_timeline() {
        // Regression: replayed history entries used to be stamped with the
        // *replay* clock (microseconds after resume), so
        // `best_scalar_at_time` answered differently before and after a
        // kill + resume.
        let path = journal_path("timeline");
        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(64), Box::new(Exhaustive::new()))
                .unwrap()
                .abort_condition(abort::evaluations(6))
                .journal_to(&path)
                .unwrap();
        for i in 1..=6u64 {
            s.status.set_elapsed_for_test(Duration::from_secs(i));
            let cfg = s.next_config().unwrap();
            s.report(measure(&cfg)).unwrap();
        }
        let timeline = |status: &TuningStatus| -> Vec<(u64, u64, f64)> {
            status
                .improvements()
                .iter()
                .map(|i| (i.elapsed.as_millis() as u64, i.evaluation, i.scalar_cost))
                .collect()
        };
        let reference = timeline(s.status());
        let reference_best_at_3s = s.status().best_scalar_at_time(Duration::from_secs(3));
        assert!(reference.len() >= 2, "test needs several improvements");
        drop(s);

        let mut resumed: TuningSession<f64> =
            TuningSession::new(saxpy_space(64), Box::new(Exhaustive::new()))
                .unwrap()
                .abort_condition(abort::evaluations(6));
        assert_eq!(resumed.resume_from_journal(&path).unwrap(), 6);
        assert_eq!(
            timeline(resumed.status()),
            reference,
            "replay reconstructs the original improvement stamps"
        );
        assert_eq!(
            resumed.status().best_scalar_at_time(Duration::from_secs(3)),
            reference_best_at_3s
        );
    }

    #[test]
    fn history_recorded_when_enabled() {
        let mut s: TuningSession<f64> =
            TuningSession::new(saxpy_space(8), Box::new(Exhaustive::new()))
                .unwrap()
                .record_history(true);
        while let Some(cfg) = s.next_config() {
            s.report(Ok(cfg.get_u64("WPT") as f64)).unwrap();
        }
        let r = s.finish().unwrap();
        assert_eq!(r.history.len() as u64, r.evaluations);
        assert_eq!(r.history[0].evaluation, 1);
    }
}
