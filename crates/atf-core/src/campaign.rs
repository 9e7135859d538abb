//! Crash-safe tuning campaigns: declarative multi-run orchestration with
//! failure policies and budget enforcement.
//!
//! A campaign file describes a DAG of tuning runs (nodes) with
//! dependencies. [`validate`] compiles it into a [`CampaignPlan`] —
//! catching duplicate or unknown node references, cycles, and malformed
//! policies *before anything executes* — and [`run_campaign`] drives the
//! plan through a caller-supplied [`NodeExecutor`], concurrently across
//! independent nodes.
//!
//! Robustness model:
//!
//! * **Failure policies** per node: `retry` (jittered exponential backoff,
//!   ×N), `continue` (mark dependents skipped with a recorded reason and
//!   keep going — also the behaviour when retries are exhausted), and
//!   `abort` (cancel in-flight nodes at their next handout and drain
//!   cleanly; the default).
//! * **Shared budget**: a campaign-wide evaluation and/or wall-clock
//!   budget, charged at *handout* granularity through the session's abort
//!   check ([`CampaignHooks::wrap_abort`]) — a campaign can never overspend
//!   by more than the in-flight window, and nodes cut or denied by the
//!   budget are recorded as `budget_exhausted`, not as errors.
//! * **Campaign journal**: a write-ahead log (`started` / `attempt_failed`
//!   / `finished` entries in a [`crate::wal`] log, fsynced per entry) so
//!   kill -9 at any point resumes with finished nodes restored verbatim,
//!   in-flight nodes re-run through their per-run journals, and the final
//!   [`CampaignReport`] bit-identical to an uninterrupted execution.
//!
//! The executor seam keeps this module policy-free about *how* a node
//! runs: `atf-cli` supplies a local executor (its `run_with` pipeline) and
//! a service-mode executor (`run_remote_with` against `atf-service`);
//! tests supply synthetic executors with real sessions and kill hooks.

use crate::abort::{Abort, AbortCondition};
use crate::status::TuningStatus;
use crate::trace::{NullSink, TraceEvent, TraceSink};
use crate::wal;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Node outcome labels recorded in journals and reports.
pub mod outcome {
    /// The node's tuning run finished normally.
    pub const COMPLETED: &str = "completed";
    /// The node failed after its policy's retries were exhausted.
    pub const FAILED: &str = "failed";
    /// The node was shed with `overloaded` by the service after exhausting
    /// its retries — capacity rejection, not a real failure.
    pub const OVERLOADED: &str = "overloaded";
    /// The node never ran (failed dependency or campaign abort), or was
    /// cancelled mid-run by an `abort` policy.
    pub const SKIPPED: &str = "skipped";
    /// The shared campaign budget denied or cut the node.
    pub const BUDGET_EXHAUSTED: &str = "budget_exhausted";
}

// ---------------------------------------------------------------------------
// Declarative spec
// ---------------------------------------------------------------------------

/// A declarative campaign file: a named DAG of tuning runs.
#[derive(Clone, Debug, Deserialize)]
pub struct CampaignSpec {
    /// Campaign name (journal identity; also shown in reports).
    pub campaign: String,
    /// The tuning runs, in declaration order. Declaration order breaks
    /// scheduling ties, so a campaign executes deterministically.
    pub nodes: Vec<NodeSpec>,
    /// Optional shared evaluation / wall-clock budget across all nodes.
    #[serde(default)]
    pub budget: Option<BudgetSpec>,
    /// How many independent nodes may run concurrently (default 1).
    #[serde(default)]
    pub concurrency: Option<usize>,
}

/// One tuning run inside a campaign.
#[derive(Clone, Debug, Deserialize)]
pub struct NodeSpec {
    /// Unique node name (journal identity, dependency references).
    pub name: String,
    /// Path to the node's tuning specification, resolved by the executor
    /// (the CLI resolves it relative to the campaign file).
    pub spec: String,
    /// Names of nodes that must complete before this one starts.
    #[serde(default)]
    pub after: Vec<String>,
    /// What to do when the run fails (default: `abort`).
    #[serde(default)]
    pub on_failure: Option<PolicySpec>,
}

/// Failure policy as written in the campaign file.
#[derive(Clone, Debug, Deserialize)]
pub struct PolicySpec {
    /// `"retry"`, `"continue"`, or `"abort"`.
    pub policy: String,
    /// `retry`: how many times to re-run the node after its first failure.
    #[serde(default)]
    pub retries: Option<u32>,
    /// `retry`: base backoff before the first re-run, doubling (with
    /// deterministic jitter) per attempt. Default 1000.
    #[serde(default)]
    pub backoff_ms: Option<u64>,
}

/// Shared campaign budget limits.
#[derive(Clone, Debug, Deserialize)]
pub struct BudgetSpec {
    /// Total evaluations across every node of the campaign.
    #[serde(default)]
    pub evaluations: Option<u64>,
    /// Total wall clock for the campaign invocation, seconds. (Unlike the
    /// evaluation budget it restarts on resume: elapsed time cannot be
    /// replayed from a journal.)
    #[serde(default)]
    pub wall_clock_secs: Option<u64>,
}

/// A validated failure policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Re-run up to `retries` more times with jittered exponential backoff
    /// from `backoff_ms`; exhaustion then behaves like [`Self::Continue`].
    Retry {
        /// Re-runs after the first failure.
        retries: u32,
        /// Base backoff milliseconds (doubles per attempt).
        backoff_ms: u64,
    },
    /// Record the failure, mark dependents skipped, keep going.
    Continue,
    /// Cancel in-flight nodes and drain cleanly (the default).
    Abort,
}

impl CampaignSpec {
    /// Parses a campaign from JSON text.
    pub fn from_json(text: &str) -> Result<Self, CampaignError> {
        serde_json::from_str(text).map_err(|e| CampaignError::Spec(e.to_string()))
    }

    /// Loads a campaign file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CampaignError> {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CampaignError::Spec(format!("{}: {e}", path.as_ref().display())))?;
        Self::from_json(&text)
    }
}

/// Structured campaign errors. Validation errors name the offending node,
/// so scripts and CI can act on them without parsing prose.
#[derive(Debug)]
pub enum CampaignError {
    /// Reading or deserializing the campaign file failed, or a top-level
    /// field is malformed.
    Spec(String),
    /// Two nodes share a name.
    DuplicateNode(String),
    /// A node's `after` references a node that does not exist.
    UnknownDependency {
        /// The referencing node.
        node: String,
        /// The missing reference.
        dependency: String,
    },
    /// The dependency graph has a cycle through these nodes.
    Cycle(Vec<String>),
    /// A node's failure policy is malformed.
    Policy {
        /// The offending node.
        node: String,
        /// What is wrong with it.
        message: String,
    },
    /// Campaign-journal I/O failed (strict: the campaign's own write-ahead
    /// log failing is fatal, unlike a per-run journal which degrades).
    Journal(String),
    /// The journal belongs to a different campaign (name, node count, or
    /// spec content hash differ) — resuming would silently diverge.
    SpecMismatch {
        /// What the journal recorded.
        journal: String,
        /// What the current invocation expected.
        expected: String,
    },
    /// The campaign run died mid-flight (executor-declared fatal error or
    /// an injected kill); resume from the journal.
    Fatal(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Spec(m) => write!(f, "bad campaign: {m}"),
            CampaignError::DuplicateNode(n) => write!(f, "duplicate node `{n}`"),
            CampaignError::UnknownDependency { node, dependency } => {
                write!(f, "node `{node}` depends on unknown node `{dependency}`")
            }
            CampaignError::Cycle(nodes) => {
                write!(f, "dependency cycle through: {}", nodes.join(", "))
            }
            CampaignError::Policy { node, message } => {
                write!(f, "bad failure policy for `{node}`: {message}")
            }
            CampaignError::Journal(m) => write!(f, "campaign journal error: {m}"),
            CampaignError::SpecMismatch { journal, expected } => write!(
                f,
                "campaign journal belongs to a different campaign ({journal}, expected {expected})"
            ),
            CampaignError::Fatal(m) => write!(f, "campaign run died: {m}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// A validated campaign: the spec plus a deterministic topological order,
/// resolved dependency indices, and parsed failure policies.
#[derive(Debug)]
pub struct CampaignPlan {
    /// The validated spec.
    pub spec: CampaignSpec,
    /// Node indices in topological order (declaration order breaks ties).
    pub order: Vec<usize>,
    /// Resolved `after` indices per node.
    pub deps: Vec<Vec<usize>>,
    /// Parsed failure policy per node.
    pub policies: Vec<FailurePolicy>,
}

/// Validates a campaign: unique names, known dependency references, an
/// acyclic graph, well-formed policies and budgets. Returns the first
/// structured error found, or a [`CampaignPlan`] ready to run.
pub fn validate(spec: &CampaignSpec) -> Result<CampaignPlan, CampaignError> {
    if spec.campaign.trim().is_empty() {
        return Err(CampaignError::Spec("campaign name is empty".into()));
    }
    if spec.nodes.is_empty() {
        return Err(CampaignError::Spec("campaign has no nodes".into()));
    }
    if spec.concurrency == Some(0) {
        return Err(CampaignError::Spec("concurrency must be at least 1".into()));
    }
    if let Some(b) = &spec.budget {
        if b.evaluations == Some(0) {
            return Err(CampaignError::Spec(
                "budget.evaluations must be positive".into(),
            ));
        }
        if b.wall_clock_secs == Some(0) {
            return Err(CampaignError::Spec(
                "budget.wall_clock_secs must be positive".into(),
            ));
        }
    }
    let mut index = std::collections::HashMap::new();
    for (i, node) in spec.nodes.iter().enumerate() {
        if node.name.trim().is_empty() {
            return Err(CampaignError::Spec(format!("node {i} has an empty name")));
        }
        if node.spec.trim().is_empty() {
            return Err(CampaignError::Spec(format!(
                "node `{}` has an empty spec path",
                node.name
            )));
        }
        if index.insert(node.name.clone(), i).is_some() {
            return Err(CampaignError::DuplicateNode(node.name.clone()));
        }
    }
    let mut deps = Vec::with_capacity(spec.nodes.len());
    let mut policies = Vec::with_capacity(spec.nodes.len());
    for (i, node) in spec.nodes.iter().enumerate() {
        let mut resolved = Vec::with_capacity(node.after.len());
        for dep in &node.after {
            match index.get(dep) {
                Some(&j) if j != i => resolved.push(j),
                _ => {
                    return Err(CampaignError::UnknownDependency {
                        node: node.name.clone(),
                        dependency: dep.clone(),
                    })
                }
            }
        }
        deps.push(resolved);
        policies.push(parse_policy(node)?);
    }
    // Kahn's algorithm with declaration-order tie-breaking: the topological
    // order (and therefore validation output) is deterministic.
    let n = spec.nodes.len();
    let mut indegree: Vec<usize> = deps.iter().map(Vec::len).collect();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    while order.len() < n {
        let Some(next) = (0..n).find(|&i| !placed[i] && indegree[i] == 0) else {
            let stuck: Vec<String> = (0..n)
                .filter(|&i| !placed[i])
                .map(|i| spec.nodes[i].name.clone())
                .collect();
            return Err(CampaignError::Cycle(stuck));
        };
        placed[next] = true;
        order.push(next);
        for (i, d) in deps.iter().enumerate() {
            if !placed[i] && d.contains(&next) {
                indegree[i] -= 1;
            }
        }
    }
    Ok(CampaignPlan {
        spec: spec.clone(),
        order,
        deps,
        policies,
    })
}

fn parse_policy(node: &NodeSpec) -> Result<FailurePolicy, CampaignError> {
    let Some(p) = &node.on_failure else {
        return Ok(FailurePolicy::Abort);
    };
    match p.policy.as_str() {
        "retry" => Ok(FailurePolicy::Retry {
            retries: p.retries.unwrap_or(1),
            backoff_ms: p.backoff_ms.unwrap_or(1000),
        }),
        "continue" => Ok(FailurePolicy::Continue),
        "abort" => Ok(FailurePolicy::Abort),
        other => Err(CampaignError::Policy {
            node: node.name.clone(),
            message: format!("unknown policy `{other}` (expected retry, continue, abort)"),
        }),
    }
}

// ---------------------------------------------------------------------------
// Budget and session hooks
// ---------------------------------------------------------------------------

/// The shared campaign budget: an evaluation counter charged at handout
/// granularity plus an optional wall-clock deadline, with a one-way
/// exhaustion latch.
#[derive(Debug)]
pub struct CampaignBudget {
    evaluations: Option<u64>,
    deadline: Option<Instant>,
    spent: AtomicU64,
    exhausted: AtomicBool,
}

impl CampaignBudget {
    /// A live budget for one campaign invocation (the wall clock starts
    /// now).
    pub fn new(spec: &BudgetSpec) -> Self {
        CampaignBudget {
            evaluations: spec.evaluations,
            deadline: spec
                .wall_clock_secs
                .map(|s| Instant::now() + Duration::from_secs(s)),
            spent: AtomicU64::new(0),
            exhausted: AtomicBool::new(false),
        }
    }

    /// Charges `delta` evaluations to the shared pool.
    pub fn charge(&self, delta: u64) {
        if delta > 0 {
            self.spent.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Evaluations charged so far (completed nodes restored on resume are
    /// pre-charged; an in-flight node's replay recharges itself through
    /// the handout check).
    pub fn spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }

    /// Whether the budget is exhausted. Latches: once `true`, stays `true`,
    /// so every node observes the same verdict regardless of timing.
    pub fn exhausted(&self) -> bool {
        if self.exhausted.load(Ordering::Relaxed) {
            return true;
        }
        let over_evals = self
            .evaluations
            .is_some_and(|b| self.spent.load(Ordering::Relaxed) >= b);
        let over_time = self.deadline.is_some_and(|d| Instant::now() >= d);
        if over_evals || over_time {
            self.exhausted.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }
}

/// Per-node campaign wiring handed to an executor: the shared budget, the
/// campaign-wide cancel flag, and per-node "why did this run stop" flags.
///
/// [`Self::wrap_abort`] composes them into the session's abort condition.
/// The session checks its abort at *handout* time against a projected
/// status (in-flight handouts count as spent), so the budget charge-and-
/// check happens before each configuration leaves the session: a campaign
/// never overspends its evaluation budget by more than the in-flight
/// window.
#[derive(Clone, Debug)]
pub struct CampaignHooks {
    /// Shared evaluation/wall-clock budget, if the campaign has one.
    pub budget: Option<Arc<CampaignBudget>>,
    /// Campaign-wide cancel flag (set by an `abort` failure policy).
    pub cancel: Option<Arc<AtomicBool>>,
    budget_fired: Arc<AtomicBool>,
    cancel_fired: Arc<AtomicBool>,
}

impl Default for CampaignHooks {
    fn default() -> Self {
        Self::for_node(None, None)
    }
}

impl CampaignHooks {
    /// Fresh hooks for one node run.
    pub fn for_node(budget: Option<Arc<CampaignBudget>>, cancel: Option<Arc<AtomicBool>>) -> Self {
        CampaignHooks {
            budget,
            cancel,
            budget_fired: Arc::new(AtomicBool::new(false)),
            cancel_fired: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Wraps a session's abort condition with the campaign's budget and
    /// cancel checks. The budget check runs first (the `|` combinator
    /// short-circuits left to right), so every admitted handout is charged
    /// exactly once before any other condition can end the run.
    pub fn wrap_abort(&self, base: Abort) -> Abort {
        let mut a = base;
        if let Some(flag) = &self.cancel {
            a = Abort::new(CancelAbort {
                cancel: Arc::clone(flag),
                fired: Arc::clone(&self.cancel_fired),
            }) | a;
        }
        if let Some(budget) = &self.budget {
            a = Abort::new(BudgetAbort {
                budget: Arc::clone(budget),
                fired: Arc::clone(&self.budget_fired),
                last_seen: AtomicU64::new(0),
            }) | a;
        }
        a
    }

    /// Marks this node as cut by the budget (used by drivers that check
    /// the budget outside a session, e.g. the serial remote loop).
    pub fn mark_budget_fired(&self) {
        self.budget_fired.store(true, Ordering::Relaxed);
    }

    /// Whether the budget ended this node's run (→ `budget_exhausted`).
    pub fn budget_fired(&self) -> bool {
        self.budget_fired.load(Ordering::Relaxed)
    }

    /// Marks this node's run as ended by the campaign cancel flag (for
    /// drivers that poll the flag outside a session abort check).
    pub fn mark_cancel_fired(&self) {
        self.cancel_fired.store(true, Ordering::Relaxed);
    }

    /// Whether the campaign cancel flag ended this node's run.
    pub fn cancel_fired(&self) -> bool {
        self.cancel_fired.load(Ordering::Relaxed)
    }

    /// Whether a campaign-wide cancellation has been requested.
    pub fn cancel_requested(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// Whether the shared budget is exhausted right now.
    pub fn budget_exhausted(&self) -> bool {
        self.budget.as_ref().is_some_and(|b| b.exhausted())
    }
}

/// Charges the projected evaluation count's delta to the shared budget on
/// every abort check, then stops the run once the pool is exhausted. The
/// projected status counts in-flight handouts as spent and is independent
/// of report arrival timing, so the charge stream — and therefore where a
/// budget-bound run stops — is deterministic.
struct BudgetAbort {
    budget: Arc<CampaignBudget>,
    fired: Arc<AtomicBool>,
    last_seen: AtomicU64,
}

impl AbortCondition for BudgetAbort {
    fn should_stop(&self, status: &TuningStatus) -> bool {
        let seen = status.evaluations();
        let prev = self.last_seen.swap(seen, Ordering::Relaxed);
        self.budget.charge(seen.saturating_sub(prev));
        if self.budget.exhausted() {
            self.fired.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }
    fn describe(&self) -> String {
        "campaign_budget".to_string()
    }
}

struct CancelAbort {
    cancel: Arc<AtomicBool>,
    fired: Arc<AtomicBool>,
}

impl AbortCondition for CancelAbort {
    fn should_stop(&self, _status: &TuningStatus) -> bool {
        if self.cancel.load(Ordering::Relaxed) {
            self.fired.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }
    fn describe(&self) -> String {
        "campaign_cancel".to_string()
    }
}

// ---------------------------------------------------------------------------
// Campaign journal
// ---------------------------------------------------------------------------

/// Campaign journal format version.
pub const CAMPAIGN_JOURNAL_VERSION: u32 = 1;

/// First line of a campaign journal: identifies the campaign so a resume
/// against a renamed, restructured, or edited campaign file is rejected.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CampaignJournalHeader {
    /// Format version.
    pub version: u32,
    /// Campaign name.
    pub campaign: String,
    /// Content hash of the campaign file ([`crate::wal::content_hash`]).
    pub spec_hash: String,
    /// Node count (cheap structural check on top of the hash).
    pub nodes: usize,
}

/// One campaign journal entry, written before (`started`) and after
/// (`attempt_failed`, `finished`) the state change it records.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CampaignJournalEntry {
    /// 1-based write sequence number.
    pub seq: u64,
    /// `"started"`, `"attempt_failed"`, or `"finished"`.
    pub event: String,
    /// The node this entry concerns.
    pub node: String,
    /// Attempt number (`started`, `attempt_failed`), or total attempts
    /// consumed (`finished`).
    #[serde(default)]
    pub attempt: Option<u32>,
    /// `finished`: terminal [`outcome`] label.
    #[serde(default)]
    pub outcome: Option<String>,
    /// `finished`: evaluations the node performed.
    #[serde(default)]
    pub evaluations: Option<u64>,
    /// `finished`: best scalar cost, when the node measured anything.
    #[serde(default)]
    pub best_cost: Option<f64>,
    /// `finished`: best configuration, sorted by parameter name.
    #[serde(default)]
    pub best_config: Option<Vec<ConfigValue>>,
    /// `attempt_failed`/`finished`: failure or skip reason.
    #[serde(default)]
    pub reason: Option<String>,
}

/// One `name = value` pair of a best configuration, with the value
/// rendered to text so any cost domain journals identically.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigValue {
    /// Parameter name.
    pub name: String,
    /// Rendered value.
    pub value: String,
}

/// Append-only campaign journal writer: a [`wal::Writer`] that fsyncs
/// every entry before the append returns — campaign events are rare (two
/// or three per node), so durability costs nothing next to the runs they
/// frame.
pub struct CampaignJournal {
    log: wal::Writer,
    kill_after: Option<u64>,
}

fn journal_err(e: std::io::Error) -> CampaignError {
    CampaignError::Journal(e.to_string())
}

impl CampaignJournal {
    /// Creates (truncates) a campaign journal and durably writes its
    /// header.
    pub fn create(
        path: impl AsRef<Path>,
        header: &CampaignJournalHeader,
    ) -> Result<Self, CampaignError> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(journal_err)?;
        }
        let log = wal::Writer::create(path, header, 1).map_err(journal_err)?;
        Ok(CampaignJournal {
            log,
            kill_after: None,
        })
    }

    /// Reopens a journal for appending after truncating a torn tail to its
    /// intact prefix (gluing onto a torn line would lose both lines on the
    /// next resume).
    pub fn append_from(path: impl AsRef<Path>, intact_len: u64) -> Result<Self, CampaignError> {
        let log = wal::Writer::open_at(path.as_ref(), intact_len, 1).map_err(journal_err)?;
        Ok(CampaignJournal {
            log,
            kill_after: None,
        })
    }

    /// Chaos hook: after `n` more successful appends, every further append
    /// fails with [`CampaignError::Fatal`] *without writing* — on-disk
    /// state is exactly what SIGKILL at that append boundary leaves.
    pub fn kill_after_appends(&mut self, n: u64) {
        self.kill_after = Some(n);
    }

    /// Durably appends one entry (write + fsync before returning).
    pub fn append(&mut self, entry: &CampaignJournalEntry) -> Result<(), CampaignError> {
        if let Some(left) = self.kill_after {
            if left == 0 {
                return Err(CampaignError::Fatal(
                    "injected kill at campaign journal append".into(),
                ));
            }
            self.kill_after = Some(left - 1);
        }
        self.log.append(entry).map_err(journal_err)
    }
}

/// A loaded campaign journal: header, intact entries, and the byte length
/// of the intact prefix (for torn-tail truncation on resume).
pub type LoadedCampaignJournal = wal::Log<CampaignJournalHeader, CampaignJournalEntry>;

/// Loads a campaign journal, dropping entries from the first torn or
/// corrupt line onward. `None` when no journal was ever durably created at
/// `path` (missing file, or a kill before the header landed).
pub fn load_campaign_journal(
    path: impl AsRef<Path>,
) -> Result<Option<LoadedCampaignJournal>, CampaignError> {
    wal::load(path.as_ref(), CAMPAIGN_JOURNAL_VERSION).map_err(journal_err)
}

// ---------------------------------------------------------------------------
// Executor seam
// ---------------------------------------------------------------------------

/// Everything a [`NodeExecutor`] needs to run one node attempt.
#[derive(Clone, Debug)]
pub struct NodeContext {
    /// Declaration index of the node in the campaign.
    pub node_index: usize,
    /// 1-based attempt number (counts prior failed attempts, including
    /// those from before a crash).
    pub attempt: u32,
    /// Whether this attempt resumes the node's per-run journal (only true
    /// for the first attempt of a node that was in flight when the
    /// campaign was killed). Retry attempts always start fresh.
    pub resume: bool,
    /// Budget and cancel wiring for this run; executors must thread it
    /// into the session's abort condition via [`CampaignHooks::wrap_abort`]
    /// (or charge/check manually for non-session drivers).
    pub hooks: CampaignHooks,
}

/// What a successful (or budget-/cancel-cut) node run produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeRun {
    /// Evaluations performed by this node (including replayed ones).
    pub evaluations: u64,
    /// Best scalar cost found, if anything was measured.
    pub best_cost: Option<f64>,
    /// Best configuration, sorted by parameter name.
    pub best_config: Vec<ConfigValue>,
}

/// How a node attempt failed.
#[derive(Debug)]
pub enum NodeError {
    /// The run failed; the node's failure policy decides what happens.
    Failed(String),
    /// The service shed the run with `overloaded` after the transport's
    /// own retries; policy-retried like a failure but recorded distinctly.
    Overloaded(String),
    /// The whole campaign run must stop *now*, leaving the journal as-is
    /// (executor-level catastrophic error; also the injected-kill hook).
    Fatal(String),
}

/// Runs one node attempt. Implementations must be shareable across the
/// runner's worker threads.
pub trait NodeExecutor: Sync {
    /// Executes `node`, honoring the context's hooks and resume flag.
    fn execute(&self, node: &NodeSpec, ctx: &NodeContext) -> Result<NodeRun, NodeError>;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// One node's terminal state in the campaign report.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeReport {
    /// Node name.
    pub node: String,
    /// Terminal [`outcome`] label.
    pub outcome: String,
    /// Evaluations the node performed.
    pub evaluations: u64,
    /// Attempts consumed (1 for a first-try success; 0 when never run).
    pub attempts: u32,
    /// Best scalar cost, when the node measured anything.
    #[serde(default)]
    pub best_cost: Option<f64>,
    /// Best configuration, sorted by parameter name.
    #[serde(default)]
    pub best_config: Vec<ConfigValue>,
    /// Failure or skip reason.
    #[serde(default)]
    pub reason: Option<String>,
}

/// The final campaign report: nodes in declaration order. Deliberately
/// excludes wall-clock fields so a resumed campaign's report is
/// bit-identical to an uninterrupted run's.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Campaign name.
    pub campaign: String,
    /// Per-node terminal states, in declaration order.
    pub nodes: Vec<NodeReport>,
    /// Sum of node evaluations.
    pub total_evaluations: u64,
    /// Whether any node was denied or cut by the shared budget.
    pub budget_exhausted: bool,
}

impl CampaignReport {
    /// Canonical single-line JSON rendering (the bit-identity artifact).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_default()
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Execution options for [`run_campaign`].
pub struct RunConfig {
    /// Campaign journal path (`None` = no crash safety).
    pub journal: Option<PathBuf>,
    /// Resume from the journal when it exists.
    pub resume: bool,
    /// Content hash of the campaign file text (journal identity).
    pub spec_hash: String,
    /// Trace sink for `campaign_node` / `campaign_budget` /
    /// `campaign_skip` events.
    pub trace: Arc<dyn TraceSink>,
    /// Chaos hook: fail (as if SIGKILLed) after this many more campaign
    /// journal appends.
    pub kill_after_appends: Option<u64>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            journal: None,
            resume: false,
            spec_hash: String::new(),
            trace: Arc::new(NullSink),
            kill_after_appends: None,
        }
    }
}

#[derive(Clone, Debug)]
struct NodeDone {
    outcome: String,
    evaluations: u64,
    attempts: u32,
    best_cost: Option<f64>,
    best_config: Vec<ConfigValue>,
    reason: Option<String>,
}

impl NodeDone {
    fn from_journal(e: &CampaignJournalEntry) -> Self {
        NodeDone {
            outcome: e.outcome.clone().unwrap_or_else(|| outcome::FAILED.into()),
            evaluations: e.evaluations.unwrap_or(0),
            attempts: e.attempt.unwrap_or(0),
            best_cost: e.best_cost,
            best_config: e.best_config.clone().unwrap_or_default(),
            reason: e.reason.clone(),
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum St {
    Pending,
    Running,
    Done,
}

struct RunnerState {
    st: Vec<St>,
    done: Vec<Option<NodeDone>>,
    journal: Option<CampaignJournal>,
    seq: u64,
    fatal: Option<CampaignError>,
    abort_reason: Option<String>,
}

impl RunnerState {
    /// Appends a journal entry; a failure is fatal for the campaign run
    /// (its own WAL failing must not go unnoticed — per-run journals are
    /// the ones that degrade gracefully).
    fn journal_append(&mut self, mut entry: CampaignJournalEntry) -> bool {
        let Some(j) = &mut self.journal else {
            return true;
        };
        self.seq += 1;
        entry.seq = self.seq;
        match j.append(&entry) {
            Ok(()) => true,
            Err(e) => {
                self.seq -= 1;
                if self.fatal.is_none() {
                    self.fatal = Some(e);
                }
                false
            }
        }
    }
}

fn finished_entry(node: &str, d: &NodeDone) -> CampaignJournalEntry {
    CampaignJournalEntry {
        seq: 0,
        event: "finished".into(),
        node: node.to_string(),
        attempt: Some(d.attempts),
        outcome: Some(d.outcome.clone()),
        evaluations: Some(d.evaluations),
        best_cost: d.best_cost,
        best_config: Some(d.best_config.clone()),
        reason: d.reason.clone(),
    }
}

/// Deterministic jittered exponential backoff for node retries: doubles
/// per attempt from `backoff_ms`, jittered ±25% by a hash of the node
/// name and attempt number, capped at 30 s.
pub fn retry_backoff(node: &str, attempt: u32, backoff_ms: u64) -> Duration {
    let base = backoff_ms.saturating_mul(1u64 << attempt.saturating_sub(1).min(8));
    // Attempts past 255 share one jitter; the backoff is capped long before.
    let attempt = u8::try_from(attempt).unwrap_or(u8::MAX);
    let h = wal::fnv1a64(Some(wal::fnv1a64(None, node.as_bytes())), &[attempt]);
    let jittered = base / 4 * 3 + (h % (base / 2 + 1));
    Duration::from_millis(jittered.min(30_000))
}

/// Executes a validated campaign plan through `executor`.
///
/// Scheduling is deterministic: among ready nodes, declaration order wins;
/// up to `concurrency` nodes run at once on scoped worker threads. Nodes
/// whose dependencies did not complete are skipped with a recorded reason
/// (transitively); once the shared budget latches exhausted, every
/// not-yet-started node is recorded `budget_exhausted` without running.
///
/// With a journal configured, every state change is logged write-ahead;
/// killing the process at any point and re-running with `resume: true`
/// restores finished nodes verbatim (zero re-execution), re-runs in-flight
/// nodes (which resume their own per-run journals via
/// [`NodeContext::resume`]), and produces a final report bit-identical to
/// an uninterrupted execution.
pub fn run_campaign<E: NodeExecutor>(
    plan: &CampaignPlan,
    executor: &E,
    cfg: &RunConfig,
) -> Result<CampaignReport, CampaignError> {
    let n = plan.spec.nodes.len();
    let mut done: Vec<Option<NodeDone>> = vec![None; n];
    let mut prior_failures: Vec<u32> = vec![0; n];
    let mut in_flight: Vec<bool> = vec![false; n];
    let mut journal = None;
    let mut seq = 0u64;

    if let Some(path) = &cfg.journal {
        let header = CampaignJournalHeader {
            version: CAMPAIGN_JOURNAL_VERSION,
            campaign: plan.spec.campaign.clone(),
            spec_hash: cfg.spec_hash.clone(),
            nodes: n,
        };
        let loaded = if cfg.resume {
            load_campaign_journal(path)?
        } else {
            None
        };
        if let Some(loaded) = loaded {
            if loaded.header.campaign != header.campaign
                || loaded.header.spec_hash != header.spec_hash
                || loaded.header.nodes != header.nodes
            {
                return Err(CampaignError::SpecMismatch {
                    journal: format!(
                        "campaign={} hash={} nodes={}",
                        loaded.header.campaign, loaded.header.spec_hash, loaded.header.nodes
                    ),
                    expected: format!(
                        "campaign={} hash={} nodes={}",
                        header.campaign, header.spec_hash, header.nodes
                    ),
                });
            }
            let index: std::collections::HashMap<&str, usize> = plan
                .spec
                .nodes
                .iter()
                .enumerate()
                .map(|(i, node)| (node.name.as_str(), i))
                .collect();
            let mut started: Vec<Option<u32>> = vec![None; n];
            for entry in &loaded.entries {
                seq = seq.max(entry.seq);
                let Some(&i) = index.get(entry.node.as_str()) else {
                    continue;
                };
                match entry.event.as_str() {
                    "started" => started[i] = entry.attempt.or(Some(1)),
                    "attempt_failed" => {
                        prior_failures[i] = prior_failures[i].max(entry.attempt.unwrap_or(0))
                    }
                    "finished" => done[i] = Some(NodeDone::from_journal(entry)),
                    _ => {}
                }
            }
            for i in 0..n {
                // In flight at the kill: the last started attempt has
                // neither a failure nor a terminal record. Its per-run
                // journal carries the partial progress.
                in_flight[i] =
                    done[i].is_none() && started[i].is_some_and(|a| a > prior_failures[i]);
            }
            journal = Some(CampaignJournal::append_from(path, loaded.intact_len)?);
        } else {
            journal = Some(CampaignJournal::create(path, &header)?);
        }
    }
    if let (Some(j), Some(k)) = (&mut journal, cfg.kill_after_appends) {
        j.kill_after_appends(k);
    }

    let budget = plan
        .spec
        .budget
        .as_ref()
        .map(|b| Arc::new(CampaignBudget::new(b)));
    if let Some(b) = &budget {
        // Finished nodes never re-run, so their spend is restored up
        // front; an in-flight node recharges itself during replay.
        b.charge(done.iter().flatten().map(|d| d.evaluations).sum());
    }
    let cancel = Arc::new(AtomicBool::new(false));
    // A node that already finished `failed` under an abort policy means
    // the campaign was draining when it died: restore the cancellation.
    for (i, d) in done.iter().enumerate() {
        if let Some(d) = d {
            if d.outcome == outcome::FAILED && plan.policies[i] == FailurePolicy::Abort {
                cancel.store(true, Ordering::Relaxed);
            }
        }
    }

    let workers = plan.spec.concurrency.unwrap_or(1).min(n).max(1);
    let state = Mutex::new(RunnerState {
        st: done
            .iter()
            .map(|d| if d.is_some() { St::Done } else { St::Pending })
            .collect(),
        done,
        journal,
        seq,
        fatal: None,
        abort_reason: None,
    });
    let ready = Condvar::new();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                worker_loop(
                    plan,
                    executor,
                    cfg,
                    &state,
                    &ready,
                    &budget,
                    &cancel,
                    &prior_failures,
                    &in_flight,
                )
            });
        }
    });

    let mut state = state.into_inner().unwrap_or_else(|p| p.into_inner());
    if let Some(fatal) = state.fatal.take() {
        return Err(fatal);
    }
    let nodes: Vec<NodeReport> = plan
        .spec
        .nodes
        .iter()
        .zip(state.done.iter())
        .map(|(node, d)| {
            let d = d.clone().unwrap_or(NodeDone {
                outcome: outcome::SKIPPED.into(),
                evaluations: 0,
                attempts: 0,
                best_cost: None,
                best_config: Vec::new(),
                reason: Some("scheduler never reached this node".into()),
            });
            NodeReport {
                node: node.name.clone(),
                outcome: d.outcome,
                evaluations: d.evaluations,
                attempts: d.attempts,
                best_cost: d.best_cost,
                best_config: d.best_config,
                reason: d.reason,
            }
        })
        .collect();
    let total_evaluations = nodes.iter().map(|r| r.evaluations).sum();
    let budget_exhausted = nodes.iter().any(|r| r.outcome == outcome::BUDGET_EXHAUSTED);
    Ok(CampaignReport {
        campaign: plan.spec.campaign.clone(),
        nodes,
        total_evaluations,
        budget_exhausted,
    })
}

enum Pick {
    Claim(usize),
    Wait,
    Finished,
}

/// Settles every node that can terminal-ize without running (skips,
/// budget denials), then picks the lowest-index runnable node.
fn settle_and_pick(
    plan: &CampaignPlan,
    cfg: &RunConfig,
    s: &mut RunnerState,
    budget: &Option<Arc<CampaignBudget>>,
    cancel: &AtomicBool,
) -> Pick {
    loop {
        if s.fatal.is_some() {
            return Pick::Finished;
        }
        let mut settled = false;
        let mut claim = None;
        for i in 0..plan.spec.nodes.len() {
            if s.st[i] != St::Pending {
                continue;
            }
            let name = &plan.spec.nodes[i].name;
            if cancel.load(Ordering::Relaxed) {
                let reason = s
                    .abort_reason
                    .clone()
                    .unwrap_or_else(|| "campaign aborted".into());
                cfg.trace.emit(&TraceEvent::campaign_skip(name, &reason));
                finish(
                    cfg,
                    s,
                    i,
                    name,
                    NodeDone {
                        outcome: outcome::SKIPPED.into(),
                        evaluations: 0,
                        attempts: 0,
                        best_cost: None,
                        best_config: Vec::new(),
                        reason: Some(reason),
                    },
                );
                settled = true;
                continue;
            }
            if budget.as_ref().is_some_and(|b| b.exhausted()) {
                let spent = budget.as_ref().map(|b| b.spent()).unwrap_or(0);
                cfg.trace.emit(&TraceEvent::campaign_budget(name, spent));
                finish(
                    cfg,
                    s,
                    i,
                    name,
                    NodeDone {
                        outcome: outcome::BUDGET_EXHAUSTED.into(),
                        evaluations: 0,
                        attempts: 0,
                        best_cost: None,
                        best_config: Vec::new(),
                        reason: Some("campaign budget exhausted before start".into()),
                    },
                );
                settled = true;
                continue;
            }
            let mut blocked = false;
            let mut skip_reason = None;
            for &dep in &plan.deps[i] {
                match s.st[dep] {
                    St::Done => {
                        let d = s.done[dep].as_ref().expect("done node has a result");
                        if d.outcome != outcome::COMPLETED {
                            skip_reason = Some(format!(
                                "dependency `{}` {}",
                                plan.spec.nodes[dep].name, d.outcome
                            ));
                            break;
                        }
                    }
                    _ => blocked = true,
                }
            }
            if let Some(reason) = skip_reason {
                cfg.trace.emit(&TraceEvent::campaign_skip(name, &reason));
                finish(
                    cfg,
                    s,
                    i,
                    name,
                    NodeDone {
                        outcome: outcome::SKIPPED.into(),
                        evaluations: 0,
                        attempts: 0,
                        best_cost: None,
                        best_config: Vec::new(),
                        reason: Some(reason),
                    },
                );
                settled = true;
                continue;
            }
            if !blocked && claim.is_none() {
                claim = Some(i);
            }
        }
        if settled {
            continue;
        }
        if let Some(i) = claim {
            return Pick::Claim(i);
        }
        if s.st.iter().any(|st| *st != St::Done) {
            return Pick::Wait;
        }
        return Pick::Finished;
    }
}

fn finish(cfg: &RunConfig, s: &mut RunnerState, i: usize, name: &str, d: NodeDone) {
    cfg.trace.emit(&TraceEvent::campaign_node(
        name,
        &d.outcome,
        d.evaluations,
        d.attempts,
    ));
    s.journal_append(finished_entry(name, &d));
    s.done[i] = Some(d);
    s.st[i] = St::Done;
}

#[allow(clippy::too_many_arguments)]
fn worker_loop<E: NodeExecutor>(
    plan: &CampaignPlan,
    executor: &E,
    cfg: &RunConfig,
    state: &Mutex<RunnerState>,
    ready: &Condvar,
    budget: &Option<Arc<CampaignBudget>>,
    cancel: &Arc<AtomicBool>,
    prior_failures: &[u32],
    in_flight: &[bool],
) {
    let mut guard = state.lock().unwrap_or_else(|p| p.into_inner());
    loop {
        match settle_and_pick(plan, cfg, &mut guard, budget, cancel) {
            Pick::Finished => {
                ready.notify_all();
                return;
            }
            Pick::Wait => {
                guard = ready.wait(guard).unwrap_or_else(|p| p.into_inner());
            }
            Pick::Claim(i) => {
                guard.st[i] = St::Running;
                drop(guard);
                let d = run_node(
                    plan,
                    executor,
                    cfg,
                    state,
                    i,
                    budget,
                    cancel,
                    prior_failures[i],
                    in_flight[i],
                );
                guard = state.lock().unwrap_or_else(|p| p.into_inner());
                if let Some(d) = d {
                    let name = &plan.spec.nodes[i].name;
                    finish(cfg, &mut guard, i, name, d);
                }
                // On None (fatal mid-node) the node stays Running; the
                // report is never built — run_campaign returns the fatal.
                ready.notify_all();
            }
        }
    }
}

/// Runs one node through its retry policy. Returns `None` when a fatal
/// error was recorded (campaign run must stop). Called without the state
/// lock; takes it briefly for each journal write.
#[allow(clippy::too_many_arguments)]
fn run_node<E: NodeExecutor>(
    plan: &CampaignPlan,
    executor: &E,
    cfg: &RunConfig,
    state: &Mutex<RunnerState>,
    i: usize,
    budget: &Option<Arc<CampaignBudget>>,
    cancel: &Arc<AtomicBool>,
    prior_failures: u32,
    resume_in_flight: bool,
) -> Option<NodeDone> {
    let node = &plan.spec.nodes[i];
    let policy = plan.policies[i];
    let mut attempt = prior_failures + 1;
    let mut resume = resume_in_flight;
    loop {
        {
            let mut s = state.lock().unwrap_or_else(|p| p.into_inner());
            s.journal_append(CampaignJournalEntry {
                seq: 0,
                event: "started".into(),
                node: node.name.clone(),
                attempt: Some(attempt),
                outcome: None,
                evaluations: None,
                best_cost: None,
                best_config: None,
                reason: None,
            });
            if s.fatal.is_some() {
                return None;
            }
        }
        let hooks = CampaignHooks::for_node(budget.clone(), Some(Arc::clone(cancel)));
        let ctx = NodeContext {
            node_index: i,
            attempt,
            resume,
            hooks: hooks.clone(),
        };
        match executor.execute(node, &ctx) {
            Ok(run) => {
                let out = if hooks.budget_fired() {
                    cfg.trace.emit(&TraceEvent::campaign_budget(
                        &node.name,
                        budget.as_ref().map(|b| b.spent()).unwrap_or(0),
                    ));
                    outcome::BUDGET_EXHAUSTED
                } else if hooks.cancel_fired() {
                    outcome::SKIPPED
                } else {
                    outcome::COMPLETED
                };
                let reason = match out {
                    outcome::BUDGET_EXHAUSTED => Some("campaign budget exhausted".to_string()),
                    outcome::SKIPPED => {
                        let s = state.lock().unwrap_or_else(|p| p.into_inner());
                        Some(
                            s.abort_reason
                                .clone()
                                .unwrap_or_else(|| "campaign aborted".into()),
                        )
                    }
                    _ => None,
                };
                return Some(NodeDone {
                    outcome: out.into(),
                    evaluations: run.evaluations,
                    attempts: attempt,
                    best_cost: run.best_cost,
                    best_config: run.best_config,
                    reason,
                });
            }
            Err(NodeError::Fatal(m)) => {
                let mut s = state.lock().unwrap_or_else(|p| p.into_inner());
                if s.fatal.is_none() {
                    s.fatal = Some(CampaignError::Fatal(m));
                }
                return None;
            }
            Err(failure) => {
                let (label, message) = match failure {
                    NodeError::Failed(m) => (outcome::FAILED, m),
                    NodeError::Overloaded(m) => (outcome::OVERLOADED, m),
                    NodeError::Fatal(_) => unreachable!("handled above"),
                };
                if let FailurePolicy::Retry {
                    retries,
                    backoff_ms,
                } = policy
                {
                    if attempt <= retries {
                        {
                            let mut s = state.lock().unwrap_or_else(|p| p.into_inner());
                            s.journal_append(CampaignJournalEntry {
                                seq: 0,
                                event: "attempt_failed".into(),
                                node: node.name.clone(),
                                attempt: Some(attempt),
                                outcome: None,
                                evaluations: None,
                                best_cost: None,
                                best_config: None,
                                reason: Some(message.clone()),
                            });
                            if s.fatal.is_some() {
                                return None;
                            }
                        }
                        std::thread::sleep(retry_backoff(&node.name, attempt, backoff_ms));
                        attempt += 1;
                        resume = false;
                        continue;
                    }
                }
                if policy == FailurePolicy::Abort {
                    cancel.store(true, Ordering::Relaxed);
                    let mut s = state.lock().unwrap_or_else(|p| p.into_inner());
                    if s.abort_reason.is_none() {
                        s.abort_reason = Some(format!("campaign aborted by `{}`", node.name));
                    }
                }
                return Some(NodeDone {
                    outcome: label.into(),
                    evaluations: 0,
                    attempts: attempt,
                    best_cost: None,
                    best_config: Vec::new(),
                    reason: Some(message),
                });
            }
        }
    }
}
