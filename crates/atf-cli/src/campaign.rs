//! Campaign execution for the CLI: node executors (local and
//! service-mode), campaign-file loading/validation, the state directory
//! layout, and report rendering.
//!
//! Layout under the state directory (default `<campaign file>.state/`):
//!
//! ```text
//! campaign.journal       the campaign's write-ahead log
//! <node>.run.journal     each local node's per-run journal (+ checkpoint)
//! report.json            the final report, written atomically
//! ```
//!
//! Crash-safety split: the campaign journal records node lifecycles
//! (`started` / `attempt_failed` / `finished`); each node's evaluation
//! stream lives in its own run journal. On resume, finished nodes are
//! restored verbatim from the campaign journal alone; a node that was in
//! flight replays its run journal through the normal session resume path.

use crate::{
    run_remote_with, run_with, CliError, CliOutcome, RunOptions, TuningSpec,
    DEFAULT_RECONNECT_BACKOFF,
};
use atf_core::campaign::{
    self, outcome, CampaignPlan, CampaignReport, CampaignSpec, ConfigValue, NodeContext, NodeError,
    NodeExecutor, NodeRun, NodeSpec, RunConfig,
};
use atf_core::trace::{FileSink, NullSink, TraceSink};
use atf_core::tuner::TuningError;
use atf_core::wal;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Options for `atf-tune campaign`.
#[derive(Clone, Debug, Default)]
pub struct CampaignOptions {
    /// State directory (campaign journal, per-node run journals, report);
    /// default `<campaign file>.state/`.
    pub state_dir: Option<PathBuf>,
    /// Resume from the campaign journal when it exists.
    pub resume: bool,
    /// Run nodes against this service address instead of locally.
    pub addr: Option<String>,
    /// Per-node run options (timeout, retries, workers, ...). The
    /// campaign supplies `journal`, `resume`, and `campaign` per node.
    pub node_opts: RunOptions,
    /// Structured trace file for campaign events (plus each local node's
    /// session events).
    pub trace: Option<PathBuf>,
    /// Override the campaign file's `concurrency`.
    pub concurrency: Option<usize>,
    /// Chaos hook (hidden `--kill-after-appends` flag): die fatally after
    /// this many campaign-journal appends, leaving on-disk state exactly
    /// as SIGKILL would — the deterministic half of crash testing.
    pub kill_after_appends: Option<u64>,
}

fn spec_err(e: campaign::CampaignError) -> CliError {
    CliError::Spec(e.to_string())
}

/// Loads and fully validates a campaign file: graph structure (duplicate
/// names, unknown references, cycles, policies) *and* every node's tuning
/// spec (existence, parameters, constraint strings, technique) — all
/// before anything executes. Returns the plan and the campaign file's
/// content hash (the journal identity).
pub fn load_campaign(
    path: &Path,
    concurrency: Option<usize>,
) -> Result<(CampaignPlan, String), CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Spec(format!("{}: {e}", path.display())))?;
    let mut spec = CampaignSpec::from_json(&text).map_err(spec_err)?;
    if let Some(c) = concurrency {
        spec.concurrency = Some(c);
    }
    let plan = campaign::validate(&spec).map_err(spec_err)?;
    let base = path.parent().unwrap_or(Path::new("."));
    for node in &plan.spec.nodes {
        let tuning = TuningSpec::load(base.join(&node.spec))
            .map_err(|e| CliError::Spec(format!("node `{}`: {e}", node.name)))?;
        tuning
            .build_params()
            .map_err(|e| CliError::Spec(format!("node `{}`: {e}", node.name)))?;
        tuning
            .build_technique()
            .map_err(|e| CliError::Spec(format!("node `{}`: {e}", node.name)))?;
    }
    Ok((plan, wal::content_hash(&text)))
}

/// The default state directory for a campaign file: a `.state` sibling.
pub fn default_state_dir(path: &Path) -> PathBuf {
    PathBuf::from(format!("{}.state", path.display()))
}

/// A node name as a safe file stem for its run-journal path.
fn file_stem(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn sorted_config(pairs: impl Iterator<Item = (String, String)>) -> Vec<ConfigValue> {
    let mut config: Vec<ConfigValue> = pairs
        .map(|(name, value)| ConfigValue { name, value })
        .collect();
    config.sort_by(|a, b| a.name.cmp(&b.name));
    config
}

fn node_run_from_outcome(o: &CliOutcome) -> NodeRun {
    NodeRun {
        evaluations: o.result.evaluations,
        best_cost: o.result.best_cost.first().copied(),
        best_config: sorted_config(
            o.result
                .best_config
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string())),
        ),
    }
}

/// Runs campaign nodes in this process through [`run_with`]: each node
/// gets its own run journal under the state directory, wired to the
/// campaign's budget/cancel hooks.
pub struct LocalExecutor {
    /// Node spec paths resolve relative to the campaign file.
    pub base_dir: PathBuf,
    /// Where per-node run journals live.
    pub state_dir: PathBuf,
    /// Base per-node options.
    pub opts: RunOptions,
}

impl NodeExecutor for LocalExecutor {
    fn execute(&self, node: &NodeSpec, ctx: &NodeContext) -> Result<NodeRun, NodeError> {
        let spec = TuningSpec::load(self.base_dir.join(&node.spec))
            .map_err(|e| NodeError::Failed(e.to_string()))?;
        let run_journal = self
            .state_dir
            .join(format!("{}.run.journal", file_stem(&node.name)));
        if !ctx.resume {
            // A fresh attempt (first try, or a retry after a failure) must
            // not resume the previous attempt's journal.
            let _ = std::fs::remove_file(&run_journal);
            let _ = std::fs::remove_file(wal::checkpoint_path(&run_journal));
        }
        let mut opts = self.opts.clone();
        opts.journal = Some(run_journal.clone());
        opts.resume = ctx.resume && run_journal.exists();
        opts.campaign = Some(ctx.hooks.clone());
        match run_with(&spec, &opts) {
            Ok(outcome) => Ok(node_run_from_outcome(&outcome)),
            // Cut by the budget or a campaign abort before anything valid
            // was measured: a campaign verdict, not a node failure.
            Err(CliError::Tuning(TuningError::NoValidConfiguration { evaluations }))
                if ctx.hooks.budget_fired() || ctx.hooks.cancel_fired() =>
            {
                Ok(NodeRun {
                    evaluations,
                    best_cost: None,
                    best_config: Vec::new(),
                })
            }
            Err(CliError::Overloaded(m)) => Err(NodeError::Overloaded(m)),
            Err(e) => Err(NodeError::Failed(e.to_string())),
        }
    }
}

/// Runs campaign nodes against a tuning service through
/// [`run_remote_with`]: the service owns the search and each node's run
/// journal; this process measures. A fresh reconnecting transport per
/// attempt keeps connection state out of the campaign layer; shedding is
/// absorbed by the transport's `retry_after_ms`-aware retries, and a shed
/// that outlives them surfaces as the node's `overloaded` outcome.
pub struct RemoteExecutor {
    /// Node spec paths resolve relative to the campaign file.
    pub base_dir: PathBuf,
    /// Service address.
    pub addr: String,
    /// Base per-node options.
    pub opts: RunOptions,
}

impl NodeExecutor for RemoteExecutor {
    fn execute(&self, node: &NodeSpec, ctx: &NodeContext) -> Result<NodeRun, NodeError> {
        let spec = TuningSpec::load(self.base_dir.join(&node.spec))
            .map_err(|e| NodeError::Failed(e.to_string()))?;
        let retries = self.opts.retries.max(3);
        let backoff = self
            .opts
            .reconnect_backoff
            .unwrap_or(DEFAULT_RECONNECT_BACKOFF);
        let transport = atf_service::ReconnectingTransport::tcp(&self.addr, retries, backoff);
        let mut client = atf_service::Client::new(transport);
        let mut opts = self.opts.clone();
        opts.journal = None;
        opts.resume = ctx.resume;
        opts.campaign = Some(ctx.hooks.clone());
        match run_remote_with(&spec, &mut client, &opts) {
            Ok(resp) => Ok(NodeRun {
                evaluations: resp.evaluations.unwrap_or(0),
                best_cost: resp.best_cost,
                // BTreeMap iteration is already name-sorted.
                best_config: resp
                    .best_config
                    .iter()
                    .flatten()
                    .map(|(n, v)| ConfigValue {
                        name: n.clone(),
                        value: v.to_string(),
                    })
                    .collect(),
            }),
            // A budget/cancel cut can leave the service with nothing valid
            // to report; that verdict belongs to the campaign layer.
            Err(_) if ctx.hooks.budget_fired() || ctx.hooks.cancel_fired() => Ok(NodeRun {
                evaluations: 0,
                best_cost: None,
                best_config: Vec::new(),
            }),
            Err(CliError::Overloaded(m)) => Err(NodeError::Overloaded(m)),
            Err(e) => Err(NodeError::Failed(e.to_string())),
        }
    }
}

/// Loads, validates, and executes a campaign file end to end; writes
/// `report.json` atomically into the state directory and returns the
/// report. With `opts.resume`, continues from the campaign journal.
pub fn run_campaign_file(path: &Path, opts: &CampaignOptions) -> Result<CampaignReport, CliError> {
    let (plan, spec_hash) = load_campaign(path, opts.concurrency)?;
    let state_dir = opts
        .state_dir
        .clone()
        .unwrap_or_else(|| default_state_dir(path));
    std::fs::create_dir_all(&state_dir)
        .map_err(|e| CliError::Campaign(format!("cannot create {}: {e}", state_dir.display())))?;
    let trace: Arc<dyn TraceSink> = match &opts.trace {
        Some(p) => Arc::new(FileSink::create(p).map_err(|e| {
            CliError::Spec(format!("cannot create trace file {}: {e}", p.display()))
        })?),
        None => Arc::new(NullSink),
    };
    let cfg = RunConfig {
        journal: Some(state_dir.join("campaign.journal")),
        resume: opts.resume,
        spec_hash,
        trace: Arc::clone(&trace),
        kill_after_appends: opts.kill_after_appends,
    };
    let base_dir = path.parent().unwrap_or(Path::new(".")).to_path_buf();
    let node_opts = opts.node_opts.clone();
    let report = match &opts.addr {
        Some(addr) => campaign::run_campaign(
            &plan,
            &RemoteExecutor {
                base_dir,
                addr: addr.clone(),
                opts: node_opts,
            },
            &cfg,
        ),
        None => campaign::run_campaign(
            &plan,
            &LocalExecutor {
                base_dir,
                state_dir: state_dir.clone(),
                opts: node_opts,
            },
            &cfg,
        ),
    }
    .map_err(|e| match e {
        campaign::CampaignError::SpecMismatch { .. } => spec_err(e),
        e => CliError::Campaign(e.to_string()),
    })?;
    trace.flush();

    // The report is the campaign's durable artifact: replaced atomically so
    // a crash never leaves a torn report next to a complete journal.
    let body = format!("{}\n", report.to_json());
    wal::replace_atomically(&state_dir.join("report.json"), |out| {
        out.write_all(body.as_bytes())
    })
    .map_err(|e| CliError::Campaign(format!("cannot write report: {e}")))?;
    Ok(report)
}

/// What `validate` / `--dry-run` print: the execution order, dependencies,
/// policies, and budget — everything the runner would do, minus doing it.
pub fn dry_run_summary(plan: &CampaignPlan) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "campaign:    {} ({} nodes, concurrency {})\n",
        plan.spec.campaign,
        plan.spec.nodes.len(),
        plan.spec.concurrency.unwrap_or(1)
    ));
    if let Some(b) = &plan.spec.budget {
        let mut parts = Vec::new();
        if let Some(e) = b.evaluations {
            parts.push(format!("{e} evaluations"));
        }
        if let Some(s) = b.wall_clock_secs {
            parts.push(format!("{s}s wall clock"));
        }
        out.push_str(&format!("budget:      {}\n", parts.join(", ")));
    }
    out.push_str("order:\n");
    for &i in &plan.order {
        let node = &plan.spec.nodes[i];
        let policy = match plan.policies[i] {
            campaign::FailurePolicy::Retry {
                retries,
                backoff_ms,
            } => {
                format!("retry x{retries} (backoff {backoff_ms}ms)")
            }
            campaign::FailurePolicy::Continue => "continue".to_string(),
            campaign::FailurePolicy::Abort => "abort".to_string(),
        };
        let after = if node.after.is_empty() {
            String::new()
        } else {
            format!("  after {}", node.after.join(", "))
        };
        out.push_str(&format!(
            "  {}  spec {}  on-failure {policy}{after}\n",
            node.name, node.spec
        ));
    }
    out
}

/// Renders the campaign report as the CLI's summary table.
pub fn summary_table(report: &CampaignReport) -> String {
    let mut rows: Vec<[String; 5]> = vec![[
        "node".into(),
        "outcome".into(),
        "evals".into(),
        "attempts".into(),
        "best cost / reason".into(),
    ]];
    for n in &report.nodes {
        let detail = match (&n.best_cost, &n.reason) {
            (Some(c), _) => format!("{c}"),
            (None, Some(r)) => r.clone(),
            (None, None) => String::new(),
        };
        rows.push([
            n.node.clone(),
            n.outcome.clone(),
            n.evaluations.to_string(),
            n.attempts.to_string(),
            detail,
        ]);
    }
    let mut widths = [0usize; 5];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for row in &rows {
        let line = row
            .iter()
            .enumerate()
            .map(|(i, cell)| format!("{cell:<w$}", w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ");
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out.push_str(&format!(
        "total: {} evaluations{}\n",
        report.total_evaluations,
        if report.budget_exhausted {
            " (budget exhausted)"
        } else {
            ""
        }
    ));
    out
}

/// The campaign's exit code: real node failure (1) outranks capacity
/// rejection (3) outranks everything else (0) — `budget_exhausted` and
/// `skipped` are recorded verdicts, not process failures.
pub fn exit_code(report: &CampaignReport) -> u8 {
    if report.nodes.iter().any(|n| n.outcome == outcome::FAILED) {
        1
    } else if report
        .nodes
        .iter()
        .any(|n| n.outcome == outcome::OVERLOADED)
    {
        3
    } else {
        0
    }
}
