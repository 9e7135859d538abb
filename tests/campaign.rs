//! Crash-safe campaign orchestration (`atf_core::campaign`): validation
//! must reject malformed campaigns with structured errors before anything
//! runs, scheduling must be deterministic, failure policies must retry /
//! skip dependents / cancel in-flight nodes as declared, the shared budget
//! must never overspend by more than the in-flight window, and killing the
//! campaign at *any* point — any campaign-journal append boundary, or
//! mid-node after any number of evaluations — must resume to a final
//! report bit-identical to an uninterrupted run with zero re-execution of
//! completed nodes.

use atf_core::abort;
use atf_core::campaign::{
    load_campaign_journal, outcome, run_campaign, validate, BudgetSpec, CampaignError,
    CampaignSpec, ConfigValue, NodeContext, NodeError, NodeExecutor, NodeRun, NodeSpec, PolicySpec,
    RunConfig,
};
use atf_core::journal::checkpoint_path;
use atf_core::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "atf-it-campaign-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn node(name: &str, after: &[&str]) -> NodeSpec {
    NodeSpec {
        name: name.into(),
        spec: format!("{name}.json"),
        after: after.iter().map(|s| s.to_string()).collect(),
        on_failure: None,
    }
}

fn policy_node(name: &str, after: &[&str], policy: &str, retries: Option<u32>) -> NodeSpec {
    NodeSpec {
        on_failure: Some(PolicySpec {
            policy: policy.into(),
            retries,
            backoff_ms: Some(0),
        }),
        ..node(name, after)
    }
}

fn spec(campaign: &str, nodes: Vec<NodeSpec>) -> CampaignSpec {
    CampaignSpec {
        campaign: campaign.into(),
        nodes,
        budget: None,
        concurrency: Some(1),
    }
}

fn run_cfg(dir: &Path, resume: bool, kill_after_appends: Option<u64>) -> RunConfig {
    RunConfig {
        journal: Some(dir.join("campaign.journal")),
        resume,
        spec_hash: "test-spec-hash".into(),
        trace: Arc::new(NullSink),
        kill_after_appends,
    }
}

/// Synthetic node executor running *real* journaled tuning sessions: each
/// node exhaustively tunes an 8-point space (cost deterministic per node)
/// with a per-node run journal under the campaign's directory, honoring
/// the context's resume flag and campaign hooks exactly like the CLI's
/// local executor. Instrumented with execution and fresh-evaluation
/// counters, injectable attempt failures, and a mid-node kill hook.
struct TestExecutor {
    dir: PathBuf,
    space_end: u64,
    executions: Mutex<HashMap<String, u32>>,
    fresh_evals: AtomicU64,
    fail_attempts: HashMap<String, u32>,
    kill_in_node: Option<(String, u64)>,
    eval_delay_ms: HashMap<String, u64>,
    wait_for: HashMap<String, Arc<AtomicBool>>,
    signal_on_start: HashMap<String, Arc<AtomicBool>>,
}

impl TestExecutor {
    fn new(dir: &Path) -> Self {
        TestExecutor {
            dir: dir.to_path_buf(),
            space_end: 8,
            executions: Mutex::new(HashMap::new()),
            fresh_evals: AtomicU64::new(0),
            fail_attempts: HashMap::new(),
            kill_in_node: None,
            eval_delay_ms: HashMap::new(),
            wait_for: HashMap::new(),
            signal_on_start: HashMap::new(),
        }
    }

    fn executions_of(&self, node: &str) -> u32 {
        self.executions
            .lock()
            .unwrap()
            .get(node)
            .copied()
            .unwrap_or(0)
    }

    fn fresh_evals(&self) -> u64 {
        self.fresh_evals.load(Ordering::Relaxed)
    }
}

fn sorted_config(config: &Config) -> Vec<ConfigValue> {
    let mut out: Vec<ConfigValue> = config
        .iter()
        .map(|(name, value)| ConfigValue {
            name: name.to_string(),
            value: value.to_string(),
        })
        .collect();
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

impl NodeExecutor for TestExecutor {
    fn execute(&self, node: &NodeSpec, ctx: &NodeContext) -> Result<NodeRun, NodeError> {
        *self
            .executions
            .lock()
            .unwrap()
            .entry(node.name.clone())
            .or_default() += 1;
        if let Some(flag) = self.wait_for.get(&node.name) {
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        if let Some(&k) = self.fail_attempts.get(&node.name) {
            if ctx.attempt <= k {
                return Err(NodeError::Failed(format!(
                    "injected failure (attempt {})",
                    ctx.attempt
                )));
            }
        }

        let journal = self.dir.join(format!("{}.run.journal", node.name));
        if !ctx.resume {
            std::fs::remove_file(&journal).ok();
            std::fs::remove_file(checkpoint_path(&journal)).ok();
        }
        let group = ParamGroup::new(vec![tp("X", Range::interval(1, self.space_end))]);
        let space = SearchSpace::generate(&[group]);
        let base = abort::evaluations(self.space_end);
        let mut session = TuningSession::<f64>::new(space, Box::new(Exhaustive::new()))
            .map_err(|e| NodeError::Failed(e.to_string()))?
            .abort_condition(ctx.hooks.wrap_abort(base));
        if ctx.resume && journal.exists() {
            session
                .resume_from_journal(&journal)
                .map_err(|e| NodeError::Failed(e.to_string()))?;
        } else {
            session = session
                .journal_to(&journal)
                .map_err(|e| NodeError::Failed(e.to_string()))?;
        }

        let kill_at = self
            .kill_in_node
            .as_ref()
            .filter(|(n, _)| *n == node.name)
            .map(|(_, evals)| *evals);
        if kill_at == Some(0) {
            return Err(NodeError::Fatal(
                "injected kill before first evaluation".into(),
            ));
        }
        let salt = node.name.bytes().map(u64::from).sum::<u64>() % 5;
        let mut cf = cost_fn(move |c: &Config| {
            let x = c.get_u64("X");
            ((x * 7 + salt) % 13) as f64
        });
        let delay = self.eval_delay_ms.get(&node.name).copied();
        let mut fresh = 0u64;
        while let Some(config) = session.next_config() {
            if let Some(flag) = self.signal_on_start.get(&node.name) {
                flag.store(true, Ordering::Relaxed);
            }
            if let Some(ms) = delay {
                std::thread::sleep(Duration::from_millis(ms));
            }
            let outcome = cf.evaluate(&config);
            session
                .report(outcome)
                .map_err(|e| NodeError::Failed(e.to_string()))?;
            self.fresh_evals.fetch_add(1, Ordering::Relaxed);
            fresh += 1;
            if kill_at == Some(fresh) {
                return Err(NodeError::Fatal(format!(
                    "injected kill after {fresh} fresh evaluations"
                )));
            }
        }
        match session.finish() {
            Ok(r) => Ok(NodeRun {
                evaluations: r.evaluations,
                best_cost: Some(r.best_cost),
                best_config: sorted_config(&r.best_config),
            }),
            Err(TuningError::NoValidConfiguration { evaluations })
                if ctx.hooks.budget_fired() || ctx.hooks.cancel_fired() =>
            {
                Ok(NodeRun {
                    evaluations,
                    best_cost: None,
                    best_config: Vec::new(),
                })
            }
            Err(e) => Err(NodeError::Failed(e.to_string())),
        }
    }
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// `validate` rejects cyclic and malformed campaigns with structured
/// errors naming the offending nodes — and, taking no executor at all,
/// cannot spawn a single evaluation doing so.
#[test]
fn validation_rejects_malformed_campaigns_with_structured_errors() {
    let cyclic = spec("c", vec![node("a", &["b"]), node("b", &["a"])]);
    match validate(&cyclic) {
        Err(CampaignError::Cycle(names)) => {
            assert!(names.contains(&"a".to_string()) && names.contains(&"b".to_string()));
        }
        other => panic!("expected Cycle, got {other:?}"),
    }

    let unknown = spec("c", vec![node("a", &["ghost"])]);
    match validate(&unknown) {
        Err(CampaignError::UnknownDependency { node, dependency }) => {
            assert_eq!(node, "a");
            assert_eq!(dependency, "ghost");
        }
        other => panic!("expected UnknownDependency, got {other:?}"),
    }

    // A self-reference is an unknown dependency, not a 1-cycle surprise.
    let selfref = spec("c", vec![node("a", &["a"])]);
    assert!(matches!(
        validate(&selfref),
        Err(CampaignError::UnknownDependency { .. })
    ));

    let dup = spec("c", vec![node("a", &[]), node("a", &[])]);
    match validate(&dup) {
        Err(CampaignError::DuplicateNode(name)) => assert_eq!(name, "a"),
        other => panic!("expected DuplicateNode, got {other:?}"),
    }

    let bad_policy = spec("c", vec![policy_node("a", &[], "explode", None)]);
    match validate(&bad_policy) {
        Err(CampaignError::Policy { node, message }) => {
            assert_eq!(node, "a");
            assert!(message.contains("explode"));
        }
        other => panic!("expected Policy, got {other:?}"),
    }

    let mut zero_budget = spec("c", vec![node("a", &[])]);
    zero_budget.budget = Some(BudgetSpec {
        evaluations: Some(0),
        wall_clock_secs: None,
    });
    assert!(matches!(
        validate(&zero_budget),
        Err(CampaignError::Spec(_))
    ));

    let mut zero_workers = spec("c", vec![node("a", &[])]);
    zero_workers.concurrency = Some(0);
    assert!(matches!(
        validate(&zero_workers),
        Err(CampaignError::Spec(_))
    ));

    assert!(matches!(
        CampaignSpec::from_json("{ not json"),
        Err(CampaignError::Spec(_))
    ));
    assert!(matches!(
        validate(&spec("c", vec![])),
        Err(CampaignError::Spec(_))
    ));
}

// ---------------------------------------------------------------------------
// Scheduling and policies
// ---------------------------------------------------------------------------

/// A diamond DAG with two concurrent middle nodes completes with every
/// node run exactly once, and two independent invocations produce
/// bit-identical reports.
#[test]
fn a_diamond_campaign_completes_deterministically() {
    let mut diamond = spec(
        "diamond",
        vec![
            node("a", &[]),
            node("b", &["a"]),
            node("c", &["a"]),
            node("d", &["b", "c"]),
        ],
    );
    diamond.concurrency = Some(2);
    let plan = validate(&diamond).unwrap();

    let run = || {
        let dir = fresh_dir("diamond");
        let exec = TestExecutor::new(&dir);
        let report = run_campaign(&plan, &exec, &run_cfg(&dir, false, None)).unwrap();
        for name in ["a", "b", "c", "d"] {
            assert_eq!(
                exec.executions_of(name),
                1,
                "node `{name}` runs exactly once"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
        report
    };
    let first = run();
    let second = run();
    assert_eq!(first.to_json(), second.to_json());
    assert!(first.nodes.iter().all(|n| n.outcome == outcome::COMPLETED));
    assert_eq!(first.total_evaluations, 32);
    assert!(!first.budget_exhausted);
    // Best cost/config survive into the report for every completed node.
    assert!(first.nodes.iter().all(|n| n.best_cost.is_some()));
    assert!(first.nodes.iter().all(|n| n.best_config.len() == 1));
}

/// A failing node under `continue` skips its dependents transitively,
/// each with a reason naming the dependency that sank it — and the
/// skipped nodes are never executed.
#[test]
fn failed_dependencies_skip_dependents_transitively() {
    let chain = spec(
        "skip",
        vec![
            policy_node("a", &[], "continue", None),
            node("b", &["a"]),
            node("c", &["b"]),
            node("d", &[]),
        ],
    );
    let plan = validate(&chain).unwrap();
    let dir = fresh_dir("skip");
    let mut exec = TestExecutor::new(&dir);
    exec.fail_attempts.insert("a".into(), u32::MAX);
    let report = run_campaign(&plan, &exec, &run_cfg(&dir, false, None)).unwrap();

    assert_eq!(report.nodes[0].outcome, outcome::FAILED);
    assert_eq!(report.nodes[0].attempts, 1);
    assert_eq!(report.nodes[1].outcome, outcome::SKIPPED);
    assert_eq!(
        report.nodes[1].reason.as_deref(),
        Some("dependency `a` failed")
    );
    assert_eq!(report.nodes[2].outcome, outcome::SKIPPED);
    assert_eq!(
        report.nodes[2].reason.as_deref(),
        Some("dependency `b` skipped")
    );
    assert_eq!(report.nodes[3].outcome, outcome::COMPLETED);
    assert_eq!(exec.executions_of("b"), 0);
    assert_eq!(exec.executions_of("c"), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// `retry` re-runs a flaky node (recording the attempts consumed) and,
/// once retries are exhausted, records the failure and continues.
#[test]
fn retry_policy_reruns_flaky_nodes_and_records_attempts() {
    let flaky = spec(
        "retry",
        vec![
            policy_node("heals", &[], "retry", Some(3)),
            policy_node("hopeless", &[], "retry", Some(1)),
        ],
    );
    let plan = validate(&flaky).unwrap();
    let dir = fresh_dir("retry");
    let mut exec = TestExecutor::new(&dir);
    exec.fail_attempts.insert("heals".into(), 2);
    exec.fail_attempts.insert("hopeless".into(), u32::MAX);
    let report = run_campaign(&plan, &exec, &run_cfg(&dir, false, None)).unwrap();

    assert_eq!(report.nodes[0].outcome, outcome::COMPLETED);
    assert_eq!(report.nodes[0].attempts, 3);
    assert_eq!(exec.executions_of("heals"), 3);
    assert_eq!(report.nodes[1].outcome, outcome::FAILED);
    assert_eq!(report.nodes[1].attempts, 2, "1 try + 1 retry");
    assert!(report.nodes[1]
        .reason
        .as_deref()
        .is_some_and(|r| r.contains("injected failure")));
    std::fs::remove_dir_all(&dir).ok();
}

/// An `abort` failure cancels an in-flight node at its next handout: the
/// cancelled node lands as `skipped` with the aborting node named in its
/// reason, partway through its space.
#[test]
fn abort_policy_cancels_inflight_nodes_at_the_next_handout() {
    let started = Arc::new(AtomicBool::new(false));
    let mut racing = spec("abort", vec![node("slow", &[]), node("boom", &[])]);
    racing.concurrency = Some(2);
    let plan = validate(&racing).unwrap();
    let dir = fresh_dir("abort");
    let mut exec = TestExecutor::new(&dir);
    exec.space_end = 50;
    exec.eval_delay_ms.insert("slow".into(), 2);
    exec.signal_on_start
        .insert("slow".into(), Arc::clone(&started));
    exec.wait_for.insert("boom".into(), started);
    exec.fail_attempts.insert("boom".into(), u32::MAX);
    let report = run_campaign(&plan, &exec, &run_cfg(&dir, false, None)).unwrap();

    let slow = &report.nodes[0];
    assert_eq!(slow.outcome, outcome::SKIPPED);
    assert_eq!(slow.reason.as_deref(), Some("campaign aborted by `boom`"));
    assert!(
        slow.evaluations > 0 && slow.evaluations < 50,
        "cancel must cut the run mid-space, got {} evaluations",
        slow.evaluations
    );
    assert_eq!(report.nodes[1].outcome, outcome::FAILED);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Budget
// ---------------------------------------------------------------------------

fn budget_spec() -> CampaignSpec {
    let mut s = spec(
        "budget",
        vec![node("a", &[]), node("b", &[]), node("c", &[])],
    );
    s.budget = Some(BudgetSpec {
        evaluations: Some(10),
        wall_clock_secs: None,
    });
    s
}

/// A serial campaign with evaluation budget B admits exactly B handouts:
/// the node caught mid-run is cut and recorded `budget_exhausted` (not an
/// error), nodes behind it are denied without running, and the overall
/// report carries the exhaustion flag.
#[test]
fn budget_is_enforced_at_handout_granularity() {
    let plan = validate(&budget_spec()).unwrap();
    let dir = fresh_dir("budget");
    let exec = TestExecutor::new(&dir);
    let report = run_campaign(&plan, &exec, &run_cfg(&dir, false, None)).unwrap();

    assert_eq!(report.nodes[0].outcome, outcome::COMPLETED);
    assert_eq!(report.nodes[0].evaluations, 8);
    assert_eq!(report.nodes[1].outcome, outcome::BUDGET_EXHAUSTED);
    assert_eq!(report.nodes[1].evaluations, 2);
    assert_eq!(
        report.nodes[1].reason.as_deref(),
        Some("campaign budget exhausted")
    );
    assert_eq!(report.nodes[2].outcome, outcome::BUDGET_EXHAUSTED);
    assert_eq!(report.nodes[2].evaluations, 0);
    assert_eq!(report.nodes[2].attempts, 0);
    assert_eq!(
        report.nodes[2].reason.as_deref(),
        Some("campaign budget exhausted before start")
    );
    assert_eq!(report.total_evaluations, 10);
    assert!(report.budget_exhausted);
    assert_eq!(exec.fresh_evals(), 10, "a serial campaign admits exactly B");
    std::fs::remove_dir_all(&dir).ok();
}

/// With C nodes in flight (window W = 1 each), total spend never exceeds
/// B + C·W, and every node terminal-izes as completed or budget_exhausted.
#[test]
fn concurrent_budget_overspend_is_bounded_by_the_inflight_window() {
    let mut wide = spec(
        "budget-wide",
        vec![
            node("n1", &[]),
            node("n2", &[]),
            node("n3", &[]),
            node("n4", &[]),
        ],
    );
    wide.concurrency = Some(4);
    wide.budget = Some(BudgetSpec {
        evaluations: Some(10),
        wall_clock_secs: None,
    });
    let plan = validate(&wide).unwrap();
    let dir = fresh_dir("budget-wide");
    let exec = TestExecutor::new(&dir);
    let report = run_campaign(&plan, &exec, &run_cfg(&dir, false, None)).unwrap();

    assert!(
        exec.fresh_evals() <= 10 + 4,
        "spent {} evaluations against a budget of 10 with 4 single-slot nodes in flight",
        exec.fresh_evals()
    );
    assert!(report.budget_exhausted);
    assert!(report
        .nodes
        .iter()
        .all(|n| { n.outcome == outcome::COMPLETED || n.outcome == outcome::BUDGET_EXHAUSTED }));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Kill -9 and resume
// ---------------------------------------------------------------------------

/// The reference campaign for crash testing: a chain with a flaky middle
/// node (fails its first attempt, succeeds on retry) so kills land on
/// every interesting journal event — starts, attempt failures, finishes.
fn chain_spec() -> CampaignSpec {
    spec(
        "chain",
        vec![
            node("a", &[]),
            policy_node("b", &["a"], "retry", Some(2)),
            node("c", &["b"]),
        ],
    )
}

fn chain_executor(dir: &Path) -> TestExecutor {
    let mut exec = TestExecutor::new(dir);
    exec.fail_attempts.insert("b".into(), 1);
    exec
}

/// Uninterrupted reference: report JSON + total fresh evaluations.
fn chain_baseline() -> &'static (String, u64) {
    static BASELINE: OnceLock<(String, u64)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let dir = fresh_dir("chain-baseline");
        let exec = chain_executor(&dir);
        let plan = validate(&chain_spec()).unwrap();
        let report = run_campaign(&plan, &exec, &run_cfg(&dir, false, None)).unwrap();
        let evals = exec.fresh_evals();
        assert_eq!(
            evals, 24,
            "3 nodes × 8 evaluations (the failed attempt measures none)"
        );
        std::fs::remove_dir_all(&dir).ok();
        (report.to_json(), evals)
    })
}

#[derive(Clone, Debug)]
enum Kill {
    /// Die at the n-th campaign-journal append boundary (nothing written).
    Journal(u64),
    /// Die inside node #i after that many fresh evaluations.
    MidNode(usize, u64),
}

fn kill_points() -> impl Strategy<Value = Kill> {
    // selector 3 = journal-append kill; 0..3 = mid-node kill in that node.
    (0usize..=3, 0u64..=8).prop_map(|(selector, evals)| match selector {
        3 => Kill::Journal(evals),
        node => Kill::MidNode(node, evals),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kill the campaign at a randomized point — any campaign-journal
    /// append boundary, or mid-node after any number of evaluations — then
    /// resume: the final report is bit-identical to the uninterrupted
    /// run's, completed nodes are not re-executed (execution counters stay
    /// zero), and the two runs together measure exactly the baseline's
    /// evaluation count (exactly-once across the crash).
    #[test]
    fn killed_campaigns_resume_bit_identically(kill in kill_points()) {
        let (baseline_json, baseline_evals) = chain_baseline().clone();
        let plan = validate(&chain_spec()).unwrap();
        let dir = fresh_dir("kill");
        let mut exec = chain_executor(&dir);
        let cfg = match &kill {
            Kill::Journal(k) => run_cfg(&dir, false, Some(*k)),
            Kill::MidNode(i, evals) => {
                let name = chain_spec().nodes[*i].name.clone();
                exec.kill_in_node = Some((name, *evals));
                run_cfg(&dir, false, None)
            }
        };
        let first = run_campaign(&plan, &exec, &cfg);
        let first_evals = exec.fresh_evals();

        let report = match first {
            // The kill point lies beyond the campaign's lifetime: the run
            // completed. Resuming the finished journal must be a pure
            // no-op replay.
            Ok(report) => {
                let resume_exec = chain_executor(&dir);
                let resumed =
                    run_campaign(&plan, &resume_exec, &run_cfg(&dir, true, None)).unwrap();
                prop_assert_eq!(&resumed.to_json(), &report.to_json());
                prop_assert_eq!(resume_exec.fresh_evals(), 0);
                report
            }
            Err(CampaignError::Fatal(_)) => {
                let journal = load_campaign_journal(dir.join("campaign.journal"))
                    .unwrap()
                    .expect("the killed run left a journal");
                let completed: Vec<String> = journal
                    .entries
                    .iter()
                    .filter(|e| {
                        e.event == "finished"
                            && e.outcome.as_deref() == Some(outcome::COMPLETED)
                    })
                    .map(|e| e.node.clone())
                    .collect();
                let resume_exec = chain_executor(&dir);
                let resumed =
                    run_campaign(&plan, &resume_exec, &run_cfg(&dir, true, None)).unwrap();
                for name in &completed {
                    prop_assert_eq!(
                        resume_exec.executions_of(name),
                        0,
                        "completed node `{}` was re-executed after resume",
                        name
                    );
                }
                prop_assert_eq!(
                    first_evals + resume_exec.fresh_evals(),
                    baseline_evals,
                    "evaluations must happen exactly once across the kill"
                );
                resumed
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error: {other}"))),
        };
        prop_assert_eq!(report.to_json(), baseline_json);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A budget-bound campaign killed at *every* journal append boundary
/// resumes bit-identically: restored nodes are pre-charged, the in-flight
/// node recharges itself during replay, and the budget cuts the resumed
/// run at exactly the same evaluation as the uninterrupted one.
#[test]
fn budget_campaigns_resume_with_spend_restored() {
    let plan = validate(&budget_spec()).unwrap();
    let baseline = {
        let dir = fresh_dir("budget-base");
        let exec = TestExecutor::new(&dir);
        let report = run_campaign(&plan, &exec, &run_cfg(&dir, false, None)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        report.to_json()
    };
    // The uninterrupted run writes 5 entries (started/finished a,
    // started/finished b, finished c); kill at every boundary, plus one
    // past the end (no kill at all).
    for kill in 0..=5u64 {
        let dir = fresh_dir("budget-kill");
        let exec = TestExecutor::new(&dir);
        match run_campaign(&plan, &exec, &run_cfg(&dir, false, Some(kill))) {
            Ok(report) => assert_eq!(report.to_json(), baseline, "kill point {kill}"),
            Err(CampaignError::Fatal(_)) => {
                let resume_exec = TestExecutor::new(&dir);
                let resumed =
                    run_campaign(&plan, &resume_exec, &run_cfg(&dir, true, None)).unwrap();
                assert_eq!(resumed.to_json(), baseline, "kill point {kill}");
            }
            Err(other) => panic!("kill point {kill}: unexpected error {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A torn tail on the campaign journal (garbage after the kill point) is
/// truncated on resume, and the resumed report still matches the
/// uninterrupted run.
#[test]
fn a_torn_campaign_journal_tail_resumes_cleanly() {
    let (baseline_json, _) = chain_baseline().clone();
    let plan = validate(&chain_spec()).unwrap();
    let dir = fresh_dir("torn");
    let exec = chain_executor(&dir);
    let err = run_campaign(&plan, &exec, &run_cfg(&dir, false, Some(4))).unwrap_err();
    assert!(matches!(err, CampaignError::Fatal(_)));

    let journal = dir.join("campaign.journal");
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .unwrap();
    f.write_all(b"{\"crc\":\"dead\",\"entry\":{\"torn garbage with no newline")
        .unwrap();
    drop(f);

    let resume_exec = chain_executor(&dir);
    let resumed = run_campaign(&plan, &resume_exec, &run_cfg(&dir, true, None)).unwrap();
    assert_eq!(resumed.to_json(), baseline_json);
    // The garbage was truncated before appending: the journal now loads
    // end to end.
    let reloaded = load_campaign_journal(&journal).unwrap().unwrap();
    assert_eq!(
        reloaded.intact_len,
        std::fs::metadata(&journal).unwrap().len()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Resuming against a different campaign (edited file → different spec
/// hash) is rejected with a structured mismatch instead of silently
/// diverging.
#[test]
fn resume_rejects_a_different_campaign_spec() {
    let plan = validate(&chain_spec()).unwrap();
    let dir = fresh_dir("mismatch");
    let exec = chain_executor(&dir);
    run_campaign(&plan, &exec, &run_cfg(&dir, false, None)).unwrap();

    let mut cfg = run_cfg(&dir, true, None);
    cfg.spec_hash = "a-different-hash".into();
    let resume_exec = chain_executor(&dir);
    match run_campaign(&plan, &resume_exec, &cfg) {
        Err(CampaignError::SpecMismatch { journal, expected }) => {
            assert!(journal.contains("test-spec-hash"));
            assert!(expected.contains("a-different-hash"));
        }
        other => panic!("expected SpecMismatch, got {other:?}"),
    }
    assert_eq!(
        resume_exec.fresh_evals(),
        0,
        "a rejected resume runs nothing"
    );
    std::fs::remove_dir_all(&dir).ok();
}
