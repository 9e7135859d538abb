//! `campaign_journal`: `run_campaign` over independent nodes with the
//! campaign WAL on (an fsync per record), concurrency 2, a fresh WAL per
//! repetition. The per-node work is a tiny exhaustive session, so the
//! scheduler and the WAL carry the time.

use crate::stats::{self, time_box};
use crate::trace::{Tracer, NO_PARENT};
use crate::workload::{Checks, Params, Run, Workload};
use atf_core::campaign::{
    run_campaign, validate, CampaignPlan, CampaignSpec, NodeContext, NodeError, NodeExecutor,
    NodeRun, NodeSpec, RunConfig,
};
use atf_core::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Evaluations per node (an exhaustive session over `X ∈ 1..=32`).
pub const NODE_SPACE: u64 = 32;
/// Repetitions of the read side (resume of a completed WAL, ≈3 ms each)
/// per 10 s box.
const RESUMES_PER_BOX: usize = 200;

pub struct CampaignJournal;

/// One small exhaustive session per node, with the campaign's budget and
/// cancel hooks threaded through the abort condition like the CLI executor.
/// `salt` seeds the cost landscape; `executed` counts executions.
pub struct SessionExecutor {
    pub salt: u64,
    pub executed: AtomicU64,
}

impl NodeExecutor for SessionExecutor {
    fn execute(&self, node: &NodeSpec, ctx: &NodeContext) -> Result<NodeRun, NodeError> {
        self.executed.fetch_add(1, Ordering::Relaxed);
        let group = ParamGroup::new(vec![tp("X", Range::interval(1, NODE_SPACE))]);
        let space = SearchSpace::generate(&[group]);
        let mut session = TuningSession::<f64>::new(space, Box::new(Exhaustive::new()))
            .map_err(|e| NodeError::Failed(e.to_string()))?
            .abort_condition(ctx.hooks.wrap_abort(abort::evaluations(NODE_SPACE)));
        let salt = (node.name.bytes().map(u64::from).sum::<u64>() + self.salt) % 7;
        while let Some(config) = session.next_config() {
            let cost = ((config.get_u64("X") * 13 + salt) % 31) as f64;
            session
                .report(Ok(cost))
                .map_err(|e| NodeError::Failed(e.to_string()))?;
        }
        match session.finish() {
            Ok(r) => Ok(NodeRun {
                evaluations: r.evaluations,
                best_cost: Some(r.best_cost),
                best_config: Vec::new(),
            }),
            Err(e) => Err(NodeError::Failed(e.to_string())),
        }
    }
}

/// `nodes` independent nodes at the given concurrency.
pub fn plan(nodes: usize, concurrency: usize) -> CampaignPlan {
    validate(&CampaignSpec {
        campaign: "atf-suite".into(),
        nodes: (0..nodes)
            .map(|i| NodeSpec {
                name: format!("node-{i:03}"),
                spec: format!("node-{i:03}.json"),
                after: Vec::new(),
                on_failure: None,
            })
            .collect(),
        budget: None,
        concurrency: Some(concurrency),
    })
    .expect("the benchmark campaign validates")
}

pub fn run_config(journal: Option<PathBuf>, resume: bool) -> RunConfig {
    RunConfig {
        journal,
        resume,
        spec_hash: "atf-suite".into(),
        ..RunConfig::default()
    }
}

pub struct State {
    plan: CampaignPlan,
    nodes: usize,
    executor: SessionExecutor,
    wal: PathBuf,
}

/// Nodes per campaign: 256, or 32 in smoke tests.
pub fn nodes(p: &Params) -> usize {
    if p.quick {
        32
    } else {
        256
    }
}

/// Runs the campaign once and checks its report; returns whether it held.
fn run_checked(state: &State, resume: bool, checks: &mut Checks) -> bool {
    let cfg = run_config(Some(state.wal.clone()), resume);
    let expected = state.nodes as u64 * NODE_SPACE;
    match run_campaign(&state.plan, &state.executor, &cfg) {
        Ok(report) => {
            let completed = report.nodes.iter().all(|n| n.outcome == "completed");
            checks.check(completed, || "a campaign node did not complete".into());
            checks.check(report.total_evaluations == expected, || {
                format!(
                    "campaign evaluated {} configurations, expected {expected}",
                    report.total_evaluations
                )
            });
            completed && report.total_evaluations == expected
        }
        Err(e) => {
            checks.failed_op(format!("campaign failed: {e}"));
            false
        }
    }
}

impl Workload for CampaignJournal {
    const NAME: &'static str = "campaign_journal";
    const OP: &'static str =
        "one node of a 256-node campaign (32-evaluation session), WAL on, concurrency 2";
    const READ_OP: &'static str = "one node restored by resuming the completed WAL";
    type State = State;

    fn setup(p: &Params, checks: &mut Checks) -> State {
        let nodes = nodes(p);
        let state = State {
            plan: plan(nodes, p.clients),
            nodes,
            executor: SessionExecutor {
                salt: p.seed,
                executed: AtomicU64::new(0),
            },
            wal: p.scratch.join("campaign.wal"),
        };
        // Warm-up operation: one full repetition.
        run_checked(&state, false, checks);
        state
    }

    fn run(mut state: State, p: &Params, traced: bool, checks: &mut Checks) -> Run {
        if p.corrupt_expected {
            state.nodes += 1;
        }
        let mut tracer = Tracer::new(traced, 65_536, Instant::now());
        let mut rep = 0u64;
        let boxed = time_box(p.box_len, || {
            rep += 1;
            // A fresh WAL per repetition.
            std::fs::remove_file(&state.wal).ok();
            tracer.scope("campaign.run_campaign", NO_PARENT, rep, || {
                run_checked(&state, false, checks)
            })
        });
        let nodes = state.plan.spec.nodes.len() as f64;
        checks.ops(boxed.ops() * nodes as u64);
        // Throughput counts nodes; a latency sample is one repetition's wall
        // per node (node latency inside `run_campaign` is not observable).
        let mut run = Run::from_box(boxed);
        run.extras.push(("repetitions", run.ops as f64, "count"));
        run.ops *= nodes as u64;
        for us in &mut run.latencies_us {
            *us /= nodes;
        }

        // Read side: resuming the completed WAL restores every node
        // without executing any.
        let executed_before = state.executor.executed.load(Ordering::Relaxed);
        let resumes = p.scaled(RESUMES_PER_BOX, 5);
        let mut rates = Vec::with_capacity(resumes);
        for i in 0..resumes {
            let id = tracer.begin("campaign.resume", NO_PARENT, i as u64);
            let t0 = Instant::now();
            let held = run_checked(&state, true, checks);
            let wall = t0.elapsed().as_secs_f64();
            tracer.end(id);
            if held {
                rates.push(nodes / wall);
            }
        }
        checks.ops(resumes as u64 * nodes as u64);
        let executed = state.executor.executed.load(Ordering::Relaxed) - executed_before;
        checks.check(executed == 0, || {
            format!("resume of a completed WAL re-executed {executed} nodes")
        });
        if !rates.is_empty() {
            run.read_ops_per_s = stats::median(&rates);
        }
        run.spans_dropped = tracer.dropped;
        run.spans = tracer.into_spans();
        run
    }
}
