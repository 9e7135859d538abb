//! What every workload shares: run parameters, the check ledger that feeds
//! `failed`/`attempted`, the shape of one measured run, and the driver that
//! turns a [`Workload`] into the end-to-end metrics.

use crate::stats::{self, BoxRun, Summary};
use crate::trace::Span;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// An untraced run is cut into this many rounds (a workload may choose
/// otherwise, see [`Workload::ROUNDS`]). Every round sets up afresh — a new
/// space, a new server, a new journal — and measures for its share of the
/// box; every metric is the median over the rounds. How fast a loop runs
/// depends on where its state happened to land (heap layout, thread
/// placement) and on what the host's other guests are doing that second:
/// ±15 % from one set-up to the next, which one long box on one set-up
/// would report as the program's speed.
pub const ROUNDS: u32 = 5;

/// Parameters of one invocation, all derived from the command line.
#[derive(Clone, Debug)]
pub struct Params {
    pub seed: u64,
    /// Length of the measured box.
    pub box_len: Duration,
    /// Smoke-test sizes: smaller spaces and fewer nodes, so the whole suite
    /// runs in seconds even unoptimised. Numbers from it mean nothing.
    pub quick: bool,
    /// Closed-loop load generators: `min(2, nproc)` threads / connections.
    pub clients: usize,
    /// Empty directory on the checkout's own filesystem for journals, WALs
    /// and db logs.
    pub scratch: PathBuf,
    /// Test hook: corrupts one expected value so the output check must fail.
    pub corrupt_expected: bool,
}

impl Params {
    /// Counts that are "per 10 s box" scale with the box, so `--quick` and
    /// the short traced boxes stay proportionate. Never below `min`.
    pub fn scaled(&self, per_ten_seconds: usize, min: usize) -> usize {
        ((per_ten_seconds as f64 * self.box_len.as_secs_f64() / 10.0) as usize).max(min)
    }
}

/// Ledger of operations and output checks. A failed or refused operation and
/// a failed check both count as `failed`; both kinds count as `attempted`.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the human reading the output.
    pub messages: Vec<String>,
}

impl Checks {
    /// Records `n` operations that succeeded.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records one failed or refused operation.
    pub fn failed_op(&mut self, what: String) {
        self.attempted += 1;
        self.fail(what);
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        self.messages.push(message);
        self.messages.truncate(8);
    }

    /// Folds a client thread's ledger into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(8);
    }
}

/// One measured run of a workload.
#[derive(Debug, Default)]
pub struct Run {
    /// Primary operations completed in the box (summed over clients).
    pub ops: u64,
    /// Wall of the box (the longest client's).
    pub wall: Duration,
    /// One latency sample per primary operation, microseconds.
    pub latencies_us: Vec<f64>,
    /// Read-side operations per second, measured after the box.
    pub read_ops_per_s: f64,
    /// Extra named numbers worth printing (not gated).
    pub extras: Vec<(&'static str, f64, &'static str)>,
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
}

impl Run {
    pub fn from_box(b: BoxRun) -> Run {
        Run {
            ops: b.ops(),
            wall: b.wall,
            latencies_us: b.latencies_us,
            ..Run::default()
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }
}

/// A named workload: seeded set-up, then a time-boxed measured run.
pub trait Workload {
    const NAME: &'static str;
    /// What one primary operation is, and what the read-side operation is.
    const OP: &'static str;
    const READ_OP: &'static str;
    type State;
    /// Rounds of an untraced run (see [`ROUNDS`]).
    const ROUNDS: u32 = ROUNDS;
    /// Idle time between two rounds. A loop that never leaves the CPU runs
    /// at the speed the host gives it, and that speed holds for seconds to
    /// tens of seconds at a time; rounds spaced over a longer stretch of
    /// wall time see more of those spells than back-to-back ones.
    const PAUSE: Duration = Duration::ZERO;
    /// Percentile reported as the latency tail; `None` is the highest one
    /// the round's sample count supports ([`stats::tail_percentile`]).
    const TAIL: Option<f64> = None;

    /// Builds inputs, oracle values and the system under test, and runs the
    /// warm-up operation. Timed as `setup_s`.
    fn setup(p: &Params, checks: &mut Checks) -> Self::State;

    /// The measured phase: a closed loop for `box_len`, then the read-side
    /// phase and the output checks. Consumes the state.
    fn run(state: Self::State, p: &Params, traced: bool, checks: &mut Checks) -> Run;
}

/// Runs set-up once and returns its state and wall.
pub fn timed_setup<W: Workload>(p: &Params, checks: &mut Checks) -> (W::State, f64) {
    // Every set-up starts from an empty scratch directory.
    std::fs::remove_dir_all(&p.scratch).ok();
    std::fs::create_dir_all(&p.scratch).expect("create scratch directory");
    let t0 = Instant::now();
    let state = W::setup(p, checks);
    (state, t0.elapsed().as_secs_f64())
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What one round measured.
struct Round {
    setup_s: f64,
    ops: u64,
    wall_s: f64,
    ops_per_s: f64,
    latency: Summary,
    /// `(percentile, value)` of the latency tail.
    tail: (f64, f64),
    read_ops_per_s: f64,
    extras: Vec<(&'static str, f64, &'static str)>,
}

/// Median over the rounds of one number of each.
fn over_rounds(rounds: &[Round], of: impl Fn(&Round) -> f64) -> f64 {
    stats::median(&rounds.iter().map(of).collect::<Vec<_>>())
}

/// The untraced run: `W::ROUNDS` rounds of set-up, measured box (a
/// `1/ROUNDS` share of `p.box_len`) and read side, and the end-to-end
/// metrics — medians over the rounds. `--quick` runs one round.
pub fn end_to_end<W: Workload>(p: &Params, checks: &mut Checks) -> Vec<Metric> {
    let n = if p.quick { 1 } else { W::ROUNDS };
    let per_round = Params {
        box_len: p.box_len / n,
        ..p.clone()
    };
    println!("{}: op = {}; read op = {}", W::NAME, W::OP, W::READ_OP);
    let mut rounds = Vec::with_capacity(n as usize);
    for i in 0..n {
        if i > 0 {
            std::thread::sleep(W::PAUSE);
        }
        let (state, setup_s) = timed_setup::<W>(&per_round, checks);
        let mut run = W::run(state, &per_round, false, checks);
        checks.check(run.ops > 0, || "no operation completed in the box".into());
        if run.latencies_us.is_empty() {
            return Vec::new();
        }
        let sorted = stats::sorted(std::mem::take(&mut run.latencies_us));
        let tail_p = W::TAIL.unwrap_or_else(|| stats::tail_percentile(sorted.len()));
        let round = Round {
            setup_s,
            ops: run.ops,
            wall_s: run.wall.as_secs_f64(),
            ops_per_s: run.ops_per_s(),
            latency: Summary::of(&sorted),
            tail: (tail_p, stats::quantile(&sorted, tail_p)),
            read_ops_per_s: run.read_ops_per_s,
            extras: run.extras,
        };
        println!(
            "  round {}: set-up {:.4} s, box {:.3} s, {} ops = {:.3}/s, latency n={} q1={:.3} \
             median={:.3} q3={:.3} p{:.0}={:.3} us, read {:.3}/s",
            i + 1,
            round.setup_s,
            round.wall_s,
            round.ops,
            round.ops_per_s,
            round.latency.n,
            round.latency.q1,
            round.latency.median,
            round.latency.q3,
            round.tail.0 * 100.0,
            round.tail.1,
            round.read_ops_per_s
        );
        rounds.push(round);
    }
    let setup = Summary::of(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    println!(
        "  set-up n={} q1={:.4} median={:.4} q3={:.4} s",
        setup.n, setup.q1, setup.median, setup.q3
    );
    for (name, _, unit) in &rounds[0].extras {
        let values: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.extras.iter().filter(|e| e.0 == *name).map(|e| e.1))
            .collect();
        println!("  {name} = {:.6} {unit}", stats::median(&values));
    }
    vec![
        ("setup_s".into(), setup.median, "s"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
        (
            "ops_per_s".into(),
            over_rounds(&rounds, |r| r.ops_per_s),
            "1/s",
        ),
        (
            "op_p50_us".into(),
            over_rounds(&rounds, |r| r.latency.median),
            "us",
        ),
        (
            "op_tail_us".into(),
            over_rounds(&rounds, |r| r.tail.1),
            "us",
        ),
        (
            "read_ops_per_s".into(),
            over_rounds(&rounds, |r| r.read_ops_per_s),
            "1/s",
        ),
    ]
}

/// Read side shared by `spacegen_xgemm` and `tune_mem`: `blocks` timed blocks
/// of `per_block` seeded-random `SearchSpace::get`; returns nanoseconds per
/// `get`, one value per block.
pub fn random_get_ns(
    space: &atf_core::space::SearchSpace,
    seed: u64,
    blocks: usize,
    per_block: usize,
    tracer: &mut crate::trace::Tracer,
) -> Vec<f64> {
    (0..blocks)
        .map(|block| {
            let indices = crate::inputs::random_indices(seed, block as u64, per_block, space.len());
            let id = tracer.begin("space.get_block", crate::trace::NO_PARENT, block as u64);
            let t0 = Instant::now();
            let mut fold = 0u64;
            for &i in &indices {
                fold ^= space.get(i).get_u64("WGD");
            }
            let wall = t0.elapsed();
            tracer.end(id);
            std::hint::black_box(fold);
            wall.as_secs_f64() * 1e9 / per_block as f64
        })
        .collect()
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// Current resident set in MiB.
pub fn rss_mb() -> f64 {
    proc_status_kb("VmRSS:") / 1024.0
}

fn proc_status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_failures_against_attempts() {
        let mut c = Checks::default();
        c.ops(10);
        c.check(true, || unreachable!());
        c.check(false, || "expected 1 got 2".into());
        c.failed_op("refused".into());
        assert_eq!((c.attempted, c.failed), (13, 2));
        assert_eq!(c.messages, vec!["expected 1 got 2", "refused"]);
        let mut d = Checks::default();
        d.absorb(c);
        assert_eq!((d.attempted, d.failed), (13, 2));
    }

    #[test]
    fn rss_is_readable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_mb() > 0.0);
    }
}
