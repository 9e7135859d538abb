//! `spacegen_xgemm`: generate the paper's full XgemmDirect space through
//! the entry point the CLI and the service use, then read it at random.
//! spacegen does all the work; session, journal and service do none.

use crate::inputs;
use crate::stats::{self, time_box};
use crate::trace::{Tracer, NO_PARENT};
use crate::workload::{random_get_ns, Checks, Params, Run, Workload};
use atf_core::prelude::*;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Every `STRIDE`-th configuration enters the oracle checksum.
const STRIDE: u64 = 997;
/// Random reads per 10 s box, in [`GET_BLOCKS`] timed blocks.
const GETS_PER_BOX: usize = 2_000_000;
const GET_BLOCKS: usize = 10;

pub struct SpacegenXgemm;

pub struct State {
    groups: Vec<ParamGroup>,
    /// `(len, checksum)` of the reference walk.
    oracle: (u128, u64),
    /// Wall of the discarded first `generate_parallel` of this set-up.
    pub first_call_s: f64,
}

/// WGD cap of the generated space: the paper's full space (4 662 308
/// configurations), or a 14 k one for smoke tests.
pub fn cap(p: &Params) -> u64 {
    if p.quick {
        16
    } else {
        clblast::xgemm_space::WGD_MAX
    }
}

/// The oracle: length and strided checksum of `GroupSpace::generate_reference`.
/// Runs in a child process (`atf-suite oracle CAP`) so the reference walk's
/// materialised copy never counts towards this process's peak RSS — a
/// smaller representation must be able to move `peak_rss_mb`.
pub fn oracle_main(cap: u64) {
    let groups = clblast::xgemm_space::atf_space_wgd_max(cap);
    let reference = GroupSpace::generate_reference(&groups[0]);
    let (len, sum) = inputs::checksum_reference(&reference, STRIDE);
    println!("{len} {sum}");
}

/// The oracle of this process, computed on first use: repeated set-ups
/// share it, so the median set-up is the product's part (the warm-up).
fn oracle_from_child(cap: u64) -> Result<(u128, u64), String> {
    static ORACLE: OnceLock<Result<(u128, u64), String>> = OnceLock::new();
    ORACLE.get_or_init(|| run_oracle_child(cap)).clone()
}

fn run_oracle_child(cap: u64) -> Result<(u128, u64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["oracle", &cap.to_string()])
        .output()
        .map_err(|e| format!("oracle child: {e}"))?;
    if !out.status.success() {
        return Err(format!("oracle child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut words = text.split_whitespace();
    match (
        words.next().and_then(|w| w.parse().ok()),
        words.next().and_then(|w| w.parse().ok()),
    ) {
        (Some(len), Some(sum)) => Ok((len, sum)),
        _ => Err(format!("oracle child printed {text:?}")),
    }
}

impl Workload for SpacegenXgemm {
    const NAME: &'static str = "spacegen_xgemm";
    const OP: &'static str = "one SearchSpace::generate_parallel of the full XgemmDirect space";
    const READ_OP: &'static str = "one seeded-random SearchSpace::get on that space";
    type State = State;
    /// A set-up costs a whole discarded generation and a box must hold a
    /// few: three rounds of about three generations each.
    const ROUNDS: u32 = 3;

    fn setup(p: &Params, checks: &mut Checks) -> State {
        let cap = cap(p);
        let groups = clblast::xgemm_space::atf_space_wgd_max(cap);
        let mut oracle = match oracle_from_child(cap) {
            Ok(o) => o,
            Err(e) => {
                checks.failed_op(e);
                (0, 0)
            }
        };
        if p.corrupt_expected {
            oracle.1 ^= 1;
        }
        // Warm-up: the first generation of a process pays for fresh pages
        // from the OS; it is discarded, but its wall is reported.
        let t0 = Instant::now();
        drop(black_box(SearchSpace::generate_parallel(&groups)));
        State {
            groups,
            oracle,
            first_call_s: t0.elapsed().as_secs_f64(),
        }
    }

    fn run(state: State, p: &Params, traced: bool, checks: &mut Checks) -> Run {
        let mut tracer = Tracer::new(traced, 4096, Instant::now());
        let mut gen_us = Vec::new();
        let mut drop_ms = Vec::new();
        let mut last: Option<SearchSpace> = None;
        let mut op_id = 0u64;
        let boxed = time_box(p.box_len, || {
            op_id += 1;
            let op = tracer.begin("op", NO_PARENT, op_id);
            // Each space is dropped before the next is generated: at most
            // one is ever live.
            if let Some(previous) = last.take() {
                let t0 = Instant::now();
                tracer.scope("space.drop", op, op_id, || drop(previous));
                drop_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            let t0 = Instant::now();
            let space = tracer.scope("spacegen.generate_parallel", op, op_id, || {
                SearchSpace::generate_parallel(&state.groups)
            });
            gen_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let got = tracer.scope("check.checksum", op, op_id, || {
                inputs::checksum_space(&space, STRIDE)
            });
            checks.check(got == state.oracle, || {
                format!(
                    "generated space (len, checksum) = {got:?}, reference walk = {:?}",
                    state.oracle
                )
            });
            last = Some(space);
            tracer.end(op);
            true
        });
        checks.ops(boxed.ops());
        // The latency sample is the generation alone, without the drop of
        // the previous space and the checksum the box samples include.
        let mut run = Run::from_box(boxed);
        run.latencies_us = gen_us;

        // Read side: seeded-random `get` over the last generated space.
        if let Some(space) = &last {
            let per_block = p.scaled(GETS_PER_BOX, GET_BLOCKS * 100) / GET_BLOCKS;
            let get_ns = random_get_ns(space, p.seed, GET_BLOCKS, per_block, &mut tracer);
            checks.ops((per_block * GET_BLOCKS) as u64);
            let get = stats::Summary::of(&get_ns);
            run.read_ops_per_s = 1e9 / get.median;
            run.extras.push(("get_ns", get.median, "ns"));
            run.extras.push(("configs", space.len() as f64, "count"));
        }
        if !drop_ms.is_empty() {
            run.extras.push(("drop_ms", stats::median(&drop_ms), "ms"));
        }
        run.extras.push(("first_call_s", state.first_call_s, "s"));
        run.spans_dropped = tracer.dropped;
        run.spans = tracer.into_spans();
        run
    }
}
