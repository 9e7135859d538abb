//! **Section V / Figure 1: parallel search-space generation** — each
//! group's valid sub-space is generated with chunked intra-group
//! parallelism (the leading parameter's candidates are partitioned into
//! chunks enumerated concurrently, concatenated deterministically); the
//! full space is the indexable cross product of the group spaces.
//!
//! Run: `cargo run -p atf-bench --release --bin tab_parallel_generation`

use atf_bench::{write_records, Record};
use atf_core::constraint::divides;
use atf_core::expr::param;
use atf_core::prelude::*;
use atf_core::spacegen::generate_group_chunked;
use atf_core::trace::NullSink;
use std::time::Instant;

/// `g` independent groups, each a WPT/LS-style divisor chain over `1..=n` —
/// a scaled-up version of the paper's Figure-1 example.
fn independent_groups(g: usize, n: u64) -> Vec<ParamGroup> {
    (0..g)
        .map(|i| {
            let a = format!("tp{}_a", i);
            let b = format!("tp{}_b", i);
            ParamGroup::new(vec![
                tp(a.clone(), Range::interval(1, n)),
                tp_c(b, Range::interval(1, n), divides(param(a))),
            ])
        })
        .collect()
}

fn main() {
    println!("Reproducing Section V: parallel search-space generation");
    println!(
        "(host has {} hardware threads; chunked intra-group parallelism)\n",
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    );

    // First: the paper's exact Figure-1 example.
    let fig1 = vec![
        ParamGroup::new(vec![
            tp("tp1", Range::set([1u64, 2])),
            tp_c("tp2", Range::set([1u64, 2]), divides(param("tp1"))),
        ]),
        ParamGroup::new(vec![
            tp("tp3", Range::set([1u64, 2])),
            tp_c("tp4", Range::set([1u64, 2]), divides(param("tp3"))),
        ]),
    ];
    let space = SearchSpace::generate_parallel(&fig1);
    println!(
        "Figure-1 example: group sizes {:?}, total space {} (3 x 3)\n",
        space.dims(),
        space.len()
    );
    assert_eq!(space.len(), 9);

    println!(
        "{:>7} | {:>6} | {:>14} | {:>12} | {:>12} | {:>8}",
        "groups", "range", "space size", "sequential", "parallel", "speedup"
    );
    let mut records = Vec::new();
    // Sixteen groups stop at n = 56 (239 configurations each, 1.1e38 in
    // total): the cross product must fit `u128`, which `SearchSpace` checks.
    for (g, n) in [(2usize, 1024u64), (4, 1024), (8, 768), (16, 56)] {
        let groups = independent_groups(g, n);
        let t0 = Instant::now();
        let seq = SearchSpace::generate(&groups);
        let t_seq = t0.elapsed();
        let t0 = Instant::now();
        let par = SearchSpace::generate_parallel(&groups);
        let t_par = t0.elapsed();
        assert_eq!(seq.len(), par.len());
        println!(
            "{:>7} | {:>6} | {:>14.3e} | {:>12.2?} | {:>12.2?} | {:>7.2}x",
            g,
            n,
            seq.len() as f64,
            t_seq,
            t_par,
            t_seq.as_secs_f64() / t_par.as_secs_f64()
        );
        records.push(Record {
            experiment: "tab_parallel_generation".into(),
            device: "-".into(),
            workload: format!("g{g}_n{n}"),
            metrics: vec![
                ("space".into(), seq.len() as f64),
                ("sequential_s".into(), t_seq.as_secs_f64()),
                ("parallel_s".into(), t_par.as_secs_f64()),
                ("speedup".into(), t_seq.as_secs_f64() / t_par.as_secs_f64()),
            ],
        });
    }
    // Chunked intra-group parallelism on one heavily-constrained group:
    // the same space generated at 1, 2, and 8 threads must be
    // bit-identical, with the multi-thread runs exercising the chunk
    // scheduler.
    println!("\nchunked intra-group generation (XgemmDirect, cap 32):");
    println!(
        "{:>8} | {:>12} | {:>12} | {:>8}",
        "threads", "space", "time", "speedup"
    );
    let group = &clblast::xgemm_space::atf_space_wgd_max(32)[0];
    let mut base = None;
    for threads in [1usize, 2, 8] {
        let t0 = Instant::now();
        let gs = generate_group_chunked(group, threads, u64::MAX, None, &NullSink, 0)
            .expect("unlimited generation cannot fail");
        let t = t0.elapsed().as_secs_f64();
        let base_t = *base.get_or_insert(t);
        println!(
            "{:>8} | {:>12} | {:>10.2}ms | {:>7.2}x",
            threads,
            gs.len(),
            t * 1e3,
            base_t / t
        );
        records.push(Record {
            experiment: "tab_parallel_generation".into(),
            device: "-".into(),
            workload: format!("chunked_t{threads}"),
            metrics: vec![
                ("space".into(), gs.len() as f64),
                ("seconds".into(), t),
                ("speedup".into(), base_t / t),
            ],
        });
    }
    write_records("tab_parallel_generation", &records);
    println!("\n(on a single-core host the parallel paths show thread overhead, not speedup;");
    println!(" the experiment still validates equivalence of the generation modes)");
    println!("records written to results/tab_parallel_generation.json");
}
