//! Chunked intra-group parallel generation.
//!
//! The sequential walk fixes the group's *leading* parameter first; the
//! subtrees below distinct leading values are independent. Chunking
//! partitions the leading parameter's valid candidates into contiguous
//! chunks, enumerates each chunk's subtrees on a worker pool, and
//! concatenates the chunk outputs **in chunk order** — so the result is
//! bit-identical to sequential generation at any thread count.
//!
//! This replaces the earlier one-thread-per-group scheme: a single
//! heavily-constrained group (the common case — XgemmDirect is one group
//! of ten parameters) now parallelizes internally instead of pinning one
//! core.

use super::compile::{configs, tail_len, GroupPlan, Walker};
use super::packed::PackedRows;
use crate::param::ParamGroup;
use crate::space::{GroupSpace, SpaceError};
use crate::trace::{TraceEvent, TraceSink};
use crate::value::Value;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Chunks per worker thread: over-partitioning keeps the pool busy when
/// leading candidates have very uneven subtree sizes (small divisors of a
/// big target have far more completions than large ones).
const CHUNKS_PER_THREAD: usize = 4;

/// Rows a chunk admits between two additions to the shared row count.
const ROWS_PER_PUBLISH: u64 = 1024;

/// Number of generation threads to use by default: the machine's available
/// parallelism, capped to keep worker startup cheap on very wide hosts.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

/// Generates one group's valid sub-space with `threads` workers over
/// leading-parameter chunks. Each chunk packs its prefix rows on its own;
/// the chunks are concatenated in chunk order, so the rows are exactly the
/// sequential walk's. Emits one `space_chunk` trace event
/// per chunk (from the workers, in completion order). `limit` bounds the
/// number of configurations (rows times the unconstrained tail).
pub fn generate_group_chunked(
    group: &ParamGroup,
    threads: usize,
    limit: u64,
    cancel: Option<&AtomicBool>,
    trace: &dyn TraceSink,
    group_index: usize,
) -> Result<GroupSpace, SpaceError> {
    let plan = GroupPlan::compile(group);
    let ranges = plan.ranges();
    let (stored, tail) = ranges.split_at(plan.prefix_len());
    let tail = tail_len(tail);

    // Walks the subtree below the walker's prefix, packing its rows into
    // `out`. A row is admitted while the rows admitted so far fit the
    // limit, so the walk stops at (with several chunks: soon after) the
    // first row too many instead of filling memory first. A chunk adds its
    // rows to the shared count in batches: a counter every worker wrote per
    // row would bounce between their caches.
    let rows = AtomicU64::new(0);
    let fill = |walker: &mut Walker, out: &mut PackedRows| {
        let mut own = 0u64;
        let mut pack = |row: &[u64]| {
            own += 1;
            if configs(rows.load(Ordering::Relaxed) + own, tail)? > limit {
                return Err(SpaceError::TooLarge { limit });
            }
            out.push(row);
            if own == ROWS_PER_PUBLISH {
                rows.fetch_add(own, Ordering::Relaxed);
                own = 0;
            }
            Ok(())
        };
        let walked = walker.walk(&mut pack, cancel);
        rows.fetch_add(own, Ordering::Relaxed);
        walked
    };

    // Leading-parameter candidates under the empty prefix. A one-thread
    // pool, a single leading candidate or a prefix of at most the leading
    // parameter leaves nothing to fan out.
    let mut walker = Walker::new(&plan);
    let mut leading: Vec<(u64, Value)> = Vec::new();
    if threads > 1 && stored.len() > 1 {
        walker.bind();
        while let Some(candidate) = walker.next() {
            leading.push(candidate);
        }
    }
    let mut rows_of_group = PackedRows::new(stored);
    if leading.len() <= 1 {
        fill(&mut walker, &mut rows_of_group)?;
        return GroupSpace::from_rows(plan.names(), ranges, rows_of_group);
    }

    // Partition the leading candidates into contiguous chunks.
    let chunk_count = (threads * CHUNKS_PER_THREAD).min(leading.len());
    let per_chunk = leading.len().div_ceil(chunk_count);
    let chunks: Vec<&[(u64, Value)]> = leading.chunks(per_chunk).collect();

    let next_chunk = AtomicUsize::new(0);
    let mut slots: Vec<Result<PackedRows, SpaceError>> = (0..chunks.len())
        .map(|_| Ok(PackedRows::new(stored)))
        .collect();

    std::thread::scope(|scope| {
        let workers = threads.min(chunks.len());
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (plan, chunks, next_chunk, fill) = (&plan, &chunks, &next_chunk, &fill);
            handles.push(scope.spawn(move || {
                let mut results = Vec::new();
                let mut walker = Walker::new(plan);
                loop {
                    let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                    if c >= chunks.len() {
                        return results;
                    }
                    let started = Instant::now();
                    let mut out = PackedRows::new(stored);
                    let walked = chunks[c].iter().try_for_each(|(pos, v)| {
                        walker.push(*pos, v.clone());
                        let walked = fill(&mut walker, &mut out);
                        walker.pop();
                        walked
                    });
                    trace.emit(&TraceEvent::space_chunk(
                        group_index,
                        c,
                        configs(out.rows(), tail).unwrap_or(u64::MAX),
                        u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
                    ));
                    results.push((c, walked.map(|()| out)));
                }
            }));
        }
        for h in handles {
            for (c, r) in h.join().expect("chunk worker panicked") {
                slots[c] = r;
            }
        }
    });

    // Deterministic concatenation in chunk order.
    rows_of_group.extend(&slots.into_iter().collect::<Result<Vec<_>, _>>()?);
    // Rows a chunk had not published yet were invisible to the others'
    // checks. Past `u64` the count is past any lower limit; at no limit it
    // is `from_rows`' overflow.
    if configs(rows_of_group.rows(), tail).map_or(limit < u64::MAX, |n| n > limit) {
        return Err(SpaceError::TooLarge { limit });
    }
    GroupSpace::from_rows(plan.names(), ranges, rows_of_group)
}

/// Generates all groups' sub-spaces, each with intra-group chunked
/// parallelism, in declaration order. One `space_gen` event per group
/// summarizes its chunks.
pub fn generate_groups_chunked(
    groups: &[ParamGroup],
    threads: usize,
    trace: &dyn TraceSink,
) -> Vec<GroupSpace> {
    groups
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let started = Instant::now();
            let gs = generate_group_chunked(g, threads, u64::MAX, None, trace, i)
                .expect("no limit configured");
            trace.emit(&TraceEvent::space_gen(
                i,
                g.len(),
                gs.len(),
                u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
            ));
            gs
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{divides, less_than};
    use crate::expr::{cst, param as p};
    use crate::param::{tp, tp_c};
    use crate::range::Range;
    use crate::trace::NullSink;

    fn chain_group(n: u64) -> ParamGroup {
        ParamGroup::new(vec![
            tp_c("WPT", Range::interval(1, n), divides(cst(n))),
            tp_c("LS", Range::interval(1, n), divides(cst(n) / p("WPT"))),
            tp_c("V", Range::interval(1, 8), less_than(p("LS") + cst(2u64))),
        ])
    }

    fn sequential(group: &ParamGroup) -> Vec<Vec<Value>> {
        let gs = GroupSpace::generate(group);
        (0..gs.len()).map(|i| gs.values(i)).collect()
    }

    /// CLBlast's XgemmDirect space (`clblast::xgemm_space`, which depends
    /// on this crate) with tiles up to `cap`: eight constrained parameters
    /// and a two-parameter unconstrained tail.
    fn xgemm_group(cap: u64) -> ParamGroup {
        use crate::constraint::predicate;
        let dim = || Range::interval(1, cap);
        let vw = || Range::set([1u64, 2, 4, 8]);
        let threads = p("MDIMCD") * p("NDIMCD");
        ParamGroup::new(vec![
            tp("WGD", dim()),
            tp_c("MDIMCD", dim(), divides(p("WGD"))),
            tp_c(
                "NDIMCD",
                dim(),
                divides(p("WGD"))
                    & predicate("MDIMCD*NDIMCD <= 1024", |v, c| {
                        v.as_u64().is_some_and(|n| n * c.get_u64("MDIMCD") <= 1024)
                    }),
            ),
            tp_c(
                "MDIMAD",
                dim(),
                divides(p("WGD")) & divides(threads.clone()),
            ),
            tp_c("NDIMBD", dim(), divides(p("WGD")) & divides(threads)),
            tp_c("KWID", dim(), divides(p("WGD"))),
            tp_c(
                "VWMD",
                vw(),
                divides(p("WGD") / p("MDIMCD")) & divides(p("WGD") / p("MDIMAD")),
            ),
            tp_c(
                "VWND",
                vw(),
                divides(p("WGD") / p("NDIMCD")) & divides(p("WGD") / p("NDIMBD")),
            ),
            tp("PADA", Range::boolean()),
            tp("PADB", Range::boolean()),
        ])
    }

    /// The footprint fence: the walk allocates per group, not per visited
    /// prefix — counting the cap-16 group (118 936 configurations, ≈30 k
    /// rows) takes no more allocator calls than compiling its plan and
    /// setting up one walker's scratch — and a generated group keeps one
    /// code vector, not a heap row per configuration.
    #[test]
    fn packed_rows_allocate_per_group_not_per_configuration() {
        use crate::test_alloc::footprint;
        let group = xgemm_group(16);
        let generate = |threads| {
            generate_group_chunked(&group, threads, u64::MAX, None, &NullSink, 0).unwrap()
        };
        let (counted, walk) = footprint(|| GroupSpace::count(&group).unwrap());
        let (space, stored) = footprint(|| generate(1));
        assert_eq!(space.len(), counted);
        assert!(counted > 10_000, "cap 16 is {counted} configurations");
        assert!(
            walk.calls <= 256,
            "{walk:?} to count {counted} configurations"
        );
        // Storing the rows adds the code vector's regrowths to what the
        // walk itself allocates — nothing that scales with the space.
        assert!(
            stored.calls <= walk.calls + 64,
            "{stored:?} for the store, {walk:?} for the walk alone"
        );
        assert!(stored.live_blocks <= 8, "{stored:?}");
        assert!(stored.live_bytes as u64 <= 16 * counted, "{stored:?}");
        // Fanned out, the calling thread allocates per chunk and worker.
        let chunks = 2 * CHUNKS_PER_THREAD;
        let (fanned, calling) = footprint(|| generate(2));
        assert_eq!(fanned.len(), counted);
        assert!(
            calling.calls <= 32 * chunks,
            "{calling:?} for {chunks} chunks"
        );
    }

    #[test]
    fn chunked_bit_identical_at_various_thread_counts() {
        let g = chain_group(96);
        let want = sequential(&g);
        for threads in [1, 2, 3, 8] {
            let gs = generate_group_chunked(&g, threads, u64::MAX, None, &NullSink, 0).unwrap();
            let got: Vec<Vec<Value>> = (0..gs.len()).map(|i| gs.values(i)).collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn chunked_respects_limit() {
        let g = ParamGroup::new(vec![
            tp("A", Range::interval(1, 100)),
            tp("B", Range::interval(1, 100)),
        ]);
        let err = generate_group_chunked(&g, 4, 10, None, &NullSink, 0).unwrap_err();
        assert_eq!(err, SpaceError::TooLarge { limit: 10 });
    }

    #[test]
    fn chunked_respects_cancellation() {
        let flag = AtomicBool::new(true);
        let g = ParamGroup::new(vec![
            tp("A", Range::interval(1, 100)),
            tp("B", Range::interval(1, 100)),
        ]);
        let err = generate_group_chunked(&g, 4, u64::MAX, Some(&flag), &NullSink, 0).unwrap_err();
        assert_eq!(err, SpaceError::Cancelled);
    }

    #[test]
    fn chunk_events_cover_all_configs() {
        let sink = crate::trace::MemorySink::new();
        let g = chain_group(64);
        let gs = generate_group_chunked(&g, 4, u64::MAX, None, &sink, 3).unwrap();
        let events = sink.take();
        let chunk_events: Vec<_> = events.iter().filter(|e| e.event == "space_chunk").collect();
        assert!(!chunk_events.is_empty());
        let total: u64 = chunk_events.iter().map(|e| e.size.unwrap()).sum();
        assert_eq!(total, gs.len());
        assert!(chunk_events.iter().all(|e| e.group == Some(3)));
    }
}
