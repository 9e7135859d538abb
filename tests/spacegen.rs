//! Integration tests for the search-space construction engine
//! (`atf_core::spacegen`): compiled-constraint generation must be
//! bit-identical to the reference predicate walk on randomized specs,
//! chunked parallel generation must be bit-identical at any thread count,
//! at every code width and tail shape of the packed group store, lazy
//! spaces must agree with generated ones through the whole indexable-space
//! interface, and oversized counts and spaces must fail structurally.

use atf_core::constraint::{divides, equal, greater_than, is_multiple_of, less_than, unequal};
use atf_core::expr::{cst, param};
use atf_core::param::{tp, tp_c, Param, ParamGroup};
use atf_core::prelude::*;
use atf_core::spacegen::generate_group_chunked;
use atf_core::trace::NullSink;
use proptest::prelude::*;

/// The leading parameter decides the width of the packed store's codes: a
/// menu with prefix ranges of at most 256, at most 65 536 and more than
/// 65 536 positions, scanned windows and divisor lists, and a stepped
/// divisor list whose list index is not the range position. (More than
/// 2³² positions is `codes_wider_than_32_bits_decode_exactly`: the
/// reference walk cannot scan such a range.)
fn leading_param(shape: u8) -> Param {
    match shape {
        0 => tp("Q0", Range::interval(1, 12)),
        1 => tp_c("Q0", Range::interval(1, 200), divides(cst(120u64))),
        2 => tp_c(
            "Q0",
            Range::interval_step(2, 40_000, 2),
            divides(cst(27_720u64)),
        ),
        3 => tp_c("Q0", Range::interval(1, 100_000), divides(cst(83_160u64))),
        _ => tp_c(
            "Q0",
            Range::interval(1, 70_000),
            greater_than(cst(69_990u64)),
        ),
    }
}

/// Strategy: a random constrained group mixing every compilable alias
/// atom, an opaque predicate and unconstrained parameters over plain,
/// stepped and generator intervals, float intervals and integer and
/// `Symbol` sets — the shapes the constraint compiler and the packed store
/// must reproduce exactly — and operands at the edges of slot resolution:
/// forward and foreign names, a zero divisor, arithmetic on floats and
/// symbols. `tail` forces each of the three tail shapes now and then: an
/// empty tail (last parameter constrained), a two-parameter tail, and a
/// wholly unconstrained group.
fn random_group() -> impl Strategy<Value = ParamGroup> {
    let names = ["Q0", "Q1", "Q2", "Q3", "Q4"];
    (
        2usize..=5,                          // number of parameters
        0u8..5,                              // leading-parameter shape
        prop::collection::vec(1u64..=14, 5), // range ends
        prop::collection::vec(0u8..6, 5),    // range shape per param
        prop::collection::vec(0u8..14, 5),   // constraint selector per param
        0u8..6,                              // tail shape
    )
        .prop_map(move |(n, lead, ends, shapes, kinds, tail)| {
            let mut params = vec![leading_param(lead)];
            for i in 1..n {
                let name = names[i];
                let end = ends[i];
                let range = match shapes[i] {
                    0 | 1 => Range::interval(1, end),
                    2 => Range::interval_step(2, 2 + 3 * end, 3),
                    3 => Range::interval_gen(0, end.min(6), |i| 1u64 << i),
                    4 => Range::float_interval(0.5, 0.5 * end as f64, 0.5),
                    _ => Range::set(["a", "b", "c"]),
                };
                let prev = names[i - 1];
                let unconstrained = match tail {
                    0 => i + 1 < n && kinds[i] == 0,  // empty tail
                    1 => i + 2 >= n || kinds[i] == 0, // two-parameter tail
                    2 => true,                        // k = 0 (given lead 0)
                    _ => kinds[i] == 0,
                };
                params.push(if unconstrained {
                    tp(name, range)
                } else {
                    let c = match kinds[i] {
                        0 | 1 => divides(param("Q0")),
                        2 => is_multiple_of(param(prev)),
                        3 => divides(param("Q0")) & unequal(param(prev)),
                        4 => less_than(param(prev) * 2u64) | greater_than(cst(6u64)),
                        5 => less_than(param(prev)).not(),
                        // Comparison conjuncts: the interval-tightening
                        // paths (dynamic and constant thresholds, both
                        // cut directions, exact equality).
                        6 => greater_than(param(prev)) & divides(cst(12u64)),
                        7 => equal(param(prev)),
                        8 => greater_than(cst(3u64)) & less_than(cst(11u64)),
                        // Operands the compiler resolves to no slot: a
                        // later parameter (or, last, this one), and a name
                        // outside the group. The closures fail to look
                        // them up; the compiled atom rejects every value.
                        9 => divides(param(names[(i + 1).min(4)])) | equal(param(prev)),
                        10 => divides(param("ZZ")) | less_than(cst(5u64)),
                        // A zero divisor, and arithmetic over whatever the
                        // previous parameter holds: floats (integral or
                        // not), symbols (non-numeric) or integers.
                        11 => divides(param("Q0") / (param(prev) - param(prev))).not(),
                        12 => {
                            divides(param(prev) * 2u64)
                                | greater_than(param(prev) / 2u64 + cst(0.25))
                        }
                        _ => atf_core::constraint::predicate("not b, not 2", |v, _| {
                            *v != Value::Symbol("b".into()) && *v != Value::UInt(2)
                        }),
                    };
                    tp_c(name, range, c)
                });
            }
            ParamGroup::new(params)
        })
}

fn flatten(gs: &GroupSpace) -> Vec<Vec<Value>> {
    (0..gs.len()).map(|i| gs.values(i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The compiled generator and the per-candidate reference walk agree
    /// exactly — same configurations, same order, row by row and through
    /// `SearchSpace::get` — and the count agrees with both.
    #[test]
    fn compiled_equals_reference(group in random_group()) {
        let reference = GroupSpace::generate_reference(&group);
        let compiled = GroupSpace::generate(&group);
        prop_assert_eq!(reference.names(), compiled.names());
        prop_assert_eq!(flatten(&reference), flatten(&compiled));
        prop_assert_eq!(GroupSpace::count(&group), Ok(compiled.len()));
        let space = SearchSpace::from_group_spaces(vec![compiled]);
        for i in 0..reference.len() {
            let got = space.get(u128::from(i));
            let names: Vec<&str> = reference.names().iter().map(|n| n.as_ref()).collect();
            prop_assert_eq!(got.names().collect::<Vec<_>>(), names);
            let values: Vec<Value> = got.iter().map(|(_, v)| v.clone()).collect();
            prop_assert_eq!(values, reference.values(i));
        }
    }

    /// Chunked generation is bit-identical to sequential output at 1, 2,
    /// 3 and 8 threads, and the limit counts configurations, not rows.
    #[test]
    fn chunked_is_bit_identical_at_any_thread_count(group in random_group()) {
        let sequential = GroupSpace::generate(&group);
        let len = sequential.len();
        let sequential = flatten(&sequential);
        for threads in [1usize, 2, 3, 8] {
            let chunked = generate_group_chunked(&group, threads, len, None, &NullSink, 0)
                .expect("a limit of exactly the size admits the space");
            prop_assert_eq!(&sequential, &flatten(&chunked), "threads = {}", threads);
            if len > 0 {
                let short = generate_group_chunked(&group, threads, len - 1, None, &NullSink, 0);
                prop_assert_eq!(short.err(), Some(SpaceError::TooLarge { limit: len - 1 }));
            }
        }
    }

    /// A lazy space agrees with the generated space through the whole
    /// indexable interface: len, dims, get, and decompose/compose
    /// round-trips.
    #[test]
    fn lazy_space_equals_materialized(group in random_group()) {
        let groups = vec![group];
        let eager = SearchSpace::generate(&groups);
        let lazy = LazySpace::generate_with_block(&groups, 16).expect("lazy build");
        prop_assert_eq!(eager.len(), lazy.len());
        prop_assert_eq!(eager.dims(), lazy.dims());
        for i in 0..eager.len() {
            prop_assert_eq!(eager.get(i), lazy.get(i));
            let coords = lazy.decompose(i);
            prop_assert_eq!(&coords, &eager.decompose(i));
            prop_assert_eq!(lazy.compose(&coords), i);
        }
    }
}

/// A `divides` constraint on `interval(1, 1 << 40)` stores positions past
/// 2³² — eight-byte codes. The reference walk cannot scan that range, so
/// the oracle is arithmetic: every divisor of `n` ascending, below it the
/// divisors of that value up to 8, below those the two symbols.
#[test]
fn codes_wider_than_32_bits_decode_exactly() {
    let n = (1u64 << 36) * 15;
    let group = ParamGroup::new(vec![
        tp_c("A", Range::interval(1, 1 << 40), divides(cst(n))),
        tp_c("B", Range::interval(1, 8), divides(param("A"))),
        tp("C", Range::set(["x", "y"])),
    ]);
    let mut want = Vec::new();
    for twos in 0..=36 {
        for odd in [1u64, 3, 5, 15] {
            want.push((1u64 << twos) * odd);
        }
    }
    want.sort_unstable();
    let want: Vec<Vec<Value>> = want
        .iter()
        .flat_map(|&a| (1..=8u64).filter(move |b| a % b == 0).map(move |b| (a, b)))
        .flat_map(|(a, b)| ["x", "y"].map(|c| vec![a.into(), b.into(), c.into()]))
        .collect();
    assert!(want.iter().any(|row| row[0] > Value::UInt(1 << 32)));
    for threads in [1usize, 2, 3, 8] {
        let space = generate_group_chunked(&group, threads, u64::MAX, None, &NullSink, 0)
            .expect("unlimited generation cannot fail");
        assert_eq!(flatten(&space), want, "threads = {threads}");
    }
    assert_eq!(GroupSpace::count(&group), Ok(want.len() as u64));
}

/// A wholly unconstrained group stores no row at all (`k = 0`): its size
/// is the product of its ranges whatever that is, a limit still counts
/// configurations, and cancellation is still seen.
#[test]
fn unconstrained_groups_are_indexed_not_stored() {
    use std::sync::atomic::AtomicBool;

    let group = ParamGroup::new(vec![
        tp("A", Range::interval(1, 1 << 20)),
        tp("B", Range::set(["a", "b", "c"])),
        tp("C", Range::float_interval(0.0, 1.0, 0.25)),
    ]);
    let len = (1u64 << 20) * 3 * 5;
    for threads in [1usize, 4] {
        let generate =
            |limit, cancel| generate_group_chunked(&group, threads, limit, cancel, &NullSink, 0);
        let space = generate(len, None).expect("limit = len admits the space");
        assert_eq!(space.len(), len);
        assert_eq!(
            space.values(len - 1),
            vec![(1u64 << 20).into(), "c".into(), 1.0.into()]
        );
        assert_eq!(space.values(7), vec![1u64.into(), "b".into(), 0.5.into()]);
        assert_eq!(
            generate(len - 1, None).err(),
            Some(SpaceError::TooLarge { limit: len - 1 })
        );
        let cancelled = AtomicBool::new(true);
        assert_eq!(
            generate(u64::MAX, Some(&cancelled)).err(),
            Some(SpaceError::Cancelled)
        );
    }
}

/// Rows times the unconstrained tail can exceed `u64` although both
/// factors fit: a structured error, from generation as from counting.
#[test]
fn rows_times_tail_overflow_is_a_structured_error() {
    let group = ParamGroup::new(vec![
        tp_c("A", Range::set([1u64, 2, 3]), less_than(cst(10u64))),
        tp("B", Range::interval(0, u64::MAX - 1)),
    ]);
    for threads in [1usize, 4] {
        let generated = generate_group_chunked(&group, threads, u64::MAX, None, &NullSink, 0);
        assert_eq!(generated.err(), Some(SpaceError::Overflow));
        let limited = generate_group_chunked(&group, threads, 1 << 40, None, &NullSink, 0);
        assert_eq!(limited.err(), Some(SpaceError::TooLarge { limit: 1 << 40 }));
    }
    assert_eq!(GroupSpace::count(&group), Err(SpaceError::Overflow));
}

/// Comparison atoms *tighten* the scan window instead of filtering their
/// way through it: with `X > K` the compiled generator must never probe
/// the below-threshold prefix (previously it checked every candidate from
/// the window's start).
#[test]
fn comparison_atoms_tighten_the_scan_window() {
    use atf_core::constraint::predicate;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let probes = Arc::new(AtomicU64::new(0));
    let p = Arc::clone(&probes);
    let group = ParamGroup::new(vec![tp_c(
        "X",
        Range::interval(1, 10_000),
        greater_than(cst(9_900u64))
            & predicate("even", move |v, _| {
                p.fetch_add(1, Ordering::Relaxed);
                v.as_u64().is_some_and(|x| x % 2 == 0)
            }),
    )]);
    let space = GroupSpace::generate(&group);
    assert_eq!(space.len(), 50, "even values in 9901..=10000");
    let probed = probes.load(Ordering::Relaxed);
    assert!(
        probed <= 100,
        "tightened scan probed {probed} candidates (bound admits 100 of 10000)"
    );
}

/// An equality atom collapses the scan window to a single position.
#[test]
fn equality_atoms_collapse_the_scan_window() {
    use atf_core::constraint::predicate;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    let probes = Arc::new(AtomicU64::new(0));
    let p = Arc::clone(&probes);
    let group = ParamGroup::new(vec![tp_c(
        "X",
        Range::interval(1, 100_000),
        equal(cst(777u64))
            & predicate("probe", move |v, _| {
                p.fetch_add(1, Ordering::Relaxed);
                v.as_u64().is_some()
            }),
    )]);
    let space = GroupSpace::generate(&group);
    assert_eq!(space.len(), 1);
    assert_eq!(
        probes.load(Ordering::Relaxed),
        1,
        "equality must pinpoint exactly one candidate position"
    );
}

/// A search space too large for `u64`/`u128` counting reports
/// `SpaceError::Overflow` instead of panicking or spinning — and does so
/// fast, via the unconstrained-suffix product shortcut.
#[test]
fn oversized_count_is_a_structured_error() {
    let groups = vec![ParamGroup::new(vec![
        tp("A", Range::interval(1, u64::MAX)),
        tp("B", Range::interval(1, u64::MAX)),
        tp("C", Range::interval(1, u64::MAX)),
    ])];
    let started = std::time::Instant::now();
    assert_eq!(SearchSpace::count(&groups), Err(SpaceError::Overflow));
    assert!(
        started.elapsed().as_secs() < 5,
        "overflow must be detected without enumeration"
    );
}

/// A lazy space at its default block size reads like the `SearchSpace`
/// over the same groups.
#[test]
fn lazy_space_backs_the_search_space_interface() {
    let groups = vec![ParamGroup::new(vec![
        tp_c("WPT", Range::interval(1, 32), divides(cst(32u64))),
        tp_c("LS", Range::interval(1, 32), divides(param("WPT"))),
    ])];
    let eager = SearchSpace::generate(&groups);
    let lazy = LazySpace::generate(&groups).expect("lazy build");
    assert_eq!(eager.len(), lazy.len());
    assert_eq!(eager.dims(), lazy.dims());
    for i in 0..eager.len() {
        assert_eq!(eager.get(i), lazy.get(i));
    }
}
