//! Property-based tests over the core invariants, with randomly generated
//! parameter systems.

use atf_core::constraint::{divides, greater_than, is_multiple_of, less_than};
use atf_core::expr::{cst, param};
use atf_core::param::{tp, tp_c, Param, ParamGroup};
use atf_core::prelude::*;
use atf_core::space::cross_product_filter;
use atf_core::wal::fnv1a64;
use proptest::prelude::*;

/// Strategy: a random small parameter group with chained constraints, where
/// each parameter optionally depends on the previous one.
fn small_group() -> impl Strategy<Value = ParamGroup> {
    let names = ["P0", "P1", "P2", "P3"];
    (
        2usize..=4,                          // number of parameters
        prop::collection::vec(1u64..=12, 4), // range ends
        prop::collection::vec(0u8..4, 4),    // constraint selector per param
    )
        .prop_map(move |(n, ends, kinds)| {
            let mut params: Vec<Param> = Vec::new();
            for i in 0..n {
                let name = names[i];
                let range = Range::interval(1, ends[i].max(1));
                let p = if i == 0 {
                    tp(name, range)
                } else {
                    let prev = names[i - 1];
                    match kinds[i] {
                        0 => tp(name, range),
                        1 => tp_c(name, range, divides(param(prev))),
                        2 => tp_c(name, range, is_multiple_of(param(prev))),
                        _ => tp_c(
                            name,
                            range,
                            less_than(param(prev) * 2u64) & greater_than(cst(0u64)),
                        ),
                    }
                };
                params.push(p);
            }
            ParamGroup::new(params)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The constrained-range DFS produces exactly the same set of valid
    /// configurations as the brute-force cross-product-then-filter oracle.
    #[test]
    fn generation_matches_cross_product_oracle(group in small_group()) {
        let groups = vec![group];
        let fast = SearchSpace::generate(&groups);
        let slow = cross_product_filter(&groups, u64::MAX, None).unwrap();
        prop_assert_eq!(fast.len(), slow.len() as u128);
        let fast_all: Vec<Config> = fast.iter().collect();
        for cfg in &slow {
            prop_assert!(fast_all.contains(cfg), "missing {:?}", cfg);
        }
    }

    /// Counting without materialization agrees with generation.
    #[test]
    fn count_equals_generate(group in small_group()) {
        let groups = vec![group];
        prop_assert_eq!(
            SearchSpace::count(&groups).unwrap(),
            SearchSpace::generate(&groups).len()
        );
    }

    /// Parallel generation is equivalent to sequential generation.
    #[test]
    fn parallel_equals_sequential(g1 in small_group(), g2 in small_group()) {
        // Rename the second group's parameters to avoid collisions.
        // Constraints of g2 reference its old names, which are absent after
        // renaming; drop them (this property is about the generation
        // machinery, not the constraints).
        let renamed: Vec<Param> = g2
            .params()
            .iter()
            .map(|p| Param::new(format!("Q{}", p.name()), p.range().clone()))
            .collect();
        let g2 = ParamGroup::new(renamed);
        let groups = vec![g1, g2];
        let seq = SearchSpace::generate(&groups);
        let par = SearchSpace::generate_parallel(&groups);
        prop_assert_eq!(seq.len(), par.len());
        if !seq.is_empty() {
            let step = (seq.len() / 17).max(1);
            let mut i = 0u128;
            while i < seq.len() {
                prop_assert_eq!(seq.get(i), par.get(i));
                i += step;
            }
        }
    }

    /// Flat-index decompose/compose is a bijection and consistent with
    /// coordinate access.
    #[test]
    fn index_bijection(g1 in small_group(), g2 in small_group()) {
        let renamed: Vec<Param> = g2
            .params()
            .iter()
            .map(|p| Param::new(format!("Q{}", p.name()), p.range().clone()))
            .collect();
        let groups = vec![g1, ParamGroup::new(renamed)];
        let space = SearchSpace::generate(&groups);
        if space.is_empty() {
            return Ok(());
        }
        let step = (space.len() / 29).max(1);
        let mut i = 0u128;
        while i < space.len() {
            let coords = space.decompose(i);
            prop_assert_eq!(space.compose(&coords), i);
            prop_assert_eq!(space.get(i), space.get_by_coords(&coords));
            i += step;
        }
    }

    /// Every generated configuration satisfies its declared constraints.
    #[test]
    fn generated_configs_satisfy_constraints(group in small_group()) {
        let groups = vec![group.clone()];
        let space = SearchSpace::generate(&groups);
        for cfg in space.iter() {
            // Re-check each constraint against the *prefix* configuration,
            // mirroring generation semantics.
            let mut prefix = Config::new();
            for p in group.params() {
                let v = cfg[p.name()].clone();
                if let Some(c) = p.constraint() {
                    prop_assert!(c.check(&v, &prefix), "{:?} violates {:?}", cfg, c);
                }
                prefix.push(p.name().into(), v);
            }
        }
    }

    /// Range laws: get(i) enumerates exactly len() elements, iter agrees
    /// with get, and contains agrees with enumeration.
    #[test]
    fn range_laws(begin in 0u64..50, span in 0u64..40, step in 1u64..7) {
        let end = begin + span;
        let r = Range::interval_step(begin, end, step);
        let items: Vec<Value> = r.iter().collect();
        prop_assert_eq!(items.len() as u64, r.len());
        for (i, v) in items.iter().enumerate() {
            prop_assert_eq!(&r.get(i as u64), v);
            prop_assert!(r.contains(v));
        }
        // A value between grid points is not contained.
        if step > 1 && !r.is_empty() {
            let off = Value::from(begin + 1);
            prop_assert_eq!(r.contains(&off), (1 % step) == 0);
        }
    }

    /// Lexicographic cost pairs: ordering by pair == ordering by first then
    /// second component.
    #[test]
    fn lexicographic_pair_order(a1 in 0.0f64..10.0, a2 in 0.0f64..10.0,
                                b1 in 0.0f64..10.0, b2 in 0.0f64..10.0) {
        let p = (a1, a2);
        let q = (b1, b2);
        let expected = if a1 == b1 { a2 < b2 } else { a1 < b1 };
        prop_assert_eq!(p < q, expected);
    }

    /// Simulated annealing acceptance: always accepts improvements, and for
    /// regressions the probability is within (0, 1] and monotone in T.
    #[test]
    fn annealing_acceptance_laws(t in 0.1f64..10.0, delta in 0.0f64..5.0) {
        use atf_core::search::annealing::SimulatedAnnealing;
        let p_better = SimulatedAnnealing::acceptance_probability(t + delta, t, 4.0, t);
        prop_assert_eq!(p_better, 1.0);
        let p_worse = SimulatedAnnealing::acceptance_probability(t, t + delta, 4.0, t);
        prop_assert!(p_worse > 0.0 && p_worse <= 1.0);
        let p_hotter = SimulatedAnnealing::acceptance_probability(t, t + delta, 8.0, t);
        prop_assert!(p_hotter >= p_worse - 1e-12);
    }

    /// The exhaustive technique visits a space of size |dims| exactly once,
    /// regardless of shape.
    #[test]
    fn exhaustive_visits_once(sizes in prop::collection::vec(1u64..6, 1..4)) {
        use atf_core::search::{Exhaustive, SearchTechnique, SpaceDims};
        let total: u64 = sizes.iter().product();
        let mut t = Exhaustive::new();
        t.initialize(SpaceDims::new(sizes));
        let mut seen = std::collections::HashSet::new();
        while let Some(p) = t.get_next_point() {
            prop_assert!(seen.insert(p));
            t.report_cost(0.0);
        }
        prop_assert_eq!(seen.len() as u64, total);
    }

    /// The preprocessor substitutes exactly whole identifiers: substituting
    /// then scanning finds no remaining defined names.
    #[test]
    fn preprocessor_total_substitution(v1 in 1u64..1000, v2 in 1u64..1000) {
        use ocl_sim::preprocessor::{substitute, DefineMap};
        let src = "a WPT b LS c WPT_X dWPT WPT;LS(WPT)";
        let defs = DefineMap::new()
            .with("WPT", v1.to_string())
            .with("LS", v2.to_string());
        let out = substitute(src, &defs);
        // Remaining "WPT" occurrences may only be inside longer identifiers.
        for (i, _) in out.match_indices("WPT") {
            let before = out[..i].chars().next_back();
            let after = out[i + 3..].chars().next();
            let glued = before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
                || after.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
            prop_assert!(glued, "bare WPT left in `{}`", out);
        }
    }
}

#[test]
fn xgemm_space_sample_against_kernel_validation() {
    // Every configuration of the generated XgemmDirect space must pass the
    // kernel's own interdependency validation (declarative constraints ==
    // kernel requirements).
    assert!(clblast::xgemm_space::space_is_sound(
        &clblast::xgemm_space::atf_space_wgd_max(20),
        500,
    ));
}

/// A deterministic synthetic cost for a configuration (FNV-style mix of
/// names and values), with ~1 in 6 configurations "failing to measure" so
/// failure accounting is exercised too.
fn synthetic_cost(config: &Config) -> Option<f64> {
    let mut h = None;
    for (name, value) in config.iter() {
        h = Some(fnv1a64(h, name.as_bytes()));
        h = Some(fnv1a64(h, &value.as_u64().unwrap_or(0).to_le_bytes()));
    }
    let h = h.unwrap_or(0);
    (!h.is_multiple_of(6)).then(|| 1.0 + (h % 10_000) as f64 / 7.0)
}

static DB_CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Driving exhaustive search step by step through a `TuningSession`
    /// yields the identical `TuningResult` as `Tuner::tune` on the same
    /// space — the tentpole refactor changes no observable behavior.
    #[test]
    fn session_equals_tuner_on_random_spaces(group in small_group()) {
        let groups = vec![group];
        let space = SearchSpace::generate(&groups);
        if space.is_empty() {
            return Ok(());
        }

        let mut cf = try_cost_fn(|c: &Config| {
            synthetic_cost(c).ok_or(CostError::RunFailed("synthetic failure".into()))
        });
        let reference = Tuner::new()
            .technique(Exhaustive::new())
            .tune_space(&space, &mut cf);

        let mut session =
            TuningSession::<f64>::new(space.clone(), Box::new(Exhaustive::new())).unwrap();
        while let Some(config) = session.next_config() {
            session.report_cost(synthetic_cost(&config)).unwrap();
        }
        let stepped = session.finish();

        match (reference, stepped) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.best_config, b.best_config);
                prop_assert_eq!(a.best_cost, b.best_cost);
                prop_assert_eq!(a.evaluations, b.evaluations);
                prop_assert_eq!(a.valid_evaluations, b.valid_evaluations);
                prop_assert_eq!(a.failed_evaluations, b.failed_evaluations);
                prop_assert_eq!(a.space_size, b.space_size);
                prop_assert_eq!(a.improvements.len(), b.improvements.len());
            }
            (Err(_), Err(_)) => {} // both saw only failing measurements
            (a, b) => prop_assert!(false, "tuner {:?} vs session {:?}", a, b),
        }
    }

    /// `TuningDatabase::merge` is monotone: after merging, every key holds
    /// the cheapest record either side ever stored, and no existing record
    /// got costlier.
    #[test]
    fn db_merge_is_monotone(
        left in prop::collection::vec((0u8..3, 0u8..2, 1u64..1000), 0..12),
        right in prop::collection::vec((0u8..3, 0u8..2, 1u64..1000), 0..12),
    ) {
        let kernels = ["gemm", "conv", "saxpy"];
        let devices = ["cpu", "gpu"];
        let config = Config::from_pairs([("X", Value::UInt(1))]);
        let fill = |stores: &[(u8, u8, u64)]| {
            let mut db = TuningDatabase::new();
            let mut cheapest = std::collections::BTreeMap::new();
            for &(k, d, c) in stores {
                let (kernel, device) = (kernels[k as usize], devices[d as usize]);
                let cost = c as f64;
                db.store(kernel, device, "w", &config, cost, 1, 2);
                cheapest
                    .entry((kernel, device))
                    .and_modify(|best: &mut f64| *best = best.min(cost))
                    .or_insert(cost);
            }
            (db, cheapest)
        };
        let (mut a, best_a) = fill(&left);
        let (b, best_b) = fill(&right);

        a.merge(&b);

        let mut expected = best_a.clone();
        for (key, cost) in &best_b {
            expected
                .entry(*key)
                .and_modify(|best| *best = best.min(*cost))
                .or_insert(*cost);
        }
        prop_assert_eq!(a.len(), expected.len());
        for ((kernel, device), cost) in &expected {
            let record = a.lookup(kernel, device, "w").unwrap();
            prop_assert_eq!(record.cost, *cost);
            // Monotone: never costlier than what either side held.
            if let Some(before) = best_a.get(&(*kernel, *device)) {
                prop_assert!(record.cost <= *before);
            }
        }
    }

    /// A database round-trips unchanged through its on-disk record log.
    #[test]
    fn db_round_trips_through_file(
        stores in prop::collection::vec((0u8..3, 0u8..2, 1u64..1000), 1..10),
        value in 1u64..64,
    ) {
        let kernels = ["gemm", "conv", "saxpy"];
        let devices = ["cpu", "gpu"];
        let config = Config::from_pairs([
            ("X", Value::UInt(value)),
            ("MODE", Value::Symbol("vec4".into())),
            ("PAD", Value::Bool(value % 2 == 0)),
        ]);
        let case = DB_CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = std::env::temp_dir()
            .join(format!("atf-prop-db-{}-{case}.json", std::process::id()));
        std::fs::remove_file(&path).ok();
        let (mut db, mut log) = DatabaseLog::open(&path).unwrap();
        for &(k, d, c) in &stores {
            let (kernel, device) = (kernels[k as usize], devices[d as usize]);
            if db.store(kernel, device, "w", &config, c as f64, c, 99) {
                log.append(&db.record(kernel, device, "w").unwrap()).unwrap();
            }
        }
        drop(log);
        let loaded = TuningDatabase::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        prop_assert_eq!(loaded.len(), db.len());
        for record in db.records() {
            let found = loaded
                .lookup(&record.kernel, &record.device, &record.workload)
                .unwrap();
            prop_assert_eq!(found, record);
        }
    }
}
