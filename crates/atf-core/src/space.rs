//! Search-space generation and indexed access.
//!
//! This module implements the paper's central algorithmic contribution
//! (Sections II, V, VI-A): the space of *valid* configurations is generated
//! by a depth-first walk that fixes parameters one at a time in declaration
//! order and filters each parameter's range *in the context of the partial
//! configuration*. Work is proportional to the number of valid prefixes —
//! not to the size of the unconstrained cross product, which for CLBlast's
//! XgemmDirect at 2¹⁰×2¹⁰ exceeds 10¹⁹ configurations while the valid space
//! is ~10⁷.
//!
//! The walk itself is driven by the [`crate::spacegen`] engine: constraints
//! are *compiled* into per-prefix bounds (operand expressions evaluated once
//! per prefix, divisor enumeration, monotone scan cut-offs) with a sound
//! per-candidate fallback for opaque predicates, and
//! [`SearchSpace::generate_parallel`] chunks each group's leading parameter
//! across a worker pool — output is bit-identical to sequential generation
//! at any thread count.
//!
//! A generated group is not a table of configurations. [`GroupSpace`] keeps
//! one packed row of range positions per valid assignment of the group's
//! *constrained prefix* and indexes the unconstrained tail below each row
//! arithmetically: one allocation per group, a couple of bytes per
//! configuration, O(#parameters) to read configuration `i`.
//!
//! Parameter *groups* (Section V) are independent; the full space is their
//! cross product, which is never built: [`SearchSpace::get`] decomposes a
//! flat index in the mixed radix of the group sizes in O(#groups).

use crate::config::Config;
use crate::param::ParamGroup;
use crate::range::Range;
use crate::spacegen::{self, GroupPlan, PackedRows};
use crate::trace::NullSink;
use crate::value::Value;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Errors during search-space generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpaceError {
    /// Generation exceeded the configured limit on the number of
    /// configurations (guards against cross-product explosions).
    TooLarge {
        /// The limit that was exceeded.
        limit: u64,
    },
    /// Generation was cancelled via the cooperative cancellation flag.
    Cancelled,
    /// A count overflowed its integer type — the space is astronomically
    /// large (e.g. several unconstrained `u64`-sized ranges). Structured
    /// rather than a wrap or panic so callers can report the space as
    /// "too large to count" and continue.
    Overflow,
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::TooLarge { limit } => {
                write!(
                    f,
                    "search space exceeds the limit of {limit} configurations"
                )
            }
            SpaceError::Cancelled => write!(f, "search-space generation was cancelled"),
            SpaceError::Overflow => {
                write!(f, "search-space size overflows the counting integer type")
            }
        }
    }
}

impl std::error::Error for SpaceError {}

/// The valid sub-space of one parameter group, stored as **packed prefix
/// rows × an unmaterialised tail** (DESIGN.md, "Space representation").
///
/// The prefix is the parameters up to the last constrained one: each valid
/// assignment of them is one row of range positions in `rows`. The tail
/// parameters are unconstrained, so below every row sits the full product
/// of their ranges, which is never stored. Configuration `i` is row
/// `i / tail_len` followed by the mixed-radix digits of `i % tail_len`
/// over the tail ranges (last parameter fastest); every position is
/// decoded with [`Range::get`].
#[derive(Clone)]
pub struct GroupSpace {
    names: Arc<[Arc<str>]>,
    ranges: Vec<Range>,
    rows: PackedRows,
    /// Product of the tail ranges' sizes (1 for an empty tail).
    tail_len: u64,
    len: u64,
}

impl GroupSpace {
    /// Generates the valid sub-space of `group` with the compiled
    /// constrained-range walk.
    pub fn generate(group: &ParamGroup) -> Self {
        Self::generate_with(group, u64::MAX, None).expect("no limit configured")
    }

    /// Generates with a limit on the number of configurations and an
    /// optional cooperative cancellation flag.
    pub fn generate_with(
        group: &ParamGroup,
        limit: u64,
        cancel: Option<&AtomicBool>,
    ) -> Result<Self, SpaceError> {
        spacegen::generate_group_chunked(group, 1, limit, cancel, &NullSink, 0)
    }

    /// Reference generator: the original per-candidate
    /// predicate-evaluation DFS, kept as the equivalence oracle for the
    /// compiled engine (every constraint is `check`ed per candidate, no
    /// compilation, no fast paths, and no tail: it walks every parameter
    /// and stores one full-length row per configuration).
    pub fn generate_reference(group: &ParamGroup) -> Self {
        let names = group.params().iter().map(|p| p.name_arc()).collect();
        let ranges: Vec<Range> = group.params().iter().map(|p| p.range().clone()).collect();
        let mut rows = PackedRows::new(&ranges);
        dfs(group, &mut Config::new(), &mut Vec::new(), &mut |row| {
            rows.push(row)
        });
        Self::from_rows(names, ranges, rows).expect("one row per configuration")
    }

    /// Assembles a group space from the valid `rows` over the first
    /// `rows.row_len()` of `ranges`; the other ranges are the tail.
    pub(crate) fn from_rows(
        names: Arc<[Arc<str>]>,
        ranges: Vec<Range>,
        rows: PackedRows,
    ) -> Result<Self, SpaceError> {
        let tail_len = spacegen::tail_len(&ranges[rows.row_len()..]);
        Ok(GroupSpace {
            len: spacegen::configs(rows.rows(), tail_len)?,
            // Overflowing, it sits below no row: the space is empty.
            tail_len: tail_len.unwrap_or(0),
            names,
            ranges,
            rows,
        })
    }

    /// Counts the valid configurations of `group` without storing a row,
    /// as prefix rows times the product of the unconstrained tail's range
    /// sizes. Returns [`SpaceError::Overflow`] when the count exceeds
    /// `u64`.
    pub fn count(group: &ParamGroup) -> Result<u64, SpaceError> {
        GroupPlan::compile(group).count()
    }

    /// Number of valid configurations in this group.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if the group has no valid configuration.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The parameter names of this group, in declaration order.
    pub fn names(&self) -> &[Arc<str>] {
        &self.names
    }

    /// Every parameter's decode range and the stored prefix rows — what a
    /// cache entry persists.
    pub(crate) fn packed(&self) -> (&[Range], &PackedRows) {
        (&self.ranges, &self.rows)
    }

    /// Decodes the `i`-th valid configuration, handing each parameter's
    /// index and value to `put` in declaration order.
    fn decode(&self, i: u64, mut put: impl FnMut(usize, Value)) {
        assert!(i < self.len, "group index {i} out of bounds ({})", self.len);
        let prefix_len = self.rows.row_len();
        let row = (i / self.tail_len) as usize * prefix_len;
        for d in 0..prefix_len {
            put(d, self.ranges[d].get(self.rows.get(row + d)));
        }
        let (mut rest, mut stride) = (i % self.tail_len, self.tail_len);
        for d in prefix_len..self.ranges.len() {
            stride /= self.ranges[d].len();
            put(d, self.ranges[d].get(rest / stride));
            rest %= stride;
        }
    }

    /// The `i`-th valid configuration's values (aligned with [`Self::names`]).
    pub fn values(&self, i: u64) -> Vec<Value> {
        let mut values = Vec::with_capacity(self.names.len());
        self.decode(i, |_, v| values.push(v));
        values
    }

    /// Appends the `i`-th valid configuration's entries to `out`. The
    /// names must not be in `out` yet ([`SearchSpace`] checks that once,
    /// across its groups).
    pub(crate) fn write_config(&self, i: u64, out: &mut Config) {
        self.decode(i, |d, v| out.push_unique(self.names[d].clone(), v));
    }
}

impl fmt::Debug for GroupSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GroupSpace({:?}; {} valid configs)",
            self.names.iter().map(|n| n.as_ref()).collect::<Vec<_>>(),
            self.len
        )
    }
}

/// The original depth-first walk over constrained ranges: evaluates the
/// full constraint predicate for every candidate value of every parameter
/// and emits each valid configuration's range positions. Retained solely
/// as the reference oracle behind [`GroupSpace::generate_reference`].
fn dfs(
    group: &ParamGroup,
    partial: &mut Config,
    row: &mut Vec<u64>,
    emit: &mut impl FnMut(&[u64]),
) {
    let Some(p) = group.params().get(row.len()) else {
        return emit(row);
    };
    for (pos, v) in p.range().iter().enumerate() {
        if p.constraint().is_some_and(|c| !c.check(&v, partial)) {
            continue;
        }
        partial.push(p.name_arc(), v);
        row.push(pos as u64);
        dfs(group, partial, row, emit);
        row.pop();
        partial.pop();
    }
}

/// The full search space: the (virtual) cross product of the group spaces.
#[derive(Clone, Debug)]
pub struct SearchSpace {
    groups: Vec<GroupSpace>,
    /// Parameters per configuration, over all groups.
    arity: usize,
    len: u128,
}

impl SearchSpace {
    /// Generates the search space sequentially.
    pub fn generate(groups: &[ParamGroup]) -> Self {
        Self::from_group_spaces(groups.iter().map(GroupSpace::generate).collect())
    }

    /// Generates the search space in parallel by chunking each group's
    /// leading parameter across a worker pool
    /// ([`crate::spacegen::generate_groups_chunked`]). Output is
    /// bit-identical to [`Self::generate`] at any thread count.
    pub fn generate_parallel(groups: &[ParamGroup]) -> Self {
        let threads = spacegen::default_threads();
        let generated = spacegen::generate_groups_chunked(groups, threads, &NullSink);
        Self::from_group_spaces(generated)
    }

    /// Assembles a search space from already-generated group spaces — the
    /// one constructor. It checks once what every later read relies on:
    /// parameter names are unique across the groups (so
    /// [`Self::get_by_coords`] appends them unchecked) and the size fits.
    ///
    /// # Panics
    /// Panics if two groups share a parameter name, or if the product of
    /// the group sizes overflows `u128` ([`SpaceError::Overflow`]'s
    /// message) — reachable now that an unconstrained group of any size
    /// costs no memory.
    pub fn from_group_spaces(groups: Vec<GroupSpace>) -> Self {
        let names: Vec<&Arc<str>> = groups.iter().flat_map(|g| g.names()).collect();
        for (i, name) in names.iter().enumerate() {
            assert!(
                !names[..i].contains(name),
                "duplicate parameter name `{name}` in search space"
            );
        }
        let len = groups
            .iter()
            .try_fold(1u128, |len, g| len.checked_mul(u128::from(g.len())))
            .unwrap_or_else(|| panic!("{}", SpaceError::Overflow));
        SearchSpace {
            arity: names.len(),
            len: if groups.is_empty() { 0 } else { len },
            groups,
        }
    }

    /// Counts the valid configurations without storing anything.
    /// [`SpaceError::Overflow`] signals a space too large to count in
    /// `u128` (or a group too large for `u64`).
    pub fn count(groups: &[ParamGroup]) -> Result<u128, SpaceError> {
        if groups.is_empty() {
            return Ok(0);
        }
        let mut total = 1u128;
        for g in groups {
            total = total
                .checked_mul(GroupSpace::count(g)? as u128)
                .ok_or(SpaceError::Overflow)?;
        }
        Ok(total)
    }

    /// Total number of valid configurations (`S` in the paper).
    pub fn len(&self) -> u128 {
        self.len
    }

    /// `true` if the space contains no valid configuration.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The per-group sizes — the dimensions search techniques navigate.
    pub fn dims(&self) -> Vec<u64> {
        self.groups.iter().map(|g| g.len()).collect()
    }

    /// The configuration at per-group coordinates `coords`
    /// (`coords.len() == self.dims().len()`).
    pub fn get_by_coords(&self, coords: &[u64]) -> Config {
        assert_eq!(coords.len(), self.groups.len(), "coordinate arity mismatch");
        let mut cfg = Config::with_capacity(self.arity);
        for (g, &i) in self.groups.iter().zip(coords) {
            g.write_config(i, &mut cfg);
        }
        cfg
    }

    /// The configuration at flat index `index` (`0 <= index < len`), by
    /// mixed-radix decomposition over the group sizes — O(#groups), no
    /// materialized cross product. This is exactly the indexing that lets
    /// the OpenTuner-style engine treat the valid space as one integer
    /// parameter `TP ∈ [1, S]` (paper, Section IV-C).
    pub fn get(&self, index: u128) -> Config {
        self.get_by_coords(&self.decompose(index))
    }

    /// Decomposes a flat index into per-group coordinates.
    pub fn decompose(&self, mut index: u128) -> Vec<u64> {
        assert!(
            index < self.len,
            "index {index} out of bounds ({})",
            self.len
        );
        let mut coords = vec![0u64; self.groups.len()];
        for (c, g) in coords.iter_mut().zip(&self.groups).rev() {
            let n = g.len() as u128;
            *c = (index % n) as u64;
            index /= n;
        }
        coords
    }

    /// Recomposes per-group coordinates into a flat index (inverse of
    /// [`Self::decompose`]).
    pub fn compose(&self, coords: &[u64]) -> u128 {
        assert_eq!(coords.len(), self.groups.len(), "coordinate arity mismatch");
        let mut index = 0u128;
        for (g, &c) in self.groups.iter().zip(coords) {
            debug_assert!(c < g.len());
            index = index * g.len() as u128 + c as u128;
        }
        index
    }

    /// Iterates over all configurations in index order.
    pub fn iter(&self) -> impl Iterator<Item = Config> + '_ {
        (0..self.len).map(|i| self.get(i))
    }
}

/// Reference generator: enumerate the **unconstrained cross product** and
/// filter complete configurations afterwards — the CLTune strategy the paper
/// measures against (Section VI-A). Exposed for tests (equivalence oracle)
/// and for the baseline/bench crates.
///
/// Returns `Err(TooLarge)` once more than `limit` *candidate* configurations
/// have been enumerated — with interdependent parameters this blows up
/// combinatorially, which is the paper's point.
pub fn cross_product_filter(
    groups: &[ParamGroup],
    limit: u64,
    cancel: Option<&AtomicBool>,
) -> Result<Vec<Config>, SpaceError> {
    // Flatten all parameters; candidate = one value per parameter.
    let params: Vec<_> = groups.iter().flat_map(|g| g.params().iter()).collect();
    let mut out = Vec::new();
    let mut idx = vec![0u64; params.len()];
    if params.iter().any(|p| p.range().is_empty()) {
        return Ok(out);
    }
    let mut enumerated = 0u64;
    loop {
        if let Some(flag) = cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(SpaceError::Cancelled);
            }
        }
        enumerated += 1;
        if enumerated > limit {
            return Err(SpaceError::TooLarge { limit });
        }
        // Build the candidate configuration.
        let mut cfg = Config::new();
        for (p, &i) in params.iter().zip(&idx) {
            cfg.push(p.name_arc(), p.range().get(i));
        }
        // Post-hoc filtering: every constraint must hold over the *complete*
        // configuration (CLTune's boolean search-space filters).
        let valid = params.iter().all(|p| match p.constraint() {
            Some(c) => c.check(&cfg[p.name()], &cfg),
            None => true,
        });
        if valid {
            out.push(cfg);
        }
        // Odometer increment.
        let mut d = params.len();
        loop {
            if d == 0 {
                return Ok(out);
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < params[d].range().len() {
                break;
            }
            idx[d] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{divides, less_than};
    use crate::expr::{cst, param as p};
    use crate::param::{tp, tp_c};
    use crate::range::Range;

    fn saxpy_groups(n: u64) -> Vec<ParamGroup> {
        vec![ParamGroup::new(vec![
            tp_c("WPT", Range::interval(1, n), divides(cst(n))),
            tp_c("LS", Range::interval(1, n), divides(cst(n) / p("WPT"))),
        ])]
    }

    #[test]
    fn saxpy_space_small() {
        // N = 8: WPT ∈ {1,2,4,8}; LS divides 8/WPT.
        let space = SearchSpace::generate(&saxpy_groups(8));
        // WPT=1: LS ∈ div(8) = 4; WPT=2: div(4) = 3; WPT=4: div(2) = 2; WPT=8: div(1) = 1.
        assert_eq!(space.len(), 4 + 3 + 2 + 1);
        for cfg in space.iter() {
            let wpt = cfg.get_u64("WPT");
            let ls = cfg.get_u64("LS");
            assert_eq!(8 % wpt, 0);
            assert_eq!((8 / wpt) % ls, 0);
        }
    }

    #[test]
    fn matches_cross_product_filter_oracle() {
        let groups = saxpy_groups(12);
        let fast = SearchSpace::generate(&groups);
        let slow = cross_product_filter(&groups, u64::MAX, None).unwrap();
        assert_eq!(fast.len(), slow.len() as u128);
        let fast_set: Vec<_> = fast.iter().collect();
        for cfg in &slow {
            assert!(fast_set.contains(cfg), "missing {cfg:?}");
        }
    }

    #[test]
    fn compiled_matches_reference_generator() {
        let groups = saxpy_groups(24);
        for g in &groups {
            let compiled = GroupSpace::generate(g);
            let reference = GroupSpace::generate_reference(g);
            assert_eq!(compiled.len(), reference.len());
            for i in 0..compiled.len() {
                assert_eq!(compiled.values(i), reference.values(i), "config {i}");
            }
        }
    }

    #[test]
    fn count_equals_generate() {
        let groups = saxpy_groups(24);
        assert_eq!(
            SearchSpace::count(&groups).unwrap(),
            SearchSpace::generate(&groups).len()
        );
    }

    #[test]
    fn count_overflow_is_structured_and_fast() {
        // Four unconstrained u64-sized ranges: ~2^256 configurations. The
        // unconstrained-suffix shortcut must detect the overflow without
        // enumerating anything.
        let g = ParamGroup::new(vec![
            tp("A", Range::interval(0, u64::MAX - 1)),
            tp("B", Range::interval(0, u64::MAX - 1)),
            tp("C", Range::interval(0, u64::MAX - 1)),
            tp("D", Range::interval(0, u64::MAX - 1)),
        ]);
        let started = std::time::Instant::now();
        assert_eq!(GroupSpace::count(&g), Err(SpaceError::Overflow));
        assert_eq!(SearchSpace::count(&[g]), Err(SpaceError::Overflow));
        assert!(
            started.elapsed().as_secs() < 5,
            "overflow must be detected, not enumerated"
        );
    }

    #[test]
    fn huge_unconstrained_count_uses_the_shortcut() {
        // 2^40 · 2^20 = 2^60 configs: counts instantly via the product
        // shortcut (enumeration would take years).
        let g = ParamGroup::new(vec![
            tp("A", Range::interval(1, 1 << 40)),
            tp("B", Range::interval(1, 1 << 20)),
        ]);
        assert_eq!(GroupSpace::count(&g).unwrap(), 1u64 << 60);
    }

    #[test]
    fn fig1_example_two_groups() {
        // Fig. 1 of the paper: tp1..tp4, each range {1,2}; tp2 divides tp1,
        // tp4 divides tp3; {tp1,tp2} and {tp3,tp4} are independent groups.
        let g1 = ParamGroup::new(vec![
            tp("tp1", Range::set([1u64, 2])),
            tp_c("tp2", Range::set([1u64, 2]), divides(p("tp1"))),
        ]);
        let g2 = ParamGroup::new(vec![
            tp("tp3", Range::set([1u64, 2])),
            tp_c("tp4", Range::set([1u64, 2]), divides(p("tp3"))),
        ]);
        let space = SearchSpace::generate_parallel(&[g1, g2]);
        // per group: (1,1), (2,1), (2,2) → 3 valid; total 3 × 3 = 9.
        assert_eq!(space.dims(), vec![3, 3]);
        assert_eq!(space.len(), 9);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g1 = ParamGroup::new(vec![
            tp("A", Range::interval(1, 16)),
            tp_c("B", Range::interval(1, 16), divides(p("A"))),
        ]);
        let g2 = ParamGroup::new(vec![tp_c(
            "C",
            Range::interval(1, 32),
            less_than(cst(10u64)),
        )]);
        let seq = SearchSpace::generate(&[g1.clone(), g2.clone()]);
        let par = SearchSpace::generate_parallel(&[g1, g2]);
        assert_eq!(seq.len(), par.len());
        for i in 0..seq.len() {
            assert_eq!(seq.get(i), par.get(i));
        }
    }

    #[test]
    fn index_decompose_compose_roundtrip() {
        let space = SearchSpace::generate(&saxpy_groups(16));
        for i in 0..space.len() {
            let coords = space.decompose(i);
            assert_eq!(space.compose(&coords), i);
            assert_eq!(space.get(i), space.get_by_coords(&coords));
        }
    }

    #[test]
    fn empty_space_when_unsatisfiable() {
        let g = ParamGroup::new(vec![tp_c(
            "X",
            Range::interval(1, 10),
            less_than(cst(0u64)),
        )]);
        let space = SearchSpace::generate(&[g]);
        assert!(space.is_empty());
        assert_eq!(space.len(), 0);
    }

    #[test]
    fn generation_limit_enforced() {
        let g = ParamGroup::new(vec![tp("X", Range::interval(1, 1000))]);
        let err = GroupSpace::generate_with(&g, 10, None).unwrap_err();
        assert_eq!(err, SpaceError::TooLarge { limit: 10 });
    }

    #[test]
    fn cross_product_filter_limit() {
        let groups = saxpy_groups(64);
        // unconstrained product is 64*64 = 4096 candidates
        let err = cross_product_filter(&groups, 100, None).unwrap_err();
        assert_eq!(err, SpaceError::TooLarge { limit: 100 });
    }

    #[test]
    fn cancel_flag_stops_generation() {
        let flag = AtomicBool::new(true);
        let g = ParamGroup::new(vec![
            tp("A", Range::interval(1, 100)),
            tp("B", Range::interval(1, 100)),
        ]);
        let err = GroupSpace::generate_with(&g, u64::MAX, Some(&flag)).unwrap_err();
        assert_eq!(err, SpaceError::Cancelled);
        let err = cross_product_filter(&[g], u64::MAX, Some(&flag)).unwrap_err();
        assert_eq!(err, SpaceError::Cancelled);
    }

    #[test]
    fn constrained_generation_beats_cross_product_asymptotically() {
        // For divisor-chain constraints the DFS touches ~Σ d(k) prefixes,
        // the cross product touches N². Just verify both agree and that the
        // valid fraction is small.
        let n = 48;
        let groups = saxpy_groups(n);
        let valid = SearchSpace::count(&groups).unwrap();
        let unconstrained: u128 = groups.iter().map(|g| g.unconstrained_size()).product();
        assert!(valid * 20 < unconstrained, "{valid} vs {unconstrained}");
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name `A` in search space")]
    fn groups_sharing_a_name_are_refused_at_assembly() {
        let g = || GroupSpace::generate(&ParamGroup::new(vec![tp("A", Range::interval(1, 3))]));
        SearchSpace::from_group_spaces(vec![g(), g()]);
    }

    #[test]
    #[should_panic(expected = "overflows the counting integer type")]
    fn oversized_cross_products_panic_instead_of_wrapping() {
        // Three unconstrained 2^60 groups cost no memory; their product
        // does not fit `u128`.
        let g = |name: &str| {
            GroupSpace::generate(&ParamGroup::new(vec![tp(
                name,
                Range::interval(1, 1 << 60),
            )]))
        };
        SearchSpace::from_group_spaces(vec![g("A"), g("B"), g("C")]);
    }

    #[test]
    fn get_by_coords_order_matches_declaration() {
        let space = SearchSpace::generate(&saxpy_groups(8));
        let cfg = space.get(0);
        let names: Vec<_> = cfg.names().collect();
        assert_eq!(names, vec!["WPT", "LS"]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn flat_index_out_of_bounds() {
        let space = SearchSpace::generate(&saxpy_groups(4));
        space.get(space.len());
    }
}
