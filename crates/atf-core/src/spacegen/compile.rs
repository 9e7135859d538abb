//! The constraint compiler: lowers alias-built constraints into per-prefix
//! *bounds* so the generation walk evaluates each constraint operand **once
//! per prefix** instead of once per candidate value, enumerates divisors
//! instead of scanning ranges where a `divides` atom allows it, and cuts
//! scans short with monotone propagators.
//!
//! Soundness: a compiled plan must accept exactly the values the original
//! predicate closures accept, in the same order. Three mechanisms guarantee
//! this:
//!
//! 1. Atom lowering mirrors the alias constructors' closure semantics
//!    *exactly* — `divides`/`is_multiple_of` bind their operand through
//!    `Expr::eval_u64`, the comparisons through `Expr::eval_f64`, and an
//!    operand evaluation error rejects the candidate, just like the
//!    closures do.
//! 2. Any constraint whose [`ConstraintKind`] is `Opaque` (an arbitrary
//!    user predicate) is kept as-is and evaluated per candidate — the
//!    sound fallback. Mixed trees (e.g. `divides(..) & predicate(..)`)
//!    compile the alias atoms and fall back only for the opaque leaf.
//! 3. The divisor-enumeration and early-cut fast paths apply only to plain
//!    ascending integer windows, where candidate order and atom
//!    monotonicity are known; the produced candidate list is filtered
//!    through the *full* bound, so extra conjuncts are never dropped.

use crate::config::Config;
use crate::constraint::{Constraint, ConstraintKind};
use crate::expr::Expr;
use crate::param::{Param, ParamGroup};
use crate::range::Range;
use crate::space::SpaceError;
use crate::value::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A constraint lowered to its structural shape, with operand expressions
/// ready to bind against a prefix. Built once per parameter at plan-compile
/// time.
#[derive(Clone, Debug)]
pub(crate) enum Node {
    Divides(Expr),
    IsMultipleOf(Expr),
    LessThan(Expr),
    GreaterThan(Expr),
    Equal(Expr),
    Unequal(Expr),
    All(Vec<Node>),
    Any(Vec<Node>),
    Not(Box<Node>),
    /// Arbitrary predicate: evaluated per candidate (the soundness
    /// fallback).
    Opaque(Constraint),
}

fn lower(c: &Constraint) -> Node {
    match c.kind() {
        ConstraintKind::Divides(e) => Node::Divides(e.clone()),
        ConstraintKind::IsMultipleOf(e) => Node::IsMultipleOf(e.clone()),
        ConstraintKind::LessThan(e) => Node::LessThan(e.clone()),
        ConstraintKind::GreaterThan(e) => Node::GreaterThan(e.clone()),
        ConstraintKind::Equal(e) => Node::Equal(e.clone()),
        ConstraintKind::Unequal(e) => Node::Unequal(e.clone()),
        ConstraintKind::And(a, b) => {
            let mut parts = Vec::new();
            flatten(a, true, &mut parts);
            flatten(b, true, &mut parts);
            Node::All(parts)
        }
        ConstraintKind::Or(a, b) => {
            let mut parts = Vec::new();
            flatten(a, false, &mut parts);
            flatten(b, false, &mut parts);
            Node::Any(parts)
        }
        ConstraintKind::Not(inner) => Node::Not(Box::new(lower(inner))),
        ConstraintKind::Opaque => Node::Opaque(c.clone()),
    }
}

/// Flattens nested `&` (or `|`) chains into one `All` (`Any`) list,
/// preserving left-to-right evaluation order so short-circuiting matches
/// the combined closures.
fn flatten(c: &Constraint, conjunctive: bool, out: &mut Vec<Node>) {
    match (c.kind(), conjunctive) {
        (ConstraintKind::And(a, b), true) => {
            flatten(a, true, out);
            flatten(b, true, out);
        }
        (ConstraintKind::Or(a, b), false) => {
            flatten(a, false, out);
            flatten(b, false, out);
        }
        _ => out.push(lower(c)),
    }
}

/// A [`Node`] with its operand expressions evaluated against one generation
/// prefix — the per-prefix working form. Checking a candidate against a
/// `Bound` costs integer/float ops (plus a closure call per `Pred` leaf),
/// never an expression evaluation.
#[derive(Debug)]
pub(crate) enum Bound<'p> {
    Const(bool),
    /// Candidate must divide the bound target.
    Divides(u64),
    /// Candidate must be a multiple of the (nonzero) bound divisor.
    MultipleOf(u64),
    Less(f64),
    Greater(f64),
    Eq(f64),
    Ne(f64),
    All(Vec<Bound<'p>>),
    Any(Vec<Bound<'p>>),
    Not(Box<Bound<'p>>),
    /// Opaque predicate, evaluated per candidate.
    Pred(&'p Constraint),
}

/// Binds a lowered node against the prefix `partial`, evaluating each
/// operand expression once. An operand that fails to evaluate (unknown
/// parameter, division by zero, non-numeric) yields `Const(false)` —
/// exactly the alias closures' behaviour.
pub(crate) fn bind<'p>(node: &'p Node, partial: &Config) -> Bound<'p> {
    match node {
        Node::Divides(e) => match e.eval_u64(partial) {
            Ok(t) => Bound::Divides(t),
            Err(_) => Bound::Const(false),
        },
        Node::IsMultipleOf(e) => match e.eval_u64(partial) {
            Ok(d) if d != 0 => Bound::MultipleOf(d),
            _ => Bound::Const(false),
        },
        Node::LessThan(e) => match e.eval_f64(partial) {
            Ok(t) => Bound::Less(t),
            Err(_) => Bound::Const(false),
        },
        Node::GreaterThan(e) => match e.eval_f64(partial) {
            Ok(t) => Bound::Greater(t),
            Err(_) => Bound::Const(false),
        },
        Node::Equal(e) => match e.eval_f64(partial) {
            Ok(t) => Bound::Eq(t),
            Err(_) => Bound::Const(false),
        },
        Node::Unequal(e) => match e.eval_f64(partial) {
            Ok(t) => Bound::Ne(t),
            Err(_) => Bound::Const(false),
        },
        Node::All(xs) => Bound::All(xs.iter().map(|x| bind(x, partial)).collect()),
        Node::Any(xs) => Bound::Any(xs.iter().map(|x| bind(x, partial)).collect()),
        Node::Not(x) => Bound::Not(Box::new(bind(x, partial))),
        Node::Opaque(c) => Bound::Pred(c),
    }
}

impl Bound<'_> {
    /// Does candidate `v` satisfy the bound? Mirrors the alias closures:
    /// `Divides`/`MultipleOf` compare through `Value::as_u64`, the
    /// comparisons through `Value::as_f64`, and a candidate outside the
    /// expected domain fails.
    pub(crate) fn check(&self, v: &Value, partial: &Config) -> bool {
        match self {
            Bound::Const(b) => *b,
            Bound::Divides(t) => match v.as_u64() {
                Some(u) if u != 0 => t % u == 0,
                _ => false,
            },
            Bound::MultipleOf(d) => match v.as_u64() {
                Some(u) => u % d == 0,
                None => false,
            },
            Bound::Less(t) => v.as_f64().is_some_and(|x| x < *t),
            Bound::Greater(t) => v.as_f64().is_some_and(|x| x > *t),
            Bound::Eq(t) => v.as_f64().is_some_and(|x| x == *t),
            Bound::Ne(t) => v.as_f64().is_some_and(|x| x != *t),
            Bound::All(xs) => xs.iter().all(|x| x.check(v, partial)),
            Bound::Any(xs) => xs.iter().any(|x| x.check(v, partial)),
            Bound::Not(x) => !x.check(v, partial),
            Bound::Pred(c) => c.check(v, partial),
        }
    }

    /// Monotone propagator: `true` if, given that candidate values are
    /// scanned in non-decreasing numeric order, this bound (and therefore
    /// any conjunction containing it) fails for `v` **and every later
    /// candidate** — so the scan can stop. Only atoms whose accepting set
    /// is upward-closed in the complement qualify: `< t` and `== t` fail
    /// permanently once the value passes `t`, and a divisor of `t > 0`
    /// can never exceed `t`.
    pub(crate) fn permanently_fails(&self, v: &Value) -> bool {
        match self {
            Bound::All(xs) => xs.iter().any(|x| x.atom_permanently_fails(v)),
            other => other.atom_permanently_fails(v),
        }
    }

    fn atom_permanently_fails(&self, v: &Value) -> bool {
        match self {
            Bound::Const(false) => true,
            Bound::Less(t) => v.as_f64().is_some_and(|x| x >= *t),
            Bound::Eq(t) => v.as_f64().is_some_and(|x| x > *t),
            Bound::Divides(t) => *t > 0 && v.as_u64().is_some_and(|u| u > *t),
            _ => false,
        }
    }

    /// Inclusive integer value bounds implied by top-level comparison
    /// conjuncts: any *integer* value accepted by this bound satisfies
    /// `lo <= v <= hi`. Conservative — atoms that imply no bound (or
    /// appear under `Any`/`Not`) contribute nothing. This is what lets a
    /// monotone window scan start *at* the first possibly-valid position
    /// instead of filtering its way through the whole below-threshold
    /// prefix (`> t` previously scanned it; `< t`/`== t` early-cut the
    /// tail but paid a check per candidate up to the threshold).
    pub(crate) fn value_bounds(&self) -> (Option<i128>, Option<i128>) {
        match self {
            Bound::All(xs) => xs.iter().fold((None, None), |(lo, hi), x| {
                let (l, h) = x.atom_value_bounds();
                (
                    match (lo, l) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        (a, b) => a.or(b),
                    },
                    match (hi, h) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    },
                )
            }),
            other => other.atom_value_bounds(),
        }
    }

    fn atom_value_bounds(&self) -> (Option<i128>, Option<i128>) {
        // Thresholds beyond this magnitude cannot tighten any i64/u64
        // window further than "everything" / "nothing", and float→int
        // conversion gets delicate; skip them.
        const LIMIT: f64 = 9.0e18;
        match self {
            Bound::Greater(t) if t.is_finite() && t.abs() < LIMIT => {
                // Integer v > t  ⇔  v ≥ ⌊t⌋ + 1.
                (Some(t.floor() as i128 + 1), None)
            }
            Bound::Less(t) if t.is_finite() && t.abs() < LIMIT => {
                // Integer v < t  ⇔  v ≤ ⌈t⌉ − 1.
                (None, Some(t.ceil() as i128 - 1))
            }
            Bound::Eq(t) if t.is_finite() && t.abs() < LIMIT => {
                // Non-integral t: ceil > floor ⇒ empty window, correctly.
                (Some(t.ceil() as i128), Some(t.floor() as i128))
            }
            _ => (None, None),
        }
    }

    /// The smallest `divides` target among top-level conjuncts, if any —
    /// the handle for divisor enumeration.
    fn divides_target(&self) -> Option<u64> {
        match self {
            Bound::Divides(t) => Some(*t),
            Bound::All(xs) => xs
                .iter()
                .filter_map(|x| match x {
                    Bound::Divides(t) => Some(*t),
                    _ => None,
                })
                .min(),
            _ => None,
        }
    }
}

/// Integer square root (floor), used to cost divisor enumeration.
fn isqrt(n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let mut r = (n as f64).sqrt() as u64;
    while r.checked_mul(r).is_none_or(|sq| sq > n) {
        r -= 1;
    }
    while (r + 1).checked_mul(r + 1).is_some_and(|sq| sq <= n) {
        r += 1;
    }
    r
}

/// Ascending divisors of `t` that lie on the window `begin..=end` stepped
/// by `step`.
fn divisors_in_window(t: u64, begin: u64, end: u64, step: u64) -> Vec<u64> {
    let mut small = Vec::new();
    let mut large = Vec::new();
    let mut i = 1u64;
    while i <= t / i {
        if t.is_multiple_of(i) {
            small.push(i);
            let j = t / i;
            if j != i {
                large.push(j);
            }
        }
        i += 1;
    }
    large.reverse();
    small.extend(large);
    small.retain(|&d| d >= begin && d <= end && (d - begin).is_multiple_of(step));
    small
}

/// The candidate values of one parameter under one generation prefix:
/// either a filtered scan over the parameter's range or a precomputed list
/// (divisor enumeration). A candidate's *position* is its index in the
/// parameter's range from either source — `range.get(position)` is its
/// value — which is what the packed group store keeps per prefix row and
/// what lazy-space checkpoints restore.
pub(crate) enum CandSource<'p> {
    Window {
        range: &'p Range,
        bound: Option<Bound<'p>>,
        /// Plain ascending numeric window: monotone early-cut allowed.
        monotone: bool,
        next: u64,
        len: u64,
    },
    List {
        /// `(position, value)`, ascending.
        values: Vec<(u64, Value)>,
        next: usize,
    },
}

impl CandSource<'_> {
    /// The next valid candidate after the current position, as
    /// `(position, value)`.
    pub(crate) fn next(&mut self, partial: &Config) -> Option<(u64, Value)> {
        match self {
            CandSource::Window {
                range,
                bound,
                monotone,
                next,
                len,
            } => {
                while *next < *len {
                    let i = *next;
                    *next += 1;
                    let v = range.get(i);
                    match bound {
                        None => return Some((i, v)),
                        Some(b) => {
                            if b.check(&v, partial) {
                                return Some((i, v));
                            }
                            if *monotone && b.permanently_fails(&v) {
                                *next = *len;
                                return None;
                            }
                        }
                    }
                }
                None
            }
            CandSource::List { values, next } => {
                let candidate = values.get(*next).cloned();
                *next += 1;
                candidate
            }
        }
    }

    /// Positions the source *at* `pos` (a position previously returned by
    /// [`Self::next`] for the same prefix) and returns its value. The
    /// value is trusted valid — it passed the bound when first enumerated.
    pub(crate) fn seek(&mut self, pos: u64) -> Value {
        match self {
            CandSource::Window { range, next, .. } => {
                *next = pos + 1;
                range.get(pos)
            }
            CandSource::List { values, next } => {
                let i = values
                    .binary_search_by_key(&pos, |(p, _)| *p)
                    .expect("position was enumerated for this prefix");
                *next = i + 1;
                values[i].1.clone()
            }
        }
    }
}

/// One parameter's compiled plan.
#[derive(Clone, Debug)]
struct ParamPlan {
    param: Param,
    node: Option<Node>,
}

/// A whole group's compiled generation plan: per-parameter lowered
/// constraints plus the prefix/tail split of the packed group store.
#[derive(Clone, Debug)]
pub(crate) struct GroupPlan {
    params: Vec<ParamPlan>,
    names: Arc<[Arc<str>]>,
    /// The first depth from which every parameter is unconstrained: the
    /// subtree below any valid prefix of this length is the pure product
    /// of the remaining ranges, so the walk stops here.
    prefix_len: usize,
}

impl GroupPlan {
    pub(crate) fn compile(group: &ParamGroup) -> Self {
        let params: Vec<ParamPlan> = group
            .params()
            .iter()
            .map(|p| ParamPlan {
                node: p.constraint().map(lower),
                param: p.clone(),
            })
            .collect();
        let names: Arc<[Arc<str>]> = group.params().iter().map(|p| p.name_arc()).collect();
        let prefix_len = params
            .iter()
            .rposition(|pp| pp.node.is_some())
            .map_or(0, |last_constrained| last_constrained + 1);
        GroupPlan {
            params,
            names,
            prefix_len,
        }
    }

    /// Number of parameters.
    pub(crate) fn len(&self) -> usize {
        self.params.len()
    }

    /// Parameter names in declaration order (shared allocation).
    pub(crate) fn names(&self) -> Arc<[Arc<str>]> {
        self.names.clone()
    }

    /// Number of leading parameters the walk enumerates; the rest are the
    /// unconstrained tail.
    pub(crate) fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// Every parameter's range, in declaration order.
    pub(crate) fn ranges(&self) -> Vec<Range> {
        self.params
            .iter()
            .map(|pp| pp.param.range().clone())
            .collect()
    }

    /// The candidate source for `depth` under the prefix `partial`: binds
    /// the parameter's constraint once, then picks divisor enumeration
    /// when a `divides` conjunct makes it asymptotically cheaper than
    /// scanning the window.
    pub(crate) fn candidates(&self, depth: usize, partial: &Config) -> CandSource<'_> {
        let pp = &self.params[depth];
        let range = pp.param.range();
        let Some(node) = &pp.node else {
            return CandSource::Window {
                range,
                bound: None,
                monotone: false,
                next: 0,
                len: range.len(),
            };
        };
        let bound = bind(node, partial);
        let monotone = matches!(
            range,
            Range::UIntInterval {
                generator: None,
                step: 1..,
                ..
            } | Range::IntInterval {
                generator: None,
                step: 1..,
                ..
            }
        );
        if let Range::UIntInterval {
            begin,
            end,
            step,
            generator: None,
        } = range
        {
            if begin <= end {
                if let Some(t) = bound.divides_target() {
                    let window = (end - begin) / step + 1;
                    // Enumerating divisors costs ~√t; take that path when
                    // it clearly beats scanning the window.
                    if t > 0 && isqrt(t).saturating_mul(4) < window {
                        let values = divisors_in_window(t, *begin, *end, *step)
                            .into_iter()
                            .map(|d| ((d - begin) / step, Value::UInt(d)))
                            .filter(|(_, v)| bound.check(v, partial))
                            .collect();
                        return CandSource::List { values, next: 0 };
                    }
                }
            }
        }
        let mut next = 0u64;
        let mut len = range.len();
        if monotone && len > 0 {
            // Tighten the scan window to the positions the comparison
            // conjuncts can possibly accept. Positions stay *raw* range
            // indices (seek/lazy-space checkpoints depend on that); only
            // the start cursor and the exclusive end move.
            let (lo, hi) = bound.value_bounds();
            let (begin, step) = match range {
                Range::UIntInterval { begin, step, .. } => (*begin as i128, *step as i128),
                Range::IntInterval { begin, step, .. } => (i128::from(*begin), i128::from(*step)),
                _ => unreachable!("monotone implies an integer interval"),
            };
            if let Some(lo) = lo {
                if lo > begin {
                    let skip = (lo - begin + step - 1) / step;
                    next = if skip >= len as i128 {
                        len
                    } else {
                        skip as u64
                    };
                }
            }
            if let Some(hi) = hi {
                if hi < begin {
                    len = 0;
                } else {
                    let last = (hi - begin) / step;
                    if last + 1 < len as i128 {
                        len = (last + 1) as u64;
                    }
                }
            }
        }
        CandSource::Window {
            range,
            bound: Some(bound),
            monotone,
            next,
            len,
        }
    }

    /// Depth-first generation walk below `prefix` down to
    /// [`Self::prefix_len`], emitting the range positions of each valid
    /// prefix row. Rows come out in exactly the order of the reference
    /// predicate-evaluation walk; every row stands for the full product of
    /// the tail ranges, last parameter fastest.
    pub(crate) fn walk(
        &self,
        prefix: &mut Prefix,
        emit: &mut impl FnMut(&[u64]) -> Result<(), SpaceError>,
        cancel: Option<&AtomicBool>,
    ) -> Result<(), SpaceError> {
        if let Some(flag) = cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(SpaceError::Cancelled);
            }
        }
        let depth = prefix.positions.len();
        if depth == self.prefix_len {
            return emit(&prefix.positions);
        }
        let mut src = self.candidates(depth, &prefix.config);
        while let Some((pos, v)) = src.next(&prefix.config) {
            prefix.push(pos, v);
            let r = self.walk(prefix, emit, cancel);
            prefix.pop();
            r?;
        }
        Ok(())
    }

    /// Counts the group's valid configurations without storing anything:
    /// prefix rows times the tail product. Overflowing `u64` returns
    /// [`SpaceError::Overflow`] — reachable for astronomically large
    /// unconstrained spaces where the count cannot be represented.
    pub(crate) fn count(&self) -> Result<u64, SpaceError> {
        let mut rows = 0u64;
        let mut count_row = |_: &[u64]| {
            rows += 1;
            Ok(())
        };
        self.walk(&mut Prefix::new(self), &mut count_row, None)?;
        configs(rows, tail_len(&self.ranges()[self.prefix_len..]))
    }
}

/// Product of the tail ranges' sizes; `None` when it overflows `u64`.
pub(crate) fn tail_len(tail: &[Range]) -> Option<u64> {
    tail.iter()
        .try_fold(1u64, |prod, range| prod.checked_mul(range.len()))
}

/// `rows · tail_len` configurations, checked. No row at all is an empty
/// space whatever the tail.
pub(crate) fn configs(rows: u64, tail_len: Option<u64>) -> Result<u64, SpaceError> {
    if rows == 0 {
        return Ok(0);
    }
    tail_len
        .and_then(|tail| rows.checked_mul(tail))
        .ok_or(SpaceError::Overflow)
}

/// The generation prefix: the partial configuration constraints are bound
/// against, and the range position of each value fixed so far. A
/// parameter's name is handed in when its value is pushed and taken back
/// when it is popped, so a node of the walk costs neither an `Arc`
/// refcount round-trip nor [`Config::push`]'s duplicate-name scan —
/// [`ParamGroup::new`] asserted uniqueness once.
pub(crate) struct Prefix {
    config: Config,
    positions: Vec<u64>,
    /// Names of the parameters not fixed yet, deepest first.
    spare: Vec<Arc<str>>,
}

impl Prefix {
    /// The empty prefix of `plan`'s group.
    pub(crate) fn new(plan: &GroupPlan) -> Self {
        Prefix {
            config: Config::with_capacity(plan.len()),
            positions: Vec::with_capacity(plan.len()),
            spare: plan.names.iter().rev().cloned().collect(),
        }
    }

    /// Fixes the next parameter at range position `pos`, whose value is `v`.
    pub(crate) fn push(&mut self, pos: u64, v: Value) {
        let name = self.spare.pop().expect("prefix is shorter than the group");
        self.config.push_unique(name, v);
        self.positions.push(pos);
    }

    /// Unfixes the most recently fixed parameter.
    pub(crate) fn pop(&mut self) {
        let (name, _) = self.config.pop().expect("prefix is not empty");
        self.spare.push(name);
        self.positions.pop();
    }

    pub(crate) fn config(&self) -> &Config {
        &self.config
    }

    pub(crate) fn positions(&self) -> &[u64] {
        &self.positions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{divides, equal, greater_than, less_than, predicate, unequal};
    use crate::expr::{cst, param as p};
    use crate::param::{tp, tp_c};

    fn rows(gs: &crate::space::GroupSpace) -> Vec<Vec<Value>> {
        (0..gs.len()).map(|i| gs.values(i)).collect()
    }

    fn enumerate(group: &ParamGroup) -> Vec<Vec<Value>> {
        rows(&crate::space::GroupSpace::generate(group))
    }

    fn reference(group: &ParamGroup) -> Vec<Vec<Value>> {
        rows(&crate::space::GroupSpace::generate_reference(group))
    }

    #[test]
    fn compiled_matches_reference_on_divisor_chain() {
        let g = ParamGroup::new(vec![
            tp_c("WPT", Range::interval(1, 64), divides(cst(64u64))),
            tp_c("LS", Range::interval(1, 64), divides(cst(64u64) / p("WPT"))),
        ]);
        assert_eq!(enumerate(&g), reference(&g));
    }

    #[test]
    fn compiled_matches_reference_with_opaque_fallback() {
        let g = ParamGroup::new(vec![
            tp("A", Range::interval(1, 12)),
            tp_c(
                "B",
                Range::interval(1, 12),
                divides(p("A"))
                    & predicate("A*B <= 24", |v, c| {
                        v.as_u64()
                            .zip(c.get("A").and_then(|a| a.as_u64()))
                            .is_some_and(|(b, a)| a * b <= 24)
                    }),
            ),
        ]);
        assert_eq!(enumerate(&g), reference(&g));
    }

    #[test]
    fn compiled_matches_reference_on_disjunction_and_negation() {
        let g = ParamGroup::new(vec![
            tp("A", Range::interval(1, 10)),
            tp_c(
                "B",
                Range::interval(1, 10),
                (less_than(p("A")) | equal(cst(7u64))).not() & unequal(p("A")),
            ),
        ]);
        assert_eq!(enumerate(&g), reference(&g));
    }

    #[test]
    fn divisor_enumeration_kicks_in_on_large_windows() {
        // 1<<20 window with a divides constraint: the compiled plan must
        // not scan it — witnessed by finishing instantly and agreeing
        // with arithmetic.
        let n = 1u64 << 20;
        let g = ParamGroup::new(vec![tp_c("LS", Range::interval(1, n), divides(cst(n)))]);
        let got = enumerate(&g);
        assert_eq!(got.len(), 21); // divisors of 2^20
        assert_eq!(got[0], vec![Value::UInt(1)]);
        assert_eq!(got[20], vec![Value::UInt(n)]);
    }

    #[test]
    fn monotone_cut_agrees_with_reference() {
        let g = ParamGroup::new(vec![
            tp("A", Range::interval(1, 9)),
            tp_c("B", Range::interval(1, 1000), less_than(p("A") * cst(3u64))),
            tp_c("C", Range::interval(1, 50), equal(p("B"))),
        ]);
        assert_eq!(enumerate(&g), reference(&g));
    }

    #[test]
    fn greater_than_and_stepped_windows() {
        let g = ParamGroup::new(vec![
            tp("A", Range::interval_step(2, 20, 3)),
            tp_c("B", Range::interval_step(1, 40, 2), greater_than(p("A"))),
        ]);
        assert_eq!(enumerate(&g), reference(&g));
    }

    #[test]
    fn count_shortcut_matches_enumeration() {
        let g = ParamGroup::new(vec![
            tp_c("A", Range::interval(1, 24), divides(cst(24u64))),
            tp("B", Range::interval(1, 7)),
            tp("C", Range::interval(1, 5)),
        ]);
        let plan = GroupPlan::compile(&g);
        assert_eq!(plan.prefix_len(), 1);
        assert_eq!(plan.count().unwrap() as usize, enumerate(&g).len());
    }

    #[test]
    fn count_overflows_to_structured_error() {
        let g = ParamGroup::new(vec![
            tp("A", Range::interval(1, u64::MAX)),
            tp("B", Range::interval(1, u64::MAX)),
        ]);
        assert_eq!(GroupPlan::compile(&g).count(), Err(SpaceError::Overflow));
    }

    #[test]
    fn isqrt_exact() {
        for n in [0u64, 1, 2, 3, 4, 15, 16, 17, 1 << 40, u64::MAX] {
            let r = isqrt(n);
            assert!(r as u128 * r as u128 <= n as u128);
            assert!((r as u128 + 1) * (r as u128 + 1) > n as u128);
        }
    }

    #[test]
    fn divisors_ascending_and_clipped() {
        assert_eq!(divisors_in_window(12, 1, 12, 1), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors_in_window(12, 2, 6, 2), vec![2, 4, 6]);
        assert_eq!(divisors_in_window(1, 2, 100, 1), Vec::<u64>::new());
    }
}
