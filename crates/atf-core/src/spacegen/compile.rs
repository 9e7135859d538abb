//! The constraint compiler: lowers alias-built constraints into per-prefix
//! *bounds* so the generation walk evaluates each constraint operand at
//! most **once per prefix** instead of once per candidate value, draws
//! candidates from memoised divisor lists instead of scanning ranges where
//! `divides` atoms allow it, and cuts scans short with monotone
//! propagators.
//!
//! The walk ([`Walker`]) visits a prefix without a name lookup or a heap
//! allocation: operand names are resolved to parameter *slots* when the
//! plan is compiled; each depth binds its atoms into scratch it keeps
//! across sibling prefixes, rebinding only when a parameter its operands
//! read was fixed anew; and each depth memoises, per `divides` target, the
//! values of its range that divide it, for the walker's lifetime.
//!
//! Soundness: a compiled plan must accept exactly the values the original
//! predicate closures accept, in the same order. Three mechanisms guarantee
//! this:
//!
//! 1. Atom lowering mirrors the alias constructors' closure semantics
//!    *exactly*. An operand's parameter leaves are resolved to slots — the
//!    indices of the parameters declared before the constrained one, the
//!    only names the closure finds in its partial configuration — and the
//!    slotted operand is evaluated by `Expr`'s own evaluator with only the
//!    leaf lookup swapped (`Slotted::eval`). So `divides`/`is_multiple_of`
//!    bind through the `Num` → `u64` conversion of `Expr::eval_u64`, the
//!    comparisons through that of `Expr::eval_f64`, and division by zero,
//!    negative or fractional targets and symbolic values fail exactly where
//!    they fail in the closures. An operand naming any other parameter (a
//!    later one, the constrained one itself, one of another group) fails in
//!    the closure at its lookup, so it compiles to a bound that rejects
//!    every candidate — as does any operand evaluation error, just like the
//!    closures. A bound depends on the slots its operands read and nothing
//!    else, so it holds for every prefix that agrees on them.
//! 2. Any constraint whose [`ConstraintKind`] is `Opaque` (an arbitrary
//!    user predicate) is kept as-is and evaluated per candidate against the
//!    prefix's [`Config`] — the sound fallback. Mixed trees (e.g.
//!    `divides(..) & predicate(..)`) compile the alias atoms and fall back
//!    only for the opaque leaf.
//! 3. A divisor list holds exactly the range's values that divide every
//!    top-level `divides` target, in range order, so filtering it through
//!    the rest of the bound accepts what the full bound accepts, in the
//!    same order. Enumerating divisors (instead of one scan of the range
//!    per target), the early cut and window tightening apply only to plain
//!    ascending integer windows, where candidate order and atom
//!    monotonicity are known; every other candidate is checked against the
//!    full bound.

use crate::config::Config;
use crate::constraint::{Constraint, ConstraintKind};
use crate::expr::{Num, Slotted};
use crate::param::ParamGroup;
use crate::range::Range;
use crate::space::SpaceError;
use crate::value::Value;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A constraint lowered to its structural shape. A leaf indexes its
/// parameter's [`Atom`]s and, in the walk, the bounds they bind to.
#[derive(Clone, Debug)]
enum Shape {
    Atom(usize),
    All(Vec<Shape>),
    Any(Vec<Shape>),
    Not(Box<Shape>),
}

/// An alias atom with its operand resolved to slots — `None` when the
/// operand names a parameter not declared before the constrained one — or
/// an opaque predicate, evaluated per candidate (the soundness fallback).
#[derive(Clone, Debug)]
enum Atom {
    Divides(Option<Slotted>),
    IsMultipleOf(Option<Slotted>),
    LessThan(Option<Slotted>),
    GreaterThan(Option<Slotted>),
    Equal(Option<Slotted>),
    Unequal(Option<Slotted>),
    Opaque(Constraint),
}

/// Lowers `c` to a shape whose leaves it appends to `atoms`, resolving
/// operand names through `slot_of`.
fn lower(c: &Constraint, slot_of: &dyn Fn(&str) -> Option<usize>, atoms: &mut Vec<Atom>) -> Shape {
    let atom = match c.kind() {
        ConstraintKind::Divides(e) => Atom::Divides(e.resolve(slot_of)),
        ConstraintKind::IsMultipleOf(e) => Atom::IsMultipleOf(e.resolve(slot_of)),
        ConstraintKind::LessThan(e) => Atom::LessThan(e.resolve(slot_of)),
        ConstraintKind::GreaterThan(e) => Atom::GreaterThan(e.resolve(slot_of)),
        ConstraintKind::Equal(e) => Atom::Equal(e.resolve(slot_of)),
        ConstraintKind::Unequal(e) => Atom::Unequal(e.resolve(slot_of)),
        ConstraintKind::And(a, b) => {
            let mut parts = Vec::new();
            flatten(a, true, slot_of, atoms, &mut parts);
            flatten(b, true, slot_of, atoms, &mut parts);
            return Shape::All(parts);
        }
        ConstraintKind::Or(a, b) => {
            let mut parts = Vec::new();
            flatten(a, false, slot_of, atoms, &mut parts);
            flatten(b, false, slot_of, atoms, &mut parts);
            return Shape::Any(parts);
        }
        ConstraintKind::Not(inner) => return Shape::Not(Box::new(lower(inner, slot_of, atoms))),
        ConstraintKind::Opaque => Atom::Opaque(c.clone()),
    };
    atoms.push(atom);
    Shape::Atom(atoms.len() - 1)
}

/// Flattens nested `&` (or `|`) chains into one `All` (`Any`) list,
/// preserving left-to-right evaluation order so short-circuiting matches
/// the combined closures.
fn flatten(
    c: &Constraint,
    conjunctive: bool,
    slot_of: &dyn Fn(&str) -> Option<usize>,
    atoms: &mut Vec<Atom>,
    out: &mut Vec<Shape>,
) {
    match (c.kind(), conjunctive) {
        (ConstraintKind::And(a, b), true) | (ConstraintKind::Or(a, b), false) => {
            flatten(a, conjunctive, slot_of, atoms, out);
            flatten(b, conjunctive, slot_of, atoms, out);
        }
        _ => out.push(lower(c, slot_of, atoms)),
    }
}

impl Atom {
    /// Binds the atom against the prefix `partial`, evaluating its operand
    /// once. An operand that fails to evaluate (a name not fixed before
    /// the constrained parameter, division by zero, non-numeric) yields
    /// `Const(false)` — exactly the alias closures' behaviour.
    fn bind<'p>(&'p self, partial: &Config) -> Bound<'p> {
        let num = |e: &Option<Slotted>| e.as_ref().and_then(|e| e.eval(partial));
        let compare = |e, bound: fn(f64) -> Bound<'p>| {
            num(e).map_or(Bound::Const(false), |n| bound(n.as_f64()))
        };
        match self {
            Atom::Divides(e) => num(e)
                .and_then(Num::as_u64)
                .map_or(Bound::Const(false), Bound::Divides),
            Atom::IsMultipleOf(e) => match num(e).and_then(Num::as_u64) {
                Some(d) if d != 0 => Bound::MultipleOf(d),
                _ => Bound::Const(false),
            },
            Atom::LessThan(e) => compare(e, Bound::Less),
            Atom::GreaterThan(e) => compare(e, Bound::Greater),
            Atom::Equal(e) => compare(e, Bound::Eq),
            Atom::Unequal(e) => compare(e, Bound::Ne),
            Atom::Opaque(c) => Bound::Pred(c),
        }
    }
}

/// An [`Atom`] bound against one generation prefix — the per-prefix
/// working form. Checking a candidate against a `Bound` costs integer/float
/// ops (or one closure call for a `Pred`), never an expression evaluation.
#[derive(Clone, Copy, Debug)]
enum Bound<'p> {
    Const(bool),
    /// Candidate must divide the bound target.
    Divides(u64),
    /// Candidate must be a multiple of the (nonzero) bound divisor.
    MultipleOf(u64),
    Less(f64),
    Greater(f64),
    Eq(f64),
    Ne(f64),
    /// Opaque predicate, evaluated per candidate.
    Pred(&'p Constraint),
}

impl Bound<'_> {
    /// Does candidate `v` satisfy the bound? Mirrors the alias closures:
    /// `Divides`/`MultipleOf` compare through `Value::as_u64`, the
    /// comparisons through `Value::as_f64`, and a candidate outside the
    /// expected domain fails.
    fn check(&self, v: &Value, partial: &Config) -> bool {
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
            Bound::Pred(c) => c.check(v, partial),
        }
    }

    /// `true` if, candidates being scanned in non-decreasing numeric
    /// order, this atom fails for `v` **and every later candidate**. Only
    /// atoms whose accepting set is upward-closed in the complement
    /// qualify: `< t` and `== t` fail permanently once the value passes
    /// `t`, and a divisor of `t > 0` can never exceed `t`.
    fn permanently_fails(&self, v: &Value) -> bool {
        match self {
            Bound::Const(false) => true,
            Bound::Less(t) => v.as_f64().is_some_and(|x| x >= *t),
            Bound::Eq(t) => v.as_f64().is_some_and(|x| x > *t),
            Bound::Divides(t) => *t > 0 && v.as_u64().is_some_and(|u| u > *t),
            _ => false,
        }
    }

    /// Inclusive integer bounds on the values this atom accepts.
    fn value_bounds(&self) -> (Option<i128>, Option<i128>) {
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
}

impl Shape {
    /// Does candidate `v` satisfy the constraint, its atoms bound to
    /// `bounds`?
    fn check(&self, bounds: &[Bound], v: &Value, partial: &Config) -> bool {
        match self {
            Shape::Atom(i) => bounds[*i].check(v, partial),
            Shape::All(xs) => xs.iter().all(|x| x.check(bounds, v, partial)),
            Shape::Any(xs) => xs.iter().any(|x| x.check(bounds, v, partial)),
            Shape::Not(x) => !x.check(bounds, v, partial),
        }
    }

    /// The top-level conjuncts — those whose failure fails the whole
    /// constraint.
    fn conjuncts(&self) -> &[Shape] {
        match self {
            Shape::All(xs) => xs,
            other => std::slice::from_ref(other),
        }
    }

    /// The bound atoms among the top-level conjuncts.
    fn conjunct_atoms<'b, 'p>(
        &'b self,
        bounds: &'b [Bound<'p>],
    ) -> impl Iterator<Item = &'b Bound<'p>> + 'b {
        self.conjuncts().iter().filter_map(move |x| match x {
            Shape::Atom(i) => Some(&bounds[*i]),
            _ => None,
        })
    }

    /// Monotone propagator: `true` if, given that candidate values are
    /// scanned in non-decreasing numeric order, a conjunct fails for `v`
    /// and every later candidate — so the scan can stop.
    fn permanently_fails(&self, bounds: &[Bound], v: &Value) -> bool {
        self.conjunct_atoms(bounds).any(|b| b.permanently_fails(v))
    }

    /// Inclusive integer value bounds implied by top-level comparison
    /// conjuncts: any *integer* value accepted satisfies `lo <= v <= hi`.
    /// Conservative — atoms that imply no bound (or appear under
    /// `Any`/`Not`) contribute nothing. This is what lets a monotone window
    /// scan start *at* the first possibly-valid position instead of
    /// filtering its way through the whole below-threshold prefix.
    fn value_bounds(&self, bounds: &[Bound]) -> (Option<i128>, Option<i128>) {
        self.conjunct_atoms(bounds)
            .fold((None, None), |(lo, hi), b| {
                let (l, h) = b.value_bounds();
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
            })
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

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Appends the divisors of `t` that lie on the window `begin..=end`
/// stepped by `step` to `out`, ascending, each as `(position, value)`.
fn divisors_in_window(t: u64, begin: u64, end: u64, step: u64, out: &mut Vec<(u64, Value)>) {
    let mut keep = |d: u64| {
        if d >= begin && d <= end && (d - begin).is_multiple_of(step) {
            out.push(((d - begin) / step, Value::UInt(d)));
        }
    };
    let root = isqrt(t);
    for i in 1..=root {
        if t.is_multiple_of(i) {
            keep(i);
        }
    }
    for i in (1..=root).rev() {
        if t.is_multiple_of(i) && t / i != i {
            keep(t / i);
        }
    }
}

/// One depth's divisor lists by target: the values of its range that
/// divide the target, so that finding them — [`divisors_in_window`] on a
/// plain window, a scan of any other range — runs once per target per
/// walker. It grows by one list per distinct target the depth meets, and
/// nothing else.
#[derive(Default)]
struct DivisorMemo {
    /// `(target, start, end)`, sorted by target: the target's list is
    /// `lists[start..end]`.
    index: Vec<(u64, usize, usize)>,
    /// `(position, value)` lists, each in range order, back to back.
    lists: Vec<(u64, Value)>,
}

impl DivisorMemo {
    /// The bounds in `lists` of the values of `range` that divide `t`.
    fn divisors(&mut self, t: u64, range: &Range) -> (usize, usize) {
        let at = match self.index.binary_search_by_key(&t, |&(target, ..)| target) {
            Ok(i) => return (self.index[i].1, self.index[i].2),
            Err(at) => at,
        };
        let start = self.lists.len();
        match *range {
            Range::UIntInterval {
                begin,
                end,
                step,
                generator: None,
            } => divisors_in_window(t, begin, end, step, &mut self.lists),
            _ => {
                let divides = Bound::Divides(t);
                for pos in 0..range.len() {
                    let v = range.get(pos);
                    if divides.check(&v, &Config::new()) {
                        self.lists.push((pos, v));
                    }
                }
            }
        }
        let end = self.lists.len();
        self.index.insert(at, (t, start, end));
        (start, end)
    }
}

/// Where a depth's next candidate comes from. A candidate's *position* is
/// its index in the parameter's range from either source —
/// `range.get(position)` is its value — which is what the packed group
/// store keeps per prefix row and what lazy-space checkpoints restore.
#[derive(Clone, Copy)]
enum Cursor {
    /// Range positions `next..len`, filtered through the bound.
    Window { next: u64, len: u64 },
    /// The memoised `(position, value)` pairs `lists[next..end]` that
    /// divide every top-level `divides` target, filtered through the rest
    /// of the bound.
    Divisors { next: usize, end: usize },
}

/// One parameter's compiled plan.
#[derive(Clone, Debug)]
struct ParamPlan {
    range: Range,
    /// The lowered constraint; `None` if unconstrained.
    constraint: Option<Lowered>,
    /// Plain ascending integer window: monotone early cut allowed.
    monotone: bool,
    /// One past the last slot the operands read: the bound made under a
    /// prefix holds under every prefix that agrees with it that far.
    reads: usize,
}

/// One parameter's constraint, lowered.
#[derive(Clone, Debug)]
struct Lowered {
    shape: Shape,
    atoms: Vec<Atom>,
    /// `shape` less its top-level `divides` conjuncts: all a candidate
    /// from a divisor list has left to pass. `None` when that is nothing.
    rest: Option<Shape>,
}

impl Lowered {
    fn new(c: &Constraint, slot_of: &dyn Fn(&str) -> Option<usize>) -> Self {
        let mut atoms = Vec::new();
        let shape = lower(c, slot_of, &mut atoms);
        let divides =
            |x: &&Shape| matches!(x, Shape::Atom(i) if matches!(atoms[*i], Atom::Divides(_)));
        let mut rest: Vec<Shape> = shape
            .conjuncts()
            .iter()
            .filter(|x| !divides(x))
            .cloned()
            .collect();
        let rest = match rest.len() {
            0 | 1 => rest.pop(),
            _ => Some(Shape::All(rest)),
        };
        Lowered { shape, atoms, rest }
    }
}

impl ParamPlan {
    /// Where the candidates of this parameter come from under a prefix its
    /// atoms are bound to as `bounds`: nowhere if a top-level conjunct
    /// rejects every value; the memoised divisors of the top-level
    /// `divides` targets' gcd when the range would be scanned in full
    /// anyway, or when enumerating divisors (~√t) clearly beats scanning
    /// the window; else the window, tightened to the positions the
    /// comparison conjuncts can possibly accept.
    fn cursor(&self, lowered: &Lowered, bounds: &[Bound], memo: &mut DivisorMemo) -> Cursor {
        let range = &self.range;
        let mut target = None;
        for b in lowered.shape.conjunct_atoms(bounds) {
            match b {
                Bound::Const(false) => return Cursor::Window { next: 0, len: 0 },
                Bound::Divides(t) => target = Some(target.map_or(*t, |g| gcd(g, *t))),
                _ => {}
            }
        }
        if let Some(t @ 1..) = target {
            let enumerates = match range {
                Range::UIntInterval {
                    begin, end, step, ..
                } => begin <= end && isqrt(t).saturating_mul(4) < (end - begin) / step + 1,
                _ => false,
            };
            if enumerates || !self.monotone {
                let (next, end) = memo.divisors(t, range);
                return Cursor::Divisors { next, end };
            }
        }
        let shape = &lowered.shape;
        let mut next = 0u64;
        let mut len = range.len();
        if self.monotone && len > 0 {
            // Positions stay *raw* range indices (seek/lazy-space
            // checkpoints depend on that); only the start cursor and the
            // exclusive end move.
            let (lo, hi) = shape.value_bounds(bounds);
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
        Cursor::Window { next, len }
    }
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
        let declared = group.params();
        let params: Vec<ParamPlan> = declared
            .iter()
            .enumerate()
            .map(|(d, p)| {
                let reads = Cell::new(0);
                let slot_of = |name: &str| {
                    let slot = declared[..d].iter().position(|q| q.name() == name);
                    if let Some(slot) = slot {
                        reads.set(reads.get().max(slot + 1));
                    }
                    slot
                };
                let constraint = p.constraint().map(|c| Lowered::new(c, &slot_of));
                let range = p.range().clone();
                ParamPlan {
                    constraint,
                    reads: reads.get(),
                    monotone: matches!(
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
                    ),
                    range,
                }
            })
            .collect();
        let names: Arc<[Arc<str>]> = declared.iter().map(|p| p.name_arc()).collect();
        let prefix_len = params
            .iter()
            .rposition(|pp| pp.constraint.is_some())
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
        self.params.iter().map(|pp| pp.range.clone()).collect()
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
        Walker::new(self).walk(&mut count_row, None)?;
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
struct Prefix {
    config: Config,
    positions: Vec<u64>,
    /// Names of the parameters not fixed yet, deepest first.
    spare: Vec<Arc<str>>,
    /// Counts pushes, from 1.
    clock: u64,
    /// The `clock` at which each fixed value was pushed.
    pushed: Vec<u64>,
}

/// One depth's scratch, reused by every sibling prefix the walk binds it
/// under: its atoms' bounds, its cursor and its divisor memo.
struct Depth<'p> {
    bounds: Vec<Bound<'p>>,
    /// The prefix `clock` the bounds were made at; 0 before the first.
    bound_at: u64,
    /// The cursor the bounds select, at its first candidate.
    first: Cursor,
    cursor: Cursor,
    memo: DivisorMemo,
}

/// The depth-first walk over one group's plan. Visiting a prefix looks no
/// name up and allocates nothing: operands read the prefix by slot, and
/// every depth's bounds, cursor and divisor lists live in scratch owned by
/// the walker. A depth keeps its bounds across sibling prefixes until a
/// parameter its operands read is fixed anew. A walker serves one thread —
/// each chunk worker has its own, so nothing is shared and nothing is
/// locked.
///
/// The walker fixes parameters in declaration order. Its *depth* is the
/// number fixed so far; [`Self::bind`], [`Self::next`] and [`Self::seek`]
/// act on the parameter at that depth.
pub(crate) struct Walker<'p> {
    plan: &'p GroupPlan,
    prefix: Prefix,
    depths: Vec<Depth<'p>>,
}

impl<'p> Walker<'p> {
    /// A walker at the empty prefix of `plan`'s group.
    pub(crate) fn new(plan: &'p GroupPlan) -> Self {
        Walker {
            plan,
            prefix: Prefix {
                config: Config::with_capacity(plan.len()),
                positions: Vec::with_capacity(plan.len()),
                spare: plan.names.iter().rev().cloned().collect(),
                clock: 1,
                pushed: Vec::with_capacity(plan.len()),
            },
            depths: plan
                .params
                .iter()
                .map(|pp| Depth {
                    bounds: Vec::with_capacity(pp.constraint.as_ref().map_or(0, |c| c.atoms.len())),
                    bound_at: 0,
                    first: Cursor::Window { next: 0, len: 0 },
                    cursor: Cursor::Window { next: 0, len: 0 },
                    memo: DivisorMemo::default(),
                })
                .collect(),
        }
    }

    /// Number of parameters fixed.
    pub(crate) fn depth(&self) -> usize {
        self.prefix.positions.len()
    }

    /// The values fixed so far, by name, in declaration order.
    pub(crate) fn config(&self) -> &Config {
        &self.prefix.config
    }

    /// The range position of each value fixed so far.
    pub(crate) fn positions(&self) -> &[u64] {
        &self.prefix.positions
    }

    /// Fixes the next parameter at range position `pos`, whose value is `v`.
    pub(crate) fn push(&mut self, pos: u64, v: Value) {
        let name = self
            .prefix
            .spare
            .pop()
            .expect("prefix is shorter than the group");
        self.prefix.config.push_unique(name, v);
        self.prefix.positions.push(pos);
        self.prefix.clock += 1;
        self.prefix.pushed.push(self.prefix.clock);
    }

    /// Unfixes the most recently fixed parameter.
    pub(crate) fn pop(&mut self) {
        let (name, _) = self.prefix.config.pop().expect("prefix is not empty");
        self.prefix.spare.push(name);
        self.prefix.positions.pop();
        self.prefix.pushed.pop();
    }

    /// Binds the next parameter's constraint to the current prefix — each
    /// operand evaluated once, and not again while the parameters it reads
    /// keep their values — and rewinds its cursor to the first candidate.
    pub(crate) fn bind(&mut self) {
        let plan = self.plan;
        let d = self.depth();
        let pp = &plan.params[d];
        let prefix = &self.prefix;
        let depth = &mut self.depths[d];
        // Refixing any parameter before `pp.reads` refixes the last of
        // them on the way back down to this depth.
        let stale =
            depth.bound_at == 0 || pp.reads > 0 && prefix.pushed[pp.reads - 1] > depth.bound_at;
        if stale {
            depth.bound_at = prefix.clock;
            depth.first = match &pp.constraint {
                None => Cursor::Window {
                    next: 0,
                    len: pp.range.len(),
                },
                Some(lowered) => {
                    depth.bounds.clear();
                    let partial = &prefix.config;
                    depth
                        .bounds
                        .extend(lowered.atoms.iter().map(|a| a.bind(partial)));
                    pp.cursor(lowered, &depth.bounds, &mut depth.memo)
                }
            };
        }
        depth.cursor = depth.first;
    }

    /// The next parameter's next valid candidate after its cursor, as
    /// `(position, value)`.
    pub(crate) fn next(&mut self) -> Option<(u64, Value)> {
        let pp = &self.plan.params[self.depth()];
        let Depth {
            bounds,
            cursor,
            memo,
            ..
        } = &mut self.depths[self.prefix.positions.len()];
        let partial = &self.prefix.config;
        match cursor {
            Cursor::Window { next, len } => {
                while *next < *len {
                    let i = *next;
                    *next += 1;
                    let v = pp.range.get(i);
                    let Some(lowered) = &pp.constraint else {
                        return Some((i, v));
                    };
                    if lowered.shape.check(bounds, &v, partial) {
                        return Some((i, v));
                    }
                    if pp.monotone && lowered.shape.permanently_fails(bounds, &v) {
                        *next = *len;
                        return None;
                    }
                }
                None
            }
            Cursor::Divisors { next, end } => {
                let lowered = pp.constraint.as_ref().expect("only a bound lists divisors");
                while *next < *end {
                    let (pos, v) = &memo.lists[*next];
                    *next += 1;
                    if lowered
                        .rest
                        .as_ref()
                        .is_none_or(|r| r.check(bounds, v, partial))
                    {
                        return Some((*pos, v.clone()));
                    }
                }
                None
            }
        }
    }

    /// Positions the next parameter's cursor *at* `pos` — a position a
    /// [`Self::next`] after the last [`Self::bind`] would yield — and
    /// returns its value. The value is trusted valid: it passed the bound
    /// when first enumerated.
    pub(crate) fn seek(&mut self, pos: u64) -> Value {
        let pp = &self.plan.params[self.depth()];
        let depth = &mut self.depths[self.prefix.positions.len()];
        match &mut depth.cursor {
            Cursor::Window { next, .. } => {
                *next = pos + 1;
                pp.range.get(pos)
            }
            Cursor::Divisors { next, end } => {
                let ahead = &depth.memo.lists[*next..*end];
                let i = ahead
                    .binary_search_by_key(&pos, |&(p, _)| p)
                    .expect("position was enumerated for this prefix");
                *next += i + 1;
                ahead[i].1.clone()
            }
        }
    }

    /// Depth-first generation walk below the current prefix down to
    /// [`GroupPlan::prefix_len`], emitting the range positions of each
    /// valid prefix row. Rows come out in exactly the order of the
    /// reference predicate-evaluation walk; every row stands for the full
    /// product of the tail ranges, last parameter fastest.
    pub(crate) fn walk(
        &mut self,
        emit: &mut impl FnMut(&[u64]) -> Result<(), SpaceError>,
        cancel: Option<&AtomicBool>,
    ) -> Result<(), SpaceError> {
        if let Some(flag) = cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(SpaceError::Cancelled);
            }
        }
        if self.depth() == self.plan.prefix_len {
            return emit(&self.prefix.positions);
        }
        self.bind();
        while let Some((pos, v)) = self.next() {
            self.push(pos, v);
            let r = self.walk(emit, cancel);
            self.pop();
            r?;
        }
        Ok(())
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
        let divisors = |t, begin, end, step| {
            let mut out = Vec::new();
            divisors_in_window(t, begin, end, step, &mut out);
            out.into_iter()
                .map(|(pos, v)| {
                    assert_eq!(v, Value::UInt(begin + pos * step));
                    v.as_u64().expect("a divisor")
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(divisors(12, 1, 12, 1), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(12, 2, 6, 2), vec![2, 4, 6]);
        assert_eq!(divisors(36, 1, 36, 1), vec![1, 2, 3, 4, 6, 9, 12, 18, 36]);
        assert_eq!(divisors(1, 2, 100, 1), Vec::<u64>::new());
    }
}
