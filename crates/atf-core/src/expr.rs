//! Arithmetic expressions over tuning parameters and constants.
//!
//! The paper stresses (Section III) that ATF lets the user express OpenCL
//! global/local sizes — and constraint operands — "as common arithmetic
//! expressions containing tuning parameters", e.g. `N / WPT`, which CLTune
//! cannot. This module provides that expression language: [`Expr`] supports
//! `+ - * / %`, `min`/`max`, ceiling division and round-up-to-multiple, and
//! evaluates against a [`Config`].
//!
//! Integer operands use exact 128-bit arithmetic (C-style truncating
//! division); an expression falls back to `f64` only if a float is involved.

use crate::config::Config;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Errors produced when evaluating an [`Expr`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExprError {
    /// The expression references a parameter not present in the configuration.
    UnknownParam(String),
    /// Division or modulo by zero.
    DivisionByZero(String),
    /// A non-numeric (symbolic) value was used in arithmetic.
    NonNumeric(String),
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::UnknownParam(p) => write!(f, "unknown parameter `{p}` in expression"),
            ExprError::DivisionByZero(e) => write!(f, "division by zero in `{e}`"),
            ExprError::NonNumeric(p) => {
                write!(f, "non-numeric value for `{p}` used in arithmetic")
            }
        }
    }
}

impl std::error::Error for ExprError {}

/// A numeric result: exact integer when possible, float otherwise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Num {
    /// Exact integer value.
    Int(i128),
    /// Floating-point value.
    Float(f64),
}

impl Num {
    /// The value as `f64` (possibly lossy for huge integers).
    pub fn as_f64(self) -> f64 {
        match self {
            Num::Int(i) => i as f64,
            Num::Float(f) => f,
        }
    }

    /// The value as `u64`, if non-negative, integral, and in range.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Num::Int(i) => u64::try_from(i).ok(),
            Num::Float(f) => {
                if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 {
                    Some(f as u64)
                } else {
                    None
                }
            }
        }
    }

    fn to_value(self) -> Value {
        match self {
            Num::Int(i) => {
                if let Ok(u) = u64::try_from(i) {
                    Value::UInt(u)
                } else if let Ok(s) = i64::try_from(i) {
                    Value::Int(s)
                } else {
                    Value::Float(i as f64)
                }
            }
            Num::Float(f) => Value::Float(f),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
    /// `ceil(a / b)` — CLBlast's `CeilDiv`, used for padded global sizes.
    CeilDiv,
    /// Smallest multiple of `b` that is `>= a` — CLBlast's `Ceil(a, b)`.
    RoundUp,
}

impl BinOp {
    fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::CeilDiv => "ceil_div",
            BinOp::RoundUp => "round_up",
        }
    }
}

enum Node {
    Const(Value),
    Param(Arc<str>),
    /// A parameter resolved to its slot: its index among the values a
    /// [`Slotted`] expression is evaluated against. Only [`Expr::resolve`]
    /// makes one, so an expression built through the public API never
    /// holds one.
    Slot(usize, Arc<str>),
    Binary(BinOp, Expr, Expr),
    Neg(Expr),
}

/// An arithmetic expression over tuning parameters and constants.
///
/// Build with [`param`], [`cst`], and the standard operators:
///
/// ```
/// use atf_core::expr::{param, cst};
/// use atf_core::config::Config;
///
/// let n = cst(1024u64);
/// let global = n / param("WPT"); // N / WPT work-items
/// let cfg = Config::from_pairs([("WPT", 4u64)]);
/// assert_eq!(global.eval_u64(&cfg).unwrap(), 256);
/// ```
#[derive(Clone)]
pub struct Expr(Arc<Node>);

/// An expression referencing a tuning parameter by name.
pub fn param(name: impl Into<Arc<str>>) -> Expr {
    Expr(Arc::new(Node::Param(name.into())))
}

/// A constant expression.
pub fn cst(v: impl Into<Value>) -> Expr {
    Expr(Arc::new(Node::Const(v.into())))
}

impl Expr {
    fn binary(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr(Arc::new(Node::Binary(op, a, b)))
    }

    /// `min(self, other)`.
    pub fn min(self, other: impl IntoExpr) -> Expr {
        Expr::binary(BinOp::Min, self, other.into_expr())
    }

    /// `max(self, other)`.
    pub fn max(self, other: impl IntoExpr) -> Expr {
        Expr::binary(BinOp::Max, self, other.into_expr())
    }

    /// `ceil(self / other)` with integer semantics — CLBlast's `CeilDiv`.
    pub fn ceil_div(self, other: impl IntoExpr) -> Expr {
        Expr::binary(BinOp::CeilDiv, self, other.into_expr())
    }

    /// The smallest multiple of `other` that is `>= self` — CLBlast's
    /// `Ceil(a, b)`, used to pad global sizes to a multiple of the local
    /// size (the arithmetic CLTune cannot express; Section VI-A).
    pub fn round_up_to_multiple_of(self, other: impl IntoExpr) -> Expr {
        Expr::binary(BinOp::RoundUp, self, other.into_expr())
    }

    /// Evaluates the expression against a configuration.
    pub fn eval(&self, config: &Config) -> Result<Value, ExprError> {
        self.eval_num(config).map(Num::to_value)
    }

    /// Evaluates and converts to `u64`; errors are mapped like
    /// [`Expr::eval`], plus `NonNumeric` when the result is negative or
    /// fractional.
    pub fn eval_u64(&self, config: &Config) -> Result<u64, ExprError> {
        let n = self.eval_num(config)?;
        n.as_u64()
            .ok_or_else(|| ExprError::NonNumeric(format!("{self:?} = {n:?}")))
    }

    /// Evaluates to `f64`.
    pub fn eval_f64(&self, config: &Config) -> Result<f64, ExprError> {
        Ok(self.eval_num(config)?.as_f64())
    }

    /// Collects the names of all tuning parameters the expression
    /// references (used for automatic dependency detection — the paper
    /// notes ATF "cannot automatically determine dependencies between
    /// parameters"; expression introspection makes it possible).
    pub fn referenced_params(&self) -> Vec<Arc<str>> {
        let mut out = Vec::new();
        self.collect_params(&mut out);
        out
    }

    fn collect_params(&self, out: &mut Vec<Arc<str>>) {
        match &*self.0 {
            Node::Const(_) | Node::Slot(..) => {}
            Node::Param(name) => {
                if !out.iter().any(|n| n == name) {
                    out.push(name.clone());
                }
            }
            Node::Neg(e) => e.collect_params(out),
            Node::Binary(_, a, b) => {
                a.collect_params(out);
                b.collect_params(out);
            }
        }
    }

    fn eval_num(&self, config: &Config) -> Result<Num, ExprError> {
        let leaf = |node: &Node| match node {
            Node::Param(name) => config.get(name),
            _ => None,
        };
        self.num(&leaf).map_err(Fault::into_error)
    }

    /// The one evaluator, behind [`Self::eval`] and [`Slotted::eval`]:
    /// `leaf` looks up the value of a parameter leaf (a `Param` or a
    /// `Slot` node). A fault only borrows the sub-expression it arose in,
    /// so a failed evaluation formats, and allocates, nothing until a
    /// caller asks for the [`ExprError`].
    fn num<'e, 'v>(&'e self, leaf: &impl Fn(&Node) -> Option<&'v Value>) -> Result<Num, Fault<'e>> {
        match &*self.0 {
            Node::Const(v) => value_to_num(v).ok_or(Fault::NonNumeric(self)),
            node @ (Node::Param(_) | Node::Slot(..)) => {
                let v = leaf(node).ok_or(Fault::UnknownParam(self))?;
                value_to_num(v).ok_or(Fault::NonNumeric(self))
            }
            Node::Neg(e) => Ok(match e.num(leaf)? {
                Num::Int(i) => Num::Int(-i),
                Num::Float(f) => Num::Float(-f),
            }),
            Node::Binary(op, a, b) => {
                let a = a.num(leaf)?;
                let b = b.num(leaf)?;
                apply(*op, a, b).ok_or(Fault::DivisionByZero(self))
            }
        }
    }

    /// This expression with every parameter leaf resolved to a slot by
    /// `slot_of`, or `None` if a leaf names a parameter `slot_of` does not
    /// know. Evaluated against a configuration of exactly the names
    /// `slot_of` knows, such an expression always fails: every leaf is
    /// looked up unless an earlier one already failed.
    pub(crate) fn resolve(&self, slot_of: &dyn Fn(&str) -> Option<usize>) -> Option<Slotted> {
        Some(Slotted(self.with_slots(slot_of)?))
    }

    fn with_slots(&self, slot_of: &dyn Fn(&str) -> Option<usize>) -> Option<Expr> {
        let node = match &*self.0 {
            Node::Const(_) | Node::Slot(..) => return Some(self.clone()),
            Node::Param(name) => Node::Slot(slot_of(name)?, name.clone()),
            Node::Neg(e) => Node::Neg(e.with_slots(slot_of)?),
            Node::Binary(op, a, b) => {
                Node::Binary(*op, a.with_slots(slot_of)?, b.with_slots(slot_of)?)
            }
        };
        Some(Expr(Arc::new(node)))
    }
}

/// An expression whose parameter leaves are resolved to slots
/// ([`Expr::resolve`]): it reads slot `i` as the `i`-th entry of the
/// configuration it is evaluated against, with no name lookup.
#[derive(Clone, Debug)]
pub(crate) struct Slotted(Expr);

impl Slotted {
    /// [`Expr::eval`]'s number with slot `i` read from `values`' `i`-th
    /// entry; `None` where that evaluation returns an error.
    pub(crate) fn eval(&self, values: &Config) -> Option<Num> {
        let leaf = |node: &Node| match node {
            Node::Slot(i, _) => values.value_at(*i),
            _ => None,
        };
        self.0.num(&leaf).ok()
    }
}

/// Why an evaluation failed, borrowing the sub-expression it failed in.
enum Fault<'e> {
    UnknownParam(&'e Expr),
    DivisionByZero(&'e Expr),
    NonNumeric(&'e Expr),
}

impl Fault<'_> {
    fn into_error(self) -> ExprError {
        match self {
            Fault::UnknownParam(leaf) => ExprError::UnknownParam(format!("{leaf:?}")),
            Fault::DivisionByZero(e) => ExprError::DivisionByZero(format!("{e:?}")),
            Fault::NonNumeric(leaf) => ExprError::NonNumeric(match &*leaf.0 {
                Node::Const(_) => "<const>".to_string(),
                _ => format!("{leaf:?}"),
            }),
        }
    }
}

fn value_to_num(v: &Value) -> Option<Num> {
    match v {
        Value::Bool(b) => Some(Num::Int(*b as i128)),
        Value::Int(i) => Some(Num::Int(*i as i128)),
        Value::UInt(u) => Some(Num::Int(*u as i128)),
        Value::Float(f) => Some(Num::Float(*f)),
        Value::Symbol(_) => None,
    }
}

/// `a op b`; `None` on division (or remainder) by zero.
fn apply(op: BinOp, a: Num, b: Num) -> Option<Num> {
    use BinOp::*;
    match (a, b) {
        (Num::Int(a), Num::Int(b)) => match op {
            Add => Some(Num::Int(a + b)),
            Sub => Some(Num::Int(a - b)),
            Mul => Some(Num::Int(a * b)),
            Div | Rem | CeilDiv | RoundUp if b == 0 => None,
            Div => Some(Num::Int(a / b)),
            Rem => Some(Num::Int(a % b)),
            Min => Some(Num::Int(a.min(b))),
            Max => Some(Num::Int(a.max(b))),
            CeilDiv => Some(Num::Int(div_ceil_i128(a, b))),
            RoundUp => Some(Num::Int(div_ceil_i128(a, b) * b)),
        },
        _ => {
            let (a, b) = (a.as_f64(), b.as_f64());
            Some(Num::Float(match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div | Rem | CeilDiv | RoundUp if b == 0.0 => return None,
                Div => a / b,
                Rem => a % b,
                Min => a.min(b),
                Max => a.max(b),
                CeilDiv => (a / b).ceil(),
                RoundUp => (a / b).ceil() * b,
            }))
        }
    }
}

fn div_ceil_i128(a: i128, b: i128) -> i128 {
    let d = a / b;
    let r = a % b;
    if r != 0 && ((r > 0) == (b > 0)) {
        d + 1
    } else {
        d
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &*self.0 {
            Node::Const(v) => write!(f, "{v}"),
            Node::Param(p) | Node::Slot(_, p) => write!(f, "{p}"),
            Node::Neg(e) => write!(f, "-({e:?})"),
            Node::Binary(op, a, b) => match op {
                BinOp::Min | BinOp::Max | BinOp::CeilDiv | BinOp::RoundUp => {
                    write!(f, "{}({a:?}, {b:?})", op.symbol())
                }
                _ => write!(f, "({a:?} {} {b:?})", op.symbol()),
            },
        }
    }
}

/// Conversion of operands into expressions: expressions pass through; numeric
/// values and `&str` parameter-like constants become constants.
pub trait IntoExpr {
    /// Converts `self` into an [`Expr`].
    fn into_expr(self) -> Expr;
}

impl IntoExpr for Expr {
    fn into_expr(self) -> Expr {
        self
    }
}

impl IntoExpr for &Expr {
    fn into_expr(self) -> Expr {
        self.clone()
    }
}

macro_rules! impl_into_expr_num {
    ($($t:ty),*) => {$(
        impl IntoExpr for $t {
            fn into_expr(self) -> Expr { cst(self) }
        }
    )*};
}
impl_into_expr_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool);

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl<R: IntoExpr> std::ops::$trait<R> for Expr {
            type Output = Expr;
            fn $method(self, rhs: R) -> Expr {
                Expr::binary($op, self, rhs.into_expr())
            }
        }
        impl<R: IntoExpr> std::ops::$trait<R> for &Expr {
            type Output = Expr;
            fn $method(self, rhs: R) -> Expr {
                Expr::binary($op, self.clone(), rhs.into_expr())
            }
        }
    };
}

impl_binop!(Add, add, BinOp::Add);
impl_binop!(Sub, sub, BinOp::Sub);
impl_binop!(Mul, mul, BinOp::Mul);
impl_binop!(Div, div, BinOp::Div);
impl_binop!(Rem, rem, BinOp::Rem);

impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr(Arc::new(Node::Neg(self)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::from_pairs([("WPT", 4u64), ("LS", 32u64), ("N", 1024u64)])
    }

    #[test]
    fn basic_arithmetic() {
        let c = cfg();
        assert_eq!((param("N") / param("WPT")).eval_u64(&c).unwrap(), 256);
        assert_eq!((param("WPT") * param("LS")).eval_u64(&c).unwrap(), 128);
        assert_eq!((param("N") % cst(1000u64)).eval_u64(&c).unwrap(), 24);
        assert_eq!((cst(10u64) - cst(3u64)).eval_u64(&c).unwrap(), 7);
    }

    #[test]
    fn integer_division_truncates() {
        let c = Config::from_pairs([("A", 7u64), ("B", 2u64)]);
        assert_eq!((param("A") / param("B")).eval_u64(&c).unwrap(), 3);
        assert_eq!(param("A").ceil_div(param("B")).eval_u64(&c).unwrap(), 4);
    }

    #[test]
    fn round_up_to_multiple() {
        let c = Config::from_pairs([("M", 20u64), ("WGD", 8u64)]);
        // CLBlast pads the 20-row result matrix to 24 rows for WGD = 8.
        let padded = param("M").round_up_to_multiple_of(param("WGD"));
        assert_eq!(padded.eval_u64(&c).unwrap(), 24);
        let exact = cst(16u64).round_up_to_multiple_of(param("WGD"));
        assert_eq!(exact.eval_u64(&c).unwrap(), 16);
    }

    #[test]
    fn unknown_param_error() {
        let e = param("NOPE") + 1u64;
        assert_eq!(
            e.eval(&cfg()),
            Err(ExprError::UnknownParam("NOPE".to_string()))
        );
    }

    #[test]
    fn division_by_zero_error() {
        let c = Config::from_pairs([("Z", 0u64)]);
        assert!(matches!(
            (cst(1u64) / param("Z")).eval(&c),
            Err(ExprError::DivisionByZero(_))
        ));
        assert!(matches!(
            (cst(1u64) % param("Z")).eval(&c),
            Err(ExprError::DivisionByZero(_))
        ));
    }

    #[test]
    fn float_propagation() {
        let c = Config::from_pairs([("X", Value::Float(1.5))]);
        let e = param("X") * 2u64;
        assert_eq!(e.eval_f64(&c).unwrap(), 3.0);
        assert!(e.eval_u64(&c).is_ok()); // 3.0 is integral
        let e2 = param("X") + 1u64;
        assert!(e2.eval_u64(&c).is_err()); // 2.5 is not
    }

    #[test]
    fn symbol_in_arithmetic_errors() {
        let c = Config::from_pairs([("T", Value::from("vec4"))]);
        assert!(matches!(
            (param("T") + 1u64).eval(&c),
            Err(ExprError::NonNumeric(_))
        ));
    }

    #[test]
    fn min_max() {
        let c = cfg();
        assert_eq!(param("WPT").min(param("LS")).eval_u64(&c).unwrap(), 4);
        assert_eq!(param("WPT").max(param("LS")).eval_u64(&c).unwrap(), 32);
    }

    #[test]
    fn neg_and_mixed() {
        let c = cfg();
        let e = -(param("WPT").into_expr()) + 10u64;
        assert_eq!(e.eval(&c).unwrap(), Value::UInt(6));
    }

    #[test]
    fn big_integers_exact() {
        let c = Config::from_pairs([("A", u64::MAX)]);
        let e = param("A") - 1u64;
        assert_eq!(e.eval_u64(&c).unwrap(), u64::MAX - 1);
    }

    #[test]
    fn debug_rendering() {
        let e = (param("N") / param("WPT")) % param("LS");
        assert_eq!(format!("{e:?}"), "((N / WPT) % LS)");
    }

    #[test]
    fn bools_as_integers() {
        let c = Config::from_pairs([("PAD", true)]);
        assert_eq!((param("PAD") + 1u64).eval_u64(&c).unwrap(), 2);
    }
}
