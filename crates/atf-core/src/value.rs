//! Dynamically-typed tuning-parameter values.
//!
//! ATF allows tuning parameters of "arbitrary fundamental type (e.g. `bool`,
//! integer, or `float`) and also of type `enum` for user-defined types"
//! (paper, Section II/III). In Rust we model this with a small dynamic value
//! type. Symbolic (`enum`-like) values are represented as interned strings.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single tuning-parameter value.
///
/// `Value` implements a *total* order (`Ord`): values of the same kind compare
/// naturally; numeric kinds (`Int`, `UInt`, `Float`, `Bool`) compare by their
/// numeric value (booleans as 0/1); symbolic values sort after all numeric
/// values, lexicographically among themselves. Floats use IEEE total ordering,
/// so `Value` is usable as a map key.
#[derive(Clone, Debug)]
pub enum Value {
    /// A boolean parameter value (e.g. CLBlast's `PADA`/`PADB`).
    Bool(bool),
    /// A signed integer value.
    Int(i64),
    /// An unsigned integer value (the common case: sizes, tile widths, ...).
    UInt(u64),
    /// A floating-point value.
    Float(f64),
    /// A symbolic value of a user-defined `enum`-like type.
    Symbol(Arc<str>),
}

impl Value {
    /// Returns the value as `u64` if it is losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Bool(b) => Some(b as u64),
            Value::Int(i) => u64::try_from(i).ok(),
            Value::UInt(u) => Some(u),
            Value::Float(f) => {
                if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 {
                    Some(f as u64)
                } else {
                    None
                }
            }
            Value::Symbol(_) => None,
        }
    }

    /// Returns the value as `i64` if it is losslessly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Bool(b) => Some(b as i64),
            Value::Int(i) => Some(i),
            Value::UInt(u) => i64::try_from(u).ok(),
            Value::Float(f) => {
                if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 {
                    Some(f as i64)
                } else {
                    None
                }
            }
            Value::Symbol(_) => None,
        }
    }

    /// Returns the numeric value as `f64` (booleans as 0.0/1.0), or `None`
    /// for symbolic values.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Bool(b) => Some(b as u64 as f64),
            Value::Int(i) => Some(i as f64),
            Value::UInt(u) => Some(u as f64),
            Value::Float(f) => Some(f),
            Value::Symbol(_) => None,
        }
    }

    /// Returns the boolean value, treating nonzero numerics as `true`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            Value::Int(i) => Some(i != 0),
            Value::UInt(u) => Some(u != 0),
            Value::Float(f) => Some(f != 0.0),
            Value::Symbol(_) => None,
        }
    }

    /// The value rendered the way it would be textually substituted into a
    /// kernel source by the preprocessor-based OpenCL cost function:
    /// booleans as `1`/`0` (C convention), numbers plainly, symbols verbatim.
    pub fn to_source_token(&self) -> String {
        match self {
            Value::Bool(b) => if *b { "1" } else { "0" }.to_string(),
            Value::Int(i) => i.to_string(),
            Value::UInt(u) => u.to_string(),
            Value::Float(f) => {
                // Ensure a C-compatible float literal.
                if f.fract() == 0.0 && f.is_finite() {
                    format!("{f:.1}")
                } else {
                    format!("{f}")
                }
            }
            Value::Symbol(s) => s.to_string(),
        }
    }

    /// Discriminant rank used by the cross-kind total order.
    fn kind_rank(&self) -> u8 {
        match self {
            Value::Bool(_) | Value::Int(_) | Value::UInt(_) | Value::Float(_) => 0,
            Value::Symbol(_) => 1,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.kind_rank(), other.kind_rank()) {
            (0, 0) => {
                // Numeric comparison. Compare exactly where both sides are
                // integers to avoid f64 rounding for values > 2^53.
                match (self, other) {
                    (Value::UInt(a), Value::UInt(b)) => a.cmp(b),
                    (Value::Int(a), Value::Int(b)) => a.cmp(b),
                    (Value::UInt(a), Value::Int(b)) => cmp_u64_i64(*a, *b),
                    (Value::Int(a), Value::UInt(b)) => cmp_u64_i64(*b, *a).reverse(),
                    _ => {
                        let a = self.as_f64().expect("numeric");
                        let b = other.as_f64().expect("numeric");
                        a.total_cmp(&b)
                    }
                }
            }
            (1, 1) => {
                let (Value::Symbol(a), Value::Symbol(b)) = (self, other) else {
                    unreachable!()
                };
                a.cmp(b)
            }
            (a, b) => a.cmp(&b),
        }
    }
}

fn cmp_u64_i64(a: u64, b: i64) -> Ordering {
    if b < 0 {
        Ordering::Greater
    } else {
        a.cmp(&(b as u64))
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash must be consistent with the cross-kind equality above, where
        // e.g. UInt(1) == Int(1) == Bool(true) == Float(1.0). Hash every
        // numeric by its canonical representation.
        match self {
            Value::Symbol(s) => {
                1u8.hash(state);
                s.hash(state);
            }
            v => {
                0u8.hash(state);
                // Canonicalize: integers hash by integer value when lossless,
                // otherwise by float bits.
                if let Some(i) = v.as_i64() {
                    0u8.hash(state);
                    i.hash(state);
                } else if let Some(u) = v.as_u64() {
                    1u8.hash(state);
                    u.hash(state);
                } else {
                    2u8.hash(state);
                    v.as_f64().expect("numeric").to_bits().hash(state);
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::UInt(u) => write!(f, "{u}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Symbol(s) => write!(f, "{s}"),
        }
    }
}

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self { Value::Int(v as i64) }
        }
    )*};
}
macro_rules! impl_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self { Value::UInt(v as u64) }
        }
    )*};
}

impl_from_int!(i8, i16, i32, i64, isize);
impl_from_uint!(u8, u16, u32, u64, usize);

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::Float(v as f64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Symbol(Arc::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Symbol(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn numeric_conversions() {
        assert_eq!(Value::from(5u32).as_u64(), Some(5));
        assert_eq!(Value::from(-5i32).as_u64(), None);
        assert_eq!(Value::from(-5i32).as_i64(), Some(-5));
        assert_eq!(Value::from(2.0f64).as_u64(), Some(2));
        assert_eq!(Value::from(2.5f64).as_u64(), None);
        assert_eq!(Value::from(true).as_u64(), Some(1));
        assert_eq!(Value::from("vec4").as_u64(), None);
    }

    #[test]
    fn cross_kind_equality_and_hash() {
        let pairs = [
            (Value::from(1u64), Value::from(1i64)),
            (Value::from(true), Value::from(1u8)),
            (Value::from(0u8), Value::from(false)),
            (Value::from(3u16), Value::from(3.0f64)),
        ];
        for (a, b) in pairs {
            assert_eq!(a, b, "{a:?} vs {b:?}");
            assert_eq!(h(&a), h(&b), "hashes of {a:?} and {b:?}");
        }
    }

    #[test]
    fn total_order() {
        let mut vs = vec![
            Value::from("zeta"),
            Value::from(2u8),
            Value::from(-1i8),
            Value::from(0.5f64),
            Value::from("alpha"),
            Value::from(false),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::from(-1i8),
                Value::from(false),
                Value::from(0.5f64),
                Value::from(2u8),
                Value::from("alpha"),
                Value::from("zeta"),
            ]
        );
    }

    #[test]
    fn large_u64_exact_compare() {
        let a = Value::UInt(u64::MAX);
        let b = Value::UInt(u64::MAX - 1);
        assert!(b < a); // f64 rounding would call these equal
    }

    #[test]
    fn source_tokens() {
        assert_eq!(Value::from(true).to_source_token(), "1");
        assert_eq!(Value::from(false).to_source_token(), "0");
        assert_eq!(Value::from(7u8).to_source_token(), "7");
        assert_eq!(Value::from(2.0f64).to_source_token(), "2.0");
        assert_eq!(Value::from(2.5f64).to_source_token(), "2.5");
        assert_eq!(Value::from("float4").to_source_token(), "float4");
    }

    #[test]
    fn symbol_order_after_numbers() {
        assert!(Value::from(u64::MAX) < Value::from("a"));
    }

    #[test]
    fn negative_int_vs_uint() {
        assert!(Value::Int(-3) < Value::UInt(0));
        assert!(Value::UInt(0) > Value::Int(-3));
        assert_eq!(Value::Int(3), Value::UInt(3));
    }
}
