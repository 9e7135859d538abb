//! Tuning-parameter ranges: intervals (with step size and generator) and sets.
//!
//! Mirrors `atf::interval<T>(begin, end, step_size, generator)` and
//! `atf::set(v1, ..., vn)` from the paper (Section II, Step 1). Intervals are
//! *lazy*: elements are computed on demand, so a range of size 2^24 costs no
//! memory — this is part of what lets ATF handle "substantially larger
//! parameter ranges" than CLTune.

use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A generator function mapping the interval index value to a domain-specific
/// value, e.g. `|i| 2u64.pow(i as u32)` for powers of two.
pub type Generator = Arc<dyn Fn(Value) -> Value + Send + Sync>;

/// The range of valid values of a tuning parameter, before constraints.
#[derive(Clone)]
pub enum Range {
    /// `begin..=end` in steps of `step`, over signed integers.
    IntInterval {
        begin: i64,
        end: i64,
        step: i64,
        generator: Option<Generator>,
    },
    /// `begin..=end` in steps of `step`, over unsigned integers.
    UIntInterval {
        begin: u64,
        end: u64,
        step: u64,
        generator: Option<Generator>,
    },
    /// `begin..=end` in steps of `step`, over floats.
    FloatInterval {
        begin: f64,
        end: f64,
        step: f64,
        generator: Option<Generator>,
    },
    /// An explicitly enumerated set of values.
    Set(Arc<[Value]>),
}

impl Range {
    /// An inclusive unsigned interval `[begin, end]` with step 1 —
    /// `atf::interval<size_t>(begin, end)`.
    pub fn interval(begin: u64, end: u64) -> Self {
        Range::UIntInterval {
            begin,
            end,
            step: 1,
            generator: None,
        }
    }

    /// An inclusive unsigned interval with an explicit step size.
    pub fn interval_step(begin: u64, end: u64, step: u64) -> Self {
        assert!(step > 0, "interval step size must be positive");
        Range::UIntInterval {
            begin,
            end,
            step,
            generator: None,
        }
    }

    /// An inclusive unsigned interval whose elements are
    /// `generator(begin), generator(begin+step), ...` — e.g.
    /// `Range::interval_gen(1, 10, |i| ...)` for the first ten powers of two.
    pub fn interval_gen<F, T>(begin: u64, end: u64, generator: F) -> Self
    where
        F: Fn(u64) -> T + Send + Sync + 'static,
        T: Into<Value>,
    {
        Range::UIntInterval {
            begin,
            end,
            step: 1,
            generator: Some(Arc::new(move |v: Value| {
                generator(v.as_u64().expect("uint interval index")).into()
            })),
        }
    }

    /// An inclusive signed interval `[begin, end]` with step 1.
    pub fn int_interval(begin: i64, end: i64) -> Self {
        Range::IntInterval {
            begin,
            end,
            step: 1,
            generator: None,
        }
    }

    /// An inclusive float interval `[begin, end]` in steps of `step`.
    pub fn float_interval(begin: f64, end: f64, step: f64) -> Self {
        assert!(step > 0.0, "interval step size must be positive");
        assert!(
            begin.is_finite() && end.is_finite() && step.is_finite(),
            "float interval bounds must be finite"
        );
        Range::FloatInterval {
            begin,
            end,
            step,
            generator: None,
        }
    }

    /// An explicitly enumerated set — `atf::set(v1, ..., vn)`.
    pub fn set<I, T>(values: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<Value>,
    {
        Range::Set(values.into_iter().map(Into::into).collect())
    }

    /// The set `{true, false}` (CLBlast's PADA/PADB style parameters).
    pub fn boolean() -> Self {
        Range::set([true, false])
    }

    /// Number of elements in the range.
    pub fn len(&self) -> u64 {
        match self {
            Range::IntInterval {
                begin, end, step, ..
            } => {
                if begin > end {
                    0
                } else {
                    (end.wrapping_sub(*begin) as u64) / (*step as u64) + 1
                }
            }
            Range::UIntInterval {
                begin, end, step, ..
            } => {
                if begin > end {
                    0
                } else {
                    (end - begin) / step + 1
                }
            }
            Range::FloatInterval {
                begin, end, step, ..
            } => {
                if begin > end {
                    0
                } else {
                    // Count of begin + k*step <= end (+ epsilon tolerance for
                    // accumulated rounding).
                    (((end - begin) / step) + 1e-9).floor() as u64 + 1
                }
            }
            Range::Set(v) => v.len() as u64,
        }
    }

    /// `true` if the range has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th element of the range (after generator application).
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: u64) -> Value {
        assert!(i < self.len(), "range index {i} out of bounds");
        match self {
            Range::IntInterval {
                begin,
                step,
                generator,
                ..
            } => apply(generator, Value::Int(begin + (i as i64) * step)),
            Range::UIntInterval {
                begin,
                step,
                generator,
                ..
            } => apply(generator, Value::UInt(begin + i * step)),
            Range::FloatInterval {
                begin,
                step,
                generator,
                ..
            } => apply(generator, Value::Float(begin + (i as f64) * step)),
            Range::Set(v) => v[i as usize].clone(),
        }
    }

    /// Iterates over the elements of the range.
    pub fn iter(&self) -> RangeIter<'_> {
        RangeIter {
            range: self,
            next: 0,
            len: self.len(),
        }
    }

    /// Returns `true` if the range contains `value` (by equality after
    /// generator application; O(len) for generated intervals and sets,
    /// O(1) for plain intervals).
    pub fn contains(&self, value: &Value) -> bool {
        match self {
            Range::UIntInterval {
                begin,
                end,
                step,
                generator: None,
            } => match value.as_u64() {
                Some(v) => v >= *begin && v <= *end && (v - begin) % step == 0,
                None => false,
            },
            Range::IntInterval {
                begin,
                end,
                step,
                generator: None,
            } => match value.as_i64() {
                Some(v) => v >= *begin && v <= *end && (v - begin) % step == 0,
                None => false,
            },
            _ => self.iter().any(|v| v == *value),
        }
    }
}

fn apply(generator: &Option<Generator>, v: Value) -> Value {
    match generator {
        Some(g) => g(v),
        None => v,
    }
}

impl fmt::Debug for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Range::IntInterval {
                begin,
                end,
                step,
                generator,
            } => write!(
                f,
                "interval<i64>[{begin}, {end}; step {step}{}]",
                if generator.is_some() { "; gen" } else { "" }
            ),
            Range::UIntInterval {
                begin,
                end,
                step,
                generator,
            } => write!(
                f,
                "interval<u64>[{begin}, {end}; step {step}{}]",
                if generator.is_some() { "; gen" } else { "" }
            ),
            Range::FloatInterval {
                begin,
                end,
                step,
                generator,
            } => write!(
                f,
                "interval<f64>[{begin}, {end}; step {step}{}]",
                if generator.is_some() { "; gen" } else { "" }
            ),
            Range::Set(v) => {
                write!(f, "set{{")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Iterator over a [`Range`]'s elements.
pub struct RangeIter<'a> {
    range: &'a Range,
    next: u64,
    len: u64,
}

impl Iterator for RangeIter<'_> {
    type Item = Value;

    fn next(&mut self) -> Option<Value> {
        if self.next >= self.len {
            None
        } else {
            let v = self.range.get(self.next);
            self.next += 1;
            Some(v)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = (self.len - self.next) as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for RangeIter<'_> {}

impl<'a> IntoIterator for &'a Range {
    type Item = Value;
    type IntoIter = RangeIter<'a>;

    fn into_iter(self) -> RangeIter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uint_interval_basics() {
        let r = Range::interval(1, 10);
        assert_eq!(r.len(), 10);
        assert_eq!(r.get(0), Value::from(1u64));
        assert_eq!(r.get(9), Value::from(10u64));
        let all: Vec<_> = r.iter().collect();
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn stepped_interval() {
        let r = Range::interval_step(2, 11, 3); // 2, 5, 8, 11
        assert_eq!(r.len(), 4);
        assert_eq!(
            r.iter().collect::<Vec<_>>(),
            vec![2u64.into(), 5u64.into(), 8u64.into(), 11u64.into()]
        );
        let r = Range::interval_step(2, 10, 3); // 2, 5, 8
        assert_eq!(r.len(), 3);
        assert_eq!(r.get(2), Value::from(8u64));
    }

    #[test]
    fn empty_interval() {
        let r = Range::interval(5, 4);
        assert!(r.is_empty());
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    fn generator_powers_of_two() {
        // The paper's example: the first ten powers of 2.
        let r = Range::interval_gen(1, 10, |i| 2u64.pow(i as u32));
        assert_eq!(r.len(), 10);
        assert_eq!(r.get(0), Value::from(2u64));
        assert_eq!(r.get(9), Value::from(1024u64));
    }

    #[test]
    fn int_interval_negative() {
        let r = Range::int_interval(-3, 3);
        assert_eq!(r.len(), 7);
        assert_eq!(r.get(0), Value::from(-3i64));
        assert_eq!(r.get(6), Value::from(3i64));
    }

    #[test]
    fn float_interval() {
        let r = Range::float_interval(0.0, 1.0, 0.25);
        assert_eq!(r.len(), 5);
        assert_eq!(r.get(4), Value::from(1.0f64));
    }

    #[test]
    fn float_interval_rounding_tolerance() {
        let r = Range::float_interval(0.0, 0.3, 0.1);
        assert_eq!(r.len(), 4); // 0.0 0.1 0.2 0.3 despite binary rounding
    }

    #[test]
    fn set_of_mixed() {
        let r = Range::set([1u64, 2, 4, 8]);
        assert_eq!(r.len(), 4);
        assert!(r.contains(&Value::from(4u64)));
        assert!(!r.contains(&Value::from(3u64)));
    }

    #[test]
    fn symbol_set() {
        let r = Range::set(["scalar", "vec2", "vec4"]);
        assert_eq!(r.get(1), Value::from("vec2"));
    }

    #[test]
    fn boolean_range() {
        let r = Range::boolean();
        assert_eq!(r.len(), 2);
        assert!(r.contains(&Value::from(true)));
    }

    #[test]
    fn contains_fast_path_with_step() {
        let r = Range::interval_step(4, 64, 4);
        assert!(r.contains(&Value::from(4u64)));
        assert!(r.contains(&Value::from(64u64)));
        assert!(!r.contains(&Value::from(6u64)));
        assert!(!r.contains(&Value::from(68u64)));
    }

    #[test]
    fn lazy_interval_is_cheap() {
        // 2^40 elements, no memory: len/get only.
        let r = Range::interval(1, 1 << 40);
        assert_eq!(r.len(), 1 << 40);
        assert_eq!(r.get((1 << 40) - 1), Value::from(1u64 << 40));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Range::interval(1, 3).get(3);
    }
}
