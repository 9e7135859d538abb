//! Parameter configurations: assignments of values to named tuning parameters.

use crate::value::Value;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// A (possibly partial) configuration of tuning-parameter values.
///
/// During search-space generation a configuration grows one parameter at a
/// time (parameters are fixed in declaration order), so constraints of later
/// parameters can reference the values of earlier ones — exactly the contract
/// of ATF constraints.
///
/// Lookup is by name; configurations are small (≤ a few dozen parameters), so
/// a linear scan over a vector beats a hash map.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Config {
    entries: Vec<(Arc<str>, Value)>,
}

impl Config {
    /// An empty configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a configuration from `(name, value)` pairs.
    pub fn from_pairs<I, N, V>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (N, V)>,
        N: Into<Arc<str>>,
        V: Into<Value>,
    {
        Config {
            entries: pairs
                .into_iter()
                .map(|(n, v)| (n.into(), v.into()))
                .collect(),
        }
    }

    /// An empty configuration with room for `n` parameters.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Config {
            entries: Vec::with_capacity(n),
        }
    }

    /// Appends a parameter value. Names must be unique; appending a duplicate
    /// name panics (a configuration is not a multimap).
    pub fn push(&mut self, name: Arc<str>, value: Value) {
        assert!(
            self.get(&name).is_none(),
            "duplicate parameter name `{name}` in configuration"
        );
        self.entries.push((name, value));
    }

    /// [`Self::push`] without the duplicate-name scan, for the space
    /// engine: it appends names whose uniqueness was asserted once for the
    /// whole group ([`crate::param::ParamGroup::new`]) or space, not once
    /// per generated or read configuration.
    pub(crate) fn push_unique(&mut self, name: Arc<str>, value: Value) {
        debug_assert!(self.get(&name).is_none(), "duplicate parameter `{name}`");
        self.entries.push((name, value));
    }

    /// Removes and returns the most recently appended parameter (used by
    /// the DFS space generator when backtracking).
    pub fn pop(&mut self) -> Option<(Arc<str>, Value)> {
        self.entries.pop()
    }

    /// Looks up a parameter value by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries
            .iter()
            .find(|(n, _)| n.as_ref() == name)
            .map(|(_, v)| v)
    }

    /// The value of the `i`-th appended parameter.
    pub(crate) fn value_at(&self, i: usize) -> Option<&Value> {
        self.entries.get(i).map(|(_, v)| v)
    }

    /// Looks up a parameter by name and converts it to `u64`.
    ///
    /// # Panics
    /// Panics if the parameter is missing or not representable as `u64` —
    /// mirrors the convenience of `best_config["LS"]` in the paper.
    pub fn get_u64(&self, name: &str) -> u64 {
        self[name]
            .as_u64()
            .unwrap_or_else(|| panic!("parameter `{name}` is not a u64"))
    }

    /// Looks up a parameter by name and converts it to `f64` (panics like
    /// [`Config::get_u64`]).
    pub fn get_f64(&self, name: &str) -> f64 {
        self[name]
            .as_f64()
            .unwrap_or_else(|| panic!("parameter `{name}` is not numeric"))
    }

    /// Looks up a parameter by name and converts it to `bool` (panics like
    /// [`Config::get_u64`]).
    pub fn get_bool(&self, name: &str) -> bool {
        self[name]
            .as_bool()
            .unwrap_or_else(|| panic!("parameter `{name}` is not a bool"))
    }

    /// Number of parameters in the configuration.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the configuration holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, value)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(n, v)| (n.as_ref(), v))
    }

    /// The parameter names in declaration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_ref())
    }
}

impl Index<&str> for Config {
    type Output = Value;

    fn index(&self, name: &str) -> &Value {
        self.get(name)
            .unwrap_or_else(|| panic!("no parameter `{name}` in configuration"))
    }
}

impl fmt::Debug for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (n, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}={v}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl<'a> IntoIterator for &'a Config {
    type Item = (&'a str, &'a Value);
    type IntoIter = Box<dyn Iterator<Item = (&'a str, &'a Value)> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_index() {
        let mut c = Config::new();
        c.push("WPT".into(), 4u64.into());
        c.push("LS".into(), 64u64.into());
        assert_eq!(c["WPT"], Value::from(4u64));
        assert_eq!(c.get_u64("LS"), 64);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn pop_backtracks() {
        let mut c = Config::new();
        c.push("A".into(), 1u64.into());
        c.push("B".into(), 2u64.into());
        c.pop();
        assert!(c.get("B").is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_name_panics() {
        let mut c = Config::new();
        c.push("A".into(), 1u64.into());
        c.push("A".into(), 2u64.into());
    }

    #[test]
    #[should_panic(expected = "no parameter `XY`")]
    fn missing_index_panics() {
        let c = Config::new();
        let _ = &c["XY"];
    }

    #[test]
    fn from_pairs_and_iter_order() {
        let c = Config::from_pairs([("X", 1u64), ("Y", 2u64)]);
        let names: Vec<_> = c.names().collect();
        assert_eq!(names, vec!["X", "Y"]);
    }

    #[test]
    fn typed_getters() {
        let c = Config::from_pairs([("P", Value::from(true)), ("F", Value::from(1.5f64))]);
        assert!(c.get_bool("P"));
        assert_eq!(c.get_f64("F"), 1.5);
    }
}
