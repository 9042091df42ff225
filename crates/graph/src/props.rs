//! Property values and property maps for vertices and edges.
//!
//! GraphX lets the application attach arbitrary data to vertices and edges;
//! NOUS uses this for entity types, alias lists, bag-of-words documents and
//! topic distributions (§3.6). [`PropMap`] is a small sorted-vec map: most
//! vertices carry fewer than eight properties, where a sorted vec beats a
//! hash map on both memory and lookup time.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dynamically-typed property value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PropValue {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
    /// A list of strings (alias tables, token lists).
    List(Vec<String>),
    /// A dense probability vector (e.g. an LDA topic distribution).
    Vector(Vec<f32>),
}

impl PropValue {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            PropValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            PropValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_float(&self) -> Option<f64> {
        match self {
            PropValue::Float(f) => Some(*f),
            PropValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            PropValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_list(&self) -> Option<&[String]> {
        match self {
            PropValue::List(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_vector(&self) -> Option<&[f32]> {
        match self {
            PropValue::Vector(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for PropValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropValue::Str(s) => write!(f, "{s}"),
            PropValue::Int(i) => write!(f, "{i}"),
            PropValue::Float(x) => write!(f, "{x}"),
            PropValue::Bool(b) => write!(f, "{b}"),
            PropValue::List(v) => write!(f, "[{}]", v.join(", ")),
            PropValue::Vector(v) => write!(f, "<{} dims>", v.len()),
        }
    }
}

impl From<&str> for PropValue {
    fn from(s: &str) -> Self {
        PropValue::Str(s.to_owned())
    }
}

impl From<String> for PropValue {
    fn from(s: String) -> Self {
        PropValue::Str(s)
    }
}

impl From<i64> for PropValue {
    fn from(i: i64) -> Self {
        PropValue::Int(i)
    }
}

impl From<f64> for PropValue {
    fn from(f: f64) -> Self {
        PropValue::Float(f)
    }
}

impl From<bool> for PropValue {
    fn from(b: bool) -> Self {
        PropValue::Bool(b)
    }
}

/// A small string-keyed property map backed by a vec sorted by key.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PropMap {
    entries: Vec<(String, PropValue)>,
}

impl PropMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or overwrite `key`. Returns the previous value if any.
    pub fn set(&mut self, key: &str, value: impl Into<PropValue>) -> Option<PropValue> {
        let value = value.into();
        match self.entries.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                // Maps are small and written once (an edge's `args`): grow
                // by the entry, not by `Vec`'s four-slot first allocation —
                // three unused 56-byte slots on every edge that has one
                // property.
                self.entries.reserve_exact(1);
                self.entries.insert(i, (key.to_owned(), value));
                None
            }
        }
    }

    pub fn get(&self, key: &str) -> Option<&PropValue> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    pub fn remove(&mut self, key: &str) -> Option<PropValue> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.entries.remove(i).1)
    }

    pub fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PropValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl<K: Into<String>, V: Into<PropValue>> FromIterator<(K, V)> for PropMap {
    fn from_iter<T: IntoIterator<Item = (K, V)>>(iter: T) -> Self {
        let mut m = PropMap::new();
        for (k, v) in iter {
            m.set(&k.into(), v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_overwrite() {
        let mut m = PropMap::new();
        assert!(m.set("type", "Company").is_none());
        assert_eq!(m.get("type").unwrap().as_str(), Some("Company"));
        let old = m.set("type", "Organization").unwrap();
        assert_eq!(old.as_str(), Some("Company"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn keys_stay_sorted() {
        let mut m = PropMap::new();
        m.set("zeta", 1i64);
        m.set("alpha", 2i64);
        m.set("mid", 3i64);
        let keys: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn remove_and_missing() {
        let mut m = PropMap::new();
        m.set("a", true);
        assert!(m.remove("missing").is_none());
        assert_eq!(m.remove("a").unwrap().as_bool(), Some(true));
        assert!(m.is_empty());
    }

    #[test]
    fn typed_accessors() {
        assert_eq!(PropValue::Int(3).as_float(), Some(3.0));
        assert_eq!(PropValue::Float(0.5).as_int(), None);
        assert_eq!(
            PropValue::List(vec!["a".into()]).as_list().map(|l| l.len()),
            Some(1)
        );
        assert_eq!(
            PropValue::Vector(vec![0.1, 0.9])
                .as_vector()
                .map(|v| v.len()),
            Some(2)
        );
    }

    #[test]
    fn from_iterator_builds_sorted_map() {
        let m: PropMap = vec![("b", 1i64), ("a", 2i64)].into_iter().collect();
        assert_eq!(m.len(), 2);
        assert_eq!(m.get("a").unwrap().as_int(), Some(2));
    }

    #[test]
    fn display_formats() {
        assert_eq!(PropValue::from("x").to_string(), "x");
        assert_eq!(
            PropValue::List(vec!["a".into(), "b".into()]).to_string(),
            "[a, b]"
        );
        assert_eq!(PropValue::Vector(vec![0.0; 4]).to_string(), "<4 dims>");
    }
}
