//! The JSON value model shared by the `serde` and `serde_json` shims.

use std::fmt;

/// A JSON number: integer-preserving, like `serde_json::Number`.
#[derive(Debug, Clone, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    PosInt(u64),
    /// A negative integer.
    NegInt(i64),
    /// A float.
    Float(f64),
}

impl Number {
    /// From a `u64`.
    pub fn from_u64(v: u64) -> Number {
        Number::PosInt(v)
    }

    /// From an `i64` (normalized to `PosInt` when non-negative).
    pub fn from_i64(v: i64) -> Number {
        if v >= 0 {
            Number::PosInt(v as u64)
        } else {
            Number::NegInt(v)
        }
    }

    /// From an `f64`.
    pub fn from_f64(v: f64) -> Number {
        Number::Float(v)
    }

    /// As `u64`, when representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Number::PosInt(v) => Some(*v),
            _ => None,
        }
    }

    /// As `i64`, when representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Number::PosInt(v) => i64::try_from(*v).ok(),
            Number::NegInt(v) => Some(*v),
            Number::Float(_) => None,
        }
    }

    /// As `f64` (always representable, possibly lossily).
    pub fn as_f64(&self) -> f64 {
        match self {
            Number::PosInt(v) => *v as f64,
            Number::NegInt(v) => *v as f64,
            Number::Float(v) => *v,
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Number::PosInt(v) => write!(f, "{v}"),
            Number::NegInt(v) => write!(f, "{v}"),
            Number::Float(v) => {
                if v.is_finite() {
                    write!(f, "{v}")
                } else {
                    // JSON has no NaN/Inf; emit null like serde_json does.
                    write!(f, "null")
                }
            }
        }
    }
}

/// An insertion-ordered JSON object.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// An empty object.
    pub fn new() -> Map {
        Map::default()
    }

    /// Inserts or replaces `key`.
    pub fn insert(&mut self, key: impl Into<String>, value: Value) {
        let key = key.into();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// Builds an object from entries in document order, resolving a
    /// repeated key the way successive [`Map::insert`] calls would: it
    /// keeps the position where it first appeared and the value it was
    /// given last. O(k log k) in the number of entries `k`.
    pub fn from_entries(mut entries: Vec<(String, Value)>) -> Map {
        if entries.len() < 2 {
            return Map { entries };
        }
        // A stable sort keeps each key's occurrences in document order.
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by(|&a, &b| entries[a].0.cmp(&entries[b].0));
        let same_key = |a: &usize, b: &usize| entries[*a].0 == entries[*b].0;
        if !order.windows(2).any(|pair| same_key(&pair[0], &pair[1])) {
            return Map { entries };
        }
        let mut keep = vec![true; entries.len()];
        let mut moves = Vec::new();
        for run in order.chunk_by(same_key) {
            if let [first, .., last] = *run {
                moves.push((first, last));
                for &later in &run[1..] {
                    keep[later] = false;
                }
            }
        }
        for (first, last) in moves {
            entries[first].1 = std::mem::replace(&mut entries[last].1, Value::Null);
        }
        let mut index = 0;
        entries.retain(|_| {
            index += 1;
            keep[index - 1]
        });
        Map { entries }
    }

    /// Looks a key up.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Removes `key`, returning its value when it was present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let index = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(index).1)
    }

    /// `true` when the key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

impl Value {
    /// Member lookup on objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// As `&str`, when a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// As `u64`, when a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// As `i64`, when an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// As `f64`, when a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// As `bool`, when a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// As a slice, when an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// As an object, when one.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Number(Number::from_u64(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Number(Number::from_u64(v as u64))
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Number(Number::from_u64(v as u64))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Number(Number::from_i64(v))
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Number(Number::from_f64(v))
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_insertion_order_and_replaces() {
        let mut m = Map::new();
        m.insert("b", Value::from(1u64));
        m.insert("a", Value::from(2u64));
        m.insert("b", Value::from(3u64));
        let keys: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a"]);
        assert_eq!(m.get("b").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn from_entries_matches_an_insert_loop() {
        // Every sequence of up to six keys drawn from three, each entry
        // carrying its own position as the value.
        for len in 0..=6u32 {
            for code in 0..3u32.pow(len) {
                let entries: Vec<(String, Value)> = (0..len)
                    .map(|i| {
                        let key = ["a", "b", ""][(code / 3u32.pow(i) % 3) as usize];
                        (key.to_string(), Value::from(i))
                    })
                    .collect();
                let mut expected = Map::new();
                for (key, value) in entries.clone() {
                    expected.insert(key, value);
                }
                assert_eq!(Map::from_entries(entries.clone()), expected, "{entries:?}");
            }
        }
    }

    #[test]
    fn accessors_filter_by_variant() {
        let v = Value::from(7u64);
        assert_eq!(v.as_u64(), Some(7));
        assert_eq!(v.as_str(), None);
        assert!(!v.is_null());
        assert_eq!(Value::from(-3i64).as_i64(), Some(-3));
    }

    #[test]
    fn from_i64_normalises_non_negative_values() {
        assert_eq!(Number::from_i64(5), Number::PosInt(5));
        assert_eq!(Number::from_i64(0), Number::PosInt(0));
        assert_eq!(Number::from_i64(-1), Number::NegInt(-1));
        assert_eq!(Number::from_i64(i64::MIN), Number::NegInt(i64::MIN));
        assert_eq!(Value::from(4i64), Value::from(4u64));
    }

    #[test]
    fn number_conversions_refuse_what_does_not_fit() {
        assert_eq!(Number::PosInt(u64::MAX).as_i64(), None);
        assert_eq!(Number::PosInt(i64::MAX as u64).as_i64(), Some(i64::MAX));
        assert_eq!(Number::NegInt(-1).as_u64(), None);
        assert_eq!(Number::Float(1.0).as_u64(), None);
        assert_eq!(Number::Float(1.0).as_i64(), None);
        assert_eq!(Number::PosInt(3).as_f64(), 3.0);
        assert_eq!(Number::NegInt(-3).as_f64(), -3.0);
        assert_eq!(Number::Float(-0.5).as_f64(), -0.5);
    }

    #[test]
    fn number_display_is_exact_for_integers_and_null_for_non_finite_floats() {
        assert_eq!(Number::PosInt(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Number::NegInt(i64::MIN).to_string(), "-9223372036854775808");
        assert_eq!(Number::Float(0.5).to_string(), "0.5");
        assert_eq!(Number::Float(-1e-7).to_string(), "-0.0000001");
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Number::Float(x).to_string(), "null");
        }
    }

    #[test]
    fn map_remove_returns_the_value_and_keeps_the_rest_in_order() {
        let mut m = Map::new();
        for (i, key) in ["c", "a", "b", "d"].into_iter().enumerate() {
            m.insert(key, Value::from(i));
        }
        assert_eq!(m.remove("a"), Some(Value::from(1u64)));
        assert_eq!(m.remove("a"), None);
        assert_eq!(m.remove("zz"), None);
        let keys: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["c", "b", "d"]);
        // A removed key inserted again goes to the end.
        m.insert("a", Value::Null);
        assert_eq!(m.iter().last().unwrap().0, "a");
    }

    #[test]
    fn map_len_and_membership_track_entries() {
        let mut m = Map::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert!(!m.contains_key(""));
        m.insert("", Value::Null);
        m.insert("", Value::Bool(true));
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(""));
        // A key whose value is null is still present.
        m.insert("n", Value::Null);
        assert!(m.contains_key("n"));
        assert_eq!(m.get("n"), Some(&Value::Null));
        assert_eq!(m.get("missing"), None);
    }

    #[test]
    fn from_entries_keeps_distinct_keys_in_document_order() {
        let keys = ["delta", "alpha", "charlie", "bravo", ""];
        let entries: Vec<(String, Value)> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.to_string(), Value::from(i)))
            .collect();
        let map = Map::from_entries(entries);
        let got: Vec<(&str, u64)> = map
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_u64().unwrap()))
            .collect();
        assert_eq!(
            got,
            [
                ("delta", 0),
                ("alpha", 1),
                ("charlie", 2),
                ("bravo", 3),
                ("", 4)
            ]
        );
    }

    #[test]
    fn from_entries_collapses_a_long_run_of_one_key() {
        let mut entries: Vec<(String, Value)> = (0..1000u64)
            .map(|i| ("k".to_string(), Value::from(i)))
            .collect();
        entries.insert(500, ("m".to_string(), Value::Bool(true)));
        entries.insert(0, ("z".to_string(), Value::Null));
        let map = Map::from_entries(entries);
        let keys: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "k", "m"]);
        assert_eq!(map.get("k").unwrap().as_u64(), Some(999));
        assert_eq!(map.get("m"), Some(&Value::Bool(true)));
    }

    #[test]
    fn accessors_and_lookups_are_none_on_other_variants() {
        let array = Value::from(vec![1u64]);
        assert_eq!(array.get("0"), None);
        assert_eq!(array.as_object(), None);
        assert_eq!(array.as_array().map(<[Value]>::len), Some(1));
        assert_eq!(Value::from("s").get("s"), None);
        assert_eq!(Value::Null.as_bool(), None);
        assert!(Value::Null.is_null());
        assert_eq!(Value::Bool(false).as_bool(), Some(false));
        assert_eq!(Value::Bool(false).as_u64(), None);
        assert_eq!(Value::from(2u64).as_f64(), Some(2.0));
        assert_eq!(Value::from("2").as_f64(), None);
        assert_eq!(Value::from(0.5).as_u64(), None);
        assert!(Value::Object(Map::new()).as_object().unwrap().is_empty());
    }

    #[test]
    fn from_impls_pick_the_matching_variant() {
        assert_eq!(Value::from(3usize), Value::Number(Number::PosInt(3)));
        assert_eq!(Value::from(3u32), Value::Number(Number::PosInt(3)));
        assert_eq!(Value::from(-3i64), Value::Number(Number::NegInt(-3)));
        assert_eq!(Value::from(0.25), Value::Number(Number::Float(0.25)));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(String::from("s")), Value::String("s".into()));
        assert_eq!(
            Value::from(vec!["a", "b"]),
            Value::Array(vec![Value::String("a".into()), Value::String("b".into())])
        );
    }
}
