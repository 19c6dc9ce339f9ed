//! Typed attribute values.
//!
//! Events carry attributes whose values are integers, floats, or strings
//! (Section 2.1: "described by a schema that specifies the set of event
//! attributes and the domains of their values"). Values must be hashable and
//! comparable so they can serve as `GROUP BY` keys and predicate operands;
//! floats are compared by their IEEE-754 bit pattern for hashing purposes.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A typed attribute value.
#[derive(Debug, Clone)]
pub enum Value {
    /// A 64-bit signed integer (identifiers, counters).
    Int(i64),
    /// A 64-bit float (speeds, prices).
    Float(f64),
    /// An interned string (shared, cheap to clone).
    Str(Arc<str>),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// Numeric view of this value, if it is numeric.
    ///
    /// Aggregation functions (`SUM`, `MIN`, `MAX`, `AVG`) operate on the
    /// numeric domain; strings return `None`.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Str(_) => None,
        }
    }

    /// Integer view of this value, if it is an integer.
    #[inline]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view of this value, if it is a string.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A short name for the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            // cross-type numeric equality so predicates like `price = 5`
            // work whether the attribute is int or float
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                (*a as f64) == *b
            }
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            // hash ints and integral floats identically so that
            // `Int(5) == Float(5.0)` implies equal hashes
            Value::Int(i) => {
                state.write_u8(0);
                state.write_i64(*i);
            }
            Value::Float(f) => {
                if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 {
                    state.write_u8(0);
                    state.write_i64(*f as i64);
                } else {
                    state.write_u8(1);
                    state.write_u64(f.to_bits());
                }
            }
            Value::Str(s) => {
                state.write_u8(2);
                s.hash(state);
            }
        }
    }
}

impl PartialOrd for Value {
    /// Total order within a type; cross-type numeric comparisons allowed;
    /// numerics and strings are incomparable.
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn cross_type_numeric_equality_and_hash() {
        assert_eq!(Value::Int(5), Value::Float(5.0));
        assert_eq!(hash_of(&Value::Int(5)), hash_of(&Value::Float(5.0)));
        assert_ne!(Value::Int(5), Value::Float(5.5));
    }

    #[test]
    fn string_values() {
        let a = Value::from("MainSt");
        let b = Value::str("MainSt");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), Some("MainSt"));
        assert_eq!(a.as_f64(), None);
    }

    #[test]
    fn ordering() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Float(1.5) < Value::Int(2));
        assert!(Value::from("a") < Value::from("b"));
        assert_eq!(Value::Int(1).partial_cmp(&Value::from("a")), None);
    }

    #[test]
    fn nan_is_self_equal_for_hashing_purposes() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_eq!(hash_of(&nan), hash_of(&nan.clone()));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Float(1.5).to_string(), "1.5");
        assert_eq!(Value::from("x").to_string(), "x");
    }

    #[test]
    fn type_names() {
        assert_eq!(Value::Int(0).type_name(), "int");
        assert_eq!(Value::Float(0.0).type_name(), "float");
        assert_eq!(Value::from("").type_name(), "string");
    }
}
