//! `GROUP BY` keys.
//!
//! A query's grouping clause `G` partitions matched sequences by the values
//! of the grouping attributes; "a result is returned per group and per
//! window" (Definition 2). The common case in the paper's workloads is a
//! single attribute (`[vehicle]`, `[customer]`), which [`GroupKey`] stores
//! without an extra allocation.

use crate::value::Value;
use std::fmt;

/// The value of a query's grouping attributes for one partition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroupKey {
    /// No `GROUP BY` clause: all events form a single group.
    Global,
    /// A single grouping attribute (the common case).
    One(Value),
    /// Two or more grouping attributes.
    Many(Box<[Value]>),
}

impl GroupKey {
    /// Build a key from the values of the grouping attributes, in clause
    /// order.
    pub fn from_values(mut values: Vec<Value>) -> Self {
        match values.len() {
            0 => GroupKey::Global,
            1 => GroupKey::One(values.pop().expect("len checked")),
            _ => GroupKey::Many(values.into_boxed_slice()),
        }
    }

    /// Number of attribute values in the key (0 for [`GroupKey::Global`]).
    pub fn arity(&self) -> usize {
        match self {
            GroupKey::Global => 0,
            GroupKey::One(_) => 1,
            GroupKey::Many(vs) => vs.len(),
        }
    }

    /// Overwrite `self` with the key for `values`, reusing the existing
    /// allocation whenever the arity matches.
    ///
    /// This is the executor's per-event path: a reused scratch key means
    /// the only allocation left on first-sight of a multi-attribute group
    /// is the one unavoidable `clone` into the map. [`Value`]s themselves
    /// are cheap to clone (`Arc`-interned strings).
    #[inline]
    pub fn assign_from_slice(&mut self, values: &[Value]) {
        match (&mut *self, values) {
            (_, []) => *self = GroupKey::Global,
            (GroupKey::One(slot), [v]) => slot.clone_from(v),
            (_, [v]) => *self = GroupKey::One(v.clone()),
            (GroupKey::Many(slots), vs) if slots.len() == vs.len() => {
                for (slot, v) in slots.iter_mut().zip(vs) {
                    slot.clone_from(v);
                }
            }
            (_, vs) => *self = GroupKey::Many(vs.to_vec().into_boxed_slice()),
        }
    }
}

impl fmt::Display for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupKey::Global => write!(f, "<all>"),
            GroupKey::One(v) => write!(f, "{v}"),
            GroupKey::Many(vs) => {
                write!(f, "(")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_values_picks_compact_representation() {
        assert_eq!(GroupKey::from_values(vec![]), GroupKey::Global);
        assert_eq!(
            GroupKey::from_values(vec![Value::Int(7)]),
            GroupKey::One(Value::Int(7))
        );
        let many = GroupKey::from_values(vec![Value::Int(1), Value::from("x")]);
        assert_eq!(many.arity(), 2);
    }

    #[test]
    fn display() {
        assert_eq!(GroupKey::Global.to_string(), "<all>");
        assert_eq!(GroupKey::One(Value::Int(3)).to_string(), "3");
        assert_eq!(
            GroupKey::from_values(vec![Value::Int(1), Value::Int(2)]).to_string(),
            "(1, 2)"
        );
    }

    #[test]
    fn assign_from_slice_matches_from_values() {
        let cases: Vec<Vec<Value>> = vec![
            vec![],
            vec![Value::Int(7)],
            vec![Value::from("x")],
            vec![Value::Int(1), Value::from("y")],
            vec![Value::Int(1), Value::Int(2), Value::Int(3)],
        ];
        // every transition between arities must land on the canonical form
        for from in &cases {
            for to in &cases {
                let mut key = GroupKey::from_values(from.clone());
                key.assign_from_slice(to);
                assert_eq!(key, GroupKey::from_values(to.clone()), "{from:?} -> {to:?}");
            }
        }
    }

    #[test]
    fn keys_are_hashable_and_distinct() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(GroupKey::One(Value::Int(1)));
        set.insert(GroupKey::One(Value::Int(2)));
        set.insert(GroupKey::One(Value::Int(1)));
        assert_eq!(set.len(), 2);
    }
}
