//! Aggregation functions (the `RETURN` clause).
//!
//! Definition 2: "We focus on distributive (such as COUNT, MIN, MAX, SUM)
//! and algebraic aggregation functions (such as AVG), since they can be
//! computed incrementally."
//!
//! * `COUNT(*)` — the number of matched sequences per group and window.
//! * `COUNT(E)` — the number of events of type `E` across all matched
//!   sequences. Under assumption (3) each sequence contains exactly one `E`
//!   event, so `COUNT(E) = COUNT(*)` whenever `E` appears in the pattern.
//! * `MIN/MAX/SUM/AVG(E.attr)` — over the `attr` values of all `E` events in
//!   all matched sequences.

use sharon_types::{Catalog, EventTypeId};
use std::fmt;

/// The aggregation function of a query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)`: number of matched sequences.
    CountStar,
    /// `COUNT(E)`: number of `E` events across all matched sequences.
    Count(EventTypeId),
    /// `SUM(E.attr)`.
    Sum(EventTypeId, String),
    /// `MIN(E.attr)`.
    Min(EventTypeId, String),
    /// `MAX(E.attr)`.
    Max(EventTypeId, String),
    /// `AVG(E.attr) = SUM(E.attr) / COUNT(E)`.
    Avg(EventTypeId, String),
}

impl AggFunc {
    /// The event type the aggregate targets, if any (`None` for
    /// `COUNT(*)`).
    pub fn target_type(&self) -> Option<EventTypeId> {
        match self {
            AggFunc::CountStar => None,
            AggFunc::Count(t)
            | AggFunc::Sum(t, _)
            | AggFunc::Min(t, _)
            | AggFunc::Max(t, _)
            | AggFunc::Avg(t, _) => Some(*t),
        }
    }

    /// The attribute the aggregate reads, if any.
    pub fn target_attr(&self) -> Option<&str> {
        match self {
            AggFunc::CountStar | AggFunc::Count(_) => None,
            AggFunc::Sum(_, a) | AggFunc::Min(_, a) | AggFunc::Max(_, a) | AggFunc::Avg(_, a) => {
                Some(a)
            }
        }
    }

    /// True for the pure-counting aggregates that the specialized
    /// count-only executor kernel can evaluate.
    pub fn is_count_like(&self) -> bool {
        matches!(self, AggFunc::CountStar | AggFunc::Count(_))
    }

    /// Render with type names from `catalog`.
    pub fn display<'a>(&'a self, catalog: &'a Catalog) -> impl fmt::Display + 'a {
        struct D<'a>(&'a AggFunc, &'a Catalog);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self.0 {
                    AggFunc::CountStar => write!(f, "COUNT(*)"),
                    AggFunc::Count(t) => write!(f, "COUNT({})", self.1.name(*t)),
                    AggFunc::Sum(t, a) => write!(f, "SUM({}.{a})", self.1.name(*t)),
                    AggFunc::Min(t, a) => write!(f, "MIN({}.{a})", self.1.name(*t)),
                    AggFunc::Max(t, a) => write!(f, "MAX({}.{a})", self.1.name(*t)),
                    AggFunc::Avg(t, a) => write!(f, "AVG({}.{a})", self.1.name(*t)),
                }
            }
        }
        D(self, catalog)
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggFunc::CountStar => write!(f, "COUNT(*)"),
            AggFunc::Count(t) => write!(f, "COUNT({t})"),
            AggFunc::Sum(t, a) => write!(f, "SUM({t}.{a})"),
            AggFunc::Min(t, a) => write!(f, "MIN({t}.{a})"),
            AggFunc::Max(t, a) => write!(f, "MAX({t}.{a})"),
            AggFunc::Avg(t, a) => write!(f, "AVG({t}.{a})"),
        }
    }
}

/// The result of one aggregate, per group and window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggValue {
    /// A count (`COUNT(*)`, `COUNT(E)`).
    Count(u128),
    /// A numeric value (`SUM`, `MIN`, `MAX`, `AVG`). `None` when no
    /// sequence matched (MIN/MAX/AVG of the empty set).
    Number(Option<f64>),
}

impl AggValue {
    /// The count, if this is a count result.
    pub fn as_count(&self) -> Option<u128> {
        match self {
            AggValue::Count(c) => Some(*c),
            AggValue::Number(_) => None,
        }
    }

    /// Numeric view (counts convert losslessly for small values).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AggValue::Count(c) => Some(*c as f64),
            AggValue::Number(n) => *n,
        }
    }
}

impl fmt::Display for AggValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggValue::Count(c) => write!(f, "{c}"),
            AggValue::Number(Some(x)) => write!(f, "{x}"),
            AggValue::Number(None) => write!(f, "null"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets() {
        let t = EventTypeId(4);
        assert_eq!(AggFunc::CountStar.target_type(), None);
        assert_eq!(AggFunc::Count(t).target_type(), Some(t));
        assert_eq!(AggFunc::Sum(t, "price".into()).target_attr(), Some("price"));
        assert_eq!(AggFunc::Count(t).target_attr(), None);
        assert!(AggFunc::CountStar.is_count_like());
        assert!(AggFunc::Count(t).is_count_like());
        assert!(!AggFunc::Avg(t, "x".into()).is_count_like());
    }

    #[test]
    fn display_with_catalog() {
        let mut c = Catalog::new();
        let laptop = c.register("Laptop");
        assert_eq!(AggFunc::CountStar.display(&c).to_string(), "COUNT(*)");
        assert_eq!(
            AggFunc::Avg(laptop, "price".into()).display(&c).to_string(),
            "AVG(Laptop.price)"
        );
        assert_eq!(AggFunc::Count(laptop).to_string(), "COUNT(E0)");
    }

    #[test]
    fn agg_values() {
        assert_eq!(AggValue::Count(7).as_count(), Some(7));
        assert_eq!(AggValue::Count(7).as_f64(), Some(7.0));
        assert_eq!(AggValue::Number(Some(1.5)).as_f64(), Some(1.5));
        assert_eq!(AggValue::Number(None).as_f64(), None);
        assert_eq!(AggValue::Number(None).as_count(), None);
        assert_eq!(AggValue::Count(3).to_string(), "3");
        assert_eq!(AggValue::Number(None).to_string(), "null");
    }
}
