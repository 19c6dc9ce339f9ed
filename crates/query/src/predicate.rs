//! `WHERE` predicates.
//!
//! Sharon's simplifying assumption (2) gives all queries identical
//! predicates; the §7.2 extension partitions the stream so that the Sharon
//! machinery applies within each partition. We support *per-event*
//! predicates of the form `Type.attr <op> literal`; the paper's cross-event
//! equivalence predicates (`[vehicle]` — all events from the same vehicle)
//! are expressed with `GROUP BY vehicle`, which partitions state identically.

use sharon_types::{Catalog, Event, EventTypeId, Value};
use std::cmp::Ordering;
use std::fmt;

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply the operator to an `Ordering` (or `None` for incomparable
    /// values, which fails every operator except `!=`).
    pub fn eval(self, ord: Option<Ordering>) -> bool {
        match (self, ord) {
            (CmpOp::Eq, Some(Ordering::Equal)) => true,
            (CmpOp::Ne, Some(Ordering::Equal)) => false,
            (CmpOp::Ne, _) => true,
            (CmpOp::Lt, Some(Ordering::Less)) => true,
            (CmpOp::Le, Some(Ordering::Less | Ordering::Equal)) => true,
            (CmpOp::Gt, Some(Ordering::Greater)) => true,
            (CmpOp::Ge, Some(Ordering::Greater | Ordering::Equal)) => true,
            _ => false,
        }
    }
}

/// The single definition of clause semantics, `value <op> literal`:
/// a **missing** value (`None`) fails every operator — `!=` included —
/// while a **present but incomparable** value (numeric vs. string, or a
/// NaN float) satisfies only `!=`.
///
/// Shared by [`Predicate::eval`], the executors' compiled predicate
/// tables, the two-step baselines' type tables, and the vectorized scan
/// kernel's string lane, so the call sites can never drift apart.
#[inline]
pub fn clause_passes(op: CmpOp, value: Option<&Value>, literal: &Value) -> bool {
    match value {
        Some(v) => op.eval(v.partial_cmp(literal)),
        None => false,
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A per-event predicate `Type.attr <op> literal`.
///
/// The predicate constrains events of type `ty`; events of other types are
/// unaffected. An event of type `ty` lacking the attribute fails the
/// predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// The constrained event type.
    pub ty: EventTypeId,
    /// Attribute name (resolved against the type's schema at compile time).
    pub attr: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal right-hand side.
    pub value: Value,
}

impl Predicate {
    /// Construct a predicate.
    pub fn new(ty: EventTypeId, attr: impl Into<String>, op: CmpOp, value: Value) -> Self {
        Predicate {
            ty,
            attr: attr.into(),
            op,
            value,
        }
    }

    /// Evaluate against `event`, resolving the attribute by name through
    /// `catalog`. Events of other types pass vacuously.
    ///
    /// The executors pre-resolve the attribute to a positional id instead of
    /// calling this on the hot path.
    pub fn eval(&self, catalog: &Catalog, event: &Event) -> bool {
        if event.ty != self.ty {
            return true;
        }
        let Some(attr) = catalog.schema(self.ty).attr(&self.attr) else {
            return false;
        };
        clause_passes(self.op, event.attr(attr), &self.value)
    }

    /// Render with type names from `catalog`.
    pub fn display<'a>(&'a self, catalog: &'a Catalog) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Predicate, &'a Catalog);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(
                    f,
                    "{}.{} {} {}",
                    self.1.name(self.0.ty),
                    self.0.attr,
                    self.0.op,
                    self.0.value
                )
            }
        }
        D(self, catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharon_types::{Schema, Timestamp};

    fn setup() -> (Catalog, EventTypeId) {
        let mut c = Catalog::new();
        let t = c.register_with_schema("Pos", Schema::new(["speed"]));
        (c, t)
    }

    fn ev(t: EventTypeId, speed: f64) -> Event {
        Event::with_attrs(t, Timestamp(0), vec![Value::Float(speed)])
    }

    #[test]
    fn cmp_op_semantics() {
        use Ordering::*;
        assert!(CmpOp::Eq.eval(Some(Equal)));
        assert!(!CmpOp::Eq.eval(Some(Less)));
        assert!(!CmpOp::Eq.eval(None));
        assert!(CmpOp::Ne.eval(None), "incomparable values are 'not equal'");
        assert!(CmpOp::Ne.eval(Some(Greater)));
        assert!(!CmpOp::Ne.eval(Some(Equal)));
        assert!(CmpOp::Lt.eval(Some(Less)) && !CmpOp::Lt.eval(Some(Equal)));
        assert!(CmpOp::Le.eval(Some(Equal)) && CmpOp::Le.eval(Some(Less)));
        assert!(CmpOp::Gt.eval(Some(Greater)) && !CmpOp::Gt.eval(Some(Equal)));
        assert!(CmpOp::Ge.eval(Some(Equal)) && !CmpOp::Ge.eval(Some(Less)));
    }

    #[test]
    fn predicate_on_matching_type() {
        let (c, t) = setup();
        let p = Predicate::new(t, "speed", CmpOp::Gt, Value::Int(60));
        assert!(p.eval(&c, &ev(t, 70.0)));
        assert!(!p.eval(&c, &ev(t, 50.0)));
        assert!(!p.eval(&c, &ev(t, 60.0)));
    }

    #[test]
    fn other_types_pass_vacuously() {
        let (mut c, t) = setup();
        let other = c.register("Other");
        let p = Predicate::new(t, "speed", CmpOp::Gt, Value::Int(60));
        assert!(p.eval(&c, &Event::new(other, Timestamp(0))));
    }

    #[test]
    fn missing_attribute_fails() {
        let (c, t) = setup();
        let p = Predicate::new(t, "nonexistent", CmpOp::Eq, Value::Int(0));
        assert!(!p.eval(&c, &ev(t, 1.0)));
        // attribute exists in schema but not on the event instance
        let p2 = Predicate::new(t, "speed", CmpOp::Eq, Value::Int(0));
        assert!(!p2.eval(&c, &Event::new(t, Timestamp(0))));
    }

    #[test]
    fn display() {
        let (c, t) = setup();
        let p = Predicate::new(t, "speed", CmpOp::Le, Value::Int(30));
        assert_eq!(p.display(&c).to_string(), "Pos.speed <= 30");
        assert_eq!(CmpOp::Ne.to_string(), "!=");
    }
}
