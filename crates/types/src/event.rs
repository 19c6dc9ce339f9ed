//! Events: timestamped, typed messages on a stream.
//!
//! "An event is a message indicating that something of interest to the
//! application happened in the real world. An event `e` has a time stamp
//! `e.time` assigned by the event source \[and\] belongs to a particular event
//! type `E`" (Section 2.1, Sharon paper).
//!
//! [`Event`] is the *row-form* representation, an adapter for tests and
//! examples: every executor takes rows only as a columnar
//! [`crate::EventBatch`], built from events with
//! [`crate::EventBatch::from_events`].

use crate::catalog::{AttrId, EventTypeId};
use crate::time::Timestamp;
use crate::value::Value;

/// A single event (row form).
///
/// Attribute values are positional, parallel to the [`crate::Schema`] of the
/// event's type. String values are `Arc`-interned, so cloning an event
/// copies no string.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// The event's type.
    pub ty: EventTypeId,
    /// The source-assigned time stamp.
    pub time: Timestamp,
    /// Positional attribute values (see the type's [`crate::Schema`]).
    pub attrs: Vec<Value>,
}

impl Event {
    /// An event with no attributes.
    pub fn new(ty: EventTypeId, time: Timestamp) -> Self {
        Event {
            ty,
            time,
            attrs: Vec::new(),
        }
    }

    /// An event with attribute values.
    pub fn with_attrs(ty: EventTypeId, time: Timestamp, attrs: impl Into<Vec<Value>>) -> Self {
        Event {
            ty,
            time,
            attrs: attrs.into(),
        }
    }

    /// The value of attribute `attr`, if present.
    #[inline]
    pub fn attr(&self, attr: AttrId) -> Option<&Value> {
        self.attrs.get(attr.index())
    }

    /// Numeric value of attribute `attr`, if present and numeric.
    #[inline]
    pub fn attr_f64(&self, attr: AttrId) -> Option<f64> {
        self.attr(attr).and_then(Value::as_f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_access() {
        let e = Event::with_attrs(
            EventTypeId(3),
            Timestamp::from_secs(1),
            vec![Value::Int(42), Value::from("taxi"), Value::Float(1.5)],
        );
        assert_eq!(e.attr(AttrId(0)), Some(&Value::Int(42)));
        assert_eq!(e.attr(AttrId(1)).and_then(Value::as_str), Some("taxi"));
        assert_eq!(e.attr_f64(AttrId(2)), Some(1.5));
        assert_eq!(e.attr_f64(AttrId(1)), None, "strings are not numeric");
        assert_eq!(e.attr(AttrId(9)), None, "out of range");
    }

    #[test]
    fn bare_event() {
        let e = Event::new(EventTypeId(0), Timestamp(5));
        assert!(e.attrs.is_empty());
        assert_eq!(e.time, Timestamp(5));
    }
}
