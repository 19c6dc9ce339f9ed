//! Columnar event batches (struct-of-arrays).
//!
//! The executors' per-event cost is dominated by the stateless prefix of
//! the pipeline — routing on the event type, predicate evaluation, group
//! key extraction — and by per-event heap traffic. An [`EventBatch`] stores
//! a slice of the stream in struct-of-arrays form so that prefix runs as
//! tight column scans and the whole batch costs a handful of amortized
//! buffer growths instead of one allocation per event:
//!
//! * a `ty` column (`Vec<EventTypeId>`) — the only column routing reads;
//! * a `time` column (`Vec<Timestamp>`);
//! * the attribute values of all rows in **one contiguous buffer**
//!   (`Vec<Value>`) with a row-offset column, Arrow-style. Event types have
//!   heterogeneous schemas (different attribute counts per type), so fixed
//!   per-attribute columns would need null padding; the offset layout keeps
//!   the values contiguous and ragged rows cheap.
//!
//! Batches are reusable: [`EventBatch::clear`] keeps all four buffers, so a
//! steady-state ingest loop performs no allocation. Batches are the only
//! form executors ingest; the row-form [`Event`] remains as the adapter
//! tests, examples and stream generators use — [`EventBatch::from_events`]
//! builds a batch, [`EventBatch::event`] materializes one row,
//! [`EventBatch::push_event`] appends one.

use crate::catalog::{AttrId, EventTypeId};
use crate::event::Event;
use crate::time::Timestamp;
use crate::value::Value;

/// A slice of the stream in columnar (struct-of-arrays) form.
///
/// Rows are usually appended in timestamp order, but a batch may carry
/// bounded disorder (late rows): the executors' event-time machinery
/// consumes [`EventBatch::min_time`] / [`EventBatch::max_time`] — tracked
/// incrementally on append, so the low/high water marks of the time
/// column are free at read time — to drive watermarks instead of
/// trusting arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct EventBatch {
    tys: Vec<EventTypeId>,
    times: Vec<Timestamp>,
    /// `offsets[row] .. offsets[row + 1]` indexes `values`; always has
    /// `len() + 1` entries starting with 0.
    offsets: Vec<u32>,
    /// Attribute values of all rows, contiguous.
    values: Vec<Value>,
    /// Running minimum of `times` (`u64::MAX` sentinel while empty).
    min_time: Timestamp,
    /// Running maximum of `times` (`0` sentinel while empty).
    max_time: Timestamp,
}

impl Default for EventBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl EventBatch {
    /// An empty batch.
    pub fn new() -> Self {
        EventBatch {
            tys: Vec::new(),
            times: Vec::new(),
            offsets: vec![0],
            values: Vec::new(),
            min_time: Timestamp(u64::MAX),
            max_time: Timestamp(0),
        }
    }

    /// An empty batch with room for `rows` events carrying about
    /// `attrs_per_row` values each.
    pub fn with_capacity(rows: usize, attrs_per_row: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        EventBatch {
            tys: Vec::with_capacity(rows),
            times: Vec::with_capacity(rows),
            offsets,
            values: Vec::with_capacity(rows * attrs_per_row),
            min_time: Timestamp(u64::MAX),
            max_time: Timestamp(0),
        }
    }

    /// Number of events in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.tys.len()
    }

    /// True if the batch holds no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tys.is_empty()
    }

    /// Drop all rows, keeping every buffer's capacity for reuse.
    pub fn clear(&mut self) {
        self.tys.clear();
        self.times.clear();
        self.offsets.truncate(1);
        self.values.clear();
        self.min_time = Timestamp(u64::MAX);
        self.max_time = Timestamp(0);
    }

    /// Append one event, moving `attrs` into the value buffer.
    ///
    /// Rows need not arrive in timestamp order — disordered streams
    /// produce batches with late rows, and the time-column watermarks
    /// ([`EventBatch::min_time`] / [`EventBatch::max_time`]) are tracked
    /// here so consumers never pay a separate scan.
    #[inline]
    pub fn push_from(
        &mut self,
        ty: EventTypeId,
        time: Timestamp,
        attrs: impl IntoIterator<Item = Value>,
    ) {
        self.min_time = self.min_time.min(time);
        self.max_time = self.max_time.max(time);
        self.tys.push(ty);
        self.times.push(time);
        self.values.extend(attrs);
        let end = u32::try_from(self.values.len()).expect("batch value buffer exceeds u32 offsets");
        self.offsets.push(end);
    }

    /// Append one event, cloning `attrs` into the value buffer.
    #[inline]
    pub fn push(&mut self, ty: EventTypeId, time: Timestamp, attrs: &[Value]) {
        self.push_from(ty, time, attrs.iter().cloned());
    }

    /// Append a row-form [`Event`].
    #[inline]
    pub fn push_event(&mut self, e: &Event) {
        self.push(e.ty, e.time, &e.attrs);
    }

    /// Append rows `lo..hi` of `other`, one column at a time: the sharded
    /// executor's ingest copies every caller batch through here, and a
    /// slice copy per column is far less work than a push per row.
    pub fn extend_from_range(&mut self, other: &EventBatch, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        let times = &other.times[lo..hi];
        for &t in times {
            self.min_time = self.min_time.min(t);
            self.max_time = self.max_time.max(t);
        }
        let (from, to) = (other.offsets[lo], other.offsets[hi]);
        let end = u32::try_from(self.values.len() + (to - from) as usize)
            .expect("batch value buffer exceeds u32 offsets");
        let base = end - (to - from);
        self.tys.extend_from_slice(&other.tys[lo..hi]);
        self.times.extend_from_slice(times);
        self.values
            .extend_from_slice(&other.values[from as usize..to as usize]);
        self.offsets
            .extend(other.offsets[lo + 1..=hi].iter().map(|&o| o - from + base));
    }

    /// The type of event `row`.
    #[inline]
    pub fn ty(&self, row: usize) -> EventTypeId {
        self.tys[row]
    }

    /// The timestamp of event `row`.
    #[inline]
    pub fn time(&self, row: usize) -> Timestamp {
        self.times[row]
    }

    /// The attribute values of event `row`.
    #[inline]
    pub fn attrs(&self, row: usize) -> &[Value] {
        &self.values[self.offsets[row] as usize..self.offsets[row + 1] as usize]
    }

    /// The value of attribute `attr` of event `row`, if present.
    #[inline]
    pub fn attr(&self, row: usize, attr: AttrId) -> Option<&Value> {
        self.attrs(row).get(attr.index())
    }

    /// Numeric value of attribute `attr` of event `row`, if present and
    /// numeric.
    #[inline]
    pub fn attr_f64(&self, row: usize, attr: AttrId) -> Option<f64> {
        self.attr(row, attr).and_then(Value::as_f64)
    }

    /// The whole `ty` column.
    #[inline]
    pub fn types(&self) -> &[EventTypeId] {
        &self.tys
    }

    /// The whole `time` column.
    #[inline]
    pub fn times(&self) -> &[Timestamp] {
        &self.times
    }

    /// The raw row-offset column (`len() + 1` entries, starting with 0):
    /// row `r`'s attributes live at `values()[offsets()[r] as usize ..
    /// offsets()[r + 1] as usize]`. Exposed so compiled scan kernels can
    /// gather attribute columns without per-row slice construction.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw contiguous value buffer (see [`EventBatch::offsets`]).
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Low water mark of the time column (`None` while empty) — tracked
    /// incrementally on append, never a scan.
    #[inline]
    pub fn min_time(&self) -> Option<Timestamp> {
        (!self.is_empty()).then_some(self.min_time)
    }

    /// High water mark of the time column (`None` while empty) — tracked
    /// incrementally on append, never a scan. Under bounded disorder this
    /// is what watermarks advance on (the last *row* may be a late one).
    #[inline]
    pub fn max_time(&self) -> Option<Timestamp> {
        (!self.is_empty()).then_some(self.max_time)
    }

    /// Materialize row `row` as a row-form [`Event`] (compatibility shim).
    pub fn event(&self, row: usize) -> Event {
        Event::with_attrs(self.ty(row), self.time(row), self.attrs(row))
    }

    /// Build a batch from row-form events (any timestamp order).
    pub fn from_events(events: &[Event]) -> Self {
        let values = events.iter().map(|e| e.attrs.len()).sum::<usize>();
        let mut batch = Self::with_capacity(events.len(), values.div_ceil(events.len().max(1)));
        for e in events {
            batch.push_event(e);
        }
        batch
    }

    /// Materialize every row (compatibility shim for row-form consumers).
    pub fn to_events(&self) -> Vec<Event> {
        (0..self.len()).map(|row| self.event(row)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EventBatch {
        let mut b = EventBatch::new();
        b.push_from(EventTypeId(0), Timestamp(1), [Value::Int(7)]);
        b.push_from(EventTypeId(1), Timestamp(2), []);
        b.push_from(
            EventTypeId(0),
            Timestamp(2),
            [Value::Int(8), Value::Float(0.5)],
        );
        b
    }

    #[test]
    fn columns_and_ragged_rows() {
        let b = sample();
        assert_eq!(b.len(), 3);
        assert_eq!(b.types(), &[EventTypeId(0), EventTypeId(1), EventTypeId(0)]);
        assert_eq!(b.times(), &[Timestamp(1), Timestamp(2), Timestamp(2)]);
        assert_eq!(b.attrs(0), &[Value::Int(7)]);
        assert_eq!(b.attrs(1), &[] as &[Value]);
        assert_eq!(b.attrs(2), &[Value::Int(8), Value::Float(0.5)]);
        assert_eq!(b.attr(2, AttrId(1)), Some(&Value::Float(0.5)));
        assert_eq!(b.attr(1, AttrId(0)), None);
        assert_eq!(b.attr_f64(2, AttrId(1)), Some(0.5));
    }

    #[test]
    fn event_roundtrip() {
        // the sample's bare row 1, plus a row of six values
        let mut b = sample();
        let wide: Vec<Value> = (0..5).map(Value::Int).chain([Value::str("w")]).collect();
        b.push(EventTypeId(2), Timestamp(3), &wide);
        let events = b.to_events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[2].attr_f64(AttrId(1)), Some(0.5));
        assert!(events[1].attrs.is_empty());
        assert_eq!(events[3].attrs, wide);
        let back = EventBatch::from_events(&events);
        assert_eq!(back, b);
        for (row, e) in events.iter().enumerate() {
            assert_eq!(&back.event(row), e, "row {row}");
        }
    }

    #[test]
    fn clear_retains_capacity() {
        let mut b = sample();
        let cap = (b.tys.capacity(), b.values.capacity(), b.offsets.capacity());
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.offsets, vec![0]);
        assert_eq!(
            (b.tys.capacity(), b.values.capacity(), b.offsets.capacity()),
            cap
        );
        b.push(EventTypeId(9), Timestamp(5), &[Value::Int(1)]);
        assert_eq!(b.attrs(0), &[Value::Int(1)]);
    }

    #[test]
    fn extend_from_range() {
        let b = sample();
        let mut out = EventBatch::new();
        out.extend_from_range(&b, 1, 3);
        assert_eq!(out.len(), 2);
        assert_eq!(out.ty(0), EventTypeId(1));
        assert_eq!(out.attrs(1), b.attrs(2));
        out.extend_from_range(&b, 3, 3);
        assert_eq!(out.len(), 2, "empty range is a no-op");
    }

    #[test]
    fn extend_from_range_equals_pushing_each_row() {
        // disordered times, ragged rows and a string value, appended after
        // rows already in the destination so the offsets are rebased
        let mut src = sample();
        src.push_from(EventTypeId(2), Timestamp(0), [Value::str("x")]);
        src.push_from(EventTypeId(1), Timestamp(9), [Value::Int(1)]);
        for lo in 0..=src.len() {
            for hi in lo..=src.len() {
                let mut bulk = sample();
                bulk.extend_from_range(&src, lo, hi);
                let mut rows = sample();
                for row in lo..hi {
                    rows.push(src.ty(row), src.time(row), src.attrs(row));
                }
                assert_eq!(bulk, rows, "rows {lo}..{hi}");
            }
        }
    }

    #[test]
    fn empty_batch() {
        let b = EventBatch::new();
        assert!(b.is_empty());
        assert_eq!(b.to_events(), Vec::<Event>::new());
        assert_eq!(EventBatch::from_events(&[]).len(), 0);
        assert_eq!(b.min_time(), None);
        assert_eq!(b.max_time(), None);
    }

    #[test]
    fn time_watermarks_track_disordered_pushes() {
        let mut b = EventBatch::new();
        b.push_from(EventTypeId(0), Timestamp(5), []);
        b.push_from(EventTypeId(0), Timestamp(2), []); // late row: allowed
        b.push_from(EventTypeId(0), Timestamp(9), []);
        assert_eq!(b.min_time(), Some(Timestamp(2)));
        assert_eq!(b.max_time(), Some(Timestamp(9)));
        b.clear();
        assert_eq!(b.min_time(), None);
        b.push_from(EventTypeId(0), Timestamp(4), []);
        assert_eq!(b.min_time(), Some(Timestamp(4)));
        assert_eq!(b.max_time(), Some(Timestamp(4)));
    }
}
