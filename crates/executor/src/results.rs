//! Query results: one aggregate per query, group, and window.
//!
//! Results are an **append-only columnar log**. A row is `(query, group
//! id, window start, value)`; the group id indexes a per-set key table, so
//! a [`GroupKey`] is stored once per group and never per result. An engine
//! emits one group's window close at a time, so consecutive rows share a
//! group id and window: the log stores each such **run** once (16 bytes)
//! and a row as its query and an 8-byte value (13 bytes). Columns grow in
//! fixed-size segments — no multi-MiB buffer is ever reallocated and
//! copied — and every hop from window close to the caller is an append or
//! a move: engines emit with the id they interned for a group,
//! [`ExecutorResults::merge`] moves whole segments and rewrites only the
//! runs' group ids (one key lookup per *distinct group*, one write per
//! run, none per row).
//!
//! The hash index behind [`ExecutorResults::get`] and
//! [`ExecutorResults::semantically_eq`] is built on first use and serves
//! tests and oracle comparisons; nothing on the feed path builds it.

use crate::checkpoint::{StateError, StateReader, StateWriter};
use sharon_query::aggregate::AggValue;
use sharon_query::QueryId;
use sharon_types::{FxHashMap, GroupKey, Timestamp};
use std::sync::OnceLock;

/// Rows per column segment. The first segment of a set grows by `Vec`
/// doubling up to this size (small sets stay small); later ones are
/// allocated whole.
const SEGMENT_ROWS: usize = 4096;

const KIND_COUNT: u8 = 0;
const KIND_NULL: u8 = 1;
const KIND_NUMBER: u8 = 2;
/// A count above `u64::MAX`: the lane indexes the segment's wide table.
/// Checkpoints never hold this kind (they write every count in 16 bytes).
const KIND_WIDE: u8 = 3;

/// Consecutive rows of one segment that share a group id and window.
#[derive(Debug, Clone, Copy)]
struct Run {
    group: u32,
    /// Rows in the run (at most [`SEGMENT_ROWS`]: a run never spans two
    /// segments).
    len: u32,
    window: Timestamp,
}

/// A slice of the log, stored column-wise: 13 bytes per row (`query`, an
/// 8-byte value lane, the value kind) plus 16 bytes per run.
#[derive(Debug, Clone, Default)]
struct Segment {
    query: Vec<u32>,
    /// A count that fits 64 bits, an `f64`'s bits, 0 for null, or an
    /// index into `wide`.
    value: Vec<u64>,
    kind: Vec<u8>,
    /// Starts at the previous segment's run count (plus a sixteenth) and
    /// grows by doubling; only [`ExecutorResults::reserve`] sizes it for
    /// one run per row.
    runs: Vec<Run>,
    /// Counts above `u64::MAX`, in row order.
    wide: Vec<u128>,
}

impl Segment {
    #[inline]
    fn len(&self) -> usize {
        self.query.len()
    }

    #[inline]
    fn push(&mut self, query: u32, group: u32, window: Timestamp, value: AggValue) {
        match self.runs.last_mut() {
            Some(run) if run.group == group && run.window == window => run.len += 1,
            _ => self.runs.push(Run {
                group,
                len: 1,
                window,
            }),
        }
        let (lane, kind) = match value {
            AggValue::Count(c) => match u64::try_from(c) {
                Ok(c) => (c, KIND_COUNT),
                Err(_) => (self.push_wide(c), KIND_WIDE),
            },
            AggValue::Number(None) => (0, KIND_NULL),
            AggValue::Number(Some(x)) => (x.to_bits(), KIND_NUMBER),
        };
        self.query.push(query);
        self.value.push(lane);
        self.kind.push(kind);
    }

    #[cold]
    fn push_wide(&mut self, count: u128) -> u64 {
        self.wide.push(count);
        (self.wide.len() - 1) as u64
    }

    /// Copy `other`'s rows and runs behind this segment's, re-indexing its
    /// wide lanes into this segment's table.
    fn append(&mut self, other: &Segment) {
        self.query.extend_from_slice(&other.query);
        self.kind.extend_from_slice(&other.kind);
        self.runs.extend_from_slice(&other.runs);
        if other.wide.is_empty() {
            self.value.extend_from_slice(&other.value);
        } else {
            let base = self.wide.len() as u64;
            let lanes = other.value.iter().zip(&other.kind);
            self.value.extend(
                lanes.map(|(&lane, &kind)| if kind == KIND_WIDE { base + lane } else { lane }),
            );
            self.wide.extend_from_slice(&other.wide);
        }
    }

    /// Grow the row columns to a whole segment's capacity.
    fn reserve_rows(&mut self) {
        let room = SEGMENT_ROWS - self.len();
        self.query.reserve_exact(room);
        self.value.reserve_exact(room);
        self.kind.reserve_exact(room);
    }

    /// Grow the row columns to a whole segment's capacity, and the runs
    /// to one per row of room: every further row fits without allocating.
    fn reserve_whole(&mut self) {
        self.runs.reserve_exact(SEGMENT_ROWS - self.len());
        self.reserve_rows();
    }

    #[inline]
    fn value_at(&self, row: usize) -> AggValue {
        let lane = self.value[row];
        match self.kind[row] {
            KIND_COUNT => AggValue::Count(lane.into()),
            KIND_NULL => AggValue::Number(None),
            KIND_NUMBER => AggValue::Number(Some(f64::from_bits(lane))),
            _ => AggValue::Count(self.wide[lane as usize]),
        }
    }

    /// The segment's rows, in order: `(query, group id, window, value)`.
    fn rows(&self) -> impl Iterator<Item = (QueryId, u32, Timestamp, AggValue)> + '_ {
        let mut end = 0;
        self.runs.iter().flat_map(move |run| {
            let start = end;
            end += run.len as usize;
            (start..end).map(move |i| {
                (
                    QueryId(self.query[i]),
                    run.group,
                    run.window,
                    self.value_at(i),
                )
            })
        })
    }
}

/// The on-demand lookup structure: built once per set on the first
/// [`ExecutorResults::get`] / [`ExecutorResults::iter`] /
/// [`ExecutorResults::semantically_eq`], dropped by the next mutation.
#[derive(Debug, Clone)]
struct Index {
    /// Group key → canonical group id (the first table slot holding the
    /// key; the table may hold a key twice, e.g. after a group restored
    /// from a checkpoint interned again).
    gid_of: FxHashMap<GroupKey, u32>,
    /// `(query, canonical group id, window)` → row number.
    row_of: FxHashMap<(u32, u32, Timestamp), usize>,
    /// The value column decoded, in row order: what the `&AggValue` of
    /// the by-reference accessors borrow from.
    values: Vec<AggValue>,
    /// Some `(query, group, window)` was emitted more than once.
    duplicates: bool,
}

/// All results produced by an executor run.
///
/// Only windows with at least one matched sequence appear (an absent entry
/// means "zero matches").
#[derive(Debug, Clone, Default)]
pub struct ExecutorResults {
    /// The log, in emission order; only the last segment accepts rows.
    segs: Vec<Segment>,
    /// Empty whole segments set aside by [`ExecutorResults::reserve`].
    spare: Vec<Segment>,
    len: usize,
    /// The key table: group id → key.
    keys: Vec<GroupKey>,
    /// Key → group id, present only once a by-key [`ExecutorResults::emit`]
    /// or a remapping [`ExecutorResults::merge`] needed it. Engines emit by
    /// id and never build it.
    by_key: Option<FxHashMap<GroupKey, u32>>,
    index: OnceLock<Index>,
}

fn push_key(keys: &mut Vec<GroupKey>, group: GroupKey) -> u32 {
    let gid = u32::try_from(keys.len()).expect("more than u32::MAX groups in one set");
    keys.push(group);
    gid
}

fn values_eq(a: &AggValue, b: &AggValue, eps: f64) -> bool {
    match (a, b) {
        (AggValue::Count(x), AggValue::Count(y)) => x == y,
        (AggValue::Number(None), AggValue::Number(None)) => true,
        (AggValue::Number(Some(x)), AggValue::Number(Some(y))) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= eps * scale
        }
        _ => false,
    }
}

impl ExecutorResults {
    /// Empty result set (allocates nothing until the first emit).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a result by group key. The log keeps every row: a second
    /// row for the same `(query, group, window)` — impossible in a correct
    /// run — makes [`ExecutorResults::semantically_eq`] fail.
    pub fn emit(
        &mut self,
        query: QueryId,
        group: GroupKey,
        window_start: Timestamp,
        value: AggValue,
    ) {
        let gid = self.intern(&group);
        self.emit_interned(query, gid, window_start, value);
    }

    /// Record a result for a group id handed out by this set's
    /// [`ExecutorResults::add_group`] or [`ExecutorResults::intern`]: one
    /// append per row column, no key clone, no hash. A row with the
    /// previous row's group id and window extends its run; any other row
    /// opens one.
    #[inline]
    pub fn emit_interned(
        &mut self,
        query: QueryId,
        gid: u32,
        window_start: Timestamp,
        value: AggValue,
    ) {
        debug_assert!((gid as usize) < self.keys.len(), "foreign group id");
        self.index.take();
        if self.segs.last().is_none_or(|s| s.len() == SEGMENT_ROWS) {
            self.open_segment();
        }
        let seg = self.segs.last_mut().expect("a segment with room is open");
        seg.push(query.0, gid, window_start, value);
        self.len += 1;
    }

    #[cold]
    fn open_segment(&mut self) {
        let seg = self.spare.pop().unwrap_or_else(|| {
            let mut seg = Segment::default();
            if let Some(last) = self.segs.last() {
                seg.reserve_rows();
                // a log's run length barely moves from one segment to the
                // next: start at the last one's run count and a sixteenth
                // more, so the runs seldom double and waste little
                let runs = last.runs.len();
                seg.runs.reserve_exact((runs + runs / 16).min(SEGMENT_ROWS));
            }
            seg
        });
        self.segs.push(seg);
    }

    /// Append `group` to the key table and return its id, without a hash
    /// lookup: the caller (an engine, once per group and result epoch)
    /// vouches that it does not hold an id for this key already. A key
    /// registered twice costs a table slot, nothing else.
    pub fn add_group(&mut self, group: GroupKey) -> u32 {
        if self.by_key.is_some() {
            return self.intern(&group);
        }
        push_key(&mut self.keys, group)
    }

    /// The id of `group`, registering the key on first sight. Builds the
    /// key → id map on first use.
    pub fn intern(&mut self, group: &GroupKey) -> u32 {
        let keys = &self.keys;
        let by_key = self.by_key.get_or_insert_with(|| {
            let mut map = FxHashMap::default();
            map.reserve(keys.len());
            for (gid, key) in keys.iter().enumerate() {
                map.entry(key.clone()).or_insert(gid as u32);
            }
            map
        });
        if let Some(&gid) = by_key.get(group) {
            return gid;
        }
        let gid = push_key(&mut self.keys, group.clone());
        by_key.insert(group.clone(), gid);
        gid
    }

    /// The key behind a group id of this set.
    #[inline]
    pub fn group(&self, gid: u32) -> &GroupKey {
        &self.keys[gid as usize]
    }

    /// Size of the key table (group ids are `0..group_slots()`).
    pub fn group_slots(&self) -> usize {
        self.keys.len()
    }

    /// Reserve column capacity for at least `additional` further rows (and
    /// as many runs), so a steady-state emission phase performs no
    /// allocation.
    pub fn reserve(&mut self, additional: usize) {
        let mut room = self.spare.len() * SEGMENT_ROWS;
        if let Some(last) = self.segs.last_mut() {
            last.reserve_whole();
            room += SEGMENT_ROWS - last.len();
        }
        let whole = additional.saturating_sub(room).div_ceil(SEGMENT_ROWS);
        self.spare.extend((0..whole).map(|_| {
            let mut seg = Segment::default();
            seg.reserve_whole();
            seg
        }));
        self.segs.reserve(self.spare.len());
    }

    /// Merge another result set into this one. Into an empty set this is a
    /// move. Otherwise `other`'s group ids are translated once per distinct
    /// group, its runs' group ids are rewritten in place, and its segments
    /// are moved over (a short one is copied into the room the last
    /// segment has left, so short merges do not strand capacity).
    pub fn merge(&mut self, other: ExecutorResults) {
        if other.len == 0 {
            return;
        }
        if self.len == 0 && self.keys.is_empty() {
            *self = other;
            return;
        }
        self.index.take();
        let remap: Vec<u32> = other.keys.iter().map(|key| self.intern(key)).collect();
        for mut seg in other.segs {
            for run in &mut seg.runs {
                run.group = remap[run.group as usize];
            }
            match self.segs.last_mut() {
                Some(last) if last.len() + seg.len() <= SEGMENT_ROWS => last.append(&seg),
                _ => self.segs.push(seg),
            }
        }
        self.len += other.len;
    }

    /// Every row by value, in emission order: `(query, group id, window
    /// start, value)`. Resolve ids with [`ExecutorResults::group`]. Unlike
    /// [`ExecutorResults::iter`] this builds nothing.
    pub fn rows(&self) -> impl Iterator<Item = (QueryId, u32, Timestamp, AggValue)> + '_ {
        self.segs.iter().flat_map(Segment::rows)
    }

    fn index(&self) -> &Index {
        self.index.get_or_init(|| {
            let mut gid_of: FxHashMap<GroupKey, u32> = FxHashMap::default();
            let canonical: Vec<u32> = (0u32..)
                .zip(&self.keys)
                .map(|(gid, key)| *gid_of.entry(key.clone()).or_insert(gid))
                .collect();
            let mut row_of = FxHashMap::default();
            row_of.reserve(self.len);
            let mut values = Vec::with_capacity(self.len);
            let mut duplicates = false;
            for (query, gid, window, value) in self.rows() {
                let key = (query.0, canonical[gid as usize], window);
                duplicates |= row_of.insert(key, values.len()).is_some();
                values.push(value);
            }
            Index {
                gid_of,
                row_of,
                values,
                duplicates,
            }
        })
    }

    /// The result for `(query, group, window_start)`, if any sequence
    /// matched.
    pub fn get(
        &self,
        query: QueryId,
        group: &GroupKey,
        window_start: Timestamp,
    ) -> Option<&AggValue> {
        let index = self.index();
        let gid = *index.gid_of.get(group)?;
        let row = *index.row_of.get(&(query.0, gid, window_start))?;
        Some(&index.values[row])
    }

    /// All results of one query, in emission order.
    pub fn of_query(
        &self,
        query: QueryId,
    ) -> impl Iterator<Item = (&GroupKey, Timestamp, &AggValue)> {
        self.iter()
            .filter(move |row| row.0 == query)
            .map(|(_, g, w, v)| (g, w, v))
    }

    /// Every result in the set, in emission order: `(query, group,
    /// window_start, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (QueryId, &GroupKey, Timestamp, &AggValue)> {
        self.rows()
            .zip(&self.index().values)
            .map(|((q, gid, w, _), v)| (q, self.group(gid), w, v))
    }

    /// All results of one query sorted by (group display, window start) —
    /// convenient for deterministic test assertions and printing.
    pub fn of_query_sorted(&self, query: QueryId) -> Vec<(GroupKey, Timestamp, AggValue)> {
        let mut v: Vec<(GroupKey, Timestamp, AggValue)> = self
            .rows()
            .filter(|row| row.0 == query)
            .map(|(_, gid, w, val)| (self.group(gid).clone(), w, val))
            .collect();
        v.sort_by_cached_key(|a| (a.0.to_string(), a.1));
        v
    }

    /// Total number of `(query, group, window)` rows emitted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of all counts of one query across groups and windows — a quick
    /// scalar fingerprint used by tests and benchmarks. Saturates at
    /// `u128::MAX`, as a count cell does.
    pub fn total_count(&self, query: QueryId) -> u128 {
        self.rows()
            .filter(|row| row.0 == query)
            .filter_map(|row| row.3.as_count())
            .fold(0, u128::saturating_add)
    }

    /// Compare two result sets for semantic equality: same keys, counts
    /// exactly equal, numeric values equal within `eps` relative error. A
    /// set holding two rows for one `(query, group, window)` equals
    /// nothing, itself included.
    pub fn semantically_eq(&self, other: &ExecutorResults, eps: f64) -> bool {
        let (a, b) = (self.index(), other.index());
        debug_assert!(
            !a.duplicates && !b.duplicates,
            "a (query, group, window) result was emitted twice"
        );
        if a.duplicates || b.duplicates || self.len != other.len {
            return false;
        }
        // equal sizes and no duplicates: finding an equal row in `other`
        // for every row of `self` makes the two sets the same
        let to_other: Vec<Option<u32>> = self
            .keys
            .iter()
            .map(|key| b.gid_of.get(key).copied())
            .collect();
        self.rows().all(|(query, gid, window, value)| {
            to_other[gid as usize]
                .and_then(|theirs| b.row_of.get(&(query.0, theirs, window)))
                .is_some_and(|&row| values_eq(&value, &b.values[row], eps))
        })
    }

    /// Serialize the full result set into a checkpoint segment (the
    /// engines hold emitted results until `finish`, so a resume must carry
    /// them to reproduce an uninterrupted run's output exactly): the key
    /// table once, then one record per row: query, group id, window, kind
    /// and the value as two `u64` halves of a `u128` (a count in full, an
    /// `f64`'s bits in the low half). Runs are not written; `load_state`
    /// rebuilds them.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.seq_len(self.keys.len());
        for key in &self.keys {
            w.group_key(key);
        }
        w.seq_len(self.len);
        for (query, gid, window, value) in self.rows() {
            let (kind, lane) = match value {
                AggValue::Count(c) => (KIND_COUNT, c),
                AggValue::Number(None) => (KIND_NULL, 0),
                AggValue::Number(Some(x)) => (KIND_NUMBER, x.to_bits().into()),
            };
            w.u32(query.0);
            w.u32(gid);
            w.time(window);
            w.u8(kind);
            w.u64(lane as u64);
            w.u64((lane >> 64) as u64);
        }
    }

    /// Decode a result set written by [`ExecutorResults::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let n_keys = r.seq_len()?;
        let mut out = ExecutorResults::new();
        out.keys.reserve(n_keys);
        for _ in 0..n_keys {
            out.keys.push(r.group_key()?);
        }
        let n_rows = r.seq_len()?;
        for _ in 0..n_rows {
            let query = QueryId(r.u32()?);
            let gid = r.u32()?;
            if gid as usize >= n_keys {
                return Err(StateError::Corrupt("result row group id"));
            }
            let window = r.time()?;
            let kind = r.u8()?;
            if kind > KIND_NUMBER {
                return Err(StateError::Corrupt("result row value kind"));
            }
            let (low, high) = (r.u64()?, r.u64()?);
            let lane = u128::from(low) | u128::from(high) << 64;
            let value = match kind {
                KIND_COUNT => AggValue::Count(lane),
                KIND_NULL => AggValue::Number(None),
                _ => AggValue::Number(Some(f64::from_bits(lane as u64))),
            };
            out.emit_interned(query, gid, window, value);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn key(i: i64) -> GroupKey {
        GroupKey::One(sharon_types::Value::Int(i))
    }

    #[test]
    fn emit_and_get() {
        let mut r = ExecutorResults::new();
        r.emit(QueryId(0), key(1), Timestamp(0), AggValue::Count(3));
        r.emit(QueryId(0), key(1), Timestamp(60), AggValue::Count(5));
        r.emit(
            QueryId(1),
            GroupKey::Global,
            Timestamp(0),
            AggValue::Number(Some(2.5)),
        );
        assert_eq!(r.len(), 3);
        assert_eq!(
            r.get(QueryId(0), &key(1), Timestamp(60)),
            Some(&AggValue::Count(5))
        );
        assert_eq!(r.get(QueryId(0), &key(2), Timestamp(60)), None);
        assert_eq!(r.total_count(QueryId(0)), 8);
        assert!(!r.is_empty());
        // a mutation after a lookup drops the index; the next lookup sees it
        r.emit(QueryId(0), key(2), Timestamp(60), AggValue::Count(7));
        assert_eq!(
            r.get(QueryId(0), &key(2), Timestamp(60)),
            Some(&AggValue::Count(7))
        );
    }

    #[test]
    fn values_survive_the_8_byte_lane_and_wide_table() {
        let values = [
            AggValue::Count(0),
            AggValue::Count(u128::MAX),
            AggValue::Count(u64::MAX.into()),
            AggValue::Count(1 << 64),
            AggValue::Number(None),
            AggValue::Number(Some(-0.0)),
            AggValue::Number(Some(f64::INFINITY)),
            AggValue::Number(Some(1.5e-300)),
        ];
        let mut seg = Segment::default();
        for (q, v) in (0..).zip(values) {
            seg.push(q, 0, Timestamp(0), v);
        }
        assert_eq!(seg.wide, [u128::MAX, 1 << 64], "only counts past 64 bits");
        let read = |seg: &Segment| seg.rows().map(|row| row.3).collect::<Vec<_>>();
        assert_eq!(read(&seg), values);
        // appended behind a segment with a wide count of its own, the wide
        // lanes point past that segment's table
        let mut front = Segment::default();
        front.push(9, 1, Timestamp(4), AggValue::Count(u128::MAX - 1));
        front.append(&seg);
        assert_eq!(front.wide.len(), 3);
        assert_eq!(read(&front)[1..], values);
        assert_eq!(read(&front)[0], AggValue::Count(u128::MAX - 1));
    }

    #[test]
    fn a_window_close_is_one_run() {
        // an engine's close: every query of one group and window in a row
        let mut r = ExecutorResults::new();
        let gids = [r.add_group(key(1)), r.add_group(key(2))];
        for w in 0..SEGMENT_ROWS as u64 / 4 {
            for &gid in &gids {
                for q in 0..5 {
                    r.emit_interned(QueryId(q), gid, Timestamp(w), AggValue::Count(q.into()));
                }
            }
        }
        // 10 240 rows: two whole segments and a tail; a run never spans two
        assert_eq!(r.segs.len(), 3);
        let runs: Vec<usize> = r.segs.iter().map(|s| s.runs.len()).collect();
        assert_eq!(runs, [820, 820, 410]);
        // a later segment's runs start at the previous count and a
        // sixteenth more: at an even run length they never double
        assert!(r.segs[1..]
            .iter()
            .all(|s| s.runs.capacity() == 820 + 820 / 16));
        let lens = |s: &Segment| s.runs.iter().map(|run| run.len as usize).sum::<usize>();
        assert!(r.segs.iter().all(|s| lens(s) == s.len()));
        assert_eq!(r.rows().count(), r.len());
        assert!(r
            .rows()
            .enumerate()
            .all(|(i, (q, gid, w, v))| q.0 == i as u32 % 5
                && gid == gids[i / 5 % 2]
                && w.millis() == (i / 10) as u64
                && v == AggValue::Count((i % 5) as u128)));
        // a remapping merge rewrites one group id per run
        let mut into = ExecutorResults::new();
        into.emit(QueryId(7), key(2), Timestamp(0), AggValue::Count(1));
        into.merge(r.clone());
        assert_eq!(into.len(), r.len() + 1);
        let moved = &into.segs[1].runs;
        assert_eq!((moved[0].group, moved[0].len), (1, 5), "key 1 is id 1 here");
        assert_eq!(moved[1].group, 0, "key 2 is id 0 here");
        for (q, g, w, v) in r.iter() {
            assert_eq!(into.get(q, g, w), Some(v));
        }
    }

    #[test]
    fn total_count_saturates() {
        let mut r = ExecutorResults::new();
        r.emit(QueryId(0), key(1), Timestamp(0), AggValue::Count(u128::MAX));
        r.emit(QueryId(0), key(1), Timestamp(4), AggValue::Count(u128::MAX));
        r.emit(QueryId(1), key(1), Timestamp(0), AggValue::Count(u128::MAX));
        r.emit(
            QueryId(1),
            key(2),
            Timestamp(0),
            AggValue::Number(Some(1.0)),
        );
        assert_eq!(r.total_count(QueryId(0)), u128::MAX);
        assert_eq!(r.total_count(QueryId(1)), u128::MAX);
        assert_eq!(r.total_count(QueryId(2)), 0);
    }

    #[test]
    fn sorted_accessor_is_deterministic() {
        let mut r = ExecutorResults::new();
        r.emit(QueryId(0), key(2), Timestamp(0), AggValue::Count(1));
        r.emit(QueryId(0), key(1), Timestamp(60), AggValue::Count(2));
        r.emit(QueryId(0), key(1), Timestamp(0), AggValue::Count(3));
        let sorted = r.of_query_sorted(QueryId(0));
        assert_eq!(sorted[0], (key(1), Timestamp(0), AggValue::Count(3)));
        assert_eq!(sorted[1], (key(1), Timestamp(60), AggValue::Count(2)));
        assert_eq!(sorted[2], (key(2), Timestamp(0), AggValue::Count(1)));
    }

    #[test]
    fn merge() {
        let mut a = ExecutorResults::new();
        a.emit(QueryId(0), key(1), Timestamp(0), AggValue::Count(1));
        let mut b = ExecutorResults::new();
        b.emit(QueryId(1), key(1), Timestamp(0), AggValue::Count(2));
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.group_slots(), 1, "the shared key is stored once");
    }

    #[test]
    fn merge_into_an_empty_set_moves_the_columns() {
        let mut src = ExecutorResults::new();
        let gid = src.add_group(key(1));
        for w in 0..10 {
            src.emit_interned(QueryId(0), gid, Timestamp(w), AggValue::Count(1));
        }
        let (column, runs) = (src.segs[0].value.as_ptr(), src.segs[0].runs.as_ptr());
        let mut dst = ExecutorResults::new();
        dst.merge(src);
        assert_eq!(dst.segs[0].value.as_ptr(), column, "moved, not copied");
        assert_eq!(dst.segs[0].runs.as_ptr(), runs);
        assert!(dst.by_key.is_none(), "a move needs no key lookup");
        assert_eq!(dst.len(), 10);
    }

    /// A set of `n` rows emitted the way an engine does: by interned id,
    /// `groups` groups round-robin, windows unique per group.
    fn engine_like(query: u32, first_group: i64, groups: i64, n: usize) -> ExecutorResults {
        let mut r = ExecutorResults::new();
        let gids: Vec<u32> = (0..groups)
            .map(|g| r.add_group(key(first_group + g)))
            .collect();
        for i in 0..n {
            r.emit_interned(
                QueryId(query),
                gids[i % gids.len()],
                Timestamp(i as u64),
                AggValue::Count(i as u128),
            );
        }
        r
    }

    #[test]
    fn segments_fill_move_and_remap_without_losing_a_row() {
        let a = engine_like(0, 0, 7, 2 * SEGMENT_ROWS + 100);
        assert_eq!(a.segs.len(), 3);
        assert!(a.by_key.is_none(), "emission by id builds no key map");
        let b = engine_like(1, 3, 7, 50); // groups 3..10 overlap a's 0..7
        let c = engine_like(2, 100, 1, SEGMENT_ROWS + 1);
        let mut all = ExecutorResults::new();
        all.merge(a.clone());
        all.merge(b.clone());
        all.merge(c.clone());
        assert_eq!(all.len(), a.len() + b.len() + c.len());
        assert_eq!(all.group_slots(), 7 + 3 + 1, "keys are stored once");
        // b's 50 rows were copied into the room a's last segment had left;
        // c's full segment moved, its one-row tail landed in a new one
        assert_eq!(all.segs.len(), 5);
        for part in [&a, &b, &c] {
            for (q, g, w, v) in part.iter() {
                assert_eq!(all.get(q, g, w), Some(v));
            }
        }
        // the same rows merged in another order are the same set
        let mut other = c;
        other.merge(b);
        other.merge(a);
        assert!(all.semantically_eq(&other, 0.0));
    }

    #[test]
    fn reserve_sets_whole_segments_aside() {
        let mut r = engine_like(0, 0, 1, 10);
        r.reserve(2 * SEGMENT_ROWS);
        let reserved: usize = r.segs[0].value.capacity() - r.segs[0].len()
            + r.spare.iter().map(|s| s.value.capacity()).sum::<usize>();
        assert!(reserved >= 2 * SEGMENT_ROWS);
        let (segs_cap, first) = (r.segs.capacity(), r.segs[0].kind.as_ptr());
        let first_runs = r.segs[0].runs.as_ptr();
        // a window per row: the worst case, one run per row
        for w in 0..2 * SEGMENT_ROWS as u64 {
            r.emit_interned(QueryId(0), 0, Timestamp(100 + w), AggValue::Count(1));
        }
        assert_eq!(r.segs.capacity(), segs_cap);
        assert_eq!(r.segs[0].kind.as_ptr(), first, "no column was reallocated");
        assert_eq!(r.segs[0].runs.as_ptr(), first_runs);
        assert!(r.segs.iter().all(|s| s.value.capacity() == SEGMENT_ROWS));
        assert!(r.segs.iter().all(|s| s.runs.capacity() == SEGMENT_ROWS));
    }

    #[test]
    fn a_key_registered_twice_is_one_group() {
        // an engine re-interns a group it paged out and back in
        let mut r = ExecutorResults::new();
        let first = r.add_group(key(1));
        r.emit_interned(QueryId(0), first, Timestamp(0), AggValue::Count(1));
        let second = r.add_group(key(1));
        assert_ne!(first, second);
        r.emit_interned(QueryId(0), second, Timestamp(4), AggValue::Count(2));
        assert_eq!(
            r.get(QueryId(0), &key(1), Timestamp(0)),
            Some(&AggValue::Count(1))
        );
        assert_eq!(
            r.get(QueryId(0), &key(1), Timestamp(4)),
            Some(&AggValue::Count(2))
        );
        let mut by_key = ExecutorResults::new();
        by_key.emit(QueryId(0), key(1), Timestamp(4), AggValue::Count(2));
        by_key.emit(QueryId(0), key(1), Timestamp(0), AggValue::Count(1));
        assert!(r.semantically_eq(&by_key, 0.0));
        assert!(by_key.semantically_eq(&r, 0.0));
        // merging collapses the two slots
        by_key.merge(r);
        assert_eq!(by_key.group_slots(), 1);
    }

    #[test]
    fn a_duplicate_row_is_kept_and_fails_equality() {
        let mut r = ExecutorResults::new();
        r.emit(QueryId(0), key(1), Timestamp(0), AggValue::Count(1));
        let clean = r.clone();
        r.emit(QueryId(0), key(1), Timestamp(0), AggValue::Count(1));
        assert_eq!(r.len(), 2, "the log keeps both rows");
        assert!(r.index().duplicates);
        assert!(!clean.index().duplicates);
        // debug builds stop at the assertion, release builds answer false
        let eq = std::panic::catch_unwind(|| r.semantically_eq(&r, 0.0));
        assert!(
            !eq.unwrap_or(false),
            "a set with a duplicate equals nothing"
        );
        // the same through a merge of overlapping sets
        let mut merged = clean.clone();
        merged.merge(clean);
        assert!(merged.index().duplicates);
    }

    #[test]
    fn semantic_equality() {
        let mut a = ExecutorResults::new();
        a.emit(
            QueryId(0),
            key(1),
            Timestamp(0),
            AggValue::Number(Some(1.0)),
        );
        let mut b = ExecutorResults::new();
        b.emit(
            QueryId(0),
            key(1),
            Timestamp(0),
            AggValue::Number(Some(1.0 + 1e-12)),
        );
        assert!(a.semantically_eq(&b, 1e-9));
        let mut c = ExecutorResults::new();
        c.emit(
            QueryId(0),
            key(1),
            Timestamp(0),
            AggValue::Number(Some(2.0)),
        );
        assert!(!a.semantically_eq(&c, 1e-9));
        let mut d = ExecutorResults::new();
        d.emit(
            QueryId(0),
            key(2),
            Timestamp(0),
            AggValue::Number(Some(1.0)),
        );
        assert!(!a.semantically_eq(&d, 1e-9));
        // differing key sets
        let e = ExecutorResults::new();
        assert!(!a.semantically_eq(&e, 1e-9));
        assert!(e.semantically_eq(&ExecutorResults::new(), 1e-9));
        // count vs number mismatch
        let mut f = ExecutorResults::new();
        f.emit(QueryId(0), key(1), Timestamp(0), AggValue::Count(1));
        assert!(!a.semantically_eq(&f, 1e-9));
        // same group and window under another query
        let mut g = ExecutorResults::new();
        g.emit(
            QueryId(1),
            key(1),
            Timestamp(0),
            AggValue::Number(Some(1.0)),
        );
        assert!(!a.semantically_eq(&g, 1e-9));
    }

    #[test]
    fn state_round_trips() {
        let mut r = ExecutorResults::new();
        r.emit(QueryId(0), key(1), Timestamp(0), AggValue::Count(3));
        r.emit(QueryId(0), key(1), Timestamp(60), AggValue::Count(5));
        r.emit(
            QueryId(2),
            GroupKey::Global,
            Timestamp(7),
            AggValue::Number(None),
        );
        r.emit(
            QueryId(2),
            key(-4),
            Timestamp(9),
            AggValue::Number(Some(2.5)),
        );
        let mut w = crate::checkpoint::StateWriter::new();
        r.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut rd = crate::checkpoint::StateReader::new(&bytes);
        let mut got = ExecutorResults::load_state(&mut rd).unwrap();
        assert!(rd.is_exhausted());
        assert!(got.semantically_eq(&r, 0.0));
        assert_eq!(got.group_slots(), 3, "a key is written once, not per row");
        // a restored set keeps accepting rows by key and by id
        got.emit(QueryId(0), key(1), Timestamp(120), AggValue::Count(1));
        assert_eq!(got.group_slots(), 3);
    }

    /// The checkpoint image of a count, a count past 64 bits, a null and a
    /// number: one 16-byte value record per row, whatever the log's layout.
    #[rustfmt::skip]
    const GOLDEN: &[u8] = &[
        2, 0, 0, 0, 0, 0, 0, 0, // two keys
        1, 0, 1, 0, 0, 0, 0, 0, 0, 0, // key(1)
        0, // global
        4, 0, 0, 0, 0, 0, 0, 0, // four rows
        0, 0, 0, 0, 0, 0, 0, 0, 60, 0, 0, 0, 0, 0, 0, 0, KIND_COUNT,
        3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        1, 0, 0, 0, 0, 0, 0, 0, 60, 0, 0, 0, 0, 0, 0, 0, KIND_COUNT,
        0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
        2, 0, 0, 0, 1, 0, 0, 0, 120, 0, 0, 0, 0, 0, 0, 0, KIND_NULL,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        3, 0, 0, 0, 1, 0, 0, 0, 120, 0, 0, 0, 0, 0, 0, 0, KIND_NUMBER,
        0, 0, 0, 0, 0, 0, 0x04, 0x40, 0, 0, 0, 0, 0, 0, 0, 0,
    ];

    #[test]
    fn state_bytes_are_pinned() {
        let mut r = ExecutorResults::new();
        r.emit(QueryId(0), key(1), Timestamp(60), AggValue::Count(3));
        r.emit(QueryId(1), key(1), Timestamp(60), AggValue::Count(1 << 64));
        r.emit(
            QueryId(2),
            GroupKey::Global,
            Timestamp(120),
            AggValue::Number(None),
        );
        r.emit(
            QueryId(3),
            GroupKey::Global,
            Timestamp(120),
            AggValue::Number(Some(2.5)),
        );
        assert_eq!(r.segs[0].runs.len(), 2);
        let mut w = crate::checkpoint::StateWriter::new();
        r.save_state(&mut w);
        assert_eq!(w.into_bytes(), GOLDEN);
        let mut rd = crate::checkpoint::StateReader::new(GOLDEN);
        let back = ExecutorResults::load_state(&mut rd).unwrap();
        assert!(rd.is_exhausted());
        assert_eq!(
            back.rows().collect::<Vec<_>>(),
            r.rows().collect::<Vec<_>>()
        );
        assert_eq!(back.segs[0].runs.len(), 2, "loading rebuilds the runs");
        assert_eq!(back.segs[0].wide, [1 << 64]);
    }

    #[test]
    fn load_state_rejects_rows_that_point_nowhere() {
        let image = |gid: u32, kind: u8| {
            let mut w = crate::checkpoint::StateWriter::new();
            w.seq_len(1);
            w.group_key(&key(1));
            w.seq_len(1);
            w.u32(0);
            w.u32(gid);
            w.time(Timestamp(0));
            w.u8(kind);
            w.u64(1);
            w.u64(0);
            w.into_bytes()
        };
        let load = |bytes: &[u8]| {
            ExecutorResults::load_state(&mut crate::checkpoint::StateReader::new(bytes))
        };
        assert!(load(&image(0, KIND_COUNT)).is_ok());
        assert!(
            load(&image(1, KIND_COUNT)).is_err(),
            "group id past the table"
        );
        assert!(load(&image(0, 3)).is_err(), "unknown value kind");
        let good = image(0, KIND_COUNT);
        assert!(load(&good[..good.len() - 1]).is_err(), "truncated row");
    }

    // ---- model test -----------------------------------------------------

    /// `(query, group (-1 = global), window)`.
    type ModelKey = (u32, i64, u64);

    fn model_group(g: i64) -> GroupKey {
        if g < 0 {
            GroupKey::Global
        } else {
            key(g)
        }
    }

    fn value_of(n: u64) -> AggValue {
        match n % 3 {
            0 => AggValue::Count(n as u128),
            1 => AggValue::Number(Some(n as f64 / 4.0)),
            _ => AggValue::Number(None),
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// By-key emit into set `.0`.
        Emit(usize, ModelKey, u64),
        /// Engine-style emit: a fresh `add_group` per call, then by id.
        EmitById(usize, ModelKey, u64),
        /// Emit again under the key of an earlier row of the set.
        Duplicate(usize, usize),
        /// Move set `.0` into set `.1`.
        Merge(usize, usize),
        /// Take the set out (as `take_results` does) and merge it back in
        /// behind `.1` fresh rows.
        TakeAndRemerge(usize, usize),
        Reserve(usize, usize),
        /// An engine's window close: one `add_group`, then queries
        /// `0..=.2` by id under one group and window.
        Run(usize, ModelKey, usize, u64),
        /// A count at or past the 64-bit lane: `EXTREME[.2]`.
        Extreme(usize, ModelKey, usize),
        /// Engine-style runs of `.2` queries over fresh windows until the
        /// set's open segment is full, then `.3` rows more. The first burst
        /// of a case runs; later ones are no-ops (a checked row costs).
        Burst(usize, i64, usize, usize),
    }

    const EXTREME: [u128; 3] = [u64::MAX as u128, u64::MAX as u128 + 1, u128::MAX];

    /// Queries an op can emit under: `0..QUERIES`.
    const QUERIES: u32 = 8;

    const SETS: usize = 3;

    fn model_key() -> impl Strategy<Value = ModelKey> {
        (0u32..3, -1i64..5, 0u64..2000)
    }

    fn op() -> impl Strategy<Value = Op> {
        let set = || 0usize..SETS;
        prop_oneof![
            (set(), model_key(), 0u64..100).prop_map(|(s, k, v)| Op::Emit(s, k, v)),
            (set(), model_key(), 0u64..100).prop_map(|(s, k, v)| Op::Emit(s, k, v)),
            (set(), model_key(), 0u64..100).prop_map(|(s, k, v)| Op::EmitById(s, k, v)),
            (set(), model_key(), 0u64..100).prop_map(|(s, k, v)| Op::EmitById(s, k, v)),
            (set(), 0usize..64).prop_map(|(s, i)| Op::Duplicate(s, i)),
            (set(), set()).prop_map(|(a, b)| Op::Merge(a, b)),
            (set(), 0usize..4).prop_map(|(s, n)| Op::TakeAndRemerge(s, n)),
            (set(), 0usize..3 * SEGMENT_ROWS).prop_map(|(s, n)| Op::Reserve(s, n)),
            (set(), model_key(), 0usize..8, 0u64..100).prop_map(|(s, k, n, v)| Op::Run(s, k, n, v)),
            (set(), model_key(), 0usize..8, 0u64..100).prop_map(|(s, k, n, v)| Op::Run(s, k, n, v)),
            (set(), model_key(), 0usize..3).prop_map(|(s, k, i)| Op::Extreme(s, k, i)),
            (set(), -1i64..5, 1usize..=8, 1usize..64)
                .prop_map(|(s, g, r, n)| Op::Burst(s, g, r, n)),
        ]
    }

    /// The plain model of one set: every emitted row, in order.
    type Model = Vec<(ModelKey, AggValue)>;

    fn check(set: &ExecutorResults, model: &Model) -> Result<(), TestCaseError> {
        prop_assert_eq!(set.len(), model.len());
        prop_assert_eq!(set.is_empty(), model.is_empty());
        // the layout: runs partition each segment's rows; wide lanes index
        // the segment's own table
        for seg in &set.segs {
            prop_assert!(seg.len() <= SEGMENT_ROWS);
            prop_assert!(seg.runs.iter().all(|run| run.len > 0));
            let run_rows: usize = seg.runs.iter().map(|run| run.len as usize).sum();
            prop_assert_eq!(run_rows, seg.len());
            let wide = seg.kind.iter().filter(|&&k| k == KIND_WIDE).count();
            prop_assert_eq!(wide, seg.wide.len());
        }
        let mut by_key: BTreeMap<ModelKey, Vec<AggValue>> = BTreeMap::new();
        for (k, v) in model {
            by_key.entry(*k).or_default().push(*v);
        }
        let duplicates = by_key.values().any(|vs| vs.len() > 1);
        prop_assert_eq!(set.index().duplicates, duplicates);
        // iter and rows: the same multiset as the model
        let show = |q: u32, g: &GroupKey, w: u64, v: &AggValue| {
            let g = match g {
                GroupKey::Global => -1,
                GroupKey::One(sharon_types::Value::Int(g)) => *g,
                other => panic!("not a model group: {other}"),
            };
            let v = match v {
                AggValue::Count(c) => (0, *c),
                AggValue::Number(x) => (1, x.map_or(u128::MAX, |x| x.to_bits().into())),
            };
            (q, g, w, v)
        };
        let mut want: Vec<_> = model
            .iter()
            .map(|((q, g, w), v)| show(*q, &model_group(*g), *w, v))
            .collect();
        let mut iter: Vec<_> = set
            .iter()
            .map(|(q, g, w, v)| show(q.0, g, w.millis(), v))
            .collect();
        let mut rows: Vec<_> = set
            .rows()
            .map(|(q, gid, w, v)| show(q.0, set.group(gid), w.millis(), &v))
            .collect();
        want.sort();
        iter.sort();
        rows.sort();
        prop_assert_eq!(&iter, &want);
        prop_assert_eq!(&rows, &want);
        // get: a value the model holds under that key; nothing otherwise
        for ((q, g, w), vs) in &by_key {
            let got = set.get(QueryId(*q), &model_group(*g), Timestamp(*w));
            prop_assert!(got.is_some_and(|v| vs.contains(v)), "{:?}", (q, g, w));
            prop_assert!(set
                .get(QueryId(*q + QUERIES), &model_group(*g), Timestamp(*w))
                .is_none());
        }
        let mut per_query = [(0, 0u128); QUERIES as usize];
        for ((q, _, _), v) in model {
            let (n, total) = &mut per_query[*q as usize];
            *n += 1;
            *total = total.saturating_add(v.as_count().unwrap_or(0));
        }
        for (q, (n, total)) in (0..).zip(per_query) {
            prop_assert_eq!(set.of_query(QueryId(q)).count(), n);
            prop_assert_eq!(set.of_query_sorted(QueryId(q)).len(), n);
            prop_assert_eq!(set.total_count(QueryId(q)), total);
        }
        if !duplicates {
            // rebuilt by key, in reverse: equal; one value off: not equal
            let mut rebuilt = ExecutorResults::new();
            for ((q, g, w), v) in model.iter().rev() {
                rebuilt.emit(QueryId(*q), model_group(*g), Timestamp(*w), *v);
            }
            prop_assert!(set.semantically_eq(&rebuilt, 0.0));
            prop_assert!(rebuilt.semantically_eq(set, 0.0));
            rebuilt.emit(
                QueryId(9),
                GroupKey::Global,
                Timestamp(0),
                AggValue::Count(0),
            );
            prop_assert!(!set.semantically_eq(&rebuilt, 0.0));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        #[test]
        fn log_agrees_with_a_plain_model(ops in prop::collection::vec(op(), 0..=60)) {
            let mut sets: Vec<ExecutorResults> = vec![ExecutorResults::new(); SETS];
            let mut models: Vec<Model> = vec![Model::new(); SETS];
            // burst windows: past every other op's, never a duplicate
            let mut fresh = 1_000_000u64;
            let mut burst = true;
            for op in ops {
                match op {
                    Op::Emit(s, k, n) => {
                        sets[s].emit(QueryId(k.0), model_group(k.1), Timestamp(k.2), value_of(n));
                        models[s].push((k, value_of(n)));
                    }
                    Op::EmitById(s, k, n) => {
                        let gid = sets[s].add_group(model_group(k.1));
                        sets[s].emit_interned(QueryId(k.0), gid, Timestamp(k.2), value_of(n));
                        models[s].push((k, value_of(n)));
                    }
                    Op::Duplicate(s, i) => {
                        if let Some(&(k, _)) = models[s].get(i) {
                            sets[s].emit(QueryId(k.0), model_group(k.1), Timestamp(k.2), value_of(7));
                            models[s].push((k, value_of(7)));
                        }
                    }
                    Op::Merge(from, into) => {
                        if from != into {
                            let moved = std::mem::take(&mut sets[from]);
                            sets[into].merge(moved);
                            let rows = std::mem::take(&mut models[from]);
                            models[into].extend(rows);
                        }
                    }
                    Op::TakeAndRemerge(s, fresh) => {
                        let taken = std::mem::take(&mut sets[s]);
                        for i in 0..fresh {
                            // windows past the generated range: never a duplicate
                            let k = (0, i as i64, 5000 + models[s].len() as u64);
                            sets[s].emit(QueryId(k.0), model_group(k.1), Timestamp(k.2), value_of(1));
                            models[s].push((k, value_of(1)));
                        }
                        sets[s].merge(taken);
                    }
                    Op::Reserve(s, n) => sets[s].reserve(n),
                    Op::Run(s, k, last, n) => {
                        let gid = sets[s].add_group(model_group(k.1));
                        for q in 0..=last as u32 {
                            let v = value_of(n + u64::from(q));
                            sets[s].emit_interned(QueryId(q), gid, Timestamp(k.2), v);
                            models[s].push(((q, k.1, k.2), v));
                        }
                    }
                    Op::Extreme(s, k, i) => {
                        let v = AggValue::Count(EXTREME[i]);
                        sets[s].emit(QueryId(k.0), model_group(k.1), Timestamp(k.2), v);
                        models[s].push((k, v));
                    }
                    Op::Burst(s, g, run, extra) if std::mem::take(&mut burst) => {
                        let open = sets[s].segs.last().map_or(0, |seg| seg.len());
                        let gid = sets[s].add_group(model_group(g));
                        for i in 0..SEGMENT_ROWS - open + extra {
                            let q = (i % run) as u32;
                            if q == 0 {
                                fresh += 1;
                            }
                            let v = if i % 97 == 0 {
                                AggValue::Count(EXTREME[i % 3])
                            } else {
                                value_of(i as u64)
                            };
                            sets[s].emit_interned(QueryId(q), gid, Timestamp(fresh), v);
                            models[s].push(((q, g, fresh), v));
                        }
                    }
                    Op::Burst(..) => {}
                }
                // lookups between mutations: the index must never go stale
                let _ = sets[0].get(QueryId(0), &GroupKey::Global, Timestamp(0));
            }
            for (set, model) in sets.iter().zip(&models) {
                check(set, model)?;
            }
        }
    }

    #[test]
    fn results_cross_threads() {
        fn assert_bounds<T: Send + Sync + Clone + Default>() {}
        assert_bounds::<ExecutorResults>();
    }
}
