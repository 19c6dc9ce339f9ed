//! Query results: one aggregate per query, group, and window.
//!
//! Results are an **append-only columnar log**. A row is `(query, group
//! id, window start, value)`; the group id indexes a per-set key table, so
//! a [`GroupKey`] is stored once per group and never per result. An engine
//! emits one group's window close at a time, so consecutive rows share a
//! group id and window: the log writes each such **run** as one header
//! inline in a byte column, just ahead of the rows it covers (a length
//! byte, the group id, and the window as a delta from the previous run's:
//! 3 bytes at small ids and steady windows), and a row as two varints, its
//! query and a header carrying the value (see `Segment`): a count below 32
//! under a query below 128 takes 2 bytes. Columns grow in fixed-size
//! segments — no multi-MiB buffer is ever reallocated and copied — and
//! every hop from window close to the caller is an append, a move or a
//! copy per run: the engines of an executor close windows into its one
//! log with the id each group registered there, the log leaves its
//! executor by move, [`ExecutorResults::merge`] into an empty set moves
//! the segments, and any other merge (the sharded runtime's, of its
//! workers' logs) writes one fresh header per run (one key lookup per
//! *distinct group*) and copies the run's row bytes in one slice, decoding
//! no row. A checkpoint image is the key table and each segment's byte
//! column as it is, headers written, not rebuilt: one row format, in
//! memory and on disk ([`ExecutorResults::save_state`]).
//!
//! The hash index behind [`ExecutorResults::get`] and
//! [`ExecutorResults::semantically_eq`] is built on first use and serves
//! tests and oracle comparisons; nothing on the feed path builds it.

use crate::checkpoint::{StateError, StateReader, StateWriter};
use sharon_query::aggregate::AggValue;
use sharon_query::QueryId;
use sharon_types::{FxHashMap, GroupKey, Timestamp};
use std::ops::Range;
use std::sync::OnceLock;

/// Rows per segment. The first segment of a set grows by `Vec` doubling
/// (small sets stay small); later ones start at the previous one's size.
const SEGMENT_ROWS: usize = 4096;

/// The low two bits of a row's header varint: a count inline in the
/// header's upper bits, a null, an `f64` in the next 8 bytes, or a count
/// of 2⁶² or more in the next 16 (all little-endian).
const TAG_COUNT: u64 = 0;
const TAG_NULL: u64 = 1;
const TAG_NUMBER: u64 = 2;
const TAG_WIDE: u64 = 3;

/// The longest row: a 5-byte query varint, a 1-byte tag and a 16-byte
/// count.
const MAX_ROW_BYTES: usize = 22;

/// The longest run header: a length byte, a 5-byte group id varint and a
/// 10-byte window delta varint.
const MAX_HEADER_BYTES: usize = 16;

/// The most row bytes one run header covers (its length byte's range).
const MAX_RUN_BYTES: usize = u8::MAX as usize;

/// Append `v` as a LEB128 varint to `out` at `at`; return the end.
#[inline]
fn put_varint<const N: usize>(out: &mut [u8; N], mut at: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        out[at] = v as u8 | 0x80;
        v >>= 7;
        at += 1;
    }
    out[at] = v as u8;
    at + 1
}

/// Read the LEB128 varint at `*at`, advancing past it; `None` past `bytes`
/// or 64 bits.
#[inline]
fn get_varint(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let mut v = 0;
    for shift in (0..64).step_by(7) {
        let b = *bytes.get(*at)?;
        *at += 1;
        let low = u64::from(b & 0x7f);
        v |= Some(low << shift).filter(|bits| bits >> shift == low)?;
        if b < 0x80 {
            return Some(v);
        }
    }
    None
}

/// Bytes of `v` as a LEB128 varint.
#[inline]
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// The window delta `to − from` (mod 2⁶⁴) zigzag-encoded, so a small step
/// either way is a small varint.
#[inline]
fn window_delta(from: Timestamp, to: Timestamp) -> u64 {
    let d = to.0.wrapping_sub(from.0) as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// The window `delta` (a [`window_delta`]) after `from`.
#[inline]
fn window_after(from: Timestamp, delta: u64) -> Timestamp {
    Timestamp(
        from.0
            .wrapping_add((delta >> 1) ^ (delta & 1).wrapping_neg()),
    )
}

/// The run a segment's next row may extend.
#[derive(Debug, Clone, Copy, Default)]
struct OpenRun {
    /// Offset of its header's length byte in the segment's bytes.
    head: usize,
    group: u32,
    window: Timestamp,
}

/// A slice of the log: runs of rows in one byte column.
///
/// A run is a header, then the rows it covers. The header is one length
/// byte (1–255: the byte length of the run's rows), `varint(group id)` and
/// `varint(zigzag(window − the previous run's window))`; a segment's first
/// run takes its delta from 0, so every segment decodes on its own. A row
/// that would take a run past 255 bytes opens a header of its own with the
/// same group and a delta of 0.
///
/// A row is `varint(query)` and one header varint: `count << 2` for a
/// count below 2⁶², `1` for null, `2` and the 8 bytes of an `f64`, or `3`
/// and the 16 bytes of a wider count. Varints are LEB128: 7 bits a byte.
#[derive(Debug, Clone, Default)]
struct Segment {
    bytes: Vec<u8>,
    /// Rows in `bytes`.
    len: usize,
    /// The last run; `None` while the segment is empty.
    open: Option<OpenRun>,
}

impl Segment {
    /// Append a row: the row is encoded behind room for a header, which is
    /// written just ahead of it when the row opens a run, so either is one
    /// append.
    #[inline]
    fn push(&mut self, query: u32, group: u32, window: Timestamp, value: AggValue) {
        const ROW: usize = MAX_HEADER_BYTES;
        let mut buf = [0; MAX_HEADER_BYTES + MAX_ROW_BYTES];
        let at = put_varint(&mut buf, ROW, query.into());
        let end = match value {
            AggValue::Count(c) if c < 1 << 62 => put_varint(&mut buf, at, (c as u64) << 2),
            AggValue::Number(None) => put_varint(&mut buf, at, TAG_NULL),
            AggValue::Number(Some(x)) => {
                let at = put_varint(&mut buf, at, TAG_NUMBER);
                buf[at..at + 8].copy_from_slice(&x.to_bits().to_le_bytes());
                at + 8
            }
            AggValue::Count(c) => {
                let at = put_varint(&mut buf, at, TAG_WIDE);
                buf[at..at + 16].copy_from_slice(&c.to_le_bytes());
                at + 16
            }
        };
        let len = end - ROW;
        let start = match self.open {
            Some(run)
                if run.group == group
                    && run.window == window
                    && usize::from(self.bytes[run.head]) + len <= MAX_RUN_BYTES =>
            {
                self.bytes[run.head] += len as u8;
                ROW
            }
            _ => self.open_run(group, window, len, &mut buf, ROW),
        };
        self.bytes.extend_from_slice(&buf[start..end]);
        self.len += 1;
    }

    /// Write the header of a run of `len` row bytes into `buf`, ending at
    /// `end`, and make it the open run (the caller appends the header at
    /// the end of the byte column, then the rows); return where the
    /// header starts.
    #[inline]
    fn open_run<const N: usize>(
        &mut self,
        group: u32,
        window: Timestamp,
        len: usize,
        buf: &mut [u8; N],
        end: usize,
    ) -> usize {
        let delta = window_delta(self.open.map_or(Timestamp(0), |run| run.window), window);
        let start = end - 1 - varint_len(group.into()) - varint_len(delta);
        buf[start] = len as u8;
        let at = put_varint(buf, start + 1, group.into());
        put_varint(buf, at, delta);
        self.open = Some(OpenRun {
            head: self.bytes.len(),
            group,
            window,
        });
        start
    }

    /// This segment's byte length once copied into an empty segment with
    /// its group ids through `remap` (the window deltas keep their widths
    /// there).
    fn remapped_len(&self, remap: &[u32]) -> usize {
        self.runs().fold(self.bytes.len(), |len, (group, _, _)| {
            len + varint_len(remap[group as usize].into()) - varint_len(group.into())
        })
    }

    /// Copy `src`'s runs behind this segment's: a fresh header per run,
    /// with its group id through `remap` and its window delta re-based on
    /// this segment's last run, then the run's row bytes verbatim.
    fn append_remapped(&mut self, src: &Segment, remap: &[u32]) {
        for (group, window, rows) in src.runs() {
            let mut header = [0; MAX_HEADER_BYTES];
            let start = self.open_run(
                remap[group as usize],
                window,
                rows.len(),
                &mut header,
                MAX_HEADER_BYTES,
            );
            self.bytes.extend_from_slice(&header[start..]);
            self.bytes.extend_from_slice(rows);
        }
        self.len += src.len;
    }

    /// Grow the byte column to a whole segment of the longest rows, each
    /// under a header of its own: every further row fits without
    /// allocating (a column loaded with over-long varints may be longer).
    fn reserve_whole(&mut self) {
        let whole = SEGMENT_ROWS * (MAX_ROW_BYTES + MAX_HEADER_BYTES);
        self.bytes
            .reserve_exact(whole.saturating_sub(self.bytes.len()));
    }

    /// The segment's runs, in order: `(group id, window, row bytes)`.
    fn runs(&self) -> impl Iterator<Item = (u32, Timestamp, &[u8])> {
        let (mut at, mut window) = (0, Timestamp(0));
        std::iter::from_fn(move || {
            let (group, rows);
            (group, window, rows) = next_run(&self.bytes, at, window)?;
            at = rows.end;
            Some((group, window, &self.bytes[rows]))
        })
    }

    /// The segment's rows, in order: `(query, group id, window, value)`.
    fn rows(&self) -> SegmentRows<'_> {
        SegmentRows {
            bytes: &self.bytes,
            ..SegmentRows::default()
        }
    }

    /// Take `bytes` from a checkpoint as a segment of `rows` rows over
    /// group ids below `groups`, walking it once with [`Segment::rows`]'s
    /// decoder: every run and row must decode within its bounds (a run holds
    /// rows that end at its end), and the walk re-derives the open run for
    /// rows pushed after a resume.
    fn load(rows: usize, bytes: Vec<u8>, groups: usize) -> Result<Segment, StateError> {
        let seg = Segment {
            bytes,
            ..Segment::default()
        };
        let mut decode = seg.rows();
        let len = decode
            .try_fold(0, |len, row| ((row.1 as usize) < groups).then_some(len + 1))
            .ok_or(StateError::Corrupt("result run group id"))?;
        let bad = if decode.at < decode.run_end {
            "result row"
        } else if decode.at < seg.bytes.len() {
            "result run header"
        } else if len != rows || len > SEGMENT_ROWS {
            "result segment row count"
        } else {
            let open = (len > 0).then_some(decode.run);
            return Ok(Segment { len, open, ..seg });
        };
        Err(StateError::Corrupt(bad))
    }
}

/// Decode the run header at `at`, whose window delta is taken from `base`:
/// the run's group id, its window and where its rows lie. `None` at the
/// end of `bytes`, and for a header or rows past it, a group id past `u32`
/// or no rows.
#[inline]
fn next_run(bytes: &[u8], at: usize, base: Timestamp) -> Option<(u32, Timestamp, Range<usize>)> {
    let len = usize::from(*bytes.get(at)?);
    let mut at = at + 1;
    let group = u32::try_from(get_varint(bytes, &mut at)?).ok()?;
    let window = window_after(base, get_varint(bytes, &mut at)?);
    (len > 0 && at + len <= bytes.len()).then_some((group, window, at..at + len))
}

/// Decode the row at `at`: its query, its value and where it ends. `None`
/// for a row that overruns `bytes` or a query id past `u32`.
#[inline]
fn next_row(bytes: &[u8], mut at: usize) -> Option<(QueryId, AggValue, usize)> {
    let query = u32::try_from(get_varint(bytes, &mut at)?).ok()?;
    let header = get_varint(bytes, &mut at)?;
    let tail = bytes.get(at..)?;
    let value = match header & 3 {
        TAG_COUNT => AggValue::Count((header >> 2).into()),
        TAG_NULL => AggValue::Number(None),
        TAG_NUMBER => AggValue::Number(Some(f64::from_le_bytes(*tail.first_chunk()?))),
        _ => AggValue::Count(u128::from_le_bytes(*tail.first_chunk()?)),
    };
    // past the tag's payload: none, none, an `f64` or a `u128`
    at += [0, 0, 8, 16][(header & 3) as usize];
    Some((QueryId(query), value, at))
}

/// The decoder behind [`Segment::rows`]: a cursor into the byte column
/// and the run it is in. It stops at a header or row past its bounds.
#[derive(Default)]
struct SegmentRows<'a> {
    bytes: &'a [u8],
    at: usize,
    /// Where the current run's rows end.
    run_end: usize,
    run: OpenRun,
}

impl Iterator for SegmentRows<'_> {
    type Item = (QueryId, u32, Timestamp, AggValue);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.at == self.run_end {
            let rows;
            (self.run.group, self.run.window, rows) =
                next_run(self.bytes, self.at, self.run.window)?;
            (self.run.head, self.at, self.run_end) = (self.at, rows.start, rows.end);
        }
        let (query, value);
        (query, value, self.at) = next_row(&self.bytes[..self.run_end], self.at)?;
        Some((query, self.run.group, self.run.window, value))
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
    /// append to the byte column, no key clone, no hash. A row with the
    /// previous row's group id and window extends its run while the run
    /// stays within 255 bytes; any other row writes a run header first.
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
        if self.segs.last().is_none_or(|s| s.len == SEGMENT_ROWS) {
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
                // a log's row width and run length barely move from one
                // segment to the next: start at the last one's byte length
                // and a sixteenth more, so the column seldom doubles and
                // wastes little
                let bytes = last.bytes.len();
                seg.bytes.reserve_exact(bytes + bytes / 16);
            }
            seg
        });
        self.segs.push(seg);
    }

    /// Append `group` to the key table and return its id, without a hash
    /// lookup: an engine calls it once per group and log, when the id the
    /// group cached does not hold its key in this table. A key registered
    /// twice (say, by two partitions' groups) costs a table slot, nothing
    /// else.
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

    /// Reserve column capacity for at least `additional` further rows of
    /// the longest encoding, each under a run header of its own, so a
    /// steady-state emission phase performs no allocation.
    pub fn reserve(&mut self, additional: usize) {
        let mut room = self.spare.len() * SEGMENT_ROWS;
        if let Some(last) = self.segs.last_mut() {
            last.reserve_whole();
            room += SEGMENT_ROWS - last.len;
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
    /// group and each of its segments is copied run by run: into the room
    /// the last segment has left if it fits there, so short merges do not
    /// strand capacity, else into a new segment sized to it. A run costs a
    /// fresh header (the translated group id, the window delta re-based on
    /// the run before it) and one copy of its row bytes; no row is decoded.
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
        for seg in &other.segs {
            match self.segs.last_mut() {
                Some(last) if last.len + seg.len <= SEGMENT_ROWS => {
                    last.append_remapped(seg, &remap);
                }
                _ => {
                    let mut fresh = Segment::default();
                    fresh.bytes.reserve_exact(seg.remapped_len(&remap));
                    fresh.append_remapped(seg, &remap);
                    self.segs.push(fresh);
                }
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

    /// Serialize the full result set into a checkpoint segment (a shard
    /// worker holds emitted results until they are drained or
    /// `finish`, so a resume must carry them to reproduce an
    /// uninterrupted run's output exactly): the key table once, then the
    /// segment count and, per segment, its row count and its byte column
    /// as it is, run headers included. No row is decoded.
    pub(crate) fn save_state(&self, w: &mut StateWriter) {
        w.seq_len(self.keys.len());
        for key in &self.keys {
            w.group_key(key);
        }
        w.seq_len(self.segs.len());
        for seg in &self.segs {
            w.seq_len(seg.len);
            w.bytes(&seg.bytes);
        }
    }

    /// Decode a result set written by [`ExecutorResults::save_state`],
    /// keeping each segment's bytes after one walk (`Segment::load`); a
    /// malformed image is [`StateError::Corrupt`] naming the field.
    pub(crate) fn load_state(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let mut out = ExecutorResults::new();
        let mut read = |r: &mut StateReader<'_>| {
            for _ in 0..r.seq_len()? {
                out.keys.push(r.group_key()?);
            }
            for _ in 0..r.seq_len()? {
                let seg = Segment::load(r.seq_len()?, r.bytes()?.to_vec(), out.keys.len())?;
                out.len += seg.len;
                out.segs.push(seg);
            }
            Ok(())
        };
        match read(r) {
            Err(StateError::Eof) => Err(StateError::Corrupt("result log truncated")),
            res => res.map(|()| out),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Assert that `got` is `semantically_eq` to `reference` within `tol`,
    /// after asserting that the reference holds a row of each of its first
    /// `n_queries` queries: an equivalence over an empty reference checks
    /// nothing. `what` names the comparison in a failure.
    #[track_caller]
    pub(crate) fn assert_equivalent(
        got: &ExecutorResults,
        reference: &ExecutorResults,
        n_queries: u32,
        tol: f64,
        what: impl std::fmt::Display,
    ) {
        for q in (0..n_queries).map(sharon_query::QueryId) {
            assert!(
                reference.of_query(q).next().is_some(),
                "{what}: the reference has no row of {q:?}"
            );
        }
        assert!(
            got.semantically_eq(reference, tol),
            "{what}: diverges from the reference ({} vs {} results)",
            got.len(),
            reference.len()
        );
    }

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

    /// A value's exact identity: counts by value, numbers by their bits
    /// (so a NaN and −0.0 compare), null apart from every number.
    fn exact(v: &AggValue) -> (bool, u128) {
        match v {
            AggValue::Count(c) => (false, *c),
            AggValue::Number(x) => (true, x.map_or(u128::MAX, |x| x.to_bits().into())),
        }
    }

    /// Each row's query and exact value.
    fn exact_rows(
        rows: impl Iterator<Item = (QueryId, u32, Timestamp, AggValue)>,
    ) -> Vec<(u32, (bool, u128))> {
        rows.map(|(q, _, _, v)| (q.0, exact(&v))).collect()
    }

    #[test]
    fn every_varint_and_tag_boundary_round_trips() {
        // (value, encoded header bytes): a count below 2⁶² sits inline
        // shifted past the two tag bits, so 31 is the last 1-byte count
        let values = [
            (AggValue::Count(0), 1),
            (AggValue::Count(31), 1),
            (AggValue::Count(32), 2),
            (AggValue::Count((1 << 62) - 1), 10),
            (AggValue::Count(1 << 62), 17),
            (AggValue::Count(u64::MAX.into()), 17),
            (AggValue::Count(u128::from(u64::MAX) + 1), 17),
            (AggValue::Count(u128::MAX), 17),
            (AggValue::Number(None), 1),
            (AggValue::Number(Some(-0.0)), 9),
            (AggValue::Number(Some(f64::INFINITY)), 9),
            (AggValue::Number(Some(f64::NAN)), 9),
            (AggValue::Number(Some(f64::from_bits(1))), 9), // subnormal
        ];
        // (query id, encoded bytes): LEB128 holds 7 bits a byte
        let queries = [
            (0, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u32::MAX, 5),
        ];
        let rows: Vec<(u32, AggValue)> = queries
            .iter()
            .flat_map(|&(q, _)| values.iter().map(move |&(v, _)| (q, v)))
            .collect();
        let want: Vec<_> = rows.iter().map(|(q, v)| (*q, exact(v))).collect();
        // push → rows, in runs of three
        let mut r = ExecutorResults::new();
        let gid = r.add_group(key(1));
        for (i, &(q, v)) in (0..).zip(&rows) {
            r.emit_interned(QueryId(q), gid, Timestamp(i / 3), v);
        }
        assert_eq!(exact_rows(r.rows()), want);
        // each run of three under a 3-byte header: its length, group 0 and
        // a window step of 0 or 1
        let width: usize = queries.iter().map(|q| q.1).sum::<usize>() * values.len()
            + values.iter().map(|v| v.1).sum::<usize>() * queries.len()
            + rows.len().div_ceil(3) * 3;
        assert_eq!(r.segs[0].bytes.len(), width, "each row at its width");
        // a copy behind a segment of its own rows
        let mut front = Segment::default();
        front.push(9, 1, Timestamp(4), AggValue::Count(1 << 62));
        front.append_remapped(&r.segs[0], &[0]);
        assert_eq!(exact_rows(front.rows().skip(1)), want);
        assert_eq!(front.rows().next().unwrap().3, AggValue::Count(1 << 62));
        // a remapping merge: key 1 is id 1 in the set it is copied into
        let mut into = ExecutorResults::new();
        into.emit(QueryId(7), key(2), Timestamp(0), AggValue::Count(1));
        into.merge(r.clone());
        assert_eq!(into.segs.len(), 1, "copied into the open segment");
        assert!(into.rows().skip(1).all(|row| row.1 == 1));
        assert_eq!(exact_rows(into.rows().skip(1)), want);
        // save_state → load_state
        let mut w = crate::checkpoint::StateWriter::new();
        r.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut rd = crate::checkpoint::StateReader::new(&bytes);
        let back = ExecutorResults::load_state(&mut rd).unwrap();
        assert!(rd.is_exhausted());
        assert_eq!(exact_rows(back.rows()), want);
        assert_eq!(back.segs[0].bytes, r.segs[0].bytes);
    }

    /// Each run of `seg`: `(group id, window, row bytes)`.
    fn run_list(seg: &Segment) -> Vec<(u32, u64, usize)> {
        seg.runs()
            .map(|(g, w, rows)| (g, w.0, rows.len()))
            .collect()
    }

    /// Every row of `set` with its group resolved: `(query, key, window,
    /// exact value)`.
    type KeyedRow = (u32, GroupKey, u64, (bool, u128));

    fn keyed_rows(set: &ExecutorResults) -> Vec<KeyedRow> {
        set.rows()
            .map(|(q, gid, w, v)| (q.0, set.group(gid).clone(), w.0, exact(&v)))
            .collect()
    }

    #[test]
    fn every_header_boundary_round_trips() {
        // (group id, window, header bytes): a length byte, the group id's
        // varint and the zigzag varint of the step from the previous run's
        // window (from 0 for the first run)
        let runs = [
            (0, 5, 3),         // +5
            (127, 5, 3),       // 0, another group
            (128, 6, 4),       // +1
            (16_383, 5, 4),    // −1
            (16_384, 1005, 6), // +1000: zigzag 2000, 2 bytes
            (u32::MAX, 0, 8),  // back to 0: −1005, 2 bytes
            (0, u64::MAX, 3),  // 0 → u64::MAX: −1 mod 2⁶⁴
            (1, 0, 3),         // and back: +1
        ];
        // two rows a run: 2 + 3 bytes
        let values = [AggValue::Count(3), AggValue::Count(40)];
        let mut seg = Segment::default();
        for &(group, window, _) in &runs {
            for (q, &v) in (0..).zip(&values) {
                seg.push(q, group, Timestamp(window), v);
            }
        }
        let want: Vec<(u32, u64, usize)> = runs.iter().map(|&(g, w, _)| (g, w, 5)).collect();
        assert_eq!(run_list(&seg), want);
        let width: usize = runs.iter().map(|r| r.2 + 5).sum();
        assert_eq!(seg.bytes.len(), width, "each header at its width");
        let decoded: Vec<(u32, u32, u64, AggValue)> =
            seg.rows().map(|(q, g, w, v)| (q.0, g, w.0, v)).collect();
        let expected: Vec<(u32, u32, u64, AggValue)> = runs
            .iter()
            .flat_map(|&(g, w, _)| (0..).zip(values).map(move |(q, v)| (q, g, w, v)))
            .collect();
        assert_eq!(decoded, expected);

        // the length byte's edge: 85 rows of 3 bytes fill one header, the
        // 86th opens another with a step of 0
        let mut r = ExecutorResults::new();
        let gids: Vec<u32> = (0..=16_384).map(|g| r.add_group(key(g))).collect();
        let mut model: Vec<KeyedRow> = Vec::new();
        let mut emit = |r: &mut ExecutorResults, q: u32, g: usize, w: u64, v: AggValue| {
            r.emit_interned(QueryId(q), gids[g], Timestamp(w), v);
            model.push((q, key(g as i64), w, exact(&v)));
        };
        for _ in 0..85 {
            emit(&mut r, 0, 7, 900, AggValue::Count(32));
        }
        assert_eq!(run_list(&r.segs[0]), [(7, 900, 255)]);
        emit(&mut r, 1, 7, 900, AggValue::Count(32));
        assert_eq!(run_list(&r.segs[0]), [(7, 900, 255), (7, 900, 3)]);
        assert_eq!(
            r.segs[0].bytes.len(),
            4 + 255 + 3 + 3,
            "a 2-byte step to 900"
        );
        // 300 rows of 22 bytes: eleven a header
        for _ in 0..300 {
            emit(&mut r, u32::MAX, 16_384, 1000, AggValue::Count(u128::MAX));
        }
        let wide = &run_list(&r.segs[0])[2..];
        assert_eq!(wide.len(), 28);
        assert!(wide[..27].iter().all(|&run| run == (16_384, 1000, 242)));
        assert_eq!(wide[27], (16_384, 1000, 66));
        // across two segments, every window far from 0: the second
        // segment's first header steps from 0, not from the first's last
        let mut i = 0;
        while r.segs.len() < 2 || r.segs[1].len < 10 {
            let g = [0, 127, 128, 16_383, 16_384][i % 5];
            emit(
                &mut r,
                (i % 3) as u32,
                g,
                1_000_000 + i as u64 / 2,
                AggValue::Count(i as u128),
            );
            i += 1;
        }
        assert_eq!(keyed_rows(&r), model);
        assert_eq!(r.segs[1].remapped_len(&gids), r.segs[1].bytes.len());

        // a remapping merge into the room of a segment whose last window is
        // 7000: key 16 384 narrows to id 0 and keys 0..=128 widen past
        // 16 384; the first header's step is re-based on 7000
        let mut small = ExecutorResults::new();
        let small_gids: Vec<u32> = (0..=16_384).map(|g| small.add_group(key(g))).collect();
        let mut small_model = Vec::new();
        for (i, g) in [16_384, 0, 127, 128, 16_383, 16_384]
            .into_iter()
            .enumerate()
        {
            let w = 5 + i as u64 % 3;
            small.emit_interned(QueryId(2), small_gids[g], Timestamp(w), AggValue::Count(9));
            small_model.push((2, key(g as i64), w, exact(&AggValue::Count(9))));
        }
        let mut dst = ExecutorResults::new();
        dst.emit(QueryId(0), key(16_384), Timestamp(7000), AggValue::Count(1));
        for g in 100_000..116_384 {
            dst.intern(&key(g));
        }
        let mut dst_model = keyed_rows(&dst);
        dst.merge(small.clone());
        dst_model.extend(small_model);
        assert_eq!(dst.segs.len(), 1, "copied into the room");
        assert_eq!(keyed_rows(&dst), dst_model);
        let copied = &run_list(&dst.segs[0])[1..];
        let groups: Vec<u32> = copied.iter().map(|run| run.0).collect();
        assert_eq!(groups, [0, 16_385, 16_512, 16_513, 32_768, 0]);
        // one header written per run: the first one's step of −6995 takes 2
        // bytes, the four widened ids 3 each; the 12 row bytes are copied
        // verbatim
        assert_eq!(dst.segs[0].bytes.len(), 6 + (4 + 4 * 5 + 3) + 6 * 2);
        assert!(dst.segs[0]
            .runs()
            .skip(1)
            .zip(small.segs[0].runs())
            .all(|(ours, theirs)| ours.2 == theirs.2));
        // and the multi-segment set behind it
        dst.merge(r.clone());
        dst_model.extend(model);
        assert_eq!(keyed_rows(&dst), dst_model);

        // save_state → load_state
        let mut w = crate::checkpoint::StateWriter::new();
        dst.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut rd = crate::checkpoint::StateReader::new(&bytes);
        let back = ExecutorResults::load_state(&mut rd).unwrap();
        assert!(rd.is_exhausted());
        assert_eq!(keyed_rows(&back), dst_model);
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
        let column = src.segs[0].bytes.as_ptr();
        let mut dst = ExecutorResults::new();
        dst.merge(src);
        assert_eq!(dst.segs[0].bytes.as_ptr(), column, "moved, not copied");
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
        // c's full segment was copied into a new one, its one-row tail into
        // another
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
        let reserved: usize = r.segs[0].bytes.capacity() - r.segs[0].bytes.len()
            + r.spare.iter().map(|s| s.bytes.capacity()).sum::<usize>();
        let whole = SEGMENT_ROWS * (MAX_ROW_BYTES + MAX_HEADER_BYTES);
        assert!(reserved >= 2 * whole);
        let (segs_cap, first) = (r.segs.capacity(), r.segs[0].bytes.as_ptr());
        // a window per row: the worst case, a run header per row
        for w in 0..2 * SEGMENT_ROWS as u64 {
            r.emit_interned(QueryId(0), 0, Timestamp(100 + w), AggValue::Count(1));
        }
        assert_eq!(r.segs.capacity(), segs_cap);
        assert_eq!(r.segs[0].bytes.as_ptr(), first, "no column was reallocated");
        assert!(r.segs.iter().all(|s| s.bytes.capacity() == whole));
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
    /// number: the key table, then the one segment's row count and byte
    /// column as the log holds it, two run headers included.
    #[rustfmt::skip]
    const GOLDEN: &[u8] = &[
        2, 0, 0, 0, 0, 0, 0, 0, // two keys
        1, 0, 1, 0, 0, 0, 0, 0, 0, 0, // key(1)
        0, // global
        1, 0, 0, 0, 0, 0, 0, 0, // one segment
        4, 0, 0, 0, 0, 0, 0, 0, // four rows
        38, 0, 0, 0, 0, 0, 0, 0, // in 38 bytes
        20, 0, 120, // a run of 20 bytes: group 0, window 0 + 60
        0, 12, // query 0: count 3
        1, 3, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, // query 1: 2⁶⁴
        12, 1, 120, // a run of 12 bytes: group 1, window 60 + 60
        2, 1, // query 2: null
        3, 2, 0, 0, 0, 0, 0, 0, 0x04, 0x40, // query 3: 2.5
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
        assert_eq!(r.segs[0].runs().count(), 2);
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
        assert_eq!(
            back.segs[0].bytes, r.segs[0].bytes,
            "loading keeps the column as it is"
        );
    }

    /// A results image over `keys` keys and the given segments, each a
    /// declared row count and a byte column.
    fn image(keys: i64, segs: &[(usize, &[u8])]) -> Vec<u8> {
        let mut w = crate::checkpoint::StateWriter::new();
        w.seq_len(keys as usize);
        for g in 0..keys {
            w.group_key(&key(g));
        }
        w.seq_len(segs.len());
        for (rows, bytes) in segs {
            w.seq_len(*rows);
            w.bytes(bytes);
        }
        w.into_bytes()
    }

    fn load(bytes: &[u8]) -> Result<ExecutorResults, StateError> {
        ExecutorResults::load_state(&mut crate::checkpoint::StateReader::new(bytes))
    }

    /// A log of two segments, several runs each: rows by id, runs of one to
    /// five queries, some wide values.
    fn two_segments() -> ExecutorResults {
        let mut r = ExecutorResults::new();
        let gids: Vec<u32> = (0..5).map(|g| r.add_group(key(g))).collect();
        for i in 0..SEGMENT_ROWS + 40 {
            let run = 1 + i / 3 % 5;
            let value = match i % 7 {
                0 => AggValue::Number(Some(i as f64 / 8.0)),
                1 => AggValue::Number(None),
                2 => AggValue::Count(u128::MAX - i as u128),
                _ => AggValue::Count(i as u128),
            };
            let window = Timestamp(1_000 + (i / run) as u64 * 3);
            r.emit_interned(QueryId((i % run) as u32), gids[i / run % 5], window, value);
        }
        assert_eq!(r.segs.len(), 2);
        r
    }

    #[test]
    fn load_state_rejects_rows_that_point_nowhere() {
        // one key; a run of 2 bytes (group 0, window 0): query 0, count 3
        let good: &[u8] = &[2, 0, 0, 0, 12];
        assert_eq!(load(&image(1, &[(1, good)])).unwrap().len(), 1);
        let (count, run, row) = (
            "result segment row count",
            "result run header",
            "result row",
        );
        let over_full = good.repeat(SEGMENT_ROWS + 1);
        let bad: [(&str, &str, Vec<u8>); 13] = [
            ("declared one row short", count, image(1, &[(0, good)])),
            ("declared one row long", count, image(1, &[(2, good)])),
            (
                "more rows than a segment",
                count,
                image(1, &[(SEGMENT_ROWS + 1, &over_full)]),
            ),
            (
                "zero run length",
                run,
                image(1, &[(1, &[0, 0, 0, 2, 0, 0, 0, 12])]),
            ),
            (
                "group id = key count",
                "result run group id",
                image(1, &[(1, &[2, 1, 0, 0, 12])]),
            ),
            // a number's 8 bytes past a run of 2: into the next run, and
            // past the column
            (
                "payload past its run",
                row,
                image(1, &[(2, &[2, 0, 0, 0, 2, 2, 0, 0, 0, 0, 12, 0, 0])]),
            ),
            (
                "payload past the column",
                row,
                image(1, &[(1, &[2, 0, 0, 0, 2, 0])]),
            ),
            ("unterminated group id", run, image(1, &[(1, &[2, 0x80])])),
            (
                "unterminated query",
                row,
                image(1, &[(1, &[2, 0, 0, 0x80, 0x80])]),
            ),
            (
                "an 11-byte group id",
                run,
                image(
                    1,
                    &[(1, &[[2].as_slice(), &[0x80; 10], &[0, 0, 0, 12]].concat())],
                ),
            ),
            (
                "a 10-byte window step past 64 bits",
                run,
                image(
                    1,
                    &[(1, &[[2, 0].as_slice(), &[0xff; 9], &[2, 0, 12]].concat())],
                ),
            ),
            (
                "a trailing byte",
                run,
                image(1, &[(1, &[good, &[5]].concat())]),
            ),
            ("a trailing run", count, image(1, &[(1, &good.repeat(2))])),
        ];
        for (case, field, bytes) in &bad {
            assert_eq!(
                load(bytes).err(),
                Some(StateError::Corrupt(field)),
                "{case}"
            );
        }
        // every truncation of a two-segment image with many runs
        let full = {
            let mut w = crate::checkpoint::StateWriter::new();
            two_segments().save_state(&mut w);
            w.into_bytes()
        };
        for cut in 0..full.len() {
            assert!(
                matches!(load(&full[..cut]), Err(StateError::Corrupt(_))),
                "cut at {cut} of {}",
                full.len()
            );
        }

        // rows emitted after a resume, cut mid-run in the second segment,
        // extend the log as they extend the log that was never saved
        let mut live = two_segments();
        let mut resumed = load(&full).unwrap();
        let open = |r: &ExecutorResults| {
            let run = r.segs.last().unwrap().open.unwrap();
            (run.head, run.group, run.window)
        };
        let (head, group, window) = open(&live);
        assert_eq!(open(&resumed), (head, group, window));
        for r in [&mut live, &mut resumed] {
            r.emit_interned(QueryId(9), group, window, AggValue::Count(1));
            assert_eq!(open(r).0, head, "the open run is extended");
            // then a run per row, into two more segments
            for i in 0..2 * SEGMENT_ROWS as u64 {
                let value = AggValue::Count(u128::from(i));
                r.emit_interned(QueryId(1), (i % 5) as u32, Timestamp(9_000 + i / 2), value);
            }
        }
        assert_eq!(resumed.len(), live.len());
        assert_eq!(resumed.segs.len(), 4);
        assert!(resumed.rows().eq(live.rows()), "row for row");
        for (ours, theirs) in resumed.segs.iter().zip(&live.segs) {
            assert_eq!(ours.bytes, theirs.bytes, "byte for byte");
        }
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
        /// Take the set out (as `drain_results` does) and merge it back in
        /// behind `.1` fresh rows.
        TakeAndRemerge(usize, usize),
        Reserve(usize, usize),
        /// An engine's window close: one `add_group`, then queries
        /// `QUERY_IDS[..=.2]` by id under one group and window.
        Run(usize, ModelKey, usize, u64),
        /// A count at the inline-count or 64-bit boundary: `EXTREME[.2]`.
        Extreme(usize, ModelKey, usize),
        /// Engine-style runs of `.2` queries over fresh windows until the
        /// set's open segment is full, then `.3` rows more. The first burst
        /// of a case runs; later ones are no-ops (a checked row costs).
        Burst(usize, i64, usize, usize),
    }

    const EXTREME: [u128; 5] = [
        (1 << 62) - 1,
        1 << 62,
        u64::MAX as u128,
        u64::MAX as u128 + 1,
        u128::MAX,
    ];

    /// Queries an op can emit under: ids whose varints take 1, 2, 3, 4 and
    /// 5 bytes. `id ^ 2` is never one of them.
    const QUERY_IDS: [u32; 8] = [0, 1, 127, 128, 16_384, 1 << 21, 1 << 28, u32::MAX];

    const SETS: usize = 3;

    fn model_key() -> impl Strategy<Value = ModelKey> {
        (0..QUERY_IDS.len(), -1i64..5, 0u64..2000).prop_map(|(q, g, w)| (QUERY_IDS[q], g, w))
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
            (set(), model_key(), 0..EXTREME.len()).prop_map(|(s, k, i)| Op::Extreme(s, k, i)),
            (set(), -1i64..5, 1usize..=8, 1usize..64)
                .prop_map(|(s, g, r, n)| Op::Burst(s, g, r, n)),
        ]
    }

    /// The plain model of one set: every emitted row, in order.
    type Model = Vec<(ModelKey, AggValue)>;

    fn check(set: &ExecutorResults, model: &Model) -> Result<(), TestCaseError> {
        prop_assert_eq!(set.len(), model.len());
        prop_assert_eq!(set.is_empty(), model.is_empty());
        // the layout: headers and their runs' rows partition each
        // segment's bytes exactly, the open run is the last one, and
        // decoding the rows ends exactly at the end of the byte column
        for seg in &set.segs {
            prop_assert!(seg.len <= SEGMENT_ROWS);
            let (mut at, mut base, mut last) = (0, Timestamp(0), None);
            for (group, window, rows) in seg.runs() {
                let header = 1 + varint_len(group.into()) + varint_len(window_delta(base, window));
                let start = rows.as_ptr() as usize - seg.bytes.as_ptr() as usize;
                prop_assert_eq!(start, at + header);
                prop_assert!((1..=MAX_RUN_BYTES).contains(&rows.len()));
                (at, base, last) = (start + rows.len(), window, Some((at, group, window)));
            }
            prop_assert_eq!(at, seg.bytes.len());
            prop_assert_eq!(last, seg.open.map(|run| (run.head, run.group, run.window)));
            let mut decode = seg.rows();
            prop_assert_eq!(decode.by_ref().count(), seg.len);
            prop_assert_eq!(decode.at, seg.bytes.len());
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
            (q, g, w, exact(v))
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
                .get(QueryId(*q ^ 2), &model_group(*g), Timestamp(*w))
                .is_none());
        }
        let mut per_query = QUERY_IDS.map(|q| (q, 0, 0u128));
        for ((q, _, _), v) in model {
            let (_, n, total) = per_query
                .iter_mut()
                .find(|tally| tally.0 == *q)
                .expect("a model query id");
            *n += 1;
            *total = total.saturating_add(v.as_count().unwrap_or(0));
        }
        for (q, n, total) in per_query {
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
                        for (&q, i) in QUERY_IDS[..=last].iter().zip(0..) {
                            let v = value_of(n + i);
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
                        let open = sets[s].segs.last().map_or(0, |seg| seg.len);
                        let gid = sets[s].add_group(model_group(g));
                        for i in 0..SEGMENT_ROWS - open + extra {
                            let q = QUERY_IDS[i % run];
                            if i % run == 0 {
                                fresh += 1;
                            }
                            let v = if i % 97 == 0 {
                                AggValue::Count(EXTREME[i % EXTREME.len()])
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
