//! Event-time machinery: the bounded-disorder reorder gate.
//!
//! Arrival order is not event-time order the moment a stream carries
//! disorder. The online [`crate::Executor`], sequentially or as a shard
//! worker, holds one gate of this type for all its engines, between its
//! select stage ([`crate::front`]) and its engines (the two-step
//! baselines run in arrival order and hold none): selected rows are
//! *admitted*, a monotone **watermark** `max_time_seen − lateness`
//! advances once per batch/chunk, and rows are *released* into the
//! caller's in-order row path only once the watermark passes them. Rows
//! that arrive with a timestamp already behind the watermark are
//! **late**: the policy is drop-and-count
//! ([`sharon_metrics::late_rows_dropped`]), never a silent fold into
//! closed windows.
//!
//! Exactness: the stream generators' disorder knob displaces a row at
//! most `K` positions ([`sharon-streams`' bounded block shuffle]), so any
//! `lateness` covering the induced timestamp regression means no row is
//! ever late, and release order — ascending `(time, admission seq)` —
//! restores the original in-order stream up to a permutation of
//! equal-timestamp rows, which no strategy's semantics observe (sequence
//! adjacency requires strictly increasing timestamps). The watermark only
//! *defers* work (release happens at the next advance), so empty chunks
//! and ragged batch boundaries never change results.
//!
//! A row is copied only when it must outlive the batch it arrived in.
//! [`Reorder::process`] takes the batch, its selected row lists and the
//! frontier in one call: admission records `(time, seq, row, scope)`
//! indices into the batch, the indices are sorted (they are nearly
//! sorted already), and one merge with the **carry** — the columnar store
//! of rows earlier batches left waiting, sorted by `(time, seq)` — hands
//! every row at or behind the watermark to the caller, its attributes
//! borrowed from the batch or the carry. Only the batch's rows still
//! waiting are then copied, merged with the carry's rest into a spare
//! store that swaps in, so the steady state allocates nothing
//! (`Value::Str` attrs are `Arc<str>`: a copy is a refcount bump).

use crate::checkpoint::{StateError, StateReader, StateWriter};
use sharon_types::{EventBatch, EventTypeId, Timestamp, Value};

/// A row released by the row-at-a-time form ([`Reorder::pop_ready`]):
/// its key and its place in the gate's carry. [`Reorder::attrs`] reads
/// its attributes until the gate next admits or releases.
#[derive(Debug, Clone, Copy)]
pub struct PendingRow {
    /// Event time of the row.
    pub time: Timestamp,
    /// Admission sequence number: ties on `time` release in arrival
    /// order, keeping the gate deterministic.
    pub seq: u64,
    /// Event type of the row.
    pub ty: EventTypeId,
    /// Routing-scope index in the owner: an executor's engine.
    pub scope: u32,
    /// Index of the row in the carry.
    slot: usize,
}

/// One admitted row of the batch in hand: an index into it, not a copy.
#[derive(Debug, Clone, Copy)]
struct Fresh {
    time: Timestamp,
    seq: u64,
    row: u32,
    scope: u32,
}

impl Fresh {
    #[inline]
    fn key(&self) -> (Timestamp, u64) {
        (self.time, self.seq)
    }
}

/// Rows that outlived their batch, columnar and sorted by `(time, seq)`.
/// Rows before `head` were already released.
#[derive(Debug, Default)]
struct Carry {
    rows: EventBatch,
    seqs: Vec<u64>,
    scopes: Vec<u32>,
    head: usize,
}

impl Carry {
    /// Rows not yet released.
    fn live(&self) -> usize {
        self.seqs.len() - self.head
    }

    #[inline]
    fn key(&self, i: usize) -> (Timestamp, u64) {
        (self.rows.time(i), self.seqs[i])
    }

    fn push(&mut self, ty: EventTypeId, time: Timestamp, seq: u64, scope: u32, attrs: &[Value]) {
        self.rows.push(ty, time, attrs);
        self.seqs.push(seq);
        self.scopes.push(scope);
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.seqs.clear();
        self.scopes.clear();
        self.head = 0;
    }
}

/// Merge the carry's live rows with `fresh` (rows of `src`) in
/// `(time, seq)` order. With a `watermark`, every row at or behind it goes
/// to `emit`; the rest stay in the carry, the batch's rows copied out of
/// `src`, and `fresh` ends empty.
fn release(
    carry: &mut Carry,
    spare: &mut Carry,
    fresh: &mut Vec<Fresh>,
    src: &EventBatch,
    watermark: Option<Timestamp>,
    emit: &mut impl FnMut(EventTypeId, Timestamp, &[Value], u32),
) {
    fresh.sort_unstable_by_key(Fresh::key);
    let end = carry.seqs.len();
    let (mut c, mut f) = (carry.head, 0);
    // does the carry's next row precede the batch's next row?
    let carry_first = |carry: &Carry, c: usize, f: usize| match fresh.get(f) {
        Some(x) => c < end && carry.key(c) < x.key(),
        None => true,
    };
    if let Some(wm) = watermark {
        while c < end || f < fresh.len() {
            if carry_first(carry, c, f) {
                let time = carry.rows.time(c);
                if time > wm {
                    break;
                }
                emit(carry.rows.ty(c), time, carry.rows.attrs(c), carry.scopes[c]);
                c += 1;
            } else {
                let x = fresh[f];
                if x.time > wm {
                    break;
                }
                let row = x.row as usize;
                emit(src.ty(row), x.time, src.attrs(row), x.scope);
                f += 1;
            }
        }
    }
    if f == fresh.len() {
        // nothing of the batch waits: the carry's rest stays where it is
        if c == end {
            carry.clear();
        } else {
            carry.head = c;
        }
    } else {
        spare.clear();
        while c < end || f < fresh.len() {
            if carry_first(carry, c, f) {
                let r = &carry.rows;
                spare.push(
                    r.ty(c),
                    r.time(c),
                    carry.seqs[c],
                    carry.scopes[c],
                    r.attrs(c),
                );
                c += 1;
            } else {
                let x = fresh[f];
                let row = x.row as usize;
                spare.push(src.ty(row), x.time, x.seq, x.scope, src.attrs(row));
                f += 1;
            }
        }
        std::mem::swap(carry, spare);
    }
    fresh.clear();
}

/// The bounded-disorder reorder gate: admit → watermark advance →
/// in-order release, with the drop-and-count late-row policy.
#[derive(Debug)]
pub struct Reorder {
    /// Allowed lateness in milliseconds: the watermark trails the
    /// maximum event time seen by exactly this much.
    lateness: u64,
    /// Highest event time seen so far (monotone).
    frontier: Timestamp,
    /// `frontier − lateness`, monotone; rows with `time < watermark` are
    /// late, rows with `time <= watermark` are ready for release.
    watermark: Timestamp,
    /// Next admission sequence number.
    seq: u64,
    /// Late rows this gate dropped.
    late_dropped: u64,
    /// Admitted rows not yet merged: indices into the batch in hand, or
    /// into `staged` for the row-at-a-time form.
    fresh: Vec<Fresh>,
    /// Rows that outlived their batch, sorted by `(time, seq)`.
    carry: Carry,
    /// The store the next merge writes into before it swaps with `carry`.
    spare: Carry,
    /// Copies of the rows [`Reorder::admit`] took, until they merge.
    staged: EventBatch,
}

impl Reorder {
    /// A gate allowing `lateness` milliseconds of disorder.
    pub fn new(lateness: u64) -> Self {
        Reorder {
            lateness,
            frontier: Timestamp::ZERO,
            watermark: Timestamp::ZERO,
            seq: 0,
            late_dropped: 0,
            fresh: Vec::new(),
            carry: Carry::default(),
            spare: Carry::default(),
            staged: EventBatch::new(),
        }
    }

    /// The configured lateness bound in milliseconds.
    pub fn lateness(&self) -> u64 {
        self.lateness
    }

    /// The current watermark.
    pub fn watermark(&self) -> Timestamp {
        self.watermark
    }

    /// Late rows this gate has dropped (crash-exact: serialized into
    /// checkpoints).
    pub fn late_rows_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Buffered rows awaiting release.
    pub fn pending_len(&self) -> usize {
        self.carry.live() + self.fresh.len()
    }

    /// Record one selected row for admission, or — if its event time is
    /// already behind the watermark — drop and count it.
    #[inline]
    fn admit_index(&mut self, time: Timestamp, row: u32, scope: u32) -> bool {
        if time < self.watermark {
            self.late_dropped += 1;
            sharon_metrics::record_late_rows_dropped(1);
            return false;
        }
        self.fresh.push(Fresh {
            time,
            seq: self.seq,
            row,
            scope,
        });
        self.seq += 1;
        true
    }

    /// Merge the row-at-a-time form's admissions into the carry.
    fn settle(&mut self) {
        if self.fresh.is_empty() {
            return;
        }
        let Reorder {
            fresh,
            carry,
            spare,
            staged,
            ..
        } = self;
        release(carry, spare, fresh, staged, None, &mut |_, _, _, _| {});
        staged.clear();
    }

    /// The gate's whole step for one batch, while the batch is alive:
    /// admit the selected rows (`lists[i]` are the rows of scope `i`, in
    /// that order; late rows are dropped and counted), advance the
    /// watermark to `frontier − lateness` (monotone), then hand every
    /// buffered row the watermark has passed to `emit(ty, time, attrs,
    /// scope)` in ascending `(time, seq)` order. Attributes are borrowed
    /// from `batch` or the carry; only rows still waiting are copied.
    pub fn process<'r>(
        &mut self,
        batch: &EventBatch,
        lists: impl IntoIterator<Item = &'r [u32]>,
        frontier: Timestamp,
        mut emit: impl FnMut(EventTypeId, Timestamp, &[Value], u32),
    ) {
        self.settle();
        for (scope, list) in lists.into_iter().enumerate() {
            for &row in list {
                self.admit_index(batch.time(row as usize), row, scope as u32);
            }
        }
        self.advance(frontier);
        let Reorder {
            fresh,
            carry,
            spare,
            watermark,
            ..
        } = self;
        release(carry, spare, fresh, batch, Some(*watermark), &mut emit);
    }

    /// End of stream: open the gate and hand every buffered row to `emit`
    /// (see [`Reorder::process`]).
    pub fn flush(&mut self, mut emit: impl FnMut(EventTypeId, Timestamp, &[Value], u32)) {
        self.open();
        let Reorder {
            fresh,
            carry,
            spare,
            staged,
            watermark,
            ..
        } = self;
        // `process` leaves `fresh` empty: any rows in it are `admit`'s,
        // indexing `staged`
        release(carry, spare, fresh, staged, Some(*watermark), &mut emit);
        staged.clear();
    }

    /// Admit one row, copying it into the gate, or — if its event time is
    /// already behind the watermark — drop and count it. Returns `true` if
    /// the row was buffered. The row-at-a-time form over the same carry
    /// as [`Reorder::process`], which every owner uses; it is kept for
    /// the benchmark rig's gate probe, as are the two ignored flags.
    pub fn admit(
        &mut self,
        ty: EventTypeId,
        time: Timestamp,
        attrs: &[Value],
        scope: u32,
        _pre_routed: bool,
        _unused: bool,
    ) -> bool {
        let row = self.staged.len() as u32;
        let admitted = self.admit_index(time, row, scope);
        if admitted {
            self.staged.push(ty, time, attrs);
        }
        admitted
    }

    /// Advance the watermark to `frontier − lateness` (monotone: an older
    /// frontier — e.g. the event time of a late row — never moves it
    /// backwards). The row-at-a-time form calls this after admitting a
    /// batch's rows, then drains [`Reorder::pop_ready`].
    pub fn advance(&mut self, frontier: Timestamp) {
        self.frontier = self.frontier.max(frontier);
        let wm = Timestamp(self.frontier.millis().saturating_sub(self.lateness));
        self.watermark = self.watermark.max(wm);
    }

    /// Open the gate completely (end of stream): every buffered row
    /// becomes ready.
    pub fn open(&mut self) {
        self.watermark = Timestamp(u64::MAX);
    }

    /// Pop the next row whose time the watermark has passed, in
    /// ascending `(time, seq)` order; [`Reorder::attrs`] reads its
    /// attributes.
    pub fn pop_ready(&mut self) -> Option<PendingRow> {
        self.settle();
        let c = &mut self.carry;
        if c.live() == 0 || c.rows.time(c.head) > self.watermark {
            return None;
        }
        let slot = c.head;
        c.head += 1;
        Some(PendingRow {
            time: c.rows.time(slot),
            seq: c.seqs[slot],
            ty: c.rows.ty(slot),
            scope: c.scopes[slot],
            slot,
        })
    }

    /// The attributes of `row`, the gate's latest [`Reorder::pop_ready`].
    pub fn attrs(&self, row: &PendingRow) -> &[Value] {
        self.carry.rows.attrs(row.slot)
    }

    /// Done with a popped row: its slot is reclaimed when the carry next
    /// merges. Kept for the benchmark rig's gate probe.
    pub fn recycle(&mut self, row: PendingRow) {
        debug_assert!(row.slot < self.carry.head, "recycling a row not popped");
    }

    /// Serialize the gate (watermark, admission counter, late-drop count,
    /// pending rows). Rows are written in `(time, seq)` order so
    /// identical state yields identical bytes; every row was selected
    /// before admission, so each is written with `pre_routed` true.
    pub fn save_state(&mut self, w: &mut StateWriter) {
        self.settle();
        w.u64(self.lateness);
        w.time(self.frontier);
        w.time(self.watermark);
        w.u64(self.seq);
        w.u64(self.late_dropped);
        let c = &self.carry;
        w.seq_len(c.live());
        for i in c.head..c.seqs.len() {
            w.time(c.rows.time(i));
            w.u64(c.seqs[i]);
            w.u32(c.rows.ty(i).0);
            w.u32(c.scopes[i]);
            w.bool(true);
            let attrs = c.rows.attrs(i);
            w.seq_len(attrs.len());
            for v in attrs {
                w.value(v);
            }
        }
    }

    /// Restore the state written by [`Reorder::save_state`]. The
    /// configured lateness must match — a resume under a different bound
    /// would silently change which rows count as late.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let lateness = r.u64()?;
        if lateness != self.lateness {
            return Err(StateError::Corrupt(
                "checkpoint lateness differs from the configured lateness",
            ));
        }
        self.frontier = r.time()?;
        self.watermark = r.time()?;
        self.seq = r.u64()?;
        self.late_dropped = r.u64()?;
        self.fresh.clear();
        self.staged.clear();
        self.carry.clear();
        let mut attrs = Vec::new();
        for _ in 0..r.seq_len()? {
            let time = r.time()?;
            let seq = r.u64()?;
            let ty = EventTypeId(r.u32()?);
            let scope = r.u32()?;
            r.bool()?; // pre_routed: always true
            attrs.clear();
            for _ in 0..r.seq_len()? {
                attrs.push(r.value()?);
            }
            let c = &self.carry;
            if c.live() > 0 && c.key(c.seqs.len() - 1) >= (time, seq) {
                return Err(StateError::Corrupt("gate rows out of (time, seq) order"));
            }
            self.carry.push(ty, time, seq, scope, &attrs);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// A released row: `(ty, time, scope, attrs)`.
    type Released = (u32, u64, u32, Vec<Value>);

    fn collect(out: &mut Vec<Released>) -> impl FnMut(EventTypeId, Timestamp, &[Value], u32) + '_ {
        |ty, time, attrs, scope| out.push((ty.0, time.millis(), scope, attrs.to_vec()))
    }

    fn batch_of(times: &[u64]) -> EventBatch {
        let mut b = EventBatch::new();
        for &t in times {
            b.push(EventTypeId(0), Timestamp(t), &[Value::Int(t as i64)]);
        }
        b
    }

    /// Feed `times` as one batch (every row selected, scope 0) and return
    /// the released times.
    fn step(g: &mut Reorder, times: &[u64], frontier: u64) -> Vec<u64> {
        let batch = batch_of(times);
        let rows: Vec<u32> = (0..times.len() as u32).collect();
        let mut out = Vec::new();
        g.process(
            &batch,
            [rows.as_slice()],
            Timestamp(frontier),
            |_, t, attrs, _| {
                assert_eq!(attrs, &[Value::Int(t.millis() as i64)]);
                out.push(t.millis());
            },
        );
        out
    }

    fn flush(g: &mut Reorder) -> Vec<u64> {
        let mut out = Vec::new();
        g.flush(|_, t, _, _| out.push(t.millis()));
        out
    }

    fn admit(g: &mut Reorder, t: u64) -> bool {
        g.admit(
            EventTypeId(0),
            Timestamp(t),
            &[Value::Int(t as i64)],
            0,
            true,
            false,
        )
    }

    fn drain(g: &mut Reorder) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(row) = g.pop_ready() {
            assert_eq!(g.attrs(&row), &[Value::Int(row.time.millis() as i64)]);
            out.push(row.time.millis());
            g.recycle(row);
        }
        out
    }

    #[test]
    fn releases_in_time_order_once_watermark_passes() {
        let mut g = Reorder::new(5);
        assert_eq!(step(&mut g, &[10, 7, 12, 9, 11], 12), vec![7]); // watermark 7
        assert_eq!(g.pending_len(), 4);
        assert_eq!(step(&mut g, &[16, 8], 16), vec![8, 9, 10, 11]); // watermark 11
        assert_eq!(flush(&mut g), vec![12, 16]);
        assert_eq!(g.late_rows_dropped(), 0);
        assert_eq!(g.pending_len(), 0);
    }

    #[test]
    fn the_row_form_releases_in_time_order_too() {
        let mut g = Reorder::new(5);
        for t in [10u64, 7, 12, 9, 11] {
            assert!(admit(&mut g, t));
        }
        g.advance(Timestamp(12)); // watermark 7
        assert_eq!(drain(&mut g), vec![7]);
        g.advance(Timestamp(16)); // watermark 11
        assert_eq!(drain(&mut g), vec![9, 10, 11]);
        g.open();
        assert_eq!(drain(&mut g), vec![12]);
    }

    #[test]
    fn late_rows_are_dropped_and_counted() {
        let mut g = Reorder::new(2);
        assert_eq!(step(&mut g, &[10], 10), Vec::<u64>::new()); // watermark 8
        assert_eq!(
            step(&mut g, &[7, 8], 0),
            vec![8],
            "7 is late, 8 == watermark"
        );
        assert_eq!(g.late_rows_dropped(), 1);
        assert!(!admit(&mut g, 7), "the row form drops it as well");
        assert_eq!(g.late_rows_dropped(), 2);
        assert_eq!(flush(&mut g), vec![10]);
    }

    #[test]
    fn watermark_is_monotone_under_late_frontiers() {
        let mut g = Reorder::new(0);
        g.advance(Timestamp(100));
        g.advance(Timestamp(50)); // a late row's time must not regress it
        assert_eq!(g.watermark(), Timestamp(100));
    }

    #[test]
    fn equal_timestamps_release_in_admission_order() {
        // three scopes select the same row, then a second batch adds a row
        // of equal time: admission order across scopes and batches
        let mut g = Reorder::new(10);
        let batch = batch_of(&[5]);
        let row: &[u32] = &[0];
        let mut out = Vec::new();
        g.process(&batch, [row, row, row], Timestamp(5), collect(&mut out));
        g.process(&batch, [row], Timestamp(5), collect(&mut out));
        assert!(out.is_empty());
        g.flush(collect(&mut out));
        let scopes: Vec<u32> = out.iter().map(|r| r.2).collect();
        assert_eq!(scopes, vec![0, 1, 2, 0]);
    }

    #[test]
    fn state_round_trips() {
        let mut g = Reorder::new(5);
        assert_eq!(step(&mut g, &[10, 7, 12], 12), vec![7]); // leaves {10, 12}
        step(&mut g, &[6], 0); // late: dropped + counted
        let mut w = StateWriter::new();
        g.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = Reorder::new(5);
        let mut r = StateReader::new(&bytes);
        restored.load_state(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(restored.watermark(), g.watermark());
        assert_eq!(restored.late_rows_dropped(), 1);
        assert_eq!(restored.pending_len(), 2);
        assert_eq!(flush(&mut restored), vec![10, 12]);

        // lateness mismatch is refused, not silently re-interpreted
        let mut wrong = Reorder::new(9);
        assert!(wrong.load_state(&mut StateReader::new(&bytes)).is_err());
    }

    /// A gate row as the checkpoint lists it: `(time, seq, ty, scope,
    /// attrs)`.
    type SavedRow = (u64, u64, u32, u32, Vec<Value>);

    /// The v6 gate layout, written field by field from plain values —
    /// independent of the gate's own encoder: lateness, frontier,
    /// watermark, admission counter and late-drop count, then the rows in
    /// `(time, seq)` order, each with `pre_routed` true.
    fn v6_gate_bytes(head: [u64; 5], rows: &[SavedRow]) -> Vec<u8> {
        let mut w = StateWriter::new();
        for v in head {
            w.u64(v);
        }
        w.u64(rows.len() as u64);
        for (time, seq, ty, scope, attrs) in rows {
            w.u64(*time);
            w.u64(*seq);
            w.u32(*ty);
            w.u32(*scope);
            w.u8(1);
            w.u64(attrs.len() as u64);
            for v in attrs {
                match v {
                    Value::Int(i) => {
                        w.u8(0);
                        w.i64(*i);
                    }
                    Value::Float(f) => {
                        w.u8(1);
                        w.u64(f.to_bits());
                    }
                    Value::Str(s) => {
                        w.u8(2);
                        w.u64(s.len() as u64);
                        for b in s.bytes() {
                            w.u8(b);
                        }
                    }
                }
            }
        }
        w.into_bytes()
    }

    #[test]
    fn checkpoint_bytes_are_the_v6_gate_layout() {
        // two scopes, rows carried across batches, one late drop, mixed
        // value kinds: the saved bytes are exactly the v6 layout
        let mut g = Reorder::new(4);
        let mut b = EventBatch::new();
        b.push(
            EventTypeId(3),
            Timestamp(20),
            &[Value::Int(-2), Value::str("ab")],
        );
        b.push(EventTypeId(1), Timestamp(17), &[Value::Float(0.5)]);
        b.push(EventTypeId(2), Timestamp(15), &[]);
        let mut out = Vec::new();
        // scope 0 selects rows 0 and 2, scope 1 rows 1 and 2; watermark 14
        g.process(
            &b,
            [&[0u32, 2][..], &[1, 2]],
            Timestamp(18),
            collect(&mut out),
        );
        let mut late = EventBatch::new();
        late.push(EventTypeId(1), Timestamp(3), &[]);
        late.push(EventTypeId(1), Timestamp(18), &[Value::Int(7)]);
        g.process(&late, [&[0u32, 1][..]], Timestamp(17), collect(&mut out));
        assert!(out.is_empty(), "watermark 14 releases nothing");
        let mut w = StateWriter::new();
        g.save_state(&mut w);
        let rows = [
            (15, 1, 2, 0, vec![]),
            (15, 3, 2, 1, vec![]),
            (17, 2, 1, 1, vec![Value::Float(0.5)]),
            (18, 4, 1, 0, vec![Value::Int(7)]),
            (20, 0, 3, 0, vec![Value::Int(-2), Value::str("ab")]),
        ];
        assert_eq!(w.into_bytes(), v6_gate_bytes([4, 18, 14, 5, 1], &rows));
    }

    /// The reference gate: everything admitted, stable-sorted by
    /// `(time, seq)` and released at each watermark.
    #[derive(Default)]
    struct Model {
        pending: Vec<(u64, u64, Released)>,
        seq: u64,
        frontier: u64,
        watermark: u64,
        dropped: u64,
        out: Vec<Released>,
    }

    impl Model {
        fn admit(&mut self, row: Released) {
            if row.1 < self.watermark {
                self.dropped += 1;
            } else {
                self.pending.push((row.1, self.seq, row));
                self.seq += 1;
            }
        }

        fn release(&mut self, frontier: u64, lateness: u64) {
            self.frontier = self.frontier.max(frontier);
            self.watermark = self.watermark.max(self.frontier.saturating_sub(lateness));
            self.pending.sort_by_key(|p| (p.0, p.1));
            let ready = self.pending.partition_point(|p| p.0 <= self.watermark);
            self.out.extend(self.pending.drain(..ready).map(|p| p.2));
        }
    }

    /// One batch of a drawn scenario: rows, per-scope selections, frontier.
    struct Step {
        batch: EventBatch,
        lists: Vec<Vec<u32>>,
        frontier: u64,
    }

    /// Batches with bounded disorder around a rising clock, occasional
    /// late rows, empty batches, frontiers at or below the batch maximum,
    /// and `scopes` scopes each selecting a random subset of the rows.
    fn scenario(rng: &mut TestRng, scopes: usize, batches: usize) -> Vec<Step> {
        let mut clock = 20u64;
        (0..batches)
            .map(|_| {
                let mut batch = EventBatch::new();
                for _ in 0..rng.below(9) {
                    clock += rng.below(3);
                    let time = match rng.below(10) {
                        0 => clock.saturating_sub(10 + rng.below(10)), // late
                        _ => clock.saturating_sub(rng.below(6)),
                    };
                    let attrs: Vec<Value> = (0..rng.below(3))
                        .map(|i| match rng.below(4) {
                            0 => Value::str(if i == 0 { "a" } else { "bc" }),
                            1 => Value::Float(rng.below(8) as f64 / 2.0),
                            _ => Value::Int(rng.below(100) as i64),
                        })
                        .collect();
                    batch.push(EventTypeId(rng.below(4) as u32), Timestamp(time), &attrs);
                }
                let lists = (0..scopes)
                    .map(|_| {
                        (0..batch.len() as u32)
                            .filter(|_| rng.below(3) > 0)
                            .collect()
                    })
                    .collect();
                let max = batch.max_time().map_or(0, Timestamp::millis);
                let frontier = match rng.below(4) {
                    0 => max.saturating_sub(rng.below(8)),
                    1 => 0,
                    _ => max,
                };
                Step {
                    batch,
                    lists,
                    frontier,
                }
            })
            .collect()
    }

    fn round_trip(g: &mut Reorder) {
        let mut w = StateWriter::new();
        g.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Reorder::new(g.lateness());
        let mut r = StateReader::new(&bytes);
        restored
            .load_state(&mut r)
            .expect("the gate's own bytes load");
        assert!(r.is_exhausted());
        *g = restored;
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn the_gate_matches_a_sorting_model(
            seed in any::<u64>(),
            scopes in 1usize..=3,
            batches in 1usize..14,
            lateness in 0u64..8,
            save_at in 0usize..16,
            row_form in any::<bool>(),
        ) {
            let mut rng = TestRng::new(seed);
            let steps = scenario(&mut rng, scopes, batches);
            let mut model = Model::default();
            let mut gate = Reorder::new(lateness);
            let mut got: Vec<Released> = Vec::new();
            for (i, s) in steps.iter().enumerate() {
                if i == save_at {
                    round_trip(&mut gate);
                }
                let b = &s.batch;
                for (scope, list) in s.lists.iter().enumerate() {
                    for &row in list {
                        let row = row as usize;
                        let (ty, time) = (b.ty(row).0, b.time(row).millis());
                        model.admit((ty, time, scope as u32, b.attrs(row).to_vec()));
                    }
                }
                model.release(s.frontier, lateness);
                if row_form {
                    for (scope, list) in s.lists.iter().enumerate() {
                        for &row in list {
                            let row = row as usize;
                            gate.admit(b.ty(row), b.time(row), b.attrs(row), scope as u32, true, false);
                        }
                    }
                    gate.advance(Timestamp(s.frontier));
                    while let Some(row) = gate.pop_ready() {
                        let attrs = gate.attrs(&row).to_vec();
                        got.push((row.ty.0, row.time.millis(), row.scope, attrs));
                        gate.recycle(row);
                    }
                } else {
                    let lists = s.lists.iter().map(Vec::as_slice);
                    gate.process(b, lists, Timestamp(s.frontier), collect(&mut got));
                }
                prop_assert_eq!(gate.pending_len(), model.pending.len());
            }
            if save_at == batches {
                round_trip(&mut gate);
            }
            model.release(u64::MAX, 0);
            gate.flush(collect(&mut got));
            prop_assert_eq!(&got, &model.out);
            prop_assert_eq!(gate.late_rows_dropped(), model.dropped);
            prop_assert_eq!(gate.pending_len(), 0);
        }
    }
}
