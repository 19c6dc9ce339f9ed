//! Segment runners: online aggregation of one pattern segment.
//!
//! This is the kernel of the Non-Shared method (Section 3.2, borrowed from
//! A-Seq): "it maintains a count for each prefix of a pattern. The count of
//! a prefix of length `j` is incrementally computed based on its previous
//! value and the new value of the count of the prefix of length `j − 1`",
//! and "we maintain the aggregates per each matched START event" so that
//! expired START events can be discarded without recomputation
//! (Figure 6(b)).
//!
//! A [`SegmentRunner`] aggregates one contiguous pattern segment — a whole
//! query pattern in the Non-Shared method, or a prefix/shared/suffix piece
//! in the Shared method. A runner for a *shared* candidate is maintained
//! once and consulted by every query in `Q_p` (Section 3.3, step 1).
//!
//! Strict sequence semantics: an event never extends state written by
//! another event with the same timestamp. Per-cell pending buffers enforce
//! this.
//!
//! # One record per slide and offsets
//!
//! Windows start on slide boundaries, so the STARTs of one slide fall into
//! exactly the same windows, and one aggregate per slide is enough (the
//! pane idea of Li et al., "No pane, no gain", SIGMOD Record 2005). A live
//! **record** therefore holds every START of one slide that arrived under
//! the same chain offsets: a START folds its unit aggregate into the
//! newest record's first cell when that record's first START lies in the
//! START's slide and carries the same offsets, and opens a record
//! otherwise. A record with a single START is the per-START record of
//! A-Seq, so the codec is unchanged. Folding is exact:
//!
//! 1. A START in slide `B` feeds only windows `min_seq ..= B`. The stage-0
//!    fold keys a completion on `first START / slide`, which is `B` for
//!    every member of a record.
//! 2. A record expires by its first START `s_first`. A later member then
//!    shares no open window with the current event:
//!    `B·slide ≤ s_first < now + 1 − within`. For a chained runner, equal
//!    offsets mean every prefix a later member sees began before
//!    `s_first`.
//! 3. Equal offsets are equal chain snapshots, and `merge` / `extend` /
//!    `cross` distribute over each other (the [`Aggregate`] laws), so a
//!    record computes the sums of its members.
//! 4. Same-timestamp isolation stays in each cell's pending time: a START
//!    folded at `t` is pending until a strictly later event reads it.
//!
//! `StatsCell` sums re-associate inside a record; a group that sees the
//! same rows in the same order (sequential, sharded, resumed) computes the
//! same bits.

use crate::agg::{Aggregate, Contribution};
use crate::checkpoint::{StateError, StateReader, StateWriter};
use sharon_types::Timestamp;

/// One aggregate with same-timestamp isolation.
#[derive(Debug, Clone, Copy)]
struct Cell<A> {
    committed: A,
    pending: A,
    pending_time: Timestamp,
}

impl<A: Aggregate> Cell<A> {
    const ZERO: Self = Cell {
        committed: A::ZERO,
        pending: A::ZERO,
        pending_time: Timestamp::ZERO,
    };

    #[inline]
    fn settle(&mut self, now: Timestamp) {
        if self.pending_time < now && !self.pending.is_zero() {
            self.committed.merge(&self.pending);
            self.pending = A::ZERO;
        }
    }

    #[inline]
    fn read(&mut self, now: Timestamp) -> A {
        self.settle(now);
        self.committed
    }

    #[inline]
    fn add(&mut self, now: Timestamp, delta: &A) {
        self.settle(now);
        self.pending_time = now;
        self.pending.merge(delta);
    }
}

/// Online aggregation state for one pattern segment of length ≥ 2.
///
/// (Length-1 segments need no state at all: each matching event is
/// simultaneously START and END, handled inline by the engine.)
///
/// The live records sit, oldest first, in one growable ring of
/// fixed-stride slots `[first START time | chain offset per start
/// subscription | len − 1 cells]`: cell `j` of a record is the aggregate
/// of all sequences of the prefix `(E₁ … E_{j+1})` that begin at one of
/// the record's STARTs (the final position `E_l` is not stored —
/// completions are consumed at once by the window accumulators or the
/// chain combiner), and offset `k` is where the chain log feeding the
/// runner's `k`-th stage > 0 subscription stood when those STARTs arrived
/// (see the module doc for when STARTs share a record). Expiring moves the
/// head; a new record reuses a freed slot, so the steady state allocates
/// nothing, and the times, offsets and cells of a record cannot drift
/// apart.
#[derive(Debug, Clone)]
pub struct SegmentRunner<A> {
    /// Cells per record: the segment length − 1.
    width: usize,
    /// Chain offsets per record.
    n_offs: usize,
    /// Ring position of the oldest live record.
    head: usize,
    /// Live records.
    live: usize,
    /// Records the ring holds: zero or a power of two.
    cap: usize,
    /// Per record the START time, then its chain offsets.
    meta: Vec<u64>,
    cells: Vec<Cell<A>>,
}

impl<A: Aggregate> SegmentRunner<A> {
    /// A runner for a segment of `len` event types (`len ≥ 2`) whose
    /// records each hold `n_offs` chain-log offsets.
    pub fn new(len: usize, n_offs: usize) -> Self {
        assert!(len >= 2, "length-1 segments are stateless");
        SegmentRunner {
            width: len - 1,
            n_offs,
            head: 0,
            live: 0,
            cap: 0,
            meta: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// Number of live records.
    pub fn live_records(&self) -> usize {
        self.live
    }

    /// Ring position of live record `idx` (0 = oldest).
    #[inline]
    fn pos(&self, idx: usize) -> usize {
        (self.head + idx) & (self.cap - 1)
    }

    /// The first START time of the live record at `idx` (0 = oldest).
    #[inline]
    pub fn start_time(&self, idx: usize) -> Timestamp {
        Timestamp(self.meta[self.pos(idx) * (1 + self.n_offs)])
    }

    /// Chain offset `k` of the live record at `idx`.
    #[inline]
    pub fn offset(&self, idx: usize, k: usize) -> u64 {
        self.meta[self.pos(idx) * (1 + self.n_offs) + 1 + k]
    }

    /// Drop the records whose first START is before `dead_before`: no
    /// member can fall in a window together with the current event
    /// (Section 3.2, "only the counts of not-expired START events are
    /// updated"; the module doc, point 2). Returns how many were dropped.
    #[inline]
    pub fn expire(&mut self, dead_before: Timestamp) -> usize {
        let before = self.live;
        while self.live > 0 && self.start_time(0) < dead_before {
            self.head = self.pos(1);
            self.live -= 1;
        }
        before - self.live
    }

    /// Double the ring (4 records at first), moving the live records to
    /// its start.
    #[cold]
    fn grow(&mut self) {
        let cap = (self.cap * 2).max(4);
        let stride = 1 + self.n_offs;
        let mut meta = Vec::with_capacity(cap * stride);
        let mut cells = Vec::with_capacity(cap * self.width);
        for idx in 0..self.live {
            let p = self.pos(idx);
            meta.extend_from_slice(&self.meta[p * stride..(p + 1) * stride]);
            cells.extend_from_slice(&self.cells[p * self.width..(p + 1) * self.width]);
        }
        meta.resize(cap * stride, 0);
        cells.resize(cap * self.width, Cell::ZERO);
        (self.meta, self.cells, self.head, self.cap) = (meta, cells, 0, cap);
    }

    /// A START-type event arrived at `time`, in the slide beginning at
    /// `slide_start`, with chain offsets `offs`: its unit aggregate,
    /// visible to strictly later events, joins the newest record if that
    /// record's first START is in the same slide and its offsets equal
    /// `offs`, and opens a new record otherwise.
    pub fn on_start(
        &mut self,
        time: Timestamp,
        slide_start: Timestamp,
        offs: &[u64],
        c: Contribution,
    ) {
        debug_assert_eq!(offs.len(), self.n_offs, "one offset per subscription");
        debug_assert!(
            self.live == 0 || self.start_time(self.live - 1) <= time,
            "events must arrive in timestamp order"
        );
        let stride = 1 + self.n_offs;
        if self.live > 0 {
            let p = self.pos(self.live - 1);
            let meta = &self.meta[p * stride..(p + 1) * stride];
            if meta[0] >= slide_start.millis() && meta[1..] == *offs {
                self.cells[p * self.width].add(time, &A::unit(c));
                return;
            }
        }
        if self.live == self.cap {
            self.grow();
        }
        let p = self.pos(self.live);
        self.live += 1;
        let cells = &mut self.cells[p * self.width..(p + 1) * self.width];
        cells.fill(Cell::ZERO);
        cells[0].pending = A::unit(c);
        cells[0].pending_time = time;
        let meta = &mut self.meta[p * stride..(p + 1) * stride];
        meta[0] = time.millis();
        meta[1..].copy_from_slice(offs);
    }

    /// A MID-type event arrived at 0-based pattern position `pos`
    /// (`1 ≤ pos ≤ len − 2`): for every live record whose first START is
    /// strictly older than the event, extend the length-`pos` prefix
    /// aggregate into the length-`pos + 1` one (members at the event's own
    /// time are still pending and stay out).
    pub fn on_mid(&mut self, pos: usize, time: Timestamp, c: Contribution) {
        debug_assert!(pos >= 1 && pos < self.width, "mid position out of range");
        for idx in 0..self.live {
            if self.start_time(idx) >= time {
                break;
            }
            let at = self.pos(idx) * self.width + pos;
            let prev = self.cells[at - 1].read(time);
            if !prev.is_zero() {
                self.cells[at].add(time, &prev.extend(c));
            }
        }
    }

    /// An END-type event arrived: report, per live record, the aggregate
    /// of the *newly completed* sequences (those ending at this event).
    /// The callback receives `(record_index, first_start_time, delta)`.
    pub fn on_end<F: FnMut(usize, Timestamp, A)>(
        &mut self,
        time: Timestamp,
        c: Contribution,
        mut on_completion: F,
    ) {
        for idx in 0..self.live {
            let start = self.start_time(idx);
            if start >= time {
                break;
            }
            let last = (self.pos(idx) + 1) * self.width - 1;
            let prev = self.cells[last].read(time);
            if !prev.is_zero() {
                on_completion(idx, start, prev.extend(c));
            }
        }
    }

    /// Aggregate cells and chain offsets of the live records (for memory
    /// reporting).
    pub fn cell_count(&self) -> usize {
        self.live * (self.width + self.n_offs)
    }

    /// Serialize the live records, oldest first, each with its offsets
    /// and cells (committed + pending, preserving the strict `<`
    /// same-timestamp isolation).
    pub(crate) fn save_state(&self, w: &mut StateWriter) {
        w.seq_len(self.width);
        w.seq_len(self.n_offs);
        w.seq_len(self.live);
        for idx in 0..self.live {
            let p = self.pos(idx);
            for &word in &self.meta[p * (1 + self.n_offs)..(p + 1) * (1 + self.n_offs)] {
                w.u64(word);
            }
            for cell in &self.cells[p * self.width..(p + 1) * self.width] {
                cell.committed.save(w);
                cell.pending.save(w);
                w.time(cell.pending_time);
            }
        }
    }

    /// Decode a runner written by [`SegmentRunner::save_state`] for the
    /// same segment length and offset count.
    pub(crate) fn load_state(
        r: &mut StateReader<'_>,
        len: usize,
        n_offs: usize,
    ) -> Result<Self, StateError> {
        let mut runner = Self::new(len, n_offs);
        if (r.seq_len()?, r.seq_len()?) != (runner.width, n_offs) {
            return Err(StateError::Corrupt("START record shape"));
        }
        runner.live = r.seq_len()?;
        for _ in 0..runner.live {
            for _ in 0..1 + n_offs {
                runner.meta.push(r.u64()?);
            }
            for _ in 0..runner.width {
                runner.cells.push(Cell {
                    committed: A::load(r)?,
                    pending: A::load(r)?,
                    pending_time: r.time()?,
                });
            }
        }
        if runner.live > 0 {
            runner.cap = runner.live.next_power_of_two();
            runner.meta.resize(runner.cap * (1 + n_offs), 0);
            runner.cells.resize(runner.cap * runner.width, Cell::ZERO);
        }
        Ok(runner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::CountCell;

    const NONE: Contribution = Contribution::NONE;

    fn runner(len: usize) -> SegmentRunner<CountCell> {
        SegmentRunner::new(len, 0)
    }

    /// A START under 1 ms slides: every timestamp is a slide of its own,
    /// so STARTs at distinct times keep distinct records.
    fn start(runner: &mut SegmentRunner<CountCell>, t: u64) {
        runner.on_start(Timestamp(t), Timestamp(t), &[], NONE);
    }

    fn completions(runner: &mut SegmentRunner<CountCell>, t: u64) -> Vec<(u64, u128)> {
        let mut out = Vec::new();
        runner.on_end(Timestamp(t), NONE, |_, st, d| out.push((st.millis(), d.0)));
        out
    }

    /// Figure 6(a): pattern (A,B) over a1, b2, a3, b4 — count(A,B) = 3.
    #[test]
    fn online_sequence_count_example_1() {
        let mut r = runner(2);
        start(&mut r, 1); // a1
        assert_eq!(completions(&mut r, 2), vec![(1, 1)]); // b2: (a1,b2)
        start(&mut r, 3); // a3
        let b4 = completions(&mut r, 4);
        assert_eq!(b4, vec![(1, 1), (3, 1)], "b4 forms (a1,b4) and (a3,b4)");
        // total across b2 and b4 = 3, the paper's count(A,B)
        assert_eq!(1 + b4.iter().map(|(_, d)| d).sum::<u128>(), 3);
    }

    /// Figure 6(b): window length 4; when b5 arrives, a1 (time 1) is
    /// expired and only a2's count updates.
    #[test]
    fn expiration_example_2() {
        let mut r = runner(2);
        start(&mut r, 1); // a1
        start(&mut r, 2); // a2
                          // b5 arrives: STARTs at or before 5 - 4 = 1 are dead
        assert_eq!(r.expire(Timestamp(2)), 1);
        assert_eq!(r.live_records(), 1);
        assert_eq!(completions(&mut r, 5), vec![(2, 1)]);
    }

    #[test]
    fn three_type_pattern_with_mid_events() {
        // pattern (A, B, C): a1 b2 b3 c4 -> sequences (a1,b2,c4), (a1,b3,c4)
        let mut r = runner(3);
        start(&mut r, 1);
        r.on_mid(1, Timestamp(2), NONE);
        r.on_mid(1, Timestamp(3), NONE);
        assert_eq!(completions(&mut r, 4), vec![(1, 2)]);
        // a second c5 completes the same two again
        assert_eq!(completions(&mut r, 5), vec![(1, 2)]);
    }

    #[test]
    fn same_timestamp_events_do_not_chain() {
        // pattern (A, B): a at t=5, b at t=5 -> no sequence (strict <)
        let mut r = runner(2);
        start(&mut r, 5);
        assert_eq!(completions(&mut r, 5), vec![]);
        // but a later b works
        assert_eq!(completions(&mut r, 6), vec![(5, 1)]);
    }

    #[test]
    fn same_timestamp_mid_chain_is_blocked() {
        // pattern (A, B, C): a1, b5, c5 -> c5 must not see b5's update
        let mut r = runner(3);
        start(&mut r, 1);
        r.on_mid(1, Timestamp(5), NONE);
        assert_eq!(completions(&mut r, 5), vec![]);
        // c6 does see it
        assert_eq!(completions(&mut r, 6), vec![(1, 1)]);
    }

    #[test]
    fn multiple_starts_accumulate_prefix_counts() {
        // pattern (A, B, C): a1 a2 b3 c4 -> (a1,b3,c4), (a2,b3,c4)
        let mut r = runner(3);
        start(&mut r, 1);
        start(&mut r, 2);
        r.on_mid(1, Timestamp(3), NONE);
        assert_eq!(completions(&mut r, 4), vec![(1, 1), (2, 1)]);
    }

    #[test]
    fn zero_prefixes_produce_no_completions() {
        // pattern (A, B, C) with no B yet: C produces nothing
        let mut r = runner(3);
        start(&mut r, 1);
        assert_eq!(completions(&mut r, 2), vec![]);
    }

    #[test]
    fn starts_of_one_slide_fold_into_one_record() {
        // pattern (A, B, C) under 4 ms slides: a4 a5 a5 b5 a7 share the
        // record of slide 4, a8 opens slide 8's; then b9 c10
        let mut r = runner(3);
        let slide_of = |t: u64| Timestamp(t / 4 * 4);
        for t in [4, 5, 5] {
            r.on_start(Timestamp(t), slide_of(t), &[], NONE);
        }
        r.on_mid(1, Timestamp(5), NONE); // extends a4 only: a5 is pending
        for t in [7, 8] {
            r.on_start(Timestamp(t), slide_of(t), &[], NONE);
        }
        assert_eq!(r.live_records(), 2, "one record per slide");
        assert_eq!(r.cell_count(), 2 * 2);
        r.on_mid(1, Timestamp(9), NONE);
        // per START: a4 pairs with b5 and b9, each a5 and a7 with b9, a8
        // with b9 — 2 + 2 + 1 = 5 in slide 4's record, 1 in slide 8's
        assert_eq!(completions(&mut r, 10), vec![(4, 5), (8, 1)]);

        // a length-2 record: an END at a member's own time sees only the
        // members before it
        let mut r = runner(2);
        r.on_start(Timestamp(4), slide_of(4), &[], NONE);
        r.on_start(Timestamp(5), slide_of(5), &[], NONE);
        assert_eq!(completions(&mut r, 5), vec![(4, 1)]);
        assert_eq!(completions(&mut r, 6), vec![(4, 2)]);
        assert_eq!(r.live_records(), 1);
    }

    #[test]
    fn a_new_offset_inside_a_slide_opens_a_record() {
        // under 10 ms slides, STARTs fold while their chain offsets agree;
        // a new offset opens a record mid-slide, and a new slide opens one
        // even under equal offsets
        let mut r: SegmentRunner<CountCell> = SegmentRunner::new(2, 1);
        for (t, off) in [(11, 3), (12, 3), (13, 4), (14, 4), (21, 4)] {
            r.on_start(Timestamp(t), Timestamp(t / 10 * 10), &[off], NONE);
        }
        assert_eq!(r.live_records(), 3);
        let records: Vec<(Timestamp, u64)> =
            (0..3).map(|i| (r.start_time(i), r.offset(i, 0))).collect();
        assert_eq!(
            records,
            vec![(Timestamp(11), 3), (Timestamp(13), 4), (Timestamp(21), 4)]
        );
        assert_eq!(completions(&mut r, 30), vec![(11, 2), (13, 2), (21, 1)]);
    }

    #[test]
    fn the_ring_grows_turns_and_keeps_offsets_beside_their_start() {
        let mut r: SegmentRunner<CountCell> = SegmentRunner::new(4, 2);
        assert_eq!(r.cell_count(), 0);
        let open = |r: &mut SegmentRunner<CountCell>, t: u64| {
            r.on_start(Timestamp(t), Timestamp(t), &[10 * t, 10 * t + 1], NONE);
        };
        for t in 1..=5u64 {
            open(&mut r, t);
        }
        assert_eq!((r.live_records(), r.cap), (5, 8), "grew 4 -> 8 in place");
        assert_eq!(r.cell_count(), 5 * (3 + 2));
        assert_eq!(r.expire(Timestamp(4)), 3);
        assert_eq!(r.expire(Timestamp(4)), 0, "idempotent");
        // six more records wrap around the 8-slot ring without growing
        for t in 6..=11u64 {
            open(&mut r, t);
        }
        assert_eq!((r.live_records(), r.cap), (8, 8));
        for (idx, t) in (4..=11u64).enumerate() {
            assert_eq!(r.start_time(idx), Timestamp(t));
            assert_eq!((r.offset(idx, 0), r.offset(idx, 1)), (10 * t, 10 * t + 1));
        }
    }

    #[test]
    #[should_panic(expected = "length-1 segments are stateless")]
    fn length_one_rejected() {
        let _ = runner(1);
    }

    #[test]
    fn state_round_trips_preserving_same_time_isolation() {
        let mut r: SegmentRunner<CountCell> = SegmentRunner::new(3, 1);
        r.on_start(Timestamp(1), Timestamp(1), &[7], NONE);
        r.on_mid(1, Timestamp(2), NONE);
        r.on_start(Timestamp(2), Timestamp(2), &[9], NONE); // pending at t=2
        let mut w = StateWriter::new();
        r.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut rd = StateReader::new(&bytes);
        let mut got: SegmentRunner<CountCell> = SegmentRunner::load_state(&mut rd, 3, 1).unwrap();
        assert!(rd.is_exhausted());
        assert_eq!(got.live_records(), 2);
        assert_eq!((got.offset(0, 0), got.offset(1, 0)), (7, 9));
        // t=2's START and mid-update stay invisible at t=2, visible at t=3
        assert_eq!(completions(&mut got, 2), vec![]);
        assert_eq!(completions(&mut got, 3), vec![(1, 1)]);
        // the restored ring keeps working as a ring
        got.on_start(Timestamp(4), Timestamp(4), &[11], NONE);
        assert_eq!(got.offset(2, 0), 11);
        // a runner of another shape refuses the bytes
        for (len, n_offs) in [(4, 1), (3, 0)] {
            let mut rd = StateReader::new(&bytes);
            assert!(SegmentRunner::<CountCell>::load_state(&mut rd, len, n_offs).is_err());
        }
    }

    #[test]
    fn a_reused_record_starts_from_zero() {
        // the recycled cells must behave exactly like fresh ones
        let mut r = runner(3);
        for t in 1..=4 {
            start(&mut r, t);
        }
        r.on_mid(1, Timestamp(5), NONE); // dirty every second cell
        assert_eq!(r.expire(Timestamp(5)), 4);
        start(&mut r, 6); // reuses the first slot
        assert_eq!(r.cap, 4);
        // a C now must see no completion: the dirty mid-cell was reset
        assert_eq!(completions(&mut r, 7), vec![]);
        r.on_mid(1, Timestamp(8), NONE);
        assert_eq!(completions(&mut r, 9), vec![(6, 1)]);
    }
}
