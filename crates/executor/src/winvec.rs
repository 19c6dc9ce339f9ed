//! Window-aligned aggregate state.
//!
//! Sliding windows make every running aggregate *per window instance*: an
//! END event "updates the final counts for all windows that e falls into"
//! (Section 3.2). Window instances are indexed by their *sequence number*
//! `start / slide`.
//!
//! * A [`WindowPlane`] is the engine's per-group block: every per-window
//!   accumulator of the group lives in one ring with one slot per open
//!   window and one column per accumulator.
//! * A [`WinVec`] is the single growable accumulator of the two-step
//!   baselines.
//!
//! Both enforce the strict `<` sequence semantics between same-timestamp
//! events where a reader can exist: updates performed at time `t` stay in
//! a *pending* buffer that readers at the same time `t` do not observe;
//! the buffer is folded into the committed state as soon as time advances.

use crate::agg::Aggregate;
use crate::checkpoint::{StateError, StateReader, StateWriter};
use sharon_types::Timestamp;
use std::collections::VecDeque;

/// Sequence number of a window instance (`start / slide`).
pub(crate) type WinSeq = u64;

/// A range add waiting for the group's time to advance.
#[derive(Debug, Clone, Copy)]
struct PendingAdd<A> {
    col: u32,
    lo: WinSeq,
    hi: WinSeq,
    value: A,
}

/// Every per-window accumulator of one group in one ring: slot `s` holds
/// the cells of one open window, one cell per column. The engine gives a
/// column to each query's final accumulator and to each chain-stage
/// mirror a unit stage reads (`CompiledPartition::n_cols`).
///
/// Two kinds of write. *Direct* adds ([`WindowPlane::add_dense`]) are for
/// columns nothing reads before their window closes (finals). *Pending*
/// adds ([`WindowPlane::add_pending`]) are for columns read in place
/// ([`WindowPlane::get`]) by other events: they wait in one list for the
/// whole plane until [`WindowPlane::settle`] sees a later timestamp, so a
/// reader never observes an add carrying its own timestamp.
///
/// The ring never grows: at time `t` the open windows are
/// `first_seq ..= t / slide`, at most [`sharon_types::WindowSpec::max_open`]
/// of them once the caller has closed everything that ended by `t`.
#[derive(Debug, Clone)]
pub(crate) struct WindowPlane<A> {
    /// The oldest open window — the close watermark: every window before
    /// it has been emitted.
    first_seq: WinSeq,
    /// Ring slot of `first_seq`.
    head: usize,
    n_cols: usize,
    /// `slots × n_cols` cells, slot-major.
    cells: Box<[A]>,
    pending: Vec<PendingAdd<A>>,
    pending_time: Timestamp,
}

impl<A: Aggregate> WindowPlane<A> {
    /// An all-zero plane of `n_slots` windows × `n_cols` accumulators,
    /// starting at window 0.
    pub(crate) fn new(n_slots: usize, n_cols: usize) -> Self {
        assert!(n_slots > 0 && n_cols > 0, "a plane has at least one cell");
        WindowPlane {
            first_seq: 0,
            head: 0,
            n_cols,
            cells: vec![A::ZERO; n_slots * n_cols].into_boxed_slice(),
            pending: Vec::new(),
            pending_time: Timestamp::ZERO,
        }
    }

    /// The oldest open window: everything before it is closed.
    #[inline]
    pub(crate) fn first_seq(&self) -> WinSeq {
        self.first_seq
    }

    /// Index of window `seq`'s first cell.
    #[inline]
    fn slot(&self, seq: WinSeq) -> usize {
        debug_assert!(
            seq >= self.first_seq
                && ((seq - self.first_seq) as usize) < self.cells.len() / self.n_cols,
            "window {seq} is outside the open range starting at {}",
            self.first_seq
        );
        let at = (self.head + (seq - self.first_seq) as usize) * self.n_cols;
        if at >= self.cells.len() {
            at - self.cells.len()
        } else {
            at
        }
    }

    /// Cell indexes of column `col` from window `lo` on, around the ring.
    #[inline]
    fn column_from(&self, col: usize, lo: WinSeq) -> impl Iterator<Item = usize> {
        let (len, step) = (self.cells.len(), self.n_cols);
        std::iter::successors(Some(self.slot(lo) + col), move |&at| {
            Some(if at + step < len {
                at + step
            } else {
                at + step - len
            })
        })
    }

    /// Merge `totals[i]` into column `col` of window `lo + i`, visible at
    /// once.
    #[inline]
    pub(crate) fn add_dense(&mut self, col: usize, lo: WinSeq, totals: &[A]) {
        if totals.is_empty() {
            return;
        }
        for (at, v) in self.column_from(col, lo).zip(totals) {
            self.cells[at].merge(v);
        }
    }

    /// Merge `value` into column `col` of windows `lo ..= hi` as of `now`:
    /// invisible to [`WindowPlane::get`] until [`WindowPlane::settle`] is
    /// called with a later time. The caller settles before the first add
    /// of a new timestamp.
    #[inline]
    pub(crate) fn add_pending(
        &mut self,
        now: Timestamp,
        col: usize,
        lo: WinSeq,
        hi: WinSeq,
        value: A,
    ) {
        debug_assert!(
            self.pending.is_empty() || self.pending_time == now,
            "settle before adding at a new timestamp"
        );
        self.pending_time = now;
        self.pending.push(PendingAdd {
            col: col as u32,
            lo,
            hi,
            value,
        });
    }

    /// Make every pending add older than `now` visible.
    #[inline]
    pub(crate) fn settle(&mut self, now: Timestamp) {
        if !self.pending.is_empty() && self.pending_time < now {
            self.flush();
        }
    }

    fn flush(&mut self) {
        for i in 0..self.pending.len() {
            let p = self.pending[i];
            let windows = (p.hi - p.lo + 1) as usize;
            for at in self.column_from(p.col as usize, p.lo).take(windows) {
                self.cells[at].merge(&p.value);
            }
        }
        self.pending.clear();
    }

    /// Column `col` of open window `seq`, without the pending adds.
    #[inline]
    pub(crate) fn get(&self, col: usize, seq: WinSeq) -> A {
        self.cells[self.slot(seq) + col]
    }

    /// Close every window before `cutoff`, oldest first: `emit` sees the
    /// window's cells (one per column), then the slot is zeroed for the
    /// window that will reuse it. Pending adds are left alone — between
    /// [`WindowPlane::settle`] and the adds of the same timestamp there
    /// are none for a window that ended.
    pub(crate) fn close_before(&mut self, cutoff: WinSeq, mut emit: impl FnMut(WinSeq, &[A])) {
        if cutoff <= self.first_seq {
            return;
        }
        let n_slots = self.cells.len() / self.n_cols;
        // after a gap longer than the ring, one lap visits every slot
        let n = (cutoff - self.first_seq).min(n_slots as u64) as usize;
        for i in 0..n {
            let at = self.head * self.n_cols;
            let slot = &mut self.cells[at..at + self.n_cols];
            emit(self.first_seq + i as u64, slot);
            slot.fill(A::ZERO);
            self.head += 1;
            if self.head == n_slots {
                self.head = 0;
            }
        }
        self.first_seq = cutoff;
    }

    /// Non-zero cells of open windows (memory proxy).
    pub(crate) fn live_cells(&self) -> usize {
        self.cells.iter().filter(|c| !c.is_zero()).count()
    }

    /// Serialize the plane: the watermark, the open windows up to the
    /// last one holding a value, and the pending adds with their
    /// timestamp, so a restore keeps the strict `<` semantics.
    pub(crate) fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.first_seq);
        w.seq_len(self.n_cols);
        let n_slots = self.cells.len() / self.n_cols;
        let window = |i: usize| {
            let at = (self.head + i) % n_slots * self.n_cols;
            &self.cells[at..at + self.n_cols]
        };
        let used = (0..n_slots)
            .rev()
            .find(|&i| window(i).iter().any(|c| !c.is_zero()))
            .map_or(0, |i| i + 1);
        w.seq_len(used);
        for i in 0..used {
            for c in window(i) {
                c.save(w);
            }
        }
        w.time(self.pending_time);
        w.seq_len(self.pending.len());
        for p in &self.pending {
            w.u32(p.col);
            w.u64(p.lo);
            w.u64(p.hi);
            p.value.save(w);
        }
    }

    /// Decode a plane written by [`WindowPlane::save_state`] for the same
    /// dimensions.
    pub(crate) fn load_state(
        r: &mut StateReader<'_>,
        n_slots: usize,
        n_cols: usize,
    ) -> Result<Self, StateError> {
        let mut plane = Self::new(n_slots, n_cols);
        plane.first_seq = r.u64()?;
        if r.seq_len()? != n_cols {
            return Err(StateError::Corrupt("window plane column count"));
        }
        let used = r.seq_len()?;
        if used > n_slots {
            return Err(StateError::Corrupt("window plane holds more windows"));
        }
        for cell in &mut plane.cells[..used * n_cols] {
            *cell = A::load(r)?;
        }
        plane.pending_time = r.time()?;
        let open = plane.first_seq..plane.first_seq.saturating_add(n_slots as u64);
        for _ in 0..r.seq_len()? {
            let (col, lo, hi) = (r.u32()?, r.u64()?, r.u64()?);
            if col as usize >= n_cols || lo > hi || !open.contains(&lo) || !open.contains(&hi) {
                return Err(StateError::Corrupt("pending add outside the window plane"));
            }
            let value = A::load(r)?;
            plane.pending.push(PendingAdd { col, lo, hi, value });
        }
        Ok(plane)
    }
}

/// One aggregate cell per open window instance of a single accumulator,
/// with same-timestamp isolation (see module docs): the per-group final
/// accumulator of the two-step baselines.
#[derive(Debug, Clone)]
pub struct WinVec<A> {
    first_seq: WinSeq,
    committed: VecDeque<A>,
    /// Sparse updates performed at `pending_time`, not yet visible.
    pending: Vec<(WinSeq, A)>,
    pending_time: Timestamp,
}

impl<A: Aggregate> Default for WinVec<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Aggregate> WinVec<A> {
    /// An empty vector.
    pub fn new() -> Self {
        WinVec {
            first_seq: 0,
            committed: VecDeque::new(),
            pending: Vec::new(),
            pending_time: Timestamp::ZERO,
        }
    }

    fn commit(&mut self) {
        // index loop instead of draining by value: the pending buffer is
        // cleared but keeps its capacity, so steady-state commits never
        // re-allocate it (cells are `Copy`)
        for i in 0..self.pending.len() {
            let (seq, delta) = self.pending[i];
            if self.committed.is_empty() {
                self.first_seq = seq;
                self.committed.push_back(A::ZERO);
            } else if seq < self.first_seq {
                // a delta for a window older than any tracked: extend front
                for _ in 0..(self.first_seq - seq) {
                    self.committed.push_front(A::ZERO);
                }
                self.first_seq = seq;
            }
            let idx = (seq - self.first_seq) as usize;
            while idx >= self.committed.len() {
                self.committed.push_back(A::ZERO);
            }
            self.committed[idx].merge(&delta);
        }
        self.pending.clear();
    }

    /// Add `delta` to every window in `seq_lo..=seq_hi`, performed at
    /// `now`: a completed sequence belongs to every window containing its
    /// START event and the current END event.
    pub fn add_range(&mut self, now: Timestamp, seq_lo: WinSeq, seq_hi: WinSeq, delta: A) {
        if delta.is_zero() {
            return;
        }
        if !self.pending.is_empty() && self.pending_time < now {
            self.commit();
        }
        self.pending_time = now;
        for seq in seq_lo..=seq_hi {
            self.pending.push((seq, delta));
        }
    }

    /// Remove and return the non-zero final values of all windows with
    /// `seq < cutoff`, in increasing `seq` order. Called when windows
    /// close: "a result is returned per group and per window"
    /// (Definition 2).
    pub fn drain_before(&mut self, cutoff: WinSeq) -> Vec<(WinSeq, A)> {
        let mut out = Vec::new();
        self.drain_before_into(cutoff, &mut out);
        out
    }

    /// [`WinVec::drain_before`] into a caller-owned buffer, so a
    /// window-close path allocates nothing in steady state. Appends to
    /// `out` without clearing it.
    pub fn drain_before_into(&mut self, cutoff: WinSeq, out: &mut Vec<(WinSeq, A)>) {
        self.commit();
        while self.first_seq < cutoff {
            match self.committed.pop_front() {
                Some(v) => {
                    if !v.is_zero() {
                        out.push((self.first_seq, v));
                    }
                    self.first_seq += 1;
                }
                None => {
                    self.first_seq = cutoff;
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::CountCell;

    fn c(n: u128) -> CountCell {
        CountCell(n)
    }

    fn closed(p: &mut WindowPlane<CountCell>, cutoff: WinSeq) -> Vec<(WinSeq, Vec<u128>)> {
        let mut out = Vec::new();
        p.close_before(cutoff, |seq, cells| {
            out.push((seq, cells.iter().map(|c| c.0).collect()));
        });
        out
    }

    #[test]
    fn direct_adds_are_visible_at_once_pending_adds_only_later() {
        let mut p: WindowPlane<CountCell> = WindowPlane::new(4, 2);
        p.add_dense(0, 1, &[c(2), c(3)]);
        assert_eq!((p.get(0, 1), p.get(0, 2), p.get(0, 3)), (c(2), c(3), c(0)));
        p.add_pending(Timestamp(5), 1, 0, 2, c(7));
        p.settle(Timestamp(5));
        assert_eq!(p.get(1, 1), c(0), "a reader at t=5 must not see a t=5 add");
        p.settle(Timestamp(6));
        assert_eq!((p.get(1, 0), p.get(1, 2), p.get(1, 3)), (c(7), c(7), c(0)));
        assert_eq!(p.live_cells(), 5);
    }

    #[test]
    fn closing_emits_in_window_order_and_recycles_the_slots() {
        let mut p: WindowPlane<CountCell> = WindowPlane::new(3, 2);
        p.add_dense(0, 0, &[c(1), c(2), c(3)]);
        p.add_dense(1, 2, &[c(9)]);
        assert_eq!(closed(&mut p, 2), vec![(0, vec![1, 0]), (1, vec![2, 0])]);
        assert_eq!(p.first_seq(), 2);
        assert_eq!(closed(&mut p, 2), vec![], "idempotent");
        // windows 3 and 4 reuse the slots of 0 and 1: they start from zero
        p.add_dense(0, 3, &[c(5), c(6)]);
        assert_eq!(
            closed(&mut p, 5),
            vec![(2, vec![3, 9]), (3, vec![5, 0]), (4, vec![6, 0])]
        );
    }

    #[test]
    fn a_gap_longer_than_the_ring_closes_one_lap() {
        let mut p: WindowPlane<CountCell> = WindowPlane::new(3, 1);
        p.add_dense(0, 1, &[c(4)]);
        let got = closed(&mut p, 1_000_000);
        assert_eq!(got, vec![(0, vec![0]), (1, vec![4]), (2, vec![0])]);
        assert_eq!(p.first_seq(), 1_000_000);
        p.add_dense(0, 1_000_002, &[c(1)]);
        assert_eq!(p.get(0, 1_000_002), c(1));
        assert_eq!(p.live_cells(), 1);
    }

    #[test]
    fn state_round_trips_with_a_turned_ring_and_pending_adds() {
        let mut p: WindowPlane<CountCell> = WindowPlane::new(4, 2);
        p.add_dense(0, 0, &[c(1), c(2), c(3), c(4)]);
        closed(&mut p, 3); // head now sits on the fourth slot
        p.add_dense(1, 4, &[c(8)]);
        p.add_pending(Timestamp(9), 1, 3, 5, c(5));
        let mut w = StateWriter::new();
        p.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let mut got: WindowPlane<CountCell> = WindowPlane::load_state(&mut r, 4, 2).unwrap();
        assert!(r.is_exhausted());
        got.settle(Timestamp(9));
        assert_eq!(got.get(1, 4), c(8), "still pending at its own timestamp");
        got.settle(Timestamp(10));
        assert_eq!(
            closed(&mut got, 7),
            vec![
                (3, vec![4, 5]),
                (4, vec![0, 13]),
                (5, vec![0, 5]),
                (6, vec![0, 0])
            ]
        );
        // a plane of other dimensions refuses the bytes
        for (n_slots, n_cols) in [(1, 2), (4, 3)] {
            let mut r = StateReader::new(&bytes);
            assert!(WindowPlane::<CountCell>::load_state(&mut r, n_slots, n_cols).is_err());
        }
    }

    #[test]
    fn winvec_commits_same_time_adds_together_and_drains_in_order() {
        let mut v: WinVec<CountCell> = WinVec::new();
        v.add_range(Timestamp(5), 3, 4, c(2));
        v.add_range(Timestamp(5), 3, 3, c(1));
        v.add_range(Timestamp(6), 1, 1, c(7)); // older window: extends the front
        v.add_range(Timestamp(6), 9, 9, c(0)); // ignored: zero delta
        assert_eq!(v.drain_before(4), vec![(1, c(7)), (3, c(3))]);
        assert_eq!(v.drain_before(u64::MAX), vec![(4, c(2))]);
        assert_eq!(v.drain_before(u64::MAX), vec![]);
    }
}
