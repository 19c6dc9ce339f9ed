//! Chain contribution logs.
//!
//! The Shared method must combine "the count of `prefixᵢ` [...] with the
//! count for each START event of `p`" (Section 3.3). A naive
//! implementation snapshots the per-window prefix counts at every START
//! event of the shared segment, paying `O(starts × windows)` per
//! completion batch. A [`ChainLog`] avoids that: it records every
//! contribution folded into a chain stage as a *range-compressed* entry
//! `(time, window range, value)`, and each START record stores only the
//! log **offset** at its STARTs' arrival (STARTs share a record only under
//! equal offsets). The per-record "snapshot" is then the sum of all
//! entries before the offset — and a whole completion batch folds
//! in `O(log entries + records + windows)` using suffix sums (see
//! `Engine::dispatch`), because
//!
//! ```text
//! Σᵢ snapshotᵢ × δᵢ  =  Σⱼ entryⱼ × (Σ_{i : offᵢ > j} δᵢ)
//! ```
//!
//! Same-timestamp isolation needs no pending buffer: entries carry their
//! event time and arrive in time order, so the entries an event at `t`
//! may see are exactly the prefix with `time < t` — an offset captured at
//! `t` never covers contributions of other time-`t` events.

use crate::agg::Aggregate;
use crate::checkpoint::{StateError, StateReader, StateWriter};
use crate::winvec::WinSeq;
use sharon_types::Timestamp;
use std::collections::VecDeque;

/// One folded contribution: `value` added to every window in
/// `lo ..= hi`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LogEntry<A> {
    /// The event time that produced it: visible to strictly later events.
    pub time: Timestamp,
    /// First window sequence covered.
    pub lo: WinSeq,
    /// Last window sequence covered (inclusive).
    pub hi: WinSeq,
    /// The contribution.
    pub value: A,
}

/// An append-only, front-expiring log of chain contributions.
#[derive(Debug, Clone)]
pub(crate) struct ChainLog<A> {
    /// Absolute index of `entries.front()`.
    base: u64,
    entries: VecDeque<LogEntry<A>>,
}

impl<A: Aggregate> Default for ChainLog<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Aggregate> ChainLog<A> {
    /// An empty log.
    pub(crate) fn new() -> Self {
        ChainLog {
            base: 0,
            entries: VecDeque::new(),
        }
    }

    /// Record `value` over windows `lo ..= hi`, performed at `now` (no
    /// earlier than any recorded entry).
    #[inline]
    pub(crate) fn add_range(&mut self, now: Timestamp, lo: WinSeq, hi: WinSeq, value: A) {
        if value.is_zero() || lo > hi {
            return;
        }
        debug_assert!(self.entries.back().is_none_or(|e| e.time <= now));
        self.entries.push_back(LogEntry {
            time: now,
            lo,
            hi,
            value,
        });
    }

    /// The absolute offset separating contributions strictly before `now`
    /// from later ones. Stored per START record of the next chain stage.
    #[inline]
    pub(crate) fn offset_at(&self, now: Timestamp) -> u64 {
        let same_time = self.entries.iter().rev().take_while(|e| e.time >= now);
        self.base + (self.entries.len() - same_time.count()) as u64
    }

    /// Iterate the entries visible at `now` (`time < now`) as
    /// `(absolute index, entry)`, oldest first.
    pub(crate) fn iter_before(&self, now: Timestamp) -> impl Iterator<Item = (u64, &LogEntry<A>)> {
        self.entries
            .iter()
            .take_while(move |e| e.time < now)
            .enumerate()
            .map(move |(i, e)| (self.base + i as u64, e))
    }

    /// Drop leading entries whose whole window range closed before
    /// `close_seq` — they can no longer contribute to any result.
    #[inline]
    pub(crate) fn drop_dead(&mut self, close_seq: WinSeq) {
        while self.entries.front().is_some_and(|e| e.hi < close_seq) {
            self.entries.pop_front();
            self.base += 1;
        }
    }

    /// Entries currently held.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Serialize the log — its entries and the absolute base offset (START
    /// events of later stages hold absolute offsets into this log, so the
    /// base must survive a restore).
    pub(crate) fn save_state(&self, w: &mut StateWriter) {
        w.u64(self.base);
        w.seq_len(self.entries.len());
        for e in &self.entries {
            w.time(e.time);
            w.u64(e.lo);
            w.u64(e.hi);
            e.value.save(w);
        }
    }

    /// Decode a log written by [`ChainLog::save_state`].
    pub(crate) fn load_state(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let base = r.u64()?;
        let n = r.seq_len()?;
        let mut entries = VecDeque::with_capacity(n);
        for _ in 0..n {
            entries.push_back(LogEntry {
                time: r.time()?,
                lo: r.u64()?,
                hi: r.u64()?,
                value: A::load(r)?,
            });
        }
        Ok(ChainLog { base, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::CountCell;

    fn c(n: u128) -> CountCell {
        CountCell(n)
    }

    #[test]
    fn entries_become_visible_only_later() {
        let mut log: ChainLog<CountCell> = ChainLog::new();
        log.add_range(Timestamp(5), 0, 2, c(1));
        assert_eq!(log.offset_at(Timestamp(5)), 0, "same-time adds invisible");
        assert_eq!(log.iter_before(Timestamp(5)).count(), 0);
        assert_eq!(log.offset_at(Timestamp(6)), 1);
        assert_eq!(log.iter_before(Timestamp(6)).count(), 1);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn offsets_partition_the_log() {
        let mut log: ChainLog<CountCell> = ChainLog::new();
        log.add_range(Timestamp(1), 0, 0, c(1));
        let off_a = log.offset_at(Timestamp(2)); // sees entry 0
        log.add_range(Timestamp(2), 1, 1, c(2));
        log.add_range(Timestamp(2), 2, 2, c(2));
        assert_eq!(log.offset_at(Timestamp(2)), off_a, "a t=2 batch stays out");
        let off_b = log.offset_at(Timestamp(3)); // sees all three
        assert_eq!((off_a, off_b), (1, 3));
        let idx: Vec<u64> = log.iter_before(Timestamp(3)).map(|(j, _)| j).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn zero_or_empty_ranges_ignored() {
        let mut log: ChainLog<CountCell> = ChainLog::new();
        log.add_range(Timestamp(1), 0, 3, c(0));
        log.add_range(Timestamp(1), 3, 1, c(5));
        assert_eq!(log.offset_at(Timestamp(9)), 0);
        assert_eq!(log.len(), 0);
    }

    #[test]
    fn drop_dead_removes_closed_ranges_and_keeps_indices_stable() {
        let mut log: ChainLog<CountCell> = ChainLog::new();
        log.add_range(Timestamp(1), 0, 1, c(1));
        log.add_range(Timestamp(2), 2, 4, c(2));
        log.drop_dead(2);
        assert_eq!(log.len(), 1);
        let (j, e) = log.iter_before(Timestamp(10)).next().unwrap();
        assert_eq!(j, 1, "absolute index survives front drops");
        assert_eq!(e.lo, 2);
        // an offset captured before the drop still compares correctly
        assert_eq!(log.offset_at(Timestamp(11)), 2);
    }

    #[test]
    fn state_round_trips_with_base_and_same_time_tail() {
        let mut log: ChainLog<CountCell> = ChainLog::new();
        log.add_range(Timestamp(1), 0, 1, c(1));
        log.add_range(Timestamp(2), 2, 4, c(2));
        log.drop_dead(2); // base becomes 1
        log.add_range(Timestamp(11), 5, 6, c(3));

        let mut w = StateWriter::new();
        log.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let got: ChainLog<CountCell> = ChainLog::load_state(&mut r).unwrap();
        assert!(r.is_exhausted());

        // absolute indexing survives (base restored)
        let (j, e) = got.iter_before(Timestamp(11)).next().unwrap();
        assert_eq!((j, e.lo, e.hi), (1, 2, 4));
        // the t=11 entry is still invisible at its own time, visible later
        assert_eq!(got.offset_at(Timestamp(11)), 2);
        assert_eq!(got.offset_at(Timestamp(12)), 3);
    }
}
