//! Explicit event sequence construction.
//!
//! The defining weakness of the two-step approaches is that they "first
//! construct event sequences and then aggregate them. Since the number of
//! event sequences is polynomial in the number of events, event sequence
//! construction is an expensive step" (Section 1). This module is that
//! step: a time-ordered buffer per pattern position and a DFS that
//! *enumerates every sequence* ending at a given END event. No counting
//! shortcuts are taken — that is the point of the baseline.

use sharon_executor::{Aggregate, Contribution};
use sharon_types::Timestamp;
use std::collections::VecDeque;

/// Buffered events for one pattern, one buffer per position.
#[derive(Debug, Clone)]
pub(crate) struct SeqBuffers {
    positions: Vec<VecDeque<(Timestamp, Contribution)>>,
}

impl SeqBuffers {
    /// Buffers for a pattern of `len` positions.
    pub(crate) fn new(len: usize) -> Self {
        SeqBuffers {
            positions: (0..len).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Total buffered events (memory proxy — the two-step approaches must
    /// retain raw events for the whole window).
    pub(crate) fn buffered_events(&self) -> usize {
        self.positions.iter().map(VecDeque::len).sum()
    }

    /// Record an event at position `pos`.
    pub(crate) fn push(&mut self, pos: usize, time: Timestamp, c: Contribution) {
        debug_assert!(
            self.positions[pos].back().is_none_or(|(t, _)| *t <= time),
            "events must arrive in timestamp order"
        );
        self.positions[pos].push_back((time, c));
    }

    /// Drop events with `time <= cutoff` from every buffer.
    pub(crate) fn expire(&mut self, cutoff: Timestamp) {
        for buf in &mut self.positions {
            while buf.front().is_some_and(|(t, _)| *t <= cutoff) {
                buf.pop_front();
            }
        }
    }

    /// Enumerate every sequence that ends at an END event with timestamp
    /// `end_time` and contribution `end_c`, invoking the callback with the
    /// sequence's START timestamp and its fully built aggregate cell.
    ///
    /// Positions `0 .. len-1` are drawn from the buffers (strictly
    /// increasing timestamps); the END event itself is supplied by the
    /// caller and must not be buffered yet at its END position.
    pub(crate) fn enumerate_ending<A: Aggregate>(
        &self,
        end_time: Timestamp,
        end_c: Contribution,
        mut on_sequence: impl FnMut(Timestamp, A),
    ) -> u64 {
        let l = self.positions.len();
        if l == 1 {
            on_sequence(end_time, A::unit(end_c));
            return 1;
        }
        // DFS over positions 0..l-1 with strictly increasing times,
        // bounded above by end_time; depth = pattern length
        let mut constructed = 0u64;
        #[allow(clippy::too_many_arguments)]
        fn rec<A: Aggregate>(
            bufs: &[VecDeque<(Timestamp, Contribution)>],
            pos: usize,
            after: Timestamp,
            before: Timestamp,
            cell: A,
            start: Timestamp,
            end_c: Contribution,
            constructed: &mut u64,
            on_sequence: &mut impl FnMut(Timestamp, A),
        ) {
            if pos == bufs.len() {
                *constructed += 1;
                on_sequence(start, cell.extend(end_c));
                return;
            }
            for &(t, c) in bufs[pos].iter() {
                if t >= before {
                    break;
                }
                if pos > 0 && t <= after {
                    continue;
                }
                let next_cell = if pos == 0 { A::unit(c) } else { cell.extend(c) };
                let next_start = if pos == 0 { t } else { start };
                rec(
                    bufs,
                    pos + 1,
                    t,
                    before,
                    next_cell,
                    next_start,
                    end_c,
                    constructed,
                    on_sequence,
                );
            }
        }
        rec(
            &self.positions[..l - 1],
            0,
            Timestamp::ZERO,
            end_time,
            A::ZERO,
            Timestamp::ZERO,
            end_c,
            &mut constructed,
            &mut on_sequence,
        );
        constructed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharon_executor::{CountCell, StatsCell};

    const NONE: Contribution = Contribution::NONE;

    fn collect(bufs: &SeqBuffers, end: u64) -> Vec<(u64, u128)> {
        let mut out = Vec::new();
        bufs.enumerate_ending::<CountCell>(Timestamp(end), NONE, |s, c| {
            out.push((s.millis(), c.0));
        });
        out
    }

    #[test]
    fn pairs() {
        // (A, B): a1 a3; b5 ends sequences (a1,b5), (a3,b5)
        let mut b = SeqBuffers::new(2);
        b.push(0, Timestamp(1), NONE);
        b.push(0, Timestamp(3), NONE);
        assert_eq!(collect(&b, 5), vec![(1, 1), (3, 1)]);
    }

    #[test]
    fn triples_enumerated_one_by_one() {
        // (A,B,C): a1 a2 b3 b4; c5 -> (a1,b3),(a1,b4),(a2,b3),(a2,b4)
        let mut b = SeqBuffers::new(3);
        b.push(0, Timestamp(1), NONE);
        b.push(0, Timestamp(2), NONE);
        b.push(1, Timestamp(3), NONE);
        b.push(1, Timestamp(4), NONE);
        let seqs = collect(&b, 5);
        assert_eq!(seqs.len(), 4, "each sequence constructed explicitly");
        assert_eq!(seqs.iter().filter(|(s, _)| *s == 1).count(), 2);
        let n = b.enumerate_ending::<CountCell>(Timestamp(5), NONE, |_, _| {});
        assert_eq!(n, 4);
    }

    #[test]
    fn strict_time_ordering_within_sequence() {
        // (A,B): a5 buffered; b5 must match nothing
        let mut b = SeqBuffers::new(2);
        b.push(0, Timestamp(5), NONE);
        assert_eq!(collect(&b, 5), vec![]);
        // interleaving position times: (A,B,C) with b2 before a3 is unusable
        let mut b = SeqBuffers::new(3);
        b.push(1, Timestamp(2), NONE);
        b.push(0, Timestamp(3), NONE);
        assert_eq!(collect(&b, 9), vec![]);
    }

    #[test]
    fn length_one_pattern() {
        let b = SeqBuffers::new(1);
        assert_eq!(collect(&b, 7), vec![(7, 1)]);
    }

    #[test]
    fn expiration_drops_old_events() {
        let mut b = SeqBuffers::new(2);
        b.push(0, Timestamp(1), NONE);
        b.push(0, Timestamp(5), NONE);
        b.expire(Timestamp(1));
        assert_eq!(b.buffered_events(), 1);
        assert_eq!(collect(&b, 9), vec![(5, 1)]);
    }

    #[test]
    fn stats_cells_accumulate_along_the_sequence() {
        // SUM over (A,B) both relevant: a1(v=2); end b(v=10) -> sum 12
        let mut b = SeqBuffers::new(2);
        b.push(0, Timestamp(1), Contribution::of(2.0));
        let mut sums = Vec::new();
        b.enumerate_ending::<StatsCell>(Timestamp(3), Contribution::of(10.0), |_, c| {
            sums.push(c.sum);
        });
        assert_eq!(sums, vec![12.0]);
    }
}
