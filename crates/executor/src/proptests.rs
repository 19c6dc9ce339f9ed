//! Property-based tests of the aggregate cell algebra (the laws the
//! executor's correctness rests on, see [`crate::agg::Aggregate`]), of the
//! group block's planes against plain models, and of the group codec.

#![cfg(test)]

use crate::agg::{Aggregate, Contribution, CountCell, StatsCell};
use crate::checkpoint::{StateReader, StateWriter};
use crate::executor::Executor;
use crate::results::tests::assert_equivalent;
use crate::runner::SegmentRunner;
use crate::winvec::{WinVec, WindowPlane};
use proptest::prelude::*;
use sharon_query::{parse_workload, Pattern, PlanCandidate, QueryId, SharingPlan};
use sharon_types::{Catalog, EventBatch, Schema, TimeDelta, Timestamp, Value, WindowSpec};
use std::collections::BTreeMap;

fn contribution() -> impl Strategy<Value = Contribution> {
    (any::<bool>(), -100.0f64..100.0).prop_map(|(relevant, value)| Contribution { relevant, value })
}

fn stats_cell() -> impl Strategy<Value = StatsCell> {
    prop_oneof![
        Just(StatsCell::ZERO),
        (1u32..50, -100.0f64..100.0, contribution()).prop_map(|(n, v, c)| {
            let mut acc = StatsCell::unit(Contribution::of(v));
            for _ in 1..n {
                acc.merge(&StatsCell::unit(c));
            }
            acc
        }),
    ]
}

fn count_cell() -> impl Strategy<Value = CountCell> {
    (0u128..1_000_000).prop_map(CountCell)
}

fn approx(a: f64, b: f64) -> bool {
    if !a.is_finite() || !b.is_finite() {
        return a == b || (a.is_infinite() && b.is_infinite() && a.signum() == b.signum());
    }
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

fn stats_approx(a: &StatsCell, b: &StatsCell) -> bool {
    a.count == b.count && approx(a.sum, b.sum) && approx(a.min, b.min) && approx(a.max, b.max)
}

proptest! {
    #[test]
    fn count_merge_commutative_associative(a in count_cell(), b in count_cell(), c in count_cell()) {
        let mut ab = a; ab.merge(&b);
        let mut ba = b; ba.merge(&a);
        prop_assert_eq!(ab, ba);
        let mut ab_c = ab; ab_c.merge(&c);
        let mut bc = b; bc.merge(&c);
        let mut a_bc = a; a_bc.merge(&bc);
        prop_assert_eq!(ab_c, a_bc);
        // identity
        let mut az = a; az.merge(&CountCell::ZERO);
        prop_assert_eq!(az, a);
    }

    #[test]
    fn count_cross_distributes_over_merge(a in count_cell(), b in count_cell(), s in count_cell()) {
        let mut merged = a; merged.merge(&b);
        let lhs = s.cross(&merged);
        let mut rhs = s.cross(&a); rhs.merge(&s.cross(&b));
        prop_assert_eq!(lhs, rhs);
        // zero annihilates
        prop_assert!(s.cross(&CountCell::ZERO).is_zero());
        prop_assert!(CountCell::ZERO.cross(&s).is_zero());
    }

    #[test]
    fn count_extend_distributes_over_merge(a in count_cell(), b in count_cell(), c in contribution()) {
        let mut merged = a; merged.merge(&b);
        let lhs = merged.extend(c);
        let mut rhs = a.extend(c); rhs.merge(&b.extend(c));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn stats_merge_commutative(a in stats_cell(), b in stats_cell()) {
        let mut ab = a; ab.merge(&b);
        let mut ba = b; ba.merge(&a);
        prop_assert!(stats_approx(&ab, &ba), "{ab:?} vs {ba:?}");
        let mut az = a; az.merge(&StatsCell::ZERO);
        prop_assert!(stats_approx(&az, &a));
    }

    #[test]
    fn stats_cross_distributes_over_merge(a in stats_cell(), b in stats_cell(), s in stats_cell()) {
        let mut merged = a; merged.merge(&b);
        let lhs = s.cross(&merged);
        let mut rhs = s.cross(&a); rhs.merge(&s.cross(&b));
        prop_assert!(stats_approx(&lhs, &rhs), "{lhs:?} vs {rhs:?}");
    }

    #[test]
    fn stats_extend_distributes_over_merge(a in stats_cell(), b in stats_cell(), c in contribution()) {
        let mut merged = a; merged.merge(&b);
        let lhs = merged.extend(c);
        let mut rhs = a.extend(c); rhs.merge(&b.extend(c));
        prop_assert!(stats_approx(&lhs, &rhs), "{lhs:?} vs {rhs:?}");
    }

    #[test]
    fn stats_cross_associative(a in stats_cell(), b in stats_cell(), c in stats_cell()) {
        let lhs = a.cross(&b).cross(&c);
        let rhs = a.cross(&b.cross(&c));
        prop_assert!(stats_approx(&lhs, &rhs), "{lhs:?} vs {rhs:?}");
    }

    /// WinVec: an arbitrary interleaving of adds (at non-decreasing times)
    /// drains to exactly the per-window sums of the adds, regardless of
    /// when settles happen.
    #[test]
    fn winvec_drain_equals_reference(
        ops in prop::collection::vec((0u64..4, 0u64..8, 0u64..8, 1u128..100), 0..60),
    ) {
        let mut v: WinVec<CountCell> = WinVec::new();
        let mut reference = std::collections::BTreeMap::<u64, u128>::new();
        let mut t = 0u64;
        for (dt, lo, span, n) in ops {
            t += dt;
            let (lo, hi) = (lo, lo + span % 4);
            v.add_range(Timestamp(t), lo, hi, CountCell(n));
            for w in lo..=hi {
                *reference.entry(w).or_insert(0) += n;
            }
        }
        let drained: std::collections::BTreeMap<u64, u128> = v
            .drain_before(u64::MAX)
            .into_iter()
            .map(|(w, c)| (w, c.0))
            .collect();
        prop_assert_eq!(drained, reference);
    }

    /// ChainLog: offsets at increasing times partition entries so that the
    /// entries before an offset are exactly those committed strictly
    /// earlier.
    #[test]
    fn chainlog_offsets_respect_strict_time(
        ops in prop::collection::vec((0u64..3, 0u64..6, 1u128..10), 1..40),
    ) {
        use crate::chainlog::ChainLog;
        let mut log: ChainLog<CountCell> = ChainLog::new();
        let mut t = 0u64;
        let mut adds: Vec<u64> = Vec::new(); // times of all adds, in order
        for (dt, w, n) in ops {
            t += dt;
            let off = log.offset_at(Timestamp(t));
            // entries visible at `t` are exactly the adds with time < t
            let expected = adds.iter().filter(|&&at| at < t).count() as u64;
            prop_assert_eq!(off, expected, "at t={}", t);
            log.add_range(Timestamp(t), w, w, CountCell(n));
            adds.push(t);
        }
        let visible_later: Vec<u64> =
            log.iter_before(Timestamp(t + 1)).map(|(_, e)| e.time.millis()).collect();
        prop_assert_eq!(visible_later, adds);
    }
    /// The window plane against a plain per-window map: random
    /// interleavings of direct range folds (finals), pending range folds
    /// (mirrors), in-place reads at the same and at later timestamps,
    /// closes (also after gaps longer than the ring) and codec round
    /// trips. Checked: strict `<` between equal timestamps, close order,
    /// zero suppression, and that a recycled slot starts from zero.
    #[test]
    fn window_plane_matches_a_per_window_map(
        open in 1u64..6,
        slide in 1u64..4,
        ops in prop::collection::vec((0u8..6, 0u64..12, 0usize..3, 0usize..8, 0usize..8, 1u128..50), 0..90),
    ) {
        const FINALS: usize = 2; // columns 0 and 1 are written directly, 2 is read in place
        let spec = WindowSpec::new(TimeDelta(open * slide), TimeDelta(slide));
        let mut plane: WindowPlane<CountCell> = WindowPlane::new(spec.max_open(), FINALS + 1);
        let mut visible = BTreeMap::<(u64, usize), u128>::new();
        let mut pending: Vec<(u64, u64, u64, u128)> = Vec::new(); // (time, lo, hi, n) on column 2
        let mut t = 0u64;
        let finals_before = |visible: &mut BTreeMap<(u64, usize), u128>, cutoff: u64| {
            let closed: Vec<(u64, usize, u128)> = visible
                .range(..(cutoff, 0))
                .filter(|(&(_, col), _)| col < FINALS)
                .map(|(&(seq, col), &n)| (seq, col, n))
                .collect();
            *visible = visible.split_off(&(cutoff, 0));
            closed
        };
        let closed_by = |plane: &mut WindowPlane<CountCell>, cutoff: u64| {
            let mut closed = Vec::new();
            plane.close_before(cutoff, |seq, cells| {
                let finals = cells[..FINALS].iter().enumerate();
                closed.extend(finals.filter(|(_, c)| !c.is_zero()).map(|(col, c)| (seq, col, c.0)));
            });
            closed
        };
        for (kind, dt, col, lo, span, n) in ops {
            // half the rows share the previous timestamp; some end a long gap
            t += match dt { 0..=5 => 0, 6..=10 => dt - 5, _ => 7 * open * slide };
            // what the engine does before it dispatches a row at `t`
            plane.settle(Timestamp(t));
            for (_, lo, hi, n) in pending.iter().filter(|p| p.0 < t) {
                for seq in *lo..=*hi {
                    *visible.entry((seq, FINALS)).or_insert(0) += n;
                }
            }
            pending.retain(|p| p.0 >= t);
            let min_seq = spec.first_start_covering(Timestamp(t)).millis() / slide;
            prop_assert_eq!(closed_by(&mut plane, min_seq), finals_before(&mut visible, min_seq));
            prop_assert_eq!(plane.first_seq(), min_seq);
            let width = (t / slide - min_seq + 1) as usize;
            let lo = lo % width;
            let hi = lo + span % (width - lo);
            let (seq_lo, seq_hi) = (min_seq + lo as u64, min_seq + hi as u64);
            match kind {
                0 | 1 => {
                    let col = col % FINALS;
                    plane.add_dense(col, seq_lo, &vec![CountCell(n); hi - lo + 1]);
                    for seq in seq_lo..=seq_hi {
                        *visible.entry((seq, col)).or_insert(0) += n;
                    }
                }
                2 | 3 => {
                    plane.add_pending(Timestamp(t), FINALS, seq_lo, seq_hi, CountCell(n));
                    pending.push((t, seq_lo, seq_hi, n));
                }
                4 => {
                    for seq in min_seq..min_seq + width as u64 {
                        let want = visible.get(&(seq, col)).copied().unwrap_or(0);
                        prop_assert_eq!(plane.get(col, seq).0, want, "col {} window {} at t={}", col, seq, t);
                    }
                }
                _ => {
                    let mut w = StateWriter::new();
                    plane.save_state(&mut w);
                    let bytes = w.into_bytes();
                    let mut r = StateReader::new(&bytes);
                    plane = WindowPlane::load_state(&mut r, spec.max_open(), FINALS + 1).unwrap();
                    prop_assert!(r.is_exhausted());
                }
            }
        }
        prop_assert_eq!(closed_by(&mut plane, u64::MAX), finals_before(&mut visible, u64::MAX));
    }

    /// The runner of a 3-type segment against a per-START reference, under
    /// slides 1–4 and windows of one to four slides: random STARTs (in
    /// runs of equal chain offsets and across new ones, often several per
    /// slide and per timestamp), mids, ENDs, expiries as the engine and a
    /// lagging caller issue them, and codec round trips. Records fold
    /// STARTs, so an END is compared summed per (start slide, offset) over
    /// the slides it can still feed, together with the offset-weighted
    /// sums a chain fold reads; the live records are the reference's
    /// slide-and-offset runs.
    #[test]
    fn runner_ring_matches_the_event_history(
        slide in 1u64..=4,
        span in 1u64..=4,
        ops in prop::collection::vec((0u8..8, 0u64..3, 0u8..4, 0u64..3), 0..120),
    ) {
        use crate::agg::Contribution;
        let within = slide * span;
        let mut ring: SegmentRunner<CountCell> = SegmentRunner::new(3, 1);
        let mut starts: Vec<(u64, u64)> = Vec::new(); // every START (time, offset)
        let mut records = std::collections::VecDeque::<(u64, u64)>::new(); // (first START, offset)
        let mut mids: Vec<u64> = Vec::new();
        let (mut t, mut off) = (0u64, 0u64);
        // the prefix aggregate a chain log holding entries 1, 2, … shows a
        // record at offset `o`
        let snapshot = |o: u64| u128::from(o * (o + 1) / 2);
        for (kind, dt, bump, lag) in ops {
            t += dt;
            // the first open window at `t`, and the expiry bound the
            // engine applies (`lag` > 0: a caller that expires less)
            let min_seq = (t + 1).saturating_sub(within).div_ceil(slide);
            let dead_before = (t + 1).saturating_sub(within + lag);
            if kind < 7 {
                ring.expire(Timestamp(dead_before));
                while records.front().is_some_and(|r| r.0 < dead_before) {
                    records.pop_front();
                }
            }
            match kind {
                0..=2 => {
                    off += u64::from(bump == 0); // a new chain entry now and then
                    let slide_start = t / slide * slide;
                    ring.on_start(Timestamp(t), Timestamp(slide_start), &[off], Contribution::NONE);
                    starts.push((t, off));
                    if !records.back().is_some_and(|&(first, o)| first >= slide_start && o == off) {
                        records.push_back((t, off));
                    }
                }
                3 | 4 => {
                    ring.on_mid(1, Timestamp(t), Contribution::NONE);
                    mids.push(t);
                }
                5 | 6 => {
                    let mut reported = Vec::new();
                    ring.on_end(Timestamp(t), Contribution::NONE, |idx, st, d| {
                        reported.push((idx, st.millis() / slide, d.0));
                    });
                    let mut got = BTreeMap::<(u64, u64), u128>::new();
                    for (idx, seq, n) in reported {
                        if seq >= min_seq {
                            *got.entry((seq, ring.offset(idx, 0))).or_default() += n;
                        }
                    }
                    let mut want = BTreeMap::<(u64, u64), u128>::new();
                    for &(st, o) in starts.iter().filter(|s| s.0 / slide >= min_seq) {
                        let n = mids.iter().filter(|&&m| st < m && m < t).count() as u128;
                        if n > 0 {
                            *want.entry((st / slide, o)).or_default() += n;
                        }
                    }
                    prop_assert_eq!(&got, &want, "END at t={}", t);
                    let chained = |m: &BTreeMap<(u64, u64), u128>| {
                        let mut per_seq = BTreeMap::<u64, u128>::new();
                        for (&(seq, o), &n) in m {
                            *per_seq.entry(seq).or_default() += snapshot(o) * n;
                        }
                        per_seq
                    };
                    prop_assert_eq!(chained(&got), chained(&want), "chain fold at t={}", t);
                }
                _ => {
                    let mut w = StateWriter::new();
                    ring.save_state(&mut w);
                    let bytes = w.into_bytes();
                    let mut r = StateReader::new(&bytes);
                    ring = SegmentRunner::load_state(&mut r, 3, 1).unwrap();
                    prop_assert!(r.is_exhausted());
                }
            }
            let live: Vec<(u64, u64)> = (0..ring.live_records())
                .map(|idx| (ring.start_time(idx).millis(), ring.offset(idx, 0)))
                .collect();
            prop_assert_eq!(live, Vec::from(records.clone()), "records at t={}", t);
        }
    }
}

/// A workload that exercises every part of a group block under one plan:
/// `(A, B)` is shared at stage 0 by q0/q1 (whose unit last stages read its
/// mirror) and at stage 1 by q2 (whose STARTs record offsets into the log
/// its unit prefix writes); q3 is a private runner, q4 a single unit.
fn block_workload(agg: &str) -> (Catalog, sharon_query::Workload, SharingPlan) {
    let mut c = Catalog::new();
    for name in ["A", "B", "C", "D", "X"] {
        c.register_with_schema(name, Schema::new(["g", "v"]));
    }
    let query = |pattern: &str| {
        format!("RETURN {agg} PATTERN SEQ({pattern}) GROUP BY g WITHIN 12 ms SLIDE 4 ms")
    };
    let sources = ["A, B, C", "A, B, D", "X, A, B", "B, X, C", "X"].map(query);
    let w = parse_workload(&mut c, sources.iter().map(String::as_str)).unwrap();
    let ab = Pattern::from_names(&mut c, ["A", "B"]);
    let plan = SharingPlan::new([PlanCandidate::new(ab, [QueryId(0), QueryId(1), QueryId(2)])]);
    (c, w, plan)
}

/// Every query of [`block_workload`] planted in group 0, one pattern
/// position a millisecond from 0 ms on, inside window 0: rows of
/// `(type, time step, g, v)` as the op sequences draw them.
const PLANTED: [(usize, u64, i64, i64); 9] = [
    (0, 0, 0, 1), // A, B, X at 0 ms
    (1, 0, 0, 1),
    (4, 0, 0, 1),
    (0, 1, 0, 1), // A, B, X at 1 ms
    (1, 0, 0, 1),
    (4, 0, 0, 1),
    (1, 1, 0, 1), // B, C, D at 2 ms
    (2, 0, 0, 1),
    (3, 0, 0, 1),
];

/// Random op sequence with the executor's whole checkpoint segment (result
/// log, engines, gate) restored into a fresh executor after every event:
/// the run must equal the uninterrupted one bit for bit, whatever state
/// the cut lands on (live records, same-timestamp pending adds,
/// half-closed windows). The sequence follows [`PLANTED`], so the
/// uninterrupted run has a row of every query.
fn codec_round_trip_is_exact(agg: &str, raw: &[(usize, u64, i64, i64)]) {
    let (c, w, plan) = block_workload(agg);
    let mut whole = Executor::new(&c, &w, &plan).unwrap();
    let mut cut = Executor::new(&c, &w, &plan).unwrap();
    let mut t = 0u64;
    for &(ty, dt, g, v) in PLANTED.iter().chain(raw) {
        t += dt;
        let ty = c.lookup(["A", "B", "C", "D", "X"][ty]).unwrap();
        let mut row = EventBatch::new();
        row.push_from(ty, Timestamp(t), [Value::Int(g), Value::Int(v)]);
        whole.process_columnar(&row);
        cut.process_columnar(&row);
        let mut resumed = Executor::new(&c, &w, &plan).unwrap();
        resumed.load_state(&cut.save_state()).unwrap();
        assert_eq!(resumed.cell_count(), cut.cell_count());
        cut = resumed;
    }
    assert_eq!(cut.events_matched(), whole.events_matched());
    let n = w.len() as u32;
    let what = format!("{agg}: the run restored after every event");
    assert_equivalent(&cut.finish(), &whole.finish(), n, 0.0, what);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn group_codec_round_trips_mid_stream(
        raw in prop::collection::vec((0usize..5, 0u64..3, 0i64..3, -5i64..6), 0..150),
    ) {
        codec_round_trip_is_exact("COUNT(*)", &raw); // CountCell
        codec_round_trip_is_exact("SUM(B.v)", &raw); // StatsCell
    }
}
