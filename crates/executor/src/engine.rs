//! The partition kernel of the Sharon runtime.
//!
//! One [`Engine`] evaluates one compiled partition (queries with identical
//! predicates, grouping, window, and aggregate — assumption (2) / §7.2).
//! Per `GROUP BY` partition it maintains one flat block, a
//! `GroupRuntime` held by the engine's `GroupTable` (`group_table.rs`):
//!
//! * a **runner plane**: one [`SegmentRunner`] per runner slot — shared
//!   runners are updated *once* per event regardless of how many queries
//!   subscribe (the gain of the Shared method, Eq. 7). A live record holds
//!   the STARTs of one slide that arrived under the same [`ChainLog`]
//!   **offsets** — one per chain stage it feeds, the Shared method's
//!   "count(prefix) at the time c arrives" (Section 3.3 step 2, Example 3)
//!   — so a runner walks its records once per slide and offset run, not
//!   once per START (see [`crate::runner`]);
//! * per query and chain stage but the last, a [`ChainLog`] of the
//!   combined contributions `R_i` per window. A completion batch folds in
//!   `O(log entries + records + windows)` via suffix sums and a difference
//!   array (see [`ChainLog`]);
//! * a **window plane**: one [`WindowPlane`] holding every per-window
//!   accumulator of the group — the queries' finals, emitted when windows
//!   close, and the chain-log mirrors that length-1 stages read.
//!
//! A row pays for the roles its type plays; closing windows, expiring
//! records and trimming logs are paid once per group and slide. The table
//! owns the groups' creation, walks and codec; this module holds the
//! kernel that reads and writes one block: dispatch, folds, `touch`,
//! `slide_group` and `close_windows`.
//!
//! An engine keeps only group state. It selects nothing, gates nothing
//! and holds no results: its owner — the [`Executor`], sequential or as a
//! shard worker — runs the select stage (scan and tallies; see
//! [`crate::front`]) and the event-time gate, owns the one result log
//! every engine closes windows into, and hands it rows already selected,
//! in event-time order, through [`Engine::process_rows`] (a batch's
//! selected rows) or [`Engine::process_row`] (one row the gate released),
//! each with that log.
//!
//! [`Executor`]: crate::Executor
//! [`SegmentRunner`]: crate::runner::SegmentRunner

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::agg::{Aggregate, Contribution};
use crate::chainlog::ChainLog;
use crate::checkpoint::{StateError, StateReader, StateWriter};
use crate::compile::{CompiledPartition, Routes};
use crate::group_table::{GroupRuntime, GroupTable};
use crate::results::ExecutorResults;
use crate::winvec::WindowPlane;
use sharon_types::{EventBatch, EventTypeId, GroupKey, Timestamp, Value};

/// The id of the group `key` in `results`: the `cached` one while
/// `results` still holds `key` there, else a fresh one, cached. A log
/// handed away takes its key table along, so a group registers once per
/// log.
#[inline]
fn result_id(cached: &mut u32, key: &GroupKey, results: &mut ExecutorResults) -> u32 {
    if (*cached as usize) >= results.group_slots() || results.group(*cached) != key {
        *cached = results.add_group(key.clone());
    }
    *cached
}

/// Scratch buffers reused across events.
struct FoldScratch<A> {
    /// Chain offsets of the current START, filled only for runners with
    /// stage > 0 subscriptions.
    offsets: Vec<u64>,
    /// Per-record completion deltas of the current END event.
    completions: Vec<(usize, Timestamp, A)>,
    /// Suffix sums of the completion deltas.
    suffix: Vec<A>,
    /// Per-window totals of the current fold, one per open window: a
    /// difference array with `remove_after` while accumulating when the
    /// cell supports subtraction, dense otherwise.
    totals: Vec<A>,
    remove_after: Vec<A>,
}

impl<A: Aggregate> FoldScratch<A> {
    fn new() -> Self {
        FoldScratch {
            offsets: Vec::new(),
            completions: Vec::new(),
            suffix: Vec::new(),
            totals: Vec::new(),
            remove_after: Vec::new(),
        }
    }

    /// Zero the fold buffers for `width` open windows.
    fn reset(&mut self, width: usize) {
        self.totals.clear();
        self.totals.resize(width, A::ZERO);
        if A::SUBTRACTABLE {
            self.remove_after.clear();
            self.remove_after.resize(width, A::ZERO);
        }
    }

    /// Accumulate `value × multiplier` over windows `lo..=hi` (indexes
    /// into the open range).
    #[inline]
    fn accumulate(&mut self, lo: usize, hi: usize, value: A, multiplier: &A) {
        let contribution = value.cross(multiplier);
        if contribution.is_zero() {
            return;
        }
        if A::SUBTRACTABLE {
            self.totals[lo].merge(&contribution);
            self.remove_after[hi].merge(&contribution);
        } else {
            for w in lo..=hi {
                self.totals[w].merge(&contribution);
            }
        }
    }

    /// Turn the accumulated difference array into per-window totals.
    fn materialize(&mut self) {
        if A::SUBTRACTABLE {
            let mut running = A::ZERO;
            for (total, removed) in self.totals.iter_mut().zip(&self.remove_after) {
                running.merge(total);
                *total = running;
                running.sub_assign(removed);
            }
        }
    }
}

/// An executor for one compiled partition, generic over the aggregate
/// kernel.
pub struct Engine<A: Aggregate> {
    pub(crate) part: CompiledPartition,
    groups: GroupTable<A>,
    scratch: FoldScratch<A>,
    /// Reused per-event key storage — the hot path never allocates a
    /// fresh key; cloning happens only on first sight of a group.
    key_scratch: GroupKey,
    /// Reused buffer for the grouping attributes of the current event.
    vals_scratch: Vec<Value>,
    last_time: Timestamp,
    events_matched: u64,
}

impl<A: Aggregate> Engine<A> {
    /// Build an engine for a compiled partition. Under sharded execution
    /// the batch router sends it only rows of the groups its shard owns.
    pub fn new(part: CompiledPartition) -> Self {
        Engine {
            part,
            groups: GroupTable::new(),
            scratch: FoldScratch::new(),
            key_scratch: GroupKey::Global,
            vals_scratch: Vec::new(),
            last_time: Timestamp::ZERO,
            events_matched: 0,
        }
    }

    #[inline]
    fn contribution(part: &CompiledPartition, ty: EventTypeId, attrs: &[Value]) -> Contribution {
        match part.contrib_target {
            Some((t, attr)) if t == ty => match attr {
                None => Contribution::of(1.0),
                Some(a) => match attrs.get(a.index()).and_then(Value::as_f64) {
                    Some(v) => Contribution::of(v),
                    None => Contribution::NONE,
                },
            },
            _ => Contribution::NONE,
        }
    }

    /// The entry of a batch's selected `rows` (the ungated path): each
    /// goes through [`Engine::process_row`] in row order.
    #[inline]
    pub fn process_rows(
        &mut self,
        batch: &EventBatch,
        rows: &[u32],
        results: &mut ExecutorResults,
    ) {
        for &row in rows {
            let row = row as usize;
            self.process_row(batch.ty(row), batch.time(row), batch.attrs(row), results);
        }
    }

    /// The in-order row path, and the entry of one row an owner's
    /// event-time gate released. Every row here was selected by the
    /// owner's scan or the sharded batch router: routing, this
    /// partition's predicates, groupability and shard ownership are
    /// already established, and rows arrive in event-time order. Windows
    /// the row closes are appended to `results`.
    #[inline]
    pub fn process_row(
        &mut self,
        ty: EventTypeId,
        time: Timestamp,
        attrs: &[Value],
        results: &mut ExecutorResults,
    ) {
        debug_assert!(time >= self.last_time, "events must be time-ordered");
        self.last_time = time;

        let routes = self.part.routes.get(ty.index()).and_then(Option::as_ref);
        debug_assert!(routes.is_some(), "the scan selected an unrouted event type");
        let Some(routes) = routes else { return };
        // group key — written into the reused scratch key, so the hot path
        // performs no allocation and no clone until a group is first seen
        let grouped =
            self.part
                .read_group_key(ty, attrs, &mut self.vals_scratch, &mut self.key_scratch);
        debug_assert!(grouped, "the scan selected an ungroupable event");
        self.events_matched += 1;

        // one probe and one slot index per row; `intern` clones the key
        // (the only remaining allocation) once per distinct group
        let gid = self.groups.intern(&self.key_scratch, &self.part);
        let grt = self.groups.get_mut(gid);

        Self::touch(grt, &self.part, time, results, &self.key_scratch);

        let c = Self::contribution(&self.part, ty, attrs);
        Self::dispatch(grt, &self.part, routes, time, c, &mut self.scratch);
    }

    /// Close every window of one group before `close_seq`, oldest first,
    /// into `results`; zero finals are not results. The group's id is
    /// resolved once per call, at its first result.
    fn close_windows(
        part: &CompiledPartition,
        key: &GroupKey,
        grt: &mut GroupRuntime<A>,
        results: &mut ExecutorResults,
        close_seq: u64,
    ) {
        let slide = part.window.slide.millis();
        let mut gid = None;
        let GroupRuntime {
            result_id: cached,
            plane,
            ..
        } = grt;
        plane.close_before(close_seq, |seq, cells| {
            let window = Timestamp(seq * slide);
            for (v, q) in cells.iter().zip(&part.queries) {
                if v.is_zero() {
                    continue;
                }
                let gid = *gid.get_or_insert_with(|| result_id(cached, key, results));
                results.emit_interned(q.id, gid, window, v.output(q.output));
            }
        });
    }

    /// Serialize this engine's full evaluation state into a checkpoint
    /// segment: its clock and match count, then its group table (each
    /// group one length-prefixed block after its key).
    pub(crate) fn save_state(&self, w: &mut StateWriter) {
        w.time(self.last_time);
        w.u64(self.events_matched);
        self.groups.save(w);
    }

    /// Restore the state written by [`Engine::save_state`] into a freshly
    /// built engine for the **same** compiled partition.
    pub(crate) fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.last_time = r.time()?;
        self.events_matched = r.u64()?;
        self.groups.load(r, &self.part, self.last_time)
    }

    /// Bring one group up to `now` before a row at `now` is dispatched:
    /// adds of earlier timestamps become readable, and once per slide the
    /// windows that ended are closed. On every other row this is two
    /// compares.
    #[inline]
    fn touch(
        grt: &mut GroupRuntime<A>,
        part: &CompiledPartition,
        now: Timestamp,
        results: &mut ExecutorResults,
        key: &GroupKey,
    ) {
        grt.plane.settle(now);
        let spec = part.window;
        // the oldest open window ends at `first_seq × slide + within`
        if now.millis() >= grt.plane.first_seq() * spec.slide.millis() + spec.within.millis() {
            Self::slide_group(grt, part, now, results, key);
        }
    }

    /// The per-slide maintenance of one group: close the windows that
    /// ended by `now`, expire the records no open window can hold, and
    /// drop the chain-log entries that only fed closed windows.
    fn slide_group(
        grt: &mut GroupRuntime<A>,
        part: &CompiledPartition,
        now: Timestamp,
        results: &mut ExecutorResults,
        key: &GroupKey,
    ) {
        let spec = part.window;
        let close_seq = spec.first_start_covering(now).millis() / spec.slide.millis();
        Self::close_windows(part, key, grt, results, close_seq);
        let dead_before = Self::dead_before(part, now);
        for runner in grt.runners.iter_mut() {
            runner.expire(dead_before);
        }
        for log in grt.chains.iter_mut() {
            log.drop_dead(close_seq);
        }
    }

    /// Records whose first START is before this time are dead at `now`: a
    /// START at `s` can share no window with `now` once `now − s ≥
    /// within`, and neither can a later START of its slide.
    #[inline]
    fn dead_before(part: &CompiledPartition, now: Timestamp) -> Timestamp {
        Timestamp((now.millis() + 1).saturating_sub(part.window.within.millis()))
    }

    /// Fold `totals` — an event's contribution at `t` to windows
    /// `min_seq ..` — into stage `stage` of query `q`: the query's final
    /// column if the stage is its last (written directly: nothing reads a
    /// final before its window closes), else the stage's chain log,
    /// run-compressed, and its mirror column where a unit stage reads one
    /// (pending: that reader may carry the same timestamp).
    fn fold_totals(
        part: &CompiledPartition,
        plane: &mut WindowPlane<A>,
        chains: &mut [ChainLog<A>],
        (q, stage): (usize, usize),
        t: Timestamp,
        min_seq: u64,
        totals: &[A],
    ) {
        let query = &part.queries[q];
        if stage + 1 == query.n_stages {
            return plane.add_dense(q, min_seq, totals);
        }
        let chain = query.chain_base + stage;
        let mut lo = 0;
        while lo < totals.len() {
            let value = totals[lo];
            let mut end = lo + 1;
            while end < totals.len() && totals[end] == value {
                end += 1;
            }
            if !value.is_zero() {
                let (seq_lo, seq_hi) = (min_seq + lo as u64, min_seq + end as u64 - 1);
                chains[chain].add_range(t, seq_lo, seq_hi, value);
                if let Some(col) = part.mirror_col[chain] {
                    plane.add_pending(t, col, seq_lo, seq_hi, value);
                }
            }
            lo = end;
        }
    }

    /// Route one in-group event through all its runner and unit roles.
    fn dispatch(
        grt: &mut GroupRuntime<A>,
        part: &CompiledPartition,
        routes: &Routes,
        t: Timestamp,
        c: Contribution,
        scratch: &mut FoldScratch<A>,
    ) {
        let GroupRuntime {
            plane,
            runners,
            chains,
            ..
        } = grt;
        let slide = part.window.slide.millis();
        // `touch` closed everything that ended by `t`
        let min_seq = plane.first_seq();
        let last_seq = t.millis() / slide;
        debug_assert_eq!(
            min_seq * slide,
            part.window.first_start_covering(t).millis()
        );
        let width = (last_seq - min_seq + 1) as usize;
        let dead_before = Self::dead_before(part, t);

        for &(ri, pos) in &routes.runner_roles {
            let rspec = &part.runners[ri];
            let runner = &mut runners[ri];
            runner.expire(dead_before);
            if pos == 0 {
                // START of the segment: join the newest record if it holds
                // this slide's STARTs under the same chain-log offsets (one
                // per stage > 0 subscription), else open one; a runner
                // without such subscriptions reads and copies no offset
                let offs = &mut scratch.offsets;
                offs.clear();
                for &(q, stage) in &rspec.start_subs {
                    offs.push(chains[part.queries[q].chain_base + stage - 1].offset_at(t));
                }
                runner.on_start(t, Timestamp(last_seq * slide), offs, c);
                continue;
            }
            if pos + 1 < rspec.len {
                runner.on_mid(pos, t, c);
                continue;
            }
            // END of the segment: collect per-record completion deltas
            scratch.completions.clear();
            runner.on_end(t, c, |idx, st, d| {
                scratch.completions.push((idx, st, d));
            });
            let n_comp = scratch.completions.len();
            if n_comp == 0 {
                continue;
            }
            // suffix sums δᵢ + δᵢ₊₁ + … (needed by stage > 0 folds)
            if !rspec.start_subs.is_empty() {
                scratch.suffix.clear();
                scratch.suffix.resize(n_comp, A::ZERO);
                let mut acc = A::ZERO;
                for i in (0..n_comp).rev() {
                    acc.merge(&scratch.completions[i].2);
                    scratch.suffix[i] = acc;
                }
            }
            // subscription `k` of `start_subs` is the `k`-th stage > 0 one
            let mut k = 0;
            // the stage-0 totals depend on the completions alone: computed
            // for the first stage-0 subscriber, they serve the following
            // ones while `scratch.totals` still holds them
            let mut have_stage0 = false;
            for sub in &rspec.completion_subs {
                let (q, stage) = *sub;
                let slot = k;
                k += usize::from(stage > 0);
                if stage > 0 {
                    // chain fold: Σᵢ R(tᵢ) × δᵢ over the log
                    // (two-pointer over entries and record offsets)
                    have_stage0 = false;
                    scratch.reset(width);
                    let log = &chains[part.queries[q].chain_base + stage - 1];
                    let mut p = 0usize;
                    for (j, entry) in log.iter_before(t) {
                        while p < n_comp && runner.offset(scratch.completions[p].0, slot) <= j {
                            p += 1;
                        }
                        if p == n_comp {
                            break;
                        }
                        let lo = entry.lo.max(min_seq);
                        if lo > entry.hi {
                            continue;
                        }
                        let li = (lo - min_seq) as usize;
                        let hi_i = (entry.hi.min(last_seq) - min_seq) as usize;
                        let mult = scratch.suffix[p];
                        scratch.accumulate(li, hi_i, entry.value, &mult);
                    }
                    scratch.materialize();
                } else if !have_stage0 {
                    // leftmost segment: a completion starting in window
                    // `hi` belongs to every open window up to `hi`
                    have_stage0 = true;
                    scratch.reset(width);
                    let one = A::unit(Contribution::NONE);
                    for i in 0..n_comp {
                        let (_, st, delta) = scratch.completions[i];
                        let hi = st.millis() / slide;
                        if hi >= min_seq {
                            let hi_i = (hi.min(last_seq) - min_seq) as usize;
                            scratch.accumulate(0, hi_i, delta, &one);
                        }
                    }
                    scratch.materialize();
                }
                Self::fold_totals(part, plane, chains, *sub, t, min_seq, &scratch.totals);
            }
        }

        // stateless length-1 segments: START and END coincide
        for sub in &routes.unit_roles {
            let (q, stage) = *sub;
            let delta = A::unit(c);
            scratch.totals.clear();
            if stage == 0 {
                scratch.totals.resize(width, delta);
            } else {
                // immediate combination: (all chains completed before now)
                // × this single event — the mirror column holds the current
                // per-window totals and is read in place, O(open windows)
                // `compile` gives the log before every unit stage > 0 its
                // mirror column as it routes that stage
                #[allow(clippy::expect_used)]
                let col = part.mirror_col[part.queries[q].chain_base + stage - 1]
                    .expect("a unit stage's predecessor is mirrored");
                let read = (min_seq..=last_seq).map(|seq| plane.get(col, seq).cross(&delta));
                scratch.totals.extend(read);
            }
            Self::fold_totals(part, plane, chains, *sub, t, min_seq, &scratch.totals);
        }
    }

    /// Close every remaining window into `results`.
    pub fn finish(mut self, results: &mut ExecutorResults) {
        let part = &self.part;
        self.groups.for_each_mut(|key, grt| {
            Self::close_windows(part, key, grt, results, u64::MAX);
        });
    }

    /// Events that passed routing, predicates, and grouping.
    pub fn events_matched(&self) -> u64 {
        self.events_matched
    }

    /// Live aggregate cells across all groups (memory proxy).
    pub fn cell_count(&self) -> usize {
        self.groups.cell_count()
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
mod tests {
    use super::*;
    use crate::executor::{EngineKind, Executor};
    use crate::processor::BatchProcessor;
    use crate::results::tests::assert_equivalent;
    use crate::runner::SegmentRunner;
    use sharon_query::aggregate::AggValue;
    use sharon_query::{parse_workload, Pattern, PlanCandidate, QueryId, SharingPlan, Workload};
    use sharon_types::{Catalog, Event, EventTypeId};

    fn ev(ty: EventTypeId, t: u64) -> Event {
        Event::new(ty, Timestamp(t))
    }

    /// Feed row-form `events` to `ex` as one columnar batch.
    fn feed(ex: &mut Executor, events: &[Event]) {
        ex.process_columnar(&EventBatch::from_events(events));
    }

    fn run_queries(
        sources: &[&str],
        plan: &SharingPlan,
        build: impl Fn(&Catalog) -> Vec<Event>,
    ) -> (Catalog, ExecutorResults) {
        let mut c = Catalog::new();
        let w = parse_workload(&mut c, sources.iter().copied()).unwrap();
        let mut ex = Executor::new(&c, &w, plan).unwrap();
        feed(&mut ex, &build(&c));
        (c, ex.finish())
    }

    #[test]
    fn figure_6a_count_in_one_window() {
        // pattern (A,B); a1 b2 a3 b4 all inside window [0, 10)
        let (c, res) = run_queries(
            &["RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 ms SLIDE 10 ms"],
            &SharingPlan::non_shared(),
            |cat| {
                let a = cat.lookup("A").unwrap();
                let b = cat.lookup("B").unwrap();
                vec![ev(a, 1), ev(b, 2), ev(a, 3), ev(b, 4)]
            },
        );
        let _ = c;
        assert_eq!(
            res.get(QueryId(0), &GroupKey::Global, Timestamp(0)),
            Some(&AggValue::Count(3)),
            "paper Figure 6(a): count(A,B) = 3"
        );
    }

    #[test]
    fn figure_6b_sliding_window_expiration() {
        // window length 4, slide 1; a1 a2 b5: only (a2,b5) fits a window,
        // namely [2, 6)
        let (_, res) = run_queries(
            &["RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 4 ms SLIDE 1 ms"],
            &SharingPlan::non_shared(),
            |cat| {
                let a = cat.lookup("A").unwrap();
                let b = cat.lookup("B").unwrap();
                vec![ev(a, 1), ev(a, 2), ev(b, 5)]
            },
        );
        let all = res.of_query_sorted(QueryId(0));
        assert_eq!(
            all,
            vec![(GroupKey::Global, Timestamp(2), AggValue::Count(1))]
        );
    }

    #[test]
    fn multiple_windows_capture_the_same_sequence() {
        // within 4 slide 1: (a3,b4) is inside windows [1,5),[2,6),[3,7)
        let (_, res) = run_queries(
            &["RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 4 ms SLIDE 1 ms"],
            &SharingPlan::non_shared(),
            |cat| {
                let a = cat.lookup("A").unwrap();
                let b = cat.lookup("B").unwrap();
                vec![ev(a, 3), ev(b, 4)]
            },
        );
        let all = res.of_query_sorted(QueryId(0));
        assert_eq!(all.len(), 3);
        for (g, w, v) in &all {
            assert_eq!(*g, GroupKey::Global);
            assert!([1, 2, 3].contains(&w.millis()), "window {w}");
            assert_eq!(*v, AggValue::Count(1));
        }
    }

    #[test]
    fn shared_plan_reproduces_example_3_total() {
        // (A,B,C,D) with shared (A,B) and (C,D) vs non-shared: same counts.
        // a1 b2 c3 d4 d5 c6 d7 inside one window:
        //   via c3: (a1,b2) before c3 = 1; (c3,d4),(c3,d5),(c3,d7) = 3 → 3
        //   via c6: (a1,b2) = 1; (c6,d7) = 1 → 1
        //   total = 4; z8 completes (A,B,Z) once
        let srcs = [
            "RETURN COUNT(*) PATTERN SEQ(A, B, C, D) WITHIN 100 ms SLIDE 100 ms",
            "RETURN COUNT(*) PATTERN SEQ(A, B, Z) WITHIN 100 ms SLIDE 100 ms",
        ];
        let events = |cat: &Catalog| {
            let a = cat.lookup("A").unwrap();
            let b = cat.lookup("B").unwrap();
            let cc = cat.lookup("C").unwrap();
            let d = cat.lookup("D").unwrap();
            let z = cat.lookup("Z").unwrap();
            vec![
                ev(a, 1),
                ev(b, 2),
                ev(cc, 3),
                ev(d, 4),
                ev(d, 5),
                ev(cc, 6),
                ev(d, 7),
                ev(z, 8),
            ]
        };
        // shared plan: share (A,B) between q1 and q2
        let mut c0 = Catalog::new();
        let _ = parse_workload(&mut c0, srcs.iter().copied()).unwrap();
        let ab = Pattern::from_names(&mut c0, ["A", "B"]);
        let plan = SharingPlan::new([PlanCandidate::new(ab, [QueryId(0), QueryId(1)])]);

        let (_, shared) = run_queries(&srcs, &plan, events);
        let (_, nonshared) = run_queries(&srcs, &SharingPlan::non_shared(), events);

        assert_eq!(
            shared.get(QueryId(0), &GroupKey::Global, Timestamp(0)),
            Some(&AggValue::Count(4))
        );
        assert_equivalent(&shared, &nonshared, 2, 1e-9, "shared vs non-shared");
    }

    #[test]
    fn grouping_partitions_state() {
        let mut c = Catalog::new();
        let a = c.register_with_schema("A", sharon_types::Schema::new(["vehicle"]));
        let b = c.register_with_schema("B", sharon_types::Schema::new(["vehicle"]));
        let w = parse_workload(
            &mut c,
            ["RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY vehicle WITHIN 10 ms SLIDE 10 ms"],
        )
        .unwrap();
        let mut ex = Executor::non_shared(&c, &w).unwrap();
        let mk = |ty, t, v: i64| Event::with_attrs(ty, Timestamp(t), vec![Value::Int(v)]);
        // vehicle 1: a1 b2 ; vehicle 2: a3 ; b4 of vehicle 2 completes only v2
        feed(
            &mut ex,
            &[mk(a, 1, 1), mk(b, 2, 1), mk(a, 3, 2), mk(b, 4, 2)],
        );
        let res = ex.finish();
        let k1 = GroupKey::One(Value::Int(1));
        let k2 = GroupKey::One(Value::Int(2));
        assert_eq!(
            res.get(QueryId(0), &k1, Timestamp(0)),
            Some(&AggValue::Count(1))
        );
        assert_eq!(
            res.get(QueryId(0), &k2, Timestamp(0)),
            Some(&AggValue::Count(1))
        );
        assert_eq!(res.len(), 2, "no cross-vehicle sequences");
    }

    #[test]
    fn a_cached_group_id_is_reused_only_where_the_log_holds_its_key() {
        // group 2 takes id 0 in the first log; after that log is handed
        // away, group 1 closes first in the second and takes id 0 there,
        // so group 2's cached 0 is in bounds but names group 1's key
        let mut c = Catalog::new();
        let a = c.register_with_schema("A", sharon_types::Schema::new(["g"]));
        let w = parse_workload(
            &mut c,
            ["RETURN COUNT(*) PATTERN SEQ(A) GROUP BY g WITHIN 4 ms SLIDE 4 ms"],
        )
        .unwrap();
        let mut ex = Executor::non_shared(&c, &w).unwrap();
        let row = |t, g| Event::with_attrs(a, Timestamp(t), vec![Value::Int(g)]);
        let (k1, k2) = (GroupKey::One(Value::Int(1)), GroupKey::One(Value::Int(2)));
        feed(&mut ex, &[row(1, 2), row(2, 1), row(5, 2)]);
        let first = ex.drain_results();
        assert_eq!(first.rows().map(|r| r.1).collect::<Vec<_>>(), [0]);
        assert_eq!(first.group(0), &k2);
        feed(&mut ex, &[row(6, 1), row(9, 2)]);
        let second = ex.drain_results();
        let keyed: Vec<_> = second
            .rows()
            .map(|(_, gid, w, v)| (second.group(gid).clone(), w, v))
            .collect();
        let one = AggValue::Count(1);
        assert_eq!(
            keyed,
            [(k1, Timestamp(0), one), (k2, Timestamp(4), one)],
            "group 2's rows carry its own key in the second log"
        );
    }

    #[test]
    fn predicates_filter_events() {
        let mut c = Catalog::new();
        let a = c.register_with_schema("A", sharon_types::Schema::new(["speed"]));
        let b = c.register("B");
        let w = parse_workload(
            &mut c,
            ["RETURN COUNT(*) PATTERN SEQ(A, B) WHERE A.speed > 50 WITHIN 10 ms SLIDE 10 ms"],
        )
        .unwrap();
        let mut ex = Executor::non_shared(&c, &w).unwrap();
        feed(
            &mut ex,
            &[
                Event::with_attrs(a, Timestamp(1), vec![Value::Int(40)]), // filtered
                Event::with_attrs(a, Timestamp(2), vec![Value::Int(60)]),
                ev(b, 3),
            ],
        );
        assert_eq!(ex.events_matched(), 2);
        let res = ex.finish();
        assert_eq!(
            res.get(QueryId(0), &GroupKey::Global, Timestamp(0)),
            Some(&AggValue::Count(1))
        );
    }

    #[test]
    fn conjunct_order_does_not_split_a_partition() {
        use sharon_types::Schema;
        let mut c = Catalog::new();
        let a = c.register_with_schema("A", Schema::new(["x"]));
        let b = c.register_with_schema("B", Schema::new(["y"]));
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(A, B) WHERE A.x > 1 AND B.y < 2 WITHIN 10 ms SLIDE 10 ms",
                "RETURN COUNT(*) PATTERN SEQ(A, B) WHERE B.y < 2 AND A.x > 1 WITHIN 10 ms SLIDE 10 ms",
                "RETURN COUNT(*) PATTERN SEQ(A, B) WHERE A.x > 1 AND B.y < 2 WITHIN 10 ms SLIDE 10 ms",
            ],
        )
        .unwrap();
        let mut ex = Executor::non_shared(&c, &w).unwrap();
        assert_eq!(
            ex.scan_stats().len(),
            1,
            "one partition for one conjunction"
        );
        feed(
            &mut ex,
            &[
                Event::with_attrs(a, Timestamp(1), vec![Value::Int(0)]), // filtered
                Event::with_attrs(a, Timestamp(2), vec![Value::Int(5)]),
                Event::with_attrs(b, Timestamp(3), vec![Value::Int(9)]), // filtered
                Event::with_attrs(b, Timestamp(4), vec![Value::Int(1)]),
            ],
        );
        let res = ex.finish();
        for q in w.ids() {
            assert_eq!(
                res.get(q, &GroupKey::Global, Timestamp(0)),
                Some(&AggValue::Count(1)),
                "{q}"
            );
        }
    }

    #[test]
    fn scopes_sharing_a_type_pass_keep_their_own_scan_tallies() {
        // three scopes selecting from one type pass per batch: each still
        // scans every row of every batch, and selects exactly the rows it
        // selects alone
        use sharon_types::Schema;
        let mut c = Catalog::new();
        for name in ["A", "B", "C"] {
            c.register_with_schema(name, Schema::new(["g", "v"]));
        }
        let sources = [
            "RETURN COUNT(*) PATTERN SEQ(A, B) WHERE A.v > 2 GROUP BY g WITHIN 8 ms SLIDE 4 ms",
            "RETURN COUNT(*) PATTERN SEQ(B, C) WHERE C.v < 3 WITHIN 8 ms SLIDE 4 ms",
            "RETURN COUNT(*) PATTERN SEQ(C) GROUP BY g WITHIN 8 ms SLIDE 4 ms",
        ];
        let w = parse_workload(&mut c, sources).unwrap();
        let types = ["A", "B", "C"].map(|n| c.lookup(n).unwrap());
        // row i: type i % 3, v = i % 5; every seventh row has no attributes
        // (ungroupable, and failing every clause)
        let batches: Vec<EventBatch> = (0..3u64)
            .map(|b| {
                let mut batch = EventBatch::new();
                for i in b * 40..(b + 1) * 40 {
                    let attrs = if i.is_multiple_of(7) {
                        vec![]
                    } else {
                        vec![Value::Int(i as i64 % 4), Value::Int(i as i64 % 5)]
                    };
                    batch.push_from(types[i as usize % 3], Timestamp(i), attrs);
                }
                batch
            })
            .collect();
        let mut ex = Executor::non_shared(&c, &w).unwrap();
        for batch in &batches {
            ex.process_columnar(batch);
        }
        // A with v > 2, plus every B with g; B rows with or without
        // attributes (no GROUP BY), plus C with v < 3; C rows with g
        let want = |i: u64| {
            let has = !i.is_multiple_of(7);
            let v = i % 5;
            match i % 3 {
                0 => [has && v > 2, false, false],
                1 => [has, true, false],
                _ => [false, has && v < 3, has],
            }
        };
        let mut selected = [0u64; 3];
        for i in 0..120 {
            for (s, hit) in selected.iter_mut().zip(want(i)) {
                *s += u64::from(hit);
            }
        }
        assert_eq!(selected, [48, 61, 34]);
        assert_eq!(
            ex.scan_stats(),
            vec![(120, 48), (120, 61), (120, 34)],
            "every scope scans every row and keeps its own selection count"
        );
        for (q, source) in sources.iter().enumerate() {
            let mut c1 = c.clone();
            let w1 = parse_workload(&mut c1, [*source]).unwrap();
            let mut solo = Executor::non_shared(&c1, &w1).unwrap();
            for batch in &batches {
                solo.process_columnar(batch);
            }
            assert_eq!(solo.scan_stats(), vec![ex.scan_stats()[q]], "query {q}");
        }
    }

    #[test]
    fn sum_aggregate_over_sequences() {
        // SUM(B.x) over pattern (A,B): a1, b2(x=10), b3(x=5)
        // sequences: (a1,b2) and (a1,b3) => sum = 15
        let mut c = Catalog::new();
        let a = c.register("A");
        let b = c.register_with_schema("B", sharon_types::Schema::new(["x"]));
        let w = parse_workload(
            &mut c,
            ["RETURN SUM(B.x) PATTERN SEQ(A, B) WITHIN 10 ms SLIDE 10 ms"],
        )
        .unwrap();
        let mut ex = Executor::new(&c, &w, &SharingPlan::non_shared()).unwrap();
        feed(
            &mut ex,
            &[
                ev(a, 1),
                Event::with_attrs(b, Timestamp(2), vec![Value::Int(10)]),
                Event::with_attrs(b, Timestamp(3), vec![Value::Int(5)]),
            ],
        );
        let res = ex.finish();
        assert_eq!(
            res.get(QueryId(0), &GroupKey::Global, Timestamp(0)),
            Some(&AggValue::Number(Some(15.0)))
        );
    }

    #[test]
    fn min_max_avg() {
        let mut c = Catalog::new();
        let a = c.register_with_schema("A", sharon_types::Schema::new(["x"]));
        let b = c.register("B");
        let w = parse_workload(
            &mut c,
            [
                "RETURN MIN(A.x) PATTERN SEQ(A, B) WITHIN 10 ms SLIDE 10 ms",
                "RETURN MAX(A.x) PATTERN SEQ(A, B) WITHIN 10 ms SLIDE 10 ms",
                "RETURN AVG(A.x) PATTERN SEQ(A, B) WITHIN 10 ms SLIDE 10 ms",
            ],
        )
        .unwrap();
        let mut ex = Executor::new(&c, &w, &SharingPlan::non_shared()).unwrap();
        feed(
            &mut ex,
            &[
                Event::with_attrs(a, Timestamp(1), vec![Value::Int(4)]),
                Event::with_attrs(a, Timestamp(2), vec![Value::Int(8)]),
                ev(b, 3),
            ],
        );
        let res = ex.finish();
        let g = GroupKey::Global;
        assert_eq!(
            res.get(QueryId(0), &g, Timestamp(0)),
            Some(&AggValue::Number(Some(4.0)))
        );
        assert_eq!(
            res.get(QueryId(1), &g, Timestamp(0)),
            Some(&AggValue::Number(Some(8.0)))
        );
        assert_eq!(
            res.get(QueryId(2), &g, Timestamp(0)),
            Some(&AggValue::Number(Some(6.0)))
        );
    }

    #[test]
    fn non_subtractable_multi_window_fold_avoids_difference_arrays() {
        // overlapping sliding windows force a multi-window range fold —
        // the shape the difference-array fast path optimizes. Stats cells
        // are not SUBTRACTABLE, so the fold must take the dense path:
        // reaching `sub_assign` on a StatsCell panics ("does not support
        // subtraction"), so completing with exact per-window minima
        // proves the fast path never ran
        let mut c = Catalog::new();
        let a = c.register_with_schema("A", sharon_types::Schema::new(["x"]));
        let b = c.register("B");
        let w = parse_workload(
            &mut c,
            ["RETURN MIN(A.x) PATTERN SEQ(A, B) WITHIN 12 ms SLIDE 4 ms"],
        )
        .unwrap();
        let mut ex = Executor::new(&c, &w, &SharingPlan::non_shared()).unwrap();
        feed(
            &mut ex,
            &[
                Event::with_attrs(a, Timestamp(1), vec![Value::Int(4)]),
                Event::with_attrs(a, Timestamp(6), vec![Value::Int(2)]),
                ev(b, 9),
            ],
        );
        let res = ex.finish();
        let g = GroupKey::Global;
        // window 0..12 holds both sequences (min 2), window 4..16 only
        // the one starting at the second A
        assert_eq!(
            res.get(QueryId(0), &g, Timestamp(0)),
            Some(&AggValue::Number(Some(2.0)))
        );
        assert_eq!(
            res.get(QueryId(0), &g, Timestamp(4)),
            Some(&AggValue::Number(Some(2.0)))
        );
    }

    #[test]
    fn gated_engine_absorbs_covered_disorder_exactly() {
        let queries = ["RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 ms SLIDE 5 ms"];
        let (_, want) = run_queries(&queries, &SharingPlan::non_shared(), |cat| {
            let a = cat.lookup("A").unwrap();
            let b = cat.lookup("B").unwrap();
            vec![ev(a, 1), ev(b, 3), ev(a, 4), ev(b, 7)]
        });

        let mut c = Catalog::new();
        let a = c.register("A");
        let b = c.register("B");
        let w = parse_workload(&mut c, queries).unwrap();
        let mut ex = Executor::new(&c, &w, &SharingPlan::non_shared()).unwrap();
        ex.set_lateness(4); // covers the shuffle below (max regression 3)
                            // one row per batch: the watermark advances after every row
        for e in [ev(b, 3), ev(a, 1), ev(b, 7), ev(a, 4)] {
            feed(&mut ex, &[e]);
        }
        assert_eq!(ex.late_rows_dropped(), 0);
        let got = ex.finish();
        // covered disorder must reproduce the in-order results
        assert_equivalent(&got, &want, 1, 1e-9, "gated vs in order");
    }

    #[test]
    fn late_rows_drop_and_count_never_fold() {
        let mut c = Catalog::new();
        let a = c.register("A");
        let w = parse_workload(
            &mut c,
            ["RETURN COUNT(*) PATTERN SEQ(A) WITHIN 10 ms SLIDE 10 ms"],
        )
        .unwrap();
        let mut ex = Executor::new(&c, &w, &SharingPlan::non_shared()).unwrap();
        ex.set_lateness(2);
        feed(&mut ex, &[ev(a, 10)]); // watermark 8
        feed(&mut ex, &[ev(a, 5)]); // 5 < 8: late — dropped and counted
        feed(&mut ex, &[ev(a, 8)]); // 8 == watermark: admitted
        assert_eq!(ex.late_rows_dropped(), 1);
        let res = ex.finish();
        assert_eq!(
            res.get(QueryId(0), &GroupKey::Global, Timestamp(0)),
            Some(&AggValue::Count(1)),
            "the late row must not be folded into the closed window"
        );
        assert_eq!(
            res.get(QueryId(0), &GroupKey::Global, Timestamp(10)),
            Some(&AggValue::Count(1))
        );
    }

    #[test]
    fn length_one_pattern() {
        let (_, res) = run_queries(
            &["RETURN COUNT(*) PATTERN SEQ(A) WITHIN 10 ms SLIDE 10 ms"],
            &SharingPlan::non_shared(),
            |cat| {
                let a = cat.lookup("A").unwrap();
                vec![ev(a, 1), ev(a, 2), ev(a, 15)]
            },
        );
        assert_eq!(
            res.get(QueryId(0), &GroupKey::Global, Timestamp(0)),
            Some(&AggValue::Count(2))
        );
        assert_eq!(
            res.get(QueryId(0), &GroupKey::Global, Timestamp(10)),
            Some(&AggValue::Count(1))
        );
    }

    #[test]
    fn same_timestamp_events_never_form_sequences() {
        let (_, res) = run_queries(
            &["RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 ms SLIDE 10 ms"],
            &SharingPlan::non_shared(),
            |cat| {
                let a = cat.lookup("A").unwrap();
                let b = cat.lookup("B").unwrap();
                vec![ev(a, 5), ev(b, 5)]
            },
        );
        assert!(res.is_empty());
    }

    #[test]
    fn shared_unit_prefix_and_suffix() {
        // q1 = (X, A, B), q2 = (Y, A, B) share (A,B) at stage 1;
        // X/Y are unit stage-0 segments.
        let srcs = [
            "RETURN COUNT(*) PATTERN SEQ(X, A, B) WITHIN 100 ms SLIDE 100 ms",
            "RETURN COUNT(*) PATTERN SEQ(Y, A, B) WITHIN 100 ms SLIDE 100 ms",
        ];
        let mut c0 = Catalog::new();
        let _ = parse_workload(&mut c0, srcs.iter().copied()).unwrap();
        let ab = Pattern::from_names(&mut c0, ["A", "B"]);
        let plan = SharingPlan::new([PlanCandidate::new(ab, [QueryId(0), QueryId(1)])]);
        let events = |cat: &Catalog| {
            let x = cat.lookup("X").unwrap();
            let y = cat.lookup("Y").unwrap();
            let a = cat.lookup("A").unwrap();
            let b = cat.lookup("B").unwrap();
            // x1 y2 a3 b4 a5 b6:
            // q1: x1 followed by (a,b) pairs: (a3,b4),(a3,b6),(a5,b6) = 3
            // q2: y2 followed by the same 3 pairs = 3
            vec![ev(x, 1), ev(y, 2), ev(a, 3), ev(b, 4), ev(a, 5), ev(b, 6)]
        };
        let (_, shared) = run_queries(&srcs, &plan, events);
        let (_, nonshared) = run_queries(&srcs, &SharingPlan::non_shared(), events);
        assert_eq!(
            shared.get(QueryId(0), &GroupKey::Global, Timestamp(0)),
            Some(&AggValue::Count(3))
        );
        assert_eq!(
            shared.get(QueryId(1), &GroupKey::Global, Timestamp(0)),
            Some(&AggValue::Count(3))
        );
        assert_equivalent(&shared, &nonshared, 2, 1e-9, "shared vs non-shared");
    }

    #[test]
    fn shared_sliding_window_equivalence_small() {
        // sliding windows + shared mid segment, compare with non-shared
        let srcs = [
            "RETURN COUNT(*) PATTERN SEQ(X, A, B, Z) WITHIN 6 ms SLIDE 2 ms",
            "RETURN COUNT(*) PATTERN SEQ(Y, A, B, Z) WITHIN 6 ms SLIDE 2 ms",
        ];
        let mut c0 = Catalog::new();
        let _ = parse_workload(&mut c0, srcs.iter().copied()).unwrap();
        let ab = Pattern::from_names(&mut c0, ["A", "B"]);
        let plan = SharingPlan::new([PlanCandidate::new(ab, [QueryId(0), QueryId(1)])]);
        let events = |cat: &Catalog| {
            let x = cat.lookup("X").unwrap();
            let y = cat.lookup("Y").unwrap();
            let a = cat.lookup("A").unwrap();
            let b = cat.lookup("B").unwrap();
            let z = cat.lookup("Z").unwrap();
            vec![
                ev(x, 1),
                ev(a, 2),
                ev(y, 3),
                ev(b, 4),
                ev(z, 5),
                ev(y, 5),
                ev(a, 6),
                ev(x, 7),
                ev(b, 8),
                ev(z, 9),
                ev(z, 10),
            ]
        };
        let (_, shared) = run_queries(&srcs, &plan, events);
        let (_, nonshared) = run_queries(&srcs, &SharingPlan::non_shared(), events);
        assert_equivalent(&shared, &nonshared, 2, 1e-9, "shared vs non-shared");
    }

    #[test]
    fn events_matched_and_cell_count() {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            ["RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 ms SLIDE 10 ms"],
        )
        .unwrap();
        let mut ex = Executor::non_shared(&c, &w).unwrap();
        let a = c.lookup("A").unwrap();
        let unknown = EventTypeId(99); // ignored entirely
        feed(&mut ex, &[ev(a, 1), ev(unknown, 2)]);
        assert_eq!(ex.events_matched(), 1);
        assert!(ex.cell_count() >= 1);
    }

    /// A grouped two-stage workload over `n_groups` groups: alternating
    /// `A(g)` / `B(g)` rounds, one event per group per round.
    fn grouped_setup(n_groups: i64) -> (Catalog, Workload, Vec<Event>) {
        use sharon_types::Schema;
        let mut c = Catalog::new();
        c.register_with_schema("A", Schema::new(["g"]));
        c.register_with_schema("B", Schema::new(["g"]));
        let w = parse_workload(
            &mut c,
            ["RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY g WITHIN 8 ms SLIDE 4 ms"],
        )
        .unwrap();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let mut events = Vec::new();
        let mut t = 0u64;
        for round in 0..6i64 {
            for g in 0..n_groups {
                t += 1;
                let ty = if (g + round) % 2 == 0 { a } else { b };
                events.push(Event::with_attrs(ty, Timestamp(t), [Value::Int(g)]));
            }
        }
        (c, w, events)
    }

    /// Live runner records across the executor's engines and groups.
    fn live_records(ex: &Executor) -> usize {
        fn records<A: Aggregate>(en: &Engine<A>) -> usize {
            en.groups
                .iter()
                .flat_map(|(_, grt)| grt.runners.iter())
                .map(SegmentRunner::live_records)
                .sum()
        }
        let of_kind = |kind: &EngineKind| match kind {
            EngineKind::Count(en) => records(en),
            EngineKind::Stats(en) => records(en),
        };
        ex.engines.iter().map(of_kind).sum()
    }

    #[test]
    fn engine_state_round_trips_mid_stream() {
        let (c, w, events) = grouped_setup(2);
        // cut mid-stream at an uneven point so emitted rows, live records,
        // pending same-timestamp state, and half-closed windows all cross
        // the snapshot boundary
        let cut = events.len() / 2 + 3;

        let mut reference = Executor::non_shared(&c, &w).unwrap();
        feed(&mut reference, &events);
        let want_matched = reference.events_matched();
        let want = reference.finish();
        assert!(!want.is_empty(), "the reference has rows");

        let mut first = Executor::non_shared(&c, &w).unwrap();
        feed(&mut first, &events[..cut]);
        assert!(!first.results.is_empty(), "a row is emitted before the cut");
        assert!(live_records(&first) > 0, "a record is live at the cut");
        let segment = first.save_state();

        // the rows emitted before the cut travel in the segment's log
        let mut resumed = Executor::non_shared(&c, &w).unwrap();
        resumed.load_state(&segment).unwrap();
        feed(&mut resumed, &events[cut..]);
        assert_eq!(resumed.events_matched(), want_matched);
        // snapshot + restore + replay must equal the uninterrupted run
        assert_equivalent(&resumed.finish(), &want, 1, 0.0, "resumed vs uninterrupted");
    }

    /// The checkpoint image of a two-group COUNT engine nine rows in (one
    /// window per group closed into the executor's log, which the image
    /// does not carry): each group's window plane, segment runner and
    /// chain log. Format v8.
    #[rustfmt::skip]
    const ENGINE_GOLDEN: &[u8] = &[
        0, // COUNT kernel
        9, 0, 0, 0, 0, 0, 0, 0, // last row time: 9 ms
        9, 0, 0, 0, 0, 0, 0, 0, // rows matched
        2, 0, 0, 0, 0, 0, 0, 0, // two groups
        1, 0, 1, 0, 0, 0, 0, 0, 0, 0, // g = 1
        192, 0, 0, 0, 0, 0, 0, 0, // its block
        1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
        1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
        1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        2, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0,
        1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        4, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        1, 0, 0, 0, 0, 0, 0, 0, 0, 0, // g = 0
        192, 0, 0, 0, 0, 0, 0, 0, // its block
        1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
        1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
        1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        2, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0,
        1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        5, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ];

    #[test]
    fn engine_state_bytes_are_pinned() {
        let (c, w, events) = grouped_setup(2);
        let mut ex = Executor::non_shared(&c, &w).unwrap();
        feed(&mut ex, &events[..9]);
        assert_eq!(ex.engines.len(), 1);
        assert_eq!(engine_blob(&ex), ENGINE_GOLDEN);
        // the image restores, and re-saves to the same bytes
        let mut back = Executor::non_shared(&c, &w).unwrap();
        let mut sr = StateReader::new(ENGINE_GOLDEN);
        back.engines[0].load_state(&mut sr).unwrap();
        assert!(sr.is_exhausted());
        assert_eq!(engine_blob(&back), ENGINE_GOLDEN);
    }

    fn engine_blob(ex: &Executor) -> Vec<u8> {
        let mut sw = StateWriter::new();
        ex.engines[0].save_state(&mut sw);
        sw.into_bytes()
    }

    /// Load `image` into a fresh engine of the golden image's workload.
    fn load_engine_image(image: &[u8]) -> Result<(), StateError> {
        let (c, w, _) = grouped_setup(2);
        let mut ex = Executor::non_shared(&c, &w).unwrap();
        ex.engines[0].load_state(&mut StateReader::new(image))
    }

    #[test]
    fn a_duplicate_group_key_in_an_image_is_corrupt() {
        // the second group's key (g = 0) follows the kernel tag, the
        // clock, the match and group counts, the first key and its block
        let second_key = 1 + 8 + 8 + 8 + 10 + 8 + 192;
        let mut image = ENGINE_GOLDEN.to_vec();
        assert_eq!(
            image[second_key..second_key + 10],
            [1, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        );
        image[second_key + 2] = 1; // g = 0 becomes g = 1, the first key
        assert_eq!(
            load_engine_image(&image),
            Err(StateError::Corrupt("duplicate group key"))
        );
    }

    #[test]
    fn the_engine_block_decoder_never_panics() {
        for len in 0..ENGINE_GOLDEN.len() {
            assert!(
                load_engine_image(&ENGINE_GOLDEN[..len]).is_err(),
                "a {len}-byte prefix loads"
            );
        }
        // a flipped bit may still decode to a legal image: only a panic
        // fails here
        for bit in 0..ENGINE_GOLDEN.len() * 8 {
            let mut image = ENGINE_GOLDEN.to_vec();
            image[bit / 8] ^= 1 << (bit % 8);
            let _ = load_engine_image(&image);
        }
    }

    #[test]
    fn a_group_touched_after_a_gap_checkpoints_no_dead_start() {
        // 30 STARTs of (A, B, C) whose B never arrives, a gap, then an X
        // that plays no role in that runner: only the per-slide
        // maintenance can expire them. The checkpoint must equal, byte
        // for byte, that of an engine whose first 30 rows left no state
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(A, B, C) WITHIN 10 ms SLIDE 5 ms",
                "RETURN COUNT(*) PATTERN SEQ(X, Y) WITHIN 10 ms SLIDE 5 ms",
            ],
        )
        .unwrap();
        let blob_after = |burst: &str| {
            let mut ex = Executor::non_shared(&c, &w).unwrap();
            let mut events: Vec<Event> =
                (1..=30).map(|t| ev(c.lookup(burst).unwrap(), t)).collect();
            events.push(ev(c.lookup("X").unwrap(), 1_000_000));
            feed(&mut ex, &events);
            assert_eq!(ex.cell_count(), 1, "after a burst of {burst}");
            engine_blob(&ex)
        };
        assert_eq!(blob_after("A"), blob_after("Y"));
    }

    /// A gated executor over three groups, fed half of a stream whose
    /// neighbours are swapped under a covering lateness of 3 ms: its
    /// checkpoint segment, and the offset of the gate block at its end.
    fn gated_segment() -> (Catalog, Workload, Vec<u8>, usize) {
        let (c, w, mut events) = grouped_setup(3);
        for pair in events.chunks_mut(2) {
            pair.reverse();
        }
        let mut ex = Executor::non_shared(&c, &w).unwrap();
        ex.set_lateness(3);
        feed(&mut ex, &events[..events.len() / 2]);
        // the segment is the log, the engines, a gate flag, then the gate
        let mut head = StateWriter::new();
        ex.results.save_state(&mut head);
        head.seq_len(ex.engines.len());
        for engine in &ex.engines {
            engine.save_state(&mut head);
        }
        head.bool(true);
        let head = head.into_bytes();
        let segment = ex.save_state();
        assert_eq!(segment[..head.len()], head[..]);
        (c, w, segment, head.len())
    }

    #[test]
    fn a_gate_row_no_engine_routes_is_corrupt() {
        let (c, w, segment, gate) = gated_segment();
        // lateness, frontier, watermark, seq and drop count, then the row
        // count and the first row: its time, seq, type and scope
        let rows = u64::from_le_bytes(segment[gate + 40..gate + 48].try_into().unwrap());
        assert!(rows > 0, "the gate holds rows at the cut");
        let (ty, scope) = (gate + 64, gate + 68);
        let load = |image: &[u8]| {
            let mut ex = Executor::non_shared(&c, &w).unwrap();
            ex.set_lateness(3);
            ex.load_state(image)
        };
        assert_eq!(load(&segment), Ok(()));
        let corrupt = Err(StateError::Corrupt(
            "gate row for no engine that routes its type",
        ));
        let mut image = segment.clone();
        image[scope] = 1; // the executor has one engine
        assert_eq!(load(&image), corrupt);
        let mut image = segment;
        image[ty] = 7; // the catalog has types 0 and 1
        assert_eq!(load(&image), corrupt);
    }

    #[test]
    fn a_window_plane_opening_past_the_last_row_is_corrupt() {
        // the golden engine's last row is at 9 ms: the oldest window
        // covering it (WITHIN 8 ms SLIDE 4 ms) is window 1, [4, 12)
        let first_block = 1 + 8 + 8 + 8 + 10 + 8;
        let mut image = ENGINE_GOLDEN.to_vec();
        assert_eq!(
            image[first_block..first_block + 8],
            [1, 0, 0, 0, 0, 0, 0, 0]
        );
        image[first_block] = 2;
        assert_eq!(
            load_engine_image(&image),
            Err(StateError::Corrupt("window plane opens past the last row"))
        );
    }

    #[test]
    fn engine_load_state_rejects_kind_mismatch() {
        let (c, w, _) = grouped_setup(2);
        let mut ex = Executor::non_shared(&c, &w).unwrap();
        let mut sw = crate::checkpoint::StateWriter::new();
        ex.engines[0].save_state(&mut sw);
        let mut bytes = sw.into_bytes();
        bytes[0] ^= 1; // flip the kernel-kind tag
        let mut sr = crate::checkpoint::StateReader::new(&bytes);
        assert!(ex.engines[0].load_state(&mut sr).is_err());
    }
}
