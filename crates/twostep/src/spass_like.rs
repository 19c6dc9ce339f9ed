//! The shared two-step baseline ("SPASS" in the paper's evaluation).
//!
//! "SPASS defines shared event sequence construction. Their aggregation is
//! computed afterwards and is not shared. Thus, SPASS is a two-step and
//! only partially shared approach" (Section 8.1).
//!
//! Given a sharing plan, each shared sub-pattern's *match set* is
//! materialized once (shared construction); each query then joins the
//! materialized segment matches into full sequences — enumerating every
//! combination explicitly — and aggregates them. Construction is shared,
//! but sequences are still built, so the polynomial blow-up of the
//! two-step family remains (Figure 13), with high memory from the
//! materialized match sets.
//!
//! [`SpassLike`] is the two-step driver ([`TwoStep`]) with one subscriber
//! per sharing-signature partition, routed by the partition's merged
//! scope: the driver's scan and fan-out are shared with Flink-like.
//! Signature partitions whose routing scopes coincide (partitions
//! differing only in window or aggregate, say) share one scan, fanned out
//! to every subscribing partition. Like every two-step baseline it runs
//! in arrival order and takes no lateness.

use crate::common::{Family, ScopeFilter, Subscriber, TwoStep, TypeTable};
use crate::construct::SeqBuffers;
use sharon_executor::CompileError;
use sharon_executor::ExecutorResults;
use sharon_executor::WinVec;
use sharon_executor::{Aggregate, CountCell, OutputKind, StatsCell};
use sharon_query::{Query, QueryId, SegmentKind, SharingPlan, Workload};
use sharon_types::{Catalog, EventTypeId, GroupKey, Timestamp, Value, WindowSpec};
use std::collections::{HashMap, VecDeque};

/// A materialized segment match (a constructed sub-sequence).
#[derive(Debug, Clone, Copy)]
struct Match<A> {
    start: Timestamp,
    end: Timestamp,
    cell: A,
}

/// One segment's construction state within a group.
struct SegGroupState<A> {
    buffers: SeqBuffers,
    matches: VecDeque<Match<A>>,
}

struct GroupState<A> {
    segs: Vec<SegGroupState<A>>,
    accs: Vec<WinVec<A>>, // per query
}

struct SegDef {
    len: usize,
    /// positions of each type id within the segment pattern
    positions: Vec<Vec<usize>>,
}

struct QueryDef {
    id: QueryId,
    output: OutputKind,
    stages: Vec<usize>, // segment indexes, in chain order
}

struct Partition<A> {
    window: WindowSpec,
    table: TypeTable,
    segs: Vec<SegDef>,
    queries: Vec<QueryDef>,
    /// queries whose *final* stage is each segment
    finalists: Vec<Vec<usize>>,
    groups: HashMap<GroupKey, GroupState<A>>,
    sequences_constructed: u64,
    /// Rows this partition folded — the rows its scope selected, the
    /// same notion of "matched" the online engines report per partition.
    events_matched: u64,
    /// Reused per-row key storage (clone only on first sight of a group).
    key_scratch: GroupKey,
    vals_scratch: Vec<Value>,
    /// Reused emission buffer for closing windows.
    emit_scratch: Vec<(u64, A)>,
    /// Reused buffer for the segment matches a single END row constructs.
    match_scratch: Vec<Match<A>>,
}

/// Partition `workload` by sharing signature, preserving id order — one
/// subscriber (and routing scope) per partition.
pub(crate) fn signature_partitions(workload: &Workload) -> Vec<Vec<&Query>> {
    let mut parts: Vec<(Vec<&Query>, sharon_query::SharingSignature)> = Vec::new();
    for q in workload.queries() {
        let sig = q.sharing_signature();
        match parts.iter_mut().find(|(_, s)| *s == sig) {
            Some((qs, _)) => qs.push(q),
            None => parts.push((vec![q], sig)),
        }
    }
    parts.into_iter().map(|(qs, _)| qs).collect()
}

impl<A: Aggregate> Partition<A> {
    fn new(
        catalog: &Catalog,
        queries: &[&Query],
        plan: &SharingPlan,
    ) -> Result<Self, CompileError> {
        let window = queries[0].window;
        // resolve group/pred/contrib tables of all queries so every
        // pattern type is covered
        let mut table = TypeTable::build(catalog, queries[0])?;
        for q in &queries[1..] {
            table.absorb(TypeTable::build(catalog, q)?);
        }

        let mut segs: Vec<SegDef> = Vec::new();
        let mut shared_seg: HashMap<usize, usize> = HashMap::new();
        let mut qdefs = Vec::with_capacity(queries.len());
        for q in queries {
            let segments = plan
                .decompose(q)
                .map_err(|e| CompileError::PlanInvalid(e.to_string()))?;
            let mut stages = Vec::with_capacity(segments.len());
            for seg in &segments {
                let idx = match seg.kind {
                    SegmentKind::Shared(ci) => {
                        if let Some(&i) = shared_seg.get(&ci) {
                            stages.push(i);
                            continue;
                        }
                        let i = segs.len();
                        shared_seg.insert(ci, i);
                        i
                    }
                    SegmentKind::Private => segs.len(),
                };
                let max_ty = seg
                    .pattern
                    .types()
                    .iter()
                    .map(|t| t.index())
                    .max()
                    .unwrap_or(0);
                let mut positions: Vec<Vec<usize>> = vec![Vec::new(); max_ty + 1];
                for (i, t) in seg.pattern.types().iter().enumerate() {
                    positions[t.index()].push(i);
                }
                segs.push(SegDef {
                    len: seg.pattern.len(),
                    positions,
                });
                stages.push(idx);
            }
            qdefs.push(QueryDef {
                id: q.id,
                output: OutputKind::of(q),
                stages,
            });
        }
        let mut finalists = vec![Vec::new(); segs.len()];
        for (qi, q) in qdefs.iter().enumerate() {
            finalists[*q.stages.last().expect("patterns are non-empty")].push(qi);
        }
        Ok(Partition {
            window,
            table,
            segs,
            queries: qdefs,
            finalists,
            groups: HashMap::new(),
            sequences_constructed: 0,
            events_matched: 0,
            key_scratch: GroupKey::Global,
            vals_scratch: Vec::new(),
            emit_scratch: Vec::new(),
            match_scratch: Vec::new(),
        })
    }
}

impl<A: Aggregate> Subscriber for Partition<A> {
    /// The per-row fold of every batch. The partition's scope
    /// selected the row: routing, predicates and groupability are
    /// established.
    fn row(
        &mut self,
        ty: EventTypeId,
        time: Timestamp,
        attrs: &[Value],
        results: &mut ExecutorResults,
    ) {
        let grouped =
            self.table
                .read_group_key(ty, attrs, &mut self.vals_scratch, &mut self.key_scratch);
        debug_assert!(grouped, "the scope selected an ungroupable event");
        self.events_matched += 1;
        let spec = self.window;
        let slide = spec.slide.millis();
        if !self.groups.contains_key(&self.key_scratch) {
            let state = GroupState {
                segs: self
                    .segs
                    .iter()
                    .map(|s| SegGroupState {
                        buffers: SeqBuffers::new(s.len),
                        matches: VecDeque::new(),
                    })
                    .collect(),
                accs: self.queries.iter().map(|_| WinVec::new()).collect(),
            };
            self.groups.insert(self.key_scratch.clone(), state);
        }
        let group = self
            .groups
            .get_mut(&self.key_scratch)
            .expect("group present after insert");

        // expire + close
        if time.millis() >= spec.within.millis() {
            let cutoff = Timestamp(time.millis() - spec.within.millis());
            for sg in &mut group.segs {
                sg.buffers.expire(cutoff);
                while sg.matches.front().is_some_and(|m| m.end <= cutoff) {
                    sg.matches.pop_front();
                }
            }
        }
        let min_seq = spec.first_start_covering(time).millis() / slide;
        for (qi, acc) in group.accs.iter_mut().enumerate() {
            self.emit_scratch.clear();
            acc.drain_before_into(min_seq, &mut self.emit_scratch);
            for &(seq, v) in self.emit_scratch.iter() {
                results.emit(
                    self.queries[qi].id,
                    self.key_scratch.clone(),
                    Timestamp(seq * slide),
                    v.output(self.queries[qi].output),
                );
            }
        }

        let c = self.table.contribution(ty, attrs);
        let mut new_matches = std::mem::take(&mut self.match_scratch);
        let GroupState { segs: gsegs, accs } = group;
        for (si, seg) in self.segs.iter().enumerate() {
            let Some(positions) = seg.positions.get(ty.index()).filter(|p| !p.is_empty()) else {
                continue;
            };
            // shared construction: new matches of this segment ending here
            if positions.contains(&(seg.len - 1)) {
                new_matches.clear();
                let constructed =
                    gsegs[si]
                        .buffers
                        .enumerate_ending::<A>(time, c, |start, cell| {
                            new_matches.push(Match {
                                start,
                                end: time,
                                cell,
                            });
                        });
                self.sequences_constructed += constructed;
                // unshared aggregation: each query joins the new final
                // matches with its earlier segments' materialized matches
                for &qi in &self.finalists[si] {
                    let qdef = &self.queries[qi];
                    let prefix_stages = &qdef.stages[..qdef.stages.len() - 1];
                    let acc = &mut accs[qi];
                    for m in &new_matches {
                        self.sequences_constructed +=
                            join_backward(gsegs, prefix_stages, m, |start, cell| {
                                let hi = start.millis() / slide;
                                if hi >= min_seq {
                                    acc.add_range(time, min_seq, hi, cell);
                                }
                            });
                    }
                }
                gsegs[si].matches.extend(new_matches.iter().copied());
            }
            // buffer at non-END positions
            for &pos in positions {
                if pos + 1 < seg.len {
                    gsegs[si].buffers.push(pos, time, c);
                }
            }
        }
        self.match_scratch = new_matches;
    }

    fn finish(&mut self, results: &mut ExecutorResults) {
        let slide = self.window.slide.millis();
        for (key, group) in self.groups.iter_mut() {
            for (qi, acc) in group.accs.iter_mut().enumerate() {
                for (seq, v) in acc.drain_before(u64::MAX) {
                    results.emit(
                        self.queries[qi].id,
                        key.clone(),
                        Timestamp(seq * slide),
                        v.output(self.queries[qi].output),
                    );
                }
            }
        }
    }

    fn matched(&self) -> u64 {
        self.events_matched
    }

    fn sequences(&self) -> u64 {
        self.sequences_constructed
    }

    fn state_size(&self) -> usize {
        self.groups
            .values()
            .map(|g| {
                g.segs
                    .iter()
                    .map(|s| s.matches.len() + s.buffers.buffered_events())
                    .sum::<usize>()
            })
            .sum()
    }
}

/// Enumerate all combinations of earlier-segment matches that chain
/// (strictly increasing time) in front of final match `last`, invoking the
/// callback with the full sequence's START time and combined cell.
fn join_backward<A: Aggregate>(
    segs: &[SegGroupState<A>],
    prefix_stages: &[usize],
    last: &Match<A>,
    mut emit: impl FnMut(Timestamp, A),
) -> u64 {
    fn rec<A: Aggregate>(
        segs: &[SegGroupState<A>],
        stages: &[usize],
        before: Timestamp,
        suffix_cell: A,
        count: &mut u64,
        emit: &mut impl FnMut(Timestamp, A),
    ) {
        let (&stage, rest) = stages
            .split_last()
            .expect("rec requires at least one stage");
        // matches are appended in END-time order, so we can stop at the
        // first match that no longer precedes `before`
        for m in segs[stage].matches.iter() {
            if m.end >= before {
                break;
            }
            let cell = m.cell.cross(&suffix_cell);
            if rest.is_empty() {
                *count += 1;
                emit(m.start, cell);
            } else {
                rec(segs, rest, m.start, cell, count, emit);
            }
        }
    }
    if prefix_stages.is_empty() {
        emit(last.start, last.cell);
        return 1;
    }
    let mut count = 0;
    rec(
        segs,
        prefix_stages,
        last.start,
        last.cell,
        &mut count,
        &mut emit,
    );
    count
}

/// The SPASS-like strategy family (see [`SpassLike`]).
pub enum Spass {}

impl Family for Spass {}

/// The shared two-step executor: shared sequence construction per plan
/// candidate, per-query join + aggregation afterwards.
pub type SpassLike = TwoStep<Spass>;

impl SpassLike {
    /// Compile `workload` under `plan` (candidates decide which segment
    /// constructions are shared).
    pub fn new(
        catalog: &Catalog,
        workload: &Workload,
        plan: &SharingPlan,
    ) -> Result<Self, CompileError> {
        if workload.is_empty() {
            return Err(CompileError::EmptyWorkload);
        }
        plan.validate(workload)
            .map_err(|e| CompileError::PlanInvalid(e.to_string()))?;
        // partition by sharing signature, like the online executor
        let parts = signature_partitions(workload);
        for cand in &plan.candidates {
            let ok = parts
                .iter()
                .any(|qs| cand.queries.iter().all(|id| qs.iter().any(|q| q.id == *id)));
            if !ok {
                return Err(CompileError::CandidateSpansPartitions {
                    pattern: cand.pattern.display(catalog).to_string(),
                });
            }
        }
        let mut scopes = Vec::with_capacity(parts.len());
        let mut subs: Vec<Box<dyn Subscriber>> = Vec::with_capacity(parts.len());
        for qs in &parts {
            scopes.push(ScopeFilter::build(catalog, qs)?);
            subs.push(if qs.iter().all(|q| q.agg.is_count_like()) {
                Box::new(Partition::<CountCell>::new(catalog, qs, plan)?)
            } else {
                Box::new(Partition::<StatsCell>::new(catalog, qs, plan)?)
            });
        }
        Ok(TwoStep::new_driver(scopes, subs, workload.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::tests::assert_equivalent;
    use sharon_executor::Executor;
    use sharon_query::{parse_workload, Pattern, PlanCandidate};
    use sharon_types::{Event, EventBatch};

    fn ev(ty: EventTypeId, t: u64) -> Event {
        Event::new(ty, Timestamp(t))
    }

    fn traffic_pair() -> (Catalog, Workload, SharingPlan) {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(X, A, B) WITHIN 20 ms SLIDE 5 ms",
                "RETURN COUNT(*) PATTERN SEQ(Y, A, B, Z) WITHIN 20 ms SLIDE 5 ms",
            ],
        )
        .unwrap();
        let ab = Pattern::from_names(&mut c, ["A", "B"]);
        let plan = SharingPlan::new([PlanCandidate::new(ab, [QueryId(0), QueryId(1)])]);
        (c, w, plan)
    }

    #[test]
    fn matches_online_executor() {
        let (c, w, plan) = traffic_pair();
        let x = c.lookup("X").unwrap();
        let y = c.lookup("Y").unwrap();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let z = c.lookup("Z").unwrap();
        let batch = EventBatch::from_events(&[
            ev(x, 1),
            ev(y, 2),
            ev(a, 3),
            ev(b, 4),
            ev(a, 5),
            ev(b, 6),
            ev(z, 7),
            ev(x, 9),
            ev(a, 10),
            ev(b, 12),
            ev(z, 14),
        ]);
        let mut sp = SpassLike::new(&c, &w, &plan).unwrap();
        let mut online = Executor::new(&c, &w, &plan).unwrap();
        sp.process_columnar(&batch);
        online.process_columnar(&batch);
        assert!(sp.sequences_constructed() > 0);
        let sr = sp.finish();
        let or = online.finish();
        assert_equivalent(&sr, &or, 2, 1e-9, "spass vs online");
        assert!(!sr.is_empty());
    }

    #[test]
    fn shared_construction_counts_segment_matches_once() {
        let (c, w, plan) = traffic_pair();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let mut sp = SpassLike::new(&c, &w, &plan).unwrap();
        // two (A,B) matches, no prefixes: shared segment constructs 2
        // matches once; no query completes (prefixes missing)
        sp.process_columnar(&EventBatch::from_events(&[
            ev(a, 1),
            ev(b, 2),
            ev(a, 3),
            ev(b, 4),
        ]));
        // (a1,b2), (a1,b4), (a3,b4) = 3 shared matches
        assert_eq!(sp.sequences_constructed(), 3);
        assert!(sp.state_size() >= 3, "match sets are materialized");
        let r = sp.finish();
        assert!(r.is_empty());
    }

    #[test]
    fn non_shared_plan_equals_flink_like() {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            ["RETURN COUNT(*) PATTERN SEQ(A, B, C) WITHIN 10 ms SLIDE 2 ms"],
        )
        .unwrap();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let cc = c.lookup("C").unwrap();
        let batch = EventBatch::from_events(&[ev(a, 1), ev(b, 2), ev(cc, 3), ev(b, 4), ev(cc, 5)]);
        let mut sp = SpassLike::new(&c, &w, &SharingPlan::non_shared()).unwrap();
        let mut fl = crate::flink_like::FlinkLike::new(&c, &w).unwrap();
        sp.process_columnar(&batch);
        fl.process_columnar(&batch);
        let sr = sp.finish();
        let fr = fl.finish();
        assert_equivalent(&sr, &fr, 1, 1e-9, "spass vs flink");
    }

    #[test]
    fn columnar_path_matches_per_event() {
        let (c, w, plan) = traffic_pair();
        let names = ["X", "Y", "A", "B", "Z"];
        let events: Vec<Event> = (0..500u64)
            .map(|i| ev(c.lookup(names[(i % 5) as usize]).unwrap(), i))
            .collect();

        // one row per batch: the per-event cadence
        let mut per_event = SpassLike::new(&c, &w, &plan).unwrap();
        for e in &events {
            per_event.process_columnar(&EventBatch::from_events(std::slice::from_ref(e)));
        }
        let want = per_event.finish();
        assert!(!want.is_empty());

        let batch = EventBatch::from_events(&events);
        let mut columnar = SpassLike::new(&c, &w, &plan).unwrap();
        columnar.process_columnar(&batch);
        let got = columnar.finish();
        assert_equivalent(&got, &want, 2, 1e-9, "columnar vs per event");
    }
}
