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
//! Like every strategy in the system, the baseline is a
//! [`BatchProcessor`]: [`SpassLike::process_columnar`] runs, per
//! sharing-signature partition, a compiled scan kernel over the batch
//! columns that selects row indices, then a stateful dispatch over the
//! shared value buffer. [`SpassLike::sharded`]
//! runs the baseline on the route-once parallel runtime: one instance per
//! worker behind a scope-fanning [`sharon_executor::ShardProcessor`]
//! wrapper, with identical routing scopes deduplicated.

use crate::common::{self, ScopeFilter, ScopeHost, TypeTable};
use crate::construct::SeqBuffers;
use sharon_executor::agg::{Aggregate, CountCell, OutputKind, StatsCell};
use sharon_executor::compile::CompileError;
use sharon_executor::winvec::WinVec;
use sharon_executor::{
    BatchProcessor, Executor, ExecutorResults, Reorder, ScanKernel, ShardedExecutor, ShardedOptions,
};
use sharon_query::{AggFunc, Query, QueryId, SegmentKind, SharingPlan, Workload};
use sharon_types::{
    Catalog, EventBatch, EventStream, EventTypeId, GroupKey, Timestamp, Value, WindowSpec,
};
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
    /// Per type id (dense): does any segment route the type?
    routed: Vec<bool>,
    segs: Vec<SegDef>,
    queries: Vec<QueryDef>,
    /// queries whose *final* stage is each segment
    finalists: Vec<Vec<usize>>,
    groups: HashMap<GroupKey, GroupState<A>>,
    sequences_constructed: u64,
    /// Rows that survived this partition's stateless scan (routing,
    /// predicates, grouping) — the same notion of "matched" the online
    /// engines report per partition.
    events_matched: u64,
    /// Reused per-row key storage (clone only on first sight of a group).
    key_scratch: GroupKey,
    vals_scratch: Vec<Value>,
    /// Reused row-selection buffer of the scan.
    sel_scratch: Vec<u32>,
    /// Reused emission buffer for closing windows.
    emit_scratch: Vec<(u64, A)>,
    /// Reused buffer for the segment matches a single END row constructs.
    match_scratch: Vec<Match<A>>,
    /// Compiled scan kernel selecting this partition's rows of a batch.
    scan: ScanKernel,
    /// Rows examined by this partition's scan.
    rows_scanned: u64,
    /// Rows that survived routing + predicates + groupability.
    rows_selected: u64,
}

fn output_kind(q: &Query) -> OutputKind {
    match &q.agg {
        AggFunc::CountStar => OutputKind::Count,
        AggFunc::Count(t) => OutputKind::CountTimes(q.pattern.positions_of(*t).len() as u32),
        AggFunc::Sum(..) => OutputKind::Sum,
        AggFunc::Min(..) => OutputKind::Min,
        AggFunc::Max(..) => OutputKind::Max,
        AggFunc::Avg(t, _) => OutputKind::Avg(q.pattern.positions_of(*t).len() as u32),
    }
}

/// Partition `workload` by sharing signature, preserving id order — the
/// scope order shared by the sequential kernel and the sharded router.
pub(crate) fn signature_partitions(workload: &Workload) -> Vec<Vec<&Query>> {
    let mut parts: Vec<(Vec<&Query>, sharon_query::query::SharingSignature)> = Vec::new();
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
                output: output_kind(q),
                stages,
            });
        }
        let mut finalists = vec![Vec::new(); segs.len()];
        for (qi, q) in qdefs.iter().enumerate() {
            finalists[*q.stages.last().expect("patterns are non-empty")].push(qi);
        }
        let routed = crate::common::routed_bitmap(queries);
        let scan = ScanKernel::new(routed.clone(), &table.group_attrs, &table.predicates);
        Ok(Partition {
            window,
            table,
            routed,
            segs,
            queries: qdefs,
            finalists,
            groups: HashMap::new(),
            sequences_constructed: 0,
            events_matched: 0,
            key_scratch: GroupKey::Global,
            vals_scratch: Vec::new(),
            sel_scratch: Vec::new(),
            emit_scratch: Vec::new(),
            match_scratch: Vec::new(),
            scan,
            rows_scanned: 0,
            rows_selected: 0,
        })
    }

    /// The shared per-row path of the columnar dispatch, the sharded
    /// routed dispatch, and the event-time gate's release (`pre_routed`
    /// rows have already passed routing + predicates + groupability; rows
    /// the gate admitted raw are checked here).
    fn process_row(
        &mut self,
        ty: EventTypeId,
        time: Timestamp,
        attrs: &[Value],
        pre_routed: bool,
        results: &mut ExecutorResults,
    ) {
        if !pre_routed {
            if !self.routed.get(ty.index()).copied().unwrap_or(false) {
                return;
            }
            if !self.table.passes(ty, attrs) {
                return;
            }
        }
        if !self
            .table
            .read_group_key(ty, attrs, &mut self.vals_scratch, &mut self.key_scratch)
        {
            debug_assert!(!pre_routed, "router selected an ungroupable event");
            return;
        }
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

    /// Columnar pipeline over one batch: compiled scan → stateful
    /// dispatch of the selected row indices.
    fn process_columnar(&mut self, batch: &EventBatch, results: &mut ExecutorResults) {
        let mut sel = std::mem::take(&mut self.sel_scratch);
        sel.clear();
        self.scan.select_into(batch, 0, batch.len(), &mut sel);
        self.rows_scanned += batch.len() as u64;
        self.rows_selected += sel.len() as u64;
        sharon_metrics::record_rows_scanned(batch.len() as u64);
        sharon_metrics::record_rows_selected(sel.len() as u64);
        self.process_rows(batch, &sel, results);
        self.sel_scratch = sel;
    }

    /// Stateful dispatch of pre-selected rows.
    fn process_rows(&mut self, batch: &EventBatch, rows: &[u32], results: &mut ExecutorResults) {
        for &row in rows {
            let row = row as usize;
            self.process_row(
                batch.ty(row),
                batch.time(row),
                batch.attrs(row),
                true,
                results,
            );
        }
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

    fn materialized_matches(&self) -> usize {
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

enum Kernel {
    Count(Vec<Partition<CountCell>>),
    Stats(Vec<Partition<StatsCell>>),
}

/// The shared two-step executor: shared sequence construction per plan
/// candidate, per-query join + aggregation afterwards.
pub struct SpassLike {
    kernel: Kernel,
    results: ExecutorResults,
    last_time: Timestamp,
    /// Event-time reorder gate (see [`Reorder`]); `None` keeps the
    /// historical arrival-order contract.
    reorder: Option<Reorder>,
}

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
        let count_only = workload.queries().iter().all(|q| q.agg.is_count_like());
        let kernel = if count_only {
            Kernel::Count(
                parts
                    .iter()
                    .map(|qs| Partition::new(catalog, qs, plan))
                    .collect::<Result<_, _>>()?,
            )
        } else {
            Kernel::Stats(
                parts
                    .iter()
                    .map(|qs| Partition::new(catalog, qs, plan))
                    .collect::<Result<_, _>>()?,
            )
        };
        Ok(SpassLike {
            kernel,
            results: ExecutorResults::new(),
            last_time: Timestamp::ZERO,
            reorder: None,
        })
    }

    /// Enable event-time processing: input may carry bounded disorder,
    /// rows buffer behind the watermark `max_time_seen − lateness_ms` and
    /// release in event-time order; rows behind the watermark are dropped
    /// and counted. Must be called before any ingestion.
    pub fn set_lateness(&mut self, lateness_ms: u64) {
        self.reorder = Some(Reorder::new(lateness_ms));
    }

    /// Late rows dropped by the event-time gate (0 when no gate).
    pub fn late_rows_dropped(&self) -> u64 {
        self.reorder.as_ref().map_or(0, Reorder::late_rows_dropped)
    }

    /// Dispatch one in-order row to every signature partition (the
    /// release half of the gated paths).
    fn dispatch_row(
        &mut self,
        ty: EventTypeId,
        time: Timestamp,
        attrs: &[Value],
        pre_routed: bool,
    ) {
        match &mut self.kernel {
            Kernel::Count(ps) => {
                for p in ps {
                    p.process_row(ty, time, attrs, pre_routed, &mut self.results);
                }
            }
            Kernel::Stats(ps) => {
                for p in ps {
                    p.process_row(ty, time, attrs, pre_routed, &mut self.results);
                }
            }
        }
    }

    /// Advance the gate's watermark and dispatch every released row.
    fn advance_watermark(&mut self, frontier: Timestamp) {
        let Some(gate) = &mut self.reorder else {
            return;
        };
        gate.advance(frontier);
        self.release_ready();
    }

    fn release_ready(&mut self) {
        while let Some(row) = self.reorder.as_mut().and_then(Reorder::pop_ready) {
            self.dispatch_row(row.ty, row.time, &row.attrs, row.pre_routed);
            if let Some(gate) = &mut self.reorder {
                gate.recycle(row);
            }
        }
    }

    /// End-of-stream: open the gate and release everything still buffered.
    fn flush_pending(&mut self) {
        let Some(gate) = &mut self.reorder else {
            return;
        };
        gate.open();
        self.release_ready();
    }

    /// Run the baseline on the sharded parallel runtime: the batch router
    /// fans each signature partition's rows out by group hash; one full
    /// [`SpassLike`] instance per worker consumes only the rows it owns.
    ///
    /// Routing scopes are **deduplicated** like [`crate::FlinkLike::sharded`]'s:
    /// signature partitions whose pattern types, predicates, and
    /// `GROUP BY` clauses coincide (partitions differing only in window
    /// or aggregate, say) share one routing scope, scanned once per batch
    /// and fanned out to every subscribing partition on the worker side.
    /// `options` is read as in [`crate::FlinkLike::sharded`].
    pub fn sharded(
        catalog: &Catalog,
        workload: &Workload,
        plan: &SharingPlan,
        n_shards: usize,
        options: &ShardedOptions,
    ) -> Result<ShardedExecutor, CompileError> {
        if workload.is_empty() {
            return Err(CompileError::EmptyWorkload);
        }
        // one routing scope per signature partition, in the same order the
        // sequential kernel builds them
        let scopes = signature_partitions(workload)
            .iter()
            .map(|qs| ScopeFilter::build(catalog, qs))
            .collect::<Result<Vec<_>, _>>()?;
        common::sharded(scopes, n_shards, options, || {
            SpassLike::new(catalog, workload, plan)
        })
    }

    /// Process a time-ordered columnar batch: each signature partition
    /// runs its compiled scan + stateful dispatch over the whole batch
    /// while its state is hot. With an event-time gate, rows are admitted
    /// raw (so a late row counts as dropped even if no partition routes
    /// it) and the watermark advances to the batch's maximum timestamp
    /// afterwards.
    pub fn process_columnar(&mut self, batch: &EventBatch) {
        if let Some(gate) = &mut self.reorder {
            for row in 0..batch.len() {
                gate.admit(
                    batch.ty(row),
                    batch.time(row),
                    batch.attrs(row),
                    0,
                    false,
                    false,
                );
            }
            if let Some(max) = batch.max_time() {
                self.advance_watermark(max);
            }
            return;
        }
        if let Some(&t) = batch.times().last() {
            debug_assert!(t >= self.last_time, "batches must be time-ordered");
            self.last_time = t;
        }
        match &mut self.kernel {
            Kernel::Count(ps) => {
                for p in ps {
                    p.process_columnar(batch, &mut self.results);
                }
            }
            Kernel::Stats(ps) => {
                for p in ps {
                    p.process_columnar(batch, &mut self.results);
                }
            }
        }
    }

    /// Drain a stream through the baseline in columnar batches.
    pub fn run(&mut self, mut stream: impl EventStream) -> &mut Self {
        let mut buf = EventBatch::with_capacity(Executor::RUN_BATCH, 2);
        while stream.next_batch_columnar(Executor::RUN_BATCH, &mut buf) > 0 {
            self.process_columnar(&buf);
            buf.clear();
        }
        self
    }

    /// Pre-size the result store for about `additional` further results
    /// per query (capacity planning for allocation-free steady-state
    /// emission).
    pub fn reserve_results(&mut self, additional: usize) {
        let queries: usize = match &self.kernel {
            Kernel::Count(ps) => ps.iter().map(|p| p.queries.len()).sum(),
            Kernel::Stats(ps) => ps.iter().map(|p| p.queries.len()).sum(),
        };
        self.results.reserve(additional * queries);
    }

    /// Flush and return all results.
    pub fn finish(mut self) -> ExecutorResults {
        self.flush_pending();
        match &mut self.kernel {
            Kernel::Count(ps) => {
                for p in ps {
                    p.finish(&mut self.results);
                }
            }
            Kernel::Stats(ps) => {
                for p in ps {
                    p.finish(&mut self.results);
                }
            }
        }
        self.results
    }

    /// Segment matches plus joined sequences constructed so far.
    pub fn sequences_constructed(&self) -> u64 {
        match &self.kernel {
            Kernel::Count(ps) => ps.iter().map(|p| p.sequences_constructed).sum(),
            Kernel::Stats(ps) => ps.iter().map(|p| p.sequences_constructed).sum(),
        }
    }

    /// Materialized matches + buffered events (memory proxy).
    pub fn materialized_matches(&self) -> usize {
        match &self.kernel {
            Kernel::Count(ps) => ps.iter().map(Partition::materialized_matches).sum(),
            Kernel::Stats(ps) => ps.iter().map(Partition::materialized_matches).sum(),
        }
    }

    /// Rows that survived the stateless scans, summed over signature
    /// partitions — comparable to the online engines' matched counts.
    pub fn events_matched(&self) -> u64 {
        match &self.kernel {
            Kernel::Count(ps) => ps.iter().map(|p| p.events_matched).sum(),
            Kernel::Stats(ps) => ps.iter().map(|p| p.events_matched).sum(),
        }
    }

    /// Per-partition `(rows_scanned, rows_selected)` of the scan, in
    /// partition order.
    pub fn scan_stats(&self) -> Vec<(u64, u64)> {
        match &self.kernel {
            Kernel::Count(ps) => ps
                .iter()
                .map(|p| (p.rows_scanned, p.rows_selected))
                .collect(),
            Kernel::Stats(ps) => ps
                .iter()
                .map(|p| (p.rows_scanned, p.rows_selected))
                .collect(),
        }
    }
}

impl BatchProcessor for SpassLike {
    fn process_columnar(&mut self, batch: &EventBatch) {
        SpassLike::process_columnar(self, batch);
    }

    fn late_rows_dropped(&self) -> u64 {
        SpassLike::late_rows_dropped(self)
    }

    fn events_matched(&self) -> u64 {
        SpassLike::events_matched(self)
    }

    fn scan_stats(&self) -> Vec<(u64, u64)> {
        SpassLike::scan_stats(self)
    }

    fn state_size(&self) -> usize {
        self.materialized_matches()
    }

    fn finish(mut self: Box<Self>) -> (ExecutorResults, u64) {
        // drain the gate first so the matched count includes released rows
        self.flush_pending();
        let matched = SpassLike::events_matched(&self);
        ((*self).finish(), matched)
    }
}

/// The sharded fan-out path: a subscriber is a signature-partition index.
impl ScopeHost for SpassLike {
    const NAME: &'static str = "SPASS";

    fn process_scope_rows(&mut self, pi: usize, batch: &EventBatch, rows: &[u32]) {
        match &mut self.kernel {
            Kernel::Count(ps) => ps[pi].process_rows(batch, rows, &mut self.results),
            Kernel::Stats(ps) => ps[pi].process_rows(batch, rows, &mut self.results),
        }
    }

    fn process_scope_row(&mut self, pi: usize, ty: EventTypeId, time: Timestamp, attrs: &[Value]) {
        match &mut self.kernel {
            Kernel::Count(ps) => ps[pi].process_row(ty, time, attrs, true, &mut self.results),
            Kernel::Stats(ps) => ps[pi].process_row(ty, time, attrs, true, &mut self.results),
        }
    }

    fn events_matched(&self) -> u64 {
        SpassLike::events_matched(self)
    }

    fn state_size(&self) -> usize {
        self.materialized_matches()
    }

    fn finish(self) -> ExecutorResults {
        SpassLike::finish(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharon_query::{parse_workload, Pattern, PlanCandidate};
    use sharon_types::Event;

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
        assert!(
            sr.semantically_eq(&or, 1e-9),
            "spass: {:?} {:?}\nonline: {:?} {:?}",
            sr.of_query_sorted(QueryId(0)),
            sr.of_query_sorted(QueryId(1)),
            or.of_query_sorted(QueryId(0)),
            or.of_query_sorted(QueryId(1)),
        );
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
        assert!(
            sp.materialized_matches() >= 3,
            "match sets are materialized"
        );
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
        assert!(sr.semantically_eq(&fr, 1e-9));
    }

    #[test]
    fn columnar_and_sharded_paths_match_per_event() {
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
        assert!(got.semantically_eq(&want, 1e-9));

        let mut sharded = SpassLike::sharded(&c, &w, &plan, 3, &ShardedOptions::default()).unwrap();
        sharded.process_columnar(&batch);
        let got = sharded.finish();
        assert!(got.semantically_eq(&want, 1e-9));
    }
}
