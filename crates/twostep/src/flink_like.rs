//! The non-shared two-step baseline ("Flink" in the paper's evaluation).
//!
//! "Flink constructs all event sequences prior \[to\] their aggregation. It
//! does not share computations among different queries" (Section 8.1).
//! Every query keeps its own event buffers; every END event triggers an
//! explicit enumeration of all sequences it completes, which are then
//! aggregated into the open windows. Latency grows polynomially in the
//! number of events per window — reproducing Figure 13's blow-up.
//!
//! Like every strategy in the system, the baseline is a
//! [`BatchProcessor`]: [`FlinkLike::process_columnar`] runs, per query, a
//! compiled scan kernel over the batch columns (type routing, predicates,
//! groupability) that selects row indices, then a stateful dispatch that
//! folds only the selected rows — iterating row indices over the shared
//! value buffer.
//! [`FlinkLike::sharded`] runs the baseline on the route-once parallel
//! runtime with groups hash-partitioned across worker threads, exactly
//! like the online engines: each worker hosts one baseline instance
//! behind a scope-fanning [`sharon_executor::ShardProcessor`] wrapper,
//! and identical routing scopes are deduplicated so the router scans each
//! distinct scope once per batch.

use crate::common::{self, ScopeFilter, ScopeHost, TypeTable};
use crate::construct::SeqBuffers;
use sharon_executor::agg::{Aggregate, CountCell, OutputKind, StatsCell};
use sharon_executor::compile::CompileError;
use sharon_executor::winvec::WinVec;
use sharon_executor::{
    BatchProcessor, Executor, ExecutorResults, Reorder, ScanKernel, ShardedExecutor, ShardedOptions,
};
use sharon_query::{AggFunc, Query, QueryId, Workload};
use sharon_types::{
    Catalog, EventBatch, EventStream, EventTypeId, GroupKey, Timestamp, Value, WindowSpec,
};
use std::collections::HashMap;

struct GroupState<A> {
    buffers: SeqBuffers,
    acc: WinVec<A>,
}

struct QueryState<A> {
    id: QueryId,
    window: WindowSpec,
    /// positions of each type in the pattern (dense by type id)
    positions: Vec<Vec<usize>>,
    table: TypeTable,
    output: OutputKind,
    pattern_len: usize,
    groups: HashMap<GroupKey, GroupState<A>>,
    sequences_constructed: u64,
    /// Rows that survived this query's stateless scan (routing,
    /// predicates, grouping) — the same notion of "matched" the online
    /// engines report per partition.
    events_matched: u64,
    /// Reused per-row key storage — the hot path never allocates a fresh
    /// key; cloning happens only on first sight of a group.
    key_scratch: GroupKey,
    vals_scratch: Vec<Value>,
    /// Reused row-selection buffer of the scan.
    sel_scratch: Vec<u32>,
    /// Reused emission buffer for closing windows.
    emit_scratch: Vec<(u64, A)>,
    /// Compiled scan kernel selecting this query's rows of a batch.
    scan: ScanKernel,
    /// Rows examined by this query's scan.
    rows_scanned: u64,
    /// Rows that survived routing + predicates + groupability.
    rows_selected: u64,
}

impl<A: Aggregate> QueryState<A> {
    fn new(catalog: &Catalog, q: &Query) -> Result<Self, CompileError> {
        let max_ty = q
            .pattern
            .types()
            .iter()
            .map(|t| t.index())
            .max()
            .unwrap_or(0);
        let mut positions: Vec<Vec<usize>> = vec![Vec::new(); max_ty + 1];
        for (i, t) in q.pattern.types().iter().enumerate() {
            positions[t.index()].push(i);
        }
        let output = match &q.agg {
            AggFunc::CountStar => OutputKind::Count,
            AggFunc::Count(t) => OutputKind::CountTimes(q.pattern.positions_of(*t).len() as u32),
            AggFunc::Sum(..) => OutputKind::Sum,
            AggFunc::Min(..) => OutputKind::Min,
            AggFunc::Max(..) => OutputKind::Max,
            AggFunc::Avg(t, _) => OutputKind::Avg(q.pattern.positions_of(*t).len() as u32),
        };
        let table = TypeTable::build(catalog, q)?;
        let scan = ScanKernel::new(
            positions.iter().map(|p| !p.is_empty()).collect(),
            &table.group_attrs,
            &table.predicates,
        );
        Ok(QueryState {
            id: q.id,
            window: q.window,
            positions,
            table,
            output,
            pattern_len: q.pattern.len(),
            groups: HashMap::new(),
            sequences_constructed: 0,
            events_matched: 0,
            key_scratch: GroupKey::Global,
            vals_scratch: Vec::new(),
            sel_scratch: Vec::new(),
            emit_scratch: Vec::new(),
            scan,
            rows_scanned: 0,
            rows_selected: 0,
        })
    }

    /// The shared per-row path of the columnar dispatch, the sharded
    /// routed dispatch, and the event-time gate's release. With
    /// `pre_routed`, the caller (the scan kernel or the batch router) has
    /// already established routing + predicates + groupability, so those
    /// checks are skipped; rows the gate admitted raw are checked here.
    fn process_row(
        &mut self,
        ty: EventTypeId,
        time: Timestamp,
        attrs: &[Value],
        pre_routed: bool,
        results: &mut ExecutorResults,
    ) {
        let Some(positions) = self.positions.get(ty.index()).filter(|p| !p.is_empty()) else {
            debug_assert!(!pre_routed, "router selected an unrouted event type");
            return;
        };
        if !pre_routed && !self.table.passes(ty, attrs) {
            return;
        }
        // group key — written into the reused scratch key; the clone into
        // the map happens exactly once per distinct group
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
            let buffers = SeqBuffers::new(self.pattern_len);
            self.groups.insert(
                self.key_scratch.clone(),
                GroupState {
                    buffers,
                    acc: WinVec::new(),
                },
            );
        }
        let group = self
            .groups
            .get_mut(&self.key_scratch)
            .expect("group present after insert");

        // expire buffered events that can no longer share a window with
        // the current row
        if time.millis() >= spec.within.millis() {
            group
                .buffers
                .expire(Timestamp(time.millis() - spec.within.millis()));
        }
        // close finished windows (reused emission buffer: no allocation in
        // steady state)
        let close_seq = spec.first_start_covering(time).millis() / slide;
        self.emit_scratch.clear();
        group
            .acc
            .drain_before_into(close_seq, &mut self.emit_scratch);
        for &(seq, v) in self.emit_scratch.iter() {
            results.emit(
                self.id,
                self.key_scratch.clone(),
                Timestamp(seq * slide),
                v.output(self.output),
            );
        }

        let c = self.table.contribution(ty, attrs);
        let min_seq = close_seq;
        // END role first: construct every sequence this row completes
        if positions.contains(&(self.pattern_len - 1)) {
            let acc = &mut group.acc;
            let counted = group.buffers.enumerate_ending::<A>(time, c, |start, cell| {
                let hi = start.millis() / slide;
                if hi >= min_seq {
                    acc.add_range(time, min_seq, hi, cell);
                }
            });
            self.sequences_constructed += counted;
        }
        // buffer the row at its non-END positions
        for &pos in positions {
            if pos + 1 < self.pattern_len {
                group.buffers.push(pos, time, c);
            }
        }
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
        for (key, group) in self.groups.iter_mut() {
            let slide = self.window.slide.millis();
            for (seq, v) in group.acc.drain_before(u64::MAX) {
                results.emit(
                    self.id,
                    key.clone(),
                    Timestamp(seq * slide),
                    v.output(self.output),
                );
            }
        }
    }

    fn buffered_events(&self) -> usize {
        self.groups
            .values()
            .map(|g| g.buffers.buffered_events())
            .sum()
    }
}

enum Kernel {
    Count(Vec<QueryState<CountCell>>),
    Stats(Vec<QueryState<StatsCell>>),
}

/// The non-shared two-step executor: independent sequence construction and
/// aggregation per query.
pub struct FlinkLike {
    kernel: Kernel,
    results: ExecutorResults,
    last_time: Timestamp,
    /// Event-time reorder gate (see [`Reorder`]); `None` keeps the
    /// historical arrival-order contract.
    reorder: Option<Reorder>,
}

impl FlinkLike {
    /// Compile the workload (each query fully independent).
    pub fn new(catalog: &Catalog, workload: &Workload) -> Result<Self, CompileError> {
        if workload.is_empty() {
            return Err(CompileError::EmptyWorkload);
        }
        let kernel = if workload.queries().iter().all(|q| q.agg.is_count_like()) {
            Kernel::Count(
                workload
                    .queries()
                    .iter()
                    .map(|q| QueryState::new(catalog, q))
                    .collect::<Result<_, _>>()?,
            )
        } else {
            Kernel::Stats(
                workload
                    .queries()
                    .iter()
                    .map(|q| QueryState::new(catalog, q))
                    .collect::<Result<_, _>>()?,
            )
        };
        Ok(FlinkLike {
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

    /// Dispatch one in-order row to every query (the release half of the
    /// gated paths; `pre_routed` as recorded at admission).
    fn dispatch_row(
        &mut self,
        ty: EventTypeId,
        time: Timestamp,
        attrs: &[Value],
        pre_routed: bool,
    ) {
        match &mut self.kernel {
            Kernel::Count(qs) => {
                for q in qs {
                    q.process_row(ty, time, attrs, pre_routed, &mut self.results);
                }
            }
            Kernel::Stats(qs) => {
                for q in qs {
                    q.process_row(ty, time, attrs, pre_routed, &mut self.results);
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
    /// fans each query's rows out by group hash, one full [`FlinkLike`]
    /// instance per worker consumes only the rows it owns. Results are
    /// identical to the sequential baseline — sharding is a pure work
    /// partition here too.
    ///
    /// Routing scopes are **deduplicated**: queries whose pattern types,
    /// predicates, and `GROUP BY` clauses coincide (a `ScopeKey` match)
    /// share one routing scope, so the router scans the batch once
    /// per *distinct* scope — not once per query — and each worker fans
    /// the shared row selection out to every subscribing query. This is
    /// what keeps the routing stage from becoming the serial bottleneck
    /// on many-query workloads (the shape the paper's Flink baseline
    /// degrades on: per-query work where shared work would do).
    ///
    /// `options` sizes the batches and the routing plane; with a
    /// lateness set, each shard worker gates its pre-routed rows behind
    /// the router's merged cross-shard frontier, so bounded disorder up
    /// to the lateness is absorbed exactly and later rows are dropped and
    /// counted. Durability options are
    /// [`CompileError::UnsupportedOption`].
    pub fn sharded(
        catalog: &Catalog,
        workload: &Workload,
        n_shards: usize,
        options: &ShardedOptions,
    ) -> Result<ShardedExecutor, CompileError> {
        if workload.is_empty() {
            return Err(CompileError::EmptyWorkload);
        }
        // one routing scope per query
        let scopes = workload
            .queries()
            .iter()
            .map(|q| ScopeFilter::build(catalog, &[q]))
            .collect::<Result<Vec<_>, _>>()?;
        common::sharded(scopes, n_shards, options, || {
            FlinkLike::new(catalog, workload)
        })
    }

    /// Process a time-ordered columnar batch: each query runs its
    /// compiled scan + stateful dispatch over the whole batch while its
    /// state is hot. With an event-time gate, rows are admitted raw (so
    /// a late row counts as dropped even if no query routes it) and the
    /// watermark advances to the batch's maximum timestamp afterwards —
    /// released rows are checked row by row as they dispatch.
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
            Kernel::Count(qs) => {
                for q in qs {
                    q.process_columnar(batch, &mut self.results);
                }
            }
            Kernel::Stats(qs) => {
                for q in qs {
                    q.process_columnar(batch, &mut self.results);
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
        let queries = match &self.kernel {
            Kernel::Count(qs) => qs.len(),
            Kernel::Stats(qs) => qs.len(),
        };
        self.results.reserve(additional * queries);
    }

    /// Flush and return all results.
    pub fn finish(mut self) -> ExecutorResults {
        self.flush_pending();
        match &mut self.kernel {
            Kernel::Count(qs) => {
                for q in qs {
                    q.finish(&mut self.results);
                }
            }
            Kernel::Stats(qs) => {
                for q in qs {
                    q.finish(&mut self.results);
                }
            }
        }
        self.results
    }

    /// Total sequences explicitly constructed so far — the two-step cost
    /// the online approaches avoid.
    pub fn sequences_constructed(&self) -> u64 {
        match &self.kernel {
            Kernel::Count(qs) => qs.iter().map(|q| q.sequences_constructed).sum(),
            Kernel::Stats(qs) => qs.iter().map(|q| q.sequences_constructed).sum(),
        }
    }

    /// Rows that survived the stateless scans, summed over queries —
    /// comparable to the online engines' per-partition matched counts.
    pub fn events_matched(&self) -> u64 {
        match &self.kernel {
            Kernel::Count(qs) => qs.iter().map(|q| q.events_matched).sum(),
            Kernel::Stats(qs) => qs.iter().map(|q| q.events_matched).sum(),
        }
    }

    /// Per-query `(rows_scanned, rows_selected)` of the scan, in query
    /// order.
    pub fn scan_stats(&self) -> Vec<(u64, u64)> {
        match &self.kernel {
            Kernel::Count(qs) => qs
                .iter()
                .map(|q| (q.rows_scanned, q.rows_selected))
                .collect(),
            Kernel::Stats(qs) => qs
                .iter()
                .map(|q| (q.rows_scanned, q.rows_selected))
                .collect(),
        }
    }

    /// Raw events currently buffered across all queries (memory proxy).
    pub fn buffered_events(&self) -> usize {
        match &self.kernel {
            Kernel::Count(qs) => qs.iter().map(QueryState::buffered_events).sum(),
            Kernel::Stats(qs) => qs.iter().map(QueryState::buffered_events).sum(),
        }
    }
}

impl BatchProcessor for FlinkLike {
    fn process_columnar(&mut self, batch: &EventBatch) {
        FlinkLike::process_columnar(self, batch);
    }

    fn late_rows_dropped(&self) -> u64 {
        FlinkLike::late_rows_dropped(self)
    }

    fn events_matched(&self) -> u64 {
        FlinkLike::events_matched(self)
    }

    fn scan_stats(&self) -> Vec<(u64, u64)> {
        FlinkLike::scan_stats(self)
    }

    fn state_size(&self) -> usize {
        self.buffered_events()
    }

    fn finish(mut self: Box<Self>) -> (ExecutorResults, u64) {
        // drain the gate first so the matched count includes released rows
        self.flush_pending();
        let matched = FlinkLike::events_matched(&self);
        ((*self).finish(), matched)
    }
}

/// The sharded fan-out path: a subscriber is a query index.
impl ScopeHost for FlinkLike {
    const NAME: &'static str = "Flink";

    fn process_scope_rows(&mut self, qi: usize, batch: &EventBatch, rows: &[u32]) {
        match &mut self.kernel {
            Kernel::Count(qs) => qs[qi].process_rows(batch, rows, &mut self.results),
            Kernel::Stats(qs) => qs[qi].process_rows(batch, rows, &mut self.results),
        }
    }

    fn process_scope_row(&mut self, qi: usize, ty: EventTypeId, time: Timestamp, attrs: &[Value]) {
        match &mut self.kernel {
            Kernel::Count(qs) => qs[qi].process_row(ty, time, attrs, true, &mut self.results),
            Kernel::Stats(qs) => qs[qi].process_row(ty, time, attrs, true, &mut self.results),
        }
    }

    fn events_matched(&self) -> u64 {
        FlinkLike::events_matched(self)
    }

    fn state_size(&self) -> usize {
        self.buffered_events()
    }

    fn finish(self) -> ExecutorResults {
        FlinkLike::finish(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharon_query::parse_workload;
    use sharon_types::Event;

    fn ev(ty: EventTypeId, t: u64) -> Event {
        Event::new(ty, Timestamp(t))
    }

    #[test]
    fn matches_online_executor_on_figure_6a() {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            ["RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 ms SLIDE 10 ms"],
        )
        .unwrap();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let batch = EventBatch::from_events(&[ev(a, 1), ev(b, 2), ev(a, 3), ev(b, 4)]);

        let mut fl = FlinkLike::new(&c, &w).unwrap();
        let mut online = Executor::non_shared(&c, &w).unwrap();
        fl.process_columnar(&batch);
        online.process_columnar(&batch);
        assert_eq!(fl.sequences_constructed(), 3, "constructs all 3 sequences");
        let fr = fl.finish();
        let or = online.finish();
        assert!(fr.semantically_eq(&or, 1e-9));
        assert_eq!(fr.total_count(QueryId(0)), 3);
    }

    #[test]
    fn sliding_windows_match_online() {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(A, B, C) WITHIN 6 ms SLIDE 2 ms",
                "RETURN COUNT(*) PATTERN SEQ(B, C) WITHIN 6 ms SLIDE 2 ms",
            ],
        )
        .unwrap();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let cc = c.lookup("C").unwrap();
        let batch = EventBatch::from_events(&[
            ev(a, 1),
            ev(b, 2),
            ev(cc, 3),
            ev(a, 4),
            ev(b, 5),
            ev(cc, 6),
            ev(b, 8),
            ev(cc, 11),
        ]);
        let mut fl = FlinkLike::new(&c, &w).unwrap();
        let mut online = Executor::non_shared(&c, &w).unwrap();
        fl.process_columnar(&batch);
        online.process_columnar(&batch);
        let fr = fl.finish();
        let or = online.finish();
        assert!(
            fr.semantically_eq(&or, 1e-9),
            "flink: {:?}\nonline: {:?}",
            fr.of_query_sorted(QueryId(0)),
            or.of_query_sorted(QueryId(0))
        );
        assert!(!fr.is_empty());
    }

    #[test]
    fn buffered_events_grow_with_window() {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            ["RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 100 ms SLIDE 100 ms"],
        )
        .unwrap();
        let a = c.lookup("A").unwrap();
        let mut fl = FlinkLike::new(&c, &w).unwrap();
        let events: Vec<Event> = (0..50).map(|t| ev(a, t)).collect();
        fl.process_columnar(&EventBatch::from_events(&events));
        assert_eq!(fl.buffered_events(), 50, "two-step retains raw events");
    }

    #[test]
    fn columnar_path_matches_per_event() {
        let mut c = Catalog::new();
        c.register_with_schema("A", sharon_types::Schema::new(["g"]));
        c.register_with_schema("B", sharon_types::Schema::new(["g"]));
        let w = parse_workload(
            &mut c,
            ["RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY g WITHIN 10 ms SLIDE 2 ms"],
        )
        .unwrap();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let events: Vec<Event> = (0..400u64)
            .map(|i| {
                Event::with_attrs(
                    if i % 2 == 0 { a } else { b },
                    Timestamp(i),
                    vec![Value::Int((i / 2) as i64 % 5)],
                )
            })
            .collect();

        // one row per batch: the per-event cadence
        let mut per_event = FlinkLike::new(&c, &w).unwrap();
        for e in &events {
            per_event.process_columnar(&EventBatch::from_events(std::slice::from_ref(e)));
        }
        let want = per_event.finish();
        assert!(!want.is_empty());

        let batch = EventBatch::from_events(&events);
        let mut columnar = FlinkLike::new(&c, &w).unwrap();
        columnar.process_columnar(&batch);
        let got = columnar.finish();
        assert!(got.semantically_eq(&want, 1e-9));

        // sharded route-once agrees too
        let mut sharded = FlinkLike::sharded(&c, &w, 3, &ShardedOptions::default()).unwrap();
        sharded.process_columnar(&batch);
        let got = sharded.finish();
        assert!(got.semantically_eq(&want, 1e-9));
    }

    #[test]
    fn deduplicated_scopes_fan_out_to_every_query() {
        // eight queries sharing one routing scope (same pattern + GROUP
        // BY, different windows): the sharded runtime routes the scope
        // once and every query still gets its full selection — results
        // identical to the sequential baseline, on one router or two
        let mut c = Catalog::new();
        c.register_with_schema("A", sharon_types::Schema::new(["g"]));
        c.register_with_schema("B", sharon_types::Schema::new(["g"]));
        let sources: Vec<String> = (0..8)
            .map(|i| {
                format!(
                    "RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY g WITHIN {} ms SLIDE 2 ms",
                    8 + 2 * i
                )
            })
            .collect();
        let w = parse_workload(&mut c, sources.iter().map(String::as_str)).unwrap();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let events: Vec<Event> = (0..600u64)
            .map(|i| {
                Event::with_attrs(
                    if i % 2 == 0 { a } else { b },
                    Timestamp(i),
                    vec![Value::Int((i / 2) as i64 % 5)],
                )
            })
            .collect();

        let batch = EventBatch::from_events(&events);
        let mut sequential = FlinkLike::new(&c, &w).unwrap();
        sequential.process_columnar(&batch);
        let want = sequential.finish();
        assert!(!want.is_empty());

        for routers in [1usize, 2] {
            let options = ShardedOptions {
                batch_size: 128,
                routers,
                ..ShardedOptions::default()
            };
            let mut sharded = FlinkLike::sharded(&c, &w, 3, &options).unwrap();
            sharded.process_columnar(&batch);
            let got = sharded.finish();
            assert!(
                got.semantically_eq(&want, 1e-9),
                "{routers} router(s): deduplicated sharded baseline diverges"
            );
            for q in w.ids() {
                assert!(
                    got.total_count(q) > 0,
                    "{routers} router(s): query {q} received its fanned-out selection"
                );
            }
        }
    }
}
