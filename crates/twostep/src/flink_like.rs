//! The non-shared two-step baseline ("Flink" in the paper's evaluation).
//!
//! "Flink constructs all event sequences prior \[to\] their aggregation. It
//! does not share computations among different queries" (Section 8.1).
//! Every query keeps its own event buffers; every END event triggers an
//! explicit enumeration of all sequences it completes, which are then
//! aggregated into the open windows. Latency grows polynomially in the
//! number of events per window — reproducing Figure 13's blow-up.
//!
//! [`FlinkLike`] is the two-step driver ([`TwoStep`]) with one subscriber
//! per query, each routed by the query's own scope: the driver's scan and
//! fan-out are shared with SPASS-like, and queries whose scopes coincide
//! share one scan. Like every two-step baseline it runs in arrival order
//! and takes no lateness.

use crate::common::{Family, ScopeFilter, Subscriber, TwoStep, TypeTable};
use crate::construct::SeqBuffers;
use sharon_executor::agg::{Aggregate, CountCell, OutputKind, StatsCell};
use sharon_executor::compile::CompileError;
use sharon_executor::winvec::WinVec;
use sharon_executor::ExecutorResults;
use sharon_query::{Query, QueryId, Workload};
use sharon_types::{Catalog, EventTypeId, GroupKey, Timestamp, Value, WindowSpec};
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
    /// Rows this query folded — the rows its scope selected, the same
    /// notion of "matched" the online engines report per partition.
    events_matched: u64,
    /// Reused per-row key storage — the hot path never allocates a fresh
    /// key; cloning happens only on first sight of a group.
    key_scratch: GroupKey,
    vals_scratch: Vec<Value>,
    /// Reused emission buffer for closing windows.
    emit_scratch: Vec<(u64, A)>,
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
        Ok(QueryState {
            id: q.id,
            window: q.window,
            positions,
            table: TypeTable::build(catalog, q)?,
            output: OutputKind::of(q),
            pattern_len: q.pattern.len(),
            groups: HashMap::new(),
            sequences_constructed: 0,
            events_matched: 0,
            key_scratch: GroupKey::Global,
            vals_scratch: Vec::new(),
            emit_scratch: Vec::new(),
        })
    }
}

impl<A: Aggregate> Subscriber for QueryState<A> {
    /// The per-row fold of every batch. The query's scope selected the
    /// row: routing, predicates and groupability are established.
    fn row(
        &mut self,
        ty: EventTypeId,
        time: Timestamp,
        attrs: &[Value],
        results: &mut ExecutorResults,
    ) {
        let positions = &self.positions[ty.index()];
        debug_assert!(
            !positions.is_empty(),
            "the scope selected an unrouted event type"
        );
        // group key — written into the reused scratch key; the clone into
        // the map happens exactly once per distinct group
        let grouped =
            self.table
                .read_group_key(ty, attrs, &mut self.vals_scratch, &mut self.key_scratch);
        debug_assert!(grouped, "the scope selected an ungroupable event");
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

    fn matched(&self) -> u64 {
        self.events_matched
    }

    fn state_size(&self) -> usize {
        self.groups
            .values()
            .map(|g| g.buffers.buffered_events())
            .sum()
    }

    fn sequences(&self) -> u64 {
        self.sequences_constructed
    }
}

/// The Flink-like strategy family (see [`FlinkLike`]).
pub enum Flink {}

impl Family for Flink {}

/// The non-shared two-step executor: independent sequence construction and
/// aggregation per query.
pub type FlinkLike = TwoStep<Flink>;

impl FlinkLike {
    /// Compile the workload (each query fully independent).
    pub fn new(catalog: &Catalog, workload: &Workload) -> Result<Self, CompileError> {
        if workload.is_empty() {
            return Err(CompileError::EmptyWorkload);
        }
        let mut scopes = Vec::with_capacity(workload.len());
        let mut subs: Vec<Box<dyn Subscriber>> = Vec::with_capacity(workload.len());
        for q in workload.queries() {
            scopes.push(ScopeFilter::build(catalog, &[q])?);
            subs.push(if q.agg.is_count_like() {
                Box::new(QueryState::<CountCell>::new(catalog, q)?)
            } else {
                Box::new(QueryState::<StatsCell>::new(catalog, q)?)
            });
        }
        Ok(TwoStep::new_driver(scopes, subs, workload.len()))
    }

    /// Raw events currently buffered across all queries (memory proxy).
    pub fn buffered_events(&self) -> usize {
        self.state_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharon_executor::{BatchProcessor, Executor};
    use sharon_query::parse_workload;
    use sharon_types::{Event, EventBatch};

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
    }

    /// `n` queries over one routing scope (same pattern and `GROUP BY`,
    /// different windows).
    fn shared_scope_workload(c: &mut Catalog, n: usize) -> Workload {
        let sources: Vec<String> = (0..n)
            .map(|i| {
                format!(
                    "RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY g WITHIN {} ms SLIDE 2 ms",
                    8 + 2 * (i % 16)
                )
            })
            .collect();
        parse_workload(c, sources.iter().map(String::as_str)).unwrap()
    }

    #[test]
    fn deduplicated_scopes_fan_out_to_every_query() {
        // eight queries sharing one routing scope: the driver scans it
        // once per batch and every query still gets its full selection —
        // each query answers exactly as it does run alone
        let mut c = Catalog::new();
        c.register_with_schema("A", sharon_types::Schema::new(["g"]));
        c.register_with_schema("B", sharon_types::Schema::new(["g"]));
        let w = shared_scope_workload(&mut c, 8);
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

        let mut shared = FlinkLike::new(&c, &w).unwrap();
        shared.process_columnar(&batch);
        assert_eq!(
            BatchProcessor::scan_stats(&shared),
            vec![(600, 600)],
            "one scope scan serves all eight queries"
        );
        let got = shared.finish();
        for q in w.queries() {
            let mut alone = Workload::new();
            alone.push(q.clone());
            let mut single = FlinkLike::new(&c, &alone).unwrap();
            single.process_columnar(&batch);
            let want = single.finish().of_query_sorted(QueryId(0));
            assert!(!want.is_empty());
            assert_eq!(
                got.of_query_sorted(q.id),
                want,
                "query {} received its fanned-out selection",
                q.id
            );
        }

        // 64 identical-scope queries still cost one scope
        let w = shared_scope_workload(&mut c, 64);
        let mut wide = FlinkLike::new(&c, &w).unwrap();
        wide.process_columnar(&batch);
        assert_eq!(BatchProcessor::scan_stats(&wide).len(), 1);
    }
}
