//! Shared plumbing for the two-step baselines: per-type routing tables
//! (predicates, grouping, aggregate contribution), mirroring the clauses
//! the online engine compiles, so the baselines answer exactly the same
//! queries.
//!
//! All methods operate on `(type, attrs)` column data — the baselines run
//! natively over [`sharon_types::EventBatch`] rows and never materialize a
//! row-form event on the batch path. [`ScopeFilter`] packages one
//! baseline routing scope (a query for Flink-like, a sharing-signature
//! partition for SPASS-like) and compiles it to the [`ScanKernel`] the
//! driver selects the scope's rows with.
//!
//! [`TwoStep`] is the one driver of both baselines. They run sequentially
//! and in arrival order only: both of their roles, the oracle of the
//! online runner and the §8 comparison, run them over in-order streams,
//! and event time has one owner, the online executor. Its stateless
//! prefix is the executor crate's select stage
//! ([`sharon_executor::ScanFront`]: select and tally); what is its own is the
//! fan-out of each distinct scope's rows to the [`Subscriber`]s.

use sharon_executor::CompileError;
use sharon_executor::Contribution;
use sharon_executor::{BatchProcessor, ExecutorResults, RunReport, ScanFront, ScanKernel};
use sharon_query::{CmpOp, Query};
use sharon_types::{AttrId, Catalog, EventBatch, EventTypeId, GroupKey, Timestamp, Value};
use std::collections::HashMap;
use std::marker::PhantomData;

/// Per-event-type resolved clauses for one query or partition.
#[derive(Debug, Clone, Default)]
pub(crate) struct TypeTable {
    /// Per type id: resolved `GROUP BY` attribute ids.
    pub group_attrs: Vec<Box<[AttrId]>>,
    /// Per type id: compiled predicates.
    pub predicates: Vec<Vec<(AttrId, CmpOp, Value)>>,
    /// Aggregate contribution source.
    pub contrib_target: Option<(EventTypeId, Option<AttrId>)>,
}

impl TypeTable {
    /// Resolve clauses of `query` against `catalog`.
    pub(crate) fn build(catalog: &Catalog, query: &Query) -> Result<Self, CompileError> {
        let max_ty = query
            .pattern
            .types()
            .iter()
            .map(|t| t.index())
            .max()
            .unwrap_or(0);
        let mut group_attrs: Vec<Box<[AttrId]>> = vec![Box::new([]); max_ty + 1];
        let mut predicates: Vec<Vec<(AttrId, CmpOp, Value)>> = vec![Vec::new(); max_ty + 1];
        for &t in query.pattern.types() {
            let schema = catalog.schema(t);
            let ids: Vec<AttrId> = query
                .group_by
                .iter()
                .map(|name| {
                    schema
                        .attr(name)
                        .ok_or_else(|| CompileError::GroupAttrMissing {
                            ty: catalog.name(t).to_string(),
                            attr: name.clone(),
                        })
                })
                .collect::<Result<_, _>>()?;
            group_attrs[t.index()] = ids.into_boxed_slice();
        }
        for p in &query.predicates {
            if p.ty.index() <= max_ty && query.pattern.contains_type(p.ty) {
                let attr = catalog.schema(p.ty).attr(&p.attr).ok_or_else(|| {
                    CompileError::PredicateAttrMissing {
                        ty: catalog.name(p.ty).to_string(),
                        attr: p.attr.clone(),
                    }
                })?;
                predicates[p.ty.index()].push((attr, p.op, p.value.clone()));
            }
        }
        let contrib_target =
            match (query.agg.target_type(), query.agg.target_attr()) {
                (Some(t), Some(name)) => {
                    let id = catalog.schema(t).attr(name).ok_or_else(|| {
                        CompileError::AggAttrMissing {
                            ty: catalog.name(t).to_string(),
                            attr: name.to_string(),
                        }
                    })?;
                    Some((t, Some(id)))
                }
                (Some(t), None) => Some((t, None)),
                (None, _) => None,
            };
        Ok(TypeTable {
            group_attrs,
            predicates,
            contrib_target,
        })
    }

    /// Merge `other`'s clauses into this table so it covers the union of
    /// both queries' pattern types (used by SPASS partitions, whose
    /// queries share predicates/grouping by signature but span different
    /// type sets).
    pub(crate) fn absorb(&mut self, other: TypeTable) {
        if other.group_attrs.len() > self.group_attrs.len() {
            self.group_attrs
                .resize(other.group_attrs.len(), Box::new([]));
            self.predicates.resize(other.predicates.len(), Vec::new());
        }
        for (i, g) in other.group_attrs.into_iter().enumerate() {
            if !g.is_empty() {
                self.group_attrs[i] = g;
            }
        }
        for (i, p) in other.predicates.into_iter().enumerate() {
            if !p.is_empty() {
                self.predicates[i] = p;
            }
        }
        if other.contrib_target.is_some() {
            self.contrib_target = other.contrib_target;
        }
    }

    /// Evaluate this table's predicates on a `(type, attrs)` row
    /// (vacuously true for unconstrained types).
    #[cfg(test)]
    pub fn passes(&self, ty: EventTypeId, attrs: &[Value]) -> bool {
        match self.predicates.get(ty.index()) {
            Some(preds) => preds.iter().all(|(attr, op, lit)| {
                sharon_query::clause_passes(*op, attrs.get(attr.index()), lit)
            }),
            None => true,
        }
    }

    /// True if every `GROUP BY` attribute of `ty` is present in `attrs`.
    /// With [`TypeTable::passes`], the row-at-a-time oracle the tests check
    /// the compiled scan kernels against (the baselines' own rows always
    /// come out of a kernel).
    #[cfg(test)]
    pub fn groupable(&self, ty: EventTypeId, attrs: &[Value]) -> bool {
        match self.group_attrs.get(ty.index()) {
            Some(gattrs) => gattrs.iter().all(|a| attrs.get(a.index()).is_some()),
            None => true,
        }
    }

    /// Build the row's group key into `key` (reusing the `vals` scratch
    /// buffer, so the steady-state path allocates nothing), returning
    /// `false` if a grouping attribute is absent. With no `GROUP BY`,
    /// writes [`GroupKey::Global`].
    pub(crate) fn read_group_key(
        &self,
        ty: EventTypeId,
        attrs: &[Value],
        vals: &mut Vec<Value>,
        key: &mut GroupKey,
    ) -> bool {
        let gattrs = match self.group_attrs.get(ty.index()) {
            Some(a) if !a.is_empty() => a,
            _ => {
                *key = GroupKey::Global;
                return true;
            }
        };
        vals.clear();
        for a in gattrs.iter() {
            match attrs.get(a.index()) {
                Some(v) => vals.push(v.clone()),
                None => return false,
            }
        }
        key.assign_from_slice(vals);
        true
    }

    /// The row's aggregate contribution.
    pub(crate) fn contribution(&self, ty: EventTypeId, attrs: &[Value]) -> Contribution {
        match self.contrib_target {
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
}

/// One baseline routing scope: a type-routing bitmap plus the scope's
/// [`TypeTable`]. The stateless prefix it encodes is exactly the one the
/// baseline's stateful side applies, so selected rows are precisely the
/// rows the baseline would process.
#[derive(Debug, Clone)]
pub(crate) struct ScopeFilter {
    /// Per type id (dense): does the scope's pattern contain the type?
    routed: Vec<bool>,
    table: TypeTable,
}

impl ScopeFilter {
    /// A filter routing the union of `queries`' pattern types, with their
    /// merged clause table.
    pub(crate) fn build(catalog: &Catalog, queries: &[&Query]) -> Result<Self, CompileError> {
        let mut table = TypeTable::build(catalog, queries[0])?;
        for q in &queries[1..] {
            table.absorb(TypeTable::build(catalog, q)?);
        }
        let types = || queries.iter().flat_map(|q| q.pattern.types());
        let mut routed = vec![false; types().map(|t| t.index() + 1).max().unwrap_or(1)];
        for t in types() {
            routed[t.index()] = true;
        }
        Ok(ScopeFilter { routed, table })
    }

    /// The routing identity of this filter (see [`ScopeKey`]).
    pub(crate) fn key(&self) -> ScopeKey {
        ScopeKey {
            routed: self.routed.clone(),
            group_attrs: self.table.group_attrs.clone(),
            predicates: self
                .table
                .predicates
                .iter()
                .map(|preds| {
                    preds
                        .iter()
                        .map(|(a, op, v)| (*a, *op, HashableValue::of(v)))
                        .collect()
                })
                .collect(),
        }
    }
}

/// A [`Value`] literal with total equality and hashing (floats compared
/// by bit pattern), so predicate clauses can key a hash map. Bit-exact
/// float comparison is conservative: `0.0` vs `-0.0` fail to merge, which
/// only costs a missed dedup, never correctness.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum HashableValue {
    Int(i64),
    Float(u64),
    Str(std::sync::Arc<str>),
}

impl HashableValue {
    fn of(v: &Value) -> Self {
        match v {
            Value::Int(i) => HashableValue::Int(*i),
            Value::Float(f) => HashableValue::Float(f.to_bits()),
            Value::Str(s) => HashableValue::Str(std::sync::Arc::clone(s)),
        }
    }
}

/// The routing identity of a [`ScopeFilter`]: pattern type set, per-type
/// `GROUP BY` attributes, and per-type predicate clauses. Two scopes with
/// equal keys select *exactly* the same rows of any batch, so the driver
/// only needs to scan one of them — the compile-time basis of scope
/// deduplication ([`dedup_scopes`]).
///
/// Deliberately excluded: aggregate contribution targets and window
/// specs — they shape the *stateful* side only and never affect which
/// rows route where.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ScopeKey {
    routed: Vec<bool>,
    group_attrs: Vec<Box<[AttrId]>>,
    predicates: Vec<Vec<(AttrId, CmpOp, HashableValue)>>,
}

/// Deduplicate routing scopes by [`ScopeKey`]: returns the distinct
/// filters (first-seen order) and, parallel to them, the original scope
/// indexes subscribing to each — the driver fans each distinct scope's
/// row selection out to all of its subscribers. With no duplicate
/// scopes this is the identity (`subscribers[i] == [i]`).
pub(crate) fn dedup_scopes(scopes: Vec<ScopeFilter>) -> (Vec<ScopeFilter>, Vec<Vec<usize>>) {
    let mut index: HashMap<ScopeKey, usize> = HashMap::with_capacity(scopes.len());
    let mut distinct = Vec::new();
    let mut subscribers: Vec<Vec<usize>> = Vec::new();
    for (i, scope) in scopes.into_iter().enumerate() {
        match index.entry(scope.key()) {
            std::collections::hash_map::Entry::Occupied(e) => subscribers[*e.get()].push(i),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(distinct.len());
                subscribers.push(vec![i]);
                distinct.push(scope);
            }
        }
    }
    (distinct, subscribers)
}

impl ScopeFilter {
    /// This scope's stateless prefix, compiled: the kernel the driver's
    /// scan selects rows with.
    pub(crate) fn scan_kernel(&self) -> ScanKernel {
        ScanKernel::new(
            self.routed.clone(),
            &self.table.group_attrs,
            &self.table.predicates,
        )
    }
}

/// One subscriber of a routing scope: Flink-like's per-query state or
/// SPASS-like's per-signature partition. It only ever sees rows its
/// scope selected, in arrival order (which is event-time order).
pub(crate) trait Subscriber: Send {
    /// Fold the selected `rows` of `batch`, in row order.
    fn rows(&mut self, batch: &EventBatch, rows: &[u32], results: &mut ExecutorResults) {
        for &row in rows {
            let row = row as usize;
            self.row(batch.ty(row), batch.time(row), batch.attrs(row), results);
        }
    }

    /// Fold one selected row.
    fn row(
        &mut self,
        ty: EventTypeId,
        time: Timestamp,
        attrs: &[Value],
        results: &mut ExecutorResults,
    );

    /// Flush every open window into `results`.
    fn finish(&mut self, results: &mut ExecutorResults);

    /// Rows folded so far.
    fn matched(&self) -> u64;

    /// The memory proxy: buffered events or materialized matches.
    fn state_size(&self) -> usize;

    /// Sequences (and segment matches) constructed so far.
    fn sequences(&self) -> u64;
}

/// A two-step strategy family. Implemented by the uninhabited markers
/// [`crate::Flink`] and [`crate::Spass`], which tell [`TwoStep`] which
/// family's constructors and accessors it has.
pub trait Family: Send + 'static {}

/// The one driver of both two-step baselines ([`crate::FlinkLike`],
/// [`crate::SpassLike`]), run sequentially.
///
/// It owns the executor crate's select stage over the scan kernels of
/// the *distinct* routing scopes (deduplicated by `ScopeKey`)
/// ([`sharon_executor::ScanFront`]: select and tally) and the subscribers
/// with their result log. [`TwoStep::process_columnar`] selects each
/// distinct scope's rows once per batch and hands them to every
/// subscriber of that scope, in arrival order.
pub struct TwoStep<F> {
    /// The select stage over the distinct scopes' kernels, first-seen
    /// order.
    front: ScanFront,
    /// Per distinct scope: the subscribers its rows fan out to.
    fan: Vec<Vec<usize>>,
    subs: Vec<Box<dyn Subscriber>>,
    results: ExecutorResults,
    /// Queries answered, for [`TwoStep::reserve_results`].
    n_queries: usize,
    family: PhantomData<F>,
}

impl<F: Family> TwoStep<F> {
    /// A driver over `subs`, where `scopes[i]` routes subscriber `i`.
    pub(crate) fn new_driver(
        scopes: Vec<ScopeFilter>,
        subs: Vec<Box<dyn Subscriber>>,
        n_queries: usize,
    ) -> Self {
        let (scopes, fan) = dedup_scopes(scopes);
        TwoStep {
            front: ScanFront::new(scopes.iter().map(ScopeFilter::scan_kernel).collect()),
            fan,
            subs,
            results: ExecutorResults::new(),
            n_queries,
            family: PhantomData,
        }
    }

    /// Process a time-ordered columnar batch: select every distinct
    /// scope's rows, then hand them to each subscriber of the scope.
    pub fn process_columnar(&mut self, batch: &EventBatch) {
        let lists = self.front.select(batch, 0, batch.len());
        for (rows, fan) in lists.iter().zip(&self.fan) {
            if !rows.is_empty() {
                for &sub in fan {
                    self.subs[sub].rows(batch, rows, &mut self.results);
                }
            }
        }
    }

    /// Pre-size the result store for about `additional` further results
    /// per query (capacity planning for allocation-free steady-state
    /// emission).
    pub fn reserve_results(&mut self, additional: usize) {
        self.results.reserve(additional * self.n_queries);
    }

    /// Total sequences explicitly constructed so far — the two-step cost
    /// the online approaches avoid.
    pub fn sequences_constructed(&self) -> u64 {
        self.subs.iter().map(|s| s.sequences()).sum()
    }

    /// Rows that survived the stateless scans, summed over subscribers —
    /// comparable to the online engines' per-partition matched counts.
    pub fn events_matched(&self) -> u64 {
        self.subs.iter().map(|s| s.matched()).sum()
    }

    /// The family's memory proxy, summed over subscribers.
    pub(crate) fn state_size(&self) -> usize {
        self.subs.iter().map(|s| s.state_size()).sum()
    }

    /// End of stream: report the matched count and flush every open
    /// window.
    fn report(mut self) -> RunReport {
        let events_matched = self.events_matched();
        for sub in &mut self.subs {
            sub.finish(&mut self.results);
        }
        RunReport {
            results: self.results,
            events_matched,
            late_rows_dropped: 0,
            scan_stats: self.front.counters().snapshot(),
            work: Default::default(),
        }
    }

    /// Flush and return all results.
    pub fn finish(self) -> ExecutorResults {
        self.report().results
    }
}

impl<F: Family> BatchProcessor for TwoStep<F> {
    fn process_columnar(&mut self, batch: &EventBatch) {
        TwoStep::process_columnar(self, batch);
    }

    /// Take the log: subscribers emit each window as it closes.
    fn drain_results(&mut self) -> ExecutorResults {
        std::mem::take(&mut self.results)
    }

    fn events_matched(&self) -> u64 {
        TwoStep::events_matched(self)
    }

    /// One entry per distinct scope, in scope order.
    fn scan_stats(&self) -> Vec<(u64, u64)> {
        self.front.counters().snapshot()
    }

    fn state_size(&self) -> usize {
        TwoStep::state_size(self)
    }

    fn finish(self: Box<Self>) -> RunReport {
        (*self).report()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spass_like::signature_partitions;
    use sharon_query::{parse_workload, Workload};
    use sharon_streams::ecommerce::{self, EcommerceConfig};
    use sharon_streams::linear_road::{self, LinearRoadConfig};
    use sharon_streams::taxi::{self, TaxiConfig};
    use sharon_types::Schema;

    /// Assert that `got` is `semantically_eq` to `reference` within a
    /// relative `1e-9`, after asserting that the reference holds a row of
    /// each of its first `n_queries` queries: an equivalence over an
    /// empty reference checks nothing. `what` names the comparison in a
    /// failure.
    ///
    /// The tolerance exists for one reason: a two-step baseline sums a
    /// sequence's values in construction order, while the online engines
    /// fold each cell in row order, so a `SUM` or `AVG` may differ in its
    /// last bits. Keys, counts and the rest compare exactly.
    #[track_caller]
    pub(crate) fn assert_equal_up_to_summation_order(
        got: &sharon_executor::ExecutorResults,
        reference: &sharon_executor::ExecutorResults,
        n_queries: u32,
        what: impl std::fmt::Display,
    ) {
        for q in (0..n_queries).map(sharon_query::QueryId) {
            assert!(
                reference.of_query(q).next().is_some(),
                "{what}: the reference has no row of {q:?}"
            );
        }
        assert!(
            got.semantically_eq(reference, 1e-9),
            "{what}: diverges from the reference ({} vs {} results)",
            got.len(),
            reference.len()
        );
    }

    /// Ragged `(lo, hi)` ranges over `n` rows: whole, empty, odd sizes
    /// (partial 64-row words), and a singleton tail.
    fn ragged_ranges(n: usize) -> Vec<(usize, usize)> {
        let mut out = vec![(0, n), (0, 0)];
        let mut lo = 0;
        for step in [61usize, 64, 67, 1, 128, 3] {
            let hi = (lo + step).min(n);
            out.push((lo, hi));
            lo = hi;
        }
        out.push((n.saturating_sub(1), n));
        out
    }

    /// Every scope the baselines route — one per query (Flink-like) and
    /// one per signature partition (SPASS-like) — compiled to the kernel
    /// the driver runs, checked row for row against the scope's own
    /// routing bitmap, [`TypeTable::passes`] and [`TypeTable::groupable`].
    fn assert_scope_kernel_parity(
        catalog: &Catalog,
        workload: &Workload,
        batch: &EventBatch,
        label: &str,
    ) {
        let per_query = workload.queries().iter().map(|q| vec![q]);
        let scopes: Vec<ScopeFilter> = per_query
            .chain(signature_partitions(workload))
            .map(|qs| ScopeFilter::build(catalog, &qs).expect("scope builds"))
            .collect();
        let (mut selected, mut filtered) = (0usize, 0usize);
        for (si, scope) in scopes.iter().enumerate() {
            let mut kernel = scope.scan_kernel();
            for (lo, hi) in ragged_ranges(batch.len()) {
                let mut want = Vec::new();
                for row in lo..hi {
                    let (ty, attrs) = (batch.ty(row), batch.attrs(row));
                    if !scope.routed.get(ty.index()).copied().unwrap_or(false) {
                        continue;
                    }
                    if scope.table.passes(ty, attrs) && scope.table.groupable(ty, attrs) {
                        want.push(row as u32);
                    } else {
                        filtered += 1;
                    }
                }
                let mut got = Vec::new();
                kernel.select_into(batch, lo, hi, &mut got);
                assert_eq!(
                    got, want,
                    "{label}: scope {si} selection diverges on rows {lo}..{hi}"
                );
                selected += want.len();
            }
        }
        assert!(
            selected > 0 && filtered > 0,
            "{label}: the stream must both pass and fail the scopes' clauses"
        );
    }

    #[test]
    fn taxi_scope_kernels_match_the_row_oracle() {
        let mut catalog = Catalog::new();
        let batch = EventBatch::from_events(&taxi::generate(
            &mut catalog,
            &TaxiConfig {
                n_events: 3000,
                n_streets: 5,
                n_vehicles: 40,
                ..Default::default()
            },
        ));
        // the first two queries share a signature (one SPASS partition
        // over three street types); a string literal against the Float
        // speed column satisfies only `!=`
        let workload = parse_workload(
            &mut catalog,
            [
                "RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt) WHERE OakSt.speed > 40.0 AND \
                 [vehicle] WITHIN 10 min SLIDE 1 min",
                "RETURN COUNT(*) PATTERN SEQ(OakSt, StateSt) WHERE OakSt.speed > 40.0 AND \
                 [vehicle] WITHIN 10 min SLIDE 1 min",
                "RETURN SUM(MainSt.speed) PATTERN SEQ(MainSt, StateSt) WHERE MainSt.speed >= 20.0 \
                 AND StateSt.speed < 65.0 AND [vehicle] WITHIN 10 min SLIDE 1 min",
                "RETURN COUNT(*) PATTERN SEQ(ParkAve, WestSt) WHERE ParkAve.speed != 'fast' AND \
                 [vehicle] WITHIN 10 min SLIDE 1 min",
            ],
        )
        .expect("taxi predicate workload parses");
        assert_scope_kernel_parity(&catalog, &workload, &batch, "taxi");
    }

    #[test]
    fn linear_road_scope_kernels_match_the_row_oracle() {
        let mut catalog = Catalog::new();
        let batch = EventBatch::from_events(&linear_road::generate(
            &mut catalog,
            &LinearRoadConfig {
                duration_secs: 30,
                cars_per_sec: 3.0,
                n_segments: 6,
                trip_segments: 40,
                ..Default::default()
            },
        ));
        let workload = parse_workload(
            &mut catalog,
            [
                "RETURN COUNT(*) PATTERN SEQ(Seg0, Seg1, Seg2) WHERE Seg0.speed >= 60.0 AND \
                 Seg1.speed >= 60.0 AND [car] WITHIN 10 s SLIDE 2 s",
                "RETURN COUNT(*) PATTERN SEQ(Seg3, Seg4) WHERE Seg3.pos > 1000.0 AND [car] \
                 WITHIN 10 s SLIDE 2 s",
            ],
        )
        .expect("linear-road predicate workload parses");
        assert_scope_kernel_parity(&catalog, &workload, &batch, "linear-road");
    }

    #[test]
    fn ecommerce_scope_kernels_match_the_row_oracle() {
        let mut catalog = Catalog::new();
        let batch = EventBatch::from_events(&ecommerce::generate(
            &mut catalog,
            &EcommerceConfig {
                n_items: 6,
                n_customers: 8,
                events_per_sec: 300,
                n_events: 2500,
                ..Default::default()
            },
        ));
        let workload = parse_workload(
            &mut catalog,
            [
                "RETURN COUNT(*) PATTERN SEQ(Laptop, Case, Adapter) WHERE Laptop.price > 250.0 AND \
                 [customer] WITHIN 20 min SLIDE 1 min",
                "RETURN SUM(Case.price) PATTERN SEQ(Case, iPhone) WHERE Case.price <= 400.0 AND \
                 iPhone.price >= 2.0 AND [customer] WITHIN 20 min SLIDE 1 min",
            ],
        )
        .expect("ecommerce predicate workload parses");
        assert_scope_kernel_parity(&catalog, &workload, &batch, "ecommerce");
    }

    /// Both baselines emit each window as it closes: draining after
    /// every batch yields closed windows mid-stream, and the drained
    /// epochs plus `finish` equal one uninterrupted run.
    #[test]
    fn drained_epochs_plus_finish_equal_one_run() {
        let mut catalog = Catalog::new();
        let events = ecommerce::generate(
            &mut catalog,
            &EcommerceConfig {
                n_items: 6,
                n_customers: 8,
                events_per_sec: 300,
                n_events: 2500,
                ..Default::default()
            },
        );
        let workload = parse_workload(
            &mut catalog,
            [
                "RETURN COUNT(*) PATTERN SEQ(Laptop, Case) WHERE [customer] WITHIN 1 s SLIDE 500 ms",
                "RETURN COUNT(*) PATTERN SEQ(Laptop, Adapter) WHERE [customer] WITHIN 1 s SLIDE 500 ms",
            ],
        )
        .expect("ecommerce workload parses");
        let plan = sharon_query::SharingPlan::non_shared();
        let run = |mut ex: Box<dyn BatchProcessor>, drain: bool| {
            let (mut all, mut epochs) = (ExecutorResults::new(), 0);
            for chunk in events.chunks(256) {
                ex.process_columnar(&EventBatch::from_events(chunk));
                if drain {
                    let epoch = ex.drain_results();
                    epochs += usize::from(!epoch.is_empty());
                    all.merge(epoch);
                }
            }
            all.merge(ex.finish().results);
            (all, epochs)
        };
        let n = workload.len() as u32;
        for label in ["Flink", "SPASS"] {
            let build = || -> Box<dyn BatchProcessor> {
                match label {
                    "Flink" => Box::new(crate::FlinkLike::new(&catalog, &workload).unwrap()),
                    _ => Box::new(crate::SpassLike::new(&catalog, &workload, &plan).unwrap()),
                }
            };
            let (want, _) = run(build(), false);
            let (got, epochs) = run(build(), true);
            assert!(
                epochs > 2,
                "{label}: windows close mid-stream ({epochs} epochs)"
            );
            assert_equal_up_to_summation_order(
                &got,
                &want,
                n,
                format!("{label}: drained + finish"),
            );
        }
    }

    #[test]
    fn scopes_dedup_by_routing_identity() {
        let mut c = Catalog::new();
        c.register_with_schema("A", Schema::new(["g", "v"]));
        c.register_with_schema("B", Schema::new(["g", "v"]));
        let w = parse_workload(
            &mut c,
            [
                // queries 0 and 1 differ only in aggregate and window —
                // identical routing scope
                "RETURN COUNT(*) PATTERN SEQ(A, B) WHERE A.v > 2 GROUP BY g WITHIN 10 ms SLIDE 2 ms",
                "RETURN SUM(B.v) PATTERN SEQ(A, B) WHERE A.v > 2 GROUP BY g WITHIN 20 ms SLIDE 4 ms",
                // dropping the predicate or the grouping changes the scope
                "RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY g WITHIN 10 ms SLIDE 2 ms",
                "RETURN COUNT(*) PATTERN SEQ(A, B) WHERE A.v > 2 WITHIN 10 ms SLIDE 2 ms",
            ],
        )
        .unwrap();
        let scopes: Vec<ScopeFilter> = w
            .queries()
            .iter()
            .map(|q| ScopeFilter::build(&c, &[q]).unwrap())
            .collect();
        let (distinct, subscribers) = dedup_scopes(scopes);
        assert_eq!(distinct.len(), 3, "queries 0 and 1 share a scope");
        assert_eq!(subscribers, vec![vec![0, 1], vec![2], vec![3]]);
    }
}
