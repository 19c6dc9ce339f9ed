//! Shared plumbing for the two-step baselines: per-type routing tables
//! (predicates, grouping, aggregate contribution), mirroring the clauses
//! the online engine compiles, so the baselines answer exactly the same
//! queries.
//!
//! All methods operate on `(type, attrs)` column data — the baselines run
//! natively over [`sharon_types::EventBatch`] rows and never materialize a
//! row-form event on the batch path. [`ScopeFilter`] packages one
//! baseline routing scope (a query for Flink-like, a sharing-signature
//! partition for SPASS-like) as a [`RowFilter`], which is what lets the
//! sharded runtime's route-once [`sharon_executor::BatchRouter`] fan
//! baseline work out across shards; [`sharded`] and [`ScopeFanShard`]
//! are the one sharded build path and shard worker both baselines use.

use sharon_executor::agg::Contribution;
use sharon_executor::compile::CompileError;
use sharon_executor::{
    split_router_plane, ExecutorResults, Reorder, RoutedRows, RowFilter, ScanKernel,
    ShardProcessor, ShardReport, ShardedExecutor, ShardedOptions,
};
use sharon_query::{clause_passes, CmpOp, Query};
use sharon_types::{AttrId, Catalog, EventBatch, EventTypeId, GroupKey, Timestamp, Value};
use std::collections::HashMap;

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
    pub fn build(catalog: &Catalog, query: &Query) -> Result<Self, CompileError> {
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
    pub fn absorb(&mut self, other: TypeTable) {
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
    pub fn passes(&self, ty: EventTypeId, attrs: &[Value]) -> bool {
        match self.predicates.get(ty.index()) {
            Some(preds) => preds
                .iter()
                .all(|(attr, op, lit)| clause_passes(*op, attrs.get(attr.index()), lit)),
            None => true,
        }
    }

    /// True if every `GROUP BY` attribute of `ty` is present in `attrs`.
    /// With [`TypeTable::passes`], the row-at-a-time oracle the tests check
    /// the compiled scan kernels against (the baselines' own rows either
    /// come out of a kernel or fail `read_group_key` on release).
    #[allow(dead_code)]
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
    pub fn read_group_key(
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
    pub fn contribution(&self, ty: EventTypeId, attrs: &[Value]) -> Contribution {
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

/// Dense per-type-id routing bitmap: `true` where any of `queries`'
/// patterns contains the type. The **single** definition used by both the
/// sequential kernels' scans and the sharded router's scopes, so the two
/// sides cannot drift apart on what routes.
pub(crate) fn routed_bitmap(queries: &[&Query]) -> Vec<bool> {
    let max_ty = queries
        .iter()
        .flat_map(|q| q.pattern.types())
        .map(|t| t.index())
        .max()
        .unwrap_or(0);
    let mut routed = vec![false; max_ty + 1];
    for q in queries {
        for t in q.pattern.types() {
            routed[t.index()] = true;
        }
    }
    routed
}

/// One baseline routing scope as seen by the batch router: a type-routing
/// bitmap plus the scope's [`TypeTable`]. The stateless prefix it encodes
/// is exactly the one the baseline's stateful side applies, so routed rows
/// are precisely the rows the baseline would process.
#[derive(Debug, Clone)]
pub(crate) struct ScopeFilter {
    /// Per type id (dense): does the scope's pattern contain the type?
    routed: Vec<bool>,
    table: TypeTable,
}

impl ScopeFilter {
    /// A filter routing the union of `queries`' pattern types, with their
    /// merged clause table.
    pub fn build(catalog: &Catalog, queries: &[&Query]) -> Result<Self, CompileError> {
        let mut table = TypeTable::build(catalog, queries[0])?;
        for q in &queries[1..] {
            table.absorb(TypeTable::build(catalog, q)?);
        }
        Ok(ScopeFilter {
            routed: routed_bitmap(queries),
            table,
        })
    }

    /// Compile this scope's stateless prefix into the [`ScanKernel`] the
    /// sharded batch router selects its rows with (via
    /// [`RowFilter::scan_kernel`]).
    pub fn compile_scan(&self) -> ScanKernel {
        ScanKernel::new(
            self.routed.clone(),
            &self.table.group_attrs,
            &self.table.predicates,
        )
    }

    /// The routing identity of this filter (see [`ScopeKey`]).
    pub fn key(&self) -> ScopeKey {
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
/// equal keys select *exactly* the same rows of any batch and hash every
/// row to the same shard, so the router only needs to scan one of them —
/// the compile-time basis of scope deduplication ([`dedup_scopes`]).
///
/// Deliberately excluded: aggregate contribution targets and window
/// specs — they shape the *stateful* side only and never affect which
/// rows route where.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScopeKey {
    routed: Vec<bool>,
    group_attrs: Vec<Box<[AttrId]>>,
    predicates: Vec<Vec<(AttrId, CmpOp, HashableValue)>>,
}

/// Deduplicate routing scopes by [`ScopeKey`]: returns the distinct
/// filters (first-seen order) and, parallel to them, the original scope
/// indexes subscribing to each — the worker side fans each distinct
/// scope's row selection out to all of its subscribers. With no duplicate
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

impl RowFilter for ScopeFilter {
    #[inline]
    fn read_group_key(
        &self,
        ty: EventTypeId,
        attrs: &[Value],
        vals: &mut Vec<Value>,
        key: &mut GroupKey,
    ) -> bool {
        self.table.read_group_key(ty, attrs, vals, key)
    }

    fn scan_kernel(&self) -> ScanKernel {
        self.compile_scan()
    }

    fn route_cost(&self) -> f64 {
        let total_types = self.routed.len().max(1);
        let routed_types = self.routed.iter().filter(|&&r| r).count();
        let clauses: usize = self.table.predicates.iter().map(Vec::len).sum();
        (1.0 + clauses as f64) * (routed_types as f64 / total_types as f64).max(f64::MIN_POSITIVE)
    }
}

/// What a two-step baseline exposes to its shard worker: the stateful
/// dispatch of one routing scope's pre-routed rows to one subscriber (a
/// query for Flink-like, a signature partition for SPASS-like) and its
/// end-of-stream report.
pub(crate) trait ScopeHost: Send + Sized + 'static {
    /// Display name of the strategy, for build errors.
    const NAME: &'static str;

    /// Dispatch pre-routed `rows` of `batch` to subscriber `sub`.
    fn process_scope_rows(&mut self, sub: usize, batch: &EventBatch, rows: &[u32]);

    /// Row form of [`ScopeHost::process_scope_rows`] — the release path
    /// of the event-time gate, which re-dispatches buffered rows one at a
    /// time.
    fn process_scope_row(&mut self, sub: usize, ty: EventTypeId, time: Timestamp, attrs: &[Value]);

    /// Rows that survived the stateless scans so far.
    fn events_matched(&self) -> u64;

    /// The baseline's memory proxy (buffered events or materialized
    /// matches).
    fn state_size(&self) -> usize;

    /// Flush every open window and return all results.
    fn finish(self) -> ExecutorResults;
}

/// Run a baseline on the sharded runtime: `scopes` (one per subscriber,
/// in subscriber order) are deduplicated — the router scans each
/// *distinct* scope once per batch — and cost-partitioned across
/// `options.routers` router threads, and each of the `n_shards` workers
/// hosts one `build()` instance behind a [`ScopeFanShard`]. Durability
/// options are [`CompileError::UnsupportedOption`] (a baseline cannot
/// serialize its state) and zero shards is [`CompileError::ZeroShards`].
pub(crate) fn sharded<B: ScopeHost>(
    scopes: Vec<ScopeFilter>,
    n_shards: usize,
    options: &ShardedOptions,
    mut build: impl FnMut() -> Result<B, CompileError>,
) -> Result<ShardedExecutor, CompileError> {
    if let Some(option) = options.durability_option() {
        return Err(CompileError::UnsupportedOption {
            option,
            strategy: B::NAME,
        });
    }
    if n_shards == 0 {
        return Err(CompileError::ZeroShards { strategy: B::NAME });
    }
    let (scopes, subscribers) = dedup_scopes(scopes);
    let plane = split_router_plane(scopes, n_shards, options.split, options.routers);
    let shards = (0..n_shards)
        .map(|_| {
            build().map(|inner| {
                Box::new(ScopeFanShard {
                    inner,
                    subscribers: subscribers.clone(),
                    gate: options.lateness.map(Reorder::new),
                }) as Box<dyn ShardProcessor>
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ShardedExecutor::from_parts(plane, shards, options))
}

/// The shard worker of both baselines: `rows.per_part` is parallel to the
/// router's *distinct* (deduplicated) routing scopes, and each scope's
/// row selection is dispatched to every subscriber — the worker-side half
/// of routing each scope once per batch. The baselines never host split
/// groups, so replica lists and split notices are always empty here.
pub(crate) struct ScopeFanShard<B> {
    inner: B,
    /// Per distinct scope: the subscriber indexes fanned out to.
    subscribers: Vec<Vec<usize>>,
    /// Event-time gate over the pre-routed rows: admission records the
    /// scope in [`sharon_executor::PendingRow::scope`], release fans the
    /// row back out to the scope's subscribers. `None` keeps the
    /// arrival-order contract.
    gate: Option<Reorder>,
}

impl<B: ScopeHost> ScopeFanShard<B> {
    /// Dispatch every gate-released row to its scope's subscribers.
    fn release_ready(&mut self) {
        while let Some(row) = self.gate.as_mut().and_then(Reorder::pop_ready) {
            for &sub in &self.subscribers[row.scope as usize] {
                self.inner
                    .process_scope_row(sub, row.ty, row.time, &row.attrs);
            }
            if let Some(gate) = &mut self.gate {
                gate.recycle(row);
            }
        }
    }
}

impl<B: ScopeHost> ShardProcessor for ScopeFanShard<B> {
    fn process_routed(&mut self, batch: &EventBatch, rows: &RoutedRows) {
        debug_assert!(
            rows.splits.is_empty() && rows.state_rows.iter().all(Vec::is_empty),
            "baseline scopes never split groups"
        );
        if let Some(gate) = &mut self.gate {
            // event-time mode: buffer each scope's rows behind the
            // router's merged frontier and release in event-time order
            for (scope, list) in rows.per_part.iter().enumerate() {
                for &row in list {
                    let row = row as usize;
                    gate.admit(
                        batch.ty(row),
                        batch.time(row),
                        batch.attrs(row),
                        scope as u32,
                        true,
                        false,
                    );
                }
            }
            gate.advance(rows.frontier);
            self.release_ready();
            return;
        }
        for (scope, list) in rows.per_part.iter().enumerate() {
            if list.is_empty() {
                continue;
            }
            for &sub in &self.subscribers[scope] {
                self.inner.process_scope_rows(sub, batch, list);
            }
        }
    }

    fn events_matched(&self) -> u64 {
        self.inner.events_matched()
    }

    fn finish(mut self: Box<Self>) -> ShardReport {
        if let Some(gate) = &mut self.gate {
            gate.open();
        }
        self.release_ready();
        let state_size = self.inner.state_size();
        let events_matched = self.inner.events_matched();
        ShardReport {
            results: self.inner.finish(),
            events_matched,
            state_size,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spass_like::signature_partitions;
    use sharon_query::{parse_workload, Workload};
    use sharon_streams::ecommerce::{self, EcommerceConfig};
    use sharon_streams::linear_road::{self, LinearRoadConfig};
    use sharon_streams::taxi::{self, TaxiConfig};
    use sharon_types::Schema;

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
    /// the batch router runs, checked row for row against the scope's own
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
            let mut kernel = RowFilter::scan_kernel(scope);
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
