//! Route-once batch routing for the sharded runtime.
//!
//! Under the original fan-out every shard worker re-ran the stateless
//! prefix of the per-event path — routing, predicate evaluation, group-key
//! extraction — for **every** event and dropped the groups it did not own,
//! duplicating that work `N` times. The [`BatchRouter`] runs the prefix
//! exactly once per event on the ingest side: one [`TypePass`] over the
//! chunk's type column serves all of the router's scopes, then for each
//! scope it evaluates routing and predicates column-wise, hashes
//! the group key, and appends the row index to the owning shard's list.
//! Workers then consume their lists (`process_routed`) and only ever touch
//! rows they own.
//!
//! Every group lives on its hash owner, and the assignment must agree
//! exactly with [`crate::engine::ShardSlice::owns`], which the online
//! workers' engines debug-assert: grouped rows go to
//! `(fx_hash_one(key) >> 32) % n_shards`, and the global (no `GROUP BY`)
//! rows of scope `p` go to `p % n_shards` — the shard whose engine was
//! built with `owns_global`. A skewed `GROUP BY` loads its hot group's
//! shard more than the rest (README, "Skewed `GROUP BY`").

use crate::checkpoint::{StateError, StateReader, StateWriter};
use crate::compile::CompiledPartition;
use crate::scan::{ScanCounters, ScanKernel, TypePass};
use sharon_types::{fx_hash_one, EventBatch, EventTypeId, GroupKey, Timestamp, Value};
use std::sync::Arc;

/// The stateless prefix of one routing scope as the batch router sees
/// it: a compiled [`ScanKernel`] selecting the scope's rows (type
/// routing, predicates, groupability) and the group-key extraction that
/// picks each selected row's shard.
pub trait RowFilter {
    /// Build the group key of a selected row into `key` (reusing the
    /// `vals` scratch buffer), returning `false` for ungroupable rows.
    /// With no `GROUP BY`, writes [`GroupKey::Global`].
    fn read_group_key(
        &self,
        ty: EventTypeId,
        attrs: &[Value],
        vals: &mut Vec<Value>,
        key: &mut GroupKey,
    ) -> bool;

    /// Compile this scope's stateless prefix — type routing, predicates,
    /// groupability — into the [`ScanKernel`] that selects its rows.
    fn scan_kernel(&self) -> ScanKernel;

    /// Estimated per-batch routing cost of this scope, used to balance
    /// scopes across the routing plane's threads (see
    /// [`partition_scopes`]): predicate clause count × routed-type
    /// density. Only relative magnitudes matter; the default weighs every
    /// scope equally.
    fn route_cost(&self) -> f64 {
        1.0
    }
}

impl RowFilter for CompiledPartition {
    #[inline]
    fn read_group_key(
        &self,
        ty: EventTypeId,
        attrs: &[Value],
        vals: &mut Vec<Value>,
        key: &mut GroupKey,
    ) -> bool {
        CompiledPartition::read_group_key(self, ty, attrs, vals, key)
    }

    fn scan_kernel(&self) -> ScanKernel {
        CompiledPartition::scan_kernel(self)
    }

    fn route_cost(&self) -> f64 {
        let total_types = self.routes.len().max(1);
        let routed_types = self.routes.iter().filter(|r| r.is_some()).count();
        let clauses: usize = self.predicates.iter().map(Vec::len).sum();
        (1.0 + clauses as f64) * (routed_types as f64 / total_types as f64).max(f64::MIN_POSITIVE)
    }
}

/// The rows of one batch owned by one shard, per routing scope:
/// `per_part[p]` lists the row indexes shard-owned for scope `p`
/// (a compiled partition, a query, or a signature partition, depending on
/// the hosted processor).
#[derive(Debug, Default)]
pub struct RoutedRows {
    /// Row-index lists, parallel to the routing scopes.
    pub per_part: Vec<Vec<u32>>,
    /// The router's event-time frontier: the maximum event time over
    /// every row routed so far (monotone across chunks). The single
    /// router sees the whole stream, so this is by construction the
    /// merged cross-shard frontier — each shard derives its watermark
    /// from it after applying this chunk's rows, which is what makes a
    /// window close only once the global minimum watermark passed it.
    /// Ignored by arrival-time (no-lateness) runs.
    pub frontier: Timestamp,
    /// Ingest batch sequence number, stamped by the dispatching stage.
    /// With a multi-router plane every router emits one chunk per worker
    /// per batch, and workers use the sequence number to merge the `R`
    /// ring streams in deterministic ingest order.
    pub seq: u64,
}

impl RoutedRows {
    /// True if no scope has any rows for this shard.
    pub fn is_empty(&self) -> bool {
        self.per_part.iter().all(Vec::is_empty)
    }

    /// Clear every row list, keeping capacities — the recycling path of
    /// the sharded runtime's return ring.
    pub fn clear(&mut self) {
        for rows in &mut self.per_part {
            rows.clear();
        }
    }

    /// Clear and resize to exactly `n_scopes` lists (retaining existing
    /// list capacities where possible).
    pub fn reset(&mut self, n_scopes: usize) {
        self.clear();
        self.per_part.resize_with(n_scopes, Vec::new);
    }
}

/// Type-erased batch routing: what the sharded runtime's ingest thread
/// drives, one virtual call per batch chunk. Implemented by
/// [`BatchRouter`] for any [`RowFilter`] scope type.
pub trait RouteBatch: Send {
    /// Number of shards this router fans out to.
    fn n_shards(&self) -> usize;

    /// Number of routing slots (the length of every
    /// [`RoutedRows::per_part`]). For a router owning a subset of a
    /// routing plane's scopes this is the **plane-wide** scope count,
    /// not the subset size.
    fn n_scopes(&self) -> usize;

    /// Number of scopes this router actually scans per chunk (its local
    /// subset; equals [`RouteBatch::n_scopes`] for a whole-plane router).
    fn n_local_scopes(&self) -> usize {
        self.n_scopes()
    }

    /// Compute, for every shard, the per-scope row lists of rows
    /// `lo..hi` of `batch` (absolute row indexes). `out` arrives holding
    /// recycled [`RoutedRows`] (possibly fewer than `n_shards`, possibly
    /// dirty); the router resets and tops it up — steady-state routing
    /// allocates nothing beyond row-list growth.
    fn route_range_into(
        &mut self,
        batch: &EventBatch,
        lo: usize,
        hi: usize,
        out: &mut Vec<RoutedRows>,
    );

    /// Always 0: every group lives on its hash owner. Kept only because
    /// the benchmark rig's `executor.router.split_groups` probe calls it;
    /// a `benchmark` change deletes both.
    fn split_groups(&self) -> usize {
        0
    }

    /// The router's per-scope scan tallies, if it tracks them. Cloned by
    /// the executor handle **before** the router moves onto its router
    /// thread, so selectivity stays reportable from the ingest side.
    fn scan_counters(&self) -> Option<Arc<ScanCounters>> {
        None
    }

    /// Serialize the router's routing state (its event-time frontier)
    /// into a checkpoint segment. Routers without routing state write
    /// nothing — and restore nothing.
    fn save_state(&mut self, w: &mut StateWriter) {
        let _ = w;
    }

    /// Restore the state written by [`RouteBatch::save_state`].
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let _ = r;
        Ok(())
    }
}

/// Routes whole batches: one stateless prefix evaluation per event,
/// shared by all shards. Generic over the scope type `F` — compiled
/// partitions for the online engines, baseline-provided filters for the
/// two-step strategies.
pub struct BatchRouter<F = CompiledPartition> {
    scopes: Vec<F>,
    /// Compiled scan kernels, parallel to `scopes`.
    kernels: Vec<ScanKernel>,
    /// The type pass every kernel selects from, built once per chunk and
    /// covering this router's scopes only.
    pass: TypePass,
    /// Reused selection buffer of the stateless pass (phase 1 output /
    /// phase 2 input of [`BatchRouter::route_range_into`]).
    sel_scratch: Vec<u32>,
    /// Per-scope scan tallies, shared with the executor handle that
    /// reports selectivity (the router itself may live on a dedicated
    /// ingest thread). Sized and indexed by **global slot**, so the
    /// executor can sum the counters of a whole routing plane
    /// element-wise.
    counters: Arc<ScanCounters>,
    n_shards: usize,
    /// Global routing-slot index of each local scope (identity for a
    /// whole-plane router). Slots index [`RoutedRows::per_part`] and pick
    /// the global-partition owner shard, so a plane of routers with
    /// disjoint scope subsets emits chunks that line up with the engines'
    /// global scope numbering.
    slots: Vec<u32>,
    /// Total routing slots across the whole plane (= the global scope
    /// count); every emitted [`RoutedRows`] is sized to this.
    n_slots: usize,
    /// Reused scratch key (clone-free group-key hashing).
    key_scratch: GroupKey,
    vals_scratch: Vec<Value>,
    /// Maximum event time over every routed row (the event-time frontier
    /// stamped onto [`RoutedRows::frontier`]).
    frontier: Timestamp,
}

impl<F: RowFilter> BatchRouter<F> {
    /// A router for `scopes` fanning out across `n_shards` shards.
    pub fn new(scopes: Vec<F>, n_shards: usize) -> Self {
        let slots = (0..scopes.len() as u32).collect();
        let n_slots = scopes.len();
        Self::with_slots(scopes, n_shards, slots, n_slots)
    }

    /// [`BatchRouter::new`] for a router owning a **subset** of a routing
    /// plane's scopes: `slots[i]` is the global slot of local scope `i`,
    /// and every emitted [`RoutedRows`] is sized to `n_slots` (the
    /// plane-wide scope count). Built by [`split_router_plane`].
    pub fn with_slots(scopes: Vec<F>, n_shards: usize, slots: Vec<u32>, n_slots: usize) -> Self {
        assert!(n_shards >= 1);
        assert_eq!(slots.len(), scopes.len(), "one slot per scope");
        assert!(
            slots.iter().all(|&s| (s as usize) < n_slots),
            "slot out of range"
        );
        let kernels: Vec<ScanKernel> = scopes.iter().map(RowFilter::scan_kernel).collect();
        let pass = TypePass::new(&kernels);
        let counters = ScanCounters::new(n_slots);
        BatchRouter {
            scopes,
            kernels,
            pass,
            sel_scratch: Vec::new(),
            counters,
            n_shards,
            slots,
            n_slots,
            key_scratch: GroupKey::Global,
            vals_scratch: Vec::new(),
            frontier: Timestamp::ZERO,
        }
    }

    /// The routing scopes this router serves.
    pub fn scopes(&self) -> &[F] {
        &self.scopes
    }

    /// Per-scope `(rows_scanned, rows_selected)` tallies of the stateless
    /// pass, shared with whoever holds a clone (see
    /// [`RouteBatch::scan_counters`]).
    pub fn scan_counters(&self) -> Arc<ScanCounters> {
        Arc::clone(&self.counters)
    }

    /// Compute, for every shard, the per-scope row lists of `batch`
    /// (convenience wrapper over [`RouteBatch::route_range_into`]).
    pub fn route(&mut self, batch: &EventBatch) -> Vec<RoutedRows> {
        self.route_range(batch, 0, batch.len())
    }

    /// [`BatchRouter::route`] restricted to rows `lo..hi` — the zero-copy
    /// ingest path routes consecutive chunks of one shared batch without
    /// ever copying it. Row indexes in the result are absolute.
    pub fn route_range(&mut self, batch: &EventBatch, lo: usize, hi: usize) -> Vec<RoutedRows> {
        let mut out = Vec::new();
        self.route_range_into(batch, lo, hi, &mut out);
        out
    }

    /// Rows that do not route into a scope, fail its predicates, or lack a
    /// grouping attribute are dropped here — exactly the rows the stateful
    /// side would drop — so workers receive only rows they will match.
    /// See [`RouteBatch::route_range_into`] for the recycling contract of
    /// `out`.
    pub fn route_range_into(
        &mut self,
        batch: &EventBatch,
        lo: usize,
        hi: usize,
        out: &mut Vec<RoutedRows>,
    ) {
        // one scan per scope per chunk — the observable unit of routing
        // work. With scope dedup upstream, Q same-scope queries advance
        // the counter by 1 per batch, not Q (asserted by regression
        // tests via `sharon_metrics::router_scope_scans`).
        sharon_metrics::record_router_scope_scans(self.scopes.len() as u64);
        out.truncate(self.n_shards);
        for rows in out.iter_mut() {
            rows.reset(self.n_slots);
        }
        while out.len() < self.n_shards {
            let mut rows = RoutedRows::default();
            rows.reset(self.n_slots);
            out.push(rows);
        }
        // phase 1 — stateless selection: one type pass over the chunk
        // serves every scope of this router; each scope's kernel selects
        // from it by routing and groupability, then evaluates its
        // predicates into the reused selection buffer (groupability is
        // precisely `read_group_key` succeeding)
        self.pass.build(batch, lo, hi);
        let mut sel = std::mem::take(&mut self.sel_scratch);
        for (pi, scope) in self.scopes.iter().enumerate() {
            let slot = self.slots[pi] as usize;
            sel.clear();
            self.kernels[pi].select_from(&self.pass, batch, &mut sel);
            self.counters
                .record(slot, (hi - lo) as u64, sel.len() as u64);
            sharon_metrics::record_rows_scanned((hi - lo) as u64);
            sharon_metrics::record_rows_selected(sel.len() as u64);

            // phase 2 — fan-out over the survivors: key construction and
            // owner hashing. Single-shard routers skip it entirely: every
            // selected row lands on shard 0.
            if self.n_shards == 1 {
                out[0].per_part[slot].extend_from_slice(&sel);
                continue;
            }
            // the global (no GROUP BY) partition owner is a function of
            // the *global* slot, matching the engines' `owns_global`
            let global_owner = slot % self.n_shards;
            for &row in &sel {
                let r = row as usize;
                // cannot fail: phase 1 already established groupability
                let ok = scope.read_group_key(
                    batch.ty(r),
                    batch.attrs(r),
                    &mut self.vals_scratch,
                    &mut self.key_scratch,
                );
                debug_assert!(ok, "selected row must be groupable");
                if !ok {
                    continue;
                }
                let owner = match &self.key_scratch {
                    GroupKey::Global => global_owner,
                    // high hash bits, matching `ShardSlice::owns` (the
                    // low bits index the owning shard's hash-map buckets)
                    key => ((fx_hash_one(key) >> 32) % self.n_shards as u64) as usize,
                };
                out[owner].per_part[slot].push(row);
            }
        }
        self.sel_scratch = sel;
        // advance the event-time frontier over the chunk's time column
        // (a plain max scan: disordered input makes no row position
        // authoritative) and stamp it onto every shard's rows — in-band
        // watermark delivery over the same rings as data and barriers
        for row in lo..hi {
            self.frontier = self.frontier.max(batch.time(row));
        }
        for rows in out.iter_mut() {
            rows.frontier = self.frontier;
        }
    }

    /// Serialize the router's event-time frontier (see
    /// [`RouteBatch::save_state`]). Structural configuration — scopes and
    /// shard count — is rebuilt from the plan on restore, not persisted.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.time(self.frontier);
    }

    /// Restore the state written by [`BatchRouter::save_state`] into a
    /// router built with the same scopes and shard count.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.frontier = r.time()?;
        Ok(())
    }
}

impl<F: RowFilter + Send> RouteBatch for BatchRouter<F> {
    fn n_shards(&self) -> usize {
        self.n_shards
    }

    fn n_scopes(&self) -> usize {
        self.n_slots
    }

    fn n_local_scopes(&self) -> usize {
        self.scopes.len()
    }

    fn route_range_into(
        &mut self,
        batch: &EventBatch,
        lo: usize,
        hi: usize,
        out: &mut Vec<RoutedRows>,
    ) {
        BatchRouter::route_range_into(self, batch, lo, hi, out);
    }

    fn scan_counters(&self) -> Option<Arc<ScanCounters>> {
        Some(BatchRouter::scan_counters(self))
    }

    fn save_state(&mut self, w: &mut StateWriter) {
        BatchRouter::save_state(self, w);
    }

    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        BatchRouter::load_state(self, r)
    }
}

/// Assign scopes (by their [`RowFilter::route_cost`] estimates) to
/// `n_routers` routing-plane threads with deterministic longest-
/// processing-time scheduling: scopes are taken in descending cost order
/// (index ascending on ties) and each goes to the least-loaded router
/// (lowest index on ties). Returns exactly `n_routers` lists of global
/// scope indexes, each sorted ascending; trailing routers may own no
/// scopes when there are fewer scopes than routers.
///
/// The assignment is a pure function of `(costs, n_routers)`, so a
/// resumed executor rebuilding its plane from the same compiled workload
/// reproduces the checkpointing run's scope→router mapping exactly.
pub fn partition_scopes(costs: &[f64], n_routers: usize) -> Vec<Vec<usize>> {
    assert!(n_routers >= 1, "a routing plane needs at least one router");
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| {
        costs[b]
            .partial_cmp(&costs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); n_routers];
    let mut loads = vec![0.0f64; n_routers];
    for pi in order {
        let router = loads
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(r, _)| r)
            .expect("n_routers >= 1");
        assignment[router].push(pi);
        loads[router] += costs[pi].max(0.0);
    }
    for scopes in &mut assignment {
        scopes.sort_unstable();
    }
    assignment
}

/// Split `scopes` into a routing plane of `n_routers` [`BatchRouter`]s,
/// each owning a disjoint, cost-balanced subset (see
/// [`partition_scopes`]) while emitting [`RoutedRows`] sized to the full
/// scope count. `n_routers == 1` moves the scopes into a single router —
/// exactly [`BatchRouter::new`], so the single-router plane is
/// bit-identical to the pre-plane behaviour.
pub fn split_router_plane<F: RowFilter + Clone + Send + 'static>(
    scopes: Vec<F>,
    n_shards: usize,
    n_routers: usize,
) -> Vec<Box<dyn RouteBatch>> {
    assert!(n_routers >= 1, "a routing plane needs at least one router");
    if n_routers == 1 {
        return vec![Box::new(BatchRouter::new(scopes, n_shards))];
    }
    let n_slots = scopes.len();
    let costs: Vec<f64> = scopes.iter().map(RowFilter::route_cost).collect();
    partition_scopes(&costs, n_routers)
        .into_iter()
        .map(|owned| {
            let subset: Vec<F> = owned.iter().map(|&pi| scopes[pi].clone()).collect();
            let slots: Vec<u32> = owned.iter().map(|&pi| pi as u32).collect();
            Box::new(BatchRouter::with_slots(subset, n_shards, slots, n_slots))
                as Box<dyn RouteBatch>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::engine::ShardSlice;
    use sharon_query::{parse_workload, SharingPlan};
    use sharon_types::{Catalog, Schema, Timestamp};

    fn setup() -> (Catalog, Vec<CompiledPartition>) {
        let mut c = Catalog::new();
        for n in ["A", "B"] {
            c.register_with_schema(n, Schema::new(["g", "v"]));
        }
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(A, B) WHERE A.v > 2 GROUP BY g WITHIN 10 ms SLIDE 2 ms",
                "RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 ms SLIDE 10 ms",
            ],
        )
        .unwrap();
        let parts = compile(&c, &w, &SharingPlan::non_shared()).unwrap();
        (c, parts)
    }

    fn batch(c: &Catalog, n: u64) -> EventBatch {
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let mut out = EventBatch::new();
        for i in 0..n {
            out.push_from(
                if i % 2 == 0 { a } else { b },
                Timestamp(i),
                [Value::Int(i as i64 % 13), Value::Int(i as i64 % 7)],
            );
        }
        out
    }

    #[test]
    fn every_row_routes_to_exactly_the_owning_shard() {
        let (c, parts) = setup();
        let n_shards = 3;
        let mut router = BatchRouter::new(parts.clone(), n_shards);
        let batch = batch(&c, 500);
        let routed = router.route(&batch);
        assert_eq!(routed.len(), n_shards);

        for (pi, _part) in parts.iter().enumerate() {
            let mut seen = vec![0u32; batch.len()];
            for (shard, rows) in routed.iter().enumerate() {
                let slice = ShardSlice {
                    index: shard as u32,
                    of: n_shards as u32,
                    owns_global: pi % n_shards == shard,
                };
                for &row in &rows.per_part[pi] {
                    seen[row as usize] += 1;
                    // the assignment agrees with what the engine would own
                    let gattrs = &parts[pi].group_attrs[batch.ty(row as usize).index()];
                    let key = if gattrs.is_empty() {
                        GroupKey::Global
                    } else {
                        GroupKey::from_values(
                            gattrs
                                .iter()
                                .map(|a| batch.attr(row as usize, *a).unwrap().clone())
                                .collect(),
                        )
                    };
                    assert!(slice.owns(&key), "shard {shard} got a row it does not own");
                }
            }
            assert!(
                seen.iter().all(|&s| s <= 1),
                "partition {pi}: a row reached two shards"
            );
        }
    }

    #[test]
    fn predicate_failures_are_dropped_at_the_router() {
        let (c, parts) = setup();
        let mut router = BatchRouter::new(parts, 2);
        let a = c.lookup("A").unwrap();
        let mut b = EventBatch::new();
        // A.v = 1 fails `A.v > 2` for partition 0 but partition 1 has no
        // predicate on A
        b.push_from(a, Timestamp(0), [Value::Int(5), Value::Int(1)]);
        let routed = router.route(&b);
        let part0: usize = routed.iter().map(|r| r.per_part[0].len()).sum();
        let part1: usize = routed.iter().map(|r| r.per_part[1].len()).sum();
        assert_eq!(part0, 0, "failed predicate dropped at the router");
        assert_eq!(part1, 1, "global partition still gets the row");
    }

    #[test]
    fn empty_batch_routes_to_nothing() {
        let (_, parts) = setup();
        let mut router = BatchRouter::new(parts, 4);
        let routed = router.route(&EventBatch::new());
        assert!(routed.iter().all(RoutedRows::is_empty));
    }

    #[test]
    fn recycled_lists_are_reset_before_reuse() {
        let (c, parts) = setup();
        let mut router = BatchRouter::new(parts, 2);
        let b = batch(&c, 100);
        let mut out = router.route(&b);
        let want: Vec<Vec<Vec<u32>>> = out.iter().map(|r| r.per_part.clone()).collect();
        // dirty the recycled lists, then re-route into them: results and
        // capacities must be identical to a fresh route
        router.route_range_into(&b, 0, b.len(), &mut out);
        let got: Vec<Vec<Vec<u32>>> = out.iter().map(|r| r.per_part.clone()).collect();
        assert_eq!(got, want, "recycled routing must equal fresh routing");
        // shrinking the pool still works: route with fewer recycled lists
        out.truncate(1);
        router.route_range_into(&b, 0, b.len(), &mut out);
        let got: Vec<Vec<Vec<u32>>> = out.iter().map(|r| r.per_part.clone()).collect();
        assert_eq!(got, want);
    }

    /// The router's only checkpointed state is its event-time frontier: a
    /// restored router stamps the frontier the saved one reached, even on
    /// a chunk whose rows all lie behind it.
    #[test]
    fn router_state_round_trips() {
        let (c, parts) = setup();
        let mut router = BatchRouter::new(parts.clone(), 3);
        router.route(&batch(&c, 500));
        let mut sw = StateWriter::new();
        router.save_state(&mut sw);
        let bytes = sw.into_bytes();

        let mut restored = BatchRouter::new(parts, 3);
        let mut sr = StateReader::new(&bytes);
        restored.load_state(&mut sr).unwrap();
        assert!(sr.is_exhausted(), "router state fully consumed");

        let behind = batch(&c, 100);
        let want = router.route(&behind);
        let got = restored.route(&behind);
        for (w_rows, g_rows) in want.iter().zip(&got) {
            assert_eq!(w_rows.per_part, g_rows.per_part);
            assert_eq!(w_rows.frontier, g_rows.frontier);
        }
        assert_eq!(got[0].frontier, Timestamp(499));
    }

    #[test]
    fn scope_partitioning_is_deterministic_and_total() {
        let costs = [5.0, 1.0, 4.0, 2.0, 3.0, 1.0];
        let a = partition_scopes(&costs, 2);
        assert_eq!(a, partition_scopes(&costs, 2));
        let mut all: Vec<usize> = a.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..costs.len()).collect::<Vec<_>>());
        // LPT keeps the two loads within the largest single cost
        let load = |r: &Vec<usize>| -> f64 { r.iter().map(|&i| costs[i]).sum() };
        assert!((load(&a[0]) - load(&a[1])).abs() <= 5.0);
        // more routers than scopes leaves the tail empty, never panics
        let wide = partition_scopes(&[1.0], 3);
        assert_eq!(wide.len(), 3);
        assert_eq!(wide.iter().map(Vec::len).sum::<usize>(), 1);
    }

    /// A plane of `R` routers over disjoint scope subsets routes exactly
    /// what the single router routes: per shard and slot, one router
    /// contributes the identical row list and all stamp the identical
    /// full-stream frontier.
    #[test]
    fn router_plane_matches_single_router_routing() {
        let (c, parts) = setup();
        let n_shards = 3;
        let b = batch(&c, 500);
        let mut single = BatchRouter::new(parts.clone(), n_shards);
        let want = single.route(&b);
        for n_routers in [2usize, 4] {
            let mut plane = split_router_plane(parts.clone(), n_shards, n_routers);
            assert_eq!(plane.len(), n_routers);
            let outs: Vec<Vec<RoutedRows>> = plane
                .iter_mut()
                .map(|r| {
                    assert_eq!(r.n_scopes(), parts.len(), "chunks span the whole plane");
                    assert!(r.n_local_scopes() <= parts.len());
                    let mut o = Vec::new();
                    r.route_range_into(&b, 0, b.len(), &mut o);
                    o
                })
                .collect();
            for shard in 0..n_shards {
                for slot in 0..parts.len() {
                    let contributors: Vec<&Vec<u32>> = outs
                        .iter()
                        .map(|o| &o[shard].per_part[slot])
                        .filter(|rows| !rows.is_empty())
                        .collect();
                    assert!(contributors.len() <= 1, "slot {slot} routed by two routers");
                    let got: &[u32] = contributors.first().map(|r| r.as_slice()).unwrap_or(&[]);
                    assert_eq!(
                        got,
                        want[shard].per_part[slot].as_slice(),
                        "plane x{n_routers}, shard {shard}, slot {slot}"
                    );
                }
                for o in &outs {
                    assert_eq!(
                        o[shard].frontier, want[shard].frontier,
                        "every router stamps the full-stream frontier"
                    );
                }
            }
        }
    }
}
