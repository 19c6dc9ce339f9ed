//! Route-once batch routing for the sharded runtime.
//!
//! Under the original fan-out every shard worker re-ran the stateless
//! prefix of the per-event path — routing, predicate evaluation, group-key
//! extraction — for **every** event and dropped the groups it did not own,
//! duplicating that work `N` times. The [`BatchRouter`] runs the prefix
//! exactly once per event, on the sharded runtime's one router thread:
//! its front end ([`ScanFront`], the same select stage the sequential
//! owners run) selects every scope's rows of the chunk through one shared
//! type pass, then the router hashes each selected row's group key and
//! appends the row index to the owning shard's list. Workers then
//! dispatch their lists (`Executor::process_routed`) and only ever touch
//! rows they own.
//!
//! The router is the only place that assigns a group to a shard, and
//! every group lives on its hash owner: grouped rows go to
//! `(fx_hash_one(key) >> 32) % n_shards`, and the global (no `GROUP BY`)
//! rows of scope `p` go to `p % n_shards`. Groups never interact
//! (Definition 2: one result per group per window), so shards over
//! disjoint groups produce disjoint, exactly mergeable results. A skewed
//! `GROUP BY` loads its hot group's shard more than the rest. A mode that
//! split a hot group across shards was deleted: every replica repeated
//! all of the group's state work, and a 2-core probe over Zipf-skewed LR
//! found no case where it won.

use crate::checkpoint::{StateError, StateReader, StateWriter};
use crate::compile::CompiledPartition;
use crate::front::ScanFront;
use crate::scan::{ScanCounters, ScanKernel};
use sharon_types::{fx_hash_one, EventBatch, EventTypeId, GroupKey, Timestamp, Value};
use std::sync::Arc;

/// The stateless prefix of one routing scope as the batch router sees
/// it: a compiled [`ScanKernel`] selecting the scope's rows (type
/// routing, predicates, groupability) and the group-key extraction that
/// picks each selected row's shard. The runtime routes
/// [`CompiledPartition`]s; the scan-parity suite routes generated scopes.
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
}

/// The rows of one batch owned by one shard, per routing scope:
/// `per_part[p]` lists the row indexes shard-owned for scope `p` (a
/// compiled partition).
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

/// What is left of the router's trait surface: one probe the benchmark
/// rig still calls.
pub trait RouteBatch {
    /// Always 0: every group lives on its hash owner. Kept only because
    /// the benchmark rig's `executor.router.split_groups` probe calls it;
    /// a `benchmark` change deletes both.
    fn split_groups(&self) -> usize {
        0
    }
}

/// Routes whole batches: one stateless prefix evaluation per event,
/// shared by all shards. Generic over the scope type `F`: compiled
/// partitions in the runtime.
pub struct BatchRouter<F = CompiledPartition> {
    scopes: Vec<F>,
    /// The select stage over the scopes' kernels. Its tallies are shared
    /// with the executor handle that reports selectivity (the router
    /// itself lives on the router thread).
    front: ScanFront,
    n_shards: usize,
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
        assert!(n_shards >= 1);
        BatchRouter {
            front: ScanFront::new(scopes.iter().map(RowFilter::scan_kernel).collect()),
            scopes,
            n_shards,
            key_scratch: GroupKey::Global,
            vals_scratch: Vec::new(),
            frontier: Timestamp::ZERO,
        }
    }

    /// Per-scope `(rows_scanned, rows_selected)` tallies of the stateless
    /// pass, shared with whoever holds a clone. The sharded runtime clones
    /// them **before** the router moves onto its router thread, so
    /// selectivity stays reportable from the ingest side.
    pub fn scan_counters(&self) -> Arc<ScanCounters> {
        Arc::clone(self.front.counters())
    }

    /// Compute, for every shard, the per-scope row lists of `batch`
    /// (convenience wrapper over [`BatchRouter::route_range_into`]).
    pub fn route(&mut self, batch: &EventBatch) -> Vec<RoutedRows> {
        let mut out = Vec::new();
        self.route_range_into(batch, 0, batch.len(), &mut out);
        out
    }

    /// Compute, for every shard, the per-scope row lists of rows
    /// `lo..hi` of `batch` (absolute row indexes). `out` arrives holding
    /// recycled [`RoutedRows`] (possibly fewer than `n_shards`, possibly
    /// dirty); the router resets and tops it up — steady-state routing
    /// allocates nothing beyond row-list growth.
    ///
    /// Rows that do not route into a scope, fail its predicates, or lack a
    /// grouping attribute are dropped here — exactly the rows the stateful
    /// side would drop — so workers receive only rows they will match.
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
        let n_scopes = self.scopes.len();
        sharon_metrics::record_router_scope_scans(n_scopes as u64);
        out.truncate(self.n_shards);
        for rows in out.iter_mut() {
            rows.reset(n_scopes);
        }
        while out.len() < self.n_shards {
            let mut rows = RoutedRows::default();
            rows.reset(n_scopes);
            out.push(rows);
        }
        // the front end selects every scope's rows (routing, predicates,
        // groupability — which is precisely `read_group_key` succeeding)
        let lists = self.front.select(batch, lo, hi);
        for (pi, (scope, sel)) in self.scopes.iter().zip(lists).enumerate() {
            // fan-out over the survivors: key construction and owner
            // hashing. Single-shard routers skip it entirely: every
            // selected row lands on shard 0.
            if self.n_shards == 1 {
                out[0].per_part[pi].extend_from_slice(sel);
                continue;
            }
            // the global (no GROUP BY) partition's owner, spreading the
            // global scopes over the shards
            let global_owner = pi % self.n_shards;
            for &row in sel {
                let r = row as usize;
                // cannot fail: the scan already established groupability
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
                    // the high 32 hash bits: each shard's group map takes
                    // its `FxHashMap` bucket index from the low bits of the
                    // same hash. Were both taken from the low bits, every
                    // key a shard owns would be congruent to its index mod
                    // `n_shards`, and with power-of-two shard counts its
                    // map would home-hash into only `1/n_shards` of its
                    // buckets.
                    key => ((fx_hash_one(key) >> 32) % self.n_shards as u64) as usize,
                };
                out[owner].per_part[pi].push(row);
            }
        }
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

    /// Serialize the router's event-time frontier into a checkpoint
    /// segment. Structural configuration — scopes and shard count — is
    /// rebuilt from the plan on restore, not persisted.
    pub(crate) fn save_state(&self, w: &mut StateWriter) {
        w.time(self.frontier);
    }

    /// Restore the state written by [`BatchRouter::save_state`] into a
    /// router built with the same scopes and shard count.
    pub(crate) fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.frontier = r.time()?;
        Ok(())
    }
}

impl<F> RouteBatch for BatchRouter<F> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
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

    /// The router is the one place that assigns a group to a shard: at
    /// every shard count, each row of a scope reaches exactly one shard,
    /// a grouped row the shard `(fx_hash_one(key) >> 32) % n` (so all
    /// rows of one key meet there) and a global row the shard `p % n`.
    #[test]
    fn every_row_routes_to_exactly_the_owning_shard() {
        let mut c = Catalog::new();
        for n in ["A", "B"] {
            c.register_with_schema(n, Schema::new(["g", "h"]));
        }
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY g WITHIN 10 ms SLIDE 2 ms",
                "RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY g, h WITHIN 10 ms SLIDE 2 ms",
                "RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 ms SLIDE 10 ms",
                "RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY h WITHIN 10 ms SLIDE 2 ms",
                "RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 8 ms SLIDE 8 ms",
            ],
        )
        .unwrap();
        let parts = compile(&c, &w, &SharingPlan::non_shared()).unwrap();
        let (a, b) = (c.lookup("A").unwrap(), c.lookup("B").unwrap());
        let mut batch = EventBatch::new();
        for i in 0..500u64 {
            let g = Value::from(format!("key-{}", i % 11).as_str());
            let h = Value::Int(i as i64 % 7);
            batch.push_from(if i % 2 == 0 { a } else { b }, Timestamp(i), [g, h]);
        }
        let key_of = |pi: usize, row: usize| {
            let gattrs = &parts[pi].group_attrs[batch.ty(row).index()];
            GroupKey::from_values(
                gattrs
                    .iter()
                    .map(|&at| batch.attr(row, at).unwrap().clone())
                    .collect(),
            )
        };
        let arities: Vec<usize> = (0..parts.len()).map(|pi| key_of(pi, 0).arity()).collect();
        assert_eq!(
            arities,
            [1, 2, 0, 1, 0],
            "string, pair, global, int, global keys"
        );

        for n in 1..=4 {
            let routed = BatchRouter::new(parts.clone(), n).route(&batch);
            assert_eq!(routed.len(), n);
            for pi in 0..parts.len() {
                let mut owner = vec![None; batch.len()];
                for (shard, rows) in routed.iter().enumerate() {
                    for &row in &rows.per_part[pi] {
                        let row = row as usize;
                        assert_eq!(owner[row], None, "{n} shards: row {row} reached two shards");
                        owner[row] = Some(shard);
                    }
                }
                for (row, shard) in owner.into_iter().enumerate() {
                    let want = match key_of(pi, row) {
                        GroupKey::Global => pi % n,
                        key => ((fx_hash_one(&key) >> 32) % n as u64) as usize,
                    };
                    assert_eq!(shard, Some(want), "{n} shards, scope {pi}, row {row}");
                }
            }
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
}
