//! Route-once batch routing for the sharded runtime, with **skew-aware
//! hot-group splitting**.
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
//! # Hot-group splitting
//!
//! Hash-pinning every group to one shard caps throughput at single-core
//! speed whenever the group distribution is skewed (a Zipfian `GROUP BY`
//! is the common case in real traffic): the hot group's shard saturates
//! while the rest idle. The router therefore tracks per-group row counts
//! with a cheap periodically-decayed counter and, when one group exceeds
//! the hotness threshold (see [`SplitConfig`]), **splits** it:
//!
//! * rows of *final-only* types (their only roles fold completed
//!   sequences into the final per-window accumulators — see
//!   [`crate::CompiledPartition::split_spec`]) are **round-robined**
//!   across all shards; every shard accumulates per-window
//!   *sub-aggregates* of the split group which a merge step combines at
//!   the end of the run ([`crate::PartialResults`]);
//! * all other rows (anything that writes runner or chain state) are
//!   **broadcast**: one shard receives the row as a normal ("full") row,
//!   every other shard receives it as a *state-only* replica, so all
//!   shards evolve identical evaluation state for the split group while
//!   final folds — the expensive part on a hot group — happen exactly
//!   once globally.
//!
//! The scheme is exact because every state mutation in the engines is a
//! deterministic function of the (ordered) state rows and their
//! timestamps; final folds only *read* that state. Two details keep the
//! transition exact as well: a newly split group goes through a
//! **warm-up** of one window length (`within`), during which all
//! final-only rows still go to the hash owner (the only shard with
//! pre-split state) while state rows already broadcast — after `within`,
//! everything the replicas missed has expired; and engines are notified of
//! new splits in-band ([`RoutedRows::splits`]) so the owner switches its
//! emission for that group to sub-aggregates before any post-split window
//! closes.
//!
//! Splitting is *per scope* and opt-in via [`RowFilter::split_spec`]: the
//! online engines' [`CompiledPartition`] provides a spec, the two-step
//! baselines keep the `None` default and are never split — they keep
//! working unchanged through [`crate::ShardedExecutor::from_parts`].
//!
//! The shard assignment of non-split groups must agree exactly with
//! [`crate::engine::ShardSlice::owns`], which the online workers' engines
//! debug-assert: grouped rows go to `(fx_hash_one(key) >> 32) % n_shards`,
//! and the global (no `GROUP BY`) rows of scope `p` go to
//! `p % n_shards` — the shard whose engine was built with `owns_global`.

use crate::checkpoint::{StateError, StateReader, StateWriter};
use crate::compile::CompiledPartition;
use crate::scan::{ScanCounters, ScanKernel, TypePass};
use sharon_types::{fx_hash_one, EventBatch, EventTypeId, FxHashMap, GroupKey, Timestamp, Value};
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

    /// Role classification enabling hot-group splitting for this scope.
    /// `None` (the default) pins every group to its hash owner — the
    /// behaviour the two-step baselines rely on.
    fn split_spec(&self) -> Option<SplitSpec> {
        None
    }

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

    fn split_spec(&self) -> Option<SplitSpec> {
        Some(CompiledPartition::split_spec(self))
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

/// Per-type role classification of one routing scope, used to split hot
/// groups (see the module docs and
/// [`crate::CompiledPartition::split_spec`]).
#[derive(Debug, Clone)]
pub struct SplitSpec {
    /// Per event type id (dense): `true` if rows of the type only fold
    /// final aggregates (round-robin them), `false` if they write
    /// evaluation state (broadcast them).
    pub final_only: Vec<bool>,
    /// Warm-up after a split decision, in milliseconds — the scope's
    /// window length, after which the replicas' state is complete.
    pub warmup_ms: u64,
}

/// Tuning of the hot-group detector.
#[derive(Debug, Clone, Copy)]
pub struct SplitConfig {
    /// Master switch (splitting is on by default; single-shard routers
    /// never split regardless).
    pub enabled: bool,
    /// A group must reach this many (decayed) rows before it can split —
    /// the noise floor. Note the interaction with [`SplitConfig::decay_period`]:
    /// a group's decayed counter converges to at most `2 × decay_period`
    /// under sustained traffic, so a `min_rows` above that ceiling
    /// effectively disables splitting.
    pub min_rows: u32,
    /// A group is hot when its decayed count exceeds this fraction of the
    /// scope's decayed total. `0.0` selects the automatic threshold
    /// `1.2 / n_shards` — only groups genuinely exceeding one shard's
    /// fair share split, so a uniform distribution (where hash pinning is
    /// already balanced) never pays broadcast replication.
    pub hot_fraction: f64,
    /// Counters are halved every this many routed rows per scope, so
    /// hotness reflects recent traffic instead of the whole run.
    pub decay_period: u32,
}

impl Default for SplitConfig {
    fn default() -> Self {
        SplitConfig {
            enabled: true,
            min_rows: 1024,
            hot_fraction: 0.0,
            decay_period: 8192,
        }
    }
}

impl SplitConfig {
    /// A disabled configuration: every group stays hash-pinned.
    pub fn disabled() -> Self {
        SplitConfig {
            enabled: false,
            ..Default::default()
        }
    }

    /// An aggressive configuration for tests: tiny noise floor so small
    /// synthetic streams exercise the split path.
    pub fn eager(min_rows: u32) -> Self {
        SplitConfig {
            enabled: true,
            min_rows,
            hot_fraction: 0.0,
            decay_period: 8192,
        }
    }
}

/// The split state of one hot group.
#[derive(Debug)]
struct HotGroup {
    /// The group's key, kept for the unsplit notice when the group cools
    /// back down (split groups are few, so the clone is cheap).
    key: GroupKey,
    /// Round-robin of final-only rows begins at this timestamp (the
    /// event-time frontier at split decision time + warm-up); before it,
    /// the hash owner keeps all final folds. The base is the frontier,
    /// not the triggering row's own time: under bounded disorder,
    /// owner-only rows routed before the split registered can carry
    /// event times up to the frontier, and round-robin must not begin
    /// until every window containing them has expired on the owner.
    active_at_ms: u64,
    /// Round-robin cursor of final-only rows. Separate from `rr_full` so
    /// interleaved state/final traffic still cycles final folds over all
    /// shards.
    rr_final: u32,
    /// Round-robin cursor of broadcast rows' full copies.
    rr_full: u32,
    /// Decayed row counter while split, feeding cool-down detection (the
    /// pre-split counter lives in [`SplitTracker::counts`]).
    count: u32,
    /// Cool-down deadline: set when the group went cold. From that moment
    /// finals re-pin to the hash owner while state rows keep
    /// broadcasting — so a re-heat before the deadline cancels the
    /// hand-off with replicas still warm — and at the first sweep past
    /// the deadline the group unsplits for real.
    cooling_until: Option<u64>,
}

impl HotGroup {
    fn save_state(&self, w: &mut StateWriter) {
        w.group_key(&self.key);
        w.u64(self.active_at_ms);
        w.u32(self.rr_final);
        w.u32(self.rr_full);
        w.u32(self.count);
        match self.cooling_until {
            Some(t) => {
                w.bool(true);
                w.u64(t);
            }
            None => w.bool(false),
        }
    }

    fn load_state(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        Ok(HotGroup {
            key: r.group_key()?,
            active_at_ms: r.u64()?,
            rr_final: r.u32()?,
            rr_full: r.u32()?,
            count: r.u32()?,
            cooling_until: if r.bool()? { Some(r.u64()?) } else { None },
        })
    }
}

/// Hot-group tracking of one splittable scope.
struct SplitTracker {
    spec: SplitSpec,
    /// Decayed per-group row counters, keyed by the group-key hash (the
    /// same hash that picks the owning shard; collisions merely conflate
    /// counts, never correctness).
    counts: FxHashMap<u64, u32>,
    /// Decayed counter of the global (no `GROUP BY`) partition.
    global_count: u32,
    /// Decayed total of rows routed through this scope.
    total: u64,
    /// Raw rows since the last decay.
    since_decay: u32,
    /// Split groups, keyed by group-key hash.
    split: FxHashMap<u64, HotGroup>,
    /// Split state of the global partition, if hot.
    split_global: Option<HotGroup>,
    /// Newly split groups to announce to every shard with the next
    /// routed batch.
    notices: Vec<GroupKey>,
    /// Groups that finished cooling down, to announce to every shard
    /// after the current batch's rows.
    unsplit_notices: Vec<GroupKey>,
    /// Resolved hotness fraction (see [`SplitConfig::hot_fraction`]).
    fraction: f64,
    min_rows: u32,
    decay_period: u32,
}

impl SplitTracker {
    fn new(spec: SplitSpec, config: &SplitConfig, n_shards: usize) -> Self {
        let fraction = if config.hot_fraction > 0.0 {
            config.hot_fraction
        } else {
            1.2 / n_shards as f64
        };
        SplitTracker {
            spec,
            counts: FxHashMap::default(),
            global_count: 0,
            total: 0,
            since_decay: 0,
            split: FxHashMap::default(),
            split_global: None,
            notices: Vec::new(),
            unsplit_notices: Vec::new(),
            fraction,
            min_rows: config.min_rows,
            decay_period: config.decay_period.max(2),
        }
    }

    /// Count one routed row of a (non-split) group and decide whether it
    /// just became hot.
    #[inline]
    fn observe(&mut self, hash: Option<u64>) -> bool {
        self.total += 1;
        self.since_decay += 1;
        let count = match hash {
            Some(h) => {
                let c = self.counts.entry(h).or_insert(0);
                *c += 1;
                *c
            }
            None => {
                self.global_count += 1;
                self.global_count
            }
        };
        let hot = count >= self.min_rows && count as f64 >= self.fraction * self.total as f64;
        if self.since_decay >= self.decay_period {
            self.decay();
        }
        hot
    }

    /// Count one routed row of an already-split group. Split rows must
    /// keep feeding the scope total — otherwise each split shrinks the
    /// hotness denominator and merely-warm groups cascade into splits
    /// they never needed.
    #[inline]
    fn observe_split(&mut self) {
        self.total += 1;
        self.since_decay += 1;
        if self.since_decay >= self.decay_period {
            self.decay();
        }
    }

    /// Halve every counter (dropping zeros) so hotness tracks recent
    /// traffic.
    fn decay(&mut self) {
        self.since_decay = 0;
        self.total /= 2;
        self.global_count /= 2;
        self.counts.retain(|_, c| {
            *c /= 2;
            *c > 0
        });
        for hot in self.split.values_mut() {
            hot.count /= 2;
        }
        if let Some(hot) = &mut self.split_global {
            hot.count /= 2;
        }
    }

    /// Advance the cool-down state machine of every split group to
    /// `now_ms` (the newest routed timestamp). Cold groups enter cooling:
    /// finals re-pin to the owner immediately while state rows keep
    /// broadcasting for one more warm-up window, so a re-heat cancels the
    /// hand-off with the replicas still current. Groups still cold at the
    /// deadline unsplit: their keys are queued as in-band unsplit notices
    /// (delivered to every shard *after* the batch's rows).
    fn sweep_cooldown(&mut self, now_ms: u64) {
        let (min_rows, fraction, total) = (self.min_rows, self.fraction, self.total);
        let warmup = self.spec.warmup_ms;
        let cold =
            |count: u32| count < min_rows / 2 || (count as f64) * 2.0 < fraction * total as f64;
        let unsplit_notices = &mut self.unsplit_notices;
        let mut step = |hot: &mut HotGroup| -> bool {
            match hot.cooling_until {
                None => {
                    // never begin the hand-off during the split's own
                    // warm-up — a just-split group has not reached its
                    // steady decayed count yet
                    if now_ms >= hot.active_at_ms && cold(hot.count) {
                        hot.cooling_until = Some(now_ms.saturating_add(warmup));
                    }
                    true
                }
                Some(deadline) => {
                    if !cold(hot.count) {
                        hot.cooling_until = None; // re-heated: cancel
                        true
                    } else if now_ms >= deadline {
                        unsplit_notices.push(hot.key.clone());
                        false
                    } else {
                        true
                    }
                }
            }
        };
        self.split.retain(|_, hot| step(hot));
        if let Some(hot) = &mut self.split_global {
            if !step(hot) {
                self.split_global = None;
            }
        }
    }

    /// Serialize the tracker's routing state (decayed counters, split
    /// groups, pending notices) into a checkpoint segment. Tuning
    /// (`spec`, thresholds) is rebuilt from configuration, not persisted.
    fn save_state(&self, w: &mut StateWriter) {
        // deterministic order: identical state must yield identical bytes
        let mut counts: Vec<(u64, u32)> = self.counts.iter().map(|(h, c)| (*h, *c)).collect();
        counts.sort_unstable();
        w.seq_len(counts.len());
        for (h, c) in counts {
            w.u64(h);
            w.u32(c);
        }
        w.u32(self.global_count);
        w.u64(self.total);
        w.u32(self.since_decay);
        let mut split: Vec<(&u64, &HotGroup)> = self.split.iter().collect();
        split.sort_unstable_by_key(|(h, _)| **h);
        w.seq_len(split.len());
        for (h, hot) in split {
            w.u64(*h);
            hot.save_state(w);
        }
        match &self.split_global {
            Some(hot) => {
                w.bool(true);
                hot.save_state(w);
            }
            None => w.bool(false),
        }
        // notices drain with every routed chunk and checkpoints sit at
        // chunk boundaries, so these are empty in practice — persisted
        // anyway so the format never depends on that invariant
        w.seq_len(self.notices.len());
        for key in &self.notices {
            w.group_key(key);
        }
        w.seq_len(self.unsplit_notices.len());
        for key in &self.unsplit_notices {
            w.group_key(key);
        }
    }

    /// Restore the state written by [`SplitTracker::save_state`].
    fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let n_counts = r.seq_len()?;
        self.counts.clear();
        self.counts.reserve(n_counts);
        for _ in 0..n_counts {
            let h = r.u64()?;
            let c = r.u32()?;
            self.counts.insert(h, c);
        }
        self.global_count = r.u32()?;
        self.total = r.u64()?;
        self.since_decay = r.u32()?;
        let n_split = r.seq_len()?;
        self.split.clear();
        for _ in 0..n_split {
            let h = r.u64()?;
            self.split.insert(h, HotGroup::load_state(r)?);
        }
        self.split_global = if r.bool()? {
            Some(HotGroup::load_state(r)?)
        } else {
            None
        };
        let n_notices = r.seq_len()?;
        self.notices.clear();
        for _ in 0..n_notices {
            self.notices.push(r.group_key()?);
        }
        let n_unsplit = r.seq_len()?;
        self.unsplit_notices.clear();
        for _ in 0..n_unsplit {
            self.unsplit_notices.push(r.group_key()?);
        }
        Ok(())
    }
}

/// The rows of one batch owned by one shard, per routing scope:
/// `per_part[p]` lists the row indexes shard-owned for scope `p`
/// (a compiled partition, a query, or a signature partition, depending on
/// the hosted processor). For split groups, `state_rows[p]` additionally
/// lists broadcast state-only replica rows, and `splits` announces groups
/// that were split while routing this batch.
#[derive(Debug, Default)]
pub struct RoutedRows {
    /// Full-role row-index lists, parallel to the routing scopes.
    pub per_part: Vec<Vec<u32>>,
    /// State-only replica rows of split groups, parallel to the routing
    /// scopes (empty unless the scope split a group). Processed
    /// interleaved with `per_part` in row order, with final folds and
    /// matched counting suppressed.
    pub state_rows: Vec<Vec<u32>>,
    /// Newly split groups: `(scope index, group key)`. Delivered to every
    /// shard before the batch's rows are processed.
    pub splits: Vec<(u32, GroupKey)>,
    /// Groups that cooled back down: `(scope index, group key)`.
    /// Delivered to every shard **after** the batch's rows — the rows of
    /// this batch were still routed under the split regime.
    pub unsplits: Vec<(u32, GroupKey)>,
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
    /// True if no scope has any rows and no split notices are pending for
    /// this shard.
    pub fn is_empty(&self) -> bool {
        self.splits.is_empty()
            && self.unsplits.is_empty()
            && self.per_part.iter().all(Vec::is_empty)
            && self.state_rows.iter().all(Vec::is_empty)
    }

    /// Clear every row list, keeping capacities — the recycling path of
    /// the sharded runtime's return ring.
    pub fn clear(&mut self) {
        for rows in &mut self.per_part {
            rows.clear();
        }
        for rows in &mut self.state_rows {
            rows.clear();
        }
        self.splits.clear();
        self.unsplits.clear();
    }

    /// Clear and resize to exactly `n_scopes` lists (retaining existing
    /// list capacities where possible).
    pub fn reset(&mut self, n_scopes: usize) {
        self.clear();
        self.per_part.resize_with(n_scopes, Vec::new);
        self.state_rows.resize_with(n_scopes, Vec::new);
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

    /// Number of groups currently split across shards, summed over scopes.
    fn split_groups(&self) -> usize {
        0
    }

    /// The router's per-scope scan tallies, if it tracks them. Cloned by
    /// the executor handle **before** the router moves onto its router
    /// thread, so selectivity stays reportable from the ingest side.
    fn scan_counters(&self) -> Option<Arc<ScanCounters>> {
        None
    }

    /// Serialize the router's routing state (decayed counters, split
    /// groups, pending notices) into a checkpoint segment. Routers
    /// without routing state (the baselines' pinned-only filters) write
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
    /// Hot-group trackers, parallel to `scopes` (`None` when the scope
    /// opted out of splitting or the router is single-shard).
    trackers: Vec<Option<SplitTracker>>,
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
    /// whole-plane router). Slots index [`RoutedRows::per_part`] /
    /// `state_rows` and pick the global-partition owner shard, so a
    /// plane of routers with disjoint scope subsets emits chunks that
    /// line up with the engines' global scope numbering.
    slots: Vec<u32>,
    /// Total routing slots across the whole plane (= the global scope
    /// count); every emitted [`RoutedRows`] is sized to this.
    n_slots: usize,
    /// Reused scratch key (clone-free group-key hashing).
    key_scratch: GroupKey,
    vals_scratch: Vec<Value>,
    /// Per-chunk running event-time maximum (seeded from `frontier`),
    /// indexed by chunk-relative row — the split warm-up base (reused
    /// scratch, filled only when a scope tracks hot groups).
    runmax_scratch: Vec<u64>,
    /// Maximum event time over every routed row (the event-time frontier
    /// stamped onto [`RoutedRows::frontier`]).
    frontier: Timestamp,
}

impl<F: RowFilter> BatchRouter<F> {
    /// A router for `scopes` fanning out across `n_shards` shards, with
    /// the default hot-group [`SplitConfig`].
    pub fn new(scopes: Vec<F>, n_shards: usize) -> Self {
        Self::with_split(scopes, n_shards, SplitConfig::default())
    }

    /// [`BatchRouter::new`] with explicit hot-group split tuning.
    pub fn with_split(scopes: Vec<F>, n_shards: usize, config: SplitConfig) -> Self {
        let slots = (0..scopes.len() as u32).collect();
        let n_slots = scopes.len();
        Self::with_split_slots(scopes, n_shards, config, slots, n_slots)
    }

    /// [`BatchRouter::with_split`] for a router owning a **subset** of a
    /// routing plane's scopes: `slots[i]` is the global slot of local
    /// scope `i`, and every emitted [`RoutedRows`] is sized to `n_slots`
    /// (the plane-wide scope count). Built by [`split_router_plane`].
    pub fn with_split_slots(
        scopes: Vec<F>,
        n_shards: usize,
        config: SplitConfig,
        slots: Vec<u32>,
        n_slots: usize,
    ) -> Self {
        assert!(n_shards >= 1);
        assert_eq!(slots.len(), scopes.len(), "one slot per scope");
        assert!(
            slots.iter().all(|&s| (s as usize) < n_slots),
            "slot out of range"
        );
        let trackers = scopes
            .iter()
            .map(|s| {
                if n_shards > 1 && config.enabled {
                    s.split_spec()
                        .map(|spec| SplitTracker::new(spec, &config, n_shards))
                } else {
                    None
                }
            })
            .collect();
        let kernels: Vec<ScanKernel> = scopes.iter().map(RowFilter::scan_kernel).collect();
        let pass = TypePass::new(&kernels);
        let counters = ScanCounters::new(n_slots);
        BatchRouter {
            scopes,
            trackers,
            kernels,
            pass,
            sel_scratch: Vec::new(),
            counters,
            n_shards,
            slots,
            n_slots,
            key_scratch: GroupKey::Global,
            vals_scratch: Vec::new(),
            runmax_scratch: Vec::new(),
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
        // running event-time maximum per chunk row, seeded from the
        // frontier: the warm-up base of any split registered at row `i`.
        // Every row routed before the registration (earlier chunks are
        // bounded by the frontier, earlier rows of this chunk by the
        // running max) went owner-only, so round-robin may only begin
        // once windows reaching back to this high-water mark expired.
        if self.trackers.iter().any(Option::is_some) {
            self.runmax_scratch.clear();
            let mut max_ms = self.frontier.millis();
            for row in lo..hi {
                max_ms = max_ms.max(batch.time(row).millis());
                self.runmax_scratch.push(max_ms);
            }
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

            // phase 2 — stateful fan-out over the survivors: key
            // construction, owner hashing, hot-group tracking, split
            // routing. Single-shard routers skip it entirely: every
            // selected row lands on shard 0.
            if self.n_shards == 1 {
                out[0].per_part[slot].extend_from_slice(&sel);
                continue;
            }
            let tracker = &mut self.trackers[pi];
            // the global (no GROUP BY) partition owner is a function of
            // the *global* slot, matching the engines' `owns_global`
            let global_owner = slot % self.n_shards;
            for &row32 in &sel {
                let row = row32 as usize;
                let i = row - lo;
                let ty = batch.ty(row);
                let attrs = batch.attrs(row);
                // cannot fail: phase 1 already established groupability
                let ok =
                    scope.read_group_key(ty, attrs, &mut self.vals_scratch, &mut self.key_scratch);
                debug_assert!(ok, "selected row must be groupable");
                if !ok {
                    continue;
                }
                let (owner, hash) = match &self.key_scratch {
                    GroupKey::Global => (global_owner, None),
                    // high hash bits, matching `ShardSlice::owns` (the
                    // low bits index the owning shard's hash-map
                    // buckets)
                    key => {
                        let h = fx_hash_one(key);
                        (((h >> 32) % self.n_shards as u64) as usize, Some(h))
                    }
                };
                let Some(tracker) = tracker else {
                    out[owner].per_part[slot].push(row as u32);
                    continue;
                };
                // split scope: route split groups, count the rest (the
                // is_empty guard keeps the common no-splits case at one
                // map probe per row — observe()'s counter update)
                let is_split = match hash {
                    Some(h) => !tracker.split.is_empty() && tracker.split.contains_key(&h),
                    None => tracker.split_global.is_some(),
                };
                if is_split {
                    tracker.observe_split();
                } else if tracker.observe(hash) {
                    // newly hot: register + announce the split, then fall
                    // through to split routing (this first row runs under
                    // the warm-up regime). The decayed count carries over
                    // so cool-down detection starts from the real level.
                    let carried = match hash {
                        Some(h) => tracker.counts.remove(&h).unwrap_or(0),
                        None => std::mem::take(&mut tracker.global_count),
                    };
                    let hot = HotGroup {
                        key: self.key_scratch.clone(),
                        active_at_ms: self.runmax_scratch[i].saturating_add(tracker.spec.warmup_ms),
                        rr_final: owner as u32,
                        rr_full: owner as u32,
                        count: carried,
                        cooling_until: None,
                    };
                    tracker.notices.push(self.key_scratch.clone());
                    match hash {
                        Some(h) => {
                            tracker.split.insert(h, hot);
                        }
                        None => tracker.split_global = Some(hot),
                    }
                } else {
                    out[owner].per_part[slot].push(row as u32);
                    continue;
                }
                let hot = match hash {
                    Some(h) => tracker.split.get_mut(&h).expect("registered above"),
                    None => tracker.split_global.as_mut().expect("registered above"),
                };
                hot.count = hot.count.saturating_add(1);
                Self::route_split_row(
                    out,
                    slot,
                    row as u32,
                    batch.time(row).millis(),
                    tracker
                        .spec
                        .final_only
                        .get(ty.index())
                        .copied()
                        .unwrap_or(false),
                    owner,
                    hot,
                    self.n_shards,
                );
            }
        }
        self.sel_scratch = sel;
        // advance the event-time frontier over the chunk's time column
        // (a plain max scan: disordered input makes no row position
        // authoritative) and stamp it onto every shard's rows — in-band
        // watermark delivery over the same rings as data and barriers
        if hi > lo {
            let mut chunk_max = self.frontier;
            for row in lo..hi {
                chunk_max = chunk_max.max(batch.time(row));
            }
            self.frontier = chunk_max;
        }
        for rows in out.iter_mut() {
            rows.frontier = self.frontier;
        }
        // deliver pending split and unsplit notices to every shard (even
        // shards that received no rows this batch — the notice itself
        // makes their RoutedRows non-empty, so they are woken). The
        // cool-down sweep runs first, clocked by the chunk's newest
        // timestamp — the frontier under disorder — so a group's unsplit
        // lands in the same batch that crossed its deadline.
        let now_ms = if hi > lo {
            Some(self.frontier.millis())
        } else {
            None
        };
        for (pi, tracker) in self.trackers.iter_mut().enumerate() {
            let Some(tracker) = tracker else { continue };
            let slot = self.slots[pi];
            if let Some(now_ms) = now_ms {
                tracker.sweep_cooldown(now_ms);
            }
            for key in tracker.notices.drain(..) {
                for rows in out.iter_mut() {
                    rows.splits.push((slot, key.clone()));
                }
            }
            for key in tracker.unsplit_notices.drain(..) {
                for rows in out.iter_mut() {
                    rows.unsplits.push((slot, key.clone()));
                }
            }
        }
    }

    /// Route one row of a split group: round-robin final-only rows
    /// (owner-pinned during warm-up **and** during cool-down), broadcast
    /// everything else with one full copy and `n − 1` state-only
    /// replicas.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn route_split_row(
        out: &mut [RoutedRows],
        slot: usize,
        row: u32,
        time_ms: u64,
        final_only: bool,
        owner: usize,
        hot: &mut HotGroup,
        n_shards: usize,
    ) {
        let active = time_ms >= hot.active_at_ms && hot.cooling_until.is_none();
        if final_only {
            let target = if active {
                let s = hot.rr_final as usize % n_shards;
                hot.rr_final = hot.rr_final.wrapping_add(1);
                s
            } else {
                owner
            };
            out[target].per_part[slot].push(row);
        } else {
            let full_target = if active {
                let s = hot.rr_full as usize % n_shards;
                hot.rr_full = hot.rr_full.wrapping_add(1);
                s
            } else {
                owner
            };
            for (shard, rows) in out.iter_mut().enumerate() {
                if shard == full_target {
                    rows.per_part[slot].push(row);
                } else {
                    rows.state_rows[slot].push(row);
                }
            }
        }
    }
}

impl<F: RowFilter> BatchRouter<F> {
    /// Serialize the hot-group trackers' state (see
    /// [`RouteBatch::save_state`]). Structural configuration — scopes,
    /// shard count, split tuning — is rebuilt from the plan on restore,
    /// not persisted.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.time(self.frontier);
        w.seq_len(self.trackers.len());
        for tracker in &self.trackers {
            match tracker {
                Some(t) => {
                    w.bool(true);
                    t.save_state(w);
                }
                None => w.bool(false),
            }
        }
    }

    /// Restore the state written by [`BatchRouter::save_state`] into a
    /// router built with the same scopes, shard count, and split
    /// configuration.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.frontier = r.time()?;
        if r.seq_len()? != self.trackers.len() {
            return Err(StateError::Corrupt("router tracker count"));
        }
        for tracker in &mut self.trackers {
            let present = r.bool()?;
            match (tracker, present) {
                (Some(t), true) => t.load_state(r)?,
                (None, false) => {}
                _ => return Err(StateError::Corrupt("router tracker presence")),
            }
        }
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

    fn split_groups(&self) -> usize {
        self.trackers
            .iter()
            .flatten()
            .map(|t| t.split.len() + usize::from(t.split_global.is_some()))
            .sum()
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
/// exactly [`BatchRouter::with_split`], so the single-router plane is
/// bit-identical to the pre-plane behaviour.
pub fn split_router_plane<F: RowFilter + Clone + Send + 'static>(
    scopes: Vec<F>,
    n_shards: usize,
    config: SplitConfig,
    n_routers: usize,
) -> Vec<Box<dyn RouteBatch>> {
    assert!(n_routers >= 1, "a routing plane needs at least one router");
    if n_routers == 1 {
        return vec![Box::new(BatchRouter::with_split(scopes, n_shards, config))];
    }
    let n_slots = scopes.len();
    let costs: Vec<f64> = scopes.iter().map(RowFilter::route_cost).collect();
    partition_scopes(&costs, n_routers)
        .into_iter()
        .map(|owned| {
            let subset: Vec<F> = owned.iter().map(|&pi| scopes[pi].clone()).collect();
            let slots: Vec<u32> = owned.iter().map(|&pi| pi as u32).collect();
            Box::new(BatchRouter::with_split_slots(
                subset, n_shards, config, slots, n_slots,
            )) as Box<dyn RouteBatch>
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

    /// Routers in the pre-splitting tests run with splitting disabled so
    /// the hash-pinned assignment is what is being asserted.
    fn pinned(parts: Vec<CompiledPartition>, n_shards: usize) -> BatchRouter {
        BatchRouter::with_split(parts, n_shards, SplitConfig::disabled())
    }

    #[test]
    fn every_row_routes_to_exactly_the_owning_shard() {
        let (c, parts) = setup();
        let n_shards = 3;
        let mut router = pinned(parts.clone(), n_shards);
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
        let mut router = pinned(parts, 2);
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
        let mut router = pinned(parts, 4);
        let routed = router.route(&EventBatch::new());
        assert!(routed.iter().all(RoutedRows::is_empty));
    }

    #[test]
    fn recycled_lists_are_reset_before_reuse() {
        let (c, parts) = setup();
        let mut router = pinned(parts, 2);
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

    /// One skewed group over a two-type pattern: the router must split it,
    /// announce it once to every shard, broadcast A rows (state) and
    /// round-robin B rows (final) after the warm-up window.
    #[test]
    fn hot_group_is_split_announced_and_round_robined() {
        let mut c = Catalog::new();
        for n in ["A", "B"] {
            c.register_with_schema(n, Schema::new(["g"]));
        }
        let w = parse_workload(
            &mut c,
            ["RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY g WITHIN 10 ms SLIDE 2 ms"],
        )
        .unwrap();
        let parts = compile(&c, &w, &SharingPlan::non_shared()).unwrap();
        let spec = parts[0].split_spec();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        assert!(!spec.final_only[a.index()], "A opens state: broadcast");
        assert!(spec.final_only[b.index()], "B only folds finals: split");

        let n_shards = 4;
        let mut router = BatchRouter::with_split(parts, n_shards, SplitConfig::eager(8));
        // every row belongs to group 7 — maximal skew
        let mut batch = EventBatch::new();
        let n_rows = 400u64;
        for i in 0..n_rows {
            batch.push_from(
                if i % 2 == 0 { a } else { b },
                Timestamp(i),
                [Value::Int(7)],
            );
        }
        let routed = router.route(&batch);
        assert_eq!(router.split_groups(), 1, "the one hot group split");

        // the split was announced to every shard exactly once
        for rows in &routed {
            assert_eq!(rows.splits.len(), 1);
            assert_eq!(rows.splits[0].0, 0);
            assert_eq!(rows.splits[0].1, GroupKey::One(Value::Int(7)));
        }

        // full + state copies per row: every A row after the split has one
        // full copy and n-1 state replicas; every B row exactly one full
        // copy and no replicas
        let mut full = vec![0u32; batch.len()];
        let mut state = vec![0u32; batch.len()];
        for rows in &routed {
            for &r in &rows.per_part[0] {
                full[r as usize] += 1;
            }
            for &r in &rows.state_rows[0] {
                state[r as usize] += 1;
            }
        }
        let mut post_warmup_b_shards = std::collections::BTreeSet::new();
        for (i, (&f, &s)) in full.iter().zip(&state).enumerate() {
            assert_eq!(f, 1, "row {i}: exactly one full copy");
            if i % 2 == 0 {
                // A rows after the split broadcast (before it, they are
                // owner-only with no replicas)
                assert!(s == 0 || s == (n_shards - 1) as u32, "row {i}");
            } else {
                assert_eq!(s, 0, "row {i}: final-only rows are never replicated");
                if (i as u64) >= 10 + 8 {
                    // comfortably past warm-up (within=10ms after the
                    // split decision around row ~8)
                    for (shard, rows) in routed.iter().enumerate() {
                        if rows.per_part[0].contains(&(i as u32)) {
                            post_warmup_b_shards.insert(shard);
                        }
                    }
                }
            }
        }
        assert_eq!(
            post_warmup_b_shards.len(),
            n_shards,
            "post-warm-up final rows round-robin over all shards"
        );

        // a second batch re-announces nothing
        let mut batch2 = EventBatch::new();
        batch2.push_from(b, Timestamp(n_rows), [Value::Int(7)]);
        let routed2 = router.route(&batch2);
        assert!(routed2.iter().all(|r| r.splits.is_empty()));
    }

    /// Scopes without a split spec (the baselines' filters) never split,
    /// no matter how skewed the traffic.
    #[test]
    fn scopes_without_spec_stay_pinned() {
        struct NoSpec;
        impl RowFilter for NoSpec {
            fn read_group_key(
                &self,
                _ty: EventTypeId,
                attrs: &[Value],
                vals: &mut Vec<Value>,
                key: &mut GroupKey,
            ) -> bool {
                vals.clear();
                vals.push(attrs[0].clone());
                key.assign_from_slice(vals);
                true
            }
            fn scan_kernel(&self) -> ScanKernel {
                // type 0 routes, grouped by its first attribute
                ScanKernel::new(vec![true], &[Box::new([sharon_types::AttrId(0)])], &[])
            }
        }
        let mut router = BatchRouter::with_split(vec![NoSpec], 4, SplitConfig::eager(4));
        let mut batch = EventBatch::new();
        for i in 0..200u64 {
            batch.push_from(EventTypeId(0), Timestamp(i), [Value::Int(1)]);
        }
        let routed = router.route(&batch);
        assert_eq!(router.split_groups(), 0);
        let with_rows = routed.iter().filter(|r| !r.per_part[0].is_empty()).count();
        assert_eq!(with_rows, 1, "the skewed group stays on its hash owner");
        assert!(routed.iter().all(|r| r.splits.is_empty()));
        assert!(routed.iter().all(|r| r.state_rows[0].is_empty()));
    }

    /// Shared setup of the cool-down tests: one scope over `SEQ(A, B)
    /// GROUP BY g` (within 10 ms) and an eager 4-shard router.
    fn split_setup() -> (Catalog, BatchRouter, EventTypeId, EventTypeId) {
        let mut c = Catalog::new();
        for n in ["A", "B"] {
            c.register_with_schema(n, Schema::new(["g"]));
        }
        let w = parse_workload(
            &mut c,
            ["RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY g WITHIN 10 ms SLIDE 2 ms"],
        )
        .unwrap();
        let parts = compile(&c, &w, &SharingPlan::non_shared()).unwrap();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let router = BatchRouter::with_split(parts, 4, SplitConfig::eager(8));
        (c, router, a, b)
    }

    #[test]
    fn cold_split_group_cools_down_and_unsplits() {
        let (_c, mut router, a, b) = split_setup();
        let hot_key = GroupKey::One(Value::Int(7));

        // phase 1: maximal skew on group 7 until it splits
        let mut batch = EventBatch::new();
        for i in 0..40u64 {
            batch.push_from(
                if i % 2 == 0 { a } else { b },
                Timestamp(i),
                [Value::Int(7)],
            );
        }
        router.route(&batch);
        assert_eq!(router.split_groups(), 1);

        // phase 2: group 7 goes quiet while traffic spreads over many
        // other groups. Its decayed share collapses, cool-down re-pins
        // its finals to the owner, and one warm-up window past the cold
        // decision the unsplit notice reaches every shard.
        let mut t = 40u64;
        let mut saw_unsplit = false;
        for _ in 0..40 {
            let mut batch = EventBatch::new();
            for i in 0..64u64 {
                t += 1;
                batch.push_from(
                    if i % 2 == 0 { a } else { b },
                    Timestamp(t),
                    [Value::Int((i % 13) as i64 + 100)],
                );
            }
            let routed = router.route(&batch);
            if routed
                .iter()
                .any(|r| r.unsplits.iter().any(|(pi, k)| *pi == 0 && *k == hot_key))
            {
                // the notice reaches every shard in the same batch
                assert!(routed
                    .iter()
                    .all(|r| r.unsplits.contains(&(0, hot_key.clone()))));
                saw_unsplit = true;
                break;
            }
        }
        assert!(saw_unsplit, "a cold split group must unsplit");
        assert_eq!(router.split_groups(), 0);

        // post-unsplit rows of group 7 hash-pin to exactly one shard with
        // no replicas — the split machinery is fully dismantled
        let mut batch = EventBatch::new();
        t += 1;
        batch.push_from(b, Timestamp(t), [Value::Int(7)]);
        let routed = router.route(&batch);
        let with_rows = routed.iter().filter(|r| !r.per_part[0].is_empty()).count();
        assert_eq!(with_rows, 1);
        assert!(routed.iter().all(|r| r.state_rows[0].is_empty()));
        assert!(routed.iter().all(|r| r.unsplits.is_empty()));
    }

    #[test]
    fn router_state_round_trips() {
        let (_c, mut router, a, b) = split_setup();
        let mut batch = EventBatch::new();
        for i in 0..400u64 {
            batch.push_from(
                if i % 2 == 0 { a } else { b },
                Timestamp(i),
                [Value::Int(7)],
            );
        }
        router.route(&batch);
        assert_eq!(router.split_groups(), 1);

        let mut sw = StateWriter::new();
        router.save_state(&mut sw);
        let bytes = sw.into_bytes();

        let (_c2, mut restored, _, _) = split_setup();
        let mut sr = StateReader::new(&bytes);
        restored.load_state(&mut sr).unwrap();
        assert!(sr.is_exhausted(), "router state fully consumed");
        assert_eq!(restored.split_groups(), 1);

        // the restored router makes byte-identical routing decisions —
        // split membership, round-robin cursors, and decayed counters all
        // carried over
        let mut batch2 = EventBatch::new();
        for i in 400..600u64 {
            batch2.push_from(
                if i % 2 == 0 { a } else { b },
                Timestamp(i),
                [Value::Int(7)],
            );
        }
        let want = router.route(&batch2);
        let got = restored.route(&batch2);
        assert_eq!(want.len(), got.len());
        for (w_rows, g_rows) in want.iter().zip(&got) {
            assert_eq!(w_rows.per_part, g_rows.per_part);
            assert_eq!(w_rows.state_rows, g_rows.state_rows);
            assert_eq!(w_rows.splits, g_rows.splits);
            assert_eq!(w_rows.unsplits, g_rows.unsplits);
        }
    }

    /// A split group whose traffic merely dips briefly re-heats during
    /// cooling and keeps its replicas — no unsplit notice, no warm-up
    /// penalty.
    #[test]
    fn reheat_during_cooling_cancels_the_hand_off() {
        let (_c, mut router, a, b) = split_setup();

        let mut t = 0u64;
        let skew = |router: &mut BatchRouter, t: &mut u64, n: u64, group: i64| {
            let mut batch = EventBatch::new();
            for i in 0..n {
                *t += 1;
                batch.push_from(
                    if i % 2 == 0 { a } else { b },
                    Timestamp(*t),
                    [Value::Int(group)],
                );
            }
            router.route(&batch)
        };
        skew(&mut router, &mut t, 40, 7);
        assert_eq!(router.split_groups(), 1);
        // a lull big enough to push group 7 below the cold threshold in
        // one batch — cooling starts at this batch's sweep, with the
        // deadline one warm-up window out
        {
            let mut batch = EventBatch::new();
            for i in 0..300u64 {
                t += 1;
                batch.push_from(
                    if i % 2 == 0 { a } else { b },
                    Timestamp(t),
                    [Value::Int((i % 13) as i64 + 100)],
                );
            }
            router.route(&batch);
        }
        assert_eq!(router.split_groups(), 1, "cooling group is still split");
        // group 7 storms back before (or even after) the deadline: the
        // re-heat check runs first, so the hand-off is cancelled and the
        // replicas — still warm, state rows kept broadcasting — carry on
        let routed = skew(&mut router, &mut t, 200, 7);
        assert_eq!(router.split_groups(), 1, "re-heated group stays split");
        assert!(routed.iter().all(|r| r.unsplits.is_empty()));
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
        let mut single = pinned(parts.clone(), n_shards);
        let want = single.route(&b);
        for n_routers in [2usize, 4] {
            let mut plane =
                split_router_plane(parts.clone(), n_shards, SplitConfig::disabled(), n_routers);
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

    /// The decayed counter forgets old traffic: a group that was briefly
    /// busy long ago does not split on residual counts.
    #[test]
    fn counters_decay() {
        let spec = SplitSpec {
            final_only: vec![true],
            warmup_ms: 10,
        };
        let mut tracker = SplitTracker::new(
            spec,
            &SplitConfig {
                enabled: true,
                min_rows: 100,
                hot_fraction: 0.5,
                decay_period: 16,
            },
            2,
        );
        for _ in 0..15 {
            assert!(!tracker.observe(Some(42)));
        }
        let before = *tracker.counts.get(&42).unwrap();
        tracker.observe(Some(42)); // triggers decay
        let after = *tracker.counts.get(&42).unwrap();
        assert!(after <= before / 2 + 1, "decay halves the counter");
        assert!(tracker.total <= 8);
    }
}
