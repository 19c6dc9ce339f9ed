//! The Sharon runtime executor.
//!
//! One [`Engine`] evaluates one compiled partition (queries with identical
//! predicates, grouping, window, and aggregate — assumption (2) / §7.2).
//! Per `GROUP BY` partition it maintains one flat block (README, "Group
//! state"):
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
//! records and trimming logs are paid once per group and slide.

use crate::agg::{Aggregate, Contribution, CountCell, StatsCell};
use crate::chainlog::ChainLog;
use crate::checkpoint::{StateError, StateReader, StateWriter};
use crate::compile::{compile, CompileError, CompiledPartition, Routes};
use crate::event_time::Reorder;
use crate::results::ExecutorResults;
use crate::router::RoutedRows;
use crate::runner::SegmentRunner;
use crate::scan::{ScanKernel, TypePass};
use crate::sharded::{ShardProcessor, ShardReport};
use crate::spill::{SpillConfig, SpillStore};
use crate::winvec::WindowPlane;
use sharon_query::{SharingPlan, Workload};
use sharon_types::{
    fx_hash_one, Catalog, EventBatch, EventTypeId, FxHashMap, GroupKey, Timestamp, Value,
};

/// Per-group runtime state: one block laid out by the compiled partition.
struct GroupRuntime<A> {
    /// Recency stamp from the engine's access clock, read by the spill
    /// tier's eviction sweep (not persisted — recency is run-local).
    last_use: u64,
    /// This group's id in the engine's result log (not persisted: a
    /// restored or paged-in group re-interns).
    result_id: ResultId,
    /// Column `q` is query `q`'s final accumulator; the rest mirror chain
    /// logs (`CompiledPartition::mirror_col`). Its first open window is
    /// the group's close watermark.
    plane: WindowPlane<A>,
    runners: Box<[SegmentRunner<A>]>,
    /// Log `queries[q].chain_base + stage` records `R_stage` of query `q`
    /// (stages `0 .. n_stages − 1`).
    chains: Box<[ChainLog<A>]>,
}

/// Where an engine's closing windows go.
struct Output {
    /// Final values: the result log, handed out by move at
    /// [`Engine::take_results`] / [`Engine::finish`].
    results: ExecutorResults,
    /// Result epoch: bumped whenever `results` is handed away (see
    /// [`ResultId`]).
    epoch: u64,
}

/// A group's id in its engine's result log, valid for one result epoch:
/// [`Engine::take_results`] hands the log and its key table away and
/// bumps the epoch, so a group interns again on its next emission — once
/// per epoch, not once per result.
#[derive(Clone, Copy, Default)]
struct ResultId {
    gid: u32,
    /// Epoch `gid` was handed out in (engine epochs start at 1).
    epoch: u64,
}

impl ResultId {
    #[inline]
    fn resolve(&mut self, epoch: u64, key: &GroupKey, results: &mut ExecutorResults) -> u32 {
        if self.epoch != epoch {
            self.gid = results.add_group(key.clone());
            self.epoch = epoch;
        }
        self.gid
    }
}

impl<A: Aggregate> GroupRuntime<A> {
    fn new(part: &CompiledPartition) -> Self {
        GroupRuntime {
            last_use: 0,
            result_id: ResultId::default(),
            plane: WindowPlane::new(part.window.max_open(), part.n_cols),
            runners: part
                .runners
                .iter()
                .map(|r| SegmentRunner::new(r.len, r.start_subs.len()))
                .collect(),
            chains: part.mirror_col.iter().map(|_| ChainLog::new()).collect(),
        }
    }

    /// Serialize this group's full evaluation state. The layout is shared
    /// by the spill tier (paging cold groups to disk) and the checkpoint
    /// segments (which embed spilled groups' bytes verbatim) — one format,
    /// so spilled state checkpoints without a decode/re-encode cycle.
    fn save_state(&self, w: &mut StateWriter) {
        self.plane.save_state(w);
        w.seq_len(self.runners.len());
        for r in self.runners.iter() {
            r.save_state(w);
        }
        w.seq_len(self.chains.len());
        for log in self.chains.iter() {
            log.save_state(w);
        }
    }

    /// Decode a group written by [`GroupRuntime::save_state`], checking
    /// every dimension against the compiled partition the state claims to
    /// belong to.
    fn load_state(r: &mut StateReader<'_>, part: &CompiledPartition) -> Result<Self, StateError> {
        let plane = WindowPlane::load_state(r, part.window.max_open(), part.n_cols)?;
        if r.seq_len()? != part.runners.len() {
            return Err(StateError::Corrupt("group runner count"));
        }
        let runners = part
            .runners
            .iter()
            .map(|spec| SegmentRunner::load_state(r, spec.len, spec.start_subs.len()))
            .collect::<Result<_, _>>()?;
        if r.seq_len()? != part.mirror_col.len() {
            return Err(StateError::Corrupt("group chain-log count"));
        }
        let chains = part
            .mirror_col
            .iter()
            .map(|_| ChainLog::load_state(r))
            .collect::<Result<_, _>>()?;
        Ok(GroupRuntime {
            last_use: 0,
            result_id: ResultId::default(),
            plane,
            runners,
            chains,
        })
    }

    /// Live aggregate cells (memory proxy): the cells and offsets of live
    /// runner records, chain-log entries, non-zero cells of open windows.
    fn cell_count(&self) -> usize {
        self.plane.live_cells()
            + self
                .runners
                .iter()
                .map(SegmentRunner::cell_count)
                .sum::<usize>()
            + self.chains.iter().map(ChainLog::len).sum::<usize>()
    }
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

/// The slice of the group space one engine owns under sharded execution.
///
/// Groups are hash-partitioned: an engine with slice `(index, of)` owns the
/// groups whose [`fx_hash_one`] lands on `index` modulo `of` in its *high*
/// 32 bits, plus — when `owns_global` — the single [`GroupKey::Global`]
/// partition. Since groups never interact (Definition 2: one result per
/// group per window), engines over disjoint slices produce disjoint,
/// exactly mergeable results.
///
/// Routing deliberately uses different hash bits than the per-shard
/// `FxHashMap` bucket index (which is derived from the low bits of the
/// same hash): were both taken from the low bits, every key a shard owns
/// would be congruent to its index mod `of`, and with power-of-two shard
/// counts the shard's map would home-hash into only `1/of` of its buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSlice {
    /// This engine's shard index in `0..of`.
    pub index: u32,
    /// Total number of shards.
    pub of: u32,
    /// Whether this engine owns the global (no `GROUP BY`) partition.
    pub owns_global: bool,
}

impl ShardSlice {
    /// True if `key` belongs to this slice.
    #[inline]
    pub fn owns(&self, key: &GroupKey) -> bool {
        match key {
            GroupKey::Global => self.owns_global,
            key => ((fx_hash_one(key) >> 32) % self.of as u64) as u32 == self.index,
        }
    }
}

/// One engine's spill tier: the append-only store plus the resident
/// budget (see [`crate::spill`]).
struct SpillTier {
    store: SpillStore,
    max_resident: usize,
}

/// An executor for one compiled partition, generic over the aggregate
/// kernel.
pub struct Engine<A: Aggregate> {
    part: CompiledPartition,
    groups: FxHashMap<GroupKey, GroupRuntime<A>>,
    out: Output,
    scratch: FoldScratch<A>,
    /// Reused per-event key storage — the hot path never allocates a
    /// fresh key; cloning happens only on first sight of a group.
    key_scratch: GroupKey,
    /// Reused buffer for the grouping attributes of the current event.
    vals_scratch: Vec<Value>,
    /// Reused row-selection buffer of the scan.
    sel_scratch: Vec<u32>,
    /// Group-space slice owned by this engine (`None` = everything).
    shard: Option<ShardSlice>,
    /// Paging tier for cold groups (`None` = everything stays resident;
    /// the disabled hot path pays exactly one branch).
    spill: Option<SpillTier>,
    /// Monotone access clock stamping [`GroupRuntime::last_use`].
    clock: u64,
    last_time: Timestamp,
    events_matched: u64,
    /// Event-time reorder gate (`None` = arrival order is event-time
    /// order, the historical contract; the disabled hot path pays one
    /// branch, and boxing keeps it one word). When set, rows buffer
    /// behind the watermark `max_time_seen − lateness` and release in
    /// event-time order; rows behind the watermark are dropped and
    /// counted.
    reorder: Option<Box<Reorder>>,
    /// Compiled scan kernel selecting the rows of
    /// [`Engine::process_columnar`].
    scan: ScanKernel,
    /// Rows examined by this engine's scan.
    rows_scanned: u64,
    /// Rows that survived routing + predicates + groupability.
    rows_selected: u64,
}

impl<A: Aggregate> Engine<A> {
    /// Build an engine from a compiled partition.
    pub fn new(part: CompiledPartition) -> Self {
        let scan = part.scan_kernel();
        Engine {
            part,
            groups: FxHashMap::default(),
            out: Output {
                results: ExecutorResults::new(),
                epoch: 1,
            },
            scratch: FoldScratch::new(),
            key_scratch: GroupKey::Global,
            vals_scratch: Vec::new(),
            sel_scratch: Vec::new(),
            shard: None,
            spill: None,
            clock: 0,
            last_time: Timestamp::ZERO,
            events_matched: 0,
            reorder: None,
            scan,
            rows_scanned: 0,
            rows_selected: 0,
        }
    }

    /// Enable event-time processing with the given allowed lateness (in
    /// milliseconds): rows buffer in the reorder gate and release in
    /// event-time order once the watermark `max_time_seen − lateness`
    /// passes them; rows arriving behind the watermark are dropped and
    /// counted ([`sharon_metrics::late_rows_dropped`]). Exact whenever
    /// `lateness` covers the stream's disorder bound.
    pub fn set_lateness(&mut self, lateness_ms: u64) {
        self.reorder = Some(Box::new(Reorder::new(lateness_ms)));
    }

    /// Late rows this engine dropped (0 when no gate is configured).
    pub fn late_rows_dropped(&self) -> u64 {
        self.reorder.as_ref().map_or(0, |g| g.late_rows_dropped())
    }

    /// The engine's current watermark (`None` when no gate is configured).
    pub fn watermark(&self) -> Option<Timestamp> {
        self.reorder.as_ref().map(|g| g.watermark())
    }

    /// Enable the LRU spill tier: at most `config.max_resident` groups
    /// stay in memory; colder groups page out to `spill-<label>.log`
    /// under `config.dir` and reload transparently on next access.
    pub fn set_spill(&mut self, config: &SpillConfig, label: &str) -> std::io::Result<()> {
        self.spill = Some(SpillTier {
            store: SpillStore::create(&config.dir, label)?,
            max_resident: config.max_resident,
        });
        Ok(())
    }

    /// Build an engine that only processes the groups in `slice`
    /// (see [`ShardSlice`]). Such an engine is fed only through
    /// [`Engine::process_routed`]: the batch router has already selected
    /// its rows.
    pub fn with_shard(part: CompiledPartition, slice: ShardSlice) -> Self {
        let mut engine = Self::new(part);
        engine.shard = Some(slice);
        engine
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

    /// The entry of a batch's selected `rows`: straight to the in-order
    /// row path, or — with an event-time gate configured — through the
    /// gate in one call that admits them (dropping and counting late
    /// ones), advances its watermark to `frontier − lateness` and
    /// releases every row the watermark passed, in event-time order,
    /// while `batch` is alive to lend their attributes. Only rows the scan
    /// or the batch router selected get here, so an unrouted row is never
    /// admitted or counted.
    #[inline]
    fn process_rows(&mut self, batch: &EventBatch, rows: &[u32], frontier: Timestamp) {
        let Some(mut gate) = self.reorder.take() else {
            for &row in rows {
                let row = row as usize;
                self.process_row(batch.ty(row), batch.time(row), batch.attrs(row));
            }
            return;
        };
        gate.process(batch, [rows], frontier, |ty, time, attrs, _| {
            self.process_row(ty, time, attrs)
        });
        self.reorder = Some(gate);
    }

    /// End-of-stream: open the gate and release everything still
    /// buffered. Idempotent, and a no-op on arrival-time engines;
    /// [`Engine::finish`] calls it, but callers that read pre-finish stats
    /// ([`Engine::events_matched`], [`Engine::cell_count`]) must call it
    /// first — buffered rows still count toward both.
    pub fn flush_pending(&mut self) {
        if let Some(mut gate) = self.reorder.take() {
            gate.flush(|ty, time, attrs, _| self.process_row(ty, time, attrs));
            self.reorder = Some(gate);
        }
    }

    /// The shared in-order row path of every entry point. Every row here
    /// was selected by the scan kernel or the sharded batch router:
    /// routing, this partition's predicates, groupability and shard
    /// ownership are already established.
    #[inline]
    fn process_row(&mut self, ty: EventTypeId, time: Timestamp, attrs: &[Value]) {
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
        debug_assert!(
            self.shard.is_none_or(|slice| slice.owns(&self.key_scratch)),
            "router misrouted a group"
        );
        self.events_matched += 1;

        // one probe per row: the hit path is a single `get_mut`; only the
        // first sight of a group pays the insert and a second probe.
        // `key_scratch.clone()` (the only remaining allocation) happens
        // exactly once per distinct group.
        let grt = match self.groups.get_mut(&self.key_scratch) {
            Some(grt) => grt,
            None => {
                // a "new" group may in fact be paged out — the spill
                // tier's reload path (cold, never taken when spilling is
                // off) brings it back before any fresh state is created
                let reloaded = match &mut self.spill {
                    Some(tier) => Self::reload_spilled(tier, &self.part, &self.key_scratch),
                    None => None,
                };
                let grt = reloaded.unwrap_or_else(|| GroupRuntime::new(&self.part));
                self.groups.insert(self.key_scratch.clone(), grt);
                if let Some(tier) = &mut self.spill {
                    if self.groups.len() > tier.max_resident {
                        Self::evict_coldest(tier, &mut self.groups, &self.key_scratch);
                    }
                }
                self.groups
                    .get_mut(&self.key_scratch)
                    .expect("group present after insert")
            }
        };
        self.clock += 1;
        grt.last_use = self.clock;

        Self::touch(grt, &self.part, time, &mut self.out, &self.key_scratch);

        let c = Self::contribution(&self.part, ty, attrs);
        Self::dispatch(grt, &self.part, routes, time, c, &mut self.scratch);
    }

    /// Page `key` back in from the spill log, or `None` if it was never
    /// spilled. Cold path: taken at most once per group per residency.
    #[cold]
    fn reload_spilled(
        tier: &mut SpillTier,
        part: &CompiledPartition,
        key: &GroupKey,
    ) -> Option<GroupRuntime<A>> {
        let bytes = tier
            .store
            .take(key)
            .unwrap_or_else(|e| panic!("spill read failed: {e}"))?;
        let mut r = StateReader::new(&bytes);
        let grt = GroupRuntime::load_state(&mut r, part)
            .unwrap_or_else(|e| panic!("spilled group state corrupt: {e}"));
        Some(grt)
    }

    /// Page out the coldest quarter of the resident groups (by
    /// [`GroupRuntime::last_use`]), so one eviction sweep buys
    /// `max_resident / 4` insertions before the budget binds again. The
    /// group that triggered the sweep stays.
    #[cold]
    fn evict_coldest(
        tier: &mut SpillTier,
        groups: &mut FxHashMap<GroupKey, GroupRuntime<A>>,
        keep: &GroupKey,
    ) {
        let n_evict = (tier.max_resident / 4).max(1);
        let mut order: Vec<(u64, GroupKey)> = groups
            .iter()
            .filter(|(k, _)| *k != keep)
            .map(|(k, g)| (g.last_use, k.clone()))
            .collect();
        order.sort_unstable_by_key(|a| a.0);
        order.truncate(n_evict);
        for (_, key) in order {
            let grt = groups.remove(&key).expect("key taken from live iteration");
            let mut w = StateWriter::new();
            grt.save_state(&mut w);
            tier.store
                .spill(key, &w.into_bytes())
                .unwrap_or_else(|e| panic!("spill write failed: {e}"));
        }
    }

    /// Close every window of one group before `close_seq`, oldest first,
    /// into the result log; zero finals are not results.
    fn close_windows(
        part: &CompiledPartition,
        key: &GroupKey,
        grt: &mut GroupRuntime<A>,
        out: &mut Output,
        close_seq: u64,
    ) {
        let GroupRuntime {
            result_id, plane, ..
        } = grt;
        let slide = part.window.slide.millis();
        plane.close_before(close_seq, |seq, cells| {
            let window = Timestamp(seq * slide);
            for (v, q) in cells.iter().zip(&part.queries) {
                if v.is_zero() {
                    continue;
                }
                let gid = result_id.resolve(out.epoch, key, &mut out.results);
                out.results
                    .emit_interned(q.id, gid, window, v.output(q.output));
            }
        });
    }

    /// Drain every remaining window of one group — the shared tail of
    /// [`Engine::finish`] for resident and spilled groups. The group is
    /// dropped afterwards.
    fn drain_group(
        part: &CompiledPartition,
        key: &GroupKey,
        grt: &mut GroupRuntime<A>,
        out: &mut Output,
    ) {
        Self::close_windows(part, key, grt, out, u64::MAX);
    }

    /// Serialize this engine's full evaluation state into a checkpoint
    /// segment. Spilled groups are embedded **verbatim** — their on-disk
    /// bytes already use the per-group layout — so checkpointing under
    /// spill pressure reads the log sequentially instead of paging cold
    /// groups back through the engine.
    pub fn save_state(&mut self, w: &mut StateWriter) {
        w.time(self.last_time);
        w.u64(self.events_matched);
        self.out.results.save_state(w);
        let spilled = self.spill.as_ref().map_or(0, |t| t.store.len());
        w.seq_len(self.groups.len() + spilled);
        for (key, grt) in &self.groups {
            w.group_key(key);
            let mut gw = StateWriter::new();
            grt.save_state(&mut gw);
            w.bytes(&gw.into_bytes());
        }
        if let Some(tier) = &mut self.spill {
            tier.store
                .for_each(|key, bytes| {
                    w.group_key(key);
                    w.bytes(bytes);
                })
                .unwrap_or_else(|e| panic!("spill read during checkpoint failed: {e}"));
        }
        // event-time state: watermark + pending (not-yet-released) rows,
        // so a resume under disorder is crash-exact
        w.bool(self.reorder.is_some());
        if let Some(gate) = &mut self.reorder {
            gate.save_state(w);
        }
    }

    /// Restore the state written by [`Engine::save_state`] into a freshly
    /// built engine for the **same** compiled partition and shard slice.
    /// With a spill tier configured, groups beyond the resident budget go
    /// straight back to the spill log without being decoded.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        self.last_time = r.time()?;
        self.events_matched = r.u64()?;
        self.out.results = ExecutorResults::load_state(r)?;
        let n_groups = r.seq_len()?;
        self.groups.clear();
        for _ in 0..n_groups {
            let key = r.group_key()?;
            let bytes = r.bytes()?;
            let budget = self.spill.as_ref().map_or(usize::MAX, |t| t.max_resident);
            if self.groups.len() < budget {
                let mut gr = StateReader::new(bytes);
                let mut grt = GroupRuntime::load_state(&mut gr, &self.part)?;
                if !gr.is_exhausted() {
                    return Err(StateError::Corrupt("trailing group state bytes"));
                }
                self.clock += 1;
                grt.last_use = self.clock;
                self.groups.insert(key, grt);
            } else {
                let tier = self.spill.as_mut().expect("finite budget implies a tier");
                tier.store
                    .spill(key, bytes)
                    .map_err(|_| StateError::Corrupt("spill write during restore"))?;
            }
        }
        // a lateness mismatch between the checkpoint and the rebuilt
        // engine would silently change which rows count as late — refuse
        // both directions rather than guess
        let had_gate = r.bool()?;
        match (&mut self.reorder, had_gate) {
            (Some(gate), true) => gate.load_state(r)?,
            (None, false) => {}
            (Some(_), false) => {
                return Err(StateError::Corrupt(
                    "checkpoint has no event-time state but lateness is configured",
                ));
            }
            (None, true) => {
                return Err(StateError::Corrupt(
                    "checkpoint has event-time state but no lateness is configured",
                ));
            }
        }
        Ok(())
    }

    /// Number of groups currently paged out to the spill log.
    pub fn spilled_group_count(&self) -> usize {
        self.spill.as_ref().map_or(0, |t| t.store.len())
    }

    /// Process a time-ordered columnar batch — the one way rows enter an
    /// unsharded engine — in two passes: the compiled [`ScanKernel`]
    /// selects from `pass` (the owner's [`TypePass`], built over all of
    /// `batch`'s rows and covering this engine's kernel) by routing and
    /// groupability, then evaluates predicates over the value columns into
    /// a reused selection buffer; a **stateful pass** dispatches only the
    /// selected rows into per-group state. The scan touches no group
    /// state, and the stateful pass never re-evaluates what the scan
    /// established.
    pub(crate) fn process_columnar(&mut self, batch: &EventBatch, pass: &TypePass) {
        debug_assert!(
            self.shard.is_none(),
            "shard engines are fed through process_routed"
        );
        let mut sel = std::mem::take(&mut self.sel_scratch);
        sel.clear();
        self.scan.select_from(pass, batch, &mut sel);
        let selected = sel.len() as u64;
        self.rows_scanned += batch.len() as u64;
        self.rows_selected += selected;
        sharon_metrics::record_rows_scanned(batch.len() as u64);
        sharon_metrics::record_rows_selected(selected);
        // event-time mode: the batch's time-column max (tracked on append
        // by `EventBatch::push_from`) is this engine's frontier
        let frontier = batch.max_time().unwrap_or(Timestamp::ZERO);
        self.process_rows(batch, &sel, frontier);
        self.sel_scratch = sel;
    }

    /// Process the pre-routed rows `rows` of `batch`, in order, with the
    /// event-time gate (if any) advancing to `frontier` — the router's
    /// merged cross-shard frontier stamped on the chunk.
    ///
    /// The caller asserts that every listed row routes into this
    /// partition, passes its predicates, and belongs to a group this
    /// engine owns — the sharded runtime's batch router establishes
    /// exactly this once per batch, so shard workers never re-evaluate
    /// the stateless prefix for rows they do not own.
    pub fn process_routed(&mut self, batch: &EventBatch, rows: &[u32], frontier: Timestamp) {
        self.process_rows(batch, rows, frontier);
    }

    /// Pre-size the result store for about `additional` further results
    /// per query, so steady-state window emission does not reallocate.
    pub fn reserve_results(&mut self, additional: usize) {
        self.out
            .results
            .reserve(additional * self.part.queries.len());
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
        out: &mut Output,
        key: &GroupKey,
    ) {
        grt.plane.settle(now);
        let spec = part.window;
        // the oldest open window ends at `first_seq × slide + within`
        if now.millis() >= grt.plane.first_seq() * spec.slide.millis() + spec.within.millis() {
            Self::slide_group(grt, part, now, out, key);
        }
    }

    /// The per-slide maintenance of one group: close the windows that
    /// ended by `now`, expire the records no open window can hold, and
    /// drop the chain-log entries that only fed closed windows.
    fn slide_group(
        grt: &mut GroupRuntime<A>,
        part: &CompiledPartition,
        now: Timestamp,
        out: &mut Output,
        key: &GroupKey,
    ) {
        let spec = part.window;
        let close_seq = spec.first_start_covering(now).millis() / spec.slide.millis();
        Self::close_windows(part, key, grt, out, close_seq);
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
                let col = part.mirror_col[part.queries[q].chain_base + stage - 1]
                    .expect("a unit stage's predecessor is mirrored");
                let read = (min_seq..=last_seq).map(|seq| plane.get(col, seq).cross(&delta));
                scratch.totals.extend(read);
            }
            Self::fold_totals(part, plane, chains, *sub, t, min_seq, &scratch.totals);
        }
    }

    /// Flush all remaining windows and return the results.
    pub fn finish(mut self) -> ExecutorResults {
        // end of stream: release every row still buffered in the
        // event-time gate before any window is force-closed
        self.flush_pending();
        // spilled groups first, decoded and drained one at a time — the
        // end of a spilling run never re-materializes the whole group map
        if let Some(mut tier) = self.spill.take() {
            let spilled = tier
                .store
                .drain_all()
                .unwrap_or_else(|e| panic!("spill read at finish failed: {e}"));
            for (key, bytes) in spilled {
                let mut r = StateReader::new(&bytes);
                let mut grt = GroupRuntime::load_state(&mut r, &self.part)
                    .unwrap_or_else(|e| panic!("spilled group state corrupt: {e}"));
                Self::drain_group(&self.part, &key, &mut grt, &mut self.out);
            }
        }
        for (key, grt) in self.groups.iter_mut() {
            Self::drain_group(&self.part, key, grt, &mut self.out);
        }
        self.out.results
    }

    /// Take the results emitted so far, leaving the store empty. Windows
    /// still open keep their state and appear in a later take or at
    /// [`Engine::finish`] — this is the non-consuming epoch drain used by
    /// the session layer's `drain_results`.
    pub fn take_results(&mut self) -> ExecutorResults {
        // the log leaves with its key table: ids handed out so far die
        self.out.epoch += 1;
        std::mem::take(&mut self.out.results)
    }

    /// Events that passed routing, predicates, and grouping.
    pub fn events_matched(&self) -> u64 {
        self.events_matched
    }

    /// `(rows_scanned, rows_selected)` of this engine's scan (zero on
    /// shard engines, whose rows the batch router selects).
    pub fn scan_stats(&self) -> (u64, u64) {
        (self.rows_scanned, self.rows_selected)
    }

    /// The compiled scan kernel selecting this engine's rows.
    pub(crate) fn scan_kernel(&self) -> &ScanKernel {
        &self.scan
    }

    /// Live aggregate cells across all groups (memory proxy).
    pub fn cell_count(&self) -> usize {
        self.groups.values().map(GroupRuntime::cell_count).sum()
    }

    /// Number of groups with live state.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }
}

/// The public executor: compiles a workload + plan into one engine per
/// sharing-signature partition and fans every event out to them.
///
/// With [`SharingPlan::non_shared`] this *is* the Non-Shared method
/// (A-Seq per query, Section 3.2); with an optimizer-produced plan it is
/// the Sharon executor (Section 3.3).
///
/// The same type is the sharded runtime's online shard worker (its
/// [`ShardProcessor`] impl): there its engines own one [`ShardSlice`] each
/// and take the router's row lists instead of scanning.
pub struct Executor {
    /// One engine per partition, in partition order.
    pub(crate) engines: Vec<EngineKind>,
    /// The type pass every engine's scan selects from, built once per
    /// batch and covering all engines' routed types (unused by a shard
    /// worker).
    pass: TypePass,
}

/// One partition engine, monomorphized on its aggregate kernel.
pub enum EngineKind {
    /// `COUNT(*)` / `COUNT(E)` partition.
    Count(Engine<CountCell>),
    /// `SUM`/`MIN`/`MAX`/`AVG` partition.
    Stats(Engine<StatsCell>),
}

impl EngineKind {
    /// Build the right kernel for `part`, optionally restricted to a
    /// group-space [`ShardSlice`].
    pub fn for_partition(part: CompiledPartition, shard: Option<ShardSlice>) -> Self {
        let count_only = part.count_only;
        match (count_only, shard) {
            (true, Some(s)) => EngineKind::Count(Engine::with_shard(part, s)),
            (true, None) => EngineKind::Count(Engine::new(part)),
            (false, Some(s)) => EngineKind::Stats(Engine::with_shard(part, s)),
            (false, None) => EngineKind::Stats(Engine::new(part)),
        }
    }

    /// Process a time-ordered columnar batch through the owner's type
    /// pass (see [`Engine::process_columnar`]).
    pub(crate) fn process_columnar(&mut self, batch: &EventBatch, pass: &TypePass) {
        match self {
            EngineKind::Count(en) => en.process_columnar(batch, pass),
            EngineKind::Stats(en) => en.process_columnar(batch, pass),
        }
    }

    /// Process pre-routed rows of a columnar batch (see
    /// [`Engine::process_routed`]).
    pub fn process_routed(&mut self, batch: &EventBatch, rows: &[u32], frontier: Timestamp) {
        match self {
            EngineKind::Count(en) => en.process_routed(batch, rows, frontier),
            EngineKind::Stats(en) => en.process_routed(batch, rows, frontier),
        }
    }

    /// Enable the LRU spill tier (see [`Engine::set_spill`]).
    pub fn set_spill(&mut self, config: &SpillConfig, label: &str) -> std::io::Result<()> {
        match self {
            EngineKind::Count(en) => en.set_spill(config, label),
            EngineKind::Stats(en) => en.set_spill(config, label),
        }
    }

    /// Enable event-time processing (see [`Engine::set_lateness`]).
    pub fn set_lateness(&mut self, lateness_ms: u64) {
        match self {
            EngineKind::Count(en) => en.set_lateness(lateness_ms),
            EngineKind::Stats(en) => en.set_lateness(lateness_ms),
        }
    }

    /// Late rows dropped by this engine's gate (see
    /// [`Engine::late_rows_dropped`]).
    pub fn late_rows_dropped(&self) -> u64 {
        match self {
            EngineKind::Count(en) => en.late_rows_dropped(),
            EngineKind::Stats(en) => en.late_rows_dropped(),
        }
    }

    /// Live aggregate cells (see [`Engine::cell_count`]).
    pub fn cell_count(&self) -> usize {
        match self {
            EngineKind::Count(en) => en.cell_count(),
            EngineKind::Stats(en) => en.cell_count(),
        }
    }

    /// Serialize the full evaluation state, tagged with the kernel kind
    /// (see [`Engine::save_state`]).
    pub fn save_state(&mut self, w: &mut crate::checkpoint::StateWriter) {
        match self {
            EngineKind::Count(en) => {
                w.u8(0);
                en.save_state(w);
            }
            EngineKind::Stats(en) => {
                w.u8(1);
                en.save_state(w);
            }
        }
    }

    /// Restore state written by [`EngineKind::save_state`]; the kernel
    /// kind must match the one this engine was compiled with.
    pub fn load_state(
        &mut self,
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<(), crate::checkpoint::StateError> {
        let tag = r.u8()?;
        match (self, tag) {
            (EngineKind::Count(en), 0) => en.load_state(r),
            (EngineKind::Stats(en), 1) => en.load_state(r),
            _ => Err(crate::checkpoint::StateError::Corrupt("engine kind tag")),
        }
    }

    /// Number of groups currently paged out to the spill log (see
    /// [`Engine::spilled_group_count`]).
    pub fn spilled_group_count(&self) -> usize {
        match self {
            EngineKind::Count(en) => en.spilled_group_count(),
            EngineKind::Stats(en) => en.spilled_group_count(),
        }
    }

    /// Pre-size the result store (see [`Engine::reserve_results`]).
    pub fn reserve_results(&mut self, additional: usize) {
        match self {
            EngineKind::Count(en) => en.reserve_results(additional),
            EngineKind::Stats(en) => en.reserve_results(additional),
        }
    }

    /// Take the results emitted so far without finishing (see
    /// [`Engine::take_results`]).
    pub fn take_results(&mut self) -> ExecutorResults {
        match self {
            EngineKind::Count(en) => en.take_results(),
            EngineKind::Stats(en) => en.take_results(),
        }
    }

    /// Flush remaining windows and return the results.
    pub fn finish(self) -> ExecutorResults {
        match self {
            EngineKind::Count(en) => en.finish(),
            EngineKind::Stats(en) => en.finish(),
        }
    }

    /// Events that passed routing, predicates, grouping, and shard
    /// ownership.
    pub fn events_matched(&self) -> u64 {
        match self {
            EngineKind::Count(en) => en.events_matched(),
            EngineKind::Stats(en) => en.events_matched(),
        }
    }

    /// `(rows_scanned, rows_selected)` of the scan (see
    /// [`Engine::scan_stats`]).
    pub fn scan_stats(&self) -> (u64, u64) {
        match self {
            EngineKind::Count(en) => en.scan_stats(),
            EngineKind::Stats(en) => en.scan_stats(),
        }
    }

    /// The engine's compiled scan kernel (see [`Engine::scan_kernel`]).
    pub(crate) fn scan_kernel(&self) -> &ScanKernel {
        match self {
            EngineKind::Count(en) => en.scan_kernel(),
            EngineKind::Stats(en) => en.scan_kernel(),
        }
    }

    /// End-of-stream gate drain (see [`Engine::flush_pending`]): release
    /// every buffered event-time row so pre-finish stats are final.
    pub fn flush_pending(&mut self) {
        match self {
            EngineKind::Count(en) => en.flush_pending(),
            EngineKind::Stats(en) => en.flush_pending(),
        }
    }
}

impl Executor {
    /// Compile `workload` under `plan`.
    pub fn new(
        catalog: &Catalog,
        workload: &Workload,
        plan: &SharingPlan,
    ) -> Result<Self, CompileError> {
        let parts = compile(catalog, workload, plan)?;
        Ok(Self::from_engines(
            parts
                .into_iter()
                .map(|p| EngineKind::for_partition(p, None))
                .collect(),
        ))
    }

    /// An executor over `engines`, in partition order: unrestricted
    /// engines for the sequential executor, one shard's [`ShardSlice`]
    /// engines for a sharded runtime worker.
    pub(crate) fn from_engines(engines: Vec<EngineKind>) -> Self {
        let pass = TypePass::new(engines.iter().map(EngineKind::scan_kernel));
        Executor { engines, pass }
    }

    /// The Non-Shared (A-Seq) executor for `workload`.
    pub fn non_shared(catalog: &Catalog, workload: &Workload) -> Result<Self, CompileError> {
        Self::new(catalog, workload, &SharingPlan::non_shared())
    }

    /// Process a time-ordered columnar batch: one [`TypePass`] over the
    /// batch's type column serves every partition engine; each engine's
    /// [`ScanKernel`] selects its rows from it (routing, groupability,
    /// predicates), then the engine dispatches only those rows into its
    /// group state while that state is hot, and advances its event-time
    /// gate once. Row-form events enter through
    /// [`EventBatch::from_events`].
    pub fn process_columnar(&mut self, batch: &EventBatch) {
        self.pass.build(batch, 0, batch.len());
        for engine in &mut self.engines {
            engine.process_columnar(batch, &self.pass);
        }
    }

    /// Pre-size every partition's result store for about `additional`
    /// further results per query (capacity planning for allocation-free
    /// steady-state emission).
    pub fn reserve_results(&mut self, additional: usize) {
        for engine in &mut self.engines {
            engine.reserve_results(additional);
        }
    }

    /// Enable event-time processing on every partition engine (see
    /// [`Engine::set_lateness`]): input may arrive out of timestamp
    /// order, rows release behind the watermark `max_time_seen −
    /// lateness_ms`, and rows behind the watermark are dropped and
    /// counted.
    pub fn set_lateness(&mut self, lateness_ms: u64) {
        for engine in &mut self.engines {
            engine.set_lateness(lateness_ms);
        }
    }

    /// Late rows dropped, summed over partitions.
    pub fn late_rows_dropped(&self) -> u64 {
        self.engines.iter().map(EngineKind::late_rows_dropped).sum()
    }

    /// Batch size in which stream drivers feed a sequential executor (the
    /// sharded runtime batches by [`crate::DEFAULT_BATCH_SIZE`]).
    pub const RUN_BATCH: usize = 1024;

    /// End-of-stream drain of every engine's event-time gate (see
    /// [`Engine::flush_pending`]): the matched and cell counts read after
    /// it include every buffered row.
    fn flush_pending(&mut self) {
        for engine in &mut self.engines {
            engine.flush_pending();
        }
    }

    /// Take the results emitted so far across all partition engines,
    /// leaving every store empty. Open windows keep their state and
    /// appear in a later take or at [`Executor::finish`] — the epoch
    /// drain backing the session layer's `drain_results`.
    pub fn take_results(&mut self) -> ExecutorResults {
        let mut out = ExecutorResults::new();
        for engine in &mut self.engines {
            out.merge(engine.take_results());
        }
        out
    }

    /// Flush remaining windows and return all results.
    pub fn finish(self) -> ExecutorResults {
        let mut out = ExecutorResults::new();
        for engine in self.engines {
            out.merge(engine.finish());
        }
        out
    }

    /// Events that passed routing, predicates, and grouping, summed over
    /// partitions.
    pub fn events_matched(&self) -> u64 {
        self.engines.iter().map(EngineKind::events_matched).sum()
    }

    /// Live aggregate cells (memory proxy).
    pub fn cell_count(&self) -> usize {
        self.engines.iter().map(EngineKind::cell_count).sum()
    }

    /// Per-partition `(rows_scanned, rows_selected)` of the scan (one
    /// entry per engine, in partition order).
    pub fn scan_stats(&self) -> Vec<(u64, u64)> {
        self.engines.iter().map(EngineKind::scan_stats).collect()
    }
}

impl crate::processor::BatchProcessor for Executor {
    fn process_columnar(&mut self, batch: &EventBatch) {
        Executor::process_columnar(self, batch);
    }

    fn late_rows_dropped(&self) -> u64 {
        Executor::late_rows_dropped(self)
    }

    fn events_matched(&self) -> u64 {
        Executor::events_matched(self)
    }

    fn scan_stats(&self) -> Vec<(u64, u64)> {
        Executor::scan_stats(self)
    }

    fn state_size(&self) -> usize {
        self.cell_count()
    }

    fn finish(mut self: Box<Self>) -> (ExecutorResults, u64) {
        self.flush_pending();
        let matched = Executor::events_matched(&self);
        ((*self).finish(), matched)
    }
}

/// The sharded runtime's online worker: an executor over one shard's
/// [`ShardSlice`] engines, fed the router's row lists instead of scanning.
impl ShardProcessor for Executor {
    fn process_routed(&mut self, batch: &EventBatch, rows: &RoutedRows) {
        // event-time mode: the router stamped every chunk with the merged
        // cross-shard frontier, and a gated engine advances to it even
        // when the chunk holds none of its rows
        for (engine, list) in self.engines.iter_mut().zip(&rows.per_part) {
            engine.process_routed(batch, list, rows.frontier);
        }
    }

    fn events_matched(&self) -> u64 {
        Executor::events_matched(self)
    }

    fn save_state(&mut self) -> Option<Vec<u8>> {
        let mut w = StateWriter::new();
        w.seq_len(self.engines.len());
        for engine in &mut self.engines {
            engine.save_state(&mut w);
        }
        Some(w.into_bytes())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        let mut r = StateReader::new(bytes);
        if r.seq_len()? != self.engines.len() {
            return Err(StateError::Corrupt("engine count per shard"));
        }
        for engine in &mut self.engines {
            engine.load_state(&mut r)?;
        }
        if !r.is_exhausted() {
            return Err(StateError::Corrupt("trailing engine state bytes"));
        }
        Ok(())
    }

    fn take_results(&mut self) -> Option<ExecutorResults> {
        Some(Executor::take_results(self))
    }

    fn finish(mut self: Box<Self>) -> ShardReport {
        self.flush_pending();
        let events_matched = Executor::events_matched(&self);
        let state_size = self.cell_count();
        ShardReport {
            results: (*self).finish(),
            events_matched,
            state_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharon_query::aggregate::AggValue;
    use sharon_query::{parse_workload, Pattern, PlanCandidate, QueryId};
    use sharon_types::{Event, EventTypeId};

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
        //   total = 4
        let srcs = [
            "RETURN COUNT(*) PATTERN SEQ(A, B, C, D) WITHIN 100 ms SLIDE 100 ms",
            "RETURN COUNT(*) PATTERN SEQ(A, B, Z) WITHIN 100 ms SLIDE 100 ms",
        ];
        let events = |cat: &Catalog| {
            let a = cat.lookup("A").unwrap();
            let b = cat.lookup("B").unwrap();
            let cc = cat.lookup("C").unwrap();
            let d = cat.lookup("D").unwrap();
            vec![
                ev(a, 1),
                ev(b, 2),
                ev(cc, 3),
                ev(d, 4),
                ev(d, 5),
                ev(cc, 6),
                ev(d, 7),
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
        assert!(shared.semantically_eq(&nonshared, 1e-9));
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
        assert!(
            got.semantically_eq(&want, 1e-9),
            "covered disorder must reproduce the in-order results"
        );
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
        assert!(shared.semantically_eq(&nonshared, 1e-9));
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
                ev(a, 6),
                ev(x, 7),
                ev(b, 8),
                ev(z, 9),
                ev(z, 10),
            ]
        };
        let (_, shared) = run_queries(&srcs, &plan, events);
        let (_, nonshared) = run_queries(&srcs, &SharingPlan::non_shared(), events);
        assert!(
            shared.semantically_eq(&nonshared, 1e-9),
            "shared: {:?}\nnonshared: {:?}",
            shared.of_query_sorted(QueryId(0)),
            nonshared.of_query_sorted(QueryId(0))
        );
        assert!(!nonshared.is_empty());
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

    #[test]
    fn spill_tier_pages_cold_groups_with_identical_results() {
        use crate::spill::SpillConfig;
        let (c, w, events) = grouped_setup(64);
        let dir = std::env::temp_dir().join(format!("sharon-engine-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SpillConfig::new(&dir, 8);

        let run = |spill: Option<&SpillConfig>| {
            let mut ex = Executor::non_shared(&c, &w).unwrap();
            if let Some(cfg) = spill {
                for (i, e) in ex.engines.iter_mut().enumerate() {
                    e.set_spill(cfg, &format!("engine-test-{i}")).unwrap();
                }
            }
            feed(&mut ex, &events);
            ex.finish()
        };

        let spills_before = sharon_metrics::group_spills();
        let reloads_before = sharon_metrics::group_reloads();
        let with_spill = run(Some(&cfg));
        assert!(
            sharon_metrics::group_spills() > spills_before,
            "64 groups under a budget of 8 must page out"
        );
        assert!(
            sharon_metrics::group_reloads() > reloads_before,
            "revisited groups must page back in"
        );
        let without = run(None);
        assert!(
            with_spill.semantically_eq(&without, 0.0),
            "paging groups in and out must not change any result"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_state_round_trips_mid_stream() {
        let (c, w, events) = grouped_setup(16);
        // cut mid-stream at an uneven point so live records, pending
        // same-timestamp state, and half-closed windows all cross the
        // snapshot boundary
        let cut = events.len() / 2 + 3;

        let mut reference = Executor::non_shared(&c, &w).unwrap();
        feed(&mut reference, &events);
        let want_matched = reference.events_matched();
        let want = reference.finish();

        let mut first = Executor::non_shared(&c, &w).unwrap();
        feed(&mut first, &events[..cut]);
        let blobs: Vec<Vec<u8>> = {
            first
                .engines
                .iter_mut()
                .map(|e| {
                    let mut sw = crate::checkpoint::StateWriter::new();
                    e.save_state(&mut sw);
                    sw.into_bytes()
                })
                .collect()
        };

        let mut resumed = Executor::non_shared(&c, &w).unwrap();
        {
            assert_eq!(resumed.engines.len(), blobs.len());
            for (e, b) in resumed.engines.iter_mut().zip(&blobs) {
                let mut sr = crate::checkpoint::StateReader::new(b);
                e.load_state(&mut sr).unwrap();
                assert!(sr.is_exhausted(), "engine state fully consumed");
            }
        }
        feed(&mut resumed, &events[cut..]);
        assert_eq!(resumed.events_matched(), want_matched);
        assert!(
            resumed.finish().semantically_eq(&want, 0.0),
            "snapshot + restore + replay must equal the uninterrupted run"
        );
    }

    fn engine_blob(ex: &mut Executor) -> Vec<u8> {
        let mut sw = StateWriter::new();
        ex.engines[0].save_state(&mut sw);
        sw.into_bytes()
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
            engine_blob(&mut ex)
        };
        assert_eq!(blob_after("A"), blob_after("Y"));
    }

    #[test]
    fn spilled_groups_embed_verbatim_in_a_checkpoint() {
        use crate::spill::SpillConfig;
        let (c, w, events) = grouped_setup(24);
        let dir = std::env::temp_dir().join(format!("sharon-engine-embed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut ex = Executor::non_shared(&c, &w).unwrap();
        ex.engines[0]
            .set_spill(&SpillConfig::new(&dir, 4), "embed")
            .unwrap();
        let cut = events.len() / 2;
        feed(&mut ex, &events[..cut]);
        let blob = engine_blob(&mut ex);
        let EngineKind::Count(engine) = &mut ex.engines[0] else {
            panic!("a COUNT workload runs the count kernel");
        };
        let store = &mut engine.spill.as_mut().unwrap().store;
        assert!(store.len() >= 16, "most groups are paged out");
        store
            .for_each(|key, bytes| {
                let mut entry = StateWriter::new();
                entry.group_key(key);
                entry.bytes(bytes);
                let entry = entry.into_bytes();
                assert!(
                    blob.windows(entry.len()).any(|w| w == entry),
                    "group {key} must appear in the checkpoint as spilled"
                );
            })
            .unwrap();

        // and the checkpoint restores into an engine without a spill tier
        let mut resumed = Executor::non_shared(&c, &w).unwrap();
        resumed.engines[0]
            .load_state(&mut StateReader::new(&blob))
            .unwrap();
        let mut reference = Executor::non_shared(&c, &w).unwrap();
        feed(&mut reference, &events);
        feed(&mut resumed, &events[cut..]);
        assert!(resumed.finish().semantically_eq(&reference.finish(), 0.0));
        drop(ex);
        let _ = std::fs::remove_dir_all(&dir);
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
