//! The sharded parallel runtime with a **pipelined ingest stage** and a
//! **durability tier** (consistent checkpoints, crash-exact resume, fault
//! injection).
//!
//! `GROUP BY` partitions are independent by construction — "a result is
//! returned per group and per window" (Definition 2) and no engine state is
//! ever shared across groups — and compiled partitions (sharing-signature
//! classes, §7.2) never interact either. Every strategy in the system is
//! therefore embarrassingly parallel along two axes, and
//! [`ShardedExecutor`] exploits both:
//!
//! * **group axis** — every worker shard owns, for each routing scope,
//!   the disjoint slice of groups whose key hash lands on its index (see
//!   [`crate::engine::ShardSlice`]);
//! * **scope axis** — the global (no `GROUP BY`) rows of scope `p` are
//!   assigned to worker `p mod N`, spreading independent scopes over the
//!   shards.
//!
//! The runtime is generic over *what* the workers run: each worker hosts
//! one [`ShardProcessor`] — a vector of online [`Engine`]s for the
//! Sharon/Greedy/A-Seq strategies, or a whole two-step baseline
//! (Flink-like, SPASS-like) for the figure-13 comparisons — so sharding is
//! a pure work partition for *any* strategy: shard results are disjoint
//! and merge exactly. [`ShardedExecutor::finish`] merges them in
//! deterministic shard order; determinism tests assert `semantically_eq`
//! with the sequential path for every shard count and every strategy.
//!
//! Events are ingested into a columnar [`EventBatch`] and **routed once**:
//! the routing side runs the stateless prefix of the event path — routing,
//! predicate evaluation, group-key hashing — a single time per event (see
//! [`crate::router::BatchRouter`]) and ships each worker the [`Arc`]-shared
//! batch plus the row-index lists it owns. Workers consume their routed
//! rows and never evaluate predicates or extract keys for rows they do not
//! own. Transfers ride bounded SPSC ring buffers ([`crate::spsc`]) — one
//! per worker, no shared channel state — giving backpressure against slow
//! shards without cross-thread contention.
//!
//! # Pipelined ingest
//!
//! Routing is the serial stage of the runtime, so it never runs on the
//! ingest thread: a dedicated *router thread* owns the [`RouteBatch`] and
//! the worker rings, and the ingest thread hands it filled batches over
//! one more bounded SPSC job ring (double-buffered — the ring itself is
//! the backpressure): the router routes batch `k + 1` while the shard
//! workers execute batch `k` and the ingest thread buffers batch `k + 2`.
//!
//! # The routing plane
//!
//! At high shard counts and many *distinct* scopes the one router thread
//! becomes the new serial stage. Scopes are independent by construction
//! (per-scope selection bitmaps, per-scope row-index lists), so routing
//! parallelizes cleanly along the scope axis: with `R > 1` routers
//! ([`ShardedOptions::routers`], the `SHARON_ROUTERS` knob, see
//! [`default_routers`]) the compiled scopes are partitioned across `R`
//! router threads by a **cost estimate** (clause count × routed-type
//! density, see [`crate::router::split_router_plane`]) — not naive
//! round-robin — and each router owns its own [`RouteBatch`] state (its
//! watermark frontier) plus its own per-worker SPSC rings. The ingest
//! stage fans every filled [`Arc<EventBatch>`] range to *all* routers over per-router job rings;
//! each [`RoutedRows`] chunk carries the ingest **batch sequence number**
//! ([`RoutedRows::seq`]), and every worker reads its `R` lanes in
//! lockstep — one chunk per lane per batch (multi-router planes send
//! empty chunks too, precisely so the lanes never skew) — merging them
//! with [`prepare_step`] so the applied union is indistinguishable from
//! a single router's chunk: rows in lane order, the watermark advanced
//! exactly once with the **min over the per-router frontiers**. Results
//! are bit-identical to `R = 1`. Checkpoint barriers fan out to every
//! router and the manifest carries `R` router-state segments; resume rebuilds the identical
//! scope assignment (the cost partition is a pure function of the
//! compiled scopes).
//!
//! Every hand-off buffer is **recycled**: each worker returns its consumed
//! row-index lists through a return ring drained by the routing side, and
//! batch bodies — kept in [`Arc`]s end to end, including the fill buffer —
//! return to an ingest-side pool once their `Arc` count drains, so the
//! pipelined steady state performs no batch-, list-, or `Arc`-granular
//! allocation. With checkpointing disabled the durability hooks reduce to
//! two integer checks per batch — the zero-allocation steady state is
//! unchanged (pinned by `tests/alloc_regression.rs`).
//!
//! # Durability
//!
//! With a [`CheckpointConfig`] (see [`ShardedOptions::checkpoint`], or the
//! `SHARON_CHECKPOINT` knob via [`ShardedOptions::from_env`]) the runtime
//! takes a **consistent checkpoint** every `interval_batches` ingested
//! batches: a [`CheckpointBarrier`] message flows through the *same*
//! rings as the data — ingest→router job ring first, then every worker
//! ring — so each shard deposits its serialized engine state after
//! exactly the batches routed before the barrier. No pause, no global
//! lock: the barrier rides the pipeline. Each router deposits its own
//! frontier, and the ingest thread writes the segments plus a
//! checksummed manifest through [`CheckpointStore`] (segments first,
//! manifest renamed into place last, so a torn checkpoint is never
//! *latest*). [`ShardedExecutor::resume`] rebuilds the runtime from the
//! latest complete checkpoint and returns the stream offset to replay
//! from — results after replay are identical to an uninterrupted run.
//!
//! Failures are **contained and loud**: a worker or router panic flips
//! the shared cancel flag (so every other thread drains instead of
//! grinding on), and [`ShardedExecutor::finish`] fails fast with an error
//! naming the dead thread instead of silently merging partial results.
//! [`FaultPlan`] (the `SHARON_FAULT` knob) injects exactly these failures
//! — dropped runs, worker panics, process aborts — at chosen batch
//! indices, which is how the recovery suites earn their confidence.
//!
//! Shutdown is ordered: [`ShardedExecutor::finish`] closes the
//! ingest→router ring *first* — the ring's close-then-drain semantics are
//! the poison/flush message, so the router thread routes every in-flight
//! job before returning — and only then closes the worker rings, so every
//! [`ShardReport`] covers the complete stream.
//!
//! [`Engine`]: crate::engine::Engine

use crate::checkpoint::{
    BarrierRef, CheckpointBarrier, CheckpointConfig, CheckpointError, CheckpointStore, FaultPlan,
    HarvestRef, StateError, StateReader, StateWriter,
};
use crate::compile::{compile, CompileError, CompiledPartition};
use crate::engine::{EngineKind, ShardSlice};
use crate::processor::BatchProcessor;
use crate::results::ExecutorResults;
use crate::router::{split_router_plane, RouteBatch, RoutedRows};
use crate::scan::ScanCounters;
use crate::spill::SpillConfig;
use crate::spsc;
use sharon_query::{SharingPlan, Workload};
use sharon_types::{Catalog, EventBatch, EventStream, Timestamp};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Default number of events buffered before a batch is routed and fanned
/// out.
pub const DEFAULT_BATCH_SIZE: usize = 4096;

/// Bounded depth of each worker's ring buffer (backpressure).
const RING_DEPTH: usize = 4;

/// Depth of each ingest→router job ring: double-buffered hand-off (the
/// router routes one batch while the ingest thread fills the next).
const JOB_RING_DEPTH: usize = 2;

/// Default number of router threads in the routing plane: one — the
/// classic single-router pipeline.
pub const DEFAULT_ROUTERS: usize = 1;

/// The router-thread count to use when none is given explicitly: the
/// `SHARON_ROUTERS` environment variable if set, [`DEFAULT_ROUTERS`]
/// otherwise.
///
/// An unparsable or zero `SHARON_ROUTERS` panics rather than silently
/// running a different plane (a bench matrix typo must not record
/// numbers attributed to a routing plane that never ran).
pub fn default_routers() -> usize {
    match std::env::var("SHARON_ROUTERS") {
        Ok(s) => {
            let n: usize = s
                .parse()
                .expect("SHARON_ROUTERS must be a router-thread count (>= 1)");
            assert!(
                n >= 1,
                "SHARON_ROUTERS must be >= 1 (a plane needs a router)"
            );
            n
        }
        Err(_) => DEFAULT_ROUTERS,
    }
}

/// One routed batch in flight to one worker: the shared columnar batch
/// plus this worker's per-scope row lists.
struct RoutedBatch {
    batch: Arc<EventBatch>,
    rows: RoutedRows,
}

/// One filled batch range in flight from the ingest thread to a router
/// thread (absolute rows `lo..hi` of the shared batch). `seq` is the
/// ingest batch sequence number, stamped onto every [`RoutedRows`] chunk
/// so workers can merge the plane's ring streams deterministically.
struct RouteJob {
    batch: Arc<EventBatch>,
    lo: usize,
    hi: usize,
    seq: u64,
}

/// What a worker ring carries: routed data, or a checkpoint barrier that
/// must be answered *in stream order* (after every batch sent before it —
/// that ordering is the whole consistency argument).
enum WorkerMsg {
    Batch(RoutedBatch),
    Barrier(BarrierRef),
    /// A result-harvest barrier: move the results emitted so far into
    /// the barrier, leaving window state untouched. Same in-band
    /// ordering contract as `Barrier`.
    Harvest(HarvestRef),
}

/// What the ingest→router job rings carry (same in-band ordering; the
/// ingest thread sends every message to **every** router's ring, so all
/// lanes of a worker observe the same message sequence).
enum RouterMsg {
    Route(RouteJob),
    Barrier(BarrierRef),
    Harvest(HarvestRef),
    /// A plane barrier: the router counts the latch down once every job
    /// queued before it is routed, without touching the worker rings
    /// (backs [`ShardedExecutor::router_stats`]).
    Sync(Arc<PlaneSync>),
}

/// A count-down latch over the routing plane: every router thread counts
/// it down in-band, behind all previously queued jobs, and the ingest
/// thread waits until all have.
struct PlaneSync {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl PlaneSync {
    fn new(n_routers: usize) -> Self {
        PlaneSync {
            remaining: Mutex::new(n_routers),
            done: Condvar::new(),
        }
    }

    /// One router has routed everything queued before the latch.
    fn count_down(&self) {
        // the count is valid at every step, so a poisoned lock is taken over
        let mut remaining = self
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *remaining = remaining.saturating_sub(1);
        self.done.notify_all();
    }

    /// Block until every router counted down. A cancelled run returns
    /// early — a dead router will never answer, and a barrier must not
    /// hang a failing run.
    fn wait(&self, cancel: &AtomicBool) {
        let mut remaining = self
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *remaining > 0 && !cancel.load(Ordering::Relaxed) {
            remaining = self
                .done
                .wait_timeout(remaining, std::time::Duration::from_millis(20))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// Live work tallies of one router thread, shared with the ingest side
/// (see [`ShardedExecutor::router_stats`]).
#[derive(Default)]
struct RouterCounters {
    batches_routed: AtomicU64,
    stall_waits: AtomicU64,
    scope_scans: AtomicU64,
}

/// A snapshot of one router thread's work tallies (see
/// [`ShardedExecutor::router_stats`]). The many-distinct-scope bench
/// asserts the plane is balanced by comparing `scope_scans` across
/// routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterStats {
    /// Batches this router routed. Every router routes every batch, so
    /// the counts agree across the plane once ingestion is flushed.
    pub batches_routed: u64,
    /// Times this router found a worker ring full and blocked until the
    /// worker drained it.
    pub stall_waits: u64,
    /// Scope scans performed: this router's *local* scope count × its
    /// routed batches — the per-router share of the plane-wide
    /// [`sharon_metrics::router_scope_scans`] dedup invariant.
    pub scope_scans: u64,
}

/// Armed at the top of every runtime thread: if the thread unwinds, flip
/// the shared cancel flag so the rest of the runtime drains instead of
/// blocking on (or burning CPU for) a peer that will never answer.
struct CancelOnPanic(Arc<AtomicBool>);

impl Drop for CancelOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// What each worker reports back when its ring closes.
#[derive(Debug, Default)]
pub struct ShardReport {
    /// This shard's (disjoint) slice of the results.
    pub results: ExecutorResults,
    /// Events this shard matched, exact at drain time.
    pub events_matched: u64,
    /// Final state-size proxy (live cells / buffered events / matches).
    pub state_size: usize,
}

/// The stateful half of a shardable strategy, as run by one worker thread:
/// consumes pre-routed row lists of shared batches and reports its slice
/// of the results when the ring closes.
///
/// The routing side (a [`RouteBatch`] built from the same stateless
/// filters the processor applies) guarantees every listed row routes into
/// its scope, passes its predicates, and belongs to a group this shard
/// owns — the processor never re-evaluates that prefix.
pub trait ShardProcessor: Send {
    /// Process the pre-routed rows of `batch`, in row order per scope.
    fn process_routed(&mut self, batch: &EventBatch, rows: &RoutedRows);

    /// Events matched so far (published to the ingest side after every
    /// batch); zero for strategies that do not track it.
    fn events_matched(&self) -> u64 {
        0
    }

    /// Serialize this shard's complete engine state for a checkpoint
    /// barrier, or `None` if the strategy does not support checkpointing
    /// (the default — the barrier then fails with a clear
    /// [`CheckpointError::Mismatch`] instead of writing a lying manifest).
    fn save_state(&mut self) -> Option<Vec<u8>> {
        None
    }

    /// Restore state written by [`ShardProcessor::save_state`]. The
    /// default rejects, matching the default `save_state`.
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        let _ = bytes;
        Err(StateError::Corrupt(
            "shard processor does not support state restore",
        ))
    }

    /// Move out the results emitted so far, leaving open-window state in
    /// place — the epoch drain behind the session layer's
    /// `drain_results`. The harvest is in-process, so the log travels as
    /// it is (the codec is for checkpoints only). `None` (the default)
    /// means the strategy cannot harvest mid-stream; the harvest barrier
    /// then fails instead of returning an empty result set that lies.
    fn take_results(&mut self) -> Option<ExecutorResults> {
        None
    }

    /// Flush remaining windows and report this shard's results.
    fn finish(self: Box<Self>) -> ShardReport;
}

/// The online strategies' shard worker: one [`EngineKind`] per compiled
/// partition, each restricted to this shard's [`ShardSlice`].
struct EngineShard {
    engines: Vec<EngineKind>,
}

impl ShardProcessor for EngineShard {
    fn process_routed(&mut self, batch: &EventBatch, rows: &RoutedRows) {
        for (engine, list) in self.engines.iter_mut().zip(&rows.per_part) {
            if !list.is_empty() {
                engine.process_routed(batch, list);
            }
        }
        // event-time mode: the router stamped every chunk with the merged
        // cross-shard frontier, so each engine's watermark advances here —
        // after the chunk's rows were admitted (a no-op for arrival-time
        // runs, where no gate is configured)
        for engine in &mut self.engines {
            engine.advance_watermark(rows.frontier);
        }
    }

    fn events_matched(&self) -> u64 {
        self.engines.iter().map(EngineKind::events_matched).sum()
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
        let mut out = ExecutorResults::new();
        for engine in &mut self.engines {
            out.merge(engine.take_results());
        }
        Some(out)
    }

    fn finish(mut self: Box<Self>) -> ShardReport {
        // drain the event-time gates first: buffered rows still count
        // toward the matched and state-size stats read below
        for engine in &mut self.engines {
            engine.flush_pending();
        }
        let events_matched = self.engines.iter().map(EngineKind::events_matched).sum();
        let state_size = self
            .engines
            .iter()
            .map(|e| match e {
                EngineKind::Count(en) => en.cell_count(),
                EngineKind::Stats(en) => en.cell_count(),
            })
            .sum();
        let mut results = ExecutorResults::new();
        for engine in self.engines {
            results.merge(engine.finish());
        }
        ShardReport {
            results,
            events_matched,
            state_size,
        }
    }
}

/// The routing side's endpoints of one worker lane: the routed-batch
/// ring in, the recycled row lists out.
struct WorkerChannel {
    sender: spsc::Sender<WorkerMsg>,
    returns: spsc::Receiver<RoutedRows>,
}

/// The worker side's endpoints of one router's lane: the routed-batch
/// ring out of that router, and the return ring its consumed row lists
/// recycle through. A worker holds one lane per router, in router
/// order, and reads them in lockstep (one message per lane per step).
struct WorkerLane {
    rx: spsc::Receiver<WorkerMsg>,
    ret: spsc::Sender<RoutedRows>,
}

/// The ingest side's handle on one worker thread.
struct WorkerHandle {
    handle: JoinHandle<ShardReport>,
    /// Events this shard has matched so far, published after every batch
    /// so [`ShardedExecutor::events_matched`] can report live progress.
    matched: Arc<AtomicU64>,
}

/// One router's complete routing stage: its [`RouteBatch`] (owning a
/// disjoint subset of the compiled scopes), its own worker rings (one
/// lane per worker), and its recycling pools. Moved wholesale onto a
/// dedicated router thread; dropping it closes this router's lane of
/// every worker.
struct Fanout {
    router: Box<dyn RouteBatch>,
    /// This router's index within the routing plane — its lane order at
    /// the workers and its slot in checkpoint barriers.
    router_index: usize,
    /// `true` in a multi-router plane: every worker receives one chunk
    /// per batch — even an empty one — so the per-worker lanes stay in
    /// lockstep for the sequence-number merge. A single router keeps the
    /// classic skip-empty fast path (bit-identical to the pre-plane
    /// runtime).
    always_send: bool,
    channels: Vec<WorkerChannel>,
    /// Recycled row lists (refilled from the workers' return rings).
    rows_pool: Vec<RoutedRows>,
    /// Reused output slots of `route_range_into`.
    route_scratch: Vec<RoutedRows>,
    /// Work tallies shared with the ingest side.
    counters: Arc<RouterCounters>,
}

impl Fanout {
    /// Route rows `lo..hi` of `batch` once against this router's scopes
    /// and send each worker the shared batch plus its owned row-index
    /// lists, stamped with the ingest sequence number `seq`. A worker
    /// whose ring closed early (its thread panicked) flips `cancel`
    /// instead of cascading the panic into the routing side — `finish`
    /// reports the dead shard.
    ///
    /// NOTE: `tests/alloc_regression.rs` (the pipelined steady-state
    /// test) mirrors this recycling protocol step by step on one thread
    /// to pin it at zero allocations deterministically — keep the two in
    /// sync when changing the pool/scratch handling here.
    fn dispatch(
        &mut self,
        batch: &Arc<EventBatch>,
        lo: usize,
        hi: usize,
        seq: u64,
        cancel: &AtomicBool,
    ) {
        let n_shards = self.channels.len();
        // drain the return rings: consumed row lists become routing slots
        let rows_cap = n_shards * (RING_DEPTH + 2);
        for ch in &mut self.channels {
            ch.returns.drain_into(&mut self.rows_pool, rows_cap);
        }
        let mut out = std::mem::take(&mut self.route_scratch);
        while out.len() < n_shards {
            out.push(self.rows_pool.pop().unwrap_or_default());
        }
        self.router.route_range_into(batch, lo, hi, &mut out);
        for (ch, mut rows) in self.channels.iter_mut().zip(out.drain(..)) {
            rows.seq = seq;
            // single-router mode: a worker with no owned rows is not
            // woken at all; in a plane every lane must see every batch
            // to stay in step
            if !self.always_send && rows.is_empty() {
                if self.rows_pool.len() < rows_cap {
                    self.rows_pool.push(rows);
                }
                continue;
            }
            let msg = WorkerMsg::Batch(RoutedBatch {
                batch: Arc::clone(batch),
                rows,
            });
            if let Err(msg) = ch.sender.try_send(msg) {
                // ring full (or closed): count the stall, then fall back
                // to the blocking send — that wait is the backpressure
                self.counters.stall_waits.fetch_add(1, Ordering::Relaxed);
                sharon_metrics::record_router_stall_waits(1);
                if ch.sender.send(msg).is_err() {
                    cancel.store(true, Ordering::Release);
                }
            }
        }
        self.route_scratch = out;
        self.counters.batches_routed.fetch_add(1, Ordering::Relaxed);
        self.counters
            .scope_scans
            .fetch_add(self.router.n_local_scopes() as u64, Ordering::Relaxed);
        sharon_metrics::record_router_batches_routed(1);
    }

    /// Inject a checkpoint barrier: serialize this router's own state,
    /// send the barrier down **every** worker lane (in-band, behind all
    /// previously routed batches), and deposit the router segment into
    /// this router's barrier slot. Dead rings flip `cancel` — the
    /// barrier wait then fails instead of hanging.
    fn send_barrier(&mut self, barrier: &BarrierRef, cancel: &AtomicBool) {
        let mut w = StateWriter::new();
        self.router.save_state(&mut w);
        for ch in &mut self.channels {
            if ch
                .sender
                .send(WorkerMsg::Barrier(Arc::clone(barrier)))
                .is_err()
            {
                cancel.store(true, Ordering::Release);
            }
        }
        barrier.fill_router(self.router_index, w.into_bytes());
    }

    /// Inject a result-harvest barrier: same in-band ordering as
    /// [`Fanout::send_barrier`], but workers deposit (and clear) their
    /// emitted results instead of their engine state. Routers have no
    /// results of their own, so their segments are empty.
    fn send_harvest(&mut self, barrier: &HarvestRef, cancel: &AtomicBool) {
        for ch in &mut self.channels {
            if ch
                .sender
                .send(WorkerMsg::Harvest(Arc::clone(barrier)))
                .is_err()
            {
                cancel.store(true, Ordering::Release);
            }
        }
        barrier.fill_router(self.router_index, Vec::new());
    }
}

/// Rewrite the `R` per-router chunks of one merged worker step (lane
/// order, all carrying the same batch and sequence number) so that
/// applying them one after another through
/// [`ShardProcessor::process_routed`] is indistinguishable from applying
/// their union as a single chunk — the heart of the deterministic
/// sequence-number merge: the **watermark advances exactly once**. Every
/// non-last chunk's frontier is zeroed (a no-op — the event-time gate's
/// `advance` is a monotone max) and the last non-empty chunk carries the
/// **min over the stamped per-router frontiers**, the only bound every
/// router has published for this batch.
///
/// A step with one non-empty chunk keeps its frontier, so a
/// single-router plane reproduces the classic path bit for bit.
/// Allocation-free. Public so the merge-determinism suites can drive it
/// directly against adversarial chunk layouts.
pub fn prepare_step(chunks: &mut [RoutedRows]) {
    let Some(last) = chunks.iter().rposition(|c| !c.is_empty()) else {
        return;
    };
    let mut merged = chunks[last].frontier;
    for c in &mut chunks[..last] {
        if !c.is_empty() {
            merged = merged.min(c.frontier);
            c.frontier = Timestamp::ZERO;
        }
    }
    chunks[last].frontier = merged;
}

/// The ingest thread's handle on one dedicated router thread.
struct RouterThread {
    jobs: spsc::Sender<RouterMsg>,
    /// Returns the [`Fanout`] at end-of-stream so `finish` controls when
    /// this router's worker lanes close (after all in-flight jobs
    /// routed).
    handle: JoinHandle<Fanout>,
}

/// Close every job ring first, then join the routers in router order,
/// dropping each returned fan-out as its thread returns — which closes
/// that router's worker lanes, releasing any worker blocked on it before
/// the next join (close-then-drain is the poison message: each router
/// routes every queued job first). Returns the routers that panicked; a
/// panicked router already dropped its fan-out during unwind.
fn join_routers(threads: Vec<RouterThread>) -> Vec<usize> {
    let handles: Vec<_> = threads.into_iter().map(|rt| rt.handle).collect();
    handles
        .into_iter()
        .enumerate()
        .filter_map(|(ri, handle)| handle.join().is_err().then_some(ri))
        .collect()
}

/// Every tuning and durability knob of the sharded runtime in one place;
/// every [`ShardedExecutor`] constructor takes it whole.
/// [`ShardedOptions::default`] is the plain runtime (no spill, no
/// checkpoints, no faults, arrival order);
/// [`ShardedOptions::from_env`] additionally honors the
/// `SHARON_CHECKPOINT` and `SHARON_FAULT` environment knobs.
#[derive(Debug, Clone)]
pub struct ShardedOptions {
    /// Events buffered before a batch is routed ([`DEFAULT_BATCH_SIZE`]).
    pub batch_size: usize,
    /// Router threads in the routing plane (`1` = the classic single
    /// router; defaults to [`default_routers`], which honours
    /// `SHARON_ROUTERS`).
    pub routers: usize,
    /// When set, every engine pages cold groups out to a spill log under
    /// this configuration — bounded memory for huge `GROUP BY`
    /// cardinalities (see [`SpillConfig`]).
    pub spill: Option<SpillConfig>,
    /// When set, take a consistent checkpoint every
    /// `interval_batches` ingested batches into this store.
    pub checkpoint: Option<CheckpointConfig>,
    /// When set, inject the given fault mid-stream (recovery testing —
    /// see [`FaultPlan`]).
    pub fault: Option<FaultPlan>,
    /// When set, run the online engines in **event-time** mode with this
    /// allowed lateness (milliseconds): input may carry bounded disorder;
    /// each engine buffers rows behind the watermark derived from the
    /// router's merged cross-shard frontier ([`RoutedRows::frontier`])
    /// and drops-and-counts rows behind it. Exact whenever the lateness
    /// covers the stream's disorder bound. `None` (the default) keeps the
    /// historical arrival-order contract.
    pub lateness: Option<u64>,
}

impl Default for ShardedOptions {
    fn default() -> Self {
        ShardedOptions {
            batch_size: DEFAULT_BATCH_SIZE,
            routers: default_routers(),
            spill: None,
            checkpoint: None,
            fault: None,
            lateness: None,
        }
    }
}

impl ShardedOptions {
    /// The defaults plus the durability environment knobs:
    /// `SHARON_CHECKPOINT=<dir>[:<interval>]` enables periodic
    /// checkpoints, `SHARON_FAULT=<plan>` arms fault injection, and
    /// `SHARON_LATENESS=<ms>` enables event-time mode (all panic on
    /// unparsable values — a typo must not silently run a different
    /// configuration). Delegates to the consolidated
    /// [`RuntimeOptions::from_env`](crate::config::RuntimeOptions::from_env)
    /// surface.
    pub fn from_env() -> Self {
        crate::config::RuntimeOptions::from_env()
            .unwrap_or_else(|e| panic!("{e}"))
            .sharded_options()
    }

    /// The first durability option that is set (`checkpoint`, `spill`,
    /// `fault`), by name — what a build without the durability tier
    /// must refuse.
    pub fn durability_option(&self) -> Option<&'static str> {
        if self.checkpoint.is_some() {
            Some("checkpoint")
        } else if self.spill.is_some() {
            Some("spill")
        } else if self.fault.is_some() {
            Some("fault")
        } else {
            None
        }
    }
}

/// The ingest side's periodic-checkpoint state.
struct Checkpointer {
    store: CheckpointStore,
    interval_batches: u64,
}

/// Build the online engine shards for `parts`: one [`EngineKind`] per
/// compiled partition per shard, each restricted to its [`ShardSlice`],
/// with the spill tier armed when configured.
fn engine_shards(
    parts: &[CompiledPartition],
    n_shards: usize,
    spill: Option<&SpillConfig>,
    lateness: Option<u64>,
) -> Vec<Box<dyn ShardProcessor>> {
    (0..n_shards)
        .map(|shard| {
            let engines: Vec<EngineKind> = parts
                .iter()
                .enumerate()
                .map(|(pi, part)| {
                    let slice = ShardSlice {
                        index: shard as u32,
                        of: n_shards as u32,
                        owns_global: pi % n_shards == shard,
                    };
                    let mut engine = EngineKind::for_partition(part.clone(), Some(slice));
                    if let Some(cfg) = spill {
                        engine
                            .set_spill(cfg, &format!("{shard}-{pi}"))
                            .unwrap_or_else(|e| panic!("spill tier init failed: {e}"));
                    }
                    if let Some(ms) = lateness {
                        engine.set_lateness(ms);
                    }
                    engine
                })
                .collect();
            Box::new(EngineShard { engines }) as Box<dyn ShardProcessor>
        })
        .collect()
}

/// Build a copy of `batch` whose rows `lo..hi` carry an injected disorder
/// burst: consecutive blocks of `k + 1` rows are each permuted with a
/// seeded Fisher–Yates, so no row is displaced more than `k` positions —
/// the same bounded-disorder model as the stream generators. Deterministic
/// (the shuffle is seeded from the fault parameters), so kill-and-resume
/// runs replay the identical burst. Cold path: runs once per armed fault.
fn reorder_burst(batch: &EventBatch, lo: usize, hi: usize, k: u32) -> EventBatch {
    let mut events = batch.to_events();
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15 ^ (((k as u64) << 32) | hi as u64);
    let mut next = move |bound: usize| {
        // xorshift64: plenty for a test-only shuffle, and dependency-free
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let block = k as usize + 1;
    let mut start = lo;
    while start < hi {
        let end = hi.min(start + block);
        for i in (start + 1..end).rev() {
            let j = start + next(i - start + 1);
            events.swap(i, j);
        }
        start = end;
    }
    EventBatch::from_events(&events)
}

/// A parallel executor that hash-partitions work across `N` worker shards.
///
/// Three constructors, one build path: [`ShardedExecutor::with_options`]
/// compiles a workload into online engine shards exactly like
/// [`crate::Executor`], [`ShardedExecutor::resume`] rebuilds them from the
/// latest complete checkpoint, and [`ShardedExecutor::from_parts`] hosts
/// *any* [`ShardProcessor`] set behind a pre-built routing plane, which
/// is how the two-step baselines run sharded. Events are accepted as
/// columnar batches (copied into the fill buffer, or zero-copy through
/// [`ShardedExecutor::process_shared`]); router threads route each
/// buffered batch once and fan the per-shard row lists out
/// over SPSC rings (see the module docs). [`ShardedExecutor::finish`]
/// drains the pipeline and merges the disjoint shard results.
pub struct ShardedExecutor {
    /// The routing plane's threads, in router order; `None` only after
    /// `finish`/`Drop` tore them down.
    routers: Option<Vec<RouterThread>>,
    workers: Vec<WorkerHandle>,
    /// The fill buffer. Kept in an [`Arc`] (uniquely owned between
    /// flushes) so a flush moves it into the pipeline without re-wrapping
    /// — the steady state never allocates an `Arc` block.
    buffer: Arc<EventBatch>,
    batch_size: usize,
    n_shards: usize,
    /// Incremented by `flush` as batches are fanned out; see
    /// [`ShardedExecutor::events_sent`].
    events_sent: u64,
    /// Batches fanned out so far — the clock of the periodic
    /// checkpointer and the fault plans.
    batches_sent: u64,
    /// Router threads in the routing plane (`1` = classic pipeline).
    n_routers: usize,
    /// In-flight batch bodies; entries whose `Arc` count drains back to 1
    /// are cleared and reused by the next flush.
    batch_pool: Vec<Arc<EventBatch>>,
    /// Set when the executor is dropped without `finish`, or when any
    /// runtime thread panics: the router thread and the workers discard
    /// queued batches instead of draining them (a capped/aborted bench
    /// run must not keep burning CPU on detached threads, and a
    /// half-dead runtime must fail fast rather than hang).
    cancel: Arc<AtomicBool>,
    /// Periodic-checkpoint state ([`ShardedOptions::checkpoint`]).
    checkpointer: Option<Checkpointer>,
    /// Armed fault injection ([`ShardedOptions::fault`]).
    fault: Option<FaultPlan>,
    /// Set once a `Drop`-fault fired: ingest stops and `finish` panics,
    /// simulating a crash with unflushed state.
    fault_tripped: Option<u64>,
    /// Each router's per-slot scan tallies, cloned out before the
    /// routers moved onto their threads (empty when the
    /// routers do not track them). Routers fill disjoint slots, so the
    /// plane-wide view is the slot-wise sum.
    scan_counters: Vec<Arc<ScanCounters>>,
    /// Each router's live work tallies, in router order.
    router_counters: Vec<Arc<RouterCounters>>,
}

impl ShardedExecutor {
    /// Compile `workload` under `plan` and spawn `n_shards` online engine
    /// shards configured by `options` (batching, routing plane,
    /// spill tier, checkpoints, fault injection, lateness). Zero shards is
    /// [`CompileError::ZeroShards`].
    pub fn with_options(
        catalog: &Catalog,
        workload: &Workload,
        plan: &SharingPlan,
        n_shards: usize,
        options: ShardedOptions,
    ) -> Result<Self, CompileError> {
        if n_shards == 0 {
            return Err(CompileError::ZeroShards {
                strategy: "online engine",
            });
        }
        let parts = compile(catalog, workload, plan)?;
        let shards = engine_shards(&parts, n_shards, options.spill.as_ref(), options.lateness);
        let routers = split_router_plane(parts, n_shards, options.routers);
        Ok(Self::build_with(routers, shards, &options, 0))
    }

    /// Rebuild the runtime from the **latest complete checkpoint** in
    /// `options.checkpoint` (which must be set) and return it together
    /// with the stream offset to replay from: re-ingest every event from
    /// that offset on and the results are identical to an uninterrupted
    /// run. The compiled workload, shard count and router count must match
    /// the checkpointing run — mismatches are reported, never guessed
    /// around.
    pub fn resume(
        catalog: &Catalog,
        workload: &Workload,
        plan: &SharingPlan,
        n_shards: usize,
        options: ShardedOptions,
    ) -> Result<(Self, u64), CheckpointError> {
        let Some(cfg) = options.checkpoint.clone() else {
            return Err(CheckpointError::Mismatch(
                "resume requires a checkpoint directory".into(),
            ));
        };
        let store = CheckpointStore::open(&cfg.dir)?;
        let data = store.latest()?;
        if data.shards.len() != n_shards {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint has {} shard segment(s), runtime has {n_shards} shard(s)",
                data.shards.len()
            )));
        }
        if data.routers.len() != options.routers {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint has {} router segment(s), runtime has {} router(s)",
                data.routers.len(),
                options.routers
            )));
        }
        let parts = compile(catalog, workload, plan)
            .map_err(|e| CheckpointError::Mismatch(format!("workload does not compile: {e}")))?;
        let mut shards = engine_shards(&parts, n_shards, options.spill.as_ref(), options.lateness);
        // the cost partition is a pure function of the compiled scopes
        // and the router count, so this rebuilds the checkpointing run's
        // scope→router assignment exactly — segment `ri` restores the
        // same scope subset it was saved from
        let mut routers = split_router_plane(parts, n_shards, options.routers);
        for (ri, router) in routers.iter_mut().enumerate() {
            let mut r = StateReader::new(&data.routers[ri]);
            router.load_state(&mut r)?;
            if !r.is_exhausted() {
                return Err(CheckpointError::Corrupt(format!(
                    "trailing router {ri} state bytes"
                )));
            }
        }
        for (shard, processor) in shards.iter_mut().enumerate() {
            processor
                .load_state(&data.shards[shard])
                .map_err(|e| CheckpointError::Corrupt(format!("shard {shard} state: {e}")))?;
        }
        let offset = data.events_sent;
        Ok((Self::build_with(routers, shards, &options, offset), offset))
    }

    /// Host any strategy: a pre-built **routing plane** — one
    /// [`RouteBatch`] per router thread, each owning a disjoint subset of
    /// the plane-wide routing slots (see [`split_router_plane`]) — plus
    /// one processor per shard (the two-step baselines run sharded this
    /// way). The routers' shard assignment must agree with how the
    /// processors partition their group state; both sides deriving from
    /// the same [`crate::RowFilter`] scopes guarantees that.
    ///
    /// The plane size is `routers.len()` — [`ShardedOptions::routers`] is
    /// not consulted, so a caller-built plane is never silently resized
    /// by the environment; the engine-side options (`spill`, `lateness`)
    /// are the processors' business too. Panics on an empty
    /// plane or shard set, or when routers and processors disagree on
    /// the shard or slot count.
    pub fn from_parts(
        routers: Vec<Box<dyn RouteBatch>>,
        shards: Vec<Box<dyn ShardProcessor>>,
        options: &ShardedOptions,
    ) -> Self {
        Self::build_with(routers, shards, options, 0)
    }

    /// Spawn the worker and router threads around the routing plane
    /// `routers` + `shards`. `events_sent` seeds the ingest counter —
    /// zero for fresh runs, the checkpoint's replay offset for resumed
    /// ones.
    fn build_with(
        routers: Vec<Box<dyn RouteBatch>>,
        shards: Vec<Box<dyn ShardProcessor>>,
        options: &ShardedOptions,
        events_sent: u64,
    ) -> Self {
        let n_shards = shards.len();
        let n_routers = routers.len();
        assert!(n_shards >= 1, "need at least one shard");
        assert!(n_routers >= 1, "a routing plane needs at least one router");
        let batch_size = options.batch_size.max(1);
        for router in &routers {
            assert_eq!(
                router.n_shards(),
                n_shards,
                "router and processor shard counts must agree"
            );
        }
        let n_scopes = routers[0].n_scopes();
        for router in &routers {
            assert_eq!(
                router.n_scopes(),
                n_scopes,
                "every router of a plane must address the same plane-wide slot space"
            );
        }
        // cloned now: the routers move onto their own threads, but selectivity stays reportable through the shared
        // counters (summed slot-wise across the plane)
        let scan_counters: Vec<Arc<ScanCounters>> =
            routers.iter().filter_map(|r| r.scan_counters()).collect();
        let router_counters: Vec<Arc<RouterCounters>> = (0..n_routers)
            .map(|_| Arc::new(RouterCounters::default()))
            .collect();
        let cancel = Arc::new(AtomicBool::new(false));
        let checkpointer = options.checkpoint.as_ref().map(|cfg| Checkpointer {
            store: CheckpointStore::open(&cfg.dir)
                .unwrap_or_else(|e| panic!("checkpoint store {}: {e}", cfg.dir.display())),
            interval_batches: cfg.interval_batches.max(1),
        });

        // one lane (worker ring + return ring) per router per worker
        let mut worker_lanes: Vec<Vec<WorkerLane>> = (0..n_shards)
            .map(|_| Vec::with_capacity(n_routers))
            .collect();
        let mut fanouts = Vec::with_capacity(n_routers);
        for (ri, router) in routers.into_iter().enumerate() {
            let mut channels = Vec::with_capacity(n_shards);
            for lanes in worker_lanes.iter_mut() {
                let (sender, rx) = spsc::ring::<WorkerMsg>(RING_DEPTH);
                // the return ring is sized so a worker's try_send can
                // only hit a full ring if the routing side stopped
                // draining it
                let (ret, returns) = spsc::ring::<RoutedRows>(RING_DEPTH + 2);
                channels.push(WorkerChannel { sender, returns });
                lanes.push(WorkerLane { rx, ret });
            }
            fanouts.push(Fanout {
                router,
                router_index: ri,
                always_send: n_routers > 1,
                channels,
                rows_pool: Vec::new(),
                route_scratch: Vec::new(),
                counters: Arc::clone(&router_counters[ri]),
            });
        }

        let mut workers = Vec::with_capacity(n_shards);
        for ((shard, processor), lanes) in shards.into_iter().enumerate().zip(worker_lanes) {
            let matched = Arc::new(AtomicU64::new(0));
            let matched_pub = Arc::clone(&matched);
            let cancelled = Arc::clone(&cancel);
            let fault_at = match options.fault {
                Some(FaultPlan::PanicWorker { batch, shard: s }) if s == shard => Some(batch),
                _ => None,
            };
            let handle = std::thread::Builder::new()
                .name(format!("sharon-shard-{shard}"))
                .spawn(move || {
                    let _guard = CancelOnPanic(Arc::clone(&cancelled));
                    let mut processor = processor;
                    let mut lanes = lanes;
                    let mut processed: u64 = 0;
                    // hoisted step buffers: the merge loop allocates
                    // nothing in steady state
                    let mut step: Vec<WorkerMsg> = Vec::with_capacity(lanes.len());
                    let mut bodies: Vec<Arc<EventBatch>> = Vec::with_capacity(lanes.len());
                    let mut chunks: Vec<RoutedRows> = Vec::with_capacity(lanes.len());
                    'stream: loop {
                        // the sequence-number merge: one in-band message
                        // per lane, in router order — every router sends
                        // every worker the same message sequence (planes
                        // send empty chunks too), so step `k` of every
                        // lane refers to the same batch or barrier
                        step.clear();
                        for lane in &mut lanes {
                            match lane.rx.recv() {
                                Some(msg) => step.push(msg),
                                // lanes close together at teardown: any
                                // closed lane ends the stream
                                None => break 'stream,
                            }
                        }
                        let kind = std::mem::discriminant(&step[0]);
                        if step.iter().any(|m| std::mem::discriminant(m) != kind) {
                            // only reachable when a cancel tore the
                            // plane down mid-sequence — an orderly plane
                            // keeps every lane in lockstep
                            assert!(
                                cancelled.load(Ordering::Relaxed),
                                "router lanes desynchronized on shard {shard}"
                            );
                            break 'stream;
                        }
                        match &step[0] {
                            WorkerMsg::Batch(_) => {
                                bodies.clear();
                                chunks.clear();
                                for msg in step.drain(..) {
                                    if let WorkerMsg::Batch(rb) = msg {
                                        bodies.push(rb.batch);
                                        chunks.push(rb.rows);
                                    }
                                }
                                if cancelled.load(Ordering::Relaxed)
                                    || chunks.iter().all(RoutedRows::is_empty)
                                {
                                    // aborted — or no lane owns rows of
                                    // this batch (single routers skip
                                    // such sends entirely, so the step
                                    // is not counted here either)
                                    bodies.clear();
                                    for (lane, mut rows) in lanes.iter_mut().zip(chunks.drain(..)) {
                                        rows.clear();
                                        let _ = lane.ret.try_send(rows);
                                    }
                                    continue;
                                }
                                debug_assert!(
                                    chunks.iter().all(|c| c.seq == chunks[0].seq)
                                        && bodies.iter().all(|b| Arc::ptr_eq(b, &bodies[0])),
                                    "lanes merged chunks of different batches"
                                );
                                if fault_at == Some(processed) {
                                    panic!(
                                        "injected fault: worker shard {shard} \
                                         panicking at its batch {processed}"
                                    );
                                }
                                processed += 1;
                                prepare_step(&mut chunks);
                                for (body, rows) in bodies.iter().zip(&chunks) {
                                    if !rows.is_empty() {
                                        processor.process_routed(body, rows);
                                    }
                                }
                                matched_pub.store(processor.events_matched(), Ordering::Relaxed);
                                bodies.clear(); // release the body before recycling rows
                                for (lane, mut rows) in lanes.iter_mut().zip(chunks.drain(..)) {
                                    rows.clear();
                                    // recycle the row lists into their own
                                    // lane; dropping them is fine if the
                                    // return ring is (transiently) full
                                    let _ = lane.ret.try_send(rows);
                                }
                            }
                            WorkerMsg::Barrier(_) => {
                                // in-band: state covers exactly the batches
                                // routed before the barrier; every lane
                                // carries the same barrier, deposit once
                                let state = processor.save_state();
                                if let Some(WorkerMsg::Barrier(barrier)) = step.drain(..).next() {
                                    barrier.fill_shard(shard, state);
                                }
                            }
                            WorkerMsg::Harvest(_) => {
                                // in-band: results cover exactly the batches
                                // routed before the barrier; take once
                                let results = processor.take_results();
                                if let Some(WorkerMsg::Harvest(barrier)) = step.drain(..).next() {
                                    barrier.fill_shard(shard, results);
                                }
                            }
                        }
                    }
                    processor.finish()
                })
                .expect("spawn shard worker thread");
            workers.push(WorkerHandle { handle, matched });
        }

        let threads = fanouts
            .into_iter()
            .enumerate()
            .map(|(ri, fanout)| {
                let (jobs, mut job_rx) = spsc::ring::<RouterMsg>(JOB_RING_DEPTH);
                let cancelled = Arc::clone(&cancel);
                let handle = std::thread::Builder::new()
                    .name(format!("sharon-router-{ri}"))
                    .spawn(move || {
                        let _guard = CancelOnPanic(Arc::clone(&cancelled));
                        let mut fanout = fanout;
                        while let Some(msg) = job_rx.recv() {
                            match msg {
                                RouterMsg::Route(RouteJob { batch, lo, hi, seq }) => {
                                    if cancelled.load(Ordering::Relaxed) {
                                        continue; // aborted: drain jobs without routing
                                    }
                                    fanout.dispatch(&batch, lo, hi, seq, &cancelled);
                                }
                                RouterMsg::Barrier(barrier) => {
                                    fanout.send_barrier(&barrier, &cancelled);
                                }
                                RouterMsg::Harvest(barrier) => {
                                    fanout.send_harvest(&barrier, &cancelled);
                                }
                                RouterMsg::Sync(sync) => sync.count_down(),
                            }
                        }
                        // end of stream: hand the fan-out back so
                        // `finish` closes this router's worker lanes
                        // only after every queued job was routed
                        fanout
                    })
                    .expect("spawn router thread");
                RouterThread { jobs, handle }
            })
            .collect();

        ShardedExecutor {
            routers: Some(threads),
            workers,
            buffer: Arc::new(EventBatch::with_capacity(batch_size, 2)),
            batch_size,
            n_shards,
            n_routers,
            events_sent,
            batches_sent: 0,
            batch_pool: Vec::new(),
            cancel,
            checkpointer,
            fault: options.fault,
            fault_tripped: None,
            scan_counters,
            router_counters,
        }
    }

    /// Number of worker shards.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Router threads in the routing plane (`1` = the classic single
    /// router).
    pub fn n_routers(&self) -> usize {
        self.n_routers
    }

    /// Per-router work tallies, in router order: batches routed, stalls
    /// on full worker rings, and scope scans (local scopes × batches).
    /// Exact: flushes the ingest buffer, then waits until every router
    /// thread has passed a barrier sent in-band behind everything queued
    /// so far, so the tallies cover every batch ingested before the call.
    /// The many-distinct-scope bench uses the scan spread to assert the
    /// cost partition balances the plane.
    pub fn router_stats(&mut self) -> Vec<RouterStats> {
        self.flush();
        let sync = Arc::new(PlaneSync::new(self.n_routers));
        self.broadcast(|| RouterMsg::Sync(Arc::clone(&sync)));
        sync.wait(&self.cancel);
        self.router_counters
            .iter()
            .map(|c| RouterStats {
                batches_routed: c.batches_routed.load(Ordering::Relaxed),
                stall_waits: c.stall_waits.load(Ordering::Relaxed),
                scope_scans: c.scope_scans.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Events fanned out to the routing stage so far (excluding the
    /// unflushed buffer). Resumed runtimes start at the checkpoint's
    /// replay offset, so the counter always reflects absolute stream
    /// position.
    pub fn events_sent(&self) -> u64 {
        self.events_sent
    }

    /// Events that passed routing, predicates, grouping, and shard
    /// ownership, summed over shards. Workers publish after each batch,
    /// so this trails ingestion by at most the in-flight batches (it is
    /// exact after [`ShardedExecutor::finish_with_stats`], which reports
    /// the final count).
    pub fn events_matched(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.matched.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-scope `(rows_scanned, rows_selected)` of the routing plane's
    /// stateless pass so far (empty when the routers do not track it).
    /// Every router tallies into the plane-wide slot space — each slot
    /// owned by exactly one router — so the slot-wise sum reproduces the
    /// single-router view exactly. Live; exact once ingestion is
    /// flushed.
    pub fn scan_stats(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for counters in &self.scan_counters {
            let snap = counters.snapshot();
            if out.len() < snap.len() {
                out.resize(snap.len(), (0, 0));
            }
            for (acc, s) in out.iter_mut().zip(snap) {
                acc.0 += s.0;
                acc.1 += s.1;
            }
        }
        out
    }

    /// The fill buffer (uniquely owned between flushes).
    fn buf(&mut self) -> &mut EventBatch {
        Arc::get_mut(&mut self.buffer).expect("fill buffer is uniquely owned between flushes")
    }

    /// Enqueue a time-ordered columnar batch (any size; it is re-chunked
    /// to the flush threshold internally). Copies the rows into the
    /// internal buffer; callers that already own an [`Arc`]-shared batch
    /// should prefer the zero-copy [`ShardedExecutor::process_shared`].
    pub fn process_columnar(&mut self, batch: &EventBatch) {
        let mut lo = 0;
        while lo < batch.len() {
            let free = self.batch_size.saturating_sub(self.buffer.len()).max(1);
            let hi = (lo + free).min(batch.len());
            self.buf().extend_from_range(batch, lo, hi);
            lo = hi;
            if self.buffer.len() >= self.batch_size {
                self.flush();
            }
        }
    }

    /// Zero-copy ingestion of an [`Arc`]-shared columnar batch: routes
    /// consecutive row ranges of `batch` directly (one flush-threshold
    /// chunk at a time, preserving pipelining) and ships workers the
    /// shared batch plus absolute row indexes — the batch is never copied.
    ///
    /// Events must be time-ordered relative to everything already
    /// ingested; any buffered rows are flushed first to preserve order.
    pub fn process_shared(&mut self, batch: &Arc<EventBatch>) {
        self.flush();
        let mut lo = 0;
        while lo < batch.len() {
            let hi = (lo + self.batch_size).min(batch.len());
            self.dispatch_range(batch, lo, hi);
            lo = hi;
        }
    }

    /// Drain a stream through the executor.
    pub fn run(&mut self, mut stream: impl EventStream) -> &mut Self {
        loop {
            let free = self.batch_size.saturating_sub(self.buffer.len()).max(1);
            if stream.next_batch_columnar(free, self.buf()) == 0 {
                break;
            }
            if self.buffer.len() >= self.batch_size {
                self.flush();
            }
        }
        self
    }

    /// A cleared batch body for the next fill: a drained in-flight batch
    /// when one is available (its `Arc` count fell back to 1), a fresh
    /// allocation otherwise.
    fn take_spare_batch(&mut self) -> Arc<EventBatch> {
        for i in 0..self.batch_pool.len() {
            if Arc::strong_count(&self.batch_pool[i]) == 1 {
                let mut arc = self.batch_pool.swap_remove(i);
                Arc::get_mut(&mut arc).expect("strong count was 1").clear();
                return arc;
            }
        }
        Arc::new(EventBatch::with_capacity(self.batch_size, 2))
    }

    /// Hand the buffered batch to the router threads.
    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let spare = self.take_spare_batch();
        let batch = std::mem::replace(&mut self.buffer, spare);
        let len = batch.len();
        self.dispatch_range(&batch, 0, len);
        // keep the body in the pool for reuse once its consumers drop it;
        // the cap covers the worker rings plus the router pipeline so a
        // slow shard cannot make the pool grow without bound
        if self.batch_pool.len() < 2 * RING_DEPTH + JOB_RING_DEPTH {
            self.batch_pool.push(batch);
        }
    }

    /// Send one message to every router's job ring, in router order, so
    /// every lane of every worker observes the same message sequence. A
    /// full ring blocks — the pipeline's backpressure — and a dead router
    /// thread flips `cancel` so `finish` reports it.
    fn broadcast(&mut self, msg: impl Fn() -> RouterMsg) {
        for rt in self.routers.as_mut().expect("executor is active") {
            if rt.jobs.send(msg()).is_err() {
                self.cancel.store(true, Ordering::Release);
            }
        }
    }

    /// Send rows `lo..hi` of `batch` to the router threads, then run
    /// the per-batch durability hooks (fault injection, periodic
    /// checkpoints). With both disabled the hooks cost two integer
    /// checks — the zero-allocation steady state is untouched.
    fn dispatch_range(&mut self, batch: &Arc<EventBatch>, lo: usize, hi: usize) {
        if self.fault_check() {
            return; // "crashed": the rest of the stream is lost
        }
        // cold path: a `reorder@N:K` fault replaces this batch with a
        // disorder burst — the same rows, each displaced at most K
        // positions (the stream generators' disorder model)
        let scrambled;
        let batch = match self.fault {
            Some(FaultPlan::Reorder { batch: at, k }) if self.batches_sent == at => {
                scrambled = Arc::new(reorder_burst(batch, lo, hi, k));
                &scrambled
            }
            _ => batch,
        };
        self.events_sent += (hi - lo) as u64;
        let seq = self.batches_sent;
        // every router routes every batch, each against its own scopes
        self.broadcast(|| {
            RouterMsg::Route(RouteJob {
                batch: Arc::clone(batch),
                lo,
                hi,
                seq,
            })
        });
        self.batches_sent += 1;
        self.maybe_checkpoint();
    }

    /// Evaluate the armed ingest-side fault plan; returns `true` when the
    /// run is (now or already) simulated-dead and the batch must be
    /// dropped. `Abort` hard-kills the process — the external
    /// kill-and-resume harness relies on that being indistinguishable
    /// from a real crash. `Reorder` is handled in
    /// [`ShardedExecutor::dispatch_range`] itself: it mutates the batch
    /// rather than killing the run.
    fn fault_check(&mut self) -> bool {
        if self.fault_tripped.is_some() {
            return true;
        }
        match self.fault {
            Some(FaultPlan::Drop { batch }) if self.batches_sent >= batch => {
                self.cancel.store(true, Ordering::Release);
                self.fault_tripped = Some(batch);
                true
            }
            Some(FaultPlan::Abort { batch }) if self.batches_sent >= batch => {
                eprintln!("sharon: injected fault abort@{batch}: aborting process");
                std::process::abort();
            }
            _ => false,
        }
    }

    /// Take a periodic checkpoint when one is due. Failing to persist a
    /// checkpoint that was asked for is fatal: a run that silently stops
    /// checkpointing would resume from an arbitrarily stale offset.
    fn maybe_checkpoint(&mut self) {
        let due = self
            .checkpointer
            .as_ref()
            .is_some_and(|c| self.batches_sent.is_multiple_of(c.interval_batches));
        if due {
            if let Err(e) = self.take_checkpoint() {
                panic!("periodic checkpoint failed: {e}");
            }
        }
    }

    /// Inject a barrier behind everything sent so far, wait for every
    /// shard's state deposit, and persist the checkpoint.
    fn take_checkpoint(&mut self) -> Result<u64, CheckpointError> {
        let barrier: BarrierRef = Arc::new(CheckpointBarrier::new(self.n_routers, self.n_shards));
        // the barrier rides every router's job ring in-band, so each
        // router segment (and each shard's lane barrier) covers exactly
        // the batches routed before it
        self.broadcast(|| RouterMsg::Barrier(Arc::clone(&barrier)));
        let (routers, shards) = barrier.wait(&self.cancel)?;
        let ck = self
            .checkpointer
            .as_ref()
            .expect("checkpoint requires a configured store");
        let id = ck.store.next_id()?;
        ck.store.write(id, self.events_sent, &routers, &shards)?;
        sharon_metrics::record_checkpoints_written(1);
        Ok(id)
    }

    /// Flush the ingest buffer and take a checkpoint **now**, regardless
    /// of the periodic interval. Returns the new checkpoint's id.
    ///
    /// Panics if the runtime was built without
    /// [`ShardedOptions::checkpoint`].
    pub fn checkpoint_now(&mut self) -> Result<u64, CheckpointError> {
        assert!(
            self.checkpointer.is_some(),
            "checkpoint_now requires a configured checkpoint store"
        );
        self.flush();
        self.take_checkpoint()
    }

    /// Flush the ingest buffer and harvest every shard's results emitted
    /// so far, **without** stopping the runtime: open windows keep their
    /// state and surface in a later harvest or at
    /// [`ShardedExecutor::finish`]. The harvest travels the same in-band
    /// barrier path as a checkpoint, so the returned results cover
    /// exactly the batches ingested before the call — this is the epoch
    /// drain backing the session layer's `drain_results`.
    ///
    /// Fails with [`CheckpointError::Mismatch`] for shard processors that
    /// cannot harvest mid-stream (the two-step baselines), and with
    /// [`CheckpointError::Corrupt`] if a runtime thread died.
    pub fn harvest_results(&mut self) -> Result<ExecutorResults, CheckpointError> {
        self.flush();
        let barrier: HarvestRef = Arc::new(CheckpointBarrier::new(self.n_routers, self.n_shards));
        self.broadcast(|| RouterMsg::Harvest(Arc::clone(&barrier)));
        let (_routers, shards) = barrier.wait(&self.cancel)?;
        let mut out = ExecutorResults::new();
        for results in shards {
            out.merge(results);
        }
        Ok(out)
    }

    /// Flush remaining events, stop the workers, and merge their results
    /// in deterministic shard order. Shard result sets are disjoint (each
    /// group is owned by exactly one shard), so that merge is exact.
    pub fn finish(self) -> ExecutorResults {
        self.finish_with_stats().0
    }

    /// [`ShardedExecutor::finish`] plus runtime statistics:
    /// `(results, events_matched, summed state-size proxy)`.
    ///
    /// Fails fast — panics with an error naming the dead thread — when
    /// any worker or the router thread panicked mid-run (including
    /// injected faults): partial results are discarded, never merged, so
    /// a half-dead run can never masquerade as a complete one.
    pub fn finish_with_stats(mut self) -> (ExecutorResults, u64, usize) {
        self.flush();
        if let Some(batch) = self.fault_tripped {
            // a Drop-fault is a simulated crash: the Drop impl tears the
            // stage down during this unwind (cancel is already set)
            panic!(
                "injected fault: simulated crash at ingested batch {batch} (buffered state lost)"
            );
        }
        // teardown order is the flush contract: the routers drain every
        // queued job and close their worker lanes before the shards are
        // joined, so no routed batch is lost and every ShardReport is
        // complete
        let failed_routers = join_routers(self.routers.take().expect("finish runs once"));
        // all rings are closed: join the shards in deterministic order
        let workers = std::mem::take(&mut self.workers);
        let mut results = ExecutorResults::new();
        let mut matched = 0u64;
        let mut state = 0usize;
        let mut failed_shards = Vec::new();
        for (shard, worker) in workers.into_iter().enumerate() {
            match worker.handle.join() {
                Ok(report) => {
                    results.merge(report.results);
                    matched += report.events_matched;
                    state += report.state_size;
                }
                Err(_) => failed_shards.push(shard),
            }
        }
        if !failed_routers.is_empty() || !failed_shards.is_empty() {
            let mut parts = Vec::new();
            if !failed_routers.is_empty() {
                parts.push(format!("router thread(s) {failed_routers:?} panicked"));
            }
            if !failed_shards.is_empty() {
                parts.push(format!("worker shard(s) {failed_shards:?} panicked"));
            }
            panic!(
                "sharded runtime failed: {} — partial results discarded",
                parts.join("; ")
            );
        }
        (results, matched, state)
    }
}

impl Drop for ShardedExecutor {
    /// Dropping without [`ShardedExecutor::finish`] *aborts* the run: the
    /// router thread and the workers are told to discard queued batches
    /// (they only complete the item currently in flight) and are joined,
    /// so an abandoned executor — e.g. a capped bench run reporting DNF —
    /// never leaves detached threads grinding through polynomial two-step
    /// work behind the next measurement.
    fn drop(&mut self) {
        let Some(threads) = self.routers.take() else {
            return; // finished normally: threads already joined
        };
        self.cancel.store(true, Ordering::Relaxed);
        join_routers(threads);
        for worker in std::mem::take(&mut self.workers) {
            let _ = worker.handle.join();
        }
    }
}

impl BatchProcessor for ShardedExecutor {
    fn process_columnar(&mut self, batch: &EventBatch) {
        ShardedExecutor::process_columnar(self, batch);
    }

    fn events_matched(&self) -> u64 {
        ShardedExecutor::events_matched(self)
    }

    fn scan_stats(&self) -> Vec<(u64, u64)> {
        ShardedExecutor::scan_stats(self)
    }

    /// Zero mid-run: late-drop counts live on the worker threads; the
    /// global [`sharon_metrics::late_rows_dropped`] counter carries the
    /// exact total (every owner-copy drop records there once).
    fn late_rows_dropped(&self) -> u64 {
        0
    }

    /// Zero: the state lives on the worker threads (the exact total is
    /// reported by [`ShardedExecutor::finish_with_stats`]).
    fn state_size(&self) -> usize {
        0
    }

    fn finish(self: Box<Self>) -> (ExecutorResults, u64) {
        let (results, matched, _state) = (*self).finish_with_stats();
        (results, matched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Executor;
    use sharon_query::{parse_workload, QueryId};
    use sharon_types::{Event, GroupKey, Schema, Timestamp, Value};

    fn grouped_workload() -> (Catalog, Workload) {
        let mut c = Catalog::new();
        c.register_with_schema("A", Schema::new(["g", "v"]));
        c.register_with_schema("B", Schema::new(["g", "v"]));
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY g WITHIN 10 ms SLIDE 2 ms",
                "RETURN SUM(B.v) PATTERN SEQ(A, B) GROUP BY g WITHIN 10 ms SLIDE 2 ms",
            ],
        )
        .unwrap();
        (c, w)
    }

    fn stream(c: &Catalog, n: u64, groups: i64) -> Vec<Event> {
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        // consecutive (A, B) pairs share a group, so matches exist for any
        // group cardinality; pairs from different groups interleave freely
        (0..n)
            .map(|i| {
                let ty = if i % 2 == 0 { a } else { b };
                Event::with_attrs(
                    ty,
                    Timestamp(i),
                    vec![
                        Value::Int((i / 2) as i64 % groups),
                        Value::Int((i % 7) as i64),
                    ],
                )
            })
            .collect()
    }

    /// The non-shared (A-Seq) sharded runtime at a given flush threshold.
    fn non_shared(c: &Catalog, w: &Workload, shards: usize, batch_size: usize) -> ShardedExecutor {
        let options = ShardedOptions {
            batch_size,
            ..ShardedOptions::default()
        };
        ShardedExecutor::with_options(c, w, &SharingPlan::non_shared(), shards, options).unwrap()
    }

    fn test_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sharon-sharded-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn matches_sequential_across_shard_counts() {
        let (c, w) = grouped_workload();
        let events = stream(&c, 4000, 37);

        let mut sequential = Executor::non_shared(&c, &w).unwrap();
        sequential.process_columnar(&EventBatch::from_events(&events));
        let want_matched = sequential.events_matched();
        let want = sequential.finish();
        assert!(!want.is_empty());

        for shards in [1usize, 2, 3, 8] {
            let mut sharded = non_shared(&c, &w, shards, DEFAULT_BATCH_SIZE);
            for chunk in events.chunks(97) {
                sharded.process_columnar(&EventBatch::from_events(chunk));
            }
            let (got, matched, _state) = sharded.finish_with_stats();
            assert!(
                got.semantically_eq(&want, 1e-9),
                "{shards} shards diverge from sequential"
            );
            assert_eq!(matched, want_matched, "{shards} shards: matched count");
        }
    }

    #[test]
    fn columnar_ingestion_matches_row_form() {
        let (c, w) = grouped_workload();
        let events = stream(&c, 3000, 19);
        let batch = EventBatch::from_events(&events);

        let mut sequential = Executor::non_shared(&c, &w).unwrap();
        sequential.process_columnar(&batch);
        let want = sequential.finish();

        // one oversized columnar push: re-chunked internally
        let mut sharded = non_shared(&c, &w, 3, DEFAULT_BATCH_SIZE);
        sharded.process_columnar(&batch);
        let got = sharded.finish();
        assert!(got.semantically_eq(&want, 1e-9));

        // the zero-copy shared-batch path agrees too (after a few
        // buffered rows, to cover the order-preserving pre-flush)
        let (head, tail) = events.split_at(100);
        let shared = Arc::new(EventBatch::from_events(tail));
        let mut sharded = non_shared(&c, &w, 3, DEFAULT_BATCH_SIZE);
        sharded.process_columnar(&EventBatch::from_events(head));
        sharded.process_shared(&shared);
        let (got, matched, _) = sharded.finish_with_stats();
        assert!(got.semantically_eq(&want, 1e-9));
        assert!(matched > 0);
    }

    #[test]
    fn global_partitions_are_owned_once() {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 ms SLIDE 10 ms",
                "RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 20 ms SLIDE 10 ms",
            ],
        )
        .unwrap();
        let a = c.lookup("A").unwrap();
        let b = c.lookup("B").unwrap();
        let events: Vec<Event> = (0..100)
            .map(|i| Event::new(if i % 2 == 0 { a } else { b }, Timestamp(i)))
            .collect();

        let mut sequential = Executor::non_shared(&c, &w).unwrap();
        sequential.process_columnar(&EventBatch::from_events(&events));
        let want = sequential.finish();

        let mut sharded = non_shared(&c, &w, 4, DEFAULT_BATCH_SIZE);
        sharded.process_columnar(&EventBatch::from_events(&events));
        let got = sharded.finish();
        assert!(got.semantically_eq(&want, 1e-9));
        assert!(got.total_count(QueryId(0)) > 0);
        assert_eq!(
            got.get(QueryId(0), &GroupKey::Global, Timestamp(20))
                .is_some(),
            want.get(QueryId(0), &GroupKey::Global, Timestamp(20))
                .is_some()
        );
    }

    #[test]
    fn per_event_ingestion_flushes_on_threshold() {
        let (c, w) = grouped_workload();
        let events = stream(&c, 500, 5);
        let mut sequential = Executor::non_shared(&c, &w).unwrap();
        sequential.process_columnar(&EventBatch::from_events(&events));
        let want = sequential.finish();

        let mut sharded = non_shared(&c, &w, 2, 64);
        for e in &events {
            sharded.process_columnar(&EventBatch::from_events(std::slice::from_ref(e)));
        }
        let got = sharded.finish();
        assert!(got.semantically_eq(&want, 1e-9));
    }

    #[test]
    fn drop_without_finish_aborts_and_joins_workers() {
        // dropping mid-stream must not hang and must not leave router or
        // worker threads draining queued work (the bench DNF path)
        let (c, w) = grouped_workload();
        let events = stream(&c, 2000, 11);
        let mut sharded = non_shared(&c, &w, 3, 64);
        sharded.process_columnar(&EventBatch::from_events(&events));
        drop(sharded); // joins; a deadlock here fails the test by timeout
    }

    #[test]
    fn flush_recycles_batch_bodies_and_row_lists() {
        // many small flushes: after the pipeline warms up, batch bodies
        // and row lists circulate through the pools instead of being
        // reallocated (asserted indirectly: results stay exact and the
        // pools are non-empty mid-run)
        let (c, w) = grouped_workload();
        let events = stream(&c, 3000, 7);
        let mut sequential = Executor::non_shared(&c, &w).unwrap();
        sequential.process_columnar(&EventBatch::from_events(&events));
        let want = sequential.finish();

        let mut sharded = non_shared(&c, &w, 2, 32);
        sharded.process_columnar(&EventBatch::from_events(&events));
        assert!(
            !sharded.batch_pool.is_empty(),
            "flushed batch bodies are pooled for reuse"
        );
        let got = sharded.finish();
        assert!(got.semantically_eq(&want, 1e-9));
    }

    #[test]
    fn zero_shards_is_a_typed_error() {
        let (c, w) = grouped_workload();
        let err = ShardedExecutor::with_options(
            &c,
            &w,
            &SharingPlan::non_shared(),
            0,
            ShardedOptions::default(),
        )
        .err()
        .expect("zero shards must not build");
        assert_eq!(
            err,
            CompileError::ZeroShards {
                strategy: "online engine"
            }
        );
    }

    #[test]
    fn multi_router_plane_matches_sequential() {
        let (c, w) = grouped_workload();
        let events = stream(&c, 5000, 23);
        let mut sequential = Executor::non_shared(&c, &w).unwrap();
        sequential.process_columnar(&EventBatch::from_events(&events));
        let want_matched = sequential.events_matched();
        let want = sequential.finish();

        let plan = SharingPlan::non_shared();
        for routers in [2usize, 4] {
            let mut sharded = ShardedExecutor::with_options(
                &c,
                &w,
                &plan,
                3,
                ShardedOptions {
                    batch_size: 128,
                    routers,
                    ..ShardedOptions::default()
                },
            )
            .unwrap();
            assert_eq!(sharded.n_routers(), routers);
            sharded.process_columnar(&EventBatch::from_events(&events));

            // the stats barrier covers every batch: ingest fans each batch
            // to the whole plane, so every router routes the same count
            let stats = sharded.router_stats();
            assert_eq!(stats.len(), routers);
            let batches = stats[0].batches_routed;
            assert!(batches > 0, "routers saw traffic");
            assert!(
                stats.iter().all(|s| s.batches_routed == batches),
                "fan-out reaches every router equally: {stats:?}"
            );

            let (got, matched, _) = sharded.finish_with_stats();
            assert!(
                got.semantically_eq(&want, 1e-9),
                "{routers}-router plane diverges from sequential"
            );
            assert_eq!(matched, want_matched, "{routers} routers: matched count");
        }
    }

    #[test]
    fn harvest_then_finish_equals_uninterrupted_run() {
        // 97 groups, a harvest after every ingested batch: every harvest
        // hands the workers' logs and key tables away, so each group
        // interns afresh in each epoch it emits in — ids must never leak
        // from one epoch's table into the next
        let (c, w) = grouped_workload();
        let events = stream(&c, 4000, 97);
        let mut sequential = Executor::non_shared(&c, &w).unwrap();
        sequential.process_columnar(&EventBatch::from_events(&events));
        let want = sequential.finish();
        let tracked = GroupKey::One(Value::Int(0));

        for shards in [1usize, 2, 4] {
            let mut sharded = non_shared(&c, &w, shards, 64);
            let mut drained = ExecutorResults::new();
            let (mut epochs, mut epochs_with_tracked) = (0, 0);
            for batch in events.chunks(64) {
                sharded.process_columnar(&EventBatch::from_events(batch));
                let epoch = sharded.harvest_results().expect("harvest");
                epochs += usize::from(!epoch.is_empty());
                epochs_with_tracked +=
                    usize::from(epoch.rows().any(|r| *epoch.group(r.1) == tracked));
                drained.merge(epoch);
            }
            drained.merge(sharded.finish());
            assert!(
                drained.semantically_eq(&want, 1e-9),
                "{shards} shards: harvested epochs + finish diverge ({} vs {} results)",
                drained.len(),
                want.len(),
            );
            assert!(
                epochs > 30 && epochs_with_tracked > 10,
                "{shards} shards: mid-stream harvests yield closed windows \
                 ({epochs} epochs, group 0 in {epochs_with_tracked})"
            );
        }
    }

    #[test]
    fn checkpoint_and_resume_match_uninterrupted_run() {
        let (c, w) = grouped_workload();
        let events = stream(&c, 4000, 37);
        let mut sequential = Executor::non_shared(&c, &w).unwrap();
        sequential.process_columnar(&EventBatch::from_events(&events));
        let want_matched = sequential.events_matched();
        let want = sequential.finish();

        let plan = SharingPlan::non_shared();
        let dir = test_dir("resume");
        let options = ShardedOptions {
            batch_size: 128,
            checkpoint: Some(CheckpointConfig::every(&dir, 4)),
            ..ShardedOptions::default()
        };
        let written_before = sharon_metrics::checkpoints_written();
        let mut sharded = ShardedExecutor::with_options(&c, &w, &plan, 3, options.clone()).unwrap();
        sharded.process_columnar(&EventBatch::from_events(&events[..2400]));
        assert!(
            sharon_metrics::checkpoints_written() >= written_before + 4,
            "periodic checkpoints were taken"
        );
        drop(sharded); // simulated crash: buffered + post-checkpoint state lost

        let (mut resumed, offset) = ShardedExecutor::resume(&c, &w, &plan, 3, options).unwrap();
        assert_eq!(
            offset, 2048,
            "latest complete checkpoint is 16 batches of 128"
        );
        assert_eq!(resumed.events_sent(), offset);
        resumed.process_columnar(&EventBatch::from_events(&events[offset as usize..]));
        let (got, matched, _) = resumed.finish_with_stats();
        assert!(
            got.semantically_eq(&want, 1e-9),
            "resumed run diverges from uninterrupted"
        );
        assert_eq!(matched, want_matched, "matched count");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_panic_cancels_the_run_and_finish_fails_fast() {
        let (c, w) = grouped_workload();
        let events = stream(&c, 2000, 11);
        let options = ShardedOptions {
            batch_size: 64,
            fault: Some(FaultPlan::PanicWorker { batch: 2, shard: 1 }),
            ..ShardedOptions::default()
        };
        let sharded =
            ShardedExecutor::with_options(&c, &w, &SharingPlan::non_shared(), 3, options).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let mut sharded = sharded;
            sharded.process_columnar(&EventBatch::from_events(&events));
            sharded.finish()
        }));
        let err = result.expect_err("a panicked worker must fail the run");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("worker shard"),
            "unexpected panic message: {msg:?}"
        );
    }

    #[test]
    fn drop_fault_stops_ingest_and_fails_finish() {
        let (c, w) = grouped_workload();
        let events = stream(&c, 1000, 7);
        let plan = SharingPlan::non_shared();
        let options = ShardedOptions {
            batch_size: 64,
            fault: Some(FaultPlan::Drop { batch: 3 }),
            ..ShardedOptions::default()
        };
        let mut sharded = ShardedExecutor::with_options(&c, &w, &plan, 2, options).unwrap();
        sharded.process_columnar(&EventBatch::from_events(&events));
        assert_eq!(
            sharded.events_sent(),
            3 * 64,
            "ingest stops dead at the faulted batch"
        );
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || sharded.finish()));
        let err = result.expect_err("a dropped run must not report results");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("injected fault"),
            "unexpected panic message: {msg:?}"
        );
    }

    #[test]
    fn resume_without_a_checkpoint_reports_missing() {
        let (c, w) = grouped_workload();
        let plan = SharingPlan::non_shared();

        // an empty (just-created) store has nothing to resume from
        let dir = test_dir("empty-store");
        let options = ShardedOptions {
            checkpoint: Some(CheckpointConfig::every(&dir, 8)),
            ..ShardedOptions::default()
        };
        let err = ShardedExecutor::resume(&c, &w, &plan, 2, options)
            .err()
            .expect("resume from an empty store must fail");
        assert!(
            matches!(err, CheckpointError::Missing),
            "expected Missing, got {err:?}"
        );

        // resuming without a configured store is a usage error
        let err = ShardedExecutor::resume(&c, &w, &plan, 2, ShardedOptions::default())
            .err()
            .expect("resume without a store must fail");
        assert!(
            matches!(err, CheckpointError::Mismatch(_)),
            "expected Mismatch, got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_tier_keeps_sharded_results_exact() {
        let (c, w) = grouped_workload();
        let events = stream(&c, 3000, 53);
        let mut sequential = Executor::non_shared(&c, &w).unwrap();
        sequential.process_columnar(&EventBatch::from_events(&events));
        let want = sequential.finish();

        let dir = test_dir("spill");
        let plan = SharingPlan::non_shared();
        let options = ShardedOptions {
            batch_size: 128,
            spill: Some(SpillConfig::new(&dir, 8)),
            ..ShardedOptions::default()
        };
        let spills_before = sharon_metrics::group_spills();
        let mut sharded = ShardedExecutor::with_options(&c, &w, &plan, 2, options).unwrap();
        sharded.process_columnar(&EventBatch::from_events(&events));
        let got = sharded.finish();
        assert!(
            got.semantically_eq(&want, 1e-9),
            "spilled run diverges from sequential"
        );
        assert!(
            sharon_metrics::group_spills() > spills_before,
            "cold groups actually paged out"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
