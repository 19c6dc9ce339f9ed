//! The sharded parallel runtime with a **pipelined ingest stage** and a
//! **durability tier** (consistent checkpoints, crash-exact resume, panic
//! containment).
//!
//! `GROUP BY` partitions are independent by construction — "a result is
//! returned per group and per window" (Definition 2) and no engine state is
//! ever shared across groups — and compiled partitions (sharing-signature
//! classes, §7.2) never interact either. The online strategies are
//! therefore embarrassingly parallel along two axes, and
//! [`ShardedExecutor`] exploits both:
//!
//! * **group axis** — every worker shard owns, for each routing scope,
//!   the disjoint slice of groups whose key hash lands on its index (the
//!   router assigns them: [`crate::router`]);
//! * **scope axis** — the global (no `GROUP BY`) rows of scope `p` are
//!   assigned to worker `p mod N`, spreading independent scopes over the
//!   shards.
//!
//! Each worker hosts one [`Executor`] (`executor.rs`) over shard-slice
//! online [`Engine`]s — the same type that runs sequentially, whose
//! group table holds only the shard's groups — so sharding is a pure
//! work partition: shard results
//! are disjoint and merge exactly. [`ShardedExecutor::finish`] merges
//! them in deterministic shard order; determinism tests assert
//! `semantically_eq` with the sequential path for every shard count and
//! every online strategy. The two-step baselines run sequentially only.
//!
//! Events are ingested into a columnar [`EventBatch`] and **routed once**:
//! the routing side runs the stateless prefix of the event path — routing,
//! predicate evaluation, group-key hashing — a single time per event (see
//! [`crate::router::BatchRouter`]) and ships each worker the [`Arc`]-shared
//! batch plus the row-index lists it owns. Workers consume their routed
//! rows and never evaluate predicates or extract keys for rows they do not
//! own. Transfers ride bounded [`std::sync::mpsc::sync_channel`]s, one
//! per worker (the *worker rings*); a full one blocks its sender, which is
//! the backpressure against slow shards.
//!
//! # Pipelined ingest
//!
//! Routing is the serial stage of the runtime, so it never runs on the
//! ingest thread: a dedicated *router thread* owns the [`BatchRouter`] and
//! the worker rings, and the ingest thread hands it filled batches over
//! one more bounded channel, the *job ring* (double-buffered — its depth
//! is the backpressure): the router routes batch `k + 1` while the shard
//! workers execute batch `k` and the ingest thread buffers batch `k + 2`.
//!
//! There is exactly one router thread. Its per-event cost is a type pass
//! plus one kernel per scope. A plane that split the scopes across several
//! router threads, with a lane merge at every worker, read ×0.97–1.11 of
//! one router's throughput on 2 cores and was deleted; it would earn its
//! place back only if, on four or more cores, the router's ns/event
//! exceeded a worker's. The worker rings were once a hand-rolled SPSC
//! ring; std's channel read every end-to-end metric within its bound.
//!
//! Every hand-off buffer is **recycled**: each worker returns its consumed
//! row-index lists through a return ring drained by the router, and
//! batch bodies — kept in [`Arc`]s end to end, including the fill buffer —
//! return to an ingest-side pool once their `Arc` count drains, so the
//! pipelined steady state performs no batch-, list-, or `Arc`-granular
//! allocation. With checkpointing disabled the durability hook reduces to
//! one check per batch — the zero-allocation steady state is unchanged
//! (pinned by `tests/alloc_regression.rs`).
//!
//! # Durability
//!
//! With a [`CheckpointConfig`] (see [`ShardedOptions::checkpoint`]) the
//! runtime takes a **consistent checkpoint** every `interval_batches` ingested
//! batches: a [`CheckpointBarrier`] message flows through the *same*
//! rings as the data — ingest→router job ring first, then every worker
//! ring — so each shard deposits its serialized engine state after
//! exactly the batches routed before the barrier. No pause, no global
//! lock: the barrier rides the pipeline. The router deposits its
//! frontier, and the ingest thread writes the segments plus a
//! checksummed manifest through [`CheckpointStore`] (segments first,
//! manifest renamed into place last, so a torn checkpoint is never
//! *latest*; the store keeps two generations). [`ShardedExecutor::resume`]
//! rebuilds the runtime from the latest complete checkpoint and returns
//! the stream offset to replay from — results after replay are identical
//! to an uninterrupted run. A crash needs no simulation: dropping the
//! executor mid-stream (or killing the process) loses exactly the
//! buffered and post-checkpoint state a real crash loses.
//!
//! Failures are **contained and loud**: a worker or router panic flips
//! the shared cancel flag (so every other thread drains instead of
//! grinding on), and [`ShardedExecutor::finish`] fails fast with an error
//! naming the dead thread instead of silently merging partial results.
//! [`FaultPlan::PanicWorker`] injects such a panic into a chosen worker
//! at a chosen batch, which is how the containment tests earn their
//! confidence.
//!
//! Shutdown is ordered: [`ShardedExecutor::finish`] closes the
//! ingest→router ring *first* — the ring's close-then-drain semantics are
//! the poison/flush message, so the router thread routes every in-flight
//! job before returning — and only then closes the worker rings, so every
//! worker's [`RunReport`] covers the complete stream.
//!
//! [`Engine`]: crate::engine::Engine

use crate::checkpoint::{
    BarrierRef, CheckpointBarrier, CheckpointConfig, CheckpointError, CheckpointStore, FaultPlan,
    HarvestRef, StateReader, StateWriter,
};
use crate::compile::{compile, CompileError, CompiledPartition};
use crate::executor::{EngineKind, Executor};
use crate::front::ScanFront;
use crate::processor::{BatchProcessor, RunReport};
use crate::results::ExecutorResults;
use crate::router::{BatchRouter, RoutedRows};
use crate::scan::ScanCounters;
use sharon_query::{SharingPlan, Workload};
use sharon_types::{Catalog, EventBatch};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Default number of events buffered before a batch is routed and fanned
/// out.
pub const DEFAULT_BATCH_SIZE: usize = 4096;

/// Bounded depth of each worker's channel: a router `send` into a full
/// one blocks until the worker catches up (backpressure).
const RING_DEPTH: usize = 4;

/// Depth of the ingest→router job ring: double-buffered hand-off (the
/// router routes one batch while the ingest thread fills the next).
const JOB_RING_DEPTH: usize = 2;

/// One routed batch in flight to one worker: the shared columnar batch
/// plus this worker's per-scope row lists.
struct RoutedBatch {
    batch: Arc<EventBatch>,
    rows: RoutedRows,
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

/// What the ingest→router job ring carries (same in-band ordering).
enum RouterMsg {
    /// Route absolute rows `lo..hi` of the shared batch.
    Route {
        batch: Arc<EventBatch>,
        lo: usize,
        hi: usize,
    },
    Barrier(BarrierRef),
    Harvest(HarvestRef),
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

/// The router's endpoints of one worker lane: the routed-batch ring in,
/// the recycled row lists out.
struct WorkerChannel {
    sender: SyncSender<WorkerMsg>,
    returns: Receiver<RoutedRows>,
}

/// The worker's endpoints of its lane: the routed-batch ring out of the
/// router, and the return ring its consumed row lists recycle through.
struct WorkerLane {
    rx: Receiver<WorkerMsg>,
    ret: SyncSender<RoutedRows>,
}

/// The ingest side's handle on one worker thread.
struct WorkerHandle {
    handle: JoinHandle<RunReport>,
    /// Events this shard has matched so far, published after every batch
    /// so [`ShardedExecutor::events_matched`] can report live progress.
    matched: Arc<AtomicU64>,
}

/// The complete routing stage: the [`BatchRouter`], the worker rings (one
/// lane per worker), and the recycling pools. Moved wholesale onto the
/// router thread; dropping it closes every worker lane.
struct Fanout {
    router: BatchRouter,
    channels: Vec<WorkerChannel>,
    /// Recycled row lists (refilled from the workers' return rings).
    rows_pool: Vec<RoutedRows>,
    /// Reused output slots of `route_range_into`.
    route_scratch: Vec<RoutedRows>,
}

impl Fanout {
    /// Route rows `lo..hi` of `batch` once and send each worker the
    /// shared batch plus its owned row-index lists; a worker with no
    /// owned rows is not woken at all. A worker whose ring closed early
    /// (its thread panicked) flips `cancel` instead of cascading the
    /// panic into the router — `finish` reports the dead shard.
    ///
    /// NOTE: `tests/alloc_regression.rs` (the pipelined steady-state
    /// test) mirrors this recycling protocol step by step on one thread
    /// to pin it at zero allocations deterministically — keep the two in
    /// sync when changing the pool/scratch handling here.
    fn dispatch(&mut self, batch: &Arc<EventBatch>, lo: usize, hi: usize, cancel: &AtomicBool) {
        let n_shards = self.channels.len();
        // drain the return rings: consumed row lists become routing slots
        let rows_cap = n_shards * (RING_DEPTH + 2);
        for ch in &self.channels {
            for rows in ch.returns.try_iter() {
                if self.rows_pool.len() < rows_cap {
                    self.rows_pool.push(rows);
                }
            }
        }
        let mut out = std::mem::take(&mut self.route_scratch);
        while out.len() < n_shards {
            out.push(self.rows_pool.pop().unwrap_or_default());
        }
        self.router.route_range_into(batch, lo, hi, &mut out);
        for (ch, rows) in self.channels.iter().zip(out.drain(..)) {
            if rows.is_empty() {
                if self.rows_pool.len() < rows_cap {
                    self.rows_pool.push(rows);
                }
                continue;
            }
            let msg = WorkerMsg::Batch(RoutedBatch {
                batch: Arc::clone(batch),
                rows,
            });
            match ch.sender.try_send(msg) {
                Ok(()) => {}
                Err(TrySendError::Full(msg)) => {
                    // count the stall, then block: that wait is the
                    // backpressure
                    sharon_metrics::record_router_stall_waits(1);
                    if ch.sender.send(msg).is_err() {
                        cancel.store(true, Ordering::Release);
                    }
                }
                // a dead lane is not backpressure
                Err(TrySendError::Disconnected(_)) => cancel.store(true, Ordering::Release),
            }
        }
        self.route_scratch = out;
        sharon_metrics::record_router_batches_routed(1);
    }

    /// Send `msg()` down every worker lane, in-band behind all previously
    /// routed batches. Dead rings flip `cancel` — the barrier wait then
    /// fails instead of hanging.
    fn send_all(&self, msg: impl Fn() -> WorkerMsg, cancel: &AtomicBool) {
        for ch in &self.channels {
            if ch.sender.send(msg()).is_err() {
                cancel.store(true, Ordering::Release);
            }
        }
    }

    /// Inject a checkpoint barrier: serialize the router's own state,
    /// send the barrier down every worker lane, and deposit the router
    /// segment into the barrier.
    fn send_barrier(&mut self, barrier: &BarrierRef, cancel: &AtomicBool) {
        let mut w = StateWriter::new();
        self.router.save_state(&mut w);
        self.send_all(|| WorkerMsg::Barrier(Arc::clone(barrier)), cancel);
        barrier.fill_router(w.into_bytes());
    }

    /// Inject a result-harvest barrier: same in-band ordering as
    /// [`Fanout::send_barrier`], but workers deposit (and clear) their
    /// emitted results instead of their engine state. The router has no
    /// results of its own, so its segment is empty.
    fn send_harvest(&self, barrier: &HarvestRef, cancel: &AtomicBool) {
        self.send_all(|| WorkerMsg::Harvest(Arc::clone(barrier)), cancel);
        barrier.fill_router(Vec::new());
    }
}

/// The ingest thread's handle on the router thread.
struct RouterThread {
    jobs: SyncSender<RouterMsg>,
    /// Returns the [`Fanout`] at end-of-stream so `finish` controls when
    /// the worker lanes close (after all in-flight jobs routed).
    handle: JoinHandle<Fanout>,
}

impl RouterThread {
    /// Close the job ring, then join the thread, dropping the returned
    /// fan-out — which closes the worker lanes (close-then-drain is the
    /// poison message: the router routes every queued job first).
    /// Returns `false` if the router panicked; it then already dropped
    /// its fan-out during unwind.
    fn join(self) -> bool {
        drop(self.jobs);
        self.handle.join().is_ok()
    }
}

/// Every tuning and durability knob of the sharded runtime in one place;
/// every [`ShardedExecutor`] constructor takes it whole.
/// [`ShardedOptions::default`] is the plain runtime (no checkpoints, no
/// faults, arrival order).
#[derive(Debug, Clone)]
pub struct ShardedOptions {
    /// Events buffered before a batch is routed ([`DEFAULT_BATCH_SIZE`]).
    pub batch_size: usize,
    /// When set, take a consistent checkpoint every
    /// `interval_batches` ingested batches into this store.
    pub checkpoint: Option<CheckpointConfig>,
    /// When set, inject the given fault mid-stream (panic-containment
    /// testing — see [`FaultPlan`]).
    pub fault: Option<FaultPlan>,
    /// When set, run the shard workers in **event-time** mode with this
    /// allowed lateness (milliseconds): input may carry bounded disorder;
    /// each worker's one gate buffers rows behind the watermark derived
    /// from the router's merged cross-shard frontier
    /// ([`RoutedRows::frontier`]) and drops-and-counts rows behind it.
    /// Exact whenever the lateness covers the stream's disorder bound.
    /// `None` (the default) keeps the historical arrival-order contract.
    pub lateness: Option<u64>,
}

impl Default for ShardedOptions {
    fn default() -> Self {
        ShardedOptions {
            batch_size: DEFAULT_BATCH_SIZE,
            checkpoint: None,
            fault: None,
            lateness: None,
        }
    }
}

impl ShardedOptions {
    /// The durability option that is set (`checkpoint`), by name — what
    /// a build without the durability tier must refuse.
    pub fn durability_option(&self) -> Option<&'static str> {
        self.checkpoint.as_ref().map(|_| "checkpoint")
    }
}

/// Open the checkpoint store `options` names, if any.
fn open_store(options: &ShardedOptions) -> Result<Option<CheckpointStore>, CompileError> {
    let Some(cfg) = &options.checkpoint else {
        return Ok(None);
    };
    CheckpointStore::open(&cfg.dir)
        .map(Some)
        .map_err(|e| CompileError::CheckpointDir {
            dir: cfg.dir.clone(),
            reason: e.to_string(),
        })
}

/// The ingest side's periodic-checkpoint state.
struct Checkpointer {
    store: CheckpointStore,
    interval_batches: u64,
}

/// Build the online shard workers for `parts`: one [`Executor`] per
/// shard, holding one [`EngineKind`] per compiled partition (the router
/// sends it only the rows of the groups its shard owns) and one
/// event-time gate when a lateness is set. A worker selects nothing
/// itself, so its front end is empty.
fn engine_shards(
    parts: &[CompiledPartition],
    n_shards: usize,
    lateness: Option<u64>,
) -> Vec<Executor> {
    (0..n_shards)
        .map(|_| {
            let engines: Vec<EngineKind> = parts
                .iter()
                .cloned()
                .map(EngineKind::for_partition)
                .collect();
            let mut worker = Executor::from_parts(engines, ScanFront::new(Vec::new()));
            if let Some(ms) = lateness {
                worker.set_lateness(ms);
            }
            worker
        })
        .collect()
}

/// A parallel executor that hash-partitions work across `N` worker shards.
///
/// Two constructors, one build path: [`ShardedExecutor::with_options`]
/// compiles a workload into online engine shards exactly like
/// [`crate::Executor`], and [`ShardedExecutor::resume`] rebuilds them from
/// the latest complete checkpoint. Events are accepted as
/// columnar batches copied into the fill buffer; the router thread routes
/// each buffered batch once and fans the per-shard row lists out
/// over bounded channels (see the module docs). [`ShardedExecutor::finish`]
/// drains the pipeline and merges the disjoint shard results.
pub struct ShardedExecutor {
    /// The router thread; `None` only after `finish`/`Drop` tore it
    /// down.
    router: Option<RouterThread>,
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
    /// checkpointer.
    batches_sent: u64,
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
    /// The router's per-scope scan tallies, cloned out before the router
    /// moved onto its thread.
    scan_counters: Arc<ScanCounters>,
}

impl ShardedExecutor {
    /// Compile `workload` under `plan` and spawn `n_shards` online engine
    /// shards configured by `options` (batching, checkpoints, fault
    /// injection, lateness). Zero shards is [`CompileError::ZeroShards`],
    /// and a checkpoint directory that cannot be opened is
    /// [`CompileError::CheckpointDir`].
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
        let store = open_store(&options)?;
        let shards = engine_shards(&parts, n_shards, options.lateness);
        let router = BatchRouter::new(parts, n_shards);
        Ok(Self::build_with(router, shards, &options, store, 0))
    }

    /// Rebuild the runtime from the **latest complete checkpoint** in
    /// `options.checkpoint` (which must be set) and return it together
    /// with the stream offset to replay from: re-ingest every event from
    /// that offset on and the results are identical to an uninterrupted
    /// run. The compiled workload and shard count must match the
    /// checkpointing run — mismatches are reported, never guessed around.
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
        let parts = compile(catalog, workload, plan)
            .map_err(|e| CheckpointError::Mismatch(format!("workload does not compile: {e}")))?;
        let mut shards = engine_shards(&parts, n_shards, options.lateness);
        let mut router = BatchRouter::new(parts, n_shards);
        let mut r = StateReader::new(&data.router);
        router.load_state(&mut r)?;
        if !r.is_exhausted() {
            return Err(CheckpointError::Corrupt(
                "trailing router state bytes".into(),
            ));
        }
        for (shard, worker) in shards.iter_mut().enumerate() {
            worker
                .load_state(&data.shards[shard])
                .map_err(|e| CheckpointError::Corrupt(format!("shard {shard} state: {e}")))?;
        }
        let offset = data.events_sent;
        Ok((
            Self::build_with(router, shards, &options, Some(store), offset),
            offset,
        ))
    }

    /// Spawn the worker and router threads around `router` + `shards`
    /// (both built for the same shard count), checkpointing into `store`
    /// (opened from `options.checkpoint`). `events_sent` seeds the ingest
    /// counter — zero for fresh runs, the checkpoint's replay offset for
    /// resumed ones.
    fn build_with(
        router: BatchRouter,
        shards: Vec<Executor>,
        options: &ShardedOptions,
        store: Option<CheckpointStore>,
        events_sent: u64,
    ) -> Self {
        let n_shards = shards.len();
        let batch_size = options.batch_size.max(1);
        // cloned now: the router moves onto its own thread, but
        // selectivity stays reportable through the shared counters
        let scan_counters = router.scan_counters();
        let cancel = Arc::new(AtomicBool::new(false));
        let checkpointer =
            store
                .zip(options.checkpoint.as_ref())
                .map(|(store, cfg)| Checkpointer {
                    store,
                    interval_batches: cfg.interval_batches.max(1),
                });

        // one lane (worker ring + return ring) per worker
        let mut channels = Vec::with_capacity(n_shards);
        let mut lanes = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let (sender, rx) = sync_channel::<WorkerMsg>(RING_DEPTH);
            // the return ring is sized so a worker's try_send can only
            // hit a full ring if the router stopped draining it
            let (ret, returns) = sync_channel::<RoutedRows>(RING_DEPTH + 2);
            channels.push(WorkerChannel { sender, returns });
            lanes.push(WorkerLane { rx, ret });
        }
        let fanout = Fanout {
            router,
            channels,
            rows_pool: Vec::new(),
            route_scratch: Vec::new(),
        };

        let mut workers = Vec::with_capacity(n_shards);
        for ((shard, worker), lane) in shards.into_iter().enumerate().zip(lanes) {
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
                    let mut worker = worker;
                    let WorkerLane { rx, ret } = lane;
                    let mut processed: u64 = 0;
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            WorkerMsg::Batch(RoutedBatch { batch, mut rows }) => {
                                // an aborted run recycles without processing
                                if !cancelled.load(Ordering::Relaxed) {
                                    if fault_at == Some(processed) {
                                        panic!(
                                            "injected fault: worker shard {shard} \
                                             panicking at its batch {processed}"
                                        );
                                    }
                                    processed += 1;
                                    worker.process_routed(&batch, &rows);
                                    matched_pub.store(worker.events_matched(), Ordering::Relaxed);
                                }
                                drop(batch); // release the body before recycling rows
                                rows.clear();
                                // dropping the lists is fine if the return
                                // ring is (transiently) full
                                let _ = ret.try_send(rows);
                            }
                            // in-band: state and results cover exactly the
                            // batches routed before the barrier
                            WorkerMsg::Barrier(barrier) => {
                                barrier.fill_shard(shard, worker.save_state());
                            }
                            WorkerMsg::Harvest(barrier) => {
                                barrier.fill_shard(shard, worker.drain_results());
                            }
                        }
                    }
                    worker.report()
                })
                .expect("spawn shard worker thread");
            workers.push(WorkerHandle { handle, matched });
        }

        let (jobs, job_rx) = sync_channel::<RouterMsg>(JOB_RING_DEPTH);
        let cancelled = Arc::clone(&cancel);
        let handle = std::thread::Builder::new()
            .name("sharon-router".into())
            .spawn(move || {
                let _guard = CancelOnPanic(Arc::clone(&cancelled));
                let mut fanout = fanout;
                while let Ok(msg) = job_rx.recv() {
                    match msg {
                        RouterMsg::Route { batch, lo, hi } => {
                            if cancelled.load(Ordering::Relaxed) {
                                continue; // aborted: drain jobs without routing
                            }
                            fanout.dispatch(&batch, lo, hi, &cancelled);
                        }
                        RouterMsg::Barrier(barrier) => fanout.send_barrier(&barrier, &cancelled),
                        RouterMsg::Harvest(barrier) => fanout.send_harvest(&barrier, &cancelled),
                    }
                }
                // end of stream: hand the fan-out back so `finish` closes
                // the worker lanes only after every queued job was routed
                fanout
            })
            .expect("spawn router thread");

        ShardedExecutor {
            router: Some(RouterThread { jobs, handle }),
            workers,
            buffer: Arc::new(EventBatch::with_capacity(batch_size, 2)),
            batch_size,
            n_shards,
            events_sent,
            batches_sent: 0,
            batch_pool: Vec::new(),
            cancel,
            checkpointer,
            scan_counters,
        }
    }

    /// Number of worker shards.
    pub fn n_shards(&self) -> usize {
        self.n_shards
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
    /// exact in the report of [`ShardedExecutor::finish_with_stats`]).
    pub fn events_matched(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.matched.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-scope `(rows_scanned, rows_selected)` of the router's
    /// stateless pass so far. Live: rows still buffered or queued for the router are not
    /// counted yet. The tallies [`BatchProcessor::finish`] returns are
    /// read after the router thread is joined, so they cover the whole
    /// stream.
    pub fn scan_stats(&self) -> Vec<(u64, u64)> {
        self.scan_counters.snapshot()
    }

    /// The fill buffer (uniquely owned between flushes).
    fn buf(&mut self) -> &mut EventBatch {
        Arc::get_mut(&mut self.buffer).expect("fill buffer is uniquely owned between flushes")
    }

    /// Enqueue a time-ordered columnar batch (any size; it is re-chunked
    /// to the flush threshold internally). Copies the rows into the
    /// internal buffer — the one way rows enter the sharded runtime.
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

    /// Hand the buffered batch to the router thread.
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

    /// Send one message to the router's job ring. A full ring blocks —
    /// the pipeline's backpressure — and a dead router thread flips
    /// `cancel` so `finish` reports it.
    fn send_job(&mut self, msg: RouterMsg) {
        let router = self.router.as_ref().expect("executor is active");
        if router.jobs.send(msg).is_err() {
            self.cancel.store(true, Ordering::Release);
        }
    }

    /// Send rows `lo..hi` of `batch` to the router thread, then take a
    /// periodic checkpoint if one is due. Without checkpoints that costs
    /// one check — the zero-allocation steady state is untouched.
    fn dispatch_range(&mut self, batch: &Arc<EventBatch>, lo: usize, hi: usize) {
        self.events_sent += (hi - lo) as u64;
        self.send_job(RouterMsg::Route {
            batch: Arc::clone(batch),
            lo,
            hi,
        });
        self.batches_sent += 1;
        self.maybe_checkpoint();
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
        let barrier: BarrierRef = Arc::new(CheckpointBarrier::new(self.n_shards));
        // the barrier rides the job ring in-band, so the router segment
        // (and each shard's lane barrier) covers exactly the batches
        // routed before it
        self.send_job(RouterMsg::Barrier(Arc::clone(&barrier)));
        let (router, shards) = barrier.wait(&self.cancel)?;
        let ck = self
            .checkpointer
            .as_ref()
            .expect("checkpoint requires a configured store");
        let id = ck.store.next_id()?;
        ck.store.write(id, self.events_sent, &router, &shards)?;
        sharon_metrics::record_checkpoints_written(1);
        Ok(id)
    }

    /// Flush remaining events, stop the workers, and merge their results
    /// in deterministic shard order. Shard result sets are disjoint (each
    /// group is owned by exactly one shard), so that merge is exact.
    pub fn finish(self) -> ExecutorResults {
        self.finish_with_stats().results
    }

    /// [`ShardedExecutor::finish`] plus runtime statistics: the matched
    /// and late-drop counts summed over the shards' reports, and the
    /// router's scan tallies, all read after the router and the workers
    /// drain (see [`ShardedExecutor::scan_stats`]).
    ///
    /// Fails fast — panics with an error naming the dead thread — when
    /// any worker or the router thread panicked mid-run (including
    /// injected faults): partial results are discarded, never merged, so
    /// a half-dead run can never masquerade as a complete one.
    pub fn finish_with_stats(mut self) -> RunReport {
        self.flush();
        let mut run = self.join();
        run.scan_stats = self.scan_stats();
        run
    }

    /// Join the router, then the workers in shard order, and sum their
    /// reports. Teardown order is the flush contract: the router drains
    /// every queued job and closes the worker lanes before the shards are
    /// joined, so no routed batch is lost and every shard report is
    /// complete. Panics naming every dead thread.
    fn join(&mut self) -> RunReport {
        let router_ok = self.router.take().expect("the runtime joins once").join();
        let workers = std::mem::take(&mut self.workers);
        let mut run = RunReport::default();
        let mut failed_shards = Vec::new();
        for (shard, worker) in workers.into_iter().enumerate() {
            match worker.handle.join() {
                Ok(report) => {
                    run.results.merge(report.results);
                    run.events_matched += report.events_matched;
                    run.late_rows_dropped += report.late_rows_dropped;
                }
                Err(_) => failed_shards.push(shard),
            }
        }
        if !router_ok || !failed_shards.is_empty() {
            let mut parts = Vec::new();
            if !router_ok {
                parts.push("the router thread panicked".to_string());
            }
            if !failed_shards.is_empty() {
                parts.push(format!("worker shard(s) {failed_shards:?} panicked"));
            }
            panic!(
                "sharded runtime failed: {} — partial results discarded",
                parts.join("; ")
            );
        }
        run
    }
}

impl Drop for ShardedExecutor {
    /// Dropping without [`ShardedExecutor::finish`] *aborts* the run: the
    /// router thread and the workers are told to discard queued batches
    /// (they only complete the item currently in flight) and are joined,
    /// so an abandoned executor — e.g. a capped bench run reporting DNF —
    /// never leaves detached threads grinding through queued work behind
    /// the next measurement.
    fn drop(&mut self) {
        let Some(router) = self.router.take() else {
            return; // finished normally: threads already joined
        };
        self.cancel.store(true, Ordering::Relaxed);
        router.join();
        for worker in std::mem::take(&mut self.workers) {
            let _ = worker.handle.join();
        }
    }
}

impl BatchProcessor for ShardedExecutor {
    fn process_columnar(&mut self, batch: &EventBatch) {
        ShardedExecutor::process_columnar(self, batch);
    }

    /// Flush the ingest buffer and move out every shard's log through
    /// the in-band barrier path a checkpoint takes, so the drain covers
    /// exactly the batches ingested before the call. A dead router or
    /// worker fails it as it fails
    /// [`ShardedExecutor::finish_with_stats`]: a panic naming the thread.
    fn drain_results(&mut self) -> ExecutorResults {
        self.flush();
        let barrier: HarvestRef = Arc::new(CheckpointBarrier::new(self.n_shards));
        self.send_job(RouterMsg::Harvest(Arc::clone(&barrier)));
        let Ok((_router, shards)) = barrier.wait(&self.cancel) else {
            self.join();
            panic!("sharded runtime failed: a runtime thread stopped mid-drain");
        };
        let mut out = ExecutorResults::new();
        for results in shards {
            out.merge(results);
        }
        out
    }

    fn events_matched(&self) -> u64 {
        ShardedExecutor::events_matched(self)
    }

    fn scan_stats(&self) -> Vec<(u64, u64)> {
        ShardedExecutor::scan_stats(self)
    }

    fn finish(self: Box<Self>) -> RunReport {
        (*self).finish_with_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::tests::assert_equivalent;
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
            let report = sharded.finish_with_stats();
            let n = w.len() as u32;
            assert_equivalent(&report.results, &want, n, 1e-9, format!("{shards} shards"));
            assert_eq!(
                report.events_matched, want_matched,
                "{shards} shards: matched count"
            );
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
        assert_equivalent(&got, &want, w.len() as u32, 1e-9, "sharded");

        // a few buffered rows first, then a push that straddles the
        // flush threshold: the buffered rows route ahead of the rest
        let (head, tail) = events.split_at(100);
        let mut sharded = non_shared(&c, &w, 3, DEFAULT_BATCH_SIZE);
        sharded.process_columnar(&EventBatch::from_events(head));
        sharded.process_columnar(&EventBatch::from_events(tail));
        let report = sharded.finish_with_stats();
        assert_equivalent(&report.results, &want, w.len() as u32, 1e-9, "straddling");
        assert!(report.events_matched > 0);
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
        assert_equivalent(&got, &want, w.len() as u32, 1e-9, "sharded");
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
        assert_equivalent(&got, &want, w.len() as u32, 1e-9, "sharded");
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
        assert_equivalent(&got, &want, w.len() as u32, 1e-9, "sharded");
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
    fn harvest_then_finish_equals_uninterrupted_run() {
        // 97 groups, a drain after every ingested batch: every drain
        // hands the workers' logs and key tables away, so each group
        // registers afresh in each log it emits into — ids must never
        // leak from one log's table into the next
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
                let epoch = sharded.drain_results();
                epochs += usize::from(!epoch.is_empty());
                epochs_with_tracked +=
                    usize::from(epoch.rows().any(|r| *epoch.group(r.1) == tracked));
                drained.merge(epoch);
            }
            drained.merge(sharded.finish());
            assert_equivalent(
                &drained,
                &want,
                w.len() as u32,
                1e-9,
                format!("{shards} shards: drained epochs + finish"),
            );
            assert!(
                epochs > 30 && epochs_with_tracked > 10,
                "{shards} shards: mid-stream drains yield closed windows \
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
        let report = resumed.finish_with_stats();
        let n = w.len() as u32;
        assert_equivalent(&report.results, &want, n, 1e-9, "resumed vs uninterrupted");
        assert_eq!(report.events_matched, want_matched, "matched count");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_panic_cancels_the_run_and_finish_fails_fast() {
        let (c, w) = grouped_workload();
        // (shards, batch size, rows, fault): the second case kills the only
        // worker on its first batch and then routes far more one-row
        // batches than its lane holds, so the router's blocked send must
        // fail once the worker's end of the lane is gone
        let cases = [
            (3, 64, 2000, FaultPlan::PanicWorker { batch: 2, shard: 1 }),
            (1, 1, 256, FaultPlan::PanicWorker { batch: 0, shard: 0 }),
        ];
        for (shards, batch_size, rows, fault) in cases {
            let events = stream(&c, rows, 11);
            let options = ShardedOptions {
                batch_size,
                fault: Some(fault),
                ..ShardedOptions::default()
            };
            let sharded =
                ShardedExecutor::with_options(&c, &w, &SharingPlan::non_shared(), shards, options)
                    .unwrap();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let mut sharded = sharded;
                sharded.process_columnar(&EventBatch::from_events(&events));
                sharded.finish()
            }));
            let err = result.expect_err("a panicked worker must fail the run");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("worker shard"),
                "{fault:?}: unexpected panic message: {msg:?}"
            );
        }
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
    fn an_unusable_checkpoint_dir_is_an_error_naming_it() {
        let (c, w) = grouped_workload();
        // a directory cannot be created under a regular file
        let file = test_dir("not-a-dir");
        std::fs::write(&file, b"").unwrap();
        let dir = file.join("ck");
        let options = ShardedOptions {
            checkpoint: Some(CheckpointConfig::every(&dir, 8)),
            ..ShardedOptions::default()
        };
        let err = ShardedExecutor::with_options(&c, &w, &SharingPlan::non_shared(), 2, options)
            .err()
            .expect("an unusable checkpoint directory must fail the build");
        assert!(
            matches!(&err, CompileError::CheckpointDir { dir: d, .. } if *d == dir),
            "expected CheckpointDir, got {err:?}"
        );
        assert!(err.to_string().contains(&dir.display().to_string()));
        let _ = std::fs::remove_file(&file);
    }
}
