//! The [`Executor`]: one [`Engine`] per partition (an [`EngineKind`] by
//! aggregate kernel) behind everything that is not group state — the
//! select stage, the one event-time gate with its private `dispatch` and
//! `release_all`, and the one result log.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::agg::{CountCell, StatsCell};
use crate::checkpoint::{StateError, StateReader, StateWriter};
use crate::compile::{compile, CompileError, CompiledPartition};
use crate::engine::Engine;
use crate::event_time::Reorder;
use crate::front::ScanFront;
use crate::processor::{RunReport, WorkCounts};
use crate::results::ExecutorResults;
use crate::router::RoutedRows;
use sharon_query::{SharingPlan, Workload};
use sharon_types::{Catalog, EventBatch, EventTypeId, Timestamp};

/// The public executor: compiles a workload + plan into one engine per
/// sharing-signature partition and fans every event out to them.
///
/// With [`SharingPlan::non_shared`] this *is* the Non-Shared method
/// (A-Seq per query, Section 3.2); with an optimizer-produced plan it is
/// the Sharon executor (Section 3.3).
///
/// The executor owns the stateless front end of its partitions: the
/// select stage ([`ScanFront`]: one scan kernel per engine behind a
/// shared type pass), one event-time gate for all engines, the only gate
/// in the system, and one result log for all engines. The engines keep
/// only group state. The same type is the sharded runtime's shard worker:
/// there its engines see only the groups the router assigns its shard,
/// and it dispatches the router's row lists (`process_routed`) instead of
/// scanning.
pub struct Executor {
    /// One engine per partition, in partition order.
    pub(crate) engines: Vec<EngineKind>,
    /// The result log every engine closes its windows into, handed out
    /// by move at `drain_results` / [`Executor::finish`].
    pub(crate) results: ExecutorResults,
    /// The select stage, one scope per engine (empty on a shard worker,
    /// whose rows the router selects).
    front: ScanFront,
    /// The event-time gate of every engine (`None` = arrival order is
    /// event-time order, the historical contract). When set, rows buffer
    /// behind the watermark `max_time_seen − lateness` and release in
    /// event-time order; rows behind the watermark are dropped and
    /// counted. Boxed: an ungated executor carries one word.
    gate: Option<Box<Reorder>>,
}

/// One partition engine, monomorphized on its aggregate kernel.
pub enum EngineKind {
    /// `COUNT(*)` / `COUNT(E)` partition.
    Count(Engine<CountCell>),
    /// `SUM`/`MIN`/`MAX`/`AVG` partition.
    Stats(Engine<StatsCell>),
}

/// Run `$body` on the engine inside `$kind`, whichever its kernel.
macro_rules! on_engine {
    ($kind:expr, $en:ident => $body:expr) => {
        match $kind {
            EngineKind::Count($en) => $body,
            EngineKind::Stats($en) => $body,
        }
    };
}

impl EngineKind {
    /// Build the right kernel for `part`.
    pub fn for_partition(part: CompiledPartition) -> Self {
        if part.count_only {
            EngineKind::Count(Engine::new(part))
        } else {
            EngineKind::Stats(Engine::new(part))
        }
    }

    /// Process a batch's selected rows (see `Engine::process_rows`).
    pub fn process_rows(
        &mut self,
        batch: &EventBatch,
        rows: &[u32],
        results: &mut ExecutorResults,
    ) {
        on_engine!(self, en => en.process_rows(batch, rows, results))
    }

    /// Live aggregate cells (see `Engine::cell_count`).
    pub fn cell_count(&self) -> usize {
        on_engine!(self, en => en.cell_count())
    }

    /// Serialize the full evaluation state, tagged with the kernel kind
    /// (see [`Engine::save_state`]).
    pub(crate) fn save_state(&self, w: &mut StateWriter) {
        let tag = match self {
            EngineKind::Count(_) => 0,
            EngineKind::Stats(_) => 1,
        };
        w.u8(tag);
        on_engine!(self, en => en.save_state(w))
    }

    /// Restore state written by [`EngineKind::save_state`]; the kernel
    /// kind must match the one this engine was compiled with.
    pub(crate) fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let tag = r.u8()?;
        match (self, tag) {
            (EngineKind::Count(en), 0) => en.load_state(r),
            (EngineKind::Stats(en), 1) => en.load_state(r),
            _ => Err(StateError::Corrupt("engine kind tag")),
        }
    }

    /// Close every remaining window into `results` and return the
    /// engine's work counts (see `Engine::finish`).
    pub fn finish(self, results: &mut ExecutorResults) -> WorkCounts {
        on_engine!(self, en => en.finish(results))
    }

    /// Events that passed routing, predicates, grouping, and shard
    /// ownership.
    pub fn events_matched(&self) -> u64 {
        on_engine!(self, en => en.events_matched())
    }

    /// True if `ty` routes into this engine's partition.
    fn routes(&self, ty: EventTypeId) -> bool {
        on_engine!(self, en => en.part.routed(ty))
    }
}

/// The dispatch stage of an executor: `lists` (parallel to `engines`) go
/// straight to their engines, which close windows into `results`, or —
/// with a gate — through it in one call that admits them (dropping and
/// counting late rows), advances the watermark to `frontier − lateness`
/// and releases every row it passed, in event-time order, while `batch`
/// is alive to lend their attributes.
/// Every engine sees the same frontier, so the one gate releases each
/// engine's rows in the order a gate of its own would, and a late row is
/// dropped and counted once per partition that selected it.
fn dispatch(
    engines: &mut [EngineKind],
    results: &mut ExecutorResults,
    gate: Option<&mut Reorder>,
    batch: &EventBatch,
    lists: &[Vec<u32>],
    frontier: Timestamp,
) {
    let Some(gate) = gate else {
        for (p, rows) in lists.iter().enumerate() {
            if !rows.is_empty() {
                engines[p].process_rows(batch, rows, results);
            }
        }
        return;
    };
    let lists = lists.iter().map(Vec::as_slice);
    gate.process(batch, lists, frontier, |ty, time, attrs, p| {
        on_engine!(&mut engines[p as usize], en => en.process_row(ty, time, attrs, results))
    });
}

/// End of stream: open the gate (if any) and release every row it still
/// holds into `engines`, before any window is force-closed.
fn release_all(
    engines: &mut [EngineKind],
    results: &mut ExecutorResults,
    gate: Option<&mut Reorder>,
) {
    if let Some(gate) = gate {
        gate.flush(|ty, time, attrs, p| {
            on_engine!(&mut engines[p as usize], en => en.process_row(ty, time, attrs, results))
        });
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
        let front = ScanFront::new(parts.iter().map(CompiledPartition::scan_kernel).collect());
        let engines = parts.into_iter().map(EngineKind::for_partition).collect();
        Ok(Self::from_parts(engines, front))
    }

    /// An executor over `engines`, in partition order, selecting with
    /// `front`: the engines and their kernels for the sequential executor,
    /// or one shard's engines and an empty front end for a sharded runtime
    /// worker.
    pub(crate) fn from_parts(engines: Vec<EngineKind>, front: ScanFront) -> Self {
        Executor {
            engines,
            results: ExecutorResults::new(),
            front,
            gate: None,
        }
    }

    /// The Non-Shared (A-Seq) executor for `workload`.
    pub fn non_shared(catalog: &Catalog, workload: &Workload) -> Result<Self, CompileError> {
        Self::new(catalog, workload, &SharingPlan::non_shared())
    }

    /// Process a time-ordered columnar batch: the front end selects every
    /// partition's rows (one type pass, one kernel per engine), then
    /// dispatches them — straight into each engine's group state, or
    /// through the gate at the batch's maximum event time. Row-form
    /// events enter through [`EventBatch::from_events`].
    pub fn process_columnar(&mut self, batch: &EventBatch) {
        let lists = self.front.select(batch, 0, batch.len());
        let frontier = batch.max_time().unwrap_or(Timestamp::ZERO);
        let gate = self.gate.as_deref_mut();
        dispatch(
            &mut self.engines,
            &mut self.results,
            gate,
            batch,
            lists,
            frontier,
        );
    }

    /// Pre-size the result log for about `additional` further results per
    /// query (capacity planning for allocation-free steady-state
    /// emission).
    pub fn reserve_results(&mut self, additional: usize) {
        let queries: usize = self
            .engines
            .iter()
            .map(|e| on_engine!(e, en => en.part.queries.len()))
            .sum();
        self.results.reserve(additional * queries);
    }

    /// Enable event-time processing with the given allowed lateness (in
    /// milliseconds): input may arrive out of timestamp order, rows
    /// release in event-time order behind the watermark `max_time_seen −
    /// lateness_ms`, and rows behind the watermark are dropped and counted
    /// (once per partition that selected them). Exact whenever the
    /// lateness covers the stream's disorder bound.
    pub fn set_lateness(&mut self, lateness_ms: u64) {
        self.gate = Some(Box::new(Reorder::new(lateness_ms)));
    }

    /// Late rows the gate dropped (0 when no gate is configured).
    pub fn late_rows_dropped(&self) -> u64 {
        self.gate.as_ref().map_or(0, |g| g.late_rows_dropped())
    }

    /// Flush remaining windows and return all results.
    pub fn finish(self) -> ExecutorResults {
        self.report().results
    }

    /// End of stream: release every row the gate holds, read the matched
    /// and late-drop counts, then close every engine's windows into the
    /// log and sum the engines' work counts.
    pub(crate) fn report(mut self) -> RunReport {
        let gate = self.gate.as_deref_mut();
        release_all(&mut self.engines, &mut self.results, gate);
        let events_matched = self.events_matched();
        let late_rows_dropped = self.late_rows_dropped();
        let mut work = WorkCounts::default();
        for engine in self.engines {
            work += engine.finish(&mut self.results);
        }
        RunReport {
            results: self.results,
            events_matched,
            late_rows_dropped,
            scan_stats: self.front.counters().snapshot(),
            work,
        }
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
        self.front.counters().snapshot()
    }
}

impl crate::processor::BatchProcessor for Executor {
    fn process_columnar(&mut self, batch: &EventBatch) {
        Executor::process_columnar(self, batch);
    }

    /// Take the log, leaving it empty.
    fn drain_results(&mut self) -> ExecutorResults {
        std::mem::take(&mut self.results)
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

    fn finish(self: Box<Self>) -> RunReport {
        (*self).report()
    }
}

/// The sharded runtime's worker role: an executor over one shard's
/// engines, dispatching the router's row lists.
impl Executor {
    /// Process the router's pre-routed rows of `batch`, in row order per
    /// engine. The router guarantees every listed row routes into its
    /// partition, passes its predicates, and belongs to a group this
    /// shard owns — the worker never re-evaluates that prefix.
    pub(crate) fn process_routed(&mut self, batch: &EventBatch, rows: &RoutedRows) {
        // the router stamped every chunk with the merged cross-shard
        // frontier: the gate advances to it whichever engines have rows
        let (engines, gate) = (&mut self.engines, self.gate.as_deref_mut());
        dispatch(
            engines,
            &mut self.results,
            gate,
            batch,
            &rows.per_part,
            rows.frontier,
        );
    }

    /// The shard's checkpoint segment: its result log (results are held
    /// until drained or `finish`, so a resume must carry them to
    /// reproduce an uninterrupted run's output exactly), its engines in
    /// partition order, then the gate block — a present flag and, if set,
    /// the gate's own state (watermark and the rows still waiting, so a
    /// resume under disorder is crash-exact).
    pub(crate) fn save_state(&mut self) -> Vec<u8> {
        let mut w = StateWriter::new();
        self.results.save_state(&mut w);
        w.seq_len(self.engines.len());
        for engine in &mut self.engines {
            engine.save_state(&mut w);
        }
        w.bool(self.gate.is_some());
        if let Some(gate) = &mut self.gate {
            gate.save_state(&mut w);
        }
        w.into_bytes()
    }

    /// Restore a segment written by [`Executor::save_state`] into a worker
    /// built for the same partitions, shard and lateness.
    pub(crate) fn load_state(&mut self, bytes: &[u8]) -> Result<(), StateError> {
        let mut r = StateReader::new(bytes);
        self.results = ExecutorResults::load_state(&mut r)?;
        if r.seq_len()? != self.engines.len() {
            return Err(StateError::Corrupt("engine count per shard"));
        }
        for engine in &mut self.engines {
            engine.load_state(&mut r)?;
        }
        // a lateness mismatch between the checkpoint and the rebuilt
        // worker would silently change which rows count as late — refuse
        // both directions rather than guess
        let had_gate = r.bool()?;
        match (&mut self.gate, had_gate) {
            (Some(gate), true) => {
                let engines = &self.engines;
                gate.load_state(&mut r, |scope, ty| {
                    engines
                        .get(scope as usize)
                        .is_some_and(|engine| engine.routes(ty))
                })?
            }
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
        if !r.is_exhausted() {
            return Err(StateError::Corrupt("trailing engine state bytes"));
        }
        Ok(())
    }
}
