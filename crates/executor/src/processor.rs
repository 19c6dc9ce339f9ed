//! The uniform columnar operator interface of the execution layer.
//!
//! Every strategy in the system — the online Sharon/A-Seq engines, their
//! sharded parallel runtime, and the sequential two-step baselines — is a
//! *stage pipeline over [`EventBatch`]*: one select stage per owner of
//! routing scopes ([`crate::front`]) selects each scope's rows with
//! compiled scan kernels (routing on the `ty` column, predicate
//! evaluation over the value buffer, groupability) and hands them to a
//! *stateful* side that folds only those rows into per-group state —
//! for the online engines directly or through the executor's event-time
//! gate, for the baselines in arrival order.
//! [`BatchProcessor`] captures that contract behind one trait so callers
//! (the strategy layer, the builder and session, the CLI, the benches)
//! drive every strategy identically — no per-strategy match arms. Columnar batches
//! are the only way rows enter an executor; row-form
//! [`sharon_types::Event`]s reach it through
//! [`EventBatch::from_events`].
//!
//! Implementors: [`crate::Executor`] (online engines),
//! [`crate::ShardedExecutor`] (route-once parallel runtime of the online
//! engines), and the `sharon-twostep` crate's `FlinkLike` / `SpassLike`
//! baselines, which run sequentially only.
//!
//! The verbs: [`BatchProcessor::process_columnar`] feeds a batch,
//! [`BatchProcessor::drain_results`] moves out the results closed so far
//! (the only way to read results mid-stream), and
//! [`BatchProcessor::finish`] closes every window and reports the run;
//! [`BatchProcessor::events_matched`], [`BatchProcessor::scan_stats`] and
//! [`BatchProcessor::state_size`] read progress without moving anything.

use crate::results::ExecutorResults;
use sharon_types::EventBatch;

/// What a finished run reports — a whole run's, or one shard worker's
/// slice of it. Every count is read after the event-time gates released
/// their last rows and, for the sharded runtime, after its router and
/// workers drained, so all are exact.
#[derive(Debug, Default)]
pub struct RunReport {
    /// The run's results (a shard's are disjoint from every other
    /// shard's).
    pub results: ExecutorResults,
    /// Events that passed the stateless prefix (routing, predicates,
    /// grouping); zero for strategies that do not track it.
    pub events_matched: u64,
    /// Late rows this run's gates dropped, once per partition that
    /// selected them; zero without a gate (and for the baselines, which
    /// have none).
    pub late_rows_dropped: u64,
    /// Per-scope `(rows_scanned, rows_selected)` tallies, as
    /// [`BatchProcessor::scan_stats`] (a shard worker's are unused: the
    /// router selects its rows).
    pub scan_stats: Vec<(u64, u64)>,
}

/// A columnar operator: consumes time-ordered [`EventBatch`]es and
/// produces [`ExecutorResults`] when finished.
///
/// Batches must arrive in global timestamp order across calls, unless
/// an online executor was built with an allowed lateness (event-time
/// mode): then input may carry bounded disorder, rows buffer behind the
/// watermark `max_time_seen − lateness` and release in event-time order,
/// and rows behind the watermark are dropped and counted in the run's
/// [`RunReport`]. Lateness is fixed when the executor is built; the
/// two-step baselines take none.
pub trait BatchProcessor: Send {
    /// Process a time-ordered columnar batch: the stateless scan +
    /// stateful dispatch pipeline.
    fn process_columnar(&mut self, batch: &EventBatch);

    /// Move out every result emitted so far, leaving open windows' state
    /// in place: they surface in a later drain or at
    /// [`BatchProcessor::finish`]. Repeated drains return disjoint sets
    /// whose union with `finish`'s is the whole run's result set.
    fn drain_results(&mut self) -> ExecutorResults;

    /// Events that passed the stateless prefix (routing, predicates,
    /// grouping) so far; zero for strategies that do not track it.
    fn events_matched(&self) -> u64 {
        0
    }

    /// Per-scope `(rows_scanned, rows_selected)` tallies of the stateless
    /// scan so far — one entry per routing scope (partition engine, query,
    /// or baseline partition), in scope order; empty for strategies that
    /// do not track it.
    fn scan_stats(&self) -> Vec<(u64, u64)> {
        Vec::new()
    }

    /// Strategy-specific state-size proxy: live aggregate cells (online),
    /// buffered raw events (Flink-like), materialized matches
    /// (SPASS-like), zero when state lives off-thread (sharded).
    fn state_size(&self) -> usize {
        0
    }

    /// Flush all remaining windows and report the run (see
    /// [`RunReport`]).
    fn finish(self: Box<Self>) -> RunReport;
}
