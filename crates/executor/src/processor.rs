//! The uniform columnar operator interface of the execution layer.
//!
//! Every strategy in the system — the online Sharon/A-Seq engines, the
//! sharded parallel runtime, and the two-step baselines — is a *stage
//! pipeline over [`EventBatch`]*: a compiled scan kernel evaluates the
//! stateless prefix (routing on the `ty` column, predicate evaluation over
//! the value buffer, groupability) into the surviving row indices, and a
//! *stateful dispatch* folds only those rows into per-group state.
//! [`BatchProcessor`] captures that contract behind one trait so callers
//! (the strategy layer, the framework, the CLI, the benches) drive every
//! strategy identically — no per-strategy match arms. Columnar batches
//! are the only way rows enter an executor; row-form
//! [`sharon_types::Event`]s reach it through
//! [`EventBatch::from_events`].
//!
//! Implementors: [`crate::Executor`] (online engines),
//! [`crate::ShardedExecutor`] (route-once parallel runtime), and the
//! `sharon-twostep` crate's `FlinkLike` / `SpassLike` baselines.

use crate::results::ExecutorResults;
use sharon_types::EventBatch;

/// A columnar operator: consumes time-ordered [`EventBatch`]es and
/// produces [`ExecutorResults`] when finished.
///
/// Batches must arrive in global timestamp order across calls, unless
/// the executor was built with an allowed lateness (event-time mode):
/// then input may carry bounded disorder, rows buffer behind the
/// watermark `max_time_seen − lateness` and release in event-time order,
/// and rows behind the watermark are dropped and counted
/// ([`sharon_metrics::late_rows_dropped`]). Lateness is fixed when the
/// executor is built.
pub trait BatchProcessor: Send {
    /// Process a time-ordered columnar batch: the stateless scan +
    /// stateful dispatch pipeline.
    fn process_columnar(&mut self, batch: &EventBatch);

    /// Late rows dropped by the event-time gate so far; zero when no
    /// gate is configured.
    fn late_rows_dropped(&self) -> u64 {
        0
    }

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

    /// Flush all remaining windows and return
    /// `(results, events_matched, scan_stats)`. The matched count and the
    /// per-scope scan tallies (as [`BatchProcessor::scan_stats`]) are
    /// exact even for the sharded runtime: they are read after its
    /// router and workers drain.
    fn finish(self: Box<Self>) -> (ExecutorResults, u64, Vec<(u64, u64)>);
}
