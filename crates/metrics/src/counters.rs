//! Cross-thread runtime work counters.
//!
//! Unlike the [`crate::alloc`] counters (which observe the allocator),
//! these are incremented explicitly by runtime components to make
//! *shared-work* claims checkable: the route-once sharded runtime promises
//! that each routing scope scans a batch exactly once, no matter how many
//! queries subscribe to the scope — the scope-scan counter is how tests
//! (and operators) verify that promise instead of trusting it.
//!
//! Counters are process-global atomics, so they aggregate over every
//! router instance in the process. Tests that
//! assert exact deltas must serialize against other counter users in the
//! same process (the regression suites do).

use std::sync::atomic::{AtomicU64, Ordering};

/// Total scope scans performed by batch routers: one unit per routing
/// scope per routed batch chunk.
static ROUTER_SCOPE_SCANS: AtomicU64 = AtomicU64::new(0);

/// Record `n` scope scans (called by the batch router once per routed
/// chunk, with the number of distinct scopes it scanned).
#[inline]
pub fn record_router_scope_scans(n: u64) {
    ROUTER_SCOPE_SCANS.fetch_add(n, Ordering::Relaxed);
}

/// Total scope scans recorded so far in this process.
///
/// With scope deduplication active, a workload of `Q` queries sharing one
/// routing scope advances this by exactly **1** per batch — not `Q` —
/// which is the measurable core of the route-once-per-scope design.
pub fn router_scope_scans() -> u64 {
    ROUTER_SCOPE_SCANS.load(Ordering::Relaxed)
}

/// Total batches routed by router threads: one unit per routed batch.
static ROUTER_BATCHES_ROUTED: AtomicU64 = AtomicU64::new(0);

/// Record `n` routed batches (called by the router thread once per
/// dispatched batch chunk).
#[inline]
pub fn record_router_batches_routed(n: u64) {
    ROUTER_BATCHES_ROUTED.fetch_add(n, Ordering::Relaxed);
}

/// Total batches routed so far in this process.
pub fn router_batches_routed() -> u64 {
    ROUTER_BATCHES_ROUTED.load(Ordering::Relaxed)
}

/// Total router stalls: a router found a worker ring full and had to
/// block until the worker drained it. A router that stalls often
/// is fanning out faster than the shards execute — the backpressure is
/// working, but the bottleneck has moved back to the workers.
static ROUTER_STALL_WAITS: AtomicU64 = AtomicU64::new(0);

/// Record `n` router stalls (called by a router before it blocks on a
/// full worker ring).
#[inline]
pub fn record_router_stall_waits(n: u64) {
    ROUTER_STALL_WAITS.fetch_add(n, Ordering::Relaxed);
}

/// Total router stalls so far in this process.
pub fn router_stall_waits() -> u64 {
    ROUTER_STALL_WAITS.load(Ordering::Relaxed)
}

/// Total rows examined by stateless scans (scalar or vectorized): one
/// unit per row per routing scope that scanned it.
static ROWS_SCANNED: AtomicU64 = AtomicU64::new(0);

/// Record `n` scanned rows (called by the columnar pre-passes and the
/// batch router, once per scope per chunk).
#[inline]
pub fn record_rows_scanned(n: u64) {
    ROWS_SCANNED.fetch_add(n, Ordering::Relaxed);
}

/// Total rows examined by stateless scans so far in this process.
pub fn rows_scanned() -> u64 {
    ROWS_SCANNED.load(Ordering::Relaxed)
}

/// Total rows that survived a stateless scan — passed routing, predicates,
/// and groupability of some scope (counted before shard-ownership
/// filtering, so scalar and vectorized scans tally identically).
static ROWS_SELECTED: AtomicU64 = AtomicU64::new(0);

/// Record `n` selected rows.
#[inline]
pub fn record_rows_selected(n: u64) {
    ROWS_SELECTED.fetch_add(n, Ordering::Relaxed);
}

/// Total rows selected by stateless scans so far in this process.
///
/// `rows_selected() / rows_scanned()` is the workload's aggregate
/// selectivity — the fraction of scanned rows that reached stateful
/// processing.
pub fn rows_selected() -> u64 {
    ROWS_SELECTED.load(Ordering::Relaxed)
}

/// Total checkpoints completed (manifest renamed into place).
static CHECKPOINTS_WRITTEN: AtomicU64 = AtomicU64::new(0);

/// Record `n` completed checkpoints.
#[inline]
pub fn record_checkpoints_written(n: u64) {
    CHECKPOINTS_WRITTEN.fetch_add(n, Ordering::Relaxed);
}

/// Total checkpoints completed so far in this process.
pub fn checkpoints_written() -> u64 {
    CHECKPOINTS_WRITTEN.load(Ordering::Relaxed)
}

/// Total late rows dropped: rows whose event time had already been passed
/// by the watermark (`max_time_seen − lateness`) when they arrived.
static LATE_ROWS_DROPPED: AtomicU64 = AtomicU64::new(0);

/// Record `n` dropped late rows (called by the event-time reorder gates).
#[inline]
pub fn record_late_rows_dropped(n: u64) {
    LATE_ROWS_DROPPED.fetch_add(n, Ordering::Relaxed);
}

/// Total late rows dropped so far in this process.
///
/// The late-row policy is drop-and-count: a row later than the configured
/// lateness bound is never silently folded into already-closed windows —
/// it is discarded and shows up here. When `lateness >=` the stream's
/// actual disorder bound this counter never moves and results are exact.
pub fn late_rows_dropped() -> u64 {
    LATE_ROWS_DROPPED.load(Ordering::Relaxed)
}

/// Total queries attached to a live session at runtime.
static QUERIES_ATTACHED: AtomicU64 = AtomicU64::new(0);

/// Record `n` runtime query attachments (called by the session layer).
#[inline]
pub fn record_queries_attached(n: u64) {
    QUERIES_ATTACHED.fetch_add(n, Ordering::Relaxed);
}

/// Total runtime query attachments so far in this process.
pub fn queries_attached() -> u64 {
    QUERIES_ATTACHED.load(Ordering::Relaxed)
}

/// Total queries detached from a live session at runtime.
static QUERIES_DETACHED: AtomicU64 = AtomicU64::new(0);

/// Record `n` runtime query detachments (called by the session layer).
#[inline]
pub fn record_queries_detached(n: u64) {
    QUERIES_DETACHED.fetch_add(n, Ordering::Relaxed);
}

/// Total runtime query detachments so far in this process.
pub fn queries_detached() -> u64 {
    QUERIES_DETACHED.load(Ordering::Relaxed)
}

/// Total plan re-optimizations: the dynamic plan manager recomputed the
/// sharing plan (whether or not the recomputed plan was then adopted).
static PLAN_REOPTIMIZATIONS: AtomicU64 = AtomicU64::new(0);

/// Record `n` plan re-optimizations (called by the session layer when the
/// sharing plan is recomputed on churn or rate drift).
#[inline]
pub fn record_plan_reoptimizations(n: u64) {
    PLAN_REOPTIMIZATIONS.fetch_add(n, Ordering::Relaxed);
}

/// Total plan re-optimizations so far in this process.
pub fn plan_reoptimizations() -> u64 {
    PLAN_REOPTIMIZATIONS.load(Ordering::Relaxed)
}

/// Total plan hot-swaps: a recompiled plan replaced the live one at a
/// batch boundary.
static PLAN_SWAPS: AtomicU64 = AtomicU64::new(0);

/// Record `n` plan hot-swaps (called by the session layer after the new
/// incarnation takes over the stream).
#[inline]
pub fn record_plan_swaps(n: u64) {
    PLAN_SWAPS.fetch_add(n, Ordering::Relaxed);
}

/// Total plan hot-swaps so far in this process.
pub fn plan_swaps() -> u64 {
    PLAN_SWAPS.load(Ordering::Relaxed)
}

/// Total windows of state lost across plan swaps. The hot-swap protocol
/// promises **zero**: a retiring plan incarnation is drained to completion
/// and every window it owned is settled before its state is dropped. This
/// counter only moves when a session is abandoned (dropped) with live
/// incarnations still holding window state.
static SWAP_WINDOWS_LOST: AtomicU64 = AtomicU64::new(0);

/// Record `n` windows of state discarded unfinished (called only on
/// abnormal session teardown).
#[inline]
pub fn record_swap_windows_lost(n: u64) {
    SWAP_WINDOWS_LOST.fetch_add(n, Ordering::Relaxed);
}

/// Total windows of state lost across plan swaps so far in this process.
///
/// Equivalence suites assert this stays **zero** across scripted churn
/// runs: hot-swapping the compiled plan never drops window state.
pub fn swap_windows_lost() -> u64 {
    SWAP_WINDOWS_LOST.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_counter_accumulates() {
        let before = router_scope_scans();
        record_router_scope_scans(3);
        record_router_scope_scans(1);
        assert!(router_scope_scans() >= before + 4);
    }

    #[test]
    fn routing_plane_counters_accumulate() {
        let (b0, s0) = (router_batches_routed(), router_stall_waits());
        record_router_batches_routed(2);
        record_router_stall_waits(1);
        assert!(router_batches_routed() >= b0 + 2);
        assert!(router_stall_waits() > s0);
    }

    #[test]
    fn row_scan_counters_accumulate() {
        let (s0, p0) = (rows_scanned(), rows_selected());
        record_rows_scanned(100);
        record_rows_selected(25);
        assert!(rows_scanned() >= s0 + 100);
        assert!(rows_selected() >= p0 + 25);
    }

    #[test]
    fn late_row_counter_accumulates() {
        let before = late_rows_dropped();
        record_late_rows_dropped(5);
        assert!(late_rows_dropped() >= before + 5);
    }

    #[test]
    fn churn_counters_accumulate() {
        let (a0, d0, r0, s0, l0) = (
            queries_attached(),
            queries_detached(),
            plan_reoptimizations(),
            plan_swaps(),
            swap_windows_lost(),
        );
        record_queries_attached(2);
        record_queries_detached(1);
        record_plan_reoptimizations(1);
        record_plan_swaps(1);
        record_swap_windows_lost(4);
        assert!(queries_attached() >= a0 + 2);
        assert!(queries_detached() > d0);
        assert!(plan_reoptimizations() > r0);
        assert!(plan_swaps() > s0);
        assert!(swap_windows_lost() >= l0 + 4);
    }

    #[test]
    fn durability_counters_accumulate() {
        let c0 = checkpoints_written();
        record_checkpoints_written(1);
        assert!(checkpoints_written() > c0);
    }
}
