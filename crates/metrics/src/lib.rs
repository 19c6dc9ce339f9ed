//! # sharon-metrics
//!
//! Process-wide measurement hooks behind the benchmark rig and the
//! regression tests (Section 8.1's peak memory, and runtime counters).
//!
//! * `alloc` — a [`TrackingAllocator`] recording current/peak heap use
//!   and allocation calls (install as `#[global_allocator]` in the rig
//!   and in the allocation-regression tests);
//! * `counters` — explicit runtime work counters (router scope scans,
//!   [`router_scope_scans`]) backing the shared-work regression tests.

#![warn(missing_docs)]

mod alloc;
mod counters;

pub use alloc::{
    alloc_count, current_bytes, measure_allocs, peak_bytes, reset_peak, TrackingAllocator,
};
pub use counters::{
    checkpoints_written, late_rows_dropped, record_checkpoints_written, record_late_rows_dropped,
    record_router_batches_routed, record_router_scope_scans, record_router_stall_waits,
    record_rows_scanned, record_rows_selected, record_swap_windows_lost, router_batches_routed,
    router_scope_scans, router_stall_waits, rows_scanned, rows_selected, swap_windows_lost,
};
