//! # sharon-metrics
//!
//! Measurement utilities for reproducing the paper's evaluation metrics
//! (Section 8.1): peak memory, work counters and result tables.
//!
//! * `alloc` — a [`TrackingAllocator`] recording current/peak heap use
//!   (install as `#[global_allocator]` in bench binaries);
//! * `counters` — explicit runtime work counters (router scope scans,
//!   [`router_scope_scans`]) backing the shared-work regression tests;
//! * `report` — result [`Table`]s, printed or appended as JSON lines, one per
//!   reproduced figure.

#![warn(missing_docs)]

mod alloc;
mod counters;
mod report;

pub use alloc::{
    alloc_count, current_bytes, measure_allocs, measure_peak, peak_bytes, reset_peak,
    TrackingAllocator,
};
pub use counters::{
    checkpoints_written, late_rows_dropped, record_checkpoints_written, record_late_rows_dropped,
    record_router_batches_routed, record_router_scope_scans, record_router_stall_waits,
    record_rows_scanned, record_rows_selected, record_swap_windows_lost, router_batches_routed,
    router_scope_scans, router_stall_waits, rows_scanned, rows_selected, swap_windows_lost,
};
pub use report::{fmt_bytes, fmt_duration, fmt_throughput, Table};
