//! # sharon-metrics
//!
//! Measurement utilities for reproducing the paper's evaluation metrics
//! (Section 8.1): peak memory, work counters and result tables.
//!
//! * [`alloc`] — a [`TrackingAllocator`] recording current/peak heap use
//!   (install as `#[global_allocator]` in bench binaries);
//! * [`counters`] — explicit runtime work counters (router scope scans)
//!   backing the shared-work regression tests;
//! * [`report`] — printable/serializable result [`Table`]s, one per
//!   reproduced figure.

#![warn(missing_docs)]

pub mod alloc;
pub mod counters;
pub mod report;

pub use alloc::{
    alloc_count, current_bytes, measure_allocs, measure_peak, peak_bytes, reset_peak,
    TrackingAllocator,
};
pub use counters::{
    checkpoints_written, late_rows_dropped, plan_reoptimizations, plan_swaps, queries_attached,
    queries_detached, record_checkpoints_written, record_late_rows_dropped,
    record_plan_reoptimizations, record_plan_swaps, record_queries_attached,
    record_queries_detached, record_router_batches_routed, record_router_scope_scans,
    record_router_stall_waits, record_rows_scanned, record_rows_selected, record_swap_windows_lost,
    router_batches_routed, router_scope_scans, router_stall_waits, rows_scanned, rows_selected,
    swap_windows_lost,
};
pub use report::{fmt_bytes, fmt_duration, fmt_throughput, Table};
