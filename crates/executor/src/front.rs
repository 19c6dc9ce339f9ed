//! The select stage of every owner of routing scopes: the online
//! [`crate::Executor`] (a scope per partition engine), the two-step
//! baselines' driver (a scope per distinct baseline scope) and the
//! sharded runtime's [`crate::BatchRouter`]. It is the stateless prefix
//! in front of the stateful side (§2.2, Fig. 5): in
//! [`ScanFront::select`] one [`TypePass`] serves every scope's
//! [`ScanKernel`], each kernel selects into a reused list, and one
//! [`ScanCounters`] tallies rows scanned and selected per scope.
//!
//! What follows selection is the owner's own: the router fans the lists
//! out to shards by key hash, the two-step driver hands each scope's
//! rows to its subscribers, and the executor dispatches them to its
//! engines, directly or through its event-time gate (the only one in
//! the system; see [`crate::Executor`]).

use crate::scan::{ScanCounters, ScanKernel, TypePass};
use sharon_types::EventBatch;
use std::sync::Arc;

/// The select stage of one owner: its scopes' compiled scan kernels, the
/// type pass they share, reused per-scope selection lists and the
/// per-scope tallies. Steady-state selection allocates nothing.
#[derive(Debug)]
pub struct ScanFront {
    kernels: Vec<ScanKernel>,
    /// Built once per chunk, covering every kernel's routed types.
    pass: TypePass,
    /// Per scope: the rows its kernel selected from the last chunk.
    sel: Vec<Vec<u32>>,
    /// Per-scope tallies, shareable with a handle on another thread.
    counters: Arc<ScanCounters>,
}

impl ScanFront {
    /// A front end over `kernels`, one per routing scope in scope order.
    pub fn new(kernels: Vec<ScanKernel>) -> Self {
        ScanFront {
            pass: TypePass::new(&kernels),
            sel: vec![Vec::new(); kernels.len()],
            counters: ScanCounters::new(kernels.len()),
            kernels,
        }
    }

    /// Select every scope's rows among rows `lo..hi` of `batch` and tally
    /// them. Returns the per-scope lists of absolute row indexes,
    /// ascending, valid until the next call.
    pub fn select(&mut self, batch: &EventBatch, lo: usize, hi: usize) -> &[Vec<u32>] {
        self.pass.build(batch, lo, hi);
        let scanned = (hi - lo) as u64;
        for (scope, (kernel, list)) in self.kernels.iter_mut().zip(&mut self.sel).enumerate() {
            list.clear();
            kernel.select_from(&self.pass, batch, list);
            let selected = list.len() as u64;
            self.counters.record(scope, scanned, selected);
            sharon_metrics::record_rows_scanned(scanned);
            sharon_metrics::record_rows_selected(selected);
        }
        &self.sel
    }

    /// The per-scope `(rows_scanned, rows_selected)` tallies.
    pub fn counters(&self) -> &Arc<ScanCounters> {
        &self.counters
    }
}
