//! The stateless front end of every owner of routing scopes: the online
//! [`crate::Executor`] (a scope per partition engine), the two-step
//! baselines' driver (a scope per distinct baseline scope) and the
//! sharded runtime's [`crate::BatchRouter`]. It is the prefix in front of
//! the stateful side (§2.2, Fig. 5), in two named stages:
//!
//! 1. **Select** — [`ScanFront::select`]: one [`TypePass`] serves every
//!    scope's [`ScanKernel`], each kernel selects into a reused list, and
//!    one [`ScanCounters`] tallies rows scanned and selected per scope.
//!    The router then fans the lists out to shards by key hash.
//! 2. **Dispatch** — [`dispatch`]: the executor and the two-step driver
//!    each hold one [`Reorder`] gate. Ungated, each scope's list goes
//!    straight to its consumer ([`ScopeSink::rows`]); gated, the
//!    scope-tagged lists go through [`Reorder::process`], which hands
//!    each released row to its scope's consumer ([`ScopeSink::row`]).
//!
//! Sequentially an owner selects, then dispatches at the batch's maximum
//! event time; as a shard worker it dispatches the router's lists at
//! [`crate::RoutedRows::frontier`]. Every scope of an owner sees the same
//! frontier, so one gate releases each scope's rows in the order a gate
//! of its own would, and a late row is dropped and counted once per
//! scope that selected it.

use crate::event_time::Reorder;
use crate::scan::{ScanCounters, ScanKernel, TypePass};
use sharon_types::{EventBatch, EventTypeId, Timestamp, Value};
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

/// The stateful side of an owner's scopes, as [`dispatch`] feeds it:
/// partition engines, or a baseline scope's subscribers.
pub trait ScopeSink {
    /// Fold the selected `rows` of `batch` into scope `scope`, in row
    /// order (the ungated path).
    fn rows(&mut self, scope: usize, batch: &EventBatch, rows: &[u32]);

    /// Fold one row the gate released into scope `scope`.
    fn row(&mut self, scope: usize, ty: EventTypeId, time: Timestamp, attrs: &[Value]);
}

/// The dispatch stage: `lists` (parallel to the owner's scopes) go
/// straight to `sink`, or — with a gate — through it in one call that
/// admits them (dropping and counting late rows), advances the watermark
/// to `frontier − lateness` and releases every row it passed, in
/// event-time order, while `batch` is alive to lend their attributes.
pub fn dispatch<S: ScopeSink + ?Sized>(
    sink: &mut S,
    gate: Option<&mut Reorder>,
    batch: &EventBatch,
    lists: &[Vec<u32>],
    frontier: Timestamp,
) {
    let Some(gate) = gate else {
        for (scope, rows) in lists.iter().enumerate() {
            if !rows.is_empty() {
                sink.rows(scope, batch, rows);
            }
        }
        return;
    };
    let lists = lists.iter().map(Vec::as_slice);
    gate.process(batch, lists, frontier, |ty, time, attrs, scope| {
        sink.row(scope as usize, ty, time, attrs)
    });
}

/// End of stream: open the gate (if any) and release every row it still
/// holds into `sink`, before any window is force-closed.
pub fn release_all<S: ScopeSink + ?Sized>(sink: &mut S, gate: Option<&mut Reorder>) {
    if let Some(gate) = gate {
        gate.flush(|ty, time, attrs, scope| sink.row(scope as usize, ty, time, attrs));
    }
}
