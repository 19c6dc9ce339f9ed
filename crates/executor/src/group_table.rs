//! The group table of one partition engine: the owner of every `GROUP BY`
//! partition's state (the block's planes are described in `engine.rs`).
//!
//! A [`GroupTable`] keeps one [`GroupRuntime`] block per group in a dense
//! slot vector, indexed by an `FxHashMap` from the group's key to its slot
//! id. Every group creation ([`GroupTable::intern`]), lookup
//! ([`GroupTable::get_mut`]), walk ([`GroupTable::for_each_mut`],
//! [`GroupTable::cell_count`]) and the block codec
//! ([`GroupTable::save`] / [`GroupTable::load`]) goes through it; the
//! kernel that reads and writes a block lives in [`crate::engine`].
//!
//! Walks follow the index map's iteration order, not slot order: that is
//! the order checkpoints write groups in and the order the engine closes
//! their last windows at `finish`, so both stay what they were when the
//! map held the blocks themselves.
//!
//! Every group stays resident. A tier that paged cold groups to disk was
//! deleted: on LR it trimmed the peak by 5–9 % at ×0.71–0.93 throughput,
//! and the peak still grew with the run, since the result log and the
//! input dominate it.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

use crate::agg::Aggregate;
use crate::chainlog::ChainLog;
use crate::checkpoint::{StateError, StateReader, StateWriter};
use crate::compile::CompiledPartition;
use crate::runner::SegmentRunner;
use crate::winvec::WindowPlane;
use sharon_types::{FxHashMap, GroupKey, Timestamp};
use std::collections::hash_map::Entry;

/// Per-group runtime state: one block laid out by the compiled partition.
pub(crate) struct GroupRuntime<A> {
    /// This group's id in the log it last closed a window into (see
    /// `engine::result_id`; not persisted).
    pub(crate) result_id: u32,
    /// Column `q` is query `q`'s final accumulator; the rest mirror chain
    /// logs (`CompiledPartition::mirror_col`). Its first open window is
    /// the group's close watermark.
    pub(crate) plane: WindowPlane<A>,
    pub(crate) runners: Box<[SegmentRunner<A>]>,
    /// Log `queries[q].chain_base + stage` records `R_stage` of query `q`
    /// (stages `0 .. n_stages − 1`).
    pub(crate) chains: Box<[ChainLog<A>]>,
}

impl<A: Aggregate> GroupRuntime<A> {
    fn new(part: &CompiledPartition) -> Self {
        GroupRuntime {
            result_id: 0,
            plane: WindowPlane::new(part.window.max_open(), part.n_cols),
            runners: part
                .runners
                .iter()
                .map(|r| SegmentRunner::new(r.len, r.start_subs.len()))
                .collect(),
            chains: part.mirror_col.iter().map(|_| ChainLog::new()).collect(),
        }
    }

    /// Serialize this group's full evaluation state: one length-prefixed
    /// block per group in a checkpoint segment.
    fn save_state(&self, w: &mut StateWriter) {
        self.plane.save_state(w);
        w.seq_len(self.runners.len());
        for r in self.runners.iter() {
            r.save_state(w);
        }
        w.seq_len(self.chains.len());
        for log in self.chains.iter() {
            log.save_state(w);
        }
    }

    /// Decode a group written by [`GroupRuntime::save_state`], checking
    /// every dimension against the compiled partition the state claims to
    /// belong to. The group's close watermark cannot be past the oldest
    /// window covering `last_time`, the engine's last row: the engine
    /// closes no later window before a row passes it, and the next row's
    /// fold spans the windows from the watermark to its own.
    fn load_state(
        r: &mut StateReader<'_>,
        part: &CompiledPartition,
        last_time: Timestamp,
    ) -> Result<Self, StateError> {
        let plane = WindowPlane::load_state(r, part.window.max_open(), part.n_cols)?;
        let spec = part.window;
        if plane.first_seq() > spec.first_start_covering(last_time).millis() / spec.slide.millis() {
            return Err(StateError::Corrupt("window plane opens past the last row"));
        }
        if r.seq_len()? != part.runners.len() {
            return Err(StateError::Corrupt("group runner count"));
        }
        let runners = part
            .runners
            .iter()
            .map(|spec| SegmentRunner::load_state(r, spec.len, spec.start_subs.len()))
            .collect::<Result<_, _>>()?;
        if r.seq_len()? != part.mirror_col.len() {
            return Err(StateError::Corrupt("group chain-log count"));
        }
        let chains = part
            .mirror_col
            .iter()
            .map(|_| ChainLog::load_state(r))
            .collect::<Result<_, _>>()?;
        Ok(GroupRuntime {
            result_id: 0,
            plane,
            runners,
            chains,
        })
    }

    /// Live aggregate cells (memory proxy): the cells and offsets of live
    /// runner records, chain-log entries, non-zero cells of open windows.
    fn cell_count(&self) -> usize {
        self.plane.live_cells()
            + self
                .runners
                .iter()
                .map(SegmentRunner::cell_count)
                .sum::<usize>()
            + self.chains.iter().map(ChainLog::len).sum::<usize>()
    }
}

/// Every group of one partition engine: dense slots behind a key index.
pub(crate) struct GroupTable<A> {
    /// Slot `gid` is the block of the group that `index` maps to `gid`.
    slots: Vec<GroupRuntime<A>>,
    index: FxHashMap<GroupKey, u32>,
}

impl<A: Aggregate> GroupTable<A> {
    pub(crate) fn new() -> Self {
        GroupTable {
            slots: Vec::new(),
            index: FxHashMap::default(),
        }
    }

    /// The slot id of the group `key`, laid out by `part` on first sight.
    /// The hit path is one probe; only a new group pays the insert, a
    /// second probe and the one clone of its key.
    #[inline]
    pub(crate) fn intern(&mut self, key: &GroupKey, part: &CompiledPartition) -> u32 {
        if let Some(&gid) = self.index.get(key) {
            return gid;
        }
        let gid = self.slots.len() as u32;
        self.slots.push(GroupRuntime::new(part));
        self.index.insert(key.clone(), gid);
        gid
    }

    /// The block in slot `gid` (an id [`GroupTable::intern`] returned).
    #[inline]
    pub(crate) fn get_mut(&mut self, gid: u32) -> &mut GroupRuntime<A> {
        &mut self.slots[gid as usize]
    }

    /// Each group's key and block, in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&GroupKey, &GroupRuntime<A>)> {
        self.index
            .iter()
            .map(|(key, &gid)| (key, &self.slots[gid as usize]))
    }

    /// Run `f` on each group's key and block, in index order.
    pub(crate) fn for_each_mut(&mut self, mut f: impl FnMut(&GroupKey, &mut GroupRuntime<A>)) {
        for (key, &gid) in &self.index {
            f(key, &mut self.slots[gid as usize]);
        }
    }

    /// Live aggregate cells across all groups (memory proxy).
    pub(crate) fn cell_count(&self) -> usize {
        self.iter().map(|(_, grt)| grt.cell_count()).sum()
    }

    /// Write the group count, then per group in index order its key and
    /// its block, length-prefixed.
    pub(crate) fn save(&self, w: &mut StateWriter) {
        w.seq_len(self.index.len());
        for (key, grt) in self.iter() {
            w.group_key(key);
            let mut gw = StateWriter::new();
            grt.save_state(&mut gw);
            w.bytes(&gw.into_bytes());
        }
    }

    /// Replace every group with those written by [`GroupTable::save`] for
    /// the same compiled partition, by an engine whose last row was at
    /// `last_time`. A key that appears twice is corrupt: one of its blocks
    /// would silently be lost.
    pub(crate) fn load(
        &mut self,
        r: &mut StateReader<'_>,
        part: &CompiledPartition,
        last_time: Timestamp,
    ) -> Result<(), StateError> {
        let n_groups = r.seq_len()?;
        self.slots.clear();
        self.index.clear();
        for _ in 0..n_groups {
            let key = r.group_key()?;
            let mut gr = StateReader::new(r.bytes()?);
            let grt = GroupRuntime::load_state(&mut gr, part, last_time)?;
            if !gr.is_exhausted() {
                return Err(StateError::Corrupt("trailing group state bytes"));
            }
            match self.index.entry(key) {
                Entry::Occupied(_) => return Err(StateError::Corrupt("duplicate group key")),
                Entry::Vacant(slot) => {
                    slot.insert(self.slots.len() as u32);
                    self.slots.push(grt);
                }
            }
        }
        Ok(())
    }
}
