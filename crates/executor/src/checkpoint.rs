//! Durable engine state: the checkpoint codec, store, and barrier.
//!
//! A long-running service cannot afford to lose the window/group/chain-log
//! state the shared plan accumulates, so the sharded runtime periodically
//! snapshots every shard's engine state at a consistent batch boundary (a
//! *checkpoint barrier* flows through the ingest pipeline behind the last
//! routed batch) and serializes it to a per-shard segment file plus a
//! checksummed manifest. A restarted executor restores the latest complete
//! checkpoint and replays the stream from the recorded offset, producing
//! results identical to an uninterrupted run.
//!
//! The codec here is hand-rolled: little-endian fixed-width primitives,
//! length-prefixed collections, and an FNV-1a checksum over every file.
//! Both ends of it are compiled from the same source, so the format is an
//! internal detail of this crate and carries no field names; it is
//! versioned so a stale checkpoint directory fails loudly instead of
//! deserializing garbage, and trailing bytes after a manifest, segment or
//! group block count as corruption, not slack.
//!
//! Layout (v9). The manifest holds the replay offset, one router segment
//! (the router's event-time frontier) and a `(length, digest)` pair per
//! shard segment. A shard segment is written by its worker: the worker's
//! one result log (its key table, then per log segment the row count and
//! the byte column as the log holds it, run headers included; see
//! `results.rs`), the count of engine images,
//! each engine image in partition order (kernel tag, last row time,
//! matched count, then its groups, each a key and a length-prefixed
//! block), then the worker's one gate block: a present flag and, when
//! set, the gate's state (its bytes unchanged since v6: the lateness,
//! frontier, watermark, admission counter, late-drop count and the rows
//! still waiting, each tagged with its engine's index).

use sharon_types::{GroupKey, Timestamp, Value};
use std::fmt;
use std::fs;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Magic bytes opening every manifest file.
const MANIFEST_MAGIC: &[u8; 8] = b"SHRNCKPT";
/// Checkpoint format version; bump on any codec change.
/// v2: event-time sections (router frontier, per-engine reorder gate).
/// v3: a counted list of router-state segments (today always one: the
/// runtime has one router thread).
/// v4: results image is a key table plus rows by group id (was a nested
/// key → value map with a key per row).
/// v5: a group is one block — window plane, runner rings carrying their
/// chain offsets, chain logs without a pending buffer (was a forest of
/// runners, offset deques, logs, mirror and final window vectors).
/// v6: no hot-group split state — a router segment is its frontier alone,
/// and engine, group and pending-row images lose their split fields.
/// v7: one event-time gate block per shard segment, after the engine
/// images (each used to end in a gate block of its own).
/// v8: one result log per shard segment, ahead of the engine images
/// (each used to carry a log of its own).
/// v9: the result log is its segments' byte columns as they are (was one
/// 33-byte record per row, re-encoded on load).
const FORMAT_VERSION: u32 = 9;

// ---------------------------------------------------------------------------
// errors
// ---------------------------------------------------------------------------

/// A decoding failure: the state bytes ran out or held an impossible value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The reader ran past the end of the buffer.
    Eof,
    /// A tag, length, or invariant did not decode to anything legal.
    Corrupt(&'static str),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Eof => write!(f, "unexpected end of state bytes"),
            StateError::Corrupt(what) => write!(f, "corrupt state: {what}"),
        }
    }
}

impl std::error::Error for StateError {}

/// A checkpoint store failure: I/O, corruption, or an incompatible layout.
#[derive(Debug)]
pub enum CheckpointError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
    /// A manifest or segment failed its checksum or decode.
    Corrupt(String),
    /// No complete checkpoint exists in the store.
    Missing,
    /// The checkpoint was taken under a different configuration (e.g. a
    /// different shard count) and cannot restore into this executor.
    Mismatch(String),
    /// The manifest carries this many router segments; the runtime has
    /// one router thread and restores exactly one (a multi-router build
    /// wrote the others).
    RouterSegments(usize),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CheckpointError::Corrupt(what) => write!(f, "checkpoint corrupt: {what}"),
            CheckpointError::Missing => write!(f, "no complete checkpoint found"),
            CheckpointError::Mismatch(what) => write!(f, "checkpoint mismatch: {what}"),
            CheckpointError::RouterSegments(n) => write!(
                f,
                "checkpoint carries {n} router segment(s); this runtime restores exactly one"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<StateError> for CheckpointError {
    fn from(e: StateError) -> Self {
        CheckpointError::Corrupt(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// codec
// ---------------------------------------------------------------------------

/// Append-only binary encoder for engine state.
///
/// All primitives are little-endian fixed width; collections are encoded as
/// a `u64` length followed by their elements.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        StateWriter { buf: Vec::new() }
    }

    /// Consume the writer and return the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Write a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` by its IEEE-754 bit pattern (NaN-exact).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write a collection length prefix.
    pub fn seq_len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.seq_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Write length-prefixed raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.seq_len(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Write a [`Timestamp`] as milliseconds.
    pub fn time(&mut self, t: Timestamp) {
        self.u64(t.millis());
    }

    /// Write a typed attribute [`Value`] (tag + payload).
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => {
                self.u8(0);
                self.i64(*i);
            }
            Value::Float(f) => {
                self.u8(1);
                self.f64(*f);
            }
            Value::Str(s) => {
                self.u8(2);
                self.str(s);
            }
        }
    }

    /// Write a [`GroupKey`] (tag + values).
    pub fn group_key(&mut self, k: &GroupKey) {
        match k {
            GroupKey::Global => self.u8(0),
            GroupKey::One(v) => {
                self.u8(1);
                self.value(v);
            }
            GroupKey::Many(vs) => {
                self.u8(2);
                self.seq_len(vs.len());
                for v in vs.iter() {
                    self.value(v);
                }
            }
        }
    }
}

/// Cursor-style binary decoder matching [`StateWriter`]'s encoding.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Decode from `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        StateReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed — loaders assert this to
    /// catch drifting encodings early.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        if self.remaining() < n {
            return Err(StateError::Eof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `bool` (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, StateError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(StateError::Corrupt("bool tag")),
        }
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StateError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StateError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len")))
    }

    /// Read a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, StateError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().expect("len")))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, StateError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len")))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, StateError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `usize` (encoded as `u64`).
    pub fn usize(&mut self) -> Result<usize, StateError> {
        Ok(self.u64()? as usize)
    }

    /// Read a collection length prefix, bounds-checked against the bytes
    /// that could possibly remain (so a corrupt length fails fast instead
    /// of driving a huge allocation).
    pub fn seq_len(&mut self) -> Result<usize, StateError> {
        let n = self.u64()? as usize;
        if n > self.remaining() {
            return Err(StateError::Corrupt("sequence length exceeds payload"));
        }
        Ok(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, StateError> {
        let n = self.seq_len()?;
        std::str::from_utf8(self.take(n)?).map_err(|_| StateError::Corrupt("utf-8 string"))
    }

    /// Read length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], StateError> {
        let n = self.seq_len()?;
        self.take(n)
    }

    /// Read a [`Timestamp`].
    pub fn time(&mut self) -> Result<Timestamp, StateError> {
        Ok(Timestamp(self.u64()?))
    }

    /// Read a typed attribute [`Value`].
    pub fn value(&mut self) -> Result<Value, StateError> {
        match self.u8()? {
            0 => Ok(Value::Int(self.i64()?)),
            1 => Ok(Value::Float(self.f64()?)),
            2 => Ok(Value::str(self.str()?)),
            _ => Err(StateError::Corrupt("value tag")),
        }
    }

    /// Read a [`GroupKey`].
    pub fn group_key(&mut self) -> Result<GroupKey, StateError> {
        match self.u8()? {
            0 => Ok(GroupKey::Global),
            1 => Ok(GroupKey::One(self.value()?)),
            2 => {
                let n = self.seq_len()?;
                let mut vs = Vec::with_capacity(n);
                for _ in 0..n {
                    vs.push(self.value()?);
                }
                Ok(GroupKey::Many(vs.into_boxed_slice()))
            }
            _ => Err(StateError::Corrupt("group key tag")),
        }
    }
}

/// FNV-1a over `bytes` — the checksum guarding every checkpoint file.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// store
// ---------------------------------------------------------------------------

/// One complete, verified checkpoint as loaded from disk.
#[derive(Debug, Clone)]
pub struct CheckpointData {
    /// Monotonic checkpoint id (highest wins).
    pub id: u64,
    /// Events ingested before the barrier — the stream replay offset.
    pub events_sent: u64,
    /// Serialized router state (the watermark frontier).
    pub router: Vec<u8>,
    /// Serialized engine state, one segment per shard.
    pub shards: Vec<Vec<u8>>,
}

/// A directory of checkpoints: `ckpt-<id>/shard-<i>.seg` plus a
/// checksummed `MANIFEST`, written segments-first with the manifest
/// renamed into place last so a crash mid-write never yields a
/// checkpoint that looks complete. Each write deletes the checkpoints
/// older than the previous complete one, so the store holds two
/// generations.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if needed) the store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn ckpt_dir(&self, id: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{id:016}"))
    }

    /// The next unused checkpoint id (one past the highest present,
    /// complete or not — an interrupted write must not be overwritten by
    /// a resumed executor reusing its id).
    pub fn next_id(&self) -> io::Result<u64> {
        Ok(self.ids()?.last().map_or(0, |id| id + 1))
    }

    fn ids(&self) -> io::Result<Vec<u64>> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            if let Some(rest) = name.to_string_lossy().strip_prefix("ckpt-") {
                if let Ok(id) = rest.parse::<u64>() {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// Write checkpoint `id`: per-shard segments, then the manifest
    /// (atomically, via rename). The manifest keeps a counted router
    /// list (since v3), holding the one `router` segment. Then deletes
    /// the checkpoints older than the previous complete one. Returns the
    /// total bytes written.
    pub fn write(
        &self,
        id: u64,
        events_sent: u64,
        router: &[u8],
        shards: &[Vec<u8>],
    ) -> io::Result<u64> {
        let dir = self.ckpt_dir(id);
        fs::create_dir_all(&dir)?;
        let mut total = 0u64;
        let mut digests = Vec::with_capacity(shards.len());
        for (i, seg) in shards.iter().enumerate() {
            let path = dir.join(format!("shard-{i}.seg"));
            let mut f = fs::File::create(&path)?;
            f.write_all(seg)?;
            f.sync_all()?;
            digests.push((seg.len() as u64, fnv1a(seg)));
            total += seg.len() as u64;
        }

        let mut m = StateWriter::new();
        m.buf.extend_from_slice(MANIFEST_MAGIC);
        m.u32(FORMAT_VERSION);
        m.u64(id);
        m.u64(events_sent);
        m.seq_len(1);
        m.bytes(router);
        m.seq_len(shards.len());
        for (len, digest) in &digests {
            m.u64(*len);
            m.u64(*digest);
        }
        let digest = fnv1a(&m.buf);
        m.u64(digest);
        let bytes = m.into_bytes();
        total += bytes.len() as u64;

        let tmp = dir.join("MANIFEST.tmp");
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, dir.join("MANIFEST"))?;
        self.prune_before(id)?;
        Ok(total)
    }

    /// Delete every checkpoint older than the newest complete one before
    /// `id`. Each snapshot holds the whole result log, so keeping them all
    /// grows disk use quadratically with the run; keeping two generations
    /// still lets [`CheckpointStore::latest`] fall back past a corrupt
    /// newest one.
    fn prune_before(&self, id: u64) -> io::Result<()> {
        let ids = self.ids()?;
        let complete = |old: u64| self.ckpt_dir(old).join("MANIFEST").is_file();
        let Some(keep) = ids
            .iter()
            .rev()
            .copied()
            .find(|&old| old < id && complete(old))
        else {
            return Ok(());
        };
        for old in ids.into_iter().take_while(|&old| old < keep) {
            fs::remove_dir_all(self.ckpt_dir(old))?;
        }
        Ok(())
    }

    /// Load the newest checkpoint whose manifest and segments all verify.
    ///
    /// Incomplete or corrupt checkpoints (e.g. from a crash mid-write) are
    /// skipped; returns [`CheckpointError::Missing`] when none survives.
    pub fn latest(&self) -> Result<CheckpointData, CheckpointError> {
        for id in self.ids()?.into_iter().rev() {
            match self.load(id) {
                Ok(data) => return Ok(data),
                Err(CheckpointError::Io(_)) | Err(CheckpointError::Corrupt(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(CheckpointError::Missing)
    }

    /// Load and verify checkpoint `id`. A manifest with any number of
    /// router segments but one is [`CheckpointError::RouterSegments`].
    pub fn load(&self, id: u64) -> Result<CheckpointData, CheckpointError> {
        let dir = self.ckpt_dir(id);
        let bytes = fs::read(dir.join("MANIFEST"))?;
        if bytes.len() < MANIFEST_MAGIC.len() + 8 {
            return Err(CheckpointError::Corrupt("manifest truncated".into()));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("len"));
        if fnv1a(body) != stored {
            return Err(CheckpointError::Corrupt("manifest checksum".into()));
        }
        let mut r = StateReader::new(body);
        if r.take(MANIFEST_MAGIC.len())? != MANIFEST_MAGIC {
            return Err(CheckpointError::Corrupt("manifest magic".into()));
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint format v{version}, this build reads v{FORMAT_VERSION}"
            )));
        }
        let manifest_id = r.u64()?;
        if manifest_id != id {
            return Err(CheckpointError::Corrupt("manifest id".into()));
        }
        let events_sent = r.u64()?;
        let n_segments = r.seq_len()?;
        if n_segments != 1 {
            return Err(CheckpointError::RouterSegments(n_segments));
        }
        let router = r.bytes()?.to_vec();
        let n_shards = r.seq_len()?;
        let mut shards = Vec::with_capacity(n_shards);
        for i in 0..n_shards {
            let len = r.u64()?;
            let digest = r.u64()?;
            let mut seg = Vec::new();
            fs::File::open(dir.join(format!("shard-{i}.seg")))?.read_to_end(&mut seg)?;
            if seg.len() as u64 != len || fnv1a(&seg) != digest {
                return Err(CheckpointError::Corrupt(format!("shard {i} segment")));
            }
            shards.push(seg);
        }
        if !r.is_exhausted() {
            return Err(CheckpointError::Corrupt("manifest trailing bytes".into()));
        }
        Ok(CheckpointData {
            id,
            events_sent,
            router,
            shards,
        })
    }
}

// ---------------------------------------------------------------------------
// configuration knobs
// ---------------------------------------------------------------------------

/// Periodic-checkpoint configuration for the sharded runtime.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding the [`CheckpointStore`].
    pub dir: PathBuf,
    /// Take a checkpoint every this many ingested batches (≥ 1).
    pub interval_batches: u64,
}

impl CheckpointConfig {
    /// Checkpoint into `dir` every `interval_batches` batches.
    pub fn every(dir: impl Into<PathBuf>, interval_batches: u64) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            interval_batches: interval_batches.max(1),
        }
    }
}

/// A fault to inject into the sharded runtime, for panic-containment
/// tests. A crash mid-stream needs no plan: drop the executor (or kill
/// the process) and resume from its checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlan {
    /// Worker shard `shard` panics while processing its `batch`-th batch
    /// (exercises panic containment, not recovery).
    PanicWorker {
        /// Zero-based per-worker batch index at which to panic.
        batch: u64,
        /// The shard whose worker panics.
        shard: usize,
    },
}

// ---------------------------------------------------------------------------
// barrier
// ---------------------------------------------------------------------------

/// The rendezvous behind one checkpoint: the ingest thread injects it into
/// the pipeline after the last routed batch, the router thread deposits
/// its routing state, every worker deposits its serialized
/// engine state, and the ingest thread collects the lot once all slots
/// fill. `S` is what a worker deposits: state bytes for a checkpoint, the
/// result log itself (moved, never encoded) for a result harvest.
#[derive(Debug)]
pub(crate) struct CheckpointBarrier<S = Vec<u8>> {
    slots: Mutex<BarrierSlots<S>>,
    filled: Condvar,
}

/// The harvest a filled barrier yields: the router's serialized segment,
/// then one deposit per worker shard.
pub(crate) type BarrierHarvest<S = Vec<u8>> = (Vec<u8>, Vec<S>);

#[derive(Debug)]
struct BarrierSlots<S> {
    router: Option<Vec<u8>>,
    shards: Vec<Option<S>>,
}

impl<S> CheckpointBarrier<S> {
    /// A barrier awaiting the router's deposit and `n_shards` worker
    /// deposits.
    pub(crate) fn new(n_shards: usize) -> Self {
        CheckpointBarrier {
            slots: Mutex::new(BarrierSlots {
                router: None,
                shards: std::iter::repeat_with(|| None).take(n_shards).collect(),
            }),
            filled: Condvar::new(),
        }
    }

    /// Deposit the router thread's serialized state.
    pub(crate) fn fill_router(&self, bytes: Vec<u8>) {
        let mut s = self.slots.lock().expect("barrier poisoned");
        s.router = Some(bytes);
        self.filled.notify_all();
    }

    /// Deposit worker `shard`'s state.
    pub(crate) fn fill_shard(&self, shard: usize, deposit: S) {
        let mut s = self.slots.lock().expect("barrier poisoned");
        s.shards[shard] = Some(deposit);
        self.filled.notify_all();
    }

    /// Wait until every slot is filled and return `(router, shards)`.
    ///
    /// Checks `cancel` periodically so a worker that died mid-checkpoint
    /// fails the barrier instead of hanging the ingest thread forever.
    pub(crate) fn wait(&self, cancel: &AtomicBool) -> Result<BarrierHarvest<S>, CheckpointError> {
        let mut s = self.slots.lock().expect("barrier poisoned");
        loop {
            if s.router.is_some() && s.shards.iter().all(|x| x.is_some()) {
                let router = s.router.take().expect("checked");
                let shards = s
                    .shards
                    .iter_mut()
                    .map(|x| x.take().expect("checked"))
                    .collect();
                return Ok((router, shards));
            }
            if cancel.load(Ordering::Acquire) {
                return Err(CheckpointError::Corrupt(
                    "a runtime thread failed during the checkpoint barrier".into(),
                ));
            }
            let (guard, _) = self
                .filled
                .wait_timeout(s, Duration::from_millis(20))
                .expect("barrier poisoned");
            s = guard;
        }
    }
}

/// Convenience alias used by barrier messages flowing through the rings.
pub(crate) type BarrierRef = Arc<CheckpointBarrier>;

/// A result-harvest barrier in flight: workers deposit their result log.
pub(crate) type HarvestRef = Arc<CheckpointBarrier<crate::results::ExecutorResults>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = StateWriter::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.u128(u128::MAX / 3);
        w.i64(-42);
        w.f64(f64::NAN);
        w.usize(12345);
        w.str("héllo");
        w.bytes(&[1, 2, 3]);
        w.time(Timestamp(99));
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.i64().unwrap(), -42);
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.time().unwrap(), Timestamp(99));
        assert!(r.is_exhausted());
    }

    #[test]
    fn values_and_group_keys_round_trip() {
        let keys = [
            GroupKey::Global,
            GroupKey::One(Value::Int(-5)),
            GroupKey::One(Value::Float(2.5)),
            GroupKey::One(Value::from("vehicle-9")),
            GroupKey::from_values(vec![Value::Int(1), Value::from("x"), Value::Float(0.0)]),
        ];
        let mut w = StateWriter::new();
        for k in &keys {
            w.group_key(k);
        }
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        for k in &keys {
            assert_eq!(&r.group_key().unwrap(), k);
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn reader_rejects_corruption() {
        let mut w = StateWriter::new();
        w.u8(9); // not a legal value tag
        let bytes = w.into_bytes();
        assert!(StateReader::new(&bytes).value().is_err());
        assert_eq!(StateReader::new(&[]).u64(), Err(StateError::Eof));
        // a huge length prefix must not drive a huge allocation
        let mut w = StateWriter::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(StateReader::new(&bytes).seq_len().is_err());
    }

    #[test]
    fn fnv1a_is_stable() {
        // reference vectors for the 64-bit FNV-1a parameters
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    fn test_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sharon-ckpt-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_round_trips_and_picks_latest() {
        let dir = test_dir("latest");
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(matches!(store.latest(), Err(CheckpointError::Missing)));
        store
            .write(0, 100, b"router-a", &[b"s0".to_vec(), b"s1".to_vec()])
            .unwrap();
        store
            .write(1, 200, b"router-b", &[b"t0".to_vec(), b"t1".to_vec()])
            .unwrap();
        let got = store.latest().unwrap();
        assert_eq!(got.id, 1);
        assert_eq!(got.events_sent, 200);
        assert_eq!(got.router, b"router-b".to_vec());
        assert_eq!(got.shards, vec![b"t0".to_vec(), b"t1".to_vec()]);
        assert_eq!(store.next_id().unwrap(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_skips_incomplete_and_corrupt_checkpoints() {
        let dir = test_dir("skip");
        let store = CheckpointStore::open(&dir).unwrap();
        store.write(0, 50, b"r", &[b"good".to_vec()]).unwrap();

        // checkpoint 1: segments written but no manifest (crash mid-write)
        let half = dir.join("ckpt-0000000000000001");
        fs::create_dir_all(&half).unwrap();
        fs::write(half.join("shard-0.seg"), b"half").unwrap();

        // checkpoint 2: manifest present but a segment is corrupt
        store.write(2, 70, b"r", &[b"zap".to_vec()]).unwrap();
        fs::write(
            dir.join("ckpt-0000000000000002").join("shard-0.seg"),
            b"flipped",
        )
        .unwrap();

        let got = store.latest().unwrap();
        assert_eq!((got.id, got.events_sent), (0, 50));
        // ids 1 and 2 still reserve their slots
        assert_eq!(store.next_id().unwrap(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_keeps_two_generations() {
        let dir = test_dir("retain");
        let store = CheckpointStore::open(&dir).unwrap();
        for id in 0..5 {
            store
                .write(id, 10 * id, b"r", &[vec![id as u8; 4]])
                .unwrap();
        }
        let mut left: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(left, ["ckpt-0000000000000003", "ckpt-0000000000000004"]);

        // the older generation is the fallback past a corrupt newest one
        fs::write(
            dir.join("ckpt-0000000000000004").join("shard-0.seg"),
            b"flipped",
        )
        .unwrap();
        let got = store.latest().unwrap();
        assert_eq!((got.id, got.events_sent), (3, 30));
        assert_eq!(store.next_id().unwrap(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn older_format_is_refused_naming_both_versions() {
        // a v8 directory (result logs as one record per row) must not be
        // read as v9: rewrite a good manifest's version field and re-seal
        // it
        let dir = test_dir("v8");
        let store = CheckpointStore::open(&dir).unwrap();
        store.write(0, 50, b"r", &[b"seg".to_vec()]).unwrap();
        let manifest = dir.join("ckpt-0000000000000000").join("MANIFEST");
        let mut bytes = fs::read(&manifest).unwrap();
        let at = MANIFEST_MAGIC.len();
        assert_eq!(bytes[at..at + 4], FORMAT_VERSION.to_le_bytes());
        bytes[at..at + 4].copy_from_slice(&8u32.to_le_bytes());
        let body = bytes.len() - 8;
        let digest = fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&digest.to_le_bytes());
        fs::write(&manifest, &bytes).unwrap();

        for refused in [store.load(0), store.latest()] {
            match refused {
                Err(CheckpointError::Mismatch(msg)) => {
                    assert!(msg.contains("v8") && msg.contains("v9"), "{msg}");
                }
                other => panic!("expected a format mismatch, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn barrier_collects_all_slots() {
        let b = Arc::new(CheckpointBarrier::new(2));
        let cancel = AtomicBool::new(false);
        let b2 = Arc::clone(&b);
        let t = std::thread::spawn(move || {
            b2.fill_shard(1, vec![3]);
            b2.fill_router(vec![1]);
            b2.fill_shard(0, vec![2]);
        });
        let (router, shards) = b.wait(&cancel).unwrap();
        assert_eq!(router, vec![1]);
        assert_eq!(shards, vec![vec![2], vec![3]]);
        t.join().unwrap();
    }

    #[test]
    fn barrier_fails_on_cancel() {
        let b: CheckpointBarrier = CheckpointBarrier::new(1);
        let cancel = AtomicBool::new(true);
        assert!(b.wait(&cancel).is_err());

        // a worker that died before its deposit fails a half-filled barrier
        let b: CheckpointBarrier = CheckpointBarrier::new(2);
        b.fill_router(vec![]);
        b.fill_shard(0, vec![1]);
        assert!(matches!(b.wait(&cancel), Err(CheckpointError::Corrupt(_))));
    }
}
