//! The LRU spill tier: cold groups page out to disk.
//!
//! `GROUP BY` cardinality bounds the engines' memory: every live group
//! holds window vectors, chain logs, and segment-runner state. For
//! workloads with `groups ≫ RAM` the engine pages *cold* groups out to an
//! append-only spill log (one per engine, under the checkpoint/spill
//! directory) and reloads them on access, keeping only a configured number
//! of groups resident. Group state is position-independent — results are
//! keyed by `(query, group, window)` and window close times do not depend
//! on *when* a group's windows are drained — so a group can disappear to
//! disk for any stretch of the stream and come back exact.
//!
//! The log is append-only: re-spilling a group appends a fresh record and
//! the index forgets the old one (no in-place compaction — spill files are
//! temporary run state, deleted when the engine is dropped). Traffic is
//! observable via `sharon_metrics::{group_spills, group_reloads}`.

use sharon_types::{FxHashMap, GroupKey};
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Spill-tier configuration for an engine (or every engine of a sharded
/// runtime).
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Directory for the spill logs (created if absent).
    pub dir: PathBuf,
    /// Maximum groups kept resident per engine; the coldest quarter is
    /// evicted whenever the map grows past this.
    pub max_resident: usize,
}

impl SpillConfig {
    /// Spill to `dir`, keeping at most `max_resident` groups in memory
    /// per engine (minimum 4, so eviction always leaves headroom).
    pub fn new(dir: impl Into<PathBuf>, max_resident: usize) -> Self {
        SpillConfig {
            dir: dir.into(),
            max_resident: max_resident.max(4),
        }
    }
}

/// One engine's append-only spill log plus its in-memory index.
#[derive(Debug)]
pub struct SpillStore {
    file: fs::File,
    path: PathBuf,
    index: FxHashMap<GroupKey, (u64, u32)>,
    write_pos: u64,
}

impl SpillStore {
    /// Create (truncating) the log `spill-<label>.log` under `dir`.
    pub fn create(dir: &Path, label: &str) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("spill-{label}.log"));
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(SpillStore {
            file,
            path,
            index: FxHashMap::default(),
            write_pos: 0,
        })
    }

    /// Number of groups currently spilled.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no group is spilled.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// True if `key`'s state lives in the log.
    pub fn contains(&self, key: &GroupKey) -> bool {
        self.index.contains_key(key)
    }

    /// Append `bytes` as the (new) spilled state of `key`.
    pub fn spill(&mut self, key: GroupKey, bytes: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(self.write_pos))?;
        self.file.write_all(bytes)?;
        self.index.insert(key, (self.write_pos, bytes.len() as u32));
        self.write_pos += bytes.len() as u64;
        sharon_metrics::record_group_spills(1);
        Ok(())
    }

    /// Remove `key` from the log's index and return its state bytes, or
    /// `None` if it was never spilled.
    pub fn take(&mut self, key: &GroupKey) -> io::Result<Option<Vec<u8>>> {
        let Some((off, len)) = self.index.remove(key) else {
            return Ok(None);
        };
        let mut buf = vec![0u8; len as usize];
        self.file.seek(SeekFrom::Start(off))?;
        self.file.read_exact(&mut buf)?;
        sharon_metrics::record_group_reloads(1);
        Ok(Some(buf))
    }

    /// Drain every spilled group as `(key, bytes)`, emptying the index
    /// (used by `finish`, which must close all remaining windows). Order
    /// is unspecified.
    pub fn drain_all(&mut self) -> io::Result<Vec<(GroupKey, Vec<u8>)>> {
        let keys: Vec<GroupKey> = self.index.keys().cloned().collect();
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            let bytes = self.take(&key)?.expect("key from index");
            out.push((key, bytes));
        }
        Ok(out)
    }

    /// Visit every spilled group's `(key, bytes)` without removing it —
    /// the checkpoint path embeds spilled state verbatim into the segment.
    pub fn for_each(&mut self, mut f: impl FnMut(&GroupKey, &[u8])) -> io::Result<()> {
        // clone the index so reads can seek freely while iterating
        let entries: Vec<(GroupKey, (u64, u32))> =
            self.index.iter().map(|(k, v)| (k.clone(), *v)).collect();
        let mut buf = Vec::new();
        for (key, (off, len)) in entries {
            buf.resize(len as usize, 0);
            self.file.seek(SeekFrom::Start(off))?;
            self.file.read_exact(&mut buf)?;
            f(&key, &buf);
        }
        Ok(())
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        // spill logs are run-scoped scratch, not durable state
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharon_types::Value;

    fn key(i: i64) -> GroupKey {
        GroupKey::One(Value::Int(i))
    }

    fn test_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sharon-spill-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn spill_take_round_trip_and_overwrite() {
        let dir = test_dir("rt");
        let mut s = SpillStore::create(&dir, "t0").unwrap();
        assert!(s.is_empty());
        s.spill(key(1), b"one").unwrap();
        s.spill(key(2), b"two").unwrap();
        // re-spilling appends; the index must point at the newest record
        s.spill(key(1), b"one-v2").unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.contains(&key(1)));
        assert_eq!(s.take(&key(1)).unwrap().unwrap(), b"one-v2");
        assert_eq!(s.take(&key(1)).unwrap(), None, "take removes");
        assert_eq!(s.take(&key(2)).unwrap().unwrap(), b"two");
        drop(s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drain_and_for_each() {
        let dir = test_dir("drain");
        let mut s = SpillStore::create(&dir, "t1").unwrap();
        s.spill(key(1), b"a").unwrap();
        s.spill(key(2), b"bb").unwrap();
        let mut seen = Vec::new();
        s.for_each(|k, b| seen.push((k.clone(), b.to_vec())))
            .unwrap();
        seen.sort_by_key(|(k, _)| k.to_string());
        assert_eq!(
            seen,
            vec![(key(1), b"a".to_vec()), (key(2), b"bb".to_vec())]
        );
        assert_eq!(s.len(), 2, "for_each leaves entries in place");

        let mut all = s.drain_all().unwrap();
        all.sort_by_key(|(k, _)| k.to_string());
        assert_eq!(all.len(), 2);
        assert!(s.is_empty());
        drop(s);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_removes_the_log_file() {
        let dir = test_dir("cleanup");
        let s = SpillStore::create(&dir, "t2").unwrap();
        let path = s.path.clone();
        assert!(path.exists());
        drop(s);
        assert!(!path.exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
