//! Sub-aggregate results of split (hot) groups.
//!
//! The sharded runtime's hot-group splitting routes one skewed group's
//! rows across several shards (see [`crate::router`]); each shard then
//! holds only *part* of that group's per-window aggregate. Engines emit
//! those parts as [`PartialEntry`]s instead of final results, and
//! [`PartialResults::finalize_into`] performs the **merge step** at the
//! end of the run: entries of the same `(query, group, window)` are
//! combined with the aggregate-kind merge ([`PartialAgg::merge`] — COUNT
//! and SUM add, MIN/MAX take extrema, AVG merges count + sum) and only the
//! merged cell is projected to an output value.
//!
//! Strategies that never split groups (the two-step baselines) simply
//! report an empty set — the contract defaults keep them unchanged.

use crate::agg::{OutputKind, PartialAgg};
use crate::results::ExecutorResults;
use sharon_query::QueryId;
use sharon_types::{FxHashMap, GroupKey, Timestamp};

/// One shard's sub-aggregate of one `(query, group, window)` result.
#[derive(Debug, Clone)]
pub struct PartialEntry {
    /// The query the window belongs to.
    pub query: QueryId,
    /// The split group.
    pub group: GroupKey,
    /// Window start.
    pub window: Timestamp,
    /// This shard's share of the aggregate.
    pub value: PartialAgg,
    /// How the merged cell projects to the query's output value.
    pub output: OutputKind,
}

/// A flat buffer of sub-aggregate entries, appended per window close and
/// merged once at the end of the run.
#[derive(Debug, Clone, Default)]
pub struct PartialResults {
    entries: Vec<PartialEntry>,
}

impl PartialResults {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one sub-aggregate (a window of a split group closing on one
    /// shard).
    #[inline]
    pub fn push(
        &mut self,
        query: QueryId,
        group: GroupKey,
        window: Timestamp,
        value: PartialAgg,
        output: OutputKind,
    ) {
        self.entries.push(PartialEntry {
            query,
            group,
            window,
            value,
            output,
        });
    }

    /// Pre-size for about `additional` further entries (capacity planning
    /// for the allocation-free steady state of the split-group path).
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Number of buffered entries (pre-merge).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no sub-aggregates were produced (no group ever split).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append all of `other`'s entries (collecting the shards' reports).
    pub fn absorb(&mut self, other: PartialResults) {
        if self.entries.is_empty() {
            self.entries = other.entries;
        } else {
            self.entries.extend(other.entries);
        }
    }

    /// Serialize all buffered sub-aggregates into a checkpoint segment.
    pub fn save_state(&self, w: &mut crate::checkpoint::StateWriter) {
        w.seq_len(self.entries.len());
        for e in &self.entries {
            w.u32(e.query.0);
            w.group_key(&e.group);
            w.time(e.window);
            e.value.save(w);
            e.output.save(w);
        }
    }

    /// Decode a set written by [`PartialResults::save_state`].
    pub fn load_state(
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<Self, crate::checkpoint::StateError> {
        let n = r.seq_len()?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(PartialEntry {
                query: QueryId(r.u32()?),
                group: r.group_key()?,
                window: r.time()?,
                value: PartialAgg::load(r)?,
                output: OutputKind::load(r)?,
            });
        }
        Ok(PartialResults { entries })
    }

    /// The merge step: combine same-key entries with the aggregate-kind
    /// merge and emit the final projected values into `results`.
    pub fn finalize_into(self, results: &mut ExecutorResults) {
        if self.entries.is_empty() {
            return;
        }
        // keyed by the group's id in `results`: one key lookup per entry,
        // no key stored in the merge table
        let mut merged: FxHashMap<(QueryId, u32, Timestamp), (PartialAgg, OutputKind)> =
            FxHashMap::default();
        merged.reserve(self.entries.len());
        for e in self.entries {
            let gid = results.intern(&e.group);
            match merged.entry((e.query, gid, e.window)) {
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    o.get_mut().0.merge(&e.value);
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert((e.value, e.output));
                }
            }
        }
        for ((query, gid, window), (value, output)) in merged {
            results.emit_interned(query, gid, window, value.output(output));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{Aggregate, CountCell, StatsCell};
    use sharon_query::aggregate::AggValue;
    use sharon_types::Value;

    fn key(i: i64) -> GroupKey {
        GroupKey::One(Value::Int(i))
    }

    #[test]
    fn same_key_entries_merge_before_projection() {
        let mut a = PartialResults::new();
        a.push(
            QueryId(0),
            key(1),
            Timestamp(0),
            PartialAgg::Count(CountCell(2)),
            OutputKind::Count,
        );
        let mut b = PartialResults::new();
        b.push(
            QueryId(0),
            key(1),
            Timestamp(0),
            PartialAgg::Count(CountCell(3)),
            OutputKind::Count,
        );
        b.push(
            QueryId(0),
            key(1),
            Timestamp(4),
            PartialAgg::Count(CountCell(1)),
            OutputKind::Count,
        );
        a.absorb(b);
        assert_eq!(a.len(), 3);

        let mut results = ExecutorResults::new();
        a.finalize_into(&mut results);
        assert_eq!(
            results.get(QueryId(0), &key(1), Timestamp(0)),
            Some(&AggValue::Count(5))
        );
        assert_eq!(
            results.get(QueryId(0), &key(1), Timestamp(4)),
            Some(&AggValue::Count(1))
        );
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn avg_merges_exactly_via_count_and_sum() {
        // shard 1 saw 3 sequences summing 30, shard 2 saw 1 summing 2:
        // the true average is 8, not avg-of-avgs 6
        let s1 = StatsCell {
            count: 3,
            sum: 30.0,
            min: 5.0,
            max: 15.0,
        };
        let s2 = StatsCell {
            count: 1,
            sum: 2.0,
            min: 2.0,
            max: 2.0,
        };
        let mut p = PartialResults::new();
        p.push(
            QueryId(0),
            GroupKey::Global,
            Timestamp(0),
            s1.to_partial(),
            OutputKind::Avg(1),
        );
        p.push(
            QueryId(0),
            GroupKey::Global,
            Timestamp(0),
            s2.to_partial(),
            OutputKind::Avg(1),
        );
        let mut results = ExecutorResults::new();
        p.finalize_into(&mut results);
        assert_eq!(
            results.get(QueryId(0), &GroupKey::Global, Timestamp(0)),
            Some(&AggValue::Number(Some(8.0)))
        );
    }

    #[test]
    fn empty_set_is_a_no_op() {
        let mut results = ExecutorResults::new();
        PartialResults::new().finalize_into(&mut results);
        assert!(results.is_empty());
        assert!(PartialResults::new().is_empty());
    }

    #[test]
    fn state_round_trips() {
        let mut p = PartialResults::new();
        p.push(
            QueryId(3),
            key(9),
            Timestamp(40),
            PartialAgg::Count(CountCell(12)),
            OutputKind::CountTimes(2),
        );
        p.push(
            QueryId(4),
            GroupKey::Global,
            Timestamp(0),
            StatsCell {
                count: 2,
                sum: 7.5,
                min: 1.0,
                max: 6.5,
            }
            .to_partial(),
            OutputKind::Avg(1),
        );
        let mut w = crate::checkpoint::StateWriter::new();
        p.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = crate::checkpoint::StateReader::new(&bytes);
        let got = PartialResults::load_state(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(got.len(), 2);
        let (mut a, mut b) = (ExecutorResults::new(), ExecutorResults::new());
        p.finalize_into(&mut a);
        got.finalize_into(&mut b);
        assert!(a.semantically_eq(&b, 0.0));
    }
}
