//! Query workload generators with controlled pattern overlap.
//!
//! The Figure 14–16 experiments scale "the major cost factors, namely, the
//! number of queries, the length of their patterns, and the number of
//! events per window" (Section 8.1). This generator produces `n` queries
//! whose patterns are contiguous runs over a circular type alphabet at
//! random offsets — the same structure as the paper's route workload,
//! where overlapping routes induce rich sets of sharable sub-patterns.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sharon_query::{AggFunc, Pattern, Query, QueryId, Workload};
use sharon_types::{Catalog, Event, EventBatch, EventTypeId, WindowSpec};
use std::collections::HashMap;

/// Configuration of the overlapping-workload generator.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of queries. Paper default: 20.
    pub n_queries: usize,
    /// Pattern length of every query. Paper default: 10.
    pub pattern_len: usize,
    /// Type alphabet the patterns draw from (e.g. the stream generator's
    /// street/segment/item names). Must have at least `pattern_len`
    /// entries so patterns respect assumption (3) (no repeated types).
    pub alphabet: Vec<String>,
    /// The common window clause (assumption (2)).
    pub window: WindowSpec,
    /// Optional `GROUP BY` attribute shared by all queries.
    pub group_by: Option<String>,
    /// RNG seed.
    pub seed: u64,
}

/// Generate an overlapping `COUNT(*)` workload per `config`.
pub fn overlapping_workload(catalog: &mut Catalog, config: &WorkloadConfig) -> Workload {
    assert!(
        config.pattern_len >= 1 && config.pattern_len <= config.alphabet.len(),
        "pattern_len must be in 1..=alphabet.len() to avoid repeated types"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n_types = config.alphabet.len();
    let mut w = Workload::new();
    for _ in 0..config.n_queries {
        let offset = rng.gen_range(0..n_types);
        let names: Vec<&str> = (0..config.pattern_len)
            .map(|i| config.alphabet[(offset + i) % n_types].as_str())
            .collect();
        let mut q = Query::simple(
            QueryId(0),
            Pattern::from_names(catalog, names),
            AggFunc::CountStar,
            config.window,
        );
        if let Some(g) = &config.group_by {
            q = q.group_by(g.clone());
        }
        w.push(q);
    }
    w
}

/// Count events per type and the stream's span in seconds — the inputs to
/// the optimizer's rate map (`RateMap::from_counts`).
pub fn measured_rates(events: &[Event]) -> (HashMap<EventTypeId, u64>, f64) {
    let mut counts = HashMap::new();
    for e in events {
        *counts.entry(e.ty).or_insert(0u64) += 1;
    }
    let span = match (events.first(), events.last()) {
        (Some(a), Some(b)) => (b.time.millis() - a.time.millis()) as f64 / 1000.0,
        _ => 0.0,
    };
    (counts, span.max(1e-9))
}

/// [`measured_rates`] over a columnar batch: a single scan of the `ty`
/// and `time` columns.
pub fn measured_rates_batch(batch: &EventBatch) -> (HashMap<EventTypeId, u64>, f64) {
    let mut counts = HashMap::new();
    for ty in batch.types() {
        *counts.entry(*ty).or_insert(0u64) += 1;
    }
    let span = match (batch.times().first(), batch.times().last()) {
        (Some(a), Some(b)) => (b.millis() - a.millis()) as f64 / 1000.0,
        _ => 0.0,
    };
    (counts, span.max(1e-9))
}

/// The paper's Figure 1 traffic workload (q1–q7), parsed over `catalog`.
pub fn figure_1_workload(catalog: &mut Catalog) -> Workload {
    let srcs = [
        "RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt, StateSt) WHERE [vehicle] WITHIN 10 min SLIDE 1 min",
        "RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt, WestSt) WHERE [vehicle] WITHIN 10 min SLIDE 1 min",
        "RETURN COUNT(*) PATTERN SEQ(ParkAve, OakSt, MainSt) WHERE [vehicle] WITHIN 10 min SLIDE 1 min",
        "RETURN COUNT(*) PATTERN SEQ(ParkAve, OakSt, MainSt, WestSt) WHERE [vehicle] WITHIN 10 min SLIDE 1 min",
        "RETURN COUNT(*) PATTERN SEQ(MainSt, StateSt) WHERE [vehicle] WITHIN 10 min SLIDE 1 min",
        "RETURN COUNT(*) PATTERN SEQ(ElmSt, ParkAve, BroadSt) WHERE [vehicle] WITHIN 10 min SLIDE 1 min",
        "RETURN COUNT(*) PATTERN SEQ(ElmSt, ParkAve) WHERE [vehicle] WITHIN 10 min SLIDE 1 min",
    ];
    sharon_query::parse_workload(catalog, srcs).expect("figure 1 workload parses")
}

/// The paper's Figure 2 purchase workload (q8–q11).
pub fn figure_2_workload(catalog: &mut Catalog) -> Workload {
    let srcs = [
        "RETURN COUNT(*) PATTERN SEQ(Laptop, Case, Adapter) WHERE [customer] WITHIN 20 min SLIDE 1 min",
        "RETURN COUNT(*) PATTERN SEQ(Laptop, Case, KeyboardProtector) WHERE [customer] WITHIN 20 min SLIDE 1 min",
        "RETURN COUNT(*) PATTERN SEQ(Laptop, Case, iPhone) WHERE [customer] WITHIN 20 min SLIDE 1 min",
        "RETURN COUNT(*) PATTERN SEQ(Laptop, Case, iPhone, ScreenProtector) WHERE [customer] WITHIN 20 min SLIDE 1 min",
    ];
    sharon_query::parse_workload(catalog, srcs).expect("figure 2 workload parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alphabet(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("T{i}")).collect()
    }

    /// The paper's default shape: 20 queries of length 10 over `alphabet`,
    /// `WITHIN 10 min SLIDE 1 min`.
    fn paper_default(alphabet: Vec<String>) -> WorkloadConfig {
        WorkloadConfig {
            n_queries: 20,
            pattern_len: 10,
            alphabet,
            window: WindowSpec::paper_traffic(),
            group_by: None,
            seed: 42,
        }
    }

    #[test]
    fn generates_requested_shape() {
        let mut c = Catalog::new();
        let cfg = WorkloadConfig {
            n_queries: 20,
            pattern_len: 10,
            alphabet: alphabet(15),
            window: WindowSpec::paper_traffic(),
            group_by: None,
            seed: 1,
        };
        let w = overlapping_workload(&mut c, &cfg);
        assert_eq!(w.len(), 20);
        for q in w.queries() {
            assert_eq!(q.pattern.len(), 10);
            assert!(!q.pattern.has_repeated_type(), "assumption (3)");
        }
    }

    #[test]
    fn overlap_produces_sharable_patterns() {
        let mut c = Catalog::new();
        let cfg = WorkloadConfig {
            n_queries: 10,
            pattern_len: 6,
            alphabet: alphabet(8),
            window: WindowSpec::paper_traffic(),
            group_by: None,
            seed: 5,
        };
        let w = overlapping_workload(&mut c, &cfg);
        // with 8 offsets and 10 queries, some queries must share patterns
        let mut shared = 0;
        for (i, a) in w.queries().iter().enumerate() {
            for b in &w.queries()[i + 1..] {
                if a.pattern == b.pattern
                    || a.pattern
                        .contiguous_subpatterns()
                        .any(|(_, s)| b.pattern.find(&s).is_some())
                {
                    shared += 1;
                }
            }
        }
        assert!(shared > 0, "workload must contain sharing opportunities");
    }

    #[test]
    fn group_by_is_applied() {
        let mut c = Catalog::new();
        let cfg = WorkloadConfig {
            group_by: Some("vehicle".into()),
            ..paper_default(alphabet(12))
        };
        let w = overlapping_workload(&mut c, &cfg);
        assert!(w.queries().iter().all(|q| q.group_by == vec!["vehicle"]));
    }

    #[test]
    fn measured_rates_counts_types() {
        use sharon_types::{Event, Timestamp};
        let mut c = Catalog::new();
        let a = c.register("A");
        let b = c.register("B");
        let events = vec![
            Event::new(a, Timestamp(0)),
            Event::new(a, Timestamp(500)),
            Event::new(b, Timestamp(2000)),
        ];
        let (counts, span) = measured_rates(&events);
        assert_eq!(counts[&a], 2);
        assert_eq!(counts[&b], 1);
        assert!((span - 2.0).abs() < 1e-9);
    }

    #[test]
    fn figure_workloads_parse() {
        let mut c = Catalog::new();
        let w1 = figure_1_workload(&mut c);
        assert_eq!(w1.len(), 7);
        let w2 = figure_2_workload(&mut c);
        assert_eq!(w2.len(), 4);
        assert!(w2.queries().iter().all(|q| q.group_by == vec!["customer"]));
    }

    #[test]
    #[should_panic(expected = "pattern_len must be")]
    fn too_long_patterns_rejected() {
        let mut c = Catalog::new();
        let cfg = WorkloadConfig {
            pattern_len: 9,
            ..paper_default(alphabet(5))
        };
        let _ = overlapping_workload(&mut c, &cfg);
    }
}
