//! Sharable pattern detection — the modified CCSpan algorithm
//! (Appendix A, Algorithm 7).
//!
//! "Since shorter sequences can be shared between more queries than longer
//! sequences, we detect not only frequent closed (or longest) sequences but
//! also their sub-sequences. [...] we alter the original CCSpan algorithm
//! to detect all frequent contiguous sequential patterns of length l > 1. A
//! pattern is considered to be frequent if it appears in more than one
//! query."

use sharon_query::{Pattern, QueryId, Workload};
use std::collections::{BTreeMap, BTreeSet};

/// A sharable pattern with the queries containing it — a *sharing
/// candidate* `(p, Q_p)` in the sense of Definition 3.
pub type CandidateMap = BTreeMap<Pattern, BTreeSet<QueryId>>;

/// Detect every sharable pattern in `workload` (Algorithm 7): all
/// contiguous sub-patterns of length > 1 that occur in more than one query,
/// mapped to the set of queries containing them.
pub fn mine_sharable_patterns(workload: &Workload) -> CandidateMap {
    let mut all: CandidateMap = BTreeMap::new();
    for q in workload.queries() {
        for (_, sub) in q.pattern.contiguous_subpatterns() {
            all.entry(sub).or_default().insert(q.id);
        }
    }
    all.retain(|_, queries| queries.len() > 1);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharon_query::{AggFunc, Query};
    use sharon_types::{Catalog, WindowSpec};

    fn workload(catalog: &mut Catalog, patterns: &[&[&str]]) -> Workload {
        Workload::from_queries(patterns.iter().map(|names| {
            Query::simple(
                QueryId(0),
                Pattern::from_names(catalog, names.iter().copied()),
                AggFunc::CountStar,
                WindowSpec::paper_traffic(),
            )
        }))
    }

    /// The traffic workload of Figure 1; Table 1 lists its sharing
    /// candidates p1–p7. The paper does not spell out the full patterns of
    /// q5–q7; the choices below are the ones consistent with Table 1's
    /// candidate/query assignment (e.g. q6 must contain (ElmSt, ParkAve)
    /// but must *not* contain (ParkAve, OakSt), or p2's query set would
    /// differ from the table).
    pub(crate) fn traffic_workload(catalog: &mut Catalog) -> Workload {
        workload(
            catalog,
            &[
                &["OakSt", "MainSt", "StateSt"],           // q1: p1, p6
                &["OakSt", "MainSt", "WestSt"],            // q2: p1, p4, p5
                &["ParkAve", "OakSt", "MainSt"],           // q3: p1, p2, p3
                &["ParkAve", "OakSt", "MainSt", "WestSt"], // q4: p1..p5
                &["MainSt", "StateSt"],                    // q5: p6
                &["ElmSt", "ParkAve", "BroadSt"],          // q6: p7
                &["ElmSt", "ParkAve"],                     // q7: p7
            ],
        )
    }

    fn qs(ids: &[u32]) -> BTreeSet<QueryId> {
        ids.iter().map(|&i| QueryId(i - 1)).collect() // paper is 1-based
    }

    #[test]
    fn reproduces_table_1() {
        let mut c = Catalog::new();
        let w = traffic_workload(&mut c);
        let mined = mine_sharable_patterns(&w);
        let mut get = |names: &[&str]| {
            mined
                .get(&Pattern::from_names(&mut c, names.iter().copied()))
                .cloned()
        };
        assert_eq!(get(&["OakSt", "MainSt"]), Some(qs(&[1, 2, 3, 4])), "p1");
        assert_eq!(get(&["ParkAve", "OakSt"]), Some(qs(&[3, 4])), "p2");
        assert_eq!(
            get(&["ParkAve", "OakSt", "MainSt"]),
            Some(qs(&[3, 4])),
            "p3"
        );
        assert_eq!(get(&["MainSt", "WestSt"]), Some(qs(&[2, 4])), "p4");
        assert_eq!(get(&["OakSt", "MainSt", "WestSt"]), Some(qs(&[2, 4])), "p5");
        assert_eq!(get(&["MainSt", "StateSt"]), Some(qs(&[1, 5])), "p6");
        assert_eq!(get(&["ElmSt", "ParkAve"]), Some(qs(&[6, 7])), "p7");
        // exactly the seven candidates of Table 1
        assert_eq!(mined.len(), 7);
        // sub-patterns occurring in a single query are not sharable
        assert_eq!(get(&["ParkAve", "OakSt", "MainSt", "WestSt"]), None);
    }

    #[test]
    fn singletons_and_unit_patterns_excluded() {
        let mut c = Catalog::new();
        let w = workload(&mut c, &[&["A", "B", "C"], &["C", "D"]]);
        let mined = mine_sharable_patterns(&w);
        assert!(mined.is_empty(), "no sub-pattern of length > 1 is shared");
    }

    #[test]
    fn repeated_pattern_in_one_query_counts_once() {
        let mut c = Catalog::new();
        let w = workload(&mut c, &[&["A", "B", "A", "B"], &["A", "B"]]);
        let mined = mine_sharable_patterns(&w);
        let ab = Pattern::from_names(&mut c, ["A", "B"]);
        assert_eq!(mined.get(&ab).map(BTreeSet::len), Some(2));
    }

    #[test]
    fn identical_queries_share_their_whole_pattern() {
        let mut c = Catalog::new();
        let w = workload(&mut c, &[&["A", "B"], &["A", "B"], &["A", "B"]]);
        let mined = mine_sharable_patterns(&w);
        let ab = Pattern::from_names(&mut c, ["A", "B"]);
        assert_eq!(mined.get(&ab).map(BTreeSet::len), Some(3));
        assert_eq!(mined.len(), 1);
    }
}
