//! Sharing plans.
//!
//! Definition 7: "A sharing plan `P` is a set of sharing candidates. `P` is
//! valid if it contains no candidates that are in conflict with each other."
//! A candidate `(p, Q_p)` instructs the executor to aggregate pattern `p`
//! once and let every query in `Q_p` combine those shared aggregates with
//! its private prefix/suffix aggregates (Section 3.3).
//!
//! This module is deliberately optimizer-agnostic: the optimizer crate
//! produces a [`SharingPlan`]; the executor crate consumes the per-query
//! [`Segment`] decomposition computed here (Definition 4, generalized to any
//! number of shared segments per query — e.g. `q4` of the running example
//! may share both `p2` and `p4`).

use crate::pattern::Pattern;
use crate::query::{Query, QueryId};
use crate::workload::Workload;
use std::collections::BTreeSet;
use std::fmt;

/// One sharing candidate `(p, Q_p)` selected into a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanCandidate {
    /// The shared pattern `p`.
    pub pattern: Pattern,
    /// The queries `Q_p` sharing `p`'s aggregation (must have ≥ 2 members
    /// for the candidate to be *sharable*, Definition 3).
    pub queries: BTreeSet<QueryId>,
}

impl PlanCandidate {
    /// Construct a candidate.
    pub fn new(pattern: Pattern, queries: impl IntoIterator<Item = QueryId>) -> Self {
        PlanCandidate {
            pattern,
            queries: queries.into_iter().collect(),
        }
    }
}

/// Whether a segment's aggregates are private to one query or shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Aggregated by this query alone (a prefix/mid/suffix piece).
    Private,
    /// Aggregated once for all queries of the plan candidate with this
    /// index in [`SharingPlan::candidates`].
    Shared(usize),
}

/// One contiguous piece of a query's pattern under a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// The sub-pattern this segment covers.
    pub pattern: Pattern,
    /// Private or shared.
    pub kind: SegmentKind,
    /// 0-based position of the segment's first type within the query
    /// pattern.
    pub offset: usize,
}

/// Errors raised when a plan cannot be applied to a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Two candidates claim overlapping positions in the same query — the
    /// plan is invalid (Definition 7: it contains a sharing conflict).
    OverlappingCandidates {
        /// The query in which the overlap occurs.
        query: QueryId,
    },
    /// A candidate names a query whose pattern does not contain the
    /// candidate's pattern.
    PatternNotInQuery {
        /// The offending query.
        query: QueryId,
    },
    /// A candidate has fewer than two queries (not sharable,
    /// Definition 3).
    NotSharable,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::OverlappingCandidates { query } => {
                write!(f, "sharing conflict: overlapping candidates in {query}")
            }
            PlanError::PatternNotInQuery { query } => {
                write!(f, "candidate pattern does not occur in {query}")
            }
            PlanError::NotSharable => write!(f, "candidate shared by fewer than two queries"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A set of sharing candidates guiding the runtime executor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SharingPlan {
    /// The selected candidates.
    pub candidates: Vec<PlanCandidate>,
}

impl SharingPlan {
    /// The trivial plan with no sharing — the executor degenerates to the
    /// Non-Shared method of Section 3.2 (A-Seq per query).
    pub fn non_shared() -> Self {
        SharingPlan {
            candidates: Vec::new(),
        }
    }

    /// Build a plan from candidates.
    pub fn new(candidates: impl IntoIterator<Item = PlanCandidate>) -> Self {
        SharingPlan {
            candidates: candidates.into_iter().collect(),
        }
    }

    /// True when the plan shares nothing.
    pub fn is_non_shared(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True if the plan has no candidates.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The candidates whose query set contains `q`, with the 0-based
    /// occurrence offset of the candidate pattern in `q`'s pattern.
    fn claims_on(&self, query: &Query) -> Result<Vec<(usize, usize, usize)>, PlanError> {
        // (offset, length, candidate index)
        let mut claims = Vec::new();
        for (ci, cand) in self.candidates.iter().enumerate() {
            if !cand.queries.contains(&query.id) {
                continue;
            }
            let occs = query.pattern.occurrences_of(&cand.pattern);
            if occs.is_empty() {
                return Err(PlanError::PatternNotInQuery { query: query.id });
            }
            // Under assumption (3) of the paper the occurrence is unique;
            // with repeated types (§7.3) we claim the leftmost occurrence
            // that keeps claims disjoint, which the validity check below
            // verifies.
            claims.push((occs[0], cand.pattern.len(), ci));
        }
        claims.sort_unstable();
        for w in claims.windows(2) {
            let (off_a, len_a, _) = w[0];
            let (off_b, _, _) = w[1];
            if off_a + len_a > off_b {
                return Err(PlanError::OverlappingCandidates { query: query.id });
            }
        }
        Ok(claims)
    }

    /// Decompose `query`'s pattern into the alternating private/shared
    /// segment chain induced by this plan (Definition 4 generalized).
    ///
    /// With no applicable candidate, the result is a single private segment
    /// covering the whole pattern.
    pub fn decompose(&self, query: &Query) -> Result<Vec<Segment>, PlanError> {
        let claims = self.claims_on(query)?;
        let mut segments = Vec::with_capacity(claims.len() * 2 + 1);
        let mut cursor = 0usize;
        for (off, len, ci) in claims {
            if off > cursor {
                segments.push(Segment {
                    pattern: query.pattern.subpattern(cursor..off),
                    kind: SegmentKind::Private,
                    offset: cursor,
                });
            }
            segments.push(Segment {
                pattern: query.pattern.subpattern(off..off + len),
                kind: SegmentKind::Shared(ci),
                offset: off,
            });
            cursor = off + len;
        }
        if cursor < query.pattern.len() {
            segments.push(Segment {
                pattern: query.pattern.subpattern(cursor..query.pattern.len()),
                kind: SegmentKind::Private,
                offset: cursor,
            });
        }
        Ok(segments)
    }

    /// Check the plan against a workload: every candidate must be sharable
    /// (≥ 2 queries), occur in each of its queries, and no two candidates
    /// may overlap within a query (Definition 7).
    pub fn validate(&self, workload: &Workload) -> Result<(), PlanError> {
        for cand in &self.candidates {
            if cand.queries.len() < 2 {
                return Err(PlanError::NotSharable);
            }
        }
        for q in workload.queries() {
            self.claims_on(q)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunc;
    use sharon_types::{Catalog, WindowSpec};

    /// The traffic workload of Figure 1 (patterns only; q5–q7 simplified to
    /// the parts that matter for decomposition).
    fn traffic(catalog: &mut Catalog) -> Workload {
        let mk = |c: &mut Catalog, names: &[&str]| {
            Query::simple(
                QueryId(0),
                Pattern::from_names(c, names.iter().copied()),
                AggFunc::CountStar,
                WindowSpec::paper_traffic(),
            )
        };
        Workload::from_queries([
            mk(catalog, &["OakSt", "MainSt", "StateSt"]), // q1
            mk(catalog, &["OakSt", "MainSt", "WestSt"]),  // q2
            mk(catalog, &["ParkAve", "OakSt", "MainSt"]), // q3
            mk(catalog, &["ParkAve", "OakSt", "MainSt", "WestSt"]), // q4
            mk(catalog, &["MainSt", "StateSt"]),          // q5
            mk(catalog, &["ElmSt", "ParkAve", "OakSt"]),  // q6
            mk(catalog, &["ElmSt", "ParkAve"]),           // q7
        ])
    }

    fn pat(c: &mut Catalog, names: &[&str]) -> Pattern {
        Pattern::from_names(c, names.iter().copied())
    }

    #[test]
    fn decompose_single_shared_segment_with_prefix_and_suffix() {
        let mut c = Catalog::new();
        let w = traffic(&mut c);
        // share p1 = (OakSt, MainSt) among q1..q4
        let p1 = pat(&mut c, &["OakSt", "MainSt"]);
        let plan = SharingPlan::new([PlanCandidate::new(
            p1.clone(),
            [QueryId(0), QueryId(1), QueryId(2), QueryId(3)],
        )]);
        plan.validate(&w).unwrap();

        // q4 = (ParkAve, OakSt, MainSt, WestSt): prefix (ParkAve), p1, suffix (WestSt)
        let segs = plan.decompose(w.get(QueryId(3))).unwrap();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].kind, SegmentKind::Private);
        assert_eq!(segs[0].pattern.display(&c).to_string(), "(ParkAve)");
        assert_eq!(segs[0].offset, 0);
        assert_eq!(segs[1].kind, SegmentKind::Shared(0));
        assert_eq!(segs[1].pattern, p1);
        assert_eq!(segs[1].offset, 1);
        assert_eq!(segs[2].kind, SegmentKind::Private);
        assert_eq!(segs[2].pattern.display(&c).to_string(), "(WestSt)");
        assert_eq!(segs[2].offset, 3);

        // q1 = (OakSt, MainSt, StateSt): no prefix
        let segs = plan.decompose(w.get(QueryId(0))).unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].kind, SegmentKind::Shared(0));
        assert_eq!(segs[1].pattern.display(&c).to_string(), "(StateSt)");

        // q3 = (ParkAve, OakSt, MainSt): no suffix
        let segs = plan.decompose(w.get(QueryId(2))).unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[1].kind, SegmentKind::Shared(0));

        // q5 is untouched: one private segment
        let segs = plan.decompose(w.get(QueryId(4))).unwrap();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].kind, SegmentKind::Private);
        assert_eq!(segs[0].pattern, w.get(QueryId(4)).pattern);
    }

    #[test]
    fn decompose_two_shared_segments_in_one_query() {
        let mut c = Catalog::new();
        let w = traffic(&mut c);
        // the optimal plan of Example 12 shares p2 and p4; q4 holds both
        let p2 = pat(&mut c, &["ParkAve", "OakSt"]);
        let p4 = pat(&mut c, &["MainSt", "WestSt"]);
        let plan = SharingPlan::new([
            PlanCandidate::new(p2.clone(), [QueryId(2), QueryId(3)]),
            PlanCandidate::new(p4.clone(), [QueryId(1), QueryId(3)]),
        ]);
        plan.validate(&w).unwrap();
        let segs = plan.decompose(w.get(QueryId(3))).unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].kind, SegmentKind::Shared(0));
        assert_eq!(segs[0].pattern, p2);
        assert_eq!(segs[1].kind, SegmentKind::Shared(1));
        assert_eq!(segs[1].pattern, p4);
    }

    #[test]
    fn overlapping_candidates_rejected() {
        let mut c = Catalog::new();
        let w = traffic(&mut c);
        // p1 = (OakSt, MainSt) and p2 = (ParkAve, OakSt) overlap in q3, q4
        let p1 = pat(&mut c, &["OakSt", "MainSt"]);
        let p2 = pat(&mut c, &["ParkAve", "OakSt"]);
        let plan = SharingPlan::new([
            PlanCandidate::new(p1, [QueryId(0), QueryId(1), QueryId(2), QueryId(3)]),
            PlanCandidate::new(p2, [QueryId(2), QueryId(3)]),
        ]);
        assert_eq!(
            plan.validate(&w),
            Err(PlanError::OverlappingCandidates { query: QueryId(2) })
        );
    }

    #[test]
    fn pattern_not_in_query_rejected() {
        let mut c = Catalog::new();
        let w = traffic(&mut c);
        let bogus = pat(&mut c, &["WestSt", "ElmSt"]);
        let plan = SharingPlan::new([PlanCandidate::new(bogus, [QueryId(0), QueryId(1)])]);
        assert_eq!(
            plan.validate(&w),
            Err(PlanError::PatternNotInQuery { query: QueryId(0) })
        );
    }

    #[test]
    fn singleton_candidate_rejected() {
        let mut c = Catalog::new();
        let w = traffic(&mut c);
        let p1 = pat(&mut c, &["OakSt", "MainSt"]);
        let plan = SharingPlan::new([PlanCandidate::new(p1, [QueryId(0)])]);
        assert_eq!(plan.validate(&w), Err(PlanError::NotSharable));
    }

    #[test]
    fn non_shared_plan() {
        let plan = SharingPlan::non_shared();
        assert!(plan.is_non_shared());
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
    }

    #[test]
    fn whole_pattern_shared_leaves_no_private_segments() {
        let mut c = Catalog::new();
        let w = traffic(&mut c);
        // q7's whole pattern (ElmSt, ParkAve) is p7, shared with q6's prefix
        let p7 = pat(&mut c, &["ElmSt", "ParkAve"]);
        let plan = SharingPlan::new([PlanCandidate::new(p7.clone(), [QueryId(5), QueryId(6)])]);
        let segs = plan.decompose(w.get(QueryId(6))).unwrap();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].kind, SegmentKind::Shared(0));
        assert_eq!(segs[0].pattern, p7);
    }
}
