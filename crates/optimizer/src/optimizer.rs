//! The three optimizer pipelines compared in Section 8.3:
//!
//! * the **greedy optimizer** — SHARON graph construction + GWMIN;
//! * the **exhaustive optimizer** — graph construction + conflict
//!   resolution (graph expansion) + exhaustive subset search;
//! * the **Sharon optimizer** — graph construction + expansion + graph
//!   reduction + the sharing plan finder (Sections 4–7), a branch-and-bound
//!   search per connected component of the reduced graph that starts from
//!   GWMIN's plan and returns the optimal one (see [`crate::plan_finder`]).
//!
//! All three return a [`SharingPlan`] plus per-phase wall-clock timings,
//! which the Figure 15 benchmark prints.

use crate::cost::{CostModel, RateMap};
use crate::expansion::{expand_graph, ExpansionConfig};
use crate::graph::SharonGraph;
use crate::gwmin::{gwmin, set_weight};
use crate::mining::{mine_sharable_patterns, CandidateMap};
use crate::plan_finder::{find_exhaustive, find_optimal_plan};
use crate::reduction::reduce;
use sharon_query::{Pattern, PlanCandidate, QueryId, SharingPlan, SharingSignature, Workload};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Tuning knobs for the optimizers.
#[derive(Debug, Clone, Default)]
pub struct OptimizerConfig {
    /// Caps on option generation: the Sharon and exhaustive optimizers
    /// resolve sharing conflicts by expanding candidates into query-subset
    /// options (§7.1), matching Section 8.3's phase description.
    pub expansion: ExpansionConfig,
    /// Wall-clock budget for each component's plan search; on exhaustion
    /// the best plan found so far is returned and `timed_out` is set. That
    /// plan never scores below GWMIN's, on its component or overall.
    pub search_budget: Option<Duration>,
}

/// One timed optimizer phase.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase name (e.g. `"graph construction"`).
    pub name: &'static str,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// Statistics of one optimization run.
#[derive(Debug, Clone, Default)]
pub struct OptimizeStats {
    /// Sharable patterns mined (Algorithm 7).
    pub candidates_mined: usize,
    /// Beneficial candidates in the SHARON graph (vertices).
    pub graph_vertices: usize,
    /// Sharing conflicts (edges).
    pub graph_edges: usize,
    /// Vertices after expansion (0 under GWMIN, which does not expand).
    pub expanded_vertices: usize,
    /// Conflict-ridden candidates pruned by the reduction.
    pub pruned: usize,
    /// Conflict-free candidates extracted by the reduction.
    pub conflict_free: usize,
    /// Plans scored by the search: branch-and-bound nodes of the Sharon
    /// optimizer, subsets enumerated by the exhaustive one.
    pub plans_considered: u64,
    /// True if the search hit its budget.
    pub timed_out: bool,
}

/// The outcome of an optimization run.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// The chosen sharing plan.
    pub plan: SharingPlan,
    /// Its score `Σ BValue` (Definition 8).
    pub score: f64,
    /// Per-phase wall-clock timings, in execution order.
    pub phases: Vec<Phase>,
    /// Run statistics.
    pub stats: OptimizeStats,
}

impl OptimizeOutcome {
    /// Total optimizer latency.
    pub fn total_time(&self) -> Duration {
        self.phases.iter().map(|p| p.elapsed).sum()
    }
}

/// Split mined candidates so that no candidate groups queries with
/// different predicates, grouping, windows, or aggregates (§7.2): each
/// candidate's query set is partitioned by sharing signature, keeping the
/// sub-sets with at least two members. One pattern may yield several
/// candidates (one per signature class, in order of first member).
fn split_by_signature(
    workload: &Workload,
    mined: CandidateMap,
) -> Vec<(Pattern, BTreeSet<QueryId>)> {
    if mined.is_empty() {
        return Vec::new();
    }
    // one signature per query, not one per (pattern, query) pair
    let mut sigs: Vec<SharingSignature> = Vec::new();
    let class: Vec<usize> = workload
        .queries()
        .iter()
        .map(|q| {
            let sig = q.sharing_signature();
            sigs.iter().position(|s| *s == sig).unwrap_or_else(|| {
                sigs.push(sig);
                sigs.len() - 1
            })
        })
        .collect();
    let mut out = Vec::new();
    for (pattern, queries) in mined {
        let mut groups: Vec<(usize, BTreeSet<QueryId>)> = Vec::new();
        for q in queries {
            let k = class[q.index()];
            match groups.iter_mut().find(|(g, _)| *g == k) {
                Some((_, qs)) => {
                    qs.insert(q);
                }
                None => groups.push((k, BTreeSet::from([q]))),
            }
        }
        for (_, qs) in groups {
            if qs.len() > 1 {
                out.push((pattern.clone(), qs));
            }
        }
    }
    out
}

fn graph_from_workload(
    workload: &Workload,
    rates: &RateMap,
) -> (usize, SharonGraph, Duration, Duration) {
    let t0 = Instant::now();
    let mined = split_by_signature(workload, mine_sharable_patterns(workload));
    let mine_time = t0.elapsed();
    let n_mined = mined.len();
    let t1 = Instant::now();
    let model = CostModel::new(workload, rates);
    let graph = SharonGraph::build_from_list(workload, mined, &model);
    (n_mined, graph, mine_time, t1.elapsed())
}

/// The greedy optimizer: SHARON graph construction + GWMIN (Section 8.3).
pub fn optimize_greedy(workload: &Workload, rates: &RateMap) -> OptimizeOutcome {
    let (n_mined, graph, mine_time, build_time) = graph_from_workload(workload, rates);
    let t = Instant::now();
    let chosen = gwmin(&graph);
    let score = set_weight(&graph, &chosen);
    let plan = SharingPlan::new(
        chosen
            .iter()
            .map(|&v| graph.vertex(v).candidate.clone())
            .collect::<Vec<PlanCandidate>>(),
    );
    OptimizeOutcome {
        plan,
        score,
        phases: vec![
            Phase {
                name: "pattern mining",
                elapsed: mine_time,
            },
            Phase {
                name: "graph construction",
                elapsed: build_time,
            },
            Phase {
                name: "GWMIN",
                elapsed: t.elapsed(),
            },
        ],
        stats: OptimizeStats {
            candidates_mined: n_mined,
            graph_vertices: graph.len(),
            graph_edges: graph.edge_count(),
            ..Default::default()
        },
    }
}

fn expanded(
    workload: &Workload,
    rates: &RateMap,
    graph: &SharonGraph,
    config: &OptimizerConfig,
) -> (SharonGraph, Duration) {
    let t = Instant::now();
    let model = CostModel::new(workload, rates);
    let mut benefit = |p: &Pattern, qs: &BTreeSet<QueryId>| model.bvalue(p, qs);
    let g = expand_graph(workload, graph, &mut benefit, &config.expansion);
    (g, t.elapsed())
}

/// The exhaustive optimizer: graph construction + expansion + exhaustive
/// search over all subsets (Section 8.3). Exponential — use
/// `config.search_budget` to bound it.
pub fn optimize_exhaustive(
    workload: &Workload,
    rates: &RateMap,
    config: &OptimizerConfig,
) -> OptimizeOutcome {
    let (n_mined, graph, mine_time, build_time) = graph_from_workload(workload, rates);
    let (exp, expand_time) = expanded(workload, rates, &graph, config);
    let t = Instant::now();
    let found = find_exhaustive(&exp, config.search_budget);
    let plan = SharingPlan::new(
        found
            .vertices
            .iter()
            .map(|&v| exp.vertex(v).candidate.clone())
            .collect::<Vec<_>>(),
    );
    OptimizeOutcome {
        plan,
        score: found.score,
        phases: vec![
            Phase {
                name: "pattern mining",
                elapsed: mine_time,
            },
            Phase {
                name: "graph construction",
                elapsed: build_time,
            },
            Phase {
                name: "graph expansion",
                elapsed: expand_time,
            },
            Phase {
                name: "exhaustive search",
                elapsed: t.elapsed(),
            },
        ],
        stats: OptimizeStats {
            candidates_mined: n_mined,
            graph_vertices: graph.len(),
            graph_edges: graph.edge_count(),
            expanded_vertices: exp.len(),
            plans_considered: found.stats.plans_considered,
            timed_out: found.stats.timed_out,
            ..Default::default()
        },
    }
}

/// The Sharon optimizer: graph construction + expansion + reduction +
/// sharing plan finder (Sections 4–7). Returns the optimal plan
/// `opt ∪ F` (Algorithm 4).
pub fn optimize_sharon(
    workload: &Workload,
    rates: &RateMap,
    config: &OptimizerConfig,
) -> OptimizeOutcome {
    let (n_mined, graph, mine_time, build_time) = graph_from_workload(workload, rates);
    let (exp, expand_time) = expanded(workload, rates, &graph, config);
    let t_red = Instant::now();
    let red = reduce(&exp);
    let reduce_time = t_red.elapsed();
    let t = Instant::now();
    // plans of disjoint conflict components compose independently: search
    // each connected component on its own
    let mut candidates: Vec<PlanCandidate> = Vec::new();
    let mut score = 0.0;
    let mut plans_considered = 0;
    let mut timed_out = false;
    for comp in red.graph.components() {
        let (sub, new_to_old) = red.graph.subgraph(&comp);
        let found = find_optimal_plan(&sub, config.search_budget);
        candidates.extend(
            found
                .vertices
                .iter()
                .map(|&v| red.graph.vertex(new_to_old[v]).candidate.clone()),
        );
        score += found.score;
        plans_considered += found.stats.plans_considered;
        timed_out |= found.stats.timed_out;
    }
    for &v in &red.conflict_free {
        candidates.push(exp.vertex(v).candidate.clone());
        score += exp.vertex(v).weight;
    }
    if timed_out {
        // a budget-cut search: never return less than GWMIN on the
        // *original* graph (the greedy optimizer's plan)
        let greedy = gwmin(&graph);
        let greedy_score = set_weight(&graph, &greedy);
        if greedy_score > score {
            candidates = greedy
                .iter()
                .map(|&v| graph.vertex(v).candidate.clone())
                .collect();
            score = greedy_score;
        }
    }
    OptimizeOutcome {
        plan: SharingPlan::new(candidates),
        score,
        phases: vec![
            Phase {
                name: "pattern mining",
                elapsed: mine_time,
            },
            Phase {
                name: "graph construction",
                elapsed: build_time,
            },
            Phase {
                name: "graph expansion",
                elapsed: expand_time,
            },
            Phase {
                name: "graph reduction",
                elapsed: reduce_time,
            },
            Phase {
                name: "plan finder",
                elapsed: t.elapsed(),
            },
        ],
        stats: OptimizeStats {
            candidates_mined: n_mined,
            graph_vertices: graph.len(),
            graph_edges: graph.edge_count(),
            expanded_vertices: exp.len(),
            pruned: red.pruned.len(),
            conflict_free: red.conflict_free.len(),
            plans_considered,
            timed_out,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharon_query::parse_workload;
    use sharon_types::Catalog;

    fn traffic() -> (Catalog, Workload) {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt, StateSt) WITHIN 10 min SLIDE 1 min",
                "RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt, WestSt) WITHIN 10 min SLIDE 1 min",
                "RETURN COUNT(*) PATTERN SEQ(ParkAve, OakSt, MainSt) WITHIN 10 min SLIDE 1 min",
                "RETURN COUNT(*) PATTERN SEQ(ParkAve, OakSt, MainSt, WestSt) WITHIN 10 min SLIDE 1 min",
                "RETURN COUNT(*) PATTERN SEQ(MainSt, StateSt) WITHIN 10 min SLIDE 1 min",
                "RETURN COUNT(*) PATTERN SEQ(ElmSt, ParkAve, BroadSt) WITHIN 10 min SLIDE 1 min",
                "RETURN COUNT(*) PATTERN SEQ(ElmSt, ParkAve) WITHIN 10 min SLIDE 1 min",
            ],
        )
        .unwrap();
        (c, w)
    }

    #[test]
    fn sharon_beats_or_matches_greedy() {
        let (_, w) = traffic();
        let rates = RateMap::uniform(100.0);
        let greedy = optimize_greedy(&w, &rates);
        let sharon = optimize_sharon(&w, &rates, &OptimizerConfig::default());
        assert!(
            sharon.score >= greedy.score - 1e-9,
            "sharon {} < greedy {}",
            sharon.score,
            greedy.score
        );
        // both plans are valid for the workload
        greedy.plan.validate(&w).unwrap();
        sharon.plan.validate(&w).unwrap();
    }

    #[test]
    fn sharon_matches_exhaustive() {
        let (_, w) = traffic();
        let rates = RateMap::uniform(100.0);
        let cfg = OptimizerConfig::default();
        let sharon = optimize_sharon(&w, &rates, &cfg);
        let exhaustive = optimize_exhaustive(&w, &rates, &cfg);
        assert!(
            (sharon.score - exhaustive.score).abs() < 1e-6,
            "sharon {} != exhaustive {}",
            sharon.score,
            exhaustive.score
        );
    }

    #[test]
    fn pruning_shrinks_the_search() {
        let (_, w) = traffic();
        let rates = RateMap::uniform(100.0);
        let cfg = OptimizerConfig::default();
        let sharon = optimize_sharon(&w, &rates, &cfg);
        let exhaustive = optimize_exhaustive(&w, &rates, &cfg);
        assert!(
            sharon.stats.plans_considered < exhaustive.stats.plans_considered,
            "plan finder ({}) must consider fewer plans than exhaustive ({})",
            sharon.stats.plans_considered,
            exhaustive.stats.plans_considered
        );
    }

    #[test]
    fn phases_are_reported() {
        let (_, w) = traffic();
        let rates = RateMap::uniform(100.0);
        let o = optimize_sharon(&w, &rates, &OptimizerConfig::default());
        let names: Vec<&str> = o.phases.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec![
                "pattern mining",
                "graph construction",
                "graph expansion",
                "graph reduction",
                "plan finder"
            ]
        );
        assert!(o.total_time() >= Duration::ZERO);
        assert_eq!(o.stats.candidates_mined, 7, "Table 1");
    }

    #[test]
    fn mixed_windows_never_share_across_classes() {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(A, B, C, D, X) WITHIN 10 min SLIDE 1 min",
                "RETURN COUNT(*) PATTERN SEQ(A, B, C, D, Y) WITHIN 5 min SLIDE 1 min",
                "RETURN COUNT(*) PATTERN SEQ(A, B, C, D, Z) WITHIN 10 min SLIDE 1 min",
            ],
        )
        .unwrap();
        let rates = RateMap::uniform(100.0);
        let o = optimize_sharon(&w, &rates, &OptimizerConfig::default());
        for cand in &o.plan.candidates {
            let sigs: std::collections::BTreeSet<String> = cand
                .queries
                .iter()
                .map(|q| format!("{:?}", w.get(*q).sharing_signature()))
                .collect();
            assert_eq!(sigs.len(), 1, "candidate spans signature classes");
        }
        // (A,B) is still shared between q1 and q3 (same window)
        assert!(!o.plan.is_empty());
        assert!(o
            .plan
            .candidates
            .iter()
            .any(|cand| cand.queries.contains(&QueryId(0)) && cand.queries.contains(&QueryId(2))));
    }

    /// The TX shape at full size: 30 overlapping length-6 routes
    /// over 20 streets. Its expanded graph is far too wide for a
    /// level-by-level walk; the search still finishes exactly.
    #[test]
    fn thirty_query_tx_workload_is_solved_exactly() {
        let mut state = 4u64; // splitmix64
        let mut below = |n: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        let queries: Vec<String> = (0..30)
            .map(|_| {
                let offset = below(20);
                let streets: Vec<String> =
                    (0..6).map(|i| format!("S{}", (offset + i) % 20)).collect();
                format!(
                    "RETURN COUNT(*) PATTERN SEQ({}) GROUP BY vehicle WITHIN 20 s SLIDE 1 s",
                    streets.join(", ")
                )
            })
            .collect();
        let mut c = Catalog::new();
        let w = parse_workload(&mut c, &queries).unwrap();
        let rates = RateMap::uniform(100.0);
        let sharon = optimize_sharon(&w, &rates, &OptimizerConfig::default());
        let greedy = optimize_greedy(&w, &rates);
        assert!(!sharon.stats.timed_out);
        sharon.plan.validate(&w).unwrap();
        assert!(
            sharon.score >= greedy.score,
            "sharon {} < greedy {}",
            sharon.score,
            greedy.score
        );
    }

    #[test]
    fn reordered_conjuncts_share_among_all_three_queries() {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(A, B) WHERE A.x > 1 AND B.y < 2 WITHIN 10 s SLIDE 1 s",
                "RETURN COUNT(*) PATTERN SEQ(A, B) WHERE B.y < 2 AND A.x > 1 WITHIN 10 s SLIDE 1 s",
                "RETURN COUNT(*) PATTERN SEQ(A, B) WHERE A.x > 1 AND B.y < 2 WITHIN 10 s SLIDE 1 s",
            ],
        )
        .unwrap();
        let o = optimize_sharon(&w, &RateMap::uniform(10.0), &OptimizerConfig::default());
        let shared: Vec<String> = o
            .plan
            .candidates
            .iter()
            .map(|cand| format!("{} {:?}", cand.pattern.display(&c), cand.queries))
            .collect();
        assert_eq!(shared, ["(A, B) {QueryId(0), QueryId(1), QueryId(2)}"]);
    }

    /// `SEQ(A..F)` twice and `SEQ(B..G)` at rate 10 under `WITHIN 20 s
    /// SLIDE 1 s` (20 open windows). Eq. 8 scores `(B..F)` among all three
    /// at 7r² = 700 and `(A..F)` among the duplicates at 6r² = 600; the
    /// fold charges the first two prefix boundaries (20 · Rate(A)) and one
    /// suffix boundary (20 · Rate(F)), 600 in all, leaving it 100.
    #[test]
    fn partial_sharing_loses_to_sharing_among_duplicates() {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(A, B, C, D, E, F) WITHIN 20 s SLIDE 1 s",
                "RETURN COUNT(*) PATTERN SEQ(A, B, C, D, E, F) WITHIN 20 s SLIDE 1 s",
                "RETURN COUNT(*) PATTERN SEQ(B, C, D, E, F, G) WITHIN 20 s SLIDE 1 s",
            ],
        )
        .unwrap();
        let rates = RateMap::uniform(10.0);
        let model = CostModel::new(&w, &rates);
        let tail = Pattern::from_names(&mut c, ["B", "C", "D", "E", "F"]);
        let b = model.benefit(&tail, &w.ids().collect());
        assert_eq!((b.value() + b.fold, b.fold), (700.0, 600.0));

        let o = optimize_sharon(&w, &rates, &OptimizerConfig::default());
        let shared: Vec<String> = o
            .plan
            .candidates
            .iter()
            .map(|cand| format!("{} {:?}", cand.pattern.display(&c), cand.queries))
            .collect();
        assert_eq!(shared, ["(A, B, C, D, E, F) {QueryId(0), QueryId(1)}"]);
        assert_eq!(o.score, 600.0);
    }

    /// `SEQ(A, B, C)` and `SEQ(B, C, D)` under `WITHIN 5 s SLIDE 1 s`, at
    /// rates A = C = 10k, B = 7k, D = 5k: the plan's shared candidates
    /// and score, and `(B, C)`'s Eq. 8 benefit and fold.
    fn abc_and_bcd_at(k: f64) -> (Vec<String>, f64, f64, f64) {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(A, B, C) WITHIN 5 s SLIDE 1 s",
                "RETURN COUNT(*) PATTERN SEQ(B, C, D) WITHIN 5 s SLIDE 1 s",
            ],
        )
        .unwrap();
        let rates = RateMap::from_rates(
            [("A", 10.0), ("B", 7.0), ("C", 10.0), ("D", 5.0)]
                .map(|(name, rate)| (c.lookup(name).unwrap(), k * rate)),
            0.0,
        );
        let bc = Pattern::from_names(&mut c, ["B", "C"]);
        let b = CostModel::new(&w, &rates).benefit(&bc, &w.ids().collect());
        let o = optimize_sharon(&w, &rates, &OptimizerConfig::default());
        let shared: Vec<String> = o
            .plan
            .candidates
            .iter()
            .map(|cand| format!("{} {:?}", cand.pattern.display(&c), cand.queries))
            .collect();
        assert_eq!(shared.is_empty(), o.plan.is_non_shared());
        (shared, o.score, b.value() + b.fold, b.fold)
    }

    /// Eq. 8 scores `(B, C)` at ac − d² = 75 for any rate of B, and its
    /// two boundaries fold 5 · Rate(A) + 5 · Rate(C) = 100, so sharing it
    /// loses.
    #[test]
    fn a_candidate_whose_fold_exceeds_its_benefit_is_dropped() {
        let (shared, score, eq8, fold) = abc_and_bcd_at(1.0);
        assert_eq!((eq8, fold), (75.0, 100.0));
        assert!(shared.is_empty(), "{shared:?}");
        assert_eq!(score, 0.0);
    }

    /// The fold is linear in the rates and Eqs. 2–5 are not: doubling
    /// every rate of the workload above quadruples Eq. 8 to 300 but only
    /// doubles the fold to 200, so `(B, C)` is shared again, at 100.
    #[test]
    fn doubling_every_rate_shares_the_dropped_candidate_again() {
        let (shared, score, eq8, fold) = abc_and_bcd_at(2.0);
        assert_eq!((eq8, fold), (300.0, 200.0));
        assert_eq!(shared, ["(B, C) {QueryId(0), QueryId(1)}"]);
        assert_eq!(score, 100.0);
    }

    #[test]
    fn no_sharing_opportunities_yields_non_shared_plan() {
        let mut c = Catalog::new();
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 1 min SLIDE 1 min",
                "RETURN COUNT(*) PATTERN SEQ(C, D) WITHIN 1 min SLIDE 1 min",
            ],
        )
        .unwrap();
        let rates = RateMap::uniform(100.0);
        let o = optimize_sharon(&w, &rates, &OptimizerConfig::default());
        assert!(o.plan.is_non_shared());
        assert_eq!(o.score, 0.0);
    }
}
