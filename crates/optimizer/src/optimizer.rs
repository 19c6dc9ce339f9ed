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
use sharon_query::{PlanCandidate, SharingPlan, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Tuning knobs for the optimizers.
#[derive(Debug, Clone, Default)]
pub struct OptimizerConfig {
    /// Resolve sharing conflicts by expanding candidates into query-subset
    /// options (§7.1). On by default for the Sharon and exhaustive
    /// optimizers, matching Section 8.3's phase description.
    pub skip_expansion: bool,
    /// Caps on option generation.
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
    /// Vertices after expansion (0 when expansion is skipped).
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
/// candidates (one per signature class).
fn split_by_signature(
    workload: &Workload,
    mined: CandidateMap,
) -> Vec<(
    sharon_query::Pattern,
    std::collections::BTreeSet<sharon_query::QueryId>,
)> {
    let mut out = Vec::new();
    for (pattern, queries) in mined {
        let mut by_sig: BTreeMap<usize, std::collections::BTreeSet<_>> = BTreeMap::new();
        let mut sigs = Vec::new();
        for q in queries {
            let sig = workload.get(q).sharing_signature();
            let idx = match sigs.iter().position(|s| *s == sig) {
                Some(i) => i,
                None => {
                    sigs.push(sig);
                    sigs.len() - 1
                }
            };
            by_sig.entry(idx).or_default().insert(q);
        }
        for (_, qs) in by_sig {
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
    if config.skip_expansion {
        return (graph.clone(), Duration::ZERO);
    }
    let t = Instant::now();
    let model = CostModel::new(workload, rates);
    let mut benefit =
        |p: &sharon_query::Pattern, qs: &std::collections::BTreeSet<sharon_query::QueryId>| {
            model.bvalue(p, qs)
        };
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
    use sharon_query::{parse_workload, QueryId};
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
    fn skip_expansion_reproduces_original_graph_plan() {
        let (_, w) = traffic();
        let rates = RateMap::uniform(100.0);
        let cfg = OptimizerConfig {
            skip_expansion: true,
            ..Default::default()
        };
        let o = optimize_sharon(&w, &rates, &cfg);
        assert_eq!(o.stats.expanded_vertices, o.stats.graph_vertices);
        o.plan.validate(&w).unwrap();
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
