//! Property-based tests of the optimizer's core invariants over random
//! workloads:
//!
//! * the plan finder matches exhaustive enumeration (optimality,
//!   Lemma 7);
//! * graph reduction never changes the optimal score (Definitions 13–14
//!   are safe prunes);
//! * GWMIN returns an independent set meeting its guaranteed weight
//!   (Eq. 10);
//! * candidate expansion only adds valid, benefit-positive options.

#![cfg(test)]

use crate::graph::SharonGraph;
use crate::gwmin::{guaranteed_weight, gwmin, set_weight};
use crate::mining::mine_sharable_patterns;
use crate::plan_finder::{find_exhaustive, find_optimal_plan};
use crate::reduction::reduce;
use proptest::prelude::*;
use sharon_query::{AggFunc, Pattern, PlanCandidate, Query, QueryId, Workload};
use sharon_types::{Catalog, EventTypeId, WindowSpec};

/// A random small workload of contiguous-run patterns over a circular
/// alphabet (guaranteeing overlap and thus conflicts).
fn workload_strategy() -> impl Strategy<Value = Workload> {
    (
        3usize..=7,
        prop::collection::vec((0usize..7, 2usize..=4), 2..=6),
    )
        .prop_map(|(n_types, specs)| {
            Workload::from_queries(specs.into_iter().map(|(offset, len)| {
                let len = len.min(n_types);
                let types: Vec<EventTypeId> = (0..len)
                    .map(|i| EventTypeId(((offset + i) % n_types) as u32))
                    .collect();
                Query::simple(
                    QueryId(0),
                    Pattern::new(types),
                    AggFunc::CountStar,
                    WindowSpec::paper_traffic(),
                )
            }))
        })
}

/// Build a graph over the workload's mined candidates with random
/// positive weights.
fn graph_of(workload: &Workload, weights: &[u32]) -> SharonGraph {
    let mined = mine_sharable_patterns(workload);
    let items: Vec<(PlanCandidate, f64)> = mined
        .into_iter()
        .enumerate()
        .map(|(i, (p, qs))| {
            (
                PlanCandidate::new(p, qs),
                (weights.get(i).copied().unwrap_or(1) % 50 + 1) as f64,
            )
        })
        .collect();
    SharonGraph::from_weighted(workload, items)
}

/// The plan the level-wise lattice walk returned: over all valid plans,
/// the highest score summed in ascending vertex order; among equal scores
/// the fewest vertices, then the lexicographically smallest vertex list.
fn tie_rule_oracle(g: &SharonGraph) -> (Vec<usize>, f64) {
    let n = g.len();
    let mut best: (Vec<usize>, f64) = (Vec::new(), 0.0);
    for mask in 1u64..1 << n {
        let plan: Vec<usize> = (0..n).filter(|&v| mask & (1 << v) != 0).collect();
        let valid = plan
            .iter()
            .enumerate()
            .all(|(i, &a)| plan[i + 1..].iter().all(|&b| !g.has_edge(a, b)));
        if !valid {
            continue;
        }
        let score: f64 = plan.iter().map(|&v| g.vertex(v).weight).sum();
        if score > best.1 || (score == best.1 && (plan.len(), &plan) < (best.0.len(), &best.0)) {
            best = (plan, score);
        }
    }
    best
}

/// The plan finder returns exactly the oracle's plan and score, and
/// matches the exhaustive optimizer's score.
fn check_plan_identity(g: &SharonGraph) -> Result<(), TestCaseError> {
    let found = find_optimal_plan(g, None);
    let (plan, score) = tie_rule_oracle(g);
    prop_assert_eq!(&found.vertices, &plan);
    prop_assert_eq!(found.score.to_bits(), score.to_bits());
    let exh = find_exhaustive(g, None);
    prop_assert!(
        (found.score - exh.score).abs() < 1e-9,
        "finder {} != exhaustive {}",
        found.score,
        exh.score
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn plan_finder_matches_exhaustive(
        w in workload_strategy(),
        weights in prop::collection::vec(1u32..50, 0..24),
    ) {
        let g = graph_of(&w, &weights);
        prop_assume!(g.len() <= 16); // keep 2^n enumeration fast
        check_plan_identity(&g)?;
    }

    /// As above with weights 1..=3 (`graph_of` maps `w` to `w % 50 + 1`),
    /// where equal-score plans are common and the tie rule decides.
    #[test]
    fn plan_finder_keeps_the_tie_rule(
        w in workload_strategy(),
        weights in prop::collection::vec(0u32..=2, 0..24),
    ) {
        let g = graph_of(&w, &weights);
        prop_assume!(g.len() <= 16);
        check_plan_identity(&g)?;
    }

    #[test]
    fn reduction_preserves_the_optimal_score(
        w in workload_strategy(),
        weights in prop::collection::vec(1u32..50, 0..24),
    ) {
        let g = graph_of(&w, &weights);
        prop_assume!(g.len() <= 14);
        let unreduced = find_exhaustive(&g, None).score;
        let red = reduce(&g);
        let cf: f64 = red
            .conflict_free
            .iter()
            .map(|&v| g.vertex(v).weight)
            .sum();
        let reduced = find_optimal_plan(&red.graph, None).score + cf;
        prop_assert!(
            (unreduced - reduced).abs() < 1e-9,
            "reduction changed the optimum: {unreduced} -> {reduced}"
        );
    }

    #[test]
    fn gwmin_independent_and_meets_guarantee(
        w in workload_strategy(),
        weights in prop::collection::vec(1u32..50, 0..24),
    ) {
        let g = graph_of(&w, &weights);
        let is = gwmin(&g);
        for (i, &a) in is.iter().enumerate() {
            for &b in &is[i + 1..] {
                prop_assert!(!g.has_edge(a, b), "v{a} ~ v{b}");
            }
        }
        prop_assert!(set_weight(&g, &is) + 1e-9 >= guaranteed_weight(&g));
    }

    #[test]
    fn optimal_plan_is_always_executable(
        w in workload_strategy(),
        weights in prop::collection::vec(1u32..50, 0..24),
    ) {
        let g = graph_of(&w, &weights);
        prop_assume!(g.len() <= 14);
        let red = reduce(&g);
        let found = find_optimal_plan(&red.graph, None);
        let mut candidates: Vec<PlanCandidate> = found
            .vertices
            .iter()
            .map(|&v| red.graph.vertex(v).candidate.clone())
            .collect();
        candidates.extend(
            red.conflict_free
                .iter()
                .map(|&v| g.vertex(v).candidate.clone()),
        );
        let plan = sharon_query::SharingPlan::new(candidates);
        prop_assert!(plan.validate(&w).is_ok(), "{:?}", plan.validate(&w));
    }

    #[test]
    fn expansion_options_are_subsets_with_positive_benefit(
        w in workload_strategy(),
        weights in prop::collection::vec(1u32..50, 0..24),
    ) {
        use crate::expansion::{expand_candidate, ExpansionConfig};
        let g = graph_of(&w, &weights);
        let cfg = ExpansionConfig::default();
        for v in 0..g.len() {
            let orig = g.vertex(v).candidate.clone();
            let mut benefit = |_: &Pattern, qs: &std::collections::BTreeSet<QueryId>| {
                qs.len() as f64
            };
            let options = expand_candidate(&w, &g, v, &mut benefit, &cfg);
            prop_assert!(!options.is_empty());
            prop_assert_eq!(&options[0].0, &orig, "option 0 is the original");
            for (cand, weight) in &options {
                prop_assert!(cand.queries.len() > 1);
                prop_assert!(cand.queries.is_subset(&orig.queries));
                prop_assert!(*weight > 0.0);
            }
        }
    }

    /// The end-to-end invariant: whatever plan the Sharon optimizer picks
    /// for a random workload, it validates and scores at least the greedy
    /// plan.
    #[test]
    fn sharon_score_dominates_greedy(w in workload_strategy()) {
        use crate::cost::RateMap;
        use crate::optimizer::{optimize_greedy, optimize_sharon, OptimizerConfig};
        let rates = RateMap::uniform(25.0);
        let sharon = optimize_sharon(&w, &rates, &OptimizerConfig::default());
        let greedy = optimize_greedy(&w, &rates);
        prop_assert!(sharon.plan.validate(&w).is_ok());
        prop_assert!(greedy.plan.validate(&w).is_ok());
        prop_assert!(
            sharon.score >= greedy.score - 1e-9,
            "sharon {} < greedy {}",
            sharon.score,
            greedy.score
        );
    }
}

/// Catalog smoke test binding random patterns back to names (regression
/// guard for `EventTypeId` index arithmetic in the strategies above).
#[test]
fn strategy_patterns_are_well_formed() {
    let mut c = Catalog::new();
    for i in 0..7 {
        c.register(&format!("T{i}"));
    }
    // the strategies above construct ids 0..7 directly; ensure they map
    let p = Pattern::new(vec![EventTypeId(0), EventTypeId(6)]);
    assert_eq!(p.display(&c).to_string(), "(T0, T6)");
}
