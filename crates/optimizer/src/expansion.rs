//! Sharing conflict resolution (Section 7.1, Algorithms 5–6).
//!
//! "We expand each candidate `v = (p, Q_p)` with conflicts to a set of
//! options `O_p`. Each option `v' = (p, Q'_p)` resolves a different subset
//! of conflicts of the original candidate \[by\] sharing the pattern p by a
//! subset of queries containing p" (Definition 16, Example 13: dropping
//! `q3, q4` from `(p1, {q1..q4})` yields the option `(p1, {q1, q2})`,
//! which no longer conflicts with `(p2, {q3, q4})`).
//!
//! The expanded graph (Algorithm 6) re-derives all conflict edges among
//! options and feeds the same reduction + plan finder pipeline.

use crate::graph::SharonGraph;
use sharon_query::{Pattern, PlanCandidate, QueryId, Workload};
use std::collections::BTreeSet;

/// Caps on the exponential option generation (Eq. 14). The defaults are
/// generous enough for the paper's workloads while keeping worst cases
/// bounded.
#[derive(Debug, Clone, Copy)]
pub struct ExpansionConfig {
    /// Maximum options generated per original candidate (|O_p^max|).
    pub max_options_per_candidate: usize,
    /// Maximum conflict-causing query set size for which all proper
    /// subsets are enumerated; larger sets only drop wholesale.
    pub max_subset_queries: usize,
    /// Hard cap on the expanded graph's vertex count: once reached,
    /// remaining candidates keep only their original (unexpanded) form.
    /// Bounds the Eq. 14 blow-up on dense workloads.
    pub max_total_options: usize,
}

impl Default for ExpansionConfig {
    fn default() -> Self {
        ExpansionConfig {
            max_options_per_candidate: 64,
            max_subset_queries: 8,
            max_total_options: 256,
        }
    }
}

/// All non-empty subsets of `items` (size-capped by the caller).
fn non_empty_subsets(items: &[QueryId]) -> Vec<Vec<QueryId>> {
    let n = items.len();
    let mut out = Vec::with_capacity((1usize << n) - 1);
    for mask in 1u32..(1u32 << n) {
        out.push(
            (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| items[i])
                .collect(),
        );
    }
    out
}

/// The sharing candidate expansion algorithm (Algorithm 5): the set of
/// options for vertex `v` of `graph`, starting with the original
/// candidate. Options share `v`'s pattern with a query subset `Q'_p`,
/// `|Q'_p| > 1`.
pub fn expand_candidate(
    workload: &Workload,
    graph: &SharonGraph,
    v: usize,
    benefit: &mut dyn FnMut(&Pattern, &BTreeSet<QueryId>) -> f64,
    config: &ExpansionConfig,
) -> Vec<(PlanCandidate, f64)> {
    let original = &graph.vertex(v).candidate;
    let mut seen: BTreeSet<BTreeSet<QueryId>> = BTreeSet::new();
    seen.insert(original.queries.clone());
    let mut options = vec![(original.clone(), graph.vertex(v).weight)];

    // BFS over query-subset options (two stacks as in Algorithm 5)
    let mut current: Vec<BTreeSet<QueryId>> = vec![original.queries.clone()];
    let mut next: Vec<BTreeSet<QueryId>> = Vec::new();
    while !current.is_empty() && options.len() < config.max_options_per_candidate {
        for qset in current.drain(..) {
            for &u in graph.neighbors(v) {
                let other = &graph.vertex(u).candidate;
                // queries of this option causing the conflict with u
                let causing: Vec<QueryId> = qset
                    .intersection(&other.queries)
                    .copied()
                    .filter(|q| {
                        let pat = &workload.get(*q).pattern;
                        pat.occurrences_of(&original.pattern).iter().any(|&ia| {
                            pat.occurrences_of(&other.pattern).iter().any(|&ib| {
                                ia < ib + other.pattern.len() && ib < ia + original.pattern.len()
                            })
                        })
                    })
                    .collect();
                if causing.is_empty() {
                    continue;
                }
                let combos = if causing.len() <= config.max_subset_queries {
                    non_empty_subsets(&causing)
                } else {
                    vec![causing.clone()]
                };
                for combo in combos {
                    let mut reduced = qset.clone();
                    for q in &combo {
                        reduced.remove(q);
                    }
                    if reduced.len() > 1 && seen.insert(reduced.clone()) {
                        let w = benefit(&original.pattern, &reduced);
                        if w > 0.0 {
                            options.push((
                                PlanCandidate::new(
                                    original.pattern.clone(),
                                    reduced.iter().copied(),
                                ),
                                w,
                            ));
                        }
                        next.push(reduced);
                        if options.len() >= config.max_options_per_candidate {
                            return options;
                        }
                    }
                }
            }
        }
        std::mem::swap(&mut current, &mut next);
    }
    options
}

/// The sharing conflict resolution algorithm (Algorithm 6): expand every
/// candidate of `graph` into its options and rebuild the conflict edges,
/// returning the expanded SHARON graph.
pub fn expand_graph(
    workload: &Workload,
    graph: &SharonGraph,
    benefit: &mut dyn FnMut(&Pattern, &BTreeSet<QueryId>) -> f64,
    config: &ExpansionConfig,
) -> SharonGraph {
    let mut items: Vec<(PlanCandidate, f64)> = Vec::new();
    for v in 0..graph.len() {
        if items.len() + (graph.len() - v) >= config.max_total_options {
            // budget exhausted: keep the remaining originals unexpanded
            items.push((graph.vertex(v).candidate.clone(), graph.vertex(v).weight));
            continue;
        }
        let remaining = config.max_total_options - items.len() - (graph.len() - v - 1);
        let per_candidate = ExpansionConfig {
            max_options_per_candidate: config.max_options_per_candidate.min(remaining),
            ..*config
        };
        items.extend(expand_candidate(
            workload,
            graph,
            v,
            benefit,
            &per_candidate,
        ));
    }
    SharonGraph::from_weighted(workload, items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::figure_4_graph;
    use crate::plan_finder::find_optimal_plan;
    use crate::reduction::reduce;
    use sharon_types::Catalog;

    /// Benefit oracle matching the spirit of Figure 4: proportional to the
    /// number of sharing queries (so subsets stay beneficial).
    fn per_query_benefit(
        original_weight: f64,
        original_n: usize,
    ) -> impl FnMut(&Pattern, &BTreeSet<QueryId>) -> f64 {
        move |_, qs| original_weight * qs.len() as f64 / original_n as f64
    }

    #[test]
    fn expands_p1_with_the_example_13_option() {
        let mut c = Catalog::new();
        let (w, g) = figure_4_graph(&mut c);
        let mut benefit = per_query_benefit(25.0, 4);
        let options = expand_candidate(&w, &g, 0, &mut benefit, &ExpansionConfig::default());
        // the original candidate is option 0
        assert_eq!(options[0].0.queries.len(), 4);
        assert_eq!(options[0].1, 25.0);
        // Example 13 / Figure 11: option (p1, {q1, q2}) exists (drops the
        // conflict-causing q3, q4)
        let q12: BTreeSet<QueryId> = [QueryId(0), QueryId(1)].into_iter().collect();
        assert!(
            options.iter().any(|(cand, _)| cand.queries == q12),
            "missing option (p1, {{q1, q2}}) among {:?}",
            options
                .iter()
                .map(|(c2, _)| c2.queries.clone())
                .collect::<Vec<_>>()
        );
        // every option shares among at least two queries
        assert!(options.iter().all(|(cand, _)| cand.queries.len() > 1));
    }

    #[test]
    fn conflict_free_candidates_expand_to_themselves() {
        let mut c = Catalog::new();
        let (w, g) = figure_4_graph(&mut c);
        let mut benefit = per_query_benefit(18.0, 2);
        let options = expand_candidate(&w, &g, 6, &mut benefit, &ExpansionConfig::default());
        assert_eq!(options.len(), 1, "p7 has no conflicts to resolve");
    }

    #[test]
    fn expanded_graph_recovers_more_sharing() {
        let mut c = Catalog::new();
        let (w, g) = figure_4_graph(&mut c);
        // benefit proportional to #queries for each pattern family
        let weights: Vec<(f64, usize)> = (0..g.len())
            .map(|v| (g.vertex(v).weight, g.vertex(v).candidate.queries.len()))
            .collect();
        let pattern_of: Vec<Pattern> = (0..g.len())
            .map(|v| g.vertex(v).candidate.pattern.clone())
            .collect();
        let mut benefit = move |p: &Pattern, qs: &BTreeSet<QueryId>| {
            let v = pattern_of.iter().position(|x| x == p).unwrap();
            weights[v].0 * qs.len() as f64 / weights[v].1 as f64
        };
        let expanded = expand_graph(&w, &g, &mut benefit, &ExpansionConfig::default());
        assert!(expanded.len() > g.len(), "options were added");
        let red = reduce(&expanded);
        let found = find_optimal_plan(&red.graph, None);
        let cf_weight: f64 = red
            .conflict_free
            .iter()
            .map(|&v| expanded.vertex(v).weight)
            .sum();
        let total = found.score + cf_weight;
        // the unexpanded optimum is 50 (Example 12); expansion can only help
        assert!(total >= 50.0 - 1e-9, "expanded optimum {total} < 50");
        // and in this benefit model it strictly helps: e.g. adding the
        // option (p1, {q1, q2}) = 12.5 alongside p2, p4, p6, p7
        assert!(total > 50.0, "expected strict improvement, got {total}");
    }

    #[test]
    fn option_caps_are_respected() {
        let mut c = Catalog::new();
        let (w, g) = figure_4_graph(&mut c);
        let cfg = ExpansionConfig {
            max_options_per_candidate: 2,
            ..Default::default()
        };
        let mut benefit = per_query_benefit(25.0, 4);
        let options = expand_candidate(&w, &g, 0, &mut benefit, &cfg);
        assert!(options.len() <= 2);
    }

    #[test]
    fn subsets_enumeration() {
        let items = vec![QueryId(0), QueryId(1)];
        let subs = non_empty_subsets(&items);
        assert_eq!(subs.len(), 3);
    }
}
