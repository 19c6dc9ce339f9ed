//! The sharing plan finder (Section 6): the maximum-score valid plan over
//! the (reduced) SHARON graph, i.e. a maximum-weight independent set.
//!
//! The paper walks the valid plans of the subset lattice level by level
//! (Algorithms 3–4). This finder searches the same space depth first and
//! prunes it by branch and bound, without giving up optimality:
//!
//! * **Search.** Vertices are ranked by descending weight (ties by index)
//!   and every search node is one valid plan: a node extends its parent
//!   by one later-ranked candidate adjacent to no member, so each valid
//!   plan is met at most once. Candidate sets and adjacency are bit rows
//!   of `u64` words sized to the graph; there is no vertex cap.
//! * **Bound.** Before a candidate is tried, the node's score plus a
//!   weighted clique cover of the candidates still available bounds every
//!   plan below it: each vertex's weight is split over cliques that hold
//!   it, a valid plan takes at most one vertex of a clique, so the sum of
//!   the cliques' charges bounds its score. A branch is cut if either of
//!   two greedy covers cuts it. One is built lightest first and gives the
//!   bound of every remaining suffix of a node's candidates in one pass; it
//!   is tight on the option cliques that expansion creates. The other is
//!   built heaviest first over the current candidates, only when the first
//!   does not cut; it keeps sparse graphs such as long conflict chains
//!   tractable.
//! * **Incumbent.** The search starts from GWMIN's plan (Appendix B; the
//!   guaranteed weight the reduction prunes with), and a branch is cut
//!   when its bound falls below the incumbent by more than a relative
//!   1e-9. A near-tie is never cut.
//! * **Tie rule.** A plan within the slack of the incumbent is re-scored
//!   by summing its weights in ascending vertex order. An equal score then
//!   prefers fewer vertices, and an equal count the lexicographically
//!   smaller ascending vertex list: the first best plan the paper's
//!   level-by-level traversal (Algorithm 4) meets, whatever order the
//!   search visits plans in.
//!
//! [`SearchStats::plans_considered`] counts search nodes, i.e. the valid
//! plans the search generated; plans under a cut branch are not counted.

use crate::graph::SharonGraph;
use crate::gwmin::gwmin;
use std::time::{Duration, Instant};

/// Statistics of one plan search.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Plans scored: search nodes of [`find_optimal_plan`], subsets of
    /// [`find_exhaustive`].
    pub plans_considered: u64,
    /// True if the search stopped early on its time budget.
    pub timed_out: bool,
}

/// The result of the plan finder: the best valid plan over the graph
/// (vertex indexes, ascending) and search statistics.
#[derive(Debug, Clone)]
pub struct FoundPlan {
    /// Vertex indexes of the winning plan, ascending.
    pub vertices: Vec<usize>,
    /// Its score (sum of benefit values).
    pub score: f64,
    /// Search statistics.
    pub stats: SearchStats,
}

/// Relative slack of the prune test: a branch is cut only when its bound
/// is below `incumbent · (1 − PRUNE_SLACK)`, far above the rounding error
/// of summing a few hundred weights in a different order.
const PRUNE_SLACK: f64 = 1e-9;

/// Search nodes between two reads of the clock.
const BUDGET_CHECK_NODES: u64 = 1024;

/// Find the maximum-score valid plan over a (reduced) graph by branch and
/// bound (see the module docs). The optimizer calls it once per connected
/// component.
///
/// `budget` optionally bounds the search wall-clock; on exhaustion the best
/// plan found so far is returned with `stats.timed_out = true`. That plan
/// never scores below GWMIN's on `graph`.
pub fn find_optimal_plan(graph: &SharonGraph, budget: Option<Duration>) -> FoundPlan {
    let mut search = Search::new(graph, budget);
    let mut all = vec![0u64; search.words];
    for p in 0..graph.len() {
        all[p / 64] |= 1 << (p % 64);
    }
    search.expand(all, 0.0);
    FoundPlan {
        vertices: search.best,
        score: search.best_score,
        stats: SearchStats {
            plans_considered: search.nodes,
            timed_out: search.timed_out,
        },
    }
}

/// The state of one branch-and-bound search. Bit `p` of a row stands for
/// the vertex of rank `p`, `order[p]`.
struct Search<'g> {
    graph: &'g SharonGraph,
    /// Vertex index of each rank: descending weight, ties by index.
    order: Vec<usize>,
    /// Weight of each rank.
    weight: Vec<f64>,
    /// Words per bit row.
    words: usize,
    /// Adjacency rows by rank, `words` words each.
    adj: Vec<u64>,
    /// Ranks of the current node's plan.
    members: Vec<usize>,
    /// The incumbent: vertex indexes ascending, and its ascending-order sum.
    best: Vec<usize>,
    best_score: f64,
    nodes: u64,
    start: Instant,
    budget: Option<Duration>,
    timed_out: bool,
}

impl<'g> Search<'g> {
    fn new(graph: &'g SharonGraph, budget: Option<Duration>) -> Self {
        let n = graph.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            graph
                .vertex(b)
                .weight
                .total_cmp(&graph.vertex(a).weight)
                .then(a.cmp(&b))
        });
        let mut rank = vec![0; n];
        for (p, &v) in order.iter().enumerate() {
            rank[v] = p;
        }
        let words = n.div_ceil(64);
        let mut adj = vec![0u64; n * words];
        for (p, &v) in order.iter().enumerate() {
            for &u in graph.neighbors(v) {
                adj[p * words + rank[u] / 64] |= 1 << (rank[u] % 64);
            }
        }
        let mut best = gwmin(graph);
        best.sort_unstable();
        Search {
            graph,
            weight: order.iter().map(|&v| graph.vertex(v).weight).collect(),
            order,
            words,
            adj,
            members: Vec::new(),
            best_score: plan_score(graph, &best),
            best,
            nodes: 0,
            start: Instant::now(),
            budget,
            timed_out: false,
        }
    }

    fn row(&self, p: usize) -> &[u64] {
        &self.adj[p * self.words..(p + 1) * self.words]
    }

    /// Scores below this cannot beat (or tie) the incumbent.
    fn threshold(&self) -> f64 {
        self.best_score - PRUNE_SLACK * self.best_score.abs()
    }

    /// Search every plan that extends the current node (score `score`) by
    /// candidates from `cand`, in rank order. Before the `i`-th candidate
    /// is tried, `cand` holds exactly `ranks[i..]`.
    fn expand(&mut self, mut cand: Vec<u64>, score: f64) {
        let ranks: Vec<usize> = bits(&cand).collect();
        let suffix_bounds = self.suffix_covers(&ranks);
        for (i, &p) in ranks.iter().enumerate() {
            // the cheap bound first; the greedy cover only when it does not cut
            if score + suffix_bounds[i] < self.threshold()
                || score + self.cover(&cand) < self.threshold()
            {
                return;
            }
            if self.nodes.is_multiple_of(BUDGET_CHECK_NODES)
                && self.budget.is_some_and(|b| self.start.elapsed() >= b)
            {
                self.timed_out = true;
                return;
            }
            self.nodes += 1;
            cand[p / 64] &= !(1 << (p % 64));
            let child_score = score + self.weight[p];
            self.members.push(p);
            if child_score >= self.threshold() {
                self.offer();
            }
            let child: Vec<u64> = cand.iter().zip(self.row(p)).map(|(c, a)| c & !a).collect();
            self.expand(child, child_score);
            self.members.pop();
            if self.timed_out {
                return;
            }
        }
    }

    /// Make the current node's plan the incumbent if it wins under the
    /// tie rule.
    fn offer(&mut self) {
        let mut plan: Vec<usize> = self.members.iter().map(|&p| self.order[p]).collect();
        plan.sort_unstable();
        let score = plan_score(self.graph, &plan);
        let wins = score > self.best_score
            || (score == self.best_score && (plan.len(), &plan) < (self.best.len(), &self.best));
        if wins {
            self.best = plan;
            self.best_score = score;
        }
    }

    /// Weighted clique covers of every suffix `ranks[i..]` at once, built
    /// lightest first: a vertex joins each earlier clique it is adjacent to
    /// in full (gaining that clique's charge) until its weight is covered,
    /// and any weight left opens a new clique charged with it. The charges
    /// so far bound every plan within the suffix.
    fn suffix_covers(&self, ranks: &[usize]) -> Vec<f64> {
        // per clique: the vertices adjacent to every member, and its charge
        let mut common: Vec<u64> = Vec::new();
        let mut charges: Vec<f64> = Vec::new();
        let mut bound = 0.0;
        let mut bounds = vec![0.0; ranks.len()];
        for (i, &v) in ranks.iter().enumerate().rev() {
            let row = self.row(v);
            let mut need = self.weight[v];
            for (clique, charge) in common.chunks_exact_mut(self.words).zip(&charges) {
                if need <= 0.0 {
                    break;
                }
                if clique[v / 64] >> (v % 64) & 1 == 1 {
                    need -= charge;
                    for (c, a) in clique.iter_mut().zip(row) {
                        *c &= a;
                    }
                }
            }
            if need > 0.0 {
                charges.push(need);
                common.extend_from_slice(row);
                bound += need;
            }
            bounds[i] = bound;
        }
        bounds
    }

    /// Greedy weighted clique cover of `cand`, built heaviest first: grow
    /// a maximal clique from the highest-ranked candidate left, charge it
    /// the smallest residual weight `δ` among its members, take `δ` off
    /// each member, and drop the members left at zero. The charges bound
    /// every plan within `cand`.
    fn cover(&self, cand: &[u64]) -> f64 {
        let mut rest = cand.to_vec();
        let mut residual = self.weight.clone();
        let mut members = Vec::new();
        let mut bound = 0.0;
        while let Some(p) = first_bit(&rest) {
            members.clear();
            let mut clique = rest.clone();
            let mut member = p;
            loop {
                members.push(member);
                for (c, a) in clique.iter_mut().zip(self.row(member)) {
                    *c &= a;
                }
                match first_bit(&clique) {
                    Some(next) => member = next,
                    None => break,
                }
            }
            let delta = members
                .iter()
                .map(|&m| residual[m])
                .fold(f64::INFINITY, f64::min);
            bound += delta;
            for &m in &members {
                residual[m] -= delta;
                if residual[m] <= 0.0 {
                    rest[m / 64] &= !(1 << (m % 64));
                }
            }
        }
        bound
    }
}

/// The set bits of a bit row, ascending.
fn bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(i, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                i * 64 + b
            })
        })
    })
}

/// Lowest set bit of a bit row.
fn first_bit(row: &[u64]) -> Option<usize> {
    bits(row).next()
}

/// A plan's score, summed in the order of `plan` (ascending for every plan
/// this module returns). Starts from `+0.0`, so the empty plan scores
/// `+0.0` and any other plan exactly its float sum.
fn plan_score(graph: &SharonGraph, plan: &[usize]) -> f64 {
    plan.iter().fold(0.0, |s, &v| s + graph.vertex(v).weight)
}

/// Exhaustively enumerate *all* subsets (valid and invalid) and return the
/// best valid plan — the "exhaustive optimizer" baseline of Section 8.3.
/// Exponential; `budget` bounds the wall clock.
pub fn find_exhaustive(graph: &SharonGraph, budget: Option<Duration>) -> FoundPlan {
    let start = Instant::now();
    let n = graph.len();
    let mut stats = SearchStats::default();
    let mut best: Vec<usize> = Vec::new();
    let mut best_score = 0.0;
    if n >= 64 {
        // 2^n is not even representable: report a did-not-finish search
        stats.timed_out = true;
        return FoundPlan {
            vertices: best,
            score: best_score,
            stats,
        };
    }
    'outer: for mask in 0u64..(1u64 << n) {
        stats.plans_considered += 1;
        if stats.plans_considered % 4096 == 0 {
            if let Some(b) = budget {
                if start.elapsed() > b {
                    stats.timed_out = true;
                    break 'outer;
                }
            }
        }
        let members: Vec<usize> = (0..n).filter(|&v| mask & (1 << v) != 0).collect();
        // validity: no pair of members adjacent
        let mut valid = true;
        'pairs: for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                if graph.has_edge(a, b) {
                    valid = false;
                    break 'pairs;
                }
            }
        }
        if !valid {
            continue;
        }
        let score: f64 = members.iter().map(|&v| graph.vertex(v).weight).sum();
        if score > best_score {
            best_score = score;
            best = members;
        }
    }
    FoundPlan {
        vertices: best,
        score: best_score,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::figure_4_graph;
    use crate::reduction::reduce;
    use sharon_types::Catalog;

    #[test]
    fn finds_example_12_optimal_plan() {
        let mut c = Catalog::new();
        let (_, g) = figure_4_graph(&mut c);
        let red = reduce(&g);
        let found = find_optimal_plan(&red.graph, None);
        // optimal on the reduced graph: {p2, p4, p6} with score 32
        let names: Vec<usize> = found
            .vertices
            .iter()
            .map(|&v| {
                // map back to original indexes
                red.mapping.iter().position(|m| *m == Some(v)).unwrap()
            })
            .collect();
        assert_eq!(names, vec![1, 3, 5], "p2, p4, p6");
        assert_eq!(found.score, 32.0);
        // plus conflict-free p7 (18): total 50, Example 12's optimal score
        let total: f64 = found.score
            + red
                .conflict_free
                .iter()
                .map(|&v| g.vertex(v).weight)
                .sum::<f64>();
        assert_eq!(total, 50.0);
    }

    /// Every non-empty independent set of `g`, by brute force.
    fn valid_plans(g: &SharonGraph) -> usize {
        (1u64..1 << g.len())
            .filter(|mask| {
                (0..g.len()).all(|a| {
                    mask & (1 << a) == 0
                        || (a + 1..g.len()).all(|b| mask & (1 << b) == 0 || !g.has_edge(a, b))
                })
            })
            .count()
    }

    #[test]
    fn considers_exactly_the_valid_space_of_example_10() {
        let mut c = Catalog::new();
        let (_, g) = figure_4_graph(&mut c);
        let red = reduce(&g);
        // Example 10: the valid space consists of 10 plans
        assert_eq!(valid_plans(&red.graph), 10);
        // the search visits at most those and still finds {p2, p4, p6}
        let found = find_optimal_plan(&red.graph, None);
        assert!(found.stats.plans_considered <= 10);
        assert_eq!(found.score, 32.0);
    }

    #[test]
    fn matches_exhaustive_on_the_full_graph() {
        let mut c = Catalog::new();
        let (_, g) = figure_4_graph(&mut c);
        let found = find_optimal_plan(&g, None);
        let exh = find_exhaustive(&g, None);
        assert_eq!(found.score, exh.score);
        assert_eq!(found.vertices, exh.vertices);
        assert_eq!(found.score, 50.0, "optimal over the unreduced graph");
        assert_eq!(exh.stats.plans_considered, 128, "2^7 subsets");
    }

    #[test]
    fn empty_graph_yields_empty_plan() {
        let found = find_optimal_plan(&SharonGraph::default(), None);
        assert!(found.vertices.is_empty());
        assert_eq!(found.score, 0.0);
        let exh = find_exhaustive(&SharonGraph::default(), None);
        assert!(exh.vertices.is_empty());
    }

    #[test]
    fn budget_cuts_the_search() {
        let mut c = Catalog::new();
        let (_, g) = figure_4_graph(&mut c);
        let found = find_optimal_plan(&g, Some(Duration::ZERO));
        assert!(found.stats.timed_out);
        // the incumbent is GWMIN's plan, Example 12's greedy {p1, p7} (43)
        assert_eq!(found.vertices, vec![0, 6]);
        assert_eq!(found.score, 43.0);
        assert!(!g.has_edge(0, 6));
    }

    /// Maximum-weight independent set of a path by dynamic programming.
    fn path_mwis(weights: &[f64]) -> f64 {
        let (mut skip, mut take) = (0.0f64, 0.0f64);
        for &w in weights {
            (skip, take) = (skip.max(take), skip + w);
        }
        skip.max(take)
    }

    #[test]
    fn long_paths_and_cycles_match_dynamic_programming() {
        for n in [150usize, 300] {
            // integral pseudo-random weights, so every sum is exact
            let weights: Vec<f64> = (0..n).map(|i| ((i * 7919 + 13) % 97 + 1) as f64).collect();
            let path: Vec<(usize, usize)> = (1..n).map(|v| (v - 1, v)).collect();
            let mut cycle = path.clone();
            cycle.push((n - 1, 0));
            let expected_path = path_mwis(&weights);
            let expected_cycle = path_mwis(&weights[1..]).max(path_mwis(&weights[..n - 1]));
            for (edges, expected) in [(path, expected_path), (cycle, expected_cycle)] {
                let g = SharonGraph::from_edges(&weights, &edges);
                let found = find_optimal_plan(&g, None);
                assert!(!found.stats.timed_out);
                assert_eq!(found.score, expected, "n = {n}, {} edges", edges.len());
                for pair in found.vertices.windows(2) {
                    assert!(pair[0] < pair[1]);
                }
                for (i, &a) in found.vertices.iter().enumerate() {
                    for &b in &found.vertices[i + 1..] {
                        assert!(!g.has_edge(a, b), "v{a} ~ v{b}");
                    }
                }
            }
        }
    }
}
