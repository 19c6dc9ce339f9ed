//! The SHARON graph (Section 4, Definition 10).
//!
//! "We compactly encode sharing candidates as vertices and conflicts among
//! these candidates as edges of the SHARON graph. Each vertex is assigned a
//! weight that corresponds to the benefit of sharing the respective
//! candidate."
//!
//! Two candidates `(p_A, Q_A)` and `(p_B, Q_B)` conflict iff `p_A` overlaps
//! with `p_B` in some query `q ∈ Q_A ∩ Q_B` (Definition 6): "since the
//! executor computes and stores the aggregates for a pattern as a whole,
//! [a query] can either share p1 or p2, but not both" (Example 4). Under
//! assumption (3) each pattern occurs at a unique position interval per
//! query, so the test is interval intersection.

use crate::cost::CostModel;
use crate::mining::CandidateMap;
use sharon_query::{Pattern, PlanCandidate, QueryId, Workload};
use sharon_types::Catalog;
use std::collections::BTreeSet;
use std::fmt;

/// One vertex: a sharing candidate with its benefit value.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphVertex {
    /// The candidate `(p, Q_p)`.
    pub candidate: PlanCandidate,
    /// `BValue(p, Q_p)` — positive by construction (non-beneficial
    /// candidates are pruned before insertion, Section 3.4).
    pub weight: f64,
}

/// The SHARON graph: weighted vertices, undirected conflict edges, stored
/// as adjacency sets for O(1) conflict lookup.
#[derive(Debug, Clone, Default)]
pub struct SharonGraph {
    verts: Vec<GraphVertex>,
    adj: Vec<BTreeSet<usize>>,
}

/// Decide whether two candidates are in sharing conflict within `workload`
/// (Definition 6): their patterns occupy overlapping positions in some
/// common query.
pub fn in_conflict(workload: &Workload, a: &PlanCandidate, b: &PlanCandidate) -> bool {
    for q in a.queries.intersection(&b.queries) {
        let pattern = &workload.get(*q).pattern;
        // all occurrences, to remain correct under the §7.3 relaxation
        for ia in pattern.occurrences_of(&a.pattern) {
            for ib in pattern.occurrences_of(&b.pattern) {
                if ia < ib + b.pattern.len() && ib < ia + a.pattern.len() {
                    return true;
                }
            }
        }
    }
    false
}

impl SharonGraph {
    /// The SHARON graph construction algorithm (Algorithm 1): insert each
    /// beneficial candidate shared by ≥ 2 queries, with conflict edges.
    pub fn build(workload: &Workload, candidates: &CandidateMap, model: &CostModel<'_>) -> Self {
        let mut g = SharonGraph::default();
        for (pattern, queries) in candidates {
            if queries.len() < 2 {
                continue;
            }
            let weight = model.bvalue(pattern, queries);
            if weight > 0.0 {
                g.insert(
                    workload,
                    PlanCandidate::new(pattern.clone(), queries.iter().copied()),
                    weight,
                );
            }
        }
        g
    }

    /// As [`SharonGraph::build`], but over an explicit candidate list
    /// (used after §7.2 signature splitting, where one pattern may appear
    /// with several disjoint query sets).
    pub fn build_from_list(
        workload: &Workload,
        candidates: impl IntoIterator<Item = (Pattern, BTreeSet<QueryId>)>,
        model: &CostModel<'_>,
    ) -> Self {
        let mut g = SharonGraph::default();
        for (pattern, queries) in candidates {
            if queries.len() < 2 {
                continue;
            }
            let weight = model.bvalue(&pattern, &queries);
            if weight > 0.0 {
                g.insert(workload, PlanCandidate::new(pattern, queries), weight);
            }
        }
        g
    }

    /// Build from explicit `(candidate, weight)` pairs — used for the
    /// paper's worked examples where Figure 4 gives the weights directly,
    /// and by the conflict-resolution expansion (Section 7.1).
    pub fn from_weighted(
        workload: &Workload,
        items: impl IntoIterator<Item = (PlanCandidate, f64)>,
    ) -> Self {
        let mut g = SharonGraph::default();
        for (cand, weight) in items {
            g.insert(workload, cand, weight);
        }
        g
    }

    /// Insert a vertex (weight must be positive), wiring conflict edges
    /// against all existing vertices (Lines 4–8 of Algorithm 1).
    pub fn insert(&mut self, workload: &Workload, candidate: PlanCandidate, weight: f64) -> usize {
        debug_assert!(weight > 0.0, "only beneficial candidates enter the graph");
        let v = self.verts.len();
        self.adj.push(BTreeSet::new());
        for (u, existing) in self.verts.iter().enumerate() {
            if in_conflict(workload, &candidate, &existing.candidate) {
                self.adj[u].insert(v);
                self.adj[v].insert(u);
            }
        }
        self.verts.push(GraphVertex { candidate, weight });
        v
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// True when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// The vertex at `v`.
    pub fn vertex(&self, v: usize) -> &GraphVertex {
        &self.verts[v]
    }

    /// All vertices.
    pub fn vertices(&self) -> &[GraphVertex] {
        &self.verts
    }

    /// The conflict neighbours of `v`.
    pub fn neighbors(&self, v: usize) -> &BTreeSet<usize> {
        &self.adj[v]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// True if `(a, b)` is a conflict edge.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj[a].contains(&b)
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(BTreeSet::len).sum::<usize>() / 2
    }

    /// Total vertex weight.
    pub fn total_weight(&self) -> f64 {
        self.verts.iter().map(|v| v.weight).sum()
    }

    /// Find the vertex whose candidate has this pattern and query set.
    pub fn find(&self, pattern: &Pattern, queries: &BTreeSet<QueryId>) -> Option<usize> {
        self.verts
            .iter()
            .position(|v| v.candidate.pattern == *pattern && v.candidate.queries == *queries)
    }

    /// A graph with the given weights and edges, each vertex standing for
    /// a placeholder candidate: the plan finder's tests build shapes (long
    /// paths, cycles) that no small workload produces.
    #[cfg(test)]
    pub(crate) fn from_edges(weights: &[f64], edges: &[(usize, usize)]) -> Self {
        let mut g = SharonGraph::default();
        for (v, &weight) in weights.iter().enumerate() {
            let pattern = Pattern::new(vec![sharon_types::EventTypeId(v as u32)]);
            g.verts.push(GraphVertex {
                candidate: PlanCandidate::new(pattern, [QueryId(0), QueryId(1)]),
                weight,
            });
            g.adj.push(BTreeSet::new());
        }
        for &(a, b) in edges {
            g.adj[a].insert(b);
            g.adj[b].insert(a);
        }
        g
    }

    /// Connected components of the conflict graph, each a sorted vertex
    /// list. Plans of different components never interact, so the plan
    /// finder solves each component independently and the optimal plan is
    /// the union of the components' optimal plans.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let mut seen = vec![false; self.verts.len()];
        let mut out = Vec::new();
        for start in 0..self.verts.len() {
            if seen[start] {
                continue;
            }
            let mut comp = Vec::new();
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(v) = stack.pop() {
                comp.push(v);
                for &n in &self.adj[v] {
                    if !seen[n] {
                        seen[n] = true;
                        stack.push(n);
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp);
        }
        out
    }

    /// The induced subgraph over `keep` (sorted), plus the new→old index
    /// mapping.
    pub fn subgraph(&self, keep: &[usize]) -> (SharonGraph, Vec<usize>) {
        let keep_set: BTreeSet<usize> = keep.iter().copied().collect();
        let remove: BTreeSet<usize> = (0..self.verts.len())
            .filter(|v| !keep_set.contains(v))
            .collect();
        let (g, mapping) = self.remove_vertices(&remove);
        let mut new_to_old = vec![0usize; g.len()];
        for (old, new) in mapping.iter().enumerate() {
            if let Some(n) = new {
                new_to_old[*n] = old;
            }
        }
        (g, new_to_old)
    }

    /// Remove the vertex set `remove`, returning the induced subgraph
    /// (indices are compacted; the mapping old→new is returned).
    pub fn remove_vertices(&self, remove: &BTreeSet<usize>) -> (SharonGraph, Vec<Option<usize>>) {
        let mut mapping = vec![None; self.verts.len()];
        let mut g = SharonGraph::default();
        for (old, vert) in self.verts.iter().enumerate() {
            if !remove.contains(&old) {
                mapping[old] = Some(g.verts.len());
                g.verts.push(vert.clone());
                g.adj.push(BTreeSet::new());
            }
        }
        for (old, ns) in self.adj.iter().enumerate() {
            if let Some(new) = mapping[old] {
                for n in ns {
                    if let Some(nn) = mapping[*n] {
                        g.adj[new].insert(nn);
                    }
                }
            }
        }
        (g, mapping)
    }

    /// Render vertices and edges using `catalog` names (debugging aid).
    pub fn display<'a>(&'a self, catalog: &'a Catalog) -> impl fmt::Display + 'a {
        struct D<'a>(&'a SharonGraph, &'a Catalog);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                for (i, v) in self.0.verts.iter().enumerate() {
                    let queries: Vec<String> =
                        v.candidate.queries.iter().map(|q| q.to_string()).collect();
                    writeln!(
                        f,
                        "v{i}: {} {{{}}} weight={} conflicts={:?}",
                        v.candidate.pattern.display(self.1),
                        queries.join(","),
                        v.weight,
                        self.0.adj[i]
                    )?;
                }
                Ok(())
            }
        }
        D(self, catalog)
    }
}

/// The paper's running example: the Figure 4 graph with its published
/// weights (p1=25, p2=9, p3=12, p4=15, p5=20, p6=8, p7=18), built over the
/// Figure 1 traffic workload. Exposed for tests, docs, and examples.
pub fn figure_4_graph(catalog: &mut Catalog) -> (Workload, SharonGraph) {
    use sharon_query::{AggFunc, Query};
    use sharon_types::WindowSpec;

    let mk = |c: &mut Catalog, names: &[&str]| {
        Query::simple(
            QueryId(0),
            Pattern::from_names(c, names.iter().copied()),
            AggFunc::CountStar,
            WindowSpec::paper_traffic(),
        )
    };
    let workload = Workload::from_queries([
        mk(catalog, &["OakSt", "MainSt", "StateSt"]),
        mk(catalog, &["OakSt", "MainSt", "WestSt"]),
        mk(catalog, &["ParkAve", "OakSt", "MainSt"]),
        mk(catalog, &["ParkAve", "OakSt", "MainSt", "WestSt"]),
        mk(catalog, &["MainSt", "StateSt"]),
        mk(catalog, &["ElmSt", "ParkAve", "BroadSt"]),
        mk(catalog, &["ElmSt", "ParkAve"]),
    ]);
    let qs = |ids: &[u32]| ids.iter().map(|&i| QueryId(i - 1)).collect::<Vec<_>>();
    let cand = |c: &mut Catalog, names: &[&str], ids: &[u32]| {
        PlanCandidate::new(Pattern::from_names(c, names.iter().copied()), qs(ids))
    };
    let items = vec![
        (cand(catalog, &["OakSt", "MainSt"], &[1, 2, 3, 4]), 25.0), // p1
        (cand(catalog, &["ParkAve", "OakSt"], &[3, 4]), 9.0),       // p2
        (
            cand(catalog, &["ParkAve", "OakSt", "MainSt"], &[3, 4]),
            12.0,
        ), // p3
        (cand(catalog, &["MainSt", "WestSt"], &[2, 4]), 15.0),      // p4
        (cand(catalog, &["OakSt", "MainSt", "WestSt"], &[2, 4]), 20.0), // p5
        (cand(catalog, &["MainSt", "StateSt"], &[1, 5]), 8.0),      // p6
        (cand(catalog, &["ElmSt", "ParkAve"], &[6, 7]), 18.0),      // p7
    ];
    let graph = SharonGraph::from_weighted(&workload, items);
    (workload, graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 4 graph: verify the exact degree sequence implied by
    /// Example 7's guaranteed-weight computation
    /// (25/6 + 9/4 + 12/5 + 15/4 + 20/5 + 8/2 + 18/1).
    #[test]
    fn figure_4_degrees() {
        let mut c = Catalog::new();
        let (_, g) = figure_4_graph(&mut c);
        assert_eq!(g.len(), 7);
        let degrees: Vec<usize> = (0..7).map(|v| g.degree(v)).collect();
        assert_eq!(degrees, vec![5, 3, 4, 3, 4, 1, 0]);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.total_weight(), 107.0);
    }

    #[test]
    fn figure_4_specific_edges() {
        let mut c = Catalog::new();
        let (_, g) = figure_4_graph(&mut c);
        // p2 and p4 do not overlap (Example 5): no edge
        assert!(!g.has_edge(1, 3));
        // p1 conflicts with everything except p7
        for u in 1..6 {
            assert!(g.has_edge(0, u), "p1 ~ p{}", u + 1);
        }
        assert!(!g.has_edge(0, 6));
        // p6 conflicts only with p1 (overlap at MainSt in q1)
        assert_eq!(g.neighbors(5), &BTreeSet::from([0]));
        // p7 is conflict-free (Example 8)
        assert_eq!(g.degree(6), 0);
    }

    #[test]
    fn conflict_requires_common_query() {
        let mut c = Catalog::new();
        let (w, _) = figure_4_graph(&mut c);
        // same overlapping patterns but disjoint query sets: no conflict
        let p1 = PlanCandidate::new(
            Pattern::from_names(&mut c, ["OakSt", "MainSt"]),
            [QueryId(0), QueryId(1)],
        );
        let p2 = PlanCandidate::new(
            Pattern::from_names(&mut c, ["ParkAve", "OakSt"]),
            [QueryId(2), QueryId(3)],
        );
        assert!(!in_conflict(&w, &p1, &p2));
        // Example 13: option (p1, {q1, q3}) IS in conflict with p2 via q3
        let p1_opt = PlanCandidate::new(
            Pattern::from_names(&mut c, ["OakSt", "MainSt"]),
            [QueryId(0), QueryId(2)],
        );
        assert!(in_conflict(&w, &p1_opt, &p2));
    }

    #[test]
    fn containment_is_a_conflict() {
        let mut c = Catalog::new();
        let (w, _) = figure_4_graph(&mut c);
        let p1 = PlanCandidate::new(
            Pattern::from_names(&mut c, ["OakSt", "MainSt"]),
            [QueryId(2), QueryId(3)],
        );
        let p3 = PlanCandidate::new(
            Pattern::from_names(&mut c, ["ParkAve", "OakSt", "MainSt"]),
            [QueryId(2), QueryId(3)],
        );
        assert!(in_conflict(&w, &p1, &p3), "p1 is contained in p3");
    }

    #[test]
    fn remove_vertices_compacts_and_rewires() {
        let mut c = Catalog::new();
        let (_, g) = figure_4_graph(&mut c);
        let (g2, mapping) = g.remove_vertices(&BTreeSet::from([0, 2]));
        assert_eq!(g2.len(), 5);
        assert_eq!(mapping[0], None);
        assert_eq!(mapping[1], Some(0));
        // p2 (now index 0) keeps its conflict with p5 (old 4 -> new 2)
        assert!(g2.has_edge(0, 2));
        // p6 lost its only conflict (p1): now conflict-free
        let p6_new = mapping[5].unwrap();
        assert_eq!(g2.degree(p6_new), 0);
    }

    #[test]
    fn build_prunes_non_beneficial_candidates() {
        use crate::cost::RateMap;
        use crate::mining::mine_sharable_patterns;
        let mut c = Catalog::new();
        let (w, _) = figure_4_graph(&mut c);
        let mined = mine_sharable_patterns(&w);
        let rates = RateMap::uniform(10.0);
        let model = CostModel::new(&w, &rates);
        let g = SharonGraph::build(&w, &mined, &model);
        // every inserted vertex is beneficial
        for v in g.vertices() {
            assert!(v.weight > 0.0);
            assert!(v.candidate.queries.len() > 1);
        }
        // and non-beneficial ones are absent: verify against the model
        for (p, qs) in &mined {
            let present = g.find(p, qs).is_some();
            assert_eq!(present, model.bvalue(p, qs) > 0.0);
        }
    }

    #[test]
    fn find_locates_vertices() {
        let mut c = Catalog::new();
        let (_, g) = figure_4_graph(&mut c);
        let p7 = Pattern::from_names(&mut c, ["ElmSt", "ParkAve"]);
        let qs: BTreeSet<QueryId> = [QueryId(5), QueryId(6)].into_iter().collect();
        assert_eq!(g.find(&p7, &qs), Some(6));
        let missing: BTreeSet<QueryId> = [QueryId(0)].into_iter().collect();
        assert_eq!(g.find(&p7, &missing), None);
    }

    #[test]
    fn display_renders() {
        let mut c = Catalog::new();
        let (_, g) = figure_4_graph(&mut c);
        let s = g.display(&c).to_string();
        assert!(s.contains("(OakSt, MainSt)"));
        assert!(s.contains("weight=25"));
    }
}
