//! Multi-query workloads.
//!
//! "An event consumer (e.g., carpool system) monitors the stream with a
//! workload of queries that detect and aggregate event sequences"
//! (Section 2.1). [`QueryId`]s are indexes into the workload.

use crate::query::{Query, QueryId};

/// An ordered collection of queries evaluated against one stream.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    queries: Vec<Query>,
}

impl Workload {
    /// An empty workload.
    pub fn new() -> Self {
        Workload {
            queries: Vec::new(),
        }
    }

    /// Build from queries; each query's `id` is rewritten to its index.
    pub fn from_queries(queries: impl IntoIterator<Item = Query>) -> Self {
        let mut w = Workload::new();
        for q in queries {
            w.push(q);
        }
        w
    }

    /// Append a query, assigning it the next [`QueryId`]. Returns the id.
    pub fn push(&mut self, mut query: Query) -> QueryId {
        let id = QueryId(self.queries.len() as u32);
        query.id = id;
        self.queries.push(query);
        id
    }

    /// Remove the query with `id` and renumber the remainder (used by the
    /// dynamic-workload extension, §7.4). Returns the removed query.
    pub fn remove(&mut self, id: QueryId) -> Query {
        let q = self.queries.remove(id.index());
        for (i, query) in self.queries.iter_mut().enumerate() {
            query.id = QueryId(i as u32);
        }
        q
    }

    /// Keep only the queries for which `keep` returns true, then renumber
    /// the remainder to index order (the bulk form of [`Workload::remove`],
    /// used when a live session rebuilds its shared workload after churn).
    /// The predicate sees each query with its **pre-retain** id.
    pub fn retain(&mut self, mut keep: impl FnMut(&Query) -> bool) {
        self.queries.retain(|q| keep(q));
        for (i, query) in self.queries.iter_mut().enumerate() {
            query.id = QueryId(i as u32);
        }
    }

    /// The query with `id`.
    pub fn get(&self, id: QueryId) -> &Query {
        &self.queries[id.index()]
    }

    /// All queries, in id order.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if the workload has no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Iterate over query ids.
    pub fn ids(&self) -> impl Iterator<Item = QueryId> + '_ {
        (0..self.queries.len() as u32).map(QueryId)
    }
}

impl std::ops::Index<QueryId> for Workload {
    type Output = Query;
    fn index(&self, id: QueryId) -> &Query {
        self.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunc;
    use crate::pattern::Pattern;
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

    #[test]
    fn push_assigns_sequential_ids() {
        let mut c = Catalog::new();
        let w = workload(&mut c, &[&["A", "B"], &["B", "C"]]);
        assert_eq!(w.len(), 2);
        assert_eq!(w.get(QueryId(0)).id, QueryId(0));
        assert_eq!(w.get(QueryId(1)).id, QueryId(1));
        assert_eq!(w.ids().collect::<Vec<_>>(), vec![QueryId(0), QueryId(1)]);
        assert_eq!(w[QueryId(1)].pattern.len(), 2);
    }

    #[test]
    fn remove_renumbers() {
        let mut c = Catalog::new();
        let mut w = workload(&mut c, &[&["A", "B"], &["B", "C"], &["C", "D"]]);
        let removed = w.remove(QueryId(1));
        assert_eq!(removed.pattern.display(&c).to_string(), "(B, C)");
        assert_eq!(w.len(), 2);
        assert_eq!(w.get(QueryId(1)).pattern.display(&c).to_string(), "(C, D)");
        assert_eq!(w.get(QueryId(1)).id, QueryId(1));
    }

    #[test]
    fn retain_renumbers_like_repeated_remove() {
        let mut c = Catalog::new();
        let mut w = workload(
            &mut c,
            &[&["A", "B"], &["B", "C"], &["C", "D"], &["D", "A"]],
        );
        // drop q2 and q4 (ids 1 and 3, as seen pre-retain)
        w.retain(|q| q.id.index() % 2 == 0);
        assert_eq!(w.len(), 2);
        assert_eq!(w.get(QueryId(0)).pattern.display(&c).to_string(), "(A, B)");
        assert_eq!(w.get(QueryId(1)).pattern.display(&c).to_string(), "(C, D)");
        assert_eq!(w.get(QueryId(1)).id, QueryId(1));
    }

    #[test]
    fn empty_workload() {
        let w = Workload::new();
        assert!(w.is_empty());
        assert_eq!(w.queries().len(), 0);
    }
}
