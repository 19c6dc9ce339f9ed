//! Event sequence aggregation queries.
//!
//! Definition 2: a query consists of a `RETURN` clause (aggregation), a
//! `PATTERN` clause, optional `WHERE` predicates, optional `GROUP BY`
//! attributes, and a `WITHIN`/`SLIDE` window.

use crate::aggregate::AggFunc;
use crate::pattern::Pattern;
use crate::predicate::Predicate;
use sharon_types::{Catalog, EventTypeId, WindowSpec};
use std::fmt;

/// Identifier of a query within a [`crate::Workload`] (its index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct QueryId(pub u32);

impl QueryId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0 + 1) // the paper numbers queries from q1
    }
}

/// An event sequence aggregation query (Definition 2).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Identifier within the workload.
    pub id: QueryId,
    /// The `PATTERN SEQ(...)` clause.
    pub pattern: Pattern,
    /// The `RETURN` clause.
    pub agg: AggFunc,
    /// The `WHERE` clause (conjunction; empty = no predicates).
    pub predicates: Vec<Predicate>,
    /// The `GROUP BY` clause (attribute names; empty = one global group).
    pub group_by: Vec<String>,
    /// The `WITHIN`/`SLIDE` clause.
    pub window: WindowSpec,
}

impl Query {
    /// Build a query with no predicates and no grouping.
    pub fn simple(id: QueryId, pattern: Pattern, agg: AggFunc, window: WindowSpec) -> Self {
        Query {
            id,
            pattern,
            agg,
            predicates: Vec::new(),
            group_by: Vec::new(),
            window,
        }
    }

    /// Add a grouping attribute (builder style).
    pub fn group_by(mut self, attr: impl Into<String>) -> Self {
        self.group_by.push(attr.into());
        self
    }

    /// The *sharing signature* of the query: queries may share pattern
    /// aggregation only if their predicates, grouping, and windows coincide
    /// and they aggregate compatibly (assumption (2) / §7.2). Two queries
    /// with equal signatures are shard-compatible. The predicates are a
    /// conjunction, so their order and repeats do not count; grouping
    /// order does, because it fixes the group key layout.
    pub fn sharing_signature(&self) -> SharingSignature {
        let mut predicates: Vec<String> =
            self.predicates.iter().map(|p| format!("{:?}", p)).collect();
        predicates.sort_unstable();
        predicates.dedup();
        SharingSignature {
            window: self.window,
            group_by: self.group_by.clone(),
            predicates,
            agg_target: self.agg.target_type().map(|t| t.0),
            agg_attr: self.agg.target_attr().map(str::to_owned),
            count_like: self.agg.is_count_like(),
        }
    }

    /// Render the query in its surface syntax using `catalog` names.
    pub fn display<'a>(&'a self, catalog: &'a Catalog) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Query, &'a Catalog);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let q = self.0;
                write!(f, "RETURN {} PATTERN SEQ", q.agg.display(self.1))?;
                write!(f, "{}", q.pattern.display(self.1))?;
                if !q.predicates.is_empty() {
                    write!(f, " WHERE ")?;
                    for (i, p) in q.predicates.iter().enumerate() {
                        if i > 0 {
                            write!(f, " AND ")?;
                        }
                        write!(f, "{}", p.display(self.1))?;
                    }
                }
                if !q.group_by.is_empty() {
                    write!(f, " GROUP BY {}", q.group_by.join(", "))?;
                }
                write!(f, " {}", q.window)
            }
        }
        D(self, catalog)
    }
}

/// Full semantic identity of a query, independent of its [`QueryId`].
///
/// Two queries with equal `QuerySig`s compute the *same answer* on every
/// stream: same pattern type sequence, same aggregate, and the same
/// [`SharingSignature`] (window, grouping, predicates). A live session
/// uses this as the **attach fast-path key**: attaching a query whose
/// `QuerySig` matches one already running joins the existing computation
/// as an alias instead of compiling a new plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QuerySig {
    pattern: Vec<EventTypeId>,
    agg: AggFunc,
    sharing: SharingSignature,
}

impl QuerySig {
    /// The semantic identity of `query`.
    pub fn of(query: &Query) -> Self {
        QuerySig {
            pattern: query.pattern.types().to_vec(),
            agg: query.agg.clone(),
            sharing: query.sharing_signature(),
        }
    }
}

/// Equality witness for shard compatibility (see
/// [`Query::sharing_signature`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SharingSignature {
    window: WindowSpec,
    group_by: Vec<String>,
    predicates: Vec<String>,
    agg_target: Option<u32>,
    agg_attr: Option<String>,
    count_like: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use sharon_types::{TimeDelta, Value};

    fn mk(catalog: &mut Catalog) -> Query {
        let pattern = Pattern::from_names(catalog, ["OakSt", "MainSt"]);
        Query::simple(
            QueryId(0),
            pattern,
            AggFunc::CountStar,
            WindowSpec::paper_traffic(),
        )
        .group_by("vehicle")
    }

    #[test]
    fn display_round_trip_shape() {
        let mut c = Catalog::new();
        let q = mk(&mut c);
        assert_eq!(
            q.display(&c).to_string(),
            "RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt) GROUP BY vehicle WITHIN 10min SLIDE 1min"
        );
    }

    #[test]
    fn display_with_predicates() {
        let mut c = Catalog::new();
        let q = mk(&mut c);
        let oak = c.lookup("OakSt").unwrap();
        let mut q = q;
        q.predicates
            .push(Predicate::new(oak, "speed", CmpOp::Gt, Value::Int(10)));
        let s = q.display(&c).to_string();
        assert!(s.contains("WHERE OakSt.speed > 10"), "{s}");
    }

    #[test]
    fn sharing_signatures_distinguish_window_and_grouping() {
        let mut c = Catalog::new();
        let a = mk(&mut c);
        let mut b = mk(&mut c);
        assert_eq!(a.sharing_signature(), b.sharing_signature());
        b.window = WindowSpec::tumbling(TimeDelta::from_mins(5));
        assert_ne!(a.sharing_signature(), b.sharing_signature());
        let mut d = mk(&mut c);
        d.group_by.clear();
        assert_ne!(a.sharing_signature(), d.sharing_signature());
    }

    #[test]
    fn count_star_and_count_e_are_shard_compatible_only_with_counts() {
        let mut c = Catalog::new();
        let a = mk(&mut c);
        let mut b = mk(&mut c);
        b.agg = AggFunc::Count(c.lookup("OakSt").unwrap());
        // both count-like with different targets: COUNT aggregates are
        // jointly executable by the count kernel, but the signature keeps
        // the target so the executor can discriminate outputs.
        assert_ne!(a.sharing_signature(), b.sharing_signature());
        let mut e = mk(&mut c);
        e.agg = AggFunc::Sum(c.lookup("OakSt").unwrap(), "speed".into());
        assert_ne!(a.sharing_signature(), e.sharing_signature());
    }

    #[test]
    fn query_sig_ignores_id_but_not_pattern() {
        let mut c = Catalog::new();
        let a = mk(&mut c);
        let mut b = mk(&mut c);
        b.id = QueryId(7);
        assert_eq!(QuerySig::of(&a), QuerySig::of(&b));
        let mut d = mk(&mut c);
        d.pattern = Pattern::from_names(&mut c, ["MainSt", "OakSt"]);
        assert_ne!(QuerySig::of(&a), QuerySig::of(&d));
        let mut e = mk(&mut c);
        e.agg = AggFunc::Count(c.lookup("OakSt").unwrap());
        assert_ne!(QuerySig::of(&a), QuerySig::of(&e));
    }

    #[test]
    fn query_id_display_is_one_based() {
        assert_eq!(QueryId(0).to_string(), "q1");
        assert_eq!(QueryId(6).to_string(), "q7");
        assert_eq!(QueryId(3).index(), 3);
    }
}
