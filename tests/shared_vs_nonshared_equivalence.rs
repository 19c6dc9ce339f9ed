//! Property-based equivalence: for arbitrary workloads, streams, and
//! optimizer-produced sharing plans, the Shared executor (Section 3.3)
//! computes exactly the results of the Non-Shared method (Section 3.2).
//!
//! This is the core correctness claim of the Sharon executor: sharing is
//! a pure optimization, never a semantics change.

use proptest::prelude::{
    any, prop, prop_assume, proptest, Just, ProptestConfig, Strategy, TestCaseError,
};
use sharon::prelude::*;
use std::collections::BTreeSet;

#[path = "support.rs"]
mod support;

/// A randomly shaped workload: contiguous runs over a circular alphabet,
/// so overlapping patterns (and thus sharing candidates and conflicts)
/// are common.
#[derive(Debug, Clone)]
struct Shape {
    n_types: usize,
    // (offset, len) per query
    queries: Vec<(usize, usize)>,
    within: u64,
    slide: u64,
    group: bool,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (4usize..=8, 1u64..=20, 1u64..=4, any::<bool>())
        .prop_flat_map(|(n_types, within_x, slide, group)| {
            let within = within_x.max(slide) * slide; // within multiple-ish of slide not required; ensure within >= slide
            let q = (0..n_types, 1usize..=n_types.min(4));
            (
                Just(n_types),
                prop::collection::vec(q, 2..=5),
                Just(within),
                Just(slide),
                Just(group),
            )
        })
        .prop_map(|(n_types, queries, within, slide, group)| Shape {
            n_types,
            queries,
            within,
            slide,
            group,
        })
}

fn build(shape: &Shape, agg: &str) -> (Catalog, Workload) {
    let mut c = Catalog::new();
    // register all types with group/value attributes
    for i in 0..shape.n_types {
        c.register_with_schema(&format!("T{i}"), Schema::new(["g", "v"]));
    }
    let mut w = Workload::new();
    for &(offset, len) in &shape.queries {
        let names: Vec<String> = (0..len)
            .map(|i| format!("T{}", (offset + i) % shape.n_types))
            .collect();
        let agg_clause = match agg {
            "count" => "COUNT(*)".to_string(),
            other => format!("{}({}.v)", other, names[len / 2]),
        };
        let group_clause = if shape.group { " GROUP BY g" } else { "" };
        let src = format!(
            "RETURN {agg_clause} PATTERN SEQ({}){group_clause} WITHIN {} ms SLIDE {} ms",
            names.join(", "),
            shape.within,
            shape.slide
        );
        w.push(parse_query(&mut c, &src).expect("generated query parses"));
    }
    (c, w)
}

fn materialize(c: &Catalog, raw: &[(usize, u64, i64, i64)]) -> Vec<Event> {
    let mut t = 0u64;
    raw.iter()
        .map(|&(ty, dt, g, v)| {
            t += dt;
            Event::with_attrs(
                c.lookup(&format!("T{ty}")).unwrap(),
                Timestamp(t),
                vec![Value::Int(g), Value::Int(v)],
            )
        })
        .collect()
}

/// A case whose reference has no row of some query is rejected: it could
/// not tell a shared plan that drops that query's rows from a right one.
fn check_equivalence(
    shape: Shape,
    raw: Vec<(usize, u64, i64, i64)>,
    agg: &str,
) -> Result<(), TestCaseError> {
    let (c, w) = build(&shape, agg);
    let batch = EventBatch::from_events(&materialize(&c, &raw));

    // reference: the Non-Shared method
    let mut nonshared = Executor::non_shared(&c, &w).unwrap();
    nonshared.process_columnar(&batch);
    let reference = nonshared.finish();
    prop_assume!(support::has_rows_of_each(&reference, w.ids()));

    // the Sharon optimizer's plan (with conflict resolution)
    let rates = RateMap::uniform(50.0);
    let outcome = optimize_sharon(&w, &rates, &OptimizerConfig::default());
    outcome.plan.validate(&w).unwrap();
    let mut shared = Executor::new(&c, &w, &outcome.plan).unwrap();
    shared.process_columnar(&batch);
    let got = shared.finish();
    assert_matches(&got, &reference, &w, "sharon plan");

    // the greedy plan too
    let greedy = optimize_greedy(&w, &rates);
    let mut gex = Executor::new(&c, &w, &greedy.plan).unwrap();
    gex.process_columnar(&batch);
    let got = gex.finish();
    assert_matches(&got, &reference, &w, "greedy plan");

    // and a maximal hand-built plan: every mined candidate that fits
    // without conflicts, greedily (restricted to signature-compatible
    // query groups, since sharing requires identical clauses)
    let mined = sharon::optimizer::mining::mine_sharable_patterns(&w);
    let mut chosen: Vec<PlanCandidate> = Vec::new();
    for (p, qs) in &mined {
        let sig0 = w.get(*qs.iter().next().unwrap()).sharing_signature();
        let compatible: Vec<QueryId> = qs
            .iter()
            .copied()
            .filter(|q| w.get(*q).sharing_signature() == sig0)
            .collect();
        if compatible.len() < 2 {
            continue;
        }
        let cand = PlanCandidate::new(p.clone(), compatible);
        let conflict = chosen
            .iter()
            .any(|other| sharon::optimizer::graph::in_conflict(&w, &cand, other));
        if !conflict {
            chosen.push(cand);
        }
    }
    let plan = SharingPlan::new(chosen);
    if plan.validate(&w).is_ok() {
        let mut ex = Executor::new(&c, &w, &plan).unwrap();
        ex.process_columnar(&batch);
        let got = ex.finish();
        assert_matches(&got, &reference, &w, "maximal plan");
    }
    Ok(())
}

fn assert_matches(got: &ExecutorResults, want: &ExecutorResults, w: &Workload, label: &str) {
    support::assert_equivalent(
        got,
        want,
        w.ids(),
        1e-9,
        format_args!(
            "{label}:\n got[q1]={:?}\nwant[q1]={:?}",
            got.of_query_sorted(QueryId(0)),
            want.of_query_sorted(QueryId(0)),
        ),
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn count_star_equivalence(
        shape in shape_strategy(),
        raw in prop::collection::vec((0usize..8, 0u64..=2, 0i64..=1, 0i64..=9), 0..=60),
    ) {
        let raw: Vec<_> = raw.into_iter()
            .map(|(ty, dt, g, v)| (ty % shape.n_types, dt, g, v))
            .collect();
        check_equivalence(shape, raw, "count")?;
    }

    #[test]
    fn sum_equivalence(
        shape in shape_strategy(),
        raw in prop::collection::vec((0usize..8, 0u64..=2, 0i64..=1, 0i64..=9), 0..=50),
    ) {
        let raw: Vec<_> = raw.into_iter()
            .map(|(ty, dt, g, v)| (ty % shape.n_types, dt, g, v))
            .collect();
        check_equivalence(shape, raw, "SUM")?;
    }

    #[test]
    fn min_max_avg_equivalence(
        shape in shape_strategy(),
        raw in prop::collection::vec((0usize..8, 0u64..=2, 0i64..=1, 0i64..=9), 0..=40),
        which in 0usize..3,
    ) {
        let raw: Vec<_> = raw.into_iter()
            .map(|(ty, dt, g, v)| (ty % shape.n_types, dt, g, v))
            .collect();
        check_equivalence(shape, raw, ["MIN", "MAX", "AVG"][which])?;
    }
}

/// Deterministic regression cases distilled from early proptest failures
/// and paper edge cases.
#[test]
fn regression_same_timestamp_chain_through_shared_boundary() {
    let mut c = Catalog::new();
    let w = parse_workload(
        &mut c,
        [
            "RETURN COUNT(*) PATTERN SEQ(X, A, B) WITHIN 10 ms SLIDE 2 ms",
            "RETURN COUNT(*) PATTERN SEQ(Y, A, B) WITHIN 10 ms SLIDE 2 ms",
        ],
    )
    .unwrap();
    let t = |n: &str| c.lookup(n).unwrap();
    // X and A share a timestamp: (x5, a5, ...) must not match; neither
    // may (y5, a5, ...) of the second query
    let events: Vec<Event> = [
        (t("X"), 5u64),
        (t("A"), 5),
        (t("Y"), 5),
        (t("B"), 6),
        (t("X"), 6),
        (t("A"), 7),
        (t("B"), 8),
    ]
    .into_iter()
    .map(|(ty, ts)| Event::new(ty, Timestamp(ts)))
    .collect();
    let ab = Pattern::from_names(&mut c, ["A", "B"]);
    let plan = SharingPlan::new([PlanCandidate::new(ab, [QueryId(0), QueryId(1)])]);
    let batch = EventBatch::from_events(&events);
    let mut shared = Executor::new(&c, &w, &plan).unwrap();
    let mut nonshared = Executor::non_shared(&c, &w).unwrap();
    shared.process_columnar(&batch);
    nonshared.process_columnar(&batch);
    let sr = shared.finish();
    let nr = nonshared.finish();
    support::assert_equivalent(&sr, &nr, w.ids(), 1e-9, "shared vs non-shared");
    // x5 < a7 < b8 and x6 < a7 < b8 are the only full q1 matches
    // (x5/a5 share a timestamp and cannot chain). Windows starting at
    // 0, 2, 4 contain both matches; the window starting at 6 contains
    // only (x6, a7, b8).
    let q1: Vec<(GroupKey, Timestamp, sharon::query::aggregate::AggValue)> =
        sr.of_query_sorted(QueryId(0));
    let counts: Vec<(u64, u128)> = q1
        .iter()
        .map(|(_, w, v)| (w.millis(), v.as_count().unwrap()))
        .collect();
    assert_eq!(counts, vec![(0, 2), (2, 2), (4, 2), (6, 1)]);
    let _ = BTreeSet::from([0u8]);
}
