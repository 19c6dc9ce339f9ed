//! Integration tests for the Section 7 extensions:
//!
//! * §7.3 — multiple occurrences of an event type in a pattern: the online
//!   engine's per-position routing must agree with brute-force sequence
//!   enumeration (the two-step baseline);
//! * §7.2 — mixed predicates/grouping/windows in one workload: partitioned
//!   execution, sharing only within compatibility classes;
//! * dynamic workload changes — adding/removing queries and replanning.

use proptest::prelude::{prop, prop_assume, proptest, ProptestConfig};
use sharon::prelude::*;
use sharon::twostep::FlinkLike;

#[path = "support.rs"]
mod support;

fn ev(c: &Catalog, name: &str, t: u64) -> Event {
    Event::new(c.lookup(name).unwrap(), Timestamp(t))
}

/// Feed `(type name, time)` rows to `ex` as one columnar batch.
fn feed(ex: &mut Executor, c: &Catalog, rows: &[(&str, u64)]) {
    let events: Vec<Event> = rows.iter().map(|&(n, t)| ev(c, n, t)).collect();
    ex.process_columnar(&EventBatch::from_events(&events));
}

/// §7.3: a pattern with a repeated type, checked by hand.
/// Pattern (A, B, A): events a1 b2 a3 a4 b5 a6 in one window.
/// Matches: (a1,b2,a3), (a1,b2,a4), (a1,b2,a6), (a3,b5,a6), (a4,b5,a6),
/// (a1,b5,a6) = 6.
#[test]
fn repeated_type_pattern_by_hand() {
    let mut c = Catalog::new();
    let w = parse_workload(
        &mut c,
        ["RETURN COUNT(*) PATTERN SEQ(A, B, A) WITHIN 100 ms SLIDE 100 ms"],
    )
    .unwrap();
    let mut ex = Executor::non_shared(&c, &w).unwrap();
    feed(
        &mut ex,
        &c,
        &[("A", 1), ("B", 2), ("A", 3), ("A", 4), ("B", 5), ("A", 6)],
    );
    let res = ex.finish();
    assert_eq!(res.total_count(QueryId(0)), 6);
}

/// §7.3: COUNT(E) with k occurrences returns k × COUNT(*).
#[test]
fn count_e_with_repeated_type() {
    let mut c = Catalog::new();
    let w = parse_workload(
        &mut c,
        [
            "RETURN COUNT(*) PATTERN SEQ(A, B, A) WITHIN 100 ms SLIDE 100 ms",
            "RETURN COUNT(A) PATTERN SEQ(A, B, A) WITHIN 100 ms SLIDE 100 ms",
        ],
    )
    .unwrap();
    let mut ex = Executor::non_shared(&c, &w).unwrap();
    feed(&mut ex, &c, &[("A", 1), ("B", 2), ("A", 3)]);
    let res = ex.finish();
    assert_eq!(res.total_count(QueryId(0)), 1);
    assert_eq!(res.total_count(QueryId(1)), 2, "two A events per sequence");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// §7.3 equivalence: online executor vs brute-force enumeration on
    /// random patterns that may repeat types.
    #[test]
    fn repeated_type_patterns_match_brute_force(
        pattern in prop::collection::vec(0usize..3, 2..=4),
        raw in prop::collection::vec((0usize..3, 0u64..=2), 0..=30),
        within_x in 1u64..=5,
    ) {
        let mut c = Catalog::new();
        for i in 0..3 {
            c.register(&format!("T{i}"));
        }
        let names: Vec<String> = pattern.iter().map(|i| format!("T{i}")).collect();
        let src = format!(
            "RETURN COUNT(*) PATTERN SEQ({}) WITHIN {} ms SLIDE 1 ms",
            names.join(", "),
            within_x * 2
        );
        let w = Workload::from_queries([parse_query(&mut c, &src).unwrap()]);
        let mut t = 0u64;
        let events: Vec<Event> = raw
            .into_iter()
            .map(|(ty, dt)| {
                t += dt;
                Event::new(c.lookup(&format!("T{ty}")).unwrap(), Timestamp(t))
            })
            .collect();
        let batch = EventBatch::from_events(&events);
        let mut online = Executor::non_shared(&c, &w).unwrap();
        let mut brute = FlinkLike::new(&c, &w).unwrap();
        online.process_columnar(&batch);
        brute.process_columnar(&batch);
        let or = online.finish();
        let br = brute.finish();
        prop_assume!(support::has_rows_of_each(&br, w.ids()));
        support::assert_equivalent(&or, &br, w.ids(), format_args!(
            "online {:?}\nbrute {:?}",
            or.of_query_sorted(QueryId(0)),
            br.of_query_sorted(QueryId(0))
        ));
    }
}

/// §7.2: one workload mixing windows, groupings, and aggregate kinds runs
/// in one executor and still matches per-query independent runs.
#[test]
fn mixed_clause_workload_partitions_correctly() {
    let mut c = Catalog::new();
    for n in ["A", "B", "C"] {
        c.register_with_schema(n, Schema::new(["g", "v"]));
    }
    let sources = [
        "RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 ms SLIDE 2 ms",
        "RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 6 ms SLIDE 3 ms",
        "RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY g WITHIN 10 ms SLIDE 2 ms",
        "RETURN SUM(B.v) PATTERN SEQ(A, B) WITHIN 10 ms SLIDE 2 ms",
        "RETURN COUNT(*) PATTERN SEQ(A, B) WHERE A.v > 3 WITHIN 10 ms SLIDE 2 ms",
        "RETURN COUNT(*) PATTERN SEQ(A, B, C) WITHIN 10 ms SLIDE 2 ms",
    ];
    let w = parse_workload(&mut c, sources).unwrap();
    let mk = |c: &Catalog, n: &str, t: u64, g: i64, v: i64| {
        Event::with_attrs(
            c.lookup(n).unwrap(),
            Timestamp(t),
            vec![Value::Int(g), Value::Int(v)],
        )
    };
    let events: Vec<Event> = vec![
        mk(&c, "A", 1, 0, 5),
        mk(&c, "A", 2, 1, 2),
        mk(&c, "B", 3, 0, 10),
        mk(&c, "C", 4, 0, 1),
        mk(&c, "A", 6, 1, 7),
        mk(&c, "B", 8, 1, 4),
        mk(&c, "C", 11, 0, 2),
        mk(&c, "B", 12, 0, 6),
    ];

    // all six together under the Sharon plan
    let rates = RateMap::uniform(50.0);
    let outcome = optimize_sharon(&w, &rates, &OptimizerConfig::default());
    let batch = EventBatch::from_events(&events);
    let mut together = Executor::new(&c, &w, &outcome.plan).unwrap();
    together.process_columnar(&batch);
    let got = together.finish();

    // each query alone
    for q in w.queries() {
        let solo_w = Workload::from_queries([q.clone()]);
        let mut solo = Executor::non_shared(&c, &solo_w).unwrap();
        solo.process_columnar(&batch);
        let want = solo.finish();
        for (g, wstart, v) in want.of_query(QueryId(0)) {
            assert_eq!(
                got.get(q.id, g, wstart),
                Some(v),
                "query {} window {wstart} group {g}",
                q.id
            );
        }
        assert_eq!(
            got.of_query(q.id).count(),
            want.of_query(QueryId(0)).count(),
            "query {} result count",
            q.id
        );
    }
}

/// Dynamic workload edits (§7.4): removing a query renumbers the workload
/// and replanning still validates.
#[test]
fn workload_edit_and_replan() {
    let mut c = Catalog::new();
    let mut w = parse_workload(
        &mut c,
        [
            "RETURN COUNT(*) PATTERN SEQ(A, B, C, D, X) WITHIN 10 s SLIDE 1 s",
            "RETURN COUNT(*) PATTERN SEQ(A, B, C, D, Y) WITHIN 10 s SLIDE 1 s",
            "RETURN COUNT(*) PATTERN SEQ(A, B, C, D, Z) WITHIN 10 s SLIDE 1 s",
        ],
    )
    .unwrap();
    let rates = RateMap::uniform(100.0);
    let before = optimize_sharon(&w, &rates, &OptimizerConfig::default());
    assert!(!before.plan.is_empty());

    let removed = w.remove(QueryId(1));
    assert_eq!(removed.pattern.len(), 5);
    let after = optimize_sharon(&w, &rates, &OptimizerConfig::default());
    after.plan.validate(&w).unwrap();
    // the (A,B,C,D) family is still shared by the two remaining queries
    assert!(after
        .plan
        .candidates
        .iter()
        .any(|cand| cand.queries.len() == 2));
    // and the new plan compiles against the edited workload
    Executor::new(&c, &w, &after.plan).unwrap();
}

/// Stress: a long stream with window gaps (idle periods) neither leaks
/// state nor drops results around the gaps.
#[test]
fn window_gaps_are_handled() {
    let mut c = Catalog::new();
    let w = parse_workload(
        &mut c,
        ["RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 ms SLIDE 5 ms"],
    )
    .unwrap();
    let mut ex = Executor::non_shared(&c, &w).unwrap();
    // burst, long silence, burst
    feed(&mut ex, &c, &[("A", 1), ("B", 2)]);
    feed(&mut ex, &c, &[("A", 1_000_001), ("B", 1_000_002)]);
    assert!(ex.cell_count() < 100, "state must not accumulate over gaps");
    let res = ex.finish();
    // burst 1: only window [0,10) holds (a1,b2); burst 2: windows starting
    // at 999995 and 1000000 both hold (a,b)
    assert_eq!(res.total_count(QueryId(0)), 1 + 2);
}

/// The same gap with a 3-type runner whose middle type never arrives: its
/// records complete nothing and only expiry removes them. The state size
/// counts live record cells and open window cells only — also when the
/// first row after the gap plays no role in that runner, so nothing but
/// the per-slide maintenance can have expired it.
#[test]
fn starts_that_never_complete_expire_over_gaps() {
    let mut c = Catalog::new();
    let w = parse_workload(
        &mut c,
        [
            "RETURN COUNT(*) PATTERN SEQ(A, B, C) WITHIN 10 ms SLIDE 5 ms",
            "RETURN COUNT(*) PATTERN SEQ(X, Y) WITHIN 10 ms SLIDE 5 ms",
        ],
    )
    .unwrap();
    let mut ex = Executor::non_shared(&c, &w).unwrap();
    let burst: Vec<(&str, u64)> = (1..=50).map(|t| ("A", t)).collect();
    feed(&mut ex, &c, &burst);
    // the STARTs of a 5 ms slide share one record, which expires with its
    // first START. At t = 50 the dead bound is 50 + 1 − 10 = 41: the
    // record of slide 40 (first START 40) has expired — its later STARTs
    // 41..44 sit only in windows starting at or before 40, all closed —
    // while the records of slides 45 and 50 remain: 2 × 2 prefix cells
    assert_eq!(ex.cell_count(), 4, "dead records must not be counted");
    feed(&mut ex, &c, &[("X", 1_000_000)]);
    assert_eq!(ex.cell_count(), 1, "only the X that ended the gap is alive");
    feed(&mut ex, &c, &[("C", 1_000_001), ("Y", 1_000_002)]);
    // (x, y) sits in the windows starting at 999995 and 1000000
    assert_eq!(ex.cell_count(), 1 + 2);
    let res = ex.finish();
    assert_eq!(res.total_count(QueryId(0)), 0);
    assert_eq!(res.total_count(QueryId(1)), 2);
}
