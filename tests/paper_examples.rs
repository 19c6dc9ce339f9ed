//! Integration tests pinning every worked example of the paper:
//! Table 1, Figure 4, Figure 8, and Examples 1–3, 5, 7–10, 12–13.

use sharon::optimizer::graph::figure_4_graph;
use sharon::optimizer::gwmin::{guaranteed_weight, gwmin, set_weight};
use sharon::optimizer::mining::mine_sharable_patterns;
use sharon::optimizer::plan_finder::{find_exhaustive, find_optimal_plan};
use sharon::optimizer::reduction::reduce;
use sharon::prelude::*;

#[path = "support.rs"]
mod support;

/// Table 1: the sharing candidates of the traffic workload.
#[test]
fn table_1_sharing_candidates() {
    let mut c = Catalog::new();
    let w = sharon::streams::workload::figure_1_workload(&mut c);
    let mined = mine_sharable_patterns(&w);
    assert_eq!(mined.len(), 7, "exactly p1..p7");
    let expect = [
        (vec!["OakSt", "MainSt"], vec![1u32, 2, 3, 4]),
        (vec!["ParkAve", "OakSt"], vec![3, 4]),
        (vec!["ParkAve", "OakSt", "MainSt"], vec![3, 4]),
        (vec!["MainSt", "WestSt"], vec![2, 4]),
        (vec!["OakSt", "MainSt", "WestSt"], vec![2, 4]),
        (vec!["MainSt", "StateSt"], vec![1, 5]),
        (vec!["ElmSt", "ParkAve"], vec![6, 7]),
    ];
    for (names, qids) in expect {
        let p = Pattern::from_names(&mut c, names.iter().copied());
        let got = mined
            .get(&p)
            .unwrap_or_else(|| panic!("missing {}", p.display(&c)));
        let want: std::collections::BTreeSet<QueryId> =
            qids.iter().map(|&i| QueryId(i - 1)).collect();
        assert_eq!(*got, want, "Q_p of {}", p.display(&c));
    }
}

/// Figure 4: the SHARON graph's weights and degrees.
#[test]
fn figure_4_graph_structure() {
    let mut c = Catalog::new();
    let (_, g) = figure_4_graph(&mut c);
    let weights: Vec<f64> = g.vertices().iter().map(|v| v.weight).collect();
    assert_eq!(weights, vec![25.0, 9.0, 12.0, 15.0, 20.0, 8.0, 18.0]);
    let degrees: Vec<usize> = (0..7).map(|v| g.degree(v)).collect();
    assert_eq!(degrees, vec![5, 3, 4, 3, 4, 1, 0]);
}

/// Example 5: plan {p2, p4} is valid with score 24; {p1} scores 25.
#[test]
fn example_5_plan_scores() {
    let mut c = Catalog::new();
    let (w, g) = figure_4_graph(&mut c);
    let p2 = g.vertex(1).candidate.clone();
    let p4 = g.vertex(3).candidate.clone();
    assert!(!sharon::optimizer::graph::in_conflict(&w, &p2, &p4));
    assert_eq!(g.vertex(1).weight + g.vertex(3).weight, 24.0);
    assert_eq!(g.vertex(0).weight, 25.0);
    SharingPlan::new([p2, p4]).validate(&w).unwrap();
}

/// Example 7: guaranteed weight ≈ 38.57; Scoremax(p3) = 38 → p3 pruned.
/// Example 8: p7 is conflict-free. Example 9: 96 plans (75.59 %) pruned.
#[test]
fn examples_7_8_9_reduction() {
    let mut c = Catalog::new();
    let (_, g) = figure_4_graph(&mut c);
    let min = guaranteed_weight(&g);
    assert!((min - 38.5666).abs() < 1e-3, "paper: ≈ 38.57, got {min}");
    let p3_scoremax: f64 = [2usize, 5, 6].iter().map(|&v| g.vertex(v).weight).sum();
    assert_eq!(p3_scoremax, 38.0);
    assert!(p3_scoremax < min);

    let red = reduce(&g);
    assert_eq!(red.pruned, vec![2], "p3 pruned");
    assert_eq!(red.conflict_free, vec![6], "p7 extracted");
    let pruned_plans = (1u64 << 7) - (1 << 5);
    assert_eq!(pruned_plans, 96);
    assert!((pruned_plans as f64 / 127.0 - 0.7559f64).abs() < 1e-3);
}

/// Example 10: the valid space has 10 plans (7.87 %); the invalid space
/// has 21 plans (16.54 %). The plan finder visits no more than the valid
/// space and still returns Example 12's {p2, p4, p6}.
#[test]
fn example_10_space_sizes() {
    let mut c = Catalog::new();
    let (_, g) = figure_4_graph(&mut c);
    let red = reduce(&g);
    let n = red.graph.len();
    let valid = (1u64..1 << n)
        .filter(|mask| {
            let members: Vec<usize> = (0..n).filter(|&v| mask & (1 << v) != 0).collect();
            members
                .iter()
                .enumerate()
                .all(|(i, &a)| members[i + 1..].iter().all(|&b| !red.graph.has_edge(a, b)))
        })
        .count();
    assert_eq!(valid, 10, "10 valid plans");
    let found = find_optimal_plan(&red.graph, None);
    assert!(found.stats.plans_considered <= 10);
    let originals: Vec<usize> = found
        .vertices
        .iter()
        .map(|&v| red.mapping.iter().position(|m| *m == Some(v)).unwrap())
        .collect();
    assert_eq!(originals, vec![1, 3, 5], "p2, p4, p6");
    assert_eq!(found.score, 32.0);
    assert!((10.0f64 / 127.0 - 0.0787).abs() < 1e-3);
    let invalid = (1u64 << 5) - 10 - 1;
    assert_eq!(invalid, 21);
    assert!((invalid as f64 / 127.0 - 0.1654).abs() < 1e-3);
}

/// Example 12: greedy plan {p1, p7} scores 43; the optimal plan
/// {p2, p4, p6, p7} scores 50 — "more than 16%" higher.
#[test]
fn example_12_greedy_vs_optimal() {
    let mut c = Catalog::new();
    let (_, g) = figure_4_graph(&mut c);
    let greedy = gwmin(&g);
    assert_eq!(set_weight(&g, &greedy), 43.0);

    let red = reduce(&g);
    let found = find_optimal_plan(&red.graph, None);
    let optimal: f64 = found.score
        + red
            .conflict_free
            .iter()
            .map(|&v| g.vertex(v).weight)
            .sum::<f64>();
    assert_eq!(optimal, 50.0);
    assert!((optimal - 43.0) / 43.0 > 0.16, "paper: more than 16%");

    let exh = find_exhaustive(&g, None);
    assert_eq!(exh.score, 50.0);
    let verts: std::collections::BTreeSet<usize> = exh.vertices.iter().copied().collect();
    assert_eq!(
        verts,
        [1usize, 3, 5, 6].into_iter().collect(),
        "p2, p4, p6, p7"
    );
}

/// Examples 1–2 (Figure 6) through the full executor.
#[test]
fn examples_1_and_2_executor_counts() {
    let mut c = Catalog::new();
    let w = parse_workload(
        &mut c,
        ["RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 100 ms SLIDE 100 ms"],
    )
    .unwrap();
    let (a, b) = (c.lookup("A").unwrap(), c.lookup("B").unwrap());
    let events: Vec<Event> = [(a, 1u64), (b, 2), (a, 3), (b, 4)]
        .into_iter()
        .map(|(ty, t)| Event::new(ty, Timestamp(t)))
        .collect();
    let mut ex = Executor::non_shared(&c, &w).unwrap();
    ex.process_columnar(&EventBatch::from_events(&events));
    let res = ex.finish();
    assert_eq!(res.total_count(QueryId(0)), 3, "Example 1: count(A,B) = 3");
}

/// Example 3 (Figure 7): the Shared method combines count(A,B) and
/// count(C,D) into count(A,B,C,D) = 7.
///
/// Event layout: y0 a1 b2 c3 d4 a5 b6 b7 c8 d9 x10 —
/// at c3: count(A,B) = 1, two later Ds (d4, d9) ⇒ 2;
/// at c8: count(A,B) = 5, one later D (d9) ⇒ 5; total 7.
/// y0 and x10 give the other two queries rows to compare.
#[test]
fn example_3_shared_combination() {
    let mut c = Catalog::new();
    let w = parse_workload(
        &mut c,
        [
            "RETURN COUNT(*) PATTERN SEQ(A, B, C, D) WITHIN 100 ms SLIDE 100 ms",
            "RETURN COUNT(*) PATTERN SEQ(A, B, X) WITHIN 100 ms SLIDE 100 ms",
            "RETURN COUNT(*) PATTERN SEQ(Y, C, D) WITHIN 100 ms SLIDE 100 ms",
        ],
    )
    .unwrap();
    let t = |n: &str| c.lookup(n).unwrap();
    let events: Vec<Event> = [
        (t("Y"), 0u64),
        (t("A"), 1),
        (t("B"), 2),
        (t("C"), 3),
        (t("D"), 4),
        (t("A"), 5),
        (t("B"), 6),
        (t("B"), 7),
        (t("C"), 8),
        (t("D"), 9),
        (t("X"), 10),
    ]
    .into_iter()
    .map(|(ty, ts)| Event::new(ty, Timestamp(ts)))
    .collect();

    let ab = Pattern::from_names(&mut c, ["A", "B"]);
    let cd = Pattern::from_names(&mut c, ["C", "D"]);
    let plan = SharingPlan::new([
        PlanCandidate::new(ab, [QueryId(0), QueryId(1)]),
        PlanCandidate::new(cd, [QueryId(0), QueryId(2)]),
    ]);
    let batch = EventBatch::from_events(&events);
    let mut shared = Executor::new(&c, &w, &plan).unwrap();
    let mut nonshared = Executor::non_shared(&c, &w).unwrap();
    shared.process_columnar(&batch);
    nonshared.process_columnar(&batch);
    let sr = shared.finish();
    let nr = nonshared.finish();
    assert_eq!(sr.total_count(QueryId(0)), 7, "paper: count(A,B,C,D) = 7");
    support::assert_equivalent(&sr, &nr, w.ids(), "shared vs non-shared");
}

/// Example 13 / Figure 11: option compatibility after conflict resolution.
#[test]
fn example_13_option_compatibility() {
    let mut c = Catalog::new();
    let (w, g) = figure_4_graph(&mut c);
    let mut benefit = |_: &Pattern, qs: &std::collections::BTreeSet<QueryId>| qs.len() as f64;
    let options = sharon::optimizer::expansion::expand_candidate(
        &w,
        &g,
        0,
        &mut benefit,
        &sharon::optimizer::ExpansionConfig::default(),
    );
    // Figure 11: the option (p1, {q1, q2}) drops the queries causing the
    // conflicts with p2 and p3
    let q12: std::collections::BTreeSet<QueryId> = [QueryId(0), QueryId(1)].into_iter().collect();
    let opt = options
        .iter()
        .find(|(cand, _)| cand.queries == q12)
        .expect("option (p1, {q1, q2}) exists");
    let p2 = g.vertex(1).candidate.clone();
    assert!(!sharon::optimizer::graph::in_conflict(&w, &opt.0, &p2));
    // Example 13: (p1, {q1, q3}) is not in conflict with (p4, {q2, q4})
    // and (p5, {q2, q4})
    let q13: std::collections::BTreeSet<QueryId> = [QueryId(0), QueryId(2)].into_iter().collect();
    let opt13 = PlanCandidate::new(opt.0.pattern.clone(), q13);
    let p4 = g.vertex(3).candidate.clone();
    let p5 = g.vertex(4).candidate.clone();
    assert!(!sharon::optimizer::graph::in_conflict(&w, &opt13, &p4));
    assert!(!sharon::optimizer::graph::in_conflict(&w, &opt13, &p5));
}
