//! Quickstart: the paper's running numbers (Figures 6 and 7) on the
//! public API.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use sharon::prelude::*;

fn main() {
    // ---------------------------------------------------------------
    // 1. Declare queries in the SASE-style surface syntax (Definition 2)
    // ---------------------------------------------------------------
    let mut catalog = Catalog::new();
    let workload = parse_workload(
        &mut catalog,
        [
            // Figure 7: count(A,B,C,D), combined from shared pieces
            "RETURN COUNT(*) PATTERN SEQ(A, B, C, D) WITHIN 100 ms SLIDE 100 ms",
            // two more queries that make (A,B) and (C,D) sharable
            "RETURN COUNT(*) PATTERN SEQ(A, B, X) WITHIN 100 ms SLIDE 100 ms",
            "RETURN COUNT(*) PATTERN SEQ(Y, C, D) WITHIN 100 ms SLIDE 100 ms",
        ],
    )
    .expect("queries parse");
    println!("workload:");
    for q in workload.queries() {
        println!("  {}: {}", q.id, q.display(&catalog));
    }

    // ---------------------------------------------------------------
    // 2. Let the Sharon optimizer pick the sharing plan (Sections 3-7)
    // ---------------------------------------------------------------
    let rates = RateMap::uniform(100.0);
    let (mut ex, outcome) = SharonBuilder::new(&catalog, &workload, &rates)
        .build_executor()
        .expect("compiles");
    let plan = outcome.expect("the Sharon strategy optimizes").plan;
    println!("\nsharing plan ({} candidates):", plan.len());
    for cand in &plan.candidates {
        let qs: Vec<String> = cand.queries.iter().map(|q| q.to_string()).collect();
        println!(
            "  share {} among {}",
            cand.pattern.display(&catalog),
            qs.join(", ")
        );
    }

    // ---------------------------------------------------------------
    // 3. Stream events: a1 b2 c3 d4 a5 b6 b7 c8 d9 (Example 3's layout:
    //    count(A,B) = 1 at the first C and 5 at the second; the D events
    //    complete 2 + 5 = 7 sequences of (A,B,C,D))
    // ---------------------------------------------------------------
    // (row-form events enter the executor as one columnar batch)
    let t = |n: &str| catalog.lookup(n).unwrap();
    let events: Vec<Event> = [
        (t("A"), 1u64),
        (t("B"), 2),
        (t("C"), 3),
        (t("D"), 4),
        (t("A"), 5),
        (t("B"), 6),
        (t("B"), 7),
        (t("C"), 8),
        (t("D"), 9),
    ]
    .into_iter()
    .map(|(ty, ts)| Event::new(ty, Timestamp(ts)))
    .collect();
    ex.process_columnar(&EventBatch::from_events(&events));

    // ---------------------------------------------------------------
    // 4. Collect per-window results
    // ---------------------------------------------------------------
    let results = ex.finish();
    println!("\nresults:");
    for q in workload.ids() {
        for (group, window, value) in results.of_query_sorted(q) {
            println!("  {q} group={group} window@{window}: {value}");
        }
    }
    let count = results.total_count(QueryId(0));
    println!("\ncount(A,B,C,D) = {count} (the paper's Example 3 total: 7)");
    assert_eq!(count, 7);
}
