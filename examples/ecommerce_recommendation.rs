//! The e-commerce use case of Section 1: purchase-dependency queries
//! q8–q11 (Figure 2) over a synthetic purchase stream, with numeric
//! aggregates for price analytics.
//!
//! ```sh
//! cargo run --release --example ecommerce_recommendation
//! ```

use sharon::prelude::*;
use sharon::streams::ecommerce::{generate, EcommerceConfig};
use sharon::streams::workload::{figure_2_workload, measured_rates};
use sharon::AnyExecutor;

fn main() {
    // the paper's generator spec: 50 items, 20 customers, 3k events/s
    let mut catalog = Catalog::new();
    let events = generate(
        &mut catalog,
        &EcommerceConfig {
            n_events: 120_000,
            ..Default::default()
        },
    );
    let workload = figure_2_workload(&mut catalog);
    println!("purchase monitoring workload (Figure 2):");
    for q in workload.queries() {
        println!("  {}: {}", q.id, q.display(&catalog));
    }

    let (counts, span) = measured_rates(&events);
    let rates = RateMap::from_counts(&counts, span);
    let (mut ex, outcome) = SharonBuilder::new(&catalog, &workload, &rates)
        .build_executor()
        .expect("compiles");
    let plan = outcome.expect("the Sharon strategy optimizes").plan;
    println!("\nsharing plan:");
    for cand in &plan.candidates {
        let qs: Vec<String> = cand.queries.iter().map(|q| q.to_string()).collect();
        println!(
            "  share {} among {}",
            cand.pattern.display(&catalog),
            qs.join(", ")
        );
    }
    // the pattern (Laptop, Case) "appears in all four queries" (Section 1)
    assert!(
        !plan.is_empty(),
        "the Laptop/Case family must produce sharing opportunities"
    );

    run(&mut ex, &events);
    let results = ex.finish();
    println!("\npurchase-sequence counts (per customer and window, totals):");
    for q in workload.ids() {
        println!("  {}: total {}", q, results.total_count(q));
    }

    // a second workload: average laptop price preceding accessory buys
    let price_queries = parse_workload(
        &mut catalog,
        [
            "RETURN AVG(Laptop.price) PATTERN SEQ(Laptop, Case) WHERE [customer] WITHIN 20 min SLIDE 1 min",
            "RETURN MAX(Laptop.price) PATTERN SEQ(Laptop, Case, Adapter) WHERE [customer] WITHIN 20 min SLIDE 1 min",
        ],
    )
    .expect("parses");
    let (mut price_ex, _) = SharonBuilder::new(&catalog, &price_queries, &rates)
        .build_executor()
        .expect("compiles");
    run(&mut price_ex, &events);
    let price_results = price_ex.finish();
    let sample: Vec<_> = price_results
        .of_query_sorted(QueryId(0))
        .into_iter()
        .take(3)
        .collect();
    println!("\nAVG(Laptop.price) before a Case purchase (first 3 results):");
    for (group, window, value) in sample {
        println!("  customer {group} window@{window}: {value}");
    }
}

/// Feed `events` through `ex` in columnar batches.
fn run(ex: &mut AnyExecutor, events: &[Event]) {
    for chunk in events.chunks(Executor::RUN_BATCH) {
        ex.process_columnar(&EventBatch::from_events(chunk));
    }
}
