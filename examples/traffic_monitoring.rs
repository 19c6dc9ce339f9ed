//! The urban-transportation use case of Section 1: queries q1–q7 of
//! Figure 1 over a synthetic taxi position-report stream.
//!
//! Prints the mined sharing candidates (Table 1), the SHARON graph
//! statistics (Figure 4), the greedy and optimal plans (Example 12), and
//! per-route trip counts from the executor.
//!
//! ```sh
//! cargo run --release --example traffic_monitoring
//! ```

use sharon::optimizer::mining::mine_sharable_patterns;
use sharon::optimizer::{CostModel, SharonGraph};
use sharon::prelude::*;
use sharon::streams::taxi::{generate, TaxiConfig};
use sharon::streams::workload::{figure_1_workload, measured_rates};
use sharon::Strategy;

fn main() {
    // ---------------------------------------------------------------
    // stream: vehicles driving routes over the Figure 1 street names
    // ---------------------------------------------------------------
    let mut catalog = Catalog::new();
    let events = generate(
        &mut catalog,
        &TaxiConfig {
            n_streets: 7,
            n_vehicles: 25,
            trip_len: 5,
            n_events: 60_000,
            mean_interarrival_ms: 3,
            seed: 1,
            ..Default::default()
        },
    );
    let workload = figure_1_workload(&mut catalog);
    println!("traffic monitoring workload (Figure 1):");
    for q in workload.queries() {
        println!("  {}: {}", q.id, q.display(&catalog));
    }

    // ---------------------------------------------------------------
    // Table 1: the sharing candidates
    // ---------------------------------------------------------------
    let mined = mine_sharable_patterns(&workload);
    println!("\nsharing candidates (Table 1):");
    for (p, qs) in &mined {
        let names: Vec<String> = qs.iter().map(|q| q.to_string()).collect();
        println!("  {}  <- {}", p.display(&catalog), names.join(", "));
    }

    // ---------------------------------------------------------------
    // the SHARON graph under measured stream rates
    // ---------------------------------------------------------------
    let (counts, span) = measured_rates(&events);
    let rates = RateMap::from_counts(&counts, span);
    let model = CostModel::new(&workload, &rates);
    let graph = SharonGraph::build(&workload, &mined, &model);
    println!(
        "\nSHARON graph: {} beneficial candidates, {} conflicts",
        graph.len(),
        graph.edge_count()
    );
    print!("{}", graph.display(&catalog));

    // ---------------------------------------------------------------
    // greedy vs optimal plan (Example 12's comparison)
    // ---------------------------------------------------------------
    let cfg = OptimizerConfig::default();
    let greedy = optimize_greedy(&workload, &rates);
    let sharon = optimize_sharon(&workload, &rates, &cfg);
    println!(
        "\ngreedy plan (GWMIN): score {:.1}, {} candidates",
        greedy.score,
        greedy.plan.len()
    );
    println!(
        "optimal plan (Sharon): score {:.1}, {} candidates",
        sharon.score,
        sharon.plan.len()
    );
    for cand in &sharon.plan.candidates {
        let qs: Vec<String> = cand.queries.iter().map(|q| q.to_string()).collect();
        println!(
            "  share {} among {}",
            cand.pattern.display(&catalog),
            qs.join(", ")
        );
    }
    for phase in &sharon.phases {
        println!("  phase {:<20} {:?}", phase.name, phase.elapsed);
    }

    // ---------------------------------------------------------------
    // execute under the optimal plan; report route popularity
    // ---------------------------------------------------------------
    let batch = EventBatch::from_events(&events);
    let run = |strategy| {
        let (mut ex, _) = SharonBuilder::new(&catalog, &workload, &rates)
            .strategy(strategy)
            .build_executor()
            .unwrap();
        ex.process_columnar(&batch);
        ex.finish()
    };
    let results = run(Strategy::Sharon);
    println!("\nper-query totals (trips across all vehicles and windows):");
    for q in workload.ids() {
        println!(
            "  {}: {} route completions over {} (vehicle, window) results",
            q,
            results.total_count(q),
            results.of_query(q).count()
        );
    }

    // sanity: A-Seq agrees
    let reference = run(Strategy::ASeq);
    assert!(results.semantically_eq(&reference, 1e-9));
    println!("\nverified: SHARON results identical to A-Seq (non-shared) results");
}
