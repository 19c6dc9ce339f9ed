//! Figure 15: the Sharon optimizer (SO) versus the greedy optimizer (GO)
//! and the exhaustive optimizer (EO) on the e-commerce query workload —
//! (a) optimization latency and (b) optimizer memory, per phase, as the
//! number of queries grows.
//!
//! Paper shape: EO fails beyond 20 queries (its latency is 4 orders of
//! magnitude above GO at 20); SO sits between GO and EO — its pruning
//! keeps the optimal search tractable while GO stays cheapest but returns
//! lower-quality plans (Figure 16 measures the quality gap).

use sharon::prelude::*;
use sharon::streams::ecommerce::item_name;
use sharon::streams::workload::{overlapping_workload, WorkloadConfig};
use sharon_bench::{emit, peak_of, scale, scaled};
use sharon_metrics::{fmt_bytes, fmt_duration, Table};
use std::time::Duration;

#[global_allocator]
static ALLOC: sharon_metrics::TrackingAllocator = sharon_metrics::TrackingAllocator;

fn main() {
    let query_counts: Vec<usize> = [10, 20, 30, 50, 70].iter().map(|&q| scaled(q, 4)).collect();
    let eo_limit = 20; // the paper: EO fails to terminate beyond 20 queries
    let budget = Duration::from_secs(
        std::env::var("SHARON_CAP_SECS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(10),
    );

    let mut latency = Table::new("figure15a", "Optimizer latency vs number of queries (EC)")
        .headers([
            "queries",
            "GO",
            "SO",
            "EO",
            "SO phases (mine/graph/expand/reduce/find)",
        ]);
    let mut memory = Table::new("figure15b", "Optimizer memory vs number of queries (EC)")
        .headers(["queries", "GO", "SO", "EO"]);

    for &n in &query_counts {
        let mut catalog = Catalog::new();
        let workload = overlapping_workload(
            &mut catalog,
            &WorkloadConfig {
                n_queries: n,
                pattern_len: 8,
                alphabet: (0..16).map(item_name).collect(),
                window: WindowSpec::new(TimeDelta::from_secs(20), TimeDelta::from_secs(1)),
                group_by: Some("customer".into()),
                seed: 15,
            },
        );
        let rates = RateMap::uniform(3000.0 / 16.0);
        let cfg = OptimizerConfig {
            search_budget: Some(budget),
            ..Default::default()
        };

        let (go, go_mem) = peak_of(|| optimize_greedy(&workload, &rates));
        let (so, so_mem) = peak_of(|| optimize_sharon(&workload, &rates, &cfg));
        // the exhaustive optimizer enumerates 2^|V| subsets of the
        // expanded graph; cap its expansion so 2^|V| is even representable,
        // and let its budget produce the paper's "fails beyond 20 queries"
        let (eo_cell, eo_mem_cell) = if n <= eo_limit {
            let eo_cfg = OptimizerConfig {
                search_budget: Some(budget),
                expansion: sharon::optimizer::ExpansionConfig {
                    max_total_options: 22,
                    max_options_per_candidate: 8,
                    max_subset_queries: 4,
                },
            };
            let (eo, eo_mem) = peak_of(|| optimize_exhaustive(&workload, &rates, &eo_cfg));
            if eo.stats.timed_out {
                ("DNF".to_string(), "DNF".to_string())
            } else {
                (fmt_duration(eo.total_time()), fmt_bytes(eo_mem))
            }
        } else {
            ("DNF".to_string(), "DNF".to_string())
        };

        let phases: Vec<String> = so.phases.iter().map(|p| fmt_duration(p.elapsed)).collect();
        latency.row(vec![
            n.to_string(),
            fmt_duration(go.total_time()),
            format!(
                "{}{}",
                fmt_duration(so.total_time()),
                if so.stats.timed_out { " (budget)" } else { "" }
            ),
            eo_cell,
            phases.join(" / "),
        ]);
        memory.row(vec![
            n.to_string(),
            fmt_bytes(go_mem),
            fmt_bytes(so_mem),
            eo_mem_cell,
        ]);

        // plan quality sanity: SO >= GO always
        assert!(
            so.score >= go.score - 1e-6,
            "SO score {} < GO score {} at {n} queries",
            so.score,
            go.score
        );
    }
    let note = format!(
        "SHARON_SCALE={}; pattern length 8 over 16 item types; EO capped at {eo_limit} \
         queries / {}s budget (paper: EO fails beyond 20 queries); SO phases are \
         mining / graph construction / expansion / reduction / plan finder",
        scale(),
        budget.as_secs()
    );
    latency.note(note.clone());
    memory.note(note);
    emit(&latency);
    emit(&memory);
}
