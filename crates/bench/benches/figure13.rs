//! Figure 13: two-step versus online approaches on the Linear Road data
//! set — (a) latency and (b) throughput as the number of events per
//! window grows.
//!
//! Paper shape: the two-step approaches (Flink, SPASS) degrade
//! exponentially and stop terminating (Flink > 6k, SPASS > 7k events per
//! window); the online approaches (A-Seq, SHARON) stay orders of
//! magnitude faster. Runs that exceed the per-run cap are reported as
//! `DNF`, mirroring the paper's "does not terminate".
//!
//! All four strategies are driven through the same columnar
//! `BatchProcessor` pipeline on the sequential engine, so the comparison
//! is apples-to-apples: one thread each.

use sharon::prelude::*;
use sharon::streams::linear_road::{generate, LinearRoadConfig};
use sharon::streams::workload::{overlapping_workload, WorkloadConfig};
use sharon::Strategy;
use sharon_bench::{emit, rates_of, run_measured, scale, scaled};
use sharon_metrics::Table;
use std::time::Duration;

#[global_allocator]
static ALLOC: sharon_metrics::TrackingAllocator = sharon_metrics::TrackingAllocator;

fn main() {
    let cap = Duration::from_secs(
        std::env::var("SHARON_CAP_SECS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(8),
    );
    // events per window targets (the paper sweeps 1k..7k)
    let targets: Vec<usize> = [1000, 2000, 4000, 6000]
        .iter()
        .map(|&t| scaled(t, 200))
        .collect();
    let within_secs = 10u64;

    let mut latency = Table::new(
        "figure13a",
        "Latency vs events/window (LR), two-step vs online",
    )
    .headers(["events/window", "Flink", "SPASS", "A-Seq", "SHARON"]);
    let mut throughput = Table::new(
        "figure13b",
        "Throughput vs events/window (LR), two-step vs online",
    )
    .headers(["events/window", "Flink", "SPASS", "A-Seq", "SHARON"]);

    for &target in &targets {
        // fixed car population; events/window grows by making each car
        // report more often (denser per-group substreams — this is what
        // makes the two-step sequence construction blow up polynomially,
        // while the online methods stay near-linear)
        let n_cars = 10u64;
        let lifetime_secs = 20u64;
        let report_every_ms = (n_cars * within_secs * 1000 / target as u64).clamp(5, 2000);
        let mut catalog = Catalog::new();
        let events = generate(
            &mut catalog,
            &LinearRoadConfig {
                n_segments: 12,
                cars_per_sec: n_cars as f64 / lifetime_secs as f64,
                report_every_ms,
                trip_segments: (lifetime_secs * 1000 / report_every_ms) as usize,
                duration_secs: 45,
                seed: 13,
                ..Default::default()
            },
        );
        let workload = overlapping_workload(
            &mut catalog,
            &WorkloadConfig {
                n_queries: 6,
                pattern_len: 4,
                alphabet: (0..12).map(|i| format!("Seg{i}")).collect(),
                window: WindowSpec::new(TimeDelta::from_secs(within_secs), TimeDelta::from_secs(2)),
                group_by: Some("car".into()),
                seed: 13,
            },
        );
        let rates = rates_of(&events);

        let mut lat_row = vec![target.to_string()];
        let mut thr_row = vec![target.to_string()];
        for strategy in [
            Strategy::FlinkLike,
            Strategy::SpassLike,
            Strategy::ASeq,
            Strategy::Sharon,
        ] {
            let m = run_measured(&catalog, &workload, &rates, strategy, &events, Some(cap));
            lat_row.push(m.latency_cell());
            thr_row.push(m.throughput_cell());
        }
        latency.row(lat_row);
        throughput.row(thr_row);
    }
    let note = format!(
        "SHARON_SCALE={}; 6 queries, pattern length 4, \
         WITHIN {within_secs}s SLIDE 2s, GROUP BY car; DNF = exceeded {}s cap \
         (paper: Flink/SPASS do not terminate)",
        scale(),
        cap.as_secs()
    );
    latency.note(note.clone());
    throughput.note(note);
    emit(&latency);
    emit(&throughput);
}
