//! Events/sec throughput of the execution layer: the sequential columnar
//! engine vs the sharded route-once runtime at varying shard counts and
//! `GROUP BY`
//! cardinalities, on the high-cardinality taxi stream under the Sharon
//! optimizer's plan — plus an **all-strategy columnar sweep** (Flink,
//! SPASS, A-Seq, SHARON through `AnyExecutor::process_columnar`) that
//! doubles as the trait-dispatch bitrot guard: CI runs this bench at
//! 5k-event scale on every change, and the sweep asserts all four
//! strategies still agree — on uniform **and** on Zipf-skewed input. The
//! online strategies also run 2-way sharded there; the two-step baselines
//! run sequentially only.
//!
//! The **skew sweep** measures skewed `GROUP BY` traffic: taxi streams at
//! theta ∈ {0, 0.8, 1.2} across 1/2/4/8 shards. Every group lives on its
//! hash owner, so a hot group loads one shard; every row of a sweep must
//! report identical result counts.
//!
//! The **query-count sweep** measures the scope-dedup path: 1/8/64
//! Flink-like queries sharing one routing scope, which dedup collapses to
//! a single scan per batch.
//!
//! Prints one table per scenario and writes a machine-readable baseline to
//! `BENCH_PR10.json` at the workspace root (override with
//! `SHARON_BENCH_OUT`), so future optimization PRs have a perf trajectory
//! to compare against (`BENCH_PR1.json`–`BENCH_PR8.json` hold earlier
//! PRs' numbers). `SHARON_SCALE` scales the stream length.
//!
//! Note: thread-level speedup from sharding is only observable when the
//! host grants more than one CPU; the JSON records
//! `available_parallelism` so readers can interpret the ratios.

use sharon::executor::ShardedOptions;
use sharon::prelude::*;
use sharon::streams::taxi::{self, TaxiConfig};
use sharon::streams::workload::{figure_1_workload, measured_rates_batch};
use sharon::twostep::{FlinkLike, SpassLike};
use sharon::{AnyExecutor, Strategy};
use sharon_bench::{scale, scaled};
use sharon_metrics::Table;
use std::time::Instant;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Run {
    label: String,
    events_per_sec: f64,
    results: usize,
}

/// The online engines under `plan` on `shards` worker shards, default
/// runtime options.
fn sharded(
    catalog: &Catalog,
    workload: &Workload,
    plan: &SharingPlan,
    shards: usize,
) -> ShardedExecutor {
    ShardedExecutor::with_options(catalog, workload, plan, shards, ShardedOptions::default())
        .unwrap()
}

fn measure(label: &str, n_events: usize, run: impl Fn() -> ExecutorResults) -> Run {
    // best of three full passes: the first pass warms the allocator and
    // the page cache, and the extra pass damps scheduler noise on shared
    // CI hosts, where single-shot ratios wobble by ±10%
    let mut best = f64::MIN;
    let mut results = 0;
    for _ in 0..3 {
        let start = Instant::now();
        let out = run();
        let elapsed = start.elapsed().as_secs_f64().max(1e-12);
        best = best.max(n_events as f64 / elapsed);
        results = out.len();
    }
    Run {
        label: label.to_string(),
        events_per_sec: best,
        results,
    }
}

fn scenario(n_events: usize, n_vehicles: usize) -> (String, Vec<Run>) {
    let name = format!("taxi events={n_events} groups={n_vehicles}");
    let mut catalog = Catalog::new();
    let batch = taxi::generate_batch(
        &mut catalog,
        &TaxiConfig::high_cardinality(n_events, n_vehicles),
    );
    let workload = figure_1_workload(&mut catalog);
    let (counts, span) = measured_rates_batch(&batch);
    let rates = RateMap::from_counts(&counts, span);
    let plan = optimize_sharon(&workload, &rates, &OptimizerConfig::default()).plan;
    let n = batch.len();

    let mut runs = Vec::new();
    runs.push(measure("sequential/columnar", n, || {
        let mut ex = Executor::new(&catalog, &workload, &plan).unwrap();
        ex.process_columnar(&batch);
        ex.finish()
    }));
    for shards in SHARD_COUNTS {
        runs.push(measure(&format!("sharded/{shards}"), n, || {
            let mut ex = sharded(&catalog, &workload, &plan, shards);
            ex.process_columnar(&batch);
            ex.finish()
        }));
    }

    // every configuration must report the identical result count
    let want = runs[0].results;
    for run in &runs {
        assert_eq!(run.results, want, "{}: result count diverged", run.label);
    }
    (name, runs)
}

/// The paper's traffic patterns with windows sized to the synthetic
/// stream span (the taxi generator emits ~1 event/ms), so windows close
/// mid-run — the regime the skew sweep measures.
fn short_window_workload(catalog: &mut Catalog) -> Workload {
    parse_workload(
        catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt, StateSt) WHERE [vehicle] WITHIN 10 s SLIDE 2 s",
            "RETURN COUNT(*) PATTERN SEQ(MainSt, StateSt) WHERE [vehicle] WITHIN 10 s SLIDE 2 s",
            "RETURN COUNT(*) PATTERN SEQ(ParkAve, OakSt, MainSt) WHERE [vehicle] WITHIN 10 s SLIDE 2 s",
            "RETURN COUNT(*) PATTERN SEQ(ElmSt, ParkAve) WHERE [vehicle] WITHIN 10 s SLIDE 2 s",
        ],
    )
    .expect("short-window workload parses")
}

/// Zipf-skewed groups: the sequential columnar reference and the sharded
/// runtime at 1/2/4/8 shards.
fn skew_sweep(theta: f64) -> (String, Vec<Run>) {
    let n_events = scaled(200_000, 5_000);
    let n_vehicles = 512;
    let name = format!("skew theta={theta} events={n_events} groups={n_vehicles}");
    let mut catalog = Catalog::new();
    let batch = taxi::generate_batch(
        &mut catalog,
        &TaxiConfig::high_cardinality(n_events, n_vehicles).with_skew(theta),
    );
    let workload = short_window_workload(&mut catalog);
    let plan = SharingPlan::non_shared();
    let n = batch.len();

    let mut runs = Vec::new();
    runs.push(measure("sequential/columnar", n, || {
        let mut ex = Executor::new(&catalog, &workload, &plan).unwrap();
        ex.process_columnar(&batch);
        ex.finish()
    }));
    for shards in SHARD_COUNTS {
        runs.push(measure(&format!("sharded/{shards}"), n, || {
            let mut ex = sharded(&catalog, &workload, &plan, shards);
            ex.process_columnar(&batch);
            ex.finish()
        }));
    }
    // skew and sharding must never change results — every configuration
    // reports the identical result count
    let want = runs[0].results;
    for run in &runs {
        assert_eq!(run.results, want, "{}: result count diverged", run.label);
    }
    (name, runs)
}

/// Scope dedup on a many-query, shared-scope workload: `n_queries`
/// Flink-like queries over the same `SEQ(MainSt, StateSt)` scope (windows
/// differ, so the queries are distinct but select identically — dedup
/// collapses them to ONE scan per batch).
fn query_count_sweep(n_queries: usize) -> (String, Vec<Run>) {
    let n_events = scaled(60_000, 3_000);
    let n_vehicles = 512;
    let name = format!("queries n={n_queries} shared-scope events={n_events} (flink)");
    let mut catalog = Catalog::new();
    let batch = taxi::generate_batch(
        &mut catalog,
        &TaxiConfig::high_cardinality(n_events, n_vehicles),
    );
    let sources: Vec<String> = (0..n_queries)
        .map(|i| {
            format!(
                "RETURN COUNT(*) PATTERN SEQ(MainSt, StateSt) WHERE [vehicle] WITHIN {} s SLIDE 2 s",
                8 + 2 * (i % 8)
            )
        })
        .collect();
    let workload =
        parse_workload(&mut catalog, sources.iter().map(String::as_str)).expect("workload parses");
    let n = batch.len();

    let runs = vec![measure("flink/sequential", n, || {
        let mut ex = FlinkLike::new(&catalog, &workload).unwrap();
        ex.process_columnar(&batch);
        ex.finish()
    })];
    (name, runs)
}

/// All four strategies of Figure 3 through the one columnar trait-dispatch
/// pipeline (`AnyExecutor::process_columnar`), sequential, and the online
/// ones 2-way sharded too. Sized smaller than the main scenarios: the two-step baselines
/// pay the polynomial sequence-construction cost by design. With
/// `theta > 0` the taxi stream is Zipf-skewed — the CI smoke runs this at
/// theta=1.2 so the four strategies are asserted to agree on skewed input
/// on every change.
fn strategy_sweep(theta: f64) -> (String, Vec<Run>) {
    let n_events = scaled(20_000, 2_000);
    let n_vehicles = (n_events / 20).max(50);
    let name = if theta > 0.0 {
        format!(
            "strategies events={n_events} groups={n_vehicles} theta={theta} (columnar dispatch)"
        )
    } else {
        format!("strategies events={n_events} groups={n_vehicles} (columnar dispatch)")
    };
    let mut catalog = Catalog::new();
    let batch = taxi::generate_batch(
        &mut catalog,
        &TaxiConfig::high_cardinality(n_events, n_vehicles).with_skew(theta),
    );
    let workload = if theta > 0.0 {
        // short windows, so windows close mid-run on skewed input
        short_window_workload(&mut catalog)
    } else {
        figure_1_workload(&mut catalog)
    };
    let (counts, span) = measured_rates_batch(&batch);
    let rates = RateMap::from_counts(&counts, span);
    let n = batch.len();
    // optimize once outside the measured closures (like `scenario`): the
    // sweep times ingestion + finish, not the fixed plan-search cost
    let plan = optimize_sharon(&workload, &rates, &OptimizerConfig::default()).plan;
    let build = |strategy: Strategy, shards: usize| -> AnyExecutor {
        match (strategy, shards) {
            (Strategy::Sharon, 0) => Executor::new(&catalog, &workload, &plan).unwrap().into(),
            (Strategy::ASeq, 0) => Executor::non_shared(&catalog, &workload).unwrap().into(),
            (Strategy::FlinkLike, 0) => FlinkLike::new(&catalog, &workload).unwrap().into(),
            (Strategy::SpassLike, 0) => SpassLike::new(&catalog, &workload, &plan).unwrap().into(),
            (Strategy::Sharon, n) => sharded(&catalog, &workload, &plan, n).into(),
            (Strategy::ASeq, n) => {
                sharded(&catalog, &workload, &SharingPlan::non_shared(), n).into()
            }
            (strategy, n) => unreachable!("{} is not in the {n}-shard sweep", strategy.name()),
        }
    };

    let strategies = [
        Strategy::FlinkLike,
        Strategy::SpassLike,
        Strategy::ASeq,
        Strategy::Sharon,
    ];
    let mut runs = Vec::new();
    for strategy in strategies {
        runs.push(measure(&format!("strategy/{}", strategy.name()), n, || {
            let mut ex = build(strategy, 0);
            ex.process_columnar(&batch);
            ex.finish()
        }));
    }
    for strategy in [Strategy::ASeq, Strategy::Sharon] {
        runs.push(measure(
            &format!("strategy/{}/sharded-2", strategy.name()),
            n,
            || {
                let mut ex = build(strategy, 2);
                ex.process_columnar(&batch);
                ex.finish()
            },
        ));
    }

    // the four strategies answer identically — a result-count divergence
    // means the trait dispatch or a baseline's columnar path bitrotted
    let want = runs[0].results;
    for run in &runs {
        assert_eq!(run.results, want, "{}: strategies disagree", run.label);
    }
    (name, runs)
}

fn fmt_rate(r: f64) -> String {
    if r >= 1_000_000.0 {
        format!("{:.2}M ev/s", r / 1_000_000.0)
    } else {
        format!("{:.0}k ev/s", r / 1_000.0)
    }
}

fn json_out(path: &std::path::Path, scenarios: &[(String, Vec<Run>)], parallelism: usize) {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"throughput\",\n  \"pr\": 10,\n  \"available_parallelism\": {parallelism},\n  \"scale\": {},\n",
        scale()
    ));
    if parallelism == 1 {
        out.push_str(
            "  \"note\": \"recorded on a 1-CPU host: shard workers (and the router thread) \
             timeshare one core, so sharded/N ratios measure overhead only, not parallel \
             speedup — rerun on a multi-core host to observe scaling\",\n",
        );
    }
    out.push_str("  \"scenarios\": [\n");
    for (si, (name, runs)) in scenarios.iter().enumerate() {
        out.push_str(&format!("    {{\"name\": \"{name}\", \"runs\": [\n"));
        for (ri, run) in runs.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"label\": \"{}\", \"events_per_sec\": {:.0}, \"results\": {}}}{}\n",
                run.label,
                run.events_per_sec,
                run.results,
                if ri + 1 < runs.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ]}}{}\n",
            if si + 1 < scenarios.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}

fn main() {
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let base = (200_000.0 * scale()) as usize;
    let scenarios: Vec<(String, Vec<Run>)> = vec![
        scenario(base.max(5_000), 100),
        scenario(base.max(5_000), 10_000),
        skew_sweep(0.0),
        skew_sweep(0.8),
        skew_sweep(1.2),
        query_count_sweep(1),
        query_count_sweep(8),
        query_count_sweep(64),
        strategy_sweep(0.0),
        strategy_sweep(1.2),
    ];

    for (name, runs) in &scenarios {
        let mut table = Table::new("throughput", name.clone()).headers([
            "configuration",
            "throughput",
            "speedup",
            "results",
        ]);
        let baseline = runs[0].events_per_sec;
        for run in runs {
            table.row([
                run.label.clone(),
                fmt_rate(run.events_per_sec),
                format!("{:.2}x", run.events_per_sec / baseline),
                run.results.to_string(),
            ]);
        }
        table.note(format!("available_parallelism={parallelism}"));
        println!("{table}");
    }

    let path = std::env::var("SHARON_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR10.json").to_string()
    });
    json_out(std::path::Path::new(&path), &scenarios, parallelism);
}
