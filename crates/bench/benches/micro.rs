//! Criterion micro-benchmarks of the Sharon kernels — the ablation
//! benches for the design choices called out in DESIGN.md:
//!
//! * columnar-batch cost of the Non-Shared vs Shared executor kernels,
//! * per-prefix-update cost of the segment runner,
//! * SHARON graph construction, GWMIN, reduction, and the plan finder
//!   on the paper's Figure 4 instance and on larger synthetic graphs,
//! * modified-CCSpan mining over growing workloads.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sharon::optimizer::graph::figure_4_graph;
use sharon::optimizer::gwmin::gwmin;
use sharon::optimizer::mining::mine_sharable_patterns;
use sharon::optimizer::plan_finder::find_optimal_plan;
use sharon::optimizer::reduction::reduce;
use sharon::prelude::*;
use sharon::streams::workload::{overlapping_workload, WorkloadConfig};

fn executor_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("executor");
    for &shared in &[false, true] {
        let mut catalog = Catalog::new();
        let workload = parse_workload(
            &mut catalog,
            [
                "RETURN COUNT(*) PATTERN SEQ(A, B, C, D, E1) WITHIN 2 s SLIDE 500 ms",
                "RETURN COUNT(*) PATTERN SEQ(A, B, C, D, E2) WITHIN 2 s SLIDE 500 ms",
                "RETURN COUNT(*) PATTERN SEQ(A, B, C, D, E3) WITHIN 2 s SLIDE 500 ms",
                "RETURN COUNT(*) PATTERN SEQ(A, B, C, D, E4) WITHIN 2 s SLIDE 500 ms",
            ],
        )
        .unwrap();
        let plan = if shared {
            let abcd = Pattern::from_names(&mut catalog, ["A", "B", "C", "D"]);
            SharingPlan::new([PlanCandidate::new(
                abcd,
                [QueryId(0), QueryId(1), QueryId(2), QueryId(3)],
            )])
        } else {
            SharingPlan::non_shared()
        };
        // a round-robin stream over the 8 types
        let names = ["A", "B", "C", "D", "E1", "E2", "E3", "E4"];
        let types: Vec<EventTypeId> = names.iter().map(|n| catalog.lookup(n).unwrap()).collect();
        let mut batch = EventBatch::new();
        for i in 0..4000u64 {
            batch.push_from(types[(i % 8) as usize], Timestamp(i * 3), []);
        }
        group.bench_function(
            BenchmarkId::new(
                "stream_4q_len5",
                if shared { "shared" } else { "non_shared" },
            ),
            |b| {
                b.iter(|| {
                    let mut ex = Executor::new(&catalog, &workload, &plan).unwrap();
                    ex.process_columnar(black_box(&batch));
                    black_box(ex.finish().len())
                })
            },
        );
    }
    group.finish();
}

fn optimizer_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer");
    let mut catalog = Catalog::new();
    let (_, g) = figure_4_graph(&mut catalog);
    group.bench_function("gwmin_figure4", |b| b.iter(|| black_box(gwmin(&g))));
    group.bench_function("reduce_figure4", |b| {
        b.iter(|| black_box(reduce(&g).pruned.len()))
    });
    group.bench_function("plan_finder_figure4", |b| {
        let red = reduce(&g);
        b.iter(|| black_box(find_optimal_plan(&red.graph, None).score))
    });

    for &n in &[20usize, 60] {
        let mut cat = Catalog::new();
        let workload = overlapping_workload(
            &mut cat,
            &WorkloadConfig {
                n_queries: n,
                pattern_len: 6,
                alphabet: (0..12).map(|i| format!("T{i}")).collect(),
                window: WindowSpec::paper_traffic(),
                group_by: None,
                seed: 1,
            },
        );
        group.bench_function(BenchmarkId::new("mine", n), |b| {
            b.iter(|| black_box(mine_sharable_patterns(&workload).len()))
        });
        let rates = RateMap::uniform(100.0);
        group.bench_function(BenchmarkId::new("optimize_sharon", n), |b| {
            let cfg = OptimizerConfig {
                search_budget: Some(std::time::Duration::from_secs(2)),
                ..Default::default()
            };
            b.iter(|| black_box(optimize_sharon(&workload, &rates, &cfg).score))
        });
        group.bench_function(BenchmarkId::new("optimize_greedy", n), |b| {
            b.iter(|| black_box(optimize_greedy(&workload, &rates).score))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = executor_kernels, optimizer_kernels
}
criterion_main!(benches);
