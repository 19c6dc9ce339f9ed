//! The paper's evaluation (§8, Figures 13–16) as counted-work tests.
//!
//! The paper states its results as shapes: two-step construction
//! explodes with the events per window while online aggregation does
//! not (Fig. 13); Sharon's advantage over A-Seq grows with the events
//! per window, the pattern length and the number of queries (Fig. 14);
//! the Sharon optimizer returns better plans than the greedy one at a
//! tiny fraction of the exhaustive one's search (Fig. 15); and the
//! optimal plan is at least as good as GWMIN's (Fig. 16).
//!
//! Each test runs one figure's sweep at three to five points on the
//! repository's generators and asserts the claim over numbers that repeat
//! exactly with the seed: the online engines' aggregate-update operations
//! (`RunReport::work`, the unit the cost model prices plans in), the
//! two-step baselines' constructed sequences, and the optimizers' plan
//! scores and search nodes. Nothing is timed. Where a claim does not
//! hold on these generators, the test pins the direction it observed,
//! and README's "Evaluation (§8)" table states it beside the paper's
//! claim. Each point prints one row:
//!
//! ```sh
//! cargo test -q --test paper_evaluation -- --nocapture --test-threads 1
//! ```
//!
//! `work_counts_are_exact_run_statistics` holds the counts themselves to
//! that standard: equal across runs and across shard counts
//! (`SHARON_SHARDS` pins one, `SHARON_DISORDER` scrambles the input).

#[path = "support.rs"]
mod support;

use sharon::executor::WorkCounts;
use sharon::optimizer::{ExpansionConfig, OptimizeOutcome};
use sharon::prelude::*;
use sharon::streams::ecommerce::{self, item_name, EcommerceConfig};
use sharon::streams::linear_road::{self, LinearRoadConfig};
use sharon::streams::taxi::{self, street_name, TaxiConfig};
use sharon::streams::workload::{measured_rates_batch, overlapping_workload, WorkloadConfig};
use sharon::twostep::{FlinkLike, SpassLike};

fn rates_of(batch: &EventBatch) -> RateMap {
    let (counts, span) = measured_rates_batch(batch);
    RateMap::from_counts(&counts, span)
}

/// One online run of `strategy` over `batch` (`shards` = 0 is the
/// sequential engine), and the optimizer outcome it ran under.
fn online(
    catalog: &Catalog,
    workload: &Workload,
    rates: &RateMap,
    strategy: Strategy,
    shards: usize,
    batch: &EventBatch,
) -> (WorkCounts, Option<OptimizeOutcome>) {
    let (mut ex, outcome) = SharonBuilder::new(catalog, workload, rates)
        .strategy(strategy)
        .shards(shards)
        .build_executor()
        .expect("the workload compiles");
    ex.process_columnar(batch);
    (ex.finish_with_stats().work, outcome)
}

/// The three online strategies at one sweep point, sequentially, under
/// rates measured from the stream.
struct Point {
    aseq: u64,
    greedy: u64,
    sharon: u64,
    sharon_plan: SharingPlan,
}

impl Point {
    fn run(catalog: &Catalog, workload: &Workload, batch: &EventBatch) -> Self {
        let rates = rates_of(batch);
        let work = |strategy| online(catalog, workload, &rates, strategy, 0, batch);
        let (aseq, _) = work(Strategy::ASeq);
        let (greedy, _) = work(Strategy::Greedy);
        let (sharon, outcome) = work(Strategy::Sharon);
        let sharon_plan = outcome.expect("the Sharon optimizer ran").plan;
        assert!(
            !sharon_plan.is_empty(),
            "every sweep point shares something"
        );
        Point {
            aseq: aseq.total(),
            greedy: greedy.total(),
            sharon: sharon.total(),
            sharon_plan,
        }
    }

    /// Sharon's work over A-Seq's: below 1 where sharing pays.
    fn ratio(&self) -> f64 {
        self.sharon as f64 / self.aseq as f64
    }

    /// The paper's order of the online strategies: Sharon ≤ Greedy ≤
    /// A-Seq.
    fn ordered(&self) -> bool {
        self.sharon <= self.greedy && self.greedy <= self.aseq
    }

    fn print(&self, figure: &str, x: impl std::fmt::Display) {
        println!(
            "{figure} | {x} | A-Seq {} | Greedy {} | Sharon {} | Sharon/A-Seq {:.3}",
            self.aseq,
            self.greedy,
            self.sharon,
            self.ratio()
        );
    }
}

/// The ratios fall strictly from point to point.
fn falling(ratios: &[f64]) -> bool {
    ratios.windows(2).all(|w| w[1] < w[0])
}

/// Figure 13: two-step against online on LR as the events per window
/// double (a fixed car population reporting more often). Each doubling
/// multiplies the sequences Flink-like and SPASS-like construct by more
/// than four; it multiplies the online engines' work by less than 2.5.
#[test]
fn figure_13_two_step_construction_explodes_while_online_work_grows_linearly() {
    let (within_secs, n_cars, lifetime_secs) = (10u64, 10u64, 20u64);
    let mut rows = Vec::new();
    for target in [500u64, 1000, 2000] {
        let report_every_ms = n_cars * within_secs * 1000 / target;
        let mut catalog = Catalog::new();
        let batch = linear_road::generate_batch(
            &mut catalog,
            &LinearRoadConfig {
                n_segments: 12,
                cars_per_sec: n_cars as f64 / lifetime_secs as f64,
                report_every_ms,
                trip_segments: (lifetime_secs * 1000 / report_every_ms) as usize,
                duration_secs: 30,
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
        let point = Point::run(&catalog, &workload, &batch);
        let mut flink = FlinkLike::new(&catalog, &workload).expect("flink compiles");
        flink.process_columnar(&batch);
        let mut spass =
            SpassLike::new(&catalog, &workload, &point.sharon_plan).expect("spass compiles");
        spass.process_columnar(&batch);
        let (flink, spass) = (flink.sequences_constructed(), spass.sequences_constructed());
        println!(
            "figure 13 | {target} events/window | Flink {flink} sequences | SPASS {spass} \
             sequences | A-Seq {} | Sharon {}",
            point.aseq, point.sharon
        );
        assert!(
            point.ordered(),
            "{target} events/window: Sharon ≤ Greedy ≤ A-Seq"
        );
        rows.push((flink, spass, point));
    }
    for ((f0, s0, p0), (f1, s1, p1)) in rows.iter().zip(&rows[1..]) {
        assert!(
            *f1 > 4 * f0 && *s1 > 4 * s0,
            "two-step construction is superlinear"
        );
        for (before, after) in [(p0.aseq, p1.aseq), (p0.sharon, p1.sharon)] {
            assert!(
                (after as f64) < 2.5 * before as f64,
                "online work grows linearly: {before} → {after}"
            );
        }
    }
}

/// Figure 14(a): Sharon against A-Seq on TX as the events per window
/// grow. The paper's speed-up grows with the events per window. Here
/// Sharon's share of A-Seq's work falls from 1k to 4k events per window;
/// at 8k the measured rates make the optimizer add chain stages, and the
/// share rises (pinned; README states it).
#[test]
fn figure_14_events_per_window() {
    let within_secs = 60u64;
    let mut ratios = Vec::new();
    for target in [1000u64, 2000, 4000, 8000] {
        let mut catalog = Catalog::new();
        let batch = taxi::generate_batch(
            &mut catalog,
            &TaxiConfig {
                n_streets: 12,
                n_vehicles: 20,
                trip_len: 8,
                n_events: target as usize * 3,
                mean_interarrival_ms: within_secs * 1000 / target,
                seed: 14,
                ..Default::default()
            },
        );
        let workload = overlapping_workload(
            &mut catalog,
            &WorkloadConfig {
                n_queries: 12,
                pattern_len: 6,
                alphabet: (0..12).map(street_name).collect(),
                window: WindowSpec::new(TimeDelta::from_secs(within_secs), TimeDelta::from_secs(6)),
                group_by: Some("vehicle".into()),
                seed: 14,
            },
        );
        let point = Point::run(&catalog, &workload, &batch);
        point.print("figure 14 events", format_args!("{target} events/window"));
        assert!(
            point.ordered(),
            "{target} events/window: Sharon ≤ Greedy ≤ A-Seq"
        );
        ratios.push(point.ratio());
    }
    assert!(
        falling(&ratios[..3]),
        "the share falls up to 4k: {ratios:?}"
    );
    assert!(
        ratios[3] > ratios[2],
        "pinned: the share rises at 8k: {ratios:?}"
    );
}

/// Figure 14(c): Sharon against A-Seq on EC as the pattern length grows
/// from 10 to 30. Sharon's share of A-Seq's work falls at every step, as
/// the paper's speed-up grows. At length 30 the plan that is optimal by
/// the cost model does more work than GWMIN's (pinned; README states
/// it).
#[test]
fn figure_14_pattern_length() {
    let mut catalog = Catalog::new();
    let batch = ecommerce::generate_batch(
        &mut catalog,
        &EcommerceConfig {
            n_items: 50,
            n_customers: 20,
            events_per_sec: 3000,
            n_events: 6000,
            seed: 14,
            ..Default::default()
        },
    );
    let mut ratios = Vec::new();
    for len in [10usize, 15, 20, 25, 30] {
        let mut catalog = catalog.clone();
        let workload = overlapping_workload(
            &mut catalog,
            &WorkloadConfig {
                n_queries: 20,
                pattern_len: len,
                alphabet: (0..50).map(item_name).collect(),
                window: WindowSpec::new(TimeDelta::from_secs(8), TimeDelta::from_secs(2)),
                group_by: Some("customer".into()),
                seed: 33,
            },
        );
        let point = Point::run(&catalog, &workload, &batch);
        point.print("figure 14 length", format_args!("length {len}"));
        if len == 30 {
            assert!(
                point.sharon > point.greedy && point.greedy <= point.aseq,
                "pinned: at length 30 Sharon's plan does more work than GWMIN's"
            );
        } else {
            assert!(point.ordered(), "length {len}: Sharon ≤ Greedy ≤ A-Seq");
        }
        ratios.push(point.ratio());
    }
    assert!(
        falling(&ratios),
        "the share falls with the length: {ratios:?}"
    );
}

/// Figure 14(b): Sharon against A-Seq on LR as the number of queries
/// grows. Sharon's share of A-Seq's work falls at every step, as the
/// paper's speed-up grows. At 10 queries Sharon's plan does more work
/// than A-Seq (pinned; README states it).
#[test]
fn figure_14_number_of_queries() {
    let mut catalog = Catalog::new();
    let batch = linear_road::generate_batch(
        &mut catalog,
        &LinearRoadConfig {
            n_segments: 12,
            cars_per_sec: 0.4,
            report_every_ms: 50,
            trip_segments: 400,
            duration_secs: 20,
            seed: 14,
            ..Default::default()
        },
    );
    let mut ratios = Vec::new();
    for n_queries in [10usize, 20, 40, 80] {
        let mut catalog = catalog.clone();
        let workload = overlapping_workload(
            &mut catalog,
            &WorkloadConfig {
                n_queries,
                pattern_len: 6,
                alphabet: (0..12).map(|i| format!("Seg{i}")).collect(),
                window: WindowSpec::new(TimeDelta::from_secs(30), TimeDelta::from_secs(6)),
                group_by: Some("car".into()),
                seed: 21,
            },
        );
        let point = Point::run(&catalog, &workload, &batch);
        point.print("figure 14 queries", format_args!("{n_queries} queries"));
        if n_queries == 10 {
            assert!(
                point.sharon == point.greedy && point.sharon > point.aseq,
                "pinned: at 10 queries sharing does more work than A-Seq"
            );
        } else {
            assert!(
                point.ordered(),
                "{n_queries} queries: Sharon ≤ Greedy ≤ A-Seq"
            );
        }
        ratios.push(point.ratio());
    }
    assert!(
        falling(&ratios),
        "the share falls with the queries: {ratios:?}"
    );
}

/// `a` equals `b` up to float summation order.
fn same_score(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// Figure 15: the Sharon optimizer (SO) against the greedy (GO) and the
/// exhaustive (EO) ones on EC as the number of queries grows. SO's plan
/// scores at least GO's everywhere and equals EO's where EO runs (up to
/// 20 queries, as in the paper, over an expansion capped at 16 options),
/// while SO's branch and bound visits a hundredth of EO's plans or fewer.
#[test]
fn figure_15_optimizer_search() {
    for n_queries in [10usize, 20, 40, 70] {
        let mut catalog = Catalog::new();
        let workload = overlapping_workload(
            &mut catalog,
            &WorkloadConfig {
                n_queries,
                pattern_len: 8,
                alphabet: (0..16).map(item_name).collect(),
                window: WindowSpec::new(TimeDelta::from_secs(20), TimeDelta::from_secs(1)),
                group_by: Some("customer".into()),
                seed: 15,
            },
        );
        let rates = RateMap::uniform(3000.0 / 16.0);
        let go = optimize_greedy(&workload, &rates);
        let so = optimize_sharon(&workload, &rates, &OptimizerConfig::default());
        assert!(!so.stats.timed_out);
        assert!(so.score >= go.score, "{n_queries} queries: SO ≥ GO");
        let mut eo_row = String::from("EO not run");
        if n_queries <= 20 {
            let capped = OptimizerConfig {
                expansion: ExpansionConfig {
                    max_total_options: 16,
                    max_options_per_candidate: 8,
                    max_subset_queries: 4,
                },
                search_budget: None,
            };
            let eo = optimize_exhaustive(&workload, &rates, &capped);
            assert!(
                same_score(so.score, eo.score),
                "{n_queries} queries: SO = EO"
            );
            assert!(
                so.stats.plans_considered * 100 <= eo.stats.plans_considered,
                "{n_queries} queries: SO searches far less than EO"
            );
            eo_row = format!(
                "EO {:.0} over {} plans",
                eo.score, eo.stats.plans_considered
            );
        }
        println!(
            "figure 15 | {n_queries} queries | GO {:.0} | SO {:.0} over {} plans | {eo_row}",
            go.score, so.score, so.stats.plans_considered
        );
    }
}

/// `clusters` copies of Figure 1's seven traffic queries, each over its
/// own seven streets, so the workload grows without new overlap.
fn clustered_workload(catalog: &mut Catalog, clusters: usize) -> Workload {
    let mut sources = Vec::new();
    for c in 0..clusters {
        let s = |i: usize| format!("C{c}S{i}");
        for names in [
            [s(0), s(1), s(2)].as_slice(),
            &[s(0), s(1), s(3)],
            &[s(4), s(0), s(1)],
            &[s(4), s(0), s(1), s(3)],
            &[s(1), s(2)],
            &[s(5), s(4), s(6)],
            &[s(5), s(4)],
        ] {
            sources.push(format!(
                "RETURN COUNT(*) PATTERN SEQ({}) WHERE [vehicle] WITHIN 10 s SLIDE 2 s",
                names.join(", ")
            ));
        }
    }
    parse_workload(catalog, sources.iter().map(String::as_str)).expect("clusters parse")
}

/// Position reports spread uniformly over every cluster's streets and
/// eight vehicles, 1–2 ms apart (xorshift64, seeded).
fn cluster_stream(catalog: &Catalog, clusters: usize, per_cluster: usize) -> EventBatch {
    let types: Vec<EventTypeId> = (0..clusters * 7)
        .map(|i| {
            catalog
                .lookup(&format!("C{}S{}", i / 7, i % 7))
                .expect("registered")
        })
        .collect();
    let mut state = 16u64;
    let mut draw = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let mut batch = EventBatch::new();
    let mut t = 0;
    for _ in 0..clusters * per_cluster {
        t += 1 + draw(2) as u64;
        let ty = types[draw(types.len())];
        batch.push_from(
            ty,
            Timestamp(t),
            [Value::Int(draw(8) as i64), Value::Float(30.0)],
        );
    }
    batch
}

/// Figure 16: the greedy plan (GWMIN) against the optimal one on
/// replicated Figure 1 clusters. GWMIN's score is at most the optimal
/// score, which is the exhaustive search's; on these clusters it is
/// equal, and so is the counted work. The paper's optimal plan halves
/// the greedy plan's latency; here both plans do more work than A-Seq
/// (pinned; README states it).
#[test]
fn figure_16_greedy_against_optimal_plan() {
    for clusters in [1usize, 2, 3, 4] {
        let mut catalog = Catalog::new();
        for i in 0..clusters * 7 {
            let name = format!("C{}S{}", i / 7, i % 7);
            catalog.register_with_schema(&name, Schema::new(["vehicle", "speed"]));
        }
        let workload = clustered_workload(&mut catalog, clusters);
        let batch = cluster_stream(&catalog, clusters, 1500);
        let rates = rates_of(&batch);
        let go = optimize_greedy(&workload, &rates);
        let so = optimize_sharon(&workload, &rates, &OptimizerConfig::default());
        let eo = optimize_exhaustive(&workload, &rates, &OptimizerConfig::default());
        assert!(!eo.stats.timed_out);
        assert!(
            go.score <= so.score || same_score(go.score, so.score),
            "GWMIN ≤ optimal"
        );
        assert!(
            same_score(so.score, eo.score),
            "SO finds the exhaustive optimum"
        );
        let point = Point::run(&catalog, &workload, &batch);
        point.print(
            "figure 16",
            format_args!(
                "{} queries | GO {:.0} | SO {:.0} | EO {:.0}",
                workload.len(),
                go.score,
                so.score,
                eo.score
            ),
        );
        assert!(
            point.sharon == point.greedy && point.greedy > point.aseq,
            "pinned: the optimal and the greedy plan do the same work, above A-Seq's"
        );
    }
}

/// The work counts are exact run statistics: a second run at the same
/// seed counts the same operations of every kind, and so does the
/// sharded runtime summed over its shards, at every shard count, on TX
/// (the stats and count kernels) and on LR.
#[test]
fn work_counts_are_exact_run_statistics() {
    let mut tx_catalog = Catalog::new();
    let tx = taxi::generate_batch(&mut tx_catalog, &TaxiConfig::high_cardinality(6000, 200));
    let tx_workload = support::short_window_taxi_workload(&mut tx_catalog);
    let mut lr_catalog = Catalog::new();
    let lr = linear_road::generate_batch(
        &mut lr_catalog,
        &LinearRoadConfig {
            cars_per_sec: 1.0,
            duration_secs: 60,
            ..Default::default()
        },
    );
    let lr_workload = overlapping_workload(
        &mut lr_catalog,
        &WorkloadConfig {
            n_queries: 10,
            pattern_len: 6,
            alphabet: (0..12).map(|i| format!("Seg{i}")).collect(),
            window: WindowSpec::new(TimeDelta::from_secs(30), TimeDelta::from_secs(6)),
            group_by: Some("car".into()),
            seed: 21,
        },
    );
    for (name, catalog, workload, batch) in [
        ("TX", &tx_catalog, &tx_workload, tx),
        ("LR", &lr_catalog, &lr_workload, lr),
    ] {
        let rates = rates_of(&batch);
        // SHARON_DISORDER: every run below reads the same scrambled
        // stream under a covering lateness
        let (batch, lateness) = match support::disordered(&batch.to_events()) {
            Some((events, need)) => (EventBatch::from_events(&events), Some(need)),
            None => (batch, None),
        };
        let run = |shards: usize| {
            let mut builder = SharonBuilder::new(catalog, workload, &rates).shards(shards);
            if let Some(need) = lateness {
                builder = builder.lateness(need);
            }
            let (mut ex, outcome) = builder.build_executor().expect("the workload compiles");
            assert!(!outcome.expect("the optimizer ran").plan.is_empty());
            ex.process_columnar(&batch);
            ex.finish_with_stats().work
        };
        let want = run(0);
        println!(
            "work counts | {name} | sequential | {} | {want:?}",
            want.total()
        );
        assert!(want.chain_combines > 0 && want.chain_folds > 0 && want.window_closes > 0);
        assert_eq!(run(0), want, "{name}: a second sequential run");
        for shards in support::shard_counts(&[1, 2, 4]) {
            let got = run(shards);
            println!("work counts | {name} | {shards} shards | {}", got.total());
            assert_eq!(got, want, "{name}: {shards} shards, summed over the shards");
        }
    }
}
