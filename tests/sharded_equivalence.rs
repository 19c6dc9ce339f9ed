//! Determinism of the sharded parallel runtime and the columnar batch
//! path: for every shard count, [`ShardedExecutor`] produces results
//! `semantically_eq` to the sequential [`Executor`] — sharding is a pure
//! work partition, never a semantics change — and how the stream is cut
//! into columnar batches never matters either. Checked on all three paper
//! streams (TX, LR, EC) under both the Sharon plan and the non-shared
//! plan, and property-tested over random group cardinalities, Zipf group
//! skew, and ragged batch sizes (including empty and single-event
//! batches). Matched-event counts and per-scope scan tallies agree too.
//!
//! Every stream also runs with Zipf-skewed groups (theta 0.8 and 1.2),
//! and the global (no `GROUP BY`) partition is the extreme case: one
//! group carries a whole scope. Every group lives on its hash owner, so
//! skew moves load between shards and never changes a result.
//!
//! With `SHARON_DISORDER=K` set, every configuration additionally runs on
//! a bounded-disorder shuffle of the stream (each event displaced at most
//! K positions) with a lateness bound that covers the shuffle — and must
//! *still* equal the in-order sequential reference: disorder under a
//! covering lateness is a pure reordering the event-time gates absorb.

use proptest::prelude::{prop, proptest, ProptestConfig};
use sharon::prelude::*;
use sharon::streams::ecommerce::{self, EcommerceConfig};
use sharon::streams::linear_road::{self, LinearRoadConfig};
use sharon::streams::taxi::{self, TaxiConfig};
use sharon::streams::workload::{
    figure_1_workload, figure_2_workload, overlapping_workload, WorkloadConfig,
};

#[path = "support.rs"]
mod support;

/// Shard counts under test (the default spread includes the degenerate
/// single-shard runtime).
fn shard_counts() -> Vec<usize> {
    support::shard_counts(&[1, 2, 8])
}

/// Run `events` through the sequential engine (the reference) and assert
/// agreement of the sharded runtime's columnar route-once ingestion, per
/// shard count.
fn assert_sharded_matches_sequential(
    catalog: &Catalog,
    workload: &Workload,
    plan: &SharingPlan,
    events: &[Event],
    label: &str,
) {
    let mut sequential = Executor::new(catalog, workload, plan).expect("sequential compiles");
    sequential.process_columnar(&EventBatch::from_events(events));
    let want_matched = sequential.events_matched();
    let want = sequential.finish();

    // SHARON_DISORDER: run every configuration below on a bounded-
    // disorder shuffle with a covering lateness instead — the results
    // must still equal the IN-ORDER sequential reference
    let (run_events, lateness) = match support::disordered(events) {
        Some((shuffled, need)) => (shuffled, Some(need)),
        None => (events.to_vec(), None),
    };
    let run_batch = EventBatch::from_events(&run_events);

    if let Some(need) = lateness {
        // the gated sequential engine absorbs the disorder exactly
        let mut gated = Executor::new(catalog, workload, plan).expect("gated compiles");
        gated.set_lateness(need);
        gated.process_columnar(&run_batch);
        let got = gated.finish();
        support::assert_equivalent(
            &got,
            &want,
            workload.ids(),
            1e-9,
            format_args!("{label}: gated sequential engine under disorder (lateness {need} ms)"),
        );
    }

    for shards in shard_counts() {
        let mut sharded = ShardedExecutor::with_options(
            catalog,
            workload,
            plan,
            shards,
            sharon_executor::ShardedOptions {
                lateness,
                ..Default::default()
            },
        )
        .expect("sharded compiles");
        sharded.process_columnar(&run_batch);
        let report = sharded.finish_with_stats();
        let (got, matched) = (report.results, report.events_matched);
        support::assert_equivalent(
            &got,
            &want,
            workload.ids(),
            1e-9,
            format_args!("{label}: {shards} shards vs the sequential engine"),
        );
        assert_eq!(
            matched, want_matched,
            "{label}: {shards} shards: matched count"
        );
    }
}

fn sharon_plan(workload: &Workload) -> SharingPlan {
    let rates = RateMap::uniform(100.0);
    let outcome = optimize_sharon(workload, &rates, &OptimizerConfig::default());
    outcome.plan.validate(workload).expect("plan validates");
    outcome.plan
}

#[test]
fn taxi_stream_all_shard_counts() {
    let mut catalog = Catalog::new();
    let events = taxi::generate(
        &mut catalog,
        &TaxiConfig {
            n_events: 6000,
            n_streets: 7,
            n_vehicles: 40,
            ..Default::default()
        },
    );
    let workload = figure_1_workload(&mut catalog);
    let plan = sharon_plan(&workload);
    assert_sharded_matches_sequential(&catalog, &workload, &plan, &events, "taxi/sharon");
    assert_sharded_matches_sequential(
        &catalog,
        &workload,
        &SharingPlan::non_shared(),
        &events,
        "taxi/non-shared",
    );

    for theta in [0.8, 1.2] {
        let mut catalog = Catalog::new();
        let events = taxi::generate(
            &mut catalog,
            &TaxiConfig {
                n_events: 8000,
                n_streets: 7,
                n_vehicles: 50,
                skew: theta,
                ..Default::default()
            },
        );
        let workload = support::short_window_taxi_workload(&mut catalog);
        let plan = sharon_plan(&workload);
        assert_sharded_matches_sequential(
            &catalog,
            &workload,
            &plan,
            &events,
            &format!("taxi/theta={theta}/sharon"),
        );
        assert_sharded_matches_sequential(
            &catalog,
            &workload,
            &SharingPlan::non_shared(),
            &events,
            &format!("taxi/theta={theta}/non-shared"),
        );
    }
}

#[test]
fn taxi_high_group_cardinality() {
    // many more groups than shards: every shard owns a large slice
    let mut catalog = Catalog::new();
    let events = taxi::generate(&mut catalog, &TaxiConfig::high_cardinality(8000, 1000));
    let workload = figure_1_workload(&mut catalog);
    let plan = sharon_plan(&workload);
    assert_sharded_matches_sequential(&catalog, &workload, &plan, &events, "taxi/high-card");
}

#[test]
fn linear_road_stream_all_shard_counts() {
    let mut catalog = Catalog::new();
    let events = linear_road::generate(
        &mut catalog,
        &LinearRoadConfig {
            duration_secs: 30,
            cars_per_sec: 2.0,
            n_segments: 10,
            trip_segments: 60,
            ..Default::default()
        },
    );
    let alphabet: Vec<String> = (0..10).map(|i| format!("Seg{i}")).collect();
    let workload = overlapping_workload(
        &mut catalog,
        &WorkloadConfig {
            n_queries: 6,
            pattern_len: 4,
            alphabet,
            window: WindowSpec::new(TimeDelta::from_secs(10), TimeDelta::from_secs(2)),
            group_by: Some("car".into()),
            seed: 9,
        },
    );
    let plan = sharon_plan(&workload);
    assert_sharded_matches_sequential(&catalog, &workload, &plan, &events, "linear-road");

    for theta in [0.8, 1.2] {
        let mut catalog = Catalog::new();
        let events = linear_road::generate(
            &mut catalog,
            &LinearRoadConfig {
                duration_secs: 40,
                cars_per_sec: 3.0,
                n_segments: 8,
                trip_segments: 80,
                report_every_ms: 100,
                skew: theta,
                ..Default::default()
            },
        );
        let workload = parse_workload(
            &mut catalog,
            [
                "RETURN COUNT(*) PATTERN SEQ(Seg0, Seg1, Seg2) WHERE [car] WITHIN 3 s SLIDE 1 s",
                "RETURN COUNT(*) PATTERN SEQ(Seg1, Seg2) WHERE [car] WITHIN 3 s SLIDE 1 s",
                "RETURN SUM(Seg2.speed) PATTERN SEQ(Seg1, Seg2) WHERE [car] WITHIN 3 s SLIDE 1 s",
            ],
        )
        .unwrap();
        assert_sharded_matches_sequential(
            &catalog,
            &workload,
            &SharingPlan::non_shared(),
            &events,
            &format!("linear-road/theta={theta}"),
        );
    }
}

#[test]
fn ecommerce_stream_all_shard_counts() {
    let mut catalog = Catalog::new();
    let events = ecommerce::generate(
        &mut catalog,
        &EcommerceConfig {
            n_items: 10,
            n_customers: 6,
            events_per_sec: 300,
            n_events: 2000,
            ..Default::default()
        },
    );
    let workload = figure_2_workload(&mut catalog);
    let plan = sharon_plan(&workload);
    assert_sharded_matches_sequential(&catalog, &workload, &plan, &events, "ecommerce");

    for theta in [0.8, 1.2] {
        let mut catalog = Catalog::new();
        let events = ecommerce::generate(
            &mut catalog,
            &EcommerceConfig {
                n_items: 8,
                n_customers: 12,
                events_per_sec: 1000,
                n_events: 8000,
                skew: theta,
                ..Default::default()
            },
        );
        let workload = parse_workload(
            &mut catalog,
            [
                "RETURN COUNT(*) PATTERN SEQ(Laptop, Case, Adapter) WHERE [customer] WITHIN 2 s SLIDE 500 ms",
                "RETURN COUNT(*) PATTERN SEQ(Laptop, Case) WHERE [customer] WITHIN 2 s SLIDE 500 ms",
                "RETURN MIN(Case.price) PATTERN SEQ(Laptop, Case) WHERE [customer] WITHIN 2 s SLIDE 500 ms",
            ],
        )
        .unwrap();
        assert_sharded_matches_sequential(
            &catalog,
            &workload,
            &SharingPlan::non_shared(),
            &events,
            &format!("ecommerce/theta={theta}"),
        );
    }
}

#[test]
fn mixed_global_and_grouped_partitions() {
    // one workload containing grouped and ungrouped partitions: shards
    // must partition groups AND distribute whole global partitions
    let mut catalog = Catalog::new();
    for n in ["A", "B", "C"] {
        catalog.register_with_schema(n, Schema::new(["g", "v"]));
    }
    let workload = parse_workload(
        &mut catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY g WITHIN 20 ms SLIDE 4 ms",
            "RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 20 ms SLIDE 4 ms",
            "RETURN SUM(B.v) PATTERN SEQ(A, B, C) WITHIN 12 ms SLIDE 4 ms",
            "RETURN COUNT(*) PATTERN SEQ(B, C) WITHIN 8 ms SLIDE 8 ms",
        ],
    )
    .unwrap();
    let names = ["A", "B", "C"];
    let events: Vec<Event> = (0..3000u64)
        .map(|i| {
            let ty = catalog.lookup(names[(i % 3) as usize]).unwrap();
            Event::with_attrs(
                ty,
                Timestamp(i),
                vec![Value::Int((i / 3) as i64 % 17), Value::Int((i % 5) as i64)],
            )
        })
        .collect();
    assert_sharded_matches_sequential(
        &catalog,
        &workload,
        &SharingPlan::non_shared(),
        &events,
        "mixed-partitions",
    );

    // global partitions only: each scope's whole stream is one group on
    // one shard
    let mut catalog = Catalog::new();
    catalog.register_with_schema("A", Schema::new(["v"]));
    catalog.register_with_schema("B", Schema::new(["v"]));
    let workload = parse_workload(
        &mut catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 40 ms SLIDE 8 ms",
            "RETURN SUM(B.v) PATTERN SEQ(A, B) WITHIN 40 ms SLIDE 8 ms",
        ],
    )
    .unwrap();
    let a = catalog.lookup("A").unwrap();
    let b = catalog.lookup("B").unwrap();
    let events: Vec<Event> = (0..4000u64)
        .map(|i| {
            Event::with_attrs(
                if i % 2 == 0 { a } else { b },
                Timestamp(i),
                vec![Value::Int((i % 9) as i64)],
            )
        })
        .collect();
    assert_sharded_matches_sequential(
        &catalog,
        &workload,
        &SharingPlan::non_shared(),
        &events,
        "global-partition",
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random group cardinalities, Zipf group skew, shard counts, and
    /// stream shapes: the sharded runtime is always `semantically_eq` to
    /// the sequential one.
    #[test]
    fn random_group_cardinalities(
        cardinality in 1i64..=64,
        theta_tenths in 0u32..=16,
        shards in 1usize..=9,
        raw in prop::collection::vec((0usize..3, 0u64..=2, 0i64..=9, 0u32..1000), 0..=120),
    ) {
        let mut catalog = Catalog::new();
        for n in ["A", "B", "C"] {
            catalog.register_with_schema(n, Schema::new(["g", "v"]));
        }
        let workload = parse_workload(
            &mut catalog,
            [
                "RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY g WITHIN 10 ms SLIDE 2 ms",
                "RETURN SUM(C.v) PATTERN SEQ(B, C) GROUP BY g WITHIN 10 ms SLIDE 2 ms",
            ],
        )
        .unwrap();
        // the group of each row is Zipf(theta) over `cardinality` ranks,
        // drawn from its uniform `u`: rank r weighs 1 / (r + 1)^theta
        let theta = theta_tenths as f64 / 10.0;
        let weights: Vec<f64> = (0..cardinality).map(|r| ((r + 1) as f64).powf(-theta)).collect();
        let total: f64 = weights.iter().sum();
        let zipf = |u: u32| {
            let mut left = (u as f64 + 0.5) / 1000.0 * total;
            let rank = weights.iter().position(|w| {
                left -= w;
                left <= 0.0
            });
            rank.unwrap_or(weights.len() - 1) as i64
        };
        let names = ["A", "B", "C"];
        let mut t = 0u64;
        let events: Vec<Event> = raw
            .into_iter()
            .map(|(ty, dt, v, u)| {
                t += dt;
                Event::with_attrs(
                    catalog.lookup(names[ty]).unwrap(),
                    Timestamp(t),
                    vec![Value::Int(zipf(u)), Value::Int(v)],
                )
            })
            .collect();

        let batch = EventBatch::from_events(&events);
        let mut sequential = Executor::non_shared(&catalog, &workload).unwrap();
        sequential.process_columnar(&batch);
        let want_matched = sequential.events_matched();
        let want = sequential.finish();
        proptest::prop_assume!(support::has_rows_of_each(&want, workload.ids()));

        let mut sharded = ShardedExecutor::with_options(
            &catalog,
            &workload,
            &SharingPlan::non_shared(),
            shards,
            sharon_executor::ShardedOptions::default(),
        )
        .unwrap();
        sharded.process_columnar(&batch);
        let report = sharded.finish_with_stats();
        let (got, matched) = (report.results, report.events_matched);
        support::assert_equivalent(
            &got,
            &want,
            workload.ids(),
            1e-9,
            format_args!("cardinality {cardinality} theta {theta} shards {shards}: sharded"),
        );
        proptest::prop_assert_eq!(matched, want_matched);
    }

    /// Ragged columnar batch sizes — empty and single-event batches
    /// included — never change results: chopping the stream into columnar
    /// chunks of arbitrary sizes is equivalent to one whole batch,
    /// sequentially and under route-once sharding.
    #[test]
    fn ragged_columnar_batches(
        shards in 1usize..=5,
        chunk_lens in prop::collection::vec(0usize..=17, 1..=40),
        raw in prop::collection::vec((0usize..3, 0u64..=2, 0i64..=9), 0..=150),
    ) {
        let mut catalog = Catalog::new();
        for n in ["A", "B", "C"] {
            catalog.register_with_schema(n, Schema::new(["g", "v"]));
        }
        let workload = parse_workload(
            &mut catalog,
            [
                "RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY g WITHIN 10 ms SLIDE 2 ms",
                "RETURN SUM(C.v) PATTERN SEQ(B, C) GROUP BY g WITHIN 10 ms SLIDE 2 ms",
            ],
        )
        .unwrap();
        let names = ["A", "B", "C"];
        let mut t = 0u64;
        let events: Vec<Event> = raw
            .into_iter()
            .map(|(ty, dt, v)| {
                t += dt;
                Event::with_attrs(
                    catalog.lookup(names[ty]).unwrap(),
                    Timestamp(t),
                    vec![Value::Int(v % 11), Value::Int(v)],
                )
            })
            .collect();

        // chop the stream into ragged columnar chunks (0-length chunks
        // produce genuinely empty batches; leftover events form a tail)
        let mut batches: Vec<EventBatch> = Vec::new();
        let mut rest = &events[..];
        for len in chunk_lens {
            let take = len.min(rest.len());
            let (head, tail) = rest.split_at(take);
            batches.push(EventBatch::from_events(head));
            rest = tail;
        }
        batches.push(EventBatch::from_events(rest));

        let mut whole = Executor::non_shared(&catalog, &workload).unwrap();
        whole.process_columnar(&EventBatch::from_events(&events));
        let want = whole.finish();
        proptest::prop_assume!(support::has_rows_of_each(&want, workload.ids()));

        let mut columnar = Executor::non_shared(&catalog, &workload).unwrap();
        for b in &batches {
            columnar.process_columnar(b);
        }
        let got = columnar.finish();
        support::assert_equivalent(
            &got,
            &want,
            workload.ids(),
            1e-9,
            "sequential columnar over ragged batches",
        );

        // a small flush threshold forces mid-stream route-once fan-outs
        let plan = SharingPlan::non_shared();
        let options = sharon_executor::ShardedOptions {
            batch_size: 13,
            ..Default::default()
        };
        let mut sharded =
            ShardedExecutor::with_options(&catalog, &workload, &plan, shards, options).unwrap();
        for b in &batches {
            sharded.process_columnar(b);
        }
        let got = sharded.finish();
        support::assert_equivalent(
            &got,
            &want,
            workload.ids(),
            1e-9,
            format_args!("{shards} shards: columnar route-once over ragged batches"),
        );
    }
}

/// A gated run reads its matched count after draining its event-time
/// gate, sequentially as sharded: under a lateness that covers the
/// stream's disorder, the rows still buffered when the stream ends count
/// too, so `shards(0)` and every shard count report the same total.
#[test]
fn gated_matched_counts_agree_across_shard_counts() {
    let mut catalog = Catalog::new();
    let mut events = taxi::generate(
        &mut catalog,
        &TaxiConfig {
            n_events: 5000,
            ..Default::default()
        },
    );
    let workload = figure_1_workload(&mut catalog);
    sharon::streams::scramble_events(&mut events, 16, 0x6A7E_D0C5);
    let batch = EventBatch::from_events(&events);
    let lateness = sharon::streams::required_lateness(&batch);
    assert!(lateness > 0, "the shuffle must introduce disorder");
    let rates = RateMap::uniform(100.0);
    let run = |shards: usize| {
        let (mut ex, _) = SharonBuilder::new(&catalog, &workload, &rates)
            .shards(shards)
            .lateness(lateness)
            .build_executor()
            .expect("workload compiles");
        ex.process_columnar(&batch);
        ex.finish_with_stats()
    };
    let report = run(0);
    let (want, want_matched) = (report.results, report.events_matched);
    for shards in shard_counts() {
        let report = run(shards);
        let (got, matched) = (report.results, report.events_matched);
        assert_eq!(
            matched, want_matched,
            "{shards} shards: matched count differs from the sequential run"
        );
        support::assert_equivalent(
            &got,
            &want,
            workload.ids(),
            1e-9,
            format_args!("{shards} shards: gated results"),
        );
    }
}

/// The per-scope scan tallies `finish_with_stats` returns are read after
/// the sharded runtime's router thread is joined: they cover the whole
/// stream and equal the sequential engine's, scope for scope. Read before
/// the router drained (as `scan_stats` on a live executor can be), a
/// taxi 20k run at two shards once reported 8192 of 20000 rows scanned.
#[test]
fn scan_tallies_after_finish_cover_the_whole_stream() {
    let mut catalog = Catalog::new();
    let batch = taxi::generate_batch(
        &mut catalog,
        &TaxiConfig {
            n_events: 20_000,
            ..Default::default()
        },
    );
    let workload = figure_1_workload(&mut catalog);
    let rates = RateMap::uniform(100.0);
    let run = |shards: usize| {
        let (mut ex, _) = SharonBuilder::new(&catalog, &workload, &rates)
            .shards(shards)
            .build_executor()
            .expect("workload compiles");
        ex.process_columnar(&batch);
        ex.finish_with_stats().scan_stats
    };
    let want = run(0);
    assert!(!want.is_empty(), "the sequential engine tracks its scan");
    assert!(
        want.iter()
            .all(|&(scanned, _)| scanned == batch.len() as u64),
        "every scope scans every row: {want:?}"
    );
    assert_eq!(run(2), want, "sharded tallies after finish");
}
