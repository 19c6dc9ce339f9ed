//! Exactness of hot-group splitting under skewed `GROUP BY`
//! distributions: for every shard count and every stream, the sharded
//! runtime **with splitting active** produces results `semantically_eq`
//! to the sequential engine — splitting is a pure work partition with a
//! sub-aggregate merge, never a semantics change. Matched-event counts
//! must agree too (broadcast replicas are not double-counted).
//!
//! Windows here are short relative to the stream span so the split
//! warm-up (one window length) completes and the round-robin final-fold
//! path actually runs; `SplitConfig::eager` lowers the hotness noise
//! floor so small synthetic streams split. The shard counts honour
//! `SHARON_SHARDS` (the CI matrix runs 2 and 4 explicitly) and the
//! routing-plane sizes honour `SHARON_ROUTERS` — splitting stays exact
//! when the hot scope's router is one of several.
//!
//! With `SHARON_DISORDER=K` set, the split runs additionally ingest a
//! bounded-disorder shuffle of the stream with a covering lateness — skew
//! splitting and event-time gating compose, and results must still equal
//! the in-order sequential reference.

use proptest::prelude::{prop, proptest, ProptestConfig};
use sharon::prelude::*;
use sharon::streams::ecommerce::{self, EcommerceConfig};
use sharon::streams::linear_road::{self, LinearRoadConfig};
use sharon::streams::taxi::{self, TaxiConfig};
use sharon::{build_executor, SharonBuilder, Strategy};
use sharon_executor::SplitConfig;

#[path = "support.rs"]
mod support;

/// Shard counts under test (the default spread includes more shards than
/// hot groups).
fn shard_counts() -> Vec<usize> {
    support::shard_counts(&[2, 3, 8])
}

/// Run `events` through the sequential engine and, per shard count, the
/// sharded runtime with eager hot-group splitting; assert exact result
/// and matched-count agreement, and that splitting actually fired.
fn assert_split_sharded_matches_sequential(
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
    assert!(!want.is_empty(), "{label}: stream must produce matches");

    // SHARON_DISORDER: ingest a bounded-disorder shuffle with a covering
    // lateness instead — split merging and event-time gating compose
    let (run_events, lateness) = match support::disordered(events) {
        Some((shuffled, need)) => (shuffled, Some(need)),
        None => (events.to_vec(), None),
    };
    let batch = EventBatch::from_events(&run_events);
    for shards in shard_counts() {
        for routers in support::router_counts() {
            // eager thresholds so moderate skew (theta 0.8) splits even
            // at two shards — correctness never depends on the tuning
            let split = SplitConfig {
                min_rows: 64,
                hot_fraction: 0.05,
                ..SplitConfig::default()
            };
            let mut sharded = ShardedExecutor::with_options(
                catalog,
                workload,
                plan,
                shards,
                sharon_executor::ShardedOptions {
                    batch_size: 512,
                    split,
                    routers,
                    lateness,
                    ..Default::default()
                },
            )
            .expect("sharded compiles");
            sharded.process_columnar(&batch);
            // exact: covers every batch ingested so far
            let split_groups = sharded.split_snapshot();
            let (got, matched, _state) = sharded.finish_with_stats();
            assert!(
                shards == 1 || split_groups > 0,
                "{label}: {shards} shards (routers {routers}): the skewed \
                 stream must trigger a split"
            );
            assert!(
                got.semantically_eq(&want, 1e-9),
                "{label}: {shards} shards (routers {routers}) with splitting \
                 diverge from sequential ({} vs {} results, {split_groups} \
                 split groups)",
                got.len(),
                want.len(),
            );
            assert_eq!(
                matched, want_matched,
                "{label}: {shards} shards (routers {routers}): replicated \
                 rows must not inflate matched"
            );
        }
    }
}

/// Short-window traffic workload over the taxi street types: the same
/// pattern shapes as Figure 1, with windows sized to the synthetic
/// stream span so split warm-up completes mid-run. Mixed aggregate
/// kinds cover both cells (COUNT kernel and the stats kernel's
/// AVG-merges-via-count+sum path).
fn short_window_taxi_workload(catalog: &mut Catalog) -> Workload {
    parse_workload(
        catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt, StateSt) WHERE [vehicle] WITHIN 2 s SLIDE 500 ms",
            "RETURN COUNT(*) PATTERN SEQ(MainSt, StateSt) WHERE [vehicle] WITHIN 2 s SLIDE 500 ms",
            "RETURN AVG(MainSt.speed) PATTERN SEQ(OakSt, MainSt) WHERE [vehicle] WITHIN 2 s SLIDE 500 ms",
            "RETURN MAX(ParkAve.speed) PATTERN SEQ(ElmSt, ParkAve) WHERE [vehicle] WITHIN 2 s SLIDE 500 ms",
        ],
    )
    .expect("short-window taxi workload parses")
}

fn sharon_plan(workload: &Workload) -> SharingPlan {
    let rates = RateMap::uniform(100.0);
    let outcome = optimize_sharon(workload, &rates, &OptimizerConfig::default());
    outcome.plan.validate(workload).expect("plan validates");
    outcome.plan
}

#[test]
fn taxi_zipf_skew_all_shard_counts() {
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
        let workload = short_window_taxi_workload(&mut catalog);
        assert_split_sharded_matches_sequential(
            &catalog,
            &workload,
            &SharingPlan::non_shared(),
            &events,
            &format!("taxi/theta={theta}/non-shared"),
        );
        let plan = sharon_plan(&workload);
        assert_split_sharded_matches_sequential(
            &catalog,
            &workload,
            &plan,
            &events,
            &format!("taxi/theta={theta}/sharon"),
        );
    }
}

#[test]
fn linear_road_zipf_skew() {
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
        assert_split_sharded_matches_sequential(
            &catalog,
            &workload,
            &SharingPlan::non_shared(),
            &events,
            &format!("linear-road/theta={theta}"),
        );
    }
}

#[test]
fn ecommerce_zipf_skew() {
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
        assert_split_sharded_matches_sequential(
            &catalog,
            &workload,
            &SharingPlan::non_shared(),
            &events,
            &format!("ecommerce/theta={theta}"),
        );
    }
}

/// The global (no `GROUP BY`) partition is the extreme skew case — one
/// group carries the whole scope. Splitting must spread it and still
/// merge exactly.
#[test]
fn global_partition_splits_exactly() {
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
    assert_split_sharded_matches_sequential(
        &catalog,
        &workload,
        &SharingPlan::non_shared(),
        &events,
        "global-partition",
    );
}

/// Hot-group splitting composed with bounded disorder, pinned without
/// `SHARON_DISORDER`: a split global partition ingesting a shuffled
/// stream under a covering lateness must equal the in-order sequential
/// reference, with equal matched counts. Regression for the split
/// warm-up base: owner-only rows routed before a split registers can
/// carry event times up to the router frontier, so round-robin must
/// warm up from the frontier — not the triggering row's own timestamp —
/// or non-owner shards fold rows against windows whose history they
/// never received.
#[test]
fn global_partition_split_exact_under_disorder() {
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
    let plan = SharingPlan::non_shared();

    let mut sequential = Executor::new(&catalog, &workload, &plan).expect("sequential compiles");
    sequential.process_columnar(&EventBatch::from_events(&events));
    let want_matched = sequential.events_matched();
    let want = sequential.finish();

    let mut shuffled = events;
    sharon::streams::scramble_events(&mut shuffled, 64, 0xBAD0_0DD5);
    let batch = EventBatch::from_events(&shuffled);
    let lateness = sharon::streams::required_lateness(&batch);
    assert!(
        lateness > 0,
        "the shuffle must actually disorder the stream"
    );

    for shards in shard_counts() {
        for routers in support::router_counts() {
            let mut sharded = ShardedExecutor::with_options(
                &catalog,
                &workload,
                &plan,
                shards,
                sharon_executor::ShardedOptions {
                    batch_size: 512,
                    split: SplitConfig {
                        min_rows: 64,
                        hot_fraction: 0.05,
                        ..SplitConfig::default()
                    },
                    routers,
                    lateness: Some(lateness),
                    ..Default::default()
                },
            )
            .expect("sharded compiles");
            sharded.process_columnar(&batch);
            let split_groups = sharded.split_snapshot();
            let (got, matched, _state) = sharded.finish_with_stats();
            assert!(
                shards == 1 || split_groups > 0,
                "{shards} shards (routers {routers}): the global partition must split"
            );
            assert!(
                got.semantically_eq(&want, 1e-9),
                "{shards} shards (routers {routers}): split + disorder diverge \
                 from the in-order sequential reference ({} vs {} results)",
                got.len(),
                want.len(),
            );
            assert_eq!(
                matched, want_matched,
                "{shards} shards (routers {routers}): matched counts diverge \
                 under disorder (gate-buffered rows must drain before stats \
                 are read)"
            );
        }
    }
}

/// All four strategies on skewed input through the one sharded build
/// path, [`SharonBuilder`] (default split tuning): the online
/// strategies may split, the two-step baselines never do, and everyone
/// still agrees with the sequential reference.
#[test]
fn all_strategies_agree_on_skewed_input() {
    let mut catalog = Catalog::new();
    let batch = taxi::generate_batch(
        &mut catalog,
        &TaxiConfig {
            n_events: 6000,
            n_streets: 7,
            n_vehicles: 40,
            skew: 1.2,
            ..Default::default()
        },
    );
    let workload = short_window_taxi_workload(&mut catalog);
    let rates = RateMap::uniform(100.0);
    let cfg = OptimizerConfig::default();

    let (mut reference, _) =
        build_executor(&catalog, &workload, &rates, Strategy::ASeq, &cfg).unwrap();
    reference.process_columnar(&batch);
    let want = reference.finish();
    assert!(!want.is_empty());

    for strategy in [
        Strategy::Sharon,
        Strategy::ASeq,
        Strategy::FlinkLike,
        Strategy::SpassLike,
    ] {
        for shards in shard_counts() {
            for routers in support::router_counts() {
                let (mut sharded, _) = SharonBuilder::new(&catalog, &workload, &rates)
                    .strategy(strategy)
                    .optimizer_config(cfg.clone())
                    .shards(shards)
                    .routers(routers)
                    .build_executor()
                    .unwrap();
                sharded.process_columnar(&batch);
                let got = sharded.finish();
                assert!(
                    got.semantically_eq(&want, 1e-9),
                    "{} sharded/{shards} (routers {routers}) diverges on skewed input",
                    strategy.name()
                );
            }
        }
    }
}

/// The baselines now count their stateless-scan survivors: sequential,
/// columnar, and sharded paths all report the same matched total.
#[test]
fn baseline_matched_counts_agree_across_paths() {
    let mut catalog = Catalog::new();
    let batch = ecommerce::generate_batch(
        &mut catalog,
        &EcommerceConfig {
            n_items: 8,
            n_customers: 10,
            events_per_sec: 500,
            n_events: 3000,
            skew: 1.2,
            ..Default::default()
        },
    );
    let workload = parse_workload(
        &mut catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(Laptop, Case) WHERE [customer] WITHIN 2 s SLIDE 1 s",
            "RETURN COUNT(*) PATTERN SEQ(Case, Adapter) WHERE [customer] WITHIN 2 s SLIDE 1 s",
        ],
    )
    .unwrap();
    let rates = RateMap::uniform(100.0);
    let cfg = OptimizerConfig::default();

    for strategy in [Strategy::FlinkLike, Strategy::SpassLike] {
        let (mut sequential, _) =
            build_executor(&catalog, &workload, &rates, strategy, &cfg).unwrap();
        sequential.process_columnar(&batch);
        let (_, matched) = sequential.finish_with_matched();
        assert!(
            matched > 0,
            "{}: matched events are counted",
            strategy.name()
        );

        for routers in support::router_counts() {
            let (mut sharded, _) = SharonBuilder::new(&catalog, &workload, &rates)
                .strategy(strategy)
                .optimizer_config(cfg.clone())
                .shards(3)
                .routers(routers)
                .build_executor()
                .unwrap();
            sharded.process_columnar(&batch);
            let (_, sharded_matched) = sharded.finish_with_matched();
            assert_eq!(
                matched,
                sharded_matched,
                "{} ({routers} router(s)): sharded matched count diverges",
                strategy.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Split-group sub-aggregate merge ≡ unsharded aggregation over
    /// random skew, group cardinality, shard count, and ragged columnar
    /// batches (the split decision then lands at arbitrary batch
    /// boundaries, exercising the warm-up hand-off).
    #[test]
    fn split_merge_equals_sequential(
        theta_tenths in 0u32..=16,
        cardinality in 1i64..=24,
        shards in 2usize..=6,
        routers in 1usize..=3,
        chunk_lens in prop::collection::vec(0usize..=23, 1..=30),
        seed in 0u64..200,
    ) {
        let theta = theta_tenths as f64 / 10.0;
        let mut catalog = Catalog::new();
        let events = taxi::generate(
            &mut catalog,
            &TaxiConfig {
                n_events: 600,
                n_streets: 4,
                n_vehicles: cardinality as usize,
                trip_len: 3,
                mean_interarrival_ms: 1,
                skew: theta,
                disorder: 0,
                seed,
            },
        );
        let workload = parse_workload(
            &mut catalog,
            [
                "RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt) WHERE [vehicle] WITHIN 50 ms SLIDE 10 ms",
                "RETURN AVG(MainSt.speed) PATTERN SEQ(OakSt, MainSt) WHERE [vehicle] WITHIN 50 ms SLIDE 10 ms",
            ],
        )
        .unwrap();

        let mut sequential = Executor::non_shared(&catalog, &workload).unwrap();
        sequential.process_columnar(&EventBatch::from_events(&events));
        let want_matched = sequential.events_matched();
        let want = sequential.finish();

        // ragged columnar chunks: 0-length chunks produce empty batches
        let mut batches: Vec<EventBatch> = Vec::new();
        let mut rest = &events[..];
        for len in chunk_lens {
            let take = len.min(rest.len());
            let (head, tail) = rest.split_at(take);
            batches.push(EventBatch::from_events(head));
            rest = tail;
        }
        batches.push(EventBatch::from_events(rest));

        let mut sharded = ShardedExecutor::with_options(
            &catalog,
            &workload,
            &SharingPlan::non_shared(),
            shards,
            sharon_executor::ShardedOptions {
                batch_size: 16,
                split: SplitConfig::eager(4),
                routers,
                ..Default::default()
            },
        )
        .unwrap();
        for b in &batches {
            sharded.process_columnar(b);
        }
        let (got, matched, _) = sharded.finish_with_stats();
        proptest::prop_assert!(
            got.semantically_eq(&want, 1e-9),
            "theta {} cardinality {} shards {} routers {}: split merge diverges ({} vs {} results)",
            theta, cardinality, shards, routers, got.len(), want.len()
        );
        proptest::prop_assert_eq!(matched, want_matched);
    }
}
