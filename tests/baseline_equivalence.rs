//! Property-based equivalence between the two-step baselines (Flink-like,
//! SPASS-like) and the online executor: all four approaches of Figure 3
//! answer identically — they differ only in cost.
//!
//! Also pins the baselines' *columnar* pipeline (compiled scan + stateful
//! dispatch over `EventBatch` row indices) fed whole batches and their
//! *sharded* route-once runs against the same baseline fed one row per
//! batch (the per-event cadence), on all three paper streams and over
//! ragged batch sizes (empty and single-event batches included): neither
//! the batch size nor sharding is ever a semantics change — not even on a
//! Zipf-skewed stream, where every strategy still agrees.

use proptest::prelude::*;
use sharon::executor::ShardedOptions;
use sharon::prelude::*;
use sharon::streams::ecommerce::{self, EcommerceConfig};
use sharon::streams::linear_road::{self, LinearRoadConfig};
use sharon::streams::taxi::{self, TaxiConfig};
use sharon::streams::workload::{
    figure_1_workload, figure_2_workload, overlapping_workload, WorkloadConfig,
};
use sharon::twostep::{FlinkLike, SpassLike};
use sharon::{build_executor, Strategy};

#[path = "support.rs"]
mod support;

fn build(
    n_types: usize,
    queries: &[(usize, usize)],
    within: u64,
    slide: u64,
) -> (Catalog, Workload) {
    let mut c = Catalog::new();
    for i in 0..n_types {
        c.register_with_schema(&format!("T{i}"), Schema::new(["g", "v"]));
    }
    let mut w = Workload::new();
    for &(offset, len) in queries {
        let names: Vec<String> = (0..len)
            .map(|i| format!("T{}", (offset + i) % n_types))
            .collect();
        let src = format!(
            "RETURN COUNT(*) PATTERN SEQ({}) WITHIN {} ms SLIDE {} ms",
            names.join(", "),
            within,
            slide
        );
        w.push(parse_query(&mut c, &src).expect("parses"));
    }
    (c, w)
}

/// `events` one row per batch: the per-event cadence of the one columnar
/// entry point.
fn row_batches(events: &[Event]) -> impl Iterator<Item = EventBatch> + '_ {
    events
        .iter()
        .map(|e| EventBatch::from_events(std::slice::from_ref(e)))
}

fn materialize(c: &Catalog, n_types: usize, raw: &[(usize, u64)]) -> Vec<Event> {
    let mut t = 0u64;
    raw.iter()
        .map(|&(ty, dt)| {
            t += dt;
            Event::with_attrs(
                c.lookup(&format!("T{}", ty % n_types)).unwrap(),
                Timestamp(t),
                vec![Value::Int(0), Value::Int(1)],
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Flink-like ≡ online non-shared, on arbitrary small streams.
    #[test]
    fn flink_like_matches_online(
        n_types in 3usize..=6,
        queries in prop::collection::vec((0usize..6, 1usize..=3), 1..=3),
        raw in prop::collection::vec((0usize..6, 0u64..=3), 0..=40),
        slide in 1u64..=3,
        within_x in 1u64..=6,
    ) {
        let within = within_x * slide;
        let queries: Vec<_> = queries.into_iter()
            .map(|(o, l)| (o % n_types, l.min(n_types)))
            .collect();
        let (c, w) = build(n_types, &queries, within, slide);
        let batch = EventBatch::from_events(&materialize(&c, n_types, &raw));

        let mut online = Executor::non_shared(&c, &w).unwrap();
        let mut flink = FlinkLike::new(&c, &w).unwrap();
        online.process_columnar(&batch);
        flink.process_columnar(&batch);
        let or = online.finish();
        let fr = flink.finish();
        prop_assert!(
            fr.semantically_eq(&or, 1e-9),
            "flink {:?}\nonline {:?}",
            fr.of_query_sorted(QueryId(0)),
            or.of_query_sorted(QueryId(0))
        );
    }

    /// SPASS-like under the Sharon plan ≡ online shared executor.
    #[test]
    fn spass_like_matches_online(
        n_types in 3usize..=6,
        queries in prop::collection::vec((0usize..6, 2usize..=3), 2..=3),
        raw in prop::collection::vec((0usize..6, 0u64..=3), 0..=36),
        slide in 1u64..=3,
        within_x in 1u64..=6,
    ) {
        let within = within_x * slide;
        let queries: Vec<_> = queries.into_iter()
            .map(|(o, l)| (o % n_types, l.min(n_types)))
            .collect();
        let (c, w) = build(n_types, &queries, within, slide);
        let batch = EventBatch::from_events(&materialize(&c, n_types, &raw));

        let rates = RateMap::uniform(50.0);
        let outcome = optimize_sharon(&w, &rates, &OptimizerConfig::default());

        let mut online = Executor::new(&c, &w, &outcome.plan).unwrap();
        let mut spass = SpassLike::new(&c, &w, &outcome.plan).unwrap();
        online.process_columnar(&batch);
        spass.process_columnar(&batch);
        let or = online.finish();
        let sr = spass.finish();
        prop_assert!(
            sr.semantically_eq(&or, 1e-9),
            "spass {:?}\nonline {:?}",
            sr.of_query_sorted(QueryId(0)),
            or.of_query_sorted(QueryId(0))
        );
    }
}

/// One row per batch vs one whole batch vs sharded route-once for both
/// baselines: batch size and the sharded runtime are pure re-arrangements
/// of the same work.
fn assert_baseline_forms_agree(
    catalog: &Catalog,
    workload: &Workload,
    events: &[Event],
    label: &str,
) {
    let rates = RateMap::uniform(100.0);
    let plan = optimize_sharon(workload, &rates, &OptimizerConfig::default()).plan;
    let batch = EventBatch::from_events(events);

    // Flink-like: one-row-batch reference, then whole batch, then sharded
    let mut reference = FlinkLike::new(catalog, workload).unwrap();
    for row in row_batches(events) {
        reference.process_columnar(&row);
    }
    let want = reference.finish();
    assert!(!want.is_empty(), "{label}: stream must produce matches");

    let mut columnar = FlinkLike::new(catalog, workload).unwrap();
    columnar.process_columnar(&batch);
    let got = columnar.finish();
    assert!(
        got.semantically_eq(&want, 1e-9),
        "{label}: flink whole batch diverges from one row per batch ({} vs {} results)",
        got.len(),
        want.len(),
    );
    for shards in [1usize, 2, 8] {
        let mut sharded =
            FlinkLike::sharded(catalog, workload, shards, &ShardedOptions::default()).unwrap();
        sharded.process_columnar(&batch);
        let got = sharded.finish();
        assert!(
            got.semantically_eq(&want, 1e-9),
            "{label}: flink {shards}-shard route-once diverges",
        );
    }

    // SPASS-like under the Sharon construction-sharing plan
    let mut reference = SpassLike::new(catalog, workload, &plan).unwrap();
    for row in row_batches(events) {
        reference.process_columnar(&row);
    }
    let want = reference.finish();

    let mut columnar = SpassLike::new(catalog, workload, &plan).unwrap();
    columnar.process_columnar(&batch);
    let got = columnar.finish();
    assert!(
        got.semantically_eq(&want, 1e-9),
        "{label}: spass whole batch diverges from one row per batch ({} vs {} results)",
        got.len(),
        want.len(),
    );
    for shards in [1usize, 2, 8] {
        let mut sharded =
            SpassLike::sharded(catalog, workload, &plan, shards, &ShardedOptions::default())
                .unwrap();
        sharded.process_columnar(&batch);
        let got = sharded.finish();
        assert!(
            got.semantically_eq(&want, 1e-9),
            "{label}: spass {shards}-shard route-once diverges",
        );
    }
}

#[test]
fn columnar_baselines_match_per_event_on_taxi() {
    let mut catalog = Catalog::new();
    let events = taxi::generate(
        &mut catalog,
        &TaxiConfig {
            n_events: 3000,
            n_streets: 7,
            n_vehicles: 50,
            ..Default::default()
        },
    );
    let workload = figure_1_workload(&mut catalog);
    assert_baseline_forms_agree(&catalog, &workload, &events, "taxi");
}

#[test]
fn columnar_baselines_match_per_event_on_linear_road() {
    let mut catalog = Catalog::new();
    let events = linear_road::generate(
        &mut catalog,
        &LinearRoadConfig {
            duration_secs: 20,
            cars_per_sec: 2.0,
            n_segments: 10,
            trip_segments: 40,
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
    assert_baseline_forms_agree(&catalog, &workload, &events, "linear-road");
}

#[test]
fn columnar_baselines_match_per_event_on_ecommerce() {
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
    assert_baseline_forms_agree(&catalog, &workload, &events, "ecommerce");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Ragged columnar batches — empty and single-event batches included —
    /// never change baseline results, sequentially or under route-once
    /// sharding with a small flush threshold.
    #[test]
    fn ragged_batches_never_change_baseline_results(
        shards in 1usize..=5,
        chunk_lens in prop::collection::vec(0usize..=13, 1..=30),
        raw in prop::collection::vec((0usize..4, 0u64..=3, 0i64..=9), 0..=100),
    ) {
        let mut c = Catalog::new();
        for i in 0..4 {
            c.register_with_schema(&format!("T{i}"), Schema::new(["g", "v"]));
        }
        let w = parse_workload(
            &mut c,
            [
                "RETURN COUNT(*) PATTERN SEQ(T0, T1) GROUP BY g WITHIN 10 ms SLIDE 2 ms",
                "RETURN SUM(T2.v) PATTERN SEQ(T1, T2, T3) GROUP BY g WITHIN 10 ms SLIDE 2 ms",
            ],
        )
        .unwrap();
        let mut t = 0u64;
        let events: Vec<Event> = raw
            .into_iter()
            .map(|(ty, dt, v)| {
                t += dt;
                Event::with_attrs(
                    c.lookup(&format!("T{ty}")).unwrap(),
                    Timestamp(t),
                    vec![Value::Int(v % 7), Value::Int(v)],
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

        let whole = EventBatch::from_events(&events);
        let mut reference = FlinkLike::new(&c, &w).unwrap();
        reference.process_columnar(&whole);
        let want = reference.finish();

        let mut columnar = FlinkLike::new(&c, &w).unwrap();
        for b in &batches {
            columnar.process_columnar(b);
        }
        let got = columnar.finish();
        prop_assert!(
            got.semantically_eq(&want, 1e-9),
            "flink columnar diverges over ragged batches"
        );

        let plan = SharingPlan::non_shared();
        let mut reference = SpassLike::new(&c, &w, &plan).unwrap();
        reference.process_columnar(&whole);
        let spass_want = reference.finish();

        // both baselines through their one sharded constructor — and so
        // through the one shared `ScopeFanShard` — on one router and two,
        // arrival order and event time (the stream is in order, so any
        // lateness covers it); a small flush threshold forces mid-stream
        // route-once fan-outs
        for routers in [1usize, 2] {
            for lateness in [None, Some(5)] {
                let options = ShardedOptions {
                    batch_size: 13,
                    routers,
                    lateness,
                    ..ShardedOptions::default()
                };
                let mut flink = FlinkLike::sharded(&c, &w, shards, &options).unwrap();
                let mut spass = SpassLike::sharded(&c, &w, &plan, shards, &options).unwrap();
                for b in &batches {
                    flink.process_columnar(b);
                    spass.process_columnar(b);
                }
                prop_assert!(
                    flink.finish().semantically_eq(&want, 1e-9),
                    "flink {} shards, {} router(s), lateness {:?}: ragged route-once diverges",
                    shards,
                    routers,
                    lateness
                );
                prop_assert!(
                    spass.finish().semantically_eq(&spass_want, 1e-9),
                    "spass {} shards, {} router(s), lateness {:?}: ragged route-once diverges",
                    shards,
                    routers,
                    lateness
                );
            }
        }
    }
}

/// The two-step approaches construct sequences; the online ones never do.
/// This is the paper's central cost asymmetry (Figure 13): verify the
/// construction counters actually grow polynomially on a dense stream.
#[test]
fn two_step_constructs_polynomially_many_sequences() {
    let mut c = Catalog::new();
    let w = parse_workload(
        &mut c,
        ["RETURN COUNT(*) PATTERN SEQ(A, B, C) WITHIN 10 s SLIDE 10 s"],
    )
    .unwrap();
    let t = |n: &str| c.lookup(n).unwrap();
    let mut flink = FlinkLike::new(&c, &w).unwrap();
    // 20 As, 20 Bs, then one C: the C constructs 20*20 = 400 sequences
    let types = std::iter::repeat_n("A", 20)
        .chain(std::iter::repeat_n("B", 20))
        .chain(["C"]);
    let events: Vec<Event> = types
        .zip(1..)
        .map(|(name, ts)| Event::new(t(name), Timestamp(ts)))
        .collect();
    flink.process_columnar(&EventBatch::from_events(&events));
    assert_eq!(flink.sequences_constructed(), 400);
    let res = flink.finish();
    assert_eq!(res.total_count(QueryId(0)), 400);
}

/// All four strategies on a Zipf-skewed stream through the one sharded
/// build path, [`SharonBuilder`]: everyone agrees with the sequential
/// reference at every shard count and routing-plane size.
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
    let workload = support::short_window_taxi_workload(&mut catalog);
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
        for shards in support::shard_counts(&[2, 3, 8]) {
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

/// The baselines count their stateless-scan survivors: sequential,
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
