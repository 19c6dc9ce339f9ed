//! Property-based equivalence between the two-step baselines (Flink-like,
//! SPASS-like) and the online executor: all four approaches of Figure 3
//! answer identically — they differ only in cost.
//!
//! Also pins the baselines' *columnar* pipeline (compiled scan + stateful
//! dispatch over `EventBatch` row indices) fed whole batches against the
//! same baseline fed one row per batch (the per-event cadence), on all
//! three paper streams and over ragged batch sizes (empty and
//! single-event batches included): the batch size is never a semantics
//! change — not even on a Zipf-skewed stream, where every strategy still
//! agrees with the sharded online runtime. The baselines run
//! sequentially and in arrival order only: event time (lateness, the
//! reorder gate) belongs to the online executor and is checked by the
//! gated-vs-ungated online suites.

use proptest::prelude::*;
use sharon::prelude::*;
use sharon::streams::ecommerce::{self, EcommerceConfig};
use sharon::streams::linear_road::{self, LinearRoadConfig};
use sharon::streams::taxi::{self, TaxiConfig};
use sharon::streams::workload::{
    figure_1_workload, figure_2_workload, overlapping_workload, WorkloadConfig,
};
use sharon::twostep::{FlinkLike, SpassLike};
use sharon::Strategy;

#[path = "support.rs"]
mod support;

/// `RETURN` clause `kind` (0–4: `COUNT(*)`, then `SUM` / `MIN` / `MAX` /
/// `AVG` over the value attribute `v` of `target`).
fn agg_clause(kind: usize, target: &str) -> String {
    match kind % 5 {
        0 => "COUNT(*)".to_string(),
        k => format!("{}({target}.v)", ["SUM", "MIN", "MAX", "AVG"][k - 1]),
    }
}

/// `n_types` types `T0 …` with attributes `(g, v)`, and one query per
/// `(offset, len, agg)`: a `len`-type run of the types from `offset` on,
/// aggregating `agg` (see [`agg_clause`]) over the run's last type.
fn build(
    n_types: usize,
    queries: &[(usize, usize, usize)],
    within: u64,
    slide: u64,
) -> (Catalog, Workload) {
    let mut c = Catalog::new();
    for i in 0..n_types {
        c.register_with_schema(&format!("T{i}"), Schema::new(["g", "v"]));
    }
    let mut w = Workload::new();
    for &(offset, len, agg) in queries {
        let names: Vec<String> = (0..len)
            .map(|i| format!("T{}", (offset + i) % n_types))
            .collect();
        let src = format!(
            "RETURN {} PATTERN SEQ({}) WITHIN {} ms SLIDE {} ms",
            agg_clause(agg, names.last().unwrap()),
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

/// Every query of `w` planted at the head of a stream: position `i` of
/// each pattern at `i` ms, in group 0 with value `v`. Window 0 then
/// holds a sequence of every query whenever WITHIN is at least
/// [`longest`], so the reference has a row of each query and a drawn case
/// is not rejected for want of one.
fn planted(w: &Workload, v: i64) -> Vec<Event> {
    let mut events = Vec::new();
    for i in 0..longest(w) {
        let mut types: Vec<EventTypeId> = w
            .queries()
            .iter()
            .filter_map(|q| q.pattern.types().get(i).copied())
            .collect();
        types.sort();
        types.dedup();
        for ty in types {
            let attrs = vec![Value::Int(0), Value::Int(v)];
            events.push(Event::with_attrs(ty, Timestamp(i as u64), attrs));
        }
    }
    events
}

/// The length of `w`'s longest pattern.
fn longest(w: &Workload) -> usize {
    w.queries()
        .iter()
        .map(|q| q.pattern.len())
        .max()
        .unwrap_or(0)
}

/// `within_x × slide`, raised to the smallest multiple of `slide` that
/// covers a pattern of `longest` types.
fn covering_within(longest: usize, within_x: u64, slide: u64) -> u64 {
    within_x.max((longest as u64).div_ceil(slide)) * slide
}

/// `w`'s planted head (see [`planted`]), then events from `(type, time
/// step, v)` triples: one group, and the value attribute the aggregates
/// read.
fn materialize(c: &Catalog, w: &Workload, n_types: usize, raw: &[(usize, u64, i64)]) -> Vec<Event> {
    let mut events = planted(w, 1);
    let mut t = longest(w) as u64;
    events.extend(raw.iter().map(|&(ty, dt, v)| {
        t += dt;
        Event::with_attrs(
            c.lookup(&format!("T{}", ty % n_types)).unwrap(),
            Timestamp(t),
            vec![Value::Int(0), Value::Int(v)],
        )
    }));
    events
}

// The two-step baselines construct every sequence and share no kernel
// with the online executor: they are the oracle that catches a wrong
// runner, which an A-Seq reference would share. Streams are dense —
// several STARTs per slide and per timestamp — so runner records fold.
proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Flink-like ≡ online non-shared, on arbitrary small streams.
    #[test]
    fn flink_like_matches_online(
        n_types in 3usize..=6,
        queries in prop::collection::vec((0usize..6, 1usize..=3, 0usize..5), 1..=3),
        raw in prop::collection::vec((0usize..6, 0u64..=2, -5i64..=9), 0..=40),
        slide in 1u64..=5,
        within_x in 1u64..=6,
    ) {
        let queries: Vec<_> = queries.into_iter()
            .map(|(o, l, agg)| (o % n_types, l.min(n_types), agg))
            .collect();
        let longest = queries.iter().map(|q| q.1).max().unwrap_or(1);
        let within = covering_within(longest, within_x, slide);
        let (c, w) = build(n_types, &queries, within, slide);
        let batch = EventBatch::from_events(&materialize(&c, &w, n_types, &raw));

        let mut online = Executor::non_shared(&c, &w).unwrap();
        let mut flink = FlinkLike::new(&c, &w).unwrap();
        online.process_columnar(&batch);
        flink.process_columnar(&batch);
        let or = online.finish();
        let fr = flink.finish();
        prop_assume!(support::has_rows_of_each(&fr, w.ids()));
        support::assert_equal_up_to_summation_order(&or, &fr, w.ids(), format_args!(
            "online {:?}\nflink {:?}",
            or.of_query_sorted(QueryId(0)),
            fr.of_query_sorted(QueryId(0))
        ));
    }

    /// SPASS-like under the Sharon plan ≡ online shared executor. One
    /// aggregate serves the whole workload, so queries can still share.
    #[test]
    fn spass_like_matches_online(
        n_types in 3usize..=6,
        queries in prop::collection::vec((0usize..6, 2usize..=3), 2..=3),
        agg in 0usize..5,
        raw in prop::collection::vec((0usize..6, 0u64..=2, -5i64..=9), 0..=36),
        slide in 1u64..=5,
        within_x in 1u64..=6,
    ) {
        let queries: Vec<_> = queries.into_iter()
            .map(|(o, l)| (o % n_types, l.min(n_types), agg))
            .collect();
        let longest = queries.iter().map(|q| q.1).max().unwrap_or(1);
        let within = covering_within(longest, within_x, slide);
        let (c, w) = build(n_types, &queries, within, slide);
        let batch = EventBatch::from_events(&materialize(&c, &w, n_types, &raw));

        let rates = RateMap::uniform(50.0);
        let outcome = optimize_sharon(&w, &rates, &OptimizerConfig::default());

        let mut online = Executor::new(&c, &w, &outcome.plan).unwrap();
        let mut spass = SpassLike::new(&c, &w, &outcome.plan).unwrap();
        online.process_columnar(&batch);
        spass.process_columnar(&batch);
        let or = online.finish();
        let sr = spass.finish();
        prop_assume!(support::has_rows_of_each(&sr, w.ids()));
        support::assert_equal_up_to_summation_order(&or, &sr, w.ids(), format_args!(
            "online {:?}\nspass {:?}",
            or.of_query_sorted(QueryId(0)),
            sr.of_query_sorted(QueryId(0))
        ));
    }

    /// A chained plan: `(T1, T2, T3)` shared at stage 1 behind the private
    /// STARTs `T0` and `T4`, so the shared runner's records carry chain
    /// offsets. The online executor under that plan ≡ both baselines.
    #[test]
    fn chained_plan_matches_two_step(
        agg in 0usize..5,
        raw in prop::collection::vec((0usize..5, 0u64..=2, -5i64..=9), 0..=48),
        slide in 1u64..=5,
        within_x in 1u64..=6,
    ) {
        let mut c = Catalog::new();
        for i in 0..5 {
            c.register_with_schema(&format!("T{i}"), Schema::new(["g", "v"]));
        }
        let within = covering_within(4, within_x, slide);
        let w = parse_workload(
            &mut c,
            ["T0", "T4"].map(|first| {
                format!(
                    "RETURN {} PATTERN SEQ({first}, T1, T2, T3) \
                     WITHIN {within} ms SLIDE {slide} ms",
                    agg_clause(agg, "T3")
                )
            }),
        )
        .unwrap();
        let shared = Pattern::from_names(&mut c, ["T1", "T2", "T3"]);
        let plan = SharingPlan::new([PlanCandidate::new(shared, [QueryId(0), QueryId(1)])]);
        let parts = sharon::executor::compile(&c, &w, &plan).unwrap();
        prop_assert!(
            parts.iter().any(|p| p.runners.iter().any(|r| r.start_subs.len() == 2)),
            "the shared segment is a stage-1 runner of both queries"
        );
        let batch = EventBatch::from_events(&materialize(&c, &w, 5, &raw));

        let mut online = Executor::new(&c, &w, &plan).unwrap();
        let mut flink = FlinkLike::new(&c, &w).unwrap();
        let mut spass = SpassLike::new(&c, &w, &plan).unwrap();
        online.process_columnar(&batch);
        flink.process_columnar(&batch);
        spass.process_columnar(&batch);
        let (or, fr, sr) = (online.finish(), flink.finish(), spass.finish());
        prop_assume!(support::has_rows_of_each(&fr, w.ids()));
        support::assert_equal_up_to_summation_order(&or, &fr, w.ids(), "online vs flink");
        support::assert_equal_up_to_summation_order(&or, &sr, w.ids(), "online vs spass");
    }
}

/// One row per batch vs one whole batch for both baselines: the batch
/// size is a pure re-arrangement of the same work.
fn assert_baseline_forms_agree(
    catalog: &Catalog,
    workload: &Workload,
    events: &[Event],
    label: &str,
) {
    let rates = RateMap::uniform(100.0);
    let plan = optimize_sharon(workload, &rates, &OptimizerConfig::default()).plan;
    let batch = EventBatch::from_events(events);

    // Flink-like: one-row-batch reference, then whole batch
    let mut reference = FlinkLike::new(catalog, workload).unwrap();
    for row in row_batches(events) {
        reference.process_columnar(&row);
    }
    let want = reference.finish();

    let mut columnar = FlinkLike::new(catalog, workload).unwrap();
    columnar.process_columnar(&batch);
    let got = columnar.finish();
    support::assert_equivalent(
        &got,
        &want,
        workload.ids(),
        format_args!("{label}: flink whole batch vs one row per batch"),
    );

    // SPASS-like under the Sharon construction-sharing plan
    let mut reference = SpassLike::new(catalog, workload, &plan).unwrap();
    for row in row_batches(events) {
        reference.process_columnar(&row);
    }
    let want = reference.finish();

    let mut columnar = SpassLike::new(catalog, workload, &plan).unwrap();
    columnar.process_columnar(&batch);
    let got = columnar.finish();
    support::assert_equivalent(
        &got,
        &want,
        workload.ids(),
        format_args!("{label}: spass whole batch vs one row per batch"),
    );
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
    /// never change baseline results.
    #[test]
    fn ragged_batches_never_change_baseline_results(
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
        // the planted head's value keeps its group, 7 % 7 = 0, and makes
        // its SUM non-zero
        let mut events = planted(&w, 7);
        let mut t = longest(&w) as u64;
        events.extend(raw.into_iter().map(|(ty, dt, v)| {
            t += dt;
            Event::with_attrs(
                c.lookup(&format!("T{ty}")).unwrap(),
                Timestamp(t),
                vec![Value::Int(v % 7), Value::Int(v)],
            )
        }));

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

        let plan = SharingPlan::non_shared();
        let mut reference = SpassLike::new(&c, &w, &plan).unwrap();
        reference.process_columnar(&whole);
        let spass_want = reference.finish();

        // both baselines through the one two-step driver
        let mut flink = FlinkLike::new(&c, &w).unwrap();
        let mut spass = SpassLike::new(&c, &w, &plan).unwrap();
        for b in &batches {
            flink.process_columnar(b);
            spass.process_columnar(b);
        }
        prop_assume!(support::has_rows_of_each(&want, w.ids()));
        support::assert_equivalent(&flink.finish(), &want, w.ids(), "flink: ragged batches");
        support::assert_equivalent(
            &spass.finish(),
            &spass_want,
            w.ids(),
            "spass: ragged batches",
        );
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

/// All four strategies on a Zipf-skewed stream through [`SharonBuilder`]:
/// everyone agrees with the sequential reference — the online strategies
/// at every shard count, the baselines sequentially.
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

    let (mut reference, _) = SharonBuilder::new(&catalog, &workload, &rates)
        .strategy(Strategy::ASeq)
        .build_executor()
        .unwrap();
    reference.process_columnar(&batch);
    let want = reference.finish();

    let sharded = support::shard_counts(&[2, 3, 8]);
    for (strategy, shard_counts) in [
        (Strategy::Sharon, &sharded[..]),
        (Strategy::ASeq, &sharded[..]),
        (Strategy::FlinkLike, &[0][..]),
        (Strategy::SpassLike, &[0][..]),
    ] {
        for &shards in shard_counts {
            let (mut sharded, _) = SharonBuilder::new(&catalog, &workload, &rates)
                .strategy(strategy)
                .optimizer_config(cfg.clone())
                .shards(shards)
                .build_executor()
                .unwrap();
            sharded.process_columnar(&batch);
            let got = sharded.finish();
            let what = format_args!("{} at shards({shards}) on skewed input", strategy.name());
            if matches!(strategy, Strategy::FlinkLike | Strategy::SpassLike) {
                support::assert_equal_up_to_summation_order(&got, &want, workload.ids(), what);
            } else {
                support::assert_equivalent(&got, &want, workload.ids(), what);
            }
        }
    }
}

/// The baselines count their stateless-scan survivors: the live count,
/// the finished report, and a run over ragged batches all give the same
/// matched total.
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
    let build = |strategy: Strategy| {
        SharonBuilder::new(&catalog, &workload, &rates)
            .strategy(strategy)
            .build_executor()
            .unwrap()
            .0
    };

    for strategy in [Strategy::FlinkLike, Strategy::SpassLike] {
        let mut whole = build(strategy);
        whole.process_columnar(&batch);
        let live = whole.events_matched();
        let matched = whole.finish_with_stats().events_matched;
        assert!(
            matched > 0,
            "{}: matched events are counted",
            strategy.name()
        );
        assert_eq!(live, matched, "{}: live count", strategy.name());

        let events = batch.to_events();
        let mut ragged = build(strategy);
        for chunk in events.chunks(97) {
            ragged.process_columnar(&EventBatch::from_events(chunk));
        }
        assert_eq!(
            ragged.finish_with_stats().events_matched,
            matched,
            "{}: ragged batches change the matched count",
            strategy.name()
        );
    }
}
