//! The parallel routing plane: `R` router threads each own a disjoint
//! subset of the compiled scopes and the workers merge the `R` routed
//! streams back into ingest order — so the plane size must be purely an
//! execution detail. These suites pin that down: routers {1, 2, 4}
//! (`SHARON_ROUTERS` pins one) × shard counts on all
//! three paper streams (TX, LR, EC) agree **exactly** — not just
//! semantically — with the single-router and sequential runs, including
//! under bounded disorder (`SHARON_DISORDER`) where the late-row drop
//! counts must also be router-invariant; a checkpoint written by a
//! 2-router plane resumes exactly (and refuses a mismatched plane size
//! loudly); and a proptest feeds the same stream through adversarial
//! ingest chunkings to prove the seq-tagged merge never reorders.

use sharon::executor::ShardedOptions;
use sharon::prelude::*;
use sharon::query::aggregate::AggValue;
use sharon::streams::ecommerce::{self, EcommerceConfig};
use sharon::streams::linear_road::{self, LinearRoadConfig};
use sharon::streams::taxi::{self, TaxiConfig};
use sharon::streams::workload::{
    figure_1_workload, figure_2_workload, overlapping_workload, WorkloadConfig,
};

#[path = "support.rs"]
mod support;

/// Routing-plane sizes under test: `SHARON_ROUTERS` pins one, otherwise
/// {1, 2, 4} — one beyond the 2-router plane the equivalence suites
/// already cross, so at least one configuration has more routers than
/// some shard counts.
fn plane_sizes() -> Vec<usize> {
    match support::runtime_options().routers {
        Some(r) => vec![r],
        None => vec![1, 2, 4],
    }
}

/// Exact (not epsilon) equality, query by query, in sorted order. The
/// routing plane must be invisible: every `(group, window) -> value`
/// entry identical, floats bit-for-bit — the merge replays ingest order,
/// so even float accumulation order is pinned.
fn assert_exact_eq(got: &ExecutorResults, want: &ExecutorResults, workload: &Workload, tag: &str) {
    for q in workload.ids() {
        let got_q: Vec<(String, Timestamp, AggValue)> = got
            .of_query_sorted(q)
            .into_iter()
            .map(|(g, w, v)| (g.to_string(), w, v))
            .collect();
        let want_q: Vec<(String, Timestamp, AggValue)> = want
            .of_query_sorted(q)
            .into_iter()
            .map(|(g, w, v)| (g.to_string(), w, v))
            .collect();
        assert_eq!(
            got_q, want_q,
            "{tag}: query {q:?} diverges from the reference run"
        );
    }
}

fn sharon_plan(workload: &Workload) -> SharingPlan {
    let rates = RateMap::uniform(100.0);
    let outcome = optimize_sharon(workload, &rates, &OptimizerConfig::default());
    outcome.plan.validate(workload).expect("plan validates");
    outcome.plan
}

/// The core drill: sequential reference once, then every (shards,
/// routers) combination must reproduce it exactly. `SHARON_DISORDER`
/// scrambles the stream (covering lateness applied everywhere), and the
/// late-drop counter must not move — the watermark is the min over all
/// router frontiers, so a covering bound covers every plane size.
fn assert_plane_is_invisible(
    catalog: &Catalog,
    workload: &Workload,
    plan: &SharingPlan,
    events: &[Event],
    label: &str,
) {
    let (events, lateness) = match support::disordered(events) {
        Some((shuffled, need)) => (shuffled, Some(need)),
        None => (events.to_vec(), None),
    };

    // a gated reference ingests the sharded runs' batch boundaries
    let mut sequential = Executor::new(catalog, workload, plan).expect("sequential compiles");
    if let Some(l) = lateness {
        sequential.set_lateness(l);
    }
    for chunk in events.chunks(128) {
        sequential.process_columnar(&EventBatch::from_events(chunk));
    }
    let want = sequential.finish();
    assert!(!want.is_empty(), "{label}: stream must produce matches");

    for shards in support::shard_counts(&[2, 4]) {
        for routers in plane_sizes() {
            let options = ShardedOptions {
                batch_size: 128,
                routers,
                lateness,
                ..ShardedOptions::default()
            };
            let drops_before = sharon::metrics::late_rows_dropped();
            let mut sharded =
                ShardedExecutor::with_options(catalog, workload, plan, shards, options)
                    .expect("sharded compiles");
            assert_eq!(sharded.n_routers(), routers, "{label}: plane size");
            sharded.process_columnar(&EventBatch::from_events(&events));

            // the stats barrier makes the counters complete; every
            // router must actually have carried traffic
            let stats = sharded.router_stats();
            assert_eq!(stats.len(), routers, "{label}: one stats row per router");
            for (ri, s) in stats.iter().enumerate() {
                assert!(
                    s.batches_routed > 0,
                    "{label}: router {ri}/{routers} routed no batches \
                     (fan-out must reach the whole plane)"
                );
            }

            let got = sharded.finish();
            assert_eq!(
                sharon::metrics::late_rows_dropped() - drops_before,
                0,
                "{label}: {shards} shards (routers {routers}): \
                 covering lateness must drop nothing on any plane size"
            );
            assert_exact_eq(
                &got,
                &want,
                workload,
                &format!("{label}: {shards} shards (routers {routers})"),
            );
        }
    }
}

#[test]
fn taxi_plane_is_invisible() {
    let mut catalog = Catalog::new();
    let events = taxi::generate(
        &mut catalog,
        &TaxiConfig {
            n_events: 6000,
            n_streets: 7,
            n_vehicles: 50,
            ..Default::default()
        },
    );
    let workload = figure_1_workload(&mut catalog);
    let plan = sharon_plan(&workload);
    assert_plane_is_invisible(&catalog, &workload, &plan, &events, "taxi");
}

#[test]
fn linear_road_plane_is_invisible() {
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
    assert_plane_is_invisible(&catalog, &workload, &plan, &events, "linear-road");
}

#[test]
fn ecommerce_plane_is_invisible() {
    let mut catalog = Catalog::new();
    let events = ecommerce::generate(
        &mut catalog,
        &EcommerceConfig {
            n_items: 10,
            n_customers: 6,
            events_per_sec: 300,
            n_events: 3000,
            ..Default::default()
        },
    );
    let workload = figure_2_workload(&mut catalog);
    let plan = sharon_plan(&workload);
    assert_plane_is_invisible(&catalog, &workload, &plan, &events, "ecommerce");
}

/// Below-bound lateness with a multi-router plane: the drop policy is
/// watermark-driven and the worker's watermark is the min over per-router
/// frontiers, so the drop *count* — not just the surviving results — must
/// be identical on every plane size. Runs unconditionally (no
/// `SHARON_DISORDER` needed): the scramble is built in.
#[test]
fn late_drop_counts_are_router_invariant() {
    let mut catalog = Catalog::new();
    let events = taxi::generate(
        &mut catalog,
        &TaxiConfig {
            n_events: 6000,
            n_streets: 7,
            n_vehicles: 50,
            ..Default::default()
        },
    );
    let workload = figure_1_workload(&mut catalog);
    let plan = sharon_plan(&workload);

    let mut shuffled = events;
    sharon::streams::scramble_events(&mut shuffled, 96, 0x0DD5_EED5);
    let required =
        sharon::streams::required_lateness(&sharon::types::EventBatch::from_events(&shuffled));
    assert!(required > 0, "the shuffle must introduce disorder");
    let lateness = required / 8; // deliberately below the bound

    // gated sequential reference over the same ingest-batch boundaries
    let mut sequential = Executor::new(&catalog, &workload, &plan).expect("sequential compiles");
    sequential.set_lateness(lateness);
    for chunk in shuffled.chunks(128) {
        sequential.process_columnar(&sharon::types::EventBatch::from_events(chunk));
    }
    let want_drops = sequential.late_rows_dropped();
    let want = sequential.finish();
    assert!(want_drops > 0, "below-bound lateness must drop rows");

    for shards in support::shard_counts(&[2]) {
        for routers in plane_sizes() {
            let options = ShardedOptions {
                batch_size: 128,
                routers,
                lateness: Some(lateness),
                ..ShardedOptions::default()
            };
            let before = sharon::metrics::late_rows_dropped();
            let mut sharded =
                ShardedExecutor::with_options(&catalog, &workload, &plan, shards, options)
                    .expect("sharded compiles");
            sharded.process_columnar(&EventBatch::from_events(&shuffled));
            let got = sharded.finish();
            assert_eq!(
                sharon::metrics::late_rows_dropped() - before,
                want_drops,
                "{shards} shards, routers {routers}: late-drop count must be \
                 router-invariant"
            );
            assert_exact_eq(
                &got,
                &want,
                &workload,
                &format!("late-drop: {shards} shards, routers {routers}"),
            );
        }
    }
}

/// A checkpoint written by a 2-router plane carries one state segment per
/// router; resume with the same plane size restores the same scope→router
/// assignment (the LPT partition is a pure function of the compiled
/// scopes and `R`) and replays to the exact uninterrupted results. Resume
/// with a *different* plane size must refuse loudly — never silently
/// re-partition state it cannot place.
#[test]
fn two_router_checkpoint_resumes_exactly_and_rejects_mismatch() {
    use sharon::executor::{CheckpointConfig, FaultPlan};

    const BATCH: usize = 128;
    const INTERVAL: u64 = 4;

    let mut catalog = Catalog::new();
    let events = taxi::generate(
        &mut catalog,
        &TaxiConfig {
            n_events: 6000,
            n_streets: 7,
            n_vehicles: 50,
            ..Default::default()
        },
    );
    let workload = figure_1_workload(&mut catalog);
    let plan = sharon_plan(&workload);

    let mut sequential = Executor::new(&catalog, &workload, &plan).expect("sequential compiles");
    sequential.process_columnar(&EventBatch::from_events(&events));
    let want = sequential.finish();

    let routers = support::runtime_options().routers.unwrap_or(2).max(2);
    let dir = std::env::temp_dir().join(format!(
        "sharon-multirouter-ck-{}-{routers}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let crash_batch = 3 * INTERVAL; // past two checkpoints, mid-stream
    let options = ShardedOptions {
        batch_size: BATCH,
        routers,
        checkpoint: Some(CheckpointConfig::every(&dir, INTERVAL)),
        fault: Some(FaultPlan::Drop { batch: crash_batch }),
        ..ShardedOptions::default()
    };

    let mut crashing =
        ShardedExecutor::with_options(&catalog, &workload, &plan, 2, options.clone())
            .expect("sharded compiles");
    crashing.process_columnar(&EventBatch::from_events(&events));
    drop(crashing); // simulated crash

    // mismatched plane size: must be a loud checkpoint error
    let mismatched = ShardedOptions {
        fault: None,
        routers: routers - 1,
        ..options.clone()
    };
    let err = match ShardedExecutor::resume(&catalog, &workload, &plan, 2, mismatched) {
        Err(e) => e,
        Ok(_) => panic!("resuming a 2-router checkpoint on a different plane size must fail"),
    };
    assert!(
        err.to_string().contains("router segment"),
        "mismatch error must name the router-segment count, got: {err}"
    );

    // matching plane size: exact replay
    let resume_options = ShardedOptions {
        fault: None,
        ..options
    };
    let (mut resumed, offset) =
        ShardedExecutor::resume(&catalog, &workload, &plan, 2, resume_options)
            .expect("resume with the matching plane size");
    assert!(
        offset > 0 && offset % (INTERVAL * BATCH as u64) == 0,
        "resume offset {offset} is not a checkpoint boundary"
    );
    resumed.process_columnar(&EventBatch::from_events(&events[offset as usize..]));
    let got = resumed.finish();
    assert_exact_eq(&got, &want, &workload, "2-router kill-and-resume");
    std::fs::remove_dir_all(&dir).ok();
}

/// Adversarial ingest chunkings: the caller may hand the runtime any
/// sequence of slice sizes, which shifts where ingest batches (and so
/// routed seq numbers, fan-out boundaries, and ring hand-offs) fall. The
/// seq-tagged merge must make all of them — at every plane size —
/// identical to the one-shot single-router run.
#[cfg(not(miri))]
mod determinism {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]
        #[test]
        fn chunked_ingest_is_order_exact(
            chunks in proptest::collection::vec(1usize..600, 1..12),
            routers in 1usize..=4,
            seed in 0u64..1000,
        ) {
            let mut catalog = Catalog::new();
            let events = taxi::generate(
                &mut catalog,
                &TaxiConfig {
                    n_events: 3000,
                    n_streets: 7,
                    n_vehicles: 30,
                    seed,
                    ..Default::default()
                },
            );
            let workload = figure_1_workload(&mut catalog);
            let plan = sharon_plan(&workload);

            let mut reference = ShardedExecutor::with_options(
                &catalog,
                &workload,
                &plan,
                2,
                ShardedOptions {
                    batch_size: 128,
                    routers: 1,
                    ..ShardedOptions::default()
                },
            )
            .expect("reference compiles");
            reference.process_columnar(&EventBatch::from_events(&events));
            let want = reference.finish();

            let mut sharded = ShardedExecutor::with_options(
                &catalog,
                &workload,
                &plan,
                2,
                ShardedOptions {
                    batch_size: 128,
                    routers,
                    ..ShardedOptions::default()
                },
            )
            .expect("sharded compiles");
            let mut fed = 0;
            let mut i = 0;
            while fed < events.len() {
                let n = chunks[i % chunks.len()].min(events.len() - fed);
                sharded.process_columnar(&EventBatch::from_events(&events[fed..fed + n]));
                fed += n;
                i += 1;
            }
            let got = sharded.finish();
            for q in workload.ids() {
                let got_q: Vec<(String, Timestamp, AggValue)> = got
                    .of_query_sorted(q)
                    .into_iter()
                    .map(|(g, w, v)| (g.to_string(), w, v))
                    .collect();
                let want_q: Vec<(String, Timestamp, AggValue)> = want
                    .of_query_sorted(q)
                    .into_iter()
                    .map(|(g, w, v)| (g.to_string(), w, v))
                    .collect();
                prop_assert_eq!(
                    got_q,
                    want_q,
                    "routers {} with chunking {:?} diverges from the one-shot \
                     single-router run on query {:?}",
                    routers,
                    &chunks,
                    q
                );
            }
        }
    }
}
