//! Durability under faults: the sharded runtime checkpoints at batch
//! boundaries, a simulated crash (ingest cut off mid-stream, buffered
//! state discarded) followed by [`ShardedExecutor::resume`] + replay from
//! the returned offset reproduces the uninterrupted run **exactly** — on
//! all three paper streams (TX, LR, EC), across shard counts, at a
//! *randomized* crash batch (seed printed,
//! `SHARON_FAULT_SEED` pins it). Also covered: worker panics are
//! contained and reported (never a hang, never silent partial results),
//! and the strategy layer's build/resume pair round-trips through the
//! optimizer.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use sharon::executor::{
    CheckpointConfig, CheckpointError, CheckpointStore, FaultPlan, ShardedOptions,
};
use sharon::prelude::*;
use sharon::streams::ecommerce::{self, EcommerceConfig};
use sharon::streams::linear_road::{self, LinearRoadConfig};
use sharon::streams::taxi::{self, TaxiConfig};
use sharon::streams::workload::{
    figure_1_workload, figure_2_workload, overlapping_workload, WorkloadConfig,
};
use sharon::{SharonBuilder, Strategy};

#[path = "support.rs"]
mod support;

/// Small ingest batches so short test streams cross many checkpoint
/// boundaries.
const BATCH: usize = 128;
/// Checkpoint every 4 batches (512 events).
const INTERVAL: u64 = 4;

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

/// A fresh scratch directory per checkpoint store — unique across
/// concurrently running test binaries and within this one.
fn test_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sharon-fault-{}-{tag}-{n}", std::process::id()))
}

/// Crash-batch randomization: seeded from the clock unless
/// `SHARON_FAULT_SEED` pins it; every test prints the seed it used so a
/// failure reproduces with `SHARON_FAULT_SEED=<seed> cargo test ...`.
fn fault_seed() -> u64 {
    support::knob("SHARON_FAULT_SEED").unwrap_or_else(|| {
        u64::from(
            SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .expect("clock before epoch")
                .subsec_nanos(),
        ) | 1
    })
}

/// xorshift64 — deterministic for a given seed, no dependencies.
struct Rng(u64);

impl Rng {
    fn new(tag: &str) -> Self {
        let seed = fault_seed();
        eprintln!("{tag}: fault seed {seed} (set SHARON_FAULT_SEED to reproduce)");
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi);
        lo + self.next() % (hi - lo)
    }
}

fn sequential_reference(
    catalog: &Catalog,
    workload: &Workload,
    plan: &SharingPlan,
    events: &[Event],
) -> ExecutorResults {
    let mut sequential = Executor::new(catalog, workload, plan).expect("sequential compiles");
    sequential.process_columnar(&EventBatch::from_events(events));
    sequential.finish()
}

/// The events a run ingests before it crashes at `crash_batch`: its first
/// `crash_batch` full ingest batches. Dropping the executor after them
/// loses everything past the last checkpoint, exactly like a crash.
fn before_crash<T>(events: &[T], crash_batch: u64) -> &[T] {
    &events[..crash_batch as usize * BATCH]
}

/// The kill-and-resume drill: run with periodic checkpoints, feed the
/// stream up to a randomized batch (ingest past it is lost, exactly like
/// a crash), discard the runtime without finishing, resume from the
/// latest checkpoint, replay the stream from the returned offset, and
/// require results semantically identical to an uninterrupted sequential
/// run.
/// Under `SHARON_DISORDER` the runtime ingests the bounded-disorder
/// shuffle with a covering lateness, so every checkpoint carries the
/// event-time gates' waiting rows, and must still match the in-order
/// reference.
fn assert_kill_and_resume_is_exact(
    catalog: &Catalog,
    workload: &Workload,
    plan: &SharingPlan,
    events: &[Event],
    label: &str,
    rng: &mut Rng,
) {
    let want = sequential_reference(catalog, workload, plan, events);
    let (events, lateness) = match support::disordered(events) {
        Some((shuffled, need)) => (shuffled, Some(need)),
        None => (events.to_vec(), None),
    };

    let n_batches = (events.len() as u64).div_ceil(BATCH as u64);
    assert!(
        n_batches > INTERVAL + 1,
        "{label}: stream too short to cross a checkpoint boundary"
    );

    for shards in support::shard_counts(&[1, 2, 8]) {
        // crash after the first checkpoint but before ingest completes
        let crash_batch = rng.range(INTERVAL, n_batches);
        let dir = test_dir(label);
        let options = ShardedOptions {
            batch_size: BATCH,
            lateness,
            checkpoint: Some(CheckpointConfig::every(&dir, INTERVAL)),
            ..ShardedOptions::default()
        };

        let mut crashing =
            ShardedExecutor::with_options(catalog, workload, plan, shards, options.clone())
                .expect("sharded compiles");
        crashing.process_columnar(&EventBatch::from_events(before_crash(&events, crash_batch)));
        // crash: everything after the last checkpoint is lost
        drop(crashing);

        let (mut resumed, offset) =
            ShardedExecutor::resume(catalog, workload, plan, shards, options).unwrap_or_else(|e| {
                panic!(
                    "{label}: {shards} shards \
                         crash@{crash_batch}: resume failed: {e}"
                )
            });
        assert!(
            offset > 0 && offset % (INTERVAL * BATCH as u64) == 0,
            "{label}: resume offset {offset} is not a checkpoint boundary"
        );
        assert!(
            offset <= crash_batch * BATCH as u64,
            "{label}: checkpoint at {offset} covers events dropped at batch {crash_batch}"
        );

        resumed.process_columnar(&EventBatch::from_events(&events[offset as usize..]));
        let got = resumed.finish();
        support::assert_equivalent(
            &got,
            &want,
            workload.ids(),
            1e-9,
            format_args!(
                "{label}: {shards} shards crash@{crash_batch} resume@{offset} \
                 vs the uninterrupted run"
            ),
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn sharon_plan(workload: &Workload) -> SharingPlan {
    let rates = RateMap::uniform(100.0);
    let outcome = optimize_sharon(workload, &rates, &OptimizerConfig::default());
    outcome.plan.validate(workload).expect("plan validates");
    outcome.plan
}

#[test]
fn taxi_kill_and_resume() {
    let mut rng = Rng::new("taxi");
    let mut catalog = Catalog::new();
    let events = taxi::generate(
        &mut catalog,
        &TaxiConfig {
            n_events: 4000,
            n_streets: 7,
            n_vehicles: 40,
            ..Default::default()
        },
    );
    let workload = figure_1_workload(&mut catalog);
    let plan = sharon_plan(&workload);
    assert_kill_and_resume_is_exact(&catalog, &workload, &plan, &events, "taxi", &mut rng);
}

#[test]
fn linear_road_kill_and_resume() {
    let mut rng = Rng::new("linear-road");
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
    assert_kill_and_resume_is_exact(&catalog, &workload, &plan, &events, "linear-road", &mut rng);
}

#[test]
fn ecommerce_kill_and_resume() {
    let mut rng = Rng::new("ecommerce");
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
    assert_kill_and_resume_is_exact(&catalog, &workload, &plan, &events, "ecommerce", &mut rng);
}

/// Below-bound lateness: when the configured lateness does *not* cover
/// the stream's disorder, late rows are dropped **and counted** — never
/// silently folded into already-closed windows. The sharded run must
/// agree exactly with a sequential gated run over the same batch
/// boundaries (the drop policy is deterministic and shard-invariant),
/// and the run's late-drop count — summed over the shards' reports —
/// must count every late row exactly once per partition.
#[test]
fn below_bound_lateness_drops_and_counts() {
    let mut catalog = Catalog::new();
    let events = taxi::generate(
        &mut catalog,
        &TaxiConfig {
            n_events: 4000,
            n_streets: 7,
            n_vehicles: 40,
            ..Default::default()
        },
    );
    let workload = figure_1_workload(&mut catalog);
    let plan = sharon_plan(&workload);

    let mut shuffled = events.clone();
    sharon::streams::scramble_events(&mut shuffled, 64, 0x0DD5_EED5);
    let required =
        sharon::streams::required_lateness(&sharon::types::EventBatch::from_events(&shuffled));
    assert!(required > 0, "the shuffle must introduce disorder");
    let lateness = required / 8; // deliberately below the bound

    // sequential gated reference over the same ingest-batch boundaries
    // the sharded runtime uses (the watermark advances per batch, so the
    // chunking is part of the drop policy's observable behaviour)
    let mut sequential = Executor::new(&catalog, &workload, &plan).expect("sequential compiles");
    sequential.set_lateness(lateness);
    for chunk in shuffled.chunks(BATCH) {
        sequential.process_columnar(&sharon::types::EventBatch::from_events(chunk));
    }
    let want_drops = sequential.late_rows_dropped();
    let want = sequential.finish();
    assert!(
        want_drops > 0,
        "below-bound lateness {lateness} of required {required} must drop rows"
    );

    for shards in support::shard_counts(&[1, 2, 8]) {
        let options = ShardedOptions {
            batch_size: BATCH,
            lateness: Some(lateness),
            ..ShardedOptions::default()
        };
        let mut sharded =
            ShardedExecutor::with_options(&catalog, &workload, &plan, shards, options)
                .expect("sharded compiles");
        sharded.process_columnar(&EventBatch::from_events(&shuffled));
        let report = sharded.finish_with_stats();
        let (got, dropped) = (report.results, report.late_rows_dropped);
        assert_eq!(
            dropped, want_drops,
            "{shards} shards: every late row \
             must be counted exactly once (owner copies only)"
        );
        support::assert_equivalent(
            &got,
            &want,
            workload.ids(),
            1e-9,
            format_args!("{shards} shards: drop-and-count vs sequential"),
        );
    }
}

/// Kill-and-resume through a gated worker that holds more than one
/// engine: two queries that differ only in `WITHIN` compile to two
/// partitions, so every shard's one gate interleaves the rows of two
/// engines, and every checkpoint carries that gate's waiting rows of both.
/// Under a covering and a below-bound lateness alike, the resumed run's
/// results and late-drop count equal the uninterrupted run's.
#[test]
fn gated_kill_and_resume_over_two_partitions() {
    let mut rng = Rng::new("two-partitions");
    let mut catalog = Catalog::new();
    let events = taxi::generate(
        &mut catalog,
        &TaxiConfig {
            n_events: 4000,
            n_streets: 7,
            n_vehicles: 40,
            ..Default::default()
        },
    );
    let workload = parse_workload(
        &mut catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt, StateSt) WHERE [vehicle] WITHIN 4 s SLIDE 1 s",
            "RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt, StateSt) WHERE [vehicle] WITHIN 2 s SLIDE 1 s",
        ],
    )
    .unwrap();
    let plan = sharon_plan(&workload);
    let parts = sharon::executor::compile(&catalog, &workload, &plan).unwrap();
    assert_eq!(parts.len(), 2, "one partition per window");

    let mut shuffled = events.clone();
    sharon::streams::scramble_events(&mut shuffled, 64, 0x7E0_5C0E);
    let covering = sharon::streams::required_lateness(&EventBatch::from_events(&shuffled));
    let n_batches = (shuffled.len() as u64).div_ceil(BATCH as u64);

    for lateness in [covering, covering / 8] {
        // the uninterrupted run: a sequential gated run over the ingest
        // batches the sharded runtime flushes at
        let mut sequential = Executor::new(&catalog, &workload, &plan).unwrap();
        sequential.set_lateness(lateness);
        for chunk in shuffled.chunks(BATCH) {
            sequential.process_columnar(&EventBatch::from_events(chunk));
        }
        let want_drops = sequential.late_rows_dropped();
        let want = sequential.finish();
        assert_eq!(
            want_drops == 0,
            lateness == covering,
            "lateness {lateness} of required {covering}: drops {want_drops}"
        );

        for shards in support::shard_counts(&[1, 2, 8]) {
            let crash_batch = rng.range(INTERVAL, n_batches);
            let label = format!("lateness {lateness}, {shards} shards, crash@{crash_batch}");
            let dir = test_dir("two-partitions");
            let options = ShardedOptions {
                batch_size: BATCH,
                lateness: Some(lateness),
                checkpoint: Some(CheckpointConfig::every(&dir, INTERVAL)),
                ..ShardedOptions::default()
            };
            let mut crashing =
                ShardedExecutor::with_options(&catalog, &workload, &plan, shards, options.clone())
                    .expect("sharded compiles");
            crashing.process_columnar(&EventBatch::from_events(before_crash(
                &shuffled,
                crash_batch,
            )));
            drop(crashing); // crash: everything after the last checkpoint is lost

            let (mut resumed, offset) =
                ShardedExecutor::resume(&catalog, &workload, &plan, shards, options)
                    .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
            assert!(offset > 0, "{label}: a checkpoint was written");
            resumed.process_columnar(&EventBatch::from_events(&shuffled[offset as usize..]));
            let report = resumed.finish_with_stats();
            support::assert_equivalent(
                &report.results,
                &want,
                workload.ids(),
                1e-9,
                format_args!("{label}: resume@{offset} vs the uninterrupted run"),
            );
            assert_eq!(
                report.late_rows_dropped, want_drops,
                "{label}: resume@{offset} late-drop count"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// The event-time contract of the one columnar entry point: a gated
/// executor admits only the rows its scans selected, so a late row no
/// scope routes is neither admitted nor counted — the online engine
/// drops exactly the late routed row.
#[test]
fn unrouted_rows_are_never_admitted_or_counted() {
    let mut catalog = Catalog::new();
    let workload = parse_workload(
        &mut catalog,
        ["RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 s SLIDE 1 s"],
    )
    .unwrap();
    let x = catalog.register("X"); // registered, routed by no partition
    let (a, b) = (catalog.lookup("A").unwrap(), catalog.lookup("B").unwrap());
    // X@100 and A@100 arrive behind the watermark 5000 − 1000 set by X@5000
    let rows = [
        (a, 1000),
        (b, 2000),
        (x, 5000),
        (x, 100),
        (a, 100),
        (b, 6000),
    ];
    let batches: Vec<EventBatch> = rows
        .iter()
        .map(|&(ty, t)| EventBatch::from_events(&[Event::new(ty, Timestamp(t))]))
        .collect();

    let mut online = Executor::non_shared(&catalog, &workload).unwrap();
    online.set_lateness(1_000);
    for batch in &batches {
        online.process_columnar(batch);
    }
    assert_eq!(
        online.late_rows_dropped(),
        1,
        "only the late A is dropped and counted; the late X is never admitted"
    );
    assert!(!online.finish().is_empty(), "A@1000 completes with both Bs");
}

/// The strategy layer round-trips: `SharonBuilder::build_executor`
/// checkpoints, a crash drops the tail, `SharonBuilder::resume`
/// re-derives the same plan from the (deterministic) optimizer and the
/// replayed run matches an uninterrupted strategy run.
#[test]
fn strategy_layer_resume_round_trips() {
    let mut rng = Rng::new("strategy-resume");
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
    let rates = RateMap::uniform(100.0);
    let config = OptimizerConfig::default();

    for strategy in [Strategy::Sharon, Strategy::Greedy, Strategy::ASeq] {
        let builder = SharonBuilder::new(&catalog, &workload, &rates)
            .strategy(strategy)
            .optimizer_config(config.clone())
            .shards(2)
            .batch_size(BATCH);
        let (mut plain, _) = builder.clone().build_executor().expect("builds");
        plain.process_columnar(&EventBatch::from_events(&events));
        let want = plain.finish();

        let dir = test_dir(strategy.name());
        let n_batches = (events.len() as u64).div_ceil(BATCH as u64);
        let crash_batch = rng.range(INTERVAL, n_batches);
        let builder = builder.checkpoint(CheckpointConfig::every(&dir, INTERVAL));
        let (mut crashing, _) = builder
            .clone()
            .build_executor()
            .expect("builds with durability");
        crashing.process_columnar(&EventBatch::from_events(before_crash(&events, crash_batch)));
        drop(crashing);

        let (mut resumed, _, offset) = builder.resume().expect("resumes");
        resumed.process_columnar(&EventBatch::from_events(&events[offset as usize..]));
        let got = resumed.finish();
        support::assert_equivalent(
            &got,
            &want,
            workload.ids(),
            1e-9,
            format_args!(
                "{} crash@{crash_batch} resume@{offset}: resumed strategy run",
                strategy.name()
            ),
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// FNV-1a, the manifest checksum, spelled out for [`v9_manifest`].
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A format-v9 manifest, encoded here independently of the store: magic,
/// version, id, replay offset, a counted list of router segments, a
/// counted list of shard segment `(length, digest)` pairs, then the
/// checksum of everything before it. Integers are little-endian, counts
/// and lengths `u64`.
fn v9_manifest(id: u64, events_sent: u64, routers: &[&[u8]], shards: &[Vec<u8>]) -> Vec<u8> {
    let mut m = b"SHRNCKPT".to_vec();
    m.extend_from_slice(&9u32.to_le_bytes());
    m.extend_from_slice(&id.to_le_bytes());
    m.extend_from_slice(&events_sent.to_le_bytes());
    m.extend_from_slice(&(routers.len() as u64).to_le_bytes());
    for router in routers {
        m.extend_from_slice(&(router.len() as u64).to_le_bytes());
        m.extend_from_slice(router);
    }
    m.extend_from_slice(&(shards.len() as u64).to_le_bytes());
    for seg in shards {
        m.extend_from_slice(&(seg.len() as u64).to_le_bytes());
        m.extend_from_slice(&fnv1a(seg).to_le_bytes());
    }
    let digest = fnv1a(&m);
    m.extend_from_slice(&digest.to_le_bytes());
    m
}

/// The runtime has one router thread, and its manifests keep the v9
/// layout: a counted router list holding one segment, byte for byte. A
/// manifest carrying two router segments (as a two-router build wrote
/// them) is refused with a typed error naming the count — by the store
/// and by `resume` — and never restored into one router.
#[test]
fn manifest_router_segments_round_trip_or_are_refused() {
    let mut catalog = Catalog::new();
    let events = taxi::generate(
        &mut catalog,
        &TaxiConfig {
            n_events: 2000,
            n_streets: 7,
            n_vehicles: 40,
            ..Default::default()
        },
    );
    let workload = figure_1_workload(&mut catalog);
    let plan = sharon_plan(&workload);
    let dir = test_dir("router-segments");
    let options = ShardedOptions {
        batch_size: BATCH,
        checkpoint: Some(CheckpointConfig::every(&dir, INTERVAL)),
        ..ShardedOptions::default()
    };
    let mut ex = ShardedExecutor::with_options(&catalog, &workload, &plan, 2, options.clone())
        .expect("sharded compiles");
    ex.process_columnar(&EventBatch::from_events(&events));
    let want = ex.finish();

    let store = CheckpointStore::open(&dir).unwrap();
    let data = store.latest().expect("periodic checkpoints were written");
    let manifest =
        std::fs::read(dir.join(format!("ckpt-{:016}", data.id)).join("MANIFEST")).unwrap();
    assert_eq!(
        manifest,
        v9_manifest(data.id, data.events_sent, &[&data.router], &data.shards),
        "a one-router manifest is the v9 layout, byte for byte"
    );

    let id = data.id + 1;
    let forged = dir.join(format!("ckpt-{id:016}"));
    std::fs::create_dir_all(&forged).unwrap();
    for (i, seg) in data.shards.iter().enumerate() {
        std::fs::write(forged.join(format!("shard-{i}.seg")), seg).unwrap();
    }
    let two = v9_manifest(
        id,
        data.events_sent,
        &[&data.router, &data.router],
        &data.shards,
    );
    std::fs::write(forged.join("MANIFEST"), two).unwrap();
    match store.load(id) {
        Err(CheckpointError::RouterSegments(2)) => {}
        other => panic!("two router segments must be refused, got {other:?}"),
    }
    match ShardedExecutor::resume(&catalog, &workload, &plan, 2, options.clone()) {
        Err(e @ CheckpointError::RouterSegments(2)) => {
            assert!(e.to_string().contains("2 router segment"), "{e}");
        }
        Err(e) => panic!("expected the router-segment count error, got {e}"),
        Ok(_) => panic!("a two-router manifest must not resume"),
    }

    // without the forged manifest, the latest one resumes exactly
    std::fs::remove_dir_all(&forged).unwrap();
    let (mut resumed, offset) =
        ShardedExecutor::resume(&catalog, &workload, &plan, 2, options).expect("resumes");
    assert_eq!(offset, data.events_sent);
    resumed.process_columnar(&EventBatch::from_events(&events[offset as usize..]));
    support::assert_equivalent(
        &resumed.finish(),
        &want,
        workload.ids(),
        1e-9,
        "resumed run vs the uninterrupted one",
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A worker panic mid-stream is contained: the runtime cancels, ingest
/// stops feeding dead rings, and `finish` fails fast with a message
/// naming the failed shard — it never hangs and never returns partial
/// results as if they were complete.
#[test]
fn worker_panic_is_contained_and_reported() {
    for shards in support::shard_counts(&[1, 2, 8]) {
        let mut catalog = Catalog::new();
        let events = taxi::generate(
            &mut catalog,
            &TaxiConfig {
                n_events: 2000,
                n_streets: 7,
                n_vehicles: 40,
                ..Default::default()
            },
        );
        let workload = figure_1_workload(&mut catalog);
        let plan = sharon_plan(&workload);
        let options = ShardedOptions {
            batch_size: BATCH,
            fault: Some(FaultPlan::PanicWorker {
                batch: 2,
                shard: shards - 1,
            }),
            ..ShardedOptions::default()
        };
        let mut sharded =
            ShardedExecutor::with_options(&catalog, &workload, &plan, shards, options)
                .expect("sharded compiles");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            sharded.process_columnar(&EventBatch::from_events(&events));
            sharded.finish()
        }))
        .expect_err("a worker panic must fail the run, not vanish");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("worker shard"),
            "{shards} shards: panic message \
             must name the failed worker, got: {msg:?}"
        );
    }
}
