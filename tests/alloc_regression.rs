//! Allocation regression tests for the columnar hot paths.
//!
//! The steady-state promise of the columnar pipeline: once group state,
//! scratch buffers, and the result store have warmed up, processing a
//! columnar batch performs **zero** heap allocations. This binary installs
//! [`sharon_metrics::TrackingAllocator`] as the global allocator (its own
//! test binary, so no other suite is affected) and counts allocation calls
//! around a measured steady-state phase.
//!
//! Scope: the promise covers the online engine's unit path (length-1
//! segments, reading the group's window plane in place), the
//! multi-type-segment path (START records live in the
//! [`sharon::executor::SegmentRunner`] ring), window closes, and the
//! two-step baselines' columnar paths (Flink-like and SPASS-like run the same
//! stateless-scan → stateful-dispatch pipeline with reused scratch
//! buffers).

use sharon::prelude::*;
use sharon::twostep::{FlinkLike, SpassLike};
use sharon_executor::{
    compile, spsc, BatchRouter, EngineKind, RouteBatch, RoutedRows, ShardSlice, ShardedOptions,
};
use sharon_metrics::{alloc, TrackingAllocator};
use std::sync::{Arc, Mutex};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// The allocation counter is process-global, so measured phases of
/// concurrently running tests would pollute each other: every test in this
/// binary holds this lock for its full body. The guard protects no
/// invariant beyond serialization, so a poisoned lock (another test
/// failed) is simply taken over — each test still reports its own result.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const GROUPS: i64 = 16;
const BATCH_ROWS: usize = 256;
const WARMUP_BATCHES: usize = 48;
const MEASURED_BATCHES: usize = 32;

/// Pre-build time-ordered columnar batches of `A(g, v)` events cycling
/// over a fixed group set.
fn build_batches(catalog: &Catalog, n: usize, first_time: u64) -> (Vec<EventBatch>, u64) {
    let a = catalog.lookup("A").expect("type A registered");
    let mut out = Vec::with_capacity(n);
    let mut t = first_time;
    for _ in 0..n {
        let mut batch = EventBatch::with_capacity(BATCH_ROWS, 2);
        for _ in 0..BATCH_ROWS {
            t += 1;
            batch.push_from(
                a,
                Timestamp(t),
                [Value::Int(t as i64 % GROUPS), Value::Int(t as i64 % 7)],
            );
        }
        out.push(batch);
    }
    (out, t)
}

/// Pre-build batches of alternating `A(g, v)` / `B(g, v)` rows where
/// consecutive pairs share a group — the multi-type-segment shape: every
/// `A` opens a START entry, every `B` completes sequences.
fn build_pair_batches(catalog: &Catalog, n: usize, first_time: u64) -> (Vec<EventBatch>, u64) {
    let a = catalog.lookup("A").expect("type A registered");
    let b = catalog.lookup("B").expect("type B registered");
    let mut out = Vec::with_capacity(n);
    let mut t = first_time;
    for _ in 0..n {
        let mut batch = EventBatch::with_capacity(BATCH_ROWS, 2);
        for _ in 0..BATCH_ROWS {
            t += 1;
            batch.push_from(
                if t.is_multiple_of(2) { a } else { b },
                Timestamp(t),
                [
                    Value::Int((t / 2) as i64 % GROUPS),
                    Value::Int(t as i64 % 7),
                ],
            );
        }
        out.push(batch);
    }
    (out, t)
}

#[test]
fn columnar_hot_path_is_allocation_free_after_warmup() {
    let _serial = serial();
    let mut catalog = Catalog::new();
    catalog.register_with_schema("A", Schema::new(["g", "v"]));
    let workload = parse_workload(
        &mut catalog,
        ["RETURN COUNT(*) PATTERN SEQ(A) GROUP BY g WITHIN 8 ms SLIDE 4 ms"],
    )
    .unwrap();
    let mut executor = Executor::non_shared(&catalog, &workload).unwrap();

    let (warmup, t) = build_batches(&catalog, WARMUP_BATCHES, 0);
    let (measured, _) = build_batches(&catalog, MEASURED_BATCHES, t);

    // warm up: create all groups, grow every scratch/pending buffer and
    // the per-group window state to steady-state capacity
    for batch in &warmup {
        executor.process_columnar(batch);
    }
    // result emission appends to the result log for the whole run;
    // reserve its segments for the measured phase (capacity planning, not
    // a loophole: everything else must already be reusing warmed buffers)
    let expected_results = (MEASURED_BATCHES * BATCH_ROWS / 4 + 64) * (GROUPS as usize);
    executor.reserve_results(expected_results);

    let matched_before = executor.events_matched();
    let (_, allocs) = alloc::measure_allocs(|| {
        for batch in &measured {
            executor.process_columnar(batch);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state columnar hot path must not allocate \
         ({MEASURED_BATCHES} batches of {BATCH_ROWS} events performed {allocs} allocations)"
    );
    assert_eq!(
        executor.events_matched() - matched_before,
        (MEASURED_BATCHES * BATCH_ROWS) as u64,
        "every measured event matched (the phase did real work)"
    );

    // sanity: the run produces real per-group, per-window results
    let results = executor.finish();
    assert!(results.len() > 1000, "windows closed and emitted");
}

#[test]
fn window_closes_are_allocation_free_in_a_fresh_result_epoch() {
    // every measured batch closes windows (256 ms of events, 4 ms slide),
    // and the phase starts right after a `take_results`, i.e. on a fresh
    // log in a fresh result epoch: one more batch re-interns every group
    // (an id per group and epoch), `reserve_results` reserves the
    // segments, and from there emission is pure appends
    let _serial = serial();
    let mut catalog = Catalog::new();
    catalog.register_with_schema("A", Schema::new(["g", "v"]));
    let workload = parse_workload(
        &mut catalog,
        ["RETURN COUNT(*) PATTERN SEQ(A) GROUP BY g WITHIN 8 ms SLIDE 4 ms"],
    )
    .unwrap();
    let mut executor = Executor::non_shared(&catalog, &workload).unwrap();

    let (warmup, t) = build_batches(&catalog, WARMUP_BATCHES, 0);
    let (reintern, t) = build_batches(&catalog, 1, t);
    let (measured, _) = build_batches(&catalog, MEASURED_BATCHES, t);
    for batch in &warmup {
        executor.process_columnar(batch);
    }
    let first_epoch = executor.take_results();
    assert!(first_epoch.len() > 1000, "warm-up closed windows");
    executor.process_columnar(&reintern[0]);
    // an event per ms, each in two windows of its group
    let closing = 2 * (MEASURED_BATCHES * BATCH_ROWS);
    executor.reserve_results(closing);

    let (_, allocs) = alloc::measure_allocs(|| {
        for batch in &measured {
            executor.process_columnar(batch);
        }
    });
    assert_eq!(
        allocs, 0,
        "window closes after reserve_results must not allocate \
         ({MEASURED_BATCHES} closing batches performed {allocs} allocations)"
    );
    let second_epoch = executor.take_results();
    assert!(
        second_epoch.len() >= closing - 64,
        "the measured batches emitted their windows ({} rows)",
        second_epoch.len()
    );
    // the two epochs are disjoint and carry their own key tables
    let mut all = first_epoch;
    all.merge(second_epoch);
    all.merge(executor.finish());
    let mut oracle = Executor::non_shared(&catalog, &workload).unwrap();
    for batch in warmup.iter().chain(&reintern).chain(&measured) {
        oracle.process_columnar(batch);
    }
    assert!(all.semantically_eq(&oracle.finish(), 0.0));
}

/// 24 queries alternating `SEQ(A)` / `SEQ(B)` whose predicates are
/// pairwise distinct (so 24 routing scopes) and never filter: every scope
/// selects every row of its type.
fn distinct_predicate_queries() -> Vec<String> {
    (0..24)
        .map(|q| {
            let ty = if q % 2 == 0 { "A" } else { "B" };
            format!(
                "RETURN COUNT(*) PATTERN SEQ({ty}) WHERE {ty}.v >= -{q} GROUP BY g \
                 WITHIN 8 ms SLIDE 4 ms"
            )
        })
        .collect()
}

#[test]
fn scan_path_is_allocation_free_through_the_shared_type_pass() {
    // the compiled scan's steady-state promise: with predicate clauses in
    // play (so every kernel runs the full bitmap pipeline — selection from
    // the executor's type pass, gather scratch, clause fold, extraction —
    // not just the clause-free early return), the scan stays at zero
    // allocations per batch once warmed up, for one scope and for 24
    // scopes sharing one type pass
    let _serial = serial();
    let mut catalog = Catalog::new();
    catalog.register_with_schema("A", Schema::new(["g", "v"]));
    catalog.register_with_schema("B", Schema::new(["g", "v"]));
    let one = vec![
        "RETURN COUNT(*) PATTERN SEQ(A) WHERE A.v >= 0 GROUP BY g WITHIN 8 ms SLIDE 4 ms"
            .to_string(),
    ];
    for (sources, batches) in [
        (
            one,
            build_batches as fn(&Catalog, usize, u64) -> (Vec<EventBatch>, u64),
        ),
        (distinct_predicate_queries(), build_pair_batches),
    ] {
        let workload = parse_workload(&mut catalog, sources.iter().map(String::as_str)).unwrap();
        let mut executor = Executor::non_shared(&catalog, &workload).unwrap();
        let scopes = executor.scan_stats().len();
        assert_eq!(scopes, sources.len(), "one scope per query");

        let (warmup, t) = batches(&catalog, WARMUP_BATCHES, 0);
        let (measured, _) = batches(&catalog, MEASURED_BATCHES, t);
        for batch in &warmup {
            executor.process_columnar(batch);
        }
        let expected_results = (MEASURED_BATCHES * BATCH_ROWS / 4 + 64) * (GROUPS as usize);
        executor.reserve_results(expected_results);

        let matched_before = executor.events_matched();
        let (_, allocs) = alloc::measure_allocs(|| {
            for batch in &measured {
                executor.process_columnar(batch);
            }
        });
        assert_eq!(
            allocs, 0,
            "{scopes} scope(s): steady-state scan must not allocate \
             ({MEASURED_BATCHES} batches of {BATCH_ROWS} events performed {allocs} allocations)"
        );
        // no predicate filters anything: every measured row of a scope's
        // type survived the scan and matched — all rows for the single
        // A scope, half of them for each of the 24 A-or-B scopes
        let types_per_batch = if scopes == 1 { 1 } else { 2 };
        let rows = ((WARMUP_BATCHES + MEASURED_BATCHES) * BATCH_ROWS) as u64;
        assert_eq!(
            executor.events_matched() - matched_before,
            (MEASURED_BATCHES * BATCH_ROWS / types_per_batch * scopes) as u64,
            "{scopes} scope(s): every measured event of a scope's type passed its scan"
        );
        assert_eq!(
            executor.scan_stats(),
            vec![(rows, rows / types_per_batch as u64); scopes],
            "{scopes} scope(s): every scope scanned every row"
        );
    }
}

#[test]
fn multi_scope_router_is_allocation_free_through_the_shared_type_pass() {
    // one router, 24 scopes: one type pass per chunk, then each scope
    // selects from it and fans its rows out to the owning shard
    let _serial = serial();
    let mut catalog = Catalog::new();
    catalog.register_with_schema("A", Schema::new(["g", "v"]));
    catalog.register_with_schema("B", Schema::new(["g", "v"]));
    let sources = distinct_predicate_queries();
    let workload = parse_workload(&mut catalog, sources.iter().map(String::as_str)).unwrap();
    let parts = compile(&catalog, &workload, &SharingPlan::non_shared()).unwrap();
    assert_eq!(parts.len(), 24, "one scope per query");
    let mut router = BatchRouter::new(parts, 2);

    let (warmup, t) = build_pair_batches(&catalog, WARMUP_BATCHES, 0);
    let (measured, _) = build_pair_batches(&catalog, MEASURED_BATCHES, t);
    let mut routed: Vec<RoutedRows> = Vec::new();
    let mut rows_out = 0u64;
    for batch in &warmup {
        router.route_range_into(batch, 0, batch.len(), &mut routed);
    }
    let ((), allocs) = alloc::measure_allocs(|| {
        for batch in &measured {
            router.route_range_into(batch, 0, batch.len(), &mut routed);
            for rows in &routed {
                rows_out += rows.per_part.iter().map(|r| r.len() as u64).sum::<u64>();
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state routing of 24 scopes must not allocate \
         ({MEASURED_BATCHES} batches of {BATCH_ROWS} events performed {allocs} allocations)"
    );
    // each scope routes one of the two types and filters nothing
    assert_eq!(rows_out, (24 * MEASURED_BATCHES * BATCH_ROWS / 2) as u64);
    let rows = ((WARMUP_BATCHES + MEASURED_BATCHES) * BATCH_ROWS) as u64;
    assert_eq!(
        router.scan_counters().snapshot(),
        vec![(rows, rows / 2); 24],
        "every scope scanned every row of every chunk"
    );
}

#[test]
fn watermark_tracking_is_allocation_free_after_warmup() {
    let _serial = serial();
    // event-time gating: a bounded-disorder stream through a gated engine
    // reuses the reorder gate's pooled row buffers and warmed heap — the
    // steady-state cost of watermark tracking is zero allocations
    const DISORDER: u32 = 32;
    let mut catalog = Catalog::new();
    catalog.register_with_schema("A", Schema::new(["g", "v"]));
    let workload = parse_workload(
        &mut catalog,
        ["RETURN COUNT(*) PATTERN SEQ(A) GROUP BY g WITHIN 8 ms SLIDE 4 ms"],
    )
    .unwrap();
    let mut executor = Executor::non_shared(&catalog, &workload).unwrap();

    let (mut warmup, t) = build_batches(&catalog, WARMUP_BATCHES, 0);
    let (mut measured, _) = build_batches(&catalog, MEASURED_BATCHES, t);
    let mut need = 0u64;
    for (i, batch) in warmup.iter_mut().chain(measured.iter_mut()).enumerate() {
        sharon::streams::scramble_batch(batch, DISORDER, 0xA110_C000 + i as u64);
        need = need.max(sharon::streams::required_lateness(batch));
    }
    assert!(need > 0, "the shuffle must actually disorder the stream");
    executor.set_lateness(need);

    // warm up: groups, scratch buffers, the gate's pending heap, and its
    // row-buffer pool all reach steady-state capacity
    for batch in &warmup {
        executor.process_columnar(batch);
    }
    let expected_results = (MEASURED_BATCHES * BATCH_ROWS / 4 + 64) * (GROUPS as usize);
    executor.reserve_results(expected_results);

    let matched_before = executor.events_matched();
    let (_, allocs) = alloc::measure_allocs(|| {
        for batch in &measured {
            executor.process_columnar(batch);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state watermark tracking must not allocate \
         ({MEASURED_BATCHES} disordered batches performed {allocs} allocations)"
    );
    assert!(
        executor.events_matched() > matched_before,
        "the gate released rows during the measured phase"
    );

    // lateness covers the disorder bound exactly: nothing was dropped, and
    // draining the gate at finish yields the full result set
    assert_eq!(
        executor.late_rows_dropped(),
        0,
        "covering lateness drops nothing"
    );
    let results = executor.finish();
    assert!(results.len() > 1000, "windows closed and emitted");
}

#[test]
fn multi_type_segment_path_is_allocation_free_after_warmup() {
    // SEQ(A, B): every A opens a START record — a slot of the runner's
    // ring, freed by expiry and reused, so this path allocates nothing
    let _serial = serial();
    let mut catalog = Catalog::new();
    catalog.register_with_schema("A", Schema::new(["g", "v"]));
    catalog.register_with_schema("B", Schema::new(["g", "v"]));
    let workload = parse_workload(
        &mut catalog,
        ["RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY g WITHIN 8 ms SLIDE 4 ms"],
    )
    .unwrap();
    let mut executor = Executor::non_shared(&catalog, &workload).unwrap();

    let (warmup, t) = build_pair_batches(&catalog, WARMUP_BATCHES, 0);
    let (measured, _) = build_pair_batches(&catalog, MEASURED_BATCHES, t);

    for batch in &warmup {
        executor.process_columnar(batch);
    }
    let expected_results = (MEASURED_BATCHES * BATCH_ROWS / 4 + 64) * (GROUPS as usize);
    executor.reserve_results(expected_results);

    let matched_before = executor.events_matched();
    let (_, allocs) = alloc::measure_allocs(|| {
        for batch in &measured {
            executor.process_columnar(batch);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state multi-type-segment path must not allocate \
         ({MEASURED_BATCHES} batches of {BATCH_ROWS} events performed {allocs} allocations)"
    );
    assert_eq!(
        executor.events_matched() - matched_before,
        (MEASURED_BATCHES * BATCH_ROWS) as u64,
        "every measured event matched"
    );
    let results = executor.finish();
    assert!(!results.is_empty(), "pairs matched and windows emitted");
}

#[test]
fn shared_segment_with_unit_stage_is_allocation_free_and_a_new_group_is_cheap() {
    // the TX shape: a length-5 segment shared by two queries whose last
    // stage is a single type — every X / Y row combines the segment's
    // per-window totals (the mirror column of the group's window plane,
    // read in place) with itself, and every batch closes windows
    let _serial = serial();
    const TYPES: [&str; 7] = ["S1", "S2", "S3", "S4", "S5", "X", "Y"];
    let mut catalog = Catalog::new();
    for name in TYPES {
        catalog.register_with_schema(name, Schema::new(["g", "v"]));
    }
    let workload = parse_workload(
        &mut catalog,
        ["X", "Y"].map(|last| {
            format!(
                "RETURN COUNT(*) PATTERN SEQ(S1, S2, S3, S4, S5, {last}) \
                 GROUP BY g WITHIN 256 ms SLIDE 16 ms"
            )
        }),
    )
    .unwrap();
    let shared = Pattern::from_names(&mut catalog, &TYPES[..5]);
    let plan = SharingPlan::new([PlanCandidate::new(shared, [QueryId(0), QueryId(1)])]);
    let mut executor = Executor::new(&catalog, &workload, &plan).unwrap();

    // rows cycle through the seven types, seven consecutive rows a group
    let types: Vec<EventTypeId> = TYPES.iter().map(|n| catalog.lookup(n).unwrap()).collect();
    let mut t = 0u64;
    let mut build = |n: usize| -> Vec<EventBatch> {
        (0..n)
            .map(|_| {
                let mut batch = EventBatch::with_capacity(BATCH_ROWS, 2);
                for _ in 0..BATCH_ROWS {
                    t += 1;
                    let group = Value::Int((t / 7) as i64 % GROUPS);
                    batch.push_from(
                        types[(t % 7) as usize],
                        Timestamp(t),
                        [group, Value::Int(1)],
                    );
                }
                batch
            })
            .collect()
    };
    let warmup = build(WARMUP_BATCHES);
    let measured = build(MEASURED_BATCHES);
    let mut newcomer = EventBatch::with_capacity(1, 2);
    newcomer.push_from(
        types[0],
        Timestamp(t + 1),
        [Value::Int(GROUPS), Value::Int(1)],
    );

    for batch in &warmup {
        executor.process_columnar(batch);
    }
    // a batch is 16 slides for each of 16 groups and two queries
    executor.reserve_results(MEASURED_BATCHES * 16 * GROUPS as usize + 64);
    let (_, allocs) = alloc::measure_allocs(|| {
        for batch in &measured {
            executor.process_columnar(batch);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state shared-segment + unit-stage path must not allocate \
         ({MEASURED_BATCHES} window-closing batches performed {allocs} allocations)"
    );

    // a group seen for the first time: its block is a handful of
    // allocations (window plane, runner table, log table, one START ring)
    let (_, allocs) = alloc::measure_allocs(|| executor.process_columnar(&newcomer));
    assert!(
        (1..=8).contains(&allocs),
        "a first-seen group cost {allocs} allocations"
    );

    let results = executor.finish();
    for q in [QueryId(0), QueryId(1)] {
        let rows = results.of_query(q).count();
        assert!(rows > 1000, "{q:?}: windows closed and emitted ({rows})");
    }
}

#[test]
fn flink_like_columnar_path_is_allocation_free_after_warmup() {
    let _serial = serial();
    let mut catalog = Catalog::new();
    catalog.register_with_schema("A", Schema::new(["g", "v"]));
    catalog.register_with_schema("B", Schema::new(["g", "v"]));
    let workload = parse_workload(
        &mut catalog,
        ["RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY g WITHIN 8 ms SLIDE 4 ms"],
    )
    .unwrap();
    let mut flink = FlinkLike::new(&catalog, &workload).unwrap();

    let (warmup, t) = build_pair_batches(&catalog, WARMUP_BATCHES, 0);
    let (measured, _) = build_pair_batches(&catalog, MEASURED_BATCHES, t);

    for batch in &warmup {
        flink.process_columnar(batch);
    }
    let expected_results = (MEASURED_BATCHES * BATCH_ROWS / 4 + 64) * (GROUPS as usize);
    flink.reserve_results(expected_results);

    let constructed_before = flink.sequences_constructed();
    let (_, allocs) = alloc::measure_allocs(|| {
        for batch in &measured {
            flink.process_columnar(batch);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state Flink-like columnar path must not allocate \
         ({MEASURED_BATCHES} batches of {BATCH_ROWS} events performed {allocs} allocations)"
    );
    assert!(
        flink.sequences_constructed() > constructed_before,
        "the measured phase constructed sequences (did real work)"
    );
    let results = flink.finish();
    assert!(!results.is_empty());
}

#[test]
fn spass_like_columnar_path_is_allocation_free_after_warmup() {
    let _serial = serial();
    let mut catalog = Catalog::new();
    catalog.register_with_schema("A", Schema::new(["g", "v"]));
    catalog.register_with_schema("B", Schema::new(["g", "v"]));
    let workload = parse_workload(
        &mut catalog,
        ["RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY g WITHIN 8 ms SLIDE 4 ms"],
    )
    .unwrap();
    let mut spass = SpassLike::new(&catalog, &workload, &SharingPlan::non_shared()).unwrap();

    let (warmup, t) = build_pair_batches(&catalog, WARMUP_BATCHES, 0);
    let (measured, _) = build_pair_batches(&catalog, MEASURED_BATCHES, t);

    for batch in &warmup {
        spass.process_columnar(batch);
    }
    let expected_results = (MEASURED_BATCHES * BATCH_ROWS / 4 + 64) * (GROUPS as usize);
    spass.reserve_results(expected_results);

    let constructed_before = spass.sequences_constructed();
    let (_, allocs) = alloc::measure_allocs(|| {
        for batch in &measured {
            spass.process_columnar(batch);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state SPASS-like columnar path must not allocate \
         ({MEASURED_BATCHES} batches of {BATCH_ROWS} events performed {allocs} allocations)"
    );
    assert!(
        spass.sequences_constructed() > constructed_before,
        "the measured phase constructed sequences (did real work)"
    );
    let results = spass.finish();
    assert!(!results.is_empty());
}

#[test]
fn pipelined_route_and_execute_is_allocation_free_after_warmup() {
    // the pipelined ingest hand-off, end to end but single-threaded for
    // determinism: batches travel ingest → job ring → router → per-shard
    // rings → engines, with consumed row lists recycled through the
    // return rings — exactly the rings and pools the threaded runtime
    // uses (the routing/recycling steps below mirror the runtime's
    // `Fanout::dispatch`, which cross-references this test; keep them in
    // sync). After warm-up the whole cycle (route + hand-off + execute +
    // recycle) must not allocate: ring slots are pre-allocated, RoutedRows
    // circulate, and batch bodies are Arc-shared without re-wrapping.
    let _serial = serial();
    let mut catalog = Catalog::new();
    catalog.register_with_schema("A", Schema::new(["g", "v"]));
    catalog.register_with_schema("B", Schema::new(["g", "v"]));
    let workload = parse_workload(
        &mut catalog,
        ["RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY g WITHIN 8 ms SLIDE 4 ms"],
    )
    .unwrap();

    let build = |n: usize, first_time: u64| -> (Vec<Arc<EventBatch>>, u64) {
        let (batches, t) = build_pair_batches(&catalog, n, first_time);
        (batches.into_iter().map(Arc::new).collect(), t)
    };

    let parts = compile(&catalog, &workload, &SharingPlan::non_shared()).unwrap();
    let n_shards = 2usize;
    let mut router = BatchRouter::new(parts.clone(), n_shards);
    let mut shards: Vec<Vec<EngineKind>> = (0..n_shards)
        .map(|shard| {
            parts
                .iter()
                .enumerate()
                .map(|(pi, part)| {
                    let slice = ShardSlice {
                        index: shard as u32,
                        of: n_shards as u32,
                        owns_global: pi % n_shards == shard,
                    };
                    EngineKind::for_partition(part.clone(), Some(slice))
                })
                .collect()
        })
        .collect();

    // the pipeline's rings, at the runtime's shapes: a depth-2 job ring
    // (ingest → router) and per-shard routed/return rings
    type Routed = (Arc<EventBatch>, RoutedRows);
    type Ring<T> = (spsc::Sender<T>, spsc::Receiver<T>);
    let (mut job_tx, mut job_rx) = spsc::ring::<Arc<EventBatch>>(2);
    let mut shard_rings: Vec<Ring<Routed>> = (0..n_shards).map(|_| spsc::ring(4)).collect();
    let mut return_rings: Vec<Ring<RoutedRows>> = (0..n_shards).map(|_| spsc::ring(6)).collect();

    let mut rows_pool: Vec<RoutedRows> = Vec::new();
    let mut route_scratch: Vec<RoutedRows> = Vec::new();
    let rows_cap = n_shards * 6;
    let mut drive = |router: &mut BatchRouter,
                     shards: &mut Vec<Vec<EngineKind>>,
                     rows_pool: &mut Vec<RoutedRows>,
                     route_scratch: &mut Vec<RoutedRows>,
                     batch: &Arc<EventBatch>| {
        // ingest: enqueue the filled batch
        job_tx.send(Arc::clone(batch)).unwrap();
        // router: dequeue, recycle returned lists, route, fan out
        let batch = job_rx.recv().unwrap();
        for (_, rx) in return_rings.iter_mut() {
            rx.drain_into(rows_pool, rows_cap);
        }
        let mut out = std::mem::take(route_scratch);
        while out.len() < n_shards {
            out.push(rows_pool.pop().unwrap_or_default());
        }
        router.route_range_into(&batch, 0, batch.len(), &mut out);
        for ((tx, _), rows) in shard_rings.iter_mut().zip(out.drain(..)) {
            tx.send((Arc::clone(&batch), rows)).unwrap();
        }
        *route_scratch = out;
        // workers: consume the routed rows, return the lists
        for (shard, (_, rx)) in shard_rings.iter_mut().enumerate() {
            let (batch, mut rows) = rx.recv().unwrap();
            let engines = &mut shards[shard];
            for (pi, engine) in engines.iter_mut().enumerate() {
                if !rows.per_part[pi].is_empty() {
                    engine.process_routed(&batch, &rows.per_part[pi]);
                }
            }
            drop(batch);
            rows.clear();
            let _ = return_rings[shard].0.try_send(rows);
        }
    };

    let (warmup, t) = build(WARMUP_BATCHES, 0);
    let (measured, _) = build(MEASURED_BATCHES, t);
    for batch in &warmup {
        drive(
            &mut router,
            &mut shards,
            &mut rows_pool,
            &mut route_scratch,
            batch,
        );
    }
    // a pair completes every 2 ms and lands in two windows: one result
    // per ms over both shards (the result log reserves exactly what it is
    // asked for — there is no hash-table slack to absorb an undercount)
    let expected = MEASURED_BATCHES * BATCH_ROWS / 2 + 64;
    for engines in &mut shards {
        for engine in engines.iter_mut() {
            engine.reserve_results(expected);
        }
    }

    let ((), allocs) = alloc::measure_allocs(|| {
        for batch in &measured {
            drive(
                &mut router,
                &mut shards,
                &mut rows_pool,
                &mut route_scratch,
                batch,
            );
        }
    });
    assert_eq!(
        allocs, 0,
        "pipelined route + hand-off + execute steady state must not allocate \
         ({MEASURED_BATCHES} batches of {BATCH_ROWS} events performed {allocs} allocations)"
    );

    let mut matched = 0u64;
    let mut results = ExecutorResults::new();
    for engines in shards {
        for engine in engines {
            matched += engine.events_matched();
            results.merge(engine.finish());
        }
    }
    assert_eq!(
        matched,
        ((WARMUP_BATCHES + MEASURED_BATCHES) * BATCH_ROWS) as u64,
        "every row matched (the pipeline did real work)"
    );
    assert!(!results.is_empty());
}

#[test]
fn two_router_plane_is_allocation_free_after_warmup() {
    // the PR's routing plane, end to end but single-threaded for
    // determinism: ingest fans every batch to BOTH routers over
    // per-router job rings, each router scans only its own scope subset
    // into its own recycled RoutedRows, and each worker consumes one lane
    // per router per batch — the same fan-out, per-lane recycling, and
    // lane-merge step the threaded runtime runs (see `Fanout::dispatch`
    // and the worker's lane merge; keep in sync). The scopes a router
    // does not own stay empty in its lists, so merging lanes is pure
    // iteration. After warm-up the whole cycle must not allocate.
    let _serial = serial();
    let mut catalog = Catalog::new();
    catalog.register_with_schema("A", Schema::new(["g", "v"]));
    catalog.register_with_schema("B", Schema::new(["g", "v"]));
    // four distinct windows -> four compiled scopes under a non-shared
    // plan, so a 2-router plane owns two scopes each (LPT on equal costs)
    let sources: Vec<String> = (0..4)
        .map(|i| {
            format!(
                "RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY g WITHIN {} ms SLIDE 4 ms",
                8 + 4 * i
            )
        })
        .collect();
    let workload = parse_workload(&mut catalog, sources.iter().map(String::as_str)).unwrap();

    let build = |n: usize, first_time: u64| -> (Vec<Arc<EventBatch>>, u64) {
        let (batches, t) = build_pair_batches(&catalog, n, first_time);
        (batches.into_iter().map(Arc::new).collect(), t)
    };

    let parts = compile(&catalog, &workload, &SharingPlan::non_shared()).unwrap();
    let n_parts = parts.len();
    assert_eq!(n_parts, 4, "four queries, four scopes");
    let n_shards = 2usize;
    const N_ROUTERS: usize = 2;
    let mut plane = sharon_executor::split_router_plane(parts.clone(), n_shards, N_ROUTERS);
    assert_eq!(plane.len(), N_ROUTERS);
    for router in &plane {
        assert_eq!(router.n_scopes(), n_parts, "plane-wide slot count");
        assert_eq!(router.n_local_scopes(), 2, "LPT halves equal costs");
    }
    let mut shards: Vec<Vec<EngineKind>> = (0..n_shards)
        .map(|shard| {
            parts
                .iter()
                .enumerate()
                .map(|(pi, part)| {
                    let slice = ShardSlice {
                        index: shard as u32,
                        of: n_shards as u32,
                        owns_global: pi % n_shards == shard,
                    };
                    EngineKind::for_partition(part.clone(), Some(slice))
                })
                .collect()
        })
        .collect();

    // per-router job rings (the ingest fan-out) and per-router, per-shard
    // routed/return rings — each lane recycles its own RoutedRows
    type Routed = (Arc<EventBatch>, RoutedRows);
    type Ring<T> = (spsc::Sender<T>, spsc::Receiver<T>);
    let mut job_rings: Vec<Ring<Arc<EventBatch>>> = (0..N_ROUTERS).map(|_| spsc::ring(2)).collect();
    let mut shard_rings: Vec<Vec<Ring<Routed>>> = (0..N_ROUTERS)
        .map(|_| (0..n_shards).map(|_| spsc::ring(4)).collect())
        .collect();
    let mut return_rings: Vec<Vec<Ring<RoutedRows>>> = (0..N_ROUTERS)
        .map(|_| (0..n_shards).map(|_| spsc::ring(6)).collect())
        .collect();

    let mut rows_pools: Vec<Vec<RoutedRows>> = (0..N_ROUTERS).map(|_| Vec::new()).collect();
    let mut route_scratch: Vec<Vec<RoutedRows>> = (0..N_ROUTERS).map(|_| Vec::new()).collect();
    let rows_cap = n_shards * 6;
    let mut drive = |plane: &mut Vec<Box<dyn RouteBatch>>,
                     shards: &mut Vec<Vec<EngineKind>>,
                     rows_pools: &mut Vec<Vec<RoutedRows>>,
                     route_scratch: &mut Vec<Vec<RoutedRows>>,
                     batch: &Arc<EventBatch>| {
        // ingest: fan the shared batch to every router's job ring
        for (tx, _) in job_rings.iter_mut() {
            tx.send(Arc::clone(batch)).unwrap();
        }
        // routers: each dequeues, recycles its returned lists, scans its
        // scope subset, fans out to its per-shard lane
        for (ri, router) in plane.iter_mut().enumerate() {
            let batch = job_rings[ri].1.recv().unwrap();
            let pool = &mut rows_pools[ri];
            for (_, rx) in return_rings[ri].iter_mut() {
                rx.drain_into(pool, rows_cap);
            }
            let mut out = std::mem::take(&mut route_scratch[ri]);
            while out.len() < n_shards {
                out.push(pool.pop().unwrap_or_default());
            }
            router.route_range_into(&batch, 0, batch.len(), &mut out);
            for ((tx, _), rows) in shard_rings[ri].iter_mut().zip(out.drain(..)) {
                tx.send((Arc::clone(&batch), rows)).unwrap();
            }
            route_scratch[ri] = out;
        }
        // workers: merge the two lanes of the same batch — disjoint scope
        // ownership means per-slot iteration order across lanes is free
        for (shard, engines) in shards.iter_mut().enumerate() {
            for ri in 0..N_ROUTERS {
                let (batch, mut rows) = shard_rings[ri][shard].1.recv().unwrap();
                for (pi, engine) in engines.iter_mut().enumerate() {
                    if !rows.per_part[pi].is_empty() {
                        engine.process_routed(&batch, &rows.per_part[pi]);
                    }
                }
                drop(batch);
                rows.clear();
                let _ = return_rings[ri][shard].0.try_send(rows);
            }
        }
    };

    let (warmup, t) = build(WARMUP_BATCHES, 0);
    let (measured, _) = build(MEASURED_BATCHES, t);
    for batch in &warmup {
        drive(
            &mut plane,
            &mut shards,
            &mut rows_pools,
            &mut route_scratch,
            batch,
        );
    }
    // four windows of up to 20 ms close every 4 ms over the measured
    // 8192 ms span, for ~2k closes x 8 resident groups per shard of
    // results per engine
    let expected = 2 * MEASURED_BATCHES * BATCH_ROWS;
    for engines in &mut shards {
        for engine in engines.iter_mut() {
            engine.reserve_results(expected);
        }
    }

    let ((), allocs) = alloc::measure_allocs(|| {
        for batch in &measured {
            drive(
                &mut plane,
                &mut shards,
                &mut rows_pools,
                &mut route_scratch,
                batch,
            );
        }
    });
    assert_eq!(
        allocs, 0,
        "two-router plane fan-out + routing + lane merge + recycling steady state must \
         not allocate ({MEASURED_BATCHES} batches of {BATCH_ROWS} events performed \
         {allocs} allocations)"
    );

    // every row matched once per scope globally: the plane partitions the
    // scopes, it never drops or duplicates work
    let mut matched = 0u64;
    let mut results = ExecutorResults::new();
    for engines in shards {
        for engine in engines {
            matched += engine.events_matched();
            results.merge(engine.finish());
        }
    }
    assert_eq!(
        matched,
        (n_parts * (WARMUP_BATCHES + MEASURED_BATCHES) * BATCH_ROWS) as u64,
        "each of the {n_parts} scopes matched every row exactly once across the plane"
    );
    assert!(!results.is_empty());
}

#[test]
fn dedup_router_scans_each_distinct_scope_once_per_batch() {
    // 64 queries sharing one routing scope (same SEQ(A, B) + GROUP BY,
    // windows differ): scope dedup collapses them to ONE router scope, so
    // the router performs exactly 1 scope scan per batch — not 64 —
    // measured via the metrics scan counter, in both routing modes, with
    // results still identical to the sequential baseline.
    let _serial = serial();
    let mut catalog = Catalog::new();
    catalog.register_with_schema("A", Schema::new(["g", "v"]));
    catalog.register_with_schema("B", Schema::new(["g", "v"]));
    let sources: Vec<String> = (0..64)
        .map(|i| {
            format!(
                "RETURN COUNT(*) PATTERN SEQ(A, B) GROUP BY g WITHIN {} ms SLIDE 4 ms",
                8 + 4 * (i % 16)
            )
        })
        .collect();
    let workload = parse_workload(&mut catalog, sources.iter().map(String::as_str)).unwrap();

    const BATCHES: usize = 8;
    // flush threshold = the generator's batch size, so `process_shared`
    // dispatches exactly BATCHES chunks
    const BATCH_SIZE: usize = BATCH_ROWS;
    let (batches, _) = build_pair_batches(&catalog, BATCHES, 0);
    let mut whole = EventBatch::with_capacity(BATCHES * BATCH_SIZE, 2);
    for b in &batches {
        whole.extend_from_range(b, 0, b.len());
    }
    assert_eq!(whole.len(), BATCHES * BATCH_SIZE);
    let shared = Arc::new(whole);

    let mut sequential = FlinkLike::new(&catalog, &workload).unwrap();
    for b in &batches {
        sequential.process_columnar(b);
    }
    let want = sequential.finish();
    assert!(!want.is_empty());

    for routers in [1usize, 2] {
        let options = ShardedOptions {
            batch_size: BATCH_SIZE,
            routers,
            ..ShardedOptions::default()
        };
        let mut sharded = FlinkLike::sharded(&catalog, &workload, 3, &options).unwrap();
        let scans_before = sharon_metrics::router_scope_scans();
        sharded.process_shared(&shared);
        let got = sharded.finish(); // drains the pipeline: all chunks routed
        let scans = sharon_metrics::router_scope_scans() - scans_before;
        assert_eq!(
            scans, BATCHES as u64,
            "{routers} router(s): 64 identical-scope queries must cost exactly one \
             scope scan per batch ({BATCHES} batches performed {scans} scans)"
        );
        assert!(
            got.semantically_eq(&want, 1e-9),
            "{routers} router(s): deduplicated routing changed the results"
        );
    }
}

#[test]
fn per_event_shim_stays_inline_for_small_events() {
    let _serial = serial();
    // the row-form adapter (tests, examples, stream generators): events
    // with <= 4 attributes never allocate for their attribute storage
    let ((), allocs) = alloc::measure_allocs(|| {
        let mut sink = 0u64;
        for i in 0..1000u64 {
            let e = Event::with_attrs(
                EventTypeId(0),
                Timestamp(i),
                [Value::Int(i as i64), Value::Float(0.5), Value::Int(7)],
            );
            sink += e.attrs.len() as u64;
            std::hint::black_box(&e);
        }
        assert_eq!(sink, 3000);
    });
    assert_eq!(allocs, 0, "small events must not touch the allocator");
}
