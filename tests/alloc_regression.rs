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
    compile, BatchProcessor, BatchRouter, EngineKind, RoutedRows, ShardedOptions,
};
use sharon_metrics::TrackingAllocator;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};

#[path = "support.rs"]
mod support;

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
    let (_, allocs) = sharon_metrics::measure_allocs(|| {
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
    // log: one more batch registers every group in it again (an id per
    // group and log), `reserve_results` reserves the segments, and from
    // there emission is pure appends
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

    let (_, allocs) = sharon_metrics::measure_allocs(|| {
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
    // the two logs are disjoint and carry their own key tables
    let mut all = first_epoch;
    all.merge(second_epoch);
    all.merge(executor.finish());
    let mut oracle = Executor::non_shared(&catalog, &workload).unwrap();
    for batch in warmup.iter().chain(&reintern).chain(&measured) {
        oracle.process_columnar(batch);
    }
    support::assert_equivalent(
        &all,
        &oracle.finish(),
        workload.ids(),
        0.0,
        "epochs vs one run",
    );
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
        let (_, allocs) = sharon_metrics::measure_allocs(|| {
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
fn finish_allocates_as_often_at_24_partitions_as_at_one() {
    // the engines close their last windows into the executor's one log,
    // so once that log is reserved `finish` merges nothing: its
    // allocations do not grow with the partition count
    let _serial = serial();
    let mut catalog = Catalog::new();
    catalog.register_with_schema("A", Schema::new(["g", "v"]));
    catalog.register_with_schema("B", Schema::new(["g", "v"]));
    let sources = distinct_predicate_queries();
    let (warmup, _) = build_pair_batches(&catalog, WARMUP_BATCHES, 0);
    let mut finish_allocs = |sources: &[String]| {
        let workload = parse_workload(&mut catalog, sources.iter().map(String::as_str)).unwrap();
        let mut executor = Executor::non_shared(&catalog, &workload).unwrap();
        for batch in &warmup {
            executor.process_columnar(batch);
        }
        // a group has at most two windows open per query
        executor.reserve_results(2 * GROUPS as usize);
        let (results, allocs) = sharon_metrics::measure_allocs(|| executor.finish());
        assert!(results.len() >= GROUPS as usize * sources.len());
        allocs
    };
    let one = finish_allocs(&sources[..1]);
    let all = finish_allocs(&sources);
    assert_eq!(
        all, one,
        "finish at 24 partitions allocated {all} times, at one {one}"
    );
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
    let ((), allocs) = sharon_metrics::measure_allocs(|| {
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

/// Scramble every batch with a bounded shuffle; returns the lateness that
/// covers the disorder within each batch.
fn scramble(warmup: &mut [EventBatch], measured: &mut [EventBatch]) -> u64 {
    const DISORDER: u32 = 32;
    let mut need = 0u64;
    for (i, batch) in warmup.iter_mut().chain(measured).enumerate() {
        sharon::streams::scramble_batch(batch, DISORDER, 0xA110_C000 + i as u64);
        need = need.max(sharon::streams::required_lateness(batch));
    }
    assert!(need > 0, "the shuffle must actually disorder the stream");
    need
}

#[test]
fn watermark_tracking_is_allocation_free_after_warmup() {
    let _serial = serial();
    // event-time gating: a bounded-disorder stream through a gated engine
    // — the gate borrows released rows from the batch and copies only the
    // rows that wait into a carry whose buffers swap, so the steady-state
    // cost of watermark tracking is zero allocations
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
    let need = scramble(&mut warmup, &mut measured);
    executor.set_lateness(need);

    // warm up: groups, scratch buffers and the gate's fresh list, carry
    // and spare carry all reach steady-state capacity
    for batch in &warmup {
        executor.process_columnar(batch);
    }
    let expected_results = (MEASURED_BATCHES * BATCH_ROWS / 4 + 64) * (GROUPS as usize);
    executor.reserve_results(expected_results);

    let matched_before = executor.events_matched();
    let (_, allocs) = sharon_metrics::measure_allocs(|| {
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

    // the gate behind `.shards(1)`: ingest copy, router thread, worker
    // ring and the worker's gated engine. `measure_allocs` sees only the
    // calling thread, so this phase reads the process-wide count while
    // `serial()` keeps every other test of this binary idle, and feeds one
    // batch at a time, waiting for the worker to release its rows: how
    // many row lists the full rings hold back depends on thread timing,
    // and a pool that takes more of them back than ever before grows.
    // The runtime cannot reserve result space, so a window longer than
    // the stream keeps result emission out of the measured phase.
    let long = parse_workload(
        &mut catalog,
        ["RETURN COUNT(*) PATTERN SEQ(A) GROUP BY g WITHIN 60 s SLIDE 60 s"],
    )
    .unwrap();
    let (mut warmup, t) = build_batches(&catalog, WARMUP_BATCHES, 0);
    let (mut measured, _) = build_batches(&catalog, MEASURED_BATCHES, t);
    let need = scramble(&mut warmup, &mut measured);
    // the rows the worker has released after each batch: a sequential
    // gated engine fed the same batches releases the same rows
    let mut reference = Executor::non_shared(&catalog, &long).unwrap();
    reference.set_lateness(need);
    let released: Vec<u64> = warmup
        .iter()
        .chain(&measured)
        .map(|batch| {
            reference.process_columnar(batch);
            reference.events_matched()
        })
        .collect();
    let options = ShardedOptions {
        batch_size: BATCH_ROWS,
        lateness: Some(need),
        ..ShardedOptions::default()
    };
    let plan = SharingPlan::non_shared();
    let mut sharded = ShardedExecutor::with_options(&catalog, &long, &plan, 1, options).unwrap();
    let caught_up = |sharded: &ShardedExecutor, want: u64| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while sharded.events_matched() < want {
            assert!(std::time::Instant::now() < deadline, "the worker stalled");
            std::thread::yield_now();
        }
    };
    // the last warm-up batches go one at a time too, so the router's row
    // list pool has taken back every list the full rings held
    for (i, batch) in warmup.iter().enumerate() {
        sharded.process_columnar(batch);
        if i + 8 >= WARMUP_BATCHES {
            caught_up(&sharded, released[i]);
        }
    }
    let before = sharon_metrics::alloc_count();
    for (batch, &want) in measured.iter().zip(&released[WARMUP_BATCHES..]) {
        sharded.process_columnar(batch);
        caught_up(&sharded, want);
    }
    let allocs = sharon_metrics::alloc_count() - before;
    assert_eq!(
        allocs, 0,
        "a gated `.shards(1)` runtime must not allocate in steady state \
         ({MEASURED_BATCHES} disordered batches performed {allocs} allocations)"
    );
    let report = sharded.finish_with_stats();
    let (got, matched) = (report.results, report.events_matched);
    assert_eq!(
        matched,
        (WARMUP_BATCHES + MEASURED_BATCHES) as u64 * BATCH_ROWS as u64
    );
    support::assert_equivalent(
        &got,
        &reference.finish(),
        long.ids(),
        0.0,
        "gated shards(1)",
    );
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
    let (_, allocs) = sharon_metrics::measure_allocs(|| {
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

/// `n` batches cycling through `types`, `types.len()` consecutive rows a
/// group over `groups` groups, one row per ms from `*t` on.
fn build_cycles(types: &[EventTypeId], groups: i64, n: usize, t: &mut u64) -> Vec<EventBatch> {
    let cycle = types.len() as u64;
    (0..n)
        .map(|_| {
            let mut batch = EventBatch::with_capacity(BATCH_ROWS, 2);
            for _ in 0..BATCH_ROWS {
                *t += 1;
                let group = Value::Int((*t / cycle) as i64 % groups);
                batch.push_from(
                    types[(*t % cycle) as usize],
                    Timestamp(*t),
                    [group, Value::Int(1)],
                );
            }
            batch
        })
        .collect()
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
    let warmup = build_cycles(&types, GROUPS, WARMUP_BATCHES, &mut t);
    let measured = build_cycles(&types, GROUPS, MEASURED_BATCHES, &mut t);
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
    let (_, allocs) = sharon_metrics::measure_allocs(|| {
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
    let (_, allocs) = sharon_metrics::measure_allocs(|| executor.process_columnar(&newcomer));
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
fn folding_starts_across_24_scopes_is_allocation_free() {
    // the ec-filter-seq shape: 24 length-3 queries with pairwise distinct
    // predicates (24 scopes) over six types; each group sees two to three
    // STARTs of every runner per slide, which fold into one record
    let _serial = serial();
    const TYPES: [&str; 6] = ["T0", "T1", "T2", "T3", "T4", "T5"];
    const GROUPS: i64 = 2;
    let mut catalog = Catalog::new();
    for name in TYPES {
        catalog.register_with_schema(name, Schema::new(["g", "v"]));
    }
    let sources: Vec<String> = (0..24)
        .map(|q| {
            let [a, b, c] = [0, 1, 2].map(|i| TYPES[(q + i) % 6]);
            format!(
                "RETURN COUNT(*) PATTERN SEQ({a}, {b}, {c}) WHERE {a}.v >= -{q} GROUP BY g \
                 WITHIN 128 ms SLIDE 32 ms"
            )
        })
        .collect();
    let workload = parse_workload(&mut catalog, sources.iter().map(String::as_str)).unwrap();
    let mut executor = Executor::non_shared(&catalog, &workload).unwrap();
    assert_eq!(executor.scan_stats().len(), 24, "one scope per query");

    let types: Vec<EventTypeId> = TYPES.iter().map(|n| catalog.lookup(n).unwrap()).collect();
    let mut t = 0u64;
    let warmup = build_cycles(&types, GROUPS, WARMUP_BATCHES, &mut t);
    let measured = build_cycles(&types, GROUPS, MEASURED_BATCHES, &mut t);
    for batch in &warmup {
        executor.process_columnar(batch);
    }
    // a batch is 8 slides for each group
    executor.reserve_results(MEASURED_BATCHES * 8 * GROUPS as usize + 64);
    let (_, allocs) = sharon_metrics::measure_allocs(|| {
        for batch in &measured {
            executor.process_columnar(batch);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state folding of 24 scopes must not allocate \
         ({MEASURED_BATCHES} batches of {BATCH_ROWS} events performed {allocs} allocations)"
    );
    // per runner and group at most five records of two cells (one per
    // live slide of a four-slide window) and five open windows — a START
    // per 12 ms would hold ten or eleven per-START records instead
    let bound = 24 * GROUPS as usize * (5 * 2 + 5);
    let cells = executor.cell_count();
    assert!(
        cells <= bound,
        "{cells} live cells, at most {bound} expected"
    );
    let mut oracle = FlinkLike::new(&catalog, &workload).unwrap();
    for batch in warmup.iter().chain(&measured) {
        oracle.process_columnar(batch);
    }
    let results = executor.finish();
    assert!(results.len() > 1000, "windows closed and emitted");
    support::assert_equivalent(&results, &oracle.finish(), workload.ids(), 0.0, "24 scopes");
}

#[test]
fn chained_runner_is_allocation_free_after_warmup() {
    // the TX shape with a chained runner: (S1, S2, S3) is shared at stage
    // 1 behind the unit prefixes X and Y, so every record carries two
    // chain offsets and every S3 folds the completions over both logs
    let _serial = serial();
    const TYPES: [&str; 5] = ["X", "Y", "S1", "S2", "S3"];
    let mut catalog = Catalog::new();
    for name in TYPES {
        catalog.register_with_schema(name, Schema::new(["g", "v"]));
    }
    let workload = parse_workload(
        &mut catalog,
        ["X", "Y"].map(|first| {
            format!(
                "RETURN COUNT(*) PATTERN SEQ({first}, S1, S2, S3) \
                 GROUP BY g WITHIN 64 ms SLIDE 16 ms"
            )
        }),
    )
    .unwrap();
    let shared = Pattern::from_names(&mut catalog, &TYPES[2..]);
    let plan = SharingPlan::new([PlanCandidate::new(shared, [QueryId(0), QueryId(1)])]);
    let mut executor = Executor::new(&catalog, &workload, &plan).unwrap();

    let types: Vec<EventTypeId> = TYPES.iter().map(|n| catalog.lookup(n).unwrap()).collect();
    let mut t = 0u64;
    let warmup = build_cycles(&types, GROUPS, WARMUP_BATCHES, &mut t);
    let measured = build_cycles(&types, GROUPS, MEASURED_BATCHES, &mut t);
    for batch in &warmup {
        executor.process_columnar(batch);
    }
    // a batch is 16 slides for each of 16 groups and two queries
    executor.reserve_results(MEASURED_BATCHES * 16 * GROUPS as usize + 64);
    let (_, allocs) = sharon_metrics::measure_allocs(|| {
        for batch in &measured {
            executor.process_columnar(batch);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state chained runner must not allocate \
         ({MEASURED_BATCHES} batches of {BATCH_ROWS} events performed {allocs} allocations)"
    );
    let mut oracle = Executor::non_shared(&catalog, &workload).unwrap();
    for batch in warmup.iter().chain(&measured) {
        oracle.process_columnar(batch);
    }
    let results = executor.finish();
    for q in [QueryId(0), QueryId(1)] {
        let rows = results.of_query(q).count();
        assert!(rows > 1000, "{q:?}: windows closed and emitted ({rows})");
    }
    support::assert_equivalent(
        &results,
        &oracle.finish(),
        workload.ids(),
        0.0,
        "chained runner",
    );
}

#[test]
fn a_query_parses_in_a_handful_of_allocations() {
    // tokens borrow the query text: parsing allocates the token vector
    // and what the query keeps (pattern, GROUP BY list and names), not a
    // string per token
    let _serial = serial();
    const SOURCE: &str = "RETURN COUNT(*) PATTERN SEQ(Laptop, Case, Adapter) \
                          GROUP BY customer WITHIN 5 s SLIDE 1 s";
    let mut catalog = Catalog::new();
    // the types are registered already, as for every query after the first
    parse_query(&mut catalog, SOURCE).unwrap();
    let (query, allocs) =
        sharon_metrics::measure_allocs(|| parse_query(&mut catalog, SOURCE).unwrap());
    assert!(allocs <= 8, "one COUNT(*) query took {allocs} allocations");
    assert_eq!(query.group_by, vec!["customer".to_string()]);
    assert_eq!(query.pattern.len(), 3);
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
    let (_, allocs) = sharon_metrics::measure_allocs(|| {
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
    let (_, allocs) = sharon_metrics::measure_allocs(|| {
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
    // sync; the runtime also pools a shard's empty lists instead of
    // sending them, which this mirror does not model). After warm-up the whole cycle (route + hand-off + execute +
    // recycle) must not allocate: channel slots are pre-allocated, RoutedRows
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
    // a shard worker's engines and the one result log they close into
    type Shard = (Vec<EngineKind>, ExecutorResults);
    let mut shards: Vec<Shard> = (0..n_shards)
        .map(|_| {
            let engines = parts.iter().cloned().map(EngineKind::for_partition);
            (engines.collect(), ExecutorResults::new())
        })
        .collect();

    // the pipeline's channels, at the runtime's depths: a depth-2 job
    // ring (ingest → router) and per-shard routed/return rings
    type Routed = (Arc<EventBatch>, RoutedRows);
    type Ring<T> = (SyncSender<T>, Receiver<T>);
    let (job_tx, job_rx) = sync_channel::<Arc<EventBatch>>(2);
    let shard_rings: Vec<Ring<Routed>> = (0..n_shards).map(|_| sync_channel(4)).collect();
    let return_rings: Vec<Ring<RoutedRows>> = (0..n_shards).map(|_| sync_channel(6)).collect();

    let mut rows_pool: Vec<RoutedRows> = Vec::new();
    let mut route_scratch: Vec<RoutedRows> = Vec::new();
    let rows_cap = n_shards * 6;
    let drive = |router: &mut BatchRouter,
                 shards: &mut Vec<Shard>,
                 rows_pool: &mut Vec<RoutedRows>,
                 route_scratch: &mut Vec<RoutedRows>,
                 batch: &Arc<EventBatch>| {
        // ingest: enqueue the filled batch
        job_tx.send(Arc::clone(batch)).unwrap();
        // router: dequeue, recycle returned lists, route, fan out
        let batch = job_rx.recv().unwrap();
        for (_, rx) in &return_rings {
            for rows in rx.try_iter() {
                if rows_pool.len() < rows_cap {
                    rows_pool.push(rows);
                }
            }
        }
        let mut out = std::mem::take(route_scratch);
        while out.len() < n_shards {
            out.push(rows_pool.pop().unwrap_or_default());
        }
        router.route_range_into(&batch, 0, batch.len(), &mut out);
        for ((tx, _), rows) in shard_rings.iter().zip(out.drain(..)) {
            tx.send((Arc::clone(&batch), rows)).unwrap();
        }
        *route_scratch = out;
        // workers: consume the routed rows, return the lists
        for (shard, (_, rx)) in shard_rings.iter().enumerate() {
            let (batch, mut rows) = rx.recv().unwrap();
            let (engines, log) = &mut shards[shard];
            for (pi, engine) in engines.iter_mut().enumerate() {
                if !rows.per_part[pi].is_empty() {
                    engine.process_rows(&batch, &rows.per_part[pi], log);
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
    for (_, log) in &mut shards {
        log.reserve(expected);
    }

    let ((), allocs) = sharon_metrics::measure_allocs(|| {
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
    for (engines, mut log) in shards {
        for engine in engines {
            matched += engine.events_matched();
            engine.finish(&mut log);
        }
        results.merge(log);
    }
    assert_eq!(
        matched,
        ((WARMUP_BATCHES + MEASURED_BATCHES) * BATCH_ROWS) as u64,
        "every row matched (the pipeline did real work)"
    );
    assert!(!results.is_empty());
}

#[test]
fn dedup_router_scans_each_distinct_scope_once_per_batch() {
    // 64 queries sharing one routing scope (same SEQ(A, B) + GROUP BY,
    // windows differ): scope dedup collapses them to ONE scan scope, so the
    // two-step driver scans each row once per batch — not 64 times —
    // measured via its per-scope scan counters, with every query answering
    // exactly as it does when run alone.
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
    let (batches, _) = build_pair_batches(&catalog, BATCHES, 0);

    let mut shared = FlinkLike::new(&catalog, &workload).unwrap();
    for b in &batches {
        shared.process_columnar(b);
    }
    let rows = (BATCHES * BATCH_ROWS) as u64;
    assert_eq!(
        BatchProcessor::scan_stats(&shared),
        vec![(rows, rows)],
        "64 identical-scope queries must cost exactly one scope scan per batch"
    );
    let got = shared.finish();

    for q in workload.queries() {
        let mut alone = Workload::new();
        alone.push(q.clone());
        let mut single = FlinkLike::new(&catalog, &alone).unwrap();
        for b in &batches {
            single.process_columnar(b);
        }
        let want = single.finish().of_query_sorted(QueryId(0));
        assert!(!want.is_empty());
        assert_eq!(
            got.of_query_sorted(q.id),
            want,
            "deduplicated scanning changed the results of query {}",
            q.id
        );
    }
}

#[test]
fn result_log_stores_a_window_close_as_one_run() {
    let _serial = serial();
    // rows by interned id, the way an engine closes windows: `run` queries
    // of one group and window in a row, the window 1 ms past the previous
    // run's. A run's header is its length byte, group id 0 and a step of
    // 1: 3 bytes. A row is a 1-byte query varint and a header varint
    // holding `count << 2`, so counts below 32 take 1 byte, below 4096 two,
    // and the counts 0..2¹⁸ used below 2.98 on average: 3.98 bytes a row.
    // Each segment's column starts at the previous one's length and a
    // sixteenth more, so runs of 8 cost (3.98 + 3/8) × 17/16 = 4.63 bytes
    // a row and runs of 1 (3.98 + 3) × 17/16 = 7.42. LR's results, counts
    // below 32 in runs of its queries, cost (2 + 3/8) × 17/16 = 2.52. Once
    // per log: the first segment grows by doubling, the 64-byte `Segment`s
    // take 0.016 a row, and where counts grow (not LR) the second segment's
    // rows are a byte wider than the first's, so it outgrows its start and
    // doubles once: +0.06, +0.11 and +0.04 in all. Each bound leaves the
    // 0.075 / 0.1 over its derivation that the earlier layouts' bounds left
    // (16-byte runs stored 6.42, 20.29 and 4.26).
    const ROWS: usize = 64 * 4096;
    let bytes_per_row = |run: usize, count: fn(usize) -> u128| {
        let before = sharon_metrics::current_bytes();
        let mut log = ExecutorResults::new();
        let gid = log.add_group(GroupKey::Global);
        for i in 0..ROWS {
            log.emit_interned(
                QueryId((i % run) as u32),
                gid,
                Timestamp((i / run) as u64),
                sharon::query::aggregate::AggValue::Count(count(i)),
            );
        }
        let grown = sharon_metrics::current_bytes() - before;
        assert_eq!(log.len(), ROWS);
        grown as f64 / ROWS as f64
    };
    let eight = bytes_per_row(8, |i| i as u128);
    let one = bytes_per_row(1, |i| i as u128);
    let lr = bytes_per_row(8, |i| (i % 32) as u128);
    eprintln!(
        "result log: {eight:.3} B/row in runs of 8, {one:.3} B/row in runs of 1, \
         {lr:.3} B/row for LR-sized counts"
    );
    assert!(eight <= 4.77, "runs of 8 cost {eight:.3} bytes a row");
    assert!(one <= 7.65, "runs of 1 cost {one:.3} bytes a row");
    assert!(lr <= 2.64, "LR-sized rows cost {lr:.3} bytes a row");
}
