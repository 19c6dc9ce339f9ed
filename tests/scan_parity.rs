//! Scalar-vs-vector scan parity: the compiled [`ScanKernel`] bitmap path
//! must select exactly the rows the per-row interpreter selects — not
//! "equivalent" rows, the *same* rows, row for row — and the executors
//! built under `SHARON_SCAN=scalar` and `SHARON_SCAN=vector` must produce
//! semantically equal results and identical scan tallies.
//!
//! Three layers of evidence:
//!
//! 1. **Property test against a scalar oracle** — random ragged batches
//!    mixing NaN / ±inf / −0.0 / huge exact integers / strings / missing
//!    attributes, random predicate tables (all six operators × numeric and
//!    string literals), random `GROUP BY` widths, evaluated over random
//!    sub-ranges (partial trailing words included). The kernel's selection
//!    must equal the interpreter's exactly.
//! 2. **Row-for-row parity on the paper streams** — every compiled
//!    partition of predicate-bearing TX / LR / EC workloads, kernel vs
//!    interpreter, over ragged chunkings of the generated stream.
//! 3. **End-to-end mode equivalence** — sequential, sharded, Flink-like,
//!    and SPASS-like executors built under forced scalar vs vector modes
//!    agree (`semantically_eq`) and report identical per-scope
//!    `(rows_scanned, rows_selected)` tallies on all three streams.

use proptest::prelude::{prop, prop_oneof, proptest, Just, ProptestConfig};
use proptest::strategy::Strategy as _;
use sharon::prelude::*;
use sharon::streams::ecommerce::{self, EcommerceConfig};
use sharon::streams::linear_road::{self, LinearRoadConfig};
use sharon::streams::taxi::{self, TaxiConfig};
use sharon::twostep::{FlinkLike, SpassLike};
use sharon_executor::{compile, set_scan_mode, ScanKernel, ScanMode};
use sharon_query::{clause_passes, CmpOp};
use sharon_types::AttrId;
use std::sync::Mutex;

/// The scan-mode override is process-global: tests that force a mode hold
/// this lock for their full body and restore the environment default on
/// drop (poisoning is harmless — the guard protects only serialization).
static MODE_LOCK: Mutex<()> = Mutex::new(());

struct ModeGuard(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

impl ModeGuard {
    fn hold() -> Self {
        ModeGuard(MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Drop for ModeGuard {
    fn drop(&mut self) {
        set_scan_mode(None);
    }
}

/// The per-row interpreter, spelled out: exactly the `routed` →
/// `predicates_pass` → `groupable` walk the scalar engines run.
fn scalar_select(
    routed: &[bool],
    group_attrs: &[Box<[AttrId]>],
    predicates: &[Vec<(AttrId, CmpOp, Value)>],
    batch: &EventBatch,
    lo: usize,
    hi: usize,
) -> Vec<u32> {
    let mut sel = Vec::new();
    for row in lo..hi {
        let ty = batch.ty(row);
        if !routed.get(ty.index()).copied().unwrap_or(false) {
            continue;
        }
        let attrs = batch.attrs(row);
        let preds_ok = predicates.get(ty.index()).is_none_or(|preds| {
            preds
                .iter()
                .all(|(a, op, lit)| clause_passes(*op, attrs.get(a.index()), lit))
        });
        let grp_ok = group_attrs
            .get(ty.index())
            .is_none_or(|gattrs| gattrs.iter().all(|a| attrs.get(a.index()).is_some()));
        if preds_ok && grp_ok {
            sel.push(row as u32);
        }
    }
    sel
}

/// Attribute values spanning every comparison edge case: NaN (fails all
/// ops but `!=`), ±inf, −0.0 (== 0.0), integers past 2^53 (exact in the
/// i64 lane, conflated in f64), small overlapping numerics, and strings
/// (incomparable with numeric literals).
fn values() -> impl proptest::strategy::Strategy<Value = Value> {
    prop_oneof![
        (-3i64..=3).prop_map(Value::Int),
        Just(Value::Int(1i64 << 53)),
        Just(Value::Int((1i64 << 53) + 1)),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(f64::INFINITY)),
        Just(Value::Float(f64::NEG_INFINITY)),
        Just(Value::Float(-0.0)),
        (-4.0f64..4.0).prop_map(Value::Float),
        Just(Value::str("MainSt")),
        Just(Value::str("x")),
        Just(Value::str("")),
    ]
}

fn ops() -> impl proptest::strategy::Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Random scope tables × random ragged batches: the kernel's selection
    /// equals the scalar oracle's, row for row, over random sub-ranges.
    #[test]
    fn kernel_matches_scalar_oracle(
        routed in prop::collection::vec(proptest::strategy::any::<bool>(), 3..=3),
        group_raw in prop::collection::vec(prop::collection::vec(0usize..3, 0..=2), 0..=3),
        preds_raw in prop::collection::vec(
            prop::collection::vec((0usize..3, ops(), values()), 0..=3),
            3..=3,
        ),
        rows in prop::collection::vec(
            (0u32..4, prop::collection::vec(values(), 0..=3)),
            0..=200,
        ),
        cuts in prop::collection::vec(0usize..=200, 0..=4),
    ) {
        let group_attrs: Vec<Box<[AttrId]>> = group_raw
            .into_iter()
            .map(|g| g.into_iter().map(|a| AttrId(a as u16)).collect())
            .collect();
        let predicates: Vec<Vec<(AttrId, CmpOp, Value)>> = preds_raw
            .into_iter()
            .map(|ps| {
                ps.into_iter()
                    .map(|(a, op, lit)| (AttrId(a as u16), op, lit))
                    .collect()
            })
            .collect();
        let mut batch = EventBatch::new();
        for (i, (ty, attrs)) in rows.iter().enumerate() {
            // type 3 exists in the batch but never in the 3-entry tables:
            // the unrouted-type lane of every pass
            batch.push_from(EventTypeId(*ty), Timestamp(i as u64), attrs.iter().cloned());
        }

        let mut kernel = ScanKernel::new(routed.clone(), &group_attrs, &predicates);
        let n = batch.len();
        let mut ranges = vec![(0usize, n)];
        for c in cuts {
            let mid = c.min(n);
            ranges.push((mid, n));
            ranges.push((0, mid));
        }
        for (lo, hi) in ranges {
            let want = scalar_select(&routed, &group_attrs, &predicates, &batch, lo, hi);
            let mut got = Vec::new();
            kernel.select_into(&batch, lo, hi, &mut got);
            proptest::prop_assert_eq!(
                &got,
                &want,
                "kernel and interpreter disagree on rows {}..{} of {}",
                lo,
                hi,
                n
            );
        }
    }
}

/// Ragged `(lo, hi)` chunkings of an `n`-row batch: whole, empty, odd
/// primes (partial 64-row words), and a singleton tail.
fn ragged_ranges(n: usize) -> Vec<(usize, usize)> {
    let mut out = vec![(0, n), (0, 0)];
    let mut lo = 0;
    for step in [61usize, 64, 67, 1, 128, 3] {
        let hi = (lo + step).min(n);
        out.push((lo, hi));
        lo = hi;
    }
    out.push((n.saturating_sub(1), n));
    out
}

/// Kernel vs interpreter, row for row, on every compiled partition of a
/// real stream's workload.
fn assert_stream_kernel_parity(
    catalog: &Catalog,
    workload: &Workload,
    batch: &EventBatch,
    label: &str,
) {
    let parts = compile(catalog, workload, &SharingPlan::non_shared()).expect("workload compiles");
    let mut selected_any = false;
    for (pi, part) in parts.iter().enumerate() {
        let mut kernel = part.scan_kernel();
        for (lo, hi) in ragged_ranges(batch.len()) {
            let mut want = Vec::new();
            for row in lo..hi {
                let ty = batch.ty(row);
                let attrs = batch.attrs(row);
                if part.routed(ty) && part.predicates_pass(ty, attrs) && part.groupable(ty, attrs) {
                    want.push(row as u32);
                }
            }
            let mut got = Vec::new();
            kernel.select_into(batch, lo, hi, &mut got);
            assert_eq!(
                got, want,
                "{label}: partition {pi} selection diverges on rows {lo}..{hi}"
            );
            selected_any |= !want.is_empty();
        }
    }
    assert!(
        selected_any,
        "{label}: the stream must exercise the kernels"
    );
}

#[test]
fn taxi_stream_kernel_row_parity() {
    let mut catalog = Catalog::new();
    let batch = EventBatch::from_events(&taxi::generate(
        &mut catalog,
        &TaxiConfig {
            n_events: 3000,
            n_streets: 5,
            n_vehicles: 40,
            ..Default::default()
        },
    ));
    // numeric predicates plus a string literal against the Float speed
    // column: present-but-incomparable rows satisfy only `!=`
    let workload = parse_workload(
        &mut catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt) WHERE OakSt.speed > 40.0 AND [vehicle] \
             WITHIN 10 min SLIDE 1 min",
            "RETURN SUM(MainSt.speed) PATTERN SEQ(MainSt, StateSt) WHERE MainSt.speed >= 20.0 \
             AND StateSt.speed < 65.0 AND [vehicle] WITHIN 10 min SLIDE 1 min",
            "RETURN COUNT(*) PATTERN SEQ(ParkAve, WestSt) WHERE ParkAve.speed != 'fast' AND \
             [vehicle] WITHIN 10 min SLIDE 1 min",
        ],
    )
    .expect("taxi predicate workload parses");
    assert_stream_kernel_parity(&catalog, &workload, &batch, "taxi");
}

#[test]
fn linear_road_stream_kernel_row_parity() {
    let mut catalog = Catalog::new();
    let batch = EventBatch::from_events(&linear_road::generate(
        &mut catalog,
        &LinearRoadConfig {
            duration_secs: 30,
            cars_per_sec: 3.0,
            n_segments: 6,
            trip_segments: 40,
            ..Default::default()
        },
    ));
    let workload = parse_workload(
        &mut catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(Seg0, Seg1, Seg2) WHERE Seg0.speed >= 60.0 AND \
             Seg1.speed >= 60.0 AND [car] WITHIN 10 s SLIDE 2 s",
            "RETURN COUNT(*) PATTERN SEQ(Seg3, Seg4) WHERE Seg3.pos > 1000.0 AND [car] \
             WITHIN 10 s SLIDE 2 s",
        ],
    )
    .expect("linear-road predicate workload parses");
    assert_stream_kernel_parity(&catalog, &workload, &batch, "linear-road");
}

#[test]
fn ecommerce_stream_kernel_row_parity() {
    let mut catalog = Catalog::new();
    let batch = EventBatch::from_events(&ecommerce::generate(
        &mut catalog,
        &EcommerceConfig {
            n_items: 6,
            n_customers: 8,
            events_per_sec: 300,
            n_events: 2500,
            ..Default::default()
        },
    ));
    let workload = parse_workload(
        &mut catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(Laptop, Case, Adapter) WHERE Laptop.price > 250.0 AND \
             [customer] WITHIN 20 min SLIDE 1 min",
            "RETURN SUM(Case.price) PATTERN SEQ(Case, iPhone) WHERE Case.price <= 400.0 AND \
             iPhone.price >= 2.0 AND [customer] WITHIN 20 min SLIDE 1 min",
        ],
    )
    .expect("ecommerce predicate workload parses");
    assert_stream_kernel_parity(&catalog, &workload, &batch, "ecommerce");
}

/// A strategy label, its results, and its per-scope (scanned, selected)
/// tallies, as produced by one executor under one scan mode.
type ModeRun = (&'static str, ExecutorResults, Vec<(u64, u64)>);

/// One mode's full run: sequential, sharded (route-once columnar), and
/// both two-step baselines over `batches`, returning each executor's
/// results and scan tallies.
fn run_mode(
    catalog: &Catalog,
    workload: &Workload,
    plan: &SharingPlan,
    batches: &[EventBatch],
    mode: ScanMode,
) -> Vec<ModeRun> {
    set_scan_mode(Some(mode));
    let mut out = Vec::new();

    let mut sequential = Executor::new(catalog, workload, plan).expect("sequential compiles");
    for b in batches {
        sequential.process_columnar(b);
    }
    let stats = sequential.scan_stats();
    out.push(("sequential", sequential.finish(), stats));

    // a small flush threshold forces mid-stream route-once fan-outs; the
    // in-band split probe flushes and waits for every router, so the
    // tallies cover every ingested row when read
    let mut sharded = ShardedExecutor::with_options(
        catalog,
        workload,
        plan,
        3,
        sharon_executor::ShardedOptions {
            batch_size: 512,
            ..Default::default()
        },
    )
    .expect("sharded compiles");
    for b in batches {
        sharded.process_columnar(b);
    }
    let _ = sharded.split_snapshot();
    let stats = sharded.scan_stats();
    out.push(("sharded", sharded.finish(), stats));

    let mut flink = FlinkLike::new(catalog, workload).expect("flink-like compiles");
    for b in batches {
        flink.process_columnar(b);
    }
    let stats = flink.scan_stats();
    out.push(("flink-like", flink.finish(), stats));

    let mut spass =
        SpassLike::new(catalog, workload, &SharingPlan::non_shared()).expect("spass-like compiles");
    for b in batches {
        spass.process_columnar(b);
    }
    let stats = spass.scan_stats();
    out.push(("spass-like", spass.finish(), stats));

    out
}

/// Build every executor under forced scalar and forced vector modes and
/// assert both agree: `semantically_eq` results, identical tallies.
fn assert_scan_modes_agree(
    catalog: &Catalog,
    workload: &Workload,
    plan: &SharingPlan,
    events: &[Event],
    label: &str,
) {
    let _guard = ModeGuard::hold();
    // ragged chunking, empty chunk included: partial trailing bitmap words
    let mut batches = Vec::new();
    let mut rest = events;
    for len in [497usize, 0, 64, 1023, 131, 1] {
        let take = len.min(rest.len());
        let (head, tail) = rest.split_at(take);
        batches.push(EventBatch::from_events(head));
        rest = tail;
    }
    batches.push(EventBatch::from_events(rest));

    let scalar = run_mode(catalog, workload, plan, &batches, ScanMode::Scalar);
    let vector = run_mode(catalog, workload, plan, &batches, ScanMode::Vector);

    for ((name, s_results, s_stats), (_, v_results, v_stats)) in scalar.iter().zip(vector.iter()) {
        assert!(
            v_results.semantically_eq(s_results, 1e-9),
            "{label}/{name}: vector results diverge from scalar ({} vs {})",
            v_results.len(),
            s_results.len(),
        );
        assert_eq!(
            s_stats, v_stats,
            "{label}/{name}: scan tallies diverge between modes"
        );
        let selected: u64 = s_stats.iter().map(|&(_, sel)| sel).sum();
        assert!(selected > 0, "{label}/{name}: the scan must select rows");
    }
}

#[test]
fn taxi_scan_modes_equivalent_end_to_end() {
    let mut catalog = Catalog::new();
    let events = taxi::generate(
        &mut catalog,
        &TaxiConfig {
            n_events: 4000,
            n_streets: 5,
            n_vehicles: 30,
            ..Default::default()
        },
    );
    let workload = parse_workload(
        &mut catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt, StateSt) WHERE OakSt.speed > 30.0 AND \
             [vehicle] WITHIN 10 min SLIDE 1 min",
            "RETURN COUNT(*) PATTERN SEQ(MainSt, StateSt) WHERE MainSt.speed >= 10.0 AND \
             [vehicle] WITHIN 10 min SLIDE 1 min",
            "RETURN SUM(ParkAve.speed) PATTERN SEQ(ParkAve, OakSt) WHERE ParkAve.speed < 66.0 \
             AND [vehicle] WITHIN 10 min SLIDE 1 min",
        ],
    )
    .expect("taxi workload parses");
    assert_scan_modes_agree(
        &catalog,
        &workload,
        &SharingPlan::non_shared(),
        &events,
        "taxi",
    );
}

#[test]
fn linear_road_scan_modes_equivalent_end_to_end() {
    let mut catalog = Catalog::new();
    let events = linear_road::generate(
        &mut catalog,
        &LinearRoadConfig {
            duration_secs: 40,
            cars_per_sec: 3.0,
            n_segments: 8,
            trip_segments: 50,
            ..Default::default()
        },
    );
    let workload = parse_workload(
        &mut catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(Seg0, Seg1) WHERE Seg0.speed >= 40.0 AND [car] \
             WITHIN 10 s SLIDE 2 s",
            "RETURN COUNT(*) PATTERN SEQ(Seg1, Seg2, Seg3) WHERE Seg1.speed >= 40.0 AND \
             Seg2.speed >= 40.0 AND [car] WITHIN 10 s SLIDE 2 s",
        ],
    )
    .expect("linear-road workload parses");
    assert_scan_modes_agree(
        &catalog,
        &workload,
        &SharingPlan::non_shared(),
        &events,
        "linear-road",
    );
}

#[test]
fn ecommerce_scan_modes_equivalent_end_to_end() {
    let mut catalog = Catalog::new();
    let events = ecommerce::generate(
        &mut catalog,
        &EcommerceConfig {
            n_items: 6,
            n_customers: 8,
            events_per_sec: 300,
            n_events: 3000,
            ..Default::default()
        },
    );
    let workload = parse_workload(
        &mut catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(Laptop, Case, Adapter) WHERE Laptop.price > 100.0 AND \
             [customer] WITHIN 20 min SLIDE 1 min",
            "RETURN COUNT(*) PATTERN SEQ(Laptop, Case, iPhone) WHERE Case.price <= 450.0 AND \
             [customer] WITHIN 20 min SLIDE 1 min",
        ],
    )
    .expect("ecommerce workload parses");
    assert_scan_modes_agree(
        &catalog,
        &workload,
        &SharingPlan::non_shared(),
        &events,
        "ecommerce",
    );
}

/// Manual timing harness for the executor-level scan paths — not an
/// assertion. Run explicitly when tuning the kernel:
/// `cargo test --release -p sharon --test scan_parity -- --ignored --nocapture`
#[test]
#[ignore = "manual perf harness, prints timings"]
fn timing_scan_modes_on_executor() {
    let _guard = ModeGuard::hold();
    let mut catalog = Catalog::new();
    // 3 streets: the 3-type query routes EVERY row, so the scan cost is
    // all predicate work (the scalar path gets no cheap unrouted skip)
    let batch = taxi::generate_batch(
        &mut catalog,
        &TaxiConfig {
            n_events: 200_000,
            n_streets: 3,
            n_vehicles: 512,
            ..Default::default()
        },
    );
    let n = batch.len();
    // per-type clause templates ({T} = the pattern type); conjunctions
    // are range-empty (0 matches) so the scan dominates end to end, and
    // each clause passes 23-77% of rows so the scalar interpreter's
    // short-circuit branches stay unpredictable
    let scenarios: [(&str, &[&str]); 3] = [
        ("dense-range-2c", &["{T}.speed >= 37.5", "{T}.speed < 37.5"]),
        (
            "dense-range-4c",
            &[
                "{T}.speed >= 20.0",
                "{T}.speed < 50.0",
                "{T}.speed >= 35.0",
                "{T}.speed < 35.0",
            ],
        ),
        (
            "dense-range-6c",
            &[
                "{T}.speed >= 10.0",
                "{T}.speed < 60.0",
                "{T}.speed >= 25.0",
                "{T}.speed < 45.0",
                "{T}.speed >= 35.0",
                "{T}.speed < 35.0",
            ],
        ),
    ];
    for (label, templates) in scenarios {
        let mk = |tys: &[&str]| {
            tys.iter()
                .flat_map(|t| templates.iter().map(move |tpl| tpl.replace("{T}", t)))
                .collect::<Vec<_>>()
                .join(" AND ")
        };
        let w1 = format!(
            "RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt, StateSt) WHERE {} AND [vehicle] \
             WITHIN 10 s SLIDE 2 s",
            mk(&["OakSt", "MainSt", "StateSt"])
        );
        let workload = parse_workload(&mut catalog, [w1.as_str()]).expect("timing workload parses");
        let plan = SharingPlan::non_shared();
        let mut rates = Vec::new();
        for (mode_label, mode) in [("scalar", ScanMode::Scalar), ("vector", ScanMode::Vector)] {
            set_scan_mode(Some(mode));
            let mut ex = Executor::new(&catalog, &workload, &plan).unwrap();
            set_scan_mode(None);
            // best of ten: the host VM throttles unpredictably, so a
            // single pass (a few ms) is far too noisy to compare modes
            let mut best = f64::MIN;
            let mut n_results = 0;
            for _ in 0..10 {
                let t0 = std::time::Instant::now();
                ex.process_columnar(&batch);
                best = best.max(n as f64 / t0.elapsed().as_secs_f64() / 1e6);
                set_scan_mode(Some(mode));
                let fresh =
                    std::mem::replace(&mut ex, Executor::new(&catalog, &workload, &plan).unwrap());
                set_scan_mode(None);
                n_results = fresh.finish().len();
            }
            rates.push(best);
            println!("{label}/{mode_label}: {best:.1} Mev/s ({n_results} results)");
        }
        println!("{label}: vector/scalar = {:.2}x", rates[1] / rates[0]);
    }
}
