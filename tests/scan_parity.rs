//! Kernel-vs-oracle scan parity: the compiled [`ScanKernel`] bitmap path —
//! the only thing that selects the rows an executor folds — must select
//! exactly the rows the per-row clause semantics accept: not
//! "equivalent" rows, the *same* rows, row for row.
//!
//! Three layers of evidence (the baselines' and the router's scope kernels
//! have their own row-parity tests in `sharon-twostep`):
//!
//! 1. **Property test against a scalar oracle** — random ragged batches
//!    mixing NaN / ±inf / −0.0 / huge exact integers / strings / missing
//!    attributes, random predicate tables (all six operators × numeric and
//!    string literals), random `GROUP BY` widths, evaluated over random
//!    sub-ranges (partial trailing words included). The kernel's selection
//!    must equal the oracle's exactly.
//! 2. **Shared type pass** — 2–8 random scopes select from one
//!    [`TypePass`] per chunk: each scope's selection must equal the oracle
//!    and its own one-scope `select_into`, and a [`BatchRouter`] over the
//!    same scopes must route the same rows.
//! 3. **Row-for-row parity on the paper streams** — every compiled
//!    partition of predicate-bearing TX / LR / EC workloads (and the 24
//!    distinct-predicate EC partitions of the benchmark's filter
//!    workload), kernel vs `CompiledPartition::{routed, predicates_pass,
//!    groupable}`, over ragged chunkings of the generated stream.

use proptest::prelude::{prop, prop_oneof, proptest, Just, ProptestConfig};
use proptest::strategy::Strategy as _;
use sharon::prelude::*;
use sharon::streams::ecommerce::{self, EcommerceConfig};
use sharon::streams::linear_road::{self, LinearRoadConfig};
use sharon::streams::taxi::{self, TaxiConfig};
use sharon_executor::{
    compile, BatchRouter, CompiledPartition, RoutedRows, RowFilter, ScanKernel, TypePass,
};
use sharon_query::{clause_passes, CmpOp};
use sharon_types::{AttrId, GroupKey};

/// The per-row oracle, spelled out: routing, then every clause through
/// [`clause_passes`], then groupability.
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
    /// equals the row oracle's, row for row, over random sub-ranges.
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
                "kernel and oracle disagree on rows {}..{} of {}",
                lo,
                hi,
                n
            );
        }
    }
}

/// One random routing scope's tables, as the router sees them.
#[derive(Debug, Clone)]
struct Scope {
    routed: Vec<bool>,
    group_attrs: Vec<Box<[AttrId]>>,
    predicates: Vec<Vec<(AttrId, CmpOp, Value)>>,
}

impl RowFilter for Scope {
    fn read_group_key(
        &self,
        _ty: EventTypeId,
        _attrs: &[Value],
        _vals: &mut Vec<Value>,
        key: &mut GroupKey,
    ) -> bool {
        // single-shard routing never asks for a key
        *key = GroupKey::Global;
        true
    }

    fn scan_kernel(&self) -> ScanKernel {
        ScanKernel::new(self.routed.clone(), &self.group_attrs, &self.predicates)
    }
}

/// Route rows `lo..hi` through a single-shard [`BatchRouter`] and return
/// every scope's selection (shard 0's per-scope lists).
fn router_select<F: RowFilter + Clone>(
    scopes: &[F],
    batch: &EventBatch,
    lo: usize,
    hi: usize,
) -> Vec<Vec<u32>> {
    let mut router = BatchRouter::new(scopes.to_vec(), 1);
    let mut out: Vec<RoutedRows> = Vec::new();
    router.route_range_into(batch, lo, hi, &mut out);
    std::mem::take(&mut out[0].per_part)
}

/// A random scope over a 3- or 4-type table: routed types, per-type
/// `GROUP BY` attributes and clauses, plus an optional clause repeated on
/// every type (identical clauses merge across types at compile time).
fn scope() -> impl proptest::strategy::Strategy<Value = Scope> {
    (
        prop::collection::vec(proptest::strategy::any::<bool>(), 3..=4),
        prop::collection::vec(prop::collection::vec(0usize..3, 0..=2), 0..=4),
        prop::collection::vec(
            prop::collection::vec((0usize..3, ops(), values()), 0..=2),
            0..=4,
        ),
        (
            proptest::strategy::any::<bool>(),
            0usize..3,
            ops(),
            values(),
        ),
    )
        .prop_map(
            |(routed, group_raw, preds_raw, (with_common, a, op, lit))| {
                let n_types = routed.len();
                let group_attrs = group_raw
                    .into_iter()
                    .map(|g| g.into_iter().map(|a| AttrId(a as u16)).collect())
                    .collect();
                let mut predicates: Vec<Vec<(AttrId, CmpOp, Value)>> = preds_raw
                    .into_iter()
                    .map(|ps| {
                        ps.into_iter()
                            .map(|(a, op, lit)| (AttrId(a as u16), op, lit))
                            .collect()
                    })
                    .collect();
                if with_common {
                    predicates.resize(n_types, Vec::new());
                    for ps in &mut predicates {
                        ps.push((AttrId(a as u16), op, lit.clone()));
                    }
                }
                Scope {
                    routed,
                    group_attrs,
                    predicates,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// 2–8 random scopes × random ragged batches: every scope's selection
    /// from one shared type pass per chunk equals the row oracle and the
    /// scope's own `select_into`, and the batch router routes the same
    /// rows.
    #[test]
    fn shared_type_pass_matches_oracle_and_solo_kernels(
        scopes in prop::collection::vec(scope(), 2..=8),
        rows in prop::collection::vec(
            // types 4 and 5 exist in the batch but in no scope's table
            (0u32..6, prop::collection::vec(values(), 0..=3)),
            0..=200,
        ),
        cuts in prop::collection::vec(0usize..=200, 0..=4),
    ) {
        let mut batch = EventBatch::new();
        for (i, (ty, attrs)) in rows.iter().enumerate() {
            batch.push_from(EventTypeId(*ty), Timestamp(i as u64), attrs.iter().cloned());
        }
        let mut kernels: Vec<ScanKernel> = scopes.iter().map(RowFilter::scan_kernel).collect();
        let mut pass = TypePass::new(&kernels);
        let n = batch.len();
        let mut ranges = vec![(0usize, n)];
        for c in cuts {
            let mid = c.min(n);
            ranges.push((mid, n));
            ranges.push((0, mid));
        }
        for (lo, hi) in ranges {
            pass.build(&batch, lo, hi);
            let mut want_all = Vec::new();
            for (si, (scope, kernel)) in scopes.iter().zip(&mut kernels).enumerate() {
                let want = scalar_select(
                    &scope.routed, &scope.group_attrs, &scope.predicates, &batch, lo, hi,
                );
                let mut shared = Vec::new();
                kernel.select_from(&pass, &batch, &mut shared);
                proptest::prop_assert_eq!(
                    &shared, &want,
                    "scope {} from the shared pass, rows {}..{} of {}", si, lo, hi, n
                );
                let mut solo = Vec::new();
                kernel.select_into(&batch, lo, hi, &mut solo);
                proptest::prop_assert_eq!(
                    &solo, &want,
                    "scope {} alone, rows {}..{} of {}", si, lo, hi, n
                );
                want_all.push(want);
            }
            let got = router_select(&scopes, &batch, lo, hi);
            proptest::prop_assert_eq!(
                &got, &want_all,
                "batch router, rows {}..{} of {}", lo, hi, n
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

/// The partition's per-row checks over rows `lo..hi`.
fn partition_oracle(
    part: &CompiledPartition,
    batch: &EventBatch,
    lo: usize,
    hi: usize,
) -> Vec<u32> {
    (lo..hi)
        .filter(|&row| {
            let ty = batch.ty(row);
            let attrs = batch.attrs(row);
            part.routed(ty) && part.predicates_pass(ty, attrs) && part.groupable(ty, attrs)
        })
        .map(|row| row as u32)
        .collect()
}

/// Kernel vs the partition's per-row checks, row for row, on every
/// compiled partition of a real stream's workload: each kernel alone, all
/// kernels from one shared type pass, and the batch router.
fn assert_stream_kernel_parity(
    catalog: &Catalog,
    workload: &Workload,
    batch: &EventBatch,
    label: &str,
) {
    let parts = compile(catalog, workload, &SharingPlan::non_shared()).expect("workload compiles");
    let mut kernels: Vec<ScanKernel> = parts.iter().map(CompiledPartition::scan_kernel).collect();
    let mut pass = TypePass::new(&kernels);
    let mut selected_any = false;
    for (lo, hi) in ragged_ranges(batch.len()) {
        pass.build(batch, lo, hi);
        let mut want_all = Vec::new();
        for (pi, (part, kernel)) in parts.iter().zip(&mut kernels).enumerate() {
            let want = partition_oracle(part, batch, lo, hi);
            let mut got = Vec::new();
            kernel.select_into(batch, lo, hi, &mut got);
            assert_eq!(
                got, want,
                "{label}: partition {pi} selection diverges on rows {lo}..{hi}"
            );
            got.clear();
            kernel.select_from(&pass, batch, &mut got);
            assert_eq!(
                got, want,
                "{label}: partition {pi} shared-pass selection diverges on rows {lo}..{hi}"
            );
            selected_any |= !want.is_empty();
            want_all.push(want);
        }
        assert_eq!(
            router_select(&parts, batch, lo, hi),
            want_all,
            "{label}: the batch router diverges on rows {lo}..{hi}"
        );
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

#[test]
fn ecommerce_filter_workload_partitions_row_parity() {
    // the benchmark's filter shape: 24 queries over three consecutive of
    // 12 items, one price clause per item, literals distinct per query —
    // 24 partitions whose scans share one type pass
    let mut catalog = Catalog::new();
    let batch = ecommerce::generate_batch(
        &mut catalog,
        &EcommerceConfig {
            n_items: 12,
            n_customers: 8,
            events_per_sec: 3000,
            n_events: 4000,
            ..Default::default()
        },
    );
    let items: Vec<String> = catalog.iter().map(|(_, n)| n.to_string()).collect();
    let queries: Vec<String> = (0..24)
        .map(|q| {
            let [a, b, c] = [0, 1, 2].map(|i| &items[(q + i) % items.len()]);
            format!(
                "RETURN COUNT(*) PATTERN SEQ({a}, {b}, {c}) WHERE {a}.price > {} AND \
                 {b}.price < {} AND {c}.price > {} GROUP BY customer WITHIN 5 s SLIDE 1 s",
                330 + 2 * q,
                170 - 2 * q,
                335 + q
            )
        })
        .collect();
    let workload = parse_workload(&mut catalog, queries.iter().map(String::as_str))
        .expect("filter workload parses");
    let parts = compile(&catalog, &workload, &SharingPlan::non_shared()).expect("compiles");
    assert_eq!(
        parts.len(),
        24,
        "pairwise-distinct predicates: one scope per query"
    );
    assert_stream_kernel_parity(&catalog, &workload, &batch, "ecommerce-filter");
}
