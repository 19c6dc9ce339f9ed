//! End-to-end runs of the full framework over all three paper data-set
//! generators (TX, LR, EC), checking cross-strategy agreement and basic
//! sanity properties of the results.

use sharon::prelude::*;
use sharon::streams::ecommerce::{self, EcommerceConfig};
use sharon::streams::linear_road::{self, LinearRoadConfig};
use sharon::streams::taxi::{self, TaxiConfig};
use sharon::streams::workload::{
    figure_1_workload, figure_2_workload, measured_rates, overlapping_workload, WorkloadConfig,
};
use sharon::Strategy;

fn rates_of(events: &[Event]) -> RateMap {
    let (counts, span) = measured_rates(events);
    RateMap::from_counts(&counts, span)
}

/// Run the time-ordered `events` sequentially under `strategy` (as one
/// columnar batch) and return the results.
fn run(
    catalog: &Catalog,
    workload: &Workload,
    rates: &RateMap,
    strategy: Strategy,
    events: &[Event],
) -> ExecutorResults {
    let (mut ex, _) = SharonBuilder::new(catalog, workload, rates)
        .strategy(strategy)
        .build_executor()
        .unwrap();
    ex.process_columnar(&EventBatch::from_events(events));
    ex.finish()
}

fn agree(catalog: &Catalog, workload: &Workload, events: &[Event], strategies: &[Strategy]) {
    let rates = rates_of(events);
    let reference = run(catalog, workload, &rates, Strategy::ASeq, events);
    for &s in strategies {
        let got = run(catalog, workload, &rates, s, events);
        assert!(
            got.semantically_eq(&reference, 1e-9),
            "{} diverges from A-Seq",
            s.name()
        );
    }
}

#[test]
fn taxi_traffic_use_case() {
    let mut catalog = Catalog::new();
    let events = taxi::generate(
        &mut catalog,
        &TaxiConfig {
            n_events: 8000,
            n_streets: 7,
            n_vehicles: 20,
            ..Default::default()
        },
    );
    let workload = figure_1_workload(&mut catalog);
    agree(
        &catalog,
        &workload,
        &events,
        &[Strategy::Sharon, Strategy::Greedy],
    );

    // route counts are per vehicle: no group key may be missing
    let rates = rates_of(&events);
    let results = run(&catalog, &workload, &rates, Strategy::Sharon, &events);
    assert!(!results.is_empty());
    for (g, _, _) in results.of_query(QueryId(6)) {
        assert!(matches!(g, GroupKey::One(Value::Int(_))));
    }
}

#[test]
fn linear_road_use_case() {
    let mut catalog = Catalog::new();
    let events = linear_road::generate(
        &mut catalog,
        &LinearRoadConfig {
            duration_secs: 40,
            cars_per_sec: 2.0,
            n_segments: 10,
            trip_segments: 80,
            ..Default::default()
        },
    );
    assert!(!events.is_empty());
    let alphabet: Vec<String> = (0..10).map(|i| format!("Seg{i}")).collect();
    let workload = overlapping_workload(
        &mut catalog,
        &WorkloadConfig {
            n_queries: 8,
            pattern_len: 4,
            alphabet,
            window: WindowSpec::new(TimeDelta::from_secs(10), TimeDelta::from_secs(2)),
            group_by: Some("car".into()),
            seed: 9,
        },
    );
    agree(
        &catalog,
        &workload,
        &events,
        &[Strategy::Sharon, Strategy::Greedy],
    );
    let rates = rates_of(&events);
    let results = run(&catalog, &workload, &rates, Strategy::Sharon, &events);
    // cars drive consecutive segments every 500 ms: sequences exist
    assert!(!results.is_empty(), "LR stream must produce matches");
}

#[test]
fn ecommerce_use_case_with_all_strategies() {
    let mut catalog = Catalog::new();
    let events = ecommerce::generate(
        &mut catalog,
        &EcommerceConfig {
            n_items: 10,
            n_customers: 5,
            events_per_sec: 200,
            n_events: 1200,
            ..Default::default()
        },
    );
    let workload = figure_2_workload(&mut catalog);
    agree(
        &catalog,
        &workload,
        &events,
        &[
            Strategy::Sharon,
            Strategy::Greedy,
            Strategy::FlinkLike,
            Strategy::SpassLike,
        ],
    );
}

#[test]
fn numeric_aggregates_end_to_end() {
    let mut catalog = Catalog::new();
    let events = ecommerce::generate(
        &mut catalog,
        &EcommerceConfig {
            n_items: 6,
            n_customers: 4,
            events_per_sec: 100,
            n_events: 600,
            ..Default::default()
        },
    );
    let workload = parse_workload(
        &mut catalog,
        [
            "RETURN SUM(Laptop.price) PATTERN SEQ(Laptop, Case) WHERE [customer] WITHIN 60 s SLIDE 10 s",
            "RETURN AVG(Laptop.price) PATTERN SEQ(Laptop, Case, Adapter) WHERE [customer] WITHIN 60 s SLIDE 10 s",
            "RETURN MIN(Laptop.price) PATTERN SEQ(Laptop, Case) WHERE [customer] WITHIN 60 s SLIDE 10 s",
            "RETURN MAX(Laptop.price) PATTERN SEQ(Laptop, Case) WHERE [customer] WITHIN 60 s SLIDE 10 s",
        ],
    )
    .unwrap();
    let rates = rates_of(&events);
    let shared = run(&catalog, &workload, &rates, Strategy::Sharon, &events);
    let aseq = run(&catalog, &workload, &rates, Strategy::ASeq, &events);
    assert!(shared.semantically_eq(&aseq, 1e-9));
    assert!(!shared.is_empty());

    // MIN <= AVG-ish <= MAX per (group, window) where both exist
    for (g, wstart, minv) in shared.of_query(QueryId(2)) {
        let maxv = shared.get(QueryId(3), g, wstart).unwrap();
        let (minf, maxf) = (minv.as_f64().unwrap(), maxv.as_f64().unwrap());
        assert!(minf <= maxf, "MIN {minf} > MAX {maxf}");
    }
}

#[test]
fn dynamic_plan_manager_end_to_end() {
    use sharon::optimizer::{DynamicPlanManager, PlanDecision};
    let mut catalog = Catalog::new();
    let events = taxi::generate(
        &mut catalog,
        &TaxiConfig {
            n_events: 20_000,
            n_streets: 7,
            ..Default::default()
        },
    );
    let workload = figure_1_workload(&mut catalog);
    let rates = rates_of(&events);
    let cfg = OptimizerConfig::default();
    let initial = optimize_sharon(&workload, &rates, &cfg);
    let mut mgr = DynamicPlanManager::new(TimeDelta::from_secs(5), 0.10, cfg, &initial);
    let mut decisions = 0u32;
    for e in &events {
        if let PlanDecision::Replace(outcome) = mgr.observe_counts(&workload, [(e.ty, 1)], e.time) {
            outcome.plan.validate(&workload).unwrap();
            decisions += 1;
        }
    }
    // uniform rates: the plan should be stable (no thrashing)
    assert!(decisions <= 2, "stable rates must not cause plan thrashing");
    mgr.active_plan().validate(&workload).unwrap();
}
