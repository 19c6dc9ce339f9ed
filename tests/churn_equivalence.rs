//! Live query churn is invisible in the results: a [`SharonSession`]
//! under runtime `attach` / `detach` / re-optimization produces, for
//! every window a handle *owns*, exactly what an uninterrupted static
//! run of the same workload produces.
//!
//! Ownership intervals (the session's contract):
//! - a handle attached when the frontier was `f` owns windows `w > f`
//!   (every window starting strictly after the attach point is complete
//!   on a time-ordered stream);
//! - a handle detached when the frontier was `d` owns windows whose full
//!   extent closed first: `w + WITHIN <= d`;
//! - the initial workload's handles own every window, across any number
//!   of plan hot-swaps.
//!
//! Checked on all three paper streams (TX, LR, EC), across shard counts
//! (`0` hosts the shared plan in-process), for: forced hot-swap
//! mid-stream, attach at an offset (fresh signature → sidecar, equal
//! signature → alias fast path), detach (sidecar state freed immediately,
//! shared queries keep their closed windows), a fully scripted churn
//! scenario with metric assertions, per-epoch `drain_results`
//! disjointness, and a per-slide drain of an in-process session.

use sharon::prelude::*;
use sharon::streams::ecommerce::{self, EcommerceConfig};
use sharon::streams::linear_road::{self, LinearRoadConfig};
use sharon::streams::taxi::{self, TaxiConfig};
use sharon::streams::workload::{measured_rates_batch, overlapping_workload, WorkloadConfig};

#[path = "support.rs"]
mod support;

/// One stream + workload fixture: columnar events, the base workload,
/// measured rates, and a spare query source whose signature is NOT in
/// the base workload (so attaching it needs a sidecar).
struct Setup {
    label: &'static str,
    catalog: Catalog,
    events: EventBatch,
    workload: Workload,
    rates: RateMap,
    fresh: &'static str,
}

fn tx_setup() -> Setup {
    let mut catalog = Catalog::new();
    let events = taxi::generate_batch(
        &mut catalog,
        &TaxiConfig {
            n_events: 6000,
            n_streets: 7,
            n_vehicles: 40,
            ..Default::default()
        },
    );
    // short windows so a ~18 s stream closes many of them — churn
    // offsets then land between window boundaries, not before the first
    let workload = parse_workload(
        &mut catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt, StateSt) WHERE [vehicle] WITHIN 5 s SLIDE 1 s",
            "RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt, WestSt) WHERE [vehicle] WITHIN 5 s SLIDE 1 s",
            "RETURN COUNT(*) PATTERN SEQ(MainSt, StateSt) WHERE [vehicle] WITHIN 5 s SLIDE 1 s",
            "RETURN COUNT(*) PATTERN SEQ(ElmSt, ParkAve) WHERE [vehicle] WITHIN 5 s SLIDE 1 s",
        ],
    )
    .expect("taxi workload parses");
    let (counts, span) = measured_rates_batch(&events);
    let rates = RateMap::from_counts(&counts, span);
    Setup {
        label: "taxi",
        catalog,
        events,
        workload,
        rates,
        fresh: "RETURN COUNT(*) PATTERN SEQ(StateSt, WestSt) WHERE [vehicle] WITHIN 5 s SLIDE 1 s",
    }
}

fn lr_setup() -> Setup {
    let mut catalog = Catalog::new();
    let events = linear_road::generate_batch(
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
    let (counts, span) = measured_rates_batch(&events);
    let rates = RateMap::from_counts(&counts, span);
    Setup {
        label: "linear-road",
        catalog,
        events,
        workload,
        rates,
        fresh: "RETURN COUNT(*) PATTERN SEQ(Seg0, Seg1) WHERE [car] WITHIN 10 s SLIDE 2 s",
    }
}

fn ec_setup() -> Setup {
    let mut catalog = Catalog::new();
    let events = ecommerce::generate_batch(
        &mut catalog,
        &EcommerceConfig {
            n_items: 10,
            n_customers: 6,
            events_per_sec: 300,
            n_events: 6000,
            ..Default::default()
        },
    );
    let workload = parse_workload(
        &mut catalog,
        [
            "RETURN COUNT(*) PATTERN SEQ(Laptop, Case, Adapter) WHERE [customer] WITHIN 5 s SLIDE 1 s",
            "RETURN COUNT(*) PATTERN SEQ(Laptop, Case, iPhone) WHERE [customer] WITHIN 5 s SLIDE 1 s",
            "RETURN COUNT(*) PATTERN SEQ(Laptop, Case) WHERE [customer] WITHIN 5 s SLIDE 1 s",
        ],
    )
    .expect("ecommerce workload parses");
    let (counts, span) = measured_rates_batch(&events);
    let rates = RateMap::from_counts(&counts, span);
    Setup {
        label: "ecommerce",
        catalog,
        events,
        workload,
        rates,
        fresh: "RETURN COUNT(*) PATTERN SEQ(Case, Adapter) WHERE [customer] WITHIN 5 s SLIDE 1 s",
    }
}

fn setups() -> Vec<Setup> {
    vec![tx_setup(), lr_setup(), ec_setup()]
}

/// The uninterrupted reference: optimize `workload` once, run the whole
/// stream through the sequential engine.
fn static_run(
    catalog: &Catalog,
    workload: &Workload,
    rates: &RateMap,
    events: &EventBatch,
) -> ExecutorResults {
    let (mut ex, _) = SharonBuilder::new(catalog, workload, rates)
        .build_executor()
        .expect("static reference compiles");
    ex.process_columnar(events);
    ex.finish()
}

/// Feed `events[from..to]` to the session in modest columnar chunks (so
/// plan swaps and re-optimization checks hit many batch boundaries).
fn feed(session: &mut SharonSession, events: &EventBatch, from: usize, to: usize) {
    let mut pos = from;
    while pos < to {
        let end = (pos + 512).min(to);
        let mut chunk = EventBatch::new();
        chunk.extend_from_range(events, pos, end);
        session.process_columnar(&chunk);
        pos = end;
    }
}

/// `q`'s results restricted to windows passing `keep`, re-keyed to a
/// fixed id so result sets of different queries/handles compare.
fn restrict(
    results: &ExecutorResults,
    q: QueryId,
    keep: &dyn Fn(Timestamp) -> bool,
) -> ExecutorResults {
    let mut out = ExecutorResults::new();
    for (qid, group, w, v) in results.iter() {
        if qid == q && keep(w) {
            out.emit(QueryId(0), group.clone(), w, *v);
        }
    }
    out
}

/// Assert the session's results for handle-key `h` equal the static
/// reference's results for `q`, over the windows passing `keep`.
fn assert_handle_matches(
    got: &ExecutorResults,
    h: QueryId,
    want: &ExecutorResults,
    q: QueryId,
    keep: &dyn Fn(Timestamp) -> bool,
    ctx: &str,
) {
    let g = restrict(got, h, keep);
    let w = restrict(want, q, keep);
    support::assert_equivalent(
        &g,
        &w,
        [QueryId(0)],
        format_args!("{ctx}: handle {h} vs static {q}"),
    );
}

/// Forcing a re-optimization + plan hot-swap mid-stream changes nothing:
/// the swap hands every in-flight window to exactly one incarnation.
#[test]
fn hot_swap_mid_stream_matches_uninterrupted() {
    for s in setups() {
        let want = static_run(&s.catalog, &s.workload, &s.rates, &s.events);
        assert!(!want.is_empty(), "{}: reference produces results", s.label);
        for &shards in &support::shard_counts(&[0, 1, 2]) {
            let ctx = format!("{}/shards{shards}", s.label);
            let mut session = SharonBuilder::new(&s.catalog, &s.workload, &s.rates)
                .shards(shards)
                .session(SessionConfig::default())
                .expect("session starts");
            let half = s.events.len() / 2;
            feed(&mut session, &s.events, 0, half);
            session.reoptimize_now();
            feed(&mut session, &s.events, half, s.events.len());
            assert!(session.reoptimizations() >= 1, "{ctx}: re-optimized");
            assert!(session.plan_swaps() >= 1, "{ctx}: plan hot-swapped");
            let got = session.finish();
            support::assert_equivalent(
                &got,
                &want,
                s.workload.ids(),
                format_args!("{ctx}: swapped run vs uninterrupted"),
            );
        }
    }
}

/// Hot-swap equivalence holds for every online strategy a session can
/// host (the re-planner follows the strategy, not just Sharon's MWIS).
#[test]
fn hot_swap_holds_for_greedy_and_non_shared() {
    let s = tx_setup();
    for strategy in [Strategy::Greedy, Strategy::ASeq] {
        let (mut reference, _) = SharonBuilder::new(&s.catalog, &s.workload, &s.rates)
            .strategy(strategy)
            .build_executor()
            .expect("reference compiles");
        reference.process_columnar(&s.events);
        let want = reference.finish();

        let mut session = SharonBuilder::new(&s.catalog, &s.workload, &s.rates)
            .strategy(strategy)
            .shards(2)
            .session(SessionConfig::default())
            .expect("session starts");
        let third = s.events.len() / 3;
        feed(&mut session, &s.events, 0, third);
        session.reoptimize_now();
        feed(&mut session, &s.events, third, 2 * third);
        session.reoptimize_now();
        feed(&mut session, &s.events, 2 * third, s.events.len());
        assert!(session.plan_swaps() >= 2);
        let got = session.finish();
        support::assert_equivalent(
            &got,
            &want,
            s.workload.ids(),
            format_args!("{}: double-swapped run under {}", s.label, strategy.name()),
        );
    }
}

/// Attaching a fresh-signature query at offset `k` matches the static
/// run of `base + query` for every window starting after the attach
/// point; the base handles stay exact everywhere.
#[test]
fn attach_at_offset_matches_static_for_complete_windows() {
    for s in setups() {
        let mut catalog = s.catalog.clone();
        let fresh = parse_query(&mut catalog, s.fresh).expect("fresh query parses");
        let mut full = s.workload.clone();
        full.push(fresh.clone());
        let n = s.workload.len() as u32;
        let want = static_run(&catalog, &full, &s.rates, &s.events);

        for &shards in &support::shard_counts(&[0, 1, 2]) {
            let ctx = format!("{}/shards{shards}", s.label);
            let mut session = SharonBuilder::new(&catalog, &s.workload, &s.rates)
                .shards(shards)
                .session(SessionConfig::default())
                .expect("session starts");
            let k = s.events.len() / 3;
            feed(&mut session, &s.events, 0, k);
            let h = session.attach(fresh.clone()).expect("attach compiles");
            assert_eq!(h.query_id(), QueryId(n), "{ctx}: next handle index");
            assert_eq!(
                session.sidecar_count(),
                1,
                "{ctx}: fresh signature needs a sidecar"
            );
            let f = session.frontier().expect("frontier after feeding");
            feed(&mut session, &s.events, k, s.events.len());
            let got = session.finish();

            for q in s.workload.ids() {
                assert_handle_matches(&got, q, &want, q, &|_| true, &ctx);
            }
            assert_handle_matches(&got, QueryId(n), &want, QueryId(n), &|w| w > f, &ctx);
            assert!(
                !restrict(&want, QueryId(n), &|w| w > f).is_empty(),
                "{ctx}: attach point must leave complete windows to check"
            );
        }
    }
}

/// Attaching a query whose signature equals a hosted one takes the fast
/// path (no sidecar, no recompilation) and mirrors the original's
/// results over the windows it owns.
#[test]
fn alias_attach_takes_fast_path_and_mirrors_source() {
    let s = tx_setup();
    let alias = s.workload.get(QueryId(0)).clone();
    let n = s.workload.len() as u32;
    let want = static_run(&s.catalog, &s.workload, &s.rates, &s.events);

    let mut session = SharonBuilder::new(&s.catalog, &s.workload, &s.rates)
        .shards(2)
        .session(SessionConfig::default())
        .expect("session starts");
    let k = s.events.len() / 3;
    feed(&mut session, &s.events, 0, k);
    let swaps_before = session.plan_swaps();
    let h = session.attach(alias).expect("alias attaches");
    assert_eq!(
        session.sidecar_count(),
        0,
        "equal signature must not build a sidecar"
    );
    assert_eq!(
        session.plan_swaps(),
        swaps_before,
        "fast path must not recompile"
    );
    assert!(session.is_attached(h));
    let f = session.frontier().unwrap();
    feed(&mut session, &s.events, k, s.events.len());
    let got = session.finish();

    // the alias handle reports the shared query's results for windows
    // after its attach point; the original handle keeps every window
    assert_handle_matches(
        &got,
        QueryId(n),
        &want,
        QueryId(0),
        &|w| w > f,
        "taxi/alias",
    );
    assert_handle_matches(
        &got,
        QueryId(0),
        &want,
        QueryId(0),
        &|_| true,
        "taxi/alias-src",
    );
}

/// Detaching a sidecar-hosted query frees its state immediately; the
/// handle keeps only the windows that fully closed before the detach.
#[test]
fn detach_frees_sidecar_state() {
    let s = tx_setup();
    let mut catalog = s.catalog.clone();
    let fresh = parse_query(&mut catalog, s.fresh).expect("fresh query parses");
    let within = fresh.window.within.millis();
    let mut full = s.workload.clone();
    full.push(fresh.clone());
    let n = s.workload.len() as u32;
    let want = static_run(&catalog, &full, &s.rates, &s.events);

    let mut session = SharonBuilder::new(&catalog, &s.workload, &s.rates)
        .shards(2)
        .session(SessionConfig::default())
        .expect("session starts");
    // attach and detach more than a window apart, so the sidecar closes
    // windows it saw whole before it is detached
    let (k1, k2) = (s.events.len() / 8, 3 * s.events.len() / 4);
    feed(&mut session, &s.events, 0, k1);
    let h = session.attach(fresh).expect("attach compiles");
    let f = session.frontier().unwrap();
    feed(&mut session, &s.events, k1, k2);
    assert!(session.state_size() > 0, "sidecar accumulates window state");
    let d = session.frontier().unwrap();
    session.detach(h);
    assert_eq!(
        session.state_size(),
        0,
        "detach must free the sidecar's state"
    );
    assert!(!session.is_attached(h));
    assert_eq!(session.attached_count(), s.workload.len());
    feed(&mut session, &s.events, k2, s.events.len());
    let got = session.finish();

    let owned = |w: Timestamp| w > f && w.millis() + within <= d.millis();
    assert_handle_matches(&got, QueryId(n), &want, QueryId(n), &owned, "taxi/detach");
    for q in s.workload.ids() {
        assert_handle_matches(&got, q, &want, q, &|_| true, "taxi/detach-base");
    }
}

/// Detaching a query hosted in the shared plan keeps its already-closed
/// windows and drops everything still open at the detach point.
#[test]
fn detach_shared_query_keeps_closed_windows() {
    let s = tx_setup();
    let want = static_run(&s.catalog, &s.workload, &s.rates, &s.events);
    let victim = QueryId(1);
    let within = s.workload.get(victim).window.within.millis();

    let mut session = SharonBuilder::new(&s.catalog, &s.workload, &s.rates)
        .shards(2)
        .session(SessionConfig::default())
        .expect("session starts");
    let k = s.events.len() / 2;
    feed(&mut session, &s.events, 0, k);
    let d = session.frontier().unwrap();
    session.detach(session.handle(victim.0).unwrap());
    // the shared plan still hosts the query until the next
    // re-optimization folds it out — force one to exercise that path
    session.reoptimize_now();
    feed(&mut session, &s.events, k, s.events.len());
    let got = session.finish();

    let owned = |w: Timestamp| w.millis() + within <= d.millis();
    assert_handle_matches(&got, victim, &want, victim, &owned, "taxi/shared-detach");
    assert!(
        !restrict(&want, victim, &owned).is_empty(),
        "detach point must leave closed windows to check"
    );
    for q in s.workload.ids().filter(|q| *q != victim) {
        assert_handle_matches(&got, q, &want, q, &|_| true, "taxi/shared-detach-rest");
    }
}

/// The acceptance scenario: a scripted attach/alias/detach/reopt run on
/// every stream at multiple shard counts equals the static reference on
/// each handle's owned windows, reports at least one re-optimization,
/// and loses zero window state.
#[test]
fn scripted_churn_matches_static_reference() {
    for s in setups() {
        let mut catalog = s.catalog.clone();
        let fresh = parse_query(&mut catalog, s.fresh).expect("fresh query parses");
        let mut full = s.workload.clone();
        full.push(fresh.clone());
        let n = s.workload.len() as u32;
        let victim = QueryId(0);
        let within = s.workload.get(victim).window.within.millis();
        let want = static_run(&catalog, &full, &s.rates, &s.events);

        for &shards in &support::shard_counts(&[0, 2, 4]) {
            let ctx = format!("{}/shards{shards}", s.label);
            let mut session = SharonBuilder::new(&catalog, &s.workload, &s.rates)
                .shards(shards)
                .session(SessionConfig::default())
                .expect("session starts");
            let len = s.events.len();

            feed(&mut session, &s.events, 0, len / 4);
            let alias = session
                .attach(s.workload.get(victim).clone())
                .expect("alias attaches");
            assert_eq!(alias.query_id(), QueryId(n), "{ctx}: alias handle index");
            let f_alias = session.frontier().unwrap();

            feed(&mut session, &s.events, len / 4, len / 2);
            session.attach(fresh.clone()).expect("fresh attaches");
            let f_fresh = session.frontier().unwrap();

            feed(&mut session, &s.events, len / 2, 5 * len / 8);
            let d = session.frontier().unwrap();
            session.detach(session.handle(victim.0).unwrap());

            feed(&mut session, &s.events, 5 * len / 8, 3 * len / 4);
            session.reoptimize_now();
            feed(&mut session, &s.events, 3 * len / 4, len);

            assert!(session.reoptimizations() >= 1, "{ctx}: re-optimized");
            assert!(session.plan_swaps() >= 1, "{ctx}: hot-swapped");
            assert_eq!(session.handle_count(), n + 2);
            let got = session.finish();

            // base handles (minus the detached one): exact everywhere
            for q in s.workload.ids().filter(|q| *q != victim) {
                assert_handle_matches(&got, q, &want, q, &|_| true, &ctx);
            }
            // the detached handle: windows closed before the detach
            let owned = |w: Timestamp| w.millis() + within <= d.millis();
            assert_handle_matches(&got, victim, &want, victim, &owned, &ctx);
            // the alias: the shared query's windows after its attach
            assert_handle_matches(&got, QueryId(n), &want, victim, &|w| w > f_alias, &ctx);
            // the fresh query: its windows after its attach
            assert_handle_matches(
                &got,
                QueryId(n + 1),
                &want,
                QueryId(n),
                &|w| w > f_fresh,
                &ctx,
            );
        }
    }
    // every session above was finished, never dropped live: the swap
    // protocol must not have discarded any in-flight window state
    assert_eq!(
        sharon::metrics::swap_windows_lost(),
        0,
        "hot-swaps must not lose window state"
    );
}

/// `drain_results` epochs are disjoint and their union (plus the final
/// `finish`) is exactly the one-shot result set.
#[test]
fn drain_epochs_are_disjoint_and_complete() {
    let s = tx_setup();
    let want = static_run(&s.catalog, &s.workload, &s.rates, &s.events);

    let mut session = SharonBuilder::new(&s.catalog, &s.workload, &s.rates)
        .shards(2)
        .session(SessionConfig::default())
        .expect("session starts");
    let len = s.events.len();
    let mut union = ExecutorResults::new();
    let mut emitted = 0;
    for epoch in 0..4 {
        feed(
            &mut session,
            &s.events,
            epoch * len / 4,
            (epoch + 1) * len / 4,
        );
        if epoch == 1 {
            session.reoptimize_now(); // drains must stay disjoint across a swap
        }
        let r = session.drain_results();
        emitted += r.len();
        union.merge(r);
    }
    let tail = session.finish();
    emitted += tail.len();
    union.merge(tail);

    assert_eq!(union.len(), emitted, "epoch drains must be disjoint");
    support::assert_equivalent(
        &union,
        &want,
        s.workload.ids(),
        "drained epochs plus finish vs the one-shot run",
    );
}

/// `.shards(0)` runs the session's shared plan in-process: its window
/// state shows in `state_size` with no sidecar, and draining after every
/// slide plus `finish` equals the static `shards(0)` run.
#[test]
fn an_in_process_session_drains_every_slide_like_the_static_run() {
    for s in setups() {
        let want = static_run(&s.catalog, &s.workload, &s.rates, &s.events);
        let mut session = SharonBuilder::new(&s.catalog, &s.workload, &s.rates)
            .shards(0)
            .session(SessionConfig::default())
            .expect("session starts");
        let slide = s.workload.get(QueryId(0)).window.slide.millis();
        let times = s.events.times();
        let (mut drained, mut epochs, mut from) = (ExecutorResults::new(), 0, 0);
        while from < times.len() {
            let slide_end = (times[from].millis() / slide + 1) * slide;
            let to = from + times[from..].partition_point(|t| t.millis() < slide_end);
            feed(&mut session, &s.events, from, to);
            let epoch = session.drain_results();
            epochs += usize::from(!epoch.is_empty());
            drained.merge(epoch);
            from = to;
        }
        assert_eq!(session.sidecar_count(), 0, "{}: no sidecar", s.label);
        assert!(
            session.state_size() > 0,
            "{}: the shared plan's open windows live in-process",
            s.label
        );
        assert!(epochs > 2, "{}: slides close windows ({epochs})", s.label);
        drained.merge(session.finish());
        support::assert_equivalent(
            &drained,
            &want,
            s.workload.ids(),
            format_args!("{}: per-slide drains plus finish", s.label),
        );
    }
}
