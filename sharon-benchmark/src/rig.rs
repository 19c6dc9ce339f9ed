//! The measuring loop: oracle, set-up samples, warm-up, timed passes.
//!
//! Load comes from this one thread. A pass builds a fresh system under
//! test outside the timed region, then times feed + `finish()`. Timings
//! are read from the fastest whole pass of a fixed number: on this host
//! class interference is one-sided (neighbours only ever slow a pass
//! down), so the minimum is the steadiest estimate of what the code costs,
//! and a pass that really ran is a time the system really achieved.
//!
//! The gated timings count process CPU time, not wall time. On a host where
//! a runnable thread always runs the two are the same for the sequential
//! engine; on this one the hypervisor takes the cores away for tens of
//! milliseconds at a time (CPU ÷ wall of identical passes: 0.5-0.95), and a
//! runtime whose threads wait for one another at every slide loses far more
//! wall time to that than the time taken. Wall time is recorded beside it.

use crate::host::{self, quantile};
use crate::trace::Tracer;
use crate::workloads::{ChurnOp, Inputs};
use sharon::executor::ExecutorResults;
use sharon::metrics as m;
use sharon::optimizer::OptimizeOutcome;
use sharon::prelude::*;
use sharon::query::aggregate::AggValue;
use sharon::{AnyExecutor, Strategy};
use std::time::Instant;

/// Relative tolerance of the oracle comparison.
pub const EPS: f64 = 1e-9;

/// A workload parsed once: what every pass builds its executor from.
pub struct Prepared {
    /// The stream's catalog after parsing every query text.
    pub catalog: Catalog,
    /// The queries the system under test starts with.
    pub workload: Workload,
    /// Measured per-type rates of the stream.
    pub rates: RateMap,
    /// Parsed text of each [`ChurnOp::Attach`], in script order.
    pub attach_queries: Vec<Query>,
}

/// Parse `inputs`' text over a copy of its catalog.
pub fn prepare(inputs: &Inputs) -> Prepared {
    let mut catalog = inputs.catalog.clone();
    let workload = parse_workload(&mut catalog, &inputs.queries).expect("workload text parses");
    let rates = RateMap::from_counts(&inputs.counts, inputs.span_secs);
    let attach_queries = inputs
        .churn
        .iter()
        .filter_map(|op| match op {
            ChurnOp::Attach { text, .. } => {
                Some(parse_query(&mut catalog, text).expect("scripted query parses"))
            }
            ChurnOp::Detach { .. } => None,
        })
        .collect();
    Prepared {
        catalog,
        workload,
        rates,
        attach_queries,
    }
}

/// The system under test of one pass.
pub enum Sut {
    /// A static executor (sequential or sharded).
    Exec(AnyExecutor),
    /// A live session.
    Session(Box<SharonSession>),
}

/// Plan identity of one build, asserted equal across passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanId {
    /// `OptimizeOutcome::score`, compared bit for bit.
    pub score: f64,
    /// Shared candidates in the plan.
    pub candidates: usize,
}

/// Build the system under test the way the workload prescribes: the
/// Sharon strategy through `SharonBuilder`, default routers and pipeline.
pub fn build_sut(inputs: &Inputs, p: &Prepared) -> (Sut, Option<OptimizeOutcome>) {
    let mut b = SharonBuilder::new(&p.catalog, &p.workload, &p.rates)
        .strategy(Strategy::Sharon)
        .shards(inputs.shards);
    if let Some(ms) = inputs.lateness {
        b = b.lateness(ms);
    }
    if inputs.churn.is_empty() {
        let (ex, outcome) = b.build_executor().expect("workload compiles");
        (Sut::Exec(ex), outcome)
    } else {
        let config = SessionConfig {
            drift_threshold: crate::workloads::EC_CHURN_DRIFT_THRESHOLD,
            ..SessionConfig::default()
        };
        let session = b.session(config).expect("session starts");
        (Sut::Session(Box::new(session)), None)
    }
}

/// Shut a system under test down without feeding it (set-up samples). A
/// session is finished, not dropped: dropping a live one counts its
/// windows as lost.
pub fn discard(sut: Sut) {
    match sut {
        Sut::Exec(ex) => drop(ex),
        Sut::Session(s) => drop(s.finish()),
    }
}

/// The oracle's queries parsed over a copy of the stream's catalog, with
/// the stream's measured rates.
pub fn oracle_workload(inputs: &Inputs) -> (Catalog, Workload, RateMap) {
    let mut catalog = inputs.catalog.clone();
    let workload =
        parse_workload(&mut catalog, &inputs.oracle_queries).expect("oracle text parses");
    let rates = RateMap::from_counts(&inputs.counts, inputs.span_secs);
    (catalog, workload, rates)
}

/// One `Strategy::ASeq`, `.shards(0)`, in-order pass: the reference every
/// pass of the system under test is compared with. Returns the results
/// keyed by oracle query index and the pass's wall time in seconds.
pub fn oracle(inputs: &Inputs) -> (ExecutorResults, f64) {
    let (catalog, workload, rates) = oracle_workload(inputs);
    let (mut ex, _) = SharonBuilder::new(&catalog, &workload, &rates)
        .strategy(Strategy::ASeq)
        .shards(0)
        .build_executor()
        .expect("oracle compiles");
    let t = Instant::now();
    for batch in inputs.oracle_feed() {
        ex.process_columnar(batch);
    }
    let results = ex.finish();
    (results, t.elapsed().as_secs_f64())
}

/// What the system under test must return, keyed the way it keys results:
/// the oracle's rows as they are for a static workload; for a session,
/// each handle's rows restricted to the windows the handle owns (window
/// starts after the attach frontier, windows closed by the detach
/// frontier) and re-keyed onto the handle.
pub fn expected(inputs: &Inputs, oracle: ExecutorResults) -> ExecutorResults {
    if inputs.churn.is_empty() {
        return oracle;
    }
    let (_, workload, _) = oracle_workload(inputs);
    // (oracle query, attached after, detached at) per handle, in handle order
    let mut handles: Vec<(usize, Option<Timestamp>, Option<Timestamp>)> =
        (0..inputs.queries.len()).map(|q| (q, None, None)).collect();
    let base = handles.len();
    for op in &inputs.churn {
        let frontier = inputs.frontier_before(inputs.slides[op.before_slide()].start);
        match op {
            ChurnOp::Attach { oracle_query, .. } => {
                handles.push((*oracle_query, frontier, None));
            }
            ChurnOp::Detach { attach, .. } => {
                handles[base + attach].2 = Some(frontier.unwrap_or(Timestamp::ZERO));
            }
        }
    }
    let mut out = ExecutorResults::new();
    for (h, &(q, after, until)) in handles.iter().enumerate() {
        let within = workload.queries()[q].window.within.millis();
        for (group, w, value) in oracle.of_query(QueryId(q as u32)) {
            let owned = after.is_none_or(|a| w > a)
                && until.is_none_or(|d| w.millis() + within <= d.millis());
            if owned {
                out.emit(QueryId(h as u32), group.clone(), w, *value);
            }
        }
    }
    out
}

fn values_equal(a: &AggValue, b: &AggValue) -> bool {
    match (a, b) {
        (AggValue::Count(x), AggValue::Count(y)) => x == y,
        (AggValue::Number(None), AggValue::Number(None)) => true,
        (AggValue::Number(Some(x)), AggValue::Number(Some(y))) => {
            (x - y).abs() <= EPS * x.abs().max(y.abs()).max(1.0)
        }
        _ => false,
    }
}

/// Compare a pass's results with the expected ones. Returns
/// `(rows compared, rows mismatched + missing + extra)`. The verdict is
/// `semantically_eq`'s; rows are walked only to count a failure.
pub fn compare(got: &ExecutorResults, want: &ExecutorResults) -> (u64, u64) {
    let attempted = want.len() as u64;
    if got.semantically_eq(want, EPS) {
        return (attempted, 0);
    }
    let mut failed = 0u64;
    for (q, group, w, v) in want.iter() {
        match got.get(q, group, w) {
            Some(g) if values_equal(g, v) => {}
            _ => failed += 1,
        }
    }
    let extra = got
        .iter()
        .filter(|(q, group, w, _)| want.get(*q, group, *w).is_none())
        .count() as u64;
    (attempted + extra, (failed + extra).max(1))
}

/// Everything one pass measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Feed + `finish()` wall time, seconds.
    pub wall_s: f64,
    /// Feed wall time (first batch in to last `process_columnar` out).
    pub feed_s: f64,
    /// `finish()` wall time.
    pub finish_s: f64,
    /// Per slide, the wall time the caller spent on it, milliseconds. The
    /// sample ends when the last `process_columnar` (for a session, the
    /// slide's `drain_results`) returns: behind `.shards(1)` without a
    /// drain that is the hand-off into the job ring, backpressure included,
    /// not the slide's processing.
    pub slide_ms: Vec<f64>,
    /// Per slide, the CPU time the process (caller, router and workers)
    /// used while the caller was on the slide, milliseconds.
    pub slide_cpu_ms: Vec<f64>,
    /// Peak heap growth over the pass, bytes.
    pub peak_bytes: usize,
    /// Result rows compared with the oracle.
    pub attempted: u64,
    /// Rows mismatched, missing or extra, plus late drops and lost windows.
    pub failed: u64,
    /// Process CPU time over feed + finish, ns.
    pub cpu_ns: u64,
    /// Plan identity (static executors under an optimizer).
    pub plan: Option<PlanId>,
    /// Result rows returned.
    pub results: u64,
    /// `events_matched` before `finish()`.
    pub events_matched: u64,
    /// `state_size` before `finish()`.
    pub state_size: u64,
    /// Rows scanned, summed over scopes.
    pub rows_scanned: u64,
    /// Rows selected, summed over scopes.
    pub rows_selected: u64,
    /// Allocation calls per 1000 events over the second half of the feed.
    pub allocs_per_kev: f64,
    /// Late rows dropped (must be 0).
    pub late_rows_dropped: u64,
    /// Router counters over the pass.
    pub scope_scans: u64,
    /// Batches the router thread routed.
    pub batches_routed: u64,
    /// Times the router blocked on a full worker ring.
    pub stall_waits: u64,
    /// Session: per-op wall times, microseconds.
    pub attach_us: Vec<f64>,
    /// Session: per-op wall times, microseconds.
    pub detach_us: Vec<f64>,
    /// Session: per-slide drain wall times, microseconds.
    pub drain_us: Vec<f64>,
    /// Session: re-optimizations over the pass.
    pub reoptimizations: u64,
    /// Session: plan hot-swaps over the pass.
    pub plan_swaps: u64,
    /// Session: most sidecars alive at a slide boundary.
    pub sidecars_max: u64,
    /// Share of run + wait the live tasks spent on the run queue (traced).
    pub runqueue_wait_share: f64,
}

impl Pass {
    /// Events per second of wall time of this pass.
    pub fn eps(&self, events: usize) -> f64 {
        events as f64 / self.wall_s
    }

    /// Events per second of process CPU time of this pass.
    pub fn cpu_eps(&self, events: usize) -> f64 {
        events as f64 * 1e9 / self.cpu_ns as f64
    }
}

/// What every pass of a run reads.
pub struct Fixture<'a> {
    /// The run's inputs.
    pub inputs: &'a Inputs,
    /// The parsed workload.
    pub prepared: &'a Prepared,
    /// What the system under test must return.
    pub want: &'a ExecutorResults,
}

/// Run one pass of the workload and check it against the expected rows.
pub fn run_pass(fx: &Fixture<'_>, tr: &mut Tracer) -> Pass {
    let Fixture {
        inputs,
        prepared: p,
        want,
    } = *fx;
    let mut pass = Pass {
        slide_ms: Vec::with_capacity(inputs.slides.len()),
        slide_cpu_ms: Vec::with_capacity(inputs.slides.len()),
        ..Pass::default()
    };
    let base_bytes = m::reset_peak();
    let late0 = m::late_rows_dropped();
    let lost0 = m::swap_windows_lost();
    let scans0 = m::router_scope_scans();
    let routed0 = m::router_batches_routed();
    let stalls0 = m::router_stall_waits();
    let scanned0 = m::rows_scanned();
    let selected0 = m::rows_selected();

    let (mut sut, outcome) = tr.span("core.build", |_| build_sut(inputs, p));
    if let Some(o) = &outcome {
        assert!(!o.stats.timed_out, "optimizer search timed out");
        pass.plan = Some(PlanId {
            score: o.score,
            candidates: o.plan.len(),
        });
    }
    let sched0 = tr.enabled().then(host::task_schedstats);

    let mut drained = ExecutorResults::new();
    let mut handles: Vec<QueryHandle> = Vec::new();
    let mut next_op = 0usize;
    let mut next_attach = 0usize;
    let half = inputs.slides.len() / 2;
    let mut allocs_half = 0usize;
    let mut events_half = 0usize;
    let mut events_fed = 0usize;

    let cpu0 = host::process_cpu_ns();
    let t0 = Instant::now();
    tr.span("pass.feed", |tr| {
        for (s, slide) in inputs.slides.iter().enumerate() {
            if let Sut::Session(session) = &mut sut {
                while next_op < inputs.churn.len() && inputs.churn[next_op].before_slide() <= s {
                    let t = Instant::now();
                    match &inputs.churn[next_op] {
                        ChurnOp::Attach { .. } => {
                            let q = p.attach_queries[next_attach].clone();
                            next_attach += 1;
                            let h = tr.span("core.session.attach", |_| {
                                session.attach(q).expect("scripted query compiles")
                            });
                            handles.push(h);
                            pass.attach_us.push(t.elapsed().as_secs_f64() * 1e6);
                        }
                        ChurnOp::Detach { attach, .. } => {
                            let h = handles[*attach];
                            tr.span("core.session.detach", |_| session.detach(h));
                            pass.detach_us.push(t.elapsed().as_secs_f64() * 1e6);
                        }
                    }
                    next_op += 1;
                }
            }
            if s == half {
                allocs_half = m::alloc_count();
                events_half = events_fed;
            }
            let tc = host::process_cpu_ns();
            let ts = Instant::now();
            for batch in &inputs.feed[slide.clone()] {
                events_fed += batch.len();
                tr.span("executor.process_columnar", |_| match &mut sut {
                    Sut::Exec(ex) => ex.process_columnar(batch),
                    Sut::Session(session) => session.process_columnar(batch),
                });
            }
            if let Sut::Session(session) = &mut sut {
                let t = Instant::now();
                let epoch = tr.span("core.session.drain", |_| session.drain_results());
                pass.drain_us.push(t.elapsed().as_secs_f64() * 1e6);
                drained.merge(epoch);
                pass.sidecars_max = pass.sidecars_max.max(session.sidecar_count() as u64);
            }
            pass.slide_ms.push(ts.elapsed().as_secs_f64() * 1e3);
            pass.slide_cpu_ms
                .push((host::process_cpu_ns() - tc) as f64 / 1e6);
        }
    });
    pass.feed_s = t0.elapsed().as_secs_f64();
    let allocs_end = m::alloc_count();

    let scan_stats = match &sut {
        Sut::Exec(ex) => {
            pass.events_matched = ex.events_matched();
            pass.state_size = ex.state_size() as u64;
            Some(ex.scan_stats())
        }
        Sut::Session(session) => {
            pass.state_size = session.state_size() as u64;
            pass.reoptimizations = session.reoptimizations();
            pass.plan_swaps = session.plan_swaps();
            None
        }
    };
    if let Some(before) = &sched0 {
        pass.runqueue_wait_share = host::runqueue_wait_share(before, &host::task_schedstats());
    }

    let t_finish = Instant::now();
    let results = tr.span("executor.finish", |_| match sut {
        Sut::Exec(ex) => ex.finish(),
        Sut::Session(session) => {
            drained.merge(session.finish());
            drained
        }
    });
    pass.finish_s = t_finish.elapsed().as_secs_f64();
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.cpu_ns = host::process_cpu_ns() - cpu0;
    pass.peak_bytes = m::peak_bytes().saturating_sub(base_bytes);

    // per-scope tallies where the executor exposes them, the process-wide
    // counters (the same numbers, summed) for a session, which does not
    match scan_stats {
        Some(stats) if !stats.is_empty() => {
            pass.rows_scanned = stats.iter().map(|s| s.0).sum();
            pass.rows_selected = stats.iter().map(|s| s.1).sum();
        }
        _ => {
            pass.rows_scanned = m::rows_scanned() - scanned0;
            pass.rows_selected = m::rows_selected() - selected0;
        }
    }
    let steady_events = events_fed - events_half;
    if steady_events > 0 {
        pass.allocs_per_kev = (allocs_end - allocs_half) as f64 * 1e3 / steady_events as f64;
    }
    pass.scope_scans = m::router_scope_scans() - scans0;
    pass.batches_routed = m::router_batches_routed() - routed0;
    pass.stall_waits = m::router_stall_waits() - stalls0;
    pass.late_rows_dropped = m::late_rows_dropped() - late0;
    pass.results = results.len() as u64;

    let (attempted, mismatched) = tr.span("bench.compare", |_| compare(&results, want));
    pass.attempted = attempted;
    pass.failed = mismatched + pass.late_rows_dropped + (m::swap_windows_lost() - lost0);
    pass
}

/// One set-up sample, layer by layer.
pub struct SetupSample {
    /// Workload text → ready executor, seconds: the `setup_s` sample.
    pub ready_s: f64,
    /// `parse_workload` (and the rate map), microseconds.
    pub parse_us: f64,
    /// `build_executor()` / `session()`, milliseconds.
    pub build_ms: f64,
    /// The optimizer's share of the build, ms (0 where the build does not
    /// return its outcome).
    pub optimizer_ms: f64,
}

/// One set-up sample: workload text → ready executor. The executor is shut
/// down after the clock stops: joining router and worker threads that poll
/// with sleeps took 0.03-12 ms for one and the same build, and would have
/// been most of the threaded workload's sample.
pub fn setup_sample(inputs: &Inputs, tr: &mut Tracer) -> SetupSample {
    let t = Instant::now();
    let p = tr.span("query.parse", |_| prepare(inputs));
    let parse_us = t.elapsed().as_secs_f64() * 1e6;
    let tb = Instant::now();
    let (sut, outcome) = tr.span("core.build", |_| build_sut(inputs, &p));
    let build_ms = tb.elapsed().as_secs_f64() * 1e3;
    let ready_s = t.elapsed().as_secs_f64();
    tr.span("core.shutdown", |_| discard(sut));
    SetupSample {
        ready_s,
        parse_us,
        build_ms,
        optimizer_ms: outcome.map_or(0.0, |o| o.total_time().as_secs_f64() * 1e3),
    }
}

/// Append set-up samples (seconds) to `samples` until this burst has taken
/// at least `min_samples` of them and `min_s` seconds.
pub fn setup_burst(inputs: &Inputs, samples: &mut Vec<f64>, min_samples: usize, min_s: f64) {
    let mut tr = Tracer::new(false);
    let first = samples.len();
    let t = Instant::now();
    while samples.len() - first < min_samples || t.elapsed().as_secs_f64() < min_s {
        samples.push(setup_sample(inputs, &mut tr).ready_s);
    }
}

/// Summary statistics of a set of passes.
pub struct PassStats {
    /// Index of the pass that took the least wall time.
    pub fastest: usize,
    /// Index of the pass that took the least process CPU time.
    pub least_cpu: usize,
    /// Median events/second over the passes.
    pub median_eps: f64,
    /// Interquartile range of events/second as a percentage of the median.
    pub iqr_pct: f64,
}

/// Fastest pass, median and spread of `passes`.
pub fn pass_stats(passes: &[Pass], events: usize) -> PassStats {
    let eps: Vec<f64> = passes.iter().map(|p| p.eps(events)).collect();
    let fastest = (0..passes.len())
        .min_by(|&a, &b| passes[a].wall_s.total_cmp(&passes[b].wall_s))
        .expect("at least one pass");
    let least_cpu = (0..passes.len())
        .min_by_key(|&i| passes[i].cpu_ns)
        .expect("at least one pass");
    let median_eps = quantile(&eps, 0.5);
    let iqr_pct = (quantile(&eps, 0.75) - quantile(&eps, 0.25)) / median_eps * 100.0;
    PassStats {
        fastest,
        least_cpu,
        median_eps,
        iqr_pct,
    }
}

/// Assert every pass ran the same plan as the first (the optimizer is
/// deterministic for one workload and rate map; a pass under another plan
/// would not be a repeat of the same measurement).
pub fn assert_same_plan<'a>(passes: impl IntoIterator<Item = &'a Pass>) {
    let mut passes = passes.into_iter();
    if let Some(first) = passes.next() {
        for (i, p) in passes.enumerate() {
            assert!(
                p.plan == first.plan,
                "pass {} ran plan {:?}, pass 0 ran {:?}",
                i + 1,
                p.plan,
                first.plan
            );
        }
    }
}
