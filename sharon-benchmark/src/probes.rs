//! The traced run's per-layer numbers: counters read off the timed passes,
//! plus direct probes of single layers (scan kernel, router, reorder gate,
//! checkpoints, hand-off, two-step baselines) over the workload's own
//! inputs. A layer the workload does not exercise is not probed and its
//! metrics read 0.
//!
//! Nothing here is gated: these numbers say where a change to an
//! end-to-end metric came from.

use crate::host::{self, median_or_zero, quantile};
use crate::rig::{self, Fixture, Pass, SetupSample};
use crate::trace::Tracer;
use crate::workloads::{self, Kind};
use crate::Metrics;
use sharon::executor::{
    compile, BatchRouter, CheckpointConfig, CompiledPartition, ExecutorResults, Reorder,
    RouteBatch, RoutedRows,
};
use sharon::metrics as m;
use sharon::optimizer::OptimizeOutcome;
use sharon::prelude::*;
use sharon::{AnyExecutor, Strategy};
use std::path::Path;
use std::time::Instant;

/// Events in the two-step comparison's prefix of the TX stream. The
/// baselines construct every sequence, and on this stream that explodes
/// at a point the seed decides: 5k events cost them 0.1 s on every seed
/// tried, 8k between 1 s and 30 s, 12k more than 100 s.
const TWOSTEP_PREFIX_EVENTS: usize = 5_000;

/// Batches between checkpoints in the checkpoint probe: the LR stream is
/// 57 routed batches long, so three or four checkpoints complete.
const CHECKPOINT_INTERVAL_BATCHES: u64 = 16;

/// What the probes read.
pub struct Ctx<'a> {
    /// Inputs, parsed workload and expected rows of the run.
    pub fx: &'a Fixture<'a>,
    /// Rows the oracle produced.
    pub oracle_rows: usize,
    /// The untraced timed passes.
    pub plain: &'a [Pass],
    /// The traced timed passes.
    pub traced: &'a [Pass],
    /// The rig's scratch directory.
    pub out_dir: &'a Path,
    /// The run's seed and scale, for the probes that generate a stream.
    pub seed: u64,
    /// See [`crate::Options::scale`].
    pub scale: f64,
}

/// Oracle rows compared and failed by the probes that produce results.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, got: &ExecutorResults, want: &ExecutorResults) {
        let (a, f) = rig::compare(got, want);
        self.attempted += a;
        self.failed += f;
    }
}

/// One plain feed + finish of an executor over `feed`, slide by slide.
struct SimplePass {
    results: ExecutorResults,
    wall_s: f64,
    cpu_ns: u64,
    slide_ms: Vec<f64>,
}

fn simple_pass(
    mut ex: AnyExecutor,
    feed: &[EventBatch],
    slides: &[std::ops::Range<usize>],
    mut after_slide: impl FnMut(usize),
) -> SimplePass {
    let mut slide_ms = Vec::with_capacity(slides.len());
    let cpu0 = host::process_cpu_ns();
    let t0 = Instant::now();
    for (s, slide) in slides.iter().enumerate() {
        let ts = Instant::now();
        for batch in &feed[slide.clone()] {
            ex.process_columnar(batch);
        }
        slide_ms.push(ts.elapsed().as_secs_f64() * 1e3);
        after_slide(s);
    }
    let results = ex.finish();
    SimplePass {
        results,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_ns: host::process_cpu_ns() - cpu0,
        slide_ms,
    }
}

/// [`simple_pass`] over the whole of `feed` as one slide, for the probes
/// that need no slide samples.
fn whole_pass(ex: AnyExecutor, feed: &[EventBatch]) -> SimplePass {
    simple_pass(ex, feed, std::slice::from_ref(&(0..feed.len())), |_| {})
}

fn phase_ms(outcome: &OptimizeOutcome, names: &[&str]) -> f64 {
    outcome
        .phases
        .iter()
        .filter(|p| names.contains(&p.name))
        .map(|p| p.elapsed.as_secs_f64() * 1e3)
        .sum()
}

/// Run every probe that applies to the workload and set every per-layer
/// metric it yields. Returns `(rows compared, rows failed)` of the probes
/// that produce results.
pub fn run_all(ctx: &Ctx<'_>, tr: &mut Tracer, out: &mut Metrics) -> (u64, u64) {
    let inputs = ctx.fx.inputs;
    let p = ctx.fx.prepared;
    let events = inputs.events;
    let mut tally = Tally::default();
    let fastest =
        |passes: &'_ [Pass]| -> Pass { passes[rig::pass_stats(passes, events).fastest].clone() };
    let plain = fastest(ctx.plain);
    let traced = fastest(ctx.traced);

    // ---- rig input ----
    out.set("streams.generate_ms", inputs.generate_ms);
    out.set("streams.events", events as f64);
    out.set("bench.oracle_rows", ctx.oracle_rows as f64);

    // ---- set-up, layer by layer ----
    let samples: Vec<SetupSample> = (0..5).map(|_| rig::setup_sample(inputs, tr)).collect();
    let column = |f: fn(&SetupSample) -> f64| -> f64 {
        quantile(&samples.iter().map(f).collect::<Vec<_>>(), 0.5)
    };
    let build_ms = column(|s| s.build_ms);
    out.set("query.parse_us", column(|s| s.parse_us));
    out.set("core.build_ms", build_ms);
    let outcome = tr.span("optimizer.optimize_sharon", |_| {
        optimize_sharon(&p.workload, &p.rates, &OptimizerConfig::default())
    });
    assert!(!outcome.stats.timed_out, "optimizer search timed out");
    let optimizer_ms = outcome.total_time().as_secs_f64() * 1e3;
    out.set("optimizer.total_ms", optimizer_ms);
    out.set(
        "optimizer.mining_ms",
        phase_ms(&outcome, &["pattern mining"]),
    );
    out.set(
        "optimizer.graph_ms",
        phase_ms(&outcome, &["graph construction", "graph reduction"]),
    );
    out.set(
        "optimizer.expansion_ms",
        phase_ms(&outcome, &["graph expansion"]),
    );
    out.set("optimizer.search_ms", phase_ms(&outcome, &["plan finder"]));
    out.set(
        "optimizer.candidates_mined",
        outcome.stats.candidates_mined as f64,
    );
    out.set(
        "optimizer.graph_vertices",
        outcome.stats.graph_vertices as f64,
    );
    out.set("optimizer.graph_edges", outcome.stats.graph_edges as f64);
    out.set(
        "optimizer.plans_considered",
        outcome.stats.plans_considered as f64,
    );
    out.set("optimizer.plan_score", outcome.score);
    // the build's own optimizer time where the build reports one, else the
    // direct call's (a session keeps its outcome to itself)
    let in_build = column(|s| s.optimizer_ms);
    let opt_in_build = if in_build > 0.0 {
        in_build
    } else {
        optimizer_ms
    };
    out.set("core.compile_ms", (build_ms - opt_in_build).max(0.0));
    if let Some(plan) = plain.plan {
        assert!(
            plan.score == outcome.score && plan.candidates == outcome.plan.len(),
            "the passes ran another plan than the optimizer returns now"
        );
    }

    // ---- counters off the timed passes ----
    out.set("executor.scan.rows_scanned", traced.rows_scanned as f64);
    out.set("executor.scan.rows_selected", traced.rows_selected as f64);
    out.set("executor.engine.finish_ms", traced.finish_s * 1e3);
    out.set(
        "executor.engine.slide_p99_ms",
        quantile(&plain.slide_ms, 0.99),
    );
    out.set("executor.engine.state_size", traced.state_size as f64);
    out.set("executor.engine.results", traced.results as f64);
    out.set(
        "executor.engine.events_matched",
        traced.events_matched as f64,
    );
    out.set("executor.engine.allocs_per_kev", plain.allocs_per_kev);
    out.set("executor.router.scope_scans", traced.scope_scans as f64);
    out.set(
        "executor.router.batches_routed",
        traced.batches_routed as f64,
    );
    out.set("executor.router.stall_waits", traced.stall_waits as f64);
    out.set(
        "executor.sharded.cpu_us_per_event",
        plain.cpu_ns as f64 / 1e3 / events as f64,
    );
    if inputs.shards >= 1 {
        out.set("executor.sharded.finish_ms", traced.finish_s * 1e3);
        out.set(
            "executor.sharded.runqueue_wait_share",
            traced.runqueue_wait_share,
        );
    }
    let late: u64 = ctx
        .plain
        .iter()
        .chain(ctx.traced)
        .map(|p| p.late_rows_dropped)
        .sum();
    out.set("executor.event_time.late_rows_dropped", late as f64);
    out.set(
        "core.session.attach_us_p50",
        median_or_zero(&plain.attach_us),
    );
    out.set(
        "core.session.detach_us_p50",
        median_or_zero(&plain.detach_us),
    );
    out.set("core.session.drain_us_p50", median_or_zero(&plain.drain_us));
    out.set(
        "core.session.reoptimizations",
        traced.reoptimizations as f64,
    );
    out.set("core.session.plan_swaps", traced.plan_swaps as f64);
    out.set("core.session.sidecars_max", traced.sidecars_max as f64);

    let stats = rig::pass_stats(ctx.plain, events);
    out.set("bench.pass_fastest_eps", plain.eps(events));
    out.set("bench.pass_median_eps", stats.median_eps);
    out.set("bench.pass_iqr_pct", stats.iqr_pct);
    out.set(
        "bench.trace_overhead_pct",
        (traced.wall_s - plain.wall_s) / plain.wall_s * 100.0,
    );
    out.set(
        "bench.cpu_wall_ratio",
        plain.cpu_ns as f64 / 1e9 / plain.wall_s,
    );
    out.set(
        "bench.calib_ns",
        tr.span("bench.calibration", |_| host::calibration_ns()) as f64,
    );

    // ---- direct probes ----
    let parts = compile(&p.catalog, &p.workload, &outcome.plan).expect("workload compiles");
    let scan_s = tr.span("executor.scan.probe", |_| scan_probe(&parts, &inputs.feed));
    let scanned = (parts.len() * events) as f64;
    out.set("executor.scan.ns_per_row", scan_s * 1e9 / scanned);
    out.set("executor.scan.share", scan_s / plain.wall_s);
    if plain.rows_selected > 0 {
        out.set(
            "executor.engine.stateful_ns_per_selected_row",
            (plain.feed_s - scan_s).max(0.0) * 1e9 / plain.rows_selected as f64,
        );
    }
    for (name, n_shards) in [
        ("executor.router.ns_per_row", 1usize),
        ("executor.router.ns_per_row_4shards", 4),
    ] {
        let s = tr.span("executor.router.probe", |_| {
            router_probe(parts.clone(), n_shards, &inputs.feed).0
        });
        out.set(name, s * 1e9 / scanned);
    }

    share_speedup(ctx, tr, out, &mut tally);
    match inputs.kind {
        Kind::TxSharedSeq => twostep(ctx, tr, out, &mut tally),
        Kind::LrDisorderSharded => {
            sharded_layers(ctx, &plain, tr, out, &mut tally);
            skew_counts(ctx, tr, out);
        }
        Kind::EcFilterSeq | Kind::EcChurnSession => {}
    }
    (tally.attempted, tally.failed)
}

/// Every partition's compiled scan kernel over every batch: what the
/// stateless prefix alone costs. Fastest of two sweeps, seconds.
fn scan_probe(parts: &[CompiledPartition], feed: &[EventBatch]) -> f64 {
    let mut kernels: Vec<_> = parts.iter().map(CompiledPartition::scan_kernel).collect();
    let mut sel = Vec::new();
    let mut best = f64::MAX;
    for _ in 0..2 {
        let t = Instant::now();
        for batch in feed {
            for kernel in &mut kernels {
                sel.clear();
                kernel.select_into(batch, 0, batch.len(), &mut sel);
                std::hint::black_box(&sel);
            }
        }
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// `BatchRouter` alone over every batch. Returns the wall seconds, the
/// rows each shard received and the most groups split at any one time.
fn router_probe(
    parts: Vec<CompiledPartition>,
    n_shards: usize,
    feed: &[EventBatch],
) -> (f64, Vec<u64>, usize) {
    let mut router = BatchRouter::new(parts, n_shards);
    let mut routed: Vec<RoutedRows> = Vec::new();
    let mut rows = vec![0u64; n_shards];
    let mut split_max = 0usize;
    let t = Instant::now();
    for batch in feed {
        router.route_range_into(batch, 0, batch.len(), &mut routed);
        for (shard, r) in routed.iter().enumerate() {
            rows[shard] += r.per_part.iter().map(|v| v.len() as u64).sum::<u64>();
        }
        split_max = split_max.max(RouteBatch::split_groups(&router));
    }
    (t.elapsed().as_secs_f64(), rows, split_max)
}

/// The paper's claim on this workload: one A-Seq pass ÷ one Sharon pass,
/// both sequential and in order, back to back so they see the same host.
fn share_speedup(ctx: &Ctx<'_>, tr: &mut Tracer, out: &mut Metrics, tally: &mut Tally) {
    let inputs = ctx.fx.inputs;
    let (catalog, workload, rates) = rig::oracle_workload(inputs);
    let feed = inputs.oracle_feed();
    let mut wall = [0.0f64; 2];
    let mut reference = None;
    for (i, strategy) in [Strategy::ASeq, Strategy::Sharon].into_iter().enumerate() {
        let (ex, _) = SharonBuilder::new(&catalog, &workload, &rates)
            .strategy(strategy)
            .shards(0)
            .build_executor()
            .expect("workload compiles");
        let pass = tr.span("core.share_speedup.pass", |_| whole_pass(ex, feed));
        wall[i] = pass.wall_s;
        match &reference {
            None => reference = Some(pass.results),
            Some(aseq) => tally.check(&pass.results, aseq),
        }
    }
    out.set("core.share_speedup", wall[0] / wall[1]);
}

/// The two-step baselines against the online engine on a short TX prefix.
fn twostep(ctx: &Ctx<'_>, tr: &mut Tracer, out: &mut Metrics, tally: &mut Tally) {
    let p = ctx.fx.prepared;
    let mut end = 0usize;
    let mut events = 0usize;
    let prefix = (TWOSTEP_PREFIX_EVENTS as f64 * ctx.scale.min(1.0)) as usize;
    while end < ctx.fx.inputs.feed.len() && events < prefix.max(1) {
        events += ctx.fx.inputs.feed[end].len();
        end += 1;
    }
    let feed = &ctx.fx.inputs.feed[..end];
    let mut eps = [0.0f64; 3];
    let mut reference = None;
    let strategies = [Strategy::Sharon, Strategy::FlinkLike, Strategy::SpassLike];
    for (i, strategy) in strategies.into_iter().enumerate() {
        let (ex, _) = SharonBuilder::new(&p.catalog, &p.workload, &p.rates)
            .strategy(strategy)
            .shards(0)
            .build_executor()
            .expect("workload compiles");
        let pass = tr.span("twostep.pass", |_| whole_pass(ex, feed));
        eps[i] = events as f64 / pass.wall_s;
        match &reference {
            None => reference = Some(pass.results),
            Some(online) => tally.check(&pass.results, online),
        }
    }
    out.set("twostep.flink_eps", eps[1]);
    out.set("twostep.spass_eps", eps[2]);
    out.set("twostep.online_speedup", eps[0] / eps[1]);
}

/// The threaded runtime's layers, on the LR workload: hand-off cost,
/// event-time cost, the reorder gate alone, and checkpoints.
fn sharded_layers(
    ctx: &Ctx<'_>,
    plain: &Pass,
    tr: &mut Tracer,
    out: &mut Metrics,
    tally: &mut Tally,
) {
    let inputs = ctx.fx.inputs;
    let p = ctx.fx.prepared;
    let events = inputs.events as f64;
    let ordered = inputs.oracle_feed();
    let builder =
        || SharonBuilder::new(&p.catalog, &p.workload, &p.rates).strategy(Strategy::Sharon);

    // the same in-order stream on the caller's thread and through
    // router + worker threads: the CPU the hand-off costs
    let mut in_order = Vec::new();
    for shards in [0usize, 1] {
        let (ex, _) = builder().shards(shards).build_executor().expect("compiles");
        let pass = tr.span("executor.sharded.in_order_pass", |_| {
            whole_pass(ex, ordered)
        });
        tally.check(&pass.results, ctx.fx.want);
        in_order.push(pass);
    }
    out.set(
        "executor.sharded.handoff_cpu_ns_per_event",
        (in_order[1].cpu_ns as f64 - in_order[0].cpu_ns as f64) / events,
    );
    // disorder + lateness against the same runtime fed in order without
    out.set(
        "executor.event_time.overhead_pct",
        (plain.wall_s - in_order[1].wall_s) / in_order[1].wall_s * 100.0,
    );

    // the reorder gate alone
    let lateness = inputs.lateness.expect("the LR workload sets a lateness");
    let gate_s = tr.span("executor.event_time.gate_probe", |_| {
        let mut gate = Reorder::new(lateness);
        let t = Instant::now();
        for batch in &inputs.feed {
            for row in 0..batch.len() {
                gate.admit(
                    batch.ty(row),
                    batch.time(row),
                    batch.attrs(row),
                    0,
                    false,
                    false,
                );
            }
            if let Some(frontier) = batch.max_time() {
                gate.advance(frontier);
            }
            while let Some(ready) = gate.pop_ready() {
                gate.recycle(ready);
            }
        }
        gate.open();
        while let Some(ready) = gate.pop_ready() {
            gate.recycle(ready);
        }
        assert_eq!(
            gate.late_rows_dropped(),
            0,
            "the lateness covers the disorder"
        );
        t.elapsed().as_secs_f64()
    });
    out.set("executor.event_time.gate_ns_per_row", gate_s * 1e9 / events);

    // the workload's own configuration plus periodic checkpoints
    let dir = ctx
        .out_dir
        .join(format!("checkpoint-{}", inputs.kind.name()));
    let _ = std::fs::remove_dir_all(&dir);
    let (ex, _) = builder()
        .shards(1)
        .lateness(lateness)
        .checkpoint(CheckpointConfig::every(&dir, CHECKPOINT_INTERVAL_BATCHES))
        .build_executor()
        .expect("compiles");
    let mut written = m::checkpoints_written();
    let mut snapshot_slides = Vec::new();
    let pass = tr.span("executor.checkpoint.pass", |_| {
        simple_pass(ex, &inputs.feed, &inputs.slides, |s| {
            let now = m::checkpoints_written();
            if now > written {
                written = now;
                snapshot_slides.push(s);
            }
        })
    });
    tally.check(&pass.results, ctx.fx.want);
    // a slide in which a checkpoint completed, minus the same slide in the
    // fastest pass without checkpoints: the stall the caller saw
    let stalls: Vec<f64> = snapshot_slides
        .iter()
        .map(|&s| (pass.slide_ms[s] - plain.slide_ms[s]).max(0.0))
        .collect();
    out.set(
        "executor.checkpoint.snapshot_ms_p50",
        median_or_zero(&stalls),
    );
    out.set(
        "executor.checkpoint.bytes",
        newest_checkpoint_bytes(&dir) as f64,
    );
    out.set(
        "executor.checkpoint.overhead_pct",
        (pass.wall_s - plain.wall_s) / plain.wall_s * 100.0,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bytes of the files of the newest `ckpt-*` directory under `dir`.
fn newest_checkpoint_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let newest = entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("ckpt-"))
        .max_by_key(|e| e.file_name());
    let Some(newest) = newest else { return 0 };
    std::fs::read_dir(newest.path())
        .map(|files| {
            files
                .flatten()
                .filter_map(|f| f.metadata().ok())
                .map(|md| md.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Hot-group splitting and shard balance at 4 shards on a Zipf(1.2) LR
/// stream: counts only, 4 workers on 2 cores would time nothing useful.
fn skew_counts(ctx: &Ctx<'_>, tr: &mut Tracer, out: &mut Metrics) {
    let (stream_catalog, stream) = workloads::lr_skewed(ctx.seed, ctx.scale);
    let mut catalog = stream_catalog.clone();
    let workload = parse_workload(&mut catalog, workloads::lr_queries(&stream_catalog))
        .expect("LR text parses");
    let rates = RateMap::from_counts(&ctx.fx.inputs.counts, ctx.fx.inputs.span_secs);
    let plan = optimize_sharon(&workload, &rates, &OptimizerConfig::default()).plan;
    let parts = compile(&catalog, &workload, &plan).expect("LR workload compiles");
    let (feed, _) = workloads::chunk(&stream);
    let (_, rows, split_max) = tr.span("executor.router.skew_probe", |_| {
        router_probe(parts, 4, &feed)
    });
    let mean = rows.iter().sum::<u64>() as f64 / rows.len() as f64;
    let max = rows.iter().copied().max().unwrap_or(0) as f64;
    out.set("executor.router.split_groups", split_max as f64);
    out.set(
        "executor.router.shard_row_imbalance",
        if mean > 0.0 { max / mean } else { 0.0 },
    );
}
