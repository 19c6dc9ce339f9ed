//! `sharon` — command-line runner for the Sharon system.
//!
//! Reads a query workload (SASE-style, one query per line), generates one
//! of the paper's streams, runs the chosen strategy, and prints the
//! sharing plan, per-query result summaries, and timing.
//!
//! ```text
//! USAGE:
//!   sharon [--queries FILE] [--stream taxi|lr|ec] [--events N]
//!          [--strategy sharon|greedy|aseq|flink|spass] [--shards N]
//!          [--skew THETA] [--explain]
//!          [--results N] [--checkpoint-dir DIR] [--checkpoint-interval N]
//!          [--resume] [--disorder K] [--lateness B] [--churn FILE]
//!
//! Without --queries, taxi runs the paper's Figure 1 traffic workload, lr
//! six overlapping length-4 routes over its `Seg*` types grouped by car
//! (`WITHIN 10 s SLIDE 1 s`), and ec the Figure 2 purchase workload.
//! `--shards N` runs an online strategy (sharon, greedy, aseq) on the
//! sharded parallel runtime with N worker threads; routing overlaps
//! execution on one dedicated router thread. The two-step baselines
//! (flink, spass) run sequentially only: `--shards` with one is refused
//! with the builder's error (exit 1). The per-scope `scan:` tallies are
//! read after the run finishes, so they cover the whole stream at any
//! shard count. `--skew THETA` draws the stream's group dimension
//! (vehicle / car / customer) from a Zipf(THETA) distribution: a skewed
//! `GROUP BY`, whose hot group stays on its hash owner. `--explain` adds
//! the optimizer's phase timings and search statistics, and appends to
//! each `share` line its benefit split into the cost model's terms
//! (`non-shared N − (once O + comp C + comb K + fold F)`).
//!
//! Durability (sharded online strategies only): `--checkpoint-dir DIR`
//! takes a consistent checkpoint every `--checkpoint-interval` ingested
//! batches (default 64); `--resume` restarts from the latest complete
//! checkpoint in that directory and replays the stream from the recorded
//! offset; a crash drill is `kill -9` mid-run, then the same command with
//! `--resume`. A checkpoint flag without `--shards`, or on a two-step
//! baseline, is refused with the builder's error (exit 1).
//!
//! Event time: `--disorder K` scrambles the generated stream with bounded
//! disorder (each event displaced at most K positions; seeded, so runs
//! are reproducible), `--lateness B` runs an online strategy (sharon,
//! greedy, aseq) in event-time mode with an allowed lateness of B
//! milliseconds — rows buffer behind the watermark `max_time_seen − B`
//! and release in event-time order; rows behind the watermark are
//! dropped and counted. Results are exact whenever B covers the stream's
//! disorder (in event-time milliseconds). The two-step baselines run in
//! arrival order only: `--lateness` with one is refused with the
//! builder's error (exit 1), and `--disorder` needs `--lateness`, so they
//! see in-order streams only. The runner reads flags only, never the
//! environment.
//!
//! Live churn: `--churn FILE` runs the stream through a long-lived
//! `SharonSession` and replays a script of runtime workload mutations.
//! Each non-empty, non-`#` line is `@<event-offset> <action>`:
//!
//!   @25000 attach RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 s SLIDE 2 s
//!   @40000 detach 3
//!   @45000 reopt
//!
//! `attach` compiles the query in (fast-path aliasing an equal-signature
//! hosted query, else a private sidecar), `detach <n>` detaches the n-th
//! handle (1-based: the initial workload's queries are handles 1..k in
//! order, then attach order), and `reopt` forces a re-optimization and
//! plan hot-swap at that batch boundary. Offsets are event positions in
//! the generated stream; ops apply in offset order. `--checkpoint-dir` and
//! `--lateness` reach the session builder, which refuses them (as it
//! refuses a two-step baseline) with its typed error (exit 1); `--resume`
//! is refused up front. `--shards 0` is promoted to one shard.
//! ```

use sharon::executor::CheckpointConfig;
use sharon::prelude::*;
use sharon::query::aggregate::AggValue;
use sharon::streams::workload::{
    figure_1_workload, figure_2_workload, measured_rates_batch, overlapping_workload,
    WorkloadConfig,
};
use sharon::streams::{ecommerce, linear_road, taxi};
use sharon::Strategy;
use std::time::Instant;

struct Args {
    queries: Option<String>,
    stream: String,
    events: usize,
    strategy: Strategy,
    shards: usize,
    skew: f64,
    explain: bool,
    results: usize,
    checkpoint_dir: Option<String>,
    checkpoint_interval: Option<u64>,
    resume: bool,
    disorder: u32,
    lateness: Option<u64>,
    churn: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        queries: None,
        stream: "taxi".into(),
        events: 50_000,
        strategy: Strategy::Sharon,
        shards: 0,
        skew: 0.0,
        explain: false,
        results: 5,
        checkpoint_dir: None,
        checkpoint_interval: None,
        resume: false,
        disorder: 0,
        lateness: None,
        churn: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--queries" => args.queries = Some(value("--queries")?),
            "--stream" => args.stream = value("--stream")?,
            "--events" => {
                args.events = value("--events")?
                    .parse()
                    .map_err(|e| format!("--events: {e}"))?
            }
            "--results" => {
                args.results = value("--results")?
                    .parse()
                    .map_err(|e| format!("--results: {e}"))?
            }
            "--strategy" => {
                args.strategy = match value("--strategy")?.as_str() {
                    "sharon" => Strategy::Sharon,
                    "greedy" => Strategy::Greedy,
                    "aseq" => Strategy::ASeq,
                    "flink" => Strategy::FlinkLike,
                    "spass" => Strategy::SpassLike,
                    other => return Err(format!("unknown strategy `{other}`")),
                }
            }
            "--shards" => {
                args.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--skew" => {
                args.skew = value("--skew")?
                    .parse()
                    .map_err(|e| format!("--skew: {e}"))?;
                if !(args.skew >= 0.0 && args.skew.is_finite()) {
                    return Err("--skew must be a finite theta >= 0".into());
                }
            }
            "--checkpoint-dir" => args.checkpoint_dir = Some(value("--checkpoint-dir")?),
            "--checkpoint-interval" => {
                let n: u64 = value("--checkpoint-interval")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-interval: {e}"))?;
                if n == 0 {
                    return Err("--checkpoint-interval must be >= 1".into());
                }
                args.checkpoint_interval = Some(n);
            }
            "--resume" => args.resume = true,
            "--disorder" => {
                args.disorder = value("--disorder")?
                    .parse()
                    .map_err(|e| format!("--disorder: {e}"))?
            }
            "--lateness" => {
                args.lateness = Some(
                    value("--lateness")?
                        .parse()
                        .map_err(|e| format!("--lateness: {e}"))?,
                )
            }
            "--churn" => args.churn = Some(value("--churn")?),
            "--explain" => args.explain = true,
            "--help" | "-h" => {
                println!(
                    "sharon — shared online event sequence aggregation (ICDE 2018)\n\n\
                     USAGE:\n  sharon [--queries FILE] [--stream taxi|lr|ec] [--events N]\n\
                     \x20        [--strategy sharon|greedy|aseq|flink|spass] [--shards N]\n\
                     \x20        [--skew THETA] [--explain]\n\
                     \x20        [--results N] [--checkpoint-dir DIR] [--checkpoint-interval N]\n\
                     \x20        [--resume] [--disorder K] [--lateness B] [--churn FILE]\n\n\
                     --shards N runs sharon|greedy|aseq on N worker threads;\n\
                     flink|spass run sequentially only. --checkpoint-dir needs\n\
                     --shards; --resume restarts from its latest checkpoint.\n\
                     --lateness runs sharon|greedy|aseq in event time;\n\
                     flink|spass run in arrival order only. --disorder needs\n\
                     --lateness. No environment variable is read."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let disorder = args.disorder;
    let mut catalog = Catalog::new();
    let events = match args.stream.as_str() {
        "taxi" => taxi::generate_batch(
            &mut catalog,
            &taxi::TaxiConfig {
                n_events: args.events,
                n_streets: 7,
                skew: args.skew,
                disorder,
                ..Default::default()
            },
        ),
        "lr" => linear_road::generate_batch(
            &mut catalog,
            &linear_road::LinearRoadConfig {
                duration_secs: (args.events / 500).max(10) as u64,
                skew: args.skew,
                disorder,
                ..Default::default()
            },
        ),
        "ec" => ecommerce::generate_batch(
            &mut catalog,
            &ecommerce::EcommerceConfig {
                n_events: args.events,
                skew: args.skew,
                disorder,
                ..Default::default()
            },
        ),
        other => {
            eprintln!("error: unknown stream `{other}` (taxi|lr|ec)");
            std::process::exit(2);
        }
    };
    if args.skew > 0.0 {
        eprintln!(
            "stream: {} events ({}, Zipf skew theta={})",
            events.len(),
            args.stream,
            args.skew
        );
    } else {
        eprintln!("stream: {} events ({})", events.len(), args.stream);
    }
    if disorder > 0 {
        eprintln!(
            "disorder: events displaced up to {disorder} positions ({} ms of lateness absorbs it exactly)",
            sharon::streams::required_lateness(&events)
        );
    }

    // 2. workload
    let workload = match &args.queries {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(2);
            });
            let sources: Vec<&str> = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect();
            match parse_workload(&mut catalog, sources) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            }
        }
        None if args.stream == "ec" => figure_2_workload(&mut catalog),
        None if args.stream == "lr" => lr_workload(&mut catalog),
        None => figure_1_workload(&mut catalog),
    };
    eprintln!("workload: {} queries", workload.len());

    // 3. durability and event-time flags; the builder refuses the
    // combinations its runtime cannot host
    let checkpoint = match (&args.checkpoint_dir, args.checkpoint_interval) {
        (Some(dir), interval) => Some(CheckpointConfig::every(dir, interval.unwrap_or(64))),
        (None, Some(_)) => {
            eprintln!("error: --checkpoint-interval needs --checkpoint-dir");
            std::process::exit(2);
        }
        (None, None) => None,
    };
    if args.resume && checkpoint.is_none() {
        eprintln!("error: --resume needs --checkpoint-dir");
        std::process::exit(2);
    }
    // a disordered stream without a lateness bound would violate every
    // strategy's arrival-order contract, so refuse it
    let lateness = args.lateness;
    if disorder > 0 && lateness.is_none() {
        eprintln!("error: --disorder needs --lateness");
        std::process::exit(2);
    }
    if let Some(b) = lateness {
        eprintln!("event time: allowed lateness {b} ms (later rows are dropped and counted)");
    }

    // 4. optimize + execute
    let (counts, span) = measured_rates_batch(&events);
    let rates = RateMap::from_counts(&counts, span);

    if let Some(script) = args.churn.clone() {
        run_churn(
            &script,
            &args,
            &mut catalog,
            &workload,
            &events,
            &rates,
            checkpoint,
        );
        return;
    }
    let t0 = Instant::now();
    let mut replay_offset: u64 = 0;
    let checkpointing = checkpoint.is_some();
    let builder = configure(
        SharonBuilder::new(&catalog, &workload, &rates),
        &args,
        checkpoint,
    );
    let built = if args.resume {
        builder
            .resume()
            .map(|(ex, outcome, offset)| {
                replay_offset = offset;
                (ex, outcome)
            })
            .map_err(|e| format!("cannot resume: {e}"))
    } else {
        builder.build_executor().map_err(|e| e.to_string())
    };
    let (mut executor, outcome) = match built {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let optimize_time = t0.elapsed();
    if args.shards > 0 {
        eprintln!(
            "runtime: sharded across {} worker threads and one router thread",
            args.shards
        );
    }

    if let Some(outcome) = &outcome {
        println!(
            "plan ({}, score {:.1}, optimized in {:?}):",
            args.strategy.name(),
            outcome.score,
            optimize_time
        );
        let model = sharon::optimizer::CostModel::new(&workload, &rates);
        for cand in &outcome.plan.candidates {
            let qs: Vec<String> = cand.queries.iter().map(|q| q.to_string()).collect();
            let benefit = if args.explain {
                format!("  benefit {}", model.benefit(&cand.pattern, &cand.queries))
            } else {
                String::new()
            };
            println!(
                "  share {} among {}{benefit}",
                cand.pattern.display(&catalog),
                qs.join(", ")
            );
        }
        if args.explain {
            for phase in &outcome.phases {
                println!("  phase {:<20} {:?}", phase.name, phase.elapsed);
            }
            let s = &outcome.stats;
            println!(
                "  candidates mined {} / graph {}v {}e / expanded {} / pruned {} / conflict-free {} / search nodes {}{}",
                s.candidates_mined, s.graph_vertices, s.graph_edges,
                s.expanded_vertices, s.pruned, s.conflict_free, s.plans_considered,
                if s.timed_out { " (search budget hit: best-so-far plan)" } else { "" }
            );
        }
    } else {
        println!("plan: none ({} runs non-shared)", args.strategy.name());
    }

    // time ingestion AND finish together: the sharded runtime drains its
    // workers in finish(), so stopping the clock earlier would credit it
    // for work it has only enqueued
    let offset = (replay_offset as usize).min(events.len());
    if args.resume {
        eprintln!(
            "resume: checkpoint covers the stream up to event {offset}; replaying {} events",
            events.len() - offset
        );
    }
    let t1 = Instant::now();
    if offset == 0 {
        executor.process_columnar(&events);
    } else {
        // replay only the suffix after the checkpointed offset
        let mut tail = sharon::types::EventBatch::new();
        tail.extend_from_range(&events, offset, events.len());
        executor.process_columnar(&tail);
    }
    // the counts come back from finish: the sharded runtime's router and
    // workers are still processing queued batches until then
    let report = executor.finish_with_stats();
    let (results, matched, scan_stats) = (report.results, report.events_matched, report.scan_stats);
    let run_time = t1.elapsed();
    let processed = events.len() - offset;
    let throughput = processed as f64 / run_time.as_secs_f64().max(1e-12);
    if checkpointing {
        eprintln!(
            "durability: {} checkpoint(s) written",
            sharon::metrics::checkpoints_written()
        );
    }
    if lateness.is_some() {
        eprintln!(
            "event time: {} late row(s) dropped",
            report.late_rows_dropped
        );
    }
    if !scan_stats.is_empty() {
        for (scope, (scanned, selected)) in scan_stats.iter().enumerate() {
            let pct = if *scanned > 0 {
                *selected as f64 / *scanned as f64 * 100.0
            } else {
                0.0
            };
            eprintln!(
                "scan: scope {scope}: {selected}/{scanned} rows selected ({pct:.1}% selectivity)"
            );
        }
    }

    // every strategy — online engines and two-step baselines alike —
    // counts its stateless-scan survivors through the BatchProcessor
    // contract, so the matched cell is always real
    let replay_note = if offset > 0 {
        format!(" ({processed} replayed after resume)")
    } else {
        String::new()
    };
    println!(
        "\nexecuted {} events{replay_note} ({matched} matched) in {:?} ({:.0} events/s), {} results",
        events.len(),
        run_time,
        throughput,
        results.len()
    );
    let labels: Vec<String> = workload.ids().map(|q| q.to_string()).collect();
    print_summaries(&results, &labels, args.results);
}

/// A row picked for printing: group id, window, emission order within its
/// query, value.
type Picked = (u32, Timestamp, usize, AggValue);

/// For each query `q` below `labels.len()`, print its summary line under
/// `labels[q]`, then its first `n_rows` rows in (group display, window,
/// emission) order — the order of [`ExecutorResults::of_query_sorted`].
/// One pass over the log counts, totals and picks for every query at once:
/// each group is formatted once, and a query holds at most `2 × n_rows`
/// candidate rows, cut back to its `n_rows` smallest whenever it fills.
fn print_summaries(results: &ExecutorResults, labels: &[String], n_rows: usize) {
    let mut names: Vec<Option<String>> = Vec::new();
    let mut summaries: Vec<(usize, u128, Vec<Picked>)> =
        labels.iter().map(|_| (0, 0, Vec::new())).collect();
    for (q, gid, window, value) in results.rows() {
        let Some((rows, total, picked)) = summaries.get_mut(q.0 as usize) else {
            continue;
        };
        *rows += 1;
        *total = total.saturating_add(value.as_count().unwrap_or(0));
        if n_rows == 0 {
            continue;
        }
        let g = gid as usize;
        if names.len() <= g {
            names.resize(g + 1, None);
        }
        names[g].get_or_insert_with(|| results.group(gid).to_string());
        picked.push((gid, window, *rows - 1, value));
        if picked.len() >= n_rows.saturating_mul(2) {
            keep_smallest(picked, n_rows, &names);
        }
    }
    for (label, (rows, total, mut picked)) in labels.iter().zip(summaries) {
        println!("  {label}: {rows} (group, window) results, total count {total}");
        keep_smallest(&mut picked, n_rows, &names);
        picked.sort_unstable_by_key(|row| picked_key(row, &names));
        for (gid, window, _, value) in picked {
            let group = names[gid as usize].as_deref().unwrap_or_default();
            println!("      group={group} window@{window}: {value}");
        }
    }
}

/// The print order of a picked row: group display, window, emission.
fn picked_key<'a>(
    row: &Picked,
    names: &'a [Option<String>],
) -> (Option<&'a str>, Timestamp, usize) {
    (names[row.0 as usize].as_deref(), row.1, row.2)
}

/// Cut `picked` back to its `n` smallest rows in print order.
fn keep_smallest(picked: &mut Vec<Picked>, n: usize, names: &[Option<String>]) {
    if picked.len() > n {
        picked.select_nth_unstable_by_key(n, |row| picked_key(row, names));
        picked.truncate(n);
    }
}

/// Apply the strategy, shard, checkpoint and lateness flags to `builder`.
fn configure<'a>(
    builder: SharonBuilder<'a>,
    args: &Args,
    checkpoint: Option<CheckpointConfig>,
) -> SharonBuilder<'a> {
    let mut builder = builder.strategy(args.strategy).shards(args.shards);
    if let Some(ck) = checkpoint {
        builder = builder.checkpoint(ck);
    }
    if let Some(b) = args.lateness {
        builder = builder.lateness(b);
    }
    builder
}

/// The LR default workload: six overlapping length-4 routes over the
/// stream's own `Seg*` types, grouped by car (seed 1 draws six distinct
/// routes, starting at `Seg5` to `Seg9` and `Seg11`).
fn lr_workload(catalog: &mut Catalog) -> Workload {
    let n_segments = linear_road::LinearRoadConfig::default().n_segments;
    overlapping_workload(
        catalog,
        &WorkloadConfig {
            n_queries: 6,
            pattern_len: 4,
            alphabet: (0..n_segments).map(|i| format!("Seg{i}")).collect(),
            window: WindowSpec::new(TimeDelta::from_secs(10), TimeDelta::from_secs(1)),
            group_by: Some("car".into()),
            seed: 1,
        },
    )
}

/// One scripted workload mutation, applied once the stream has been fed
/// up to (but not including) event `offset`.
struct ChurnOp {
    offset: usize,
    action: ChurnAction,
}

enum ChurnAction {
    Attach(Box<Query>),
    Detach(u32),
    Reopt,
}

/// Parse a churn script: `@<offset> attach <query>` / `@<offset>
/// detach <n>` (1-based handle) / `@<offset> reopt`, one per line, with
/// `#` comments and blank lines ignored. Attach queries compile against
/// `catalog` here, up front — the session snapshots the catalog when it
/// starts, so every type a scripted query names must exist first.
fn parse_churn_script(catalog: &mut Catalog, text: &str) -> Result<Vec<ChurnOp>, String> {
    let mut ops = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |m: String| format!("churn script line {}: {m}", lineno + 1);
        let rest = line
            .strip_prefix('@')
            .ok_or_else(|| err("expected `@<offset> <action>`".into()))?;
        let (off, rest) = rest
            .split_once(char::is_whitespace)
            .ok_or_else(|| err("expected an action after the offset".into()))?;
        let offset: usize = off
            .parse()
            .map_err(|e| err(format!("bad offset `{off}`: {e}")))?;
        let rest = rest.trim();
        let action = if let Some(src) = rest.strip_prefix("attach ") {
            let q = parse_query(catalog, src.trim()).map_err(|e| err(e.to_string()))?;
            ChurnAction::Attach(Box::new(q))
        } else if let Some(n) = rest.strip_prefix("detach ") {
            let n: u32 = n
                .trim()
                .parse()
                .map_err(|e| err(format!("bad handle number `{}`: {e}", n.trim())))?;
            if n == 0 {
                return Err(err("handles are numbered from 1".into()));
            }
            ChurnAction::Detach(n - 1)
        } else if rest == "reopt" {
            ChurnAction::Reopt
        } else {
            return Err(err(format!(
                "unknown action `{rest}` (expected attach/detach/reopt)"
            )));
        };
        ops.push(ChurnOp { offset, action });
    }
    ops.sort_by_key(|op| op.offset);
    Ok(ops)
}

/// `--churn` mode: run the stream through a live [`SharonSession`],
/// applying the script's attach/detach/reopt ops at their event offsets.
/// The session builder refuses the options a session cannot host.
fn run_churn(
    script: &str,
    args: &Args,
    catalog: &mut Catalog,
    workload: &Workload,
    events: &EventBatch,
    rates: &RateMap,
    checkpoint: Option<CheckpointConfig>,
) {
    // a resume is a terminal call of its own, so no builder sees it
    if args.resume {
        eprintln!("error: --churn does not compose with --resume");
        std::process::exit(2);
    }
    let text = std::fs::read_to_string(script).unwrap_or_else(|e| {
        eprintln!("error: cannot read {script}: {e}");
        std::process::exit(2);
    });
    // parse BEFORE the session snapshots the catalog, so attach queries
    // may introduce event types the initial workload never names
    let ops = match parse_churn_script(catalog, &text) {
        Ok(ops) => ops,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let builder = configure(
        SharonBuilder::new(catalog, workload, rates),
        args,
        checkpoint,
    );
    let mut session = match builder.session(SessionConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "session: {} initial queries ({}) on {} shard(s), {} scripted op(s)",
        workload.len(),
        args.strategy.name(),
        args.shards.max(1),
        ops.len()
    );

    let total = events.len();
    let mut pos = 0usize;
    let feed_to = |session: &mut SharonSession, pos: &mut usize, stop: usize| {
        while *pos < stop {
            let end = (*pos + 4096).min(stop);
            let mut chunk = EventBatch::new();
            chunk.extend_from_range(events, *pos, end);
            session.process_columnar(&chunk);
            *pos = end;
        }
    };

    let t1 = Instant::now();
    for op in &ops {
        feed_to(&mut session, &mut pos, op.offset.min(total));
        match &op.action {
            ChurnAction::Attach(q) => {
                let sidecars_before = session.sidecar_count();
                match session.attach((**q).clone()) {
                    Ok(h) => {
                        let path = if session.sidecar_count() > sidecars_before {
                            "private sidecar until the next re-optimization"
                        } else {
                            "fast path: aliases a hosted query"
                        };
                        eprintln!("@{}: attach -> handle {h} ({path})", op.offset);
                    }
                    Err(e) => {
                        eprintln!("error: @{} attach: {e}", op.offset);
                        std::process::exit(1);
                    }
                }
            }
            ChurnAction::Detach(idx) => match session.handle(*idx) {
                Some(h) if session.is_attached(h) => {
                    session.detach(h);
                    eprintln!("@{}: detach handle {h}", op.offset);
                }
                Some(h) => {
                    eprintln!(
                        "error: @{} detach: handle {h} is already detached",
                        op.offset
                    );
                    std::process::exit(2);
                }
                None => {
                    eprintln!(
                        "error: @{} detach: no handle {} (only {} issued)",
                        op.offset,
                        idx + 1,
                        session.handle_count()
                    );
                    std::process::exit(2);
                }
            },
            ChurnAction::Reopt => {
                session.reoptimize_now();
                eprintln!(
                    "@{}: reopt -> plan swap {} ({} sharing candidate(s) in force)",
                    op.offset,
                    session.plan_swaps(),
                    session.plan().candidates.len()
                );
            }
        }
    }
    feed_to(&mut session, &mut pos, total);

    let handles = session.handle_count();
    let attaches = handles as usize - workload.len();
    let detaches = handles as usize - session.attached_count();
    let (reopts, swaps) = (session.reoptimizations(), session.plan_swaps());
    let results = session.finish();
    let run_time = t1.elapsed();
    let throughput = total as f64 / run_time.as_secs_f64().max(1e-12);
    println!(
        "\nexecuted {} events through {} handle(s) in {:?} ({:.0} events/s), {} results",
        total,
        handles,
        run_time,
        throughput,
        results.len()
    );
    println!(
        "churn: {} attach(es), {} detach(es), {} re-optimization(s), {} plan swap(s), {} window(s) lost",
        attaches,
        detaches,
        reopts,
        swaps,
        sharon::metrics::swap_windows_lost()
    );
    let labels: Vec<String> = (1..=handles).map(|i| format!("handle {i}")).collect();
    print_summaries(&results, &labels, args.results);
}
