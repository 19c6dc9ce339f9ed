//! Shared harness for the figure-reproducing benchmarks.
//!
//! Each `benches/figure*.rs` binary (compiled with `harness = false`)
//! builds the paper's workload/stream shape, sweeps the figure's x-axis,
//! measures latency / throughput / peak memory per series, prints a
//! [`Table`] whose rows mirror the figure, and appends the raw numbers to
//! `target/sharon-reports.jsonl`.
//!
//! Scale: the paper's full-size parameters (200k–1200k events per window,
//! up to 180 queries) are CPU-hours on a laptop. `SHARON_SCALE` (a float,
//! default 1.0) multiplies the sweep sizes; the *shape* of every figure —
//! who wins, by what factor, where the crossovers sit — is preserved at
//! any scale. Every table records the scale in a note.

use sharon::prelude::*;
use sharon::streams::workload::measured_rates;
use sharon::{SharonBuilder, Strategy};
use sharon_metrics::{fmt_bytes, fmt_duration, fmt_throughput, measure_peak, Table};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Read the global scale factor (default 1.0).
pub fn scale() -> f64 {
    std::env::var("SHARON_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Scale an integer parameter, keeping it at least `min`.
pub fn scaled(base: usize, min: usize) -> usize {
    ((base as f64 * scale()) as usize).max(min)
}

/// Where the JSON report lines go (the workspace `target/` directory).
pub fn report_path() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../target").to_string());
    PathBuf::from(target).join("sharon-reports.jsonl")
}

/// Print a table and append it to the report file.
pub fn emit(table: &Table) {
    println!("{table}");
    let path = report_path();
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = table.append_json(&path) {
        eprintln!("warning: could not append report: {e}");
    }
}

/// One measured executor run.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Mean per-window processing latency.
    pub latency: Duration,
    /// Wall-clock for the whole stream.
    pub total: Duration,
    /// Events fed per second of wall-clock.
    pub throughput: f64,
    /// Peak heap growth during the run (bytes; 0 unless the tracking
    /// allocator is installed).
    pub peak_memory: usize,
    /// Total results emitted.
    pub results: usize,
    /// True if the run hit its wall-clock cap and was aborted (the
    /// paper's "does not terminate").
    pub dnf: bool,
}

impl Measurement {
    /// A did-not-finish marker.
    pub fn dnf() -> Self {
        Measurement {
            latency: Duration::ZERO,
            total: Duration::ZERO,
            throughput: 0.0,
            peak_memory: 0,
            results: 0,
            dnf: true,
        }
    }

    /// Latency cell for a table (`DNF` when aborted).
    pub fn latency_cell(&self) -> String {
        if self.dnf {
            "DNF".into()
        } else {
            fmt_duration(self.latency)
        }
    }

    /// Throughput cell.
    pub fn throughput_cell(&self) -> String {
        if self.dnf {
            "DNF".into()
        } else {
            fmt_throughput(self.throughput as u64, Duration::from_secs(1))
        }
    }

    /// Memory cell.
    pub fn memory_cell(&self) -> String {
        if self.dnf {
            "DNF".into()
        } else {
            fmt_bytes(self.peak_memory)
        }
    }
}

/// Run `strategy` over `events`, measuring latency per window slide,
/// total time, throughput, and peak memory. `cap` aborts the run (DNF)
/// when exceeded.
///
/// Events are fed through the columnar [`EventBatch`] pipeline — the
/// native form of every strategy — chunked at window-slide boundaries (so
/// per-window latency samples stay meaningful) and at
/// [`Executor::RUN_BATCH`] rows. Every strategy runs on the sequential
/// engine.
pub fn run_measured(
    catalog: &Catalog,
    workload: &Workload,
    rates: &RateMap,
    strategy: Strategy,
    events: &[Event],
    cap: Option<Duration>,
) -> Measurement {
    let slide = workload
        .queries()
        .first()
        .map(|q| q.window.slide.millis())
        .unwrap_or(60_000);
    let cfg = OptimizerConfig {
        // keep optimizer cost bounded inside executor measurements
        search_budget: Some(Duration::from_secs(5)),
        ..Default::default()
    };
    let (mut ex, _) = SharonBuilder::new(catalog, workload, rates)
        .strategy(strategy)
        .optimizer_config(cfg)
        .build_executor()
        .expect("executor compiles");

    sharon_metrics::reset_peak();
    let base = sharon_metrics::peak_bytes();
    let start = Instant::now();
    let mut window_start = Instant::now();
    let mut samples: Vec<Duration> = Vec::new();
    let mut next_boundary = events.first().map(|e| e.time.millis() + slide).unwrap_or(0);
    let mut fed: u64 = 0;
    // smaller chunks under a cap: the cap is only checked between batch
    // flushes, so the chunk bounds how far a blowing-up two-step run can
    // overshoot its deadline
    let flush_at = if cap.is_some() {
        256
    } else {
        Executor::RUN_BATCH
    };
    let mut buf = EventBatch::with_capacity(flush_at, 2);
    for e in events.iter() {
        if e.time.millis() >= next_boundary {
            // flush before sampling so the window's work is charged to it
            if !buf.is_empty() {
                ex.process_columnar(&buf);
                buf.clear();
            }
            samples.push(window_start.elapsed());
            window_start = Instant::now();
            next_boundary = e.time.millis() / slide * slide + slide;
        }
        buf.push_event(e);
        fed += 1;
        if buf.len() >= flush_at {
            ex.process_columnar(&buf);
            buf.clear();
        }
        // checked between pushes (not only on full-chunk flushes): low
        // density streams flush at window boundaries and may never fill a
        // chunk, but the cap must still fire within 512 events of a
        // blow-up
        if let Some(cap) = cap {
            if fed.is_multiple_of(512) && start.elapsed() > cap {
                return Measurement::dnf();
            }
        }
    }
    if !buf.is_empty() {
        ex.process_columnar(&buf);
    }
    samples.push(window_start.elapsed());
    let results = ex.finish();
    let total = start.elapsed();
    let peak = sharon_metrics::peak_bytes().saturating_sub(base);
    let latency = if samples.is_empty() {
        total
    } else {
        samples.iter().sum::<Duration>() / samples.len() as u32
    };
    Measurement {
        latency,
        total,
        throughput: fed as f64 / total.as_secs_f64().max(1e-12),
        peak_memory: peak,
        results: results.len(),
        dnf: false,
    }
}

/// Build a `RateMap` from a generated stream.
pub fn rates_of(events: &[Event]) -> RateMap {
    let (counts, span) = measured_rates(events);
    RateMap::from_counts(&counts, span)
}

/// Peak memory measured around an arbitrary closure (for optimizer
/// benches).
pub fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    measure_peak(f)
}
