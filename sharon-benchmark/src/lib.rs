//! # sharon-benchmark
//!
//! The one trusted rig for the Sharon system: four workloads, the same
//! four end-to-end metrics on each, timings from the fastest of a fixed
//! number of passes, and a traced run that attributes the time to the
//! layers. `README.md` holds the commands, every constant with its reason,
//! and the noise evidence; `../BENCHMARK.json` is the contract a driver
//! reads.

pub mod host;
pub mod probes;
pub mod rig;
pub mod spec;
pub mod trace;
pub mod workloads;

use rig::{Fixture, Pass, PassStats};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;
use workloads::Kind;

/// Peak memory and allocation counts come from this allocator, so it is
/// installed for the rig's binary and its tests alike.
#[global_allocator]
static ALLOC: sharon::metrics::TrackingAllocator = sharon::metrics::TrackingAllocator;

/// Timed passes of a run at the contract's `run_seconds`.
pub const PASSES: usize = 15;

/// Fewest timed passes per run, however short `--seconds` is.
pub const MIN_PASSES: usize = 5;

/// Fewest set-up samples per run, spread evenly over the passes.
pub const SETUP_MIN_SAMPLES: usize = 25;

/// Least total time spent sampling set-up, seconds.
pub const SETUP_MIN_TOTAL_S: f64 = 0.5;

/// How many timed passes `--seconds` buys. The count follows from the
/// argument alone, never from how fast the passes turn out: the timings
/// are a minimum over the passes, and a minimum over more samples reads
/// lower, so a count that grew with the speed of the code would credit
/// faster code twice.
pub fn passes_for(seconds: f64) -> usize {
    let share = seconds / f64::from(spec::RUN_SECONDS);
    ((share * PASSES as f64).round() as usize).max(MIN_PASSES)
}

/// How one run is parameterised.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed of the stream generators.
    pub seed: u64,
    /// Seconds of timed passes at the pinned stream sizes on the host the
    /// sizes were pinned on; sets the number of passes ([`passes_for`]).
    pub seconds: f64,
    /// Produce the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Stream length relative to the pinned size (1.0 in every real run).
    pub scale: f64,
    /// Where the traced run writes its span file and scratch checkpoints.
    pub out_dir: PathBuf,
}

impl Options {
    /// The options of a real run.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        Options {
            seed,
            seconds,
            trace,
            scale: 1.0,
            out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        }
    }
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload run.
    pub workload: &'static str,
    /// Every pass matched the oracle and nothing was dropped or lost.
    pub correct: bool,
    /// Result rows compared with the oracle, over every pass.
    pub attempted: u64,
    /// Rows mismatched, missing or extra, plus late drops and lost windows.
    pub failed: u64,
    /// The end-to-end metrics, or with `trace` the per-layer ones.
    pub metrics: Vec<Metric>,
    /// Diagnostics printed beside the metrics (never part of the contract).
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub spans: Vec<trace::Span>,
}

impl Report {
    /// The contract's last line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }

    /// One `name value unit` line per metric, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            writeln!(
                out,
                "{:<46} {:>18} {}",
                m.name,
                json_number(m.value),
                m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// A finite number with all its digits; JSON has no NaN or infinity, and a
/// metric that is either is a rig bug worth a loud failure.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

/// Metric values collected by name; [`Metrics::ordered`] checks them
/// against the declared table.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Record `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            !self.0.iter().any(|(n, _)| *n == name),
            "metric {name} set twice"
        );
        self.0.push((name, value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The metrics in declared order, each exactly once with its declared
    /// unit. A declared metric nobody measured reads 0: the layer is one
    /// this workload does not exercise.
    fn ordered(self, names: impl Iterator<Item = &'static str>) -> Vec<Metric> {
        let names: Vec<&'static str> = names.collect();
        for (n, _) in &self.0 {
            assert!(names.contains(n), "metric {n} is not declared");
        }
        names
            .into_iter()
            .map(|name| Metric {
                name,
                value: self.get(name).unwrap_or(0.0),
                unit: spec::unit_of(name).expect("declared metric has a unit"),
            })
            .collect()
    }
}

/// The rig never runs under a `SHARON_*` knob: they select modes
/// (pipeline depth, routers, scan mode, disorder) the workloads pin.
fn clear_sharon_env() {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SHARON_"))
        .collect();
    for name in names {
        std::env::remove_var(name);
    }
}

/// `n` timed passes; `traced(i)` says whether pass `i` records spans, and
/// `after_pass` runs between passes, outside every timed region.
fn timed_passes(
    fx: &Fixture<'_>,
    tr: &mut Tracer,
    n: usize,
    traced: impl Fn(usize) -> bool,
    mut after_pass: impl FnMut(),
) -> Vec<(bool, Pass)> {
    let mut passes = Vec::with_capacity(n);
    for i in 0..n {
        let on = traced(i);
        tr.set_enabled(on);
        let pass = tr.span("pass", |tr| rig::run_pass(fx, tr));
        passes.push((on, pass));
        tr.set_enabled(false);
        after_pass();
    }
    passes
}

/// Run `kind` once and report.
pub fn run(kind: Kind, opts: &Options) -> Report {
    clear_sharon_env();
    host::retain_heap();
    let n_passes = passes_for(opts.seconds);
    let mut notes = Vec::new();
    let mut tr = Tracer::new(opts.trace);

    let t = Instant::now();
    let inputs = tr.span("streams.generate", |_| {
        workloads::build(kind, opts.seed, opts.scale)
    });
    notes.push(format!(
        "inputs: {} events, {} batches, {} slides, {} queries, {} churn ops, built in {:.2} s",
        inputs.events,
        inputs.feed.len(),
        inputs.slides.len(),
        inputs.queries.len(),
        inputs.churn.len(),
        t.elapsed().as_secs_f64()
    ));
    let prepared = rig::prepare(&inputs);
    let (oracle, oracle_s) = tr.span("bench.oracle", |_| rig::oracle(&inputs));
    let oracle_rows = oracle.len();
    let want = rig::expected(&inputs, oracle);
    notes.push(format!(
        "oracle: {oracle_rows} rows ({} expected of the system under test) in {oracle_s:.2} s",
        want.len()
    ));

    let mut metrics = Metrics::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut tally = |pass: &Pass| {
        attempted += pass.attempted;
        failed += pass.failed;
    };

    // warm-up: allocator, page cache, branch predictors; checked like any pass
    tr.set_enabled(false);
    let fx = Fixture {
        inputs: &inputs,
        prepared: &prepared,
        want: &want,
    };
    let warm = rig::run_pass(&fx, &mut tr);
    tally(&warm);

    if !opts.trace {
        // set-up is sampled in a burst after every pass, so that its median
        // covers the whole run and not one moment of the host
        let mut setup = Vec::new();
        let burst_samples = SETUP_MIN_SAMPLES.div_ceil(n_passes);
        let burst_s = SETUP_MIN_TOTAL_S / n_passes as f64;
        let passes: Vec<Pass> = timed_passes(
            &fx,
            &mut tr,
            n_passes,
            |_| false,
            || rig::setup_burst(&inputs, &mut setup, burst_samples, burst_s),
        )
        .into_iter()
        .map(|(_, p)| p)
        .collect();
        passes.iter().for_each(&mut tally);
        rig::assert_same_plan(&passes);
        let stats = rig::pass_stats(&passes, inputs.events);
        let best = &passes[stats.least_cpu];
        metrics.set("throughput_eps", best.cpu_eps(inputs.events));
        metrics.set("slide_p50_ms", host::quantile(&best.slide_cpu_ms, 0.5));
        let peak = passes.iter().map(|p| p.peak_bytes).max().unwrap_or(0);
        metrics.set("peak_mem_mb", peak as f64 / (1024.0 * 1024.0));
        metrics.set("setup_s", host::quantile(&setup, 0.5));
        notes.push(pass_note(&passes, &stats, inputs.events));
    } else {
        // untraced and traced passes alternate, so both see the same host
        let passes = timed_passes(&fx, &mut tr, n_passes, |i| i % 2 == 1, || {});
        passes.iter().for_each(|(_, p)| tally(p));
        rig::assert_same_plan(passes.iter().map(|(_, p)| p));
        let (traced, plain): (Vec<_>, Vec<_>) = passes.into_iter().partition(|(on, _)| *on);
        let traced: Vec<Pass> = traced.into_iter().map(|(_, p)| p).collect();
        let plain: Vec<Pass> = plain.into_iter().map(|(_, p)| p).collect();
        let stats = rig::pass_stats(&plain, inputs.events);
        notes.push(pass_note(&plain, &stats, inputs.events));
        tr.set_enabled(true);
        std::fs::create_dir_all(&opts.out_dir).expect("create the rig's out directory");
        let ctx = probes::Ctx {
            fx: &fx,
            oracle_rows,
            plain: &plain,
            traced: &traced,
            out_dir: &opts.out_dir,
            seed: opts.seed,
            scale: opts.scale,
        };
        let (a, f) = probes::run_all(&ctx, &mut tr, &mut metrics);
        attempted += a;
        failed += f;
        let path = opts.out_dir.join(format!("trace-{}.json", kind.name()));
        std::fs::write(&path, tr.to_json(kind.name())).expect("write the span file");
        notes.push(format!(
            "{} spans written to {}",
            tr.spans().len(),
            path.display()
        ));
    }

    let names: Vec<&'static str> = if opts.trace {
        spec::PER_LAYER.iter().map(|p| p.0).collect()
    } else {
        spec::END_TO_END.iter().map(|e| e.name).collect()
    };
    Report {
        workload: kind.name(),
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics: metrics.ordered(names.into_iter()),
        notes,
        spans: tr.into_spans(),
    }
}

fn pass_note(passes: &[Pass], stats: &PassStats, events: usize) -> String {
    let secs = |f: fn(&Pass) -> f64| -> String {
        let v: Vec<String> = passes.iter().map(|p| format!("{:.3}", f(p))).collect();
        v.join(" ")
    };
    format!(
        "passes: {} timed, CPU s [{}], wall s [{}]; by wall: fastest {:.0} ev/s, median {:.0} ev/s, IQR {:.2} %",
        passes.len(),
        secs(|p| p.cpu_ns as f64 / 1e9),
        secs(|p| p.wall_s),
        passes[stats.fastest].eps(events),
        stats.median_eps,
        stats.iqr_pct
    )
}
