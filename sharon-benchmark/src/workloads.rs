//! The four workloads: their constants, streams, query text and churn
//! script. Every constant that shapes a measurement lives in this file.
//!
//! `--seed` seeds the stream generators only. Query text and the churn
//! script are the same for every seed, so two seeds run the same plan
//! over statistically equal streams and their timings are comparable.

use sharon::prelude::*;
use sharon::streams::ecommerce::{self, EcommerceConfig};
use sharon::streams::linear_road::{self, LinearRoadConfig};
use sharon::streams::required_lateness;
use sharon::streams::taxi::{self, TaxiConfig};
use std::collections::HashMap;
use std::ops::Range;
use std::time::Instant;

/// Most rows in one fed batch: the sharded runtime's own flush threshold.
pub const MAX_BATCH_ROWS: usize = 4096;

/// Every workload slides by one second of event time.
pub const SLIDE_MS: u64 = 1000;

/// Displacement bound of the disordered LR stream, in rows.
pub const LR_DISORDER_ROWS: u32 = 64;

/// Which of the four workloads to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Shared stateful aggregation on the sequential engine.
    TxSharedSeq,
    /// Predicate-heavy scan on the sequential engine.
    EcFilterSeq,
    /// Disordered input through the one-shard threaded runtime.
    LrDisorderSharded,
    /// Live attach/detach churn on a session.
    EcChurnSession,
}

impl Kind {
    /// Every workload the rig runs and `BENCHMARK.json` lists.
    pub const ALL: [Kind; 4] = [
        Kind::TxSharedSeq,
        Kind::EcFilterSeq,
        Kind::LrDisorderSharded,
        Kind::EcChurnSession,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::TxSharedSeq => "tx-shared-seq",
            Kind::EcFilterSeq => "ec-filter-seq",
            Kind::LrDisorderSharded => "lr-disorder-sharded",
            Kind::EcChurnSession => "ec-churn-session",
        }
    }

    /// Why the workload exists (one line; `BENCHMARK.json` copies it).
    pub fn why(self) -> &'static str {
        match self {
            Kind::TxSharedSeq => "TX, 14 overlapping length-6 queries over 12 streets under the exact Sharon plan, sequential engine: shared stateful aggregation and window close dominate, scan is trivial",
            Kind::EcFilterSeq => "EC, 24 queries with pairwise-distinct 3-clause predicates, sequential engine: the compiled scan does most of the work, the stateful pass little",
            Kind::LrDisorderSharded => "LR with 64-row disorder and lateness through shards(1): ingest, job ring, router thread, worker ring, reorder gate and merge, where sharing matters little",
            Kind::EcChurnSession => "EC through a SharonSession with 128 scripted attaches/detaches and a drain every slide: sidecars, re-optimization on the feed path, plan hot-swaps",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One scripted churn operation, applied before the given slide is fed.
#[derive(Debug, Clone)]
pub enum ChurnOp {
    /// Attach the query; `oracle_query` is its index in the oracle workload.
    Attach {
        /// Slide index the op precedes.
        before_slide: usize,
        /// Query text.
        text: String,
        /// Index of the equal query in [`Inputs::oracle_queries`].
        oracle_query: usize,
    },
    /// Detach the handle returned by the `attach`-th [`ChurnOp::Attach`].
    Detach {
        /// Slide index the op precedes.
        before_slide: usize,
        /// Which attach (in script order) to undo.
        attach: usize,
    },
}

impl ChurnOp {
    /// Slide index the op precedes.
    pub fn before_slide(&self) -> usize {
        match self {
            ChurnOp::Attach { before_slide, .. } | ChurnOp::Detach { before_slide, .. } => {
                *before_slide
            }
        }
    }
}

/// Everything one run feeds and checks against.
pub struct Inputs {
    /// The workload.
    pub kind: Kind,
    /// Catalog with the stream's event types registered and no query parsed.
    pub catalog: Catalog,
    /// Text of the queries the system under test starts with.
    pub queries: Vec<String>,
    /// Text of the queries the oracle runs: `queries` plus every fresh
    /// query the churn script attaches.
    pub oracle_queries: Vec<String>,
    /// The batches fed to the system under test, in arrival order.
    pub feed: Vec<EventBatch>,
    /// Per slide, the range of `feed` indexes that belong to it.
    pub slides: Vec<Range<usize>>,
    /// The same rows in timestamp order, when `feed` is disordered.
    pub in_order: Option<Vec<EventBatch>>,
    /// Rows in `feed`.
    pub events: usize,
    /// Rows per event type.
    pub counts: HashMap<EventTypeId, u64>,
    /// Event-time span of the stream in seconds.
    pub span_secs: f64,
    /// `SharonBuilder::shards` of the system under test.
    pub shards: usize,
    /// `SharonBuilder::lateness` of the system under test.
    pub lateness: Option<u64>,
    /// Churn script, ordered by slide (empty unless a session workload).
    pub churn: Vec<ChurnOp>,
    /// Wall time of the stream generator call, for `streams.generate_ms`.
    pub generate_ms: f64,
}

impl Inputs {
    /// The batches the oracle reads: the stream in timestamp order.
    pub fn oracle_feed(&self) -> &[EventBatch] {
        self.in_order.as_deref().unwrap_or(&self.feed)
    }

    /// Largest event time in `feed[..end]`: the session's frontier there.
    pub fn frontier_before(&self, end: usize) -> Option<Timestamp> {
        self.feed[..end]
            .iter()
            .filter_map(EventBatch::max_time)
            .max()
    }
}

/// Build the inputs of `kind` from `seed`. `scale` multiplies the stream
/// length: 1.0 is the pinned benchmark size, the self-test uses less.
pub fn build(kind: Kind, seed: u64, scale: f64) -> Inputs {
    match kind {
        Kind::TxSharedSeq => tx_shared_seq(seed, scale),
        Kind::EcFilterSeq => ec_filter_seq(seed, scale),
        Kind::LrDisorderSharded => lr_disorder_sharded(seed, scale),
        Kind::EcChurnSession => ec_churn_session(seed, scale),
    }
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(1)
}

/// splitmix64: the rig's own generator for query offsets, so the query
/// text does not depend on a vendored crate's stream of numbers.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Event type names in registration order (the generators' alphabet).
fn alphabet(catalog: &Catalog) -> Vec<String> {
    catalog.iter().map(|(_, name)| name.to_string()).collect()
}

/// `n` queries whose patterns are contiguous runs of `len` types over the
/// circular alphabet at fixed pseudo-random offsets: overlapping routes,
/// the paper's sharing-rich shape.
fn overlapping_queries(
    alphabet: &[String],
    n: usize,
    len: usize,
    group_by: &str,
    within_s: u64,
    text_seed: u64,
) -> Vec<String> {
    let mut rng = SplitMix(text_seed);
    (0..n)
        .map(|_| {
            let offset = rng.below(alphabet.len());
            let names: Vec<&str> = (0..len)
                .map(|i| alphabet[(offset + i) % alphabet.len()].as_str())
                .collect();
            format!(
                "RETURN COUNT(*) PATTERN SEQ({}) GROUP BY {group_by} WITHIN {within_s} s SLIDE 1 s",
                names.join(", ")
            )
        })
        .collect()
}

/// Cut `stream` into batches of at most [`MAX_BATCH_ROWS`] rows that never
/// span a slide boundary. A row belongs to the slide of the largest event
/// time seen up to it, so a disordered stream is cut by arrival.
pub fn chunk(stream: &EventBatch) -> (Vec<EventBatch>, Vec<Range<usize>>) {
    let mut batches = Vec::new();
    let mut slides = Vec::new();
    let mut slide_first_batch = 0usize;
    let mut lo = 0usize;
    let mut frontier = 0u64;
    let mut slide = None;
    let cut = |lo: usize, hi: usize, batches: &mut Vec<EventBatch>| {
        let mut b = EventBatch::new();
        b.extend_from_range(stream, lo, hi);
        batches.push(b);
    };
    for row in 0..stream.len() {
        frontier = frontier.max(stream.time(row).millis());
        let s = frontier / SLIDE_MS;
        let new_slide = slide.is_some_and(|cur| cur != s);
        if new_slide || row - lo == MAX_BATCH_ROWS {
            cut(lo, row, &mut batches);
            lo = row;
        }
        if new_slide {
            slides.push(slide_first_batch..batches.len());
            slide_first_batch = batches.len();
        }
        slide = Some(s);
    }
    if lo < stream.len() {
        cut(lo, stream.len(), &mut batches);
    }
    slides.push(slide_first_batch..batches.len());
    (batches, slides)
}

fn type_counts(stream: &EventBatch) -> (HashMap<EventTypeId, u64>, f64) {
    let mut counts = HashMap::new();
    for ty in stream.types() {
        *counts.entry(*ty).or_insert(0u64) += 1;
    }
    let span_ms = match (stream.min_time(), stream.max_time()) {
        (Some(a), Some(b)) => b.millis() - a.millis(),
        _ => 0,
    };
    (counts, (span_ms as f64 / 1000.0).max(1e-9))
}

/// Assemble [`Inputs`] for a static (no churn) workload over one stream.
fn static_inputs(
    kind: Kind,
    catalog: Catalog,
    stream: EventBatch,
    in_order: Option<EventBatch>,
    queries: Vec<String>,
    shards: usize,
    generate_ms: f64,
) -> Inputs {
    let (feed, slides) = chunk(&stream);
    let (counts, span_secs) = type_counts(&stream);
    let lateness = in_order.as_ref().map(|_| required_lateness(&stream));
    Inputs {
        kind,
        catalog,
        oracle_queries: queries.clone(),
        queries,
        feed,
        slides,
        in_order: in_order.map(|s| chunk(&s).0),
        events: stream.len(),
        counts,
        span_secs,
        shards,
        lateness,
        churn: Vec::new(),
        generate_ms,
    }
}

// ---------------------------------------------------------------------------
// tx-shared-seq
// ---------------------------------------------------------------------------

/// TX events at scale 1: about 525 slides of 670 rows, a pass of about 1 s.
pub const TX_EVENTS: usize = 350_000;
const TX_STREETS: usize = 12;
const TX_VEHICLES: usize = 50;
const TX_TRIP_LEN: usize = 12;
const TX_QUERIES: usize = 14;
const TX_PATTERN_LEN: usize = 6;
const TX_WITHIN_S: u64 = 20;
const TX_TEXT_SEED: u64 = 4;

fn tx_shared_seq(seed: u64, scale: f64) -> Inputs {
    let mut catalog = Catalog::new();
    let t = Instant::now();
    let stream = taxi::generate_batch(
        &mut catalog,
        &TaxiConfig {
            n_streets: TX_STREETS,
            n_vehicles: TX_VEHICLES,
            trip_len: TX_TRIP_LEN,
            n_events: scaled(TX_EVENTS, scale),
            mean_interarrival_ms: 1,
            skew: 0.0,
            disorder: 0,
            seed,
        },
    );
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    let queries = overlapping_queries(
        &alphabet(&catalog),
        TX_QUERIES,
        TX_PATTERN_LEN,
        "vehicle",
        TX_WITHIN_S,
        TX_TEXT_SEED,
    );
    static_inputs(
        Kind::TxSharedSeq,
        catalog,
        stream,
        None,
        queries,
        0,
        generate_ms,
    )
}

// ---------------------------------------------------------------------------
// ec-filter-seq
// ---------------------------------------------------------------------------

/// EC events of the filter workload at scale 1.
pub const EC_FILTER_EVENTS: usize = 1_000_000;
const EC_FILTER_ITEMS: usize = 12;
const EC_FILTER_CUSTOMERS: usize = 8;
const EC_FILTER_QUERIES: usize = 24;
const EC_RATE: u64 = 3000;

/// 24 queries, each over three consecutive items with one price clause per
/// item. The literals differ per query, so no two queries share a sharing
/// signature and every query is its own routing scope: 24 scans per batch.
/// A scope routes 3 of 12 items (25 % of rows) and its clauses pass about
/// 30 % of those, so about one scanned row in fourteen reaches the stateful
/// pass.
fn ec_filter_queries(items: &[String]) -> Vec<String> {
    (0..EC_FILTER_QUERIES)
        .map(|q| {
            let a = &items[q % items.len()];
            let b = &items[(q + 1) % items.len()];
            let c = &items[(q + 2) % items.len()];
            // price is uniform in 1..500
            let lo = 330 + 2 * q;
            let hi = 170 - 2 * q;
            let lo2 = 335 + q;
            format!(
                "RETURN COUNT(*) PATTERN SEQ({a}, {b}, {c}) \
                 WHERE {a}.price > {lo} AND {b}.price < {hi} AND {c}.price > {lo2} \
                 GROUP BY customer WITHIN 5 s SLIDE 1 s"
            )
        })
        .collect()
}

fn ec_filter_seq(seed: u64, scale: f64) -> Inputs {
    let mut catalog = Catalog::new();
    let t = Instant::now();
    let stream = ecommerce::generate_batch(
        &mut catalog,
        &EcommerceConfig {
            n_items: EC_FILTER_ITEMS,
            n_customers: EC_FILTER_CUSTOMERS,
            events_per_sec: EC_RATE,
            n_events: scaled(EC_FILTER_EVENTS, scale),
            skew: 0.0,
            disorder: 0,
            seed,
        },
    );
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    let queries = ec_filter_queries(&alphabet(&catalog));
    static_inputs(
        Kind::EcFilterSeq,
        catalog,
        stream,
        None,
        queries,
        0,
        generate_ms,
    )
}

// ---------------------------------------------------------------------------
// lr-disorder-sharded
// ---------------------------------------------------------------------------

/// Simulated seconds of the LR stream at scale 1.
pub const LR_DURATION_SECS: u64 = 180;
const LR_SEGMENTS: usize = 12;
const LR_CARS_PER_SEC: f64 = 8.0;
const LR_REPORT_EVERY_MS: u64 = 500;
const LR_TRIP_SEGMENTS: usize = 240;
const LR_QUERIES: usize = 8;
const LR_PATTERN_LEN: usize = 4;
const LR_WITHIN_S: u64 = 10;
const LR_TEXT_SEED: u64 = 0x4c52;

fn lr_config(seed: u64, scale: f64) -> LinearRoadConfig {
    LinearRoadConfig {
        n_segments: LR_SEGMENTS,
        cars_per_sec: LR_CARS_PER_SEC,
        report_every_ms: LR_REPORT_EVERY_MS,
        trip_segments: LR_TRIP_SEGMENTS,
        duration_secs: scaled(LR_DURATION_SECS as usize, scale) as u64,
        skew: 0.0,
        disorder: 0,
        seed,
    }
}

/// The LR query text over `catalog`'s segments.
pub fn lr_queries(catalog: &Catalog) -> Vec<String> {
    overlapping_queries(
        &alphabet(catalog),
        LR_QUERIES,
        LR_PATTERN_LEN,
        "car",
        LR_WITHIN_S,
        LR_TEXT_SEED,
    )
}

/// A short LR stream with Zipf(1.2) car ids, for the router's split and
/// imbalance counts (never timed). Returns its catalog and rows.
pub fn lr_skewed(seed: u64, scale: f64) -> (Catalog, EventBatch) {
    let mut catalog = Catalog::new();
    let config = lr_config(seed, scale * 0.25).with_skew(1.2);
    let stream = linear_road::generate_batch(&mut catalog, &config);
    (catalog, stream)
}

fn lr_disorder_sharded(seed: u64, scale: f64) -> Inputs {
    let config = lr_config(seed, scale);
    let mut catalog = Catalog::new();
    let t = Instant::now();
    let ordered = linear_road::generate_batch(&mut catalog, &config);
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    // the generator scrambles the finished stream last, so the same config
    // with disorder is the same rows in another arrival order
    let disordered = linear_road::generate_batch(
        &mut Catalog::new(),
        &config.clone().with_disorder(LR_DISORDER_ROWS),
    );
    assert_eq!(ordered.len(), disordered.len());
    let queries = lr_queries(&catalog);
    static_inputs(
        Kind::LrDisorderSharded,
        catalog,
        disordered,
        Some(ordered),
        queries,
        1,
        generate_ms,
    )
}

// ---------------------------------------------------------------------------
// ec-churn-session
// ---------------------------------------------------------------------------

/// EC events of the churn workload at scale 1.
pub const EC_CHURN_EVENTS: usize = 540_000;
const EC_CHURN_ITEMS: usize = 16;
/// Groups per query. With a dozen customers the pass peaked at 6.5 MB and
/// the seed moved that by 6 %: every group's tables grow in the same
/// power-of-two steps, and a seed decides which side of a step they end
/// on. Hundreds of groups and a longer stream put 44 MB of result rows
/// under that ±0.6 MB (0.9 % between seeds).
const EC_CHURN_CUSTOMERS: usize = 384;
const EC_CHURN_BASE_QUERIES: usize = 8;
const EC_CHURN_PATTERN_LEN: usize = 3;
const EC_CHURN_WITHIN_S: u64 = 5;
const EC_CHURN_TEXT_SEED: u64 = 0x4543;
/// Relative plan-score drift that re-optimizes the session. The default
/// (0.1) is inside the sampling noise of one-second rate estimates on this
/// stationary stream: it swapped plans on 96 of 120 slides, and the
/// retiring incarnations' threads oversubscribed the two cores (69 % of
/// task time spent on the run queue). At 1.0 the script's own churn is
/// what re-optimizes.
pub const EC_CHURN_DRIFT_THRESHOLD: f64 = 1.0;
/// Attaches in the script; each is detached later, so twice as many ops.
pub const EC_CHURN_ATTACHES: usize = 64;
/// Slides a scripted handle stays attached: longer than the window, so
/// every handle owns at least one complete window.
const EC_CHURN_LIFETIME_SLIDES: usize = 9;

fn ec_churn_session(seed: u64, scale: f64) -> Inputs {
    let mut catalog = Catalog::new();
    let t = Instant::now();
    let stream = ecommerce::generate_batch(
        &mut catalog,
        &EcommerceConfig {
            n_items: EC_CHURN_ITEMS,
            n_customers: EC_CHURN_CUSTOMERS,
            events_per_sec: EC_RATE,
            n_events: scaled(EC_CHURN_EVENTS, scale),
            skew: 0.0,
            disorder: 0,
            seed,
        },
    );
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    let items = alphabet(&catalog);
    let all = overlapping_queries(
        &items,
        EC_CHURN_BASE_QUERIES + EC_CHURN_ATTACHES,
        EC_CHURN_PATTERN_LEN,
        "customer",
        EC_CHURN_WITHIN_S,
        EC_CHURN_TEXT_SEED,
    );
    // distinct texts only: an oracle query is identified by its text
    let mut oracle_queries: Vec<String> = Vec::new();
    for q in &all {
        if !oracle_queries.contains(q) {
            oracle_queries.push(q.clone());
        }
    }
    let queries: Vec<String> = oracle_queries[..EC_CHURN_BASE_QUERIES].to_vec();
    let fresh: Vec<String> = oracle_queries[EC_CHURN_BASE_QUERIES..].to_vec();
    assert!(!fresh.is_empty(), "churn script needs fresh queries");

    let mut inputs = static_inputs(
        Kind::EcChurnSession,
        catalog,
        stream,
        None,
        queries.clone(),
        1,
        generate_ms,
    );
    inputs.oracle_queries = oracle_queries.clone();

    // attaches spread evenly over the stream, alternating a query that
    // equals a base query (alias fast path) with a fresh one (sidecar, then
    // folded in by the next re-optimization); each handle is detached
    // EC_CHURN_LIFETIME_SLIDES later
    let n_slides = inputs.slides.len();
    let last_attach = n_slides.saturating_sub(EC_CHURN_LIFETIME_SLIDES + 2);
    let mut churn = Vec::new();
    for i in 0..EC_CHURN_ATTACHES {
        let before_slide =
            (2 + i * last_attach.saturating_sub(2) / EC_CHURN_ATTACHES).min(n_slides - 1);
        let text = if i % 2 == 0 {
            queries[(i / 2) % queries.len()].clone()
        } else {
            fresh[(i / 2) % fresh.len()].clone()
        };
        let oracle_query = oracle_queries
            .iter()
            .position(|q| *q == text)
            .expect("scripted query is an oracle query");
        churn.push(ChurnOp::Attach {
            before_slide,
            text,
            oracle_query,
        });
        churn.push(ChurnOp::Detach {
            before_slide: (before_slide + EC_CHURN_LIFETIME_SLIDES).min(n_slides - 1),
            attach: i,
        });
    }
    churn.sort_by_key(ChurnOp::before_slide);
    inputs.churn = churn;
    inputs
}
