//! The **TX** stream: vehicle position reports over a street grid.
//!
//! The paper evaluates on 1.3 billion real NYC taxi/Uber trips; we
//! synthesize the equivalent *shape*: each vehicle repeatedly drives a
//! trip — a contiguous run of streets on a circular boulevard — emitting
//! one position report per street. Event type = street; each report
//! carries the vehicle id (the paper's `[vehicle]` predicate / `GROUP BY
//! vehicle`) and a speed attribute for the numeric aggregates.

use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sharon_types::{Catalog, Event, EventBatch, EventTypeId, Schema, Timestamp, Value};

/// Configuration for the taxi stream generator.
#[derive(Debug, Clone)]
pub struct TaxiConfig {
    /// Number of distinct streets (event types).
    pub n_streets: usize,
    /// Number of vehicles driving concurrently.
    pub n_vehicles: usize,
    /// Streets visited per trip.
    pub trip_len: usize,
    /// Total events to generate.
    pub n_events: usize,
    /// Average event arrival interval in milliseconds.
    pub mean_interarrival_ms: u64,
    /// Zipf exponent of the vehicle distribution (`0.0` = uniform, the
    /// historical behaviour; `1.2` pins a few hot vehicles — a skewed
    /// `GROUP BY`).
    pub skew: f64,
    /// Bounded-disorder knob: permute the finished stream within blocks
    /// of `disorder + 1` rows ([`crate::disorder::scramble_batch`]), so no
    /// row is displaced by more than `disorder` positions. `0` keeps the
    /// stream in timestamp order (the historical per-seed sequence,
    /// bit-for-bit).
    pub disorder: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TaxiConfig {
    fn default() -> Self {
        TaxiConfig {
            n_streets: 12,
            n_vehicles: 50,
            trip_len: 6,
            n_events: 100_000,
            mean_interarrival_ms: 3,
            skew: 0.0,
            disorder: 0,
            seed: 7,
        }
    }
}

impl TaxiConfig {
    /// A high-group-cardinality variant: many concurrent vehicles, so
    /// `GROUP BY vehicle` state spreads over many independent partitions.
    /// This is the shape the sharded runtime is built for — used by the
    /// sharded determinism tests and the work-count exactness test.
    pub fn high_cardinality(n_events: usize, n_vehicles: usize) -> Self {
        TaxiConfig {
            n_streets: 7,
            n_vehicles,
            trip_len: 5,
            n_events,
            mean_interarrival_ms: 1,
            skew: 0.0,
            disorder: 0,
            seed: 7,
        }
    }

    /// Set the Zipf exponent of the vehicle distribution.
    pub fn with_skew(mut self, theta: f64) -> Self {
        self.skew = theta;
        self
    }

    /// Set the bounded-disorder displacement bound.
    pub fn with_disorder(mut self, disorder: u32) -> Self {
        self.disorder = disorder;
        self
    }
}

/// The street name for index `i` — the first few match the paper's
/// running example so workloads like q1–q7 of Figure 1 bind to this
/// stream directly.
pub fn street_name(i: usize) -> String {
    const NAMED: [&str; 7] = [
        "OakSt", "MainSt", "StateSt", "ParkAve", "WestSt", "ElmSt", "BroadSt",
    ];
    match NAMED.get(i) {
        Some(n) => (*n).to_string(),
        None => format!("St{i}"),
    }
}

/// Register the street types (with `vehicle` and `speed` attributes) and
/// return their ids in street order.
pub fn register_streets(catalog: &mut Catalog, n_streets: usize) -> Vec<EventTypeId> {
    (0..n_streets)
        .map(|i| catalog.register_with_schema(&street_name(i), Schema::new(["vehicle", "speed"])))
        .collect()
}

/// Generate the TX stream as a columnar [`EventBatch`] — the native form
/// for the executors' batch hot path.
pub fn generate_batch(catalog: &mut Catalog, config: &TaxiConfig) -> EventBatch {
    assert!(config.n_streets >= 2 && config.trip_len >= 1);
    let streets = register_streets(catalog, config.n_streets);
    let mut rng = StdRng::seed_from_u64(config.seed);

    // per-vehicle trip state: (route offset, position within trip)
    let mut vehicles: Vec<(usize, usize)> = (0..config.n_vehicles)
        .map(|_| (rng.gen_range(0..config.n_streets), 0))
        .collect();

    // skew > 0: vehicles are drawn Zipf(theta) so a few run hot (the
    // uniform branch keeps the historical per-seed event sequence intact)
    let zipf = (config.skew > 0.0).then(|| Zipf::new(config.n_vehicles, config.skew));

    let mut events = EventBatch::with_capacity(config.n_events, 2);
    let mut now = 0u64;
    for _ in 0..config.n_events {
        now += rng.gen_range(1..=config.mean_interarrival_ms.max(1) * 2);
        let v = match &zipf {
            Some(z) => z.sample(&mut rng),
            None => rng.gen_range(0..config.n_vehicles),
        };
        let (offset, pos) = vehicles[v];
        let street = streets[(offset + pos) % config.n_streets];
        let speed: f64 = rng.gen_range(5.0..70.0);
        events.push_from(
            street,
            Timestamp(now),
            [Value::Int(v as i64), Value::Float(speed)],
        );
        // advance the trip; start a fresh route when done
        vehicles[v] = if pos + 1 >= config.trip_len {
            (rng.gen_range(0..config.n_streets), 0)
        } else {
            (offset, pos + 1)
        };
    }
    // bounded disorder last, over the finished stream: a no-op at 0, so
    // every historical per-seed sequence is preserved bit-for-bit
    crate::disorder::scramble_batch(&mut events, config.disorder, config.seed);
    events
}

/// Generate the TX stream as row-form events (compatibility shim over
/// [`generate_batch`]).
pub fn generate(catalog: &mut Catalog, config: &TaxiConfig) -> Vec<Event> {
    generate_batch(catalog, config).to_events()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_time_ordered() {
        let cfg = TaxiConfig {
            n_events: 1000,
            ..Default::default()
        };
        let mut c1 = Catalog::new();
        let e1 = generate(&mut c1, &cfg);
        let mut c2 = Catalog::new();
        let e2 = generate(&mut c2, &cfg);
        assert_eq!(e1, e2, "seeded generation is deterministic");
        assert!(e1.windows(2).all(|w| w[0].time <= w[1].time));
        assert_eq!(e1.len(), 1000);
    }

    #[test]
    fn paper_street_names_come_first() {
        let mut c = Catalog::new();
        register_streets(&mut c, 8);
        assert!(c.lookup("OakSt").is_some());
        assert!(c.lookup("MainSt").is_some());
        assert!(c.lookup("St7").is_some());
    }

    #[test]
    fn vehicles_drive_contiguous_routes() {
        let cfg = TaxiConfig {
            n_streets: 10,
            n_vehicles: 1,
            trip_len: 4,
            n_events: 8,
            mean_interarrival_ms: 5,
            seed: 3,
            ..Default::default()
        };
        let mut c = Catalog::new();
        let events = generate(&mut c, &cfg);
        // single vehicle: consecutive reports walk consecutive streets
        // (mod wrap) within each trip of 4
        let idx: Vec<u32> = events.iter().map(|e| e.ty.0).collect();
        for trip in idx.chunks(4) {
            for w in trip.windows(2) {
                assert_eq!((w[0] + 1) % 10, w[1] % 10, "route is contiguous");
            }
        }
    }

    #[test]
    fn skew_concentrates_vehicles() {
        let base = TaxiConfig {
            n_events: 20_000,
            n_vehicles: 100,
            ..Default::default()
        };
        let mut c = Catalog::new();
        let uniform = generate(&mut c, &base);
        let mut c = Catalog::new();
        let skewed = generate(&mut c, &base.clone().with_skew(1.2));

        let hottest = |events: &[Event]| -> usize {
            let mut counts = std::collections::HashMap::new();
            for e in events {
                *counts.entry(e.attrs[0].as_i64().unwrap()).or_insert(0usize) += 1;
            }
            *counts.values().max().unwrap()
        };
        let (u, s) = (hottest(&uniform), hottest(&skewed));
        assert!(
            s > u * 10,
            "theta=1.2 must pin a hot vehicle: uniform max {u}, skewed max {s}"
        );
        // the skewed stream is still deterministic and time-ordered
        assert!(skewed.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn disorder_is_bounded_and_zero_events_are_fine() {
        let base = TaxiConfig {
            n_events: 2000,
            ..Default::default()
        };
        let mut c = Catalog::new();
        let ordered = generate_batch(&mut c, &base);
        let mut c = Catalog::new();
        let shuffled = generate_batch(&mut c, &base.clone().with_disorder(16));
        assert_ne!(ordered, shuffled, "disorder permutes the stream");
        let mut sorted = shuffled.to_events();
        sorted.sort_by_key(|e| e.time);
        let mut reference = ordered.to_events();
        reference.sort_by_key(|e| e.time);
        assert_eq!(sorted, reference, "disorder is a permutation");
        let need = crate::disorder::required_lateness(&shuffled);
        assert!(need > 0, "the shuffle induced real disorder");
        // displacement <= 16 positions, interarrival <= 6 ms
        assert!(
            need <= 16 * 6,
            "lateness bound {need} exceeds the block bound"
        );

        // zero-event config: empty stream, no panic, disorder or not
        let empty = TaxiConfig {
            n_events: 0,
            ..base.with_disorder(8)
        };
        let mut c = Catalog::new();
        assert!(generate_batch(&mut c, &empty).is_empty());
    }

    #[test]
    fn events_carry_vehicle_and_speed() {
        let mut c = Catalog::new();
        let events = generate(
            &mut c,
            &TaxiConfig {
                n_events: 10,
                ..Default::default()
            },
        );
        for e in &events {
            assert!(matches!(e.attrs[0], Value::Int(_)));
            assert!(matches!(e.attrs[1], Value::Float(_)));
        }
    }
}
