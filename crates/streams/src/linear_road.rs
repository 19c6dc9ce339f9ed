//! The **LR** stream: Linear Road-style position reports with ramping
//! rate.
//!
//! The paper uses the Linear Road benchmark's traffic simulator, whose
//! defining property for these experiments is that "event rate gradually
//! increases from few dozens to 4k events per second" (Section 8.1) as
//! cars enter the expressway. We reproduce that: cars join at a constant
//! admission rate, drive through consecutive road segments, and emit one
//! position report per segment; the instantaneous event rate therefore
//! ramps with the live-car population.

use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sharon_types::{Catalog, Event, EventBatch, EventTypeId, Schema, Timestamp, Value};

/// Configuration for the Linear Road-style generator.
#[derive(Debug, Clone)]
pub struct LinearRoadConfig {
    /// Number of expressway segments (event types `Seg0..`).
    pub n_segments: usize,
    /// Cars entering the road per simulated second.
    pub cars_per_sec: f64,
    /// Milliseconds between consecutive reports of one car.
    pub report_every_ms: u64,
    /// Segments a car traverses before leaving.
    pub trip_segments: usize,
    /// Simulated duration in seconds.
    pub duration_secs: u64,
    /// Zipf exponent of the car-id distribution (`0.0` = every admitted
    /// car gets a fresh id, the historical behaviour). With `skew > 0`,
    /// admitted cars draw their reported id Zipf(theta) from a fixed id
    /// space, so the `GROUP BY car` groups are skewed — several physical
    /// cars report as the same hot id, the fleet-vehicle shape.
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

impl Default for LinearRoadConfig {
    fn default() -> Self {
        LinearRoadConfig {
            n_segments: 12,
            cars_per_sec: 4.0,
            report_every_ms: 500,
            // long trips keep the car population (and thus the event rate)
            // growing through the whole run — Linear Road's ramp-up
            trip_segments: 240,
            duration_secs: 120,
            skew: 0.0,
            disorder: 0,
            seed: 11,
        }
    }
}

impl LinearRoadConfig {
    /// Set the Zipf exponent of the car-id distribution.
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

/// Register the segment types with `car` / `speed` / `pos` attributes.
pub fn register_segments(catalog: &mut Catalog, n_segments: usize) -> Vec<EventTypeId> {
    (0..n_segments)
        .map(|i| {
            catalog.register_with_schema(&format!("Seg{i}"), Schema::new(["car", "speed", "pos"]))
        })
        .collect()
}

/// Generate the LR stream as a columnar [`EventBatch`]. Events are
/// time-ordered by construction (the discrete-event loop below only emits
/// reports stamped with the current simulated millisecond); the per-second
/// event rate grows with the admitted-car population until trips start
/// completing, mirroring Linear Road's ramp-up.
pub fn generate_batch(catalog: &mut Catalog, config: &LinearRoadConfig) -> EventBatch {
    assert!(config.n_segments >= 1 && config.trip_segments >= 1);
    let segments = register_segments(catalog, config.n_segments);
    let mut rng = StdRng::seed_from_u64(config.seed);

    struct Car {
        id: i64,
        entry_segment: usize,
        reports_sent: usize,
        next_report: u64,
    }
    let mut cars: Vec<Car> = Vec::new();
    let mut next_car_id = 0i64;
    let mut events = EventBatch::new();
    let end = config.duration_secs * 1000;
    let admit_every = (1000.0 / config.cars_per_sec).max(1.0) as u64;
    let mut next_admission = admit_every;
    // skew > 0: admitted cars draw their reported id Zipf(theta) from the
    // expected-admissions id space (the uniform branch keeps the
    // historical fresh-id-per-car sequence intact)
    let zipf = (config.skew > 0.0).then(|| {
        let id_space = ((end / admit_every) as usize).max(1);
        Zipf::new(id_space, config.skew)
    });

    // simple discrete-event loop over milliseconds of simulated time
    let mut now = 0u64;
    while now < end {
        // admit new cars (the ramp: more cars => higher report rate)
        if now >= next_admission {
            let id = match &zipf {
                Some(z) => z.sample(&mut rng) as i64,
                None => next_car_id,
            };
            cars.push(Car {
                id,
                entry_segment: rng.gen_range(0..config.n_segments),
                reports_sent: 0,
                next_report: now + rng.gen_range(0..config.report_every_ms.max(1)),
            });
            next_car_id += 1;
            next_admission += admit_every;
        }
        // emit due reports
        for car in &mut cars {
            if car.next_report <= now && car.reports_sent < config.trip_segments {
                let seg = segments[(car.entry_segment + car.reports_sent) % config.n_segments];
                let speed: f64 = rng.gen_range(30.0..100.0);
                let pos: f64 = rng.gen_range(0.0..5280.0);
                events.push_from(
                    seg,
                    Timestamp(now),
                    [Value::Int(car.id), Value::Float(speed), Value::Float(pos)],
                );
                car.reports_sent += 1;
                car.next_report = now + config.report_every_ms;
            }
        }
        cars.retain(|c| c.reports_sent < config.trip_segments);
        now += 1;
    }
    // bounded disorder last, over the finished stream: a no-op at 0, so
    // every historical per-seed sequence is preserved bit-for-bit
    crate::disorder::scramble_batch(&mut events, config.disorder, config.seed);
    events
}

/// Generate the LR stream as row-form events (compatibility shim over
/// [`generate_batch`]).
pub fn generate(catalog: &mut Catalog, config: &LinearRoadConfig) -> Vec<Event> {
    generate_batch(catalog, config).to_events()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Events per second over the first and last quarter of the stream,
    /// the instrument of the ramping-rate property. A zero-event stream
    /// (e.g. a `duration_secs: 0` config) reports `(0.0, 0.0)` instead
    /// of panicking.
    fn rate_ramp(events: &[Event]) -> (f64, f64) {
        let Some(last) = events.last() else {
            return (0.0, 0.0);
        };
        let end = last.time.millis();
        let q = end / 4;
        let first = events.iter().filter(|e| e.time.millis() < q).count();
        let last = events.iter().filter(|e| e.time.millis() >= end - q).count();
        let qsecs = (q as f64 / 1000.0).max(1e-9);
        (first as f64 / qsecs, last as f64 / qsecs)
    }

    #[test]
    fn rate_ramps_up() {
        let mut c = Catalog::new();
        let cfg = LinearRoadConfig {
            duration_secs: 60,
            cars_per_sec: 3.0,
            trip_segments: 200,
            ..Default::default()
        };
        let events = generate(&mut c, &cfg);
        assert!(!events.is_empty());
        let (early, late) = rate_ramp(&events);
        assert!(
            late > early * 1.2,
            "rate should ramp: early {early:.1} ev/s, late {late:.1} ev/s"
        );
    }

    #[test]
    fn time_ordered_and_deterministic() {
        let cfg = LinearRoadConfig {
            duration_secs: 20,
            trip_segments: 60,
            ..Default::default()
        };
        let mut c1 = Catalog::new();
        let e1 = generate(&mut c1, &cfg);
        let mut c2 = Catalog::new();
        let e2 = generate(&mut c2, &cfg);
        assert_eq!(e1, e2);
        assert!(e1.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn skew_concentrates_car_ids() {
        let base = LinearRoadConfig {
            duration_secs: 60,
            cars_per_sec: 4.0,
            trip_segments: 40,
            ..Default::default()
        };
        let mut c = Catalog::new();
        let skewed = generate(&mut c, &base.with_skew(1.2));
        assert!(!skewed.is_empty());
        let mut counts = std::collections::HashMap::new();
        for e in &skewed {
            *counts.entry(e.attrs[0].as_i64().unwrap()).or_insert(0usize) += 1;
        }
        let max = *counts.values().max().unwrap();
        assert!(
            max * 4 > skewed.len(),
            "a hot car id carries >25% of reports: max {max} of {}",
            skewed.len()
        );
        assert!(skewed.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn zero_event_config_is_graceful() {
        // duration 0 admits no cars: the stream is empty and every helper
        // copes — rate_ramp used to be the panic site
        let cfg = LinearRoadConfig {
            duration_secs: 0,
            ..Default::default()
        };
        let mut c = Catalog::new();
        let events = generate(&mut c, &cfg);
        assert!(events.is_empty());
        assert_eq!(rate_ramp(&events), (0.0, 0.0));
        let mut c = Catalog::new();
        assert!(generate_batch(&mut c, &cfg.with_disorder(8)).is_empty());
    }

    #[test]
    fn disorder_is_bounded() {
        let base = LinearRoadConfig {
            duration_secs: 20,
            trip_segments: 60,
            ..Default::default()
        };
        let mut c = Catalog::new();
        let ordered = generate_batch(&mut c, &base);
        let mut c = Catalog::new();
        let shuffled = generate_batch(&mut c, &base.with_disorder(16));
        assert_ne!(ordered, shuffled, "disorder permutes the stream");
        let need = crate::disorder::required_lateness(&shuffled);
        assert!(need > 0, "the shuffle induced real disorder");
        // equal-timestamp rows exist in LR, so compare as multisets via a
        // full composite key rather than a stable time-only sort
        let key = |e: &Event| (e.time, e.ty.0, format!("{:?}", e.attrs));
        let mut sorted = shuffled.to_events();
        sorted.sort_by_key(&key);
        let mut reference = ordered.to_events();
        reference.sort_by_key(&key);
        assert_eq!(sorted, reference, "disorder is a permutation");
    }

    #[test]
    fn cars_traverse_consecutive_segments() {
        let cfg = LinearRoadConfig {
            n_segments: 6,
            cars_per_sec: 0.5,
            trip_segments: 4,
            duration_secs: 30,
            ..Default::default()
        };
        let mut c = Catalog::new();
        let events = generate(&mut c, &cfg);
        // follow car 0: its reports walk consecutive segments (mod wrap)
        let car0: Vec<u32> = events
            .iter()
            .filter(|e| e.attrs[0] == Value::Int(0))
            .map(|e| e.ty.0)
            .collect();
        assert_eq!(car0.len(), 4);
        for w in car0.windows(2) {
            assert_eq!((w[0] + 1) % 6, w[1] % 6);
        }
    }
}
