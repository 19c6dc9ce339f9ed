//! The **EC** stream: e-commerce purchase events.
//!
//! "Our stream generator creates sequences of items bought together for 3
//! hours. Each event carries a time stamp in seconds, item and customer
//! identifiers. We consider 50 items and 20 users. The values of item and
//! customer identifiers of an event are randomly generated. The stream
//! rate is 3k events per second" (Section 8.1). Event type = item.

use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sharon_types::{Catalog, Event, EventBatch, EventTypeId, Schema, Timestamp, Value};

/// Configuration for the e-commerce generator.
#[derive(Debug, Clone)]
pub struct EcommerceConfig {
    /// Number of distinct items (event types). Paper: 50.
    pub n_items: usize,
    /// Number of customers. Paper: 20.
    pub n_customers: usize,
    /// Events per second. Paper: 3000.
    pub events_per_sec: u64,
    /// Total events to generate.
    pub n_events: usize,
    /// Zipf exponent of the customer distribution (`0.0` = uniform, the
    /// paper's spec; `> 0` concentrates purchases on a few hot customers,
    /// the flash-sale shape).
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

impl Default for EcommerceConfig {
    fn default() -> Self {
        EcommerceConfig {
            n_items: 50,
            n_customers: 20,
            events_per_sec: 3000,
            n_events: 100_000,
            skew: 0.0,
            disorder: 0,
            seed: 23,
        }
    }
}

impl EcommerceConfig {
    /// Set the Zipf exponent of the customer distribution.
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

/// The item name for index `i` — the first few match the paper's purchase
/// monitoring example (Figure 2) so q8–q11 bind directly.
pub fn item_name(i: usize) -> String {
    const NAMED: [&str; 6] = [
        "Laptop",
        "Case",
        "Adapter",
        "KeyboardProtector",
        "iPhone",
        "ScreenProtector",
    ];
    match NAMED.get(i) {
        Some(n) => (*n).to_string(),
        None => format!("Item{i}"),
    }
}

/// Register the item types with `customer` and `price` attributes.
pub fn register_items(catalog: &mut Catalog, n_items: usize) -> Vec<EventTypeId> {
    (0..n_items)
        .map(|i| catalog.register_with_schema(&item_name(i), Schema::new(["customer", "price"])))
        .collect()
}

/// Generate the EC stream as a columnar [`EventBatch`]: uniformly random
/// item/customer purchases at the configured rate.
pub fn generate_batch(catalog: &mut Catalog, config: &EcommerceConfig) -> EventBatch {
    assert!(config.n_items >= 1 && config.n_customers >= 1 && config.events_per_sec >= 1);
    let items = register_items(catalog, config.n_items);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut events = EventBatch::with_capacity(config.n_events, 2);
    // spread events uniformly: interarrival = 1000 / rate ms (fractional
    // accumulation keeps the long-run rate exact)
    let step = 1000.0 / config.events_per_sec as f64;
    // skew > 0: customers are drawn Zipf(theta) so a few buy hot (the
    // uniform branch keeps the historical per-seed event sequence intact)
    let zipf = (config.skew > 0.0).then(|| Zipf::new(config.n_customers, config.skew));
    let mut clock = 0.0f64;
    for _ in 0..config.n_events {
        clock += step;
        let item = items[rng.gen_range(0..config.n_items)];
        let customer = match &zipf {
            Some(z) => z.sample(&mut rng) as i64,
            None => rng.gen_range(0..config.n_customers) as i64,
        };
        let price: f64 = rng.gen_range(1.0..500.0);
        events.push_from(
            item,
            Timestamp(clock as u64),
            [Value::Int(customer), Value::Float(price)],
        );
    }
    // bounded disorder last, over the finished stream: a no-op at 0, so
    // every historical per-seed sequence is preserved bit-for-bit
    crate::disorder::scramble_batch(&mut events, config.disorder, config.seed);
    events
}

/// Generate the EC stream as row-form events (compatibility shim over
/// [`generate_batch`]).
pub fn generate(catalog: &mut Catalog, config: &EcommerceConfig) -> Vec<Event> {
    generate_batch(catalog, config).to_events()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_configured_rate() {
        let cfg = EcommerceConfig {
            n_events: 30_000,
            events_per_sec: 3000,
            ..Default::default()
        };
        let mut c = Catalog::new();
        let events = generate(&mut c, &cfg);
        let span_secs = events.last().unwrap().time.millis() as f64 / 1000.0;
        let rate = events.len() as f64 / span_secs;
        assert!((rate - 3000.0).abs() < 60.0, "rate {rate:.0} != 3000");
    }

    #[test]
    fn paper_item_names() {
        let mut c = Catalog::new();
        register_items(&mut c, 10);
        assert!(c.lookup("Laptop").is_some());
        assert!(c.lookup("Case").is_some());
        assert!(c.lookup("Item9").is_some());
        assert!(c
            .schema(c.lookup("Laptop").unwrap())
            .attr("price")
            .is_some());
    }

    #[test]
    fn deterministic_and_ordered() {
        let cfg = EcommerceConfig {
            n_events: 5000,
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
    fn skew_concentrates_customers() {
        let cfg = EcommerceConfig {
            n_events: 20_000,
            ..Default::default()
        }
        .with_skew(1.2);
        let mut c = Catalog::new();
        let events = generate(&mut c, &cfg);
        let mut counts = std::collections::HashMap::new();
        for e in &events {
            *counts.entry(e.attrs[0].as_i64().unwrap()).or_insert(0usize) += 1;
        }
        let max = *counts.values().max().unwrap();
        assert!(
            max * 4 > events.len(),
            "a hot customer carries >25% of purchases: {max} of {}",
            events.len()
        );
    }

    #[test]
    fn disorder_is_bounded_and_zero_events_are_fine() {
        let base = EcommerceConfig {
            n_events: 3000,
            ..Default::default()
        };
        let mut c = Catalog::new();
        let ordered = generate_batch(&mut c, &base);
        let mut c = Catalog::new();
        let shuffled = generate_batch(&mut c, &base.clone().with_disorder(32));
        assert_ne!(ordered, shuffled, "disorder permutes the stream");
        let need = crate::disorder::required_lateness(&shuffled);
        assert!(need > 0, "the shuffle induced real disorder");
        // displacement <= 32 positions at 3000 ev/s => < 32 ms regression
        assert!(need <= 32, "lateness bound {need} exceeds the block bound");

        // zero-event config: empty stream, no panic, disorder or not
        let empty = EcommerceConfig {
            n_events: 0,
            ..base.with_disorder(8)
        };
        let mut c = Catalog::new();
        assert!(generate_batch(&mut c, &empty).is_empty());
        assert!(generate(
            &mut c,
            &EcommerceConfig {
                n_events: 0,
                ..Default::default()
            }
        )
        .is_empty());
    }

    #[test]
    fn covers_all_items_and_customers() {
        let cfg = EcommerceConfig {
            n_events: 20_000,
            ..Default::default()
        };
        let mut c = Catalog::new();
        let events = generate(&mut c, &cfg);
        let types: std::collections::BTreeSet<u32> = events.iter().map(|e| e.ty.0).collect();
        assert_eq!(types.len(), 50);
        let customers: std::collections::BTreeSet<i64> =
            events.iter().filter_map(|e| e.attrs[0].as_i64()).collect();
        assert_eq!(customers.len(), 20);
    }
}
