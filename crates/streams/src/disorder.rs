//! Seeded bounded disorder for the stream generators.
//!
//! Real stream traffic is not timestamp-ordered at the ingest boundary;
//! the generators simulate that hazard with a *bounded* shuffle so the
//! event-time machinery's exactness claim stays checkable: rows are
//! permuted within consecutive blocks of `disorder + 1` rows
//! (Fisher–Yates per block), so **no row is displaced by more than
//! `disorder` positions** — unlike buffer-sampling shuffles, whose tail
//! displacement is probabilistically unbounded. A lateness bound that
//! covers the induced timestamp regression ([`required_lateness`])
//! therefore guarantees the watermark never passes a row before it
//! arrives, and results are exact.
//!
//! `disorder == 0` is the identity: every per-seed event sequence the
//! in-order generators have always produced is preserved bit-for-bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sharon_types::{Event, EventBatch};

/// Permute `events` within consecutive blocks of `disorder + 1` rows
/// using a Fisher–Yates shuffle seeded by `seed`. Displacement is
/// strictly bounded by `disorder` positions; `disorder == 0` is a no-op.
pub fn scramble_events(events: &mut [Event], disorder: u32, seed: u64) {
    if disorder == 0 || events.len() < 2 {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5349_4445_u64.rotate_left(17));
    for block in events.chunks_mut(disorder as usize + 1) {
        for i in (1..block.len()).rev() {
            let j = rng.gen_range(0..=i);
            block.swap(i, j);
        }
    }
}

/// [`scramble_events`] over a columnar batch: rebuilds the batch with the
/// rows block-shuffled. A generation-time convenience, not a hot path.
pub fn scramble_batch(batch: &mut EventBatch, disorder: u32, seed: u64) {
    if disorder == 0 || batch.len() < 2 {
        return;
    }
    let mut events = batch.to_events();
    scramble_events(&mut events, disorder, seed);
    *batch = EventBatch::from_events(&events);
}

/// The smallest lateness bound (in milliseconds) under which every row of
/// the (possibly disordered) batch is admitted by a watermark gate: the
/// maximum regression of the time column behind its running maximum.
/// `0` for an in-order batch.
pub fn required_lateness(batch: &EventBatch) -> u64 {
    let mut max_seen = 0u64;
    let mut worst = 0u64;
    for t in batch.times() {
        let ms = t.millis();
        max_seen = max_seen.max(ms);
        worst = worst.max(max_seen - ms);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharon_types::{EventTypeId, Timestamp, Value};

    fn ordered(n: u64) -> EventBatch {
        let mut b = EventBatch::new();
        for i in 0..n {
            b.push_from(EventTypeId(0), Timestamp(10 * i), [Value::Int(i as i64)]);
        }
        b
    }

    #[test]
    fn zero_disorder_is_identity() {
        let mut b = ordered(50);
        let before = b.clone();
        scramble_batch(&mut b, 0, 7);
        assert_eq!(b, before);
    }

    #[test]
    fn displacement_is_strictly_bounded() {
        for k in [1u32, 3, 16, 64] {
            let mut b = ordered(500);
            scramble_batch(&mut b, k, 42);
            // row identity = its value attribute = original position
            for (pos, row) in (0..b.len()).enumerate() {
                let orig = b.attrs(row)[0].as_i64().unwrap();
                assert!(
                    (pos as i64 - orig).unsigned_abs() <= u64::from(k),
                    "disorder {k}: row {orig} displaced to {pos}"
                );
            }
        }
    }

    #[test]
    fn scramble_is_seeded_and_permutes() {
        let mut a = ordered(200);
        let mut b = ordered(200);
        scramble_batch(&mut a, 8, 1);
        scramble_batch(&mut b, 8, 1);
        assert_eq!(a, b, "same seed, same shuffle");
        let mut c = ordered(200);
        scramble_batch(&mut c, 8, 2);
        assert_ne!(a, c, "different seed, different shuffle");
        assert_ne!(a, ordered(200), "disorder > 0 actually permutes");
        // a permutation: sorted row ids are intact
        let mut ids: Vec<i64> = (0..a.len())
            .map(|r| a.attrs(r)[0].as_i64().unwrap())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..200).collect::<Vec<i64>>());
    }

    #[test]
    fn required_lateness_covers_the_shuffle() {
        let b = ordered(300);
        assert_eq!(required_lateness(&b), 0, "in-order stream needs none");
        for k in [1u32, 5, 32] {
            let mut s = ordered(300);
            scramble_batch(&mut s, k, 9);
            let need = required_lateness(&s);
            // displacement <= k positions, 10 ms apart => regression <= 10k
            assert!(need <= u64::from(k) * 10, "disorder {k} needs {need} ms");
            assert!(need > 0, "disorder {k} must induce real disorder");
        }
    }

    #[test]
    fn empty_and_singleton_batches_are_fine() {
        let mut e = EventBatch::new();
        scramble_batch(&mut e, 8, 3);
        assert!(e.is_empty());
        let mut one = ordered(1);
        scramble_batch(&mut one, 8, 3);
        assert_eq!(one.len(), 1);
    }
}
