//! Zipfian sampling for skewed group distributions.
//!
//! Real `GROUP BY` traffic is rarely uniform: taxi trips cluster in hot
//! zones, purchases in flash-sale SKUs. All three stream generators expose
//! a `skew` knob (the Zipf exponent theta) that draws the group dimension
//! (vehicle / customer / car) from this sampler instead of a uniform
//! range, so skewed `GROUP BY` traffic is reachable from the CLI, the
//! benchmark rig, and the property tests.
//!
//! Implemented as a precomputed normalized CDF with binary-search
//! sampling — deterministic, allocation-free per sample, and independent
//! of any external distribution crate (the vendored `rand` stand-in has
//! none).

use rand::{Rng, RngCore};

/// A Zipf(θ) distribution over ranks `0..n`: rank `r` is drawn with
/// probability proportional to `1 / (r + 1)^θ`. `θ = 0` degenerates to
/// uniform; `θ ≈ 1` is classic Zipf; `θ > 1` concentrates hard on the
/// first few ranks.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the distribution over `n` ranks with exponent `theta ≥ 0`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n >= 1, "need at least one rank");
        assert!(
            theta >= 0.0 && theta.is_finite(),
            "theta must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // guard against accumulated rounding at the top end
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always false: the constructor requires at least one rank.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draw one rank in `0..n` (no allocation; one uniform draw plus a
    /// binary search over the CDF).
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn histogram(theta: f64, n: usize, draws: usize) -> Vec<usize> {
        let z = Zipf::new(n, theta);
        let mut rng = StdRng::seed_from_u64(99);
        let mut h = vec![0usize; n];
        for _ in 0..draws {
            h[z.sample(&mut rng)] += 1;
        }
        h
    }

    #[test]
    fn theta_zero_is_uniform() {
        let h = histogram(0.0, 10, 50_000);
        let (min, max) = (h.iter().min().unwrap(), h.iter().max().unwrap());
        assert!(
            (*max as f64) < (*min as f64) * 1.25,
            "uniform within sampling noise: {h:?}"
        );
    }

    #[test]
    fn high_theta_concentrates_on_the_head() {
        let h = histogram(1.2, 100, 50_000);
        let head = h[0] as f64 / 50_000.0;
        assert!(head > 0.2, "rank 0 carries >20% at theta=1.2, got {head}");
        assert!(h[0] > h[1] && h[1] > h[5], "monotone head: {h:?}");
        // every rank remains reachable in principle (CDF covers them)
        assert_eq!(Zipf::new(100, 1.2).len(), 100);
    }

    #[test]
    fn samples_stay_in_range_and_deterministic() {
        let z = Zipf::new(7, 0.8);
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let x = z.sample(&mut a);
            assert!(x < 7);
            assert_eq!(x, z.sample(&mut b), "seeded sampling is deterministic");
        }
    }
}
