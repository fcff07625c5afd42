//! Order statistics and the seeded generator behind every schedule.

/// Nearest-rank quantile of an ascending slice: the smallest sample
/// with at least a `q` share of the samples at or below it. `q` is
/// clamped to `[0, 1]`; an empty slice yields `None`.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted.get(rank.clamp(1, n) - 1).copied()
}

/// Sorts a copy of `values` ascending (NaN-free input assumed; a NaN
/// sorts last under `total_cmp`).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile of unsorted `values`; NaN when empty (the
/// report refuses non-finite values, so an empty sample cannot pass
/// unnoticed).
pub fn pct(values: &[f64], q: f64) -> f64 {
    quantile(&sorted(values), q).unwrap_or(f64::NAN)
}

/// SplitMix64: a small, fast, seedable generator. The benchmark owns
/// its inputs, so it carries its own generator rather than depending on
/// any program crate's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two
    /// schedules drawn from one seed do not mirror each other.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(5.0));
        assert_eq!(quantile(&v, 0.9), Some(9.0));
        assert_eq!(quantile(&v, 0.91), Some(10.0));
        assert_eq!(quantile(&v, 0.99), Some(10.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(10.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        // p99 of 1000 samples leaves exactly ten samples above it.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&thousand, 0.99), Some(990.0));
        assert_eq!(quantile(&sorted(&[3.0, 1.0, 2.0, 4.0]), 0.5), Some(2.0));
    }

    #[test]
    fn generator_is_deterministic_per_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        let mut r = Rng::new(9, 3);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!((3..=5).contains(&r.range(3, 5)));
            assert!(r.exp(2.0) >= 0.0);
        }
    }
}
