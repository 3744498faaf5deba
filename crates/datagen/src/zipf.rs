//! Zipfian sampling.
//!
//! Real bibliographic data is heavily skewed: a few authors write many
//! papers, a few venues host most publications, and popular title terms
//! recur constantly. The generators use a Zipf distribution over their
//! vocabulary so that the produced graphs show the same skew — which is what
//! makes the popularity cost (C2) meaningful.

use rand::Rng;

/// Samples indices `0..n` with probability proportional to `1 / (i + 1)^s`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// Creates a sampler over `n` items with exponent `s` (typically 0.8–1.2).
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "ZipfSampler requires at least one item");
        assert!(s.is_finite(), "Zipf exponent must be finite");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cumulative.push(total);
        }
        Self { cumulative }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the sampler is empty (never true — `new` requires `n > 0`).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draws one index.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "sample() on an empty sampler is a caller bug; is_empty() exists for the check"
        )]
        let total = *self.cumulative.last().expect("sampler is non-empty");
        let x: f64 = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c <= x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_are_in_range() {
        let sampler = ZipfSampler::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(sampler.sample(&mut rng) < 10);
        }
        assert_eq!(sampler.len(), 10);
        assert!(!sampler.is_empty());
    }

    #[test]
    fn low_indices_are_sampled_more_often() {
        let sampler = ZipfSampler::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
    }

    #[test]
    fn exponent_zero_is_roughly_uniform() {
        let sampler = ZipfSampler::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0usize; 4];
        for _ in 0..8000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!(c > 1500, "uniform-ish counts expected, got {counts:?}");
        }
    }

    #[test]
    #[should_panic]
    fn empty_sampler_panics() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    #[test]
    fn sampling_is_deterministic_for_a_seed() {
        let sampler = ZipfSampler::new(50, 1.1);
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let xs: Vec<usize> = (0..100).map(|_| sampler.sample(&mut a)).collect();
        let ys: Vec<usize> = (0..100).map(|_| sampler.sample(&mut b)).collect();
        assert_eq!(xs, ys);
    }
}
