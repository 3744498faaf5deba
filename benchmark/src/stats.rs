//! Sample collections and the percentile rules the report follows.
//!
//! A timing is reported as a median plus the highest percentile that still
//! has at least [`MIN_BEYOND`] samples beyond it; with fewer, the tail is a
//! handful of outliers and does not repeat between runs.

use std::time::Duration;

/// Samples a percentile must leave beyond itself to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried for a tail, highest first.
const TAIL_LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// One metric's raw observations.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Self {
            values: Vec::with_capacity(n),
            sorted: true,
        }
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Records a duration in milliseconds.
    pub fn push_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The observations in recording order (only valid before any
    /// percentile was taken — percentiles sort in place).
    pub fn raw(&self) -> &[f64] {
        &self.values
    }

    /// Nearest-rank percentile (`q` in `(0, 1]`); 0 for an empty sample.
    pub fn percentile(&mut self, q: f64) -> f64 {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        percentile_of_sorted(&self.values, q)
    }

    pub fn median(&mut self) -> f64 {
        self.percentile(0.50)
    }

    /// The percentile `q` when the sample supports it, otherwise the highest
    /// supported one from the ladder (so a small smoke run never reports a
    /// single outlier as "p95").
    pub fn tail(&mut self, q: f64) -> f64 {
        let q = if supports(self.len(), q) {
            q
        } else {
            highest_supported(self.len())
        };
        self.percentile(q)
    }
}

fn percentile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond percentile `q`.
pub fn supports(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    n.saturating_sub(rank) >= MIN_BEYOND
}

/// The highest ladder percentile `n` samples support (the median when even
/// that is not supported — a median is always reported).
pub fn highest_supported(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&q| supports(n, q))
        .unwrap_or(0.50)
}

/// Timings of requests that each ran twice back to back — once plain, once
/// traced — with the order alternating from request to request.
///
/// Running the two passes one after the other instead would compare two
/// different minutes of a shared host, whose speed drifts by more than any
/// tracing overhead. Back to back, both runs of a pair see the same host;
/// whichever runs second finds warm caches, and alternating the order lets
/// that advantage cancel: the overhead is the geometric mean of the two
/// orders' median `traced / plain` ratios, minus one.
#[derive(Debug, Default)]
pub struct Paired {
    plain_first: Samples,
    traced_first: Samples,
}

impl Paired {
    /// Whether pair `i` runs its traced half first.
    pub fn traced_first(i: usize) -> bool {
        i % 2 == 1
    }

    pub fn push(&mut self, i: usize, plain: Duration, traced: Duration) {
        let ratio = ratio(traced.as_secs_f64(), plain.as_secs_f64());
        if Self::traced_first(i) {
            self.traced_first.push(ratio);
        } else {
            self.plain_first.push(ratio);
        }
    }

    pub fn len(&self) -> usize {
        self.plain_first.len() + self.traced_first.len()
    }

    pub fn overhead_frac(&mut self) -> f64 {
        match (self.plain_first.median(), self.traced_first.median()) {
            (a, b) if a > 0.0 && b > 0.0 => (a * b).sqrt() - 1.0,
            (a, b) => a.max(b) - 1.0,
        }
    }
}

/// `part / whole`, or 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s = Samples::default();
        for v in (1..=100).rev() {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(0.95), 95.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1 000 samples: exactly ten lie beyond p99.
        assert!(supports(1_000, 0.99));
        assert!(!supports(999, 0.99));
        assert_eq!(highest_supported(1_000), 0.99);
        // 250 samples (the smallest workload): p95 leaves 12, p99 leaves 2.
        assert_eq!(highest_supported(250), 0.95);
        assert_eq!(highest_supported(199), 0.90);
        assert_eq!(highest_supported(40), 0.75);
        assert_eq!(highest_supported(20), 0.50);
        assert_eq!(highest_supported(3), 0.50);
    }

    #[test]
    fn paired_overhead_cancels_the_second_runner_s_advantage() {
        let mut paired = Paired::default();
        let ms = Duration::from_millis;
        for i in 0..10 {
            // Tracing costs 10 %; whoever runs second is 20 % faster.
            if Paired::traced_first(i) {
                paired.push(i, ms(800), ms(1_100));
            } else {
                paired.push(i, ms(1_000), ms(880));
            }
        }
        assert_eq!(paired.len(), 10);
        assert!((paired.overhead_frac() - 0.10).abs() < 1e-9);
    }

    #[test]
    fn unsupported_tail_falls_back_down_the_ladder() {
        let mut s = Samples::default();
        for v in 1..=40 {
            s.push(f64::from(v));
        }
        // p95 of 40 samples would leave two beyond: p75 is reported instead.
        assert_eq!(s.tail(0.95), 30.0);
    }
}
