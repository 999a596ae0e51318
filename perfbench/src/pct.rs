//! Timing summaries under the percentile rule: a percentile is reported
//! only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a percentile for it to count.
pub const MIN_BEYOND: usize = 10;

/// The 0-based nearest rank of percentile `q` (in `(0, 1)`) among `n`
/// samples, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn rank(n: usize, q: f64) -> Option<usize> {
    assert!(q > 0.0 && q < 1.0, "percentile rank must lie in (0, 1)");
    if n == 0 {
        return None;
    }
    let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    (n - 1 - idx >= MIN_BEYOND).then_some(idx)
}

/// A set of timings a percentile can be read from.
pub trait Timings {
    fn n(&self) -> usize;
    fn mean(&self) -> f64;
    fn pct(&self, q: f64) -> Option<u64>;
}

/// A sorted sample of timings (ns) with the summaries the report uses.
#[derive(Debug, Default, Clone)]
pub struct Sample {
    sorted: Vec<u64>,
}

impl Sample {
    /// Takes ownership of `values` and sorts them.
    pub fn new(mut values: Vec<u64>) -> Self {
        values.sort_unstable();
        Self { sorted: values }
    }

    /// Sum of the samples (ns).
    pub fn sum(&self) -> u64 {
        self.sorted.iter().sum()
    }
}

impl Timings for Sample {
    fn n(&self) -> usize {
        self.sorted.len()
    }

    fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sum() as f64 / self.n() as f64
        }
    }

    /// Nearest-rank percentile under the rule (see [`rank`]).
    fn pct(&self, q: f64) -> Option<u64> {
        rank(self.n(), q).map(|i| self.sorted[i])
    }
}

/// Sub-buckets per power of two: values are kept to within 1/64 (1.6%).
const SUB: u64 = 64;

/// A log-linear histogram of timings (ns) in constant memory, so a
/// client that completes more requests does not use more memory.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: usize,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; (64 * SUB) as usize],
            n: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Values below `SUB` get a bucket each; above, `v >> shift` keeps
    /// the top 7 bits (64..128), so each power of two spans `SUB` buckets.
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - u64::from(v.leading_zeros()) - 6;
        (shift * SUB + (v >> shift)) as usize
    }

    /// The smallest value that falls in bucket `b`.
    fn floor(b: usize) -> u64 {
        let b = b as u64;
        if b < SUB {
            return b;
        }
        let shift = (b - SUB) / SUB;
        (b - shift * SUB) << shift
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.n += 1;
        self.sum += v;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }
}

impl Timings for Histogram {
    fn n(&self) -> usize {
        self.n
    }

    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Nearest-rank percentile under the rule (see [`rank`]), as the
    /// floor of the bucket holding that rank.
    fn pct(&self, q: f64) -> Option<u64> {
        let idx = rank(self.n, q)? as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > idx {
                return Some(Self::floor(b));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> Sample {
        Sample::new((0..n).collect())
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // Rank 990 of 1000: samples 990..=999 lie beyond it.
        assert_eq!(sample(1000).pct(0.99), Some(989));
        assert_eq!(sample(999).pct(0.99), None);
    }

    #[test]
    fn p95_and_median_boundaries() {
        assert_eq!(sample(200).pct(0.95), Some(189));
        assert_eq!(sample(199).pct(0.95), None);
        assert_eq!(sample(20).pct(0.5), Some(9));
        assert_eq!(sample(19).pct(0.5), None);
    }

    #[test]
    fn empty_sample_reports_nothing() {
        assert_eq!(Sample::default().pct(0.5), None);
        assert_eq!(Sample::default().mean(), 0.0);
        assert_eq!(Histogram::default().pct(0.5), None);
    }

    #[test]
    fn histogram_keeps_values_within_two_percent() {
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 123_456, 9_876_543_210] {
            let f = Histogram::floor(Histogram::bucket(v));
            assert!(f <= v && v - f <= v / 60, "{v} -> {f}");
        }
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let p = h.pct(0.99).expect("1000 samples support p99");
        assert!((970_000..=990_000).contains(&p), "{p}");
        assert_eq!(h.n(), 1000);
        let mut short = Histogram::default();
        for v in 0..999 {
            short.record(v);
        }
        assert_eq!(short.pct(0.99), None);
    }
}
