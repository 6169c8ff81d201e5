//! Descriptive statistics: CDFs, histograms, summaries.
//!
//! These are the plotting primitives behind Fig. 2 (daily alert series) and
//! Fig. 3 (similarity CDF, LCS count histogram).

/// An empirical cumulative distribution function over `f64` samples.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from samples (NaNs are dropped).
    pub fn new(mut samples: Vec<f64>) -> Cdf {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs after filter"));
        Cdf { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x`.
    pub fn fraction_le(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), by nearest-rank.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[rank - 1]
    }

    /// Evenly spaced `(x, F(x))` points for plotting.
    pub fn plot_points(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = *self.sorted.last().expect("non-empty");
        (0..=n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / n as f64;
                (x, self.fraction_le(x))
            })
            .collect()
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }
}

/// A fixed-bin histogram over integer categories (e.g. pattern indices).
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
}

impl Histogram {
    pub fn new(bins: usize) -> Histogram {
        Histogram {
            counts: vec![0; bins],
        }
    }

    pub fn add(&mut self, bin: usize) {
        self.counts[bin] += 1;
    }

    pub fn add_n(&mut self, bin: usize, n: u64) {
        self.counts[bin] += n;
    }

    pub fn count(&self, bin: usize) -> u64 {
        self.counts[bin]
    }

    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Bin with the largest count.
    pub fn mode(&self) -> Option<usize> {
        if self.counts.is_empty() {
            return None;
        }
        let mut best = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > self.counts[best] {
                best = i;
            }
        }
        Some(best)
    }
}

/// Mean / standard deviation / extrema of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub std_dev: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Compute from samples. Returns `None` on an empty slice.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &s in samples {
            min = min.min(s);
            max = max.max(s);
        }
        Some(Summary {
            n,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        })
    }

    /// Coefficient of variation (σ/μ) — the dispersion measure behind
    /// Insight 3's "timing variability" distinction.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            return 0.0;
        }
        self.std_dev / self.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_fractions() {
        let c = Cdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.fraction_le(0.5), 0.0);
        assert_eq!(c.fraction_le(2.0), 0.5);
        assert_eq!(c.fraction_le(10.0), 1.0);
        assert_eq!(c.len(), 4);
        assert_eq!(c.min(), Some(1.0));
        assert_eq!(c.max(), Some(4.0));
    }

    #[test]
    fn cdf_quantiles() {
        let c = Cdf::new((1..=100).map(|i| i as f64).collect());
        assert_eq!(c.quantile(0.5), 50.0);
        assert_eq!(c.quantile(0.95), 95.0);
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 100.0);
    }

    #[test]
    fn cdf_handles_nan_and_unsorted() {
        let c = Cdf::new(vec![3.0, f64::NAN, 1.0, 2.0]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.fraction_le(1.5), 1.0 / 3.0);
    }

    #[test]
    fn plot_points_monotone() {
        let c = Cdf::new(vec![0.1, 0.2, 0.33, 0.9, 1.0]);
        let pts = c.plot_points(10);
        assert_eq!(pts.len(), 11);
        for w in pts.windows(2) {
            assert!(w[1].1 >= w[0].1, "CDF must be monotone");
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_counts_and_mode() {
        let mut h = Histogram::new(5);
        h.add(0);
        h.add(2);
        h.add(2);
        h.add_n(4, 10);
        assert_eq!(h.count(2), 2);
        assert_eq!(h.total(), 13);
        assert_eq!(h.mode(), Some(4));
        assert_eq!(h.counts().len(), 5);
    }

    #[test]
    fn summary_moments() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.cv() - 0.4).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }
}
