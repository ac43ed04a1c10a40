//! Statistics toolkit shared by all experiment code: summaries, percentiles,
//! empirical CDFs, histograms, and correlation — everything needed to emit
//! the paper's tables and figures.

use serde::Serialize;

/// Running summary (count / mean / variance via Welford, min / max).
#[derive(Clone, Debug, Default, Serialize)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Add every value in an iterator.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.add(x);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (+inf if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (-inf if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// An empirical CDF over a finite sample, as used for every "CDF of loss
/// rate over worst 5-second period" figure in the paper.
#[derive(Clone, Debug, Serialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from a sample (NaNs are rejected with a panic: a NaN in a loss
    /// rate means a bug upstream, not a data point).
    pub fn new(mut sample: Vec<f64>) -> Self {
        assert!(sample.iter().all(|x| !x.is_nan()), "ECDF sample contains NaN");
        sample.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Ecdf { sorted: sample }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` if the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of the sample ≤ `x`.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|v| *v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`q` in `[0,1]`) using nearest-rank on the sorted
    /// sample. `quantile(0.9)` is the paper's "90th %ile".
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        assert!(!self.sorted.is_empty(), "quantile of empty sample");
        let n = self.sorted.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    /// The underlying sorted sample.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// Evaluate the CDF on a fixed grid of `points` x-values spanning
    /// `[lo, hi]` — the series plotted in the paper's figures.
    pub fn series(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2 && hi > lo);
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.at(x))
            })
            .collect()
    }
}

/// The `q`-quantile (`q` in `[0,1]`) of an *unsorted* sample, in place and
/// without allocating: nearest-rank selection via `select_nth_unstable`.
///
/// Returns exactly the value [`Ecdf::quantile`] would return after
/// `Ecdf::new(xs.to_vec())` — the nearest-rank index is computed the same
/// way — but in O(n) and reusing the caller's buffer instead of building
/// a sorted [`Ecdf`] per quantile. The slice is reordered (partially sorted
/// around the selected rank); NaNs panic, as in [`Ecdf::new`].
pub fn quantile_unsorted(xs: &mut [f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    assert!(!xs.is_empty(), "quantile of empty sample");
    assert!(xs.iter().all(|x| !x.is_nan()), "quantile sample contains NaN");
    let n = xs.len();
    let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    *xs.select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).unwrap()).1
}

/// Integer-bucketed histogram, e.g. the paper's burst-length distributions
/// (Figures 5 and 9) with buckets 1..=10 and ">10".
#[derive(Clone, Debug, Serialize)]
pub struct BucketHistogram {
    /// Counts for values `1..=max_bucket`.
    counts: Vec<u64>,
    /// Count of values strictly greater than `max_bucket`.
    overflow: u64,
    max_bucket: usize,
    total_weight: u64,
}

impl BucketHistogram {
    /// Histogram with explicit buckets `1..=max_bucket` plus an overflow
    /// bucket (">max_bucket").
    pub fn new(max_bucket: usize) -> Self {
        assert!(max_bucket >= 1);
        BucketHistogram { counts: vec![0; max_bucket], overflow: 0, max_bucket, total_weight: 0 }
    }

    /// Record one occurrence of `value` (values < 1 are ignored — a burst of
    /// length zero is not a burst).
    pub fn add(&mut self, value: usize) {
        self.add_weighted(value, 1);
    }

    /// Record `weight` occurrences of `value`.
    pub fn add_weighted(&mut self, value: usize, weight: u64) {
        if value == 0 {
            return;
        }
        if value <= self.max_bucket {
            self.counts[value - 1] += weight;
        } else {
            self.overflow += weight;
        }
        self.total_weight += weight;
    }

    /// Count in bucket `value` (1-based). Panics outside `1..=max_bucket`.
    pub fn count(&self, value: usize) -> u64 {
        assert!((1..=self.max_bucket).contains(&value));
        self.counts[value - 1]
    }

    /// Count of values above `max_bucket`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total recorded weight.
    pub fn total(&self) -> u64 {
        self.total_weight
    }

    /// Average count per call when the histogram aggregates `n_calls` calls:
    /// the y-axis of the paper's burst figures.
    pub fn per_call_series(&self, n_calls: u64) -> Vec<(String, f64)> {
        assert!(n_calls > 0);
        let mut out: Vec<(String, f64)> = (1..=self.max_bucket)
            .map(|b| (b.to_string(), self.counts[b - 1] as f64 / n_calls as f64))
            .collect();
        out.push((format!(">{}", self.max_bucket), self.overflow as f64 / n_calls as f64));
        out
    }
}

/// Pearson correlation coefficient of two equal-length series.
/// Returns 0 when either series is constant (no linear relation measurable).
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "pearson: length mismatch");
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let ma = a.iter().sum::<f64>() / n as f64;
    let mb = b.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for i in 0..n {
        let da = a[i] - ma;
        let db = b[i] - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

/// Autocorrelation of a binary/real series at integer `lag` ≥ 0
/// (Pearson correlation of the series with itself shifted by `lag`).
pub fn autocorrelation(series: &[f64], lag: usize) -> f64 {
    if lag == 0 {
        return 1.0;
    }
    if series.len() <= lag + 1 {
        return 0.0;
    }
    pearson(&series[..series.len() - lag], &series[lag..])
}

/// Cross-correlation of two series at integer `lag` ≥ 0 — correlation of
/// `a[t]` with `b[t+lag]`.
pub fn cross_correlation(a: &[f64], b: &[f64], lag: usize) -> f64 {
    assert_eq!(a.len(), b.len(), "cross_correlation: length mismatch");
    if a.len() <= lag + 1 {
        return 0.0;
    }
    pearson(&a[..a.len() - lag], &b[lag..])
}

/// Mean of a slice (0 if empty) — small convenience used everywhere in the
/// reporting code.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let mut s = Summary::new();
        s.extend([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn ecdf_quantiles() {
        let e = Ecdf::new((1..=100).map(|i| i as f64).collect());
        assert_eq!(e.quantile(0.9), 90.0);
        assert_eq!(e.quantile(0.5), 50.0);
        assert_eq!(e.quantile(1.0), 100.0);
        assert_eq!(e.quantile(0.0), 1.0);
    }

    #[test]
    fn ecdf_at() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 10.0]);
        assert_eq!(e.at(0.5), 0.0);
        assert_eq!(e.at(2.0), 0.75);
        assert_eq!(e.at(100.0), 1.0);
    }

    #[test]
    fn ecdf_series_monotone() {
        let e = Ecdf::new(vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]);
        let s = e.series(0.0, 10.0, 21);
        assert_eq!(s.len(), 21);
        for w in s.windows(2) {
            assert!(w[1].1 >= w[0].1, "CDF must be monotone");
        }
        assert_eq!(s.last().unwrap().1, 1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn ecdf_rejects_nan() {
        Ecdf::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn quantile_unsorted_matches_ecdf_exactly() {
        // Deterministic pseudo-random sample with duplicates and negatives.
        let sample: Vec<f64> = (0..257)
            .map(|i| (((i * 2654435761u64 % 1000) as f64) - 500.0) / 7.0)
            .collect();
        let e = Ecdf::new(sample.clone());
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let mut buf = sample.clone();
            let got = quantile_unsorted(&mut buf, q);
            assert_eq!(got.to_bits(), e.quantile(q).to_bits(), "q={q}");
        }
        // Singleton and small samples hit the clamp path.
        for n in 1..=5usize {
            let xs: Vec<f64> = (0..n).map(|i| i as f64 * 3.0).collect();
            let e = Ecdf::new(xs.clone());
            for q in [0.0, 0.5, 0.9, 1.0] {
                let mut buf = xs.clone();
                assert_eq!(quantile_unsorted(&mut buf, q), e.quantile(q), "n={n} q={q}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn quantile_unsorted_rejects_nan() {
        quantile_unsorted(&mut [1.0, f64::NAN], 0.5);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = BucketHistogram::new(10);
        h.add(1);
        h.add(1);
        h.add(5);
        h.add(11);
        h.add(400);
        h.add(0); // ignored
        assert_eq!(h.count(1), 2);
        assert_eq!(h.count(5), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn histogram_per_call_series() {
        let mut h = BucketHistogram::new(3);
        h.add_weighted(1, 10);
        h.add_weighted(4, 2);
        let s = h.per_call_series(2);
        assert_eq!(s.len(), 4);
        assert_eq!(s[0], ("1".to_string(), 5.0));
        assert_eq!(s[3], (">3".to_string(), 1.0));
    }

    #[test]
    fn pearson_perfect_correlation() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_series_is_zero() {
        let a = [1.0, 1.0, 1.0];
        let b = [1.0, 2.0, 3.0];
        assert_eq!(pearson(&a, &b), 0.0);
    }

    #[test]
    fn autocorrelation_of_alternating_series() {
        let s: Vec<f64> = (0..100).map(|i| (i % 2) as f64).collect();
        assert!((autocorrelation(&s, 1) + 1.0).abs() < 0.05);
        assert!((autocorrelation(&s, 2) - 1.0).abs() < 0.05);
        assert_eq!(autocorrelation(&s, 0), 1.0);
    }

    #[test]
    fn cross_correlation_of_shifted_copy() {
        let a: Vec<f64> = (0..200).map(|i| ((i / 7) % 2) as f64).collect();
        let mut b = vec![0.0; 200];
        b[3..].copy_from_slice(&a[..197]);
        // b[t] = a[t-3]: a[t] matches b[t+3], so correlation peaks at lag 3.
        let c3 = cross_correlation(&a, &b, 3);
        let c0 = cross_correlation(&a, &b, 0);
        assert!(c3 > 0.9, "c3={c3}");
        assert!(c3 > c0);
    }

    #[test]
    fn short_series_edge_cases() {
        assert_eq!(autocorrelation(&[1.0], 1), 0.0);
        assert_eq!(cross_correlation(&[1.0], &[2.0], 1), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }
}
