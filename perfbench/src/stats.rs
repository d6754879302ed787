//! Exact order statistics over kept samples.
//!
//! Percentiles are nearest-rank values: the smallest sample such that at
//! least `p` percent of the samples are less than or equal to it. No
//! bucketing, so a reported value is always one of the measured samples.

/// A sorted copy of one metric's kept samples.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values`; NaNs are dropped (a NaN is never a measurement).
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.retain(|v| !v.is_nan());
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of kept samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile, `0 < p <= 100`; `None` without samples.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let rank = nearest_rank(self.sorted.len(), p)?;
        Some(self.sorted[rank - 1])
    }

    /// Samples strictly above the nearest-rank `p`-th percentile.
    pub fn beyond(&self, p: f64) -> usize {
        nearest_rank(self.sorted.len(), p).map_or(0, |rank| self.sorted.len() - rank)
    }

    /// The nearest-rank median.
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }
}

/// The 1-based nearest rank `ceil(p/100 * n)` of percentile `p` among `n`
/// samples, clamped to `1..=n`; `None` when `n == 0` or `p` is outside
/// `(0, 100]`.
pub fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    // Integer arithmetic on hundredths of a percent keeps ranks exact
    // (0.9 * 10 is 9.000000000000002 in floating point).
    let hundredths = (p * 100.0).round() as u128;
    let rank = (hundredths * n as u128).div_ceil(10_000) as usize;
    Some(rank.clamp(1, n))
}

/// Median of a small list (nearest rank); `0.0` for an empty list.
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(10, 50.0), Some(5));
        assert_eq!(nearest_rank(10, 90.0), Some(9));
        assert_eq!(nearest_rank(11, 90.0), Some(10));
        assert_eq!(nearest_rank(100, 90.0), Some(90));
        assert_eq!(nearest_rank(1, 50.0), Some(1));
        assert_eq!(nearest_rank(3, 100.0), Some(3));
        assert_eq!(nearest_rank(5, 0.1), Some(1));
        assert_eq!(nearest_rank(0, 50.0), None);
        assert_eq!(nearest_rank(5, 0.0), None);
        assert_eq!(nearest_rank(5, 100.5), None);
    }

    #[test]
    fn percentiles_are_exact_samples() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.median(), Some(50.0));
        assert_eq!(s.percentile(90.0), Some(90.0));
        assert_eq!(s.beyond(90.0), 10);
        assert_eq!(s.percentile(99.0), Some(99.0));
        assert_eq!(s.beyond(99.0), 1);
        // A value between buckets is reported as measured, not rounded.
        let s = Samples::new(vec![1.0, 1.03, 1.07, 5.0]);
        assert_eq!(s.median(), Some(1.03));
        assert_eq!(s.percentile(75.0), Some(1.07));
    }

    #[test]
    fn empty_and_nan_inputs() {
        let s = Samples::new(vec![f64::NAN]);
        assert_eq!(s.len(), 0);
        assert_eq!(s.median(), None);
        assert_eq!(s.beyond(90.0), 0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
