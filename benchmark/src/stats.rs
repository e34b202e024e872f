//! Order statistics for host-time samples. Percentiles use the same
//! nearest-rank definition as `metrics::percentile` (every reported
//! figure is an actual sample), but sort once for all ranks: a run
//! pools hundreds of thousands of request latencies.

/// A sorted sample vector.
pub struct Sorted(Vec<f64>);

impl Sorted {
    /// Sort `samples` (NaN-free by construction: they are durations and
    /// simulator times).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Sorted(samples)
    }

    /// Nearest-rank percentile, `0 < q <= 100`: `sorted[ceil(q/100·n) - 1]`.
    ///
    /// # Panics
    /// Panics on an empty sample vector: every workload produces at
    /// least one request per round.
    pub fn percentile(&self, q: f64) -> f64 {
        let n = self.0.len();
        assert!(n > 0, "percentile of an empty sample vector");
        let rank = ((q / 100.0) * n as f64).ceil() as usize;
        self.0[rank.clamp(1, n) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// `(p25, p50, p75)`.
    pub fn quartiles(&self) -> (f64, f64, f64) {
        (
            self.percentile(25.0),
            self.percentile(50.0),
            self.percentile(75.0),
        )
    }
}

/// Median of a small sample vector (round times, set-up times).
pub fn median(samples: &[f64]) -> f64 {
    Sorted::new(samples.to_vec()).median()
}

/// Geometric mean of positive ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_metrics_crate() {
        let v: Vec<f64> = (1..=37).map(|i| ((i * 7919) % 101) as f64).collect();
        let s = Sorted::new(v.clone());
        for q in [1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            assert_eq!(Some(s.percentile(q)), metrics::percentile(&v, q), "q={q}");
        }
    }

    #[test]
    fn percentiles_are_actual_samples() {
        let s = Sorted::new(vec![40.0, 10.0, 30.0, 20.0]);
        assert_eq!(s.percentile(50.0), 20.0);
        assert_eq!(s.percentile(99.0), 40.0);
        assert_eq!(s.percentile(100.0), 40.0);
        assert_eq!(s.percentile(0.001), 10.0);
        assert_eq!(Sorted::new(vec![5.0]).percentile(50.0), 5.0);
    }

    #[test]
    fn quartiles_of_eight_samples() {
        let s = Sorted::new((1..=8).map(f64::from).collect());
        assert_eq!(s.quartiles(), (2.0, 4.0, 6.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
