//! Per-request latency distributions for the serving benchmarks.
//!
//! The serve layer (`grcuda::serve`) measures one virtual-time latency
//! per completed request; this module turns a sample vector into the
//! gated `serve.p50/p90/p99` figures. Percentiles use the
//! **nearest-rank** definition — `value = sorted[ceil(q/100 · n) - 1]`
//! — so every reported figure is an actual sample (no interpolation)
//! and the result is bit-deterministic for a deterministic input
//! vector, which is what lets the bench trajectory diff the keys exactly.

/// Nearest-rank percentile of `samples` at `q` (in percent, `0 < q ≤
/// 100`). Returns `None` on an empty vector. The input need not be
/// sorted; a sorted copy is taken internally.
///
/// With n samples the rank is `ceil(q/100 · n)` clamped to at least 1,
/// so `percentile(&v, 100.0)` is the maximum and `percentile(&v, 50.0)`
/// on `n = 1` is the lone sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latency samples must not be NaN"));
    let n = sorted.len();
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    Some(sorted[rank - 1])
}

/// Summary statistics of one latency sample vector.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Nearest-rank 50th percentile (median).
    pub p50: f64,
    /// Nearest-rank 90th percentile.
    pub p90: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// Maximum sample.
    pub max: f64,
}

impl LatencySummary {
    /// Summarize a sample vector. Returns `None` on an empty vector.
    pub fn from_samples(samples: &[f64]) -> Option<LatencySummary> {
        if samples.is_empty() {
            return None;
        }
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        Some(LatencySummary {
            n: samples.len(),
            mean,
            p50: percentile(samples, 50.0)?,
            p90: percentile(samples, 90.0)?,
            p99: percentile(samples, 99.0)?,
            max: percentile(samples, 100.0)?,
        })
    }
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.3} p50={:.3} p90={:.3} p99={:.3} max={:.3}",
            self.n, self.mean, self.p50, self.p90, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_vector_has_no_percentiles() {
        assert_eq!(percentile(&[], 50.0), None);
        assert!(LatencySummary::from_samples(&[]).is_none());
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let v = [7.25];
        assert_eq!(percentile(&v, 1.0), Some(7.25));
        assert_eq!(percentile(&v, 50.0), Some(7.25));
        assert_eq!(percentile(&v, 99.0), Some(7.25));
        assert_eq!(percentile(&v, 100.0), Some(7.25));
        let s = LatencySummary::from_samples(&v).unwrap();
        assert_eq!(
            (s.n, s.mean, s.p50, s.p99, s.max),
            (1, 7.25, 7.25, 7.25, 7.25)
        );
    }

    #[test]
    fn nearest_rank_on_known_decade() {
        // Canonical nearest-rank example: 10 samples 1..=10.
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        // rank(50%) = ceil(0.5·10) = 5 → 5.0 (not the interpolated 5.5).
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        // rank(90%) = ceil(0.9·10) = 9 → 9.0.
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        // rank(99%) = ceil(0.99·10) = 10 → 10.0.
        assert_eq!(percentile(&v, 99.0), Some(10.0));
        // rank(25%) = ceil(0.25·10) = 3 → 3.0.
        assert_eq!(percentile(&v, 25.0), Some(3.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
    }

    #[test]
    fn unsorted_input_is_sorted_internally() {
        let v = [9.0, 1.0, 5.0, 3.0, 7.0];
        // sorted: [1,3,5,7,9]; rank(50%) = ceil(2.5) = 3 → 5.0.
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        // rank(99%) = ceil(4.95) = 5 → 9.0.
        assert_eq!(percentile(&v, 99.0), Some(9.0));
    }

    #[test]
    fn duplicate_heavy_vector_reports_the_duplicated_value() {
        // 99 fast requests at 1.0 and one slow outlier at 100.0.
        let mut v = vec![1.0; 99];
        v.push(100.0);
        // rank(50%) = 50 → 1.0; rank(99%) = 99 → still 1.0 (the outlier
        // is strictly the top 1%); rank(100%) = 100 → 100.0.
        assert_eq!(percentile(&v, 50.0), Some(1.0));
        assert_eq!(percentile(&v, 99.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        let s = LatencySummary::from_samples(&v).unwrap();
        assert_eq!(s.p99, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 1.99).abs() < 1e-12);
    }

    #[test]
    fn two_samples_split_at_the_median() {
        let v = [1.0, 2.0];
        // rank(50%) = ceil(1.0) = 1 → 1.0.
        assert_eq!(percentile(&v, 50.0), Some(1.0));
        assert_eq!(percentile(&v, 51.0), Some(2.0));
    }

    #[test]
    fn summary_display_is_stable() {
        let s = LatencySummary::from_samples(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(
            format!("{s}"),
            "n=3 mean=2.000 p50=2.000 p90=3.000 p99=3.000 max=3.000"
        );
    }
}
