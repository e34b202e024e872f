//! Input scales for the experiments.
//!
//! The paper sweeps each benchmark from <10% to ~90% of each GPU's
//! memory (Table I). The simulator reproduces timing from byte counts,
//! but the *functional* kernel implementations run on the host CPU, so
//! absolute sizes are scaled down by a constant factor per benchmark
//! (`docs/FIDELITY.md`, "Scale factors"); the five sweep points keep
//! the paper's x-axis ratios `1 : 4 : 6 : 25 : 35`.

use crate::Bench;

/// The paper's five x-axis points, as fractions of the top scale.
const SWEEP_RATIOS: [f64; 5] = [1.0 / 35.0, 4.0 / 35.0, 6.0 / 35.0, 25.0 / 35.0, 1.0];

/// Top (largest) scale per benchmark, chosen so a full sweep stays
/// CPU-feasible while spanning >10x in footprint.
fn top(b: Bench) -> usize {
    match b {
        Bench::Vec => 14_000_000, // elements/vector (paper: 7e8)
        Bench::Bs => 1_400_000,   // options/stock   (paper: 7e7)
        Bench::Img => 1200,       // pixels/side     (paper: 16e3)
        Bench::Ml => 35_000,      // rows            (paper: 6e6)
        Bench::Hits => 175_000,   // vertices        (paper: ~2e7)
        Bench::Dl => 170,         // pixels/side     (paper: 16e3)
    }
}

/// The five sweep scales for a benchmark.
pub fn sweep(b: Bench) -> Vec<usize> {
    SWEEP_RATIOS
        .iter()
        .map(|r| ((top(b) as f64) * r).round().max(2.0) as usize)
        .collect()
}

/// A single representative (middle) scale used by Figs. 1, 11 and 12.
pub fn default_scale(b: Bench) -> usize {
    sweep(b)[2]
}

/// A fast scale for unit and integration tests.
pub fn tiny(b: Bench) -> usize {
    match b {
        Bench::Vec => 4096,
        Bench::Bs => 1024,
        Bench::Img => 48,
        Bench::Ml => 256,
        Bench::Hits => 256,
        Bench::Dl => 22,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_have_five_increasing_points() {
        for b in Bench::ALL {
            let s = sweep(b);
            assert_eq!(s.len(), 5);
            for w in s.windows(2) {
                assert!(w[0] < w[1], "{:?}: {s:?}", b);
            }
        }
    }

    #[test]
    fn sweep_span_exceeds_10x_in_scale() {
        for b in Bench::ALL {
            let s = sweep(b);
            assert!(s[4] as f64 / s[0] as f64 > 10.0, "{:?}", b);
        }
    }

    #[test]
    fn default_is_the_middle_point() {
        for b in Bench::ALL {
            assert_eq!(default_scale(b), sweep(b)[2]);
        }
    }
}
