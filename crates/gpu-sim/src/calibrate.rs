//! Online calibration: what completed kernels *measured*, fed back into
//! the estimates and heuristics the layers above plan with.
//!
//! §IV-A: "We track each kernel's historical performance and scheduling
//! to allow the creation of heuristics that guide future scheduling of
//! the same kernel." The engine's cost model predicts solo durations
//! analytically, a good prior that drifts under load: co-running
//! kernels slow each other down. This module closes the
//! measurement→decision loop: every completed kernel is an observation,
//! recorded from the one place its duration becomes known (the engine's
//! completion step) into
//!
//! * a **per-kernel-signature duration prior** (decaying mean of the
//!   measured wall duration per task label), consumed by
//!   history-driven placement policies, and
//! * a **per-kernel-signature block-size history** (§VI: "estimating
//!   the ideal block size based on data size and previous executions"):
//!   `(block size, size bucket) → (Σ duration, launches)` cells behind
//!   the explore-then-exploit chooser
//!   [`Calibration::choose_block_size`]. Its memory is O(signatures ×
//!   block sizes × buckets), independent of the launch count.
//!
//! Both are recorded from the engine's construction on. A signature
//! has no prior until its first kernel completes, so the first round of
//! a workload is placed without one. The prior feeds only placement
//! that asks for it ([`Calibration::kernel_prior`]); the block-size
//! history feeds no estimate, only the autotuner that asks for it, and
//! only kernels that carry a launch shape
//! ([`crate::TaskSpec::launch_shape`]) fill it.

use crate::cost::Grid;
use crate::Time;

/// Block sizes the autotuner explores (the paper's Fig. 7 sweep).
pub const CANDIDATE_BLOCK_SIZES: [u32; 6] = [32, 64, 128, 256, 512, 1024];

/// Weight of the newest observation in the decaying mean. High enough
/// to adapt within a handful of samples, low enough that one outlier
/// (e.g. a cold-start launch) does not dominate the prior.
const DEFAULT_DECAY: f64 = 0.25;

/// One decaying-mean accumulator.
#[derive(Debug, Default)]
struct Ewma {
    mean: f64,
    samples: u64,
}

impl Ewma {
    fn observe(&mut self, x: f64, decay: f64) {
        if self.samples == 0 {
            self.mean = x;
        } else {
            self.mean = (1.0 - decay) * self.mean + decay * x;
        }
        self.samples += 1;
    }
}

/// Measured durations of one `(block size, size bucket)` launch
/// configuration of a kernel signature.
#[derive(Debug)]
struct Cell {
    block_size: u32,
    size_bucket: u32,
    /// Durations summed in completion order.
    sum: Time,
    launches: usize,
}

impl Cell {
    fn mean(&self) -> Time {
        self.sum / self.launches as f64
    }
}

/// Everything observed about one kernel signature.
#[derive(Debug, Default)]
struct KernelObs {
    prior: Ewma,
    cells: Vec<Cell>,
}

/// Bucket input magnitudes by powers of two so "the same data size"
/// tolerates small variations.
fn size_bucket(elements: usize) -> u32 {
    (elements.max(1) as f64).log2().round() as u32
}

/// The online calibration state owned by an [`crate::Engine`] (what it
/// learns and how it is used: the header of `calibrate.rs`).
#[derive(Debug, Default)]
pub struct Calibration {
    /// Observations per kernel signature, sorted by name: a lookup is a
    /// few string comparisons and iteration order is the names' order.
    kernels: Vec<(&'static str, KernelObs)>,
    /// Position in `kernels` of the signature observed last. Completions
    /// of one kernel come in runs, so most observations find their
    /// signature with one comparison.
    last: usize,
    /// Kernel completions observed into duration priors.
    kernel_samples: u64,
}

impl Calibration {
    /// A calibration with no observations.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record a completed kernel: its measured duration feeds the
    /// decaying prior for its signature and, when the task carried a
    /// 1-D launch `shape` (`(grid, elements)`), the block-size cell of
    /// that configuration. Allocates only the first time a signature —
    /// or a new cell of it — is seen.
    pub(crate) fn observe_kernel(
        &mut self,
        label: &'static str,
        duration: Time,
        shape: Option<(Grid, usize)>,
    ) {
        if !duration.is_finite() || duration < 0.0 {
            return;
        }
        // Only 1-D launches participate in block-size tuning.
        let cell = shape
            .filter(|(grid, _)| grid.threads.1 == 1 && grid.threads.2 == 1)
            .map(|(grid, elements)| (grid.threads.0, size_bucket(elements)));
        if self
            .kernels
            .get(self.last)
            .is_none_or(|&(name, _)| name != label)
        {
            self.last = self.find(label).unwrap_or_else(|at| {
                self.kernels.insert(at, (label, KernelObs::default()));
                at
            });
        }
        let obs = &mut self.kernels[self.last].1;
        obs.prior.observe(duration, DEFAULT_DECAY);
        self.kernel_samples += 1;
        if let Some((block_size, size_bucket)) = cell {
            let at = |c: &Cell| c.block_size == block_size && c.size_bucket == size_bucket;
            let i = obs.cells.iter().position(at).unwrap_or_else(|| {
                obs.cells.push(Cell {
                    block_size,
                    size_bucket,
                    sum: 0.0,
                    launches: 0,
                });
                obs.cells.len() - 1
            });
            obs.cells[i].sum += duration;
            obs.cells[i].launches += 1;
        }
    }

    /// Position of a kernel signature in `kernels`, or where it would be
    /// inserted.
    fn find(&self, label: &str) -> Result<usize, usize> {
        self.kernels
            .binary_search_by(|(name, _)| (*name).cmp(label))
    }

    /// Decaying mean duration observed for a kernel signature, or `None`
    /// until one of its kernels has completed — the *task-duration
    /// prior* history-driven placement weighs in-flight work by.
    pub fn kernel_prior(&self, label: &str) -> Option<Time> {
        let obs = &self.kernels[self.find(label).ok()?].1;
        (obs.prior.samples > 0).then_some(obs.prior.mean)
    }

    /// Every cell of a kernel signature (none for an unknown one).
    fn all_cells(&self, kernel: &str) -> &[Cell] {
        self.find(kernel)
            .map_or(&[], |i| self.kernels[i].1.cells.as_slice())
    }

    /// The cells of a kernel signature in one size bucket.
    fn cells(&self, kernel: &str, elements: usize) -> impl Iterator<Item = &Cell> {
        let bucket = size_bucket(elements);
        let in_bucket = move |c: &&Cell| c.size_bucket == bucket;
        self.all_cells(kernel).iter().filter(in_bucket)
    }

    /// Number of 1-D launches recorded for a kernel signature.
    pub fn history_samples(&self, kernel: &str) -> usize {
        self.all_cells(kernel).iter().map(|c| c.launches).sum()
    }

    /// The next block size to *explore* for this (kernel, size) pair, if
    /// any candidate has never been tried.
    fn unexplored(&self, kernel: &str, elements: usize) -> Option<u32> {
        CANDIDATE_BLOCK_SIZES
            .into_iter()
            .find(|&b| self.cells(kernel, elements).all(|c| c.block_size != b))
    }

    /// The block size with the lowest mean measured duration for this
    /// (kernel, size) pair, or `None` with no data.
    pub fn best_block_size(&self, kernel: &str, elements: usize) -> Option<u32> {
        // Deterministic tie-break: equal means prefer the larger block
        // (better occupancy headroom for co-running kernels).
        self.cells(kernel, elements)
            .min_by(|a, b| {
                let by_mean = a.mean().total_cmp(&b.mean());
                by_mean.then(b.block_size.cmp(&a.block_size))
            })
            .map(|c| c.block_size)
    }

    /// Choose a block size: explore untried candidates first, then
    /// exploit the best observed one. Falls back to `default` with no
    /// information at all.
    pub fn choose_block_size(&self, kernel: &str, elements: usize, default: u32) -> u32 {
        self.unexplored(kernel, elements)
            .or_else(|| self.best_block_size(kernel, elements))
            .unwrap_or(default)
    }

    /// Mean duration of a (kernel, block size, size bucket) triple —
    /// exposed for reporting.
    pub fn mean_duration(&self, kernel: &str, block_size: u32, elements: usize) -> Option<Time> {
        self.cells(kernel, elements)
            .find(|c| c.block_size == block_size)
            .map(Cell::mean)
    }

    /// Kernel completions observed into duration priors.
    pub fn kernel_samples(&self) -> u64 {
        self.kernel_samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn kernel_prior_is_a_decaying_mean() {
        let mut c = Calibration::new();
        c.observe_kernel("k", 1e-3, None);
        assert_eq!(c.kernel_prior("k"), Some(1e-3), "first sample seeds");
        c.observe_kernel("k", 2e-3, None);
        let p = c.kernel_prior("k").unwrap();
        assert!(p > 1e-3 && p < 2e-3, "mean moves toward the new sample");
        let expect = (1.0 - DEFAULT_DECAY) * 1e-3 + DEFAULT_DECAY * 2e-3;
        assert!((p - expect).abs() < 1e-15);
        assert_eq!(c.kernel_prior("other"), None);
        assert_eq!(c.kernel_samples(), 2);
    }

    #[test]
    fn interleaved_signatures_keep_separate_books() {
        // Signatures arrive out of name order and alternate, so both the
        // sorted insert and the last-signature shortcut are exercised.
        let mut c = Calibration::new();
        let grid = Grid::d1(4, 128);
        for (round, label) in ["m", "b", "z", "b", "b", "a", "m", "z", "a"]
            .into_iter()
            .enumerate()
        {
            c.observe_kernel(label, (round + 1) as f64 * 1e-3, Some((grid, 1 << 10)));
        }
        let samples = |k| c.history_samples(k);
        assert_eq!(
            [samples("a"), samples("b"), samples("m"), samples("z")],
            [2, 3, 2, 2]
        );
        assert_eq!(samples("c"), 0, "a name between two known ones");
        assert_eq!(c.kernel_prior("nope"), None);
        assert_eq!(c.kernel_samples(), 9);
        // "a" saw rounds 6 and 9: its cell averages them.
        let mean = c.mean_duration("a", 128, 1 << 10).unwrap();
        assert!((mean - 7.5e-3).abs() < 1e-15);
        let names: Vec<&str> = c.kernels.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, ["a", "b", "m", "z"], "kept in name order");
    }

    #[test]
    fn garbage_observations_are_rejected() {
        let mut c = Calibration::new();
        c.observe_kernel("k", f64::NAN, None);
        c.observe_kernel("k", -1.0, None);
        assert_eq!(c.kernel_samples(), 0);
    }

    // --------------------------------------------------------------
    // block-size history
    // --------------------------------------------------------------

    /// Record one 1-D launch of `"k"` into the block-size history.
    fn launch(c: &mut Calibration, block: u32, elements: usize, duration: Time) {
        c.observe_kernel("k", duration, Some((Grid::d1(64, block), elements)));
    }

    #[test]
    fn buckets_group_similar_sizes() {
        assert_eq!(size_bucket(1000), size_bucket(1100));
        assert_ne!(size_bucket(1000), size_bucket(100_000));
        assert_eq!(size_bucket(0), 0);
    }

    #[test]
    fn exploration_walks_all_candidates() {
        let mut c = Calibration::new();
        let n = 1 << 20;
        for expect in CANDIDATE_BLOCK_SIZES {
            assert_eq!(c.unexplored("k", n), Some(expect));
            launch(&mut c, expect, n, 1e-3);
        }
        assert_eq!(c.unexplored("k", n), None);
    }

    #[test]
    fn exploitation_picks_the_fastest() {
        let mut c = Calibration::new();
        let n = 1 << 20;
        for (bs, d) in [
            (32u32, 3e-3),
            (64, 2e-3),
            (128, 1e-3),
            (256, 0.5e-3),
            (512, 0.8e-3),
            (1024, 2e-3),
        ] {
            launch(&mut c, bs, n, d);
        }
        assert_eq!(c.best_block_size("k", n), Some(256));
        assert_eq!(c.choose_block_size("k", n, 32), 256);
    }

    #[test]
    fn different_sizes_are_tuned_independently() {
        let mut c = Calibration::new();
        launch(&mut c, 32, 1 << 10, 1e-6);
        assert_eq!(
            c.unexplored("k", 1 << 20),
            Some(32),
            "new bucket restarts exploration"
        );
        assert_eq!(c.best_block_size("k", 1 << 10), Some(32));
    }

    #[test]
    fn multidimensional_and_shapeless_kernels_are_ignored() {
        let mut c = Calibration::new();
        c.observe_kernel("k", 1e-6, Some((Grid::d2(8, 8, 8, 8), 1 << 10)));
        c.observe_kernel("k", 1e-6, None);
        assert_eq!(c.history_samples("k"), 0);
    }

    #[test]
    fn default_used_with_no_history_and_candidates_exhausted() {
        let c = Calibration::new();
        // Untried candidates exist, so exploration wins over default.
        assert_eq!(c.choose_block_size("k", 1024, 777), 32);
    }

    #[test]
    fn mean_duration_averages() {
        let mut c = Calibration::new();
        launch(&mut c, 128, 4096, 2e-3);
        launch(&mut c, 128, 4096, 4e-3);
        assert!((c.mean_duration("k", 128, 4096).unwrap() - 3e-3).abs() < 1e-12);
        assert_eq!(c.mean_duration("k", 256, 4096), None);
    }

    #[test]
    fn history_memory_is_independent_of_the_launch_count() {
        let mut c = Calibration::new();
        for _ in 0..10_000 {
            launch(&mut c, 256, 1 << 14, 1e-4);
        }
        assert_eq!(c.history_samples("k"), 10_000);
        assert_eq!(c.kernels.len(), 1);
        assert_eq!(c.all_cells("k").len(), 1, "one cell, not one record");
    }

    /// The per-launch record the history used to keep, and the formulas
    /// it answered with — the oracle the aggregated cells must match
    /// bit for bit.
    struct Record {
        block_size: u32,
        size_bucket: u32,
        duration: Time,
    }

    fn oracle_unexplored(recs: &[Record], bucket: u32) -> Option<u32> {
        let tried = |b: u32| {
            recs.iter()
                .any(|r| r.size_bucket == bucket && r.block_size == b)
        };
        CANDIDATE_BLOCK_SIZES.into_iter().find(|&b| !tried(b))
    }

    fn oracle_mean(recs: &[Record], block_size: u32, bucket: u32) -> Option<Time> {
        let matching: Vec<f64> = recs
            .iter()
            .filter(|r| r.block_size == block_size && r.size_bucket == bucket)
            .map(|r| r.duration)
            .collect();
        (!matching.is_empty()).then(|| matching.iter().sum::<f64>() / matching.len() as f64)
    }

    fn oracle_best(recs: &[Record], bucket: u32) -> Option<u32> {
        let mut by_block: HashMap<u32, (f64, usize)> = HashMap::new();
        for r in recs.iter().filter(|r| r.size_bucket == bucket) {
            let e = by_block.entry(r.block_size).or_insert((0.0, 0));
            e.0 += r.duration;
            e.1 += 1;
        }
        let mut means: Vec<(u32, f64)> = by_block
            .into_iter()
            .map(|(b, (sum, n))| (b, sum / n as f64))
            .collect();
        means.sort_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
        means.first().map(|&(b, _)| b)
    }

    #[test]
    fn cells_answer_bit_identically_to_the_per_record_formulas() {
        // A seeded mix of block sizes (candidates and odd ones), size
        // buckets and durations, with exact ties between blocks.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let blocks = [32u32, 64, 96, 128, 256, 512, 1024];
        let sizes = [1usize << 10, 1000, 1 << 14, 1 << 20, 3_000_000];
        let mut c = Calibration::new();
        let mut recs: Vec<Record> = Vec::new();
        for step in 0..4000 {
            let block = blocks[next() % blocks.len()];
            let elements = sizes[next() % sizes.len()];
            // Quantized durations make equal means (the tie-break) common.
            let duration = (1 + next() % 7) as f64 * 0.125e-3 + (next() % 3) as f64 * 1e-7;
            launch(&mut c, block, elements, duration);
            recs.push(Record {
                block_size: block,
                size_bucket: size_bucket(elements),
                duration,
            });
            if step % 97 != 0 && step != 3999 {
                continue;
            }
            assert_eq!(c.history_samples("k"), recs.len());
            for &elements in &sizes {
                let bucket = size_bucket(elements);
                assert_eq!(
                    c.unexplored("k", elements),
                    oracle_unexplored(&recs, bucket)
                );
                assert_eq!(c.best_block_size("k", elements), oracle_best(&recs, bucket));
                for &b in &blocks {
                    assert_eq!(
                        c.mean_duration("k", b, elements).map(f64::to_bits),
                        oracle_mean(&recs, b, bucket).map(f64::to_bits),
                        "block {b}, {elements} elements, step {step}"
                    );
                }
            }
        }
        let cells = c.all_cells("k").len();
        assert!(cells <= blocks.len() * sizes.len(), "{cells} cells");
    }
}
