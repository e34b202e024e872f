//! Analytic kernel cost model.
//!
//! A kernel's cost is described by *what it does* (flops, bytes moved,
//! instructions) independently of the device; [`KernelCost::solo_profile`]
//! turns that into a device-specific solo execution time plus a
//! [`ResourceDemand`] vector used by the fluid contention solver.
//!
//! The model is a roofline with an occupancy derating:
//!
//! * occupancy = resident threads of this launch / device thread capacity
//!   (also limited by resident-block slots);
//! * compute throughput scales linearly with occupancy up to a knee
//!   (`compute_occ_knee`), DRAM bandwidth up to a lower knee
//!   (`mem_occ_knee`) — memory latency is easier to hide;
//! * solo time = max over the compute, fp64, DRAM, L2, instruction-issue
//!   and latency-floor components.
//!
//! The occupancy derating is what makes the paper's block-size
//! observation come out (§V-C): with `block_size = 32` and a fixed block
//! count, a single kernel badly under-fills the machine, so *serial*
//! execution is slow — but several such kernels space-share perfectly,
//! so *parallel* execution hardly loses anything and the measured speedup
//! is larger.

use crate::profile::DeviceProfile;
use crate::task::ResourceDemand;
use serde::{Deserialize, Serialize};

/// A CUDA-style launch configuration: grid dimensions × block dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Grid {
    /// Number of blocks in each grid dimension.
    pub blocks: (u32, u32, u32),
    /// Number of threads in each block dimension (32..=1024 total).
    pub threads: (u32, u32, u32),
}

impl Grid {
    /// 1-dimensional launch: `blocks` blocks of `threads` threads.
    pub fn d1(blocks: u32, threads: u32) -> Self {
        Grid {
            blocks: (blocks, 1, 1),
            threads: (threads, 1, 1),
        }
    }

    /// 2-dimensional launch (used by the image and DL benchmarks).
    pub fn d2(bx: u32, by: u32, tx: u32, ty: u32) -> Self {
        Grid {
            blocks: (bx, by, 1),
            threads: (tx, ty, 1),
        }
    }

    /// 3-dimensional launch (used by the DL convolutions).
    pub fn d3(b: (u32, u32, u32), t: (u32, u32, u32)) -> Self {
        Grid {
            blocks: b,
            threads: t,
        }
    }

    /// Total number of blocks in the grid.
    fn total_blocks(&self) -> u64 {
        self.blocks.0 as u64 * self.blocks.1 as u64 * self.blocks.2 as u64
    }

    /// Total number of threads per block.
    fn threads_per_block(&self) -> u64 {
        self.threads.0 as u64 * self.threads.1 as u64 * self.threads.2 as u64
    }
}

/// Device-independent description of the work one kernel launch performs.
///
/// Produced by per-kernel cost functions in the `kernels` crate from the
/// actual argument sizes, so cost always tracks the data the functional
/// implementation touches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelCost {
    /// Single-precision floating-point operations.
    pub flops32: f64,
    /// Double-precision floating-point operations.
    pub flops64: f64,
    /// Bytes exchanged with device memory (DRAM), after L2 filtering.
    pub dram_bytes: f64,
    /// Bytes exchanged with the L2 cache.
    pub l2_bytes: f64,
    /// Total executed instructions (for the IPC hardware metric).
    pub instructions: f64,
    /// A latency floor in seconds for kernels with long dependent chains
    /// (e.g. tree reductions): even with infinite resources the kernel
    /// cannot finish faster than this.
    pub min_time: f64,
    /// Latency-boundedness factor (≥ 1): how much slower than the
    /// roofline the kernel's *compute* phases run. Unoptimized kernels
    /// — tall-matrix GEMMs, direct convolutions, halo-heavy stencils —
    /// achieve a few percent of peak (the paper's ML benchmark measures
    /// an IPC of 0.04). The factor dilates time without inflating the
    /// reported counters or the resource demand: a latency-bound kernel
    /// is slow but does not saturate shared units, so it still
    /// space-shares well — which is exactly why the paper's scheduler
    /// helps these workloads. Zero is treated as 1.
    pub inefficiency: f64,
}

impl KernelCost {
    /// Builder-style: set the latency-boundedness factor.
    pub fn with_inefficiency(mut self, k: f64) -> KernelCost {
        self.inefficiency = k;
        self
    }

    /// The inefficiency factor with the zero-default normalized to 1.
    fn ineff(&self) -> f64 {
        if self.inefficiency < 1.0 {
            1.0
        } else {
            self.inefficiency
        }
    }

    /// Occupancy of a launch on a device: the fraction of resident-thread
    /// capacity this launch can fill, also limited by resident-block
    /// slots. Always in `(0, 1]`.
    fn occupancy(grid: Grid, dev: &DeviceProfile) -> f64 {
        let resident_blocks = (grid.total_blocks() as f64).min(dev.block_capacity());
        let resident_threads =
            (resident_blocks * grid.threads_per_block() as f64).min(dev.thread_capacity());
        (resident_threads / dev.thread_capacity()).clamp(1e-4, 1.0)
    }

    /// Compute the solo execution time (seconds) and the full-rate
    /// resource demand of this launch on `dev`.
    ///
    /// The demand vector is normalized so that running solo at rate 1.0
    /// consumes exactly the modeled share of each resource; the fluid
    /// solver then scales rates down under contention.
    pub fn solo_profile(&self, grid: Grid, dev: &DeviceProfile) -> (f64, ResourceDemand) {
        let occ = Self::occupancy(grid, dev);
        // Linear-to-knee derating.
        let ceff = (occ / dev.compute_occ_knee).min(1.0);
        let meff = (occ / dev.mem_occ_knee).min(1.0);

        let ineff = self.ineff();
        let t32 = self.flops32 * ineff / (dev.fp32_flops * ceff);
        let t64 = self.flops64 * ineff / (dev.fp64_flops * ceff);
        let tmem = self.dram_bytes / (dev.dram_bw * meff);
        let tl2 = self.l2_bytes / (dev.l2_bw * meff);
        let tinstr = self.instructions * ineff / (dev.instr_rate * ceff);
        let solo = (t32 + t64)
            .max(tmem)
            .max(tl2)
            .max(tinstr)
            .max(self.min_time)
            .max(1e-7); // nothing completes faster than 100 ns

        let demand = ResourceDemand {
            sm_frac: occ,
            dram_bps: self.dram_bytes / solo,
            l2_bps: self.l2_bytes / solo,
            fp64_flops: self.flops64 / solo,
            ..ResourceDemand::default()
        };
        (solo, demand)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceProfile {
        DeviceProfile::gtx1660_super()
    }

    #[test]
    fn grid_products() {
        let g = Grid::d2(8, 8, 16, 16);
        assert_eq!(g.total_blocks(), 64);
        assert_eq!(g.threads_per_block(), 256);
    }

    #[test]
    fn occupancy_clamps_to_one_for_huge_grids() {
        let g = Grid::d1(1_000_000, 256);
        assert_eq!(KernelCost::occupancy(g, &dev()), 1.0);
    }

    #[test]
    fn small_blocks_underfill_the_machine() {
        // 64 blocks of 32 threads on a 22-SM Turing part: 2048 threads of
        // a 22528-thread capacity — under 10% occupancy.
        let g = Grid::d1(64, 32);
        let occ = KernelCost::occupancy(g, &dev());
        assert!(occ < 0.10, "occ = {occ}");
    }

    #[test]
    fn block_slot_limit_binds_for_tiny_blocks() {
        // 10_000 blocks of 32 threads: thread count alone would say
        // 320_000 threads (full), but only 22 * 16 = 352 blocks can be
        // resident, i.e. 11264 threads of 22528 capacity.
        let g = Grid::d1(10_000, 32);
        let occ = KernelCost::occupancy(g, &dev());
        assert!((occ - 0.5).abs() < 1e-9, "occ = {occ}");
    }

    #[test]
    fn memory_bound_kernel_time_tracks_dram_bandwidth() {
        let n = 100_000_000.0; // bytes
        let c = KernelCost {
            dram_bytes: n,
            ..Default::default()
        };
        let (solo, d) = c.solo_profile(Grid::d1(4096, 256), &dev());
        let expected = n / dev().dram_bw;
        assert!((solo - expected).abs() / expected < 1e-9);
        assert!((d.dram_bps - dev().dram_bw).abs() / dev().dram_bw < 1e-9);
    }

    #[test]
    fn low_occupancy_slows_a_solo_kernel() {
        let c = KernelCost {
            flops32: 1e9,
            dram_bytes: 1e6,
            ..Default::default()
        };
        let (fast, _) = c.solo_profile(Grid::d1(4096, 256), &dev());
        let (slow, _) = c.solo_profile(Grid::d1(64, 32), &dev());
        assert!(slow > 3.0 * fast, "slow={slow} fast={fast}");
    }

    #[test]
    fn fp64_dominates_on_consumer_parts_but_not_p100() {
        let c = KernelCost {
            flops64: 1e9,
            ..Default::default()
        };
        let g = Grid::d1(4096, 256);
        let (t1660, _) = c.solo_profile(g, &DeviceProfile::gtx1660_super());
        let (tp100, _) = c.solo_profile(g, &DeviceProfile::tesla_p100());
        assert!(t1660 / tp100 > 20.0);
    }

    #[test]
    fn min_time_floor_applies() {
        let c = KernelCost {
            flops32: 1.0,
            min_time: 5e-4,
            ..Default::default()
        };
        let (solo, _) = c.solo_profile(Grid::d1(64, 256), &dev());
        assert_eq!(solo, 5e-4);
    }

    #[test]
    fn demand_never_exceeds_capacity() {
        let c = KernelCost {
            flops32: 1e10,
            flops64: 1e8,
            dram_bytes: 1e9,
            l2_bytes: 2e9,
            instructions: 1e10,
            min_time: 0.0,
            inefficiency: 0.0,
        };
        for d in DeviceProfile::paper_devices() {
            for &(b, t) in &[(64u32, 32u32), (4096, 256), (128, 1024)] {
                let (_, dem) = c.solo_profile(Grid::d1(b, t), &d);
                assert!(dem.sm_frac <= 1.0 + 1e-9);
                assert!(dem.dram_bps <= d.dram_bw * (1.0 + 1e-9));
                assert!(dem.l2_bps <= d.l2_bw * (1.0 + 1e-9));
                assert!(dem.fp64_flops <= d.fp64_flops * (1.0 + 1e-9));
            }
        }
    }
}
