//! Device profiles: the static description of a simulated GPU.
//!
//! The three built-in profiles correspond to the GPUs of the paper's
//! evaluation (§V-A): a GTX 960 (Maxwell, 2 GB), a GTX 1660 Super (Turing,
//! 6 GB) and a Tesla P100 (Pascal, 12 GB, PCIe variant). Throughput numbers
//! are public spec-sheet values; the calibration constants at the bottom
//! (launch overheads, fault service characteristics, occupancy saturation
//! knees) are documented in `docs/FIDELITY.md` ("Calibration constants")
//! and shared by every profile.

use serde::{Deserialize, Serialize};

/// GPU micro-architecture generation.
///
/// The scheduler in the paper is *architecture-aware*: on devices older
/// than Pascal there is no unified-memory page-fault mechanism, so data
/// must be moved eagerly and the CPU may not touch managed arrays while
/// any kernel is running (GrCUDA restricts array *visibility* per stream
/// to work around this, §IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Architecture {
    /// Pre-Pascal: no page faults, no on-demand migration, no prefetch.
    Maxwell,
    /// First architecture with unified-memory page faults and prefetch.
    Pascal,
    /// Post-Pascal consumer architecture (page faults, prefetch, but only
    /// 1024 resident threads per SM instead of 2048).
    Turing,
}

impl Architecture {
    /// Whether unified memory can be migrated on demand by page faults
    /// (and therefore whether `cudaMemPrefetchAsync`-style bulk prefetch
    /// is meaningful).
    fn supports_page_faults(self) -> bool {
        !matches!(self, Architecture::Maxwell)
    }
}

/// Static description of a simulated device plus the calibration constants
/// of the cost model.
///
/// All bandwidths are bytes/second, all rates are per-second, all times are
/// seconds. "Peak" values are theoretical; the cost model applies occupancy
/// derating (see [`crate::KernelCost`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Human-readable device name as used in the paper's figures.
    pub name: String,
    /// Micro-architecture generation.
    pub arch: Architecture,
    /// Number of streaming multiprocessors.
    pub sms: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Device memory capacity in bytes.
    pub mem_bytes: u64,
    /// Peak single-precision throughput, FLOP/s.
    pub fp32_flops: f64,
    /// Peak double-precision throughput, FLOP/s.
    pub fp64_flops: f64,
    /// Peak executed-instruction rate, instructions/s (used for the IPC
    /// figure; roughly `sms * clock * issue_width`).
    pub instr_rate: f64,
    /// Device-memory (DRAM) bandwidth, bytes/s.
    pub dram_bw: f64,
    /// L2 cache bandwidth, bytes/s.
    pub l2_bw: f64,
    /// Effective PCIe bandwidth per direction, bytes/s. The paper's hosts
    /// use PCIe 3.0 x16 (~12 GB/s effective). It is what
    /// [`crate::Cluster::build`] gives every host link; host copies are
    /// timed by their link.
    pub pcie_bw: f64,
    /// Effective bandwidth of *on-demand* unified-memory page-fault
    /// migration. Much lower than bulk copies: the fault path is
    /// serviced page-by-page through a single fault controller.
    pub fault_bw: f64,
    /// Fixed service latency of a fault migration batch.
    pub fault_latency: f64,
    /// Kernel launch overhead (host API + device dispatch). It is also
    /// every host link's latency ([`crate::Cluster::build`]), which each
    /// bulk copy over the link is charged.
    pub launch_overhead: f64,
    /// Overhead of recording or waiting on an event.
    pub event_overhead: f64,
    /// Host-side cost of one runtime API call (this is what the host
    /// "spends" issuing work; it is also the window in which previously
    /// issued work progresses in the background).
    pub host_api_overhead: f64,
    /// Extra host-side bookkeeping per computation performed by the
    /// DAG scheduler (dependency inference + stream selection). The
    /// paper reports this as negligible; it is non-zero here so that the
    /// overhead *could* show up if a workload were pathological.
    pub sched_overhead: f64,
    /// Occupancy (fraction of resident-thread capacity) above which
    /// compute throughput saturates. Below the knee, throughput scales
    /// linearly with occupancy.
    pub compute_occ_knee: f64,
    /// Occupancy above which DRAM bandwidth saturates. Memory latency is
    /// easier to hide, so this knee is lower than the compute knee.
    pub mem_occ_knee: f64,
}

impl DeviceProfile {
    /// NVIDIA GTX 960 (Maxwell, 2015): the paper's smallest device.
    /// 8 SMs @ ~1.18 GHz, 2 GB GDDR5, 112 GB/s, fp64 at 1/32 rate.
    pub fn gtx960() -> Self {
        DeviceProfile {
            name: "GTX 960".into(),
            arch: Architecture::Maxwell,
            sms: 8,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            mem_bytes: 2 * GB,
            fp32_flops: 2.31e12,
            fp64_flops: 7.2e10,
            instr_rate: 8.0 * 1.18e9 * 128.0,
            dram_bw: 112.0 * GBF,
            l2_bw: 300.0 * GBF,
            pcie_bw: 12.0 * GBF,
            fault_bw: 3.0 * GBF,
            fault_latency: 20e-6,
            ..Self::common()
        }
    }

    /// NVIDIA GTX 1660 Super (Turing, 2019): the paper's consumer device
    /// and the one used for the hardware-metric analysis (Fig. 12).
    /// 22 SMs @ ~1.78 GHz, 6 GB GDDR6, 336 GB/s, fp64 at 1/32 rate.
    pub fn gtx1660_super() -> Self {
        DeviceProfile {
            name: "GTX 1660 Super".into(),
            arch: Architecture::Turing,
            sms: 22,
            max_threads_per_sm: 1024,
            max_blocks_per_sm: 16,
            mem_bytes: 6 * GB,
            fp32_flops: 5.03e12,
            fp64_flops: 1.57e11,
            instr_rate: 22.0 * 1.78e9 * 128.0,
            dram_bw: 336.0 * GBF,
            l2_bw: 750.0 * GBF,
            pcie_bw: 12.0 * GBF,
            fault_bw: 6.5 * GBF,
            fault_latency: 15e-6,
            ..Self::common()
        }
    }

    /// NVIDIA Tesla P100 PCIe 12 GB (Pascal, 2016): the paper's
    /// data-center device. 56 SMs @ ~1.3 GHz, HBM2 at 549 GB/s, full-rate
    /// fp64 (1/2 of fp32) — 20× the double-precision throughput of the
    /// GTX 1660 Super, which is why B&S behaves so differently on it.
    pub fn tesla_p100() -> Self {
        DeviceProfile {
            name: "Tesla P100".into(),
            arch: Architecture::Pascal,
            sms: 56,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            mem_bytes: 12 * GB,
            fp32_flops: 9.3e12,
            fp64_flops: 4.7e12,
            instr_rate: 56.0 * 1.3e9 * 128.0,
            dram_bw: 549.0 * GBF,
            l2_bw: 1200.0 * GBF,
            pcie_bw: 12.0 * GBF,
            fault_bw: 7.5 * GBF,
            fault_latency: 15e-6,
            ..Self::common()
        }
    }

    /// The three devices of the paper's evaluation, in the order the
    /// figures list them.
    pub fn paper_devices() -> Vec<DeviceProfile> {
        vec![Self::gtx960(), Self::gtx1660_super(), Self::tesla_p100()]
    }

    /// Calibration constants shared by every profile. Placed here so a
    /// sensitivity sweep can tweak one place; values are justified in
    /// `docs/FIDELITY.md` ("Calibration constants").
    fn common() -> Self {
        DeviceProfile {
            name: String::new(),
            arch: Architecture::Pascal,
            sms: 1,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            mem_bytes: GB,
            fp32_flops: 1e12,
            fp64_flops: 1e10,
            instr_rate: 1e12,
            dram_bw: 100.0 * GBF,
            l2_bw: 300.0 * GBF,
            pcie_bw: 12.0 * GBF,
            fault_bw: 4.0 * GBF,
            fault_latency: 15e-6,
            launch_overhead: 4e-6,
            event_overhead: 1.5e-6,
            host_api_overhead: 2e-6,
            sched_overhead: 1.5e-6,
            compute_occ_knee: 0.50,
            mem_occ_knee: 0.20,
        }
    }

    /// Total resident-thread capacity of the device.
    pub(crate) fn thread_capacity(&self) -> f64 {
        (self.sms * self.max_threads_per_sm) as f64
    }

    /// Total resident-block capacity of the device.
    pub(crate) fn block_capacity(&self) -> f64 {
        (self.sms * self.max_blocks_per_sm) as f64
    }

    /// Whether this device services unified memory by page faults
    /// (Pascal and newer).
    pub fn supports_page_faults(&self) -> bool {
        self.arch.supports_page_faults()
    }

    /// Core clock in Hz, recovered from the instruction-issue rate
    /// (`instr_rate = sms × clock × 128` thread-instructions per cycle).
    pub fn clock_hz(&self) -> f64 {
        self.instr_rate / (self.sms as f64 * 128.0)
    }
}

/// One gibibyte (capacity contexts).
const GB: u64 = 1024 * 1024 * 1024;
/// One gigabyte as a bandwidth factor (bytes/s contexts use decimal GB).
const GBF: f64 = 1e9;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_devices_match_spec_sheet_basics() {
        let d960 = DeviceProfile::gtx960();
        let d1660 = DeviceProfile::gtx1660_super();
        let p100 = DeviceProfile::tesla_p100();
        assert_eq!(d960.mem_bytes, 2 * GB);
        assert_eq!(d1660.mem_bytes, 6 * GB);
        assert_eq!(p100.mem_bytes, 12 * GB);
        // The paper's fp64 story: P100 has ~20-30x the fp64 of the 1660.
        assert!(p100.fp64_flops / d1660.fp64_flops > 20.0);
        // Maxwell has no page faults; the others do.
        assert!(!d960.supports_page_faults());
        assert!(d1660.supports_page_faults());
        assert!(p100.supports_page_faults());
    }

    #[test]
    fn turing_has_half_the_resident_threads_per_sm() {
        assert_eq!(DeviceProfile::gtx1660_super().max_threads_per_sm, 1024);
        assert_eq!(DeviceProfile::tesla_p100().max_threads_per_sm, 2048);
    }

    #[test]
    fn capacities_are_products() {
        let d = DeviceProfile::gtx1660_super();
        assert_eq!(d.thread_capacity(), (22 * 1024) as f64);
        assert_eq!(d.block_capacity(), (22 * 16) as f64);
    }

    #[test]
    fn fault_path_is_slower_than_bulk_copies() {
        for d in DeviceProfile::paper_devices() {
            assert!(d.fault_bw < d.pcie_bw, "{}", d.name);
        }
    }
}
