//! Hardware-utilization metrics (Fig. 12).
//!
//! The paper measures per-kernel counters (bytes to device memory and
//! L2, executed instructions, floating-point operations) with `nvprof`/
//! `ncu` in separate runs, then combines them with the un-instrumented
//! execution timeline: "this evaluation is useful to estimate the global
//! GPU behavior when space-sharing is performed". We do the same, except
//! the counters come from the kernels' cost models — which is precisely
//! the quantity the profiler would report.
//!
//! Because the counters depend only on the kernels (not on scheduling),
//! every metric here scales as `1 / execution time`: a parallel schedule
//! that finishes 1.6× sooner shows 1.6× the memory throughput, matching
//! the paper's observation that the throughput gain is "in-line with the
//! total speedup".

use gpu_sim::{DeviceProfile, Timeline};

/// Aggregate hardware metrics over one benchmark execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HardwareMetrics {
    /// Device-memory throughput, bytes/second.
    pub dram_throughput: f64,
    /// L2 throughput, bytes/second.
    pub l2_throughput: f64,
    /// Average executed instructions per clock cycle per SM.
    pub ipc: f64,
    /// Combined single+double precision GFLOPS.
    pub gflops: f64,
    /// The GPU execution span the totals were divided by, seconds.
    pub span: f64,
}

impl HardwareMetrics {
    /// Compute metrics from a timeline on a device.
    pub fn from_timeline(tl: &Timeline, dev: &DeviceProfile) -> HardwareMetrics {
        let span = tl.gpu_span();
        if span <= 0.0 {
            return HardwareMetrics::default();
        }
        let mut bytes = 0.0;
        let mut l2 = 0.0;
        let mut instr = 0.0;
        let mut flops = 0.0;
        for iv in tl.kernels() {
            bytes += iv.meta.bytes;
            l2 += iv.meta.l2_bytes;
            instr += iv.meta.instructions;
            flops += iv.meta.flops32 + iv.meta.flops64;
        }
        let cycles = span * dev.clock_hz() * dev.sms as f64;
        HardwareMetrics {
            dram_throughput: bytes / span,
            l2_throughput: l2 / span,
            ipc: if cycles > 0.0 { instr / cycles } else { 0.0 },
            gflops: flops / span / 1e9,
            span,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Interval, TaskKind, TaskMeta, Timeline};

    fn kernel_iv(start: f64, end: f64, bytes: f64, instr: f64, flops: f64) -> Interval {
        Interval {
            task: 0,
            kind: TaskKind::Kernel,
            stream: 0,
            device: 0,
            link: None,
            label: "k",
            value: None,
            start,
            end,
            meta: TaskMeta {
                bytes,
                l2_bytes: bytes * 2.0,
                instructions: instr,
                flops32: flops,
                flops64: 0.0,
            },
        }
    }

    #[test]
    fn empty_timeline_is_zero() {
        let m = HardwareMetrics::from_timeline(&Timeline::new(), &DeviceProfile::gtx1660_super());
        assert_eq!(m, HardwareMetrics::default());
    }

    #[test]
    fn throughput_is_bytes_over_span() {
        let mut tl = Timeline::new();
        tl.push(kernel_iv(0.0, 2.0, 100e9, 1e9, 4e9));
        let m = HardwareMetrics::from_timeline(&tl, &DeviceProfile::gtx1660_super());
        assert!((m.dram_throughput - 50e9).abs() < 1.0);
        assert!((m.l2_throughput - 100e9).abs() < 1.0);
        assert!((m.gflops - 2.0).abs() < 1e-9);
        assert_eq!(m.span, 2.0);
    }

    #[test]
    fn faster_schedule_shows_higher_throughput() {
        // Same work in half the time → 2x every rate metric (the paper's
        // Fig. 12 observation).
        let mut slow = Timeline::new();
        slow.push(kernel_iv(0.0, 1.0, 10e9, 1e9, 1e9));
        slow.push(kernel_iv(1.0, 2.0, 10e9, 1e9, 1e9));
        let mut fast = Timeline::new();
        fast.push(kernel_iv(0.0, 1.0, 10e9, 1e9, 1e9));
        fast.push(kernel_iv(0.0, 1.0, 10e9, 1e9, 1e9));
        let dev = DeviceProfile::gtx1660_super();
        let ms = HardwareMetrics::from_timeline(&slow, &dev);
        let mf = HardwareMetrics::from_timeline(&fast, &dev);
        assert!((mf.dram_throughput / ms.dram_throughput - 2.0).abs() < 1e-9);
        assert!((mf.ipc / ms.ipc - 2.0).abs() < 1e-9);
        assert!((mf.gflops / ms.gflops - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ipc_uses_device_clock() {
        let dev = DeviceProfile::gtx1660_super();
        let mut tl = Timeline::new();
        // instructions = 1 second worth of full issue on all SMs → IPC
        // equals the issue width baked into clock_hz bookkeeping (128).
        tl.push(kernel_iv(0.0, 1.0, 0.0, dev.instr_rate, 0.0));
        let m = HardwareMetrics::from_timeline(&tl, &dev);
        assert!((m.ipc - 128.0).abs() < 1e-6);
    }
}
