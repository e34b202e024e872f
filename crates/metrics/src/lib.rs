#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! # metrics — timeline analysis for the paper's evaluation figures
//!
//! Post-processing over [`gpu_sim::Timeline`]s:
//!
//! * [`overlap`] — the four overlap classes of §V-F / Fig. 10–11
//!   (CT, TC, CC, TOT);
//! * [`hardware`] — the hardware-utilization metrics of Fig. 12
//!   (device-memory throughput, L2 throughput, IPC, GFLOPS), computed the
//!   way the paper does: per-kernel counters collected separately and
//!   combined with the execution timeline;
//! * [`mod@critical_path`] — the contention-free execution-time bound of
//!   Fig. 9 (longest dependency path using solo durations);
//! * [`latency`] — nearest-rank per-request latency percentiles
//!   (p50/p90/p99) for the multi-tenant serving benchmarks;
//! * [`memory`] — per-device resident-bytes timelines under finite
//!   device memory (peak/mean pressure from the memory manager's step
//!   samples);
//! * [`ascii_timeline`] — the Fig. 10-style execution timeline rendering;
//! * [`chrome_trace`] — Perfetto/`chrome://tracing` JSON export of the
//!   same timelines.

pub mod ascii_timeline;
pub mod chrome_trace;
pub mod critical_path;
pub mod hardware;
pub mod interval_ops;
pub mod latency;
pub mod memory;
pub mod overlap;

pub use ascii_timeline::render_timeline;
pub use chrome_trace::to_chrome_trace;
pub use critical_path::critical_path;
pub use hardware::HardwareMetrics;
pub use latency::{percentile, LatencySummary};
pub use memory::MemoryTimeline;
pub use overlap::OverlapMetrics;
