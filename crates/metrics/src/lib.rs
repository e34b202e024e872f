#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

//! # metrics — timeline analysis for the paper's evaluation figures
//!
//! Post-processing over [`gpu_sim::Timeline`]s:
//!
//! * [`OverlapMetrics`] — the four overlap classes of §V-F / Fig. 10–11
//!   (CT, TC, CC, TOT);
//! * [`HardwareMetrics`] — the hardware-utilization metrics of Fig. 12
//!   (device-memory throughput, L2 throughput, IPC, GFLOPS), computed the
//!   way the paper does: per-kernel counters collected separately and
//!   combined with the execution timeline;
//! * [`critical_path()`] over [`PathNode`]s — the contention-free
//!   execution-time bound of Fig. 9 (longest dependency path using solo
//!   durations);
//! * [`LatencySummary`] and [`percentile`] — nearest-rank per-request
//!   latency percentiles (p50/p90/p99) for the multi-tenant serving
//!   benchmarks;
//! * [`render_timeline`] — the Fig. 10-style execution timeline
//!   rendering;
//! * [`to_chrome_trace`] — Perfetto/`chrome://tracing` JSON export of
//!   the same timelines.

mod ascii_timeline;
mod chrome_trace;
mod critical_path;
mod hardware;
mod interval_ops;
mod latency;
mod overlap;

pub use ascii_timeline::render_timeline;
pub use chrome_trace::to_chrome_trace;
pub use critical_path::{critical_path, PathNode};
pub use hardware::HardwareMetrics;
pub use latency::{percentile, LatencySummary};
pub use overlap::OverlapMetrics;
