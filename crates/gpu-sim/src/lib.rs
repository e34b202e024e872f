#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

//! # gpu-sim — a deterministic fluid-rate GPU simulator
//!
//! This crate is the hardware substrate for the grcuda-rs reproduction of
//! *"DAG-based Scheduling with Resource Sharing for Multi-task Applications
//! in a Polyglot GPU Runtime"* (Parravicini et al., IPDPS 2021).
//!
//! The paper evaluates its scheduler on three real NVIDIA GPUs. No GPU is
//! available in this environment, so we model the device at the level the
//! paper's experiments actually exercise: **scheduling and resource
//! contention**, not instruction semantics. The simulator is a discrete-event
//! engine over a *fluid-rate* ("processor sharing") resource model:
//!
//! * Every GPU-side operation (kernel, host→device copy, device→host copy,
//!   unified-memory fault migration) is a [`TaskSpec`] with a
//!   contention-independent *fixed latency* (launch/setup overhead) followed
//!   by a *fluid phase* whose solo duration comes from an analytic cost
//!   model ([`KernelCost`]).
//! * Concurrent tasks share device resources — SM thread capacity, DRAM
//!   bandwidth, L2 bandwidth, fp64 throughput, the PCIe link (per
//!   direction), and the unified-memory page-fault controller — under
//!   **max–min fair** allocation computed by progressive filling
//!   ([`fluid`]). Two kernels that together fit in the SMs run at full
//!   speed (space-sharing); two bandwidth-bound kernels slow each other
//!   down (the contention the paper measures in its Fig. 9).
//! * Dependencies between tasks form a DAG inside the engine; CUDA streams
//!   and events in the [`cuda-sim`] crate are realized as dependency chains
//!   over this engine.
//! * Each task may carry an `on_complete` [`Payload`] that runs the
//!   kernel's *functional* CPU implementation when the task finishes in
//!   virtual time, so simulated programs also produce real, checkable
//!   numbers. A race detector ([`RaceReport`]) flags
//!   temporally-overlapping tasks with conflicting read/write sets —
//!   i.e. schedules where a scheduler forgot a dependency.
//!
//! The engine is fully deterministic: virtual time is `f64` seconds,
//! event ties are broken by submission order, and no wall-clock or OS
//! scheduling influences results.
//!
//! [`cuda-sim`]: ../cuda_sim/index.html
//!
//! ## Quick example
//!
//! ```
//! use gpu_sim::{Engine, DeviceProfile, TaskSpec, TaskKind};
//!
//! let mut eng = Engine::new(DeviceProfile::gtx1660_super());
//! // Two independent 1 ms "kernels" that each demand 30% of the SMs:
//! let kernel = |label, stream| {
//!     let mut spec = TaskSpec::kernel(label, stream).fluid(1e-3);
//!     spec.demand.sm_frac = 0.3;
//!     spec
//! };
//! let a = eng.submit(kernel("a", 0), &[]);
//! let b = eng.submit(kernel("b", 1), &[]);
//! eng.sync_all();
//! // They space-share: total elapsed ≈ 1 ms + overheads, not 2 ms.
//! assert!(eng.now() < 1.5e-3);
//! let _ = (a, b);
//! ```

mod calibrate;
mod cost;
mod data;
mod engine;
pub mod fluid;
mod memory_manager;
mod profile;
#[cfg(test)]
mod prop_tests;
mod race;
mod recycle;
mod task;
mod timeline;
mod topology;

pub use calibrate::{Calibration, CANDIDATE_BLOCK_SIZES};
pub use cost::{Grid, KernelCost};
pub use data::{DataBuffer, TypedData, ValueId};
pub use engine::{Engine, EngineStats, LinkTraffic, TaskId};
pub use memory_manager::{EvictionPolicy, MemoryConfig, MemoryManager, MemoryStats};
pub use profile::{Architecture, DeviceProfile};
pub use race::RaceReport;
pub use recycle::Recycler;
pub use task::{KernelBody, KernelFunc, Payload, ResourceDemand, TaskKind, TaskMeta, TaskSpec};
pub use timeline::{Interval, Timeline};
pub use topology::{Cluster, Dir, Endpoint, Link, LinkId, NicKind, Topology, TopologyKind};

/// Virtual time, in seconds.
pub type Time = f64;

/// Convert seconds to milliseconds (presentation helper used everywhere in
/// the experiment binaries).
#[inline]
pub fn ms(t: Time) -> f64 {
    t * 1e3
}

/// Convert seconds to microseconds.
#[inline]
pub fn us(t: Time) -> f64 {
    t * 1e6
}
