#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

//! # grcuda — the paper's runtime scheduler
//!
//! This crate is the reproduction of the paper's contribution (§IV): a
//! **low-profile runtime scheduler for multi-task, asynchronous GPU
//! computations** that
//!
//! 1. wraps every GPU-touching operation in a *computational element*,
//! 2. infers data dependencies automatically from kernel signatures
//!    (`const`/`in` NIDL annotations mark read-only arguments) and builds
//!    a computation DAG incrementally at run time,
//! 3. maps independent computations onto CUDA streams through a *stream
//!    manager* (FIFO stream reuse, create-on-demand, first child inherits
//!    the parent's stream),
//! 4. synchronizes across streams with events — never blocking the host
//!    unless the CPU actually reads GPU-owned data,
//! 5. prefetches unified-memory arrays automatically on fault-capable
//!    devices, and restricts array visibility on pre-Pascal ones,
//! 6. keeps its own memory **O(live computations)**: every retire path
//!    (full [`GrCuda::sync`], fine-grained CPU accesses, the pre-Pascal
//!    full-sync branch) drops the retired vertices' stream claims and
//!    vertex→task/stream entries and compacts the DAG, so a service
//!    issuing millions of launches does not grow without bound. The
//!    gauges are exposed via [`GrCuda::snapshot`]; the `soak`
//!    suite of `crates/bench`'s `trajectory` binary asserts them under
//!    sustained traffic.
//!
//! The host program is written *as if it were serial* — launch kernels,
//! read array elements — and the scheduler extracts the task parallelism:
//!
//! ```
//! use grcuda::{GrCuda, Options, Arg};
//! use gpu_sim::{DeviceProfile, Grid};
//! use kernels::vec_ops::{SQUARE, REDUCE_SUM_DIFF};
//!
//! let g = GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel());
//! let n = 1 << 16;
//! let x = g.array_f32(n);
//! let y = g.array_f32(n);
//! let z = g.array_f32(1);
//! x.fill_f32(2.0);
//! y.fill_f32(1.0);
//!
//! let square = g.build_kernel(&SQUARE).unwrap();
//! let reduce = g.build_kernel(&REDUCE_SUM_DIFF).unwrap();
//! let grid = Grid::d1(64, 256);
//! // The two squares are independent: the scheduler runs them on
//! // different streams, then fences the reduction on both.
//! square.launch(grid, &[Arg::array(&x), Arg::scalar(n as f64)]).unwrap();
//! square.launch(grid, &[Arg::array(&y), Arg::scalar(n as f64)]).unwrap();
//! reduce
//!     .launch(grid, &[Arg::array(&x), Arg::array(&y), Arg::array(&z), Arg::scalar(n as f64)])
//!     .unwrap();
//! // Reading z[0] synchronizes exactly the work that produces it.
//! assert_eq!(z.get_f32(0), (n as f32) * 3.0);
//! ```

mod array;
mod audit;
mod context;
mod kernel;
mod library;
mod nidl;
mod options;
mod partition;
mod policy;
pub mod serve;
pub mod stream_manager;

pub use array::DeviceArray;
pub use audit::{AuditReport, ConflictKind, Lint, LintKind, ScheduleViolation};
pub use context::{ClusterStats, GrCuda, Snapshot};
pub use kernel::{Arg, BatchLaunch, Kernel, LaunchError};
pub use library::Library;
pub use nidl::{NidlError, NidlParam, NidlType, Signature};
pub use options::{DepStreamPolicy, Options, PrefetchPolicy, SchedulePolicy, StreamReusePolicy};
pub use partition::{partition_batch, BatchPartition};
pub use policy::{DeviceSelectionPolicy, PlacementCtx, PlacementPolicy, Reads};

#[cfg(test)]
mod prop_tests;
#[cfg(test)]
mod small_scope;
