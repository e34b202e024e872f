#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

//! # cuda-sim — a CUDA-runtime-shaped API over the [`gpu_sim`] engine
//!
//! This crate plays the role the CUDA Runtime/Driver API plays in the
//! paper's architecture diagram (Fig. 5): everything above it — the
//! GrCUDA execution context, the stream manager, and the hand-written
//! C++ baselines of §V-D — talks to the GPU exclusively through this
//! interface. It provides:
//!
//! * **contexts** ([`Cuda`]): one simulated device plus its memory state;
//! * **streams** ([`StreamId`]): in-order queues realized as dependency
//!   chains on the engine; operations on different streams are
//!   independent unless explicitly synchronized;
//! * **events** ([`EventId`]): zero-duration markers used for
//!   cross-stream synchronization without blocking the host
//!   (`cudaEventRecord`/`cudaStreamWaitEvent` analogues);
//! * **unified memory** ([`UnifiedArray`]): host-visible arrays with a
//!   residency state machine. On Pascal+ devices, kernels touching
//!   non-resident arrays trigger *fault migrations* (slow, serialized
//!   through the fault controller) unless the data was *prefetched*
//!   (full-bandwidth bulk copy); on pre-Pascal devices the runtime must
//!   copy eagerly before each kernel;
//! * **CUDA Graphs** ([`CudaGraph`]): DAGs of operations with
//!   manually-specified dependencies, plus *stream capture* — the two
//!   baselines the paper compares against in Fig. 8. Faithful to the
//!   original API of the paper's era, prefetch operations cannot be
//!   captured into a graph, which is exactly why the paper's scheduler
//!   beats CUDA Graphs on fault-capable devices.

mod context;
mod exec;
mod graph;
mod memory;
mod route;

pub use context::{Counters, Cuda, EventId, Migrations, Moved, StreamId};
pub use exec::{KernelExec, Launch};
pub use graph::{CudaGraph, GraphNodeId};
pub use memory::{MemEvent, MemEventKind, Residency, UnifiedArray};

#[cfg(test)]
mod prop_tests;
