#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

//! # dag — the computation DAG with automatic dependency inference
//!
//! This crate implements §IV-A of the paper: GPU-touching operations
//! (kernels, CPU accesses to managed arrays, library calls) become
//! *computational elements* — vertices of a DAG built **incrementally at
//! run time**, with data dependencies inferred from the argument lists
//! instead of being declared by the user.
//!
//! ## Dependency sets
//!
//! Every vertex carries a *dependency set*, initially the set of all its
//! arguments. An argument is removed from the set when a subsequent
//! computation **writes** it (the new writer takes over responsibility for
//! ordering on that value); once a vertex's set is empty it can no longer
//! introduce dependencies and leaves the *frontier* of active vertices.
//! Read-only (`const`) arguments get the special rules of the paper's
//! Fig. 3:
//!
//! * a read-only use depends on the value's last **writer** but does *not*
//!   consume the argument from the writer's set — so any number of readers
//!   can hang off the same writer and run concurrently (cases A and C);
//! * a write after reads depends on the **readers** (write-after-read
//!   anti-dependency), not on the original writer, and consumes the value
//!   from everyone's sets (case B).
//!
//! The DAG deliberately never sees the whole program: only the frontier
//! is maintained, which is what allows the host program to use arbitrary
//! control flow (§IV-A: "The DAG is built at run time, not at
//! compile-time or eagerly").
//!
//! ## Generational storage
//!
//! Because only the frontier matters, everything behind it is garbage: a
//! long-running host program must not accumulate one vertex per launch
//! forever. Vertex ids are allocated monotonically and never reused;
//! [`ComputationDag::compact`] reclaims fully-retired vertices together
//! with their edges and per-value ordering state, keeping live ids
//! stable, and [`ComputationDag::maybe_compact`] triggers the same
//! reclamation automatically once retired vertices dominate storage.
//! Lifetime vs resident counts are exposed via [`ComputationDag::len`],
//! [`ComputationDag::stored_len`] and [`ComputationDag::live_len`].

//!
//! ## Arena storage for scheduler bookkeeping
//!
//! The same monotonic-id discipline lets every per-vertex (and per-value)
//! side table drop hashing entirely: [`DenseMap`]/[`DenseSet`] address a
//! sliding `VecDeque` window by `id - base`, giving O(1) hash-free
//! lookups on the launch hot path while retirement trims the window back
//! to the live frontier.

mod dense;
mod dot;
mod graph;
mod reach;
mod vertex;

pub use dense::{DenseKey, DenseMap, DenseSet};
pub use dot::to_dot;
pub use graph::{ComputationDag, DepEdge};
pub use reach::Reachability;
pub use vertex::{ArgAccess, ElementKind, Value, Vertex, VertexId};

#[cfg(test)]
mod prop_tests;
