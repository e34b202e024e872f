//! # serve — concurrent multi-tenant serving on one scheduler core
//!
//! The paper's scheduler extracts parallelism from *one* serial host
//! program; this module turns it into a **multi-client service**: many
//! producers submit independent request chains, the service coalesces
//! them into shared [`launch_batch`](crate::GrCuda::launch_batch)
//! submissions (amortizing host overhead *across tenants*), and the
//! scheduler's dependency inference overlaps the tenants' chains on the
//! device — converting single-thread scheduling throughput into
//! aggregate multi-client throughput.
//!
//! Two layers:
//!
//! * [`ServiceCore`] — the deterministic single-threaded core: tenant
//!   namespaces, admission control, fairness-ordered batch coalescing,
//!   per-request virtual latency. Drive it directly for reproducible
//!   (gateable) measurements.
//! * [`Server`] / [`Client`] — the threaded shell: the core lives on a
//!   service thread; `Client` is a `Send + Clone` handle over the
//!   submission queue, so any number of OS threads can submit
//!   concurrently.
//!
//! Fairness under contention is one of three [`Fairness`] rules —
//! global [`Fairness::Fifo`], deficit [`Fairness::WeightedRoundRobin`]
//! and [`Fairness::DeadlineAware`] earliest-deadline-first — picked in
//! [`ServeConfig`] and read by one function over the tenant table, with
//! every tie-break declared there (`serve/fairness.rs`). It is not a
//! seam: a fourth rule costs one enum variant and one key in that
//! function. The machine is a seam, and the same one every other
//! runtime has: [`ServeConfig::on`] takes any [`gpu_sim::Topology`] —
//! several devices, a flattened [`gpu_sim::Cluster`], finite memory —
//! and a [`PlacementPolicy`](crate::PlacementPolicy).
//!
//! ```
//! use grcuda::serve::{ArgSpec, CallSpec, ElemKind, RequestSpec, ServeConfig, Server};
//! use gpu_sim::{DeviceProfile, Grid};
//! use grcuda::Options;
//! use kernels::vec_ops::SQUARE;
//!
//! let server = Server::start(ServeConfig::new(
//!     DeviceProfile::tesla_p100(),
//!     Options::parallel(),
//! ));
//! let client = server.client("tenant-a", 1);
//! let x = client.alloc(ElemKind::F32, 1024).unwrap();
//! client.fill(x, 3.0).unwrap();
//! let square = client.kernel(&SQUARE).unwrap();
//! client
//!     .submit(RequestSpec {
//!         calls: vec![CallSpec {
//!             kernel: square,
//!             grid: Grid::d1(4, 256),
//!             args: vec![ArgSpec::Array(x), ArgSpec::Scalar(1024.0)],
//!         }],
//!         deadline_us: None,
//!     })
//!     .unwrap();
//! let stats = client.drain().unwrap();
//! assert_eq!(stats.completed, 1);
//! assert_eq!(client.read(x, 0).unwrap(), 9.0);
//! server.shutdown();
//! ```

mod core;
mod fairness;
mod server;

pub use self::core::{
    ArgSpec, ArrayRef, CallSpec, ElemKind, KernelRef, RequestId, RequestSpec, ServeConfig,
    ServeError, ServiceCore, TenantId, TenantStats,
};
pub use fairness::Fairness;
pub use server::{Client, Server, ServiceReport};
