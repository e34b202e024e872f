//! The deterministic multi-tenant service core.
//!
//! [`ServiceCore`] owns one scheduler runtime ([`GrCuda`]) and
//! multiplexes any number of *tenants* over it. It is deliberately
//! single-threaded: given the same sequence of calls it produces a
//! bit-identical virtual timeline, which is what makes the `serve.*`
//! benchmark keys gateable. The threaded front-end
//! ([`crate::serve::Server`] / [`crate::serve::Client`]) is a thin
//! mpsc shell around this type — all serving semantics live here.
//!
//! Three properties the core maintains:
//!
//! * **Isolation** — every array and kernel handle is scoped to the
//!   tenant that created it; using another tenant's handle fails with
//!   [`ServeError::CrossTenant`] before touching the scheduler.
//! * **Admission control** — a request whose launches could never fit
//!   device memory (a finite [`gpu_sim::MemoryConfig`]) is rejected at
//!   submit time with a recoverable [`ServeError::Rejected`]; the core
//!   and the other tenants are unaffected.
//! * **Bounded pipelining** — admitted requests are coalesced through
//!   [`GrCuda::launch_batch`] (host overhead charged once per cycle,
//!   across tenants) while at most `window` requests are in flight;
//!   completing a request reads one element of every array it wrote,
//!   which synchronizes exactly its producing chain, timestamps its
//!   virtual latency, and lets the scheduler retire the chain's state.

use std::collections::VecDeque;

use gpu_sim::{DeviceProfile, Grid, Topology, TypedData};
use kernels::KernelDef;

use crate::array::DeviceArray;
use crate::context::GrCuda;
use crate::kernel::{Arg, BatchLaunch, Kernel, LaunchError};
use crate::nidl::NidlParam;
use crate::options::Options;
use crate::policy::PlacementPolicy;

use super::fairness::{Admission, Fairness};

/// Identifies one tenant of a service core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub(crate) u32);

impl TenantId {
    /// Zero-based tenant index (the order tenants registered in, and
    /// the last tie-break of every fairness rule).
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to a device array inside a tenant's namespace. Only the
/// owning tenant can pass it back to the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayRef {
    pub(crate) tenant: TenantId,
    pub(crate) index: u32,
}

/// Handle to a built kernel inside a tenant's namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelRef {
    pub(crate) tenant: TenantId,
    pub(crate) index: u32,
}

/// Identifies one submitted request: the owning tenant plus a
/// per-tenant sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId {
    /// The submitting tenant.
    pub tenant: TenantId,
    /// Zero-based submission index within that tenant.
    pub seq: u64,
}

/// Element type of a service-allocated array (the NIDL buffer types).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemKind {
    /// 32-bit float (`float`).
    F32,
    /// 64-bit float (`double`).
    F64,
    /// 32-bit signed integer (`sint32`).
    I32,
    /// Byte (`char`).
    U8,
}

/// One launch argument of a [`CallSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgSpec {
    /// A tenant-owned array.
    Array(ArrayRef),
    /// A scalar by copy.
    Scalar(f64),
}

/// One kernel launch of a request.
#[derive(Debug, Clone)]
pub struct CallSpec {
    /// The kernel to launch (tenant-owned handle).
    pub kernel: KernelRef,
    /// Launch configuration.
    pub grid: Grid,
    /// Arguments in signature order.
    pub args: Vec<ArgSpec>,
}

/// A request: one dependent chain of kernel launches submitted
/// atomically, plus an optional latency deadline.
#[derive(Debug, Clone, Default)]
pub struct RequestSpec {
    /// Launches in program order (dependencies are inferred, as always).
    pub calls: Vec<CallSpec>,
    /// Relative deadline in virtual microseconds, consumed by
    /// deadline-aware fairness. `None` means best-effort; a non-finite
    /// or negative value is refused as [`ServeError::Invalid`].
    pub deadline_us: Option<f64>,
}

/// Errors surfaced by the serving layer. All but
/// [`ServeError::Unavailable`] are *recoverable per tenant*: the core
/// keeps serving every other tenant (and further requests of the
/// failing one).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The tenant id is not registered with this core.
    UnknownTenant(u32),
    /// A handle owned by one tenant was used by another.
    CrossTenant {
        /// Tenant that owns the handle.
        owner: u32,
        /// Tenant that tried to use it.
        caller: u32,
    },
    /// A handle's index does not exist in the owner's namespace.
    BadHandle(u32),
    /// Admission control rejected the request: some launch in it could
    /// never fit device memory, even after evicting everything else.
    Rejected(LaunchError),
    /// The request is malformed (signature mismatch, bad write shape,
    /// zero-length allocation, unparsable kernel).
    Invalid(String),
    /// The service thread is gone ([`crate::serve::Server::shutdown`]
    /// ran, or the server was dropped): the call never reached the
    /// core. Only the threaded front-end returns it.
    Unavailable,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            ServeError::CrossTenant { owner, caller } => {
                write!(f, "tenant {caller} used a handle owned by tenant {owner}")
            }
            ServeError::BadHandle(i) => write!(f, "handle index {i} does not exist"),
            ServeError::Rejected(e) => write!(f, "admission rejected: {e}"),
            ServeError::Invalid(m) => write!(f, "invalid request: {m}"),
            ServeError::Unavailable => write!(f, "service unavailable: it has shut down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Configuration of a service core (and of the threaded
/// [`crate::serve::Server`], which builds the core on its service
/// thread — every field is `Send`).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Simulated device profile.
    pub device: DeviceProfile,
    /// The machine behind the scheduler — devices, interconnect, nodes
    /// and device memory (a finite capacity enables admission control's
    /// rejection path) — as every other runtime takes it
    /// ([`GrCuda::with_topology`]).
    pub topology: Topology,
    /// Scheduler options.
    pub options: Options,
    /// Device-placement policy.
    pub placement: PlacementPolicy,
    /// Which tenant's request is admitted next under contention.
    pub fairness: Fairness,
    /// Maximum requests in flight; beyond it the oldest request is
    /// completed (synchronized + latency-stamped) to make room. 0 is
    /// treated as 1.
    pub window: usize,
    /// Maximum requests admitted per pump cycle — one coalesced
    /// [`GrCuda::launch_batch`] submission. 0 is treated as 1.
    pub batch_limit: usize,
}

impl ServeConfig {
    /// A single-device service with unlimited device memory, FIFO
    /// fairness and a 16-request pipeline window.
    pub fn new(device: DeviceProfile, options: Options) -> Self {
        ServeConfig {
            topology: Topology::pcie_only(1, &device),
            device,
            options,
            placement: PlacementPolicy::SingleGpu,
            fairness: Fairness::Fifo,
            window: 16,
            batch_limit: 8,
        }
    }

    /// Replace the fairness rule.
    pub fn with_fairness(mut self, fairness: Fairness) -> Self {
        self.fairness = fairness;
        self
    }

    /// Replace the pipeline window and per-cycle admission budget.
    pub fn with_pipeline(mut self, window: usize, batch_limit: usize) -> Self {
        self.window = window;
        self.batch_limit = batch_limit;
        self
    }

    /// Serve on `topology` — any machine a [`Topology`] describes: a
    /// preset over several devices, a flattened [`gpu_sim::Cluster`],
    /// either with finite memory — placing launches with `placement`.
    pub fn on(mut self, topology: Topology, placement: PlacementPolicy) -> Self {
        self.topology = topology;
        self.placement = placement;
        self
    }
}

/// Point-in-time statistics of one tenant.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant display name.
    pub name: String,
    /// Weighted-round-robin share.
    pub weight: u32,
    /// Requests accepted by admission control.
    pub submitted: u64,
    /// Requests completed (latency recorded).
    pub completed: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Kernel launches submitted to the scheduler.
    pub launches: u64,
    /// Those launches by kernel signature, in signature order — who ran
    /// what, the attribution that lets an operator (or a calibration
    /// consumer) explain where a tenant's device time went. Counted at
    /// admission, like `launches`; a signature never launched has no
    /// row.
    pub kernels: Vec<(String, u64)>,
    /// Requests waiting in the tenant's queue.
    pub queued: usize,
    /// Virtual latency (seconds) of every completed request, in
    /// completion order.
    pub latencies: Vec<f64>,
}

/// A request accepted by admission control, waiting in its tenant's
/// queue with resolved (owned) launch arguments. A call names its
/// kernel the way the caller did — by index into the tenant's kernel
/// table, which holds it for as long as the service runs.
pub(super) struct PendingRequest {
    pub(super) id: RequestId,
    pub(super) arrival: f64,
    pub(super) deadline: Option<f64>,
    pub(super) calls: Vec<(u32, Grid, Vec<Arg>)>,
    pub(super) written: Vec<DeviceArray>,
}

/// A request whose launches have been submitted to the scheduler.
struct InFlight {
    id: RequestId,
    arrival: f64,
    written: Vec<DeviceArray>,
}

/// One row of the tenant table. The fairness rules read `weight` and
/// the head of `queue` straight off it ([`Admission::next`]).
#[derive(Default)]
pub(super) struct Tenant {
    name: String,
    pub(super) weight: u32,
    arrays: Vec<DeviceArray>,
    kernels: Vec<Kernel>,
    /// Launches admitted per entry of `kernels`, indexed like it.
    kernel_launches: Vec<u64>,
    pub(super) queue: VecDeque<PendingRequest>,
    submitted: u64,
    completed: u64,
    rejected: u64,
    launches: u64,
    latencies: Vec<f64>,
}

impl Tenant {
    pub(super) fn new(name: &str, weight: u32) -> Self {
        Tenant {
            name: name.to_string(),
            weight,
            ..Tenant::default()
        }
    }

    /// The tenant's [`TenantStats`], launches merged by kernel name.
    fn stats(&self) -> TenantStats {
        let names = self.kernels.iter().map(Kernel::name);
        let mut kernels: Vec<_> = names.zip(self.kernel_launches.iter().copied()).collect();
        kernels.retain(|&(_, n)| n > 0);
        kernels.sort_by_key(|&(name, _)| name);
        // One row per signature: a kernel registered twice is one name.
        let rows = kernels.chunk_by(|a, b| a.0 == b.0);
        let kernels = rows.map(|r| (r[0].0.to_string(), r.iter().map(|&(_, n)| n).sum()));
        TenantStats {
            name: self.name.clone(),
            weight: self.weight,
            submitted: self.submitted,
            completed: self.completed,
            rejected: self.rejected,
            launches: self.launches,
            kernels: kernels.collect(),
            queued: self.queue.len(),
            latencies: self.latencies.clone(),
        }
    }
}

/// The deterministic multi-tenant service core. See the module docs.
pub struct ServiceCore {
    g: GrCuda,
    admission: Admission,
    window: usize,
    batch_limit: usize,
    tenants: Vec<Tenant>,
    inflight: VecDeque<InFlight>,
}

impl ServiceCore {
    /// Build a core (and its scheduler runtime) from a configuration.
    pub fn new(config: ServeConfig) -> Self {
        ServiceCore {
            g: GrCuda::with_topology(
                config.device,
                config.topology,
                config.options,
                config.placement,
            ),
            admission: Admission::new(config.fairness),
            window: config.window.max(1),
            batch_limit: config.batch_limit.max(1),
            tenants: Vec::new(),
            inflight: VecDeque::new(),
        }
    }

    /// The underlying scheduler runtime (timeline, stats, audit).
    pub fn runtime(&self) -> &GrCuda {
        &self.g
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.g.now()
    }

    /// Register a tenant with a weighted-round-robin share.
    pub fn add_tenant(&mut self, name: &str, weight: u32) -> TenantId {
        let id = TenantId(self.tenants.len() as u32);
        self.tenants.push(Tenant::new(name, weight));
        id
    }

    fn tenant(&self, t: TenantId) -> Result<&Tenant, ServeError> {
        self.tenants
            .get(t.index())
            .ok_or(ServeError::UnknownTenant(t.0))
    }

    fn tenant_mut(&mut self, t: TenantId) -> Result<&mut Tenant, ServeError> {
        self.tenants
            .get_mut(t.index())
            .ok_or(ServeError::UnknownTenant(t.0))
    }

    fn resolve_array(&self, caller: TenantId, r: ArrayRef) -> Result<&DeviceArray, ServeError> {
        if r.tenant != caller {
            return Err(ServeError::CrossTenant {
                owner: r.tenant.0,
                caller: caller.0,
            });
        }
        self.tenant(caller)?
            .arrays
            .get(r.index as usize)
            .ok_or(ServeError::BadHandle(r.index))
    }

    fn resolve_kernel(&self, caller: TenantId, r: KernelRef) -> Result<&Kernel, ServeError> {
        if r.tenant != caller {
            return Err(ServeError::CrossTenant {
                owner: r.tenant.0,
                caller: caller.0,
            });
        }
        self.tenant(caller)?
            .kernels
            .get(r.index as usize)
            .ok_or(ServeError::BadHandle(r.index))
    }

    /// Allocate an array in the tenant's namespace. An unknown tenant
    /// allocates nothing; no elements, or more than an address space
    /// holds, is [`ServeError::Invalid`].
    pub fn alloc(&mut self, t: TenantId, kind: ElemKind, n: usize) -> Result<ArrayRef, ServeError> {
        self.tenant(t)?;
        if n == 0 {
            return Err(ServeError::Invalid("zero-length allocation".into()));
        }
        let data = match kind {
            ElemKind::F32 => zeros(n, 0.0).map(TypedData::F32),
            ElemKind::F64 => zeros(n, 0.0).map(TypedData::F64),
            ElemKind::I32 => zeros(n, 0).map(TypedData::I32),
            ElemKind::U8 => zeros(n, 0).map(TypedData::U8),
        };
        let data = data.ok_or_else(|| {
            ServeError::Invalid(format!("{n} elements overflow the address space"))
        })?;
        let arr = self.g.array(data);
        let tenant = self.tenant_mut(t)?;
        tenant.arrays.push(arr);
        Ok(ArrayRef {
            tenant: t,
            index: (tenant.arrays.len() - 1) as u32,
        })
    }

    /// Copy host data into a tenant array (type and length must match).
    pub fn write(&mut self, t: TenantId, r: ArrayRef, data: &TypedData) -> Result<(), ServeError> {
        let arr = self.resolve_array(t, r)?;
        if arr.type_name() != data.type_name() {
            return Err(ServeError::Invalid(format!(
                "write of {} data into a {} array",
                data.type_name(),
                arr.type_name()
            )));
        }
        if arr.len() != data.len() {
            return Err(ServeError::Invalid(format!(
                "write of {} elements into an array of {}",
                data.len(),
                arr.len()
            )));
        }
        arr.copy_from(data);
        Ok(())
    }

    /// Fill a tenant array with a scalar (cast to the element type).
    pub fn fill(&mut self, t: TenantId, r: ArrayRef, v: f64) -> Result<(), ServeError> {
        self.resolve_array(t, r)?.fill(v);
        Ok(())
    }

    /// Read one element of a tenant array (cast up to `f64`). Reads are
    /// *read-your-writes*: the tenant's queued and in-flight requests
    /// are driven to completion first (requests a read races would
    /// otherwise still be waiting in the admission queue, invisible to
    /// the scheduler's fine-grained synchronization), then the host
    /// access synchronizes with exactly the GPU work producing the
    /// array.
    pub fn read(&mut self, t: TenantId, r: ArrayRef, i: usize) -> Result<f64, ServeError> {
        {
            let arr = self.resolve_array(t, r)?;
            if i >= arr.len() {
                return Err(ServeError::Invalid(format!(
                    "read of element {i} from an array of {}",
                    arr.len()
                )));
            }
        }
        self.drain_tenant(t)?;
        Ok(self.resolve_array(t, r)?.get(i))
    }

    /// Build a kernel in the tenant's namespace.
    pub fn register_kernel(
        &mut self,
        t: TenantId,
        def: &'static KernelDef,
    ) -> Result<KernelRef, ServeError> {
        self.tenant(t)?;
        let k = self
            .g
            .build_kernel(def)
            .map_err(|e| ServeError::Invalid(format!("kernel `{}`: {e}", def.name)))?;
        let tenant = self.tenant_mut(t)?;
        tenant.kernels.push(k);
        tenant.kernel_launches.push(0);
        Ok(KernelRef {
            tenant: t,
            index: (tenant.kernels.len() - 1) as u32,
        })
    }

    /// Submit a request. Validates handles and signatures, runs
    /// admission control, and enqueues the request for the next pump
    /// cycles — nothing reaches the scheduler yet. The error path never
    /// touches scheduler state, so a rejected request cannot stall
    /// other tenants.
    pub fn submit(&mut self, t: TenantId, spec: RequestSpec) -> Result<RequestId, ServeError> {
        if spec.calls.is_empty() {
            return Err(ServeError::Invalid("request with no launches".into()));
        }
        if spec.deadline_us.is_some_and(|d| !d.is_finite() || d < 0.0) {
            return Err(ServeError::Invalid(
                "deadline must be finite and non-negative".into(),
            ));
        }
        let mut calls: Vec<(u32, Grid, Vec<Arg>)> = Vec::with_capacity(spec.calls.len());
        let mut written: Vec<DeviceArray> = Vec::new();
        for c in &spec.calls {
            let kernel = self.resolve_kernel(t, c.kernel)?;
            let mut args: Vec<Arg> = Vec::with_capacity(c.args.len());
            for a in &c.args {
                match a {
                    ArgSpec::Array(r) => args.push(Arg::Array(self.resolve_array(t, *r)?.clone())),
                    ArgSpec::Scalar(v) => args.push(Arg::Scalar(*v)),
                }
            }
            // Admission control is the scheduler's own acceptance check
            // applied *before* the request enters the queue — so a
            // can-never-fit launch is a clean per-tenant error, not a
            // mid-batch failure.
            match self.g.accept(kernel, &args) {
                Ok(()) => {}
                Err(e @ LaunchError::OutOfMemory { .. }) => {
                    self.tenant_mut(t)?.rejected += 1;
                    return Err(ServeError::Rejected(e));
                }
                Err(e) => return Err(ServeError::Invalid(e.to_string())),
            }
            for (p, a) in kernel.signature().params.iter().zip(&args) {
                if let (
                    NidlParam::Pointer {
                        read_only: false, ..
                    },
                    Arg::Array(arr),
                ) = (p, a)
                {
                    if !written
                        .iter()
                        .any(|w| w.raw_buffer().same_buffer(&arr.raw_buffer()))
                    {
                        written.push(arr.clone());
                    }
                }
            }
            calls.push((c.kernel.index, c.grid, args));
        }
        let arrival = self.g.now();
        let tenant = self.tenant_mut(t)?;
        let id = RequestId {
            tenant: t,
            seq: tenant.submitted,
        };
        tenant.submitted += 1;
        tenant.queue.push_back(PendingRequest {
            id,
            arrival,
            deadline: spec.deadline_us.map(|d| arrival + d * 1e-6),
            calls,
            written,
        });
        Ok(id)
    }

    /// True when no request is queued or in flight.
    pub fn idle(&self) -> bool {
        self.inflight.is_empty() && self.tenants.iter().all(|t| t.queue.is_empty())
    }

    /// One pump cycle: make room in the pipeline window, ask the
    /// fairness rule which tenants' head requests to admit, and
    /// submit them as **one** coalesced [`GrCuda::launch_batch`] — the
    /// host-API and scheduling overheads are charged once for the whole
    /// cross-tenant cycle. Returns the number of requests admitted.
    pub fn pump(&mut self) -> usize {
        if self.tenants.iter().all(|t| t.queue.is_empty()) {
            return 0;
        }
        // Open a full batch worth of slots before admitting: retiring
        // only to `window - 1` would shrink every steady-state batch to
        // a single request and forfeit the cross-tenant coalescing.
        let low_water = self.window.saturating_sub(self.batch_limit);
        while self.inflight.len() > low_water {
            self.complete_oldest();
        }
        let room = self.batch_limit.min(self.window - self.inflight.len());
        let mut admitted: Vec<PendingRequest> = Vec::new();
        for _ in 0..room {
            let Some(ti) = self.admission.next(&self.tenants) else {
                break;
            };
            let Some(req) = self.tenants[ti].queue.pop_front() else {
                break;
            };
            let tenant = &mut self.tenants[ti];
            tenant.launches += req.calls.len() as u64;
            for &(k, _, _) in &req.calls {
                tenant.kernel_launches[k as usize] += 1;
            }
            admitted.push(req);
        }
        if admitted.is_empty() {
            return 0;
        }
        let batch: Vec<BatchLaunch<'_>> = admitted
            .iter()
            .flat_map(|r| {
                let kernels = &self.tenants[r.id.tenant.index()].kernels;
                r.calls.iter().map(move |(k, grid, args)| BatchLaunch {
                    kernel: &kernels[*k as usize],
                    grid: *grid,
                    args,
                })
            })
            .collect();
        // Admission validated signatures and the memory bound, so the
        // scheduler cannot refuse the coalesced batch.
        self.g
            .launch_batch(&batch)
            .expect("admitted request failed validation");
        let count = admitted.len();
        for req in admitted {
            self.inflight.push_back(InFlight {
                id: req.id,
                arrival: req.arrival,
                written: req.written,
            });
        }
        count
    }

    /// Complete the oldest in-flight request: event-wait on every array
    /// it wrote (synchronizing exactly its producing chain, which also
    /// lets the scheduler retire that chain's bookkeeping), then record
    /// its virtual latency. The wait is migration-free — outputs stay
    /// device-resident until a tenant actually reads them — so
    /// completing concurrent tenants' requests does not serialize them
    /// through the unified-memory fault controller. Returns `false`
    /// when nothing was in flight.
    pub fn complete_oldest(&mut self) -> bool {
        let Some(req) = self.inflight.pop_front() else {
            return false;
        };
        for arr in &req.written {
            arr.sync_writes();
        }
        let latency = self.g.now() - req.arrival;
        let tenant = &mut self.tenants[req.id.tenant.index()];
        tenant.completed += 1;
        tenant.latencies.push(latency);
        true
    }

    /// Pump until every queued request is admitted, then complete all
    /// in-flight requests.
    pub fn drain_all(&mut self) {
        loop {
            let admitted = self.pump();
            if admitted == 0 && self.tenants.iter().all(|t| t.queue.is_empty()) {
                break;
            }
        }
        while self.complete_oldest() {}
    }

    /// Drain one tenant: pump (and, when its requests are merely in
    /// flight, complete the pipeline head) until the tenant has nothing
    /// queued or in flight. Other tenants' requests keep flowing —
    /// admission order is still the fairness rule's.
    pub(crate) fn drain_tenant(&mut self, t: TenantId) -> Result<(), ServeError> {
        self.tenant(t)?;
        loop {
            let queued = self.tenants[t.index()].queue.len();
            let inflight = self.inflight.iter().any(|r| r.id.tenant == t);
            if queued == 0 && !inflight {
                return Ok(());
            }
            if queued > 0 {
                // Every rule admits somebody while anybody is queued,
                // and a cycle always opens at least one slot.
                self.pump();
            } else {
                self.complete_oldest();
            }
        }
    }

    /// Snapshot one tenant's statistics.
    pub fn tenant_stats(&self, t: TenantId) -> Result<TenantStats, ServeError> {
        self.tenant(t).map(Tenant::stats)
    }

    /// Snapshot every tenant's statistics, in tenant-id order.
    pub fn all_stats(&self) -> Vec<TenantStats> {
        self.tenants.iter().map(Tenant::stats).collect()
    }

    /// Housekeeping for long-lived services: when fully idle, sync the
    /// scheduler (running its retire audit) and drop the accumulated
    /// timeline, so the scheduler's state and the timeline stay
    /// O(live work). Both are pure reclamation — the kernel history was
    /// recorded as each kernel completed and is untouched. The service
    /// itself does not stay O(live work): every tenant keeps one latency
    /// per completed request for as long as the core runs (see
    /// [`TenantStats::latencies`]). No-op while anything is queued or in
    /// flight.
    pub fn maintain(&mut self) {
        if self.idle() {
            self.g.sync();
            self.g.clear_timeline();
        }
    }
}

/// `n` copies of `zero`, or `None` when their byte length overflows
/// `isize::MAX` (the most one allocation may hold: asking for more
/// panics, and behind a `Server` that would take every tenant down).
fn zeros<T: Clone>(n: usize, zero: T) -> Option<Vec<T>> {
    let bytes = n.checked_mul(std::mem::size_of::<T>());
    let fits = bytes.is_some_and(|b| b <= isize::MAX as usize);
    fits.then(|| vec![zero; n])
}
