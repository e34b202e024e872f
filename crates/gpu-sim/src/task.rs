//! Task descriptions submitted to the [`crate::engine::Engine`].

use std::rc::Rc;

use crate::cost::Grid;
use crate::data::{DataBuffer, ValueId};
use crate::profile::DeviceProfile;
use crate::recycle::Recycler;
use crate::topology::{Dir, Link, LinkId};
use crate::Time;

/// What kind of operation a task models. Drives timeline classification
/// (the overlap metrics of the paper's Fig. 10/11 distinguish kernel
/// computation from the two transfer directions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// A GPU kernel execution.
    Kernel,
    /// Bulk host→device copy (explicit copy or unified-memory prefetch).
    CopyH2D,
    /// Bulk device→host copy.
    CopyD2H,
    /// Direct device→device copy over a peer-to-peer interconnect link.
    CopyP2P,
    /// On-demand unified-memory migration to the device (page-fault path).
    FaultH2D,
    /// On-demand unified-memory migration back to the host.
    FaultD2H,
    /// Zero-duration synchronization marker (CUDA event analogue): it
    /// orders the tasks around it and leaves no timeline interval.
    Marker,
}

impl TaskKind {
    /// True for the bulk-copy, peer-to-peer and fault-migration kinds.
    pub(crate) fn is_transfer(self) -> bool {
        matches!(
            self,
            TaskKind::CopyH2D
                | TaskKind::CopyD2H
                | TaskKind::CopyP2P
                | TaskKind::FaultH2D
                | TaskKind::FaultD2H
        )
    }

    /// The way a host-side transfer of this kind crosses its host link,
    /// whose `a` end is the host.
    fn host_dir(self) -> Dir {
        match self {
            TaskKind::CopyH2D | TaskKind::FaultH2D => Dir::AToB,
            _ => Dir::BToA,
        }
    }
}

/// Full-rate demand a task places on each shared device resource.
///
/// Units: `sm_frac` and `fault_frac` are fractions of a unit-capacity
/// resource; the rest are bytes/s or FLOP/s. A task running at fluid rate
/// `x ∈ (0, 1]` consumes `x * demand` of each resource.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResourceDemand {
    /// Fraction of SM resident-thread capacity.
    pub sm_frac: f64,
    /// Device-memory bandwidth demand, bytes/s.
    pub dram_bps: f64,
    /// L2 bandwidth demand, bytes/s.
    pub l2_bps: f64,
    /// Double-precision throughput demand, FLOP/s.
    pub fp64_flops: f64,
    /// Fraction of the unified-memory fault controller.
    pub fault_frac: f64,
    /// Link bandwidth demand, bytes/s, in the direction
    /// [`TaskSpec::link`] names: the only demand a copy places on a
    /// link. Which bandwidth that is — one direction of a host link, or
    /// a peer or NIC link both directions share — the engine decides.
    pub link_bps: f64,
}

/// Extra bookkeeping carried by a task for the metrics crate: the raw
/// quantities behind the hardware-utilization figures (Fig. 12).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TaskMeta {
    /// Bytes moved (transfers) or exchanged with DRAM (kernels).
    pub bytes: f64,
    /// Single-precision FLOPs executed.
    pub flops32: f64,
    /// Double-precision FLOPs executed.
    pub flops64: f64,
    /// L2 bytes exchanged.
    pub l2_bytes: f64,
    /// Instructions executed.
    pub instructions: f64,
}

/// A kernel implementation shared behind an `Rc`: a closure over the
/// argument buffers that captured whatever else it needs.
pub type KernelFunc = Rc<dyn Fn(&[DataBuffer])>;

/// The functional implementation of a kernel: what a
/// [`Payload`] calls on its argument buffers.
#[derive(Clone)]
pub enum KernelBody {
    /// A plain function of the argument buffers and the launch's
    /// scalars (the shape of `kernels::KernelFn`).
    Fn(fn(&[DataBuffer], &[f64])),
    /// A shared closure over the argument buffers.
    Shared(KernelFunc),
}

/// What runs when a task completes in virtual time: a kernel's
/// functional implementation, carried as data — the function and the
/// arguments it is called with. Submitting one allocates nothing when
/// the two lists come from the engine's [`Recycler`], which takes them
/// back once the kernel has run.
pub struct Payload {
    /// The implementation.
    pub body: KernelBody,
    /// Argument buffers, in parameter order.
    pub buffers: Vec<DataBuffer>,
    /// Scalar arguments, in parameter order.
    pub scalars: Vec<f64>,
}

impl Payload {
    /// Run the payload, handing its argument lists to `recycler`
    /// afterwards.
    pub(crate) fn run(self, recycler: &mut Recycler) {
        match self.body {
            KernelBody::Fn(f) => f(&self.buffers, &self.scalars),
            KernelBody::Shared(f) => f(&self.buffers),
        }
        recycler.buffers.give(self.buffers);
        recycler.scalars.give(self.scalars);
    }
}

/// A unit of simulated work. Construct with the builder-style helpers and
/// submit via [`crate::engine::Engine::submit`].
pub struct TaskSpec {
    /// Operation class.
    pub kind: TaskKind,
    /// Name of the operation: the kernel's declared name, or a fixed
    /// name for a copy leg or marker (`"h2d"`, `"evict"`, `"event"`, ...).
    pub label: &'static str,
    /// Stream attribution for the timeline (purely presentational; actual
    /// ordering comes from the dependency edges the caller supplies).
    pub stream: u32,
    /// Device the task occupies. Tasks on different devices never contend
    /// for device resources: the fluid solver allocates rates per device.
    pub device: u32,
    /// The link a copy moves over and its direction along it; every
    /// copy constructor sets it, and a host link's copy sits on that
    /// link's own device. Tasks on one peer or NIC link contend even
    /// when they run on different devices.
    pub link: Option<(LinkId, Dir)>,
    /// Contention-independent setup latency (launch overhead etc.).
    pub fixed_latency: Time,
    /// Solo duration of the contention-scaled phase.
    pub fluid_work: Time,
    /// Full-rate resource demand during the fluid phase.
    pub demand: ResourceDemand,
    /// Values read (race detector).
    pub reads: Vec<ValueId>,
    /// Values written (race detector).
    pub writes: Vec<ValueId>,
    /// Functional payload executed at completion time (runs the kernel's
    /// CPU implementation, flips memory residency, ...).
    pub on_complete: Option<Payload>,
    /// Raw counters for hardware metrics.
    pub meta: TaskMeta,
    /// Launch shape of a kernel task, `(grid, elements)`: its launch
    /// configuration and the element count of its largest argument
    /// buffer. The layer that submits real kernel launches stamps it so
    /// the engine can record it beside the measured duration when the
    /// task completes (the block-size history of [`crate::Calibration`]).
    /// `None`, the default, for every other task.
    pub launch_shape: Option<(Grid, usize)>,
}

impl std::fmt::Debug for TaskSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskSpec")
            .field("kind", &self.kind)
            .field("label", &self.label)
            .field("stream", &self.stream)
            .field("device", &self.device)
            .field("link", &self.link)
            .field("fixed_latency", &self.fixed_latency)
            .field("fluid_work", &self.fluid_work)
            .field("demand", &self.demand)
            .field("has_payload", &self.on_complete.is_some())
            .finish()
    }
}

impl TaskSpec {
    /// A blank task of the given kind on a presentation stream.
    fn new(kind: TaskKind, label: &'static str, stream: u32) -> Self {
        TaskSpec {
            kind,
            label,
            stream,
            device: 0,
            link: None,
            fixed_latency: 0.0,
            fluid_work: 0.0,
            demand: ResourceDemand::default(),
            reads: Vec::new(),
            writes: Vec::new(),
            on_complete: None,
            meta: TaskMeta::default(),
            launch_shape: None,
        }
    }

    /// Shorthand for a kernel task.
    pub fn kernel(label: &'static str, stream: u32) -> Self {
        Self::new(TaskKind::Kernel, label, stream)
    }

    /// Shorthand for a zero-duration marker (event analogue).
    pub fn marker(label: &'static str, stream: u32) -> Self {
        Self::new(TaskKind::Marker, label, stream)
    }

    /// This task as a copy of `bytes` over `link` in direction `on.1`:
    /// its latency, then the bytes at the link's full rate.
    fn over(mut self, bytes: f64, on: (LinkId, Dir), link: &Link) -> Self {
        self.link = Some(on);
        self.fixed_latency = link.latency;
        self.fluid_work = bytes / link.bandwidth;
        self.demand.link_bps = link.bandwidth;
        self.meta.bytes = bytes;
        self
    }

    /// A bulk transfer of `bytes` in the given direction over a
    /// device's host link `host`, whose id is `host_id`. Concurrent
    /// copies in one direction share the link's bandwidth in the fluid
    /// solver.
    pub fn bulk_copy(
        kind: TaskKind,
        label: &'static str,
        stream: u32,
        bytes: f64,
        host_id: LinkId,
        host: &Link,
    ) -> Self {
        assert!(kind.is_transfer(), "bulk_copy needs a transfer kind");
        let on = (host_id, kind.host_dir());
        Self::new(kind, label, stream).over(bytes, on, host)
    }

    /// A direct device→device copy of `bytes` over an interconnect link
    /// in direction `dir` at the link's full rate. Concurrent copies on
    /// the same link share its aggregate bandwidth in the fluid solver,
    /// whichever way they go; copies on different links are
    /// independent.
    pub fn p2p_copy(
        label: &'static str,
        stream: u32,
        bytes: f64,
        link_id: LinkId,
        dir: Dir,
        link: &Link,
    ) -> Self {
        Self::new(TaskKind::CopyP2P, label, stream).over(bytes, (link_id, dir), link)
    }

    /// An on-demand unified-memory migration of `bytes` over host link
    /// `host`: slower than a bulk copy and serialized through the fault
    /// controller, which is the bottleneck the paper observes when
    /// prefetching is disabled.
    pub fn fault_migration(
        kind: TaskKind,
        label: &'static str,
        stream: u32,
        bytes: f64,
        host: LinkId,
        dev: &DeviceProfile,
    ) -> Self {
        assert!(kind.is_transfer(), "fault_migration needs a transfer kind");
        let mut t = Self::new(kind, label, stream);
        t.link = Some((host, kind.host_dir()));
        t.fixed_latency = dev.fault_latency;
        t.fluid_work = bytes / dev.fault_bw;
        t.demand.fault_frac = 1.0; // exclusive use of the fault controller
        t.demand.link_bps = dev.fault_bw;
        t.meta.bytes = bytes;
        t
    }

    // ----- builder-style setters used heavily in tests and examples -----

    /// Place the task on a device (default 0). Only tasks on the same
    /// device share that device's resources.
    pub fn on_device(mut self, device: u32) -> Self {
        self.device = device;
        self
    }

    /// Set the fluid-phase solo duration.
    pub fn fluid(mut self, seconds: Time) -> Self {
        self.fluid_work = seconds;
        self
    }

    /// Set the fixed setup latency.
    pub fn latency(mut self, seconds: Time) -> Self {
        self.fixed_latency = seconds;
        self
    }
}

/// Builder shorthands of this crate's unit tests; the layers above fill
/// the fields from recycled lists instead.
#[cfg(test)]
impl TaskSpec {
    /// Set the SM-fraction demand.
    pub(crate) fn sm_frac(mut self, f: f64) -> Self {
        self.demand.sm_frac = f;
        self
    }

    /// Set the DRAM-bandwidth demand (bytes/s at full rate).
    pub(crate) fn dram(mut self, bps: f64) -> Self {
        self.demand.dram_bps = bps;
        self
    }

    /// Declare values read by this task.
    pub(crate) fn reading(mut self, vs: &[ValueId]) -> Self {
        self.reads.extend_from_slice(vs);
        self
    }

    /// Declare values written by this task.
    pub(crate) fn writing(mut self, vs: &[ValueId]) -> Self {
        self.writes.extend_from_slice(vs);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Topology, TopologyKind};

    /// The host link of a one-GPU machine of `dev`.
    fn host_link(dev: &DeviceProfile) -> Link {
        let topo = Topology::pcie_only(1, dev);
        topo.link(topo.host_link(0)).clone()
    }

    #[test]
    fn bulk_copy_duration_is_bytes_over_link() {
        let host = host_link(&DeviceProfile::tesla_p100());
        let t = TaskSpec::bulk_copy(TaskKind::CopyH2D, "x", 0, host.bandwidth, LinkId(0), &host);
        assert!((t.fluid_work - 1.0).abs() < 1e-9);
        assert_eq!(t.fixed_latency, host.latency);
        assert_eq!(t.link, Some((LinkId(0), Dir::AToB)));
        assert_eq!(t.demand.link_bps, host.bandwidth);
    }

    #[test]
    fn fault_migration_is_slower_and_exclusive() {
        let dev = DeviceProfile::tesla_p100();
        let bulk = TaskSpec::bulk_copy(TaskKind::CopyH2D, "x", 0, 1e9, LinkId(0), &host_link(&dev));
        let fault = TaskSpec::fault_migration(TaskKind::FaultH2D, "x", 0, 1e9, LinkId(0), &dev);
        assert!(fault.fluid_work > bulk.fluid_work);
        assert_eq!(fault.demand.fault_frac, 1.0);
        assert_eq!(fault.link, bulk.link);
    }

    #[test]
    #[should_panic(expected = "transfer kind")]
    fn bulk_copy_rejects_kernel_kind() {
        let host = host_link(&DeviceProfile::gtx960());
        let _ = TaskSpec::bulk_copy(TaskKind::Kernel, "x", 0, 1.0, LinkId(0), &host);
    }

    #[test]
    fn kind_predicates() {
        assert!(TaskKind::FaultH2D.is_transfer());
        assert_eq!(TaskKind::FaultH2D.host_dir(), Dir::AToB);
        assert_eq!(TaskKind::CopyD2H.host_dir(), Dir::BToA);
        assert_eq!(TaskKind::FaultD2H.host_dir(), Dir::BToA);
        assert!(!TaskKind::Kernel.is_transfer());
        assert!(TaskKind::CopyP2P.is_transfer());
    }

    #[test]
    fn p2p_copy_charges_the_link() {
        let dev = DeviceProfile::tesla_p100();
        let topo = Topology::preset(TopologyKind::FullyConnected, 2, &dev);
        let lid = topo.d2d_link(0, 1).unwrap();
        let link = topo.link(lid);
        let t = TaskSpec::p2p_copy("x", 0, link.bandwidth, lid, Dir::BToA, link);
        assert_eq!(t.kind, TaskKind::CopyP2P);
        assert_eq!(t.link, Some((lid, Dir::BToA)));
        assert!((t.fluid_work - 1.0).abs() < 1e-9);
        assert_eq!(t.demand.link_bps, link.bandwidth);
        // Much faster than the host-mediated pair of PCIe legs.
        let (hid, host) = (topo.host_link(0), topo.link(topo.host_link(0)));
        let staged = TaskSpec::bulk_copy(TaskKind::CopyD2H, "x", 0, link.bandwidth, hid, host);
        assert!(t.fluid_work < staged.fluid_work);
    }
}
