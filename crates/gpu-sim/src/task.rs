//! Task descriptions submitted to the [`crate::engine::Engine`].

use std::rc::Rc;

use crate::cost::Grid;
use crate::data::{DataBuffer, ValueId};
use crate::profile::DeviceProfile;
use crate::recycle::Recycler;
use crate::topology::{Link, LinkId};
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

    /// True if the transfer moves data toward the device.
    fn is_h2d(self) -> bool {
        matches!(self, TaskKind::CopyH2D | TaskKind::FaultH2D)
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
    /// PCIe host→device bandwidth demand, bytes/s.
    pub h2d_bps: f64,
    /// PCIe device→host bandwidth demand, bytes/s.
    pub d2h_bps: f64,
    /// Fraction of the unified-memory fault controller.
    pub fault_frac: f64,
    /// Interconnect-link bandwidth demand, bytes/s, charged to the link
    /// named by [`TaskSpec::link`]. Links are machine-wide resources (a
    /// peer link is shared by both of its devices), so this component is
    /// solved globally rather than per device, outside the fixed
    /// per-device resource vector.
    pub link_bps: f64,
}

/// The shared-resource index space used by the fluid solver.
/// Order matters only internally.
pub(crate) const NUM_RESOURCES: usize = 7;

impl ResourceDemand {
    /// Demand as a fixed-size vector aligned with [`capacities`].
    pub(crate) fn as_vec(&self) -> [f64; NUM_RESOURCES] {
        [
            self.sm_frac,
            self.dram_bps,
            self.l2_bps,
            self.fp64_flops,
            self.h2d_bps,
            self.d2h_bps,
            self.fault_frac,
        ]
    }
}

/// Resource capacities of a device behind its host link, aligned with
/// [`ResourceDemand::as_vec`]: the on-device resources come from the
/// profile, both copy directions from the link.
pub(crate) fn capacities(dev: &DeviceProfile, host: &Link) -> [f64; NUM_RESOURCES] {
    [
        1.0,
        dev.dram_bw,
        dev.l2_bw,
        dev.fp64_flops,
        host.bandwidth,
        host.bandwidth,
        1.0,
    ]
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
    /// Interconnect link the task occupies, if any (peer-to-peer
    /// copies). Link capacity is shared machine-wide: tasks on the same
    /// link contend even when they run on different devices.
    pub link: Option<LinkId>,
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

    /// A bulk transfer of `bytes` in the given direction over a
    /// device's host link, `host`: its latency, then the bytes at the
    /// link's full rate. Concurrent copies in one direction share the
    /// link's bandwidth in the fluid solver.
    pub fn bulk_copy(
        kind: TaskKind,
        label: &'static str,
        stream: u32,
        bytes: f64,
        host: &Link,
    ) -> Self {
        assert!(kind.is_transfer(), "bulk_copy needs a transfer kind");
        let mut t = Self::new(kind, label, stream);
        t.fixed_latency = host.latency;
        t.fluid_work = bytes / host.bandwidth;
        if kind.is_h2d() {
            t.demand.h2d_bps = host.bandwidth;
        } else {
            t.demand.d2h_bps = host.bandwidth;
        }
        t.meta.bytes = bytes;
        t
    }

    /// A direct device→device copy of `bytes` over an interconnect link
    /// at the link's full rate. Concurrent copies on the same link share
    /// its aggregate bandwidth in the fluid solver; copies on different
    /// links are independent.
    pub fn p2p_copy(
        label: &'static str,
        stream: u32,
        bytes: f64,
        link_id: LinkId,
        link: &Link,
    ) -> Self {
        let mut t = Self::new(TaskKind::CopyP2P, label, stream);
        t.link = Some(link_id);
        t.fixed_latency = link.latency;
        t.fluid_work = bytes / link.bandwidth;
        t.demand.link_bps = link.bandwidth;
        t.meta.bytes = bytes;
        t
    }

    /// An on-demand unified-memory migration of `bytes`: slower than a
    /// bulk copy and serialized through the fault controller, which is
    /// the bottleneck the paper observes when prefetching is disabled.
    pub fn fault_migration(
        kind: TaskKind,
        label: &'static str,
        stream: u32,
        bytes: f64,
        dev: &DeviceProfile,
    ) -> Self {
        assert!(kind.is_transfer(), "fault_migration needs a transfer kind");
        let mut t = Self::new(kind, label, stream);
        t.fixed_latency = dev.fault_latency;
        t.fluid_work = bytes / dev.fault_bw;
        t.demand.fault_frac = 1.0; // exclusive use of the fault controller
        if kind.is_h2d() {
            t.demand.h2d_bps = dev.fault_bw;
        } else {
            t.demand.d2h_bps = dev.fault_bw;
        }
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
        let t = TaskSpec::bulk_copy(TaskKind::CopyH2D, "x", 0, host.bandwidth, &host);
        assert!((t.fluid_work - 1.0).abs() < 1e-9);
        assert_eq!(t.fixed_latency, host.latency);
        assert_eq!(t.demand.h2d_bps, host.bandwidth);
        assert_eq!(t.demand.d2h_bps, 0.0);
    }

    #[test]
    fn fault_migration_is_slower_and_exclusive() {
        let dev = DeviceProfile::tesla_p100();
        let bulk = TaskSpec::bulk_copy(TaskKind::CopyH2D, "x", 0, 1e9, &host_link(&dev));
        let fault = TaskSpec::fault_migration(TaskKind::FaultH2D, "x", 0, 1e9, &dev);
        assert!(fault.fluid_work > bulk.fluid_work);
        assert_eq!(fault.demand.fault_frac, 1.0);
    }

    #[test]
    #[should_panic(expected = "transfer kind")]
    fn bulk_copy_rejects_kernel_kind() {
        let host = host_link(&DeviceProfile::gtx960());
        let _ = TaskSpec::bulk_copy(TaskKind::Kernel, "x", 0, 1.0, &host);
    }

    #[test]
    fn kind_predicates() {
        assert!(TaskKind::FaultH2D.is_transfer());
        assert!(TaskKind::FaultH2D.is_h2d());
        assert!(!TaskKind::CopyD2H.is_h2d());
        assert!(!TaskKind::Kernel.is_transfer());
        assert!(TaskKind::CopyP2P.is_transfer());
        assert!(!TaskKind::CopyP2P.is_h2d());
    }

    #[test]
    fn p2p_copy_charges_the_link() {
        let dev = DeviceProfile::tesla_p100();
        let topo = Topology::preset(TopologyKind::FullyConnected, 2, &dev);
        let lid = topo.d2d_link(0, 1).unwrap();
        let link = topo.link(lid);
        let t = TaskSpec::p2p_copy("x", 0, link.bandwidth, lid, link);
        assert_eq!(t.kind, TaskKind::CopyP2P);
        assert_eq!(t.link, Some(lid));
        assert!((t.fluid_work - 1.0).abs() < 1e-9);
        assert_eq!(t.demand.link_bps, link.bandwidth);
        assert_eq!(t.demand.h2d_bps, 0.0, "peer copies bypass the host links");
        assert_eq!(t.demand.d2h_bps, 0.0);
        // Much faster than the host-mediated pair of PCIe legs.
        let host = topo.link(topo.host_link(0));
        let staged = TaskSpec::bulk_copy(TaskKind::CopyD2H, "x", 0, link.bandwidth, host);
        assert!(t.fluid_work < staged.fluid_work);
    }
}
