//! The GrCUDA execution context (§IV-B, Fig. 5).
//!
//! "The GPU execution context tracks declarations and invocations of GPU
//! computational elements. When a new computation is created or called,
//! it notifies the execution context so that it updates the DAG with data
//! dependencies of the new computation. The GPU execution context uses
//! the DAG to understand if the new computation can start immediately or
//! if it must wait for other computations to finish."

use std::cell::RefCell;
use std::rc::Rc;

use cuda_sim::{Cuda, Launch, MemEventKind, Migrations, Moved, StreamId, UnifiedArray};
use dag::{ArgAccess, ComputationDag, DenseMap, ElementKind, Value, VertexId};
use gpu_sim::{
    Architecture, DataBuffer, DeviceProfile, EngineStats, Grid, KernelBody, RaceReport, TaskId,
    Time, Timeline, Topology, TopologyKind, TypedData, ValueId,
};
use gpu_sim::{LinkTraffic, MemoryStats};
use kernels::KernelDef;

use crate::array::DeviceArray;
use crate::kernel::{arg_bytes, distinct_arrays, Arg, BatchLaunch, Kernel, LaunchError};
use crate::nidl::{NidlError, NidlParam, Signature};
use crate::options::{Options, PrefetchPolicy, SchedulePolicy};
use crate::policy::{DeviceSelectionPolicy, PlacementCtx, PlacementPolicy};
use crate::stream_manager::StreamManager;

pub(crate) struct Ctx {
    pub cuda: Cuda,
    pub options: Options,
    pub dag: ComputationDag,
    pub streams: StreamManager,
    /// Per-vertex device placement decided by [`Ctx::placement`].
    pub placement: Box<dyn DeviceSelectionPolicy>,
    /// Where each live vertex runs: one record per launch, dropped when
    /// the vertex retires.
    pub placed: DenseMap<VertexId, Placed>,
    /// Every list a launch assembles, kept from one launch to the next.
    pub scratch: LaunchScratch,
    /// Declared-vs-actual effect metadata of every kernel built in this
    /// context, consumed by the schedule sanitizer ([`GrCuda::audit`]).
    /// Populated by [`GrCuda::build_kernel`]; never read on the launch
    /// hot path.
    pub effects: crate::audit::EffectsTable,
    /// Node of each device, cached from the topology at construction.
    /// Empty on single-node machines, so the single-box launch path is
    /// untouched by the cluster layer.
    pub node_of: Vec<u32>,
    /// Batches the deterministic partitioning pre-pass sharded across
    /// nodes for a policy that reads node hints (lifetime counter; see
    /// [`crate::partition`]).
    pub partitioned_batches: usize,
    /// Cut bytes accumulated across all partitioned batches.
    pub partition_cut_bytes: usize,
    /// [`Cuda::placement_probe`] calls made to price placement contexts
    /// (lifetime counter).
    pub placement_probes: usize,
}

/// A launched computational element: the engine task it became, the
/// stream it was queued on and the device the policy chose.
#[derive(Clone, Copy)]
pub(crate) struct Placed {
    pub task: TaskId,
    pub stream: StreamId,
    pub device: u32,
}

/// What [`StreamManager::assign`] reads of a parent.
impl From<Placed> for StreamId {
    fn from(p: Placed) -> StreamId {
        p.stream
    }
}

/// The launch path's working lists, owned by the context between
/// launches so a launch allocates none of them: the argument split, the
/// vertex's dependencies in their three forms, and the per-device
/// vectors behind [`crate::PlacementCtx`]. Each launch overwrites what
/// it uses; `buffers` — the only list holding array handles — is
/// emptied again before the launch returns, so the runtime keeps no
/// array alive on its own.
#[derive(Default)]
pub(crate) struct LaunchScratch {
    buffers: Vec<DataBuffer>,
    accesses: Vec<(ValueId, bool)>,
    dag_args: Vec<ArgAccess>,
    scalars: Vec<f64>,
    /// The vertex's dependencies as the DAG inferred them, the subset
    /// placed on the chosen device, and the engine tasks of those on
    /// other streams.
    deps: Vec<VertexId>,
    same_device_deps: Vec<VertexId>,
    dep_tasks: Vec<TaskId>,
    parent_devices: Vec<u32>,
    resident_bytes: Vec<usize>,
    est_transfer_time: Vec<f64>,
    inflight: Vec<usize>,
    free_bytes: Vec<usize>,
}

/// Everything a runtime reports, taken at one instant by
/// [`GrCuda::snapshot`]: the sizes of the scheduler-side bookkeeping
/// (§IV-B state) and every counter of the simulated device context
/// beneath it. On a long-running service the bookkeeping gauges must
/// track the *live* frontier ([`Snapshot::is_drained`] after a full
/// sync): the lifetime counters keep growing, everything else stays
/// bounded across launch/sync cycles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Computational elements ever registered in the DAG.
    pub lifetime_vertices: usize,
    /// DAG vertices currently stored (live + retired awaiting
    /// compaction).
    pub stored_vertices: usize,
    /// Stored DAG vertices still active (not retired).
    pub live_vertices: usize,
    /// Dependency edges currently stored.
    pub stored_edges: usize,
    /// Per-value ordering states currently tracked by the DAG.
    pub value_states: usize,
    /// Outstanding first-child stream claims.
    pub stream_claims: usize,
    /// Live vertices with a launch record (task, stream and device are
    /// one record per vertex, so the three gauges are equal; all three
    /// stay for `benchmark/`).
    pub vertex_tasks: usize,
    /// Equal to [`Snapshot::vertex_tasks`].
    pub vertex_streams: usize,
    /// Equal to [`Snapshot::vertex_tasks`].
    pub vertex_devices: usize,
    /// Always 0: a launch's metadata now travels with its engine task
    /// and is recorded when the task completes, so nothing waits on the
    /// scheduler side. Retained for `benchmark/`; retire in the next
    /// benchmark PR.
    pub launch_infos: usize,
    /// Lifetime [`cuda_sim::Cuda::placement_probe`] calls: one per
    /// distinct array argument of a multi-device launch whose policy
    /// reads transfer estimates ([`crate::Reads::transfer`]), each
    /// pricing that array on every device. 0 under a policy that does
    /// not, and on one device.
    pub placement_probes: usize,
    /// Device-memory gauges from the capacity-aware memory manager:
    /// per-device resident/peak bytes, evictions, spilled bytes and
    /// prefetch hit accounting. With the default unlimited capacity the
    /// eviction/spill counters stay zero; residency and prefetch
    /// accounting are tracked either way.
    pub memory: MemoryStats,
    /// Multi-node gauges: per-node in-flight load and the partitioning
    /// pre-pass counters. On single-box machines this is the one-node
    /// degenerate form (no partitioning, every counter zero).
    pub cluster: ClusterStats,
    /// Engine counters: tasks submitted, completed and retained, races
    /// and the rate solver's work.
    pub engine: EngineStats,
    /// Kernel completions observed into the calibration's duration
    /// priors.
    pub kernel_samples: u64,
    /// Cross-device migrations performed so far — the run-time
    /// migration-cost accounting the paper's §VI calls for — in all,
    /// over peer links, and the NIC legs of cross-node routes.
    pub migrations: Migrations,
    /// Lifetime traffic per interconnect link, indexed like
    /// [`Topology::links`] (host links first, then peer and NIC links).
    pub links: Vec<LinkTraffic>,
    /// Streams of the device context, the default stream included.
    pub streams: usize,
    /// Streams the stream manager has created.
    pub streams_created: usize,
}

impl Snapshot {
    /// Total bytes moved over the host (PCIe) links in either direction
    /// — staging, host reads, and host-mediated migration legs. The
    /// gauge transfer-aware placement tries to minimize.
    pub fn host_link_bytes(&self) -> f64 {
        self.links.iter().filter(|l| l.host).map(|l| l.bytes).sum()
    }

    /// Whether the scheduler is back to its empty-frontier baseline:
    /// nothing of the DAG stored (vertices, edges, value states), no
    /// stream claim, no launch record and no engine task state kept —
    /// what every retire path must leave after a full sync.
    pub fn is_drained(&self) -> bool {
        let dag = self.live_vertices + self.stored_vertices + self.stored_edges + self.value_states;
        dag + self.stream_claims + self.vertex_tasks + self.engine.retained_tasks == 0
    }
}

/// The `cluster` section of [`Snapshot`]: what the multi-node layer did
/// (see [`crate::partition_batch`] and [`gpu_sim::Cluster`]); the NIC
/// legs of cross-node migrations are [`Migrations::cross_node`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Submitted-but-unfinished tasks per node — the per-device load
    /// gauge summed over each node's GPUs, one entry per node (one on
    /// single-box machines). Drains to zero at sync.
    pub node_inflight: Vec<usize>,
    /// Batches the deterministic partitioning pre-pass sharded. It runs
    /// only for a policy that reads node hints ([`crate::Reads::node`]),
    /// so this stays 0 under every other.
    pub partitioned_batches: usize,
    /// Cut bytes accumulated across all partitioned batches (0 under a
    /// policy that does not read node hints, like the count).
    pub partition_cut_bytes: usize,
}

/// A [`Moved`] as the `(count, bytes)` pair the migration views retained
/// for `benchmark/` return.
fn pair(m: Moved) -> (usize, usize) {
    (m.count, m.bytes)
}

/// The GrCUDA runtime: allocate arrays, build kernels, launch, read
/// results — the scheduler does the rest. Cheap to clone (shared
/// context).
#[derive(Clone)]
pub struct GrCuda {
    inner: Rc<RefCell<Ctx>>,
}

impl GrCuda {
    /// Create a single-device runtime with the given scheduler options.
    pub fn new(dev: DeviceProfile, options: Options) -> Self {
        let topo = Topology::pcie_only(1, &dev);
        Self::with_topology(dev, topo, options, PlacementPolicy::SingleGpu)
    }

    /// Create a runtime over the machine a [`Topology`] describes —
    /// its identical devices, host/peer/NIC links, node map and
    /// [`gpu_sim::MemoryConfig`] — behind one scheduler core: one
    /// computation DAG, one stream manager with per-device pools, one
    /// engine. So multi-GPU launches get dependency inference,
    /// first-child stream claims, retire/compact and
    /// [`GrCuda::snapshot`] exactly like single-GPU ones, and
    /// every policy computes bit-identical results (ordering always
    /// comes from the shared DAG; policies only move work).
    ///
    /// * The links decide how cross-device migrations travel (direct
    ///   P2P DMA over peer links, host-mediated staging otherwise) and
    ///   feed the per-candidate transfer-time estimates the placement
    ///   policy sees ([`PlacementCtx::est_transfer_time`]).
    /// * A finite memory config ([`Topology::with_memory`]) gives every
    ///   device `capacity` bytes: launches whose arguments exceed the
    ///   headroom evict resident arrays under its eviction policy (spill
    ///   copies contend on the interconnect like any other transfer),
    ///   and the policy sees per-device free bytes
    ///   ([`PlacementCtx::free_bytes`]) —
    ///   [`PlacementPolicy::MemoryAware`] is built for this setting.
    /// * `placement` is consulted once per computational element with
    ///   its DAG context (parent devices, argument residency, per-device
    ///   load): a built-in [`PlacementPolicy`], or any boxed
    ///   [`DeviceSelectionPolicy`] — the extension point for strategies
    ///   beyond the built-in ones (sharding, heterogeneous-device
    ///   weighting, ...).
    ///
    /// # Examples
    ///
    /// A built-in policy on an interconnect preset:
    ///
    /// ```
    /// use gpu_sim::{DeviceProfile, Grid, Topology, TopologyKind};
    /// use grcuda::{Arg, GrCuda, Options, PlacementPolicy};
    /// use kernels::vec_ops::SQUARE;
    ///
    /// let dev = DeviceProfile::tesla_p100();
    /// let topo = Topology::preset(TopologyKind::NvlinkPair, 4, &dev);
    /// let g = GrCuda::with_topology(
    ///     dev,
    ///     topo,
    ///     Options::parallel(),
    ///     PlacementPolicy::TransferAware,
    /// );
    /// let n = 1 << 12;
    /// let x = g.array_f32(n);
    /// x.copy_from_f32(&vec![3.0; n]);
    /// let square = g.build_kernel(&SQUARE).unwrap();
    /// square
    ///     .launch(Grid::d1(16, 256), &[Arg::array(&x), Arg::scalar(n as f64)])
    ///     .unwrap();
    /// g.sync();
    /// assert_eq!(x.get_f32(0), 9.0);
    /// assert!(g.now() > 0.0);
    /// ```
    ///
    /// A custom policy:
    ///
    /// ```
    /// use gpu_sim::{DeviceProfile, Grid, Topology};
    /// use grcuda::{Arg, DeviceSelectionPolicy, GrCuda, Options, PlacementCtx};
    /// use kernels::vec_ops::SQUARE;
    ///
    /// /// Sticky placement: follow the first parent, else device 0.
    /// struct FollowParent;
    ///
    /// impl DeviceSelectionPolicy for FollowParent {
    ///     fn name(&self) -> &'static str {
    ///         "follow-parent"
    ///     }
    ///     fn select(&mut self, ctx: &PlacementCtx) -> u32 {
    ///         ctx.parent_devices.first().copied().unwrap_or(0)
    ///     }
    /// }
    ///
    /// let dev = DeviceProfile::tesla_p100();
    /// let topo = Topology::pcie_only(4, &dev);
    /// let policy: Box<dyn DeviceSelectionPolicy> = Box::new(FollowParent);
    /// let g = GrCuda::with_topology(dev, topo, Options::parallel(), policy);
    /// let x = g.array_f32(256);
    /// x.fill_f32(3.0);
    /// let sq = g.build_kernel(&SQUARE).unwrap();
    /// sq.launch(Grid::d1(1, 256), &[Arg::array(&x), Arg::scalar(256.0)])
    ///     .unwrap();
    /// g.sync();
    /// assert_eq!(x.get_f32(0), 9.0);
    /// ```
    pub fn with_topology(
        dev: DeviceProfile,
        topo: Topology,
        options: Options,
        placement: impl Into<Box<dyn DeviceSelectionPolicy>>,
    ) -> Self {
        let node_of: Vec<u32> = if topo.node_count() > 1 {
            (0..topo.device_count() as u32)
                .map(|d| topo.node_of(d))
                .collect()
        } else {
            Vec::new()
        };
        let cuda = Cuda::with_topology(dev, topo);
        // The scheduler drains eviction/prefetch events after every
        // launch to annotate its DAG; recording is safe to leave on
        // because the drain keeps the buffer bounded.
        cuda.record_mem_events(true);
        GrCuda {
            inner: Rc::new(RefCell::new(Ctx {
                cuda,
                options,
                dag: ComputationDag::new(),
                streams: StreamManager::new(options.dep_stream, options.stream_reuse),
                placement: placement.into(),
                placed: DenseMap::new(),
                scratch: LaunchScratch::default(),
                effects: crate::audit::EffectsTable::new(),
                node_of,
                partitioned_batches: 0,
                partition_cut_bytes: 0,
                placement_probes: 0,
            })),
        }
    }

    /// [`GrCuda::with_topology`] on an interconnect preset over `n`
    /// devices with a boxed policy. Retained for `benchmark/`; retire in
    /// the next benchmark PR.
    pub fn with_placement_topo(
        dev: DeviceProfile,
        n: usize,
        options: Options,
        placement: Box<dyn DeviceSelectionPolicy>,
        topology: TopologyKind,
    ) -> Self {
        let topo = Topology::preset(topology, n, &dev);
        Self::with_topology(dev, topo, options, placement)
    }

    /// [`GrCuda::with_topology`] over a multi-node [`gpu_sim::Cluster`]:
    /// one scheduler core spanning every GPU of every node, with NIC
    /// links in the same global rate solve, the deterministic batch
    /// partitioner (see [`crate::partition_batch`]) active on
    /// [`GrCuda::launch_batch`] for a policy that reads node hints, and
    /// cross-node migrations routed GPU→host→NIC→host→GPU. Pair it with
    /// [`PlacementPolicy::NodeAware`] so placement honors the
    /// partition; a one-node cluster is bit-identical to
    /// [`GrCuda::with_topology`] on the node's preset. Shorthand for
    /// `with_topology(dev, cluster.build(&dev), ..)`, retained for
    /// `benchmark/`; retire in the next benchmark PR.
    ///
    /// # Examples
    ///
    /// ```
    /// use gpu_sim::{Cluster, DeviceProfile, Grid, NicKind, TopologyKind};
    /// use grcuda::{Arg, BatchLaunch, GrCuda, Options, PlacementPolicy};
    /// use kernels::util::SCALE;
    ///
    /// // 2 nodes × 2 GPUs joined by InfiniBand HDR NICs.
    /// let cluster = Cluster::new(2, 2, TopologyKind::PcieOnly, NicKind::InfinibandHdr);
    /// let g = GrCuda::with_cluster(
    ///     DeviceProfile::tesla_p100(),
    ///     &cluster,
    ///     Options::parallel(),
    ///     PlacementPolicy::NodeAware,
    /// );
    /// assert_eq!(g.device_count(), 4);
    /// assert_eq!(g.snapshot().cluster.node_inflight.len(), 2);
    ///
    /// // Two independent chains, batch-submitted: the partitioner keeps
    /// // each chain on one node, so nothing crosses the NICs.
    /// let n = 1 << 12;
    /// let scale = g.build_kernel(&SCALE).unwrap();
    /// let arrays: Vec<_> = (0..4).map(|_| g.array_f32(n)).collect();
    /// let args: Vec<_> = (0..2)
    ///     .map(|c| {
    ///         [
    ///             Arg::array(&arrays[2 * c]),
    ///             Arg::array(&arrays[2 * c + 1]),
    ///             Arg::scalar(2.0),
    ///             Arg::scalar(n as f64),
    ///         ]
    ///     })
    ///     .collect();
    /// let calls: Vec<_> = args
    ///     .iter()
    ///     .map(|args| BatchLaunch {
    ///         kernel: &scale,
    ///         grid: Grid::d1(16, 256),
    ///         args,
    ///     })
    ///     .collect();
    /// g.launch_batch(&calls).unwrap();
    /// g.sync();
    /// assert_eq!(g.snapshot().migrations.cross_node.count, 0);
    /// ```
    pub fn with_cluster(
        dev: DeviceProfile,
        cluster: &gpu_sim::Cluster,
        options: Options,
        placement: PlacementPolicy,
    ) -> Self {
        let topo = cluster.build(&dev);
        Self::with_topology(dev, topo, options, placement)
    }

    /// True when `other` is a handle to this same runtime (clones share
    /// one context; separately constructed runtimes never do).
    pub(crate) fn same_runtime(&self, other: &GrCuda) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// Number of identical devices this runtime schedules.
    pub fn device_count(&self) -> usize {
        self.inner.borrow().cuda.device_count()
    }

    /// [`Snapshot::migrations`]`.all` as `(count, bytes)`. Retained for
    /// `benchmark/`; retire in the next benchmark PR.
    pub fn migration_stats(&self) -> (usize, usize) {
        pair(self.snapshot().migrations.all)
    }

    /// [`Snapshot::migrations`]`.p2p` as `(count, bytes)`. Retained for
    /// `benchmark/`; retire in the next benchmark PR.
    pub fn p2p_migration_stats(&self) -> (usize, usize) {
        pair(self.snapshot().migrations.p2p)
    }

    /// [`Snapshot::migrations`]`.cross_node` as `(count, bytes)`.
    /// Retained for `benchmark/`; retire in the next benchmark PR.
    pub fn cross_node_migration_stats(&self) -> (usize, usize) {
        pair(self.snapshot().migrations.cross_node)
    }

    /// [`Snapshot::links`] as `(bytes, transfers)` pairs. Retained for
    /// `benchmark/`; retire in the next benchmark PR.
    pub fn link_traffic(&self) -> Vec<(f64, usize)> {
        let links = self.snapshot().links;
        links.iter().map(|l| (l.bytes, l.transfers)).collect()
    }

    /// [`Snapshot::host_link_bytes`]. Retained for `benchmark/`; retire
    /// in the next benchmark PR.
    pub fn host_link_bytes(&self) -> f64 {
        self.snapshot().host_link_bytes()
    }

    /// Current virtual time (seconds).
    pub fn now(&self) -> Time {
        self.inner.borrow().cuda.now()
    }

    // ------------------------------------------------------------------
    // allocation — GrCUDA's `polyglot.eval("grcuda", "float[n]")`
    // ------------------------------------------------------------------

    /// Allocate a managed array holding `data` — the element type is
    /// the data's. A fresh allocation is host-resident, so the contents
    /// are in place without a host write being charged.
    pub fn array(&self, data: TypedData) -> DeviceArray {
        DeviceArray {
            ctx: self.clone(),
            arr: self.inner.borrow().cuda.alloc(data),
        }
    }

    /// Allocate a managed `float[n]` array.
    pub fn array_f32(&self, n: usize) -> DeviceArray {
        self.array(TypedData::F32(vec![0.0; n]))
    }

    /// Allocate a managed `double[n]` array.
    pub fn array_f64(&self, n: usize) -> DeviceArray {
        self.array(TypedData::F64(vec![0.0; n]))
    }

    /// Allocate a managed `sint32[n]` array.
    pub fn array_i32(&self, n: usize) -> DeviceArray {
        self.array(TypedData::I32(vec![0; n]))
    }

    /// Allocate a managed `char[n]` array.
    pub fn array_u8(&self, n: usize) -> DeviceArray {
        self.array(TypedData::U8(vec![0; n]))
    }

    // ------------------------------------------------------------------
    // kernels — GrCUDA's `buildkernel`
    // ------------------------------------------------------------------

    /// Bind a kernel definition to this context, parsing and validating
    /// its NIDL signature (GrCUDA's `buildkernel(code, name, signature)`).
    pub fn build_kernel(&self, def: &KernelDef) -> Result<Kernel, NidlError> {
        let sig = Signature::parse(def.nidl)?;
        // Feed the schedule sanitizer: what this kernel declares vs what
        // its implementation actually writes.
        self.inner.borrow_mut().effects.register(def, &sig);
        Ok(Kernel {
            ctx: self.clone(),
            def: *def,
            sig,
        })
    }

    // ------------------------------------------------------------------
    // synchronization & introspection
    // ------------------------------------------------------------------

    /// Synchronize the whole device, retire every DAG vertex and reclaim
    /// all per-vertex scheduler state (DAG storage, stream claims, launch
    /// records) — after a `sync()` the scheduler's footprint is
    /// back to its empty-frontier baseline no matter how many launches
    /// preceded it.
    pub fn sync(&self) {
        // Debug builds audit the schedule before it is retired away:
        // every violation the sanitizer can prove statically panics the
        // test that produced it. Compiled out in release, so the soak
        // throughput floor never pays for it.
        #[cfg(debug_assertions)]
        {
            let report = self.audit();
            assert!(
                report.is_clean(),
                "schedule sanitizer found violations at sync():\n{report}"
            );
        }
        let mut ctx = self.inner.borrow_mut();
        ctx.cuda.device_sync();
        ctx.retire_everything();
    }

    /// Run the schedule sanitizer over the current DAG: prove every
    /// conflicting access pair ordered (soundness), cross-check NIDL
    /// `const` annotations against the kernels' declared write effects
    /// (signature honesty), count transitively-redundant edges
    /// (minimality — also stamped on the edges, so a subsequent
    /// [`GrCuda::dag_dot`] renders them dashed gray) and surface
    /// dead-write / never-read liveness lints. See [`crate::AuditReport`].
    ///
    /// The edges audited are the ones the scheduler honors: every
    /// inferred dependency becomes a stream order or an event. A
    /// schedule that drops some of them is a different program; the
    /// audit module's tests build one by hand and audit its DAG under
    /// only the edges it kept.
    pub fn audit(&self) -> crate::audit::AuditReport {
        let mut ctx = self.inner.borrow_mut();
        ctx.dag.mark_redundant_edges();
        crate::audit::audit_dag(&ctx.dag, &ctx.effects)
    }

    /// Read the engine's calibration state, learned from every kernel
    /// this runtime has completed: the per-signature duration priors
    /// placement sees as [`crate::PlacementCtx::duration_prior`], and
    /// the block-size history every completed 1-D kernel launch is
    /// recorded into (see [`Kernel::launch_autotuned`] for when that
    /// is) —
    /// [`gpu_sim::Calibration::history_samples`],
    /// [`gpu_sim::Calibration::best_block_size`] and
    /// [`gpu_sim::Calibration::mean_duration`] among them.
    pub fn calibration<R>(&self, f: impl FnOnce(&gpu_sim::Calibration) -> R) -> R {
        self.inner.borrow().cuda.calibration(f)
    }

    /// The block size the autotuner would pick right now
    /// (explore-then-exploit; 256 with no information).
    pub(crate) fn choose_block_size(&self, kernel: &str, elements: usize) -> u32 {
        self.calibration(|c| c.choose_block_size(kernel, elements, 256))
    }

    /// Execution timeline snapshot.
    pub fn timeline(&self) -> Timeline {
        self.inner.borrow().cuda.timeline()
    }

    /// Reset the timeline between measured iterations. Only the
    /// recording is dropped: the kernel history was written when each
    /// kernel completed, so clearing loses no samples.
    ///
    /// The timeline is the one recording surface that grows with
    /// launches until it is reset; long-running services should call
    /// this periodically (as the `soak` harness does).
    pub fn clear_timeline(&self) {
        self.inner.borrow().cuda.clear_timeline();
    }

    /// Data races detected by the simulator (must stay empty — the
    /// scheduler's correctness claim).
    pub fn races(&self) -> Vec<RaceReport> {
        self.inner.borrow().cuda.races()
    }

    /// [`Snapshot::engine`]. Retained for `benchmark/`; retire in the
    /// next benchmark PR.
    pub fn stats(&self) -> EngineStats {
        self.snapshot().engine
    }

    /// [`GrCuda::snapshot`]. Retained for `benchmark/`; retire in the
    /// next benchmark PR.
    pub fn scheduler_stats(&self) -> Snapshot {
        self.snapshot()
    }

    /// [`Snapshot::streams_created`]. Retained for `benchmark/`; retire
    /// in the next benchmark PR.
    pub fn streams_created(&self) -> usize {
        self.snapshot().streams_created
    }

    /// Everything this runtime reports, read under one borrow: the
    /// scheduler's bookkeeping gauges and every counter of the device
    /// context (see [`Snapshot`]).
    pub fn snapshot(&self) -> Snapshot {
        let ctx = self.inner.borrow();
        let c = ctx.cuda.stats();
        let mut loads = Vec::new();
        ctx.cuda.device_loads_into(&mut loads);
        // `node_of` is empty on one node, and a node's devices are
        // contiguous, so the last device's node is the last node.
        let node = |d: usize| ctx.node_of.get(d).map_or(0, |&n| n as usize);
        let mut node_inflight = vec![0; node(loads.len() - 1) + 1];
        for (d, &l) in loads.iter().enumerate() {
            node_inflight[node(d)] += l;
        }
        Snapshot {
            lifetime_vertices: ctx.dag.len(),
            stored_vertices: ctx.dag.stored_len(),
            live_vertices: ctx.dag.live_len(),
            stored_edges: ctx.dag.edges().len(),
            value_states: ctx.dag.value_states_len(),
            stream_claims: ctx.streams.claims(),
            vertex_tasks: ctx.placed.len(),
            vertex_streams: ctx.placed.len(),
            vertex_devices: ctx.placed.len(),
            launch_infos: 0,
            placement_probes: ctx.placement_probes,
            memory: c.memory,
            cluster: ClusterStats {
                node_inflight,
                partitioned_batches: ctx.partitioned_batches,
                partition_cut_bytes: ctx.partition_cut_bytes,
            },
            engine: c.engine,
            kernel_samples: c.kernel_samples,
            migrations: c.migrations,
            links: c.links,
            streams: c.streams,
            streams_created: ctx.streams.streams_created(),
        }
    }

    /// The computation DAG rendered as Graphviz DOT (current frontier
    /// state included), for the Fig. 2/4/6-style visualizations. On
    /// multi-node machines the devices are grouped into one
    /// `subgraph cluster_N` box per node and cross-node migration edges
    /// are colored distinctly.
    pub fn dag_dot(&self, title: &str) -> String {
        let ctx = self.inner.borrow();
        dag::to_dot(&ctx.dag, title, &ctx.node_of)
    }

    /// Let the virtual host spend `dt` seconds on its own work.
    pub fn host_spin(&self, dt: Time) {
        self.inner.borrow().cuda.host_spin(dt);
    }

    // ------------------------------------------------------------------
    // the scheduler proper
    // ------------------------------------------------------------------

    /// Accept or refuse one call, before anything of it (or of its
    /// batch) touches the scheduler: the arguments match the kernel's
    /// NIDL signature ([`Kernel::validate`]), kernel and arrays are this
    /// runtime's, and the distinct argument arrays fit a device's
    /// memory — nothing can place a launch whose arguments alone exceed
    /// it, even after evicting everything else. Every way in asks here:
    /// [`Kernel::launch`], [`Kernel::launch_autotuned`],
    /// [`crate::Library::call`], [`GrCuda::launch_batch`] and the
    /// serving layer's admission control; [`Kernel::accepts`] asks
    /// without launching.
    pub(crate) fn accept(&self, kernel: &Kernel, args: &[Arg]) -> Result<(), LaunchError> {
        kernel.validate(args)?;
        if !kernel.ctx.same_runtime(self) {
            let is_array = |a: &Arg| matches!(a, Arg::Array(_));
            return Err(LaunchError::ForeignArray {
                kernel: kernel.def.name.into(),
                index: args.iter().position(is_array).unwrap_or(0),
            });
        }
        let Some(capacity) = self.inner.borrow().cuda.device_capacity() else {
            return Ok(());
        };
        let needed = arg_bytes(args);
        if needed > capacity {
            return Err(LaunchError::OutOfMemory {
                kernel: kernel.def.name.into(),
                needed,
                capacity,
            });
        }
        Ok(())
    }

    /// Submit a batch of kernel launches with one amortized host-side
    /// charge (CUDA-Graphs-style batched submission).
    ///
    /// Every call is validated before anything is submitted — against
    /// its NIDL signature, for arrays of another runtime, and against
    /// the device capacity ([`LaunchError::OutOfMemory`]) — and the
    /// first bad call in order is the error: a batch with a bad call
    /// enters the DAG not at all. Under the parallel scheduler the host
    /// API and
    /// scheduling overheads are charged **once per batch** instead of
    /// once per launch, and the per-dependency event spins are skipped;
    /// dependency inference, placement, stream assignment and prefetch
    /// still run per call, so the resulting DAG and timeline are
    /// identical to serial submission up to the saved host time (and
    /// bit-identical under zero overheads). Under the serial scheduler
    /// batching is a plain loop: the host blocks per launch anyway.
    ///
    /// Kernels in the batch must belong to this runtime: a call whose
    /// kernel (and so, once validated, whose arrays) came from another
    /// one fails with [`LaunchError::ForeignArray`]. Returns the device
    /// the placement policy chose for each call, in order.
    ///
    /// # Examples
    ///
    /// ```
    /// use gpu_sim::{DeviceProfile, Grid};
    /// use grcuda::{Arg, BatchLaunch, GrCuda, Options};
    /// use kernels::vec_ops::SQUARE;
    ///
    /// let g = GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel());
    /// let x = g.array_f32(1024);
    /// x.fill_f32(2.0);
    /// let sq = g.build_kernel(&SQUARE).unwrap();
    /// let grid = Grid::d1(4, 256);
    /// let args = [Arg::array(&x), Arg::scalar(1024.0)];
    ///
    /// // Two dependent squarings, one amortized host-side charge.
    /// let devices = g
    ///     .launch_batch(&[
    ///         BatchLaunch { kernel: &sq, grid, args: &args },
    ///         BatchLaunch { kernel: &sq, grid, args: &args },
    ///     ])
    ///     .unwrap();
    /// assert_eq!(devices.len(), 2);
    /// g.sync();
    /// assert_eq!(x.get_f32(0), 16.0); // 2² then 4²
    /// ```
    pub fn launch_batch(&self, calls: &[BatchLaunch<'_>]) -> Result<Vec<u32>, LaunchError> {
        for c in calls {
            self.accept(c.kernel, c.args)?;
        }
        let (amortize, overhead) = {
            let ctx = self.inner.borrow();
            (
                ctx.options.schedule == SchedulePolicy::ParallelAsync,
                ctx.cuda
                    .machine(|dev, _| dev.host_api_overhead + dev.sched_overhead),
            )
        };
        if amortize && !calls.is_empty() {
            self.inner.borrow().cuda.host_spin(overhead);
        }
        // Multi-node machines: the batch is a whole subgraph, so shard
        // it across nodes before per-vertex placement (see
        // [`crate::partition`]). The hints only steer policies that
        // read them ([`crate::Reads::node`]), so every other policy and
        // every single-node machine skips the pre-pass entirely.
        let node_hints: Option<Vec<u32>> = {
            let mut ctx = self.inner.borrow_mut();
            if ctx.node_of.is_empty() || calls.is_empty() || !ctx.placement.reads().node {
                None
            } else {
                let nodes = ctx.cuda.machine(|_, topo| topo.node_count());
                let items: Vec<Vec<(u64, usize)>> = calls
                    .iter()
                    .map(|c| {
                        c.args
                            .iter()
                            .filter_map(|a| match a {
                                Arg::Array(arr) => Some((arr.arr.id.0, arr.arr.byte_len())),
                                Arg::Scalar(_) => None,
                            })
                            .collect()
                    })
                    .collect();
                let part = crate::partition::partition_batch(&items, nodes);
                ctx.partitioned_batches += 1;
                ctx.partition_cut_bytes += part.cut_bytes;
                Some(part.assignment)
            }
        };
        let mut devices = Vec::with_capacity(calls.len());
        for (i, c) in calls.iter().enumerate() {
            devices.push(self.launch_accepted(
                c.kernel,
                c.grid,
                c.args,
                ElementKind::Kernel,
                !amortize,
                node_hints.as_ref().map(|h| h[i]),
            ));
        }
        Ok(devices)
    }

    /// Schedule one launch the caller has had accepted
    /// ([`GrCuda::accept`]); returns the device the placement policy
    /// chose (always 0 on single-device runtimes and under the serial
    /// scheduler). `charge` is false for a batch that paid its host
    /// overhead once up front; `node_hint` is the batch partitioner's.
    /// Allocates nothing in steady state: its lists live in
    /// [`LaunchScratch`], the arguments are read in place, and the
    /// layers below recycle what earlier launches left behind.
    pub(crate) fn launch_accepted(
        &self,
        kernel: &Kernel,
        grid: Grid,
        args: &[Arg],
        kind: ElementKind,
        charge: bool,
        node_hint: Option<u32>,
    ) -> u32 {
        let Ctx {
            cuda,
            options,
            dag,
            streams,
            placement,
            placed,
            scratch: s,
            node_of,
            placement_probes,
            ..
        } = &mut *self.inner.borrow_mut();
        let (sched_overhead, event_overhead, api_overhead) =
            cuda.machine(|d, _| (d.sched_overhead, d.event_overhead, d.host_api_overhead));

        // Split arguments by NIDL parameter kind.
        s.buffers.clear();
        s.accesses.clear();
        s.dag_args.clear();
        s.scalars.clear();
        for (p, a) in kernel.sig.params.iter().zip(args) {
            match (p, a) {
                (NidlParam::Pointer { read_only, .. }, Arg::Array(arr)) => {
                    s.buffers.push(arr.arr.buf.clone());
                    s.accesses.push((arr.arr.id, *read_only));
                    s.dag_args.push(ArgAccess {
                        value: Value(arr.arr.id.0),
                        read_only: *read_only,
                    });
                }
                (NidlParam::Scalar { .. }, Arg::Scalar(v)) => s.scalars.push(*v),
                _ => unreachable!("validated launch"),
            }
        }

        let name = kernel.def.name;
        let launch = Launch {
            name,
            grid,
            cost: (kernel.def.cost)(&s.buffers, &s.scalars),
            buffers: &s.buffers,
            accesses: &s.accesses,
            body: KernelBody::Fn(kernel.def.func),
            scalars: &s.scalars,
        };

        let chosen_device;
        match options.schedule {
            SchedulePolicy::SerialSync => {
                // The original scheduler: default stream, host blocks,
                // no dependency computation, no prefetch.
                let stream = cuda.default_stream();
                let t = cuda.launch(stream, launch).expect("not capturing");
                cuda.task_sync(t);
                // No DAG to annotate in serial mode: drop the events so
                // the buffer stays bounded.
                cuda.drain_mem_events(|_| {});
                chosen_device = 0;
            }
            SchedulePolicy::ParallelAsync => {
                // DAG bookkeeping cost (the "negligible scheduling
                // overheads" of §V-D — present, but small). Batched
                // submission charges it once per batch instead.
                if charge {
                    cuda.host_spin(sched_overhead);
                }

                let vid = dag.register(kind, name, &s.dag_args, &mut s.deps);

                // Device selection (the policy layer): consulted with the
                // vertex's DAG context — where the parents ran, which
                // device already holds the argument bytes, how loaded
                // each device is. Transfer prices are computed only for a
                // policy that reads them, and are all 0 otherwise.
                let n_dev = cuda.device_count();
                let device = if n_dev == 1 {
                    0
                } else {
                    s.parent_devices.clear();
                    let device_of = |&d: &VertexId| placed.get(d).map(|p| p.device);
                    s.parent_devices.extend(s.deps.iter().filter_map(device_of));
                    s.resident_bytes.clear();
                    s.resident_bytes.resize(n_dev, 0);
                    s.est_transfer_time.clear();
                    s.est_transfer_time.resize(n_dev, 0.0);
                    let priced = placement.reads().transfer;
                    for arr in distinct_arrays(args) {
                        // Per-candidate estimated transfer time: what
                        // moving this computation's arguments to each
                        // device would cost over the actual links (each
                        // distinct array counted once, O(devices) each),
                        // with residency as a by-product; residency alone
                        // is one lookup.
                        let holder = if priced {
                            *placement_probes += 1;
                            cuda.placement_probe(arr, &mut s.est_transfer_time)
                        } else {
                            cuda.device_residency(arr)
                        };
                        if let Some(d) = holder {
                            s.resident_bytes[d as usize] += arr.byte_len();
                        }
                    }
                    cuda.device_loads_into(&mut s.inflight);
                    cuda.free_device_bytes_into(&mut s.free_bytes);
                    placement.select(&PlacementCtx {
                        device_count: n_dev,
                        parent_devices: &s.parent_devices,
                        resident_bytes: &s.resident_bytes,
                        est_transfer_time: &s.est_transfer_time,
                        inflight: &s.inflight,
                        free_bytes: &s.free_bytes,
                        arg_bytes: arg_bytes(args),
                        kernel: name,
                        duration_prior: cuda.calibration(|c| c.kernel_prior(name)),
                        node_hint,
                        node_of,
                    })
                };
                if n_dev > 1 {
                    // Record the placement for the DOT render (single-GPU
                    // graphs stay undecorated, as the paper draws them).
                    dag.set_device(vid, device);
                }
                chosen_device = device;

                // Stream inheritance is a same-device affair: parents on
                // other devices synchronize through events below.
                s.same_device_deps.clear();
                let here = |d: &VertexId| placed.get(*d).is_some_and(|p| p.device == device);
                s.same_device_deps
                    .extend(s.deps.iter().copied().filter(here));
                let stream = streams.assign(vid, device, &s.same_device_deps, placed, cuda);

                // Automatic prefetch (§IV-C): bulk-migrate non-resident
                // arguments on the kernel's stream.
                if options.prefetch == PrefetchPolicy::Auto {
                    for arr in distinct_arrays(args) {
                        if charge {
                            cuda.prefetch_async(stream, arr);
                        } else {
                            cuda.prefetch_async_uncharged(stream, arr);
                        }
                    }
                }

                // Cross-stream dependencies become events; same-stream
                // ones are implied by stream ordering.
                s.dep_tasks.clear();
                for &d in &s.deps {
                    let other_stream = placed.get(d).filter(|p| p.stream != stream);
                    s.dep_tasks.extend(other_stream.map(|p| p.task));
                }
                if charge && !s.dep_tasks.is_empty() {
                    cuda.host_spin(event_overhead * s.dep_tasks.len() as f64);
                }

                if charge {
                    cuda.host_spin(api_overhead);
                }
                let t = cuda
                    .launch_uncharged(stream, launch, &s.dep_tasks)
                    .expect("not capturing");
                placed.insert(
                    vid,
                    Placed {
                        task: t,
                        stream,
                        device,
                    },
                );
                // Annotate the DAG with what the unified-memory layer did
                // while placing this computation: the evictions it
                // forced and the prefetches issued ahead of it (rendered
                // by `dag::to_dot` as orange/green note nodes), and the
                // cross-device migrations it paid, stamped on the edge
                // they satisfied with the bytes and the route taken.
                cuda.drain_mem_events(|ev| {
                    let value = Value(ev.value.0);
                    match ev.kind {
                        MemEventKind::Evicted { spilled } => {
                            dag.annotate_evict(vid, value, ev.bytes, spilled)
                        }
                        MemEventKind::Prefetched => dag.annotate_prefetch(vid, value, ev.bytes),
                        MemEventKind::Migrated { p2p, cross_node } => {
                            dag.annotate_migration_route(vid, value, ev.bytes, p2p, cross_node)
                        }
                    }
                });
            }
        }
        s.buffers.clear();
        chosen_device
    }

    /// Intercepted CPU access to a managed array (called by
    /// [`DeviceArray`] accessors). Blocks the virtual host exactly as
    /// long as the dependencies require, then charges the unified-memory
    /// migration cost.
    pub(crate) fn host_access(&self, arr: &UnifiedArray, bytes: usize, write: bool) {
        let label = if write { "cpu-write" } else { "cpu-read" };
        self.sync_array_deps(arr, label, write);
        let ctx = self.inner.borrow_mut();
        // Unified-memory residency: reads migrate back as touched;
        // writes invalidate the device copy.
        ctx.cuda.host_read(arr, bytes);
        if write {
            ctx.cuda.host_written(arr);
        }
    }

    /// Block the virtual host until every computation writing `arr` has
    /// completed, and retire the synchronized chain's bookkeeping — the
    /// same fine-grained wait a CPU read performs, but **without** the
    /// unified-memory migration: nothing is read, so this models an
    /// event wait on the producing streams, not a data access. The
    /// serving layer uses it to observe request completion without
    /// serializing every request through the fault controller.
    pub(crate) fn await_writers(&self, arr: &UnifiedArray) {
        self.sync_array_deps(arr, "event-wait", false);
    }

    /// The dependency-synchronization half of a fine-grained CPU access:
    /// wait for exactly the streams operating on `arr` (per the paper's
    /// access-time policy) and retire the synchronized chain.
    fn sync_array_deps(&self, arr: &UnifiedArray, label: &'static str, write: bool) {
        let mut ctx = self.inner.borrow_mut();
        match ctx.options.schedule {
            SchedulePolicy::SerialSync => {
                // Everything is already synchronized; only the migration
                // cost applies.
            }
            SchedulePolicy::ParallelAsync => {
                let pre_pascal = ctx.cuda.machine(|dev, _| dev.arch == Architecture::Maxwell);
                if pre_pascal && !ctx.options.visibility_restriction {
                    // Without the visibility trick, the CPU may not touch
                    // managed memory while any kernel runs: full sync —
                    // the same retire path `sync()` takes, so stream
                    // claims and launch records are reclaimed here too
                    // instead of leaking until the next `sync()`.
                    ctx.cuda.device_sync();
                    ctx.retire_everything();
                } else {
                    // "If the CPU requires data for a computation, we
                    // synchronize only the streams that are currently
                    // operating on this data."
                    let (vertex, deps) = ctx.dag.add_array_access(label, Value(arr.id.0), write);
                    if let Some(v) = vertex {
                        for &d in &deps {
                            if let Some(p) = ctx.placed.get(d) {
                                ctx.cuda.task_sync(p.task);
                            }
                        }
                        // The access is synchronous: it and everything
                        // upstream is now retired — drop the per-vertex
                        // bookkeeping of the whole retired chain, not
                        // just the direct dependencies.
                        let retired = ctx.dag.retire(v);
                        ctx.streams.forget(&retired);
                        for &r in &retired {
                            ctx.placed.remove(r);
                        }
                        ctx.dag.maybe_compact();
                    }
                }
            }
        }
    }
}

impl Ctx {
    /// The full-synchronization retire path, shared by [`GrCuda::sync`]
    /// and the pre-Pascal `host_access` branch: every vertex is retired,
    /// so *all* per-vertex scheduler state can be reclaimed at once.
    fn retire_everything(&mut self) {
        self.dag.retire_all();
        self.dag.compact();
        self.streams.forget_all();
        self.placed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Arg;
    use kernels::util::{AXPY, MEMSET_F32, SCALE};
    use kernels::vec_ops::{REDUCE_SUM_DIFF, SQUARE};
    use kernels::{dl::POOL2D, hits::SPMV, image::SOBEL, ml::NB_ROW_MAX};

    fn parallel(dev: DeviceProfile) -> GrCuda {
        GrCuda::new(dev, Options::parallel())
    }

    fn p100() -> GrCuda {
        parallel(DeviceProfile::tesla_p100())
    }

    impl GrCuda {
        /// Read the scheduler's DAG and effects table, for tests that
        /// audit the inferred schedule with edges taken away.
        pub(crate) fn with_dag<R>(
            &self,
            f: impl FnOnce(&ComputationDag, &crate::audit::EffectsTable) -> R,
        ) -> R {
            let ctx = self.inner.borrow();
            f(&ctx.dag, &ctx.effects)
        }
    }

    const G: Grid = Grid {
        blocks: (64, 1, 1),
        threads: (256, 1, 1),
    };

    #[test]
    fn independent_squares_run_on_two_streams() {
        let g = p100();
        let n = 1 << 20;
        let x = g.array_f32(n);
        let y = g.array_f32(n);
        let sq = g.build_kernel(&SQUARE).unwrap();
        sq.launch(G, &[Arg::array(&x), Arg::scalar(n as f64)])
            .unwrap();
        sq.launch(G, &[Arg::array(&y), Arg::scalar(n as f64)])
            .unwrap();
        g.sync();
        let tl = g.timeline();
        let streams: std::collections::HashSet<u32> = tl.kernels().map(|iv| iv.stream).collect();
        assert_eq!(streams.len(), 2, "independent kernels use distinct streams");
        assert!(g.races().is_empty());
    }

    #[test]
    fn the_runtime_keeps_no_array_handle_after_a_launch() {
        for opts in [Options::parallel(), Options::serial()] {
            let g = GrCuda::new(DeviceProfile::tesla_p100(), opts);
            let n = 1 << 10;
            let (x, y) = (g.array_f32(n), g.array_f32(n));
            let sc = g.build_kernel(&SCALE).unwrap();
            let args = [
                Arg::array(&x),
                Arg::array(&y),
                Arg::scalar(2.0),
                Arg::scalar(n as f64),
            ];
            sc.launch(G, &args).unwrap();
            // The launch's working lists stay with the context, but the
            // one that held buffer handles is empty again ...
            assert!(g.inner.borrow().scratch.buffers.is_empty());
            assert!(!g.inner.borrow().scratch.accesses.is_empty());
            g.sync();
            g.clear_timeline();
            // ... and once the kernel has run, so is every pool below:
            // the handles in `args` and `x`/`y` are the only ones left.
            drop(args);
            let probe = x.raw_buffer();
            drop(x);
            assert_eq!(probe.handle_count(), 1);
        }
    }

    #[test]
    fn dependent_chain_reuses_the_parent_stream() {
        let g = p100();
        let n = 1 << 16;
        let x = g.array_f32(n);
        let y = g.array_f32(n);
        x.fill_f32(1.0);
        let sc = g.build_kernel(&SCALE).unwrap();
        let ax = g.build_kernel(&AXPY).unwrap();
        sc.launch(
            G,
            &[
                Arg::array(&x),
                Arg::array(&y),
                Arg::scalar(2.0),
                Arg::scalar(n as f64),
            ],
        )
        .unwrap();
        ax.launch(
            G,
            &[
                Arg::array(&x),
                Arg::array(&y),
                Arg::scalar(1.0),
                Arg::scalar(n as f64),
            ],
        )
        .unwrap();
        g.sync();
        let tl = g.timeline();
        let ks: Vec<_> = tl.kernels().collect();
        assert_eq!(ks.len(), 2);
        assert_eq!(
            ks[0].stream, ks[1].stream,
            "first child rides the parent's stream"
        );
        assert_eq!(g.snapshot().streams_created, 1);
    }

    #[test]
    fn parallel_scheduler_beats_serial_on_independent_work() {
        let run = |opts: Options| {
            let g = GrCuda::new(DeviceProfile::tesla_p100(), opts);
            let n = 1 << 22;
            let arrays: Vec<_> = (0..4).map(|_| g.array_f32(n)).collect();
            for a in &arrays {
                a.fill_f32(1.5);
            }
            let sq = g.build_kernel(&SQUARE).unwrap();
            let t0 = g.now();
            for a in &arrays {
                sq.launch(Grid::d1(64, 32), &[Arg::array(a), Arg::scalar(n as f64)])
                    .unwrap();
            }
            g.sync();
            g.now() - t0
        };
        let serial = run(Options::serial());
        let par = run(Options::parallel());
        assert!(par < serial, "parallel {par} vs serial {serial}");
    }

    #[test]
    fn cpu_read_syncs_only_the_producing_stream() {
        let g = p100();
        // Short kernel on x's stream, much longer kernel on y's.
        let n_short = 1 << 12;
        let n_long = 1 << 24;
        let x = g.array_f32(n_short);
        let y = g.array_f32(n_long);
        let sq = g.build_kernel(&SQUARE).unwrap();
        sq.launch(
            Grid::d1(16, 256),
            &[Arg::array(&x), Arg::scalar(n_short as f64)],
        )
        .unwrap();
        sq.launch(
            Grid::d1(4096, 256),
            &[Arg::array(&y), Arg::scalar(n_long as f64)],
        )
        .unwrap();
        let _ = x.get_f32(0);
        let t_read = g.now();
        // The access was modeled and the long kernel was NOT drained by
        // the read: only x's producing stream was synchronized.
        assert!(
            g.snapshot().lifetime_vertices >= 3,
            "access was modeled as a computational element"
        );
        let st = g.snapshot().engine;
        assert!(
            st.completed < st.submitted,
            "the long kernel must still be in flight after reading x"
        );
        g.sync();
        // Timeline confirms it: the short kernel ended at or before the
        // read returned, the long one strictly after.
        let tl = g.timeline();
        let ks: Vec<_> = tl.kernels().collect();
        assert_eq!(ks.len(), 2);
        let (short, long) = if ks[0].end <= ks[1].end {
            (*ks[0], *ks[1])
        } else {
            (*ks[1], *ks[0])
        };
        assert_ne!(short.stream, long.stream);
        assert!(short.end <= t_read + 1e-12, "read waited for its producer");
        assert!(
            long.end > t_read,
            "long kernel finished after the read returned: not blocked by it"
        );
        assert!(g.races().is_empty());
    }

    #[test]
    fn unconflicting_cpu_access_is_not_modeled() {
        let g = p100();
        let x = g.array_f32(16);
        let _ = x.get_f32(0); // GPU idle: free access
        assert_eq!(g.snapshot().lifetime_vertices, 0);
    }

    #[test]
    fn war_on_read_only_args_allows_concurrent_readers() {
        let g = p100();
        let n = 1 << 18;
        let x = g.array_f32(n);
        let o1 = g.array_f32(n);
        let o2 = g.array_f32(n);
        x.fill_f32(2.0);
        let sc = g.build_kernel(&SCALE).unwrap();
        // Two kernels read x concurrently.
        sc.launch(
            G,
            &[
                Arg::array(&x),
                Arg::array(&o1),
                Arg::scalar(2.0),
                Arg::scalar(n as f64),
            ],
        )
        .unwrap();
        sc.launch(
            G,
            &[
                Arg::array(&x),
                Arg::array(&o2),
                Arg::scalar(3.0),
                Arg::scalar(n as f64),
            ],
        )
        .unwrap();
        g.sync();
        let tl = g.timeline();
        let streams: std::collections::HashSet<u32> = tl.kernels().map(|iv| iv.stream).collect();
        assert_eq!(streams.len(), 2, "read-only sharing must not serialize");
        assert!(g.races().is_empty());
        assert_eq!(o1.get_f32(7), 4.0);
        assert_eq!(o2.get_f32(7), 6.0);
    }

    #[test]
    fn serial_policy_uses_one_stream() {
        let g = GrCuda::new(DeviceProfile::gtx1660_super(), Options::serial());
        let n = 1 << 16;
        let x = g.array_f32(n);
        let y = g.array_f32(n);
        let sq = g.build_kernel(&SQUARE).unwrap();
        sq.launch(G, &[Arg::array(&x), Arg::scalar(n as f64)])
            .unwrap();
        sq.launch(G, &[Arg::array(&y), Arg::scalar(n as f64)])
            .unwrap();
        let tl = g.timeline();
        assert_eq!(tl.streams_used(), 1);
        assert_eq!(g.snapshot().streams_created, 0);
    }

    #[test]
    fn prefetch_happens_on_fault_capable_devices_only() {
        use gpu_sim::TaskKind;
        for dev in [DeviceProfile::tesla_p100(), DeviceProfile::gtx960()] {
            let supports = dev.supports_page_faults();
            let g = parallel(dev);
            let n = 1 << 20;
            let x = g.array_f32(n);
            x.fill_f32(1.0);
            let sq = g.build_kernel(&SQUARE).unwrap();
            sq.launch(G, &[Arg::array(&x), Arg::scalar(n as f64)])
                .unwrap();
            g.sync();
            let tl = g.timeline();
            let bulk = tl.of_kind(TaskKind::CopyH2D).count();
            let faults = tl.of_kind(TaskKind::FaultH2D).count();
            assert_eq!(faults, 0, "prefetch/eager copy must remove all faults");
            assert!(bulk >= 1);
            let _ = supports;
        }
    }

    #[test]
    fn disabling_prefetch_causes_faults() {
        use gpu_sim::TaskKind;
        let g = GrCuda::new(
            DeviceProfile::tesla_p100(),
            Options::parallel().with_prefetch(PrefetchPolicy::None),
        );
        let n = 1 << 20;
        let x = g.array_f32(n);
        x.fill_f32(1.0);
        let sq = g.build_kernel(&SQUARE).unwrap();
        sq.launch(G, &[Arg::array(&x), Arg::scalar(n as f64)])
            .unwrap();
        g.sync();
        assert!(g.timeline().of_kind(TaskKind::FaultH2D).count() >= 1);
    }

    #[test]
    fn fig4_scheduling_walkthrough() {
        // The paper's Fig. 4: two K1 squares on separate streams, K2 on
        // the first's stream with an event from the second, CPU read of
        // Z syncs everything.
        let g = p100();
        let n = 1 << 18;
        let x = g.array_f32(n);
        let y = g.array_f32(n);
        let z = g.array_f32(1);
        x.fill_f32(1.0);
        y.fill_f32(1.0);
        let sq = g.build_kernel(&SQUARE).unwrap();
        let red = g.build_kernel(&REDUCE_SUM_DIFF).unwrap();
        sq.launch(G, &[Arg::array(&x), Arg::scalar(n as f64)])
            .unwrap();
        sq.launch(G, &[Arg::array(&y), Arg::scalar(n as f64)])
            .unwrap();
        red.launch(
            G,
            &[
                Arg::array(&x),
                Arg::array(&y),
                Arg::array(&z),
                Arg::scalar(n as f64),
            ],
        )
        .unwrap();
        let res = z.get_f32(0);
        assert_eq!(res, 0.0);
        let tl = g.timeline();
        let k2 = tl
            .kernels()
            .find(|iv| iv.label == "reduce_sum_diff")
            .unwrap();
        let k1s: Vec<_> = tl.kernels().filter(|iv| iv.label == "square").collect();
        assert_eq!(k1s.len(), 2);
        // K2 runs on the same stream as one of the K1s (first-child rule).
        assert!(k1s.iter().any(|iv| iv.stream == k2.stream));
        // And strictly after both.
        for k1 in &k1s {
            assert!(k2.start >= k1.end - 1e-12);
        }
    }

    #[test]
    fn maxwell_without_visibility_restriction_syncs_everything() {
        let g = GrCuda::new(
            DeviceProfile::gtx960(),
            Options::parallel().with_visibility_restriction(false),
        );
        let n = 1 << 20;
        let x = g.array_f32(n);
        let y = g.array_f32(n);
        let sq = g.build_kernel(&SQUARE).unwrap();
        sq.launch(G, &[Arg::array(&x), Arg::scalar(n as f64)])
            .unwrap();
        sq.launch(G, &[Arg::array(&y), Arg::scalar(n as f64)])
            .unwrap();
        // Touch an unrelated array: still forces a device sync.
        let w = g.array_f32(4);
        let _ = w.get_f32(0);
        let st = g.snapshot().engine;
        assert_eq!(
            st.completed, st.submitted,
            "device fully drained by the access"
        );
    }

    #[test]
    fn kernel_launch_error_paths() {
        let g = p100();
        let x = g.array_f32(8);
        let d = g.array_f64(8);
        let ms = g.build_kernel(&MEMSET_F32).unwrap();
        // Arity.
        assert!(matches!(
            ms.launch(G, &[Arg::array(&x)]),
            Err(crate::LaunchError::ArityMismatch { .. })
        ));
        // Kind: scalar where pointer expected.
        assert!(matches!(
            ms.launch(G, &[Arg::scalar(0.0), Arg::scalar(0.0), Arg::scalar(8.0)]),
            Err(crate::LaunchError::KindMismatch { .. })
        ));
        // Type: f64 array where float declared.
        assert!(matches!(
            ms.launch(G, &[Arg::array(&d), Arg::scalar(0.0), Arg::scalar(8.0)]),
            Err(crate::LaunchError::TypeMismatch { .. })
        ));
        // Correct call goes through.
        ms.launch(G, &[Arg::array(&x), Arg::scalar(5.0), Arg::scalar(8.0)])
            .unwrap();
        assert_eq!(x.get_f32(3), 5.0);

        // Integer scalars: `n` is declared `sint32`, so a value that is
        // not one is refused before anything enters the DAG — by a
        // launch, by a batch (whose good first call is not submitted
        // either) and by a library call — instead of reaching the
        // kernel's conversion at the next sync.
        let lib = g.register_library(&MEMSET_F32, G, true).unwrap();
        let state = || {
            (
                g.snapshot().lifetime_vertices,
                g.snapshot().engine.submitted,
            )
        };
        let before = state();
        let args = |n: f64| [Arg::array(&x), Arg::scalar(7.0), Arg::scalar(n)];
        let good = args(8.0);
        let refused = Err(crate::LaunchError::BadScalar {
            kernel: "memset_f32".into(),
            index: 2,
        });
        for bad in [f64::NAN, 7.5, 2f64.powi(31)] {
            let bad = args(bad);
            assert_eq!(ms.launch(G, &bad).map(|_| ()), refused);
            assert_eq!(lib.call(&bad), refused);
            let call = |args| BatchLaunch {
                kernel: &ms,
                grid: G,
                args,
            };
            let batch = [call(&good), call(&bad)];
            assert_eq!(g.launch_batch(&batch).map(|_| ()), refused);
        }
        assert_eq!(state(), before);
        assert_eq!(x.get_f32(3), 5.0);
        // A negative `n` *is* a `sint32`: it is accepted and, as a
        // length, means no elements — a no-op through a launch and
        // through a batch, in debug and release builds alike.
        let sq = g.build_kernel(&SQUARE).unwrap();
        let none = [Arg::array(&x), Arg::scalar(-1.0)];
        sq.launch(G, &none).unwrap();
        let batch = [BatchLaunch {
            kernel: &sq,
            grid: G,
            args: &none,
        }];
        g.launch_batch(&batch).unwrap();
        assert_eq!(x.get_f32(3), 5.0);
        // A `float` parameter still takes any `f64`.
        ms.launch(
            G,
            &[Arg::array(&x), Arg::scalar(f64::NAN), Arg::scalar(8.0)],
        )
        .unwrap();
        assert!(x.get_f32(3).is_nan());

        // A length past the end of the arrays is a valid `sint32` the
        // runtime cannot judge (it does not know which scalar is a
        // length): the launch is accepted and the kernel stops at its
        // shortest buffer instead of indexing out of bounds when
        // virtual time reaches it — through a launch and through a
        // batch.
        let scale = g.build_kernel(&SCALE).unwrap();
        let (src, dst) = (g.array_f32(16), g.array_f32(16));
        src.fill_f32(2.0);
        let long = |a: f64| {
            [
                Arg::array(&src),
                Arg::array(&dst),
                Arg::scalar(a),
                Arg::scalar(4096.0),
            ]
        };
        scale.launch(G, &long(3.0)).unwrap();
        g.sync();
        assert_eq!(dst.to_vec_f32(), vec![6.0; 16]);
        let args = long(5.0);
        let batch = [BatchLaunch {
            kernel: &scale,
            grid: G,
            args: &args,
        }];
        g.launch_batch(&batch).unwrap();
        g.sync();
        assert_eq!(dst.to_vec_f32(), vec![10.0; 16]);

        // Shapes and index arrays are the caller's as well. One kernel
        // per module that indexes by them — image, ml, dl, and HITS's
        // CSR columns — given a shape (or a column) its 16-element
        // buffers cannot hold: accepted, and when virtual time reaches
        // it the kernel returns without writing — through a launch and
        // through a batch.
        let (ones, out) = (g.array_f32(16), g.array_f32(16));
        ones.fill_f32(1.0);
        let [rowptr, colidx] = [[0, 2], [0, 99]].map(|v| g.array(TypedData::I32(v.to_vec())));
        let shaped = |dims: &[f64]| -> Vec<Arg> {
            let arrays = [Arg::array(&ones), Arg::array(&out)];
            arrays
                .into_iter()
                .chain(dims.iter().map(|&d| Arg::scalar(d)))
                .collect()
        };
        let mut csr = vec![Arg::array(&rowptr), Arg::array(&colidx), Arg::array(&ones)];
        csr.extend(shaped(&[1.0]));
        let oversized = [
            (&SOBEL, shaped(&[4096.0, 4096.0])),
            (&NB_ROW_MAX, shaped(&[4096.0, 10.0])),
            (&POOL2D, shaped(&[64.0, 64.0, 64.0])),
            (&SPMV, csr),
        ];
        for (def, args) in &oversized {
            let kernel = &g.build_kernel(def).unwrap();
            kernel.launch(G, args).unwrap();
            let batch = [BatchLaunch {
                kernel,
                grid: G,
                args,
            }];
            g.launch_batch(&batch).unwrap();
            g.sync();
            assert_eq!(out.to_vec_f32(), vec![0.0; 16], "{}", def.name);
        }

        // Degenerate launches — a zero-length array, a grid of no
        // blocks, blocks of no threads — launch, finish in finite
        // virtual time without a race, and leave scheduler and engine
        // drained after a sync, under both schedulers.
        for options in [Options::serial(), Options::parallel()] {
            let g = GrCuda::new(DeviceProfile::tesla_p100(), options);
            let sq = g.build_kernel(&SQUARE).unwrap();
            let (empty, x) = (g.array_f32(0), g.array_f32(8));
            x.fill_f32(3.0);
            sq.launch(G, &[Arg::array(&empty), Arg::scalar(0.0)])
                .unwrap();
            for grid in [Grid::d1(0, 256), Grid::d1(4, 0)] {
                sq.launch(grid, &[Arg::array(&x), Arg::scalar(8.0)])
                    .unwrap();
            }
            g.sync();
            assert!(g.now().is_finite(), "{options:?}");
            assert!(g.races().is_empty(), "{options:?}");
            assert_eq!(x.to_vec_f32(), vec![81.0; 8], "{options:?}");
            let st = g.snapshot();
            assert!(st.is_drained(), "{options:?}: {st:?}");
            assert_eq!(st.engine.completed, st.engine.submitted, "{options:?}");
        }
    }

    #[test]
    fn arrays_from_another_runtime_are_refused_before_the_dag() {
        // Value ids are per-runtime counters from 0: `theirs` would
        // alias `ours` (same id) if it ever reached this runtime's DAG.
        let (g, other) = (p100(), p100());
        let ours = g.array_f32(8);
        let theirs = other.array_f32(8);
        ours.fill_f32(1.0);
        theirs.fill_f32(1.0);
        let foreign = |r: Result<(), crate::LaunchError>, kernel: &str, index: usize| {
            let kernel = kernel.to_string();
            assert_eq!(r, Err(crate::LaunchError::ForeignArray { kernel, index }));
        };
        let args = |a: &DeviceArray| [Arg::array(a), Arg::scalar(5.0), Arg::scalar(8.0)];
        let ms = g.build_kernel(&MEMSET_F32).unwrap();
        let their_ms = other.build_kernel(&MEMSET_F32).unwrap();

        foreign(ms.launch(G, &args(&theirs)).map(|_| ()), "memset_f32", 0);
        let mixed = [
            Arg::array(&ours),
            Arg::array(&theirs),
            Arg::scalar(2.0),
            Arg::scalar(8.0),
        ];
        let scale = g.build_kernel(&SCALE).unwrap();
        foreign(scale.launch(G, &mixed).map(|_| ()), "scale", 1);
        let lib = g.register_library(&MEMSET_F32, G, true).unwrap();
        foreign(lib.call(&args(&theirs)), "memset_f32", 0);
        // Batches check every call up front — the good first call is
        // not submitted either — and both ways round: a foreign array
        // under a local kernel, a foreign kernel with its own arrays.
        let (good, bad) = (args(&ours), args(&theirs));
        let call = |kernel, args| BatchLaunch {
            kernel,
            grid: G,
            args,
        };
        let batch = [call(&ms, &good), call(&ms, &bad)];
        foreign(g.launch_batch(&batch).map(|_| ()), "memset_f32", 0);
        let batch = [call(&ms, &good), call(&their_ms, &bad)];
        foreign(g.launch_batch(&batch).map(|_| ()), "memset_f32", 0);

        for st in [g.snapshot(), other.snapshot()] {
            assert_eq!(st.lifetime_vertices, 0, "nothing entered either DAG");
        }
        assert_eq!((ours.get_f32(3), theirs.get_f32(3)), (1.0, 1.0));
        // Each runtime still launches on its own arrays.
        ms.launch(G, &good).unwrap();
        their_ms.launch(G, &bad).unwrap();
        assert_eq!((ours.get_f32(3), theirs.get_f32(3)), (5.0, 5.0));
    }

    #[test]
    fn a_history_sample_appears_when_its_kernel_completes() {
        // A long kernel is launched first (lower task id), a short one
        // second; the short one completes first. Each sample is recorded
        // by the completion itself, in whatever order completions come.
        let g = p100();
        let n_long = 1 << 24;
        let n_short = 1 << 12;
        let x = g.array_f32(n_long);
        let y = g.array_f32(n_short);
        let sq = g.build_kernel(&SQUARE).unwrap();
        sq.launch(
            Grid::d1(4096, 256),
            &[Arg::array(&x), Arg::scalar(n_long as f64)],
        )
        .unwrap();
        sq.launch(
            Grid::d1(16, 256),
            &[Arg::array(&y), Arg::scalar(n_short as f64)],
        )
        .unwrap();
        assert_eq!(
            g.calibration(|c| c.history_samples("square")),
            0,
            "nothing completed yet"
        );
        assert_eq!(g.calibration(|c| c.kernel_prior("square")), None);
        // Sync only the short kernel (fine-grained read, no `sync()`):
        // its sample is visible at once, while the long one is in flight
        // and has left none. Its duration seeds the signature's prior.
        let _ = y.get_f32(0);
        assert_eq!(g.calibration(|c| c.history_samples("square")), 1);
        let short = g.calibration(|c| c.mean_duration("square", 256, n_short));
        assert!(short.is_some());
        assert_eq!(g.calibration(|c| c.kernel_prior("square")), short);
        assert_eq!(
            g.calibration(|c| c.mean_duration("square", 256, n_long)),
            None
        );
        let st = g.snapshot().engine;
        assert!(st.completed < st.submitted, "long kernel still running");
        // Now the long (lower-task-id) kernel completes: its sample
        // appears too.
        g.sync();
        assert!(g
            .calibration(|c| c.mean_duration("square", 256, n_long))
            .is_some());
        assert_eq!(
            g.calibration(|c| c.history_samples("square")),
            2,
            "out-of-order completion must not lose history samples"
        );
    }

    #[test]
    fn unknown_signatures_are_inert() {
        let g = p100();
        // Nothing launched: unknown signatures report "no data" rather
        // than panicking or fabricating values.
        assert_eq!(g.calibration(|c| c.history_samples("nonexistent")), 0);
        assert_eq!(
            g.calibration(|c| c.best_block_size("nonexistent", 1 << 14)),
            None
        );
        assert_eq!(
            g.calibration(|c| c.mean_duration("nonexistent", 256, 1 << 14)),
            None
        );
        // After real samples exist, unknown signatures still miss.
        let n = 1 << 14;
        let x = g.array_f32(n);
        let sq = g.build_kernel(&SQUARE).unwrap();
        sq.launch(G, &[Arg::array(&x), Arg::scalar(n as f64)])
            .unwrap();
        g.sync();
        assert_eq!(g.calibration(|c| c.history_samples("square")), 1);
        assert_eq!(
            g.calibration(|c| c.history_samples("sqaure")),
            0,
            "no fuzzy matching"
        );
        // A second sync finds no new completions and must not
        // double-count the existing ones.
        g.sync();
        assert_eq!(g.calibration(|c| c.history_samples("square")), 1);
    }

    #[test]
    fn streams_are_reused_across_sync_points() {
        let g = p100();
        let n = 1 << 14;
        let sq = g.build_kernel(&SQUARE).unwrap();
        for _ in 0..5 {
            let x = g.array_f32(n);
            x.fill_f32(1.0);
            sq.launch(G, &[Arg::array(&x), Arg::scalar(n as f64)])
                .unwrap();
            g.sync();
        }
        // One stream suffices: after each sync it is empty and reused.
        assert_eq!(g.snapshot().streams_created, 1);
    }

    // --------------------------------------------------------------
    // multi-device machines: the same runtime on a bigger topology
    // --------------------------------------------------------------

    /// `n` Tesla P100s over host (PCIe) links only.
    fn mgpu(n: usize, policy: PlacementPolicy) -> GrCuda {
        let dev = DeviceProfile::tesla_p100();
        let topo = Topology::pcie_only(n, &dev);
        GrCuda::with_topology(dev, topo, Options::parallel(), policy)
    }

    fn bs_args(x: &DeviceArray, y: &DeviceArray, n: usize) -> [Arg; 7] {
        [
            Arg::array(x),
            Arg::array(y),
            Arg::scalar(n as f64),
            Arg::scalar(100.0),
            Arg::scalar(0.02),
            Arg::scalar(0.3),
            Arg::scalar(1.0),
        ]
    }

    /// The `(src, dst, factor, n)` argument shape of SCALE, AXPY,
    /// SCALE_I32 and THRESHOLD_U8.
    fn map_args(src: &DeviceArray, dst: &DeviceArray, a: f64, n: usize) -> [Arg; 4] {
        [
            Arg::array(src),
            Arg::array(dst),
            Arg::scalar(a),
            Arg::scalar(n as f64),
        ]
    }

    /// `count` fresh `(input, output)` f64 pairs, inputs host-written.
    fn bs_arrays(g: &GrCuda, count: usize, n: usize) -> Vec<(DeviceArray, DeviceArray)> {
        (0..count)
            .map(|_| {
                let x = g.array_f64(n);
                let y = g.array_f64(n);
                x.copy_from_f64(&vec![100.0; n]);
                (x, y)
            })
            .collect()
    }

    #[test]
    fn batched_launches_spread_and_compute_like_serial_ones() {
        use kernels::black_scholes::BLACK_SCHOLES;
        let g = mgpu(2, PlacementPolicy::RoundRobin);
        let n = 1 << 14;
        let bs = g.build_kernel(&BLACK_SCHOLES).unwrap();
        let arrays = bs_arrays(&g, 4, n);
        let args: Vec<[Arg; 7]> = arrays.iter().map(|(x, y)| bs_args(x, y, n)).collect();
        let calls: Vec<BatchLaunch<'_>> = args
            .iter()
            .map(|args| BatchLaunch {
                kernel: &bs,
                grid: G,
                args,
            })
            .collect();
        let placements = g.launch_batch(&calls).unwrap();
        g.sync();
        assert_eq!(placements, vec![0, 1, 0, 1], "batch goes through placement");
        assert_eq!(g.races().len(), 0);
        for (_, y) in &arrays {
            assert!(y.to_vec_f64().iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn a_node_aware_batch_records_the_cut_it_was_partitioned_with() {
        // One chain of eight calls on two one-GPU nodes: the component
        // is too heavy for one node, so the partitioner splits it.
        let dev = DeviceProfile::tesla_p100();
        let cluster = gpu_sim::Cluster::new(
            2,
            1,
            TopologyKind::PcieOnly,
            gpu_sim::NicKind::InfinibandHdr,
        );
        let g = GrCuda::with_cluster(
            dev,
            &cluster,
            Options::parallel(),
            PlacementPolicy::NodeAware,
        );
        let n = 1 << 12;
        let scale = g.build_kernel(&SCALE).unwrap();
        let arrays: Vec<_> = (0..9).map(|_| g.array_f32(n)).collect();
        let args: Vec<[Arg; 4]> = arrays
            .windows(2)
            .map(|w| map_args(&w[0], &w[1], 2.0, n))
            .collect();
        let calls: Vec<BatchLaunch<'_>> = args
            .iter()
            .map(|args| BatchLaunch {
                kernel: &scale,
                grid: G,
                args,
            })
            .collect();
        g.launch_batch(&calls).unwrap();
        let items: Vec<Vec<(u64, usize)>> = args
            .iter()
            .map(|args| {
                let arrays = args.iter().filter_map(|a| match a {
                    Arg::Array(arr) => Some((arr.arr.id.0, arr.arr.byte_len())),
                    Arg::Scalar(_) => None,
                });
                arrays.collect()
            })
            .collect();
        let cut = crate::partition::partition_batch(&items, 2).cut_bytes;
        assert!(cut > 0, "the chain is split");
        let st = g.snapshot().cluster;
        assert_eq!((st.partitioned_batches, st.partition_cut_bytes), (1, cut));
    }

    #[test]
    fn independent_work_spreads_round_robin() {
        use kernels::black_scholes::BLACK_SCHOLES;
        let g = mgpu(2, PlacementPolicy::RoundRobin);
        let n = 1 << 18;
        let bs = g.build_kernel(&BLACK_SCHOLES).unwrap();
        let arrays = bs_arrays(&g, 4, n);
        let mut placements = Vec::new();
        for (x, y) in &arrays {
            placements.push(bs.launch(G, &bs_args(x, y, n)).unwrap());
        }
        g.sync();
        assert_eq!(placements, vec![0, 1, 0, 1]);
        assert_eq!(g.races().len(), 0);
        for (_, y) in &arrays {
            assert!(y.to_vec_f64().iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn two_gpus_scale_independent_throughput() {
        use kernels::black_scholes::BLACK_SCHOLES;
        let run = |n_dev: usize| -> f64 {
            let policy = if n_dev == 1 {
                PlacementPolicy::SingleGpu
            } else {
                PlacementPolicy::RoundRobin
            };
            let g = mgpu(n_dev, policy);
            let n = 1 << 20;
            let bs = g.build_kernel(&BLACK_SCHOLES).unwrap();
            for _ in 0..4 {
                let x = g.array_f64(n);
                let y = g.array_f64(n);
                x.copy_from_f64(&vec![100.0; n]);
                bs.launch(G, &bs_args(&x, &y, n)).unwrap();
            }
            g.sync();
            g.now()
        };
        let one = run(1);
        let two = run(2);
        assert!(
            two < 0.75 * one,
            "2 GPUs must be markedly faster: {two} vs {one}"
        );
    }

    #[test]
    fn u8_arrays_stage_and_migrate_across_devices() {
        use kernels::util::THRESHOLD_U8;
        let g = mgpu(2, PlacementPolicy::RoundRobin);
        let n = 4096;
        let x = g.array_u8(n);
        let y = g.array_u8(n);
        let z = g.array_u8(n);
        let input: Vec<u8> = (0..n).map(|i| (i % 256) as u8).collect();
        x.copy_from_u8(&input);
        let threshold = g.build_kernel(&THRESHOLD_U8).unwrap();
        // Op 1 lands on device 0 (taking the host u8 data with a plain
        // H2D); op 2 lands on device 1 and must *migrate* y — the chain
        // exercises both u8 data paths.
        let d1 = threshold.launch(G, &map_args(&x, &y, 128.0, n)).unwrap();
        let d2 = threshold.launch(G, &map_args(&y, &z, 1.0, n)).unwrap();
        assert_ne!(d1, d2, "round robin spreads the chain");
        let migs = g.snapshot().migrations.all;
        assert!(migs.count >= 1, "dependent u8 data must migrate");
        assert!(migs.bytes >= n);
        g.sync();
        let want: Vec<u8> = input
            .iter()
            .map(|&v| if v >= 128 { 255u8 } else { 0 })
            .collect();
        assert_eq!(y.to_vec_u8(), want, "migration preserved the u8 values");
        assert!(z.to_vec_u8().iter().all(|&v| v == 0 || v == 255));
        assert_eq!(z.get_u8(200), 255);
        assert_eq!(g.races().len(), 0);
    }

    #[test]
    fn i32_accessors_round_trip_through_kernels_and_migrations() {
        use kernels::util::SCALE_I32;
        let g = mgpu(2, PlacementPolicy::RoundRobin);
        let n = 4096;
        let x = g.array_i32(n);
        let y = g.array_i32(n);
        let input: Vec<i32> = (0..n as i32).collect();
        x.copy_from_i32(&input);
        assert_eq!(x.to_vec_i32(), input, "host round-trip before any launch");
        let scale = g.build_kernel(&SCALE_I32).unwrap();
        let d1 = scale.launch(G, &map_args(&x, &y, 3.0, n)).unwrap();
        // Second step reads y (produced on d1) — lands on the other
        // device under round-robin and must migrate the i32 data.
        let d2 = scale.launch(G, &map_args(&y, &x, 2.0, n)).unwrap();
        assert_ne!(d1, d2);
        assert!(
            g.snapshot().migrations.all.count >= 1,
            "i32 chain must migrate"
        );
        g.sync();
        let want: Vec<i32> = input.iter().map(|v| 3 * v).collect();
        assert_eq!(y.to_vec_i32(), want);
        assert_eq!(y.get_i32(5), 15);
        assert_eq!(
            x.to_vec_i32(),
            input.iter().map(|v| 6 * v).collect::<Vec<_>>()
        );
        assert_eq!(g.races().len(), 0);
    }
}
