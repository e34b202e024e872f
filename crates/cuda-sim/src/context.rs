//! The simulated CUDA context: streams, events, launches, unified-memory
//! management and host synchronization.

use std::cell::RefCell;
use std::rc::Rc;

use gpu_sim::{
    Calibration, DeviceProfile, Dir, Engine, EngineStats, Link, LinkId, LinkTraffic, RaceReport,
    TaskId, TaskKind, TaskSpec, Time, Timeline, Topology, TopologyKind, TypedData, ValueId,
};
use gpu_sim::{MemoryManager, MemoryStats};

use crate::exec::Launch;
use crate::graph::CaptureState;
use crate::memory::{ArrayState, MemEvent, MemEventKind, Residency, UnifiedArray};
use crate::route::{route, Route};

/// Handle to an in-order execution stream. Stream 0 is the default
/// stream and always exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u32);

/// Handle to a recorded event (a precise synchronization point on a
/// stream, `cudaEventRecord` analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventId(pub(crate) u32);

#[derive(Debug, Clone)]
pub(crate) enum EventTarget {
    /// Normal execution: the event is a completed-or-pending engine task.
    Task(TaskId),
    /// Recorded during stream capture: the event names a graph node.
    CaptureNode(u32),
}

#[derive(Debug, Default, Clone, Copy)]
struct StreamState {
    last: Option<TaskId>,
    /// Device the stream issues onto (0 on single-device contexts).
    device: u32,
}

pub(crate) struct Inner {
    pub(crate) engine: Engine,
    /// The engine's device profile, copied once: every launch and fault
    /// migration reads it between `&mut self` calls (a bulk copy reads
    /// its host link instead).
    pub(crate) dev: DeviceProfile,
    /// State of every allocation, indexed by `ValueId`: [`Cuda::alloc`]
    /// mints ids densely from zero and nothing frees one.
    arrays: Vec<ArrayState>,
    streams: Vec<StreamState>,
    pub(crate) events: Vec<EventTarget>,
    pub(crate) capture: Option<CaptureState>,
    /// Per-link, per-direction DMA copy engines (the last copy queued on
    /// each), indexed by link id and then by the [`gpu_sim::Dir`] a
    /// copy's [`TaskSpec::link`] names. Bulk copies in the same
    /// direction serialize through a single engine, like real hardware —
    /// the reason the paper's VEC benchmark shows zero
    /// computation/computation overlap: the second vector's data arrives
    /// only after the first vector's copy is done. Opposite directions
    /// run concurrently; how they share the link's bandwidth is the rate
    /// solver's rule. Host reads and fault migrations queue on no engine
    /// (a host read blocks the virtual host, so its ordering is
    /// implicit).
    dma: Vec<[Option<TaskId>; 2]>,
    /// Cross-device migrations performed: the run-time migration-cost
    /// accounting the paper's §VI calls for.
    migrations: Migrations,
    /// Capacity accounting, eviction-victim selection and prefetch
    /// bookkeeping (built from the topology's [`gpu_sim::MemoryConfig`];
    /// unlimited by default, in which case every check is a no-op).
    memgr: MemoryManager,
    /// Eviction, prefetch and migration events awaiting
    /// [`Cuda::drain_mem_events`] (recorded only while enabled, so raw
    /// contexts that never drain them stay bounded).
    mem_events: Vec<MemEvent>,
    record_mem_events: bool,
    /// Retained buffers of [`Inner::submit_kernel`] (a launch's
    /// dependency list and pinned argument set), so a launch does not
    /// allocate them anew.
    deps: Vec<TaskId>,
    pinned: Vec<ValueId>,
}

/// A simulated CUDA device context. Cheap to clone; clones share the
/// same device state (like sharing a `CUcontext`).
#[derive(Clone)]
pub struct Cuda {
    pub(crate) inner: Rc<RefCell<Inner>>,
}

impl Cuda {
    /// Create a single-device context for the given device profile.
    pub fn new(dev: DeviceProfile) -> Self {
        let topo = Topology::pcie_only(1, &dev);
        Self::with_topology(dev, topo)
    }

    /// [`Cuda::with_topology`] on an interconnect preset over `n`
    /// identical devices. Retained for `benchmark/`; retire in the next
    /// benchmark PR.
    pub fn new_multi_topo(dev: DeviceProfile, n: usize, kind: TopologyKind) -> Self {
        let topo = Topology::preset(kind, n, &dev);
        Self::with_topology(dev, topo)
    }

    /// Create a context spanning the identical devices of a [`Topology`],
    /// sharing one virtual clock. Streams are created on a device
    /// ([`Cuda::stream_create_on`]). Where the topology has a direct
    /// device↔device link, cross-device migrations use peer-to-peer DMA
    /// over that link (charged to it and contending on it); device pairs
    /// without a link fall back to host-mediated staging over both PCIe
    /// links. The topology's [`gpu_sim::MemoryConfig`] gives every device
    /// its finite memory: allocations and migrations that would exceed
    /// it evict resident arrays back to the host as real copy tasks.
    pub fn with_topology(dev: DeviceProfile, topo: Topology) -> Self {
        let n = topo.device_count();
        let n_links = topo.links().len();
        let memgr = MemoryManager::new(n, topo.memory_config().clone());
        let engine = Engine::with_topology(dev.clone(), topo);
        Cuda {
            inner: Rc::new(RefCell::new(Inner {
                engine,
                dev,
                arrays: Vec::new(),
                streams: vec![StreamState::default()], // default stream, device 0
                events: Vec::new(),
                capture: None,
                dma: vec![[None; 2]; n_links],
                migrations: Migrations::default(),
                memgr,
                mem_events: Vec::new(),
                record_mem_events: false,
                deps: Vec::new(),
                pinned: Vec::new(),
            })),
        }
    }

    /// Number of identical devices in this context.
    pub fn device_count(&self) -> usize {
        self.inner.borrow().engine.device_count()
    }

    /// Fill `out` with every device's in-flight load under a single
    /// borrow — the per-launch placement path calls this once instead
    /// of polling per device.
    pub fn device_loads_into(&self, out: &mut Vec<usize>) {
        let inner = self.inner.borrow();
        out.clear();
        out.extend((0..inner.engine.device_count() as u32).map(|d| inner.engine.device_load(d)));
    }

    /// Fill `out` with every device's free memory bytes under a single
    /// borrow (`usize::MAX` per device when unlimited).
    pub fn free_device_bytes_into(&self, out: &mut Vec<usize>) {
        let inner = self.inner.borrow();
        out.clear();
        out.extend((0..inner.engine.device_count() as u32).map(|d| inner.memgr.free_bytes(d)));
    }

    /// One-borrow placement probe for one argument array: adds to
    /// `est[d]`, for every device `d`, the estimated time to make its
    /// data resident there — `0` when already resident, one host-link
    /// leg when a valid host copy exists, one peer-link leg over a
    /// direct link, two host-link legs (plus the NIC leg across nodes)
    /// for host-mediated migrations; every leg an uncontended `latency +
    /// bytes / bandwidth`. This is the per-candidate cost
    /// transfer-aware placement minimizes — transfer *time*, not raw
    /// bytes — priced along the very route the migration will take.
    /// Returns the device holding the array's current device copy, if
    /// any.
    pub fn placement_probe(&self, a: &UnifiedArray, est: &mut [f64]) -> Option<u32> {
        let inner = self.inner.borrow();
        debug_assert_eq!(est.len(), inner.engine.device_count());
        let st = inner.array(a.id);
        let topo = inner.engine.topology();
        for (d, acc) in est.iter_mut().enumerate() {
            let target = d as u32;
            *acc += route(st, target, topo).cost(st.bytes, target, topo);
        }
        st.residency.on_device().then_some(st.device)
    }

    /// Read the device profile and the interconnect topology in place.
    pub fn machine<R>(&self, f: impl FnOnce(&DeviceProfile, &Topology) -> R) -> R {
        let inner = self.inner.borrow();
        f(&inner.dev, inner.engine.topology())
    }

    /// The configured per-device capacity (`None` = unlimited).
    pub fn device_capacity(&self) -> Option<usize> {
        self.inner.borrow().memgr.capacity(0)
    }

    /// Enable (or disable) recording of eviction, prefetch and migration
    /// [`MemEvent`]s. Off by default so contexts that never drain them
    /// stay bounded; the grcuda scheduler enables it and drains after
    /// every launch to annotate its DAG.
    pub fn record_mem_events(&self, on: bool) {
        self.inner.borrow_mut().record_mem_events = on;
    }

    /// Drain the recorded [`MemEvent`]s into `f`, oldest first, keeping
    /// the buffer they were recorded in. `f` must not call back into
    /// this context.
    pub fn drain_mem_events(&self, f: impl FnMut(MemEvent)) {
        self.inner.borrow_mut().mem_events.drain(..).for_each(f);
    }

    /// Read the engine's calibration state: the per-signature duration
    /// priors ([`gpu_sim::Calibration::kernel_prior`]), their sample
    /// count, and the block-size history. Every completed kernel launch
    /// — direct, serial or graph replay — is recorded into both as the
    /// simulator completes it, from the context's construction on.
    pub fn calibration<R>(&self, f: impl FnOnce(&Calibration) -> R) -> R {
        f(self.inner.borrow().engine.calibration())
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> Time {
        self.inner.borrow().engine.now()
    }

    /// The default stream.
    pub fn default_stream(&self) -> StreamId {
        StreamId(0)
    }

    /// Create a new independent stream on device 0.
    pub fn stream_create(&self) -> StreamId {
        self.stream_create_on(0)
    }

    /// Create a new independent stream on a specific device.
    pub fn stream_create_on(&self, device: u32) -> StreamId {
        let mut inner = self.inner.borrow_mut();
        assert!(
            (device as usize) < inner.engine.device_count(),
            "unknown device {device}"
        );
        inner.streams.push(StreamState { last: None, device });
        StreamId(inner.streams.len() as u32 - 1)
    }

    // ------------------------------------------------------------------
    // memory
    // ------------------------------------------------------------------

    /// Allocate a unified-memory array of `n` f32 elements (GrCUDA's
    /// `float[n]`). Fresh allocations are host-resident.
    pub fn alloc_f32(&self, n: usize) -> UnifiedArray {
        self.alloc(TypedData::F32(vec![0.0; n]))
    }

    /// Allocate a unified-memory array of `n` f64 elements.
    pub fn alloc_f64(&self, n: usize) -> UnifiedArray {
        self.alloc(TypedData::F64(vec![0.0; n]))
    }

    /// Allocate a unified-memory array of `n` i32 elements.
    pub fn alloc_i32(&self, n: usize) -> UnifiedArray {
        self.alloc(TypedData::I32(vec![0; n]))
    }

    /// Allocate a unified-memory array of `n` bytes.
    pub fn alloc_u8(&self, n: usize) -> UnifiedArray {
        self.alloc(TypedData::U8(vec![0; n]))
    }

    /// Allocate a unified-memory array holding `data`: the element type
    /// is the data's, the contents are there from the start.
    pub fn alloc(&self, data: TypedData) -> UnifiedArray {
        let mut inner = self.inner.borrow_mut();
        let id = ValueId(inner.arrays.len() as u64);
        let arr = UnifiedArray::new(id, data);
        inner.arrays.push(ArrayState {
            residency: Residency::Host,
            bytes: arr.byte_len(),
            device: 0,
            prefetched: false,
            last_writer: None,
            host_writer: None,
        });
        arr
    }

    /// Residency of an allocation.
    pub fn residency(&self, a: &UnifiedArray) -> Residency {
        self.inner.borrow().array(a.id).residency
    }

    /// The device holding the current device copy, if any.
    pub fn device_residency(&self, a: &UnifiedArray) -> Option<u32> {
        let inner = self.inner.borrow();
        let st = inner.array(a.id);
        st.residency.on_device().then_some(st.device)
    }

    /// Mark the host copy as modified (CPU wrote the array): the device
    /// copy, if any, is invalidated. Benchmarks call this after filling
    /// inputs. The caller is responsible for having synchronized; a
    /// concurrent GPU user will be flagged by the race detector at the
    /// next launch.
    pub fn host_written(&self, a: &UnifiedArray) {
        let mut inner = self.inner.borrow_mut();
        let st = state_mut(&mut inner.arrays, a.id);
        st.bytes = a.byte_len();
        st.host_writer = None;
        let device = st.device;
        inner.set_copies(a.id, Residency::Host, device, None);
    }

    /// Model the CPU touching `bytes` of the array (e.g. reading a
    /// result). If the current copy is on the device, an on-demand
    /// migration is simulated and the host blocks on it. Returns the
    /// simulated cost in seconds.
    pub fn host_read(&self, a: &UnifiedArray, bytes: usize) -> Time {
        let mut inner = self.inner.borrow_mut();
        let t0 = inner.engine.now();
        let st = state_mut(&mut inner.arrays, a.id);
        st.bytes = a.byte_len();
        let (residency, device, last_writer) = (st.residency, st.device, st.last_writer);
        match residency {
            // Host-only data is immediately readable — unless an
            // eviction spill is still carrying it back, in which case
            // the host blocks on the spill copy (already charged to the
            // host link; no second migration is paid).
            Residency::Host => {
                if let Some(w) = last_writer {
                    inner.engine.sync_task(w);
                }
            }
            Residency::Both => {}
            Residency::Device => {
                let size = bytes as f64;
                let (id, host) = inner.host_leg(device);
                let spec = if inner.dev.supports_page_faults() {
                    let kind = TaskKind::FaultD2H;
                    TaskSpec::fault_migration(kind, "umfault", u32::MAX, size, id, &inner.dev)
                } else {
                    TaskSpec::bulk_copy(TaskKind::CopyD2H, "d2h", u32::MAX, size, id, host)
                };
                // Whole-array state machine: after touching it the host
                // can see it (pages migrate lazily; we charge only what
                // was touched but flip the flag).
                let lands = (Residency::Both, device);
                let t = inner.submit_leg(a.id, spec.on_device(device), false, lands);
                inner.engine.sync_task(t);
            }
        }
        inner.engine.now() - t0
    }

    // ------------------------------------------------------------------
    // transfers
    // ------------------------------------------------------------------

    /// `cudaMemPrefetchAsync` analogue: bulk-migrate the array to the
    /// device on `stream` at full PCIe bandwidth. Only meaningful on
    /// fault-capable devices; a no-op if the data is already resident.
    ///
    /// During stream capture this records **nothing**: the CUDA Graphs
    /// API of the paper's era cannot capture prefetches, which is the
    /// root cause of the Fig. 8 performance gap.
    pub fn prefetch_async(&self, stream: StreamId, a: &UnifiedArray) -> Option<TaskId> {
        self.prefetch_inner(stream, a, true)
    }

    /// [`Cuda::prefetch_async`] without the per-call host API charge —
    /// for batched submission paths that pay one amortized charge up
    /// front for the whole batch. Virtual-time effects are otherwise
    /// identical.
    pub fn prefetch_async_uncharged(&self, stream: StreamId, a: &UnifiedArray) -> Option<TaskId> {
        self.prefetch_inner(stream, a, false)
    }

    fn prefetch_inner(&self, stream: StreamId, a: &UnifiedArray, charge: bool) -> Option<TaskId> {
        let inner = &mut *self.inner.borrow_mut();
        if inner.capture.is_some() {
            return None; // not capturable
        }
        if !inner.dev.supports_page_faults() {
            return None; // no UM migration engine on pre-Pascal
        }
        let target = inner.streams[stream.0 as usize].device;
        let bytes = a.byte_len();
        let st = state_mut(&mut inner.arrays, a.id);
        st.bytes = bytes;
        let route = route(st, target, inner.engine.topology());
        if route == Route::InPlace {
            return None;
        }
        // Capacity admission: prefetches are opportunistic — they use
        // headroom but never evict anything. Without headroom the copy
        // is left to the launch-time migration, which may.
        let free = inner.memgr.free_bytes(target);
        if !inner.memgr.prefetcher.admit(free, bytes) {
            return None;
        }
        if charge {
            let overhead = inner.dev.host_api_overhead;
            inner.engine.advance_host(overhead);
        }
        let t = inner.execute(route, a.id, target, stream, Fetch::Prefetch);
        // A later kernel finding the array there counts as a prefetch
        // hit.
        state_mut(&mut inner.arrays, a.id).prefetched = true;
        inner.note(a.id, bytes, MemEventKind::Prefetched);
        t
    }

    // ------------------------------------------------------------------
    // kernel launch
    // ------------------------------------------------------------------

    /// Launch a kernel on a stream (`<<<grid>>>` analogue). Returns the
    /// engine task, or `None` while capturing (the launch became a graph
    /// node instead).
    ///
    /// Unified-memory behaviour: any argument not resident on the device
    /// is migrated first — eagerly at full bandwidth on pre-Pascal
    /// devices, or through the slow page-fault path on Pascal+ (unless it
    /// was prefetched).
    ///
    /// The launch is a borrowed [`Launch`]; a `&KernelExec` converts
    /// into one.
    pub fn launch<'a>(&self, stream: StreamId, exec: impl Into<Launch<'a>>) -> Option<TaskId> {
        self.launch_inner(stream, exec.into(), &[], true)
    }

    /// [`Cuda::launch`] without the per-call host API charge, with
    /// additional explicit dependencies (the grcuda scheduler encodes
    /// cross-stream DAG edges with them). The caller pays the host API
    /// overhead itself: once per call with [`Cuda::host_spin`], or once
    /// up front for a whole batch.
    pub fn launch_uncharged<'a>(
        &self,
        stream: StreamId,
        exec: impl Into<Launch<'a>>,
        extra_deps: &[TaskId],
    ) -> Option<TaskId> {
        self.launch_inner(stream, exec.into(), extra_deps, false)
    }

    fn launch_inner(
        &self,
        stream: StreamId,
        exec: Launch<'_>,
        extra_deps: &[TaskId],
        charge: bool,
    ) -> Option<TaskId> {
        let mut inner = self.inner.borrow_mut();
        if let Some(cap) = &mut inner.capture {
            cap.record_kernel(stream, &exec);
            return None;
        }
        if charge {
            let overhead = inner.dev.host_api_overhead;
            inner.engine.advance_host(overhead);
        }
        Some(inner.submit_kernel(stream, exec, extra_deps))
    }

    // ------------------------------------------------------------------
    // events & synchronization
    // ------------------------------------------------------------------

    /// Record an event on a stream (`cudaEventRecord`). Later,
    /// [`Cuda::stream_wait_event`] makes another stream wait for it
    /// without blocking the host.
    pub fn event_record(&self, stream: StreamId) -> EventId {
        let mut inner = self.inner.borrow_mut();
        if inner.capture.is_some() {
            let node = inner.capture.as_mut().unwrap().tail_of(stream);
            inner.events.push(EventTarget::CaptureNode(node));
            return EventId(inner.events.len() as u32 - 1);
        }
        let overhead = inner.dev.event_overhead;
        inner.engine.advance_host(overhead);
        let StreamState { last, device } = inner.streams[stream.0 as usize];
        let spec = TaskSpec::marker("event", stream.0).on_device(device);
        let t = inner.engine.submit(spec, last.as_slice());
        inner.streams[stream.0 as usize].last = Some(t);
        inner.events.push(EventTarget::Task(t));
        EventId(inner.events.len() as u32 - 1)
    }

    /// Make all future work on `stream` wait for `event`
    /// (`cudaStreamWaitEvent`).
    pub fn stream_wait_event(&self, stream: StreamId, event: EventId) {
        let mut inner = self.inner.borrow_mut();
        if inner.capture.is_some() {
            let target = inner.events[event.0 as usize].clone();
            if let EventTarget::CaptureNode(n) = target {
                inner.capture.as_mut().unwrap().add_wait(stream, n);
            }
            return;
        }
        let overhead = inner.dev.event_overhead;
        inner.engine.advance_host(overhead);
        let ev_task = match inner.events[event.0 as usize] {
            EventTarget::Task(t) => t,
            EventTarget::CaptureNode(_) => {
                panic!("event recorded during capture used outside its graph")
            }
        };
        let StreamState { last, device } = inner.streams[stream.0 as usize];
        // The stream's tail (if any), then the event.
        let deps = [last.unwrap_or(ev_task), ev_task];
        let spec = TaskSpec::marker("wait", stream.0).on_device(device);
        let t = inner.engine.submit(spec, &deps[last.is_none() as usize..]);
        inner.streams[stream.0 as usize].last = Some(t);
    }

    /// True once every operation enqueued on the stream has completed.
    pub fn stream_query(&self, stream: StreamId) -> bool {
        let inner = self.inner.borrow();
        match inner.streams[stream.0 as usize].last {
            None => true,
            Some(t) => inner.engine.is_complete(t),
        }
    }

    /// Block the host until a specific task completes.
    pub fn task_sync(&self, t: TaskId) {
        self.inner.borrow_mut().engine.sync_task(t);
    }

    /// Block the host until the whole device drains
    /// (`cudaDeviceSynchronize`).
    pub fn device_sync(&self) {
        self.inner.borrow_mut().engine.sync_all();
    }

    /// Let the host spin/compute for `dt` seconds while the device keeps
    /// running in the background.
    pub fn host_spin(&self, dt: Time) {
        self.inner.borrow_mut().engine.advance_host(dt);
    }

    // ------------------------------------------------------------------
    // introspection
    // ------------------------------------------------------------------

    /// Snapshot of the execution timeline.
    pub fn timeline(&self) -> Timeline {
        self.inner.borrow().engine.timeline().clone()
    }

    /// Reset the timeline between measured iterations.
    pub fn clear_timeline(&self) {
        self.inner.borrow_mut().engine.clear_timeline();
    }

    /// Data races detected so far.
    pub fn races(&self) -> Vec<RaceReport> {
        self.inner.borrow().engine.races().to_vec()
    }

    /// Everything this context counts, read under one borrow: see
    /// [`Counters`].
    pub fn stats(&self) -> Counters {
        let inner = self.inner.borrow();
        Counters {
            engine: inner.engine.stats(),
            memory: inner.memgr.stats(),
            kernel_samples: inner.engine.calibration().kernel_samples(),
            migrations: inner.migrations,
            links: inner.engine.link_traffic().to_vec(),
            streams: inner.streams.len(),
        }
    }
}

/// Everything a [`Cuda`] context counts, taken at one instant by
/// [`Cuda::stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Engine counters: tasks submitted, completed and retained, races
    /// and the rate solver's work.
    pub engine: EngineStats,
    /// Memory gauges of the capacity-aware memory manager: per-device
    /// resident and peak-resident bytes, evictions, spilled bytes,
    /// prefetch hit accounting.
    pub memory: MemoryStats,
    /// Kernel completions observed into the calibration's duration
    /// priors.
    pub kernel_samples: u64,
    /// Cross-device migrations performed.
    pub migrations: Migrations,
    /// Lifetime traffic per link, indexed like [`Topology::links`] (host
    /// links first, then peer and NIC links). Includes input staging and
    /// host reads, not just migrations.
    pub links: Vec<LinkTraffic>,
    /// Streams ever created, the default stream included.
    pub streams: usize,
}

/// Cross-device migrations of a context, each as a [`Moved`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Migrations {
    /// Every cross-device migration, peer-to-peer and host-mediated
    /// combined; the host-mediated ones are these less `p2p`.
    pub all: Moved,
    /// The migrations that went over a direct peer link instead of
    /// staging through the host.
    pub p2p: Moved,
    /// NIC legs of cross-node migrations: the host-mediated migrations
    /// whose source and target devices sit on different cluster nodes
    /// also forward the host copy over the NIC link between the nodes.
    /// Zero on single-node machines.
    pub cross_node: Moved,
}

/// How many copies moved, and how many bytes they carried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Moved {
    /// Copies.
    pub count: usize,
    /// Bytes they carried.
    pub bytes: usize,
}

impl Moved {
    fn add(&mut self, bytes: usize) {
        self.count += 1;
        self.bytes += bytes;
    }
}

/// Why an array is being made resident — decides the shape of the H2D
/// leg.
#[derive(Debug, Clone, Copy)]
enum Fetch {
    /// A kernel needs it now: a page-fault migration on fault-capable
    /// devices, an eager bulk copy on older ones.
    Demand,
    /// `cudaMemPrefetchAsync`: a bulk copy at full link bandwidth.
    Prefetch,
}

/// State of allocation `v` in the id-indexed table, for writing (a free
/// function so the other fields of [`Inner`] stay borrowable); an id
/// this context never minted is a caller bug.
fn state_mut(arrays: &mut [ArrayState], v: ValueId) -> &mut ArrayState {
    arrays.get_mut(v.0 as usize).expect("unknown array")
}

impl Inner {
    /// State of an allocation of this context, for reading.
    fn array(&self, v: ValueId) -> &ArrayState {
        self.arrays.get(v.0 as usize).expect("unknown array")
    }

    /// Shared kernel-submission path (used by direct launches and graph
    /// replays): migrate non-resident arguments, then submit the kernel
    /// chained on the stream. The task's read/write lists and
    /// payload are built from the engine's recycled buffers.
    pub(crate) fn submit_kernel(
        &mut self,
        stream: StreamId,
        exec: Launch<'_>,
        extra_deps: &[TaskId],
    ) -> TaskId {
        let kdev = self.streams[stream.0 as usize].device;
        // Unified-memory migrations for non-resident arguments. The
        // kernel's own argument set is pinned: making room for one
        // argument must never evict a sibling.
        let mut pinned = std::mem::take(&mut self.pinned);
        pinned.clear();
        for (v, _) in exec.accesses {
            if !pinned.contains(v) {
                pinned.push(*v);
            }
        }
        for v in &pinned {
            let st = self
                .arrays
                .get_mut(v.0 as usize)
                .expect("kernel argument not allocated here");
            let bytes = st.bytes;
            let route = route(st, kdev, self.engine.topology());
            if route == Route::InPlace {
                // Already in place: bump the LRU clock, and credit the
                // prefetcher if a prefetch put it there.
                let prefetched = std::mem::take(&mut st.prefetched);
                self.memgr.touch(kdev, *v);
                if prefetched {
                    self.memgr.prefetcher.note_hit();
                }
                continue;
            }
            // The argument is about to land on this kernel's device:
            // spill victims first if it would not fit.
            self.ensure_fit(kdev, *v, bytes, &pinned);
            self.execute(route, *v, kdev, stream, Fetch::Demand);
        }

        let (solo, demand) = exec.cost.solo_profile(exec.grid, &self.dev);
        let recycler = self.engine.recycler();
        let mut spec = TaskSpec::kernel(exec.name, stream.0);
        spec.reads = recycler.values();
        spec.writes = recycler.values();
        for &(v, read_only) in exec.accesses {
            if read_only {
                spec.reads.push(v);
            } else {
                spec.writes.push(v);
            }
        }
        let payload = recycler.kernel_payload(exec.body, exec.buffers, exec.scalars);
        spec.on_complete = Some(payload);
        spec.device = kdev;
        spec.fixed_latency = self.dev.launch_overhead;
        spec.fluid_work = solo;
        spec.demand = demand;
        spec.meta.bytes = exec.cost.dram_bytes;
        spec.meta.flops32 = exec.cost.flops32;
        spec.meta.flops64 = exec.cost.flops64;
        spec.meta.l2_bytes = exec.cost.l2_bytes;
        spec.meta.instructions = exec.cost.instructions;
        // The launch shape travels with the task: the engine records it
        // beside the measured duration when the kernel completes.
        let elements = exec.buffers.iter().map(|b| b.len()).max().unwrap_or(0);
        spec.launch_shape = Some((exec.grid, elements));

        let mut deps = std::mem::take(&mut self.deps);
        deps.clear();
        deps.extend(self.streams[stream.0 as usize].last);
        deps.extend_from_slice(extra_deps);
        let t = self.engine.submit(spec, &deps);
        self.deps = deps;
        self.streams[stream.0 as usize].last = Some(t);

        // A kernel that writes an array makes the device copy the only
        // current one.
        for &(v, read_only) in exec.accesses {
            if !read_only {
                self.set_copies(v, Residency::Device, kdev, Some(t));
            }
        }
        self.pinned = pinned;
        t
    }

    // ------------------------------------------------------------------
    // residency & migration
    // ------------------------------------------------------------------

    /// Make `v` resident on `target` along `route` (see
    /// [`crate::route`]), the consumer-side copies issued on `stream`:
    /// one leg per link the route crosses, submitted in travel order.
    /// This is the only place migrations are submitted — launches,
    /// graph replays and prefetches all come through here. Returns the
    /// copy the consumer must wait for, `None` when nothing moves.
    fn execute(
        &mut self,
        route: Route,
        v: ValueId,
        target: u32,
        stream: StreamId,
        fetch: Fetch,
    ) -> Option<TaskId> {
        let st = self.array(v);
        let (bytes, src) = (st.bytes, st.device);
        let size = bytes as f64;
        match route {
            Route::InPlace => return None,
            Route::HostLeg => {}
            // Direct peer-to-peer DMA: no host involvement, no H2D leg,
            // and the host copy stays stale.
            Route::Peer(link) => {
                let topo = self.engine.topology();
                let dir = if src < target { Dir::AToB } else { Dir::BToA };
                let spec = TaskSpec::p2p_copy("p2p", stream.0, size, link, dir, topo.link(link));
                self.migrations.all.add(bytes);
                self.migrations.p2p.add(bytes);
                let (p2p, cross_node) = (true, false);
                self.note(v, bytes, MemEventKind::Migrated { p2p, cross_node });
                let lands = (Residency::Device, target);
                return Some(self.submit_leg(v, spec.on_device(target), true, lands));
            }
            // Host-mediated: a bulk D2H on the source device makes the
            // host copy current again; across nodes it lands in the
            // *source node's* host memory and is forwarded host→host
            // over the NIC link; the H2D below completes the route.
            // None of it blocks the host: each leg chains on the one
            // before through the array's `last_writer`.
            Route::Staged { nic } => {
                let (id, host) = self.host_leg(src);
                let d2h =
                    TaskSpec::bulk_copy(TaskKind::CopyD2H, "migrate", u32::MAX, size, id, host);
                let forward = nic.map(|link| {
                    let topo = self.engine.topology();
                    let (sn, dn) = (topo.node_of(src), topo.node_of(target));
                    let dir = if sn < dn { Dir::AToB } else { Dir::BToA };
                    TaskSpec::p2p_copy("nic", u32::MAX, size, link, dir, topo.link(link))
                });
                let lands = (Residency::Both, src);
                self.migrations.all.add(bytes);
                self.submit_leg(v, d2h.on_device(src), true, lands);
                if let Some(spec) = forward {
                    self.migrations.cross_node.add(bytes);
                    self.submit_leg(v, spec.on_device(target), true, lands);
                }
                let (p2p, cross_node) = (false, nic.is_some());
                self.note(v, bytes, MemEventKind::Migrated { p2p, cross_node });
            }
        }
        let (id, host) = self.host_leg(target);
        let (spec, queues) = if matches!(fetch, Fetch::Demand) && self.dev.supports_page_faults() {
            // Fault-path migrations interleave page-by-page; they
            // contend through the fault controller, not a copy engine.
            let kind = TaskKind::FaultH2D;
            let spec = TaskSpec::fault_migration(kind, "umfault", stream.0, size, id, &self.dev);
            (spec, false)
        } else {
            let label = match fetch {
                Fetch::Demand => "h2d",
                Fetch::Prefetch => "prefetch",
            };
            let spec = TaskSpec::bulk_copy(TaskKind::CopyH2D, label, stream.0, size, id, host);
            (spec, true)
        };
        let lands = (Residency::Both, target);
        Some(self.submit_leg(v, spec.on_device(target), queues, lands))
    }

    /// `device`'s host link, which carries the copies between the host
    /// and the device: its id and the link.
    fn host_leg(&self, device: u32) -> (LinkId, &Link) {
        let link = self.engine.topology().host_link(device);
        (link, self.engine.topology().link(link))
    }

    /// Submit one copy of `v` — a leg of a migration, an eviction spill
    /// or a host read — chained on the stream it is issued on (legs
    /// that run beside the streams carry the `u32::MAX` stream id), on
    /// the DMA engine of the link and direction it names when it
    /// `queues`, and on whatever produced the copy it reads (a writing
    /// kernel or the previous leg, possibly still queued). The stream
    /// and the engine then advance to it and the array's copies become
    /// `lands`: residency flips at submission time, so these
    /// dependencies are what carries the ordering.
    fn submit_leg(
        &mut self,
        v: ValueId,
        mut spec: TaskSpec,
        queues: bool,
        lands: (Residency, u32),
    ) -> TaskId {
        let stream = (spec.stream != u32::MAX).then_some(spec.stream as usize);
        let dma = spec.link.filter(|_| queues);
        let waits = [
            stream.and_then(|s| self.streams[s].last),
            dma.and_then(|(l, dir)| self.dma[l.0 as usize][dir as usize]),
            self.array(v).last_writer,
        ];
        let mut deps = [TaskId(0); 3];
        let mut n = 0;
        for t in waits.into_iter().flatten() {
            deps[n] = t;
            n += 1;
        }
        spec.reads = self.engine.recycler().values();
        spec.reads.push(v);
        let t = self.engine.submit(spec, &deps[..n]);
        if let Some(s) = stream {
            self.streams[s].last = Some(t);
        }
        if let Some((l, dir)) = dma {
            self.dma[l.0 as usize][dir as usize] = Some(t);
        }
        self.set_copies(v, lands.0, lands.1, Some(t));
        t
    }

    /// The one residency transition: `v`'s current copies become
    /// `residency` (the device copy, if any, on `device`), produced by
    /// `producer`. The memory manager's record follows the device copy
    /// — a copy leaving a device forfeits its pending prefetch credit
    /// there.
    fn set_copies(
        &mut self,
        v: ValueId,
        residency: Residency,
        device: u32,
        producer: Option<TaskId>,
    ) {
        let st = state_mut(&mut self.arrays, v);
        let old = st.residency.on_device().then_some(st.device);
        let new = residency.on_device().then_some(device);
        // Whoever makes the host copy current produced it; it keeps its
        // producer while it stays current and has none once stale.
        st.host_writer = match (st.residency.on_host(), residency.on_host()) {
            (true, true) => st.host_writer,
            (false, true) => producer,
            (_, false) => None,
        };
        st.residency = residency;
        st.device = new.unwrap_or(st.device);
        st.last_writer = producer;
        if old != new {
            let bytes = st.bytes;
            if let Some(od) = old {
                st.prefetched = false;
                self.memgr.remove(od, v);
            }
            if let Some(nd) = new {
                self.memgr.insert(nd, v, bytes, self.engine.now());
            }
        }
    }

    /// Record a [`MemEvent`] for the layer above, while it is listening.
    fn note(&mut self, value: ValueId, bytes: usize, kind: MemEventKind) {
        if self.record_mem_events {
            self.mem_events.push(MemEvent { value, bytes, kind });
        }
    }

    // ------------------------------------------------------------------
    // finite device memory
    // ------------------------------------------------------------------

    /// Make room for `bytes` of new resident data on `device`, spilling
    /// victims chosen by the configured eviction policy. `pinned`
    /// values (the launching kernel's own arguments) are never evicted.
    /// A no-op under unlimited capacity or when the data already fits.
    ///
    /// # Panics
    /// Panics with an out-of-memory report when the device cannot hold
    /// the data even after evicting everything evictable. The grcuda
    /// layer raises a recoverable `LaunchError::OutOfMemory` before
    /// reaching this point whenever no device can fit the launch.
    fn ensure_fit(&mut self, device: u32, incoming: ValueId, bytes: usize, pinned: &[ValueId]) {
        let need = self.memgr.shortfall(device, bytes);
        if need == 0 {
            return;
        }
        let topo = self.engine.topology();
        // Cost-aware victim pricing — what bringing the victim back would
        // cost over the device's actual link: a still-valid host copy
        // makes the spill free (the device copy is just dropped) and the
        // possible re-fetch one host-link leg; dirty data pays the spill
        // leg too, a host-staged round trip.
        let price = |vid: ValueId, vbytes: usize| {
            let back = match self.array(vid).residency {
                Residency::Device => Route::Staged { nic: None },
                _ => Route::HostLeg,
            };
            back.cost(vbytes, device, topo)
        };
        let victims = self.memgr.select_victims(device, need, pinned, price);
        let freed: usize = victims.iter().map(|vic| vic.bytes).sum();
        let cap = self
            .memgr
            .capacity(device)
            .expect("shortfall implies a capacity");
        assert!(
            self.memgr.resident_bytes(device) - freed + bytes <= cap,
            "OutOfMemory: device {device} cannot fit array {incoming:?} \
             ({bytes} B): capacity {cap} B, resident {} B of which only \
             {freed} B are evictable (the rest is pinned by the launch)",
            self.memgr.resident_bytes(device),
        );
        for victim in victims {
            self.evict(device, victim.value);
        }
    }

    /// Evict one array's device copy. Dirty copies (no valid host copy)
    /// are spilled by a real device→host bulk copy that contends on the
    /// host link and serializes through the device's D2H DMA engine,
    /// chained on whatever produced the copy; clean copies are dropped
    /// free. Either way the array becomes host-resident, and its next
    /// kernel use pays a fresh migration chained on the spill.
    fn evict(&mut self, device: u32, v: ValueId) {
        let st = self.array(v);
        debug_assert!(st.residency.on_device() && st.device == device);
        let (bytes, host_writer) = (st.bytes, st.host_writer);
        let spilled = if st.residency == Residency::Device {
            // The spill is the host copy's producer: host reads block on
            // it, and the next migration of this array chains after it.
            let size = bytes as f64;
            let (id, host) = self.host_leg(device);
            let spill = TaskSpec::bulk_copy(TaskKind::CopyD2H, "evict", u32::MAX, size, id, host);
            let lands = (Residency::Host, device);
            self.submit_leg(v, spill.on_device(device), true, lands);
            bytes
        } else {
            // A valid host copy exists: drop the device copy for free.
            // The array goes back to what produced the host copy — not
            // to the leg that brought the dropped copy in, which a
            // later host read must not block on. While that leg is
            // still queued the host copy's producer (the spill of an
            // earlier eviction, and behind it the kernel that wrote the
            // data) may be too, and the next re-fetch has to wait for
            // it like the dropped one did.
            self.set_copies(v, Residency::Host, device, host_writer);
            0
        };
        self.memgr.record_eviction(spilled);
        let kind = MemEventKind::Evicted {
            spilled: spilled > 0,
        };
        self.note(v, bytes, kind);
    }

    /// Ensure a stream id exists (graph replay may ask for fresh ones).
    pub(crate) fn ensure_stream(&mut self, stream: StreamId) {
        while self.streams.len() <= stream.0 as usize {
            self.streams.push(StreamState::default());
        }
    }

    pub(crate) fn fresh_stream(&mut self) -> StreamId {
        self.streams.push(StreamState::default());
        StreamId(self.streams.len() as u32 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::KernelExec;
    use gpu_sim::{Grid, KernelCost};
    use std::rc::Rc;

    impl Cuda {
        /// Block the host until the stream drains (`cudaStreamSynchronize`).
        fn stream_sync(&self, stream: StreamId) {
            let mut inner = self.inner.borrow_mut();
            if let Some(t) = inner.streams[stream.0 as usize].last {
                inner.engine.sync_task(t);
            }
        }
    }

    fn ctx() -> Cuda {
        Cuda::new(DeviceProfile::gtx1660_super())
    }

    fn simple_kernel(c: &Cuda, name: &'static str, arr: &UnifiedArray, ms: f64) -> KernelExec {
        let _ = c;
        KernelExec::new(
            name,
            Grid::d1(4096, 256),
            KernelCost {
                min_time: ms * 1e-3,
                ..Default::default()
            },
            vec![arr.buf.clone()],
            vec![(arr.id, false)],
            Rc::new(|_| {}),
        )
    }

    #[test]
    fn arrays_of_another_context_are_refused_by_name() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // `ours` has minted no id at all, so the stranger's handle falls
        // outside its table: every entry point must say what is wrong,
        // not fail on a bare index.
        let stranger = ctx().alloc_f32(16);
        let message = |f: &dyn Fn(&Cuda)| {
            let ours = ctx();
            let panic = catch_unwind(AssertUnwindSafe(|| f(&ours))).expect_err("must refuse");
            let text = panic.downcast_ref::<&str>().map(|s| s.to_string());
            text.or_else(|| panic.downcast_ref::<String>().cloned())
                .expect("a panic message")
        };
        let unknown: [&dyn Fn(&Cuda); 5] = [
            &|c| _ = c.residency(&stranger),
            &|c| _ = c.host_read(&stranger, 4),
            &|c| c.host_written(&stranger),
            &|c| _ = c.prefetch_async(c.default_stream(), &stranger),
            &|c| _ = c.placement_probe(&stranger, &mut [0.0]),
        ];
        for f in unknown {
            assert!(message(f).contains("unknown array"));
        }
        let launch = |c: &Cuda| {
            let k = simple_kernel(c, "k", &stranger, 0.1);
            c.launch(c.default_stream(), &k);
        };
        assert!(message(&launch).contains("kernel argument not allocated here"));
    }

    #[test]
    fn fresh_arrays_are_host_resident() {
        let c = ctx();
        let a = c.alloc_f32(1024);
        assert_eq!(c.residency(&a), Residency::Host);
        assert_eq!(a.len(), 1024);
    }

    #[test]
    fn launch_migrates_then_runs() {
        let c = ctx();
        let a = c.alloc_f32(1 << 20);
        let k = simple_kernel(&c, "k", &a, 1.0);
        let t = c.launch(c.default_stream(), &k).unwrap();
        c.task_sync(t);
        assert_eq!(c.residency(&a), Residency::Device); // kernel wrote it
        let tl = c.timeline();
        // One fault migration + one kernel.
        assert_eq!(tl.kernels().count(), 1);
        assert_eq!(tl.transfers().count(), 1);
        assert_eq!(tl.transfers().next().unwrap().kind, TaskKind::FaultH2D);
    }

    #[test]
    fn prefetch_uses_bulk_copy_and_faults_disappear() {
        let c = ctx();
        let a = c.alloc_f32(1 << 20);
        c.prefetch_async(c.default_stream(), &a);
        let k = simple_kernel(&c, "k", &a, 1.0);
        let t = c.launch(c.default_stream(), &k).unwrap();
        c.task_sync(t);
        let tl = c.timeline();
        assert_eq!(tl.of_kind(TaskKind::CopyH2D).count(), 1);
        assert_eq!(tl.of_kind(TaskKind::FaultH2D).count(), 0);
    }

    #[test]
    fn prefetch_is_faster_than_faulting() {
        let bytes = 64 << 20;
        // Faulting path:
        let c1 = ctx();
        let a1 = c1.alloc_u8(bytes);
        let k1 = simple_kernel(&c1, "k", &a1, 0.1);
        let t1 = c1.launch(c1.default_stream(), &k1).unwrap();
        c1.task_sync(t1);
        let slow = c1.now();
        // Prefetching path:
        let c2 = ctx();
        let a2 = c2.alloc_u8(bytes);
        c2.prefetch_async(c2.default_stream(), &a2);
        let k2 = simple_kernel(&c2, "k", &a2, 0.1);
        let t2 = c2.launch(c2.default_stream(), &k2).unwrap();
        c2.task_sync(t2);
        let fast = c2.now();
        assert!(slow > 1.5 * fast, "fault {slow} vs prefetch {fast}");
    }

    #[test]
    fn pre_pascal_copies_eagerly_at_full_bandwidth() {
        let c = Cuda::new(DeviceProfile::gtx960());
        let a = c.alloc_f32(1 << 20);
        // Prefetch is a no-op on Maxwell.
        assert!(c.prefetch_async(c.default_stream(), &a).is_none());
        let k = simple_kernel(&c, "k", &a, 1.0);
        let t = c.launch(c.default_stream(), &k).unwrap();
        c.task_sync(t);
        let tl = c.timeline();
        assert_eq!(tl.of_kind(TaskKind::CopyH2D).count(), 1);
        assert_eq!(tl.of_kind(TaskKind::FaultH2D).count(), 0);
    }

    #[test]
    fn stream_ordering_is_fifo() {
        let c = ctx();
        let a = c.alloc_f32(16);
        c.prefetch_async(c.default_stream(), &a);
        let k1 = simple_kernel(&c, "k1", &a, 1.0);
        let k2 = simple_kernel(&c, "k2", &a, 1.0);
        let s = c.default_stream();
        c.launch(s, &k1);
        let t2 = c.launch(s, &k2).unwrap();
        c.task_sync(t2);
        let tl = c.timeline();
        let ks: Vec<_> = tl.kernels().collect();
        assert_eq!(ks.len(), 2);
        // Issue order on the same stream: k1 ends before k2 starts.
        let k1iv = ks.iter().find(|iv| iv.label == "k1").unwrap();
        let k2iv = ks.iter().find(|iv| iv.label == "k2").unwrap();
        assert!(k1iv.end <= k2iv.start + 1e-12);
    }

    #[test]
    fn events_synchronize_across_streams() {
        let c = ctx();
        let a = c.alloc_f32(16);
        let b = c.alloc_f32(16);
        c.prefetch_async(c.default_stream(), &a);
        c.prefetch_async(c.default_stream(), &b);
        c.device_sync();
        let s1 = c.stream_create();
        let s2 = c.stream_create();
        let ka = simple_kernel(&c, "producer", &a, 2.0);
        c.launch(s1, &ka);
        let ev = c.event_record(s1);
        c.stream_wait_event(s2, ev);
        let kb = simple_kernel(&c, "consumer", &b, 1.0);
        let t = c.launch(s2, &kb).unwrap();
        c.task_sync(t);
        let tl = c.timeline();
        let prod = tl.kernels().find(|iv| iv.label == "producer").unwrap();
        let cons = tl.kernels().find(|iv| iv.label == "consumer").unwrap();
        assert!(
            cons.start >= prod.end - 1e-12,
            "consumer must wait for the event"
        );
    }

    #[test]
    fn independent_streams_overlap() {
        let c = ctx();
        let a = c.alloc_f32(16);
        let b = c.alloc_f32(16);
        c.prefetch_async(c.default_stream(), &a);
        c.prefetch_async(c.default_stream(), &b);
        c.device_sync();
        let t0 = c.now();
        let s1 = c.stream_create();
        let s2 = c.stream_create();
        // Two small-occupancy kernels.
        let mk = |name: &'static str, arr: &UnifiedArray| {
            KernelExec::new(
                name,
                Grid::d1(64, 32),
                KernelCost {
                    min_time: 1e-3,
                    ..Default::default()
                },
                vec![arr.buf.clone()],
                vec![(arr.id, false)],
                Rc::new(|_| {}),
            )
        };
        c.launch(s1, &mk("a", &a));
        c.launch(s2, &mk("b", &b));
        c.device_sync();
        let span = c.now() - t0;
        assert!(span < 1.5e-3, "kernels must space-share: span = {span}");
    }

    #[test]
    fn host_read_of_device_data_costs_a_migration() {
        let c = ctx();
        let a = c.alloc_f32(1 << 20);
        let k = simple_kernel(&c, "k", &a, 0.5);
        let t = c.launch(c.default_stream(), &k).unwrap();
        c.task_sync(t);
        assert_eq!(c.residency(&a), Residency::Device);
        let dt = c.host_read(&a, 4);
        assert!(dt > 0.0);
        assert_eq!(c.residency(&a), Residency::Both);
        // Second read is free.
        assert_eq!(c.host_read(&a, 4), 0.0);
    }

    #[test]
    fn host_written_invalidates_device_copy() {
        let c = ctx();
        let a = c.alloc_f32(1024);
        let k = simple_kernel(&c, "k", &a, 0.1);
        let t = c.launch(c.default_stream(), &k).unwrap();
        c.task_sync(t);
        c.host_written(&a);
        assert_eq!(c.residency(&a), Residency::Host);
    }

    #[test]
    fn stream_query_tracks_completion() {
        let c = ctx();
        let a = c.alloc_f32(16);
        let s = c.default_stream();
        assert!(c.stream_query(s));
        let k = simple_kernel(&c, "k", &a, 1.0);
        c.launch(s, &k);
        assert!(!c.stream_query(s));
        c.stream_sync(s);
        assert!(c.stream_query(s));
    }

    #[test]
    fn functional_payload_runs_at_completion() {
        let c = ctx();
        let a = c.alloc_f32(4);
        let exec = KernelExec::new(
            "fill7",
            Grid::d1(1, 32),
            KernelCost {
                min_time: 1e-4,
                ..Default::default()
            },
            vec![a.buf.clone()],
            vec![(a.id, false)],
            Rc::new(|bufs: &[gpu_sim::DataBuffer]| {
                for x in bufs[0].as_f32_mut().iter_mut() {
                    *x = 7.0;
                }
            }),
        );
        let t = c.launch(c.default_stream(), &exec).unwrap();
        assert_eq!(a.buf.as_f32()[0], 0.0, "not yet executed in virtual time");
        c.task_sync(t);
        assert_eq!(*a.buf.as_f32(), vec![7.0; 4]);
    }

    #[test]
    fn cross_device_migration_is_charged_and_ordered() {
        let c = Cuda::new_multi_topo(DeviceProfile::tesla_p100(), 2, TopologyKind::PcieOnly);
        let bytes = 4 << 20;
        let a = c.alloc_f32(bytes / 4);
        let s0 = c.default_stream();
        let s1 = c.stream_create_on(1);
        let stream_device = |s: StreamId| c.inner.borrow().streams[s.0 as usize].device;
        assert_eq!(stream_device(s0), 0);
        assert_eq!(stream_device(s1), 1);
        let k = simple_kernel(&c, "produce", &a, 1.0);
        c.launch(s0, &k);
        assert_eq!(c.device_residency(&a), Some(0));
        // Consuming on device 1 must migrate device 0's copy through the
        // host without blocking it, preserving causality.
        let k2 = simple_kernel(&c, "consume", &a, 1.0);
        let t = c.launch(s1, &k2).unwrap();
        c.task_sync(t);
        let all = Moved { count: 1, bytes };
        assert_eq!(c.stats().migrations.all, all);
        assert!(c.races().is_empty());
        let tl = c.timeline();
        let prod = tl.kernels().find(|iv| iv.label == "produce").unwrap();
        let cons = tl.kernels().find(|iv| iv.label == "consume").unwrap();
        assert_eq!((prod.device, cons.device), (0, 1));
        assert!(
            cons.start >= prod.end - 1e-12,
            "consumer must wait for the migrated data"
        );
        assert_eq!(c.device_residency(&a), Some(1), "kernel wrote on device 1");
        assert_eq!(tl.devices_used(), vec![0, 1]);
    }

    #[test]
    fn linked_devices_migrate_peer_to_peer() {
        // Same producer/consumer chain as the host-mediated test, but on
        // an NVLink pair: one direct P2P copy, no D2H staging leg, and
        // the data arrives strictly faster than over the host path.
        let run = |kind: TopologyKind| {
            let c = Cuda::new_multi_topo(DeviceProfile::tesla_p100(), 2, kind);
            let bytes = 16 << 20;
            let a = c.alloc_f32(bytes / 4);
            let s1 = c.stream_create_on(1);
            let k = simple_kernel(&c, "produce", &a, 1.0);
            c.launch(c.default_stream(), &k);
            let k2 = simple_kernel(&c, "consume", &a, 1.0);
            let t = c.launch(s1, &k2).unwrap();
            c.task_sync(t);
            assert!(c.races().is_empty());
            c
        };
        let host = run(TopologyKind::PcieOnly);
        let p2p = run(TopologyKind::NvlinkPair);

        // Host-mediated migrations are the total less the peer ones: all
        // of `host`'s, none of `p2p`'s.
        let moved = Moved {
            count: 1,
            bytes: 16 << 20,
        };
        let (host_st, p2p_st) = (host.stats(), p2p.stats());
        assert_eq!(host_st.migrations.all, moved);
        assert_eq!(host_st.migrations.p2p, Moved::default());
        let tl = host.timeline();
        assert_eq!(tl.of_kind(TaskKind::CopyP2P).count(), 0);
        assert!(tl.of_kind(TaskKind::CopyD2H).count() >= 1, "staging leg");

        assert_eq!(p2p_st.migrations.all, moved);
        assert_eq!(p2p_st.migrations.p2p, moved);
        let tl = p2p.timeline();
        assert_eq!(tl.of_kind(TaskKind::CopyP2P).count(), 1);
        assert_eq!(tl.of_kind(TaskKind::CopyD2H).count(), 0, "no staging");
        let copy = tl.of_kind(TaskKind::CopyP2P).next().unwrap();
        let lid = p2p.machine(|_, topo| topo.d2d_link(0, 1)).unwrap();
        assert_eq!(copy.link, Some(lid.0));
        // Ordering held: consumer waits for the P2P copy.
        let prod = tl.kernels().find(|iv| iv.label == "produce").unwrap();
        let cons = tl.kernels().find(|iv| iv.label == "consume").unwrap();
        assert!(copy.start >= prod.end - 1e-12);
        assert!(cons.start >= copy.end - 1e-12);
        // And the whole chain finishes sooner than host-mediated.
        assert!(
            p2p.now() < host.now(),
            "p2p {} vs host-mediated {}",
            p2p.now(),
            host.now()
        );
        // Migration traffic landed on the peer link, not the host links.
        let peer = p2p_st.links[lid.0 as usize];
        assert_eq!(peer.transfers, 1);
        assert!((peer.bytes - (16 << 20) as f64).abs() < 0.5);
        let host_bytes =
            |st: &Counters| -> f64 { st.links.iter().filter(|l| l.host).map(|l| l.bytes).sum() };
        assert!(
            host_bytes(&p2p_st) < host_bytes(&host_st),
            "p2p must take migration bytes off the host links"
        );
    }

    #[test]
    fn prefetch_uses_the_peer_link_when_available() {
        let c = Cuda::new_multi_topo(DeviceProfile::tesla_p100(), 2, TopologyKind::FullyConnected);
        let a = c.alloc_f32(1 << 20);
        let s1 = c.stream_create_on(1);
        let k = simple_kernel(&c, "produce", &a, 0.5);
        c.launch(c.default_stream(), &k);
        assert_eq!(c.device_residency(&a), Some(0));
        let t = c.prefetch_async(s1, &a).expect("cross-device prefetch");
        c.task_sync(t);
        assert_eq!(c.device_residency(&a), Some(1));
        assert_eq!(
            c.residency(&a),
            Residency::Device,
            "p2p leaves the host copy stale"
        );
        let tl = c.timeline();
        assert_eq!(tl.of_kind(TaskKind::CopyP2P).count(), 1);
        assert_eq!(tl.of_kind(TaskKind::CopyD2H).count(), 0);
        assert_eq!(c.stats().migrations.p2p.count, 1);
    }

    #[test]
    fn placement_probe_estimates_follow_the_links() {
        let c = Cuda::new_multi_topo(DeviceProfile::tesla_p100(), 4, TopologyKind::NvlinkPair);
        let estimate = |a: &UnifiedArray, d: usize| {
            let mut est = vec![0.0; 4];
            let holder = c.placement_probe(a, &mut est);
            assert_eq!(c.device_residency(a), holder, "residency without prices");
            est[d]
        };
        let host = c.machine(|_, topo| topo.link(topo.host_link(0)).clone());
        let n = 1 << 20;
        let bytes = (n * 4) as f64;
        let host_leg = host.latency + bytes / host.bandwidth;
        let a = c.alloc_f32(n);
        // Host-resident: one H2D leg (latency + transfer) to any device.
        for d in 0..4 {
            assert!((estimate(&a, d) - host_leg).abs() < 1e-12);
        }
        assert_eq!(c.device_residency(&a), None);
        // Device-only on dev 0 after a writing kernel.
        let k = simple_kernel(&c, "w", &a, 0.1);
        let t = c.launch(c.default_stream(), &k).unwrap();
        c.task_sync(t);
        assert_eq!(estimate(&a, 0), 0.0);
        assert_eq!(c.device_residency(&a), Some(0));
        let linked = estimate(&a, 1);
        let crossed = estimate(&a, 2);
        assert!(
            linked < host_leg,
            "nvlink beats even one PCIe leg: {linked}"
        );
        assert!(
            (crossed - 2.0 * host_leg).abs() < 1e-12,
            "host-mediated pays both legs, setup latency included"
        );
        // After a host read the copy is valid on both sides: one H2D leg
        // to anywhere else, free where it lives.
        c.host_read(&a, n * 4);
        assert_eq!(estimate(&a, 0), 0.0);
        assert!((estimate(&a, 2) - host_leg).abs() < 1e-12);
        // Small arrays: the peer link's low latency must keep the direct
        // hop cheaper than a host-mediated round trip.
        let small = c.alloc_f32(64);
        let ks = simple_kernel(&c, "ws", &small, 0.01);
        let ts = c.launch(c.default_stream(), &ks).unwrap();
        c.task_sync(ts);
        assert!(
            estimate(&small, 1) < estimate(&small, 2),
            "linked hop must beat the two-leg host route even for tiny arrays"
        );
    }

    #[test]
    fn same_link_same_direction_p2p_copies_serialize() {
        let c = Cuda::new_multi_topo(DeviceProfile::tesla_p100(), 2, TopologyKind::NvlinkPair);
        let n = 4 << 20;
        let a = c.alloc_f32(n / 4);
        let b = c.alloc_f32(n / 4);
        let s0 = c.default_stream();
        let s0b = c.stream_create_on(0);
        let ka = simple_kernel(&c, "wa", &a, 0.1);
        let kb = simple_kernel(&c, "wb", &b, 0.1);
        c.launch(s0, &ka);
        c.launch(s0b, &kb);
        c.device_sync();
        let s1 = c.stream_create_on(1);
        let s1b = c.stream_create_on(1);
        c.prefetch_async(s1, &a);
        c.prefetch_async(s1b, &b);
        c.device_sync();
        let tl = c.timeline();
        let copies: Vec<_> = tl.of_kind(TaskKind::CopyP2P).collect();
        assert_eq!(copies.len(), 2);
        let (first, second) = if copies[0].start <= copies[1].start {
            (copies[0], copies[1])
        } else {
            (copies[1], copies[0])
        };
        assert!(
            second.start >= first.end - 1e-12,
            "same-direction peer copies share one DMA engine"
        );
    }

    #[test]
    fn host_staged_data_reaches_other_devices_without_migration() {
        // Fresh host data is placement-neutral: any device takes it with
        // a plain H2D, never a cross-device migration.
        let c = Cuda::new_multi_topo(DeviceProfile::tesla_p100(), 2, TopologyKind::PcieOnly);
        let a = c.alloc_f32(1 << 18);
        let b = c.alloc_f32(1 << 18);
        let s1 = c.stream_create_on(1);
        let k = simple_kernel(&c, "k0", &a, 0.5);
        c.launch(c.default_stream(), &k);
        let k1 = simple_kernel(&c, "k1", &b, 0.5);
        let t = c.launch(s1, &k1).unwrap();
        c.task_sync(t);
        c.device_sync();
        assert_eq!(c.stats().migrations.all, Moved::default());
        assert!(c.races().is_empty());
    }

    fn limited_ctx(capacity: usize, policy: gpu_sim::EvictionPolicy) -> Cuda {
        let dev = DeviceProfile::tesla_p100();
        let topo = gpu_sim::Topology::preset(TopologyKind::PcieOnly, 1, &dev)
            .with_memory(gpu_sim::MemoryConfig::with_capacity(capacity).with_eviction(policy));
        Cuda::with_topology(dev, topo)
    }

    #[test]
    fn oversubscription_evicts_and_refetches_correct_values() {
        // Capacity fits two of the three arrays: the third launch must
        // evict, and later re-use must re-fetch — with correct numbers.
        let n = 1 << 10; // 4 KiB per array
        let c = limited_ctx(2 * 4 * n, gpu_sim::EvictionPolicy::Lru);
        let arrays: Vec<_> = (0..3).map(|_| c.alloc_f32(n)).collect();
        let s = c.default_stream();
        for round in 0..2 {
            for (i, a) in arrays.iter().enumerate() {
                let exec = KernelExec::new(
                    "inc",
                    Grid::d1(4, 256),
                    KernelCost {
                        min_time: 1e-4,
                        ..Default::default()
                    },
                    vec![a.buf.clone()],
                    vec![(a.id, false)],
                    Rc::new(|bufs: &[gpu_sim::DataBuffer]| {
                        for x in bufs[0].as_f32_mut().iter_mut() {
                            *x += 1.0;
                        }
                    }),
                );
                let t = c.launch(s, &exec).unwrap();
                c.task_sync(t);
                assert_eq!(c.device_residency(a), Some(0), "round {round} array {i}");
                let st = c.stats().memory;
                assert!(st.resident_bytes[0] <= 2 * 4 * n);
            }
        }
        let st = c.stats().memory;
        assert!(st.evictions >= 3, "three-array cycle must thrash: {st:?}");
        assert!(
            st.spilled_bytes >= 4 * n,
            "dirty copies must spill over the host link: {st:?}"
        );
        assert_eq!(st.peak_resident[0], 2 * 4 * n);
        // The spills are real timeline transfers, and the numbers are
        // exactly two increments per element despite the thrashing.
        let tl = c.timeline();
        assert!(tl
            .transfers()
            .any(|iv| iv.label == "evict" && iv.kind == TaskKind::CopyD2H));
        for a in &arrays {
            c.host_read(a, 4 * n);
            assert_eq!(a.buf.as_f32()[7], 2.0);
        }
        assert!(c.races().is_empty());
    }

    #[test]
    fn clean_copies_are_dropped_free_dirty_ones_spill() {
        let n = 1 << 10;
        let bytes = 4 * n;
        // Room for exactly one array.
        let c = limited_ctx(bytes, gpu_sim::EvictionPolicy::CostAware);
        let clean = c.alloc_f32(n);
        let dirty = c.alloc_f32(n);
        let s = c.default_stream();
        // `clean` is prefetched (Both: valid host copy), then `dirty` is
        // written by a kernel — evicting `clean` must move zero bytes.
        c.prefetch_async(s, &clean);
        let k = simple_kernel(&c, "w", &dirty, 0.1);
        let t = c.launch(s, &k).unwrap();
        c.task_sync(t);
        let st = c.stats().memory;
        assert_eq!(st.evictions, 1);
        assert_eq!(st.spilled_bytes, 0, "clean eviction is a free drop");
        assert_eq!(c.device_residency(&clean), None);
        assert_eq!(c.device_residency(&dirty), Some(0));
        // Now the dirty array is the victim: its eviction must spill.
        let k2 = simple_kernel(&c, "w2", &clean, 0.1);
        let t2 = c.launch(s, &k2).unwrap();
        c.task_sync(t2);
        let st = c.stats().memory;
        assert_eq!(st.evictions, 2);
        assert_eq!(st.spilled_bytes, bytes, "dirty eviction pays a D2H spill");
        assert_eq!(
            c.timeline()
                .transfers()
                .filter(|iv| iv.label == "evict")
                .map(|iv| iv.value)
                .collect::<Vec<_>>(),
            [Some(dirty.id)]
        );
    }

    #[test]
    fn a_dropped_clean_copy_goes_back_to_the_producer_of_its_host_copy() {
        let n = 1 << 10;
        // Room for exactly one array.
        let c = limited_ctx(4 * n, gpu_sim::EvictionPolicy::CostAware);
        let (a, b) = (c.alloc_f32(n), c.alloc_f32(n));
        let streams = [(); 4].map(|_| c.stream_create());
        let reader = |name, arr: &UnifiedArray| {
            let cost = KernelCost {
                min_time: 1e-4,
                ..Default::default()
            };
            let accesses = vec![(arr.id, true)];
            let buffers = vec![arr.buf.clone()];
            KernelExec::new(
                name,
                Grid::d1(64, 256),
                cost,
                buffers,
                accesses,
                Rc::new(|_| {}),
            )
        };
        // A long kernel writes `a`; nothing below waits for it on the
        // host, so it is still running at every later submission.
        c.launch(streams[0], &simple_kernel(&c, "write a", &a, 5.0));
        // `b` pushes `a` out (a spill behind the writer); reading `a`
        // brings it back behind the spill and pushes `b` out; `b`
        // returns and drops the clean copy of `a` before its fetch has
        // run; a second reader fetches `a` again on an idle stream.
        c.launch(streams[1], &simple_kernel(&c, "write b", &b, 0.1));
        c.launch(streams[2], &reader("read a", &a));
        c.launch(streams[1], &simple_kernel(&c, "write b again", &b, 0.1));
        let last = c.launch(streams[3], &reader("read a again", &a)).unwrap();
        c.task_sync(last);
        assert_eq!(c.races(), vec![], "the second fetch waits for the spill");
        let tl = c.timeline();
        let of_a = |iv: &&gpu_sim::Interval| iv.value == Some(a.id);
        let spilled = tl
            .transfers()
            .filter(of_a)
            .find(|iv| iv.label == "evict")
            .unwrap();
        // The first fetch of `a` served its writer; the two after it
        // are the re-fetches.
        let fetches: Vec<_> = tl.of_kind(TaskKind::FaultH2D).filter(of_a).collect();
        assert_eq!(fetches.len(), 3);
        assert!(fetches[1..].iter().all(|iv| iv.start >= spilled.end));

        // A copy whose host copy nothing is producing — prefetched,
        // then dropped with the prefetch still in flight — leaves no
        // producer behind: a host read returns at once.
        let c = limited_ctx(4 * n, gpu_sim::EvictionPolicy::CostAware);
        let (clean, other) = (c.alloc_u8(4 * n), c.alloc_f32(n));
        let s = c.default_stream();
        c.prefetch_async(s, &clean);
        c.launch(c.stream_create(), &simple_kernel(&c, "w", &other, 0.1));
        assert_eq!(c.device_residency(&clean), None, "dropped for `other`");
        assert!(!c.stream_query(s), "its prefetch is still in flight");
        assert_eq!(c.host_read(&clean, 4 * n), 0.0);
    }

    #[test]
    fn cost_aware_eviction_prefers_clean_victims_over_lru_order() {
        let n = 1 << 10;
        let bytes = 4 * n;
        let run = |policy| {
            let c = limited_ctx(2 * bytes, policy);
            let s = c.default_stream();
            let clean = c.alloc_f32(n);
            let dirty = c.alloc_f32(n);
            let third = c.alloc_f32(n);
            // Dirty first (kernel write), clean second (prefetch): LRU
            // order says evict `dirty`, cost order says drop `clean`.
            let k = simple_kernel(&c, "w", &dirty, 0.1);
            let t = c.launch(s, &k).unwrap();
            c.task_sync(t);
            c.prefetch_async(s, &clean);
            c.device_sync();
            let k3 = simple_kernel(&c, "w3", &third, 0.1);
            let t3 = c.launch(s, &k3).unwrap();
            c.task_sync(t3);
            c.stats().memory
        };
        let lru = run(gpu_sim::EvictionPolicy::Lru);
        assert_eq!(lru.evictions, 1);
        assert_eq!(lru.spilled_bytes, bytes, "LRU evicts the dirty array");
        let cost = run(gpu_sim::EvictionPolicy::CostAware);
        assert_eq!(cost.evictions, 1);
        assert_eq!(cost.spilled_bytes, 0, "cost-aware drops the clean copy");
    }

    #[test]
    fn a_prefetch_without_headroom_is_skipped_and_the_launch_still_fetches() {
        let small = 1 << 8;
        let big = 1 << 11;
        let c = limited_ctx(4 * (small + big), gpu_sim::EvictionPolicy::Lru);
        let s = c.default_stream();
        let a_small = c.alloc_f32(small);
        let a_big = c.alloc_f32(big);
        c.prefetch_async(s, &a_small);
        c.prefetch_async(s, &a_big);
        c.device_sync();
        // The device is full: a prefetch never evicts, the launch does.
        let mid = c.alloc_f32(1 << 10);
        c.prefetch_async(s, &mid);
        assert_eq!(c.device_residency(&mid), None);
        let k = simple_kernel(&c, "w", &mid, 0.1);
        let t = c.launch(s, &k).unwrap();
        c.task_sync(t);
        let st = c.stats().memory;
        assert!(st.evictions >= 1);
        assert_eq!(c.device_residency(&mid), Some(0));
        assert_eq!(st.prefetch_skipped, 1, "headroom-less prefetch skipped");
    }

    #[test]
    fn prefetch_hits_are_counted_at_launch() {
        let c = limited_ctx(1 << 20, gpu_sim::EvictionPolicy::Lru);
        let a = c.alloc_f32(1 << 10);
        let s = c.default_stream();
        c.prefetch_async(s, &a);
        let st = c.stats().memory;
        assert_eq!((st.prefetch_issued, st.prefetch_hits), (1, 0));
        let k = simple_kernel(&c, "k", &a, 0.1);
        let t = c.launch(s, &k).unwrap();
        c.task_sync(t);
        let st = c.stats().memory;
        assert_eq!(st.prefetch_hits, 1);
        assert!((st.prefetch_hit_rate() - 1.0).abs() < 1e-12);
        // A second launch of the same (now resident) array is not
        // another hit: the credit is consumed once.
        let k2 = simple_kernel(&c, "k2", &a, 0.1);
        let t2 = c.launch(s, &k2).unwrap();
        c.task_sync(t2);
        assert_eq!(c.stats().memory.prefetch_hits, 1);
    }

    #[test]
    fn host_read_of_spilled_array_waits_for_the_spill() {
        let n = 1 << 20; // 4 MiB arrays, big enough to time
        let c = limited_ctx(4 * n, gpu_sim::EvictionPolicy::Lru);
        let s = c.default_stream();
        let a = c.alloc_f32(n);
        let b = c.alloc_f32(n);
        let k = simple_kernel(&c, "wa", &a, 0.1);
        c.launch(s, &k);
        // Launching on b evicts dirty a: the spill D2H is now in flight.
        let k2 = simple_kernel(&c, "wb", &b, 0.1);
        c.launch(s, &k2);
        assert_eq!(c.residency(&a), Residency::Host, "a was spilled");
        let t0 = c.now();
        let dt = c.host_read(&a, 4);
        assert!(
            dt > 0.0 && c.now() > t0,
            "the read must block until the spill copy lands"
        );
        c.device_sync();
        // Exactly two transfers ever involve `a`: its initial fault
        // migration in and the eviction spill out — the blocked read
        // charged no third one.
        let tl = c.timeline();
        let legs_of_a = tl.transfers().filter(|iv| iv.value == Some(a.id));
        assert_eq!(
            legs_of_a.map(|iv| iv.label).collect::<Vec<_>>(),
            ["umfault", "evict"]
        );
        assert!(c.races().is_empty());
    }

    /// Every route a copy takes, one row each: the transfer intervals
    /// the row leaves, in completion order, as (kind, name, array,
    /// device, link). The fixed names tell a spill from a migration from
    /// a host read; the array, device and link fields carry what the
    /// names do not. Kernels record no array.
    #[test]
    fn every_copy_leg_names_its_operation_and_records_its_array() {
        use gpu_sim::{Cluster, NicKind};
        type Leg = (TaskKind, &'static str, Option<ValueId>, u32, Option<u32>);
        // A one-argument kernel on a fresh stream of `device`, waited for.
        fn kernel(c: &Cuda, a: &UnifiedArray, device: u32, read_only: bool) {
            let mut k = simple_kernel(c, "k", a, 0.1);
            k.accesses[0].1 = read_only;
            let t = c.launch(c.stream_create_on(device), &k).unwrap();
            c.task_sync(t);
        }
        let (p100, gtx960) = (DeviceProfile::tesla_p100(), DeviceProfile::gtx960());
        let (fault_in, fault_out) = (TaskKind::FaultH2D, TaskKind::FaultD2H);
        let (h2d, d2h, p2p) = (TaskKind::CopyH2D, TaskKind::CopyD2H, TaskKind::CopyP2P);
        let one = |dev: &DeviceProfile| Topology::pcie_only(1, dev);
        let nvlink = Topology::preset(TopologyKind::NvlinkPair, 2, &p100);
        let pcie = Topology::preset(TopologyKind::PcieOnly, 2, &p100);
        let cluster = Cluster::new(2, 1, TopologyKind::PcieOnly, NicKind::Ethernet25g).build(&p100);
        // Host links come first in every topology, one per device.
        let host = |d: u32| Some(pcie.host_link(d).0);
        let peer = Some(nvlink.d2d_link(0, 1).unwrap().0);
        let nic = Some(cluster.nic_link(0, 1).unwrap().0);
        let ctx =
            |dev: &DeviceProfile, topo: &Topology| Cuda::with_topology(dev.clone(), topo.clone());
        let mut rows: Vec<(&str, Cuda, Vec<Leg>)> = Vec::new();

        let c = ctx(&gtx960, &one(&gtx960));
        let a = c.alloc_f32(256);
        kernel(&c, &a, 0, true);
        rows.push(("host leg", c, vec![(h2d, "h2d", Some(a.id), 0, host(0))]));

        let c = ctx(&p100, &one(&p100));
        let a = c.alloc_f32(256);
        kernel(&c, &a, 0, true);
        let legs = vec![(fault_in, "umfault", Some(a.id), 0, host(0))];
        rows.push(("demand fault", c, legs));

        let c = ctx(&p100, &one(&p100));
        let a = c.alloc_f32(256);
        c.prefetch_async(c.default_stream(), &a);
        rows.push((
            "prefetch",
            c,
            vec![(h2d, "prefetch", Some(a.id), 0, host(0))],
        ));

        let c = ctx(&p100, &nvlink);
        let a = c.alloc_f32(256);
        kernel(&c, &a, 0, false);
        kernel(&c, &a, 1, true);
        let legs = vec![
            (fault_in, "umfault", Some(a.id), 0, host(0)),
            (p2p, "p2p", Some(a.id), 1, peer),
        ];
        rows.push(("peer", c, legs));

        let c = ctx(&p100, &pcie);
        let a = c.alloc_f32(256);
        kernel(&c, &a, 0, false);
        kernel(&c, &a, 1, true);
        let legs = vec![
            (fault_in, "umfault", Some(a.id), 0, host(0)),
            (d2h, "migrate", Some(a.id), 0, host(0)),
            (fault_in, "umfault", Some(a.id), 1, host(1)),
        ];
        rows.push(("staged", c, legs));

        let c = ctx(&p100, &cluster);
        let a = c.alloc_f32(256);
        kernel(&c, &a, 0, false);
        kernel(&c, &a, 1, true);
        let legs = vec![
            (fault_in, "umfault", Some(a.id), 0, host(0)),
            (d2h, "migrate", Some(a.id), 0, host(0)),
            (p2p, "nic", Some(a.id), 1, nic),
            (fault_in, "umfault", Some(a.id), 1, host(1)),
        ];
        rows.push(("staged with a NIC leg", c, legs));

        // Room for one array: writing `b` spills the dirty `a`.
        let c = limited_ctx(4 << 8, gpu_sim::EvictionPolicy::Lru);
        let (a, b) = (c.alloc_f32(256), c.alloc_f32(256));
        kernel(&c, &a, 0, false);
        kernel(&c, &b, 0, false);
        let legs = vec![
            (fault_in, "umfault", Some(a.id), 0, host(0)),
            (d2h, "evict", Some(a.id), 0, host(0)),
            (fault_in, "umfault", Some(b.id), 0, host(0)),
        ];
        rows.push(("eviction spill", c, legs));

        let c = ctx(&p100, &one(&p100));
        let a = c.alloc_f32(256);
        kernel(&c, &a, 0, false);
        c.host_read(&a, 4 << 8);
        let legs = vec![
            (fault_in, "umfault", Some(a.id), 0, host(0)),
            (fault_out, "umfault", Some(a.id), 0, host(0)),
        ];
        rows.push(("host read, fault", c, legs));

        let c = ctx(&gtx960, &one(&gtx960));
        let a = c.alloc_f32(256);
        kernel(&c, &a, 0, false);
        c.host_read(&a, 4 << 8);
        let legs = vec![
            (h2d, "h2d", Some(a.id), 0, host(0)),
            (d2h, "d2h", Some(a.id), 0, host(0)),
        ];
        rows.push(("host read, bulk", c, legs));

        for (route, c, want) in rows {
            c.device_sync();
            let tl = c.timeline();
            let legs = tl.transfers();
            let got: Vec<Leg> = legs
                .map(|iv| (iv.kind, iv.label, iv.value, iv.device, iv.link))
                .collect();
            assert_eq!(got, want, "{route}");
            assert!(tl.kernels().all(|iv| iv.value.is_none()), "{route}");
        }
    }

    #[test]
    fn unlimited_contexts_never_evict_and_skip_sampling() {
        // Nothing samples resident bytes any more (the memory timeline
        // had no reader); the test keeps the name the suite lists it under.
        let c = ctx();
        let a = c.alloc_f32(1 << 20);
        c.prefetch_async(c.default_stream(), &a);
        c.device_sync();
        assert_eq!(c.device_capacity(), None);
        let mut free = Vec::new();
        c.free_device_bytes_into(&mut free);
        assert_eq!(free, [usize::MAX]);
        let st = c.stats().memory;
        assert_eq!(st.evictions, 0);
        assert_eq!(st.capacity, None);
        assert_eq!(st.resident_bytes[0], 4 << 20, "residency is still tracked");
        assert_eq!(c.device_residency(&a), Some(0));
    }

    #[test]
    fn mem_events_record_evictions_and_prefetches_when_enabled() {
        use crate::memory::MemEventKind;
        let n = 1 << 10;
        let c = limited_ctx(4 * n, gpu_sim::EvictionPolicy::Lru);
        let take = || {
            let mut events = Vec::new();
            c.drain_mem_events(|ev| events.push(ev));
            events
        };
        let s = c.default_stream();
        let a = c.alloc_f32(n);
        let b = c.alloc_f32(n);
        // Disabled by default: nothing accumulates.
        c.prefetch_async(s, &a);
        assert!(take().is_empty());
        c.record_mem_events(true);
        let k = simple_kernel(&c, "wb", &b, 0.1);
        let t = c.launch(s, &k).unwrap();
        c.task_sync(t);
        let events = take();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].value, a.id);
        assert_eq!(
            events[0].kind,
            MemEventKind::Evicted { spilled: false },
            "the prefetched copy was clean"
        );
        assert!(take().is_empty(), "a drain empties the buffer");
        // Free the device (invalidate b's copy) so the next prefetch
        // has headroom and is actually issued — and recorded.
        c.host_written(&b);
        c.prefetch_async(s, &a);
        let events = take();
        assert!(events
            .iter()
            .any(|e| e.kind == MemEventKind::Prefetched && e.value == a.id));
    }

    #[test]
    fn a_single_array_larger_than_capacity_fails_loudly() {
        let c = limited_ctx(1 << 10, gpu_sim::EvictionPolicy::Lru);
        let a = c.alloc_f32(1 << 10); // 4 KiB > 1 KiB capacity
        let k = simple_kernel(&c, "k", &a, 0.1);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.launch(c.default_stream(), &k)
        }));
        let msg = *res.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("OutOfMemory"), "got: {msg}");
    }

    #[test]
    fn missing_sync_between_conflicting_streams_is_a_race() {
        let c = ctx();
        let a = c.alloc_f32(16);
        c.prefetch_async(c.default_stream(), &a);
        c.device_sync();
        let s1 = c.stream_create();
        let s2 = c.stream_create();
        let k1 = simple_kernel(&c, "w1", &a, 1.0);
        let k2 = simple_kernel(&c, "w2", &a, 1.0);
        c.launch(s1, &k1);
        c.launch(s2, &k2); // no event: both write `a` concurrently
        c.device_sync();
        assert!(
            !c.races().is_empty(),
            "unsynchronized writers must be flagged"
        );
    }

    #[test]
    fn host_spin_lets_background_work_finish() {
        let c = Cuda::new(DeviceProfile::tesla_p100());
        let a = c.alloc_f32(16);
        c.prefetch_async(c.default_stream(), &a);
        let k = KernelExec::new(
            "k",
            Grid::d1(64, 256),
            KernelCost {
                min_time: 1e-3,
                ..Default::default()
            },
            vec![a.buf.clone()],
            vec![(a.id, false)],
            Rc::new(|_| {}),
        );
        c.launch(c.default_stream(), &k);
        c.host_spin(5e-3);
        assert!(
            c.stream_query(c.default_stream()),
            "work must finish in the background"
        );
    }

    #[test]
    fn same_direction_copies_serialize_through_the_dma_engine() {
        let c = Cuda::new(DeviceProfile::tesla_p100());
        let n = 12 << 20;
        let a = c.alloc_u8(n);
        let b = c.alloc_u8(n);
        let s1 = c.stream_create();
        let s2 = c.stream_create();
        c.prefetch_async(s1, &a);
        c.prefetch_async(s2, &b);
        c.device_sync();
        let tl = c.timeline();
        let copies: Vec<_> = tl.of_kind(gpu_sim::TaskKind::CopyH2D).collect();
        assert_eq!(copies.len(), 2);
        // Even on different streams, the second copy starts only after
        // the first ends (single H2D DMA engine).
        let (first, second) = if copies[0].start <= copies[1].start {
            (copies[0], copies[1])
        } else {
            (copies[1], copies[0])
        };
        assert!(second.start >= first.end - 1e-12, "copies must serialize");
    }

    #[test]
    fn stream_count_tracks_creation() {
        let c = Cuda::new(DeviceProfile::gtx960());
        assert_eq!(c.stats().streams, 1); // default stream
        c.stream_create();
        c.stream_create();
        assert_eq!(c.stats().streams, 3);
    }

    #[test]
    fn residency_roundtrip_host_device_host() {
        let c = Cuda::new(DeviceProfile::tesla_p100());
        let a = c.alloc_f32(1024);
        assert_eq!(c.residency(&a), Residency::Host);
        let k = KernelExec::new(
            "w",
            Grid::d1(16, 64),
            KernelCost {
                min_time: 1e-5,
                ..Default::default()
            },
            vec![a.buf.clone()],
            vec![(a.id, false)],
            Rc::new(|_| {}),
        );
        let t = c.launch(c.default_stream(), &k).unwrap();
        c.task_sync(t);
        assert_eq!(c.residency(&a), Residency::Device);
        c.host_read(&a, 4096);
        assert_eq!(c.residency(&a), Residency::Both);
        c.host_written(&a);
        assert_eq!(c.residency(&a), Residency::Host);
    }

    #[test]
    fn cross_node_migrations_route_over_the_nic_link() {
        let dev = DeviceProfile::tesla_p100();
        let topo = gpu_sim::Cluster::new(
            2,
            2,
            TopologyKind::PcieOnly,
            gpu_sim::NicKind::InfinibandHdr,
        )
        .build(&dev);
        let c = Cuda::with_topology(dev, topo.clone());
        let a = c.alloc_f32(1 << 20);
        let k0 = simple_kernel(&c, "produce", &a, 0.5);
        c.launch(c.default_stream(), &k0);
        // The producing kernel wrote `a` on device 0: the estimates must
        // price the NIC leg into cross-node candidates only.
        let mut est = vec![0.0; 4];
        c.placement_probe(&a, &mut est);
        let (same_node, cross_node) = (est[1], est[2]);
        assert!(
            cross_node > same_node,
            "cross-node route must cost more: {cross_node} vs {same_node}"
        );
        // Consume on device 2 — the other node: the migration routes
        // GPU→host→NIC→host→GPU.
        let s2 = c.stream_create_on(2);
        let k2 = simple_kernel(&c, "consume", &a, 0.5);
        let t = c.launch(s2, &k2).unwrap();
        c.task_sync(t);
        let st = c.stats();
        let moved = Moved {
            count: 1,
            bytes: 4 << 20,
        };
        assert_eq!(st.migrations.cross_node, moved);
        // The NIC link carried exactly that transfer.
        let nic = st.links[topo.nic_link(0, 1).unwrap().0 as usize];
        assert_eq!(nic.transfers, 1);
        assert!((nic.bytes - (4 << 20) as f64).abs() < 1.0);
        assert_eq!(c.races().len(), 0);
    }

    #[test]
    fn same_node_migrations_pay_no_nic_leg() {
        let dev = DeviceProfile::tesla_p100();
        let topo = gpu_sim::Cluster::new(
            2,
            2,
            TopologyKind::PcieOnly,
            gpu_sim::NicKind::InfinibandHdr,
        )
        .build(&dev);
        let c = Cuda::with_topology(dev, topo.clone());
        let a = c.alloc_f32(1 << 18);
        let k0 = simple_kernel(&c, "produce", &a, 0.5);
        c.launch(c.default_stream(), &k0);
        // Consume on device 1 — same node: host-mediated, no NIC leg.
        let s1 = c.stream_create_on(1);
        let k1 = simple_kernel(&c, "consume", &a, 0.5);
        let t = c.launch(s1, &k1).unwrap();
        c.task_sync(t);
        let st = c.stats();
        assert_eq!(st.migrations.cross_node, Moved::default());
        assert!(
            st.migrations.all.count >= 1,
            "the migration itself happened"
        );
        let nic = topo.nic_link(0, 1).unwrap();
        assert_eq!(st.links[nic.0 as usize], LinkTraffic::default());
    }
}
