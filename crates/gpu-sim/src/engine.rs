//! The discrete-event fluid-rate execution engine.
//!
//! Tasks are submitted with explicit dependency edges (the `cuda-sim`
//! layer builds streams and events out of these edges). A task's life:
//!
//! ```text
//! submitted --deps done--> ready --fixed latency--> active --work done--> complete
//! ```
//!
//! While *active*, a task progresses at the max–min fair rate computed by
//! [`crate::fluid`] over the currently active set; rates are recomputed
//! whenever the active set changes. The engine advances virtual time only
//! when asked: [`Engine::advance_host`] models the host doing `dt` worth
//! of its own work while the GPU runs in the background, and
//! [`Engine::sync_task`]/[`Engine::sync_all`] block the virtual host until
//! work completes — exactly the two ways a real CUDA host program
//! experiences time.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::calibrate::Calibration;
use crate::data::ValueId;
use crate::fluid::{progressive_fill, FillScratch};
use crate::profile::DeviceProfile;
use crate::race::{check_conflict, RaceReport};
use crate::recycle::Recycler;
use crate::task::{capacities, TaskKind, TaskSpec, NUM_RESOURCES};
use crate::timeline::{Interval, Timeline};
use crate::topology::{LinkId, Topology};
use crate::Time;

/// Handle to a submitted task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

/// Totally-ordered wrapper for event times (f64 has no `Ord`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct TimeKey(Time);

impl Eq for TimeKey {}
impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Waiting on `n` incomplete dependencies.
    Waiting(usize),
    /// Dependencies satisfied; fixed-latency phase until the stored time.
    Latent,
    /// In the fluid phase with this much solo-time work remaining.
    Active(f64),
    /// Finished.
    Done,
}

struct TaskState {
    /// The task as submitted. When it completes its read/write lists
    /// and payload go to the recycler.
    spec: TaskSpec,
    phase: Phase,
    dependents: Vec<TaskId>,
    /// When the task became ready (start of its timeline interval).
    started: Time,
    /// Rate from the last solve that covered this task's component —
    /// the only place a rate is kept. Valid while the task is active: a
    /// refresh re-solves the members of dirty components and leaves
    /// everyone else's alone.
    rate: f64,
}

/// Aggregate counters exposed for quick sanity checks and stats tables.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Tasks submitted so far.
    pub submitted: usize,
    /// Tasks completed so far.
    pub completed: usize,
    /// Number of data races detected.
    pub races: usize,
    /// Task states currently held in memory. A fully-drained engine
    /// reclaims the completed prefix, so on a long-running service this
    /// tracks the in-flight window, not the lifetime submission count.
    pub retained_tasks: usize,
    /// Rate refreshes that found the active set dirty and re-solved at
    /// least one component.
    pub rate_refreshes: usize,
    /// Active-task rates recomputed by the incremental solver (members
    /// of a dirty component at refresh time).
    pub rate_tasks_solved: usize,
    /// Active-task rates reused from a clean component's cache instead
    /// of being re-solved. `reused / (solved + reused)` is the
    /// incremental solver's hit rate.
    pub rate_tasks_reused: usize,
    /// Ready tasks the in-flight value table flagged and the engine then
    /// compared one by one with every task in flight. The table is
    /// exact, so each of them has a real race: a race-free program
    /// reads 0.
    pub race_scans: usize,
}

/// Lifetime traffic of one interconnect link.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkTraffic {
    /// Bytes moved over the link, in either direction.
    pub bytes: f64,
    /// Transfers that crossed it.
    pub transfers: usize,
    /// Whether it is a device's host (PCIe) link.
    pub host: bool,
}

/// How many tasks in flight read and write one value.
#[derive(Clone, Copy, Default)]
struct Holders {
    writers: u32,
    readers: u32,
}

/// Readers and writers of every value among the tasks in flight — ready
/// but unfinished: the latent heap and the active list — indexed by the
/// dense [`ValueId`]. A task's arguments enter when it becomes ready and
/// leave when it completes, so a drained engine's table is zero
/// everywhere, and the table grows to the largest id seen, never with
/// the number of tasks run.
#[derive(Default)]
struct ValuesInFlight {
    holders: Vec<Holders>,
}

impl ValuesInFlight {
    /// Whether `t` conflicts with a task in flight: a write with any
    /// writer or reader of its value, a read with a writer — the
    /// question `check_conflict` answers pair by pair, asked of all
    /// pairs at once in O(arguments).
    fn conflicts(&self, t: &TaskSpec) -> bool {
        let held = |v: &ValueId| self.holders.get(v.0 as usize).copied().unwrap_or_default();
        t.writes
            .iter()
            .map(held)
            .any(|h| h.writers > 0 || h.readers > 0)
            || t.reads.iter().map(held).any(|h| h.writers > 0)
    }

    /// Count `t`'s arguments into flight (`entering`) or out of it.
    fn update(&mut self, t: &TaskSpec, entering: bool) {
        for (values, write) in [(&t.writes, true), (&t.reads, false)] {
            for v in values {
                let at = v.0 as usize;
                if self.holders.len() <= at {
                    self.holders.resize(at + 1, Holders::default());
                }
                let Holders { writers, readers } = &mut self.holders[at];
                let n = if write { writers } else { readers };
                *n = if entering { *n + 1 } else { *n - 1 };
            }
        }
    }
}

/// Working storage of the incremental rate refresh, kept across
/// refreshes so a refresh allocates nothing and touches only the nodes
/// the active set occupies. The two per-node vectors are left in their
/// rest state (`parent[x] == x`, `comp_dirty[x] == false`) by every
/// refresh; everything else is cleared before use and grows to the
/// largest active set seen, never with the number of tasks run.
struct SolveScratch {
    /// Union-find forest over rate-solve nodes.
    parent: Vec<u32>,
    /// Whether the component rooted at a node must be re-solved.
    comp_dirty: Vec<bool>,
    /// `(component root, position in `active`)` of every task to
    /// re-solve, sorted so each component's members are contiguous and
    /// in active-set order.
    work: Vec<(u32, u32)>,
    /// Devices and links the component being solved occupies,
    /// ascending: its resource columns are the devices' blocks, then
    /// one column per link.
    devices: Vec<u32>,
    links: Vec<u32>,
    caps: Vec<f64>,
    /// Row-major members × columns demand matrix.
    demands: Vec<f64>,
    rates: Vec<f64>,
    fill: FillScratch,
}

impl SolveScratch {
    fn new(n_nodes: usize) -> Self {
        SolveScratch {
            parent: (0..n_nodes as u32).collect(),
            comp_dirty: vec![false; n_nodes],
            work: Vec::new(),
            devices: Vec::new(),
            links: Vec::new(),
            caps: Vec::new(),
            demands: Vec::new(),
            rates: Vec::new(),
            fill: FillScratch::default(),
        }
    }
}

/// Root of `x` in the union-find forest `parent` (path halving).
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let g = parent[parent[x as usize] as usize];
        parent[x as usize] = g;
        x = g;
    }
    x
}

/// The simulator engine. See the [crate docs](crate) for the model.
pub struct Engine {
    /// Each device's resource capacities, aligned with
    /// [`crate::task::ResourceDemand::as_vec`]: built once from the
    /// profile and the device's host link, read by every rate solve.
    dev_caps: Vec<[f64; NUM_RESOURCES]>,
    /// Number of identical devices this engine simulates. Tasks carry a
    /// device id; only tasks on the same device share its resources.
    n_devices: u32,
    /// The interconnect: host links plus any peer links. Link capacities
    /// join the per-device resources in the rate solve whenever a task
    /// in the active set occupies a link.
    topo: Topology,
    /// Traffic over each link so far (host links by transfer
    /// direction/device, peer links by task attribution). Indexed like
    /// [`Topology::links`]; survives [`Engine::clear_timeline`].
    links: Vec<LinkTraffic>,
    now: Time,
    /// States of tasks `base..base + tasks.len()`. Ids below `base`
    /// belong to completed tasks whose state was reclaimed from the
    /// front by [`Engine::compact_completed`]; ids are never reused.
    tasks: VecDeque<TaskState>,
    /// First task id still stored.
    base: u32,
    /// Task indices currently in the fluid phase.
    active: Vec<u32>,
    /// How many of them occupy a link. While none does, every rate-solve
    /// component is one device and the union-find forest is not needed.
    active_on_links: usize,
    /// Rate-solve nodes (device `d` is node `d`, link `l` is node
    /// `n_devices + l`) whose active-set membership changed since the
    /// last rate refresh, in transition order, repeats allowed. Seeds
    /// the incremental solve: only connected components touching one of
    /// them are re-solved, and an empty list means every rate is current.
    dirty: Vec<u32>,
    /// Retained working storage of [`Engine::refresh_rates`].
    solve: SolveScratch,
    /// Pending activation events: (time, task) min-heap.
    latent: BinaryHeap<Reverse<(TimeKey, u32)>>,
    /// Submitted-but-unfinished task count per device, maintained at
    /// submit/complete so [`Engine::device_load`] is O(1) — placement
    /// policies consult it on every launch.
    inflight: Vec<usize>,
    timeline: Timeline,
    /// Values in flight: what a task becoming ready is checked against.
    values_in_flight: ValuesInFlight,
    /// Test and debug builds can have every ready task compared pair by
    /// pair, whatever the table says: the always-scan reference of the
    /// race-table property.
    #[cfg(any(test, debug_assertions))]
    scan_every_ready_task: bool,
    races: Vec<RaceReport>,
    stats: EngineStats,
    /// Online calibration: per-kernel-signature duration priors and
    /// block-size history, recorded as kernels complete (see
    /// [`crate::calibrate`]).
    calib: Calibration,
    /// What completed tasks left behind, for the next submissions.
    recycler: Recycler,
}

impl Engine {
    /// A fresh single-device engine, at virtual time zero.
    pub fn new(dev: DeviceProfile) -> Self {
        let topo = Topology::pcie_only(1, &dev);
        Self::with_topology(dev, topo)
    }

    /// An engine spanning the devices of an explicit interconnect
    /// [`Topology`]. Tasks are placed with [`TaskSpec::on_device`]; each
    /// device has its own resource pool, so tasks on different devices
    /// progress independently. Peer links become machine-wide resources
    /// in the fluid solver: concurrent [`TaskSpec::p2p_copy`] tasks on
    /// the same link share its aggregate bandwidth, whichever devices
    /// they run on. A device's host link is what its host copies
    /// ([`TaskSpec::bulk_copy`]) contend for, in each direction.
    pub fn with_topology(dev: DeviceProfile, topo: Topology) -> Self {
        let n = topo.device_count();
        // Links `0..n` are the devices' host links.
        let mut links = vec![LinkTraffic::default(); topo.links().len()];
        links[..n].iter_mut().for_each(|l| l.host = true);
        Engine {
            dev_caps: topo.links()[..n]
                .iter()
                .map(|host| capacities(&dev, host))
                .collect(),
            n_devices: n as u32,
            topo,
            // Sized before `links` moves in.
            solve: SolveScratch::new(n + links.len()),
            links,
            now: 0.0,
            tasks: VecDeque::new(),
            base: 0,
            active: Vec::new(),
            active_on_links: 0,
            dirty: Vec::new(),
            latent: BinaryHeap::new(),
            inflight: vec![0; n],
            timeline: Timeline::new(),
            values_in_flight: ValuesInFlight::default(),
            #[cfg(any(test, debug_assertions))]
            scan_every_ready_task: false,
            races: Vec::new(),
            stats: EngineStats::default(),
            calib: Calibration::new(),
            recycler: Recycler::default(),
        }
    }

    /// The buffers completed tasks left behind: build the next
    /// [`TaskSpec`]'s read/write lists and kernel payload from them and
    /// a steady-state submission allocates nothing.
    pub fn recycler(&mut self) -> &mut Recycler {
        &mut self.recycler
    }

    /// The online calibration state.
    pub fn calibration(&self) -> &Calibration {
        &self.calib
    }

    /// Number of identical devices this engine simulates.
    pub fn device_count(&self) -> usize {
        self.n_devices as usize
    }

    /// The interconnect topology this engine simulates.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Lifetime traffic over each link, indexed like [`Topology::links`]
    /// (host links first, then peer and NIC links). Unlike the timeline
    /// this is never cleared.
    pub fn link_traffic(&self) -> &[LinkTraffic] {
        &self.links
    }

    /// Submitted-but-unfinished tasks currently placed on a device — the
    /// in-flight load gauge the stream-aware placement policy consults
    /// on every launch (O(1): maintained at submit/complete).
    pub fn device_load(&self, device: u32) -> usize {
        self.inflight.get(device as usize).copied().unwrap_or(0)
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Storage slot of a still-stored task id.
    fn slot(&self, id: u32) -> usize {
        debug_assert!(id >= self.base, "task {id} was reclaimed");
        (id - self.base) as usize
    }

    /// Submit a task that may start once every task in `deps` has
    /// completed. Already-completed dependencies are allowed. Returns the
    /// task's handle.
    pub fn submit(&mut self, spec: TaskSpec, deps: &[TaskId]) -> TaskId {
        // Fail loudly rather than wrap: ids must stay ascending for the
        // `slot()` offset arithmetic to hold.
        let id = TaskId(
            self.base
                .checked_add(self.tasks.len() as u32)
                .expect("task id space exhausted (2^32 tasks)"),
        );
        let open_deps = deps.iter().filter(|d| !self.is_complete(**d)).count();
        assert!(
            spec.device < self.n_devices,
            "task placed on unknown device {}",
            spec.device
        );
        if let Some(l) = spec.link {
            assert!(
                (l.0 as usize) < self.topo.links().len(),
                "task placed on unknown link {l:?}"
            );
        }
        let device = spec.device;
        self.tasks.push_back(TaskState {
            spec,
            phase: Phase::Waiting(open_deps),
            dependents: self.recycler.dependents.take(),
            started: 0.0,
            rate: 1.0,
        });
        for d in deps {
            if self.is_complete(*d) {
                continue;
            }
            let slot = self.slot(d.0);
            let dt = &mut self.tasks[slot];
            // A task may legitimately depend on the same parent via
            // several arguments; count it once.
            if !dt.dependents.contains(&id) {
                dt.dependents.push(id);
            } else {
                let slot = self.slot(id.0);
                if let Phase::Waiting(n) = &mut self.tasks[slot].phase {
                    *n -= 1;
                }
            }
        }
        self.stats.submitted += 1;
        self.inflight[device as usize] += 1;
        if matches!(self.tasks[self.slot(id.0)].phase, Phase::Waiting(0)) {
            self.make_ready(id);
        }
        id
    }

    /// True once the task has completed in virtual time. Tasks whose
    /// state was reclaimed are complete by construction.
    pub fn is_complete(&self, t: TaskId) -> bool {
        t.0 < self.base || matches!(self.tasks[self.slot(t.0)].phase, Phase::Done)
    }

    /// Reclaim the storage of the contiguous completed prefix of tasks
    /// (their handles keep answering [`Engine::is_complete`] with
    /// `true`). Called automatically when the device drains; harmless to
    /// call at any time. Returns the number of task states reclaimed.
    /// Costs the prefix, not the pending tasks behind it; a completed
    /// task's buffers already went to the recycler when it completed.
    fn compact_completed(&mut self) -> usize {
        let mut done = 0usize;
        while matches!(self.tasks.front(), Some(t) if matches!(t.phase, Phase::Done)) {
            self.tasks.pop_front();
            done += 1;
        }
        self.base += done as u32;
        done
    }

    /// The recorded execution timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Reset the timeline (e.g. after a warm-up iteration) without
    /// touching task state. Virtual time keeps running.
    pub fn clear_timeline(&mut self) {
        self.timeline.clear();
    }

    /// All data races detected so far.
    pub fn races(&self) -> &[RaceReport] {
        &self.races
    }

    /// Aggregate counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            races: self.races.len(),
            retained_tasks: self.tasks.len(),
            ..self.stats
        }
    }

    /// Let the virtual host spend `dt` seconds of its own time (API call
    /// overhead, host computation). GPU-side work progresses in the
    /// background during the same window.
    pub fn advance_host(&mut self, dt: Time) {
        let target = self.now + dt;
        self.run(Some(target), None);
        self.now = target;
        self.compact_completed();
    }

    /// Block the virtual host until `t` completes.
    ///
    /// # Panics
    /// Panics on deadlock — i.e. if no further event can complete `t`.
    pub fn sync_task(&mut self, t: TaskId) {
        self.run(None, Some(t));
        // Amortized O(1): each task state is drained exactly once, and
        // the scan stops at the first unfinished task — so fine-grained
        // services (which never call `sync_all`) stay O(in-flight) too.
        self.compact_completed();
    }

    /// Block the virtual host until every submitted task has completed,
    /// then reclaim their task states.
    pub fn sync_all(&mut self) {
        while self.stats.completed < self.stats.submitted {
            // Drive on the lowest-id unfinished task for determinism.
            let next = self
                .tasks
                .iter()
                .position(|t| !matches!(t.phase, Phase::Done))
                .expect("pending count disagrees with phases");
            self.sync_task(TaskId(self.base + next as u32));
        }
        self.compact_completed();
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// Mark a task ready: record its start, check it for races against
    /// every task in flight, and schedule its activation event.
    fn make_ready(&mut self, id: TaskId) {
        let i = self.slot(id.0);
        self.tasks[i].started = self.now;
        self.detect_races(id.0);
        let i = self.slot(id.0);
        let at = self.now + self.tasks[i].spec.fixed_latency;
        self.tasks[i].phase = Phase::Latent;
        self.latent.push(Reverse((TimeKey(at), id.0)));
    }

    /// Race detection for a task becoming ready, by value: the in-flight
    /// table says in O(arguments) whether any latent or active task
    /// conflicts with it, and only a task it flags — one with a real
    /// race — is compared with each of them for the reports
    /// ([`Engine::scan_races`]). The task's own arguments then join the
    /// table until it completes. Debug and test builds hold every
    /// verdict to the scan.
    fn detect_races(&mut self, new_id: u32) {
        let new = &self.tasks[self.slot(new_id)].spec;
        if new.reads.is_empty() && new.writes.is_empty() {
            return;
        }
        // Checked before its own arguments count, so that a task reading
        // and writing one value does not conflict with itself.
        let flagged = self.values_in_flight.conflicts(new);
        self.values_in_flight.update(new, true);
        #[cfg(any(test, debug_assertions))]
        let flagged = {
            self.assert_table_matches_scan(new_id, flagged);
            flagged || self.scan_every_ready_task
        };
        if !flagged {
            return;
        }
        self.stats.race_scans += 1;
        // Dedup repeated reports of the same conflicting pair: a broken
        // scheduler re-racing the same kernels every iteration yields one
        // report per (first, second, value), keeping `races` bounded by
        // the number of distinct conflicts.
        for r in self.scan_races(new_id) {
            if !self.races.iter().any(|seen| seen.same_pair(&r)) {
                self.races.push(r);
            }
        }
    }

    /// Every conflict of a task becoming ready with a task in flight, in
    /// scan order: the all-pairs rule the in-flight table answers for,
    /// and the reports of a task it flags.
    fn scan_races(&self, new_id: u32) -> Vec<RaceReport> {
        let new = &self.tasks[self.slot(new_id)].spec;
        // Only Latent and Active tasks can race with the newcomer, and
        // those are exactly the `latent` heap and `active` list — scan
        // them instead of the whole lifetime task vector, so long-running
        // services pay O(in-flight), not O(launches-ever).
        let mut found: Vec<RaceReport> = Vec::new();
        let latent = self.latent.iter().map(|Reverse((_, i))| *i);
        for j in self.active.iter().copied().chain(latent) {
            if j == new_id {
                continue;
            }
            let other = &self.tasks[self.slot(j)];
            debug_assert!(matches!(other.phase, Phase::Latent | Phase::Active(_)));
            found.extend(check_conflict(self.now, &other.spec, new));
        }
        found
    }

    /// The race oracle's comparison: the table flags a ready task exactly
    /// when the all-pairs scan finds at least one report for it.
    #[cfg(any(test, debug_assertions))]
    fn assert_table_matches_scan(&self, new_id: u32, flagged: bool) {
        assert_eq!(
            flagged,
            !self.scan_races(new_id).is_empty(),
            "in-flight value table diverged from the all-pairs race scan on `{}`",
            self.tasks[self.slot(new_id)].spec.label
        );
    }

    /// Record that a task entered or left the active set: its device —
    /// and link, if any — seed the dirty set for the next incremental
    /// rate refresh. Because every active task couples exactly its
    /// device and (optionally) one link, any component whose membership
    /// changed necessarily contains one of the transitioning task's two
    /// endpoints, so marking them finds every component that needs a
    /// re-solve. A link occupant also moves the count of them that tells
    /// the refresh whether any component spans more than one device.
    fn mark_transition(&mut self, slot: usize, entered: bool) {
        let t = &self.tasks[slot].spec;
        self.dirty.push(t.device);
        if let Some(l) = t.link {
            self.dirty.push(self.n_devices + l.0);
            if entered {
                self.active_on_links += 1;
            } else {
                self.active_on_links -= 1;
            }
        }
    }

    /// Bring the active tasks' rates up to date, re-solving only the
    /// connected components (devices coupled by shared links) whose
    /// membership changed since the last refresh, each over only the
    /// resources its members occupy; tasks in clean components keep
    /// the rate they have. The cost follows the active set and the
    /// transitions since the last refresh, not the width of the machine.
    ///
    /// This is bit-identical to the dense full solve
    /// ([`Engine::solve_rates_full`], cross-checked in debug builds)
    /// because progressive filling decomposes exactly along components:
    /// a task's demand is zero outside its own device/link block, adding
    /// those zeros to load sums is exact in IEEE arithmetic, a binding
    /// resource only ever freezes tasks of its own component, and
    /// freezing them subtracts exact zeros from every other component's
    /// residuals — so each component's freeze sequence is independent
    /// of the others, and of the columns nobody in it demands.
    ///
    /// What the active set holds picks the work: while no active task
    /// occupies a link, every component is one device and the forest is
    /// neither built nor reset; a component no link couples is one
    /// device's seven columns, its rows copied straight from its members.
    fn refresh_rates(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let Engine {
            dev_caps,
            n_devices,
            topo,
            tasks,
            base,
            active,
            active_on_links,
            dirty,
            solve: s,
            stats,
            ..
        } = self;
        let (n_dev, base) = (*n_devices, *base);
        // Without link occupants the forest stays at rest, where `find`
        // is the identity.
        let coupled = *active_on_links > 0;

        // Union-find over device and link nodes: each active link
        // occupant couples its device to its link, so chains of shared
        // links merge devices into one component.
        if coupled {
            for &i in active.iter() {
                let t = &tasks[(i - base) as usize].spec;
                if let Some(l) = t.link {
                    let a = find(&mut s.parent, t.device);
                    let b = find(&mut s.parent, n_dev + l.0);
                    if a != b {
                        s.parent[a as usize] = b;
                    }
                }
            }
        }

        // A component needs re-solving iff it contains a dirty node.
        for &node in dirty.iter() {
            let root = find(&mut s.parent, node);
            s.comp_dirty[root as usize] = true;
        }

        // List dirty components' active positions for re-solving.
        s.work.clear();
        for (k, &i) in active.iter().enumerate() {
            let root = find(&mut s.parent, tasks[(i - base) as usize].spec.device);
            if s.comp_dirty[root as usize] {
                s.work.push((root, k as u32));
            }
        }
        s.work.sort_unstable();
        stats.rate_refreshes += 1;
        stats.rate_tasks_solved += s.work.len();
        stats.rate_tasks_reused += active.len() - s.work.len();

        let col = |ids: &[u32], id: u32| ids.binary_search(&id).expect("a member's own id");
        for members in s.work.chunk_by(|a, b| a.0 == b.0) {
            // Solve over only the resources the members occupy, in the
            // full solve's order (device blocks ascending, then links
            // ascending): every column left out carries zero load there
            // and never binds, so ties break the same way and the rates
            // come out bit-identical.
            let spec = |k: u32| &tasks[(active[k as usize] - base) as usize].spec;
            s.caps.clear();
            s.demands.clear();
            let width = if !coupled || members.iter().all(|&(_, k)| spec(k).link.is_none()) {
                // No link couples the members, so they share one device:
                // its block is every column, and each row is a member's
                // demand as it stands.
                s.caps
                    .extend_from_slice(&dev_caps[spec(members[0].1).device as usize]);
                for &(_, k) in members {
                    s.demands.extend_from_slice(&spec(k).demand.as_vec());
                }
                NUM_RESOURCES
            } else {
                s.devices.clear();
                s.links.clear();
                for &(_, k) in members {
                    let t = spec(k);
                    s.devices.push(t.device);
                    s.links.extend(t.link.map(|l| l.0));
                }
                s.devices.sort_unstable();
                s.devices.dedup();
                s.links.sort_unstable();
                s.links.dedup();
                let link_cols = s.devices.len() * NUM_RESOURCES;
                let width = link_cols + s.links.len();
                for &d in &s.devices {
                    s.caps.extend_from_slice(&dev_caps[d as usize]);
                }
                let bandwidth = |&l: &u32| topo.link(LinkId(l)).bandwidth;
                s.caps.extend(s.links.iter().map(bandwidth));
                s.demands.resize(members.len() * width, 0.0);
                for (row, &(_, k)) in s.demands.chunks_exact_mut(width).zip(members) {
                    let t = spec(k);
                    let block = col(&s.devices, t.device) * NUM_RESOURCES;
                    row[block..block + NUM_RESOURCES].copy_from_slice(&t.demand.as_vec());
                    if let Some(l) = t.link {
                        row[link_cols + col(&s.links, l.0)] = t.demand.link_bps;
                    }
                }
                width
            };
            s.rates.resize(members.len(), 0.0);
            let demand = |i: usize| &s.demands[i * width..(i + 1) * width];
            progressive_fill(demand, &s.caps, &mut s.fill, &mut s.rates);
            for (&(_, k), &r) in members.iter().zip(&s.rates) {
                tasks[(active[k as usize] - base) as usize].rate = r;
            }
        }

        // Back to the rest state, touching only what this refresh did:
        // the dirty roots, then the forest edges (every non-identity
        // parent belongs to an active link occupant's device or link).
        for node in dirty.drain(..) {
            let root = find(&mut s.parent, node);
            s.comp_dirty[root as usize] = false;
        }
        if coupled {
            for &i in active.iter() {
                let t = &tasks[(i - base) as usize].spec;
                if let Some(l) = t.link {
                    s.parent[t.device as usize] = t.device;
                    s.parent[(n_dev + l.0) as usize] = n_dev + l.0;
                }
            }
        }

        #[cfg(debug_assertions)]
        self.assert_rates_match_full_solve();
    }

    /// The oracle's comparison: every active task's stored rate is, bit
    /// for bit, what the dense full solve gives it.
    #[cfg(any(test, debug_assertions))]
    fn assert_rates_match_full_solve(&self) {
        let stored: Vec<f64> = self
            .active
            .iter()
            .map(|&i| self.tasks[self.slot(i)].rate)
            .collect();
        assert_eq!(
            stored,
            self.solve_rates_full(),
            "incremental component solve diverged from the full solve"
        );
    }

    /// The dense full solve over the whole active set — the reference
    /// the incremental refresh must match bit for bit. Kept as the
    /// debug-mode cross-check and the differential-test oracle. One
    /// resource space of per-device blocks plus one slot per link; a
    /// column no active task loads is skipped by the fill, so the same
    /// solve is exact with and without link occupants, on one device
    /// and on many.
    #[cfg(any(test, debug_assertions))]
    fn solve_rates_full(&self) -> Vec<f64> {
        let n_dev = self.n_devices as usize;
        let mut caps = self.dev_caps.concat();
        caps.extend(self.topo.links().iter().map(|l| l.bandwidth));
        let demands: Vec<Vec<f64>> = self
            .active
            .iter()
            .map(|&i| {
                let t = &self.tasks[self.slot(i)].spec;
                let mut d = vec![0.0; caps.len()];
                let base = t.device as usize * NUM_RESOURCES;
                d[base..base + NUM_RESOURCES].copy_from_slice(&t.demand.as_vec());
                if let Some(l) = t.link {
                    d[n_dev * NUM_RESOURCES + l.0 as usize] = t.demand.link_bps;
                }
                d
            })
            .collect();
        crate::fluid::max_min_rates_vec(&demands, &caps)
    }

    /// Earliest fluid completion under current rates, if any task is
    /// active. Ties resolved toward the lowest task id by scan order.
    fn next_completion(&self) -> Option<(Time, u32)> {
        let mut best: Option<(Time, u32)> = None;
        for &i in &self.active {
            let task = &self.tasks[self.slot(i)];
            let remaining = match task.phase {
                Phase::Active(r) => r,
                _ => unreachable!("active list holds non-active task"),
            };
            let t = self.now + remaining / task.rate;
            if best.is_none_or(|(bt, bi)| t < bt || (t == bt && i < bi)) {
                best = Some((t, i));
            }
        }
        best
    }

    /// Integrate fluid progress forward to absolute time `t`.
    fn integrate_to(&mut self, t: Time) {
        let dt = t - self.now;
        if dt <= 0.0 {
            self.now = t.max(self.now);
            return;
        }
        let base = self.base;
        for &i in &self.active {
            let task = &mut self.tasks[(i - base) as usize];
            if let Phase::Active(r) = &mut task.phase {
                *r = (*r - task.rate * dt).max(0.0);
            }
        }
        self.now = t;
    }

    fn complete(&mut self, idx: u32) {
        let i = self.slot(idx);
        let task = &mut self.tasks[i];
        task.phase = Phase::Done;
        let started = task.started;
        let dependents = std::mem::take(&mut task.dependents);
        let t = &mut task.spec;
        self.stats.completed += 1;
        self.inflight[t.device as usize] -= 1;
        // Transfers are attributed to the link they moved over: peer
        // copies carry their link explicitly; host-side copies and fault
        // migrations use their device's host link.
        let link = match t.kind {
            k if k.is_transfer() => t.link.or_else(|| Some(self.topo.host_link(t.device))),
            _ => t.link,
        };
        let iv = Interval {
            task: idx,
            kind: t.kind,
            stream: t.stream,
            device: t.device,
            link: link.map(|l| l.0),
            label: t.label,
            // A copy task reads the one array it moves.
            value: match t.kind {
                k if k.is_transfer() => t.reads.first().copied(),
                _ => None,
            },
            start: started,
            end: self.now,
            meta: t.meta,
        };
        if iv.kind.is_transfer() {
            if let Some(l) = link {
                let traffic = &mut self.links[l.0 as usize];
                traffic.bytes += iv.meta.bytes;
                traffic.transfers += 1;
            }
        }
        // Every completed kernel is a calibration observation, recorded
        // here and nowhere else: it feeds its signature's duration prior
        // and block-size history.
        if iv.kind == TaskKind::Kernel {
            self.calib
                .observe_kernel(iv.label, iv.duration(), t.launch_shape);
        }
        // A marker orders work and does none: it leaves no interval, so
        // the timeline holds exactly the GPU work its readers measure.
        if iv.kind != TaskKind::Marker {
            self.timeline.push(iv);
        }
        // The task is done with its buffers: its arguments leave the
        // in-flight table before its dependents are released below, and
        // the race detector looks at nothing else of a finished task.
        self.values_in_flight.update(t, false);
        self.recycler.values.give(std::mem::take(&mut t.reads));
        self.recycler.values.give(std::mem::take(&mut t.writes));
        if let Some(payload) = t.on_complete.take() {
            payload.run(&mut self.recycler);
        }
        for &d in &dependents {
            let slot = self.slot(d.0);
            let ready = {
                match &mut self.tasks[slot].phase {
                    Phase::Waiting(n) => {
                        *n -= 1;
                        *n == 0
                    }
                    _ => unreachable!("dependent not in waiting phase"),
                }
            };
            if ready {
                self.make_ready(d);
            }
        }
        self.recycler.dependents.give(dependents);
    }

    /// Move a latent task whose fixed-latency timer just expired into the
    /// fluid phase (or complete it immediately if it carries no fluid
    /// work).
    fn activate(&mut self, idx: u32) {
        let i = self.slot(idx);
        debug_assert!(matches!(self.tasks[i].phase, Phase::Latent));
        if self.tasks[i].spec.fluid_work > 0.0 {
            self.tasks[i].phase = Phase::Active(self.tasks[i].spec.fluid_work);
            self.active.push(idx);
            self.mark_transition(i, true);
        } else {
            self.complete(idx);
        }
    }

    /// Run the event loop until `target` time (if given) or until `stop`
    /// completes (if given). At least one must be provided.
    fn run(&mut self, target: Option<Time>, stop: Option<TaskId>) {
        assert!(target.is_some() || stop.is_some());
        loop {
            if let Some(s) = stop {
                if self.is_complete(s) {
                    return;
                }
            }
            self.refresh_rates();
            let completion = self.next_completion();
            let activation = self.latent.peek().map(|Reverse((t, i))| (t.0, *i));

            // Pick the earliest event; activations win ties so that a
            // zero-length task activates before anything completes "past"
            // it at the same instant.
            let event = match (activation, completion) {
                (None, None) => None,
                (Some(a), None) => Some((a, true)),
                (None, Some(c)) => Some((c, false)),
                (Some(a), Some(c)) => {
                    if a.0 <= c.0 {
                        Some((a, true))
                    } else {
                        Some((c, false))
                    }
                }
            };

            match event {
                None => {
                    // Nothing in flight.
                    if let Some(t) = target {
                        self.now = self.now.max(t);
                        return;
                    }
                    let s = stop.unwrap();
                    panic!(
                        "simulation deadlock: task {:?} (`{}`) can never complete \
                         (no runnable events; a dependency was never satisfied)",
                        s,
                        self.tasks[self.slot(s.0)].spec.label
                    );
                }
                Some(((et, idx), is_activation)) => {
                    if let Some(t) = target {
                        if et > t {
                            // Target falls before the next event:
                            // integrate partially and stop.
                            self.integrate_to(t);
                            return;
                        }
                    }
                    self.integrate_to(et);
                    if is_activation {
                        self.latent.pop();
                        self.activate(idx);
                        // Coalesce same-instant activations: rates are
                        // never consulted between them (activations win
                        // ties over completions, and a completion cannot
                        // precede `now`), so the rate solve runs once for
                        // the whole batch instead of once per task.
                        // Bails out when `stop` completes, exactly as the
                        // outer loop would.
                        loop {
                            if stop.is_some_and(|s| self.is_complete(s)) {
                                return;
                            }
                            match self.latent.peek() {
                                Some(&Reverse((TimeKey(t2), idx2))) if t2 <= et => {
                                    self.latent.pop();
                                    self.activate(idx2);
                                }
                                _ => break,
                            }
                        }
                    } else {
                        // A fluid completion: the chosen task's remaining
                        // work reached zero (up to float error).
                        self.active.retain(|&i| i != idx);
                        self.mark_transition(self.slot(idx), false);
                        self.complete(idx);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Grid;
    use crate::task::Payload;

    fn dev() -> DeviceProfile {
        DeviceProfile::gtx1660_super()
    }

    #[test]
    fn the_test_build_runs_the_debug_oracles() {
        // `assert_rates_match_full_solve`, `assert_table_matches_scan`
        // and the scheduler's sync audit run only where debug
        // assertions are on: the workspace's `[profile.dev]` may raise
        // the opt-level, never switch them off. Checked when the test
        // is compiled, so a test build without them (`--release`
        // included) does not build.
        const {
            assert!(
                cfg!(debug_assertions),
                "tests built without debug assertions skip the in-engine oracles"
            )
        }
    }

    /// An engine over `n` devices joined by host (PCIe) links only.
    fn pcie(d: DeviceProfile, n: usize) -> Engine {
        let topo = Topology::pcie_only(n, &d);
        Engine::with_topology(d, topo)
    }

    /// A bulk copy of `bytes` over `device`'s host link, placed there.
    fn host_copy(e: &Engine, kind: TaskKind, stream: u32, bytes: f64, device: u32) -> TaskSpec {
        let host = e.topology().link(e.topology().host_link(device));
        TaskSpec::bulk_copy(kind, "x", stream, bytes, host).on_device(device)
    }

    #[test]
    fn drained_engine_reclaims_task_states() {
        let mut e = Engine::new(dev());
        let mut last = None;
        for _ in 0..50 {
            for i in 0..4 {
                // Each writes its own value and reads a shared one: no
                // race, and every count goes up before it comes down.
                let label = ["k0", "k1", "k2", "k3"][i as usize];
                let spec = TaskSpec::kernel(label, i).fluid(1e-4).sm_frac(0.2);
                let t = e.submit(
                    spec.reading(&[ValueId(4)]).writing(&[ValueId(i.into())]),
                    &[],
                );
                last = Some(t);
            }
            e.sync_all();
            assert_eq!(e.stats().retained_tasks, 0, "drain reclaims everything");
            let holders = &e.values_in_flight.holders;
            assert_eq!(holders.len(), 5, "the table spans the ids seen");
            assert!(
                holders.iter().all(|h| h.writers == 0 && h.readers == 0),
                "a drained engine has no value in flight"
            );
        }
        assert_eq!(e.stats().races, 0);
        assert_eq!(e.stats().submitted, 200);
        assert_eq!(e.stats().completed, 200);
        // Reclaimed handles still answer queries, and depending on them
        // is still legal.
        assert!(e.is_complete(last.unwrap()));
        let t = e.submit(
            TaskSpec::kernel("after", 0).fluid(1e-4).sm_frac(0.2),
            &[last.unwrap()],
        );
        e.sync_task(t);
        assert!(e.is_complete(t));
    }

    #[test]
    fn completed_tasks_leave_their_buffers_for_the_next_submissions() {
        use crate::data::{DataBuffer, ValueId};
        use crate::task::KernelBody;
        let mut e = Engine::new(dev());
        let out = DataBuffer::f32_zeros(1);
        let store: fn(&[DataBuffer], &[f64]) = |b, s| b[0].as_f32_mut()[0] = s[0] as f32;
        let payload =
            e.recycler()
                .kernel_payload(KernelBody::Fn(store), std::slice::from_ref(&out), &[7.0]);
        let mut spec = TaskSpec::kernel("store", 0)
            .fluid(1e-4)
            .sm_frac(0.1)
            .reading(&[ValueId(1)])
            .writing(&[ValueId(2)]);
        spec.on_complete = Some(payload);
        let a = e.submit(spec, &[]);
        let b = e.submit(TaskSpec::marker("after", 0), &[a]);
        e.sync_task(b);
        assert_eq!(out.as_f32()[0], 7.0, "the payload ran on its arguments");

        // Read and write lists came back at completion, emptied.
        let r = e.recycler();
        let lists = [r.values(), r.values(), r.values()];
        let kept = lists.iter().filter(|l| l.capacity() > 0).count();
        assert!(lists.iter().all(Vec::is_empty) && kept == 2);
        // The recycled argument list holds nothing alive.
        let again = e.recycler().kernel_payload(KernelBody::Fn(store), &[], &[]);
        let Payload {
            buffers, scalars, ..
        } = again;
        assert!(buffers.is_empty() && buffers.capacity() > 0);
        assert!(scalars.is_empty() && scalars.capacity() > 0);
    }

    #[test]
    fn compact_completed_stops_at_first_unfinished_task() {
        let mut e = Engine::new(dev());
        let a = e.submit(TaskSpec::kernel("a", 0).fluid(1e-4).sm_frac(1.0), &[]);
        let b = e.submit(TaskSpec::kernel("b", 1).fluid(1e-2).sm_frac(0.1), &[]);
        let c = e.submit(TaskSpec::kernel("c", 2).fluid(1e-4).sm_frac(0.1), &[]);
        // sync_task(a) reclaims `a` (the completed prefix); `c` finishes
        // later but stays fenced behind the still-running `b`.
        e.sync_task(a);
        assert_eq!(e.stats().retained_tasks, 2);
        e.sync_task(c);
        assert!(!e.is_complete(b));
        assert_eq!(e.compact_completed(), 0, "prefix blocked by running b");
        assert_eq!(e.stats().retained_tasks, 2);
        e.sync_all();
        assert_eq!(e.stats().retained_tasks, 0);
        assert!(e.is_complete(a) && e.is_complete(b));
    }

    #[test]
    fn races_are_detected_after_reclamation() {
        // The race check reads the values in flight and scans the
        // in-flight sets; make sure reclaiming old tasks confuses
        // neither the value counts nor the id bookkeeping.
        let mut e = Engine::new(dev());
        let v = crate::data::ValueId(7);
        let t = e.submit(
            TaskSpec::kernel("w0", 0)
                .fluid(1e-4)
                .sm_frac(0.2)
                .writing(&[v]),
            &[],
        );
        e.sync_task(t);
        e.compact_completed();
        e.submit(
            TaskSpec::kernel("w1", 1)
                .fluid(1e-3)
                .sm_frac(0.2)
                .writing(&[v]),
            &[],
        );
        e.submit(
            TaskSpec::kernel("w2", 2)
                .fluid(1e-3)
                .sm_frac(0.2)
                .writing(&[v]),
            &[],
        );
        e.sync_all();
        assert_eq!(e.stats().races, 1, "concurrent writers race exactly once");
    }

    #[test]
    fn devices_do_not_contend_with_each_other() {
        // Two full-machine kernels: on one device they halve each other's
        // rate (2 ms); on two devices they run at full speed (1 ms).
        let mut e = pcie(dev(), 2);
        e.submit(TaskSpec::kernel("a", 0).fluid(1e-3).sm_frac(1.0), &[]);
        e.submit(
            TaskSpec::kernel("b", 1)
                .on_device(1)
                .fluid(1e-3)
                .sm_frac(1.0),
            &[],
        );
        e.sync_all();
        assert!((e.now() - 1e-3).abs() < 1e-9, "now = {}", e.now());
        assert_eq!(e.timeline().devices_used(), vec![0, 1]);
        assert!((e.timeline().device_span(0) - 1e-3).abs() < 1e-9);
        assert_eq!(e.timeline().device_span(2), 0.0);

        // Nor does one device's churn re-solve the other: a long kernel
        // on device 1 (DRAM-bound to rate 0.5 on its own) keeps the rate
        // it has while five short kernels activate and complete on
        // device 0 — reused at each of those refreshes, never re-solved.
        let d = dev();
        let mut e = pcie(d.clone(), 2);
        let long = TaskSpec::kernel("long", 0).on_device(1).fluid(1e-2);
        e.submit(long.sm_frac(1.0).dram(2.0 * d.dram_bw), &[]);
        e.advance_host(1e-4);
        let before = e.stats();
        assert_eq!((before.rate_refreshes, before.rate_tasks_solved), (1, 1));
        let mut last = None;
        for _ in 0..5 {
            let deps: Vec<TaskId> = last.into_iter().collect();
            let short = TaskSpec::kernel("short", 1).fluid(1e-3).sm_frac(1.0);
            last = Some(e.submit(short, &deps));
        }
        e.sync_task(last.unwrap());
        let after = e.stats();
        let refreshes = after.rate_refreshes - before.rate_refreshes;
        assert_eq!(
            refreshes, 9,
            "five activations and the four completions between"
        );
        assert_eq!(
            after.rate_tasks_reused - before.rate_tasks_reused,
            refreshes
        );
        assert_eq!(after.rate_tasks_solved - before.rate_tasks_solved, 5);
        e.sync_all();
        assert!((e.timeline().device_span(1) - 2e-2).abs() < 1e-9);
        assert!((e.timeline().device_span(0) - 5e-3).abs() < 1e-9);
    }

    #[test]
    fn same_device_tasks_still_contend_in_multi_engines() {
        let mut e = pcie(dev(), 4);
        e.submit(
            TaskSpec::kernel("a", 0)
                .on_device(3)
                .fluid(1e-3)
                .sm_frac(1.0),
            &[],
        );
        e.submit(
            TaskSpec::kernel("b", 1)
                .on_device(3)
                .fluid(1e-3)
                .sm_frac(1.0),
            &[],
        );
        e.sync_all();
        assert!((e.now() - 2e-3).abs() < 1e-9, "now = {}", e.now());
    }

    #[test]
    fn p2p_copies_contend_on_their_link_across_devices() {
        use crate::topology::{Topology, TopologyKind};
        let d = dev();
        let topo = Topology::preset(TopologyKind::FullyConnected, 4, &d);
        let l01 = topo.d2d_link(0, 1).unwrap();
        let l23 = topo.d2d_link(2, 3).unwrap();
        let bw = topo.link(l01).bandwidth;
        let lat = topo.link(l01).latency;
        let mut e = Engine::with_topology(d, topo.clone());
        // Two copies share link 0-1 even though they sit on different
        // devices; a third copy on link 2-3 is unaffected.
        let a = e.submit(
            TaskSpec::p2p_copy("a", 0, bw * 1e-3, l01, topo.link(l01)).on_device(0),
            &[],
        );
        let b = e.submit(
            TaskSpec::p2p_copy("b", 1, bw * 1e-3, l01, topo.link(l01)).on_device(1),
            &[],
        );
        let c = e.submit(
            TaskSpec::p2p_copy("c", 2, bw * 1e-3, l23, topo.link(l23)).on_device(2),
            &[],
        );
        e.sync_task(c);
        assert!(
            (e.now() - (lat + 1e-3)).abs() < 1e-9,
            "solo link: c at {}",
            e.now()
        );
        e.sync_task(a);
        e.sync_task(b);
        assert!(
            (e.now() - (lat + 2e-3)).abs() < 1e-9,
            "shared link halves both: {}",
            e.now()
        );
        // Link traffic is attributed per link; host links stay idle.
        let traffic = |l: LinkId| {
            let t = e.link_traffic()[l.0 as usize];
            (t.bytes, t.transfers)
        };
        assert_eq!(traffic(l01), (2.0 * bw * 1e-3, 2));
        assert_eq!(traffic(l23), (bw * 1e-3, 1));
        for h in 0..4 {
            assert_eq!(traffic(LinkId(h)), (0.0, 0), "host link {h} must be idle");
        }
        // Timeline intervals carry the link attribution.
        let on_link = |l: u32| {
            e.timeline()
                .transfers()
                .filter(|iv| iv.link == Some(l))
                .count()
        };
        assert_eq!(on_link(l01.0), 2);
        assert!(e
            .timeline()
            .transfers()
            .all(|iv| iv.kind == TaskKind::CopyP2P));
    }

    #[test]
    fn host_transfers_are_charged_to_their_device_host_link() {
        let mut e = pcie(dev(), 2);
        let c0 = e.submit(host_copy(&e, TaskKind::CopyH2D, 0, 1e6, 0), &[]);
        let c1 = e.submit(host_copy(&e, TaskKind::CopyD2H, 1, 2e6, 1), &[]);
        e.sync_task(c0);
        e.sync_task(c1);
        let traffic: Vec<_> = e
            .link_traffic()
            .iter()
            .map(|t| (t.bytes, t.transfers))
            .collect();
        assert_eq!(traffic, [(1e6, 1), (2e6, 1)]);
        let links: Vec<_> = e.timeline().transfers().map(|iv| iv.link).collect();
        assert_eq!(links, [Some(0), Some(1)]);
    }

    #[test]
    fn device_load_tracks_in_flight_tasks() {
        let mut e = pcie(dev(), 2);
        let a = e.submit(TaskSpec::kernel("a", 0).fluid(1e-3).sm_frac(0.2), &[]);
        e.submit(
            TaskSpec::kernel("b", 1)
                .on_device(1)
                .fluid(2e-3)
                .sm_frac(0.2),
            &[],
        );
        assert_eq!(e.device_load(0), 1);
        assert_eq!(e.device_load(1), 1);
        e.sync_task(a);
        assert_eq!(e.device_load(0), 0);
        assert_eq!(e.device_load(1), 1);
        e.sync_all();
        assert_eq!(e.device_load(1), 0);
    }

    #[test]
    fn single_task_takes_latency_plus_work() {
        let mut e = Engine::new(dev());
        let t = e.submit(
            TaskSpec::kernel("k", 0)
                .latency(1e-6)
                .fluid(1e-3)
                .sm_frac(0.5),
            &[],
        );
        e.sync_task(t);
        assert!((e.now() - 1.001e-3).abs() < 1e-12);
        assert_eq!(e.timeline().intervals().len(), 1);
        let iv = &e.timeline().intervals()[0];
        assert_eq!(iv.start, 0.0);
        assert!((iv.end - 1.001e-3).abs() < 1e-12);
    }

    #[test]
    fn dependent_tasks_serialize() {
        let mut e = Engine::new(dev());
        let a = e.submit(TaskSpec::kernel("a", 0).fluid(1e-3).sm_frac(1.0), &[]);
        let b = e.submit(TaskSpec::kernel("b", 0).fluid(1e-3).sm_frac(1.0), &[a]);
        e.sync_task(b);
        assert!((e.now() - 2e-3).abs() < 1e-9);
    }

    #[test]
    fn independent_small_kernels_space_share() {
        let mut e = Engine::new(dev());
        let a = e.submit(TaskSpec::kernel("a", 0).fluid(1e-3).sm_frac(0.4), &[]);
        let b = e.submit(TaskSpec::kernel("b", 1).fluid(1e-3).sm_frac(0.4), &[]);
        e.sync_task(a);
        e.sync_task(b);
        assert!((e.now() - 1e-3).abs() < 1e-9, "now = {}", e.now());
    }

    #[test]
    fn full_kernels_contend_and_take_double() {
        let mut e = Engine::new(dev());
        let a = e.submit(TaskSpec::kernel("a", 0).fluid(1e-3).sm_frac(1.0), &[]);
        let b = e.submit(TaskSpec::kernel("b", 1).fluid(1e-3).sm_frac(1.0), &[]);
        e.sync_task(b);
        // Both run at rate 0.5 → both finish at 2 ms.
        assert!((e.now() - 2e-3).abs() < 1e-9, "now = {}", e.now());
        let _ = a;
    }

    #[test]
    fn staggered_contention_integrates_correctly() {
        // a: 2 ms of work; b arrives via dependency-free submit after we
        // advance 1 ms. a runs solo for 1 ms (half done), then shares for
        // the rest: remaining 1 ms at rate 0.5 → 2 ms more. Total 3 ms.
        let mut e = Engine::new(dev());
        let a = e.submit(TaskSpec::kernel("a", 0).fluid(2e-3).sm_frac(1.0), &[]);
        e.advance_host(1e-3);
        let b = e.submit(TaskSpec::kernel("b", 1).fluid(1e-3).sm_frac(1.0), &[]);
        e.sync_task(a);
        assert!((e.now() - 3e-3).abs() < 1e-9, "a done at {}", e.now());
        e.sync_task(b);
        // b: rate 0.5 from 1ms to 3ms (1 ms progress), then solo for 0 ms
        // remaining... b has 1 ms work: 0.5*(3-1)=1 ms done at t=3 ms too.
        assert!((e.now() - 3e-3).abs() < 1e-9, "b done at {}", e.now());
    }

    #[test]
    fn transfer_and_kernel_overlap() {
        let d = dev();
        let mut e = Engine::new(d.clone());
        let c = e.submit(
            host_copy(&e, TaskKind::CopyH2D, 1, d.pcie_bw * 1e-3, 0),
            &[],
        );
        let k = e.submit(TaskSpec::kernel("k", 0).fluid(1e-3).sm_frac(1.0), &[]);
        e.sync_task(c);
        e.sync_task(k);
        // Full overlap: elapsed ≈ 1 ms + copy launch overhead.
        assert!(e.now() < 1.2e-3, "now = {}", e.now());
    }

    #[test]
    fn marker_tasks_complete_instantly_and_chain() {
        let mut e = Engine::new(dev());
        let a = e.submit(TaskSpec::kernel("a", 0).fluid(1e-3).sm_frac(0.1), &[]);
        let m = e.submit(TaskSpec::marker("ev", 0), &[a]);
        let b = e.submit(TaskSpec::kernel("b", 1).fluid(1e-3).sm_frac(0.1), &[m]);
        e.sync_task(b);
        assert!((e.now() - 2e-3).abs() < 1e-9);
    }

    #[test]
    fn a_marker_completes_with_no_interval() {
        let mut e = Engine::new(dev());
        let a = e.submit(TaskSpec::kernel("a", 0).fluid(1e-3).sm_frac(0.1), &[]);
        let m = e.submit(TaskSpec::marker("ev", 0), &[a]);
        e.sync_task(m);
        assert!(e.is_complete(m));
        assert_eq!(e.stats().completed, 2);
        let tasks: Vec<u32> = e.timeline().intervals().iter().map(|iv| iv.task).collect();
        assert_eq!(tasks, [a.0], "only the kernel is GPU work");
    }

    #[test]
    fn host_copies_are_timed_by_their_link() {
        // Host links slower than the profile's PCIe and with a longer
        // setup: the links, not the profile, time every host copy.
        let d = dev();
        let slow = DeviceProfile {
            pcie_bw: d.pcie_bw / 4.0,
            launch_overhead: 5.0 * d.launch_overhead,
            ..d.clone()
        };
        let mut e = Engine::with_topology(d, Topology::pcie_only(2, &slow));
        let host = e.topology().link(e.topology().host_link(1)).clone();
        let bytes = 1e6;
        let solo = host.latency + bytes / host.bandwidth;
        let c = e.submit(host_copy(&e, TaskKind::CopyH2D, 0, bytes, 1), &[]);
        e.sync_task(c);
        assert!((e.now() - solo).abs() < 1e-12, "{} vs {solo}", e.now());
        // Two copies in one direction share the link's bandwidth.
        let t0 = e.now();
        let a = e.submit(host_copy(&e, TaskKind::CopyD2H, 0, bytes, 1), &[]);
        let b = e.submit(host_copy(&e, TaskKind::CopyD2H, 1, bytes, 1), &[]);
        e.sync_task(a);
        e.sync_task(b);
        let shared = host.latency + 2.0 * bytes / host.bandwidth;
        assert!(
            (e.now() - t0 - shared).abs() < 1e-12,
            "{} vs {shared}",
            e.now() - t0
        );
    }

    #[test]
    fn dep_on_completed_task_is_satisfied() {
        let mut e = Engine::new(dev());
        let a = e.submit(TaskSpec::kernel("a", 0).fluid(1e-4).sm_frac(0.1), &[]);
        e.sync_task(a);
        let b = e.submit(TaskSpec::kernel("b", 0).fluid(1e-4).sm_frac(0.1), &[a]);
        e.sync_task(b);
        assert!(e.is_complete(b));
    }

    #[test]
    fn duplicate_deps_counted_once() {
        let mut e = Engine::new(dev());
        let a = e.submit(TaskSpec::kernel("a", 0).fluid(1e-4).sm_frac(0.1), &[]);
        let b = e.submit(
            TaskSpec::kernel("b", 0).fluid(1e-4).sm_frac(0.1),
            &[a, a, a],
        );
        e.sync_task(b);
        assert!(e.is_complete(b));
    }

    #[test]
    fn advance_host_runs_background_work() {
        let mut e = Engine::new(dev());
        let a = e.submit(TaskSpec::kernel("a", 0).fluid(1e-3).sm_frac(0.5), &[]);
        assert!(!e.is_complete(a));
        e.advance_host(2e-3);
        assert!(e.is_complete(a));
        assert_eq!(e.now(), 2e-3);
    }

    #[test]
    fn on_complete_payload_runs_once() {
        use crate::task::KernelBody;
        use std::cell::Cell;
        use std::rc::Rc;
        let hits = Rc::new(Cell::new(0));
        let h = hits.clone();
        let mut e = Engine::new(dev());
        let bump = KernelBody::Shared(Rc::new(move |_| h.set(h.get() + 1)));
        let mut spec = TaskSpec::kernel("a", 0).fluid(1e-4).sm_frac(0.1);
        spec.on_complete = Some(e.recycler().kernel_payload(bump, &[], &[]));
        let a = e.submit(spec, &[]);
        e.sync_task(a);
        e.sync_all();
        assert_eq!(hits.get(), 1);
    }

    #[test]
    fn race_detection_fires_for_unsynchronized_conflict() {
        use crate::data::ValueId;
        let mut e = Engine::new(dev());
        let v = ValueId(1);
        let _ = e.submit(
            TaskSpec::kernel("w1", 0)
                .fluid(1e-3)
                .sm_frac(0.1)
                .writing(&[v]),
            &[],
        );
        let _ = e.submit(
            TaskSpec::kernel("w2", 1)
                .fluid(1e-3)
                .sm_frac(0.1)
                .writing(&[v]),
            &[],
        );
        e.sync_all();
        assert_eq!(e.races().len(), 1);
        assert!(e.races()[0].write_write);
        assert_eq!(e.stats().race_scans, 1, "only the second writer is scanned");
    }

    #[test]
    fn races_are_found_between_ids_far_apart() {
        // The in-flight table is indexed by id: one far from the others
        // grows it to that id and is still matched.
        let (near, far) = (ValueId(0), ValueId(1 << 16));
        let mut e = Engine::new(dev());
        let spec =
            |label: &'static str, stream| TaskSpec::kernel(label, stream).fluid(1e-3).sm_frac(0.1);
        e.submit(spec("near", 0).writing(&[near]), &[]);
        e.submit(spec("far", 1).writing(&[far]), &[]);
        e.submit(spec("reader", 2).reading(&[far]), &[]);
        e.sync_all();
        assert_eq!(e.races().len(), 1);
        let r = &e.races()[0];
        assert_eq!((r.value, r.first, r.second), (far, "far", "reader"));
        assert!(!r.write_write);
        assert_eq!(e.stats().race_scans, 1);
        assert_eq!(e.values_in_flight.holders.len(), (1 << 16) + 1);
    }

    #[test]
    fn repeated_racing_pairs_are_deduplicated() {
        use crate::data::ValueId;
        let mut e = Engine::new(dev());
        let v = ValueId(1);
        let w = ValueId(2);
        // The same conflicting pair over and over: one report, not ten.
        for _ in 0..10 {
            for (label, stream) in [("w1", 0), ("w2", 1)] {
                let _ = e.submit(
                    TaskSpec::kernel(label, stream)
                        .fluid(1e-3)
                        .sm_frac(0.1)
                        .writing(&[v]),
                    &[],
                );
            }
            e.sync_all();
        }
        assert_eq!(e.races().len(), 1, "repeated pair reported once");
        assert_eq!(e.stats().races, e.races().len(), "counter stays in step");
        // A distinct value makes a distinct pair again.
        for (label, stream) in [("w1", 0), ("w2", 1)] {
            let _ = e.submit(
                TaskSpec::kernel(label, stream)
                    .fluid(1e-3)
                    .sm_frac(0.1)
                    .writing(&[w]),
                &[],
            );
        }
        e.sync_all();
        assert_eq!(e.races().len(), 2);
        assert!(e.races().iter().any(|r| r.value == w));
    }

    #[test]
    fn race_detection_silent_when_dependency_exists() {
        use crate::data::ValueId;
        let mut e = Engine::new(dev());
        let v = ValueId(1);
        let a = e.submit(
            TaskSpec::kernel("w1", 0)
                .fluid(1e-3)
                .sm_frac(0.1)
                .writing(&[v]),
            &[],
        );
        let _ = e.submit(
            TaskSpec::kernel("w2", 1)
                .fluid(1e-3)
                .sm_frac(0.1)
                .writing(&[v]),
            &[a],
        );
        e.sync_all();
        assert!(e.races().is_empty());
        assert_eq!(e.stats().race_scans, 0, "the writer left the table first");
    }

    // Note on deadlocks: `submit` only accepts dependencies on tasks that
    // already exist, so a dependency cycle cannot be constructed through
    // the public API and the `run` deadlock panic is a defensive internal
    // invariant rather than a reachable user-facing state.

    #[test]
    fn stats_accumulate() {
        let mut e = Engine::new(dev());
        let c = e.submit(host_copy(&e, TaskKind::CopyH2D, 0, 1e7, 0), &[]);
        let k = e.submit(TaskSpec::kernel("k", 0).fluid(2e-3).sm_frac(0.5), &[c]);
        e.sync_task(k);
        let s = e.stats();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.completed, 2);
    }

    #[test]
    fn completion_records_the_launch_shape_where_the_duration_is_known() {
        let mut e = Engine::new(dev());
        let shaped = |label: &'static str, stream, work, threads| {
            let mut spec = TaskSpec::kernel(label, stream).fluid(work).sm_frac(0.1);
            spec.launch_shape = Some((Grid::d1(64, threads), 1 << 14));
            spec
        };
        let long = e.submit(shaped("k", 0, 1e-2, 128), &[]);
        let short = e.submit(shaped("k", 1, 1e-4, 256), &[]);
        e.submit(TaskSpec::kernel("k", 2).fluid(1e-4).sm_frac(0.1), &[]);
        assert_eq!(e.calibration().history_samples("k"), 0, "nothing completed");
        // The short kernel (higher id) completes first: its sample is
        // visible at once; the shapeless kernel leaves none.
        e.sync_task(short);
        assert!(!e.is_complete(long));
        assert_eq!(e.calibration().history_samples("k"), 1);
        assert!(e.calibration().mean_duration("k", 128, 1 << 14).is_none());
        e.sync_all();
        assert_eq!(e.calibration().history_samples("k"), 2);
        let iv = e.timeline().kernels().find(|iv| iv.task == long.0).unwrap();
        let mean = e.calibration().mean_duration("k", 128, 1 << 14);
        assert_eq!(mean, Some(iv.duration()), "the measured duration");
        // Clearing the timeline does not touch the history.
        e.clear_timeline();
        assert_eq!(e.calibration().history_samples("k"), 2);
    }

    #[test]
    fn timeline_clear_preserves_task_state() {
        let mut e = Engine::new(dev());
        let a = e.submit(TaskSpec::kernel("a", 0).fluid(1e-4).sm_frac(0.1), &[]);
        e.sync_task(a);
        e.clear_timeline();
        assert!(e.timeline().intervals().is_empty());
        assert!(e.is_complete(a));
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use crate::task::TaskSpec;
    use crate::topology::{Topology, TopologyKind};
    use proptest::prelude::*;

    impl Engine {
        /// Test oracle: refresh (incrementally), then compare with the
        /// full whole-active-set solve.
        fn refreshed_rates_match_full_solve(&mut self) {
            self.refresh_rates();
            self.assert_rates_match_full_solve();
        }
    }

    proptest! {
        /// Differential test for the incremental rate solver: drive
        /// randomized mixes of kernels, host copies and p2p copies over
        /// randomized device counts and dependency chains, and after
        /// every submission / host advance assert the incrementally
        /// maintained rates are bit-identical to the full
        /// whole-active-set solve.
        #[test]
        fn incremental_solver_matches_full_solve(
            n_dev in 1usize..5,
            ops in proptest::collection::vec(
                (0u8..3, 0u32..4, 0u32..4, 1u32..20, proptest::bool::ANY), 1..24),
        ) {
            let d = DeviceProfile::gtx1660_super();
            let topo = Topology::preset(TopologyKind::FullyConnected, n_dev, &d);
            let mut e = Engine::with_topology(d.clone(), topo.clone());
            let mut prev: Option<TaskId> = None;
            for (i, &(kind, da, db, work, chain)) in ops.iter().enumerate() {
                let dev_a = da % n_dev as u32;
                let dev_b = db % n_dev as u32;
                let w = work as f64 * 1e-4;
                let stream = i as u32;
                let spec = match (kind, topo.d2d_link(dev_a, dev_b)) {
                    (2, Some(l)) => TaskSpec::p2p_copy(
                        "p",
                        stream,
                        topo.link(l).bandwidth * w,
                        l,
                        topo.link(l),
                    )
                    .on_device(dev_a),
                    (1, _) => {
                        let host = topo.link(topo.host_link(dev_a));
                        TaskSpec::bulk_copy(TaskKind::CopyH2D, "c", stream, host.bandwidth * w, host)
                            .on_device(dev_a)
                    }
                    _ => TaskSpec::kernel("k", stream)
                        .on_device(dev_a)
                        .fluid(w)
                        .sm_frac(0.8),
                };
                let deps: Vec<TaskId> = if chain { prev.into_iter().collect() } else { Vec::new() };
                prev = Some(e.submit(spec, &deps));
                e.refreshed_rates_match_full_solve();
                if i % 5 == 4 {
                    e.advance_host(2e-4);
                    e.refreshed_rates_match_full_solve();
                }
            }
            e.sync_all();
            e.refreshed_rates_match_full_solve();
        }

        /// The sparse component solve against the dense oracle on the
        /// machines whose components are interesting: NVLink pairs
        /// (two-device islands), a ring (one link chains every device
        /// together), and clusters whose NIC couples whole nodes. Mixes
        /// kernels, host copies, peer copies and NIC forwards placed on
        /// a third device, so components span several device blocks and
        /// links, sit beside idle devices, or consist of a lone copy
        /// whose link nobody else occupies.
        #[test]
        fn sparse_component_solve_matches_full_solve(
            machine in 0usize..5,
            ops in proptest::collection::vec(
                (0u8..4, 0u32..16, 0u32..16, 1u32..20, 0u8..4), 1..32),
        ) {
            use crate::topology::{Cluster, NicKind};
            let d = DeviceProfile::tesla_p100();
            let topo = match machine {
                0 => Topology::preset(TopologyKind::NvlinkPair, 6, &d),
                1 => Topology::preset(TopologyKind::Ring, 5, &d),
                2 => Cluster::new(2, 4, TopologyKind::NvlinkPair, NicKind::InfinibandHdr).build(&d),
                3 => Cluster::new(3, 2, TopologyKind::PcieOnly, NicKind::Ethernet25g).build(&d),
                _ => Cluster::new(2, 8, TopologyKind::NvlinkPair, NicKind::InfinibandHdr).build(&d),
            };
            let n_dev = topo.device_count() as u32;
            let mut e = Engine::with_topology(d.clone(), topo.clone());
            let mut prev: Option<TaskId> = None;
            for (i, &(kind, da, db, work, then)) in ops.iter().enumerate() {
                let (dev_a, dev_b) = (da % n_dev, db % n_dev);
                let w = work as f64 * 1e-4;
                let stream = i as u32;
                let copy = |l: LinkId, on: u32| {
                    let link = topo.link(l);
                    TaskSpec::p2p_copy("p", stream, link.bandwidth * w, l, link)
                        .on_device(on)
                };
                let nic = topo.nic_link(topo.node_of(dev_a), topo.node_of(dev_b));
                let spec = match (kind, topo.d2d_link(dev_a, dev_b), nic) {
                    (2, Some(l), _) => copy(l, dev_b),
                    (3, _, Some(l)) => copy(l, dev_b),
                    (1, _, _) => {
                        let host = topo.link(topo.host_link(dev_a));
                        TaskSpec::bulk_copy(TaskKind::CopyD2H, "c", stream, host.bandwidth * w, host)
                            .on_device(dev_a)
                    }
                    _ => TaskSpec::kernel("k", stream)
                        .on_device(dev_a)
                        .fluid(w)
                        .sm_frac(0.8)
                        .dram(d.dram_bw * 0.6),
                };
                let deps: Vec<TaskId> = if then == 0 { prev.into_iter().collect() } else { Vec::new() };
                prev = Some(e.submit(spec, &deps));
                e.refreshed_rates_match_full_solve();
                match then {
                    1 => e.advance_host(1.5e-4),
                    2 => e.sync_task(prev.unwrap()),
                    _ => {}
                }
                e.refreshed_rates_match_full_solve();
            }
            e.sync_all();
            e.refreshed_rates_match_full_solve();
            prop_assert!(e.solve.parent.iter().enumerate().all(|(x, &p)| p == x as u32));
            prop_assert!(e.solve.comp_dirty.iter().all(|&c| !c));
        }

        /// The in-flight value table against the all-pairs scan it
        /// replaces, fed conflicts: read and write sets drawn from four
        /// values, random dependencies, latencies, zero-work tasks, host
        /// advances and task syncs. `races()` must be, report for report
        /// and in order, what an engine that scans every ready task
        /// records (test builds also hold each verdict to the scan), and
        /// a drained engine holds no value in flight.
        #[test]
        fn value_table_reports_what_the_scan_reports(
            n_dev in 1usize..3,
            ops in proptest::collection::vec(
                (0u8..16, 0u8..16, 0usize..4, 0u32..20, 0u8..4), 1..32),
        ) {
            let d = DeviceProfile::gtx1660_super();
            let values = |mask: u8| -> Vec<ValueId> {
                (0..4).filter(|b| mask >> b & 1 == 1).map(ValueId).collect()
            };
            let run = |scan_every_ready_task: bool| {
                let mut e = Engine::with_topology(d.clone(), Topology::pcie_only(n_dev, &d));
                e.scan_every_ready_task = scan_every_ready_task;
                let mut ids: Vec<TaskId> = Vec::new();
                for (i, &(reads, writes, back, work, then)) in ops.iter().enumerate() {
                    // A distinct name per task, so the race dedup keeps
                    // every pair apart (the few leaked bytes are the
                    // test's).
                    let name: &'static str = Box::leak(format!("k{i}").into_boxed_str());
                    let spec = TaskSpec::kernel(name, i as u32)
                        .on_device(i as u32 % n_dev as u32)
                        .latency(if work % 3 == 0 { 1e-5 } else { 0.0 })
                        .fluid(work as f64 * 1e-4)
                        .sm_frac(0.3)
                        .reading(&values(reads))
                        .writing(&values(writes));
                    let deps: Vec<TaskId> =
                        i.checked_sub(back).filter(|_| back > 0).map(|j| ids[j]).into_iter().collect();
                    let t = e.submit(spec, &deps);
                    ids.push(t);
                    match then {
                        1 => e.advance_host(7e-5),
                        2 => e.sync_task(t),
                        _ => {}
                    }
                }
                e.sync_all();
                let drained = e.values_in_flight.holders.iter().all(|h| h.writers == 0 && h.readers == 0);
                (e.races().to_vec(), e.stats().race_scans, drained)
            };
            let (races, scans, drained) = run(false);
            let (reference, reference_scans, reference_drained) = run(true);
            prop_assert_eq!(&races, &reference);
            prop_assert!(drained && reference_drained);
            prop_assert!(scans <= reference_scans);
            prop_assert_eq!(scans == 0, races.is_empty());
        }
    }
}
