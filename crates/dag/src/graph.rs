//! The incrementally-built computation DAG.

use crate::dense::DenseMap;
use crate::vertex::{ArgAccess, ElementKind, Value, Vertex, VertexId};

/// A dependency edge, labeled (as in the paper's figures) with the value
/// that caused it and whether the child's access is read-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// The dependency source (must execute first).
    pub from: VertexId,
    /// The dependent computation.
    pub to: VertexId,
    /// The argument value that created the dependency.
    pub value: Value,
    /// True if `to` only reads `value`.
    pub read_only: bool,
    /// Bytes migrated across devices to satisfy this edge (0 when both
    /// endpoints ran on the same device or the data was host-staged).
    /// Set by the scheduler via
    /// [`ComputationDag::annotate_migration_route`].
    pub migrated_bytes: usize,
    /// True when the migration went over a direct peer-to-peer link;
    /// false for host-mediated migrations (meaningful only when
    /// `migrated_bytes > 0`).
    pub p2p: bool,
    /// True when the migration crossed a cluster-node boundary (a
    /// GPU→host→NIC→host→GPU route; meaningful only when
    /// `migrated_bytes > 0`). Rendered with its own color by
    /// [`crate::to_dot`].
    pub cross_node: bool,
    /// True when the edge is individually redundant: a parallel edge or
    /// transitive path orders the same pair, so dropping just this edge
    /// changes nothing. Stamped by
    /// [`ComputationDag::mark_redundant_edges`] (false until then);
    /// informational only — rendered dashed gray by [`crate::to_dot`]
    /// and counted by the schedule sanitizer's minimality check.
    pub redundant: bool,
}

/// A memory-manager action attributed to a computation — the eviction
/// and prefetch traffic a capacity-limited scheduler generated while
/// placing it, recorded via [`ComputationDag::annotate_evict`] /
/// [`ComputationDag::annotate_prefetch`] and rendered by
/// [`crate::to_dot`] as auxiliary nodes hanging off the vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemNote {
    /// The computation whose scheduling caused the action.
    pub(crate) vertex: VertexId,
    /// The array involved.
    pub(crate) value: Value,
    /// Its size in bytes.
    pub(crate) bytes: usize,
    /// What happened.
    pub(crate) kind: MemNoteKind,
}

/// The kind of a [`MemNote`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MemNoteKind {
    /// A resident array was evicted to make room for this computation's
    /// arguments; `spilled` is true when a real device→host copy moved
    /// the data (false for free drops of still-valid host copies).
    Evicted {
        /// Whether the eviction paid a spill copy.
        spilled: bool,
    },
    /// An argument was bulk-prefetched ahead of this launch.
    Prefetched,
}

/// Per-value ordering index: the last active writer and the active
/// readers since that write. This is the O(1) realization of the
/// dependency-set scan described in the paper.
#[derive(Debug, Default, Clone)]
struct ValueState {
    last_writer: Option<VertexId>,
    readers_since_write: Vec<VertexId>,
}

/// The computation DAG of §IV-A. Vertices are added one at a time as the
/// host program issues computations; dependencies on *active* prior
/// computations are inferred from argument overlap and returned to the
/// caller (the scheduler), which turns them into stream/event decisions.
///
/// ## Generational storage and compaction
///
/// A long-running host program issues computations forever, but only the
/// frontier of *active* vertices can ever be a dependency source. The
/// DAG therefore stores vertices generationally: ids are allocated
/// monotonically and never reused, while [`ComputationDag::compact`]
/// drops fully-retired vertices (and their edges and per-value ordering
/// state) so the resident footprint stays O(live computations) instead of
/// O(lifetime launches). Ids of live vertices are stable across
/// compaction; looking up a compacted id panics, exactly like looking up
/// an id that was never allocated.
///
/// Compaction keeps what it reclaims: up to `RECYCLED_MAX` retired
/// vertices (their argument, dependency-set, parent and child
/// buffers) and as many reader lists of dropped value states wait for
/// the next registrations, which re-initialise them in place. The DAG
/// owns these buffers between launches; nothing observable distinguishes
/// a recycled vertex from a fresh one.
#[derive(Debug, Default, Clone)]
pub struct ComputationDag {
    /// Stored vertices in ascending-id order: the live set plus retired
    /// vertices not yet reclaimed by [`ComputationDag::compact`].
    vertices: Vec<Vertex>,
    /// Total vertices ever registered; also the next id to allocate.
    next_id: u32,
    /// Count of stored vertices that are retired — compaction fuel.
    retired_stored: usize,
    edges: Vec<DepEdge>,
    /// Per-value ordering state, arena-addressed by the monotonic value
    /// id — dependency inference does zero hashing.
    values: DenseMap<Value, ValueState>,
    /// Eviction/prefetch annotations, pruned with their vertices on
    /// compaction so they stay O(live computations) too.
    mem_notes: Vec<MemNote>,
    /// Retired vertices reclaimed by [`ComputationDag::compact`], kept
    /// for their buffers.
    free_vertices: Vec<Vertex>,
    /// Reader lists of the value states compaction dropped, emptied.
    free_readers: Vec<Vec<VertexId>>,
    /// Work stack of [`ComputationDag::retire`], empty between calls.
    retire_stack: Vec<VertexId>,
}

/// Most retired vertices (and dropped reader lists) kept for reuse: the
/// same bound as the engine's buffer pools (`gpu_sim::recycle::POOL_MAX`),
/// sized so the window of launches between two synchronizations is
/// re-registered from the free list entirely. Past it the rest is freed
/// as before, so a burst does not pin its storage.
const RECYCLED_MAX: usize = 384;

/// Storage slot of `id` among `vertices` (ascending ids, all below
/// `next_id`). Ids ascend by one wherever compaction left no gap, so the
/// slot is guessed by counting back from the tail and verified; a gap —
/// between the two, or after the newest stored vertex — can only make
/// the guess land too early, and a search over the rest finds the id.
fn slot_in(vertices: &[Vertex], next_id: u32, id: VertexId) -> Option<usize> {
    if id.0 >= next_id {
        return None;
    }
    let guess = vertices.len().saturating_sub((next_id - id.0) as usize);
    match vertices.get(guess) {
        Some(v) if v.id == id => Some(guess),
        _ => vertices[guess..]
            .binary_search_by_key(&id, |v| v.id)
            .ok()
            .map(|i| guess + i),
    }
}

impl ComputationDag {
    /// An empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of vertices ever added over the DAG's lifetime (compacted
    /// vertices included).
    pub fn len(&self) -> usize {
        self.next_id as usize
    }

    /// True if no computation was ever registered.
    pub fn is_empty(&self) -> bool {
        self.next_id == 0
    }

    /// Number of vertices currently stored (live frontier plus retired
    /// vertices awaiting compaction).
    pub fn stored_len(&self) -> usize {
        self.vertices.len()
    }

    /// Number of stored vertices still active (not yet retired).
    pub fn live_len(&self) -> usize {
        self.vertices.len() - self.retired_stored
    }

    /// Number of per-value ordering states currently tracked.
    pub fn value_states_len(&self) -> usize {
        self.values.len()
    }

    /// Storage slot of a stored vertex: O(1) unless a compaction gap
    /// separates it from the newest vertex (see [`slot_in`]).
    fn slot(&self, id: VertexId) -> Option<usize> {
        slot_in(&self.vertices, self.next_id, id)
    }

    /// Look up a stored vertex, or `None` if the id was compacted away
    /// (or never allocated).
    pub(crate) fn try_vertex(&self, id: VertexId) -> Option<&Vertex> {
        self.slot(id).map(|i| &self.vertices[i])
    }

    /// All stored vertices in submission order.
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// All stored dependency edges in creation order (edges whose
    /// endpoints were compacted are dropped with them).
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// Mutable view of the stored edges, for the redundancy stamper.
    pub(crate) fn edges_mut(&mut self) -> &mut [DepEdge] {
        &mut self.edges
    }

    /// Register a new computational element and infer its dependencies.
    ///
    /// Returns the new vertex id; `deps` is overwritten with the
    /// (deduplicated) list of *active* vertices it depends on, in
    /// discovery order. Nothing is allocated while recycled vertices
    /// last and the caller's `deps` has room. The rules follow the
    /// paper's Fig. 3:
    ///
    /// * read-only argument → depend on the value's last active writer;
    ///   the writer's dependency set is **not** consumed;
    /// * written argument → depend on the active readers since the last
    ///   write if any (WAR), otherwise on the last writer (RAW/WAW);
    ///   either way the value is consumed from all previous holders'
    ///   dependency sets and this vertex becomes the value's writer.
    pub fn register(
        &mut self,
        kind: ElementKind,
        label: &'static str,
        args: &[ArgAccess],
        deps: &mut Vec<VertexId>,
    ) -> VertexId {
        let id = VertexId(self.next_id);
        // Fail loudly rather than wrap: a wrapped id would land out of
        // order in the ascending-sorted storage and silently break the
        // slot lookups (and with them, dependency inference).
        self.next_id = self
            .next_id
            .checked_add(1)
            .expect("vertex id space exhausted (2^32 computations)");
        let vertex = match self.free_vertices.pop() {
            Some(mut v) => {
                v.reset(id, kind, label, args);
                v
            }
            None => Vertex::new(id, kind, label, args),
        };
        self.vertices.push(vertex);

        deps.clear();
        for arg in args {
            if arg.read_only {
                if let Some(w) = self.values.entry_or_default(arg.value).last_writer {
                    if w != id && self.is_dep_source(w, arg.value) {
                        push_unique(deps, w);
                        self.record_edge(w, id, arg.value, true);
                    }
                }
                let readers = &mut self.values.entry_or_default(arg.value).readers_since_write;
                if readers.capacity() == 0 {
                    if let Some(list) = self.free_readers.pop() {
                        *readers = list;
                    }
                }
                readers.push(id);
            } else {
                // Writer: WAR on readers if any, else RAW/WAW on writer.
                // The value's reader list is borrowed for the scan and
                // handed back empty, capacity kept.
                let state = self.values.entry_or_default(arg.value);
                let prev_writer = state.last_writer;
                let mut readers = std::mem::take(&mut state.readers_since_write);
                let mut found_dep = false;
                for &r in &readers {
                    if r == id {
                        continue;
                    }
                    if self.is_dep_source(r, arg.value) {
                        push_unique(deps, r);
                        self.record_edge(r, id, arg.value, false);
                        found_dep = true;
                    }
                    self.consume(r, arg.value);
                }
                if let Some(w) = prev_writer {
                    if w != id {
                        if !found_dep && self.is_dep_source(w, arg.value) {
                            push_unique(deps, w);
                            self.record_edge(w, id, arg.value, false);
                        }
                        self.consume(w, arg.value);
                    }
                }
                readers.clear();
                let state = self.values.entry_or_default(arg.value);
                state.readers_since_write = readers;
                state.last_writer = Some(id);
            }
        }

        self.vertices
            .last_mut()
            .expect("vertex pushed above")
            .parents
            .extend_from_slice(deps);
        id
    }

    /// [`ComputationDag::register`] for callers that own their argument
    /// list and want the dependency list returned.
    pub fn add_computation(
        &mut self,
        kind: ElementKind,
        label: &'static str,
        args: Vec<ArgAccess>,
    ) -> (VertexId, Vec<VertexId>) {
        let mut deps = Vec::new();
        let id = self.register(kind, label, &args, &mut deps);
        (id, deps)
    }

    /// Register a CPU access to a value (paper §IV-A: array accesses are
    /// computational elements too, but accesses that cannot introduce
    /// dependencies are executed immediately without being modeled).
    ///
    /// Returns `(Some(vertex), deps)` if the access conflicts with active
    /// GPU work and had to be modeled, or `(None, vec![])` if it is free.
    pub fn add_array_access(
        &mut self,
        label: &'static str,
        value: Value,
        write: bool,
    ) -> (Option<VertexId>, Vec<VertexId>) {
        if !self.access_conflicts(value, write) {
            return (None, Vec::new());
        }
        let arg = if write {
            ArgAccess::write(value)
        } else {
            ArgAccess::read(value)
        };
        let mut deps = Vec::new();
        let id = self.register(ElementKind::ArrayAccess, label, &[arg], &mut deps);
        (Some(id), deps)
    }

    /// Whether a CPU access to `value` would depend on active GPU work.
    fn access_conflicts(&self, value: Value, write: bool) -> bool {
        let Some(state) = self.values.get(value) else {
            return false;
        };
        if let Some(w) = state.last_writer {
            if self.is_dep_source(w, value) {
                return true;
            }
        }
        if write
            && state
                .readers_since_write
                .iter()
                .any(|&r| self.is_dep_source(r, value))
        {
            return true;
        }
        false
    }

    /// Mark a vertex inactive: the CPU has synchronized with it (or the
    /// scheduler has retired it), so it can no longer be a dependency
    /// source. Ancestors are retired transitively — if the CPU saw this
    /// result, everything upstream is also complete.
    ///
    /// Returns the ids of all *newly* retired vertices, so the scheduler
    /// can reclaim its per-vertex bookkeeping (stream claims, task and
    /// stream maps) along with them.
    pub fn retire(&mut self, id: VertexId) -> Vec<VertexId> {
        let mut retired = Vec::new();
        let mut stack = std::mem::take(&mut self.retire_stack);
        stack.push(id);
        while let Some(v) = stack.pop() {
            let Some(i) = self.slot(v) else {
                continue; // already compacted away — long retired
            };
            if !self.vertices[i].active {
                continue;
            }
            self.vertices[i].active = false;
            self.retired_stored += 1;
            retired.push(v);
            stack.extend(self.vertices[i].parents.iter().copied());
        }
        self.retire_stack = stack;
        retired
    }

    /// Retire every vertex (full-device synchronization).
    pub fn retire_all(&mut self) {
        for v in &mut self.vertices {
            v.active = false;
        }
        self.retired_stored = self.vertices.len();
    }

    /// Reclaim the storage of retired vertices. Live vertices keep their
    /// ids; edges touching a dropped vertex and per-value ordering states
    /// that can no longer source a dependency are dropped with them.
    /// Returns the number of vertices reclaimed.
    pub fn compact(&mut self) -> usize {
        if self.retired_stored == 0 {
            return 0;
        }
        let dropped = self.retired_stored;
        // Live vertices slide to the front in order; the retired tail
        // goes to the free list instead of the allocator.
        let mut live = 0;
        for i in 0..self.vertices.len() {
            if self.vertices[i].active {
                self.vertices.swap(live, i);
                live += 1;
            }
        }
        let room = RECYCLED_MAX.saturating_sub(self.free_vertices.len());
        let retired = self.vertices.drain(live..);
        self.free_vertices.extend(retired.take(room));
        self.retired_stored = 0;

        let (vertices, next_id) = (&self.vertices, self.next_id);
        let stored = |id: VertexId| slot_in(vertices, next_id, id).is_some();
        self.edges.retain(|e| stored(e.from) && stored(e.to));
        self.mem_notes.retain(|n| stored(n.vertex));

        // A value state is only worth keeping while some referenced
        // vertex can still introduce a dependency through the value.
        let is_source = |id: VertexId, value: Value| {
            slot_in(vertices, next_id, id)
                .is_some_and(|i| vertices[i].active && vertices[i].dep_set.contains(&value))
        };
        let free_readers = &mut self.free_readers;
        self.values.retain(|value, st| {
            st.readers_since_write.retain(|&r| is_source(r, value));
            if st.last_writer.is_some_and(|w| !is_source(w, value)) {
                st.last_writer = None;
            }
            let keep = st.last_writer.is_some() || !st.readers_since_write.is_empty();
            if !keep && st.readers_since_write.capacity() > 0 && free_readers.len() < RECYCLED_MAX {
                free_readers.push(std::mem::take(&mut st.readers_since_write));
            }
            keep
        });
        dropped
    }

    /// Compact when retired vertices dominate the stored set (amortized
    /// O(1) per retirement). Returns the number of vertices reclaimed.
    pub fn maybe_compact(&mut self) -> usize {
        if self.retired_stored > 32 && self.retired_stored * 2 >= self.vertices.len() {
            self.compact()
        } else {
            0
        }
    }

    /// Whether `v` can be a dependency source through `value`: it must be
    /// stored, active and still hold `value` in its dependency set.
    fn is_dep_source(&self, v: VertexId, value: Value) -> bool {
        self.try_vertex(v)
            .is_some_and(|vert| vert.active && vert.dep_set.contains(&value))
    }

    /// Remove `value` from `v`'s dependency set (a later writer consumed
    /// it).
    fn consume(&mut self, v: VertexId, value: Value) {
        if let Some(i) = self.slot(v) {
            self.vertices[i].dep_set.retain(|held| *held != value);
        }
    }

    fn record_edge(&mut self, from: VertexId, to: VertexId, value: Value, read_only: bool) {
        self.edges.push(DepEdge {
            from,
            to,
            value,
            read_only,
            migrated_bytes: 0,
            p2p: false,
            cross_node: false,
            redundant: false,
        });
    }

    /// Record the device a scheduler placed a vertex on (no-op if the
    /// vertex was already compacted away).
    pub fn set_device(&mut self, id: VertexId, device: u32) {
        if let Some(i) = self.slot(id) {
            self.vertices[i].device = Some(device);
        }
    }

    /// Record that satisfying `to`'s dependency on `value` migrated
    /// `bytes` across devices — the run-time migration-cost accounting
    /// rendered by [`crate::to_dot`]. `p2p` records whether the move
    /// went over a direct peer link or staged through the host, and
    /// `cross_node` whether its endpoints sit on different cluster nodes
    /// (the GPU→host→NIC→host→GPU path); the three are styled
    /// differently in the render. Exactly one incoming edge is stamped
    /// (a writer after several readers has one WAR edge per reader for
    /// the same value, but the data moved once): preferably the edge
    /// whose source sits on another device, else the first match.
    ///
    /// `to` must be the most recently added vertex — the scheduler
    /// annotates each computation as it places it — so its incoming
    /// edges are the tail of the edge list and nothing older is scanned;
    /// for any other vertex this is a no-op.
    pub fn annotate_migration_route(
        &mut self,
        to: VertexId,
        value: Value,
        bytes: usize,
        p2p: bool,
        cross_node: bool,
    ) {
        let to_device = self.try_vertex(to).and_then(|v| v.device);
        let incoming = self.edges.iter().rev().take_while(|e| e.to == to).count();
        let tail = self.edges.len() - incoming;
        let matches = || (tail..self.edges.len()).filter(|&i| self.edges[i].value == value);
        let cross = matches().find(|&i| {
            let from_device = self.try_vertex(self.edges[i].from).and_then(|v| v.device);
            from_device.is_some() && from_device != to_device
        });
        if let Some(i) = cross.or_else(|| matches().next()) {
            self.edges[i].migrated_bytes = bytes;
            self.edges[i].p2p = p2p;
            self.edges[i].cross_node = cross_node;
        }
    }

    /// Record that placing `vertex` evicted `value` (`bytes` big) from
    /// its device; `spilled` distinguishes a real device→host spill copy
    /// from a free drop. Rendered by [`crate::to_dot`]. No-op for
    /// compacted vertices.
    pub fn annotate_evict(&mut self, vertex: VertexId, value: Value, bytes: usize, spilled: bool) {
        if self.slot(vertex).is_some() {
            self.mem_notes.push(MemNote {
                vertex,
                value,
                bytes,
                kind: MemNoteKind::Evicted { spilled },
            });
        }
    }

    /// Record that `value` (`bytes` big) was bulk-prefetched ahead of
    /// `vertex`'s launch. Rendered by [`crate::to_dot`]. No-op for
    /// compacted vertices.
    pub fn annotate_prefetch(&mut self, vertex: VertexId, value: Value, bytes: usize) {
        if self.slot(vertex).is_some() {
            self.mem_notes.push(MemNote {
                vertex,
                value,
                bytes,
                kind: MemNoteKind::Prefetched,
            });
        }
    }

    /// The stored eviction/prefetch annotations (pruned with their
    /// vertices on compaction).
    pub(crate) fn mem_notes(&self) -> &[MemNote] {
        &self.mem_notes
    }
}

fn push_unique(v: &mut Vec<VertexId>, x: VertexId) {
    if !v.contains(&x) {
        v.push(x);
    }
}

/// What this crate's unit tests ask of a DAG when they mirror the
/// paper's Fig. 3/4 walk-throughs.
#[cfg(test)]
impl ComputationDag {
    /// Look up a stored vertex.
    pub(crate) fn vertex(&self, id: VertexId) -> &Vertex {
        self.try_vertex(id)
            .unwrap_or_else(|| panic!("vertex {id:?} is not stored (compacted or never added)"))
    }

    /// The current frontier: active vertices whose dependency set is not
    /// yet exhausted — the only vertices that can still be dependency
    /// sources (§IV-A: "the scheduler updates the current graph
    /// frontier").
    pub(crate) fn frontier(&self) -> Vec<VertexId> {
        self.vertices
            .iter()
            .filter(|v| v.active && !v.dep_set.is_empty())
            .map(|v| v.id)
            .collect()
    }

    /// The dependency set of a vertex.
    pub(crate) fn dep_set(&self, id: VertexId) -> Vec<Value> {
        self.vertex(id).dep_set.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: Value = Value(0);
    const Y: Value = Value(1);
    const Z: Value = Value(2);
    const W: Value = Value(3);
    const R: Value = Value(4);

    fn kernel(
        dag: &mut ComputationDag,
        label: &'static str,
        args: Vec<ArgAccess>,
    ) -> (VertexId, Vec<VertexId>) {
        dag.add_computation(ElementKind::Kernel, label, args)
    }

    /// Paper Fig. 3 case A: K1(X, const Y) then K2(const X, Z):
    /// K2 read-depends on K1 through X.
    #[test]
    fn fig3_case_a_read_after_write() {
        let mut dag = ComputationDag::new();
        let (k1, d1) = kernel(
            &mut dag,
            "K1",
            vec![ArgAccess::write(X), ArgAccess::read(Y)],
        );
        assert!(d1.is_empty());
        let (k2, d2) = kernel(
            &mut dag,
            "K2",
            vec![ArgAccess::read(X), ArgAccess::write(Z)],
        );
        assert_eq!(d2, vec![k1]);
        // The read-only use does NOT consume X from K1's set.
        assert!(dag.dep_set(k1).contains(&X));
        let _ = k2;
    }

    /// Paper Fig. 3 case B: a third kernel *writing* X depends on the
    /// reader K2 (WAR), not on both K1 and K2.
    #[test]
    fn fig3_case_b_write_after_read_depends_on_reader_only() {
        let mut dag = ComputationDag::new();
        let (k1, _) = kernel(
            &mut dag,
            "K1",
            vec![ArgAccess::write(X), ArgAccess::read(Y)],
        );
        let (k2, _) = kernel(
            &mut dag,
            "K2",
            vec![ArgAccess::read(X), ArgAccess::write(Z)],
        );
        let (_k3, d3) = kernel(
            &mut dag,
            "K3",
            vec![ArgAccess::write(X), ArgAccess::write(W)],
        );
        assert_eq!(d3, vec![k2], "K3 must depend on the reader K2 only");
        // The write consumed X everywhere.
        assert!(!dag.dep_set(k1).contains(&X));
        assert!(!dag.dep_set(k2).contains(&X));
    }

    /// Paper Fig. 3 case C: a third kernel *reading* X depends on the
    /// writer K1 (not the reader K2), and K1's set is untouched.
    #[test]
    fn fig3_case_c_second_reader_depends_on_writer() {
        let mut dag = ComputationDag::new();
        let (k1, _) = kernel(
            &mut dag,
            "K1",
            vec![ArgAccess::write(X), ArgAccess::read(Y)],
        );
        let (_k2, _) = kernel(
            &mut dag,
            "K2",
            vec![ArgAccess::read(X), ArgAccess::write(Z)],
        );
        let (_k3, d3) = kernel(
            &mut dag,
            "K3",
            vec![ArgAccess::read(X), ArgAccess::write(W)],
        );
        assert_eq!(d3, vec![k1], "second reader hangs off the writer");
        assert!(dag.dep_set(k1).contains(&X), "K1's set is not updated");
    }

    /// Paper §IV-A text after Fig. 3: "if a new kernel requires X as
    /// read-only argument, it will depend on K1, otherwise it will depend
    /// on both K2 and K3, and all dependency sets will be updated."
    #[test]
    fn fig3_follow_up_writer_depends_on_both_readers() {
        let mut dag = ComputationDag::new();
        let (k1, _) = kernel(
            &mut dag,
            "K1",
            vec![ArgAccess::write(X), ArgAccess::read(Y)],
        );
        let (k2, _) = kernel(
            &mut dag,
            "K2",
            vec![ArgAccess::read(X), ArgAccess::write(Z)],
        );
        let (k3, _) = kernel(
            &mut dag,
            "K3",
            vec![ArgAccess::read(X), ArgAccess::write(W)],
        );
        let (_k4, d4) = kernel(&mut dag, "K4", vec![ArgAccess::write(X)]);
        assert_eq!(d4, vec![k2, k3]);
        for k in [k1, k2, k3] {
            assert!(!dag.dep_set(k).contains(&X));
        }
    }

    /// Paper Fig. 4: the VEC benchmark walk-through. K1(X), K1(Y) are
    /// independent; K2(const X, const Y, Z) depends on both; the CPU
    /// access to Z depends on K2.
    #[test]
    fn fig4_vec_walkthrough() {
        let mut dag = ComputationDag::new();
        let (k1x, d1) = kernel(&mut dag, "K1(X)", vec![ArgAccess::write(X)]);
        let (k1y, d2) = kernel(&mut dag, "K1(Y)", vec![ArgAccess::write(Y)]);
        assert!(
            d1.is_empty() && d2.is_empty(),
            "the two squares are independent"
        );
        let (k2, d3) = kernel(
            &mut dag,
            "K2",
            vec![ArgAccess::read(X), ArgAccess::read(Y), ArgAccess::write(Z)],
        );
        assert_eq!(d3, vec![k1x, k1y]);
        // CPU reads Z[0]: must be modeled and depend on K2.
        let (v, deps) = dag.add_array_access("Z[0]", Z, false);
        assert!(v.is_some());
        assert_eq!(deps, vec![k2]);
    }

    /// Paper Fig. 2: the ML pipeline has two independent branches joined
    /// by the ensemble kernel.
    #[test]
    fn fig2_ml_pipeline_branches() {
        let mut dag = ComputationDag::new();
        let r1 = Value(10);
        let r2 = Value(11);
        // FC(X→Y), then NB(Y→R1) and NO(Y→Z) read Y concurrently,
        // RI(Z→R2), EN(R1,R2→R).
        let (fc, _) = kernel(
            &mut dag,
            "FC",
            vec![ArgAccess::read(X), ArgAccess::write(Y)],
        );
        let (nb, dnb) = kernel(
            &mut dag,
            "NB",
            vec![ArgAccess::read(Y), ArgAccess::write(r1)],
        );
        let (no, dno) = kernel(
            &mut dag,
            "NO",
            vec![ArgAccess::read(Y), ArgAccess::write(Z)],
        );
        assert_eq!(dnb, vec![fc]);
        assert_eq!(
            dno,
            vec![fc],
            "NO depends on FC, not on NB — branches are parallel"
        );
        let (ri, dri) = kernel(
            &mut dag,
            "RI",
            vec![ArgAccess::read(Z), ArgAccess::write(r2)],
        );
        assert_eq!(dri, vec![no]);
        let (_en, den) = kernel(
            &mut dag,
            "EN",
            vec![
                ArgAccess::read(r1),
                ArgAccess::read(r2),
                ArgAccess::write(R),
            ],
        );
        assert_eq!(den, vec![nb, ri]);
    }

    #[test]
    fn consecutive_cpu_accesses_are_free_when_gpu_idle() {
        let mut dag = ComputationDag::new();
        // No GPU computation yet: access is immediate, unmodeled.
        let (v, deps) = dag.add_array_access("X[0]", X, true);
        assert!(v.is_none() && deps.is_empty());
        assert!(dag.is_empty());
    }

    #[test]
    fn cpu_read_does_not_conflict_with_prior_cpu_reads() {
        let mut dag = ComputationDag::new();
        let (_k, _) = kernel(&mut dag, "K", vec![ArgAccess::write(X)]);
        let (a1, _) = dag.add_array_access("X[0]", X, false);
        assert!(a1.is_some());
        // Retire the chain: the CPU has synced with the kernel.
        dag.retire(a1.unwrap());
        // A second read no longer conflicts.
        let (a2, deps) = dag.add_array_access("X[1]", X, false);
        assert!(
            a2.is_none(),
            "consecutive accesses are executed immediately: {deps:?}"
        );
    }

    #[test]
    fn retire_is_transitive_to_ancestors() {
        let mut dag = ComputationDag::new();
        let (k1, _) = kernel(&mut dag, "K1", vec![ArgAccess::write(X)]);
        let (k2, _) = kernel(
            &mut dag,
            "K2",
            vec![ArgAccess::read(X), ArgAccess::write(Y)],
        );
        let (k3, _) = kernel(
            &mut dag,
            "K3",
            vec![ArgAccess::read(Y), ArgAccess::write(Z)],
        );
        dag.retire(k3);
        assert!(!dag.vertex(k1).active);
        assert!(!dag.vertex(k2).active);
        assert!(!dag.vertex(k3).active);
        // New reader of X needs no dependency: everything retired.
        let (_k4, d4) = kernel(
            &mut dag,
            "K4",
            vec![ArgAccess::read(X), ArgAccess::write(W)],
        );
        assert!(d4.is_empty());
    }

    #[test]
    fn exhausted_vertices_leave_the_frontier() {
        let mut dag = ComputationDag::new();
        let (k1, _) = kernel(&mut dag, "K1", vec![ArgAccess::write(X)]);
        assert_eq!(dag.frontier(), vec![k1]);
        let (k2, _) = kernel(
            &mut dag,
            "K2",
            vec![ArgAccess::write(X), ArgAccess::write(Y)],
        );
        // K1's only dep-set entry was consumed by the writer K2.
        assert!(dag.vertex(k1).dep_set.is_empty());
        assert_eq!(dag.frontier(), vec![k2]);
    }

    #[test]
    fn edges_are_labeled_with_the_causing_value() {
        let mut dag = ComputationDag::new();
        let (k1, _) = kernel(&mut dag, "K1", vec![ArgAccess::write(X)]);
        let (k2, _) = kernel(
            &mut dag,
            "K2",
            vec![ArgAccess::read(X), ArgAccess::write(Y)],
        );
        let e = dag.edges();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].from, k1);
        assert_eq!(e[0].to, k2);
        assert_eq!(e[0].value, X);
        assert!(e[0].read_only);
    }

    #[test]
    fn same_value_written_twice_by_same_kernel_is_single_dep() {
        let mut dag = ComputationDag::new();
        let (k1, _) = kernel(&mut dag, "K1", vec![ArgAccess::write(X)]);
        let (_k2, d2) = kernel(
            &mut dag,
            "K2",
            vec![ArgAccess::write(X), ArgAccess::read(X)],
        );
        assert_eq!(d2, vec![k1]);
    }

    #[test]
    fn compact_drops_retired_and_keeps_live_ids_stable() {
        let mut dag = ComputationDag::new();
        let (k1, _) = kernel(&mut dag, "K1", vec![ArgAccess::write(X)]);
        let (k2, _) = kernel(
            &mut dag,
            "K2",
            vec![ArgAccess::read(X), ArgAccess::write(Y)],
        );
        // Retire the chain through k2, then start fresh live work.
        let retired = dag.retire(k2);
        assert_eq!(retired.len(), 2, "retire reports the transitive set");
        let (k3, _) = kernel(&mut dag, "K3", vec![ArgAccess::write(Z)]);
        assert_eq!(dag.stored_len(), 3);
        assert_eq!(dag.compact(), 2);
        assert_eq!(dag.stored_len(), 1);
        assert_eq!(dag.live_len(), 1);
        assert_eq!(dag.len(), 3, "lifetime count survives compaction");
        // Live id is stable; compacted ids are gone.
        assert_eq!(dag.vertex(k3).id, k3);
        assert!(dag.try_vertex(k1).is_none());
        assert!(dag.try_vertex(k2).is_none());
        // New ids keep increasing past compacted ones.
        let (k4, _) = kernel(&mut dag, "K4", vec![ArgAccess::write(W)]);
        assert!(k4 > k3);
    }

    #[test]
    fn compact_prunes_edges_and_value_states() {
        let mut dag = ComputationDag::new();
        let (_k1, _) = kernel(&mut dag, "K1", vec![ArgAccess::write(X)]);
        let (k2, _) = kernel(
            &mut dag,
            "K2",
            vec![ArgAccess::read(X), ArgAccess::write(Y)],
        );
        assert_eq!(dag.edges().len(), 1);
        assert_eq!(dag.value_states_len(), 2);
        dag.retire(k2);
        dag.compact();
        assert!(dag.edges().is_empty(), "edges die with their vertices");
        assert_eq!(
            dag.value_states_len(),
            0,
            "fully-retired values release their ordering state"
        );
        // Post-compaction accesses behave exactly as post-retire ones.
        let (a, deps) = dag.add_array_access("X[0]", X, true);
        assert!(a.is_none() && deps.is_empty());
    }

    #[test]
    fn dependencies_are_identical_with_and_without_compaction() {
        // Replay the same op sequence on two DAGs, compacting one after
        // every retire: the inferred dependency lists must never differ.
        let ops: Vec<(bool, u64)> = (0..60u64).map(|i| (i % 3 != 1, i % 4)).collect();
        let mut plain = ComputationDag::new();
        let mut compacted = ComputationDag::new();
        for (round, chunk) in ops.chunks(6).enumerate() {
            let mut last = None;
            for (write, v) in chunk {
                let arg = if *write {
                    ArgAccess::write(Value(*v))
                } else {
                    ArgAccess::read(Value(*v))
                };
                let (i1, d1) = plain.add_computation(ElementKind::Kernel, "op", vec![arg]);
                let (i2, d2) = compacted.add_computation(ElementKind::Kernel, "op", vec![arg]);
                assert_eq!(i1, i2, "ids never reused, so they stay aligned");
                assert_eq!(d1, d2, "round {round}: deps diverged");
                last = Some(i1);
            }
            let last = last.unwrap();
            plain.retire(last);
            compacted.retire(last);
            compacted.compact();
        }
        assert_eq!(plain.len(), compacted.len());
        assert!(compacted.stored_len() <= plain.stored_len());
    }

    #[test]
    fn storage_stays_bounded_across_retire_compact_cycles() {
        let mut dag = ComputationDag::new();
        for _ in 0..200 {
            for _ in 0..8 {
                let _ = kernel(&mut dag, "k", vec![ArgAccess::write(X), ArgAccess::read(Y)]);
            }
            dag.retire_all();
            dag.compact();
            assert_eq!(dag.stored_len(), 0);
            assert_eq!(dag.live_len(), 0);
            assert!(dag.edges().is_empty());
            assert_eq!(dag.value_states_len(), 0);
        }
        assert_eq!(dag.len(), 1600, "lifetime count keeps growing");
    }

    #[test]
    fn maybe_compact_waits_for_enough_garbage() {
        let mut dag = ComputationDag::new();
        let (k, _) = kernel(&mut dag, "K", vec![ArgAccess::write(X)]);
        dag.retire(k);
        assert_eq!(dag.maybe_compact(), 0, "too little garbage to bother");
        for _ in 0..80 {
            let (k, _) = kernel(&mut dag, "K", vec![ArgAccess::write(X)]);
            dag.retire(k);
        }
        assert!(dag.maybe_compact() > 0, "mostly-dead storage compacts");
        assert_eq!(dag.stored_len(), 0);
    }

    #[test]
    fn lookups_find_every_stored_vertex_across_compaction_gaps() {
        // Twelve independent vertices; retiring a scattered third of
        // them and compacting leaves gaps in the stored id sequence.
        let mut dag = ComputationDag::new();
        let ids: Vec<VertexId> = (0..12)
            .map(|i| kernel(&mut dag, "k", vec![ArgAccess::write(Value(i))]).0)
            .collect();
        let gone = [0usize, 3, 4, 9];
        for &i in &gone {
            dag.retire(ids[i]);
        }
        dag.compact();
        let (newest, _) = kernel(&mut dag, "k", vec![ArgAccess::write(Value(99))]);
        for (i, &id) in ids.iter().enumerate() {
            let found = dag.try_vertex(id).map(|v| v.id);
            let want = (!gone.contains(&i)).then_some(id);
            assert_eq!(found, want, "vertex {i}");
        }
        assert_eq!(dag.vertex(newest).id, newest);
        // Ids never allocated answer politely too.
        assert!(dag.try_vertex(VertexId(newest.0 + 1)).is_none());
        assert!(dag.try_vertex(VertexId(u32::MAX)).is_none());
        assert!(ComputationDag::new().try_vertex(VertexId(0)).is_none());
    }
}
