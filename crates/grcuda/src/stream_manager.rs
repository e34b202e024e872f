//! The CUDA stream manager (§IV-C).
//!
//! "In our scheduler, the allocation and management of streams are
//! performed transparently by a stream manager. [...] Existing streams
//! are managed in FIFO order, and new streams are created only if no
//! currently empty stream is available to schedule a given computation.
//! If a computation has multiple children, the first child is scheduled
//! on the parent's stream to minimize synchronization events, while
//! following children are scheduled on other streams."

use cuda_sim::{Cuda, StreamId};
use dag::{DenseMap, DenseSet, VertexId};

use crate::options::{DepStreamPolicy, StreamReusePolicy};

/// Stream allocation and reuse: per-device stream pools, first-child
/// claim bookkeeping, stream creation, and the §IV-C rules that choose
/// between them, parameterized by the two [`crate::Options`] axes
/// ([`DepStreamPolicy`] × [`StreamReusePolicy`]).
pub struct StreamManager {
    dep_policy: DepStreamPolicy,
    reuse_policy: StreamReusePolicy,
    /// Streams this manager has created, per device, in creation (FIFO)
    /// order. Streams never move between devices.
    pools: Vec<Vec<StreamId>>,
    /// Parents whose stream has already been claimed by a child. Entries
    /// are dropped when the parent retires ([`StreamManager::forget`] /
    /// [`StreamManager::forget_all`]), so the set tracks the live
    /// frontier, not every launch ever made — which is exactly the
    /// sliding id window the hash-free [`DenseSet`] is built for.
    claimed: DenseSet<VertexId>,
    /// How many streams were created in total (stat for the tests and
    /// the Fig. 6 stream-count checks).
    created: usize,
}

impl StreamManager {
    /// A manager applying the paper's §IV-C policy pair, with empty pools.
    pub fn new(dep_policy: DepStreamPolicy, reuse_policy: StreamReusePolicy) -> Self {
        StreamManager {
            dep_policy,
            reuse_policy,
            pools: Vec::new(),
            claimed: DenseSet::new(),
            created: 0,
        }
    }

    /// Total streams created so far (all devices).
    pub(crate) fn streams_created(&self) -> usize {
        self.created
    }

    /// Outstanding first-child claims (a memory gauge: bounded by the
    /// live frontier once retirement forgets claims).
    pub(crate) fn claims(&self) -> usize {
        self.claimed.len()
    }

    /// Pick the stream for a new computation on `device`.
    ///
    /// * `deps` — the computation's parents *on the same device*, in
    ///   discovery order (cross-device parents synchronize through
    ///   events, never through stream inheritance);
    /// * `stream_of` — what each parent ran on: its stream, or a record
    ///   that names it (the runtime passes its per-vertex launch
    ///   records);
    /// * `cuda` — used to poll stream emptiness for FIFO reuse and to
    ///   create streams on the device.
    pub fn assign<S: Copy + Into<StreamId>>(
        &mut self,
        _vertex: VertexId,
        device: u32,
        deps: &[VertexId],
        stream_of: &DenseMap<VertexId, S>,
        cuda: &Cuda,
    ) -> StreamId {
        // Rule 1: inherit a parent's stream. "The first child is
        // scheduled on the parent's stream to minimize synchronization
        // events, while following children are scheduled on other
        // streams" — so a claimed parent is passed over, except under
        // the always-parent ablation.
        let inherited = deps.iter().find_map(|&d| {
            let claimable = match self.dep_policy {
                DepStreamPolicy::FirstChildOnParent => !self.claimed.contains(d),
                DepStreamPolicy::AlwaysParent => true,
                DepStreamPolicy::AlwaysNew => false,
            };
            let stream: StreamId = (*stream_of.get(d)?).into();
            claimable.then_some((d, stream))
        });
        if let Some((parent, stream)) = inherited {
            self.claimed.insert(parent);
            return stream;
        }
        while self.pools.len() <= device as usize {
            self.pools.push(Vec::new());
        }
        let pool = &mut self.pools[device as usize];
        // Rule 2: reuse the oldest pooled stream that has drained. The
        // runtime discovers this by polling, exactly like GrCUDA does
        // with cudaEventQuery — which a launch that inherited a stream
        // above never pays for.
        if self.reuse_policy == StreamReusePolicy::FifoReuse {
            if let Some(&s) = pool.iter().find(|&&s| cuda.stream_query(s)) {
                return s;
            }
        }
        // Rule 3: create.
        let s = cuda.stream_create_on(device);
        pool.push(s);
        self.created += 1;
        s
    }

    /// Forget first-child claims for retired vertices (their streams are
    /// candidates for reuse through the emptiness poll anyway; this just
    /// bounds the map).
    pub fn forget(&mut self, vertices: &[VertexId]) {
        for &v in vertices {
            self.claimed.remove(v);
        }
    }

    /// Forget every claim (full-device synchronization retired all
    /// possible parents).
    pub fn forget_all(&mut self) {
        self.claimed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceProfile;

    fn cuda() -> Cuda {
        Cuda::new(DeviceProfile::gtx1660_super())
    }

    /// A context on which none of `pool` exists: polling one of them
    /// there indexes out of bounds, so an `assign` that returns did not
    /// poll.
    fn polling_panics(pool: &[StreamId]) -> Cuda {
        let trap = cuda();
        assert!(pool.iter().all(|s| s.0 as usize >= trap.stats().streams));
        trap
    }

    fn mgr() -> StreamManager {
        StreamManager::new(
            DepStreamPolicy::FirstChildOnParent,
            StreamReusePolicy::FifoReuse,
        )
    }

    fn make_busy(c: &Cuda, s: StreamId) {
        let a = c.alloc_f32(16);
        let k = cuda_sim::KernelExec::new(
            "busy",
            gpu_sim::Grid::d1(1, 32),
            gpu_sim::KernelCost {
                min_time: 1.0,
                ..Default::default()
            },
            vec![a.buf.clone()],
            vec![(a.id, false)],
            std::rc::Rc::new(|_| {}),
        );
        c.launch(s, &k);
    }

    #[test]
    fn first_child_inherits_parent_stream_second_does_not() {
        let c = cuda();
        let mut m = mgr();
        let mut map = DenseMap::new();
        let p = VertexId(0);
        let sp = m.assign(p, 0, &[], &map, &c);
        map.insert(p, sp);
        make_busy(&c, sp); // the parent kernel is running on sp
        let s_child1 = m.assign(VertexId(1), 0, &[p], &map, &c);
        assert_eq!(s_child1, sp, "first child rides the parent's stream");
        let s_child2 = m.assign(VertexId(2), 0, &[p], &map, &c);
        assert_ne!(s_child2, sp, "second child must go elsewhere");
    }

    #[test]
    fn empty_streams_are_reused_in_fifo_order() {
        let c = cuda();
        let mut m = mgr();
        let map: DenseMap<VertexId, StreamId> = DenseMap::new();
        let s1 = m.assign(VertexId(0), 0, &[], &map, &c);
        // Nothing was ever launched on s1 → it is empty → reused.
        let s2 = m.assign(VertexId(1), 0, &[], &map, &c);
        assert_eq!(s1, s2);
        assert_eq!(m.streams_created(), 1);
    }

    #[test]
    fn always_parent_policy_reuses_for_every_child() {
        let c = cuda();
        let mut m = StreamManager::new(DepStreamPolicy::AlwaysParent, StreamReusePolicy::FifoReuse);
        let mut map = DenseMap::new();
        let p = VertexId(0);
        let sp = m.assign(p, 0, &[], &map, &c);
        map.insert(p, sp);
        make_busy(&c, sp);
        assert_eq!(m.assign(VertexId(1), 0, &[p], &map, &c), sp);
        // The parent is claimed and busy; always-parent takes its stream
        // again, without polling the pool.
        let s = m.assign(VertexId(2), 0, &[p], &map, &polling_panics(&[sp]));
        assert_eq!(s, sp);
    }

    #[test]
    fn always_new_reuse_policy_never_reuses() {
        let c = cuda();
        let mut m = StreamManager::new(DepStreamPolicy::AlwaysNew, StreamReusePolicy::AlwaysNew);
        let mut map = DenseMap::new();
        let s1 = m.assign(VertexId(0), 0, &[], &map, &c);
        let s2 = m.assign(VertexId(1), 0, &[], &map, &c);
        assert_ne!(s1, s2);
        assert_eq!(m.streams_created(), 2);
        // A child of an unclaimed parent whose stream has drained gets
        // neither: always-new ignores parents and pool alike.
        map.insert(VertexId(0), s1);
        let s3 = m.assign(VertexId(2), 0, &[VertexId(0)], &map, &c);
        assert!(s3 != s1 && s3 != s2);
        assert_eq!((m.streams_created(), m.claims()), (3, 0));
    }

    #[test]
    fn fifo_reuse_picks_the_oldest_empty_stream() {
        let c = cuda();
        let mut m = mgr();
        let map: DenseMap<VertexId, StreamId> = DenseMap::new();
        // Force three distinct streams into the pool by keeping each busy
        // while the next one is assigned.
        let s1 = m.assign(VertexId(0), 0, &[], &map, &c);
        make_busy(&c, s1);
        let s2 = m.assign(VertexId(1), 0, &[], &map, &c);
        make_busy(&c, s2);
        let s3 = m.assign(VertexId(2), 0, &[], &map, &c);
        make_busy(&c, s3);
        assert_eq!(m.streams_created(), 3);
        // Drain the device: every stream is now empty, so the manager
        // must hand back the *first-created* stream ("existing streams
        // are managed in FIFO order", §IV-C).
        c.device_sync();
        assert_eq!(m.assign(VertexId(3), 0, &[], &map, &c), s1);
        assert_eq!(m.streams_created(), 3, "reuse must not create streams");
        // With s1 busy again, the oldest *drained* stream wins, not the
        // oldest stream.
        make_busy(&c, s1);
        assert_eq!(m.assign(VertexId(4), 0, &[], &map, &c), s2);
        assert_eq!(m.streams_created(), 3);
    }

    #[test]
    fn busy_streams_become_reusable_after_drain() {
        let c = cuda();
        let mut m = mgr();
        let map: DenseMap<VertexId, StreamId> = DenseMap::new();
        let s1 = m.assign(VertexId(0), 0, &[], &map, &c);
        make_busy(&c, s1);
        // While s1 is busy a new stream is created...
        let s2 = m.assign(VertexId(1), 0, &[], &map, &c);
        assert_ne!(s1, s2);
        // ...but once the work completes, s1 is reusable again and no
        // further streams are needed.
        c.device_sync();
        let s3 = m.assign(VertexId(2), 0, &[], &map, &c);
        assert_eq!(s3, s1);
        assert_eq!(m.streams_created(), 2);
    }

    #[test]
    fn child_of_two_parents_claims_first_unclaimed_parent() {
        let c = cuda();
        let mut m = mgr();
        let mut map = DenseMap::new();
        let (pa, pb) = (VertexId(0), VertexId(1));
        let sa = m.assign(pa, 0, &[], &map, &c);
        map.insert(pa, sa);
        make_busy(&c, sa);
        let sb = m.assign(pb, 0, &[], &map, &c);
        map.insert(pb, sb);
        make_busy(&c, sb);
        assert_ne!(sa, sb);
        // First child of A takes A's stream.
        assert_eq!(m.assign(VertexId(2), 0, &[pa], &map, &c), sa);
        // A join of (A, B): A's stream is already claimed, so the join
        // inherits B's stream rather than allocating a new one — and,
        // inheriting, polls no stream.
        let join = m.assign(VertexId(3), 0, &[pa, pb], &map, &polling_panics(&[sa, sb]));
        assert_eq!(join, sb);
        assert_eq!((m.streams_created(), m.claims()), (2, 2));
    }

    #[test]
    fn first_child_rule_tracks_claims_per_parent() {
        let c = cuda();
        let mut m = mgr();
        let mut map = DenseMap::new();
        // Two independent parents on two busy streams.
        let (pa, pb) = (VertexId(0), VertexId(1));
        let sa = m.assign(pa, 0, &[], &map, &c);
        map.insert(pa, sa);
        make_busy(&c, sa);
        let sb = m.assign(pb, 0, &[], &map, &c);
        map.insert(pb, sb);
        make_busy(&c, sb);
        // Each parent's first child inherits that parent's stream —
        // claims are per-parent, not global.
        assert_eq!(m.assign(VertexId(2), 0, &[pa], &map, &c), sa);
        assert_eq!(m.assign(VertexId(3), 0, &[pb], &map, &c), sb);
        // Both streams claimed and busy: a further child of either
        // parent gets a brand-new stream.
        let s_new = m.assign(VertexId(4), 0, &[pa], &map, &c);
        assert_ne!(s_new, sa);
        assert_ne!(s_new, sb);
        assert_eq!(m.streams_created(), 3);
    }

    #[test]
    fn forget_clears_claims() {
        let c = cuda();
        let mut m = mgr();
        let mut map = DenseMap::new();
        let p = VertexId(0);
        let sp = m.assign(p, 0, &[], &map, &c);
        map.insert(p, sp);
        make_busy(&c, sp); // so that reuse cannot hand sp back either
        let _ = m.assign(VertexId(1), 0, &[p], &map, &c); // claims p's stream
        m.forget(&[p]);
        assert_eq!(m.claims(), 0);
        // After forgetting, a new child may claim the parent stream again.
        let s = m.assign(VertexId(2), 0, &[p], &map, &c);
        assert_eq!(s, sp);
    }
}
