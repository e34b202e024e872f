//! Happens-before reachability over the stored DAG.
//!
//! The schedule-sanitizer (see `grcuda::audit`) needs to answer "is
//! vertex `a` ordered before vertex `b` by the inferred edges?" for
//! every conflicting pair. [`Reachability`] materializes the transitive
//! closure of the stored edge set as one bitset row per stored vertex;
//! because vertex ids are monotonic and dependency edges always point
//! backwards (`from.id < to.id`), a single pass over the edges in
//! creation order is enough — every source row is final before any of
//! its outgoing edges is folded in.
//!
//! Row storage is indexed through a [`DenseMap`] keyed by the monotonic
//! vertex id, so the closure does zero hashing, consistent with the rest
//! of the scheduler's arena-map discipline.
//!
//! The same closure answers the *minimality* question: an edge is
//! [`Reachability::redundant_edges`]-redundant when removing just that
//! edge leaves its endpoints ordered anyway — either a parallel edge
//! between the same pair (inference records one edge per conflicting
//! value) or a transitive path covers it. Redundant edges are
//! informational (the covering relation still orders the pair); the DAG
//! can stamp them via [`ComputationDag::mark_redundant_edges`] so
//! [`crate::to_dot`] renders them dashed gray.

use crate::dense::DenseMap;
use crate::graph::ComputationDag;
use crate::vertex::VertexId;

/// Transitive closure ("happens-before") of a DAG's stored edges.
///
/// A snapshot: built from the stored vertex and edge sets at
/// construction time; later mutations of the DAG are not reflected.
#[derive(Debug)]
pub struct Reachability {
    /// Bitset slot of each stored vertex, arena-addressed by id.
    slot: DenseMap<VertexId, u32>,
    /// `n` rows of `words` u64s; bit `j` of row `i` is set iff stored
    /// vertex in slot `j` strictly happens-before the vertex in slot `i`.
    rows: Vec<u64>,
    words: usize,
}

impl Reachability {
    /// Closure over every stored edge.
    pub fn new(dag: &ComputationDag) -> Self {
        Self::with_edges(dag, |_, _| true)
    }

    /// Closure over the subset of stored edges for which `keep` returns
    /// true (called with each edge's index into [`ComputationDag::edges`]
    /// and the edge itself). The sanitizer's tests ask with it what a
    /// schedule that honored fewer edges would order: `|k, _| k != skip`
    /// is "what if inference had not recorded edge `skip`?", and
    /// `|_, _| false` is a program that synchronizes nothing.
    pub fn with_edges(
        dag: &ComputationDag,
        mut keep: impl FnMut(usize, &crate::graph::DepEdge) -> bool,
    ) -> Self {
        let n = dag.stored_len();
        let words = n.div_ceil(64).max(1);
        let mut slot: DenseMap<VertexId, u32> = DenseMap::new();
        for (i, v) in dag.vertices().iter().enumerate() {
            slot.insert(v.id, i as u32);
        }
        let mut rows = vec![0u64; n * words];
        // Edges are recorded while their target is being added, so the
        // vector is sorted by target id: one forward pass sees every
        // source row complete before folding it into a target.
        for (k, e) in dag.edges().iter().enumerate() {
            if !keep(k, e) {
                continue;
            }
            let (Some(&f), Some(&t)) = (slot.get(e.from), slot.get(e.to)) else {
                continue;
            };
            let (f, t) = (f as usize, t as usize);
            debug_assert!(f < t, "dependency edges point backwards");
            let (lo, hi) = rows.split_at_mut(t * words);
            let src = &lo[f * words..(f + 1) * words];
            let dst = &mut hi[..words];
            for (d, s) in dst.iter_mut().zip(src) {
                *d |= *s;
            }
            dst[f / 64] |= 1u64 << (f % 64);
        }
        Reachability { slot, rows, words }
    }

    /// Whether `from` strictly happens-before `to` through the (kept)
    /// edges. False for unknown (compacted) ids and for `from == to`.
    fn reaches(&self, from: VertexId, to: VertexId) -> bool {
        let (Some(&f), Some(&t)) = (self.slot.get(from), self.slot.get(to)) else {
            return false;
        };
        let (f, t) = (f as usize, t as usize);
        self.rows[t * self.words + f / 64] >> (f % 64) & 1 == 1
    }

    /// Whether a pair is ordered (either direction, or the same vertex).
    pub fn ordered(&self, a: VertexId, b: VertexId) -> bool {
        a == b || self.reaches(a, b) || self.reaches(b, a)
    }

    /// For each stored edge, whether it is *individually* redundant:
    /// dropping just that edge leaves `from` still happens-before `to`,
    /// through a parallel edge between the same pair or a transitive
    /// path. (Of two parallel edges each is individually redundant even
    /// though dropping both would break the ordering — the count reads
    /// "edges removable one at a time", not "a maximal removable set".)
    pub fn redundant_edges(&self, dag: &ComputationDag) -> Vec<bool> {
        let edges = dag.edges();
        let mut redundant = vec![false; edges.len()];
        // Edges are sorted by target, so scan each target's incoming
        // range once: edge k (u→v) is covered by a sibling edge j (w→v)
        // when u == w (parallel) or u happens-before w. A path u⟶w never
        // runs through v (w precedes v), so the full closure is safe to
        // consult even though it includes edge k itself.
        let mut lo = 0;
        while lo < edges.len() {
            let hi = (lo..edges.len())
                .take_while(|&i| edges[i].to == edges[lo].to)
                .count()
                + lo;
            for k in lo..hi {
                redundant[k] = (lo..hi).any(|j| {
                    j != k
                        && (edges[j].from == edges[k].from
                            || self.reaches(edges[k].from, edges[j].from))
                });
            }
            lo = hi;
        }
        redundant
    }
}

impl ComputationDag {
    /// Compute the happens-before closure and stamp every stored edge's
    /// [`crate::DepEdge::redundant`] flag (see
    /// [`Reachability::redundant_edges`]). Returns the number of
    /// redundant edges. Informational: the flag only affects rendering
    /// and the sanitizer's minimality counter, never scheduling.
    pub fn mark_redundant_edges(&mut self) -> usize {
        let reach = Reachability::new(self);
        let flags = reach.redundant_edges(self);
        let mut count = 0;
        for (e, r) in self.edges_mut().iter_mut().zip(&flags) {
            e.redundant = *r;
            count += *r as usize;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex::{ArgAccess, ElementKind, Value};

    const X: Value = Value(0);
    const Y: Value = Value(1);
    const Z: Value = Value(2);

    fn kernel(dag: &mut ComputationDag, label: &'static str, args: Vec<ArgAccess>) -> VertexId {
        dag.add_computation(ElementKind::Kernel, label, args).0
    }

    /// K1 → K2 → K3 chain: closure is transitive, never reflexive.
    #[test]
    fn chain_is_transitively_reachable() {
        let mut dag = ComputationDag::new();
        let k1 = kernel(&mut dag, "K1", vec![ArgAccess::write(X)]);
        let k2 = kernel(
            &mut dag,
            "K2",
            vec![ArgAccess::read(X), ArgAccess::write(Y)],
        );
        let k3 = kernel(
            &mut dag,
            "K3",
            vec![ArgAccess::read(Y), ArgAccess::write(Z)],
        );
        let r = Reachability::new(&dag);
        assert!(r.reaches(k1, k2) && r.reaches(k2, k3) && r.reaches(k1, k3));
        assert!(!r.reaches(k3, k1) && !r.reaches(k2, k1));
        assert!(!r.reaches(k1, k1), "strict: a vertex never reaches itself");
        assert!(r.ordered(k1, k1) && r.ordered(k3, k1));
    }

    /// Fig. 4 diamond: the two squares are unordered, everything else is.
    #[test]
    fn diamond_branches_are_unordered() {
        let mut dag = ComputationDag::new();
        let k1x = kernel(&mut dag, "K1(X)", vec![ArgAccess::write(X)]);
        let k1y = kernel(&mut dag, "K1(Y)", vec![ArgAccess::write(Y)]);
        let k2 = kernel(
            &mut dag,
            "K2",
            vec![ArgAccess::read(X), ArgAccess::read(Y), ArgAccess::write(Z)],
        );
        let r = Reachability::new(&dag);
        assert!(!r.ordered(k1x, k1y), "independent branches stay unordered");
        assert!(r.ordered(k1x, k2) && r.ordered(k1y, k2));
    }

    /// Removing the only edge that orders a pair breaks the ordering;
    /// removing a transitively-covered edge does not.
    #[test]
    fn without_edge_breaks_exactly_that_ordering() {
        let mut dag = ComputationDag::new();
        let k1 = kernel(&mut dag, "K1", vec![ArgAccess::write(X)]);
        let k2 = kernel(
            &mut dag,
            "K2",
            vec![ArgAccess::read(X), ArgAccess::write(Y)],
        );
        let k3 = kernel(
            &mut dag,
            "K3",
            vec![ArgAccess::read(Y), ArgAccess::write(Z)],
        );
        assert_eq!(dag.edges().len(), 2);
        let r0 = Reachability::with_edges(&dag, |k, _| k != 0);
        assert!(!r0.ordered(k1, k2) && !r0.ordered(k1, k3));
        assert!(r0.ordered(k2, k3));
        let r1 = Reachability::with_edges(&dag, |k, _| k != 1);
        assert!(r1.ordered(k1, k2) && !r1.ordered(k2, k3));
    }

    /// A transitive edge K1→K3 next to K1→K2→K3 is redundant; the chain
    /// edges are not.
    #[test]
    fn transitive_edge_is_redundant() {
        let mut dag = ComputationDag::new();
        // K1 writes X and Y; K2 reads X, writes Z; K3 reads Y and Z.
        // Inference emits K1→K2 (X), K1→K3 (Y) and K2→K3 (Z); the direct
        // K1→K3 edge is covered by the K1→K2→K3 path.
        let _k1 = kernel(
            &mut dag,
            "K1",
            vec![ArgAccess::write(X), ArgAccess::write(Y)],
        );
        let _k2 = kernel(
            &mut dag,
            "K2",
            vec![ArgAccess::read(X), ArgAccess::write(Z)],
        );
        let _k3 = kernel(&mut dag, "K3", vec![ArgAccess::read(Y), ArgAccess::read(Z)]);
        assert_eq!(dag.mark_redundant_edges(), 1);
        let redundant: Vec<_> = dag.edges().iter().filter(|e| e.redundant).collect();
        assert_eq!(redundant.len(), 1);
        assert_eq!(redundant[0].value, Y, "the direct K1→K3 edge is covered");
    }

    /// Two parallel edges (same pair, different values) are each
    /// individually redundant.
    #[test]
    fn parallel_edges_are_each_redundant() {
        let mut dag = ComputationDag::new();
        let _k1 = kernel(
            &mut dag,
            "K1",
            vec![ArgAccess::write(X), ArgAccess::write(Y)],
        );
        let _k2 = kernel(&mut dag, "K2", vec![ArgAccess::read(X), ArgAccess::read(Y)]);
        assert_eq!(dag.edges().len(), 2);
        assert_eq!(dag.mark_redundant_edges(), 2);
    }

    /// A pure chain has no redundancy at all.
    #[test]
    fn chain_has_no_redundant_edges() {
        let mut dag = ComputationDag::new();
        for _ in 0..10 {
            kernel(&mut dag, "K", vec![ArgAccess::write(X)]);
        }
        assert_eq!(dag.edges().len(), 9);
        assert_eq!(dag.mark_redundant_edges(), 0);
    }

    /// The closure tolerates compaction: dropped ids are simply unknown.
    #[test]
    fn compacted_ids_are_unreachable() {
        let mut dag = ComputationDag::new();
        let k1 = kernel(&mut dag, "K1", vec![ArgAccess::write(X)]);
        let k2 = kernel(
            &mut dag,
            "K2",
            vec![ArgAccess::read(X), ArgAccess::write(Y)],
        );
        dag.retire(k2);
        dag.compact();
        let k3 = kernel(&mut dag, "K3", vec![ArgAccess::write(Z)]);
        let r = Reachability::new(&dag);
        assert!(!r.reaches(k1, k3) && !r.ordered(k1, k2));
        assert!(r.ordered(k3, k3));
    }

    /// Redundancy agrees with the definition: dropping a redundant edge
    /// keeps its pair ordered, dropping a non-redundant one breaks it.
    #[test]
    fn redundancy_matches_without_edge_semantics() {
        let mut dag = ComputationDag::new();
        // A small mixed workload with reads, writes and a join.
        for i in 0..24u64 {
            let v = Value(i % 4);
            let w = Value((i + 1) % 4);
            let args = if i % 3 == 0 {
                vec![ArgAccess::write(v), ArgAccess::read(w)]
            } else {
                vec![ArgAccess::read(v), ArgAccess::write(w)]
            };
            kernel(&mut dag, "K", args);
        }
        let full = Reachability::new(&dag);
        let flags = full.redundant_edges(&dag);
        for (k, e) in dag.edges().iter().enumerate() {
            let without = Reachability::with_edges(&dag, |j, _| j != k);
            assert_eq!(
                without.ordered(e.from, e.to),
                flags[k],
                "edge {k} ({:?}→{:?}): redundancy flag disagrees with removal",
                e.from,
                e.to
            );
        }
    }
}
