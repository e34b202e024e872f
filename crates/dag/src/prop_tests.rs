//! Exhaustive checks of the DAG's bookkeeping: each property holds on
//! every input up to a stated bound, each input enumerated once, in
//! canonical order, so a check's verdict depends only on its bound.
//! Dependency sets shrink, the frontier holds only live vertices,
//! recycling is invisible and the dense window matches its model. That
//! the inferred dependencies compute the sequential answer is checked on
//! every small program by `grcuda`'s small-scope checker.

use crate::graph::ComputationDag;
use crate::vertex::{ArgAccess, ElementKind, Value, VertexId};

/// Every sequence of 1 to `len` symbols drawn from `0..n`: shorter ones
/// first, each length in lexicographic order.
fn sequences(n: usize, len: u32) -> impl Iterator<Item = Vec<usize>> {
    (1..=len).flat_map(move |l| {
        (0..n.pow(l)).map(move |code| (0..l).rev().map(|p| code / n.pow(p) % n).collect())
    })
}

/// Launch `o` of the `3^values - 1` over `values` values: base-3 digit
/// `v` of `o + 1` gives value `v` no access, a read or a write.
fn launch(o: usize, values: u32) -> Vec<ArgAccess> {
    (0..values)
        .filter_map(|v| match (o + 1) / 3usize.pow(v) % 3 {
            1 => Some(ArgAccess::read(Value(v.into()))),
            2 => Some(ArgAccess::write(Value(v.into()))),
            _ => None,
        })
        .collect()
}

/// Whether values are numbered in order of first use, which leaves out
/// most renamings of a program already enumerated.
fn first_use(values: impl IntoIterator<Item = Value>) -> bool {
    let mut next = 0;
    values.into_iter().all(|v| {
        next += u64::from(v.0 == next);
        v.0 < next
    })
}

/// Every program of 1 to `len` launches over at most `values` values,
/// numbered in order of first use.
fn programs(len: u32, values: u32) -> impl Iterator<Item = Vec<Vec<ArgAccess>>> {
    sequences(3usize.pow(values) - 1, len)
        .map(move |p| p.iter().map(|&o| launch(o, values)).collect::<Vec<_>>())
        .filter(|p| first_use(p.iter().flatten().map(|a| a.value)))
}

/// Dependency sets only ever shrink, and a read-only launch shrinks
/// none: every program of at most three launches over three values.
#[test]
fn dep_sets_shrink_monotonically() {
    let mut checked = 0;
    let mut deps = Vec::new();
    for program in programs(3, 3) {
        let mut dag = ComputationDag::new();
        let mut sizes: Vec<(VertexId, usize)> = Vec::new();
        for args in &program {
            let read_only = args.iter().all(|a| a.read_only);
            let id = dag.register(ElementKind::Kernel, "op", args, &mut deps);
            for (earlier, size) in &mut sizes {
                let now = dag.dep_set(*earlier).len();
                assert!(now <= *size, "dependency set grew: {program:?}");
                assert!(
                    !read_only || now == *size,
                    "read-only launch consumed: {program:?}"
                );
                *size = now;
            }
            sizes.push((id, dag.dep_set(id).len()));
        }
        checked += 1;
    }
    assert_eq!(checked, 9_494);
}

/// The frontier only holds active vertices with a non-empty dependency
/// set, a full retire empties it, and after one nothing produces a
/// dependency: every program of at most three launches over three
/// values.
#[test]
fn frontier_invariants() {
    let mut checked = 0;
    let mut deps = Vec::new();
    for program in programs(3, 3) {
        let mut dag = ComputationDag::new();
        for args in &program {
            dag.register(ElementKind::Kernel, "op", args, &mut deps);
            for id in dag.frontier() {
                let v = dag.vertex(id);
                assert!(v.active && !v.dep_set.is_empty(), "{program:?}");
            }
        }
        dag.retire_all();
        assert!(dag.frontier().is_empty(), "{program:?}");
        let probe: Vec<ArgAccess> = (0..3).map(|v| ArgAccess::write(Value(v))).collect();
        dag.register(ElementKind::Kernel, "probe", &probe, &mut deps);
        assert!(deps.is_empty(), "{program:?}");
        checked += 1;
    }
    assert_eq!(checked, 9_494);
}

// ---------------------------------------------------------------------
// Recycling is invisible.
//
// `compact` keeps retired vertices and dropped reader lists and hands
// their buffers to later registrations. Differential check: the same
// program drives a DAG that compacts (and so recycles) whenever the
// program says, and one that never compacts before the end, so all of
// its vertices were built fresh. Every step must return the same ids
// and dependencies, and what is stored must match field for field.
// ---------------------------------------------------------------------

/// One step of a program over the DAG's whole mutating surface.
#[derive(Debug, Clone)]
enum Step {
    /// Register a computation. The `n`-th step of a program takes its
    /// label, kind, device and entry point (borrowed or owned) from `n`,
    /// so consecutive registrations differ in each.
    Add(Vec<ArgAccess>),
    /// A CPU access (modeled only when it conflicts).
    Access {
        value: u64,
        write: bool,
    },
    /// Retire the oldest or the newest stored vertex and its ancestors.
    Retire {
        newest: bool,
    },
    RetireAll,
    Compact,
}

/// Several names, so a recycled vertex that kept its old name would
/// show.
const LABELS: [&str; 3] = ["k", "scale", "a-rather-long-kernel-name"];

/// A DAG that compacts when told to, and one that never does.
#[derive(Clone)]
struct Pair {
    recycling: ComputationDag,
    fresh: ComputationDag,
}

impl Pair {
    /// Apply step `n` to both sides and check that they agree.
    fn apply(&mut self, n: usize, step: &Step) {
        let Pair { recycling, fresh } = self;
        match step {
            Step::Add(args) => {
                let kind = [ElementKind::Kernel, ElementKind::Library][n % 2];
                let label = LABELS[n % LABELS.len()];
                let (want, want_deps) = fresh.add_computation(kind, label, args.clone());
                let (got, deps) = if (n / 2).is_multiple_of(2) {
                    let mut deps = Vec::new();
                    (recycling.register(kind, label, args, &mut deps), deps)
                } else {
                    recycling.add_computation(kind, label, args.clone())
                };
                assert_eq!((got, &deps), (want, &want_deps));
                if let Some(d) = (n % 3).checked_sub(1) {
                    recycling.set_device(got, d as u32);
                    fresh.set_device(want, d as u32);
                }
            }
            &Step::Access { value, write } => {
                let got = recycling.add_array_access("cpu", Value(value), write);
                assert_eq!(got, fresh.add_array_access("cpu", Value(value), write));
            }
            &Step::Retire { newest } => {
                let stored = recycling.vertices();
                let pick = if newest {
                    stored.last()
                } else {
                    stored.first()
                };
                if let Some(id) = pick.map(|v| v.id) {
                    assert_eq!(recycling.retire(id), fresh.retire(id));
                }
            }
            Step::RetireAll => {
                recycling.retire_all();
                fresh.retire_all();
            }
            Step::Compact => {
                recycling.compact();
            }
        }
        // Whatever the recycling side still stores reads exactly like
        // the never-recycled vertex of the same id.
        for v in recycling.vertices() {
            assert_eq!(format!("{v:?}"), format!("{:?}", fresh.vertex(v.id)));
            assert_eq!(recycling.dep_set(v.id), fresh.dep_set(v.id));
        }
        assert_eq!(recycling.frontier(), fresh.frontier());
        assert_eq!(recycling.len(), fresh.len());
    }

    /// Compacted once, the fresh DAG stores what the recycling one does,
    /// and both go on inferring the same dependencies.
    fn finish(mut self) {
        let Pair { recycling, fresh } = &mut self;
        recycling.compact();
        fresh.compact();
        assert_eq!(
            format!("{:?}", recycling.vertices()),
            format!("{:?}", fresh.vertices())
        );
        assert_eq!(recycling.edges(), fresh.edges());
        assert_eq!(recycling.value_states_len(), fresh.value_states_len());
        assert_eq!(
            crate::dot::to_dot(recycling, "g", &[]),
            crate::dot::to_dot(fresh, "g", &[])
        );
        let probe: Vec<ArgAccess> = (0..6).map(|v| ArgAccess::write(Value(v))).collect();
        assert_eq!(
            recycling.add_computation(ElementKind::Kernel, "probe", probe.clone()),
            fresh.add_computation(ElementKind::Kernel, "probe", probe)
        );
    }
}

/// The fixed start of every enumerated program. Compaction in the
/// runtime waits for more than 32 retired vertices, so the prefix
/// registers 33 launches that read and write values 2 to 5 (each label,
/// kind and device), retires them all and lets `maybe_compact` reclaim
/// them; the free list then holds 33 used vertices. One more launch,
/// retired, is left stored, so an enumerated `Compact` has garbage to
/// reclaim from its first step.
fn prefixed() -> Pair {
    let mut pair = Pair {
        recycling: ComputationDag::new(),
        fresh: ComputationDag::new(),
    };
    for n in 0..34u64 {
        let args = vec![
            ArgAccess::read(Value(2 + n % 4)),
            ArgAccess::write(Value(2 + (n + 1) % 4)),
        ];
        pair.apply(n as usize, &Step::Add(args));
        if n == 32 {
            pair.apply(0, &Step::RetireAll);
            assert_eq!(pair.recycling.maybe_compact(), 33);
        }
    }
    pair.apply(0, &Step::Retire { newest: true });
    pair
}

/// Every program of at most three steps over values 0 and 1, numbered
/// in order of first use, after the fixed prefix.
#[test]
fn a_recycling_dag_is_indistinguishable_from_a_fresh_one() {
    let mut alphabet: Vec<Step> = (0..8).map(|o| Step::Add(launch(o, 2))).collect();
    for value in 0..2 {
        alphabet.extend([false, true].map(|write| Step::Access { value, write }));
    }
    alphabet.extend([false, true].map(|newest| Step::Retire { newest }));
    alphabet.extend([Step::RetireAll, Step::Compact]);
    let start = prefixed();
    let mut checked = 0;
    for program in sequences(alphabet.len(), 3) {
        let values = program.iter().flat_map(|&s| match &alphabet[s] {
            Step::Add(args) => args.iter().map(|a| a.value).collect(),
            &Step::Access { value, .. } => vec![Value(value)],
            _ => Vec::new(),
        });
        if !first_use(values) {
            continue;
        }
        let mut pair = start.clone();
        for (n, &s) in program.iter().enumerate() {
            pair.apply(n, &alphabet[s]);
        }
        pair.finish();
        checked += 1;
    }
    assert_eq!(checked, 2_940);
}

// ---------------------------------------------------------------------
// DenseMap/DenseSet window edges under a drain-style workload.
//
// The serving layer retires requests out of arrival order (fairness
// policies reorder admissions), so the arena maps see exactly the
// patterns that stress the sliding window: removal at the window base
// followed by compaction, queries below the new base, and re-insertion
// into freed interior slots. Model-checked against std BTreeMap/HashSet.
// ---------------------------------------------------------------------

use crate::dense::{DenseMap, DenseSet};
use std::collections::{BTreeMap, HashSet};

/// One step of the window workload.
#[derive(Debug, Clone, Copy)]
enum WinOp {
    /// Insert key `k` (possibly re-inserting a freed slot or extending
    /// the window at either end).
    Insert(u32),
    /// Remove key `k` (hit or miss; removing the minimum compacts).
    Remove(u32),
    /// Remove the smallest live key, then probe it again — it now sits
    /// at (or below) the compacted `base`.
    RemoveHead,
    /// Probe a key strictly below the window base.
    GetBelowBase,
    /// Re-insert the most recently removed key into its freed slot.
    ReinsertFreed,
    /// Reset the window anchor entirely.
    Clear,
}

/// DenseMap and DenseSet agree with BTreeMap/HashSet semantics, iterate
/// in ascending key order, and keep their window exactly as wide as the
/// live key span: every workload of at most five steps over keys 0 to 2.
#[test]
fn dense_window_matches_model_on_drain_patterns() {
    let mut alphabet: Vec<WinOp> = (0..3)
        .flat_map(|k| [WinOp::Insert(k), WinOp::Remove(k)])
        .collect();
    alphabet.extend([
        WinOp::RemoveHead,
        WinOp::GetBelowBase,
        WinOp::ReinsertFreed,
        WinOp::Clear,
    ]);
    let mut checked = 0;
    for ops in sequences(alphabet.len(), 5) {
        let mut map: DenseMap<u32, u64> = DenseMap::new();
        let mut set: DenseSet<u32> = DenseSet::new();
        let mut model: BTreeMap<u32, u64> = BTreeMap::new();
        let mut model_set: HashSet<u32> = HashSet::new();
        let mut last_removed: Option<u32> = None;
        for (stamp, &o) in (1u64..).zip(&ops) {
            let op = alphabet[o];
            match op {
                WinOp::Insert(k) => {
                    assert_eq!(map.insert(k, stamp), model.insert(k, stamp));
                    assert_eq!(set.insert(k), model_set.insert(k));
                }
                WinOp::Remove(k) => {
                    assert_eq!(map.remove(k), model.remove(&k));
                    assert_eq!(set.remove(k), model_set.remove(&k));
                    last_removed = Some(k);
                }
                WinOp::RemoveHead => {
                    if let Some((&k, _)) = model.iter().next() {
                        // The head key is exactly `base` after the
                        // previous compaction.
                        assert!(map.contains_key(k));
                        assert_eq!(map.remove(k), model.remove(&k));
                        set.remove(k);
                        model_set.remove(&k);
                        // Compaction moved base past k: the slot is gone,
                        // not merely vacant.
                        assert_eq!(map.get(k), None);
                        assert!(!set.contains(k));
                        last_removed = Some(k);
                    }
                }
                WinOp::GetBelowBase => {
                    if let Some((&min, _)) = model.iter().next() {
                        if min > 0 {
                            assert_eq!(map.get(min - 1), None);
                            assert_eq!(map.remove(min - 1), None);
                            assert!(!set.contains(min - 1));
                        }
                    } else {
                        assert_eq!(map.get(0), None);
                    }
                }
                WinOp::ReinsertFreed => {
                    if let Some(k) = last_removed.take() {
                        assert_eq!(map.insert(k, stamp), model.insert(k, stamp));
                        assert_eq!(set.insert(k), model_set.insert(k));
                        assert_eq!(map.get(k), Some(&stamp));
                    }
                }
                WinOp::Clear => {
                    map.clear();
                    set.clear();
                    model.clear();
                    model_set.clear();
                    // A cleared window re-anchors: a low key after high
                    // keys must not allocate a giant window.
                    assert_eq!(map.window(), 0);
                }
            }
            // Global invariants after every step.
            assert_eq!(map.len(), model.len());
            assert_eq!(set.len(), model_set.len());
            let got: Vec<(u32, u64)> = map.iter().map(|(k, v)| (k, *v)).collect();
            let want: Vec<(u32, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            assert_eq!(got, want, "map iteration diverged after {op:?} in {ops:?}");
            // Equal sizes (above) and every model member present: equal sets.
            assert!(
                model_set.iter().all(|&k| set.contains(k)),
                "set membership diverged after {op:?} in {ops:?}"
            );
            // The trimmed window is exactly the live key span.
            let span = match (model.keys().next(), model.keys().next_back()) {
                (Some(&lo), Some(&hi)) => (hi - lo + 1) as usize,
                _ => 0,
            };
            assert_eq!(map.window(), span, "{ops:?}");
        }
        checked += 1;
    }
    assert_eq!(checked, 111_110);
}
