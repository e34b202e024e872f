//! Property-based tests of the dependency-inference algebra.
//!
//! The central claim of the paper's scheduler is: *any execution order
//! consistent with the inferred dependencies is observationally equivalent
//! to sequential execution*. We check it on randomly generated programs
//! with an abstract machine whose writes mix the identities of everything
//! the computation read — so any missed RAW, WAR, or WAW edge changes the
//! final state with overwhelming probability.

use proptest::prelude::*;
use std::collections::HashMap;

use crate::graph::ComputationDag;
use crate::vertex::{ArgAccess, ElementKind, Value, VertexId};

/// One randomly generated computation: which values it touches and how.
#[derive(Debug, Clone)]
struct Op {
    args: Vec<ArgAccess>,
}

fn op_strategy(num_values: u64) -> impl Strategy<Value = Op> {
    proptest::collection::vec((0..num_values, proptest::bool::ANY), 1..4).prop_map(|pairs| {
        let mut args: Vec<ArgAccess> = Vec::new();
        for (v, ro) in pairs {
            let value = Value(v);
            // Keep one access per value: a write subsumes a read.
            if let Some(a) = args.iter_mut().find(|a| a.value == value) {
                a.read_only &= ro;
            } else {
                args.push(ArgAccess {
                    value,
                    read_only: ro,
                });
            }
        }
        Op { args }
    })
}

/// Deterministic mixing function for the abstract machine.
fn mix(a: u64, b: u64) -> u64 {
    // splitmix64-style avalanche over the pair.
    let mut x = a.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(b);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Execute `ops[i]` against the abstract state: every written value
/// receives a digest of the op id and of all argument values read.
fn exec(i: usize, op: &Op, state: &mut HashMap<Value, u64>) {
    let mut digest = i as u64 + 1;
    for a in &op.args {
        digest = mix(digest, *state.get(&a.value).unwrap_or(&0));
    }
    for a in &op.args {
        if !a.read_only {
            state.insert(a.value, digest);
        }
    }
}

/// Build the DAG for `ops` and return each op's dependency list.
fn infer_deps(ops: &[Op]) -> Vec<Vec<VertexId>> {
    let mut dag = ComputationDag::new();
    ops.iter()
        .map(|op| {
            dag.add_computation(ElementKind::Kernel, "op", op.args.clone())
                .1
        })
        .collect()
}

/// Run ops in an arbitrary topological order of the inferred DAG,
/// greedily preferring the *highest* ready id — maximally different from
/// submission order, so ordering bugs surface.
fn exec_reverse_greedy(ops: &[Op], deps: &[Vec<VertexId>]) -> HashMap<Value, u64> {
    let n = ops.len();
    let mut remaining: Vec<usize> = deps.iter().map(|d| d.len()).collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ds) in deps.iter().enumerate() {
        for d in ds {
            children[d.0 as usize].push(i);
        }
    }
    let mut done = vec![false; n];
    let mut state = HashMap::new();
    for _ in 0..n {
        let next = (0..n)
            .rev()
            .find(|&i| !done[i] && remaining[i] == 0)
            .expect("inferred DAG must always have a ready vertex (acyclic)");
        exec(next, &ops[next], &mut state);
        done[next] = true;
        for &c in &children[next] {
            remaining[c] -= 1;
        }
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any dependency-respecting order is equivalent to program order.
    #[test]
    fn scheduler_preserves_sequential_semantics(
        ops in proptest::collection::vec(op_strategy(5), 1..24)
    ) {
        let deps = infer_deps(&ops);
        let mut seq_state = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            exec(i, op, &mut seq_state);
        }
        let dag_state = exec_reverse_greedy(&ops, &deps);
        prop_assert_eq!(seq_state, dag_state);
    }

    /// Dependencies always point to earlier computations: the DAG is
    /// acyclic by construction.
    #[test]
    fn dependencies_point_backwards(
        ops in proptest::collection::vec(op_strategy(4), 1..32)
    ) {
        let deps = infer_deps(&ops);
        for (i, ds) in deps.iter().enumerate() {
            for d in ds {
                prop_assert!((d.0 as usize) < i);
            }
            // And are duplicate-free.
            let mut sorted = ds.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), ds.len());
        }
    }

    /// Dependency sets only ever shrink, and read-only children never
    /// shrink their parent's set.
    #[test]
    fn dep_sets_shrink_monotonically(
        ops in proptest::collection::vec(op_strategy(4), 2..24)
    ) {
        let mut dag = ComputationDag::new();
        let mut ids = Vec::new();
        let mut prev_sizes: Vec<usize> = Vec::new();
        for op in &ops {
            let all_read_only = op.args.iter().all(|a| a.read_only);
            let before: Vec<usize> =
                ids.iter().map(|&id| dag.dep_set(id).len()).collect();
            let (id, _) = dag.add_computation(ElementKind::Kernel, "op", op.args.clone());
            let after: Vec<usize> =
                ids.iter().map(|&id| dag.dep_set(id).len()).collect();
            for (b, a) in before.iter().zip(&after) {
                prop_assert!(a <= b, "dependency set grew");
                if all_read_only {
                    prop_assert_eq!(a, b, "read-only op consumed a parent set entry");
                }
            }
            ids.push(id);
            prev_sizes = after;
        }
        let _ = prev_sizes;
    }

    /// The frontier only contains active, non-exhausted vertices, and a
    /// full retire empties it.
    #[test]
    fn frontier_invariants(
        ops in proptest::collection::vec(op_strategy(4), 1..24)
    ) {
        let mut dag = ComputationDag::new();
        for op in &ops {
            let _ = dag.add_computation(ElementKind::Kernel, "op", op.args.clone());
            for id in dag.frontier() {
                let v = dag.vertex(id);
                prop_assert!(v.active && !v.dep_set.is_empty());
            }
        }
        dag.retire_all();
        prop_assert!(dag.frontier().is_empty());
        // After a full retire nothing produces dependencies.
        let (_, deps) = dag.add_computation(
            ElementKind::Kernel,
            "probe",
            vec![ArgAccess::write(Value(0)), ArgAccess::write(Value(1))],
        );
        prop_assert!(deps.is_empty());
    }

    /// Two consecutive read-only users of the same value are never made
    /// dependent on each other (the concurrency the paper's Fig. 3 is
    /// designed to expose).
    #[test]
    fn readers_are_mutually_independent(n_readers in 2usize..8) {
        let mut dag = ComputationDag::new();
        let (w, _) = dag.add_computation(
            ElementKind::Kernel, "W", vec![ArgAccess::write(Value(0))]);
        let mut reader_ids = Vec::new();
        for i in 0..n_readers {
            let out = Value(100 + i as u64);
            let (id, deps) = dag.add_computation(
                ElementKind::Kernel,
                "R",
                vec![ArgAccess::read(Value(0)), ArgAccess::write(out)],
            );
            prop_assert_eq!(deps, vec![w], "every reader depends on the writer only");
            reader_ids.push(id);
        }
    }
}

// ---------------------------------------------------------------------
// Recycling is invisible.
//
// `compact` keeps retired vertices and dropped reader lists and hands
// their buffers to later registrations. Differential check: the same
// random program drives a DAG that compacts (and so recycles) whenever
// the program says, and one that never compacts before the end, so all
// of its vertices were built fresh. Every step must return the same
// ids and dependencies, and what is stored must match field for field.
// ---------------------------------------------------------------------

/// One step of a program over the DAG's whole mutating surface.
#[derive(Debug, Clone)]
enum Step {
    /// Register a computation; the recycling side uses the borrowed
    /// entry when `borrowed`, the owned wrapper otherwise.
    Add {
        op: Op,
        label: usize,
        library: bool,
        borrowed: bool,
        device: Option<u32>,
    },
    /// A CPU access (modeled only when it conflicts).
    Access {
        value: u64,
        write: bool,
    },
    /// Retire the `nth` stored vertex (modulo the stored count) and its
    /// ancestors.
    Retire(usize),
    RetireAll,
    Compact,
}

/// Several names, so a recycled vertex that kept its old name would
/// show.
const LABELS: [&str; 3] = ["k", "scale", "a-rather-long-kernel-name"];

fn step_strategy() -> impl Strategy<Value = Step> {
    let add = || {
        let parts = (
            op_strategy(5),
            0..LABELS.len(),
            proptest::bool::ANY,
            proptest::bool::ANY,
            0..3u32,
        );
        parts.prop_map(|(op, label, library, borrowed, device)| Step::Add {
            op,
            label,
            library,
            borrowed,
            device: device.checked_sub(1),
        })
    };
    prop_oneof![
        add(),
        add(), // registrations outnumber everything else
        add(),
        (0..5u64, proptest::bool::ANY).prop_map(|(value, write)| Step::Access { value, write }),
        (0..16usize).prop_map(Step::Retire),
        Just(Step::RetireAll),
        Just(Step::Compact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn a_recycling_dag_is_indistinguishable_from_a_fresh_one(
        steps in proptest::collection::vec(step_strategy(), 1..80)
    ) {
        let mut recycling = ComputationDag::new();
        let mut fresh = ComputationDag::new();
        let mut deps = Vec::new();
        for step in &steps {
            match step {
                Step::Add { op, label, library, borrowed, device } => {
                    let kind = if *library { ElementKind::Library } else { ElementKind::Kernel };
                    let label = LABELS[*label];
                    let (want, want_deps) = fresh.add_computation(kind, label, op.args.clone());
                    let got = if *borrowed {
                        recycling.register(kind, label, &op.args, &mut deps)
                    } else {
                        let (id, owned) = recycling.add_computation(kind, label, op.args.clone());
                        deps = owned;
                        id
                    };
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(&deps, &want_deps);
                    if let Some(d) = device {
                        recycling.set_device(got, *d);
                        fresh.set_device(want, *d);
                    }
                }
                Step::Access { value, write } => {
                    let got = recycling.add_array_access("cpu", Value(*value), *write);
                    let want = fresh.add_array_access("cpu", Value(*value), *write);
                    prop_assert_eq!(got, want);
                }
                Step::Retire(nth) => {
                    if recycling.stored_len() > 0 {
                        let id = recycling.vertices()[nth % recycling.stored_len()].id;
                        prop_assert_eq!(recycling.retire(id), fresh.retire(id));
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
            // Whatever the recycling side still stores reads exactly
            // like the never-recycled vertex of the same id.
            for v in recycling.vertices() {
                prop_assert_eq!(format!("{v:?}"), format!("{:?}", fresh.vertex(v.id)));
                prop_assert_eq!(recycling.dep_set(v.id), fresh.dep_set(v.id));
            }
            prop_assert_eq!(recycling.frontier(), fresh.frontier());
            prop_assert_eq!(recycling.len(), fresh.len());
        }
        // Compacted once, the fresh DAG stores what the recycling one
        // does: same vertices, edges, value states and render.
        recycling.compact();
        fresh.compact();
        prop_assert_eq!(
            format!("{:?}", recycling.vertices()),
            format!("{:?}", fresh.vertices())
        );
        prop_assert_eq!(recycling.edges(), fresh.edges());
        prop_assert_eq!(recycling.value_states_len(), fresh.value_states_len());
        prop_assert_eq!(
            crate::dot::to_dot(&recycling, "g", &[]),
            crate::dot::to_dot(&fresh, "g", &[])
        );
        // And both go on inferring the same dependencies.
        let probe: Vec<ArgAccess> = (0..5).map(|v| ArgAccess::write(Value(v))).collect();
        prop_assert_eq!(
            recycling.add_computation(ElementKind::Kernel, "probe", probe.clone()),
            fresh.add_computation(ElementKind::Kernel, "probe", probe)
        );
    }
}

// ---------------------------------------------------------------------
// DenseMap/DenseSet window edges under a drain-style workload.
//
// The serving layer retires requests out of arrival order (fairness
// policies reorder admissions), so the arena maps see exactly the
// patterns that stress the sliding window: removal at the window base
// followed by compaction, queries below the new base, and re-insertion
// into freed interior slots. Model-checked against std HashMap/HashSet.
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

fn win_op_strategy() -> impl Strategy<Value = WinOp> {
    let key = 0..48u32;
    prop_oneof![
        key.clone().prop_map(WinOp::Insert),
        key.clone().prop_map(WinOp::Insert), // bias toward growth
        key.prop_map(WinOp::Remove),
        Just(WinOp::RemoveHead),
        Just(WinOp::GetBelowBase),
        Just(WinOp::ReinsertFreed),
        Just(WinOp::Clear),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// DenseMap and DenseSet agree with HashMap/HashSet semantics on
    /// random window workloads, iterate in ascending key order, and
    /// keep their window exactly as wide as the live key span.
    #[test]
    fn dense_window_matches_model_on_drain_patterns(
        ops in proptest::collection::vec(win_op_strategy(), 1..60),
    ) {
        let mut map: DenseMap<u32, u64> = DenseMap::new();
        let mut set: DenseSet<u32> = DenseSet::new();
        let mut model: BTreeMap<u32, u64> = BTreeMap::new();
        let mut model_set: HashSet<u32> = HashSet::new();
        let mut last_removed: Option<u32> = None;
        let mut stamp: u64 = 0;

        for op in &ops {
            stamp += 1;
            match *op {
                WinOp::Insert(k) => {
                    prop_assert_eq!(map.insert(k, stamp), model.insert(k, stamp));
                    prop_assert_eq!(set.insert(k), model_set.insert(k));
                }
                WinOp::Remove(k) => {
                    prop_assert_eq!(map.remove(k), model.remove(&k));
                    prop_assert_eq!(set.remove(k), model_set.remove(&k));
                    last_removed = Some(k);
                }
                WinOp::RemoveHead => {
                    if let Some((&k, _)) = model.iter().next() {
                        // The head key is exactly `base` after the
                        // previous compaction.
                        prop_assert!(map.contains_key(k));
                        prop_assert_eq!(map.remove(k), model.remove(&k));
                        set.remove(k);
                        model_set.remove(&k);
                        // Compaction moved base past k: the slot is gone,
                        // not merely vacant.
                        prop_assert_eq!(map.get(k), None);
                        prop_assert!(!set.contains(k));
                        last_removed = Some(k);
                    }
                }
                WinOp::GetBelowBase => {
                    if let Some((&min, _)) = model.iter().next() {
                        if min > 0 {
                            prop_assert_eq!(map.get(min - 1), None);
                            prop_assert_eq!(map.remove(min - 1), None);
                            prop_assert!(!set.contains(min - 1));
                        }
                    } else {
                        prop_assert_eq!(map.get(0), None);
                    }
                }
                WinOp::ReinsertFreed => {
                    if let Some(k) = last_removed.take() {
                        prop_assert_eq!(map.insert(k, stamp), model.insert(k, stamp));
                        prop_assert_eq!(set.insert(k), model_set.insert(k));
                        prop_assert_eq!(map.get(k), Some(&stamp));
                    }
                }
                WinOp::Clear => {
                    map.clear();
                    set.clear();
                    model.clear();
                    model_set.clear();
                    // A cleared window re-anchors: a low key after high
                    // keys must not allocate a giant window.
                    prop_assert_eq!(map.window(), 0);
                }
            }
            // Global invariants after every step.
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(set.len(), model_set.len());
            let got: Vec<(u32, u64)> = map.iter().map(|(k, v)| (k, *v)).collect();
            let want: Vec<(u32, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, want, "map iteration diverged after {:?}", op);
            // Equal sizes (above) and every model member present: equal sets.
            prop_assert!(
                model_set.iter().all(|&k| set.contains(k)),
                "set membership diverged after {:?}",
                op
            );
            // The trimmed window is exactly the live key span.
            match (model.iter().next(), model.iter().next_back()) {
                (Some((&lo, _)), Some((&hi, _))) => {
                    prop_assert_eq!(map.window(), (hi - lo + 1) as usize);
                }
                _ => prop_assert_eq!(map.window(), 0),
            }
        }
    }
}
