//! Seeded generators for the O(1)-kernel programs.
//!
//! Operation counts are fixed by the constants here, never by the seed:
//! the seed decides *which* kernels read *which* arrays in *what*
//! order, so every seed costs the same number of launches, reads and
//! writes, and simulated metrics differ between seeds only through
//! scheduling decisions.

use benchmarks::{PlanArg, PlanOp};
use gpu_sim::{Grid, TypedData};
use kernels::KernelDef;

use crate::okernels::{JOIN2, TOUCH};
use crate::plan::{Plan, Read, Submit, Unit, Write};
use crate::rng::Rng;

/// Distinct templates per program. A service has a bounded set of
/// request shapes; this is also what lets the CUDA Graphs baseline
/// instantiate each shape once and replay it.
const TEMPLATES: usize = 64;

/// Largest value the kernels produce, exclusive (see `okernels`).
const VALUE_RANGE: usize = 8191;

fn call(
    def: &'static KernelDef,
    arrays: &[usize],
    len: usize,
    stream: usize,
    deps: Vec<usize>,
) -> PlanOp {
    let mut args: Vec<PlanArg> = arrays.iter().map(|a| PlanArg::Arr(*a)).collect();
    args.push(PlanArg::Scalar(len as f64));
    PlanOp {
        def,
        grid: Grid::d1((len as u32).div_ceil(256), 256),
        args,
        stream,
        deps,
    }
}

fn arrays(rng: &mut Rng, count: usize, len: usize) -> Vec<TypedData> {
    (0..count)
        .map(|_| {
            let mut v = vec![0.0f32; len];
            v.iter_mut()
                .for_each(|x| *x = rng.below(VALUE_RANGE) as f32);
            TypedData::F32(v)
        })
        .collect()
}

/// Array length for a program: `base` plus a seeded sixteenth at most.
/// Kernel and transfer durations follow the length, so no simulated
/// time reads exactly the same for two seeds, while the work stays the
/// same to a few percent.
fn array_len(seed: u64, base: usize) -> usize {
    base + Rng::new(seed, 5).below(base / 16)
}

fn fresh_input(rng: &mut Rng, array: usize) -> Write {
    Write {
        array,
        patch0: Some(rng.below(VALUE_RANGE) as f32),
    }
}

// ---------------------------------------------------------------------
// Single-GPU chains: pipeline_batch and interactive_sync
// ---------------------------------------------------------------------

/// Independent slots per group; each owns [`SLOT_ARRAYS`] arrays.
pub const SLOTS: usize = 8;
/// Arrays per slot: the host-written input and two working buffers.
pub const SLOT_ARRAYS: usize = 3;
/// Elements per array, before the seed's share (see [`array_len`]).
const CHAIN_LEN: usize = 4096;
/// Chain lengths of one group, shuffled over the slots: every group is
/// exactly 48 launches whatever the seed.
const CHAIN_LENGTHS: [usize; SLOTS] = [4, 5, 6, 7, 8, 4, 6, 8];

/// Launches of one group.
pub const GROUP_LAUNCHES: usize = 48;

/// Append a dependent chain of `n` kernels over `len`-element arrays on
/// `slot` to `ops`; returns the array holding the chain's result.
fn chain(rng: &mut Rng, slot: usize, n: usize, len: usize, ops: &mut Vec<PlanOp>) -> usize {
    let base = slot * SLOT_ARRAYS;
    let (input, work) = (base, [base + 1, base + 2]);
    let mut cur = input;
    let mut prev: Option<usize> = None;
    for _ in 0..n {
        let out = if cur == input {
            work[rng.below(2)]
        } else if cur == work[0] {
            work[1]
        } else {
            work[0]
        };
        let deps = prev.into_iter().collect();
        let op = if rng.below(2) == 0 {
            call(&TOUCH, &[cur, out], len, slot, deps)
        } else {
            // Second operand: the slot's input, or the current value
            // again when the chain still sits on the input.
            let other = if cur == input { cur } else { input };
            call(&JOIN2, &[cur, other, out], len, slot, deps)
        };
        prev = Some(ops.len());
        ops.push(op);
        cur = out;
    }
    cur
}

/// [`TEMPLATES`] group shapes — one chain per slot, slot-major, chain
/// lengths a shuffle of `lengths` — and per shape the array holding
/// each slot's result.
fn group_templates(
    rng: &mut Rng,
    lengths: [usize; SLOTS],
    len: usize,
) -> (Vec<Vec<PlanOp>>, Vec<Vec<usize>>) {
    (0..TEMPLATES)
        .map(|_| {
            let mut lengths = lengths;
            rng.shuffle(&mut lengths);
            let mut ops = Vec::new();
            let outs = (0..SLOTS)
                .map(|slot| chain(rng, slot, lengths[slot], len, &mut ops))
                .collect();
            (ops, outs)
        })
        .unzip()
}

/// `pipeline_batch`: `groups` groups of [`SLOTS`] independent chains,
/// one batch per group, then one rotating output read and input write,
/// and a full sync once at least `sync_every` launches are pending.
pub fn pipeline(seed: u64, groups: usize, sync_every: usize) -> Plan {
    let len = array_len(seed, CHAIN_LEN);
    let (templates, results) = group_templates(&mut Rng::new(seed, 1), CHAIN_LENGTHS, len);
    let mut rng = Rng::new(seed, 2);
    let mut pending = 0;
    let units = (0..groups)
        .map(|g| {
            let template = rng.below(TEMPLATES);
            let slot = g % SLOTS;
            pending += GROUP_LAUNCHES;
            let sync_after = pending >= sync_every || g + 1 == groups;
            if sync_after {
                pending = 0;
            }
            Unit {
                template,
                post_reads: vec![Read {
                    array: results[template][slot],
                    count: 1,
                }],
                post_writes: vec![fresh_input(&mut rng, slot * SLOT_ARRAYS)],
                sync_after,
                ..Unit::default()
            }
        })
        .collect();
    Plan {
        arrays: arrays(&mut Rng::new(seed, 3), SLOTS * SLOT_ARRAYS, len),
        templates,
        units,
        submit: Submit::Batch,
    }
}

/// `interactive_sync`: the same chains, one request per chain — write
/// the chain's input, launch its kernels one call at a time, read its
/// output. No batching and no full sync until the program ends.
pub fn interactive(seed: u64, groups: usize) -> Plan {
    let len = array_len(seed, CHAIN_LEN);
    let mut rng = Rng::new(seed, 1);
    let mut templates = Vec::with_capacity(TEMPLATES * SLOTS);
    let mut results = Vec::with_capacity(TEMPLATES * SLOTS);
    for _ in 0..TEMPLATES {
        let mut lengths = CHAIN_LENGTHS;
        rng.shuffle(&mut lengths);
        for (slot, n) in lengths.into_iter().enumerate() {
            let mut ops = Vec::with_capacity(n);
            results.push(chain(&mut rng, slot, n, len, &mut ops));
            templates.push(ops);
        }
    }
    let mut rng = Rng::new(seed, 2);
    let mut units = Vec::with_capacity(groups * SLOTS);
    for _ in 0..groups {
        let group = rng.below(TEMPLATES);
        for slot in 0..SLOTS {
            let template = group * SLOTS + slot;
            units.push(Unit {
                pre_writes: vec![fresh_input(&mut rng, slot * SLOT_ARRAYS)],
                template,
                post_reads: vec![Read {
                    array: results[template],
                    count: 1,
                }],
                ..Unit::default()
            });
        }
    }
    if let Some(last) = units.last_mut() {
        last.sync_after = true;
    }
    Plan {
        arrays: arrays(&mut Rng::new(seed, 3), SLOTS * SLOT_ARRAYS, len),
        templates,
        units,
        submit: Submit::Serial,
    }
}

// ---------------------------------------------------------------------
// Tenants: serve_tenants
// ---------------------------------------------------------------------

/// Kernel calls per request.
pub const REQUEST_CALLS: usize = 3;
/// Elements per tenant array, before the seed's share.
const TENANT_LEN: usize = 256;

/// Longest think time before a round of tenant requests, simulated
/// seconds.
const MAX_THINK_S: f64 = 64e-6;

/// `serve_tenants`: `rounds` rounds in which each of [`SLOTS`] tenants
/// submits one request — a chain of [`REQUEST_CALLS`] kernels over its
/// own three arrays — and then reads its result. Tenants arrive spread
/// over a seeded think time, not in lockstep. As a plan, a round is
/// one unit: the tenants' chains tenant-major (ops
/// `3t..3t+3` are tenant `t`'s request), then the eight reads. The
/// serve workload turns each unit into eight `RequestSpec`s; executed
/// as a plan it is the same launches without the serve layer.
pub fn tenants(seed: u64, rounds: usize) -> Plan {
    let len = array_len(seed, TENANT_LEN);
    let (templates, results) = group_templates(&mut Rng::new(seed, 1), [REQUEST_CALLS; SLOTS], len);
    let mut rng = Rng::new(seed, 2);
    let units = (0..rounds)
        .map(|r| {
            let template = rng.below(TEMPLATES);
            Unit {
                think_s: MAX_THINK_S * rng.below(1 << 20) as f64 / (1 << 20) as f64,
                template,
                post_reads: results[template]
                    .iter()
                    .map(|&array| Read { array, count: 1 })
                    .collect(),
                sync_after: r + 1 == rounds,
                ..Unit::default()
            }
        })
        .collect();
    Plan {
        arrays: arrays(&mut Rng::new(seed, 3), SLOTS * SLOT_ARRAYS, len),
        templates,
        units,
        submit: Submit::Batch,
    }
}

// ---------------------------------------------------------------------
// Multi-GPU fork/join sweeps: placement_cluster
// ---------------------------------------------------------------------

/// Fork/join groups per sweep.
pub const FJ_GROUPS: usize = 16;
/// Arrays per group: source, two fork arms, join, cross-group join.
const FJ_ARRAYS: usize = 5;
/// Launches per group and sweep.
const FJ_LAUNCHES: usize = 5;
/// Arrays the kernels write: every group's five.
pub const FJ_HOT_ARRAYS: usize = FJ_GROUPS * FJ_ARRAYS;
/// Read-only arrays (weights, tables) the groups draw on; a sweep reads
/// [`FJ_GROUPS`] of them, a different subset per sweep shape.
pub const FJ_COLD_ARRAYS: usize = 32;
/// Elements per array, before the seed's share.
const FJ_LEN: usize = 16_384;
/// Launches of one sweep.
pub const SWEEP_LAUNCHES: usize = FJ_GROUPS * FJ_LAUNCHES;
/// Sweep shapes per program.
const SWEEP_TEMPLATES: usize = 8;

/// `placement_cluster`: `sweeps` sweeps of [`FJ_GROUPS`] fork/join
/// groups. Each group forks its source into two arms (one of them
/// folding in a read-only array), joins them, joins the result with
/// another group's join from the same sweep (cross-group traffic the
/// partitioner has to cut somewhere) and folds that back into its
/// source for the next sweep. One batch per sweep, one fresh host input
/// per sweep, one read and a full sync every `sync_every` sweeps.
pub fn fork_join(seed: u64, sweeps: usize, sync_every: usize) -> Plan {
    let len = array_len(seed, FJ_LEN);
    let mut rng = Rng::new(seed, 1);
    let templates = (0..SWEEP_TEMPLATES)
        .map(|_| {
            let mut ops = Vec::with_capacity(SWEEP_LAUNCHES);
            let mut cold: Vec<usize> = (FJ_HOT_ARRAYS..FJ_HOT_ARRAYS + FJ_COLD_ARRAYS).collect();
            rng.shuffle(&mut cold);
            // Forks and joins of every group first, so the cross-group
            // joins below can read any group's join array.
            let mut join_op = [0usize; FJ_GROUPS];
            for g in 0..FJ_GROUPS {
                let [src, a, b, j, _] = fj_arrays(g);
                let first = ops.len();
                ops.push(call(&TOUCH, &[src, a], len, g, vec![]));
                ops.push(call(&JOIN2, &[src, cold[g], b], len, g, vec![]));
                ops.push(call(&JOIN2, &[a, b, j], len, g, vec![first, first + 1]));
                join_op[g] = first + 2;
            }
            for g in 0..FJ_GROUPS {
                let [src, _, _, j, x] = fj_arrays(g);
                let partner = (g + 1 + rng.below(FJ_GROUPS - 1)) % FJ_GROUPS;
                let pj = fj_arrays(partner)[3];
                let cross = ops.len();
                ops.push(call(
                    &JOIN2,
                    &[j, pj, x],
                    len,
                    g,
                    vec![join_op[g], join_op[partner]],
                ));
                // Writing the source waits for both fork arms (WAR).
                let forks = join_op[g] - 2;
                ops.push(call(
                    &TOUCH,
                    &[x, src],
                    len,
                    g,
                    vec![cross, forks, forks + 1],
                ));
            }
            ops
        })
        .collect();
    let mut rng = Rng::new(seed, 2);
    let units = (0..sweeps)
        .map(|s| {
            let sync_after = (s + 1) % sync_every == 0 || s + 1 == sweeps;
            let group = rng.below(FJ_GROUPS);
            Unit {
                pre_writes: vec![fresh_input(&mut rng, fj_arrays(group)[0])],
                template: rng.below(SWEEP_TEMPLATES),
                post_reads: if sync_after {
                    vec![Read {
                        array: fj_arrays(rng.below(FJ_GROUPS))[4],
                        count: 1,
                    }]
                } else {
                    Vec::new()
                },
                sync_after,
                ..Unit::default()
            }
        })
        .collect();
    Plan {
        arrays: arrays(&mut Rng::new(seed, 3), FJ_HOT_ARRAYS + FJ_COLD_ARRAYS, len),
        templates,
        units,
        submit: Submit::Batch,
    }
}

fn fj_arrays(group: usize) -> [usize; FJ_ARRAYS] {
    let base = group * FJ_ARRAYS;
    [base, base + 1, base + 2, base + 3, base + 4]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operation_counts_do_not_depend_on_the_seed() {
        for seed in [0, 1, 99] {
            let p = pipeline(seed, 20, 256);
            assert_eq!(p.launches(), 20 * GROUP_LAUNCHES);
            assert_eq!(p.host_ops(), 40);
            assert_eq!(p.units.iter().filter(|u| u.sync_after).count(), 4);
            let i = interactive(seed, 20);
            assert_eq!(i.launches(), 20 * GROUP_LAUNCHES);
            assert_eq!(i.units.len(), 20 * SLOTS);
            assert_eq!(i.host_ops(), 2 * 20 * SLOTS);
            let t = tenants(seed, 20);
            assert_eq!(t.launches(), 20 * SLOTS * REQUEST_CALLS);
            assert_eq!(t.host_ops(), 20 * SLOTS);
            let f = fork_join(seed, 12, 4);
            assert_eq!(f.launches(), 12 * SWEEP_LAUNCHES);
            assert_eq!(f.host_ops(), 12 + 3);
        }
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        assert_eq!(
            pipeline(5, 50, 256).stream_hash(),
            pipeline(5, 50, 256).stream_hash()
        );
        assert_ne!(
            pipeline(5, 50, 256).stream_hash(),
            pipeline(6, 50, 256).stream_hash()
        );
        assert_eq!(
            interactive(5, 50).stream_hash(),
            interactive(5, 50).stream_hash()
        );
        assert_ne!(
            interactive(5, 50).stream_hash(),
            interactive(6, 50).stream_hash()
        );
        assert_eq!(tenants(5, 50).stream_hash(), tenants(5, 50).stream_hash());
        assert_ne!(tenants(5, 50).stream_hash(), tenants(6, 50).stream_hash());
        assert_eq!(
            fork_join(5, 8, 4).stream_hash(),
            fork_join(5, 8, 4).stream_hash()
        );
        assert_ne!(
            fork_join(5, 8, 4).stream_hash(),
            fork_join(6, 8, 4).stream_hash()
        );
    }

    #[test]
    fn kernels_never_alias_input_and_output() {
        for plan in [
            pipeline(3, 4, 256),
            interactive(3, 4),
            tenants(3, 4),
            fork_join(3, 4, 4),
        ] {
            for t in &plan.templates {
                for op in t {
                    let arrs: Vec<usize> = op
                        .args
                        .iter()
                        .filter_map(|a| match a {
                            PlanArg::Arr(i) => Some(*i),
                            PlanArg::Scalar(_) => None,
                        })
                        .collect();
                    let (out, ins) = arrs.split_last().unwrap();
                    assert!(!ins.contains(out), "{} aliases its output", op.def.name);
                    assert!(op.deps.iter().all(|d| *d < t.len()));
                }
            }
        }
    }

    #[test]
    fn declared_dependencies_are_what_the_dag_infers() {
        // The hand-written `deps` feed the CUDA Graphs baseline; they
        // must be exactly the edges dependency inference finds.
        use dag::{ComputationDag, ElementKind};
        for plan in [
            pipeline(11, 1, 256),
            interactive(11, 1),
            tenants(11, 1),
            fork_join(11, 1, 4),
        ] {
            for t in &plan.templates {
                let mut dag = ComputationDag::new();
                for op in t {
                    let accesses = crate::replay::op_accesses(op);
                    let (_, deps) = dag.add_computation(ElementKind::Kernel, op.def.name, accesses);
                    let mut inferred: Vec<usize> = deps.iter().map(|d| d.0 as usize).collect();
                    let mut declared = op.deps.clone();
                    inferred.sort_unstable();
                    declared.sort_unstable();
                    declared.dedup();
                    assert_eq!(inferred, declared, "{}", op.def.name);
                }
            }
        }
    }
}
