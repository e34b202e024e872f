//! The small-scope checker: every program of at most `L` steps over at
//! most `A` arrays, run on every machine that changes the schedule, with
//! every invariant checked on every run.
//!
//! The paper's claim is that host code may be written as if it ran
//! sequentially: whatever schedule the runtime infers computes the
//! sequential answer (§IV). The rules that schedule rests on —
//! read-after-write, write-after-read, write-after-write, `const` and
//! `in` arguments, host accesses and retirement — are local, so a defect
//! in one of them shows on a program of a few steps over two or three
//! arrays. Instead of sampling programs, the checker enumerates them all
//! up to a bound (the small-scope hypothesis) and holds the runtime to
//! the contract "the same answer as the sequential algorithm" on each.
//!
//! * **Programs.** A step is a launch that gives each array one
//!   [`Access`], a host [`Step::Get`] or [`Step::Fill`] of one array, or
//!   a [`Step::Sync`]. Every launch runs one body: each array it writes
//!   becomes a hash of the step index and of every array it reads (an
//!   `inout` array reads itself first). Each program is enumerated once,
//!   as the least of its relabelings, so arrays are numbered in order of
//!   first use.
//! * **Oracle.** [`oracle`] evaluates the same body on plain vectors in
//!   program order, without the runtime.
//! * **Machines.** [`rows`]: every paper device, the pre-Pascal
//!   full-sync path, prefetch off, every stream policy pair, two GPUs
//!   under every placement preset on two interconnects, and a 2 × 2
//!   cluster whose devices hold two arrays under each eviction policy,
//!   with all work on one GPU or spread round-robin; then
//!   [`check_submission`]'s P100 with no host overheads.
//! * **Checks** ([`run`] and [`check_submission`]): host reads and final
//!   arrays equal the oracle bit for bit; `audit()` is clean and flags no
//!   dead write the program does not have; no race; the scheduler drains
//!   after `sync()`; resident bytes stay within capacity after every
//!   step; a repeated run and a batched run repeat the call-by-call
//!   timeline bit for bit; and deleting any one load-bearing edge of the
//!   inferred DAG is a violation naming that edge.

use std::sync::OnceLock;

use dag::Reachability;
use exhaustive::first_use;
use gpu_sim::{
    Cluster, DataBuffer, DeviceProfile, EvictionPolicy, Grid, KernelCost, MemoryConfig, NicKind,
    Topology, TopologyKind,
};
use kernels::KernelDef;

use crate::audit::{audit_under, ScheduleViolation};
use crate::{
    Arg, BatchLaunch, DepStreamPolicy, DeviceArray, GrCuda, Kernel, Options, PlacementPolicy,
    PrefetchPolicy, StreamReusePolicy,
};

/// The most arrays any bound enumerates.
pub(crate) const MAX_ARRAYS: usize = 4;
/// Elements per array: odd, so a kernel that drops the last element
/// shows.
const LEN: usize = 3;
const BYTES: usize = LEN * std::mem::size_of::<i32>();

/// How one launch touches one array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Access {
    Const,
    In,
    Out,
    InOut,
    /// Not an argument. Last in the order, so that the least relabeling
    /// of a program numbers its arrays in order of first use.
    None,
}

impl Access {
    const ALL: [Access; 5] = [
        Access::Const,
        Access::In,
        Access::Out,
        Access::InOut,
        Access::None,
    ];

    fn reads(self) -> bool {
        matches!(self, Access::Const | Access::In | Access::InOut)
    }

    fn writes(self) -> bool {
        matches!(self, Access::Out | Access::InOut)
    }

    /// The NIDL qualifier of an argument (`None` is not one).
    fn qualifier(self) -> &'static str {
        ["const", "in", "out", "inout"][self as usize]
    }
}

/// One program step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Step {
    /// A launch of the one body, with one access per array.
    Launch([Access; MAX_ARRAYS]),
    /// The host reads one element of an array.
    Get(usize),
    /// The host overwrites an array with a constant.
    Fill(usize),
    /// `GrCuda::sync`.
    Sync,
}

impl Step {
    /// The arrays this step touches, in index order.
    fn arrays(&self) -> Vec<usize> {
        match *self {
            Step::Launch(acc) => (0..MAX_ARRAYS)
                .filter(|&a| acc[a] != Access::None)
                .collect(),
            Step::Get(a) | Step::Fill(a) => vec![a],
            Step::Sync => Vec::new(),
        }
    }

    /// The step with array `a` renamed `perm[a]`.
    fn relabel(&self, perm: &[usize]) -> Step {
        match *self {
            Step::Launch(acc) => {
                let mut out = [Access::None; MAX_ARRAYS];
                for (a, &x) in acc.iter().enumerate().take(perm.len()) {
                    out[perm[a]] = x;
                }
                Step::Launch(out)
            }
            Step::Get(a) => Step::Get(perm[a]),
            Step::Fill(a) => Step::Fill(perm[a]),
            Step::Sync => Step::Sync,
        }
    }
}

/// Arrays a program touches (one past the highest index).
fn arrays_of(p: &[Step]) -> usize {
    p.iter().flat_map(Step::arrays).max().map_or(0, |a| a + 1)
}

/// Every launch over `arrays` arrays: each array one access, at least
/// one an argument.
fn launches(arrays: usize) -> Vec<[Access; MAX_ARRAYS]> {
    let mut out = vec![[Access::None; MAX_ARRAYS]];
    for a in 0..arrays {
        out = (out.iter())
            .flat_map(|&v| {
                Access::ALL.map(|x| {
                    let mut v = v;
                    v[a] = x;
                    v
                })
            })
            .collect();
    }
    out.retain(|v| v.iter().any(|&x| x != Access::None));
    out
}

/// Every step over `arrays` arrays.
fn steps_over(arrays: usize) -> Vec<Step> {
    let host = (0..arrays).flat_map(|a| [Step::Get(a), Step::Fill(a)]);
    let launches = launches(arrays).into_iter().map(Step::Launch);
    launches.chain(host).chain([Step::Sync]).collect()
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    (0..n).fold(vec![Vec::new()], |perms, k| {
        (perms.iter())
            .flat_map(|p| (0..=k).map(move |i| [&p[..i], &[k], &p[i..]].concat()))
            .collect()
    })
}

/// Whether `p` is the least of its relabelings: its arrays are then
/// numbered in order of first use.
fn canonical(p: &[Step], perms: &[Vec<usize>]) -> bool {
    (perms.iter()).all(|perm| p.iter().copied().le(p.iter().map(|s| s.relabel(perm))))
}

/// Every program of 1 to `steps` steps over at most `arrays` arrays,
/// each once, in canonical form, sorted. A prefix out of first-use order
/// is not extended: no canonical program has one.
pub(crate) fn programs(steps: usize, arrays: usize) -> Vec<Vec<Step>> {
    fn extend(
        p: &mut Vec<Step>,
        steps: usize,
        alphabet: &[Step],
        perms: &[Vec<usize>],
        out: &mut Vec<Vec<Step>>,
    ) {
        for &s in alphabet {
            p.push(s);
            if first_use(p.iter().flat_map(Step::arrays).map(|a| a as u64)) {
                if canonical(p, perms) {
                    out.push(p.clone());
                }
                if p.len() < steps {
                    extend(p, steps, alphabet, perms, out);
                }
            }
            p.pop();
        }
    }
    let mut out = Vec::new();
    extend(
        &mut Vec::new(),
        steps,
        &steps_over(arrays),
        &permutations(arrays),
        &mut out,
    );
    out.sort();
    out
}

// ---------------------------------------------------------------------
// The one kernel body, and its sequential oracle.
// ---------------------------------------------------------------------

fn mix(a: u64, b: u64) -> u64 {
    let mut x = a.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(b);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The digest a launch at `step` writes: the step and every element it
/// reads, in argument order.
fn digest<'a>(step: usize, reads: impl Iterator<Item = &'a [i32]>) -> u64 {
    reads
        .flatten()
        .fold(step as u64 + 1, |d, &x| mix(d, x as u32 as u64))
}

fn store(d: u64, out: &mut [i32]) {
    for (j, x) in out.iter_mut().enumerate() {
        *x = mix(d, j as u64) as i32;
    }
}

/// What an array holds before the program runs.
fn initial(a: usize) -> Vec<i32> {
    (0..LEN).map(|j| (a * LEN + j) as i32 - 4).collect()
}

/// The value `Fill` at `step` writes.
fn fill_value(step: usize) -> i32 {
    -1 - step as i32
}

/// The arguments of a launch: its accesses, `None` left out.
fn args_of(acc: &[Access; MAX_ARRAYS]) -> Vec<Access> {
    acc.iter().copied().filter(|&x| x != Access::None).collect()
}

/// One kernel per list of argument accesses, built once: its NIDL and
/// `writes` flags come from the list, its scalars are the step index
/// and its own index in this table.
fn kernel_defs() -> &'static [(Vec<Access>, KernelDef)] {
    static DEFS: OnceLock<Vec<(Vec<Access>, KernelDef)>> = OnceLock::new();
    DEFS.get_or_init(|| {
        let mut lists: Vec<Vec<Access>> = launches(MAX_ARRAYS).iter().map(args_of).collect();
        lists.sort();
        lists.dedup();
        let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
        (lists.into_iter())
            .map(|list| {
                let params: Vec<String> = (list.iter())
                    .map(|x| format!("{} pointer sint32", x.qualifier()))
                    .collect();
                let def = KernelDef {
                    name: leak(format!("{list:?}")),
                    nidl: leak(format!("{}, sint32, sint32", params.join(", "))),
                    func: body,
                    cost,
                    writes: Box::leak(list.iter().map(|x| x.writes()).collect()),
                };
                (list, def)
            })
            .collect()
    })
}

/// The index in [`kernel_defs`] of a launch's kernel.
fn def_of(acc: &[Access; MAX_ARRAYS]) -> usize {
    let list = args_of(acc);
    (kernel_defs().binary_search_by(|(l, _)| l.cmp(&list))).unwrap()
}

/// The one launch body (see the module doc).
fn body(bufs: &[DataBuffer], scalars: &[f64]) {
    let (step, def) = (scalars[0] as usize, scalars[1] as usize);
    let list = &kernel_defs()[def].0;
    let d = {
        let reads: Vec<_> = bufs
            .iter()
            .zip(list)
            .filter(|(_, x)| x.reads())
            .map(|(b, _)| b.as_i32())
            .collect();
        digest(step, reads.iter().map(|r| &r[..]))
    };
    for (b, x) in bufs.iter().zip(list) {
        if x.writes() {
            store(d, &mut b.as_i32_mut());
        }
    }
}

fn cost(_: &[DataBuffer], _: &[f64]) -> KernelCost {
    KernelCost {
        min_time: 2e-6,
        ..Default::default()
    }
}

/// The sequential answer: every array after the program, and every
/// host read in program order.
pub(crate) struct Expected {
    arrays: Vec<Vec<i32>>,
    gets: Vec<i32>,
    /// Arrays a launch overwrote through `out` while a launch's earlier
    /// write was still unread: the only arrays a dead-write lint may
    /// name.
    dead: Vec<bool>,
}

pub(crate) fn oracle(p: &[Step]) -> Expected {
    let n = arrays_of(p);
    let mut arrays: Vec<Vec<i32>> = (0..n).map(initial).collect();
    let mut gets = Vec::new();
    let mut dead = vec![false; n];
    let mut unread = vec![false; n];
    for (i, s) in p.iter().enumerate() {
        match *s {
            Step::Launch(acc) => {
                let d = digest(
                    i,
                    (0..n).filter(|&a| acc[a].reads()).map(|a| &arrays[a][..]),
                );
                for a in 0..n {
                    dead[a] |= acc[a] == Access::Out && unread[a];
                    if acc[a].reads() {
                        unread[a] = false;
                    }
                    if acc[a].writes() {
                        store(d, &mut arrays[a]);
                        unread[a] = true;
                    }
                }
            }
            Step::Get(a) => {
                gets.push(arrays[a][i % LEN]);
                unread[a] = false;
            }
            Step::Fill(a) => {
                arrays[a].fill(fill_value(i));
                unread[a] = false;
            }
            Step::Sync => unread.fill(false),
        }
    }
    Expected { arrays, gets, dead }
}

// ---------------------------------------------------------------------
// Machines and runs.
// ---------------------------------------------------------------------

/// One machine the checker runs every program on. A program with a
/// launch of more arrays than the devices hold skips the row.
struct Row {
    name: String,
    dev: DeviceProfile,
    topo: Topology,
    opts: Options,
    policy: PlacementPolicy,
}

impl Row {
    fn machine(&self) -> GrCuda {
        GrCuda::with_topology(self.dev.clone(), self.topo.clone(), self.opts, self.policy)
    }
}

/// Every machine that changes the schedule, but the one of
/// [`check_submission`].
fn rows() -> Vec<Row> {
    let (p100, par) = (DeviceProfile::tesla_p100(), Options::parallel());
    let row = |name: String, dev: &DeviceProfile, topo, opts, policy| Row {
        name,
        dev: dev.clone(),
        topo,
        opts,
        policy,
    };
    let single = PlacementPolicy::SingleGpu;
    let one =
        |name, dev: &DeviceProfile, opts| row(name, dev, Topology::pcie_only(1, dev), opts, single);
    let mut rows: Vec<Row> = (DeviceProfile::paper_devices().iter())
        .map(|d| one(format!("{} parallel", d.name), d, par))
        .collect();
    let (gtx960, full_sync) = (
        DeviceProfile::gtx960(),
        par.with_visibility_restriction(false),
    );
    rows.push(one("GTX 960 full sync".into(), &gtx960, full_sync));
    let no_prefetch = par.with_prefetch(PrefetchPolicy::None);
    rows.push(one("P100 prefetch off".into(), &p100, no_prefetch));
    for dep in [
        DepStreamPolicy::FirstChildOnParent,
        DepStreamPolicy::AlwaysParent,
        DepStreamPolicy::AlwaysNew,
    ] {
        for reuse in [StreamReusePolicy::FifoReuse, StreamReusePolicy::AlwaysNew] {
            let opts = par.with_dep_stream(dep).with_stream_reuse(reuse);
            // The first pair is `Options::parallel()`, the P100 row above.
            if opts != par {
                rows.push(one(format!("P100 {dep:?}/{reuse:?}"), &p100, opts));
            }
        }
    }
    for kind in [TopologyKind::PcieOnly, TopologyKind::NvlinkPair] {
        for policy in PlacementPolicy::ALL {
            let (name, topo) = (
                format!("2 GPUs {kind:?} {policy:?}"),
                Topology::preset(kind, 2, &p100),
            );
            rows.push(row(name, &p100, topo, par, policy));
        }
    }
    // One device for all work evicts once a third array is touched;
    // round-robin moves every launch across devices and nodes.
    for eviction in EvictionPolicy::ALL {
        for policy in [single, PlacementPolicy::RoundRobin] {
            let memory = MemoryConfig::with_capacity(2 * BYTES).with_eviction(eviction);
            let cluster = Cluster::new(2, 2, TopologyKind::PcieOnly, NicKind::InfinibandHdr);
            let topo = cluster.with_memory(memory).build(&p100);
            let name = format!("2x2 cluster {eviction:?} {policy:?}");
            rows.push(row(name, &p100, topo, par, policy));
        }
    }
    rows
}

/// The timeline and the clock as text: `{:?}` of a float round-trips,
/// so equal text is a bit-identical timeline.
pub(crate) fn timeline_bits(g: &GrCuda) -> String {
    format!("{:?} {:?}", g.timeline().intervals(), g.now())
}

/// Run `p` on `g` and check every per-run invariant against `want`:
/// host reads, audit, capacity, races, drain and final arrays. With
/// `batched`, each run of consecutive launches goes through one
/// `launch_batch`; with `edges`, the DAG is audited with each
/// load-bearing edge deleted before the final `sync()`. Returns the
/// host time spent before that `sync()`, and the evictions of the run.
pub(crate) fn run(
    g: &GrCuda,
    p: &[Step],
    want: &Expected,
    batched: bool,
    edges: bool,
) -> (f64, usize) {
    let arrays: Vec<DeviceArray> = (0..arrays_of(p))
        .map(|a| {
            let x = g.array_i32(LEN);
            x.copy_from_i32(&initial(a));
            x
        })
        .collect();
    // One kernel per argument-access list, built before the clock starts.
    let defs = kernel_defs();
    let mut kernels: Vec<(usize, Kernel)> = Vec::new();
    for s in p {
        if let Step::Launch(acc) = s {
            let def = def_of(acc);
            if !kernels.iter().any(|(d, _)| *d == def) {
                kernels.push((def, g.build_kernel(&defs[def].1).unwrap()));
            }
        }
    }
    let grid = Grid::d1(2, 32);
    let capacity = g.snapshot().memory.capacity;
    let t0 = g.now();
    let mut pending: Vec<(&Kernel, Vec<Arg>)> = Vec::new();
    let flush = |pending: &mut Vec<(&Kernel, Vec<Arg>)>| {
        let calls: Vec<BatchLaunch<'_>> = (pending.iter())
            .map(|(kernel, args)| BatchLaunch { kernel, grid, args })
            .collect();
        if !calls.is_empty() {
            g.launch_batch(&calls).unwrap();
        }
        pending.clear();
    };
    let mut gets = Vec::new();
    for (i, s) in p.iter().enumerate() {
        if !matches!(s, Step::Launch(_)) {
            flush(&mut pending);
        }
        match *s {
            Step::Launch(acc) => {
                let def = def_of(&acc);
                let kernel = &kernels.iter().find(|(d, _)| *d == def).unwrap().1;
                let mut args: Vec<Arg> =
                    s.arrays().iter().map(|&a| Arg::array(&arrays[a])).collect();
                args.extend([Arg::scalar(i as f64), Arg::scalar(def as f64)]);
                if batched {
                    pending.push((kernel, args));
                } else {
                    kernel.launch(grid, &args).unwrap();
                }
            }
            Step::Get(a) => gets.push(arrays[a].get_i32(i % LEN)),
            Step::Fill(a) => arrays[a].fill_i32(fill_value(i)),
            Step::Sync => g.sync(),
        }
        if let Some(cap) = capacity {
            let resident = g.snapshot().memory.resident_bytes;
            assert!(
                resident.iter().all(|&r| r <= cap),
                "step {i} of {p:?}: resident {resident:?} over capacity {cap}"
            );
        }
    }
    flush(&mut pending);
    assert_eq!(gets, want.gets, "host reads of {p:?}");
    let submitted = g.now() - t0;

    let report = g.audit();
    assert!(report.is_clean(), "{p:?}:\n{report}");
    for lint in &report.dead_writes {
        let a = arrays
            .iter()
            .position(|x| x.arr.id.0 == lint.value.0)
            .unwrap();
        assert!(want.dead[a], "{p:?}: no dead write on array {a}:\n{report}");
    }
    if !want.dead.contains(&true) {
        assert!(report.dead_writes.is_empty(), "{p:?}:\n{report}");
    }
    if edges {
        every_load_bearing_edge_is_caught(g, p);
    }

    g.sync();
    assert!(g.races().is_empty(), "{p:?} raced: {:?}", g.races());
    let after = g.snapshot();
    assert!(after.is_drained(), "{p:?}: {after:?}");
    let got: Vec<Vec<i32>> = arrays.iter().map(|x| x.to_vec_i32()).collect();
    assert_eq!(got, want.arrays, "final arrays of {p:?}");
    (submitted, after.memory.evictions)
}

/// Delete each load-bearing edge of `g`'s DAG in turn: the audit must
/// name that edge's endpoints. Edges out of a retired vertex are exempt:
/// the host already waited for their source.
fn every_load_bearing_edge_is_caught(g: &GrCuda, p: &[Step]) {
    g.with_dag(|dag, effects| {
        let redundant = Reachability::new(dag).redundant_edges(dag);
        let active = |id| dag.vertices().iter().any(|v| v.id == id && v.active);
        for (k, e) in dag.edges().iter().enumerate() {
            if redundant[k] || !active(e.from) {
                continue;
            }
            let without = Reachability::with_edges(dag, |j, _| j != k);
            let report = audit_under(dag, effects, Some(&without));
            let named = report.violations.iter().any(|v| {
                matches!(v, ScheduleViolation::UnorderedConflict { first, second, .. }
                    if *first == e.from && *second == e.to)
            });
            assert!(named, "{p:?}: deleting {e:?} went unnoticed:\n{report}");
        }
    });
}

/// The last row: P100 with no host overheads, where `p` runs three
/// times. Call by call twice, for the same timeline both times (and,
/// the first time, with each load-bearing DAG edge deleted in turn);
/// then through `launch_batch`, which has no host time to save here, so
/// for the same timeline again.
fn check_submission(p: &[Step], want: &Expected) {
    let mut dev = DeviceProfile::tesla_p100();
    dev.host_api_overhead = 0.0;
    dev.sched_overhead = 0.0;
    dev.event_overhead = 0.0;
    let machine = || GrCuda::new(dev.clone(), Options::parallel());
    let (a, b, c) = (machine(), machine(), machine());
    run(&a, p, want, false, true);
    run(&b, p, want, false, false);
    run(&c, p, want, true, false);
    let timeline = timeline_bits(&a);
    assert_eq!(timeline, timeline_bits(&b), "{p:?} did not repeat");
    assert_eq!(timeline, timeline_bits(&c), "batching moved {p:?}");
}

/// Every program up to (`steps`, `arrays`) on every row, split over two
/// threads by program index. Returns the number of programs and the
/// evictions of all runs.
fn check_all(steps: usize, arrays: usize) -> (usize, usize) {
    let all = programs(steps, arrays);
    let worker = |w: usize| {
        let rows = rows();
        let mut evictions = 0;
        for p in all.iter().skip(w).step_by(2) {
            let want = oracle(p);
            let wide = p.iter().map(|s| s.arrays().len()).max().unwrap_or(0);
            let mut at = "";
            let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for r in &rows {
                    if (r.topo.memory_config().capacity).is_some_and(|c| wide * BYTES > c) {
                        continue;
                    }
                    at = &r.name;
                    evictions += run(&r.machine(), p, &want, false, false).1;
                }
                at = "P100 no host overheads";
                check_submission(p, &want);
            }));
            if let Err(e) = checked {
                eprintln!("row {at}: program {p:?} failed");
                std::panic::resume_unwind(e);
            }
        }
        evictions
    };
    let evictions = std::thread::scope(|s| {
        let other = s.spawn(|| worker(1));
        worker(0) + other.join().unwrap()
    });
    (all.len(), evictions)
}

#[test]
fn every_small_program_computes_the_sequential_answer_on_every_machine() {
    assert_eq!(check_all(3, 2).0, 12_707);
}

/// The larger bound, outside tier-1: a third array makes the cluster
/// rows evict.
#[test]
#[ignore]
fn every_program_of_three_arrays_computes_the_sequential_answer() {
    let (programs, evictions) = check_all(3, 3);
    assert_eq!(programs, 387_835);
    assert!(evictions > 0);
}

/// Each program of at most 2 steps over 2 arrays has exactly one
/// relabeling among the enumerated ones.
#[test]
fn enumeration_holds_every_program_once() {
    let enumerated = programs(2, 2);
    let steps = steps_over(2);
    let raw = (steps.iter().map(|&a| vec![a])).chain(
        steps
            .iter()
            .flat_map(|&a| steps.iter().map(move |&b| vec![a, b])),
    );
    for p in raw {
        let relabeled = permutations(2)
            .iter()
            .map(|perm| p.iter().map(|s| s.relabel(perm)).collect::<Vec<_>>())
            .filter(|q| enumerated.binary_search(q).is_ok())
            .collect::<std::collections::BTreeSet<_>>();
        assert_eq!(relabeled.len(), 1, "{p:?}");
    }
}
