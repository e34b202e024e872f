//! End-to-end property tests: random programs through the *full* stack
//! (scheduler → streams/events → engine → functional execution) must be
//! observationally equivalent to serial execution and race-free.
//!
//! This is the whole paper's claim quantified over program space, not
//! just over the six benchmarks.

use proptest::prelude::*;

use gpu_sim::{DeviceProfile, Grid};
use kernels::util::{AXPY, COPY_F32, DOT, SCALE};
use kernels::KernelDef;

use crate::{Arg, BatchLaunch, DeviceArray, GrCuda, Kernel, Options};

const N_ARRAYS: usize = 4;
const ARRAY_LEN: usize = 257; // odd on purpose: catches off-by-ones

/// One random program step over a small pool of arrays.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `dst ← a · src` (reads src, writes dst).
    Scale { src: usize, dst: usize, a: i32 },
    /// `dst ← a · src + dst` (reads src, read-writes dst).
    Axpy { src: usize, dst: usize, a: i32 },
    /// `dst ← src`.
    Copy { src: usize, dst: usize },
    /// `dst[0] ← aᵀ·b` (reads a and b — possibly the same array).
    Dot { a: usize, b: usize, dst: usize },
    /// Host reads element `i` of array `arr` (forces precise sync).
    HostRead { arr: usize, i: usize },
    /// Host overwrites array `arr` with a constant.
    HostFill { arr: usize, v: i32 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // Writable destinations must differ from read sources: the kernels'
    // functional implementations (like most real CUDA kernels) do not
    // support aliased in/out pointers, and GrCUDA's managed environment
    // is what rules aliasing out in the first place (§IV-A).
    let arr = 0..N_ARRAYS;
    let distinct = |s: usize, d: usize| {
        if s == d {
            (s, (d + 1) % N_ARRAYS)
        } else {
            (s, d)
        }
    };
    prop_oneof![
        (arr.clone(), arr.clone(), -3..4i32).prop_map(move |(s, d, a)| {
            let (src, dst) = distinct(s, d);
            Step::Scale { src, dst, a }
        }),
        (arr.clone(), arr.clone(), -3..4i32).prop_map(move |(s, d, a)| {
            let (src, dst) = distinct(s, d);
            Step::Axpy { src, dst, a }
        }),
        (arr.clone(), arr.clone()).prop_map(move |(s, d)| {
            let (src, dst) = distinct(s, d);
            Step::Copy { src, dst }
        }),
        (arr.clone(), arr.clone(), arr.clone()).prop_map(move |(a, b, d)| {
            // `a` and `b` may alias (both read-only); `dst` must differ.
            let dst = if d == a || d == b {
                (a.max(b) + 1) % N_ARRAYS
            } else {
                d
            };
            let dst = if dst == a || dst == b {
                (dst + 1) % N_ARRAYS
            } else {
                dst
            };
            Step::Dot { a, b, dst }
        }),
        (arr.clone(), 0..ARRAY_LEN).prop_map(|(a, i)| Step::HostRead { arr: a, i }),
        (arr, -2..3i32).prop_map(|(a, v)| Step::HostFill { arr: a, v }),
    ]
}

/// Kernel-only steps (no host accesses): the shapes a batch can hold.
fn kernel_step_strategy() -> impl Strategy<Value = Step> {
    let arr = 0..N_ARRAYS;
    let distinct = |s: usize, d: usize| {
        if s == d {
            (s, (d + 1) % N_ARRAYS)
        } else {
            (s, d)
        }
    };
    prop_oneof![
        (arr.clone(), arr.clone(), -3..4i32).prop_map(move |(s, d, a)| {
            let (src, dst) = distinct(s, d);
            Step::Scale { src, dst, a }
        }),
        (arr.clone(), arr.clone(), -3..4i32).prop_map(move |(s, d, a)| {
            let (src, dst) = distinct(s, d);
            Step::Axpy { src, dst, a }
        }),
        (arr.clone(), arr.clone()).prop_map(move |(s, d)| {
            let (src, dst) = distinct(s, d);
            Step::Copy { src, dst }
        }),
        (arr.clone(), arr.clone(), arr).prop_map(move |(a, b, d)| {
            let dst = if d == a || d == b {
                (a.max(b) + 1) % N_ARRAYS
            } else {
                d
            };
            let dst = if dst == a || dst == b {
                (dst + 1) % N_ARRAYS
            } else {
                dst
            };
            Step::Dot { a, b, dst }
        }),
    ]
}

/// One timeline interval projected to everything the simulation
/// determines: task id, kind, stream, device, link, label and the exact
/// bit patterns of its start/end times.
type IntervalSig = (u32, String, u32, u32, Option<u32>, String, u64, u64);

/// The timeline projected to [`IntervalSig`] rows.
fn timeline_sig(g: &GrCuda) -> Vec<IntervalSig> {
    g.timeline()
        .intervals()
        .iter()
        .map(|iv| {
            (
                iv.task,
                format!("{:?}", iv.kind),
                iv.stream,
                iv.device,
                iv.link,
                iv.label.clone(),
                iv.start.to_bits(),
                iv.end.to_bits(),
            )
        })
        .collect()
}

/// The program's four kernels, in the order [`kernel_calls`] indexes.
fn program_kernels(g: &GrCuda) -> [Kernel; 4] {
    let k = |def: &KernelDef| g.build_kernel(def).unwrap();
    [k(&SCALE), k(&AXPY), k(&COPY_F32), k(&DOT)]
}

/// A kernel-only program as `(index into program_kernels, args)` calls.
fn kernel_calls(steps: &[Step], arrays: &[DeviceArray]) -> Vec<(usize, Vec<Arg>)> {
    let nf = ARRAY_LEN as f64;
    steps
        .iter()
        .map(|s| match *s {
            Step::Scale { src, dst, a } => (
                0,
                vec![
                    Arg::array(&arrays[src]),
                    Arg::array(&arrays[dst]),
                    Arg::scalar(a as f64),
                    Arg::scalar(nf),
                ],
            ),
            Step::Axpy { src, dst, a } => (
                1,
                vec![
                    Arg::array(&arrays[src]),
                    Arg::array(&arrays[dst]),
                    Arg::scalar(a as f64),
                    Arg::scalar(nf),
                ],
            ),
            Step::Copy { src, dst } => (
                2,
                vec![
                    Arg::array(&arrays[src]),
                    Arg::array(&arrays[dst]),
                    Arg::scalar(nf),
                ],
            ),
            Step::Dot { a, b, dst } => (
                3,
                vec![
                    Arg::array(&arrays[a]),
                    Arg::array(&arrays[b]),
                    Arg::array(&arrays[dst]),
                    Arg::scalar(nf),
                ],
            ),
            Step::HostRead { .. } | Step::HostFill { .. } => {
                unreachable!("kernel-only programs")
            }
        })
        .collect()
}

/// Run a kernel-only program either as one [`GrCuda::launch_batch`] or
/// as serial per-call launches. Returns final array contents, the full
/// timeline signature, the bit pattern of the final virtual time, the
/// race count, and the host time spent *submitting* (before the sync).
type BatchRun = (Vec<Vec<f32>>, Vec<IntervalSig>, u64, usize, f64);

fn run_kernel_program(steps: &[Step], dev: DeviceProfile, batch: bool) -> BatchRun {
    let g = GrCuda::new(dev, Options::parallel());
    let arrays: Vec<_> = (0..N_ARRAYS).map(|_| g.array_f32(ARRAY_LEN)).collect();
    for (i, a) in arrays.iter().enumerate() {
        let init: Vec<f32> = (0..ARRAY_LEN)
            .map(|j| ((i * 31 + j * 7) % 11) as f32 - 5.0)
            .collect();
        a.copy_from_f32(&init);
    }
    let grid = Grid::d1(16, 64);
    let kernels = program_kernels(&g);
    let calls = kernel_calls(steps, &arrays);
    let t0 = g.now();
    if batch {
        let batch_calls: Vec<BatchLaunch<'_>> = calls
            .iter()
            .map(|(ki, args)| BatchLaunch {
                kernel: &kernels[*ki],
                grid,
                args,
            })
            .collect();
        g.launch_batch(&batch_calls).unwrap();
    } else {
        for (ki, args) in &calls {
            kernels[*ki].launch(grid, args).unwrap();
        }
    }
    let submit_time = g.now() - t0;
    g.sync();
    (
        arrays.iter().map(|a| a.to_vec_f32()).collect(),
        timeline_sig(&g),
        g.now().to_bits(),
        g.races().len(),
        submit_time,
    )
}

/// Execute a program and return the final contents of every array.
fn run_program(steps: &[Step], opts: Options, dev: DeviceProfile) -> (Vec<Vec<f32>>, usize) {
    let g = GrCuda::new(dev, opts);
    let arrays: Vec<_> = (0..N_ARRAYS).map(|_| g.array_f32(ARRAY_LEN)).collect();
    for (i, a) in arrays.iter().enumerate() {
        let init: Vec<f32> = (0..ARRAY_LEN)
            .map(|j| ((i * 31 + j * 7) % 11) as f32 - 5.0)
            .collect();
        a.copy_from_f32(&init);
    }
    let grid = Grid::d1(16, 64);
    let nf = ARRAY_LEN as f64;
    let k = |def: &KernelDef| g.build_kernel(def).unwrap();
    let (scale, axpy, copy, dot) = (k(&SCALE), k(&AXPY), k(&COPY_F32), k(&DOT));

    for s in steps {
        match *s {
            Step::Scale { src, dst, a } => scale
                .launch(
                    grid,
                    &[
                        Arg::array(&arrays[src]),
                        Arg::array(&arrays[dst]),
                        Arg::scalar(a as f64),
                        Arg::scalar(nf),
                    ],
                )
                .unwrap(),
            Step::Axpy { src, dst, a } => axpy
                .launch(
                    grid,
                    &[
                        Arg::array(&arrays[src]),
                        Arg::array(&arrays[dst]),
                        Arg::scalar(a as f64),
                        Arg::scalar(nf),
                    ],
                )
                .unwrap(),
            Step::Copy { src, dst } => copy
                .launch(
                    grid,
                    &[
                        Arg::array(&arrays[src]),
                        Arg::array(&arrays[dst]),
                        Arg::scalar(nf),
                    ],
                )
                .unwrap(),
            Step::Dot { a, b, dst } => dot
                .launch(
                    grid,
                    &[
                        Arg::array(&arrays[a]),
                        Arg::array(&arrays[b]),
                        Arg::array(&arrays[dst]),
                        Arg::scalar(nf),
                    ],
                )
                .unwrap(),
            Step::HostRead { arr, i } => {
                let _ = arrays[arr].get_f32(i);
            }
            Step::HostFill { arr, v } => {
                arrays[arr].fill_f32(v as f32);
            }
        }
    }
    g.sync();
    let races = g.races().len();
    (arrays.iter().map(|a| a.to_vec_f32()).collect(), races)
}

/// With real overheads, a batch pays the host API + scheduling charge
/// once instead of once per launch: submission time must shrink by
/// roughly the batch size.
#[test]
fn batched_submission_amortizes_host_overheads() {
    let steps: Vec<Step> = (0..24)
        .map(|i| Step::Scale {
            src: i % 2,
            dst: 2 + (i % 2),
            a: 2,
        })
        .collect();
    let dev = DeviceProfile::tesla_p100();
    let (s_arrays, _, _, _, serial_submit) = run_kernel_program(&steps, dev.clone(), false);
    let (b_arrays, _, _, _, batch_submit) = run_kernel_program(&steps, dev, true);
    assert_eq!(s_arrays, b_arrays, "amortization must not change results");
    assert!(
        batch_submit < serial_submit / 8.0,
        "batch submission {batch_submit} vs serial {serial_submit}"
    );
}

/// The whole batch is validated before anything is submitted: a bad
/// call anywhere in the batch means nothing enters the DAG.
#[test]
fn launch_batch_validates_before_submitting() {
    let g = GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel());
    let x = g.array_f32(ARRAY_LEN);
    let y = g.array_f32(ARRAY_LEN);
    let cp = g.build_kernel(&COPY_F32).unwrap();
    let grid = Grid::d1(16, 64);
    let good = [
        Arg::array(&x),
        Arg::array(&y),
        Arg::scalar(ARRAY_LEN as f64),
    ];
    let bad = [Arg::array(&x)];
    let calls = [
        BatchLaunch {
            kernel: &cp,
            grid,
            args: &good,
        },
        BatchLaunch {
            kernel: &cp,
            grid,
            args: &bad,
        },
    ];
    assert!(matches!(
        g.launch_batch(&calls),
        Err(crate::LaunchError::ArityMismatch { .. })
    ));
    assert_eq!(
        g.scheduler_stats().lifetime_vertices,
        0,
        "a rejected batch must submit nothing"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any random program produces the same results under the parallel
    /// scheduler as under serial execution, with no data races, on every
    /// device generation (Maxwell's eager-copy path included).
    #[test]
    fn parallel_equals_serial_on_random_programs(
        steps in proptest::collection::vec(step_strategy(), 1..24),
        dev_idx in 0..3usize,
    ) {
        let dev = DeviceProfile::paper_devices()[dev_idx].clone();
        let (serial, races_s) = run_program(&steps, Options::serial(), dev.clone());
        let (parallel, races_p) = run_program(&steps, Options::parallel(), dev);
        prop_assert_eq!(races_s, 0);
        prop_assert_eq!(races_p, 0, "parallel scheduler raced on {:?}", steps);
        prop_assert_eq!(serial, parallel, "results diverged on {:?}", steps);
    }

    /// With the host-side charges zeroed, batched submission is
    /// **bit-identical** to serial submission: same DAG-driven task
    /// ids, streams, placements and exact start/end times — the batch
    /// only removes host time, and here there is none to remove.
    #[test]
    fn batched_submission_is_bit_identical_under_zero_overheads(
        steps in proptest::collection::vec(kernel_step_strategy(), 1..20),
    ) {
        let mut dev = DeviceProfile::tesla_p100();
        dev.host_api_overhead = 0.0;
        dev.sched_overhead = 0.0;
        dev.event_overhead = 0.0;
        let (s_arrays, s_sig, s_now, s_races, _) = run_kernel_program(&steps, dev.clone(), false);
        let (b_arrays, b_sig, b_now, b_races, _) = run_kernel_program(&steps, dev, true);
        prop_assert_eq!(s_races, 0);
        prop_assert_eq!(b_races, 0, "batched submission raced on {:?}", steps);
        prop_assert_eq!(&s_sig, &b_sig, "timelines diverged on {:?}", steps);
        prop_assert_eq!(s_now, b_now, "final virtual time diverged on {:?}", steps);
        prop_assert_eq!(s_arrays, b_arrays, "results diverged on {:?}", steps);
    }

    /// No false positives: the audit of a correctly-inferred schedule is
    /// clean on any random program, under every placement policy. (The
    /// sanitizer re-derives the ordering obligations independently from
    /// the access modes, so agreement here is two implementations
    /// cross-checking each other over program space.)
    #[test]
    fn audit_of_inferred_schedule_is_clean_under_all_policies(
        steps in proptest::collection::vec(kernel_step_strategy(), 1..16),
    ) {
        use crate::PlacementPolicy;
        for policy in PlacementPolicy::ALL {
            let dev = DeviceProfile::tesla_p100();
            let topo = gpu_sim::Topology::pcie_only(2, &dev);
            let mg = GrCuda::with_topology(dev, topo, Options::parallel(), policy);
            let arrays: Vec<_> = (0..N_ARRAYS).map(|_| mg.array_f32(ARRAY_LEN)).collect();
            let grid = Grid::d1(16, 64);
            let kernels = program_kernels(&mg);
            for (ki, args) in kernel_calls(&steps, &arrays) {
                kernels[ki].launch(grid, &args).unwrap();
            }
            // Audit before the sync retires the schedule away.
            let report = mg.audit();
            prop_assert!(
                report.is_clean(),
                "{policy:?} audit found violations on {steps:?}:\n{report}"
            );
            prop_assert!(report.dead_writes.is_empty(), "{policy:?}:\n{report}");
            mg.sync();
            prop_assert_eq!(mg.races().len(), 0, "{:?}", policy);
        }
    }

    /// No false negatives: deleting any single load-bearing (non-
    /// redundant) inferred edge always produces at least one violation
    /// naming exactly that edge's endpoints.
    #[test]
    fn deleting_one_inferred_edge_is_always_caught(
        ops in proptest::collection::vec(
            (proptest::collection::vec(proptest::bool::ANY, 4..5), 0..4usize),
            2..20,
        ),
        pick in 0..1usize << 30,
    ) {
        use dag::{ArgAccess, ComputationDag, ElementKind, Reachability, Value};
        use crate::audit::{audit_dag, audit_without_edge, EdgeView, EffectsTable, ScheduleViolation};
        let mut d = ComputationDag::new();
        for (mask, written) in &ops {
            // One access per value; the `written` value writes, the rest
            // of the mask reads — every op touches at least one value.
            let args: Vec<ArgAccess> = (0..4)
                .filter_map(|v| {
                    if v == *written {
                        Some(ArgAccess::write(Value(v as u64)))
                    } else if mask[v] {
                        Some(ArgAccess::read(Value(v as u64)))
                    } else {
                        None
                    }
                })
                .collect();
            d.add_computation(ElementKind::Kernel, "K", args);
        }
        let effects = EffectsTable::new();
        let full = audit_dag(&d, &effects, EdgeView::Full);
        prop_assert!(full.is_clean(), "{full}");

        let flags = Reachability::new(&d).redundant_edges(&d);
        let load_bearing: Vec<usize> = (0..d.edges().len())
            .filter(|&k| !flags[k])
            .collect();
        if load_bearing.is_empty() {
            return Ok(()); // every edge covered elsewhere: nothing to delete
        }
        let k = load_bearing[pick % load_bearing.len()];
        let e = &d.edges()[k];
        let report = audit_without_edge(&d, &effects, k);
        let names_the_pair = report.violations.iter().any(|v| matches!(
            v,
            ScheduleViolation::UnorderedConflict { first, second, .. }
                if *first == e.from && *second == e.to
        ));
        prop_assert!(
            names_the_pair,
            "deleting edge {k} ({:?}→{:?} on {:?}) went unnoticed:\n{report}",
            e.from, e.to, e.value
        );
    }

    /// All stream policies agree with each other.
    #[test]
    fn all_policies_agree_on_random_programs(
        steps in proptest::collection::vec(step_strategy(), 1..16),
    ) {
        use crate::{DepStreamPolicy, StreamReusePolicy};
        let dev = DeviceProfile::tesla_p100();
        let (baseline, _) = run_program(&steps, Options::serial(), dev.clone());
        for dep in [DepStreamPolicy::FirstChildOnParent, DepStreamPolicy::AlwaysParent, DepStreamPolicy::AlwaysNew] {
            for reuse in [StreamReusePolicy::FifoReuse, StreamReusePolicy::AlwaysNew] {
                let opts = Options::parallel().with_dep_stream(dep).with_stream_reuse(reuse);
                let (got, races) = run_program(&steps, opts, dev.clone());
                prop_assert_eq!(races, 0, "{:?}/{:?}", dep, reuse);
                prop_assert_eq!(&got, &baseline, "{:?}/{:?} diverged", dep, reuse);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Serving layer: determinism over arrival order (the Bobpp-style claim:
// a parallel front-end may feed the core from many threads, but a given
// arrival order must always produce the same schedule).
// ---------------------------------------------------------------------

use crate::serve::{ArgSpec, CallSpec, ElemKind, Fairness, RequestSpec, ServeConfig, ServiceCore};
use crate::PlacementPolicy;
use gpu_sim::{Cluster, NicKind, Topology, TopologyKind};

/// The three machines `tests/serve.rs` serves on: one GPU, four GPUs
/// NVLinked in pairs, two nodes of two.
fn serve_machine(idx: usize, dev: &DeviceProfile) -> (Topology, PlacementPolicy) {
    let pairs = TopologyKind::NvlinkPair;
    match idx {
        0 => (Topology::pcie_only(1, dev), PlacementPolicy::SingleGpu),
        1 => (
            Topology::preset(pairs, 4, dev),
            PlacementPolicy::TransferAware,
        ),
        _ => (
            Cluster::new(2, 2, pairs, NicKind::InfinibandHdr).build(dev),
            PlacementPolicy::NodeAware,
        ),
    }
}

/// One random request of a random tenant: a 1–3 call chain over the
/// tenant's two arrays, optionally deadlined, optionally followed by an
/// explicit pump cycle.
#[derive(Debug, Clone)]
struct ServeReq {
    tenant: usize,
    calls: Vec<(usize, usize, i32)>,
    deadline: usize,
    pump_after: bool,
}

fn serve_req_strategy() -> impl Strategy<Value = ServeReq> {
    (
        0..3usize,
        proptest::collection::vec((0..2usize, 0..2usize, -3..4i32), 1..4),
        0..3usize,
        proptest::bool::ANY,
    )
        .prop_map(|(tenant, calls, deadline, pump_after)| ServeReq {
            tenant,
            calls,
            deadline,
            pump_after,
        })
}

/// Everything the service run determines, bit-exactly: the full
/// timeline signature, the final virtual time, and every tenant's
/// per-request latencies in completion order.
type ServeSig = (Vec<IntervalSig>, u64, Vec<Vec<u64>>);

fn run_serve_script(script: &[ServeReq], fairness: Fairness, machine: usize) -> ServeSig {
    let dev = DeviceProfile::tesla_p100();
    let (topology, placement) = serve_machine(machine, &dev);
    let config = ServeConfig::new(dev, Options::parallel())
        .on(topology, placement)
        .with_fairness(fairness)
        .with_pipeline(4, 2);
    let mut core = ServiceCore::new(config);
    let mut tenants = Vec::new();
    for i in 0..3usize {
        let t = core.add_tenant(&format!("t{i}"), 3 - i as u32);
        let x = core.alloc(t, ElemKind::F32, ARRAY_LEN).unwrap();
        let y = core.alloc(t, ElemKind::F32, ARRAY_LEN).unwrap();
        core.fill(t, x, (i + 1) as f64).unwrap();
        core.fill(t, y, -(i as f64)).unwrap();
        let sc = core.register_kernel(t, &SCALE).unwrap();
        let ax = core.register_kernel(t, &AXPY).unwrap();
        tenants.push((t, x, y, sc, ax));
    }
    for req in script {
        let (t, x, y, sc, ax) = tenants[req.tenant];
        let calls = req
            .calls
            .iter()
            .map(|&(k, src, a)| {
                let (s, d) = if src == 0 { (x, y) } else { (y, x) };
                CallSpec {
                    kernel: if k == 0 { sc } else { ax },
                    grid: Grid::d1(16, 64),
                    args: vec![
                        ArgSpec::Array(s),
                        ArgSpec::Array(d),
                        ArgSpec::Scalar(a as f64),
                        ArgSpec::Scalar(ARRAY_LEN as f64),
                    ],
                }
            })
            .collect();
        let deadline_us = [None, Some(20.0), Some(200.0)][req.deadline];
        core.submit(t, RequestSpec { calls, deadline_us }).unwrap();
        if req.pump_after {
            core.pump();
        }
    }
    core.drain_all();
    assert_eq!(core.runtime().races().len(), 0, "service run raced");
    assert!(core.idle(), "requests left queued or in flight");
    let stats = core.all_stats();
    for s in &stats {
        assert_eq!(s.completed, s.submitted, "tenant {} lost requests", s.name);
    }
    let latencies = stats
        .iter()
        .map(|s| s.latencies.iter().map(|l| l.to_bits()).collect())
        .collect();
    (
        timeline_sig(core.runtime()),
        core.now().to_bits(),
        latencies,
    )
}

// ---------------------------------------------------------------------
// Cluster layer: the batch partitioner is a pure deterministic function
// of the argument lists — no HashMap iteration order, no value-id
// numerology may leak into node assignments.
// ---------------------------------------------------------------------

/// A random batch: each item is a small bag of `(value id, bytes)`.
fn batch_strategy() -> impl Strategy<Value = Vec<Vec<(u64, usize)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0..12u64, 1..5usize), 0..4),
        1..14,
    )
    .prop_map(|items| {
        items
            .into_iter()
            .map(|item| {
                item.into_iter()
                    .map(|(v, kib)| (v, kib << 10))
                    .collect::<Vec<_>>()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Re-partitioning the same batch gives bit-identical assignments
    /// (two calls build distinct, differently-seeded HashMaps — any
    /// iteration-order dependence would show up here), and relabeling
    /// every value id through an injective map changes nothing either:
    /// the partition depends on the *sharing structure*, not the ids.
    #[test]
    fn partitioner_is_deterministic_and_label_independent(
        items in batch_strategy(),
        nodes in 1..5usize,
    ) {
        use crate::partition::partition_batch;
        let a = partition_batch(&items, nodes);
        let b = partition_batch(&items, nodes);
        prop_assert_eq!(&a, &b, "same input diverged on {:?}", items);

        let relabeled: Vec<Vec<(u64, usize)>> = items
            .iter()
            .map(|item| {
                item.iter()
                    .map(|&(v, bytes)| (v.wrapping_mul(1_000_003).wrapping_add(17), bytes))
                    .collect()
            })
            .collect();
        let c = partition_batch(&relabeled, nodes);
        prop_assert_eq!(&a, &c, "relabeling moved items on {:?}", items);

        // Structural sanity: every item lands on a real node, the part
        // count is honest, and a 1-node "cluster" never partitions.
        prop_assert_eq!(a.assignment.len(), items.len());
        prop_assert!(a.assignment.iter().all(|&n| (n as usize) < nodes));
        prop_assert!(a.parts <= nodes);
        if nodes == 1 {
            prop_assert!(a.assignment.iter().all(|&n| n == 0));
            prop_assert_eq!(a.cut_bytes, 0);
        }
        let total: usize = {
            let mut seen = std::collections::HashSet::new();
            items
                .iter()
                .flatten()
                .filter(|&&(v, _)| seen.insert(v))
                .map(|&(_, b)| b)
                .sum()
        };
        prop_assert!(a.cut_bytes <= total * nodes, "cut exceeds all replicas");

        // Items that share a value must share a node unless the
        // partitioner explicitly counted that value as cut.
        if a.cut_bytes == 0 {
            let mut home: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
            for (i, item) in items.iter().enumerate() {
                for &(v, _) in item {
                    let node = *home.entry(v).or_insert(a.assignment[i]);
                    prop_assert_eq!(
                        node, a.assignment[i],
                        "zero cut but value {} spans nodes", v
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replaying the same multi-tenant arrival order through the service
    /// core produces a **bit-identical** virtual timeline, final clock
    /// and per-request latency vector — under every fairness rule, on
    /// one GPU, several, and a cluster.
    #[test]
    fn serving_is_deterministic_for_a_given_arrival_order(
        script in proptest::collection::vec(serve_req_strategy(), 1..20),
        fairness_idx in 0..3usize,
        machine in 0..3usize,
    ) {
        let fairness = [
            Fairness::Fifo,
            Fairness::WeightedRoundRobin,
            Fairness::DeadlineAware,
        ][fairness_idx];
        let a = run_serve_script(&script, fairness, machine);
        let b = run_serve_script(&script, fairness, machine);
        prop_assert_eq!(
            &a.0, &b.0,
            "timelines diverged under {:?} on machine {} for {:?}", fairness, machine, script
        );
        prop_assert_eq!(a.1, b.1, "final virtual time diverged under {:?}", fairness);
        prop_assert_eq!(&a.2, &b.2, "latencies diverged under {:?}", fairness);
    }
}
