//! Fixed-input checks of batched submission, and the properties the
//! small-scope checker (`crate::small_scope`) does not cover, each
//! checked on every input up to a stated bound: the batch partitioner
//! over every small sharing structure, and serving determinism over
//! every short multi-tenant arrival order.

use gpu_sim::{DeviceProfile, Grid};
use kernels::util::{AXPY, COPY_F32, SCALE};

use crate::small_scope::{oracle, run, timeline_bits, Access, Step, MAX_ARRAYS};
use crate::{Arg, BatchLaunch, GrCuda, Options};

const ARRAY_LEN: usize = 257; // odd on purpose: catches off-by-ones

/// With real overheads, a batch pays the host API + scheduling charge
/// once instead of once per launch: submission time must shrink by
/// roughly the batch size.
#[test]
fn batched_submission_amortizes_host_overheads() {
    let steps: Vec<Step> = (0..24)
        .map(|i| {
            let mut acc = [Access::None; MAX_ARRAYS];
            acc[i % 2] = Access::Const;
            acc[2 + i % 2] = Access::InOut;
            Step::Launch(acc)
        })
        .collect();
    let want = oracle(&steps);
    let runtime = || GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel());
    let (serial_submit, _) = run(&runtime(), &steps, &want, false, false);
    let (batch_submit, _) = run(&runtime(), &steps, &want, true, false);
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
        g.snapshot().lifetime_vertices,
        0,
        "a rejected batch must submit nothing"
    );
}

// ---------------------------------------------------------------------
// Serving layer: determinism over arrival order (the Bobpp-style claim:
// a parallel front-end may feed the core from many threads, but a given
// arrival order must always produce the same schedule).
// ---------------------------------------------------------------------

use crate::serve::{ArgSpec, CallSpec, ElemKind, Fairness, RequestSpec, ServeConfig, ServiceCore};
use crate::PlacementPolicy;
use exhaustive::{first_use, sequences};
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

/// One request: a chain of calls over the tenant's two arrays
/// (`(kernel, source)`: SCALE or AXPY, reading x or y and writing the
/// other), with a 20 µs deadline or none, optionally followed by an
/// explicit pump cycle.
#[derive(Debug, Clone)]
struct ServeReq {
    tenant: usize,
    calls: &'static [(usize, usize)],
    deadline: bool,
    pump_after: bool,
}

/// Every script of one or two requests (tenants numbered in order of
/// first use), each of tenant 0 or 1, with one of three chains — scale
/// x into y; axpy y into x; both — with or without a deadline and a
/// pump after it: 300 scripts.
fn serve_scripts() -> impl Iterator<Item = Vec<ServeReq>> {
    const CHAINS: [&[(usize, usize)]; 3] = [&[(0, 0)], &[(1, 1)], &[(0, 0), (1, 1)]];
    let alphabet: Vec<ServeReq> = (0..24)
        .map(|s| ServeReq {
            tenant: s % 2,
            calls: CHAINS[s / 2 % 3],
            deadline: s / 6 % 2 == 1,
            pump_after: s / 12 == 1,
        })
        .collect();
    sequences(alphabet.len(), 2)
        .map(move |script| {
            script
                .iter()
                .map(|&r| alphabet[r].clone())
                .collect::<Vec<_>>()
        })
        .filter(|script| first_use(script.iter().map(|r| r.tenant as u64)))
}

/// Everything the service run determines, bit-exactly: the full
/// timeline with the final virtual time, and every tenant's per-request
/// latencies in completion order.
type ServeSig = (String, Vec<Vec<u64>>);

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
            .map(|&(k, src)| {
                let (s, d) = if src == 0 { (x, y) } else { (y, x) };
                let a = [2.0, -1.0][k];
                CallSpec {
                    kernel: if k == 0 { sc } else { ax },
                    grid: Grid::d1(16, 64),
                    args: vec![
                        ArgSpec::Array(s),
                        ArgSpec::Array(d),
                        ArgSpec::Scalar(a),
                        ArgSpec::Scalar(ARRAY_LEN as f64),
                    ],
                }
            })
            .collect();
        let deadline_us = req.deadline.then_some(20.0);
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
    (timeline_bits(core.runtime()), latencies)
}

// ---------------------------------------------------------------------
// Cluster layer: the batch partitioner is a pure deterministic function
// of the argument lists — no HashMap iteration order, no value-id
// numerology may leak into node assignments.
// ---------------------------------------------------------------------

/// Every batch of 1 to 5 items, each item a set of values 0, 1 and 2
/// (the empty set included) of 1, 2 and 3 KiB, with values numbered in
/// order of first use: 14 288 batches.
fn batches() -> impl Iterator<Item = Vec<Vec<(u64, usize)>>> {
    let item = |set: usize| -> Vec<(u64, usize)> {
        (0..3u64)
            .filter(|v| set >> v & 1 == 1)
            .map(|v| (v, (v as usize + 1) << 10))
            .collect()
    };
    sequences(8, 5)
        .map(move |sets| sets.into_iter().map(item).collect::<Vec<_>>())
        .filter(|items| first_use(items.iter().flatten().map(|&(v, _)| v)))
}

/// Re-partitioning the same batch gives bit-identical assignments
/// (two calls build distinct, differently-seeded HashMaps — any
/// iteration-order dependence would show up here), and relabeling every
/// value id through an injective map changes nothing either: the
/// partition depends on the *sharing structure*, not the ids. Every
/// batch of `batches` on 1, 2, 3 and 4 nodes.
#[test]
fn partitioner_is_deterministic_and_label_independent() {
    use crate::partition::partition_batch;
    let mut checked = 0;
    for items in batches() {
        for nodes in 1..=4 {
            let a = partition_batch(&items, nodes);
            let b = partition_batch(&items, nodes);
            assert_eq!(a, b, "same input diverged on {items:?}");

            let relabeled: Vec<Vec<(u64, usize)>> = items
                .iter()
                .map(|item| {
                    item.iter()
                        .map(|&(v, bytes)| (v.wrapping_mul(1_000_003).wrapping_add(17), bytes))
                        .collect()
                })
                .collect();
            let c = partition_batch(&relabeled, nodes);
            assert_eq!(a, c, "relabeling moved items on {items:?}");

            // Structural sanity: every item lands on a real node, the
            // part count is honest, and a 1-node "cluster" never
            // partitions.
            assert_eq!(a.assignment.len(), items.len());
            assert!(a.assignment.iter().all(|&n| (n as usize) < nodes));
            assert!(a.parts <= nodes);
            if nodes == 1 {
                assert!(a.assignment.iter().all(|&n| n == 0));
                assert_eq!(a.cut_bytes, 0);
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
            assert!(
                a.cut_bytes <= total * nodes,
                "cut exceeds all replicas on {items:?}"
            );

            // Items that share a value must share a node unless the
            // partitioner explicitly counted that value as cut.
            if a.cut_bytes == 0 {
                let mut home: std::collections::HashMap<u64, u32> =
                    std::collections::HashMap::new();
                for (i, item) in items.iter().enumerate() {
                    for &(v, _) in item {
                        let node = *home.entry(v).or_insert(a.assignment[i]);
                        assert_eq!(
                            node, a.assignment[i],
                            "zero cut but value {v} spans nodes: {items:?}"
                        );
                    }
                }
            }
        }
        checked += 1;
    }
    assert_eq!(checked, 14_288);
}

/// Replaying the same multi-tenant arrival order through the service
/// core produces a **bit-identical** virtual timeline, final clock and
/// per-request latency vector — under every fairness rule, on one GPU,
/// several, and a cluster: every script of `serve_scripts`.
#[test]
fn serving_is_deterministic_for_a_given_arrival_order() {
    let mut checked = 0;
    for script in serve_scripts() {
        for fairness in [
            Fairness::Fifo,
            Fairness::WeightedRoundRobin,
            Fairness::DeadlineAware,
        ] {
            for machine in 0..3 {
                let a = run_serve_script(&script, fairness, machine);
                let b = run_serve_script(&script, fairness, machine);
                assert_eq!(
                    a, b,
                    "runs diverged under {fairness:?} on machine {machine} for {script:?}"
                );
            }
        }
        checked += 1;
    }
    assert_eq!(checked, 300);
}
