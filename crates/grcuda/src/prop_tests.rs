//! Fixed-input checks of batched submission, and the property tests the
//! small-scope checker (`crate::small_scope`) does not cover: the batch
//! partitioner over random sharing structures, and serving determinism
//! over random multi-tenant arrival orders.

use proptest::prelude::*;

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
    (timeline_bits(core.runtime()), latencies)
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
            "timelines or final times diverged under {:?} on machine {} for {:?}", fairness, machine, script
        );
        prop_assert_eq!(&a.1, &b.1, "latencies diverged under {:?}", fairness);
    }
}
