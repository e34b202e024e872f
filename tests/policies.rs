//! Integration: placement, eviction and stream policies change
//! performance and placement, never results (one table says so for every
//! policy), and each acceptance bar that ranks one policy above another.
//! That every stream-management combination (§IV-C) is correct is a row
//! of `tests/scheduler_equivalence.rs`.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use benchmarks::{
    cluster_run, fanout_mix, mixed_runs, oversub_capacity, oversubscribe, run_grcuda,
    run_multi_gpu, tiny, transfer_chain, Bench, ClusterSuite, Experiment, MixedScale,
};
use gpu_sim::{
    Cluster, DeviceProfile, EvictionPolicy, Grid, MemoryConfig, NicKind, Topology, TopologyKind,
};
use grcuda::{
    Arg, BatchLaunch, DepStreamPolicy, DeviceArray, DeviceSelectionPolicy, GrCuda, Options,
    PlacementCtx, PlacementPolicy, PrefetchPolicy, StreamReusePolicy,
};

/// `n` Tesla P100s on an interconnect preset.
fn machine(n: usize, kind: TopologyKind, policy: PlacementPolicy) -> GrCuda {
    let dev = DeviceProfile::tesla_p100();
    let topo = Topology::preset(kind, n, &dev);
    GrCuda::with_topology(dev, topo, Options::parallel(), policy)
}

/// SCALE's `(src, dst, 2.0, n)` arguments.
fn double_args(src: &DeviceArray, dst: &DeviceArray) -> [Arg; 4] {
    [
        Arg::array(src),
        Arg::array(dst),
        Arg::scalar(2.0),
        Arg::scalar(src.len() as f64),
    ]
}

#[test]
fn disabling_prefetch_hurts_streaming_performance() {
    // §V-C: "disabling automatic prefetching is not recommended:
    // concurrent kernel execution turns the page fault controller into
    // the main bottleneck".
    let dev = DeviceProfile::tesla_p100();
    let spec = Bench::Vec.build(800_000);
    let auto = run_grcuda(&spec, &dev, Options::parallel(), 2);
    let none = run_grcuda(
        &spec,
        &dev,
        Options::parallel().with_prefetch(PrefetchPolicy::None),
        2,
    );
    auto.assert_ok();
    none.assert_ok();
    assert!(
        none.steady_time().unwrap() > 1.15 * auto.steady_time().unwrap(),
        "faulting must be slower: {} vs {}",
        none.steady_time().unwrap(),
        auto.steady_time().unwrap()
    );
}

#[test]
fn single_stream_child_policy_reduces_concurrency() {
    let dev = DeviceProfile::tesla_p100();
    let spec = Bench::Img.build(160);
    let multi = run_grcuda(&spec, &dev, Options::parallel(), 2);
    let single = run_grcuda(
        &spec,
        &dev,
        Options::parallel().with_dep_stream(DepStreamPolicy::AlwaysParent),
        2,
    );
    multi.assert_ok();
    single.assert_ok();
    assert!(
        multi.streams_used >= single.streams_used,
        "first-child policy must not use fewer streams than always-parent"
    );
}

/// One link of a dependent chain: `kernel(src, dst, factor, n)`, from
/// `x` to `y` when `forward`, else back.
type Step = (&'static kernels::KernelDef, bool, f64);

/// What a dependent chain did under one policy.
struct ChainRun {
    migrations: (usize, usize),
    makespan: f64,
    /// The device of every launch, in order.
    devices: Vec<u32>,
    y: Vec<f32>,
}

/// Drive a strictly serial kernel chain over `x` (all ones) and `y` of
/// `n` floats through an `n_dev`-device scheduler.
fn dependent_chain(n_dev: usize, policy: PlacementPolicy, n: usize, steps: &[Step]) -> ChainRun {
    let g = machine(n_dev, TopologyKind::PcieOnly, policy);
    let x = g.array_f32(n);
    let y = g.array_f32(n);
    x.copy_from_f32(&vec![1.0; n]);
    let mut devices = Vec::new();
    for &(def, forward, factor) in steps {
        let kernel = g.build_kernel(def).unwrap();
        let (src, dst) = if forward { (&x, &y) } else { (&y, &x) };
        let args = [
            Arg::array(src),
            Arg::array(dst),
            Arg::scalar(factor),
            Arg::scalar(n as f64),
        ];
        devices.push(kernel.launch_placed(Grid::d1(64, 256), &args).unwrap());
    }
    g.sync();
    assert_eq!(g.races().len(), 0);
    ChainRun {
        migrations: g.migration_stats(),
        makespan: g.now(),
        devices,
        y: y.to_vec_f32(),
    }
}

#[test]
fn locality_aware_beats_round_robin_on_a_dependent_chain() {
    // A chain has zero parallelism: the only thing placement can do is
    // avoid moving data. Locality-aware keeps every launch on one device
    // and migrates nothing; round-robin ping-pongs the chain, pays
    // strictly more bytes and a longer schedule — and both compute the
    // same numbers.
    use kernels::util::{AXPY, SCALE};
    let doublings: Vec<Step> = (0..8).map(|i| (&SCALE, i % 2 == 0, 2.0)).collect();
    let growth: Vec<Step> = (0..6).map(|i| (&SCALE, i % 2 == 0, 1.01)).collect();
    let scale_then_axpy: Vec<Step> = vec![(&SCALE, true, 2.0), (&AXPY, true, 1.0)];
    // (devices, n, steps, every element of y, round-robin migrations at
    // least). 128.0 and 3.0 have one bit pattern each, so equal values
    // are equal bits.
    let rows = [
        (2, 1 << 18, &doublings, Some(128.0), 4),
        (4, 1 << 18, &doublings, Some(128.0), 4),
        (2, 1 << 20, &growth, None, 3),
        (2, 1 << 16, &scale_then_axpy, Some(3.0), 1),
    ];
    for (n_dev, n, steps, y, rr_least) in rows {
        let at = format!("{n_dev} GPUs, {} steps over {n}", steps.len());
        let rr = dependent_chain(n_dev, PlacementPolicy::RoundRobin, n, steps);
        let loc = dependent_chain(n_dev, PlacementPolicy::LocalityAware, n, steps);
        assert!(
            rr.migrations.0 >= rr_least && rr.migrations.1 >= 4 * n,
            "{at}: round-robin must ping-pong the chain: {:?}",
            rr.migrations
        );
        assert_eq!(
            loc.migrations,
            (0, 0),
            "{at}: locality-aware must keep the chain in place"
        );
        assert!(
            loc.devices.iter().all(|&d| d == loc.devices[0]),
            "{at}: locality-aware moved the chain: {:?}",
            loc.devices
        );
        assert!(
            loc.makespan < rr.makespan,
            "{at}: locality {} must beat round-robin {}",
            loc.makespan,
            rr.makespan
        );
        if let Some(v) = y {
            assert!(rr.y.iter().all(|&e| e == v), "{at}: y is not {v}");
        }
        assert_eq!(rr.y, loc.y, "{at}: placement must not change results");
    }
}

#[test]
fn transfer_aware_beats_byte_count_locality_on_an_nvlink_pair() {
    // The tentpole acceptance check, on the `trajectory --smoke` topology
    // sweep's inputs: on the dependent transfer-chain workload over an
    // NVLink-pair machine, cost-aware placement must yield strictly
    // lower simulated makespan AND strictly fewer host-link bytes than
    // both round-robin and byte-count locality — while all three
    // compute identical results.
    let n = 1 << 18;
    let iters = 8;
    let run = |p| transfer_chain(p, TopologyKind::NvlinkPair, n, iters, Options::parallel());
    let rr = run(PlacementPolicy::RoundRobin);
    let loc = run(PlacementPolicy::LocalityAware);
    let ta = run(PlacementPolicy::TransferAware);
    for (name, r) in [("round-robin", &rr), ("locality", &loc), ("transfer", &ta)] {
        assert!(r.runtime.races().is_empty(), "{name} raced");
    }
    assert!(
        ta.makespan < loc.makespan,
        "transfer-aware must beat byte-count locality on makespan: {} vs {}",
        ta.makespan,
        loc.makespan
    );
    assert!(
        ta.makespan < rr.makespan,
        "transfer-aware must beat round-robin on makespan: {} vs {}",
        ta.makespan,
        rr.makespan
    );
    let host_bytes = |r: &Experiment| r.runtime.host_link_bytes();
    assert!(
        host_bytes(&ta) < host_bytes(&loc),
        "transfer-aware must move fewer bytes over the host links than \
         locality: {} vs {}",
        host_bytes(&ta),
        host_bytes(&loc)
    );
    assert!(
        host_bytes(&ta) < host_bytes(&rr),
        "transfer-aware must move fewer bytes over the host links than \
         round-robin: {} vs {}",
        host_bytes(&ta),
        host_bytes(&rr)
    );
    // Byte-count locality pays host-mediated round trips for the chain
    // state every iteration; cost-aware placement avoids migrating it at
    // all (it moves the host-backed input instead, one cheap leg).
    let loc_migrations = loc.runtime.migration_stats().0;
    assert!(loc_migrations >= iters, "locality ping-pongs the state");
    assert_eq!(
        ta.runtime.migration_stats(),
        (0, 0),
        "transfer-aware pins the state"
    );
    // Placement must never change the numbers.
    assert!(ta.same_answer(&rr));
    assert!(ta.same_answer(&loc));
}

#[test]
fn node_aware_beats_round_robin_across_a_cluster() {
    // The multi-node acceptance check, on the `trajectory --smoke`
    // cluster sweep's inputs (2 nodes × 4 GPUs) and on 2 × 2: on the
    // dependent-chain suite, partition-honoring NodeAware placement
    // must move strictly fewer cross-node bytes AND yield strictly
    // lower makespan than round-robin across all GPUs — while both
    // compute identical results. The partitioner keeps every chain a
    // node-local component, so NodeAware never touches a NIC at all;
    // round-robin rotates each chain across the node boundary and pays
    // a GPU→host→NIC→host→GPU route per step.
    for (nodes, gpus, n, steps) in [(2, 4, 1 << 16, 6), (2, 2, 4096, 6)] {
        let run = |policy| cluster_run(ClusterSuite::Chain, policy, nodes, gpus, n, steps);
        let na = run(PlacementPolicy::NodeAware);
        let rr = run(PlacementPolicy::RoundRobin);
        let at = format!("{nodes}x{gpus}");
        assert!(na.runtime.races().is_empty(), "{at}");
        assert!(rr.runtime.races().is_empty(), "{at}");
        let na_cross = na.runtime.cross_node_migration_stats();
        let rr_cross = rr.runtime.cross_node_migration_stats();
        assert_eq!(
            na_cross,
            (0, 0),
            "{at}: node-aware must keep partitioned chains off the NICs"
        );
        assert!(
            rr_cross.1 > 0,
            "{at}: round-robin must pay cross-node routes on the chain"
        );
        assert!(
            na.makespan < rr.makespan,
            "{at}: node-aware must yield strictly lower makespan: {} vs {}",
            na.makespan,
            rr.makespan
        );
        assert!(na.same_answer(&rr), "{at}: placement changed the numbers");
        // The partitioner runs only for a policy that reads node hints:
        // every NodeAware batch, no round-robin one.
        let batches = |r: &Experiment| r.runtime.scheduler_stats().cluster.partitioned_batches;
        assert_eq!(batches(&na), steps, "{at}");
        assert_eq!(batches(&rr), 0, "{at}");
    }
}

/// A policy that declares nothing (so the default: it reads every part
/// of the context) and records the node hint and transfer estimates it
/// is handed.
struct Recorder(Rc<RefCell<Vec<Seen>>>);

/// A node hint and the transfer estimates per device.
type Seen = (Option<u32>, Vec<f64>);

impl DeviceSelectionPolicy for Recorder {
    fn name(&self) -> &'static str {
        "recorder"
    }

    fn select(&mut self, ctx: &PlacementCtx) -> u32 {
        let seen = (ctx.node_hint, ctx.est_transfer_time.to_vec());
        self.0.borrow_mut().push(seen);
        0
    }
}

#[test]
fn a_custom_policy_is_handed_the_whole_context() {
    let seen = Rc::default();
    let policy: Box<dyn DeviceSelectionPolicy> = Box::new(Recorder(Rc::clone(&seen)));
    let dev = DeviceProfile::tesla_p100();
    let cluster = Cluster::new(2, 2, TopologyKind::PcieOnly, NicKind::InfinibandHdr);
    let g = GrCuda::with_topology(
        dev.clone(),
        cluster.build(&dev),
        Options::parallel(),
        policy,
    );
    let scale = g.build_kernel(&kernels::util::SCALE).unwrap();
    let arrays: Vec<DeviceArray> = (0..4).map(|_| g.array_f32(1 << 12)).collect();
    for a in &arrays {
        a.fill_f32(1.0);
    }
    let args = [
        double_args(&arrays[0], &arrays[1]),
        double_args(&arrays[2], &arrays[3]),
    ];
    let calls: Vec<BatchLaunch<'_>> = args
        .iter()
        .map(|args| BatchLaunch {
            kernel: &scale,
            grid: Grid::d1(16, 256),
            args,
        })
        .collect();
    g.launch_batch(&calls).unwrap();
    g.sync();
    let seen = seen.borrow();
    assert_eq!(seen.len(), 2);
    for (hint, est) in seen.iter() {
        assert!(hint.is_some(), "the batch was partitioned for it");
        assert!(
            est.len() == 4 && est.iter().all(|&t| t > 0.0),
            "host-written arguments priced on every device: {est:?}"
        );
    }
    let st = g.scheduler_stats();
    assert_eq!(st.cluster.partitioned_batches, 1);
    assert_eq!(st.placement_probes, 4, "two distinct arrays per call");
}

/// Every observable the committed bench metrics are built from, plus
/// the full timeline (every interval's ids, placement and exact times).
#[derive(Debug, PartialEq)]
struct Observables {
    makespan: f64,
    timeline: String,
    migrations: (usize, usize),
    host_migrations: (usize, usize),
    host_link_bytes: f64,
    data: Vec<f32>,
}

/// Drive the same small workload through any runtime and report every
/// observable the committed bench metrics are built from.
fn observables(g: GrCuda) -> Observables {
    let n = 1 << 14;
    let x = g.array_f32(n);
    let y = g.array_f32(n);
    x.copy_from_f32(&vec![1.5; n]);
    let scale = g.build_kernel(&kernels::util::SCALE).unwrap();
    for i in 0..6usize {
        let (src, dst) = if i.is_multiple_of(2) {
            (&x, &y)
        } else {
            (&y, &x)
        };
        scale
            .launch(Grid::d1(64, 256), &double_args(src, dst))
            .unwrap();
    }
    g.sync();
    assert_eq!(g.races().len(), 0);
    let (all, p2p) = (g.migration_stats(), g.p2p_migration_stats());
    Observables {
        makespan: g.now(),
        timeline: format!("{:?}", g.timeline().intervals()),
        migrations: all,
        host_migrations: (all.0 - p2p.0, all.1 - p2p.1),
        host_link_bytes: g.host_link_bytes(),
        data: x.to_vec_f32(),
    }
}

#[test]
fn single_node_clusters_are_bit_identical_to_the_single_box_path() {
    // Backward compatibility: a 1-node Cluster must take the exact
    // single-box code path — no partition pre-pass, no node hints —
    // and reproduce every committed metric bit-for-bit. The same rows
    // pin the constructor shims retained for `benchmark/`: each must be
    // bit-equal to `with_topology` on the equivalent `Topology`.
    let dev = DeviceProfile::tesla_p100;
    let opts = Options::parallel;
    for policy in [
        PlacementPolicy::RoundRobin,
        PlacementPolicy::TransferAware,
        PlacementPolicy::NodeAware,
    ] {
        let cluster = Cluster::new(1, 4, TopologyKind::NvlinkPair, NicKind::Ethernet25g);
        let boxed = observables(machine(4, TopologyKind::NvlinkPair, policy));
        let rows = [
            (
                "with_cluster",
                GrCuda::with_cluster(dev(), &cluster, opts(), policy),
            ),
            (
                "with_topology on Cluster::build",
                GrCuda::with_topology(dev(), cluster.build(&dev()), opts(), policy),
            ),
            (
                "with_placement_topo",
                GrCuda::with_placement_topo(
                    dev(),
                    4,
                    opts(),
                    policy.build(),
                    TopologyKind::NvlinkPair,
                ),
            ),
        ];
        for (constructor, g) in rows {
            assert_eq!(g.scheduler_stats().cluster.nodes, 1);
            assert_eq!(
                observables(g),
                boxed,
                "{policy:?}: {constructor} diverged from with_topology on the box preset"
            );
        }
    }
    let one = GrCuda::with_topology(
        dev(),
        Topology::pcie_only(1, &dev()),
        opts(),
        PlacementPolicy::SingleGpu,
    );
    assert_eq!(
        observables(GrCuda::new(dev(), opts())),
        observables(one),
        "GrCuda::new diverged from with_topology on the one-device box"
    );
}

#[test]
fn peer_links_accelerate_migration_heavy_schedules() {
    // Same policy, same DAG, different machine: a fully-connected
    // interconnect must strictly beat PCIe-only staging for a placement
    // that migrates every iteration, and its migrations must actually
    // ride the peer links.
    let n = 1 << 18;
    let run = |t| transfer_chain(PlacementPolicy::LocalityAware, t, n, 8, Options::parallel());
    let pcie = run(TopologyKind::PcieOnly);
    let nvswitch = run(TopologyKind::FullyConnected);
    assert!(
        pcie.runtime.migration_stats().0 > 0,
        "the workload must migrate under LA"
    );
    assert_eq!(pcie.runtime.p2p_migration_stats(), (0, 0));
    assert_eq!(
        nvswitch.runtime.p2p_migration_stats().0,
        nvswitch.runtime.migration_stats().0,
        "every migration uses a peer link when all pairs are wired"
    );
    assert!(
        nvswitch.makespan < pcie.makespan,
        "peer links must shorten the schedule: {} vs {}",
        nvswitch.makespan,
        pcie.makespan
    );
    assert!(nvswitch.runtime.host_link_bytes() < pcie.runtime.host_link_bytes());
    assert!(nvswitch.same_answer(&pcie));
}

#[test]
fn memory_aware_cost_aware_beats_transfer_aware_lru_when_oversubscribed() {
    // The tentpole acceptance check for finite device memory, at 2
    // passes (the `trajectory --smoke` oversubscription sweep's inputs)
    // and 4: with per-device capacity at roughly half the working set,
    // capacity-aware scheduling (MemoryAware placement + cost-aware
    // eviction) must yield strictly lower makespan AND strictly fewer
    // spilled bytes than capacity-blind scheduling (TransferAware +
    // LRU) — while both compute identical results.
    let n = 1 << 16;
    let cap = Some(oversub_capacity(n));
    for iters in [2, 4] {
        let run =
            |policy, eviction| oversubscribe(policy, eviction, cap, n, iters, Options::parallel());
        let aware = run(PlacementPolicy::MemoryAware, EvictionPolicy::CostAware);
        let blind = run(PlacementPolicy::TransferAware, EvictionPolicy::Lru);
        assert!(aware.runtime.races().is_empty(), "{iters} passes");
        assert!(blind.runtime.races().is_empty(), "{iters} passes");
        let (aware_memory, blind_memory) = (
            aware.runtime.scheduler_stats().memory,
            blind.runtime.scheduler_stats().memory,
        );
        assert!(
            blind_memory.evictions > 0 && blind_memory.spilled_bytes > 0,
            "{iters} passes: the workload must oversubscribe the capacity-blind schedule"
        );
        assert!(
            aware.makespan < blind.makespan,
            "{iters} passes: capacity-aware must yield strictly lower makespan: {} vs {}",
            aware.makespan,
            blind.makespan
        );
        assert!(
            aware_memory.spilled_bytes < blind_memory.spilled_bytes,
            "{iters} passes: capacity-aware must spill strictly fewer bytes: {} vs {}",
            aware_memory.spilled_bytes,
            blind_memory.spilled_bytes
        );
        // Capacity-blind placement chases the anchor onto one device and
        // thrashes it; capacity-aware spreads the working set.
        assert_eq!(
            blind_memory.peak_resident[1], 0,
            "{iters} passes: transfer-aware never leaves d0"
        );
        assert!(aware_memory.peak_resident.iter().all(|&p| p > 0));
        // Scheduling never changes the numbers.
        assert!(aware.same_answer(&blind), "{iters} passes");
    }
}

#[test]
fn cost_aware_eviction_spills_strictly_less_than_lru_at_fixed_placement() {
    // Isolate the eviction policy: same MemoryAware placement, same
    // capacity — cost-aware eviction prefers dropping clean read-only
    // weights (free, one cheap re-fetch) over spilling dirty states,
    // so its spill traffic must be strictly lower than LRU's.
    let n = 1 << 16;
    let cap = Some(oversub_capacity(n));
    let run = |ev| {
        oversubscribe(
            PlacementPolicy::MemoryAware,
            ev,
            cap,
            n,
            4,
            Options::parallel(),
        )
    };
    let cost = run(EvictionPolicy::CostAware);
    let lru = run(EvictionPolicy::Lru);
    let spilled = |r: &Experiment| r.runtime.scheduler_stats().memory.spilled_bytes;
    assert!(spilled(&lru) > 0, "LRU must pay dirty spills");
    assert!(
        spilled(&cost) < spilled(&lru),
        "cost-aware must spill strictly fewer bytes: {} vs {}",
        spilled(&cost),
        spilled(&lru)
    );
    assert!(cost.same_answer(&lru));
}

#[test]
fn unlimited_capacity_is_bit_identical_and_eviction_free() {
    // Backward compatibility: the default (unlimited) configuration
    // must never evict, never spill, and produce the same numbers as
    // any finite-capacity run.
    let n = 1 << 14;
    let run = |capacity| {
        oversubscribe(
            PlacementPolicy::MemoryAware,
            EvictionPolicy::CostAware,
            capacity,
            n,
            2,
            Options::parallel(),
        )
    };
    let unlimited = run(None);
    let memory = unlimited.runtime.scheduler_stats().memory;
    assert_eq!(memory.evictions, 0);
    assert_eq!(memory.spilled_bytes, 0);
    let limited = run(Some(oversub_capacity(n)));
    assert!(
        limited.runtime.scheduler_stats().memory.evictions > 0,
        "finite capacity must evict here"
    );
    assert!(unlimited.same_answer(&limited));
}

/// `sweeps` fork/join sweeps ([`common::ForkJoin`]) on `g`, one batch
/// each, three between syncs. Before each sweep one group gets a fresh
/// host input: the write waits for that group's pending kernels, so the
/// next batch is submitted while the rest of the previous one is still
/// running. Returns the races reported and every group's final source
/// value.
fn fork_join_sweeps(g: &GrCuda, groups: usize, sweeps: usize, n: usize) -> (usize, Vec<f32>) {
    let program = common::ForkJoin::new(g, groups, n);
    let batch = program.batch();
    for sweep in 0..sweeps {
        program.groups[(sweep * 5) % groups][0].fill_f32(0.5 + sweep as f32);
        g.launch_batch(&batch).unwrap();
        if sweep % 3 == 2 {
            g.sync();
        }
    }
    g.sync();
    let finals = program.groups.iter().map(|group| group[0].get_f32(0));
    (g.races().len(), finals.collect())
}

#[test]
fn evicting_a_refetched_array_keeps_its_in_flight_producer() {
    // Regression: device memory of 10 arrays under the 80 the kernels
    // write, everything on one GPU of a 2x8 cluster. An array is
    // spilled while the kernel writing it is still queued, fetched back
    // for its next reader, and dropped again (now a clean copy) before
    // any of that has run. The drop used to leave the array without a
    // producer, so the fetch for a second reader started beside the
    // kernel still writing it: a race under the parallel scheduler,
    // none under the serial one.
    let n = 1 << 12;
    let run = |options: Options| {
        let cluster = Cluster::new(2, 8, TopologyKind::NvlinkPair, NicKind::InfinibandHdr)
            .with_memory(
                MemoryConfig::with_capacity(10 * n * 4).with_eviction(EvictionPolicy::CostAware),
            );
        let dev = DeviceProfile::tesla_p100();
        let g = GrCuda::with_cluster(dev, &cluster, options, PlacementPolicy::SingleGpu);
        let out = fork_join_sweeps(&g, 16, 8, n);
        let memory = g.scheduler_stats().memory;
        assert!(memory.spilled_bytes > 0, "the written set must spill");
        out
    };
    let (serial_races, serial) = run(Options::serial());
    let (parallel_races, parallel) = run(Options::parallel());
    assert_eq!(serial_races, 0);
    assert_eq!(parallel_races, 0, "re-fetch must wait for the spill");
    assert_eq!(parallel, serial);
    assert!(serial.iter().all(|v| v.is_finite() && *v != 0.0));
}

#[test]
fn out_of_memory_is_a_loud_launch_error() {
    use kernels::util::SCALE;
    // 64 KiB capacity, 256 KiB arrays: no device can ever hold the
    // argument set — the launch must fail recoverably, not panic.
    let dev = DeviceProfile::tesla_p100();
    let topo = Topology::pcie_only(2, &dev).with_memory(MemoryConfig::with_capacity(64 << 10));
    let g = GrCuda::with_topology(dev, topo, Options::parallel(), PlacementPolicy::MemoryAware);
    let scale = g.build_kernel(&SCALE).unwrap();
    let n = 1 << 16;
    let x = g.array_f32(n);
    let y = g.array_f32(n);
    let err = scale
        .launch(Grid::d1(64, 256), &double_args(&x, &y))
        .unwrap_err();
    match err {
        grcuda::LaunchError::OutOfMemory {
            needed, capacity, ..
        } => {
            assert_eq!(needed, 2 * 4 * n);
            assert_eq!(capacity, 64 << 10);
        }
        other => panic!("expected OutOfMemory, got {other}"),
    }
    assert!(err.to_string().contains("out of memory"));
    // A fitting launch on the same runtime still works.
    let small = g.array_f32(1 << 10);
    let small2 = g.array_f32(1 << 10);
    scale
        .launch(Grid::d1(16, 256), &double_args(&small, &small2))
        .unwrap();
    g.sync();
    assert_eq!(g.races().len(), 0);
}

#[test]
fn a_batch_with_a_call_that_cannot_fit_enters_the_scheduler_not_at_all() {
    use grcuda::BatchLaunch;
    use kernels::util::SCALE;
    // Regression: the capacity check used to run per call at launch
    // time, so `[ok, ok, too-big]` came back `Err` with the first two
    // calls already in the DAG and on the engine.
    let dev = DeviceProfile::tesla_p100();
    let topo = Topology::pcie_only(2, &dev).with_memory(MemoryConfig::with_capacity(64 << 10));
    let g = GrCuda::with_topology(dev, topo, Options::parallel(), PlacementPolicy::MemoryAware);
    let scale = g.build_kernel(&SCALE).unwrap();
    let small: Vec<DeviceArray> = (0..4).map(|_| g.array_f32(1 << 10)).collect();
    let big: Vec<DeviceArray> = (0..2).map(|_| g.array_f32(1 << 16)).collect();
    small[0].fill_f32(3.0);
    small[2].fill_f32(5.0);
    let fits = [
        double_args(&small[0], &small[1]),
        double_args(&small[2], &small[3]),
    ];
    let too_big = double_args(&big[0], &big[1]);
    let call = |args, blocks| BatchLaunch {
        kernel: &scale,
        grid: Grid::d1(blocks, 256),
        args,
    };

    let before = (g.stats().submitted, g.scheduler_stats());
    let err = g
        .launch_batch(&[call(&fits[0], 4), call(&fits[1], 4), call(&too_big, 64)])
        .unwrap_err();
    assert!(
        matches!(err, grcuda::LaunchError::OutOfMemory { needed, .. } if needed == 2 * 4 * (1 << 16)),
        "{err}"
    );
    let after = (g.stats().submitted, g.scheduler_stats());
    assert_eq!(before, after, "nothing of the refused batch was scheduled");

    // The same runtime takes the batch without the bad call.
    g.launch_batch(&[call(&fits[0], 4), call(&fits[1], 4)])
        .unwrap();
    assert_eq!(small[1].get_f32(7), 6.0);
    assert_eq!(small[3].get_f32(7), 10.0);
    g.sync();
    assert_eq!(g.races().len(), 0);
}

#[test]
fn stream_aware_balances_an_embarrassingly_parallel_fanout() {
    // 8 independent pricing kernels on 4 devices: min-device-load
    // placement must reach every device and spread the work evenly.
    use kernels::black_scholes::BLACK_SCHOLES;
    let g = machine(4, TopologyKind::PcieOnly, PlacementPolicy::StreamAware);
    let bs = g.build_kernel(&BLACK_SCHOLES).unwrap();
    let n = 1 << 18;
    let mut counts = vec![0usize; 4];
    let mut prices = Vec::new();
    for _ in 0..8 {
        let x = g.array_f64(n);
        let y = g.array_f64(n);
        x.copy_from_f64(&vec![100.0; n]);
        let d = bs
            .launch_placed(
                Grid::d1(64, 256),
                &[
                    Arg::array(&x),
                    Arg::array(&y),
                    Arg::scalar(n as f64),
                    Arg::scalar(100.0),
                    Arg::scalar(0.02),
                    Arg::scalar(0.3),
                    Arg::scalar(1.0),
                ],
            )
            .unwrap();
        counts[d as usize] += 1;
        prices.push(y);
    }
    g.sync();
    assert_eq!(g.races().len(), 0);
    for y in &prices {
        assert!(
            y.to_vec_f64().iter().all(|&p| p > 0.0),
            "every option priced"
        );
    }
    assert!(
        counts.iter().all(|&c| c >= 1),
        "every device must carry work: {counts:?}"
    );
    let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
    assert!(
        max - min <= 1,
        "fan-out must balance across devices: {counts:?}"
    );
    // The balance shows on the per-device timeline gauges too.
    let timeline = g.timeline();
    let times: Vec<f64> = (0..g.device_count() as u32)
        .map(|d| timeline.device_span(d))
        .collect();
    assert_eq!(times.len(), 4);
    assert!(times.iter().all(|&t| t > 0.0), "{times:?}");
}

/// One run of the placement table: what ran, and its runtime's view.
struct Placed {
    at: String,
    policy: PlacementPolicy,
    races: usize,
    devices_used: Vec<u32>,
    migrations: usize,
    /// The verdict on the answer: bit-equal to the row's reference run,
    /// or for a suite to the sequential CPU reference.
    answer: Result<(), String>,
}

impl Placed {
    fn experiment(
        at: String,
        policy: PlacementPolicy,
        r: &Experiment,
        reference: &Experiment,
    ) -> Self {
        let answer = if r.same_answer(reference) {
            Ok(())
        } else {
            Err("changed the numbers".to_string())
        };
        Placed {
            at,
            policy,
            races: r.runtime.races().len(),
            devices_used: r.runtime.timeline().devices_used(),
            migrations: r.runtime.migration_stats().0,
            answer,
        }
    }
}

/// The transfer chain under every policy on every interconnect preset,
/// against one device over PCIe.
fn transfer_rows() -> Vec<Placed> {
    let run = |policy, topo| transfer_chain(policy, topo, 4096, 3, Options::parallel());
    let reference = run(PlacementPolicy::SingleGpu, TopologyKind::PcieOnly);
    let mut placed = Vec::new();
    for topo in TopologyKind::ALL {
        for policy in PlacementPolicy::ALL {
            let at = format!("transfer chain, {policy:?} on {topo:?}");
            placed.push(Placed::experiment(
                at,
                policy,
                &run(policy, topo),
                &reference,
            ));
        }
    }
    placed
}

/// The oversubscription suite under every eviction policy and four
/// placements at half the working set, against unlimited memory.
fn oversub_rows() -> Vec<Placed> {
    let n = 1 << 14;
    let run = |policy, eviction, capacity| {
        oversubscribe(policy, eviction, capacity, n, 2, Options::parallel())
    };
    let single = PlacementPolicy::SingleGpu;
    let reference = run(single, EvictionPolicy::Lru, None);
    let memory = reference.runtime.scheduler_stats().memory;
    assert_eq!(
        (memory.evictions, memory.spilled_bytes),
        (0, 0),
        "unlimited capacity never evicts"
    );
    let unlimited = "oversubscription, unlimited".to_string();
    let mut placed = vec![Placed::experiment(
        unlimited, single, &reference, &reference,
    )];
    for policy in [
        PlacementPolicy::MemoryAware,
        PlacementPolicy::TransferAware,
        PlacementPolicy::RoundRobin,
        PlacementPolicy::StreamAware,
    ] {
        for eviction in EvictionPolicy::ALL {
            let r = run(policy, eviction, Some(oversub_capacity(n)));
            let at = format!("oversubscription, {policy:?}/{eviction:?}");
            placed.push(Placed::experiment(at, policy, &r, &reference));
        }
    }
    placed
}

/// The fanout mix under every policy and its natural options, against
/// one device.
fn mixed_rows() -> Vec<Placed> {
    let run = |policy| {
        let options = Options::parallel().with_calibration(policy == PlacementPolicy::Adaptive);
        fanout_mix(policy, 1 << 15, 3, options)
    };
    let reference = run(PlacementPolicy::SingleGpu);
    assert_eq!(
        reference.runtime.calibration_stats().kernel_samples,
        0,
        "statics run uncalibrated"
    );
    let mut placed = Vec::new();
    for policy in PlacementPolicy::ALL {
        let at = format!("fanout mix, {policy:?}");
        placed.push(Placed::experiment(at, policy, &run(policy), &reference));
    }
    placed
}

/// Every cluster suite on 2 nodes of 2 GPUs under three policies,
/// against the first.
fn cluster_rows() -> Vec<Placed> {
    let mut placed = Vec::new();
    for suite in ClusterSuite::ALL {
        let run = |policy| cluster_run(suite, policy, 2, 2, 2048, 3);
        let reference = run(PlacementPolicy::NodeAware);
        for policy in [
            PlacementPolicy::NodeAware,
            PlacementPolicy::RoundRobin,
            PlacementPolicy::TransferAware,
        ] {
            let at = format!("cluster {}, {policy:?}", suite.name());
            placed.push(Placed::experiment(at, policy, &run(policy), &reference));
        }
    }
    placed
}

/// The six benchmark suites under every policy on three PCIe machines,
/// each run checked bit for bit against the sequential CPU reference
/// (`tests/scheduler_equivalence.rs` covers one device).
fn suite_rows() -> Vec<Placed> {
    let p100 = DeviceProfile::tesla_p100();
    let machines = [(&p100, 2), (&DeviceProfile::gtx1660_super(), 3), (&p100, 4)];
    let mut placed = Vec::new();
    for b in Bench::ALL {
        let spec = b.build(tiny(b));
        for (dev, n_dev) in machines {
            for policy in PlacementPolicy::ALL {
                let topo = Topology::pcie_only(n_dev, dev);
                let at = format!("{} on {n_dev} x {}, {policy:?}", spec.name, dev.name);
                let r = run_multi_gpu(&spec, dev, Options::parallel(), topo, policy, 2)
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                placed.push(Placed {
                    at,
                    policy,
                    races: r.races,
                    devices_used: r.timeline.devices_used(),
                    migrations: r.migrations.0,
                    answer: r.valid,
                });
            }
        }
    }
    placed
}

#[test]
fn placement_policies_compute_identical_results_on_every_suite() {
    // The acceptance bar of the unified scheduler: placement, eviction
    // and topology move work, never results. One table over the four
    // placement experiments and the six benchmark suites; every run is
    // race-free and bit-equal to its row's reference, and the
    // single-GPU policy keeps everything on device 0 of a bigger
    // machine without a migration.
    let rows: [fn() -> Vec<Placed>; 5] = [
        transfer_rows,
        oversub_rows,
        mixed_rows,
        cluster_rows,
        suite_rows,
    ];
    for row in rows {
        for run in row() {
            assert_eq!(run.races, 0, "{} raced", run.at);
            if let Err(e) = &run.answer {
                panic!("{}: {e}", run.at);
            }
            if run.policy == PlacementPolicy::SingleGpu {
                assert_eq!(run.devices_used, [0], "{}", run.at);
                assert_eq!(run.migrations, 0, "{}", run.at);
            }
        }
    }
}

#[test]
fn adaptive_matches_the_best_static_policy_on_every_suite_of_the_mixed_workload() {
    // The history loop's acceptance bar, on the `trajectory --smoke`
    // adaptive sweep's inputs: across a mixed workload (transfer chain
    // + oversubscription + fanout mix), the history-driven Adaptive
    // policy matches or beats the best static policy on *every* suite,
    // and no static policy manages the same — each one loses at least
    // one suite to Adaptive outright.
    let scale = MixedScale::smoke();
    let makespans = |p| mixed_runs(p, &scale).map(|(suite, r)| (suite, r.makespan));
    let adaptive = makespans(PlacementPolicy::Adaptive);
    let statics: Vec<(PlacementPolicy, [(&str, f64); 3])> = PlacementPolicy::STATIC
        .iter()
        .map(|&p| (p, makespans(p)))
        .collect();

    for (i, &(suite, a)) in adaptive.iter().enumerate() {
        let (best_policy, best) = statics
            .iter()
            .map(|&(p, m)| (p, m[i].1))
            .min_by(|x, y| x.1.total_cmp(&y.1))
            .unwrap();
        // "Matches" = within 2% (exact ties on chain/oversub, a strict
        // win on the fanout); the margin absorbs nothing structural.
        assert!(
            a <= best * 1.02,
            "{suite}: adaptive {:.3} ms vs best static {best_policy:?} {:.3} ms",
            a * 1e3,
            best * 1e3,
        );
    }

    // The fanout is the suite only history can win: every static loses
    // it to Adaptive by more than 5%.
    let fanout_adaptive = adaptive[2].1;
    for &(policy, m) in &statics {
        assert!(
            fanout_adaptive < m[2].1 * 0.95,
            "fanout: {policy:?} {:.3} ms should lose to adaptive {:.3} ms by >5%",
            m[2].1 * 1e3,
            fanout_adaptive * 1e3,
        );
    }

    // And no static policy matches Adaptive across the board: each one
    // is beaten by >2% on at least one suite.
    for &(policy, m) in &statics {
        let beaten = (0..adaptive.len()).any(|i| adaptive[i].1 < m[i].1 * 0.98);
        assert!(
            beaten,
            "{policy:?} was never beaten: static {m:?} vs adaptive {adaptive:?}"
        );
    }
}

#[test]
fn always_new_stream_policy_creates_more_streams() {
    let dev = DeviceProfile::tesla_p100();
    let spec = Bench::Bs.build(tiny(Bench::Bs) * 16);
    let fifo = run_grcuda(&spec, &dev, Options::parallel(), 2);
    let fresh = run_grcuda(
        &spec,
        &dev,
        Options::parallel().with_stream_reuse(StreamReusePolicy::AlwaysNew),
        2,
    );
    fifo.assert_ok();
    fresh.assert_ok();
    assert!(fresh.streams_used >= fifo.streams_used);
}
