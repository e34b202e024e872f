//! Integration: scheduler memory is O(live computations), not
//! O(lifetime launches).
//!
//! Miniature of the bench trajectory's `soak` suite (`cargo run
//! --release -p bench --bin trajectory -- soak`): repeated launch/sync
//! cycles across real benchmark suites must leave every scheduler-side
//! map and the DAG's stored vertex set bounded by the live frontier,
//! while the lifetime counters keep growing.

mod common;

use benchmarks::{grcuda_arrays, read_grcuda_outputs, refresh_grcuda_arrays, tiny, Bench, PlanArg};
use common::assert_drained;
use gpu_sim::{DeviceProfile, Grid, MemoryConfig, Topology};
use grcuda::{Arg, DeviceArray, GrCuda, Options, PlacementPolicy};
use kernels::util::SCALE;
use kernels::vec_ops::SQUARE;

/// Two Tesla P100s over PCIe with the given device memory.
fn machine(memory: MemoryConfig, policy: PlacementPolicy) -> GrCuda {
    let dev = DeviceProfile::tesla_p100();
    let topo = Topology::pcie_only(2, &dev).with_memory(memory);
    GrCuda::with_topology(dev, topo, Options::parallel(), policy)
}

const GRID: Grid = Grid {
    blocks: (16, 1, 1),
    threads: (256, 1, 1),
};

/// SCALE's `(src, dst, 1.0, n)` arguments.
fn copy_args(src: &DeviceArray, dst: &DeviceArray) -> [Arg; 4] {
    [
        Arg::array(src),
        Arg::array(dst),
        Arg::scalar(1.0),
        Arg::scalar(src.len() as f64),
    ]
}

/// Drive `cycles` passes of a suite on `g`: fresh inputs, the kernel
/// chain, the output reads, then a `sync()` when `sync` is set. Every
/// cycle must end at the empty-frontier baseline. Returns the peak
/// stored-vertex count observed.
fn soak(g: &GrCuda, b: Bench, cycles: usize, sync: bool) -> usize {
    let spec = b.build(tiny(b));
    let arrays = grcuda_arrays(g, &spec);
    let kernels: Vec<_> = spec
        .ops
        .iter()
        .map(|op| g.build_kernel(op.def).unwrap())
        .collect();
    let mut peak_stored = 0;
    let mut launches = 0usize;
    for cycle in 0..cycles {
        refresh_grcuda_arrays(&spec, &arrays);
        for (op, k) in spec.ops.iter().zip(&kernels) {
            let args: Vec<Arg> = op
                .args
                .iter()
                .map(|a| match a {
                    PlanArg::Arr(i) => Arg::array(&arrays[*i]),
                    PlanArg::Scalar(v) => Arg::scalar(*v),
                })
                .collect();
            k.launch(op.grid, &args).unwrap();
            launches += 1;
            peak_stored = peak_stored.max(g.snapshot().stored_vertices);
        }
        let ctx = format!("{} cycle {cycle}", spec.name);
        assert!(g.snapshot().live_vertices > 0, "{ctx}: DAG is live");
        read_grcuda_outputs(&spec, &arrays);
        if sync {
            g.sync();
        }
        g.clear_timeline();
        assert_drained(g, &ctx);
    }
    let st = g.snapshot();
    assert!(
        st.lifetime_vertices >= launches,
        "{}: lifetime counter kept the full story",
        spec.name
    );
    assert!(g.races().is_empty(), "{}", spec.name);
    peak_stored
}

/// A soak row: a name, a fresh machine per suite, the suites, cycles,
/// and whether a cycle ends with `sync()`.
type Soak = (&'static str, fn() -> GrCuda, &'static [Bench], usize, bool);

#[test]
fn every_suite_keeps_scheduler_state_bounded() {
    // Repeated launch/read/sync cycles of real suites leave every
    // scheduler-side map and the DAG's stored vertex set back at the
    // empty-frontier baseline, whatever the machine and the placement
    // policy: one GPU; two under three policies (the vertex→device
    // placements drain too); and a Maxwell GPU without the visibility
    // restriction, where no `sync()` is called and the output read's
    // full device sync is what retires the cycle.
    const PAIR: &[Bench] = &[Bench::Vec, Bench::Ml];
    let rows: [Soak; 5] = [
        (
            "P100",
            || GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel()),
            &Bench::ALL,
            25,
            true,
        ),
        (
            "2 x P100, round-robin",
            || machine(MemoryConfig::default(), PlacementPolicy::RoundRobin),
            PAIR,
            20,
            true,
        ),
        (
            "2 x P100, locality-aware",
            || machine(MemoryConfig::default(), PlacementPolicy::LocalityAware),
            PAIR,
            20,
            true,
        ),
        (
            "2 x P100, stream-aware",
            || machine(MemoryConfig::default(), PlacementPolicy::StreamAware),
            PAIR,
            20,
            true,
        ),
        (
            "GTX 960, full-sync reads",
            || {
                GrCuda::new(
                    DeviceProfile::gtx960(),
                    Options::parallel().with_visibility_restriction(false),
                )
            },
            &[Bench::Vec],
            25,
            false,
        ),
    ];
    for (name, machine, benches, cycles, sync) in rows {
        for &b in benches {
            let peak = soak(&machine(), b, cycles, sync);
            // Between syncs at most one cycle of ops is stored (live
            // chain + retired garbage below the compaction threshold).
            let bound = 2 * b.build(tiny(b)).ops.len() + 70;
            assert!(
                peak <= bound,
                "{name} {b:?}: peak stored vertices {peak} exceeds bound {bound}"
            );
        }
    }
}

#[test]
fn fine_grained_service_loop_stays_bounded_without_full_syncs() {
    // A request loop that *never* calls sync(): each request's CPU read
    // retires its chain, and auto-compaction must keep storage flat.
    // Two rows: SCALE from x into y, read from y; and SQUARE of x in
    // place, read from x.
    let n = 1 << 12;
    for (in_place, requests) in [(false, 400), (true, 300)] {
        let g = GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel());
        let x = g.array_f32(n);
        let y = g.array_f32(n);
        let (def, out, args) = if in_place {
            (&SQUARE, &x, vec![Arg::array(&x), Arg::scalar(n as f64)])
        } else {
            let scalars = [Arg::scalar(2.0), Arg::scalar(n as f64)];
            (
                &SCALE,
                &y,
                [Arg::array(&x), Arg::array(&y)]
                    .into_iter()
                    .chain(scalars)
                    .collect(),
            )
        };
        let kernel = g.build_kernel(def).unwrap();
        let mut peak_stored = 0;
        for req in 0..requests {
            let v = req as f32;
            x.fill_f32(v);
            kernel.launch(gpu_sim::Grid::d1(16, 256), &args).unwrap();
            let want = if in_place { v * v } else { 2.0 * v };
            assert_eq!(out.get_f32(7), want, "{}: req {req}", def.name);
            let st = g.snapshot();
            peak_stored = peak_stored.max(st.stored_vertices);
            assert_eq!(
                g.calibration(|c| c.history_samples(def.name)),
                req + 1,
                "req {req}: the read completed the kernel, so its sample is in"
            );
            assert_eq!(st.vertex_tasks, 0, "req {req}: chain retired on read");
            assert_eq!(st.stream_claims, 0, "req {req}");
            assert!(
                st.engine.retained_tasks <= 16,
                "req {req}: engine retains completed task states on the \
                 fine-grained path: {}",
                st.engine.retained_tasks
            );
        }
        let st = g.snapshot();
        assert!(
            st.lifetime_vertices >= 2 * requests,
            "launches + modeled accesses"
        );
        assert!(
            peak_stored <= 80,
            "{}: auto-compaction failed: peak stored {peak_stored}",
            def.name
        );
        assert!(g.races().is_empty());
        g.sync();
        assert_drained(&g, def.name);
    }
}

#[test]
fn serial_mode_launch_loop_records_every_sample_and_keeps_no_metadata() {
    // The paper's serial baseline never builds a DAG and never calls
    // sync(), but every launch blocks until its kernel completes — and
    // completion is what records the history sample.
    let g = GrCuda::new(DeviceProfile::tesla_p100(), Options::serial());
    let n = 1 << 12;
    let x = g.array_f32(n);
    let y = g.array_f32(n);
    let sc = g.build_kernel(&SCALE).unwrap();
    let grid = gpu_sim::Grid::d1(16, 256);
    for req in 0..400 {
        x.fill_f32(req as f32);
        sc.launch(
            grid,
            &[
                Arg::array(&x),
                Arg::array(&y),
                Arg::scalar(2.0),
                Arg::scalar(n as f64),
            ],
        )
        .unwrap();
        assert_eq!(
            g.calibration(|c| c.history_samples("scale")),
            req + 1,
            "launch {req} blocked"
        );
        assert_eq!(y.get_f32(7), 2.0 * req as f32);
    }
    assert_eq!(g.calibration(|c| c.history_samples("scale")), 400);
}

#[test]
fn history_is_bounded_by_configurations_not_by_launches() {
    // A completed kernel adds one history sample, however the program
    // waits for it: 10 000 launches of one kernel at one grid, all of
    // them in a single (block size, size bucket) cell, beside a second
    // signature. The store's size is asserted where it is visible, in
    // `crates/gpu-sim/src/calibrate.rs`'s tests; here the whole stack
    // must agree on the count through sync's retire and compaction, a
    // fine-grained read and a cleared timeline.
    let g = GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel());
    let n = 1 << 8;
    let sq = g.build_kernel(&SQUARE).unwrap();
    let sc = g.build_kernel(&SCALE).unwrap();
    let x = g.array_f32(n);
    let y = g.array_f32(n);
    let grid = gpu_sim::Grid::d1(1, 256);
    assert_eq!(
        g.calibration(|c| c.history_samples("square")),
        0,
        "nothing completed yet"
    );
    let mut durations = Vec::new();
    for round in 0..100 {
        // The squares overwrite what SCALE reads, so they wait for it,
        // and a read of x waits for all of the round.
        sc.launch(grid, &copy_args(&x, &y)).unwrap();
        for _ in 0..100 {
            sq.launch(grid, &[Arg::array(&x), Arg::scalar(n as f64)])
                .unwrap();
        }
        // Alternate the two ways a program waits for its kernels.
        if round % 2 == 0 {
            g.sync();
        } else {
            let _ = x.get_f32(0);
        }
        let timeline = g.timeline();
        let squares = timeline.kernels().filter(|iv| iv.label == "square");
        durations.extend(squares.map(|iv| iv.duration()));
        g.clear_timeline();
        assert_eq!(
            g.calibration(|c| c.history_samples("square")),
            100 * (round + 1)
        );
        assert_eq!(
            g.calibration(|c| c.history_samples("scale")),
            round + 1,
            "split by signature"
        );
    }
    assert_eq!(g.calibration(|c| c.history_samples("square")), 10_000);
    assert_eq!(g.calibration(|c| c.best_block_size("square", n)), Some(256));
    for other in [32, 64, 128, 512, 1024] {
        assert_eq!(g.calibration(|c| c.mean_duration("square", other, n)), None);
    }
    // The cell keeps the per-sample mean, not a sum.
    let mean = g
        .calibration(|c| c.mean_duration("square", 256, n))
        .unwrap();
    let (lo, hi) = durations
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &d| (lo.min(d), hi.max(d)));
    assert_eq!(durations.len(), 10_000);
    assert!(
        lo * (1.0 - 1e-9) <= mean && mean <= hi * (1.0 + 1e-9),
        "mean {mean} outside the samples' [{lo}, {hi}]"
    );
}

#[test]
fn finite_memory_soak_drains_to_the_live_working_set() {
    // The `memory` section of the snapshot under a finite capacity:
    // across launch/sync cycles over an oversubscribed working set, the
    // per-device resident bytes must never exceed the capacity, and
    // after every sync() they must be bounded by the live working set
    // (what the program's arrays could occupy at most) — eviction keeps
    // the resident set honest, and nothing leaks cycle over cycle.
    use gpu_sim::EvictionPolicy;

    let n = 1 << 12; // 16 KiB arrays
    let bytes = 4 * n;
    let capacity = 2 * bytes + bytes / 2; // 2.5 arrays per device
    let m = machine(
        MemoryConfig::with_capacity(capacity).with_eviction(EvictionPolicy::CostAware),
        PlacementPolicy::MemoryAware,
    );
    let scale = m.build_kernel(&SCALE).unwrap();
    // 6 arrays = 96 KiB working set vs 40 KiB per-device capacity.
    let arrays: Vec<_> = (0..6).map(|_| m.array_f32(n)).collect();
    let working_set: usize = arrays.iter().map(|a| a.byte_len()).sum();
    for (i, a) in arrays.iter().enumerate() {
        a.copy_from_f32(&vec![i as f32; n]);
    }
    let mut last_evictions = 0;
    for cycle in 0..15 {
        for i in 0..arrays.len() {
            let (src, dst) = (&arrays[i], &arrays[(i + 1) % arrays.len()]);
            scale.launch(GRID, &copy_args(src, dst)).unwrap();
            let mem = m.snapshot().memory;
            for (d, &r) in mem.resident_bytes.iter().enumerate() {
                assert!(r <= capacity, "cycle {cycle}: device {d} over capacity");
            }
        }
        m.sync();
        m.clear_timeline();
        let st = m.snapshot();
        let ctx = format!("cycle {cycle}: {:?}", st.memory);
        // Everything per-vertex drained, as always...
        assert_drained(&m, &ctx);
        // ...and the memory section drains to the live working set:
        // what remains resident is real array data, within capacity.
        assert_eq!(st.memory.capacity, Some(capacity), "{ctx}");
        let resident: usize = st.memory.resident_bytes.iter().sum();
        assert!(resident <= working_set, "{ctx}");
        for (d, &r) in st.memory.resident_bytes.iter().enumerate() {
            assert!(r <= capacity, "{ctx}: device {d}");
            assert!(st.memory.peak_resident[d] <= capacity, "{ctx}: device {d}");
        }
        assert!(st.memory.evictions >= last_evictions, "monotone counter");
        last_evictions = st.memory.evictions;
    }
    assert!(last_evictions > 0, "the working set must have evicted");
    assert!(m.races().is_empty());
}

#[test]
fn cluster_soak_drains_the_cluster_section_after_every_sync() {
    // The multi-node path: repeated partitioned batch rounds on a
    // 2-node cluster must leave the cluster section of the snapshot
    // drained after each sync — per-node in-flight work back to zero —
    // while the partition and cross-node counters stay monotone.
    use gpu_sim::{Cluster, NicKind, TopologyKind};
    use grcuda::BatchLaunch;

    let cluster = Cluster::new(2, 2, TopologyKind::PcieOnly, NicKind::Ethernet25g);
    let m = GrCuda::with_cluster(
        DeviceProfile::tesla_p100(),
        &cluster,
        Options::parallel(),
        PlacementPolicy::NodeAware,
    );
    let scale = m.build_kernel(&SCALE).unwrap();
    let n = 1 << 12;
    let pairs: Vec<_> = (0..4).map(|_| (m.array_f32(n), m.array_f32(n))).collect();
    for (x, _) in &pairs {
        x.copy_from_f32(&vec![1.0; n]);
    }
    let mut last_batches = 0;
    for cycle in 0..20 {
        let args: Vec<[Arg; 4]> = pairs
            .iter()
            .map(|(x, y)| {
                if cycle % 2 == 0 {
                    copy_args(x, y)
                } else {
                    copy_args(y, x)
                }
            })
            .collect();
        let calls: Vec<BatchLaunch<'_>> = args
            .iter()
            .map(|args| BatchLaunch {
                kernel: &scale,
                grid: GRID,
                args,
            })
            .collect();
        m.launch_batch(&calls).unwrap();
        m.sync();
        m.clear_timeline();
        let st = m.snapshot();
        let ctx = format!("cycle {cycle}: {:?}", st.cluster);
        assert_eq!(st.cluster.node_inflight, vec![0, 0], "{ctx}");
        assert_drained(&m, &ctx);
        assert!(st.cluster.partitioned_batches > last_batches, "{ctx}");
        last_batches = st.cluster.partitioned_batches;
        assert_eq!(
            st.migrations.cross_node.bytes, 0,
            "{ctx}: node-local components never cross the NICs"
        );
    }
    assert_eq!(last_batches, 20);
    assert!(m.races().is_empty());
}

#[test]
fn sync_after_heavy_traffic_resets_to_empty_frontier_baseline() {
    let g = GrCuda::new(DeviceProfile::gtx1660_super(), Options::parallel());
    let n = 1 << 10;
    let sq = g.build_kernel(&SQUARE).unwrap();
    let arrays: Vec<_> = (0..4).map(|_| g.array_f32(n)).collect();
    for _ in 0..250 {
        for a in &arrays {
            sq.launch(
                gpu_sim::Grid::d1(4, 256),
                &[Arg::array(a), Arg::scalar(n as f64)],
            )
            .unwrap();
        }
        g.sync();
    }
    assert_eq!(g.snapshot().lifetime_vertices, 1000);
    assert_drained(&g, "after 250 rounds");
    // History survived the whole run (no samples lost).
    g.clear_timeline();
    assert_eq!(g.calibration(|c| c.history_samples("square")), 1000);
}
