//! Integration: the DAGs the scheduler *infers* from argument overlap
//! match the structures the paper draws in Fig. 6 — without ever being
//! told the plan's explicit edges.

use benchmarks::{tiny, Bench, PlanArg};
use gpu_sim::{DeviceProfile, Grid, TopologyKind};
use grcuda::{Arg, GrCuda, Options, PlacementPolicy, PrefetchPolicy};

/// Replay a benchmark through the scheduler and return (DAG size,
/// inferred edges as (from, to) pairs over op indices).
fn inferred_structure(b: Bench) -> (usize, Vec<(usize, usize)>) {
    let spec = b.build(tiny(b));
    let g = GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel());
    let arrays = benchmarks::grcuda_arrays(&g, &spec);
    // Vertex ids of kernel ops, in launch order. (CPU writes during
    // init may also appear in the DAG; we only map kernels.)
    let base = g.scheduler_stats().lifetime_vertices;
    for op in &spec.ops {
        let k = g.build_kernel(op.def).unwrap();
        let args: Vec<Arg> = op
            .args
            .iter()
            .map(|a| match a {
                PlanArg::Arr(i) => Arg::array(&arrays[*i]),
                PlanArg::Scalar(v) => Arg::scalar(*v),
            })
            .collect();
        k.launch(op.grid, &args).unwrap();
    }
    // Snapshot the DOT while the graph is live: `sync()` retires and
    // *compacts* the DAG, reclaiming the very structure we want to read.
    let dot = g.dag_dot("t");
    g.sync();
    // Parse edges "nA -> nB" back out of the DOT dump and keep those
    // between kernel vertices.
    let mut edges = Vec::new();
    for line in dot.lines() {
        if let Some((a, rest)) = line
            .trim()
            .strip_prefix('n')
            .and_then(|l| l.split_once(" -> n"))
        {
            let to: usize = rest
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .unwrap()
                .parse()
                .unwrap();
            let from: usize = a.parse().unwrap();
            if from >= base && to >= base {
                edges.push((from - base, to - base));
            }
        }
    }
    (g.scheduler_stats().lifetime_vertices, edges)
}

#[test]
fn vec_edges_match_fig4() {
    let (_, edges) = inferred_structure(Bench::Vec);
    // reduce (op 2) depends on both squares (ops 0 and 1); squares are
    // independent.
    assert!(edges.contains(&(0, 2)));
    assert!(edges.contains(&(1, 2)));
    assert!(!edges.contains(&(0, 1)) && !edges.contains(&(1, 0)));
}

#[test]
fn bs_has_no_edges_at_all() {
    let (_, edges) = inferred_structure(Bench::Bs);
    assert!(edges.is_empty(), "B&S kernels are independent: {edges:?}");
}

#[test]
fn inferred_edges_cover_every_planned_edge() {
    // The scheduler must discover at least the dependencies the plan
    // declares (it may add equivalent transitive edges but must never
    // miss a required ordering).
    for b in Bench::ALL {
        let spec = b.build(tiny(b));
        let (_, edges) = inferred_structure(b);
        for (i, op) in spec.ops.iter().enumerate() {
            for &d in &op.deps {
                let direct = edges.contains(&(d, i));
                let transitive = reachable(&edges, d, i);
                assert!(
                    direct || transitive,
                    "{}: planned edge {d} -> {i} not enforced (edges: {edges:?})",
                    b.name()
                );
            }
        }
    }
}

#[test]
fn ml_branches_share_no_edges_until_the_join() {
    let (_, edges) = inferred_structure(Bench::Ml);
    // RR branch ops: 0, 2, 4, 6; NB branch ops: 1, 3, 5, 7; join: 8.
    let rr = [0usize, 2, 4, 6];
    let nb = [1usize, 3, 5, 7];
    for &a in &rr {
        for &b in &nb {
            assert!(
                !edges.contains(&(a, b)) && !edges.contains(&(b, a)),
                "branches must be independent: found edge between {a} and {b}"
            );
        }
    }
    assert!(edges.contains(&(6, 8)) || reachable(&edges, 6, 8));
    assert!(edges.contains(&(7, 8)) || reachable(&edges, 7, 8));
}

fn reachable(edges: &[(usize, usize)], from: usize, to: usize) -> bool {
    let mut stack = vec![from];
    let mut seen = vec![from];
    while let Some(x) = stack.pop() {
        for &(a, b) in edges {
            if a == x && !seen.contains(&b) {
                if b == to {
                    return true;
                }
                seen.push(b);
                stack.push(b);
            }
        }
    }
    false
}

/// Library calls (§IV-A) are vertices like any kernel: a stream-aware
/// "cuBLAS-like" dot after a user kernel is chained through the array
/// they share.
#[test]
fn library_calls_mix_with_kernels_in_the_dag() {
    use kernels::util::{DOT, SCALE};
    let g = GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel());
    let grid = Grid::d1(64, 256);
    let n = 1 << 16;
    let x = g.array_f32(n);
    let y = g.array_f32(n);
    let out = g.array_f32(1);
    x.fill_f32(1.0);
    let scale = g.build_kernel(&SCALE).unwrap();
    let cublas_dot = g.register_library(&DOT, grid, true).unwrap();
    scale
        .launch(
            grid,
            &[
                Arg::array(&x),
                Arg::array(&y),
                Arg::scalar(3.0),
                Arg::scalar(n as f64),
            ],
        )
        .unwrap();
    cublas_dot
        .call(&[
            Arg::array(&x),
            Arg::array(&y),
            Arg::array(&out),
            Arg::scalar(n as f64),
        ])
        .unwrap();
    assert_eq!(out.get_f32(0), n as f32 * 3.0);
    assert!(g.races().is_empty());
}

/// A `scale` chain under round-robin placement on `topo`: kernel `i`
/// reads array `i`, writes array `i + 1` and lands on device `i`, so
/// every hop crosses whatever joins devices `i - 1` and `i`. Returns the
/// migration-stamped edge lines of the live DOT render.
fn chain_migration_edges(topo: &gpu_sim::Topology, prefetch: PrefetchPolicy) -> Vec<String> {
    let n = 1 << 10; // 4 KiB per array
    let g = GrCuda::with_topology(
        DeviceProfile::tesla_p100(),
        topo.clone(),
        Options::parallel().with_prefetch(prefetch),
        PlacementPolicy::RoundRobin,
    );
    let scale = g.build_kernel(&kernels::util::SCALE).unwrap();
    let hops = topo.device_count();
    let arrays: Vec<_> = (0..=hops).map(|_| g.array_f32(n)).collect();
    for i in 0..hops {
        let args = [
            Arg::array(&arrays[i]),
            Arg::array(&arrays[i + 1]),
            Arg::scalar(2.0),
            Arg::scalar(n as f64),
        ];
        let placed = scale.launch_placed(Grid::d1(4, 256), &args).unwrap();
        assert_eq!(placed as usize, i, "round-robin walks the devices");
    }
    let dot = g.dag_dot("chain");
    g.sync();
    assert!(g.races().is_empty());
    dot.lines()
        .filter(|l| l.contains("migrated"))
        .map(|l| l.trim().to_string())
        .collect()
}

#[test]
fn nvlink_pair_dot_labels_p2p_and_host_staged_hops() {
    // d0-d1 and d2-d3 are linked; d1→d2 must stage through the host.
    let dev = DeviceProfile::tesla_p100();
    let topo = gpu_sim::Topology::preset(TopologyKind::NvlinkPair, 4, &dev);
    // Prefetch and launch-time fault migrations take the same routes.
    for prefetch in [PrefetchPolicy::Auto, PrefetchPolicy::None] {
        assert_eq!(
            chain_migration_edges(&topo, prefetch),
            [
                r#"n0 -> n1 [label="v1\n4.0 KiB migrated (p2p)", style=bold, color=blue];"#,
                r#"n1 -> n2 [label="v2\n4.0 KiB migrated (via host)", style=bold, color=red];"#,
                r#"n2 -> n3 [label="v3\n4.0 KiB migrated (p2p)", style=bold, color=blue];"#,
            ],
            "{prefetch:?}"
        );
    }
}

#[test]
fn cluster_dot_labels_p2p_host_staged_and_cross_node_hops() {
    // 2 nodes × 3 GPUs, NVLink pairs inside each node: d0-d1 linked,
    // d2 alone on node 0; d3-d4 linked, d5 alone on node 1.
    let dev = DeviceProfile::tesla_p100();
    let topo = gpu_sim::Cluster::new(
        2,
        3,
        TopologyKind::NvlinkPair,
        gpu_sim::NicKind::InfinibandHdr,
    )
    .build(&dev);
    for prefetch in [PrefetchPolicy::Auto, PrefetchPolicy::None] {
        assert_eq!(
            chain_migration_edges(&topo, prefetch),
            [
                r#"n0 -> n1 [label="v1\n4.0 KiB migrated (p2p)", style=bold, color=blue];"#,
                r#"n1 -> n2 [label="v2\n4.0 KiB migrated (via host)", style=bold, color=red];"#,
                r#"n2 -> n3 [label="v3\n4.0 KiB migrated (cross-node)", style=bold, color=magenta];"#,
                r#"n3 -> n4 [label="v4\n4.0 KiB migrated (p2p)", style=bold, color=blue];"#,
                r#"n4 -> n5 [label="v5\n4.0 KiB migrated (via host)", style=bold, color=red];"#,
            ],
            "{prefetch:?}"
        );
    }
}
