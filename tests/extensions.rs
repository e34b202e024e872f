//! Integration tests for the paper's future-work extensions implemented
//! here: the block-size autotuner (§VI / §IV-A kernel history) and the
//! multi-GPU scheduler (§VI).

use gpu_sim::{DeviceProfile, Grid, Topology};
use grcuda::{Arg, DeviceArray, GrCuda, Options, PlacementPolicy};
use kernels::util::SCALE;
use kernels::vec_ops::SQUARE;

/// `n` devices over host (PCIe) links only.
fn machine(dev: DeviceProfile, n: usize, policy: PlacementPolicy) -> GrCuda {
    let topo = Topology::pcie_only(n, &dev);
    GrCuda::with_topology(dev, topo, Options::parallel(), policy)
}

const GRID: Grid = Grid {
    blocks: (64, 1, 1),
    threads: (256, 1, 1),
};

/// SCALE's `(src, dst, factor, n)` arguments.
fn scale_args(src: &DeviceArray, dst: &DeviceArray, factor: f64) -> [Arg; 4] {
    [
        Arg::array(src),
        Arg::array(dst),
        Arg::scalar(factor),
        Arg::scalar(src.len() as f64),
    ]
}

#[test]
fn autotuner_explores_then_converges() {
    let g = GrCuda::new(DeviceProfile::gtx1660_super(), Options::parallel());
    let n = 1 << 22;
    let x = g.array_f32(n);
    x.fill_f32(1.0);
    let sq = g.build_kernel(&SQUARE).unwrap();

    let mut chosen = Vec::new();
    // Exploration phase: 6 candidate block sizes.
    for _ in 0..6 {
        let grid = sq
            .launch_autotuned(64, &[Arg::array(&x), Arg::scalar(n as f64)])
            .unwrap();
        chosen.push(grid.threads.0);
        g.sync(); // the kernel completes: its measurement is recorded
    }
    let mut explored = chosen.clone();
    explored.sort_unstable();
    explored.dedup();
    assert_eq!(
        explored.len(),
        6,
        "all candidates must be explored once: {chosen:?}"
    );

    // Exploitation phase: converges to a single choice...
    let grid = sq
        .launch_autotuned(64, &[Arg::array(&x), Arg::scalar(n as f64)])
        .unwrap();
    g.sync();
    let exploit = grid.threads.0;
    // (the extra sample may shift means among near-ties, so compare the
    // exploit choice against the recorded means rather than demanding
    // it stays the argmin forever)
    // ...and the choice is sane: with 64 blocks fixed, larger blocks fill
    // the machine better, so the winner must not be the smallest.
    assert!(
        exploit >= 128,
        "autotuner picked a degenerate block size {exploit}"
    );

    // And the tuned configuration is at least as fast as the worst one.
    let worst = gpu_sim::CANDIDATE_BLOCK_SIZES
        .iter()
        .filter_map(|&b| g.mean_kernel_duration("square", b, n))
        .fold(0.0f64, f64::max);
    let best = g.mean_kernel_duration("square", exploit, n).unwrap();
    assert!(best <= worst + 1e-12);
}

#[test]
fn history_tracks_per_kernel_samples() {
    let g = GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel());
    let n = 1 << 16;
    let x = g.array_f32(n);
    let y = g.array_f32(n);
    let sc = g.build_kernel(&SCALE).unwrap();
    assert_eq!(g.history_samples("scale"), 0);
    for _ in 0..3 {
        sc.launch(
            gpu_sim::Grid::d1(64, 256),
            &[
                Arg::array(&x),
                Arg::array(&y),
                Arg::scalar(2.0),
                Arg::scalar(n as f64),
            ],
        )
        .unwrap();
        g.sync();
    }
    assert_eq!(g.history_samples("scale"), 3);
}

#[test]
fn multi_gpu_locality_beats_round_robin_on_chains() {
    // A long dependent chain: locality-aware stays put; round-robin
    // ping-pongs the data between devices and pays migrations.
    let run = |policy: PlacementPolicy| -> (f64, usize) {
        let g = machine(DeviceProfile::tesla_p100(), 2, policy);
        let scale = g.build_kernel(&SCALE).unwrap();
        let n = 1 << 20;
        let x = g.array_f32(n);
        let y = g.array_f32(n);
        x.copy_from_f32(&vec![1.0; n]);
        for i in 0..6 {
            let (src, dst) = if i % 2 == 0 { (&x, &y) } else { (&y, &x) };
            scale.launch(GRID, &scale_args(src, dst, 1.01)).unwrap();
        }
        g.sync();
        assert!(g.races().is_empty());
        (g.now(), g.migration_stats().0)
    };
    let (t_local, m_local) = run(PlacementPolicy::LocalityAware);
    let (t_rr, m_rr) = run(PlacementPolicy::RoundRobin);
    assert_eq!(m_local, 0);
    assert!(m_rr >= 3, "round-robin must migrate: {m_rr}");
    assert!(
        t_local < t_rr,
        "locality {t_local} must beat round-robin {t_rr}"
    );
}

#[test]
fn multi_gpu_results_are_policy_independent() {
    let run = |policy: PlacementPolicy| -> Vec<f32> {
        let g = machine(DeviceProfile::gtx1660_super(), 3, policy);
        let scale = g.build_kernel(&SCALE).unwrap();
        let n = 4096;
        let x = g.array_f32(n);
        let y = g.array_f32(n);
        x.copy_from_f32(&(0..n).map(|i| i as f32 * 0.5).collect::<Vec<_>>());
        for _ in 0..4 {
            scale.launch(GRID, &scale_args(&x, &y, 2.0)).unwrap();
            scale.launch(GRID, &scale_args(&y, &x, 0.5)).unwrap();
        }
        g.sync();
        x.to_vec_f32()
    };
    let a = run(PlacementPolicy::SingleGpu);
    let b = run(PlacementPolicy::RoundRobin);
    let c = run(PlacementPolicy::LocalityAware);
    assert_eq!(a, b, "round-robin must compute the same result");
    assert_eq!(a, c, "locality-aware must compute the same result");
}
