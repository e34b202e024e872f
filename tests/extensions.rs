//! Integration test for the paper's future-work block-size autotuner
//! (§VI / §IV-A kernel history). The multi-GPU scheduler (§VI) is
//! `tests/policies.rs`'s.

use gpu_sim::DeviceProfile;
use grcuda::{Arg, GrCuda, Options};
use kernels::vec_ops::SQUARE;

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
