//! What more than one integration test needs: the scheduler's drained
//! state ([`assert_drained`]) and a batch with cross-group traffic
//! ([`ForkJoin`]). Each test binary compiles this module and uses part
//! of it.
//!
//! The fork/join program is modelled on one sweep of `fork_join` in
//! `benchmark/src/gen.rs` (the `placement_cluster` workload), which this
//! package cannot depend on: same five launches per group, without the
//! read-only arrays, and with a fixed partner formula where the
//! benchmark draws partners from its seeded generator. The tests that
//! use it assert on their own runs, not on agreement with the benchmark,
//! so the two may differ.
#![allow(dead_code)]

use gpu_sim::Grid;
use grcuda::{Arg, BatchLaunch, DeviceArray, GrCuda, Kernel};
use kernels::util::{JOIN, SCALE};

/// `groups` fork/join groups over arrays of `n` floats. A sweep is one
/// batch of `5 * groups` launches: every group forks its source into
/// two arms and joins them; then every group joins its join with
/// another group's — so each join array has two late readers — and
/// folds the result back into its source.
pub struct ForkJoin {
    /// Per group: source, two arms, join, cross-group join — the arrays
    /// the kernels write.
    pub groups: Vec<[DeviceArray; 5]>,
    scale: Kernel,
    join: Kernel,
    /// `(is a join, arguments)` per launch of a sweep.
    calls: Vec<(bool, Vec<Arg>)>,
}

impl ForkJoin {
    pub fn new(g: &GrCuda, groups: usize, n: usize) -> Self {
        let arrays: Vec<[DeviceArray; 5]> = (0..groups)
            .map(|i| {
                let group = [(); 5].map(|_| g.array_f32(n));
                group[0].fill_f32(1.0 + i as f32);
                group
            })
            .collect();

        let len = || Arg::scalar(n as f64);
        let scale = |src: &DeviceArray, dst: &DeviceArray| {
            let args = vec![Arg::array(src), Arg::array(dst), Arg::scalar(0.5), len()];
            (false, args)
        };
        let join = |a: &DeviceArray, b: &DeviceArray, out: &DeviceArray| {
            let arrays = [Arg::array(a), Arg::array(b), Arg::array(out)];
            (true, [&arrays[..], &[len(), len(), len()]].concat())
        };
        let mut calls = Vec::with_capacity(5 * groups);
        for [src, a, b, j, _] in &arrays {
            calls.push(scale(src, a));
            calls.push(scale(src, b));
            calls.push(join(a, b, j));
        }
        for (i, [src, _, _, j, x]) in arrays.iter().enumerate() {
            let partner = &arrays[(i + 1 + (i * 7 + 3) % (groups - 1)) % groups][3];
            calls.push(join(j, partner, x));
            calls.push(scale(x, src));
        }
        ForkJoin {
            groups: arrays,
            scale: g.build_kernel(&SCALE).unwrap(),
            join: g.build_kernel(&JOIN).unwrap(),
            calls,
        }
    }

    /// One sweep, ready for `GrCuda::launch_batch`.
    pub fn batch(&self) -> Vec<BatchLaunch<'_>> {
        self.calls
            .iter()
            .map(|(is_join, args)| BatchLaunch {
                kernel: if *is_join { &self.join } else { &self.scale },
                grid: Grid::d1(16, 256),
                args,
            })
            .collect()
    }
}

/// Panic, naming `ctx`, unless the scheduler is back to its
/// empty-frontier baseline ([`grcuda::Snapshot::is_drained`]).
pub fn assert_drained(g: &GrCuda, ctx: &str) {
    let st = g.snapshot();
    assert!(st.is_drained(), "scheduler state left — {ctx}: {st:?}");
}
