//! The *transfer chain*: the dependent-chain workload that separates
//! byte-count locality from transfer-cost awareness on a real
//! interconnect.
//!
//! Per iteration, on 4 devices:
//!
//! 1. a fresh host input `A` is written (streaming request data);
//! 2. `warm` (SCALE) folds `A` into a scratch array `T` — every policy
//!    anchors this to device 0, and the H2D of `A` leaves a valid host
//!    copy behind (`A` is read-only);
//! 3. `state` (PIN) advances the chain state `S` against a large weight
//!    array `W2` anchored to device 2 — the other island of an
//!    NVLink-pair machine;
//! 4. `join` (JOIN) samples `A` and `S` into a small output `J`.
//!
//! The join is the interesting decision. `A` is slightly bigger than
//! `S`, so byte-count [`grcuda::PlacementPolicy::LocalityAware`] places
//! the join next to `A` on device 0 — dragging `S` across the island
//! boundary through the host (two PCIe legs) *every iteration*, and
//! paying them again when `state` pulls `S` back. Transfer-cost-aware
//! placement sees that `A` still has a valid host copy (one H2D leg
//! anywhere) while moving `S` costs a host-mediated round trip, and runs
//! the join next to `S` on device 2 instead.
//! [`grcuda::PlacementPolicy::RoundRobin`] ignores data entirely and
//! additionally drags the big anchor weights around.
//!
//! The run ends reading `J`, `S` and `T` back whole: they are its
//! [`Experiment`] answer. `tests/policies.rs` asserts the contrast.

use gpu_sim::{DeviceProfile, Grid, Topology, TopologyKind, TypedData};
use grcuda::{Arg, DeviceArray, GrCuda, Options, PlacementPolicy};
use kernels::util::{JOIN, PIN, SCALE};
use kernels::vec_ops::SQUARE;

use crate::Experiment;

/// Devices the workload is shaped for (two NVLink islands on the
/// `nvlink-pair` preset).
pub const TRANSFER_CHAIN_DEVICES: usize = 4;

/// Run the transfer chain under a placement policy on an interconnect
/// preset. `n` is the element count of the input array `A` (the other
/// arrays scale from it); `iters` the number of chain iterations;
/// `options` the scheduler options (`Options::parallel()` for every
/// committed metric, calibration on for adaptive runs).
pub fn transfer_chain(
    policy: PlacementPolicy,
    topology: TopologyKind,
    n: usize,
    iters: usize,
    options: Options,
) -> Experiment {
    let grid = Grid::d1(64, 256);
    let dev = DeviceProfile::tesla_p100();
    let topo = Topology::preset(topology, TRANSFER_CHAIN_DEVICES, &dev);
    let g = GrCuda::with_topology(dev, topo, options, policy);
    let [square, scale, pin, join] = [&SQUARE, &SCALE, &PIN, &JOIN].map(|def| {
        g.build_kernel(def)
            .expect("the chain's kernels are registered signatures")
    });
    let sn = n * 3 / 4; // state is slightly smaller than the input
    let wn = n * 3 / 2; // anchor weights dominate any argument set
    let jn = 1024.min(n);

    // Anchor weights: all-host data is placement-neutral, so the load
    // tie-break lands W0..W3 on devices 0..3 for every policy (and
    // round-robin cycles onto the same devices). After this, W2 pins the
    // chain state's island.
    let ws: Vec<DeviceArray> = (0..TRANSFER_CHAIN_DEVICES)
        .map(|i| {
            let w = g.array_f32(wn);
            w.copy_from_f32(&vec![0.5 + 0.25 * i as f32; wn]);
            square
                .launch(grid, &[Arg::array(&w), Arg::scalar(wn as f64)])
                .unwrap();
            w
        })
        .collect();
    g.sync();

    let a = g.array_f32(n);
    let t = g.array_f32(n);
    let s = g.array_f32(sn);
    let j = g.array_f32(jn);
    s.copy_from_f32(&vec![1.0; sn]);

    for iter in 0..iters {
        // Fresh streaming input each iteration.
        a.copy_from_f32(&vec![1.0 + 0.001 * iter as f32; n]);
        scale
            .launch(
                grid,
                &[
                    Arg::array(&a),
                    Arg::array(&t),
                    Arg::scalar(1.0001),
                    Arg::scalar(n as f64),
                ],
            )
            .unwrap();
        pin.launch(
            grid,
            &[
                Arg::array(&ws[2]),
                Arg::array(&s),
                Arg::scalar(wn as f64),
                Arg::scalar(sn as f64),
            ],
        )
        .unwrap();
        join.launch(
            grid,
            &[
                Arg::array(&a),
                Arg::array(&s),
                Arg::array(&j),
                Arg::scalar(n as f64),
                Arg::scalar(sn as f64),
                Arg::scalar(jn as f64),
            ],
        )
        .unwrap();
    }
    g.sync();

    // The host reads take whole arrays, and they are the answer.
    let outputs = [&j, &s, &t].map(|a| TypedData::F32(a.to_vec_f32())).into();
    Experiment {
        makespan: g.now(),
        runtime: g,
        outputs,
    }
}
