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

use gpu_sim::{DeviceProfile, Grid, Topology, TopologyKind};
use grcuda::{Arg, DeviceArray, GrCuda, Options, PlacementPolicy};
use kernels::util::{JOIN, PIN, SCALE};
use kernels::vec_ops::SQUARE;

/// Devices the workload is shaped for (two NVLink islands on the
/// `nvlink-pair` preset).
pub const TRANSFER_CHAIN_DEVICES: usize = 4;

/// What one transfer-chain run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferChainResult {
    /// Simulated makespan in seconds.
    pub makespan: f64,
    /// Total cross-device migrations `(count, bytes)`.
    pub migrations: (usize, usize),
    /// Migrations that went over peer links `(count, bytes)`.
    pub p2p_migrations: (usize, usize),
    /// Bytes moved over the host (PCIe) links, staging included.
    pub host_link_bytes: f64,
    /// Per-link `(bytes, transfers)`, indexed like the topology's links.
    pub link_traffic: Vec<(f64, usize)>,
    /// Checksum over the outputs — identical across policies and
    /// topologies (placement moves work, never changes results).
    pub checksum: f64,
    /// Data races observed (must be 0).
    pub races: usize,
}

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
) -> TransferChainResult {
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

    let checksum = j
        .to_vec_f32()
        .iter()
        .chain(s.to_vec_f32().iter())
        .map(|&x| x as f64)
        .sum::<f64>()
        + t.to_vec_f32()[..16.min(n)]
            .iter()
            .map(|&x| x as f64)
            .sum::<f64>();

    TransferChainResult {
        makespan: g.now(),
        migrations: g.migration_stats(),
        p2p_migrations: g.p2p_migration_stats(),
        host_link_bytes: g.host_link_bytes(),
        link_traffic: g.link_traffic(),
        checksum,
        races: g.races().len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_chain_is_deterministic_and_race_free() {
        let a = transfer_chain(
            PlacementPolicy::TransferAware,
            TopologyKind::NvlinkPair,
            4096,
            3,
            Options::parallel(),
        );
        let b = transfer_chain(
            PlacementPolicy::TransferAware,
            TopologyKind::NvlinkPair,
            4096,
            3,
            Options::parallel(),
        );
        assert_eq!(a, b);
        assert_eq!(a.races, 0);
        assert!(a.checksum.is_finite());
    }

    #[test]
    fn results_are_identical_across_policies_and_topologies() {
        let reference = transfer_chain(
            PlacementPolicy::SingleGpu,
            TopologyKind::PcieOnly,
            4096,
            3,
            Options::parallel(),
        );
        for topo in TopologyKind::ALL {
            for policy in PlacementPolicy::ALL {
                let r = transfer_chain(policy, topo, 4096, 3, Options::parallel());
                assert_eq!(r.races, 0, "{policy:?} on {topo:?} raced");
                assert_eq!(
                    r.checksum, reference.checksum,
                    "{policy:?} on {topo:?} changed the numbers"
                );
            }
        }
    }
}
