//! The *oversubscription* suite: a working set ~2× one device's memory,
//! streamed through a kernel chain that mixes clean (read-only weight)
//! and dirty (written state) arrays — the workload that separates
//! capacity-aware scheduling from capacity-blind scheduling.
//!
//! Structure, per iteration and per state `j` (8 states on 2 devices):
//!
//! 1. `pin(anchor, state_j)` — a small shared read-only anchor array is
//!    folded into the state. The anchor is the *glue*: once it lands on
//!    a device, transfer-time estimates make that device look free for
//!    every subsequent launch;
//! 2. `join_sample(weight_{j mod 4}, state_j, out_j)` — a large
//!    read-only weight and the freshly-written state are sampled into a
//!    tiny output.
//!
//! States are always dirty (the `pin` write invalidates their host
//! copy); weights stay clean after their first H2D (read-only). The
//! full working set (8 states + 4 weights + anchor) is roughly twice
//! the per-device capacity, so *someone* must be evicted on every pass.
//!
//! The contrast the suite is built for:
//!
//! * [`grcuda::PlacementPolicy::TransferAware`] chases the anchor onto
//!   one device — its cost estimate says "everything important is
//!   already here" — and thrashes that device's memory, while LRU
//!   eviction keeps picking the oldest *dirty* state: every eviction
//!   pays a device→host spill copy and every reuse a re-fetch.
//! * [`grcuda::PlacementPolicy::MemoryAware`] skips devices whose free
//!   memory cannot hold the launch (spreading states across both
//!   devices), and cost-aware eviction
//!   ([`gpu_sim::EvictionPolicy::CostAware`]) prefers dropping clean
//!   weights — zero spill traffic, one cheap re-fetch leg — so spilled
//!   bytes collapse and the makespan with them.
//!
//! The run ends reading every state and output back whole: they are its
//! [`Experiment`] answer. `tests/policies.rs` asserts the contrast.

use gpu_sim::{DeviceProfile, Grid, Topology, TypedData};
use gpu_sim::{EvictionPolicy, MemoryConfig};
use grcuda::{Arg, DeviceArray, GrCuda, Options, PlacementPolicy};
use kernels::util::{JOIN, PIN};

use crate::Experiment;

/// Devices the workload is shaped for.
const OVERSUB_DEVICES: usize = 2;

/// Number of mutable state arrays (the streamed working set).
const N_STATES: usize = 8;
/// Number of read-only weight arrays shared by the joins.
const N_WEIGHTS: usize = 4;

/// The per-device capacity the suite runs under for state arrays of
/// `n` f32 elements: 5½ state-sized arrays plus the anchor — about half
/// the full working set (8 states + 4 weights ≈ 12 state-sizes).
pub fn oversub_capacity(n: usize) -> usize {
    let state_bytes = 4 * n;
    5 * state_bytes + state_bytes / 2 + anchor_bytes(n)
}

fn anchor_bytes(n: usize) -> usize {
    n // n/4 f32 elements
}

/// Run the oversubscription suite under a placement policy and an
/// eviction policy, with the paper's parallel scheduler
/// (`Options::parallel()`) and per-device capacity `capacity` (use
/// [`oversub_capacity`] for the standard ~2× oversubscription, or
/// `None` for the unlimited baseline). `n` is the state-array element
/// count; `iters` the number of full passes over the working set.
pub fn oversubscribe(
    policy: PlacementPolicy,
    eviction: EvictionPolicy,
    capacity: Option<usize>,
    n: usize,
    iters: usize,
) -> Experiment {
    let grid = Grid::d1(64, 256);
    let memory = MemoryConfig { capacity, eviction };
    let dev = DeviceProfile::tesla_p100();
    let topo = Topology::pcie_only(OVERSUB_DEVICES, &dev).with_memory(memory);
    let g = GrCuda::with_topology(dev, topo, Options::parallel(), policy);
    let pin = g.build_kernel(&PIN).expect("PIN is a registered signature");
    let join = g
        .build_kernel(&JOIN)
        .expect("JOIN is a registered signature");
    let an = anchor_bytes(n) / 4; // anchor element count
    let jn = 256.min(n);

    let anchor = g.array_f32(an);
    anchor.copy_from_f32(&vec![2.0; an]);
    let weights: Vec<DeviceArray> = (0..N_WEIGHTS)
        .map(|i| {
            let w = g.array_f32(n);
            w.copy_from_f32(&vec![1.0 + i as f32; n]);
            w
        })
        .collect();
    let states: Vec<DeviceArray> = (0..N_STATES)
        .map(|i| {
            let s = g.array_f32(n);
            s.copy_from_f32(&vec![0.5 + 0.125 * i as f32; n]);
            s
        })
        .collect();
    let outs: Vec<DeviceArray> = (0..N_STATES).map(|_| g.array_f32(jn)).collect();

    for _iter in 0..iters {
        for j in 0..N_STATES {
            pin.launch(
                grid,
                &[
                    Arg::array(&anchor),
                    Arg::array(&states[j]),
                    Arg::scalar(an as f64),
                    Arg::scalar(n as f64),
                ],
            )
            .unwrap();
            join.launch(
                grid,
                &[
                    Arg::array(&weights[j % N_WEIGHTS]),
                    Arg::array(&states[j]),
                    Arg::array(&outs[j]),
                    Arg::scalar(n as f64),
                    Arg::scalar(n as f64),
                    Arg::scalar(jn as f64),
                ],
            )
            .unwrap();
        }
    }
    g.sync();

    // The host reads take whole arrays, and they are the answer.
    let outputs = states
        .iter()
        .chain(&outs)
        .map(|a| TypedData::F32(a.to_vec_f32()))
        .collect();
    Experiment {
        makespan: g.now(),
        runtime: g,
        outputs,
    }
}

/// The suite's two headline configurations, for sweeps and CI:
/// capacity-aware (MemoryAware placement + cost-aware eviction) vs
/// capacity-blind (TransferAware placement + LRU eviction).
pub fn oversub_configs() -> [(&'static str, PlacementPolicy, EvictionPolicy); 2] {
    [
        (
            "memory-aware+cost",
            PlacementPolicy::MemoryAware,
            EvictionPolicy::CostAware,
        ),
        (
            "transfer-aware+lru",
            PlacementPolicy::TransferAware,
            EvictionPolicy::Lru,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 1 << 14;

    #[test]
    fn the_working_set_actually_oversubscribes() {
        let r = oversubscribe(
            PlacementPolicy::TransferAware,
            EvictionPolicy::Lru,
            Some(oversub_capacity(N)),
            N,
            2,
        );
        let memory = r.runtime.snapshot().memory;
        assert!(
            memory.evictions > 0,
            "the suite must create memory pressure"
        );
        assert!(memory.spilled_bytes > 0, "LRU must spill dirty states");
    }
}
