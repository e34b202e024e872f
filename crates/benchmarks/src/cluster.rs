//! Cluster-scale workloads: the multi-node suites behind the bench
//! trajectory's `cluster` sweep.
//!
//! Three batch-submitted suites stress the deterministic DAG
//! partitioner (see `grcuda::partition_batch`) and node-aware placement on a
//! [`Cluster`] of NIC-joined nodes:
//!
//! * **chain** — `2 × nodes + 1` independent dependent chains, one
//!   batch of kernels per step (odd on purpose, so the chain count
//!   never divides the GPU total). The partitioner keeps every chain
//!   on one node,
//!   so [`grcuda::PlacementPolicy::NodeAware`] placement never crosses
//!   a NIC; round-robin across all GPUs ping-pongs each chain between
//!   nodes and pays a GPU→host→NIC→host→GPU route *per step*;
//! * **fanout** — embarrassingly parallel: every step writes fresh host
//!   inputs and batch-launches independent kernels. Any policy scales;
//!   the suite pins down the no-dependency corner of the partitioner;
//! * **mixed** — chains and fanout work interleaved in the same
//!   batches, so whole-component placement and BFS-grow splitting both
//!   run.
//!
//! A run is an [`Experiment`]: its runtime reports cross-**node**
//! migration traffic and the partitioner's cut size, and its answer
//! (every chain array and the final step's fanout outputs) must be
//! bit-identical across policies (placement moves work, never results).
//! `tests/policies.rs` asserts node-aware placement's acceptance bar.

use gpu_sim::{Cluster, DeviceProfile, Grid, NicKind, TopologyKind};
use grcuda::{Arg, BatchLaunch, DeviceArray, GrCuda, Options, PlacementPolicy};
use kernels::util::SCALE;

use crate::Experiment;

/// The three cluster suites, in sweep order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterSuite {
    /// `2 × nodes + 1` dependent chains.
    Chain,
    /// Independent per-step work on fresh host inputs.
    Fanout,
    /// Chains and fanout interleaved in the same batches.
    Mixed,
}

impl ClusterSuite {
    /// All suites in sweep order.
    pub const ALL: [ClusterSuite; 3] = [
        ClusterSuite::Chain,
        ClusterSuite::Fanout,
        ClusterSuite::Mixed,
    ];

    /// Short name used in tables and metric keys.
    pub fn name(self) -> &'static str {
        match self {
            ClusterSuite::Chain => "chain",
            ClusterSuite::Fanout => "fanout",
            ClusterSuite::Mixed => "mixed",
        }
    }
}

/// Run a cluster suite under a placement policy on `nodes` ×
/// `gpus_per_node` Tesla P100s joined by InfiniBand HDR NICs (PCIe
/// inside each node). `n` is the per-array element count; `steps` the
/// number of batch rounds.
pub fn cluster_run(
    suite: ClusterSuite,
    policy: PlacementPolicy,
    nodes: usize,
    gpus_per_node: usize,
    n: usize,
    steps: usize,
) -> Experiment {
    let cluster = Cluster::new(
        nodes,
        gpus_per_node,
        TopologyKind::PcieOnly,
        NicKind::InfinibandHdr,
    );
    let g = GrCuda::with_cluster(
        DeviceProfile::tesla_p100(),
        &cluster,
        Options::parallel(),
        policy,
    );
    let scale = g
        .build_kernel(&SCALE)
        .expect("SCALE is a registered signature");
    let grid = Grid::d1(64, 256);

    // An odd chain count never divides an even GPU total, so policies
    // that ignore the partition (e.g. round-robin) provably rotate
    // every chain across node boundaries between steps.
    let chains = match suite {
        ClusterSuite::Fanout => 0,
        _ => 2 * nodes + 1,
    };
    let fans = match suite {
        ClusterSuite::Chain => 0,
        _ => 2 * nodes,
    };

    // Chain state: each chain scales x into y and back, forever on the
    // same pair of arrays — the partitioner sees one component per
    // chain in every batch and must pin it to one node.
    let chain_arrays: Vec<(DeviceArray, DeviceArray)> = (0..chains)
        .map(|c| {
            let x = g.array_f32(n);
            let y = g.array_f32(n);
            x.copy_from_f32(&vec![1.0 + c as f32; n]);
            (x, y)
        })
        .collect();
    let scale_args = |src: &DeviceArray, dst: &DeviceArray, factor: f64| {
        [
            Arg::array(src),
            Arg::array(dst),
            Arg::scalar(factor),
            Arg::scalar(n as f64),
        ]
    };

    let mut last_fans: Vec<DeviceArray> = Vec::new();
    for step in 0..steps {
        let mut args: Vec<[Arg; 4]> = Vec::new();
        for (x, y) in &chain_arrays {
            let (src, dst) = if step.is_multiple_of(2) {
                (x, y)
            } else {
                (y, x)
            };
            args.push(scale_args(src, dst, 1.001));
        }
        // Fanout work is fresh every step: host-written inputs, so the
        // H2D leg is cheap anywhere and no node owns the data yet.
        let fan_arrays: Vec<(DeviceArray, DeviceArray)> = (0..fans)
            .map(|f| {
                let src = g.array_f32(n);
                let dst = g.array_f32(n);
                src.copy_from_f32(&vec![0.5 + f as f32; n]);
                (src, dst)
            })
            .collect();
        for (src, dst) in &fan_arrays {
            args.push(scale_args(src, dst, 2.0));
        }
        let calls: Vec<BatchLaunch<'_>> = args
            .iter()
            .map(|args| BatchLaunch {
                kernel: &scale,
                grid,
                args,
            })
            .collect();
        g.launch_batch(&calls).unwrap();
        // Keep the final round's fanout outputs alive: they join the
        // answer.
        if step + 1 == steps {
            last_fans = fan_arrays.into_iter().map(|(_, dst)| dst).collect();
        }
    }
    g.sync();

    // One element of each result is read back, as a client would; the
    // answer is every chain array and final fanout output, taken whole
    // afterwards without a charge.
    let finals = chain_arrays
        .iter()
        .map(|(x, y)| if steps.is_multiple_of(2) { x } else { y });
    for a in finals.chain(&last_fans) {
        a.get_f32(7);
    }
    let answer = chain_arrays.iter().flat_map(|(x, y)| [x, y]);
    let outputs = answer
        .chain(&last_fans)
        .map(|a| a.raw_buffer().data().clone())
        .collect();
    Experiment {
        makespan: g.now(),
        runtime: g,
        outputs,
    }
}
