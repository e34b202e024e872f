//! Cluster: multi-node scale-out on top of the unified scheduler
//! core — one computation DAG and one engine span every GPU of every
//! node of a `Cluster`, NIC links join the global max–min rate solve,
//! batched launches go through the deterministic DAG partitioner, and
//! `NodeAware` placement keeps each partition on its node.
//!
//! The sweep runs the three cluster suites (chain / fanout / mixed,
//! see `benchmarks::cluster`) over 2/4/8 nodes × 4/8 GPUs per node,
//! contrasting partition-honoring `NodeAware` placement against
//! partition-blind `RoundRobin` across all GPUs. Each run is checked
//! once: race-free, and the same answer, bit for bit, as the first
//! policy's run of its configuration and suite.
//!
//! The acceptance bar is asserted by `tests/policies.rs` on the
//! `--smoke` inputs: at 2 nodes × 4 GPUs on the dependent-chain suite,
//! `NodeAware` yields **zero** cross-node migration traffic and
//! strictly lower makespan than round-robin, which pays a
//! GPU→host→NIC→host→GPU route per chain step.
//!
//! `--smoke` restricts the sweep to 2×4. `cluster.*` (makespans,
//! cross-node MiB, partition cut MiB) all gate lower-is-better.

use bench::{ms, render_table};
use benchmarks::{cluster_run, ClusterSuite};
use grcuda::PlacementPolicy;

use crate::check;
use crate::metric::Metrics;

pub fn run(smoke: bool, m: &mut Metrics) {
    let configs: Vec<(usize, usize)> = if smoke {
        vec![(2, 4)]
    } else {
        vec![(2, 4), (2, 8), (4, 4), (4, 8), (8, 4), (8, 8)]
    };
    let n = if smoke { 1 << 16 } else { 1 << 18 };
    let steps = if smoke { 6 } else { 10 };

    let mib = |b: usize| b as f64 / (1 << 20) as f64;
    let mut rows = Vec::new();
    for &(nodes, gpus) in &configs {
        for suite in ClusterSuite::ALL {
            let mut first = None;
            for policy in [PlacementPolicy::NodeAware, PlacementPolicy::RoundRobin] {
                let r = cluster_run(suite, policy, nodes, gpus, n, steps);
                let prefix = format!("cluster.{nodes}x{gpus}.{}.{}", suite.name(), policy.name());
                check(&r, first.as_ref(), &prefix);
                let st = r.runtime.snapshot();
                let (cross_node, cut) = (st.migrations.cross_node, st.cluster.partition_cut_bytes);
                rows.push(vec![
                    format!("{nodes}x{gpus}"),
                    suite.name().to_string(),
                    policy.name().to_string(),
                    ms(r.makespan),
                    format!("{} ({:.1} MiB)", cross_node.count, mib(cross_node.bytes)),
                    format!("{:.1}", mib(cut)),
                ]);
                m.lower(&format!("{prefix}.makespan_ms"), r.makespan * 1e3);
                m.lower(&format!("{prefix}.cross_node_mib"), mib(cross_node.bytes));
                // The cut is a property of the partitioner, not of
                // placement: record it once, from the node-aware run.
                if policy == PlacementPolicy::NodeAware {
                    m.lower(
                        &format!("cluster.{nodes}x{gpus}.{}.cut_mib", suite.name()),
                        mib(cut),
                    );
                }
                first.get_or_insert(r);
            }
        }
    }

    println!(
        "\nCluster sweep: suites x nodes x GPUs/node (InfiniBand HDR between \
         nodes, PCIe inside)\n{}",
        render_table(
            &[
                "cluster",
                "suite",
                "policy",
                "makespan",
                "cross-node traffic",
                "cut MiB"
            ],
            &rows
        )
    );
}
