//! Cluster: multi-node scale-out on top of the unified scheduler
//! core — one computation DAG and one engine span every GPU of every
//! node of a `Cluster`, NIC links join the global max–min rate solve,
//! batched launches go through the deterministic DAG partitioner, and
//! `NodeAware` placement keeps each partition on its node.
//!
//! The sweep runs the three cluster suites (chain / fanout / mixed,
//! see `benchmarks::cluster`) over 2/4/8 nodes × 4/8 GPUs per node,
//! contrasting partition-honoring `NodeAware` placement against
//! partition-blind `RoundRobin` across all GPUs. Every run must be
//! race-free and checksum-identical across policies.
//!
//! The acceptance bar (asserted here and in `tests/policies.rs`): at
//! 2 nodes × 4 GPUs on the dependent-chain suite, `NodeAware` yields
//! **zero** cross-node migration traffic and strictly lower makespan
//! than round-robin, which pays a GPU→host→NIC→host→GPU route per
//! chain step.
//!
//! `--smoke` restricts the sweep to 2×4. `cluster.*` (makespans,
//! cross-node MiB, partition cut MiB) all gate lower-is-better.

use bench::{ms, render_table};
use benchmarks::{cluster_run, ClusterResult, ClusterSuite};
use grcuda::PlacementPolicy;

use crate::metric::Metrics;

const POLICIES: [PlacementPolicy; 2] = [PlacementPolicy::NodeAware, PlacementPolicy::RoundRobin];

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
    let mut results: std::collections::HashMap<
        (usize, usize, ClusterSuite, PlacementPolicy),
        ClusterResult,
    > = std::collections::HashMap::new();

    for &(nodes, gpus) in &configs {
        for suite in ClusterSuite::ALL {
            let mut checksum = None;
            for policy in POLICIES {
                let r = cluster_run(suite, policy, nodes, gpus, n, steps);
                assert_eq!(
                    r.races,
                    0,
                    "{nodes}x{gpus} {} {}: raced",
                    suite.name(),
                    policy.name()
                );
                match checksum {
                    None => checksum = Some(r.checksum),
                    Some(c) => assert_eq!(
                        r.checksum,
                        c,
                        "{nodes}x{gpus} {} {} changed the numbers",
                        suite.name(),
                        policy.name()
                    ),
                }
                rows.push(vec![
                    format!("{nodes}x{gpus}"),
                    suite.name().to_string(),
                    policy.name().to_string(),
                    ms(r.makespan),
                    format!("{} ({:.1} MiB)", r.cross_node.0, mib(r.cross_node.1)),
                    format!("{:.1}", mib(r.cut_bytes)),
                ]);
                let prefix = format!("cluster.{nodes}x{gpus}.{}.{}", suite.name(), policy.name());
                m.lower(&format!("{prefix}.makespan_ms"), r.makespan * 1e3);
                m.lower(&format!("{prefix}.cross_node_mib"), mib(r.cross_node.1));
                results.insert((nodes, gpus, suite, policy), r);
            }
            // The cut is a property of the partitioner, not of
            // placement — record it once per configuration/suite.
            let cut = results[&(nodes, gpus, suite, PlacementPolicy::NodeAware)].cut_bytes;
            m.lower(
                &format!("cluster.{nodes}x{gpus}.{}.cut_mib", suite.name()),
                mib(cut),
            );
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

    // The acceptance bar, on the configuration every run (smoke
    // included) covers.
    let na = &results[&(2, 4, ClusterSuite::Chain, PlacementPolicy::NodeAware)];
    let rr = &results[&(2, 4, ClusterSuite::Chain, PlacementPolicy::RoundRobin)];
    assert_eq!(
        na.cross_node,
        (0, 0),
        "node-aware must keep partitioned chains off the NICs"
    );
    assert!(
        na.cross_node.1 < rr.cross_node.1,
        "node-aware must move strictly fewer cross-node bytes than \
         round-robin on the chain: {} vs {}",
        na.cross_node.1,
        rr.cross_node.1
    );
    assert!(
        na.makespan < rr.makespan,
        "node-aware must yield strictly lower makespan than round-robin \
         on the chain: {} vs {}",
        na.makespan,
        rr.makespan
    );
    println!("(acceptance: at 2x4 on the dependent chain, node-aware beat");
    println!(" round-robin on both cross-node bytes and makespan, asserted)");
}
