//! Multi-GPU: the paper's §VI future work on the unified scheduler
//! core — one computation DAG, one stream manager and one engine span
//! several simulated devices, with placement decided per-kernel by a
//! pluggable `DeviceSelectionPolicy` over a selectable interconnect
//! `Topology`.
//!
//! Three parts, each recording keys:
//! * **topology sweep** — the transfer-chain workload across every
//!   interconnect preset × round-robin/locality/transfer-aware: same
//!   DAG, different machine. Asserts the tentpole acceptance bar: on
//!   the NVLink-pair machine, transfer-aware placement yields strictly
//!   lower makespan and strictly fewer host-link bytes than both
//!   round-robin and byte-count locality;
//! * **oversubscription sweep** — the finite-device-memory suite
//!   (working set ~2× one device's capacity): capacity-aware
//!   scheduling (memory-aware placement + cost-aware eviction) must
//!   strictly beat capacity-blind scheduling (transfer-aware + LRU) on
//!   both makespan and spilled bytes, with bit-identical results;
//! * **overlap gauge** — Vector Squares on four devices under
//!   stream-aware placement, validated against the sequential reference.
//!
//! That every placement policy computes what the sequential reference
//! does on every suite, and that locality-aware placement migrates
//! strictly less than round-robin on a dependent chain, is checked by
//! `tests/policies.rs`.
//!
//! `--smoke` shrinks scales and iterations. Records the transfer
//! chain's makespan, host-link MiB and migration count per topology ×
//! policy (`chain.*`), migrated MiB by link on the NVLink-pair machine
//! (so link-routing regressions show up), the oversubscription metrics
//! per configuration (`oversub.*`) and the 4-device overlap percentages
//! (`sweep.vec4.*`).

use bench::{ms, render_table};
use benchmarks::{
    oversub_capacity, oversub_configs, oversubscribe, run_multi_gpu, tiny, transfer_chain, Bench,
    OversubResult, TransferChainResult,
};
use gpu_sim::{DeviceProfile, Topology, TopologyKind};
use grcuda::{Options, PlacementPolicy};
use metrics::OverlapMetrics;

use crate::metric::Metrics;

/// Transfer-chain workload across every interconnect preset and the
/// three placement policies whose contrast it was built for. Records
/// the `chain.*` metrics and asserts the acceptance bar.
fn topology_sweep(smoke: bool, m: &mut Metrics) {
    let n = if smoke { 1 << 18 } else { 1 << 20 };
    let iters = 8;
    let policies = [
        PlacementPolicy::RoundRobin,
        PlacementPolicy::LocalityAware,
        PlacementPolicy::TransferAware,
    ];
    let mut rows = Vec::new();
    let mut results: std::collections::HashMap<
        (TopologyKind, PlacementPolicy),
        TransferChainResult,
    > = std::collections::HashMap::new();
    let mut checksum = None;
    for topo in TopologyKind::ALL {
        for policy in policies {
            let r = transfer_chain(policy, topo, n, iters, Options::parallel());
            assert_eq!(r.races, 0, "{} {} raced", topo.name(), policy.name());
            match checksum {
                None => checksum = Some(r.checksum),
                Some(c) => assert_eq!(
                    r.checksum,
                    c,
                    "{} {} changed the numbers",
                    topo.name(),
                    policy.name()
                ),
            }
            rows.push(vec![
                topo.name().to_string(),
                policy.name().to_string(),
                ms(r.makespan),
                format!("{:.1}", r.host_link_bytes / (1 << 20) as f64),
                format!("{} ({} KiB)", r.migrations.0, r.migrations.1 / 1024),
                format!("{} ({} KiB)", r.p2p_migrations.0, r.p2p_migrations.1 / 1024),
            ]);
            let prefix = format!("chain.{}.{}", topo.name(), policy.name());
            m.lower(&format!("{prefix}.makespan_ms"), r.makespan * 1e3);
            m.lower(
                &format!("{prefix}.host_link_mib"),
                r.host_link_bytes / (1 << 20) as f64,
            );
            m.exact(&format!("{prefix}.migrations"), r.migrations.0 as f64);
            results.insert((topo, policy), r);
        }
    }
    println!(
        "\nTopology sweep: transfer chain x interconnects (same DAG, different machine)\n{}",
        render_table(
            &[
                "topology",
                "policy",
                "makespan",
                "host-link MiB",
                "migrations",
                "p2p migrations"
            ],
            &rows
        )
    );

    // Migrated bytes by link on the NVLink-pair machine.
    let topo = Topology::preset(
        TopologyKind::NvlinkPair,
        benchmarks::TRANSFER_CHAIN_DEVICES,
        &DeviceProfile::tesla_p100(),
    );
    for policy in [
        PlacementPolicy::LocalityAware,
        PlacementPolicy::TransferAware,
    ] {
        let r = &results[&(TopologyKind::NvlinkPair, policy)];
        for (i, link) in topo.links().iter().enumerate() {
            m.lower(
                &format!(
                    "chain.nvlink-pair.{}.link.{}_mib",
                    policy.name(),
                    link.label()
                ),
                r.link_traffic[i].0 / (1 << 20) as f64,
            );
        }
    }

    // The tentpole acceptance bar.
    let rr = &results[&(TopologyKind::NvlinkPair, PlacementPolicy::RoundRobin)];
    let loc = &results[&(TopologyKind::NvlinkPair, PlacementPolicy::LocalityAware)];
    let ta = &results[&(TopologyKind::NvlinkPair, PlacementPolicy::TransferAware)];
    assert!(
        ta.makespan < loc.makespan && ta.makespan < rr.makespan,
        "transfer-aware must yield strictly lower makespan on nvlink-pair: \
         ta {} vs locality {} / round-robin {}",
        ta.makespan,
        loc.makespan,
        rr.makespan
    );
    assert!(
        ta.host_link_bytes < loc.host_link_bytes && ta.host_link_bytes < rr.host_link_bytes,
        "transfer-aware must move strictly fewer host-link bytes on nvlink-pair: \
         ta {} vs locality {} / round-robin {}",
        ta.host_link_bytes,
        loc.host_link_bytes,
        rr.host_link_bytes
    );
    println!("(acceptance: on nvlink-pair, transfer-aware beat round-robin and");
    println!(" byte-count locality on both makespan and host-link bytes, asserted)\n");
}

/// The finite-device-memory suite: capacity-aware vs capacity-blind
/// scheduling under a working set ~2× one device's capacity. Records
/// the `oversub.*` metrics and asserts the acceptance bar.
fn oversubscribe_sweep(smoke: bool, m: &mut Metrics) {
    let n = if smoke { 1 << 16 } else { 1 << 18 };
    let iters = if smoke { 2 } else { 4 };
    let capacity = oversub_capacity(n);
    let mut rows = Vec::new();
    let mut results: Vec<(&'static str, OversubResult)> = Vec::new();
    let mut checksum = None;
    for (label, policy, eviction) in oversub_configs() {
        let r = oversubscribe(
            policy,
            eviction,
            Some(capacity),
            n,
            iters,
            Options::parallel(),
        );
        assert_eq!(r.races, 0, "{label} raced");
        match checksum {
            None => checksum = Some(r.checksum),
            Some(c) => assert_eq!(r.checksum, c, "{label} changed the numbers"),
        }
        let mib = |b: usize| b as f64 / (1 << 20) as f64;
        rows.push(vec![
            label.to_string(),
            ms(r.makespan),
            format!("{}", r.evictions),
            format!("{:.2}", mib(r.spilled_bytes)),
            format!("{:.0}%", r.prefetch_hit_rate * 100.0),
            format!(
                "{:.1} / {:.1}",
                mib(r.peak_resident[0]),
                mib(r.peak_resident[1])
            ),
        ]);
        m.lower(&format!("oversub.{label}.makespan_ms"), r.makespan * 1e3);
        m.exact(&format!("oversub.{label}.evictions"), r.evictions as f64);
        m.lower(
            &format!("oversub.{label}.spilled_mib"),
            mib(r.spilled_bytes),
        );
        m.higher(
            &format!("oversub.{label}.prefetch_hit_pct"),
            r.prefetch_hit_rate * 100.0,
        );
        results.push((label, r));
    }
    println!(
        "\nOversubscription sweep: working set ~2x one device's capacity \
         ({:.1} MiB/device)\n{}",
        capacity as f64 / (1 << 20) as f64,
        render_table(
            &[
                "config",
                "makespan",
                "evictions",
                "spilled MiB",
                "prefetch hits",
                "peak resident MiB d0/d1"
            ],
            &rows
        )
    );

    // The acceptance bar: capacity-aware strictly beats capacity-blind
    // on both makespan and spilled bytes.
    let aware = &results[0].1;
    let blind = &results[1].1;
    assert!(
        aware.makespan < blind.makespan,
        "memory-aware + cost-aware eviction must yield strictly lower \
         makespan than transfer-aware + LRU: {} vs {}",
        aware.makespan,
        blind.makespan
    );
    assert!(
        aware.spilled_bytes < blind.spilled_bytes,
        "memory-aware + cost-aware eviction must spill strictly fewer \
         bytes: {} vs {}",
        aware.spilled_bytes,
        blind.spilled_bytes
    );
    println!("(acceptance: capacity-aware beat capacity-blind on both makespan");
    println!(" and spilled bytes under oversubscription, asserted)\n");
}

pub fn run(smoke: bool, m: &mut Metrics) {
    topology_sweep(smoke, m);
    oversubscribe_sweep(smoke, m);

    // Scheduler-quality gauge for the trajectory: how much transfer time
    // hides behind computation on a migration-heavy 4-device run.
    let spec = Bench::Vec.build(if smoke {
        tiny(Bench::Vec)
    } else {
        benchmarks::sweep(Bench::Vec)[1]
    });
    let dev = DeviceProfile::tesla_p100();
    let r = run_multi_gpu(
        &spec,
        &dev,
        Options::parallel(),
        Topology::pcie_only(4, &dev),
        PlacementPolicy::StreamAware,
        2,
    )
    .unwrap();
    r.valid.as_ref().expect("sweep run validates");
    let ov = OverlapMetrics::from_timeline(&r.timeline);
    m.higher("sweep.vec4.overlap_tc_pct", ov.tc * 100.0);
    m.higher("sweep.vec4.overlap_tot_pct", ov.tot * 100.0);
}
