//! Multi-GPU: the paper's §VI future work on the unified scheduler
//! core — one computation DAG, one stream manager and one engine span
//! several simulated devices, with placement decided per-kernel by a
//! pluggable `DeviceSelectionPolicy` over a selectable interconnect
//! `Topology`.
//!
//! Three parts, each recording keys:
//! * **topology sweep** — the transfer-chain workload across every
//!   interconnect preset × round-robin/locality/transfer-aware: same
//!   DAG, different machine;
//! * **oversubscription sweep** — the finite-device-memory suite
//!   (working set ~2× one device's capacity) under capacity-aware
//!   (memory-aware placement + cost-aware eviction) and capacity-blind
//!   (transfer-aware + LRU) scheduling;
//! * **overlap gauge** — Vector Squares on four devices under
//!   stream-aware placement, validated against the sequential reference.
//!
//! Each sweep run is checked once: race-free, and the same answer, bit
//! for bit, as the sweep's first run. The acceptance bars are asserted
//! by `tests/policies.rs` on the `--smoke` inputs: transfer-aware below
//! both others on nvlink-pair, capacity-aware below capacity-blind,
//! and locality-aware migrating less than round-robin on a dependent
//! chain.
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
    TRANSFER_CHAIN_DEVICES,
};
use gpu_sim::{DeviceProfile, Topology, TopologyKind};
use grcuda::{Options, PlacementPolicy};
use metrics::OverlapMetrics;

use crate::check;
use crate::metric::Metrics;

/// Transfer-chain workload across every interconnect preset and the
/// three placement policies whose contrast it was built for. Records
/// the `chain.*` metrics.
fn topology_sweep(smoke: bool, m: &mut Metrics) {
    let n = if smoke { 1 << 18 } else { 1 << 20 };
    let iters = 8;
    let policies = [
        PlacementPolicy::RoundRobin,
        PlacementPolicy::LocalityAware,
        PlacementPolicy::TransferAware,
    ];
    // Link labels of the NVLink-pair machine, for its migrated bytes by
    // link.
    let nvlink_pair = Topology::preset(
        TopologyKind::NvlinkPair,
        TRANSFER_CHAIN_DEVICES,
        &DeviceProfile::tesla_p100(),
    );
    let mib = |b: f64| b / (1 << 20) as f64;
    let mut rows = Vec::new();
    let mut first = None;
    for topo in TopologyKind::ALL {
        for policy in policies {
            let r = transfer_chain(policy, topo, n, iters);
            let prefix = format!("chain.{}.{}", topo.name(), policy.name());
            check(&r, first.as_ref(), &prefix);
            let st = r.runtime.snapshot();
            let (migrations, p2p) = (st.migrations.all, st.migrations.p2p);
            rows.push(vec![
                topo.name().to_string(),
                policy.name().to_string(),
                ms(r.makespan),
                format!("{:.1}", mib(st.host_link_bytes())),
                format!("{} ({} KiB)", migrations.count, migrations.bytes / 1024),
                format!("{} ({} KiB)", p2p.count, p2p.bytes / 1024),
            ]);
            m.lower(&format!("{prefix}.makespan_ms"), r.makespan * 1e3);
            m.lower(
                &format!("{prefix}.host_link_mib"),
                mib(st.host_link_bytes()),
            );
            m.exact(&format!("{prefix}.migrations"), migrations.count as f64);
            if topo == TopologyKind::NvlinkPair && policy != PlacementPolicy::RoundRobin {
                let links = nvlink_pair.links().iter().zip(&st.links);
                for (link, traffic) in links {
                    m.lower(
                        &format!("{prefix}.link.{}_mib", link.label()),
                        mib(traffic.bytes),
                    );
                }
            }
            first.get_or_insert(r);
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
}

/// The finite-device-memory suite: capacity-aware vs capacity-blind
/// scheduling under a working set ~2× one device's capacity. Records
/// the `oversub.*` metrics.
fn oversubscribe_sweep(smoke: bool, m: &mut Metrics) {
    let n = if smoke { 1 << 16 } else { 1 << 18 };
    let iters = if smoke { 2 } else { 4 };
    let capacity = oversub_capacity(n);
    let mib = |b: usize| b as f64 / (1 << 20) as f64;
    let mut rows = Vec::new();
    let mut first = None;
    for (label, policy, eviction) in oversub_configs() {
        let r = oversubscribe(policy, eviction, Some(capacity), n, iters);
        check(&r, first.as_ref(), label);
        let st = r.runtime.snapshot().memory;
        rows.push(vec![
            label.to_string(),
            ms(r.makespan),
            format!("{}", st.evictions),
            format!("{:.2}", mib(st.spilled_bytes)),
            format!("{:.0}%", st.prefetch_hit_rate() * 100.0),
            format!(
                "{:.1} / {:.1}",
                mib(st.peak_resident[0]),
                mib(st.peak_resident[1])
            ),
        ]);
        m.lower(&format!("oversub.{label}.makespan_ms"), r.makespan * 1e3);
        m.exact(&format!("oversub.{label}.evictions"), st.evictions as f64);
        m.lower(
            &format!("oversub.{label}.spilled_mib"),
            mib(st.spilled_bytes),
        );
        m.higher(
            &format!("oversub.{label}.prefetch_hit_pct"),
            st.prefetch_hit_rate() * 100.0,
        );
        first.get_or_insert(r);
    }
    println!(
        "\nOversubscription sweep: working set ~2x one device's capacity \
         ({:.1} MiB/device)\n{}",
        mib(capacity),
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
