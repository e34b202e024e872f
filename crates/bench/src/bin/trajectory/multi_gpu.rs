//! Multi-GPU: the paper's §VI future work on the unified scheduler
//! core — one computation DAG, one stream manager and one engine span
//! 1–4 simulated devices, with placement decided per-kernel by a
//! pluggable `DeviceSelectionPolicy` over a selectable interconnect
//! `Topology`.
//!
//! Five parts:
//! * **policy sweep** — every benchmark suite × 1/2/4 devices × every
//!   placement policy, each run validated bit-exactly against the
//!   sequential CPU reference (so all policies/device counts provably
//!   compute identical results) and required to be race-free;
//! * **oversubscription sweep** — the finite-device-memory suite
//!   (working set ~2× one device's capacity): capacity-aware
//!   scheduling (memory-aware placement + cost-aware eviction) must
//!   strictly beat capacity-blind scheduling (transfer-aware + LRU) on
//!   both makespan and spilled bytes, with bit-identical results;
//! * **topology sweep** — the transfer-chain workload across every
//!   interconnect preset × round-robin/locality/transfer-aware: same
//!   DAG, different machine. Asserts the tentpole acceptance bar: on
//!   the NVLink-pair machine, transfer-aware placement yields strictly
//!   lower makespan and strictly fewer host-link bytes than both
//!   round-robin and byte-count locality;
//! * **independent pricing** (B&S-style): embarrassingly parallel across
//!   devices — round-robin and stream-aware placement scale;
//! * **dependent chain** (iterated scaling): serial data flow —
//!   locality placement must keep it on one device; round-robin
//!   ping-pongs data and pays host-mediated migrations. The sweep
//!   asserts locality-aware migrates strictly fewer bytes.
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
use gpu_sim::{DeviceProfile, Grid, Topology, TopologyKind};
use grcuda::{Arg, GrCuda, Options, PlacementPolicy};
use kernels::black_scholes::BLACK_SCHOLES;
use kernels::util::SCALE;
use metrics::OverlapMetrics;

use crate::metric::Metrics;

const G: Grid = Grid {
    blocks: (64, 1, 1),
    threads: (256, 1, 1),
};

/// `n_dev` Tesla P100s over host (PCIe) links only.
fn machine(n_dev: usize, policy: PlacementPolicy) -> GrCuda {
    let dev = DeviceProfile::tesla_p100();
    let topo = Topology::pcie_only(n_dev, &dev);
    GrCuda::with_topology(dev, topo, Options::parallel(), policy)
}

fn pricing(n_dev: usize, policy: PlacementPolicy, n: usize) -> (f64, usize) {
    let g = machine(n_dev, policy);
    let bs = g.build_kernel(&BLACK_SCHOLES).unwrap();
    for _ in 0..8 {
        let x = g.array_f64(n);
        let y = g.array_f64(n);
        x.copy_from_f64(&vec![100.0; n]);
        bs.launch(
            G,
            &[
                Arg::array(&x),
                Arg::array(&y),
                Arg::scalar(n as f64),
                Arg::scalar(100.0),
                Arg::scalar(0.02),
                Arg::scalar(0.3),
                Arg::scalar(1.0),
            ],
        )
        .unwrap();
    }
    g.sync();
    assert!(g.races().is_empty());
    (g.now(), g.migration_stats().0)
}

fn chain(n_dev: usize, policy: PlacementPolicy, n: usize) -> (f64, usize, usize) {
    let g = machine(n_dev, policy);
    let scale = g.build_kernel(&SCALE).unwrap();
    let x = g.array_f32(n);
    let y = g.array_f32(n);
    x.copy_from_f32(&vec![1.0; n]);
    for i in 0..12 {
        let (src, dst) = if i % 2 == 0 { (&x, &y) } else { (&y, &x) };
        scale
            .launch(
                G,
                &[
                    Arg::array(src),
                    Arg::array(dst),
                    Arg::scalar(1.001),
                    Arg::scalar(n as f64),
                ],
            )
            .unwrap();
    }
    g.sync();
    assert!(g.races().is_empty());
    let (migs, bytes) = g.migration_stats();
    (g.now(), migs, bytes)
}

/// Suite × devices × policy sweep: every combination must validate
/// bit-exactly and stay race-free; the table reports time, placement
/// spread and migration traffic.
fn policy_sweep(smoke: bool) {
    let dev = DeviceProfile::tesla_p100();
    let iters = if smoke { 1 } else { 2 };
    let mut rows = Vec::new();
    for b in Bench::ALL {
        let scale = if smoke {
            tiny(b)
        } else {
            benchmarks::sweep(b)[1]
        };
        let spec = b.build(scale);
        for n_dev in [1usize, 2, 4] {
            for policy in PlacementPolicy::ALL {
                if n_dev == 1 && policy != PlacementPolicy::SingleGpu {
                    continue; // placement is moot on one device
                }
                let topo = Topology::pcie_only(n_dev, &dev);
                let r =
                    run_multi_gpu(&spec, &dev, Options::parallel(), topo, policy, iters).unwrap();
                assert_eq!(r.races, 0, "{} x{n_dev} {policy:?}: raced", spec.name);
                r.valid.as_ref().unwrap_or_else(|e| {
                    panic!(
                        "{} x{n_dev} {policy:?} diverged from the reference \
                         (and thus from the single-GPU run): {e}",
                        spec.name
                    )
                });
                let (migs, bytes) = r.migrations;
                rows.push(vec![
                    spec.name.to_string(),
                    format!("{n_dev}"),
                    policy.name().to_string(),
                    ms(r.cold_time()),
                    format!("{}", r.timeline.devices_used().len()),
                    format!("{migs} ({} KiB)", bytes / 1024),
                ]);
            }
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "suite",
                "GPUs",
                "policy",
                "first-iter ms",
                "devs used",
                "migrations"
            ],
            &rows
        )
    );
    println!("(every row validated bit-exactly against the sequential CPU");
    println!(" reference — placement policies move work, never change results)\n");
}

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
    println!("Policy sweep: suites x 1/2/4 devices x placement policies\n");
    policy_sweep(smoke);

    topology_sweep(smoke, m);
    oversubscribe_sweep(smoke, m);

    // Scheduler-quality gauge for the trajectory: how much transfer time
    // hides behind computation on a migration-heavy 4-device run.
    {
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

    let npricing = if smoke { 1 << 17 } else { 1 << 20 };
    let nchain = if smoke { 1 << 19 } else { 1 << 22 };

    let mut rows = Vec::new();
    let single_pricing = pricing(1, PlacementPolicy::SingleGpu, npricing).0;
    let single_chain = chain(1, PlacementPolicy::SingleGpu, nchain).0;
    let mut chain_bytes = std::collections::HashMap::new();
    for n_dev in [1usize, 2, 4] {
        for policy in [
            PlacementPolicy::RoundRobin,
            PlacementPolicy::LocalityAware,
            PlacementPolicy::StreamAware,
        ] {
            if n_dev == 1 && policy != PlacementPolicy::RoundRobin {
                continue;
            }
            let (tp, mp) = pricing(n_dev, policy, npricing);
            let (tc, mc, bytes) = chain(n_dev, policy, nchain);
            chain_bytes.insert((n_dev, policy), bytes);
            rows.push(vec![
                format!("{n_dev}"),
                policy.name().to_string(),
                format!("{} ({:.2}x)", ms(tp), single_pricing / tp),
                format!("{mp}"),
                format!("{} ({:.2}x)", ms(tc), single_chain / tc),
                format!("{mc}"),
            ]);
        }
    }
    println!("Multi-GPU scaling (paper §VI future work) — Tesla P100s");
    println!(
        "{}",
        render_table(
            &[
                "GPUs",
                "placement",
                "pricing makespan (speedup)",
                "migr.",
                "chain makespan (speedup)",
                "migr."
            ],
            &rows
        )
    );
    // The acceptance check of the policy layer: on the dependent chain,
    // locality-aware placement must migrate strictly fewer bytes than
    // round-robin.
    for n_dev in [2usize, 4] {
        let rr = chain_bytes[&(n_dev, PlacementPolicy::RoundRobin)];
        let loc = chain_bytes[&(n_dev, PlacementPolicy::LocalityAware)];
        assert!(
            loc < rr,
            "locality-aware must migrate strictly fewer bytes than \
             round-robin on the chain ({n_dev} GPUs): {loc} vs {rr}"
        );
    }
    println!("(independent pricing scales with round-robin/stream-aware; the");
    println!(" dependent chain gains nothing from more GPUs and round-robin");
    println!(" placement pays host-mediated migrations — locality-aware");
    println!(" placement avoids them: strictly fewer bytes, asserted above)");
}
