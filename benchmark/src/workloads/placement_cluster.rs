//! `placement_cluster`: fork/join sweeps on a two-node, sixteen-GPU
//! cluster with finite device memory, under each built-in placement
//! policy in turn. Placement context assembly, `select`, batch
//! partitioning, migration routing and eviction do the work here; the
//! single-GPU workloads bypass all of it.

use std::rc::Rc;
use std::time::Instant;

use cuda_sim::Cuda;
use gpu_sim::{Cluster, DeviceProfile, EvictionPolicy, MemoryConfig, NicKind, TopologyKind};
use grcuda::{DeviceSelectionPolicy, GrCuda, Options, PlacementCtx, PlacementPolicy};

use super::{baseline, execute, graphs_baseline, set_host_time, Simulated};
use crate::exec::Bound;
use crate::layers::{self, InSitu};
use crate::measure::{self, RoundTime};
use crate::plan::reference;
use crate::report::Report;
use crate::stats::Sorted;
use crate::trace::aggregate;
use crate::{gen, Config};

const NODES: usize = 2;
const GPUS_PER_NODE: usize = 8;
/// Sweeps per policy and round: 80 launches each. A round (all eight
/// policies) takes about 0.35 s of host time — longer than the other
/// workloads' rounds, because with fewer sweeps the simulated request
/// percentiles move too much with the seed.
const SWEEPS: usize = 56;
/// Full sync every this many sweeps.
const SYNC_EVERY: usize = 4;
/// Device memory, in arrays: everything the kernels write plus the
/// read-only arrays of one sweep. A policy that concentrates the work
/// on few devices then keeps evicting read-only arrays (clean drops,
/// re-fetched over the host link when a later sweep wants them), and no
/// device ever has to spill an array a pending kernel still writes.
const CAPACITY_ARRAYS: usize = gen::FJ_HOT_ARRAYS + gen::FJ_GROUPS;

fn cluster(array_bytes: usize) -> Cluster {
    Cluster::new(
        NODES,
        GPUS_PER_NODE,
        TopologyKind::NvlinkPair,
        NicKind::InfinibandHdr,
    )
    .with_memory(
        MemoryConfig::with_capacity(CAPACITY_ARRAYS * array_bytes)
            .with_eviction(EvictionPolicy::CostAware),
    )
}

fn runtime(array_bytes: usize, options: Options, policy: PlacementPolicy) -> GrCuda {
    GrCuda::with_cluster(
        DeviceProfile::tesla_p100(),
        &cluster(array_bytes),
        options,
        policy,
    )
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let make_plan = || gen::fork_join(cfg.seed, SWEEPS, SYNC_EVERY);
    let plan0 = Rc::new(make_plan());
    let want = reference(&plan0);
    let array_bytes = plan0.arrays[0].byte_len();
    let policies = PlacementPolicy::ALL;
    report.note(format!(
        "program: {} sweeps, {} launches, {} host reads+writes per policy, {} policies per round; \
         stream hash {:016x}",
        plan0.units.len(),
        plan0.launches(),
        plan0.host_ops(),
        policies.len(),
        plan0.stream_hash()
    ));

    // Baselines, once. Serial scheduling ignores placement; CUDA Graphs
    // has none, its replays stay on the first device of the same box.
    let serial_s = baseline(
        &mut report,
        &plan0,
        runtime(array_bytes, Options::serial(), PlacementPolicy::SingleGpu),
        &want,
    );
    let dev = DeviceProfile::tesla_p100();
    let cuda = Cuda::with_topology(dev.clone(), cluster(array_bytes).build(&dev));
    let graphs_s = graphs_baseline(&mut report, &plan0, &cuda, &want);

    let mut first: Option<(Vec<Simulated>, InSitu)> = None;
    let mut policy_wall_s: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    let rounds = measure::rounds(cfg, |tr| {
        let (setup_s, mut bounds) = measure::setup(tr, || {
            let plan = Rc::new(make_plan());
            policies
                .iter()
                .map(|p| Bound::new(plan.clone(), runtime(array_bytes, Options::parallel(), *p)))
                .collect::<Vec<_>>()
        });
        let mut sims = Vec::with_capacity(policies.len());
        let mut counters = InSitu::default();
        let mut round = RoundTime {
            setup_s,
            wall_s: 0.0,
            request_ns: Vec::new(),
        };
        for (bound, walls) in bounds.iter_mut().zip(&mut policy_wall_s) {
            let mut e = execute(&mut report, bound, &want, tr);
            round.wall_s += e.wall_s;
            round.request_ns.append(&mut e.request_ns);
            if !tr.is_on() {
                walls.push(e.wall_s);
            }
            counters.add(&e.counters);
            sims.push(e.sim);
        }
        match &first {
            None => first = Some((sims, counters)),
            Some((f, _)) => report.failed += (*f != sims) as u64,
        }
        round
    });
    let (sims, in_situ) = first.expect("at least the warm-up round ran");
    let total_s: f64 = sims.iter().map(|s| s.virtual_s).sum();
    let mean_s = total_s / policies.len() as f64;
    report.note(rounds.describe());
    report.note(format!(
        "simulated: serial {:.3} ms, CUDA Graphs on one GPU {:.3} ms, mean over policies {:.3} ms \
         (model unvalidated beyond the abstract's aggregate)",
        serial_s * 1e3,
        graphs_s * 1e3,
        mean_s * 1e3
    ));
    for (p, s) in policies.iter().zip(&sims) {
        report.note(format!(
            "  {:<15} simulated {:>9.3} ms, {:>8.3} MiB over links",
            p.name(),
            s.virtual_s * 1e3,
            s.link_mib
        ));
    }

    let launches = plan0.launches() * policies.len();
    // Sweep latencies cluster per policy, so a percentile of the pooled
    // samples sits on a cluster edge and jumps with the seed; take the
    // percentile per policy and average over the policies instead.
    let sweep_percentile_us = |q: f64| {
        sims.iter()
            .map(|s| Sorted::new(s.request_s.clone()).percentile(q))
            .sum::<f64>()
            / sims.len() as f64
            * 1e6
    };
    set_host_time(&mut report, &rounds, launches);
    let v = &mut report.values;
    v.set("virtual_makespan_ms", total_s * 1e3);
    v.set("virtual_speedup_vs_serial_x", serial_s / mean_s);
    v.set("virtual_vs_cuda_graphs_x", graphs_s / mean_s);
    v.set("virtual_request_p50_us", sweep_percentile_us(50.0));
    v.set("virtual_request_p99_us", sweep_percentile_us(99.0));
    v.set("link_traffic_mib", sims.iter().map(|s| s.link_mib).sum());

    if cfg.trace {
        let agg = aggregate(rounds.tracer.spans());
        let execs = rounds.traced_wall_s.len();
        layers::context(&mut report, &agg, &in_situ, execs);
        layers::kernel_share(&mut report, &agg, (launches * execs) as u64);
        layers::closure(cfg, &mut report, &rounds, &agg);
        let plans = [plan0.clone()];
        let launch_ns = layers::replays(
            &mut report,
            &plans,
            layers::in_situ_ns_per_launch(&agg, launches * execs),
        );
        report
            .values
            .set("cuda-sim.launch_ns_per_kernel", launch_ns);
        for ((p, s), wall) in policies.iter().zip(&sims).zip(&policy_wall_s) {
            layers::set_policy(
                &mut report,
                *p,
                s.virtual_s,
                plan0.launches() as f64 / measure::quiet(wall),
            );
        }
        // Every launch on a multi-device machine consults the policy
        // exactly once.
        report.values.set("grcuda.policy.selects", launches as f64);
        report
            .values
            .set("grcuda.policy.select_ns_per_launch", select_ns(array_bytes));
        report
            .values
            .set("grcuda.context.overhead_vs_handtuned_pct", 0.0);
        layers::micro(&mut report, &plans);
        super::serve_tenants::probe(&mut report, cfg.seed);
        layers::audit_and_overlap(
            &mut report,
            &plans,
            || runtime(array_bytes, Options::parallel(), PlacementPolicy::NodeAware),
            None,
        );
    }
    report
}

/// Mean nanoseconds per `select` over the built-in policies, called
/// directly on a synthetic sixteen-device context (the cluster runtime
/// takes its policy as a value, so there is no seam for a wrapper).
fn select_ns(array_bytes: usize) -> f64 {
    const DEVICES: usize = NODES * GPUS_PER_NODE;
    const CALLS: usize = 20_000;
    let parents = [3u32, 11];
    let resident: Vec<usize> = (0..DEVICES).map(|d| (d % 3) * array_bytes).collect();
    let est: Vec<f64> = (0..DEVICES).map(|d| 1e-6 * ((d * 7) % 5) as f64).collect();
    let free = vec![4 * array_bytes; DEVICES];
    let node_of: Vec<u32> = (0..DEVICES).map(|d| (d / GPUS_PER_NODE) as u32).collect();
    let mut inflight: Vec<usize> = (0..DEVICES).map(|d| d % 4).collect();
    let mut policies: Vec<Box<dyn DeviceSelectionPolicy>> =
        PlacementPolicy::ALL.iter().map(|p| p.build()).collect();
    let t = Instant::now();
    for i in 0..CALLS {
        for p in &mut policies {
            let d = p.select(&PlacementCtx {
                device_count: DEVICES,
                parent_devices: &parents,
                resident_bytes: &resident,
                est_transfer_time: &est,
                inflight: &inflight,
                free_bytes: &free,
                arg_bytes: 3 * array_bytes,
                kernel: "bench_join2",
                duration_prior: None,
                node_hint: Some((i % NODES) as u32),
                node_of: &node_of,
            });
            // Feed the choice back so load-based policies keep moving.
            inflight[d as usize] = (inflight[d as usize] + 1) % 8;
        }
    }
    t.elapsed().as_nanos() as f64 / (CALLS * policies.len()) as f64
}
