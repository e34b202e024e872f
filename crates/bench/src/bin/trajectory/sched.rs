//! Sched: the scheduler hot path stage by stage, in virtual time.
//!
//! The soak measures end-to-end launch throughput; this sweep isolates
//! two stages that make it up, so a regression in one layer is visible
//! before it is averaged away (host time per stage is `benchmark/`'s
//! business: `grcuda.context.submit_ns_per_launch` and the other
//! per-layer metrics):
//!
//! * **submit** — serial [`Kernel::launch`](grcuda::Kernel) versus one
//!   [`GrCuda::launch_batch`] for the same kernel sequence, in
//!   deterministic virtual host time per launch;
//! * **pipeline** — a multi-GPU round-robin pipeline (8 disjoint
//!   chains × 4 devices) that exercises placement, the per-device
//!   scratch bookkeeping, the incremental rate solver and the race
//!   check, reporting the pipeline's virtual throughput, the solver's
//!   cache hit rate and the exact counts behind the engine's advance
//!   loop, gated exactly so a change that visits more shows up as a
//!   count, not as a guess from a trace: the three `sched.rate_*`
//!   counts of `Engine::refresh_rates`, and `sched.race_scans`, the
//!   ready tasks the in-flight value table flagged for a pair-by-pair
//!   scan — 0 on this race-free pipeline, whose tasks are each checked
//!   against their own arguments only;
//! * **placement context** — one fixed batched program on a 2 × 2
//!   cluster under each of the eight presets, gating exactly the
//!   `Cuda::placement_probe` calls per launch
//!   (`sched.placement_probes_per_launch.<preset>`): one per distinct
//!   argument array for a preset that reads transfer estimates, 0 for
//!   the four that do not (`single-gpu`, `round-robin`,
//!   `locality-aware`, `stream-aware`).
//!
//! The same at both scales: there is no reduced variant.

use bench::{render_table, round_sig};
use gpu_sim::{Cluster, DeviceProfile, Grid, NicKind, Topology, TopologyKind};
use grcuda::{Arg, BatchLaunch, GrCuda, Options, PlacementPolicy};
use kernels::util::SCALE;

use crate::metric::Metrics;

/// Launches per submit measurement.
const SUBMIT_LAUNCHES: usize = 64;
/// Pipeline shape: disjoint chains × rounds over 4 devices.
const PIPE_CHAINS: usize = 8;
const PIPE_ROUNDS: usize = 24;

/// `Cuda::placement_probe` calls per launch under `policy`: four
/// ping-pong chains, one batch per round, six rounds, on two nodes of
/// two GPUs.
fn probes_per_launch(policy: PlacementPolicy) -> f64 {
    let (chains, rounds, n) = (4, 6, 1 << 12);
    let dev = DeviceProfile::tesla_p100();
    let cluster = Cluster::new(2, 2, TopologyKind::PcieOnly, NicKind::InfinibandHdr);
    let g = GrCuda::with_topology(
        dev.clone(),
        cluster.build(&dev),
        Options::parallel(),
        policy,
    );
    let scale = g.build_kernel(&SCALE).expect("signature parses");
    let arrays: Vec<_> = (0..2 * chains).map(|_| g.array_f32(n)).collect();
    for a in &arrays {
        a.fill_f32(1.0);
    }
    for round in 0..rounds {
        let args: Vec<[Arg; 4]> = arrays
            .chunks(2)
            .map(|pair| {
                let (src, dst) = (&pair[round % 2], &pair[1 - round % 2]);
                [
                    Arg::array(src),
                    Arg::array(dst),
                    Arg::scalar(1.01),
                    Arg::scalar(n as f64),
                ]
            })
            .collect();
        let calls: Vec<BatchLaunch<'_>> = args
            .iter()
            .map(|args| BatchLaunch {
                kernel: &scale,
                grid: Grid::d1(8, 128),
                args,
            })
            .collect();
        g.launch_batch(&calls).expect("placement batch");
    }
    g.sync();
    assert!(g.races().is_empty());
    g.snapshot().placement_probes as f64 / (chains * rounds) as f64
}

/// Virtual host µs per launch of a submission closure.
fn time_submit(g: &GrCuda, submit: impl FnOnce()) -> f64 {
    let v0 = g.now();
    submit();
    let virt_us = (g.now() - v0) * 1e6 / SUBMIT_LAUNCHES as f64;
    g.sync();
    virt_us
}

pub fn run(_smoke: bool, m: &mut Metrics) {
    // --- submit: serial launches vs one batch, same kernel sequence ---
    let g = GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel());
    let k = g.build_kernel(&SCALE).expect("signature parses");
    let n = 1 << 12;
    let grid = Grid::d1(8, 128);
    let arrays: Vec<_> = (0..16).map(|_| g.array_f32(n)).collect();
    for a in &arrays {
        a.fill_f32(1.0);
    }
    g.sync();
    let scale_args = |i: usize| -> Vec<Arg> {
        vec![
            Arg::array(&arrays[2 * (i % 8)]),
            Arg::array(&arrays[2 * (i % 8) + 1]),
            Arg::scalar(1.01),
            Arg::scalar(n as f64),
        ]
    };
    let arg_lists: Vec<Vec<Arg>> = (0..SUBMIT_LAUNCHES).map(scale_args).collect();
    // Warm both paths once so neither measurement pays first-use costs.
    for args in &arg_lists {
        k.launch(grid, args).expect("warm launch");
    }
    g.sync();
    let serial_virt_us = time_submit(&g, || {
        for args in &arg_lists {
            k.launch(grid, args).expect("serial launch");
        }
    });
    let calls: Vec<BatchLaunch<'_>> = arg_lists
        .iter()
        .map(|args| BatchLaunch {
            kernel: &k,
            grid,
            args,
        })
        .collect();
    let batch_virt_us = time_submit(&g, || {
        g.launch_batch(&calls).expect("batched launch");
    });
    let batch_speedup = round_sig(serial_virt_us / batch_virt_us, 6);

    // --- pipeline: 4-device round-robin chains (placement + solver) ---
    let dev = DeviceProfile::tesla_p100();
    let topo = Topology::pcie_only(4, &dev);
    let pipe = GrCuda::with_topology(dev, topo, Options::parallel(), PlacementPolicy::RoundRobin);
    let scale = pipe.build_kernel(&SCALE).expect("signature parses");
    let chains: Vec<[grcuda::DeviceArray; 2]> = (0..PIPE_CHAINS)
        .map(|_| [pipe.array_f32(n), pipe.array_f32(n)])
        .collect();
    for [a, b] in &chains {
        a.copy_from_f32(&vec![1.0; n]);
        b.copy_from_f32(&vec![0.0; n]);
    }
    pipe.sync();
    let v0 = pipe.now();
    let pipe_launches = PIPE_CHAINS * PIPE_ROUNDS;
    for round in 0..PIPE_ROUNDS {
        // One launch per chain per round; round-robin pins chain c to
        // device c % 4, so after the initial transfers each device runs
        // an independent kernel pipeline.
        let args: Vec<[Arg; 4]> = chains
            .iter()
            .map(|[a, b]| {
                let (src, dst) = if round % 2 == 0 { (a, b) } else { (b, a) };
                [
                    Arg::array(src),
                    Arg::array(dst),
                    Arg::scalar(1.01),
                    Arg::scalar(n as f64),
                ]
            })
            .collect();
        let calls: Vec<BatchLaunch<'_>> = args
            .iter()
            .map(|args| BatchLaunch {
                kernel: &scale,
                grid,
                args,
            })
            .collect();
        pipe.launch_batch(&calls).expect("pipeline batch");
    }
    pipe.sync();
    let pipe_rate = pipe_launches as f64 / (pipe.now() - v0);
    let st = pipe.snapshot().engine;
    let solver_touched = st.rate_tasks_solved + st.rate_tasks_reused;
    let hit_pct = 100.0 * st.rate_tasks_reused as f64 / solver_touched.max(1) as f64;
    assert!(
        st.rate_tasks_reused > 0,
        "disjoint per-device chains must let the incremental solver reuse rates"
    );

    let rows = vec![
        vec![
            "submit / launch".to_string(),
            format!("{batch_virt_us:.3} vµs (batch)"),
            format!("{serial_virt_us:.3} vµs (serial), {batch_speedup:.1}x"),
        ],
        vec![
            "pipeline".to_string(),
            format!("{pipe_launches} launches"),
            format!("{pipe_rate:.0} virtual launches/s"),
        ],
        vec![
            "rate solver".to_string(),
            format!("{} refreshes", st.rate_refreshes),
            format!("{hit_pct:.1}% rates reused"),
        ],
    ];
    println!("{}", render_table(&["stage", "measure", "detail"], &rows));

    m.lower("sched.serial_submit_virtual_us", serial_virt_us);
    m.lower("sched.batch_submit_virtual_us", batch_virt_us);
    m.higher("sched.batch_submit_speedup_x", batch_speedup);
    m.higher("sched.pipeline_virtual_launches_per_s", pipe_rate);
    m.higher("sched.solver_reuse_hit_pct", hit_pct);
    m.exact("sched.rate_refreshes", st.rate_refreshes as f64);
    m.exact("sched.rate_tasks_solved", st.rate_tasks_solved as f64);
    m.exact("sched.rate_tasks_reused", st.rate_tasks_reused as f64);
    m.exact("sched.race_scans", st.race_scans as f64);

    // --- placement context: what assembling it prices, per preset ---
    let mut rows = Vec::new();
    for policy in PlacementPolicy::ALL {
        let probes = probes_per_launch(policy);
        rows.push(vec![policy.name().to_string(), format!("{probes}")]);
        let key = format!("sched.placement_probes_per_launch.{}", policy.name());
        m.exact(&key, probes);
    }
    println!(
        "\n{}",
        render_table(&["policy", "placement probes / launch"], &rows)
    );
}
