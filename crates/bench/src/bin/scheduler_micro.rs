//! Stage-by-stage microbenchmark of the scheduler hot path.
//!
//! The soak harness measures end-to-end launch throughput; this binary
//! isolates the stages that make it up, so a regression in one layer is
//! visible before it is averaged away:
//!
//! * **arena** — the [`DenseMap`] slab behind every per-vertex map on
//!   the launch path, driven with the scheduler's monotonic-window
//!   access pattern (insert at the front, probe the window, retire the
//!   back) against a `HashMap` doing the same work;
//! * **submit** — serial [`Kernel::launch`](grcuda::Kernel) versus one
//!   [`GrCuda::launch_batch`] for the same kernel sequence, both in
//!   wall time and in deterministic virtual host time per launch;
//! * **pipeline** — a multi-GPU round-robin pipeline (8 disjoint
//!   chains × 4 devices) that exercises placement, the per-device
//!   scratch bookkeeping and the incremental rate solver, reporting
//!   the solver's cache hit rate and the pipeline's virtual
//!   throughput.
//!
//! `sched.*` keys are simulated-virtual-time quantities — deterministic
//! across machines, gated by `bench_gate`. `wall.sched.*` keys are
//! wall-clock — informational only.
//!
//! Run:  `cargo run --release -p bench --bin scheduler_micro`
//! CI:   `cargo run --release -p bench --bin scheduler_micro -- --json BENCH_sched.json`

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use bench::{emit_bench_json, parse_bench_args, render_table, round_sig};
use dag::DenseMap;
use gpu_sim::{DeviceProfile, Grid, Topology};
use grcuda::{Arg, BatchLaunch, GrCuda, Options, PlacementPolicy};
use kernels::util::SCALE;

/// Ops per arena measurement (insert + window probe + retire).
const ARENA_OPS: usize = 200_000;
/// Live window emulating the in-flight frontier between syncs.
const ARENA_WINDOW: u64 = 64;
/// Launches per submit measurement.
const SUBMIT_LAUNCHES: usize = 64;
/// Pipeline shape: disjoint chains × rounds over 4 devices.
const PIPE_CHAINS: usize = 8;
const PIPE_ROUNDS: usize = 24;

/// The scheduler's window access pattern — insert at the front, probe
/// the window, retire the back — in ns per iteration, over either map.
macro_rules! arena_pattern_ns {
    ($insert:expr, $get:expr, $remove:expr) => {{
        let t0 = Instant::now();
        for i in 0..ARENA_OPS as u64 {
            $insert(i);
            black_box($get(i - i.min(ARENA_WINDOW) / 2));
            if i >= ARENA_WINDOW {
                $remove(i - ARENA_WINDOW);
            }
        }
        t0.elapsed().as_secs_f64() * 1e9 / ARENA_OPS as f64
    }};
}

/// (wall ns/launch, virtual µs/launch) for a submission closure.
fn time_submit(g: &GrCuda, submit: impl FnOnce()) -> (f64, f64) {
    let v0 = g.now();
    let t0 = Instant::now();
    submit();
    let wall_ns = t0.elapsed().as_secs_f64() * 1e9 / SUBMIT_LAUNCHES as f64;
    let virt_us = (g.now() - v0) * 1e6 / SUBMIT_LAUNCHES as f64;
    g.sync();
    (wall_ns, virt_us)
}

fn main() {
    let (_, json_path) =
        parse_bench_args(std::env::args().skip(1), false).unwrap_or_else(|e| panic!("{e}"));

    // --- arena: DenseMap vs HashMap under the launch-path pattern ---
    let mut dm: DenseMap<u64, u64> = DenseMap::new();
    let dense_ns = arena_pattern_ns!(
        |i: u64| dm.insert(i, i),
        |i: u64| dm.contains_key(i),
        |i: u64| dm.remove(i)
    );
    let mut hm: HashMap<u64, u64> = HashMap::new();
    let hash_ns = arena_pattern_ns!(
        |i: u64| hm.insert(i, i),
        |i: u64| hm.contains_key(&i),
        |i: u64| hm.remove(&i)
    );

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
    let (serial_wall_ns, serial_virt_us) = time_submit(&g, || {
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
    let (batch_wall_ns, batch_virt_us) = time_submit(&g, || {
        g.launch_batch(&calls).expect("batched launch");
    });
    let batch_speedup = round_sig(serial_virt_us / batch_virt_us, 6);

    // --- pipeline: 4-device round-robin chains (placement + solver) ---
    let dev = DeviceProfile::tesla_p100();
    let topo = Topology::pcie_only(4, &dev);
    let m = GrCuda::with_topology(dev, topo, Options::parallel(), PlacementPolicy::RoundRobin);
    let scale = m.build_kernel(&SCALE).expect("signature parses");
    let chains: Vec<[grcuda::DeviceArray; 2]> = (0..PIPE_CHAINS)
        .map(|_| [m.array_f32(n), m.array_f32(n)])
        .collect();
    for [a, b] in &chains {
        a.copy_from_f32(&vec![1.0; n]);
        b.copy_from_f32(&vec![0.0; n]);
    }
    m.sync();
    let v0 = m.now();
    let t0 = Instant::now();
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
        m.launch_batch(&calls).expect("pipeline batch");
    }
    m.sync();
    let pipe_wall_ns = t0.elapsed().as_secs_f64() * 1e9 / pipe_launches as f64;
    let pipe_rate = pipe_launches as f64 / (m.now() - v0);
    let st = m.stats();
    let solver_touched = st.rate_tasks_solved + st.rate_tasks_reused;
    let hit_pct = 100.0 * st.rate_tasks_reused as f64 / solver_touched.max(1) as f64;
    assert!(
        st.rate_tasks_reused > 0,
        "disjoint per-device chains must let the incremental solver reuse rates"
    );

    let rows = vec![
        vec![
            "arena window op".to_string(),
            format!("{dense_ns:.0} ns (DenseMap)"),
            format!("{hash_ns:.0} ns (HashMap)"),
        ],
        vec![
            "submit / launch".to_string(),
            format!("{batch_wall_ns:.0} ns, {batch_virt_us:.3} vµs (batch)"),
            format!("{serial_wall_ns:.0} ns, {serial_virt_us:.3} vµs (serial)"),
        ],
        vec![
            "pipeline / launch".to_string(),
            format!("{pipe_wall_ns:.0} ns wall"),
            format!("{pipe_rate:.0} virtual launches/s"),
        ],
        vec![
            "rate solver".to_string(),
            format!("{} refreshes", st.rate_refreshes),
            format!("{hit_pct:.1}% rates reused"),
        ],
    ];
    println!(
        "{}",
        render_table(&["stage", "fast path", "reference"], &rows)
    );

    let metrics = [
        ("sched.serial_submit_virtual_us".to_string(), serial_virt_us),
        ("sched.batch_submit_virtual_us".to_string(), batch_virt_us),
        ("sched.batch_submit_speedup_x".to_string(), batch_speedup),
        (
            "sched.pipeline_virtual_launches_per_s".to_string(),
            pipe_rate,
        ),
        ("sched.solver_reuse_hit_pct".to_string(), hit_pct),
        ("wall.sched.densemap_op_ns".to_string(), dense_ns),
        ("wall.sched.hashmap_op_ns".to_string(), hash_ns),
        ("wall.sched.serial_submit_ns".to_string(), serial_wall_ns),
        ("wall.sched.batch_submit_ns".to_string(), batch_wall_ns),
        ("wall.sched.pipeline_launch_ns".to_string(), pipe_wall_ns),
    ];
    emit_bench_json(json_path.as_deref(), &metrics).expect("write bench json");
    println!(
        "RESULT scheduler_micro ok batch_speedup_x={batch_speedup:.1} \
         solver_hit_pct={hit_pct:.1} pipeline_virtual_launches_per_s={pipe_rate:.0}"
    );
}
