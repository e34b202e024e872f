//! Fig. 6 — the computation structure of each benchmark: kernels, the
//! DAG the scheduler infers at run time, and the stream assignment it
//! chooses.
//!
//! Prints a summary per benchmark and (with `--dot`) the Graphviz DOT of
//! each DAG as reconstructed *by the scheduler* from argument overlap —
//! not from the plan's explicit edges. `paper.fig6.<bench>.streams` is
//! the number of streams the scheduler used, gated exactly, with the
//! plan's hand coloring — the paper's figure — as its reference.

use std::sync::atomic::{AtomicBool, Ordering};

use bench::render_table;
use benchmarks::{grcuda_arrays, run_grcuda, tiny, Bench, PlanArg};
use gpu_sim::DeviceProfile;
use grcuda::{Arg, GrCuda, Options};

use crate::metric::Metrics;
use crate::runs::{bench_key, Input};

/// Set by `--dot`: also dump each inferred DAG.
pub static DOT: AtomicBool = AtomicBool::new(false);

pub fn run(_smoke: bool, metrics: &mut Metrics) {
    let dev = DeviceProfile::tesla_p100();
    let mut rows = Vec::new();
    for b in Bench::ALL {
        // Observe stream fan-out at a realistic scale (at tiny scales
        // kernels drain before the next launch and FIFO reuse correctly
        // collapses the streams) and on a first iteration, which is the
        // structure the figure draws — not one of the shared
        // steady-state runs.
        let res = run_grcuda(&Input::middle(b).spec(), &dev, Options::parallel(), 1);
        res.assert_ok();
        // Rebuild the DAG alone (no timing) for the DOT dump.
        let tiny = Input {
            scale: tiny(b),
            ..Input::middle(b)
        };
        let spec = tiny.spec();
        let g = GrCuda::new(dev.clone(), Options::parallel());
        let arrays = grcuda_arrays(&g, &spec);
        for op in &spec.ops {
            let arg = |a: &PlanArg| match a {
                PlanArg::Arr(i) => Arg::array(&arrays[*i]),
                PlanArg::Scalar(v) => Arg::scalar(*v),
            };
            let args: Vec<Arg> = op.args.iter().map(arg).collect();
            let kernel = g.build_kernel(op.def).unwrap();
            kernel.launch(op.grid, &args).unwrap();
        }
        // Dump the DAG before syncing — `sync()` compacts retired
        // vertices, which is exactly the structure Fig. 6 draws.
        if DOT.load(Ordering::Relaxed) {
            println!("// ---- {} ----\n{}", b.name(), g.dag_dot(b.name()));
        }
        g.sync();
        let planned = spec.planned_streams();
        let vertices = g.scheduler_stats().lifetime_vertices;
        let cells = [spec.ops.len(), planned, res.streams_used, vertices];
        let mut row = vec![b.name().to_string()];
        row.extend(cells.map(|n| n.to_string()));
        rows.push(row);
        let key = format!("paper.fig6.{}.streams", bench_key(b));
        let planned = planned as f64;
        metrics
            .exact(&key, res.streams_used as f64)
            .paper(planned, planned);
    }
    println!("Fig. 6 — benchmark structures (streams inferred by the scheduler)");
    let headers = [
        "bench",
        "kernels/iter",
        "paper streams",
        "scheduler streams",
        "DAG vertices",
    ];
    println!("{}", render_table(&headers, &rows));
}
