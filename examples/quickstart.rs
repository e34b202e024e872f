//! Quickstart — the paper's Fig. 4 walk-through (the VEC benchmark).
//!
//! Host code is written *as if it were serial*: declare kernels with
//! NIDL signatures, allocate managed arrays, launch, read the result.
//! The scheduler infers the dependency DAG, puts the two independent
//! `square` kernels on separate streams, fences the reduction on both
//! with an event, and synchronizes only when the CPU reads `Z[0]`.
//!
//! Run: `cargo run --release --example quickstart`

use gpu_sim::{DeviceProfile, Grid};
use grcuda::{Arg, GrCuda, Options};
use kernels::vec_ops::{REDUCE_SUM_DIFF, SQUARE};
use metrics::render_timeline;

fn main() {
    let g = GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel());
    let n = 1 << 22;

    // Fig. 4 (A): declare kernels — `buildkernel(code, name, signature)`.
    let square = g.build_kernel(&SQUARE).expect("signature parses");
    let reduce = g.build_kernel(&REDUCE_SUM_DIFF).expect("signature parses");

    // Fig. 4 (B): declare managed arrays — `float[N]`.
    let x = g.array_f32(n);
    let y = g.array_f32(n);
    let z = g.array_f32(1);
    x.fill_f32(3.0);
    y.fill_f32(2.0);

    // Fig. 4 (C): launch as if serial; the scheduler parallelizes.
    let grid = Grid::d1(64, 256);
    square
        .launch(grid, &[Arg::array(&x), Arg::scalar(n as f64)])
        .unwrap();
    square
        .launch(grid, &[Arg::array(&y), Arg::scalar(n as f64)])
        .unwrap();
    reduce
        .launch(
            grid,
            &[
                Arg::array(&x),
                Arg::array(&y),
                Arg::array(&z),
                Arg::scalar(n as f64),
            ],
        )
        .unwrap();

    // Fig. 4 (D): the CPU access synchronizes exactly what it needs.
    let res = z.get_f32(0);
    println!(
        "sum of squared differences = {res}  (expected {})",
        n as f32 * 5.0
    );
    assert_eq!(res, n as f32 * 5.0);

    // Render the DAG before syncing: `sync()` retires every vertex and
    // compacts the graph, reclaiming the structure we want to show.
    let dot = g.dag_dot("VEC");
    g.sync();
    println!("\nInferred computation DAG (Graphviz):\n{dot}");
    println!(
        "Execution timeline:\n{}",
        render_timeline(&g.timeline(), 90)
    );
    println!(
        "streams created by the scheduler: {}",
        g.snapshot().streams_created
    );
    println!("data races detected: {}", g.races().len());
    assert!(g.races().is_empty());
}
