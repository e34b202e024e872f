//! Block-size autotuning demo — the paper's §VI future work
//! ("estimating the ideal block size based on data size and previous
//! executions"), built on the §IV-A kernel history.
//!
//! Runs each 1-D benchmark kernel repeatedly through
//! `Kernel::launch_autotuned`, then reports the per-kernel choice and
//! how it compares to the worst candidate, as gated `autotune.*`
//! metrics.
//!
//! Usage: `cargo run --release -p bench --bin autotune [-- --smoke]
//! [--json FILE]` (`--smoke` shrinks the input for CI; `--json` merges
//! `autotune.*` metrics into a flat `BENCH_sched.json`-style file).

use bench::{emit_bench_json, ms, parse_bench_args, render_table, round_sig};
use gpu_sim::DeviceProfile;
use grcuda::history::CANDIDATE_BLOCK_SIZES;
use grcuda::{Arg, GrCuda, Options};
use kernels::vec_ops::{REDUCE_SUM_DIFF, SQUARE};

fn main() {
    let (smoke, json_path) =
        parse_bench_args(std::env::args().skip(1), true).unwrap_or_else(|e| panic!("{e}"));
    let wall_start = std::time::Instant::now();
    let g = GrCuda::new(DeviceProfile::gtx1660_super(), Options::parallel());
    let n = if smoke { 1 << 20 } else { 1 << 22 };
    let x = g.array_f32(n);
    let y = g.array_f32(n);
    let z = g.array_f32(1);
    x.fill_f32(1.5);
    y.fill_f32(0.5);

    let square = g.build_kernel(&SQUARE).unwrap();
    let reduce = g.build_kernel(&REDUCE_SUM_DIFF).unwrap();

    // Tuning loop: exploration (6 rounds) + a few exploitation rounds.
    for round in 0..9 {
        let _ = round;
        square
            .launch_autotuned(64, &[Arg::array(&x), Arg::scalar(n as f64)])
            .unwrap();
        square
            .launch_autotuned(64, &[Arg::array(&y), Arg::scalar(n as f64)])
            .unwrap();
        reduce
            .launch_autotuned(
                64,
                &[
                    Arg::array(&x),
                    Arg::array(&y),
                    Arg::array(&z),
                    Arg::scalar(n as f64),
                ],
            )
            .unwrap();
        g.sync(); // the kernels complete: their measurements are recorded
    }

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for name in ["square", "reduce_sum_diff"] {
        let best = g.best_block_size(name, n).unwrap();
        let mut cells = vec![name.to_string(), format!("{best}")];
        let mut tuned = None;
        let mut worst: f64 = 0.0;
        for &bs in &CANDIDATE_BLOCK_SIZES {
            cells.push(match g.mean_kernel_duration(name, bs, n) {
                Some(d) => {
                    if bs == best {
                        tuned = Some(d);
                    }
                    worst = worst.max(d);
                    ms(d)
                }
                None => "-".into(),
            });
        }
        rows.push(cells);

        // The tuned choice must strictly beat the worst explored
        // candidate — otherwise the history taught the tuner nothing.
        let tuned = tuned.expect("best block size was explored");
        assert!(
            tuned < worst,
            "{name}: tuned bs={best} ({tuned}) must beat the worst candidate ({worst})"
        );
        let samples = g.history_samples(name);
        let speedup = round_sig(worst / tuned, 6);
        println!(
            "RESULT autotune kernel={name} best_block={best} \
             speedup_vs_worst={speedup} samples={samples}"
        );
        json.push((format!("autotune.{name}.best_block"), best as f64));
        json.push((format!("autotune.{name}.speedup_vs_worst"), speedup));
        json.push((format!("autotune.{name}.samples"), samples as f64));
    }
    println!("\nBlock-size autotuner after 9 rounds (input: {n} elements, 64 blocks)");
    let mut headers = vec!["kernel", "chosen"];
    let labels: Vec<String> = CANDIDATE_BLOCK_SIZES
        .iter()
        .map(|b| format!("bs={b}"))
        .collect();
    headers.extend(labels.iter().map(|s| s.as_str()));
    println!("{}", render_table(&headers, &rows));

    println!("(paper §V-C: with serial scheduling small blocks under-utilize the GPU;");
    println!(" the tuner discovers this automatically instead of requiring profiling)");
    assert_eq!(g.races().len(), 0);

    let wall = wall_start.elapsed().as_secs_f64();
    json.push(("wall.autotune.wall_s".to_string(), wall));
    emit_bench_json(json_path.as_deref(), &json).expect("write bench json");
    println!("\nRESULT autotune ok wall_s={wall:.2}");
}
