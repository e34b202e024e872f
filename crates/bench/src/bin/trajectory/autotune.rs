//! Autotune: block-size autotuning — the paper's §VI future work
//! ("estimating the ideal block size based on data size and previous
//! executions"), built on the §IV-A kernel history.
//!
//! Runs each 1-D benchmark kernel repeatedly through
//! `Kernel::launch_autotuned` (`--smoke` shrinks the input) and asserts
//! that the tuned choice strictly beats the worst explored candidate.
//! Records, per kernel, the chosen block size and the history sample
//! count — a choice and a count, gated exactly — and the tuned-vs-worst
//! speedup.

use bench::{ms, render_table, round_sig};
use gpu_sim::DeviceProfile;
use gpu_sim::CANDIDATE_BLOCK_SIZES;
use grcuda::{Arg, GrCuda, Options};
use kernels::vec_ops::{REDUCE_SUM_DIFF, SQUARE};

use crate::metric::Metrics;

pub fn run(smoke: bool, m: &mut Metrics) {
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
    for _ in 0..9 {
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
    for name in ["square", "reduce_sum_diff"] {
        let best = g.calibration(|c| c.best_block_size(name, n)).unwrap();
        let mut cells = vec![name.to_string(), format!("{best}")];
        let mut tuned = None;
        let mut worst: f64 = 0.0;
        for &bs in &CANDIDATE_BLOCK_SIZES {
            cells.push(match g.calibration(|c| c.mean_duration(name, bs, n)) {
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
        let samples = g.calibration(|c| c.history_samples(name));
        let speedup = round_sig(worst / tuned, 6);
        m.exact(&format!("autotune.{name}.best_block"), best as f64);
        m.higher(&format!("autotune.{name}.speedup_vs_worst"), speedup);
        m.exact(&format!("autotune.{name}.samples"), samples as f64);
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
}
