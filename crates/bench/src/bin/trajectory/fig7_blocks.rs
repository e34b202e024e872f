//! Fig. 7, block-size dimension — the paper sweeps 1-D block sizes from
//! 32 to 1024 threads and annotates which gives the best/worst speedup.
//!
//! Paper headline (§V-C): "in many cases (such as VEC and HITS), using
//! block_size=32 results in higher speedup, but similar execution time
//! as with larger block size. With serial scheduling, small blocks
//! result in under-utilization of GPU resources [...], while DAG
//! scheduling provides better utilization by having multiple kernels run
//! in parallel. [...] programmers have to spend less time profiling
//! their code to find the optimal kernel configuration."
//!
//! `paper.fig7_blocks.<bench>.best_block` is the categorical choice
//! (gated exactly); `paper.fig7_blocks.{serial,parallel}_spread_pct` the
//! mean relative spread of execution time across block sizes, the
//! robustness the quote is about (the parallel one gated, the serial
//! one recorded beside it).

use bench::{ms, render_table, round_sig};
use benchmarks::Bench;
use gpu_sim::DeviceProfile;

use crate::metric::Metrics;
use crate::runs::{self, bench_key, steady, Input, Strategy};

const BLOCK_SIZES: [u32; 6] = [32, 64, 128, 256, 512, 1024];

/// Relative spread of execution time across block sizes.
fn spread(times: &[f64]) -> f64 {
    let max = times.iter().copied().fold(f64::MIN, f64::max);
    let min = times.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / min
}

pub fn run(_smoke: bool, metrics: &mut Metrics) {
    let dev = DeviceProfile::gtx1660_super();
    let mut rows = Vec::new();
    let (mut ser_spreads, mut par_spreads) = (Vec::new(), Vec::new());
    for b in Bench::ALL {
        let time = |block, how| {
            let block = Some(block);
            steady(&runs::run(
                Input {
                    block,
                    ..Input::middle(b)
                },
                &dev,
                how,
            ))
        };
        let ser = BLOCK_SIZES.map(|block| time(block, Strategy::serial()));
        let par = BLOCK_SIZES.map(|block| time(block, Strategy::parallel()));
        // First of equals, as the figure's annotation picks them.
        let speedup = |i: &usize| ser[*i] / par[*i];
        let by_speedup = |a: &usize, b: &usize| speedup(a).total_cmp(&speedup(b));
        let best = (0..BLOCK_SIZES.len()).rev().max_by(by_speedup).unwrap();
        let worst = (0..BLOCK_SIZES.len()).min_by(by_speedup).unwrap();
        rows.push(vec![
            b.name().into(),
            format!("{} ({:.2}x)", BLOCK_SIZES[best], speedup(&best)),
            format!("{} ({:.2}x)", BLOCK_SIZES[worst], speedup(&worst)),
            format!("{:.0}%", spread(&ser) * 100.0),
            format!("{:.0}%", spread(&par) * 100.0),
            ms(par.iter().copied().fold(f64::MAX, f64::min)),
        ]);
        let key = format!("paper.fig7_blocks.{}.best_block", bench_key(b));
        metrics.exact(&key, BLOCK_SIZES[best] as f64);
        ser_spreads.push(spread(&ser));
        par_spreads.push(spread(&par));
    }
    println!("Fig. 7 (block-size annotations) — {}", dev.name);
    let headers = [
        "bench",
        "best block (speedup)",
        "worst block (speedup)",
        "serial time spread",
        "parallel time spread",
        "best parallel",
    ];
    println!("{}", render_table(&headers, &rows));
    // The parallel scheduler's spread is the claim; the serial one is
    // what it is compared with.
    let mean_pct = |of: &[f64]| round_sig(100.0 * of.iter().sum::<f64>() / of.len() as f64, 6);
    let key = "paper.fig7_blocks.serial_spread_pct";
    metrics.info(key, mean_pct(&ser_spreads));
    let key = "paper.fig7_blocks.parallel_spread_pct";
    metrics.lower(key, mean_pct(&par_spreads));
}
