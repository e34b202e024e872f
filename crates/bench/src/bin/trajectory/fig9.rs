//! Fig. 9 — how close the parallel scheduler gets to the theoretical
//! contention-free execution time (critical path with solo durations and
//! dedicated full-bandwidth transfers).
//!
//! `relative` is bound / measured (1.0: no contention at all);
//! `paper.fig9.<bench>.relative`, its mean over devices and scales,
//! carries the paper's range: often around 0.7 — space-sharing costs
//! 30–40% of the ideal — with B&S the outlier at ~0.15–0.2 because ten
//! concurrent streams saturate PCIe and the fp64 units. Bound and
//! measurement are both steady state: warm iterations only re-transfer
//! the streaming inputs. `--smoke` restricts the sweep to the middle
//! scale.

use bench::{ms, render_table, round_sig};
use benchmarks::{contention_free_time, Bench};
use gpu_sim::DeviceProfile;

use crate::metric::Metrics;
use crate::runs::{self, bench_key, steady, Strategy};

pub fn run(smoke: bool, metrics: &mut Metrics) {
    let devices = DeviceProfile::paper_devices();
    let mut rows = Vec::new();
    let mut relatives: Vec<(Bench, f64)> = Vec::new();
    for (dev, input) in runs::sweep(&devices, smoke) {
        let bound = contention_free_time(&input.spec(), dev, true);
        let measured = steady(&runs::run(input, dev, Strategy::parallel()));
        let rel = bound / measured;
        relatives.push((input.bench, rel));
        rows.push(vec![
            dev.name.clone(),
            input.bench.name().into(),
            format!("{}", input.scale),
            ms(bound),
            ms(measured),
            format!("{rel:.2}"),
        ]);
    }
    println!("Fig. 9 — parallel scheduler vs contention-free bound");
    println!("(relative = bound / measured; 1.0 = no contention at all)");
    let headers = [
        "device",
        "bench",
        "scale",
        "contention-free",
        "measured",
        "relative",
    ];
    println!("{}", render_table(&headers, &rows));
    for b in Bench::ALL {
        let mine = relatives.iter().filter(|(of, _)| *of == b);
        let mean = mine.clone().map(|(_, rel)| rel).sum::<f64>() / mine.count() as f64;
        let (lo, hi) = match b {
            Bench::Bs => (0.15, 0.2),
            _ => (0.6, 0.8),
        };
        let key = format!("paper.fig9.{}.relative", bench_key(b));
        metrics.higher(&key, round_sig(mean, 6)).paper(lo, hi);
    }
}
