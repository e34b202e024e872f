//! Fig. 12 — hardware utilization metrics on the GTX 1660 Super, serial
//! vs parallel scheduling (cells are `serial / parallel`): device-memory
//! throughput, L2 throughput, IPC and GFLOPS.
//!
//! The counters come from the kernels' cost models (what nvprof/ncu
//! would report per kernel — independent of scheduling), combined with
//! the execution timeline, exactly as the paper does. The headline: all
//! four rate metrics increase by the benchmark's speedup factor wherever
//! kernels overlap (ML shows the largest increase), and VEC shows none
//! because its speedup is pure transfer overlap — the reference
//! `paper.fig12.vec.throughput_gain_x` carries; the other five
//! `throughput_gain_x` keys are gated against their own baseline only.

use bench::{render_table, round_sig};
use benchmarks::Bench;
use gpu_sim::DeviceProfile;
use metrics::HardwareMetrics;

use crate::metric::Metrics;
use crate::runs::{self, bench_key, Input, Strategy};

pub fn run(_smoke: bool, metrics: &mut Metrics) {
    let dev = DeviceProfile::gtx1660_super();
    let mut rows = Vec::new();
    for b in Bench::ALL {
        let hw = |how| {
            let run = runs::run(Input::middle(b), &dev, how);
            HardwareMetrics::from_timeline(&run.timeline, &dev)
        };
        let (hs, hp) = (hw(Strategy::serial()), hw(Strategy::parallel()));
        let gain = hp.dram_throughput / hs.dram_throughput.max(1e-9);
        let giga = |s: f64, p: f64| format!("{:.1} / {:.1}", s / 1e9, p / 1e9);
        rows.push(vec![
            b.name().into(),
            giga(hs.dram_throughput, hp.dram_throughput),
            giga(hs.l2_throughput, hp.l2_throughput),
            format!("{:.3} / {:.3}", hs.ipc, hp.ipc),
            format!("{:.1} / {:.1}", hs.gflops, hp.gflops),
            format!("{gain:.2}x"),
        ]);
        let key = format!("paper.fig12.{}.throughput_gain_x", bench_key(b));
        let gain = metrics.higher(&key, round_sig(gain, 6));
        if b == Bench::Vec {
            gain.paper(1.0, 1.0);
        }
    }
    println!(
        "Fig. 12 — hardware metrics on the {} (serial / parallel)",
        dev.name
    );
    let headers = [
        "bench",
        "DRAM GB/s",
        "L2 GB/s",
        "IPC",
        "GFLOPS",
        "throughput gain",
    ];
    println!("{}", render_table(&headers, &rows));
}
