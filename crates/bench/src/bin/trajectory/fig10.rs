//! Fig. 10 — example execution timeline of the ML benchmark under the
//! parallel scheduler, with the overlap classes it illustrates. With
//! `--trace` the timeline is also written as `fig10_trace.json`.
//!
//! The paper's figure shows the two classifier branches on two streams,
//! the input H2D transfer overlapping the first kernels, and the final
//! ARGMAX fencing both branches. `paper.fig10.ml.span_ms` is the span
//! of the iteration drawn.

use std::sync::atomic::{AtomicBool, Ordering};

use benchmarks::Bench;
use gpu_sim::DeviceProfile;
use metrics::{render_timeline, to_chrome_trace, OverlapMetrics};

use crate::metric::Metrics;
use crate::runs::{self, steady, Input, Strategy};

/// Set by `--trace`: also export the timeline for Perfetto.
pub static TRACE: AtomicBool = AtomicBool::new(false);

pub fn run(_smoke: bool, metrics: &mut Metrics) {
    let dev = DeviceProfile::gtx1660_super();
    let res = runs::run(Input::middle(Bench::Ml), &dev, Strategy::parallel());
    if TRACE.load(Ordering::Relaxed) {
        let path = "fig10_trace.json";
        std::fs::write(path, to_chrome_trace(&res.timeline, "ML benchmark")).unwrap();
        println!("(wrote {path} — load it at https://ui.perfetto.dev)");
    }
    println!("Fig. 10 — ML benchmark execution timeline ({})", dev.name);
    println!("{}", render_timeline(&res.timeline, 100));
    let m = OverlapMetrics::from_timeline(&res.timeline);
    let [ct, tc, cc, tot] = [m.ct, m.tc, m.cc, m.tot].map(|share| share * 100.0);
    println!("overlaps: CT = {ct:.0}%  TC = {tc:.0}%  CC = {cc:.0}%  TOT = {tot:.0}%");
    metrics.lower("paper.fig10.ml.span_ms", steady(&res) * 1e3);
}
