//! Fig. 8 — speedup of the GrCUDA parallel scheduler over the three
//! hand-written CUDA baselines of §V-D:
//!
//! * CUDA Graphs with manual dependencies,
//! * CUDA Graphs built by stream capture,
//! * hand-tuned CUDA events with manual prefetching.
//!
//! Columns are the speedup *of GrCUDA over* each baseline (>1: GrCUDA
//! faster). Paper headline, recorded as the reference 1.0 on the three
//! `paper.fig8.vs_*_x` geomeans: GrCUDA is never significantly slower
//! than any baseline and beats both CUDA Graphs variants on the
//! fault-capable GPUs because graphs cannot express unified-memory
//! prefetch; against the hand-tuned events baseline it is at parity.
//! `--smoke` restricts the sweep to the middle scale.

use bench::{ms, render_table};
use gpu_sim::DeviceProfile;

use crate::metric::Metrics;
use crate::runs::{self, steady, Ratios, Strategy};

pub fn run(smoke: bool, metrics: &mut Metrics) {
    let devices = DeviceProfile::paper_devices();
    let mut rows = Vec::new();
    let mut baselines = [
        ("vs_graphs_manual_x", Strategy::GraphManual),
        ("vs_graphs_capture_x", Strategy::GraphCapture),
        ("vs_events_x", Strategy::HandTuned),
    ]
    .map(|(name, how)| (name, how, Ratios::default()));

    for (dev, input) in runs::sweep(&devices, smoke) {
        let gr = runs::run(input, dev, Strategy::parallel());
        let mut row = vec![
            dev.name.clone(),
            input.bench.name().into(),
            format!("{}", input.scale),
            ms(steady(&gr)),
        ];
        for (_, how, ratios) in &mut baselines {
            let over = ratios.push(dev, &runs::run(input, dev, *how), &gr);
            row.push(format!("{over:.2}x"));
        }
        rows.push(row);
    }
    println!("Fig. 8 — GrCUDA parallel scheduler vs hand-optimized CUDA baselines");
    println!("(columns are speedup OF GrCUDA OVER each baseline; >1 = GrCUDA faster)");
    let headers = [
        "device",
        "bench",
        "scale",
        "GrCUDA",
        "vs Graphs+manual",
        "vs Graphs+capture",
        "vs hand-tuned events",
    ];
    println!("{}", render_table(&headers, &rows));
    for (name, _, ratios) in &baselines {
        ratios.declare(metrics, None, ("paper.fig8.", name), (1.0, 1.0));
    }
}
