//! Fig. 1 — achievable speedup in hand-tuned C++ CUDA (streams, events,
//! manual prefetch) over serial C++ CUDA execution, on the GTX 1660
//! Super and Tesla P100.
//!
//! The serial C++ baseline issues the same kernels on a single stream
//! over plain managed memory (no prefetch) and synchronizes after each
//! computation; the hand-tuned version adds streams, events and
//! prefetches.
//!
//! `paper.fig1.<device>.speedup_x` is the geomean over the six
//! benchmarks and carries the paper's (1.51× on the 1660, 1.62× on the
//! P100; VEC highest at 2.54× / 2.26×, ML lowest-ish at 1.15× / 1.22×);
//! `cold_speedup_x` is the same ratio over first iterations.

use bench::{ms, render_table};
use gpu_sim::DeviceProfile;

use crate::metric::Metrics;
use crate::runs::{self, dev_key, steady, Ratios, Strategy};

pub fn run(_smoke: bool, metrics: &mut Metrics) {
    let devices = [DeviceProfile::gtx1660_super(), DeviceProfile::tesla_p100()];
    let mut rows = Vec::new();
    let mut speedups = Ratios::default();
    for (dev, input) in runs::sweep(&devices, true) {
        let serial = runs::run(input, dev, Strategy::SerialCuda);
        let tuned = runs::run(input, dev, Strategy::HandTuned);
        let speedup = speedups.push(dev, &serial, &tuned);
        rows.push(vec![
            dev.name.clone(),
            input.bench.name().into(),
            ms(steady(&serial)),
            ms(steady(&tuned)),
            format!("{speedup:.2}x"),
        ]);
    }
    println!("Fig. 1 — hand-tuned CUDA (streams+events+prefetch) vs serial CUDA");
    let headers = ["device", "bench", "serial C++", "hand-tuned", "speedup"];
    println!("{}", render_table(&headers, &rows));
    for (dev, paper) in devices.iter().zip([1.51, 1.62]) {
        let key = format!("paper.fig1.{}.", dev_key(dev));
        speedups.declare(metrics, Some(dev), (&key, "speedup_x"), (paper, paper));
    }
}
