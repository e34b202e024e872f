//! Fig. 7 — speedup of the parallel GrCUDA scheduler over the serial
//! GrCUDA scheduler, per benchmark × device × input scale.
//!
//! `paper.fig7.<device>.speedup_x` and `paper.fig7.overall.speedup_x`
//! are the geomeans over the sweep and carry the paper's: 1.44× across
//! the three GPUs, the GTX 960 lowest (~1.25×), the P100 highest
//! (~1.61×), the 1660 Super between them; speedups are mostly
//! independent of input size. `--smoke` restricts the sweep to the
//! middle scale.

use bench::{ms, render_table};
use gpu_sim::DeviceProfile;

use crate::metric::Metrics;
use crate::runs::{self, dev_key, steady, Ratios, Strategy};

pub fn run(smoke: bool, metrics: &mut Metrics) {
    let devices = DeviceProfile::paper_devices();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut speedups = Ratios::default();
    for (dev, input) in runs::sweep(&devices, smoke) {
        let ser = runs::run(input, dev, Strategy::serial());
        let par = runs::run(input, dev, Strategy::parallel());
        let speedup = speedups.push(dev, &ser, &par);
        rows.push(vec![
            dev.name.clone(),
            input.bench.name().into(),
            format!("{}", input.scale),
            ms(steady(&ser)),
            ms(steady(&par)),
            format!("{speedup:.2}x"),
            format!("{}", par.streams_used),
        ]);
    }
    println!("Fig. 7 — parallel vs serial GrCUDA scheduler");
    let headers = [
        "device", "bench", "scale", "serial", "parallel", "speedup", "streams",
    ];
    println!("{}", render_table(&headers, &rows));
    for (dev, paper) in devices
        .iter()
        .zip([(1.25, 1.25), (1.25, 1.61), (1.61, 1.61)])
    {
        let key = format!("paper.fig7.{}.", dev_key(dev));
        speedups.declare(metrics, Some(dev), (&key, "speedup_x"), paper);
    }
    let key = ("paper.fig7.overall.", "speedup_x");
    speedups.declare(metrics, None, key, (1.44, 1.44));
}
