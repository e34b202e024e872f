//! Fig. 11 — the four overlap classes (CT, TC, CC, TOT) for each
//! benchmark under the parallel scheduler, per device, with the speedup
//! over serial scheduling alongside.
//!
//! Paper headline: VEC's speedup is pure transfer overlap (CC = 0);
//! IMG/ML show real computation–computation overlap; B&S's CT grows with
//! device compute power, and so does its speedup.
//! `paper.fig11.<device>.overlap_{ct,tc,cc,tot}_pct` are the means over
//! the six benchmarks.

use bench::{ms, render_table, round_sig};
use gpu_sim::DeviceProfile;
use metrics::OverlapMetrics;

use crate::metric::Metrics;
use crate::runs::{self, dev_key, steady, Strategy};

pub fn run(_smoke: bool, metrics: &mut Metrics) {
    let devices = DeviceProfile::paper_devices();
    let mut rows = Vec::new();
    let mut overlaps: Vec<(&str, [f64; 4])> = Vec::new();
    for (dev, input) in runs::sweep(&devices, true) {
        let ser = runs::run(input, dev, Strategy::serial());
        let par = runs::run(input, dev, Strategy::parallel());
        let m = OverlapMetrics::from_timeline(&par.timeline);
        let classes = [m.ct, m.tc, m.cc, m.tot].map(|share| share * 100.0);
        overlaps.push((dev_key(dev), classes));
        let mut row = vec![dev.name.clone(), input.bench.name().into()];
        row.extend(classes.map(|pct| format!("{pct:.0}%")));
        row.push(format!("{:.2}x", steady(&ser) / steady(&par)));
        row.push(ms(steady(&par)));
        rows.push(row);
    }
    println!("Fig. 11 — transfer/computation overlap under the parallel scheduler");
    let headers = [
        "device", "bench", "CT", "TC", "CC", "TOT", "speedup", "parallel",
    ];
    println!("{}", render_table(&headers, &rows));
    for dev in devices.iter().map(dev_key) {
        let mine = || overlaps.iter().filter(|(key, _)| *key == dev);
        for (class, name) in ["ct", "tc", "cc", "tot"].into_iter().enumerate() {
            let mean = mine().map(|(_, c)| c[class]).sum::<f64>() / mine().count() as f64;
            let key = format!("paper.fig11.{dev}.overlap_{name}_pct");
            metrics.higher(&key, round_sig(mean, 6));
        }
    }
}
