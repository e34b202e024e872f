//! Ablation study over the scheduler's design choices (§IV-C names each
//! policy):
//!
//! * child-stream policy: first-child-on-parent (paper) vs always-parent
//!   (the "simpler policy" §IV-C mentions) vs always-new;
//! * stream reuse: FIFO reuse (paper) vs always-create;
//! * automatic prefetch: on (paper) vs off;
//! * pre-Pascal visibility restriction: on (paper) vs off (GTX 960).
//!
//! Cells are the steady-state time of a variant and its slowdown against
//! the paper's defaults on the same device (above 1.00×, the default
//! policy helps); `paper.ablation.<variant>.slowdown_x` is the geomean
//! of a row.

use bench::{geomean, ms, render_table, round_sig};
use benchmarks::Bench;
use gpu_sim::DeviceProfile;
use grcuda::{DepStreamPolicy, Options, PrefetchPolicy, StreamReusePolicy};

use crate::metric::Metrics;
use crate::runs::{self, steady, Input, Strategy};

/// Steady-state time of every benchmark under `opts`.
fn measure(dev: &DeviceProfile, opts: Options) -> Vec<f64> {
    let time = |b| steady(&runs::run(Input::middle(b), dev, Strategy::GrCuda(opts)));
    Bench::ALL.into_iter().map(time).collect()
}

pub fn run(_smoke: bool, metrics: &mut Metrics) {
    let par = Options::parallel();
    let (dev, dev960) = (DeviceProfile::gtx1660_super(), DeviceProfile::gtx960());
    let always_parent = par.with_dep_stream(DepStreamPolicy::AlwaysParent);
    let always_new = par.with_dep_stream(DepStreamPolicy::AlwaysNew);
    let never_reuse = par.with_stream_reuse(StreamReusePolicy::AlwaysNew);
    let no_prefetch = par.with_prefetch(PrefetchPolicy::None);
    // The visibility restriction matters only on pre-Pascal devices.
    let no_visibility = par.with_visibility_restriction(false);
    // (row label, metric key, device, options)
    let variants = [
        ("paper defaults", None, &dev, par),
        (
            "children: always parent stream",
            Some("always_parent"),
            &dev,
            always_parent,
        ),
        (
            "children: always new stream",
            Some("always_new"),
            &dev,
            always_new,
        ),
        (
            "streams: never reuse",
            Some("never_reuse"),
            &dev,
            never_reuse,
        ),
        ("prefetch: disabled", Some("no_prefetch"), &dev, no_prefetch),
        (
            "960: no visibility restriction",
            Some("gtx960_no_visibility"),
            &dev960,
            no_visibility,
        ),
    ];

    let mut rows = Vec::new();
    for (label, key, dev, opts) in variants {
        let base = measure(dev, par);
        let times = measure(dev, opts);
        let rel: Vec<f64> = times.iter().zip(&base).map(|(t, b)| t / b).collect();
        let cell = |(t, r): (&f64, &f64)| format!("{} ({r:.2}x)", ms(*t));
        let mut row = vec![label.to_string()];
        row.extend(times.iter().zip(&rel).map(cell));
        row.push(format!("{:.2}x", geomean(&rel)));
        rows.push(row);
        if let Some(key) = key {
            let key = format!("paper.ablation.{key}.slowdown_x");
            metrics.higher(&key, round_sig(geomean(&rel), 6));
        }
    }
    println!("Ablation — each variant relative to the paper's default policies");
    println!("(cells: steady-state time (slowdown vs default); >1.00x = the default policy helps)");
    let mut headers = vec!["variant"];
    headers.extend(Bench::ALL.iter().map(|b| b.name()));
    headers.push("geomean");
    println!("{}", render_table(&headers, &rows));
}
