//! Adaptive: the history loop closed end to end.
//!
//! Sweeps the mixed workload (transfer chain, oversubscription, fanout
//! mix — see `benchmarks::mixed`) across every placement policy, all
//! under `Options::parallel()`. Every runtime learns per-kernel
//! duration priors as its kernels complete; `adaptive` is the one
//! policy that reads them.
//!
//! Each run is checked once: race-free, and the same answer, bit for
//! bit, as the first static policy's run of its suite. The acceptance
//! bar is asserted by `tests/policies.rs` at the `--smoke` scale: no
//! single static policy wins every suite, and Adaptive matches or beats
//! the best static policy on each one — including a strict >5% win on
//! the fanout mix, the suite only history can win.
//!
//! `--smoke` shrinks the scales. `adaptive.*` makespans gate
//! lower-is-better, speedups over the best static policy
//! higher-is-better, and the calibration sample count of adaptive's
//! fanout run exactly.

use bench::{ms, render_table, round_sig};
use benchmarks::{mixed_runs, Experiment, MixedScale};
use grcuda::PlacementPolicy;

use crate::check;
use crate::metric::Metrics;

pub fn run(smoke: bool, metrics: &mut Metrics) {
    let scale = if smoke {
        MixedScale::smoke()
    } else {
        MixedScale::full()
    };

    // Makespans of every policy on every suite, adaptive last so the
    // table reads statics-then-challenger.
    let mut first: Option<[(&str, Experiment); 3]> = None;
    let mut rows = Vec::new();
    let mut statics = Vec::new();
    let mut adaptive = [0.0; 3];
    let mut samples = 0;
    for policy in PlacementPolicy::STATIC
        .into_iter()
        .chain([PlacementPolicy::Adaptive])
    {
        let runs = mixed_runs(policy, &scale);
        for (i, (suite, r)) in runs.iter().enumerate() {
            let what = format!("{suite} {}", policy.name());
            check(r, first.as_ref().map(|f| &f[i].1), &what);
        }
        let makespans = runs.each_ref().map(|(_, r)| r.makespan);
        let mut cells = vec![policy.name().to_string()];
        cells.extend(makespans.map(ms));
        rows.push(cells);
        if policy == PlacementPolicy::Adaptive {
            adaptive = makespans;
            // Calibration fed the decisions: the fanout run accumulated
            // per-kernel duration observations.
            samples = runs[2].1.runtime.snapshot().kernel_samples;
        } else {
            statics.push((policy, makespans));
        }
        first.get_or_insert(runs);
    }
    println!("Mixed workload x placement policies\n");
    println!(
        "{}",
        render_table(&["policy", "chain", "oversub", "fanout"], &rows)
    );

    let suites = first.expect("the sweep ran").map(|(suite, _)| suite);
    for (i, suite) in suites.into_iter().enumerate() {
        let a = adaptive[i];
        let (best_policy, best) = statics
            .iter()
            .map(|&(p, m)| (p, m[i]))
            .min_by(|x, y| x.1.total_cmp(&y.1))
            .expect("static policies");
        let speedup = round_sig(best / a, 6);
        println!(
            "{suite}: best static is {} — adaptive is {speedup}x",
            best_policy.name()
        );
        metrics.lower(&format!("adaptive.{suite}.makespan_ms"), a * 1e3);
        metrics.lower(&format!("adaptive.{suite}.best_static_ms"), best * 1e3);
        metrics.higher(&format!("adaptive.{suite}.speedup"), speedup);
    }
    metrics.exact("adaptive.calib.kernel.samples", samples as f64);
}
