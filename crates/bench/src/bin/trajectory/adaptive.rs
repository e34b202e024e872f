//! Adaptive: the history loop closed end to end.
//!
//! Sweeps the mixed workload (transfer chain, oversubscription, fanout
//! mix — see `benchmarks::mixed`) across every placement policy. The
//! static policies run with default options; `adaptive` runs with
//! online calibration enabled ([`grcuda::Options::with_calibration`]),
//! which is what feeds its per-kernel duration priors.
//!
//! The acceptance bar, asserted here and in `tests/policies.rs`: no
//! single static policy wins every suite, and Adaptive matches or beats
//! the best static policy on each one — including a strict >5% win on
//! the fanout mix, the suite only history can win.
//!
//! `--smoke` shrinks the scales. `adaptive.*` makespans gate
//! lower-is-better, speedups over the best static policy
//! higher-is-better, and the calibration sample count exactly.

use bench::{ms, render_table, round_sig};
use benchmarks::{fanout_mix, mixed_makespans, MixedScale, MIXED_SUITES};
use grcuda::{Options, PlacementPolicy};

use crate::metric::Metrics;

pub fn run(smoke: bool, metrics: &mut Metrics) {
    let scale = if smoke {
        MixedScale::quick()
    } else {
        MixedScale::smoke()
    };

    // Makespans of every policy on every suite, adaptive last so the
    // table reads statics-then-challenger.
    let statics: Vec<(PlacementPolicy, [(&'static str, f64); 3])> = PlacementPolicy::STATIC
        .iter()
        .map(|&p| (p, mixed_makespans(p, &scale)))
        .collect();
    let adaptive = mixed_makespans(PlacementPolicy::Adaptive, &scale);

    let mut rows = Vec::new();
    for (policy, m) in statics
        .iter()
        .chain(std::iter::once(&(PlacementPolicy::Adaptive, adaptive)))
    {
        let mut cells = vec![policy.name().to_string()];
        cells.extend(m.iter().map(|&(_, t)| ms(t)));
        rows.push(cells);
    }
    println!("Mixed workload x placement policies (adaptive runs calibrated)\n");
    println!(
        "{}",
        render_table(&["policy", "chain", "oversub", "fanout"], &rows)
    );

    for (i, &suite) in MIXED_SUITES.iter().enumerate() {
        let a = adaptive[i].1;
        let (best_policy, best) = statics
            .iter()
            .map(|&(p, m)| (p, m[i].1))
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

        // The acceptance bar: never worse than the best static (2%
        // headroom for exact ties), strictly better on the fanout.
        assert!(
            a <= best * 1.02,
            "{suite}: adaptive {:.3} ms must match best static \
             {best_policy:?} {:.3} ms",
            a * 1e3,
            best * 1e3,
        );
    }
    for &(policy, m) in &statics {
        assert!(
            adaptive[2].1 < m[2].1 * 0.95,
            "fanout: {policy:?} ({:.3} ms) must lose to adaptive ({:.3} ms) by >5%",
            m[2].1 * 1e3,
            adaptive[2].1 * 1e3,
        );
    }

    // Calibration actually fed the decisions: the adaptive fanout run
    // accumulated per-kernel duration observations.
    let samples = fanout_mix(
        PlacementPolicy::Adaptive,
        scale.fanout_n,
        scale.fanout_rounds,
        Options::parallel().with_calibration(true),
    )
    .calib_kernel_samples;
    assert!(samples > 0, "calibration must observe kernel durations");
    metrics.exact("adaptive.calib.kernel.samples", samples as f64);

    println!("\n(acceptance: adaptive matched or beat the best static policy on");
    println!(" every suite and won the fanout mix outright, asserted)");
}
