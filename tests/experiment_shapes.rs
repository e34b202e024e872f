//! Integration: the headline experimental shapes of the paper hold in
//! the reproduction (coarse versions of Figs. 1, 7, 8, 9, 11, 12 — the
//! full regenerators are the `fig*` suites of `crates/bench`'s
//! `trajectory`).

use benchmarks::{
    contention_free_time, run_graph_manual, run_grcuda, run_handtuned, Bench, RunResult,
};
use gpu_sim::DeviceProfile;
use grcuda::Options;
use metrics::{HardwareMetrics, OverlapMetrics};

/// Scales big enough for real overlap but small enough for debug-mode
/// test runs.
fn test_scale(b: Bench) -> usize {
    match b {
        Bench::Vec => 800_000,
        Bench::Bs => 60_000,
        Bench::Img => 160,
        Bench::Ml => 2_000,
        Bench::Hits => 10_000,
        Bench::Dl => 46,
    }
}

/// What every shape here is about: the steady state of a two-iteration
/// run, not the first iteration's one-off transfers.
fn steady(r: &RunResult) -> f64 {
    r.steady_time().expect("two iterations")
}

#[test]
fn fig7_parallel_beats_serial_on_fault_capable_devices() {
    for dev in [DeviceProfile::gtx1660_super(), DeviceProfile::tesla_p100()] {
        let mut wins = 0;
        for b in Bench::ALL {
            let spec = b.build(test_scale(b));
            let ser = run_grcuda(&spec, &dev, Options::serial(), 2);
            let par = run_grcuda(&spec, &dev, Options::parallel(), 2);
            ser.assert_ok();
            par.assert_ok();
            let speedup = steady(&ser) / steady(&par);
            assert!(
                speedup > 0.95,
                "{} on {}: parallel slower ({speedup:.2})",
                b.name(),
                dev.name
            );
            if speedup > 1.1 {
                wins += 1;
            }
        }
        assert!(
            wins >= 4,
            "{}: expected clear wins on most benchmarks, got {wins}",
            dev.name
        );
    }
}

#[test]
fn fig7_p100_speedup_exceeds_gtx960_speedup() {
    // "More hardware resources, together with automatic prefetching,
    // results in better parallelization."
    let geo = |dev: &DeviceProfile| -> f64 {
        let mut acc = 0.0;
        for b in Bench::ALL {
            let spec = b.build(test_scale(b));
            let ser = run_grcuda(&spec, dev, Options::serial(), 2);
            let par = run_grcuda(&spec, dev, Options::parallel(), 2);
            acc += (steady(&ser) / steady(&par)).ln();
        }
        (acc / 6.0).exp()
    };
    let s960 = geo(&DeviceProfile::gtx960());
    let sp100 = geo(&DeviceProfile::tesla_p100());
    assert!(sp100 > s960, "P100 {sp100:.2} must beat 960 {s960:.2}");
}

#[test]
fn fig8_grcuda_beats_graphs_on_streaming_and_matches_events() {
    let dev = DeviceProfile::tesla_p100();
    let spec = Bench::Vec.build(test_scale(Bench::Vec));
    let gr = run_grcuda(&spec, &dev, Options::parallel(), 2);
    let gm = run_graph_manual(&spec, &dev, 2);
    let ht = run_handtuned(&spec, &dev, true, 2);
    gr.assert_ok();
    gm.assert_ok();
    ht.assert_ok();
    assert!(
        steady(&gm) / steady(&gr) > 1.1,
        "graphs must lose (no prefetch)"
    );
    let parity = steady(&gr) / steady(&ht);
    assert!(
        (0.8..1.25).contains(&parity),
        "events parity violated: {parity:.2}"
    );
}

#[test]
fn fig9_bound_is_a_lower_bound_and_bs_contends_hardest() {
    let dev = DeviceProfile::gtx1660_super();
    let mut rels = Vec::new();
    for b in Bench::ALL {
        let spec = b.build(test_scale(b));
        let bound = contention_free_time(&spec, &dev, true);
        let par = run_grcuda(&spec, &dev, Options::parallel(), 2);
        par.assert_ok();
        let rel = bound / steady(&par);
        assert!(
            rel <= 1.05,
            "{}: measured beat the contention-free bound ({rel:.2})",
            b.name()
        );
        rels.push((b, rel));
    }
    let bs_rel = rels.iter().find(|(b, _)| *b == Bench::Bs).unwrap().1;
    for (b, rel) in &rels {
        if *b != Bench::Bs {
            assert!(
                bs_rel <= *rel + 0.05,
                "B&S must contend hardest: {bs_rel:.2} vs {} {rel:.2}",
                b.name()
            );
        }
    }
}

#[test]
fn fig11_vec_speedup_is_pure_transfer_overlap() {
    let dev = DeviceProfile::tesla_p100();
    let spec = Bench::Vec.build(test_scale(Bench::Vec));
    let par = run_grcuda(&spec, &dev, Options::parallel(), 2);
    par.assert_ok();
    let m = OverlapMetrics::from_timeline(&par.timeline);
    assert!(
        m.cc < 0.05,
        "VEC computation must not overlap computation: CC = {:.2}",
        m.cc
    );
    assert!(
        m.ct > 0.1,
        "VEC kernels must overlap transfers: CT = {:.2}",
        m.ct
    );
}

#[test]
fn fig11_img_and_ml_overlap_computation() {
    let dev = DeviceProfile::tesla_p100();
    for b in [Bench::Img, Bench::Ml] {
        let spec = b.build(test_scale(b));
        let par = run_grcuda(&spec, &dev, Options::parallel(), 2);
        par.assert_ok();
        let m = OverlapMetrics::from_timeline(&par.timeline);
        assert!(
            m.cc > 0.15,
            "{} must show CC overlap: {:.2}",
            b.name(),
            m.cc
        );
    }
}

#[test]
fn fig12_throughput_gain_tracks_speedup() {
    let dev = DeviceProfile::gtx1660_super();
    let spec = Bench::Ml.build(test_scale(Bench::Ml));
    let ser = run_grcuda(&spec, &dev, Options::serial(), 2);
    let par = run_grcuda(&spec, &dev, Options::parallel(), 2);
    ser.assert_ok();
    par.assert_ok();
    let hs = HardwareMetrics::from_timeline(&ser.timeline, &dev);
    let hp = HardwareMetrics::from_timeline(&par.timeline, &dev);
    let speedup = steady(&ser) / steady(&par);
    let gain = hp.dram_throughput / hs.dram_throughput;
    assert!(
        (gain / speedup - 1.0).abs() < 0.30,
        "throughput gain {gain:.2} must track speedup {speedup:.2}"
    );
    // GFLOPS stays below the device peak (sanity of the counters).
    assert!(hp.gflops * 1e9 < dev.fp32_flops);
}

#[test]
fn fig1_handtuned_wins_over_serial_cuda() {
    let dev = DeviceProfile::tesla_p100();
    let mut spec = Bench::Ml.build(test_scale(Bench::Ml));
    let tuned = run_handtuned(&spec, &dev, true, 2);
    for op in &mut spec.ops {
        op.stream = 0;
    }
    let serial = run_handtuned(&spec, &dev, false, 2);
    tuned.assert_ok();
    serial.assert_ok();
    assert!(steady(&serial) > 1.15 * steady(&tuned));
}
