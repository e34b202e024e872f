//! Integration: the hand-written CUDA baselines of §V-D (hand-tuned
//! events, CUDA Graphs manual, CUDA Graphs capture) compute exactly the
//! same results as the GrCUDA scheduler, race-free.

use benchmarks::{run_graph_capture, run_graph_manual, run_grcuda, run_handtuned, tiny, Bench};
use gpu_sim::DeviceProfile;
use grcuda::Options;

#[test]
fn all_baselines_validate_on_all_benchmarks() {
    let dev = DeviceProfile::gtx1660_super();
    for b in Bench::ALL {
        let spec = b.build(tiny(b));
        run_handtuned(&spec, &dev, true, 2).assert_ok();
        run_handtuned(&spec, &dev, false, 2).assert_ok();
        run_graph_manual(&spec, &dev, 2).assert_ok();
        run_graph_capture(&spec, &dev, 2).assert_ok();
    }
}

#[test]
fn baselines_validate_on_pre_pascal_hardware() {
    // The GTX 960 path uses eager copies instead of fault migrations.
    let dev = DeviceProfile::gtx960();
    for b in [Bench::Vec, Bench::Img, Bench::Hits] {
        let spec = b.build(tiny(b));
        run_handtuned(&spec, &dev, true, 2).assert_ok();
        run_graph_manual(&spec, &dev, 2).assert_ok();
        run_graph_capture(&spec, &dev, 2).assert_ok();
    }
}

#[test]
fn graph_replay_is_deterministic() {
    let dev = DeviceProfile::tesla_p100();
    let spec = Bench::Ml.build(tiny(Bench::Ml));
    let a = run_graph_manual(&spec, &dev, 3);
    let b = run_graph_manual(&spec, &dev, 3);
    a.assert_ok();
    b.assert_ok();
    assert_eq!(
        a.iter_times, b.iter_times,
        "simulation must be deterministic"
    );
}

#[test]
fn grcuda_matches_handtuned_schedule_quality() {
    // §V-D: "we measure how the GrCUDA scheduling is identical to the
    // best hand-tuned scheduling possible" — within a small tolerance.
    let dev = DeviceProfile::tesla_p100();
    let spec = Bench::Vec.build(400_000);
    let gr = run_grcuda(&spec, &dev, Options::parallel(), 2);
    let ht = run_handtuned(&spec, &dev, true, 2);
    gr.assert_ok();
    ht.assert_ok();
    let ratio = gr.steady_time().unwrap() / ht.steady_time().unwrap();
    assert!(
        (0.8..1.25).contains(&ratio),
        "automatic scheduling must match hand-tuned: ratio = {ratio:.3}"
    );
}

#[test]
fn graphs_lose_to_grcuda_when_prefetch_matters() {
    // Fig. 8's root cause: graphs cannot prefetch, so on fault-capable
    // devices the streaming benchmarks pay the slow fault path.
    let dev = DeviceProfile::gtx1660_super();
    let spec = Bench::Vec.build(400_000);
    let gr = run_grcuda(&spec, &dev, Options::parallel(), 2);
    let gm = run_graph_manual(&spec, &dev, 2);
    gr.assert_ok();
    gm.assert_ok();
    assert!(
        gm.steady_time().unwrap() > 1.2 * gr.steady_time().unwrap(),
        "graph replay must pay the fault path: graph {} vs grcuda {}",
        gm.steady_time().unwrap(),
        gr.steady_time().unwrap()
    );
}
