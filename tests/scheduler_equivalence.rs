//! Integration: the parallel scheduler is observationally equivalent to
//! serial execution on every benchmark, on every device — the paper's
//! central correctness claim ("the host code can be written as if it
//! were run sequentially").

use benchmarks::{run_grcuda, tiny, Bench};
use gpu_sim::DeviceProfile;
use grcuda::Options;

#[test]
fn every_benchmark_matches_the_reference_on_every_device() {
    for dev in DeviceProfile::paper_devices() {
        for b in Bench::ALL {
            let spec = b.build(tiny(b));
            for opts in [Options::serial(), Options::parallel()] {
                let r = run_grcuda(&spec, &dev, opts, 2);
                assert_eq!(r.races, 0, "{} on {}: races", b.name(), dev.name);
                r.valid.as_ref().unwrap_or_else(|e| {
                    panic!("{} on {} ({:?}): {e}", b.name(), dev.name, opts.schedule)
                });
            }
        }
    }
}

#[test]
fn multi_iteration_streaming_stays_correct() {
    let dev = DeviceProfile::gtx1660_super();
    for b in [Bench::Vec, Bench::Bs, Bench::Ml] {
        let spec = b.build(tiny(b));
        run_grcuda(&spec, &dev, Options::parallel(), 5).assert_ok();
    }
}

#[test]
fn iterative_in_place_benchmarks_stay_correct_across_iterations() {
    // HITS and IMG mutate arrays in place across iterations — the
    // hardest case for dependency inference.
    let dev = DeviceProfile::tesla_p100();
    for b in [Bench::Hits, Bench::Img] {
        let spec = b.build(tiny(b));
        run_grcuda(&spec, &dev, Options::parallel(), 4).assert_ok();
    }
}

#[test]
fn scaling_up_preserves_correctness() {
    let dev = DeviceProfile::gtx1660_super();
    let spec = Bench::Vec.build(100_000);
    run_grcuda(&spec, &dev, Options::parallel(), 3).assert_ok();
}
