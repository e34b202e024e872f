//! Negative controls: breaking the scheduler must break the programs.
//!
//! The simulator's race detector and the bit-exact validation are only
//! meaningful if they actually fire when the scheduler misbehaves. These
//! tests disable dependency inference and check that dependent
//! benchmarks are flagged. The positive control, the correct scheduler
//! at the same scales, is a row of `tests/scheduler_equivalence.rs`.

use benchmarks::{run_grcuda, tiny, Bench};
use gpu_sim::DeviceProfile;
use grcuda::Options;

fn broken() -> Options {
    Options::parallel().without_dependency_inference()
}

#[test]
fn broken_scheduler_races_on_vec() {
    // square(X) and reduce(X, Y, Z) run concurrently without the edge.
    let spec = Bench::Vec.build(200_000);
    let r = run_grcuda(&spec, &DeviceProfile::tesla_p100(), broken(), 1);
    assert!(
        r.races > 0,
        "the race detector must flag the missing dependency"
    );
}

#[test]
fn broken_scheduler_races_on_every_dependent_benchmark() {
    for b in [Bench::Vec, Bench::Img, Bench::Ml, Bench::Hits, Bench::Dl] {
        // Large enough that kernels are still in flight when their
        // (ignored) dependents launch.
        let scale = tiny(b) * 8;
        let spec = b.build(scale);
        let r = run_grcuda(&spec, &DeviceProfile::tesla_p100(), broken(), 1);
        assert!(
            r.races > 0,
            "{}: no race detected with inference disabled",
            b.name()
        );
    }
}

#[test]
fn broken_scheduler_fails_validation_on_the_dependent_benchmarks() {
    // The race detector is one alarm; the comparison with the
    // sequential reference is the other, and it must fire on its own.
    for b in [Bench::Img, Bench::Ml, Bench::Hits, Bench::Dl] {
        let spec = b.build(tiny(b) * 8);
        let r = run_grcuda(&spec, &DeviceProfile::tesla_p100(), broken(), 1);
        let e = r
            .valid
            .expect_err(&format!("{}: validated with inference disabled", b.name()));
        assert!(e.contains("deviates from the sequential reference"), "{e}");
    }
}

#[test]
fn independent_benchmark_survives_broken_scheduler() {
    // B&S has no inter-kernel dependencies at all: even the broken
    // scheduler is correct on it. This guards against the race detector
    // over-reporting.
    let spec = Bench::Bs.build(tiny(Bench::Bs) * 8);
    let r = run_grcuda(&spec, &DeviceProfile::tesla_p100(), broken(), 1);
    assert_eq!(
        r.races, 0,
        "B&S kernels are independent — no races expected"
    );
    r.valid.expect("independent kernels stay correct");
}
