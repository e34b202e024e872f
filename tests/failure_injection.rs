//! Negative controls: a program that drops its dependencies must be
//! caught.
//!
//! The simulator's race detector and the bit-exact validation against
//! the sequential reference are only meaningful if they fire when a
//! schedule under-synchronizes. The broken schedule here is a
//! hand-written *program*: each benchmark's plan issued through the
//! hand-tuned CUDA baseline with every dependency (and so every event)
//! left out. A broken *scheduler* is the seeded defect
//! `scheduler-drops-kernel-dependencies` in `ci/mutants.txt`. The
//! positive control, the inferred schedule at the same scales, is a row
//! of `tests/scheduler_equivalence.rs`.

use benchmarks::{run_handtuned, tiny, Bench, BenchSpec};
use gpu_sim::DeviceProfile;

/// Where the stripped program issues each op.
#[derive(Debug, Clone, Copy)]
enum Streams {
    /// Every op on a stream of its own: nothing orders anything.
    OnePerOp,
    /// The paper's Fig. 6 assignment: ops that share a stream stay in
    /// order, only the cross-stream events are gone.
    Fig6,
}

/// `b`'s plan at eight times its tiny scale (large enough that kernels
/// are still in flight when their dependents launch) with every
/// dependency removed.
fn without_dependencies(b: Bench, streams: Streams) -> BenchSpec {
    let mut spec = b.build(tiny(b) * 8);
    for (i, op) in spec.ops.iter_mut().enumerate() {
        op.deps.clear();
        if let Streams::OnePerOp = streams {
            op.stream = i;
        }
    }
    spec
}

/// Each row: a benchmark, where its stripped program issues each op,
/// the races the detector reports on it, and whether its answer still
/// equals the sequential reference. B&S has no inter-kernel
/// dependencies, so it stays race-free and correct (the detector does
/// not over-report). VEC's one race happens not to change its answer,
/// so there the detector is the alarm that fires. IMG on its Fig. 6
/// streams races nowhere, yet its answer is wrong: the detector sees
/// overlap, not order inversion, so validation must fire on its own.
/// Each test below checks the rows its claim is about.
const ROWS: [(Bench, Streams, usize, bool); 7] = [
    (Bench::Vec, Streams::OnePerOp, 1, true),
    (Bench::Img, Streams::OnePerOp, 2, false),
    (Bench::Ml, Streams::OnePerOp, 6, false),
    (Bench::Hits, Streams::OnePerOp, 16, false),
    (Bench::Dl, Streams::OnePerOp, 7, false),
    (Bench::Bs, Streams::OnePerOp, 0, true),
    (Bench::Img, Streams::Fig6, 0, false),
];

/// Runs every row of `ROWS` that `pick` selects (at least one) and
/// checks its races and its validation.
fn check_rows(pick: impl Fn(Bench, Streams) -> bool) {
    let mut checked = 0;
    for (b, streams, races, validates) in ROWS {
        if !pick(b, streams) {
            continue;
        }
        checked += 1;
        let spec = without_dependencies(b, streams);
        let r = run_handtuned(&spec, &DeviceProfile::tesla_p100(), true, 1);
        let row = format!("{} on {streams:?}", b.name());
        assert_eq!(r.races, races, "{row}: races");
        assert_eq!(r.valid.is_ok(), validates, "{row}: {:?}", r.valid);
        if let Err(e) = &r.valid {
            assert!(
                e.contains("deviates from the sequential reference"),
                "{row}: {e}"
            );
        }
    }
    assert!(checked > 0, "no row selected");
}

/// square(X) and reduce(X, Y, Z) run concurrently without the edge.
#[test]
fn broken_scheduler_races_on_vec() {
    check_rows(|b, _| b == Bench::Vec);
}

/// Every suite with a dependency to lose races once its ops share no
/// stream and no event.
#[test]
fn broken_scheduler_races_on_every_dependent_benchmark() {
    check_rows(|b, streams| matches!(streams, Streams::OnePerOp) && b != Bench::Bs);
}

/// The race detector is one alarm; the comparison with the sequential
/// reference is the other, and it must fire on its own (the IMG row on
/// its Fig. 6 streams fails validation with no race).
#[test]
fn broken_scheduler_fails_validation_on_the_dependent_benchmarks() {
    check_rows(|b, _| matches!(b, Bench::Img | Bench::Ml | Bench::Hits | Bench::Dl));
}

/// B&S has no inter-kernel dependencies at all: even stripped of them
/// it is race-free and correct, which guards against the race detector
/// over-reporting.
#[test]
fn independent_benchmark_survives_broken_scheduler() {
    check_rows(|b, _| b == Bench::Bs);
}
