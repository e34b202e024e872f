//! Integration: the parallel scheduler is observationally equivalent to
//! serial execution on every benchmark, on every device — the paper's
//! central correctness claim ("the host code can be written as if it
//! were run sequentially").

use benchmarks::{run_grcuda, tiny, ArraySpec, Bench, BenchSpec, PlanArg, PlanOp};
use gpu_sim::{DeviceProfile, Grid, TypedData};
use grcuda::{DepStreamPolicy, Options, PrefetchPolicy, StreamReusePolicy};
use kernels::util::{COPY_F32, DOT};

/// A copy of `A` into `B`, then `dot(A, B)` into `OUT`, read back: the
/// read must wait for a chain of two kernels.
fn copy_then_dot(n: usize) -> BenchSpec {
    let array = |name, init| ArraySpec {
        name,
        init,
        refresh_each_iter: false,
    };
    let op = |def, args| PlanOp {
        def,
        grid: Grid::d1(64, 256),
        args,
        stream: 0,
        deps: vec![],
    };
    let len = PlanArg::Scalar(n as f64);
    BenchSpec {
        name: "COPY+DOT",
        arrays: vec![
            array("A", TypedData::F32(vec![2.0; n])),
            array("B", TypedData::F32(vec![0.0; n])),
            array("OUT", TypedData::F32(vec![0.0])),
        ],
        ops: vec![
            op(&COPY_F32, vec![PlanArg::Arr(0), PlanArg::Arr(1), len]),
            op(
                &DOT,
                vec![PlanArg::Arr(0), PlanArg::Arr(1), PlanArg::Arr(2), len],
            ),
        ],
        outputs: vec![(2, 1)],
        scale: n,
    }
}

/// Every stream-management combination of §IV-C.
fn stream_policy_combinations() -> Vec<Options> {
    let mut combinations = Vec::new();
    for dep in [
        DepStreamPolicy::FirstChildOnParent,
        DepStreamPolicy::AlwaysParent,
        DepStreamPolicy::AlwaysNew,
    ] {
        for reuse in [StreamReusePolicy::FifoReuse, StreamReusePolicy::AlwaysNew] {
            for prefetch in [PrefetchPolicy::Auto, PrefetchPolicy::None] {
                let options = Options::parallel()
                    .with_dep_stream(dep)
                    .with_stream_reuse(reuse)
                    .with_prefetch(prefetch);
                combinations.push(options);
            }
        }
    }
    combinations
}

/// Programs, the devices and options each runs under, and iterations.
type Row<'a> = (Vec<BenchSpec>, &'a [DeviceProfile], &'a [Options], usize);

#[test]
fn every_benchmark_matches_the_reference_on_every_device() {
    // One table over (programs, devices, options, iterations): every
    // run is race-free and bit-equal to the sequential reference.
    let paper = DeviceProfile::paper_devices();
    let p100 = [DeviceProfile::tesla_p100()];
    let gtx1660 = [DeviceProfile::gtx1660_super()];
    let both = [Options::serial(), Options::parallel()];
    let parallel = [Options::parallel()];
    let visibility = [true, false].map(|on| Options::parallel().with_visibility_restriction(on));
    let streams = stream_policy_combinations();
    let built = |benches: &[Bench], scale: fn(Bench) -> usize| -> Vec<BenchSpec> {
        benches.iter().map(|&b| b.build(scale(b))).collect()
    };
    use Bench::{Bs, Dl, Hits, Img, Ml};
    let rows: [Row; 9] = [
        (built(&Bench::ALL, tiny), &paper, &both, 2),
        // Many iterations: streaming inputs, and arrays updated in place.
        (built(&[Bench::Vec, Bs, Ml], tiny), &gtx1660, &parallel, 5),
        (built(&[Hits, Img], tiny), &p100, &parallel, 4),
        // Kernels still in flight when their dependents launch (the
        // scales of the negative controls in failure_injection.rs).
        (built(&[Bench::Vec], |_| 100_000), &gtx1660, &parallel, 3),
        (
            built(&[Bench::Vec, Img, Ml, Hits, Dl], |b| tiny(b) * 8),
            &p100,
            &parallel,
            1,
        ),
        // Every stream-management policy, and Maxwell's visibility toggle.
        (built(&[Ml], tiny), &p100, &streams, 2),
        (
            built(&[Bench::Vec, Hits], tiny),
            &[DeviceProfile::gtx960()],
            &visibility,
            2,
        ),
        // The quickstart program, and a host read behind a kernel chain.
        (built(&[Bench::Vec], |_| 1 << 14), &paper, &both, 1),
        (vec![copy_then_dot(1 << 16)], &p100, &both, 1),
    ];
    for (specs, devices, options, iters) in &rows {
        for spec in specs {
            for dev in *devices {
                for &opts in *options {
                    let r = run_grcuda(spec, dev, opts, *iters);
                    let at = format!("{} at {} on {} ({opts:?})", spec.name, spec.scale, dev.name);
                    assert_eq!(r.races, 0, "{at}: races");
                    r.valid.unwrap_or_else(|e| panic!("{at}: {e}"));
                }
            }
        }
    }
}
