//! `paper_suites`: the paper's six benchmarks on a P100, through the
//! public runners. Functional kernel arithmetic owns the host time
//! here, so scheduler changes should not move it; the simulated metrics
//! are the paper's own headline (speedup over serial scheduling, no
//! slowdown against CUDA Graphs).

use std::rc::Rc;
use std::time::Instant;

use benchmarks::{run_graph_manual, run_grcuda, run_handtuned, Bench, BenchSpec, RunResult};
use gpu_sim::DeviceProfile;
use grcuda::Options;

use crate::measure::{self, RoundTime};
use crate::plan::Plan;
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{geomean, Sorted};
use crate::trace::{aggregate, Name};
use crate::{layers, okernels, Config};

/// The `tests/experiment_shapes.rs` scales: big enough for real
/// overlap, small enough that one pass takes under a second.
const SCALES: [(Bench, usize); 6] = [
    (Bench::Vec, 800_000),
    (Bench::Bs, 60_000),
    (Bench::Img, 160),
    (Bench::Ml, 2_000),
    (Bench::Hits, 10_000),
    (Bench::Dl, 46),
];

/// The seed moves every scale by at most this share, so inputs differ
/// between seeds while the work stays the same to a quarter percent.
const SCALE_JITTER: f64 = 0.0025;

fn specs(seed: u64) -> Vec<BenchSpec> {
    let mut rng = Rng::new(seed, 1);
    SCALES
        .iter()
        .map(|&(b, scale)| {
            let span = (scale as f64 * SCALE_JITTER) as usize;
            b.build(scale - span + rng.below(2 * span + 1))
        })
        .collect()
}

/// One validated run of one suite: failed operations, simulated
/// seconds, MiB moved by transfers.
struct SuiteRun {
    failed: u64,
    virtual_s: f64,
    link_mib: f64,
}

fn check(r: &RunResult) -> SuiteRun {
    SuiteRun {
        failed: r.valid.is_err() as u64 + r.races as u64,
        virtual_s: r.iter_times[0],
        link_mib: r.timeline.transfers().map(|iv| iv.meta.bytes).sum::<f64>() / (1024.0 * 1024.0),
    }
}

pub fn run(cfg: &Config) -> Report {
    let dev = DeviceProfile::tesla_p100();
    let mut report = Report::default();
    let specs0 = specs(cfg.seed);
    let launches: usize = specs0.iter().map(|s| s.ops.len()).sum();
    report.note(format!(
        "suites: {}",
        specs0
            .iter()
            .map(|s| format!("{} {} ({} launches)", s.name, s.scale, s.ops.len()))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    // Baselines, once: the simulator is deterministic.
    let mut baseline = |run: &dyn Fn(&BenchSpec) -> RunResult| -> Vec<f64> {
        specs0
            .iter()
            .map(|s| {
                let r = check(&run(s));
                report.attempted += s.ops.len() as u64;
                report.failed += r.failed;
                r.virtual_s
            })
            .collect()
    };
    let serial = baseline(&|s| run_grcuda(s, &dev, Options::serial(), 1));
    let graphs = baseline(&|s| run_graph_manual(s, &dev, 1));
    let handtuned = baseline(&|s| run_handtuned(s, &dev, true, 1));

    let mut first: Option<Vec<(f64, f64)>> = None;
    let mut overlap: Option<layers::Overlap> = None;
    let rounds = measure::rounds(cfg, |tr| {
        // Kernel-function time is only measured in traced rounds.
        let shim = tr.is_on();
        let (setup_s, specs) = measure::setup(tr, || {
            let specs = specs(cfg.seed);
            if shim {
                specs.into_iter().map(okernels::with_shims).collect()
            } else {
                specs
            }
        });
        let mut sim = Vec::with_capacity(specs.len());
        let mut request_ns = Vec::with_capacity(specs.len());
        let t = Instant::now();
        let round = tr.begin(Name::Round);
        for (i, spec) in specs.iter().enumerate() {
            tr.request = i as u32;
            let t = Instant::now();
            let s = tr.begin(Name::RunGrcuda);
            let r = run_grcuda(spec, &dev, Options::parallel(), 1);
            tr.end(s);
            request_ns.push(t.elapsed().as_nanos() as f64);
            let c = check(&r);
            report.attempted += spec.ops.len() as u64;
            report.failed += c.failed;
            sim.push((c.virtual_s, c.link_mib));
            if first.is_none() {
                overlap = Some(layers::Overlap::of(&r.timeline).merged(overlap.take()));
            }
        }
        tr.end(round);
        let wall_s = t.elapsed().as_secs_f64();
        if tr.is_on() {
            // Outside the round: the same suites without `grcuda`.
            for spec in &specs {
                let s = tr.begin(Name::RunHandtuned);
                run_handtuned(spec, &dev, true, 1);
                tr.end(s);
            }
        }
        match &first {
            None => first = Some(sim),
            Some(f) => report.failed += (*f != sim) as u64,
        }
        RoundTime {
            setup_s,
            wall_s,
            request_ns,
        }
    });
    let sim = first.expect("at least the warm-up round ran");
    let parallel: Vec<f64> = sim.iter().map(|(v, _)| *v).collect();
    let ratio =
        |base: &[f64]| -> Vec<f64> { base.iter().zip(&parallel).map(|(b, p)| b / p).collect() };
    report.note(rounds.describe());
    for (i, s) in specs0.iter().enumerate() {
        report.note(format!(
            "  {:<5} simulated ms: serial {:>8.3}  CUDA Graphs {:>8.3}  hand-tuned {:>8.3}  GrCUDA parallel {:>8.3}",
            s.name,
            serial[i] * 1e3,
            graphs[i] * 1e3,
            handtuned[i] * 1e3,
            parallel[i] * 1e3
        ));
    }
    report.note(
        "paper: 1.44x average speedup over serial scheduling, no slowdown against CUDA Graphs \
         (geomeans below; model unvalidated beyond the abstract's aggregate — the repository \
         holds no per-figure reference results, so no error figure is given)"
            .into(),
    );

    let virt = Sorted::new(parallel.clone());
    super::set_host_time(&mut report, &rounds, launches);
    let v = &mut report.values;
    v.set("virtual_makespan_ms", parallel.iter().sum::<f64>() * 1e3);
    v.set("virtual_speedup_vs_serial_x", geomean(&ratio(&serial)));
    v.set("virtual_vs_cuda_graphs_x", geomean(&ratio(&graphs)));
    v.set("virtual_request_p50_us", virt.median() * 1e6);
    v.set("virtual_request_p99_us", virt.percentile(99.0) * 1e6);
    v.set("link_traffic_mib", sim.iter().map(|(_, l)| l).sum());

    if cfg.trace {
        let agg = aggregate(rounds.tracer.spans());
        let traced = rounds.traced_wall_s.len();
        layers::kernel_share(&mut report, &agg, (launches * traced) as u64);
        layers::closure(cfg, &mut report, &rounds, &agg);
        let (grcuda, hand) = (agg.of(Name::RunGrcuda), agg.of(Name::RunHandtuned));
        report.values.set(
            "grcuda.context.overhead_vs_handtuned_pct",
            (grcuda.total_ns as f64 / hand.total_ns as f64 - 1.0) * 100.0,
        );
        // `run_handtuned` is cuda-sim + engine + kernels + validation;
        // take the kernels out.
        report.values.set(
            "cuda-sim.launch_ns_per_kernel",
            (hand.total_ns - hand.kernel_ns) as f64 / (launches * traced) as f64,
        );
        // The launch path's share, from the same suites lowered to plans.
        let plans: Vec<Rc<Plan>> = specs0.iter().map(|s| Rc::new(Plan::from_spec(s))).collect();
        let in_situ_ns = layers::launch_path_share(&mut report, &plans);
        layers::one_gpu_probes(&mut report, &plans, in_situ_ns, overlap);
        super::serve_tenants::probe(&mut report, cfg.seed);
    }
    report
}
