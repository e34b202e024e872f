//! The five workloads. Each `run` measures one workload in this
//! process and returns its report.

pub mod chains;
pub mod paper_suites;
pub mod placement_cluster;
pub mod serve_tenants;

pub use chains::{interactive_sync, pipeline_batch};

use std::time::Instant;

use cuda_sim::Cuda;
use gpu_sim::DeviceProfile;
use grcuda::{GrCuda, Options};

use crate::baseline::run_graphs;
use crate::exec::{Bound, Samples};
use crate::layers::InSitu;
use crate::measure::Rounds;
use crate::plan::{Expected, Plan};
use crate::report::Report;
use crate::trace::{Name, Tracer};

const MIB: f64 = 1024.0 * 1024.0;

/// Bytes moved over every host, peer and NIC link so far, in MiB.
pub fn link_traffic_mib(g: &GrCuda) -> f64 {
    g.link_traffic().iter().map(|(bytes, _)| bytes).sum::<f64>() / MIB
}

pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / MIB
}

/// Scheduler and engine state still held after the final sync; must be
/// zero (the bounded-state property the soak harness asserts).
pub fn undrained(g: &GrCuda) -> usize {
    let st = g.scheduler_stats();
    st.live_vertices
        + st.stored_vertices
        + st.stored_edges
        + st.value_states
        + st.stream_claims
        + st.vertex_tasks
        + st.vertex_streams
        + st.vertex_devices
        + st.launch_infos
        + g.stats().retained_tasks
}

/// One simulated P100 under the given scheduler options.
pub fn p100(options: Options) -> GrCuda {
    GrCuda::new(DeviceProfile::tesla_p100(), options)
}

/// What the simulator said about one execution of a plan; identical
/// for every execution of the same plan on the same machine.
#[derive(PartialEq)]
pub struct Simulated {
    pub virtual_s: f64,
    pub link_mib: f64,
    pub reads: Vec<u64>,
    /// Simulated seconds of every request.
    pub request_s: Vec<f64>,
}

/// One timed, validated execution of a bound plan.
pub struct Execution {
    pub sim: Simulated,
    pub wall_s: f64,
    /// Host nanoseconds of every request.
    pub request_ns: Vec<f64>,
    pub counters: InSitu,
}

/// Run `bound`'s plan under a round span, compare what it observed
/// with the sequential reference, and account its operations in
/// `report`: every refused launch, value that differs from the
/// reference, data race the simulator saw and piece of state the final
/// sync did not reclaim is a failed operation.
pub fn execute(
    report: &mut Report,
    bound: &mut Bound,
    want: &Expected,
    tr: &mut Tracer,
) -> Execution {
    let mut samples = Samples::default();
    let t = Instant::now();
    let r = tr.begin(Name::Round);
    let out = bound.run(tr, &mut samples);
    tr.end(r);
    let wall_s = t.elapsed().as_secs_f64();
    let g = &bound.g;
    report.attempted += bound.operations() as u64;
    report.failed +=
        (out.failed + bound.mismatches(&out, want) + g.races().len() + undrained(g)) as u64;
    Execution {
        counters: InSitu::of(g, out.launches, out.batches),
        sim: Simulated {
            virtual_s: out.virtual_s,
            link_mib: link_traffic_mib(g),
            reads: out.reads,
            request_s: samples.virtual_s,
        },
        wall_s,
        request_ns: samples.wall_ns,
    }
}

/// Simulated seconds of `plan` on `g`, run once outside the measured
/// rounds (the serial-scheduling baseline).
pub fn baseline(report: &mut Report, plan: &std::rc::Rc<Plan>, g: GrCuda, want: &Expected) -> f64 {
    let mut bound = Bound::new(plan.clone(), g);
    execute(report, &mut bound, want, &mut Tracer::new(false))
        .sim
        .virtual_s
}

/// Simulated seconds of `plan` as replayed CUDA graphs on `c`.
pub fn graphs_baseline(report: &mut Report, plan: &Plan, c: &Cuda, want: &Expected) -> f64 {
    let (secs, reads) = run_graphs(plan, c);
    report.attempted += (plan.launches() + plan.host_ops()) as u64;
    report.failed += (reads != want.reads) as u64;
    secs
}

/// The three host-time end-to-end metrics every workload derives from
/// its rounds the same way.
pub fn set_host_time(report: &mut Report, rounds: &Rounds, launches_per_round: usize) {
    let v = &mut report.values;
    v.set(
        "wall_launches_per_s",
        launches_per_round as f64 / rounds.wall_s(),
    );
    v.set("wall_request_p50_us", rounds.request_p50_us());
    v.set("setup_s", rounds.setup_s());
}
