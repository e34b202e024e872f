//! `pipeline_batch` and `interactive_sync`: the same seeded chains of
//! O(1) kernels on one P100, submitted the two ways a host program can.

use std::rc::Rc;

use cuda_sim::Cuda;
use gpu_sim::DeviceProfile;
use grcuda::Options;

use super::{baseline, execute, graphs_baseline, p100, set_host_time, Simulated};
use crate::exec::Bound;
use crate::layers::{self, InSitu};
use crate::measure::{self, RoundTime};
use crate::plan::{reference, Plan};
use crate::report::Report;
use crate::stats::Sorted;
use crate::{gen, Config};

/// Groups per round: 48 launches each, sized so a round takes about
/// 0.07 s of host time on two cores (see `measure` for why rounds are
/// short).
const PIPELINE_GROUPS: usize = 540;
/// Full sync once this many launches are pending.
const PIPELINE_SYNC_EVERY: usize = 256;
/// Groups per round; every group is eight requests.
const INTERACTIVE_GROUPS: usize = 400;

/// Throughput mode of the launch path: one `launch_batch` per group of
/// eight independent chains, a rotating read and write, periodic sync.
pub fn pipeline_batch(cfg: &Config) -> Report {
    run(cfg, || {
        gen::pipeline(cfg.seed, PIPELINE_GROUPS, PIPELINE_SYNC_EVERY)
    })
}

/// The same launch path used interactively: per chain a host write,
/// serial launches, a host read.
pub fn interactive_sync(cfg: &Config) -> Report {
    run(cfg, || gen::interactive(cfg.seed, INTERACTIVE_GROUPS))
}

fn run(cfg: &Config, make_plan: impl Fn() -> Plan) -> Report {
    let mut report = Report::default();
    let plan0 = Rc::new(make_plan());
    let want = reference(&plan0);
    report.note(format!(
        "program: {} requests, {} launches, {} host reads+writes per round; stream hash {:016x}",
        plan0.units.len(),
        plan0.launches(),
        plan0.host_ops(),
        plan0.stream_hash()
    ));

    // Baselines, once: the simulator is deterministic.
    let serial_s = baseline(&mut report, &plan0, p100(Options::serial()), &want);
    let cuda = Cuda::new(DeviceProfile::tesla_p100());
    let graphs_s = graphs_baseline(&mut report, &plan0, &cuda, &want);

    let mut first: Option<(Simulated, InSitu)> = None;
    let rounds = measure::rounds(cfg, |tr| {
        let (setup_s, mut bound) = measure::setup(tr, || {
            Bound::new(Rc::new(make_plan()), p100(Options::parallel()))
        });
        let e = execute(&mut report, &mut bound, &want, tr);
        match &first {
            None => first = Some((e.sim, e.counters)),
            // A round that disagrees with the first one means the
            // simulator (or the generator) is not deterministic.
            Some((f, _)) => report.failed += (*f != e.sim) as u64,
        }
        RoundTime {
            setup_s,
            wall_s: e.wall_s,
            request_ns: e.request_ns,
        }
    });
    let (sim, counters) = first.expect("at least the warm-up round ran");
    report.note(rounds.describe());
    report.note(format!(
        "simulated: serial {:.3} ms, CUDA Graphs {:.3} ms, parallel {:.3} ms \
         (model unvalidated beyond the abstract's aggregate: paper reports 1.44x over serial \
         and no slowdown against CUDA Graphs on its own six benchmarks)",
        serial_s * 1e3,
        graphs_s * 1e3,
        sim.virtual_s * 1e3
    ));

    set_host_time(&mut report, &rounds, plan0.launches());
    let virt = Sorted::new(sim.request_s);
    let v = &mut report.values;
    v.set("virtual_makespan_ms", sim.virtual_s * 1e3);
    v.set("virtual_speedup_vs_serial_x", serial_s / sim.virtual_s);
    v.set("virtual_vs_cuda_graphs_x", graphs_s / sim.virtual_s);
    v.set("virtual_request_p50_us", virt.median() * 1e6);
    v.set("virtual_request_p99_us", virt.percentile(99.0) * 1e6);
    v.set("link_traffic_mib", sim.link_mib);
    if cfg.trace {
        layers::plan_layers(cfg, &mut report, &rounds, &plan0, &counters);
    }
    report
}
