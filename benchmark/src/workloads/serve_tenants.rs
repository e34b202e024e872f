//! `serve_tenants`: eight tenants sending three-call requests through
//! the serving layer.
//!
//! Phase A drives a `ServiceCore` directly, once per fairness policy:
//! single-threaded and deterministic, so it carries every end-to-end
//! metric, simulated and host time. Phase B drives the threaded
//! `Server` from client threads in a closed loop (every `Client` call
//! is a blocking RPC, so a client's next request cannot leave before
//! the previous reply). Its host time is set by how fast the operating
//! system wakes a sleeping thread — on the two-core sandbox the same
//! binary runs it 3x to 10x apart from one minute to the next — so it
//! is validated on every run but reported per layer only. Both phases
//! send exactly the traffic `gen::tenants` describes, and every value a
//! tenant reads back is checked against the sequential reference of
//! that plan.

use std::rc::Rc;
use std::time::Instant;

use benchmarks::PlanArg;
use cuda_sim::Cuda;
use gpu_sim::DeviceProfile;
use grcuda::serve::{
    ArgSpec, ArrayRef, CallSpec, Client, ElemKind, Fairness, KernelRef, RequestSpec, ServeConfig,
    Server, ServiceCore, TenantId,
};
use grcuda::Options;
use kernels::KernelDef;

use super::{graphs_baseline, link_traffic_mib, set_host_time, undrained};
use crate::gen::{self, REQUEST_CALLS, SLOTS as TENANTS, SLOT_ARRAYS};
use crate::measure::{self, RoundTime};
use crate::okernels::{JOIN2, TOUCH};
use crate::plan::{reference, Expected, Plan};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::Sorted;
use crate::trace::{aggregate, Aggregate, Name, Tracer};
use crate::{host, layers, Config};

/// Rounds (one request per tenant each) of phase A, per fairness
/// policy: a measured round of the run is all three policies, about
/// 0.15 s of host time on two cores.
const CORE_ROUNDS: usize = 500;
/// Rounds of phase B.
const SERVER_ROUNDS: usize = 250;
/// In-flight window and per-cycle admission budget: one round of
/// requests is admitted as one coalesced batch while the previous round
/// is still in flight.
const WINDOW: usize = 2 * TENANTS;
const BATCH_LIMIT: usize = TENANTS;

/// The fairness policies, each with the metric its simulated p99 goes to.
const FAIRNESS: [(Fairness, &str); 3] = [
    (Fairness::Fifo, "grcuda.serve.fifo_p99_us"),
    (Fairness::WeightedRoundRobin, "grcuda.serve.wrr_p99_us"),
    (Fairness::DeadlineAware, "grcuda.serve.edf_p99_us"),
];

const KERNELS: [&KernelDef; 2] = [&TOUCH, &JOIN2];

fn config(options: Options, fairness: Fairness) -> ServeConfig {
    ServeConfig::new(DeviceProfile::tesla_p100(), options)
        .with_fairness(fairness)
        .with_pipeline(WINDOW, BATCH_LIMIT)
}

/// Per-tenant shares and seeded per-request deadlines (virtual µs).
/// The shares are a fixed pattern: eight seeded draws are too few to
/// average out, and a different mix of shares is a different service.
struct Terms {
    weights: [u32; TENANTS],
    deadlines_us: Vec<f64>,
}

fn terms(seed: u64, rounds: usize) -> Terms {
    let mut rng = Rng::new(seed, 4);
    Terms {
        weights: [1, 2, 3, 1, 2, 3, 1, 2],
        deadlines_us: (0..rounds * TENANTS)
            .map(|_| 50.0 + rng.below(450) as f64)
            .collect(),
    }
}

/// A tenant's handles, in plan order: arrays `3t..3t+3`, kernels as
/// [`KERNELS`].
#[derive(Clone)]
struct Handles {
    arrays: [ArrayRef; SLOT_ARRAYS],
    kernels: [KernelRef; 2],
}

impl Handles {
    /// Tenant `t`'s request of `unit`: ops `3t..3t+3` of its template,
    /// with plan arrays replaced by the tenant's handles.
    fn request(&self, plan: &Plan, unit: usize, t: usize, deadline_us: f64) -> RequestSpec {
        let ops = &plan.templates[plan.units[unit].template];
        RequestSpec {
            calls: ops[t * REQUEST_CALLS..(t + 1) * REQUEST_CALLS]
                .iter()
                .map(|op| CallSpec {
                    kernel: self.kernels[KERNELS
                        .iter()
                        .position(|k| k.name == op.def.name)
                        .expect("tenant requests use the benchmark's kernels")],
                    grid: op.grid,
                    args: op
                        .args
                        .iter()
                        .map(|a| match a {
                            PlanArg::Arr(i) => ArgSpec::Array(self.arrays[i % SLOT_ARRAYS]),
                            PlanArg::Scalar(v) => ArgSpec::Scalar(*v),
                        })
                        .collect(),
                })
                .collect(),
            deadline_us: Some(deadline_us),
        }
    }

    /// The array tenant `t` reads after `unit`.
    fn result(&self, plan: &Plan, unit: usize, t: usize) -> ArrayRef {
        self.arrays[plan.units[unit].post_reads[t].array % SLOT_ARRAYS]
    }
}

// ---------------------------------------------------------------------
// phase A: the deterministic core
// ---------------------------------------------------------------------

/// What one phase A run observed.
#[derive(PartialEq)]
struct CoreRun {
    virtual_s: f64,
    /// Virtual seconds per completed request.
    latencies: Vec<f64>,
    link_mib: f64,
    failed: u64,
    rejected: u64,
    /// Requests admitted by explicit pump calls, and how many of those
    /// calls admitted anything.
    admitted: usize,
    pumps: usize,
}

/// A core with every tenant set up.
struct Core {
    core: ServiceCore,
    tenants: Vec<(TenantId, Handles)>,
}

fn core_setup(plan: &Plan, terms: &Terms, cfg: ServeConfig) -> Core {
    let mut core = ServiceCore::new(cfg);
    let tenants = (0..TENANTS)
        .map(|t| {
            let id = core.add_tenant(&format!("tenant{t}"), terms.weights[t]);
            let arrays = std::array::from_fn(|a| {
                let init = &plan.arrays[t * SLOT_ARRAYS + a];
                let r = core
                    .alloc(id, ElemKind::F32, init.len())
                    .expect("allocation");
                core.write(id, r, init).expect("initial contents");
                r
            });
            let kernels = KERNELS.map(|k| core.register_kernel(id, k).expect("kernels parse"));
            (id, Handles { arrays, kernels })
        })
        .collect();
    Core { core, tenants }
}

/// Drive the whole plan through a core: per round every tenant submits,
/// one pump, every tenant reads its result. Host nanoseconds from each
/// request's submit call to its read's return go to `latency_ns`.
fn core_drive(
    Core { mut core, tenants }: Core,
    plan: &Plan,
    want: &Expected,
    terms: &Terms,
    tr: &mut Tracer,
    latency_ns: &mut Vec<f64>,
) -> CoreRun {
    let mut run = CoreRun {
        virtual_s: 0.0,
        latencies: Vec::new(),
        link_mib: 0.0,
        failed: 0,
        rejected: 0,
        admitted: 0,
        pumps: 0,
    };
    let v0 = core.now();
    let mut reads = want.reads.iter();
    let mut sent = [Instant::now(); TENANTS];
    for unit in 0..plan.units.len() {
        tr.request = unit as u32;
        for (t, (id, h)) in tenants.iter().enumerate() {
            let spec = h.request(plan, unit, t, terms.deadlines_us[unit * TENANTS + t]);
            // The round's think time, spread evenly over its arrivals.
            core.runtime()
                .host_spin(plan.units[unit].think_s / TENANTS as f64);
            sent[t] = Instant::now();
            let s = tr.begin(Name::CoreSubmit);
            let res = core.submit(*id, spec);
            tr.end(s);
            run.failed += res.is_err() as u64;
        }
        let s = tr.begin(Name::CorePump);
        let admitted = core.pump();
        tr.end(s);
        run.admitted += admitted;
        run.pumps += (admitted > 0) as usize;
        for (t, (id, h)) in tenants.iter().enumerate() {
            let s = tr.begin(Name::CoreRead);
            let got = core.read(*id, h.result(plan, unit, t), 0);
            tr.end(s);
            latency_ns.push(sent[t].elapsed().as_nanos() as f64);
            run.failed += (got.ok().map(f64::to_bits) != reads.next().copied()) as u64;
        }
    }
    let s = tr.begin(Name::CorePump);
    core.drain_all();
    core.maintain();
    tr.end(s);
    run.virtual_s = core.now() - v0;
    for s in core.all_stats() {
        run.failed += (s.completed != plan.units.len() as u64) as u64;
        run.rejected += s.rejected;
        run.latencies.extend(s.latencies);
    }
    let g = core.runtime();
    run.failed += run.rejected + (g.races().len() + undrained(g)) as u64;
    run.link_mib = link_traffic_mib(g);
    run
}

// ---------------------------------------------------------------------
// phase B: the threaded server
// ---------------------------------------------------------------------

/// A started server with every tenant set up.
struct Service {
    server: Server,
    clients: Vec<(Client, Handles)>,
}

fn start(plan: &Plan, terms: &Terms) -> Service {
    let server = Server::start(config(Options::parallel(), Fairness::Fifo));
    let clients = (0..TENANTS)
        .map(|t| {
            let c = server.client(&format!("tenant{t}"), terms.weights[t]);
            let arrays = std::array::from_fn(|a| {
                let init = &plan.arrays[t * SLOT_ARRAYS + a];
                let r = c.alloc(ElemKind::F32, init.len()).expect("allocation");
                c.write(r, init.clone()).expect("initial contents");
                r
            });
            let kernels = KERNELS.map(|k| c.kernel(k).expect("kernels parse"));
            (c, Handles { arrays, kernels })
        })
        .collect();
    Service { server, clients }
}

/// Client threads: at most four, at most one per core.
fn client_threads() -> usize {
    host::threads().clamp(1, 4)
}

/// Drive phase B: every client thread loops over its share of the
/// tenants — submit one request each, then read each result. Returns
/// host seconds, failed operations, and per-request host nanoseconds
/// (submit call to read return).
fn server_run(
    service: Service,
    plan: &Plan,
    want: &Expected,
    terms: &Terms,
) -> (f64, u64, Vec<f64>) {
    let threads = client_threads();
    let mut shares: Vec<Vec<(usize, Client, Handles)>> = (0..threads).map(|_| Vec::new()).collect();
    for (t, (c, h)) in service.clients.into_iter().enumerate() {
        shares[t % threads].push((t, c, h));
    }
    let t0 = Instant::now();
    let drive = |share: Vec<(usize, Client, Handles)>| {
        let mut failed = 0u64;
        let mut latency_ns = Vec::with_capacity(plan.units.len() * share.len());
        let mut sent = vec![t0; share.len()];
        for unit in 0..plan.units.len() {
            for (i, (t, c, h)) in share.iter().enumerate() {
                let spec = h.request(plan, unit, *t, terms.deadlines_us[unit * TENANTS + t]);
                sent[i] = Instant::now();
                failed += c.submit(spec).is_err() as u64;
            }
            for (i, (t, c, h)) in share.iter().enumerate() {
                let got = c.read(h.result(plan, unit, *t), 0);
                latency_ns.push(sent[i].elapsed().as_nanos() as f64);
                let expected = want.reads[unit * TENANTS + t];
                failed += (got.ok().map(f64::to_bits) != Some(expected)) as u64;
            }
        }
        (failed, latency_ns)
    };
    let mut failed = 0;
    let mut latency_ns = Vec::new();
    std::thread::scope(|scope| {
        let clients: Vec<_> = shares
            .into_iter()
            .map(|share| scope.spawn(|| drive(share)))
            .collect();
        for client in clients {
            let (f, l) = client.join().expect("client thread panicked");
            failed += f;
            latency_ns.extend(l);
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let report = service.server.shutdown();
    failed += report.races as u64;
    for t in &report.tenants {
        failed += t.rejected + (t.completed != plan.units.len() as u64) as u64;
    }
    (wall_s, failed, latency_ns)
}

// ---------------------------------------------------------------------
// the workload
// ---------------------------------------------------------------------

/// Host-time figures of the threaded phase.
struct Threaded {
    ns_per_request: f64,
    p50_us: f64,
    p99_us: f64,
}

/// One validated phase B run of [`SERVER_ROUNDS`] rounds.
fn phase_b(report: &mut Report, seed: u64) -> Threaded {
    let plan = gen::tenants(seed, SERVER_ROUNDS);
    let want = reference(&plan);
    let terms = terms(seed, SERVER_ROUNDS);
    let requests = SERVER_ROUNDS * TENANTS;
    let service = start(&plan, &terms);
    let (wall_s, failed, ns) = server_run(service, &plan, &want, &terms);
    report.attempted += (requests * (1 + REQUEST_CALLS)) as u64;
    report.failed += failed;
    let ns = Sorted::new(ns);
    report.note(format!(
        "phase B: {requests} requests through the threaded server from {} client threads \
         (closed loop): {:.0} requests/s, p50 {:.1} us, p99 {:.1} us — all values checked; \
         host time here follows thread wake-up latency, see README",
        client_threads(),
        requests as f64 / wall_s,
        ns.median() / 1e3,
        ns.percentile(99.0) / 1e3
    ));
    Threaded {
        ns_per_request: wall_s * 1e9 / requests as f64,
        p50_us: ns.median() / 1e3,
        p99_us: ns.percentile(99.0) / 1e3,
    }
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let plan = Rc::new(gen::tenants(cfg.seed, CORE_ROUNDS));
    let want = reference(&plan);
    let terms = terms(cfg.seed, CORE_ROUNDS);
    let requests = CORE_ROUNDS * TENANTS;
    let ops = (requests * (1 + REQUEST_CALLS)) as u64;
    report.note(format!(
        "phase A: {requests} requests ({} launches) per fairness policy on the bare core, \
         {} policies per round; stream hash {:016x}",
        plan.launches(),
        FAIRNESS.len(),
        plan.stream_hash()
    ));

    // Baselines on the same traffic, once.
    let serial = core_drive(
        core_setup(&plan, &terms, config(Options::serial(), Fairness::Fifo)),
        &plan,
        &want,
        &terms,
        &mut Tracer::new(false),
        &mut Vec::new(),
    );
    report.attempted += ops;
    report.failed += serial.failed;
    let cuda = Cuda::new(DeviceProfile::tesla_p100());
    let graphs_s = graphs_baseline(&mut report, &plan, &cuda, &want);

    let mut first: Option<Vec<CoreRun>> = None;
    let rounds = measure::rounds(cfg, |tr| {
        let (setup_s, cores) = measure::setup(tr, || {
            FAIRNESS
                .iter()
                .map(|(f, _)| core_setup(&plan, &terms, config(Options::parallel(), *f)))
                .collect::<Vec<_>>()
        });
        let mut request_ns = Vec::with_capacity(requests * FAIRNESS.len());
        let t = Instant::now();
        let r = tr.begin(Name::Round);
        let runs: Vec<CoreRun> = cores
            .into_iter()
            .map(|c| core_drive(c, &plan, &want, &terms, tr, &mut request_ns))
            .collect();
        tr.end(r);
        let wall_s = t.elapsed().as_secs_f64();
        report.attempted += ops * FAIRNESS.len() as u64;
        report.failed += runs.iter().map(|r| r.failed).sum::<u64>();
        match &first {
            None => first = Some(runs),
            Some(f) => report.failed += (*f != runs) as u64,
        }
        RoundTime {
            setup_s,
            wall_s,
            request_ns,
        }
    });
    let runs = first.expect("at least the warm-up round ran");
    report.note(rounds.describe());
    let threaded = phase_b(&mut report, cfg.seed);

    let fifo_s = runs[0].virtual_s;
    report.note(format!(
        "simulated (phase A): serial {:.3} ms, CUDA Graphs {:.3} ms, FIFO {:.3} ms, WRR {:.3} ms, \
         EDF {:.3} ms (model unvalidated beyond the abstract's aggregate)",
        serial.virtual_s * 1e3,
        graphs_s * 1e3,
        fifo_s * 1e3,
        runs[1].virtual_s * 1e3,
        runs[2].virtual_s * 1e3
    ));
    let virt = Sorted::new(runs.iter().flat_map(|r| r.latencies.clone()).collect());
    let launches = plan.launches() * FAIRNESS.len();
    set_host_time(&mut report, &rounds, launches);
    let v = &mut report.values;
    v.set(
        "virtual_makespan_ms",
        runs.iter().map(|r| r.virtual_s).sum::<f64>() * 1e3,
    );
    v.set("virtual_speedup_vs_serial_x", serial.virtual_s / fifo_s);
    v.set("virtual_vs_cuda_graphs_x", graphs_s / fifo_s);
    v.set("virtual_request_p50_us", virt.median() * 1e6);
    v.set("virtual_request_p99_us", virt.percentile(99.0) * 1e6);
    v.set(
        "link_traffic_mib",
        runs.iter().map(|r| r.link_mib).sum::<f64>(),
    );

    if cfg.trace {
        let agg = aggregate(rounds.tracer.spans());
        let execs = rounds.traced_wall_s.len();
        layers::kernel_share(&mut report, &agg, launches as u64 * execs as u64);
        layers::closure(cfg, &mut report, &rounds, &agg);
        serve_layers(
            &mut report,
            &runs,
            &agg,
            (requests * FAIRNESS.len() * execs) as f64,
            rounds.wall_s() * 1e9 / (requests * FAIRNESS.len()) as f64,
            &threaded,
        );
        // The launch path's share: the same traffic without the serve
        // layer.
        let plans = [plan];
        let in_situ_ns = layers::launch_path_share(&mut report, &plans);
        let launch_ns = layers::one_gpu_probes(&mut report, &plans, in_situ_ns, None);
        let v = &mut report.values;
        v.set("cuda-sim.launch_ns_per_kernel", launch_ns);
        v.set("grcuda.context.overhead_vs_handtuned_pct", 0.0);
    }
    report
}

/// `grcuda.serve.*`: the core's spans over `traced_requests` requests,
/// the core's host time per request, and the threaded phase.
fn serve_layers(
    report: &mut Report,
    runs: &[CoreRun],
    agg: &Aggregate,
    traced_requests: f64,
    core_ns_per_request: f64,
    threaded: &Threaded,
) {
    let v = &mut report.values;
    v.set(
        "grcuda.serve.core_submit_ns_per_request",
        agg.of(Name::CoreSubmit).self_ns as f64 / traced_requests,
    );
    v.set(
        "grcuda.serve.core_pump_ns_per_request",
        agg.of(Name::CorePump).self_ns as f64 / traced_requests,
    );
    v.set(
        "grcuda.serve.core_read_ns_per_request",
        agg.of(Name::CoreRead).self_ns as f64 / traced_requests,
    );
    v.set(
        "grcuda.serve.launches_per_pump",
        (REQUEST_CALLS * runs.iter().map(|r| r.admitted).sum::<usize>()) as f64
            / runs.iter().map(|r| r.pumps).sum::<usize>() as f64,
    );
    v.set(
        "grcuda.serve.rpc_overhead_ns_per_request",
        threaded.ns_per_request - core_ns_per_request,
    );
    v.set(
        "grcuda.serve.threaded_requests_per_s",
        1e9 / threaded.ns_per_request,
    );
    v.set("grcuda.serve.threaded_request_p50_us", threaded.p50_us);
    v.set("grcuda.serve.wall_request_p99_us", threaded.p99_us);
    v.set(
        "grcuda.serve.rejected",
        runs.iter().map(|r| r.rejected).sum::<u64>() as f64,
    );
    for ((_, metric), run) in FAIRNESS.iter().zip(runs) {
        let p99 = Sorted::new(run.latencies.clone()).percentile(99.0);
        v.set(metric, p99 * 1e6);
    }
}

/// Rounds of phase A in the probe the other workloads run.
const PROBE_ROUNDS: usize = 250;

/// `grcuda.serve.*` for workloads that do not go through the serve
/// layer: a short fixed run of both phases, phase A traced.
pub fn probe(report: &mut Report, seed: u64) {
    let plan = gen::tenants(seed, PROBE_ROUNDS);
    let want = reference(&plan);
    let terms = terms(seed, PROBE_ROUNDS);
    let mut tr = Tracer::new(false);
    tr.set_on(true);
    let t = Instant::now();
    let runs: Vec<CoreRun> = FAIRNESS
        .iter()
        .map(|(f, _)| {
            let core = core_setup(&plan, &terms, config(Options::parallel(), *f));
            core_drive(core, &plan, &want, &terms, &mut tr, &mut Vec::new())
        })
        .collect();
    let requests = (PROBE_ROUNDS * TENANTS * FAIRNESS.len()) as f64;
    let core_ns_per_request = t.elapsed().as_nanos() as f64 / requests;
    tr.set_on(false);
    report.failed += runs.iter().map(|r| r.failed).sum::<u64>();
    let threaded = phase_b(report, seed);
    serve_layers(
        report,
        &runs,
        &aggregate(tr.spans()),
        requests,
        core_ns_per_request,
        &threaded,
    );
}
