//! Per-layer metrics: what the traced run and the isolated replays say
//! about single layers. Every function here fills in one family of
//! `<module>.<metric>` values; a workload calls the families it can
//! measure itself and gets the rest from probes on its own program.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use cuda_sim::Cuda;
use gpu_sim::fluid::max_min_rates_vec;
use gpu_sim::{
    DeviceProfile, EngineStats, EvictionPolicy, MemoryConfig, MemoryManager, MemoryStats,
    TopologyKind, ValueId,
};
use grcuda::{DeviceSelectionPolicy, GrCuda, Options, PlacementCtx, PlacementPolicy, Signature};
use metrics::OverlapMetrics;

use super::workloads::{mib, undrained};
use crate::exec::{Bound, Samples};
use crate::measure::Rounds;
use crate::plan::Plan;
use crate::replay::{self, timer_ns};
use crate::report::Report;
use crate::stats::median;
use crate::trace::{aggregate, chrome_trace, Aggregate, Name, Span, Tracer};
use crate::{host, okernels, Config};

// ---------------------------------------------------------------------
// exact counters of one execution
// ---------------------------------------------------------------------

/// The runtime's public statistics after one execution of a program.
/// Sums over several executions (policies, suites) with [`InSitu::add`].
#[derive(Debug, Clone, Default)]
pub struct InSitu {
    pub launches: usize,
    pub batches: usize,
    pub streams_created: usize,
    pub migrations: usize,
    pub p2p_bytes: usize,
    pub host_link_bytes: f64,
    pub cross_node_bytes: usize,
    pub partitioned_batches: usize,
    pub cut_bytes: usize,
    pub engine: EngineStats,
    pub memory: MemoryStats,
}

impl InSitu {
    pub fn of(g: &GrCuda, launches: usize, batches: usize) -> Self {
        let st = g.scheduler_stats();
        InSitu {
            launches,
            batches,
            streams_created: g.streams_created(),
            migrations: g.migration_stats().0,
            p2p_bytes: g.p2p_migration_stats().1,
            host_link_bytes: g.host_link_bytes(),
            cross_node_bytes: g.cross_node_migration_stats().1,
            partitioned_batches: st.cluster.partitioned_batches,
            cut_bytes: st.cluster.partition_cut_bytes,
            engine: g.stats(),
            memory: st.memory,
        }
    }

    pub fn add(&mut self, o: &InSitu) {
        self.launches += o.launches;
        self.batches += o.batches;
        self.streams_created += o.streams_created;
        self.migrations += o.migrations;
        self.p2p_bytes += o.p2p_bytes;
        self.host_link_bytes += o.host_link_bytes;
        self.cross_node_bytes += o.cross_node_bytes;
        self.partitioned_batches += o.partitioned_batches;
        self.cut_bytes += o.cut_bytes;
        self.engine.submitted += o.engine.submitted;
        self.engine.retained_tasks += o.engine.retained_tasks;
        self.engine.rate_refreshes += o.engine.rate_refreshes;
        self.engine.rate_tasks_solved += o.engine.rate_tasks_solved;
        self.engine.rate_tasks_reused += o.engine.rate_tasks_reused;
        self.memory.evictions += o.memory.evictions;
        self.memory.spilled_bytes += o.memory.spilled_bytes;
        self.memory.prefetch_issued += o.memory.prefetch_issued;
        self.memory.prefetch_hits += o.memory.prefetch_hits;
    }
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

fn per(total: f64, count: f64) -> f64 {
    if count > 0.0 {
        total / count
    } else {
        0.0
    }
}

/// `grcuda.context.*` host times from the spans around the runtime's
/// entry points, and every exact count the runtime exposes. `agg`
/// covers `execs` executions of the program `one` describes.
pub fn context(report: &mut Report, agg: &Aggregate, one: &InSitu, execs: usize) {
    let launches = (one.launches * execs) as f64;
    let v = &mut report.values;
    v.set(
        "grcuda.context.submit_ns_per_launch",
        per(agg.of(Name::Submit).self_ns as f64, launches),
    );
    v.set(
        "grcuda.context.sync_ns_per_launch",
        per(agg.of(Name::Sync).self_ns as f64, launches),
    );
    let read = agg.of(Name::HostRead);
    v.set(
        "grcuda.context.host_read_ns_per_op",
        per(read.self_ns as f64, read.count as f64),
    );
    let write = agg.of(Name::HostWrite);
    v.set(
        "grcuda.context.host_write_ns_per_op",
        per(write.self_ns as f64, write.count as f64),
    );
    v.set("grcuda.context.launches", one.launches as f64);
    v.set("grcuda.context.batches", one.batches as f64);
    v.set(
        "grcuda.context.launches_per_batch",
        per(one.launches as f64, one.batches as f64),
    );
    v.set(
        "grcuda.stream_manager.streams_created",
        one.streams_created as f64,
    );
    v.set("cuda-sim.migrations", one.migrations as f64);
    v.set("cuda-sim.p2p_mib", mib(one.p2p_bytes));
    v.set(
        "cuda-sim.host_link_mib",
        one.host_link_bytes / (1024.0 * 1024.0),
    );
    v.set("cuda-sim.cross_node_mib", mib(one.cross_node_bytes));
    v.set(
        "grcuda.partition.partitioned_batches",
        one.partitioned_batches as f64,
    );
    v.set("grcuda.partition.cut_mib", mib(one.cut_bytes));
    v.set("gpu-sim.engine.tasks", one.engine.submitted as f64);
    v.set(
        "gpu-sim.engine.rate_refreshes",
        one.engine.rate_refreshes as f64,
    );
    v.set(
        "gpu-sim.engine.solver_reuse_pct",
        pct(
            one.engine.rate_tasks_reused as f64,
            (one.engine.rate_tasks_reused + one.engine.rate_tasks_solved) as f64,
        ),
    );
    v.set(
        "gpu-sim.engine.retained_tasks_after_sync",
        one.engine.retained_tasks as f64,
    );
    v.set(
        "gpu-sim.memory_manager.evictions",
        one.memory.evictions as f64,
    );
    v.set(
        "gpu-sim.memory_manager.spilled_mib",
        mib(one.memory.spilled_bytes),
    );
    v.set(
        "gpu-sim.memory_manager.prefetch_hit_pct",
        pct(
            one.memory.prefetch_hits as f64,
            one.memory.prefetch_issued as f64,
        ),
    );
}

/// `kernels.func_*` from the shim's counters inside the round spans.
pub fn kernel_share(report: &mut Report, agg: &Aggregate, calls: u64) {
    let round = agg.of(Name::Round);
    report.values.set(
        "kernels.func_ns_per_launch",
        per(round.kernel_ns as f64, calls as f64),
    );
    report.values.set(
        "kernels.func_share_pct",
        pct(round.kernel_ns as f64, round.total_ns as f64),
    );
}

/// The closure check and the cost of tracing itself; writes the trace
/// file.
pub fn closure(cfg: &Config, report: &mut Report, rounds: &Rounds, agg: &Aggregate) {
    let spans = rounds.tracer.spans();
    report.values.set(
        "closure.unattributed_pct",
        pct(
            agg.unattributed_ns as f64,
            agg.of(Name::Round).total_ns as f64,
        ),
    );
    report
        .values
        .set("trace.overhead_pct", rounds.trace_overhead_pct());
    // Every traced round records the same spans, so this is exact.
    report.values.set(
        "trace.spans",
        per(spans.len() as f64, rounds.traced_wall_s.len() as f64),
    );
    report.values.set("host.rounds", rounds.wall_s.len() as f64);
    match write_trace(cfg, spans) {
        Ok(path) => report.note(format!(
            "trace: first {} of {} spans written to {path} (open in https://ui.perfetto.dev)",
            spans.len().min(crate::trace::TRACE_FILE_SPANS),
            spans.len()
        )),
        Err(e) => report.note(format!("trace: not written: {e}")),
    }
}

/// Write the Chrome-trace file next to the benchmark's sources (inside
/// the checkout, ignored by git) and return its path.
fn write_trace(cfg: &Config, spans: &[Span]) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.trace.json", cfg.workload, cfg.seed));
    std::fs::write(&path, chrome_trace(spans, &cfg.workload))?;
    Ok(path.display().to_string())
}

// ---------------------------------------------------------------------
// replays on the workload's own program
// ---------------------------------------------------------------------

/// How often each replay repeats; the median is reported.
const REPLAY_REPEATS: usize = 3;

fn median_of<T>(mut run: impl FnMut() -> T, key: impl Fn(&T) -> f64) -> T {
    let mut runs: Vec<T> = (0..REPLAY_REPEATS).map(|_| run()).collect();
    runs.sort_by(|a, b| key(a).total_cmp(&key(b)));
    runs.swap_remove(REPLAY_REPEATS / 2)
}

/// `dag.*`, `grcuda.stream_manager.assign_*`, `cuda-sim.launch_*`,
/// `gpu-sim.engine.*_ns_*`, `grcuda.partition.partition_*` and the
/// replay coverage, over `plans` (a workload with several programs
/// reports their launch-weighted mean). `in_situ_ns_per_launch` is what
/// the same launches cost inside the runtime, kernels excluded. Returns
/// the replayed `cuda-sim` nanoseconds per kernel launch, for callers
/// that have no better figure for `cuda-sim.launch_ns_per_kernel`.
pub fn replays(report: &mut Report, plans: &[Rc<Plan>], in_situ_ns_per_launch: f64) -> f64 {
    let tn = timer_ns();
    let (mut dag, mut lay, mut eng) = (
        replay::DagReplay::default(),
        replay::LayeredReplay::default(),
        replay::EngineReplay::default(),
    );
    let (mut part_ns, mut part_w) = (0.0, 0.0);
    for plan in plans {
        let plan = &plan.head(replay::REPLAY_LAUNCHES);
        let d = median_of(|| replay::dag(plan, tn), |d| d.add_ns + d.retire_ns);
        dag.add_ns += d.add_ns;
        dag.retire_ns += d.retire_ns;
        dag.vertices += d.vertices;
        dag.edges += d.edges;
        dag.peak_live = dag.peak_live.max(d.peak_live);
        let l = median_of(
            || replay::layered(plan, tn),
            |l| l.assign_ns + l.launch_ns + l.sync_ns,
        );
        lay.launches += l.launches;
        lay.assign_ns += l.assign_ns;
        lay.launch_ns += l.launch_ns;
        lay.sync_ns += l.sync_ns;
        let e = median_of(|| replay::engine(plan, tn), |e| e.submit_ns + e.advance_ns);
        eng.tasks += e.tasks;
        eng.submit_ns += e.submit_ns;
        eng.advance_ns += e.advance_ns;
        let p = median(
            &(0..REPLAY_REPEATS)
                .map(|_| replay::partition(plan, tn))
                .collect::<Vec<_>>(),
        );
        part_ns += p * l.launches as f64;
        part_w += l.launches as f64;
    }
    let v = &mut report.values;
    let vertices = dag.vertices as f64;
    v.set(
        "dag.add_computation_ns_per_vertex",
        per(dag.add_ns, vertices),
    );
    v.set(
        "dag.retire_compact_ns_per_vertex",
        per(dag.retire_ns, vertices),
    );
    v.set("dag.vertices", vertices);
    v.set("dag.edges_per_vertex", per(dag.edges as f64, vertices));
    v.set("dag.peak_live_vertices", dag.peak_live as f64);
    let launches = lay.launches as f64;
    v.set(
        "grcuda.stream_manager.assign_ns_per_vertex",
        per(lay.assign_ns, launches),
    );
    v.set(
        "gpu-sim.engine.submit_ns_per_task",
        per(eng.submit_ns, eng.tasks as f64),
    );
    v.set(
        "gpu-sim.engine.advance_ns_per_task",
        per(eng.advance_ns, eng.tasks as f64),
    );
    v.set(
        "grcuda.partition.partition_ns_per_item",
        per(part_ns, part_w),
    );
    let replayed = per(
        dag.add_ns + dag.retire_ns + lay.assign_ns + lay.launch_ns + lay.sync_ns,
        launches,
    );
    v.set(
        "closure.replay_coverage_pct",
        pct(replayed, in_situ_ns_per_launch),
    );
    per(lay.launch_ns, launches)
}

/// Host nanoseconds per launch the runtime's entry points took in the
/// traced executions, kernel functions excluded.
pub fn in_situ_ns_per_launch(agg: &Aggregate, launches: usize) -> f64 {
    let ns: u64 = [Name::Submit, Name::Sync, Name::HostRead, Name::HostWrite]
        .iter()
        .map(|n| agg.of(*n).self_ns)
        .sum();
    per(ns as f64, launches as f64)
}

/// Run `plans` through the executor with tracing on, for workloads
/// whose own rounds go through a higher-level entry point
/// (`run_grcuda`, the serve layer): the launch path's share of them.
fn trace_plans(plans: &[Rc<Plan>], make: impl Fn() -> GrCuda) -> (Aggregate, InSitu, usize) {
    const EXECS: usize = 3;
    let mut tr = Tracer::new(false);
    tr.set_on(true);
    let mut one = InSitu::default();
    for exec in 0..EXECS {
        for plan in plans {
            let mut bound = Bound::new(Rc::clone(plan), make());
            let r = tr.begin(Name::Round);
            let out = bound.run(&mut tr, &mut Samples::default());
            tr.end(r);
            if exec == 0 {
                one.add(&InSitu::of(&bound.g, out.launches, out.batches));
            }
        }
    }
    tr.set_on(false);
    (aggregate(tr.spans()), one, EXECS)
}

// ---------------------------------------------------------------------
// placement: the policy layer on a multi-GPU box
// ---------------------------------------------------------------------

/// A placement policy that times and counts every `select` call of the
/// policy it wraps. Installed through `GrCuda::with_placement_topo`.
struct TimedPolicy {
    inner: Box<dyn DeviceSelectionPolicy>,
    stats: SelectStats,
}

/// `(nanoseconds, calls)` a [`TimedPolicy`] has seen.
type SelectStats = Rc<std::cell::Cell<(u64, u64)>>;

impl TimedPolicy {
    fn wrap(policy: PlacementPolicy) -> (Box<dyn DeviceSelectionPolicy>, SelectStats) {
        let stats = SelectStats::default();
        (
            Box::new(TimedPolicy {
                inner: policy.build(),
                stats: stats.clone(),
            }),
            stats,
        )
    }
}

impl DeviceSelectionPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&mut self, ctx: &PlacementCtx) -> u32 {
        let t = Instant::now();
        let d = self.inner.select(ctx);
        let (ns, calls) = self.stats.get();
        self.stats
            .set((ns + t.elapsed().as_nanos() as u64, calls + 1));
        d
    }
}

/// Devices of the box the single-GPU workloads' programs are replayed
/// on to cost the policy layer.
const SWEEP_DEVICES: usize = 8;
/// Launches of that replay, per policy.
const SWEEP_LAUNCHES: usize = 4_800;

/// `grcuda.policy.*` for workloads that run on one GPU (where the
/// launch path never consults the policy): replay the head of the
/// program on an 8-GPU NVLink-pair box under every built-in policy,
/// with a timing wrapper around `select`.
fn policy_sweep(report: &mut Report, plans: &[Rc<Plan>]) {
    let (mut ns, mut calls) = (0u64, 0u64);
    for policy in PlacementPolicy::ALL {
        let (mut virtual_s, mut wall_s, mut launches) = (0.0, 0.0, 0usize);
        for plan in plans {
            let plan = plan.head(SWEEP_LAUNCHES / plans.len());
            let (timed, stats) = TimedPolicy::wrap(policy);
            let g = GrCuda::with_placement_topo(
                DeviceProfile::tesla_p100(),
                SWEEP_DEVICES,
                Options::parallel(),
                timed,
                TopologyKind::NvlinkPair,
            );
            let mut bound = Bound::new(Rc::new(plan), g);
            let t = Instant::now();
            let out = bound.run(&mut Tracer::new(false), &mut Samples::default());
            wall_s += t.elapsed().as_secs_f64();
            virtual_s += out.virtual_s;
            launches += out.launches;
            report.failed += (out.failed + undrained(&bound.g) + bound.g.races().len()) as u64;
            let (n, c) = stats.get();
            ns += n;
            calls += c;
        }
        set_policy(report, policy, virtual_s, launches as f64 / wall_s);
    }
    report.values.set(
        "grcuda.policy.select_ns_per_launch",
        per(ns as f64, calls as f64),
    );
}

/// The two per-policy metrics.
pub fn set_policy(
    report: &mut Report,
    policy: PlacementPolicy,
    virtual_s: f64,
    launches_per_s: f64,
) {
    // Registered names are `'static`; find the one for this policy.
    for d in &crate::report::PER_LAYER {
        let Some(rest) = d.name.strip_prefix("grcuda.policy.") else {
            continue;
        };
        if rest == format!("{}.virtual_makespan_ms", policy.name()) {
            report.values.set(d.name, virtual_s * 1e3);
        } else if rest == format!("{}.wall_launches_per_s", policy.name()) {
            report.values.set(d.name, launches_per_s);
        }
    }
}

// ---------------------------------------------------------------------
// fixed micro-replays, the same on every workload
// ---------------------------------------------------------------------

/// Time `f` over `n` calls, three times; median nanoseconds per call.
fn ns_per_call(n: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                f();
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&samples)
}

/// Layer costs that do not depend on the workload's traffic, measured
/// in isolation: NIDL parsing, kernel building and cost models for the
/// program's kernels, the fluid solver, victim selection, the placement
/// probe, and the machine yardstick.
pub fn micro(report: &mut Report, plans: &[Rc<Plan>]) {
    let v = &mut report.values;

    let mut nidl: Vec<&'static str> = kernels::all_kernels().iter().map(|k| k.nidl).collect();
    nidl.extend([okernels::TOUCH.nidl, okernels::JOIN2.nidl]);
    v.set(
        "grcuda.nidl.parse_ns_per_signature",
        ns_per_call(200, || {
            for s in &nidl {
                black_box(Signature::parse(s).expect("registered signatures parse"));
            }
        }) / nidl.len() as f64,
    );

    // Distinct kernels of the program, with the buffers and scalars of
    // one concrete call each.
    let mut defs: Vec<(&kernels::KernelDef, Vec<gpu_sim::DataBuffer>, Vec<f64>)> = Vec::new();
    for plan in plans {
        let c = Cuda::new(DeviceProfile::tesla_p100());
        let arrays = crate::baseline::cuda_arrays(&c, plan);
        for op in plan.templates.iter().flatten() {
            if !defs.iter().any(|(d, _, _)| d.name == op.def.name) {
                let (buffers, _, scalars) = crate::baseline::call_inputs(op, &arrays);
                defs.push((op.def, buffers, scalars));
            }
        }
    }
    let g = p100();
    v.set(
        "grcuda.nidl.build_kernel_ns",
        ns_per_call(200, || {
            for (d, _, _) in &defs {
                black_box(g.build_kernel(d).expect("registered signatures parse"));
            }
        }),
    );
    v.set(
        "kernels.cost_model_ns_per_launch",
        ns_per_call(2_000, || {
            for (d, buffers, scalars) in &defs {
                black_box((d.cost)(buffers, scalars));
            }
        }) / defs.len() as f64,
    );

    // The global (link-aware) solver at 1, 8 and 64 concurrent tasks:
    // seven device resources plus one link, mixed demands.
    for (name, n) in [
        ("gpu-sim.fluid.solve_ns_per_task_1", 1usize),
        ("gpu-sim.fluid.solve_ns_per_task_8", 8),
        ("gpu-sim.fluid.solve_ns_per_task_64", 64),
    ] {
        let caps = vec![1.0, 732e9, 2e12, 4.7e12, 12e9, 12e9, 1.0, 25e9];
        let demands: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let k = (i % 4 + 1) as f64;
                vec![
                    0.25 * k,
                    200e9 * k,
                    300e9,
                    0.0,
                    0.0,
                    0.0,
                    0.0,
                    if i % 3 == 0 { 25e9 } else { 0.0 },
                ]
            })
            .collect();
        v.set(
            name,
            ns_per_call(20_000 / n, || {
                black_box(max_min_rates_vec(&demands, &caps));
            }) / n as f64,
        );
    }

    // Victim selection on a device holding 64 arrays, cost-aware.
    let mut mm = MemoryManager::new(
        1,
        MemoryConfig::with_capacity(64 << 16).with_eviction(EvictionPolicy::CostAware),
    );
    for i in 0..64 {
        mm.insert(0, ValueId(i), 1 << 16, i as f64);
    }
    v.set(
        "gpu-sim.memory_manager.select_victims_ns_per_call",
        ns_per_call(5_000, || {
            black_box(mm.select_victims(0, 4 << 16, &[ValueId(3)], |v, b| {
                (v.0 * 7 % 13) as f64 + b as f64
            }));
        }),
    );

    // The per-array placement probe on a 16-device cluster-sized box.
    let c = Cuda::new_multi_topo(DeviceProfile::tesla_p100(), 16, TopologyKind::NvlinkPair);
    let a = c.alloc_f32(16_384);
    let mut est = vec![0.0; 16];
    v.set(
        "cuda-sim.placement_probe_ns_per_call",
        ns_per_call(50_000, || {
            black_box(c.placement_probe(&a, &mut est));
        }),
    );

    v.set("host.calib_ns_per_op", host::calib_ns_per_op());
    v.set("host.threads", host::threads() as f64);
}

// ---------------------------------------------------------------------
// audit and overlap on the first window of the program
// ---------------------------------------------------------------------

/// Units of the probe window at most.
const WINDOW_UNITS: usize = 64;

/// `grcuda.audit.*` and `metrics.*`: run the program up to (not
/// including) its first full sync on a fresh runtime, audit the
/// un-retired DAG, then synchronise and analyse the timeline — unless
/// the workload brings the overlap of its own full timelines.
pub fn audit_and_overlap(
    report: &mut Report,
    plans: &[Rc<Plan>],
    make: impl Fn() -> GrCuda,
    own_overlap: Option<Overlap>,
) {
    let (mut violations, mut audit_ns, mut vertices) = (0usize, 0.0, 0usize);
    let mut overlap: Option<Overlap> = None;
    for plan in plans {
        let end = plan
            .units
            .iter()
            .position(|u| u.sync_after)
            .map_or(plan.units.len(), |i| i + 1)
            .min(WINDOW_UNITS);
        let mut window = plan.first_units(end);
        window.units.iter_mut().for_each(|u| u.sync_after = false);
        let mut bound = Bound::new(Rc::new(window), make());
        bound.run(&mut Tracer::new(false), &mut Samples::default());
        let t = Instant::now();
        let audit = bound.g.audit();
        audit_ns += t.elapsed().as_nanos() as f64;
        violations += audit.violations.len();
        vertices += audit.vertices;
        bound.g.sync();
        overlap = Some(Overlap::of(&bound.g.timeline()).merged(overlap));
    }
    report.failed += violations as u64;
    report
        .values
        .set("grcuda.audit.violations", violations as f64);
    report.values.set(
        "grcuda.audit.audit_ns_per_vertex",
        per(audit_ns, vertices as f64),
    );
    if let Some(o) = own_overlap.or(overlap) {
        o.set(report);
    }
}

/// The paper's Fig. 11 decomposition of a timeline, and what computing
/// it cost.
pub struct Overlap {
    m: OverlapMetrics,
    intervals: usize,
    ns: f64,
    timelines: usize,
}

impl Overlap {
    pub fn of(tl: &gpu_sim::Timeline) -> Self {
        let t = Instant::now();
        let m = OverlapMetrics::from_timeline(tl);
        Overlap {
            m,
            intervals: tl.intervals().len(),
            ns: t.elapsed().as_nanos() as f64,
            timelines: 1,
        }
    }

    /// Mean of the fractions over timelines; analysis cost summed.
    pub fn merged(mut self, other: Option<Overlap>) -> Overlap {
        if let Some(o) = other {
            self.m.tot += o.m.tot;
            self.m.cc += o.m.cc;
            self.m.ct += o.m.ct;
            self.m.tc += o.m.tc;
            self.intervals += o.intervals;
            self.ns += o.ns;
            self.timelines += o.timelines;
        }
        self
    }

    pub fn set(&self, report: &mut Report) {
        let n = self.timelines as f64;
        let v = &mut report.values;
        v.set("metrics.overlap_tot_pct", 100.0 * self.m.tot / n);
        v.set("metrics.overlap_cc_pct", 100.0 * self.m.cc / n);
        v.set("metrics.overlap_ct_pct", 100.0 * self.m.ct / n);
        v.set("metrics.overlap_tc_pct", 100.0 * self.m.tc / n);
        v.set(
            "metrics.analysis_ns_per_interval",
            per(self.ns, self.intervals as f64),
        );
    }
}

// ---------------------------------------------------------------------
// what a one-GPU workload cannot measure from its own rounds
// ---------------------------------------------------------------------

fn p100() -> GrCuda {
    crate::workloads::p100(Options::parallel())
}

/// Replays, the policy sweep, the micro-replays and the audit window on
/// the program(s) of a workload that runs on one P100. Returns what
/// [`replays`] returns.
pub fn one_gpu_probes(
    report: &mut Report,
    plans: &[Rc<Plan>],
    in_situ_ns_per_launch: f64,
    own_overlap: Option<Overlap>,
) -> f64 {
    let launch_ns = replays(report, plans, in_situ_ns_per_launch);
    policy_sweep(report, plans);
    report.values.set("grcuda.policy.selects", 0.0);
    micro(report, plans);
    audit_and_overlap(report, plans, p100, own_overlap);
    launch_ns
}

/// `grcuda.context.*` for a one-GPU workload whose own rounds go
/// through a higher-level entry point (`run_grcuda`, the serve layer):
/// its program through the plan executor, traced. Returns the in-situ
/// nanoseconds per launch for [`one_gpu_probes`].
pub fn launch_path_share(report: &mut Report, plans: &[Rc<Plan>]) -> f64 {
    let (agg, one, execs) = trace_plans(plans, p100);
    context(report, &agg, &one, execs);
    in_situ_ns_per_launch(&agg, one.launches * execs)
}

/// Every per-layer family for `pipeline_batch` and `interactive_sync`,
/// whose rounds execute one plan on one GPU.
pub fn plan_layers(
    cfg: &Config,
    report: &mut Report,
    rounds: &Rounds,
    plan: &Rc<Plan>,
    one: &InSitu,
) {
    let agg = aggregate(rounds.tracer.spans());
    let execs = rounds.traced_wall_s.len();
    context(report, &agg, one, execs);
    kernel_share(report, &agg, (one.launches * execs) as u64);
    closure(cfg, report, rounds, &agg);
    let launch_ns = one_gpu_probes(
        report,
        &[Rc::clone(plan)],
        in_situ_ns_per_launch(&agg, one.launches * execs),
        None,
    );
    let v = &mut report.values;
    v.set("cuda-sim.launch_ns_per_kernel", launch_ns);
    v.set("grcuda.context.overhead_vs_handtuned_pct", 0.0);
    crate::workloads::serve_tenants::probe(report, cfg.seed);
}
