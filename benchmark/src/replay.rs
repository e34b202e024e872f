//! Isolated replays: feed a plan's operation stream to one lower layer
//! at a time through that layer's public API, and time only that layer.
//!
//! The in-situ spans say how long a `launch_batch` or a `sync` takes;
//! they cannot say how that time divides among the layers underneath,
//! because nothing inside the runtime is instrumented. A replay drives
//! `dag`, `grcuda::stream_manager`, `cuda-sim`, `gpu-sim::Engine` or
//! `grcuda::partition` with exactly the arguments the workload would
//! hand it and nothing else running, which gives a per-vertex cost for
//! that layer alone. What the replays do not cover is the glue in
//! `grcuda/context.rs` between the layers.

use std::hint::black_box;
use std::time::Instant;

use benchmarks::{PlanArg, PlanOp};
use cuda_sim::{Cuda, KernelExec, StreamId, UnifiedArray};
use dag::{ArgAccess, ComputationDag, DenseMap, ElementKind, Value, VertexId};
use gpu_sim::{DeviceProfile, Engine, TaskId, TaskSpec, ValueId};
use grcuda::stream_manager::StreamManager;
use grcuda::{partition_batch, DepStreamPolicy, Signature, StreamReusePolicy};

use crate::baseline::{cuda_arrays, kernel_exec};
use crate::plan::Plan;

/// Launches a replay covers (callers pass `plan.head(REPLAY_LAUNCHES)`):
/// long enough for steady state, short enough to repeat.
pub const REPLAY_LAUNCHES: usize = 24_000;

/// Dependency-tracking view of every template op's arguments.
fn accesses(plan: &Plan) -> Vec<Vec<Vec<ArgAccess>>> {
    plan.templates
        .iter()
        .map(|t| t.iter().map(op_accesses).collect())
        .collect()
}

/// The dependency-tracking view of one op's array arguments, values
/// named by plan index.
pub fn op_accesses(op: &PlanOp) -> Vec<ArgAccess> {
    let sig = Signature::parse(op.def.nidl).expect("benchmark signatures parse");
    op.args
        .iter()
        .zip(&sig.params)
        .filter_map(|(a, p)| match a {
            PlanArg::Arr(i) => Some(ArgAccess {
                value: Value(*i as u64),
                read_only: p.is_read_only(),
            }),
            PlanArg::Scalar(_) => None,
        })
        .collect()
}

/// Nanoseconds a [`Watch`] section costs when it times nothing; replays
/// that time single calls subtract it.
pub fn timer_ns() -> f64 {
    const N: u32 = 200_000;
    let mut w = Watch::default();
    for i in 0..N {
        black_box(w.time(|| black_box(i)));
    }
    w.ns as f64 / N as f64
}

/// A stopwatch that accumulates timed sections and counts them, so the
/// timer's own cost can be taken out afterwards.
#[derive(Default, Clone, Copy)]
struct Watch {
    ns: u64,
    sections: u64,
}

impl Watch {
    #[inline]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.sections += 1;
        r
    }

    fn net_ns(&self, timer_ns: f64) -> f64 {
        (self.ns as f64 - self.sections as f64 * timer_ns).max(0.0)
    }
}

// ---------------------------------------------------------------------
// dag
// ---------------------------------------------------------------------

#[derive(Debug, Default, Clone, Copy)]
pub struct DagReplay {
    pub add_ns: f64,
    pub retire_ns: f64,
    pub vertices: usize,
    pub edges: usize,
    pub peak_live: usize,
}

/// Replay the access sets through `ComputationDag` the way the launch
/// path, the host-access path and `sync` use it.
pub fn dag(plan: &Plan, timer_ns: f64) -> DagReplay {
    let accesses = accesses(plan);
    let mut dag = ComputationDag::new();
    let (mut add, mut retire) = (Watch::default(), Watch::default());
    let mut out = DagReplay::default();
    let host_access = |dag: &mut ComputationDag, retire: &mut Watch, array: usize, write| {
        retire.time(|| {
            let (vertex, _) = dag.add_array_access("cpu", Value(array as u64), write);
            if let Some(v) = vertex {
                black_box(dag.retire(v));
                dag.maybe_compact();
            }
        })
    };
    for u in &plan.units {
        for (array, write) in u.host_before() {
            host_access(&mut dag, &mut retire, array, write);
        }
        let ops = &plan.templates[u.template];
        out.edges += add.time(|| {
            let mut edges = 0;
            for (op, args) in ops.iter().zip(&accesses[u.template]) {
                let (_, deps) = dag.add_computation(ElementKind::Kernel, op.def.name, args.clone());
                edges += deps.len();
            }
            edges
        });
        out.peak_live = out.peak_live.max(dag.live_len());
        for (array, write) in u.host_after() {
            host_access(&mut dag, &mut retire, array, write);
        }
        if u.sync_after {
            retire.time(|| {
                dag.retire_all();
                dag.compact();
            });
        }
    }
    out.vertices = dag.len();
    out.add_ns = add.net_ns(timer_ns);
    out.retire_ns = retire.net_ns(timer_ns);
    out
}

// ---------------------------------------------------------------------
// stream manager + cuda-sim, under a minimal scheduler
// ---------------------------------------------------------------------

#[derive(Debug, Default, Clone, Copy)]
pub struct LayeredReplay {
    pub launches: usize,
    /// `StreamManager::assign`.
    pub assign_ns: f64,
    /// `Cuda::prefetch_async_uncharged` + `Cuda::launch_uncharged`.
    pub launch_ns: f64,
    /// `Cuda::device_sync`, `task_sync`, `host_read`, `host_written`.
    pub sync_ns: f64,
}

/// The smallest scheduler that keeps `StreamManager` and `Cuda` honest:
/// what `grcuda::GrCuda` holds per runtime, minus placement, history and
/// the audit table.
struct MiniScheduler {
    c: Cuda,
    arrays: Vec<UnifiedArray>,
    dag: ComputationDag,
    streams: StreamManager,
    vertex_stream: DenseMap<VertexId, StreamId>,
    vertex_task: DenseMap<VertexId, TaskId>,
    assign: Watch,
    launch: Watch,
    sync: Watch,
}

impl MiniScheduler {
    /// `GrCuda::launch_validated_inner`, parallel branch, one device.
    fn launch(&mut self, name: &'static str, args: &[ArgAccess], exec: &KernelExec) {
        let Self {
            c,
            arrays,
            dag,
            streams,
            vertex_stream,
            vertex_task,
            ..
        } = self;
        let (vid, deps) = dag.add_computation(ElementKind::Kernel, name, args.to_vec());
        let stream = self
            .assign
            .time(|| streams.assign(vid, 0, &deps, vertex_stream, c));
        let dep_tasks: Vec<TaskId> = deps
            .iter()
            .filter(|d| vertex_stream.get(**d) != Some(&stream))
            .filter_map(|d| vertex_task.get(*d).copied())
            .collect();
        let task = self.launch.time(|| {
            for a in args {
                c.prefetch_async_uncharged(stream, &arrays[a.value.0 as usize]);
            }
            c.launch_uncharged(stream, exec, &dep_tasks)
                .expect("not capturing")
        });
        vertex_task.insert(vid, task);
        vertex_stream.insert(vid, stream);
    }

    /// `GrCuda::host_access`.
    fn host_access(&mut self, array: usize, write: bool) {
        let a = &self.arrays[array];
        let (vertex, deps) = self.dag.add_array_access("cpu", Value(a.id.0), write);
        if let Some(v) = vertex {
            self.sync.time(|| {
                for d in &deps {
                    if let Some(t) = self.vertex_task.get(*d) {
                        self.c.task_sync(*t);
                    }
                }
            });
            let retired = self.dag.retire(v);
            self.streams.forget(&retired);
            for r in retired {
                self.vertex_task.remove(r);
                self.vertex_stream.remove(r);
            }
            self.dag.maybe_compact();
        }
        self.sync.time(|| {
            self.c.host_read(a, a.byte_len());
            if write {
                self.c.host_written(a);
            }
        });
    }

    /// `GrCuda::sync` followed by `clear_timeline`.
    fn sync(&mut self) {
        self.sync.time(|| self.c.device_sync());
        self.dag.retire_all();
        self.dag.compact();
        self.streams.forget_all();
        self.vertex_task.clear();
        self.vertex_stream.clear();
        self.c.clear_timeline();
    }
}

/// Drive `StreamManager` and `Cuda` with the plan under a
/// [`MiniScheduler`]: dependencies come from a `ComputationDag`
/// (untimed here, see [`dag`]), every launch gets a stream from the
/// manager and goes to `cuda-sim` with its cross-stream dependencies,
/// host accesses wait for their producers, syncs retire everything.
/// Kernel functions are replaced by no-ops so the time is the
/// simulator's, not `kernels`'.
pub fn layered(plan: &Plan, timer_ns: f64) -> LayeredReplay {
    let c = Cuda::new(DeviceProfile::tesla_p100());
    let arrays = cuda_arrays(&c, plan);
    // The DAG names values by plan index; `cuda-sim` numbers a fresh
    // context's allocations the same way.
    assert!(arrays
        .iter()
        .enumerate()
        .all(|(i, a)| a.id == ValueId(i as u64)));
    let accesses = accesses(plan);
    let execs: Vec<Vec<KernelExec>> = plan
        .templates
        .iter()
        .map(|t| {
            t.iter()
                .map(|op| {
                    let mut e = kernel_exec(op, &arrays);
                    e.func = std::rc::Rc::new(|_| {});
                    e
                })
                .collect()
        })
        .collect();
    let mut s = MiniScheduler {
        c,
        arrays,
        dag: ComputationDag::new(),
        streams: StreamManager::new(
            DepStreamPolicy::FirstChildOnParent,
            StreamReusePolicy::FifoReuse,
        ),
        vertex_stream: DenseMap::new(),
        vertex_task: DenseMap::new(),
        assign: Watch::default(),
        launch: Watch::default(),
        sync: Watch::default(),
    };
    let mut launches = 0;
    for u in &plan.units {
        for (array, write) in u.host_before() {
            s.host_access(array, write);
        }
        let ops = &plan.templates[u.template];
        for ((op, args), exec) in ops
            .iter()
            .zip(&accesses[u.template])
            .zip(&execs[u.template])
        {
            s.launch(op.def.name, args, exec);
        }
        launches += ops.len();
        for (array, write) in u.host_after() {
            s.host_access(array, write);
        }
        if u.sync_after {
            s.sync();
        }
    }
    s.sync();
    LayeredReplay {
        launches,
        assign_ns: s.assign.net_ns(timer_ns),
        launch_ns: s.launch.net_ns(timer_ns),
        sync_ns: s.sync.net_ns(timer_ns),
    }
}

// ---------------------------------------------------------------------
// engine
// ---------------------------------------------------------------------

#[derive(Debug, Default, Clone, Copy)]
pub struct EngineReplay {
    pub tasks: usize,
    pub submit_ns: f64,
    pub advance_ns: f64,
}

/// Replay the plan's kernels as equivalent `TaskSpec`s through
/// `Engine::submit` and `Engine::sync_all`: same solo durations,
/// resource demands, read/write sets and dependencies, no payloads, no
/// `cuda-sim` above it.
pub fn engine(plan: &Plan, timer_ns: f64) -> EngineReplay {
    let dev = DeviceProfile::tesla_p100();
    let scratch = Cuda::new(dev.clone());
    let arrays = cuda_arrays(&scratch, plan);
    let accesses = accesses(plan);
    // (solo seconds, demand) of every template op.
    let profiles: Vec<Vec<_>> = plan
        .templates
        .iter()
        .map(|t| {
            t.iter()
                .map(|op| {
                    let e = kernel_exec(op, &arrays);
                    e.cost.solo_profile(e.grid, &dev)
                })
                .collect()
        })
        .collect();
    let mut eng = Engine::new(dev.clone());
    let mut dag = ComputationDag::new();
    let mut vertex_task: DenseMap<VertexId, TaskId> = DenseMap::new();
    let (mut submit, mut advance) = (Watch::default(), Watch::default());
    let mut out = EngineReplay::default();
    for u in &plan.units {
        for ((op, args), (solo, demand)) in plan.templates[u.template]
            .iter()
            .zip(&accesses[u.template])
            .zip(&profiles[u.template])
        {
            let (vid, deps) = dag.add_computation(ElementKind::Kernel, op.def.name, args.clone());
            let dep_tasks: Vec<TaskId> = deps
                .iter()
                .filter_map(|d| vertex_task.get(*d).copied())
                .collect();
            let mut spec = TaskSpec::kernel(op.def.name, 0)
                .latency(dev.launch_overhead)
                .fluid(*solo);
            spec.demand = *demand;
            for a in args {
                let v = ValueId(a.value.0);
                if a.read_only {
                    spec.reads.push(v);
                } else {
                    spec.writes.push(v);
                }
            }
            let task = submit.time(|| eng.submit(spec, &dep_tasks));
            vertex_task.insert(vid, task);
            out.tasks += 1;
        }
        // Host reads wait for the producers of what they read; without
        // a device above the engine that is a task sync.
        for r in &u.post_reads {
            let (vertex, deps) = dag.add_array_access("cpu", Value(r.array as u64), false);
            if let Some(v) = vertex {
                advance.time(|| {
                    for d in &deps {
                        if let Some(t) = vertex_task.get(*d) {
                            eng.sync_task(*t);
                        }
                    }
                });
                for r in dag.retire(v) {
                    vertex_task.remove(r);
                }
                dag.maybe_compact();
            }
        }
        if u.sync_after {
            advance.time(|| eng.sync_all());
            dag.retire_all();
            dag.compact();
            vertex_task.clear();
            eng.clear_timeline();
        }
    }
    advance.time(|| eng.sync_all());
    out.submit_ns = submit.net_ns(timer_ns);
    out.advance_ns = advance.net_ns(timer_ns);
    out
}

// ---------------------------------------------------------------------
// partition
// ---------------------------------------------------------------------

/// Nanoseconds per batch item of `partition_batch` over two nodes, on
/// the plan's batches (one per unit).
pub fn partition(plan: &Plan, timer_ns: f64) -> f64 {
    let items: Vec<Vec<Vec<(u64, usize)>>> = plan
        .templates
        .iter()
        .map(|t| {
            t.iter()
                .map(|op| {
                    op.args
                        .iter()
                        .filter_map(|a| match a {
                            PlanArg::Arr(i) => Some((*i as u64, plan.arrays[*i].byte_len())),
                            PlanArg::Scalar(_) => None,
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let mut watch = Watch::default();
    let mut count = 0;
    for u in &plan.units {
        let batch = &items[u.template];
        black_box(watch.time(|| partition_batch(batch, 2)));
        count += batch.len();
    }
    watch.net_ns(timer_ns) / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn replays_count_what_they_ran() {
        for p in [
            gen::pipeline(4, 30, 256),
            gen::interactive(4, 5),
            gen::tenants(4, 5),
            gen::fork_join(4, 6, 4),
        ] {
            let launches = p.launches();
            let d = dag(&p, 0.0);
            assert!(d.vertices >= launches && d.edges > 0 && d.peak_live > 0);
            assert_eq!(layered(&p, 0.0).launches, launches);
            assert_eq!(engine(&p, 0.0).tasks, launches);
            assert!(partition(&p, 0.0) > 0.0);
        }
    }

    #[test]
    fn watch_takes_the_timer_cost_out() {
        let mut w = Watch::default();
        for _ in 0..10 {
            w.time(|| black_box(1 + 1));
        }
        assert_eq!(w.sections, 10);
        assert_eq!(w.net_ns(1e9), 0.0);
        assert!(timer_ns() > 0.0);
    }
}
