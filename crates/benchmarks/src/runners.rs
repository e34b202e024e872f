//! Execution strategies: one benchmark spec, five ways to run it.
//!
//! All runners return a [`RunResult`] with per-iteration GPU execution
//! times (the paper's metric: "the total amount of time spent by GPU
//! execution, from the first kernel scheduling until the end of
//! execution"), the last iteration's timeline, and a bit-exact
//! validation against the sequential CPU reference.
//!
//! Where the reference runs. The GrCUDA runners ([`run_grcuda`],
//! [`run_multi_gpu`]) first have the runtime accept every call of the
//! program ([`grcuda::Kernel::accepts`]); only then do they start the
//! reference on a second, scoped thread and run the program on the
//! calling one, so a refused program starts nothing and the reference
//! overlaps the run. It shares no buffer with the run, so the verdict
//! is a pure function of the program, not of which thread finishes
//! first. The CUDA
//! baselines compute the reference inline after their run: callers
//! time them by host time minus kernel-function time, and kernel time
//! spent beside the run on another thread would be subtracted from a
//! span it did not lengthen.

use std::collections::hash_map::{Entry, HashMap};
use std::rc::Rc;
use std::{mem, panic, thread};

use cuda_sim::{Cuda, CudaGraph, KernelExec, Moved, StreamId, UnifiedArray};
use gpu_sim::{DataBuffer, DeviceProfile, Timeline, Topology, TypedData};
use grcuda::{Arg, GrCuda, Options, PlacementPolicy, Signature};

use crate::spec::{BenchSpec, PlanArg, PlanOp};

/// Outcome of one benchmark run.
#[derive(Debug)]
pub struct RunResult {
    /// GPU execution time of each iteration, seconds.
    pub iter_times: Vec<f64>,
    /// Timeline of the last iteration.
    pub timeline: Timeline,
    /// Number of data races the simulator detected (must be 0).
    pub races: usize,
    /// Streams that carried GPU work in the last iteration.
    pub streams_used: usize,
    /// Cross-device migrations performed: none on one device.
    pub migrations: Moved,
    /// Bit-exact comparison against the sequential CPU reference.
    pub valid: Result<(), String>,
}

impl RunResult {
    /// Time of the first iteration, which also pays the first-touch
    /// transfer of every array the later ones find resident.
    pub fn cold_time(&self) -> f64 {
        self.iter_times[0]
    }

    /// Steady-state time: the last iteration of a run of at least two,
    /// `None` for a single-iteration run (it only has a cold time). The
    /// simulator is deterministic and iterations from the second on are
    /// identical, so two iterations measure it and more only repeat
    /// kernel arithmetic.
    pub fn steady_time(&self) -> Option<f64> {
        match self.iter_times.as_slice() {
            [_, .., last] => Some(*last),
            _ => None,
        }
    }

    /// Panic unless the run validated and was race-free (test helper).
    pub fn assert_ok(&self) {
        assert_eq!(self.races, 0, "data races detected");
        if let Err(e) = &self.valid {
            panic!("validation failed: {e}");
        }
    }
}

/// The reference final state after `iters` iterations (streaming inputs
/// are re-written with their initial contents at the top of each
/// iteration, exactly as the runners do). It builds its own buffers and
/// shares none with a run, so it may be worked on any thread.
pub fn reference_after_iters(spec: &BenchSpec, iters: usize) -> Vec<TypedData> {
    let buffers: Vec<DataBuffer> = spec
        .arrays
        .iter()
        .map(|a| DataBuffer::new(a.init.clone()))
        .collect();
    for iter in 0..iters {
        // The buffers start as `init`: the first refresh would copy it
        // over itself.
        for (i, a) in spec.arrays.iter().enumerate() {
            if a.refresh_each_iter && iter > 0 {
                buffers[i].data_mut().copy_from(&a.init);
            }
        }
        for op in &spec.ops {
            let (bufs, scalars) = spec.op_inputs(op, &buffers);
            (op.def.func)(&bufs, &scalars);
        }
    }
    // Nothing else holds these buffers: move the final contents out.
    buffers
        .iter()
        .map(|b| mem::replace(&mut *b.data_mut(), TypedData::U8(Vec::new())))
        .collect()
}

/// Compare a run's final arrays with the reference bit for bit: a NaN
/// matches the same NaN, and −0.0 is not 0.0.
fn validate(spec: &BenchSpec, got: &[DataBuffer], want: &[TypedData]) -> Result<(), String> {
    for (i, (got, want)) in got.iter().zip(want).enumerate() {
        if !same_bits(&got.data(), want) {
            return Err(format!(
                "{}: array {} (`{}`) deviates from the sequential reference",
                spec.name, i, spec.arrays[i].name
            ));
        }
    }
    Ok(())
}

/// Whether two arrays hold the same type, length and bits (see
/// [`validate`]). It runs after the join on the critical path, so the
/// float arms compare a chunk at a time, OR-ing the XOR of every pair's
/// bits without a branch, and stop at the first chunk that differs.
pub(crate) fn same_bits(a: &TypedData, b: &TypedData) -> bool {
    match (a, b) {
        (TypedData::F32(x), TypedData::F32(y)) => {
            same_words(x, y, |p: &f32, q: &f32| p.to_bits() ^ q.to_bits())
        }
        (TypedData::F64(x), TypedData::F64(y)) => {
            same_words(x, y, |p: &f64, q: &f64| p.to_bits() ^ q.to_bits())
        }
        (TypedData::I32(x), TypedData::I32(y)) => x == y,
        (TypedData::U8(x), TypedData::U8(y)) => x == y,
        _ => false,
    }
}

/// Elements [`same_words`] compares between two early exits.
const SAME_BITS_CHUNK: usize = 512;

fn same_words<T, W>(x: &[T], y: &[T], diff: impl Fn(&T, &T) -> W) -> bool
where
    W: Default + PartialEq + std::ops::BitOr<Output = W>,
{
    x.len() == y.len()
        && x.chunks(SAME_BITS_CHUNK)
            .zip(y.chunks(SAME_BITS_CHUNK))
            .all(|(p, q)| {
                p.iter()
                    .zip(q)
                    .fold(W::default(), |d, (p, q)| d | diff(p, q))
                    == W::default()
            })
}

/// Per-signature read-only flags for the pointer arguments, in order.
fn ro_flags(op: &PlanOp) -> Vec<bool> {
    let sig = Signature::parse(op.def.nidl).expect("registered kernels parse");
    sig.params
        .iter()
        .filter(|p| p.is_pointer())
        .map(|p| p.is_read_only())
        .collect()
}

/// Build a cuda-sim launch descriptor for one op.
fn make_exec(op: &PlanOp, arrays: &[UnifiedArray]) -> KernelExec {
    let ro = ro_flags(op);
    let mut buffers = Vec::new();
    let mut accesses = Vec::new();
    let mut scalars = Vec::new();
    let mut p = 0usize;
    for a in &op.args {
        match a {
            PlanArg::Arr(k) => {
                buffers.push(arrays[*k].buf.clone());
                accesses.push((arrays[*k].id, ro[p]));
                p += 1;
            }
            PlanArg::Scalar(v) => scalars.push(*v),
        }
    }
    let cost = (op.def.cost)(&buffers, &scalars);
    let func = op.def.func;
    KernelExec::new(
        op.def.name,
        op.grid,
        cost,
        buffers,
        accesses,
        Rc::new(move |bufs: &[DataBuffer]| func(bufs, &scalars)),
    )
}

fn read_outputs_cuda(c: &Cuda, spec: &BenchSpec, arrays: &[UnifiedArray]) {
    for (k, cnt) in &spec.outputs {
        let bytes = cnt * spec.arrays[*k].init.elem_size();
        c.host_read(&arrays[*k], bytes);
    }
}

// ---------------------------------------------------------------------
// GrCUDA runner (serial baseline & the paper's scheduler)
// ---------------------------------------------------------------------

/// Allocate the spec's managed arrays in a GrCUDA context and write
/// their initial contents (shared by the runner, the soak harness and
/// the integration tests).
pub fn grcuda_arrays(g: &GrCuda, spec: &BenchSpec) -> Vec<grcuda::DeviceArray> {
    spec.arrays
        .iter()
        .map(|a| g.array(a.init.clone()))
        .collect()
}

/// Re-write streaming inputs (`refresh_each_iter`) with their initial
/// contents, as each iteration of the paper's benchmarks does.
pub fn refresh_grcuda_arrays(spec: &BenchSpec, arrays: &[grcuda::DeviceArray]) {
    for (a, arr) in spec.arrays.iter().zip(arrays) {
        if a.refresh_each_iter {
            arr.copy_from(&a.init);
        }
    }
}

/// Perform the spec's end-of-iteration host reads (VEC's `res = Z[0]`
/// pattern) — the fine-grained synchronization points of a request.
pub fn read_grcuda_outputs(spec: &BenchSpec, arrays: &[grcuda::DeviceArray]) {
    for (k, cnt) in &spec.outputs {
        for i in 0..*cnt {
            arrays[*k].get(i);
        }
    }
}

/// The iterate / launch / read / sync / validate loop every GrCUDA
/// runner shares: whatever machine `g` was built over, the spec runs
/// the same way. Stream and dependency hints in the plan are ignored —
/// the scheduler infers everything. A spec whose kernel signatures or
/// launch arguments the runtime rejects is an `Err` naming the kernel,
/// returned before anything runs, the reference included (module doc).
fn run_on(g: &GrCuda, spec: &BenchSpec, iters: usize) -> Result<RunResult, String> {
    let arrays = grcuda_arrays(g, spec);
    let mut kernels: HashMap<&'static str, grcuda::Kernel> = HashMap::new();
    for op in &spec.ops {
        if let Entry::Vacant(slot) = kernels.entry(op.def.name) {
            let kernel = g
                .build_kernel(op.def)
                .map_err(|e| format!("{}: kernel `{}`: {e}", spec.name, op.def.name))?;
            slot.insert(kernel);
        }
    }
    let calls: Vec<(&grcuda::Kernel, Vec<Arg>)> = spec
        .ops
        .iter()
        .map(|op| {
            let args = op
                .args
                .iter()
                .map(|a| match a {
                    PlanArg::Arr(k) => Arg::array(&arrays[*k]),
                    PlanArg::Scalar(v) => Arg::scalar(*v),
                })
                .collect();
            (&kernels[op.def.name], args)
        })
        .collect();
    for (kernel, args) in &calls {
        kernel
            .accepts(args)
            .map_err(|e| format!("{}: {e}", spec.name))?;
    }

    let (iter_times, reference) = thread::scope(|s| {
        let reference = s.spawn(|| reference_after_iters(spec, iters));
        let mut iter_times = Vec::with_capacity(iters);
        for _ in 0..iters {
            refresh_grcuda_arrays(spec, &arrays);
            g.clear_timeline();
            for ((kernel, args), op) in calls.iter().zip(&spec.ops) {
                kernel
                    .launch(op.grid, args)
                    .expect("the runtime accepted every call before the run");
            }
            read_grcuda_outputs(spec, &arrays);
            g.sync();
            iter_times.push(g.timeline().gpu_span());
        }
        let reference = reference.join().unwrap_or_else(|p| panic::resume_unwind(p));
        (iter_times, reference)
    });

    let buffers: Vec<DataBuffer> = arrays.iter().map(|a| a.raw_buffer()).collect();
    let timeline = g.timeline();
    Ok(RunResult {
        iter_times,
        streams_used: timeline.streams_used(),
        races: g.races().len(),
        migrations: g.snapshot().migrations.all,
        valid: validate(spec, &buffers, &reference),
        timeline,
    })
}

/// Run the spec through the GrCUDA runtime on one device. With
/// [`Options::serial`] this is the paper's baseline; with
/// [`Options::parallel`] it is the paper's contribution.
///
/// # Panics
///
/// If the runtime rejects one of the spec's kernel signatures or
/// launches (the signature is frozen by `benchmark/`; the multi-device
/// runners return the error instead).
pub fn run_grcuda(
    spec: &BenchSpec,
    dev: &DeviceProfile,
    options: Options,
    iters: usize,
) -> RunResult {
    let g = GrCuda::new(dev.clone(), options);
    run_on(&g, spec, iters).unwrap_or_else(|e| panic!("{e}"))
}

// ---------------------------------------------------------------------
// Multi-GPU runner (unified scheduler core, policy-driven placement)
// ---------------------------------------------------------------------

/// Run the spec through the unified scheduler on the machine `topo`,
/// with placement decided per-kernel by `policy`. Results are validated
/// against the same sequential CPU reference as every other runner, so
/// any two policies, device counts or topologies that validate are
/// bit-identical to each other — the parity the policy sweep asserts;
/// links change transfer routes and timing, never results.
pub fn run_multi_gpu(
    spec: &BenchSpec,
    dev: &DeviceProfile,
    options: Options,
    topo: Topology,
    policy: PlacementPolicy,
    iters: usize,
) -> Result<RunResult, String> {
    let g = GrCuda::with_topology(dev.clone(), topo, options, policy);
    run_on(&g, spec, iters)
}

// ---------------------------------------------------------------------
// Hand-tuned CUDA events baseline
// ---------------------------------------------------------------------

/// The "hand-optimized implementation purely based on CUDA events" of
/// §V-D: explicit streams per the plan's Fig. 6 coloring, explicit
/// events for every cross-stream edge, and (optionally) manual
/// prefetching — the strongest baseline, which the paper's scheduler
/// matches.
pub fn run_handtuned(
    spec: &BenchSpec,
    dev: &DeviceProfile,
    prefetch: bool,
    iters: usize,
) -> RunResult {
    let c = Cuda::new(dev.clone());
    let arrays = alloc_cuda_arrays(&c, spec);
    let (execs, streams) = by_hand(&c, spec, &arrays);

    // First-use stream of each array (where a skilled programmer would
    // prefetch it), in program order: the prefetches are issued in this
    // order, so it must not be a hash map's.
    let mut first_use: Vec<(usize, usize)> = Vec::new();
    for op in &spec.ops {
        for a in &op.args {
            if let PlanArg::Arr(k) = a {
                if !first_use.iter().any(|(seen, _)| seen == k) {
                    first_use.push((*k, op.stream));
                }
            }
        }
    }

    let mut iter_times = Vec::with_capacity(iters);
    for _ in 0..iters {
        refresh_cuda(&c, spec, &arrays);
        c.clear_timeline();
        if prefetch {
            for (k, s) in &first_use {
                c.prefetch_async(streams[*s], &arrays[*k]);
            }
        }
        issue_by_hand(&c, spec, &execs, &streams);
        c.device_sync();
        read_outputs_cuda(&c, spec, &arrays);
        iter_times.push(c.timeline().gpu_span());
    }
    finish_cuda(c, spec, arrays, iter_times, iters)
}

/// The hand-written multi-stream form of a plan: its launch
/// descriptors and one stream per Fig. 6 color.
fn by_hand(
    c: &Cuda,
    spec: &BenchSpec,
    arrays: &[UnifiedArray],
) -> (Vec<KernelExec>, Vec<StreamId>) {
    let nstreams = spec.ops.iter().map(|o| o.stream).max().unwrap_or(0) + 1;
    (
        spec.ops.iter().map(|op| make_exec(op, arrays)).collect(),
        (0..nstreams).map(|_| c.stream_create()).collect(),
    )
}

/// Issue the plan on its streams with an event for every cross-stream
/// edge — executed by the hand-tuned baseline, recorded by the capture
/// one.
fn issue_by_hand(c: &Cuda, spec: &BenchSpec, execs: &[KernelExec], streams: &[StreamId]) {
    let mut events: Vec<Option<cuda_sim::EventId>> = vec![None; spec.ops.len()];
    for (i, op) in spec.ops.iter().enumerate() {
        for d in &op.deps {
            if spec.ops[*d].stream != op.stream {
                let ev = events[*d].expect("event recorded for cross-stream parent");
                c.stream_wait_event(streams[op.stream], ev);
            }
        }
        c.launch(streams[op.stream], &execs[i]);
        // Record an event if any later op on another stream waits.
        let needed = spec.ops[i + 1..]
            .iter()
            .any(|o| o.deps.contains(&i) && o.stream != op.stream);
        if needed {
            events[i] = Some(c.event_record(streams[op.stream]));
        }
    }
}

// ---------------------------------------------------------------------
// CUDA Graphs baselines
// ---------------------------------------------------------------------

/// CUDA Graphs with manually specified dependencies (§V-D): the graph is
/// built once from the plan's explicit edges and replayed every
/// iteration. Unified-memory prefetch cannot be expressed in the graph,
/// so replays pay the fault path on Pascal+ — the paper's Fig. 8 gap.
pub fn run_graph_manual(spec: &BenchSpec, dev: &DeviceProfile, iters: usize) -> RunResult {
    let c = Cuda::new(dev.clone());
    let arrays = alloc_cuda_arrays(&c, spec);
    let mut graph = CudaGraph::new();
    let mut nodes = Vec::with_capacity(spec.ops.len());
    for op in &spec.ops {
        let deps: Vec<cuda_sim::GraphNodeId> = op.deps.iter().map(|d| nodes[*d]).collect();
        nodes.push(graph.add_kernel(make_exec(op, &arrays), &deps));
    }
    run_graph(c, spec, arrays, graph, iters)
}

/// CUDA Graphs via stream capture (§V-D): the hand-tuned multi-stream
/// issue is captured once (prefetches are silently not capturable) and
/// the recorded graph is replayed every iteration.
pub fn run_graph_capture(spec: &BenchSpec, dev: &DeviceProfile, iters: usize) -> RunResult {
    let c = Cuda::new(dev.clone());
    let arrays = alloc_cuda_arrays(&c, spec);
    let (execs, streams) = by_hand(&c, spec, &arrays);
    c.begin_capture();
    issue_by_hand(&c, spec, &execs, &streams);
    let graph = c.end_capture();
    run_graph(c, spec, arrays, graph, iters)
}

fn run_graph(
    c: Cuda,
    spec: &BenchSpec,
    arrays: Vec<UnifiedArray>,
    graph: CudaGraph,
    iters: usize,
) -> RunResult {
    let mut iter_times = Vec::with_capacity(iters);
    for _ in 0..iters {
        refresh_cuda(&c, spec, &arrays);
        c.clear_timeline();
        let done = graph.launch(&c);
        c.task_sync(done);
        read_outputs_cuda(&c, spec, &arrays);
        iter_times.push(c.timeline().gpu_span());
    }
    finish_cuda(c, spec, arrays, iter_times, iters)
}

// ---------------------------------------------------------------------
// shared plumbing
// ---------------------------------------------------------------------

fn alloc_cuda_arrays(c: &Cuda, spec: &BenchSpec) -> Vec<UnifiedArray> {
    spec.arrays
        .iter()
        .map(|a| c.alloc(a.init.clone()))
        .collect()
}

fn refresh_cuda(c: &Cuda, spec: &BenchSpec, arrays: &[UnifiedArray]) {
    for (i, a) in spec.arrays.iter().enumerate() {
        if a.refresh_each_iter {
            arrays[i].buf.data_mut().copy_from(&a.init);
            c.host_written(&arrays[i]);
        }
    }
}

fn finish_cuda(
    c: Cuda,
    spec: &BenchSpec,
    arrays: Vec<UnifiedArray>,
    iter_times: Vec<f64>,
    iters: usize,
) -> RunResult {
    let buffers: Vec<DataBuffer> = arrays.iter().map(|a| a.buf.clone()).collect();
    let timeline = c.timeline();
    RunResult {
        iter_times,
        streams_used: timeline.streams_used(),
        races: c.races().len(),
        migrations: c.stats().migrations.all,
        valid: validate(spec, &buffers, &reference_after_iters(spec, iters)),
        timeline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scales, Bench};

    fn dev() -> DeviceProfile {
        DeviceProfile::gtx1660_super()
    }

    #[test]
    fn every_benchmark_validates_under_every_runner() {
        for b in Bench::ALL {
            let spec = b.build(scales::tiny(b));
            run_grcuda(&spec, &dev(), Options::serial(), 1).assert_ok();
            run_grcuda(&spec, &dev(), Options::parallel(), 1).assert_ok();
            run_handtuned(&spec, &dev(), true, 1).assert_ok();
            run_graph_manual(&spec, &dev(), 1).assert_ok();
            run_graph_capture(&spec, &dev(), 1).assert_ok();
        }
    }

    #[test]
    fn u8_spec_validates_under_every_runner() {
        use crate::spec::{ArraySpec, PlanOp};
        use gpu_sim::Grid;
        use kernels::util::THRESHOLD_U8;
        let n = 2048usize;
        let spec = BenchSpec {
            name: "U8",
            arrays: vec![
                ArraySpec {
                    name: "img",
                    init: TypedData::U8((0..n).map(|i| (i % 251) as u8).collect()),
                    refresh_each_iter: true,
                },
                ArraySpec {
                    name: "mask",
                    init: TypedData::U8(vec![0; n]),
                    refresh_each_iter: false,
                },
            ],
            ops: vec![PlanOp {
                def: &THRESHOLD_U8,
                grid: Grid::d1(8, 256),
                args: vec![
                    PlanArg::Arr(0),
                    PlanArg::Arr(1),
                    PlanArg::Scalar(100.0),
                    PlanArg::Scalar(n as f64),
                ],
                stream: 0,
                deps: vec![],
            }],
            outputs: vec![(1, 2)],
            scale: n,
        };
        spec.check_well_formed().unwrap();
        run_grcuda(&spec, &dev(), Options::serial(), 2).assert_ok();
        run_grcuda(&spec, &dev(), Options::parallel(), 2).assert_ok();
        run_handtuned(&spec, &dev(), true, 2).assert_ok();
        run_graph_manual(&spec, &dev(), 2).assert_ok();
        run_graph_capture(&spec, &dev(), 2).assert_ok();
    }

    #[test]
    fn multi_gpu_runner_validates_and_reports_migrations() {
        // One representative in-crate check of the runner plumbing (all
        // typed array arms, refresh, output reads, migration stats);
        // the full suite x device x policy parity matrix lives in
        // `tests/policies.rs` and the CI `multi_gpu --smoke` sweep.
        let spec = Bench::Hits.build(scales::tiny(Bench::Hits));
        let two = || Topology::pcie_only(2, &dev());
        let r = run_multi_gpu(
            &spec,
            &dev(),
            Options::parallel(),
            two(),
            PlacementPolicy::RoundRobin,
            2,
        )
        .unwrap();
        r.assert_ok();
        assert_eq!(
            r.timeline.devices_used().len(),
            2,
            "round-robin must reach both devices"
        );
        assert!(r.migrations.count >= 1, "HITS chains must migrate under RR");

        // A spec the runtime rejects is an error value, not a panic:
        // first an unparsable signature, then a launch short one argument.
        let run = |spec: &BenchSpec| {
            run_multi_gpu(
                spec,
                &dev(),
                Options::parallel(),
                two(),
                PlacementPolicy::RoundRobin,
                1,
            )
        };
        let mut bad = Bench::Hits.build(scales::tiny(Bench::Hits));
        bad.ops[0].def = Box::leak(Box::new(kernels::KernelDef {
            nidl: "pointer nonsense",
            ..*bad.ops[0].def
        }));
        assert!(run(&bad).unwrap_err().contains(bad.ops[0].def.name));
        let mut short = spec.clone();
        short.ops[0].args.pop();
        assert!(run(&short).unwrap_err().contains("arguments"));

        // The whole program is accepted before the reference starts:
        // each of these would panic the reference's `spmv` (a `sint32`
        // array read as float, a fractional size), and a panic there
        // would reach this thread through the join.
        let mut wrong_type = spec.clone();
        wrong_type.arrays[0].init = TypedData::F32(vec![0.0; spec.arrays[0].init.len()]);
        let mut fractional = spec;
        let last = fractional.ops[0].args.last_mut().unwrap();
        let PlanArg::Scalar(n) = *last else {
            panic!("`spmv` ends with its row count")
        };
        *last = PlanArg::Scalar(n + 0.5);
        for refused in [wrong_type, fractional] {
            let e = run(&refused).unwrap_err();
            assert!(e.contains("`spmv`"), "{e}");
        }
    }

    /// A spec of two one-element arrays, `x` (float) and `y` (double),
    /// with no ops, so its reference is `want`; `got` is checked
    /// against it.
    fn check_bits(want: (f32, f64), got: (f32, f64)) -> Result<(), String> {
        use crate::spec::ArraySpec;
        let spec = BenchSpec {
            name: "BITS",
            arrays: vec![
                ArraySpec {
                    name: "x",
                    init: TypedData::F32(vec![want.0]),
                    refresh_each_iter: false,
                },
                ArraySpec {
                    name: "y",
                    init: TypedData::F64(vec![want.1]),
                    refresh_each_iter: false,
                },
            ],
            ops: vec![],
            outputs: vec![],
            scale: 1,
        };
        let got = [
            DataBuffer::new(TypedData::F32(vec![got.0])),
            DataBuffer::new(TypedData::F64(vec![got.1])),
        ];
        validate(&spec, &got, &reference_after_iters(&spec, 1))
    }

    #[test]
    fn a_nan_result_validates() {
        check_bits((f32::NAN, f64::NAN), (f32::NAN, f64::NAN)).unwrap();
    }

    #[test]
    fn a_sign_flipped_zero_is_refused() {
        let e = check_bits((0.0, 1.5), (-0.0, 1.5)).unwrap_err();
        assert!(e.contains("(`x`)"), "{e}");
    }

    #[test]
    fn one_flipped_bit_is_refused() {
        let flipped = f64::from_bits(1.5f64.to_bits() ^ 1);
        let e = check_bits((0.0, 1.5), (0.0, flipped)).unwrap_err();
        assert!(e.contains("(`y`)"), "{e}");
    }

    #[test]
    fn same_bits_sees_every_bit_the_length_and_the_type() {
        use TypedData::{F32, F64, I32};
        assert!(!same_bits(&F32(vec![-0.0]), &F32(vec![0.0])));
        assert!(!same_bits(&F64(vec![0.0]), &F64(vec![-0.0])));
        let nan = |payload: u32| f32::from_bits(0x7fc0_0000 | payload);
        assert!(same_bits(&F32(vec![nan(1)]), &F32(vec![nan(1)])));
        assert!(!same_bits(&F32(vec![nan(1)]), &F32(vec![nan(2)])));
        // One element differs, in the last, partial chunk.
        let n = 2 * SAME_BITS_CHUNK + 3;
        let x: Vec<f64> = (0..n).map(|i| i as f64 / 7.0).collect();
        let mut y = x.clone();
        y[n - 2] = f64::from_bits(y[n - 2].to_bits() ^ 1);
        assert!(same_bits(&F64(x.clone()), &F64(x.clone())));
        assert!(!same_bits(&F64(x.clone()), &F64(y)));
        let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
        let mut y32 = x32.clone();
        y32[n - 1] = -y32[n - 1];
        assert!(same_bits(&F32(x32.clone()), &F32(x32.clone())));
        assert!(!same_bits(&F32(x32.clone()), &F32(y32)));
        // A prefix is not the array, nor is the same bits as another type.
        assert!(!same_bits(&F64(x[..n - 1].to_vec()), &F64(x)));
        assert!(!same_bits(&F32(x32[..n - 1].to_vec()), &F32(x32)));
        assert!(!same_bits(&F32(vec![0.0]), &I32(vec![0])));
    }

    #[test]
    fn multi_iteration_runs_validate() {
        let spec = Bench::Vec.build(2048);
        run_grcuda(&spec, &dev(), Options::parallel(), 3).assert_ok();
        run_handtuned(&spec, &dev(), true, 3).assert_ok();
        run_graph_manual(&spec, &dev(), 3).assert_ok();
    }

    #[test]
    fn parallel_uses_more_streams_than_serial() {
        // Large enough that each kernel outlives the host issue loop --
        // at tiny scales the FIFO policy correctly reuses drained
        // streams instead of fanning out.
        let spec = Bench::Bs.build(100_000);
        let ser = run_grcuda(&spec, &dev(), Options::serial(), 1);
        let par = run_grcuda(&spec, &dev(), Options::parallel(), 1);
        assert_eq!(ser.streams_used, 1);
        assert!(
            par.streams_used >= 8,
            "B&S must fan out: {}",
            par.streams_used
        );
        ser.assert_ok();
        par.assert_ok();
    }

    #[test]
    fn parallel_is_faster_than_serial_on_vec() {
        let spec = Bench::Vec.build(200_000);
        let ser = run_grcuda(&spec, &dev(), Options::serial(), 2);
        let par = run_grcuda(&spec, &dev(), Options::parallel(), 2);
        let (par, ser) = (par.steady_time().unwrap(), ser.steady_time().unwrap());
        assert!(par < ser, "parallel {par} vs serial {ser}");
    }

    #[test]
    fn hits_cross_stream_sync_is_race_free_everywhere() {
        let spec = Bench::Hits.build(512);
        for d in DeviceProfile::paper_devices() {
            run_grcuda(&spec, &d, Options::parallel(), 2).assert_ok();
            run_handtuned(&spec, &d, true, 2).assert_ok();
        }
    }

    #[test]
    fn steady_time_is_the_same_warm_iteration_however_long_the_run() {
        // The measurement rule: iterations from the second on are
        // identical, so the reported time must not depend on how many
        // times somebody looped — and it must not be the first one.
        type Runner = fn(&BenchSpec, usize) -> RunResult;
        let runners: [(&str, Runner); 4] = [
            ("serial", |s, n| run_grcuda(s, &dev(), Options::serial(), n)),
            ("parallel", |s, n| {
                run_grcuda(s, &dev(), Options::parallel(), n)
            }),
            ("graph", |s, n| run_graph_manual(s, &dev(), n)),
            ("events", |s, n| run_handtuned(s, &dev(), true, n)),
        ];
        for b in Bench::ALL {
            let spec = b.build(scales::tiny(b));
            for (name, run) in runners {
                let (one, two, three) = (run(&spec, 1), run(&spec, 2), run(&spec, 3));
                assert_eq!(one.steady_time(), None, "{} {name}", b.name());
                assert_eq!(one.cold_time(), two.cold_time(), "{} {name}", b.name());
                let (t2, t3) = (two.steady_time().unwrap(), three.steady_time().unwrap());
                assert!(
                    (t2 - t3).abs() <= 1e-9 * t3,
                    "{} {name}: steady {t2} after two iterations, {t3} after three",
                    b.name()
                );
                assert_eq!(t3, three.iter_times[2], "{} {name}: not the last", b.name());
                // Every array starts on the host, so the first
                // iteration pays transfers the later ones do not.
                assert!(
                    two.cold_time() > t2,
                    "{} {name}: cold {} must exceed steady {t2}",
                    b.name(),
                    two.cold_time()
                );
            }
        }
    }
}
