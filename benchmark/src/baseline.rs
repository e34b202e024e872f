//! The CUDA Graphs baseline for a [`Plan`], on `cuda-sim` directly.
//!
//! What a CUDA Graphs user of the paper's era would write: one graph
//! per request shape with hand-written dependencies, instantiated once,
//! then for every request — host writes, `cudaGraphLaunch`, wait for
//! the graph, host reads. Graph replays cannot express unified-memory
//! prefetches and the program has no cross-launch dependencies to give,
//! so replays do not overlap one another; that is the comparison the
//! paper draws in Fig. 8.

use std::rc::Rc;

use benchmarks::{PlanArg, PlanOp};
use cuda_sim::{Cuda, CudaGraph, KernelExec, UnifiedArray};
use gpu_sim::{DataBuffer, TypedData, ValueId};
use grcuda::Signature;

use crate::plan::{elem_bits, stage_write, Plan, Write};

/// Allocate the plan's arrays in a bare `cuda-sim` context.
pub fn cuda_arrays(c: &Cuda, plan: &Plan) -> Vec<UnifiedArray> {
    plan.arrays
        .iter()
        .map(|init| {
            let a = match init {
                TypedData::F32(v) => c.alloc_f32(v.len()),
                TypedData::F64(v) => c.alloc_f64(v.len()),
                TypedData::I32(v) => c.alloc_i32(v.len()),
                TypedData::U8(v) => c.alloc_u8(v.len()),
            };
            *a.buf.data_mut() = init.clone();
            a
        })
        .collect()
}

/// The buffers, `(value, read_only)` access modes and scalars of one
/// plan op — how the `grcuda` launch path splits a validated call.
pub fn call_inputs(
    op: &PlanOp,
    arrays: &[UnifiedArray],
) -> (Vec<DataBuffer>, Vec<(ValueId, bool)>, Vec<f64>) {
    let sig = Signature::parse(op.def.nidl).expect("benchmark signatures parse");
    let (mut buffers, mut accesses, mut scalars) = (Vec::new(), Vec::new(), Vec::new());
    for (a, p) in op.args.iter().zip(&sig.params) {
        match a {
            PlanArg::Arr(i) => {
                buffers.push(arrays[*i].buf.clone());
                accesses.push((arrays[*i].id, p.is_read_only()));
            }
            PlanArg::Scalar(v) => scalars.push(*v),
        }
    }
    (buffers, accesses, scalars)
}

/// The `cuda-sim` launch descriptor of one plan op — what the `grcuda`
/// launch path assembles from a validated call.
pub fn kernel_exec(op: &PlanOp, arrays: &[UnifiedArray]) -> KernelExec {
    let (buffers, accesses, scalars) = call_inputs(op, arrays);
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

/// Simulated seconds the plan takes as replayed CUDA graphs on `c`, and
/// the values its host reads returned.
pub fn run_graphs(plan: &Plan, c: &Cuda) -> (f64, Vec<u64>) {
    let arrays = cuda_arrays(c, plan);
    let graphs: Vec<CudaGraph> = plan
        .templates
        .iter()
        .map(|t| {
            let mut graph = CudaGraph::new();
            let mut nodes = Vec::with_capacity(t.len());
            for op in t {
                let deps: Vec<_> = op.deps.iter().map(|d| nodes[*d]).collect();
                nodes.push(graph.add_kernel(kernel_exec(op, &arrays), &deps));
            }
            graph
        })
        .collect();
    let mut stage = plan.arrays.clone();
    let mut reads = Vec::new();
    let write = |stage: &mut Vec<TypedData>, w: &Write| {
        stage_write(&mut stage[w.array], w);
        *arrays[w.array].buf.data_mut() = stage[w.array].clone();
        c.host_written(&arrays[w.array]);
    };
    let start = c.now();
    for u in &plan.units {
        c.host_spin(u.think_s);
        u.pre_writes.iter().for_each(|w| write(&mut stage, w));
        let done = graphs[u.template].launch(c);
        c.task_sync(done);
        for r in &u.post_reads {
            let a = &arrays[r.array];
            c.host_read(a, r.count * plan.arrays[r.array].elem_size());
            let data = a.buf.data();
            reads.extend((0..r.count).map(|i| elem_bits(&data, i)));
        }
        u.post_writes.iter().for_each(|w| write(&mut stage, w));
        if u.sync_after {
            c.device_sync();
            c.clear_timeline();
        }
    }
    (c.now() - start, reads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, plan};
    use gpu_sim::DeviceProfile;

    #[test]
    fn graph_replay_agrees_with_the_reference() {
        for p in [
            gen::pipeline(2, 12, 256),
            gen::interactive(2, 3),
            gen::fork_join(2, 6, 4),
        ] {
            let want = plan::reference(&p);
            let (secs, reads) = run_graphs(&p, &Cuda::new(DeviceProfile::tesla_p100()));
            assert!(secs > 0.0);
            assert_eq!(reads, want.reads);
        }
    }
}
