//! CUDA Graphs: ahead-of-time DAGs of GPU operations.
//!
//! The paper's Fig. 8 compares the GrCUDA scheduler against two ways of
//! using this API, both reproduced here:
//!
//! * **manual dependencies** — the program builds a [`CudaGraph`] node by
//!   node, passing explicit dependency lists ([`CudaGraph::add_kernel`]);
//! * **stream capture** — the program runs its hand-optimized
//!   multi-stream/event code between [`Cuda::begin_capture`] and
//!   [`Cuda::end_capture`]; the issued operations are recorded into a
//!   graph instead of executing.
//!
//! Both variants amortize instantiation over repeated launches (the
//! paper: "These CUDA Graphs are built only once per execution, and
//! overheads are completely amortized over many iterations"). Neither
//! can express unified-memory prefetches — `cudaMemPrefetchAsync` was
//! not capturable in the CUDA versions the paper used — so kernels in a
//! replayed graph pay the page-fault migration cost on Pascal+ devices.
//! That limitation, faithfully kept here, is the main reason the paper's
//! scheduler wins on the GTX 1660 Super and P100.

use std::cell::Cell;
use std::collections::HashMap;

use gpu_sim::{TaskId, TaskSpec};

use crate::context::{Cuda, StreamId};
use crate::exec::{KernelExec, Launch};

/// Host-side cost of instantiating one graph node (paid on the first
/// launch only; `cudaGraphInstantiate` analogue).
const INSTANTIATE_OVERHEAD_PER_NODE: f64 = 10e-6;

/// Handle to a node inside a [`CudaGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphNodeId(pub u32);

#[derive(Clone)]
pub(crate) enum GraphOp {
    Kernel(KernelExec),
    /// A join/marker node (created by captured events).
    Empty,
}

pub(crate) struct GraphNode {
    pub(crate) op: GraphOp,
    pub(crate) deps: Vec<GraphNodeId>,
    /// Stream the node was captured on (capture graphs only).
    pub(crate) stream_hint: Option<u32>,
}

/// An executable DAG of GPU operations.
pub struct CudaGraph {
    pub(crate) nodes: Vec<GraphNode>,
    instantiated: Cell<bool>,
}

impl Default for CudaGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl CudaGraph {
    /// An empty graph for the manual-dependency API.
    pub fn new() -> Self {
        CudaGraph {
            nodes: Vec::new(),
            instantiated: Cell::new(false),
        }
    }

    /// Add a kernel node whose execution waits for `deps`
    /// (`cudaGraphAddKernelNode` analogue). Dependencies must refer to
    /// already-added nodes, which keeps the graph acyclic by
    /// construction.
    pub fn add_kernel(&mut self, exec: KernelExec, deps: &[GraphNodeId]) -> GraphNodeId {
        for d in deps {
            assert!(
                (d.0 as usize) < self.nodes.len(),
                "graph dependency on a node that does not exist yet"
            );
        }
        self.nodes.push(GraphNode {
            op: GraphOp::Kernel(exec),
            deps: deps.to_vec(),
            stream_hint: None,
        });
        GraphNodeId(self.nodes.len() as u32 - 1)
    }

    /// Launch the graph (`cudaGraphLaunch` analogue). The first launch
    /// pays the instantiation overhead; later launches only pay a single
    /// API call. Returns a marker task that completes when every node
    /// has executed (sync on it with [`Cuda::task_sync`]).
    pub fn launch(&self, cuda: &Cuda) -> TaskId {
        let mut inner = cuda.inner.borrow_mut();
        if !self.instantiated.replace(true) {
            let dt = INSTANTIATE_OVERHEAD_PER_NODE * self.nodes.len() as f64;
            inner.engine.advance_host(dt);
        }
        let api = inner.dev.host_api_overhead;
        inner.engine.advance_host(api);

        // Stream assignment. Capture graphs replay on their recorded
        // streams; manual graphs get the greedy first-child-keeps-the-
        // parent's-stream assignment CUDA's runtime performs internally.
        let n = self.nodes.len();
        let mut stream_of: Vec<StreamId> = Vec::with_capacity(n);
        let mut claimed = vec![false; n];
        for (i, node) in self.nodes.iter().enumerate() {
            let s = match node.stream_hint {
                Some(h) => {
                    let sid = StreamId(h);
                    inner.ensure_stream(sid);
                    sid
                }
                None => {
                    let mut chosen: Option<StreamId> = None;
                    for d in &node.deps {
                        if !claimed[d.0 as usize] {
                            claimed[d.0 as usize] = true;
                            chosen = Some(stream_of[d.0 as usize]);
                            break;
                        }
                    }
                    chosen.unwrap_or_else(|| inner.fresh_stream())
                }
            };
            stream_of.push(s);
            let _ = i;
        }

        // Submit nodes in construction order (a topological order by
        // construction).
        let mut task_of: Vec<TaskId> = Vec::with_capacity(n);
        let mut has_child = vec![false; n];
        for (i, node) in self.nodes.iter().enumerate() {
            for d in &node.deps {
                has_child[d.0 as usize] = true;
            }
            let dep_tasks: Vec<TaskId> = node.deps.iter().map(|d| task_of[d.0 as usize]).collect();
            let t = match &node.op {
                GraphOp::Kernel(exec) => inner.submit_kernel(stream_of[i], exec.into(), &dep_tasks),
                GraphOp::Empty => {
                    let spec = TaskSpec::marker("graph-join", stream_of[i].0);
                    inner.engine.submit(spec, &dep_tasks)
                }
            };
            task_of.push(t);
        }

        // Final join over sink nodes.
        let sinks: Vec<TaskId> = (0..n)
            .filter(|&i| !has_child[i])
            .map(|i| task_of[i])
            .collect();
        let spec = TaskSpec::marker("graph-done", u32::MAX);
        inner.engine.submit(spec, &sinks)
    }
}

/// Stream-capture state: records issued operations as graph nodes.
pub(crate) struct CaptureState {
    nodes: Vec<GraphNode>,
    /// Per captured stream, the current frontier of nodes that the next
    /// operation on that stream must depend on.
    tails: HashMap<u32, Vec<u32>>,
}

impl CaptureState {
    fn new() -> Self {
        CaptureState {
            nodes: Vec::new(),
            tails: HashMap::new(),
        }
    }

    pub(crate) fn record_kernel(&mut self, stream: StreamId, exec: &Launch<'_>) {
        let deps: Vec<GraphNodeId> = self
            .tails
            .get(&stream.0)
            .map(|v| v.iter().map(|&i| GraphNodeId(i)).collect())
            .unwrap_or_default();
        self.nodes.push(GraphNode {
            op: GraphOp::Kernel(exec.to_exec()),
            deps,
            stream_hint: Some(stream.0),
        });
        let id = self.nodes.len() as u32 - 1;
        self.tails.insert(stream.0, vec![id]);
    }

    /// The node a newly recorded event on `stream` refers to; creates a
    /// join node if the stream has several pending heads.
    pub(crate) fn tail_of(&mut self, stream: StreamId) -> u32 {
        let tails = self.tails.entry(stream.0).or_default().clone();
        if tails.len() == 1 {
            return tails[0];
        }
        // Zero or many heads: materialize an empty node joining them.
        self.nodes.push(GraphNode {
            op: GraphOp::Empty,
            deps: tails.iter().map(|&i| GraphNodeId(i)).collect(),
            stream_hint: Some(stream.0),
        });
        let id = self.nodes.len() as u32 - 1;
        self.tails.insert(stream.0, vec![id]);
        id
    }

    /// `cudaStreamWaitEvent` during capture: the event's node joins the
    /// stream's dependency frontier.
    pub(crate) fn add_wait(&mut self, stream: StreamId, node: u32) {
        let tails = self.tails.entry(stream.0).or_default();
        if !tails.contains(&node) {
            tails.push(node);
        }
    }
}

impl Cuda {
    /// Begin stream capture: subsequent launches and events are recorded
    /// instead of executed, until [`Cuda::end_capture`].
    ///
    /// # Panics
    /// Panics if a capture is already in progress.
    pub fn begin_capture(&self) {
        let mut inner = self.inner.borrow_mut();
        assert!(inner.capture.is_none(), "capture already in progress");
        inner.capture = Some(CaptureState::new());
    }

    /// Finish stream capture and return the recorded graph.
    ///
    /// # Panics
    /// Panics if no capture is in progress.
    pub fn end_capture(&self) -> CudaGraph {
        let mut inner = self.inner.borrow_mut();
        let cap = inner.capture.take().expect("no capture in progress");
        CudaGraph {
            nodes: cap.nodes,
            instantiated: Cell::new(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceProfile, Grid, KernelCost, TaskKind};
    use std::rc::Rc;

    fn ctx() -> Cuda {
        Cuda::new(DeviceProfile::gtx1660_super())
    }

    fn kern(name: &str, arr: &crate::memory::UnifiedArray, ms: f64, write: bool) -> KernelExec {
        KernelExec::new(
            name,
            Grid::d1(64, 128),
            KernelCost {
                min_time: ms * 1e-3,
                ..Default::default()
            },
            vec![arr.buf.clone()],
            vec![(arr.id, !write)],
            Rc::new(|_| {}),
        )
    }

    #[test]
    fn manual_graph_runs_nodes_respecting_deps() {
        let c = ctx();
        let a = c.alloc_f32(16);
        let b = c.alloc_f32(16);
        c.prefetch_async(c.default_stream(), &a);
        c.prefetch_async(c.default_stream(), &b);
        c.device_sync();
        let mut g = CudaGraph::new();
        let n1 = g.add_kernel(kern("k1", &a, 1.0, true), &[]);
        let n2 = g.add_kernel(kern("k2", &b, 1.0, true), &[]);
        let _n3 = g.add_kernel(kern("k3", &a, 1.0, true), &[n1, n2]);
        let done = g.launch(&c);
        c.task_sync(done);
        let tl = c.timeline();
        let k1 = tl.kernels().find(|iv| iv.label == "k1").unwrap();
        let k2 = tl.kernels().find(|iv| iv.label == "k2").unwrap();
        let k3 = tl.kernels().find(|iv| iv.label == "k3").unwrap();
        assert!(k3.start >= k1.end - 1e-12 && k3.start >= k2.end - 1e-12);
        // k1 and k2 are independent: they overlap.
        assert!(k1.start < k2.end && k2.start < k1.end);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn manual_graph_rejects_forward_deps() {
        let c = ctx();
        let a = c.alloc_f32(4);
        let mut g = CudaGraph::new();
        let _ = g.add_kernel(kern("k", &a, 1.0, true), &[GraphNodeId(5)]);
    }

    #[test]
    fn capture_records_instead_of_executing() {
        let c = ctx();
        let a = c.alloc_f32(16);
        c.prefetch_async(c.default_stream(), &a);
        c.device_sync();
        c.clear_timeline();
        c.begin_capture();
        let s1 = c.stream_create();
        assert!(c.launch(s1, &kern("k1", &a, 1.0, true)).is_none());
        let g = c.end_capture();
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(
            c.timeline().kernels().count(),
            0,
            "nothing executed during capture"
        );
        let done = g.launch(&c);
        c.task_sync(done);
        assert_eq!(c.timeline().kernels().count(), 1);
    }

    #[test]
    fn capture_preserves_cross_stream_event_deps() {
        let c = ctx();
        let a = c.alloc_f32(16);
        let b = c.alloc_f32(16);
        c.prefetch_async(c.default_stream(), &a);
        c.prefetch_async(c.default_stream(), &b);
        c.device_sync();
        let s1 = c.stream_create();
        let s2 = c.stream_create();
        c.begin_capture();
        c.launch(s1, &kern("prod", &a, 2.0, true));
        let ev = c.event_record(s1);
        c.stream_wait_event(s2, ev);
        c.launch(s2, &kern("cons", &b, 1.0, true));
        let g = c.end_capture();
        let done = g.launch(&c);
        c.task_sync(done);
        let tl = c.timeline();
        let p = tl.kernels().find(|iv| iv.label == "prod").unwrap();
        let q = tl.kernels().find(|iv| iv.label == "cons").unwrap();
        assert!(q.start >= p.end - 1e-12);
    }

    #[test]
    fn prefetch_is_not_capturable_so_replay_faults() {
        let c = ctx();
        let a = c.alloc_f32(1 << 20);
        c.begin_capture();
        let s1 = c.stream_create();
        assert!(
            c.prefetch_async(s1, &a).is_none(),
            "prefetch cannot be captured"
        );
        c.launch(s1, &kern("k", &a, 1.0, true));
        let g = c.end_capture();
        let done = g.launch(&c);
        c.task_sync(done);
        let tl = c.timeline();
        assert_eq!(
            tl.of_kind(TaskKind::FaultH2D).count(),
            1,
            "replay pays the fault path"
        );
        assert_eq!(tl.of_kind(TaskKind::CopyH2D).count(), 0);
    }

    #[test]
    fn repeated_launches_amortize_instantiation() {
        let c = ctx();
        let a = c.alloc_f32(16);
        c.prefetch_async(c.default_stream(), &a);
        c.device_sync();
        let mut g = CudaGraph::new();
        for _ in 0..8 {
            g.add_kernel(kern("k", &a, 0.01, false), &[]);
        }
        let t0 = c.now();
        let d1 = g.launch(&c);
        c.task_sync(d1);
        let first = c.now() - t0;
        let t1 = c.now();
        let d2 = g.launch(&c);
        c.task_sync(d2);
        let second = c.now() - t1;
        assert!(
            second < first,
            "first launch pays instantiation: {first} vs {second}"
        );
    }

    #[test]
    fn graph_replays_feed_the_block_size_history() {
        // Replays go through the same kernel-submission path as direct
        // launches, so every replayed node leaves a history sample.
        let c = ctx();
        let a = c.alloc_f32(4096);
        c.begin_capture();
        c.launch(c.default_stream(), &kern("k", &a, 0.01, true));
        c.launch(c.default_stream(), &kern("k", &a, 0.01, true));
        let g = c.end_capture();
        assert_eq!(c.calibration(|h| h.history_samples("k")), 0, "captured");
        for replay in 1..=3 {
            let done = g.launch(&c);
            c.task_sync(done);
            c.clear_timeline();
            assert_eq!(c.calibration(|h| h.history_samples("k")), 2 * replay);
        }
        assert_eq!(c.calibration(|h| h.best_block_size("k", 4096)), Some(128));
    }

    #[test]
    fn manual_graph_assigns_first_child_to_parent_stream() {
        let c = ctx();
        let a = c.alloc_f32(16);
        let b = c.alloc_f32(16);
        c.prefetch_async(c.default_stream(), &a);
        c.prefetch_async(c.default_stream(), &b);
        c.device_sync();
        c.clear_timeline();
        let mut g = CudaGraph::new();
        let n1 = g.add_kernel(kern("p", &a, 0.1, true), &[]);
        let _c1 = g.add_kernel(kern("c1", &a, 0.1, false), &[n1]);
        let done = g.launch(&c);
        c.task_sync(done);
        let tl = c.timeline();
        let p = tl.kernels().find(|iv| iv.label == "p").unwrap();
        let c1 = tl.kernels().find(|iv| iv.label == "c1").unwrap();
        assert_eq!(
            p.stream, c1.stream,
            "first child reuses the parent's stream"
        );
    }

    #[test]
    #[should_panic(expected = "capture already in progress")]
    fn nested_capture_panics() {
        let c = ctx();
        c.begin_capture();
        c.begin_capture();
    }

    #[test]
    fn empty_graph_launch_completes_immediately() {
        let c = Cuda::new(DeviceProfile::gtx1660_super());
        let g = CudaGraph::new();
        assert!(g.nodes.is_empty());
        let done = g.launch(&c);
        c.task_sync(done);
        assert_eq!(c.timeline().kernels().count(), 0);
    }

    #[test]
    fn capture_with_no_operations_yields_empty_graph() {
        let c = Cuda::new(DeviceProfile::tesla_p100());
        c.begin_capture();
        let g = c.end_capture();
        assert_eq!(g.nodes.len(), 0);
        let done = g.launch(&c);
        c.task_sync(done);
    }

    #[test]
    fn event_on_empty_captured_stream_is_a_root_join() {
        let c = Cuda::new(DeviceProfile::tesla_p100());
        let a = c.alloc_f32(16);
        let s1 = c.stream_create();
        let s2 = c.stream_create();
        c.begin_capture();
        // Event recorded before anything ran on s1: the wait must not
        // create a bogus dependency.
        let ev = c.event_record(s1);
        c.stream_wait_event(s2, ev);
        let k = KernelExec::new(
            "k",
            gpu_sim::Grid::d1(1, 32),
            gpu_sim::KernelCost {
                min_time: 1e-5,
                ..Default::default()
            },
            vec![a.buf.clone()],
            vec![(a.id, false)],
            std::rc::Rc::new(|_| {}),
        );
        c.launch(s2, &k);
        let g = c.end_capture();
        let done = g.launch(&c);
        c.task_sync(done);
        assert_eq!(c.timeline().kernels().count(), 1);
    }

    #[test]
    fn graph_can_be_launched_from_two_contexts_worth_of_iterations() {
        // Launch the same instantiated graph many times; results and
        // timings stay deterministic.
        let c = Cuda::new(DeviceProfile::gtx960());
        let a = c.alloc_f32(256);
        let mut g = CudaGraph::new();
        let bump = KernelExec::new(
            "bump",
            gpu_sim::Grid::d1(1, 32),
            gpu_sim::KernelCost {
                min_time: 1e-5,
                ..Default::default()
            },
            vec![a.buf.clone()],
            vec![(a.id, false)],
            std::rc::Rc::new(|bufs: &[gpu_sim::DataBuffer]| {
                for v in bufs[0].as_f32_mut().iter_mut() {
                    *v += 1.0;
                }
            }),
        );
        g.add_kernel(bump, &[]);
        for _ in 0..5 {
            let done = g.launch(&c);
            c.task_sync(done);
        }
        assert_eq!(a.buf.as_f32()[0], 5.0);
    }
}
