//! Kernel execution descriptors.

use std::rc::Rc;

use gpu_sim::{DataBuffer, Grid, KernelBody, KernelCost, KernelFunc, ValueId};

/// Everything needed to execute one kernel launch: the launch
/// configuration, the analytic cost, the argument buffers (for the
/// functional CPU implementation) and the per-argument access modes (for
/// dependency tracking, residency management and race detection).
///
/// `KernelExec` is cloneable so CUDA Graphs can replay the same launch
/// many times; the functional implementation is shared behind an `Rc`.
/// It owns its parts; a [`Launch`] is the same launch borrowed, which
/// is what the context takes.
#[derive(Clone)]
pub struct KernelExec {
    /// Kernel name (timeline label).
    pub name: &'static str,
    /// Launch configuration.
    pub grid: Grid,
    /// Device-independent work description.
    pub cost: KernelCost,
    /// Argument buffers, passed to `func` in order.
    pub buffers: Vec<DataBuffer>,
    /// Per-argument `(value, read_only)` access modes, index-aligned
    /// with `buffers`.
    pub accesses: Vec<(ValueId, bool)>,
    /// The functional implementation: runs on the host data when the
    /// simulated kernel completes.
    pub func: KernelFunc,
}

impl std::fmt::Debug for KernelExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelExec")
            .field("name", &self.name)
            .field("grid", &self.grid)
            .field("cost", &self.cost)
            .field("args", &self.accesses.len())
            .finish()
    }
}

impl KernelExec {
    /// Build a launch descriptor. `accesses` must be index-aligned with
    /// `buffers`.
    pub fn new(
        name: &'static str,
        grid: Grid,
        cost: KernelCost,
        buffers: Vec<DataBuffer>,
        accesses: Vec<(ValueId, bool)>,
        func: KernelFunc,
    ) -> Self {
        assert_eq!(
            buffers.len(),
            accesses.len(),
            "buffers/accesses must be aligned"
        );
        KernelExec {
            name,
            grid,
            cost,
            buffers,
            accesses,
            func,
        }
    }
}

/// One kernel launch, borrowed from whoever assembled it: the form
/// [`crate::Cuda::launch`] and its variants take, so a caller that
/// launches from retained buffers (the grcuda scheduler) builds no
/// owned descriptor per launch. `&KernelExec` converts into it.
#[derive(Clone)]
pub struct Launch<'a> {
    /// Kernel name (timeline label).
    pub name: &'static str,
    /// Launch configuration.
    pub grid: Grid,
    /// Device-independent work description.
    pub cost: KernelCost,
    /// Argument buffers, passed to `body` in order.
    pub buffers: &'a [DataBuffer],
    /// Per-argument `(value, read_only)` access modes, index-aligned
    /// with `buffers`.
    pub accesses: &'a [(ValueId, bool)],
    /// The functional implementation: runs on the host data when the
    /// simulated kernel completes.
    pub body: KernelBody,
    /// Scalar arguments handed to a [`KernelBody::Fn`] body.
    pub scalars: &'a [f64],
}

impl<'a> From<&'a KernelExec> for Launch<'a> {
    fn from(exec: &'a KernelExec) -> Self {
        Launch {
            name: exec.name,
            grid: exec.grid,
            cost: exec.cost,
            buffers: &exec.buffers,
            accesses: &exec.accesses,
            body: KernelBody::Shared(Rc::clone(&exec.func)),
            scalars: &[],
        }
    }
}

impl Launch<'_> {
    /// An owned copy, for launches recorded into a graph during stream
    /// capture.
    pub(crate) fn to_exec(&self) -> KernelExec {
        let func: KernelFunc = match &self.body {
            KernelBody::Shared(f) => Rc::clone(f),
            KernelBody::Fn(f) => {
                let (f, scalars) = (*f, self.scalars.to_vec());
                Rc::new(move |buffers: &[DataBuffer]| f(buffers, &scalars))
            }
        };
        KernelExec::new(
            self.name,
            self.grid,
            self.cost,
            self.buffers.to_vec(),
            self.accesses.to_vec(),
            func,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_executes_functional_impl() {
        let c = crate::Cuda::new(gpu_sim::DeviceProfile::tesla_p100());
        let a = c.alloc_f32(2);
        let k = KernelExec::new(
            "fill",
            Grid::d1(1, 32),
            KernelCost::default(),
            vec![a.buf.clone()],
            vec![(a.id, false)],
            Rc::new(|bufs: &[DataBuffer]| {
                for x in bufs[0].as_f32_mut().iter_mut() {
                    *x = 9.0;
                }
            }),
        );
        // The owned descriptor and a borrowed launch with a plain
        // function and scalars run the same way, once each.
        c.launch(c.default_stream(), &k);
        c.device_sync();
        assert_eq!(*a.buf.as_f32(), vec![9.0, 9.0]);
        let add: fn(&[DataBuffer], &[f64]) = |bufs, scalars| {
            for x in bufs[0].as_f32_mut().iter_mut() {
                *x += scalars[0] as f32;
            }
        };
        let launch = Launch {
            body: KernelBody::Fn(add),
            scalars: &[0.5],
            ..Launch::from(&k)
        };
        // A captured launch keeps its scalars when it is replayed.
        c.begin_capture();
        assert!(c.launch(c.default_stream(), launch.clone()).is_none());
        let graph = c.end_capture();
        c.launch(c.default_stream(), launch);
        let done = graph.launch(&c);
        c.task_sync(done);
        c.device_sync();
        assert_eq!(*a.buf.as_f32(), vec![10.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_accesses_panic() {
        let b = DataBuffer::f32_zeros(1);
        let _ = KernelExec::new(
            "k",
            Grid::d1(1, 32),
            KernelCost::default(),
            vec![b],
            vec![],
            Rc::new(|_| {}),
        );
    }
}
