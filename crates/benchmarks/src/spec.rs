//! Device-agnostic benchmark plans.

use gpu_sim::{DataBuffer, Grid, TypedData};
use grcuda::Signature;
use kernels::KernelDef;

/// One managed array of a benchmark.
#[derive(Debug, Clone)]
pub struct ArraySpec {
    /// Display name (`X`, `blur_small`, ...).
    pub name: &'static str,
    /// Deterministic initial contents.
    pub init: TypedData,
    /// True for streaming inputs re-written by the host every iteration
    /// ("each iteration has new input data", VEC/B&S).
    pub refresh_each_iter: bool,
}

impl ArraySpec {
    /// Size in bytes.
    pub(crate) fn byte_len(&self) -> usize {
        self.init.byte_len()
    }
}

/// A launch argument inside a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanArg {
    /// Index into [`BenchSpec::arrays`].
    Arr(usize),
    /// A scalar by copy.
    Scalar(f64),
}

/// One kernel launch of the plan.
#[derive(Debug, Clone)]
pub struct PlanOp {
    /// The kernel to launch.
    pub def: &'static KernelDef,
    /// Launch configuration. Built with the benchmark's default block
    /// size; [`BenchSpec::with_block_size`] rebuilds the plan for the
    /// block-size sweeps of Fig. 7.
    pub grid: Grid,
    /// Arguments in signature order.
    pub args: Vec<PlanArg>,
    /// The paper's Fig. 6 stream assignment (used by the hand-tuned and
    /// capture baselines; ignored by the GrCUDA scheduler).
    pub stream: usize,
    /// Explicit dependencies on earlier ops (used by the hand-tuned
    /// events and manual-graph baselines; the GrCUDA scheduler must
    /// *infer* these).
    pub deps: Vec<usize>,
}

/// A host read that ends an iteration: `(array index, number of
/// elements read)` — e.g. VEC's `res = Z[0]`.
type OutputRead = (usize, usize);

/// A complete benchmark description.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    /// Benchmark name.
    pub name: &'static str,
    /// Managed arrays.
    pub arrays: Vec<ArraySpec>,
    /// Kernel launches in program order.
    pub ops: Vec<PlanOp>,
    /// Host reads performed at the end of each iteration.
    pub outputs: Vec<OutputRead>,
    /// Scale the spec was built at.
    pub scale: usize,
}

impl BenchSpec {
    /// Total unified-memory footprint (the Table I quantity).
    pub fn footprint_bytes(&self) -> usize {
        self.arrays.iter().map(|a| a.byte_len()).sum()
    }

    /// Rebuild the plan with a different 1-D block size where the op
    /// uses a 1-D grid (the Fig. 7 block-size sweep; 2-D/3-D launches
    /// keep the paper's fixed 8×8 / 4×4×4 blocks).
    pub fn with_block_size(mut self, threads: u32) -> Self {
        for op in &mut self.ops {
            let g = op.grid;
            if g.threads.1 == 1 && g.threads.2 == 1 && g.blocks.1 == 1 && g.blocks.2 == 1 {
                op.grid = Grid::d1(g.blocks.0, threads);
            }
        }
        self
    }

    /// Sanity-check structural invariants: argument indices in range,
    /// dependencies acyclic (point backwards), argument counts match the
    /// kernels' NIDL arity.
    pub fn check_well_formed(&self) -> Result<(), String> {
        for (i, op) in self.ops.iter().enumerate() {
            for a in &op.args {
                if let PlanArg::Arr(k) = a {
                    if *k >= self.arrays.len() {
                        return Err(format!("{}: op {i} references array {k}", self.name));
                    }
                }
            }
            for d in &op.deps {
                if *d >= i {
                    return Err(format!("{}: op {i} depends forward on {d}", self.name));
                }
            }
            let arrays = op
                .args
                .iter()
                .filter(|a| matches!(a, PlanArg::Arr(_)))
                .count();
            let sig = Signature::parse(op.def.nidl)
                .map_err(|e| format!("{}: op {i} ({}): {e}", self.name, op.def.name))?;
            let passed = (arrays, op.args.len() - arrays);
            let wanted = (sig.pointer_count(), sig.scalar_count());
            if passed != wanted {
                return Err(format!(
                    "{}: op {i} ({}) passes {passed:?} (arrays, scalars), signature wants {wanted:?}",
                    self.name, op.def.name
                ));
            }
        }
        for (k, n) in &self.outputs {
            if *k >= self.arrays.len() {
                return Err(format!("{}: output array {k} out of range", self.name));
            }
            if *n == 0 {
                return Err(format!("{}: zero-length output read", self.name));
            }
        }
        Ok(())
    }

    /// Split an op's arguments into buffers and scalars against a
    /// concrete buffer set.
    pub fn op_inputs(&self, op: &PlanOp, buffers: &[DataBuffer]) -> (Vec<DataBuffer>, Vec<f64>) {
        let mut bufs = Vec::new();
        let mut scalars = Vec::new();
        for a in &op.args {
            match a {
                PlanArg::Arr(k) => bufs.push(buffers[*k].clone()),
                PlanArg::Scalar(v) => scalars.push(*v),
            }
        }
        (bufs, scalars)
    }

    /// Number of distinct streams the plan's hand coloring uses.
    pub fn planned_streams(&self) -> usize {
        let mut s: Vec<usize> = self.ops.iter().map(|o| o.stream).collect();
        s.sort_unstable();
        s.dedup();
        s.len()
    }
}

/// Deterministic xorshift data generator for benchmark inputs.
pub(crate) struct DataGen {
    state: u64,
}

impl DataGen {
    /// Seeded generator.
    pub(crate) fn new(seed: u64) -> Self {
        DataGen {
            state: seed.wrapping_mul(0x9E3779B97F4A7C15) | 1,
        }
    }

    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    /// Uniform f64 in `[lo, hi)`.
    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Uniform f32 in `[lo, hi)`.
    fn f32(&mut self, lo: f32, hi: f32) -> f32 {
        self.f64(lo as f64, hi as f64) as f32
    }

    /// A vector of uniform f32.
    pub(crate) fn f32_vec(&mut self, n: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..n).map(|_| self.f32(lo, hi)).collect()
    }

    /// A vector of uniform f64.
    pub(crate) fn f64_vec(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| self.f64(lo, hi)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runners::reference_after_iters;
    use kernels::util::SCALE;

    fn tiny_spec() -> BenchSpec {
        BenchSpec {
            name: "T",
            arrays: vec![
                ArraySpec {
                    name: "x",
                    init: TypedData::F32(vec![1.0, 2.0]),
                    refresh_each_iter: false,
                },
                ArraySpec {
                    name: "y",
                    init: TypedData::F32(vec![0.0, 0.0]),
                    refresh_each_iter: false,
                },
            ],
            ops: vec![PlanOp {
                def: &SCALE,
                grid: Grid::d1(1, 32),
                args: vec![
                    PlanArg::Arr(0),
                    PlanArg::Arr(1),
                    PlanArg::Scalar(2.0),
                    PlanArg::Scalar(2.0),
                ],
                stream: 0,
                deps: vec![],
            }],
            outputs: vec![(1, 1)],
            scale: 2,
        }
    }

    #[test]
    fn footprint_sums_arrays() {
        assert_eq!(tiny_spec().footprint_bytes(), 16);
    }

    #[test]
    fn reference_executes_plan() {
        let s = tiny_spec();
        let final_state = reference_after_iters(&s, 1);
        assert_eq!(final_state[1], TypedData::F32(vec![2.0, 4.0]));
        // Initial specs untouched.
        assert_eq!(s.arrays[1].init, TypedData::F32(vec![0.0, 0.0]));
    }

    #[test]
    fn well_formed_catches_bad_indices() {
        let mut s = tiny_spec();
        s.check_well_formed().unwrap();
        s.outputs = vec![(9, 1)];
        assert!(s.check_well_formed().is_err());
    }

    #[test]
    fn well_formed_counts_arguments_against_the_parsed_signature() {
        // One scalar short, then a scalar where an array belongs.
        let mut s = tiny_spec();
        s.ops[0].args.pop();
        assert!(s.check_well_formed().unwrap_err().contains("scale"));
        let mut s = tiny_spec();
        s.ops[0].args[1] = PlanArg::Scalar(0.0);
        assert!(s.check_well_formed().is_err());
    }

    #[test]
    fn well_formed_catches_forward_deps() {
        let mut s = tiny_spec();
        s.ops[0].deps = vec![0];
        assert!(s.check_well_formed().is_err());
    }

    #[test]
    fn block_size_rebuild_touches_1d_only() {
        let s = tiny_spec().with_block_size(1024);
        assert_eq!(s.ops[0].grid.threads.0, 1024);
    }

    #[test]
    fn datagen_is_deterministic_and_in_range() {
        let mut a = DataGen::new(7);
        let mut b = DataGen::new(7);
        for _ in 0..100 {
            let x = a.f64(-1.0, 3.0);
            assert_eq!(x, b.f64(-1.0, 3.0));
            assert!((-1.0..3.0).contains(&x));
        }
    }
}
