//! The benchmark's program representation.
//!
//! A [`Plan`] is a host program over managed arrays: a list of
//! *units* (one request each), every unit an instance of a kernel-call
//! *template* surrounded by the host writes and reads the program makes
//! around it. One representation feeds every consumer — the in-situ
//! `GrCuda` executor, the sequential reference interpreter, the CUDA
//! Graphs baseline and the per-layer replays — so they all see exactly
//! the same operation stream. The generated O(1)-kernel programs and
//! the six paper suites both lower to it.

use benchmarks::{BenchSpec, PlanArg, PlanOp};
use gpu_sim::{DataBuffer, TypedData};

/// A host write: copy the array's staging contents to the device array,
/// after setting element 0 to `patch0` (generated programs feed fresh
/// inputs this way; the suites refresh their initial contents).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Write {
    pub array: usize,
    pub patch0: Option<f32>,
}

/// A host read of the first `count` elements of `array`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Read {
    pub array: usize,
    pub count: usize,
}

/// One request of the host program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Unit {
    /// Simulated seconds the host spends on its own work before the
    /// request (clients do not arrive in lockstep).
    pub think_s: f64,
    pub pre_writes: Vec<Write>,
    /// Index into [`Plan::templates`].
    pub template: usize,
    pub post_reads: Vec<Read>,
    pub post_writes: Vec<Write>,
    /// Full device synchronisation after the unit.
    pub sync_after: bool,
}

impl Unit {
    /// Host accesses `(array, is_write)` before the unit's launches.
    pub fn host_before(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        self.pre_writes.iter().map(|w| (w.array, true))
    }

    /// Host accesses `(array, is_write)` after the unit's launches, one
    /// per element read.
    pub fn host_after(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        let reads = self
            .post_reads
            .iter()
            .flat_map(|r| std::iter::repeat_n((r.array, false), r.count));
        reads.chain(self.post_writes.iter().map(|w| (w.array, true)))
    }
}

/// How a unit's launches reach the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submit {
    /// One `launch_batch` per unit.
    Batch,
    /// One `Kernel::launch` per call.
    Serial,
}

/// A host program. `PlanOp::deps` are the intra-template dependencies
/// (what a CUDA Graphs user would write by hand); the `GrCuda` executor
/// ignores them, the scheduler has to rediscover them.
#[derive(Debug, Clone)]
pub struct Plan {
    pub arrays: Vec<TypedData>,
    pub templates: Vec<Vec<PlanOp>>,
    pub units: Vec<Unit>,
    pub submit: Submit,
}

impl Plan {
    /// Kernel launches in the whole program.
    pub fn launches(&self) -> usize {
        self.units
            .iter()
            .map(|u| self.templates[u.template].len())
            .sum()
    }

    /// Host reads plus host writes in the whole program.
    pub fn host_ops(&self) -> usize {
        self.units
            .iter()
            .map(|u| u.pre_writes.len() + u.post_reads.len() + u.post_writes.len())
            .sum()
    }

    /// The program cut after the first unit that brings it to at least
    /// `launches` kernel launches, ending in a full sync: what the
    /// replays and probes run instead of the whole program.
    pub fn head(&self, launches: usize) -> Plan {
        let mut seen = 0;
        let units = self
            .units
            .iter()
            .take_while(|u| {
                let more = seen < launches;
                seen += self.templates[u.template].len();
                more
            })
            .count();
        let mut head = self.first_units(units);
        if let Some(last) = head.units.last_mut() {
            last.sync_after = true;
        }
        head
    }

    /// The program's first `units` units.
    pub fn first_units(&self, units: usize) -> Plan {
        Plan {
            arrays: self.arrays.clone(),
            templates: self.templates.clone(),
            units: self.units[..units].to_vec(),
            submit: self.submit,
        }
    }

    /// FNV-1a over everything that determines the operation stream
    /// (template structure, unit order, written values): equal hashes
    /// mean the runtime is fed the same program.
    pub fn stream_hash(&self) -> u64 {
        let mut h = Fnv::default();
        h.word(self.arrays.len() as u64);
        for a in &self.arrays {
            h.word(a.len() as u64);
            h.word(a.elem_size() as u64);
        }
        for t in &self.templates {
            h.word(t.len() as u64);
            for op in t {
                h.bytes(op.def.name.as_bytes());
                for a in &op.args {
                    match a {
                        PlanArg::Arr(i) => h.word(*i as u64),
                        PlanArg::Scalar(v) => h.word(v.to_bits()),
                    }
                }
            }
        }
        let write = |h: &mut Fnv, w: &Write| {
            h.word(w.array as u64);
            h.word(w.patch0.map_or(u64::MAX, |p| p.to_bits() as u64));
        };
        for u in &self.units {
            h.word(u.think_s.to_bits());
            h.word(u.template as u64);
            u.pre_writes.iter().for_each(|w| write(&mut h, w));
            for r in &u.post_reads {
                h.word(r.array as u64);
                h.word(r.count as u64);
            }
            u.post_writes.iter().for_each(|w| write(&mut h, w));
            h.word(u.sync_after as u64);
        }
        h.word(matches!(self.submit, Submit::Batch) as u64);
        h.0
    }

    /// Lower one iteration of a paper suite: refresh the streaming
    /// inputs, launch every op serially, read the outputs, synchronise
    /// — what `benchmarks::run_grcuda` does per iteration.
    pub fn from_spec(spec: &BenchSpec) -> Plan {
        let refresh = spec
            .arrays
            .iter()
            .enumerate()
            .filter(|(_, a)| a.refresh_each_iter)
            .map(|(array, _)| Write {
                array,
                patch0: None,
            })
            .collect();
        Plan {
            arrays: spec.arrays.iter().map(|a| a.init.clone()).collect(),
            templates: vec![spec.ops.clone()],
            units: vec![Unit {
                think_s: 0.0,
                pre_writes: refresh,
                template: 0,
                post_reads: spec
                    .outputs
                    .iter()
                    .map(|&(array, count)| Read { array, count })
                    .collect(),
                post_writes: Vec::new(),
                sync_after: true,
            }],
            submit: Submit::Serial,
        }
    }
}

#[derive(Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// Apply a host write to a staging copy of the array.
pub fn stage_write(stage: &mut TypedData, w: &Write) {
    if let (TypedData::F32(v), Some(p)) = (stage, w.patch0) {
        v[0] = p;
    }
}

/// Element `i` of typed data, widened to `f64` bits (reads are compared
/// bit for bit).
pub fn elem_bits(d: &TypedData, i: usize) -> u64 {
    match d {
        TypedData::F32(v) => (v[i] as f64).to_bits(),
        TypedData::F64(v) => v[i].to_bits(),
        TypedData::I32(v) => (v[i] as f64).to_bits(),
        TypedData::U8(v) => (v[i] as f64).to_bits(),
    }
}

/// What a correct execution of a plan observes.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Every value a host read returns, in program order.
    pub reads: Vec<u64>,
    /// Final contents of every array.
    pub arrays: Vec<TypedData>,
}

/// The sequential reference interpreter: run the plan on host buffers
/// in program order, one kernel function at a time, with no scheduler,
/// no simulator and no device. Every execution mode must agree with it
/// bit for bit.
pub fn reference(plan: &Plan) -> Expected {
    let buffers: Vec<DataBuffer> = plan
        .arrays
        .iter()
        .map(|a| DataBuffer::new(a.clone()))
        .collect();
    let mut stage = plan.arrays.clone();
    let mut reads = Vec::new();
    let write = |stage: &mut Vec<TypedData>, w: &Write| {
        stage_write(&mut stage[w.array], w);
        *buffers[w.array].data_mut() = stage[w.array].clone();
    };
    for u in &plan.units {
        u.pre_writes.iter().for_each(|w| write(&mut stage, w));
        for op in &plan.templates[u.template] {
            let mut bufs = Vec::new();
            let mut scalars = Vec::new();
            for a in &op.args {
                match a {
                    PlanArg::Arr(i) => bufs.push(buffers[*i].clone()),
                    PlanArg::Scalar(v) => scalars.push(*v),
                }
            }
            (op.def.func)(&bufs, &scalars);
        }
        for r in &u.post_reads {
            let data = buffers[r.array].data();
            reads.extend((0..r.count).map(|i| elem_bits(&data, i)));
        }
        u.post_writes.iter().for_each(|w| write(&mut stage, w));
    }
    Expected {
        reads,
        arrays: buffers.iter().map(|b| b.data().clone()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::okernels::{JOIN2, TOUCH};
    use gpu_sim::Grid;

    fn op(def: &'static kernels::KernelDef, arrays: &[usize]) -> PlanOp {
        let mut args: Vec<PlanArg> = arrays.iter().map(|a| PlanArg::Arr(*a)).collect();
        args.push(PlanArg::Scalar(4.0));
        PlanOp {
            def,
            grid: Grid::d1(1, 32),
            args,
            stream: 0,
            deps: vec![],
        }
    }

    fn tiny_plan() -> Plan {
        Plan {
            arrays: vec![TypedData::F32(vec![1.0, 9.0, 9.0, 9.0]); 3],
            templates: vec![vec![op(&TOUCH, &[0, 1]), op(&JOIN2, &[0, 1, 2])]],
            units: vec![
                Unit {
                    pre_writes: vec![Write {
                        array: 0,
                        patch0: Some(2.0),
                    }],
                    template: 0,
                    post_reads: vec![Read { array: 2, count: 1 }],
                    ..Unit::default()
                },
                Unit {
                    template: 0,
                    post_reads: vec![Read { array: 1, count: 2 }],
                    post_writes: vec![Write {
                        array: 0,
                        patch0: Some(5.0),
                    }],
                    sync_after: true,
                    ..Unit::default()
                },
            ],
            submit: Submit::Batch,
        }
    }

    #[test]
    fn reference_follows_program_order() {
        let e = reference(&tiny_plan());
        // touch(2) = 7, join2(2, 7) = 10 + 49 + 3 = 62.
        let f = |x: f64| x.to_bits();
        assert_eq!(e.reads, vec![f(62.0), f(7.0), f(9.0)]);
        assert_eq!(e.arrays[0], TypedData::F32(vec![5.0, 9.0, 9.0, 9.0]));
        assert_eq!(e.arrays[2], TypedData::F32(vec![62.0, 9.0, 9.0, 9.0]));
    }

    #[test]
    fn hash_sees_structure_order_and_values() {
        let base = tiny_plan();
        assert_eq!(base.stream_hash(), tiny_plan().stream_hash());
        let mut p = tiny_plan();
        p.units.swap(0, 1);
        assert_ne!(p.stream_hash(), base.stream_hash());
        let mut p = tiny_plan();
        p.units[0].pre_writes[0].patch0 = Some(3.0);
        assert_ne!(p.stream_hash(), base.stream_hash());
        let mut p = tiny_plan();
        p.templates[0][0].args[1] = PlanArg::Arr(2);
        assert_ne!(p.stream_hash(), base.stream_hash());
        assert_eq!(base.launches(), 4);
        assert_eq!(base.host_ops(), 4);
    }

    #[test]
    fn head_cuts_at_the_launch_budget_and_syncs() {
        let p = tiny_plan();
        assert_eq!(p.head(1).units.len(), 1);
        assert!(p.head(1).units[0].sync_after);
        assert_eq!(p.head(3).launches(), 4);
        assert_eq!(p.head(1000).units, p.units);
    }

    #[test]
    fn suites_lower_to_one_serial_unit() {
        let spec = benchmarks::Bench::Vec.build(512);
        let plan = Plan::from_spec(&spec);
        assert_eq!(plan.launches(), spec.ops.len());
        assert_eq!(plan.submit, Submit::Serial);
        let e = reference(&plan);
        assert_eq!(
            e.arrays,
            benchmarks::runners::reference_after_iters(&spec, 1)
        );
    }
}
