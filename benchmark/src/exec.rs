//! The in-situ executor: run a [`Plan`] through a `GrCuda` runtime the
//! way a host program would, with a span around every call into the
//! runtime.

use std::rc::Rc;
use std::time::Instant;

use benchmarks::PlanArg;
use gpu_sim::TypedData;
use grcuda::{Arg, BatchLaunch, DeviceArray, GrCuda, Kernel};

use crate::plan::{stage_write, Expected, Plan, Read, Submit, Write};
use crate::trace::{Name, Tracer};

/// Requests between timeline resets in programs that never fully
/// synchronise: the timeline is the one recording surface of the
/// runtime that grows until it is cleared.
const CLEAR_TIMELINE_EVERY: usize = 1024;

/// A plan bound to a runtime: arrays allocated and filled, kernels
/// built, argument lists assembled. Building one is the set-up cost of
/// a round.
pub struct Bound {
    plan: Rc<Plan>,
    pub g: GrCuda,
    arrays: Vec<DeviceArray>,
    /// `calls[template][op]`.
    calls: Vec<Vec<(Kernel, gpu_sim::Grid, Vec<Arg>)>>,
    stage: Vec<TypedData>,
}

fn alloc(g: &GrCuda, init: &TypedData) -> DeviceArray {
    let a = match init {
        TypedData::F32(v) => g.array_f32(v.len()),
        TypedData::F64(v) => g.array_f64(v.len()),
        TypedData::I32(v) => g.array_i32(v.len()),
        TypedData::U8(v) => g.array_u8(v.len()),
    };
    copy_in(&a, init);
    a
}

fn copy_in(a: &DeviceArray, data: &TypedData) {
    match data {
        TypedData::F32(v) => a.copy_from_f32(v),
        TypedData::F64(v) => a.copy_from_f64(v),
        TypedData::I32(v) => a.copy_from_i32(v),
        TypedData::U8(v) => a.copy_from_u8(v),
    }
}

fn read_elem(a: &DeviceArray, init: &TypedData, i: usize) -> u64 {
    match init {
        TypedData::F32(_) => (a.get_f32(i) as f64).to_bits(),
        TypedData::F64(_) => a.get_f64(i).to_bits(),
        TypedData::I32(_) => (a.get_i32(i) as f64).to_bits(),
        TypedData::U8(_) => (a.get_u8(i) as f64).to_bits(),
    }
}

impl Bound {
    /// Allocate, fill and build everything `plan` needs on `g`.
    pub fn new(plan: Rc<Plan>, g: GrCuda) -> Self {
        let arrays: Vec<DeviceArray> = plan.arrays.iter().map(|a| alloc(&g, a)).collect();
        let mut built: Vec<(&'static str, Kernel)> = Vec::new();
        let calls = plan
            .templates
            .iter()
            .map(|t| {
                t.iter()
                    .map(|op| {
                        let kernel = match built.iter().find(|(n, _)| *n == op.def.name) {
                            Some((_, k)) => k.clone(),
                            None => {
                                let k = g.build_kernel(op.def).expect("benchmark signatures parse");
                                built.push((op.def.name, k.clone()));
                                k
                            }
                        };
                        let args = op
                            .args
                            .iter()
                            .map(|a| match a {
                                PlanArg::Arr(i) => Arg::array(&arrays[*i]),
                                PlanArg::Scalar(v) => Arg::scalar(*v),
                            })
                            .collect();
                        (kernel, op.grid, args)
                    })
                    .collect()
            })
            .collect();
        Bound {
            stage: plan.arrays.clone(),
            plan,
            g,
            arrays,
            calls,
        }
    }

    fn write(&mut self, tr: &mut Tracer, w: &Write) {
        stage_write(&mut self.stage[w.array], w);
        let s = tr.begin(Name::HostWrite);
        copy_in(&self.arrays[w.array], &self.stage[w.array]);
        tr.end(s);
    }

    fn read(&self, tr: &mut Tracer, r: &Read, out: &mut Vec<u64>) {
        for i in 0..r.count {
            let s = tr.begin(Name::HostRead);
            let bits = read_elem(&self.arrays[r.array], &self.plan.arrays[r.array], i);
            tr.end(s);
            out.push(bits);
        }
    }

    /// Run the whole plan. Request host times and simulated latencies
    /// are appended to `samples`.
    pub fn run(&mut self, tr: &mut Tracer, samples: &mut Samples) -> Outcome {
        let plan = Rc::clone(&self.plan);
        let mut out = Outcome {
            reads: Vec::with_capacity(plan.host_ops()),
            ..Outcome::default()
        };
        let v_start = self.g.now();
        for (i, u) in plan.units.iter().enumerate() {
            tr.request = i as u32;
            let (t0, v0) = (Instant::now(), self.g.now());
            if u.think_s > 0.0 {
                self.g.host_spin(u.think_s);
            }
            for w in &u.pre_writes {
                self.write(tr, w);
            }
            let calls = &self.calls[u.template];
            match plan.submit {
                Submit::Batch => {
                    let batch: Vec<BatchLaunch<'_>> = calls
                        .iter()
                        .map(|(kernel, grid, args)| BatchLaunch {
                            kernel,
                            grid: *grid,
                            args,
                        })
                        .collect();
                    let s = tr.begin(Name::Submit);
                    let res = self.g.launch_batch(&batch);
                    tr.end(s);
                    out.batches += 1;
                    if res.is_err() {
                        out.failed += batch.len();
                    }
                }
                Submit::Serial => {
                    // One span for the chain's back-to-back launches: a
                    // span per call would cost a tenth of the call.
                    let s = tr.begin(Name::Submit);
                    for (kernel, grid, args) in calls {
                        out.failed += kernel.launch(*grid, args).is_err() as usize;
                    }
                    tr.end(s);
                }
            }
            out.launches += calls.len();
            for r in &u.post_reads {
                self.read(tr, r, &mut out.reads);
            }
            for w in &u.post_writes {
                self.write(tr, w);
            }
            if u.sync_after {
                let s = tr.begin(Name::Sync);
                self.g.sync();
                self.g.clear_timeline();
                tr.end(s);
            } else if (i + 1) % CLEAR_TIMELINE_EVERY == 0 {
                let s = tr.begin(Name::Sync);
                self.g.clear_timeline();
                tr.end(s);
            }
            samples.wall_ns.push(t0.elapsed().as_nanos() as f64);
            samples.virtual_s.push(self.g.now() - v0);
        }
        out.virtual_s = self.g.now() - v_start;
        out
    }

    /// Launches plus host reads and writes of the plan.
    pub fn operations(&self) -> usize {
        self.plan.launches() + self.plan.host_ops()
    }

    /// Compare what the run observed with the sequential reference.
    /// Returns the number of mismatching reads and arrays.
    pub fn mismatches(&self, out: &Outcome, want: &Expected) -> usize {
        let reads = if out.reads.len() == want.reads.len() {
            out.reads
                .iter()
                .zip(&want.reads)
                .filter(|(a, b)| a != b)
                .count()
        } else {
            out.reads.len().max(want.reads.len())
        };
        let arrays = self
            .arrays
            .iter()
            .zip(&want.arrays)
            .filter(|(a, w)| *a.raw_buffer().data() != **w)
            .count();
        reads + arrays
    }
}

/// What one execution of a plan did.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub launches: usize,
    pub batches: usize,
    /// Launches the runtime refused.
    pub failed: usize,
    /// Values the host reads returned, in program order.
    pub reads: Vec<u64>,
    /// Simulated time from the first request to the end of the last.
    pub virtual_s: f64,
}

/// Per-request samples pooled over rounds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Host nanoseconds per request.
    pub wall_ns: Vec<f64>,
    /// Simulated seconds per request.
    pub virtual_s: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, plan};
    use gpu_sim::DeviceProfile;
    use grcuda::Options;

    fn run(p: &Rc<Plan>, options: Options) -> (Outcome, usize, usize) {
        let mut bound = Bound::new(p.clone(), GrCuda::new(DeviceProfile::tesla_p100(), options));
        let out = bound.run(&mut Tracer::new(false), &mut Samples::default());
        let wrong = bound.mismatches(&out, &plan::reference(p));
        let races = bound.g.races().len();
        (out, wrong, races)
    }

    #[test]
    fn same_seed_means_identical_simulated_metrics_and_correct_values() {
        for p in [
            gen::pipeline(9, 12, 256),
            gen::interactive(9, 3),
            gen::tenants(9, 6),
            gen::fork_join(9, 6, 4),
        ] {
            let p = Rc::new(p);
            let (a, wrong, races) = run(&p, Options::parallel());
            let (b, ..) = run(&p, Options::parallel());
            assert_eq!((wrong, races, a.failed), (0, 0, 0));
            assert_eq!(a.virtual_s.to_bits(), b.virtual_s.to_bits());
            assert_eq!(a.reads, b.reads);
            assert_eq!(a.launches, p.launches());
            // The serial scheduler computes the same values, later.
            let (s, wrong, races) = run(&p, Options::serial());
            assert_eq!((wrong, races), (0, 0));
            assert_eq!(s.reads, a.reads);
            assert!(s.virtual_s > a.virtual_s);
        }
    }

    #[test]
    fn a_different_seed_is_a_different_run() {
        let a = run(&Rc::new(gen::pipeline(1, 12, 256)), Options::parallel()).0;
        let b = run(&Rc::new(gen::pipeline(2, 12, 256)), Options::parallel()).0;
        assert_ne!(a.reads, b.reads);
        assert_ne!(a.virtual_s.to_bits(), b.virtual_s.to_bits());
    }

    #[test]
    fn a_wrong_value_is_a_mismatch() {
        let p = Rc::new(gen::interactive(4, 2));
        let mut bound = Bound::new(
            p.clone(),
            GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel()),
        );
        let mut out = bound.run(&mut Tracer::new(false), &mut Samples::default());
        let want = plan::reference(&p);
        assert_eq!(bound.mismatches(&out, &want), 0);
        out.reads[3] ^= 1;
        assert_eq!(bound.mismatches(&out, &want), 1);
        out.reads.pop();
        assert!(bound.mismatches(&out, &want) >= out.reads.len());
    }
}
