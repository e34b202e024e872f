//! The runs the paper's figures share: which devices, which scales, and
//! every benchmark execution of this process, done once.
//!
//! Figs. 1, 7–12 and the ablation ask for overlapping sets of the same
//! (input, device, strategy) executions — the parallel scheduler's run
//! of ML on the GTX 1660 Super alone is read by six of them. [`run`]
//! keeps a per-process table, so a figure names the run it wants and
//! pays for it only if no earlier figure did (`--smoke`: 343 runs asked
//! for, 204 executed).
//!
//! This module is also where the measurement rule is applied: every run
//! is [`ITERS`] iterations, validated and race-free, and a figure reads
//! [`steady`] (with the cold time beside it where the difference is
//! the point). `docs/FIDELITY.md` has the why.

use std::cell::RefCell;
use std::rc::Rc;

use bench::{geomean, round_sig};
use benchmarks::{
    default_scale, run_graph_capture, run_graph_manual, run_grcuda, run_handtuned, Bench,
    BenchSpec, RunResult,
};
use gpu_sim::DeviceProfile;
use grcuda::Options;

use crate::metric::Metrics;

/// Iterations per run: a cold one, then the steady state. The simulator
/// is deterministic and iterations from the second on are identical.
const ITERS: usize = 2;

/// A device of the evaluation as metric keys spell it.
pub fn dev_key(dev: &DeviceProfile) -> &'static str {
    match dev.name.as_str() {
        "GTX 960" => "gtx960",
        "GTX 1660 Super" => "gtx1660",
        "Tesla P100" => "p100",
        other => panic!("`{other}` is not one of the paper's devices"),
    }
}

/// A benchmark's name as metric keys spell it (`vec`, `bs`, ...).
pub fn bench_key(b: Bench) -> String {
    b.name().to_lowercase().replace('&', "")
}

/// A benchmark input: the suite, its scale, and the 1-D block size when
/// Fig. 7's block sweep overrides the plan's.
#[derive(Clone, Copy, PartialEq)]
pub struct Input {
    /// Which benchmark.
    pub bench: Bench,
    /// Its scale (the figure's x-axis).
    pub scale: usize,
    /// `Some` to rebuild the plan with this block size.
    pub block: Option<u32>,
}

impl Input {
    /// The middle scale of the sweep: what Figs. 1, 10–12 and the
    /// ablation measure, and all a smoke run measures.
    pub fn middle(bench: Bench) -> Self {
        Input {
            bench,
            scale: default_scale(bench),
            block: None,
        }
    }

    /// Build the plan, checked for well-formedness. The last one built
    /// is kept: a figure asks for the same input under several
    /// strategies in a row, and the large ones take longer to generate
    /// than to run.
    pub fn spec(self) -> Rc<BenchSpec> {
        thread_local!(static LAST: RefCell<Option<(Input, Rc<BenchSpec>)>> = const { RefCell::new(None) });
        LAST.with_borrow_mut(|last| {
            if let Some((_, spec)) = last.as_ref().filter(|(input, _)| *input == self) {
                return spec.clone();
            }
            let mut spec = self.bench.build(self.scale);
            if let Some(threads) = self.block {
                spec = spec.with_block_size(threads);
            }
            spec.check_well_formed().unwrap_or_else(|e| panic!("{e}"));
            let spec = Rc::new(spec);
            *last = Some((self, spec.clone()));
            spec
        })
    }
}

/// The sweep every figure walks: devices × benchmarks × scales — all
/// five, or at `smoke` the middle one — in figure order.
pub fn sweep(devices: &[DeviceProfile], smoke: bool) -> Vec<(&DeviceProfile, Input)> {
    let mut points = Vec::new();
    for dev in devices {
        for bench in Bench::ALL {
            let all = benchmarks::sweep(bench);
            let picks = if smoke { &all[2..3] } else { &all[..] };
            let at = |&scale| Input {
                scale,
                ..Input::middle(bench)
            };
            points.extend(picks.iter().map(|scale| (dev, at(scale))));
        }
    }
    points
}

/// The execution strategies of the evaluation.
#[derive(Clone, Copy, PartialEq)]
pub enum Strategy {
    /// The GrCUDA runtime: the serial scheduler, the paper's, or an
    /// ablation of it.
    GrCuda(Options),
    /// CUDA Graphs with manual dependencies.
    GraphManual,
    /// CUDA Graphs by stream capture.
    GraphCapture,
    /// Hand-tuned streams, events and prefetches.
    HandTuned,
    /// Fig. 1's serial C++: the same plan on one stream, no prefetch.
    SerialCuda,
}

impl Strategy {
    /// The serial GrCUDA scheduler (Fig. 7's denominator).
    pub fn serial() -> Self {
        Strategy::GrCuda(Options::serial())
    }

    /// The paper's scheduler.
    pub fn parallel() -> Self {
        Strategy::GrCuda(Options::parallel())
    }

    fn execute(self, spec: &BenchSpec, dev: &DeviceProfile) -> RunResult {
        match self {
            Strategy::GrCuda(options) => run_grcuda(spec, dev, options, ITERS),
            Strategy::GraphManual => run_graph_manual(spec, dev, ITERS),
            Strategy::GraphCapture => run_graph_capture(spec, dev, ITERS),
            Strategy::HandTuned => run_handtuned(spec, dev, true, ITERS),
            Strategy::SerialCuda => {
                let mut serial = spec.clone();
                serial.ops.iter_mut().for_each(|op| op.stream = 0);
                run_handtuned(&serial, dev, false, ITERS)
            }
        }
    }
}

/// `input` on `dev` under `how`: validated, race-free, executed at most
/// once per process.
pub fn run(input: Input, dev: &DeviceProfile, how: Strategy) -> Rc<RunResult> {
    type Executed = ((Input, &'static str, Strategy), Rc<RunResult>);
    thread_local!(static EXECUTED: RefCell<Vec<Executed>> = const { RefCell::new(Vec::new()) });
    let key = (input, dev_key(dev), how);
    let known = EXECUTED.with_borrow(|runs| {
        let hit = runs.iter().find(|(k, _)| *k == key);
        hit.map(|(_, result)| result.clone())
    });
    known.unwrap_or_else(|| {
        let result = Rc::new(how.execute(&input.spec(), dev));
        result.assert_ok();
        EXECUTED.with_borrow_mut(|runs| runs.push((key, result.clone())));
        result
    })
}

/// Steady-state time of a [`run`], seconds: the number figures report.
pub fn steady(r: &RunResult) -> f64 {
    r.steady_time()
        .expect("every shared run has a warm iteration")
}

/// A figure's headline ratio (a speedup, a slowdown), one entry per
/// sweep point, warm and cold.
#[derive(Default)]
pub struct Ratios(Vec<(&'static str, f64, f64)>);

impl Ratios {
    /// Record `num / den` on `dev`; returns the steady-state ratio, which
    /// is what the figure's table prints.
    pub fn push(&mut self, dev: &DeviceProfile, num: &RunResult, den: &RunResult) -> f64 {
        let warm = steady(num) / steady(den);
        let cold = num.cold_time() / den.cold_time();
        self.0.push((dev_key(dev), warm, cold));
        warm
    }

    /// Declare the geomean over `dev`'s points (`None`: all of them) as
    /// the higher-is-better `{prefix}{name}` with the paper's value, and
    /// the same over first iterations as the ungated
    /// `{prefix}cold_{name}`.
    pub fn declare(
        &self,
        metrics: &mut Metrics,
        dev: Option<&DeviceProfile>,
        (prefix, name): (&str, &str),
        (lo, hi): (f64, f64),
    ) {
        let mine = || {
            let all = self.0.iter();
            all.filter(|(key, ..)| dev.is_none_or(|d| dev_key(d) == *key))
        };
        let geo = |xs: Vec<f64>| round_sig(geomean(&xs), 6);
        let warm = geo(mine().map(|r| r.1).collect());
        let cold = geo(mine().map(|r| r.2).collect());
        metrics
            .higher(&format!("{prefix}{name}"), warm)
            .paper(lo, hi);
        metrics.info(&format!("{prefix}cold_{name}"), cold);
    }
}
