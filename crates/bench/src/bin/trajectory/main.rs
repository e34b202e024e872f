//! The bench trajectory: nineteen suites in one process — eight sweeps
//! of the runtime, then the paper's eleven figures and tables — each
//! metric declared with the direction it is judged in, gated against
//! the committed `BENCH_baseline.json` and, where the paper reports the
//! same number, against the paper.
//!
//! ```text
//! cargo run --release -p bench --bin trajectory -- [--smoke] [--refresh] [--dot] [--trace] [SUITE..] [OUT.json]
//! ```
//!
//! * `SUITE..` — any of `soak sched multi_gpu audit serve adaptive
//!   autotune cluster fig1 fig6 table1 fig7 fig7_blocks fig8 fig9 fig10
//!   fig11 fig12 ablation` (default: all nineteen, always in that
//!   order). Each is a module of this binary whose header says what it
//!   sweeps, asserts and records; an assertion failure panics the run.
//!   A subset gates only the keys it produced. The figures draw their
//!   benchmark executions from one table ([`runs`]), so a run two
//!   figures ask for happens once.
//! * `--smoke` — the reduced CI scale, which is the scale the baseline
//!   records: only a smoke run is compared against it. For the sweep
//!   figures (7, 8, 9) it is the middle of the five scales. A
//!   full-scale run prints its metrics and checks what a run can fail
//!   on its own (a non-finite value, a key produced twice, an absolute
//!   floor, a paper band).
//! * `OUT.json` — also write the run's flat `{"key": number}` map
//!   there (the CI artifact).
//! * `--refresh` — after an intentional change: rewrite the baseline
//!   from this run (all suites, `--smoke`), for you to review with
//!   `git diff` and commit.
//! * `--dot` — `fig6` also dumps each inferred DAG as Graphviz DOT.
//! * `--trace` — `fig10` also writes `fig10_trace.json` for Perfetto.
//!
//! The gate prints one verdict line per key — `[ok]`/`[FAIL]`, the
//! declared direction, the value, its baseline and, for a `paper.*` row
//! with a reference, the paper's value and the ratio to it — then the
//! fidelity table `docs/FIDELITY.md` quotes, and the process exits
//! non-zero naming every failed key. [`metric`] holds the rules.

mod ablation;
mod adaptive;
mod audit;
mod autotune;
mod cluster;
mod fig1;
mod fig10;
mod fig11;
mod fig12;
mod fig6;
mod fig7;
mod fig7_blocks;
mod fig8;
mod fig9;
mod metric;
mod multi_gpu;
mod runs;
mod sched;
mod serve;
mod soak;
mod table1;

use std::sync::atomic::Ordering;

use bench::{read_bench_json, render_bench_json};
use benchmarks::Experiment;
use metric::Metrics;

/// A suite: `run(smoke, metrics)`.
type Suite = (&'static str, fn(bool, &mut Metrics));

const SUITES: [Suite; 19] = [
    ("soak", soak::run),
    ("sched", sched::run),
    ("multi_gpu", multi_gpu::run),
    ("audit", audit::run),
    ("serve", serve::run),
    ("adaptive", adaptive::run),
    ("autotune", autotune::run),
    ("cluster", cluster::run),
    ("fig1", fig1::run),
    ("fig6", fig6::run),
    ("table1", table1::run),
    ("fig7", fig7::run),
    ("fig7_blocks", fig7_blocks::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("ablation", ablation::run),
];

/// The one check a recorded placement experiment gets: it is race-free
/// and computed, bit for bit, what `first` (its sweep's first run, `None`
/// for that run itself) did. The acceptance bars are `tests/policies.rs`'s.
fn check(r: &Experiment, first: Option<&Experiment>, what: &str) {
    assert!(r.runtime.races().is_empty(), "{what} raced");
    assert!(
        first.is_none_or(|f| r.same_answer(f)),
        "{what} changed the numbers"
    );
}

/// The committed baseline, at the workspace root.
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");

fn usage(problem: &str) -> ! {
    let suites: Vec<&str> = SUITES.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "trajectory: {problem}\n\
         usage: trajectory [--smoke] [--refresh] [--dot] [--trace] [SUITE..] [OUT.json]\n\
         suites: {}",
        suites.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let (mut smoke, mut refresh, mut out) = (false, false, None);
    let mut named: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--refresh" => refresh = true,
            "--dot" => fig6::DOT.store(true, Ordering::Relaxed),
            "--trace" => fig10::TRACE.store(true, Ordering::Relaxed),
            name if SUITES.iter().any(|(suite, _)| *suite == name) => named.push(arg),
            path if path.ends_with(".json") && out.is_none() => out = Some(arg),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let selected: Vec<&Suite> = SUITES
        .iter()
        .filter(|(name, _)| named.is_empty() || named.iter().any(|n| n == name))
        .collect();
    let complete = selected.len() == SUITES.len();
    if refresh && !(smoke && complete) {
        usage("--refresh rewrites the whole baseline: pass --smoke and no suite subset");
    }

    let mut metrics = Metrics::default();
    for (name, run) in selected {
        println!("=== {name} ===\n");
        run(smoke, &mut metrics);
        println!();
    }
    let json = render_bench_json(&metrics.flat());
    if let Some(out) = &out {
        std::fs::write(out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    }

    // Only a smoke run has a baseline to be compared against, and a
    // refresh is about to replace it: both are judged on their own.
    let baseline = if smoke && !refresh {
        println!("=== gate: against BENCH_baseline.json ===\n");
        let content = std::fs::read_to_string(BASELINE)
            .unwrap_or_else(|e| panic!("cannot read {BASELINE}: {e}"));
        read_bench_json(&content).unwrap_or_else(|e| panic!("cannot parse {BASELINE}: {e}"))
    } else {
        println!("=== gate: no baseline to compare against ===\n");
        Vec::new()
    };
    let failures = metrics.gate(&baseline, complete);
    if let Some(table) = metrics.fidelity_table() {
        println!("\n=== fidelity: simulated vs the paper ===\n\n{table}");
    }
    if !failures.is_empty() {
        eprintln!("\ntrajectory: {} failure(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        eprintln!(
            "\nIf the change is intentional, rewrite the baseline and commit it:\n  \
             cargo run --release -p bench --bin trajectory -- --smoke --refresh"
        );
        std::process::exit(1);
    }
    if refresh {
        std::fs::write(BASELINE, &json).unwrap_or_else(|e| panic!("cannot write {BASELINE}: {e}"));
        println!("\nrefreshed BENCH_baseline.json: review `git diff`, then commit it");
    }
    println!("\nRESULT trajectory ok");
}
