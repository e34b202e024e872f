#![forbid(unsafe_code)]

//! The repository benchmark. One process per workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed S] [--seconds T] [--trace 0|1]
//! ```
//!
//! prints every metric by name with unit, direction and whether it is
//! simulated time or host time, validates the outputs, and ends with
//! one JSON result line. See `benchmark/README.md`.

mod baseline;
mod exec;
mod gen;
mod host;
mod layers;
mod measure;
mod okernels;
mod plan;
mod replay;
mod report;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "pipeline_batch",
    "interactive_sync",
    "paper_suites",
    "placement_cluster",
    "serve_tenants",
];

/// The committed default seed.
const DEFAULT_SEED: u64 = 20_210_517;
/// Default measuring time; `BENCHMARK.json` passes its own.
const DEFAULT_SECONDS: f64 = 20.0;

/// Parsed command line.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag} {value}`: expected {what}");
        match flag.as_str() {
            "--workload" => cfg.workload = value,
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "`--workload` must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: --workload <{}> [--seed S] [--seconds T] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "benchmark: workload={} seed={} seconds={} trace={}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    println!(
        "host: available_parallelism={} rustc=\"{}\"",
        host::threads(),
        host::RUSTC_VERSION
    );
    let mut report = match cfg.workload.as_str() {
        "pipeline_batch" => workloads::pipeline_batch(&cfg),
        "interactive_sync" => workloads::interactive_sync(&cfg),
        "paper_suites" => workloads::paper_suites::run(&cfg),
        "placement_cluster" => workloads::placement_cluster::run(&cfg),
        _ => workloads::serve_tenants::run(&cfg),
    };
    report.values.set("peak_rss_mib", host::peak_rss_mib());
    for line in &report.notes {
        println!("{line}");
    }
    println!("end-to-end metrics (measured with tracing off):");
    print!("{}", report.table(&report::END_TO_END));
    if cfg.trace {
        println!("per-layer metrics (traced run and isolated replays):");
        print!("{}", report.table(&report::PER_LAYER));
    }
    println!(
        "operations: attempted={} failed={} correct={}",
        report.attempted,
        report.failed,
        report.correct()
    );
    let defs: &[report::Def] = if cfg.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    println!("{}", report.json(defs));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Config, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_command_line_parses() {
        let c = parse(&[
            "--workload",
            "serve_tenants",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (c.workload.as_str(), c.seed, c.seconds, c.trace),
            ("serve_tenants", 7, 3.0, true)
        );
        let d = parse(&["--workload", "paper_suites"]).unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn bad_command_lines_are_errors() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "paper_suites", "--seed"]).is_err());
        assert!(parse(&["--workload", "paper_suites", "--seed", "-1"]).is_err());
        assert!(parse(&["--workload", "paper_suites", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "paper_suites", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "paper_suites", "--frobnicate", "1"]).is_err());
    }
}
