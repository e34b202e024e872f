#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

//! # benchmarks — the paper's 6 task-parallel benchmarks
//!
//! Each benchmark (§V-B, Fig. 6) is described once as a device-agnostic
//! [`BenchSpec`]: managed arrays with deterministic initial contents, a
//! list of kernel launches with the paper's Fig. 6 stream coloring and
//! explicit dependency edges, and the host reads that end an iteration.
//! One spec then runs under every execution strategy of the evaluation:
//!
//! | runner | paper role |
//! |---|---|
//! | [`runners::run_grcuda`] + [`grcuda::Options::serial`] | serial GrCUDA baseline (Fig. 7 denominator) |
//! | [`runners::run_grcuda`] + [`grcuda::Options::parallel`] | **the paper's scheduler** |
//! | [`runners::run_handtuned`] | hand-optimized CUDA events (+ manual prefetch) |
//! | [`runners::run_graph_manual`] | CUDA Graphs with manual dependencies |
//! | [`runners::run_graph_capture`] | CUDA Graphs via stream capture |
//!
//! The GrCUDA runner deliberately ignores the stream/dependency hints:
//! the scheduler must rediscover them. Every run is validated, bit for
//! bit, against a sequential CPU reference execution of the same plan,
//! and the simulator's race detector must stay silent. The GrCUDA
//! runners start the reference on a second thread once the runtime has
//! accepted the whole program, so it runs beside the run it checks; the
//! CUDA baselines keep it inline, because the benchmark reads their
//! host time minus their kernel time (see [`runners`]).

mod bound;
mod cluster;
mod experiment;
mod mixed;
mod oversub;
pub mod runners;
mod scales;
mod spec;
mod suite;
mod transfer;

pub use bound::contention_free_time;
pub use cluster::{cluster_run, ClusterSuite};
pub use experiment::Experiment;
pub use mixed::{fanout_mix, mixed_runs, MixedScale};
pub use oversub::{oversub_capacity, oversub_configs, oversubscribe};
pub use runners::{
    grcuda_arrays, read_grcuda_outputs, refresh_grcuda_arrays, run_graph_capture, run_graph_manual,
    run_grcuda, run_handtuned, run_multi_gpu, RunResult,
};
pub use scales::{default_scale, sweep, tiny};
pub use spec::{ArraySpec, BenchSpec, PlanArg, PlanOp};
pub use transfer::{transfer_chain, TRANSFER_CHAIN_DEVICES};

/// The six benchmarks, in the paper's figure order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bench {
    /// Vector Squares.
    Vec,
    /// Black & Scholes.
    Bs,
    /// Image Processing.
    Img,
    /// ML Ensemble.
    Ml,
    /// HITS.
    Hits,
    /// Deep Learning.
    Dl,
}

impl Bench {
    /// All benchmarks in figure order.
    pub const ALL: [Bench; 6] = [
        Bench::Vec,
        Bench::Bs,
        Bench::Img,
        Bench::Ml,
        Bench::Hits,
        Bench::Dl,
    ];

    /// Short name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Bench::Vec => "VEC",
            Bench::Bs => "B&S",
            Bench::Img => "IMG",
            Bench::Ml => "ML",
            Bench::Hits => "HITS",
            Bench::Dl => "DL",
        }
    }

    /// Build the benchmark's plan at a given scale (the meaning of
    /// "scale" is per-benchmark, matching the paper's x-axes: elements,
    /// options, pixels per side, rows, edges, image side).
    pub fn build(self, scale: usize) -> BenchSpec {
        match self {
            Bench::Vec => suite::vec::build(scale),
            Bench::Bs => suite::bs::build(scale),
            Bench::Img => suite::img::build(scale),
            Bench::Ml => suite::ml::build(scale),
            Bench::Hits => suite::hits::build(scale),
            Bench::Dl => suite::dl::build(scale),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_the_paper() {
        let names: Vec<&str> = Bench::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["VEC", "B&S", "IMG", "ML", "HITS", "DL"]);
    }

    #[test]
    fn all_benchmarks_build_at_small_scale() {
        for b in Bench::ALL {
            let spec = b.build(scales::tiny(b));
            assert!(!spec.ops.is_empty(), "{}", b.name());
            assert!(!spec.arrays.is_empty(), "{}", b.name());
            assert!(spec.footprint_bytes() > 0);
            spec.check_well_formed().unwrap();
        }
    }
}
