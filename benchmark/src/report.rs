//! The metric registry and the run report.
//!
//! Every metric the benchmark prints is declared here once, with its
//! unit, direction and whether it is **simulated time** (a
//! deterministic output of the simulator: repeats exactly for a seed)
//! or **host time** (what the implementation costs on this machine:
//! median over rounds). `BENCHMARK.json` at the repository root lists
//! the same names; a unit test keeps the two in step.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Where a number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Simulated time or a quantity derived from it.
    Simulated,
    /// Host time or host memory.
    Host,
    /// An exact count from the runtime's public statistics.
    Count,
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn def(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> Def {
    Def {
        name,
        unit,
        better,
        kind,
    }
}

use Better::{Higher, Lower};
use Kind::{Count, Host, Simulated};

/// What a user of the system sees. Bounds live in `BENCHMARK.json`.
pub const END_TO_END: [Def; 10] = [
    def("wall_launches_per_s", "launches/s", Higher, Host),
    def("wall_request_p50_us", "us", Lower, Host),
    def("virtual_makespan_ms", "ms", Lower, Simulated),
    def("virtual_speedup_vs_serial_x", "x", Higher, Simulated),
    def("virtual_vs_cuda_graphs_x", "x", Higher, Simulated),
    def("virtual_request_p50_us", "us", Lower, Simulated),
    def("virtual_request_p99_us", "us", Lower, Simulated),
    def("link_traffic_mib", "MiB", Lower, Simulated),
    def("peak_rss_mib", "MiB", Lower, Host),
    def("setup_s", "s", Lower, Host),
];

/// Single layers, `<module>.<metric>`.
pub const PER_LAYER: [Def; 86] = [
    def("grcuda.context.submit_ns_per_launch", "ns", Lower, Host),
    def("grcuda.context.sync_ns_per_launch", "ns", Lower, Host),
    def("grcuda.context.host_read_ns_per_op", "ns", Lower, Host),
    def("grcuda.context.host_write_ns_per_op", "ns", Lower, Host),
    def("grcuda.context.launches", "count", Higher, Count),
    def("grcuda.context.batches", "count", Higher, Count),
    def("grcuda.context.launches_per_batch", "count", Higher, Count),
    def("grcuda.context.overhead_vs_handtuned_pct", "%", Lower, Host),
    def("grcuda.nidl.parse_ns_per_signature", "ns", Lower, Host),
    def("grcuda.nidl.build_kernel_ns", "ns", Lower, Host),
    def("dag.add_computation_ns_per_vertex", "ns", Lower, Host),
    def("dag.retire_compact_ns_per_vertex", "ns", Lower, Host),
    def("dag.vertices", "count", Lower, Count),
    def("dag.edges_per_vertex", "count", Lower, Count),
    def("dag.peak_live_vertices", "count", Lower, Count),
    def(
        "grcuda.stream_manager.assign_ns_per_vertex",
        "ns",
        Lower,
        Host,
    ),
    def(
        "grcuda.stream_manager.streams_created",
        "count",
        Lower,
        Count,
    ),
    def("grcuda.policy.select_ns_per_launch", "ns", Lower, Host),
    def("grcuda.policy.selects", "count", Lower, Count),
    def(
        "grcuda.policy.single-gpu.virtual_makespan_ms",
        "ms",
        Lower,
        Simulated,
    ),
    def(
        "grcuda.policy.single-gpu.wall_launches_per_s",
        "launches/s",
        Higher,
        Host,
    ),
    def(
        "grcuda.policy.round-robin.virtual_makespan_ms",
        "ms",
        Lower,
        Simulated,
    ),
    def(
        "grcuda.policy.round-robin.wall_launches_per_s",
        "launches/s",
        Higher,
        Host,
    ),
    def(
        "grcuda.policy.locality-aware.virtual_makespan_ms",
        "ms",
        Lower,
        Simulated,
    ),
    def(
        "grcuda.policy.locality-aware.wall_launches_per_s",
        "launches/s",
        Higher,
        Host,
    ),
    def(
        "grcuda.policy.transfer-aware.virtual_makespan_ms",
        "ms",
        Lower,
        Simulated,
    ),
    def(
        "grcuda.policy.transfer-aware.wall_launches_per_s",
        "launches/s",
        Higher,
        Host,
    ),
    def(
        "grcuda.policy.stream-aware.virtual_makespan_ms",
        "ms",
        Lower,
        Simulated,
    ),
    def(
        "grcuda.policy.stream-aware.wall_launches_per_s",
        "launches/s",
        Higher,
        Host,
    ),
    def(
        "grcuda.policy.memory-aware.virtual_makespan_ms",
        "ms",
        Lower,
        Simulated,
    ),
    def(
        "grcuda.policy.memory-aware.wall_launches_per_s",
        "launches/s",
        Higher,
        Host,
    ),
    def(
        "grcuda.policy.adaptive.virtual_makespan_ms",
        "ms",
        Lower,
        Simulated,
    ),
    def(
        "grcuda.policy.adaptive.wall_launches_per_s",
        "launches/s",
        Higher,
        Host,
    ),
    def(
        "grcuda.policy.node-aware.virtual_makespan_ms",
        "ms",
        Lower,
        Simulated,
    ),
    def(
        "grcuda.policy.node-aware.wall_launches_per_s",
        "launches/s",
        Higher,
        Host,
    ),
    def("cuda-sim.placement_probe_ns_per_call", "ns", Lower, Host),
    def("cuda-sim.launch_ns_per_kernel", "ns", Lower, Host),
    def("cuda-sim.migrations", "count", Lower, Count),
    def("cuda-sim.p2p_mib", "MiB", Lower, Simulated),
    def("cuda-sim.host_link_mib", "MiB", Lower, Simulated),
    def("cuda-sim.cross_node_mib", "MiB", Lower, Simulated),
    def("grcuda.partition.partition_ns_per_item", "ns", Lower, Host),
    def(
        "grcuda.partition.partitioned_batches",
        "count",
        Lower,
        Count,
    ),
    def("grcuda.partition.cut_mib", "MiB", Lower, Simulated),
    def("gpu-sim.engine.submit_ns_per_task", "ns", Lower, Host),
    def("gpu-sim.engine.advance_ns_per_task", "ns", Lower, Host),
    def("gpu-sim.engine.tasks", "count", Lower, Count),
    def("gpu-sim.engine.rate_refreshes", "count", Lower, Count),
    def("gpu-sim.engine.solver_reuse_pct", "%", Higher, Count),
    def(
        "gpu-sim.engine.retained_tasks_after_sync",
        "count",
        Lower,
        Count,
    ),
    def("gpu-sim.fluid.solve_ns_per_task_1", "ns", Lower, Host),
    def("gpu-sim.fluid.solve_ns_per_task_8", "ns", Lower, Host),
    def("gpu-sim.fluid.solve_ns_per_task_64", "ns", Lower, Host),
    def("gpu-sim.memory_manager.evictions", "count", Lower, Count),
    def(
        "gpu-sim.memory_manager.spilled_mib",
        "MiB",
        Lower,
        Simulated,
    ),
    def(
        "gpu-sim.memory_manager.prefetch_hit_pct",
        "%",
        Higher,
        Count,
    ),
    def(
        "gpu-sim.memory_manager.select_victims_ns_per_call",
        "ns",
        Lower,
        Host,
    ),
    def("kernels.func_ns_per_launch", "ns", Lower, Host),
    def("kernels.func_share_pct", "%", Lower, Host),
    def("kernels.cost_model_ns_per_launch", "ns", Lower, Host),
    def("grcuda.serve.core_submit_ns_per_request", "ns", Lower, Host),
    def("grcuda.serve.core_pump_ns_per_request", "ns", Lower, Host),
    def("grcuda.serve.core_read_ns_per_request", "ns", Lower, Host),
    def("grcuda.serve.launches_per_pump", "count", Higher, Count),
    def(
        "grcuda.serve.rpc_overhead_ns_per_request",
        "ns",
        Lower,
        Host,
    ),
    def("grcuda.serve.threaded_requests_per_s", "1/s", Higher, Host),
    def("grcuda.serve.threaded_request_p50_us", "us", Lower, Host),
    def("grcuda.serve.wall_request_p99_us", "us", Lower, Host),
    def("grcuda.serve.rejected", "count", Lower, Count),
    def("grcuda.serve.fifo_p99_us", "us", Lower, Simulated),
    def("grcuda.serve.wrr_p99_us", "us", Lower, Simulated),
    def("grcuda.serve.edf_p99_us", "us", Lower, Simulated),
    def("grcuda.audit.violations", "count", Lower, Count),
    def("grcuda.audit.audit_ns_per_vertex", "ns", Lower, Host),
    def("metrics.overlap_tot_pct", "%", Higher, Simulated),
    def("metrics.overlap_cc_pct", "%", Higher, Simulated),
    def("metrics.overlap_ct_pct", "%", Higher, Simulated),
    def("metrics.overlap_tc_pct", "%", Higher, Simulated),
    def("metrics.analysis_ns_per_interval", "ns", Lower, Host),
    def("closure.unattributed_pct", "%", Lower, Host),
    def("closure.replay_coverage_pct", "%", Higher, Host),
    def("trace.overhead_pct", "%", Lower, Host),
    def("trace.spans", "count", Lower, Count),
    def("host.calib_ns_per_op", "ns", Lower, Host),
    def("host.threads", "count", Higher, Count),
    def("host.rounds", "count", Higher, Host),
];

/// Metric values of one run, by name.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Record a value.
    ///
    /// # Panics
    /// Panics on a name that is not in the registry, a value that is
    /// not finite, or a second value for the same name: each is a bug
    /// in the benchmark, not a measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == name),
            "metric `{name}` is not registered"
        );
        assert!(value.is_finite(), "metric `{name}` is {value}");
        assert!(self.get(name).is_none(), "metric `{name}` set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub values: Values,
    /// Operations the run attempted (launches, host reads and writes,
    /// requests) and how many failed (refused, rejected, mismatched).
    pub attempted: u64,
    pub failed: u64,
    /// Free-form lines printed above the metric table (round quartiles,
    /// paper comparisons, validation results).
    pub notes: Vec<String>,
}

impl Report {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The human-readable table of `defs`, skipping metrics the run did
    /// not measure.
    pub fn table(&self, defs: &[Def]) -> String {
        let mut out = String::new();
        for d in defs {
            let Some(v) = self.values.get(d.name) else {
                continue;
            };
            let _ = writeln!(
                out,
                "  {:<52} {:>16} {:<10} {:<6} {}",
                d.name,
                fmt_value(v),
                d.unit,
                match d.better {
                    Higher => "higher",
                    Lower => "lower",
                },
                match d.kind {
                    Simulated => "simulated time",
                    Host => "host time",
                    Count => "count",
                },
            );
        }
        out
    }

    /// The result line: one JSON object with exactly `defs` as metrics.
    ///
    /// # Panics
    /// Panics if the run did not measure one of `defs`.
    pub fn json(&self, defs: &[Def]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            let v = self
                .values
                .get(d.name)
                .unwrap_or_else(|| panic!("metric `{}` was not measured", d.name));
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                d.name,
                v,
                d.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(ok)
    }

    fn legal_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = Vec::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(legal_name(d.name), "{}", d.name);
            assert!(legal_unit(d.unit), "{} unit {}", d.name, d.unit);
            assert!(!seen.contains(&d.name), "{} twice", d.name);
            seen.push(d.name);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(!legal_name("µs") && !legal_name(".x") && !legal_name("a b"));
    }

    #[test]
    fn every_builtin_policy_has_its_two_metrics() {
        for p in grcuda::PlacementPolicy::ALL {
            for suffix in ["virtual_makespan_ms", "wall_launches_per_s"] {
                let name = format!("grcuda.policy.{}.{suffix}", p.name());
                assert!(PER_LAYER.iter().any(|d| d.name == name), "{name}");
            }
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let open = start + text[start..].find('[').unwrap();
            let close = open + text[open..].find(']').unwrap();
            &text[open..close]
        };
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let body = section(key);
            assert_eq!(body.matches("\"name\"").count(), defs.len(), "{key}");
            for d in defs {
                let better = match d.better {
                    Higher => "higher",
                    Lower => "lower",
                };
                let entry = format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                    d.name, d.unit
                );
                assert!(body.contains(&entry), "{key} lacks {entry}");
            }
        }
        for w in crate::WORKLOADS {
            assert!(
                section("workloads").contains(&format!("\"name\": \"{w}\"")),
                "{w}"
            );
        }
    }

    #[test]
    fn json_line_has_exactly_the_requested_metrics() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        for d in &END_TO_END {
            r.values.set(d.name, 1.5);
        }
        r.values.set("host.threads", 2.0);
        let line = r.json(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains("host.threads"));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_metric_names_are_rejected() {
        Values::default().set("no.such.metric", 1.0);
    }
}
