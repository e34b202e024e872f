//! Audit: prove every suite's inferred schedule statically sound,
//! across every placement policy.
//!
//! Every benchmark suite × every placement policy × 1/2/4 devices runs
//! through the unified multi-GPU scheduler, and the full inferred
//! schedule is audited (soundness, signature honesty, minimality,
//! liveness) *before* the host reads retire it. Asserts zero violations
//! and zero dead-write lints everywhere; redundant edges and never-read
//! output arrays are informational counters.
//!
//! That the sanitizer catches what it should is checked by the tests of
//! `grcuda`'s audit module: a hand-written chain with its events left
//! out yields only unordered conflicts, covering every dynamic race, and
//! a lying `const` signature exactly one dishonest-signature and one
//! unordered write/write pair while the dynamic race detector stays
//! silent. `tests/failure_injection.rs` checks that each suite's plan
//! with its dependencies left out races or fails validation wherever
//! it has a dependency to lose.
//!
//! `--smoke` trims the device sweep to 2 devices. The `audit.*` counts
//! gate exactly (violations and dead writes at zero), except
//! `audit.redundant_edges`, which is informational by design: a
//! redundant edge costs an event, not correctness, and legitimate
//! scheduler changes move it.

use bench::render_table;
use benchmarks::{
    grcuda_arrays, read_grcuda_outputs, refresh_grcuda_arrays, tiny, Bench, BenchSpec, PlanArg,
};
use gpu_sim::{DeviceProfile, Topology};
use grcuda::{Arg, AuditReport, DeviceArray, GrCuda, Options, PlacementPolicy};

use crate::metric::Metrics;

/// Launch every op of the spec once and audit the complete inferred
/// schedule before anything retires it.
fn launch_and_audit(g: &GrCuda, spec: &BenchSpec) -> (Vec<DeviceArray>, AuditReport) {
    let arrays = grcuda_arrays(g, spec);
    refresh_grcuda_arrays(spec, &arrays);
    for op in &spec.ops {
        let args: Vec<Arg> = op
            .args
            .iter()
            .map(|a| match a {
                PlanArg::Arr(i) => Arg::array(&arrays[*i]),
                PlanArg::Scalar(v) => Arg::scalar(*v),
            })
            .collect();
        g.build_kernel(op.def)
            .expect("suite signatures parse")
            .launch(op.grid, &args)
            .expect("suite launches validate");
    }
    let report = g.audit();
    (arrays, report)
}

/// Run one suite under one placement policy and audit the complete
/// inferred schedule before the host reads retire it.
fn audit_suite(b: Bench, policy: PlacementPolicy, n_devices: usize) -> AuditReport {
    let spec = b.build(tiny(b));
    let dev = DeviceProfile::tesla_p100();
    let topo = Topology::pcie_only(n_devices, &dev);
    let g = GrCuda::with_topology(dev, topo, Options::parallel(), policy);
    let (arrays, report) = launch_and_audit(&g, &spec);
    read_grcuda_outputs(&spec, &arrays);
    g.sync();
    assert!(
        g.races().is_empty(),
        "{} under {policy:?}: dynamic race despite clean audit",
        spec.name
    );
    report
}

pub fn run(smoke: bool, m: &mut Metrics) {
    let device_counts: &[usize] = if smoke { &[2] } else { &[1, 2, 4] };

    let mut rows = Vec::new();
    let (mut violations, mut dead_writes) = (0usize, 0usize);
    let (mut redundant, mut checked, mut edges) = (0usize, 0usize, 0usize);
    let mut combos = 0usize;
    for b in Bench::ALL {
        for policy in PlacementPolicy::ALL {
            // Without a cluster there are no node hints, so NodeAware
            // produces TransferAware's exact schedule — auditing it
            // here would double-count those pairs in the committed
            // audit.* totals. The hinted path is audited by the
            // cluster sweep and `tests/policies.rs`.
            if policy == PlacementPolicy::NodeAware {
                continue;
            }
            for &n_dev in device_counts {
                let r = audit_suite(b, policy, n_dev);
                assert!(
                    r.is_clean(),
                    "{} × {policy:?} × {n_dev} devices:\n{r}",
                    b.name()
                );
                assert!(
                    r.dead_writes.is_empty(),
                    "{} × {policy:?} × {n_dev} devices has dead writes:\n{r}",
                    b.name()
                );
                violations += r.violations.len();
                dead_writes += r.dead_writes.len();
                redundant += r.redundant_edges;
                checked += r.checked_pairs;
                edges += r.edges;
                combos += 1;
                if n_dev == device_counts[device_counts.len() - 1] {
                    rows.push(vec![
                        b.name().to_string(),
                        format!("{policy:?}"),
                        r.vertices.to_string(),
                        r.edges.to_string(),
                        r.redundant_edges.to_string(),
                        r.checked_pairs.to_string(),
                        r.never_read.len().to_string(),
                    ]);
                }
            }
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "suite",
                "policy",
                "vertices",
                "edges",
                "redundant",
                "pairs checked",
                "never-read (info)",
            ],
            &rows,
        )
    );
    println!(
        "suite sweep OK: {combos} suite×policy×devices combos audited — \
         0 violations, 0 dead writes ({checked} conflicting pairs checked, \
         {redundant}/{edges} edges redundant)\n"
    );

    m.exact("audit.violations", violations as f64);
    m.exact("audit.dead_writes", dead_writes as f64);
    m.exact("audit.checked_pairs", checked as f64);
    m.info("audit.redundant_edges", redundant as f64);
}
