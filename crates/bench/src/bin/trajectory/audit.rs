//! Audit: prove every suite's inferred schedule statically sound,
//! across every placement policy, and prove the sanitizer's *power*
//! with failure injections.
//!
//! Three parts:
//! * **suite sweep** — every benchmark suite × every placement policy ×
//!   1/2/4 devices through the unified multi-GPU scheduler; the full
//!   inferred schedule is audited (soundness, signature honesty,
//!   minimality, liveness) *before* the host reads retire it. Asserts
//!   zero violations and zero dead-write lints everywhere; redundant
//!   edges and never-read output arrays are informational counters.
//! * **injection: inference off** — the Vector Squares suite with
//!   dependency inference disabled must produce unordered-conflict
//!   violations (and nothing else): the sanitizer sees exactly the
//!   corruption the negative control injects.
//! * **injection: lying signature** — a kernel whose NIDL declares a
//!   written pointer `const` must produce exactly one
//!   dishonest-signature violation plus the unordered write/write pair
//!   the lie causes. The dynamic race detector is fed the same declared
//!   access sets and stays silent — this failure class is only
//!   catchable statically.
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
use gpu_sim::{DeviceProfile, Grid, Topology};
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

/// Negative control #1: disable dependency inference and audit the
/// schedule the crippled scheduler actually honored. (Prefetch staging
/// is disabled too — its races are runtime machinery, not DAG
/// vertices, and this injection measures the DAG-level violations.)
fn inject_inference_off() -> AuditReport {
    let spec = Bench::Vec.build(tiny(Bench::Vec));
    let g = GrCuda::new(
        DeviceProfile::tesla_p100(),
        Options::parallel()
            .without_dependency_inference()
            .with_prefetch(grcuda::PrefetchPolicy::None),
    );
    // Audit before anything retires: the evidence is the point.
    launch_and_audit(&g, &spec).1
}

/// Negative control #2: a kernel that writes through a pointer its NIDL
/// signature declares `const`.
fn inject_lying_signature() -> AuditReport {
    use kernels::util::MEMSET_F32;
    let lying = kernels::KernelDef {
        name: "memset_lying",
        nidl: "const pointer float, float, sint32",
        func: MEMSET_F32.func,
        cost: MEMSET_F32.cost,
        writes: &[true],
    };
    let g = GrCuda::new(
        DeviceProfile::tesla_p100(),
        Options::parallel().with_sync_audit(false),
    );
    let n = 1 << 12;
    let x = g.array_f32(n);
    let grid = Grid::d1(16, 256);
    let k = g
        .build_kernel(&lying)
        .expect("lying signature still parses");
    for v in [1.0, 2.0] {
        k.launch(
            grid,
            &[Arg::array(&x), Arg::scalar(v), Arg::scalar(n as f64)],
        )
        .expect("launch validates");
    }
    let report = g.audit();
    g.sync();
    assert!(
        g.races().is_empty(),
        "the dynamic detector trusts the declared access sets; \
         a lying signature must race silently"
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

    let off = inject_inference_off();
    let off_unordered =
        off.class_count("unordered-write-write") + off.class_count("unordered-read-write");
    assert!(
        off_unordered >= 1,
        "disabling inference must surface unordered conflicts:\n{off}"
    );
    assert_eq!(
        off.violations.len(),
        off_unordered,
        "inference-off must produce only unordered conflicts:\n{off}"
    );
    println!(
        "injection OK: inference disabled → {off_unordered} unordered-conflict violations \
         (ww={}, rw={})",
        off.class_count("unordered-write-write"),
        off.class_count("unordered-read-write"),
    );

    let lie = inject_lying_signature();
    assert_eq!(
        lie.class_count("dishonest-signature"),
        1,
        "the lying parameter must be flagged exactly once:\n{lie}"
    );
    assert_eq!(
        lie.class_count("unordered-write-write"),
        1,
        "the lie's unordered write pair must be flagged:\n{lie}"
    );
    assert_eq!(lie.violations.len(), 2, "{lie}");
    println!(
        "injection OK: lying `const` signature → 1 dishonest-signature + \
         1 unordered-write-write (dynamic detector silent)\n"
    );

    m.exact("audit.violations", violations as f64);
    m.exact("audit.dead_writes", dead_writes as f64);
    m.exact("audit.checked_pairs", checked as f64);
    m.info("audit.redundant_edges", redundant as f64);
}
