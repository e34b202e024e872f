//! Schedule sanitizer: static analysis of the inferred dependency DAG.
//!
//! The paper's correctness story is dynamic — run the program, let the
//! simulator's race detector object if the scheduler under-synchronized.
//! This module proves the same property *statically*, from the DAG and
//! the NIDL signatures alone, and adds checks the dynamic detector
//! structurally cannot make:
//!
//! * **Soundness** — every write/read or write/write conflict pair on
//!   the same value must be ordered by happens-before reachability over
//!   the recorded edges ([`dag::Reachability`]); an unordered pair is a
//!   [`ScheduleViolation::UnorderedConflict`].
//! * **Signature honesty** — the `const`/`in` annotations the scheduler
//!   trusts are cross-checked against the [`kernels::KernelDef::writes`]
//!   ground truth; a parameter declared read-only but actually written is
//!   a [`ScheduleViolation::DishonestSignature`]. The simulator's race
//!   detector sees only the *declared* access sets, so a lying signature
//!   races silently at run time — only this static check catches it.
//! * **Minimality** — edges that are individually redundant (a parallel
//!   edge or transitive path orders the same pair) are counted, and
//!   [`crate::GrCuda::audit`] stamps them so `to_dot` renders them
//!   dashed gray. Informational: redundant edges cost events, not
//!   correctness.
//! * **Liveness lints** — writes that are overwritten by a pure-`out`
//!   parameter before anyone reads them ([`LintKind::DeadWrite`]), and
//!   arrays that are written but never read ([`LintKind::NeverRead`],
//!   informational: a pre-read audit flags every output array).
//!
//! Entry points: [`crate::GrCuda::audit`] for a built program, or
//! [`audit_dag`] for a raw [`ComputationDag`] (property tests audit
//! hand-built DAGs with an empty [`EffectsTable`]). Debug builds also
//! audit automatically on every [`crate::GrCuda::sync`] (a test that
//! runs a schedule it knows is broken lets the host wait past its end
//! instead).
//!
//! The audit's power is shown on broken *programs*, never on a broken
//! runtime: the tests below run a hand-written chain with its events
//! left out and audit the same calls under only the edges that program
//! honors, and the seeded defect `scheduler-drops-kernel-dependencies`
//! in `ci/mutants.txt` breaks the scheduler itself.

mod lints;
mod soundness;

use std::fmt;

use dag::{ComputationDag, Reachability, Value, VertexId};
use kernels::KernelDef;

use crate::nidl::Signature;

pub use lints::{Lint, LintKind};

/// Per-pointer-parameter effect metadata for one registered kernel: what
/// the NIDL signature *declares* next to what the implementation
/// *actually does* ([`KernelDef::writes`]).
#[derive(Debug, Clone)]
struct KernelEffects {
    /// Kernel name (matches the DAG vertex label).
    name: &'static str,
    /// Per pointer parameter: declared read-only (`const`/`in`).
    nidl_read_only: Vec<bool>,
    /// Per pointer parameter: declared pure-`out` (overwritten, never
    /// read) — the annotation that lets the dead-write lint fire.
    declared_out: Vec<bool>,
    /// Per pointer parameter: the implementation writes it (ground
    /// truth, from [`KernelDef::writes`]).
    writes: Vec<bool>,
}

/// Registry of effect metadata for every kernel built in a context,
/// keyed by kernel name. Populated by [`crate::GrCuda::build_kernel`];
/// consulted at audit time only (never on the launch hot path).
#[derive(Debug, Clone, Default)]
pub(crate) struct EffectsTable {
    entries: Vec<KernelEffects>,
}

impl EffectsTable {
    /// An empty table (raw-DAG audits fall back to the per-argument
    /// access modes recorded in the DAG itself).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record a built kernel's declared and actual effects. Re-building
    /// a kernel with the same name replaces its entry.
    pub(crate) fn register(&mut self, def: &KernelDef, sig: &Signature) {
        self.entries.retain(|e| e.name != def.name);
        let ptrs: Vec<_> = sig.params.iter().filter(|p| p.is_pointer()).collect();
        self.entries.push(KernelEffects {
            name: def.name,
            nidl_read_only: ptrs.iter().map(|p| p.is_read_only()).collect(),
            declared_out: ptrs.iter().map(|p| p.is_declared_out()).collect(),
            writes: def.writes.to_vec(),
        });
    }

    /// Effects of the kernel with this name, if registered.
    fn get(&self, name: &str) -> Option<&KernelEffects> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Signature-honesty check: every parameter declared `const`/`in`
    /// but actually written is a [`ScheduleViolation::DishonestSignature`]
    /// — the scheduler would treat the launch as a concurrent-safe read
    /// and under-synchronize it.
    fn dishonest(&self) -> Vec<ScheduleViolation> {
        let mut out = Vec::new();
        for e in &self.entries {
            for (i, (&ro, &w)) in e.nidl_read_only.iter().zip(&e.writes).enumerate() {
                if ro && w {
                    out.push(ScheduleViolation::DishonestSignature {
                        kernel: e.name,
                        param: i,
                    });
                }
            }
        }
        out
    }

    /// Opposite direction, informational: parameters declared writable
    /// that the implementation never writes. Legal ("not specifying
    /// arguments as read-only does not affect correctness") but each one
    /// costs parallelism the Fig. 3 read rules would have recovered.
    fn overcautious_params(&self) -> usize {
        self.entries
            .iter()
            .flat_map(|e| e.nidl_read_only.iter().zip(&e.writes))
            .filter(|(&ro, &w)| !ro && !w)
            .count()
    }
}

/// The kind of access conflict behind an unordered pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictKind {
    /// Both vertices (effectively) write the value.
    WriteWrite,
    /// One writes, the other reads — covers RAW and WAR; with no
    /// ordering between the pair the two are indistinguishable.
    ReadWrite,
}

/// A schedule-soundness violation found by the audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleViolation {
    /// Two conflicting accesses to the same value with no happens-before
    /// path between them: the scheduler may run them concurrently.
    UnorderedConflict {
        /// The conflict class.
        kind: ConflictKind,
        /// The earlier-submitted vertex.
        first: VertexId,
        /// Its label (kernel name or CPU-access tag).
        first_label: &'static str,
        /// The later-submitted vertex.
        second: VertexId,
        /// Its label.
        second_label: &'static str,
        /// The value both touch.
        value: Value,
    },
    /// A NIDL parameter declared `const`/`in` whose implementation
    /// writes the buffer ([`KernelDef::writes`]).
    DishonestSignature {
        /// The lying kernel.
        kernel: &'static str,
        /// Zero-based pointer-parameter index.
        param: usize,
    },
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleViolation::UnorderedConflict {
                kind,
                first,
                first_label,
                second,
                second_label,
                value,
            } => write!(
                f,
                "{}: `{first_label}` (v{}) and `{second_label}` (v{}) both touch value {} \
                 with no happens-before path",
                match kind {
                    ConflictKind::WriteWrite => "write/write unordered",
                    ConflictKind::ReadWrite => "read/write unordered",
                },
                first.0,
                second.0,
                value.0,
            ),
            ScheduleViolation::DishonestSignature { kernel, param } => write!(
                f,
                "dishonest signature: `{kernel}` declares pointer parameter {param} \
                 const/in but its implementation writes it"
            ),
        }
    }
}

/// Everything one audit pass found. [`AuditReport::is_clean`] is the
/// property CI gates on; the lints and counters are diagnostics.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Soundness and signature-honesty violations (must be empty).
    pub violations: Vec<ScheduleViolation>,
    /// Dead writes: overwritten by a pure-`out` parameter, never read.
    pub dead_writes: Vec<Lint>,
    /// Arrays written but never read (informational — a pre-read audit
    /// flags every output array).
    pub never_read: Vec<Lint>,
    /// Stored vertices examined.
    pub vertices: usize,
    /// Stored edges examined.
    pub edges: usize,
    /// Individually-redundant edges (informational; see
    /// [`Reachability::redundant_edges`]).
    pub redundant_edges: usize,
    /// Conflicting access pairs whose ordering was checked.
    pub checked_pairs: usize,
    /// Declared-writable parameters that never write (informational:
    /// legal, but each one costs parallelism the Fig. 3 read rules would
    /// have recovered).
    pub overcautious_params: usize,
}

impl AuditReport {
    /// True when the audit found no violations. Lints and redundancy do
    /// not affect cleanliness.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule audit: {} vertices, {} edges ({} redundant), {} conflicting pairs checked",
            self.vertices, self.edges, self.redundant_edges, self.checked_pairs
        )?;
        writeln!(
            f,
            "  violations: {}, dead writes: {}, never-read arrays: {}, overcautious params: {}",
            self.violations.len(),
            self.dead_writes.len(),
            self.never_read.len(),
            self.overcautious_params,
        )?;
        for v in &self.violations {
            writeln!(f, "  VIOLATION {v}")?;
        }
        for l in &self.dead_writes {
            writeln!(f, "  LINT {l}")?;
        }
        for l in &self.never_read {
            writeln!(f, "  LINT {l}")?;
        }
        Ok(())
    }
}

/// Audit a DAG against an effects table over every recorded edge. This
/// is the whole sanitizer in one call; [`crate::GrCuda::audit`] wraps it
/// with the context's own DAG and effects.
pub(crate) fn audit_dag(dag: &ComputationDag, effects: &EffectsTable) -> AuditReport {
    audit_under(dag, effects, None)
}

/// The audit with conflicting pairs judged ordered or not under `reach`
/// (`None`: the reachability over every recorded edge, which edge
/// redundancy is always counted against). Tests pass a subset of the
/// edges to ask "what if the schedule had not honored the rest?".
pub(crate) fn audit_under(
    dag: &ComputationDag,
    effects: &EffectsTable,
    reach: Option<&Reachability>,
) -> AuditReport {
    let full = Reachability::new(dag);
    let redundant_edges = full.redundant_edges(dag).iter().filter(|&&r| r).count();
    let accesses = soundness::collect_accesses(dag, effects);
    let (mut violations, checked_pairs) =
        soundness::unordered_conflicts(dag, &accesses, reach.unwrap_or(&full));
    violations.extend(effects.dishonest());
    let (dead_writes, never_read) = lints::liveness(dag, &accesses);

    AuditReport {
        violations,
        dead_writes,
        never_read,
        vertices: dag.stored_len(),
        edges: dag.edges().len(),
        redundant_edges,
        checked_pairs,
        overcautious_params: effects.overcautious_params(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Arg, GrCuda, Options};
    use gpu_sim::{DeviceProfile, Grid};
    use kernels::util::{AXPY, MEMSET_F32};
    use kernels::vec_ops::{REDUCE_SUM_DIFF, SQUARE};

    const G: Grid = Grid {
        blocks: (32, 1, 1),
        threads: (128, 1, 1),
    };

    impl ScheduleViolation {
        /// Short class tag for assertions.
        fn class(&self) -> &'static str {
            match self {
                ScheduleViolation::UnorderedConflict {
                    kind: ConflictKind::WriteWrite,
                    ..
                } => "unordered-write-write",
                ScheduleViolation::UnorderedConflict {
                    kind: ConflictKind::ReadWrite,
                    ..
                } => "unordered-read-write",
                ScheduleViolation::DishonestSignature { .. } => "dishonest-signature",
            }
        }
    }

    impl AuditReport {
        /// How many violations carry this class tag:
        /// `unordered-write-write`, `unordered-read-write` or
        /// `dishonest-signature`.
        pub(crate) fn class_count(&self, class: &str) -> usize {
            self.violations
                .iter()
                .filter(|v| v.class() == class)
                .count()
        }
    }

    /// `memset` with a signature that *lies*: the pointer is declared
    /// `const` but the implementation (ground truth: `writes`) fills it.
    fn lying_memset() -> kernels::KernelDef {
        kernels::KernelDef {
            name: "memset_lying",
            nidl: "const pointer float, float, sint32",
            func: MEMSET_F32.func,
            cost: MEMSET_F32.cost,
            writes: &[true],
        }
    }

    /// `memset` declared pure `out` — the honest annotation that lets
    /// the dead-write lint prove an earlier write wasted.
    fn pure_out_memset() -> kernels::KernelDef {
        kernels::KernelDef {
            name: "memset_out",
            nidl: "out pointer float, float, sint32",
            func: MEMSET_F32.func,
            cost: MEMSET_F32.cost,
            writes: &[true],
        }
    }

    fn quickstart(g: &GrCuda) {
        let n = 1 << 10;
        let x = g.array_f32(n);
        let y = g.array_f32(n);
        let z = g.array_f32(1);
        x.fill_f32(3.0);
        y.fill_f32(2.0);
        let sq = g.build_kernel(&SQUARE).unwrap();
        let red = g.build_kernel(&REDUCE_SUM_DIFF).unwrap();
        sq.launch(G, &[Arg::array(&x), Arg::scalar(n as f64)])
            .unwrap();
        sq.launch(G, &[Arg::array(&y), Arg::scalar(n as f64)])
            .unwrap();
        red.launch(
            G,
            &[
                Arg::array(&x),
                Arg::array(&y),
                Arg::array(&z),
                Arg::scalar(n as f64),
            ],
        )
        .unwrap();
    }

    #[test]
    fn correctly_inferred_schedule_audits_clean() {
        let g = GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel());
        quickstart(&g);
        let report = g.audit();
        assert!(report.is_clean(), "{report}");
        assert!(report.dead_writes.is_empty(), "{report}");
        assert!(report.checked_pairs > 0, "conflicts exist and were checked");
        assert_eq!(report.vertices, 3);
        // z is written by the reduction and read by nobody *yet* — the
        // informational never-read lint flags exactly that output array.
        assert_eq!(report.never_read.len(), 1, "{report}");
        // sq/red declare honest signatures: nothing dishonest, and the
        // only writable-but-unwritten parameters are none.
        assert_eq!(report.overcautious_params, 0);
        g.sync(); // debug sync hook re-audits and must not panic
    }

    #[test]
    fn serial_scheduler_audits_trivially_clean() {
        let g = GrCuda::new(DeviceProfile::tesla_p100(), Options::serial());
        quickstart(&g);
        let report = g.audit();
        assert!(report.is_clean());
        assert_eq!(report.vertices, 0, "serial execution never builds a DAG");
        g.sync();
    }

    /// The headline static-only catch: a `const` parameter whose kernel
    /// writes makes the scheduler treat two launches as concurrent
    /// readers, and the *dynamic* detector — fed the same declared access
    /// sets — never objects. The audit reports both the root cause
    /// (dishonest signature) and the consequence (unordered writes).
    #[test]
    fn lying_signature_is_caught_statically_not_dynamically() {
        let g = GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel());
        let n = 1 << 10;
        let x = g.array_f32(n);
        let liar = g.build_kernel(&lying_memset()).unwrap();
        liar.launch(
            G,
            &[Arg::array(&x), Arg::scalar(1.0), Arg::scalar(n as f64)],
        )
        .unwrap();
        liar.launch(
            G,
            &[Arg::array(&x), Arg::scalar(2.0), Arg::scalar(n as f64)],
        )
        .unwrap();
        let report = g.audit();
        assert_eq!(report.class_count("dishonest-signature"), 1, "{report}");
        assert_eq!(report.class_count("unordered-write-write"), 1, "{report}");
        assert_eq!(report.violations.len(), 2, "nothing else: {report}");
        // Run the schedule without `sync()`, whose debug audit would
        // panic on the violations above: let the host wait past the end
        // of both kernels.
        g.host_spin(1.0);
        let stats = g.snapshot().engine;
        assert_eq!(stats.completed, stats.submitted, "both kernels ran");
        assert!(
            g.races().is_empty(),
            "the dynamic detector trusts the declared access sets and stays silent"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "schedule sanitizer")]
    fn debug_sync_hook_panics_on_violations() {
        let g = GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel());
        let n = 1 << 10;
        let x = g.array_f32(n);
        let liar = g.build_kernel(&lying_memset()).unwrap();
        liar.launch(
            G,
            &[Arg::array(&x), Arg::scalar(1.0), Arg::scalar(n as f64)],
        )
        .unwrap();
        liar.launch(
            G,
            &[Arg::array(&x), Arg::scalar(2.0), Arg::scalar(n as f64)],
        )
        .unwrap();
        g.sync();
    }

    /// Dynamic ⊆ static: a hand-written chain of three kernels, each on
    /// its own stream with no events, races at run time; its DAG audited
    /// under the edges that program honors (none) reports only unordered
    /// conflicts, and among them a counterpart of every race. Prefetch
    /// staging tasks are runtime machinery, not DAG vertices, so the
    /// program issues none: the property is stated over computational
    /// elements.
    #[test]
    fn dropped_dependencies_are_flagged_and_cover_dynamic_races() {
        use cuda_sim::{Cuda, Launch};
        use dag::{ArgAccess, ElementKind};
        use gpu_sim::{KernelBody, TypedData};

        let cuda = Cuda::new(DeviceProfile::tesla_p100());
        let n = 1 << 14;
        let x = cuda.alloc(TypedData::F32(vec![1.0; n]));
        let y = cuda.alloc(TypedData::F32(vec![1.0; n]));
        let z = cuda.alloc(TypedData::F32(vec![0.0; 1]));
        let chain = [
            (&SQUARE, vec![&x], vec![n as f64]),
            (&AXPY, vec![&x, &y], vec![1.0, n as f64]),
            (&REDUCE_SUM_DIFF, vec![&x, &y, &z], vec![n as f64]),
        ];
        let mut dag = ComputationDag::new();
        let mut effects = EffectsTable::new();
        for (def, arrays, scalars) in &chain {
            let sig = Signature::parse(def.nidl).unwrap();
            effects.register(def, &sig);
            let read_only = sig
                .params
                .iter()
                .filter(|p| p.is_pointer())
                .map(|p| p.is_read_only());
            let accesses: Vec<_> = arrays.iter().map(|a| a.id).zip(read_only).collect();
            let buffers: Vec<_> = arrays.iter().map(|a| a.buf.clone()).collect();
            let launch = Launch {
                name: def.name,
                grid: G,
                cost: (def.cost)(&buffers, scalars),
                buffers: &buffers,
                accesses: &accesses,
                body: KernelBody::Fn(def.func),
                scalars,
            };
            cuda.launch(cuda.stream_create(), launch);
            let args: Vec<_> = accesses
                .iter()
                .map(|&(id, read_only)| ArgAccess {
                    value: Value(id.0),
                    read_only,
                })
                .collect();
            dag.register(ElementKind::Kernel, def.name, &args, &mut Vec::new());
        }
        cuda.device_sync();

        let report = audit_under(
            &dag,
            &effects,
            Some(&Reachability::with_edges(&dag, |_, _| false)),
        );
        assert!(report.class_count("unordered-read-write") >= 1, "{report}");
        let unordered = report.class_count("unordered-write-write")
            + report.class_count("unordered-read-write");
        assert_eq!(
            report.violations.len(),
            unordered,
            "dropped dependencies yield only unordered conflicts: {report}"
        );
        let races = cuda.races();
        assert!(!races.is_empty(), "the chain without events must race");
        for r in &races {
            let covered = report.violations.iter().any(|v| match v {
                ScheduleViolation::UnorderedConflict {
                    first_label,
                    second_label,
                    value,
                    ..
                } => {
                    value.0 == r.value.0
                        && ((*first_label == r.first && *second_label == r.second)
                            || (*first_label == r.second && *second_label == r.first))
                }
                ScheduleViolation::DishonestSignature { .. } => false,
            });
            assert!(
                covered,
                "dynamic race {r} has no static counterpart:\n{report}"
            );
        }
    }

    #[test]
    fn dead_write_lint_fires_on_pure_out_overwrite() {
        let g = GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel());
        let n = 1 << 10;
        let x = g.array_f32(n);
        let plain = g.build_kernel(&MEMSET_F32).unwrap();
        let pure = g.build_kernel(&pure_out_memset()).unwrap();
        plain
            .launch(
                G,
                &[Arg::array(&x), Arg::scalar(1.0), Arg::scalar(n as f64)],
            )
            .unwrap();
        pure.launch(
            G,
            &[Arg::array(&x), Arg::scalar(2.0), Arg::scalar(n as f64)],
        )
        .unwrap();
        let report = g.audit();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.dead_writes.len(), 1, "{report}");
        let lint = &report.dead_writes[0];
        assert_eq!(lint.writer_label, "memset_f32");
        assert!(matches!(
            &lint.kind,
            LintKind::DeadWrite { overwriter_label, .. } if *overwriter_label == "memset_out"
        ));
        g.sync();
        assert_eq!(
            x.get_f32(0),
            2.0,
            "the overwrite, not the dead write, lands"
        );
    }

    /// A plain (inout) overwrite must NOT be flagged dead: the scheduler
    /// cannot prove the second kernel ignored the first one's result.
    #[test]
    fn inout_overwrite_is_not_a_dead_write() {
        let g = GrCuda::new(DeviceProfile::tesla_p100(), Options::parallel());
        let n = 1 << 10;
        let x = g.array_f32(n);
        let plain = g.build_kernel(&MEMSET_F32).unwrap();
        for v in [1.0, 2.0] {
            plain
                .launch(G, &[Arg::array(&x), Arg::scalar(v), Arg::scalar(n as f64)])
                .unwrap();
        }
        let report = g.audit();
        assert!(report.is_clean());
        assert!(report.dead_writes.is_empty(), "{report}");
        g.sync();
    }

    #[test]
    fn effects_table_flags_only_lying_params() {
        let mut t = EffectsTable::new();
        let honest_sig = Signature::parse(AXPY.nidl).unwrap();
        t.register(&AXPY, &honest_sig);
        assert!(t.dishonest().is_empty());
        assert_eq!(t.overcautious_params(), 0);

        let liar = lying_memset();
        let lying_sig = Signature::parse(liar.nidl).unwrap();
        t.register(&liar, &lying_sig);
        let bad = t.dishonest();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].class(), "dishonest-signature");
        assert!(matches!(
            &bad[0],
            ScheduleViolation::DishonestSignature { kernel, param: 0 } if *kernel == "memset_lying"
        ));

        // Re-registering replaces, never duplicates.
        t.register(&liar, &lying_sig);
        assert_eq!(t.entries.len(), 2);
        assert_eq!(t.dishonest().len(), 1);
    }

    #[test]
    fn overcautious_params_are_counted_not_violations() {
        // A copy that declares both pointers writable but only writes
        // the second: legal, costs parallelism, worth a counter.
        let cautious = kernels::KernelDef {
            name: "copy_cautious",
            nidl: "pointer float, pointer float, sint32",
            func: kernels::util::COPY_F32.func,
            cost: kernels::util::COPY_F32.cost,
            writes: &[false, true],
        };
        let mut t = EffectsTable::new();
        t.register(&cautious, &Signature::parse(cautious.nidl).unwrap());
        assert!(t.dishonest().is_empty());
        assert_eq!(t.overcautious_params(), 1);
    }

    /// Minimality: a diamond whose join reads a value the source also
    /// wrote produces one transitively-covered edge; the audit counts it
    /// without calling it a violation.
    #[test]
    fn redundant_edges_are_informational() {
        use dag::{ArgAccess, ComputationDag, ElementKind, Value};
        let mut d = ComputationDag::new();
        let x = Value(0);
        let y = Value(1);
        let z = Value(2);
        d.add_computation(
            ElementKind::Kernel,
            "K1",
            vec![ArgAccess::write(x), ArgAccess::write(y)],
        );
        d.add_computation(
            ElementKind::Kernel,
            "K2",
            vec![ArgAccess::read(x), ArgAccess::write(z)],
        );
        d.add_computation(
            ElementKind::Kernel,
            "K3",
            vec![ArgAccess::read(y), ArgAccess::read(z)],
        );
        let report = audit_dag(&d, &EffectsTable::new());
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.redundant_edges, 1);
        assert_eq!(report.edges, 3);
    }
}
